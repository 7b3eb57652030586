//! Shared helpers for the benchmark harness and the experiment driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// The seed every experiment uses unless it sweeps seeds explicitly.
pub const SEED: u64 = 0x5EED_1989;

/// Time a closure once and return (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Median seconds per call of `f` over `reps` timed calls, after one
/// untimed warmup call.
pub fn med(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1.as_secs_f64()).collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Format a duration compactly for table cells.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_secs_f64() >= 1e-3 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.0}µs", d.as_secs_f64() * 1e6)
    }
}

/// Print a markdown table: header row then aligned data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_durations() {
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_dur(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_dur(Duration::from_micros(7)), "7µs");
    }

    #[test]
    fn med_warms_up_then_times_each_rep() {
        let mut calls = 0;
        let secs = med(3, || calls += 1);
        assert_eq!(calls, 4);
        assert!(secs >= 0.0);
    }

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_secs() < 5);
    }
}
