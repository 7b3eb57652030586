//! The appendix's parallel evaluation of `G(n)` and `log G(n)`.
//!
//! "We use array N\[1..n] and n processors. Processor i checks to see
//! whether i is a power of 2. If i is a power of 2, processor i sets
//! N\[i] := log i, otherwise processor i sets N\[i] := nil. Processor 1
//! sets N\[1] := 1. This creates many linked lists in array N. We call
//! the one containing N\[1] the main list. […] The number of executions
//! of the statement N\[i] := N\[N\[i]] needed to transform the last
//! pointer in the main list to point to 1 is an evaluation of
//! log G(n)."
//!
//! The main list is the iterated-log chain
//! `2^⌊log n⌋ → ⌊log n⌋ → …` truncated to power-of-two indices —
//! its length is `Θ(G(n))` — and the doubling rounds needed to collapse
//! it count `log G(n)`. Pointer jumping reads `N\[N\[i]]`, which two
//! processors can target simultaneously, so this program runs on CREW
//! (the appendix machinery is offered for EREW *after* the function
//! values are tabulated; the jumping evaluation itself concurrently
//! reads the shared chain head).

use super::par_for;
use parmatch_pram::{ExecMode, Machine, Model, PramError, Stats, Word};

/// Result of [`eval_log_g_pram`].
#[derive(Debug, Clone)]
pub struct AppendixEval {
    /// The measured jumping-round count — the appendix's evaluation of
    /// `log G(n)` (a number `Θ(log G(n))`).
    pub log_g_rounds: u32,
    /// Length of the main list before jumping — the appendix's
    /// evaluation of `G(n)` (a number `Θ(G(n))`).
    pub main_list_len: u32,
    /// Exact simulated step/work counts.
    pub stats: Stats,
}

/// Evaluate `G(n)` and `log G(n)` on a CREW machine with `p` virtual
/// processors, per the appendix's pointer-jumping procedure.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn eval_log_g_pram(n: usize, p: usize, mode: ExecMode) -> Result<AppendixEval, PramError> {
    assert!(n >= 2, "need n ≥ 2");
    let mut m = match mode {
        ExecMode::Checked => Machine::new(Model::Crew, 0),
        ExecMode::Fast => Machine::new_fast(Model::Crew, 0),
    };
    // Cells 0..=n model N[1..n] 1-indexed; index 0 unused.
    let nn = m.alloc(n + 1);
    let nil: Word = 0; // index 0 doubles as nil — no chain uses it

    // Setup sweep: N[i] := log i for powers of two, N[1] := 1.
    par_for(&mut m, n + 1, p, move |ctx, i| {
        if i == 0 {
            nn.set(ctx, i, nil);
        } else if i == 1 {
            nn.set(ctx, i, 1);
        } else if i.is_power_of_two() {
            nn.set(ctx, i, i.trailing_zeros() as Word);
        } else {
            nn.set(ctx, i, nil);
        }
    })?;

    // The main list (the chain containing N[1]) is the exponential
    // tower 1 ← 2 ← 4 ← 16 ← 65536 ← …: N[2^j] = j stays on the chain
    // only when j is itself a tower value. Its last element is the
    // largest tower value ≤ n and its length is Θ(G(n)).
    let start = {
        let mut t = 1usize;
        while t < 64 && n >> t >= 1 && (1usize << t) <= n {
            let next = 1usize << t;
            if next <= t {
                break;
            }
            t = next;
        }
        t
    };
    // Host-side: measure the main-list length once (the appendix's
    // sequential evaluation of G(n) walks this same chain).
    let mut main_list_len = 1u32;
    {
        let mut i = start;
        while i != 1 {
            i = m.peek(nn.addr(i)) as usize;
            main_list_len += 1;
            assert!(main_list_len <= 64, "main list unexpectedly long");
        }
    }

    // Jump until the whole main list points at 1; count the rounds.
    let mut rounds = 0u32;
    while m.peek(nn.addr(start)) != 1 {
        rounds += 1;
        par_for(&mut m, n + 1, p, move |ctx, i| {
            if i == 0 {
                return;
            }
            let t = nn.get(ctx, i) as usize;
            if t != 0 {
                let t2 = nn.get(ctx, t);
                // N[1] = 1 self-loop keeps collapsed chains stable
                if t2 != 0 {
                    nn.set(ctx, i, t2);
                }
            }
        })?;
        assert!(rounds <= 16, "log G jumping failed to converge");
    }

    Ok(AppendixEval {
        log_g_rounds: rounds,
        main_list_len,
        stats: *m.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_bits::{g_of, log_g};

    #[test]
    fn tracks_g_and_log_g() {
        for e in [4u32, 8, 12, 16, 20] {
            let n = 1usize << e;
            let out = eval_log_g_pram(n, 64, ExecMode::Checked).unwrap();
            let g = g_of(n as u64);
            let lg = log_g(n as u64);
            // Θ-evaluations: within a small additive band of the exact
            // values (the appendix only promises m = Θ(H)).
            assert!(
                (out.main_list_len as i64 - g as i64).abs() <= 2,
                "n=2^{e}: main list {} vs G {}",
                out.main_list_len,
                g
            );
            assert!(
                (out.log_g_rounds as i64 - lg as i64).abs() <= 2,
                "n=2^{e}: rounds {} vs log G {}",
                out.log_g_rounds,
                lg
            );
        }
    }

    #[test]
    fn step_cost_shape() {
        // Each jumping round is one ⌈(n+1)/p⌉ sweep; with p = n the whole
        // evaluation is O(log G(n)) steps — the appendix's bound.
        let n = 1 << 12;
        let out = eval_log_g_pram(n, n + 1, ExecMode::Fast).unwrap();
        assert!(
            out.stats.steps <= 1 + out.log_g_rounds as u64,
            "steps {} rounds {}",
            out.stats.steps,
            out.log_g_rounds
        );
    }

    #[test]
    fn small_n() {
        let out = eval_log_g_pram(2, 4, ExecMode::Checked).unwrap();
        assert_eq!(out.main_list_len, 2); // 2 -> 1
        assert!(out.log_g_rounds <= 2);
    }

    #[test]
    #[should_panic(expected = "n ≥ 2")]
    fn n_one_panics() {
        let _ = eval_log_g_pram(1, 1, ExecMode::Checked);
    }
}
