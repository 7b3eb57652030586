//! Facts about the host and the inputs, recorded with every run so each
//! number can be read against the machine that produced it.

use crate::report::{json_str, Report};
use crate::Config;
use std::path::Path;
use std::process::{Command, Stdio};

/// Threads the machine offers this process: the default pool size.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The trimmed standard output of a short reporting command, if it exits
/// successfully. `output` waits for the process to end.
fn command(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// The last-level cache as `getconf` reports it: L3 when the host has
/// one, else L2.
pub fn llc() -> Option<(&'static str, u64)> {
    [("L3", "LEVEL3_CACHE_SIZE"), ("L2", "LEVEL2_CACHE_SIZE")]
        .into_iter()
        .find_map(|(level, var)| {
            let bytes = command("getconf", &[var])?.parse::<u64>().ok()?;
            (bytes > 0).then_some((level, bytes))
        })
}

/// Record the run's settings and the host it ran on.
pub fn record(cfg: &Config, report: &mut Report) {
    report.fact("workload", json_str(cfg.workload.name()));
    report.fact("seed", cfg.seed);
    report.fact("seconds", cfg.run_time.as_secs_f64());
    report.fact("trace", cfg.trace);
    let nproc = command("nproc", &[]).and_then(|s| s.parse::<u64>().ok());
    report.fact("nproc", nproc.map_or("null".to_string(), |n| n.to_string()));
    report.fact("available_parallelism", available_parallelism());
    report.fact("pool_threads", rayon::current_num_threads());
    match llc() {
        Some((level, bytes)) => {
            report.fact("llc_level", json_str(level));
            report.fact("llc_bytes", bytes);
        }
        None => report.fact("llc_bytes", "null"),
    }
    // The benchmark's checkout need not be a git repository; do not let
    // git report an enclosing one.
    let commit = Path::new(".git")
        .exists()
        .then(|| command("git", &["rev-parse", "HEAD"]))
        .flatten();
    report.fact(
        "git_commit",
        json_str(commit.as_deref().unwrap_or("unknown")),
    );
}
