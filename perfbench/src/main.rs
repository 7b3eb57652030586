//! Benchmark of the parmatch native matchers and match service, timed end
//! to end and per layer.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload list-random --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of BENCHMARK.json and
//! `--trace 1` the per-layer ones, writing the run's spans to
//! `perfbench/traces/<workload>-seed<seed>.jsonl`. Every metric is
//! printed on its own line with its unit and sample count; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A failed operation or output check makes the exit code 1.

mod host;
mod jobs;
mod lists;
mod ops;
mod report;
mod trace;

use report::{json_str, Report};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use trace::SpanLog;

/// The input sets the benchmark runs; BENCHMARK.json says why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ListRandom,
    ListBlocked,
    JobsStream,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ListRandom,
        Workload::ListBlocked,
        Workload::JobsStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ListRandom => "list-random",
            Workload::ListBlocked => "list-blocked",
            Workload::JobsStream => "jobs-stream",
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measuring loop runs.
    pub run_time: Duration,
    pub trace: bool,
    /// `list-*`: the list has `2^log_n` nodes.
    pub log_n: u32,
    /// `jobs-stream`: the pre-built job specs the client cycles through.
    pub ring: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

const USAGE: &str = "usage: perfbench --workload list-random|list-blocked|jobs-stream --seed N --seconds S --trace 0|1\n       perfbench --self-test";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run_time: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace,
        log_n: 22,
        ring: 2048,
        setups: 3,
    })
}

/// Run one workload, filling a report and, when tracing, a span log.
fn run(cfg: &Config) -> (Report, SpanLog) {
    let mut report = Report::default();
    let mut log = SpanLog::new(cfg.trace);
    host::record(cfg, &mut report);
    match cfg.workload {
        Workload::JobsStream => jobs::run(cfg, &mut report, &mut log),
        Workload::ListRandom | Workload::ListBlocked => lists::run(cfg, &mut report, &mut log),
    }
    report.fact("pool_workers", rayon::pool_workers());
    (report, log)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--self-test"] {
        return self_test();
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut report, log) = run(&cfg);
    if cfg.trace {
        let path = format!(
            "perfbench/traces/{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        );
        match log.write(Path::new(&path)) {
            Ok(()) => report.fact("trace_file", json_str(&path)),
            Err(e) => report.fail(format!("writing {path}: {e}")),
        }
        report.fact("spans_kept", log.kept());
        report.fact("spans_dropped", log.dropped());
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A short run of every workload in both modes on small inputs: each must
/// report exactly the metrics BENCHMARK.json names for its mode, each
/// finite and with a unit, and fail nothing.
fn self_test() -> ExitCode {
    let spec = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: reading BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (e2e, layer) = declared_names(&spec);
    let mut ok = !e2e.is_empty() && !layer.is_empty();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 7,
                run_time: Duration::from_millis(200),
                trace,
                log_n: 14,
                ring: 128,
                setups: 2,
            };
            let (report, _) = run(&cfg);
            let want = if trace { &layer } else { &e2e };
            let got: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
            let missing: Vec<&str> = want
                .iter()
                .map(String::as_str)
                .filter(|n| !got.contains(n))
                .collect();
            let extra: Vec<&str> = got
                .iter()
                .copied()
                .filter(|n| !want.iter().any(|w| w == n))
                .collect();
            let invalid: Vec<&str> = report
                .metrics
                .iter()
                .filter(|m| !m.value.is_finite() || m.unit.is_empty())
                .map(|m| m.name.as_str())
                .collect();
            let pass = missing.is_empty()
                && extra.is_empty()
                && invalid.is_empty()
                && report.failed() == 0
                && report.attempted > 0;
            println!(
                "self-test {} trace={}: {} metrics, {} ops, {} failed, missing {missing:?}, unexpected {extra:?}, invalid {invalid:?}: {}",
                workload.name(),
                u8::from(trace),
                got.len(),
                report.attempted,
                report.failed(),
                if pass { "ok" } else { "FAIL" }
            );
            ok &= pass;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metric names BENCHMARK.json declares: those between `"end_to_end"`
/// and `"per_layer"`, and those after `"per_layer"`.
fn declared_names(spec: &str) -> (Vec<String>, Vec<String>) {
    let names = |s: &str| -> Vec<String> {
        s.split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    };
    match (spec.find("\"end_to_end\""), spec.find("\"per_layer\"")) {
        (Some(e), Some(p)) if e < p => (names(&spec[e..p]), names(&spec[p..])),
        _ => (Vec::new(), Vec::new()),
    }
}
