//! Adversarial test harness for the matchers and the step engine.
//!
//! This crate closes the loop on `parmatch-pram`'s deterministic fault
//! injection ([`parmatch_pram::fault`]):
//!
//! * [`run_verified`] — the self-checking runner. It arms a
//!   [`FaultPlan`], runs a matcher entry point in [`ExecMode::Checked`],
//!   and classifies what happened: the engine's EREW/CREW conflict
//!   detector caught the fault ([`VerifiedRun::detected_by_engine`]),
//!   the output verifier caught silent corruption
//!   ([`VerifiedRun::caught_by_verifier`]), or the fault was benign
//!   (the output is still a verified maximal matching). Failed runs are
//!   retried from the checkpointed input under the transient-fault
//!   model — every fault that already struck is removed
//!   ([`FaultPlan::without_sites`]) — up to a bounded budget, so
//!   recovery always converges.
//! * [`fault_matrix`] — the detection matrix: every
//!   [`FaultClass`] × every [`MatcherKind`], seeded trials, counting
//!   injected / detected-by-engine / caught-by-verifier / recovered.
//!   Same seed ⇒ identical counts, on any rayon pool size (injection
//!   happens only in the engine's sequential phases).
//! * [`adversary`] — seeded *illegal* PRAM programs with conflicts
//!   planted at known `(step, pid, addr)` sites, asserting the
//!   epoch-stamped engine reports the bit-identical canonical error the
//!   legacy log-and-sort engine does.
//!
//! The matchers re-validate with [`parmatch_core::verify`]: output is a
//! matching, it is maximal, and it covers ≥ ⅓ of the pointers (the
//! paper's size guarantee) — so any fault that slips past the machine
//! model's conflict detector but corrupts the answer is still caught.

pub mod adversary;

use parmatch_core::pram_impl::{match1_pram, match2_pram, match3_pram, match4_pram};
use parmatch_core::{verify, CoinVariant, Match3Config, Matching};
use parmatch_list::{random_list, LinkedList};
use parmatch_pram::fault::{self};
use parmatch_pram::{ExecMode, FaultClass, FaultPlan, Trace};

/// The four matcher entry points the harness drives, with the canonical
/// (small-list, checked-mode) parameters used by the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatcherKind {
    /// `match1_pram` with p = n.
    Match1,
    /// `match2_pram` with p = n, 2 partition rounds.
    Match2,
    /// `match3_pram` with p = 8 and the lean (j = 1, 2^8-entry) table.
    Match3,
    /// `match4_pram` with i = 2 (p chosen internally as n/x).
    Match4,
}

impl MatcherKind {
    /// Every matcher, in matrix-column order.
    pub const ALL: [MatcherKind; 4] = [
        MatcherKind::Match1,
        MatcherKind::Match2,
        MatcherKind::Match3,
        MatcherKind::Match4,
    ];

    /// Stable lowercase name (JSON keys, table columns).
    pub fn name(&self) -> &'static str {
        match self {
            MatcherKind::Match1 => "match1",
            MatcherKind::Match2 => "match2",
            MatcherKind::Match3 => "match3",
            MatcherKind::Match4 => "match4",
        }
    }
}

/// One successful matcher run: the output plus its simulated step count
/// (used to scope fault-plan generation to steps that exist).
#[derive(Debug, Clone)]
pub struct MatcherRun {
    /// The matching produced.
    pub matching: Matching,
    /// Simulated steps the run took.
    pub steps: u64,
}

thread_local! {
    /// Set while this thread runs a matcher under [`run_matcher`]:
    /// panics here are *expected* (fault-tripped assertions, caught and
    /// classified) and must not spew backtraces.
    static EXPECTED_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with panic messages suppressed on this thread only. The
/// process-global hook is installed once and filters on a thread-local
/// flag, so concurrent threads (other tests, rayon workers) keep the
/// default reporting.
///
/// Public for harnesses that catch *expected* panics themselves — the
/// service layer wraps each job's `catch_unwind` in this so a
/// cancellation probe's deliberate unwind (or a fault-tripped matcher
/// assertion) does not spew a backtrace while genuine panics elsewhere
/// in the process still report normally.
pub fn with_expected_panics<R>(f: impl FnOnce() -> R) -> R {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTED_PANICS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            EXPECTED_PANICS.with(|s| s.set(false));
        }
    }
    EXPECTED_PANICS.with(|s| s.set(true));
    let _reset = Reset;
    f()
}

/// Run one matcher entry point in checked mode, mapping every failure —
/// engine error or internal panic — to a string. Panics are caught
/// (and their backtraces suppressed) because a fault-corrupted
/// intermediate can trip a matcher's own assertions; for
/// classification that is an engine-side detection, not silent
/// corruption.
pub fn run_matcher(kind: MatcherKind, list: &LinkedList) -> Result<MatcherRun, String> {
    let n = list.len();
    let run = with_expected_panics(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<MatcherRun, String> {
                match kind {
                    MatcherKind::Match1 => {
                        match1_pram(list, n, CoinVariant::Msb, ExecMode::Checked)
                            .map(|o| MatcherRun {
                                matching: o.matching,
                                steps: o.stats.steps,
                            })
                            .map_err(|e| e.to_string())
                    }
                    MatcherKind::Match2 => {
                        match2_pram(list, n, 2, CoinVariant::Msb, ExecMode::Checked)
                            .map(|o| MatcherRun {
                                matching: o.matching,
                                steps: o.stats.steps,
                            })
                            .map_err(|e| e.to_string())
                    }
                    MatcherKind::Match3 => {
                        let cfg = Match3Config {
                            jump_rounds: Some(1),
                            ..Match3Config::default()
                        };
                        match3_pram(list, 8, cfg, ExecMode::Checked)
                            .map(|o| MatcherRun {
                                matching: o.matching,
                                steps: o.stats.steps,
                            })
                            .map_err(|e| e.to_string())
                    }
                    MatcherKind::Match4 => {
                        match4_pram(list, 2, None, CoinVariant::Msb, ExecMode::Checked)
                            .map(|o| MatcherRun {
                                matching: o.matching,
                                steps: o.stats.steps,
                            })
                            .map_err(|e| e.to_string())
                    }
                }
            },
        ))
    });
    match run {
        Ok(r) => r,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "matcher panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// What [`run_verified`] observed.
#[derive(Debug, Clone, Default)]
pub struct VerifiedRun {
    /// Total attempts made (1 = no retry needed).
    pub attempts: u32,
    /// The first attempt failed with an engine error (conflict
    /// detector, bounds check, or a tripped matcher assertion).
    pub detected_by_engine: bool,
    /// The first attempt returned Ok but the output failed
    /// re-validation — silent corruption caught by the verifier.
    pub caught_by_verifier: bool,
    /// Faults fired on the first attempt yet the output still verified
    /// (the fault landed somewhere the algorithm tolerates).
    pub benign: bool,
    /// At least one retry was needed and the final output verified.
    pub recovered: bool,
    /// The final output is a verified maximal matching.
    pub verified: bool,
    /// Fault events on the first attempt.
    pub events: u64,
    /// Plan sites that fired on the first attempt.
    pub fired: Vec<usize>,
    /// The engine error of the first attempt, when there was one.
    pub error: Option<String>,
    /// The first attempt's step trace (phase spans, per-step fault
    /// counts) with [`Trace::retries`] counting the retries taken.
    pub trace: Option<Trace>,
}

/// Re-validate a matcher's output: a matching, maximal, and covering at
/// least a third of the pointers (Han's size guarantee).
pub fn output_verifies(list: &LinkedList, m: &Matching) -> bool {
    verify::is_matching(list, m) && verify::is_maximal(list, m) && verify::covers_third(list, m)
}

/// The self-checking runner: run `kind` on `list` with `plan` armed,
/// classify the outcome, and retry (re-running from the input, which is
/// the checkpoint — the machine is rebuilt from it on every attempt)
/// with the already-struck sites removed, up to `budget` retries.
///
/// Each failed attempt fires at least one site (a run in which nothing
/// fires is fault-free and must verify), and every fired site is pruned
/// before the next attempt, so `budget ≥ plan.sites.len()` guarantees
/// convergence under the transient-fault model.
pub fn run_verified(
    kind: MatcherKind,
    list: &LinkedList,
    plan: &FaultPlan,
    budget: u32,
) -> VerifiedRun {
    let _ = fault::take_probes(); // drop stale probes from earlier runs
    let mut active = plan.clone();
    let mut out = VerifiedRun::default();
    loop {
        fault::arm_with_trace(active.clone());
        let res = run_matcher(kind, list);
        fault::disarm(); // n < 2 early returns never build a machine
        let probe = fault::take_probes().pop().unwrap_or_default();
        let fired_now = probe.report.fired.clone();
        let first = out.attempts == 0;
        out.attempts += 1;
        if first {
            out.events = probe.report.events;
            out.fired = fired_now.clone();
            out.trace = probe.trace;
        }
        match res {
            Ok(run) => {
                if output_verifies(list, &run.matching) {
                    out.verified = true;
                    if first {
                        out.benign = out.events > 0;
                    } else {
                        out.recovered = true;
                    }
                    return out;
                }
                if first {
                    out.caught_by_verifier = true;
                }
            }
            Err(e) => {
                if first {
                    out.detected_by_engine = true;
                    out.error = Some(e);
                }
            }
        }
        if out.attempts > budget {
            return out;
        }
        active = active.without_sites(&fired_now);
        if let Some(t) = out.trace.as_mut() {
            t.add_retry();
        }
    }
}

/// Configuration of the [`fault_matrix`] sweep.
#[derive(Debug, Clone, Copy)]
pub struct MatrixConfig {
    /// List size (one random layout per matrix).
    pub n: usize,
    /// Master seed: list layout and every per-trial fault plan derive
    /// from it.
    pub seed: u64,
    /// Trials per (matcher, class) cell.
    pub trials: usize,
    /// Fault sites generated per trial.
    pub sites_per_trial: usize,
    /// Retry budget per trial (defaults to `sites_per_trial`, the
    /// convergence bound).
    pub retry_budget: u32,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            n: 96,
            seed: 42,
            trials: 6,
            sites_per_trial: 6,
            retry_budget: 6,
        }
    }
}

/// One (matcher, fault-class) cell of the detection matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Matcher column ([`MatcherKind::name`]).
    pub matcher: &'static str,
    /// Fault-class row.
    pub class: FaultClass,
    /// Trials run.
    pub trials: u64,
    /// Total injection events across trials (first attempts).
    pub injected: u64,
    /// Trials in which at least one fault fired.
    pub fired_trials: u64,
    /// Trials whose first attempt the engine (or a matcher assertion)
    /// rejected.
    pub detected_by_engine: u64,
    /// Trials whose first attempt returned silently corrupted output
    /// that the verifier rejected.
    pub caught_by_verifier: u64,
    /// Trials where faults fired but the output verified anyway.
    pub benign: u64,
    /// Trials recovered by retry.
    pub recovered: u64,
    /// Trials still unverified after the retry budget (must be 0 when
    /// `retry_budget ≥ sites_per_trial`).
    pub unrecovered: u64,
}

/// splitmix64 — derive per-trial seeds from the master seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the full detection matrix: for every matcher × fault class,
/// `cfg.trials` seeded plans through [`run_verified`].
///
/// Deterministic by construction: plans derive from `cfg.seed`, faults
/// inject only in the engine's sequential phases, and the matchers
/// themselves are pool-size independent — so the returned counts are
/// identical across runs and across `RAYON_NUM_THREADS`.
pub fn fault_matrix(cfg: &MatrixConfig) -> Vec<MatrixCell> {
    let list = random_list(cfg.n, cfg.seed);
    let mut cells = Vec::new();
    for (ki, kind) in MatcherKind::ALL.into_iter().enumerate() {
        let clean = run_matcher(kind, &list).expect("fault-free run must succeed");
        assert!(
            output_verifies(&list, &clean.matching),
            "{}: fault-free output must verify",
            kind.name()
        );
        for class in FaultClass::ALL {
            let mut cell = MatrixCell {
                matcher: kind.name(),
                class,
                trials: cfg.trials as u64,
                injected: 0,
                fired_trials: 0,
                detected_by_engine: 0,
                caught_by_verifier: 0,
                benign: 0,
                recovered: 0,
                unrecovered: 0,
            };
            for t in 0..cfg.trials {
                let mut st = cfg
                    .seed
                    .wrapping_add((ki as u64) << 32)
                    .wrapping_add(t as u64);
                let plan_seed = mix(&mut st);
                // Pids are drawn low (< 16): every matcher keeps at
                // least that many processors busy on a 96-node list, so
                // sites actually land on live writes.
                let plan = FaultPlan::generate(
                    plan_seed,
                    class,
                    cfg.sites_per_trial,
                    clean.steps.max(1),
                    16,
                );
                let run = run_verified(kind, &list, &plan, cfg.retry_budget);
                cell.injected += run.events;
                cell.fired_trials += u64::from(run.events > 0);
                cell.detected_by_engine += u64::from(run.detected_by_engine);
                cell.caught_by_verifier += u64::from(run.caught_by_verifier);
                cell.benign += u64::from(run.benign);
                cell.recovered += u64::from(run.recovered);
                cell.unrecovered += u64::from(!run.verified);
            }
            cells.push(cell);
        }
    }
    cells
}

/// Render a matrix (plus its config) as a self-contained JSON object —
/// the body of `BENCH_faults.json`.
pub fn matrix_json(cfg: &MatrixConfig, cells: &[MatrixCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"n\": {}, \"seed\": {}, \"trials\": {}, \"sites_per_trial\": {}, \"retry_budget\": {}}},\n",
        cfg.n, cfg.seed, cfg.trials, cfg.sites_per_trial, cfg.retry_budget
    ));
    out.push_str("  \"cells\": [\n");
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"matcher\": \"{}\", \"class\": \"{}\", \"trials\": {}, \"injected\": {}, \"fired_trials\": {}, \"detected_by_engine\": {}, \"caught_by_verifier\": {}, \"benign\": {}, \"recovered\": {}, \"unrecovered\": {}}}",
                c.matcher,
                c.class.name(),
                c.trials,
                c.injected,
                c.fired_trials,
                c.detected_by_engine,
                c.caught_by_verifier,
                c.benign,
                c.recovered,
                c.unrecovered
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_pram::{FaultKind, FaultSite};

    #[test]
    fn clean_plan_is_clean_run() {
        let list = random_list(64, 7);
        for kind in MatcherKind::ALL {
            let run = run_verified(kind, &list, &FaultPlan::empty(), 2);
            assert!(run.verified, "{}", kind.name());
            assert_eq!(run.attempts, 1);
            assert_eq!(run.events, 0);
            assert!(!run.benign && !run.recovered && !run.detected_by_engine);
            assert!(run.trace.is_some(), "armed runs carry a trace");
        }
    }

    #[test]
    fn engine_detected_fault_recovers_by_retry() {
        // A duplicate write lands on the neighbouring cell, which
        // another processor writes in the same step: every matcher's
        // first sweep gives each pid its own cell, so the engine must
        // reject step 0 as a write conflict — then the pruned retry
        // must verify.
        let list = random_list(64, 7);
        let plan = FaultPlan::new(vec![FaultSite {
            step: 0,
            pid: 0,
            op: 0,
            kind: FaultKind::DuplicateWrite { offset: 1 },
        }]);
        for kind in MatcherKind::ALL {
            let run = run_verified(kind, &list, &plan, 2);
            assert!(run.verified, "{}: {:?}", kind.name(), run.error);
            assert!(run.detected_by_engine, "{}: {run:?}", kind.name());
            assert!(run.recovered, "{}: {run:?}", kind.name());
            assert_eq!(run.attempts, 2, "{}", kind.name());
            assert_eq!(run.fired, vec![0], "{}", kind.name());
        }
    }

    #[test]
    fn armed_runs_carry_labeled_phase_spans() {
        // Match2 and Match4 label their phases; an armed (traced) run
        // must surface them as ordered, non-overlapping spans.
        let list = random_list(64, 11);
        for (kind, expected) in [
            (MatcherKind::Match2, vec!["partition", "sort", "sweep"]),
            (
                MatcherKind::Match4,
                vec![
                    "partition",
                    "column-sort",
                    "walkdown1",
                    "walkdown2",
                    "sweep",
                ],
            ),
        ] {
            let run = run_verified(kind, &list, &FaultPlan::empty(), 0);
            let trace = run.trace.expect("armed run records a trace");
            let spans = trace.phase_spans();
            let labels: Vec<&str> = spans.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, expected, "{}", kind.name());
            for w in spans.windows(2) {
                assert_eq!(w[0].end, w[1].start, "{}: spans must abut", kind.name());
            }
            assert_eq!(spans.last().unwrap().end, trace.steps().len());
        }
    }

    #[test]
    fn matcher_run_reports_steps() {
        let list = random_list(48, 3);
        let run = run_matcher(MatcherKind::Match4, &list).unwrap();
        assert!(run.steps > 0);
        assert!(output_verifies(&list, &run.matching));
    }

    #[test]
    fn matrix_json_is_wellformed() {
        let cfg = MatrixConfig {
            n: 48,
            trials: 1,
            sites_per_trial: 2,
            retry_budget: 2,
            ..MatrixConfig::default()
        };
        let cells = fault_matrix(&cfg);
        assert_eq!(cells.len(), 16);
        let json = matrix_json(&cfg, &cells);
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"matcher\": \"match1\""));
        assert!(json.contains("\"class\": \"stall\""));
        assert_eq!(json.matches("{\"matcher\"").count(), 16);
    }
}
