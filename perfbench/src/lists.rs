//! The `list-random` and `list-blocked` workloads: one list of `2^log_n`
//! nodes. Each rep runs Match1–Match4 through a pooled `Runner` on one
//! reused `Workspace`. A traced run adds the same four runs under
//! [`PhaseTimer`] and both floors, on the same list in the same rep.

use crate::ops::{chase, check_matching, pool, run_matcher, Counts};
use crate::report::{emit_phases, json_str, median, quantile, Report};
use crate::trace::{PhaseTimer, SpanLog, NPHASES, ROOT};
use crate::{host, Config, Workload};
use parmatch_baselines::seq_matching;
use parmatch_core::prelude::*;
use parmatch_list::{blocked_list, random_list, validate, LinkedList};
use std::hint::black_box;
use std::time::Instant;

/// Nodes per block of the `list-blocked` layout.
const BLOCK: usize = 4096;

/// Bytes per node of the `Workspace` buffers Match1–Match4 size to `n`:
/// two label arrays (16), successor and predecessor caches (12), Match3
/// jump pointers (8), five flag arrays (5), set buckets (4), colours (1),
/// sets (8), grid scratch (20) and grid storage (16).
const WORKSPACE_BYTES_PER_NODE: usize = 90;

fn generate(cfg: &Config) -> LinkedList {
    let n = 1usize << cfg.log_n;
    match cfg.workload {
        Workload::ListBlocked => blocked_list(n, BLOCK, cfg.seed),
        _ => random_list(n, cfg.seed),
    }
}

/// Seconds of each set-up step, one sample per set-up.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    gen: Vec<f64>,
    validate: Vec<f64>,
    cold: Vec<f64>,
}

/// Generate and validate the list, then warm a fresh `Workspace` with one
/// run of each matcher; the first, Match1 on an empty workspace, is the
/// cold run. Repeated `cfg.setups` times; the last set-up is kept.
fn set_up(
    cfg: &Config,
    report: &mut Report,
    log: &mut SpanLog,
) -> (LinkedList, Workspace, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut kept = None;
    for i in 0..cfg.setups {
        drop(kept.take());
        let span = log.open("setup", ROOT, i as u64);
        let t0 = Instant::now();
        let list = generate(cfg);
        let t1 = Instant::now();
        if let Err(e) = validate(&list) {
            report.fail(format!("generated list is invalid: {e}"));
        }
        let t2 = Instant::now();
        let mut ws = Workspace::new();
        for algo in Algorithm::ALL {
            let t = Instant::now();
            if let Err(e) = run_matcher(algo, &list, &mut ws, None) {
                report.fail(format!("warm-up: {e}"));
            }
            if algo == Algorithm::Match1 {
                times.cold.push(t.elapsed().as_secs_f64());
            }
        }
        times.total.push(t0.elapsed().as_secs_f64());
        times.gen.push((t1 - t0).as_secs_f64());
        times.validate.push((t2 - t1).as_secs_f64());
        log.close(span);
        kept = Some((list, ws));
    }
    let (list, ws) = kept.expect("at least one set-up");
    (list, ws, times)
}

/// Checks outputs outside the timed window: the first output of each
/// matcher is verified in full, every later one must equal it bit for bit.
struct Checker<'a> {
    list: &'a LinkedList,
    first: [Option<MatchOutcome>; 4],
    verify_s: f64,
    verified: usize,
}

impl Checker<'_> {
    fn accept(
        &mut self,
        k: usize,
        out: Result<MatchOutcome, String>,
        what: &str,
        report: &mut Report,
    ) -> bool {
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.fail(format!("{what}: {e}"));
                return false;
            }
        };
        if let Some(first) = &self.first[k] {
            if first.matching() != out.matching() {
                report.fail(format!(
                    "{what}: {} output differs from its first run",
                    out.algorithm()
                ));
                return false;
            }
            return true;
        }
        let t = Instant::now();
        let verdict = check_matching(self.list, out.matching());
        self.verify_s += t.elapsed().as_secs_f64();
        self.verified += 1;
        if let Err(e) = verdict {
            report.fail(format!("{what}: {} output is {e}", out.algorithm()));
            return false;
        }
        self.first[k] = Some(out);
        true
    }
}

pub fn run(cfg: &Config, report: &mut Report, log: &mut SpanLog) {
    let n = 1usize << cfg.log_n;
    let (list, mut ws, setup) = set_up(cfg, report, log);
    let footprint = WORKSPACE_BYTES_PER_NODE * n;
    report.fact("n", n);
    let layout = match cfg.workload {
        Workload::ListBlocked => format!("blocked, {BLOCK}-node blocks"),
        _ => "random".to_string(),
    };
    report.fact("layout", json_str(&layout));
    report.fact("workspace_bytes_est", footprint);
    if let Some((_, llc)) = host::llc() {
        report.fact("llc_over_workspace", llc as f64 / footprint as f64);
    }

    let mut check = Checker {
        list: &list,
        first: Default::default(),
        verify_s: 0.0,
        verified: 0,
    };
    let mut runs: [Vec<f64>; 4] = Default::default();
    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let mut phases: [Vec<[f64; NPHASES]>; 4] = Default::default();
    let (mut seq_s, mut chase_s) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + cfg.run_time;
    let mut rep = 0u64;
    while rep == 0 || Instant::now() < deadline {
        let rep_span = log.open("rep", ROOT, rep);
        let mut total = 0.0;
        for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
            report.attempted += 1;
            let span = log.open(algo.name(), rep_span, rep);
            let t = Instant::now();
            let out = run_matcher(algo, black_box(&list), &mut ws, None);
            let secs = t.elapsed().as_secs_f64();
            log.close(span);
            if check.accept(k, out, "pooled run", report) {
                runs[k].push(secs);
                total += secs;
            }
        }
        reps.push(total);
        if cfg.trace {
            let mut total = 0.0;
            for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
                report.attempted += 1;
                let span = log.open(algo.name(), rep_span, rep);
                let t = Instant::now();
                let mut timer = PhaseTimer::start(log, span, rep);
                let out = run_matcher(algo, &list, &mut ws, Some(&mut timer));
                let ns = timer.finish();
                let secs = t.elapsed().as_secs_f64();
                log.close(span);
                if check.accept(k, out, "traced run", report) {
                    phases[k].push(ns.map(|x| x as f64 / n as f64));
                    total += secs;
                }
            }
            traced_reps.push(total);

            report.attempted += 2;
            let span = log.open("seq_matching", rep_span, rep);
            let t = Instant::now();
            let seq = seq_matching(black_box(&list));
            seq_s.push(t.elapsed().as_secs_f64());
            log.close(span);
            if rep == 0 {
                if let Err(e) = check_matching(&list, &seq) {
                    report.fail(format!("seq_matching output is {e}"));
                }
            }
            drop(seq);
            let span = log.open("chase", rep_span, rep);
            let t = Instant::now();
            let steps = chase(black_box(&list));
            chase_s.push(t.elapsed().as_secs_f64());
            log.close(span);
            if steps != n {
                report.fail(format!("chase visited {steps} of {n} nodes"));
            }
        }
        log.close(rep_span);
        rep += 1;
    }

    // Bit identity across thread counts: every matcher once more on one
    // thread, outside the measured loop.
    let one = pool(1);
    let mut match1_t1 = Vec::new();
    for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
        report.attempted += 1;
        let t = Instant::now();
        let out = one.install(|| run_matcher(algo, &list, &mut ws, None));
        let secs = t.elapsed().as_secs_f64();
        if check.accept(k, out, "1-thread run", report) && k == 0 {
            match1_t1.push(secs);
        }
    }

    let per_node = |s: f64| s * 1e9 / n as f64;
    if !cfg.trace {
        report.metric("setup_s", median(&setup.total), "s", setup.total.len());
        for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
            let name = format!("{algo}_ns_per_node");
            report.metric(name, per_node(median(&runs[k])), "ns", runs[k].len());
        }
        // A job here is one rep: the four matchers back to back.
        let busy: f64 = reps.iter().sum();
        report.metric("jobs_per_s", reps.len() as f64 / busy, "1/s", reps.len());
        report.metric("job_p50_us", median(&reps) * 1e6, "us", reps.len());
        report.metric("job_p99_us", quantile(&reps, 0.99) * 1e6, "us", reps.len());
        return;
    }

    report.metric(
        "list.gen_ns_per_node",
        per_node(median(&setup.gen)),
        "ns",
        setup.gen.len(),
    );
    report.metric(
        "list.validate_ns_per_node",
        per_node(median(&setup.validate)),
        "ns",
        setup.validate.len(),
    );
    report.metric(
        "workspace.cold_run_ns_per_node",
        per_node(median(&setup.cold)),
        "ns",
        setup.cold.len(),
    );
    let mut counts = Counts::default();
    check.first.iter().flatten().for_each(|o| counts.add(o));
    counts.emit(report);
    emit_phases(report, &phases);
    let verify_ns = check.verify_s * 1e9 / (check.verified.max(1) * n) as f64;
    report.metric("verify.ns_per_node", verify_ns, "ns", check.verified);
    let seq = median(&seq_s);
    report.metric(
        "baselines.seq_ns_per_node",
        per_node(seq),
        "ns",
        seq_s.len(),
    );
    report.metric(
        "floor.chase_ns_per_node",
        per_node(median(&chase_s)),
        "ns",
        chase_s.len(),
    );
    for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
        report.ratio(
            format!("{algo}_over_seq"),
            median(&runs[k]) / seq,
            runs[k].len(),
            "baselines::seq_matching on the same list in the same reps",
        );
    }
    report.ratio(
        "trace.overhead",
        median(&traced_reps) / median(&reps),
        traced_reps.len(),
        "untraced reps of the same run",
    );
    report.metric(
        "runner.solo_t1_us_per_job",
        median(&match1_t1) * 1e6,
        "us",
        match1_t1.len(),
    );
    report.metric(
        "runner.solo_tN_us_per_job",
        median(&runs[0]) * 1e6,
        "us",
        runs[0].len(),
    );
    // The batch and service layers do no work on one large list; they read
    // 0 here so that every workload reports the same names.
    for (name, unit) in [
        ("batch.fused_share", "ratio"),
        ("batch.fused_us_per_job", "us"),
        ("service.submit_us", "us"),
        ("service.fused_p50_us", "us"),
        ("service.solo_p50_us", "us"),
        ("service.busy_rejects", "count"),
    ] {
        report.metric(name, 0.0, unit, 0);
    }
}
