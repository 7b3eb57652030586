//! The `jobs-stream` workload: one client keeps `K` small jobs in flight
//! on a `MatchService` (a closed loop), and the same lists also run
//! directly through a pooled `Runner` and through `match1_batch_in`, so
//! the service's cost can be set against the direct paths it chooses
//! between.

use crate::ops::{chase, check_matching, index, pool, run_matcher, Counts};
use crate::report::{emit_phases, json_str, median, quantile, Report};
use crate::trace::{PhaseTimer, SpanLog, NPHASES, ROOT};
use crate::{host, Config};
use parmatch_baselines::seq_matching;
use parmatch_core::prelude::*;
use parmatch_core::{match1_batch_in, BatchKey, BatchPlan};
use parmatch_list::{random_list, validate, LinkedList};
use parmatch_service::{JobOutput, JobSpec, MatchService, ServiceConfig};
use std::hint::black_box;
use std::time::Instant;

/// Jobs the client keeps in flight. Below the queue depth, so a `Busy`
/// refusal means the service fell behind.
const K: usize = 32;
const QUEUE_DEPTH: usize = 64;
/// The list sizes span both Match1 batch width classes (33..=64 and
/// 65..=128 nodes).
const MIN_NODES: usize = 33;
const MAX_NODES: usize = 128;
/// Completions per measured stream segment.
const SEGMENT: usize = 8192;
/// Lists per fused gulp: the service's default `max_batch`.
const GULP: usize = 32;
/// Ring Match1 lists whose cold run is timed.
const COLD_RUNS: usize = 256;

fn service_config() -> ServiceConfig {
    let workers = host::available_parallelism();
    ServiceConfig {
        workers,
        queue_depth: QUEUE_DEPTH,
        arenas: workers,
        max_batch: GULP,
        threads_per_job: 1,
    }
}

/// SplitMix64: job sizes, matchers and list seeds derive from the run
/// seed through it.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `j`-th job of the ring. About ¾ are Match1, which the service can
/// fuse; the rest are Match2 and Match4, which always run solo.
fn job(seed: u64, j: usize) -> JobSpec {
    let r = mix(seed ^ mix(j as u64));
    let algorithm = match r >> 61 {
        6 => Algorithm::Match2,
        7 => Algorithm::Match4,
        _ => Algorithm::Match1,
    };
    let n = MIN_NODES + (r % (MAX_NODES - MIN_NODES + 1) as u64) as usize;
    JobSpec::new(algorithm, random_list(n, mix(r)))
}

/// What the closed loop observed.
#[derive(Default)]
struct Stream {
    /// Jobs per second of each measured segment.
    rates: Vec<f64>,
    latency_us: Vec<f64>,
    fused_us: Vec<f64>,
    solo_us: Vec<f64>,
    submit_us: Vec<f64>,
    match1_done: u64,
    match1_fused: u64,
    busy: u64,
}

/// Run `count` jobs through `svc` with `K` in flight, taking specs round
/// robin from `ring` at `*next`. Latency runs from the start of `submit`
/// to the `recv` of the same job. Returns the wall time and each
/// completed job's ring index and matching.
fn stream(
    svc: &MatchService,
    ring: &[JobSpec],
    next: &mut usize,
    count: usize,
    st: &mut Stream,
    report: &mut Report,
    log: &mut SpanLog,
) -> (f64, Vec<(usize, Matching)>) {
    struct Pending {
        id: parmatch_service::JobId,
        idx: usize,
        start: Instant,
        span: u32,
    }
    let mut pending: Vec<Pending> = Vec::with_capacity(K);
    let mut done = Vec::with_capacity(count);
    let (mut sent, mut received) = (0, 0);
    let t0 = Instant::now();
    while received < count {
        while pending.len() < K && sent < count {
            let idx = *next % ring.len();
            let spec = ring[idx].clone();
            let span = log.open("job", ROOT, *next as u64);
            *next += 1;
            sent += 1;
            report.attempted += 1;
            let start = Instant::now();
            let res = svc.submit(spec);
            let submitted = Instant::now();
            log.record("submit", span, idx as u64, start, submitted);
            match res {
                Ok(id) => {
                    st.submit_us.push((submitted - start).as_secs_f64() * 1e6);
                    pending.push(Pending {
                        id,
                        idx,
                        start,
                        span,
                    });
                }
                Err(e) => {
                    if matches!(e, parmatch_service::SubmitError::Busy(_)) {
                        st.busy += 1;
                    }
                    report.fail(format!("submit refused: {e}"));
                    log.close(span);
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        let Some(r) = svc.recv() else {
            report.fail("service closed with jobs in flight");
            break;
        };
        let end = Instant::now();
        let Some(pos) = pending.iter().position(|p| p.id == r.id) else {
            report.fail(format!("{}: not a job in flight", r.id));
            continue;
        };
        let p = pending.swap_remove(pos);
        log.close(p.span);
        received += 1;
        let us = (end - p.start).as_secs_f64() * 1e6;
        st.latency_us.push(us);
        if r.batched {
            st.fused_us.push(us);
        } else {
            st.solo_us.push(us);
        }
        if ring[p.idx].algorithm == Algorithm::Match1 {
            st.match1_done += 1;
            st.match1_fused += u64::from(r.batched);
        }
        match r.output {
            Ok(JobOutput::Matched(out)) => done.push((p.idx, out.into_matching())),
            Ok(JobOutput::Verified(_)) => {
                report.fail(format!("{}: unexpected verify output", r.id))
            }
            Err(e) => report.fail(format!("{}: {e}", r.id)),
        }
    }
    (t0.elapsed().as_secs_f64(), done)
}

/// Solo `Runner` outputs at one thread for every ring list and matcher,
/// each verified in full: what every service, direct and batch output must
/// equal bit for bit.
#[derive(Default)]
struct Oracle {
    out: [Vec<Option<Matching>>; 4],
    counts: Counts,
    verify_s: f64,
    verify_nodes: usize,
    verified: usize,
}

fn oracle(ring: &[JobSpec], report: &mut Report) -> Oracle {
    let one = pool(1);
    let mut ws = Workspace::new();
    let mut o = Oracle::default();
    for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
        for spec in ring {
            report.attempted += 1;
            let out = match one.install(|| run_matcher(algo, &spec.list, &mut ws, None)) {
                Ok(out) => out,
                Err(e) => {
                    report.fail(format!("oracle: {e}"));
                    o.out[k].push(None);
                    continue;
                }
            };
            o.counts.add(&out);
            let t = Instant::now();
            let verdict = check_matching(&spec.list, out.matching());
            o.verify_s += t.elapsed().as_secs_f64();
            o.verify_nodes += spec.list.len();
            o.verified += 1;
            match verdict {
                Ok(()) => o.out[k].push(Some(out.into_matching())),
                Err(e) => {
                    report.fail(format!("oracle: {algo} output is {e}"));
                    o.out[k].push(None);
                }
            }
        }
    }
    o
}

fn check(done: &[(usize, Matching)], ring: &[JobSpec], oracle: &Oracle, report: &mut Report) {
    for (i, m) in done {
        let algo = ring[*i].algorithm;
        if oracle.out[index(algo)][*i].as_ref() != Some(m) {
            report.fail(format!(
                "service job on ring list {i} ({algo}) differs from its solo run"
            ));
        }
    }
}

/// Run matcher `k` through a pooled `Runner` on the ring lists `idx`, in
/// the installed pool. Returns the summed run time in seconds; with a
/// `phases` accumulator each run is traced and its phase times added.
#[allow(clippy::too_many_arguments)]
fn direct(
    k: usize,
    idx: &[usize],
    ring: &[JobSpec],
    oracle: &Oracle,
    ws: &mut Workspace,
    report: &mut Report,
    log: &mut SpanLog,
    key: u64,
    mut phases: Option<&mut [u64; NPHASES]>,
) -> f64 {
    let algo = Algorithm::ALL[k];
    let span = log.open(algo.name(), ROOT, key);
    let mut secs = 0.0;
    for &i in idx {
        let list = &ring[i].list;
        report.attempted += 1;
        let t = Instant::now();
        let out = match phases.as_deref_mut() {
            Some(acc) => {
                let mut timer = PhaseTimer::start(log, span, i as u64);
                let out = run_matcher(algo, list, ws, Some(&mut timer));
                for (a, x) in acc.iter_mut().zip(timer.finish()) {
                    *a += x;
                }
                out
            }
            None => run_matcher(algo, list, ws, None),
        };
        secs += t.elapsed().as_secs_f64();
        match out {
            Ok(o) if oracle.out[k][i].as_ref() == Some(o.matching()) => {}
            Ok(_) => report.fail(format!(
                "direct {algo} on ring list {i} differs from its solo run"
            )),
            Err(e) => report.fail(e),
        }
    }
    log.close(span);
    secs
}

type Gulp<'a> = (Vec<usize>, Vec<&'a LinkedList>, BatchPlan);

/// The ring's Match1 lists grouped by `BatchKey`, `GULP` lists per plan.
fn gulps<'a>(ring: &'a [JobSpec], m1: &[usize]) -> Vec<Gulp<'a>> {
    let mut groups: Vec<(BatchKey, Vec<usize>)> = Vec::new();
    for &i in m1 {
        let key =
            BatchKey::of(ring[i].list.len(), CoinVariant::Msb).expect("ring lists are batchable");
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups
        .iter()
        .flat_map(|(_, g)| g.chunks(GULP))
        .map(|c| {
            let lists: Vec<&LinkedList> = c.iter().map(|&i| &ring[i].list).collect();
            let plan = BatchPlan::new(&lists, CoinVariant::Msb).expect("one key per gulp");
            (c.to_vec(), lists, plan)
        })
        .collect()
}

/// One direct `match1_batch_in` pass over every gulp; returns seconds.
fn batch_pass(
    gulps: &[Gulp<'_>],
    oracle: &Oracle,
    ws: &mut Workspace,
    report: &mut Report,
    log: &mut SpanLog,
    key: u64,
) -> f64 {
    let span = log.open("match1_batch_in", ROOT, key);
    let mut secs = 0.0;
    for (idx, lists, plan) in gulps {
        report.attempted += idx.len() as u64;
        let t = Instant::now();
        let outs = match1_batch_in(lists, plan, ws);
        secs += t.elapsed().as_secs_f64();
        for (&i, out) in idx.iter().zip(&outs) {
            if oracle.out[0][i].as_ref() != Some(&out.matching) {
                report.fail(format!(
                    "fused batch output for ring list {i} differs from its solo run"
                ));
            }
        }
    }
    log.close(span);
    secs
}

/// Both floors over every ring list; returns their summed seconds.
fn floors(ring: &[JobSpec], report: &mut Report, log: &mut SpanLog, key: u64) -> (f64, f64) {
    let (mut seq, mut walk) = (0.0, 0.0);
    let span = log.open("seq_matching", ROOT, key);
    for spec in ring {
        report.attempted += 1;
        let t = Instant::now();
        let m = seq_matching(black_box(&spec.list));
        seq += t.elapsed().as_secs_f64();
        if key == 0 {
            if let Err(e) = check_matching(&spec.list, &m) {
                report.fail(format!("seq_matching output is {e}"));
            }
        }
    }
    log.close(span);
    let span = log.open("chase", ROOT, key);
    for spec in ring {
        report.attempted += 1;
        let t = Instant::now();
        let steps = chase(black_box(&spec.list));
        walk += t.elapsed().as_secs_f64();
        if steps != spec.list.len() {
            report.fail(format!(
                "chase visited {steps} of {} nodes",
                spec.list.len()
            ));
        }
    }
    log.close(span);
    (seq, walk)
}

#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    gen: Vec<f64>,
    validate: Vec<f64>,
}

pub fn run(cfg: &Config, report: &mut Report, log: &mut SpanLog) {
    // Set-up: build the ring, start the service, warm it with one pass of
    // the ring; repeated `cfg.setups` times, the last one kept.
    let mut times = SetupTimes::default();
    let mut warm = Vec::new();
    let mut kept: Option<(Vec<JobSpec>, MatchService)> = None;
    for i in 0..cfg.setups {
        if let Some((_, svc)) = kept.take() {
            svc.shutdown();
        }
        let span = log.open("setup", ROOT, i as u64);
        let t0 = Instant::now();
        let ring: Vec<JobSpec> = (0..cfg.ring).map(|j| job(cfg.seed, j)).collect();
        let t1 = Instant::now();
        for (j, spec) in ring.iter().enumerate() {
            if let Err(e) = validate(&spec.list) {
                report.fail(format!("ring list {j} is invalid: {e}"));
            }
        }
        let t2 = Instant::now();
        let svc = MatchService::start(service_config());
        let mut next = 0;
        let (_, done) = stream(
            &svc,
            &ring,
            &mut next,
            ring.len(),
            &mut Stream::default(),
            report,
            log,
        );
        warm.extend(done);
        times.total.push(t0.elapsed().as_secs_f64());
        times.gen.push((t1 - t0).as_secs_f64());
        times.validate.push((t2 - t1).as_secs_f64());
        log.close(span);
        kept = Some((ring, svc));
    }
    let (ring, svc) = kept.expect("at least one set-up");

    let nodes: usize = ring.iter().map(|s| s.list.len()).sum();
    let all: Vec<usize> = (0..ring.len()).collect();
    let m1: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| ring[i].algorithm == Algorithm::Match1)
        .collect();
    report.fact("k", K);
    report.fact("ring_jobs", ring.len());
    report.fact("ring_match1_jobs", m1.len());
    report.fact("ring_nodes", nodes);
    report.fact(
        "service_config",
        json_str(&format!("{:?}", service_config())),
    );

    let oracle = oracle(&ring, report);
    check(&warm, &ring, &oracle, report);
    let one = pool(1);
    let mut ws = Workspace::new();
    let mut cold = Vec::new();
    if cfg.trace {
        for &i in m1.iter().take(COLD_RUNS) {
            let list = &ring[i].list;
            let mut fresh = Workspace::new();
            report.attempted += 1;
            let t = Instant::now();
            let out = one.install(|| run_matcher(Algorithm::Match1, list, &mut fresh, None));
            cold.push(t.elapsed().as_secs_f64() * 1e9 / list.len() as f64);
            match out {
                Ok(o) if oracle.out[0][i].as_ref() == Some(o.matching()) => {}
                Ok(_) => report.fail(format!(
                    "cold run on ring list {i} differs from its solo run"
                )),
                Err(e) => report.fail(e),
            }
        }
    }
    let gulps = gulps(&ring, &m1);
    let mut quiet = SpanLog::new(false);
    let (mut plain, mut traced) = (Stream::default(), Stream::default());
    let mut direct_s: [Vec<f64>; 4] = Default::default();
    let mut phase_runs: [Vec<[f64; NPHASES]>; 4] = Default::default();
    let (mut seq_s, mut chase_s) = (Vec::new(), Vec::new());
    let (mut fused, mut solo_t1, mut solo_tn) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    let deadline = Instant::now() + cfg.run_time;
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        let (secs, done) = stream(
            &svc, &ring, &mut next, SEGMENT, &mut plain, report, &mut quiet,
        );
        plain.rates.push(SEGMENT as f64 / secs);
        check(&done, &ring, &oracle, report);
        if cfg.trace {
            let (secs, done) = stream(&svc, &ring, &mut next, SEGMENT, &mut traced, report, log);
            traced.rates.push(SEGMENT as f64 / secs);
            check(&done, &ring, &oracle, report);
        }
        for (k, runs) in direct_s.iter_mut().enumerate() {
            let secs = one.install(|| {
                direct(
                    k, &all, &ring, &oracle, &mut ws, report, &mut quiet, pass, None,
                )
            });
            runs.push(secs / nodes as f64);
        }
        if cfg.trace {
            for (k, runs) in phase_runs.iter_mut().enumerate() {
                let mut ns = [0u64; NPHASES];
                one.install(|| {
                    direct(
                        k,
                        &all,
                        &ring,
                        &oracle,
                        &mut ws,
                        report,
                        log,
                        pass,
                        Some(&mut ns),
                    )
                });
                runs.push(ns.map(|x| x as f64 / nodes as f64));
            }
            let (s, c) = floors(&ring, report, log, pass);
            seq_s.push(s / nodes as f64);
            chase_s.push(c / nodes as f64);
            let jobs = m1.len() as f64;
            fused.push(batch_pass(&gulps, &oracle, &mut ws, report, log, pass) / jobs);
            let t1 =
                one.install(|| direct(0, &m1, &ring, &oracle, &mut ws, report, log, pass, None));
            solo_t1.push(t1 / jobs);
            solo_tn.push(direct(0, &m1, &ring, &oracle, &mut ws, report, log, pass, None) / jobs);
        }
        pass += 1;
    }
    let left = svc.shutdown().pending.len();
    if left > 0 {
        report.fail(format!("{left} results were never received"));
    }

    if !cfg.trace {
        report.metric("setup_s", median(&times.total), "s", times.total.len());
        // Direct one-thread pooled `Runner` passes over the ring lists: the
        // path the service's solo jobs take, without the queue.
        for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
            let name = format!("{algo}_ns_per_node");
            report.metric(name, median(&direct_s[k]) * 1e9, "ns", direct_s[k].len());
        }
        report.metric("jobs_per_s", median(&plain.rates), "1/s", plain.rates.len());
        report.metric(
            "job_p50_us",
            median(&plain.latency_us),
            "us",
            plain.latency_us.len(),
        );
        report.metric(
            "job_p99_us",
            quantile(&plain.latency_us, 0.99),
            "us",
            plain.latency_us.len(),
        );
        return;
    }

    let per_node = |s: f64| s * 1e9 / nodes as f64;
    report.metric(
        "list.gen_ns_per_node",
        per_node(median(&times.gen)),
        "ns",
        times.gen.len(),
    );
    report.metric(
        "list.validate_ns_per_node",
        per_node(median(&times.validate)),
        "ns",
        times.validate.len(),
    );
    report.metric(
        "workspace.cold_run_ns_per_node",
        median(&cold),
        "ns",
        cold.len(),
    );
    oracle.counts.emit(report);
    emit_phases(report, &phase_runs);
    let verify_ns = oracle.verify_s * 1e9 / oracle.verify_nodes.max(1) as f64;
    report.metric("verify.ns_per_node", verify_ns, "ns", oracle.verified);
    let seq = median(&seq_s);
    report.metric("baselines.seq_ns_per_node", seq * 1e9, "ns", seq_s.len());
    report.metric(
        "floor.chase_ns_per_node",
        median(&chase_s) * 1e9,
        "ns",
        chase_s.len(),
    );
    for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
        report.ratio(
            format!("{algo}_over_seq"),
            median(&direct_s[k]) / seq,
            direct_s[k].len(),
            "baselines::seq_matching over the same ring lists",
        );
    }
    report.ratio(
        "trace.overhead",
        median(&plain.rates) / median(&traced.rates),
        traced.rates.len(),
        "untraced stream segments of the same run",
    );
    let fused_share = plain.match1_fused as f64 / plain.match1_done.max(1) as f64;
    report.metric(
        "batch.fused_share",
        fused_share,
        "ratio",
        plain.match1_done as usize,
    );
    report.metric(
        "service.submit_us",
        median(&plain.submit_us),
        "us",
        plain.submit_us.len(),
    );
    report.metric(
        "service.fused_p50_us",
        median(&plain.fused_us),
        "us",
        plain.fused_us.len(),
    );
    report.metric(
        "service.solo_p50_us",
        median(&plain.solo_us),
        "us",
        plain.solo_us.len(),
    );
    report.metric(
        "service.busy_rejects",
        plain.busy as f64,
        "count",
        plain.latency_us.len(),
    );
    report.metric(
        "batch.fused_us_per_job",
        median(&fused) * 1e6,
        "us",
        fused.len(),
    );
    report.metric(
        "runner.solo_t1_us_per_job",
        median(&solo_t1) * 1e6,
        "us",
        solo_t1.len(),
    );
    report.metric(
        "runner.solo_tN_us_per_job",
        median(&solo_tn) * 1e6,
        "us",
        solo_tn.len(),
    );
}
