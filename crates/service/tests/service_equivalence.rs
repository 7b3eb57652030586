//! Differential suite: anything the service returns for a match job
//! must be **bit-identical** to a sequential [`Runner`] run of the same
//! spec — whatever got batched, pooled, cancelled around it, or fault
//! injected next to it.

use parmatch_core::prelude::*;
use parmatch_core::table::TableError;
use parmatch_core::Match3Error;
use parmatch_list::{random_list, LinkedList};
use parmatch_pram::fault::{FaultClass, FaultPlan};
use parmatch_service::{
    JobError, JobId, JobResult, JobSpec, MatchService, ServiceConfig, SubmitError,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Sizes spanning the degenerate cases, several batchable width
/// classes, and lists big enough to exercise the parallel pipeline.
const SIZES: &[usize] = &[0, 1, 2, 3, 9, 17, 40, 47, 64, 100, 777, 4096, 1 << 14];

fn spec_for(i: usize, list: &LinkedList) -> JobSpec {
    let algo = Algorithm::ALL[i % 4];
    let variant = if i.is_multiple_of(3) {
        CoinVariant::Lsb
    } else {
        CoinVariant::Msb
    };
    let mut spec = JobSpec::new(algo, list.clone()).variant(variant);
    match i % 5 {
        1 => spec = spec.threads(1),
        2 => spec = spec.threads(2),
        3 => spec = spec.threads(8),
        4 if i.is_multiple_of(2) => spec = spec.observed(),
        _ => {}
    }
    spec
}

fn reference_run(spec: &JobSpec) -> MatchOutcome {
    let mut runner = Runner::new(spec.algorithm)
        .config(spec.config)
        .variant(spec.variant)
        .rounds(spec.rounds)
        .levels(spec.levels);
    if let Some(t) = spec.threads {
        runner = runner.threads(t);
    }
    runner.run(&spec.list)
}

/// Submit with bounded-queue backpressure: on `Busy`, drain one result
/// and retry.
fn submit_pumping(svc: &MatchService, spec: JobSpec, results: &mut Vec<JobResult>) -> JobId {
    let mut spec = spec;
    loop {
        match svc.submit(spec) {
            Ok(id) => return id,
            Err(SubmitError::Busy(returned)) => {
                spec = returned;
                if let Some(r) = svc.recv() {
                    results.push(r);
                }
            }
            Err(SubmitError::Closed(_)) => panic!("service closed mid-test"),
        }
    }
}

#[test]
fn concurrent_jobs_match_sequential_runner_bit_for_bit() {
    let svc = MatchService::start(ServiceConfig {
        workers: 3,
        queue_depth: 16,
        arenas: 2,
        max_batch: 16,
        threads_per_job: 1,
    });
    let mut specs: HashMap<JobId, JobSpec> = HashMap::new();
    let mut results = Vec::new();
    let mut submitted = 0usize;
    for (i, &n) in SIZES.iter().cycle().take(60).enumerate() {
        let list = random_list(n, i as u64);
        let spec = spec_for(i, &list);
        let id = submit_pumping(&svc, spec.clone(), &mut results);
        specs.insert(id, spec);
        submitted += 1;
    }
    while results.len() < submitted {
        results.push(svc.recv().expect("all jobs complete"));
    }
    assert_eq!(results.len(), submitted);
    for result in &results {
        let spec = specs.get(&result.id).expect("known job");
        let out = result
            .output
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed: {e}", result.id));
        let reference = reference_run(spec);
        assert_eq!(
            out.matching().unwrap(),
            reference.matching(),
            "{} ({} n={} batched={})",
            result.id,
            spec.algorithm,
            spec.list.len(),
            result.batched
        );
        if spec.observed {
            let rec = result.recording.as_ref().expect("observed job records");
            assert!(rec.all_bounds_hold(), "{}", rec.render());
        }
    }
    svc.shutdown();
}

#[test]
fn batched_small_jobs_match_sequential_runner() {
    // Many same-width-class lists through a single busy worker: most
    // fuse; every one must equal its solo run.
    let svc = MatchService::start(ServiceConfig {
        workers: 1,
        queue_depth: 64,
        arenas: 1,
        max_batch: 32,
        threads_per_job: 1,
    });
    svc.submit(JobSpec::new(Algorithm::Match4, random_list(100_000, 99)))
        .unwrap();
    let mut specs = HashMap::new();
    let mut results = Vec::new();
    for i in 0..48usize {
        let n = 33 + (i * 7) % 32; // one width class: 33..=64
        let variant = if i % 2 == 0 {
            CoinVariant::Msb
        } else {
            CoinVariant::Lsb
        };
        let list = random_list(n, 1000 + i as u64);
        let spec = JobSpec::new(Algorithm::Match1, list).variant(variant);
        let id = submit_pumping(&svc, spec.clone(), &mut results);
        specs.insert(id, spec);
    }
    while results.len() < specs.len() + 1 {
        results.push(svc.recv().expect("all jobs complete"));
    }
    let mut batched = 0usize;
    for result in &results {
        let Some(spec) = specs.get(&result.id) else {
            continue; // the slow Match4 filler
        };
        batched += usize::from(result.batched);
        let out = result.output.as_ref().expect("job succeeds");
        let reference = reference_run(spec);
        assert_eq!(
            out.matching().unwrap(),
            reference.matching(),
            "{} n={} batched={}",
            result.id,
            spec.list.len(),
            result.batched
        );
    }
    assert!(
        batched >= specs.len() / 2,
        "queued same-class jobs should mostly fuse (got {batched}/{})",
        specs.len()
    );
    svc.shutdown();
}

#[test]
fn fault_injected_job_leaves_others_bit_identical() {
    let svc = MatchService::start(ServiceConfig {
        workers: 2,
        queue_depth: 32,
        arenas: 2,
        max_batch: 8,
        threads_per_job: 1,
    });
    let plan = FaultPlan::generate(7, FaultClass::DropWrite, 3, 500, 16);
    let faulty = svc
        .submit(JobSpec::new(Algorithm::Match1, random_list(300, 50)).fault_plan(plan))
        .unwrap();
    let mut specs = HashMap::new();
    let mut results = Vec::new();
    for i in 0..12usize {
        let list = random_list(SIZES[i % SIZES.len()], 2000 + i as u64);
        let spec = spec_for(i, &list);
        let id = submit_pumping(&svc, spec.clone(), &mut results);
        specs.insert(id, spec);
    }
    while results.len() < specs.len() + 1 {
        results.push(svc.recv().expect("all jobs complete"));
    }
    for result in &results {
        if result.id == faulty {
            let run = result
                .output
                .as_ref()
                .expect("harness classifies")
                .as_verified()
                .cloned()
                .expect("fault job runs verified");
            assert!(run.verified, "bounded retries must converge");
            continue;
        }
        let spec = specs.get(&result.id).expect("known job");
        let out = result.output.as_ref().expect("unaffected by the fault job");
        let reference = reference_run(spec);
        assert_eq!(
            out.matching().unwrap(),
            reference.matching(),
            "{} ({} n={})",
            result.id,
            spec.algorithm,
            spec.list.len()
        );
    }
    svc.shutdown();
}

#[test]
fn scheduler_grid_stays_bit_identical_and_fuses() {
    // Every `threads_per_job × workers × max_batch` cell returns each job
    // bit-identical to its solo run. A cell whose per-worker share
    // `⌈max_batch / workers⌉` holds two jobs (here: whenever max_batch ≥
    // 2·workers) fuses queued same-key Match1 jobs; a share of one never
    // fuses. Specs and their solo runs are built once for all cells.
    // The slow job must outlast the staggered submissions below by a wide
    // margin: grow it until its solo run takes 25 ms.
    let mut n = 1 << 16;
    let (slow, slow_ref) = loop {
        let spec = JobSpec::new(Algorithm::Match4, random_list(n, 77));
        let t = Instant::now();
        let out = reference_run(&spec).into_matching();
        if t.elapsed() >= Duration::from_millis(25) {
            break (spec, out);
        }
        n *= 2;
    };
    let small = 24;
    let mut specs: Vec<JobSpec> = (0..small)
        .map(|i| {
            let n = 33 + (i * 7) % 32; // one width class: 33..=64
            JobSpec::new(Algorithm::Match1, random_list(n, 3000 + i as u64))
        })
        .collect();
    specs.extend((0..8).map(|i| spec_for(i, &random_list(SIZES[i + 4], 4000 + i as u64))));
    let refs: Vec<Matching> = specs
        .iter()
        .map(|spec| reference_run(spec).into_matching())
        .collect();
    for threads_per_job in [0, 1, 2] {
        for workers in [1, 2, 3] {
            for max_batch in [1, 8, 32] {
                let cell = format!(
                    "threads_per_job={threads_per_job} workers={workers} max_batch={max_batch}"
                );
                let svc = MatchService::start(ServiceConfig {
                    workers,
                    queue_depth: 64,
                    arenas: workers,
                    max_batch,
                    threads_per_job,
                });
                let mut results = Vec::new();
                // One slow job per worker, spaced so that each is taken by
                // an idle worker: the rest then queue behind busy workers.
                let mut slow_ids = Vec::new();
                for _ in 0..workers {
                    slow_ids.push(submit_pumping(&svc, slow.clone(), &mut results));
                    std::thread::sleep(Duration::from_millis(2));
                }
                let mut index = HashMap::new();
                for (k, spec) in specs.iter().enumerate() {
                    index.insert(submit_pumping(&svc, spec.clone(), &mut results), k);
                }
                while results.len() < workers + specs.len() {
                    results.push(svc.recv().expect("all jobs complete"));
                }
                let mut fused = 0usize;
                for r in &results {
                    let out = r
                        .output
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{cell}: {} failed: {e}", r.id));
                    let want = match index.get(&r.id) {
                        Some(&k) => {
                            fused += usize::from(k < small && r.batched);
                            &refs[k]
                        }
                        None => {
                            assert!(slow_ids.contains(&r.id), "{cell}: unknown {}", r.id);
                            &slow_ref
                        }
                    };
                    assert_eq!(out.matching().unwrap(), want, "{cell}: {}", r.id);
                }
                if max_batch >= 2 * workers {
                    assert!(fused >= 2, "{cell}: queued same-key jobs never fused");
                } else {
                    assert_eq!(fused, 0, "{cell}: a share of one job fused");
                }
                svc.shutdown();
            }
        }
    }
}

#[test]
fn oversized_match3_windows_fail_typed() {
    // A window of 2^j labels overflows `u32` arithmetic from j = 30 on
    // (j ≥ 32 overflows the shift itself). Each must come back as a
    // too-large table, never a panic or an attempt to build the table.
    let list = random_list(4096, 30);
    let svc = MatchService::start(ServiceConfig::default());
    let too_large = |e: &RunnerError| {
        matches!(
            e,
            RunnerError::Match3(Match3Error::Table(TableError::TooLarge { .. }))
        )
    };
    for j in [30, 31, 32, 40, u32::MAX] {
        let config = Match3Config {
            jump_rounds: Some(j),
            ..Match3Config::default()
        };
        match Runner::new(Algorithm::Match3).config(config).try_run(&list) {
            Err(e) if too_large(&e) => {}
            other => panic!("j={j}: Runner returned {other:?}"),
        }
        let id = svc
            .submit(JobSpec::new(Algorithm::Match3, list.clone()).config(config))
            .unwrap();
        let r = svc.recv().expect("job completes");
        assert_eq!(r.id, id);
        match &r.output {
            Err(JobError::Failed(e)) if too_large(e) => {}
            other => panic!("j={j}: service returned {other:?}"),
        }
    }
    svc.shutdown();
}
