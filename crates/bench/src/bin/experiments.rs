//! The experiment driver: regenerates the paper's claim tables and the
//! counter-checked artifacts.
//!
//! ```text
//! cargo run --release -p parmatch-bench --bin experiments -- all
//! cargo run --release -p parmatch-bench --bin experiments -- e7
//! cargo run --release -p parmatch-bench --bin experiments -- bounds --json --quick
//! ```
//!
//! Ids `e1`..`e14` (no `e11`) print the claim tables recorded in
//! EXPERIMENTS.md; DESIGN.md §4 maps each to its paper claim. `engine`,
//! `faults`, `bounds` and `service` also return an artifact, which
//! `main` writes to the current directory when `--json` is set. Wall-clock
//! numbers for the native matchers come from `perfbench`, not from here.

use parmatch_bench::{fmt_dur, med, print_table, timed, SEED};
use parmatch_bits::{g_of, ilog2_ceil, iterated_log_ceil, BitReversalTable, UnaryToBinaryTable};
use parmatch_core::pram_impl::{match1_pram, match2_pram, match4_pram};
use parmatch_core::table::{fold_value, TupleTable};
use parmatch_core::walkdown::walkdown2_schedule;
use parmatch_core::{
    cost, pointer_sets, verify, Algorithm, CoinVariant, LabelSeq, Match3Config, Runner,
};
use parmatch_list::random_list;
use parmatch_pram::ExecMode;

/// The command-line flags an experiment reads.
struct Opts {
    /// `--quick`: `bounds` and `service` shrink their grids for CI.
    quick: bool,
}

/// A file an experiment produced: `main` writes it when `--json` is set.
struct Artifact {
    file: &'static str,
    body: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let opts = Opts {
        quick: args.iter().any(|a| a == "--quick"),
    };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let all = which == "all";
    let mut ran = false;
    for (id, run) in EXPERIMENTS {
        if all || which == *id {
            if let Some(Artifact { file, body }) = run(&opts).filter(|_| json) {
                std::fs::write(file, body).unwrap_or_else(|e| panic!("write {file}: {e}"));
                println!("wrote {file}");
            }
            println!();
            ran = true;
        }
    }
    if !ran {
        eprintln!("unknown experiment '{which}'; available:");
        for (id, _) in EXPERIMENTS {
            eprintln!("  {id}");
        }
        std::process::exit(1);
    }
}

/// Every experiment prints its table and may return an artifact.
type Experiment = fn(&Opts) -> Option<Artifact>;

const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", e1_bisecting_lines),
    ("e2", e2_lemma1),
    ("e3", e3_lemma2),
    ("e4", e4_match1),
    ("e5", e5_match2),
    ("e6", e6_match3),
    ("e7", e7_match4),
    ("e8", e8_walkdown),
    ("e9", e9_applications),
    ("e10", e10_appendix),
    ("e12", e12_shift_graph),
    ("e13", e13_erew_machinery),
    ("e14", e14_optimal_ranking),
    ("engine", engine_bench),
    ("faults", e15_faults),
    ("bounds", e17_bounds),
    ("service", e18_service),
];

/// E17: the bound audit — every instrumented matcher over a size grid,
/// each recorded counter checked against the paper's closed-form bound
/// and the exact `cost::*_native_work` predictor, plus a PRAM trace
/// bridged into the same span vocabulary. Output carries no timings,
/// so it is byte-deterministic across runs; returns `BENCH_bounds.json`.
fn e17_bounds(opts: &Opts) -> Option<Artifact> {
    use parmatch_core::obs::record_pram_trace;
    use parmatch_core::pram_impl::{match2_pram as m2p, match4_pram as m4p};
    use parmatch_core::{Recorder, Recording, Workspace};
    use parmatch_pram::fault::{arm_with_trace, take_probes, FaultPlan};

    let quick = opts.quick;
    println!("## E17 — bound audit: measured counters vs the paper's predictions");
    let ns: &[u64] = if quick {
        &[1 << 8, 1 << 12]
    } else {
        &[1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };

    fn audits_json(rec: &Recording) -> String {
        let items: Vec<String> = rec
            .audits()
            .iter()
            .map(|a| {
                format!(
                    "{{\"path\": \"{}\", \"value\": {}, \"bound\": {}, \"pass\": {}}}",
                    a.path, a.value, a.bound, a.pass
                )
            })
            .collect();
        format!("[{}]", items.join(", "))
    }

    let mut ws = Workspace::new();
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for &n in ns {
        let list = random_list(n as usize, SEED);
        let mut cell = |algo: &str, rec: Recording, predicted: u64| {
            let wu = rec.find("work_units").expect("work recorded");
            assert_eq!(
                wu, predicted,
                "{algo} n={n}: measured work diverged from the cost model"
            );
            assert!(
                rec.all_bounds_hold(),
                "{algo} n={n}: BOUND VIOLATED\n{}",
                rec.render()
            );
            let audits = rec.audits();
            rows.push(vec![
                format!("2^{}", n.trailing_zeros()),
                algo.to_string(),
                wu.to_string(),
                predicted.to_string(),
                format!("{}x", cost::native_work_constant(wu, n)),
                format!("{}/{}", audits.len(), audits.len()),
            ]);
            cells.push(format!(
                "    {{\"algo\": \"{algo}\", \"n\": {n}, \"work_units\": {wu}, \
                 \"predicted_work\": {predicted}, \"all_pass\": true, \
                 \"audits\": {}, \"tree\": {}}}",
                audits_json(&rec),
                rec.to_json()
            ));
        };

        let mut r = Recorder::new();
        Runner::new(Algorithm::Match1)
            .workspace(&mut ws)
            .observer(&mut r)
            .run(&list);
        cell("match1", r.finish(), cost::match1_native_work(n));

        let mut r = Recorder::new();
        Runner::new(Algorithm::Match2)
            .rounds(2)
            .workspace(&mut ws)
            .observer(&mut r)
            .run(&list);
        cell("match2", r.finish(), cost::match2_native_work(n, 2));

        let mut r = Recorder::new();
        let outcome = Runner::new(Algorithm::Match3)
            .workspace(&mut ws)
            .observer(&mut r)
            .run(&list);
        let out = outcome.as_match3().expect("match3 outcome");
        cell(
            "match3",
            r.finish(),
            cost::match3_native_work(n, out.crunch_rounds, out.jump_rounds),
        );

        let mut r = Recorder::new();
        Runner::new(Algorithm::Match4)
            .levels(2)
            .workspace(&mut ws)
            .observer(&mut r)
            .run(&list);
        cell("match4", r.finish(), cost::match4_native_work(n, 2));
    }
    print_table(
        &["n", "algo", "work_units", "predicted", "c·n", "bounds"],
        &rows,
    );
    println!("(measured work equals the cost-model prediction exactly; every audited bound held)");

    // Bridge: the same span vocabulary over a traced PRAM run, so the
    // simulator's step/work counters sit next to the native audits.
    let n_pram: u64 = 1 << 10;
    let list = random_list(n_pram as usize, SEED);
    let p = (n_pram / u64::from(ilog2_ceil(n_pram))) as usize;
    let mut pram_rows = Vec::new();
    for (algo, run) in [
        ("match2_pram", {
            let list = list.clone();
            Box::new(move || {
                m2p(&list, p, 2, CoinVariant::Msb, ExecMode::Fast)
                    .unwrap()
                    .stats
            }) as Box<dyn Fn() -> parmatch_pram::Stats>
        }),
        ("match4_pram", {
            let list = list.clone();
            Box::new(move || {
                m4p(&list, 2, None, CoinVariant::Msb, ExecMode::Fast)
                    .unwrap()
                    .stats
            })
        }),
    ] {
        arm_with_trace(FaultPlan::empty());
        let stats = run();
        let probe = take_probes().pop().expect("armed machine publishes");
        let trace = probe.trace.expect("tracing was requested");
        let mut r = Recorder::new();
        record_pram_trace(&mut r, &trace, Some(&stats));
        let rec = r.finish();
        pram_rows.push(vec![
            algo.to_string(),
            rec.find("steps").unwrap_or(0).to_string(),
            rec.find("work").unwrap_or(0).to_string(),
            rec.spans()[0].children.len().to_string(),
        ]);
        cells.push(format!(
            "    {{\"algo\": \"{algo}\", \"n\": {n_pram}, \"p\": {p}, \
             \"all_pass\": true, \"audits\": [], \"tree\": {}}}",
            rec.to_json()
        ));
    }
    print_table(&["pram run", "steps", "work", "phases"], &pram_rows);
    println!("(PRAM traces bridged through obs::record_pram_trace at n = 2^10, p = n/log n)");

    Some(Artifact {
        file: "BENCH_bounds.json",
        body: format!(
            "{{\n  \"experiment\": \"bounds\",\n  \"quick\": {quick},\n  \"seed\": {SEED},\n  \
             \"cells\": [\n{}\n  ]\n}}\n",
            cells.join(",\n")
        ),
    })
}

/// E15: the fault-injection detection matrix — every fault class
/// through every matcher under the self-checking runner, counting
/// injected / detected-by-engine / caught-by-verifier / recovered.
/// Returns `BENCH_faults.json`.
fn e15_faults(_: &Opts) -> Option<Artifact> {
    use parmatch_testkit::{fault_matrix, matrix_json, MatrixConfig};
    println!("## E15 — fault injection: detection matrix of the self-checking matchers");
    let cfg = MatrixConfig {
        n: 256,
        seed: SEED,
        trials: 8,
        sites_per_trial: 6,
        retry_budget: 6,
    };
    let cells = fault_matrix(&cfg);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.matcher.to_string(),
                c.class.name().to_string(),
                c.injected.to_string(),
                format!("{}/{}", c.fired_trials, c.trials),
                c.detected_by_engine.to_string(),
                c.caught_by_verifier.to_string(),
                c.benign.to_string(),
                c.recovered.to_string(),
                c.unrecovered.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "matcher",
            "fault class",
            "events",
            "fired trials",
            "engine",
            "verifier",
            "benign",
            "recovered",
            "unrecovered",
        ],
        &rows,
    );
    let unrecovered: u64 = cells.iter().map(|c| c.unrecovered).sum();
    assert_eq!(unrecovered, 0, "retry budget must recover every trial");
    println!(
        "(n = {}, seed {}, {} trials × {} sites per cell; every fired fault is detected by \
         the engine, caught by the output verifier, or benign — and bounded retry under the \
         transient model recovers every failed run)",
        cfg.n, cfg.seed, cfg.trials, cfg.sites_per_trial
    );
    Some(Artifact {
        file: "BENCH_faults.json",
        body: matrix_json(&cfg, &cells),
    })
}

/// Engine benchmark: the epoch-stamped step engine against the
/// preserved legacy engine, in both modes, plus the new engine's
/// simulated-steps-per-second on the E4/E7 sweeps. Returns the numbers
/// as `BENCH_engine.json`.
fn engine_bench(_: &Opts) -> Option<Artifact> {
    use parmatch_pram::{LegacyMachine, Machine, Model};
    use std::time::Instant;

    println!("## ENGINE — step engines head to head (one sweep step, EREW)");

    let mut rows = Vec::new();
    let mut json_steps = Vec::new();
    let mut speedup_p20 = 0.0;
    for shift in [17u32, 20] {
        let p = 1usize << shift;
        let reps = if shift >= 20 { 10 } else { 30 };
        let body = move |ctx: &mut parmatch_pram::ProcCtx<'_>| {
            let v = ctx.read(ctx.pid());
            ctx.write(p + ctx.pid(), v + 1);
        };
        let legacy_body = move |ctx: &mut parmatch_pram::LegacyCtx<'_>| {
            let v = ctx.read(ctx.pid());
            ctx.write(p + ctx.pid(), v + 1);
        };
        let mut variants: Vec<(&str, f64)> = Vec::new();
        {
            let mut m = LegacyMachine::new(Model::Erew, 2 * p);
            variants.push((
                "legacy_checked",
                med(reps, || m.step(p, legacy_body).unwrap()),
            ));
        }
        {
            let mut m = Machine::new(Model::Erew, 2 * p);
            variants.push(("new_checked", med(reps, || m.step(p, body).unwrap())));
        }
        {
            let mut m = LegacyMachine::new_fast(Model::Erew, 2 * p);
            variants.push(("legacy_fast", med(reps, || m.step(p, legacy_body).unwrap())));
        }
        {
            let mut m = Machine::new_fast(Model::Erew, 2 * p);
            variants.push(("new_fast", med(reps, || m.step(p, body).unwrap())));
        }
        let secs_of = |want: &str| variants.iter().find(|v| v.0 == want).unwrap().1;
        let (legacy_checked, legacy_fast) = (secs_of("legacy_checked"), secs_of("legacy_fast"));
        for &(name, secs) in &variants {
            let base = if name.ends_with("fast") {
                legacy_fast
            } else {
                legacy_checked
            };
            rows.push(vec![
                format!("2^{shift}"),
                name.to_string(),
                format!("{:.3} ms", secs * 1e3),
                format!("{:.1}M", p as f64 / secs / 1e6),
                format!("{:.2}x", base / secs),
            ]);
            json_steps.push(format!(
                "    {{\"p\": {p}, \"variant\": \"{name}\", \"secs_per_step\": {secs:.6}, \"proc_steps_per_sec\": {:.0}}}",
                p as f64 / secs
            ));
        }
        if shift == 20 {
            speedup_p20 = legacy_checked / secs_of("new_checked");
        }
    }
    print_table(
        &["p", "engine", "per step", "proc-steps/s", "vs legacy"],
        &rows,
    );
    println!("(speedup at p=2^20 checked, new vs legacy: {speedup_p20:.2}x)");

    // E4/E7-shaped sweeps: whole algorithms on the simulator,
    // simulated steps per wall-second with the new engine.
    println!();
    println!("simulated-step throughput on the E4/E7 algorithm sweeps:");
    let n = 1usize << 12;
    let list = random_list(n, SEED);
    let mut rows = Vec::new();
    let mut json_e4 = Vec::new();
    for exp in [4u32, 8, 12] {
        let p = 1usize << exp;
        let t = Instant::now();
        let out = match1_pram(&list, p, CoinVariant::Msb, ExecMode::Fast).unwrap();
        let secs = t.elapsed().as_secs_f64();
        rows.push(vec![
            format!("e4 match1 p=2^{exp}"),
            out.stats.steps.to_string(),
            fmt_dur(t.elapsed()),
            format!("{:.0}", out.stats.steps as f64 / secs),
        ]);
        json_e4.push(format!(
            "    {{\"p\": {p}, \"steps\": {}, \"wall_s\": {secs:.4}, \"steps_per_sec\": {:.0}}}",
            out.stats.steps,
            out.stats.steps as f64 / secs
        ));
    }
    let mut json_e7 = Vec::new();
    for i in 1..=3u32 {
        let t = Instant::now();
        let out = match4_pram(&list, i, None, CoinVariant::Msb, ExecMode::Fast).unwrap();
        let secs = t.elapsed().as_secs_f64();
        rows.push(vec![
            format!("e7 match4 i={i}"),
            out.stats.steps.to_string(),
            fmt_dur(t.elapsed()),
            format!("{:.0}", out.stats.steps as f64 / secs),
        ]);
        json_e7.push(format!(
            "    {{\"i\": {i}, \"p\": {}, \"steps\": {}, \"wall_s\": {secs:.4}, \"steps_per_sec\": {:.0}}}",
            out.cols,
            out.stats.steps,
            out.stats.steps as f64 / secs
        ));
    }
    print_table(&["sweep", "sim steps", "wall", "sim steps/s"], &rows);
    Some(Artifact {
        file: "BENCH_engine.json",
        body: format!(
            "{{\n  \"engine_step\": [\n{}\n  ],\n  \"speedup_checked_p20\": {speedup_p20:.3},\n  \
             \"e4_match1\": [\n{}\n  ],\n  \"e7_match4\": [\n{}\n  ]\n}}\n",
            json_steps.join(",\n"),
            json_e4.join(",\n"),
            json_e7.join(",\n")
        ),
    })
}

/// E18: the batched match service — fused same-class sweeps vs per-job
/// runs over a batch-size × size-class grid, with every batched result
/// asserted bit-identical in-run to a solo [`Runner`] run of the same
/// job, then the same mix replayed through a live
/// [`MatchService`](parmatch_service::MatchService).
/// Timings print to stdout only; the returned `BENCH_service.json`
/// carries the deterministic fields (grid shape, fused rounds, identity
/// booleans), so the artifact is byte-identical across reruns.
fn e18_service(opts: &Opts) -> Option<Artifact> {
    use parmatch_core::{match1_batch_in, BatchKey, BatchPlan, Workspace};
    use parmatch_list::LinkedList;
    use parmatch_service::{JobSpec, MatchService, ServiceConfig, SubmitError};
    use std::time::Instant;

    let quick = opts.quick;
    println!("## E18 — service: fused batched sweeps vs per-job runs");
    let jobs_total: usize = if quick { 512 } else { 4096 };
    let classes: &[(&str, usize, usize)] = &[("33..=64", 33, 64), ("65..=128", 65, 128)];
    let batch_sizes: &[usize] = &[8, 32, 128];
    let reps = if quick { 3 } else { 5 };

    let job_mix = |lo: usize, hi: usize| -> Vec<LinkedList> {
        (0..jobs_total)
            .map(|j| random_list(lo + j % (hi - lo + 1), SEED + j as u64))
            .collect()
    };

    let mut ws = Workspace::new();
    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    let (mut mix_batched, mut mix_solo) = (0.0f64, 0.0f64);
    for &(label, lo, hi) in classes {
        let lists = job_mix(lo, hi);
        let key = BatchKey::of(lists[0].len(), CoinVariant::Msb).expect("class is batchable");
        for l in &lists {
            assert_eq!(
                BatchKey::of(l.len(), CoinVariant::Msb),
                Some(key),
                "size class {label} must share one batch key"
            );
        }
        // Solo reference outputs: the bit-identity oracle for the cell.
        let solo: Vec<parmatch_core::Matching> = lists
            .iter()
            .map(|l| Runner::new(Algorithm::Match1).run(l).into_matching())
            .collect();
        for &batch in batch_sizes {
            let groups: Vec<Vec<&LinkedList>> =
                lists.chunks(batch).map(|c| c.iter().collect()).collect();
            let plans: Vec<BatchPlan> = groups
                .iter()
                .map(|g| BatchPlan::new(g, CoinVariant::Msb).expect("one width class fuses"))
                .collect();
            let total_nodes: usize = plans.iter().map(BatchPlan::total_nodes).sum();
            // In-run bit-identity: every fused output equals its solo run.
            let mut idx = 0usize;
            for (g, plan) in groups.iter().zip(&plans) {
                for out in match1_batch_in(g, plan, &mut ws) {
                    assert_eq!(
                        out.matching, solo[idx],
                        "batched job {idx} ({label}, batch {batch}) diverged from its solo run"
                    );
                    idx += 1;
                }
            }
            assert_eq!(idx, lists.len());
            let t_batched = med(reps, || {
                for (g, plan) in groups.iter().zip(&plans) {
                    match1_batch_in(g, plan, &mut ws);
                }
            });
            // Per-job baseline: what a caller without the service runs
            // per request — one Runner, fresh arena each time.
            let t_fresh = med(reps, || {
                for l in &lists {
                    Runner::new(Algorithm::Match1).run(l);
                }
            });
            // Pooled solo: same reused arena, no fusing — isolates the
            // batching win from the pooling win.
            let t_pooled = med(reps, || {
                for l in &lists {
                    Runner::new(Algorithm::Match1).workspace(&mut ws).run(l);
                }
            });
            if batch == 32 {
                mix_batched += t_batched;
                mix_solo += t_fresh;
            }
            rows.push(vec![
                label.to_string(),
                batch.to_string(),
                plans.len().to_string(),
                key.rounds().to_string(),
                format!("{:.1} ms", t_batched * 1e3),
                format!("{:.1} ms", t_fresh * 1e3),
                format!("{:.1} ms", t_pooled * 1e3),
                format!("{:.2}x", t_fresh / t_batched),
                format!("{:.2}x", t_pooled / t_batched),
            ]);
            json_cells.push(format!(
                "    {{\"class\": \"{label}\", \"batch\": {batch}, \"jobs\": {jobs_total}, \
                 \"batches\": {}, \"rounds\": {}, \"total_nodes\": {total_nodes}, \
                 \"identical\": true}}",
                plans.len(),
                key.rounds()
            ));
        }
    }
    print_table(
        &[
            "class",
            "batch",
            "batches",
            "rounds",
            "batched",
            "fresh",
            "pooled",
            "vs fresh",
            "vs pooled",
        ],
        &rows,
    );
    let mix_ratio = mix_solo / mix_batched;
    println!(
        "({jobs_total}-job mix per class, Match1 Msb; fused batches amortize the arena \
         prepare and run one relabel sweep over the concatenated lists; mix speedup at \
         batch 32 vs fresh per-job runs: {mix_ratio:.2}x)"
    );
    if !quick {
        assert!(
            mix_ratio >= 2.0,
            "batched throughput must be at least 2x the per-job baseline (got {mix_ratio:.2}x)"
        );
    }

    // The same small-list mix through a live service: concurrent
    // submission, pooled arenas, opportunistic fusing — every result
    // still bit-identical to its solo run.
    println!();
    let lists = job_mix(33, 64);
    let solo: Vec<parmatch_core::Matching> = lists
        .iter()
        .map(|l| Runner::new(Algorithm::Match1).run(l).into_matching())
        .collect();
    let svc = MatchService::start(ServiceConfig {
        workers: 2,
        queue_depth: 64,
        arenas: 2,
        max_batch: 32,
        threads_per_job: 1,
    });
    let t = Instant::now();
    let mut by_id = std::collections::HashMap::new();
    let mut results = Vec::new();
    for (j, list) in lists.iter().enumerate() {
        let mut spec = JobSpec::new(Algorithm::Match1, list.clone());
        let id = loop {
            match svc.submit(spec) {
                Ok(id) => break id,
                Err(SubmitError::Busy(returned)) => {
                    spec = returned;
                    if let Some(r) = svc.recv() {
                        results.push(r);
                    }
                }
                Err(SubmitError::Closed(_)) => unreachable!("service stays open"),
            }
        };
        by_id.insert(id, j);
    }
    while results.len() < lists.len() {
        results.push(svc.recv().expect("all jobs complete"));
    }
    svc.shutdown();
    let wall = t.elapsed();
    let fused = results.iter().filter(|r| r.batched).count();
    for r in &results {
        let j = by_id[&r.id];
        let out = r.output.as_ref().expect("service job succeeds");
        assert_eq!(
            out.matching().expect("match job"),
            &solo[j],
            "service result for job {j} diverged from its solo run"
        );
    }
    println!(
        "service replay: {} jobs through 2 workers in {}, {} fused into batches; every \
         result asserted bit-identical to its solo run",
        lists.len(),
        fmt_dur(wall),
        fused
    );

    Some(Artifact {
        file: "BENCH_service.json",
        body: format!(
            "{{\n  \"experiment\": \"service\",\n  \"quick\": {quick},\n  \"seed\": {SEED},\n  \
             \"jobs\": {jobs_total},\n  \"algorithm\": \"match1\",\n  \"cells\": [\n{}\n  ],\n  \
             \"service\": {{\"jobs\": {}, \"workers\": 2, \"max_batch\": 32, \
             \"identical\": true}}\n}}\n",
            json_cells.join(",\n"),
            lists.len()
        ),
    })
}

/// E1 (Fig. 1–2): forward/backward pointers crossing each bisecting line
/// form matchings; histogram of g-values.
fn e1_bisecting_lines(_: &Opts) -> Option<Artifact> {
    println!("## E1 — bisecting-line structure (Fig. 1 and Fig. 2)");
    let n: usize = 1 << 16;
    let list = random_list(n, SEED);
    let bits = ilog2_ceil(n as u64);
    let mut rows = Vec::new();
    for level in 0..bits {
        // pointers whose top differing bit is `level` cross a level-`level`
        // bisecting line; split by direction.
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        let mut bwd: Vec<(u32, u32)> = Vec::new();
        for ptr in list.pointers() {
            let (a, b) = (u64::from(ptr.tail), u64::from(ptr.head));
            if parmatch_bits::msb_diff(a, b) == level {
                if ptr.is_forward() {
                    fwd.push((ptr.tail, ptr.head));
                } else {
                    bwd.push((ptr.tail, ptr.head));
                }
            }
        }
        // matching check: disjoint heads and tails within each set
        let is_matching = |set: &[(u32, u32)]| {
            let mut seen = std::collections::HashSet::new();
            set.iter().all(|&(a, b)| seen.insert(a) && seen.insert(b))
        };
        rows.push(vec![
            level.to_string(),
            fwd.len().to_string(),
            bwd.len().to_string(),
            is_matching(&fwd).to_string(),
            is_matching(&bwd).to_string(),
        ]);
    }
    print_table(
        &[
            "bisecting level k",
            "forward",
            "backward",
            "fwd is matching",
            "bwd is matching",
        ],
        &rows,
    );
    println!("(every row must read true/true: Section 2's intuitive observation)");
    None
}

/// E2 (Lemma 1): one application of f gives ≤ 2⌈log n⌉ matching sets.
fn e2_lemma1(_: &Opts) -> Option<Artifact> {
    println!("## E2 — Lemma 1: f partitions into ≤ 2·log n matching sets");
    let mut rows = Vec::new();
    for e in [8u32, 10, 12, 14, 16, 18, 20] {
        let n = 1usize << e;
        let list = random_list(n, SEED);
        let msb = pointer_sets(&list, 1, CoinVariant::Msb);
        let lsb = pointer_sets(&list, 1, CoinVariant::Lsb);
        assert!(verify::partition_is_valid(&list, &msb));
        assert!(verify::partition_is_valid(&list, &lsb));
        rows.push(vec![
            format!("2^{e}"),
            (2 * e).to_string(),
            msb.distinct_sets().to_string(),
            lsb.distinct_sets().to_string(),
        ]);
    }
    print_table(
        &["n", "bound 2·log n", "sets (MSB f)", "sets (LSB f)"],
        &rows,
    );
    None
}

/// E3 (Lemma 2 / Lemma 3): k applications give ≤ 2·log^(k-1) n (1+o(1)).
fn e3_lemma2(_: &Opts) -> Option<Artifact> {
    println!("## E3 — Lemma 2: f^(k) partitions into ≈ 2·log^(k-1) n matching sets");
    let mut rows = Vec::new();
    for e in [10u32, 14, 18, 22] {
        let n = 1usize << e;
        let list = random_list(n, SEED);
        let mut row = vec![format!("2^{e}")];
        let mut labels = LabelSeq::initial(&list, CoinVariant::Msb);
        for k in 1..=5u32 {
            labels = labels.relabel(&list);
            let ps = parmatch_core::partition::PointerSets::from_labels(&list, &labels);
            assert!(verify::partition_is_valid(&list, &ps));
            let bound = 2 * iterated_log_ceil(n as u64, k - 1).max(2);
            row.push(format!("{}/{}", ps.distinct_sets(), bound));
        }
        rows.push(row);
    }
    print_table(
        &[
            "n",
            "k=1 (meas/2·n→)",
            "k=2 (/2·log n)",
            "k=3 (/2·llog n)",
            "k=4",
            "k=5",
        ],
        &rows,
    );
    println!("(cells are measured distinct sets / the 2·log^(k-1) n reference)");
    None
}

/// E4 (Match1, Lemma 3): steps ≈ c·(G(n)+2B)·n/p + G(n).
fn e4_match1(_: &Opts) -> Option<Artifact> {
    println!("## E4 — Match1: simulated steps vs O(n·G(n)/p + G(n))");
    let n = 1usize << 12;
    let list = random_list(n, SEED);
    let mut rows = Vec::new();
    for exp in [0u32, 2, 4, 6, 8, 10, 12] {
        let p = 1usize << exp;
        let out = match1_pram(&list, p, CoinVariant::Msb, ExecMode::Fast).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
        let pred = cost::match1_predicted(n as u64, p as u64);
        rows.push(vec![
            p.to_string(),
            out.stats.steps.to_string(),
            pred.to_string(),
            format!("{:.1}", out.stats.steps as f64 / pred as f64),
            out.relabel_rounds.to_string(),
        ]);
    }
    print_table(&["p", "steps", "predicted", "ratio", "G-rounds"], &rows);
    println!("(constant ratio across p ⇒ the n·G(n)/p shape holds; n = 2^12)");

    // the step-3 claim: constant-length sublists after the cut
    println!();
    let big = random_list(1 << 18, SEED);
    let labels = LabelSeq::initial(&big, CoinVariant::Msb).relabel_to_convergence(&big);
    let hist = parmatch_core::analyze::sublist_length_histogram(&big, &labels);
    let max_len = hist.len() - 1;
    let mean: f64 = hist
        .iter()
        .enumerate()
        .map(|(len, &c)| (len * c) as f64)
        .sum::<f64>()
        / hist.iter().sum::<usize>() as f64;
    println!(
        "step-3 cut on n = 2^18: {} sublists, mean length {:.2}, max {} (claimed constant: ≤ 2·bound−1 = {})",
        hist.iter().sum::<usize>(),
        mean,
        max_len,
        2 * labels.bound() - 1
    );
    None
}

/// E5 (Match2, Lemma 4): optimal to p = n/log n; the sort dominates past it.
fn e5_match2(_: &Opts) -> Option<Artifact> {
    println!("## E5 — Match2: work-efficiency and the sorting bottleneck");
    let n = 1usize << 12;
    let list = random_list(n, SEED);
    let p_star = cost::match2_optimal_procs(n as u64);
    let mut rows = Vec::new();
    for exp in [0u32, 3, 6, 8, 9, 10, 11, 12] {
        let p = 1usize << exp;
        let out = match2_pram(&list, p, 2, CoinVariant::Msb, ExecMode::Fast).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
        rows.push(vec![
            p.to_string(),
            out.stats.steps.to_string(),
            out.sort_steps.to_string(),
            format!(
                "{:.0}%",
                100.0 * out.sort_steps as f64 / out.stats.steps as f64
            ),
            format!(
                "{:.1}",
                cost::work_efficiency(n as u64, p as u64, out.stats.steps)
            ),
        ]);
    }
    print_table(&["p", "steps", "sort steps", "sort share", "p·T/n"], &rows);
    println!("(n = 2^12, n/log n = {p_star}: p·T/n stays O(1) below it and grows past it, with the sort share rising — the bottleneck the paper pinpoints)");
    None
}

/// E6 (Match3, Lemma 5): crunch/jump/table trade-off.
fn e6_match3(_: &Opts) -> Option<Artifact> {
    println!("## E6 — Match3: table-lookup algorithm and its k trade-off");
    let n = 1usize << 20;
    let list = random_list(n, SEED);
    let mut rows = Vec::new();
    for k in [2u32, 3, 4, 6] {
        let cfg = Match3Config {
            crunch_rounds: k,
            ..Match3Config::default()
        };
        match timed(|| Runner::new(Algorithm::Match3).config(cfg).try_run(&list)) {
            (Ok(outcome), d) => {
                let out = outcome.as_match3().expect("match3 outcome");
                verify::assert_maximal_matching(&list, &out.matching);
                rows.push(vec![
                    k.to_string(),
                    out.jump_rounds.to_string(),
                    format!("2^{}", out.table_bits),
                    out.final_bound.to_string(),
                    fmt_dur(d),
                ]);
            }
            (Err(e), _) => {
                rows.push(vec![
                    k.to_string(),
                    "-".into(),
                    format!("({e})"),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    print_table(
        &[
            "crunch k",
            "jump rounds",
            "table size",
            "final bound",
            "wall time",
        ],
        &rows,
    );
    let (m1, d1) = timed(|| Runner::new(Algorithm::Match1).run(&list));
    verify::assert_maximal_matching(&list, m1.matching());
    println!("(reference: Match1 on the same list takes {} with {} rounds — Match3 trades its G(n) rounds for log G(n) jumps + one probe; n = 2^20)",
        fmt_dur(d1), m1.as_match1().expect("match1 outcome").rounds);
    None
}

/// E7 (Match4, Theorems 1–2): the headline curves.
fn e7_match4(_: &Opts) -> Option<Artifact> {
    println!("## E7 — Match4: O(i·n/p + log^(i) n), optimal to p = n/log^(i) n");
    let n = 1usize << 12;
    let list = random_list(n, SEED);

    println!("### i sweep at p = n/x (Theorem 1 operating point), n = 2^12");
    let mut rows = Vec::new();
    for i in 1..=4u32 {
        let out = match4_pram(&list, i, None, CoinVariant::Msb, ExecMode::Fast).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
        rows.push(vec![
            i.to_string(),
            out.rows.to_string(),
            out.cols.to_string(),
            out.stats.steps.to_string(),
            format!(
                "{:.1}",
                cost::work_efficiency(n as u64, out.cols as u64, out.stats.steps)
            ),
        ]);
    }
    print_table(&["i", "rows x", "p = n/x", "steps", "p·T/n"], &rows);

    println!();
    println!("### p sweep via row padding (i = 2)");
    let mut rows = Vec::new();
    let base = match4_pram(&list, 2, None, CoinVariant::Msb, ExecMode::Fast).unwrap();
    for x in [base.rows, 2 * base.rows, 8 * base.rows, 64 * base.rows, n] {
        let out = match4_pram(&list, 2, Some(x), CoinVariant::Msb, ExecMode::Fast).unwrap();
        let predicted = cost::match4_predicted(n as u64, out.cols as u64, 2).max(1);
        rows.push(vec![
            out.cols.to_string(),
            x.to_string(),
            out.stats.steps.to_string(),
            predicted.to_string(),
            format!("{:.1}", out.stats.steps as f64 / predicted as f64),
        ]);
    }
    print_table(&["p", "rows x", "steps", "predicted", "ratio"], &rows);

    println!();
    println!("### growth at each algorithm's max optimal p (the Theorem 1 separation)");
    let mut rows = Vec::new();
    for e in [10u32, 12, 14, 16] {
        let nn = 1usize << e;
        let l = random_list(nn, SEED);
        let p2 = cost::match2_optimal_procs(nn as u64) as usize;
        let m2 = match2_pram(&l, p2, 2, CoinVariant::Msb, ExecMode::Fast).unwrap();
        let m4 = match4_pram(&l, 3, None, CoinVariant::Msb, ExecMode::Fast).unwrap();
        rows.push(vec![
            format!("2^{e}"),
            format!("{p2}"),
            m2.stats.steps.to_string(),
            m4.cols.to_string(),
            m4.stats.steps.to_string(),
        ]);
    }
    print_table(
        &[
            "n",
            "Match2 p=n/log n",
            "Match2 steps",
            "Match4 p=n/x (i=3)",
            "Match4 steps",
        ],
        &rows,
    );
    println!("(Match2's steps grow with log n; Match4's stay flat while using MORE processors)");
    None
}

/// E8 (Lemmas 6–7): WalkDown schedule invariants.
fn e8_walkdown(_: &Opts) -> Option<Artifact> {
    println!("## E8 — WalkDown: Lemma 7 pipeline invariant and round counts");
    // Lemma 7 on synthetic sorted key columns
    let mut rows = Vec::new();
    for (name, keys) in [
        ("uniform 0..x", (0..16u64).collect::<Vec<_>>()),
        ("all zero", vec![0u64; 16]),
        ("all max", vec![15u64; 16]),
        ("two-valued", {
            let mut v = vec![3u64; 8];
            v.extend(vec![11u64; 8]);
            v
        }),
    ] {
        let marked = walkdown2_schedule(&keys);
        let ok = marked
            .iter()
            .enumerate()
            .all(|(r, &k)| k == keys[r] + r as u64);
        let last = marked.iter().max().copied().unwrap_or(0);
        rows.push(vec![
            name.to_string(),
            ok.to_string(),
            last.to_string(),
            (2 * keys.len() - 2).to_string(),
        ]);
    }
    print_table(
        &[
            "A column (x=16)",
            "marked at A[r]+r",
            "last step",
            "bound 2x-2",
        ],
        &rows,
    );

    println!();
    let n = 1usize << 16;
    let list = random_list(n, SEED);
    let ps = pointer_sets(&list, 2, CoinVariant::Msb);
    let x = ps.bound() as usize;
    let grid = parmatch_core::walkdown::Grid::new(&list, &ps, x);
    let inter = list
        .pointers()
        .filter(|p| !grid.is_intra_row(p.tail, p.head))
        .count();
    let (colors, rounds) = parmatch_core::walkdown::color_pointers(&list, &grid);
    assert!(verify::coloring_is_proper(&list, &colors, 3));
    println!(
        "grid {x} rows × {} cols: {} inter-row + {} intra-row pointers, 3-colored in {} lockstep rounds (= 3x-1 = {}); coloring verified proper",
        grid.cols(), inter, list.pointer_count() - inter, rounds, 3 * x - 1
    );
    None
}

/// E9: the applications, against their baselines.
fn e9_applications(_: &Opts) -> Option<Artifact> {
    println!("## E9 — applications: MIS / 3-coloring / ranking work");
    use parmatch_apps::{is_maximal_independent_set, mis_via_match4, rank_by_contraction};
    use parmatch_baselines::{cv::cv_color3, randomized_matching, wyllie_ranks};
    let mut rows = Vec::new();
    for e in [12u32, 14, 16, 18] {
        let n = 1usize << e;
        let list = random_list(n, SEED);
        let sel = mis_via_match4(&list, 2, CoinVariant::Msb);
        assert!(is_maximal_independent_set(&list, &sel));
        let mis_size = sel.iter().filter(|&&b| b).count();
        let cv = cv_color3(&list, CoinVariant::Msb);
        let rank = rank_by_contraction(&list, 2, CoinVariant::Msb);
        let wy = wyllie_ranks(&list);
        assert_eq!(rank.ranks, wy.ranks);
        let rnd = randomized_matching(&list, SEED);
        rows.push(vec![
            format!("2^{e}"),
            format!("{:.1}%", 100.0 * mis_size as f64 / n as f64),
            cv.coin_rounds.to_string(),
            rnd.rounds.to_string(),
            format!("{:.2}n", rank.work as f64 / n as f64),
            format!("{:.2}n", wy.work as f64 / n as f64),
        ]);
    }
    print_table(
        &[
            "n",
            "MIS size",
            "CV rounds",
            "random rounds",
            "contraction work",
            "Wyllie work",
        ],
        &rows,
    );
    println!("(deterministic rounds stay constant while randomized rounds grow with log n; contraction work stays ≈ 2.3n while Wyllie's grows as n·log n)");

    println!();
    println!("accelerated cascades (contract to n/log n, then jump):");
    let mut rows = Vec::new();
    for e in [12u32, 16] {
        let n = 1usize << e;
        let list = random_list(n, SEED);
        let pure = parmatch_apps::rank_by_contraction(&list, 2, CoinVariant::Msb);
        let casc = parmatch_apps::rank_accelerated(&list, 2, CoinVariant::Msb);
        assert_eq!(pure.ranks, casc.ranks);
        rows.push(vec![
            format!("2^{e}"),
            pure.levels.to_string(),
            casc.contract_levels.to_string(),
            casc.switch_size.to_string(),
            format!("{:.2}n", casc.work as f64 / n as f64),
        ]);
    }
    print_table(
        &[
            "n",
            "pure levels",
            "cascade levels",
            "switch size",
            "cascade work",
        ],
        &rows,
    );

    println!();
    println!("on-machine ranking step counts (p = 64):");
    use parmatch_core::pram_impl::wyllie_pram;
    let mut rows = Vec::new();
    for e in [10u32, 12, 14] {
        let n = 1usize << e;
        let list = random_list(n, SEED);
        let wy = wyllie_pram(&list, 64, ExecMode::Fast).unwrap();
        let m4 = match4_pram(&list, 2, None, CoinVariant::Msb, ExecMode::Fast).unwrap();
        rows.push(vec![
            format!("2^{e}"),
            wy.stats.steps.to_string(),
            format!("{:.1}n", wy.stats.work as f64 / n as f64),
            format!("{:.1}n", m4.stats.work as f64 / n as f64),
        ]);
    }
    print_table(
        &[
            "n",
            "Wyllie steps",
            "Wyllie work",
            "one Match4 level's work",
        ],
        &rows,
    );
    println!("(Wyllie's work/n grows with log n; each matching-contraction level stays flat — the growth gap behind optimal ranking)");
    None
}

/// E10: the appendix machinery.
fn e10_appendix(_: &Opts) -> Option<Artifact> {
    println!("## E10 — appendix: table-driven evaluation of f, log, G");
    let width = 24u32;
    let rev = BitReversalTable::new(8);
    let unary = UnaryToBinaryTable::new(width);
    let mut mismatches = 0usize;
    for x in 1u64..(1 << 16) {
        if parmatch_bits::iterated_log::ilog2_via_tables(x, width, &rev, &unary)
            != Some(parmatch_bits::ilog2_floor(x))
        {
            mismatches += 1;
        }
    }
    println!("table-driven ⌊log n⌋ vs hardware over n < 2^16: {mismatches} mismatches");
    let mut rows = Vec::new();
    for e in [8u32, 16, 24, 32, 48, 63] {
        let n = 1u64 << e;
        rows.push(vec![
            format!("2^{e}"),
            g_of(n).to_string(),
            parmatch_bits::log_g(n).to_string(),
            iterated_log_ceil(n, 2).to_string(),
            iterated_log_ceil(n, 3).to_string(),
        ]);
    }
    print_table(
        &["n", "G(n)", "log G(n)", "⌈log^(2) n⌉", "⌈log^(3) n⌉"],
        &rows,
    );

    println!();
    println!("f^(m) lookup tables (Match3 step 4 / appendix guess-and-verify):");
    let mut rows = Vec::new();
    for (w, m) in [(3u32, 2u32), (3, 4), (4, 4), (4, 5), (2, 8)] {
        let (t, d) = timed(|| TupleTable::build(w, m, CoinVariant::Msb, 24).unwrap());
        // spot guess-and-verify
        let ok = (0..t.len() as u64)
            .step_by((t.len() / 64).max(1))
            .all(|code| t.verify_guess(code, t.probe(code)));
        rows.push(vec![
            w.to_string(),
            m.to_string(),
            t.len().to_string(),
            t.value_bound().to_string(),
            ok.to_string(),
            fmt_dur(d),
        ]);
    }
    print_table(
        &[
            "bits/arg w",
            "args m",
            "entries",
            "value bound",
            "guess-verify ok",
            "build",
        ],
        &rows,
    );
    // fold sanity line
    let v = fold_value(&[5, 2, 7, 2], 3, CoinVariant::Msb);
    println!("(example: f^(4)(5,2,7,2) with 3-bit args = {v})");
    None
}

/// E12 (the Remark): how few matching sets *any* partition function can
/// achieve — sandwiching χ of the shift graph.
fn e12_shift_graph(_: &Opts) -> Option<Artifact> {
    println!("## E12 — the Remark: shift-graph chromatic bounds");
    use parmatch_core::shift_graph::{
        exact_shift_chromatic, f_set_count, greedy_shift_coloring, shift_coloring_is_proper,
        sperner_shift_coloring,
    };
    let mut rows = Vec::new();
    for n in [4usize, 8, 16, 64, 256, 1024] {
        let log_n = ilog2_ceil(n as u64);
        let f_msb = f_set_count(n, CoinVariant::Msb);
        let (k, colors) = sperner_shift_coloring(n);
        assert!(shift_coloring_is_proper(n, &colors));
        let greedy = greedy_shift_coloring(n);
        let exact = if n <= 5 {
            exact_shift_chromatic(n).to_string()
        } else {
            "-".into()
        };
        rows.push(vec![
            n.to_string(),
            log_n.to_string(),
            exact,
            k.to_string(),
            f_msb.to_string(),
            greedy.to_string(),
        ]);
    }
    print_table(
        &[
            "labels n",
            "⌈log n⌉ floor",
            "χ exact",
            "Sperner (Remark)",
            "f (Lemma 1)",
            "naive greedy",
        ],
        &rows,
    );
    println!(
        "(the Remark's Sperner construction sits at log n + O(log log n), below f's 2·log n; \
         structure-blind greedy explodes — the deterministic structure does real work)"
    );
    None
}

/// E13: the appendix's EREW machinery on the machine — table broadcast,
/// Match3 with per-processor table copies, and the log G(n) evaluation.
fn e13_erew_machinery(_: &Opts) -> Option<Artifact> {
    println!("## E13 — appendix on the machine: EREW table copies and log G evaluation");
    use parmatch_core::pram_impl::{eval_log_g_pram, match3_pram};
    let list = random_list(1 << 12, SEED);
    let mut rows = Vec::new();
    for (jump, label) in [(Some(1u32), "j=1, |T|=2^8"), (None, "j=2, |T|=2^16")] {
        for p in [4usize, 64, 256] {
            let cfg = Match3Config {
                jump_rounds: jump,
                ..Match3Config::default()
            };
            let out = match3_pram(&list, p, cfg, ExecMode::Fast).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
            rows.push(vec![
                label.to_string(),
                p.to_string(),
                out.stats.steps.to_string(),
                out.broadcast_steps.to_string(),
                (p * out.table_len).to_string(),
            ]);
        }
    }
    print_table(
        &[
            "config",
            "p",
            "Match3 steps",
            "broadcast steps",
            "replicated words (p·|T|)",
        ],
        &rows,
    );
    println!(
        "(per-processor table copies keep every probe exclusive — the appendix's EREW \
         requirement; per-processor broadcast cost is |T| steps, which is why the paper \
         crunches labels first: the j=2 table is larger than this list, the j=1 table \
         negligible — 'the adjustable parameter k can be adjusted so that the number of \
         processors needed … is less than n')"
    );
    println!();
    let mut rows = Vec::new();
    for e in [8u32, 12, 16, 20] {
        let n = 1usize << e;
        let out = eval_log_g_pram(n, n + 1, ExecMode::Fast).unwrap();
        rows.push(vec![
            format!("2^{e}"),
            out.main_list_len.to_string(),
            g_of(n as u64).to_string(),
            out.log_g_rounds.to_string(),
            parmatch_bits::log_g(n as u64).to_string(),
            out.stats.steps.to_string(),
        ]);
    }
    print_table(
        &[
            "n",
            "main list len",
            "G(n)",
            "jump rounds",
            "log G(n)",
            "steps (p=n)",
        ],
        &rows,
    );
    println!("(the pointer-jumping evaluation returns Θ(G) and Θ(log G) in O(log G(n)) steps with n processors — the appendix's claim)");
    None
}

/// E14: optimal list ranking assembled on the machine — matching
/// contraction + compaction scans + jumping finisher, vs pure Wyllie.
fn e14_optimal_ranking(_: &Opts) -> Option<Artifact> {
    println!("## E14 — optimal list ranking on the machine (contraction vs Wyllie)");
    use parmatch_core::pram_impl::{rank_pram, wyllie_pram};
    let mut rows = Vec::new();
    for e in [10u32, 12, 14] {
        let n = 1usize << e;
        let list = random_list(n, SEED);
        let rk = rank_pram(&list, 2, ExecMode::Fast).unwrap();
        assert_eq!(rk.ranks, list.ranks_seq(), "ranks must match ground truth");
        let wy = wyllie_pram(&list, 64, ExecMode::Fast).unwrap();
        rows.push(vec![
            format!("2^{e}"),
            rk.levels.to_string(),
            rk.switch_size.to_string(),
            format!("{:.1}n", rk.stats.work as f64 / n as f64),
            format!("{:.1}n", wy.stats.work as f64 / n as f64),
        ]);
    }
    print_table(
        &[
            "n",
            "contract levels",
            "switch size",
            "contraction work",
            "Wyllie work (p=64)",
        ],
        &rows,
    );
    println!(
        "(the full pipeline — Match4 per level, compaction scans, accelerated-cascade \
         switch, expansion — runs on the simulator with every access model-checked in \
         the test suite; its work/n stays flat while Wyllie's grows with log n)"
    );
    None
}
