//! Differential property tests: the epoch-stamped engine must be
//! observation-equivalent to the original log-and-sort engine
//! ([`LegacyMachine`]), which defines the semantics.
//!
//! "Observation" means everything a caller can see: the memory image
//! after every step, the step/work/read/write counters, whether each
//! step failed, and *which* error it failed with (the legacy engine
//! selects errors deterministically — lowest address, then lowest pid
//! pair — so the new engine must reproduce the exact variant and
//! fields). Programs are generated from a seed as per-(step, pid) op
//! tables with addresses drawn from a small range, so read and write
//! collisions — legal and illegal, same-value and not — arise
//! constantly across all five models and both modes.

use parmatch_pram::{ExecMode, LegacyMachine, Machine, Model, PramError, Word};
use proptest::prelude::*;

/// splitmix64 — tiny deterministic generator for derived test data.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(usize),
    Write(usize, Word),
}

/// One program: `steps[s][pid]` is that processor's op list for step
/// `s`. Addresses land in `0..span` (with a small chance of just-out-
/// of-bounds), `span` ≪ `p`, so every collision class gets exercised.
fn gen_program(seed: u64, p: usize, nsteps: usize, span: usize) -> Vec<Vec<Vec<Op>>> {
    let mut st = seed;
    (0..nsteps)
        .map(|_| {
            (0..p)
                .map(|_| {
                    let nops = (mix(&mut st) % 4) as usize;
                    (0..nops)
                        .map(|_| {
                            let r = mix(&mut st);
                            // 1-in-32 ops aim one past the end (OutOfBounds)
                            let addr = if r.is_multiple_of(32) {
                                span
                            } else {
                                (r >> 8) as usize % span
                            };
                            if r.is_multiple_of(3) {
                                Op::Read(addr)
                            } else {
                                // values collide often (common-value cases)
                                Op::Write(addr, (r >> 40) % 3)
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Observation {
    results: Vec<Result<(), PramError>>,
    memories: Vec<Vec<Word>>,
    stats: (u64, u64, u64, u64),
}

fn observe_new(prog: &[Vec<Vec<Op>>], model: Model, mode: ExecMode, size: usize) -> Observation {
    let mut m = match mode {
        ExecMode::Checked => Machine::new(model, size),
        ExecMode::Fast => Machine::new_fast(model, size),
    };
    let mut results = Vec::new();
    let mut memories = Vec::new();
    for step in prog {
        results.push(m.step(step.len(), |ctx| {
            for op in &step[ctx.pid()] {
                match *op {
                    Op::Read(a) => {
                        let _ = ctx.read(a);
                    }
                    Op::Write(a, v) => ctx.write(a, v),
                }
            }
        }));
        memories.push(m.memory().to_vec());
    }
    let s = m.stats();
    Observation {
        results,
        memories,
        stats: (s.steps, s.work, s.reads, s.writes),
    }
}

fn observe_legacy(prog: &[Vec<Vec<Op>>], model: Model, mode: ExecMode, size: usize) -> Observation {
    let mut m = match mode {
        ExecMode::Checked => LegacyMachine::new(model, size),
        ExecMode::Fast => LegacyMachine::new_fast(model, size),
    };
    let mut results = Vec::new();
    let mut memories = Vec::new();
    for step in prog {
        results.push(m.step(step.len(), |ctx| {
            for op in &step[ctx.pid()] {
                match *op {
                    Op::Read(a) => {
                        let _ = ctx.read(a);
                    }
                    Op::Write(a, v) => ctx.write(a, v),
                }
            }
        }));
        memories.push(m.memory().to_vec());
    }
    let s = m.stats();
    Observation {
        results,
        memories,
        stats: (s.steps, s.work, s.reads, s.writes),
    }
}

const MODELS: [Model; 5] = [
    Model::Erew,
    Model::Crew,
    Model::CrcwCommon,
    Model::CrcwArbitrary,
    Model::CrcwPriority,
];

proptest! {
    /// Core differential property: for arbitrary (mostly illegal)
    /// programs, the new engine and the legacy engine observe
    /// identically — per-step results including the exact error,
    /// per-step memory images, and final counters — on every model in
    /// both modes.
    #[test]
    fn new_engine_matches_legacy(seed in any::<u64>(), p in 2usize..48, span in 2usize..12) {
        let prog = gen_program(seed, p, 6, span);
        for model in MODELS {
            for mode in [ExecMode::Checked, ExecMode::Fast] {
                let new = observe_new(&prog, model, mode, span);
                let old = observe_legacy(&prog, model, mode, span);
                prop_assert_eq!(&new, &old, "model {:?} mode {:?}", model, mode);
            }
        }
    }

    /// Same property across the parallel threshold: p large enough that
    /// the new engine actually chunks (p ≥ 2·MIN_CHUNK = 512) while the
    /// address span stays small, forcing cross-chunk conflicts.
    #[test]
    fn new_engine_matches_legacy_chunked(seed in any::<u64>(), span in 2usize..9) {
        let prog = gen_program(seed, 700, 3, span);
        for model in [Model::Erew, Model::CrcwCommon, Model::CrcwPriority] {
            let new = observe_new(&prog, model, ExecMode::Checked, span);
            let old = observe_legacy(&prog, model, ExecMode::Checked, span);
            prop_assert_eq!(&new, &old, "model {:?}", model);
        }
    }

    /// The new engine's observations are independent of the rayon pool
    /// size (the legacy engine already was; the recursive chunk
    /// executor must be too).
    #[test]
    fn new_engine_pool_size_independent(seed in any::<u64>()) {
        let prog = gen_program(seed, 600, 3, 7);
        let on_pool = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| observe_new(&prog, Model::CrcwPriority, ExecMode::Checked, 7))
        };
        let base = on_pool(1);
        prop_assert_eq!(&on_pool(2), &base);
        prop_assert_eq!(&on_pool(5), &base);
    }
}
