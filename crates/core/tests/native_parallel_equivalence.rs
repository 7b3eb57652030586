//! Differential tests for the native parallel pipeline: [`Runner`] runs
//! on a reused [`Workspace`] must be **bit-identical** to fresh-workspace
//! runs and to the reference composition paths at every thread count,
//! and a reused workspace must never leak state between runs.
//!
//! Thread counts are driven through [`rayon::ThreadPoolBuilder`] — the
//! shim's pool honors `install`, so each block below re-runs the whole
//! pipeline on pools of 1, 2 and 8 workers and compares raw outputs.

use parmatch_core::finish::from_labels;
use parmatch_core::prelude::*;
use parmatch_core::LabelSeq;
use parmatch_list::{blocked_list, random_list, reversed_list, sequential_list, LinkedList, NIL};

const THREADS: [usize; 3] = [1, 2, 8];

fn on_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

/// The last two lists span several of the pipeline's 8192-node
/// parallel chunks, so pools of 1, 2 and 8 workers really split them.
fn layouts() -> Vec<LinkedList> {
    vec![
        random_list(5000, 11),
        random_list(4097, 12),
        sequential_list(3000),
        reversed_list(2048),
        blocked_list(3001, 64, 13),
        random_list(2, 14),
        random_list(3, 15),
        random_list(3 * 8192 + 5, 16),
        blocked_list(2 * 8192 + 3, 64, 17),
    ]
}

/// Match1 through one reused workspace equals a fresh-workspace run,
/// across thread counts and layouts.
#[test]
fn match1_bit_identical_across_threads() {
    for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
        let mut reference: Vec<Matching> = Vec::new();
        for (t, &threads) in THREADS.iter().enumerate() {
            let outs: Vec<Matching> = on_pool(threads, || {
                let mut ws = Workspace::new();
                layouts()
                    .iter()
                    .map(|list| {
                        let runner = || Runner::new(Algorithm::Match1).variant(variant);
                        let fresh = runner().run(list);
                        let reused = runner().workspace(&mut ws).run(list);
                        let (fresh, reused) =
                            (fresh.as_match1().unwrap(), reused.as_match1().unwrap());
                        assert_eq!(fresh.matching, reused.matching, "ws reuse differs");
                        assert_eq!(fresh.rounds, reused.rounds);
                        assert_eq!(fresh.final_bound, reused.final_bound);
                        reused.matching.clone()
                    })
                    .collect()
            });
            if t == 0 {
                reference = outs;
            } else {
                assert_eq!(reference, outs, "thread count {threads} diverged");
            }
        }
    }
}

/// Match2 likewise, over several round counts.
#[test]
fn match2_bit_identical_across_threads() {
    let mut reference: Vec<Matching> = Vec::new();
    for (t, &threads) in THREADS.iter().enumerate() {
        let outs: Vec<Matching> = on_pool(threads, || {
            let mut ws = Workspace::new();
            let mut all = Vec::new();
            for list in &layouts() {
                for rounds in [1u32, 2, 3] {
                    let runner = || Runner::new(Algorithm::Match2).rounds(rounds);
                    let fresh = runner().run(list).into_matching();
                    let reused = runner().workspace(&mut ws).run(list).into_matching();
                    assert_eq!(fresh, reused, "ws reuse differs");
                    all.push(reused);
                }
            }
            all
        });
        if t == 0 {
            reference = outs;
        } else {
            assert_eq!(reference, outs, "thread count {threads} diverged");
        }
    }
}

/// Match3 likewise — the cached table must not change results when hit.
#[test]
fn match3_bit_identical_across_threads() {
    let cfg = Match3Config::default();
    let mut reference: Vec<Matching> = Vec::new();
    for (t, &threads) in THREADS.iter().enumerate() {
        let outs: Vec<Matching> = on_pool(threads, || {
            let mut ws = Workspace::new();
            layouts()
                .iter()
                .map(|list| {
                    let runner = || Runner::new(Algorithm::Match3).config(cfg);
                    let fresh = runner().run(list);
                    // second call hits the table cache
                    let reused = runner().workspace(&mut ws).run(list);
                    let cached = runner().workspace(&mut ws).run(list);
                    let (fresh, reused) = (fresh.as_match3().unwrap(), reused.as_match3().unwrap());
                    assert_eq!(fresh.matching, reused.matching, "ws reuse differs");
                    assert_eq!(
                        reused.matching,
                        cached.into_matching(),
                        "table cache differs"
                    );
                    assert_eq!(fresh.final_bound, reused.final_bound);
                    reused.matching.clone()
                })
                .collect()
        });
        if t == 0 {
            reference = outs;
        } else {
            assert_eq!(reference, outs, "thread count {threads} diverged");
        }
    }
}

/// Match4 likewise, over i ∈ {1, 2, 3}; diagnostics must agree too.
#[test]
fn match4_bit_identical_across_threads() {
    let mut reference: Vec<Matching> = Vec::new();
    for (t, &threads) in THREADS.iter().enumerate() {
        let outs: Vec<Matching> = on_pool(threads, || {
            let mut ws = Workspace::new();
            let mut all = Vec::new();
            for list in &layouts() {
                for i in [1u32, 2, 3] {
                    let runner = || Runner::new(Algorithm::Match4).levels(i);
                    let fresh = runner().run(list);
                    let reused = runner().workspace(&mut ws).run(list);
                    let (fresh, reused) = (fresh.as_match4().unwrap(), reused.as_match4().unwrap());
                    assert_eq!(fresh.matching, reused.matching, "ws reuse differs");
                    assert_eq!(fresh.rows, reused.rows);
                    assert_eq!(fresh.cols, reused.cols);
                    assert_eq!(fresh.distinct_sets, reused.distinct_sets);
                    assert_eq!(fresh.walk_rounds, reused.walk_rounds);
                    all.push(reused.matching.clone());
                }
            }
            all
        });
        if t == 0 {
            reference = outs;
        } else {
            assert_eq!(reference, outs, "thread count {threads} diverged");
        }
    }
}

/// The reference relabel path (`relabel_to_convergence`) is identical
/// across thread counts, label for label.
#[test]
fn relabel_convergence_identical_across_threads() {
    for list in [random_list(6000, 21), blocked_list(2500, 16, 22)] {
        let mut reference: Option<(Vec<u64>, u64, u32)> = None;
        for &threads in &THREADS {
            let got = on_pool(threads, || {
                let l = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
                (l.labels().to_vec(), l.bound(), l.rounds())
            });
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(*r, got, "thread count {threads} diverged"),
            }
        }
    }
}

/// The finisher (cut + walk + fix-up) produces identical matchings from
/// identical labels at every thread count — the walkdown/finish half of
/// the pipeline isolated from relabeling.
#[test]
fn finish_from_labels_identical_across_threads() {
    let list = random_list(4000, 31);
    let labels = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
    let mut reference: Option<Matching> = None;
    for &threads in &THREADS {
        let m = on_pool(threads, || from_labels(&list, labels.labels()));
        match &reference {
            None => reference = Some(m),
            Some(r) => assert_eq!(*r, m, "thread count {threads} diverged"),
        }
    }
}

/// One workspace shared across *different* algorithms and sizes (the
/// benchmark loop's usage pattern) never contaminates results.
#[test]
fn interleaved_workspace_reuse_is_clean() {
    let mut ws = Workspace::new();
    let sizes = [4000usize, 100, 2500, 2, 900];
    for (k, &n) in sizes.iter().enumerate() {
        let list = random_list(n, 40 + k as u64);
        for algo in Algorithm::ALL {
            let reused = Runner::new(algo).workspace(&mut ws).run(&list);
            let fresh = Runner::new(algo).run(&list);
            assert_eq!(reused.matching(), fresh.matching(), "{algo} n={n}");
        }
    }
}

/// One path plus disjoint cycles (each of length ≥ 2): the node order of
/// `random_list(n, seed)`, cut into a path and then cycles whose lengths
/// a xorshift stream draws from `2..=4097`.
fn path_plus_cycles(n: usize, seed: u64) -> LinkedList {
    let order = random_list(n, seed).order();
    let mut next = vec![NIL; n];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut draw = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        2 + (state % 4096) as usize
    };
    let mut start = 0;
    let mut is_path = true;
    while start < n {
        let mut end = (start + draw()).min(n);
        if n - end < 2 {
            end = n; // no one-node cycle: fold the remainder in
        }
        let seg = &order[start..end];
        for w in seg.windows(2) {
            next[w[0] as usize] = w[1];
        }
        if !is_path {
            next[seg[seg.len() - 1] as usize] = seg[0];
        }
        is_path = false;
        start = end;
    }
    LinkedList::from_parts(next, order[0])
}

/// The input contract that list validation at the entry points relies
/// on: a list that passes the local checks (one predecessor per node, a
/// head without one, one tail) is one path plus disjoint cycles, and on
/// such a pointer graph Match1 and Match3 return a maximal matching,
/// identical at every pool size.
#[test]
fn path_plus_cycles_get_a_maximal_matching() {
    let mut lists = vec![
        LinkedList::from_parts(vec![1, NIL, 3, 2], 0),
        LinkedList::from_parts(vec![1, NIL, NIL], 0),
    ];
    for (n, seed) in [(10usize, 1u64), (1000, 2), (9000, 3), (3 * 8192 + 5, 4)] {
        lists.push(path_plus_cycles(n, seed));
    }
    for algo in [Algorithm::Match1, Algorithm::Match3] {
        let mut reference: Vec<Matching> = Vec::new();
        for (t, &threads) in THREADS.iter().enumerate() {
            let outs: Vec<Matching> = on_pool(threads, || {
                lists
                    .iter()
                    .map(|list| Runner::new(algo).run(list).into_matching())
                    .collect()
            });
            for (list, m) in lists.iter().zip(&outs) {
                assert!(verify::is_matching(list, m), "{algo} n={}", list.len());
                assert!(verify::is_maximal(list, m), "{algo} n={}", list.len());
            }
            if t == 0 {
                reference = outs;
            } else {
                assert_eq!(reference, outs, "{algo}: thread count {threads} diverged");
            }
        }
    }
}
