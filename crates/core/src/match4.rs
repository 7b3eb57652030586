//! Algorithm Match4 (rayon-native form) — the paper's main result.
//!
//! ```text
//! Step 1. partition pointers into log^(i) n matching sets        (iterated f)
//! Step 2. view the array as x = log^(i) n rows × y = n/x columns;
//!         each processor counting-sorts its own column by set number
//! Step 3. WalkDown1: 3-color the inter-row pointers               (Lemma 6)
//! Step 4. WalkDown2: 3-color the intra-row pointers, pipelined    (Lemma 7)
//! Step 5. finish the 3-set partition into a maximal matching
//! ```
//!
//! Total time `O(n·log i/p + log^(i) n + log i)` (Theorem 2); optimal
//! with up to `p = n/log^(i) n` processors for any constant `i`
//! (Theorem 1). The native form fixes `p = y` (one rayon task per
//! column); the step-count form lives in
//! [`pram_impl`](crate::pram_impl).
//!
//! Step 1 here iterates `f` directly (`O(i·n/p)`, the Lemma 3 form).
//! Theorem 2's `log i` refinement would replace it with the Match3 table
//! technique ([`crate::table`]); this pipeline does not plug that in.

use crate::finish::greedy_core;
use crate::labels::relabel_rounds;
use crate::matching::Matching;
use crate::obs::Observer;
use crate::partition::NO_POINTER;
use crate::walkdown::{walkdown1, walkdown2, Grid, UNCOLORED};
use crate::workspace::{Workspace, CHUNK};
use crate::CoinVariant;
use parmatch_bits::{ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;
use std::mem;
use std::sync::atomic::AtomicU8;

// Step 5 keys the greedy sweep by the walkdown colors as they stand.
const _: () = assert!(UNCOLORED == NO_POINTER);

/// Result of a Match4 run with the grid's vital signs.
#[derive(Debug, Clone)]
pub struct Match4Output {
    /// The maximal matching.
    pub matching: Matching,
    /// Rows `x` of the two-dimensional view (= the set-number bound,
    /// `≈ log^(i) n`).
    pub rows: usize,
    /// Columns `y` (= the virtual processor count `n/x` of Theorem 1).
    pub cols: usize,
    /// Distinct matching sets produced by step 1.
    pub distinct_sets: usize,
    /// Lockstep rounds spent in WalkDown1 + WalkDown2 (`3x − 1`).
    pub walk_rounds: usize,
}

/// Match4 with `i` applications of `f` for the step-1 partition, in the
/// buffers of `ws`: byte-label step-1 rounds, the grid built into loaned
/// flat storage, walkdown colors and the greedy sweep in preallocated
/// buffers.
///
/// `obs` sees a `match4` span around the `relabel`, `partition`,
/// `grid`, `walkdown1`, `walkdown2` and `sweep` phases. An auditing
/// observer also gets the distinct-set census audited against the
/// cascade bound, the grid shape (rows `x`, columns `y`, per-column sort
/// work), the walkdown rounds audited against Lemmas 6–7 (`x` and
/// `2x − 1`, combined `3x − 1`), and total work units audited against
/// Theorem 1's `c·n` form.
///
/// # Panics
///
/// Panics if `i == 0`.
pub(crate) fn run<O: Observer>(
    list: &LinkedList,
    i: u32,
    variant: CoinVariant,
    ws: &mut Workspace,
    obs: &mut O,
) -> Match4Output {
    assert!(i >= 1, "partition rounds i must be at least 1");
    let n = list.len();
    if n < 2 {
        return Match4Output {
            matching: Matching::empty(n),
            rows: 0,
            cols: 0,
            distinct_sets: 0,
            walk_rounds: 0,
        };
    }
    ws.prepare_next_cyc(list);
    ws.prepare_pred(list);
    ws.reset_colors(n);
    let Workspace {
        next_cyc,
        pred,
        labels_a,
        labels_b,
        grid_store,
        colors,
        walk_state,
        done,
        bucket_nodes,
        hist,
        set_starts,
        ..
    } = ws;

    // Step 1: the matching partition, as raw per-tail set numbers.
    let next_cyc: &[NodeId] = next_cyc;
    obs.enter("match4");
    if O::ENABLED {
        obs.counter("n", n as u64);
    }
    let bound = relabel_rounds(
        &|u: NodeId| next_cyc[u as usize],
        &[0, n],
        labels_a,
        labels_b,
        i,
        variant,
        obs,
    );
    let labels: &[u8] = labels_a;

    // Distinct sets of the step-1 partition (diagnostic): per-chunk
    // bitmasks over the byte labels of every pointer tail, in the
    // histogram scratch.
    let nchunks = n.div_ceil(CHUNK).max(1);
    hist.clear();
    hist.resize(nchunks * 4, 0);
    hist.par_chunks_mut(4).enumerate().for_each(|(ci, row)| {
        let lo = ci * CHUNK;
        for (v, &k) in (lo..).zip(&labels[lo..(lo + CHUNK).min(n)]) {
            if list.next_raw(v as NodeId) != NIL {
                row[usize::from(k >> 6)] |= 1 << (k & 63);
            }
        }
    });
    let mut seen = [0usize; 4];
    for row in hist.chunks(4) {
        for (q, &word) in row.iter().enumerate() {
            seen[q] |= word;
        }
    }
    let distinct_sets: usize = seen.iter().map(|w| w.count_ones() as usize).sum();
    obs.enter("partition");
    if O::ENABLED {
        obs.bounded("distinct_sets", distinct_sets as u64, bound);
    }
    obs.exit();

    // Steps 2–4: the grid and both walkdowns. The guard hands the grid's
    // flat storage back to the workspace even if a later phase panics
    // (observer-driven cancellation, injected faults), so a poisoned run
    // never leaks the arena's largest buffers.
    let x = bound as usize;
    let guard = GridGuard {
        grid: Some(Grid::new_in(
            list,
            labels,
            bound,
            x,
            pred,
            std::mem::take(grid_store),
        )),
        slot: grid_store,
    };
    let grid = guard.grid.as_ref().expect("grid held until guard drops");
    obs.enter("grid");
    if O::ENABLED {
        obs.counter("rows", x as u64);
        obs.counter("cols", grid.cols() as u64);
        // per-column sort of x keys, y columns in parallel, charged at
        // the comparison-sort bound (the counting sort stays within it)
        obs.counter(
            "sort_work",
            n as u64 * u64::from(ilog2_ceil(x as Word).max(1)),
        );
    }
    obs.exit();
    let r1 = walkdown1(grid, colors, obs);
    let r2 = walkdown2(grid, colors, walk_state, obs);

    // Step 5: the 3 color classes are matching sets; sweep them greedily,
    // keyed by the color bytes themselves (the tail's `UNCOLORED` is
    // `NO_POINTER`). A panic inside the sweep drops the colors'
    // allocation, which the next run's reset regrows.
    let classes: Vec<u8> = mem::take(colors)
        .into_iter()
        .map(AtomicU8::into_inner)
        .collect();
    debug_assert!(crate::verify::coloring_is_proper(list, &classes, 3));
    let matching = greedy_core(list, &classes, 3, done, bucket_nodes, hist, set_starts, obs);
    *colors = classes.into_iter().map(AtomicU8::new).collect();
    let cols = grid.cols();
    if O::ENABLED {
        obs.bounded("walk_rounds", (r1 + r2) as u64, 3 * x as u64 - 1);
        // relabel i·n; grid keying and census n each; grid build 5n +
        // the per-column sorts; walk lockstep work (r1 + r2)·y; greedy
        // histogram n, plus placement and sweep over the bucketed
        // pointers.
        let lx = u64::from(ilog2_ceil(x as Word).max(1));
        let bucketed = *set_starts.last().unwrap_or(&0) as u64;
        let wu = n as u64 * (u64::from(i) + 8 + lx) + ((r1 + r2) * cols) as u64 + 2 * bucketed;
        obs.bounded("work_units", wu, (u64::from(i) + 14 + lx) * n as u64 + 256);
        obs.counter("work_per_node_x100", wu * 100 / n as u64);
    }
    obs.exit();
    drop(guard); // returns the grid storage to the workspace
    Match4Output {
        matching,
        rows: x,
        cols,
        distinct_sets,
        walk_rounds: r1 + r2,
    }
}

/// Owns the [`Grid`] during steps 2–4 and returns its flat storage to
/// the workspace slot on drop — including the unwind path, so an arena
/// checked out by a job that panics mid-walkdown stays fully reusable.
struct GridGuard<'a> {
    grid: Option<Grid>,
    slot: &'a mut crate::walkdown::GridStorage,
}

impl Drop for GridGuard<'_> {
    fn drop(&mut self) {
        if let Some(grid) = self.grid.take() {
            *self.slot = grid.into_storage();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, Runner};
    use crate::verify;
    use parmatch_list::{blocked_list, random_list, reversed_list, sequential_list};

    fn match4_with(list: &LinkedList, i: u32, variant: CoinVariant) -> Match4Output {
        let out = Runner::new(Algorithm::Match4)
            .levels(i)
            .variant(variant)
            .run(list);
        out.as_match4().expect("match4 outcome").clone()
    }

    fn match4(list: &LinkedList, i: u32) -> Match4Output {
        match4_with(list, i, CoinVariant::Msb)
    }

    #[test]
    fn maximal_for_each_i() {
        let list = random_list(1 << 13, 2);
        for i in 1..=5 {
            let out = match4(&list, i);
            verify::assert_maximal_matching(&list, &out.matching);
            assert_eq!(out.walk_rounds, 3 * out.rows - 1);
            assert_eq!(out.cols, list.len().div_ceil(out.rows));
        }
    }

    #[test]
    fn rows_shrink_with_i() {
        let list = random_list(1 << 16, 3);
        let r1 = match4(&list, 1).rows; // ~2 log n
        let r2 = match4(&list, 2).rows; // ~2 log log n
        let r3 = match4(&list, 3).rows;
        assert!(r1 > r2, "r1={r1} r2={r2}");
        assert!(r2 >= r3, "r2={r2} r3={r3}");
        assert_eq!(r1, 2 * 16 + 1);
    }

    #[test]
    fn both_variants() {
        let list = random_list(6000, 8);
        for v in [CoinVariant::Msb, CoinVariant::Lsb] {
            let out = match4_with(&list, 2, v);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn structured_layouts() {
        for list in [
            sequential_list(3000),
            reversed_list(2048),
            blocked_list(4097, 32, 5),
        ] {
            let out = match4(&list, 2);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out = match4(&sequential_list(n), 2);
            assert!(out.matching.is_empty());
        }
        for n in [2usize, 3, 4, 5] {
            let list = random_list(n, 9);
            let out = match4(&list, 1);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn deterministic() {
        let list = random_list(10_000, 17);
        assert_eq!(match4(&list, 2).matching, match4(&list, 2).matching);
    }

    #[test]
    fn matches_quality_of_match2() {
        // Both are maximal; sizes must both be in [P/3, P/2] — check the
        // band rather than equality.
        let list = random_list(50_000, 1);
        let m4 = match4(&list, 2).matching.len();
        let p = list.pointer_count();
        assert!(m4 * 3 >= p && m4 * 2 <= p + 1, "m4={m4} p={p}");
    }
}
