//! WalkDown1 (Lemma 6) and WalkDown2 (Lemma 7): the processor-scheduling
//! technique of Section 3 — the paper's main contribution.
//!
//! The list's array is viewed as a grid of `x` rows and `y = ⌈n/x⌉`
//! columns, one (virtual) processor per column. Each processor sorts its
//! own column by matching-set number (a *sequential integer sort* — no
//! global sort, which is the whole point). Then:
//!
//! * **WalkDown1** walks all processors down the rows in lockstep and
//!   3-colors every *inter-row* pointer (tail and head in different
//!   rows). While a processor works on `<a,b>` at row `r = row(a)`,
//!   neither neighbor pointer is being worked on: `<pre(a),a>`'s tail
//!   would have to sit in row `r` with its head `a` also in row `r` —
//!   making it intra-row and out of scope — and `<b,suc(b)>`'s tail `b`
//!   is in another row because `<a,b>` is inter-row (Lemma 6).
//! * **WalkDown2** walks the *sorted* columns with the count/index
//!   pipeline: at each step a processor either marks its current element
//!   (when `A[index] = count`) and advances, or idles and increments
//!   `count`. Lemma 7: the processor is in row `r` at step `k` iff
//!   `A[r] = k − r`; hence at any step all processors in one row carry
//!   the same set number (Corollary 2), so the *intra-row* pointers
//!   processed together are a matching and can be 3-colored
//!   independently; and everything completes by step `2x − 2`
//!   (Corollary 1).
//!
//! Both walks color greedily from the palette `{0,1,2}` against the
//! current colors of the two neighbor pointers; since a neighbor is
//! never processed in the same step, the combined result is a proper
//! 3-coloring of *all* pointers — the "minor adjustment … in combining
//! the partitions" the paper alludes to is simply sharing one palette.

use crate::obs::{NoopObserver, Observer};
use crate::partition::{PointerSets, NO_POINTER};
use crate::workspace::CHUNK;
use parmatch_bits::Word;
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

/// Color value meaning "not yet colored".
pub const UNCOLORED: u8 = u8::MAX;

/// The flat per-node arrays a [`Grid`] is built into. A
/// [`crate::Workspace`] loans this storage to `Grid::new_in` and takes
/// it back via `Grid::into_storage`, so repeated grid builds reuse the
/// same allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct GridStorage {
    /// All columns' sorted nodes, column-major: column `c` occupies
    /// slots `[c·x, min((c+1)·x, n))`.
    pub(crate) elems: Vec<NodeId>,
    /// Sort key of `elems[i]` (the concatenated `A` arrays).
    pub(crate) keys: Vec<Word>,
    /// `row_of[v]` = the row node `v` landed in after its column's sort.
    pub(crate) row_of: Vec<u32>,
}

/// The two-dimensional view of the list plus the per-column sort.
///
/// Stored as flat column-major arrays (see `GridStorage`) rather than
/// nested `Vec<Vec<_>>`: one allocation per array, and the per-column
/// sorts become `par_chunks_mut(x)` over the flat pair array.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Rows per column (`x`); also the exclusive bound on sort keys.
    x: usize,
    /// Number of columns (`y` — one virtual processor each).
    cols: usize,
    /// Number of nodes (`elems.len()`; the last column may be ragged).
    n: usize,
    /// See [`GridStorage::elems`].
    elems: Vec<NodeId>,
    /// See [`GridStorage::keys`].
    keys: Vec<Word>,
    /// See [`GridStorage::row_of`].
    row_of: Vec<u32>,
}

impl Grid {
    /// Build the grid: column `c` owns array slots `[c·x, (c+1)·x)`
    /// (the last column may be ragged) and sorts them by the
    /// pointer set number; elements without a pointer (the list tail)
    /// use key `x − 1` so they sort last-ish and the pipeline can pass
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `x < ps.bound()` (set keys must fit below the row
    /// count for Lemma 7's schedule to terminate) or `x == 0`.
    pub fn new(list: &LinkedList, ps: &PointerSets, x: usize) -> Self {
        let mut pairs = Vec::new();
        let mut row_scatter = Vec::new();
        Self::new_in(
            list,
            ps.as_slice(),
            ps.bound(),
            x,
            &mut pairs,
            &mut row_scatter,
            GridStorage::default(),
        )
    }

    /// [`Grid::new`] over raw set values, building into caller-provided
    /// scratch and storage (the zero-allocation production path). The
    /// column sort is `sort_unstable` on `(key, node)` pairs — ties
    /// broken by ascending node id, which reproduces the stable
    /// counting-sort order exactly.
    pub(crate) fn new_in(
        list: &LinkedList,
        sets: &[Word],
        bound: Word,
        x: usize,
        pairs: &mut Vec<(Word, NodeId)>,
        row_scatter: &mut Vec<AtomicU32>,
        mut storage: GridStorage,
    ) -> Self {
        let n = list.len();
        assert!(x > 0, "row count must be positive");
        assert!(
            (x as Word) >= bound,
            "row count {x} smaller than set bound {bound}"
        );
        assert_eq!(sets.len(), n, "set array length mismatch");
        let cols = n.div_ceil(x);

        pairs.resize(n, (0, 0));
        pairs
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let key = match sets[base + i] {
                        NO_POINTER => (x - 1) as Word,
                        s => s,
                    };
                    *slot = (key, (base + i) as NodeId);
                }
            });
        // One chunk of size x = one column: sort them all in parallel.
        pairs.par_chunks_mut(x).for_each(|col| col.sort_unstable());

        storage.elems.resize(n, 0);
        storage.keys.resize(n, 0);
        let pairs_ref: &[(Word, NodeId)] = pairs;
        storage
            .elems
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = pairs_ref[base + i].1;
                }
            });
        storage
            .keys
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = pairs_ref[base + i].0;
                }
            });

        // row_of scatter: slot index i holds row i % x of its column
        // (columns start at multiples of x), every node written once.
        row_scatter.resize_with(n, || AtomicU32::new(0));
        let rs: &[AtomicU32] = row_scatter;
        (0..n).into_par_iter().with_min_len(CHUNK).for_each(|i| {
            rs[pairs_ref[i].1 as usize].store((i % x) as u32, Ordering::Relaxed);
        });
        storage.row_of.resize(n, 0);
        storage
            .row_of
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = rs[base + i].load(Ordering::Relaxed);
                }
            });

        Self {
            x,
            cols,
            n,
            elems: storage.elems,
            keys: storage.keys,
            row_of: storage.row_of,
        }
    }

    /// Dismantle the grid, returning its storage for reuse.
    pub(crate) fn into_storage(self) -> GridStorage {
        GridStorage {
            elems: self.elems,
            keys: self.keys,
            row_of: self.row_of,
        }
    }

    /// Rows per column (`x`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.x
    }

    /// Number of columns (`y`, the processor count of Theorem 1).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row of node `v` after the per-column sorts.
    #[inline]
    pub fn row_of(&self, v: NodeId) -> u32 {
        self.row_of[v as usize]
    }

    /// Is pointer `<a, b>` intra-row (both endpoints in the same row)?
    #[inline]
    pub fn is_intra_row(&self, a: NodeId, b: NodeId) -> bool {
        self.row_of[a as usize] == self.row_of[b as usize]
    }

    /// The sorted key column (`A` array) of column `c` — exposed for the
    /// Lemma 7 experiments.
    #[inline]
    pub fn column_keys(&self, c: usize) -> &[Word] {
        &self.keys[c * self.x..((c + 1) * self.x).min(self.n)]
    }

    /// The sorted node column of column `c`.
    #[inline]
    pub fn column_elems(&self, c: usize) -> &[NodeId] {
        &self.elems[c * self.x..((c + 1) * self.x).min(self.n)]
    }
}

/// Greedily pick the smallest color in `{0,1,2}` different from the
/// current colors of the two neighbor pointers of `<v, head>`.
#[inline]
fn pick_color(
    list: &LinkedList,
    pred: &[NodeId],
    colors: &[AtomicU8],
    v: NodeId,
    head: NodeId,
) -> u8 {
    let left = match pred[v as usize] {
        NIL => UNCOLORED,
        u => colors[u as usize].load(Ordering::Relaxed),
    };
    let right = match list.next_raw(head) {
        NIL => UNCOLORED,
        _ => colors[head as usize].load(Ordering::Relaxed),
    };
    (0..3u8)
        .find(|&c| c != left && c != right)
        .expect("two excluded colors always leave one of three")
}

/// WalkDown1 (Lemma 6): 3-color every **inter-row** pointer in `x`
/// lockstep rounds. Returns the number of rounds executed (= rows).
///
/// `colors` must be sized `n` and is updated in place; entries of
/// pointers this pass does not own are only read. The `walkdown1` span
/// is opened and closed for every observer; an auditing observer also
/// gets the round count audited against Lemma 6's `x` lockstep rounds,
/// the processor-rounds of lockstep work, and the running
/// colored-pointer total.
pub(crate) fn walkdown1<O: Observer>(
    list: &LinkedList,
    grid: &Grid,
    pred: &[NodeId],
    colors: &[AtomicU8],
    obs: &mut O,
) -> usize {
    for r in 0..grid.rows() {
        (0..grid.cols()).into_par_iter().for_each(|c| {
            let col = grid.column_elems(c);
            let Some(&v) = col.get(r) else { return };
            let head = list.next_raw(v);
            if head == NIL || grid.is_intra_row(v, head) {
                return;
            }
            let color = pick_color(list, pred, colors, v, head);
            colors[v as usize].store(color, Ordering::Relaxed);
        });
    }
    let rounds = grid.rows();
    obs.enter("walkdown1");
    if O::ENABLED {
        obs.bounded("rounds", rounds as u64, grid.rows() as u64);
        obs.counter("lockstep_work", rounds as u64 * grid.cols() as u64);
        obs.counter("colored", count_colored(colors));
    }
    obs.exit();
    rounds
}

/// WalkDown2 (Lemma 7): 3-color every **intra-row** pointer with the
/// count/index pipeline in `2x − 1` lockstep steps, keeping the
/// per-column pipeline state in `state`. Returns the number of steps
/// executed.
///
/// The `walkdown2` span is opened and closed for every observer; an
/// auditing observer also gets the step count audited against
/// Corollary 1's `2x − 1` pipeline steps, the lockstep work, and the
/// colored total (now every real pointer).
pub(crate) fn walkdown2<O: Observer>(
    list: &LinkedList,
    grid: &Grid,
    pred: &[NodeId],
    colors: &[AtomicU8],
    state: &mut Vec<(usize, Word)>,
    obs: &mut O,
) -> usize {
    let x = grid.rows();
    let steps = 2 * x - 1;
    // per-column (index, count) pipeline state
    state.clear();
    state.resize(grid.cols(), (0, 0));
    for _k in 0..steps {
        state
            .par_iter_mut()
            .enumerate()
            .for_each(|(c, (index, count))| {
                let col = grid.column_elems(c);
                if *index >= col.len() {
                    return;
                }
                let keys = grid.column_keys(c);
                if keys[*index] == *count {
                    let v = col[*index];
                    *index += 1;
                    let head = list.next_raw(v);
                    if head != NIL && grid.is_intra_row(v, head) {
                        let color = pick_color(list, pred, colors, v, head);
                        colors[v as usize].store(color, Ordering::Relaxed);
                    }
                } else {
                    *count += 1;
                }
            });
    }
    // Corollary 1: every element must have been passed.
    debug_assert!(state
        .iter()
        .enumerate()
        .all(|(c, (index, _))| *index >= grid.column_elems(c).len()));
    obs.enter("walkdown2");
    if O::ENABLED {
        obs.bounded("steps", steps as u64, (2 * x - 1) as u64);
        obs.counter("lockstep_work", steps as u64 * grid.cols() as u64);
        obs.counter("colored", count_colored(colors));
    }
    obs.exit();
    steps
}

/// Pointers colored so far (the walkdown audits' running total).
fn count_colored(colors: &[AtomicU8]) -> u64 {
    colors
        .iter()
        .filter(|a| a.load(Ordering::Relaxed) != UNCOLORED)
        .count() as u64
}

/// Run both walks and return a proper 3-coloring of all pointers as a
/// plain `u8` array (tail slot left [`UNCOLORED`]), plus the total
/// number of lockstep rounds.
pub fn color_pointers(list: &LinkedList, grid: &Grid) -> (Vec<u8>, usize) {
    let pred = list.pred_array();
    let colors: Vec<AtomicU8> = (0..list.len()).map(|_| AtomicU8::new(UNCOLORED)).collect();
    let r1 = walkdown1(list, grid, &pred, &colors, &mut NoopObserver);
    let r2 = walkdown2(
        list,
        grid,
        &pred,
        &colors,
        &mut Vec::new(),
        &mut NoopObserver,
    );
    let colors: Vec<u8> = colors.into_iter().map(AtomicU8::into_inner).collect();
    (colors, r1 + r2)
}

/// Reference single-column simulation of the WalkDown2 pipeline,
/// recording for every row the step at which it was marked. Used by the
/// Lemma 7 experiment and tests: row `r` with key `A[r]` must be marked
/// exactly at step `A[r] + r`.
pub fn walkdown2_schedule(sorted_keys: &[Word]) -> Vec<u64> {
    let x = sorted_keys.len();
    let mut marked_at = vec![u64::MAX; x];
    let (mut index, mut count) = (0usize, 0 as Word);
    let steps = if x == 0 { 0 } else { 2 * x - 1 };
    for k in 0..steps as u64 {
        if index < x {
            if sorted_keys[index] == count {
                marked_at[index] = k;
                index += 1;
            } else {
                count += 1;
            }
        }
    }
    marked_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::pointer_sets;
    use crate::verify;
    use crate::CoinVariant;
    use parmatch_list::{random_list, sequential_list};

    fn grid_for(list: &LinkedList, rounds: u32) -> Grid {
        let ps = pointer_sets(list, rounds, CoinVariant::Msb);
        let x = ps.bound() as usize;
        Grid::new(list, &ps, x)
    }

    #[test]
    fn grid_shape() {
        let list = random_list(1000, 1);
        let ps = pointer_sets(&list, 3, CoinVariant::Msb);
        let x = ps.bound() as usize;
        let g = Grid::new(&list, &ps, x);
        assert_eq!(g.rows(), x);
        assert_eq!(g.cols(), 1000usize.div_ceil(x));
        // every node in exactly one column slot
        let total: usize = (0..g.cols()).map(|c| g.column_elems(c).len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn columns_are_sorted() {
        let list = random_list(4096, 9);
        let g = grid_for(&list, 2);
        for c in 0..g.cols() {
            let keys = g.column_keys(c);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "column {c} unsorted");
            assert!(keys.iter().all(|&k| (k as usize) < g.rows()));
        }
    }

    #[test]
    fn row_of_matches_columns() {
        let list = random_list(777, 3);
        let g = grid_for(&list, 2);
        for c in 0..g.cols() {
            for (r, &v) in g.column_elems(c).iter().enumerate() {
                assert_eq!(g.row_of(v), r as u32);
            }
        }
    }

    #[test]
    fn lemma7_schedule_invariant() {
        // Lemma 7: processor is in row r at step k iff A[r] = k - r.
        for keys in [
            vec![0u64, 0, 1, 2, 5, 5, 6],
            vec![0u64; 8],
            vec![0u64, 1, 2, 3],
            vec![3u64, 3, 3, 3],
        ] {
            let marked = walkdown2_schedule(&keys);
            for (r, &k) in marked.iter().enumerate() {
                assert_ne!(k, u64::MAX, "row {r} never marked (Corollary 1)");
                assert_eq!(k, keys[r] + r as u64, "row {r}");
            }
            // Corollary 1: completes by step 2x-2
            let max_step = *marked.iter().max().unwrap();
            assert!(max_step <= 2 * keys.len() as u64 - 2);
        }
    }

    #[test]
    fn walkdowns_produce_proper_3_coloring() {
        for seed in 0..6 {
            let list = random_list(5000, seed);
            let g = grid_for(&list, 2);
            let (colors, rounds) = color_pointers(&list, &g);
            assert!(verify::coloring_is_proper(&list, &colors, 3), "seed {seed}");
            assert_eq!(rounds, g.rows() + 2 * g.rows() - 1);
        }
    }

    #[test]
    fn coloring_covers_every_pointer() {
        let list = random_list(2048, 12);
        let g = grid_for(&list, 3);
        let (colors, _) = color_pointers(&list, &g);
        for p in list.pointers() {
            assert!(colors[p.tail as usize] < 3, "pointer {:?} uncolored", p);
        }
        let tail = list.tail().unwrap();
        assert_eq!(colors[tail as usize], UNCOLORED);
    }

    #[test]
    fn sequential_layout_all_intra_or_inter_handled() {
        let list = sequential_list(1024);
        let g = grid_for(&list, 1);
        let (colors, _) = color_pointers(&list, &g);
        assert!(verify::coloring_is_proper(&list, &colors, 3));
    }

    #[test]
    fn oversized_row_count_also_works() {
        // x may exceed the set bound (rows padded); the schedule still
        // terminates and colors properly.
        let list = random_list(900, 4);
        let ps = pointer_sets(&list, 2, CoinVariant::Msb);
        let x = ps.bound() as usize + 7;
        let g = Grid::new(&list, &ps, x);
        let (colors, _) = color_pointers(&list, &g);
        assert!(verify::coloring_is_proper(&list, &colors, 3));
    }

    #[test]
    #[should_panic(expected = "smaller than set bound")]
    fn undersized_rows_panic() {
        let list = random_list(100, 1);
        let ps = pointer_sets(&list, 1, CoinVariant::Msb);
        Grid::new(&list, &ps, 2);
    }

    #[test]
    fn empty_schedule() {
        assert!(walkdown2_schedule(&[]).is_empty());
    }

    #[test]
    fn corollary2_same_row_same_key_at_each_step() {
        // Corollary 2: at step k, all processors in the same row have
        // the same A[index] value — replay every column's schedule and
        // group the (step, row) marks.
        let list = random_list(3000, 21);
        let g = grid_for(&list, 2);
        let mut by_step_row: std::collections::HashMap<(u64, usize), Word> =
            std::collections::HashMap::new();
        for c in 0..g.cols() {
            let keys = g.column_keys(c);
            let marked = walkdown2_schedule(keys);
            for (r, &k) in marked.iter().enumerate() {
                let key = keys[r];
                let prev = by_step_row.insert((k, r), key);
                if let Some(p) = prev {
                    assert_eq!(p, key, "step {k} row {r}: keys {p} vs {key}");
                }
            }
        }
    }

    #[test]
    fn simultaneous_intra_row_pointers_are_a_matching() {
        // The safety property behind WalkDown2's parallel coloring: the
        // intra-row pointers processed in one step share no node.
        let list = random_list(4000, 33);
        let g = grid_for(&list, 2);
        let mut by_step: std::collections::HashMap<u64, Vec<(u32, u32)>> =
            std::collections::HashMap::new();
        for c in 0..g.cols() {
            let keys = g.column_keys(c);
            let marked = walkdown2_schedule(keys);
            for (r, &k) in marked.iter().enumerate() {
                let v = g.column_elems(c)[r];
                if let Some(w) = list.next(v) {
                    if g.is_intra_row(v, w) {
                        by_step.entry(k).or_default().push((v, w));
                    }
                }
            }
        }
        for (step, ptrs) in by_step {
            let mut nodes = std::collections::HashSet::new();
            for (a, b) in ptrs {
                assert!(nodes.insert(a), "step {step}: tail {a} shared");
                assert!(nodes.insert(b), "step {step}: head {b} shared");
            }
        }
    }
}
