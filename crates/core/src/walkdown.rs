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
//!
//! # Layout
//!
//! Because the pointers processed in one step are pairwise non-adjacent,
//! the colors do not depend on the order or layout *within* a step —
//! only on which step processes each pointer (row `r` in WalkDown1,
//! step `A[r] + r` in WalkDown2). The native grid uses that freedom to
//! make every lockstep step a scan:
//!
//! * Column `c` owns the nodes `[c·x, (c+1)·x)` and counting-sorts them
//!   by their byte key (ties in ascending node id) in one pass, writing
//!   each node's row into `row_of` — its own node window, so no scatter.
//! * The columns are grouped into tiles of [`TILE`] columns (the last
//!   tile may be narrower), stored row-major inside each tile: row `r`
//!   of a tile is one contiguous run of slots, so a WalkDown1 step
//!   streams its row and a WalkDown2 step touches one tile at a time.
//! * Each slot records `(v, pred[v], next[v])`, so a step never goes
//!   back to the per-node arrays for its own node; it gathers only the
//!   colors of the two neighbor pointers (plus the head's row in
//!   WalkDown1, or the node's own color in WalkDown2, which tells an
//!   uncolored intra-row pointer apart). The ragged last column is padded
//!   with `NIL` slots.

use crate::obs::{NoopObserver, Observer};
use crate::partition::{PointerSets, NO_POINTER};
use parmatch_bits::Word;
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};

/// Color value meaning "not yet colored".
pub const UNCOLORED: u8 = u8::MAX;

/// Columns per grid tile. A tile's slots are stored row-major, so one
/// lockstep step reads `TILE` consecutive slots per tile.
pub const TILE: usize = 2048;

/// One grid slot: a node with its two list neighbors, so the walks read
/// a pointer's tail, head and predecessor from the slot itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    /// The node (`NIL` in a padding slot).
    node: NodeId,
    /// `pred[node]`, `NIL` at the list head.
    pred: NodeId,
    /// `next[node]`, `NIL` at the list tail and in padding slots.
    next: NodeId,
}

impl Slot {
    /// The filler of the ragged last column's unused rows.
    const PAD: Slot = Slot {
        node: NIL,
        pred: NIL,
        next: NIL,
    };
}

/// The flat arrays a [`Grid`] is built into. A [`crate::Workspace`]
/// loans this storage to `Grid::new_in` and takes it back via
/// `Grid::into_storage`, so repeated grid builds reuse the same
/// allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct GridStorage {
    /// Every column's sorted slots in the tiled layout: tile `t` holds
    /// columns `[t·B, t·B + w)` (`B = min(TILE, y)`, `w ≤ B`) and
    /// occupies `[t·B·x, t·B·x + w·x)`, slot `(c, r)` at
    /// `t·B·x + r·w + (c − t·B)`.
    pub(crate) slots: Vec<Slot>,
    /// Sort key of each slot (its column's `A` array), same layout.
    pub(crate) keys: Vec<u8>,
    /// `row_of[v]` = the row node `v` landed in after its column's sort.
    pub(crate) row_of: Vec<u8>,
}

/// The two-dimensional view of the list plus the per-column sort.
///
/// Each column is counting-sorted by its byte key (ties in ascending
/// node id) into `(v, pred[v], next[v])` slot records, tiled row-major
/// in blocks of [`TILE`] columns. Keys and rows are bytes (`x ≤ 255`;
/// step 1's labels stay below `2⌈log₂ n⌉ + 1 ≤ 65`). The layout cannot
/// change the colors, because the pointers one step processes are
/// pairwise non-adjacent — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Grid {
    /// Rows per column (`x`); also the exclusive bound on sort keys.
    x: usize,
    /// Number of columns (`y` — one virtual processor each).
    cols: usize,
    /// Number of nodes (the last column may be ragged).
    n: usize,
    /// Columns per full tile, `min(TILE, cols)`.
    tile_cols: usize,
    /// See [`GridStorage::slots`].
    slots: Vec<Slot>,
    /// See [`GridStorage::keys`].
    keys: Vec<u8>,
    /// See [`GridStorage::row_of`].
    row_of: Vec<u8>,
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
    /// Panics if `x == 0`, if `x > 255` (keys and rows are bytes), or if
    /// `x < ps.bound()` (set keys must fit below the row count for
    /// Lemma 7's schedule to terminate).
    pub fn new(list: &LinkedList, ps: &PointerSets, x: usize) -> Self {
        Self::new_in(
            list,
            ps.as_slice(),
            ps.bound(),
            x,
            &list.pred_array(),
            GridStorage::default(),
        )
    }

    /// [`Grid::new`] keyed by step 1's byte labels (`labels[v]` is the
    /// set of pointer `<v, suc(v)>`; the tail's entry is ignored), built
    /// into loaned storage (the zero-allocation production path). Each
    /// tile's columns are counting-sorted by one task, with ties in
    /// ascending node id.
    ///
    /// # Panics
    ///
    /// As [`Grid::new`], with `bound` in place of `ps.bound()`.
    pub(crate) fn new_in(
        list: &LinkedList,
        labels: &[u8],
        bound: Word,
        x: usize,
        pred: &[NodeId],
        mut storage: GridStorage,
    ) -> Self {
        let n = list.len();
        assert!(x > 0, "row count must be positive");
        assert!(x <= 255, "row count {x} exceeds 255");
        assert!(
            (x as Word) >= bound,
            "row count {x} smaller than set bound {bound}"
        );
        assert_eq!(labels.len(), n, "label array length mismatch");
        let cols = n.div_ceil(x);
        let tile_cols = TILE.min(cols).max(1);
        let span = tile_cols * x;

        storage.slots.resize(cols * x, Slot::PAD);
        storage.keys.resize(cols * x, 0);
        storage.row_of.resize(n, 0);
        let next = list.next_array();
        // One task per tile: its slot and key tiles and its node window
        // of `row_of` are disjoint chunks of the three arrays.
        let tiles: Vec<_> = storage
            .slots
            .chunks_mut(span)
            .zip(storage.keys.chunks_mut(span))
            .zip(storage.row_of.chunks_mut(span))
            .enumerate()
            .collect();
        tiles
            .into_par_iter()
            .for_each(|(t, ((slots, keys), row_of))| {
                let w = slots.len() / x;
                let lo = t * span;
                let mut key = [0u8; 255];
                let mut start = [0usize; 255];
                for j in 0..w {
                    let v0 = lo + j * x;
                    let len = x.min(n - v0);
                    let (key, start) = (&mut key[..len], &mut start[..x]);
                    start.fill(0);
                    for (i, k) in key.iter_mut().enumerate() {
                        let v = v0 + i;
                        *k = if next[v] == NIL {
                            (x - 1) as u8
                        } else {
                            labels[v]
                        };
                        debug_assert!(usize::from(*k) < x, "label {k} not below {x}");
                        start[usize::from(*k)] += 1;
                    }
                    let mut sum = 0;
                    for s in start.iter_mut() {
                        let count = *s;
                        *s = sum;
                        sum += count;
                    }
                    for (i, &k) in key.iter().enumerate() {
                        let v = v0 + i;
                        let r = start[usize::from(k)];
                        start[usize::from(k)] += 1;
                        row_of[v - lo] = r as u8;
                        slots[r * w + j] = Slot {
                            node: v as NodeId,
                            pred: pred[v],
                            next: next[v],
                        };
                        keys[r * w + j] = k;
                    }
                    for r in len..x {
                        slots[r * w + j] = Slot::PAD;
                        keys[r * w + j] = u8::MAX;
                    }
                }
            });

        Self {
            x,
            cols,
            n,
            tile_cols,
            slots: storage.slots,
            keys: storage.keys,
            row_of: storage.row_of,
        }
    }

    /// Dismantle the grid, returning its storage for reuse.
    pub(crate) fn into_storage(self) -> GridStorage {
        GridStorage {
            slots: self.slots,
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
        u32::from(self.row_of[v as usize])
    }

    /// Is pointer `<a, b>` intra-row (both endpoints in the same row)?
    #[inline]
    pub fn is_intra_row(&self, a: NodeId, b: NodeId) -> bool {
        self.row_of[a as usize] == self.row_of[b as usize]
    }

    /// The sorted key column (`A` array) of column `c` — exposed for the
    /// Lemma 7 experiments. Columns are strided in the tiled layout, so
    /// this gathers a copy.
    pub fn column_keys(&self, c: usize) -> Vec<Word> {
        (0..self.column_len(c))
            .map(|r| Word::from(self.keys[self.slot_index(c, r)]))
            .collect()
    }

    /// The sorted node column of column `c` (a gathered copy).
    pub fn column_elems(&self, c: usize) -> Vec<NodeId> {
        (0..self.column_len(c))
            .map(|r| self.slots[self.slot_index(c, r)].node)
            .collect()
    }

    /// Nodes in column `c` (`x`, except for a ragged last column).
    #[inline]
    fn column_len(&self, c: usize) -> usize {
        self.x.min(self.n - c * self.x)
    }

    /// Index of slot `(c, r)` in the tiled layout.
    #[inline]
    fn slot_index(&self, c: usize, r: usize) -> usize {
        let t = c / self.tile_cols;
        let first = t * self.tile_cols;
        let w = self.tile_cols.min(self.cols - first);
        first * self.x + r * w + (c - first)
    }

    /// Tile `t`'s first column and its slots and keys.
    #[inline]
    fn tile(&self, t: usize) -> (usize, &[Slot], &[u8]) {
        let first = t * self.tile_cols;
        let span = first * self.x..(first + self.tile_cols).min(self.cols) * self.x;
        (first, &self.slots[span.clone()], &self.keys[span])
    }

    /// Number of tiles.
    #[inline]
    fn tiles(&self) -> usize {
        self.cols.div_ceil(self.tile_cols)
    }
}

/// Greedily pick the smallest color in `{0,1,2}` different from the
/// current colors of the two neighbor pointers of `s`'s pointer. The
/// head's pointer needs no existence test: the tail is never colored.
#[inline]
fn pick_color(colors: &[AtomicU8], s: Slot) -> u8 {
    let left = match s.pred {
        NIL => UNCOLORED,
        u => colors[u as usize].load(Ordering::Relaxed),
    };
    let right = colors[s.next as usize].load(Ordering::Relaxed);
    (0..3u8)
        .find(|&c| c != left && c != right)
        .expect("two excluded colors always leave one of three")
}

/// WalkDown1 (Lemma 6): 3-color every **inter-row** pointer in `x`
/// lockstep rounds, each a parallel scan of row `r` over the tiles.
/// Returns the number of rounds executed (= rows).
///
/// `colors` must be sized `n` and is updated in place; entries of
/// pointers this pass does not own are only read. The `walkdown1` span
/// is opened and closed for every observer; an auditing observer also
/// gets the round count audited against Lemma 6's `x` lockstep rounds,
/// the processor-rounds of lockstep work, and the running
/// colored-pointer total.
pub(crate) fn walkdown1<O: Observer>(grid: &Grid, colors: &[AtomicU8], obs: &mut O) -> usize {
    for r in 0..grid.rows() {
        (0..grid.tiles()).into_par_iter().for_each(|t| {
            let (_, slots, _) = grid.tile(t);
            let w = slots.len() / grid.rows();
            for &s in &slots[r * w..(r + 1) * w] {
                // padding, the tail, and intra-row pointers are skipped
                if s.next == NIL || usize::from(grid.row_of[s.next as usize]) == r {
                    continue;
                }
                colors[s.node as usize].store(pick_color(colors, s), Ordering::Relaxed);
            }
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
/// per-column `(index, count)` byte pair in `state`. Returns the number
/// of steps executed.
///
/// It runs after [`walkdown1`], which colored every inter-row pointer,
/// so a marked pointer is intra-row exactly when its tail is still
/// [`UNCOLORED`]. The `walkdown2` span is opened and closed for every
/// observer; an auditing observer also gets the step count audited
/// against Corollary 1's `2x − 1` pipeline steps, the lockstep work, and
/// the colored total (now every real pointer).
pub(crate) fn walkdown2<O: Observer>(
    grid: &Grid,
    colors: &[AtomicU8],
    state: &mut Vec<(u8, u8)>,
    obs: &mut O,
) -> usize {
    let x = grid.rows();
    let steps = 2 * x - 1;
    state.clear();
    state.resize(grid.cols(), (0, 0));
    for _k in 0..steps {
        state
            .par_chunks_mut(grid.tile_cols)
            .enumerate()
            .for_each(|(t, state)| {
                let (first, slots, keys) = grid.tile(t);
                let w = state.len();
                for (j, (index, count)) in state.iter_mut().enumerate() {
                    let i = usize::from(*index);
                    if i >= grid.column_len(first + j) {
                        continue;
                    }
                    if keys[i * w + j] == *count {
                        *index += 1;
                        let s = slots[i * w + j];
                        let v = s.node as usize;
                        if s.next != NIL && colors[v].load(Ordering::Relaxed) == UNCOLORED {
                            colors[v].store(pick_color(colors, s), Ordering::Relaxed);
                        }
                    } else {
                        *count += 1;
                    }
                }
            });
    }
    // Corollary 1: every element must have been passed.
    debug_assert!(state
        .iter()
        .enumerate()
        .all(|(c, &(index, _))| usize::from(index) == grid.column_len(c)));
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
    let colors: Vec<AtomicU8> = (0..list.len()).map(|_| AtomicU8::new(UNCOLORED)).collect();
    let r1 = walkdown1(grid, &colors, &mut NoopObserver);
    let r2 = walkdown2(grid, &colors, &mut Vec::new(), &mut NoopObserver);
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

/// Independent oracle for [`color_pointers`] on `Grid::new(list, ps, x)`:
/// sequential, allocating per call, sharing no code with the kernel.
///
/// It stable-sorts each column `[c·x, (c+1)·x)` by set number (the tail
/// keyed `x − 1`), then colors pointers one at a time, greedily from
/// `{0,1,2}` against the current colors of their neighbor pointers, in
/// the order the walks process them: WalkDown1's inter-row pointers row
/// by row (`0..x`), then WalkDown2's intra-row pointers by their step
/// `A[r] + r` (Lemma 7). Within a row or step, columns go left to right.
///
/// # Panics
///
/// Panics if `x == 0` or `x < ps.bound()`.
pub fn color_pointers_reference(list: &LinkedList, ps: &PointerSets, x: usize) -> Vec<u8> {
    assert!(x > 0 && x as Word >= ps.bound(), "row count {x} too small");
    let n = list.len();
    let key = |v: usize| match ps.set_of(v as NodeId) {
        NO_POINTER => (x - 1) as Word,
        s => Word::from(s),
    };
    let columns: Vec<Vec<usize>> = (0..n)
        .step_by(x)
        .map(|lo| {
            let mut col: Vec<usize> = (lo..(lo + x).min(n)).collect();
            col.sort_by_key(|&v| key(v));
            col
        })
        .collect();
    let mut row = vec![0usize; n];
    for col in &columns {
        for (r, &v) in col.iter().enumerate() {
            row[v] = r;
        }
    }
    let mut pred = vec![None; n];
    for v in 0..n {
        if let Some(h) = list.next(v as NodeId) {
            pred[h as usize] = Some(v);
        }
    }

    // Pointer tails in processing order: WalkDown1's inter-row pointers
    // row by row, then WalkDown2's intra-row pointers by step (a column
    // marks one row per step, so the stable sort keeps columns in order).
    let inter_row = |v: usize| list.next(v as NodeId).map(|h| row[h as usize] != row[v]);
    let mut order: Vec<usize> = Vec::new();
    for r in 0..x {
        for col in &columns {
            if let Some(&v) = col.get(r) {
                if inter_row(v) == Some(true) {
                    order.push(v);
                }
            }
        }
    }
    let mut intra: Vec<(Word, usize)> = Vec::new();
    for col in &columns {
        for (r, &v) in col.iter().enumerate() {
            if inter_row(v) == Some(false) {
                intra.push((key(v) + r as Word, v));
            }
        }
    }
    intra.sort_by_key(|&(step, _)| step);
    order.extend(intra.iter().map(|&(_, v)| v));

    let mut colors = vec![UNCOLORED; n];
    for v in order {
        let h = list
            .next(v as NodeId)
            .expect("only pointer tails are queued");
        let left = pred[v].map_or(UNCOLORED, |u| colors[u]);
        let right = match list.next(h) {
            Some(_) => colors[h as usize],
            None => UNCOLORED,
        };
        colors[v] = (0..3u8)
            .find(|&c| c != left && c != right)
            .expect("three colors, two excluded");
    }
    colors
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
    #[should_panic(expected = "row count 256 exceeds 255")]
    fn oversized_rows_panic() {
        let list = random_list(100, 1);
        let ps = pointer_sets(&list, 1, CoinVariant::Msb);
        Grid::new(&list, &ps, 256);
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
            let marked = walkdown2_schedule(&keys);
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
            let elems = g.column_elems(c);
            let marked = walkdown2_schedule(&keys);
            for (r, &k) in marked.iter().enumerate() {
                let v = elems[r];
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
