//! A reusable buffer arena for the native match pipeline.
//!
//! Every native pipeline runs in a `Workspace` (pass one to
//! [`Runner::workspace`](crate::runner::Runner::workspace) to keep it
//! across runs); after the first run on a given list size, subsequent
//! runs are **zero-allocation steady-state** apart from the output
//! matching — every per-node scratch array (labels, successor/predecessor
//! caches, walkdown colors, greedy buckets, grid storage) lives here and
//! is resized (a no-op when the size is unchanged) and refilled in
//! parallel. Neither finisher keeps a mask of its own: the Match1 steps
//! 3–4 walk (Match1, Match3, the fused batch) and the greedy set sweep
//! (Match2, Match4) write their marks straight into the mask that
//! becomes the output matching. The walk's stop-successor array
//! overwrites `next_cyc` once relabel or Match3's jump rounds have read
//! it, and the sweep keys Match4's pointers by the walkdown colors in
//! place.
//!
//! The crate forbids `unsafe`, so buffers that are written by parallel
//! *scatters* (predecessor inversion, walk marks, bucket placement) are
//! atomics written with `Relaxed` ordering: every target slot has a
//! unique writer within a pass (or the write is idempotent), so the
//! results are deterministic and bit-identical to a sequential run. A
//! buffer that only its scatter needs as atomics is stored plain and
//! converted in place for the scatter (`AtomicU32` has `u32`'s layout,
//! so std collects the conversion into the same allocation).

use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};

use crate::table::TupleTable;
use crate::walkdown::{GridStorage, UNCOLORED};
use crate::CoinVariant;

/// Elements per parallel chunk for plain per-node passes: large enough
/// to amortize scheduling, small enough to keep a chunk's working set
/// in L1/L2.
pub(crate) const CHUNK: usize = 1 << 13;

/// Reusable buffers for the native Match1–Match4 pipelines.
///
/// # Examples
///
/// ```
/// use parmatch_core::prelude::*;
/// use parmatch_list::random_list;
///
/// let list = random_list(10_000, 1);
/// let mut ws = Workspace::new();
/// let a = Runner::new(Algorithm::Match1).workspace(&mut ws).run(&list);
/// let b = Runner::new(Algorithm::Match1).workspace(&mut ws).run(&list); // reuses buffers
/// assert_eq!(a.matching(), b.matching());
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Cached cyclic-successor array (branch-free `suc`). Once relabel
    /// (Match1, the fused batch) or the jump rounds (Match3) have read
    /// it, the Match1 steps 3–4 finisher overwrites it with the
    /// stop-successor array its sublist walk runs on.
    pub(crate) next_cyc: Vec<NodeId>,
    /// Predecessor array (`NIL` at the head), filled by one atomic
    /// scatter in [`Workspace::prepare_pred`].
    pub(crate) pred: Vec<NodeId>,
    /// Byte label double buffer A (holds the result after relabel
    /// rounds).
    pub(crate) labels_a: Vec<u8>,
    /// Byte label double buffer B (holds Match3's post-probe labels: its
    /// last jump round gathers from A, or from the windows, and probes
    /// the table straight into B).
    pub(crate) labels_b: Vec<u8>,
    /// Match3 label-window double buffer A: each jump round but the last
    /// stores its concatenated window here, at most 16 bits wide (the
    /// table index is below 32 bits and a stored window is at most half
    /// of it). The first stored round writes A; a later one reads A,
    /// writes B and swaps, so runs of at most two jump rounds (the
    /// default) never size B.
    pub(crate) win_a: Vec<u16>,
    /// Match3 label-window double buffer B.
    pub(crate) win_b: Vec<u16>,
    /// Match3 jump-pointer double buffer A (`nxt[v] = nx[nx[v]]`), which
    /// the round after the one that wrote it jumps from.
    pub(crate) nxt_a: Vec<NodeId>,
    /// Match3 jump-pointer double buffer B.
    pub(crate) nxt_b: Vec<NodeId>,
    /// Greedy sweep DONE array.
    pub(crate) done: Vec<AtomicBool>,
    /// Bucket scatter target (pointer tails grouped by set).
    pub(crate) bucket_nodes: Vec<AtomicU32>,
    /// Per-chunk × per-set histogram / cursor matrix for bucketing.
    pub(crate) hist: Vec<usize>,
    /// Exclusive start offsets of each set's bucket (+ final total).
    pub(crate) set_starts: Vec<usize>,
    /// Walkdown color array ([`UNCOLORED`] at the tail); its bytes are
    /// the set keys of Match4's greedy sweep.
    pub(crate) colors: Vec<AtomicU8>,
    /// WalkDown2 per-column `(index, count)` pipeline state, one byte
    /// each (`x ≤ 255`).
    pub(crate) walk_state: Vec<(u8, u8)>,
    /// Storage loaned to [`crate::walkdown::Grid`] and taken back: the
    /// tiled slots and keys, and the byte `row_of` array that each
    /// column's counting sort writes into its own node window.
    pub(crate) grid_store: GridStorage,
    /// Cached Match3 lookup table, keyed by its build parameters.
    pub(crate) table_cache: Option<((u32, u32, CoinVariant, u32), TupleTable)>,
}

/// Size `v` to `n` slots, all `false` (reused allocations are cleared in
/// parallel; `get_mut` needs no atomic ordering under `&mut`).
pub(crate) fn reset_bools(v: &mut Vec<AtomicBool>, n: usize) {
    v.resize_with(n, || AtomicBool::new(false));
    v.par_iter_mut()
        .with_min_len(CHUNK)
        .for_each(|a| *a.get_mut() = false);
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill `next_cyc` for `list`.
    pub(crate) fn prepare_next_cyc(&mut self, list: &LinkedList) {
        let n = list.len();
        self.next_cyc.resize(n, NIL);
        self.next_cyc
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = list.next_cyclic((base + i) as NodeId);
                }
            });
    }

    /// Fill `pred` for `list` via a parallel atomic scatter
    /// (`pred[next[u]] := u`, unique writers), run on `pred`'s own
    /// allocation viewed as atomics.
    pub(crate) fn prepare_pred(&mut self, list: &LinkedList) {
        let n = list.len();
        self.pred.resize(n, NIL);
        self.pred
            .par_iter_mut()
            .with_min_len(CHUNK)
            .for_each(|p| *p = NIL);
        let pred: Vec<AtomicU32> = mem::take(&mut self.pred)
            .into_iter()
            .map(AtomicU32::new)
            .collect();
        let next = list.next_array();
        (0..n).into_par_iter().with_min_len(CHUNK).for_each(|u| {
            let v = next[u];
            if v != NIL {
                pred[v as usize].store(u as NodeId, Ordering::Relaxed);
            }
        });
        self.pred = pred.into_iter().map(AtomicU32::into_inner).collect();
    }

    /// Fill `next_cyc` for a fused batch: job `j`'s nodes occupy
    /// `offsets[j] .. offsets[j+1]` and its successors are translated
    /// into that window, so the concatenation is a disjoint union of the
    /// jobs' cyclic orders (no pointer crosses a job boundary).
    #[inline]
    pub(crate) fn prepare_batch_next_cyc(&mut self, lists: &[&LinkedList], offsets: &[usize]) {
        let total = *offsets.last().expect("offsets never empty");
        self.next_cyc.resize(total, NIL);
        let mut rest: &mut [NodeId] = &mut self.next_cyc;
        let mut slices = Vec::with_capacity(lists.len());
        for (j, list) in lists.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(offsets[j + 1] - offsets[j]);
            slices.push((offsets[j], *list, head));
            rest = tail;
        }
        slices.into_par_iter().for_each(|(off, list, slot)| {
            for (v, s) in slot.iter_mut().enumerate() {
                *s = off as NodeId + list.next_cyclic(v as NodeId);
            }
        });
    }

    /// Clear every per-node buffer while keeping its allocation (and the
    /// grid storage and Match3 table cache intact). The service layer
    /// calls this when returning an arena to the pool after a job
    /// panicked mid-phase: the next checkout sees empty buffers, and
    /// every `prepare_*` pass resizes-and-refills anyway, so a scrubbed
    /// arena behaves exactly like a fresh one at steady-state cost.
    pub fn scrub(&mut self) {
        self.next_cyc.clear();
        self.pred.clear();
        self.labels_a.clear();
        self.labels_b.clear();
        self.win_a.clear();
        self.win_b.clear();
        self.nxt_a.clear();
        self.nxt_b.clear();
        self.done.clear();
        self.bucket_nodes.clear();
        self.hist.clear();
        self.set_starts.clear();
        self.colors.clear();
        self.walk_state.clear();
    }

    /// Reset the walkdown colors to [`UNCOLORED`].
    pub(crate) fn reset_colors(&mut self, n: usize) {
        self.colors.resize_with(n, || AtomicU8::new(UNCOLORED));
        self.colors
            .par_iter_mut()
            .with_min_len(CHUNK)
            .for_each(|a| *a.get_mut() = UNCOLORED);
    }

    /// Make sure `table_cache` holds the Match3 tuple table for the
    /// given parameters, building it on a miss. Steady-state reruns with
    /// the same parameters hit the cache and skip the (expensive)
    /// enumeration entirely.
    pub(crate) fn table_ensure(
        &mut self,
        width: u32,
        window: u32,
        variant: CoinVariant,
        max_bits: u32,
    ) -> Result<(), crate::table::TableError> {
        let key = (width, window, variant, max_bits);
        if !matches!(&self.table_cache, Some((k, _)) if *k == key) {
            let table = TupleTable::build(width, window, variant, max_bits)?;
            self.table_cache = Some((key, table));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, Runner};
    use parmatch_list::random_list;

    /// Bytes the per-node buffers hold (capacity × element size), the
    /// grid storage included and the Match3 table not counted. Every
    /// field is named, so a new buffer must be counted here to compile.
    fn footprint_bytes(ws: &Workspace) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * mem::size_of::<T>()
        }
        let Workspace {
            next_cyc,
            pred,
            labels_a,
            labels_b,
            win_a,
            win_b,
            nxt_a,
            nxt_b,
            done,
            bucket_nodes,
            hist,
            set_starts,
            colors,
            walk_state,
            grid_store,
            table_cache: _,
        } = ws;
        let GridStorage {
            slots,
            keys,
            row_of,
        } = grid_store;
        bytes(next_cyc)
            + bytes(pred)
            + bytes(labels_a)
            + bytes(labels_b)
            + bytes(win_a)
            + bytes(win_b)
            + bytes(nxt_a)
            + bytes(nxt_b)
            + bytes(done)
            + bytes(bucket_nodes)
            + bytes(hist)
            + bytes(set_starts)
            + bytes(colors)
            + bytes(walk_state)
            + bytes(slots)
            + bytes(keys)
            + bytes(row_of)
    }

    #[test]
    fn footprint_per_matcher_is_pinned() {
        // Hundredths of a byte per node after one run on a fresh
        // workspace; the last row runs all four matchers on one. The
        // fractions are the greedy sweep's histogram and bucket bounds,
        // and Match4's walk state and ragged last grid column.
        let n = 1 << 16;
        let list = random_list(n, 1);
        let cases: [(&[Algorithm], usize); 5] = [
            (&[Algorithm::Match1], 1000),
            (&[Algorithm::Match2], 1101),
            (&[Algorithm::Match3], 1600),
            (&[Algorithm::Match4], 3016),
            (&Algorithm::ALL, 3617),
        ];
        for (algos, pinned) in cases {
            let mut ws = Workspace::new();
            for &algo in algos {
                Runner::new(algo).workspace(&mut ws).run(&list);
            }
            assert_eq!(footprint_bytes(&ws) * 100 / n, pinned, "{algos:?}");
        }
    }
}
