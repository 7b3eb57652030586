//! Finishing stages: from a symmetry-broken list to a maximal matching.
//!
//! Two finishers appear in the paper:
//!
//! * **Match1 steps 3–4** ([`from_labels`]): with converged (constant
//!   range) labels, delete the pointer out of every *local minimum*
//!   (step 3: `label[pre(v)] > label[v] and label[v] < label[suc(v)]`),
//!   which cuts the list into constant-length sublists (each sublist's
//!   label sequence has no interior local minimum, so its length is
//!   bounded by twice the label range); then walk down each sublist
//!   adding every other pointer (step 4). A deleted pointer both of
//!   whose endpoints stayed free is then re-added — deleted pointers are
//!   pairwise non-adjacent (two adjacent local minima are impossible),
//!   so the re-adds never conflict; this closes the maximality gap at
//!   sublist boundaries that the paper's prose leaves implicit. The
//!   oracle [`from_labels`] re-adds in a separate parallel pass. Only
//!   the pointer into the tail can be re-added: any other deleted
//!   pointer leads into a sublist whose first pointer is added. So the
//!   production body never cuts the pointer into the tail, and needs no
//!   re-add at all: the walk simply runs on into the tail. It writes
//!   step 3 as a stop-successor array (`stop[v] = suc v`, or [`NIL`] at
//!   a cut node and at the tail), so a walk step gathers one array and
//!   marks by offset parity alone (`walk_step`). Both production
//!   drivers — `from_labels_core` for Match1 and Match3, which walks
//!   several sublists per worker at once so that their cache misses
//!   overlap, and the fused batch's per-job finisher — share that step
//!   function and the step-3 test `is_cut`.
//! * **the greedy set sweep of Match2 step 3** ([`greedy_by_sets`]):
//!   given any matching partition, process the sets one at a time; within
//!   a set, add every pointer whose endpoints are both free — legal in
//!   parallel precisely because a set is a matching.

use crate::matching::Matching;
use crate::obs::Observer;
use crate::partition::{PointerSets, NO_POINTER};
use crate::workspace::{reset_bools, CHUNK};
use parmatch_bits::Word;
use parmatch_list::{cut::walk_sublists, LinkedList, NodeId, NIL};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Match1 step 3: the cut mask. `cut[v]` ⇔ node `v` is a strict local
/// minimum of the label sequence, with the head's missing predecessor
/// treated as `+∞` (so a head that starts an ascent is a minimum), and
/// the comparison at the tail using the tail's outgoing-pointer absence
/// as `+∞` likewise.
pub fn local_min_cuts(list: &LinkedList, labels: &[Word]) -> Vec<bool> {
    assert_eq!(labels.len(), list.len(), "label array length mismatch");
    let pred = list.pred_array();
    (0..list.len() as NodeId)
        .into_par_iter()
        .map(|v| {
            if list.next_raw(v) == NIL {
                return false; // no outgoing pointer to delete
            }
            let lv = labels[v as usize];
            let left_higher = match pred[v as usize] {
                NIL => true,
                u => labels[u as usize] > lv,
            };
            let right_higher = labels[list.next_raw(v) as usize] > lv;
            left_higher && right_higher
        })
        .collect()
}

/// Match1 steps 3–4: cut at local minima, walk the sublists taking even
/// offsets, then re-add coverable deleted pointers. The result is a
/// maximal matching whenever adjacent labels are distinct.
pub fn from_labels(list: &LinkedList, labels: &[Word]) -> Matching {
    let n = list.len();
    if n < 2 {
        return Matching::empty(n);
    }
    let cut = local_min_cuts(list, labels);
    // Step 4: every other pointer of each sublist. Offsets are disjoint
    // per pointer; writes target distinct tails.
    let mask: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    walk_sublists(list, &cut, |tail, _head, offset| {
        if offset % 2 == 0 {
            mask[tail as usize].store(true, Ordering::Relaxed);
        }
    });
    let mut mask: Vec<bool> = mask.into_iter().map(AtomicBool::into_inner).collect();

    // Fix-up: a deleted pointer <v, suc v> whose endpoints both stayed
    // free can (and for maximality must) be added. Deleted pointers are
    // pairwise non-adjacent, so decisions are independent; compute the
    // matched-node mask first, then add.
    let matched_node = {
        let mut mn = vec![false; n];
        for v in 0..n {
            if mask[v] {
                mn[v] = true;
                mn[list.next_raw(v as NodeId) as usize] = true;
            }
        }
        mn
    };
    let additions: Vec<usize> = (0..n)
        .into_par_iter()
        .filter(|&v| {
            cut[v]
                && list.next_raw(v as NodeId) != NIL
                && !matched_node[v]
                && !matched_node[list.next_raw(v as NodeId) as usize]
        })
        .collect();
    for v in additions {
        mask[v] = true;
    }
    Matching::from_mask(list, mask)
}

/// Match1 step 3's local-minimum test on byte labels: is `v` a strict
/// local minimum, given its predecessor's label (`None` when `v` has no
/// predecessor, read as `+∞`), its own label and its successor's?
/// Callers ask only about nodes with a successor: the tail has no
/// pointer to delete. The production drivers keep a cut pointer that
/// leads into the tail (see [`walk_step`]).
#[inline]
pub(crate) fn is_cut(prev_label: Option<u8>, label_v: u8, label_suc: u8) -> bool {
    prev_label.is_none_or(|p| p > label_v) && label_suc > label_v
}

/// Sublist walks each worker advances round-robin in
/// [`walk_sublists_lanes`], so that their cache misses overlap.
const LANES: usize = 4;

/// Match1 step 4, one node of a sublist walk over the stop-successor
/// array (`stop[v] = suc v`, or [`NIL`] when `v` is a cut node or the
/// tail): store `<v, suc v>`'s mark through `set` and return `stop[v]`,
/// the walk's next node ([`NIL`] when `v` closes its sublist). `even`
/// is `v`'s offset parity within the sublist. A node is marked iff its
/// offset is even and it does not close its sublist.
///
/// There is no re-add, because the pointer into the tail is never cut:
/// a walk that reaches the closing node `v` of the paper's sublist
/// before the tail goes on into the tail at `v`'s parity. So `v` is
/// marked exactly when the oracle's re-add of `<v, tail>` fires (the
/// walk ended on an even offset, so `v` stayed free), and the tail,
/// which has no pointer, is never marked. A cut never follows a cut
/// when adjacent labels are distinct, so any other cut pointer leads
/// into a sublist whose first pointer is marked. Every node lies in
/// exactly one sublist, so every node gets exactly one store.
#[inline(always)]
fn walk_step(stop: &[NodeId], v: NodeId, even: bool, set: &mut impl FnMut(NodeId, bool)) -> NodeId {
    let s = stop[v as usize];
    set(v, even && s != NIL);
    s
}

/// Walk one sublist to its end from node `v` at offset parity `even`
/// ([`walk_step`] by [`walk_step`]) and return its closing node.
#[inline]
pub(crate) fn walk_sublist(
    stop: &[NodeId],
    mut v: NodeId,
    mut even: bool,
    set: &mut impl FnMut(NodeId, bool),
) -> NodeId {
    loop {
        match walk_step(stop, v, even, set) {
            NIL => return v,
            s => {
                v = s;
                even = !even;
            }
        }
    }
}

/// Walk every sublist that starts in a scan of `scan` (see
/// [`SublistStarts`]), [`LANES`] walks at a time: each live walk takes
/// one [`walk_step`] per round, and a walk that closes its sublist takes
/// over the next start. Once the scan has no start left, the live walks
/// finish one at a time (a round over mostly idle lanes would cost more
/// than it overlaps).
fn walk_sublists_lanes(
    stop: &[NodeId],
    next: &[NodeId],
    pred: &[NodeId],
    scan: Range<usize>,
    set: &mut impl FnMut(NodeId, bool),
) {
    let mut starts = SublistStarts {
        stop,
        next,
        pred,
        scan,
        buf: [NIL; 2 * SCAN],
        len: 0,
        pos: 0,
    };
    let mut cur = [NIL; LANES];
    let mut even = [true; LANES];
    for (slot, h) in cur.iter_mut().zip(&mut starts) {
        *slot = h;
    }
    // Lanes fill in order: with fewer starts than lanes the last one
    // stays empty, and the drain below walks the rest.
    'rounds: while cur[LANES - 1] != NIL {
        for i in 0..LANES {
            match walk_step(stop, cur[i], even[i], set) {
                NIL => match starts.next() {
                    Some(h) => {
                        cur[i] = h;
                        even[i] = true;
                    }
                    None => {
                        cur[i] = NIL;
                        break 'rounds;
                    }
                },
                s => {
                    cur[i] = s;
                    even[i] = !even[i];
                }
            }
        }
    }
    for (&v, &e) in cur.iter().zip(&even) {
        if v != NIL {
            walk_sublist(stop, v, e, set);
        }
    }
}

/// Nodes [`SublistStarts`] scans per refill of its buffer.
const SCAN: usize = 64;

/// The first nodes of the sublists that begin in a scan of a node range:
/// `u` itself when it has no predecessor (the head), and `suc u` when
/// `u` is a cut node (`stop[u]` is [`NIL`] but `next[u]` is not). Every
/// sublist has exactly one of them. The scan reads `pred`, `stop` and
/// `next` in order, [`SCAN`] nodes at a time, and appends the starts to
/// a small buffer without a branch, so a lane that closes its sublist
/// takes its next start with one buffer read.
struct SublistStarts<'a> {
    stop: &'a [NodeId],
    next: &'a [NodeId],
    pred: &'a [NodeId],
    scan: Range<usize>,
    buf: [NodeId; 2 * SCAN],
    len: usize,
    pos: usize,
}

impl SublistStarts<'_> {
    /// Scan on until the buffer holds a start or the range is done;
    /// false when no start is left. Kept out of line: inlined into the
    /// lanes loop, it measured slower on random lists.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        self.pos = 0;
        self.len = 0;
        while self.len == 0 && !self.scan.is_empty() {
            let end = (self.scan.start + SCAN).min(self.scan.end);
            for u in self.scan.start..end {
                self.buf[self.len] = u as NodeId;
                self.len += usize::from(self.pred[u] == NIL);
                let w = self.next[u];
                self.buf[self.len] = w;
                self.len += usize::from(self.stop[u] == NIL && w != NIL);
            }
            self.scan.start = end;
        }
        self.len != 0
    }
}

impl Iterator for SublistStarts<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.pos == self.len && !self.refill() {
            return None;
        }
        self.pos += 1;
        Some(self.buf[self.pos - 1])
    }
}

/// Why locking the cut pass's tail list cannot fail: its holder only
/// pushes a node id.
const TAILS_LOCK: &str = "no holder of the tail list panics";

/// Match1 steps 3–4 as the production pipeline runs them, for Match1
/// and Match3: the labels are the relabel kernel's bytes, the
/// predecessor array is taken precomputed, and the stop-successor array
/// lives in a caller-provided (workspace) buffer. Two passes:
///
/// * the chunked cut pass streams `v` in order and writes
///   `stop[v] = suc v`, or [`NIL`] when [`is_cut`] deletes `<v, suc v>`
///   or `v` is the tail; it records every tail `t` it meets and then
///   restores `stop[pred t] = t`, so the pointer into a tail is never
///   cut;
/// * the walk pass scans each chunk for its sublist starts and walks
///   them [`LANES`] at a time ([`walk_sublists_lanes`]). Each step
///   gathers only `stop[v]` and marks by parity ([`walk_step`]), so the
///   marks land straight in the output mask, which becomes the matching
///   in place.
///
/// Each node lies in one sublist, so every mask slot has one writer
/// (debug builds count the nodes walked against `n`), and every mark
/// sits on a real pointer by construction. The matching is
/// bit-identical to [`from_labels`], whose separate re-add pass is the
/// oracle for the walk into the tail.
///
/// Once the matching is built, the `finish` span is opened and closed
/// for every observer. An auditing observer (`O::ENABLED`) also gets a
/// sequential replay of the paper's sublists, step 3 recounted from the
/// labels (the pointer into the tail included): cut pointers, sublist
/// count, nodes walked (every node lies in exactly one sublist, so this
/// totals `n`), walk marks vs. re-adds (`fixup_additions`: the matched
/// cut pointers, which the oracle adds in its re-add pass), and the
/// longest sublist audited against the paper's `2·bound − 1` (a sublist
/// has no interior local minimum, so its labels ascend then descend — at
/// most `bound` nodes each way, sharing the peak).
pub(crate) fn from_labels_core<O: Observer>(
    list: &LinkedList,
    labels: &[u8],
    pred: &[NodeId],
    stop: &mut Vec<NodeId>,
    bound: Word,
    obs: &mut O,
) -> Matching {
    let n = list.len();
    if n < 2 {
        return Matching::empty(n);
    }
    assert_eq!(labels.len(), n, "label array length mismatch");
    assert_eq!(pred.len(), n, "pred array length mismatch");
    let next = list.next_array();

    // Step 3: the local-minima cut, as stop successors, chunked over
    // nodes. The pass records the tails it meets, and the pointer into
    // each tail is then restored: the walk runs on into the tail instead
    // of re-adding that pointer. (Testing `next[suc v]` at every cut node
    // instead costs a random gather per cut.)
    stop.resize(n, NIL);
    let tails = Mutex::new(Vec::new());
    stop.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (i, slot) in chunk.iter_mut().enumerate() {
                let v = base + i;
                *slot = match next[v] {
                    NIL => {
                        tails.lock().expect(TAILS_LOCK).push(v as NodeId);
                        NIL
                    }
                    w => {
                        let prev = match pred[v] {
                            NIL => None,
                            u => Some(labels[u as usize]),
                        };
                        if is_cut(prev, labels[v], labels[w as usize]) {
                            NIL
                        } else {
                            w
                        }
                    }
                };
            }
        });
    for t in tails.into_inner().expect(TAILS_LOCK) {
        let u = pred[t as usize];
        if u != NIL {
            stop[u as usize] = t;
        }
    }

    // Step 4: walk the sublists that start in each chunk.
    let stop: &[NodeId] = stop;
    let mask: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let walked = AtomicUsize::new(0);
    (0..n.div_ceil(CHUNK)).into_par_iter().for_each(|ci| {
        let lo = ci * CHUNK;
        let mut nodes = 0usize;
        walk_sublists_lanes(stop, next, pred, lo..(lo + CHUNK).min(n), &mut |v, bit| {
            mask[v as usize].store(bit, Ordering::Relaxed);
            nodes += 1;
        });
        if cfg!(debug_assertions) {
            walked.fetch_add(nodes, Ordering::Relaxed);
        }
    });
    debug_assert_eq!(
        walked.into_inner(),
        n,
        "every node lies in exactly one sublist"
    );
    let mask: Vec<bool> = mask.into_iter().map(AtomicBool::into_inner).collect();
    let m = Matching::from_mask_unchecked(list, mask);
    obs.enter("finish");
    if O::ENABLED {
        audit_sublists(list, labels, pred, &m, bound, obs);
    }
    obs.exit();
    m
}

/// The `finish` audit: replay the paper's sublists and record their
/// shape on the open span. Step 3 is recounted from the labels with
/// [`is_cut`], so a cut pointer into the tail, which the walk keeps,
/// counts as a cut and its match as a re-add.
fn audit_sublists<O: Observer>(
    list: &LinkedList,
    labels: &[u8],
    pred: &[NodeId],
    m: &Matching,
    bound: Word,
    obs: &mut O,
) {
    let next = list.next_array();
    let cut: Vec<bool> = (0..list.len())
        .into_par_iter()
        .with_min_len(CHUNK)
        .map(|v| match next[v] {
            NIL => false,
            w => {
                let prev = match pred[v] {
                    NIL => None,
                    u => Some(labels[u as usize]),
                };
                is_cut(prev, labels[v], labels[w as usize])
            }
        })
        .collect();
    let cut_pointers = cut.iter().filter(|&&c| c).count() as u64;
    let readds = (0..list.len() as NodeId)
        .filter(|&v| cut[v as usize] && m.contains_tail(v))
        .count() as u64;
    let mut sublists = 0u64;
    let mut walk_nodes = 0u64;
    let mut max_sublist = 0u64;
    for h in 0..list.len() as NodeId {
        let starts = match pred[h as usize] {
            NIL => true,
            u => cut[u as usize],
        };
        if !starts {
            continue;
        }
        sublists += 1;
        let mut v = h;
        let mut len = 1u64;
        while !cut[v as usize] && next[v as usize] != NIL {
            len += 1;
            v = next[v as usize];
        }
        walk_nodes += len;
        max_sublist = max_sublist.max(len);
    }
    obs.counter("cut_pointers", cut_pointers);
    obs.counter("sublists", sublists);
    obs.counter("walk_nodes", walk_nodes);
    obs.bounded("max_sublist_nodes", max_sublist, 2 * bound - 1);
    obs.counter("walk_marks", m.len() as u64 - readds);
    obs.counter("fixup_additions", readds);
    obs.counter("matched", m.len() as u64);
}

/// Parallel variant of [`greedy_by_sets`] (ascending set order only)
/// that the production pipelines run, keyed by byte set numbers (`sets[v]`
/// is the set of `<v, suc v>`, [`NO_POINTER`] at the tail). Its only
/// allocation is the output mask: the sweep marks it as atomics, and it
/// becomes the matching in place. Marks only ever land on bucketed
/// pointer tails, so the matching is built without a validation pass.
///
/// Bucketing is a chunked counting sort: a per-chunk × per-set histogram,
/// a (tiny, `chunks × bound`) sequential prefix pass turning counts into
/// cursors, and a parallel placement scatter — nodes land grouped by set,
/// ascending within each set, exactly as [`greedy_by_sets`] buckets them.
/// The sweep then processes sets in ascending order; within one set the
/// pointers are node-disjoint (a set is a matching), so the parallel
/// adds touch disjoint `done` slots and the result is bit-identical to
/// the sequential sweep.
///
/// Once the matching is built, the `sweep` span is opened and closed for
/// every observer; an auditing observer also gets the set count, the
/// bucketed pointer total (= the counting sort's scatter writes, read
/// off the bucket boundaries left in `set_starts`), and the matching
/// size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn greedy_core<O: Observer>(
    list: &LinkedList,
    sets: &[u8],
    bound: Word,
    done: &mut Vec<AtomicBool>,
    bucket_nodes: &mut Vec<AtomicU32>,
    hist: &mut Vec<usize>,
    set_starts: &mut Vec<usize>,
    obs: &mut O,
) -> Matching {
    let n = list.len();
    assert_eq!(sets.len(), n, "set array length mismatch");
    let b = bound as usize;
    assert!(b >= 1, "set bound must be positive");
    reset_bools(done, n);
    bucket_nodes.resize_with(n, || AtomicU32::new(NIL));

    let nchunks = n.div_ceil(CHUNK).max(1);
    hist.clear();
    hist.resize(nchunks * b, 0);
    hist.par_chunks_mut(b).enumerate().for_each(|(ci, row)| {
        let lo = ci * CHUNK;
        let hi = ((ci + 1) * CHUNK).min(n);
        for &s in &sets[lo..hi] {
            if s != NO_POINTER {
                row[usize::from(s)] += 1;
            }
        }
    });

    // Exclusive prefix in (set, chunk) order: afterwards hist[ci][s] is
    // chunk ci's write cursor for set s, and set_starts[s] the bucket
    // boundary.
    set_starts.clear();
    set_starts.resize(b + 1, 0);
    let mut acc = 0usize;
    for s in 0..b {
        set_starts[s] = acc;
        for ci in 0..nchunks {
            let c = hist[ci * b + s];
            hist[ci * b + s] = acc;
            acc += c;
        }
    }
    set_starts[b] = acc;

    let bn: &[AtomicU32] = bucket_nodes;
    hist.par_chunks_mut(b)
        .enumerate()
        .for_each(|(ci, cursors)| {
            let lo = ci * CHUNK;
            let hi = ((ci + 1) * CHUNK).min(n);
            for (off, &s) in sets[lo..hi].iter().enumerate() {
                if s != NO_POINTER {
                    let s = usize::from(s);
                    bn[cursors[s]].store((lo + off) as NodeId, Ordering::Relaxed);
                    cursors[s] += 1;
                }
            }
        });

    let done_ref: &[AtomicBool] = done;
    let mask: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    for s in 0..b {
        bucket_nodes[set_starts[s]..set_starts[s + 1]]
            .par_iter()
            .with_min_len(CHUNK)
            .for_each(|slot| {
                let v = slot.load(Ordering::Relaxed) as usize;
                let head = list.next_raw(v as NodeId) as usize;
                if !done_ref[v].load(Ordering::Relaxed) && !done_ref[head].load(Ordering::Relaxed) {
                    done_ref[v].store(true, Ordering::Relaxed);
                    done_ref[head].store(true, Ordering::Relaxed);
                    mask[v].store(true, Ordering::Relaxed);
                }
            });
    }
    let mask: Vec<bool> = mask.into_iter().map(AtomicBool::into_inner).collect();
    let m = Matching::from_mask_unchecked(list, mask);
    obs.enter("sweep");
    if O::ENABLED {
        let bucketed = set_starts[b] as u64;
        obs.counter("sets", bound);
        obs.counter("bucketed_pointers", bucketed);
        obs.counter("scatter_writes", bucketed);
        obs.counter("matched", m.len() as u64);
    }
    obs.exit();
    m
}

/// Match2 step 3: sweep the matching sets in increasing set number;
/// within a set add every pointer whose endpoints are both still free.
///
/// `order` optionally supplies the processing order of set numbers
/// (defaults to ascending); the experiments use this to show the result
/// is maximal regardless of order.
pub fn greedy_by_sets(list: &LinkedList, ps: &PointerSets, order: Option<&[Word]>) -> Matching {
    let n = list.len();
    let mut mask = vec![false; n];
    let mut done = vec![false; n];

    // Bucket pointer tails by set number once (the "sort" of step 2 in
    // its native form).
    let bound = ps.bound() as usize;
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); bound];
    for v in 0..n as NodeId {
        let s = ps.set_of(v);
        if s != NO_POINTER {
            buckets[s as usize].push(v);
        }
    }

    let default_order: Vec<Word> = (0..bound as Word).collect();
    let order = order.unwrap_or(&default_order);
    assert_eq!(order.len(), bound, "order must cover every set number");

    for &s in order {
        // Within one matching set pointers are node-disjoint: the
        // adds below cannot conflict, so this loop body is exactly the
        // "for all pointers in matching set k do in parallel" of the
        // paper (executed here as a sequential scan over the bucket —
        // the PRAM version in `pram_impl` runs it as parallel steps).
        for &v in &buckets[s as usize] {
            let head = list.next_raw(v) as usize;
            if !done[v as usize] && !done[head] {
                done[v as usize] = true;
                done[head] = true;
                mask[v as usize] = true;
            }
        }
    }
    Matching::from_mask(list, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelSeq;
    use crate::partition::pointer_sets;
    use crate::verify;
    use crate::CoinVariant;
    use parmatch_list::{random_list, reversed_list, sequential_list};

    #[test]
    fn local_min_cut_positions() {
        // order 0->1->2->3->4, labels 5,1,4,0,2: local minima at nodes
        // 1 (5>1<4) and 3 (4>0<2); head 0 has virtual +inf pred but
        // 5 > 1 fails the right test... head: left=+inf>5 true,
        // right: 1 > 5 false -> not a min.
        let list = sequential_list(5);
        let labels = [5u64, 1, 4, 0, 2];
        let cut = local_min_cuts(&list, &labels);
        assert_eq!(cut, vec![false, true, false, true, false]);
    }

    #[test]
    fn tail_never_cut() {
        let list = sequential_list(4);
        let labels = [3u64, 2, 1, 0]; // strictly decreasing: tail is min
        let cut = local_min_cuts(&list, &labels);
        assert!(!cut[3], "tail has no pointer to delete");
    }

    #[test]
    fn from_labels_is_maximal_on_converged_labels() {
        for seed in 0..5 {
            let list = random_list(2000, seed);
            let l = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
            let m = from_labels(&list, l.labels());
            verify::assert_maximal_matching(&list, &m);
        }
    }

    #[test]
    fn from_labels_after_one_round_is_still_maximal() {
        // The finisher only needs adjacent-distinct labels; with a
        // non-constant range the sublists are longer but the matching is
        // still maximal.
        let list = random_list(3000, 77);
        let l = LabelSeq::initial(&list, CoinVariant::Lsb).relabel(&list);
        let m = from_labels(&list, l.labels());
        verify::assert_maximal_matching(&list, &m);
    }

    #[test]
    fn from_labels_tiny_lists() {
        for n in [0usize, 1] {
            let list = sequential_list(n);
            let m = from_labels(&list, &vec![0; n]);
            assert!(m.is_empty());
        }
        let list = sequential_list(2);
        let m = from_labels(&list, &[0, 1]);
        verify::assert_maximal_matching(&list, &m);
        assert_eq!(m.len(), 1);
    }

    /// Every adjacent-distinct label sequence over `{0, 1, 2, 3}` for
    /// `n = 2..=9`, laid out sequentially and reversed, through both
    /// production drivers — `from_labels_core` and the fused batch's
    /// per-job body — against the oracle, bit for bit. Small alphabets
    /// give short sublists, so the oracle's tail re-add (a sublist that
    /// leaves its cut node free right before a one-node tail sublist,
    /// which the walk reaches by running on into the tail) occurs many
    /// times over, which random lists barely exercise.
    #[test]
    fn walker_drivers_match_oracle_exhaustively() {
        use crate::batch::finish_job;
        use crate::obs::Recorder;
        let mut readds = 0u64;
        for n in 2..=9usize {
            for list in [sequential_list(n), reversed_list(n)] {
                let order = list.order();
                let pred = list.pred_array();
                let mut seq = vec![0u8; n];
                'sequences: loop {
                    if seq.windows(2).all(|w| w[0] != w[1]) {
                        let mut labels = vec![0u8; n];
                        for (&v, &l) in order.iter().zip(&seq) {
                            labels[v as usize] = l;
                        }
                        let wide: Vec<Word> = labels.iter().map(|&l| Word::from(l)).collect();
                        let oracle = from_labels(&list, &wide);
                        let mut rec = Recorder::new();
                        let solo =
                            from_labels_core(&list, &labels, &pred, &mut vec![], 4, &mut rec);
                        let rec = rec.finish();
                        assert!(rec.all_bounds_hold(), "{seq:?}");
                        readds += rec.find("fixup_additions").unwrap_or(0);
                        let batch = finish_job(&list, &labels, &mut vec![NIL; n]);
                        assert_eq!(solo, oracle, "solo driver, labels {seq:?}");
                        assert_eq!(batch, oracle, "batch driver, labels {seq:?}");
                    }
                    // Next sequence in odometer order over {0, 1, 2, 3}.
                    for l in seq.iter_mut() {
                        *l += 1;
                        if *l < 4 {
                            continue 'sequences;
                        }
                        *l = 0;
                    }
                    break;
                }
            }
        }
        assert!(readds > 1000, "tail re-adds exercised {readds} times");
    }

    /// The node order of `random_list(n, seed)` cut into one path and
    /// then cycles of 2 to 65 nodes, returned with its segments (nodes
    /// in list order, and whether the segment closes into a cycle).
    fn path_plus_cycles(n: usize, seed: u64) -> (LinkedList, Vec<(Vec<NodeId>, bool)>) {
        let order = random_list(n, seed).order();
        let mut next = vec![NIL; n];
        let mut segments = Vec::new();
        let mut start = 0;
        while start < n {
            let mut end = (start + 2 + (order[start] as usize * 7 + start) % 64).min(n);
            if n - end < 2 {
                end = n; // no one-node cycle: fold the remainder in
            }
            let seg = order[start..end].to_vec();
            for w in seg.windows(2) {
                next[w[0] as usize] = w[1];
            }
            let cyclic = start > 0;
            if cyclic {
                next[seg[seg.len() - 1] as usize] = seg[0];
            }
            segments.push((seg, cyclic));
            start = end;
        }
        (LinkedList::from_parts(next, order[0]), segments)
    }

    /// Labels over `{0, 1, 2, 3}` drawn by a xorshift stream, distinct
    /// along every pointer of `segments`, the closing pointer of a cycle
    /// included.
    fn adjacent_distinct_labels(n: usize, segments: &[(Vec<NodeId>, bool)], seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut labels = vec![0u8; n];
        for (seg, cyclic) in segments {
            let mut prev = None;
            for (i, &v) in seg.iter().enumerate() {
                let first = (*cyclic && i + 1 == seg.len()).then(|| labels[seg[0] as usize]);
                let l = loop {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let l = (state % 4) as u8;
                    if Some(l) != prev && Some(l) != first {
                        break l;
                    }
                };
                labels[v as usize] = l;
                prev = Some(l);
            }
        }
        labels
    }

    /// Lists of `3·CHUNK + 5` nodes in four layouts — random, blocked,
    /// reversed, and one path plus disjoint cycles — with random
    /// adjacent-distinct labels over `{0, 1, 2, 3}`: short sublists,
    /// every lane refilled hundreds of times within a chunk, and walks
    /// that cross chunk boundaries. (Only the sublist before a one-node
    /// tail sublist can need a re-add, so the exhaustive test above is
    /// the one that exercises the walk into the tail in bulk.) `from_labels_core` must equal
    /// the oracle bit for bit at pools 1, 2 and 8, and its audit must
    /// count every node walked once.
    #[test]
    fn lane_walker_matches_oracle_across_chunks() {
        use crate::obs::{NoopObserver, Recorder};
        use parmatch_list::blocked_list;
        let n = 3 * CHUNK + 5;
        let paths = [
            random_list(n, 3),
            blocked_list(n, 4096, 4),
            reversed_list(n),
        ];
        let cases = paths
            .into_iter()
            .map(|list| {
                let segments = vec![(list.order(), false)];
                (list, segments)
            })
            .chain([path_plus_cycles(n, 5)]);
        for (seed, (list, segments)) in (10u64..).zip(cases) {
            let list = &list;
            let labels = adjacent_distinct_labels(n, &segments, seed);
            let wide: Vec<Word> = labels.iter().map(|&l| Word::from(l)).collect();
            let oracle = from_labels(list, &wide);
            let pred = list.pred_array();
            let mut rec = Recorder::new();
            let audited = from_labels_core(list, &labels, &pred, &mut vec![], 4, &mut rec);
            let rec = rec.finish();
            assert_eq!(audited, oracle, "audited run, seed {seed}");
            assert!(rec.all_bounds_hold(), "seed {seed}");
            assert_eq!(rec.find("walk_nodes"), Some(n as u64), "seed {seed}");
            for threads in [1, 2, 8] {
                let m = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(|| {
                        from_labels_core(list, &labels, &pred, &mut vec![], 4, &mut NoopObserver)
                    });
                assert_eq!(m, oracle, "seed {seed} at {threads} threads");
            }
        }
    }

    #[test]
    fn greedy_by_sets_maximal_any_order() {
        let list = random_list(2500, 13);
        let ps = pointer_sets(&list, 2, CoinVariant::Msb);
        let m_asc = greedy_by_sets(&list, &ps, None);
        verify::assert_maximal_matching(&list, &m_asc);
        let desc: Vec<u64> = (0..ps.bound()).rev().collect();
        let m_desc = greedy_by_sets(&list, &ps, Some(&desc));
        verify::assert_maximal_matching(&list, &m_desc);
    }

    #[test]
    fn greedy_on_reversed_layout() {
        let list = reversed_list(1024);
        let ps = pointer_sets(&list, 1, CoinVariant::Lsb);
        let m = greedy_by_sets(&list, &ps, None);
        verify::assert_maximal_matching(&list, &m);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn greedy_bad_order_panics() {
        let list = sequential_list(8);
        let ps = pointer_sets(&list, 1, CoinVariant::Msb);
        greedy_by_sets(&list, &ps, Some(&[0, 1]));
    }
}
