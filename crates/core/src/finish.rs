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
//!   oracle [`from_labels`] re-adds in a separate parallel pass. The
//!   production body decides each re-add inside the sublist walk that
//!   ends at the deleted pointer (`walk_sublist`), and both production
//!   drivers — `from_labels_core` for Match1 and Match3, and the fused
//!   batch's per-job finisher — share that walker and the step-3 test
//!   `is_cut`.
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
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

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
/// pointer to delete.
#[inline]
pub(crate) fn is_cut(prev_label: Option<u8>, label_v: u8, label_suc: u8) -> bool {
    prev_label.is_none_or(|p| p > label_v) && label_suc > label_v
}

/// Match1 step 4 for one sublist: walk from its first node `h` and call
/// `mark(v)` for every pointer `<v, suc v>` at an even offset, up to the
/// tail or the closing cut node `v`. There the walker also decides the
/// re-add: `<v, suc v>` joins the matching iff the walk ended on an even
/// offset (so `v` stayed free) and `suc v` is the tail. A cut never
/// follows a cut when adjacent labels are distinct, so any other
/// `suc v` starts a sublist whose first pointer is marked.
///
/// Returns the next sublist's first node (`suc v`), or [`NIL`] when the
/// walk reached the tail.
#[inline]
pub(crate) fn walk_sublist(
    next: &[NodeId],
    cut: &[bool],
    h: NodeId,
    mut mark: impl FnMut(NodeId),
) -> NodeId {
    let mut v = h;
    let mut even = true;
    loop {
        let w = next[v as usize];
        if w == NIL {
            return NIL;
        }
        if cut[v as usize] {
            if even && next[w as usize] == NIL {
                mark(v);
            }
            return w;
        }
        if even {
            mark(v);
        }
        even = !even;
        v = w;
    }
}

/// Match1 steps 3–4 as the production pipeline runs them, for Match1
/// and Match3: the labels are the relabel kernel's bytes, the
/// predecessor array is taken precomputed, and the cut mask lives in a
/// caller-provided (workspace) buffer. Two passes: the chunked
/// [`is_cut`] pass, then one [`walk_sublist`] from every locally
/// detectable head (`h` starts a sublist iff `pred[h]` is [`NIL`] or
/// cut). The walker decides the re-adds itself, so its marks land
/// straight in the output mask, which becomes the matching in place.
/// Each pointer belongs to one sublist, so every mark has one writer,
/// and every mark sits on a real pointer by construction. The matching
/// is bit-identical to [`from_labels`], whose separate re-add pass is
/// the oracle for the walker's.
///
/// Once the matching is built, the `finish` span is opened and closed
/// for every observer. An auditing observer (`O::ENABLED`) also gets a
/// sequential replay of the sublist structure left in the cut mask:
/// cut pointers, sublist count, nodes walked (every node lies in
/// exactly one sublist, so this totals `n`), walk marks vs. re-adds
/// (`fixup_additions`: the walker marks a cut node only as a re-add, so
/// these are the matched cut pointers), and the longest
/// sublist audited against the paper's `2·bound − 1` (a sublist has no
/// interior local minimum, so its labels ascend then descend — at most
/// `bound` nodes each way, sharing the peak).
pub(crate) fn from_labels_core<O: Observer>(
    list: &LinkedList,
    labels: &[u8],
    pred: &[NodeId],
    cut: &mut Vec<bool>,
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

    // Step 3: the local-minima cut, chunked over nodes.
    cut.resize(n, false);
    cut.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (i, slot) in chunk.iter_mut().enumerate() {
                let v = base + i;
                *slot = match next[v] {
                    NIL => false,
                    w => {
                        let prev = match pred[v] {
                            NIL => None,
                            u => Some(labels[u as usize]),
                        };
                        is_cut(prev, labels[v], labels[w as usize])
                    }
                };
            }
        });

    // Step 4: walk each sublist from its head, re-adds included.
    let cut: &[bool] = cut;
    let mask: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    (0..n as NodeId)
        .into_par_iter()
        .with_min_len(CHUNK)
        .for_each(|h| {
            let starts = match pred[h as usize] {
                NIL => true,
                u => cut[u as usize],
            };
            if starts {
                walk_sublist(next, cut, h, |v| {
                    mask[v as usize].store(true, Ordering::Relaxed)
                });
            }
        });
    let mask: Vec<bool> = mask.into_iter().map(AtomicBool::into_inner).collect();
    let m = Matching::from_mask_unchecked(list, mask);
    obs.enter("finish");
    if O::ENABLED {
        audit_sublists(list, pred, cut, &m, bound, obs);
    }
    obs.exit();
    m
}

/// The `finish` audit: replay the sublists [`from_labels_core`] walked
/// and record their shape on the open span.
fn audit_sublists<O: Observer>(
    list: &LinkedList,
    pred: &[NodeId],
    cut: &[bool],
    m: &Matching,
    bound: Word,
    obs: &mut O,
) {
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
        loop {
            if cut[v as usize] {
                break;
            }
            match list.next_raw(v) {
                NIL => break,
                w => {
                    len += 1;
                    v = w;
                }
            }
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

/// Zero-allocation, parallel variant of [`greedy_by_sets`] (ascending
/// set order only) that the production pipelines run. Marks only ever
/// land on bucketed pointer tails, so the matching is built without a
/// second validation pass.
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
    sets: &[Word],
    bound: Word,
    done: &mut Vec<AtomicBool>,
    greedy_mask: &mut Vec<AtomicBool>,
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
    reset_bools(greedy_mask, n);
    bucket_nodes.resize_with(n, || AtomicU32::new(NIL));

    let nchunks = n.div_ceil(CHUNK).max(1);
    hist.clear();
    hist.resize(nchunks * b, 0);
    hist.par_chunks_mut(b).enumerate().for_each(|(ci, row)| {
        let lo = ci * CHUNK;
        let hi = ((ci + 1) * CHUNK).min(n);
        for &s in &sets[lo..hi] {
            if s != NO_POINTER {
                row[s as usize] += 1;
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
                    bn[cursors[s as usize]].store((lo + off) as NodeId, Ordering::Relaxed);
                    cursors[s as usize] += 1;
                }
            }
        });

    let done_ref: &[AtomicBool] = done;
    let mask_ref: &[AtomicBool] = greedy_mask;
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
                    mask_ref[v].store(true, Ordering::Relaxed);
                }
            });
    }
    let final_mask: Vec<bool> = (0..n)
        .into_par_iter()
        .with_min_len(CHUNK)
        .map(|v| mask_ref[v].load(Ordering::Relaxed))
        .collect();
    let m = Matching::from_mask_unchecked(list, final_mask);
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
    /// give short sublists, so the walker's tail re-add (a sublist that
    /// leaves its cut node free right before a one-node tail sublist)
    /// occurs many times over, which random lists barely exercise.
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
                        let batch = finish_job(&list, &labels, &mut vec![true; n]);
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
