//! Fused batch execution: many small Match1 jobs as **one** sweep.
//!
//! A service handling thousands of small-list match requests pays the
//! per-job pipeline overhead (pass setup, parallel-chunk scheduling,
//! buffer touches) once *per job* — at a few dozen nodes per list that
//! overhead dominates the actual coin tossing. This module coalesces
//! jobs into a single concatenated arena: every job's nodes are laid
//! out at an offset, the cyclic-successor array maps each job's tail
//! back to *its own* head, and one `relabel_rounds` sweep relabels
//! the whole concatenation. The finisher then runs per job on its label
//! slice, in one parallel pass over jobs: a list-order cut traversal (no
//! pred inversion) that writes the job's stop successors into its own
//! window of the (by then dead) cyclic-successor array, and a chain of
//! sublist walks from the job's head, through the step-3 test and the
//! step-4 step function that solo runs use (`finish::is_cut`,
//! `finish::walk_step`).
//!
//! **Bit identity.** A job's first round reads its *local* addresses
//! (`v − off` for node `v` at offset `off`), its successors never leave
//! `[off, off+n)`, and the coin-tossing widths depend only on the bound
//! cascade — so a fused job's labels evolve exactly as they would solo,
//! provided every job in the batch shares the cascade parameters. That
//! is the [`BatchKey`]: initial width class `⌈log₂ n⌉`, convergence round
//! count, and coin variant. (Width class alone is not enough: `n = 9`
//! converges in 0 rounds while `n = 16` needs 1, though both have width
//! 4.) The `fused_batch_matches_solo_runs` test pins the identity
//! against per-job [`Runner`](crate::runner::Runner) runs.

use crate::finish::{is_cut, walk_sublist};
use crate::labels::{convergence_rounds, relabel_rounds};
use crate::match1::Match1Output;
use crate::matching::Matching;
use crate::obs::NoopObserver;
use crate::workspace::Workspace;
use crate::CoinVariant;
use parmatch_bits::{cascade_bound, ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;

/// Grouping key under which Match1 jobs fuse bit-identically: jobs with
/// equal keys share every width of the coin-tossing cascade and the
/// round count, so one fused sweep reproduces each solo run exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    width: u32,
    rounds: u32,
    variant: CoinVariant,
}

impl BatchKey {
    /// The key for a Match1 job on a list of `n` nodes, or `None` when
    /// the job is not batchable (`n < 2` — no pointers to match).
    pub fn of(n: usize, variant: CoinVariant) -> Option<BatchKey> {
        if n < 2 {
            return None;
        }
        Some(BatchKey {
            width: ilog2_ceil(n as Word).max(1),
            rounds: convergence_rounds(n as Word),
            variant,
        })
    }

    /// Relabel rounds every job with this key runs.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// Offsets of a fused batch: job `j`'s nodes occupy
/// `offsets[j] .. offsets[j+1]` of the concatenated arena.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    key: BatchKey,
    offsets: Vec<usize>,
}

impl BatchPlan {
    /// Plan a fused run over `lists`. Returns `None` when the batch is
    /// empty, any list is too small to batch, or the lists do not all
    /// share one [`BatchKey`] — callers group by key first.
    pub fn new(lists: &[&LinkedList], variant: CoinVariant) -> Option<BatchPlan> {
        let key = BatchKey::of(lists.first()?.len(), variant)?;
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for list in lists {
            if BatchKey::of(list.len(), variant)? != key {
                return None;
            }
            acc += list.len();
            offsets.push(acc);
        }
        // NodeId arithmetic must not wrap in the concatenated arena.
        u32::try_from(acc).ok()?;
        Some(BatchPlan { key, offsets })
    }

    /// The shared batch key.
    pub fn key(&self) -> BatchKey {
        self.key
    }

    /// Number of jobs in the batch.
    pub fn jobs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total nodes across all jobs (the concatenated arena size).
    pub fn total_nodes(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Job boundary offsets (`jobs() + 1` entries, starting at 0).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Run Match1 on every job of a fused batch with **one** relabel sweep
/// over the concatenated arena, finishing each job on its label slice.
/// Outputs are bit-identical to per-job [`Runner`](crate::runner::Runner)
/// runs (matching, round count, and final bound alike); buffers live in
/// `ws`, so a steady-state rerun of equal total size allocates nothing.
///
/// # Panics
///
/// Panics if `lists` does not match the `plan` (wrong job count or
/// sizes).
pub fn match1_batch_in(
    lists: &[&LinkedList],
    plan: &BatchPlan,
    ws: &mut Workspace,
) -> Vec<Match1Output> {
    assert_eq!(lists.len(), plan.jobs(), "plan/job count mismatch");
    ws.prepare_batch_next_cyc(lists, plan.offsets());

    // One fused sweep over the concatenation, round 1 from each job's
    // local addresses. Any representative of the width class yields the
    // same per-round widths; the kernel takes the first job's size,
    // exactly what its solo run would start from.
    {
        let Workspace {
            next_cyc,
            labels_a,
            labels_b,
            ..
        } = &mut *ws;
        let next_cyc: &[NodeId] = next_cyc;
        relabel_rounds(
            &|u: NodeId| next_cyc[u as usize],
            plan.offsets(),
            labels_a,
            labels_b,
            plan.key.rounds,
            plan.key.variant,
            &mut NoopObserver,
        );
    }

    // Batched finish: one parallel pass whose items are whole *jobs*,
    // not nodes, each finished by `finish_job` on its own label window
    // and its own window of `next_cyc`, which relabel no longer needs
    // and which now takes the job's stop successors. A batch of B small
    // jobs costs one parallel dispatch instead of B × (passes per job).
    let total = plan.total_nodes();
    let rounds = plan.key.rounds;
    let Workspace {
        labels_a, next_cyc, ..
    } = &mut *ws;
    let mut jobs = Vec::with_capacity(lists.len());
    let mut rest = &mut next_cyc[..total];
    for (j, &list) in lists.iter().enumerate() {
        let (off, end) = (plan.offsets[j], plan.offsets[j + 1]);
        assert_eq!(end - off, list.len(), "plan/list size mismatch at {j}");
        let (window, tail) = rest.split_at_mut(end - off);
        rest = tail;
        jobs.push((list, &labels_a[off..end], window));
    }
    jobs.into_par_iter()
        .map(|(list, labels, stop)| Match1Output {
            matching: finish_job(list, labels, stop),
            rounds,
            final_bound: cascade_bound(list.len() as Word, rounds),
        })
        .collect()
}

/// Match1 steps 3–4 for one fused job, on its own label and stop
/// windows (`labels`, `stop` indexed by the job's local node ids).
/// Step 3 is one traversal in list order: the previous node's label
/// *is* the predecessor label [`is_cut`] needs, so there is no pred
/// inversion; it writes `stop[v] = suc v`, or [`NIL`] at a cut node and
/// at the tail, and never cuts the pointer into the tail, so no re-add
/// is needed. Step 4 then chains [`walk_sublist`] from the head: each
/// sublist starts at the successor of the previous one's closing node.
/// The test and the step function are the ones `from_labels_core` runs,
/// so the matching is bit-identical to a solo run.
pub(crate) fn finish_job(list: &LinkedList, labels: &[u8], stop: &mut [NodeId]) -> Matching {
    let next = list.next_array();
    let mut prev = None;
    let mut v = list.head();
    loop {
        let lv = labels[v as usize];
        match next[v as usize] {
            NIL => {
                stop[v as usize] = NIL;
                break;
            }
            w => {
                let cut = is_cut(prev, lv, labels[w as usize]) && next[w as usize] != NIL;
                stop[v as usize] = if cut { NIL } else { w };
                prev = Some(lv);
                v = w;
            }
        }
    }
    let mut mask = vec![false; list.len()];
    let mut h = list.head();
    while h != NIL {
        let last = walk_sublist(stop, h, true, &mut |v, bit| mask[v as usize] = bit);
        h = next[last as usize];
    }
    Matching::from_mask_unchecked(list, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, Runner};
    use crate::verify;
    use parmatch_list::{random_list, sequential_list};

    fn solo(list: &LinkedList, variant: CoinVariant) -> Match1Output {
        let out = Runner::new(Algorithm::Match1).variant(variant).run(list);
        out.as_match1().expect("match1 outcome").clone()
    }

    #[test]
    fn key_splits_width_class_by_rounds() {
        // n = 9 and n = 16 share width 4 but differ in round count —
        // fusing them would change n = 16's labels, so the key must
        // separate them.
        let k9 = BatchKey::of(9, CoinVariant::Msb).unwrap();
        let k16 = BatchKey::of(16, CoinVariant::Msb).unwrap();
        assert_eq!(k9.width, k16.width);
        assert_ne!(k9, k16);
        assert!(BatchKey::of(0, CoinVariant::Msb).is_none());
        assert!(BatchKey::of(1, CoinVariant::Msb).is_none());
        assert_ne!(
            BatchKey::of(64, CoinVariant::Msb),
            BatchKey::of(64, CoinVariant::Lsb)
        );
    }

    #[test]
    fn plan_rejects_mixed_keys_and_tiny_lists() {
        let a = random_list(40, 1);
        let b = random_list(200, 2); // different width class
        let tiny = sequential_list(1);
        assert!(BatchPlan::new(&[], CoinVariant::Msb).is_none());
        assert!(BatchPlan::new(&[&a, &b], CoinVariant::Msb).is_none());
        assert!(BatchPlan::new(&[&a, &tiny], CoinVariant::Msb).is_none());
        let plan = BatchPlan::new(&[&a, &a], CoinVariant::Msb).unwrap();
        assert_eq!(plan.jobs(), 2);
        assert_eq!(plan.total_nodes(), 80);
        assert_eq!(plan.offsets(), &[0, 40, 80]);
    }

    #[test]
    fn fused_batch_matches_solo_runs() {
        // Mixed sizes within one width class (33..=64 all share
        // width 6 / 2 rounds), reused workspace, vs solo runs.
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            let lists: Vec<_> = (0..17u64)
                .map(|s| random_list(33 + (s as usize * 13) % 32, s))
                .collect();
            let refs: Vec<&LinkedList> = lists.iter().collect();
            let plan = BatchPlan::new(&refs, variant).expect("one width class");
            let mut ws = Workspace::new();
            let outs = match1_batch_in(&refs, &plan, &mut ws);
            assert_eq!(outs.len(), lists.len());
            for (list, out) in lists.iter().zip(&outs) {
                let solo = solo(list, variant);
                assert_eq!(out.matching, solo.matching, "n={}", list.len());
                assert_eq!(out.rounds, solo.rounds);
                assert_eq!(out.final_bound, solo.final_bound);
                verify::assert_maximal_matching(list, &out.matching);
            }
        }
    }

    #[test]
    fn jobs_past_offset_256_match_solo_runs() {
        // Round 1 reads each job's local addresses: a job at offset ≥ 256
        // relabels exactly as its solo run, in the zero-round class, a
        // small class and one whose own addresses exceed a byte.
        for (n, jobs) in [(9usize, 40usize), (48, 12), (300, 4)] {
            for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                let lists: Vec<_> = (0..jobs as u64).map(|s| random_list(n, s)).collect();
                let refs: Vec<&LinkedList> = lists.iter().collect();
                let plan = BatchPlan::new(&refs, variant).expect("same size, same key");
                assert!(plan.offsets()[jobs - 1] >= 256, "n = {n}");
                let outs = match1_batch_in(&refs, &plan, &mut Workspace::new());
                for (j, (list, out)) in lists.iter().zip(&outs).enumerate() {
                    let solo = solo(list, variant);
                    assert_eq!(out.matching, solo.matching, "n = {n} job {j} {variant:?}");
                    assert_eq!(out.rounds, solo.rounds);
                    assert_eq!(out.final_bound, solo.final_bound);
                }
            }
        }
    }

    #[test]
    fn batch_of_one_matches_solo() {
        let list = random_list(100, 9);
        let plan = BatchPlan::new(&[&list], CoinVariant::Msb).unwrap();
        let out = match1_batch_in(&[&list], &plan, &mut Workspace::new());
        let solo = solo(&list, CoinVariant::Msb);
        assert_eq!(out[0].matching, solo.matching);
    }

    #[test]
    fn zero_round_class_fuses_too() {
        // n ∈ {8, 9} share width ≤ 4 with 0 convergence rounds? n=8:
        // cascade 8 → 7 shrinks, so rounds ≥ 1; n=9 has rounds 0 — use
        // same-size batches instead for the degenerate-round case.
        let lists: Vec<_> = (0..5u64).map(|s| random_list(9, s)).collect();
        let refs: Vec<&LinkedList> = lists.iter().collect();
        let plan = BatchPlan::new(&refs, CoinVariant::Msb).expect("same size, same key");
        assert_eq!(plan.key().rounds(), 0);
        let outs = match1_batch_in(&refs, &plan, &mut Workspace::new());
        for (list, out) in lists.iter().zip(&outs) {
            let solo = solo(list, CoinVariant::Msb);
            assert_eq!(out.matching, solo.matching);
            assert_eq!(out.final_bound, solo.final_bound);
        }
    }

    #[test]
    fn workspace_reuse_across_batches() {
        let mut ws = Workspace::new();
        for seed in 0..4u64 {
            let lists: Vec<_> = (0..8u64).map(|s| random_list(48, seed * 100 + s)).collect();
            let refs: Vec<&LinkedList> = lists.iter().collect();
            let plan = BatchPlan::new(&refs, CoinVariant::Msb).unwrap();
            let reused = match1_batch_in(&refs, &plan, &mut ws);
            let fresh = match1_batch_in(&refs, &plan, &mut Workspace::new());
            for (a, b) in reused.iter().zip(&fresh) {
                assert_eq!(a.matching, b.matching, "seed {seed}");
            }
        }
    }
}
