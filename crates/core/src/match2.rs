//! Algorithm Match2 (rayon-native form).
//!
//! ```text
//! Step 1. partition pointers into ≤ log^(2) n matching sets
//! Step 2. sort pointers by set number (the global sort the paper
//!         criticizes — here a bucket pass)
//! Step 3. S := ∅; DONE[·] := false
//!         for k := 0 .. sets-1:
//!             for all <a,b> in set k in parallel:
//!                 if !DONE[a] and !DONE[b] { DONE[a,b] := true; S += <a,b> }
//! ```
//!
//! Time `O(n/p + log n)` (Lemma 4) — optimal up to `p = n/log n`
//! processors; the sort step is what stops it scaling further, which is
//! exactly the gap Match4 closes.

use crate::finish::greedy_core;
use crate::labels::relabel_rounds;
use crate::matching::Matching;
use crate::obs::Observer;
use crate::partition::{PointerSets, NO_POINTER};
use crate::workspace::{Workspace, CHUNK};
use crate::CoinVariant;
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;

/// Result of a Match2 run.
#[derive(Debug, Clone)]
pub struct Match2Output {
    /// The maximal matching.
    pub matching: Matching,
    /// The partition used (kept for diagnostics: set counts, histogram).
    pub partition: PointerSets,
}

/// Match2 with `rounds` applications of `f` for step 1 (the paper's
/// `log^(2) n`-set partition corresponds to `rounds = 2`): byte-label
/// relabel rounds, chunked counting-sort bucketing and a per-set parallel
/// sweep, all in the buffers of `ws` (the returned byte partition and
/// matching are the only steady-state allocations).
///
/// `obs` sees a `match2` span around the `relabel` and `sweep` phases.
/// An auditing observer also gets the distinct matching-set count
/// audited against the partition bound (Lemma 2's cascade) and the total
/// work units audited against Lemma 4's `O(n)` form.
///
/// # Panics
///
/// Panics if `rounds == 0`.
pub(crate) fn run<O: Observer>(
    list: &LinkedList,
    rounds: u32,
    variant: CoinVariant,
    ws: &mut Workspace,
    obs: &mut O,
) -> Match2Output {
    assert!(rounds >= 1, "at least one partition round required");
    let n = list.len();
    if n < 2 {
        // No pointer to partition or match.
        return Match2Output {
            matching: Matching::empty(n),
            partition: PointerSets::trivial(n),
        };
    }
    ws.prepare_next_cyc(list);
    let Workspace {
        next_cyc,
        labels_a,
        labels_b,
        done,
        bucket_nodes,
        hist,
        set_starts,
        ..
    } = ws;
    let next_cyc: &[NodeId] = next_cyc;
    obs.enter("match2");
    if O::ENABLED {
        obs.counter("n", n as u64);
    }
    let bound = relabel_rounds(
        &|u: NodeId| next_cyc[u as usize],
        &[0, n],
        labels_a,
        labels_b,
        rounds,
        variant,
        obs,
    );
    let labels: &[u8] = labels_a;
    let set: Vec<u8> = (0..n)
        .into_par_iter()
        .with_min_len(CHUNK)
        .map(|v| {
            if list.next_raw(v as NodeId) == NIL {
                NO_POINTER
            } else {
                labels[v]
            }
        })
        .collect();
    let partition = PointerSets::from_raw(set, bound, rounds);
    if O::ENABLED {
        obs.bounded("distinct_sets", partition.distinct_sets() as u64, bound);
    }
    let matching = greedy_core(
        list,
        partition.as_slice(),
        bound,
        done,
        bucket_nodes,
        hist,
        set_starts,
        obs,
    );
    if O::ENABLED {
        // n per relabel round, set-projection n, greedy histogram n,
        // placement and sweep over the bucketed pointers (≤ n each).
        let bucketed = *set_starts.last().unwrap_or(&0) as u64;
        let wu = n as u64 * (u64::from(rounds) + 2) + 2 * bucketed;
        obs.bounded("work_units", wu, (u64::from(rounds) + 4) * n as u64 + 64);
        obs.counter("work_per_node_x100", wu * 100 / n as u64);
    }
    obs.exit();
    Match2Output {
        matching,
        partition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, Runner};
    use crate::verify;
    use parmatch_list::{random_list, sequential_list, strided_list};

    fn match2(list: &LinkedList, rounds: u32, variant: CoinVariant) -> Match2Output {
        let out = Runner::new(Algorithm::Match2)
            .rounds(rounds)
            .variant(variant)
            .run(list);
        out.as_match2().expect("match2 outcome").clone()
    }

    #[test]
    fn maximal_across_rounds() {
        let list = random_list(1 << 13, 21);
        for rounds in 1..=4 {
            for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                let out = match2(&list, rounds, variant);
                verify::assert_maximal_matching(&list, &out.matching);
                assert!(verify::partition_is_valid(&list, &out.partition));
            }
        }
    }

    #[test]
    fn agrees_with_reference_composition() {
        // match2 == pointer_sets (LabelSeq rounds) + greedy_by_sets (the
        // allocation-per-call reference sweep), bit for bit.
        use crate::finish::greedy_by_sets;
        use crate::partition::pointer_sets;
        for seed in 0..4 {
            let list = random_list(3 * CHUNK + 5, seed);
            for rounds in 1..=3 {
                for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                    let reference = pointer_sets(&list, rounds, variant);
                    let out = match2(&list, rounds, variant);
                    assert_eq!(out.partition, reference, "seed {seed} rounds {rounds}");
                    assert_eq!(
                        out.matching,
                        greedy_by_sets(&list, &reference, None),
                        "seed {seed} rounds {rounds}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_rounds_is_log_log_sets() {
        let list = random_list(1 << 16, 4);
        let out = match2(&list, 2, CoinVariant::Msb);
        // 2 log^(2) 65536 = 8, plus sentinel slack
        assert!(
            out.partition.distinct_sets() <= 11,
            "sets: {}",
            out.partition.distinct_sets()
        );
    }

    #[test]
    fn greedy_matching_is_large() {
        // The set sweep is greedy-by-set, which typically matches close
        // to half the pointers; assert comfortably above the 1/3 floor.
        let list = random_list(100_000, 8);
        let out = match2(&list, 2, CoinVariant::Msb);
        assert!(
            10 * out.matching.len() >= 4 * list.pointer_count(),
            "matched {} of {}",
            out.matching.len(),
            list.pointer_count()
        );
    }

    #[test]
    fn structured_layouts() {
        for list in [sequential_list(999), strided_list(1 << 10, 5)] {
            let out = match2(&list, 2, CoinVariant::Lsb);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn trivial_lists() {
        for n in [0usize, 1] {
            let out = match2(&sequential_list(n), 2, CoinVariant::Msb);
            assert!(out.matching.is_empty());
        }
    }
}
