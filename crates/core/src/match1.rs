//! Algorithm Match1 (rayon-native form).
//!
//! ```text
//! Step 1. label[v] := address of v
//! Step 2. for i := 1 to G(n): label[v] := f(<label[v], label[suc(v)]>)  (all v in parallel)
//! Step 3. delete <v, suc(v)> where label[pre(v)] > label[v] < label[suc(v)]
//! Step 4. walk each (constant-length) sublist, matching every other pointer
//! ```
//!
//! Time `O(n·G(n)/p + G(n))` — the `G(n)` relabel rounds each touch all
//! `n` nodes. Not optimal (Lemma 3), but the building block of
//! everything else.

use crate::finish::from_labels_core;
use crate::labels::{convergence_rounds, relabel_rounds};
use crate::matching::Matching;
use crate::obs::Observer;
use crate::workspace::Workspace;
use crate::CoinVariant;
use parmatch_bits::{g_of, Word};
use parmatch_list::{LinkedList, NodeId};

/// Result of a Match1 run: the matching plus the run's vital signs.
#[derive(Debug, Clone)]
pub struct Match1Output {
    /// The maximal matching.
    pub matching: Matching,
    /// Relabel rounds executed (≈ `G(n)`).
    pub rounds: u32,
    /// Final label bound (the constant the cascade converges to).
    pub final_bound: u64,
}

/// Match1: iterate `f` to convergence (`G(n) + O(1)` rounds), then
/// cut-and-walk, all in the buffers of `ws`. Lists with fewer than 2
/// nodes yield the empty matching.
///
/// `obs` sees a `match1` span around the `relabel` and `finish` phases.
/// An auditing observer also gets the round count audited against
/// Match1 step 2's `G(n) + O(1)` and the total work units audited
/// against the `O(n·G(n))` form of Lemma 3.
pub(crate) fn run<O: Observer>(
    list: &LinkedList,
    variant: CoinVariant,
    ws: &mut Workspace,
    obs: &mut O,
) -> Match1Output {
    let n = list.len();
    if n < 2 {
        return Match1Output {
            matching: Matching::empty(n),
            rounds: 0,
            final_bound: 0,
        };
    }
    ws.prepare_next_cyc(list);
    ws.prepare_pred(list);
    let Workspace {
        next_cyc,
        pred,
        labels_a,
        labels_b,
        ..
    } = ws;
    let rounds = convergence_rounds(n as Word);
    let g = g_of(n as Word);
    obs.enter("match1");
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
    if O::ENABLED {
        obs.bounded("rounds", u64::from(rounds), u64::from(g) + 2);
    }
    // Relabel was `next_cyc`'s last reader: it now takes the finisher's
    // stop successors.
    let matching = from_labels_core(list, labels_a, pred, next_cyc, bound, obs);
    if O::ENABLED {
        // n per relabel round, plus the finisher's two passes (cut,
        // walk).
        let wu = n as u64 * u64::from(rounds) + 2 * n as u64;
        obs.bounded("work_units", wu, (u64::from(g) + 4) * n as u64 + 64);
        obs.counter("work_per_node_x100", wu * 100 / n as u64);
    }
    obs.exit();
    Match1Output {
        matching,
        rounds,
        final_bound: bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, Runner};
    use crate::verify;
    use parmatch_list::{blocked_list, random_list, reversed_list, sequential_list};

    fn match1(list: &LinkedList, variant: CoinVariant) -> Match1Output {
        let out = Runner::new(Algorithm::Match1).variant(variant).run(list);
        out.as_match1().expect("match1 outcome").clone()
    }

    #[test]
    fn maximal_on_random_lists() {
        for seed in 0..8 {
            let list = random_list(1 << 12, seed);
            for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                let out = match1(&list, variant);
                verify::assert_maximal_matching(&list, &out.matching);
                assert!(out.final_bound <= 9, "bound {}", out.final_bound);
            }
        }
    }

    #[test]
    fn maximal_on_structured_layouts() {
        for list in [
            sequential_list(4097),
            reversed_list(4096),
            blocked_list(5000, 64, 3),
        ] {
            let out = match1(&list, CoinVariant::Msb);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn rounds_grow_like_g_of_n() {
        // G is essentially constant; the round count must be tiny at
        // every scale.
        for e in [6u32, 10, 14, 18] {
            let list = random_list(1 << e, 1);
            let out = match1(&list, CoinVariant::Msb);
            assert!(out.rounds <= 6, "n=2^{e}: rounds {}", out.rounds);
        }
    }

    #[test]
    fn trivial_lists() {
        for n in [0usize, 1] {
            let out = match1(&sequential_list(n), CoinVariant::Msb);
            assert!(out.matching.is_empty());
        }
        let list = sequential_list(2);
        let out = match1(&list, CoinVariant::Msb);
        assert_eq!(out.matching.len(), 1);
    }

    #[test]
    fn deterministic() {
        let list = random_list(3000, 5);
        let a = match1(&list, CoinVariant::Msb);
        let b = match1(&list, CoinVariant::Msb);
        assert_eq!(a.matching, b.matching);
    }

    #[test]
    fn workspace_reuse_matches_fresh() {
        // One workspace across different sizes and seeds (grow, shrink,
        // same-size reuse) must give the same result as a fresh one.
        let mut ws = Workspace::new();
        for (n, seed) in [(2000, 1u64), (500, 2), (500, 3), (3001, 4), (2, 5)] {
            let list = random_list(n, seed);
            let reused = Runner::new(Algorithm::Match1).workspace(&mut ws).run(&list);
            let reused = reused.as_match1().unwrap();
            let fresh = match1(&list, CoinVariant::Msb);
            assert_eq!(reused.matching, fresh.matching, "n={n} seed={seed}");
            assert_eq!(reused.rounds, fresh.rounds);
            assert_eq!(reused.final_bound, fresh.final_bound);
        }
    }

    #[test]
    fn agrees_with_reference_composition() {
        // match1 == LabelSeq-to-convergence + from_labels (the
        // allocation-per-round reference path), bit for bit.
        use crate::finish::from_labels;
        use crate::labels::LabelSeq;
        for seed in 0..4 {
            let list = random_list(2500, seed);
            let labels = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
            let reference = from_labels(&list, labels.labels());
            let out = match1(&list, CoinVariant::Msb);
            assert_eq!(out.matching, reference, "seed {seed}");
            assert_eq!(out.rounds, labels.rounds());
            assert_eq!(out.final_bound, labels.bound());
        }
    }
}
