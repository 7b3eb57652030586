//! Exhaustive small-instance sweep: every permutation layout of up to
//! 7 nodes (5,912 lists) through the PRAM matchers (Match3 with one
//! jump round, and with two up to 6 nodes),
//! asserting **bit-identity** with their rayon-native twins — not just
//! maximality. The seed suite's exhaustive test stops at ≤ 6 nodes and
//! only checks maximality; identity on every tiny instance is what
//! pins the PRAM ports to the native tie-breaking exactly.
//!
//! Also sweeps WalkDown2's schedule over every sorted key column of
//! height ≤ 6, checking the Lemma 7 invariant (`marked[r] = A[r] + r`)
//! and the 2x−2 last-step bound exhaustively rather than on spot
//! columns.

use parmatch_core::pram_impl::{match2_pram, match3_pram, match4_pram};
use parmatch_core::prelude::*;
use parmatch_core::walkdown::walkdown2_schedule;
use parmatch_list::{LinkedList, NodeId};
use parmatch_pram::ExecMode;

/// All permutations of `0..n`.
fn permutations(n: usize) -> Vec<Vec<NodeId>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for pos in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(pos, (n - 1) as NodeId);
            out.push(p);
        }
    }
    out
}

#[test]
fn every_list_up_to_7_nodes_pram_equals_native() {
    let lean = Match3Config {
        jump_rounds: Some(1),
        ..Match3Config::default()
    };
    let wide = Match3Config {
        jump_rounds: Some(2),
        ..Match3Config::default()
    };
    let mut checked = 0usize;
    for n in 2..=7usize {
        for perm in permutations(n) {
            let list = LinkedList::from_order(&perm);

            let native2 = Runner::new(Algorithm::Match2).run(&list);
            let pram2 = match2_pram(&list, n, 2, CoinVariant::Msb, ExecMode::Checked)
                .unwrap_or_else(|e| panic!("match2 {perm:?}: {e}"));
            assert_eq!(&pram2.matching, native2.matching(), "match2 on {perm:?}");
            verify::assert_maximal_matching(&list, &pram2.matching);

            // Two jump rounds store one window before the probe; up to 6
            // nodes that window and the probed one wrap past the cycle.
            let match3_configs: &[Match3Config] = if n <= 6 { &[lean, wide] } else { &[lean] };
            for &cfg in match3_configs {
                let native3 = Runner::new(Algorithm::Match3)
                    .config(cfg)
                    .try_run(&list)
                    .unwrap_or_else(|e| panic!("match3 {perm:?}: {e}"));
                let pram3 = match3_pram(&list, 2, cfg, ExecMode::Checked)
                    .unwrap_or_else(|e| panic!("match3_pram {perm:?}: {e}"));
                assert_eq!(
                    &pram3.matching,
                    native3.matching(),
                    "match3 ({:?} jumps) on {perm:?}",
                    cfg.jump_rounds
                );
            }

            let native4 = Runner::new(Algorithm::Match4).run(&list);
            let pram4 = match4_pram(&list, 2, None, CoinVariant::Msb, ExecMode::Checked)
                .unwrap_or_else(|e| panic!("match4 {perm:?}: {e}"));
            assert_eq!(&pram4.matching, native4.matching(), "match4 on {perm:?}");

            checked += 1;
        }
    }
    // 2! + 3! + 4! + 5! + 6! + 7!
    assert_eq!(checked, 2 + 6 + 24 + 120 + 720 + 5040);
}

/// All non-decreasing key columns of height `x` with values in `0..x`.
fn sorted_columns(x: usize) -> Vec<Vec<u64>> {
    fn extend(prefix: &mut Vec<u64>, x: usize, out: &mut Vec<Vec<u64>>) {
        if prefix.len() == x {
            out.push(prefix.clone());
            return;
        }
        let lo = prefix.last().copied().unwrap_or(0);
        for v in lo..x as u64 {
            prefix.push(v);
            extend(prefix, x, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    extend(&mut Vec::new(), x, &mut out);
    out
}

#[test]
fn walkdown2_schedule_exhaustive_small_columns() {
    for x in 1..=6usize {
        let columns = sorted_columns(x);
        // C(2x-1, x) sorted columns of height x over 0..x
        for keys in &columns {
            let marked = walkdown2_schedule(keys);
            assert_eq!(marked.len(), keys.len(), "{keys:?}");
            for (r, &k) in marked.iter().enumerate() {
                assert_eq!(k, keys[r] + r as u64, "Lemma 7 violated on {keys:?}");
            }
            let last = marked.iter().max().copied().unwrap_or(0);
            assert!(
                last <= (2 * x - 2) as u64,
                "{keys:?}: last step {last} exceeds 2x-2"
            );
        }
    }
}
