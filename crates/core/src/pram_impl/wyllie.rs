//! Wyllie pointer-jumping list ranking on the simulated PRAM.
//!
//! The non-optimal baseline, realized on the machine so the ranking
//! application's step counts can be compared like-for-like:
//! `⌈log₂ n⌉` rounds of `⌈n/p⌉` steps — `O(n·log n / p + log n)` time,
//! `Θ(n log n)` work. Runs on CREW: once chains collapse many nodes
//! read the tail's cells simultaneously.

use super::{load_list, par_for, NIL_W};
use parmatch_list::LinkedList;
use parmatch_pram::{ExecMode, Machine, Model, PramError, Stats, Word};

/// Result of [`wyllie_pram`].
#[derive(Debug, Clone)]
pub struct WylliePram {
    /// `rank[v]` = number of nodes strictly after `v` in list order.
    pub ranks: Vec<u64>,
    /// Exact simulated step/work counts.
    pub stats: Stats,
    /// Jump rounds executed (`⌈log₂ n⌉`).
    pub rounds: u32,
}

/// Rank every node by pointer jumping on a fresh CREW machine with `p`
/// virtual processors.
pub fn wyllie_pram(list: &LinkedList, p: usize, mode: ExecMode) -> Result<WylliePram, PramError> {
    let n = list.len();
    if n == 0 {
        return Ok(WylliePram {
            ranks: Vec::new(),
            stats: Stats::default(),
            rounds: 0,
        });
    }
    let mut m = match mode {
        ExecMode::Checked => Machine::new(Model::Crew, 0),
        ExecMode::Fast => Machine::new_fast(Model::Crew, 0),
    };
    let lr = load_list(&mut m, list);
    // jumping arrays, double-buffered across rounds
    let nxt = m.alloc(n);
    let nxt2 = m.alloc(n);
    let dist = m.alloc(n);
    let dist2 = m.alloc(n);

    // init sweep: tail self-loops with distance 0
    par_for(&mut m, n, p, move |ctx, v| {
        let w = lr.next.get(ctx, v);
        if w == NIL_W {
            nxt.set(ctx, v, v as Word);
            dist.set(ctx, v, 0);
        } else {
            nxt.set(ctx, v, w);
            dist.set(ctx, v, 1);
        }
    })?;

    let rounds = if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    };
    let (mut cur, mut alt) = ((nxt, dist), (nxt2, dist2));
    for _ in 0..rounds {
        let ((sn, sd), (dn, dd)) = (cur, alt);
        par_for(&mut m, n, p, move |ctx, v| {
            let w = sn.get(ctx, v) as usize;
            let d = sd.get(ctx, v);
            let dw = sd.get(ctx, w);
            let ww = sn.get(ctx, w);
            dd.set(ctx, v, d + dw);
            dn.set(ctx, v, ww);
        })?;
        std::mem::swap(&mut cur, &mut alt);
    }

    let ranks = m.region_slice(cur.1).to_vec();
    Ok(WylliePram {
        ranks,
        stats: *m.stats(),
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_list::{random_list, sequential_list};

    #[test]
    fn ranks_match_ground_truth_crew_legal() {
        for seed in 0..3 {
            let list = random_list(600, seed);
            let out = wyllie_pram(&list, 32, ExecMode::Checked).unwrap();
            assert_eq!(out.ranks, list.ranks_seq(), "seed {seed}");
        }
    }

    #[test]
    fn step_count_is_log_n_times_sweep() {
        let n = 1 << 12;
        let list = random_list(n, 5);
        let p = 64usize;
        let out = wyllie_pram(&list, p, ExecMode::Fast).unwrap();
        let expect = (n / p) as u64 * 12 + (n / p) as u64; // rounds + init
        assert_eq!(out.rounds, 12);
        assert!(
            out.stats.steps <= expect + 16,
            "steps {} vs {}",
            out.stats.steps,
            expect
        );
        // work is Θ(n log n): well above linear
        assert!(out.stats.work >= 12 * n as u64);
    }

    #[test]
    fn ranking_work_gap_vs_match_based_contraction() {
        // On the machine, Wyllie's *per-node* work grows with log n
        // while Match4's (one level of the matching contraction) stays
        // flat — the growth gap the paper's lineage closes. At simulable
        // n the absolute constants still favor Wyllie; the claim is the
        // growth rate, so that is what we assert.
        let per_node = |e: u32| {
            let n = 1usize << e;
            let list = random_list(n, 8);
            let wy = wyllie_pram(&list, 64, ExecMode::Fast).unwrap();
            let m4 =
                super::super::match4_pram(&list, 2, None, crate::CoinVariant::Msb, ExecMode::Fast)
                    .unwrap();
            (
                wy.stats.work as f64 / n as f64,
                m4.stats.work as f64 / n as f64,
            )
        };
        let (wy_small, m4_small) = per_node(10);
        let (wy_big, m4_big) = per_node(14);
        assert!(
            wy_big > wy_small + 3.0,
            "wyllie/n flat? {wy_small} → {wy_big}"
        );
        assert!(
            (m4_big - m4_small).abs() < 3.0,
            "match4/n not flat? {m4_small} → {m4_big}"
        );
    }

    #[test]
    fn tiny() {
        assert!(wyllie_pram(&sequential_list(0), 4, ExecMode::Checked)
            .unwrap()
            .ranks
            .is_empty());
        let out = wyllie_pram(&sequential_list(1), 4, ExecMode::Checked).unwrap();
        assert_eq!(out.ranks, vec![0]);
        assert_eq!(out.rounds, 0);
        let out = wyllie_pram(&sequential_list(2), 4, ExecMode::Checked).unwrap();
        assert_eq!(out.ranks, vec![1, 0]);
    }
}
