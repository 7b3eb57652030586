//! Optimal list ranking on the simulated PRAM — the paper's destination
//! application, assembled from the pieces it provides.
//!
//! Each contraction level runs entirely on the machine:
//!
//! 1. [`match4_on`] computes a maximal matching of the level's list
//!    (the paper's symmetry breaker);
//! 2. a **compaction scan** ([`scan_exclusive`]) assigns dense new ids
//!    to the kept nodes (matched pointer *tails* are spliced out — the
//!    list tail is never removed and every splice target is kept, see
//!    `parmatch_apps::rank` for the argument);
//! 3. one sweep builds the contracted `NEXT`/weights arrays.
//!
//! A maximal matching covers ≥ ⅓ of the pointers, so levels shrink
//! geometrically; when the remainder falls below `n/log n` (+ a floor)
//! the program switches to weighted pointer jumping — the accelerated
//! cascade — and then expands level by level (two sweeps each).
//!
//! Runs on CREW (Match4's WalkDowns and the jumping phase read
//! concurrently; every write is exclusive). With `p_level = n_level/x`
//! processors per level the total is `O(n/p + log n · log^{(i)} n)`
//! steps of linear total work — the optimal-ranking shape the paper's
//! introduction positions itself in.

use super::match4::match4_on;
use super::{par_for, scan_exclusive, ListRegions, NIL_W};
use crate::CoinVariant;
use parmatch_list::{LinkedList, NodeId, NIL};
use parmatch_pram::{ExecMode, Machine, Model, PramError, Region, Stats, Word};

/// Result of [`rank_pram`].
#[derive(Debug, Clone)]
pub struct RankPram {
    /// `rank[v]` = number of nodes strictly after `v` in list order.
    pub ranks: Vec<u64>,
    /// Exact simulated step/work counts.
    pub stats: Stats,
    /// Contraction levels executed before the jumping switch.
    pub levels: u32,
    /// Nodes remaining at the switch.
    pub switch_size: usize,
}

/// Everything needed to expand one level.
struct Frame {
    lr: ListRegions,
    weights: Region,
    mask: Region,  // removed[a] ⇔ pointer <a, suc a> matched
    newid: Region, // dense id among kept nodes
}

/// Node-count floor below which the jumping finisher takes over.
const BASE: usize = 16;

/// Rank every node by on-machine matching contraction with a pointer
/// jumping finisher (accelerated cascade), using Match4 with partition
/// parameter `i` at every level.
pub fn rank_pram(list: &LinkedList, i: u32, mode: ExecMode) -> Result<RankPram, PramError> {
    let n = list.len();
    if n == 0 {
        return Ok(RankPram {
            ranks: Vec::new(),
            stats: Stats::default(),
            levels: 0,
            switch_size: 0,
        });
    }
    let mut m = match mode {
        ExecMode::Checked => Machine::new(Model::Crew, 0),
        ExecMode::Fast => Machine::new_fast(Model::Crew, 0),
    };

    // Level 0 resident arrays.
    let mut lr = super::load_list(&mut m, list);
    let mut head = list.head() as usize;
    let mut weights = m.alloc(n);
    {
        let (w, lrl) = (weights, lr);
        // weight 1 per real pointer; the tail's entry is unused
        par_for(&mut m, n, n, move |ctx, v| {
            let nx = lrl.next.get(ctx, v);
            w.set(ctx, v, u64::from(nx != NIL_W));
        })?;
    }

    let log_n = (usize::BITS - n.leading_zeros()) as usize;
    let target = (n / log_n.max(1)).max(BASE);
    let mut frames: Vec<Frame> = Vec::new();

    // ---- contraction levels ----
    while lr.n > target && lr.n > BASE {
        let nl = lr.n;
        let p = nl.div_ceil(16).max(1); // a generous per-level p; Match4
                                        // picks its own internally
        let (mask, _x, _y, _b) = match4_on(&mut m, &lr, i, None, CoinVariant::Msb)?;

        // keep-flag scan for dense new ids: flag[v] = 1 - mask[v],
        // padded to a power of two for the Blelloch scan.
        let pad = nl.next_power_of_two();
        let flags = m.alloc(pad); // zero padding beyond nl
        {
            let (fl, mk) = (flags, mask);
            par_for(&mut m, nl, p, move |ctx, v| {
                let rm = mk.get(ctx, v);
                fl.set(ctx, v, 1 - rm);
            })?;
        }
        let kept_total = scan_exclusive(&mut m, flags, p)? as usize;
        let newid = flags; // after the scan, flags[v] = new id of kept v

        // contracted arrays
        let n2 = kept_total;
        debug_assert!(n2 >= 1);
        let next2 = m.alloc(n2);
        let next_cyc2 = m.alloc(n2);
        let weights2 = m.alloc(n2);

        // head of the contracted list (host control flow)
        let head2 = if m.peek(mask.addr(head)) != 0 {
            // old head spliced: its successor leads the new list
            let suc = m.peek(lr.next.addr(head)) as usize;
            m.peek(newid.addr(suc)) as usize
        } else {
            m.peek(newid.addr(head)) as usize
        };

        // build sweep: every kept node writes its contracted cells.
        {
            let (lrl, mk, nid, w, nx2, nc2, w2) =
                (lr, mask, newid, weights, next2, next_cyc2, weights2);
            par_for(&mut m, nl, p, move |ctx, v| {
                if mk.get(ctx, v) != 0 {
                    return; // spliced out
                }
                let me = nid.get(ctx, v) as usize;
                let nx = lrl.next.get(ctx, v);
                let (tgt, wt) = if nx == NIL_W {
                    (NIL_W, w.get(ctx, v))
                } else if mk.get(ctx, nx as usize) != 0 {
                    // splice over the removed matched tail nx
                    let b = lrl.next.get(ctx, nx as usize);
                    (
                        nid.get(ctx, b as usize),
                        w.get(ctx, v) + w.get(ctx, nx as usize),
                    )
                } else {
                    (nid.get(ctx, nx as usize), w.get(ctx, v))
                };
                nx2.set(ctx, me, tgt);
                nc2.set(ctx, me, if tgt == NIL_W { head2 as Word } else { tgt });
                w2.set(ctx, me, if tgt == NIL_W { 0 } else { wt });
            })?;
        }

        frames.push(Frame {
            lr,
            weights,
            mask,
            newid,
        });
        lr = ListRegions {
            next: next2,
            next_cyc: next_cyc2,
            n: n2,
        };
        weights = weights2;
        head = head2;
    }
    let levels = frames.len() as u32;
    let switch_size = lr.n;

    // ---- jumping finisher on the small remainder ----
    let ranks_small = {
        let nl = lr.n;
        let nxt = m.alloc(nl);
        let nxt2 = m.alloc(nl);
        let dist = m.alloc(nl);
        let dist2 = m.alloc(nl);
        let (lrl, w) = (lr, weights);
        par_for(&mut m, nl, nl, move |ctx, v| {
            let x = lrl.next.get(ctx, v);
            if x == NIL_W {
                nxt.set(ctx, v, v as Word);
                dist.set(ctx, v, 0);
            } else {
                nxt.set(ctx, v, x);
                let wv = w.get(ctx, v);
                dist.set(ctx, v, wv);
            }
        })?;
        let rounds = if nl <= 1 {
            0
        } else {
            usize::BITS - (nl - 1).leading_zeros()
        };
        let (mut cur, mut alt) = ((nxt, dist), (nxt2, dist2));
        for _ in 0..rounds {
            let ((sn, sd), (dn, dd)) = (cur, alt);
            par_for(&mut m, nl, nl, move |ctx, v| {
                let t = sn.get(ctx, v) as usize;
                let d = sd.get(ctx, v);
                let dt = sd.get(ctx, t);
                let tt = sn.get(ctx, t);
                dd.set(ctx, v, d + dt);
                dn.set(ctx, v, tt);
            })?;
            std::mem::swap(&mut cur, &mut alt);
        }
        cur.1
    };

    // ---- expansion, reverse level order, two sweeps per level ----
    let mut ranks_next = ranks_small;
    while let Some(frame) = frames.pop() {
        let nl = frame.lr.n;
        let ranks_level = m.alloc(nl);
        let p = nl.div_ceil(16).max(1);
        {
            let (mk, nid, rl, rn) = (frame.mask, frame.newid, ranks_level, ranks_next);
            par_for(&mut m, nl, p, move |ctx, v| {
                if mk.get(ctx, v) == 0 {
                    let me = nid.get(ctx, v) as usize;
                    let r = rn.get(ctx, me);
                    rl.set(ctx, v, r);
                }
            })?;
        }
        {
            let (lrl, mk, w, rl) = (frame.lr, frame.mask, frame.weights, ranks_level);
            par_for(&mut m, nl, p, move |ctx, v| {
                if mk.get(ctx, v) != 0 {
                    let nx = lrl.next.get(ctx, v) as usize; // kept successor
                    let r = rl.get(ctx, nx);
                    let wv = w.get(ctx, v);
                    rl.set(ctx, v, wv + r);
                }
            })?;
        }
        ranks_next = ranks_level;
    }

    let ranks = m.region_slice(ranks_next).to_vec();
    Ok(RankPram {
        ranks,
        stats: *m.stats(),
        levels,
        switch_size,
    })
}

/// Quick consistency helper mirroring the native checker (host-side).
pub fn ranks_consistent(list: &LinkedList, ranks: &[u64]) -> bool {
    list.len() == ranks.len()
        && (0..list.len() as NodeId).all(|v| match list.next_raw(v) {
            NIL => ranks[v as usize] == 0,
            w => ranks[v as usize] == ranks[w as usize] + 1,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_list::{random_list, sequential_list};

    #[test]
    fn ranks_match_ground_truth_crew_legal() {
        for seed in 0..3 {
            let list = random_list(500, seed);
            let out = rank_pram(&list, 2, ExecMode::Checked).unwrap();
            assert_eq!(out.ranks, list.ranks_seq(), "seed {seed}");
            assert!(ranks_consistent(&list, &out.ranks));
        }
    }

    #[test]
    fn contracts_then_switches() {
        let n = 1 << 12;
        let list = random_list(n, 7);
        let out = rank_pram(&list, 2, ExecMode::Fast).unwrap();
        assert_eq!(out.ranks, list.ranks_seq());
        assert!(out.levels >= 2, "levels {}", out.levels);
        assert!(
            out.switch_size <= n / 12 + BASE,
            "switch {}",
            out.switch_size
        );
    }

    #[test]
    fn work_stays_linearish() {
        let n = 1 << 12;
        let list = random_list(n, 4);
        let out = rank_pram(&list, 2, ExecMode::Fast).unwrap();
        // geometric level sizes keep total work a constant multiple of n
        let per_node = out.stats.work as f64 / n as f64;
        assert!(per_node < 80.0, "work/n = {per_node}");
    }

    #[test]
    fn structured_and_tiny() {
        for n in [0usize, 1, 2, 3, 15, 16, 17, 100] {
            let list = if n > 2 {
                random_list(n, n as u64)
            } else {
                sequential_list(n)
            };
            let out = rank_pram(&list, 1, ExecMode::Checked).unwrap();
            assert_eq!(out.ranks, list.ranks_seq(), "n={n}");
        }
        let list = sequential_list(333);
        let out = rank_pram(&list, 2, ExecMode::Checked).unwrap();
        assert_eq!(out.ranks, list.ranks_seq());
    }
}
