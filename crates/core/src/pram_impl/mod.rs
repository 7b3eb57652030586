//! Step-faithful PRAM implementations.
//!
//! The rayon-native algorithms in the crate root answer "is the output
//! right and how fast is it on a real machine"; the implementations here
//! answer the question the paper actually poses: **how many synchronous
//! PRAM steps does each algorithm take as a function of `n` and `p`?**
//! Every parallel loop is expanded into `⌈n/p⌉` simulated steps of `p`
//! virtual processors (Brent scheduling), every shared-memory access is
//! a machine access, and the returned [`Stats`](parmatch_pram::Stats)
//! carry the exact counts the experiments plot.
//!
//! Model notes:
//!
//! * Match1/Match2 run EREW-legally: relabel rounds keep **two** copies
//!   of the label array so a cell is read by exactly one processor
//!   (its own handler reads copy A, its predecessor's handler reads
//!   copy B), the trick the paper's EREW results rely on.
//! * Match4's WalkDowns inspect neighbor pointers' colors, and two
//!   pointers may share a neighbor — concurrent *reads* are inherent,
//!   so Match4 runs on CREW (writes stay exclusive). The same applies
//!   to [`wyllie`] jumping and to the end-to-end [`rank`] program.
//! * Match3 is EREW end to end thanks to the appendix's per-processor
//!   table copies, materialized by the [`broadcast`] doubling; the
//!   appendix's `log G(n)` evaluation lives in [`appendix`].

pub mod appendix;
pub mod broadcast;
pub mod match1;
pub mod match2;
pub mod match3;
pub mod match4;
pub mod rank;
pub mod wyllie;

pub use appendix::{eval_log_g_pram, AppendixEval};
pub use broadcast::broadcast_copies;
pub use match1::{match1_pram, Match1Pram};
pub use match2::{match2_pram, Match2Pram};
pub use match3::{match3_pram, Match3Pram};
pub use match4::{match4_on, match4_pram, Match4Pram};
pub use rank::{rank_pram, RankPram};
pub use wyllie::{wyllie_pram, WylliePram};

use parmatch_list::{LinkedList, NodeId, NIL};
use parmatch_pram::{Machine, PramError, ProcCtx, Region, Word};

/// NIL encoded as a machine word.
pub const NIL_W: Word = Word::MAX;

/// Simulate the PRAM idiom `for v := 0 .. count-1 pardo` with `p`
/// processors: `⌈count/p⌉` synchronous steps, element `s·p + pid`
/// handled in substep `s`.
pub fn par_for<F>(m: &mut Machine, count: usize, p: usize, f: F) -> Result<(), PramError>
where
    F: Fn(&mut ProcCtx<'_>, usize) + Sync,
{
    let p = p.max(1);
    let fr = &f;
    for s in 0..count.div_ceil(p) {
        m.step(p, move |ctx| {
            let e = s * p + ctx.pid();
            if e < count {
                fr(ctx, e);
            }
        })?;
    }
    Ok(())
}

/// The list's arrays resident in machine memory.
#[derive(Debug, Clone, Copy)]
pub struct ListRegions {
    /// `NEXT[v]`, with [`NIL_W`] at the tail.
    pub next: Region,
    /// Cyclic successor: `NEXT[v]`, with the tail wrapping to the head.
    pub next_cyc: Region,
    /// Number of nodes.
    pub n: usize,
}

/// Host-side load of the list into machine memory (input setup; not
/// simulated work, exactly as the paper assumes the input resident).
pub fn load_list(m: &mut Machine, list: &LinkedList) -> ListRegions {
    let n = list.len();
    let next = m.alloc(n);
    let next_cyc = m.alloc(n);
    for v in 0..n as NodeId {
        let raw = list.next_raw(v);
        m.poke(
            next.addr(v as usize),
            if raw == NIL { NIL_W } else { Word::from(raw) },
        );
        m.poke(next_cyc.addr(v as usize), Word::from(list.next_cyclic(v)));
    }
    ListRegions { next, next_cyc, n }
}

/// Compute the predecessor array in `⌈n/p⌉` steps:
/// `P[NEXT[v]] := v` (exclusive — `NEXT` is injective), head keeps
/// [`NIL_W`] (pre-initialized host-side).
pub fn compute_pred(
    m: &mut Machine,
    lr: &ListRegions,
    pred: Region,
    p: usize,
) -> Result<(), PramError> {
    for i in 0..lr.n {
        m.poke(pred.addr(i), NIL_W);
    }
    let next = lr.next;
    par_for(m, lr.n, p, move |ctx, v| {
        let w = next.get(ctx, v);
        if w != NIL_W {
            pred.set(ctx, w as usize, v as Word);
        }
    })
}

/// Work-efficient exclusive prefix sum (Blelloch up/down sweep) over a
/// region whose length must be a power of two, using `p` processors:
/// `O(len/p + log len)` steps, EREW-legal. The region's total is
/// returned (read host-side after the upsweep).
pub fn scan_exclusive(m: &mut Machine, data: Region, p: usize) -> Result<Word, PramError> {
    let len = data.len();
    assert!(
        len.is_power_of_two(),
        "scan length must be a power of two (got {len})"
    );
    if len == 1 {
        let total = m.peek(data.addr(0));
        m.poke(data.addr(0), 0);
        return Ok(total);
    }
    let levels = len.trailing_zeros() as usize;
    // Upsweep: data[k·2^{d+1} + 2^{d+1} - 1] += data[k·2^{d+1} + 2^d - 1]
    for d in 0..levels {
        let stride = 1usize << (d + 1);
        let half = 1usize << d;
        let pairs = len / stride;
        par_for(m, pairs, p, move |ctx, k| {
            let right = k * stride + stride - 1;
            let left = k * stride + half - 1;
            let a = data.get(ctx, left);
            let b = data.get(ctx, right);
            data.set(ctx, right, a + b);
        })?;
    }
    let total = m.peek(data.addr(len - 1));
    m.poke(data.addr(len - 1), 0);
    // Downsweep
    for d in (0..levels).rev() {
        let stride = 1usize << (d + 1);
        let half = 1usize << d;
        let pairs = len / stride;
        par_for(m, pairs, p, move |ctx, k| {
            let right = k * stride + stride - 1;
            let left = k * stride + half - 1;
            let l = data.get(ctx, left);
            let r = data.get(ctx, right);
            data.set(ctx, left, r);
            data.set(ctx, right, l + r);
        })?;
    }
    Ok(total)
}

/// Extract a boolean matching mask from a 0/1 region (host-side).
pub fn mask_from_region(m: &Machine, r: Region) -> Vec<bool> {
    m.region_slice(r).iter().map(|&w| w != 0).collect()
}

/// Match1 steps 3–4 on the machine, shared by the Match1 and Match3
/// programs: given converged adjacent-distinct labels in two copies
/// (`label_a` read own-cell, `label_b` read successor-side) with values
/// `< bound`, cut at strict local minima, walk the sublists (bounded by
/// `2·bound` sweeps — a sublist's label sequence is unimodal over at
/// most `bound` distinct values), and fix up the boundaries. Returns the
/// region holding the matching mask. EREW-legal throughout.
#[allow(clippy::too_many_arguments)]
pub fn cut_and_walk_finish(
    m: &mut Machine,
    lr: &ListRegions,
    list_head: usize,
    label_a: Region,
    label_b: Region,
    bound: Word,
    p: usize,
) -> Result<Region, PramError> {
    let n = lr.n;
    let label_c = m.alloc(n); // third copy for predecessor-side reads
    let pred = m.alloc(n);
    let cut = m.alloc(n);
    let mask = m.alloc(n);
    let mask_b = m.alloc(n);
    let active = m.alloc(n);
    let cur = m.alloc(n);
    let parity = m.alloc(n);
    let mn_a = m.alloc(n);
    let mn_b = m.alloc(n);

    par_for(m, n, p, move |ctx, v| {
        let l = label_a.get(ctx, v);
        label_c.set(ctx, v, l);
    })?;
    compute_pred(m, lr, pred, p)?;

    // Step 3: cut at strict local minima.
    par_for(m, n, p, move |ctx, v| {
        let nx = lr.next.get(ctx, v);
        if nx == NIL_W {
            cut.set(ctx, v, 0);
            return;
        }
        let lv = label_a.get(ctx, v);
        let pu = pred.get(ctx, v);
        let left_higher = pu == NIL_W || label_c.get(ctx, pu as usize) > lv;
        let right_higher = label_b.get(ctx, nx as usize) > lv;
        cut.set(ctx, v, u64::from(left_higher && right_higher));
    })?;

    // Step 4 init: walkers start at sublist heads.
    par_for(m, n, p, move |ctx, v| {
        let pu = pred.get(ctx, v);
        let is_head = v == list_head || (pu != NIL_W && cut.get(ctx, pu as usize) != 0);
        active.set(ctx, v, u64::from(is_head));
        cur.set(ctx, v, v as Word);
        parity.set(ctx, v, 0);
        mask.set(ctx, v, 0);
    })?;

    // Step 4: walk, one node-advance per sweep, ≤ 2·bound sweeps.
    for _ in 0..2 * bound as usize {
        par_for(m, n, p, move |ctx, w| {
            if active.get(ctx, w) == 0 {
                return;
            }
            let c = cur.get(ctx, w) as usize;
            if cut.get(ctx, c) != 0 {
                active.set(ctx, w, 0);
                return;
            }
            let nx = lr.next.get(ctx, c);
            if nx == NIL_W {
                active.set(ctx, w, 0);
                return;
            }
            let par = parity.get(ctx, w);
            if par == 0 {
                mask.set(ctx, c, 1);
            }
            parity.set(ctx, w, 1 - par);
            cur.set(ctx, w, nx);
        })?;
    }

    // Fix-up sweeps (see match1 for the rationale of the copies).
    par_for(m, n, p, move |ctx, v| {
        let mv = mask.get(ctx, v);
        mask_b.set(ctx, v, mv);
    })?;
    par_for(m, n, p, move |ctx, v| {
        let own = mask.get(ctx, v) != 0;
        let pu = pred.get(ctx, v);
        let from_pred = pu != NIL_W && mask_b.get(ctx, pu as usize) != 0;
        let bit = u64::from(own || from_pred);
        mn_a.set(ctx, v, bit);
        mn_b.set(ctx, v, bit);
    })?;
    par_for(m, n, p, move |ctx, v| {
        if cut.get(ctx, v) == 0 {
            return;
        }
        let nx = lr.next.get(ctx, v);
        if nx == NIL_W {
            return;
        }
        if mn_a.get(ctx, v) == 0 && mn_b.get(ctx, nx as usize) == 0 {
            mask.set(ctx, v, 1);
        }
    })?;
    Ok(mask)
}

/// Double-buffered label storage for the relabel rounds.
///
/// Two buffer pairs alternate between rounds so that a round split into
/// `⌈n/p⌉` machine substeps still reads only *pre-round* labels (a
/// later substep must not observe labels an earlier substep of the same
/// logical parallel step already rewrote). Within each pair, two copies
/// exist so EREW reads stay exclusive: a node's own handler reads copy
/// `a`, its predecessor's handler reads copy `b`.
#[derive(Debug, Clone, Copy)]
pub struct LabelBuffers {
    bufs: [(Region, Region); 2],
    front: usize,
}

impl LabelBuffers {
    /// Allocate the four `n`-word label arrays on the machine.
    pub fn alloc(m: &mut Machine, n: usize) -> Self {
        let a = m.alloc(n);
        let b = m.alloc(n);
        let a2 = m.alloc(n);
        let b2 = m.alloc(n);
        Self {
            bufs: [(a, b), (a2, b2)],
            front: 0,
        }
    }

    /// The pair currently holding the labels.
    #[inline]
    pub fn front(&self) -> (Region, Region) {
        self.bufs[self.front]
    }

    fn back(&self) -> (Region, Region) {
        self.bufs[1 - self.front]
    }

    fn swap(&mut self) {
        self.front = 1 - self.front;
    }
}

/// Initialize the labels to the node addresses (Match1 step 1): one
/// `⌈n/p⌉`-step sweep.
pub fn init_labels(
    m: &mut Machine,
    lr: &ListRegions,
    buf: &LabelBuffers,
    p: usize,
) -> Result<(), PramError> {
    let (a, b) = buf.front();
    par_for(m, lr.n, p, move |ctx, v| {
        a.set(ctx, v, v as Word);
        b.set(ctx, v, v as Word);
    })
}

/// `rounds` deterministic coin-tossing rounds (Match1 step 2):
/// `label[v] := f(<label[v], label[suc(v)]>)` over the cyclic order,
/// `⌈n/p⌉` steps each, reading the front buffers and writing the back
/// (then swapping). Starting from labels bounded by `bound`, returns
/// the final bound.
pub fn relabel_k_rounds(
    m: &mut Machine,
    lr: &ListRegions,
    buf: &mut LabelBuffers,
    rounds: u32,
    mut bound: Word,
    variant: crate::CoinVariant,
    p: usize,
) -> Result<Word, PramError> {
    use parmatch_bits::ilog2_ceil;
    for _ in 0..rounds {
        let width = ilog2_ceil(bound).max(1);
        let (src_a, src_b) = buf.front();
        let (dst_a, dst_b) = buf.back();
        par_for(m, lr.n, p, move |ctx, v| {
            let own = src_a.get(ctx, v);
            let suc = lr.next_cyc.get(ctx, v) as usize;
            let nb = src_b.get(ctx, suc);
            let new = crate::labels::f_ext(own, nb, width, variant);
            dst_a.set(ctx, v, new);
            dst_b.set(ctx, v, new);
        })?;
        buf.swap();
        bound = 2 * Word::from(width) + 1;
    }
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_list::random_list;
    use parmatch_pram::Model;

    #[test]
    fn par_for_visits_each_element_once() {
        let mut m = Machine::new(Model::Erew, 0);
        let r = m.alloc(100);
        par_for(&mut m, 100, 7, |ctx, e| {
            let v = r.get(ctx, e);
            r.set(ctx, e, v + 1);
        })
        .unwrap();
        assert!(m.region_slice(r).iter().all(|&v| v == 1));
        assert_eq!(m.stats().steps, 100usize.div_ceil(7) as u64);
    }

    #[test]
    fn par_for_step_count_scales() {
        for p in [1usize, 3, 10, 100, 1000] {
            let mut m = Machine::new(Model::Erew, 0);
            let r = m.alloc(50);
            par_for(&mut m, 50, p, |ctx, e| r.set(ctx, e, 1)).unwrap();
            assert_eq!(m.stats().steps, 50usize.div_ceil(p) as u64, "p={p}");
        }
    }

    #[test]
    fn load_and_pred() {
        let list = random_list(64, 5);
        let mut m = Machine::new(Model::Erew, 0);
        let lr = load_list(&mut m, &list);
        let pred = m.alloc(64);
        compute_pred(&mut m, &lr, pred, 8).unwrap();
        let expect = list.pred_array();
        for (v, &want) in expect.iter().enumerate() {
            let got = m.peek(pred.addr(v));
            if want == NIL {
                assert_eq!(got, NIL_W);
            } else {
                assert_eq!(got, Word::from(want));
            }
        }
    }

    #[test]
    fn scan_matches_reference() {
        for len in [1usize, 2, 8, 64, 256] {
            for p in [1usize, 4, 32] {
                let mut m = Machine::new(Model::Erew, 0);
                let r = m.alloc(len);
                let input: Vec<Word> = (0..len as Word).map(|i| i * 3 + 1).collect();
                m.load_region(r, &input);
                let total = scan_exclusive(&mut m, r, p).unwrap();
                assert_eq!(total, input.iter().sum::<Word>());
                let mut acc = 0;
                for (i, &x) in input.iter().enumerate() {
                    assert_eq!(m.peek(r.addr(i)), acc, "len={len} p={p} i={i}");
                    acc += x;
                }
            }
        }
    }

    #[test]
    fn scan_step_count_is_len_over_p_plus_log() {
        let len = 1024usize;
        let p = 64usize;
        let mut m = Machine::new(Model::Erew, 0);
        let r = m.alloc(len);
        scan_exclusive(&mut m, r, p).unwrap();
        let steps = m.stats().steps;
        // 2 sweeps of sum_{d} ceil(len/2^{d+1}/p): ≈ 2(len/p + log len)
        let budget = 2 * ((len / p) as u64 + 2 * (len.trailing_zeros() as u64));
        assert!(steps <= budget + 8, "steps={steps} budget={budget}");
    }

    #[test]
    fn entry_point_accounting_is_pinned() {
        use crate::match3::Match3Config;
        use crate::CoinVariant::Msb;
        use parmatch_pram::{ExecMode, Stats};

        let list = random_list(700, 11);
        let run = |mode: ExecMode| -> Vec<(&str, Stats)> {
            vec![
                ("match1", match1_pram(&list, 64, Msb, mode).unwrap().stats),
                (
                    "match2",
                    match2_pram(&list, 64, 2, Msb, mode).unwrap().stats,
                ),
                (
                    "match3",
                    match3_pram(&list, 8, Match3Config::default(), mode)
                        .unwrap()
                        .stats,
                ),
                (
                    "match4",
                    match4_pram(&list, 2, None, Msb, mode).unwrap().stats,
                ),
                ("wyllie", wyllie_pram(&list, 64, mode).unwrap().stats),
                ("rank", rank_pram(&list, 2, mode).unwrap().stats),
                ("log_g", eval_log_g_pram(4096, 64, mode).unwrap().stats),
            ]
        };
        // (steps, work, reads, writes) in checked mode.
        let want: [(u64, u64, u64, u64); 7] = [
            (319, 20416, 31590, 14045),
            (127, 8128, 15031, 10969),
            (68440, 547520, 563568, 546736),
            (164, 10496, 26689, 14078),
            (121, 7744, 28700, 15400),
            (1388, 36224, 84881, 44549),
            (195, 12480, 8218, 4106),
        ];
        for (mode, count_reads) in [(ExecMode::Checked, true), (ExecMode::Fast, false)] {
            for ((name, got), &(steps, work, reads, writes)) in run(mode).into_iter().zip(&want) {
                let reads = if count_reads { reads } else { 0 };
                let want = Stats {
                    steps,
                    work,
                    reads,
                    writes,
                };
                assert_eq!(got, want, "{name} in {mode:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn scan_rejects_non_pow2() {
        let mut m = Machine::new(Model::Erew, 0);
        let r = m.alloc(24);
        let _ = scan_exclusive(&mut m, r, 4);
    }
}
