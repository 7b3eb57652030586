//! Match4 on the simulated PRAM — Theorem 1 made measurable.
//!
//! Exact realization with `y = ⌈n/x⌉` virtual processors, one per
//! column of the two-dimensional view (`x` rows):
//!
//! * step 1: `i` relabel rounds (`i·x` steps with `p = n/x`);
//! * step 2: **per-column sequential counting sort** — histogram,
//!   prefix, scatter, each a column-local pass of `x` steps; no global
//!   communication at all, which is the whole point;
//! * step 3: WalkDown1, `x` lockstep rounds (Lemma 6);
//! * step 4: WalkDown2, `2x − 1` pipelined steps (Lemma 7);
//! * step 5: greedy sweep of the 3 color classes (`3x` steps).
//!
//! Total `(i + c)·x` steps, `c` a small constant — the
//! `O(i·n/p + log^(i) n)` of Theorem 2 (the `log i` refinement swaps
//! step 1 for the Match3 table pipeline). Runs on CREW: the WalkDowns
//! *read* neighbor colors concurrently (two pointers may share a
//! neighbor) while all writes stay exclusive.

use super::{load_list, mask_from_region, par_for, relabel_k_rounds, LabelBuffers, NIL_W};
use crate::matching::Matching;
use crate::CoinVariant;
use parmatch_list::LinkedList;
use parmatch_pram::{ExecMode, Machine, Model, PramError, ProcCtx, Region, Stats, Word};

/// Result of [`match4_pram`].
#[derive(Debug, Clone)]
pub struct Match4Pram {
    /// The maximal matching (extracted host-side).
    pub matching: Matching,
    /// Exact simulated step/work counts.
    pub stats: Stats,
    /// Rows `x` of the grid.
    pub rows: usize,
    /// Columns `y` — the virtual processor count of Theorem 1.
    pub cols: usize,
    /// Set-number bound after step 1.
    pub set_bound: Word,
}

/// Color sentinel ("uncolored") in machine words.
const UNCOLORED_W: Word = Word::MAX;

/// Run Match4 on a fresh CREW machine.
///
/// `i` is the partition parameter (relabel rounds); `rows_override`
/// forces a row count `x ≥` the set bound (padding rows), which is how
/// the experiments sweep the processor count `p = ⌈n/x⌉`
/// independently of `i`. With `None`, `x` = the set bound
/// (`≈ log^(i) n`), giving Theorem 1's `p = n/log^(i) n`.
///
/// # Examples
///
/// ```
/// use parmatch_core::pram_impl::match4_pram;
/// use parmatch_core::{verify, CoinVariant};
/// use parmatch_list::random_list;
/// use parmatch_pram::ExecMode;
///
/// let list = random_list(1 << 10, 1);
/// let out = match4_pram(&list, 2, None, CoinVariant::Msb, ExecMode::Checked).unwrap();
/// verify::assert_maximal_matching(&list, &out.matching);
/// // optimality: p·T = O(n) at the Theorem-1 operating point
/// let eff = (out.cols as u64 * out.stats.steps) as f64 / 1024.0;
/// assert!(eff < 30.0);
/// ```
pub fn match4_pram(
    list: &LinkedList,
    i: u32,
    rows_override: Option<usize>,
    variant: CoinVariant,
    mode: ExecMode,
) -> Result<Match4Pram, PramError> {
    assert!(i >= 1, "partition parameter i must be ≥ 1");
    let n = list.len();
    if n < 2 {
        return Ok(Match4Pram {
            matching: Matching::empty(n),
            stats: Stats::default(),
            rows: 0,
            cols: 0,
            set_bound: 0,
        });
    }
    let mut m = match mode {
        ExecMode::Checked => Machine::new(Model::Crew, 0),
        ExecMode::Fast => Machine::new_fast(Model::Crew, 0),
    };
    let lr = load_list(&mut m, list);
    let (mask, rows, cols, bound) = match4_on(&mut m, &lr, i, rows_override, variant)?;
    let matching = Matching::from_mask(list, mask_from_region(&m, mask));
    Ok(Match4Pram {
        matching,
        stats: *m.stats(),
        rows,
        cols,
        set_bound: bound,
    })
}

/// Machine-composable core of Match4: run all five steps against a list
/// already resident in `lr` on an existing (CREW) machine, returning
/// `(matching-mask region, rows x, cols y, set bound)`. This is what the
/// contraction-ranking program calls once per level.
///
/// # Panics
///
/// Panics if `lr.n < 2`, `i == 0` or `rows_override` is below the set
/// bound.
pub fn match4_on(
    m: &mut Machine,
    lr: &super::ListRegions,
    i: u32,
    rows_override: Option<usize>,
    variant: CoinVariant,
) -> Result<(Region, usize, usize, Word), PramError> {
    assert!(i >= 1, "partition parameter i must be ≥ 1");
    let n = lr.n;
    assert!(n >= 2, "match4_on requires at least 2 nodes");
    let lr = *lr;
    let mut buf = LabelBuffers::alloc(m, n);

    // --- Step 1: partition into ≈ log^(i) n matching sets. ---
    if let Some(t) = m.trace_mut() {
        t.begin_phase("partition");
    }
    // p is derived from x, which is derived from the partition bound —
    // run the relabel rounds with a provisional p equal to the final
    // one; the bound cascade is data-independent, so compute it first.
    let final_bound = {
        let mut b = n as Word;
        for _ in 0..i {
            let w = parmatch_bits::ilog2_ceil(b).max(1);
            b = 2 * Word::from(w) + 1;
        }
        b
    };
    let x = match rows_override {
        Some(x) => {
            assert!(
                x as Word >= final_bound,
                "rows_override {x} below set bound {final_bound}"
            );
            x
        }
        None => final_bound as usize,
    };
    let p = n.div_ceil(x); // y columns, one processor each

    super::init_labels(m, &lr, &buf, p)?;
    let bound = relabel_k_rounds(m, &lr, &mut buf, i, n as Word, variant, p)?;
    debug_assert_eq!(bound, final_bound);
    let (label_a, _) = buf.front();

    // Sort keys: pointer set number; the tail node keys x-1 (pass-through).
    let key = m.alloc(n);
    par_for(m, n, p, move |ctx, v| {
        let nx = lr.next.get(ctx, v);
        let k = if nx == NIL_W {
            (x - 1) as Word
        } else {
            label_a.get(ctx, v)
        };
        key.set(ctx, v, k);
    })?;

    // --- Step 2: per-column sequential counting sort. ---
    // Column c owns slots [c·x, min((c+1)·x, n)).
    if let Some(t) = m.trace_mut() {
        t.begin_phase("column-sort");
    }
    let hist = m.alloc(p * x); // zeroed: per-column histogram
    let sorted = m.alloc(n); // sorted[c·x + r] = node
    let keys_sorted = m.alloc(n); // the A arrays
    let row_of = m.alloc(n);
    let col_len = move |c: usize| -> usize { ((c + 1) * x).min(n) - c * x };

    // histogram pass: x steps (proc c reads its column top-down)
    for t in 0..x {
        m.step(p, |ctx| {
            let c = ctx.pid();
            if t >= col_len(c) {
                return;
            }
            let v = c * x + t;
            let k = key.get(ctx, v) as usize;
            let slot = c * x + k;
            let cnt = hist.get(ctx, slot);
            hist.set(ctx, slot, cnt + 1);
        })?;
    }
    // prefix pass over each column's histogram: x steps, accumulator in
    // a per-processor cell
    let acc = m.alloc(p); // zeroed
    for t in 0..x {
        m.step(p, |ctx| {
            let c = ctx.pid();
            let slot = c * x + t;
            let h = hist.get(ctx, slot);
            let a = acc.get(ctx, c);
            hist.set(ctx, slot, a); // histogram becomes scatter base
            acc.set(ctx, c, a + h);
        })?;
    }
    // scatter pass: x steps
    for t in 0..x {
        m.step(p, |ctx| {
            let c = ctx.pid();
            if t >= col_len(c) {
                return;
            }
            let v = c * x + t;
            let k = key.get(ctx, v) as usize;
            let slot = c * x + k;
            let r = hist.get(ctx, slot) as usize;
            hist.set(ctx, slot, (r + 1) as Word);
            sorted.set(ctx, c * x + r, v as Word);
            keys_sorted.set(ctx, c * x + r, k as Word);
            row_of.set(ctx, v, r as Word);
        })?;
    }

    // predecessors (for the greedy color picks)
    let pred = m.alloc(n);
    for idx in 0..n {
        m.poke(pred.addr(idx), NIL_W);
    }
    par_for(m, n, p, move |ctx, v| {
        let w = lr.next.get(ctx, v);
        if w != NIL_W {
            pred.set(ctx, w as usize, v as Word);
        }
    })?;

    // colors, initialized to UNCOLORED in one sweep
    let color = m.alloc(n);
    par_for(m, n, p, move |ctx, v| color.set(ctx, v, UNCOLORED_W))?;

    // shared greedy color pick (reads are CREW)
    let pick = move |ctx: &mut ProcCtx<'_>, v: usize, w: usize, color: Region, pred: Region| {
        let pu = pred.get(ctx, v);
        let left = if pu == NIL_W {
            UNCOLORED_W
        } else {
            color.get(ctx, pu as usize)
        };
        let right = if lr.next.get(ctx, w) == NIL_W {
            UNCOLORED_W
        } else {
            color.get(ctx, w)
        };
        let c = (0..3 as Word)
            .find(|&c| c != left && c != right)
            .expect("3 colors suffice");
        color.set(ctx, v, c);
    };

    // --- Step 3: WalkDown1 — inter-row pointers, x lockstep rounds. ---
    if let Some(t) = m.trace_mut() {
        t.begin_phase("walkdown1");
    }
    for r in 0..x {
        m.step(p, |ctx| {
            let c = ctx.pid();
            if r >= col_len(c) {
                return;
            }
            let v = sorted.get(ctx, c * x + r) as usize;
            let w = lr.next.get(ctx, v);
            if w == NIL_W {
                return;
            }
            let w = w as usize;
            if row_of.get(ctx, v) == row_of.get(ctx, w) {
                return; // intra-row: WalkDown2's job
            }
            pick(ctx, v, w, color, pred);
        })?;
    }

    // --- Step 4: WalkDown2 — intra-row pointers, 2x-1 pipelined steps. ---
    if let Some(t) = m.trace_mut() {
        t.begin_phase("walkdown2");
    }
    let index = m.alloc(p); // zeroed
    let count = m.alloc(p); // zeroed
    for _k in 0..(2 * x - 1) {
        m.step(p, |ctx| {
            let c = ctx.pid();
            let idx = index.get(ctx, c) as usize;
            if idx >= col_len(c) {
                return;
            }
            let cnt = count.get(ctx, c);
            if keys_sorted.get(ctx, c * x + idx) != cnt {
                count.set(ctx, c, cnt + 1);
                return;
            }
            index.set(ctx, c, (idx + 1) as Word);
            let v = sorted.get(ctx, c * x + idx) as usize;
            let w = lr.next.get(ctx, v);
            if w == NIL_W {
                return;
            }
            let w = w as usize;
            if row_of.get(ctx, v) != row_of.get(ctx, w) {
                return; // inter-row: already colored
            }
            pick(ctx, v, w, color, pred);
        })?;
    }

    // --- Step 5: greedy sweep of the 3 color classes. ---
    if let Some(t) = m.trace_mut() {
        t.begin_phase("sweep");
    }
    let done = m.alloc(n); // zeroed
    let mask = m.alloc(n); // zeroed
    for cls in 0..3 as Word {
        par_for(m, n, p, move |ctx, v| {
            if color.get(ctx, v) != cls {
                return;
            }
            let w = lr.next.get(ctx, v) as usize;
            if done.get(ctx, v) == 0 && done.get(ctx, w) == 0 {
                done.set(ctx, v, 1);
                done.set(ctx, w, 1);
                mask.set(ctx, v, 1);
            }
        })?;
    }

    Ok((mask, x, p, bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use parmatch_list::{random_list, reversed_list, sequential_list};

    #[test]
    fn maximal_and_crew_legal() {
        for seed in 0..4 {
            let list = random_list(900, seed);
            let out = match4_pram(&list, 2, None, CoinVariant::Msb, ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
            assert_eq!(out.cols, 900usize.div_ceil(out.rows));
        }
    }

    #[test]
    fn step_count_is_linear_in_rows() {
        // steps ≈ (i + c)·x: doubling x (halving p) roughly doubles steps.
        let list = random_list(1 << 12, 3);
        let base = match4_pram(&list, 2, Some(16), CoinVariant::Msb, ExecMode::Fast).unwrap();
        let dbl = match4_pram(&list, 2, Some(32), CoinVariant::Msb, ExecMode::Fast).unwrap();
        let ratio = dbl.stats.steps as f64 / base.stats.steps as f64;
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn default_rows_equal_set_bound() {
        let list = random_list(1 << 10, 1);
        let out = match4_pram(&list, 2, None, CoinVariant::Msb, ExecMode::Fast).unwrap();
        assert_eq!(out.rows as Word, out.set_bound);
    }

    #[test]
    fn work_stays_linear_at_theorem1_p() {
        // Optimality: p·T = O(n) when x = set bound.
        let list = random_list(1 << 13, 8);
        let out = match4_pram(&list, 3, None, CoinVariant::Msb, ExecMode::Fast).unwrap();
        let per_node = out.stats.work as f64 / (1 << 13) as f64;
        assert!(per_node < 30.0, "work/n = {per_node}");
    }

    #[test]
    fn matches_for_each_i_and_layout() {
        for i in 1..=4 {
            for list in [
                random_list(700, 5),
                sequential_list(700),
                reversed_list(700),
            ] {
                let out = match4_pram(&list, i, None, CoinVariant::Lsb, ExecMode::Checked).unwrap();
                verify::assert_maximal_matching(&list, &out.matching);
            }
        }
    }

    #[test]
    fn rows_override_sweeps_p() {
        let list = random_list(2048, 2);
        for x in [32usize, 64, 256, 2048] {
            let out = match4_pram(&list, 2, Some(x), CoinVariant::Msb, ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
            assert_eq!(out.rows, x);
        }
    }

    #[test]
    #[should_panic(expected = "below set bound")]
    fn rows_override_too_small() {
        let list = random_list(256, 1);
        let _ = match4_pram(&list, 1, Some(2), CoinVariant::Msb, ExecMode::Checked);
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out = match4_pram(
                &sequential_list(n),
                2,
                None,
                CoinVariant::Msb,
                ExecMode::Checked,
            )
            .unwrap();
            assert!(out.matching.is_empty());
        }
        for n in 2..8 {
            let list = random_list(n, 3);
            let out = match4_pram(&list, 1, None, CoinVariant::Msb, ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }
}
