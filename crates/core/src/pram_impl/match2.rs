//! Match2 on the simulated PRAM.
//!
//! Exact realization of Algorithm Match2 with `p` virtual processors:
//!
//! * step 1: `k` relabel rounds → pointer set numbers in
//!   `{0 .. S-1}`, `S ≈ 2·log^(k) n`;
//! * step 2: **the global sort** — stable parallel counting sort by set
//!   number: per-processor histograms over strided chunks
//!   (`⌈n/p⌉` steps), a work-efficient exclusive scan over the
//!   `(S+1)·p` counters (`O(S + log p)` steps), and a scatter sweep
//!   (`⌈n/p⌉` steps). This is the step whose cost the paper pinpoints
//!   as the obstacle to using more than `n/log n` processors;
//! * step 3: sweep the sets in order; within a set, add every pointer
//!   whose `DONE` bits are both clear (legal in parallel because a set
//!   is a matching).
//!
//! Total: `O(n/p + S + log p)` steps — Lemma 4's `O(n/p + log n)`.

use super::{
    init_labels, load_list, mask_from_region, par_for, relabel_k_rounds, scan_exclusive,
    LabelBuffers, NIL_W,
};
use crate::matching::Matching;
use crate::CoinVariant;
use parmatch_list::LinkedList;
use parmatch_pram::{ExecMode, Machine, Model, PramError, Stats, Word};

/// Result of [`match2_pram`].
#[derive(Debug, Clone)]
pub struct Match2Pram {
    /// The maximal matching (extracted host-side).
    pub matching: Matching,
    /// Exact simulated step/work counts.
    pub stats: Stats,
    /// Steps spent in the sort (step 2) alone — the paper's bottleneck,
    /// reported separately for the E5 experiment.
    pub sort_steps: u64,
    /// Set-number bound `S` after step 1.
    pub set_bound: Word,
}

/// Run Match2 on a fresh EREW machine with `p` virtual processors and
/// `k = partition_rounds` relabel rounds (the paper's `log^(2) n`-set
/// partition is `k = 2`).
pub fn match2_pram(
    list: &LinkedList,
    p: usize,
    partition_rounds: u32,
    variant: CoinVariant,
    mode: ExecMode,
) -> Result<Match2Pram, PramError> {
    assert!(partition_rounds >= 1, "at least one partition round");
    let n = list.len();
    if n < 2 {
        return Ok(Match2Pram {
            matching: Matching::empty(n),
            stats: Stats::default(),
            sort_steps: 0,
            set_bound: 0,
        });
    }
    let p = p.max(1);
    let mut m = match mode {
        ExecMode::Checked => Machine::new(Model::Erew, 0),
        ExecMode::Fast => Machine::new_fast(Model::Erew, 0),
    };
    let lr = load_list(&mut m, list);
    let mut buf = LabelBuffers::alloc(&mut m, n);

    // Step 1: partition.
    if let Some(t) = m.trace_mut() {
        t.begin_phase("partition");
    }
    init_labels(&mut m, &lr, &buf, p)?;
    let bound = relabel_k_rounds(
        &mut m,
        &lr,
        &mut buf,
        partition_rounds,
        n as Word,
        variant,
        p,
    )?;
    let (label_a, _) = buf.front();
    let s_buckets = bound as usize + 1; // extra bucket for the tail node

    // Pointer set numbers: set[v] = label[v], tail node in the last
    // bucket (skipped by the sweep).
    let set = m.alloc(n);
    par_for(&mut m, n, p, move |ctx, v| {
        let nx = lr.next.get(ctx, v);
        let s = if nx == NIL_W {
            bound
        } else {
            label_a.get(ctx, v)
        };
        set.set(ctx, v, s);
    })?;

    // ---- Step 2: stable counting sort by set number ----
    if let Some(t) = m.trace_mut() {
        t.begin_phase("sort");
    }
    let sort_start = m.stats().steps;
    let hist_len = (s_buckets * p).next_power_of_two();
    let hist = m.alloc(hist_len); // zeroed on alloc
                                  // Per-processor histograms over strided chunks: element e belongs to
                                  // processor e mod p; layout set-major (s·p + q) so the exclusive
                                  // scan yields per-(set, proc) scatter bases in set order.
    par_for(&mut m, n, p, move |ctx, e| {
        let q = ctx.pid();
        let s = set.get(ctx, e) as usize;
        let slot = s * p + q;
        let c = hist.get(ctx, slot);
        hist.set(ctx, slot, c + 1);
    })?;
    scan_exclusive(&mut m, hist, p)?;
    // Scatter: processor q re-walks its strided elements in order,
    // placing each at its bucket cursor (the scanned base, bumped in
    // place) — stable and write-exclusive.
    let sorted = m.alloc(n);
    par_for(&mut m, n, p, move |ctx, e| {
        let q = ctx.pid();
        let s = set.get(ctx, e) as usize;
        let slot = s * p + q;
        let dest = hist.get(ctx, slot);
        hist.set(ctx, slot, dest + 1);
        sorted.set(ctx, dest as usize, e as Word);
    })?;
    let sort_steps = m.stats().steps - sort_start;

    // Host reads the set offsets (global control flow): offset of set s
    // is the scanned base of slot (s, 0) before the scatter bumped it —
    // recover it as base(s,0) = base(s+1,0) - count(s)… simpler: the
    // scatter leaves hist[s·p + q] = end of (s,q)'s range, so set s ends
    // at hist[s·p + (p-1)] and starts at the previous set's end.
    let mut offsets = Vec::with_capacity(s_buckets + 1);
    offsets.push(0u64);
    for s in 0..s_buckets {
        offsets.push(m.peek(hist.addr(s * p + (p - 1))));
    }

    // ---- Step 3: greedy sweep over the sets ----
    if let Some(t) = m.trace_mut() {
        t.begin_phase("sweep");
    }
    let done = m.alloc(n); // zeroed
    let mask = m.alloc(n); // zeroed
    for s in 0..bound as usize {
        let lo = offsets[s] as usize;
        let hi = offsets[s + 1] as usize;
        if lo == hi {
            continue;
        }
        par_for(&mut m, hi - lo, p, move |ctx, idx| {
            let v = sorted.get(ctx, lo + idx) as usize;
            let w = lr.next.get(ctx, v) as usize;
            if done.get(ctx, v) == 0 && done.get(ctx, w) == 0 {
                done.set(ctx, v, 1);
                done.set(ctx, w, 1);
                mask.set(ctx, v, 1);
            }
        })?;
    }

    let matching = Matching::from_mask(list, mask_from_region(&m, mask));
    Ok(Match2Pram {
        matching,
        stats: *m.stats(),
        sort_steps,
        set_bound: bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use parmatch_list::{random_list, reversed_list, sequential_list};

    #[test]
    fn maximal_and_erew_legal() {
        for seed in 0..4 {
            let list = random_list(700, seed);
            let out = match2_pram(&list, 16, 2, CoinVariant::Msb, ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn sort_is_the_dominant_phase_at_high_p() {
        // Past p = n/log n the additive scan term keeps the sort cost up
        // while the sweeps shrink — the paper's criticism made visible.
        let list = random_list(1 << 12, 9);
        let out = match2_pram(&list, 1 << 11, 2, CoinVariant::Msb, ExecMode::Fast).unwrap();
        assert!(
            2 * out.sort_steps > out.stats.steps,
            "sort {} of {}",
            out.sort_steps,
            out.stats.steps
        );
    }

    #[test]
    fn step_count_scales_inversely_until_log_n() {
        let list = random_list(1 << 12, 4);
        let s1 = match2_pram(&list, 1, 2, CoinVariant::Msb, ExecMode::Fast)
            .unwrap()
            .stats
            .steps;
        let s64 = match2_pram(&list, 64, 2, CoinVariant::Msb, ExecMode::Fast)
            .unwrap()
            .stats
            .steps;
        assert!(s1 > 20 * s64, "s1={s1} s64={s64}");
    }

    #[test]
    fn matches_quality_band() {
        let list = random_list(3000, 6);
        let out = match2_pram(&list, 32, 2, CoinVariant::Lsb, ExecMode::Checked).unwrap();
        let len = out.matching.len();
        let ptrs = list.pointer_count();
        assert!(
            3 * len >= ptrs && 2 * len <= ptrs + 1,
            "len={len} ptrs={ptrs}"
        );
    }

    #[test]
    fn structured_layouts() {
        for list in [sequential_list(513), reversed_list(400)] {
            let out = match2_pram(&list, 8, 2, CoinVariant::Msb, ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out = match2_pram(
                &sequential_list(n),
                4,
                2,
                CoinVariant::Msb,
                ExecMode::Checked,
            )
            .unwrap();
            assert!(out.matching.is_empty());
        }
    }
}
