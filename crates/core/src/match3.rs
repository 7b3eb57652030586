//! Algorithm Match3 (rayon-native form) — the Han/Beame table-lookup
//! algorithm.
//!
//! ```text
//! Step 1. label[v] := address of v
//! Step 2. k rounds of label[v] := f(<label[v], label[suc(v)]>)
//!         ("number crunching": labels shrink to ≤ log^(k) n bits)
//! Step 3. for t := 1 .. j:   (j ≈ log G(n))
//!             label[v] := label[v] ‖ label[NEXT[v]];  NEXT[v] := NEXT[NEXT[v]]
//!         (pointer-jumping concatenation: label[v] becomes the window
//!          of 2^j consecutive crunched labels)
//! Step 4. label[v] := T[label[v]]     (one probe: a constant)
//! Step 5–6. steps 3–4 of Match1
//! ```
//!
//! Time `O(n·log G(n)/p + log G(n))` (Lemma 5). Not optimal, but the
//! fastest known; the table `T` and its size/constructibility trade-off
//! live in [`crate::table`].

use crate::finish::from_labels_core;
use crate::labels::relabel_rounds;
use crate::matching::Matching;
use crate::obs::Observer;
use crate::table::{window_args, TableError, TupleTable};
use crate::workspace::{Workspace, CHUNK};
use crate::CoinVariant;
use parmatch_bits::{g_of, ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId};
use rayon::prelude::*;

/// Tuning of Match3.
#[derive(Debug, Clone, Copy)]
pub struct Match3Config {
    /// Crunch rounds `k` of step 2. The paper notes `k > 4` lets the
    /// table be built with < n processors; computationally `k = 3`
    /// already collapses any 64-bit `n` to 4-bit labels.
    pub crunch_rounds: u32,
    /// Jump rounds `j` of step 3 (`None`: choose the largest `j ≤
    /// ⌈log₂ G(n)⌉` whose table fits `max_table_bits`).
    pub jump_rounds: Option<u32>,
    /// Cap on the table's index width in bits.
    pub max_table_bits: u32,
    /// Coin-tossing variant.
    pub variant: CoinVariant,
}

impl Default for Match3Config {
    fn default() -> Self {
        Self {
            crunch_rounds: 3,
            jump_rounds: None,
            max_table_bits: 22,
            variant: CoinVariant::Msb,
        }
    }
}

/// Failure modes of a Match3 run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Match3Error {
    /// The requested table exceeds the configured size cap; crunch more
    /// (larger `k`) or jump less.
    Table(TableError),
    /// `crunch_rounds` was zero.
    NoCrunch,
}

impl std::fmt::Display for Match3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Match3Error::Table(e) => write!(f, "lookup table: {e}"),
            Match3Error::NoCrunch => write!(f, "crunch_rounds must be ≥ 1"),
        }
    }
}

impl std::error::Error for Match3Error {}

impl From<TableError> for Match3Error {
    fn from(e: TableError) -> Self {
        Match3Error::Table(e)
    }
}

/// Result of a Match3 run.
#[derive(Debug, Clone)]
pub struct Match3Output {
    /// The maximal matching.
    pub matching: Matching,
    /// Crunch rounds used (`k`).
    pub crunch_rounds: u32,
    /// Jump rounds used (`j`); the window length is `2^j`.
    pub jump_rounds: u32,
    /// Index width of the lookup table in bits.
    pub table_bits: u32,
    /// Exclusive bound on post-lookup labels (the "constant not related
    /// to n").
    pub final_bound: Word,
}

/// Match3 in the buffers of `ws`: byte-label crunch rounds,
/// double-buffered pointer jumping over `Word` label windows, and a
/// **cached lookup table** — a steady-state rerun with the same
/// configuration skips the table enumeration entirely.
///
/// `obs` sees a `match3` span around the crunch `relabel`, `jump`,
/// `probe` and `finish` phases. An auditing observer also gets the jump
/// rounds and window width, the table index width and value bound, and
/// the total work units audited against Lemma 5's `O(n·log G(n))` form.
/// An error return (table too large) may leave the `match3` span open;
/// [`crate::obs::Recorder`] closes it on finish.
pub(crate) fn run<O: Observer>(
    list: &LinkedList,
    config: Match3Config,
    ws: &mut Workspace,
    obs: &mut O,
) -> Result<Match3Output, Match3Error> {
    if config.crunch_rounds == 0 {
        return Err(Match3Error::NoCrunch);
    }
    let n = list.len();
    if n < 2 {
        return Ok(Match3Output {
            matching: Matching::empty(n),
            crunch_rounds: config.crunch_rounds,
            jump_rounds: 0,
            table_bits: 0,
            final_bound: 0,
        });
    }

    ws.prepare_next_cyc(list);
    ws.prepare_pred(list);

    // Step 2: crunch, into byte labels.
    obs.enter("match3");
    if O::ENABLED {
        obs.counter("n", n as u64);
    }
    let crunch_bound = {
        let Workspace {
            next_cyc,
            labels_a,
            labels_b,
            ..
        } = &mut *ws;
        let next_cyc: &[NodeId] = next_cyc;
        relabel_rounds(
            &|u: NodeId| next_cyc[u as usize],
            &[0, n],
            labels_a,
            labels_b,
            config.crunch_rounds,
            config.variant,
            obs,
        )
    };
    let w = ilog2_ceil(crunch_bound).max(1);

    // Pick j: ≈ log G(n), capped so the table index (w·2^j bits) fits.
    let j = match config.jump_rounds {
        Some(j) => j,
        None => {
            let want = ilog2_ceil(Word::from(g_of(n as Word).max(1))).max(1);
            let mut j = want;
            while j > 1 && w * (1 << j) > config.max_table_bits {
                j -= 1;
            }
            j
        }
    };
    // Window length; a table needs at least two arguments, so from here
    // on j ≥ 1.
    let m = window_args(j, config.max_table_bits)?;
    ws.table_ensure(w, m, config.variant, config.max_table_bits)?;

    let Workspace {
        next_cyc,
        pred,
        labels_a,
        labels_b,
        win_a,
        win_b,
        nxt_a,
        nxt_b,
        table_cache,
        ..
    } = ws;
    let table = &table_cache.as_ref().expect("table just ensured").1;

    // Step 3: pointer-jumping concatenation along the *cyclic* order (so
    // windows near the tail wrap to the head, keeping the label sequence
    // adjacent-distinct — see crate::table). Every round but the last
    // stores its window and jump pointer; the first reads the byte
    // labels and jumps from `next_cyc` itself. A stored window is at
    // most half the table index, which `TupleTable::build` keeps below
    // 32 bits, so it fits a `u16`.
    let mut width = w;
    if j > 1 {
        win_a.resize(n, 0);
        nxt_a.resize(n, 0);
        store_round(labels_a, next_cyc, width, win_a, nxt_a);
        width *= 2;
    }
    for _ in 2..j {
        win_b.resize(n, 0);
        nxt_b.resize(n, 0);
        store_round(win_a, nxt_a, width, win_b, nxt_b);
        std::mem::swap(win_a, win_b);
        std::mem::swap(nxt_a, nxt_b);
        width *= 2;
    }
    obs.enter("jump");
    if O::ENABLED {
        obs.counter("rounds", u64::from(j));
        obs.counter("window", u64::from(m));
        obs.counter("window_bits", u64::from(2 * width));
    }
    obs.exit();

    // Step 4, fused into the last jump round: probe the table at the
    // window that round would store, straight into byte labels (table
    // values stay below `2·entry_bits + 1 ≤ 31`). The source labels are
    // still being gathered, so the probe writes the other byte buffer.
    debug_assert!(table.value_bound() <= 256);
    labels_b.resize(n, 0);
    if j == 1 {
        probe_round(labels_a, next_cyc, width, table, labels_b);
    } else {
        probe_round(win_a, nxt_a, width, table, labels_b);
    }
    obs.enter("probe");
    if O::ENABLED {
        obs.counter("probes", n as u64);
        obs.counter("table_bits", u64::from(w * m));
        obs.counter("value_bound", table.value_bound());
    }
    obs.exit();

    // Steps 5–6: Match1 steps 3–4.
    // The last jump round was `next_cyc`'s last reader: it now takes the
    // finisher's stop successors.
    let matching = from_labels_core(list, labels_b, pred, next_cyc, table.value_bound(), obs);
    if O::ENABLED {
        // crunch·n, two passes per stored jump round (window, jump
        // pointer), the probe round, the finisher's two passes (cut,
        // walk).
        let passes = u64::from(config.crunch_rounds) + 2 * u64::from(j) + 1;
        let wu = n as u64 * passes;
        obs.bounded("work_units", wu, passes * n as u64 + 64);
        obs.counter("work_per_node_x100", wu * 100 / n as u64);
    }
    obs.exit();
    Ok(Match3Output {
        matching,
        crunch_rounds: config.crunch_rounds,
        jump_rounds: j,
        table_bits: w * m,
        final_bound: table.value_bound(),
    })
}

/// One stored jump round: `win[v] = lab[v] ‖ lab[s]` (each half
/// `half` bits wide), then `nxt[v] = nx[s]`, with `s = nx[v]`. Two
/// passes, each with one gather per node: on a random 2^22-node list
/// they ran 0.88× the time of one pass that writes both (likely because
/// a loop with two gathers keeps fewer misses in flight), though 1.4× on
/// a cache-resident layout.
fn store_round<L>(lab: &[L], nx: &[NodeId], half: u32, win: &mut [u16], nxt: &mut [NodeId])
where
    L: Copy + Sync,
    u16: From<L>,
{
    debug_assert!(2 * half <= 16, "stored window of {} bits", 2 * half);
    win.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (v, slot) in (base..).zip(chunk.iter_mut()) {
                *slot = (u16::from(lab[v]) << half) | u16::from(lab[nx[v] as usize]);
            }
        });
    nxt.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (v, slot) in (base..).zip(chunk.iter_mut()) {
                *slot = nx[nx[v] as usize];
            }
        });
}

/// The last jump round with the probe fused in:
/// `out[v] = T[lab[v] ‖ lab[nx[v]]]`.
fn probe_round<L>(lab: &[L], nx: &[NodeId], half: u32, table: &TupleTable, out: &mut [u8])
where
    L: Copy + Sync,
    Word: From<L>,
{
    out.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            for (v, slot) in (base..).zip(chunk.iter_mut()) {
                let s = nx[v] as usize;
                *slot = table.probe((Word::from(lab[v]) << half) | Word::from(lab[s])) as u8;
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, Runner, RunnerError};
    use crate::verify;
    use parmatch_list::{random_list, reversed_list, sequential_list};

    fn match3(list: &LinkedList, config: Match3Config) -> Result<Match3Output, Match3Error> {
        match Runner::new(Algorithm::Match3).config(config).try_run(list) {
            Ok(out) => Ok(out.as_match3().expect("match3 outcome").clone()),
            Err(RunnerError::Match3(e)) => Err(e),
        }
    }

    #[test]
    fn maximal_with_default_config() {
        for seed in 0..6 {
            let list = random_list(1 << 13, seed);
            let out = match3(&list, Match3Config::default()).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
            assert!(out.final_bound <= 16, "bound {}", out.final_bound);
        }
    }

    #[test]
    fn post_lookup_labels_are_adjacent_distinct() {
        // The invariant Match3 step 5 relies on, checked through the
        // public surface: the matching is maximal for every layout.
        for list in [
            sequential_list(5000),
            reversed_list(5000),
            random_list(5000, 3),
        ] {
            let out = match3(&list, Match3Config::default()).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn explicit_jump_rounds() {
        let list = random_list(4096, 7);
        for j in 1..=2 {
            let cfg = Match3Config {
                jump_rounds: Some(j),
                ..Match3Config::default()
            };
            let out = match3(&list, cfg).unwrap();
            assert_eq!(out.jump_rounds, j);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn lsb_variant() {
        let list = random_list(3000, 1);
        let cfg = Match3Config {
            variant: CoinVariant::Lsb,
            ..Match3Config::default()
        };
        let out = match3(&list, cfg).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
    }

    #[test]
    fn insufficient_crunch_overflows_table() {
        // One crunch round on a big list leaves 6-bit labels: a 4-window
        // table (24 bits) exceeds a 16-bit cap, and an 8-window table
        // (48 bits) passes a 64-bit cap but no table holds it. Both must
        // be refused before any window is stored, never wrapped into a
        // `u16` window.
        let list = random_list(1 << 16, 2);
        for (jumps, max_bits, bits) in [(2, 16, 24), (3, 64, 48)] {
            let cfg = Match3Config {
                crunch_rounds: 1,
                jump_rounds: Some(jumps),
                max_table_bits: max_bits,
                ..Match3Config::default()
            };
            assert_eq!(
                match3(&list, cfg).unwrap_err(),
                Match3Error::Table(TableError::TooLarge { bits, max_bits })
            );
        }
    }

    #[test]
    fn post_probe_labels_fold_each_cyclic_window() {
        // The byte labels the finisher reads are, at every node, the
        // table fold of the crunched labels of its 2^j cyclic
        // successors, the node itself first. Small lists wrap their
        // windows around the cycle more than once.
        use crate::obs::NoopObserver;
        use crate::table::fold_value;
        let n = 3 * CHUNK + 5;
        for list in [
            random_list(n, 4),
            sequential_list(n),
            reversed_list(n),
            random_list(3, 5),
            random_list(5, 6),
        ] {
            for j in [1, 2] {
                let cfg = Match3Config {
                    jump_rounds: Some(j),
                    ..Match3Config::default()
                };
                let mut ws = Workspace::new();
                let out = run(&list, cfg, &mut ws, &mut NoopObserver).unwrap();
                let m = 1usize << j;
                let w = out.table_bits / m as u32;
                let (crunched, probed) = (&ws.labels_a, &ws.labels_b);
                let mut window = vec![0 as Word; m];
                for v in 0..list.len() as NodeId {
                    let mut u = v;
                    for slot in window.iter_mut() {
                        *slot = Word::from(crunched[u as usize]);
                        u = list.next_cyclic(u);
                    }
                    assert_eq!(
                        Word::from(probed[v as usize]),
                        fold_value(&window, w, cfg.variant),
                        "n = {} j = {j} node {v}",
                        list.len()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_crunch_rejected() {
        let list = sequential_list(16);
        let cfg = Match3Config {
            crunch_rounds: 0,
            ..Match3Config::default()
        };
        assert_eq!(match3(&list, cfg).unwrap_err(), Match3Error::NoCrunch);
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out = match3(&sequential_list(n), Match3Config::default()).unwrap();
            assert!(out.matching.is_empty());
        }
        let list = sequential_list(2);
        let out = match3(&list, Match3Config::default()).unwrap();
        assert_eq!(out.matching.len(), 1);
    }

    #[test]
    fn error_display() {
        assert!(Match3Error::NoCrunch.to_string().contains("crunch"));
        let e = Match3Error::from(TableError::Degenerate);
        assert!(e.to_string().contains("table"));
    }
}
