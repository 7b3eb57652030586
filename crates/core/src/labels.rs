//! Node labels and the matching partition function `f`.
//!
//! Section 2 of the paper assigns every node `v` a label, initially its
//! own array address, and repeatedly replaces it by
//! `label[v] := f(<label[v], label[suc(v)]>)` where
//!
//! ```text
//! f(<a, b>) = 2k + a_k,   k = the chosen differing bit of a XOR b
//! ```
//!
//! (`k` is the most significant differing bit in the paper's intuitive
//! definition, the least significant in the computational variant of the
//! appendix; see [`CoinVariant`]). Each application shrinks the label
//! range from `n` to `O(log n)` — *deterministic coin tossing*.
//!
//! Two boundary details the paper leaves informal are made explicit here:
//!
//! * **the tail wrap**: `f` at the last element uses the first element's
//!   label (paper, Section 2). After a few rounds the two can coincide,
//!   so this module uses the *total* extension [`f_ext`] that maps an
//!   equal pair to a sentinel one past the pair range. `f_ext` is still
//!   a matching partition function, and it preserves the invariant that
//!   **cyclically adjacent labels stay pairwise distinct** (see
//!   [`LabelSeq::relabel`]) — the property every later stage relies on;
//! * **the label bound**: [`LabelSeq`] carries a proven upper bound on
//!   its labels, which after one round of width `w = ⌈log₂ bound⌉`
//!   becomes `2w + 2` (values `2k + bit < 2w`, sentinel `2w`, so bound
//!   `2w + 1`); the bound sequence is exactly the `2·log^(k) n (1+o(1))`
//!   cascade of Lemma 2.
//!
//! The native pipelines run the rounds through one production kernel,
//! `relabel_rounds`. Round 1 reads only the successor array and computes
//! `f_ext(v, suc(v))` straight from the addresses. Every label after it
//! is below `2⌈log₂ n⌉ + 1 ≤ 65`, so the kernel stores labels as bytes
//! from then on, and each later round gathers from an `n`-byte array —
//! the paper's appendix likewise works on `O(log log n)`-bit labels.
//! [`LabelSeq`] stays on `Word` labels as the independent reference
//! oracle the kernel is tested against.

use crate::obs::Observer;
use crate::workspace::CHUNK;
use parmatch_bits::coin::CoinVariant;
use parmatch_bits::{ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId};
use rayon::prelude::*;

// After one round every label is below `2⌈log₂ n⌉ + 1 ≤ 2·NodeId::BITS + 1`,
// so the production kernel stores labels as bytes from round 1 on.
const _: () = assert!(2 * NodeId::BITS + 1 < 256);

/// Bit width used by a relabel round starting from `bound`.
#[inline]
fn width_of(bound: Word) -> u32 {
    ilog2_ceil(bound).max(1)
}

/// Number of rounds `relabel_to_convergence` performs starting from
/// `bound` — a pure function of the bound cascade `b → 2⌈log₂ b⌉ + 1`,
/// independent of the data (Lemma 2's `G(n) + O(1)`). Delegates to
/// [`parmatch_bits::cascade_rounds`], the closed form the cost
/// predictors and bound audits share.
pub(crate) fn convergence_rounds(bound: Word) -> u32 {
    parmatch_bits::cascade_rounds(bound)
}

/// [`f_ext`] narrowed to a byte: its value is below `2w + 1`, and `w`
/// never exceeds `NodeId::BITS`.
#[inline]
fn f_byte(a: Word, b: Word, w: u32, variant: CoinVariant) -> u8 {
    let l = f_ext(a, b, w, variant);
    debug_assert!(l < 256, "label {l} does not fit a byte");
    l as u8
}

/// One label pass: `out[v] = label(v, origin)`, where `origin` starts
/// the job holding `v` (a job's nodes never leave its window).
fn label_pass<L>(origins: &[usize], out: &mut [u8], label: L)
where
    L: Fn(usize, usize) -> u8 + Sync,
{
    out.par_chunks_mut(CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * CHUNK;
            let end = base + chunk.len();
            // The job holding `base`, then every job window the chunk overlaps.
            let mut j = origins.partition_point(|&o| o <= base) - 1;
            let mut v = base;
            while v < end {
                let (origin, stop) = (origins[j], origins[j + 1].min(end));
                for (u, slot) in (v..stop).zip(&mut chunk[v - base..stop - base]) {
                    *slot = label(u, origin);
                }
                v = stop;
                j += 1;
            }
        });
}

/// Run `rounds` relabel rounds from address labels, leave the labels in
/// `labels` (one byte each, `alt` is the double buffer) and return the
/// final bound. Labels are bit-identical to `rounds` chained
/// [`LabelSeq::relabel`] calls from [`LabelSeq::initial`].
///
/// `origins` holds the job boundaries of the node array: `[0, n]` for
/// one list, a fused batch's offsets otherwise. Node `v` of job `j`
/// starts from its local address `v − origins[j]`, and the first job's
/// size is the initial bound, which every job shares (the batch key).
/// Round 1 reads only the successor array; each later round is one pass
/// whose random gather hits an `n`-byte array. With `rounds == 0` the
/// labels are the local addresses themselves, which must fit a byte.
///
/// The `relabel` span is opened and closed for every observer. An
/// auditing observer (`O::ENABLED`) runs the same passes and also gets a
/// `round` child per round: the round's width, new bound and a
/// [`census256`] of distinct labels audited against Lemma 1's `2w`, plus
/// the totals (`final_bound`, `bytes_touched`).
pub(crate) fn relabel_rounds<S, O: Observer>(
    suc: &S,
    origins: &[usize],
    labels: &mut Vec<u8>,
    alt: &mut Vec<u8>,
    rounds: u32,
    variant: CoinVariant,
    obs: &mut O,
) -> Word
where
    S: Fn(NodeId) -> NodeId + Sync,
{
    let n = *origins.last().expect("origins never empty");
    let mut bound = (origins[1] - origins[0]) as Word;
    obs.enter("relabel");
    if O::ENABLED {
        obs.counter("rounds", u64::from(rounds));
        obs.counter("initial_bound", bound);
    }
    labels.resize(n, 0);
    if rounds == 0 {
        label_pass(origins, labels, |u, o| {
            u8::try_from(u - o).expect("zero-round address labels fit a byte")
        });
    }
    for k in 1..=rounds {
        let w = width_of(bound);
        if k == 1 {
            // Straight from local addresses; no label is gathered.
            label_pass(origins, labels, |u, o| {
                let s = suc(u as NodeId) as usize;
                f_byte((u - o) as Word, (s - o) as Word, w, variant)
            });
        } else {
            alt.resize(n, 0);
            let input: &[u8] = labels;
            label_pass(origins, alt, |u, _| {
                let s = suc(u as NodeId) as usize;
                f_byte(Word::from(input[u]), Word::from(input[s]), w, variant)
            });
            std::mem::swap(labels, alt);
        }
        bound = 2 * Word::from(w) + 1;
        if O::ENABLED {
            obs.enter("round");
            obs.counter("k", u64::from(k));
            obs.counter("width_bits", u64::from(w));
            obs.counter("bound", bound);
            obs.bounded("distinct_labels", census256(labels), 2 * u64::from(w));
            obs.exit();
        }
    }
    if O::ENABLED {
        obs.counter("final_bound", bound);
        obs.counter("bytes_touched", crate::obs::relabel_bytes(n, rounds));
    }
    obs.exit();
    bound
}

/// Count distinct values in a byte label array. Parallel per-chunk
/// bitmask census, OR-reduced.
pub(crate) fn census256(labels: &[u8]) -> u64 {
    let nchunks = labels.len().div_ceil(CHUNK);
    let partial: Vec<[u64; 4]> = (0..nchunks)
        .into_par_iter()
        .map(|ci| {
            let mut m = [0u64; 4];
            for &l in &labels[ci * CHUNK..((ci + 1) * CHUNK).min(labels.len())] {
                m[usize::from(l >> 6)] |= 1 << (l & 63);
            }
            m
        })
        .collect();
    let mut mask = [0u64; 4];
    for m in partial {
        for (x, y) in mask.iter_mut().zip(m) {
            *x |= y;
        }
    }
    mask.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// The matching partition function on a pair of distinct labels:
/// `f(<a,b>) = 2k + a_k` with `k` the differing bit chosen by `variant`.
///
/// # Panics
///
/// Panics if `a == b` (no differing bit). Use [`f_ext`] for the total
/// extension.
#[inline]
pub fn f_pair(a: Word, b: Word, variant: CoinVariant) -> Word {
    let k = variant.diff_bit(a, b);
    2 * Word::from(k) + ((a >> k) & 1)
}

/// Total extension of [`f_pair`]: equal labels map to the sentinel
/// `2 * width_bits`, one past every value `f_pair` can produce on
/// `width_bits`-bit inputs.
///
/// `f_ext` is a matching partition function in the paper's sense: for a
/// triple `a, b, c` with `a ≠ b` **or** `b ≠ c` — but not both equalities
/// — `f_ext(a,b) ≠ f_ext(b,c)` whenever both pairs are unequal (the
/// classic argument), and when exactly one pair is equal its sentinel
/// differs from the other pair's in-range value.
#[inline]
pub fn f_ext(a: Word, b: Word, width_bits: u32, variant: CoinVariant) -> Word {
    if a == b {
        2 * Word::from(width_bits)
    } else {
        f_pair(a, b, variant)
    }
}

/// A labelling of the nodes of a list, with a proven exclusive upper
/// bound on the label values.
///
/// Invariant (established by [`LabelSeq::initial`] and preserved by
/// [`LabelSeq::relabel`]): labels of **cyclically adjacent** nodes are
/// distinct — `label[v] ≠ label[suc(v)]` for every real pointer and for
/// the tail→head wrap.
///
/// # Examples
///
/// ```
/// use parmatch_core::{CoinVariant, LabelSeq};
/// use parmatch_list::random_list;
///
/// let list = random_list(1 << 16, 1);
/// let l = LabelSeq::initial(&list, CoinVariant::Msb);
/// assert_eq!(l.bound(), 1 << 16);           // addresses
/// let l = l.relabel(&list);
/// assert_eq!(l.bound(), 2 * 16 + 1);        // Lemma 1
/// let l = l.relabel_to_convergence(&list);
/// assert!(l.bound() <= 9);                  // the fixed point
/// assert!(l.adjacent_distinct(&list));      // the invariant
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSeq {
    labels: Vec<Word>,
    bound: Word,
    variant: CoinVariant,
    rounds: u32,
}

impl LabelSeq {
    /// The initial labelling: `label[v] = v` (the node's address),
    /// bound `n`.
    ///
    /// Lists with fewer than 2 nodes have no pointers to partition; they
    /// get a (trivially converged) labelling with bound `max(n, 1)`
    /// rather than a panic, so edge-case callers need no special casing.
    pub fn initial(list: &LinkedList, variant: CoinVariant) -> Self {
        let n = list.len();
        Self {
            labels: (0..n as Word).collect(),
            bound: (n as Word).max(1),
            variant,
            rounds: 0,
        }
    }

    /// Wrap an externally produced label array with a caller-supplied
    /// exclusive bound — the hook the metamorphic tests use to replay
    /// rounds from a shifted or permuted label array. The round counter
    /// restarts at 0; the adjacent-distinct invariant is the caller's
    /// responsibility (as with [`LabelSeq::initial`], it is what later
    /// rounds preserve, not what this constructor checks).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` or any label is `>= bound`.
    pub fn from_labels(labels: Vec<Word>, bound: Word, variant: CoinVariant) -> Self {
        assert!(bound >= 1, "bound must be positive");
        assert!(
            labels.iter().all(|&l| l < bound),
            "label at or above the claimed bound"
        );
        Self {
            labels,
            bound,
            variant,
            rounds: 0,
        }
    }

    /// The labels, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[Word] {
        &self.labels
    }

    /// Exclusive upper bound on the label values.
    #[inline]
    pub fn bound(&self) -> Word {
        self.bound
    }

    /// Number of relabel rounds applied so far.
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The coin-tossing variant in use.
    #[inline]
    pub fn variant(&self) -> CoinVariant {
        self.variant
    }

    /// Label bit width `w = max(1, ⌈log₂ bound⌉)` of the current round.
    #[inline]
    pub fn width_bits(&self) -> u32 {
        ilog2_ceil(self.bound).max(1)
    }

    /// Bound after one more round: `2w + 1` (values `< 2w`, sentinel `2w`).
    #[inline]
    pub fn next_bound(&self) -> Word {
        2 * Word::from(self.width_bits()) + 1
    }

    /// Whether a further round can still shrink the bound.
    #[inline]
    pub fn converged(&self) -> bool {
        self.next_bound() >= self.bound
    }

    /// One round of deterministic coin tossing:
    /// `label[v] := f_ext(label[v], label[suc(v)])` for all nodes in
    /// parallel, the tail wrapping to the head (paper, Section 2).
    ///
    /// Preserves the adjacent-distinct invariant: if all cyclically
    /// adjacent labels differ beforehand, `f_ext(l_v, l_w) =
    /// f_ext(l_w, l_x)` would require either both pairs equal
    /// (excluded) or the classic `f` collision (impossible — at
    /// `k = diff(l_w, l_x)` the values `2k + (l_w)_k` and `2k + (l_v)_k
    /// = 2k + (l_w)_k` would force `(l_v)_k = (l_w)_k` at *their* top
    /// differing bit, contradiction).
    pub fn relabel(&self, list: &LinkedList) -> Self {
        assert_eq!(list.len(), self.labels.len(), "label/list size mismatch");
        let w = self.width_bits();
        let variant = self.variant;
        let labels = &self.labels;
        let new_labels: Vec<Word> = (0..list.len())
            .into_par_iter()
            .map(|v| {
                let s = list.next_cyclic(v as NodeId) as usize;
                f_ext(labels[v], labels[s], w, variant)
            })
            .collect();
        Self {
            labels: new_labels,
            bound: self.next_bound(),
            variant,
            rounds: self.rounds + 1,
        }
    }

    /// Apply `k` rounds of [`relabel`](Self::relabel), one freshly
    /// allocated label array per round. This chain is the reference
    /// oracle the byte-label production kernel is tested against.
    pub fn relabel_k(&self, list: &LinkedList, k: u32) -> Self {
        assert_eq!(list.len(), self.labels.len(), "label/list size mismatch");
        (0..k).fold(self.clone(), |l, _| l.relabel(list))
    }

    /// Relabel until the bound stops shrinking — `G(n) + O(1)` rounds —
    /// and return the converged labelling. This is step 2 of Match1 run
    /// to the fixed point. The round count is a pure function of the
    /// bound cascade, so the rounds are planned up front.
    pub fn relabel_to_convergence(&self, list: &LinkedList) -> Self {
        self.relabel_k(list, convergence_rounds(self.bound))
    }

    /// Check the adjacent-distinct invariant (used by tests and the
    /// verification harness; `O(n)`).
    pub fn adjacent_distinct(&self, list: &LinkedList) -> bool {
        (0..list.len()).into_par_iter().all(|v| {
            let s = list.next_cyclic(v as NodeId) as usize;
            s == v || self.labels[v] != self.labels[s]
        })
    }

    /// Largest label actually present (diagnostic).
    pub fn max_label(&self) -> Word {
        self.labels.par_iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_list::{random_list, sequential_list};

    #[test]
    fn f_pair_examples() {
        // a=0b0110, b=0b0100: msb diff at bit 1, a_1 = 1 -> 3
        assert_eq!(f_pair(0b0110, 0b0100, CoinVariant::Msb), 3);
        // lsb diff also at bit 1 here
        assert_eq!(f_pair(0b0110, 0b0100, CoinVariant::Lsb), 3);
        // a=5 (101), b=6 (110): msb diff bit 1, a_1=0 -> 2; lsb diff bit 0, a_0=1 -> 1
        assert_eq!(f_pair(5, 6, CoinVariant::Msb), 2);
        assert_eq!(f_pair(5, 6, CoinVariant::Lsb), 1);
    }

    #[test]
    fn f_pair_is_matching_partition_function() {
        // exhaustive check of the defining property on small labels
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            for a in 0u64..32 {
                for b in 0u64..32 {
                    for c in 0u64..32 {
                        if a != b && b != c {
                            assert_ne!(
                                f_pair(a, b, variant),
                                f_pair(b, c, variant),
                                "a={a} b={b} c={c} {variant:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn f_ext_sentinel_distinct() {
        let w = 5;
        for a in 0u64..32 {
            for b in 0u64..32 {
                if a != b {
                    assert!(f_pair(a, b, CoinVariant::Msb) < 2 * u64::from(w));
                }
            }
        }
        assert_eq!(f_ext(7, 7, w, CoinVariant::Msb), 10);
    }

    #[test]
    fn initial_labels_are_addresses() {
        let list = sequential_list(8);
        let l = LabelSeq::initial(&list, CoinVariant::Msb);
        assert_eq!(l.labels(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(l.bound(), 8);
        assert_eq!(l.rounds(), 0);
        assert!(l.adjacent_distinct(&list));
    }

    #[test]
    fn relabel_shrinks_bound_lemma1() {
        // Lemma 1: one application partitions into 2 ceil(log n) sets
        // (+1 for the wrap sentinel).
        let list = random_list(1 << 14, 3);
        let l0 = LabelSeq::initial(&list, CoinVariant::Msb);
        let l1 = l0.relabel(&list);
        assert_eq!(l1.bound(), 2 * 14 + 1);
        assert!(l1.max_label() < l1.bound());
        assert!(l1.adjacent_distinct(&list));
    }

    #[test]
    fn invariant_survives_many_rounds() {
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            let list = random_list(5000, 11);
            let mut l = LabelSeq::initial(&list, variant);
            for _ in 0..10 {
                l = l.relabel(&list);
                assert!(l.adjacent_distinct(&list), "round {}", l.rounds());
                assert!(l.max_label() < l.bound(), "round {}", l.rounds());
            }
        }
    }

    #[test]
    fn convergence_reaches_constant_bound() {
        let list = random_list(1 << 16, 9);
        let l = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
        // fixed point of b -> 2 ceil(log2 b)+1 is 9 (w=4)
        assert!(l.bound() <= 9, "bound {}", l.bound());
        assert!(l.converged());
        assert!(l.adjacent_distinct(&list));
        // convergence takes about G(n) rounds
        assert!(l.rounds() <= 8, "rounds {}", l.rounds());
    }

    #[test]
    fn relabel_k_matches_repeated_relabel() {
        let list = random_list(512, 2);
        let l0 = LabelSeq::initial(&list, CoinVariant::Lsb);
        let a = l0.relabel(&list).relabel(&list).relabel(&list);
        let b = l0.relabel_k(&list, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn two_node_list() {
        let list = sequential_list(2);
        let l = LabelSeq::initial(&list, CoinVariant::Msb).relabel(&list);
        assert!(l.adjacent_distinct(&list));
    }

    #[test]
    fn tiny_lists_do_not_panic() {
        // n ∈ {0, 1, 2}: no panic anywhere, and converged() is truthful.
        for n in [0usize, 1, 2] {
            let list = sequential_list(n);
            let l = LabelSeq::initial(&list, CoinVariant::Msb);
            assert_eq!(l.labels().len(), n);
            assert_eq!(l.bound(), (n as u64).max(1));
            assert!(l.adjacent_distinct(&list));
            if n < 2 {
                // bound 1: 2·max(⌈log₂1⌉,1)+1 = 3 ≥ 1, already converged
                assert!(l.converged(), "n = {n}");
            }
            let c = l.relabel_to_convergence(&list);
            assert!(c.converged());
            assert!(c.adjacent_distinct(&list));
        }
    }

    #[test]
    fn already_converged_input_is_fixed() {
        // A converged labelling relabels to convergence in zero rounds.
        let list = random_list(4096, 5);
        let c = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
        assert!(c.converged());
        let again = c.relabel_to_convergence(&list);
        assert_eq!(c, again);
        assert_eq!(again.rounds(), c.rounds());
    }

    #[test]
    fn relabel_k_zero_is_identity() {
        for n in [0usize, 1, 7, 300] {
            let list = sequential_list(n);
            let l = LabelSeq::initial(&list, CoinVariant::Lsb);
            assert_eq!(l.relabel_k(&list, 0), l);
        }
    }

    /// Run the production kernel on one list from its address labels.
    fn narrow(
        list: &LinkedList,
        rounds: u32,
        variant: CoinVariant,
        obs: &mut impl Observer,
    ) -> (Vec<u8>, Word) {
        let (mut labels, mut alt) = (Vec::new(), Vec::new());
        let bound = relabel_rounds(
            &|u| list.next_cyclic(u),
            &[0, list.len()],
            &mut labels,
            &mut alt,
            rounds,
            variant,
            obs,
        );
        (labels, bound)
    }

    #[test]
    fn narrow_rounds_match_chained_relabel() {
        // The byte-label kernel must agree with the chained reference
        // rounds bit for bit, across the byte boundary of n and every
        // layout. k = 0 keeps address labels, so it needs n ≤ 256
        // (Match1 runs zero rounds only for n ≤ 9).
        use parmatch_list::{blocked_list, reversed_list};
        for n in [2usize, 3, 9, 10, 255, 256, 257, 3000] {
            let layouts = [
                sequential_list(n),
                reversed_list(n),
                blocked_list(n, 16, n as u64),
                random_list(n, 17 + n as u64),
            ];
            for list in &layouts {
                for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                    let mut chained = LabelSeq::initial(list, variant);
                    for k in 0..=6u32 {
                        if k > 0 {
                            chained = chained.relabel(list);
                        }
                        if k == 0 && n > 256 {
                            continue;
                        }
                        let (labels, bound) =
                            narrow(list, k, variant, &mut crate::obs::NoopObserver);
                        let wide: Vec<Word> = labels.iter().map(|&l| Word::from(l)).collect();
                        assert_eq!(wide, chained.labels(), "n = {n} k = {k} {variant:?}");
                        assert_eq!(bound, chained.bound(), "n = {n} k = {k} {variant:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn census_counts_distinct_values() {
        assert_eq!(census256(&[]), 0);
        assert_eq!(census256(&[0, 0, 0]), 1);
        assert_eq!(census256(&[3, 7, 3, 255, 0, 7]), 4);
        let many: Vec<u8> = (0..10_000).map(|i| (i % 129) as u8).collect();
        assert_eq!(census256(&many), 129);
    }

    #[test]
    fn observed_relabel_is_bit_identical_and_audited() {
        let list = random_list(2000, 21);
        let n = list.len();
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            for rounds in [1u32, 3, 7] {
                let plain = narrow(&list, rounds, variant, &mut crate::obs::NoopObserver);
                let mut rec = crate::obs::Recorder::new();
                let observed = narrow(&list, rounds, variant, &mut rec);
                assert_eq!(plain, observed, "rounds={rounds} {variant:?}");
                let rec = rec.finish();
                assert!(rec.all_bounds_hold(), "{}", rec.render());
                assert_eq!(rec.find("rounds"), Some(u64::from(rounds)));
                // Lemma 1: first-round census audited against 2⌈log₂ n⌉.
                let a = &rec.audits()[0];
                assert_eq!(a.bound, 2 * u64::from(ilog2_ceil(n as Word)));
            }
        }
    }

    #[test]
    fn from_labels_round_trips() {
        let list = random_list(600, 4);
        let l = LabelSeq::initial(&list, CoinVariant::Msb).relabel(&list);
        let rebuilt = LabelSeq::from_labels(l.labels().to_vec(), l.bound(), l.variant());
        assert_eq!(rebuilt.labels(), l.labels());
        assert_eq!(rebuilt.bound(), l.bound());
        assert_eq!(rebuilt.rounds(), 0);
        assert_eq!(
            rebuilt.relabel_k(&list, 2).labels(),
            l.relabel_k(&list, 2).labels()
        );
    }

    #[test]
    #[should_panic(expected = "at or above")]
    fn from_labels_rejects_bound_violation() {
        let _ = LabelSeq::from_labels(vec![0, 5], 5, CoinVariant::Msb);
    }

    #[test]
    fn convergence_rounds_matches_cascade() {
        for n in [2u64, 3, 10, 1 << 10, 1 << 20, 1 << 40] {
            let mut bound = n;
            let mut r = 0;
            loop {
                let next = 2 * u64::from(ilog2_ceil(bound).max(1)) + 1;
                if next >= bound {
                    break;
                }
                bound = next;
                r += 1;
            }
            assert_eq!(convergence_rounds(n), r, "n = {n}");
        }
    }
}
