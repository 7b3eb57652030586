//! Partitioning the pointers of a list into matching sets.
//!
//! A *matching partition* assigns every pointer a set number such that
//! adjacent pointers (sharing a node) land in different sets — so each
//! set is a matching. Lemma 1: one application of `f` yields
//! `2⌈log n⌉` sets; Lemma 2: `k` applications yield
//! `2·log^(k-1) n (1+o(1))` sets; Lemma 3: `O(log^(i) n)` sets in
//! `O(i·n/p)` time.
//!
//! The set number of pointer `<v, suc(v)>` is the value
//! `f(label_v, label_{suc v})` of the **last** relabel round — i.e. the
//! new label of its tail.

use crate::labels::LabelSeq;
use crate::workspace::CHUNK;
use crate::CoinVariant;
use parmatch_bits::Word;
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;

/// A matching partition of a list's pointers.
///
/// Set numbers are bytes: Lemma 1 leaves at most `2⌈log n⌉ + 1 ≤ 65`
/// sets after one round (a `NodeId` has 32 bits), and every later round
/// and Match4's color classes leave fewer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointerSets {
    /// `set[v]` = set number of pointer `<v, suc(v)>`; [`NO_POINTER`]
    /// for the tail node (which has no outgoing pointer).
    set: Vec<u8>,
    /// Exclusive upper bound on set numbers, at most 255 (so no set
    /// number aliases [`NO_POINTER`]).
    bound: Word,
    /// Relabel rounds used to produce the partition.
    rounds: u32,
}

/// Marker for "no outgoing pointer" in [`PointerSets::set_of`]: the
/// same byte as [`crate::walkdown::UNCOLORED`], so Match4's colors are
/// set keys as they stand.
pub const NO_POINTER: u8 = u8::MAX;

impl PointerSets {
    /// Build the pointer partition from a labelling with ≥ 1 round:
    /// pointer `<v, suc(v)>`'s set is the tail's label.
    ///
    /// # Panics
    ///
    /// Panics if `labels` has had no relabel round (addresses are not a
    /// useful partition), if sizes mismatch, or as [`Self::from_raw`].
    pub fn from_labels(list: &LinkedList, labels: &LabelSeq) -> Self {
        assert!(
            labels.rounds() >= 1,
            "partition needs at least one relabel round"
        );
        assert_eq!(list.len(), labels.labels().len(), "size mismatch");
        let ls = labels.labels();
        let set: Vec<u8> = (0..list.len())
            .into_par_iter()
            .map(|v| {
                if list.next_raw(v as NodeId) == NIL {
                    NO_POINTER
                } else {
                    ls[v] as u8
                }
            })
            .collect();
        // `from_raw` rejects a bound above 255, so the narrowing above is
        // exact whenever it returns.
        Self::from_raw(set, labels.bound(), labels.rounds())
    }

    /// A partition over a degenerate list with no pointers: every slot
    /// holds [`NO_POINTER`]. Used for the `n < 2` short-circuits.
    pub fn trivial(n: usize) -> Self {
        Self {
            set: vec![NO_POINTER; n],
            bound: 1,
            rounds: 1,
        }
    }

    /// Assemble a partition from a raw per-tail set array (tail slot
    /// [`NO_POINTER`]), as Match2 does with its byte labels. Validity is
    /// the caller's obligation; [`crate::verify::partition_is_valid`]
    /// checks it.
    ///
    /// # Panics
    ///
    /// Panics if `bound > 255` (set 255 would be [`NO_POINTER`]), or if
    /// any entry is neither [`NO_POINTER`] nor below `bound`.
    pub fn from_raw(set: Vec<u8>, bound: Word, rounds: u32) -> Self {
        assert!(
            bound <= Word::from(NO_POINTER),
            "set bound {bound} exceeds 255: set numbers are bytes"
        );
        if !set
            .par_iter()
            .with_min_len(CHUNK)
            .all(|&s| s == NO_POINTER || Word::from(s) < bound)
        {
            let (v, &s) = set
                .iter()
                .enumerate()
                .find(|&(_, &s)| s != NO_POINTER && Word::from(s) >= bound)
                .expect("parallel check found an offender");
            panic!("set[{v}] = {s} out of bound {bound}");
        }
        Self { set, bound, rounds }
    }

    /// Set number of pointer `<v, suc(v)>`, or [`NO_POINTER`] if `v` is
    /// the list tail.
    #[inline]
    pub fn set_of(&self, v: NodeId) -> u8 {
        self.set[v as usize]
    }

    /// The raw per-tail set array (tail node holds [`NO_POINTER`]).
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.set
    }

    /// Exclusive upper bound on set numbers.
    #[inline]
    pub fn bound(&self) -> Word {
        self.bound
    }

    /// Relabel rounds used.
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Number of *distinct* set numbers actually used (≤ bound; the
    /// quantity Lemmas 1–2 bound).
    pub fn distinct_sets(&self) -> usize {
        let mut seen = vec![false; self.bound as usize];
        for &s in &self.set {
            if s != NO_POINTER {
                seen[usize::from(s)] = true;
            }
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// Histogram of set sizes: `hist[s]` = number of pointers in set `s`.
    pub fn histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.bound as usize];
        for &s in &self.set {
            if s != NO_POINTER {
                hist[usize::from(s)] += 1;
            }
        }
        hist
    }
}

/// Partition the pointers into matching sets with `rounds` applications
/// of `f` (Lemma 2 / Lemma 3): `rounds = 1` gives ≤ `2⌈log n⌉` sets,
/// each further round iterates the logarithm.
///
/// # Examples
///
/// ```
/// use parmatch_core::{pointer_sets, verify, CoinVariant};
/// use parmatch_list::random_list;
///
/// let list = random_list(1 << 16, 1);
/// let ps = pointer_sets(&list, 1, CoinVariant::Msb);
/// assert!(verify::partition_is_valid(&list, &ps));
/// assert!(ps.distinct_sets() <= 2 * 16 + 1); // Lemma 1
/// ```
///
/// # Panics
///
/// Panics if `rounds == 0`. (Lists with fewer than 2 nodes yield a
/// partition with no pointers.)
pub fn pointer_sets(list: &LinkedList, rounds: u32, variant: CoinVariant) -> PointerSets {
    assert!(rounds >= 1, "at least one round required");
    let labels = LabelSeq::initial(list, variant).relabel_k(list, rounds);
    PointerSets::from_labels(list, &labels)
}

/// Number of distinct matching sets produced by `rounds` applications of
/// `f` — convenience for the Lemma 1 / Lemma 2 experiments.
pub fn set_count(list: &LinkedList, rounds: u32, variant: CoinVariant) -> usize {
    pointer_sets(list, rounds, variant).distinct_sets()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use parmatch_list::{random_list, reversed_list, sequential_list};

    #[test]
    fn one_round_respects_lemma1_bound() {
        for n in [4usize, 16, 100, 1 << 10, 1 << 14] {
            let list = random_list(n, 42);
            let ps = pointer_sets(&list, 1, CoinVariant::Msb);
            let log_n = parmatch_bits::ilog2_ceil(n as u64) as usize;
            assert!(
                ps.distinct_sets() <= 2 * log_n + 1,
                "n={n}: {} sets > 2 log n + 1 = {}",
                ps.distinct_sets(),
                2 * log_n + 1
            );
            assert!(verify::partition_is_valid(&list, &ps));
        }
    }

    #[test]
    fn sequential_list_uses_few_sets() {
        // stride-1 forward pointers: lsb variant keys on bit 0 of a vs a+1
        // giving k determined by carries — still a valid partition.
        let list = sequential_list(1 << 10);
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            let ps = pointer_sets(&list, 1, variant);
            assert!(verify::partition_is_valid(&list, &ps));
        }
    }

    #[test]
    fn more_rounds_fewer_sets() {
        let list = random_list(1 << 16, 5);
        let s1 = set_count(&list, 1, CoinVariant::Msb);
        let s2 = set_count(&list, 2, CoinVariant::Msb);
        let s3 = set_count(&list, 3, CoinVariant::Msb);
        assert!(s2 <= s1, "s1={s1} s2={s2}");
        assert!(s3 <= s2, "s2={s2} s3={s3}");
        assert!(s3 <= 13, "s3={s3}"); // 2 log^(2) 65536 + slack
    }

    #[test]
    fn partition_valid_after_each_round() {
        let list = random_list(4096, 8);
        for rounds in 1..=6 {
            for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                let ps = pointer_sets(&list, rounds, variant);
                assert!(
                    verify::partition_is_valid(&list, &ps),
                    "rounds={rounds} {variant:?}"
                );
            }
        }
    }

    #[test]
    fn histogram_sums_to_pointer_count() {
        let list = random_list(1000, 3);
        let ps = pointer_sets(&list, 2, CoinVariant::Msb);
        let hist = ps.histogram();
        assert_eq!(hist.iter().sum::<usize>(), list.pointer_count());
        assert_eq!(hist.iter().filter(|&&c| c > 0).count(), ps.distinct_sets());
    }

    #[test]
    fn tail_has_no_pointer() {
        let list = reversed_list(64);
        let ps = pointer_sets(&list, 1, CoinVariant::Msb);
        let tail = list.tail().unwrap();
        assert_eq!(ps.set_of(tail), NO_POINTER);
        assert_eq!(
            ps.as_slice().iter().filter(|&&s| s == NO_POINTER).count(),
            1
        );
    }

    #[test]
    fn byte_sets_round_trip_the_labels() {
        let list = random_list(1 << 16, 9);
        let labels = LabelSeq::initial(&list, CoinVariant::Msb).relabel_k(&list, 1);
        let ps = pointer_sets(&list, 1, CoinVariant::Msb);
        assert_eq!(ps.bound(), labels.bound());
        for v in 0..list.len() as NodeId {
            match list.next_raw(v) {
                NIL => assert_eq!(ps.set_of(v), NO_POINTER),
                _ => assert_eq!(
                    Word::from(ps.set_of(v)),
                    labels.labels()[v as usize],
                    "node {v}"
                ),
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 255")]
    fn from_raw_rejects_a_bound_that_reaches_no_pointer() {
        PointerSets::from_raw(vec![0, NO_POINTER], 256, 1);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        pointer_sets(&sequential_list(4), 0, CoinVariant::Msb);
    }
}
