//! Lookup tables for the iterated matching partition function `f^(i)`
//! (Match3 step 4 and the appendix).
//!
//! After the "number crunching" of Match3 step 2, every label fits in
//! `w` bits; step 3 concatenates the labels of `m = 2^j` consecutive
//! nodes by pointer jumping, so each node holds an `m·w`-bit encoding of
//! its label *window*. Step 4 replaces that window by a single constant
//! via one probe of a precomputed table `T` whose entries are the values
//! of a matching partition function with `m` arguments.
//!
//! This module realizes `T` as the *fold* of `f` over the window: the
//! recursive definition of the paper,
//! `f^(m)(a_1..a_m) = f(f^(m-1)(a_1..a_{m-1}), f^(m-1)(a_2..a_m))`,
//! computed as a triangle of `m(m+1)/2` cells — exactly the cell scheme
//! the appendix uses for its EREW guess-and-verify construction. The
//! total extension [`f_ext`] makes the fold well
//! defined on *every* encoding, including windows no list produces.
//!
//! Because each fold level preserves "adjacent values distinct" along
//! the (cyclic) label sequence, probing `T` at adjacent nodes always
//! yields distinct constants — the property Match3 step 5 requires.

use crate::labels::f_ext;
use crate::CoinVariant;
use parmatch_bits::{ilog2_ceil, Word};

/// Reasons a table cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The dense table would need more than the configured limit of
    /// index bits.
    TooLarge {
        /// Requested index bits (`entry_bits * args`, saturating at
        /// `u32::MAX` when that product or `args` itself overflows).
        bits: u32,
        /// Configured maximum.
        max_bits: u32,
    },
    /// Parameters degenerate (zero width or fewer than 2 arguments).
    Degenerate,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::TooLarge { bits, max_bits } => {
                write!(f, "table needs 2^{bits} entries, limit 2^{max_bits}")
            }
            TableError::Degenerate => write!(f, "table needs width ≥ 1 and ≥ 2 arguments"),
        }
    }
}

impl std::error::Error for TableError {}

/// The argument count `m = 2^j` of the table behind `j` jump rounds. A
/// `j` whose window count overflows `u32` asks for a table no host can
/// hold, so it is [`TableError::TooLarge`] like any other oversized one.
pub(crate) fn window_args(jump_rounds: u32, max_bits: u32) -> Result<u32, TableError> {
    1u32.checked_shl(jump_rounds).ok_or(TableError::TooLarge {
        bits: u32::MAX,
        max_bits,
    })
}

/// One fold level: `out[p] = f_ext(vals[p], vals[p+1])` with the given
/// width, returning the new values and the width bound of the next level.
fn fold_level(vals: &[Word], width: u32, variant: CoinVariant) -> (Vec<Word>, u32) {
    let out: Vec<Word> = vals
        .windows(2)
        .map(|w2| f_ext(w2[0], w2[1], width, variant))
        .collect();
    // values < 2·width, sentinel = 2·width → bound 2·width+1
    let next_width = ilog2_ceil(2 * Word::from(width) + 1).max(1);
    (out, next_width)
}

/// Fold an argument window down to a single value, returning every
/// triangle cell level (the appendix's `i(i+1)/2` cells): `levels[0]`
/// is the input, `levels[q]` holds the `f^(q+1)` values.
pub fn fold_triangle(args: &[Word], width: u32, variant: CoinVariant) -> Vec<Vec<Word>> {
    assert!(!args.is_empty(), "fold of an empty window");
    let mut levels = vec![args.to_vec()];
    let mut w = width;
    while levels.last().unwrap().len() > 1 {
        let (next, nw) = fold_level(levels.last().unwrap(), w, variant);
        levels.push(next);
        w = nw;
    }
    levels
}

/// Fold an argument window to its single `f^(m)` value.
pub fn fold_value(args: &[Word], width: u32, variant: CoinVariant) -> Word {
    *fold_triangle(args, width, variant)
        .last()
        .unwrap()
        .first()
        .expect("non-empty fold")
}

/// The dense lookup table for `f^(m)` over `m` arguments of
/// `entry_bits` bits each.
#[derive(Debug, Clone)]
pub struct TupleTable {
    table: Vec<u16>,
    entry_bits: u32,
    args: u32,
    variant: CoinVariant,
    /// Exclusive bound on stored values.
    value_bound: Word,
}

impl TupleTable {
    /// Build the table by enumerating all `2^(entry_bits·args)`
    /// encodings (the host-side analogue of the paper's
    /// constant-time-CRCW construction; see also
    /// [`verify_guess`](Self::verify_guess) for the appendix's EREW
    /// check).
    pub fn build(
        entry_bits: u32,
        args: u32,
        variant: CoinVariant,
        max_bits: u32,
    ) -> Result<Self, TableError> {
        if entry_bits == 0 || args < 2 {
            return Err(TableError::Degenerate);
        }
        // Saturate, so an overflowing product is rejected here, before
        // anything is allocated, instead of wrapping to a small index.
        let bits = entry_bits.saturating_mul(args);
        if bits > max_bits || bits >= 32 {
            return Err(TableError::TooLarge { bits, max_bits });
        }
        let size = 1usize << bits;
        let mut table = vec![0u16; size];
        let mut value_bound: Word = 0;
        let mut window = vec![0 as Word; args as usize];
        for (code, slot) in table.iter_mut().enumerate() {
            decode_window(code as Word, entry_bits, &mut window);
            let v = fold_value(&window, entry_bits, variant);
            debug_assert!(v <= u16::MAX as Word);
            *slot = v as u16;
            value_bound = value_bound.max(v + 1);
        }
        Ok(Self {
            table,
            entry_bits,
            args,
            variant,
            value_bound,
        })
    }

    /// Probe the table with an encoded window (step 4 of Match3:
    /// `label[v] := T[label[v]]`).
    #[inline]
    pub fn probe(&self, code: Word) -> Word {
        Word::from(self.table[code as usize])
    }

    /// Bits per argument.
    #[inline]
    pub fn entry_bits(&self) -> u32 {
        self.entry_bits
    }

    /// Number of arguments `m` per window.
    #[inline]
    pub fn args(&self) -> u32 {
        self.args
    }

    /// Number of table entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True iff the table has no entries (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Exclusive bound on stored values — the constant "not related to
    /// n" of Match3 step 4.
    #[inline]
    pub fn value_bound(&self) -> Word {
        self.value_bound
    }

    /// The appendix's guess-and-verify check for a single entry: guess
    /// `value` for the window encoded by `code`, fill the triangle of
    /// `m(m+1)/2` cells, and confirm every cell is consistent with the
    /// `f^(2)` of the two cells below it ("A processor verifies the
    /// value of cell a_p…a_{p+q} by computing function value f^(2) using
    /// the values in cells a_p…a_{p+q−1} and a_{p+1}…a_{p+q}").
    ///
    /// Returns `true` iff the guess is the (unique) correct value.
    pub fn verify_guess(&self, code: Word, value: Word) -> bool {
        let mut window = vec![0 as Word; self.args as usize];
        decode_window(code, self.entry_bits, &mut window);
        let triangle = fold_triangle(&window, self.entry_bits, self.variant);
        // Cell-by-cell consistency (holds by construction) + the guess.
        let mut w = self.entry_bits;
        for q in 1..triangle.len() {
            for p in 0..triangle[q].len() {
                let expect = f_ext(triangle[q - 1][p], triangle[q - 1][p + 1], w, self.variant);
                if triangle[q][p] != expect {
                    return false;
                }
            }
            w = ilog2_ceil(2 * Word::from(w) + 1).max(1);
        }
        triangle.last().unwrap()[0] == value
    }
}

/// Decode an `entry_bits·m`-bit code into its `m` labels, first label in
/// the **high** bits (matching the concatenation order of Match3 step 3).
pub fn decode_window(code: Word, entry_bits: u32, out: &mut [Word]) {
    let m = out.len() as u32;
    let mask = (1 as Word)
        .checked_shl(entry_bits)
        .map(|v| v - 1)
        .unwrap_or(Word::MAX);
    for (idx, slot) in out.iter_mut().enumerate() {
        let shift = entry_bits * (m - 1 - idx as u32);
        *slot = (code >> shift) & mask;
    }
}

/// Encode labels (first label in the high bits) into a window code.
pub fn encode_window(labels: &[Word], entry_bits: u32) -> Word {
    let mut code: Word = 0;
    for &l in labels {
        debug_assert!(l < (1 << entry_bits), "label {l} exceeds {entry_bits} bits");
        code = (code << entry_bits) | l;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let labels = [3u64, 0, 7, 5];
        let code = encode_window(&labels, 3);
        let mut out = [0u64; 4];
        decode_window(code, 3, &mut out);
        assert_eq!(out, labels);
        // first label occupies the high bits
        assert_eq!(code >> 9, 3);
    }

    #[test]
    fn fold_value_matches_recursive_definition() {
        // triangle levels agree with manual f_ext chains
        let args = [5u64, 2, 7, 2];
        let t = fold_triangle(&args, 3, CoinVariant::Msb);
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], args.to_vec());
        for p in 0..3 {
            assert_eq!(t[1][p], f_ext(args[p], args[p + 1], 3, CoinVariant::Msb));
        }
        assert_eq!(t[3].len(), 1);
        assert_eq!(fold_value(&args, 3, CoinVariant::Msb), t[3][0]);
    }

    #[test]
    fn fold_preserves_adjacent_distinct() {
        // For any window with adjacent-distinct entries, each fold level
        // keeps adjacent values distinct.
        let w = 4u32;
        for seed in 0u64..500 {
            let mut args = [0u64; 5];
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for a in args.iter_mut() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *a = (s >> 33) & 0xF;
            }
            // force adjacent-distinct
            for i in 1..args.len() {
                if args[i] == args[i - 1] {
                    args[i] = (args[i] + 1) & 0xF;
                    if args[i] == args[i - 1] {
                        args[i] = (args[i] + 1) & 0xF;
                    }
                }
            }
            let t = fold_triangle(&args, w, CoinVariant::Msb);
            for level in &t {
                for pair in level.windows(2) {
                    assert_ne!(pair[0], pair[1], "args {args:?} level {level:?}");
                }
            }
        }
    }

    #[test]
    fn table_agrees_with_direct_fold() {
        let t = TupleTable::build(3, 3, CoinVariant::Msb, 20).unwrap();
        assert_eq!(t.len(), 1 << 9);
        let mut window = [0u64; 3];
        for code in 0..(1u64 << 9) {
            decode_window(code, 3, &mut window);
            assert_eq!(t.probe(code), fold_value(&window, 3, CoinVariant::Msb));
        }
        assert!(t.value_bound() <= 16);
        assert!(!t.is_empty());
        assert_eq!(t.entry_bits(), 3);
        assert_eq!(t.args(), 3);
    }

    #[test]
    fn guess_and_verify_accepts_truth_rejects_lies() {
        let t = TupleTable::build(2, 4, CoinVariant::Lsb, 20).unwrap();
        for code in [0u64, 1, 37, 100, 255] {
            let truth = t.probe(code);
            assert!(t.verify_guess(code, truth), "code {code}");
            assert!(!t.verify_guess(code, truth + 1), "code {code}");
        }
    }

    #[test]
    fn size_guard() {
        assert_eq!(
            TupleTable::build(8, 4, CoinVariant::Msb, 20).unwrap_err(),
            TableError::TooLarge {
                bits: 32,
                max_bits: 20
            }
        );
        assert_eq!(
            TupleTable::build(0, 4, CoinVariant::Msb, 20).unwrap_err(),
            TableError::Degenerate
        );
        assert_eq!(
            TupleTable::build(4, 1, CoinVariant::Msb, 20).unwrap_err(),
            TableError::Degenerate
        );
    }

    #[test]
    fn error_display() {
        let e = TableError::TooLarge {
            bits: 32,
            max_bits: 20,
        };
        assert!(e.to_string().contains("2^32"));
        assert!(TableError::Degenerate.to_string().contains("width"));
    }
}
