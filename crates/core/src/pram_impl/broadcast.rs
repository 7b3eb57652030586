//! EREW broadcast by doubling — the appendix's table replication.
//!
//! "To run our algorithms on the EREW model we need copies of the
//! table, one for each processor. […] copies of table T can be created
//! using O(p·log n) space and O(n/p + log n) time on the EREW model."
//!
//! [`broadcast_copies`] realizes exactly that: from one source array of
//! `len` words it materializes `copies` further arrays by doubling —
//! round `r` copies the existing `2^r` replicas onto the next batch, so
//! every source cell is read by exactly one processor per step
//! (EREW-legal) and the whole replication costs
//! `O(copies·len/p + log copies)` steps.

use super::par_for;
use parmatch_pram::{Machine, PramError, Region};

/// Replicate `src` (length `len`) into `dst` (length `copies·len`,
/// pre-allocated) with `p` processors. Copy `q` occupies
/// `dst[q·len .. (q+1)·len)`.
///
/// # Panics
///
/// Panics if the region sizes disagree.
pub fn broadcast_copies(
    m: &mut Machine,
    src: Region,
    dst: Region,
    copies: usize,
    p: usize,
) -> Result<(), PramError> {
    let len = src.len();
    assert_eq!(dst.len(), copies * len, "dst must hold copies·len words");
    if copies == 0 || len == 0 {
        return Ok(());
    }
    // Round 0: one sweep seeds dst copy 0 from src.
    par_for(m, len, p, move |ctx, j| {
        let v = src.get(ctx, j);
        dst.set(ctx, j, v);
    })?;
    // Doubling rounds: replicas 0..have copy onto have..2·have. Element
    // `idx` reads `dst[idx]` and writes `dst[have·len + idx]`, so every
    // read stays below the batch being written and is 1:1.
    let mut have = 1usize;
    while have < copies {
        let batch = have.min(copies - have);
        par_for(m, batch * len, p, move |ctx, idx| {
            let v = dst.get(ctx, idx);
            dst.set(ctx, have * len + idx, v);
        })?;
        have += batch;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_pram::{Model, Word};

    fn run(copies: usize, len: usize, p: usize) -> (Vec<Word>, u64) {
        let mut m = Machine::new(Model::Erew, 0);
        let src = m.alloc(len);
        let data: Vec<Word> = (0..len as Word).map(|i| i * 13 + 7).collect();
        m.load_region(src, &data);
        let dst = m.alloc(copies * len);
        broadcast_copies(&mut m, src, dst, copies, p).unwrap();
        (m.region_slice(dst).to_vec(), m.stats().steps)
    }

    #[test]
    fn every_copy_identical() {
        for copies in [1usize, 2, 3, 7, 16] {
            for len in [1usize, 5, 32] {
                let (out, _) = run(copies, len, 8);
                let expect: Vec<Word> = (0..len as Word).map(|i| i * 13 + 7).collect();
                for q in 0..copies {
                    assert_eq!(&out[q * len..(q + 1) * len], &expect[..], "copy {q}");
                }
            }
        }
    }

    #[test]
    fn erew_legality_holds() {
        // Checked machine (the default in `run`) would have errored on
        // any read or write collision — reaching here is the assertion.
        let (_, steps) = run(64, 16, 16);
        assert!(steps > 0);
    }

    #[test]
    fn step_count_is_work_over_p_plus_log() {
        let (copies, len, p) = (64usize, 32usize, 64usize);
        let (_, steps) = run(copies, len, p);
        let work = (copies * len) as u64;
        let budget = 2 * work / p as u64 + 2 * (copies as u64).ilog2() as u64 + 16;
        assert!(steps <= budget, "steps {steps} > budget {budget}");
    }

    #[test]
    fn degenerate_sizes() {
        let (out, _) = run(1, 4, 1);
        assert_eq!(out, vec![7, 20, 33, 46]);
        let mut m = Machine::new(Model::Erew, 0);
        let src = m.alloc(0);
        let dst = m.alloc(0);
        broadcast_copies(&mut m, src, dst, 0, 4).unwrap();
    }

    #[test]
    #[should_panic(expected = "copies·len")]
    fn size_mismatch_panics() {
        let mut m = Machine::new(Model::Erew, 0);
        let src = m.alloc(4);
        let dst = m.alloc(6);
        let _ = broadcast_copies(&mut m, src, dst, 2, 4);
    }
}
