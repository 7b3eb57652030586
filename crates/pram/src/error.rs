//! Errors surfaced by the simulator.

use crate::model::Model;
use crate::Word;

/// A model-legality violation or memory fault detected at a step barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PramError {
    /// Two processors read the same cell in one step on a machine whose
    /// model forbids concurrent reads.
    ReadConflict {
        /// The model in force.
        model: Model,
        /// The contested address.
        addr: usize,
        /// Two (of possibly more) colliding processor ids.
        pids: (usize, usize),
        /// Simulated step index (0-based) at which the conflict occurred.
        step: u64,
    },
    /// Two processors wrote the same cell in one step on a machine whose
    /// model forbids concurrent writes.
    WriteConflict {
        /// The model in force.
        model: Model,
        /// The contested address.
        addr: usize,
        /// Two (of possibly more) colliding processor ids.
        pids: (usize, usize),
        /// Simulated step index at which the conflict occurred.
        step: u64,
    },
    /// CRCW-common writers disagreed on the value for a cell.
    CommonValueMismatch {
        /// The contested address.
        addr: usize,
        /// Two of the disagreeing values.
        values: (Word, Word),
        /// Simulated step index at which the conflict occurred.
        step: u64,
    },
    /// A processor addressed a cell outside the machine's memory.
    OutOfBounds {
        /// The faulting address.
        addr: usize,
        /// Memory size in words.
        size: usize,
        /// Processor that faulted.
        pid: usize,
    },
}

impl std::fmt::Display for PramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PramError::ReadConflict {
                model,
                addr,
                pids,
                step,
            } => write!(
                f,
                "step {step}: processors {} and {} both read cell {addr} on {model}",
                pids.0, pids.1
            ),
            PramError::WriteConflict {
                model,
                addr,
                pids,
                step,
            } => write!(
                f,
                "step {step}: processors {} and {} both wrote cell {addr} on {model}",
                pids.0, pids.1
            ),
            PramError::CommonValueMismatch { addr, values, step } => write!(
                f,
                "step {step}: CRCW(common) writers disagree at cell {addr}: {} vs {}",
                values.0, values.1
            ),
            PramError::OutOfBounds { addr, size, pid } => write!(
                f,
                "processor {pid} addressed cell {addr} of a {size}-word memory"
            ),
        }
    }
}

impl std::error::Error for PramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_particulars() {
        let e = PramError::ReadConflict {
            model: Model::Erew,
            addr: 42,
            pids: (1, 3),
            step: 7,
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("EREW") && s.contains("step 7"));

        let e = PramError::CommonValueMismatch {
            addr: 9,
            values: (5, 6),
            step: 0,
        };
        assert!(e.to_string().contains("5 vs 6"));

        let e = PramError::OutOfBounds {
            addr: 100,
            size: 10,
            pid: 2,
        };
        assert!(e.to_string().contains("100"));
    }
}
