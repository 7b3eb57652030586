//! Maximal matching of a linked list by matching partition functions.
//!
//! This crate is the reproduction of the core contribution of Yijie Han,
//! *"Matching Partition a Linked List and Its Optimization"* (SPAA 1989):
//! computing a **maximal matching** of the pointers of an array-stored
//! linked list in parallel, by *deterministic coin tossing* — and, the
//! paper's headline, doing it **optimally** with up to `n / log^(i) n`
//! processors via a pipelined processor-scheduling technique
//! (Algorithm Match4 / Theorems 1–2).
//!
//! # Layout
//!
//! | module | paper artifact |
//! |---|---|
//! | [`labels`] | the matching partition function `f` and its iterates (Section 2, Lemmas 1–2) |
//! | [`partition`] | pointer set numbers, set counting (Lemma 3) |
//! | [`table`] | lookup tables for `f^(i)` (Match3 steps 2–4, appendix) |
//! | [`matching`], [`verify`] | matching representation and checkers |
//! | [`finish`] | Match1 steps 3–4 (cut at local minima, walk sublists) and the greedy set sweep of Match2 step 3 |
//! | [`match1`](mod@match1)–[`match4`](mod@match4) | the four algorithms, rayon-native |
//! | [`walkdown`] | WalkDown1 (Lemma 6) and WalkDown2 (Lemma 7 pipeline) |
//! | [`pram_impl`] | step-faithful simulator versions with exact PRAM step counts |
//! | [`cost`] | the paper's analytic step-count and work predictions |
//! | [`workspace`] | reusable buffer arena for zero-allocation steady-state runs |
//! | [`obs`] | phase spans on the production path, plus opt-in audits against the paper's bounds |
//! | [`runner`] | the unified [`Runner`] facade: the one entry point to all four algorithms |
//! | [`batch`] | fused batch execution of many small jobs in one sweep |
//!
//! # Quick start
//!
//! Every algorithm runs through one facade: pick an [`Algorithm`], set
//! the knobs you care about, and [`Runner::run`]. Each algorithm has
//! exactly one pipeline body behind it, and each pipeline stage one
//! production function; attaching an [`Observer`] adds phase spans and,
//! for an enabled one, the paper-bound audits, but never a different
//! pipeline.
//!
//! ```
//! use parmatch_core::prelude::*;
//! use parmatch_list::random_list;
//!
//! let list = random_list(10_000, 7);
//! let m = Runner::new(Algorithm::Match4).run(&list).into_matching();
//! assert!(verify::is_matching(&list, &m));
//! assert!(verify::is_maximal(&list, &m));
//! // a maximal matching on a path covers at least 1/3 of the pointers
//! assert!(3 * m.len() >= list.pointer_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod batch;
pub mod cost;
pub mod finish;
pub mod labels;
pub mod match1;
pub mod match2;
pub mod match3;
pub mod match4;
pub mod matching;
pub mod obs;
pub mod partition;
pub mod pram_impl;
pub mod runner;
pub mod shift_graph;
pub mod table;
pub mod verify;
pub mod walkdown;
pub mod workspace;

pub use batch::{match1_batch_in, BatchKey, BatchPlan};
pub use labels::{f_ext, f_pair, LabelSeq};
pub use match1::Match1Output;
pub use match2::Match2Output;
pub use match3::{Match3Config, Match3Error, Match3Output};
pub use match4::Match4Output;
pub use matching::Matching;
pub use obs::{NoopObserver, Observer, Recorder, Recording};
pub use parmatch_bits::coin::CoinVariant;
pub use partition::{pointer_sets, set_count, PointerSets};
pub use runner::{Algorithm, MatchOutcome, Runner, RunnerError};
pub use workspace::Workspace;

/// One-line import for the unified API: [`Runner`] and everything its
/// knobs and outcomes reference, plus [`verify`] for checking results.
///
/// ```
/// use parmatch_core::prelude::*;
/// use parmatch_list::random_list;
///
/// let list = random_list(1000, 3);
/// let out = Runner::new(Algorithm::Match1).variant(CoinVariant::Lsb).run(&list);
/// verify::assert_maximal_matching(&list, out.matching());
/// ```
pub mod prelude {
    pub use crate::matching::Matching;
    pub use crate::obs::{NoopObserver, Observer, Recorder, Recording};
    pub use crate::runner::{Algorithm, MatchOutcome, Runner, RunnerError};
    pub use crate::verify;
    pub use crate::workspace::Workspace;
    pub use crate::Match3Config;
    pub use parmatch_bits::coin::CoinVariant;
}
