//! A step-synchronous PRAM simulator.
//!
//! The paper's algorithms are stated for the Parallel Random Access
//! Machine: `p` processors proceed in lockstep over a shared memory;
//! within one step every processor reads, computes and writes, with reads
//! logically preceding all writes; the submodels differ only in which
//! same-cell collisions are legal (EREW / CREW / CRCW with common,
//! arbitrary or priority write resolution).
//!
//! [`Machine`] realizes that model exactly:
//!
//! * a step runs every virtual processor's closure against an immutable
//!   snapshot of memory (reads see the pre-step state by construction),
//!   buffering writes;
//! * at the step barrier the buffered writes are checked against the
//!   machine's [`Model`] — illegal collisions surface as [`PramError`]s
//!   in [`Checked`](ExecMode::Checked) mode — and then applied with the
//!   model's resolution rule;
//! * virtual processors are mapped onto the rayon worker pool, so `p` may
//!   exceed the physical core count by any factor (Brent scheduling); the
//!   simulated step count — the quantity every bound in the paper is
//!   stated in — is independent of the host's parallelism;
//! * [`Stats`] accounts steps, work (processor-steps), reads and writes.
//!
//! The engine behind [`Machine::step`] is epoch-stamped and
//! allocation-recycling (see [`machine`] for internals); every simulated
//! sweep runs through it, in both execution modes. The original
//! log-and-sort engine is preserved verbatim as
//! [`legacy::LegacyMachine`] — it defines the observable semantics the
//! new engine is property-tested against, and is the baseline of the
//! engine benchmarks.
//!
//! Determinism: for a fixed program the post-step memory image never
//! depends on thread scheduling — write collisions are resolved by
//! processor id (priority) or value agreement (common), never by arrival
//! order.
//!
//! # Example
//!
//! Wyllie-style pointer jumping to rank an 8-cell chain (CREW: during
//! contraction two processors may read the same successor cell):
//!
//! ```
//! use parmatch_pram::{Machine, Model};
//!
//! let mut m = Machine::new(Model::Crew, 16);
//! // cells 0..8: next pointers (i -> i+1, tail 7 points at itself)
//! for i in 0..8usize { m.poke(i, (i as u64 + 1).min(7)); }
//! // cells 8..16: hop distances (1 per live pointer, 0 at the tail)
//! for i in 0..8usize { m.poke(8 + i, u64::from(i != 7)); }
//! for _ in 0..3 { // ceil(log2 8) rounds
//!     m.step(8, |ctx| {
//!         let nxt = ctx.read(ctx.pid()) as usize;
//!         let d = ctx.read(8 + ctx.pid());
//!         let dn = ctx.read(8 + nxt);
//!         let nn = ctx.read(nxt);
//!         ctx.write(8 + ctx.pid(), d + dn);
//!         ctx.write(ctx.pid(), nn);
//!     }).unwrap();
//! }
//! assert_eq!(m.peek(8), 7); // cell 0 is 7 hops from the tail
//! assert_eq!(m.stats().steps, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod legacy;
pub mod machine;
pub mod model;
pub mod region;
pub mod stats;
pub mod trace;

pub use error::PramError;
pub use fault::{FaultClass, FaultKind, FaultPlan, FaultReport, FaultSite, RunProbe};
pub use legacy::{LegacyCtx, LegacyMachine};
pub use machine::{ExecMode, Machine, ProcCtx};
pub use model::Model;
pub use region::Region;
pub use stats::Stats;
pub use trace::{PhaseSpan, StepTrace, Trace};

/// Machine word: all shared-memory cells hold one of these.
pub type Word = u64;
