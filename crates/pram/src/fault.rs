//! Deterministic fault injection for the step engine.
//!
//! A [`FaultPlan`] is a list of [`FaultSite`]s, each addressed as
//! `(step, pid, op)` — the `op`-th surviving write of processor `pid`
//! in simulated step `step` (post per-pid dedup, in program order) —
//! plus a [`FaultKind`] saying what goes wrong there. Plans are either
//! built explicitly or generated from a seed, and the same plan
//! replays byte-for-byte: faults are applied only in the engine's
//! *sequential* phases (the pid-ordered write resolution of
//! [`crate::Machine::step`] and the per-step stall-set computation), so
//! the injected execution is independent of the rayon pool size,
//! exactly like a fault-free run.
//!
//! The supported fault classes model the classic transient-hardware
//! menagerie:
//!
//! - [`FaultKind::BitFlip`] — a written word is XORed with a mask
//!   before landing in memory (an SEU on the store path);
//! - [`FaultKind::DropWrite`] — a write is lost entirely;
//! - [`FaultKind::DuplicateWrite`] — the written value *also* lands on
//!   a neighboring address (an address-decoder glitch);
//! - [`FaultKind::Stall`] — a processor misses `steps` whole steps
//!   (executes nothing, reads nothing, writes nothing).
//!
//! Every class applies in both execution modes; only checked mode
//! also rejects the model violations a fault causes (a duplicate write
//! landing on another processor's cell is a same-step
//! [`crate::PramError::WriteConflict`] on an exclusive-write model).
//! The legacy engine ([`crate::LegacyMachine`]) takes no faults at all:
//! it is the oracle.
//!
//! A plan reaches a machine either directly
//! ([`crate::Machine::install_fault_plan`]) or — for code like the
//! matchers that constructs its machine internally — by *arming* the
//! current thread with [`arm`]: the next machine built on this thread
//! adopts the plan, and publishes a [`RunProbe`] (fired-site report
//! plus optional trace) when dropped, retrievable with [`take_probes`].

use crate::trace::Trace;
use crate::Word;
use std::cell::RefCell;

/// What goes wrong at a fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// XOR the written value with `mask` before applying it.
    BitFlip {
        /// Bits to flip in the written word.
        mask: Word,
    },
    /// Silently discard the write.
    DropWrite,
    /// Apply the write, and also deposit the same value at
    /// `addr + offset` (skipped if that lands outside memory).
    DuplicateWrite {
        /// Signed cell offset of the duplicate target (usually ±1).
        offset: isize,
    },
    /// The processor executes nothing for `steps` consecutive steps
    /// starting at the site's step (the `op` field is ignored).
    Stall {
        /// Number of whole steps missed.
        steps: u64,
    },
}

impl FaultKind {
    /// The class this kind belongs to.
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::BitFlip { .. } => FaultClass::BitFlip,
            FaultKind::DropWrite => FaultClass::DropWrite,
            FaultKind::DuplicateWrite { .. } => FaultClass::DuplicateWrite,
            FaultKind::Stall { .. } => FaultClass::Stall,
        }
    }
}

/// The four injectable fault classes (a [`FaultKind`] minus its
/// parameters) — the rows of testkit's detection matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// [`FaultKind::BitFlip`]
    BitFlip,
    /// [`FaultKind::DropWrite`]
    DropWrite,
    /// [`FaultKind::DuplicateWrite`]
    DuplicateWrite,
    /// [`FaultKind::Stall`]
    Stall,
}

impl FaultClass {
    /// Every class, in matrix-row order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::BitFlip,
        FaultClass::DropWrite,
        FaultClass::DuplicateWrite,
        FaultClass::Stall,
    ];

    /// Stable lowercase name (JSON keys, table rows).
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::BitFlip => "bit_flip",
            FaultClass::DropWrite => "drop_write",
            FaultClass::DuplicateWrite => "duplicate_write",
            FaultClass::Stall => "stall",
        }
    }
}

/// One addressable fault: *what* ([`FaultKind`]) happens *where*
/// (`step`, `pid`, `op`).
///
/// `op` indexes the processor's surviving writes of that step — after
/// per-pid dedup, in program order ([`crate::Machine::step`]). A site
/// that addresses a write the program never makes simply never fires;
/// the report says which sites fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Simulated step index ([`crate::Stats::steps`] at entry).
    pub step: u64,
    /// Target processor id.
    pub pid: u32,
    /// Index among the pid's surviving writes that step (ignored for
    /// [`FaultKind::Stall`]).
    pub op: u32,
    /// What happens there.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: just a list of sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The sites, in the order they were planned. Order is irrelevant
    /// to execution (sites are matched by address) but preserved so
    /// report indices are stable.
    pub sites: Vec<FaultSite>,
}

/// splitmix64, the crate-wide seed expander.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan over explicit sites.
    pub fn new(sites: Vec<FaultSite>) -> Self {
        Self { sites }
    }

    /// The empty plan (useful to arm a machine for probing — trace and
    /// report collection — without injecting anything).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Generate `count` seeded sites of one class, with steps drawn
    /// from `0..max_step`, pids from `0..max_pid` and ops from `0..4`.
    /// Same arguments ⇒ same plan, on any host.
    pub fn generate(
        seed: u64,
        class: FaultClass,
        count: usize,
        max_step: u64,
        max_pid: u32,
    ) -> Self {
        let mut st = seed ^ 0xFA17_0000 ^ (class as u64).wrapping_mul(0x9e37_79b9);
        let sites = (0..count)
            .map(|_| {
                let r = mix(&mut st);
                let step = r % max_step.max(1);
                let pid = ((r >> 24) % u64::from(max_pid.max(1))) as u32;
                let op = ((r >> 56) % 4) as u32;
                let kind = match class {
                    FaultClass::BitFlip => FaultKind::BitFlip {
                        mask: 1 << (mix(&mut st) % 64),
                    },
                    FaultClass::DropWrite => FaultKind::DropWrite,
                    FaultClass::DuplicateWrite => FaultKind::DuplicateWrite {
                        offset: if mix(&mut st).is_multiple_of(2) {
                            1
                        } else {
                            -1
                        },
                    },
                    FaultClass::Stall => FaultKind::Stall {
                        steps: 1 + mix(&mut st) % 3,
                    },
                };
                FaultSite {
                    step,
                    pid,
                    op,
                    kind,
                }
            })
            .collect();
        Self { sites }
    }

    /// The plan minus the sites whose indices are in `fired` — the
    /// transient-fault model: a retry re-executes with every fault that
    /// already struck removed, so bounded retries converge.
    pub fn without_sites(&self, fired: &[usize]) -> Self {
        Self {
            sites: self
                .sites
                .iter()
                .enumerate()
                .filter(|(i, _)| !fired.contains(i))
                .map(|(_, s)| *s)
                .collect(),
        }
    }
}

/// What a faulted run reported: which plan sites actually fired, and
/// how many injection events occurred (a stall site fires once per
/// stalled step, write-class sites once).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Indices into [`FaultPlan::sites`] of the sites that fired,
    /// ascending.
    pub fired: Vec<usize>,
    /// Total injection events.
    pub events: u64,
}

/// Everything a dropped fault-armed machine publishes: the fault
/// report plus the step trace, when tracing was requested via
/// [`arm_with_trace`].
#[derive(Debug, Clone, Default)]
pub struct RunProbe {
    /// Which sites fired, and how often.
    pub report: FaultReport,
    /// The machine's step trace (phase spans, per-step fault counts).
    pub trace: Option<Trace>,
}

/// Live injection state carried by a fault-armed [`crate::Machine`].
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    fired: Vec<bool>,
    events: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let n = plan.sites.len();
        Self {
            plan,
            fired: vec![false; n],
            events: 0,
        }
    }

    /// Pids stalled during `step` (ascending, deduplicated), marking
    /// the corresponding stall sites fired. Called once per step,
    /// sequentially, before execution.
    pub(crate) fn stalled_pids(&mut self, step: u64, p: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, s) in self.plan.sites.iter().enumerate() {
            if let FaultKind::Stall { steps } = s.kind {
                if step >= s.step && step < s.step + steps && (s.pid as usize) < p {
                    self.fired[i] = true;
                    self.events += 1;
                    out.push(s.pid);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The write-class fault planned for `(step, pid, op)`, if any,
    /// marking it fired. Called from sequential write resolution only.
    pub(crate) fn write_fault(&mut self, step: u64, pid: u32, op: u32) -> Option<FaultKind> {
        for (i, s) in self.plan.sites.iter().enumerate() {
            if matches!(s.kind, FaultKind::Stall { .. }) {
                continue;
            }
            if s.step == step && s.pid == pid && s.op == op {
                self.fired[i] = true;
                self.events += 1;
                return Some(s.kind);
            }
        }
        None
    }

    /// Injection events so far (drives the per-step trace counter).
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    pub(crate) fn report(&self) -> FaultReport {
        FaultReport {
            fired: (0..self.fired.len()).filter(|&i| self.fired[i]).collect(),
            events: self.events,
        }
    }
}

thread_local! {
    static ARMED: RefCell<Option<(FaultPlan, bool)>> = const { RefCell::new(None) };
    static PROBES: RefCell<Vec<RunProbe>> = const { RefCell::new(Vec::new()) };
}

/// Arm the current thread: the next [`crate::Machine`] constructed on
/// this thread adopts `plan` and, when dropped, publishes a
/// [`RunProbe`] retrievable with [`take_probes`]. Exactly one machine
/// picks the plan up (arming is consumed by construction).
pub fn arm(plan: FaultPlan) {
    ARMED.with(|a| *a.borrow_mut() = Some((plan, false)));
}

/// Like [`arm`], additionally enabling step tracing on the adopting
/// machine so the probe carries phase spans and per-step fault counts.
pub fn arm_with_trace(plan: FaultPlan) {
    ARMED.with(|a| *a.borrow_mut() = Some((plan, true)));
}

/// Clear any plan armed on this thread that no machine has adopted.
pub fn disarm() {
    ARMED.with(|a| *a.borrow_mut() = None);
}

/// Consume the thread's armed plan (machine construction calls this).
pub(crate) fn take_armed() -> Option<(FaultPlan, bool)> {
    ARMED.with(|a| a.borrow_mut().take())
}

/// Publish a dropped machine's probe.
pub(crate) fn publish_probe(p: RunProbe) {
    PROBES.with(|v| v.borrow_mut().push(p));
}

/// Drain the probes published on this thread, in machine-drop order.
pub fn take_probes() -> Vec<RunProbe> {
    PROBES.with(|v| std::mem::take(&mut *v.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_classed() {
        for class in FaultClass::ALL {
            let a = FaultPlan::generate(7, class, 5, 10, 8);
            let b = FaultPlan::generate(7, class, 5, 10, 8);
            assert_eq!(a, b);
            assert_eq!(a.sites.len(), 5);
            for s in &a.sites {
                assert_eq!(s.kind.class(), class);
                assert!(s.step < 10);
                assert!(s.pid < 8);
            }
            let c = FaultPlan::generate(8, class, 5, 10, 8);
            assert_ne!(a, c, "{class:?}: different seeds must differ");
        }
    }

    #[test]
    fn without_sites_removes_fired() {
        let plan = FaultPlan::generate(1, FaultClass::DropWrite, 4, 10, 8);
        let pruned = plan.without_sites(&[0, 2]);
        assert_eq!(pruned.sites.len(), 2);
        assert_eq!(pruned.sites[0], plan.sites[1]);
        assert_eq!(pruned.sites[1], plan.sites[3]);
    }

    #[test]
    fn state_matches_sites_and_reports() {
        let plan = FaultPlan::new(vec![
            FaultSite {
                step: 2,
                pid: 1,
                op: 0,
                kind: FaultKind::DropWrite,
            },
            FaultSite {
                step: 1,
                pid: 0,
                op: 0,
                kind: FaultKind::Stall { steps: 2 },
            },
        ]);
        let mut st = FaultState::new(plan);
        assert!(st.stalled_pids(0, 4).is_empty());
        assert_eq!(st.stalled_pids(1, 4), vec![0]);
        assert_eq!(st.stalled_pids(2, 4), vec![0]);
        assert!(st.stalled_pids(3, 4).is_empty());
        assert_eq!(st.write_fault(2, 1, 0), Some(FaultKind::DropWrite));
        assert_eq!(st.write_fault(2, 1, 0), Some(FaultKind::DropWrite)); // re-match ok
        assert_eq!(st.write_fault(2, 1, 1), None);
        let r = st.report();
        assert_eq!(r.fired, vec![0, 1]);
        assert_eq!(r.events, 4);
    }

    #[test]
    fn stall_pid_beyond_p_does_not_fire() {
        let plan = FaultPlan::new(vec![FaultSite {
            step: 0,
            pid: 9,
            op: 0,
            kind: FaultKind::Stall { steps: 1 },
        }]);
        let mut st = FaultState::new(plan);
        assert!(st.stalled_pids(0, 4).is_empty());
        assert!(st.report().fired.is_empty());
    }

    #[test]
    fn arm_take_roundtrip() {
        disarm();
        assert!(take_armed().is_none());
        arm(FaultPlan::empty());
        let (plan, trace) = take_armed().unwrap();
        assert!(plan.sites.is_empty());
        assert!(!trace);
        assert!(take_armed().is_none(), "arming is consumed");
        arm_with_trace(FaultPlan::empty());
        assert!(take_armed().unwrap().1);
    }
}
