//! The original (pre-epoch-stamp) step engine, kept verbatim.
//!
//! [`LegacyMachine`] is the engine this crate shipped with before the
//! epoch-stamped rewrite in [`crate::machine`]: per-processor `Vec`
//! read/write logs allocated every step, clone + sort + dedup +
//! windows scans for conflict detection, and a global
//! `par_sort_unstable` for deterministic lowest-pid write resolution.
//! Its *observable* semantics — memory images, step/work/read/write
//! accounting, error selection — are the specification the new engine
//! must match bit-for-bit; the differential property tests in
//! `tests/engine_equivalence.rs` and the `experiments -- engine`
//! benchmark run the two side by side. Keeping it verbatim
//! (including its rayon parallelism) makes the benchmark comparison
//! apples-to-apples.
//!
//! Not deprecated, but not for new code either: use
//! [`crate::Machine`].

use crate::error::PramError;
use crate::machine::ExecMode;
use crate::model::Model;
use crate::region::Region;
use crate::stats::Stats;
use crate::Word;
use rayon::prelude::*;

/// Per-processor view of one simulated step: reads against the pre-step
/// memory image, buffered writes.
///
/// Obtained only inside [`LegacyMachine::step`]; one instance per virtual
/// processor per step.
pub struct LegacyCtx<'a> {
    pid: usize,
    mem: &'a [Word],
    log_reads: bool,
    reads: Vec<usize>,
    writes: Vec<(usize, Word)>,
    fault: Option<PramError>,
}

impl<'a> LegacyCtx<'a> {
    fn new(pid: usize, mem: &'a [Word], log_reads: bool) -> Self {
        Self {
            pid,
            mem,
            log_reads,
            reads: Vec::new(),
            writes: Vec::new(),
            fault: None,
        }
    }

    /// This virtual processor's id, `0 ≤ pid < p`.
    #[inline]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Read cell `addr` as of the start of the step.
    ///
    /// An out-of-bounds address records a fault (surfaced as the step's
    /// error) and reads as 0 so the remainder of the closure stays total.
    #[inline]
    pub fn read(&mut self, addr: usize) -> Word {
        if self.fault.is_some() {
            return 0;
        }
        match self.mem.get(addr) {
            Some(&v) => {
                if self.log_reads {
                    self.reads.push(addr);
                }
                v
            }
            None => {
                self.fault = Some(PramError::OutOfBounds {
                    addr,
                    size: self.mem.len(),
                    pid: self.pid,
                });
                0
            }
        }
    }

    /// Buffer a write of `val` to cell `addr`, applied at the step
    /// barrier. A processor writing the same cell twice in one step keeps
    /// its **last** value (sequential semantics within the processor).
    #[inline]
    pub fn write(&mut self, addr: usize, val: Word) {
        if self.fault.is_some() {
            return;
        }
        if addr >= self.mem.len() {
            self.fault = Some(PramError::OutOfBounds {
                addr,
                size: self.mem.len(),
                pid: self.pid,
            });
            return;
        }
        self.writes.push((addr, val));
    }

    /// Memory size in words (host constant, free to consult).
    #[inline]
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }
}

/// One per-processor record produced by a step.
struct ProcLog {
    pid: usize,
    reads: Vec<usize>,
    writes: Vec<(usize, Word)>,
    fault: Option<PramError>,
}

/// A simulated PRAM: shared word memory plus a model and an execution
/// mode. See the [crate docs](crate) for semantics and an example.
#[derive(Debug)]
pub struct LegacyMachine {
    mem: Vec<Word>,
    model: Model,
    mode: ExecMode,
    stats: Stats,
    trace: Option<crate::trace::Trace>,
}

impl LegacyMachine {
    /// A machine with `size` words of zeroed shared memory, running in
    /// [`ExecMode::Checked`].
    pub fn new(model: Model, size: usize) -> Self {
        Self {
            mem: vec![0; size],
            model,
            mode: ExecMode::Checked,
            stats: Stats::default(),
            trace: None,
        }
    }

    /// A machine in [`ExecMode::Fast`].
    pub fn new_fast(model: Model, size: usize) -> Self {
        Self {
            mem: vec![0; size],
            model,
            mode: ExecMode::Fast,
            stats: Stats::default(),
            trace: None,
        }
    }

    /// Start recording one [`crate::trace::StepTrace`] per step.
    pub fn enable_trace(&mut self) {
        self.trace = Some(crate::trace::Trace::default());
    }

    /// Stop recording and return the trace collected so far, if any.
    pub fn take_trace(&mut self) -> Option<crate::trace::Trace> {
        self.trace.take()
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::Trace> {
        self.trace.as_ref()
    }

    /// The machine's model.
    #[inline]
    pub fn model(&self) -> Model {
        self.model
    }

    /// The machine's execution mode.
    #[inline]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Accumulated step/work accounting.
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Reset the accounting (memory is left untouched) — used between
    /// phases when an experiment reports them separately.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::default();
    }

    /// Memory size in words.
    #[inline]
    pub fn size(&self) -> usize {
        self.mem.len()
    }

    /// Grow memory by `len` zeroed words and return the new [`Region`].
    /// Host-side operation (not a simulated step).
    pub fn alloc(&mut self, len: usize) -> Region {
        let base = self.mem.len();
        self.mem.resize(base + len, 0);
        Region::new(base, len)
    }

    /// Host-side read of one cell (not counted as simulated work).
    #[inline]
    pub fn peek(&self, addr: usize) -> Word {
        self.mem[addr]
    }

    /// Host-side write of one cell (not counted as simulated work).
    #[inline]
    pub fn poke(&mut self, addr: usize, val: Word) {
        self.mem[addr] = val;
    }

    /// Host-side view of a region's cells.
    pub fn region_slice(&self, r: Region) -> &[Word] {
        &self.mem[r.base()..r.base() + r.len()]
    }

    /// Host-side bulk load into a region.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != r.len()`.
    pub fn load_region(&mut self, r: Region, data: &[Word]) {
        assert_eq!(data.len(), r.len(), "load size mismatch");
        self.mem[r.base()..r.base() + r.len()].copy_from_slice(data);
    }

    /// Entire memory image (host-side).
    pub fn memory(&self) -> &[Word] {
        &self.mem
    }

    /// Execute one synchronous step on processors `0..p`.
    ///
    /// Every processor's closure runs against the pre-step memory image;
    /// writes apply at the barrier under the machine's model. On error
    /// the step still *counts* (the machine attempted it) but **no**
    /// writes are applied, so the memory is unchanged.
    pub fn step<F>(&mut self, p: usize, f: F) -> Result<(), PramError>
    where
        F: Fn(&mut LegacyCtx<'_>) + Sync,
    {
        let (r0, w0) = (self.stats.reads, self.stats.writes);
        let res = self.step_inner(p, f);
        if let Some(tr) = &mut self.trace {
            tr.push(crate::trace::StepTrace {
                procs: p,
                reads: self.stats.reads - r0,
                writes: self.stats.writes - w0,
                failed: res.is_err(),
                // The legacy engine takes no fault plans: it is the
                // fault-free oracle.
                faults: 0,
            });
        }
        res
    }

    fn step_inner<F>(&mut self, p: usize, f: F) -> Result<(), PramError>
    where
        F: Fn(&mut LegacyCtx<'_>) + Sync,
    {
        let step_idx = self.stats.steps;
        self.stats.steps += 1;
        self.stats.work += p as u64;

        let log_reads = self.mode == ExecMode::Checked;
        let mem = &self.mem;
        let mut logs: Vec<ProcLog> = (0..p)
            .into_par_iter()
            .with_min_len(256)
            .map(|pid| {
                let mut ctx = LegacyCtx::new(pid, mem, log_reads);
                f(&mut ctx);
                ProcLog {
                    pid,
                    reads: ctx.reads,
                    writes: ctx.writes,
                    fault: ctx.fault,
                }
            })
            .collect();

        // Surface the lowest-pid fault deterministically.
        if let Some(log) = logs.iter_mut().find(|l| l.fault.is_some()) {
            return Err(log.fault.take().expect("fault present"));
        }

        // Read-conflict detection (checked mode, exclusive-read models).
        if log_reads {
            let read_count: usize = logs.iter().map(|l| l.reads.len()).sum();
            self.stats.reads += read_count as u64;
            if !self.model.allows_concurrent_read() && read_count > 1 {
                let mut reads: Vec<(usize, usize)> = logs
                    .par_iter()
                    .flat_map_iter(|l| {
                        // A processor re-reading its own cell is one access
                        // pattern the EREW model allows (it is still one
                        // processor at the cell), so dedup within the pid.
                        let mut rs = l.reads.clone();
                        rs.sort_unstable();
                        rs.dedup();
                        rs.into_iter().map(move |a| (a, l.pid))
                    })
                    .collect();
                reads.par_sort_unstable();
                for w in reads.windows(2) {
                    if w[0].0 == w[1].0 {
                        return Err(PramError::ReadConflict {
                            model: self.model,
                            addr: w[0].0,
                            pids: (w[0].1, w[1].1),
                            step: step_idx,
                        });
                    }
                }
            }
        }

        // Gather writes: (addr, pid, val), sorted so the lowest pid per
        // address comes first and resolution is deterministic.
        let mut writes: Vec<(usize, usize, Word)> = logs
            .par_iter()
            .flat_map_iter(|l| {
                // Within a processor, the last write to a cell wins;
                // iterate in reverse keeping first-seen.
                let mut seen: Vec<(usize, Word)> = Vec::with_capacity(l.writes.len());
                for &(a, v) in l.writes.iter().rev() {
                    if !seen.iter().any(|&(sa, _)| sa == a) {
                        seen.push((a, v));
                    }
                }
                seen.into_iter().map(move |(a, v)| (a, l.pid, v))
            })
            .collect();
        self.stats.writes += writes.len() as u64;
        writes.par_sort_unstable();

        if self.mode == ExecMode::Checked {
            for w in writes.windows(2) {
                if w[0].0 == w[1].0 {
                    if !self.model.allows_concurrent_write() {
                        return Err(PramError::WriteConflict {
                            model: self.model,
                            addr: w[0].0,
                            pids: (w[0].1, w[1].1),
                            step: step_idx,
                        });
                    }
                    if self.model.requires_common_value() && w[0].2 != w[1].2 {
                        return Err(PramError::CommonValueMismatch {
                            addr: w[0].0,
                            values: (w[0].2, w[1].2),
                            step: step_idx,
                        });
                    }
                }
            }
        }

        // Apply: first (lowest-pid) writer per address wins.
        let mut last_addr = usize::MAX;
        for (addr, _pid, val) in writes {
            if addr != last_addr {
                self.mem[addr] = val;
                last_addr = addr;
            }
        }
        Ok(())
    }

    /// Run `rounds` identical steps (a common pattern for jumping loops).
    pub fn steps<F>(&mut self, rounds: usize, p: usize, f: F) -> Result<(), PramError>
    where
        F: Fn(&mut LegacyCtx<'_>) + Sync,
    {
        for _ in 0..rounds {
            self.step(p, &f)?;
        }
        Ok(())
    }
}
