//! The step engine.
//!
//! # Engine internals (epoch-stamped, allocation-recycling)
//!
//! A step runs in two phases:
//!
//! 1. **Execute** — processors `0..p` are partitioned into contiguous
//!    pid chunks (at most one per worker thread, at least
//!    `MIN_CHUNK` pids each) and run via recursive [`rayon::join`].
//!    Each chunk appends its read log and its per-pid-deduplicated
//!    write list into a recycled `ChunkScratch` owned by the
//!    [`Machine`] — no per-processor or per-step allocation.
//! 2. **Resolve** — a sequential pass walks the chunk scratches in pid
//!    order and applies writes in place, first-writer-per-cell wins
//!    (equals lowest pid, because the walk is pid-ordered). Conflicts
//!    are detected with **epoch stamps**: two `Vec`s over memory cells
//!    (`stamp_epoch`, `stamp_pid`) record who touched a cell this step;
//!    the epoch advances every step so the stamps never need clearing.
//!    An undo log keeps failed steps atomic.
//!
//! Read-exclusivity (EREW) is checked the same way: a stamped pass over
//! the logged `(addr, pid)` reads, instead of the former
//! clone + sort + dedup + windows scan. When any conflict is detected,
//! the engine falls back to `canonical_read_error` /
//! `canonical_write_error` — a verbatim re-run of the original sorted
//! windows scan — so the *selected* error (lowest address, lowest
//! colliding pids, `WriteConflict` before `CommonValueMismatch`) is
//! bit-identical to the original engine, while the conflict-free hot
//! path never sorts or allocates. [`crate::legacy::LegacyMachine`]
//! retains the original engine for differential tests and benchmarks.

use crate::error::PramError;
use crate::fault::{FaultKind, FaultPlan, FaultReport, FaultState};
use crate::model::Model;
use crate::region::Region;
use crate::stats::Stats;
use crate::Word;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Minimum processors per execution chunk; below `2 *` this a step runs
/// sequentially. Matches the old engine's `with_min_len(256)` grain.
const MIN_CHUNK: usize = 256;

/// Whether step barriers enforce the model's legality rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Log every access; reject model-illegal collisions at the barrier.
    /// Use for correctness arguments and tests.
    #[default]
    Checked,
    /// Skip read logging and legality checks; write collisions resolve
    /// by lowest processor id (still deterministic). Use for large
    /// step-count sweeps where the program is already known legal.
    Fast,
}

/// Recycled per-chunk buffers: one execution chunk's read log, write
/// list, fault slot and dedup scratch. Kept on the [`Machine`] across
/// steps so the steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct ChunkScratch {
    /// `(addr, pid)` for every read — filled only on exclusive-read
    /// models in checked mode.
    reads: Vec<(usize, u32)>,
    /// `(addr, pid, val)` per surviving write, deduplicated within each
    /// pid (last write to a cell wins), in pid order.
    writes: Vec<(usize, u32, Word)>,
    /// Lowest-pid fault raised in this chunk, if any.
    fault: Option<PramError>,
    /// Total read calls (pre-dedup), for [`Stats::reads`].
    read_count: u64,
    // Per-pid write dedup scratch (large-tail path): addr -> (generation,
    // index into `dedup_tmp`). Generations avoid clearing the map.
    dedup_map: HashMap<usize, (u64, usize)>,
    dedup_gen: u64,
    dedup_tmp: Vec<(usize, Word)>,
}

impl ChunkScratch {
    fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.fault = None;
        self.read_count = 0;
    }
}

/// Per-pid write dedup above this tail length switches from a quadratic
/// in-place scan to the generation-stamped hash map.
const DEDUP_LINEAR_MAX: usize = 16;

/// Deduplicate the current pid's writes — `writes[start..]` — keeping,
/// for every cell, the **last** value the processor wrote (sequential
/// semantics within a processor).
fn dedup_pid_writes(scratch: &mut ChunkScratch, start: usize) {
    let n = scratch.writes.len() - start;
    if n <= 1 {
        return;
    }
    if n <= DEDUP_LINEAR_MAX {
        // Keep entry i iff no later write targets the same cell.
        let mut keep = start;
        for i in start..scratch.writes.len() {
            let a = scratch.writes[i].0;
            if scratch.writes[i + 1..].iter().all(|w| w.0 != a) {
                scratch.writes[keep] = scratch.writes[i];
                keep += 1;
            }
        }
        scratch.writes.truncate(keep);
        return;
    }
    let ChunkScratch {
        writes,
        dedup_map,
        dedup_gen,
        dedup_tmp,
        ..
    } = scratch;
    *dedup_gen += 1;
    let gen = *dedup_gen;
    dedup_tmp.clear();
    let pid = writes[start].1;
    for &(a, _, v) in &writes[start..] {
        match dedup_map.entry(a) {
            Entry::Occupied(e) if e.get().0 == gen => {
                dedup_tmp[e.get().1].1 = v;
            }
            Entry::Occupied(mut e) => {
                e.insert((gen, dedup_tmp.len()));
                dedup_tmp.push((a, v));
            }
            Entry::Vacant(e) => {
                e.insert((gen, dedup_tmp.len()));
                dedup_tmp.push((a, v));
            }
        }
    }
    writes.truncate(start);
    writes.extend(dedup_tmp.iter().map(|&(a, v)| (a, pid, v)));
}

/// Per-processor view of one simulated step: reads against the pre-step
/// memory image, buffered writes.
///
/// Obtained only inside [`Machine::step`]; one instance per virtual
/// processor per step.
pub struct ProcCtx<'a> {
    pid: usize,
    mem: &'a [Word],
    count_reads: bool,
    log_read_addrs: bool,
    reads: &'a mut Vec<(usize, u32)>,
    writes: &'a mut Vec<(usize, u32, Word)>,
    read_count: &'a mut u64,
    fault_slot: &'a mut Option<PramError>,
    faulted: bool,
}

impl<'a> ProcCtx<'a> {
    /// This virtual processor's id, `0 ≤ pid < p`.
    #[inline]
    pub fn pid(&self) -> usize {
        self.pid
    }

    #[inline]
    fn fault(&mut self, err: PramError) {
        self.faulted = true;
        // Pids run in ascending order within a chunk, so the first fault
        // kept is the chunk's lowest-pid fault.
        if self.fault_slot.is_none() {
            *self.fault_slot = Some(err);
        }
    }

    /// Read cell `addr` as of the start of the step.
    ///
    /// An out-of-bounds address records a fault (surfaced as the step's
    /// error) and reads as 0 so the remainder of the closure stays total.
    #[inline]
    pub fn read(&mut self, addr: usize) -> Word {
        if self.faulted {
            return 0;
        }
        match self.mem.get(addr) {
            Some(&v) => {
                if self.count_reads {
                    *self.read_count += 1;
                    if self.log_read_addrs {
                        self.reads.push((addr, self.pid as u32));
                    }
                }
                v
            }
            None => {
                self.fault(PramError::OutOfBounds {
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
        if self.faulted {
            return;
        }
        if addr >= self.mem.len() {
            self.fault(PramError::OutOfBounds {
                addr,
                size: self.mem.len(),
                pid: self.pid,
            });
            return;
        }
        self.writes.push((addr, self.pid as u32, val));
    }

    /// Memory size in words (host constant, free to consult).
    #[inline]
    pub fn mem_size(&self) -> usize {
        self.mem.len()
    }
}

/// A simulated PRAM: shared word memory plus a model and an execution
/// mode. See the [crate docs](crate) for semantics and an example.
#[derive(Debug)]
pub struct Machine {
    pub(crate) mem: Vec<Word>,
    pub(crate) model: Model,
    pub(crate) mode: ExecMode,
    pub(crate) stats: Stats,
    pub(crate) trace: Option<crate::trace::Trace>,
    /// Step epoch for the stamp arrays; advances by 2 per step (one
    /// sub-epoch for reads, one for writes), so stamps never clear.
    pub(crate) epoch: u64,
    pub(crate) stamp_epoch: Vec<u64>,
    pub(crate) stamp_pid: Vec<u32>,
    pub(crate) scratch: Vec<ChunkScratch>,
    /// `(addr, previous value)` per applied write — rolls back a step
    /// whose conflict surfaces mid-resolution, keeping failed steps
    /// atomic.
    pub(crate) undo: Vec<(usize, Word)>,
    /// Injection state when a [`FaultPlan`] is installed (directly or
    /// via [`crate::fault::arm`]); `None` on the ordinary path.
    pub(crate) faults: Option<Box<FaultState>>,
}

impl Drop for Machine {
    fn drop(&mut self) {
        // A fault-armed machine publishes its probe so harnesses that
        // never see the machine (it lives inside a matcher) can still
        // read the report: see [`crate::fault::take_probes`].
        if let Some(fs) = self.faults.take() {
            crate::fault::publish_probe(crate::fault::RunProbe {
                report: fs.report(),
                trace: self.trace.take(),
            });
        }
    }
}

impl Machine {
    /// A machine with `size` words of zeroed shared memory, running in
    /// [`ExecMode::Checked`].
    pub fn new(model: Model, size: usize) -> Self {
        Self::with_mode(model, size, ExecMode::Checked)
    }

    /// A machine in [`ExecMode::Fast`].
    pub fn new_fast(model: Model, size: usize) -> Self {
        Self::with_mode(model, size, ExecMode::Fast)
    }

    fn with_mode(model: Model, size: usize, mode: ExecMode) -> Self {
        let armed = crate::fault::take_armed();
        let trace = match &armed {
            Some((_, true)) => Some(crate::trace::Trace::default()),
            _ => None,
        };
        Self {
            mem: vec![0; size],
            model,
            mode,
            stats: Stats::default(),
            trace,
            epoch: 0,
            stamp_epoch: Vec::new(),
            stamp_pid: Vec::new(),
            scratch: Vec::new(),
            undo: Vec::new(),
            faults: armed.map(|(plan, _)| Box::new(FaultState::new(plan))),
        }
    }

    /// Install a fault plan on this machine (replacing any present).
    /// Subsequent steps inject per the plan; see [`crate::fault`].
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(Box::new(FaultState::new(plan)));
    }

    /// The fault report accumulated so far, if a plan is installed.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(|f| f.report())
    }

    /// Injection events so far (0 when no plan is installed).
    fn fault_events(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.events())
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

    /// Mutable access to the live trace — for phase labels
    /// ([`crate::trace::Trace::begin_phase`]) and retry counters.
    /// `None` when tracing is disabled, so callers can label phases
    /// unconditionally at zero cost on untraced runs.
    pub fn trace_mut(&mut self) -> Option<&mut crate::trace::Trace> {
        self.trace.as_mut()
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

    /// How many execution chunks a `p`-processor step uses, and make
    /// sure `scratch[..n]` exists and is reset.
    fn plan_chunks(&mut self, p: usize) -> usize {
        let threads = rayon::current_num_threads();
        let n = if threads <= 1 || p < 2 * MIN_CHUNK {
            1
        } else {
            threads.min(p / MIN_CHUNK).max(1)
        };
        if self.scratch.len() < n {
            self.scratch.resize_with(n, ChunkScratch::default);
        }
        for s in &mut self.scratch[..n] {
            s.reset();
        }
        n
    }

    /// Advance the step epoch and make sure the stamp arrays cover
    /// memory. Returns `(read_epoch, write_epoch)`.
    fn next_epochs(&mut self) -> (u64, u64) {
        self.epoch += 2;
        if self.stamp_epoch.len() < self.mem.len() {
            self.stamp_epoch.resize(self.mem.len(), 0);
            self.stamp_pid.resize(self.mem.len(), 0);
        }
        (self.epoch - 1, self.epoch)
    }

    /// Execute one synchronous step on processors `0..p`.
    ///
    /// Every processor's closure runs against the pre-step memory image;
    /// writes apply at the barrier under the machine's model. On error
    /// the step still *counts* (the machine attempted it) but **no**
    /// writes are applied, so the memory is unchanged.
    pub fn step<F>(&mut self, p: usize, f: F) -> Result<(), PramError>
    where
        F: Fn(&mut ProcCtx<'_>) + Sync,
    {
        let (r0, w0, f0) = (self.stats.reads, self.stats.writes, self.fault_events());
        let res = self.step_inner(p, f);
        if let Some(tr) = &mut self.trace {
            tr.push(crate::trace::StepTrace {
                procs: p,
                reads: self.stats.reads - r0,
                writes: self.stats.writes - w0,
                failed: res.is_err(),
                faults: self.faults.as_ref().map_or(0, |fs| fs.events()) - f0,
            });
        }
        res
    }

    fn step_inner<F>(&mut self, p: usize, f: F) -> Result<(), PramError>
    where
        F: Fn(&mut ProcCtx<'_>) + Sync,
    {
        let step_idx = self.stats.steps;
        self.stats.steps += 1;
        self.stats.work += p as u64;
        if p == 0 {
            return Ok(());
        }
        debug_assert!(p <= u32::MAX as usize, "pid must fit in the stamp array");

        let checked = self.mode == ExecMode::Checked;
        let log_read_addrs = checked && !self.model.allows_concurrent_read();
        let nchunks = self.plan_chunks(p);
        let (read_epoch, write_epoch) = self.next_epochs();
        // Sequential pre-phase: the step's stall set (empty unless a
        // fault plan is installed), keyed only on (step, pid) so it is
        // identical on every pool size.
        let stalls: Vec<u32> = match &mut self.faults {
            Some(fs) => fs.stalled_pids(step_idx, p),
            None => Vec::new(),
        };

        // Phase 1: execute all processors into the chunk scratches.
        run_chunks(
            &mut self.scratch[..nchunks],
            0,
            p,
            &self.mem,
            checked,
            log_read_addrs,
            &stalls,
            &f,
        );

        // Surface the lowest-pid fault deterministically (chunks cover
        // ascending pid ranges; each keeps its own lowest-pid fault).
        for s in &mut self.scratch[..nchunks] {
            if let Some(err) = s.fault.take() {
                return Err(err);
            }
        }

        // Phase 2a: read accounting and exclusivity.
        if checked {
            let total_reads: u64 = self.scratch[..nchunks].iter().map(|s| s.read_count).sum();
            self.stats.reads += total_reads;
            if log_read_addrs && total_reads > 1 {
                for ci in 0..nchunks {
                    for ri in 0..self.scratch[ci].reads.len() {
                        let (addr, pid) = self.scratch[ci].reads[ri];
                        if self.stamp_epoch[addr] == read_epoch && self.stamp_pid[addr] != pid {
                            return Err(canonical_read_error(
                                &self.scratch[..nchunks],
                                self.model,
                                step_idx,
                            ));
                        }
                        self.stamp_epoch[addr] = read_epoch;
                        self.stamp_pid[addr] = pid;
                    }
                }
            }
        }

        // Phase 2b: write accounting and stamped resolution. The walk is
        // in pid order, so the first writer stamped at a cell is the
        // lowest pid — exactly the old sorted first-writer-wins rule.
        let total_writes: u64 = self.scratch[..nchunks]
            .iter()
            .map(|s| s.writes.len() as u64)
            .sum();
        self.stats.writes += total_writes;
        let exclusive_write = checked && !self.model.allows_concurrent_write();
        let common_value = checked && self.model.requires_common_value();
        self.undo.clear();
        // Per-pid op counter for fault-site matching: writes arrive in
        // ascending pid order (chunks cover ascending ranges), so a pid
        // change resets the counter.
        let (mut cur_pid, mut op_idx) = (u32::MAX, 0u32);
        for ci in 0..nchunks {
            for wi in 0..self.scratch[ci].writes.len() {
                let (addr, pid, val) = self.scratch[ci].writes[wi];
                // `targets` is the write after injection: usually just
                // the original, possibly mutated/duplicated/empty.
                let mut targets = [(addr, val), (0, 0)];
                let mut ntargets = 1;
                if let Some(fs) = self.faults.as_mut() {
                    if pid != cur_pid {
                        cur_pid = pid;
                        op_idx = 0;
                    }
                    match fs.write_fault(step_idx, pid, op_idx) {
                        Some(FaultKind::BitFlip { mask }) => targets[0].1 ^= mask,
                        Some(FaultKind::DropWrite) => ntargets = 0,
                        Some(FaultKind::DuplicateWrite { offset }) => {
                            let dup = addr.wrapping_add_signed(offset);
                            if dup < self.mem.len() {
                                targets[1] = (dup, val);
                                ntargets = 2;
                            }
                        }
                        Some(FaultKind::Stall { .. }) | None => {}
                    }
                    op_idx += 1;
                }
                for &(addr, val) in &targets[..ntargets] {
                    if self.stamp_epoch[addr] == write_epoch {
                        if exclusive_write || (common_value && self.mem[addr] != val) {
                            let applied = self.mem[addr];
                            for &(a, old) in self.undo.iter().rev() {
                                self.mem[a] = old;
                            }
                            // With faults injected the scratch no longer
                            // reflects what was applied, so re-deriving the
                            // canonical error from it can miss the conflict;
                            // report the stamped collision directly.
                            return Err(if self.faults.is_some() {
                                if exclusive_write {
                                    PramError::WriteConflict {
                                        model: self.model,
                                        addr,
                                        pids: (self.stamp_pid[addr] as usize, pid as usize),
                                        step: step_idx,
                                    }
                                } else {
                                    PramError::CommonValueMismatch {
                                        addr,
                                        values: (applied, val),
                                        step: step_idx,
                                    }
                                }
                            } else {
                                canonical_write_error(
                                    &self.scratch[..nchunks],
                                    self.model,
                                    step_idx,
                                )
                            });
                        }
                        // Legal concurrent write: the lowest pid already won.
                    } else {
                        self.stamp_epoch[addr] = write_epoch;
                        self.stamp_pid[addr] = pid;
                        if checked {
                            self.undo.push((addr, self.mem[addr]));
                        }
                        self.mem[addr] = val;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Run pids `[lo, hi)` over `chunks`, splitting recursively so each
/// chunk executes on (at most) one worker thread. Chunk `i` always
/// receives the `i`-th contiguous pid range, so the concatenated
/// scratches are in ascending pid order regardless of scheduling.
/// Pids in `stalls` (sorted) are skipped entirely — the fault module's
/// stall class; empty on the ordinary path.
#[allow(clippy::too_many_arguments)]
fn run_chunks<F>(
    chunks: &mut [ChunkScratch],
    lo: usize,
    hi: usize,
    mem: &[Word],
    count_reads: bool,
    log_read_addrs: bool,
    stalls: &[u32],
    f: &F,
) where
    F: Fn(&mut ProcCtx<'_>) + Sync,
{
    if chunks.len() <= 1 {
        let s = &mut chunks[0];
        for pid in lo..hi {
            if !stalls.is_empty() && stalls.binary_search(&(pid as u32)).is_ok() {
                continue;
            }
            let write_start = s.writes.len();
            let mut ctx = ProcCtx {
                pid,
                mem,
                count_reads,
                log_read_addrs,
                reads: &mut s.reads,
                writes: &mut s.writes,
                read_count: &mut s.read_count,
                fault_slot: &mut s.fault,
                faulted: false,
            };
            f(&mut ctx);
            if !ctx.faulted {
                dedup_pid_writes(s, write_start);
            }
        }
        return;
    }
    let half = chunks.len() / 2;
    let (left, right) = chunks.split_at_mut(half);
    let mid = lo + (hi - lo) * half / (half + right.len());
    rayon::join(
        || run_chunks(left, lo, mid, mem, count_reads, log_read_addrs, stalls, f),
        || run_chunks(right, mid, hi, mem, count_reads, log_read_addrs, stalls, f),
    );
}

/// Recompute the read-conflict error exactly as the original engine
/// selected it: per-pid dedup, global sort by `(addr, pid)`, first
/// adjacent collision. Called only after the stamp pass has proven a
/// conflict exists, so cost is irrelevant.
fn canonical_read_error(chunks: &[ChunkScratch], model: Model, step: u64) -> PramError {
    let mut reads: Vec<(usize, u32)> = chunks
        .iter()
        .flat_map(|s| s.reads.iter().copied())
        .collect();
    // Sorting (addr, pid) then deduplicating exact pairs is equivalent to
    // the old per-pid sort+dedup followed by a global sort: same set of
    // unique (addr, pid) pairs, same order.
    reads.sort_unstable();
    reads.dedup();
    for w in reads.windows(2) {
        if w[0].0 == w[1].0 {
            return PramError::ReadConflict {
                model,
                addr: w[0].0,
                pids: (w[0].1 as usize, w[1].1 as usize),
                step,
            };
        }
    }
    unreachable!("stamp pass found a read conflict the canonical scan did not")
}

/// Recompute the write-conflict error exactly as the original engine
/// selected it: global sort of per-pid-deduped `(addr, pid, val)`
/// triples, first adjacent collision, `WriteConflict` before
/// `CommonValueMismatch` per pair.
fn canonical_write_error(chunks: &[ChunkScratch], model: Model, step: u64) -> PramError {
    let mut writes: Vec<(usize, u32, Word)> = chunks
        .iter()
        .flat_map(|s| s.writes.iter().copied())
        .collect();
    writes.sort_unstable();
    for w in writes.windows(2) {
        if w[0].0 == w[1].0 {
            if !model.allows_concurrent_write() {
                return PramError::WriteConflict {
                    model,
                    addr: w[0].0,
                    pids: (w[0].1 as usize, w[1].1 as usize),
                    step,
                };
            }
            if model.requires_common_value() && w[0].2 != w[1].2 {
                return PramError::CommonValueMismatch {
                    addr: w[0].0,
                    values: (w[0].2, w[1].2),
                    step,
                };
            }
        }
    }
    unreachable!("stamp pass found a write conflict the canonical scan did not")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_reads_pre_step_state() {
        // Simultaneous swap: a classic test that reads precede writes.
        let mut m = Machine::new(Model::Erew, 2);
        m.poke(0, 10);
        m.poke(1, 20);
        m.step(2, |ctx| {
            let other = 1 - ctx.pid();
            let v = ctx.read(other);
            ctx.write(ctx.pid(), v);
        })
        .unwrap();
        assert_eq!(m.peek(0), 20);
        assert_eq!(m.peek(1), 10);
    }

    #[test]
    fn erew_read_conflict_detected() {
        let mut m = Machine::new(Model::Erew, 4);
        let err = m.step(2, |ctx| {
            ctx.read(3);
        });
        assert!(
            matches!(err, Err(PramError::ReadConflict { addr: 3, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn erew_same_proc_rereads_allowed() {
        let mut m = Machine::new(Model::Erew, 4);
        m.step(2, |ctx| {
            let a = ctx.pid();
            let _ = ctx.read(a);
            let _ = ctx.read(a);
        })
        .unwrap();
    }

    #[test]
    fn crew_allows_concurrent_read_but_not_write() {
        let mut m = Machine::new(Model::Crew, 4);
        m.step(4, |ctx| {
            let _ = ctx.read(0);
        })
        .unwrap();
        let err = m.step(2, |ctx| ctx.write(1, ctx.pid() as Word));
        assert!(matches!(err, Err(PramError::WriteConflict { addr: 1, .. })));
    }

    #[test]
    fn crcw_common_agreement_and_mismatch() {
        let mut m = Machine::new(Model::CrcwCommon, 4);
        m.step(4, |ctx| ctx.write(2, 7)).unwrap();
        assert_eq!(m.peek(2), 7);
        let err = m.step(2, |ctx| ctx.write(2, ctx.pid() as Word));
        assert!(matches!(
            err,
            Err(PramError::CommonValueMismatch { addr: 2, .. })
        ));
        // failed step must not have modified memory
        assert_eq!(m.peek(2), 7);
    }

    #[test]
    fn crcw_priority_lowest_pid_wins() {
        for model in [Model::CrcwArbitrary, Model::CrcwPriority] {
            let mut m = Machine::new(model, 1);
            m.step(8, |ctx| ctx.write(0, 100 + ctx.pid() as Word))
                .unwrap();
            assert_eq!(m.peek(0), 100, "{model}");
        }
    }

    #[test]
    fn last_write_within_processor_wins() {
        let mut m = Machine::new(Model::Erew, 1);
        m.step(1, |ctx| {
            ctx.write(0, 1);
            ctx.write(0, 2);
            ctx.write(0, 3);
        })
        .unwrap();
        assert_eq!(m.peek(0), 3);
    }

    #[test]
    fn many_writes_to_same_cell_dedup_to_last() {
        // Exercises the hash-map dedup path (tail length > 16) and the
        // stats contract: the deduped count is what's accounted.
        let mut m = Machine::new(Model::Erew, 4);
        m.step(2, |ctx| {
            if ctx.pid() == 0 {
                for k in 0..100u64 {
                    ctx.write(0, k);
                    ctx.write(1, 2 * k);
                }
            } else {
                for k in 0..100u64 {
                    ctx.write(2, 3 * k);
                }
                ctx.write(3, 11);
            }
        })
        .unwrap();
        assert_eq!(m.peek(0), 99);
        assert_eq!(m.peek(1), 198);
        assert_eq!(m.peek(2), 297);
        assert_eq!(m.peek(3), 11);
        // 2 surviving cells for pid 0, 2 for pid 1.
        assert_eq!(m.stats().writes, 4);
    }

    #[test]
    fn dedup_hash_path_many_distinct_then_duplicates() {
        // > 16 distinct cells forces the generation-stamped map; a second
        // burst to the same cells in the same step must keep last values.
        let mut m = Machine::new(Model::Erew, 64);
        m.step(1, |ctx| {
            for a in 0..32usize {
                ctx.write(a, a as Word);
            }
            for a in 0..32usize {
                ctx.write(a, 100 + a as Word);
            }
        })
        .unwrap();
        for a in 0..32usize {
            assert_eq!(m.peek(a), 100 + a as Word);
        }
        assert_eq!(m.stats().writes, 32);
        // Run again to confirm the generation counter isolates steps.
        m.step(1, |ctx| {
            for a in 0..32usize {
                ctx.write(a, 500 + a as Word);
            }
        })
        .unwrap();
        assert_eq!(m.peek(31), 531);
        assert_eq!(m.stats().writes, 64);
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut m = Machine::new(Model::Erew, 2);
        let err = m.step(1, |ctx| {
            let _ = ctx.read(99);
        });
        assert!(matches!(err, Err(PramError::OutOfBounds { addr: 99, .. })));
        let err = m.step(1, |ctx| ctx.write(5, 1));
        assert!(matches!(err, Err(PramError::OutOfBounds { addr: 5, .. })));
    }

    #[test]
    fn stats_accumulate() {
        let mut m = Machine::new(Model::Erew, 8);
        m.step(8, |ctx| {
            let v = ctx.read(ctx.pid());
            ctx.write(ctx.pid(), v + 1);
        })
        .unwrap();
        m.step(4, |ctx| {
            let _ = ctx.read(ctx.pid());
        })
        .unwrap();
        let s = m.stats();
        assert_eq!(s.steps, 2);
        assert_eq!(s.work, 12);
        assert_eq!(s.reads, 12);
        assert_eq!(s.writes, 8);
    }

    #[test]
    fn failed_step_still_counts_but_leaves_memory() {
        let mut m = Machine::new(Model::Erew, 2);
        m.poke(0, 42);
        let _ = m.step(2, |ctx| ctx.write(0, ctx.pid() as Word));
        assert_eq!(m.stats().steps, 1);
        assert_eq!(m.peek(0), 42);
    }

    #[test]
    fn failed_common_step_rolls_back_partial_writes() {
        // pid 0 writes cell 0 (applied in-place), then the mismatch at
        // cell 1 must roll it back.
        let mut m = Machine::new(Model::CrcwCommon, 2);
        m.poke(0, 7);
        let err = m.step(2, |ctx| {
            if ctx.pid() == 0 {
                ctx.write(0, 99);
            }
            ctx.write(1, ctx.pid() as Word);
        });
        assert!(matches!(
            err,
            Err(PramError::CommonValueMismatch { addr: 1, .. })
        ));
        assert_eq!(m.peek(0), 7, "applied prefix must be rolled back");
        assert_eq!(m.peek(1), 0);
    }

    #[test]
    fn fast_mode_skips_checks_resolves_by_pid() {
        let mut m = Machine::new_fast(Model::Erew, 1);
        // Illegal on EREW, but fast mode doesn't look.
        m.step(4, |ctx| ctx.write(0, ctx.pid() as Word + 50))
            .unwrap();
        assert_eq!(m.peek(0), 50);
        assert_eq!(m.stats().reads, 0, "fast mode does not count reads");
    }

    #[test]
    fn determinism_across_pool_sizes() {
        // Same program on 1-thread and default pools → same image.
        let run = |threads: Option<usize>| -> Vec<Word> {
            let body = || {
                let mut m = Machine::new(Model::CrcwPriority, 64);
                for r in 0..10 {
                    m.step(64, move |ctx| {
                        let v = ctx.read(ctx.pid());
                        ctx.write((ctx.pid() * 7 + r) % 64, v + ctx.pid() as Word);
                    })
                    .unwrap();
                }
                m.memory().to_vec()
            };
            match threads {
                Some(t) => rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
                    .install(body),
                None => body(),
            }
        };
        assert_eq!(run(Some(1)), run(None));
    }

    #[test]
    fn determinism_across_pool_sizes_large_step() {
        // Large enough for several execution chunks; CRCW-priority
        // collisions must still resolve identically on 1..=4 threads.
        let run = |threads: usize| -> Vec<Word> {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let mut m = Machine::new_fast(Model::CrcwPriority, 1 << 12);
                    for r in 0..4u64 {
                        m.step(1 << 12, move |ctx| {
                            let t = (ctx.pid() as u64).wrapping_mul(2654435761 + r) % (1 << 12);
                            let v = ctx.read(t as usize);
                            ctx.write(t as usize, v.wrapping_add(ctx.pid() as u64));
                        })
                        .unwrap();
                    }
                    m.memory().to_vec()
                })
        };
        let want = run(1);
        for t in [2, 3, 4] {
            assert_eq!(run(t), want, "threads={t}");
        }
    }

    #[test]
    fn alloc_and_regions() {
        let mut m = Machine::new(Model::Erew, 0);
        let a = m.alloc(4);
        let b = m.alloc(2);
        assert_eq!(m.size(), 6);
        m.load_region(a, &[1, 2, 3, 4]);
        m.load_region(b, &[9, 9]);
        assert_eq!(m.region_slice(a), &[1, 2, 3, 4]);
        assert_eq!(m.region_slice(b), &[9, 9]);
        assert_eq!(m.peek(4), 9);
    }

    #[test]
    fn alloc_after_steps_grows_stamps() {
        // Memory grown after the stamp arrays were sized must still be
        // conflict-checked correctly.
        let mut m = Machine::new(Model::Erew, 2);
        m.step(2, |ctx| ctx.write(ctx.pid(), 1)).unwrap();
        let r = m.alloc(4);
        m.step(2, |ctx| {
            r.set(ctx, ctx.pid(), 5);
        })
        .unwrap();
        assert_eq!(m.region_slice(r), &[5, 5, 0, 0]);
        let err = m.step(2, |ctx| ctx.write(r.addr(0), ctx.pid() as Word));
        assert!(matches!(err, Err(PramError::WriteConflict { .. })));
    }

    #[test]
    #[should_panic(expected = "load size mismatch")]
    fn load_region_size_mismatch() {
        let mut m = Machine::new(Model::Erew, 0);
        let a = m.alloc(3);
        m.load_region(a, &[1]);
    }

    #[test]
    fn trace_records_per_step() {
        let mut m = Machine::new(Model::Erew, 8);
        assert!(m.trace().is_none());
        m.enable_trace();
        m.step(8, |ctx| {
            let v = ctx.read(ctx.pid());
            ctx.write(ctx.pid(), v + 1);
        })
        .unwrap();
        let _ = m.step(2, |ctx| {
            let _ = ctx.read(7); // EREW read conflict
        });
        let tr = m.take_trace().unwrap();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.steps()[0].procs, 8);
        assert_eq!(tr.steps()[0].reads, 8);
        assert_eq!(tr.steps()[0].writes, 8);
        assert!(!tr.steps()[0].failed);
        assert!(tr.steps()[1].failed);
        assert_eq!(tr.max_procs(), 8);
        assert!(m.trace().is_none(), "take_trace stops recording");
    }

    #[test]
    fn fault_bit_flip_corrupts_written_word() {
        use crate::fault::{FaultPlan, FaultSite};
        let mut m = Machine::new(Model::Erew, 4);
        m.install_fault_plan(FaultPlan::new(vec![FaultSite {
            step: 0,
            pid: 2,
            op: 0,
            kind: FaultKind::BitFlip { mask: 0b100 },
        }]));
        m.step(4, |ctx| ctx.write(ctx.pid(), 1)).unwrap();
        assert_eq!(m.memory(), &[1, 1, 1 ^ 0b100, 1]);
        let r = m.fault_report().unwrap();
        assert_eq!(r.fired, vec![0]);
        assert_eq!(r.events, 1);
    }

    #[test]
    fn fault_drop_write_loses_exactly_one_write() {
        use crate::fault::{FaultPlan, FaultSite};
        let mut m = Machine::new(Model::Erew, 4);
        m.install_fault_plan(FaultPlan::new(vec![FaultSite {
            step: 1,
            pid: 1,
            op: 0,
            kind: FaultKind::DropWrite,
        }]));
        m.step(4, |ctx| ctx.write(ctx.pid(), 7)).unwrap();
        m.step(4, |ctx| ctx.write(ctx.pid(), 9)).unwrap();
        assert_eq!(m.memory(), &[9, 7, 9, 9], "pid 1's second write lost");
    }

    #[test]
    fn fault_duplicate_write_hits_neighbor() {
        use crate::fault::{FaultPlan, FaultSite};
        // CRCW-priority: the duplicate to a neighbor is legal, just wrong.
        let mut m = Machine::new(Model::CrcwPriority, 4);
        m.install_fault_plan(FaultPlan::new(vec![FaultSite {
            step: 0,
            pid: 0,
            op: 0,
            kind: FaultKind::DuplicateWrite { offset: 1 },
        }]));
        m.step(1, |ctx| ctx.write(0, 5)).unwrap();
        assert_eq!(m.memory(), &[5, 5, 0, 0]);
    }

    #[test]
    fn fault_duplicate_write_conflict_detected_on_erew() {
        use crate::fault::{FaultPlan, FaultSite};
        // pid 0's duplicate lands on pid 1's cell: EREW must reject the
        // step and leave memory untouched (atomicity).
        let mut m = Machine::new(Model::Erew, 4);
        m.install_fault_plan(FaultPlan::new(vec![FaultSite {
            step: 0,
            pid: 0,
            op: 0,
            kind: FaultKind::DuplicateWrite { offset: 1 },
        }]));
        let err = m.step(2, |ctx| ctx.write(ctx.pid(), 3));
        assert!(
            matches!(err, Err(PramError::WriteConflict { addr: 1, .. })),
            "{err:?}"
        );
        assert_eq!(m.memory(), &[0, 0, 0, 0]);
    }

    #[test]
    fn fault_stall_skips_processor_for_k_steps() {
        use crate::fault::{FaultPlan, FaultSite};
        let mut m = Machine::new(Model::Erew, 4);
        m.install_fault_plan(FaultPlan::new(vec![FaultSite {
            step: 0,
            pid: 3,
            op: 0,
            kind: FaultKind::Stall { steps: 2 },
        }]));
        for _ in 0..3 {
            m.step(4, |ctx| {
                let v = ctx.read(ctx.pid());
                ctx.write(ctx.pid(), v + 1);
            })
            .unwrap();
        }
        assert_eq!(m.memory(), &[3, 3, 3, 1], "pid 3 missed 2 of 3 steps");
        let r = m.fault_report().unwrap();
        assert_eq!(r.events, 2, "one event per stalled step");
    }

    #[test]
    fn fault_injection_independent_of_pool_size() {
        use crate::fault::{FaultClass, FaultPlan};
        // A seeded plan over a chunked step (p > 2*MIN_CHUNK) must give
        // the same image and report on every pool size.
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let p = 700;
                    let mut m = Machine::new(Model::CrcwPriority, p);
                    let mut plan = FaultPlan::generate(42, FaultClass::BitFlip, 6, 4, p as u32);
                    plan.sites
                        .extend(FaultPlan::generate(43, FaultClass::Stall, 4, 4, p as u32).sites);
                    m.install_fault_plan(plan);
                    for r in 0..4u64 {
                        m.step(p, move |ctx| {
                            let v = ctx.read((ctx.pid() * 13 + r as usize) % 700);
                            ctx.write(ctx.pid(), v.wrapping_add(ctx.pid() as Word));
                        })
                        .unwrap();
                    }
                    (m.memory().to_vec(), m.fault_report().unwrap())
                })
        };
        let base = run(1);
        for t in [2, 4] {
            assert_eq!(run(t), base, "threads={t}");
        }
    }

    #[test]
    fn armed_machine_publishes_probe_on_drop() {
        use crate::fault::{self, FaultPlan, FaultSite};
        let _ = fault::take_probes(); // drain anything earlier tests left
        fault::arm_with_trace(FaultPlan::new(vec![FaultSite {
            step: 0,
            pid: 0,
            op: 0,
            kind: FaultKind::DropWrite,
        }]));
        {
            let mut m = Machine::new(Model::Erew, 2);
            m.step(1, |ctx| ctx.write(0, 1)).unwrap();
            assert_eq!(m.peek(0), 0, "write dropped");
        }
        let probes = fault::take_probes();
        assert_eq!(probes.len(), 1);
        assert_eq!(probes[0].report.fired, vec![0]);
        let tr = probes[0].trace.as_ref().expect("arm_with_trace traces");
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.steps()[0].faults, 1);
        assert!(fault::take_probes().is_empty());
    }
}
