//! The library calls both workload families make, each safe to count: a
//! pooled `Runner` run that turns a panic or `RunnerError` into a
//! failure, the output check, the bare pointer-chase floor, and the
//! outcome counts.

use crate::report::Report;
use crate::trace::PhaseTimer;
use parmatch_core::prelude::*;
use parmatch_list::{LinkedList, NodeId, NIL};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A thread-count limit to `install`: `threads` workers, 0 for the
/// machine default.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builder cannot fail")
}

/// Position of `algo` in `Algorithm::ALL`.
pub fn index(algo: Algorithm) -> usize {
    Algorithm::ALL
        .iter()
        .position(|a| *a == algo)
        .expect("every algorithm is listed")
}

/// One `Runner` run with the defaults on the pooled workspace `ws`,
/// traced when `timer` is given. A panic scrubs `ws`, as the service does
/// for a panicked job, and comes back as an error like a `RunnerError`.
pub fn run_matcher(
    algo: Algorithm,
    list: &LinkedList,
    ws: &mut Workspace,
    timer: Option<&mut PhaseTimer<'_>>,
) -> Result<MatchOutcome, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let runner = Runner::new(algo).workspace(&mut *ws);
        match timer {
            Some(timer) => runner.observer(timer).try_run(list),
            None => runner.try_run(list),
        }
    }));
    match result {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(format!("{algo}: {e}")),
        Err(payload) => {
            ws.scrub();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("{algo} panicked: {msg}"))
        }
    }
}

/// The output check: `verify::is_matching` and `verify::is_maximal`, plus
/// a direct check that no node ends two matched pointers, which
/// `is_matching` misses when two matched pointers share a head.
pub fn check_matching(list: &LinkedList, m: &Matching) -> Result<(), &'static str> {
    if !verify::is_matching(list, m) {
        return Err("not a matching");
    }
    if !verify::is_maximal(list, m) {
        return Err("not maximal");
    }
    let mut used = vec![false; list.len()];
    for (v, _) in m.mask().iter().enumerate().filter(|(_, &on)| on) {
        let head = list.next_raw(v as NodeId);
        if head == NIL {
            return Err("a matched pointer without a head");
        }
        for x in [v, head as usize] {
            if std::mem::replace(&mut used[x], true) {
                return Err("a node used twice");
            }
        }
    }
    Ok(())
}

/// The bare pointer-chase floor: walk `next` from the head and touch
/// nothing else. Returns the nodes visited.
pub fn chase(list: &LinkedList) -> usize {
    let next = list.next_array();
    let mut v = list.head();
    let mut steps = 0;
    while v != NIL {
        v = next[v as usize];
        steps += 1;
    }
    steps
}

/// Work counts read off the outcomes, summed over the runs added. For a
/// given seed they repeat exactly, so a change in one is a change in the
/// work done rather than in speed.
#[derive(Default)]
pub struct Counts {
    runs: [usize; 4],
    match1_rounds: u64,
    match3_jump_rounds: u64,
    match3_table_bits: u64,
    match4_walk_rounds: u64,
    match4_distinct_sets: u64,
}

impl Counts {
    pub fn add(&mut self, out: &MatchOutcome) {
        self.runs[index(out.algorithm())] += 1;
        match out {
            MatchOutcome::Match1(o) => self.match1_rounds += u64::from(o.rounds),
            MatchOutcome::Match3(o) => {
                self.match3_jump_rounds += u64::from(o.jump_rounds);
                self.match3_table_bits += u64::from(o.table_bits);
            }
            MatchOutcome::Match4(o) => {
                self.match4_walk_rounds += o.walk_rounds as u64;
                self.match4_distinct_sets += o.distinct_sets as u64;
            }
            MatchOutcome::Match2(_) => {}
        }
    }

    pub fn emit(&self, report: &mut Report) {
        let [m1, _, m3, m4] = self.runs;
        report.metric("match1.rounds", self.match1_rounds as f64, "count", m1);
        report.metric(
            "match3.jump_rounds",
            self.match3_jump_rounds as f64,
            "count",
            m3,
        );
        report.metric(
            "match3.table_bits",
            self.match3_table_bits as f64,
            "count",
            m3,
        );
        report.metric(
            "match4.walk_rounds",
            self.match4_walk_rounds as f64,
            "count",
            m4,
        );
        report.metric(
            "match4.distinct_sets",
            self.match4_distinct_sets as f64,
            "count",
            m4,
        );
    }
}
