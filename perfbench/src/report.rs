//! The metrics a run reports, the order statistics they are reduced
//! with, and the printed result.

use crate::trace::{phase, NPHASES};
use parmatch_core::prelude::Algorithm;
use std::fmt::Display;

/// One reported value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value was reduced from.
    pub samples: usize,
    /// For a ratio, what it is relative to.
    pub base: Option<&'static str>,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: matcher and floor calls, batch and service jobs.
    pub attempted: u64,
    /// One line per failed operation or output check.
    failures: Vec<String>,
    /// Host and input facts, as JSON object members.
    facts: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            base: None,
        });
    }

    /// A dimensionless ratio, printed with what it is relative to.
    pub fn ratio(
        &mut self,
        name: impl Into<String>,
        value: f64,
        samples: usize,
        base: &'static str,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: "x",
            samples,
            base: Some(base),
        });
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: FAILED: {what}");
        self.failures.push(what);
    }

    /// Record a fact; `value` must already be JSON (quote strings with
    /// [`json_str`]).
    pub fn fact(&mut self, key: &str, value: impl Display) {
        self.facts.push(format!("{}: {value}", json_str(key)));
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print the facts, one line per metric with its unit and sample
    /// count, the failure share, and last the result line.
    pub fn print(&self) {
        println!("{{\"run\": {{{}}}}}", self.facts.join(", "));
        for m in &self.metrics {
            let base = m.base.map(|b| format!("  base: {b}")).unwrap_or_default();
            println!(
                "{:<36} {:>16.4} {:<5} samples={}{base}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{:<36} {:>16.4} {:<5} samples={}",
            "failed_share",
            self.failed() as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        );
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Median (mean of the middle two for an even count); 0 with no samples,
/// which the printed sample count then shows.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        k if k % 2 == 1 => v[k / 2],
        k => (v[k / 2 - 1] + v[k / 2]) / 2.0,
    }
}

/// Nearest-rank `q` quantile; 0 with no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The per-layer phase metrics. `runs[k]` holds, for each traced run of
/// `Algorithm::ALL[k]`, the nanoseconds per node charged to each phase;
/// each metric is the median over runs of the sum of its phases.
pub fn emit_phases(report: &mut Report, runs: &[Vec<[f64; NPHASES]>; 4]) {
    let mut emit = |name: String, k: usize, parts: &[&str]| {
        let per_run: Vec<f64> = runs[k]
            .iter()
            .map(|r| parts.iter().map(|p| r[phase(p)]).sum())
            .collect();
        report.metric(name, median(&per_run), "ns", per_run.len());
    };
    for (k, algo) in Algorithm::ALL.into_iter().enumerate() {
        emit(
            format!("runner.prepare_ns_per_node.{algo}"),
            k,
            &["prepare"],
        );
        emit(format!("runner.output_ns_per_node.{algo}"), k, &["output"]);
        emit(
            format!("labels.relabel_ns_per_node.{algo}"),
            k,
            &["relabel"],
        );
    }
    emit("finish.ns_per_node.match1".into(), 0, &["finish"]);
    emit("finish.sweep_ns_per_node.match2".into(), 1, &["sweep"]);
    emit("finish.ns_per_node.match3".into(), 2, &["finish"]);
    emit("finish.sweep_ns_per_node.match4".into(), 3, &["sweep"]);
    emit("table.ns_per_node".into(), 2, &["jump", "probe"]);
    emit("match4.partition_ns_per_node".into(), 3, &["partition"]);
    emit("walkdown.grid_ns_per_node".into(), 3, &["grid"]);
    emit(
        "walkdown.ns_per_node".into(),
        3,
        &["walkdown1", "walkdown2"],
    );
}
