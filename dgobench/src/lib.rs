//! End-to-end and per-layer benchmark of the dgo pipelines.
//!
//! A run generates one workload's input from a seed, hands the program only
//! the edge-list bytes, and then either times the three public entry points
//! (`orient_on`, `color_on`, `approximate_coreness_on`) a fixed number of
//! times ([`plain::run`]) or replays them through the layers' public
//! functions under benchmark-side spans ([`traced::run`]). Every call's output
//! is checked against exact oracles. Timing is single-threaded: the wrapper
//! script starts the binary with `DGO_JOBS=1` and the runs use
//! `Params::with_jobs(1)` on `SequentialBackend`.

pub mod plain;
pub mod spec;
pub mod sys;
pub mod trace;
pub mod traced;
pub mod workload;

use dgo_core::{ColorResult, CorenessResult, OrientResult};
use dgo_graph::Graph;
use std::fmt::Write as _;

pub use workload::{Input, Scale, Workload};

/// The ε of the coreness guess ladder `(1+ε)^i`.
pub const CORENESS_EPS: f64 = 0.5;

/// Formats a finite number for JSON with every digit Rust keeps for it.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: input reads and entry-point calls, each with
    /// its checks.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Facts that explain a run without being metrics (thread counts, CPU
    /// steal, run-queue wait, call counts).
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// Counts one operation; a failed check counts it as failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Adds a context field.
    pub fn context(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }

    /// Whether every operation passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The context line, with the problems of any failed checks.
    pub fn context_json(&self) -> String {
        let mut out = String::from("{\"context\": {");
        for (i, (key, value)) in self.context.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{key}\": \"{}\"", escape(value));
        }
        out.push_str("}, \"problems\": [");
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect();
        out.push_str(&problems.join(", "));
        out.push_str("]}");
        out
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace(char::is_control, " ")
}

/// Exact references computed once per run, outside timing.
#[derive(Debug)]
pub struct Oracle {
    /// Exact per-vertex coreness.
    pub coreness: Vec<u32>,
    /// Degeneracy (the maximum coreness).
    pub degeneracy: usize,
}

impl Oracle {
    /// Computes the exact references of `graph`, and on workloads whose
    /// generator knows the coreness checks that it agrees.
    pub fn new(graph: &Graph, truth: Option<&[u32]>) -> Result<Oracle, String> {
        let coreness = dgo_graph::coreness(graph);
        let degeneracy = dgo_graph::degeneracy(graph).value;
        if let Some(truth) = truth {
            if truth != coreness.as_slice() {
                return Err("exact coreness disagrees with the generator's truth".into());
            }
        }
        Ok(Oracle {
            coreness,
            degeneracy,
        })
    }

    /// Theorem 1.1's checks: a valid orientation, and when a single layering
    /// produced it, max out-degree within that layering's measured bound
    /// (the Claim 3.12 cap).
    pub fn check_orient(&self, graph: &Graph, r: &OrientResult) -> Result<(), String> {
        r.orientation
            .validate(graph)
            .map_err(|e| format!("orient: invalid orientation: {e}"))?;
        if let Some(layering) = &r.layering {
            let cap = layering
                .out_degree_bound(graph)
                .map_err(|e| format!("orient: layering: {e}"))?;
            let max = r.orientation.max_out_degree();
            if max > cap {
                return Err(format!("orient: out-degree {max} above layering cap {cap}"));
            }
        }
        Ok(())
    }

    /// Theorem 1.2's checks: a proper coloring within the palette budget.
    pub fn check_color(&self, graph: &Graph, r: &ColorResult) -> Result<(), String> {
        r.coloring
            .validate(graph)
            .map_err(|e| format!("color: improper coloring: {e}"))?;
        let colors = r.coloring.num_colors();
        if colors > r.stats.palette {
            return Err(format!(
                "color: {colors} colors above the palette budget {}",
                r.stats.palette
            ));
        }
        Ok(())
    }

    /// Footnote 2's soundness: every estimate at least the exact coreness.
    pub fn check_coreness(&self, r: &CorenessResult) -> Result<(), String> {
        if r.estimate.len() != self.coreness.len() {
            return Err("coreness: estimate has the wrong length".into());
        }
        match (0..self.coreness.len()).find(|&v| r.estimate[v] < self.coreness[v]) {
            Some(v) => Err(format!(
                "coreness: vertex {v} estimated {} below exact {}",
                r.estimate[v], self.coreness[v]
            )),
            None => Ok(()),
        }
    }

    /// Max and mean of estimate ÷ exact coreness over vertices of coreness
    /// at least 1 (isolated vertices have no ratio).
    pub fn coreness_ratios(&self, estimate: &[u32]) -> (f64, f64) {
        let mut max = 0.0f64;
        let mut sum = 0.0;
        let mut count = 0usize;
        for (&e, &c) in estimate.iter().zip(&self.coreness) {
            if c > 0 {
                let ratio = f64::from(e) / f64::from(c);
                max = max.max(ratio);
                sum += ratio;
                count += 1;
            }
        }
        (max, sum / count.max(1) as f64)
    }
}
