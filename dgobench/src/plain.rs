//! The untraced run: end-to-end metrics from a fixed number of calls.
//!
//! Set-up (`read_edge_list` of the generated bytes) runs [`SETUP_CALLS`]
//! times. Then each round calls `orient_on`, `color_on` and
//! `approximate_coreness_on` once, interleaved so a transient slowdown of
//! the host spreads over all three; round 0 is a discarded warm-up. Every
//! call is checked, and its deterministic outputs and metering must equal the
//! first call's.

use crate::sys::{self, Snapshot};
use crate::{median, Oracle, Report, Scale, Workload, CORENESS_EPS};
use dgo_core::{approximate_coreness_on, color_on, orient_on, Params};
use dgo_graph::io::read_edge_list;
use dgo_graph::Graph;
use dgo_mpc::{Metrics, SequentialBackend};
use std::hint::black_box;
use std::time::Instant;

/// Set-up calls per run; `setup_s` is their median.
pub const SETUP_CALLS: usize = 11;

/// Timed rounds (after the warm-up) for a run of `seconds` at `scale`.
/// The count depends only on the arguments, never on measured speed, so a
/// run always does the same work.
pub fn timed_rounds(workload: Workload, seconds: u64, scale: Scale) -> usize {
    if scale == Scale::Smoke {
        return 2;
    }
    // Nominal seconds of one orient + color + coreness round, single-threaded.
    let nominal = match workload {
        Workload::Onion => 2.4,
        Workload::SfTree => 2.2,
        Workload::Planted => 2.6,
    };
    ((seconds as f64 / nominal).round() as usize).max(1)
}

/// A call's deterministic outputs; every call must match the first.
#[derive(Clone)]
struct Reference {
    orient: (Vec<usize>, Metrics),
    color: (Vec<u32>, Metrics),
    coreness: (Vec<u32>, Metrics),
}

/// Runs the untraced benchmark and reports every end-to-end metric.
pub fn run(workload: Workload, seed: u64, seconds: u64, scale: Scale) -> Report {
    let mut report = Report::default();
    let before = Snapshot::now();
    let input = workload.generate(seed, scale);

    let mut setup = Vec::with_capacity(SETUP_CALLS);
    let mut graph: Option<Graph> = None;
    let setup_calls = if scale == Scale::Full { SETUP_CALLS } else { 3 };
    for _ in 0..setup_calls {
        let start = Instant::now();
        let parsed = read_edge_list(black_box(input.bytes.as_slice()));
        setup.push(start.elapsed().as_secs_f64());
        report.record(match (parsed, &graph) {
            (Err(e), _) => Err(format!("read_edge_list failed: {e}")),
            (Ok(g), None) => {
                graph = Some(g);
                Ok(())
            }
            (Ok(g), Some(first)) if g == *first => Ok(()),
            (Ok(_), Some(_)) => Err("read_edge_list is not deterministic".into()),
        });
    }
    let Some(graph) = graph else {
        return report;
    };
    let oracle = match Oracle::new(&graph, input.truth.as_deref()) {
        Ok(oracle) => oracle,
        Err(problem) => {
            report.record(Err(problem));
            return report;
        }
    };
    drop(input);

    let params = Params::practical(graph.num_vertices()).with_jobs(1);
    let rounds = timed_rounds(workload, seconds, scale);
    let (mut orient_s, mut color_s, mut coreness_s) = (vec![], vec![], vec![]);
    let mut reference: Option<Reference> = None;
    let mut quality = (0.0, 0.0, 0.0, 0.0);
    let mut mpc = (0u64, 0usize, 0usize);
    for round in 0..=rounds {
        let start = Instant::now();
        let orient = orient_on::<SequentialBackend>(black_box(&graph), &params);
        let t_orient = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let color = color_on::<SequentialBackend>(black_box(&graph), &params);
        let t_color = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let coreness =
            approximate_coreness_on::<SequentialBackend>(black_box(&graph), CORENESS_EPS, &params);
        let t_coreness = start.elapsed().as_secs_f64();
        if round > 0 {
            orient_s.push(t_orient);
            color_s.push(t_color);
            coreness_s.push(t_coreness);
        }

        let (orient, color, coreness) = match (orient, color, coreness) {
            (Ok(o), Ok(c), Ok(k)) => (o, c, k),
            (o, c, k) => {
                for err in [o.err(), c.err(), k.err()].into_iter().flatten() {
                    report.record(Err(format!("entry point failed: {err}")));
                }
                return report;
            }
        };
        let out_degrees: Vec<usize> = (0..graph.num_vertices())
            .map(|v| orient.orientation.out_degree(v))
            .collect();
        let now = Reference {
            orient: (out_degrees, orient.metrics.clone()),
            color: (color.coloring.as_slice().to_vec(), color.metrics.clone()),
            coreness: (coreness.estimate.clone(), coreness.metrics.clone()),
        };
        if round == 0 {
            let (max_ratio, mean_ratio) = oracle.coreness_ratios(&coreness.estimate);
            let degeneracy = oracle.degeneracy.max(1) as f64;
            quality = (
                orient.orientation.max_out_degree() as f64 / degeneracy,
                color.coloring.num_colors() as f64 / (degeneracy + 1.0),
                max_ratio,
                mean_ratio,
            );
            let all = [&orient.metrics, &color.metrics, &coreness.metrics];
            mpc = (
                all.iter().map(|m| m.rounds).sum(),
                all.iter().map(|m| m.total_comm_words).sum(),
                all.iter().map(|m| m.peak_global_memory).max().unwrap_or(0),
            );
        }
        let first = reference.get_or_insert_with(|| now.clone());
        let same = |what: &str, equal: bool| {
            if equal {
                Ok(())
            } else {
                Err(format!("{what}: round {round} differs from round 0"))
            }
        };
        report.record(
            oracle
                .check_orient(&graph, &orient)
                .and_then(|()| same("orient", now.orient == first.orient)),
        );
        report.record(
            oracle
                .check_color(&graph, &color)
                .and_then(|()| same("color", now.color == first.color)),
        );
        report.record(
            oracle
                .check_coreness(&coreness)
                .and_then(|()| same("coreness", now.coreness == first.coreness)),
        );
    }

    report.metric("setup_s", median(&setup), "s");
    report.metric("orient_s", median(&orient_s), "s");
    report.metric("color_s", median(&color_s), "s");
    report.metric("coreness_s", median(&coreness_s), "s");
    report.metric(
        "peak_rss_mib",
        sys::peak_rss_bytes() as f64 / (1 << 20) as f64,
        "MiB",
    );
    report.metric("mpc_rounds", mpc.0 as f64, "count");
    report.metric("comm_mwords", mpc.1 as f64 * 1e-6, "Mwords");
    report.metric("peak_global_mwords", mpc.2 as f64 * 1e-6, "Mwords");
    report.metric("out_degree_ratio", quality.0, "ratio");
    report.metric("color_ratio", quality.1, "ratio");
    report.metric("coreness_max_ratio", quality.2, "ratio");
    report.metric("coreness_mean_ratio", quality.3, "ratio");

    let (steal, wait) = before.since();
    report.context("timed_rounds", rounds);
    report.context("setup_calls", setup_calls);
    report.context("orient_s_all", format!("{orient_s:.4?}"));
    report.context("color_s_all", format!("{color_s:.4?}"));
    report.context("coreness_s_all", format!("{coreness_s:.4?}"));
    report.context("setup_s_all", format!("{setup:.4?}"));
    report.context("steal_ticks", steal);
    report.context("run_queue_wait_s", format!("{wait:.4}"));
    report
}
