//! The traced run: per-layer metrics from a replay of each pipeline through
//! the layers' public functions, every call wrapped in a benchmark-side span.
//!
//! The run first times one untraced call of each entry point (after a
//! warm-up), then replays:
//!
//! * **orient** — `estimate_lambda`, then `complete_layering_on` and
//!   `to_orientation` (or, when Lemma 2.1 splits the edges,
//!   `partition_edges` and one layering per part);
//! * **color** — `color_on`, or `partition_vertices` and `color_on` per part;
//! * **coreness** — `degeneracy`, then `partial_layering_bounded_on` per
//!   guess of the ladder, folding each guess's witness into the estimate
//!   exactly as `approximate_coreness_on` does.
//!
//! Replayed outputs must equal the untraced calls' outputs. The untraced
//! calls and the replays are the two sides of `trace.overhead_ratio`.
//!
//! A **probe** then takes the first guess's first layering stage apart:
//! the initial peeling (re-done here, it has no public entry point), then
//! `exponentiate_and_prune_staged`, `local_prune_batch` over the resulting
//! trees, `wire::encode` / `wire::decode` of every tree,
//! `partial_layer_assignment_trees`, `combine_tree_layers` and a direct
//! `aggregate_by_key` of the same proposals. Its layering must equal
//! `partial_layering_bounded_on` with one stage.

use crate::sys::{self, Snapshot};
use crate::trace::Tracer;
use crate::{median, Oracle, Report, Scale, Workload, CORENESS_EPS};
use dgo_core::{
    approximate_coreness_on, color_on, combine_tree_layers, complete_layering_on, estimate_lambda,
    exponentiate_and_prune_staged, layering_config, local_prune_batch, orient_on,
    partial_layer_assignment_trees, partial_layering_bounded_on, partition_edges,
    partition_vertices, wire, Params, StageExecutor,
};
use dgo_graph::io::parse_edge_list;
use dgo_graph::{degeneracy, Graph, LayerAssignment, UNASSIGNED};
use dgo_mpc::primitives::aggregate_by_key;
use dgo_mpc::{ClusterConfig, ExecutionBackend, Metrics, SequentialBackend, WirePayload};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Set-up repetitions in the traced run; parse and build report medians.
const SETUP_CALLS: usize = 5;

// Exchange statistics of every `TracedBackend`; the benchmark is
// single-threaded and the values publish no other data.
static EXCHANGE_NS: AtomicU64 = AtomicU64::new(0);
static EXCHANGE_RECORDS: AtomicU64 = AtomicU64::new(0);

/// `SequentialBackend` with its exchanges timed and their records counted:
/// the one place the algorithms move real messages (Algorithm 4's
/// min-combine through `aggregate_by_key`).
#[derive(Debug)]
pub struct TracedBackend(SequentialBackend);

impl TracedBackend {
    /// `(seconds in exchange, records exchanged)` over every traced backend
    /// so far.
    pub fn totals() -> (f64, u64) {
        (
            EXCHANGE_NS.load(Ordering::Relaxed) as f64 * 1e-9,
            EXCHANGE_RECORDS.load(Ordering::Relaxed),
        )
    }
}

impl ExecutionBackend for TracedBackend {
    fn from_config(config: ClusterConfig) -> Self {
        TracedBackend(SequentialBackend::from_config(config))
    }

    fn config(&self) -> &ClusterConfig {
        self.0.config()
    }

    fn metrics(&self) -> &Metrics {
        self.0.metrics()
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.0.metrics_mut()
    }

    fn into_metrics(self) -> Metrics {
        self.0.into_metrics()
    }

    fn exchange<T: WirePayload + Send + Sync>(
        &mut self,
        outbox: Vec<Vec<(usize, T)>>,
    ) -> dgo_mpc::Result<Vec<Vec<T>>> {
        let records: usize = outbox.iter().map(Vec::len).sum();
        let start = Instant::now();
        let inbox = ExecutionBackend::exchange(&mut self.0, outbox);
        EXCHANGE_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        EXCHANGE_RECORDS.fetch_add(records as u64, Ordering::Relaxed);
        inbox
    }
}

/// How many parts Lemma 2.1 / 2.2 split the graph into at arboricity
/// estimate `lambda`, computed the way `orient_on` and `color_on` do.
fn parts_needed(graph: &Graph, params: &Params, lambda: usize) -> usize {
    let k = params.k(lambda);
    let log_n = (graph.num_vertices().max(2) as f64).log2();
    ((k as f64 / log_n).ceil() as usize).max(1)
}

/// The coreness guess ladder `⌈(1+ε)^i⌉` up to the degeneracy, as
/// `approximate_coreness_on` builds it.
fn guess_ladder(max_core: usize) -> Vec<usize> {
    let mut guesses: Vec<usize> = Vec::new();
    let mut g = 1.0f64;
    loop {
        let guess = g.ceil() as usize;
        if guesses.last() != Some(&guess) {
            guesses.push(guess);
        }
        if guess >= max_core {
            return guesses;
        }
        g *= 1.0 + CORENESS_EPS;
    }
}

/// Layer counts and ratios measured by the probe of the first guess.
#[derive(Debug, Default)]
struct Probe {
    tree_nodes: f64,
    peak_tree_kib: f64,
    kept_ratio: f64,
    proposal_ratio: f64,
    assigned_ratio: f64,
    aggregate_records: f64,
}

/// Takes the first layering stage of `params`' guess apart (see the module
/// docs) and checks the result against `partial_layering_bounded_on`.
fn probe_first_stage(tracer: &mut Tracer, graph: &Graph, params: &Params) -> Result<Probe, String> {
    let n = graph.num_vertices();
    let k = params.k(estimate_lambda(graph, params));
    let s = params.local_memory(n);
    // The layering drivers cap the budget at S/4 (a tree costs 2 words per
    // node, so one tree stays within half a machine).
    let budget = params.effective_budget(n, k).min((s / 4).max(16));
    let stage = StageExecutor::new(params.jobs);
    let mut cluster = TracedBackend::from_config(layering_config(graph, params));

    // Lemma 3.15 Stage 1: O(log k) rounds of degree-≤k peeling.
    let mut layering = LayerAssignment::unassigned(n);
    let (offset, sub, mapping) = tracer.span("core.peel", |_| {
        let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
        let mut alive = vec![true; n];
        let mut offset = 0u32;
        let peel_rounds = 2 * (32 - (k.max(2) as u32 - 1).leading_zeros()).max(1);
        for _ in 0..peel_rounds {
            let peel: Vec<usize> = (0..n).filter(|&v| alive[v] && degree[v] <= k).collect();
            if peel.is_empty() {
                break;
            }
            offset += 1;
            for &v in &peel {
                layering.set_layer(v, offset);
                alive[v] = false;
            }
            for &v in &peel {
                for &w in graph.neighbors(v) {
                    if alive[w as usize] {
                        degree[w as usize] -= 1;
                    }
                }
            }
        }
        let unassigned: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
        let (sub, mapping) = graph.induced_subgraph(&unassigned);
        (offset, sub, mapping)
    });

    let layers = params.stage_layers(budget, k);
    let steps = params.effective_steps(layers);
    let expo = tracer
        .span("core.exponentiate", |_| {
            exponentiate_and_prune_staged(&sub, budget, k, steps, &mut cluster, &stage)
        })
        .map_err(|e| format!("probe: exponentiate: {e}"))?;
    let nodes: usize = expo.trees.iter().map(|t| t.len()).sum();
    let peak_tree_kib = cluster.metrics().peak_tree_bytes as f64 / 1024.0;

    let pruned = tracer.span("core.prune", |_| local_prune_batch(&expo.trees, k, &stage));
    let kept: usize = pruned
        .iter()
        .zip(&expo.trees)
        .map(|(p, t)| p.as_ref().map_or(t.len(), |p| p.len()))
        .sum();
    drop(pruned);

    let encoded: Vec<Vec<u64>> = tracer.span("core.wire.encode", |_| {
        expo.trees.iter().map(wire::encode).collect()
    });
    let decoded = tracer.span("core.wire.decode", |_| {
        encoded
            .iter()
            .map(|words| wire::decode(words))
            .collect::<Result<Vec<_>, _>>()
    });
    match decoded {
        Ok(trees) if trees == expo.trees => {}
        Ok(_) => return Err("probe: wire round trip changed a tree".into()),
        Err(e) => return Err(format!("probe: wire decode: {e}")),
    }
    drop(encoded);

    let a = (steps as usize + 1) * k;
    let per_node = tracer.span("core.assign_tree", |_| {
        partial_layer_assignment_trees(&sub, &expo.trees, a, layers, &stage)
    });
    let mut proposals: Vec<(u64, u32)> = Vec::new();
    for (tree, node_layers) in expo.trees.iter().zip(&per_node) {
        for node in tree.node_ids() {
            if node_layers[node as usize] != UNASSIGNED {
                proposals.push((tree.vertex(node) as u64, node_layers[node as usize]));
            }
        }
    }
    drop(per_node);
    let proposal_count = proposals.len();

    // The same records `combine_tree_layers` aggregates, spread the way it
    // spreads them, through the primitive directly.
    let machines = cluster.num_machines();
    let mut per_machine: Vec<Vec<(u64, u64)>> = vec![Vec::new(); machines];
    for (i, &(v, layer)) in proposals.iter().enumerate() {
        per_machine[i % machines].push((v, u64::from(layer)));
    }
    let records_before = TracedBackend::totals().1;
    tracer
        .span("mpc.aggregate", |_| {
            aggregate_by_key(&mut cluster, per_machine, u64::min)
        })
        .map_err(|e| format!("probe: aggregate: {e}"))?;
    let aggregate_records = TracedBackend::totals().1 - records_before;

    let partial = tracer
        .span("core.assign", |_| {
            combine_tree_layers(sub.num_vertices(), proposals, &mut cluster)
        })
        .map_err(|e| format!("probe: combine: {e}"))?;
    for (v_new, &v_old) in mapping.iter().enumerate() {
        if partial.is_assigned(v_new) {
            layering.set_layer(v_old, offset + partial.layer(v_new));
        }
    }
    let library = partial_layering_bounded_on::<SequentialBackend>(graph, params, 1)
        .map_err(|e| format!("probe: one-stage layering: {e}"))?;
    if library.layering != layering {
        return Err("probe: replayed first stage differs from the library's".into());
    }

    Ok(Probe {
        tree_nodes: nodes as f64,
        peak_tree_kib,
        kept_ratio: kept as f64 / nodes.max(1) as f64,
        proposal_ratio: proposal_count as f64 / nodes.max(1) as f64,
        assigned_ratio: partial.num_assigned() as f64 / sub.num_vertices().max(1) as f64,
        aggregate_records: aggregate_records as f64,
    })
}

/// Runs the traced benchmark; returns the report (every per-layer metric)
/// and the Chrome trace JSON.
pub fn run(workload: Workload, seed: u64, scale: Scale) -> (Report, String) {
    let mut report = Report::default();
    let before = Snapshot::now();
    let mut tracer = Tracer::new();
    let input = workload.generate(seed, scale);

    // Set-up, split into its two layers.
    let mut graph: Option<Graph> = None;
    for _ in 0..SETUP_CALLS {
        let parsed = tracer.span("graph.io.parse", |_| {
            parse_edge_list(black_box(input.bytes.as_slice()))
        });
        let (n, edges) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                report.record(Err(format!("parse_edge_list failed: {e}")));
                return (report, tracer.chrome_json(&[]));
            }
        };
        let built = tracer.span("graph.csr.build", |_| {
            Graph::from_normalized_unsorted(n, black_box(&edges), 1)
        });
        report.record(match &graph {
            Some(first) if *first != built => Err("CSR build is not deterministic".into()),
            _ => Ok(()),
        });
        graph.get_or_insert(built);
    }
    let graph = graph.expect("set-up ran at least once");
    let input_mib = input.bytes.len() as f64 / (1 << 20) as f64;
    let oracle = match Oracle::new(&graph, input.truth.as_deref()) {
        Ok(oracle) => oracle,
        Err(problem) => {
            report.record(Err(problem));
            return (report, tracer.chrome_json(&[]));
        }
    };
    drop(input);
    let params = Params::practical(graph.num_vertices()).with_jobs(1);

    // Untraced reference calls: a warm-up, then one timed call each.
    let mut untraced = (0.0, 0.0, 0.0);
    let mut results = None;
    for _ in 0..2 {
        let start = Instant::now();
        let orient = orient_on::<SequentialBackend>(&graph, &params);
        untraced.0 = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let color = color_on::<SequentialBackend>(&graph, &params);
        untraced.1 = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let coreness = approximate_coreness_on::<SequentialBackend>(&graph, CORENESS_EPS, &params);
        untraced.2 = start.elapsed().as_secs_f64();
        results = Some((orient, color, coreness));
    }
    let (orient, color, coreness) = match results.expect("two rounds ran") {
        (Ok(o), Ok(c), Ok(k)) => (o, c, k),
        (o, c, k) => {
            for err in [o.err(), c.err(), k.err()].into_iter().flatten() {
                report.record(Err(format!("entry point failed: {err}")));
            }
            return (report, tracer.chrome_json(&[]));
        }
    };
    report.record(oracle.check_orient(&graph, &orient));
    report.record(oracle.check_color(&graph, &color));
    report.record(oracle.check_coreness(&coreness));

    // ---- Replays. ----
    let mut parts = 1;
    let orient_replay = tracer.span("orient", |t| -> Result<(), String> {
        let lambda = t.span("core.estimate_lambda", |_| estimate_lambda(&graph, &params));
        parts = parts_needed(&graph, &params, lambda);
        if parts == 1 {
            // Like `orient_on`, hand the layering no λ hint: it estimates λ
            // again itself.
            let out = t
                .span("core.layering", |_| {
                    complete_layering_on::<TracedBackend>(&graph, &params)
                })
                .map_err(|e| format!("orient replay: {e}"))?;
            t.span("core.to_orientation", |_| {
                out.layering.to_orientation(&graph)
            })
            .map_err(|e| format!("orient replay: {e}"))?;
            if orient.layering.as_ref() != Some(&out.layering) {
                return Err("orient replay: layering differs from orient_on's".into());
            }
            return Ok(());
        }
        let edge_parts = t.span("core.reduce.partition", |_| {
            partition_edges(&graph, parts, params.seed)
        });
        for part in edge_parts.iter().filter(|p| p.num_edges() > 0) {
            let mut p = params.clone();
            p.lambda_hint = t.span("graph.degeneracy", |_| degeneracy(part).value.max(1));
            let out = t
                .span("core.layering", |_| {
                    complete_layering_on::<TracedBackend>(part, &p)
                })
                .map_err(|e| format!("orient replay: {e}"))?;
            t.span("core.to_orientation", |_| out.layering.to_orientation(part))
                .map_err(|e| format!("orient replay: {e}"))?;
        }
        Ok(())
    });
    report.record(orient_replay);

    let (color_replay, vertex_parts) = tracer.span("color", |t| {
        if parts == 1 {
            let replay = match t.span("core.color", |_| color_on::<TracedBackend>(&graph, &params))
            {
                Ok(replay) if replay.coloring == color.coloring => Ok(()),
                Ok(_) => Err("color replay: coloring differs from color_on's".to_string()),
                Err(e) => Err(format!("color replay: {e}")),
            };
            return (replay, None);
        }
        let vertex_parts = t.span("core.reduce.partition", |_| {
            partition_vertices(&graph, parts, params.seed)
        });
        let mut replay = Ok(());
        for part in vertex_parts.iter().filter(|p| p.graph.num_vertices() > 0) {
            let mut p = params.clone();
            p.lambda_hint = 0;
            if let Err(e) = t.span("core.color", |_| color_on::<TracedBackend>(&part.graph, &p)) {
                replay = Err(format!("color replay: {e}"));
            }
        }
        (replay, Some(vertex_parts))
    });
    report.record(color_replay);

    let exchange_before = TracedBackend::totals().0;
    let mut guesses = Vec::new();
    let mut productive = 0usize;
    let coreness_replay = tracer.span("coreness", |t| -> Result<(), String> {
        let max_core = t.span("graph.degeneracy", |_| degeneracy(&graph).value.max(1));
        guesses = guess_ladder(max_core);
        let mut estimate = vec![max_core as u32; graph.num_vertices()];
        for (i, &guess) in guesses.iter().enumerate() {
            let mut p = params.clone();
            p.lambda_hint = guess;
            let name = if i == 0 {
                "core.ladder.first_guess"
            } else {
                "core.ladder.guess"
            };
            let lowered = t.span(name, |_| -> Result<bool, String> {
                let out = partial_layering_bounded_on::<TracedBackend>(&graph, &p, 8)
                    .map_err(|e| format!("coreness replay: {e}"))?;
                if out.layering.num_assigned() == 0 {
                    return Ok(false);
                }
                let witness = out
                    .layering
                    .out_degree_bound(&graph)
                    .map_err(|e| format!("coreness replay: {e}"))?
                    .max(1) as u32;
                let mut lowered = false;
                for (v, e) in estimate.iter_mut().enumerate() {
                    if out.layering.is_assigned(v) && witness < *e {
                        *e = witness;
                        lowered = true;
                    }
                }
                Ok(lowered)
            })?;
            productive += usize::from(lowered);
        }
        if estimate != coreness.estimate {
            return Err("coreness replay: estimate differs from approximate_coreness_on's".into());
        }
        Ok(())
    });
    report.record(coreness_replay);
    let exchange_s = TracedBackend::totals().0 - exchange_before;

    // ---- Probes: work the replays do not mirror. ----
    let probe = tracer.span("probe", |t| -> Result<(Probe, f64), String> {
        // Color's own work is color minus its layering; on the split path
        // the layerings run per vertex part.
        let layering_s = match &vertex_parts {
            None => t.total("core.layering"),
            Some(vertex_parts) => {
                for part in vertex_parts.iter().filter(|p| p.graph.num_vertices() > 0) {
                    let mut p = params.clone();
                    p.lambda_hint = 0;
                    t.span("probe.color_layering", |_| {
                        complete_layering_on::<SequentialBackend>(&part.graph, &p)
                    })
                    .map_err(|e| format!("color layering probe: {e}"))?;
                }
                t.total("probe.color_layering")
            }
        };
        if parts == 1 {
            // Nothing is split here; time the one-part split the large-λ
            // path would start with, so the layer still has a figure.
            t.span("core.reduce.partition", |_| {
                partition_edges(&graph, 1, params.seed)
            });
        }
        let mut first = params.clone();
        first.lambda_hint = guesses.first().copied().unwrap_or(1);
        Ok((probe_first_stage(t, &graph, &first)?, layering_s))
    });
    let (probe, color_layering_s) = match probe {
        Ok(probe) => {
            report.record(Ok(()));
            probe
        }
        Err(problem) => {
            report.record(Err(problem));
            (Probe::default(), 0.0)
        }
    };

    // ---- Metrics. ----
    let all = [&orient.metrics, &color.metrics, &coreness.metrics];
    let wire: usize = all.iter().map(|m| m.bundle_wire_words).sum();
    let flat: usize = all.iter().map(|m| m.bundle_flat_words).sum();
    let replay_s = tracer.total("orient") + tracer.total("color") + tracer.total("coreness");
    let untraced_s = untraced.0 + untraced.1 + untraced.2;
    let first_guess_s = tracer.total("core.ladder.first_guess");
    let color_s = tracer.total("core.color");
    let values: Vec<(&'static str, f64)> = vec![
        (
            "graph.io.parse_s",
            median(&tracer.durations("graph.io.parse")),
        ),
        (
            "graph.csr.build_s",
            median(&tracer.durations("graph.csr.build")),
        ),
        ("graph.io.input_mib", input_mib),
        ("graph.degeneracy_s", tracer.total("graph.degeneracy")),
        (
            "core.estimate_lambda_s",
            tracer.total("core.estimate_lambda"),
        ),
        ("core.layering.s", tracer.total("core.layering")),
        (
            "core.layering.stages",
            orient.stats.iter().map(|s| s.stages as f64).sum(),
        ),
        (
            "core.layering.fallback_rounds",
            orient.stats.iter().map(|s| s.fallback_rounds as f64).sum(),
        ),
        ("core.exponentiate.s", tracer.total("core.exponentiate")),
        ("core.exponentiate.tree_nodes", probe.tree_nodes),
        ("core.exponentiate.peak_tree_kib", probe.peak_tree_kib),
        ("core.prune.s", tracer.total("core.prune")),
        ("core.prune.kept_ratio", probe.kept_ratio),
        ("core.assign_tree.s", tracer.total("core.assign_tree")),
        ("core.assign_tree.proposal_ratio", probe.proposal_ratio),
        ("core.assign.s", tracer.total("core.assign")),
        ("core.assign.assigned_ratio", probe.assigned_ratio),
        ("mpc.aggregate.s", tracer.total("mpc.aggregate")),
        ("mpc.aggregate.records", probe.aggregate_records),
        ("mpc.exchange.s", exchange_s),
        ("core.wire.encode_s", tracer.total("core.wire.encode")),
        ("core.wire.decode_s", tracer.total("core.wire.decode")),
        ("core.wire.ratio", wire as f64 / flat.max(1) as f64),
        ("core.wire.bundle_mwords", wire as f64 * 1e-6),
        ("core.ladder.guesses", guesses.len() as f64),
        ("core.ladder.first_guess_s", first_guess_s),
        (
            "core.ladder.rest_s",
            tracer.total("core.ladder.guess") + tracer.self_time("coreness"),
        ),
        (
            "core.ladder.productive_ratio",
            productive as f64 / guesses.len() as f64,
        ),
        (
            "core.reduce.partition_s",
            tracer.total("core.reduce.partition"),
        ),
        ("core.reduce.parts", parts as f64),
        ("core.color.self_s", color_s - color_layering_s),
        ("core.color.batches", color.stats.batches as f64),
        ("mpc.rounds.orient", orient.metrics.rounds as f64),
        ("mpc.rounds.color", color.metrics.rounds as f64),
        ("mpc.rounds.coreness", coreness.metrics.rounds as f64),
        (
            "mpc.max_round_load_kwords",
            all.iter().map(|m| m.max_round_load).max().unwrap_or(0) as f64 * 1e-3,
        ),
        (
            "mpc.peak_machine_kwords",
            all.iter().map(|m| m.peak_machine_memory).max().unwrap_or(0) as f64 * 1e-3,
        ),
        (
            "mpc.violations",
            all.iter().map(|m| m.violations as f64).sum(),
        ),
        ("trace.overhead_ratio", replay_s / untraced_s),
    ];
    for layer in crate::spec::PER_LAYER {
        match values.iter().find(|(name, _)| *name == layer.name) {
            Some(&(_, value)) => report.metric(layer.name, value, layer.unit),
            None => report.record(Err(format!("no value for {}", layer.name))),
        }
    }
    report.context("untraced_orient_s", format!("{:.4}", untraced.0));
    report.context("untraced_color_s", format!("{:.4}", untraced.1));
    report.context("untraced_coreness_s", format!("{:.4}", untraced.2));
    report.context("replay_s", format!("{replay_s:.4}"));
    report.context("peak_rss_mib", sys::peak_rss_bytes() >> 20);
    let (steal, wait) = before.since();
    report.context("steal_ticks", steal);
    report.context("run_queue_wait_s", format!("{wait:.4}"));
    let trace = tracer.chrome_json(&values);
    (report, trace)
}
