//! The metric tables: every metric the benchmark reports, with its unit and
//! direction, and for each per-layer metric the end-to-end metrics it should
//! move and the workloads where it should move them. `BENCHMARK.json`
//! mirrors these tables (a self-test keeps the two in step).

/// An end-to-end metric: what a user of the pipelines sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics this layer metric should move.
    pub moves: &'static [&'static str],
    /// Workloads on which it should move them.
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &["onion", "sftree", "planted"];
const LADDER: &[&str] = &["onion", "planted"];

/// End-to-end metrics; all lower-is-better.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "orient_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "color_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "coreness_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.2,
    },
    EndToEnd {
        name: "mpc_rounds",
        unit: "count",
        bound: 0.25,
    },
    EndToEnd {
        name: "comm_mwords",
        unit: "Mwords",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_global_mwords",
        unit: "Mwords",
        bound: 0.05,
    },
    EndToEnd {
        name: "out_degree_ratio",
        unit: "ratio",
        bound: 0.15,
    },
    EndToEnd {
        name: "color_ratio",
        unit: "ratio",
        bound: 0.05,
    },
    EndToEnd {
        name: "coreness_max_ratio",
        unit: "ratio",
        bound: 0.05,
    },
    EndToEnd {
        name: "coreness_mean_ratio",
        unit: "ratio",
        bound: 0.05,
    },
];

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, [$($moves:literal),+], $on:expr) => {
        Layer { name: $name, unit: $unit, better: $better, moves: &[$($moves),+], on: $on }
    };
}

/// Per-layer metrics, grouped by the module they measure.
pub const PER_LAYER: &[Layer] = &[
    // dgo_graph::io and the CSR builder.
    layer!("graph.io.parse_s", "s", "lower", ["setup_s"], ALL),
    layer!("graph.csr.build_s", "s", "lower", ["setup_s"], ALL),
    layer!("graph.io.input_mib", "MiB", "lower", ["setup_s"], ALL),
    // dgo_graph::degeneracy.
    layer!(
        "graph.degeneracy_s",
        "s",
        "lower",
        ["coreness_s", "orient_s"],
        ALL
    ),
    // dgo_core::orient.
    layer!(
        "core.estimate_lambda_s",
        "s",
        "lower",
        ["orient_s"],
        &["sftree"]
    ),
    layer!("core.layering.s", "s", "lower", ["orient_s"], &["sftree"]),
    layer!(
        "core.layering.stages",
        "count",
        "lower",
        ["orient_s", "mpc_rounds"],
        ALL
    ),
    layer!(
        "core.layering.fallback_rounds",
        "count",
        "lower",
        ["orient_s", "mpc_rounds"],
        ALL
    ),
    // exponentiate / prune / vtree.
    layer!("core.exponentiate.s", "s", "lower", ["coreness_s"], LADDER),
    layer!(
        "core.exponentiate.tree_nodes",
        "count",
        "lower",
        ["coreness_s"],
        LADDER
    ),
    layer!(
        "core.exponentiate.peak_tree_kib",
        "KiB",
        "lower",
        ["coreness_s"],
        LADDER
    ),
    layer!("core.prune.s", "s", "lower", ["coreness_s"], LADDER),
    layer!(
        "core.prune.kept_ratio",
        "ratio",
        "higher",
        ["coreness_s"],
        LADDER
    ),
    // assign_tree / assign.
    layer!("core.assign_tree.s", "s", "lower", ["coreness_s"], LADDER),
    layer!(
        "core.assign_tree.proposal_ratio",
        "ratio",
        "higher",
        ["coreness_s"],
        LADDER
    ),
    layer!("core.assign.s", "s", "lower", ["coreness_s"], LADDER),
    layer!(
        "core.assign.assigned_ratio",
        "ratio",
        "higher",
        ["coreness_s"],
        LADDER
    ),
    // dgo_mpc::primitives::aggregate and the backend exchange.
    layer!("mpc.aggregate.s", "s", "lower", ["coreness_s"], LADDER),
    layer!(
        "mpc.aggregate.records",
        "count",
        "lower",
        ["coreness_s", "comm_mwords"],
        LADDER
    ),
    layer!("mpc.exchange.s", "s", "lower", ["coreness_s"], LADDER),
    // dgo_core::wire.
    layer!("core.wire.encode_s", "s", "lower", ["coreness_s"], LADDER),
    layer!("core.wire.decode_s", "s", "lower", ["coreness_s"], LADDER),
    layer!("core.wire.ratio", "ratio", "lower", ["comm_mwords"], ALL),
    layer!(
        "core.wire.bundle_mwords",
        "Mwords",
        "lower",
        ["comm_mwords", "color_s"],
        &["sftree"]
    ),
    // dgo_core::coreness (the footnote-2 guess ladder).
    layer!(
        "core.ladder.guesses",
        "count",
        "lower",
        ["coreness_s", "mpc_rounds"],
        LADDER
    ),
    layer!(
        "core.ladder.first_guess_s",
        "s",
        "lower",
        ["coreness_s"],
        LADDER
    ),
    layer!("core.ladder.rest_s", "s", "lower", ["coreness_s"], LADDER),
    layer!(
        "core.ladder.productive_ratio",
        "ratio",
        "higher",
        ["coreness_s", "coreness_max_ratio", "coreness_mean_ratio"],
        LADDER
    ),
    // dgo_core::reduce (Lemmas 2.1 / 2.2).
    layer!(
        "core.reduce.partition_s",
        "s",
        "lower",
        ["orient_s", "color_s"],
        &["planted"]
    ),
    layer!(
        "core.reduce.parts",
        "count",
        "lower",
        ["orient_s", "color_s"],
        &["planted"]
    ),
    // dgo_core::color.
    layer!("core.color.self_s", "s", "lower", ["color_s"], &["sftree"]),
    layer!(
        "core.color.batches",
        "count",
        "lower",
        ["color_s", "mpc_rounds"],
        &["sftree"]
    ),
    // dgo_mpc metering.
    layer!("mpc.rounds.orient", "count", "lower", ["mpc_rounds"], ALL),
    layer!("mpc.rounds.color", "count", "lower", ["mpc_rounds"], ALL),
    layer!("mpc.rounds.coreness", "count", "lower", ["mpc_rounds"], ALL),
    layer!(
        "mpc.max_round_load_kwords",
        "kwords",
        "lower",
        ["comm_mwords"],
        ALL
    ),
    layer!(
        "mpc.peak_machine_kwords",
        "kwords",
        "lower",
        ["peak_global_mwords"],
        ALL
    ),
    layer!("mpc.violations", "count", "lower", ["mpc_rounds"], ALL),
    // The tracer itself: traced replay time over untraced call time.
    layer!(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        ["orient_s", "color_s", "coreness_s"],
        ALL
    ),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
