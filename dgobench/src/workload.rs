//! The three workloads and their seeded input generation.
//!
//! Inputs are generated outside every timed region and handed to the program
//! only as SNAP edge-list bytes; the generator's own graph is dropped. The
//! onion workload also keeps the generator's exact per-vertex coreness.

use dgo_graph::generators::{barabasi_albert, core_onion_with_truth, planted_dense};
use dgo_graph::io::write_edge_list;
use dgo_graph::Graph;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Nested k-core shells: the coreness guess ladder dominates.
    Onion,
    /// A scale-free tree (λ = 1, huge Δ): the ladder is bypassed, orient and
    /// color dominate.
    SfTree,
    /// A sparse background with a planted 64-clique: λ̂ = 32 splits orient and
    /// color into parts (Lemmas 2.1/2.2) and the ladder runs many guesses.
    Planted,
}

/// Input size: the benchmark's full size or a small one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// About 10⁶ edges per workload.
    Full,
    /// Small inputs (10⁴–10⁵ edges) in the same regimes, for self-tests.
    Smoke,
}

/// A generated input: the edge-list bytes plus, for the onion, the exact
/// coreness the generator built in.
#[derive(Debug, Clone)]
pub struct Input {
    /// SNAP edge list (`# Nodes: n Edges: m` header, one `u v` per line).
    pub bytes: Vec<u8>,
    /// Exact coreness per vertex, when the generator knows it.
    pub truth: Option<Vec<u32>>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Onion, Workload::SfTree, Workload::Planted];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Onion => "onion",
            Workload::SfTree => "sftree",
            Workload::Planted => "planted",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generates the workload's input from `seed`; the same seed always gives
    /// the same bytes.
    pub fn generate(self, seed: u64, scale: Scale) -> Input {
        let full = scale == Scale::Full;
        let (graph, truth): (Graph, Option<Vec<u32>>) = match self {
            Workload::Onion => {
                let n = if full { 250_000 } else { 30_000 };
                let (g, truth) = core_onion_with_truth(n, 8, seed);
                (g, Some(truth))
            }
            Workload::SfTree => {
                let n = if full { 1_000_000 } else { 10_000 };
                (barabasi_albert(n, 1, seed), None)
            }
            Workload::Planted => {
                let (n, m) = if full {
                    (500_000, 1_000_000)
                } else {
                    (5_000, 10_000)
                };
                (planted_dense(n, m, 64, seed), None)
            }
        };
        let mut bytes = Vec::new();
        write_edge_list(&graph, &mut bytes).expect("writing to a Vec cannot fail");
        Input { bytes, truth }
    }
}
