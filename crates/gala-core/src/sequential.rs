//! The classic *sequential* Louvain algorithm (Blondel et al. 2008).
//!
//! Unlike the BSP variant, state updates are applied immediately as each
//! vertex is processed, so a vertex always sees the freshest community
//! assignment. This is the quality gold standard the parallel versions are
//! compared against, and the slowest baseline of Figure 5.

use crate::leiden::{local_move, LeidenConfig, SweepScratch};
use crate::observe::Observer;
use crate::rounds::{self, Driver, Phase1};
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, Partition};
use gala_telemetry::SpanBackend;

/// Configuration for the sequential baseline.
#[derive(Clone, Copy, Debug)]
pub struct SequentialConfig {
    /// Stop a phase-1 sweep loop once the modularity gain drops below θ.
    pub theta: f64,
    /// Cap on full sweeps per round.
    pub max_sweeps: usize,
    /// Cap on hierarchy rounds.
    pub max_rounds: usize,
}

impl Default for SequentialConfig {
    fn default() -> Self {
        Self {
            theta: 1e-6,
            max_sweeps: 500,
            max_rounds: 20,
        }
    }
}

/// Result of a sequential Louvain run.
#[derive(Clone, Debug)]
pub struct SequentialResult {
    /// Final communities on the original graph.
    pub partition: Partition,
    /// Final modularity.
    pub modularity: f64,
    /// Hierarchy rounds executed.
    pub rounds: usize,
}

/// Runs sequential Louvain to convergence.
pub fn sequential_louvain(graph: &Graph, config: SequentialConfig) -> SequentialResult {
    sequential_louvain_observed(graph, config, &mut Observer::off())
}

/// [`sequential_louvain`] observed by `obs`: emits the same `run_start` /
/// `span` / `round_end` / `run_end` event sequence as the BSP drivers,
/// with one wall-clock-timed `superstep` span tree per round (sequential
/// phase 1 is one indivisible host pass) plus the usual `contract` tree.
/// All spans charge host nanoseconds — this baseline has no simulated
/// device, so its `span` events name the `"host"` backend (unit `"ns"`).
pub fn sequential_louvain_observed(
    graph: &Graph,
    config: SequentialConfig,
    obs: &mut Observer,
) -> SequentialResult {
    let spec = rounds::Spec {
        algorithm: "sequential",
        devices: 1,
        max_rounds: config.max_rounds,
        theta: config.theta,
        backend: SpanBackend::Host,
    };
    // Phase 1 is Leiden's local moving from singletons at resolution 1.
    let mut driver = SequentialRounds {
        moving: LeidenConfig {
            theta: config.theta,
            max_sweeps: config.max_sweeps,
            ..LeidenConfig::default()
        },
        sweep: SweepScratch::default(),
    };
    let (partition, modularity, rounds) = rounds::run(graph, &spec, &mut driver, obs);
    SequentialResult {
        partition,
        modularity,
        rounds,
    }
}

/// Sequential Louvain's rounds on the hierarchy engine.
struct SequentialRounds {
    moving: LeidenConfig,
    sweep: SweepScratch,
}

impl Driver for SequentialRounds {
    fn phase1(&mut self, g: &Graph, round: u32, obs: &mut Observer) -> Phase1 {
        let mut comm: Vec<CommunityId> = (0..g.num_vertices() as CommunityId).collect();
        obs.host_pass(round, g.num_vertices(), || {
            local_move(g, &mut comm, &self.moving, &mut self.sweep)
        });
        Phase1 {
            communities: Partition::from_assignment(comm),
            supersteps: 1,
            q: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn recovers_two_cliques() {
        let g = fixtures::two_cliques(6);
        let r = sequential_louvain(&g, SequentialConfig::default());
        assert_eq!(r.partition.num_communities(), 2);
        assert!(r.modularity > 0.45);
    }

    #[test]
    fn recovers_ring_of_cliques() {
        let g = fixtures::ring_of_cliques(8, 5);
        let r = sequential_louvain(&g, SequentialConfig::default());
        assert_eq!(r.partition.num_communities(), 8);
    }

    #[test]
    fn karate_club_quality() {
        let g = fixtures::karate_club();
        let r = sequential_louvain(&g, SequentialConfig::default());
        // Published Louvain modularity on karate is ~0.41-0.42.
        assert!(r.modularity > 0.38, "q = {}", r.modularity);
        let k = r.partition.num_communities();
        assert!((2..=6).contains(&k), "k = {k}");
    }

    #[test]
    fn quality_at_least_parallel_ballpark() {
        let g = fixtures::ring_of_cliques(6, 6);
        let seq = sequential_louvain(&g, SequentialConfig::default());
        let par = crate::louvain::Louvain::new(Default::default()).run(&g);
        assert!((seq.modularity - par.modularity).abs() < 0.05);
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = gala_graph::GraphBuilder::new(4).build();
        let r = sequential_louvain(&g, SequentialConfig::default());
        assert_eq!(r.partition.num_communities(), 4);
        assert_eq!(r.modularity, 0.0);
    }

    #[test]
    fn instrumented_run_emits_host_span_trees() {
        use gala_gpu::profile::Profiler;
        use gala_telemetry::{TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        let plain = sequential_louvain(&g, SequentialConfig::default());
        let mut sink = VecSink::default();
        let mut obs = Observer::new(Some(&mut sink), Profiler::new());
        let traced = sequential_louvain_observed(&g, SequentialConfig::default(), &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);
        let trees: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span {
                    backend,
                    phase,
                    root,
                    ..
                } => Some((backend.name(), phase.as_str(), backend.unit().rows(root))),
                _ => None,
            })
            .collect();
        assert!(trees.iter().any(|(_, p, _)| *p == "phase1"));
        assert!(trees.iter().any(|(_, p, _)| *p == "contract"));
        assert!(trees.iter().all(|(b, ..)| *b == "host"));
        let (.., spans) = trees.iter().find(|(_, p, _)| *p == "phase1").unwrap();
        let decide = spans.iter().find(|s| s.path == "superstep/decide").unwrap();
        assert!(decide.total > 0.0, "decide must carry wall time");
        assert_eq!(decide.components.compute, decide.total);
        let round = tree.child("round").expect("round span");
        assert!(round.child("superstep").is_some());
        assert!(round.child("contract").is_some());
    }
}
