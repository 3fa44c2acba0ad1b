//! Grappolo-style CPU parallel Louvain (Lu, Halappanavar & Kalyanaraman,
//! Parallel Computing 2015) — the "Grappolo (CPU)" baseline of Figure 5.
//!
//! This is a lean, self-contained BSP implementation on rayon with
//! per-vertex hash maps and *no* pruning, no simulated-GPU accounting, and
//! naive weight maintenance — i.e. exactly the algorithmic baseline GALA
//! improves on, timed without simulator overhead for fair wall-clock
//! comparisons.

use crate::kernels::cpu;
use crate::louvain::LouvainConfig;
use crate::observe::Observer;
use crate::rounds::{self, Driver, Phase1, Phase1Tracker};
use crate::state::{BspState, MoveSummary};
use crate::weight::{self, WeightUpdateMode};
use gala_graph::{Graph, Partition};
use gala_telemetry::SpanBackend;
use std::time::Instant;

/// Result of a Grappolo baseline run.
#[derive(Clone, Debug)]
pub struct GrappoloResult {
    /// Final communities on the original graph.
    pub partition: Partition,
    /// Final modularity.
    pub modularity: f64,
    /// Supersteps executed in the first round's phase 1 (the quantity the
    /// paper's experiments focus on).
    pub first_round_iterations: usize,
}

/// Runs one phase-1 round (the paper's measured region) and returns the
/// resulting state plus the number of supersteps.
pub fn phase1(graph: &Graph, theta: f64, max_iterations: usize) -> (BspState, usize) {
    let mut obs = Observer::off();
    obs.start("grappolo");
    phase1_observed(graph, theta, max_iterations, 0, &mut obs)
}

/// [`phase1`] with the louvain-style per-superstep span tree (decide →
/// apply → weight_update → modularity) reported to `obs`. All spans charge
/// host wall time: this baseline deliberately runs without simulated-GPU
/// accounting.
fn phase1_observed(
    graph: &Graph,
    theta: f64,
    max_iterations: usize,
    round: u32,
    obs: &mut Observer,
) -> (BspState, usize) {
    let mut state = BspState::new(graph);
    // The same dip-tolerant convergence as louvain.rs, with its default
    // patience, so the two drivers reach identical modularity.
    let patience = LouvainConfig::default().dip_patience;
    let mut tracker = Phase1Tracker::new(round, graph, &state, theta, patience);
    let mut iterations = 0;
    // No pruning: the all-active mask never changes, and the decide output,
    // the fold's aggregators and the move list are recycled across
    // supersteps like louvain.rs's Phase1Scratch.
    let active = vec![true; graph.num_vertices()];
    let mut out = crate::kernels::DecideOutput::default();
    let mut aggs = Vec::new();
    let mut summary = MoveSummary::default();
    for iteration in 0..max_iterations {
        let mut sub = obs.sub_profiler();
        rounds::host_decide(&mut sub, graph.num_vertices(), || {
            cpu::decide_into(graph, &state, &active, &mut aggs, &mut out)
        });
        sub.scope("apply", |p| {
            state.apply_moves_into(graph, &out.next_comm, &mut summary);
            p.count("moved", summary.num_moved() as u64);
        });
        sub.scope("weight_update", |p| {
            let started = Instant::now();
            weight::update(WeightUpdateMode::Naive, graph, &mut state, &summary);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
        });
        iterations += 1;
        let q = sub.scope("modularity", |p| {
            p.count("items", graph.num_vertices() as u64);
            state.modularity(graph)
        });
        obs.superstep_tree(sub, SpanBackend::Host, round, iteration as u32);
        // No pruning: every vertex is active in every superstep. Grappolo
        // traces no `superstep` events, only their span trees.
        let n = graph.num_vertices();
        if tracker.step(obs, &state, q, n, summary.num_moved(), None) {
            break;
        }
    }
    tracker.restore(&mut state, graph);
    (state, iterations)
}

/// Full multi-round Grappolo run.
pub fn grappolo(graph: &Graph, theta: f64) -> GrappoloResult {
    grappolo_observed(graph, theta, &mut Observer::off())
}

/// [`grappolo`] observed by `obs`: the same `run_start` / per-superstep
/// `span` / `round_end` / `run_end` event sequence as the BSP drivers,
/// all spans charging host wall nanoseconds (`"host"` backend).
pub fn grappolo_observed(graph: &Graph, theta: f64, obs: &mut Observer) -> GrappoloResult {
    let spec = rounds::Spec {
        algorithm: "grappolo",
        devices: 1,
        max_rounds: LouvainConfig::default().max_rounds,
        theta,
        backend: SpanBackend::Host,
    };
    let mut driver = GrappoloRounds {
        theta,
        first_round_iterations: None,
    };
    let (partition, modularity, _) = rounds::run(graph, &spec, &mut driver, obs);
    GrappoloResult {
        partition,
        modularity,
        first_round_iterations: driver.first_round_iterations.unwrap_or(0),
    }
}

/// Grappolo's rounds on the hierarchy engine.
struct GrappoloRounds {
    theta: f64,
    first_round_iterations: Option<usize>,
}

impl Driver for GrappoloRounds {
    fn phase1(&mut self, g: &Graph, round: u32, obs: &mut Observer) -> Phase1 {
        let max_iterations = LouvainConfig::default().max_iterations;
        let (state, iters) = phase1_observed(g, self.theta, max_iterations, round, obs);
        self.first_round_iterations.get_or_insert(iters);
        Phase1 {
            communities: state.partition(),
            supersteps: iters as u32,
            q: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::fixtures;

    #[test]
    fn finds_cliques() {
        let g = fixtures::ring_of_cliques(6, 5);
        let r = grappolo(&g, 1e-6);
        assert_eq!(r.partition.num_communities(), 6);
        assert!(r.first_round_iterations >= 1);
    }

    #[test]
    fn instrumented_run_matches_plain_and_emits_host_span_trees() {
        use gala_gpu::profile::Profiler;
        use gala_telemetry::{TraceEvent, VecSink};
        let g = fixtures::ring_of_cliques(6, 5);
        let plain = grappolo(&g, 1e-6);
        let mut sink = VecSink::default();
        let mut obs = Observer::new(Some(&mut sink), Profiler::new());
        let traced = grappolo_observed(&g, 1e-6, &mut obs);
        let tree = obs.finish();
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);
        let mut phase1_trees = 0;
        for event in &sink.events {
            if let TraceEvent::Span {
                backend,
                phase,
                root,
                ..
            } = event
            {
                assert_eq!(backend.name(), "host");
                if phase == "phase1" {
                    phase1_trees += 1;
                    let spans = backend.unit().rows(root);
                    let decide = spans.iter().find(|s| s.path == "decide").unwrap();
                    assert!(decide.total > 0.0);
                    assert!(spans.iter().any(|s| s.path == "decide/cpu"));
                }
            }
        }
        assert!(phase1_trees >= traced.first_round_iterations);
        let round = tree.child("round").expect("round span");
        assert!(round
            .child("superstep")
            .and_then(|s| s.child("decide"))
            .is_some());
        assert!(round.child("contract").is_some());
    }

    #[test]
    fn matches_gala_modularity_exactly() {
        // GALA with no pruning uses the same kernels/heuristics: both
        // follow Grappolo's convergence strategy, so Q is identical
        // (the paper makes the same observation in Section 5.1).
        let g = fixtures::ring_of_cliques(7, 4);
        let gala = crate::louvain::Louvain::new(crate::louvain::LouvainConfig::default()).run(&g);
        let grap = grappolo(&g, 1e-6);
        assert!(
            (gala.modularity - grap.modularity).abs() < 1e-9,
            "gala {} vs grappolo {}",
            gala.modularity,
            grap.modularity
        );
    }
}
