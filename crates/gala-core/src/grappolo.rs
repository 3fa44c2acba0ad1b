//! Grappolo-style CPU parallel Louvain (Lu, Halappanavar & Kalyanaraman,
//! Parallel Computing 2015) — the "Grappolo (CPU)" baseline of Figure 5.
//!
//! This is a lean, self-contained BSP implementation on rayon with
//! per-vertex hash maps and *no* pruning, no simulated-GPU accounting, and
//! naive weight maintenance — i.e. exactly the algorithmic baseline GALA
//! improves on, timed without simulator overhead for fair wall-clock
//! comparisons.

use crate::kernels::cpu;
use crate::progress::{Counts, ProgressReporter};
use crate::state::BspState;
use crate::weight::{self, WeightUpdateMode};
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::{coarsen_into, CoarsenScratch};
use gala_graph::{Graph, Partition};
use gala_telemetry::{NullSink, TraceEvent, TraceSink};
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
    phase1_profiled(
        graph,
        theta,
        max_iterations,
        0,
        &mut NullSink,
        &mut Profiler::disabled(),
    )
}

/// [`phase1`] with the louvain-style per-superstep span tree (decide →
/// apply → weight_update → modularity) wired through `sink`/`prof`. All
/// spans charge host wall time: this baseline deliberately runs without
/// simulated-GPU accounting.
fn phase1_profiled(
    graph: &Graph,
    theta: f64,
    max_iterations: usize,
    round: u32,
    sink: &mut dyn TraceSink,
    prof: &mut Profiler,
) -> (BspState, usize) {
    let instrumented = prof.is_enabled() || sink.enabled();
    let mut state = BspState::new(graph);
    let mut best_q = state.modularity(graph);
    let mut best_state = state.clone();
    let mut stagnant = 0usize;
    let mut iterations = 0;
    // Same dip-tolerant convergence as louvain.rs (patience 8, restore the
    // best state seen) so the two drivers reach identical modularity.
    const PATIENCE: usize = 8;
    // No pruning: the all-active mask never changes, and the decide output
    // and the fold's aggregators are recycled across supersteps like
    // louvain.rs's Phase1Scratch.
    let active = vec![true; graph.num_vertices()];
    let mut out = crate::kernels::DecideOutput::default();
    let mut aggs = Vec::new();
    // Live observation: bounded-frequency snapshots to the flight recorder
    // (this baseline has no pruning, so every vertex is always active).
    let mut progress = ProgressReporter::new("grappolo");
    let mut arcs_done = 0u64;
    for iteration in 0..max_iterations {
        let mut sub = if instrumented {
            Profiler::new()
        } else {
            Profiler::disabled()
        };
        sub.scope("decide", |p| {
            let started = Instant::now();
            p.scope("cpu", |p| {
                cpu::decide_into(graph, &state, &active, &mut aggs, &mut out);
                p.count("items", graph.num_vertices() as u64);
            });
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
        });
        let summary = sub.scope("apply", |p| {
            let summary = state.apply_moves(graph, &out.next_comm);
            p.count("moved", summary.num_moved() as u64);
            summary
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
        if instrumented {
            let tree = sub.finish();
            if sink.enabled() {
                sink.emit(TraceEvent::Span {
                    round,
                    superstep: iteration as u32,
                    phase: "phase1".to_string(),
                    root: tree.clone(),
                });
                sink.emit(crate::backend::profile_event_host(
                    round,
                    iteration as u32,
                    "phase1",
                    &tree,
                ));
            }
            prof.scope("superstep", |p| p.absorb(tree));
        }
        arcs_done += graph.num_arcs() as u64;
        progress.superstep(
            round,
            "phase1",
            iteration as u32,
            q,
            Counts::from_counts(
                graph.num_vertices(),
                summary.num_moved(),
                graph.num_vertices(),
                arcs_done,
            ),
        );
        // Progress measured against the best state (see louvain.rs).
        if q > best_q {
            best_state = state.clone();
            if q > best_q + theta {
                stagnant = 0;
            } else {
                stagnant += 1;
            }
            best_q = q;
        } else {
            stagnant += 1;
        }
        if summary.num_moved() == 0 || stagnant > PATIENCE {
            break;
        }
    }
    if state.modularity(graph) < best_q {
        state = best_state;
    }
    (state, iterations)
}

/// Full multi-round Grappolo run.
pub fn grappolo(graph: &Graph, theta: f64) -> GrappoloResult {
    grappolo_instrumented(graph, theta, &mut NullSink, &mut Profiler::disabled())
}

/// [`grappolo`] with tracing: the same `run_start` / per-superstep
/// `span` and `profile` / `round_end` / `run_end` event sequence as the
/// BSP drivers, all spans charging host wall nanoseconds (`"host"`
/// backend).
pub fn grappolo_instrumented(
    graph: &Graph,
    theta: f64,
    sink: &mut dyn TraceSink,
    prof: &mut Profiler,
) -> GrappoloResult {
    if sink.enabled() {
        sink.emit(TraceEvent::RunStart {
            algorithm: "grappolo".to_string(),
            n: graph.num_vertices() as u64,
            m: graph.num_edges() as u64,
            devices: 1,
        });
    }
    let instrumented = prof.is_enabled() || sink.enabled();
    let mut current: Option<Graph> = None;
    let mut flat: Option<Partition> = None;
    let mut first_round_iterations = 0;
    let mut rounds = 0u32;
    let mut cscratch = CoarsenScratch::default();
    let mut progress = ProgressReporter::new("grappolo");
    for round in 0..20 {
        let g = current.as_ref().unwrap_or(graph);
        prof.enter("round");
        rounds += 1;
        let (state, iters) = phase1_profiled(g, theta, 500, round as u32, sink, prof);
        if round == 0 {
            first_round_iterations = iters;
        }
        let mut sub = if instrumented {
            Profiler::new()
        } else {
            Profiler::disabled()
        };
        let coarse = sub.scope("contract", |p| {
            let started = Instant::now();
            let coarse = coarsen_into(g, &state.partition(), &mut cscratch);
            p.count("vertices", g.num_vertices() as u64);
            p.count("arcs", g.num_arcs() as u64);
            p.count("communities", coarse.num_communities as u64);
            p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
            coarse
        });
        if instrumented {
            let tree = sub.finish();
            if sink.enabled() {
                sink.emit(TraceEvent::Span {
                    round: round as u32,
                    superstep: iters as u32,
                    phase: "contract".to_string(),
                    root: tree.clone(),
                });
                sink.emit(crate::backend::profile_event_host(
                    round as u32,
                    iters as u32,
                    "contract",
                    &tree,
                ));
            }
            prof.absorb(tree);
        }
        prof.exit();
        let stalled = coarse.num_communities == g.num_vertices();
        flat = Some(match flat {
            None => coarse.renumbered.clone(),
            Some(prev) => prev.compose(&coarse.renumbered),
        });
        if sink.enabled() || progress.live() {
            let q = crate::modularity::modularity(graph, flat.as_ref().expect("just set"));
            if sink.enabled() {
                sink.emit(TraceEvent::RoundEnd {
                    round: round as u32,
                    supersteps: iters as u32,
                    modularity: q,
                    communities: coarse.num_communities as u64,
                });
            }
            progress.round(
                sink,
                round as u32,
                "phase1",
                iters as u32,
                q,
                Counts {
                    active_frac: 0.0,
                    moved_frac: 0.0,
                    arcs: g.num_arcs() as u64,
                },
            );
        }
        if stalled {
            break;
        }
        if let Some(old) = current.take() {
            cscratch.reclaim_graph(old);
        }
        cscratch.reclaim_assignment(coarse.renumbered);
        current = Some(coarse.graph);
    }
    let partition = flat.unwrap_or_else(|| Partition::singletons(graph.num_vertices()));
    let modularity = crate::modularity::modularity(graph, &partition);
    if sink.enabled() {
        sink.emit(TraceEvent::RunEnd {
            modularity,
            rounds,
            total_cycles: 0.0,
        });
    }
    GrappoloResult {
        partition,
        modularity,
        first_round_iterations,
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
    fn instrumented_run_matches_plain_and_emits_profiles() {
        use gala_telemetry::VecSink;
        let g = fixtures::ring_of_cliques(6, 5);
        let plain = grappolo(&g, 1e-6);
        let mut sink = VecSink::default();
        let mut prof = Profiler::new();
        let traced = grappolo_instrumented(&g, 1e-6, &mut sink, &mut prof);
        assert_eq!(traced.partition, plain.partition);
        assert_eq!(traced.modularity, plain.modularity);
        let mut phase1_profiles = 0;
        for event in &sink.events {
            if let TraceEvent::Profile {
                backend,
                unit,
                phase,
                spans,
                ..
            } = event
            {
                assert_eq!(backend, "host");
                assert_eq!(unit, "ns");
                if phase == "phase1" {
                    phase1_profiles += 1;
                    let decide = spans.iter().find(|s| s.path == "decide").unwrap();
                    assert!(decide.total > 0.0);
                    assert!(spans.iter().any(|s| s.path == "decide/cpu"));
                }
            }
        }
        assert!(phase1_profiles >= traced.first_round_iterations);
        let tree = prof.finish();
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
