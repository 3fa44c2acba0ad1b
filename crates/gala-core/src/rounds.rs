//! The hierarchy engine shared by the Louvain-family drivers.
//!
//! Louvain repeats two phases: phase 1 moves vertices between communities,
//! phase 2 contracts every community to one vertex. The drivers differ only
//! in how they run those two steps, so each supplies them through
//! [`Driver`] and [`run`] owns the rest of the round loop: the
//! `run_start`/`run_end` bracket, the per-round `round` span, the phase-2
//! span tree, composing every level into the flat partition of the
//! original graph, contraction-scratch reclaim, the `round_end` hook, and
//! the stop rule, all observed through one [`Observer`]. The helpers below
//! are the pieces the drivers' phase-1 loops share.

use crate::modularity::modularity;
use crate::observe::{Counts, Observer, StepTallies, Superstep};
use crate::state::BspState;
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::{coarsen_into, CoarsenScratch, Coarsened};
use gala_graph::{Graph, Partition};
use gala_telemetry::SpanBackend;
use std::time::Instant;

/// The run-level facts the engine reports for a driver.
pub(crate) struct Spec {
    /// Driver name of the `run_start` event and the progress reporter.
    pub algorithm: &'static str,
    /// Simulated devices, for `run_start`.
    pub devices: u32,
    /// Cap on rounds.
    pub max_rounds: usize,
    /// Minimum phase-1 gain between rounds (drivers that supply a Q).
    pub theta: f64,
    /// What the phase-2 span trees are charged to.
    pub backend: SpanBackend,
}

/// What phase 1 hands the engine.
pub(crate) struct Phase1 {
    /// The communities phase 1 found on the round's graph.
    pub communities: Partition,
    /// Supersteps phase 1 took; the round's phase-2 tree is emitted at
    /// this superstep index.
    pub supersteps: u32,
    /// Phase-1 modularity on the round's graph, from drivers that track it
    /// (and report phase 1's progress themselves): it enables the θ stop
    /// rule, and the round's progress event then describes the contraction.
    pub q: Option<f64>,
}

/// One hierarchy driver's two phases plus its view of the result.
pub(crate) trait Driver {
    /// Runs phase 1 of `round` on `g`.
    fn phase1(&mut self, g: &Graph, round: u32, obs: &mut Observer) -> Phase1;

    /// Contracts `g` by phase 1's `communities`, profiled into `sub`. The
    /// default is the host counting-sort contraction.
    fn phase2(
        &mut self,
        g: &Graph,
        communities: Partition,
        sub: &mut Profiler,
        scratch: &mut CoarsenScratch,
    ) -> Coarsened {
        contract_span(sub, g, |_| coarsen_into(g, &communities, scratch))
    }

    /// Emits events that follow the round's phase-2 tree.
    fn contracted(&mut self, _obs: &mut Observer, _superstep: u32) {}

    /// Sees each round's flat partition of the original `graph`; returns
    /// its modularity when the driver computes it.
    fn level(&mut self, _graph: &Graph, _flat: &Partition) -> Option<f64> {
        None
    }

    /// The result partition and its modularity, given the last flat level
    /// (`None` when no round ran).
    fn finish(&mut self, graph: &Graph, flat: Option<Partition>) -> (Partition, f64) {
        let partition = flat.unwrap_or_else(|| Partition::singletons(graph.num_vertices()));
        let q = modularity(graph, &partition);
        (partition, q)
    }

    /// Simulated cycles of the whole run, for `run_end`.
    fn total_cycles(&self) -> f64 {
        0.0
    }
}

/// Runs `driver`'s rounds on `graph` until the contraction stalls (no two
/// vertices merged), phase 1's Q gains less than θ over the previous round,
/// or `spec.max_rounds` is reached. Returns the result partition, its
/// modularity and the rounds run.
pub(crate) fn run(
    graph: &Graph,
    spec: &Spec,
    driver: &mut impl Driver,
    obs: &mut Observer,
) -> (Partition, f64, usize) {
    obs.run_start(spec.algorithm, graph, spec.devices);
    // Reclaiming each spent level into one scratch lets steady-state rounds
    // contract without fresh allocations.
    let mut scratch = CoarsenScratch::default();
    let mut current: Option<Graph> = None; // None = the original graph
    let mut flat: Option<Partition> = None;
    let mut last_q = f64::NEG_INFINITY;
    let mut rounds = 0;
    for round in 0..spec.max_rounds as u32 {
        rounds += 1;
        let g = current.as_ref().unwrap_or(graph);
        obs.enter("round");
        let Phase1 {
            communities,
            supersteps,
            q,
        } = driver.phase1(g, round, obs);
        let mut sub = obs.sub_profiler();
        let Coarsened {
            graph: coarse,
            renumbered,
            num_communities,
        } = driver.phase2(g, communities, &mut sub, &mut scratch);
        obs.emit_tree(sub, spec.backend, round, supersteps, "contract");
        driver.contracted(obs, supersteps);
        obs.exit();
        let composed = compose(flat.take(), renumbered, &mut scratch);
        let level = flat.insert(composed);
        let level_q = driver.level(graph, level);
        // Drivers with a phase-1 Q reported phase 1's progress themselves,
        // so the round's snapshot describes the contraction.
        let progress = match q {
            Some(_) => ("contract", coarse.num_arcs()),
            None => ("phase1", g.num_arcs()),
        };
        // Flattened modularity costs a pass over the original graph, so
        // drivers that compute neither Q pay for it only when observed.
        let flat_q = || level_q.or(q).unwrap_or_else(|| modularity(graph, level));
        obs.round_end(round, supersteps, num_communities, q, flat_q, progress);
        let stalled = num_communities == g.num_vertices();
        if stalled || q.is_some_and(|q| q - last_q < spec.theta) {
            break;
        }
        last_q = q.unwrap_or(last_q);
        if let Some(old) = current.replace(coarse) {
            scratch.reclaim_graph(old);
        }
    }
    let (partition, q) = driver.finish(graph, flat);
    obs.run_end(q, rounds as u32, driver.total_cycles());
    (partition, q, rounds)
}

/// Maps the original graph onto the next level: `flat` (the original
/// graph's communities so far, `None` before the first round) composed
/// with `level`, whose buffer goes back to `scratch`.
pub(crate) fn compose(
    flat: Option<Partition>,
    level: Partition,
    scratch: &mut CoarsenScratch,
) -> Partition {
    match flat {
        None => level,
        Some(prev) => {
            let composed = prev.compose(&level);
            scratch.reclaim_assignment(level);
            composed
        }
    }
}

/// Runs `contract` in a `contract` span that carries the phase-2 counters
/// every driver reports: the fine graph's `vertices` and `arcs`, the
/// resulting `communities`, and `elapsed_ns`.
pub(crate) fn contract_span(
    prof: &mut Profiler,
    g: &Graph,
    contract: impl FnOnce(&mut Profiler) -> Coarsened,
) -> Coarsened {
    prof.scope("contract", |p| {
        let started = Instant::now();
        let coarse = contract(p);
        p.count("vertices", g.num_vertices() as u64);
        p.count("arcs", g.num_arcs() as u64);
        p.count("communities", coarse.num_communities as u64);
        p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
        coarse
    })
}

/// Times `f` as a wall-clock `decide` span with one `cpu` kernel child over
/// `items` vertices.
pub(crate) fn host_decide<R>(p: &mut Profiler, items: usize, f: impl FnOnce() -> R) -> R {
    p.scope("decide", |p| {
        let started = Instant::now();
        let out = p.scope("cpu", |p| {
            let out = f();
            p.count("items", items as u64);
            out
        });
        p.count("elapsed_ns", started.elapsed().as_nanos() as u64);
        out
    })
}

/// BSP phase 1's per-superstep bookkeeping: dip-tolerant convergence and
/// the `superstep` hook. Simultaneous greedy moves can overshoot and
/// *lower* Q, but on weak-community graphs the optimum lies beyond several
/// such dips. Following Grappolo's heuristics, phase 1 keeps going with
/// bounded patience and ends in the best state seen, so a round never
/// finishes below its peak and Theorem 6's guarantees carry to the system
/// level.
pub(crate) struct Phase1Tracker {
    best: BspState,
    best_q: f64,
    /// Q after the latest superstep (the start state's before the first).
    prev_q: f64,
    stagnant: usize,
    theta: f64,
    patience: usize,
    round: u32,
    supersteps: u32,
    /// The round graph's vertices and arcs.
    vertices: usize,
    graph_arcs: u64,
    arcs: u64,
    /// Active and moved vertices of the latest superstep.
    last: (usize, usize),
}

impl Phase1Tracker {
    /// Starts phase 1 of `round` on `graph` from the initial `state` (a
    /// round may never end below its start).
    pub(crate) fn new(
        round: u32,
        graph: &Graph,
        state: &BspState,
        theta: f64,
        patience: usize,
    ) -> Self {
        let q = state.modularity(graph);
        Self {
            best: state.clone(),
            best_q: q,
            prev_q: q,
            stagnant: 0,
            theta,
            patience,
            round,
            supersteps: 0,
            vertices: graph.num_vertices(),
            graph_arcs: graph.num_arcs() as u64,
            arcs: 0,
            last: (0, 0),
        }
    }

    /// Records a superstep that evaluated `active` vertices, moved `moved`
    /// and left `state` at `q`, reports it to `obs` (with its `tallies`
    /// when the driver traces supersteps), and returns whether phase 1
    /// should stop. Progress is measured against the best state, never the
    /// previous superstep: a θ-sized up-tick inside an oscillation is no
    /// convergence.
    pub(crate) fn step(
        &mut self,
        obs: &mut Observer,
        state: &BspState,
        q: f64,
        active: usize,
        moved: usize,
        tallies: Option<StepTallies>,
    ) -> bool {
        // Each superstep sweeps the active vertices' arcs; the estimate
        // scales the graph's arc count by the active fraction.
        let n = self.vertices;
        if n > 0 {
            self.arcs += self.graph_arcs.saturating_mul(active as u64) / n as u64;
        }
        obs.superstep(&Superstep {
            round: self.round,
            superstep: self.supersteps,
            vertices: n,
            active,
            moved,
            modularity: q,
            delta_q: q - self.prev_q,
            arcs: self.arcs,
            tallies,
        });
        self.prev_q = q;
        self.supersteps += 1;
        self.last = (active, moved);
        if q > self.best_q {
            self.best.clone_from(state);
            if q > self.best_q + self.theta {
                self.stagnant = 0; // meaningful progress (Grappolo's θ rule)
            } else {
                self.stagnant += 1;
            }
            self.best_q = q;
        } else {
            self.stagnant += 1;
        }
        moved == 0 || self.stagnant > self.patience
    }

    /// Puts `state` back to the best state if it ended below it; returns
    /// the best modularity.
    pub(crate) fn restore(&mut self, state: &mut BspState, graph: &Graph) -> f64 {
        if state.modularity(graph) < self.best_q {
            std::mem::swap(state, &mut self.best);
        }
        self.best_q
    }

    /// [`Self::restore`], then one deterministic `progress` snapshot for
    /// the round.
    pub(crate) fn finish(mut self, obs: &mut Observer, state: &mut BspState, graph: &Graph) -> f64 {
        let best_q = self.restore(state, graph);
        let (active, moved) = self.last;
        let counts = Counts::from_counts(active, moved, self.vertices, self.arcs);
        obs.progress(self.round, "phase1", self.supersteps, best_q, counts);
        best_q
    }
}
