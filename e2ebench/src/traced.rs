//! The traced run: `Louvain::run`'s round loop re-driven from outside the
//! library, one timed span around each call into a layer's public function.
//!
//! The loop makes exactly the calls `Louvain::run` makes (with no sink and
//! a disabled profiler), in the same order and with the same arguments, so
//! its partition and modularity are bit-identical to the library's; the
//! [`replica_mismatch`] guard checks that on every traced run.

use gala_core::backend::BackendKind;
use gala_core::kernels::{DecideOutput, DecideScratch, SHUFFLE_DEGREE_THRESHOLD};
use gala_core::louvain::{Louvain, LouvainConfig, LouvainResult};
use gala_core::modularity::modularity_with_resolution;
use gala_core::pruning;
use gala_core::state::BspState;
use gala_core::weight;
use gala_gpu::memory::{CostModel, MemTally};
use gala_gpu::profile::Profiler;
use gala_graph::builder::GraphBuilder;
use gala_graph::coarsen::CoarsenScratch;
use gala_graph::{io, Graph, Partition};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

/// Seconds spent in each layer, plus the counts its ratios are made of.
/// One value covers one traced run; [`Layers::add`] sums runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    pub parse_s: f64,
    pub build_s: f64,
    pub classify_s: f64,
    pub decide_s: f64,
    pub apply_s: f64,
    pub weight_update_s: f64,
    pub modularity_s: f64,
    pub snapshot_s: f64,
    pub contract_s: f64,
    pub flatten_s: f64,
    /// Wall time of the whole traced run, parse to final flat Q, less the
    /// benchmark's own counting (`bookkeeping_s`).
    pub wall_s: f64,
    pub bookkeeping_s: f64,
    /// Arcs of the input graph (what `parse` and `build` handle).
    pub input_arcs: u64,
    /// Σ over supersteps of the vertices classified / found active.
    pub classified: u64,
    pub active: u64,
    pub moved: u64,
    /// Σ over supersteps of the degrees of the active vertices: the arcs
    /// decide reads.
    pub arc_visits: u64,
    pub routed_hash: u64,
    pub routed_total: u64,
    pub supersteps: u64,
    pub supersteps_round0: u64,
    pub rounds: u64,
    /// Σ over rounds of the arcs of the graph each contraction reads.
    pub contract_arcs: u64,
    /// Cost-model cycles of the decide and weight-update tallies: the
    /// `total_cycles` a `detect --trace` run reports at `run_end`.
    pub cycles: f64,
}

impl Layers {
    /// Sum of the per-layer spans.
    pub fn attributed_s(&self) -> f64 {
        self.parse_s
            + self.build_s
            + self.classify_s
            + self.decide_s
            + self.apply_s
            + self.weight_update_s
            + self.modularity_s
            + self.snapshot_s
            + self.contract_s
            + self.flatten_s
    }

    /// Adds another run's times and counts to this one.
    pub fn add(&mut self, o: &Layers) {
        self.parse_s += o.parse_s;
        self.build_s += o.build_s;
        self.classify_s += o.classify_s;
        self.decide_s += o.decide_s;
        self.apply_s += o.apply_s;
        self.weight_update_s += o.weight_update_s;
        self.modularity_s += o.modularity_s;
        self.snapshot_s += o.snapshot_s;
        self.contract_s += o.contract_s;
        self.flatten_s += o.flatten_s;
        self.wall_s += o.wall_s;
        self.bookkeeping_s += o.bookkeeping_s;
        self.input_arcs += o.input_arcs;
        self.classified += o.classified;
        self.active += o.active;
        self.moved += o.moved;
        self.arc_visits += o.arc_visits;
        self.routed_hash += o.routed_hash;
        self.routed_total += o.routed_total;
        self.supersteps += o.supersteps;
        self.supersteps_round0 += o.supersteps_round0;
        self.rounds += o.rounds;
        self.contract_arcs += o.contract_arcs;
        self.cycles += o.cycles;
    }
}

/// Times `f` into `slot`.
fn span<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    *slot += t.elapsed().as_secs_f64();
    r
}

/// Shape of an input graph, recorded next to the numbers it explains.
#[derive(Clone, Debug, PartialEq)]
pub struct Shape {
    pub vertices: usize,
    pub arcs: usize,
    pub max_degree: usize,
    /// Fraction of vertices whose degree is below
    /// `SHUFFLE_DEGREE_THRESHOLD`, i.e. that decide routes to the shuffle
    /// path.
    pub small_degree_frac: f64,
}

impl Shape {
    pub fn of(g: &Graph) -> Self {
        let n = g.num_vertices();
        let small = g
            .vertices()
            .filter(|&v| g.degree(v) < SHUFFLE_DEGREE_THRESHOLD)
            .count();
        Shape {
            vertices: n,
            arcs: g.num_arcs(),
            max_degree: g.max_degree(),
            small_degree_frac: if n == 0 { 0.0 } else { small as f64 / n as f64 },
        }
    }
}

/// What one traced run produced.
pub struct Traced {
    pub graph: Graph,
    pub partition: Partition,
    pub modularity: f64,
    pub layers: Layers,
}

/// The configuration `gala detect --backend <backend>` runs GALA with.
pub fn detect_config(backend: BackendKind) -> LouvainConfig {
    LouvainConfig {
        backend,
        ..LouvainConfig::default()
    }
}

/// Parses `path` and runs the traced round loop on it.
pub fn traced_run(path: &Path, cfg: &LouvainConfig) -> std::io::Result<Traced> {
    let mut l = Layers::default();
    let start = Instant::now();
    let mut builder = GraphBuilder::new(0);
    let file = File::open(path)?;
    span(&mut l.parse_s, || {
        io::parse_edge_list_into(BufReader::new(file), &mut builder)
    })?;
    let graph = span(&mut l.build_s, || builder.build());
    l.input_arcs = graph.num_arcs() as u64;
    let (partition, modularity) = run_rounds(&graph, cfg, &mut l);
    l.wall_s = start.elapsed().as_secs_f64() - l.bookkeeping_s;
    Ok(Traced {
        graph,
        partition,
        modularity,
        layers: l,
    })
}

/// `Louvain::run_instrumented`'s round loop with no sink and a disabled
/// profiler, each layer call wrapped in a span.
fn run_rounds(graph: &Graph, cfg: &LouvainConfig, l: &mut Layers) -> (Partition, f64) {
    let backend = cfg.backend.resolve();
    let cost = CostModel::default();
    let mut current: Option<Graph> = None;
    let mut flat: Option<Partition> = None;
    let mut best: Option<(Partition, f64)> = None;
    let mut last_q = f64::NEG_INFINITY;
    let mut active: Vec<bool> = Vec::new();
    let mut dscratch = DecideScratch::default();
    let mut out = DecideOutput::default();
    let mut cscratch = CoarsenScratch::default();
    let mut off = Profiler::disabled();
    for round in 0..cfg.max_rounds {
        let g = current.as_ref().unwrap_or(graph);
        // Phase 1 (`Louvain::run_phase1_round`).
        let mut state = BspState::with_resolution(g, cfg.resolution);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ round as u64);
        let mut best_q = span(&mut l.modularity_s, || state.modularity(g));
        let mut best_state = span(&mut l.snapshot_s, || state.clone());
        let mut stagnant = 0usize;
        let mut steps = 0u64;
        let mut moved_any = false;
        for _ in 0..cfg.max_iterations {
            span(&mut l.classify_s, || {
                pruning::classify_into(cfg.pruning, g, &state, &mut rng, &mut active)
            });
            span(&mut l.decide_s, || {
                backend.decide(
                    cfg.kernel,
                    g,
                    &state,
                    &active,
                    &mut off,
                    &mut dscratch,
                    &mut out,
                )
            });
            let summary = span(&mut l.apply_s, || state.apply_moves(g, &out.next_comm));
            let wtally: MemTally = span(&mut l.weight_update_s, || {
                weight::update(cfg.weight_update, g, &mut state, &summary)
            });
            let q = span(&mut l.modularity_s, || state.modularity(g));
            let moved = summary.num_moved();
            span(&mut l.bookkeeping_s, || {
                let mut num_active = 0u64;
                let mut arcs = 0u64;
                for (v, _) in active.iter().enumerate().filter(|(_, &a)| a) {
                    num_active += 1;
                    arcs += g.degree(v as u32) as u64;
                }
                l.classified += g.num_vertices() as u64;
                l.active += num_active;
                l.arc_visits += arcs;
                l.moved += moved as u64;
                let r = out.routing;
                l.routed_hash += r.hash_vertices;
                l.routed_total += r.shuffle_vertices + r.hash_vertices + r.other_vertices;
                l.cycles += cost.cycles(&(out.tally + wtally));
            });
            steps += 1;
            moved_any |= moved > 0;
            if q > best_q {
                best_state = span(&mut l.snapshot_s, || state.clone());
                if q > best_q + cfg.theta {
                    stagnant = 0;
                } else {
                    stagnant += 1;
                }
                best_q = q;
            } else {
                stagnant += 1;
            }
            if moved == 0 || stagnant > cfg.dip_patience {
                break;
            }
        }
        if span(&mut l.modularity_s, || state.modularity(g)) < best_q {
            state = best_state;
        }
        l.supersteps += steps;
        if round == 0 {
            l.supersteps_round0 = steps;
        }
        l.rounds += 1;
        l.contract_arcs += g.num_arcs() as u64;
        // Phase 2 (no refinement: `LouvainConfig::refine` is off).
        let coarse = span(&mut l.contract_s, || {
            let partition = state.partition();
            backend.contract(g, &partition, cfg.kernel, false, &mut off, &mut cscratch)
        });
        let q = best_q;
        let composed = span(&mut l.flatten_s, || {
            let composed = match flat.take() {
                None => coarse.renumbered.clone(),
                Some(prev) => prev.compose(&coarse.renumbered),
            };
            let q_flat = modularity_with_resolution(graph, &composed, cfg.resolution);
            if best.as_ref().is_none_or(|(_, bq)| q_flat > *bq) {
                best = Some((composed.clone(), q_flat));
            }
            composed
        });
        flat = Some(composed);
        if !moved_any || coarse.num_communities == g.num_vertices() || q - last_q < cfg.theta {
            break;
        }
        last_q = q;
        if let Some(old) = current.take() {
            cscratch.reclaim_graph(old);
        }
        cscratch.reclaim_assignment(coarse.renumbered);
        current = Some(coarse.graph);
    }
    best.unwrap_or_else(|| (Partition::singletons(graph.num_vertices()), 0.0))
}

/// The untraced reference: parse and build as `gala detect` does, then
/// `Louvain::run`. Returns the result and its wall time in seconds.
pub fn untraced_run(path: &Path, cfg: &LouvainConfig) -> std::io::Result<(LouvainResult, f64)> {
    let start = Instant::now();
    let graph = io::load_edge_list(path)?;
    let result = Louvain::new(*cfg).run(&graph);
    Ok((result, start.elapsed().as_secs_f64()))
}

/// `None` when the traced run reproduced the library's partition and
/// modularity bit-for-bit, else what differs.
pub fn replica_mismatch(traced: (&Partition, f64), library: (&Partition, f64)) -> Option<String> {
    let (tp, tq) = traced;
    let (lp, lq) = library;
    if tp.assignment() != lp.assignment() {
        let first = tp
            .assignment()
            .iter()
            .zip(lp.assignment())
            .position(|(a, b)| a != b);
        return Some(match first {
            Some(v) => format!(
                "partition differs first at vertex {v}: traced {} vs Louvain::run {}",
                tp.assignment()[v],
                lp.assignment()[v]
            ),
            None => format!(
                "partition lengths differ: traced {} vs Louvain::run {}",
                tp.len(),
                lp.len()
            ),
        });
    }
    if tq.to_bits() != lq.to_bits() {
        return Some(format!(
            "modularity differs: traced {tq:?} vs Louvain::run {lq:?}"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_graph::generators::sbm::PowerLawSbm;

    fn sample_file(name: &str) -> std::path::PathBuf {
        let g = PowerLawSbm {
            num_vertices: 600,
            min_community: 15,
            max_community: 40,
            size_exponent: 2.0,
            internal_degree: 10.0,
            mixing: 0.3,
        }
        .generate(7)
        .graph;
        let path = std::env::temp_dir().join(format!("e2ebench_{name}_{}.txt", std::process::id()));
        io::save_edge_list(&g, &path).expect("write sample graph");
        path
    }

    #[test]
    fn traced_loop_reproduces_louvain_run_on_both_backends() {
        let path = sample_file("replica");
        for backend in [BackendKind::Native, BackendKind::Sim] {
            let cfg = detect_config(backend);
            let t = traced_run(&path, &cfg).expect("traced run");
            let (r, _) = untraced_run(&path, &cfg).expect("untraced run");
            assert_eq!(
                replica_mismatch((&t.partition, t.modularity), (&r.partition, r.modularity)),
                None
            );
            assert_eq!(t.layers.supersteps as usize, r.num_iterations());
            assert_eq!(t.layers.rounds as usize, r.rounds.len());
            assert!(t.layers.attributed_s() <= t.layers.wall_s);
            assert!(t.layers.active > 0 && t.layers.arc_visits > 0);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replica_guard_fails_on_a_perturbed_partition() {
        let path = sample_file("perturbed");
        let cfg = detect_config(BackendKind::Native);
        let t = traced_run(&path, &cfg).expect("traced run");
        let mut moved = t.partition.clone().into_assignment();
        moved[0] = moved[0].wrapping_add(1);
        let perturbed = Partition::from_assignment(moved);
        assert!(
            replica_mismatch((&t.partition, t.modularity), (&perturbed, t.modularity))
                .is_some_and(|m| m.contains("vertex 0"))
        );
        let nudged = f64::from_bits(t.modularity.to_bits() + 1);
        assert!(
            replica_mismatch((&t.partition, t.modularity), (&t.partition, nudged))
                .is_some_and(|m| m.contains("modularity"))
        );
        std::fs::remove_file(path).ok();
    }
}
