//! Properties of the superstep tail on real supersteps:
//!
//! * the delta weight update's `d_self` is the same bits at pool widths
//!   1, 2 and 8, stays within 1e-9 (relative) of a full rescan on
//!   non-integer weights with fractional self-loops, and equals the rescan
//!   exactly on integer weights;
//! * `apply_moves_into` with a recycled summary leaves exactly the state
//!   and move list that `apply_moves` does.
//!
//! Graphs are R-MAT (skewed degrees) and planted partitions, big enough
//! that the delta path's move list and `d_self` cross the pool's parallel
//! threshold (1024 items) in some supersteps.

use gala_core::kernels::{self, KernelKind};
use gala_core::pruning::{self, PruningKind};
use gala_core::state::{BspState, MoveSummary};
use gala_core::weight::{self, WeightScratch, WeightUpdateMode};
use gala_graph::generators::rmat::{rmat, RmatParams};
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::{Graph, GraphBuilder};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::with_parallelism;

const WIDTHS: [usize; 3] = [1, 2, 8];

/// An R-MAT (`family` 0) or planted-partition graph of about 2–5k
/// vertices.
fn skeleton(family: usize, seed: u64) -> Graph {
    if family == 0 {
        let params = RmatParams {
            scale: 11 + (seed % 2) as u32,
            edge_factor: 6.0,
            ..RmatParams::default()
        };
        rmat(&params, seed)
    } else {
        PlantedPartition {
            num_communities: 300 + (seed % 80) as usize,
            community_size: 14,
            internal_degree: 6.0,
            mixing: 0.3,
        }
        .generate(seed)
        .graph
    }
}

/// `g` rebuilt with every edge weight scaled by a per-edge factor in
/// `[0.25, 2.6]` and a fractional self-loop on every fifth vertex.
fn reweighted(g: &Graph, seed: u64) -> Graph {
    let n = g.num_vertices();
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for (v, w) in g.neighbors(u) {
            if u < v {
                let mix = (u64::from(u) * 31 + u64::from(v) * 17 + seed % 89) % 97;
                b.add_edge(u, v, w * (0.25 + mix as f64 / 41.0));
            }
        }
        if u % 5 == 0 {
            b.add_edge(u, u, 0.3 + f64::from(u % 7) / 9.0);
        }
    }
    b.build()
}

/// What the supersteps exercised.
#[derive(Default)]
struct Coverage {
    /// Supersteps that took the delta path (not the full-rescan fallback).
    delta_steps: usize,
    /// The largest move list a delta-path superstep handled.
    max_delta_moves: usize,
}

/// Drives MG-pruned supersteps on `g`, half the vertices active in each.
/// After each apply, runs the delta update at every width in [`WIDTHS`]
/// on copies of the state, asserts the copies agree bit for bit, and
/// checks them against a full rescan: equal when `exact`, else within
/// 1e-9 relative.
fn check_delta_update(g: &Graph, exact: bool) -> Coverage {
    let mut state = BspState::new(g);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut active = Vec::new();
    let mut coverage = Coverage::default();
    let mut scratch: Vec<WeightScratch> = WIDTHS.iter().map(|_| WeightScratch::default()).collect();
    for step in 0..12 {
        pruning::classify_into(PruningKind::Gain, g, &state, &mut rng, &mut active);
        // Every other vertex sits out, by rotating parity: all-active
        // R-MAT supersteps fall into a swap oscillation that moves over
        // half the arcs forever, so they would only take the fallback.
        for (v, a) in active.iter_mut().enumerate() {
            *a &= (v + step) % 2 == 0;
        }
        let out = kernels::decide(KernelKind::Cpu, g, &state, &active);
        let summary = state.apply_moves(g, &out.next_comm);
        let moved_arcs: usize = summary.moves.iter().map(|&(v, _, _)| g.degree(v)).sum();
        if 2 * moved_arcs < g.num_arcs() {
            coverage.delta_steps += 1;
            coverage.max_delta_moves = coverage.max_delta_moves.max(summary.num_moved());
        }
        let mut results = Vec::new();
        for (width, scratch) in WIDTHS.iter().zip(&mut scratch) {
            let mut s = state.clone();
            with_parallelism(*width, || {
                weight::update_into(WeightUpdateMode::Delta, g, &mut s, &summary, scratch)
            });
            results.push(s);
        }
        let bits = |s: &BspState| s.d_self.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for (s, width) in results.iter().zip(WIDTHS).skip(1) {
            assert_eq!(
                bits(s),
                bits(&results[0]),
                "width {} differs from width 1",
                width
            );
        }
        state = results.swap_remove(0);
        let mut reference = state.clone();
        reference.recompute_d_self(g);
        if exact {
            // Equal values; only the sign of a zero may differ (a delta
            // reaches an emptied weight as `x − x = +0`, the rescan's empty
            // sum is `−0`).
            assert_eq!(state.d_self, reference.d_self);
        } else {
            for (v, (&got, &want)) in state.d_self.iter().zip(&reference.d_self).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "vertex {}: delta {} vs rescan {}",
                    v,
                    got,
                    want
                );
            }
        }
        if summary.num_moved() == 0 {
            break;
        }
    }
    coverage
}

/// The fields `apply_moves` writes, with floats as bits.
fn applied_fields(s: &BspState) -> impl PartialEq + std::fmt::Debug {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        s.comm.clone(),
        bits(&s.d_tot),
        s.comm_size.clone(),
        s.moved.clone(),
        s.comm_changed.clone(),
        s.min_d_tot.to_bits(),
        s.iteration,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Non-integer weights and fractional self-loops: the delta update is
    /// width-independent and tracks a full rescan to 1e-9 relative.
    #[test]
    fn delta_update_is_width_independent_on_real_weights(family in 0usize..2, seed in any::<u64>()) {
        let g = reweighted(&skeleton(family, seed), seed);
        let coverage = check_delta_update(&g, false);
        prop_assert!(coverage.delta_steps > 0, "no superstep took the delta path");
    }

    /// Integer weights: every float sum is exact, so the delta update
    /// equals the full rescan at every width.
    #[test]
    fn delta_update_equals_rescan_on_integer_weights(family in 0usize..2, seed in any::<u64>()) {
        let coverage = check_delta_update(&skeleton(family, seed), true);
        prop_assert!(coverage.delta_steps > 0, "no superstep took the delta path");
    }

    /// A recycled summary (holding the previous superstep's moves) gives
    /// the same state and move list as a fresh one.
    #[test]
    fn apply_moves_into_matches_apply_moves(family in 0usize..2, seed in any::<u64>()) {
        let g = reweighted(&skeleton(family, seed), seed);
        let mut fresh = BspState::new(&g);
        let mut recycled = BspState::new(&g);
        let mut summary = MoveSummary::default();
        let all_active = vec![true; g.num_vertices()];
        for _ in 0..6 {
            let out = kernels::decide(KernelKind::Cpu, &g, &fresh, &all_active);
            let expected = fresh.apply_moves(&g, &out.next_comm);
            recycled.apply_moves_into(&g, &out.next_comm, &mut summary);
            prop_assert_eq!(&summary, &expected);
            prop_assert_eq!(applied_fields(&recycled), applied_fields(&fresh));
            weight::update(WeightUpdateMode::Delta, &g, &mut fresh, &expected);
            weight::update(WeightUpdateMode::Delta, &g, &mut recycled, &summary);
            if expected.num_moved() == 0 {
                break;
            }
        }
    }
}

/// The delta path's parallel split is exercised: some superstep hands it
/// more moves than the pool's sequential threshold.
#[test]
fn delta_path_meets_parallel_sized_move_lists() {
    let most = (0..3u64)
        .map(|seed| {
            check_delta_update(&reweighted(&skeleton(1, seed), seed), false).max_delta_moves
        })
        .max()
        .unwrap_or(0);
    assert!(most > 1024, "largest delta-path move list: {most}");
}
