//! Community-weight maintenance (paper Section 3.5, Figure 8's "P2").
//!
//! After moves are applied, `d_self[v] = d_{C[v]}(v)` must reflect the new
//! assignment (the MG pruning bound and the O(n) modularity check both read
//! it). Two implementations:
//!
//! * [`WeightUpdateMode::Naive`] — rescan every vertex's neighbors, `O(m)`:
//!   as expensive as DecideAndMove itself, the bottleneck the paper's
//!   Figure 8 shows appearing once DecideAndMove is pruned (stage P1).
//! * [`WeightUpdateMode::Delta`] — each *moved* vertex informs its
//!   neighbors: an unmoved neighbor `u` adjusts its `d_self[u]` by `±w(u,v)`
//!   depending on whether `v` left or joined `u`'s community; moved vertices
//!   rescan only themselves. Cost is proportional to the moved vertices'
//!   edges — the stage-P2 fix.
//!
//! ## The delta update's order
//!
//! One parallel pass over the move list (ascending vertex order, cut into
//! contiguous chunks) rescans each moved vertex into a recycled buffer and
//! pushes every neighbor adjustment `(u, ±w)` into its chunk's bucket for
//! `u`'s *owner block*, a fixed range of vertex ids. A second parallel pass
//! gives each owner block to one worker, which walks the chunks' buckets in
//! chunk order and adds them to its `d_self` range. So `u` receives its
//! adjustments in chunk order, and within a chunk in move order: in
//! ascending order of the moved vertex, whatever the chunk boundaries. A
//! moved vertex meets `u` at most once (adjacency lists are strictly
//! sorted), so that order is total, and the float sum — hence `d_self` —
//! is the same bits at every pool width. No lock or atomic guards an
//! adjustment: chunks own their buckets, blocks own their `d_self` ranges
//! (each chunk takes one lock, to fetch a recycled bucket set).

use crate::state::{BspState, MoveSummary};
use gala_gpu::memory::{MemTally, Space};
use gala_graph::{Graph, VertexId};
use rayon::prelude::*;
use std::sync::Mutex;

/// How to maintain `d_self` after each superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WeightUpdateMode {
    /// Full rescan of every vertex (`O(m)`).
    Naive,
    /// Delta propagation from moved vertices (GALA's optimisation).
    #[default]
    Delta,
}

/// One chunk's neighbor adjustments, bucketed by owner block.
type Buckets = Vec<Vec<(VertexId, f64)>>;

/// Buffers of the delta update, recycled across supersteps (see
/// [`update_into`]). Their sizes are bounded by the moved vertices' arcs.
#[derive(Debug, Default)]
pub struct WeightScratch {
    /// The moved vertices' rescanned `d_self`, parallel to the move list.
    fresh: Vec<f64>,
    /// Cleared bucket sets, handed to the chunks of the next update.
    spare: Mutex<Vec<Buckets>>,
}

/// Updates `state.d_self` for the moves of the just-applied superstep.
/// `state.comm` must already hold the *new* assignment.
///
/// Returns the simulated memory tally of the maintenance kernel — on the
/// GPU this phase is a kernel like any other, and Figure 8's breakdown is
/// about exactly this cost: the naive rescan reads 3 globals per arc (the
/// same traffic as DecideAndMove's input phase), the delta update touches
/// only the moved vertices' arcs.
pub fn update(
    mode: WeightUpdateMode,
    graph: &Graph,
    state: &mut BspState,
    summary: &MoveSummary,
) -> MemTally {
    update_into(mode, graph, state, summary, &mut WeightScratch::default())
}

/// [`update`] with its buffers recycled through `scratch`: the drivers keep
/// one alive across supersteps.
pub fn update_into(
    mode: WeightUpdateMode,
    graph: &Graph,
    state: &mut BspState,
    summary: &MoveSummary,
    scratch: &mut WeightScratch,
) -> MemTally {
    let mut tally = MemTally::new();
    match mode {
        WeightUpdateMode::Naive => {
            state.recompute_d_self(graph);
            // Per arc: neighbor id + weight + C[u]; per vertex: one store.
            tally.load(Space::Global, 3 * graph.num_arcs() as u64);
            tally.store(Space::Global, graph.num_vertices() as u64);
        }
        WeightUpdateMode::Delta => {
            // Delta traffic is proportional to the moved vertices' arcs
            // (notify + own rescan), paid partly in atomics. When most of
            // the graph moved — the first supersteps — a full rescan is
            // cheaper, so fall back to it; the delta path wins exactly in
            // the pruning-heavy late iterations Figure 8 is about.
            let moved_arcs: u64 = summary
                .moves
                .iter()
                .map(|&(v, _, _)| graph.degree(v) as u64)
                .sum();
            if 2 * moved_arcs >= graph.num_arcs() as u64 {
                state.recompute_d_self(graph);
                tally.load(Space::Global, 3 * graph.num_arcs() as u64);
                tally.store(Space::Global, graph.num_vertices() as u64);
            } else {
                let deltas = update_delta(graph, state, summary, scratch);
                // Two passes over the moved vertices' adjacency (notify +
                // own rescan), 3 loads per arc; an atomicAdd only for the
                // neighbors whose d_self actually changes.
                tally.load(Space::Global, 6 * moved_arcs);
                tally.atomic(Space::Global, deltas);
                tally.store(Space::Global, summary.num_moved() as u64);
            }
        }
    }
    tally
}

/// Applies the delta update in the order the module doc describes;
/// returns the number of neighbor `d_self` adjustments performed.
fn update_delta(
    graph: &Graph,
    state: &mut BspState,
    summary: &MoveSummary,
    scratch: &mut WeightScratch,
) -> u64 {
    let n = graph.num_vertices();
    if summary.moves.is_empty() {
        return 0;
    }
    let blocks = (rayon::current_parallelism() * 4).min(n);
    let block_len = n.div_ceil(blocks);
    let (fresh, spare) = (&mut scratch.fresh, &scratch.spare);
    let take_buckets = || {
        let mut buckets = spare
            .lock()
            .expect("bucket pool poisoned")
            .pop()
            .unwrap_or_default();
        buckets.resize_with(blocks, Vec::new);
        buckets
    };

    // Pass 1: each moved vertex rescans its own d_self and notifies its
    // *unmoved* neighbors (moved ones rescan themselves).
    let (moved, comm) = (&state.moved, &state.comm);
    let chunks = rayon::par_map_accum_into(
        &summary.moves,
        fresh,
        take_buckets,
        |&(v, old, new), buckets: &mut Buckets| {
            // The rescan adds `-0.0` for a neighbor outside `new`: an exact
            // identity, so `d` equals the filtered sum of a full rescan,
            // but the loop needs no branch on a coin-flip comparison.
            let mut d = -0.0;
            for (u, w) in graph.neighbors(v) {
                let cu = comm[u as usize];
                let other = u != v;
                d += if other & (cu == new) { w } else { -0.0 };
                // The one branch: few arcs notify.
                if other & !moved[u as usize] & ((cu == old) | (cu == new)) {
                    let delta = if cu == new { w } else { -w };
                    if delta != 0.0 {
                        buckets[u as usize / block_len].push((u, delta));
                    }
                }
            }
            d
        },
    );

    // Pass 2: each owner block applies its adjustments, chunk by chunk.
    state
        .d_self
        .par_chunks_mut(block_len)
        .enumerate()
        .for_each(|(b, d_self)| {
            let base = b * block_len;
            for buckets in &chunks {
                for &(u, delta) in &buckets[b] {
                    d_self[u as usize - base] += delta;
                }
            }
        });
    for (&(v, _, _), &d) in summary.moves.iter().zip(fresh.iter()) {
        state.d_self[v as usize] = d;
    }

    let num_deltas = chunks
        .iter()
        .flatten()
        .map(|bucket| bucket.len() as u64)
        .sum();
    let spare = scratch.spare.get_mut().expect("bucket pool poisoned");
    for mut buckets in chunks {
        buckets.iter_mut().for_each(Vec::clear);
        spare.push(buckets);
    }
    num_deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::cpu;
    use gala_graph::generators::fixtures;

    /// Delta maintenance must agree exactly with a full rescan after any
    /// sequence of real supersteps.
    #[test]
    fn delta_matches_naive_over_iterations() {
        let g = fixtures::ring_of_cliques(6, 5);
        let mut s = BspState::new(&g);
        for _ in 0..6 {
            let active = vec![true; g.num_vertices()];
            let out = cpu::decide(&g, &s, &active);
            let summary = s.apply_moves(&g, &out.next_comm);
            update(WeightUpdateMode::Delta, &g, &mut s, &summary);
            let mut reference = s.clone();
            reference.recompute_d_self(&g);
            assert_eq!(
                s.d_self, reference.d_self,
                "divergence at iter {}",
                s.iteration
            );
            if summary.num_moved() == 0 {
                break;
            }
        }
    }

    #[test]
    fn no_moves_is_a_no_op() {
        let g = fixtures::two_cliques(4);
        let mut s = BspState::new(&g);
        let next = s.comm.clone();
        let summary = s.apply_moves(&g, &next);
        let before = s.d_self.clone();
        update(WeightUpdateMode::Delta, &g, &mut s, &summary);
        assert_eq!(s.d_self, before);
    }

    #[test]
    fn join_and_leave_deltas() {
        let g = fixtures::two_cliques(3);
        let mut s = BspState::new(&g);
        // Move vertices 1 and 2 into community 0.
        let next: Vec<u32> = vec![0, 0, 0, 3, 4, 5];
        let summary = s.apply_moves(&g, &next);
        update(WeightUpdateMode::Delta, &g, &mut s, &summary);
        let mut reference = s.clone();
        reference.recompute_d_self(&g);
        assert_eq!(s.d_self, reference.d_self);
        assert_eq!(s.d_self[0], 2.0);
    }
}
