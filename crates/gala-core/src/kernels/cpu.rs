//! Host reference DecideAndMove: rayon over vertices, each chunk of
//! vertices folding through one reusable `Aggregator` — the CPU
//! counterpart of the paper's degree split (Section 4).
//!
//! * Below [`SHUFFLE_DEGREE_THRESHOLD`] a vertex has at most 31 foreign
//!   neighbors, so its `(community, d_vc)` candidates fit a stack buffer
//!   scanned linearly — the analogue of the warp-shuffle kernel keeping
//!   them in lane registers.
//! * At or above it the aggregator scatters into a dense
//!   `slot[community] → candidate index` array, sized to the graph the
//!   first time a hub shows up and reset through the candidate list after
//!   every vertex — the analogue of the hash kernel's per-vertex table
//!   (and of Grappolo's per-thread maps).
//!
//! This kernel also defines the *canonical accumulation order*: both paths
//! keep candidates in first-seen order and sum each community's `d_vc` in
//! neighbor-list order, which the simulated GPU kernels reproduce so that
//! all kernels agree bit-for-bit on unit-weight graphs.

use super::{choose, choose_from, DecideOutput, SHUFFLE_DEGREE_THRESHOLD};
use crate::state::BspState;
use gala_gpu::memory::MemTally;
use gala_graph::partition::CommunityId;
use gala_graph::{Graph, VertexId};
use std::sync::Mutex;

/// `slot` entry of a community with no candidate yet.
const EMPTY: u32 = u32::MAX;

/// Per-chunk community aggregator for [`decide_into`], reused across the
/// vertices of a chunk and, through the caller's pool, across passes.
#[derive(Debug, Default)]
pub(crate) struct Aggregator {
    /// Dense `community → index into cands`, [`EMPTY`] where absent. Empty
    /// until the first vertex at or above the threshold; every entry is
    /// [`EMPTY`] again once that vertex is decided.
    slot: Vec<u32>,
    /// The hub path's candidates in first-seen order. Every community with
    /// a non-[`EMPTY`] slot is listed here, so it doubles as the touched
    /// list that resets `slot`.
    cands: Vec<(CommunityId, f64)>,
    /// Vertices decided below the threshold since the last [`Self::take_split`].
    below: u64,
    /// Vertices decided at or above the threshold since then.
    above: u64,
}

/// The stack buffer of a vertex below the threshold: candidate
/// communities and their `d_vc` sums, split so the linear scan reads only
/// the ids.
type SmallBuf = (
    [CommunityId; SHUFFLE_DEGREE_THRESHOLD],
    [f64; SHUFFLE_DEGREE_THRESHOLD],
);

impl Aggregator {
    /// Decision for `v`: aggregate `(community, weight)` over the neighbor
    /// list (skipping the self-loop), then apply the shared rule.
    pub(crate) fn decide(&mut self, v: VertexId, graph: &Graph, state: &BspState) -> CommunityId {
        if graph.degree(v) < SHUFFLE_DEGREE_THRESHOLD {
            self.below += 1;
            let mut buf = SmallBuf::default();
            let len = fold_small(v, graph, state, &mut buf);
            let (comms, sums) = (&buf.0[..len], &buf.1[..len]);
            return choose_from(
                v,
                graph,
                state,
                comms.iter().copied().zip(sums.iter().copied()),
            );
        }
        self.above += 1;
        self.fold_hub(v, graph, state);
        let target = choose(v, graph, state, &self.cands);
        self.reset();
        target
    }

    /// Folds hub `v`'s candidates into `cands`, finding each community's
    /// entry through `slot`. The caller must [`Self::reset`] afterwards.
    fn fold_hub(&mut self, v: VertexId, graph: &Graph, state: &BspState) {
        if self.slot.len() < graph.num_vertices() {
            self.slot.resize(graph.num_vertices(), EMPTY);
        }
        for (&u, &w) in graph.neighbor_ids(v).iter().zip(graph.neighbor_weights(v)) {
            if u == v {
                continue;
            }
            let c = state.comm[u as usize];
            let i = &mut self.slot[c as usize];
            if *i == EMPTY {
                *i = self.cands.len() as u32;
                self.cands.push((c, w));
            } else {
                self.cands[*i as usize].1 += w;
            }
        }
    }

    /// Clears the hub path's candidates and their `slot` entries.
    fn reset(&mut self) {
        for &(c, _) in &self.cands {
            self.slot[c as usize] = EMPTY;
        }
        self.cands.clear();
    }

    /// Returns and zeroes the `(below, above)` threshold split of the
    /// vertices decided since the last call.
    fn take_split(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.below),
            std::mem::take(&mut self.above),
        )
    }
}

/// Folds the candidates of `v` (degree below the threshold, so at most 31
/// foreign neighbors) into `buf` by linear scan; returns their count.
fn fold_small(v: VertexId, graph: &Graph, state: &BspState, buf: &mut SmallBuf) -> usize {
    let (comms, sums) = buf;
    let mut len = 0;
    for (&u, &w) in graph.neighbor_ids(v).iter().zip(graph.neighbor_weights(v)) {
        if u == v {
            continue;
        }
        let c = state.comm[u as usize];
        match comms[..len].iter().position(|&x| x == c) {
            Some(i) => sums[i] += w,
            None => {
                comms[len] = c;
                sums[len] = w;
                len += 1;
            }
        }
    }
    len
}

/// Runs the reference kernel over the active vertices.
pub fn decide(graph: &Graph, state: &BspState, active: &[bool]) -> DecideOutput {
    let mut out = DecideOutput::default();
    let (below, above) = decide_into(graph, state, active, &mut Vec::new(), &mut out);
    out.routing.other_vertices = below + above;
    out
}

/// [`decide`] writing into `out`, recycling its `next_comm` allocation.
/// Each chunk of the pass draws an aggregator from `pool` (or makes one)
/// and every aggregator goes back afterwards, so once the pool holds one
/// per chunk a pass allocates no aggregator state. Returns the `(below,
/// above)` [`SHUFFLE_DEGREE_THRESHOLD`] split of the decided vertices and
/// leaves `out.routing` to the caller.
pub(crate) fn decide_into(
    graph: &Graph,
    state: &BspState,
    active: &[bool],
    pool: &mut Vec<Aggregator>,
    out: &mut DecideOutput,
) -> (u64, u64) {
    let spare = Mutex::new(std::mem::take(pool));
    let used = rayon::par_map_indexed_accum_into(
        graph.num_vertices(),
        &mut out.next_comm,
        || {
            spare
                .lock()
                .expect("aggregator pool poisoned")
                .pop()
                .unwrap_or_default()
        },
        |v, agg: &mut Aggregator| {
            if active[v] {
                agg.decide(v as VertexId, graph, state)
            } else {
                state.comm[v]
            }
        },
    );
    *pool = spare.into_inner().expect("aggregator pool poisoned");
    let mut split = (0, 0);
    for mut agg in used {
        let (below, above) = agg.take_split();
        split = (split.0 + below, split.1 + above);
        pool.push(agg);
    }
    out.tally = MemTally::new();
    out.hash_stats = Default::default();
    split
}

/// Decision for a single vertex through a throwaway `Aggregator`; loops
/// over many vertices should keep one aggregator instead.
pub fn decide_one(v: VertexId, graph: &Graph, state: &BspState) -> CommunityId {
    Aggregator::default().decide(v, graph, state)
}

#[cfg(test)]
mod tests {
    use super::super::DecideScratch;
    use super::*;
    use gala_graph::generators::fixtures;
    use gala_graph::GraphBuilder;
    use std::collections::HashMap;

    /// Reference fold: a per-vertex `HashMap` from community to candidate
    /// index, with no degree split.
    fn hashmap_fold(v: VertexId, graph: &Graph, state: &BspState) -> Vec<(CommunityId, f64)> {
        let mut index: HashMap<CommunityId, usize> = HashMap::new();
        let mut cands: Vec<(CommunityId, f64)> = Vec::new();
        for (u, w) in graph.neighbors(v) {
            if u == v {
                continue;
            }
            let c = state.comm[u as usize];
            match index.get(&c) {
                Some(&i) => cands[i].1 += w,
                None => {
                    index.insert(c, cands.len());
                    cands.push((c, w));
                }
            }
        }
        cands
    }

    /// Vertex 0 with `leaves` weighted neighbors, plus a self-loop when
    /// `self_loop`, its neighbors spread over six interleaved communities
    /// (one of them vertex 0's own) so sums mix non-integer weights.
    fn spoke(leaves: usize, self_loop: bool) -> (Graph, BspState) {
        let mut b = GraphBuilder::new(leaves + 1);
        if self_loop {
            b.add_edge(0, 0, 2.5);
        }
        for i in 1..=leaves {
            b.add_edge(0, i as VertexId, 0.1 + 1.0 / (i as f64 + 2.0));
        }
        let g = b.build();
        let mut s = BspState::new(&g);
        let next: Vec<CommunityId> = (0..=leaves as CommunityId).map(|i| i * 7 % 6).collect();
        s.apply_moves(&g, &next);
        (g, s)
    }

    /// `v`'s candidates through whichever path its degree selects.
    fn fold(agg: &mut Aggregator, v: VertexId, g: &Graph, s: &BspState) -> Vec<(CommunityId, f64)> {
        if g.degree(v) < SHUFFLE_DEGREE_THRESHOLD {
            let mut buf = SmallBuf::default();
            let len = fold_small(v, g, s, &mut buf);
            return buf.0[..len]
                .iter()
                .copied()
                .zip(buf.1[..len].iter().copied())
                .collect();
        }
        agg.fold_hub(v, g, s);
        let cands = agg.cands.clone();
        agg.reset();
        cands
    }

    fn assert_same_fold(agg: &mut Aggregator, v: VertexId, g: &Graph, s: &BspState) {
        let bits = |c: &[(CommunityId, f64)]| -> Vec<(CommunityId, u64)> {
            c.iter().map(|&(c, w)| (c, w.to_bits())).collect()
        };
        let (got, want) = (fold(agg, v, g, s), hashmap_fold(v, g, s));
        assert_eq!(bits(&got), bits(&want), "degree {}", g.degree(v));
    }

    #[test]
    fn both_paths_match_the_hashmap_fold_at_the_threshold() {
        // (leaves, self-loop, expected path): 31 and 31 + loop straddle
        // the threshold on degree, not on foreign neighbors.
        for (leaves, self_loop, hub) in [(31, false, false), (31, true, true), (32, false, true)] {
            let (g, s) = spoke(leaves, self_loop);
            assert_eq!(g.degree(0), leaves + self_loop as usize);
            let mut agg = Aggregator::default();
            assert_same_fold(&mut agg, 0, &g, &s);
            assert_eq!(
                agg.decide(0, &g, &s),
                choose(0, &g, &s, &hashmap_fold(0, &g, &s))
            );
            assert_eq!(agg.take_split(), (!hub as u64, hub as u64));
        }
    }

    #[test]
    fn consecutive_hubs_leave_no_stale_slots() {
        // Two hubs in one aggregator, the second seeing a disjoint set of
        // communities: a stale slot from the first would misfile its sums.
        let (g, s) = spoke(40, true);
        let (h, mut t) = spoke(36, false);
        let shifted: Vec<CommunityId> = (0..37)
            .map(|i| if i == 0 { 0 } else { 10 + i % 9 })
            .collect();
        t.apply_moves(&h, &shifted);
        let mut agg = Aggregator::default();
        for _ in 0..2 {
            assert_same_fold(&mut agg, 0, &g, &s);
            assert_same_fold(&mut agg, 0, &h, &t);
            agg.decide(0, &g, &s);
            assert!(agg.slot.iter().all(|&i| i == EMPTY), "stale slot entry");
            assert!(agg.cands.is_empty());
        }
        assert_eq!(agg.slot.len(), 41, "slot sized to the larger graph");
    }

    #[test]
    fn aggregator_pool_stays_flat_across_supersteps() {
        // Enough vertices to run in parallel chunks, hubs among them.
        let g = fixtures::ring_of_cliques(60, 40);
        let mut s = BspState::new(&g);
        let active = vec![true; g.num_vertices()];
        let mut scratch = DecideScratch::default();
        let mut out = DecideOutput::default();
        rayon::with_parallelism(4, || {
            let mut sizes = Vec::new();
            for _ in 0..50 {
                let split = decide_into(&g, &s, &active, &mut scratch.aggs, &mut out);
                assert_eq!(split, (0, g.num_vertices() as u64));
                s.apply_moves(&g, &out.next_comm);
                sizes.push(scratch.aggs.len());
            }
            assert!(sizes[0] > 1, "expected several chunks at width 4");
            assert!(sizes.iter().all(|&n| n == sizes[0]), "pool grew: {sizes:?}");
        });
    }

    #[test]
    fn inactive_vertices_keep_their_community() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let mut active = vec![true; 6];
        active[1] = false;
        let out = decide(&g, &s, &active);
        assert_eq!(out.next_comm[1], 1);
    }

    #[test]
    fn first_iteration_merges_toward_smaller_ids() {
        let g = fixtures::two_cliques(3);
        let s = BspState::new(&g);
        let out = decide(&g, &s, &[true; 6]);
        // All singletons: guard allows only moves to smaller singleton ids.
        assert_eq!(out.next_comm[0], 0);
        assert!(out.next_comm[1] <= 1);
        assert_eq!(out.next_comm[1], 0);
    }

    #[test]
    fn self_loop_penalises_d_tot_but_not_d_vc() {
        // Path 0 - 1 - 2, with and without a heavy self-loop at 0. The loop
        // never enters a candidate's d_vc, but it inflates community 0's
        // D_V, flipping vertex 1's preference.
        let build = |loop_w: f64| {
            let mut b = GraphBuilder::new(3);
            if loop_w > 0.0 {
                b.add_edge(0, 0, loop_w);
            }
            b.add_edge(0, 1, 1.0);
            b.add_edge(1, 2, 1.0);
            b.build()
        };
        // Without the loop: communities 0 and 2 tie on score; the smaller
        // id wins and the singleton guard allows the downhill move.
        let g = build(0.0);
        assert_eq!(decide_one(1, &g, &BspState::new(&g)), 0);
        // With a heavy loop: community 0's expected-edges penalty dominates
        // (score < 0 and < community 2's), so vertex 1 no longer joins it.
        let g = build(10.0);
        assert_ne!(decide_one(1, &g, &BspState::new(&g)), 0);
    }

    #[test]
    fn zero_degree_vertex_never_moves() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let s = BspState::new(&g);
        assert_eq!(decide_one(2, &g, &s), 2);
    }
}
