//! Equivalence properties for the out-of-core ingestion paths:
//!
//! * the streaming spill-and-merge builder is bit-identical to the
//!   in-memory `GraphBuilder::build()` for any edge multiset, at any
//!   chunk size and under any host-pool width;
//! * the v2 binary container round-trips bit-for-bit through both the
//!   owned and the mapped loader;
//! * `reorder::apply` with an ordering and then its inverse is the
//!   identity, on graphs and on partitions;
//! * every constructor path fills the `O(1)` self-loop cache with exactly
//!   what a binary search of the adjacency finds.

use gala_graph::coarsen::{coarsen_into, CoarsenScratch};
use gala_graph::reorder::{self, Ordering};
use gala_graph::stream::StreamingBuilder;
use gala_graph::{io, Graph, GraphBuilder, Partition};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Edge lists with duplicates, self-loops and awkward weights (multiples
/// of 0.1 are inexact in binary, so any change in summation order shows
/// up in the low mantissa bits).
fn arb_edges(n: u32, m: usize) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    proptest::collection::vec((0..n, 0..n, 1u32..100), 0..m).prop_map(|v| {
        v.into_iter()
            .map(|(a, b, w)| (a, b, w as f64 * 0.1))
            .collect()
    })
}

fn build_reference(n: u32, edges: &[(u32, u32, f64)]) -> Graph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

fn assert_bit_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.offsets(), b.offsets());
    assert_eq!(a.targets(), b.targets());
    let wa: Vec<u64> = a.weights().iter().map(|w| w.to_bits()).collect();
    let wb: Vec<u64> = b.weights().iter().map(|w| w.to_bits()).collect();
    assert_eq!(wa, wb);
}

/// `Graph::self_loop` (cached) against a binary search of `v`'s own
/// adjacency, for every vertex.
fn assert_self_loops_match_lookup(g: &Graph, path: &str) {
    for v in g.vertices() {
        let ids = g.neighbor_ids(v);
        let lookup = ids
            .binary_search(&v)
            .map_or(0.0, |i| g.neighbor_weights(v)[i]);
        assert_eq!(
            g.self_loop(v).to_bits(),
            lookup.to_bits(),
            "{path}: vertex {v}"
        );
    }
}

static FILE_SERIAL: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming build == in-memory build, bit for bit, across chunk
    /// sizes (1 arc per run up to no spill at all) and pool widths.
    #[test]
    fn streaming_build_is_bit_identical(
        edges in arb_edges(20, 60),
        chunk_arcs in 1usize..40,
        pool_idx in 0usize..3,
    ) {
        let pool = [1usize, 2, 8][pool_idx];
        rayon::with_parallelism(pool, || {
            let expect = build_reference(20, &edges);
            let mut s = StreamingBuilder::new(20).with_chunk_arcs(chunk_arcs);
            for &(u, v, w) in &edges {
                s.add_edge(u, v, w);
            }
            let got = s.finish().unwrap();
            assert_bit_identical(&got, &expect);
        });
    }

    /// v2 container: mapped load == owned load == original, including
    /// weight bit patterns.
    #[test]
    fn mapped_roundtrip_is_bitwise(edges in arb_edges(16, 40)) {
        let g = build_reference(16, &edges);
        let serial = FILE_SERIAL.fetch_add(1, AtomicOrdering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "gala-ingest-prop-{}-{serial}.bin",
            std::process::id()
        ));
        io::save_binary(&g, &path).unwrap();
        let owned = io::load_binary(&path).unwrap();
        let mapped = io::load_binary_mapped(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_bit_identical(&owned, &g);
        assert_bit_identical(mapped.graph(), &g);
    }

    /// apply(ordering) then apply(inverse) is the identity on the graph
    /// and keeps every vertex's community label through the round-trip.
    #[test]
    fn reorder_roundtrips_graphs_and_partitions(
        edges in arb_edges(18, 50),
        labels in proptest::collection::vec(0u32..5, 18),
        use_bfs in any::<bool>(),
    ) {
        let g = build_reference(18, &edges);
        let ord = if use_bfs {
            reorder::bfs_order(&g)
        } else {
            reorder::degree_order(&g)
        };
        let inverse = Ordering { new_id: ord.old_id() };
        let forward = reorder::apply(&g, &ord);
        let back = reorder::apply(&forward, &inverse);
        assert_bit_identical(&back, &g);

        let p = Partition::from_assignment(labels);
        let p2 = inverse.apply_to_partition(&ord.apply_to_partition(&p));
        for v in g.vertices() {
            prop_assert_eq!(p.community_of(v), p2.community_of(v));
        }
    }

    /// The self-loop cache agrees with the adjacency on graphs from the
    /// builder, `coarsen_into` (whose super-vertices all carry loops), the
    /// v2 container (owned and mapped loads) and `reorder::apply`, with
    /// and without self-loops in the input.
    #[test]
    fn self_loop_cache_matches_adjacency_on_every_path(
        edges in arb_edges(16, 40),
        labels in proptest::collection::vec(0u32..4, 16),
        drop_loops in any::<bool>(),
    ) {
        let edges: Vec<_> = edges
            .into_iter()
            .filter(|&(u, v, _)| !(drop_loops && u == v))
            .collect();
        let g = build_reference(16, &edges);
        assert_self_loops_match_lookup(&g, "builder");

        let coarse = coarsen_into(&g, &Partition::from_assignment(labels), &mut CoarsenScratch::default());
        assert_self_loops_match_lookup(&coarse.graph, "coarsen_into");

        assert_self_loops_match_lookup(&io::from_bytes(&io::to_bytes(&g)).unwrap(), "v2 bytes");
        let serial = FILE_SERIAL.fetch_add(1, AtomicOrdering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "gala-ingest-loops-{}-{serial}.bin",
            std::process::id()
        ));
        io::save_binary(&g, &path).unwrap();
        let mapped = io::load_binary_mapped(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_self_loops_match_lookup(mapped.graph(), "mapped");

        assert_self_loops_match_lookup(&reorder::apply(&g, &reorder::degree_order(&g)), "reordered");
    }
}
