//! Backend-equivalence properties: a full Louvain run on the
//! [`NativeBackend`] must produce the same partition and bit-equal
//! modularity as the [`SimBackend`] on every kernel, every generator
//! graph, and every pool width — and a kernel fault through the shared
//! pool must not wedge the native launch path.
//!
//! Two graph families: planted partitions (unit weights, every degree
//! below the shuffle threshold on the input level) and reweighted R-MAT
//! graphs whose hubs reach the threshold on real-valued weights, so the
//! native fold's dense-scatter half meets the simulator's hash table.
//!
//! This is the library-level twin of CI's `backend-equivalence` job,
//! which checks the same invariant end to end through the CLI.

use gala_core::backend::BackendKind;
use gala_core::kernels::hashtable::HashConfig;
use gala_core::kernels::KernelKind;
use gala_core::kernels::SHUFFLE_DEGREE_THRESHOLD;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_graph::generators::rmat::{rmat, RmatParams};
use gala_graph::generators::sbm::PlantedPartition;
use gala_graph::{Graph, GraphBuilder};
use proptest::prelude::*;
use rayon::with_parallelism;

const WIDTHS: [usize; 3] = [1, 2, 8];

fn kinds() -> [KernelKind; 6] {
    [
        KernelKind::Cpu,
        KernelKind::Shuffle,
        KernelKind::Hash(HashConfig::default()),
        KernelKind::Sort,
        KernelKind::Replicated,
        KernelKind::WorkloadAware(HashConfig::default()),
    ]
}

fn run(graph: &Graph, kernel: KernelKind, backend: BackendKind) -> (Vec<u32>, u64) {
    let r = Louvain::new(LouvainConfig {
        kernel,
        backend,
        ..LouvainConfig::default()
    })
    .run(graph);
    (r.partition.assignment().to_vec(), r.modularity.to_bits())
}

/// Asserts `run` agrees with the sim reference for both backends at every
/// width in [`WIDTHS`].
fn check_all_widths(graph: &Graph, kernel: KernelKind) {
    let reference = run(graph, kernel, BackendKind::Sim);
    for width in WIDTHS {
        for backend in [BackendKind::Sim, BackendKind::Native] {
            let got = with_parallelism(width, || run(graph, kernel, backend));
            assert_eq!(
                &got.0, &reference.0,
                "{:?}/{} diverged on assignments at width {}",
                kernel, backend, width
            );
            assert_eq!(
                got.1, reference.1,
                "{:?}/{} diverged on modularity at width {}",
                kernel, backend, width
            );
        }
    }
}

/// An R-MAT graph rebuilt with non-integer weights (each merged edge's
/// multiplicity scaled by a per-edge factor in `[0.25, 2.6]`) and a
/// fractional self-loop on every fifth vertex.
fn weighted_rmat(scale: u32, edge_factor: f64, seed: u64) -> Graph {
    let skeleton = rmat(
        &RmatParams {
            scale,
            edge_factor,
            ..RmatParams::default()
        },
        seed,
    );
    let n = skeleton.num_vertices();
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for (v, w) in skeleton.neighbors(u) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sim and native backends agree on assignments and bit-equal
    /// modularity for every kernel kind, on planted-partition graphs of
    /// varying shape, at pool widths 1, 2, and 8.
    #[test]
    fn native_matches_sim_at_widths_1_2_8(
        num_communities in 2usize..6,
        community_size in 3usize..9,
        internal_degree in 3.0f64..6.0,
        mixing in 0.0f64..0.35,
        seed in any::<u64>(),
        kernel_idx in 0usize..6,
    ) {
        let graph = PlantedPartition {
            num_communities,
            community_size,
            internal_degree,
            mixing,
        }
        .generate(seed)
        .graph;
        check_all_widths(&graph, kinds()[kernel_idx]);
    }

    /// The same agreement on hub-bearing graphs with real-valued weights:
    /// every case has vertices at or above the shuffle threshold, and
    /// scales 10 and 11 cross the pool's parallel threshold (1024 items),
    /// so widths 2 and 8 split the fold into chunks.
    #[test]
    fn native_matches_sim_on_weighted_hubs(
        scale in 8u32..12,
        edge_factor in 4.0f64..10.0,
        seed in any::<u64>(),
        kernel_idx in 0usize..6,
    ) {
        let graph = weighted_rmat(scale, edge_factor, seed);
        let max_degree = (0..graph.num_vertices() as u32)
            .map(|v| graph.degree(v))
            .max()
            .unwrap_or(0);
        prop_assert!(max_degree >= SHUFFLE_DEGREE_THRESHOLD, "no hub: max degree {}", max_degree);
        check_all_widths(&graph, kinds()[kernel_idx]);
    }
}

/// A panicking kernel launched through the shared pool must propagate as
/// a panic *and* leave the pool usable for the native decide path: the
/// very next native run has to match the simulator exactly.
#[test]
fn native_path_survives_a_pool_fault() {
    let graph = PlantedPartition {
        num_communities: 4,
        community_size: 8,
        internal_degree: 5.0,
        mixing: 0.1,
    }
    .generate(7)
    .graph;
    let items: Vec<u64> = (0..5000).collect();
    let fault = std::panic::catch_unwind(|| {
        with_parallelism(8, || {
            gala_gpu::grid::launch(&items, |x: &u64, _t| {
                assert!(*x != 2525, "injected kernel fault");
                *x
            })
        })
    });
    assert!(fault.is_err(), "kernel panic was swallowed by the pool");

    for kernel in kinds() {
        let sim = with_parallelism(8, || run(&graph, kernel, BackendKind::Sim));
        let native = with_parallelism(8, || run(&graph, kernel, BackendKind::Native));
        assert_eq!(sim, native, "{kernel:?} diverged after a pool fault");
    }
}
