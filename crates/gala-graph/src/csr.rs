//! Weighted undirected graph in compressed-sparse-row (CSR) form.
//!
//! The representation is immutable after construction; mutation happens
//! through [`crate::builder::GraphBuilder`]. All Louvain layers operate on
//! `&Graph`, which is `Sync` and can be shared freely across threads and
//! simulated GPU devices.

use std::fmt;
use std::path::{Path, PathBuf};

/// Vertex identifier. `u32` keeps hot state dense and cache-friendly; the
/// paper's largest graph stand-ins are far below `u32::MAX` vertices.
pub type VertexId = u32;

/// A weighted undirected graph in CSR form.
///
/// See the crate-level docs for the self-loop convention: a self-loop is
/// stored once and its stored weight is its doubled contribution, so that
/// `2|E| == Σ_v d(v)` holds exactly.
#[derive(Clone, PartialEq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `v`'s adjacency in `targets` /
    /// `weights`. Length `n + 1`.
    offsets: Vec<usize>,
    /// Neighbor ids, sorted ascending within each adjacency list.
    targets: Vec<VertexId>,
    /// Edge weights parallel to `targets`.
    weights: Vec<f64>,
    /// Cached weighted degree `d(v)` per vertex (includes self-loop weight
    /// once at its stored, doubled value).
    degree_w: Vec<f64>,
    /// Cached `2|E| = Σ_v d(v)`.
    total_weight: f64,
    /// Cached self-loop weight per vertex; empty when the graph has no
    /// self-loop, so a loop-free graph pays no memory for it.
    self_loops: Vec<f64>,
}

impl Graph {
    /// Builds a graph from raw CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent (wrong lengths, out-of-range
    /// targets, unsorted adjacency, or asymmetric edges). Use
    /// [`crate::builder::GraphBuilder`] for forgiving construction.
    pub fn from_csr(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Vec<f64>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1");
        let n = offsets.len() - 1;
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "offsets must end at targets.len()"
        );
        assert_eq!(
            targets.len(),
            weights.len(),
            "targets/weights length mismatch"
        );
        for v in 0..n {
            assert!(
                offsets[v] <= offsets[v + 1],
                "offsets must be nondecreasing"
            );
            let adj = &targets[offsets[v]..offsets[v + 1]];
            for pair in adj.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "adjacency of {v} must be strictly sorted"
                );
            }
            for &u in adj {
                assert!((u as usize) < n, "target {u} out of range (n = {n})");
            }
        }
        let graph = Self::with_caches(offsets, targets, weights);
        graph.assert_symmetric();
        graph
    }

    /// Builds a graph from CSR arrays that are already known to be valid
    /// — i.e. produced by this crate and round-tripped through a
    /// checksummed container ([`crate::io`] v2) or an exact permutation
    /// ([`crate::reorder::apply`]). Skips the `O(m log d)` symmetry and
    /// sortedness audit of [`Self::from_csr`], which dominates load time
    /// for multi-hundred-million-arc graphs; structural invariants are
    /// still `debug_assert`ed.
    pub(crate) fn from_csr_trusted(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<f64>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        debug_assert_eq!(targets.len(), weights.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self::with_caches(offsets, targets, weights)
    }

    /// Wraps checked CSR arrays, computing the per-vertex caches in one
    /// pass over the arcs: the weighted degree (summed in adjacency order)
    /// and the self-loop weight, found on the way.
    fn with_caches(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Vec<f64>) -> Self {
        let n = offsets.len() - 1;
        let mut degree_w = vec![0.0f64; n];
        let mut self_loops = Vec::new();
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            // `-0.0` is `Sum`'s neutral element: an isolated vertex keeps
            // the degree `iter().sum()` gives it.
            let mut d = -0.0;
            let mut self_loop = None;
            for (&u, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
                d += w;
                if u as usize == v {
                    self_loop = Some(w);
                }
            }
            degree_w[v] = d;
            if let Some(w) = self_loop {
                if self_loops.is_empty() {
                    self_loops = vec![0.0; n];
                }
                self_loops[v] = w;
            }
        }
        Self {
            total_weight: degree_w.iter().sum(),
            offsets,
            targets,
            weights,
            degree_w,
            self_loops,
        }
    }

    fn assert_symmetric(&self) {
        for v in 0..self.num_vertices() as VertexId {
            for (u, w) in self.neighbors(v) {
                if u == v {
                    continue;
                }
                let back = self
                    .edge_weight(u, v)
                    .unwrap_or_else(|| panic!("edge ({v},{u}) has no reverse edge"));
                assert!(
                    (back - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "edge ({v},{u}) weight {w} != reverse weight {back}"
                );
            }
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored adjacency entries (directed arcs). Each undirected
    /// edge contributes two entries; each self-loop contributes one.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges, counting self-loops once.
    pub fn num_edges(&self) -> usize {
        let loops = (0..self.num_vertices() as VertexId)
            .filter(|&v| self.edge_weight(v, v).is_some())
            .count();
        (self.num_arcs() - loops) / 2 + loops
    }

    /// `2|E| = Σ_v d(v)`, the modularity normaliser.
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Weighted degree `d(v)` (self-loop counted once at its stored,
    /// doubled weight).
    #[inline]
    pub fn degree_w(&self, v: VertexId) -> f64 {
        self.degree_w[v as usize]
    }

    /// Unweighted degree: the number of adjacency entries of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.weights[range].iter().copied())
    }

    /// Neighbor id slice of `v` (sorted ascending).
    #[inline]
    pub fn neighbor_ids(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge weight slice of `v`, parallel to [`Self::neighbor_ids`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[f64] {
        &self.weights[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Weight of edge `{v, u}` if present. `O(log deg(v))`.
    pub fn edge_weight(&self, v: VertexId, u: VertexId) -> Option<f64> {
        let ids = self.neighbor_ids(v);
        let idx = ids.binary_search(&u).ok()?;
        Some(self.neighbor_weights(v)[idx])
    }

    /// Self-loop weight of `v` (its doubled contribution), or 0. `O(1)`:
    /// read from a cache the constructors fill.
    #[inline]
    pub fn self_loop(&self, v: VertexId) -> f64 {
        if self.self_loops.is_empty() {
            0.0
        } else {
            self.self_loops[v as usize]
        }
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Maximum unweighted degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Raw offsets array (length `n + 1`). Exposed for kernel code that
    /// wants direct CSR indexing.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw targets array. Exposed for kernel code.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Raw weights array. Exposed for kernel code.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Decomposes the graph back into its raw CSR arrays
    /// `(offsets, targets, weights)`. Hierarchy drivers use this to hand a
    /// coarse graph's allocations back to
    /// [`crate::coarsen::CoarsenScratch`] just before dropping it, so the
    /// next contraction round can build its (never larger) output without
    /// fresh allocations.
    pub fn into_csr(self) -> (Vec<usize>, Vec<VertexId>, Vec<f64>) {
        (self.offsets, self.targets, self.weights)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("total_weight", &self.total_weight)
            .finish()
    }
}

/// A graph loaded read-only from the aligned v2 binary container
/// ([`crate::io`]), retaining its backing-file provenance.
///
/// The workspace forbids `unsafe`, so there is no true `mmap(2)` here:
/// the sections are streamed from disk into exactly-sized buffers and the
/// container checksum replaces the `O(m log d)` structural audit that
/// the owned path pays in [`Graph::from_csr`]. The type keeps the same
/// seam a real mapping would use — drivers see `&Graph`, the store knows
/// where the bytes came from — so swapping in OS mapping later only
/// touches [`crate::io`].
#[derive(Debug)]
pub struct MappedGraph {
    graph: Graph,
    source: PathBuf,
    mapped_bytes: u64,
}

impl MappedGraph {
    /// Internal constructor used by [`crate::io::load_binary_mapped`].
    pub(crate) fn new(graph: Graph, source: PathBuf, mapped_bytes: u64) -> Self {
        Self {
            graph,
            source,
            mapped_bytes,
        }
    }

    /// The loaded graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Path of the backing container file.
    pub fn source(&self) -> &Path {
        &self.source
    }

    /// Size in bytes of the mapped (checksummed) container payload.
    pub fn mapped_bytes(&self) -> u64 {
        self.mapped_bytes
    }
}

/// How a graph is held in memory: fully owned, or backed by a v2 binary
/// container. Drivers consume either transparently via [`Deref`] /
/// [`GraphStore::graph`]; only load/report paths care which it is.
///
/// [`Deref`]: std::ops::Deref
#[derive(Debug)]
pub enum GraphStore {
    /// Built in memory (builder, generators, v1 binary, text).
    Owned(Graph),
    /// Loaded read-only from an aligned v2 container.
    Mapped(MappedGraph),
}

impl GraphStore {
    /// Borrows the graph regardless of backing.
    #[inline]
    pub fn graph(&self) -> &Graph {
        match self {
            GraphStore::Owned(g) => g,
            GraphStore::Mapped(m) => m.graph(),
        }
    }

    /// Converts into an owned [`Graph`] (free for both variants — the
    /// emulated mapping already owns its buffers).
    pub fn into_graph(self) -> Graph {
        match self {
            GraphStore::Owned(g) => g,
            GraphStore::Mapped(m) => m.graph,
        }
    }

    /// `"owned"` or `"mapped"`, for report metadata.
    pub fn kind(&self) -> &'static str {
        match self {
            GraphStore::Owned(_) => "owned",
            GraphStore::Mapped(_) => "mapped",
        }
    }
}

impl std::ops::Deref for GraphStore {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        self.graph()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 3.0);
        b.build()
    }

    #[test]
    fn triangle_basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree_w(0), 4.0);
        assert_eq!(g.degree_w(1), 3.0);
        assert_eq!(g.degree_w(2), 5.0);
        assert_eq!(g.total_weight(), 12.0);
    }

    #[test]
    fn neighbors_sorted_and_weighted() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n, vec![(1, 1.0), (2, 3.0)]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 1), Some(2.0));
        assert_eq!(g.edge_weight(0, 0), None);
        assert_eq!(g.self_loop(0), 0.0);
    }

    #[test]
    fn self_loop_counts_once_in_degree() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 0, 1.0); // builder doubles: stored weight 2.0
        let g = b.build();
        assert_eq!(g.self_loop(0), 2.0);
        assert_eq!(g.degree_w(0), 3.0);
        assert_eq!(g.total_weight(), 4.0); // 2*|E| with |E| = 1 + 1(loop)
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "reverse edge")]
    fn asymmetric_graph_rejected() {
        // Directed arc 0 -> 1 only.
        Graph::from_csr(vec![0, 1, 1], vec![1], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn unsorted_adjacency_rejected() {
        Graph::from_csr(vec![0, 2, 3, 5], vec![2, 1, 2, 0, 1], vec![1.0; 5]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_csr(vec![0], vec![], vec![]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_weight(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Graph::from_csr(vec![0, 0, 0, 0], vec![], vec![]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree_w(1), 0.0);
    }
}
