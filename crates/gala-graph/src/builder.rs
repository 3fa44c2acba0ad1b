//! Accumulating graph builder: edge list → symmetric weighted CSR.
//!
//! The builder is forgiving where [`crate::Graph::from_csr`] is strict: it
//! accepts edges in any order and direction, merges duplicates by summing
//! their weights, symmetrises automatically, and doubles self-loop input
//! weights so that the stored graph obeys the crate's self-loop convention.

use crate::csr::{Graph, VertexId};

/// Anything that can accept a stream of undirected edges: the in-memory
/// [`GraphBuilder`], the out-of-core [`crate::stream::StreamingBuilder`],
/// and test doubles. `crate::io::parse_edge_list_into` is generic over
/// this trait so the byte-level parser feeds either path.
///
/// Implementations must apply the crate's edge conventions themselves
/// (self-loop doubling, symmetrisation, duplicate merging at build time)
/// so that every sink fed the same edge multiset produces the same graph.
pub trait EdgeSink {
    /// Adds an undirected edge `{u, v}` of weight `w`. Panics on
    /// non-finite or negative weights, like [`GraphBuilder::add_edge`].
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64);

    /// Ensures the built graph has at least `n` vertices.
    fn reserve_vertices(&mut self, n: usize);
}

/// Whether `w` is a valid edge weight: finite and `>= 0`.
#[inline]
pub(crate) fn valid_weight(w: f64) -> bool {
    w.is_finite() && w >= 0.0
}

/// Validates an edge weight (shared by every [`EdgeSink`]). The file
/// readers check [`valid_weight`] first and report a bad weight as an
/// error with its line number.
#[inline]
pub(crate) fn assert_weight(w: f64) {
    assert!(
        valid_weight(w),
        "edge weight must be finite and >= 0, got {w}"
    );
}

/// Builds a [`Graph`] from an arbitrary stream of undirected edges.
///
/// ```
/// use gala_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(1, 0, 1.0); // duplicate, merged: weight becomes 2.0
/// b.add_edge(2, 3, 0.5);
/// let g = b.build();
/// assert_eq!(g.edge_weight(0, 1), Some(2.0));
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// One entry per *directed arc*; self-loops appear once with doubled
    /// weight. Sorted and merged at `build()` time.
    arcs: Vec<(VertexId, VertexId, f64)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with at least `num_vertices` vertices.
    /// The count grows automatically if a larger endpoint id is added.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            arcs: Vec::new(),
        }
    }

    /// Creates a builder with pre-reserved space for `num_edges` edges.
    ///
    /// The arc vector is reserved exactly once (each edge contributes at
    /// most two arcs), so feeding exactly `num_edges` edges never
    /// reallocates and never over-doubles: callers that know their edge
    /// count — file ingestion, [`crate::reorder::apply`], streaming-chunk
    /// replay — get a single right-sized allocation instead of the
    /// amortised-growth worst case of ~2x the final size.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        Self {
            num_vertices,
            arcs: Vec::with_capacity(num_edges.saturating_mul(2)),
        }
    }

    /// Reserves space for `additional` more *edges* (up to two arcs each)
    /// in one exact reservation. Streaming callers that replay bounded
    /// chunks call this once per chunk instead of relying on push-time
    /// doubling, which can transiently hold ~2x the needed memory.
    pub fn reserve_edges(&mut self, additional: usize) {
        self.arcs.reserve_exact(additional.saturating_mul(2));
    }

    /// Current vertex count (grows with added endpoints).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Ensures the built graph has at least `n` vertices (for isolated
    /// trailing vertices that no edge mentions).
    pub fn reserve_vertices(&mut self, n: usize) {
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Adds an undirected edge `{u, v}` of weight `w`.
    ///
    /// A self-loop (`u == v`) is stored once with weight `2w` per the crate
    /// convention. Duplicate edges are merged by summing weights at build
    /// time, so calling this twice with weight 1 is equivalent to calling it
    /// once with weight 2.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not finite or is negative (modularity is undefined
    /// for negative weights).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert_weight(w);
        self.num_vertices = self.num_vertices.max(u.max(v) as usize + 1);
        if u == v {
            self.arcs.push((u, v, 2.0 * w));
        } else {
            self.arcs.push((u, v, w));
            self.arcs.push((v, u, w));
        }
    }

    /// Adds every edge from an iterator of `(u, v, w)` triples.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId, f64)>>(&mut self, iter: I) {
        for (u, v, w) in iter {
            self.add_edge(u, v, w);
        }
    }

    /// Adds every edge from an iterator of unweighted `(u, v)` pairs with
    /// weight 1.
    pub fn extend_unweighted<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v, 1.0);
        }
    }

    /// Number of arcs accumulated so far (before dedup).
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Finalises the builder into a CSR [`Graph`], merging duplicates.
    ///
    /// Arcs are counting-sorted by source using the offsets histogram — no
    /// global comparison sort — so only each row's targets are sorted, at
    /// `Σ d(v) log d(v)` instead of `m log m` total.
    ///
    /// Duplicate `(u, v)` arcs are summed **in insertion order** (the
    /// counting sort is stable and the per-row sort is stable), which
    /// pins the floating-point merge result: the out-of-core
    /// [`crate::stream::StreamingBuilder`] reproduces it bit-for-bit at
    /// any chunk size.
    pub fn build(self) -> Graph {
        let n = self.num_vertices;
        let mut arcs = self.arcs;
        // Unused growth slack is returned before the second arc-sized
        // buffer below is allocated, trimming the build's transient peak.
        arcs.shrink_to_fit();
        build_from_arcs(n, arcs)
    }
}

/// Directed-arc list → CSR, the shared back half of [`GraphBuilder::build`]
/// and the streaming builder's no-spill fast path: arcs must already follow
/// the crate conventions (both directions present, self-loops once at
/// doubled weight). Stable counting sort by source + stable per-row sort by
/// target — the same total order as a stable global `(u, v)` sort, so both
/// callers produce bit-identical graphs.
pub(crate) fn build_from_arcs(n: usize, arcs: Vec<(VertexId, VertexId, f64)>) -> Graph {
    // Counting sort by source: histogram, prefix sum, scatter.
    let mut offsets = vec![0usize; n + 1];
    for &(u, _, _) in &arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    let mut binned: Vec<(VertexId, f64)> = vec![(0, 0.0); arcs.len()];
    for (u, v, w) in arcs {
        let slot = &mut cursor[u as usize];
        binned[*slot] = (v, w);
        *slot += 1;
    }
    drop(cursor);
    // Sort each row by target and merge its duplicates in place,
    // recording merged row lengths for an exactly-sized output.
    let mut merged_offsets = Vec::with_capacity(n + 1);
    merged_offsets.push(0usize);
    let mut row_lens = Vec::with_capacity(n);
    let mut total = 0usize;
    for r in 0..n {
        let row = &mut binned[offsets[r]..offsets[r + 1]];
        // Stable: equal targets keep insertion order, so the merge
        // below sums duplicate weights left-to-right as inserted.
        row.sort_by_key(|&(v, _)| v);
        let mut len = 0usize;
        for i in 0..row.len() {
            if len > 0 && row[len - 1].0 == row[i].0 {
                row[len - 1].1 += row[i].1;
            } else {
                row[len] = row[i];
                len += 1;
            }
        }
        row_lens.push(len);
        total += len;
        merged_offsets.push(total);
    }
    let mut targets = Vec::with_capacity(total);
    let mut weights = Vec::with_capacity(total);
    for r in 0..n {
        for &(v, w) in &binned[offsets[r]..offsets[r] + row_lens[r]] {
            targets.push(v);
            weights.push(w);
        }
    }
    Graph::from_csr(merged_offsets, targets, weights)
}

impl EdgeSink for GraphBuilder {
    fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        GraphBuilder::add_edge(self, u, v, w);
    }

    fn reserve_vertices(&mut self, n: usize) {
        GraphBuilder::reserve_vertices(self, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_duplicate_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.5);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn grows_vertex_count() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 7, 1.0);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.degree(6), 0);
    }

    #[test]
    fn self_loop_doubled() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 0, 3.0);
        let g = b.build();
        assert_eq!(g.self_loop(0), 6.0);
        assert_eq!(g.total_weight(), 6.0);
    }

    #[test]
    fn extend_unweighted_defaults_to_one() {
        let mut b = GraphBuilder::new(3);
        b.extend_unweighted([(0, 1), (1, 2)]);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.total_weight(), 4.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn rejects_negative_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, -1.0);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let edges = [
            (3u32, 1u32, 1.0),
            (0, 2, 2.0),
            (2, 2, 0.5),
            (1, 3, 1.5), // duplicate of (3, 1)
            (0, 4, 1.0),
            (4, 0, 3.0), // duplicate of (0, 4)
        ];
        let mut fwd = GraphBuilder::new(5);
        fwd.extend_edges(edges);
        let mut rev = GraphBuilder::new(5);
        rev.extend_edges(edges.iter().rev().copied());
        let a = fwd.build();
        let b = rev.build();
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.targets(), b.targets());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.edge_weight(3, 1), Some(2.5));
        assert_eq!(a.edge_weight(0, 4), Some(4.0));
        assert_eq!(a.self_loop(2), 1.0);
    }
}
