//! METIS graph-format IO.
//!
//! The METIS format is the lingua franca of graph-partitioning tools (and
//! of Grappolo's input pipeline): a header line `n m [fmt]` followed by one
//! line per vertex listing its neighbors, 1-indexed, with optional edge
//! weights (`fmt` = 1 in the weights digit). Undirected edges appear in
//! both endpoint lines.

use crate::csr::{Graph, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Reads a METIS graph. Supports unweighted (`fmt` absent or `0`/`00`) and
/// edge-weighted (`fmt` ending in `1`) variants; vertex weights are not
/// supported and produce an error.
pub fn read_metis<R: BufRead>(reader: R) -> io::Result<Graph> {
    let bad = |line: usize, msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metis line {line}: {msg}"),
        )
    };
    // Comment lines are dropped everywhere; blank lines are dropped only
    // before the header — afterwards a blank line IS a vertex entry (an
    // isolated vertex).
    let mut lines = reader.lines().enumerate().filter_map(|(i, l)| match l {
        Ok(s) => {
            let t = s.trim().to_string();
            if t.starts_with('%') {
                None
            } else {
                Some(Ok((i + 1, t)))
            }
        }
        Err(e) => Some(Err(e)),
    });
    let (hline, header) = loop {
        match lines.next().ok_or_else(|| bad(0, "missing header"))?? {
            (_, t) if t.is_empty() => continue,
            found => break found,
        }
    };
    let parts: Vec<&str> = header.split_whitespace().collect();
    if parts.len() < 2 {
        return Err(bad(hline, "header needs at least `n m`"));
    }
    let n: usize = parts[0]
        .parse()
        .map_err(|_| bad(hline, "bad vertex count"))?;
    let m: usize = parts[1].parse().map_err(|_| bad(hline, "bad edge count"))?;
    let weighted = match parts.get(2) {
        None => false,
        Some(&fmt) => {
            if fmt.len() >= 2 && fmt[..fmt.len() - 1] != "0".repeat(fmt.len() - 1) {
                return Err(bad(hline, "vertex weights are not supported"));
            }
            fmt.ends_with('1')
        }
    };
    let mut builder = crate::builder::GraphBuilder::with_capacity(n, m);
    builder.reserve_vertices(n);
    let mut vertex = 0usize;
    for item in lines {
        let (lno, line) = item?;
        if vertex >= n {
            return Err(bad(lno, "more vertex lines than the header's n"));
        }
        let mut it = line.split_whitespace();
        while let Some(tok) = it.next() {
            let u: usize = tok.parse().map_err(|_| bad(lno, "bad neighbor id"))?;
            if u == 0 || u > n {
                return Err(bad(lno, "neighbor id out of range (1-indexed)"));
            }
            let w = if weighted {
                let wt = it.next().ok_or_else(|| bad(lno, "missing edge weight"))?;
                let w = wt.parse::<f64>().ok();
                let w = w.filter(|&w| crate::builder::valid_weight(w));
                w.ok_or_else(|| bad(lno, "bad edge weight (must be finite and >= 0)"))?
            } else {
                1.0
            };
            // Each undirected edge appears in both lines; add it once.
            let u = (u - 1) as VertexId;
            let v = vertex as VertexId;
            if v <= u {
                builder.add_edge(v, u, w);
            }
        }
        vertex += 1;
    }
    if vertex != n {
        return Err(bad(0, "fewer vertex lines than the header's n"));
    }
    let g = builder.build();
    if g.num_edges() != m {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metis header claims {m} edges, file has {}", g.num_edges()),
        ));
    }
    Ok(g)
}

/// Writes the graph in METIS format (edge-weighted, fmt `001`).
pub fn write_metis<W: Write>(graph: &Graph, mut w: W) -> io::Result<()> {
    writeln!(w, "{} {} 001", graph.num_vertices(), graph.num_edges())?;
    for v in graph.vertices() {
        let mut first = true;
        for (u, wt) in graph.neighbors(v) {
            if !first {
                write!(w, " ")?;
            }
            first = false;
            // Self-loops: METIS has no loop concept; emit the user-facing
            // (halved) weight against the vertex itself.
            let out = if u == v { wt / 2.0 } else { wt };
            write!(w, "{} {}", u + 1, out)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Loads a METIS file from disk.
pub fn load_metis<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    read_metis(BufReader::new(File::open(path)?))
}

/// Saves a METIS file to disk.
pub fn save_metis<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    write_metis(graph, BufWriter::new(File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::fixtures;
    use std::io::Cursor;

    #[test]
    fn reads_classic_unweighted_example() {
        // The 7-vertex example from the METIS manual.
        let text = "7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n";
        let g = read_metis(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 11);
        assert_eq!(g.edge_weight(0, 4), Some(1.0));
        assert_eq!(g.edge_weight(3, 6), Some(1.0));
    }

    #[test]
    fn weighted_roundtrip() {
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(0, 1, 2.5);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 3, 4.0);
        let g = b.build();
        let mut out = Vec::new();
        write_metis(&g, &mut out).unwrap();
        let g2 = read_metis(Cursor::new(out)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_fixture() {
        let g = fixtures::two_cliques(4);
        let mut out = Vec::new();
        write_metis(&g, &mut out).unwrap();
        assert_eq!(read_metis(Cursor::new(out)).unwrap(), g);
    }

    #[test]
    fn comments_are_skipped() {
        let text = "% a comment\n3 2\n2\n1 3\n2\n";
        let g = read_metis(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_bad_edge_count() {
        let text = "3 5\n2\n1 3\n2\n";
        assert!(read_metis(Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_out_of_range_neighbor() {
        let text = "2 1\n5\n\n";
        assert!(read_metis(Cursor::new(text)).is_err());
    }

    #[test]
    fn rejects_malformed_edge_weights() {
        for w in ["x", "nan", "inf", "-1"] {
            // Vertex 1's line (file line 2) holds the bad weight.
            let text = format!("3 2 001\n2 {w}\n1 1 3 1\n2 1\n");
            let err = read_metis(Cursor::new(text)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("metis line 2: bad edge weight"), "{w}: {msg}");
        }
    }

    #[test]
    fn rejects_vertex_weights() {
        let text = "2 1 011\n1 2\n1 1\n";
        assert!(read_metis(Cursor::new(text)).is_err());
    }

    #[test]
    fn isolated_vertices_preserved() {
        let text = "3 1\n2\n1\n\n";
        let g = read_metis(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(2), 0);
    }
}
