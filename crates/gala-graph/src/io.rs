//! Graph IO: whitespace-separated edge-list text and a compact binary format.
//!
//! The text format is the de-facto standard used by SNAP / KONECT dumps:
//! one `u v [w]` triple per line, `#` or `%` comment lines ignored, weight
//! defaulting to 1. Directed inputs are symmetrised by the builder (the
//! paper converts directed graphs such as TW and EW to undirected ones).
//! Parsing is byte-level over a single reused line buffer — no per-edge
//! `String` or `Vec` allocations — and generic over [`EdgeSink`], so the
//! same parser feeds the in-memory [`GraphBuilder`] and the out-of-core
//! [`crate::stream::StreamingBuilder`].
//!
//! ## Binary containers
//!
//! Two little-endian on-disk versions exist:
//!
//! * **v1** (`GALAGRF1`): magic, `n`, `arcs`, then packed offsets /
//!   targets / weights. Read-compatible; no longer written.
//! * **v2** (`GALAGRF2`): a 64-byte header carrying explicit 8-byte
//!   aligned section positions and an FNV-1a checksum over the section
//!   bytes. [`save_binary`] streams it without materialising the
//!   container in memory; [`load_binary_mapped`] uses the checksum in
//!   place of the `O(m log d)` structural audit and decodes through the
//!   trusted CSR constructor into a [`MappedGraph`]. The workspace
//!   forbids `unsafe`, so the "mapping" is emulated — sections are
//!   streamed into exactly-sized buffers — but the header layout is
//!   mmap-ready: every section is aligned and its position explicit.
//!
//! v2 header layout (all fields `u64` LE unless noted):
//!
//! | offset | field                                  |
//! |-------:|----------------------------------------|
//! |      0 | magic `GALAGRF2` (8 bytes)             |
//! |      8 | `n` (vertex count)                     |
//! |     16 | `arcs` (adjacency entries)             |
//! |     24 | offsets section position (= 64)        |
//! |     32 | targets section position               |
//! |     40 | weights section position               |
//! |     48 | FNV-1a checksum of all section bytes   |
//! |     56 | reserved (0)                           |

use crate::builder::{EdgeSink, GraphBuilder};
use crate::csr::{Graph, GraphStore, MappedGraph, VertexId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes of the legacy (packed, unchecksummed) container.
const MAGIC_V1: &[u8; 8] = b"GALAGRF1";

/// Magic bytes of the aligned, checksummed container.
const MAGIC_V2: &[u8; 8] = b"GALAGRF2";

/// v2 header size; also the (8-aligned) position of the offsets section.
const HEADER_BYTES: u64 = 64;

/// Header position of the checksum field (patched after streaming).
const CHECKSUM_POS: u64 = 48;

/// Section streaming granularity. A multiple of 8 so no element straddles
/// a chunk boundary.
const IO_CHUNK_BYTES: usize = 1 << 20;

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Edge-list text format
// ---------------------------------------------------------------------------

/// Returns the next whitespace-delimited token of `line` starting at
/// `*pos`, advancing `*pos` past it.
fn next_token<'a>(line: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    while *pos < line.len() && line[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    let start = *pos;
    while *pos < line.len() && !line[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
    (*pos > start).then(|| &line[start..*pos])
}

fn parse_vertex(tok: &[u8], lineno: usize, what: &str) -> io::Result<VertexId> {
    let mut val: u64 = 0;
    if tok.is_empty() {
        return Err(bad_data(format!("line {lineno}: missing {what}")));
    }
    for &b in tok {
        if !b.is_ascii_digit() {
            return Err(bad_data(format!(
                "line {lineno}: invalid {what} '{}'",
                String::from_utf8_lossy(tok)
            )));
        }
        val = val * 10 + (b - b'0') as u64;
        if val > VertexId::MAX as u64 {
            return Err(bad_data(format!(
                "line {lineno}: {what} '{}' exceeds the u32 vertex-id range",
                String::from_utf8_lossy(tok)
            )));
        }
    }
    Ok(val as VertexId)
}

/// Parses a weight token; NaN, infinite and negative weights are errors.
fn parse_weight(tok: &[u8], lineno: usize) -> io::Result<f64> {
    std::str::from_utf8(tok)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&w| crate::builder::valid_weight(w))
        .ok_or_else(|| {
            bad_data(format!(
                "line {lineno}: invalid weight '{}' (must be finite and >= 0)",
                String::from_utf8_lossy(tok)
            ))
        })
}

/// The most vertices an edge list of `bytes` bytes may imply, through its
/// largest id or its `#vertices` directive: the builders allocate per
/// vertex, so a one-line file naming id 4294967295 would otherwise ask for
/// tens of gigabytes.
fn max_vertices(bytes: u64) -> u64 {
    (1u64 << 24).max(bytes.saturating_mul(8))
}

/// Parses an edge-list from a reader into any [`EdgeSink`]. Lines starting
/// with `#` or `%` are comments; each data line is `u v` or `u v w`
/// (weight defaults to 1; extra trailing tokens are ignored). The
/// `#vertices N` directive written by [`write_edge_list`] reserves
/// isolated trailing vertices. Malformed lines are reported with their
/// 1-based line number, and so is the line whose id or directive implies
/// more vertices than [`max_vertices`] allows for the input's size.
///
/// One line buffer is reused for the whole stream: parsing allocates
/// nothing per edge.
pub fn parse_edge_list_into<R: BufRead, S: EdgeSink>(
    mut reader: R,
    sink: &mut S,
) -> io::Result<()> {
    let mut line: Vec<u8> = Vec::with_capacity(256);
    let mut lineno = 0usize;
    let mut bytes = 0u64;
    // The largest vertex count a line implies, the first such line, and
    // whether a `#vertices` directive (rather than an id) implied it.
    let mut widest = (0u64, 0usize, false);
    loop {
        line.clear();
        let read = reader.read_until(b'\n', &mut line)?;
        if read == 0 {
            let (n, at, directive) = widest;
            if n > max_vertices(bytes) {
                let what = if directive {
                    format!("#vertices {n}")
                } else {
                    format!("vertex id {}", n - 1)
                };
                return Err(bad_data(format!(
                    "line {at}: {what} needs {n} vertices, more than the {} a \
                     {bytes}-byte edge list may have; renumber the ids compactly from 0",
                    max_vertices(bytes)
                )));
            }
            return Ok(());
        }
        bytes += read as u64;
        lineno += 1;
        let mut pos = 0usize;
        let Some(first) = next_token(&line, &mut pos) else {
            continue; // blank line
        };
        if first[0] == b'#' || first[0] == b'%' {
            // Honor our own writer's vertex-count directive so isolated
            // trailing vertices survive a round-trip.
            if first == b"#vertices" {
                if let Some(tok) = next_token(&line, &mut pos) {
                    if let Ok(n) = std::str::from_utf8(tok).unwrap_or("").parse::<usize>() {
                        if n as u64 > widest.0 {
                            widest = (n as u64, lineno, true);
                        }
                        sink.reserve_vertices(n);
                    }
                }
            }
            continue;
        }
        let u = parse_vertex(first, lineno, "source")?;
        let v = match next_token(&line, &mut pos) {
            Some(tok) => parse_vertex(tok, lineno, "target")?,
            None => return Err(bad_data(format!("line {lineno}: missing target"))),
        };
        let w = match next_token(&line, &mut pos) {
            Some(tok) => parse_weight(tok, lineno)?,
            None => 1.0,
        };
        let n = u64::from(u.max(v)) + 1;
        if n > widest.0 {
            widest = (n, lineno, false);
        }
        sink.add_edge(u, v, w);
    }
}

/// Parses an edge-list from a reader. See [`parse_edge_list_into`].
pub fn read_edge_list<R: BufRead>(reader: R) -> io::Result<Graph> {
    let mut b = GraphBuilder::new(0);
    parse_edge_list_into(reader, &mut b)?;
    Ok(b.build())
}

/// Loads an edge-list file. See [`read_edge_list`].
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    read_edge_list(BufReader::new(File::open(path)?))
}

/// Writes the graph as an edge list (each undirected edge once, `u <= v`).
pub fn write_edge_list<W: Write>(graph: &Graph, mut w: W) -> io::Result<()> {
    writeln!(w, "#vertices {}", graph.num_vertices())?;
    for v in graph.vertices() {
        for (u, wt) in graph.neighbors(v) {
            if u >= v {
                // Self-loop stored weight is doubled; write the user-facing value.
                let out = if u == v { wt / 2.0 } else { wt };
                writeln!(w, "{v} {u} {out}")?;
            }
        }
    }
    Ok(())
}

/// Saves an edge-list file. See [`write_edge_list`].
pub fn save_edge_list<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    write_edge_list(graph, BufWriter::new(File::create(path)?))
}

// ---------------------------------------------------------------------------
// Binary container
// ---------------------------------------------------------------------------

/// Incremental FNV-1a (64-bit): the container checksum. Deterministic,
/// dependency-free, and byte-order-stable.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn align8(pos: u64) -> u64 {
    pos.next_multiple_of(8)
}

/// v2 section positions for a graph of `n` vertices and `arcs` entries:
/// `(targets_pos, weights_pos, total_len)`.
fn v2_layout(n: u64, arcs: u64) -> (u64, u64, u64) {
    let targets_pos = HEADER_BYTES + (n + 1) * 8;
    let weights_pos = align8(targets_pos + arcs * 4);
    (targets_pos, weights_pos, weights_pos + arcs * 8)
}

fn v2_header(graph: &Graph, checksum: u64) -> [u8; HEADER_BYTES as usize] {
    let n = graph.num_vertices() as u64;
    let arcs = graph.num_arcs() as u64;
    let (targets_pos, weights_pos, _) = v2_layout(n, arcs);
    let mut h = [0u8; HEADER_BYTES as usize];
    h[0..8].copy_from_slice(MAGIC_V2);
    h[8..16].copy_from_slice(&n.to_le_bytes());
    h[16..24].copy_from_slice(&arcs.to_le_bytes());
    h[24..32].copy_from_slice(&HEADER_BYTES.to_le_bytes());
    h[32..40].copy_from_slice(&targets_pos.to_le_bytes());
    h[40..48].copy_from_slice(&weights_pos.to_le_bytes());
    h[48..56].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// Streams the three CSR sections (with alignment padding) to `w`,
/// returning the FNV-1a checksum over everything written.
fn write_v2_sections<W: Write>(graph: &Graph, w: &mut W) -> io::Result<u64> {
    let mut fnv = Fnv1a::new();
    let mut buf: Vec<u8> = Vec::with_capacity(IO_CHUNK_BYTES);
    let flush = |buf: &mut Vec<u8>, w: &mut W, fnv: &mut Fnv1a, force: bool| -> io::Result<()> {
        if force || buf.len() >= IO_CHUNK_BYTES {
            fnv.update(buf);
            w.write_all(buf)?;
            buf.clear();
        }
        Ok(())
    };
    for &o in graph.offsets() {
        buf.extend_from_slice(&(o as u64).to_le_bytes());
        flush(&mut buf, w, &mut fnv, false)?;
    }
    flush(&mut buf, w, &mut fnv, true)?;
    for &t in graph.targets() {
        buf.extend_from_slice(&t.to_le_bytes());
        flush(&mut buf, w, &mut fnv, false)?;
    }
    flush(&mut buf, w, &mut fnv, true)?;
    let (targets_pos, weights_pos, _) =
        v2_layout(graph.num_vertices() as u64, graph.num_arcs() as u64);
    let padding = (weights_pos - targets_pos - graph.num_arcs() as u64 * 4) as usize;
    buf.resize(padding, 0);
    flush(&mut buf, w, &mut fnv, true)?;
    for &wt in graph.weights() {
        buf.extend_from_slice(&wt.to_le_bytes());
        flush(&mut buf, w, &mut fnv, false)?;
    }
    flush(&mut buf, w, &mut fnv, true)?;
    Ok(fnv.finish())
}

/// Serialises the graph into the v2 binary container.
pub fn to_bytes(graph: &Graph) -> Bytes {
    let n = graph.num_vertices() as u64;
    let arcs = graph.num_arcs() as u64;
    let (_, _, total) = v2_layout(n, arcs);
    let mut body = Vec::with_capacity((total - HEADER_BYTES) as usize);
    let checksum = write_v2_sections(graph, &mut body).expect("Vec write is infallible");
    let mut buf = BytesMut::with_capacity(total as usize);
    buf.put_slice(&v2_header(graph, checksum));
    buf.put_slice(&body);
    buf.freeze()
}

/// Saves the binary container (v2) to a file, streaming the sections —
/// peak memory is one IO chunk, not the whole container. The checksum is
/// patched into the header after the sections are written.
pub fn save_binary<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(IO_CHUNK_BYTES, File::create(path)?);
    w.write_all(&v2_header(graph, 0))?;
    let checksum = write_v2_sections(graph, &mut w)?;
    let mut f = w.into_inner().map_err(|e| e.into_error())?;
    f.seek(SeekFrom::Start(CHECKSUM_POS))?;
    f.write_all(&checksum.to_le_bytes())?;
    f.flush()
}

/// Decoded v2 CSR arrays plus the number of checksummed bytes consumed.
struct V2Sections {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f64>,
    section_bytes: u64,
}

/// Reads `total` bytes in aligned chunks, feeding each chunk to `consume`
/// and folding it into `fnv`.
fn read_chunked<R: Read>(
    r: &mut R,
    mut total: usize,
    fnv: &mut Fnv1a,
    mut consume: impl FnMut(&[u8]),
) -> io::Result<()> {
    let mut buf = vec![0u8; IO_CHUNK_BYTES.min(total.max(1))];
    while total > 0 {
        let take = buf.len().min(total);
        r.read_exact(&mut buf[..take])?;
        fnv.update(&buf[..take]);
        consume(&buf[..take]);
        total -= take;
    }
    Ok(())
}

/// Reads and checksum-verifies the v2 sections that follow an
/// already-consumed header. Each section is streamed straight into its
/// exactly-sized output vector (1x peak, no whole-file staging buffer).
fn read_v2_sections<R: Read>(
    header: &[u8; HEADER_BYTES as usize],
    r: &mut R,
) -> io::Result<V2Sections> {
    let field = |i: usize| u64::from_le_bytes(header[i..i + 8].try_into().unwrap());
    let n = field(8) as usize;
    let arcs = field(16) as usize;
    let (offsets_pos, targets_pos, weights_pos) = (field(24), field(32), field(40));
    let want_checksum = field(48);
    let (expect_targets, expect_weights, total) = v2_layout(n as u64, arcs as u64);
    if offsets_pos != HEADER_BYTES || targets_pos != expect_targets || weights_pos != expect_weights
    {
        return Err(bad_data("v2 container: inconsistent section layout".into()));
    }
    let mut fnv = Fnv1a::new();
    let mut offsets: Vec<usize> = Vec::new();
    offsets.reserve_exact(n + 1);
    read_chunked(r, (n + 1) * 8, &mut fnv, |bytes| {
        for c in bytes.chunks_exact(8) {
            offsets.push(u64::from_le_bytes(c.try_into().unwrap()) as usize);
        }
    })?;
    let mut targets: Vec<VertexId> = Vec::new();
    targets.reserve_exact(arcs);
    read_chunked(r, arcs * 4, &mut fnv, |bytes| {
        for c in bytes.chunks_exact(4) {
            targets.push(u32::from_le_bytes(c.try_into().unwrap()));
        }
    })?;
    let padding = (weights_pos - targets_pos) as usize - arcs * 4;
    read_chunked(r, padding, &mut fnv, |_| {})?;
    let mut weights: Vec<f64> = Vec::new();
    weights.reserve_exact(arcs);
    read_chunked(r, arcs * 8, &mut fnv, |bytes| {
        for c in bytes.chunks_exact(8) {
            weights.push(f64::from_le_bytes(c.try_into().unwrap()));
        }
    })?;
    if fnv.finish() != want_checksum {
        return Err(bad_data("v2 container: checksum mismatch".into()));
    }
    // Cheap O(n) structural check; the checksum covers the rest.
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&arcs)
        || offsets.windows(2).any(|p| p[0] > p[1])
    {
        return Err(bad_data("v2 container: corrupt offsets".into()));
    }
    Ok(V2Sections {
        offsets,
        targets,
        weights,
        section_bytes: total - HEADER_BYTES,
    })
}

/// Parses a v1 body (everything after the magic) into CSR arrays.
fn read_v1_body(mut data: &[u8]) -> io::Result<Graph> {
    if data.len() < 16 {
        return Err(bad_data("truncated graph container".into()));
    }
    let n = data.get_u64_le() as usize;
    let arcs = data.get_u64_le() as usize;
    let need = (n + 1) * 8 + arcs * 4 + arcs * 8;
    if data.remaining() < need {
        return Err(bad_data("truncated graph container".into()));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(data.get_u64_le() as usize);
    }
    let mut targets = Vec::with_capacity(arcs);
    for _ in 0..arcs {
        targets.push(data.get_u32_le());
    }
    let mut weights = Vec::with_capacity(arcs);
    for _ in 0..arcs {
        weights.push(data.get_f64_le());
    }
    Ok(Graph::from_csr(offsets, targets, weights))
}

/// Deserialises a graph from a binary container (v1 or v2), with full
/// structural validation.
pub fn from_bytes(data: &[u8]) -> io::Result<Graph> {
    if data.len() >= 8 && &data[..8] == MAGIC_V1 {
        return read_v1_body(&data[8..]);
    }
    if data.len() >= HEADER_BYTES as usize && &data[..8] == MAGIC_V2 {
        let header: [u8; HEADER_BYTES as usize] = data[..HEADER_BYTES as usize].try_into().unwrap();
        let mut rest = &data[HEADER_BYTES as usize..];
        let s = read_v2_sections(&header, &mut rest)?;
        return Ok(Graph::from_csr(s.offsets, s.targets, s.weights));
    }
    Err(bad_data("bad magic".into()))
}

/// Loads a binary container (v1 or v2) into a fully-validated owned
/// [`Graph`].
pub fn load_binary<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    let mut r = BufReader::with_capacity(IO_CHUNK_BYTES, File::open(path)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic == MAGIC_V1 {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        return read_v1_body(&buf);
    }
    if &magic == MAGIC_V2 {
        let mut header = [0u8; HEADER_BYTES as usize];
        header[..8].copy_from_slice(&magic);
        r.read_exact(&mut header[8..])?;
        let s = read_v2_sections(&header, &mut r)?;
        return Ok(Graph::from_csr(s.offsets, s.targets, s.weights));
    }
    Err(bad_data("bad magic".into()))
}

/// Loads a v2 container read-only through the emulated mapping path:
/// sections stream into exactly-sized buffers, the header checksum
/// replaces the structural audit, and decoding goes through the trusted
/// CSR constructor. Errors on v1 containers (re-save with
/// [`save_binary`] to upgrade).
pub fn load_binary_mapped<P: AsRef<Path>>(path: P) -> io::Result<MappedGraph> {
    let path = path.as_ref();
    let mut r = BufReader::with_capacity(IO_CHUNK_BYTES, File::open(path)?);
    let mut header = [0u8; HEADER_BYTES as usize];
    r.read_exact(&mut header)?;
    if &header[..8] == MAGIC_V1 {
        return Err(bad_data(
            "mapped load requires the v2 container; re-save with save_binary".into(),
        ));
    }
    if &header[..8] != MAGIC_V2 {
        return Err(bad_data("bad magic".into()));
    }
    let s = read_v2_sections(&header, &mut r)?;
    let graph = Graph::from_csr_trusted(s.offsets, s.targets, s.weights);
    Ok(MappedGraph::new(graph, path.to_path_buf(), s.section_bytes))
}

/// Loads a binary container into a [`GraphStore`]: v2 files come back
/// [`GraphStore::Mapped`], v1 files [`GraphStore::Owned`]. Drivers that
/// do not care about the backing call this and deref.
pub fn load_store<P: AsRef<Path>>(path: P) -> io::Result<GraphStore> {
    let path = path.as_ref();
    let mut magic = [0u8; 8];
    File::open(path)?.read_exact(&mut magic)?;
    if &magic == MAGIC_V2 {
        Ok(GraphStore::Mapped(load_binary_mapped(path)?))
    } else {
        Ok(GraphStore::Owned(load_binary(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 2.0);
        b.add_edge(3, 3, 1.0);
        b.build()
    }

    /// Serialises in the legacy v1 layout (the old writer, kept for
    /// back-compat coverage).
    fn to_bytes_v1(graph: &Graph) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V1);
        buf.extend_from_slice(&(graph.num_vertices() as u64).to_le_bytes());
        buf.extend_from_slice(&(graph.num_arcs() as u64).to_le_bytes());
        for &o in graph.offsets() {
            buf.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &t in graph.targets() {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        for &w in graph.weights() {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(Cursor::new(out)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_parses_comments_and_default_weight() {
        let text = "# header\n% konect style\n0 1\n1 2 3.5\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(3.5));
    }

    #[test]
    fn text_handles_no_trailing_newline_and_crlf() {
        let g = read_edge_list(Cursor::new("0 1 2.0\r\n1 2")).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 2), Some(1.0));
    }

    #[test]
    fn text_rejects_garbage_with_line_number() {
        let err = read_edge_list(Cursor::new("0 1\n0 x\n")).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        for bad in ["bogus", "nan", "NaN", "inf", "-inf", "-2", "1e400"] {
            let err = read_edge_list(Cursor::new(format!("0 1\n0 1 {bad}\n"))).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("line 2: invalid weight"), "{bad}: {msg}");
        }
    }

    #[test]
    fn text_rejects_missing_target() {
        let err = read_edge_list(Cursor::new("7\n")).unwrap_err();
        assert!(err.to_string().contains("missing target"), "{err}");
    }

    #[test]
    fn text_rejects_out_of_range_vertex() {
        let err = read_edge_list(Cursor::new("0 4294967296\n")).unwrap_err();
        assert!(err.to_string().contains("u32"), "{err}");
    }

    #[test]
    fn text_rejects_vertex_counts_the_input_cannot_back() {
        for (text, line, what) in [
            ("0 4294967295\n", 1, "vertex id 4294967295"),
            ("0 1\n2 300000000 1.5\n0 2\n", 2, "vertex id 300000000"),
            ("#vertices 300000000\n0 1\n", 1, "#vertices 300000000"),
        ] {
            let err = read_edge_list(Cursor::new(text)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.starts_with(&format!("line {line}: {what} ")), "{msg}");
            assert!(msg.contains("renumber"), "{msg}");
        }
        // Up to 2^24 vertices any input may name; beyond, 8 per byte read.
        assert_eq!(max_vertices(11), 1 << 24);
        assert_eq!(max_vertices(1 << 30), 1 << 33);
        assert!(read_edge_list(Cursor::new("0 16777216\n")).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_v1_still_loads() {
        let g = sample();
        let v1 = to_bytes_v1(&g);
        assert_eq!(from_bytes(&v1).unwrap(), g);
    }

    #[test]
    fn v2_sections_are_aligned() {
        let g = sample();
        let bytes = to_bytes(&g);
        let field = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        assert_eq!(&bytes[..8], MAGIC_V2);
        assert_eq!(field(24) % 8, 0);
        assert_eq!(field(32) % 8, 0);
        assert_eq!(field(40) % 8, 0);
        // Odd arc counts force real padding between targets and weights.
        assert_eq!(g.num_arcs() % 2, 1);
        assert_eq!(field(40), align8(field(32) + g.num_arcs() as u64 * 4));
    }

    #[test]
    fn binary_rejects_bad_magic() {
        assert!(from_bytes(b"NOTAGRAPHXXXXXXXXXXXXXXXXX").is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let bytes = to_bytes(&g);
        assert!(from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = sample();
        let mut bytes = to_bytes(&g).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one weight bit
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir();
        let p1 = dir.join("gala_io_test.txt");
        let p2 = dir.join("gala_io_test.bin");
        save_edge_list(&g, &p1).unwrap();
        save_binary(&g, &p2).unwrap();
        assert_eq!(load_edge_list(&p1).unwrap(), g);
        assert_eq!(load_binary(&p2).unwrap(), g);
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn mapped_load_matches_owned_bitwise() {
        let g = sample();
        let p = std::env::temp_dir().join("gala_io_mapped_test.bin");
        save_binary(&g, &p).unwrap();
        let owned = load_binary(&p).unwrap();
        let mapped = load_binary_mapped(&p).unwrap();
        let m = mapped.graph();
        assert_eq!(m.offsets(), owned.offsets());
        assert_eq!(m.targets(), owned.targets());
        let wa: Vec<u64> = m.weights().iter().map(|w| w.to_bits()).collect();
        let wb: Vec<u64> = owned.weights().iter().map(|w| w.to_bits()).collect();
        assert_eq!(wa, wb);
        assert_eq!(mapped.source(), p.as_path());
        assert!(mapped.mapped_bytes() > 0);
        let store = load_store(&p).unwrap();
        assert_eq!(store.kind(), "mapped");
        assert_eq!(store.num_arcs(), g.num_arcs());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn mapped_load_rejects_corruption() {
        let g = sample();
        let p = std::env::temp_dir().join("gala_io_mapped_corrupt_test.bin");
        save_binary(&g, &p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() - 9;
        bytes[mid] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        assert!(load_binary_mapped(&p).is_err());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn mapped_load_rejects_v1() {
        let g = sample();
        let p = std::env::temp_dir().join("gala_io_mapped_v1_test.bin");
        std::fs::write(&p, to_bytes_v1(&g)).unwrap();
        assert!(load_binary_mapped(&p).is_err());
        // But the store loader falls back to owned.
        let store = load_store(&p).unwrap();
        assert_eq!(store.kind(), "owned");
        assert_eq!(store.graph(), &g);
        let _ = std::fs::remove_file(p);
    }
}
