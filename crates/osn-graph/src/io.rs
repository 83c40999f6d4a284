//! Edge-list I/O in the SNAP text format.
//!
//! SNAP files are whitespace-separated `u v` pairs, one per line, with
//! `#`-prefixed comment lines. [`read_edge_list`] accepts arbitrary
//! (sparse) node ids and compacts them to dense `0..n` ids, returning the
//! mapping; that lets the real Facebook/Slashdot/Twitter/DBLP downloads
//! drop in for the synthetic stand-ins.
//!
//! The loaders are *streaming and bounds-checked*: lines are assembled
//! byte-by-byte against a length cap (a single pathological line cannot
//! exhaust memory), node/edge counts are checked against configurable
//! limits, and CRLF endings, comments, duplicate edges and self-loops
//! are handled by [`EdgeListOptions`] policy rather than by accident.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};

use crate::{Graph, GraphBuilder, GraphError, IoError, NodeId};

/// Dense node ids are `u32`, so a loader can address at most this many
/// distinct labels before compaction would silently alias them.
const DENSE_ID_LIMIT: usize = u32::MAX as usize;

/// How duplicate edges (in either direction) are treated on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep the first occurrence, silently drop repeats. SNAP's directed
    /// datasets (Slashdot, Twitter) list both directions, so this is the
    /// default.
    #[default]
    Dedup,
    /// Fail with [`IoError::DuplicateEdge`] on the first repeat.
    Reject,
}

/// How self-loops `v v` are treated on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelfLoopPolicy {
    /// Silently drop self-loops; ACCU friendship is irreflexive.
    #[default]
    Drop,
    /// Fail with [`IoError::SelfLoopEdge`] on the first self-loop.
    Reject,
}

/// Bounds and policies for [`read_edge_list_with`].
///
/// The defaults reproduce [`read_edge_list`]'s behavior: dedup
/// duplicates, drop self-loops, cap lines at 4 KiB, and allow any node
/// or edge count the dense `u32` id space can address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeListOptions {
    /// Maximum number of *distinct* node labels accepted. Clamped to the
    /// `u32` dense-id space; exceeding that hard limit yields
    /// [`GraphError::TooManyNodes`] instead of silent id aliasing.
    pub max_nodes: usize,
    /// Maximum number of accepted (post-policy) edges.
    pub max_edges: usize,
    /// Maximum line length in bytes, excluding the terminator. Longer
    /// lines yield [`IoError::LineTooLong`] without being buffered.
    pub max_line_len: usize,
    /// Policy for duplicate edges.
    pub duplicates: DuplicatePolicy,
    /// Policy for self-loops.
    pub self_loops: SelfLoopPolicy,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            max_nodes: DENSE_ID_LIMIT,
            max_edges: usize::MAX,
            max_line_len: 4096,
            duplicates: DuplicatePolicy::Dedup,
            self_loops: SelfLoopPolicy::Drop,
        }
    }
}

impl EdgeListOptions {
    /// Strict variant: reject duplicate edges and self-loops instead of
    /// silently normalizing them. Useful when the producer is this crate
    /// ([`write_edge_list`] emits canonical lists) and any anomaly means
    /// corruption.
    pub fn strict() -> Self {
        EdgeListOptions {
            duplicates: DuplicatePolicy::Reject,
            self_loops: SelfLoopPolicy::Reject,
            ..EdgeListOptions::default()
        }
    }
}

/// A graph read from an edge list, plus the original node labels.
#[derive(Debug, Clone)]
pub struct LabeledGraph {
    /// The compacted graph with dense ids `0..n`.
    pub graph: Graph,
    /// `labels[i]` is the original id of dense node `i`, in first-seen order.
    pub labels: Vec<u64>,
}

/// Reads one line from `reader` into `buf` (terminator excluded),
/// enforcing the byte cap: a longer line fails with `too_long()`.
/// Returns `Ok(false)` at EOF with nothing read.
///
/// This never buffers more than `max_line_len` bytes of the line, so an
/// adversarial input without newlines cannot exhaust memory. Every
/// line-based reader of the workspace (edge lists here, instance files
/// in `accu-core`) reads through it.
///
/// # Errors
///
/// `too_long()` for an over-long line, or the underlying read error.
pub fn read_capped_line<R: BufRead, E: From<std::io::Error>>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max_line_len: usize,
    too_long: impl FnOnce() -> E,
) -> Result<bool, E> {
    buf.clear();
    let mut saw_any = false;
    loop {
        let (done, used) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                (true, 0)
            } else {
                saw_any = true;
                let pos = available.iter().position(|&b| b == b'\n');
                let take = pos.unwrap_or(available.len());
                if buf.len() + take > max_line_len {
                    return Err(too_long());
                }
                buf.extend_from_slice(&available[..take]);
                match pos {
                    Some(p) => (true, p + 1),
                    None => (false, take),
                }
            }
        };
        reader.consume(used);
        if done {
            return Ok(saw_any);
        }
    }
}

/// Interns `label`, handing out dense ids in first-seen order, with both
/// the configured and the hard `u32` cap enforced *before* narrowing.
fn intern_label(
    ids: &mut HashMap<u64, u32>,
    labels: &mut Vec<u64>,
    label: u64,
    max_nodes: usize,
) -> Result<u32, IoError> {
    if let Some(&id) = ids.get(&label) {
        return Ok(id);
    }
    if labels.len() >= DENSE_ID_LIMIT {
        return Err(IoError::Graph(GraphError::TooManyNodes {
            limit: DENSE_ID_LIMIT,
        }));
    }
    if labels.len() >= max_nodes {
        return Err(IoError::LimitExceeded {
            what: "node",
            limit: max_nodes,
        });
    }
    let id = labels.len() as u32;
    labels.push(label);
    ids.insert(label, id);
    Ok(id)
}

/// Reads a whitespace-separated edge list (SNAP format) from `reader`
/// with default [`EdgeListOptions`].
///
/// * Lines starting with `#` or `%` and blank lines are skipped; CRLF
///   endings and a missing final newline are accepted.
/// * Node ids may be arbitrary `u64`s; they are compacted densely.
/// * Duplicate edges (in either direction) and self-loops are dropped —
///   SNAP's directed datasets (Slashdot, Twitter) list both directions,
///   and the ACCU model treats friendship as undirected.
///
/// # Errors
///
/// Returns [`IoError::Parse`] for malformed lines, [`IoError::Io`] for
/// underlying read failures, and the bounds errors documented on
/// [`read_edge_list_with`].
///
/// # Examples
///
/// ```
/// use osn_graph::io::read_edge_list;
///
/// let data = "# comment\n10 20\n20 30\n30 10\n10 10\n";
/// let lg = read_edge_list(data.as_bytes())?;
/// assert_eq!(lg.graph.node_count(), 3);
/// assert_eq!(lg.graph.edge_count(), 3); // self-loop dropped
/// assert_eq!(lg.labels, vec![10, 20, 30]);
/// # Ok::<(), osn_graph::IoError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<LabeledGraph, IoError> {
    read_edge_list_with(reader, &EdgeListOptions::default())
}

/// Reads a whitespace-separated edge list under explicit bounds and
/// policies.
///
/// The parse is streaming: one capped line buffer is reused, so memory
/// is `O(nodes + edges)` regardless of how the input is malformed.
///
/// # Errors
///
/// * [`IoError::Parse`] — a non-comment line is not two integers.
/// * [`IoError::InvalidUtf8`] — a line holds invalid UTF-8.
/// * [`IoError::LineTooLong`] — a line exceeds `max_line_len` bytes.
/// * [`IoError::LimitExceeded`] — more distinct nodes than `max_nodes`,
///   or more accepted edges than `max_edges`.
/// * [`GraphError::TooManyNodes`] (wrapped) — more distinct labels than
///   dense `u32` ids can address.
/// * [`IoError::DuplicateEdge`] / [`IoError::SelfLoopEdge`] — under the
///   respective `Reject` policies.
/// * [`IoError::Io`] — underlying read failure.
///
/// # Examples
///
/// ```
/// use osn_graph::io::{read_edge_list_with, EdgeListOptions};
/// use osn_graph::IoError;
///
/// let opts = EdgeListOptions { max_nodes: 2, ..EdgeListOptions::default() };
/// let err = read_edge_list_with("1 2\n2 3\n".as_bytes(), &opts).unwrap_err();
/// assert!(matches!(err, IoError::LimitExceeded { what: "node", .. }));
/// ```
pub fn read_edge_list_with<R: Read>(
    reader: R,
    opts: &EdgeListOptions,
) -> Result<LabeledGraph, IoError> {
    let mut reader = BufReader::new(reader);
    let mut ids: HashMap<u64, u32> = HashMap::new();
    let mut labels: Vec<u64> = Vec::new();
    let mut raw_edges: Vec<(u32, u32)> = Vec::new();
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let reject_dups = opts.duplicates == DuplicatePolicy::Reject;
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        let too_long = || IoError::LineTooLong {
            line: lineno,
            limit: opts.max_line_len,
        };
        if !read_capped_line(&mut reader, &mut buf, opts.max_line_len, too_long)? {
            break;
        }
        let line = std::str::from_utf8(&buf).map_err(|_| IoError::InvalidUtf8 { line: lineno })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u64> { tok.and_then(|t| t.parse().ok()) };
        let (a, b) = match (parse(parts.next()), parse(parts.next())) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(IoError::Parse {
                    line: lineno,
                    content: trimmed.chars().take(80).collect(),
                })
            }
        };
        if a == b {
            match opts.self_loops {
                SelfLoopPolicy::Drop => continue,
                SelfLoopPolicy::Reject => {
                    return Err(IoError::SelfLoopEdge {
                        line: lineno,
                        node: a,
                    })
                }
            }
        }
        let da = intern_label(&mut ids, &mut labels, a, opts.max_nodes)?;
        let db = intern_label(&mut ids, &mut labels, b, opts.max_nodes)?;
        if reject_dups {
            let key = (da.min(db), da.max(db));
            if !seen.insert(key) {
                return Err(IoError::DuplicateEdge { line: lineno, a, b });
            }
        }
        if raw_edges.len() >= opts.max_edges {
            return Err(IoError::LimitExceeded {
                what: "edge",
                limit: opts.max_edges,
            });
        }
        raw_edges.push((da, db));
    }
    let mut builder = GraphBuilder::with_edge_capacity(labels.len(), raw_edges.len());
    for (a, b) in raw_edges {
        builder.add_edge(NodeId::new(a), NodeId::new(b))?;
    }
    Ok(LabeledGraph {
        graph: builder.build(),
        labels,
    })
}

/// Writes `g` as a SNAP-style edge list: one `lo hi` pair per line,
/// canonical order, preceded by a comment header.
///
/// # Errors
///
/// Returns any underlying I/O error.
///
/// # Examples
///
/// ```
/// use osn_graph::{io::{read_edge_list, write_edge_list}, GraphBuilder};
///
/// let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)])?;
/// let mut buf = Vec::new();
/// write_edge_list(&g, &mut buf)?;
/// let back = read_edge_list(&buf[..])?;
/// assert_eq!(back.graph.edge_count(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), IoError> {
    writeln!(
        writer,
        "# osn-graph edge list: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    )?;
    for e in g.edges() {
        writeln!(writer, "{} {}", e.lo(), e.hi())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_comments_blanks_and_directed_duplicates() {
        let data = "# header\n% other comment\n\n1 2\n2 1\n2 3\n";
        let lg = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(lg.graph.node_count(), 3);
        assert_eq!(lg.graph.edge_count(), 2);
    }

    #[test]
    fn compacts_sparse_ids_in_first_seen_order() {
        let data = "1000 5\n5 77\n";
        let lg = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(lg.labels, vec![1000, 5, 77]);
        assert!(lg.graph.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(lg.graph.has_edge(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn rejects_malformed_lines_with_location() {
        let data = "1 2\noops\n";
        let err = read_edge_list(data.as_bytes()).unwrap_err();
        match err {
            IoError::Parse { line, content } => {
                assert_eq!(line, 2);
                assert_eq!(content, "oops");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let g = GraphBuilder::from_edges(5, [(0u32, 3u32), (3, 4), (1, 2), (0, 1)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.graph.edge_count(), g.edge_count());
        assert_eq!(back.graph.node_count(), g.node_count());
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let lg = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(lg.graph.node_count(), 0);
        assert_eq!(lg.graph.edge_count(), 0);
    }

    #[test]
    fn self_loops_are_dropped() {
        let lg = read_edge_list("7 7\n7 8\n".as_bytes()).unwrap();
        assert_eq!(lg.graph.edge_count(), 1);
    }

    #[test]
    fn accepts_crlf_line_endings() {
        let data = "# header\r\n1 2\r\n2 3\r\n";
        let lg = read_edge_list(data.as_bytes()).unwrap();
        assert_eq!(lg.graph.node_count(), 3);
        assert_eq!(lg.graph.edge_count(), 2);
    }

    #[test]
    fn accepts_truncated_final_line() {
        let lg = read_edge_list("1 2\n2 3".as_bytes()).unwrap();
        assert_eq!(lg.graph.edge_count(), 2);
    }

    #[test]
    fn whitespace_only_lines_are_skipped() {
        let lg = read_edge_list("  \t \n1 2\n \n".as_bytes()).unwrap();
        assert_eq!(lg.graph.edge_count(), 1);
    }

    #[test]
    fn rejects_overlong_lines_without_buffering() {
        let mut data = String::from("1 2\n");
        data.push('#');
        data.push_str(&"x".repeat(10_000));
        data.push('\n');
        let opts = EdgeListOptions {
            max_line_len: 256,
            ..EdgeListOptions::default()
        };
        let err = read_edge_list_with(data.as_bytes(), &opts).unwrap_err();
        match err {
            IoError::LineTooLong { line, limit } => {
                assert_eq!(line, 2);
                assert_eq!(limit, 256);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_utf8_with_location() {
        let data: &[u8] = b"1 2\n\xff\xfe 3\n";
        let err = read_edge_list(data).unwrap_err();
        assert!(matches!(err, IoError::InvalidUtf8 { line: 2 }));
    }

    #[test]
    fn enforces_node_cap() {
        let opts = EdgeListOptions {
            max_nodes: 3,
            ..EdgeListOptions::default()
        };
        assert!(read_edge_list_with("1 2\n2 3\n".as_bytes(), &opts).is_ok());
        let err = read_edge_list_with("1 2\n3 4\n".as_bytes(), &opts).unwrap_err();
        assert!(matches!(
            err,
            IoError::LimitExceeded {
                what: "node",
                limit: 3
            }
        ));
    }

    #[test]
    fn enforces_edge_cap() {
        let opts = EdgeListOptions {
            max_edges: 2,
            ..EdgeListOptions::default()
        };
        let err = read_edge_list_with("1 2\n2 3\n3 1\n".as_bytes(), &opts).unwrap_err();
        assert!(matches!(
            err,
            IoError::LimitExceeded {
                what: "edge",
                limit: 2
            }
        ));
    }

    #[test]
    fn strict_options_reject_duplicates_and_self_loops() {
        let strict = EdgeListOptions::strict();
        let err = read_edge_list_with("1 2\n2 1\n".as_bytes(), &strict).unwrap_err();
        match err {
            IoError::DuplicateEdge { line, a, b } => {
                assert_eq!(line, 2);
                assert_eq!((a, b), (2, 1));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = read_edge_list_with("5 5\n".as_bytes(), &strict).unwrap_err();
        assert!(matches!(err, IoError::SelfLoopEdge { line: 1, node: 5 }));
    }

    #[test]
    fn duplicate_rejection_is_direction_insensitive_but_lenient_default() {
        // Default policy dedups silently, matching SNAP's directed lists.
        let lg = read_edge_list("1 2\n2 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(lg.graph.edge_count(), 1);
    }

    #[test]
    fn written_lists_pass_strict_reading() {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list_with(&buf[..], &EdgeListOptions::strict()).unwrap();
        assert_eq!(back.graph.edge_count(), 3);
    }
}
