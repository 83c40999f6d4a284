//! Plain-text serialization of ACCU instances and attack traces.
//!
//! Instances round-trip through a line-based format (no external
//! dependencies), so a sampled experiment network can be archived and
//! re-analyzed exactly; attack traces export as CSV for plotting.
//!
//! ```text
//! # accu instance v1
//! nodes 4
//! edge 0 1 0.5            # lo hi probability
//! user 0 reckless 0.7 2 1 # id class params... B_f B_fof
//! user 1 cautious 2 50 1
//! user 2 hesitant 0.1 0.9 2 50 1
//! user 3 linear 0.1 0.05 2 1
//! ```

use std::collections::HashSet;
use std::error::Error as StdError;
use std::fmt;
use std::io::{BufReader, Read, Write};

use osn_graph::io::read_capped_line;
use osn_graph::{GraphBuilder, NodeId};

use crate::{AccuError, AccuInstance, AccuInstanceBuilder, AttackOutcome, UserClass};

/// Errors produced while reading or writing instance files.
#[derive(Debug)]
#[non_exhaustive]
pub enum InstanceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The parsed data violated an instance invariant.
    Invalid(AccuError),
    /// The parsed data violated a graph invariant.
    Graph(osn_graph::GraphError),
    /// A line exceeded the configured maximum length.
    LineTooLong {
        /// 1-based line number.
        line: usize,
        /// The configured byte limit.
        limit: usize,
    },
    /// The file declared or accumulated more nodes/edges than the
    /// configured cap.
    LimitExceeded {
        /// Which limit, e.g. `"node"` or `"edge"`.
        what: &'static str,
        /// The configured cap.
        limit: usize,
    },
    /// The same edge appeared on two lines; instance files written by
    /// [`write_instance`] never contain duplicates, so a repeat means
    /// corruption (the probabilities could disagree silently).
    DuplicateEdge {
        /// 1-based line number of the second occurrence.
        line: usize,
    },
}

impl fmt::Display for InstanceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceIoError::Io(e) => write!(f, "i/o error: {e}"),
            InstanceIoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            InstanceIoError::Invalid(e) => write!(f, "invalid instance: {e}"),
            InstanceIoError::Graph(e) => write!(f, "invalid graph: {e}"),
            InstanceIoError::LineTooLong { line, limit } => {
                write!(f, "line {line}: longer than the {limit}-byte limit")
            }
            InstanceIoError::LimitExceeded { what, limit } => {
                write!(f, "instance exceeds the {limit}-{what} limit")
            }
            InstanceIoError::DuplicateEdge { line } => {
                write!(f, "line {line}: duplicate edge")
            }
        }
    }
}

impl StdError for InstanceIoError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            InstanceIoError::Io(e) => Some(e),
            InstanceIoError::Invalid(e) => Some(e),
            InstanceIoError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for InstanceIoError {
    fn from(e: std::io::Error) -> Self {
        InstanceIoError::Io(e)
    }
}

impl From<AccuError> for InstanceIoError {
    fn from(e: AccuError) -> Self {
        InstanceIoError::Invalid(e)
    }
}

impl From<osn_graph::GraphError> for InstanceIoError {
    fn from(e: osn_graph::GraphError) -> Self {
        InstanceIoError::Graph(e)
    }
}

/// Writes `instance` in the v1 text format.
///
/// # Errors
///
/// Returns any underlying I/O error.
///
/// # Examples
///
/// ```
/// use accu_core::io::{read_instance, write_instance};
/// use accu_core::AccuInstanceBuilder;
/// use osn_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g).uniform_edge_probability(0.5).build()?;
/// let mut buf = Vec::new();
/// write_instance(&inst, &mut buf)?;
/// let back = read_instance(&buf[..])?;
/// assert_eq!(back.node_count(), 2);
/// assert_eq!(back.edge_probability(osn_graph::EdgeId::new(0)), 0.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_instance<W: Write>(
    instance: &AccuInstance,
    mut writer: W,
) -> Result<(), InstanceIoError> {
    let g = instance.graph();
    writeln!(writer, "# accu instance v1")?;
    writeln!(writer, "nodes {}", g.node_count())?;
    for (i, e) in g.edges().iter().enumerate() {
        writeln!(
            writer,
            "edge {} {} {}",
            e.lo(),
            e.hi(),
            instance.edge_probability(osn_graph::EdgeId::from(i))
        )?;
    }
    for i in 0..g.node_count() {
        let v = NodeId::from(i);
        let b = instance.benefits();
        match instance.user_class(v) {
            UserClass::Reckless { acceptance } => writeln!(
                writer,
                "user {i} reckless {acceptance} {} {}",
                b.friend(v),
                b.friend_of_friend(v)
            )?,
            UserClass::Cautious { threshold } => writeln!(
                writer,
                "user {i} cautious {threshold} {} {}",
                b.friend(v),
                b.friend_of_friend(v)
            )?,
            UserClass::Hesitant {
                below,
                at_or_above,
                threshold,
            } => writeln!(
                writer,
                "user {i} hesitant {below} {at_or_above} {threshold} {} {}",
                b.friend(v),
                b.friend_of_friend(v)
            )?,
            UserClass::MutualLinear { base, slope } => writeln!(
                writer,
                "user {i} linear {base} {slope} {} {}",
                b.friend(v),
                b.friend_of_friend(v)
            )?,
        }
    }
    Ok(())
}

/// Bounds for [`read_instance_with`].
///
/// The defaults are generous enough for every experiment network but
/// still bound memory against hostile or corrupt inputs: the `nodes`
/// directive preallocates graph storage, so it must not be trusted
/// unchecked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceReadOptions {
    /// Maximum node count a file may declare.
    pub max_nodes: usize,
    /// Maximum number of `edge` lines accepted.
    pub max_edges: usize,
    /// Maximum line length in bytes, excluding the terminator.
    pub max_line_len: usize,
}

impl Default for InstanceReadOptions {
    fn default() -> Self {
        InstanceReadOptions {
            max_nodes: 1 << 24,
            max_edges: 1 << 26,
            max_line_len: 4096,
        }
    }
}

/// Converts a parsed numeric field into a `u32` threshold, rejecting
/// fractional, negative, non-finite, or overflowing values instead of
/// silently truncating them through `as`.
fn theta_field(x: f64, lineno: usize) -> Result<u32, InstanceIoError> {
    if x.is_finite() && (0.0..=u32::MAX as f64).contains(&x) && x.fract() == 0.0 {
        Ok(x as u32)
    } else {
        Err(InstanceIoError::Parse {
            line: lineno,
            message: format!("threshold {x} is not a non-negative integer"),
        })
    }
}

/// Reads an instance written by [`write_instance`] with default
/// [`InstanceReadOptions`].
///
/// # Errors
///
/// Returns [`InstanceIoError`] on malformed input or violated instance
/// invariants.
pub fn read_instance<R: Read>(reader: R) -> Result<AccuInstance, InstanceIoError> {
    read_instance_with(reader, &InstanceReadOptions::default())
}

/// Reads an instance under explicit bounds.
///
/// The parse is streaming and never trusts declared sizes: node and
/// edge counts are checked against `opts` before any proportional
/// allocation, thresholds and node ids reject lossy conversions, CRLF
/// endings are accepted, and duplicate `edge` lines are rejected
/// (their probabilities could disagree silently).
///
/// # Errors
///
/// Returns [`InstanceIoError`] on malformed input, exceeded bounds, or
/// violated instance invariants.
pub fn read_instance_with<R: Read>(
    reader: R,
    opts: &InstanceReadOptions,
) -> Result<AccuInstance, InstanceIoError> {
    let mut reader = BufReader::new(reader);
    let mut node_count: Option<usize> = None;
    let mut edges: Vec<(u32, u32, f64)> = Vec::new();
    let mut users: Vec<(usize, UserClass, f64, f64)> = Vec::new();
    let mut seen_edges: HashSet<(u32, u32)> = HashSet::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        let too_long = || InstanceIoError::LineTooLong {
            line: lineno,
            limit: opts.max_line_len,
        };
        if !read_capped_line(&mut reader, &mut buf, opts.max_line_len, too_long)? {
            break;
        }
        let line = std::str::from_utf8(&buf).map_err(|_| InstanceIoError::Parse {
            line: lineno,
            message: "not valid UTF-8".into(),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let err = |message: String| InstanceIoError::Parse {
            line: lineno,
            message,
        };
        let mut tok = trimmed.split_whitespace();
        match tok.next() {
            Some("nodes") => {
                let n: usize = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("nodes expects a count".into()))?;
                if n > opts.max_nodes {
                    return Err(InstanceIoError::LimitExceeded {
                        what: "node",
                        limit: opts.max_nodes,
                    });
                }
                node_count = Some(n);
            }
            Some("edge") => {
                let lo: u32 = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("edge expects lo id".into()))?;
                let hi: u32 = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("edge expects hi id".into()))?;
                let p: f64 = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("edge expects a probability".into()))?;
                if edges.len() >= opts.max_edges {
                    return Err(InstanceIoError::LimitExceeded {
                        what: "edge",
                        limit: opts.max_edges,
                    });
                }
                if !seen_edges.insert((lo.min(hi), lo.max(hi))) {
                    return Err(InstanceIoError::DuplicateEdge { line: lineno });
                }
                edges.push((lo, hi, p));
            }
            Some("user") => {
                let id: usize = tok
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err("user expects an id".into()))?;
                let class_tok = tok
                    .next()
                    .ok_or_else(|| err("user expects a class".into()))?;
                let fields: Vec<f64> = tok
                    .map(|t| t.parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err("user expects numeric fields".into()))?;
                let (class, bf, bfof) = match (class_tok, fields.as_slice()) {
                    ("reckless", [q, bf, bfof]) => (UserClass::reckless(*q), *bf, *bfof),
                    ("cautious", [theta, bf, bfof]) => (
                        UserClass::cautious(theta_field(*theta, lineno)?),
                        *bf,
                        *bfof,
                    ),
                    ("hesitant", [q1, q2, theta, bf, bfof]) => (
                        UserClass::hesitant(*q1, *q2, theta_field(*theta, lineno)?),
                        *bf,
                        *bfof,
                    ),
                    ("linear", [base, slope, bf, bfof]) => {
                        (UserClass::mutual_linear(*base, *slope), *bf, *bfof)
                    }
                    _ => return Err(err(format!("bad user line for class {class_tok:?}"))),
                };
                users.push((id, class, bf, bfof));
            }
            Some(other) => return Err(err(format!("unknown directive {other:?}"))),
            None => {}
        }
    }
    let n = node_count.ok_or(InstanceIoError::Parse {
        line: 0,
        message: "missing `nodes` directive".into(),
    })?;
    let mut gb = GraphBuilder::with_edge_capacity(n, edges.len());
    for &(lo, hi, _) in &edges {
        gb.add_edge(NodeId::new(lo), NodeId::new(hi))?;
    }
    let graph = gb.build();
    // Map probabilities through the canonical edge ids.
    let mut probs = vec![1.0f64; graph.edge_count()];
    for &(lo, hi, p) in &edges {
        let id = graph
            .edge_id(NodeId::new(lo), NodeId::new(hi))
            .ok_or_else(|| InstanceIoError::Parse {
                line: 0,
                message: "internal: edge id lookup failed after insertion".into(),
            })?;
        probs[id.index()] = p;
    }
    let mut builder = AccuInstanceBuilder::new(graph).edge_probabilities(probs);
    for (id, class, bf, bfof) in users {
        if id >= n {
            // The id may not even fit in a NodeId, so it must not flow
            // through the panicking usize conversion while we build the
            // error for it.
            return Err(match u32::try_from(id) {
                Ok(node) => InstanceIoError::Invalid(AccuError::NodeOutOfRange {
                    node: NodeId::new(node),
                    node_count: n,
                }),
                Err(_) => InstanceIoError::Parse {
                    line: 0,
                    message: format!("user id {id} does not fit in a node id"),
                },
            });
        }
        builder = builder
            .user_class(NodeId::from(id), class)
            .benefits(NodeId::from(id), bf, bfof);
    }
    Ok(builder.build()?)
}

/// Writes an attack trace as CSV
/// (`step,target,cautious,accepted,gain_cautious,gain_reckless,cumulative`).
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_trace_csv<W: Write>(
    outcome: &AttackOutcome,
    mut writer: W,
) -> Result<(), InstanceIoError> {
    writeln!(
        writer,
        "step,target,cautious,accepted,gain_cautious,gain_reckless,cumulative"
    )?;
    for r in &outcome.trace {
        writeln!(
            writer,
            "{},{},{},{},{},{},{}",
            r.step,
            r.target,
            r.cautious,
            r.accepted,
            r.gain.from_cautious,
            r.gain.from_reckless,
            r.cumulative_benefit
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Abm, AbmWeights};
    use crate::{run_attack, Realization};
    use osn_graph::EdgeId;

    fn mixed_instance() -> AccuInstance {
        let g = osn_graph::GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (1, 3)]).unwrap();
        AccuInstanceBuilder::new(g)
            .edge_probabilities(vec![0.25, 0.5, 1.0])
            .user_class(NodeId::new(0), UserClass::reckless(0.75))
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .user_class(NodeId::new(3), UserClass::hesitant(0.1, 0.9, 2))
            .benefits(NodeId::new(2), 50.0, 1.0)
            .benefits(NodeId::new(3), 25.0, 0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn instance_round_trips_exactly() {
        let inst = mixed_instance();
        let mut buf = Vec::new();
        write_instance(&inst, &mut buf).unwrap();
        let back = read_instance(&buf[..]).unwrap();
        assert_eq!(back.node_count(), inst.node_count());
        assert_eq!(back.graph().edges(), inst.graph().edges());
        for i in 0..inst.graph().edge_count() {
            assert_eq!(
                back.edge_probability(EdgeId::from(i)),
                inst.edge_probability(EdgeId::from(i))
            );
        }
        for i in 0..inst.node_count() {
            let v = NodeId::from(i);
            assert_eq!(back.user_class(v), inst.user_class(v));
            assert_eq!(back.benefits().friend(v), inst.benefits().friend(v));
            assert_eq!(
                back.benefits().friend_of_friend(v),
                inst.benefits().friend_of_friend(v)
            );
        }
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = read_instance("nodes 2\nedge 0 oops\n".as_bytes()).unwrap_err();
        match err {
            InstanceIoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        let err = read_instance("edge 0 1 0.5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("nodes"));
        let err = read_instance("nodes 1\nbogus\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn out_of_range_users_are_rejected() {
        let err = read_instance("nodes 1\nuser 5 reckless 0.5 2 1\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            InstanceIoError::Invalid(AccuError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn invalid_probabilities_surface_as_instance_errors() {
        let err = read_instance("nodes 1\nuser 0 reckless 1.5 2 1\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            InstanceIoError::Invalid(AccuError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn trace_csv_has_one_row_per_request() {
        let inst = mixed_instance();
        let real = Realization::from_parts(&inst, vec![true; 3], vec![true; 4]).unwrap();
        let mut abm = Abm::new(AbmWeights::balanced());
        let out = run_attack(&inst, &real, &mut abm, 3);
        let mut buf = Vec::new();
        write_trace_csv(&out, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + out.trace.len());
        assert!(text.starts_with("step,target"));
    }

    #[test]
    fn errors_are_send_sync_error() {
        fn assert_err<T: StdError + Send + Sync>() {}
        assert_err::<InstanceIoError>();
    }

    #[test]
    fn duplicate_edge_lines_are_rejected() {
        let data = "nodes 3\nedge 0 1 0.5\nedge 1 0 0.9\n";
        let err = read_instance(data.as_bytes()).unwrap_err();
        assert!(matches!(err, InstanceIoError::DuplicateEdge { line: 3 }));
    }

    #[test]
    fn declared_node_count_is_capped() {
        let opts = InstanceReadOptions {
            max_nodes: 10,
            ..InstanceReadOptions::default()
        };
        let err = read_instance_with("nodes 11\n".as_bytes(), &opts).unwrap_err();
        assert!(matches!(
            err,
            InstanceIoError::LimitExceeded {
                what: "node",
                limit: 10
            }
        ));
        assert!(read_instance_with("nodes 10\n".as_bytes(), &opts).is_ok());
    }

    #[test]
    fn edge_lines_are_capped() {
        let opts = InstanceReadOptions {
            max_edges: 1,
            ..InstanceReadOptions::default()
        };
        let data = "nodes 3\nedge 0 1 1\nedge 1 2 1\n";
        let err = read_instance_with(data.as_bytes(), &opts).unwrap_err();
        assert!(matches!(
            err,
            InstanceIoError::LimitExceeded { what: "edge", .. }
        ));
    }

    #[test]
    fn overlong_lines_are_rejected_without_buffering() {
        let opts = InstanceReadOptions {
            max_line_len: 64,
            ..InstanceReadOptions::default()
        };
        let data = format!("nodes 1\n# {}\n", "x".repeat(1000));
        let err = read_instance_with(data.as_bytes(), &opts).unwrap_err();
        assert!(matches!(
            err,
            InstanceIoError::LineTooLong { line: 2, limit: 64 }
        ));
    }

    #[test]
    fn lossy_threshold_fields_are_rejected() {
        for bad in ["2.5", "-1", "NaN", "4294967296"] {
            let data = format!("nodes 1\nuser 0 cautious {bad} 2 1\n");
            let err = read_instance(data.as_bytes()).unwrap_err();
            assert!(
                matches!(err, InstanceIoError::Parse { line: 2, .. }),
                "threshold {bad} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn non_numeric_edge_ids_are_rejected() {
        // Pre-hardening these parsed as f64 and truncated through `as`.
        let err = read_instance("nodes 2\nedge 0.5 1 1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, InstanceIoError::Parse { line: 2, .. }));
    }

    #[test]
    fn crlf_and_truncated_final_line_are_accepted() {
        let data = "nodes 2\r\nedge 0 1 0.5\r\nuser 0 reckless 0.7 2 1";
        let inst = read_instance(data.as_bytes()).unwrap();
        assert_eq!(inst.node_count(), 2);
        assert_eq!(inst.acceptance_probability(NodeId::new(0)), Some(0.7));
    }

    #[test]
    fn invalid_utf8_is_a_parse_error() {
        let data: &[u8] = b"nodes 1\n\xff\xfe\n";
        let err = read_instance(data).unwrap_err();
        assert!(matches!(err, InstanceIoError::Parse { line: 2, .. }));
    }
}
