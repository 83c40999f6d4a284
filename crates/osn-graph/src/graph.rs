//! Immutable CSR-backed undirected graph.

use std::fmt;

use crate::{Edge, NodeId};

/// Identifier of an edge in a [`Graph`].
///
/// Edge ids are dense indices `0..edge_count`, assigned in canonical
/// (sorted `(lo, hi)`) edge order. They let callers attach per-edge data
/// (e.g. existence probabilities) in flat arrays.
///
/// # Examples
///
/// ```
/// use osn_graph::{GraphBuilder, NodeId};
///
/// let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)])?;
/// let id = g.edge_id(NodeId::new(1), NodeId::new(2)).unwrap();
/// assert_eq!(g.edge(id).endpoints(), (NodeId::new(1), NodeId::new(2)));
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// Returns the id as a `usize` suitable for indexing slices.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for EdgeId {
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    fn from(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index exceeds u32::MAX"))
    }
}

impl From<EdgeId> for usize {
    #[inline]
    fn from(id: EdgeId) -> Self {
        id.index()
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An immutable undirected simple graph in compressed sparse row form.
///
/// Built via [`GraphBuilder`](crate::GraphBuilder). Per node, neighbors
/// are stored sorted, which makes adjacency queries `O(log deg)` and
/// mutual-friend counting a linear merge. Every edge also carries a dense
/// [`EdgeId`] so per-edge attributes (the ACCU link-existence
/// probabilities) can live in flat `Vec`s owned by the caller.
///
/// # Examples
///
/// ```
/// use osn_graph::{GraphBuilder, NodeId};
///
/// let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (2, 3)])?;
/// assert_eq!(g.degree(NodeId::new(0)), 2);
/// assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
/// assert!(!g.has_edge(NodeId::new(1), NodeId::new(3)));
/// let neigh: Vec<_> = g.neighbors(NodeId::new(0)).to_vec();
/// assert_eq!(neigh, vec![NodeId::new(1), NodeId::new(2)]);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets; length `node_count + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists; length `2 * edge_count`.
    targets: Vec<NodeId>,
    /// Edge id parallel to `targets`.
    target_edges: Vec<EdgeId>,
    /// Canonical edge list sorted by `(lo, hi)`; index = `EdgeId`.
    edges: Vec<Edge>,
}

impl Graph {
    /// Builds from an already sorted, deduplicated, validated edge list.
    ///
    /// Callers outside the crate should use
    /// [`GraphBuilder`](crate::GraphBuilder) instead.
    pub(crate) fn from_sorted_dedup_edges(node_count: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be sorted+dedup"
        );
        let mut deg = vec![0usize; node_count];
        for e in &edges {
            deg[e.lo().index()] += 1;
            deg[e.hi().index()] += 1;
        }
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId::default(); acc];
        let mut target_edges = vec![EdgeId::default(); acc];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId::from(i);
            let (a, b) = e.endpoints();
            targets[cursor[a.index()]] = b;
            target_edges[cursor[a.index()]] = id;
            cursor[a.index()] += 1;
            targets[cursor[b.index()]] = a;
            target_edges[cursor[b.index()]] = id;
            cursor[b.index()] += 1;
        }
        // Rows come out sorted: in `(lo, hi)` order a node first receives
        // its lower neighbours (as `hi`, in ascending `lo`), then its upper
        // neighbours (as `lo`, in ascending `hi`).
        debug_assert!(
            (0..node_count).all(|v| targets[offsets[v]..offsets[v + 1]].is_sorted()),
            "canonical edge order yields sorted rows"
        );
        Graph {
            offsets,
            targets,
            target_edges,
            edges,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node ids `0..node_count`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// The canonical sorted edge list; `edges()[id.index()] == edge(id)`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (s, e) = self.row(v);
        &self.targets[s..e]
    }

    /// Sorted neighbors of `v` paired with the connecting edge ids.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbor_entries(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let (s, e) = self.row(v);
        self.targets[s..e]
            .iter()
            .copied()
            .zip(self.target_edges[s..e].iter().copied())
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let (s, e) = self.row(v);
        e - s
    }

    /// Returns `true` if the edge `(a, b)` exists.
    ///
    /// Runs in `O(log min(deg(a), deg(b)))`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_id(a, b).is_some()
    }

    /// Returns the id of the edge `(a, b)` if it exists.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn edge_id(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a == b {
            return None;
        }
        // Search in the smaller adjacency row.
        let (v, w) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let (s, e) = self.row(v);
        let row = &self.targets[s..e];
        row.binary_search(&w).ok().map(|i| self.target_edges[s + i])
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    #[inline]
    fn row(&self, v: NodeId) -> (usize, usize) {
        (self.offsets[v.index()], self.offsets[v.index() + 1])
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> Graph {
        GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn csr_layout_matches_edges() {
        let g = path4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(
            g.neighbors(NodeId::new(1)),
            &[NodeId::new(0), NodeId::new(2)]
        );
        assert_eq!(
            g.neighbors(NodeId::new(2)),
            &[NodeId::new(1), NodeId::new(3)]
        );
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edge_ids_are_canonical_order() {
        let g = path4();
        for (i, e) in g.edges().iter().enumerate() {
            let id = g.edge_id(e.lo(), e.hi()).unwrap();
            assert_eq!(id.index(), i);
            assert_eq!(g.edge(id), *e);
        }
    }

    #[test]
    fn edge_id_is_symmetric_and_absent_for_non_edges() {
        let g = path4();
        assert_eq!(
            g.edge_id(NodeId::new(0), NodeId::new(1)),
            g.edge_id(NodeId::new(1), NodeId::new(0))
        );
        assert_eq!(g.edge_id(NodeId::new(0), NodeId::new(3)), None);
        assert_eq!(g.edge_id(NodeId::new(2), NodeId::new(2)), None);
    }

    #[test]
    fn neighbor_entries_pair_targets_with_edges() {
        let g = path4();
        for v in g.nodes() {
            for (w, id) in g.neighbor_entries(v) {
                assert!(g.edge(id).touches(v));
                assert_eq!(g.edge(id).other(v), Some(w));
            }
        }
    }

    #[test]
    fn neighbors_are_sorted_in_star_graph() {
        // Star with center 5 inserted in scrambled order: the builder's
        // canonical order alone must sort the row.
        let g =
            GraphBuilder::from_edges(6, [(5u32, 3u32), (5, 0), (5, 4), (5, 1), (5, 2)]).unwrap();
        let n: Vec<u32> = g
            .neighbors(NodeId::new(5))
            .iter()
            .map(|v| v.as_u32())
            .collect();
        assert_eq!(n, vec![0, 1, 2, 3, 4]);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(NodeId::new(1)), 0);
        assert!(g.neighbors(NodeId::new(2)).is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn nodes_iterator_is_exact() {
        let g = path4();
        let ids: Vec<NodeId> = g.nodes().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[3], NodeId::new(3));
    }

    #[test]
    fn debug_shows_counts() {
        let g = path4();
        let s = format!("{g:?}");
        assert!(s.contains("nodes: 4") && s.contains("edges: 3"));
    }
}
