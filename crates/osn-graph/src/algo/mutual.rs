//! Mutual-friend (common-neighbor) computations.
//!
//! The cautious acceptance rule `|N(v) ∩ N(s)| ≥ θ_v` makes
//! common-neighbor counting the hot operation of the ACCU simulator.
//! Neighbor lists are sorted, so intersection is a linear merge.

use crate::{Graph, NodeId};

/// Counts the common neighbors of `a` and `b` by merging their sorted
/// adjacency rows — `O(deg(a) + deg(b))`.
///
/// # Panics
///
/// Panics if either node is out of range.
///
/// # Examples
///
/// ```
/// use osn_graph::{algo::mutual_friend_count, GraphBuilder, NodeId};
///
/// // Triangle plus a pendant: 0 and 1 share neighbor 2.
/// let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (1, 2), (2, 3)])?;
/// assert_eq!(mutual_friend_count(&g, NodeId::new(0), NodeId::new(1)), 1);
/// assert_eq!(mutual_friend_count(&g, NodeId::new(0), NodeId::new(3)), 1);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn mutual_friend_count(g: &Graph, a: NodeId, b: NodeId) -> usize {
    mutual_count(g.neighbors(a), g.neighbors(b))
}

/// Counts elements common to two sorted, duplicate-free slices by a
/// linear merge, `O(|a| + |b|)`: the intersection kernel behind
/// [`mutual_friend_count`] and [`triangle_count`](crate::algo::triangle_count).
///
/// # Examples
///
/// ```
/// use osn_graph::{algo::mutual_count, NodeId};
///
/// let a: Vec<NodeId> = [1u32, 4, 9].into_iter().map(NodeId::new).collect();
/// let b: Vec<NodeId> = [0u32, 4, 5, 9, 12].into_iter().map(NodeId::new).collect();
/// assert_eq!(mutual_count(&a, &b), 2);
/// ```
pub fn mutual_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn disjoint_neighborhoods() {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (2, 3)]).unwrap();
        assert_eq!(mutual_friend_count(&g, NodeId::new(0), NodeId::new(2)), 0);
    }

    #[test]
    fn shared_hub() {
        // Both 1 and 2 attach to hubs 0 and 3.
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (3, 1), (3, 2)]).unwrap();
        assert_eq!(mutual_friend_count(&g, NodeId::new(1), NodeId::new(2)), 2);
    }

    #[test]
    fn adjacency_does_not_imply_commonality() {
        let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
        assert_eq!(mutual_friend_count(&g, NodeId::new(0), NodeId::new(1)), 0);
    }

    #[test]
    fn mutual_count_matches_naive() {
        let a: Vec<NodeId> = [1u32, 3, 5, 7, 9].into_iter().map(NodeId::new).collect();
        let b: Vec<NodeId> = [2u32, 3, 4, 7, 10].into_iter().map(NodeId::new).collect();
        assert_eq!(mutual_count(&a, &b), 2);
        assert_eq!(mutual_count(&b, &a), 2);
        assert_eq!(mutual_count(&a, &[]), 0);
        assert_eq!(mutual_count(&a, &a), a.len());
    }
}
