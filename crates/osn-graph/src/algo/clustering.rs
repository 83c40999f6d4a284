//! Clustering coefficients and triangle counting.

use crate::{Graph, NodeId};

use super::mutual::mutual_count;

/// Counts the triangles of `g`.
///
/// Iterates edges and merges the endpoints' sorted adjacency rows; each
/// triangle is seen once per edge, so the merged total is divided by 3.
///
/// # Examples
///
/// ```
/// use osn_graph::{algo::triangle_count, GraphBuilder};
///
/// let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 0), (2, 3)])?;
/// assert_eq!(triangle_count(&g), 1);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn triangle_count(g: &Graph) -> usize {
    let mut total = 0usize;
    for e in g.edges() {
        total += mutual_count(g.neighbors(e.lo()), g.neighbors(e.hi()));
    }
    total / 3
}

/// Local clustering coefficient of `v`: the fraction of pairs of
/// neighbors that are themselves adjacent. Nodes with degree < 2 have
/// coefficient 0.
///
/// # Panics
///
/// Panics if `v` is out of range.
pub fn local_clustering_coefficient(g: &Graph, v: NodeId) -> f64 {
    let d = g.degree(v);
    if d < 2 {
        return 0.0;
    }
    let neigh = g.neighbors(v);
    let mut closed = 0usize;
    for (i, &a) in neigh.iter().enumerate() {
        for &b in &neigh[i + 1..] {
            if g.has_edge(a, b) {
                closed += 1;
            }
        }
    }
    2.0 * closed as f64 / (d * (d - 1)) as f64
}

/// Global clustering coefficient (transitivity): `3·triangles / open +
/// closed triplets`. Returns 0 for graphs without any path of length 2.
///
/// # Examples
///
/// ```
/// use osn_graph::{algo::global_clustering_coefficient, GraphBuilder};
///
/// // Triangle: fully transitive.
/// let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2), (2, 0)])?;
/// assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn global_clustering_coefficient(g: &Graph) -> f64 {
    let triplets: usize = g
        .nodes()
        .map(|v| {
            let d = g.degree(v);
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if triplets == 0 {
        return 0.0;
    }
    3.0 * triangle_count(g) as f64 / triplets as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn triangle_counting_on_k4() {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            .unwrap();
        assert_eq!(triangle_count(&g), 4);
        assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn local_coefficient_cases() {
        // 0 is the apex of a triangle fan: neighbors {1, 2} adjacent.
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (1, 2), (0, 3)]).unwrap();
        // neighbors(0) = {1,2,3}; adjacent pairs among them: (1,2) only.
        assert!((local_clustering_coefficient(&g, NodeId::new(0)) - 1.0 / 3.0).abs() < 1e-12);
        // degree-1 node:
        assert_eq!(local_clustering_coefficient(&g, NodeId::new(3)), 0.0);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
    }
}
