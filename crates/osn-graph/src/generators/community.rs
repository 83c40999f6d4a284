//! Planted-partition (stochastic block) community graphs.

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

use super::er::gnp_pairs;

/// Parameters for [`planted_partition`].
///
/// Nodes are split into contiguous communities; edges appear with
/// probability `p_in` inside a community and `p_out` across communities.
///
/// # Examples
///
/// ```
/// use osn_graph::generators::{planted_partition, PlantedPartition};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let params = PlantedPartition::new(vec![50, 50, 100], 0.2, 0.002)?;
/// let g = planted_partition(&params, &mut StdRng::seed_from_u64(7))?;
/// assert_eq!(g.node_count(), 200);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedPartition {
    sizes: Vec<usize>,
    p_in: f64,
    p_out: f64,
}

impl PlantedPartition {
    /// Creates validated planted-partition parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if any community is
    /// empty, or either probability is outside `[0, 1]`.
    pub fn new(sizes: Vec<usize>, p_in: f64, p_out: f64) -> Result<Self, GraphError> {
        if sizes.is_empty() || sizes.contains(&0) {
            return Err(GraphError::InvalidParameter {
                what: "community sizes",
                requirement: "must be non-empty with positive sizes",
            });
        }
        for (name, p) in [("p_in", p_in), ("p_out", p_out)] {
            if !(0.0..=1.0).contains(&p) {
                let what = if name == "p_in" { "p_in" } else { "p_out" };
                return Err(GraphError::InvalidParameter {
                    what,
                    requirement: "must be within [0, 1]",
                });
            }
        }
        Ok(PlantedPartition { sizes, p_in, p_out })
    }

    /// Community sizes, in node-id order.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Intra-community edge probability.
    pub fn p_in(&self) -> f64 {
        self.p_in
    }

    /// Inter-community edge probability.
    pub fn p_out(&self) -> f64 {
        self.p_out
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Community index of each node (contiguous blocks).
    pub fn memberships(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.node_count());
        for (c, &s) in self.sizes.iter().enumerate() {
            out.extend(std::iter::repeat_n(c, s));
        }
        out
    }
}

/// Samples a planted-partition graph.
///
/// This is the stand-in for community-structured collaboration networks
/// (the paper's DBLP dataset): dense clusters connected by a sparse
/// backbone. Mutual-friend counts are high within communities, which is
/// exactly the regime where cautious-user thresholds are reachable.
///
/// # Errors
///
/// Propagates [`GraphError`] from graph construction (parameters are
/// validated by [`PlantedPartition::new`]).
pub fn planted_partition<R: Rng + ?Sized>(
    params: &PlantedPartition,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let n = params.node_count();
    let mut b = GraphBuilder::new(n);
    // Intra-community edges: each block is a G(n_c, p_in) over its own
    // contiguous id range.
    let mut offset = 0usize;
    for &s in &params.sizes {
        gnp_pairs(s, params.p_in, rng, |v, w| {
            b.add_edge(NodeId::from(offset + v), NodeId::from(offset + w))
        })?;
        offset += s;
    }
    // Inter-community edges: the pairs of a G(n, p_out) whose endpoints
    // lie in different blocks.
    let memberships = params.memberships();
    gnp_pairs(n, params.p_out, rng, |v, w| {
        if memberships[v] == memberships[w] {
            return Ok(());
        }
        b.add_edge(NodeId::from(v), NodeId::from(w))
    })?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(PlantedPartition::new(vec![], 0.1, 0.01).is_err());
        assert!(PlantedPartition::new(vec![5, 0], 0.1, 0.01).is_err());
        assert!(PlantedPartition::new(vec![5], 1.1, 0.01).is_err());
        assert!(PlantedPartition::new(vec![5], 0.1, -0.2).is_err());
    }

    #[test]
    fn memberships_are_contiguous_blocks() {
        let p = PlantedPartition::new(vec![2, 3], 0.5, 0.0).unwrap();
        assert_eq!(p.memberships(), vec![0, 0, 1, 1, 1]);
        assert_eq!(p.node_count(), 5);
        assert_eq!(p.sizes(), &[2, 3]);
    }

    #[test]
    fn no_cross_edges_when_p_out_zero() {
        let p = PlantedPartition::new(vec![30, 30], 0.5, 0.0).unwrap();
        let g = planted_partition(&p, &mut StdRng::seed_from_u64(0)).unwrap();
        let m = p.memberships();
        for e in g.edges() {
            assert_eq!(m[e.lo().index()], m[e.hi().index()]);
        }
    }

    #[test]
    fn intra_density_exceeds_inter_density() {
        let p = PlantedPartition::new(vec![100, 100], 0.2, 0.01).unwrap();
        let g = planted_partition(&p, &mut StdRng::seed_from_u64(1)).unwrap();
        let m = p.memberships();
        let (mut intra, mut inter) = (0usize, 0usize);
        for e in g.edges() {
            if m[e.lo().index()] == m[e.hi().index()] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // Expected intra ≈ 2*C(100,2)*0.2 = 1980; inter ≈ 100*100*0.01 = 100.
        assert!(intra > 5 * inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn p_out_one_connects_all_cross_pairs() {
        let p = PlantedPartition::new(vec![3, 3], 0.0, 1.0).unwrap();
        let g = planted_partition(&p, &mut StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(g.edge_count(), 9);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = PlantedPartition::new(vec![40, 60], 0.15, 0.02).unwrap();
        let g1 = planted_partition(&p, &mut StdRng::seed_from_u64(5)).unwrap();
        let g2 = planted_partition(&p, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(g1.edges(), g2.edges());
    }
}
