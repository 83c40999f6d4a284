//! R-MAT (recursive matrix) graphs — the generator family behind many
//! SNAP-style benchmark graphs (Graph500 uses it too).

use std::collections::HashSet;

use rand::Rng;

use crate::{Edge, Graph, GraphBuilder, GraphError, NodeId};

/// Parameters of the R-MAT recursive quadrant distribution.
///
/// The adjacency matrix is split into quadrants with probabilities
/// `(a, b, c, d)`, recursively, to place each edge. `a + b + c + d`
/// must be 1 (within tolerance); `a > d` yields skewed, heavy-tailed
/// graphs. The classic parameterization is `(0.57, 0.19, 0.19, 0.05)`.
///
/// # Examples
///
/// ```
/// use osn_graph::generators::RmatParams;
/// let p = RmatParams::new(0.57, 0.19, 0.19, 0.05)?;
/// assert!((p.a() - 0.57).abs() < 1e-12);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
}

impl RmatParams {
    /// Creates validated R-MAT quadrant probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if any probability is
    /// negative or the four do not sum to 1 (tolerance `1e-9`).
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> Result<Self, GraphError> {
        if [a, b, c, d].iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err(GraphError::InvalidParameter {
                what: "R-MAT quadrant probability",
                requirement: "each must lie in [0, 1]",
            });
        }
        if ((a + b + c + d) - 1.0).abs() > 1e-9 {
            return Err(GraphError::InvalidParameter {
                what: "R-MAT quadrant probabilities",
                requirement: "must sum to 1",
            });
        }
        Ok(RmatParams { a, b, c, d })
    }

    /// The classic skewed parameterization `(0.57, 0.19, 0.19, 0.05)`.
    pub fn classic() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }

    /// Quadrant probability `a` (top-left: hub-to-hub).
    pub fn a(&self) -> f64 {
        self.a
    }
}

/// Samples an undirected R-MAT graph with `2^scale` nodes and
/// (approximately) `edge_factor · 2^scale` distinct edges.
///
/// Edges are drawn by recursive quadrant descent; self-loops and
/// duplicates are redrawn up to a retry budget, so the realized edge
/// count can fall slightly short on dense/skewed settings.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `scale` is 0 or exceeds
/// 30.
///
/// # Examples
///
/// ```
/// use osn_graph::generators::{rmat, RmatParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let g = rmat(10, 8, RmatParams::classic(), &mut rng)?;
/// assert_eq!(g.node_count(), 1024);
/// assert!(g.edge_count() > 7_000);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn rmat<R: Rng + ?Sized>(
    scale: u32,
    edge_factor: usize,
    params: RmatParams,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if scale == 0 || scale > 30 {
        return Err(GraphError::InvalidParameter {
            what: "R-MAT scale",
            requirement: "must be in 1..=30",
        });
    }
    let n = 1usize << scale;
    let target = super::check_edge_count((edge_factor as u128) * (n as u128))?;
    let mut builder = GraphBuilder::with_edge_capacity(n, target);
    let ab = params.a + params.b;
    let a_frac = params.a / ab;
    let c_frac = params.c / (params.c + params.d);
    // The loop needs a live count of distinct edges, which the builder
    // does not keep.
    let mut seen: HashSet<Edge> = HashSet::with_capacity(target);
    let mut budget = target * 8; // retry budget for loops/duplicates
    while seen.len() < target && budget > 0 {
        budget -= 1;
        let (mut lo_u, mut lo_v) = (0usize, 0usize);
        let mut half = n >> 1;
        while half > 0 {
            let r: f64 = rng.gen();
            let (down, right) = if r < ab {
                (false, r >= a_frac * ab)
            } else {
                (true, (r - ab) >= c_frac * (1.0 - ab))
            };
            if down {
                lo_u += half;
            }
            if right {
                lo_v += half;
            }
            half >>= 1;
        }
        if lo_u != lo_v {
            let e = Edge::new(NodeId::from(lo_u), NodeId::from(lo_v));
            if seen.insert(e) {
                builder.add_edge(e.lo(), e.hi())?;
            }
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn params_validate() {
        assert!(RmatParams::new(0.5, 0.5, 0.5, 0.5).is_err());
        assert!(RmatParams::new(-0.1, 0.5, 0.3, 0.3).is_err());
        assert!(RmatParams::new(0.25, 0.25, 0.25, 0.25).is_ok());
    }

    #[test]
    fn scale_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(rmat(0, 4, RmatParams::classic(), &mut rng).is_err());
        assert!(rmat(31, 4, RmatParams::classic(), &mut rng).is_err());
    }

    #[test]
    fn node_count_is_power_of_two() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = rmat(8, 4, RmatParams::classic(), &mut rng).unwrap();
        assert_eq!(g.node_count(), 256);
        assert!(g.edge_count() > 256 * 3);
    }

    #[test]
    fn classic_parameters_are_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let skewed = rmat(10, 8, RmatParams::classic(), &mut rng).unwrap();
        let uniform = rmat(
            10,
            8,
            RmatParams::new(0.25, 0.25, 0.25, 0.25).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!(
            skewed.max_degree() > 2 * uniform.max_degree(),
            "skewed max {} vs uniform max {}",
            skewed.max_degree(),
            uniform.max_degree()
        );
    }

    #[test]
    fn huge_edge_requests_fail_with_typed_error() {
        let mut rng = StdRng::seed_from_u64(4);
        // 2³⁰ nodes × 5000 ≈ 5.4·10¹² edges: over the u32 id space.
        let err = rmat(30, 5_000, RmatParams::classic(), &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::TooManyEdges { .. }), "{err}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g1 = rmat(7, 4, RmatParams::classic(), &mut StdRng::seed_from_u64(3)).unwrap();
        let g2 = rmat(7, 4, RmatParams::classic(), &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(g1.edges(), g2.edges());
    }
}
