//! Power-law configuration model.

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Samples a power-law degree sequence with exponent `gamma` truncated to
/// `[min_deg, max_deg]`, adjusted to have an even sum.
///
/// Degrees are drawn by inverse-transform sampling from the discrete
/// distribution `P(d) ∝ d^(−gamma)` on `min_deg..=max_deg`. If the sum is
/// odd, one degree is incremented (or decremented at the cap) to make the
/// stub count even, as the configuration model requires.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `min_deg == 0`,
/// `min_deg > max_deg`, or `gamma <= 0`.
///
/// # Examples
///
/// ```
/// use osn_graph::generators::powerlaw_degree_sequence;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let degs = powerlaw_degree_sequence(1_000, 2.5, 2, 100, &mut rng)?;
/// assert_eq!(degs.len(), 1_000);
/// assert_eq!(degs.iter().sum::<usize>() % 2, 0);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn powerlaw_degree_sequence<R: Rng + ?Sized>(
    n: usize,
    gamma: f64,
    min_deg: usize,
    max_deg: usize,
    rng: &mut R,
) -> Result<Vec<usize>, GraphError> {
    if min_deg == 0 || min_deg > max_deg {
        return Err(GraphError::InvalidParameter {
            what: "degree bounds",
            requirement: "need 1 <= min_deg <= max_deg",
        });
    }
    if !gamma.is_finite() || gamma <= 0.0 {
        return Err(GraphError::InvalidParameter {
            what: "power-law exponent gamma",
            requirement: "must be positive and finite",
        });
    }
    // Cumulative weights of d^(-gamma) over the truncated support.
    let mut cum = Vec::with_capacity(max_deg - min_deg + 1);
    let mut acc = 0.0f64;
    for d in min_deg..=max_deg {
        acc += (d as f64).powf(-gamma);
        cum.push(acc);
    }
    let total = acc;
    let mut degs = Vec::with_capacity(n);
    for _ in 0..n {
        let r = rng.gen_range(0.0..total);
        let i = cum.partition_point(|&c| c < r);
        degs.push(min_deg + i.min(max_deg - min_deg));
    }
    if degs.iter().sum::<usize>() % 2 == 1 {
        // Repair parity without leaving the [min_deg, max_deg] band.
        if let Some(d) = degs.iter_mut().find(|d| **d < max_deg) {
            *d += 1;
        } else {
            degs[0] -= 1; // all at cap; min_deg<=cap-? safe since cap>=1
        }
    }
    Ok(degs)
}

/// Samples a simple graph whose degree sequence approximately follows a
/// truncated power law, via the erased configuration model.
///
/// Stubs are shuffled and paired; self-loops and duplicate edges are
/// erased (dropped), so realized degrees can fall slightly below their
/// targets — the standard "erased" variant, which keeps the graph simple
/// as required by the OSN model.
///
/// This is the stand-in for collaboration networks like DBLP where degree
/// is heavy-tailed but hubs are weaker than in preferential-attachment
/// social graphs.
///
/// # Errors
///
/// Propagates parameter errors from [`powerlaw_degree_sequence`].
///
/// # Examples
///
/// ```
/// use osn_graph::generators::powerlaw_configuration;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let g = powerlaw_configuration(500, 2.3, 2, 50, &mut rng)?;
/// assert_eq!(g.node_count(), 500);
/// assert!(g.edge_count() > 400);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn powerlaw_configuration<R: Rng + ?Sized>(
    n: usize,
    gamma: f64,
    min_deg: usize,
    max_deg: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let degs = powerlaw_degree_sequence(n, gamma, min_deg, max_deg.min(n.saturating_sub(1)), rng)?;
    configuration_from_degrees(&degs, rng)
}

/// Pairs stubs of the given degree sequence, erasing self-loops and
/// duplicates (erased configuration model).
fn configuration_from_degrees<R: Rng + ?Sized>(
    degs: &[usize],
    rng: &mut R,
) -> Result<Graph, GraphError> {
    super::check_node_count(degs.len())?;
    let stub_count: u128 = degs.iter().map(|&d| d as u128).sum();
    super::check_edge_count(stub_count / 2)?;
    let mut stubs: Vec<u32> = Vec::with_capacity(degs.iter().sum());
    for (v, &d) in degs.iter().enumerate() {
        // Exact narrowing: v < degs.len() ≤ u32::MAX, checked above.
        for _ in 0..d {
            stubs.push(v as u32);
        }
    }
    // Fisher–Yates shuffle, then pair consecutive stubs.
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    let mut b = GraphBuilder::with_edge_capacity(degs.len(), stubs.len() / 2);
    for pair in stubs.chunks_exact(2) {
        let (a, c) = (pair[0], pair[1]);
        if a != c {
            // `build` keeps one copy of a duplicate: both erasures are silent.
            b.add_edge(NodeId::new(a), NodeId::new(c))?;
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequence_respects_bounds_and_parity() {
        let mut rng = StdRng::seed_from_u64(0);
        let degs = powerlaw_degree_sequence(500, 2.1, 3, 40, &mut rng).unwrap();
        assert!(degs.iter().all(|&d| (3..=41).contains(&d)));
        assert_eq!(degs.iter().sum::<usize>() % 2, 0);
    }

    #[test]
    fn sequence_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(powerlaw_degree_sequence(10, 2.0, 0, 5, &mut rng).is_err());
        assert!(powerlaw_degree_sequence(10, 2.0, 6, 5, &mut rng).is_err());
        assert!(powerlaw_degree_sequence(10, -1.0, 1, 5, &mut rng).is_err());
        assert!(powerlaw_degree_sequence(10, f64::NAN, 1, 5, &mut rng).is_err());
    }

    #[test]
    fn smaller_gamma_means_heavier_tail() {
        let d_heavy =
            powerlaw_degree_sequence(2_000, 1.8, 2, 200, &mut StdRng::seed_from_u64(1)).unwrap();
        let d_light =
            powerlaw_degree_sequence(2_000, 3.5, 2, 200, &mut StdRng::seed_from_u64(1)).unwrap();
        let mean = |d: &[usize]| d.iter().sum::<usize>() as f64 / d.len() as f64;
        assert!(mean(&d_heavy) > mean(&d_light));
    }

    #[test]
    fn graph_degrees_do_not_exceed_targets() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = powerlaw_configuration(400, 2.5, 2, 30, &mut rng).unwrap();
        // Erasure only removes stubs, never adds.
        for v in g.nodes() {
            assert!(g.degree(v) <= 31);
        }
    }

    #[test]
    fn erasure_loses_few_edges_for_sparse_sequences() {
        let mut rng = StdRng::seed_from_u64(3);
        let degs = powerlaw_degree_sequence(1_000, 2.5, 2, 50, &mut rng).unwrap();
        let target_edges = degs.iter().sum::<usize>() / 2;
        let g = configuration_from_degrees(&degs, &mut rng).unwrap();
        assert!(
            g.edge_count() as f64 > 0.9 * target_edges as f64,
            "erased too many: {} of {target_edges}",
            g.edge_count()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g1 = powerlaw_configuration(300, 2.2, 2, 40, &mut StdRng::seed_from_u64(9)).unwrap();
        let g2 = powerlaw_configuration(300, 2.2, 2, 40, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(g1.edges(), g2.edges());
    }
}
