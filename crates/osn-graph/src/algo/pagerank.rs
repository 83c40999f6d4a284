//! PageRank on undirected graphs.
//!
//! The PageRank baseline in the ACCU paper picks request targets by
//! descending PageRank score. On an undirected graph each edge acts as a
//! pair of opposite directed links.

use crate::{Graph, NodeId};

/// Configuration for [`pagerank`].
///
/// # Examples
///
/// ```
/// use osn_graph::algo::PageRankConfig;
///
/// let cfg = PageRankConfig::new().damping(0.9).max_iterations(50);
/// assert_eq!(cfg.damping_factor(), 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    damping: f64,
    max_iterations: usize,
    tolerance: f64,
}

impl PageRankConfig {
    /// Creates the conventional configuration: damping 0.85, at most 100
    /// iterations, L1 tolerance `1e-10`.
    pub fn new() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-10,
        }
    }

    /// Sets the damping factor (clamped to `[0, 1]`).
    pub fn damping(mut self, d: f64) -> Self {
        self.damping = d.clamp(0.0, 1.0);
        self
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Sets the L1 convergence tolerance.
    pub fn tolerance(mut self, t: f64) -> Self {
        self.tolerance = t.max(0.0);
        self
    }

    /// Current damping factor.
    pub fn damping_factor(&self) -> f64 {
        self.damping
    }
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes PageRank scores by power iteration.
///
/// Returns one score per node, summing to 1 (for non-empty graphs).
/// Dangling (isolated) nodes redistribute their mass uniformly, the
/// standard correction.
///
/// # Examples
///
/// ```
/// use osn_graph::{algo::{pagerank, PageRankConfig}, GraphBuilder, NodeId};
///
/// // Star: the hub collects the most rank.
/// let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3)])?;
/// let pr = pagerank(&g, &PageRankConfig::new());
/// assert!(pr[0] > pr[1]);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn pagerank(g: &Graph, cfg: &PageRankConfig) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    // share[v] is what v sends along each of its edges this iteration.
    let mut share = vec![0.0f64; n];
    for _ in 0..cfg.max_iterations {
        let mut dangling_mass = 0.0;
        for v in g.nodes() {
            let d = g.degree(v);
            if d == 0 {
                dangling_mass += rank[v.index()];
            } else {
                share[v.index()] = cfg.damping * rank[v.index()] / d as f64;
            }
        }
        let base = (1.0 - cfg.damping) * uniform + cfg.damping * dangling_mass * uniform;
        // Pull: w sums its neighbours' shares over its sorted row, the
        // same additions in the same order as pushing from each v in
        // ascending id, so the scores are bit-for-bit the push result.
        // The shares hold everything the sums read, so rank is
        // overwritten in place. Rows are pulled four at a time so four
        // independent sums overlap; each keeps its own order, and delta
        // still adds the rows in node order.
        let mut delta = 0.0;
        let split = n - n % 4;
        let (quads, tail) = rank.split_at_mut(split);
        for (q, ranks) in quads.chunks_exact_mut(4).enumerate() {
            let rows = std::array::from_fn(|r| g.neighbors(NodeId::from(4 * q + r)));
            for (old, next) in ranks.iter_mut().zip(pull_four(rows, &share, base)) {
                delta += (*old - next).abs();
                *old = next;
            }
        }
        for (w, old) in (split..).zip(tail) {
            let row = g.neighbors(NodeId::from(w));
            let next = row.iter().fold(base, |sum, v| sum + share[v.index()]);
            delta += (*old - next).abs();
            *old = next;
        }
        if delta < cfg.tolerance {
            break;
        }
    }
    rank
}

/// `base` plus the shares of each row's entries, added in row order:
/// one accumulator per row, stepped together over the rows' common
/// prefix so the four addition chains overlap, then each row's tail.
#[inline]
fn pull_four(rows: [&[NodeId]; 4], share: &[f64], base: f64) -> [f64; 4] {
    let common = rows.iter().map(|row| row.len()).min().unwrap_or(0);
    let heads = rows.map(|row| &row[..common]);
    let mut acc = [base; 4];
    for i in 0..common {
        for (sum, head) in acc.iter_mut().zip(heads) {
            *sum += share[head[i].index()];
        }
    }
    for (sum, row) in acc.iter_mut().zip(rows) {
        for &v in &row[common..] {
            *sum += share[v.index()];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn scores_sum_to_one() {
        let g =
            GraphBuilder::from_edges(5, [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let pr = pagerank(&g, &PageRankConfig::new());
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
    }

    #[test]
    fn regular_graph_is_uniform() {
        // Cycle: all nodes symmetric.
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3), (3, 0)]).unwrap();
        let pr = pagerank(&g, &PageRankConfig::new());
        for &x in &pr {
            assert!((x - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn hub_dominates_star() {
        let g = GraphBuilder::from_edges(5, [(0u32, 1u32), (0, 2), (0, 3), (0, 4)]).unwrap();
        let pr = pagerank(&g, &PageRankConfig::new());
        for leaf in 1..5 {
            assert!(pr[0] > pr[leaf]);
        }
    }

    #[test]
    fn dangling_nodes_keep_total_mass() {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32)]).unwrap(); // 2, 3 isolated
        let pr = pagerank(&g, &PageRankConfig::new());
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(pr[2] > 0.0);
    }

    #[test]
    fn zero_damping_is_uniform() {
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32)]).unwrap();
        let pr = pagerank(&g, &PageRankConfig::new().damping(0.0));
        for &x in &pr {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    /// The push formulation: every node adds its share to each
    /// neighbour, in ascending node order.
    fn pagerank_by_push(g: &Graph, cfg: &PageRankConfig) -> Vec<f64> {
        let n = g.node_count();
        let uniform = 1.0 / n as f64;
        let mut rank = vec![uniform; n];
        let mut next = vec![0.0f64; n];
        for _ in 0..cfg.max_iterations {
            let mut dangling_mass = 0.0;
            for v in g.nodes() {
                if g.degree(v) == 0 {
                    dangling_mass += rank[v.index()];
                }
            }
            next.fill((1.0 - cfg.damping) * uniform + cfg.damping * dangling_mass * uniform);
            for v in g.nodes() {
                let d = g.degree(v);
                if d > 0 {
                    let share = cfg.damping * rank[v.index()] / d as f64;
                    for &w in g.neighbors(v) {
                        next[w.index()] += share;
                    }
                }
            }
            let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut rank, &mut next);
            if delta < cfg.tolerance {
                break;
            }
        }
        rank
    }

    #[test]
    fn pull_equals_push_bit_for_bit() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // A heavy-tailed graph plus isolated nodes, so dangling mass
        // is exercised too. The isolated nodes sit inside groups of
        // four rows (every 17th node from node 2) and last, and the
        // node counts leave 0 to 3 rows past the last group of four.
        let ba = crate::generators::barabasi_albert(400, 3, &mut rng).unwrap();
        for n in 420..424usize {
            let isolated: Vec<usize> = (0..n - 401).map(|k| 2 + 17 * k).chain([n - 1]).collect();
            let label: Vec<u32> = (0..n as u32)
                .filter(|p| !isolated.contains(&(*p as usize)))
                .collect();
            assert_eq!(label.len(), 400);
            let edges = ba.edges().iter().map(|e| {
                let relabel = |v: NodeId| label[v.index()];
                (relabel(e.lo()), relabel(e.hi()))
            });
            let g = GraphBuilder::from_edges(n, edges).unwrap();
            for cfg in [PageRankConfig::new(), PageRankConfig::new().damping(0.6)] {
                let pull: Vec<u64> = pagerank(&g, &cfg).iter().map(|x| x.to_bits()).collect();
                let push: Vec<u64> = pagerank_by_push(&g, &cfg)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                assert_eq!(pull, push, "{n} nodes, damping {}", cfg.damping_factor());
            }
        }
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = GraphBuilder::new(0).build();
        assert!(pagerank(&g, &PageRankConfig::new()).is_empty());
    }

    #[test]
    fn config_builder_clamps() {
        let cfg = PageRankConfig::default().damping(1.7).tolerance(-3.0);
        assert_eq!(cfg.damping_factor(), 1.0);
    }
}
