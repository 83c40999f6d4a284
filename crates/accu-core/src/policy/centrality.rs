//! Centrality-ranked baselines beyond MaxDegree/PageRank.
//!
//! These extend the paper's baseline lineup with the other classic
//! static-centrality orderings; like MaxDegree and PageRank they use
//! global topology knowledge, computed and sorted once per instance.

use osn_graph::algo::{betweenness_centrality, closeness_centrality, eigenvector_centrality};
use osn_graph::NodeId;

use super::ranking::StaticRanking;
use crate::{AttackerView, Policy};

/// Which centrality measure ranks the targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CentralityKind {
    /// Brandes betweenness: brokers between communities.
    Betweenness,
    /// Harmonic-style closeness (Wasserman–Faust corrected).
    Closeness,
    /// Principal-eigenvector centrality.
    Eigenvector,
}

impl CentralityKind {
    /// Display name used in experiment legends.
    pub fn name(&self) -> &'static str {
        match self {
            CentralityKind::Betweenness => "Betweenness",
            CentralityKind::Closeness => "Closeness",
            CentralityKind::Eigenvector => "Eigenvector",
        }
    }
}

/// Baseline policy: request users in descending order of a static
/// centrality score.
///
/// # Examples
///
/// ```
/// use accu_core::policy::{CentralityKind, CentralityPolicy, Policy};
///
/// let p = CentralityPolicy::new(CentralityKind::Betweenness);
/// assert_eq!(p.name(), "Betweenness");
/// ```
#[derive(Debug, Clone)]
pub struct CentralityPolicy {
    kind: CentralityKind,
    ranking: StaticRanking,
}

impl CentralityPolicy {
    /// Creates a centrality-ranked baseline.
    pub fn new(kind: CentralityKind) -> Self {
        CentralityPolicy {
            kind,
            ranking: StaticRanking::default(),
        }
    }

    /// The configured centrality measure.
    pub fn kind(&self) -> CentralityKind {
        self.kind
    }
}

impl Policy for CentralityPolicy {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn reset(&mut self, view: &AttackerView<'_>) {
        let kind = self.kind;
        self.ranking.reset(view, |g| match kind {
            CentralityKind::Betweenness => betweenness_centrality(g),
            CentralityKind::Closeness => closeness_centrality(g),
            CentralityKind::Eigenvector => eigenvector_centrality(g, 100, 1e-10),
        });
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        self.ranking.next(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_attack, AccuInstance, AccuInstanceBuilder, Realization};
    use osn_graph::GraphBuilder;

    /// Barbell: two triangles bridged through node 2 — 2 has the top
    /// betweenness but not the top degree.
    fn barbell() -> AccuInstance {
        let g = GraphBuilder::from_edges(5, [(0u32, 1u32), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)])
            .unwrap();
        AccuInstanceBuilder::new(g).build().unwrap()
    }

    fn full(inst: &AccuInstance) -> Realization {
        Realization::from_parts(
            inst,
            vec![true; inst.graph().edge_count()],
            vec![true; inst.node_count()],
        )
        .unwrap()
    }

    #[test]
    fn betweenness_picks_the_bridge_first() {
        let inst = barbell();
        let real = full(&inst);
        let mut p = CentralityPolicy::new(CentralityKind::Betweenness);
        let out = run_attack(&inst, &real, &mut p, 1);
        assert_eq!(out.trace[0].target, NodeId::new(2));
    }

    #[test]
    fn closeness_prefers_the_center() {
        let g = GraphBuilder::from_edges(5, [(0u32, 1u32), (1, 2), (2, 3), (3, 4)]).unwrap();
        let inst = AccuInstanceBuilder::new(g).build().unwrap();
        let real = full(&inst);
        let mut p = CentralityPolicy::new(CentralityKind::Closeness);
        let out = run_attack(&inst, &real, &mut p, 1);
        assert_eq!(out.trace[0].target, NodeId::new(2));
    }

    #[test]
    fn eigenvector_covers_all_without_repeats() {
        let inst = barbell();
        let real = full(&inst);
        let mut p = CentralityPolicy::new(CentralityKind::Eigenvector);
        let out = run_attack(&inst, &real, &mut p, 10);
        assert_eq!(out.trace.len(), 5);
        let mut t: Vec<_> = out.trace.iter().map(|r| r.target).collect();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn names_are_distinct() {
        let kinds = [
            CentralityKind::Betweenness,
            CentralityKind::Closeness,
            CentralityKind::Eigenvector,
        ];
        let names: std::collections::HashSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 3);
        assert_eq!(CentralityPolicy::new(kinds[0]).kind(), kinds[0]);
    }
}
