//! The static ranking behind the centrality baselines (MaxDegree,
//! PageRank and [`CentralityPolicy`](super::CentralityPolicy)).

use osn_graph::{Graph, NodeId};

use crate::AttackerView;

/// Every node in descending score order, ties toward the lower id,
/// walked by a cursor. The order depends only on the topology, so it is
/// sorted once per instance — keyed, like ABM's initial winner tree, by
/// the instance's process-unique id, which clones share and rebuilds
/// never reuse — and [`reset`](Self::reset) only rewinds the cursor:
/// after the first episode on an instance, no episode allocates.
#[derive(Debug, Clone, Default)]
pub(super) struct StaticRanking {
    /// Instance the order was sorted for (0 = none yet; instance ids
    /// start at 1).
    instance_id: u64,
    /// Node ids, best first.
    order: Vec<NodeId>,
    /// Index into `order` of the next node to consider.
    cursor: usize,
}

impl StaticRanking {
    /// Rewinds to the top of the ranking of `view`'s instance, first
    /// sorting it by `scores` (one score per node, higher is better) if
    /// the instance is not the one last ranked.
    pub(super) fn reset(
        &mut self,
        view: &AttackerView<'_>,
        scores: impl FnOnce(&Graph) -> Vec<f64>,
    ) {
        let id = view.instance().instance_id();
        if self.instance_id != id {
            let g = view.graph();
            let scores = scores(g);
            self.order.clear();
            self.order.extend(g.nodes());
            self.order.sort_by(|&a, &b| {
                scores[b.index()]
                    .total_cmp(&scores[a.index()])
                    .then_with(|| a.cmp(&b))
            });
            self.instance_id = id;
        }
        self.cursor = 0;
    }

    /// The best-ranked node not yet requested, advancing the cursor past
    /// it and every requested node before it; `None` once the ranking is
    /// exhausted.
    pub(super) fn next(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        while let Some(&v) = self.order.get(self.cursor) {
            self.cursor += 1;
            if !view.observation().was_requested(v) {
                return Some(v);
            }
        }
        None
    }
}
