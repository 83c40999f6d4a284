//! Property-based tests for the graph substrate.

use std::collections::{BTreeSet, HashSet};

use osn_graph::algo::{
    bfs_distances, connected_components, degree_histogram, global_clustering_coefficient,
    mutual_friend_count, pagerank, triangle_count, PageRankConfig,
};
use osn_graph::generators::{
    barabasi_albert, community_affiliation, erdos_renyi_gnm, erdos_renyi_gnp, planted_partition,
    powerlaw_configuration, rmat, watts_strogatz, AgmParams, PlantedPartition, RmatParams,
};
use osn_graph::{Edge, Graph, GraphBuilder, GraphError, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// PageRank by pushing: every node adds its share to each neighbour,
/// nodes in ascending order, with the same dangling correction and
/// stopping rule as [`pagerank`].
fn pagerank_by_push(g: &Graph, cfg: &PageRankConfig) -> Vec<f64> {
    let (n, damping) = (g.node_count(), cfg.damping_factor());
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..100 {
        let dangling: f64 = g
            .nodes()
            .filter(|&v| g.degree(v) == 0)
            .map(|v| rank[v.index()])
            .sum();
        next.fill((1.0 - damping) * uniform + damping * dangling * uniform);
        for v in g.nodes().filter(|&v| g.degree(v) > 0) {
            let share = damping * rank[v.index()] / g.degree(v) as f64;
            for &w in g.neighbors(v) {
                next[w.index()] += share;
            }
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < 1e-10 {
            break;
        }
    }
    rank
}

/// Strategy: a random simple graph as (node count, edge pairs).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..60).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (x, y) in pairs {
                if x != y {
                    b.add_edge(NodeId::new(x), NodeId::new(y)).unwrap();
                }
            }
            b.build()
        })
    })
}

/// Every CSR row is strictly sorted and adjacency is symmetric.
fn assert_adjacency_symmetric_and_sorted(g: &Graph) {
    for v in g.nodes() {
        let neigh = g.neighbors(v);
        assert!(
            neigh.windows(2).all(|w| w[0] < w[1]),
            "row must be strictly sorted"
        );
        for &w in neigh {
            assert!(g.neighbors(w).contains(&v), "symmetry violated");
            assert!(g.has_edge(v, w) && g.has_edge(w, v));
        }
    }
}

/// Edge ids are a bijection onto the canonical edge list, and every
/// adjacency entry's id names the edge that entry stands for.
fn assert_edge_ids_are_a_bijection(g: &Graph) {
    let mut seen = HashSet::new();
    for e in g.edges() {
        let id = g.edge_id(e.lo(), e.hi()).unwrap();
        assert!(seen.insert(id), "duplicate edge id");
        assert_eq!(g.edge(id), *e);
    }
    assert_eq!(seen.len(), g.edge_count());
    for v in g.nodes() {
        for (w, id) in g.neighbor_entries(v) {
            assert_eq!(
                g.edge(id),
                Edge::new(v, w),
                "entry {v:?}→{w:?} has id {id:?}"
            );
        }
    }
}

/// Strategy: a node count and a multiset of endpoint pairs over a few
/// ids past it, each added `1 + r` times with alternating orientation,
/// so duplicates, reversed duplicates, self-loops and out-of-range ids
/// are all common.
fn arb_pair_multiset() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1usize..24).prop_flat_map(|n| {
        let id = 0..n as u32 + 2;
        proptest::collection::vec((id.clone(), id, 0u32..3), 0..80).prop_map(move |draws| {
            let pairs = draws
                .into_iter()
                .flat_map(|(x, y, r)| {
                    (0..=r).map(move |i| if i % 2 == 0 { (x, y) } else { (y, x) })
                })
                .collect();
            (n, pairs)
        })
    })
}

/// The rejection `add_edge` owes `(x, y)` on `n` nodes, if any.
fn expected_rejection(n: usize, x: u32, y: u32) -> Option<GraphError> {
    let out_of_range = |v: u32| GraphError::NodeOutOfRange {
        node: NodeId::new(v),
        node_count: n,
    };
    if x == y {
        Some(GraphError::SelfLoop {
            node: NodeId::new(x),
        })
    } else if x as usize >= n {
        Some(out_of_range(x))
    } else if y as usize >= n {
        Some(out_of_range(y))
    } else {
        None
    }
}

proptest! {
    /// The builder equals a `BTreeSet` canonicalization of the valid
    /// pairs, rejects exactly the invalid ones, and its three bulk entry
    /// points keep their semantics.
    #[test]
    fn builder_matches_btreeset_canonicalization((n, pairs) in arb_pair_multiset()) {
        let mut b = GraphBuilder::new(n);
        let mut want = BTreeSet::new();
        // The bulk entry points add each `Edge` as `(lo, hi)`, so their
        // rejections name the canonical endpoints.
        let mut rejections = Vec::new();
        for &(x, y) in &pairs {
            let got = b.add_edge(NodeId::new(x), NodeId::new(y));
            prop_assert_eq!(got.err(), expected_rejection(n, x, y), "({}, {}) on {} nodes", x, y, n);
            match expected_rejection(n, x.min(y), x.max(y)) {
                None => {
                    want.insert((x.min(y), x.max(y)));
                }
                Some(e) => rejections.push(e),
            }
        }
        let want: Vec<(u32, u32)> = want.into_iter().collect();
        let pairs_of = |g: &Graph| -> Vec<(u32, u32)> {
            g.edges().iter().map(|e| (e.lo().as_u32(), e.hi().as_u32())).collect()
        };
        let g = b.build();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(pairs_of(&g), want.clone());
        assert_adjacency_symmetric_and_sorted(&g);
        assert_edge_ids_are_a_bijection(&g);

        // `extend` skips and counts every rejection, defers the first,
        // and `build` keeps the valid edges while `try_build` refuses.
        let edges: Vec<Edge> = pairs
            .iter()
            .map(|&(x, y)| Edge::new(NodeId::new(x), NodeId::new(y)))
            .collect();
        let mut bulk = GraphBuilder::new(n);
        bulk.extend(edges.iter().copied());
        prop_assert_eq!(bulk.rejected_edges(), rejections.len());
        prop_assert_eq!(bulk.deferred_error(), rejections.first());
        prop_assert_eq!(pairs_of(&bulk.clone().build()), want);
        prop_assert_eq!(bulk.try_build().err(), rejections.first().cloned());

        // `try_extend` stops at the first rejection, keeping what came
        // before it.
        let mut strict = GraphBuilder::new(n);
        let first_bad = pairs
            .iter()
            .position(|&(x, y)| expected_rejection(n, x, y).is_some())
            .unwrap_or(pairs.len());
        prop_assert_eq!(strict.try_extend(edges.iter().copied()).err(), rejections.first().cloned());
        let before: BTreeSet<(u32, u32)> = pairs[..first_bad]
            .iter()
            .map(|&(x, y)| (x.min(y), x.max(y)))
            .collect();
        prop_assert_eq!(pairs_of(&strict.build()), before.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn adjacency_is_symmetric_and_sorted(g in arb_graph()) {
        assert_adjacency_symmetric_and_sorted(&g);
    }

    #[test]
    fn edge_ids_are_a_bijection(g in arb_graph()) {
        assert_edge_ids_are_a_bijection(&g);
    }

    #[test]
    fn mutual_friends_match_naive_intersection(g in arb_graph()) {
        for a in g.nodes().take(6) {
            for b in g.nodes().take(6) {
                let na: HashSet<NodeId> = g.neighbors(a).iter().copied().collect();
                let nb: HashSet<NodeId> = g.neighbors(b).iter().copied().collect();
                let expected = na.intersection(&nb).count();
                prop_assert_eq!(mutual_friend_count(&g, a, b), expected);
            }
        }
    }

    #[test]
    fn bfs_distances_respect_edges(g in arb_graph()) {
        let src = NodeId::new(0);
        let d = bfs_distances(&g, src);
        prop_assert_eq!(d[0], 0);
        for e in g.edges() {
            let (a, b) = (d[e.lo().index()], d[e.hi().index()]);
            if a != u32::MAX && b != u32::MAX {
                prop_assert!(a.abs_diff(b) <= 1, "adjacent distances differ by more than 1");
            } else {
                prop_assert_eq!(a, b, "one endpoint reachable, the other not");
            }
        }
    }

    #[test]
    fn components_partition_the_nodes(g in arb_graph()) {
        let cc = connected_components(&g);
        prop_assert_eq!(cc.sizes().iter().sum::<usize>(), g.node_count());
        for e in g.edges() {
            prop_assert_eq!(cc.label(e.lo()), cc.label(e.hi()));
        }
    }

    #[test]
    fn histogram_counts_nodes(g in arb_graph()) {
        let hist = degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), g.node_count());
    }

    #[test]
    fn pagerank_is_a_distribution(g in arb_graph()) {
        let pr = pagerank(&g, &PageRankConfig::new());
        let sum: f64 = pr.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        prop_assert!(pr.iter().all(|&x| x > 0.0));
    }

    /// The pull kernel sums each row in adjacency order, four rows at a
    /// time; pushing every node's share to its neighbours in ascending
    /// node order makes the same additions in the same order. The
    /// graphs hold 2–29 nodes, so every count of rows past the last
    /// group of four occurs, isolated nodes included.
    #[test]
    fn pagerank_equals_a_push_order_reference(g in arb_graph()) {
        for cfg in [PageRankConfig::new(), PageRankConfig::new().damping(0.6)] {
            let pull: Vec<u64> = pagerank(&g, &cfg).iter().map(|x| x.to_bits()).collect();
            let push: Vec<u64> = pagerank_by_push(&g, &cfg).iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(pull, push, "damping {}", cfg.damping_factor());
        }
    }

    #[test]
    fn clustering_is_within_unit_interval(g in arb_graph()) {
        let c = global_clustering_coefficient(&g);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
        let _ = triangle_count(&g);
    }

    /// Every generator family yields a simple graph whose CSR arrays
    /// hold the invariants the rest of the workspace relies on.
    #[test]
    fn generators_produce_simple_graphs(seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks = PlantedPartition::new(vec![10, 15, 15], 0.5, 0.05).unwrap();
        let graphs = vec![
            erdos_renyi_gnp(40, 0.1, &mut rng).unwrap(),
            erdos_renyi_gnm(40, 60, &mut rng).unwrap(),
            barabasi_albert(40, 3, &mut rng).unwrap(),
            watts_strogatz(40, 4, 0.3, &mut rng).unwrap(),
            powerlaw_configuration(40, 2.5, 1, 10, &mut rng).unwrap(),
            rmat(6, 4, RmatParams::classic(), &mut rng).unwrap(),
            planted_partition(&blocks, &mut rng).unwrap(),
            community_affiliation(40, &AgmParams::dblp_like(), &mut rng).unwrap(),
        ];
        for g in graphs {
            prop_assert!(g.edge_count() > 0);
            // Simple: no self-loops, no duplicate edges.
            let mut seen = HashSet::new();
            for e in g.edges() {
                prop_assert!(!e.is_loop());
                prop_assert!(seen.insert(Edge::new(e.lo(), e.hi())));
            }
            assert_adjacency_symmetric_and_sorted(&g);
            assert_edge_ids_are_a_bijection(&g);
        }
    }

    #[test]
    fn io_round_trip(g in arb_graph()) {
        let mut buf = Vec::new();
        osn_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let back = osn_graph::io::read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(back.graph.edge_count(), g.edge_count());
        // Round-tripped edges match modulo the dense relabeling (labels
        // are original ids, first-seen order).
        for e in back.graph.edges() {
            let a = back.labels[e.lo().index()] as u32;
            let b = back.labels[e.hi().index()] as u32;
            prop_assert!(g.has_edge(NodeId::new(a), NodeId::new(b)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A failing case's panic names its test, its index and the case
    /// count that reproduces it, then the failing assertion's message.
    #[test]
    #[should_panic(
        expected = "failing_case_names_its_index: case 0 failed (PROPTEST_CASES=1 reproduces it): boom"
    )]
    fn failing_case_names_its_index(x in 0u32..10) {
        prop_assert!(x > 10, "boom");
    }
}
