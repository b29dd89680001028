//! Property tests for the join kernel, over seeded acyclic, mixed and
//! cyclic patterns: every join path — plain, dual, bounded and
//! graph-sourced — answers exactly as its oracle, node sets included.
//!
//! The kernel reads a node's matches off sorted survivors rather than
//! scanning every endpoint, and result constructors skip the sort when
//! their input is already canonical. So next to the oracle checks this
//! file keeps the endpoint definition of node sets as a reference, checks
//! that `bmaterialize` re-attaches each survivor's own distance, and
//! checks that `MatchResult::new` / `BoundedMatchResult::new` still
//! normalize unsorted, duplicated input.

use gpv_generator::{
    covering_bounded_views, covering_views, random_bounded_pattern, random_graph, random_pattern,
    PatternShape,
};
use graph_views::matching::dual::dual_match_pattern;
use graph_views::matching::result::BoundedMatchResult;
use graph_views::prelude::*;
use graph_views::views::matchjoin::match_join_union_with;
use graph_views::views::{
    bmatch_join_with, bmaterialize, dual_contain, dual_match_join, dual_materialize,
    hybrid_match_join, partial_contain, GraphSource, Simulation,
};
use proptest::prelude::*;

const LABELS: [&str; 4] = ["A", "B", "C", "D"];
const SHAPES: [PatternShape; 3] = [PatternShape::Dag, PatternShape::Any, PatternShape::Cyclic];

fn arb_graph() -> impl Strategy<Value = DataGraph> {
    (5usize..60, 10usize..150, any::<u64>())
        .prop_map(|(n, m, seed)| random_graph(n, m, &LABELS, seed))
}

/// A query of 2–5 nodes and 1–6 edges, acyclic, mixed or cyclic.
fn arb_query() -> impl Strategy<Value = Pattern> {
    (2usize..6, 1usize..7, 0usize..3, any::<u64>())
        .prop_map(|(nv, ne, shape, seed)| random_pattern(nv, ne, &LABELS, SHAPES[shape], seed))
}

fn arb_bounded_query() -> impl Strategy<Value = BoundedPattern> {
    (2usize..5, 1usize..6, 1u32..4, 0usize..3, any::<u64>()).prop_map(|(nv, ne, k, shape, seed)| {
        random_bounded_pattern(nv, ne, &LABELS, k, SHAPES[shape], seed)
    })
}

/// The endpoint definition of node sets, kept as the reference the
/// kernel's faster reading must equal: a node's matches are the sources it
/// takes in its out-edges' pairs and the targets it takes in its in-edges'
/// pairs. `None` for a node with no incident edge, whose matches are its
/// base set.
fn endpoint_node_sets(q: &Pattern, edges: &[Vec<(NodeId, NodeId)>]) -> Vec<Option<Vec<NodeId>>> {
    let mut sets: Vec<Option<Vec<NodeId>>> = vec![None; q.node_count()];
    for (&(u, t), pairs) in q.edges().iter().zip(edges) {
        for &(v, w) in pairs {
            sets[u.index()].get_or_insert_with(Vec::new).push(v);
            sets[t.index()].get_or_insert_with(Vec::new).push(w);
        }
    }
    for set in sets.iter_mut().flatten() {
        set.sort_unstable();
        set.dedup();
    }
    sets
}

/// Checks a nonempty result's node sets against [`endpoint_node_sets`].
fn assert_endpoint_node_sets(
    q: &Pattern,
    nodes: &[Vec<NodeId>],
    edges: &[Vec<(NodeId, NodeId)>],
) -> Result<(), TestCaseError> {
    if edges.is_empty() {
        return Ok(());
    }
    for (u, reference) in endpoint_node_sets(q, edges).into_iter().enumerate() {
        if let Some(reference) = reference {
            prop_assert_eq!(&nodes[u], &reference, "node {}", u);
        }
    }
    Ok(())
}

/// `items` reversed, with every other item repeated: unsorted and
/// duplicated whenever it holds two or more items.
fn scrambled<T: Copy>(items: &[T]) -> Vec<T> {
    let mut out: Vec<T> = items.iter().rev().copied().collect();
    out.extend(items.iter().step_by(2).copied());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plain joins: views-only under both strategies and the literal union
    /// merge, hybrid over half the covering views, and the graph-sourced
    /// kernel, all equal `Match` with endpoint node sets.
    #[test]
    fn plain_joins_equal_match(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        let oracle = match_pattern(&q, &g);
        assert_endpoint_node_sets(&q, &oracle.node_matches, &oracle.edge_matches)?;

        let views = covering_views(std::slice::from_ref(&q), 2, vseed);
        let plan = contain(&q, &views).expect("covering views contain q");
        let ext = materialize(&views, &g);
        for strategy in [JoinStrategy::RankedBottomUp, JoinStrategy::NaiveFixpoint] {
            let (r, _) = match_join_with(&q, &plan, &ext, strategy).unwrap();
            prop_assert_eq!(&r, &oracle, "{:?}", strategy);
            let (r, _) = match_join_union_with(&q, &plan, &ext, strategy).unwrap();
            prop_assert_eq!(&r, &oracle, "union merge, {:?}", strategy);
        }

        let half = ViewSet::new(views.views().iter().step_by(2).cloned().collect());
        let partial = partial_contain(&q, &half);
        let (r, _) = hybrid_match_join(&q, &partial, &materialize(&half, &g), &g).unwrap();
        prop_assert_eq!(&r, &oracle, "hybrid");

        let (r, _) = GraphSource::new(&g).simulate(&q, Simulation::Plain);
        prop_assert_eq!(&r, &oracle, "graph-sourced");
    }

    /// Dual joins: `DualMatchJoin` over dual extensions and the
    /// graph-sourced kernel in dual mode equal `DualMatch`.
    #[test]
    fn dual_joins_equal_dual_match(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        let oracle = dual_match_pattern(&q, &g);
        assert_endpoint_node_sets(&q, &oracle.node_matches, &oracle.edge_matches)?;
        let (r, _) = GraphSource::new(&g).simulate(&q, Simulation::Dual);
        prop_assert_eq!(&r, &oracle, "graph-sourced");
        let views = covering_views(std::slice::from_ref(&q), 2, vseed);
        if let Some(plan) = dual_contain(&q, &views) {
            let r = dual_match_join(&q, &plan, &dual_materialize(&views, &g)).unwrap();
            prop_assert_eq!(&r, &oracle, "views");
        }
    }

    /// Bounded joins: `BMatchJoin` under both strategies equals `BMatch`,
    /// distances included, and `bmaterialize` gives every view pair the
    /// shortest distance `BMatch` reports for it.
    #[test]
    fn bounded_joins_equal_bmatch(g in arb_graph(), qb in arb_bounded_query(), vseed in any::<u64>()) {
        let q = qb.pattern();
        let oracle = bmatch_pattern(&qb, &g);
        assert_endpoint_node_sets(q, &oracle.node_matches, &oracle.pairs())?;
        let views = covering_bounded_views(std::slice::from_ref(&qb), 2, vseed);
        let plan = bcontain(&qb, &views).expect("covering views contain qb");
        let ext = bmaterialize(&views, &g);
        for strategy in [JoinStrategy::RankedBottomUp, JoinStrategy::NaiveFixpoint] {
            let (r, _) = bmatch_join_with(&qb, &plan, &ext, strategy).unwrap();
            prop_assert_eq!(&r, &oracle, "{:?}", strategy);
        }
        for (i, v) in views.iter() {
            let direct = bmatch_pattern(&v.pattern, &g);
            let view = ext.extensions[i].thaw();
            prop_assert_eq!(&view, &direct, "view {}", i);
        }
    }

    /// The constructors normalize whatever order and multiplicity they
    /// are given: a scrambled copy of a canonical result builds it back.
    #[test]
    fn constructors_normalize_unsorted_duplicated_input(
        g in arb_graph(),
        qb in arb_bounded_query(),
    ) {
        let q = qb.pattern();
        let r = match_pattern(q, &g);
        if !r.is_empty() {
            let nodes = r.node_matches.iter().map(|s| scrambled(s)).collect();
            let edges = r.edge_matches.iter().map(|s| scrambled(s)).collect();
            prop_assert_eq!(MatchResult::new(q, nodes, edges), r);
        }
        let b = bmatch_pattern(&qb, &g);
        if !b.is_empty() {
            let nodes = b.node_matches.iter().map(|s| scrambled(s)).collect();
            let edges = b.edge_matches.iter().map(|s| scrambled(s)).collect();
            prop_assert_eq!(BoundedMatchResult::new(q, nodes, edges), b);
        }
    }
}
