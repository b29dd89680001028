//! `BMatchJoin` — answering bounded pattern queries from views
//! (paper Section VI-A, Theorems 8–9).
//!
//! Differences from `MatchJoin`:
//!
//! * the merge step must drop the pairs the *query* edge's own bound
//!   rejects, using the distance index `I(V)` stored beside each view
//!   edge's pairs (a covering view edge may have a looser bound than the
//!   query edge, so pairs at distance `fe(e) < d ≤ k` must go). When the
//!   region's largest distance is within the bound there is nothing to
//!   drop, and the merge borrows the arena's pair column as the plain
//!   merge does; otherwise it filters pairs and distances once, into owned
//!   columns;
//! * after that, validity is pure structure over node pairs, so the
//!   refinement fixpoint is shared with `MatchJoin` — and so is the
//!   `O(|Qb||V(G)| + |V(G)|²)` bound (Theorem 9), versus the cubic
//!   `O(|Qb||G|²)` of direct `BMatch`;
//! * distances are re-attached to the survivors. Both fixpoints return
//!   each edge's survivors as positions into its merged pair column, and
//!   the distance column is parallel to it, so each survivor reads its
//!   distance at its own position.

use crate::bview::BoundedViewExtensions;
use crate::compact::{BoundedColumns, BoundedEdgeSet};
use crate::containment::ContainmentPlan;
use crate::matchjoin::{
    check_arity, node_sets, refine, smallest_cover, survivor_pairs, JoinError, JoinStats,
    JoinStrategy, MergedSets,
};
use gpv_matching::result::BoundedMatchResult;
use gpv_pattern::{BoundedPattern, PatternEdgeId};
use std::borrow::Cow;

/// Answers `Qb` using bounded views with the default (optimized) strategy.
pub fn bmatch_join(
    qb: &BoundedPattern,
    plan: &ContainmentPlan,
    ext: &BoundedViewExtensions,
) -> Result<BoundedMatchResult, JoinError> {
    bmatch_join_with(qb, plan, ext, JoinStrategy::RankedBottomUp).map(|(r, _)| r)
}

/// Runs as [`bmatch_join_with`], ignoring `threads`. Exists only for
/// perfbench; goes with ROADMAP's "Pending benchmark change".
pub fn bmatch_join_threaded(
    qb: &BoundedPattern,
    plan: &ContainmentPlan,
    ext: &BoundedViewExtensions,
    strategy: JoinStrategy,
    _threads: usize,
) -> Result<(BoundedMatchResult, JoinStats), JoinError> {
    bmatch_join_with(qb, plan, ext, strategy)
}

/// Answers `Qb` using bounded views with an explicit strategy.
pub fn bmatch_join_with(
    qb: &BoundedPattern,
    plan: &ContainmentPlan,
    ext: &BoundedViewExtensions,
    strategy: JoinStrategy,
) -> Result<(BoundedMatchResult, JoinStats), JoinError> {
    let q = qb.pattern();
    check_arity(q, plan.lambda.len())?;

    // As in the plain `merge_step`, a single witnessing view edge per query
    // edge suffices (simulations compose; see `matchjoin::merge_step`), so
    // the merge reads only the smallest covering extension.
    let covers = plan
        .lambda
        .iter()
        .map(|entries| {
            let (r, _) = smallest_cover(entries, ext.extensions.len(), |r| {
                ext.edge_set(r.view, r.edge)
            })?
            .ok_or(JoinError::PlanMismatch)?;
            Ok(r)
        })
        .collect::<Result<Vec<_>, JoinError>>()?;
    // The distance filter `d ≤ fe(e)`, only where a region holds a pair the
    // bound rejects.
    let filtered: Vec<Option<BoundedEdgeSet>> = covers
        .iter()
        .enumerate()
        .map(|(ei, r)| {
            let bound = qb.bound(PatternEdgeId(ei as u32));
            (!bound.admits(ext.max_dist(r.view, r.edge))).then(|| {
                let pairs = ext.edge_set(r.view, r.edge).iter();
                pairs
                    .zip(ext.edge_dists(r.view, r.edge))
                    .filter(|&(_, &d)| bound.admits(d))
                    .unzip()
            })
        })
        .collect();
    let columns: Vec<BoundedColumns<'_>> = covers
        .iter()
        .zip(&filtered)
        .map(|(r, own)| match own {
            Some((pairs, dists)) => (&pairs[..], &dists[..]),
            None => (ext.edge_set(r.view, r.edge), ext.edge_dists(r.view, r.edge)),
        })
        .collect();
    let merged: MergedSets<'_> = columns.iter().map(|&(p, _)| Cow::Borrowed(p)).collect();

    let (kept, stats) = refine(q, &merged, strategy);
    let result = kept.map(|kept| {
        let sets = survivor_pairs(&merged, &kept);
        let nodes = node_sets(q, &sets);
        let edges = sets
            .into_iter()
            .zip(&kept)
            .zip(&columns)
            .map(|((set, kept), &(_, dists))| {
                let d = kept.iter().map(|&i| dists[i as usize]);
                set.into_iter()
                    .zip(d)
                    .map(|((v, w), d)| (v, w, d))
                    .collect()
            })
            .collect();
        BoundedMatchResult::new(q, nodes, edges)
    });
    Ok((result.unwrap_or_else(BoundedMatchResult::empty), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcontainment::bcontain;
    use crate::bview::{bmaterialize, BoundedViewDef, BoundedViewSet};
    use gpv_graph::{DataGraph, GraphBuilder};
    use gpv_matching::bounded::bmatch_pattern;
    use gpv_pattern::PatternBuilder;

    /// Paper Fig. 3(a) graph.
    fn fig3a() -> DataGraph {
        let mut b = GraphBuilder::new();
        let pm1 = b.add_node(["PM"]);
        let _ai1 = b.add_node(["AI"]);
        let ai2 = b.add_node(["AI"]);
        let bio1 = b.add_node(["Bio"]);
        let se1 = b.add_node(["SE"]);
        let se2 = b.add_node(["SE"]);
        let db1 = b.add_node(["DB"]);
        let db2 = b.add_node(["DB"]);
        b.add_edge(pm1, _ai1);
        b.add_edge(pm1, ai2);
        b.add_edge(ai2, bio1);
        b.add_edge(db1, ai2);
        b.add_edge(db2, _ai1);
        b.add_edge(_ai1, se1);
        b.add_edge(ai2, se2);
        b.add_edge(se1, db2);
        b.add_edge(se2, db1);
        b.add_edge(se1, bio1);
        b.build()
    }

    /// Example 8's bounded query: Fig. 3(c) with fe(AI,Bio) = 2.
    fn example8_qb() -> BoundedPattern {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let ai = b.node_labeled("AI");
        let bio = b.node_labeled("Bio");
        let db = b.node_labeled("DB");
        let se = b.node_labeled("SE");
        b.edge_bounded(pm, ai, 1);
        b.edge_bounded(ai, bio, 2);
        b.edge_bounded(db, ai, 1);
        b.edge_bounded(ai, se, 1);
        b.edge_bounded(se, db, 1);
        b.build_bounded().unwrap()
    }

    /// Bounded views covering Example 8's query (bounds ≥ the query's).
    fn views() -> BoundedViewSet {
        // V1: AI -[2]-> Bio, PM -[1]-> AI.
        let mut b = PatternBuilder::new();
        let ai = b.node_labeled("AI");
        let bio = b.node_labeled("Bio");
        let pm = b.node_labeled("PM");
        b.edge_bounded(ai, bio, 2);
        b.edge_bounded(pm, ai, 1);
        let v1 = b.build_bounded().unwrap();
        // V2: DB -[1]-> AI -[1]-> SE -[1]-> DB.
        let mut b = PatternBuilder::new();
        let db = b.node_labeled("DB");
        let ai = b.node_labeled("AI");
        let se = b.node_labeled("SE");
        b.edge_bounded(db, ai, 1);
        b.edge_bounded(ai, se, 1);
        b.edge_bounded(se, db, 1);
        let v2 = b.build_bounded().unwrap();
        BoundedViewSet::new(vec![
            BoundedViewDef::new("V1", v1),
            BoundedViewDef::new("V2", v2),
        ])
    }

    #[test]
    fn theorem_8_equivalence() {
        let g = fig3a();
        let qb = example8_qb();
        let vs = views();
        let plan = bcontain(&qb, &vs).expect("Qb ⊑ V");
        let ext = bmaterialize(&vs, &g);
        let via_views = bmatch_join(&qb, &plan, &ext).unwrap();
        let direct = bmatch_pattern(&qb, &g);
        assert_eq!(via_views, direct, "BMatchJoin(V(G)) == BMatch(G)");
        assert!(!direct.is_empty());
    }

    #[test]
    fn distance_filter_drops_loose_pairs() {
        // View has bound 3 on (A,B); query has bound 1. A pair at distance
        // 2 in the extension must be filtered by the merge step.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let m = b.add_node(["M"]);
        let b1 = b.add_node(["B"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        b.add_edge(a1, m);
        b.add_edge(m, b1);
        b.add_edge(a2, b2); // direct
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        pb.edge_bounded(x, y, 3);
        let vdef = BoundedViewDef::new("V", pb.build_bounded().unwrap());
        let vs = BoundedViewSet::new(vec![vdef]);

        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        pb.edge_bounded(x, y, 1);
        let qb = pb.build_bounded().unwrap();

        let plan = bcontain(&qb, &vs).expect("bound 1 within 3");
        let ext = bmaterialize(&vs, &g);
        let r = bmatch_join(&qb, &plan, &ext).unwrap();
        let direct = bmatch_pattern(&qb, &g);
        assert_eq!(r, direct);
        assert_eq!(r.edge_set(PatternEdgeId(0)), &[(a2, b2, 1)]);
        // The view's region holds the distance-2 pair, so the merge
        // filtered it; its pair and distance columns hold both pairs.
        assert_eq!(ext.edge_set(0, PatternEdgeId(0)), &[(a1, b1), (a2, b2)]);
        assert_eq!(ext.edge_dists(0, PatternEdgeId(0)), &[2, 1]);
        assert_eq!(ext.max_dist(0, PatternEdgeId(0)), 2);
    }

    #[test]
    fn strategies_agree() {
        let g = fig3a();
        let qb = example8_qb();
        let vs = views();
        let plan = bcontain(&qb, &vs).unwrap();
        let ext = bmaterialize(&vs, &g);
        let (a, _) = bmatch_join_with(&qb, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        let (b, _) = bmatch_join_with(&qb, &plan, &ext, JoinStrategy::NaiveFixpoint).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_result_when_views_empty() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let g = b.build();
        let qb = example8_qb();
        let vs = views();
        let plan = bcontain(&qb, &vs).unwrap();
        let ext = bmaterialize(&vs, &g);
        let r = bmatch_join(&qb, &plan, &ext).unwrap();
        assert!(r.is_empty());
        assert_eq!(bmatch_pattern(&qb, &g), r);
    }

    #[test]
    fn star_query_edges() {
        // Query: A -[*]-> B; view: A -[*]-> B. Any reachable pair flows
        // through untouched.
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let m = b.add_node(["M"]);
        let z = b.add_node(["B"]);
        b.add_edge(a, m);
        b.add_edge(m, z);
        let g = b.build();

        let mk = || {
            let mut pb = PatternBuilder::new();
            let x = pb.node_labeled("A");
            let y = pb.node_labeled("B");
            pb.edge_unbounded(x, y);
            pb.build_bounded().unwrap()
        };
        let vs = BoundedViewSet::new(vec![BoundedViewDef::new("V", mk())]);
        let qb = mk();
        let plan = bcontain(&qb, &vs).unwrap();
        let ext = bmaterialize(&vs, &g);
        let r = bmatch_join(&qb, &plan, &ext).unwrap();
        assert_eq!(r, bmatch_pattern(&qb, &g));
        assert_eq!(r.edge_set(PatternEdgeId(0)), &[(a, z, 2)]);
        assert_eq!(ext.edge_set(0, PatternEdgeId(0)), &[(a, z)]);
        assert_eq!(ext.edge_dists(0, PatternEdgeId(0)), &[2]);
    }
}
