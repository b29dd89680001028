//! `BMatchJoin` — answering bounded pattern queries from views
//! (paper Section VI-A, Theorems 8–9).
//!
//! Differences from `MatchJoin`:
//!
//! * the merge step filters each borrowed pair by the *query* edge's own
//!   bound, using the distance index `I(V)` baked into the bounded
//!   extensions (a covering view edge may have a looser bound than the
//!   query edge, so pairs at distance `fe(e) < d ≤ k` must be dropped);
//! * after that filter, validity is pure structure over node pairs, so the
//!   refinement fixpoint is shared with `MatchJoin` — and so is the
//!   `O(|Qb||V(G)| + |V(G)|²)` bound (Theorem 9), versus the cubic
//!   `O(|Qb||G|²)` of direct `BMatch`.

use crate::bview::BoundedViewExtensions;
use crate::containment::ContainmentPlan;
use crate::matchjoin::{
    check_arity, refine, smallest_cover, JoinError, JoinStats, JoinStrategy, MergedSets,
};
use gpv_graph::NodeId;
use gpv_matching::result::BoundedMatchResult;
use gpv_pattern::{BoundedPattern, PatternEdgeId};
use std::collections::HashSet;

/// Answers `Qb` using bounded views with the default (optimized) strategy.
pub fn bmatch_join(
    qb: &BoundedPattern,
    plan: &ContainmentPlan,
    ext: &BoundedViewExtensions,
) -> Result<BoundedMatchResult, JoinError> {
    bmatch_join_with(qb, plan, ext, JoinStrategy::RankedBottomUp).map(|(r, _)| r)
}

/// Answers `Qb` using bounded views with an explicit strategy.
pub fn bmatch_join_with(
    qb: &BoundedPattern,
    plan: &ContainmentPlan,
    ext: &BoundedViewExtensions,
    strategy: JoinStrategy,
) -> Result<(BoundedMatchResult, JoinStats), JoinError> {
    bmatch_join_threaded(qb, plan, ext, strategy, 0)
}

/// Like [`bmatch_join_with`], with an explicit worker count for
/// [`JoinStrategy::Parallel`] (`0` = auto-detect; ignored by the
/// sequential strategies).
pub fn bmatch_join_threaded(
    qb: &BoundedPattern,
    plan: &ContainmentPlan,
    ext: &BoundedViewExtensions,
    strategy: JoinStrategy,
    threads: usize,
) -> Result<(BoundedMatchResult, JoinStats), JoinError> {
    let q = qb.pattern();
    check_arity(q, plan.lambda.len())?;

    // Merge step with the distance filter d ≤ fe(e) (I(V) lookups are the
    // `d` fields riding along with every cached pair). As in the plain
    // `merge_step`, a single witnessing view edge per query edge suffices
    // (simulations compose; see `matchjoin::merge_step`), so we read only
    // the smallest covering extension. `with_dist[ei]` stays sorted by
    // pair, enabling binary-search distance reattachment after the
    // fixpoint — no per-pair hashing.
    // The distance filter projects owned sets out of the arena (the shared
    // fixpoint takes them as `Cow::Owned`; the zero-copy borrow only applies
    // to the unbounded join, where no per-pair filtering happens).
    let mut with_dist: Vec<Vec<(NodeId, NodeId, u32)>> = Vec::with_capacity(q.edge_count());
    let mut merged: MergedSets<'_> = Vec::with_capacity(q.edge_count());
    for (ei, entries) in plan.lambda.iter().enumerate() {
        let bound = qb.bound(PatternEdgeId(ei as u32));
        let (_, set) = smallest_cover(entries, ext.extensions.len(), |r| {
            ext.edge_set(r.view, r.edge)
        })?
        .ok_or(JoinError::PlanMismatch)?;
        let mut filtered: Vec<(NodeId, NodeId, u32)> = set
            .iter()
            .copied()
            .filter(|&(_, _, d)| bound.admits(d))
            .collect();
        // Canonicalize (same choke point as the plain `merge_step`): a
        // stored extension with duplicate pairs must not inflate the
        // working set, and the binary-search distance reattachment below
        // requires strictly-sorted pairs. Ties on a pair keep the smallest
        // distance (the shortest witnessing path, `I(V)`'s semantics).
        if !filtered
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
        {
            filtered.sort_unstable();
            filtered.dedup_by_key(|&mut (v, w, _)| (v, w));
        }
        merged.push(std::borrow::Cow::Owned(
            filtered.iter().map(|&(v, w, _)| (v, w)).collect(),
        ));
        with_dist.push(filtered);
    }

    let (sets, stats) = refine(q, merged, strategy, threads)?;
    let Some(sets) = sets else {
        return Ok((BoundedMatchResult::empty(), stats));
    };
    // Re-attach distances (binary search in the sorted merged slice) and
    // build node sets.
    let mut node_sets: Vec<HashSet<NodeId>> = vec![HashSet::new(); q.node_count()];
    let mut edge_matches = Vec::with_capacity(sets.len());
    for (ei, set) in sets.into_iter().enumerate() {
        let (u, t) = q.edge(PatternEdgeId(ei as u32));
        let src = &with_dist[ei];
        let with_d: Vec<(NodeId, NodeId, u32)> = set
            .into_iter()
            .map(|(v, w)| {
                node_sets[u.index()].insert(v);
                node_sets[t.index()].insert(w);
                let i = src
                    .binary_search_by_key(&(v, w), |&(a, b, _)| (a, b))
                    .expect("surviving pair came from the merged slice");
                (v, w, src[i].2)
            })
            .collect();
        edge_matches.push(with_d);
    }
    if node_sets.iter().any(HashSet::is_empty) {
        return Ok((BoundedMatchResult::empty(), stats));
    }
    Ok((
        BoundedMatchResult::new(
            q,
            node_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            edge_matches,
        ),
        stats,
    ))
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
    }
}
