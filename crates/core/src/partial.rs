//! Partial containment and hybrid evaluation (extension).
//!
//! The paper's future-work list asks for "efficient algorithms for computing
//! maximally contained rewriting using views, when a pattern query is not
//! contained in available views". This module provides the evaluation-side
//! counterpart: when `Qs ⋢ V`, [`partial_contain`] still extracts the
//! *maximal coverage* — the covered query edges with their λ entries — and
//! [`hybrid_match_join`] answers the query by initializing covered edges
//! from the cached extensions and only the uncovered edges from `G`.
//!
//! The access to `G` is surgical: for an uncovered edge `(u, u')` only the
//! candidate pairs satisfying the two node conditions are scanned — exactly
//! the per-edge work `Match` would do, but limited to the uncovered part.
//! When every edge is covered this degenerates to `MatchJoin` (no `G`
//! access); when nothing is covered it degenerates to `Match`.

use std::borrow::Cow;

use crate::containment::{ContainmentPlan, ViewEdgeRef, ViewMatchTable};
use crate::matchjoin::{
    check_arity, run_fixpoint, smallest_cover, Cover, JoinError, JoinStats, JoinStrategy,
    MergedSets,
};
use crate::plan::EdgeSource;
use crate::view::{ViewExtensions, ViewSet};
use gpv_graph::{DataGraph, NodeId};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternEdgeId};

/// Maximal-coverage result: which query edges the views can supply.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PartialPlan {
    /// λ entries per query edge (empty = uncovered).
    pub lambda: Vec<Vec<ViewEdgeRef>>,
    /// Query edges with no covering view edge.
    pub uncovered: Vec<PatternEdgeId>,
}

impl PartialPlan {
    /// The coverage a `λ` describes: query edges with no entry are the
    /// uncovered ones.
    pub(crate) fn from_lambda(lambda: Vec<Vec<ViewEdgeRef>>) -> PartialPlan {
        let uncovered = (0..lambda.len())
            .filter(|&e| lambda[e].is_empty())
            .map(|e| PatternEdgeId(e as u32))
            .collect();
        PartialPlan { lambda, uncovered }
    }

    /// Whether the coverage is total (equivalent to `contain` succeeding).
    pub fn is_total(&self) -> bool {
        self.uncovered.is_empty()
    }

    /// Converts to a full [`ContainmentPlan`] when total.
    pub fn into_plan(self) -> Option<ContainmentPlan> {
        if !self.is_total() {
            return None;
        }
        ContainmentPlan::from_lambda(self.lambda)
    }
}

/// Computes the maximal coverage of `q` by `views` (never fails — an empty
/// view set yields all edges uncovered): the full `λ` of the view-match
/// table, plus the edges it leaves uncovered.
pub fn partial_contain(q: &Pattern, views: &ViewSet) -> PartialPlan {
    PartialPlan::from_lambda(ViewMatchTable::build(q, views).full_lambda())
}

/// The surgical per-edge scan of `g` for one query edge `(u, t)`: exactly
/// the candidate pairs satisfying the two node conditions — the per-edge
/// work `Match` would do, limited to this edge.
pub(crate) fn scan_edge_pairs(
    q: &Pattern,
    e: PatternEdgeId,
    g: &DataGraph,
) -> Vec<(NodeId, NodeId)> {
    let (u, t) = q.edge(e);
    let pu = q.pred(u).resolve(g);
    let pt = q.pred(t).resolve(g);
    let mut set = Vec::new();
    for v in g.nodes() {
        if !pu.satisfied_by(g, v) {
            continue;
        }
        for &w in g.out_neighbors(v) {
            if pt.satisfied_by(g, w) {
                set.push((v, w));
            }
        }
    }
    set
}

/// Derives the per-edge source vector a (full or partial) λ implies:
/// covered edges read their smallest covering extension, uncovered edges
/// scan `G`. The engine's planner pins exactly these sources.
pub fn sources_from_lambda(
    lambda: &[Vec<ViewEdgeRef>],
    ext: &ViewExtensions,
) -> Result<Vec<EdgeSource>, JoinError> {
    lambda
        .iter()
        .map(|entries| {
            Ok(match cover(entries, ext)? {
                Some((r, _)) => EdgeSource::View(r),
                None => EdgeSource::Graph,
            })
        })
        .collect()
}

/// [`smallest_cover`] over plain extensions: the entry the
/// witness-narrowing merge reads, and therefore the one the planner pins
/// into [`EdgeSource::View`].
pub(crate) fn cover<'a>(
    entries: &[ViewEdgeRef],
    ext: &'a ViewExtensions,
) -> Result<Cover<'a, (NodeId, NodeId)>, JoinError> {
    smallest_cover(entries, ext.extensions.len(), |r| {
        ext.edge_set(r.view, r.edge)
    })
}

/// The source-honoring merge step: builds each edge's initial match set
/// from exactly the source the plan pinned — the materialized extension for
/// [`EdgeSource::View`], a surgical scan for [`EdgeSource::Graph`]. Both
/// the sequential and the parallel executor consume this, so the planner's
/// per-edge decision is what actually runs. `g` may be `None` only for
/// all-view source vectors ([`JoinError::GraphRequired`] otherwise).
pub(crate) fn merged_from_sources<'a>(
    q: &Pattern,
    sources: &[EdgeSource],
    ext: &'a ViewExtensions,
    g: Option<&DataGraph>,
) -> Result<MergedSets<'a>, JoinError> {
    check_arity(q, sources.len())?;
    sources
        .iter()
        .enumerate()
        .map(|(ei, source)| match source {
            // A pinned source is a one-entry cover. Arena slices are
            // canonical by construction (`freeze` sorts + dedups), so the
            // merge borrows them directly — zero per-pair copies on the
            // view-covered edges.
            EdgeSource::View(r) => {
                let (_, set) = cover(std::slice::from_ref(r), ext)?.expect("one entry");
                Ok(Cow::Borrowed(set))
            }
            EdgeSource::Graph => {
                let g = g.ok_or(JoinError::GraphRequired)?;
                Ok(Cow::Owned(scan_edge_pairs(q, PatternEdgeId(ei as u32), g)))
            }
        })
        .collect()
}

/// Answers `q` using views for the covered edges and a surgical scan of `g`
/// for the uncovered ones. Equivalent to `Match(q, g)` on every graph (the
/// property tests assert it), with `G` access proportional to the uncovered
/// part only.
pub fn hybrid_match_join(
    q: &Pattern,
    partial: &PartialPlan,
    ext: &ViewExtensions,
    g: &DataGraph,
) -> Result<(MatchResult, JoinStats), JoinError> {
    check_arity(q, partial.lambda.len())?;
    let sources = sources_from_lambda(&partial.lambda, ext)?;
    let merged = merged_from_sources(q, &sources, ext, Some(g))?;
    // Same refinement as MatchJoin from here on.
    run_fixpoint(q, merged, JoinStrategy::RankedBottomUp, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{materialize, ViewDef};
    use gpv_graph::GraphBuilder;
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::PatternBuilder;

    fn single(x: &str, y: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        b.build().unwrap()
    }

    fn chain3() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        b.build().unwrap()
    }

    fn graph() -> gpv_graph::DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(a2, b2); // b2 has no C successor
        b.build()
    }

    #[test]
    fn coverage_reported() {
        let q = chain3();
        // Only the (A,B) view is cached.
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let p = partial_contain(&q, &views);
        assert!(!p.is_total());
        assert_eq!(p.uncovered, vec![PatternEdgeId(1)]);
        assert!(!p.lambda[0].is_empty());
        assert!(p.into_plan().is_none());
    }

    #[test]
    fn hybrid_equals_match() {
        let q = chain3();
        let g = graph();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
        // And the pruning worked: a2/b2 must be gone.
        assert_eq!(r.node_set(gpv_pattern::PatternNodeId(0)).len(), 1);
    }

    #[test]
    fn total_coverage_degenerates_to_matchjoin() {
        let q = chain3();
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        assert!(p.is_total());
        assert_eq!(
            p.clone().into_plan(),
            crate::containment::contain(&q, &views)
        );
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
    }

    #[test]
    fn no_views_degenerates_to_match() {
        let q = chain3();
        let g = graph();
        let views = ViewSet::default();
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        assert_eq!(p.uncovered.len(), 2);
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
    }

    #[test]
    fn empty_result_flows_through() {
        let q = chain3();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let g = b.build();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert!(r.is_empty());
    }
}
