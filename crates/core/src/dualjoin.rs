//! Answering **dual-simulation** pattern queries using views (the paper's
//! §VIII extension: "our techniques can be readily extended to revisions of
//! simulation such as dual and strong simulation \[28\], retaining the same
//! complexity").
//!
//! Everything mirrors the plain pipeline with backward edge-preservation
//! added at each level:
//!
//! * view matches come from [`simulate_pattern_dual`] — a view covers a
//!   query edge only when it dual-simulates into the query; they fill the
//!   same view-match table as the plain case, so `dual_contain` is the
//!   plain `contain` over dual view matches;
//! * extensions are materialized by the same kernel in its dual mode, with
//!   every edge read from a [`GraphSource`](crate::partial::GraphSource);
//! * `dual_match_join` runs the shared ranked kernel of
//!   [`crate::matchjoin`] in its dual mode: candidates also intersect
//!   in-edge targets, and each edge keeps *two* support counters (forward
//!   witnesses for the source, backward witnesses for the target), so the
//!   drain propagates removals to successors as well as predecessors.
//!
//! Dual simulations compose exactly like plain ones, so the single-witness
//! merge narrowing and the Theorem-1-style equivalence
//! `DualMatchJoin(V(G)) == DualMatch(G)` both carry over (property-tested
//! in `tests/`).

use crate::containment::{ContainmentPlan, ViewMatchTable};
use crate::matchjoin::{assemble, merge_step, ranked_fixpoint, JoinError, JoinStats, Simulation};
use crate::view::{materialize_as, ViewExtensions, ViewSet};
use gpv_matching::pattern_sim::simulate_pattern_dual;
use gpv_matching::result::MatchResult;
use gpv_pattern::Pattern;

/// `Dcontain`: decides whether `Qs` is contained in `V` under dual
/// simulation, returning the witnessing λ.
pub fn dual_contain(q: &Pattern, views: &ViewSet) -> Option<ContainmentPlan> {
    ViewMatchTable::simulated(q, views, simulate_pattern_dual).contain()
}

/// Materializes views under dual simulation, freezing each result into its
/// columnar arena region: the shared kernel in its dual mode, with every
/// edge read from one [`GraphSource`](crate::partial::GraphSource).
pub fn dual_materialize(views: &ViewSet, g: &gpv_graph::DataGraph) -> ViewExtensions {
    materialize_as(views, g, Simulation::Dual)
}

/// `DualMatchJoin`: computes the dual-simulation result of `q` from dual
/// view extensions, without accessing `G`. The single-witness merge
/// borrows the arena slices (dual simulations compose, so one covering
/// extension per edge suffices), and the shared ranked kernel refines them
/// under `Simulation::Dual`.
pub fn dual_match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
) -> Result<MatchResult, JoinError> {
    let merged = merge_step(q, plan, ext)?;
    let kept = ranked_fixpoint(q, &merged, Simulation::Dual, &mut JoinStats::default());
    Ok(assemble(q, &merged, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDef;
    use gpv_graph::{GraphBuilder, NodeId};
    use gpv_matching::dual::dual_match_pattern;
    use gpv_pattern::PatternBuilder;

    /// G where dual prunes more than plain: A1 -> B1 (B1 lacks a C pred),
    /// A2 -> B2, C1 -> B2.
    fn setup() -> (gpv_graph::DataGraph, Pattern, ViewSet) {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(a2, b2);
        b.add_edge(c1, b2);
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        let uc = pb.node_labeled("C");
        pb.edge(ua, ub);
        pb.edge(uc, ub);
        let q = pb.build().unwrap();

        // Views: the exact two edges.
        let mut v1 = PatternBuilder::new();
        let x = v1.node_labeled("A");
        let y = v1.node_labeled("B");
        v1.edge(x, y);
        let mut v2 = PatternBuilder::new();
        let x = v2.node_labeled("C");
        let y = v2.node_labeled("B");
        v2.edge(x, y);
        let views = ViewSet::new(vec![
            ViewDef::new("VA", v1.build().unwrap()),
            ViewDef::new("VC", v2.build().unwrap()),
        ]);
        (g, q, views)
    }

    #[test]
    fn dual_join_equals_dual_match() {
        let (g, q, views) = setup();
        let plan = dual_contain(&q, &views).expect("contained under dual sim");
        let ext = dual_materialize(&views, &g);
        let joined = dual_match_join(&q, &plan, &ext).unwrap();
        let direct = dual_match_pattern(&q, &g);
        assert_eq!(joined, direct);
        assert!(!direct.is_empty());
        // B1 must be gone from the (A,B) matches: only (A2,B2) remains.
        assert_eq!(direct.edge_matches[0], vec![(NodeId(2), NodeId(3))]);
    }

    #[test]
    fn dual_contain_stricter_than_plain() {
        use crate::containment::contain;
        // View with an in-edge requirement that the query lacks.
        let mut vb = PatternBuilder::new();
        let a = vb.node_labeled("A");
        let bb = vb.node_labeled("B");
        let c = vb.node_labeled("C");
        vb.edge(a, bb);
        vb.edge(c, bb);
        let v = vb.build().unwrap();

        let mut qb = PatternBuilder::new();
        let a = qb.node_labeled("A");
        let bb = qb.node_labeled("B");
        qb.edge(a, bb);
        let q = qb.build().unwrap();

        let views = ViewSet::new(vec![ViewDef::new("V", v)]);
        assert!(
            contain(&q, &views).is_none(),
            "plain also fails (C unmatched)"
        );
        assert!(dual_contain(&q, &views).is_none());
    }

    #[test]
    fn empty_when_views_empty() {
        let (_, q, views) = setup();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let g = b.build();
        let plan = dual_contain(&q, &views).unwrap();
        let ext = dual_materialize(&views, &g);
        let r = dual_match_join(&q, &plan, &ext).unwrap();
        assert!(r.is_empty());
        assert!(dual_match_pattern(&q, &g).is_empty());
    }
}
