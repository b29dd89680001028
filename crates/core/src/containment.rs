//! Pattern containment `Qs ⊑ V` and the `contain` algorithm
//! (paper Sections III–V-A).
//!
//! `Qs` is contained in `V` iff there is a mapping `λ` from query edges to
//! sets of view edges such that for *every* data graph `G`, the match set
//! `Se ⊆ ⋃_{e' ∈ λ(e)} S_e'`. Proposition 7 characterizes this statically:
//! `Qs ⊑ V  ⇔  Ep = ⋃_{V ∈ V} M^Qs_V`, where the view match `M^Qs_V` is the
//! union of the match sets of `V(Qs)` — `V` evaluated over `Qs` treated as a
//! data graph. Theorem 1 then makes `λ` the plan `MatchJoin` executes.
//!
//! Complexity: `O(card(V)·|Qs|² + |V|² + |Qs||V|)` (Theorem 3) — independent
//! of `G` and of the materialized extensions.
//!
//! The view matches of all views live in one `ViewMatchTable`, built once
//! per query; `contain`, `partial_contain`, `minimal`, `minimum` and their
//! dual and bounded counterparts all read it, so the λ builder exists once.

use crate::view::ViewSet;
use gpv_matching::pattern_sim::{simulate_pattern, PatternSimResult};
use gpv_pattern::{Pattern, PatternEdgeId};
use serde::{Deserialize, Serialize};

/// One entry of the mapping `λ`: a view edge identified by view index and
/// edge id within that view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ViewEdgeRef {
    /// Index of the view in the [`ViewSet`].
    pub view: usize,
    /// Edge within that view's pattern.
    pub edge: PatternEdgeId,
}

/// The witness that `Qs ⊑ V`: the mapping `λ` plus bookkeeping, consumed by
/// `MatchJoin`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ContainmentPlan {
    /// `lambda[e]` = the view edges whose match sets cover query edge `e`
    /// (every entry's `S_eV ∋ e`; the union over entries ⊇ `Se` on any `G`).
    pub lambda: Vec<Vec<ViewEdgeRef>>,
    /// Indices of views that contribute at least one entry.
    pub used_views: Vec<usize>,
}

impl ContainmentPlan {
    /// The plan a `λ` describes: `None` when some query edge has no entry
    /// (`Qs` is not contained), otherwise `λ` with the ascending indices of
    /// the views it reads as [`Self::used_views`].
    pub(crate) fn from_lambda(lambda: Vec<Vec<ViewEdgeRef>>) -> Option<ContainmentPlan> {
        if lambda.iter().any(Vec::is_empty) {
            return None;
        }
        let mut used_views: Vec<usize> = lambda.iter().flatten().map(|r| r.view).collect();
        used_views.sort_unstable();
        used_views.dedup();
        Some(ContainmentPlan { lambda, used_views })
    }

    /// The view edges covering query edge `e`.
    pub fn covering(&self, e: PatternEdgeId) -> &[ViewEdgeRef] {
        &self.lambda[e.index()]
    }

    /// Restricts the plan to a subset of views (e.g. after `minimal` /
    /// `minimum` selection), dropping entries from other views. Returns
    /// `None` if some query edge loses all cover.
    pub fn restrict_to(&self, views: &[usize]) -> Option<ContainmentPlan> {
        let lambda = self
            .lambda
            .iter()
            .map(|entries| {
                entries
                    .iter()
                    .filter(|r| views.contains(&r.view))
                    .copied()
                    .collect()
            })
            .collect();
        ContainmentPlan::from_lambda(lambda)
    }
}

/// The view matches of every view into one query: what `contain`,
/// `partial_contain`, `minimal` and `minimum` — and their dual and bounded
/// counterparts — all read. Built once per query from per-view match sets
/// `S_eV`; only where those sets come from differs between the semantics:
/// [`simulate_pattern`] (plain), `simulate_pattern_dual` (dual, §VIII) or
/// the bounded view match of [`crate::bcontainment`] (§VI-B).
#[derive(Debug)]
pub(crate) struct ViewMatchTable {
    /// `covers[vi]` = query edges in `M^Qs_Vi` (sorted).
    pub covers: Vec<Vec<PatternEdgeId>>,
    /// `entries[vi]` = the `(query edge, view edge)` pairs witnessing
    /// `M^Qs_Vi`, ordered by view edge, then query edge.
    pub entries: Vec<Vec<(PatternEdgeId, ViewEdgeRef)>>,
    /// `|Ep|` of the query.
    pub edge_count: usize,
    /// Whether some query node has no incident edge. Views cover edges
    /// only, so no view set contains such a query.
    pub isolated: bool,
}

impl ViewMatchTable {
    /// The table over `q`, from each view's match sets (`per_view[vi][eV]`
    /// = `S_eV`; empty when the view does not simulate into the query).
    pub fn from_edge_matches(
        q: &Pattern,
        per_view: impl IntoIterator<Item = Vec<Vec<PatternEdgeId>>>,
    ) -> Self {
        let mut table = ViewMatchTable {
            covers: Vec::new(),
            entries: Vec::new(),
            edge_count: q.edge_count(),
            isolated: q.nodes().any(|u| q.is_isolated(u)),
        };
        for (view, sets) in per_view.into_iter().enumerate() {
            let entries: Vec<(PatternEdgeId, ViewEdgeRef)> = sets
                .iter()
                .enumerate()
                .flat_map(|(vei, qedges)| {
                    let edge = PatternEdgeId(vei as u32);
                    qedges
                        .iter()
                        .map(move |&qe| (qe, ViewEdgeRef { view, edge }))
                })
                .collect();
            let mut cover: Vec<PatternEdgeId> = entries.iter().map(|&(qe, _)| qe).collect();
            cover.sort_unstable();
            cover.dedup();
            table.covers.push(cover);
            table.entries.push(entries);
        }
        table
    }

    /// The plain table: view matches by [`simulate_pattern`].
    pub fn build(q: &Pattern, views: &ViewSet) -> Self {
        Self::simulated(q, views, simulate_pattern)
    }

    /// The table with view matches computed by `sim` (plain or dual
    /// pattern simulation).
    pub fn simulated(
        q: &Pattern,
        views: &ViewSet,
        sim: fn(&Pattern, &Pattern) -> Option<PatternSimResult>,
    ) -> Self {
        Self::from_edge_matches(
            q,
            views
                .iter()
                .map(|(_, v)| sim(&v.pattern, q).map_or_else(Vec::new, |s| s.edge_matches)),
        )
    }

    /// Number of views in the table.
    pub fn card(&self) -> usize {
        self.entries.len()
    }

    /// `λ` over the `selected` views (ascending): each query edge's entries
    /// ordered by view, then view edge — the order `smallest_cover` breaks
    /// ties by.
    pub fn lambda(&self, selected: impl IntoIterator<Item = usize>) -> Vec<Vec<ViewEdgeRef>> {
        let mut lambda = vec![Vec::new(); self.edge_count];
        for vi in selected {
            for &(qe, r) in &self.entries[vi] {
                lambda[qe.index()].push(r);
            }
        }
        lambda
    }

    /// `λ` over every view: the maximal coverage.
    pub fn full_lambda(&self) -> Vec<Vec<ViewEdgeRef>> {
        self.lambda(0..self.card())
    }

    /// Algorithm `contain` over the table: the full `λ`, when it covers
    /// every query edge and the query has no isolated node.
    pub fn contain(&self) -> Option<ContainmentPlan> {
        ContainmentPlan::from_lambda(self.full_lambda()).filter(|_| !self.isolated)
    }
}

/// The view match `M^Qs_V` of a single view into the query, as a sorted set
/// of covered query edges (empty when `V ⋬sim Qs`).
pub fn view_match(view: &Pattern, q: &Pattern) -> Vec<PatternEdgeId> {
    simulate_pattern(view, q)
        .map(|r| r.view_match())
        .unwrap_or_default()
}

/// Algorithm `contain` (Section V-A): decides `Qs ⊑ V` and, on success,
/// returns the mapping `λ` for `MatchJoin`.
pub fn contain(q: &Pattern, views: &ViewSet) -> Option<ContainmentPlan> {
    ViewMatchTable::build(q, views).contain()
}

/// Classical query containment `Qs1 ⊑ Qs2` (Corollary 4): the special case
/// of pattern containment with a single view. Quadratic time, in contrast to
/// NP-completeness for relational conjunctive queries.
pub fn query_contained(q1: &Pattern, q2: &Pattern) -> bool {
    let vs = ViewSet::new(vec![crate::view::ViewDef::new("q2", q2.clone())]);
    contain(q1, &vs).is_some()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::view::ViewDef;
    use gpv_pattern::{PatternBuilder, PatternNodeId};

    /// Paper Fig. 1(c).
    pub(crate) fn fig1c() -> Pattern {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba1 = b.node_labeled("DBA");
        let prg1 = b.node_labeled("PRG");
        let dba2 = b.node_labeled("DBA");
        let prg2 = b.node_labeled("PRG");
        b.edge(pm, dba1);
        b.edge(pm, prg2);
        b.edge(dba1, prg1);
        b.edge(prg1, dba2);
        b.edge(dba2, prg2);
        b.edge(prg2, dba1);
        b.build().unwrap()
    }

    /// Paper Fig. 1(d): V1 = PM -> {DBA, PRG}, V2 = DBA <-> PRG.
    pub(crate) fn fig1_views() -> ViewSet {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(pm, dba);
        b.edge(pm, prg);
        let v1 = b.build().unwrap();

        let mut b = PatternBuilder::new();
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(dba, prg);
        b.edge(prg, dba);
        let v2 = b.build().unwrap();
        ViewSet::new(vec![ViewDef::new("V1", v1), ViewDef::new("V2", v2)])
    }

    /// The paper's Fig. 4 query: A -> B, A -> C, B -> D, C -> D, B -> E.
    pub(crate) fn fig4_query() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        let e = b.node_labeled("E");
        b.edge(a, bb);
        b.edge(a, c);
        b.edge(bb, d);
        b.edge(c, d);
        b.edge(bb, e);
        b.build().unwrap()
    }

    /// The paper's Fig. 4 views V1..V7.
    pub(crate) fn fig4_views() -> ViewSet {
        // V1: C -> D
        let mut b = PatternBuilder::new();
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(c, d);
        let v1 = b.build().unwrap();
        // V2: B -> E
        let mut b = PatternBuilder::new();
        let bb = b.node_labeled("B");
        let e = b.node_labeled("E");
        b.edge(bb, e);
        let v2 = b.build().unwrap();
        // V3: A -> B, A -> C
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(a, c);
        let v3 = b.build().unwrap();
        // V4: B -> D, C -> D
        let mut b = PatternBuilder::new();
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(bb, d);
        b.edge(c, d);
        let v4 = b.build().unwrap();
        // V5: B -> D, B -> E
        let mut b = PatternBuilder::new();
        let bb = b.node_labeled("B");
        let d = b.node_labeled("D");
        let e = b.node_labeled("E");
        b.edge(bb, d);
        b.edge(bb, e);
        let v5 = b.build().unwrap();
        // V6: A -> B, A -> C, C -> D
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(a, bb);
        b.edge(a, c);
        b.edge(c, d);
        let v6 = b.build().unwrap();
        // V7: A -> B, A -> C, B -> D
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(a, bb);
        b.edge(a, c);
        b.edge(bb, d);
        let v7 = b.build().unwrap();

        ViewSet::new(vec![
            ViewDef::new("V1", v1),
            ViewDef::new("V2", v2),
            ViewDef::new("V3", v3),
            ViewDef::new("V4", v4),
            ViewDef::new("V5", v5),
            ViewDef::new("V6", v6),
            ViewDef::new("V7", v7),
        ])
    }

    fn edge(q: &Pattern, u: u32, v: u32) -> PatternEdgeId {
        q.edge_id(PatternNodeId(u), PatternNodeId(v)).unwrap()
    }

    #[test]
    fn example_3_containment() {
        let q = fig1c();
        let views = fig1_views();
        let plan = contain(&q, &views).expect("Qs ⊑ {V1, V2}");
        assert_eq!(plan.used_views, vec![0, 1]);
        // (PM,DBA1) covered by V1 only.
        let c = plan.covering(edge(&q, 0, 1));
        assert!(c.iter().all(|r| r.view == 0));
        // Cycle edges covered by V2 only.
        let c = plan.covering(edge(&q, 1, 2));
        assert!(c.iter().all(|r| r.view == 1));
    }

    #[test]
    fn example_5_fig4_view_matches() {
        // The paper's table of view matches for Fig. 4.
        let q = fig4_query();
        let views = fig4_views();
        let e = |u, v| edge(&q, u, v);
        let expect: Vec<Vec<PatternEdgeId>> = vec![
            vec![e(2, 3)],                   // V1: {(C,D)}
            vec![e(1, 4)],                   // V2: {(B,E)}
            vec![e(0, 1), e(0, 2)],          // V3: {(A,B), (A,C)}
            vec![e(1, 3), e(2, 3)],          // V4: {(B,D), (C,D)}
            vec![e(1, 3), e(1, 4)],          // V5: {(B,D), (B,E)}
            vec![e(0, 1), e(0, 2), e(2, 3)], // V6
            vec![e(0, 1), e(0, 2), e(1, 3)], // V7
        ];
        for (i, want) in expect.iter().enumerate() {
            let mut got = view_match(&views.get(i).pattern, &q);
            got.sort_unstable();
            let mut want = want.clone();
            want.sort_unstable();
            assert_eq!(got, want, "view V{}", i + 1);
        }
        // And the union covers Ep: Qs ⊑ V.
        assert!(contain(&q, &views).is_some());
    }

    #[test]
    fn not_contained_when_edge_uncovered() {
        let q = fig4_query();
        // Only V1 (C->D) and V2 (B->E): (A,B), (A,C), (B,D) uncovered.
        let views = fig4_views().subset(&[0, 1]);
        assert!(contain(&q, &views).is_none());
    }

    #[test]
    fn empty_view_set() {
        let q = fig4_query();
        assert!(contain(&q, &ViewSet::default()).is_none());
    }

    #[test]
    fn query_containment_reflexive() {
        let q = fig4_query();
        assert!(query_contained(&q, &q));
    }

    #[test]
    fn query_containment_asymmetric() {
        // Q1: A -> B; Q2: A -> B, B -> C.
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        b.edge(a, bb);
        let q1 = b.build().unwrap();

        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        let q2 = b.build().unwrap();

        // Q2's matches of (A,B) are a subset of Q1's: Q2 ⊑ Q1? For Q2 ⊑ Q1
        // we need every Q2 edge covered by Q1's view match into Q2 — Q1 is
        // A->B which simulates into Q2 covering only (A,B), not (B,C).
        assert!(!query_contained(&q2, &q1));
        // Q1 ⊑ Q2: Q2 must simulate into Q1; Q2 needs B -> C which Q1
        // lacks, so no.
        assert!(!query_contained(&q1, &q2));
    }

    #[test]
    fn restrict_plan() {
        let q = fig4_query();
        let views = fig4_views();
        let plan = contain(&q, &views).unwrap();
        // V5 ∪ V6 covers everything (the paper's minimum).
        let sub = plan.restrict_to(&[4, 5]).expect("V5+V6 suffice");
        assert_eq!(sub.used_views, vec![4, 5]);
        for e in 0..q.edge_count() {
            assert!(!sub.lambda[e].is_empty());
        }
        // V1 + V2 alone do not cover.
        assert!(plan.restrict_to(&[0, 1]).is_none());
    }

    #[test]
    fn lambda_entries_really_cover() {
        // Every λ entry (vi, eV) must actually list e in S_eV of V(Qs).
        let q = fig4_query();
        let views = fig4_views();
        let plan = contain(&q, &views).unwrap();
        for (ei, entries) in plan.lambda.iter().enumerate() {
            for r in entries {
                let sim = simulate_pattern(&views.get(r.view).pattern, &q).unwrap();
                assert!(
                    sim.edge_matches[r.edge.index()].contains(&PatternEdgeId(ei as u32)),
                    "λ entry does not witness coverage"
                );
            }
        }
    }
}
