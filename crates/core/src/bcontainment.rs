//! Bounded pattern containment: `Bcontain`, `Bminimal`, `Bminimum`
//! (paper Section VI-B).
//!
//! View matches for bounded patterns treat `Qb` as a weighted data graph
//! (edge weight = `fe(e)`). A view `V` is first simulated into weighted `Qb`
//! (node-level bounded simulation over weighted distances); the view match
//! `M^Qb_V` then contains every query edge `e = (u, u')` such that some view
//! edge `eV = (x, x')` has `u ∈ sim(x)`, `u' ∈ sim(x')` and `fe(e)` within
//! `eV`'s bound.
//!
//! The extra `fe(e) ≤ k` requirement (DESIGN.md §S4) keeps coverage *sound*:
//! a match `(v, v')` of `e` in `G` only guarantees `dist_G(v, v') ≤ fe(e)`,
//! so a view edge with a smaller bound — even one admitted by a shorter
//! alternative path in `Qb` — need not contain it. The criteria coincide
//! whenever the direct edge is a weighted shortest path, which holds in all
//! the paper's examples (e.g. Example 9 rejects V7 because
//! `dist(C, D) = 3 > 2`).
//!
//! Only the view match is bounded: the matches fill the same view-match
//! table as the plain case (see [`crate::containment`]), and `Bcontain`,
//! `Bminimal` and `Bminimum` are the plain `contain`, `minimal` and
//! `minimum` over it.
//!
//! The weighted distances and reachability between query nodes depend on
//! `Qb` alone, so one table computes both matrices once
//! ([`QueryDistances`]) and every view's simulation reads them.
//!
//! Complexity: `O(|Qb|²|V|)` for `Bcontain`/`Bminimal` (Theorem 10), up from
//! quadratic in the unweighted case.

use crate::bview::BoundedViewSet;
use crate::containment::{ContainmentPlan, ViewMatchTable};
use crate::minimal::{minimal_from_table, Selection};
use crate::minimum::minimum_from_table;
use gpv_matching::bounded_pattern_sim::{simulate_bounded_pattern_with, QueryDistances};
use gpv_matching::pattern_sim::edge_match_sets;
use gpv_pattern::{BoundedPattern, PatternEdgeId};

/// The bounded view match `M^Qb_V` as per-view-edge match sets: `S_eV`
/// holds the query edges `e = (u, u')` with `u ∈ sim(x)`, `u' ∈ sim(x')`
/// and `fe(e)` within `eV`'s bound (empty when `V` does not simulate into
/// `Qb`).
fn bounded_view_match_entries(
    view: &BoundedPattern,
    qb: &BoundedPattern,
    dists: &QueryDistances,
) -> Vec<Vec<PatternEdgeId>> {
    let Some(cand) = simulate_bounded_pattern_with(view, qb, dists) else {
        return Vec::new();
    };
    edge_match_sets(view.pattern(), qb.pattern(), &cand, |ve, qe| {
        qb.bound(qe).within(view.bound(ve))
    })
}

/// `M^Qb_V` as a sorted set of covered query edges.
pub fn bounded_view_match(view: &BoundedPattern, qb: &BoundedPattern) -> Vec<PatternEdgeId> {
    let mut edges = bounded_view_match_entries(view, qb, &QueryDistances::new(qb)).concat();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The view-match table over bounded view matches: what `Bcontain`,
/// `Bminimal` and `Bminimum` (and the engine's bounded planner) read. The
/// query's distance matrices are computed once and shared by every view.
pub(crate) fn bounded_table(qb: &BoundedPattern, views: &BoundedViewSet) -> ViewMatchTable {
    let dists = QueryDistances::new(qb);
    ViewMatchTable::from_edge_matches(
        qb.pattern(),
        views
            .iter()
            .map(|(_, v)| bounded_view_match_entries(&v.pattern, qb, &dists)),
    )
}

/// `Bcontain`: decides `Qb ⊑ V` (Proposition 11) and returns λ on success.
pub fn bcontain(qb: &BoundedPattern, views: &BoundedViewSet) -> Option<ContainmentPlan> {
    bounded_table(qb, views).contain()
}

/// `Bminimal`: minimal containing subset (Theorem 10(2)) — `minimal` over
/// the bounded view matches.
pub fn bminimal(qb: &BoundedPattern, views: &BoundedViewSet) -> Option<Selection> {
    minimal_from_table(&bounded_table(qb, views))
}

/// `Bminimum`: greedy set-cover approximation of the minimum containing
/// subset (Theorem 10(3): NP-complete exactly, `O(log |Ep|)`-approximable)
/// — `minimum` over the bounded view matches.
pub fn bminimum(qb: &BoundedPattern, views: &BoundedViewSet) -> Option<Selection> {
    minimum_from_table(&bounded_table(qb, views))
}

/// Bounded query containment `Qb1 ⊑ Qb2` (single-view special case).
pub fn bounded_query_contained(q1: &BoundedPattern, q2: &BoundedPattern) -> bool {
    let vs = BoundedViewSet::new(vec![crate::bview::BoundedViewDef::new("q2", q2.clone())]);
    bcontain(q1, &vs).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bview::BoundedViewDef;
    use gpv_pattern::{PatternBuilder, PatternNodeId};

    /// A bounded query in the spirit of Fig. 6: A -\[3\]-> B, A -\[3\]-> C,
    /// B -\[3\]-> D, C -\[3\]-> D, B -\[2\]-> E.
    fn qb() -> BoundedPattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        let e = b.node_labeled("E");
        b.edge_bounded(a, bb, 3);
        b.edge_bounded(a, c, 3);
        b.edge_bounded(bb, d, 3);
        b.edge_bounded(c, d, 3);
        b.edge_bounded(bb, e, 2);
        b.build_bounded().unwrap()
    }

    fn bview(edges: &[(&str, &str, Option<u32>)]) -> BoundedViewDef {
        let mut b = PatternBuilder::new();
        let mut ids = std::collections::HashMap::new();
        for &(x, y, _) in edges {
            ids.entry(x.to_string())
                .or_insert_with(|| b.node_labeled(x));
            ids.entry(y.to_string())
                .or_insert_with(|| b.node_labeled(y));
        }
        for &(x, y, k) in edges {
            match k {
                Some(k) => b.edge_bounded(ids[x], ids[y], k),
                None => b.edge_unbounded(ids[x], ids[y]),
            }
        }
        BoundedViewDef::new("V", b.build_bounded().unwrap())
    }

    #[test]
    fn covers_with_looser_bounds() {
        // Views with bounds ≥ the query's cover it.
        let views = BoundedViewSet::new(vec![
            bview(&[("A", "B", Some(3)), ("A", "C", Some(4))]),
            bview(&[("B", "D", Some(3)), ("C", "D", Some(5))]),
            bview(&[("B", "E", Some(2))]),
        ]);
        let plan = bcontain(&qb(), &views).expect("contained");
        assert_eq!(plan.used_views, vec![0, 1, 2]);
    }

    #[test]
    fn used_views_lists_only_contributing_views() {
        // View 1 (X -> Y) matches nothing in Qb: it contributes no λ entry,
        // so it is not a used view.
        let views = BoundedViewSet::new(vec![
            bview(&[("A", "B", Some(3)), ("A", "C", Some(3))]),
            bview(&[("X", "Y", Some(3))]),
            bview(&[("B", "D", Some(3)), ("C", "D", Some(3))]),
            bview(&[("B", "E", Some(2))]),
        ]);
        let plan = bcontain(&qb(), &views).expect("contained");
        assert_eq!(plan.used_views, vec![0, 2, 3]);
    }

    #[test]
    fn tighter_view_bound_does_not_cover() {
        // (B,E) has fe = 2; a view with bound 1 cannot cover it.
        let views = BoundedViewSet::new(vec![
            bview(&[("A", "B", Some(3)), ("A", "C", Some(3))]),
            bview(&[("B", "D", Some(3)), ("C", "D", Some(3))]),
            bview(&[("B", "E", Some(1))]),
        ]);
        assert!(bcontain(&qb(), &views).is_none());
    }

    #[test]
    fn example_9_style_distance_rejection() {
        // View V7-style: C -[2]-> D, but the query's C-D edge has weight 3:
        // M^Qb_V excludes (C,D).
        let v = bview(&[("C", "D", Some(2))]);
        let m = bounded_view_match(&v.pattern, &qb());
        assert!(m.is_empty(), "distance from C to D in Qb is 3 > 2");
        // With bound 3 it covers.
        let v = bview(&[("C", "D", Some(3))]);
        let m = bounded_view_match(&v.pattern, &qb());
        let cd = qb()
            .pattern()
            .edge_id(PatternNodeId(2), PatternNodeId(3))
            .unwrap();
        assert_eq!(m, vec![cd]);
    }

    #[test]
    fn star_view_edges_cover_everything_reachable() {
        let views = BoundedViewSet::new(vec![
            bview(&[("A", "B", None), ("A", "C", None)]),
            bview(&[("B", "D", None), ("C", "D", None), ("B", "E", None)]),
        ]);
        assert!(bcontain(&qb(), &views).is_some());
    }

    #[test]
    fn bminimal_removes_redundant() {
        let views = BoundedViewSet::new(vec![
            bview(&[("C", "D", Some(3))]), // redundant with the big view
            bview(&[("A", "B", Some(3)), ("A", "C", Some(3))]),
            bview(&[("B", "D", Some(3)), ("C", "D", Some(3))]),
            bview(&[("B", "E", Some(2))]),
        ]);
        let sel = bminimal(&qb(), &views).expect("contained");
        assert_eq!(sel.views, vec![1, 2, 3], "V1 is redundant");
    }

    #[test]
    fn bminimum_prefers_big_covers() {
        let views = BoundedViewSet::new(vec![
            bview(&[("A", "B", Some(3))]),
            bview(&[("A", "C", Some(3))]),
            bview(&[("B", "D", Some(3))]),
            bview(&[("C", "D", Some(3))]),
            bview(&[("B", "E", Some(2))]),
            // One view covering four edges.
            bview(&[
                ("A", "B", Some(3)),
                ("A", "C", Some(3)),
                ("B", "D", Some(3)),
                ("C", "D", Some(3)),
            ]),
        ]);
        let min = bminimum(&qb(), &views).expect("contained");
        assert_eq!(min.views, vec![4, 5], "big view + (B,E)");
        let mnl = bminimal(&qb(), &views).expect("contained");
        assert!(min.views.len() <= mnl.views.len());
    }

    #[test]
    fn plain_case_reduces_to_unbounded_containment() {
        use crate::containment::contain;
        use crate::view::{ViewDef, ViewSet};
        // With all bounds = 1, bcontain must agree with contain.
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        let q = b.build().unwrap();

        let mk = |edges: &[(&str, &str)]| {
            let mut b = PatternBuilder::new();
            let mut ids = std::collections::HashMap::new();
            for &(x, y) in edges {
                ids.entry(x.to_string())
                    .or_insert_with(|| b.node_labeled(x));
                ids.entry(y.to_string())
                    .or_insert_with(|| b.node_labeled(y));
            }
            for &(x, y) in edges {
                b.edge(ids[x], ids[y]);
            }
            b.build().unwrap()
        };
        let v_ab = mk(&[("A", "B")]);
        let v_bc = mk(&[("B", "C")]);

        let plain = ViewSet::new(vec![
            ViewDef::new("V1", v_ab.clone()),
            ViewDef::new("V2", v_bc.clone()),
        ]);
        let bounded = BoundedViewSet::new(vec![
            BoundedViewDef::new("V1", BoundedPattern::from_pattern(v_ab)),
            BoundedViewDef::new("V2", BoundedPattern::from_pattern(v_bc)),
        ]);
        let qbd = BoundedPattern::from_pattern(q.clone());
        assert_eq!(
            contain(&q, &plain).is_some(),
            bcontain(&qbd, &bounded).is_some()
        );
        assert!(bounded_query_contained(&qbd, &qbd));
    }
}
