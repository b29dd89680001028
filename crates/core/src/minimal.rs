//! Minimal containment — algorithm `minimal` (paper Fig. 5, Section V-B).
//!
//! Finds a subset `V' ⊆ V` that contains `Qs` such that no proper subset of
//! `V'` does. Quadratic time (Theorem 5): the cost is dominated by computing
//! the view matches once per view; the redundancy-elimination pass is
//! `O(card(V)·|Qs|)` using the edge→views index `M`.
//!
//! The pass reads only the per-view covers of the shared view-match table
//! (see [`crate::containment`]), so the bounded `bminimal` (§VI-B) runs
//! this same implementation over bounded view matches.

use crate::containment::{ContainmentPlan, ViewMatchTable};
use crate::view::ViewSet;
use gpv_pattern::Pattern;

/// Result of minimal/minimum containment selection.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// Indices of the selected views (ascending).
    pub views: Vec<usize>,
    /// A containment plan whose `λ` uses only the selected views.
    pub plan: ContainmentPlan,
}

impl Selection {
    /// The selection of `views` (ascending) over `table`, with the plan
    /// reading exactly their entries. `None` when the query has an
    /// isolated node, which no selection contains.
    pub(crate) fn of(table: &ViewMatchTable, views: Vec<usize>) -> Option<Selection> {
        let plan = ContainmentPlan::from_lambda(table.lambda(views.iter().copied()))
            .expect("a selection covers Qs");
        (!table.isolated).then_some(Selection { views, plan })
    }
}

/// Algorithm `minimal` (Fig. 5): returns a minimally containing subset and
/// its plan, or `None` when `Qs ⋢ V`.
pub fn minimal(q: &Pattern, views: &ViewSet) -> Option<Selection> {
    minimal_from_table(&ViewMatchTable::build(q, views))
}

/// [`minimal`] over an already-built table — plain, dual or bounded: the
/// engine builds the table once per query and shares it across
/// `contain`/`minimal`/`minimum`, and `bminimal` is this same pass over the
/// bounded view matches (Theorem 10).
pub(crate) fn minimal_from_table(table: &ViewMatchTable) -> Option<Selection> {
    let ne = table.edge_count;
    let view_count = table.card();

    // Phase 1 (lines 2-7): greedily keep views contributing new edges,
    // stopping as soon as E = Ep.
    let mut selected: Vec<usize> = Vec::new();
    let mut covered = vec![false; ne];
    let mut covered_count = 0usize;
    // M: for each edge, which *selected* views cover it.
    let mut m: Vec<Vec<usize>> = vec![Vec::new(); ne];
    for (vi, cover) in table.covers.iter().enumerate() {
        let contributes_new = cover.iter().any(|e| !covered[e.index()]);
        if !contributes_new {
            continue;
        }
        selected.push(vi);
        for e in cover {
            if !covered[e.index()] {
                covered[e.index()] = true;
                covered_count += 1;
            }
            m[e.index()].push(vi);
        }
        if covered_count == ne {
            break;
        }
    }
    if covered_count != ne {
        return None; // line 8: Qs ⋢ V.
    }

    // Phase 2 (lines 9-11): eliminate redundant views. Removing Vj is safe
    // iff no edge in M^Qs_Vj would be left with an empty M(e).
    let mut kept: Vec<bool> = vec![true; view_count];
    for &vj in &selected {
        let needed = table.covers[vj].iter().any(|e| {
            m[e.index()].iter().filter(|&&v| kept[v]).count() == 1
                && m[e.index()].iter().any(|&v| v == vj && kept[v])
        });
        if !needed {
            kept[vj] = false;
            // Update M lazily via the `kept` mask.
        }
    }
    let final_views: Vec<usize> = selected.into_iter().filter(|&v| kept[v]).collect();
    Selection::of(table, final_views)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
    use crate::view::ViewDef;
    use gpv_pattern::PatternBuilder;

    fn fig4_query() -> Pattern {
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

    fn single_edge(from: &str, to: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let x = b.node_labeled(from);
        let y = b.node_labeled(to);
        b.edge(x, y);
        b.build().unwrap()
    }

    fn fig4_views() -> ViewSet {
        let v1 = single_edge("C", "D");
        let v2 = single_edge("B", "E");
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(a, c);
        let v3 = b.build().unwrap();
        let mut b = PatternBuilder::new();
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(bb, d);
        b.edge(c, d);
        let v4 = b.build().unwrap();
        let mut b = PatternBuilder::new();
        let bb = b.node_labeled("B");
        let d = b.node_labeled("D");
        let e = b.node_labeled("E");
        b.edge(bb, d);
        b.edge(bb, e);
        let v5 = b.build().unwrap();
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(a, bb);
        b.edge(a, c);
        b.edge(c, d);
        let v6 = b.build().unwrap();
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

    #[test]
    fn paper_example_6() {
        // minimal scans V1..V4, finds E = Ep, then drops the redundant V1
        // (its only edge (C,D) is also covered by V4), returning {V2,V3,V4}.
        let sel = minimal(&fig4_query(), &fig4_views()).expect("contained");
        assert_eq!(sel.views, vec![1, 2, 3], "paper: {{V2, V3, V4}}");
    }

    #[test]
    fn minimal_plan_is_consistent() {
        let q = fig4_query();
        let sel = minimal(&q, &fig4_views()).unwrap();
        for e in 0..q.edge_count() {
            assert!(!sel.plan.lambda[e].is_empty());
            for r in &sel.plan.lambda[e] {
                assert!(sel.views.contains(&r.view));
            }
        }
    }

    #[test]
    fn minimal_is_irreducible() {
        // Dropping any selected view must break containment.
        let q = fig4_query();
        let views = fig4_views();
        let sel = minimal(&q, &views).unwrap();
        for skip in &sel.views {
            let rest: Vec<usize> = sel.views.iter().copied().filter(|v| v != skip).collect();
            let sub = views.subset(&rest);
            assert!(
                contain(&q, &sub).is_none(),
                "dropping view {skip} should break containment"
            );
        }
    }

    #[test]
    fn not_contained_returns_none() {
        let q = fig4_query();
        let views = fig4_views().subset(&[0, 1]); // V1, V2 only
        assert!(minimal(&q, &views).is_none());
    }

    #[test]
    fn single_view_exact_cover() {
        let q = single_edge("A", "B");
        let views = ViewSet::new(vec![
            ViewDef::new("Vx", single_edge("X", "Y")),
            ViewDef::new("Vab", single_edge("A", "B")),
        ]);
        let sel = minimal(&q, &views).unwrap();
        assert_eq!(sel.views, vec![1]);
    }

    #[test]
    fn duplicate_views_keep_one() {
        let q = single_edge("A", "B");
        let views = ViewSet::new(vec![
            ViewDef::new("Va", single_edge("A", "B")),
            ViewDef::new("Vb", single_edge("A", "B")),
        ]);
        let sel = minimal(&q, &views).unwrap();
        assert_eq!(sel.views.len(), 1);
    }
}
