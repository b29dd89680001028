//! Minimum containment (MMCP) — algorithm `minimum`
//! (paper Section V-C).
//!
//! Finding a *minimum-cardinality* subset of `V` containing `Qs` is
//! NP-complete and APX-hard (Theorem 6, by reduction from set cover), but
//! greedily picking the view whose view match covers the most uncovered
//! query edges achieves the classic `O(log |Ep|)` approximation ratio, in
//! `O(card(V)|Qs|² + |V|² + |Qs||V| + (|Qs|·card(V))^{3/2})` time.

use crate::containment::ViewMatchTable;
use crate::minimal::Selection;
use crate::view::ViewSet;
use gpv_pattern::Pattern;

/// Algorithm `minimum`: greedy set-cover selection of views. Returns `None`
/// when `Qs ⋢ V`; otherwise the selection satisfies
/// `card(V') ≤ log(|Ep|) · card(V_OPT)`.
pub fn minimum(q: &Pattern, views: &ViewSet) -> Option<Selection> {
    minimum_from_table(&ViewMatchTable::build(q, views))
}

/// [`minimum`] over an already-built table — plain, dual or bounded (the
/// engine builds the table once per query; `bminimum` is this same greedy
/// pass over the bounded view matches).
pub(crate) fn minimum_from_table(table: &ViewMatchTable) -> Option<Selection> {
    let ne = table.edge_count;

    let mut covered = vec![false; ne];
    let mut covered_count = 0usize;
    let mut available: Vec<usize> = (0..table.card()).collect();
    let mut selected: Vec<usize> = Vec::new();

    while covered_count < ne {
        // α(V) = |M^Qs_V \ Ec| / |Ep|: pick the view covering the most
        // uncovered edges (the denominator is constant, so compare
        // numerators; ties resolve to the lower index, matching a stable
        // scan).
        let (best_pos, best_gain) = available
            .iter()
            .enumerate()
            .map(|(pos, &vi)| {
                let gain = table.covers[vi]
                    .iter()
                    .filter(|e| !covered[e.index()])
                    .count();
                (pos, gain)
            })
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
        if best_gain == 0 {
            return None; // Remaining views add nothing: Qs ⋢ V.
        }
        let vi = available.swap_remove(best_pos);
        selected.push(vi);
        for e in &table.covers[vi] {
            if !covered[e.index()] {
                covered[e.index()] = true;
                covered_count += 1;
            }
        }
    }

    selected.sort_unstable();
    Selection::of(table, selected)
}

/// The paper's metric `α(V) = |M^Qs_V \ Ec| / |Ep|` for a single view given
/// an already-covered edge set; exposed for tests and the benchmark harness.
pub fn alpha(q: &Pattern, views: &ViewSet, view: usize, covered: &[bool]) -> f64 {
    let table = ViewMatchTable::build(q, views);
    let gain = table.covers[view]
        .iter()
        .filter(|e| !covered[e.index()])
        .count();
    gain as f64 / q.edge_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
    use crate::minimal::minimal;
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
        let mut views = Vec::new();
        views.push(ViewDef::new("V1", single_edge("C", "D")));
        views.push(ViewDef::new("V2", single_edge("B", "E")));
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(a, c);
        views.push(ViewDef::new("V3", b.build().unwrap()));
        let mut b = PatternBuilder::new();
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(bb, d);
        b.edge(c, d);
        views.push(ViewDef::new("V4", b.build().unwrap()));
        let mut b = PatternBuilder::new();
        let bb = b.node_labeled("B");
        let d = b.node_labeled("D");
        let e = b.node_labeled("E");
        b.edge(bb, d);
        b.edge(bb, e);
        views.push(ViewDef::new("V5", b.build().unwrap()));
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(a, bb);
        b.edge(a, c);
        b.edge(c, d);
        views.push(ViewDef::new("V6", b.build().unwrap()));
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        let d = b.node_labeled("D");
        b.edge(a, bb);
        b.edge(a, c);
        b.edge(bb, d);
        views.push(ViewDef::new("V7", b.build().unwrap()));
        ViewSet::new(views)
    }

    #[test]
    fn paper_example_7() {
        // Greedy picks V6 (α = 3/5 = 0.6), then V5 (α = 2/5 = 0.4):
        // V' = {V5, V6}.
        let sel = minimum(&fig4_query(), &fig4_views()).expect("contained");
        assert_eq!(sel.views, vec![4, 5], "paper: {{V5, V6}}");
    }

    #[test]
    fn minimum_not_larger_than_minimal_here() {
        let q = fig4_query();
        let views = fig4_views();
        let mnl = minimal(&q, &views).unwrap();
        let min = minimum(&q, &views).unwrap();
        assert!(min.views.len() <= mnl.views.len());
        assert_eq!(min.views.len(), 2);
        assert_eq!(mnl.views.len(), 3);
    }

    #[test]
    fn alpha_values_match_paper() {
        let q = fig4_query();
        let views = fig4_views();
        let none = vec![false; q.edge_count()];
        assert!(
            (alpha(&q, &views, 5, &none) - 0.6).abs() < 1e-9,
            "α(V6)=0.6"
        );
        assert!(
            (alpha(&q, &views, 0, &none) - 0.2).abs() < 1e-9,
            "α(V1)=0.2"
        );
    }

    #[test]
    fn not_contained_returns_none() {
        let q = fig4_query();
        let views = fig4_views().subset(&[0, 1]);
        assert!(minimum(&q, &views).is_none());
    }

    #[test]
    fn plan_valid_and_within_ratio() {
        let q = fig4_query();
        let views = fig4_views();
        let sel = minimum(&q, &views).unwrap();
        // Plan consistency.
        assert!(contain(&q, &views.subset(&sel.views)).is_some());
        // log ratio sanity: |Ep| = 5, OPT = 2 ⇒ bound ≈ 2·log2(5) ≈ 4.6.
        assert!(sel.views.len() as f64 <= 2.0 * (q.edge_count() as f64).log2().max(1.0));
    }

    #[test]
    fn empty_views() {
        assert!(minimum(&fig4_query(), &ViewSet::default()).is_none());
    }
}
