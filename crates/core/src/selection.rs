//! Workload-driven view selection (extension).
//!
//! The paper's first future-work item: "decide what views to cache such
//! that a set of frequently used pattern queries can be answered by using
//! the views". Given a candidate view catalogue, a query workload (with
//! optional frequencies) and a budget on how many views may be cached, the
//! greedy selector repeatedly caches the view whose addition fully answers
//! the most (weighted) additional queries, breaking ties by how many new
//! query edges it covers.
//!
//! Like the paper's `minimum`, this is a greedy approximation to an
//! NP-complete cover-style problem (it generalizes MMCP: with a single
//! query and budget `card(V)` it degenerates to minimum containment).

use crate::containment::ViewMatchTable;
use crate::view::ViewSet;
use gpv_pattern::Pattern;

/// Outcome of [`select_views_for_workload`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSelection {
    /// Chosen view indices (ascending).
    pub views: Vec<usize>,
    /// Which queries are fully answerable from the chosen views.
    pub answered: Vec<bool>,
    /// Total weight of answered queries.
    pub answered_weight: f64,
}

/// Greedy selection of at most `budget` views from `catalogue` maximizing
/// the (weighted) number of fully-answered workload queries.
///
/// `weights` defaults to uniform when `None`; its length must match the
/// workload otherwise.
///
/// ```
/// use gpv_core::selection::select_views_for_workload;
/// use gpv_core::view::{ViewDef, ViewSet};
/// use gpv_pattern::PatternBuilder;
///
/// let single = |x: &str, y: &str| {
///     let mut b = PatternBuilder::new();
///     let u = b.node_labeled(x);
///     let v = b.node_labeled(y);
///     b.edge(u, v);
///     b.build().unwrap()
/// };
/// let catalogue = ViewSet::new(vec![
///     ViewDef::new("ab", single("A", "B")),
///     ViewDef::new("xy", single("X", "Y")),
/// ]);
/// let workload = [single("A", "B")];
/// let sel = select_views_for_workload(&workload, &catalogue, 1, None);
/// assert_eq!(sel.views, vec![0]); // "ab" answers the whole workload
/// assert!(sel.answered[0]);
/// ```
pub fn select_views_for_workload(
    workload: &[Pattern],
    catalogue: &ViewSet,
    budget: usize,
    weights: Option<&[f64]>,
) -> WorkloadSelection {
    let nq = workload.len();
    let w = |i: usize| weights.map_or(1.0, |ws| ws[i]);
    if let Some(ws) = weights {
        assert_eq!(ws.len(), nq, "one weight per workload query");
    }

    // Per-query view-match tables (each row: which query edges each
    // catalogue view covers).
    let tables: Vec<ViewMatchTable> = workload
        .iter()
        .map(|q| ViewMatchTable::build(q, catalogue))
        .collect();

    // covered[qi][e] for each query.
    let mut covered: Vec<Vec<bool>> = workload
        .iter()
        .map(|q| vec![false; q.edge_count()])
        .collect();
    let mut chosen: Vec<usize> = Vec::new();
    let mut available: Vec<usize> = (0..catalogue.card()).collect();

    for _ in 0..budget.min(catalogue.card()) {
        // Score each available view: (weight of queries completed, edges
        // newly covered).
        let mut best: Option<(usize, f64, usize)> = None; // (pos, wq, edges)
        for (pos, &vi) in available.iter().enumerate() {
            let mut completed_weight = 0.0;
            let mut new_edges = 0usize;
            for (qi, q) in workload.iter().enumerate() {
                let cover = &tables[qi].covers[vi];
                let newly: Vec<usize> = cover
                    .iter()
                    .map(|e| e.index())
                    .filter(|&e| !covered[qi][e])
                    .collect();
                new_edges += newly.len();
                if !newly.is_empty() {
                    let would_complete =
                        (0..q.edge_count()).all(|e| covered[qi][e] || newly.contains(&e));
                    if would_complete {
                        completed_weight += w(qi);
                    }
                }
            }
            let better = match best {
                None => true,
                Some((_, bw, be)) => {
                    completed_weight > bw || (completed_weight == bw && new_edges > be)
                }
            };
            if better {
                best = Some((pos, completed_weight, new_edges));
            }
        }
        let Some((pos, _, gain_edges)) = best else {
            break;
        };
        if gain_edges == 0 {
            break; // Nothing left to gain.
        }
        let vi = available.swap_remove(pos);
        chosen.push(vi);
        for (qi, table) in tables.iter().enumerate() {
            for e in &table.covers[vi] {
                covered[qi][e.index()] = true;
            }
        }
    }

    chosen.sort_unstable();
    let answered: Vec<bool> = covered
        .iter()
        .map(|c| !c.is_empty() && c.iter().all(|&b| b))
        .collect();
    let answered_weight = answered
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(i, _)| w(i))
        .sum();
    WorkloadSelection {
        views: chosen,
        answered,
        answered_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
    use crate::view::ViewDef;
    use gpv_pattern::PatternBuilder;

    fn single(x: &str, y: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        b.build().unwrap()
    }

    fn chain(labels: &[&str]) -> Pattern {
        let mut b = PatternBuilder::new();
        let ids: Vec<_> = labels.iter().map(|l| b.node_labeled(l)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    fn catalogue() -> ViewSet {
        ViewSet::new(vec![
            ViewDef::new("ab", single("A", "B")),
            ViewDef::new("bc", single("B", "C")),
            ViewDef::new("cd", single("C", "D")),
            ViewDef::new("xy", single("X", "Y")),
        ])
    }

    #[test]
    fn budget_respected_and_answers_maximized() {
        let workload = vec![
            chain(&["A", "B"]),
            chain(&["A", "B", "C"]),
            chain(&["X", "Y"]),
        ];
        let sel = select_views_for_workload(&workload, &catalogue(), 2, None);
        assert!(sel.views.len() <= 2);
        // Greedy: "ab" completes Q1 (and helps Q2); then "bc" completes Q2 —
        // or "xy" completes Q3 (ties broken by edge gain → "bc" vs "xy" both
        // complete one query and cover one edge; either is a valid greedy
        // outcome, but the scan order makes it deterministic).
        assert!(sel.answered[0]);
        let answered = sel.answered.iter().filter(|&&a| a).count();
        assert_eq!(answered, 2, "two queries answerable within budget 2");
    }

    #[test]
    fn chosen_views_actually_answer() {
        let workload = vec![chain(&["A", "B", "C"]), chain(&["B", "C", "D"])];
        let sel = select_views_for_workload(&workload, &catalogue(), 3, None);
        let sub = catalogue().subset(&sel.views);
        for (qi, q) in workload.iter().enumerate() {
            assert_eq!(sel.answered[qi], contain(q, &sub).is_some(), "query {qi}");
        }
    }

    #[test]
    fn weights_steer_selection() {
        let workload = vec![chain(&["A", "B"]), chain(&["X", "Y"])];
        // Heavy weight on the X->Y query: with budget 1, pick "xy".
        let sel = select_views_for_workload(&workload, &catalogue(), 1, Some(&[1.0, 10.0]));
        assert_eq!(sel.views, vec![3]);
        assert!(!sel.answered[0] && sel.answered[1]);
        assert_eq!(sel.answered_weight, 10.0);
    }

    #[test]
    fn zero_budget() {
        let workload = vec![chain(&["A", "B"])];
        let sel = select_views_for_workload(&workload, &catalogue(), 0, None);
        assert!(sel.views.is_empty());
        assert!(!sel.answered[0]);
    }

    #[test]
    fn stops_when_nothing_gains() {
        // Workload entirely outside the catalogue's vocabulary.
        let workload = vec![chain(&["P", "Q"])];
        let sel = select_views_for_workload(&workload, &catalogue(), 4, None);
        assert!(sel.views.is_empty());
        assert_eq!(sel.answered_weight, 0.0);
    }

    #[test]
    fn degenerates_to_minimum_for_single_query() {
        use crate::minimum::minimum;
        let q = chain(&["A", "B", "C"]);
        let cat = catalogue();
        let sel = select_views_for_workload(std::slice::from_ref(&q), &cat, cat.card(), None);
        let min = minimum(&q, &cat).expect("contained");
        assert_eq!(sel.views.len(), min.views.len());
    }
}
