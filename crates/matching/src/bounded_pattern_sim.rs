//! Bounded pattern-on-pattern simulation: evaluating a bounded view `V` over
//! a bounded query `Qb` treated as a *weighted* data graph (paper Section
//! VI-B).
//!
//! "We treat Qb as a weighted data graph in which each edge e has a weight
//! fe(e). The distance from node u to u' in Qb is given by the minimum sum of
//! the edge weights on shortest paths from u to u'." A view edge
//! `eV = (x, x')` with bound `k` is witnessed by a query node pair `(u, u')`
//! whose weighted distance is ≤ k; a `*` view edge is witnessed by
//! reachability. Node conditions compare by predicate equivalence, exactly
//! as in the unweighted case. The fixpoint itself is the one of
//! [`crate::pattern_sim`], with this distance test as its edge witness.

use crate::pattern_sim::pattern_fixpoint;
use gpv_pattern::{BoundedPattern, EdgeBound};

/// The weighted distances and reachability between every pair of query
/// nodes: what each view's bounded simulation into `Qb` tests its edges
/// against. Computed once per query and shared by all its views.
#[derive(Clone, Debug)]
pub struct QueryDistances {
    wdist: Vec<Vec<Option<u64>>>,
    reach: Vec<Vec<bool>>,
}

impl QueryDistances {
    /// Both `|Vp| × |Vp|` matrices of `qb` (patterns are small; `|Vp|²`
    /// Dijkstras are cheap).
    pub fn new(qb: &BoundedPattern) -> Self {
        let qp = qb.pattern();
        let nq = qp.node_count();
        let mut wdist = vec![vec![None; nq]; nq];
        let mut reach = vec![vec![false; nq]; nq];
        for a in qp.nodes() {
            for b in qp.nodes() {
                wdist[a.index()][b.index()] = qb.weighted_distance(a, b);
                reach[a.index()][b.index()] = qb.reaches(a, b);
            }
        }
        QueryDistances { wdist, reach }
    }
}

/// The maximum bounded simulation of view `v` into weighted query `qb`, as
/// boolean candidate rows (`cand[x][u]`), or `None` when some view node has
/// no query match.
pub fn simulate_bounded_pattern(v: &BoundedPattern, qb: &BoundedPattern) -> Option<Vec<Vec<bool>>> {
    simulate_bounded_pattern_with(v, qb, &QueryDistances::new(qb))
}

/// [`simulate_bounded_pattern`] against `qb`'s precomputed distances.
pub fn simulate_bounded_pattern_with(
    v: &BoundedPattern,
    qb: &BoundedPattern,
    dists: &QueryDistances,
) -> Option<Vec<Vec<bool>>> {
    let QueryDistances { wdist, reach } = dists;
    pattern_fixpoint(v.pattern(), qb.pattern(), false, |ev, u, u2| {
        match v.bound(ev) {
            EdgeBound::Hop(k) => wdist[u][u2].is_some_and(|d| d <= k as u64),
            EdgeBound::Unbounded => reach[u][u2],
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_pattern::PatternBuilder;

    /// Query: A -\[3\]-> B -\[2\]-> C.
    fn qb() -> BoundedPattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge_bounded(a, bb, 3);
        b.edge_bounded(bb, c, 2);
        b.build_bounded().unwrap()
    }

    #[test]
    fn view_with_looser_bounds_matches() {
        // View: A -[5]-> B. Weighted dist A->B in Qb is 3 ≤ 5.
        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("A");
        let y = vb.node_labeled("B");
        vb.edge_bounded(x, y, 5);
        let v = vb.build_bounded().unwrap();
        let cand = simulate_bounded_pattern(&v, &qb()).expect("matches");
        assert!(cand[0][0] && cand[1][1]);
    }

    #[test]
    fn view_with_tighter_bounds_fails() {
        // View: A -[2]-> B. dist A->B in Qb is 3 > 2: A-node has no witness.
        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("A");
        let y = vb.node_labeled("B");
        vb.edge_bounded(x, y, 2);
        let v = vb.build_bounded().unwrap();
        assert!(simulate_bounded_pattern(&v, &qb()).is_none());
    }

    #[test]
    fn view_edge_spanning_path() {
        // View: A -[5]-> C. dist A->C = 3 + 2 = 5 ≤ 5 via B.
        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("A");
        let y = vb.node_labeled("C");
        vb.edge_bounded(x, y, 5);
        let v = vb.build_bounded().unwrap();
        assert!(simulate_bounded_pattern(&v, &qb()).is_some());
        // But 4 is too tight.
        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("A");
        let y = vb.node_labeled("C");
        vb.edge_bounded(x, y, 4);
        let v = vb.build_bounded().unwrap();
        assert!(simulate_bounded_pattern(&v, &qb()).is_none());
    }

    #[test]
    fn star_view_edge_uses_reachability() {
        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("A");
        let y = vb.node_labeled("C");
        vb.edge_unbounded(x, y);
        let v = vb.build_bounded().unwrap();
        assert!(simulate_bounded_pattern(&v, &qb()).is_some());
        // Reversed direction is unreachable.
        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("C");
        let y = vb.node_labeled("A");
        vb.edge_unbounded(x, y);
        let v = vb.build_bounded().unwrap();
        assert!(simulate_bounded_pattern(&v, &qb()).is_none());
    }

    #[test]
    fn star_query_edge_blocks_bounded_view_edge() {
        // Query: A -[*]-> B. View: A -[9]-> B. The only witness distance is
        // unbounded (∞ > 9), so the view cannot simulate in.
        let mut qbuilder = PatternBuilder::new();
        let a = qbuilder.node_labeled("A");
        let b = qbuilder.node_labeled("B");
        qbuilder.edge_unbounded(a, b);
        let q = qbuilder.build_bounded().unwrap();

        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("A");
        let y = vb.node_labeled("B");
        vb.edge_bounded(x, y, 9);
        let v = vb.build_bounded().unwrap();
        assert!(simulate_bounded_pattern(&v, &q).is_none());

        // A * view edge does cover it.
        let mut vb = PatternBuilder::new();
        let x = vb.node_labeled("A");
        let y = vb.node_labeled("B");
        vb.edge_unbounded(x, y);
        let v = vb.build_bounded().unwrap();
        assert!(simulate_bounded_pattern(&v, &q).is_some());
    }
}
