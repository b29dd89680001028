//! Pattern-on-pattern simulation: evaluating a view definition `V` over a
//! *query* `Qs` treated as a data graph (paper Section V-A).
//!
//! View matches `M^Qs_V` are defined by computing `V(Qs)`: if `V ⊴sim Qs`,
//! each view edge `eV` gets a match set `S_eV` of *query edges*, and
//! `M^Qs_V = ⋃ S_eV`. Node conditions are compared by predicate
//! **equivalence**: in the paper's single-label model, "`fV(x) ∈ L(u)` where
//! `L(u) = {fv(u)}`" is exactly label equality, and using one-directional
//! implication would let `MatchJoin` admit matches that satisfy the (weaker)
//! view condition but not the query condition — which the join can never
//! filter out since it does not access `G` (DESIGN.md §S3).
//!
//! One fixpoint serves every pattern-on-pattern simulation: the plain and
//! dual view matches here and the bounded one in
//! [`crate::bounded_pattern_sim`] differ only in what witnesses a view edge
//! (a query edge, or a weighted distance within the bound) and in whether
//! in-edges must be witnessed too (dual). [`edge_match_sets`] then derives
//! every `S_eV` from the resulting candidate relation.

use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId};

/// Result of simulating a view pattern into a query pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternSimResult {
    /// `node_matches[x]` = query nodes matching view node `x` (sorted).
    pub node_matches: Vec<Vec<PatternNodeId>>,
    /// `edge_matches[eV]` = query edge ids in `S_eV` (sorted).
    pub edge_matches: Vec<Vec<PatternEdgeId>>,
}

impl PatternSimResult {
    /// The union `⋃_{eV} S_eV` — the view match `M^Qs_V` as a sorted,
    /// deduplicated set of query-edge ids.
    pub fn view_match(&self) -> Vec<PatternEdgeId> {
        let mut all: Vec<PatternEdgeId> = self
            .edge_matches
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Simulates view `v` into query `q` (treating `q` as a data graph).
/// Returns `None` when `v ⋬sim q` (some view node has no query match), in
/// which case `M^Qs_V = ∅`.
pub fn simulate_pattern(v: &Pattern, q: &Pattern) -> Option<PatternSimResult> {
    simulate_edges(v, q, false)
}

/// Dual-simulation variant of [`simulate_pattern`]: view nodes must be
/// matched both forward *and* backward (every view in-edge needs a witness
/// query in-edge). Used by dual-simulation view matches (§VIII extension).
pub fn simulate_pattern_dual(v: &Pattern, q: &Pattern) -> Option<PatternSimResult> {
    simulate_edges(v, q, true)
}

/// [`simulate_pattern`] / [`simulate_pattern_dual`]: a view edge is
/// witnessed by a query edge between the candidate endpoints.
fn simulate_edges(v: &Pattern, q: &Pattern, dual: bool) -> Option<PatternSimResult> {
    let cand = pattern_fixpoint(v, q, dual, |_, u, u2| {
        q.edge_id(PatternNodeId(u as u32), PatternNodeId(u2 as u32))
            .is_some()
    })?;
    let edge_matches = edge_match_sets(v, q, &cand, |_, _| true);
    if edge_matches.iter().any(Vec::is_empty) {
        // V ⊴sim Qs requires nonempty S_eV for every view edge.
        return None;
    }
    let node_matches = cand
        .iter()
        .map(|row| q.nodes().filter(|u| row[u.index()]).collect())
        .collect();
    Some(PatternSimResult {
        node_matches,
        edge_matches,
    })
}

/// The one pattern-on-pattern fixpoint: the maximum relation `cand[x][u]`
/// (view node `x`, query node `u`) in which node conditions are equivalent
/// and every out-edge `eV = (x, x')` of `x` has some `u'` with
/// `cand[x'][u']` and `witnesses(eV, u, u')` — with `dual`, every in-edge
/// `(x0, x)` likewise needs some `u0` with `witnesses(eV, u0, u)`. `None`
/// when some view node ends with no candidate.
///
/// Patterns are small, so the loop is deliberately naive: sweep every
/// candidate until nothing changes, which keeps it obviously correct.
pub(crate) fn pattern_fixpoint(
    v: &Pattern,
    q: &Pattern,
    dual: bool,
    witnesses: impl Fn(PatternEdgeId, usize, usize) -> bool,
) -> Option<Vec<Vec<bool>>> {
    let nq = q.node_count();
    let mut cand: Vec<Vec<bool>> = Vec::with_capacity(v.node_count());
    for x in v.nodes() {
        let row: Vec<bool> = q.nodes().map(|u| v.pred(x).equivalent(q.pred(u))).collect();
        if !row.contains(&true) {
            return None;
        }
        cand.push(row);
    }
    loop {
        let mut changed = false;
        for x in v.nodes() {
            for u in 0..nq {
                if !cand[x.index()][u] {
                    continue;
                }
                let fwd = v.out_edges(x).iter().all(|&(x2, ev)| {
                    (0..nq).any(|u2| cand[x2.index()][u2] && witnesses(ev, u, u2))
                });
                let bwd = !dual
                    || v.in_edges(x).iter().all(|&(x0, ev)| {
                        (0..nq).any(|u0| cand[x0.index()][u0] && witnesses(ev, u0, u))
                    });
                if !(fwd && bwd) {
                    cand[x.index()][u] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    if cand.iter().any(|row| !row.contains(&true)) {
        return None;
    }
    Some(cand)
}

/// The match sets `S_eV` of every view edge `eV = (x, x')` under the
/// candidate relation `cand`: the query edges `e = (u, u')` with
/// `cand[x][u]`, `cand[x'][u']` and `admits(eV, e)`, in ascending edge
/// order. The plain and dual view matches admit every such edge; the
/// bounded view match (§VI-B) admits only those whose query bound fits
/// the view edge's.
pub fn edge_match_sets(
    v: &Pattern,
    q: &Pattern,
    cand: &[Vec<bool>],
    admits: impl Fn(PatternEdgeId, PatternEdgeId) -> bool,
) -> Vec<Vec<PatternEdgeId>> {
    v.edges()
        .iter()
        .enumerate()
        .map(|(vei, &(x, x2))| {
            q.edges()
                .iter()
                .enumerate()
                .filter(|&(_, &(u, u2))| cand[x.index()][u.index()] && cand[x2.index()][u2.index()])
                .map(|(qei, _)| PatternEdgeId(qei as u32))
                .filter(|&qe| admits(PatternEdgeId(vei as u32), qe))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_pattern::PatternBuilder;

    /// Paper Fig. 1(c) query.
    fn fig1c() -> Pattern {
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

    /// Paper Fig. 1(b) view V1: PM -> DBA, PM -> PRG.
    fn v1() -> Pattern {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(pm, dba);
        b.edge(pm, prg);
        b.build().unwrap()
    }

    /// Paper Fig. 1(b) view V2: DBA <-> PRG cycle.
    fn v2() -> Pattern {
        let mut b = PatternBuilder::new();
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(dba, prg);
        b.edge(prg, dba);
        b.build().unwrap()
    }

    fn edge(q: &Pattern, u: u32, v: u32) -> PatternEdgeId {
        q.edge_id(PatternNodeId(u), PatternNodeId(v)).unwrap()
    }

    #[test]
    fn example_3_v1() {
        // V1's match into Qs covers (PM,DBA1) and (PM,PRG2).
        let q = fig1c();
        let r = simulate_pattern(&v1(), &q).expect("V1 simulates into Qs");
        let m = r.view_match();
        assert!(m.contains(&edge(&q, 0, 1)), "(PM,DBA1)");
        assert!(m.contains(&edge(&q, 0, 4)), "(PM,PRG2)");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn example_3_v2() {
        // V2's match covers the four cycle edges.
        let q = fig1c();
        let r = simulate_pattern(&v2(), &q).expect("V2 simulates into Qs");
        let m = r.view_match();
        assert_eq!(m.len(), 4);
        for (a, b) in [(1, 2), (3, 4), (2, 3), (4, 1)] {
            assert!(m.contains(&edge(&q, a, b)), "({a},{b})");
        }
        // And does NOT cover the PM edges.
        assert!(!m.contains(&edge(&q, 0, 1)));
        assert!(!m.contains(&edge(&q, 0, 4)));
    }

    #[test]
    fn union_covers_all_of_qs() {
        // Example 5: union of V1, V2 view matches equals Ep.
        let q = fig1c();
        let mut covered: Vec<PatternEdgeId> = Vec::new();
        for v in [v1(), v2()] {
            covered.extend(simulate_pattern(&v, &q).unwrap().view_match());
        }
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), q.edge_count());
    }

    #[test]
    fn no_sim_when_label_absent() {
        let q = fig1c();
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("CEO");
        let y = b.node_labeled("PM");
        b.edge(x, y);
        let v = b.build().unwrap();
        assert!(simulate_pattern(&v, &q).is_none());
    }

    #[test]
    fn no_sim_when_structure_absent() {
        // View needs DBA -> PM which Qs lacks.
        let q = fig1c();
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("DBA");
        let y = b.node_labeled("PM");
        b.edge(x, y);
        let v = b.build().unwrap();
        assert!(simulate_pattern(&v, &q).is_none());
    }

    #[test]
    fn equivalence_not_implication() {
        use gpv_pattern::{CmpOp, Predicate};
        // Query node: visits >= 20000 (stronger); view node: visits >= 10000.
        // Implication holds (query => view) but equivalence does not, so the
        // view must NOT match — its extension could contain nodes with
        // 10000 <= visits < 20000 that the join could never filter.
        let mut qb = PatternBuilder::new();
        let a = qb.node(Predicate::cmp("visits", CmpOp::Ge, 20_000i64));
        let b2 = qb.node_labeled("B");
        qb.edge(a, b2);
        let q = qb.build().unwrap();

        let mut vb = PatternBuilder::new();
        let x = vb.node(Predicate::cmp("visits", CmpOp::Ge, 10_000i64));
        let y = vb.node_labeled("B");
        vb.edge(x, y);
        let v = vb.build().unwrap();
        assert!(simulate_pattern(&v, &q).is_none());

        // Identical conditions do match.
        assert!(simulate_pattern(&v, &v).is_some());
    }

    #[test]
    fn self_simulation_is_identity_cover() {
        let q = fig1c();
        let r = simulate_pattern(&q, &q).expect("every pattern simulates itself");
        assert_eq!(r.view_match().len(), q.edge_count());
        // Symmetric labels (two DBA, two PRG nodes in a cycle) mean node
        // matches may be larger than singletons — but each node matches at
        // least itself.
        for u in q.nodes() {
            assert!(r.node_matches[u.index()].contains(&u));
        }
    }

    #[test]
    fn dual_is_stricter_than_plain_on_patterns() {
        // View: A -> B; query: A -> B <- C. Under plain simulation the view
        // matches. Under dual simulation, the view's B node has no in-edge
        // requirement, but the roles reverse when the view has in-edges:
        // view A -> B with B also requiring an in-edge from C fails.
        let q = {
            let mut b = PatternBuilder::new();
            let a = b.node_labeled("A");
            let bb = b.node_labeled("B");
            let c = b.node_labeled("C");
            b.edge(a, bb);
            b.edge(c, bb);
            b.build().unwrap()
        };
        let v = {
            let mut b = PatternBuilder::new();
            let a = b.node_labeled("A");
            let bb = b.node_labeled("B");
            b.edge(a, bb);
            b.build().unwrap()
        };
        assert!(simulate_pattern(&v, &q).is_some());
        assert!(
            simulate_pattern_dual(&v, &q).is_some(),
            "B's extra in-edge is harmless"
        );

        // But a view needing C -> B cannot dual-match a query lacking it.
        let v2 = {
            let mut b = PatternBuilder::new();
            let a = b.node_labeled("A");
            let bb = b.node_labeled("B");
            let c = b.node_labeled("C");
            b.edge(a, bb);
            b.edge(c, bb);
            b.build().unwrap()
        };
        let q2 = {
            let mut b = PatternBuilder::new();
            let a = b.node_labeled("A");
            let bb = b.node_labeled("B");
            b.edge(a, bb);
            b.build().unwrap()
        };
        assert!(simulate_pattern_dual(&v2, &q2).is_none());
        assert!(
            simulate_pattern(&v2, &q2).is_none(),
            "plain also fails: C unmatched"
        );
    }

    #[test]
    fn dual_subset_of_plain_edge_matches() {
        let q = fig1c();
        for v in [v1(), v2()] {
            let plain = simulate_pattern(&v, &q);
            let dual = simulate_pattern_dual(&v, &q);
            if let (Some(p), Some(d)) = (plain, dual) {
                for (pe, de) in p.edge_matches.iter().zip(&d.edge_matches) {
                    for e in de {
                        assert!(pe.contains(e), "dual ⊆ plain per view edge");
                    }
                }
            }
        }
    }

    #[test]
    fn view_larger_than_query_can_still_match() {
        // View: A -> B -> C; query: single SCC A->B->C->A. View simulates in.
        let mut vb = PatternBuilder::new();
        let a = vb.node_labeled("A");
        let b = vb.node_labeled("B");
        let c = vb.node_labeled("C");
        vb.edge(a, b);
        vb.edge(b, c);
        let v = vb.build().unwrap();

        let mut qb = PatternBuilder::new();
        let x = qb.node_labeled("A");
        let y = qb.node_labeled("B");
        let z = qb.node_labeled("C");
        qb.edge(x, y);
        qb.edge(y, z);
        qb.edge(z, x);
        let q = qb.build().unwrap();
        let r = simulate_pattern(&v, &q).unwrap();
        assert_eq!(r.view_match().len(), 2, "covers (A,B) and (B,C), not (C,A)");
    }
}
