//! Graph-simulation matching — the paper's `Match` baseline (\[16\], \[21\]).
//!
//! Computes the unique *maximum* match relation `S ⊆ Vp × V` such that
//!
//! 1. every pattern node has at least one match, and
//! 2. for each `(u, v) ∈ S`: `v` satisfies `fv(u)`, and for every pattern
//!    edge `(u, u')` there is a graph edge `(v, v')` with `(u', v') ∈ S`.
//!
//! The implementation is the standard counter-based refinement (in the
//! spirit of Henzinger-Henzinger-Kopke): a support counter per (pattern
//! edge, candidate source) tracks how many witnessing successors remain;
//! when it hits zero the candidate is removed and the removal propagates to
//! its predecessors through a worklist. Runs in
//! `O(|Vp||V| + |Ep||E|)` time — within the paper's
//! `O(|Qs|² + |Qs||G| + |G|²)` bound. Dual simulation ([`crate::dual`])
//! is the same fixpoint with backward counters switched on.
//!
//! This is the test oracle for the view-based answers: it works on `G`
//! directly with dense per-graph bitsets and shares no code with the
//! `MatchJoin` kernel that production answers run on.

use crate::result::MatchResult;
use gpv_graph::{BitSet, DataGraph, NodeId};
use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId};

/// Computes `Qs(G)` by graph simulation (the `Match` baseline).
pub fn match_pattern(q: &Pattern, g: &DataGraph) -> MatchResult {
    build_result(q, g, simulation_relation(q, g))
}

/// Computes only the maximum simulation relation as per-pattern-node
/// candidate bitsets, or `None` if some pattern node has no match.
pub fn simulation_relation(q: &Pattern, g: &DataGraph) -> Option<Vec<BitSet>> {
    relation(q, g, false)
}

/// The counter-based refinement behind both simulations. Counters are
/// dense per (direction, pattern edge, node): forward ones count, for a
/// candidate of an edge's source, its successors among the target's
/// candidates; with `dual` set, backward ones count, for a candidate of the
/// target, its predecessors among the source's candidates.
pub(crate) fn relation(q: &Pattern, g: &DataGraph, dual: bool) -> Option<Vec<BitSet>> {
    let n = g.node_count();
    let mut cand: Vec<BitSet> = Vec::with_capacity(q.node_count());
    for u in q.nodes() {
        let resolved = q.pred(u).resolve(g);
        let mut set = BitSet::new(n);
        for v in g.nodes() {
            if resolved.satisfied_by(g, v) {
                set.insert(v.index());
            }
        }
        if set.is_empty() {
            return None;
        }
        cand.push(set);
    }

    let dirs = if dual { 2 } else { 1 };
    let mut counters = vec![vec![vec![0u32; n]; q.edge_count()]; dirs];
    // `scheduled` guards against scheduling the same removal twice.
    let mut scheduled = vec![BitSet::new(n); q.node_count()];
    let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
    for (ei, &(u, t)) in q.edges().iter().enumerate() {
        for (d, counters) in counters.iter_mut().enumerate() {
            let (x, y) = if d == 0 { (u, t) } else { (t, u) };
            for v in cand[x.index()].iter().map(|v| NodeId(v as u32)) {
                let (cy, adj) = (&cand[y.index()], neighbors(g, v, d));
                let cnt = adj.iter().filter(|w| cy.contains(w.index())).count() as u32;
                counters[ei][v.index()] = cnt;
                if cnt == 0 && scheduled[x.index()].insert(v.index()) {
                    worklist.push((x, v));
                }
            }
        }
    }

    // Refinement: a removed v withdraws its witness from the forward
    // counters of its in-neighbours along u's in-edges and, under dual
    // simulation, the backward counters of its out-neighbours along u's
    // out-edges.
    let mut head = 0;
    while let Some(&(u, v)) = worklist.get(head) {
        head += 1;
        if !cand[u.index()].remove(v.index()) {
            continue;
        }
        if cand[u.index()].is_empty() {
            return None;
        }
        let fwd = q.in_edges(u).iter().map(|&(x, e)| (0, x, e));
        let bwd = q
            .out_edges(u)
            .iter()
            .filter(|_| dual)
            .map(|&(x, e)| (1, x, e));
        for (d, x, e) in fwd.chain(bwd) {
            for &w in neighbors(g, v, 1 - d) {
                if cand[x.index()].contains(w.index()) && !scheduled[x.index()].contains(w.index())
                {
                    let s = &mut counters[d][e.index()][w.index()];
                    *s = s.saturating_sub(1);
                    if *s == 0 {
                        scheduled[x.index()].insert(w.index());
                        worklist.push((x, w));
                    }
                }
            }
        }
    }
    Some(cand)
}

/// `v`'s successors (`d = 0`) or predecessors (`d = 1`).
fn neighbors(g: &DataGraph, v: NodeId, d: usize) -> &[NodeId] {
    if d == 0 {
        g.out_neighbors(v)
    } else {
        g.in_neighbors(v)
    }
}

/// Derives the result `{(e, Se)}` of a (plain or dual) simulation relation:
/// `Se` holds the graph edges between candidates of `e`'s endpoints.
pub(crate) fn build_result(q: &Pattern, g: &DataGraph, cand: Option<Vec<BitSet>>) -> MatchResult {
    let Some(cand) = cand else {
        return MatchResult::empty();
    };
    let mut edge_matches = Vec::with_capacity(q.edge_count());
    for &(u, t) in q.edges() {
        let (cu, ct) = (&cand[u.index()], &cand[t.index()]);
        let mut set = Vec::new();
        for v in cu.iter() {
            let v = NodeId(v as u32);
            for &w in g.out_neighbors(v) {
                if ct.contains(w.index()) {
                    set.push((v, w));
                }
            }
        }
        if set.is_empty() {
            return MatchResult::empty();
        }
        edge_matches.push(set);
    }
    let targets = |e: PatternEdgeId| edge_matches[e.index()].iter().map(|&(_, w)| w);
    MatchResult::new(q, node_matches(q, &cand, targets), edge_matches)
}

/// The node sets of a result over the relation `cand`: a node's matches
/// are the endpoints it takes in its edge sets, whose targets `targets(e)`
/// lists. Every candidate of a node with out-edges is a source of each of
/// them, and a node with no edges keeps its candidates, so only a sink's
/// set is built: the targets its in-edges reach, marked in a mask.
pub(crate) fn node_matches<I: Iterator<Item = NodeId>>(
    q: &Pattern,
    cand: &[BitSet],
    targets: impl Fn(PatternEdgeId) -> I,
) -> Vec<Vec<NodeId>> {
    let node_set = |u: PatternNodeId| {
        let c = &cand[u.index()];
        if !q.out_edges(u).is_empty() || q.in_edges(u).is_empty() {
            return c.iter().map(|v| NodeId(v as u32)).collect();
        }
        let mut mask = BitSet::new(c.capacity());
        for w in q.in_edges(u).iter().flat_map(|&(_, e)| targets(e)) {
            mask.insert(w.index());
        }
        mask.iter().map(|v| NodeId(v as u32)).collect()
    };
    q.nodes().map(node_set).collect()
}

/// Checks `Qs ⊴sim G` without materializing edge match sets.
pub fn matches(q: &Pattern, g: &DataGraph) -> bool {
    simulation_relation(q, g).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    /// The paper's Fig. 1(a) recommendation network.
    ///
    /// Nodes: Bob(PM)=0, Walt(PM)=1, Mat(DBA)=2, Fred(DBA)=3, Mary(DBA)=4,
    /// Dan(PRG)=5, Pat(PRG)=6, Bill(PRG)=7, Jean(BA)=8, Emmy(ST)=9.
    pub(crate) fn fig1a() -> (DataGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let bob = b.add_node(["PM"]);
        let walt = b.add_node(["PM"]);
        let mat = b.add_node(["DBA"]);
        let fred = b.add_node(["DBA"]);
        let mary = b.add_node(["DBA"]);
        let dan = b.add_node(["PRG"]);
        let pat = b.add_node(["PRG"]);
        let bill = b.add_node(["PRG"]);
        let jean = b.add_node(["BA"]);
        let emmy = b.add_node(["ST"]);
        // Edges per Fig. 1(a) / Example 2's expected result:
        // (PM,DBA1): Bob->Mat, Walt->Mat
        b.add_edge(bob, mat);
        b.add_edge(walt, mat);
        // (PM,PRG2): Bob->Dan, Walt->Bill
        b.add_edge(bob, dan);
        b.add_edge(walt, bill);
        // (DBA,PRG): Fred->Pat, Mat->Pat, Mary->Bill
        b.add_edge(fred, pat);
        b.add_edge(mat, pat);
        b.add_edge(mary, bill);
        // (PRG,DBA): Dan->Fred, Pat->Mary, Pat->Mat, Bill->Mat
        b.add_edge(dan, fred);
        b.add_edge(pat, mary);
        b.add_edge(pat, mat);
        b.add_edge(bill, mat);
        // Context nodes (not matched by Qs): Jean, Emmy.
        b.add_edge(bob, jean);
        b.add_edge(jean, emmy);
        let g = b.build();
        (
            g,
            vec![bob, walt, mat, fred, mary, dan, pat, bill, jean, emmy],
        )
    }

    /// The paper's Fig. 1(c) pattern Qs.
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

    fn pairs(r: &MatchResult, q: &Pattern, u: u32, v: u32) -> Vec<(u32, u32)> {
        let e = q
            .edge_id(PatternNodeId(u), PatternNodeId(v))
            .expect("edge exists");
        r.edge_set(e).iter().map(|&(a, b)| (a.0, b.0)).collect()
    }

    #[test]
    fn paper_example_2() {
        let (g, n) = fig1a();
        let q = fig1c();
        let r = match_pattern(&q, &g);
        assert!(!r.is_empty());
        let id = |v: NodeId| v.0;
        let (bob, walt, mat, fred, mary, dan, pat, bill) = (
            id(n[0]),
            id(n[1]),
            id(n[2]),
            id(n[3]),
            id(n[4]),
            id(n[5]),
            id(n[6]),
            id(n[7]),
        );
        // (PM, DBA1) = {(Bob,Mat), (Walt,Mat)}
        assert_eq!(pairs(&r, &q, 0, 1), vec![(bob, mat), (walt, mat)]);
        // (PM, PRG2) = {(Bob,Dan), (Walt,Bill)}
        assert_eq!(pairs(&r, &q, 0, 4), vec![(bob, dan), (walt, bill)]);
        // (DBA1, PRG1) = {(Fred,Pat), (Mat,Pat), (Mary,Bill)} — sorted by id
        let mut expect = vec![(fred, pat), (mat, pat), (mary, bill)];
        expect.sort();
        assert_eq!(pairs(&r, &q, 1, 2), expect);
        // (DBA2, PRG2) identical
        assert_eq!(pairs(&r, &q, 3, 4), expect);
        // (PRG1, DBA2) = {(Dan,Fred), (Pat,Mary), (Pat,Mat), (Bill,Mat)}
        let mut expect2 = vec![(dan, fred), (pat, mary), (pat, mat), (bill, mat)];
        expect2.sort();
        assert_eq!(pairs(&r, &q, 2, 3), expect2);
        assert_eq!(pairs(&r, &q, 4, 1), expect2);
        // Node matches.
        assert_eq!(r.node_set(PatternNodeId(0)), &[NodeId(bob), NodeId(walt)]);
    }

    #[test]
    fn no_match_when_label_missing() {
        let (g, _) = fig1a();
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("CEO");
        let y = b.node_labeled("PM");
        b.edge(x, y);
        let q = b.build().unwrap();
        assert!(match_pattern(&q, &g).is_empty());
        assert!(!matches(&q, &g));
    }

    #[test]
    fn no_match_when_structure_missing() {
        // G: A -> B; Q: B -> A.
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let c = b.add_node(["B"]);
        b.add_edge(a, c);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("B");
        let y = pb.node_labeled("A");
        pb.edge(x, y);
        let q = pb.build().unwrap();
        assert!(match_pattern(&q, &g).is_empty());
    }

    #[test]
    fn cascading_removal() {
        // G: A1 -> B1 (B1 has no C successor), A2 -> B2 -> C1.
        // Q: A -> B -> C. Only (A2,B2,C1) chain survives.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(a2, b2);
        b.add_edge(b2, c1);
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        let z = pb.node_labeled("C");
        pb.edge(x, y);
        pb.edge(y, z);
        let q = pb.build().unwrap();
        let r = match_pattern(&q, &g);
        assert_eq!(r.node_set(x), &[a2]);
        assert_eq!(r.node_set(y), &[b2]);
        assert_eq!(r.node_set(z), &[c1]);
        assert_eq!(r.size(), 2);
    }

    #[test]
    fn cyclic_pattern_on_cyclic_graph() {
        // G: x(A) <-> y(B); Q: A <-> B. Both directions match.
        let mut b = GraphBuilder::new();
        let x = b.add_node(["A"]);
        let y = b.add_node(["B"]);
        b.add_edge(x, y);
        b.add_edge(y, x);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        pb.edge(ua, ub);
        pb.edge(ub, ua);
        let q = pb.build().unwrap();
        let r = match_pattern(&q, &g);
        assert_eq!(r.size(), 2);
    }

    #[test]
    fn cyclic_pattern_fails_on_dag() {
        // G: x(A) -> y(B), no back edge; Q: A <-> B.
        let mut b = GraphBuilder::new();
        let x = b.add_node(["A"]);
        let y = b.add_node(["B"]);
        b.add_edge(x, y);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        pb.edge(ua, ub);
        pb.edge(ub, ua);
        let q = pb.build().unwrap();
        assert!(match_pattern(&q, &g).is_empty());
    }

    #[test]
    fn simulation_is_maximal() {
        // Every pair (u, v) where v could consistently simulate u must be in
        // the relation: check against brute-force greatest fixpoint.
        let (g, _) = fig1a();
        let q = fig1c();
        let cand = simulation_relation(&q, &g).unwrap();
        // Brute force: start from label-satisfying sets, iterate removal.
        let mut brute: Vec<Vec<bool>> = q
            .nodes()
            .map(|u| {
                let rp = q.pred(u).resolve(&g);
                g.nodes().map(|v| rp.satisfied_by(&g, v)).collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for u in q.nodes() {
                for v in g.nodes() {
                    if !brute[u.index()][v.index()] {
                        continue;
                    }
                    let ok = q.out_edges(u).iter().all(|&(t, _)| {
                        g.out_neighbors(v)
                            .iter()
                            .any(|w| brute[t.index()][w.index()])
                    });
                    if !ok {
                        brute[u.index()][v.index()] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for u in q.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    cand[u.index()].contains(v.index()),
                    brute[u.index()][v.index()],
                    "disagreement at ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn self_loop_pattern() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(["A"]);
        let y = b.add_node(["A"]);
        b.add_edge(x, x);
        b.add_edge(x, y);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let u = pb.node_labeled("A");
        pb.edge(u, u);
        let q = pb.build().unwrap();
        let r = match_pattern(&q, &g);
        // Only x has a self-loop... but simulation allows x->x and also any
        // node whose successor simulates A-with-loop: y has no out-edge, so
        // only x survives.
        assert_eq!(r.node_set(u), &[x]);
        assert_eq!(r.edge_set(gpv_pattern::PatternEdgeId(0)), &[(x, x)]);
    }

    #[test]
    fn wildcard_node_matches_everything_with_structure() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(["A"]);
        let y = b.add_node(["B"]);
        b.add_edge(x, y);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let u = pb.node_any();
        let w = pb.node_any();
        pb.edge(u, w);
        let q = pb.build().unwrap();
        let r = match_pattern(&q, &g);
        // u matches x (has successor); w, a sink, matches the target it
        // takes in (u, w)'s only pair.
        assert_eq!(r.node_set(u), &[x]);
        assert_eq!(r.node_set(w), &[y]);
    }
}
