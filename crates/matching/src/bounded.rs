//! Bounded-simulation matching — the paper's `BMatch` baseline (\[16\],
//! Section VI).
//!
//! A bounded pattern edge `e = (u, u')` with `fe(e) = k` maps to a *nonempty
//! path* of length ≤ k (any length for `*`). The maximum bounded-simulation
//! relation is computed by the same counter/worklist refinement as plain
//! simulation, with the successor test replaced by bounded BFS:
//!
//! * support counters are initialized by a forward bounded BFS per
//!   (edge, candidate source);
//! * when `w` stops matching `u'`, the candidates of `u` that counted `w`
//!   are exactly the ancestors of `w` within the bound — found by a
//!   *reverse* bounded BFS, so nothing needs to store the balls.
//!
//! This is cubic-ish in `|G|` — `O(|Qb||G|²)` like the paper's `BMatch` —
//! and is precisely the cost that `BMatchJoin` avoids.

use crate::result::BoundedMatchResult;
use crate::simulation::node_matches;
use gpv_graph::traverse::{bounded_bfs, BfsScratch, Direction};
use gpv_graph::{BitSet, DataGraph, NodeId};
use gpv_pattern::{BoundedPattern, EdgeBound, PatternEdgeId, PatternNodeId};

fn bound_to_u32(b: EdgeBound) -> u32 {
    match b {
        EdgeBound::Hop(k) => k,
        EdgeBound::Unbounded => u32::MAX,
    }
}

/// Computes `Qb(G)` by bounded simulation (the `BMatch` baseline).
pub fn bmatch_pattern(qb: &BoundedPattern, g: &DataGraph) -> BoundedMatchResult {
    match bounded_simulation_relation(qb, g) {
        Some(cand) => build_result(qb, g, &cand),
        None => BoundedMatchResult::empty(),
    }
}

/// Computes the maximum bounded-simulation relation, or `None` if some
/// pattern node has no match.
pub fn bounded_simulation_relation(qb: &BoundedPattern, g: &DataGraph) -> Option<Vec<BitSet>> {
    let q = qb.pattern();
    let n = g.node_count();
    let np = q.node_count();
    let ne = q.edge_count();

    let mut cand: Vec<BitSet> = Vec::with_capacity(np);
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

    let mut scratch = BfsScratch::new(n);
    let mut support: Vec<Vec<u32>> = vec![vec![0; n]; ne];
    let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
    let mut scheduled = vec![BitSet::new(n); np];

    for (ei, &(u, t)) in q.edges().iter().enumerate() {
        let bound = bound_to_u32(qb.bound(gpv_pattern::PatternEdgeId(ei as u32)));
        let ct = cand[t.index()].clone();
        for v in cand[u.index()].iter() {
            bounded_bfs(g, NodeId(v as u32), bound, Direction::Out, &mut scratch);
            let cnt = scratch
                .visited
                .iter()
                .filter(|&&(w, _)| ct.contains(w.index()))
                .count() as u32;
            support[ei][v] = cnt;
            if cnt == 0 && scheduled[u.index()].insert(v) {
                worklist.push((u, NodeId(v as u32)));
            }
        }
    }

    let mut head = 0;
    while head < worklist.len() {
        let (u, v) = worklist[head];
        head += 1;
        if !cand[u.index()].remove(v.index()) {
            continue;
        }
        if cand[u.index()].is_empty() {
            return None;
        }
        // v stopped matching u: every bounded in-edge e0 = (u0, u) loses the
        // witness v for each *ancestor* of v within the bound.
        for &(u0, e0) in q.in_edges(u) {
            let bound = bound_to_u32(qb.bound(e0));
            bounded_bfs(g, v, bound, Direction::In, &mut scratch);
            let ei = e0.index();
            for &(w, _) in &scratch.visited {
                if cand[u0.index()].contains(w.index())
                    && !scheduled[u0.index()].contains(w.index())
                {
                    let s = &mut support[ei][w.index()];
                    debug_assert!(*s > 0, "support underflow");
                    *s -= 1;
                    if *s == 0 {
                        scheduled[u0.index()].insert(w.index());
                        worklist.push((u0, w));
                    }
                }
            }
        }
    }
    Some(cand)
}

/// Derives `{(e, Se)}` with shortest witness distances from the relation,
/// and node sets as plain simulation's result does.
fn build_result(qb: &BoundedPattern, g: &DataGraph, cand: &[BitSet]) -> BoundedMatchResult {
    let q = qb.pattern();
    let mut scratch = BfsScratch::new(g.node_count());
    let mut edge_matches = Vec::with_capacity(q.edge_count());
    for (ei, &(u, t)) in q.edges().iter().enumerate() {
        let bound = bound_to_u32(qb.bound(gpv_pattern::PatternEdgeId(ei as u32)));
        let ct = &cand[t.index()];
        let mut set = Vec::new();
        for v in cand[u.index()].iter() {
            let v = NodeId(v as u32);
            bounded_bfs(g, v, bound, Direction::Out, &mut scratch);
            for &(w, d) in &scratch.visited {
                if ct.contains(w.index()) {
                    set.push((v, w, d));
                }
            }
        }
        debug_assert!(!set.is_empty());
        edge_matches.push(set);
    }
    let targets = |e: PatternEdgeId| edge_matches[e.index()].iter().map(|&(_, w, _)| w);
    BoundedMatchResult::new(q, node_matches(q, cand, targets), edge_matches)
}

/// Checks `Qb ⊴Bsim G` without materializing match sets.
pub fn bmatches(qb: &BoundedPattern, g: &DataGraph) -> bool {
    bounded_simulation_relation(qb, g).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_pattern::{PatternBuilder, PatternEdgeId};

    /// Paper Fig. 3(a), reconstructed to be consistent with both Example 4
    /// (plain MatchJoin walk-through) and Example 8 (bounded result table):
    /// PM1 -> {AI1, AI2}, AI2 -> {Bio1, SE2}, DB1 -> AI2, DB2 -> AI1,
    /// AI1 -> SE1, SE1 -> {DB2, Bio1}, SE2 -> DB1.
    fn fig3a() -> (DataGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let pm1 = b.add_node(["PM"]);
        let ai1 = b.add_node(["AI"]);
        let ai2 = b.add_node(["AI"]);
        let bio1 = b.add_node(["Bio"]);
        let se1 = b.add_node(["SE"]);
        let se2 = b.add_node(["SE"]);
        let db1 = b.add_node(["DB"]);
        let db2 = b.add_node(["DB"]);
        b.add_edge(pm1, ai1);
        b.add_edge(pm1, ai2);
        b.add_edge(ai2, bio1);
        b.add_edge(db1, ai2);
        b.add_edge(db2, ai1);
        b.add_edge(ai1, se1);
        b.add_edge(ai2, se2);
        b.add_edge(se1, db2);
        b.add_edge(se2, db1);
        // Example 8's (AI1, Bio1) at distance 2 goes via SE1 -> Bio1.
        b.add_edge(se1, bio1);
        let g = b.build();
        (g, vec![pm1, ai1, ai2, bio1, se1, se2, db1, db2])
    }

    /// Paper Fig. 3(c) pattern as a bounded query (Example 8):
    /// fe(AI,Bio) = 2, all other edges 1.
    fn example8_qb() -> BoundedPattern {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let ai = b.node_labeled("AI");
        let bio = b.node_labeled("Bio");
        let db = b.node_labeled("DB");
        let se = b.node_labeled("SE");
        b.edge_bounded(pm, ai, 1);
        b.edge_bounded(ai, bio, 2);
        b.edge_bounded(db, ai, 1);
        b.edge_bounded(ai, se, 1);
        b.edge_bounded(se, db, 1);
        b.build_bounded().unwrap()
    }

    fn pairs(r: &BoundedMatchResult, q: &BoundedPattern, u: u32, v: u32) -> Vec<(u32, u32)> {
        let e = q
            .pattern()
            .edge_id(PatternNodeId(u), PatternNodeId(v))
            .unwrap();
        r.edge_set(e).iter().map(|&(a, b, _)| (a.0, b.0)).collect()
    }

    #[test]
    fn paper_example_8() {
        let (g, n) = fig3a();
        let qb = example8_qb();
        let r = bmatch_pattern(&qb, &g);
        assert!(!r.is_empty());
        let (pm1, ai1, ai2, bio1, se1, se2, db1, db2) = (
            n[0].0, n[1].0, n[2].0, n[3].0, n[4].0, n[5].0, n[6].0, n[7].0,
        );
        // (PM,AI): (PM1,AI1), (PM1,AI2) — AI1 qualifies under the bounded
        // query because it reaches Bio1 within 2 hops (via SE1).
        assert_eq!(pairs(&r, &qb, 0, 1), vec![(pm1, ai1), (pm1, ai2)]);
        // (AI,Bio) with fe=2: (AI1,Bio1) via SE1 (d=2) and (AI2,Bio1) (d=1).
        let mut expect = vec![(ai1, bio1), (ai2, bio1)];
        expect.sort();
        assert_eq!(pairs(&r, &qb, 1, 2), expect);
        // Distances recorded correctly.
        let e = qb
            .pattern()
            .edge_id(PatternNodeId(1), PatternNodeId(2))
            .unwrap();
        for &(a, b, d) in r.edge_set(e) {
            if a.0 == ai1 && b.0 == bio1 {
                assert_eq!(d, 2);
            }
            if a.0 == ai2 && b.0 == bio1 {
                assert_eq!(d, 1);
            }
        }
        // (DB,AI): DB1->AI2, DB2->AI1 (both AI nodes match under bounds).
        let mut expect = vec![(db1, ai2), (db2, ai1)];
        expect.sort();
        assert_eq!(pairs(&r, &qb, 3, 1), expect);
        // (AI,SE): AI1->SE1, AI2->SE2.
        let mut expect = vec![(ai1, se1), (ai2, se2)];
        expect.sort();
        assert_eq!(pairs(&r, &qb, 1, 4), expect);
        // (SE,DB): SE1->DB2, SE2->DB1.
        let mut expect = vec![(se1, db2), (se2, db1)];
        expect.sort();
        assert_eq!(pairs(&r, &qb, 4, 3), expect);
    }

    #[test]
    fn plain_bound_agrees_with_simulation() {
        use crate::simulation::match_pattern;
        let (g, _) = fig3a();
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let ai = b.node_labeled("AI");
        let se = b.node_labeled("SE");
        let db = b.node_labeled("DB");
        b.edge(pm, ai);
        b.edge(ai, se);
        b.edge(se, db);
        b.edge(db, ai);
        let q = b.build().unwrap();
        let plain = match_pattern(&q, &g);
        let bounded = bmatch_pattern(&BoundedPattern::from_pattern(q.clone()), &g);
        assert_eq!(plain.is_empty(), bounded.is_empty());
        if !plain.is_empty() {
            assert_eq!(plain.edge_matches, bounded.pairs());
            assert_eq!(plain.node_matches, bounded.node_matches);
        }
    }

    #[test]
    fn unbounded_edge_uses_reachability() {
        // G: chain A -> x -> x -> B of length 3.
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let m1 = b.add_node(["M"]);
        let m2 = b.add_node(["M"]);
        let z = b.add_node(["B"]);
        b.add_edge(a, m1);
        b.add_edge(m1, m2);
        b.add_edge(m2, z);
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        pb.edge_unbounded(x, y);
        let q = pb.build_bounded().unwrap();
        let r = bmatch_pattern(&q, &g);
        assert_eq!(r.edge_set(PatternEdgeId(0)), &[(a, z, 3)]);

        // With bound 2 it fails.
        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        pb.edge_bounded(x, y, 2);
        let q2 = pb.build_bounded().unwrap();
        assert!(bmatch_pattern(&q2, &g).is_empty());

        // With bound 3 it succeeds.
        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        pb.edge_bounded(x, y, 3);
        let q3 = pb.build_bounded().unwrap();
        assert!(!bmatch_pattern(&q3, &g).is_empty());
    }

    #[test]
    fn cascading_removal_through_bounds() {
        // G: A -> m -> B1 (B1 lacks C within 2), A' -> m' -> B2 -> c -> C.
        // Q: A -[2]-> B -[2]-> C.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let m1 = b.add_node(["M"]);
        let b1 = b.add_node(["B"]);
        let a2 = b.add_node(["A"]);
        let m2 = b.add_node(["M"]);
        let b2 = b.add_node(["B"]);
        let c1 = b.add_node(["M"]);
        let cc = b.add_node(["C"]);
        b.add_edge(a1, m1);
        b.add_edge(m1, b1);
        b.add_edge(a2, m2);
        b.add_edge(m2, b2);
        b.add_edge(b2, c1);
        b.add_edge(c1, cc);
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        let z = pb.node_labeled("C");
        pb.edge_bounded(x, y, 2);
        pb.edge_bounded(y, z, 2);
        let q = pb.build_bounded().unwrap();
        let r = bmatch_pattern(&q, &g);
        assert_eq!(r.node_set(x), &[a2], "a1's only B is b1, which dies");
        assert_eq!(r.node_set(y), &[b2]);
    }

    #[test]
    fn self_pair_via_cycle() {
        // G: single node with self loop; Q: A -[*]-> A (same node twice).
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        b.add_edge(a, a);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        pb.edge_bounded(x, x, 1);
        let q = pb.build_bounded().unwrap();
        let r = bmatch_pattern(&q, &g);
        assert_eq!(r.edge_set(PatternEdgeId(0)), &[(a, a, 1)]);
    }

    #[test]
    fn empty_when_no_candidates() {
        let (g, _) = fig3a();
        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("Nope");
        let y = pb.node_labeled("AI");
        pb.edge_bounded(x, y, 3);
        let q = pb.build_bounded().unwrap();
        assert!(bmatch_pattern(&q, &g).is_empty());
        assert!(!bmatches(&q, &g));
    }

    #[test]
    fn larger_bound_is_monotone() {
        let (g, _) = fig3a();
        let build = |k: u32| {
            let mut b = PatternBuilder::new();
            let ai = b.node_labeled("AI");
            let bio = b.node_labeled("Bio");
            b.edge_bounded(ai, bio, k);
            b.build_bounded().unwrap()
        };
        let r1 = bmatch_pattern(&build(1), &g);
        let r2 = bmatch_pattern(&build(2), &g);
        let r4 = bmatch_pattern(&build(4), &g);
        assert!(r1.size() <= r2.size());
        assert!(r2.size() <= r4.size());
        // All r1 pairs appear in r2.
        let p1 = r1.pairs();
        let p2 = r2.pairs();
        for e in &p1[0] {
            assert!(p2[0].contains(e));
        }
    }
}
