//! Dual simulation — extension per the paper's Section VIII pointer to
//! *Capturing Topology in Graph Pattern Matching* (Ma et al., VLDB 2011).
//!
//! Dual simulation strengthens graph simulation with *backward* edge
//! preservation: `(u, v) ∈ S` additionally requires that for every pattern
//! edge `(u'', u)` there is a graph edge `(v'', v)` with `(u'', v'') ∈ S`.
//! The paper notes its view-based techniques "can be readily extended to
//! revisions of simulation such as dual and strong simulation ... retaining
//! the same complexity"; this module provides the dual-simulation oracle
//! those extensions are checked against: the plain refinement of
//! [`crate::simulation`] with its backward counters switched on.

use crate::result::MatchResult;
use crate::simulation::{build_result, relation};
use gpv_graph::{BitSet, DataGraph};
use gpv_pattern::Pattern;

/// Computes the maximum dual-simulation relation, or `None` when empty.
pub fn dual_simulation_relation(q: &Pattern, g: &DataGraph) -> Option<Vec<BitSet>> {
    relation(q, g, true)
}

/// Computes the dual-simulation result of `q` over `g` (edge match sets
/// derived exactly as for plain simulation).
pub fn dual_match_pattern(q: &Pattern, g: &DataGraph) -> MatchResult {
    build_result(q, g, dual_simulation_relation(q, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::simulation_relation;
    use gpv_graph::{GraphBuilder, NodeId};
    use gpv_pattern::PatternBuilder;

    /// G where plain and dual simulation differ:
    /// A1 -> B1, A1 -> B2, C1 -> B2  vs pattern A -> B <- C.
    /// Plain sim: B1 matches B (no backward check). Dual sim: B1 fails —
    /// it has no C predecessor.
    fn setup() -> (DataGraph, Pattern, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let b2 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(a1, b2);
        b.add_edge(c1, b2);
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        let uc = pb.node_labeled("C");
        pb.edge(ua, ub);
        pb.edge(uc, ub);
        let q = pb.build().unwrap();
        (g, q, b1, b2)
    }

    #[test]
    fn dual_is_stricter_than_plain() {
        let (g, q, b1, b2) = setup();
        let plain = simulation_relation(&q, &g).unwrap();
        let dual = dual_simulation_relation(&q, &g).unwrap();
        let ub = 1usize; // pattern node B index
        assert!(plain[ub].contains(b1.index()), "plain admits B1");
        assert!(!dual[ub].contains(b1.index()), "dual rejects B1");
        assert!(dual[ub].contains(b2.index()));
        // Dual ⊆ plain on every pattern node.
        for u in 0..q.node_count() {
            assert!(dual[u].is_subset(&plain[u]));
        }
    }

    #[test]
    fn dual_match_sets() {
        let (g, q, _, b2) = setup();
        let r = dual_match_pattern(&q, &g);
        assert!(!r.is_empty());
        // Every edge match targets b2 now.
        for set in &r.edge_matches {
            for &(_, t) in set {
                assert_eq!(t, b2);
            }
        }
    }

    #[test]
    fn dual_empty_when_backward_unsatisfiable() {
        // G: A -> B only; Q: A -> B <- C with no C in G at all.
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let bb = b.add_node(["B"]);
        b.add_edge(a, bb);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        let uc = pb.node_labeled("C");
        pb.edge(ua, ub);
        pb.edge(uc, ub);
        let q = pb.build().unwrap();
        assert!(dual_simulation_relation(&q, &g).is_none());
        assert!(dual_match_pattern(&q, &g).is_empty());
    }

    #[test]
    fn dual_equals_plain_on_symmetric_instance() {
        // When every match also has the needed predecessors, dual == plain.
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let bb = b.add_node(["B"]);
        b.add_edge(a, bb);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        pb.edge(ua, ub);
        let q = pb.build().unwrap();
        let plain = simulation_relation(&q, &g).unwrap();
        let dual = dual_simulation_relation(&q, &g).unwrap();
        for u in 0..q.node_count() {
            assert_eq!(
                plain[u].iter().collect::<Vec<_>>(),
                dual[u].iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn cascade_through_both_directions() {
        // Chain pattern A -> B -> C; graph where removing the C-match of one
        // branch kills B (forward), which kills its A (forward), and
        // backward constraints kill an orphan B with no A predecessor.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let b_orphan = b.add_node(["B"]);
        let c2 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(b_orphan, c2);
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        let uc = pb.node_labeled("C");
        pb.edge(ua, ub);
        pb.edge(ub, uc);
        let q = pb.build().unwrap();
        let dual = dual_simulation_relation(&q, &g).unwrap();
        assert!(
            !dual[1].contains(b_orphan.index()),
            "orphan B lacks an A pred"
        );
        assert!(
            !dual[2].contains(c2.index()),
            "c2's only path is via orphan"
        );
        assert!(dual[1].contains(b1.index()));
    }
}
