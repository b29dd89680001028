//! Match results `Qs(G)` and `Qb(G)`.
//!
//! The paper defines the result of a pattern query as the set
//! `{(e, Se) | e ∈ Ep}` derived from the unique maximum match relation,
//! where `Se` is the match set of pattern edge `e`; the result is `∅` when
//! `G` does not match `Qs`. We additionally expose per-node match sets,
//! read off the result graph the edge sets form: a node's matches are the
//! endpoints it takes in its edges' pairs (sources of out-edges, targets
//! of in-edges). A node with no incident edge matches its whole base set.
//! So the node sets follow from the edge sets and the base sets, whatever
//! plan computed them, and `==` compares both.

use gpv_graph::NodeId;
use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId};
use serde::{Deserialize, Serialize};

/// Sorts and deduplicates `set` unless it is already strictly increasing:
/// one pass over canonical input, which is what the simulation kernels
/// produce.
fn canonicalize<T: Ord>(set: &mut Vec<T>) {
    if !set.windows(2).all(|w| w[0] < w[1]) {
        set.sort_unstable();
        set.dedup();
    }
}

/// Result of matching a plain pattern via graph simulation.
///
/// Invariants (enforced by the constructors in this crate):
/// * either *all* node/edge match sets are nonempty, or the result is empty;
/// * all sets are sorted and deduplicated;
/// * node sets are the endpoints of the edge sets (see the
///   [module docs](self)).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchResult {
    /// `node_matches[u]` = matches of pattern node `u` (sorted).
    pub node_matches: Vec<Vec<NodeId>>,
    /// `edge_matches[e]` = the match set `Se` (sorted pairs).
    pub edge_matches: Vec<Vec<(NodeId, NodeId)>>,
}

impl MatchResult {
    /// The empty result (`Qs(G) = ∅`): no sets at all.
    pub fn empty() -> Self {
        MatchResult {
            node_matches: Vec::new(),
            edge_matches: Vec::new(),
        }
    }

    /// Builds a result, normalizing set order. Panics if arity disagrees
    /// with the pattern or any set is empty (use [`empty`](Self::empty)).
    pub fn new(
        pattern: &Pattern,
        mut node_matches: Vec<Vec<NodeId>>,
        mut edge_matches: Vec<Vec<(NodeId, NodeId)>>,
    ) -> Self {
        assert_eq!(node_matches.len(), pattern.node_count());
        assert_eq!(edge_matches.len(), pattern.edge_count());
        for s in &mut node_matches {
            assert!(!s.is_empty(), "nonempty node match sets required");
            canonicalize(s);
        }
        for s in &mut edge_matches {
            assert!(!s.is_empty(), "nonempty edge match sets required");
            canonicalize(s);
        }
        MatchResult {
            node_matches,
            edge_matches,
        }
    }

    /// Whether `Qs(G) = ∅`.
    pub fn is_empty(&self) -> bool {
        self.edge_matches.is_empty()
    }

    /// The match set `Se` of edge `e`.
    pub fn edge_set(&self, e: PatternEdgeId) -> &[(NodeId, NodeId)] {
        &self.edge_matches[e.index()]
    }

    /// The matches of pattern node `u`.
    pub fn node_set(&self, u: PatternNodeId) -> &[NodeId] {
        &self.node_matches[u.index()]
    }

    /// The paper's `|Qs(G)|`: total number of edges across all `Se`.
    pub fn size(&self) -> usize {
        self.edge_matches.iter().map(Vec::len).sum()
    }
}

/// Result of matching a bounded pattern via bounded simulation.
///
/// Each edge match carries the *shortest* hop distance `d` of a witnessing
/// nonempty path (`1 ≤ d ≤ fe(e)` for bounded edges). Distances feed the
/// paper's index `I(V)` used by `BMatchJoin`. Node sets are defined as
/// for [`MatchResult`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundedMatchResult {
    /// `node_matches[u]` = matches of pattern node `u` (sorted).
    pub node_matches: Vec<Vec<NodeId>>,
    /// `edge_matches[e]` = `{(v, v', d)}` sorted by `(v, v')`.
    pub edge_matches: Vec<Vec<(NodeId, NodeId, u32)>>,
}

impl BoundedMatchResult {
    /// The empty result.
    pub fn empty() -> Self {
        BoundedMatchResult {
            node_matches: Vec::new(),
            edge_matches: Vec::new(),
        }
    }

    /// Builds a result, normalizing order; panics on arity mismatch or empty
    /// sets.
    pub fn new(
        pattern: &Pattern,
        mut node_matches: Vec<Vec<NodeId>>,
        mut edge_matches: Vec<Vec<(NodeId, NodeId, u32)>>,
    ) -> Self {
        assert_eq!(node_matches.len(), pattern.node_count());
        assert_eq!(edge_matches.len(), pattern.edge_count());
        for s in &mut node_matches {
            assert!(!s.is_empty(), "nonempty node match sets required");
            canonicalize(s);
        }
        for s in &mut edge_matches {
            assert!(!s.is_empty(), "nonempty edge match sets required");
            canonicalize(s);
        }
        BoundedMatchResult {
            node_matches,
            edge_matches,
        }
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.edge_matches.is_empty()
    }

    /// Match set of edge `e` with distances.
    pub fn edge_set(&self, e: PatternEdgeId) -> &[(NodeId, NodeId, u32)] {
        &self.edge_matches[e.index()]
    }

    /// Matches of node `u`.
    pub fn node_set(&self, u: PatternNodeId) -> &[NodeId] {
        &self.node_matches[u.index()]
    }

    /// `|Qb(G)|`: total pairs across all match sets.
    pub fn size(&self) -> usize {
        self.edge_matches.iter().map(Vec::len).sum()
    }

    /// Drops distances, yielding pair sets comparable with plain results.
    pub fn pairs(&self) -> Vec<Vec<(NodeId, NodeId)>> {
        self.edge_matches
            .iter()
            .map(|s| s.iter().map(|&(a, b, _)| (a, b)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_pattern::PatternBuilder;

    fn two_node_pattern() -> Pattern {
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("A");
        let y = b.node_labeled("B");
        b.edge(x, y);
        b.build().unwrap()
    }

    #[test]
    fn normalizes_order() {
        let p = two_node_pattern();
        let r = MatchResult::new(
            &p,
            vec![vec![NodeId(2), NodeId(1), NodeId(2)], vec![NodeId(0)]],
            vec![vec![(NodeId(2), NodeId(0)), (NodeId(1), NodeId(0))]],
        );
        assert_eq!(r.node_set(PatternNodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(
            r.edge_set(PatternEdgeId(0)),
            &[(NodeId(1), NodeId(0)), (NodeId(2), NodeId(0))]
        );
        assert_eq!(r.size(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_result() {
        let r = MatchResult::empty();
        assert!(r.is_empty());
        assert_eq!(r.size(), 0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn rejects_empty_sets() {
        let p = two_node_pattern();
        let _ = MatchResult::new(&p, vec![vec![NodeId(0)], vec![]], vec![vec![]]);
    }

    #[test]
    fn bounded_pairs() {
        let p = two_node_pattern();
        let r = BoundedMatchResult::new(
            &p,
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            vec![vec![(NodeId(0), NodeId(1), 2)]],
        );
        assert_eq!(r.pairs(), vec![vec![(NodeId(0), NodeId(1))]]);
        assert_eq!(r.size(), 1);
    }

    #[test]
    fn semantic_equality() {
        let p = two_node_pattern();
        let a = MatchResult::new(
            &p,
            vec![vec![NodeId(1), NodeId(0)], vec![NodeId(2)]],
            vec![vec![(NodeId(1), NodeId(2)), (NodeId(0), NodeId(2))]],
        );
        let b = MatchResult::new(
            &p,
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]],
            vec![vec![(NodeId(0), NodeId(2)), (NodeId(1), NodeId(2))]],
        );
        assert_eq!(a, b);
    }
}
