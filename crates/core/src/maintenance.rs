//! Incremental maintenance of materialized simulation views (extension).
//!
//! The paper points out that "incremental methods are already in place to
//! efficiently maintain cached pattern views (e.g. \[15\])" — Fan et al.,
//! *Incremental Graph Pattern Matching* (SIGMOD 2011). This module provides
//! a working maintenance engine for plain-simulation views:
//!
//! * **edge deletions** are handled truly incrementally: deletion is
//!   downward-monotone for simulation, so the same support-counter /
//!   worklist machinery used by `Match` propagates exactly the invalidated
//!   candidates — cost proportional to the affected area, not `|G|`;
//! * **edge insertions** are upward-monotone (matches can only appear):
//!   insertion collects *revival candidates* — nodes outside the current
//!   relation that an inserted edge could newly support — by a backward
//!   closure seeded at the inserted edges' sources, recomputes supports
//!   only for that region, and lets the standard removal drain prune the
//!   over-approximation. Nodes already in the relation can never be
//!   removed by this (their supports only grow), so the cost is
//!   proportional to the revived region, not `|G|`. A view whose
//!   extension is currently empty has no warm state to extend and falls
//!   back to one refinement from the cached predicate-candidate sets.
//!
//! The invariant `self.result() == match_pattern(pattern, current_graph)`
//! is enforced by the tests below and by property tests in `tests/`.

use gpv_graph::{BitSet, DataGraph, NodeId};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternNodeId};

/// A materialized simulation view that tracks a mutating edge set.
#[derive(Clone, Debug)]
pub struct IncrementalView {
    pattern: Pattern,
    /// Mutable adjacency (the maintained copy of the graph's edges).
    out_adj: Vec<Vec<NodeId>>,
    in_adj: Vec<Vec<NodeId>>,
    /// Predicate-satisfying candidates (static: node labels/attrs are fixed).
    base: Vec<BitSet>,
    /// Current maximum simulation relation (empty vec when no match).
    cand: Vec<BitSet>,
    /// support[e][v] for v ∈ cand(src(e)).
    support: Vec<Vec<u32>>,
    /// Whether the view extension is currently empty.
    empty: bool,
    /// Whether a mutation changed the extension since the last
    /// [`take_dirty`](Self::take_dirty). Mutations track this exactly: a
    /// deletion marks it only when it removes a pair between current
    /// candidates (or cascades), an insertion only when it adds such a pair
    /// or a revival survives the drain.
    dirty: bool,
}

impl IncrementalView {
    /// Adjacency mirror + predicate base sets, with no relation yet.
    fn cold(pattern: Pattern, g: &DataGraph) -> Self {
        let n = g.node_count();
        let out_adj: Vec<Vec<NodeId>> = g.nodes().map(|v| g.out_neighbors(v).to_vec()).collect();
        let in_adj: Vec<Vec<NodeId>> = g.nodes().map(|v| g.in_neighbors(v).to_vec()).collect();

        let mut base = Vec::with_capacity(pattern.node_count());
        for u in pattern.nodes() {
            let resolved = pattern.pred(u).resolve(g);
            let mut set = BitSet::new(n);
            for v in g.nodes() {
                if resolved.satisfied_by(g, v) {
                    set.insert(v.index());
                }
            }
            base.push(set);
        }

        IncrementalView {
            pattern,
            out_adj,
            in_adj,
            base,
            cand: Vec::new(),
            support: Vec::new(),
            empty: true,
            dirty: false,
        }
    }

    /// Materializes `pattern` over `g` and prepares maintenance state.
    pub fn new(pattern: Pattern, g: &DataGraph) -> Self {
        let mut view = Self::cold(pattern, g);
        view.recompute();
        view
    }

    /// Promotes a maintainer from an already-materialized extension.
    ///
    /// `result` must be exactly `match_pattern(&pattern, g)` — e.g. a thawed
    /// stored extension for the store's current graph. The refinement
    /// fixpoint is skipped entirely (the maximum relation is known); only
    /// the support counters are recomputed, over the relation rather than
    /// the base sets. This is how a store warms maintainers on the first
    /// delta without re-deriving what materialization already computed.
    pub fn from_result(pattern: Pattern, g: &DataGraph, result: &MatchResult) -> Self {
        let mut view = Self::cold(pattern, g);
        if result.is_empty() {
            return view;
        }
        let n = view.node_count();
        let ne = view.pattern.edge_count();
        let mut cand = Vec::with_capacity(view.pattern.node_count());
        for u in view.pattern.nodes() {
            let mut set = BitSet::new(n);
            for &v in result.node_set(u) {
                set.insert(v.index());
            }
            cand.push(set);
        }
        let mut support = vec![vec![0u32; n]; ne];
        for (ei, &(u, t)) in view.pattern.edges().iter().enumerate() {
            let ct = &cand[t.index()];
            for v in cand[u.index()].iter() {
                support[ei][v] = view.out_adj[v]
                    .iter()
                    .filter(|w| ct.contains(w.index()))
                    .count() as u32;
            }
        }
        view.cand = cand;
        view.support = support;
        view.empty = false;
        view
    }

    /// Returns whether any mutation since the previous call changed the
    /// extension, and clears the flag. Freshly constructed views start
    /// clean. Callers holding a frozen copy of the extension can skip
    /// re-freezing when this returns `false`.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// Number of nodes of the maintained graph.
    pub fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Full refinement from the cached base candidate sets.
    fn recompute(&mut self) {
        let n = self.node_count();
        let np = self.pattern.node_count();
        let ne = self.pattern.edge_count();
        let mut cand = self.base.clone();
        if cand.iter().any(BitSet::is_empty) {
            self.empty = true;
            self.cand = Vec::new();
            self.support = Vec::new();
            return;
        }
        let mut support = vec![vec![0u32; n]; ne];
        let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
        let mut scheduled = vec![BitSet::new(n); np];
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            let ct = cand[t.index()].clone();
            for v in cand[u.index()].iter() {
                let cnt = self.out_adj[v]
                    .iter()
                    .filter(|w| ct.contains(w.index()))
                    .count() as u32;
                support[ei][v] = cnt;
                if cnt == 0 && scheduled[u.index()].insert(v) {
                    worklist.push((u, NodeId(v as u32)));
                }
            }
        }
        let ok = Self::propagate_removals(
            &self.pattern,
            &self.in_adj,
            &mut cand,
            &mut support,
            &mut scheduled,
            worklist,
        );
        if ok {
            self.cand = cand;
            self.support = support;
            self.empty = false;
        } else {
            self.cand = Vec::new();
            self.support = Vec::new();
            self.empty = true;
        }
    }

    /// Shared removal-propagation loop; returns false if a candidate set
    /// empties (view extension becomes ∅).
    fn propagate_removals(
        pattern: &Pattern,
        in_adj: &[Vec<NodeId>],
        cand: &mut [BitSet],
        support: &mut [Vec<u32>],
        scheduled: &mut [BitSet],
        mut worklist: Vec<(PatternNodeId, NodeId)>,
    ) -> bool {
        let mut head = 0;
        while head < worklist.len() {
            let (u, v) = worklist[head];
            head += 1;
            if !cand[u.index()].remove(v.index()) {
                continue;
            }
            if cand[u.index()].is_empty() {
                return false;
            }
            for &(u0, e0) in pattern.in_edges(u) {
                for &w in &in_adj[v.index()] {
                    if cand[u0.index()].contains(w.index())
                        && !scheduled[u0.index()].contains(w.index())
                    {
                        let s = &mut support[e0.index()][w.index()];
                        *s = s.saturating_sub(1);
                        if *s == 0 {
                            scheduled[u0.index()].insert(w.index());
                            worklist.push((u0, w));
                        }
                    }
                }
            }
        }
        true
    }

    /// Deletes edge `(a, b)` and incrementally repairs the view.
    /// Returns `true` if the edge existed.
    pub fn delete_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let Some(pos) = self.out_adj[a.index()].iter().position(|&x| x == b) else {
            return false;
        };
        self.out_adj[a.index()].remove(pos);
        let pos = self.in_adj[b.index()]
            .iter()
            .position(|&x| x == a)
            .expect("in/out adjacency consistent");
        self.in_adj[b.index()].remove(pos);

        if self.empty {
            return true; // Deletions cannot revive matches.
        }

        // Decrement supports for pattern edges whose endpoints currently
        // admit (a, b); propagate zero-support removals.
        let np = self.pattern.node_count();
        let n = self.node_count();
        let mut scheduled = vec![BitSet::new(n); np];
        let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            if self.cand[u.index()].contains(a.index()) && self.cand[t.index()].contains(b.index())
            {
                // Pair (a, b) leaves edge ei's match set: the result changed.
                self.dirty = true;
                let s = &mut self.support[ei][a.index()];
                *s = s.saturating_sub(1);
                if *s == 0 && scheduled[u.index()].insert(a.index()) {
                    worklist.push((u, a));
                }
            }
        }
        let ok = Self::propagate_removals(
            &self.pattern,
            &self.in_adj,
            &mut self.cand,
            &mut self.support,
            &mut scheduled,
            worklist,
        );
        if !ok {
            self.cand = Vec::new();
            self.support = Vec::new();
            self.empty = true;
        }
        true
    }

    /// Inserts edge `(a, b)` and incrementally repairs the view (see
    /// [`insert_batch`](Self::insert_batch)). Returns `true` if the edge
    /// was new.
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if self.out_adj[a.index()].contains(&b) {
            return false;
        }
        self.insert_batch(&[(a, b)]);
        true
    }

    /// Inserts a batch of edges and incrementally revives exactly the
    /// affected region.
    ///
    /// Insertion is upward-monotone: the new maximum simulation relation is
    /// a superset of the current one, and every *newly* admitted node must
    /// justify itself through a chain of successors that bottoms out at an
    /// inserted edge. So:
    ///
    /// 1. candidates already in the relation that gain an inserted edge to
    ///    an in-relation target just bump their support counter;
    /// 2. **revival candidates** — nodes in a pattern node's base but
    ///    outside the relation — are collected by a backward closure: the
    ///    sources of inserted edges seed it, and any base-but-not-candidate
    ///    predecessor of a revival candidate joins it;
    /// 3. revived nodes enter the candidate sets, their supports are
    ///    recomputed locally (and pre-existing members gain support for
    ///    edges into revived targets), and the standard removal drain
    ///    prunes revivals that don't pan out. Pre-existing members'
    ///    supports only ever grow, so the drain can only remove revival
    ///    candidates — the relation never shrinks below its old value.
    pub fn insert_batch(&mut self, inserts: &[(NodeId, NodeId)]) {
        let mut added: Vec<(NodeId, NodeId)> = Vec::with_capacity(inserts.len());
        for &(a, b) in inserts {
            if !self.out_adj[a.index()].contains(&b) {
                self.out_adj[a.index()].push(b);
                self.in_adj[b.index()].push(a);
                added.push((a, b));
            }
        }
        if added.is_empty() {
            return;
        }
        if self.empty {
            // No warm relation to extend — the view may revive wholesale.
            self.recompute();
            if !self.empty {
                self.dirty = true;
            }
            return;
        }
        let n = self.node_count();
        let np = self.pattern.node_count();

        // Seeds + direct support bumps.
        let mut revive = vec![BitSet::new(n); np];
        let mut queue: Vec<(PatternNodeId, NodeId)> = Vec::new();
        for &(a, b) in &added {
            for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
                if !self.base[u.index()].contains(a.index())
                    || !self.base[t.index()].contains(b.index())
                {
                    continue;
                }
                let a_in = self.cand[u.index()].contains(a.index());
                let b_in = self.cand[t.index()].contains(b.index());
                if a_in && b_in {
                    // Pair (a, b) joins edge ei's match set immediately.
                    self.dirty = true;
                    self.support[ei][a.index()] += 1;
                }
                if !a_in && revive[u.index()].insert(a.index()) {
                    queue.push((u, a));
                }
            }
        }

        // Backward closure over base-but-not-candidate predecessors.
        let mut head = 0;
        while head < queue.len() {
            let (t, x) = queue[head];
            head += 1;
            for &(u0, _) in self.pattern.in_edges(t) {
                for &w in &self.in_adj[x.index()] {
                    if self.base[u0.index()].contains(w.index())
                        && !self.cand[u0.index()].contains(w.index())
                        && revive[u0.index()].insert(w.index())
                    {
                        queue.push((u0, w));
                    }
                }
            }
        }
        if queue.is_empty() {
            return;
        }

        // Admit revivals, recompute their supports locally, credit
        // pre-existing members for edges into revived targets, then drain.
        for &(u, v) in &queue {
            self.cand[u.index()].insert(v.index());
        }
        let mut scheduled = vec![BitSet::new(n); np];
        let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            for v in revive[u.index()].iter() {
                let ct = &self.cand[t.index()];
                let cnt = self.out_adj[v]
                    .iter()
                    .filter(|w| ct.contains(w.index()))
                    .count() as u32;
                self.support[ei][v] = cnt;
                if cnt == 0 && scheduled[u.index()].insert(v) {
                    worklist.push((u, NodeId(v as u32)));
                }
            }
            for x in revive[t.index()].iter() {
                for w_idx in 0..self.in_adj[x].len() {
                    let w = self.in_adj[x][w_idx];
                    if self.cand[u.index()].contains(w.index())
                        && !revive[u.index()].contains(w.index())
                    {
                        self.support[ei][w.index()] += 1;
                    }
                }
            }
        }
        let ok = Self::propagate_removals(
            &self.pattern,
            &self.in_adj,
            &mut self.cand,
            &mut self.support,
            &mut scheduled,
            worklist,
        );
        if !ok {
            self.cand = Vec::new();
            self.support = Vec::new();
            self.empty = true;
            self.dirty = true;
            return;
        }
        // Any revival that survived the drain grew the relation.
        if queue
            .iter()
            .any(|&(u, v)| self.cand[u.index()].contains(v.index()))
        {
            self.dirty = true;
        }
    }

    /// The maintained pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Applies a whole [`EdgeDelta`](crate::delta::EdgeDelta)-shaped batch —
    /// `deletes` first, then `inserts` — incrementally: deletions propagate
    /// per edge through the support counters, and the insertions revive
    /// exactly the affected region in one [`insert_batch`](Self::insert_batch)
    /// pass. Neither side ever recomputes from scratch while the view has a
    /// live relation to extend.
    ///
    /// Endpoints must be `< node_count()`; the store boundary validates
    /// untrusted deltas before calling this.
    pub fn apply_batch(&mut self, deletes: &[(NodeId, NodeId)], inserts: &[(NodeId, NodeId)]) {
        for &(a, b) in deletes {
            self.delete_edge(a, b);
        }
        self.insert_batch(inserts);
    }

    /// Updates only the maintained adjacency mirror, leaving candidate and
    /// support state untouched.
    ///
    /// This is the cheap path for views the affected-view detector proves
    /// *unaffected* by a delta: no mutated endpoint can appear in any
    /// candidate set, so supports and results are provably unchanged — but
    /// the adjacency must keep mirroring the evolving graph for later
    /// mutations to apply cleanly. Calling this with edges that *do* touch
    /// candidates desynchronizes the view; use
    /// [`apply_batch`](Self::apply_batch) for those.
    pub fn patch_adjacency(&mut self, deletes: &[(NodeId, NodeId)], inserts: &[(NodeId, NodeId)]) {
        for &(a, b) in deletes {
            if let Some(pos) = self.out_adj[a.index()].iter().position(|&x| x == b) {
                self.out_adj[a.index()].remove(pos);
                let pos = self.in_adj[b.index()]
                    .iter()
                    .position(|&x| x == a)
                    .expect("in/out adjacency consistent");
                self.in_adj[b.index()].remove(pos);
            }
        }
        for &(a, b) in inserts {
            if !self.out_adj[a.index()].contains(&b) {
                self.out_adj[a.index()].push(b);
                self.in_adj[b.index()].push(a);
            }
        }
    }

    /// The current view extension `V(G)`.
    pub fn result(&self) -> MatchResult {
        if self.empty {
            return MatchResult::empty();
        }
        let mut edge_matches = Vec::with_capacity(self.pattern.edge_count());
        for &(u, t) in self.pattern.edges() {
            let (cu, ct) = (&self.cand[u.index()], &self.cand[t.index()]);
            let mut set = Vec::new();
            for v in cu.iter() {
                for &w in &self.out_adj[v] {
                    if ct.contains(w.index()) {
                        set.push((NodeId(v as u32), w));
                    }
                }
            }
            if set.is_empty() {
                return MatchResult::empty();
            }
            edge_matches.push(set);
        }
        let node_matches = self
            .cand
            .iter()
            .map(|s| s.iter().map(|i| NodeId(i as u32)).collect())
            .collect();
        MatchResult::new(&self.pattern, node_matches, edge_matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::PatternBuilder;

    fn pattern_abc() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        b.build().unwrap()
    }

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        let c2 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(a2, b2);
        b.add_edge(b2, c2);
        b.build()
    }

    /// Rebuild a DataGraph from the view's current adjacency to use
    /// `match_pattern` as the oracle.
    fn oracle(g0: &DataGraph, deleted: &[(u32, u32)], inserted: &[(u32, u32)]) -> MatchResult {
        let mut b = GraphBuilder::new();
        for v in g0.nodes() {
            let labels: Vec<&str> = g0.labels_of(v).iter().map(|&l| g0.label_name(l)).collect();
            b.add_node(labels.iter().copied());
        }
        for (u, v) in g0.edges() {
            if !deleted.contains(&(u.0, v.0)) {
                b.add_edge(u, v);
            }
        }
        for &(u, v) in inserted {
            b.add_edge(NodeId(u), NodeId(v));
        }
        match_pattern(&pattern_abc(), &b.build())
    }

    #[test]
    fn initial_matches_oracle() {
        let g = graph();
        let view = IncrementalView::new(pattern_abc(), &g);
        assert_eq!(view.result(), match_pattern(&pattern_abc(), &g));
    }

    #[test]
    fn delete_propagates() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        // Deleting b1 -> c1 invalidates b1 (no C successor), then a1.
        assert!(view.delete_edge(NodeId(1), NodeId(2)));
        assert_eq!(view.result(), oracle(&g, &[(1, 2)], &[]));
        let r = view.result();
        assert!(!r.is_empty());
        assert_eq!(r.node_set(PatternNodeId(0)), &[NodeId(3)], "only a2 left");
    }

    #[test]
    fn delete_to_empty() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        view.delete_edge(NodeId(1), NodeId(2));
        view.delete_edge(NodeId(4), NodeId(5));
        assert!(view.result().is_empty());
        assert_eq!(view.result(), oracle(&g, &[(1, 2), (4, 5)], &[]));
        // Further deletions on an empty view are safe no-ops.
        assert!(view.delete_edge(NodeId(0), NodeId(1)));
        assert!(view.result().is_empty());
    }

    #[test]
    fn delete_missing_edge() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        assert!(!view.delete_edge(NodeId(0), NodeId(5)));
        assert_eq!(view.result(), match_pattern(&pattern_abc(), &g));
    }

    #[test]
    fn insert_adds_matches() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        // Cross edge a1 -> b2 adds a new (A,B) match.
        assert!(view.insert_edge(NodeId(0), NodeId(4)));
        assert_eq!(view.result(), oracle(&g, &[], &[(0, 4)]));
        assert!(!view.insert_edge(NodeId(0), NodeId(4)), "duplicate");
    }

    #[test]
    fn insert_revives_empty_view() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        view.delete_edge(NodeId(1), NodeId(2));
        view.delete_edge(NodeId(4), NodeId(5));
        assert!(view.result().is_empty());
        view.insert_edge(NodeId(1), NodeId(2));
        assert_eq!(view.result(), oracle(&g, &[(4, 5)], &[]));
        assert!(!view.result().is_empty());
    }

    #[test]
    fn apply_batch_matches_chained_single_edges() {
        let g = graph();
        // Mixed batch: forces the patch-then-recompute path.
        let deletes = [(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))];
        let inserts = [(NodeId(0), NodeId(4)), (NodeId(1), NodeId(2))];
        let mut batched = IncrementalView::new(pattern_abc(), &g);
        batched.apply_batch(&deletes, &inserts);
        assert_eq!(batched.result(), oracle(&g, &[(3, 4)], &[(0, 4)]));

        // Delete-only batch: the truly-incremental path, same answer.
        let mut inc = IncrementalView::new(pattern_abc(), &g);
        inc.apply_batch(&[(NodeId(1), NodeId(2))], &[]);
        assert_eq!(inc.result(), oracle(&g, &[(1, 2)], &[]));
    }

    #[test]
    fn patch_adjacency_is_sound_for_unaffected_edges() {
        // Two extra D nodes: edges among them never intersect any base set
        // of pattern_abc, so adjacency-only patching must leave the result
        // untouched — and later *affecting* mutations must still be exact.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let d1 = b.add_node(["D"]);
        let d2 = b.add_node(["D"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(d1, d2);
        let g = b.build();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let before = view.result();
        view.patch_adjacency(&[(d1, d2)], &[(d2, d1)]);
        assert_eq!(view.result(), before, "D-only edges are invisible");
        // An affecting delete afterwards still propagates correctly.
        view.delete_edge(b1, c1);
        assert!(view.result().is_empty());
    }

    #[test]
    fn interleaved_sequence_matches_oracle() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let ops: &[(&str, u32, u32)] = &[
            ("del", 0, 1),
            ("ins", 0, 4),
            ("del", 3, 4),
            ("ins", 3, 1),
            ("del", 1, 2),
            ("ins", 1, 2),
        ];
        let mut deleted: Vec<(u32, u32)> = Vec::new();
        let mut inserted: Vec<(u32, u32)> = Vec::new();
        for &(op, a, b) in ops {
            match op {
                "del" => {
                    view.delete_edge(NodeId(a), NodeId(b));
                    if let Some(p) = inserted.iter().position(|&e| e == (a, b)) {
                        inserted.remove(p);
                    } else {
                        deleted.push((a, b));
                    }
                }
                _ => {
                    view.insert_edge(NodeId(a), NodeId(b));
                    if let Some(p) = deleted.iter().position(|&e| e == (a, b)) {
                        deleted.remove(p);
                    } else {
                        inserted.push((a, b));
                    }
                }
            }
            assert_eq!(
                view.result(),
                oracle(&g, &deleted, &inserted),
                "after {op} ({a},{b})"
            );
        }
    }
}
