//! Incremental maintenance of materialized simulation views (extension).
//!
//! The paper points out that "incremental methods are already in place to
//! efficiently maintain cached pattern views (e.g. \[15\])" — Fan et al.,
//! *Incremental Graph Pattern Matching* (SIGMOD 2011). This module provides
//! a working maintenance engine for plain-simulation views:
//!
//! * **edge deletions** are handled truly incrementally: deletion is
//!   downward-monotone for simulation, so decrementing the deleted pair's
//!   support counter and calling the `MatchJoin` kernel's drain
//!   ([`crate::matchjoin`], the one `Match` runs too) removes exactly the
//!   invalidated candidates, in ascending SCC rank — cost proportional to
//!   the affected area, not `|G|`;
//! * **edge insertions** are upward-monotone (matches can only appear):
//!   insertion collects *revival candidates* — nodes outside the current
//!   relation that an inserted edge could newly support — by a backward
//!   closure seeded at the inserted edges' sources, recomputes supports
//!   only for that region, and lets the same drain prune the
//!   over-approximation. Nodes already in the relation can never be
//!   removed by this (their supports only grow), so the cost is
//!   proportional to the revived region, not `|G|`. A view whose
//!   extension is currently empty has no warm state to extend and falls
//!   back to one refinement from the cached predicate-candidate sets.
//!
//! # Memory: the view's edge footprint, not the graph
//!
//! A maintainer holds only the subgraph its view can ever read. Simulation
//! of a pattern consults only the edges in `⋃ base(x) × base(y)` over
//! pattern edges `(x, y)`, and deltas never change the base sets — the
//! argument is in [`crate::delta`]'s soundness section. So an
//! [`IncrementalView`] keeps a dense local id space (the sorted union of
//! its base sets, its *universe*; the base sets come from the
//! [`GraphSource`] every production read of `G` goes through), the
//! footprint edges over those ids, and
//! candidate bitsets, support counters and per-mutation scratch sized by
//! the universe. Memory is `O(|universe| + |footprint edges|)`, independent
//! of `|V|` and `|E|`; a pattern node with no label atom has base ≈ V and
//! costs what a full mirror would. Every mutation first drops the edges
//! outside the footprint: they are no-ops.
//!
//! The invariant `self.result() == match_pattern(pattern, current_graph)`
//! is enforced by the tests below and by property tests in `tests/`.

use crate::matchjoin::{drain, initial_support, ranks, JoinStats, Relation};
use crate::partial::GraphSource;
use gpv_graph::{BitSet, DataGraph, NodeId};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternNodeId};
use std::mem::size_of;

/// A materialized simulation view that tracks a mutating edge set, holding
/// only its footprint subgraph (see the module docs).
///
/// Internally every node is a *local id*: an index into `universe`, the
/// sorted union of the base sets. Local order equals global order, so
/// extracted node sets come out sorted.
#[derive(Clone, Debug)]
pub struct IncrementalView {
    pattern: Pattern,
    /// `|V|` of the maintained graph.
    node_count: usize,
    /// Local id → graph node: the sorted union of the base sets (empty when
    /// some base set is empty, since the view is then empty forever).
    universe: Vec<NodeId>,
    /// Footprint adjacency over local ids: `(a, b)` is stored iff the graph
    /// has the edge and some pattern edge `(u, t)` has `a ∈ base(u)` and
    /// `b ∈ base(t)`.
    out_adj: Vec<Vec<u32>>,
    in_adj: Vec<Vec<u32>>,
    /// Predicate-satisfying candidates over local ids (static: node
    /// labels/attrs are fixed).
    base: Vec<BitSet>,
    /// The pattern's per-node SCC ranks, the order the drain removes in.
    rank: Vec<usize>,
    /// Current maximum simulation relation and its forward support
    /// counters over local ids (default when no match).
    rel: Relation,
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
    /// Base sets, universe and footprint adjacency, with no relation yet.
    /// The base sets come from a [`GraphSource`]; the adjacency reads
    /// `g.out_neighbors` of base nodes only — never all of `E`.
    fn cold(pattern: Pattern, g: &DataGraph) -> Self {
        let mut source = GraphSource::new(g);
        let global = source.bases(&pattern);
        let mut all = BitSet::new(g.node_count());
        // An empty base set empties the view for good: it keeps no universe.
        if !global.iter().any(|b| b.is_empty()) {
            for b in &global {
                all.union_with(b);
            }
        }
        let mut universe: Vec<NodeId> = all.iter().map(|v| NodeId(v as u32)).collect();
        universe.shrink_to_fit();
        let n = universe.len();
        let local = |v: &NodeId| universe.binary_search(v).ok();

        let base: Vec<BitSet> = global
            .iter()
            .map(|nodes| {
                let mut set = BitSet::new(n);
                for i in nodes.iter().filter_map(|v| local(&NodeId(v as u32))) {
                    set.insert(i);
                }
                set
            })
            .collect();

        let mut out_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, t) in pattern.edges() {
            let bt = &base[t.index()];
            for a in base[u.index()].iter() {
                for b in g.out_neighbors(universe[a]).iter().filter_map(local) {
                    if bt.contains(b) {
                        out_adj[a].push(b as u32);
                    }
                }
            }
        }
        let mut in_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, targets) in out_adj.iter_mut().enumerate() {
            targets.sort_unstable();
            targets.dedup();
            targets.shrink_to_fit();
            for &b in targets.iter() {
                in_adj[b as usize].push(a as u32);
            }
        }
        for sources in &mut in_adj {
            sources.shrink_to_fit();
        }

        IncrementalView {
            rank: ranks(&pattern),
            pattern,
            node_count: g.node_count(),
            universe,
            out_adj,
            in_adj,
            base,
            rel: Relation::default(),
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
        let n = view.universe.len();
        let mut cand = Vec::with_capacity(view.pattern.node_count());
        for u in view.pattern.nodes() {
            let mut set = BitSet::new(n);
            for v in result.node_set(u) {
                let i = view.local(*v);
                debug_assert!(i.is_some(), "matched node {v} outside every base set");
                if let Some(i) = i {
                    set.insert(i);
                }
            }
            cand.push(set);
        }
        // The relation is exact, so no candidate lacks support: no drain.
        view.count_supports(cand);
        view
    }

    /// Returns whether any mutation since the previous call changed the
    /// extension, and clears the flag. Freshly constructed views start
    /// clean. Callers holding a frozen copy of the extension can skip
    /// re-freezing when this returns `false`.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// Number of nodes of the maintained graph (`|V|`, not the size of the
    /// footprint this view holds).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Estimated heap and inline bytes this maintainer holds: the universe,
    /// the footprint adjacency, the base and candidate bitsets and the
    /// support counters. Independent of `|V|` and `|E|` outside the
    /// view's footprint.
    pub fn resident_bytes(&self) -> usize {
        fn adj(lists: &Vec<Vec<u32>>) -> usize {
            lists.capacity() * size_of::<Vec<u32>>()
                + lists
                    .iter()
                    .map(|l| l.capacity() * size_of::<u32>())
                    .sum::<usize>()
        }
        fn bits(sets: &Vec<BitSet>) -> usize {
            sets.capacity() * size_of::<BitSet>()
                + sets
                    .iter()
                    .map(|s| s.capacity().div_ceil(64) * size_of::<u64>())
                    .sum::<usize>()
        }
        size_of::<Self>()
            + self.universe.capacity() * size_of::<NodeId>()
            + adj(&self.out_adj)
            + adj(&self.in_adj)
            + bits(&self.base)
            + self.rank.capacity() * size_of::<usize>()
            + bits(&self.rel.cand)
            + adj(&self.rel.fwd)
    }

    /// The local id of graph node `v`, or `None` when `v` lies in no base
    /// set (including ids `>= node_count()`).
    fn local(&self, v: NodeId) -> Option<usize> {
        self.universe.binary_search(&v).ok()
    }

    /// The local ids of `(a, b)` when the edge lies in the view's footprint:
    /// some pattern edge `(u, t)` has `a ∈ base(u)` and `b ∈ base(t)`.
    fn footprint_edge(&self, a: NodeId, b: NodeId) -> Option<(usize, usize)> {
        let (la, lb) = (self.local(a)?, self.local(b)?);
        self.pattern
            .edges()
            .iter()
            .any(|&(u, t)| self.base[u.index()].contains(la) && self.base[t.index()].contains(lb))
            .then_some((la, lb))
    }

    /// Removes footprint edge `(la, lb)` from the adjacency; returns whether
    /// it was present.
    fn unlink(&mut self, la: usize, lb: usize) -> bool {
        let Some(pos) = self.out_adj[la].iter().position(|&x| x as usize == lb) else {
            return false;
        };
        self.out_adj[la].swap_remove(pos);
        let pos = self.in_adj[lb]
            .iter()
            .position(|&x| x as usize == la)
            .expect("in/out adjacency consistent");
        self.in_adj[lb].swap_remove(pos);
        true
    }

    /// Adds footprint edge `(la, lb)` to the adjacency; returns whether it
    /// was new.
    fn link(&mut self, la: usize, lb: usize) -> bool {
        if self.out_adj[la].contains(&(lb as u32)) {
            return false;
        }
        self.out_adj[la].push(lb as u32);
        self.in_adj[lb].push(la as u32);
        true
    }

    /// Full refinement from the cached base candidate sets, for a view
    /// that has no relation yet (it stays empty when a base set is).
    fn recompute(&mut self) {
        if !self.base.iter().any(BitSet::is_empty) {
            let seeds = self.count_supports(self.base.clone());
            self.settle(seeds);
        }
    }

    /// Installs `cand` as the relation with its forward support counters
    /// over the footprint, and returns the candidates left with no support
    /// on some out-edge (the drain's seeds).
    fn count_supports(&mut self, cand: Vec<BitSet>) -> Vec<(PatternNodeId, u32)> {
        let n = self.universe.len();
        let mut rel = Relation {
            cand,
            fwd: vec![vec![0u32; n]; self.pattern.edge_count()],
            bwd: Vec::new(),
        };
        let mut seeds = Vec::new();
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            let (cu, ct) = (&rel.cand[u.index()], &rel.cand[t.index()]);
            let zero = initial_support(cu, ct, |v| &self.out_adj[v], &mut rel.fwd[ei]);
            seeds.extend(zero.into_iter().map(|v| (u, v)));
        }
        self.rel = rel;
        self.empty = false;
        seeds
    }

    /// Runs the kernel's support-counter [`drain`] over the relation from
    /// `seeds`, reading predecessors from the footprint adjacency — one
    /// union over pattern edges, so every edge reads the same row — and
    /// marks the view empty when a candidate set empties. Returns whether
    /// the view has a match.
    fn settle(&mut self, seeds: Vec<(PatternNodeId, u32)>) -> bool {
        let in_adj = &self.in_adj;
        let stats = &mut JoinStats::default();
        let live = drain(
            &self.pattern,
            &self.rank,
            &mut self.rel,
            seeds,
            |_, _, v| &in_adj[v as usize],
            stats,
        );
        if !live {
            self.rel = Relation::default();
        }
        self.empty = !live;
        live
    }

    /// Deletes edge `(a, b)` and incrementally repairs the view.
    ///
    /// Returns `true` if the edge existed *within the view's footprint*.
    /// Edges outside it — including endpoints `>= node_count()` — cannot
    /// change the view and are no-ops that return `false`.
    pub fn delete_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (Some(la), Some(lb)) = (self.local(a), self.local(b)) else {
            return false;
        };
        if !self.unlink(la, lb) {
            return false;
        }
        if self.empty {
            return true; // Deletions cannot revive matches.
        }

        // Decrement supports for pattern edges whose endpoints currently
        // admit (a, b); drain zero-support removals.
        let mut seeds: Vec<(PatternNodeId, u32)> = Vec::new();
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            let cand = &self.rel.cand;
            if cand[u.index()].contains(la) && cand[t.index()].contains(lb) {
                // Pair (a, b) leaves edge ei's match set: the result changed.
                self.dirty = true;
                let s = &mut self.rel.fwd[ei][la];
                *s = s.saturating_sub(1);
                if *s == 0 {
                    seeds.push((u, la as u32));
                }
            }
        }
        if !seeds.is_empty() {
            self.settle(seeds);
        }
        true
    }

    /// Inserts edge `(a, b)` and incrementally repairs the view (see
    /// [`insert_batch`](Self::insert_batch)).
    ///
    /// Returns `true` if the edge was new *within the view's footprint*.
    /// Edges outside it — including endpoints `>= node_count()` — cannot
    /// change the view and are no-ops that return `false`.
    pub fn insert_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        match self.footprint_edge(a, b) {
            Some((la, lb)) if !self.out_adj[la].contains(&(lb as u32)) => {
                self.insert_batch(&[(a, b)]);
                true
            }
            _ => false,
        }
    }

    /// Inserts a batch of edges and incrementally revives exactly the
    /// affected region. Edges outside the view's footprint are dropped
    /// first.
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
    ///    edges into revived targets), and the kernel's removal drain
    ///    prunes revivals that don't pan out. Pre-existing members'
    ///    supports only ever grow, so the drain can only remove revival
    ///    candidates — the relation never shrinks below its old value.
    pub fn insert_batch(&mut self, inserts: &[(NodeId, NodeId)]) {
        let mut added: Vec<(usize, usize)> = Vec::with_capacity(inserts.len());
        for &(a, b) in inserts {
            if let Some((la, lb)) = self.footprint_edge(a, b) {
                if self.link(la, lb) {
                    added.push((la, lb));
                }
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
        let n = self.universe.len();
        let np = self.pattern.node_count();

        // Seeds + direct support bumps.
        let mut revive = vec![BitSet::new(n); np];
        let mut queue: Vec<(PatternNodeId, usize)> = Vec::new();
        for &(a, b) in &added {
            for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
                if !self.base[u.index()].contains(a) || !self.base[t.index()].contains(b) {
                    continue;
                }
                let a_in = self.rel.cand[u.index()].contains(a);
                let b_in = self.rel.cand[t.index()].contains(b);
                if a_in && b_in {
                    // Pair (a, b) joins edge ei's match set immediately.
                    self.dirty = true;
                    self.rel.fwd[ei][a] += 1;
                }
                if !a_in && revive[u.index()].insert(a) {
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
                for &w in &self.in_adj[x] {
                    let w = w as usize;
                    if self.base[u0.index()].contains(w)
                        && !self.rel.cand[u0.index()].contains(w)
                        && revive[u0.index()].insert(w)
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
            self.rel.cand[u.index()].insert(v);
        }
        let mut seeds: Vec<(PatternNodeId, u32)> = Vec::new();
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            let rel = &mut self.rel;
            let (ru, ct) = (&revive[u.index()], &rel.cand[t.index()]);
            let zero = initial_support(ru, ct, |v| &self.out_adj[v], &mut rel.fwd[ei]);
            seeds.extend(zero.into_iter().map(|v| (u, v)));
            for x in revive[t.index()].iter() {
                for &w in &self.in_adj[x] {
                    let w = w as usize;
                    if rel.cand[u.index()].contains(w) && !ru.contains(w) {
                        rel.fwd[ei][w] += 1;
                    }
                }
            }
        }
        // The relation changed if it emptied or a revival survived the drain.
        if !self.settle(seeds)
            || queue
                .iter()
                .any(|&(u, v)| self.rel.cand[u.index()].contains(v))
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
    /// Edges outside the view's footprint are skipped, so any endpoint is
    /// accepted: an id `>= node_count()` lies in no base set and never
    /// panics. The store boundary still validates untrusted deltas, since
    /// the graph itself would reject them.
    pub fn apply_batch(&mut self, deletes: &[(NodeId, NodeId)], inserts: &[(NodeId, NodeId)]) {
        for &(a, b) in deletes {
            self.delete_edge(a, b);
        }
        self.insert_batch(inserts);
    }

    /// Updates only the footprint adjacency, leaving candidate and support
    /// state untouched; edges outside the footprint are skipped.
    ///
    /// Calling this with edges that *do* touch candidates desynchronizes
    /// the view; use [`apply_batch`](Self::apply_batch) for those. A view
    /// the affected-view detector proves *unaffected* by a delta has no
    /// footprint edge in it (see
    /// [`ViewStore`](crate::store::ViewStore)'s writer state), so this is
    /// then a no-op and the store does not call it.
    pub fn patch_adjacency(&mut self, deletes: &[(NodeId, NodeId)], inserts: &[(NodeId, NodeId)]) {
        for &(a, b) in deletes {
            if let (Some(la), Some(lb)) = (self.local(a), self.local(b)) {
                self.unlink(la, lb);
            }
        }
        for &(a, b) in inserts {
            if let Some((la, lb)) = self.footprint_edge(a, b) {
                self.link(la, lb);
            }
        }
    }

    /// The current view extension `V(G)`.
    pub fn result(&self) -> MatchResult {
        if self.empty {
            return MatchResult::empty();
        }
        let global = |i: usize| self.universe[i];
        let mut edge_matches = Vec::with_capacity(self.pattern.edge_count());
        for &(u, t) in self.pattern.edges() {
            let (cu, ct) = (&self.rel.cand[u.index()], &self.rel.cand[t.index()]);
            let mut set = Vec::new();
            for v in cu.iter() {
                for &w in &self.out_adj[v] {
                    if ct.contains(w as usize) {
                        set.push((global(v), global(w as usize)));
                    }
                }
            }
            if set.is_empty() {
                return MatchResult::empty();
            }
            edge_matches.push(set);
        }
        let node_matches = self
            .rel
            .cand
            .iter()
            .map(|s| s.iter().map(global).collect())
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
    fn out_of_range_endpoints_are_no_ops() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let before = view.result();
        let far = NodeId(g.node_count() as u32 + 7);
        for (a, b) in [(NodeId(0), far), (far, NodeId(1)), (far, far)] {
            assert!(!view.delete_edge(a, b));
            assert!(!view.insert_edge(a, b));
            view.apply_batch(&[(a, b)], &[(a, b)]);
            view.patch_adjacency(&[(a, b)], &[(a, b)]);
        }
        assert_eq!(view.result(), before);
        assert!(!view.take_dirty());
    }

    #[test]
    fn edges_outside_the_footprint_are_no_ops() {
        // a1 ∈ base(A) and c1 ∈ base(C), but no pattern edge runs A → C:
        // the edge is outside the footprint although both ends are in the
        // universe.
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let (before, bytes) = (view.result(), view.resident_bytes());
        assert!(!view.insert_edge(NodeId(0), NodeId(2)));
        assert!(!view.delete_edge(NodeId(0), NodeId(2)));
        view.patch_adjacency(&[], &[(NodeId(0), NodeId(2)), (NodeId(2), NodeId(1))]);
        assert_eq!(view.resident_bytes(), bytes);
        assert_eq!(view.result(), before);
        // A footprint edge is still seen.
        assert!(view.insert_edge(NodeId(0), NodeId(4)));
    }

    #[test]
    fn resident_bytes_ignore_nodes_outside_the_footprint() {
        let g = graph();
        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            let labels: Vec<&str> = g.labels_of(v).iter().map(|&l| g.label_name(l)).collect();
            b.add_node(labels.iter().copied());
        }
        for (u, v) in g.edges() {
            b.add_edge(u, v);
        }
        let extra: Vec<NodeId> = (0..20_000).map(|_| b.add_node(["Z"])).collect();
        for (i, &z) in extra.iter().enumerate() {
            b.add_edge(z, extra[(i * 7 + 1) % extra.len()]);
            b.add_edge(z, NodeId((i % g.node_count()) as u32));
        }
        let big = b.build();
        let q = pattern_abc();
        let small_view = IncrementalView::from_result(q.clone(), &g, &match_pattern(&q, &g));
        let big_view = IncrementalView::from_result(q.clone(), &big, &match_pattern(&q, &big));
        assert_eq!(big_view.node_count(), g.node_count() + 20_000);
        assert_eq!(big_view.result(), small_view.result());
        assert_eq!(big_view.resident_bytes(), small_view.resident_bytes());
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
