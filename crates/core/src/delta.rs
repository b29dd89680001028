//! Edge-delta batches and affected-view detection — the front half of the
//! incremental maintenance pipeline.
//!
//! The paper's serving story assumes views are *maintained*, not
//! re-materialized ("incremental methods are already in place to efficiently
//! maintain cached pattern views", pointing at Fan et al., SIGMOD 2011).
//! [`EdgeDelta`] is the unit of change — a batch of edge deletions and
//! insertions against an otherwise-immutable [`DataGraph`] — and
//! [`ViewFootprintIndex`] is the dependency-tracking half: an interned-label
//! index over view definitions that maps a delta to the subset of stored
//! views whose result can possibly change, so
//! [`ViewStore::apply_delta`](crate::store::ViewStore::apply_delta) routes
//! only those views through
//! [`IncrementalView`](crate::maintenance::IncrementalView) and leaves every
//! other extension (and every cached answer that reads only them) untouched.
//!
//! Producing the successor graph costs `O(|Δ| log |Δ|)`, one `Arc` bump
//! per adjacency page and a copy of the pages the delta touches:
//! [`EdgeDelta::apply_to`] splices the old paged CSRs, sharing every
//! untouched page with the predecessor, and carries the graph's edge-set
//! hash along so the successor's
//! [`graph_fingerprint`](crate::storage::graph_fingerprint) is `O(1)`.
//!
//! # Soundness of the footprint test
//!
//! Edge deltas never change node labels or attributes, so each pattern
//! node's *base* set (nodes satisfying its predicate) is invariant under a
//! delta. An edge `(u, v)` can change a view's result only if `u` lies in
//! some pattern node's base and the matching machinery consults the edge —
//! which requires an endpoint inside a base set. Three cases per view:
//!
//! * every pattern node carries a resolvable label atom → its base is a
//!   subset of that label's holders, so the view is affected only when a
//!   touched endpoint holds one of the view's **footprint labels**;
//! * some pattern node has no label atom → its base is unbounded by labels
//!   and the view is conservatively **unconditional** (checked on every
//!   delta);
//! * some pattern node's label atom does not resolve against the graph's
//!   alphabet → its base is empty *forever* (labels are immutable), the view
//!   result is permanently empty, and the view is **never** affected.
//!
//! [`QueryFootprint`] is the edge-level refinement the serving layer uses
//! for cached answers: `Q(G)` under simulation reads only the edges in
//! `⋃ base(x) × base(y)` over pattern edges `(x, y)`. Every edge
//! `simulation_relation` and `build_result` consult runs from `cand(x)`
//! into `cand(y)` for some pattern edge `(x, y)`, with `cand ⊆ base`:
//!
//! * the initial support count of `(x, y)` at `v ∈ cand(x)` counts
//!   out-edges `(v, w)` with `w ∈ cand(y)`;
//! * removing `w` from `cand(y)` decrements, for each in-edge `(v, w)`,
//!   the support of `v` only when `v ∈ cand(x)`;
//! * the edge match set `S(x, y)` collects `(v, w)` with `v ∈ cand(x)` and
//!   `w ∈ cand(y)`.
//!
//! So two graphs with the same nodes whose edge sets agree on that union
//! run the same refinement and yield the same answer: a delta none of
//! whose edges lands in it leaves `Q(G)` unchanged. Theorem 1 makes every
//! plan's answer equal to `match_pattern(Q, G)`, so this holds whatever
//! plan produced the answer.
//!
//! # Soundness of the answer-level test
//!
//! [`QueryFootprint::may_change`] goes one step further for edges inside
//! the footprint: it reads the cached answer itself. Let `R` be the
//! maximum simulation on `G` and `R'` the one on `G'`, `sim(x)` be `R(x)`,
//! and say a pattern edge `e = (x, y)` *fits* `(u, v)` when `u ⊨ x` and
//! `v ⊨ y`. For a non-empty answer, the node set of an `x` with an
//! out-edge is `sim(x)` (every member of `R(x)` has a witness on each
//! out-edge), and a sink's `sim(y)` is all of `base(y)`.
//!
//! * **Delete `(u, v)`.** Deleting edges only shrinks the maximum
//!   simulation. If `(u, v)` is in no `S_e`, no witness `R` uses is gone,
//!   so `R` is still a simulation on `G'` and `R' = R`; the `S_e` do not
//!   contain the edge either. An empty answer stays empty.
//! * **Insert `(u, v)` into a non-empty answer.** Inserting only grows the
//!   maximum simulation, and the only pairs that can use the new edge as a
//!   witness are `(x, u)` for fitting `e`. A pair with `u ∈ R(x)` already
//!   has witnesses in `R`. Suppose every fitting `e` has `v ∉ sim(y)` and
//!   either `u ∈ sim(x)` or no fitting source reachable from `y` (reflexive
//!   reachability). If `R' ≠ R`, some new pair `(x, u)` needs the new
//!   edge, so `(y, v) ∈ R' \ R` for its fitting `e`, and `u ∉ sim(x)`, so
//!   no fitting source is reachable from `y`. The new pairs over nodes
//!   reachable from `y`, joined with `R`, then form a simulation on `G`:
//!   their witnesses are in `R` or again reachable from `y`, and none of
//!   them is a pair that could use the new edge. So they lie in `R`, which
//!   contradicts `(y, v) ∉ R`. Hence `R' = R`, and `(u, v)` enters no `S_e`
//!   because `v ∉ sim(y)`. An edge into a sink's base always fails the
//!   test, as does any footprint insert into an empty answer.
//!
//! A batch applies its edges one at a time, deletes first. Each edge that
//! passes the test leaves the answer as it was, so the next edge is tested
//! against the same answer; the rules read the answer and node data only,
//! never the intermediate graph's edges. If every edge passes, the batch
//! leaves the answer unchanged.

use crate::compact::CompactView;
use crate::store::StoreError;
use crate::view::ViewDef;
use gpv_graph::{DataGraph, LabelId, NodeId};
use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId, ResolvedPredicate};
use std::collections::{HashMap, HashSet};

/// A batch of edge mutations against a [`DataGraph`].
///
/// Semantics: `deletes` are applied first, then `inserts` — so an edge
/// appearing in both sets ends up present. Deleting an absent edge and
/// inserting a present one are both no-ops. Node sets never change: every
/// endpoint must reference an existing node (enforced by
/// [`validate`](EdgeDelta::validate) at the store boundary).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges added by this batch.
    pub inserts: Vec<(NodeId, NodeId)>,
    /// Edges removed by this batch (before `inserts` apply).
    pub deletes: Vec<(NodeId, NodeId)>,
}

impl EdgeDelta {
    /// Creates a delta, sorting and deduplicating both edge sets.
    pub fn new(inserts: Vec<(NodeId, NodeId)>, deletes: Vec<(NodeId, NodeId)>) -> Self {
        let mut d = EdgeDelta { inserts, deletes };
        d.inserts.sort_unstable();
        d.inserts.dedup();
        d.deletes.sort_unstable();
        d.deletes.dedup();
        d
    }

    /// Whether the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total number of edge mutations in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Iterates every node id an edge of this delta touches (with repeats).
    pub fn touched_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inserts
            .iter()
            .chain(self.deletes.iter())
            .flat_map(|&(u, v)| [u, v])
    }

    /// Validates every endpoint against `g`'s node set, returning the first
    /// out-of-range id as a clean error instead of letting downstream
    /// adjacency indexing panic.
    pub fn validate(&self, g: &DataGraph) -> Result<(), StoreError> {
        let n = g.node_count();
        match self.touched_nodes().find(|id| id.index() >= n) {
            Some(node) => Err(StoreError::NodeOutOfRange {
                node,
                node_count: n,
            }),
            None => Ok(()),
        }
    }

    /// Applies the batch to `g`, producing the post-delta graph by
    /// splicing `g`'s paged CSRs ([`DataGraph::splice_edges`]): node data
    /// (labels, attributes, interned alphabets) and every adjacency page
    /// no changed edge lands in are shared by `Arc`, only the pages of
    /// changed rows are rebuilt, and the graph's edge-set hash moves by
    /// exactly those edges. No copy of `E`; the batch need not be sorted
    /// or deduplicated.
    ///
    /// Call [`validate`](EdgeDelta::validate) first for untrusted input —
    /// out-of-range endpoints panic here.
    pub fn apply_to(&self, g: &DataGraph) -> DataGraph {
        g.splice_edges(&self.deletes, &self.inserts)
    }
}

/// How a view's result can depend on edge mutations — see the module docs
/// for the soundness argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewFootprint {
    /// Some pattern node's label atom does not resolve against the graph's
    /// alphabet: the view's result is empty under every edge delta.
    Never,
    /// Some pattern node has no label atom: any edge may matter.
    Unconditional,
    /// Every pattern node is label-constrained; the view is affected only by
    /// edges with an endpoint holding one of these labels.
    Labels(Vec<LabelId>),
}

impl ViewFootprint {
    /// Classifies one view definition against `g`'s label alphabet.
    pub fn of(def: &ViewDef, g: &DataGraph) -> ViewFootprint {
        let mut labels: Vec<LabelId> = Vec::new();
        let mut unconditional = false;
        for pred in def.pattern.preds() {
            let mut node_label = None;
            for atom in pred.atoms() {
                if let gpv_pattern::Atom::Label(name) = atom {
                    match g.lookup_label(name) {
                        // A conjunction with an unresolvable label is
                        // unsatisfiable: the node's base is empty forever.
                        None => return ViewFootprint::Never,
                        Some(id) => node_label = node_label.or(Some(id)),
                    }
                }
            }
            match node_label {
                Some(id) => labels.push(id),
                None => unconditional = true,
            }
        }
        if unconditional {
            ViewFootprint::Unconditional
        } else {
            labels.sort_unstable();
            labels.dedup();
            ViewFootprint::Labels(labels)
        }
    }
}

/// The edges a pattern query's answer can depend on, and what the answer
/// must look like for an edge of them to leave it unchanged. `Q(G)` reads
/// only edges `(u, v)` with `u ⊨ x` and `v ⊨ y` for some pattern edge
/// `(x, y)` — the edge *fits* `(u, v)`; [`touched_by`](Self::touched_by)
/// tests that, [`may_change`](Self::may_change) tests the cached answer
/// itself. See the module docs for both arguments.
///
/// Resolutions stay valid for every graph a delta chain derives from the
/// resolution graph: successors share its interners, and deltas never
/// change node data.
#[derive(Clone, Debug)]
pub struct QueryFootprint {
    /// Each pattern node's predicate, resolved.
    preds: Vec<ResolvedPredicate>,
    /// Pattern edge `e` as `(source, target)`.
    edges: Vec<(PatternNodeId, PatternNodeId)>,
    /// Whether each pattern node is a sink: its `sim` is its base set,
    /// any other node's is its node set.
    sink: Vec<bool>,
    /// `reach[y * words..][..words]`: the pattern nodes reachable from `y`,
    /// `y` itself included, one bit each.
    reach: Vec<u64>,
    words: usize,
}

impl QueryFootprint {
    /// Resolves `q` against `g` and computes its pattern reachability.
    pub fn of(q: &Pattern, g: &DataGraph) -> QueryFootprint {
        let n = q.node_count();
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        let mut stack = Vec::new();
        for y in q.nodes() {
            let row = &mut reach[y.index() * words..][..words];
            stack.push(y);
            while let Some(x) = stack.pop() {
                let (w, bit) = (x.index() / 64, 1u64 << (x.index() % 64));
                if row[w] & bit == 0 {
                    row[w] |= bit;
                    stack.extend(q.out_edges(x).iter().map(|&(z, _)| z));
                }
            }
        }
        QueryFootprint {
            preds: q.preds().iter().map(|p| p.resolve(g)).collect(),
            edges: q.edges().to_vec(),
            sink: q.nodes().map(|x| q.out_edges(x).is_empty()).collect(),
            reach,
            words,
        }
    }

    /// The pattern edges that fit `(u, v)`: `u ⊨ x` and `v ⊨ y`.
    fn fitting<'a>(
        &'a self,
        g: &'a DataGraph,
        (u, v): (NodeId, NodeId),
    ) -> impl Iterator<Item = PatternEdgeId> + 'a {
        self.edges
            .iter()
            .enumerate()
            .filter_map(move |(e, &(x, y))| {
                (self.preds[x.index()].satisfied_by(g, u)
                    && self.preds[y.index()].satisfied_by(g, v))
                .then_some(PatternEdgeId(e as u32))
            })
    }

    /// Whether some inserted or deleted edge of `delta` lies in the
    /// footprint: some pattern edge fits it. `g` is any graph sharing node
    /// data with the resolution graph (the pre- or the post-delta graph);
    /// endpoints must be in range.
    pub fn touched_by(&self, delta: &EdgeDelta, g: &DataGraph) -> bool {
        delta
            .inserts
            .iter()
            .chain(&delta.deletes)
            .any(|&uv| self.fitting(g, uv).next().is_some())
    }

    /// Whether `delta` may change `answer`, the query's plain-simulation
    /// answer on the pre-delta graph. `false` is a proof that the answer
    /// on the post-delta graph has the same edge sets, and so the same
    /// simulation relation; `true` only means the test cannot tell. The
    /// batch is tested edge by edge, deletes first, each against `answer`
    /// (see the module docs for the rules and why they hold). `g` is as
    /// for [`touched_by`](Self::touched_by).
    pub fn may_change(&self, delta: &EdgeDelta, answer: &CompactView, g: &DataGraph) -> bool {
        if answer.is_empty() {
            // Deletes only shrink an empty simulation further.
            return delta
                .inserts
                .iter()
                .any(|&uv| self.fitting(g, uv).next().is_some());
        }
        if answer.edge_count() != self.edges.len() {
            // Not an answer to this query: nothing can be proved.
            return true;
        }
        let deletes = delta.deletes.iter().any(|&uv| {
            self.fitting(g, uv)
                .any(|e| answer.edge_set(e).binary_search(&uv).is_ok())
        });
        deletes
            || delta
                .inserts
                .iter()
                .any(|&uv| self.insert_may_change(answer, g, uv))
    }

    /// The insert rule for a non-empty `answer`: `(u, v)` leaves it
    /// unchanged when, for every fitting `e = (x, y)`, `v ∉ sim(y)` and
    /// either `u ∈ sim(x)` or no fitting source is reachable from `y`.
    fn insert_may_change(
        &self,
        answer: &CompactView,
        g: &DataGraph,
        (u, v): (NodeId, NodeId),
    ) -> bool {
        let mut sources = vec![0u64; self.words];
        for e in self.fitting(g, (u, v)) {
            let x = self.edges[e.index()].0.index();
            sources[x / 64] |= 1 << (x % 64);
        }
        self.fitting(g, (u, v)).any(|e| {
            let (x, y) = self.edges[e.index()];
            // A sink's `sim` is its whole base set, which `v` is in.
            let v_in_sim_y = self.sink[y.index()] || answer.node_set(y).binary_search(&v).is_ok();
            let reaches_source = self.reach[y.index() * self.words..][..self.words]
                .iter()
                .zip(&sources)
                .any(|(r, s)| r & s != 0);
            v_in_sim_y || (answer.node_set(x).binary_search(&u).is_err() && reaches_source)
        })
    }
}

/// An interned-label index over stored view definitions: the affected-view
/// detector. Build once per view set (cheap — proportional to total
/// pattern size), query per delta: edge deltas never change labels, so it
/// stays valid along a delta chain.
#[derive(Clone, Debug, Default)]
pub struct ViewFootprintIndex {
    by_label: HashMap<LabelId, Vec<u64>>,
    unconditional: Vec<u64>,
}

impl ViewFootprintIndex {
    /// Builds the index from `(view id, definition)` pairs against `g`'s
    /// label alphabet. Views classified [`ViewFootprint::Never`] are simply
    /// absent — they can never be affected.
    pub fn build<'a>(
        views: impl IntoIterator<Item = (u64, &'a ViewDef)>,
        g: &DataGraph,
    ) -> ViewFootprintIndex {
        let mut idx = ViewFootprintIndex::default();
        for (id, def) in views {
            match ViewFootprint::of(def, g) {
                ViewFootprint::Never => {}
                ViewFootprint::Unconditional => idx.unconditional.push(id),
                ViewFootprint::Labels(labels) => {
                    for l in labels {
                        idx.by_label.entry(l).or_default().push(id);
                    }
                }
            }
        }
        idx
    }

    /// The view ids whose result can change under `delta`: every
    /// unconditional view plus every view with a footprint label held by a
    /// touched endpoint. Endpoint labels are read from `g` — pre- and
    /// post-delta graphs agree, since deltas never change node data.
    /// Returned sorted and deduplicated.
    pub fn affected(&self, delta: &EdgeDelta, g: &DataGraph) -> Vec<u64> {
        let n = g.node_count();
        let mut seen_nodes = HashSet::new();
        let mut touched_labels = HashSet::new();
        for id in delta.touched_nodes() {
            if id.index() < n && seen_nodes.insert(id) {
                touched_labels.extend(g.labels_of(id).iter().copied());
            }
        }
        let mut out: Vec<u64> = self.unconditional.clone();
        for l in touched_labels {
            if let Some(ids) = self.by_label.get(&l) {
                out.extend_from_slice(ids);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::{Pattern, PatternBuilder, Predicate};

    fn single(a: &str, b: &str) -> Pattern {
        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled(a);
        let y = pb.node_labeled(b);
        pb.edge(x, y);
        pb.build().unwrap()
    }

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let x = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        b.add_edge(a, x);
        b.add_edge(x, c);
        b.build()
    }

    #[test]
    fn apply_to_matches_rebuilt_graph_and_validates() {
        let g = graph();
        let delta = EdgeDelta::new(vec![(NodeId(0), NodeId(2))], vec![(NodeId(0), NodeId(1))]);
        assert!(delta.validate(&g).is_ok());
        let next = delta.apply_to(&g);
        assert_eq!(next.edge_count(), 2);
        assert!(next.has_edge(NodeId(0), NodeId(2)));
        assert!(!next.has_edge(NodeId(0), NodeId(1)));
        assert!(next.has_edge(NodeId(1), NodeId(2)));
        // The view result over the new graph reflects the mutation.
        let r = match_pattern(&single("A", "C"), &next);
        assert!(!r.is_empty());

        let bad = EdgeDelta::new(vec![(NodeId(0), NodeId(99))], vec![]);
        assert!(matches!(
            bad.validate(&g),
            Err(StoreError::NodeOutOfRange {
                node: NodeId(99),
                node_count: 3
            })
        ));
    }

    #[test]
    fn delete_then_insert_of_same_edge_keeps_it() {
        let g = graph();
        let e = (NodeId(0), NodeId(1));
        let next = EdgeDelta::new(vec![e], vec![e]).apply_to(&g);
        assert!(next.has_edge(e.0, e.1), "deletes apply before inserts");
        assert_eq!(next.edge_count(), g.edge_count());
    }

    #[test]
    fn footprint_classification() {
        let g = graph();
        let ab = ViewDef::new("ab", single("A", "B"));
        assert_eq!(
            ViewFootprint::of(&ab, &g),
            ViewFootprint::Labels(vec![
                g.lookup_label("A").unwrap(),
                g.lookup_label("B").unwrap()
            ])
        );
        // Unresolvable label → Never.
        let zz = ViewDef::new("zz", single("Z", "A"));
        assert_eq!(ViewFootprint::of(&zz, &g), ViewFootprint::Never);
        // A wildcard node (no label atom) → Unconditional.
        let mut pb = PatternBuilder::new();
        let x = pb.node(Predicate::any());
        let y = pb.node_labeled("A");
        pb.edge(x, y);
        let wild = ViewDef::new("wild", pb.build().unwrap());
        assert_eq!(ViewFootprint::of(&wild, &g), ViewFootprint::Unconditional);
    }

    #[test]
    fn index_routes_deltas_by_endpoint_labels() {
        let g = graph();
        let defs = [
            ViewDef::new("ab", single("A", "B")), // labels {A, B}
            ViewDef::new("bc", single("B", "C")), // labels {B, C}
            ViewDef::new("zz", single("Z", "A")), // never
        ];
        let idx =
            ViewFootprintIndex::build(defs.iter().enumerate().map(|(i, d)| (i as u64, d)), &g);

        // Edge touching only the C node: affects bc, not ab, never zz.
        let c_only = EdgeDelta::new(vec![(NodeId(2), NodeId(2))], vec![]);
        assert_eq!(idx.affected(&c_only, &g), vec![1]);
        // Edge touching A and B: affects both label views.
        let a_b = EdgeDelta::new(vec![], vec![(NodeId(0), NodeId(1))]);
        assert_eq!(idx.affected(&a_b, &g), vec![0, 1]);
        // Empty delta affects nothing.
        assert!(idx.affected(&EdgeDelta::default(), &g).is_empty());
    }

    /// `q` over `g`, its footprint and its frozen answer; `may_change` of
    /// `delta`, checked against recomputation whenever it claims `false`.
    fn may_change(q: &Pattern, g: &DataGraph, delta: EdgeDelta) -> bool {
        let before = match_pattern(q, g);
        let changes = QueryFootprint::of(q, g).may_change(&delta, &CompactView::freeze(&before), g);
        if !changes {
            let after = match_pattern(q, &delta.apply_to(g));
            assert_eq!(after, before, "{delta:?} changed the answer");
        }
        changes
    }

    /// `A ⇄ B`: the 2-cycle pattern, every node reaches every other.
    fn cycle() -> Pattern {
        let mut pb = PatternBuilder::new();
        let x = pb.node_labeled("A");
        let y = pb.node_labeled("B");
        pb.edge(x, y);
        pb.edge(y, x);
        pb.build().unwrap()
    }

    /// Nodes a1(A) b1(B) a2(A) b2(B); edges a1⇄b1 and `extra`.
    fn cycle_graph(extra: &[(u32, u32)]) -> DataGraph {
        let mut b = GraphBuilder::new();
        for l in ["A", "B", "A", "B"] {
            b.add_node([l]);
        }
        for &(u, v) in [(0, 1), (1, 0)].iter().chain(extra) {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    fn insert(u: u32, v: u32) -> EdgeDelta {
        EdgeDelta::new(vec![(NodeId(u), NodeId(v))], vec![])
    }

    #[test]
    fn insert_closing_a_cycle_outside_sim_may_change() {
        // b2→a2 exists; a2→b2 closes a second A⇄B cycle. Neither endpoint
        // is in `sim`, and A is reachable from B.
        let g = cycle_graph(&[(3, 2)]);
        assert!(may_change(&cycle(), &g, insert(2, 3)));
    }

    #[test]
    fn insert_from_a_source_in_sim_to_a_node_outside_sim_keeps_the_answer() {
        // a1 ∈ sim(A), b2 ∉ sim(B): the new edge witnesses nothing new,
        // even though A is reachable from B.
        let g = cycle_graph(&[]);
        assert!(!may_change(&cycle(), &g, insert(0, 3)));
        // An edge from a2 into b1 ∈ sim(B) puts a2 into sim(A).
        let g = cycle_graph(&[(2, 3)]);
        assert!(may_change(&cycle(), &g, insert(2, 1)));
    }

    #[test]
    fn insert_outside_sim_with_no_fitting_source_downstream_keeps_the_answer() {
        // A→B→C with a1→b1→c1, and a2(A), b2(B) outside `sim`: nothing
        // downstream of B is an A, so a2→b2 changes nothing.
        let mut pb = PatternBuilder::new();
        let (x, y, z) = (
            pb.node_labeled("A"),
            pb.node_labeled("B"),
            pb.node_labeled("C"),
        );
        pb.edge(x, y);
        pb.edge(y, z);
        let q = pb.build().unwrap();
        let mut b = GraphBuilder::new();
        for l in ["A", "B", "C", "A", "B"] {
            b.add_node([l]);
        }
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g = b.build();
        assert!(!may_change(&q, &g, insert(3, 4)));
        // b2→c1 puts b2 into sim(B): then a2→b2 does change the answer.
        assert!(may_change(
            &q,
            &g,
            EdgeDelta::new(vec![(NodeId(3), NodeId(4)), (NodeId(4), NodeId(2))], vec![])
        ));
    }

    #[test]
    fn insert_into_a_sink_always_may_change() {
        // A→B with a→b1 and an isolated b2: b2 ∈ sim(B) = base(B), so
        // a→b2 adds a pair although no match set holds b2.
        let mut b = GraphBuilder::new();
        for l in ["A", "B", "B"] {
            b.add_node([l]);
        }
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert!(may_change(&single("A", "B"), &g, insert(0, 2)));
    }

    #[test]
    fn deletes_outside_the_match_sets_and_empty_answers() {
        let g = cycle_graph(&[(2, 3)]);
        // a2→b2 is in no S_e (b2 has no way back to an A).
        let del = |u, v| EdgeDelta::new(vec![], vec![(NodeId(u), NodeId(v))]);
        assert!(!may_change(&cycle(), &g, del(2, 3)));
        assert!(may_change(&cycle(), &g, del(0, 1)));
        // An empty answer survives any delete, but not a fitting insert.
        let g = graph();
        let q = single("C", "A");
        assert!(match_pattern(&q, &g).is_empty());
        assert!(!may_change(&q, &g, del(1, 2)));
        assert!(may_change(&q, &g, insert(2, 0)));
        // An insert outside the footprint passes even on an empty answer.
        assert!(!may_change(&q, &g, insert(0, 1)));
    }

    #[test]
    fn unconditional_views_match_every_delta() {
        let g = graph();
        let mut pb = PatternBuilder::new();
        let x = pb.node(Predicate::any());
        let y = pb.node(Predicate::any());
        pb.edge(x, y);
        let wild = ViewDef::new("wild", pb.build().unwrap());
        let idx = ViewFootprintIndex::build([(7u64, &wild)], &g);
        let d = EdgeDelta::new(vec![(NodeId(2), NodeId(0))], vec![]);
        assert_eq!(idx.affected(&d, &g), vec![7]);
    }
}
