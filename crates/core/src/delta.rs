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
//! Producing the successor graph costs `O(|Δ| log |Δ|)` plus a copy of the
//! edge arrays: [`EdgeDelta::apply_to`] splices the old CSRs instead of
//! rebuilding them, and carries the graph's edge-set hash along so the
//! successor's [`graph_fingerprint`](crate::storage::graph_fingerprint) is
//! `O(1)`.
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

use crate::store::StoreError;
use crate::view::ViewDef;
use gpv_graph::{DataGraph, LabelId, NodeId};
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
    /// splicing `g`'s CSR arrays ([`DataGraph::splice_edges`]): node data
    /// (labels, attributes, interned alphabets) is shared by `Arc`, only
    /// the rows of changed edges are merged, and the graph's edge-set hash
    /// moves by exactly those edges. `O(|Δ| log |Δ|)` plus a copy of the
    /// edge arrays; the batch need not be sorted or deduplicated.
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

/// An interned-label index over stored view definitions: the affected-view
/// detector. Build once per store snapshot (cheap — proportional to total
/// pattern size), query per delta.
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
