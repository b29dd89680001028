//! Mutable construction API for [`DataGraph`].

use crate::graph::{DataGraph, NodeId};
use crate::interner::Interner;
use crate::value::{AttrId, LabelId, StoredValue, Value};

/// Builds a [`DataGraph`] incrementally, then freezes it into CSR form.
///
/// ```
/// use gpv_graph::{GraphBuilder, Value};
///
/// let mut b = GraphBuilder::new();
/// let pm = b.add_node(["PM"]);
/// let dba = b.add_node(["DBA"]);
/// b.set_attr(pm, "name", Value::str("Bob"));
/// b.add_edge(pm, dba);
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// assert!(g.has_edge(pm, dba));
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    labels: Interner,
    attr_names: Interner,
    values: Interner,
    node_labels: Vec<Vec<LabelId>>,
    node_attrs: Vec<Vec<(AttrId, StoredValue)>>,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with node and edge capacity reserved.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        let mut b = Self::new();
        b.node_labels.reserve(nodes);
        b.node_attrs.reserve(nodes);
        b.edges.reserve(edges);
        b
    }

    /// Adds a node carrying the given labels; returns its id.
    pub fn add_node<'a, I>(&mut self, labels: I) -> NodeId
    where
        I: IntoIterator<Item = &'a str>,
    {
        let id = NodeId(self.node_labels.len() as u32);
        let mut ls: Vec<LabelId> = labels
            .into_iter()
            .map(|s| LabelId::from(self.labels.intern(s)))
            .collect();
        ls.sort_unstable();
        ls.dedup();
        self.node_labels.push(ls);
        self.node_attrs.push(Vec::new());
        id
    }

    /// Adds an unlabeled node.
    pub fn add_unlabeled_node(&mut self) -> NodeId {
        self.add_node(std::iter::empty())
    }

    /// Adds `label` to an existing node.
    pub fn add_label(&mut self, v: NodeId, label: &str) {
        let l = LabelId::from(self.labels.intern(label));
        let ls = &mut self.node_labels[v.index()];
        if let Err(pos) = ls.binary_search(&l) {
            ls.insert(pos, l);
        }
    }

    /// Sets attribute `name` of node `v` to `value`, replacing any previous
    /// value.
    pub fn set_attr(&mut self, v: NodeId, name: &str, value: Value) {
        let a = AttrId::from(self.attr_names.intern(name));
        let stored = match value {
            Value::Int(i) => StoredValue::Int(i),
            Value::Str(s) => StoredValue::Sym(self.values.intern(&s)),
        };
        let attrs = &mut self.node_attrs[v.index()];
        match attrs.binary_search_by_key(&a, |&(id, _)| id) {
            Ok(i) => attrs[i].1 = stored,
            Err(i) => attrs.insert(i, (a, stored)),
        }
    }

    /// Adds the directed edge `(u, v)`. Duplicate edges are deduplicated at
    /// [`build`](Self::build) time; self-loops are allowed.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(
            u.index() < self.node_labels.len(),
            "edge source out of range"
        );
        debug_assert!(
            v.index() < self.node_labels.len(),
            "edge target out of range"
        );
        self.edges.push((u, v));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of edges added so far (before deduplication).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freezes the builder into an immutable CSR [`DataGraph`].
    pub fn build(mut self) -> DataGraph {
        let n = self.node_labels.len();

        // Label CSR.
        let mut label_offsets = Vec::with_capacity(n + 1);
        label_offsets.push(0u32);
        let mut label_data = Vec::new();
        for ls in &self.node_labels {
            label_data.extend_from_slice(ls);
            label_offsets.push(label_data.len() as u32);
        }

        // Attribute CSR.
        let mut attr_offsets = Vec::with_capacity(n + 1);
        attr_offsets.push(0u32);
        let mut attr_data = Vec::new();
        for attrs in &self.node_attrs {
            attr_data.extend_from_slice(attrs);
            attr_offsets.push(attr_data.len() as u32);
        }

        self.edges.sort_unstable();
        self.edges.dedup();
        DataGraph::from_parts(
            (self.labels, self.attr_names, self.values),
            (label_offsets, label_data),
            (attr_offsets, attr_data),
            &self.edges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let c = b.add_node(["B"]);
        b.add_edge(a, c);
        b.add_edge(a, c);
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loop() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        b.add_edge(a, a);
        let g = b.build();
        assert!(g.has_edge(a, a));
        assert_eq!(g.out_neighbors(a), &[a]);
        assert_eq!(g.in_neighbors(a), &[a]);
    }

    #[test]
    fn in_adjacency_sorted() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..5).map(|_| b.add_unlabeled_node()).collect();
        // Many edges into node 4, added out of order.
        b.add_edge(nodes[3], nodes[4]);
        b.add_edge(nodes[0], nodes[4]);
        b.add_edge(nodes[2], nodes[4]);
        b.add_edge(nodes[1], nodes[4]);
        let g = b.build();
        let ins = g.in_neighbors(nodes[4]).to_vec();
        let mut sorted = ins.clone();
        sorted.sort();
        assert_eq!(ins, sorted);
        assert_eq!(ins.len(), 4);
    }

    #[test]
    fn labels_dedup_and_sorted() {
        let mut b = GraphBuilder::new();
        let v = b.add_node(["B", "A", "B"]);
        let g = b.build();
        let names: Vec<&str> = g.labels_of(v).iter().map(|&l| g.label_name(l)).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"A") && names.contains(&"B"));
    }

    #[test]
    fn add_label_later() {
        let mut b = GraphBuilder::new();
        let v = b.add_node(["A"]);
        b.add_label(v, "C");
        b.add_label(v, "C");
        let g = b.build();
        assert_eq!(g.labels_of(v).len(), 2);
        assert!(g.has_label(v, g.lookup_label("C").unwrap()));
    }

    #[test]
    fn set_attr_replaces() {
        let mut b = GraphBuilder::new();
        let v = b.add_node(["A"]);
        b.set_attr(v, "x", Value::int(1));
        b.set_attr(v, "x", Value::int(2));
        let g = b.build();
        assert_eq!(g.attr_int(v, g.lookup_attr("x").unwrap()), Some(2));
    }

    #[test]
    fn with_capacity_builds_same() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        let a = b.add_node(["A"]);
        let c = b.add_node(["B"]);
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }
}
