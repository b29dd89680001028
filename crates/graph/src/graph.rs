//! The immutable [`DataGraph`] and its CSR adjacency.

use crate::interner::{Interner, Sym};
use crate::value::{AttrId, LabelId, StoredValue, ValueRef};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// A node identifier: a dense index in `0..node_count`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for indexing into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed data graph `G = (V, E, L)` with interned labels and typed node
/// attributes, stored in CSR form with both out- and in-adjacency.
///
/// Construct with [`GraphBuilder`](crate::GraphBuilder). The representation is
/// immutable after construction; all per-node queries are `O(1)` slice
/// lookups and `has_edge` is a binary search over the sorted out-adjacency.
///
/// Node data (interners, label and attribute columns) sits behind `Arc`:
/// edge-only successors ([`with_edges`](Self::with_edges),
/// [`splice_edges`](Self::splice_edges)) share it and own only the four
/// edge arrays.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DataGraph {
    pub(crate) labels: Arc<Interner>,
    pub(crate) attr_names: Arc<Interner>,
    pub(crate) values: Arc<Interner>,

    pub(crate) label_offsets: Arc<[u32]>,
    pub(crate) label_data: Arc<[LabelId]>,

    pub(crate) attr_offsets: Arc<[u32]>,
    pub(crate) attr_data: Arc<[(AttrId, StoredValue)]>,

    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<NodeId>,

    /// [`edge_set_hash`](Self::edge_set_hash), carried along every
    /// construction path; recomputed by
    /// [`rebuild_indices`](Self::rebuild_indices) after deserialization.
    #[serde(skip)]
    pub(crate) edge_hash: u64,
}

/// One edge's term in [`DataGraph::edge_set_hash`]: the splitmix64
/// finalizer of `(u << 32) | v`.
fn edge_term(u: NodeId, v: NodeId) -> u64 {
    let mut z = ((u64::from(u.0) << 32) | u64::from(v.0)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DataGraph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// The paper's size measure `|G|`: number of nodes plus edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterates all node ids `0..|V|`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Out-neighbours of `v` (sorted ascending).
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let (s, e) = (
            self.out_offsets[v.index()] as usize,
            self.out_offsets[v.index() + 1] as usize,
        );
        &self.out_targets[s..e]
    }

    /// In-neighbours of `v` (sorted ascending).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let (s, e) = (
            self.in_offsets[v.index()] as usize,
            self.in_offsets[v.index() + 1] as usize,
        );
        &self.in_sources[s..e]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Whether the directed edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates all edges `(u, v)` in CSR order.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            node: 0,
            pos: 0,
        }
    }

    /// Labels of node `v` (sorted ascending).
    #[inline]
    pub fn labels_of(&self, v: NodeId) -> &[LabelId] {
        let (s, e) = (
            self.label_offsets[v.index()] as usize,
            self.label_offsets[v.index() + 1] as usize,
        );
        &self.label_data[s..e]
    }

    /// Whether `l ∈ L(v)`, the paper's node-label test.
    #[inline]
    pub fn has_label(&self, v: NodeId, l: LabelId) -> bool {
        self.labels_of(v).binary_search(&l).is_ok()
    }

    /// The attribute value of `v` under attribute `a`, if set.
    pub fn attr(&self, v: NodeId, a: AttrId) -> Option<ValueRef<'_>> {
        let (s, e) = (
            self.attr_offsets[v.index()] as usize,
            self.attr_offsets[v.index() + 1] as usize,
        );
        let attrs = &self.attr_data[s..e];
        let i = attrs.binary_search_by_key(&a, |&(id, _)| id).ok()?;
        Some(match attrs[i].1 {
            StoredValue::Int(x) => ValueRef::Int(x),
            StoredValue::Sym(s) => ValueRef::Str(self.values.resolve(s)),
        })
    }

    /// Raw stored attribute value (interned form), for hot-path comparisons.
    #[inline]
    pub(crate) fn attr_stored(&self, v: NodeId, a: AttrId) -> Option<StoredValue> {
        let (s, e) = (
            self.attr_offsets[v.index()] as usize,
            self.attr_offsets[v.index() + 1] as usize,
        );
        let attrs = &self.attr_data[s..e];
        let i = attrs.binary_search_by_key(&a, |&(id, _)| id).ok()?;
        Some(attrs[i].1)
    }

    /// Hot-path attribute comparison against an interned string value.
    ///
    /// Returns `None` when the attribute is absent, `Some(result)` otherwise.
    /// String attributes compare by symbol equality; integer attributes never
    /// equal a string value.
    #[inline]
    pub fn attr_str_eq(&self, v: NodeId, a: AttrId, value_sym: Sym) -> Option<bool> {
        Some(match self.attr_stored(v, a)? {
            StoredValue::Sym(s) => s == value_sym,
            StoredValue::Int(_) => false,
        })
    }

    /// Hot-path integer attribute read (`None` if absent or non-integer).
    #[inline]
    pub fn attr_int(&self, v: NodeId, a: AttrId) -> Option<i64> {
        match self.attr_stored(v, a)? {
            StoredValue::Int(x) => Some(x),
            StoredValue::Sym(_) => None,
        }
    }

    /// Iterates the attributes of node `v` as `(id, value)` pairs.
    pub fn attrs_of(&self, v: NodeId) -> impl Iterator<Item = (AttrId, ValueRef<'_>)> + '_ {
        let (s, e) = (
            self.attr_offsets[v.index()] as usize,
            self.attr_offsets[v.index() + 1] as usize,
        );
        self.attr_data[s..e].iter().map(|&(aid, stored)| {
            let val = match stored {
                StoredValue::Int(x) => ValueRef::Int(x),
                StoredValue::Sym(sym) => ValueRef::Str(self.values.resolve(sym)),
            };
            (aid, val)
        })
    }

    /// Resolves a label name against this graph's alphabet.
    pub fn lookup_label(&self, name: &str) -> Option<LabelId> {
        self.labels.get(name).map(LabelId::from)
    }

    /// Resolves an attribute name.
    pub fn lookup_attr(&self, name: &str) -> Option<AttrId> {
        self.attr_names.get(name).map(AttrId::from)
    }

    /// Resolves a string attribute value to its interned symbol.
    pub fn lookup_value(&self, s: &str) -> Option<Sym> {
        self.values.get(s)
    }

    /// Resolves a label id back to its name.
    pub fn label_name(&self, l: LabelId) -> &str {
        self.labels.resolve(l.into())
    }

    /// Resolves an attribute id back to its name.
    pub fn attr_name(&self, a: AttrId) -> &str {
        self.attr_names.resolve(a.into())
    }

    /// Number of distinct labels in the alphabet Σ.
    pub fn label_alphabet_size(&self) -> usize {
        self.labels.len()
    }

    /// An order-independent hash of the edge set: the wrapping sum of one
    /// splitmix64 term per edge (an incremental multiset hash in the sense
    /// of Clarke et al., ASIACRYPT 2003). Computed once at construction and
    /// updated per changed edge by [`splice_edges`](Self::splice_edges), so
    /// reading it is `O(1)`. Not cryptographic.
    #[inline]
    pub fn edge_set_hash(&self) -> u64 {
        self.edge_hash
    }

    /// Rebuilds interner lookup indices and the
    /// [`edge_set_hash`](Self::edge_set_hash) after deserialization, which
    /// skips both.
    pub fn rebuild_indices(&mut self) {
        Arc::make_mut(&mut self.labels).rebuild_index();
        Arc::make_mut(&mut self.attr_names).rebuild_index();
        Arc::make_mut(&mut self.values).rebuild_index();
        self.edge_hash = self
            .edges()
            .fold(0, |h, (u, v)| h.wrapping_add(edge_term(u, v)));
    }

    /// Builds a new graph over the **same node set** (labels, attributes,
    /// interned alphabets all shared by `Arc`) but with `edges` as the full
    /// edge list. Duplicate edges are dropped; out- and in-adjacency are
    /// rebuilt sorted, so the result satisfies every CSR invariant of a
    /// [`GraphBuilder`](crate::GraphBuilder)-constructed graph.
    ///
    /// This is the from-scratch builder, `O(|E| log |E|)`; an edge delta
    /// against an existing graph is [`splice_edges`](Self::splice_edges).
    ///
    /// # Panics
    ///
    /// If any endpoint is `>= node_count()`. Callers that accept untrusted
    /// deltas must validate ids first.
    pub fn with_edges(&self, edges: &[(NodeId, NodeId)]) -> DataGraph {
        let mut sorted: Vec<(NodeId, NodeId)> = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.with_sorted_edges(&sorted)
    }

    /// [`with_edges`](Self::with_edges) for an edge list already sorted by
    /// `(source, target)` and deduplicated.
    pub(crate) fn with_sorted_edges(&self, sorted: &[(NodeId, NodeId)]) -> DataGraph {
        let n = self.node_count();
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        let mut edge_hash = 0u64;
        for &(u, v) in sorted {
            out_offsets[u.index() + 1] += 1;
            in_offsets[v.index() + 1] += 1;
            edge_hash = edge_hash.wrapping_add(edge_term(u, v));
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let out_targets: Vec<NodeId> = sorted.iter().map(|&(_, v)| v).collect();

        // In-CSR by counting sort over targets; sources come out sorted
        // because the edge list is sorted by (source, target).
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![NodeId(0); sorted.len()];
        for &(u, v) in sorted {
            let slot = cursor[v.index()] as usize;
            in_sources[slot] = u;
            cursor[v.index()] += 1;
        }

        self.with_edge_arrays(out_offsets, out_targets, in_offsets, in_sources, edge_hash)
    }

    /// Applies an edge delta by splicing this graph's CSR arrays: `deletes`
    /// are applied first, then `inserts`, so an edge in both lists ends up
    /// present. Deleting an absent edge and inserting a present one are
    /// no-ops. Either list may be unsorted and hold duplicates.
    ///
    /// Untouched row ranges are copied whole and their offsets shifted;
    /// only the rows of edges that really change are merged. The work is
    /// `O(|Δ| log |Δ|)` plus a copy of the edge arrays: no sort or hash
    /// set over `E`. The [`edge_set_hash`](Self::edge_set_hash) moves by
    /// exactly the edges that changed, so an insert followed by the
    /// matching delete restores it bit for bit.
    ///
    /// # Panics
    ///
    /// If any endpoint is `>= node_count()`.
    pub fn splice_edges(
        &self,
        deletes: &[(NodeId, NodeId)],
        inserts: &[(NodeId, NodeId)],
    ) -> DataGraph {
        let mut inserts = inserts.to_vec();
        inserts.sort_unstable();
        inserts.dedup();
        let mut deletes = deletes.to_vec();
        deletes.sort_unstable();
        deletes.dedup();
        // Reduce the batch to the edges that really change: `removed` are
        // present and not re-inserted, `added` are absent. Both stay sorted
        // by (source, target).
        deletes.retain(|&(u, v)| self.has_edge(u, v) && inserts.binary_search(&(u, v)).is_err());
        inserts.retain(|&(u, v)| !self.has_edge(u, v));
        let (removed, added) = (deletes, inserts);

        let mut edge_hash = self.edge_hash;
        for &(u, v) in &added {
            edge_hash = edge_hash.wrapping_add(edge_term(u, v));
        }
        for &(u, v) in &removed {
            edge_hash = edge_hash.wrapping_sub(edge_term(u, v));
        }

        let (out_offsets, out_targets) =
            splice_csr(&self.out_offsets, &self.out_targets, &removed, &added);
        let by_target = |edges: &[(NodeId, NodeId)]| {
            let mut t: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v)| (v, u)).collect();
            t.sort_unstable();
            t
        };
        let (in_offsets, in_sources) = splice_csr(
            &self.in_offsets,
            &self.in_sources,
            &by_target(&removed),
            &by_target(&added),
        );
        self.with_edge_arrays(out_offsets, out_targets, in_offsets, in_sources, edge_hash)
    }

    /// A graph sharing this one's node data, with the given edge arrays.
    fn with_edge_arrays(
        &self,
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
        edge_hash: u64,
    ) -> DataGraph {
        DataGraph {
            labels: self.labels.clone(),
            attr_names: self.attr_names.clone(),
            values: self.values.clone(),
            label_offsets: self.label_offsets.clone(),
            label_data: self.label_data.clone(),
            attr_offsets: self.attr_offsets.clone(),
            attr_data: self.attr_data.clone(),
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            edge_hash,
        }
    }
}

/// Splices one CSR (`offsets`, `data`): removes the `(row, x)` pairs of
/// `removed` (each present) and adds those of `added` (each absent), both
/// sorted. Rows neither list touches are copied whole.
fn splice_csr(
    offsets: &[u32],
    data: &[NodeId],
    mut removed: &[(NodeId, NodeId)],
    mut added: &[(NodeId, NodeId)],
) -> (Vec<u32>, Vec<NodeId>) {
    let n = offsets.len() - 1;
    let mut new_offsets = Vec::with_capacity(n + 1);
    new_offsets.push(0u32);
    let mut new_data = Vec::with_capacity(data.len() + added.len() - removed.len());
    let mut done = 0;
    loop {
        let row = match (removed.first(), added.first()) {
            (None, None) => break,
            (Some(r), None) => r.0,
            (None, Some(a)) => a.0,
            (Some(r), Some(a)) => r.0.min(a.0),
        };
        let r = row.index();
        copy_rows(offsets, data, done..r, &mut new_offsets, &mut new_data);
        let (rm, rest) = removed.split_at(removed.partition_point(|e| e.0 == row));
        removed = rest;
        let (ad, rest) = added.split_at(added.partition_point(|e| e.0 == row));
        added = rest;

        let mut rm = rm.iter().map(|e| e.1).peekable();
        let mut ad = ad.iter().map(|e| e.1).peekable();
        for &x in &data[offsets[r] as usize..offsets[r + 1] as usize] {
            while let Some(y) = ad.next_if(|&y| y < x) {
                new_data.push(y);
            }
            if rm.next_if_eq(&x).is_none() {
                new_data.push(x);
            }
        }
        new_data.extend(ad);
        debug_assert!(rm.next().is_none(), "removed edge absent from its row");
        new_offsets.push(new_data.len() as u32);
        done = r + 1;
    }
    copy_rows(offsets, data, done..n, &mut new_offsets, &mut new_data);
    (new_offsets, new_data)
}

/// Copies CSR `rows` unchanged onto the end of (`new_offsets`, `new_data`),
/// shifting their offsets by however far the data moved.
fn copy_rows(
    offsets: &[u32],
    data: &[NodeId],
    rows: Range<usize>,
    new_offsets: &mut Vec<u32>,
    new_data: &mut Vec<NodeId>,
) {
    let (s, e) = (offsets[rows.start], offsets[rows.end]);
    let shift = (new_data.len() as u32).wrapping_sub(s);
    new_data.extend_from_slice(&data[s as usize..e as usize]);
    new_offsets.extend(
        offsets[rows.start + 1..=rows.end]
            .iter()
            .map(|&o| o.wrapping_add(shift)),
    );
}

/// Iterator over all edges of a [`DataGraph`].
pub struct EdgeIter<'a> {
    graph: &'a DataGraph,
    node: u32,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        let n = self.graph.node_count() as u32;
        while self.node < n {
            let end = self.graph.out_offsets[self.node as usize + 1] as usize;
            if self.pos < end {
                let e = (NodeId(self.node), self.graph.out_targets[self.pos]);
                self.pos += 1;
                return Some(e);
            }
            self.node += 1;
            if self.node < n {
                self.pos = self.graph.out_offsets[self.node as usize] as usize;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::value::Value;
    use crate::NodeId;

    fn diamond() -> crate::DataGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let x = b.add_node(["B"]);
        let y = b.add_node(["B", "C"]);
        let z = b.add_node(["D"]);
        b.add_edge(a, x);
        b.add_edge(a, y);
        b.add_edge(x, z);
        b.add_edge(y, z);
        b.build()
    }

    #[test]
    fn counts_and_adjacency() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.size(), 8);
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_neighbors(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn has_edge_and_edge_iter() {
        let g = diamond();
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(NodeId(1), NodeId(3))));
    }

    #[test]
    fn labels() {
        let g = diamond();
        let b_label = g.lookup_label("B").unwrap();
        let c = g.lookup_label("C").unwrap();
        assert!(g.has_label(NodeId(1), b_label));
        assert!(g.has_label(NodeId(2), b_label));
        assert!(g.has_label(NodeId(2), c));
        assert!(!g.has_label(NodeId(1), c));
        assert_eq!(g.label_name(b_label), "B");
        assert_eq!(g.lookup_label("Z"), None);
        assert_eq!(g.label_alphabet_size(), 4);
    }

    #[test]
    fn attributes() {
        let mut b = GraphBuilder::new();
        let v = b.add_node(["video"]);
        b.set_attr(v, "category", Value::str("Music"));
        b.set_attr(v, "visits", Value::int(10_000));
        let w = b.add_node(["video"]);
        b.set_attr(w, "category", Value::str("Sports"));
        let g = b.build();

        let cat = g.lookup_attr("category").unwrap();
        let visits = g.lookup_attr("visits").unwrap();
        assert_eq!(g.attr(v, cat), Some(crate::ValueRef::Str("Music")));
        assert_eq!(g.attr_int(v, visits), Some(10_000));
        assert_eq!(g.attr_int(w, visits), None);
        let music = g.lookup_value("Music").unwrap();
        assert_eq!(g.attr_str_eq(v, cat, music), Some(true));
        assert_eq!(g.attr_str_eq(w, cat, music), Some(false));
        assert_eq!(g.attr_name(cat), "category");
    }

    #[test]
    fn with_edges_rebuilds_adjacency_and_keeps_labels() {
        let g = diamond();
        // Drop 0->1, add 3->0 (out of CSR order, plus a duplicate).
        let edges = vec![
            (NodeId(3), NodeId(0)),
            (NodeId(0), NodeId(2)),
            (NodeId(1), NodeId(3)),
            (NodeId(2), NodeId(3)),
            (NodeId(3), NodeId(0)),
        ];
        let h = g.with_edges(&edges);
        assert_eq!(h.node_count(), 4);
        assert_eq!(h.edge_count(), 4, "duplicate edge deduped");
        assert!(!h.has_edge(NodeId(0), NodeId(1)));
        assert!(h.has_edge(NodeId(3), NodeId(0)));
        assert_eq!(h.in_neighbors(NodeId(0)), &[NodeId(3)]);
        assert_eq!(h.out_neighbors(NodeId(0)), &[NodeId(2)]);
        // Node data is untouched.
        let b_label = h.lookup_label("B").unwrap();
        assert!(h.has_label(NodeId(1), b_label));
        assert_eq!(h.label_alphabet_size(), g.label_alphabet_size());
        // The original graph is unchanged (immutability preserved).
        assert!(g.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn splice_edges_equals_with_edges_and_carries_the_hash() {
        let g = diamond();
        let e = |u, v| (NodeId(u), NodeId(v));
        // Unsorted, duplicated; 1->3 is deleted and re-inserted, 2->0 was
        // never there, 0->2 is already present.
        let deletes = [e(1, 3), e(0, 1), e(2, 0), e(0, 1)];
        let inserts = [e(3, 0), e(1, 3), e(0, 2), e(3, 0), e(3, 3)];
        let h = g.splice_edges(&deletes, &inserts);
        let oracle = g.with_edges(&[e(0, 2), e(1, 3), e(2, 3), e(3, 0), e(3, 3)]);
        assert_eq!(h.out_offsets, oracle.out_offsets);
        assert_eq!(h.out_targets, oracle.out_targets);
        assert_eq!(h.in_offsets, oracle.in_offsets);
        assert_eq!(h.in_sources, oracle.in_sources);
        assert_eq!(h.edge_set_hash(), oracle.edge_set_hash());
        assert!(
            std::sync::Arc::ptr_eq(&h.labels, &g.labels),
            "node data shared"
        );
        // Undoing the delta restores the hash bit for bit.
        let back = h.splice_edges(&[e(3, 0), e(3, 3)], &[e(0, 1)]);
        assert_eq!(back.edge_set_hash(), g.edge_set_hash());
        assert_eq!(back.out_targets, g.out_targets);
        assert_eq!(back.in_sources, g.in_sources);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }
}
