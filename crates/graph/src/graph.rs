//! The immutable [`DataGraph`] and its CSR adjacency.

use crate::interner::{Interner, Sym};
use crate::value::{AttrId, LabelId, StoredValue, ValueRef};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
/// Node data (interners, label and attribute columns, the label index)
/// sits behind `Arc`, and each adjacency is a paged CSR whose pages sit
/// behind `Arc` too. Edge-only successors ([`with_edges`](Self::with_edges),
/// [`splice_edges`](Self::splice_edges)) share the node data; a splice also
/// shares every adjacency page its delta does not touch.
#[derive(Clone, Debug)]
pub struct DataGraph {
    pub(crate) labels: Arc<Interner>,
    pub(crate) attr_names: Arc<Interner>,
    pub(crate) values: Arc<Interner>,

    pub(crate) label_offsets: Arc<[u32]>,
    pub(crate) label_data: Arc<[LabelId]>,

    pub(crate) attr_offsets: Arc<[u32]>,
    pub(crate) attr_data: Arc<[(AttrId, StoredValue)]>,

    /// Out-adjacency: row `u` lists the targets of `u`.
    out: Csr,
    /// In-adjacency: row `v` lists the sources of `v`.
    inn: Csr,

    /// [`edge_set_hash`](Self::edge_set_hash), carried along every
    /// construction path; recomputed by
    /// [`rebuild_indices`](Self::rebuild_indices) after deserialization.
    pub(crate) edge_hash: u64,

    /// [`nodes_with_label`](Self::nodes_with_label)'s index, built on
    /// first use (so a deserialized graph needs no extra step). Edge deltas
    /// never change labels, so every successor shares it.
    pub(crate) label_index: Arc<OnceLock<LabelIndex>>,
}

/// Rows per [`Page`] of a [`Csr`].
const PAGE_ROWS: usize = 1024;

/// One adjacency, paged: page `p` holds rows `p * PAGE_ROWS ..` (the last
/// page may be short). Pages are immutable and `Arc`-shared, so a splice
/// copies only the pages holding a changed row and shares the rest with
/// its predecessor (path copying, Driscoll et al., JCSS 1989).
#[derive(Clone, Debug)]
struct Csr {
    rows: usize,
    /// Total entries over all pages.
    len: usize,
    pages: Vec<Arc<Page>>,
}

/// `PAGE_ROWS` rows (or fewer) of a [`Csr`]: page-local `offsets`
/// (`rows + 1` entries, starting at 0) into `data`.
#[derive(Debug)]
struct Page {
    offsets: Vec<u32>,
    data: Vec<NodeId>,
}

impl Csr {
    /// Counting sort of `(row, x)` pairs into pages. Each row lists its
    /// `x`s in the order the iterator yields them, so pairs sorted by `x`
    /// within each row give sorted rows. The iterator runs twice.
    fn from_pairs<I>(rows: usize, pairs: I) -> Csr
    where
        I: Iterator<Item = (NodeId, NodeId)> + Clone,
    {
        let mut counts = vec![0u32; rows];
        for (r, _) in pairs.clone() {
            counts[r.index()] += 1;
        }
        let mut pages: Vec<Page> = counts
            .chunks(PAGE_ROWS)
            .map(|page| {
                let mut offsets = Vec::with_capacity(page.len() + 1);
                offsets.push(0u32);
                let mut end = 0;
                for &c in page {
                    end += c;
                    offsets.push(end);
                }
                Page {
                    offsets,
                    data: vec![NodeId(0); end as usize],
                }
            })
            .collect();
        // `counts` becomes each row's write cursor, page-local.
        for (page, chunk) in pages.iter().zip(counts.chunks_mut(PAGE_ROWS)) {
            chunk.copy_from_slice(&page.offsets[..chunk.len()]);
        }
        let mut len = 0;
        for (r, x) in pairs {
            let slot = &mut counts[r.index()];
            pages[r.index() / PAGE_ROWS].data[*slot as usize] = x;
            *slot += 1;
            len += 1;
        }
        Csr {
            rows,
            len,
            pages: pages.into_iter().map(Arc::new).collect(),
        }
    }

    /// Row `v`: its page, then the page-local slice.
    #[inline]
    fn row(&self, v: usize) -> &[NodeId] {
        let page = &self.pages[v / PAGE_ROWS];
        let r = v % PAGE_ROWS;
        &page.data[page.offsets[r] as usize..page.offsets[r + 1] as usize]
    }

    /// The CSR as one flat `(offsets, data)` pair: the serialized form.
    fn to_flat(&self) -> (Vec<u32>, Vec<NodeId>) {
        let mut offsets = Vec::with_capacity(self.rows + 1);
        offsets.push(0u32);
        let mut data = Vec::with_capacity(self.len);
        for page in &self.pages {
            let base = data.len() as u32;
            offsets.extend(page.offsets[1..].iter().map(|&o| base + o));
            data.extend_from_slice(&page.data);
        }
        (offsets, data)
    }

    /// Pages a flat `(offsets, data)` pair, rejecting offsets that are not
    /// a monotone cover of `data`.
    fn from_flat(offsets: &[u32], data: &[NodeId]) -> Result<Csr, &'static str> {
        let (Some(&0), Some(&last)) = (offsets.first(), offsets.last()) else {
            return Err("CSR offsets must start at 0");
        };
        if last as usize != data.len() || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("CSR offsets must be monotone and end at the data length");
        }
        let rows = offsets.len() - 1;
        let pairs = (0..rows).flat_map(|v| {
            data[offsets[v] as usize..offsets[v + 1] as usize]
                .iter()
                .map(move |&x| (NodeId(v as u32), x))
        });
        Ok(Csr::from_pairs(rows, pairs))
    }

    /// Removes the `(row, x)` pairs of `removed` (each present) and adds
    /// those of `added` (each absent), both sorted. The page vector is
    /// cloned (one `Arc` bump per page) and only pages holding a changed
    /// row are rebuilt.
    fn splice(&self, mut removed: &[(NodeId, NodeId)], mut added: &[(NodeId, NodeId)]) -> Csr {
        let mut pages = self.pages.clone();
        let len = self.len + added.len() - removed.len();
        loop {
            let row = match (removed.first(), added.first()) {
                (None, None) => break,
                (Some(r), None) => r.0,
                (None, Some(a)) => a.0,
                (Some(r), Some(a)) => r.0.min(a.0),
            };
            let p = row.index() / PAGE_ROWS;
            let base = p * PAGE_ROWS;
            let in_page = |e: &(NodeId, NodeId)| e.0.index() < base + PAGE_ROWS;
            let (rm, rest) = removed.split_at(removed.partition_point(in_page));
            removed = rest;
            let (ad, rest) = added.split_at(added.partition_point(in_page));
            added = rest;
            pages[p] = Arc::new(splice_page(&pages[p], base, rm, ad));
        }
        Csr {
            rows: self.rows,
            len,
            pages,
        }
    }
}

/// The graph's serialized form: every adjacency as one flat CSR, so the
/// JSON does not depend on the page size (`tests/serde_roundtrip.rs` pins
/// it with a golden).
#[derive(Serialize, Deserialize)]
struct FlatGraph {
    labels: Arc<Interner>,
    attr_names: Arc<Interner>,
    values: Arc<Interner>,
    label_offsets: Arc<[u32]>,
    label_data: Arc<[LabelId]>,
    attr_offsets: Arc<[u32]>,
    attr_data: Arc<[(AttrId, StoredValue)]>,
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
}

impl Serialize for DataGraph {
    fn to_value(&self) -> serde::value::Value {
        let (out_offsets, out_targets) = self.out.to_flat();
        let (in_offsets, in_sources) = self.inn.to_flat();
        FlatGraph {
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
        }
        .to_value()
    }
}

impl Deserialize for DataGraph {
    /// The edge-set hash and interner lookups are not on the wire: call
    /// [`DataGraph::rebuild_indices`] after deserializing.
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::Error> {
        let f = FlatGraph::from_value(v)?;
        let csr = |offsets: &[u32], data: &[NodeId]| {
            Csr::from_flat(offsets, data).map_err(serde::value::Error::custom)
        };
        let (out, inn) = (
            csr(&f.out_offsets, &f.out_targets)?,
            csr(&f.in_offsets, &f.in_sources)?,
        );
        if out.rows != inn.rows || out.len != inn.len {
            return Err(serde::value::Error::custom(
                "out- and in-adjacency disagree on node or edge count",
            ));
        }
        Ok(DataGraph {
            labels: f.labels,
            attr_names: f.attr_names,
            values: f.values,
            label_offsets: f.label_offsets,
            label_data: f.label_data,
            attr_offsets: f.attr_offsets,
            attr_data: f.attr_data,
            out,
            inn,
            edge_hash: 0,
            label_index: Default::default(),
        })
    }
}

/// Label → nodes CSR: `offsets[l]..offsets[l + 1]` delimits the nodes
/// carrying label `l` in `nodes`, each list sorted ascending.
#[derive(Debug, Default)]
pub(crate) struct LabelIndex {
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl LabelIndex {
    /// Counting sort of the label column by label id.
    fn build(g: &DataGraph) -> LabelIndex {
        let mut offsets = vec![0u32; g.labels.len() + 1];
        for &l in g.label_data.iter() {
            offsets[l.0 as usize + 1] += 1;
        }
        for i in 0..g.labels.len() {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut nodes = vec![NodeId(0); g.label_data.len()];
        for v in g.nodes() {
            for &l in g.labels_of(v) {
                nodes[cursor[l.0 as usize] as usize] = v;
                cursor[l.0 as usize] += 1;
            }
        }
        LabelIndex { offsets, nodes }
    }
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
        self.out.rows
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out.len
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
        self.out.row(v.index())
    }

    /// In-neighbours of `v` (sorted ascending).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.inn.row(v.index())
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
            row: [].iter(),
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

    /// The nodes carrying label `l`, sorted ascending (empty for a label
    /// outside the alphabet). The label → nodes index behind it is built
    /// once per node set, on first call.
    pub fn nodes_with_label(&self, l: LabelId) -> &[NodeId] {
        let index = self.label_index.get_or_init(|| LabelIndex::build(self));
        match index.offsets.get(l.0 as usize..l.0 as usize + 2) {
            Some(&[a, b]) => &index.nodes[a as usize..b as usize],
            _ => &[],
        }
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
        let (out, inn, edge_hash) = adjacency_of(self.node_count(), &sorted);
        self.with_adjacency(out, inn, edge_hash)
    }

    /// Applies an edge delta by splicing this graph's paged CSRs: `deletes`
    /// are applied first, then `inserts`, so an edge in both lists ends up
    /// present. Deleting an absent edge and inserting a present one are
    /// no-ops. Either list may be unsorted and hold duplicates.
    ///
    /// The successor shares every adjacency page that holds no changed row
    /// with this graph; only the pages of edges that really change are
    /// rebuilt, each by merging its changed rows. The work is
    /// `O(|Δ| log |Δ| + |V| / PAGE_ROWS)` plus the size of the touched
    /// pages: no copy of `E`, and no sort or hash set over it. The
    /// [`edge_set_hash`](Self::edge_set_hash) moves by exactly the edges
    /// that changed, so an insert followed by the matching delete restores
    /// it bit for bit.
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

        let by_target = |edges: &[(NodeId, NodeId)]| {
            let mut t: Vec<(NodeId, NodeId)> = edges.iter().map(|&(u, v)| (v, u)).collect();
            t.sort_unstable();
            t
        };
        let out = self.out.splice(&removed, &added);
        let inn = self.inn.splice(&by_target(&removed), &by_target(&added));
        self.with_adjacency(out, inn, edge_hash)
    }

    /// A graph sharing this one's node data, with the given adjacency.
    fn with_adjacency(&self, out: Csr, inn: Csr, edge_hash: u64) -> DataGraph {
        DataGraph {
            labels: self.labels.clone(),
            attr_names: self.attr_names.clone(),
            values: self.values.clone(),
            label_offsets: self.label_offsets.clone(),
            label_data: self.label_data.clone(),
            attr_offsets: self.attr_offsets.clone(),
            attr_data: self.attr_data.clone(),
            out,
            inn,
            edge_hash,
            label_index: self.label_index.clone(),
        }
    }

    /// A graph over the given node data (interners, then the label and
    /// attribute CSRs) with `sorted` as its edges: sorted by
    /// `(source, target)` and deduplicated.
    pub(crate) fn from_parts(
        (labels, attr_names, values): (Interner, Interner, Interner),
        (label_offsets, label_data): (Vec<u32>, Vec<LabelId>),
        (attr_offsets, attr_data): (Vec<u32>, Vec<(AttrId, StoredValue)>),
        sorted: &[(NodeId, NodeId)],
    ) -> DataGraph {
        let (out, inn, edge_hash) = adjacency_of(label_offsets.len() - 1, sorted);
        DataGraph {
            labels: Arc::new(labels),
            attr_names: Arc::new(attr_names),
            values: Arc::new(values),
            label_offsets: label_offsets.into(),
            label_data: label_data.into(),
            attr_offsets: attr_offsets.into(),
            attr_data: attr_data.into(),
            out,
            inn,
            edge_hash,
            label_index: Default::default(),
        }
    }
}

/// Both adjacencies of `n` nodes and their edge-set hash, from an edge
/// list sorted by `(source, target)` and deduplicated. In-rows come out
/// sorted because the list is sorted by source.
fn adjacency_of(n: usize, sorted: &[(NodeId, NodeId)]) -> (Csr, Csr, u64) {
    let edge_hash = sorted
        .iter()
        .fold(0u64, |h, &(u, v)| h.wrapping_add(edge_term(u, v)));
    let out = Csr::from_pairs(n, sorted.iter().copied());
    let inn = Csr::from_pairs(n, sorted.iter().map(|&(u, v)| (v, u)));
    (out, inn, edge_hash)
}

/// Splices one page of a CSR whose first row is `base`: removes the
/// `(row, x)` pairs of `removed` (each present) and adds those of `added`
/// (each absent), both sorted and inside the page. Rows neither list
/// touches are copied whole.
fn splice_page(
    page: &Page,
    base: usize,
    mut removed: &[(NodeId, NodeId)],
    mut added: &[(NodeId, NodeId)],
) -> Page {
    let (offsets, data) = (&page.offsets, &page.data);
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
        let r = row.index() - base;
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
    Page {
        offsets: new_offsets,
        data: new_data,
    }
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
    /// The next row to load.
    node: u32,
    /// The rest of row `node - 1`.
    row: std::slice::Iter<'a, NodeId>,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        loop {
            if let Some(&v) = self.row.next() {
                return Some((NodeId(self.node - 1), v));
            }
            if self.node as usize >= self.graph.node_count() {
                return None;
            }
            self.row = self.graph.out_neighbors(NodeId(self.node)).iter();
            self.node += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::PAGE_ROWS;
    use crate::builder::GraphBuilder;
    use crate::value::Value;
    use crate::{DataGraph, NodeId};
    use std::sync::Arc;

    /// Both adjacencies as flat `(offsets, data)` CSRs.
    fn flat(g: &DataGraph) -> Flat {
        (g.out.to_flat(), g.inn.to_flat())
    }

    type Flat = ((Vec<u32>, Vec<NodeId>), (Vec<u32>, Vec<NodeId>));

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
        assert_eq!(flat(&h), flat(&oracle));
        assert_eq!(h.edge_set_hash(), oracle.edge_set_hash());
        assert!(Arc::ptr_eq(&h.labels, &g.labels), "node data shared");
        // Undoing the delta restores the hash bit for bit.
        let back = h.splice_edges(&[e(3, 0), e(3, 3)], &[e(0, 1)]);
        assert_eq!(back.edge_set_hash(), g.edge_set_hash());
        assert_eq!(flat(&back), flat(&g));
    }

    #[test]
    fn label_index_lists_nodes_and_survives_a_splice() {
        let g = diamond();
        let (a, b, c) = (
            g.lookup_label("A").unwrap(),
            g.lookup_label("B").unwrap(),
            g.lookup_label("C").unwrap(),
        );
        let by_scan = |l| g.nodes().filter(|&v| g.has_label(v, l)).collect::<Vec<_>>();
        for l in [a, b, c] {
            assert_eq!(g.nodes_with_label(l), by_scan(l));
        }
        assert_eq!(g.nodes_with_label(b), &[NodeId(1), NodeId(2)]);
        assert!(g.nodes_with_label(crate::LabelId(99)).is_empty());
        // A splice shares the index (labels never change under edge
        // deltas) and answers the same.
        let h = g.splice_edges(&[(NodeId(0), NodeId(1))], &[(NodeId(3), NodeId(0))]);
        assert!(Arc::ptr_eq(&h.label_index, &g.label_index));
        for l in [a, b, c] {
            assert_eq!(h.nodes_with_label(l), g.nodes_with_label(l));
        }
        // A graph whose index was never built gets its own on first use.
        let fresh = diamond().with_edges(&[]);
        assert_eq!(fresh.nodes_with_label(b), &[NodeId(1), NodeId(2)]);
    }

    /// A deterministic xorshift64 stream.
    fn xorshift(seed: u64) -> impl FnMut() -> usize {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as usize
        }
    }

    /// `n` nodes and `m` random edges (before deduplication).
    fn random_graph(n: usize, m: usize, seed: u64) -> DataGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node(["A"]);
        }
        let mut next = xorshift(seed);
        for _ in 0..m {
            b.add_edge(NodeId((next() % n) as u32), NodeId((next() % n) as u32));
        }
        b.build()
    }

    /// Delta chains over graphs of three pages, aimed at the rows on page
    /// seams and at the last node, agree with a from-scratch rebuild
    /// after every link.
    #[test]
    fn multi_page_splice_chain_matches_with_edges_oracle() {
        let n = 2 * PAGE_ROWS + 300;
        let last = n - 1;
        // Consecutive entries two apart sit on different pages, so every
        // link below changes rows on at least two pages.
        let seams = [PAGE_ROWS - 1, PAGE_ROWS, 2 * PAGE_ROWS - 1, last, 0];
        for seed in 1..=4u64 {
            let mut g = random_graph(n, 3 * n, seed);
            assert_eq!(g.out.pages.len(), 3);
            let mut next = xorshift(seed * 0x9e37);
            for link in 0..24 {
                let (a, b) = (seams[link % 5], seams[(link + 2) % 5]);
                let mut any = || next() % n;
                let mut inserts = vec![(a, any()), (any(), b), (a, b), (any(), any())];
                // Present edges out of and into the seam rows, a random
                // (mostly absent) edge, and one of the inserts.
                let mut deletes: Vec<(usize, usize)> = [a, b]
                    .iter()
                    .filter_map(|&u| {
                        g.out_neighbors(NodeId(u as u32))
                            .first()
                            .map(|v| (u, v.index()))
                    })
                    .chain([a, b].iter().filter_map(|&v| {
                        g.in_neighbors(NodeId(v as u32))
                            .last()
                            .map(|u| (u.index(), v))
                    }))
                    .collect();
                deletes.extend([(any(), any()), inserts[link % 4]]);
                if link % 3 == 0 {
                    inserts.reverse(); // unsorted lists
                }
                let ids = |es: &[(usize, usize)]| -> Vec<(NodeId, NodeId)> {
                    es.iter()
                        .map(|&(u, v)| (NodeId(u as u32), NodeId(v as u32)))
                        .collect()
                };
                let (deletes, inserts) = (ids(&deletes), ids(&inserts));
                let h = g.splice_edges(&deletes, &inserts);

                let mut edges: std::collections::BTreeSet<_> = g.edges().collect();
                for e in &deletes {
                    edges.remove(e);
                }
                edges.extend(inserts.iter().copied());
                let oracle = g.with_edges(&edges.into_iter().collect::<Vec<_>>());
                assert_eq!(flat(&h), flat(&oracle), "seed {seed}, link {link}");
                assert_eq!(h.edge_count(), oracle.edge_count());
                assert_eq!(h.edge_set_hash(), oracle.edge_set_hash());
                g = h;
            }
        }
    }

    /// A 1-edge splice rebuilds one out-page and one in-page and shares
    /// every other page with its predecessor; a no-op splice shares all.
    #[test]
    fn one_edge_splice_shares_every_untouched_page() {
        let n = 3 * PAGE_ROWS + 5;
        let last = n - 1;
        let g = random_graph(n, 3 * n, 7);
        assert_eq!(g.out.pages.len(), 4);
        let rebuilt = |a: &super::Csr, b: &super::Csr| {
            assert_eq!(a.pages.len(), b.pages.len());
            a.pages
                .iter()
                .zip(&b.pages)
                .filter(|(x, y)| !Arc::ptr_eq(x, y))
                .count()
        };
        let pairs = [
            (0, last),
            (PAGE_ROWS, PAGE_ROWS - 1),
            (last, 2 * PAGE_ROWS),
            (5, 6),
        ];
        for (u, v) in pairs {
            let e = (NodeId(u as u32), NodeId(v as u32));
            for h in [g.splice_edges(&[e], &[]), g.splice_edges(&[], &[e])] {
                let changed = usize::from(h.has_edge(e.0, e.1) != g.has_edge(e.0, e.1));
                assert_eq!(rebuilt(&g.out, &h.out), changed, "out-pages, edge {e:?}");
                assert_eq!(rebuilt(&g.inn, &h.inn), changed, "in-pages, edge {e:?}");
            }
        }
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
