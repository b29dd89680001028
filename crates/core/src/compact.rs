//! Columnar extension arena: the flat CSR-of-pairs layout the executors
//! run on.
//!
//! The paper's complexity story is dominated by `|V(G)|` — the total cached
//! match pairs the join reads. The boxed representation
//! ([`MatchResult`]'s `Vec<Vec<(NodeId, NodeId)>>`) pays two pointer hops
//! and an allocator-scattered heap per edge set before touching a single
//! pair. [`CompactView`] flattens one view's extension into four contiguous
//! columns:
//!
//! ```text
//! edge_offsets : [u32; ne + 1]            CSR offsets into `pairs`
//! pairs        : [(NodeId, NodeId); |V(G)|]  all edge match sets, back to back
//! node_offsets : [u32; np + 1]            CSR offsets into `nodes`
//! nodes        : [NodeId; Σ|node sets|]   all node match sets, back to back
//! ```
//!
//! `edge_set(e)` is a single offset lookup returning a borrowed
//! `&[(NodeId, NodeId)]` — no per-pair indirection, no allocation.
//! [`CompactExtensions`] is the whole-view-set arena: one `Arc<CompactView>`
//! per view, so the CSR-of-pairs covers the full extension set while
//! zero-copy `Arc` sharing is preserved at *arena-region* granularity — a
//! store mutation re-freezes only the touched view's region, every other
//! region is shared untouched between snapshots.
//!
//! [`CompactBoundedView`] is the bounded twin: the same columns plus a
//! distance column parallel to `pairs` and one largest distance per edge
//! region (see its docs), so `BMatchJoin` borrows pair slices as the plain
//! join does.
//!
//! Conversion is explicit: [`CompactView::freeze`] flattens a boxed
//! [`MatchResult`] (canonicalizing defensively — sets are sorted and
//! deduplicated if they are not already), [`CompactView::thaw`] rebuilds
//! the boxed form. On the JSON wire the compact types serialize as their
//! thawed boxed shape, so caches written before the arena landed still
//! load, and caches written now still load elsewhere.

use gpv_graph::NodeId;
use gpv_matching::result::{BoundedMatchResult, MatchResult};
use gpv_pattern::{PatternEdgeId, PatternNodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Borrowed `(edge_offsets, pairs, node_offsets, nodes)` columns — the
/// exact byte surface the on-disk shard format persists.
pub(crate) type RawColumns<'a> = (&'a [u32], &'a [(NodeId, NodeId)], &'a [u32], &'a [NodeId]);

/// Copies `set` into `dst`, sorting + deduplicating only when a linear scan
/// shows it is not already strictly increasing (the common case: every
/// constructor in this workspace canonicalizes).
fn extend_canonical<T: Copy + Ord>(dst: &mut Vec<T>, set: &[T]) {
    if set.windows(2).all(|w| w[0] < w[1]) {
        dst.extend_from_slice(set);
    } else {
        let start = dst.len();
        dst.extend_from_slice(set);
        dst[start..].sort_unstable();
        let mut keep = start;
        for i in start..dst.len() {
            if i == start || dst[i] != dst[keep - 1] {
                dst[keep] = dst[i];
                keep += 1;
            }
        }
        dst.truncate(keep);
    }
}

/// One view's extension `V(G)` in flat columnar form. See the
/// [module docs](self) for the layout. Equality compares all four
/// columns, node sets included, as [`MatchResult`]'s does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactView {
    /// `edge_offsets[e]..edge_offsets[e + 1]` delimits edge `e`'s pairs.
    edge_offsets: Box<[u32]>,
    /// All edge match sets, concatenated in edge order (each set sorted).
    pairs: Box<[(NodeId, NodeId)]>,
    /// `node_offsets[u]..node_offsets[u + 1]` delimits node `u`'s matches.
    node_offsets: Box<[u32]>,
    /// All node match sets, concatenated in node order (each set sorted).
    nodes: Box<[NodeId]>,
}

impl CompactView {
    /// The empty extension (`V(G) = ∅`).
    pub fn empty() -> Self {
        CompactView {
            edge_offsets: vec![0].into_boxed_slice(),
            pairs: Box::new([]),
            node_offsets: vec![0].into_boxed_slice(),
            nodes: Box::new([]),
        }
    }

    /// Flattens a boxed [`MatchResult`] into the columnar layout.
    ///
    /// Sets are copied verbatim when already strictly sorted (the invariant
    /// every constructor in this workspace maintains) and defensively
    /// sorted + deduplicated otherwise, so a frozen view is canonical by
    /// construction — executors can borrow its slices without
    /// re-normalizing.
    pub fn freeze(r: &MatchResult) -> Self {
        let mut edge_offsets = Vec::with_capacity(r.edge_matches.len() + 1);
        let mut pairs = Vec::with_capacity(r.size());
        edge_offsets.push(0u32);
        for set in &r.edge_matches {
            extend_canonical(&mut pairs, set);
            edge_offsets.push(u32::try_from(pairs.len()).expect("pair count fits u32"));
        }
        let mut node_offsets = Vec::with_capacity(r.node_matches.len() + 1);
        let mut nodes = Vec::new();
        node_offsets.push(0u32);
        for set in &r.node_matches {
            extend_canonical(&mut nodes, set);
            node_offsets.push(u32::try_from(nodes.len()).expect("node count fits u32"));
        }
        CompactView {
            edge_offsets: edge_offsets.into_boxed_slice(),
            pairs: pairs.into_boxed_slice(),
            node_offsets: node_offsets.into_boxed_slice(),
            nodes: nodes.into_boxed_slice(),
        }
    }

    /// Rebuilds the boxed [`MatchResult`] (for the JSON wire and for
    /// callers that need owned per-edge `Vec`s).
    pub fn thaw(&self) -> MatchResult {
        MatchResult {
            node_matches: (0..self.node_count())
                .map(|u| self.node_set(PatternNodeId(u as u32)).to_vec())
                .collect(),
            edge_matches: (0..self.edge_count())
                .map(|e| self.edge_set(PatternEdgeId(e as u32)).to_vec())
                .collect(),
        }
    }

    /// Whether `V(G) = ∅` (no edge sets at all).
    pub fn is_empty(&self) -> bool {
        self.edge_count() == 0
    }

    /// Number of edge match sets.
    pub fn edge_count(&self) -> usize {
        self.edge_offsets.len() - 1
    }

    /// Number of node match sets.
    pub fn node_count(&self) -> usize {
        self.node_offsets.len() - 1
    }

    /// The match set `Se` of edge `e`: one offset lookup, borrowed from the
    /// arena.
    pub fn edge_set(&self, e: PatternEdgeId) -> &[(NodeId, NodeId)] {
        let i = e.index();
        &self.pairs[self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize]
    }

    /// The matches of pattern node `u`, borrowed from the arena.
    pub fn node_set(&self, u: PatternNodeId) -> &[NodeId] {
        let i = u.index();
        &self.nodes[self.node_offsets[i] as usize..self.node_offsets[i + 1] as usize]
    }

    /// The whole pairs column (all edge sets back to back) — the flat scan
    /// surface the benches measure.
    pub fn all_pairs(&self) -> &[(NodeId, NodeId)] {
        &self.pairs
    }

    /// The paper's `|V(G)|` for this view: total pairs across all edges.
    pub fn size(&self) -> usize {
        self.pairs.len()
    }

    /// Heap bytes actually resident for this view: the four columns, with
    /// no per-`Vec` allocator scatter to account for.
    pub fn resident_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<(NodeId, NodeId)>()
            + self.nodes.len() * std::mem::size_of::<NodeId>()
            + (self.edge_offsets.len() + self.node_offsets.len()) * std::mem::size_of::<u32>()
    }

    /// Full-content equality over all four columns, the same as `==`. The
    /// delta pipeline uses this to detect that an affected view's re-frozen
    /// extension is bit-identical to the resident one, so the old arena
    /// region (and its epoch, and every cached answer keyed on it) can be
    /// kept.
    pub fn content_eq(&self, other: &CompactView) -> bool {
        self == other
    }

    /// FNV-1a over all four columns. A frozen view is canonical, so equal
    /// contents give equal digests: comparing digests compares answers
    /// across processes (`gpv serve` prints one per query).
    pub fn digest(&self) -> u64 {
        let mut h = crate::fnv::Fnv1a::new();
        let offsets = self.edge_offsets.iter().chain(&*self.node_offsets).copied();
        let pairs = self.pairs.iter().flat_map(|&(a, b)| [a.0, b.0]);
        for x in offsets.chain(pairs).chain(self.nodes.iter().map(|v| v.0)) {
            h.write(&x.to_le_bytes());
        }
        h.finish()
    }

    /// The raw columns `(edge_offsets, pairs, node_offsets, nodes)` — the
    /// exact byte surface the on-disk shard format persists.
    pub(crate) fn columns(&self) -> RawColumns<'_> {
        (
            &self.edge_offsets,
            &self.pairs,
            &self.node_offsets,
            &self.nodes,
        )
    }

    /// Rebuilds a view from raw columns (the shard loader), validating every
    /// structural invariant `freeze` guarantees: offset tables are
    /// monotonic, start at 0, end at the column length, and every set is
    /// strictly increasing (canonical). A violation is a corrupt or crafted
    /// file — reported as an error, never trusted.
    pub(crate) fn from_columns(
        edge_offsets: Vec<u32>,
        pairs: Vec<(NodeId, NodeId)>,
        node_offsets: Vec<u32>,
        nodes: Vec<NodeId>,
    ) -> Result<Self, String> {
        check_offsets(&edge_offsets, pairs.len(), "edge")?;
        check_offsets(&node_offsets, nodes.len(), "node")?;
        check_sorted_sets(&edge_offsets, &pairs, "edge")?;
        check_sorted_sets(&node_offsets, &nodes, "node")?;
        Ok(CompactView {
            edge_offsets: edge_offsets.into_boxed_slice(),
            pairs: pairs.into_boxed_slice(),
            node_offsets: node_offsets.into_boxed_slice(),
            nodes: nodes.into_boxed_slice(),
        })
    }
}

/// Offset-table invariant shared by the columns: nonempty, starts at 0,
/// monotonic nondecreasing, last entry equal to the data column length.
fn check_offsets(offsets: &[u32], data_len: usize, what: &str) -> Result<(), String> {
    if offsets.is_empty() || offsets[0] != 0 {
        return Err(format!("{what} offsets must start at 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what} offsets not monotonic"));
    }
    if *offsets.last().expect("nonempty") as usize != data_len {
        return Err(format!(
            "{what} offsets end at {} but column holds {data_len}",
            offsets.last().expect("nonempty")
        ));
    }
    Ok(())
}

/// Canonical-set invariant: within each offset-delimited set the elements
/// are strictly increasing (sorted, duplicate-free) — what lets executors
/// borrow arena slices without re-normalizing.
fn check_sorted_sets<T: Copy + Ord>(offsets: &[u32], data: &[T], what: &str) -> Result<(), String> {
    for w in offsets.windows(2) {
        let set = &data[w[0] as usize..w[1] as usize];
        if set.windows(2).any(|p| p[0] >= p[1]) {
            return Err(format!("{what} set not strictly sorted"));
        }
    }
    Ok(())
}

impl From<MatchResult> for CompactView {
    fn from(r: MatchResult) -> Self {
        CompactView::freeze(&r)
    }
}

impl Serialize for CompactView {
    fn to_value(&self) -> serde::value::Value {
        self.thaw().to_value()
    }
}

impl Deserialize for CompactView {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::Error> {
        MatchResult::from_value(v).map(|r| CompactView::freeze(&r))
    }
}

/// Materialized view extensions `V(G) = {V1(G), ..., Vn(G)}` in columnar
/// form — the representation the join executors actually run on.
///
/// `extensions[i]` is view `i`'s arena region, shared by [`Arc`] with every
/// other holder of the same materialization (store snapshots, rebuilt
/// engines): assembling a new `CompactExtensions` clones `n` pointers,
/// never `|V(G)|` pairs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompactExtensions {
    /// `extensions[i]` = `Vi(G)` (may be empty when `Vi ⋬sim G`).
    pub extensions: Vec<Arc<CompactView>>,
}

impl CompactExtensions {
    /// Total number of cached match pairs — the paper's `|V(G)|`.
    pub fn size(&self) -> usize {
        self.extensions.iter().map(|e| e.size()).sum()
    }

    /// Freezes and appends one more extension, keeping positions aligned
    /// with the owning [`ViewSet`](crate::view::ViewSet).
    pub fn push(&mut self, ext: MatchResult) {
        self.extensions.push(Arc::new(CompactView::freeze(&ext)));
    }

    /// Appends an already-frozen, already-shared region without copying it
    /// (the zero-copy path used when assembling from a store snapshot).
    pub fn push_shared(&mut self, ext: Arc<CompactView>) {
        self.extensions.push(ext);
    }

    /// The match set `S_eV` of edge `eV` of view `i` (empty slice when the
    /// extension is empty): an offset lookup into view `i`'s arena region.
    pub fn edge_set(&self, view: usize, e: PatternEdgeId) -> &[(NodeId, NodeId)] {
        let ext = &self.extensions[view];
        if ext.is_empty() {
            &[]
        } else {
            ext.edge_set(e)
        }
    }

    /// Heap bytes resident across all regions.
    pub fn resident_bytes(&self) -> usize {
        self.extensions.iter().map(|e| e.resident_bytes()).sum()
    }
}

/// One bounded view's extension with per-pair shortest distances: the
/// extension and the paper's index `I(V)` in one arena region. The layout
/// is a [`CompactView`] plus a distance column parallel to its pairs and
/// one largest distance per edge region:
///
/// ```text
/// view     : CompactView              pairs (sorted, unique) and node sets
/// dists    : [u32; |V(G)|]            shortest distance of `pairs[i]`
/// max_dist : [u32; ne]                largest distance in each edge region
/// ```
///
/// A pair costs 12 bytes, as it did as a `(v, v', d)` triple, but
/// [`edge_set`](Self::edge_set) hands `BMatchJoin` the pair slice it
/// borrows when a query bound admits `max_dist` — no per-pair work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactBoundedView {
    view: CompactView,
    dists: Box<[u32]>,
    max_dist: Box<[u32]>,
}

/// One edge's match set as parallel columns: pairs sorted and unique, and
/// each pair's shortest distance.
pub(crate) type BoundedEdgeSet = (Vec<(NodeId, NodeId)>, Vec<u32>);

/// A borrowed [`BoundedEdgeSet`]: a pair column and its distance column.
pub(crate) type BoundedColumns<'a> = (&'a [(NodeId, NodeId)], &'a [u32]);

impl CompactBoundedView {
    /// The empty extension.
    pub fn empty() -> Self {
        CompactBoundedView::from_sets(Vec::new(), Vec::new())
    }

    /// Flattens a boxed [`BoundedMatchResult`], canonicalizing defensively
    /// like [`CompactView::freeze`]: a pair listed twice keeps its smallest
    /// distance (the shortest witnessing path, `I(V)`'s semantics).
    pub fn freeze(r: &BoundedMatchResult) -> Self {
        let edges = r.edge_matches.iter().map(|set| {
            let mut set = set.clone();
            if !set.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)) {
                set.sort_unstable();
                set.dedup_by_key(|&mut (v, w, _)| (v, w));
            }
            set.into_iter().map(|(v, w, d)| ((v, w), d)).unzip()
        });
        CompactBoundedView::from_sets(edges.collect(), r.node_matches.clone())
    }

    /// Lays out per-edge columns, each edge's pairs strictly sorted with
    /// one distance per pair; node sets are canonicalized as
    /// [`CompactView::freeze`] does. An empty `edges` is the empty
    /// extension.
    pub(crate) fn from_sets(edges: Vec<BoundedEdgeSet>, nodes: Vec<Vec<NodeId>>) -> Self {
        let max_dist = edges
            .iter()
            .map(|(_, d)| d.iter().copied().max().unwrap_or(0));
        let max_dist = max_dist.collect();
        let (edge_matches, dists): (Vec<_>, Vec<_>) = edges.into_iter().unzip();
        debug_assert!(edge_matches
            .iter()
            .all(|p| p.windows(2).all(|w| w[0] < w[1])));
        let view = CompactView::freeze(&MatchResult {
            node_matches: nodes,
            edge_matches,
        });
        CompactBoundedView {
            view,
            dists: dists.concat().into_boxed_slice(),
            max_dist,
        }
    }

    /// Rebuilds the boxed [`BoundedMatchResult`].
    pub fn thaw(&self) -> BoundedMatchResult {
        let edge_set = |e: usize| {
            let e = PatternEdgeId(e as u32);
            let pairs = self.edge_set(e).iter().zip(self.edge_dists(e));
            pairs.map(|(&(v, w), &d)| (v, w, d)).collect()
        };
        BoundedMatchResult {
            node_matches: (0..self.node_count())
                .map(|u| self.node_set(PatternNodeId(u as u32)).to_vec())
                .collect(),
            edge_matches: (0..self.edge_count()).map(edge_set).collect(),
        }
    }

    /// Whether the extension is empty.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Number of edge match sets.
    pub fn edge_count(&self) -> usize {
        self.view.edge_count()
    }

    /// Number of node match sets.
    pub fn node_count(&self) -> usize {
        self.view.node_count()
    }

    /// Match set of edge `e` (sorted pairs), borrowed from the arena.
    pub fn edge_set(&self, e: PatternEdgeId) -> &[(NodeId, NodeId)] {
        self.view.edge_set(e)
    }

    /// Shortest distances of edge `e`'s pairs, parallel to
    /// [`edge_set`](Self::edge_set).
    pub fn edge_dists(&self, e: PatternEdgeId) -> &[u32] {
        let offsets = &self.view.edge_offsets;
        &self.dists[offsets[e.index()] as usize..offsets[e.index() + 1] as usize]
    }

    /// The largest distance in edge `e`'s region (0 when it is empty).
    pub fn max_dist(&self, e: PatternEdgeId) -> u32 {
        self.max_dist[e.index()]
    }

    /// Matches of node `u`, borrowed from the arena.
    pub fn node_set(&self, u: PatternNodeId) -> &[NodeId] {
        self.view.node_set(u)
    }

    /// `|Vi(G)|` for this view: total pairs.
    pub fn size(&self) -> usize {
        self.view.size()
    }

    /// Heap bytes resident for this view's columns.
    pub fn resident_bytes(&self) -> usize {
        self.view.resident_bytes()
            + (self.dists.len() + self.max_dist.len()) * std::mem::size_of::<u32>()
    }
}

/// Bounded extensions in columnar form (the bounded twin of
/// [`CompactExtensions`]).
#[derive(Clone, Debug, PartialEq)]
pub struct CompactBoundedExtensions {
    /// `extensions[i]` = `Vi(G)` with distances.
    pub extensions: Vec<CompactBoundedView>,
}

impl CompactBoundedExtensions {
    /// Total cached pairs (`|V(G)|`).
    pub fn size(&self) -> usize {
        self.extensions.iter().map(CompactBoundedView::size).sum()
    }

    /// View `i`'s extension, `None` when it is empty (it then has no edge
    /// regions to index).
    fn nonempty(&self, view: usize) -> Option<&CompactBoundedView> {
        let ext = &self.extensions[view];
        (!ext.is_empty()).then_some(ext)
    }

    /// Match set of edge `eV` of view `i` (empty slice when the extension
    /// is empty): what `smallest_cover` and the cost model read.
    pub fn edge_set(&self, view: usize, e: PatternEdgeId) -> &[(NodeId, NodeId)] {
        self.nonempty(view).map_or(&[], |ext| ext.edge_set(e))
    }

    /// Shortest distances of edge `eV` of view `i`, parallel to
    /// [`edge_set`](Self::edge_set).
    pub fn edge_dists(&self, view: usize, e: PatternEdgeId) -> &[u32] {
        self.nonempty(view).map_or(&[], |ext| ext.edge_dists(e))
    }

    /// The largest distance of edge `eV` of view `i` (0 when empty).
    pub fn max_dist(&self, view: usize, e: PatternEdgeId) -> u32 {
        self.nonempty(view).map_or(0, |ext| ext.max_dist(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_pattern::PatternBuilder;

    fn two_node_pattern() -> gpv_pattern::Pattern {
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("A");
        let y = b.node_labeled("B");
        b.edge(x, y);
        b.build().unwrap()
    }

    #[test]
    fn freeze_thaw_roundtrip() {
        let p = two_node_pattern();
        let r = MatchResult::new(
            &p,
            vec![vec![NodeId(2), NodeId(1)], vec![NodeId(0)]],
            vec![vec![(NodeId(2), NodeId(0)), (NodeId(1), NodeId(0))]],
        );
        let c = CompactView::freeze(&r);
        assert_eq!(c.size(), 2);
        assert_eq!(
            c.edge_set(PatternEdgeId(0)),
            &[(NodeId(1), NodeId(0)), (NodeId(2), NodeId(0))]
        );
        assert_eq!(c.node_set(PatternNodeId(0)), &[NodeId(1), NodeId(2)]);
        let back = c.thaw();
        assert_eq!(back, r);
        assert_eq!(back.node_matches, r.node_matches);
    }

    #[test]
    fn freeze_canonicalizes_dirty_input() {
        // Bypass the constructor to feed unsorted, duplicated sets.
        let dirty = MatchResult {
            node_matches: vec![vec![NodeId(3), NodeId(1), NodeId(3)], vec![NodeId(0)]],
            edge_matches: vec![vec![
                (NodeId(3), NodeId(0)),
                (NodeId(1), NodeId(0)),
                (NodeId(3), NodeId(0)),
            ]],
        };
        let c = CompactView::freeze(&dirty);
        assert_eq!(
            c.edge_set(PatternEdgeId(0)),
            &[(NodeId(1), NodeId(0)), (NodeId(3), NodeId(0))]
        );
        assert_eq!(c.node_set(PatternNodeId(0)), &[NodeId(1), NodeId(3)]);
    }

    #[test]
    fn empty_roundtrip() {
        let c = CompactView::freeze(&MatchResult::empty());
        assert!(c.is_empty());
        assert_eq!(c.size(), 0);
        assert_eq!(c.thaw(), MatchResult::empty());
    }

    #[test]
    fn bounded_freeze_thaw_roundtrip() {
        let p = two_node_pattern();
        let r = BoundedMatchResult::new(
            &p,
            vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]],
            vec![vec![(NodeId(0), NodeId(2), 2), (NodeId(0), NodeId(1), 1)]],
        );
        let c = CompactBoundedView::freeze(&r);
        assert_eq!(
            c.edge_set(PatternEdgeId(0)),
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]
        );
        assert_eq!(c.edge_dists(PatternEdgeId(0)), &[1, 2]);
        assert_eq!(c.max_dist(PatternEdgeId(0)), 2);
        assert_eq!(c.thaw(), r);
        assert!(CompactBoundedView::freeze(&BoundedMatchResult::empty()).is_empty());
    }

    #[test]
    fn bounded_freeze_keeps_the_shortest_distance_of_a_repeated_pair() {
        let dirty = BoundedMatchResult {
            node_matches: vec![vec![NodeId(0)], vec![NodeId(2), NodeId(1)]],
            edge_matches: vec![vec![
                (NodeId(0), NodeId(2), 3),
                (NodeId(0), NodeId(1), 2),
                (NodeId(0), NodeId(2), 1),
            ]],
        };
        let c = CompactBoundedView::freeze(&dirty);
        assert_eq!(
            c.edge_set(PatternEdgeId(0)),
            &[(NodeId(0), NodeId(1)), (NodeId(0), NodeId(2))]
        );
        assert_eq!(c.edge_dists(PatternEdgeId(0)), &[2, 1]);
        assert_eq!(c.max_dist(PatternEdgeId(0)), 2);
        assert_eq!(c.node_set(PatternNodeId(1)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn resident_bytes_counts_columns() {
        let p = two_node_pattern();
        let r = MatchResult::new(
            &p,
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            vec![vec![(NodeId(0), NodeId(1))]],
        );
        let c = CompactView::freeze(&r);
        // 1 pair (8 B) + 2 nodes (8 B) + offsets: edge_offsets has ne+1 = 2
        // entries, node_offsets has np+1 = 3, at 4 B each.
        assert_eq!(c.resident_bytes(), 8 + 8 + (2 + 3) * 4);
    }
}
