//! Bounded view definitions and extensions, including the paper's auxiliary
//! distance index `I(V)` (Section VI-A).
//!
//! For bounded views the extension stores, for every match `(v, v')` of a
//! view edge, the shortest witnessing distance `d` — "for each match (v, v')
//! in V(G) of some edge in V, I(V) includes a pair ⟨(v, v'), d⟩". The size
//! of `I(V)` is bounded by `|V(G)|`, and `BMatchJoin` queries it in `O(1)`.
//!
//! [`bmaterialize`] runs the `MatchJoin` kernel over edge sets read from
//! `G`. Base sets come from one [`GraphSource`]. A view edge
//! `(u, t)` with bound `k` reads, for each node of `base(u)`, a bounded BFS
//! truncated at `k` (not truncated for `*`), keeping the nodes in `base(t)`
//! with their shortest distances. Those candidate pairs go through the
//! shared refinement, and each survivor reads its distance at its position
//! in the read, as in `BMatchJoin`.

use crate::compact::{BoundedEdgeSet, CompactBoundedView};
use crate::matchjoin::{pick, refine, survivor_pairs, JoinStrategy, MergedSets};
use crate::partial::GraphSource;
use gpv_graph::traverse::{bounded_bfs, BfsScratch, Direction};
use gpv_graph::{BitSet, DataGraph, NodeId};
use gpv_pattern::{BoundedPattern, EdgeBound, PatternEdgeId, Predicate};
use std::borrow::Cow;
use std::collections::HashMap;

/// A named bounded view definition.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundedViewDef {
    /// Human-readable name.
    pub name: String,
    /// The defining bounded pattern query.
    pub pattern: BoundedPattern,
}

impl BoundedViewDef {
    /// Creates a named bounded view.
    pub fn new(name: impl Into<String>, pattern: BoundedPattern) -> Self {
        BoundedViewDef {
            name: name.into(),
            pattern,
        }
    }
}

/// A set of bounded view definitions.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BoundedViewSet {
    views: Vec<BoundedViewDef>,
}

impl BoundedViewSet {
    /// Creates a bounded view set.
    pub fn new(views: Vec<BoundedViewDef>) -> Self {
        BoundedViewSet { views }
    }

    /// `card(V)`.
    pub fn card(&self) -> usize {
        self.views.len()
    }

    /// `|V|`: total size of the definitions.
    pub fn size(&self) -> usize {
        self.views.iter().map(|v| v.pattern.size()).sum()
    }

    /// The definitions in order.
    pub fn views(&self) -> &[BoundedViewDef] {
        &self.views
    }

    /// The `i`-th view.
    pub fn get(&self, i: usize) -> &BoundedViewDef {
        &self.views[i]
    }

    /// Restricts to a subset by index.
    pub fn subset(&self, indices: &[usize]) -> BoundedViewSet {
        BoundedViewSet {
            views: indices.iter().map(|&i| self.views[i].clone()).collect(),
        }
    }

    /// Iterates `(index, view)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &BoundedViewDef)> {
        self.views.iter().enumerate()
    }
}

/// Materialized bounded extensions: each `Vi(G)` carries per-pair shortest
/// distances — the extension and the index `I(V)` in one structure: the
/// flat [`CompactBoundedExtensions`](crate::compact::CompactBoundedExtensions),
/// a pair column and a distance column per view.
pub type BoundedViewExtensions = crate::compact::CompactBoundedExtensions;

/// Materializes bounded views through the `MatchJoin` kernel over `G`,
/// recording shortest distances (building `I(V)` as a side effect), frozen
/// into columnar arena regions. Views sharing an edge's predicates and
/// bound share its read of `G`.
pub fn bmaterialize(views: &BoundedViewSet, g: &DataGraph) -> BoundedViewExtensions {
    let mut reader = BoundedReader {
        g,
        source: GraphSource::new(g),
        scratch: BfsScratch::new(g.node_count()),
        reads: HashMap::new(),
    };
    BoundedViewExtensions {
        extensions: views
            .views()
            .iter()
            .map(|v| reader.materialize(&v.pattern))
            .collect(),
    }
}

/// What one read of `G` depends on: `(pred(u), pred(t), bound)` of a view
/// edge `(u, t)`.
type ReadKey = (Predicate, Predicate, EdgeBound);

/// Reads bounded view edges from `G` for one [`bmaterialize`] call.
struct BoundedReader<'g> {
    g: &'g DataGraph,
    source: GraphSource<'g>,
    scratch: BfsScratch,
    reads: HashMap<ReadKey, BoundedEdgeSet>,
}

impl BoundedReader<'_> {
    /// `Qb(G)` for one view `vb`, node sets by
    /// [`GraphSource::node_sets`].
    fn materialize(&mut self, vb: &BoundedPattern) -> CompactBoundedView {
        let q = vb.pattern();
        if self.source.bases(q).iter().any(|b| b.is_empty()) {
            return CompactBoundedView::empty();
        }
        let keys: Vec<ReadKey> = q
            .edges()
            .iter()
            .enumerate()
            .map(|(ei, &(u, t))| {
                let bound = vb.bound(PatternEdgeId(ei as u32));
                (q.pred(u).clone(), q.pred(t).clone(), bound)
            })
            .collect();
        for (key, &(u, t)) in keys.iter().zip(q.edges()) {
            if !self.reads.contains_key(key) {
                let bases = self.source.bases(q);
                let read = read_bounded(
                    self.g,
                    bases[u.index()],
                    bases[t.index()],
                    key.2,
                    &mut self.scratch,
                );
                self.reads.insert(key.clone(), read);
            }
        }
        let columns: Vec<&BoundedEdgeSet> = keys.iter().map(|k| &self.reads[k]).collect();
        let merged: MergedSets<'_> = columns.iter().map(|(p, _)| Cow::Borrowed(&p[..])).collect();
        let (kept, _) = refine(q, &merged, JoinStrategy::RankedBottomUp);
        let Some(kept) = kept else {
            return CompactBoundedView::empty();
        };
        let sets = survivor_pairs(&merged, &kept);
        let nodes = self.source.node_sets(q, &sets);
        let edges = sets
            .into_iter()
            .zip(&kept)
            .zip(columns)
            .map(|((set, kept), (_, dists))| (set, pick(dists, kept)))
            .collect();
        CompactBoundedView::from_sets(edges, nodes)
    }
}

/// The pairs `(v, w)` with `v ∈ from`, `w ∈ to` and a nonempty path of at
/// most `bound` hops from `v` to `w`, with its shortest length: one
/// bounded BFS per node of `from`. Sorted by pair.
fn read_bounded(
    g: &DataGraph,
    from: &BitSet,
    to: &BitSet,
    bound: EdgeBound,
    scratch: &mut BfsScratch,
) -> BoundedEdgeSet {
    let hops = bound.hops().unwrap_or(u32::MAX);
    let (mut pairs, mut dists) = (Vec::new(), Vec::new());
    let mut row: Vec<(NodeId, u32)> = Vec::new();
    for v in from.iter().map(|v| NodeId(v as u32)) {
        bounded_bfs(g, v, hops, Direction::Out, scratch);
        row.clear();
        row.extend(
            scratch
                .visited
                .iter()
                .filter(|(w, _)| to.contains(w.index())),
        );
        row.sort_unstable();
        pairs.extend(row.iter().map(|&(w, _)| (v, w)));
        dists.extend(row.iter().map(|&(_, d)| d));
    }
    (pairs, dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::{GraphBuilder, NodeId};
    use gpv_pattern::{PatternBuilder, PatternEdgeId};

    fn chain_graph() -> DataGraph {
        // A -> m -> B, A -> B (direct)
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let m = b.add_node(["M"]);
        let z = b.add_node(["B"]);
        b.add_edge(a, m);
        b.add_edge(m, z);
        b.add_edge(a, z);
        b.build()
    }

    fn view_a2b(k: u32) -> BoundedViewDef {
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("A");
        let y = b.node_labeled("B");
        b.edge_bounded(x, y, k);
        BoundedViewDef::new(format!("V_A{k}B"), b.build_bounded().unwrap())
    }

    #[test]
    fn set_accessors() {
        let vs = BoundedViewSet::new(vec![view_a2b(2), view_a2b(3)]);
        assert_eq!(vs.card(), 2);
        assert_eq!(vs.size(), 6);
        assert_eq!(vs.subset(&[1]).get(0).name, "V_A3B");
    }

    #[test]
    fn materialize_records_shortest_distance() {
        let g = chain_graph();
        let vs = BoundedViewSet::new(vec![view_a2b(2)]);
        let ext = bmaterialize(&vs, &g);
        // A reaches B directly (d=1) — shortest wins over the 2-hop path.
        assert_eq!(ext.edge_set(0, PatternEdgeId(0)), &[(NodeId(0), NodeId(2))]);
        assert_eq!(ext.edge_dists(0, PatternEdgeId(0)), &[1]);
        assert_eq!(ext.size(), 1);
    }

    #[test]
    fn empty_extension() {
        let g = chain_graph();
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("B");
        let y = b.node_labeled("A");
        b.edge_bounded(x, y, 3);
        let vs = BoundedViewSet::new(vec![BoundedViewDef::new("VBA", b.build_bounded().unwrap())]);
        let ext = bmaterialize(&vs, &g);
        assert_eq!(ext.size(), 0);
        assert_eq!(ext.edge_set(0, PatternEdgeId(0)), &[]);
        assert_eq!(ext.edge_dists(0, PatternEdgeId(0)), &[] as &[u32]);
    }
}
