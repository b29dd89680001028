//! Bounded view definitions and extensions, including the paper's auxiliary
//! distance index `I(V)` (Section VI-A).
//!
//! For bounded views the extension stores, for every match `(v, v')` of a
//! view edge, the shortest witnessing distance `d` — "for each match (v, v')
//! in V(G) of some edge in V, I(V) includes a pair ⟨(v, v'), d⟩". The size
//! of `I(V)` is bounded by `|V(G)|`, and `BMatchJoin` queries it in `O(1)`.

use crate::compact::CompactBoundedView;
use gpv_graph::DataGraph;
use gpv_matching::bounded::bmatch_pattern;
use gpv_pattern::BoundedPattern;

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
/// distances — the extension and the index `I(V)` in one structure. Since
/// the columnar-arena refactor this is the flat
/// [`CompactBoundedExtensions`](crate::compact::CompactBoundedExtensions);
/// the JSON wire shape is unchanged.
pub type BoundedViewExtensions = crate::compact::CompactBoundedExtensions;

/// Materializes bounded views with the `BMatch` engine, recording shortest
/// distances (building `I(V)` as a side effect), frozen into columnar
/// arena regions.
pub fn bmaterialize(views: &BoundedViewSet, g: &DataGraph) -> BoundedViewExtensions {
    BoundedViewExtensions {
        extensions: views
            .views()
            .iter()
            .map(|v| CompactBoundedView::freeze(&bmatch_pattern(&v.pattern, g)))
            .collect(),
    }
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
        assert_eq!(
            ext.edge_set(0, PatternEdgeId(0)),
            &[(NodeId(0), NodeId(2), 1)]
        );
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
    }
}
