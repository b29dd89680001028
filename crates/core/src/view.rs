//! View definitions, view sets and materialized view extensions
//! (paper Section II-B).
//!
//! A *view definition* `V` is itself a graph pattern query; its *extension*
//! `V(G)` in a data graph `G` is the query result — the per-edge match sets
//! `{(eV, S_eV)}`. Answering a query using views means computing `Qs(G)`
//! from `V(G) = {V1(G), ..., Vn(G)}` alone, never touching `G`.

use crate::compact::CompactView;
use crate::matchjoin::Simulation;
use crate::partial::GraphSource;
use gpv_graph::DataGraph;
use gpv_pattern::Pattern;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A named view definition (a plain pattern query).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ViewDef {
    /// Human-readable name (e.g. `"V1"`).
    pub name: String,
    /// The defining pattern query.
    pub pattern: Pattern,
}

impl ViewDef {
    /// Creates a named view.
    pub fn new(name: impl Into<String>, pattern: Pattern) -> Self {
        ViewDef {
            name: name.into(),
            pattern,
        }
    }
}

/// A set `V = {V1, ..., Vn}` of view definitions.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct ViewSet {
    views: Vec<ViewDef>,
}

impl ViewSet {
    /// Creates a view set.
    pub fn new(views: Vec<ViewDef>) -> Self {
        ViewSet { views }
    }

    /// The paper's `card(V)`: number of view definitions.
    pub fn card(&self) -> usize {
        self.views.len()
    }

    /// The paper's `|V|`: total size (nodes + edges) of all definitions.
    pub fn size(&self) -> usize {
        self.views.iter().map(|v| v.pattern.size()).sum()
    }

    /// The view definitions in order.
    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    /// The `i`-th view.
    pub fn get(&self, i: usize) -> &ViewDef {
        &self.views[i]
    }

    /// Adds a view, returning its index.
    pub fn push(&mut self, v: ViewDef) -> usize {
        self.views.push(v);
        self.views.len() - 1
    }

    /// Restricts to the views at `indices` (e.g. a minimal/minimum subset).
    pub fn subset(&self, indices: &[usize]) -> ViewSet {
        ViewSet {
            views: indices.iter().map(|&i| self.views[i].clone()).collect(),
        }
    }

    /// Iterates `(index, view)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &ViewDef)> {
        self.views.iter().enumerate()
    }
}

impl From<Vec<ViewDef>> for ViewSet {
    fn from(views: Vec<ViewDef>) -> Self {
        ViewSet::new(views)
    }
}

/// Materialized view extensions `V(G) = {V1(G), ..., Vn(G)}`, the cached
/// query results the join algorithms read instead of `G`.
///
/// Since the columnar-arena refactor this is the flat
/// [`CompactExtensions`](crate::compact::CompactExtensions): each view's
/// extension is a contiguous CSR-of-pairs region
/// ([`CompactView`]) behind an [`Arc`], so an
/// engine rebuild after a store mutation clones `n` pointers, not `|V(G)|`
/// pairs, and [`edge_set`](crate::compact::CompactExtensions::edge_set)
/// resolves to a borrowed flat slice with no per-pair indirection. The JSON
/// wire shape is unchanged (extensions serialize as boxed
/// [`MatchResult`](gpv_matching::result::MatchResult)s).
pub type ViewExtensions = crate::compact::CompactExtensions;

/// Materializes every view of `views` over `g` — the "pick and cache
/// previous query results" step of the paper — and freezes each result
/// into its columnar arena region.
pub fn materialize(views: &ViewSet, g: &DataGraph) -> ViewExtensions {
    materialize_as(views, g, Simulation::Plain)
}

/// [`materialize`] under `sim`: each view is evaluated by the `MatchJoin`
/// kernel with every edge read from one shared [`GraphSource`], so a
/// predicate the views share is resolved once.
pub(crate) fn materialize_as(views: &ViewSet, g: &DataGraph, sim: Simulation) -> ViewExtensions {
    let mut source = GraphSource::new(g);
    let mut freeze =
        |v: &ViewDef| Arc::new(CompactView::freeze(&source.simulate(&v.pattern, sim).0));
    ViewExtensions {
        extensions: views.views().iter().map(&mut freeze).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::{GraphBuilder, NodeId};
    use gpv_pattern::{PatternBuilder, PatternEdgeId};

    fn pattern_ab() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let c = b.node_labeled("B");
        b.edge(a, c);
        b.build().unwrap()
    }

    fn pattern_bc() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, c);
        b.build().unwrap()
    }

    fn graph_abc() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let x = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        b.add_edge(a, x);
        b.add_edge(x, c);
        b.build()
    }

    #[test]
    fn cardinality_and_size() {
        let vs = ViewSet::new(vec![
            ViewDef::new("V1", pattern_ab()),
            ViewDef::new("V2", pattern_bc()),
        ]);
        assert_eq!(vs.card(), 2);
        assert_eq!(vs.size(), 6); // each pattern: 2 nodes + 1 edge
        assert_eq!(vs.get(0).name, "V1");
    }

    #[test]
    fn subset_selects() {
        let vs = ViewSet::new(vec![
            ViewDef::new("V1", pattern_ab()),
            ViewDef::new("V2", pattern_bc()),
        ]);
        let sub = vs.subset(&[1]);
        assert_eq!(sub.card(), 1);
        assert_eq!(sub.get(0).name, "V2");
    }

    #[test]
    fn materialize_extensions() {
        let vs = ViewSet::new(vec![
            ViewDef::new("V1", pattern_ab()),
            ViewDef::new("V2", pattern_bc()),
        ]);
        let g = graph_abc();
        let ext = materialize(&vs, &g);
        assert_eq!(ext.extensions.len(), 2);
        assert_eq!(ext.size(), 2);
        assert_eq!(ext.edge_set(0, PatternEdgeId(0)), &[(NodeId(0), NodeId(1))]);
        assert_eq!(ext.edge_set(1, PatternEdgeId(0)), &[(NodeId(1), NodeId(2))]);
    }

    #[test]
    fn empty_extension_when_no_match() {
        let mut b = PatternBuilder::new();
        let x = b.node_labeled("Z");
        let y = b.node_labeled("A");
        b.edge(x, y);
        let vz = b.build().unwrap();
        let vs = ViewSet::new(vec![ViewDef::new("VZ", vz)]);
        let ext = materialize(&vs, &graph_abc());
        assert_eq!(ext.size(), 0);
        assert_eq!(ext.edge_set(0, PatternEdgeId(0)), &[]);
    }
}
