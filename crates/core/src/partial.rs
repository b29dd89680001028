//! Partial containment and hybrid evaluation (extension).
//!
//! The paper's future-work list asks for "efficient algorithms for computing
//! maximally contained rewriting using views, when a pattern query is not
//! contained in available views". This module provides the evaluation-side
//! counterpart: when `Qs ⋢ V`, [`partial_contain`] still extracts the
//! *maximal coverage* — the covered query edges with their λ entries — and
//! [`hybrid_match_join`] answers the query by initializing covered edges
//! from the cached extensions and only the uncovered edges from `G`.
//!
//! The access to `G` is surgical and goes through one [`GraphSource`]: for
//! an uncovered edge `(u, u')` only the graph edges between the base sets
//! of the two node conditions are read — the per-edge work `Match` would
//! do, limited to the uncovered part. When every edge is covered this
//! degenerates to `MatchJoin` (no `G` access); when nothing is covered
//! every edge is graph-sourced, which is how the engine's direct plans,
//! view materialization and the `gpv match` command evaluate `Match`
//! itself — on the same ranked kernel.

use std::borrow::Cow;

use crate::containment::{ContainmentPlan, ViewEdgeRef, ViewMatchTable};
use crate::matchjoin::{
    check_arity, node_sets, ranked_fixpoint, run_fixpoint, smallest_cover, survivor_pairs, Cover,
    JoinError, JoinStats, JoinStrategy, MergedSets, Simulation,
};
use crate::plan::EdgeSource;
use crate::view::{ViewExtensions, ViewSet};
use gpv_graph::{BitSet, DataGraph, NodeId};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Atom, Pattern, PatternEdgeId, Predicate};
use std::collections::HashMap;

/// Maximal-coverage result: which query edges the views can supply.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PartialPlan {
    /// λ entries per query edge (empty = uncovered).
    pub lambda: Vec<Vec<ViewEdgeRef>>,
    /// Query edges with no covering view edge.
    pub uncovered: Vec<PatternEdgeId>,
}

impl PartialPlan {
    /// The coverage a `λ` describes: query edges with no entry are the
    /// uncovered ones.
    pub(crate) fn from_lambda(lambda: Vec<Vec<ViewEdgeRef>>) -> PartialPlan {
        let uncovered = (0..lambda.len())
            .filter(|&e| lambda[e].is_empty())
            .map(|e| PatternEdgeId(e as u32))
            .collect();
        PartialPlan { lambda, uncovered }
    }

    /// Whether the coverage is total (equivalent to `contain` succeeding).
    pub fn is_total(&self) -> bool {
        self.uncovered.is_empty()
    }

    /// Converts to a full [`ContainmentPlan`] when total.
    pub fn into_plan(self) -> Option<ContainmentPlan> {
        if !self.is_total() {
            return None;
        }
        ContainmentPlan::from_lambda(self.lambda)
    }
}

/// Computes the maximal coverage of `q` by `views` (never fails — an empty
/// view set yields all edges uncovered): the full `λ` of the view-match
/// table, plus the edges it leaves uncovered.
pub fn partial_contain(q: &Pattern, views: &ViewSet) -> PartialPlan {
    PartialPlan::from_lambda(ViewMatchTable::build(q, views).full_lambda())
}

/// Base sets resolved once per distinct node predicate: the bitset of the
/// nodes satisfying it. A predicate with a label atom tests only the nodes
/// [`DataGraph::nodes_with_label`] lists for it; one without scans `V`.
/// The sets depend on node data only, which edge deltas never change, so
/// one cache stays valid for every graph an edge-delta chain passes
/// through: [`GraphSource`] owns one per read, and
/// [`ViewStore`](crate::store::ViewStore)'s writer state keeps one for the
/// lifetime of its warm maintainers.
#[derive(Debug, Default)]
pub(crate) struct BaseSets(HashMap<Predicate, BitSet>);

impl BaseSets {
    /// The base set of every node of `q` over `g`, in node order,
    /// resolving the predicates not seen before.
    pub(crate) fn of(&mut self, g: &DataGraph, q: &Pattern) -> Vec<&BitSet> {
        for p in q.preds() {
            if self.0.contains_key(p) {
                continue;
            }
            let resolved = p.resolve(g);
            let mut set = BitSet::new(g.node_count());
            let mut add = |v: NodeId| {
                if resolved.satisfied_by(g, v) {
                    set.insert(v.index());
                }
            };
            // Only the nodes carrying the first label atom's label can
            // satisfy the conjunction; without a label atom, scan V.
            match p.atoms().iter().find_map(|a| match a {
                Atom::Label(l) => Some(l),
                _ => None,
            }) {
                Some(l) => {
                    let nodes = g.lookup_label(l).map_or(&[][..], |l| g.nodes_with_label(l));
                    nodes.iter().copied().for_each(&mut add);
                }
                None => g.nodes().for_each(&mut add),
            }
            self.0.insert(p.clone(), set);
        }
        q.preds().iter().map(|p| &self.0[p]).collect()
    }

    /// Drops the sets of predicates no pattern of `keep` uses.
    pub(crate) fn retain_used<'p>(&mut self, keep: impl IntoIterator<Item = &'p Pattern>) {
        let used: std::collections::HashSet<&Predicate> =
            keep.into_iter().flat_map(|q| q.preds()).collect();
        self.0.retain(|p, _| used.contains(p));
    }

    /// Heap bytes of the resolved sets.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.0
            .values()
            .map(|s| s.capacity().div_ceil(64) * std::mem::size_of::<u64>())
            .sum()
    }
}

/// The one path production code reads `G` through for simulation. It
/// resolves each distinct node predicate to its base set once, on first
/// use (a `BaseSets` cache), so a query with repeated labels — or a batch of
/// views sharing one source — resolves each predicate once. A
/// graph-sourced pattern edge `(u, t)` reads the `out_neighbors` of
/// `base(u)`, keeping those in `base(t)`.
pub struct GraphSource<'g> {
    g: &'g DataGraph,
    bases: BaseSets,
}

impl<'g> GraphSource<'g> {
    /// A source over `g` with no predicate resolved yet.
    pub fn new(g: &'g DataGraph) -> Self {
        GraphSource {
            g,
            bases: BaseSets::default(),
        }
    }

    /// The base set of every node of `q`, in node order.
    pub(crate) fn bases(&mut self, q: &Pattern) -> Vec<&BitSet> {
        self.bases.of(self.g, q)
    }

    /// The graph-sourced match set of pattern edge `e`: the graph edges
    /// from `base(u)` to `base(t)`, sorted.
    fn edge_pairs(&mut self, q: &Pattern, e: PatternEdgeId) -> Vec<(NodeId, NodeId)> {
        let g = self.g;
        let (u, t) = q.edge(e);
        let bases = self.bases(q);
        let (from, to) = (bases[u.index()], bases[t.index()]);
        let mut pairs = Vec::new();
        for v in from.iter().map(|v| NodeId(v as u32)) {
            let succ = g.out_neighbors(v).iter().filter(|w| to.contains(w.index()));
            pairs.extend(succ.map(|&w| (v, w)));
        }
        pairs
    }

    /// `Match(q, G)` (or its dual-simulation counterpart): the ranked
    /// `MatchJoin` kernel with every edge graph-sourced. A node with no
    /// incident edge matches its whole base set.
    pub fn simulate(&mut self, q: &Pattern, sim: Simulation) -> (MatchResult, JoinStats) {
        if self.bases(q).iter().any(|b| b.is_empty()) {
            return (MatchResult::empty(), JoinStats::default());
        }
        let merged: MergedSets<'_> = (0..q.edge_count())
            .map(|e| Cow::Owned(self.edge_pairs(q, PatternEdgeId(e as u32))))
            .collect();
        let mut stats = JoinStats {
            merged_pairs: merged.iter().map(|s| s.len() as u64).sum(),
            ..JoinStats::default()
        };
        let result =
            ranked_fixpoint(q, &merged, sim, &mut stats).map_or_else(MatchResult::empty, |kept| {
                let sets = survivor_pairs(&merged, &kept);
                MatchResult::new(q, self.node_sets(q, &sets), sets)
            });
        (result, stats)
    }

    /// The kernel's [`node_sets`] of `sets`, refined over `G`, except that
    /// a node with no incident edge matches its whole base set (every
    /// node of an edgeless query).
    pub(crate) fn node_sets(
        &mut self,
        q: &Pattern,
        sets: &[Vec<(NodeId, NodeId)>],
    ) -> Vec<Vec<NodeId>> {
        let bases = self.bases(q);
        let mut nodes = node_sets(q, sets);
        for u in q.nodes().filter(|&u| q.is_isolated(u)) {
            nodes[u.index()] = bases[u.index()].iter().map(|v| NodeId(v as u32)).collect();
        }
        nodes
    }
}

/// Derives the per-edge source vector a (full or partial) λ implies:
/// covered edges read their smallest covering extension, uncovered edges
/// read `G`. The engine's planner pins exactly these sources.
pub fn sources_from_lambda(
    lambda: &[Vec<ViewEdgeRef>],
    ext: &ViewExtensions,
) -> Result<Vec<EdgeSource>, JoinError> {
    lambda
        .iter()
        .map(|entries| {
            Ok(match cover(entries, ext)? {
                Some((r, _)) => EdgeSource::View(r),
                None => EdgeSource::Graph,
            })
        })
        .collect()
}

/// [`smallest_cover`] over plain extensions: the entry the
/// witness-narrowing merge reads, and therefore the one the planner pins
/// into [`EdgeSource::View`].
pub(crate) fn cover<'a>(
    entries: &[ViewEdgeRef],
    ext: &'a ViewExtensions,
) -> Result<Cover<'a, (NodeId, NodeId)>, JoinError> {
    smallest_cover(entries, ext.extensions.len(), |r| {
        ext.edge_set(r.view, r.edge)
    })
}

/// The source-honoring merge step: builds each edge's initial match set
/// from exactly the source the plan pinned — the materialized extension for
/// [`EdgeSource::View`], the [`GraphSource`] for [`EdgeSource::Graph`]. The
/// executor consumes this, so the planner's per-edge decision is what
/// actually runs. `g` may be `None` only for
/// all-view source vectors ([`JoinError::GraphRequired`] otherwise).
pub(crate) fn merged_from_sources<'a>(
    q: &Pattern,
    sources: &[EdgeSource],
    ext: &'a ViewExtensions,
    g: Option<&DataGraph>,
) -> Result<MergedSets<'a>, JoinError> {
    check_arity(q, sources.len())?;
    let mut g = g.map(GraphSource::new);
    sources
        .iter()
        .enumerate()
        .map(|(ei, source)| match source {
            // A pinned source is a one-entry cover. Arena slices are
            // canonical by construction (`freeze` sorts + dedups), so the
            // merge borrows them directly — zero per-pair copies on the
            // view-covered edges.
            EdgeSource::View(r) => {
                let (_, set) = cover(std::slice::from_ref(r), ext)?.expect("one entry");
                Ok(Cow::Borrowed(set))
            }
            EdgeSource::Graph => {
                let g = g.as_mut().ok_or(JoinError::GraphRequired)?;
                Ok(Cow::Owned(g.edge_pairs(q, PatternEdgeId(ei as u32))))
            }
        })
        .collect()
}

/// Answers `q` using views for the covered edges and the [`GraphSource`]
/// for the uncovered ones. Equivalent to `Match(q, g)` on every graph (the
/// property tests assert it), with `G` access proportional to the uncovered
/// part only.
pub fn hybrid_match_join(
    q: &Pattern,
    partial: &PartialPlan,
    ext: &ViewExtensions,
    g: &DataGraph,
) -> Result<(MatchResult, JoinStats), JoinError> {
    check_arity(q, partial.lambda.len())?;
    let sources = sources_from_lambda(&partial.lambda, ext)?;
    let merged = merged_from_sources(q, &sources, ext, Some(g))?;
    // Same refinement as MatchJoin from here on.
    Ok(run_fixpoint(q, merged, JoinStrategy::RankedBottomUp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{chain3, graph, single};
    use crate::view::{materialize, ViewDef};
    use gpv_graph::GraphBuilder;
    use gpv_matching::simulation::match_pattern;

    #[test]
    fn coverage_reported() {
        let q = chain3();
        // Only the (A,B) view is cached.
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let p = partial_contain(&q, &views);
        assert!(!p.is_total());
        assert_eq!(p.uncovered, vec![PatternEdgeId(1)]);
        assert!(!p.lambda[0].is_empty());
        assert!(p.into_plan().is_none());
    }

    #[test]
    fn hybrid_equals_match() {
        let q = chain3();
        let g = graph();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
        // And the pruning worked: a2/b2 must be gone.
        assert_eq!(r.node_set(gpv_pattern::PatternNodeId(0)).len(), 1);
    }

    #[test]
    fn total_coverage_degenerates_to_matchjoin() {
        let q = chain3();
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        assert!(p.is_total());
        assert_eq!(
            p.clone().into_plan(),
            crate::containment::contain(&q, &views)
        );
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
    }

    #[test]
    fn no_views_degenerates_to_match() {
        let q = chain3();
        let g = graph();
        let views = ViewSet::default();
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        assert_eq!(p.uncovered.len(), 2);
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
    }

    /// Node sets too equal `Match`'s: a sink's in-edge targets, an
    /// isolated node's base set, and every node of an edgeless query.
    #[test]
    fn graph_sourced_node_sets_equal_match() {
        // Node 2 is in B's base set, but no A points to it.
        let g =
            gpv_graph::io::parse_graph("node 0 A\nnode 1 B\nnode 2 B\nnode 3 C\nedge 0 1").unwrap();
        for text in [
            "node a A\nnode b B\nnode c C\nedge a b",
            "node a A\nnode c C",
        ] {
            let q = gpv_pattern::parse_pattern(text).unwrap();
            let (r, _) = GraphSource::new(&g).simulate(&q, Simulation::Plain);
            let oracle = match_pattern(&q, &g);
            assert!(!oracle.node_matches.is_empty());
            assert_eq!(r, oracle);
        }
    }

    #[test]
    fn empty_result_flows_through() {
        let q = chain3();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let g = b.build();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let ext = materialize(&views, &g);
        let p = partial_contain(&q, &views);
        let (r, _) = hybrid_match_join(&q, &p, &ext, &g).unwrap();
        assert!(r.is_empty());
    }
}
