//! The unified query-answering engine.
//!
//! [`QueryEngine`] is the single decision point for "answer `Qs` given what
//! we have cached": it owns a view registry (definitions + materialized
//! extensions, or an `Arc`-shared [`StoreSnapshot`] of a
//! [`ViewStore`](crate::store::ViewStore)),
//! produces an explicit [`QueryPlan`] IR, and executes it —
//! choosing among the paper's algorithms instead of making the caller pick:
//!
//! * **Analyze** — containment via [`contain`](crate::containment::contain)
//!   (or [`bcontain`](crate::bcontainment::bcontain) for bounded queries,
//!   [`partial_contain`](crate::partial::partial_contain) for partial
//!   coverage) — one shared view-match sweep per query;
//! * **Select** — `all` vs [`minimal`](crate::minimal::minimal) vs
//!   [`minimum`](crate::minimum::minimum) view selection, costed
//!   by the fixed [`CostModel`] against the actual extension sizes, plus
//!   the per-edge [`EdgeSource`] (a covered edge reads its smallest
//!   covering extension, an uncovered one scans `G`);
//! * **Execute** — single-threaded `MatchJoin` / `BMatchJoin`, hybrid
//!   join, or direct `Match` fallback, honoring the plan's per-edge sources
//!   verbatim.
//!
//! The contract (Theorem 1/8), now as an engine guarantee: for every query
//! and graph, [`QueryEngine::answer`] equals
//! [`match_pattern`], touching `G`
//! only when the views genuinely cannot cover the query.

use crate::bcontainment::bounded_table;
use crate::bview::{bmaterialize, BoundedViewExtensions, BoundedViewSet};
use crate::containment::{ContainmentPlan, ViewEdgeRef, ViewMatchTable};
use crate::cost::{CostEstimate, CostModel};
use crate::matchjoin::{run_fixpoint, JoinError, JoinStats, JoinStrategy};
use crate::minimal::{minimal_from_table, Selection};
use crate::minimum::minimum_from_table;
use crate::partial::{merged_from_sources, sources_from_lambda, PartialPlan};
use crate::plan::{
    view_reads, EdgeSource, ExecStrategy, FallbackReason, QueryPlan, SelectionMode, ViewPlan,
};
use crate::selection::{select_views_for_workload, WorkloadSelection};
use crate::storage::graph_fingerprint;
use crate::store::StoreSnapshot;
use crate::view::{materialize, ViewDef, ViewExtensions, ViewSet};
use gpv_graph::stats::GraphStats;
use gpv_graph::DataGraph;
use gpv_matching::result::{BoundedMatchResult, MatchResult};
use gpv_matching::simulation::match_pattern;
use gpv_pattern::{BoundedPattern, Pattern};
use std::sync::Arc;

/// The one execution strategy the planner emits.
const SEQUENTIAL: ExecStrategy = ExecStrategy::Sequential(JoinStrategy::RankedBottomUp);

/// Engine tuning knobs.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Pin the view-selection mode instead of costing the alternatives.
    pub force_selection: Option<SelectionMode>,
}

/// Errors from engine planning/execution.
#[derive(Debug)]
pub enum EngineError {
    /// `Qs ⋢ V` and the call does not permit graph access.
    NotContained,
    /// The chosen plan needs the data graph, but none was supplied.
    NeedsGraph,
    /// No bounded views are registered.
    NoBoundedViews,
    /// `Qb ⋢ V` for the bounded view registry.
    BoundedNotContained,
    /// A view registered against a different graph than the one supplied.
    GraphMismatch {
        /// Fingerprint the registry was materialized against.
        expected: u64,
        /// Fingerprint of the graph supplied now.
        actual: u64,
    },
    /// Executor failure (plan/extension mismatch).
    Join(JoinError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NotContained => {
                write!(f, "query is not contained in the registered views")
            }
            EngineError::NeedsGraph => {
                write!(f, "plan requires graph access but no graph was supplied")
            }
            EngineError::NoBoundedViews => write!(f, "no bounded views registered"),
            EngineError::BoundedNotContained => {
                write!(
                    f,
                    "bounded query is not contained in the registered bounded views"
                )
            }
            EngineError::GraphMismatch { expected, actual } => write!(
                f,
                "views were materialized for graph {expected:#x}, not {actual:#x}"
            ),
            EngineError::Join(e) => write!(f, "join failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<JoinError> for EngineError {
    fn from(e: JoinError) -> Self {
        EngineError::Join(e)
    }
}

/// A costed bounded-query plan (the bounded analogue of
/// [`ViewPlan`]; bounded queries have no hybrid fallback in the paper, so
/// the plan is always views-only or an error).
#[derive(Clone, Debug, PartialEq)]
pub struct BoundedPlan {
    /// Which selection algorithm chose the views.
    pub selection: SelectionMode,
    /// Selected view indices.
    pub views: Vec<usize>,
    /// The λ for `BMatchJoin`.
    pub plan: ContainmentPlan,
    /// Join execution strategy.
    pub exec: ExecStrategy,
    /// Estimated cost.
    pub cost: CostEstimate,
}

/// Registry + planner + executor for answering pattern queries using views.
///
/// ```
/// use gpv_core::engine::QueryEngine;
/// use gpv_core::view::{ViewDef, ViewSet};
/// use gpv_graph::GraphBuilder;
/// use gpv_pattern::PatternBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node(["A"]);
/// let c = b.add_node(["B"]);
/// b.add_edge(a, c);
/// let g = b.build();
///
/// let mut p = PatternBuilder::new();
/// let u = p.node_labeled("A");
/// let v = p.node_labeled("B");
/// p.edge(u, v);
/// let q = p.build().unwrap();
///
/// let views = ViewSet::new(vec![ViewDef::new("v", q.clone())]);
/// let engine = QueryEngine::materialize(views, &g);
/// // Theorem 1: answered from the materialized view, no access to `g`.
/// let r = engine.answer_from_views(&q).unwrap();
/// assert_eq!(r, gpv_matching::simulation::match_pattern(&q, &g));
/// ```
#[derive(Clone, Debug)]
pub struct QueryEngine {
    /// `Arc`-shared with the snapshot/store the engine was built from, so
    /// rebuilding after a store mutation never copies definitions…
    views: Arc<ViewSet>,
    /// …or materialized pairs: the executors only borrow the extensions,
    /// and each per-view extension is itself `Arc`-shared
    /// ([`ViewExtensions`]).
    ext: Arc<ViewExtensions>,
    bounded: Option<(BoundedViewSet, BoundedViewExtensions)>,
    fingerprint: u64,
    graph_stats: Option<GraphStats>,
    config: EngineConfig,
}

impl QueryEngine {
    /// Materializes `views` over `g` and builds an engine around them.
    pub fn materialize(views: ViewSet, g: &DataGraph) -> Self {
        let ext = materialize(&views, g);
        QueryEngine {
            views: Arc::new(views),
            ext: Arc::new(ext),
            bounded: None,
            fingerprint: graph_fingerprint(g),
            graph_stats: Some(gpv_graph::stats::stats(g)),
            config: EngineConfig::default(),
        }
    }

    /// Builds an engine over a [`StoreSnapshot`] of a sharded
    /// [`ViewStore`](crate::store::ViewStore) — the serving-layer path:
    /// [`ViewService`](crate::service::ViewService) takes one snapshot per
    /// store version and plans/executes against it lock-free.
    ///
    /// **Zero-copy**: the snapshot's view set and extensions are shared by
    /// `Arc`, so this is O(1) regardless of how many pairs the store
    /// materializes — a rebuild after a single-view insert costs the
    /// snapshot assembly (O(card(V)) handle clones), never a deep copy.
    pub fn from_snapshot(snap: &StoreSnapshot) -> Self {
        QueryEngine {
            views: snap.view_set(),
            ext: snap.extensions(),
            bounded: None,
            fingerprint: snap.graph_fingerprint,
            graph_stats: snap.graph_stats.clone(),
            config: EngineConfig::default(),
        }
    }

    /// Replaces the engine configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the engine configuration in place (e.g. to re-plan the same
    /// registry under different forced modes, without re-materializing).
    pub fn set_config(&mut self, config: EngineConfig) {
        self.config = config;
    }

    /// Workload-aware view advisor (the ROADMAP's "wire
    /// [`select_views_for_workload`] into the registry"): greedily picks at
    /// most `budget` of the *registered* views maximizing the (weighted)
    /// number of fully-answered workload queries — i.e. which materialized
    /// views earn their keep for this traffic, and which queries would
    /// still fall back to `G`.
    ///
    /// ```
    /// use gpv_core::engine::QueryEngine;
    /// use gpv_core::view::{ViewDef, ViewSet};
    /// use gpv_graph::GraphBuilder;
    /// use gpv_pattern::PatternBuilder;
    ///
    /// let mut b = GraphBuilder::new();
    /// let a = b.add_node(["A"]);
    /// let c = b.add_node(["B"]);
    /// b.add_edge(a, c);
    /// let g = b.build();
    ///
    /// let mut p = PatternBuilder::new();
    /// let u = p.node_labeled("A");
    /// let v = p.node_labeled("B");
    /// p.edge(u, v);
    /// let q = p.build().unwrap();
    ///
    /// let views = ViewSet::new(vec![ViewDef::new("v", q.clone())]);
    /// let engine = QueryEngine::materialize(views, &g);
    /// let advice = engine.advise_views(&[q], 1, None);
    /// assert_eq!(advice.views, vec![0]);
    /// assert!(advice.answered[0]);
    /// ```
    pub fn advise_views(
        &self,
        workload: &[Pattern],
        budget: usize,
        weights: Option<&[f64]>,
    ) -> WorkloadSelection {
        select_views_for_workload(workload, &self.views, budget, weights)
    }

    /// Registers bounded views (materializing their distance index) so
    /// [`Self::answer_bounded`] can serve bounded queries.
    pub fn with_bounded_views(mut self, views: BoundedViewSet, g: &DataGraph) -> Self {
        let ext = bmaterialize(&views, g);
        self.bounded = Some((views, ext));
        self
    }

    /// The registered view definitions.
    pub fn views(&self) -> &ViewSet {
        &self.views
    }

    /// The materialized extensions `V(G)` (shared with the snapshot/store
    /// this engine was built from; see [`ViewExtensions`] for the sharing
    /// contract).
    pub fn extensions(&self) -> &ViewExtensions {
        &self.ext
    }

    /// Fingerprint of the graph the registry was materialized against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Materializes and registers one more view; returns its index.
    /// Fails when `g` is not the graph the registry was built on.
    pub fn add_view(&mut self, def: ViewDef, g: &DataGraph) -> Result<usize, EngineError> {
        let actual = graph_fingerprint(g);
        if actual != self.fingerprint {
            return Err(EngineError::GraphMismatch {
                expected: self.fingerprint,
                actual,
            });
        }
        let single = ViewSet::new(vec![def.clone()]);
        let ext = materialize(&single, g);
        // Copy-on-write: an engine sharing its registry with a snapshot
        // detaches (cloning `Arc` handles, not pairs) before mutating.
        Arc::make_mut(&mut self.ext).push_shared(
            ext.extensions
                .into_iter()
                .next()
                .expect("one view in, one out"),
        );
        Ok(Arc::make_mut(&mut self.views).push(def))
    }

    /// Checks that `g` is the graph this registry was materialized against.
    pub fn validate_graph(&self, g: &DataGraph) -> Result<(), EngineError> {
        let actual = graph_fingerprint(g);
        if actual == self.fingerprint {
            Ok(())
        } else {
            Err(EngineError::GraphMismatch {
                expected: self.fingerprint,
                actual,
            })
        }
    }

    /// Per-edge sources for a (full or partial) λ ([`sources_from_lambda`]).
    fn sources(&self, lambda: &[Vec<ViewEdgeRef>]) -> Vec<EdgeSource> {
        // The λ comes from a sweep over the registered views, so every view
        // index is in range.
        sources_from_lambda(lambda, &self.ext).expect("λ over registered views")
    }

    /// **Analyze → Select**: produces the costed plan for `q` without
    /// executing anything.
    ///
    /// Under `debug_assertions` every produced plan runs through the
    /// static verifier ([`crate::verify::verify_plan`]) before it is
    /// returned — an unsound plan (unsourced edge, out-of-range or
    /// non-covering view reference, views-only plan touching `G`) is a
    /// planner bug and aborts immediately instead of surfacing later as a
    /// wrong answer.
    pub fn plan(&self, q: &Pattern) -> QueryPlan {
        let plan = self.plan_unverified(q);
        #[cfg(debug_assertions)]
        {
            let errors =
                crate::verify::errors_only(crate::verify::verify_plan(q, &plan, &self.views));
            debug_assert!(
                errors.is_empty(),
                "planner produced an unsound plan for {q:?}: {errors:?}"
            );
        }
        plan
    }

    fn plan_unverified(&self, q: &Pattern) -> QueryPlan {
        let zero_stats = GraphStats {
            nodes: 0,
            edges: 0,
            avg_out_degree: 0.0,
            max_out_degree: 0,
            max_in_degree: 0,
            labels: 0,
            alpha: 0.0,
        };
        let gstats = self.graph_stats.clone().unwrap_or(zero_stats);

        if q.edge_count() == 0 {
            return QueryPlan::Direct {
                reason: FallbackReason::NoEdges,
                cost: CostModel::direct(q, &gstats),
            };
        }
        if self.views.card() == 0 {
            return QueryPlan::Direct {
                reason: FallbackReason::NoViews,
                cost: CostModel::direct(q, &gstats),
            };
        }

        // One view-match sweep serves containment, partial coverage, and
        // both selection algorithms (they share the table instead of each
        // re-simulating every view against the query).
        let table = ViewMatchTable::build(q, &self.views);
        match table.contain() {
            Some(full) => {
                let chosen = self.select(q, full, &table);
                let sources = self.sources(&chosen.plan.lambda);
                QueryPlan::ViewsOnly(ViewPlan {
                    reads: view_reads(&chosen.views, &sources),
                    sources,
                    ..chosen
                })
            }
            None => {
                let partial = PartialPlan::from_lambda(table.full_lambda());
                let direct_cost = CostModel::direct(q, &gstats);
                if partial.uncovered.len() == q.edge_count() {
                    return QueryPlan::Direct {
                        reason: FallbackReason::NotContained,
                        cost: direct_cost,
                    };
                }
                let view_pairs = CostModel::pairs_read(&partial.lambda, &self.ext);
                let cost = CostModel::hybrid_plan(q, view_pairs, partial.uncovered.len(), &gstats);
                // With known graph stats, take the direct baseline when the
                // covered extensions are so bloated that the hybrid plan
                // costs more than just scanning G (unknown stats keep the
                // views-preferred default).
                if self.graph_stats.is_some() && direct_cost.total < cost.total {
                    QueryPlan::Direct {
                        reason: FallbackReason::NotContained,
                        cost: direct_cost,
                    }
                } else {
                    let sources = self.sources(&partial.lambda);
                    QueryPlan::Hybrid {
                        reads: view_reads(&[], &sources),
                        sources,
                        partial,
                        reason: FallbackReason::NotContained,
                        cost,
                    }
                }
            }
        }
    }

    /// Costs the `all` / `minimal` / `minimum` selections and returns the
    /// candidate with the cheapest *execution* estimate (the selection
    /// algorithms have already run by comparison time, so their planning
    /// premium is recorded in [`CostEstimate::planning`] rather than
    /// charged to the choice). Ties break toward fewer views. A pinned
    /// [`EngineConfig::force_selection`] computes only the forced candidate
    /// (falling back to the full `all` λ when the pinned algorithm cannot
    /// apply — it always can when containment holds).
    fn select(&self, q: &Pattern, full: ContainmentPlan, table: &ViewMatchTable) -> ViewPlan {
        let (selection, sel, cost) = choose_selection(
            self.config.force_selection,
            full,
            || minimal_from_table(table),
            || minimum_from_table(table),
            |plan| CostModel::view_plan(q, plan, &self.ext),
            CostModel::selection_overhead(q, self.views.card()),
        );
        // `sources` and `reads` are placeholders here: `plan` resolves the
        // per-edge sourcing for the winning candidate only.
        ViewPlan {
            selection,
            views: sel.views,
            plan: sel.plan,
            sources: Vec::new(),
            reads: Vec::new(),
            exec: SEQUENTIAL,
            cost,
        }
    }

    /// **Execute**: runs a previously-produced plan, honoring its per-edge
    /// [`EdgeSource`]s verbatim (the join reads exactly what the planner
    /// pinned). `g` is required for hybrid/direct plans
    /// ([`QueryPlan::needs_graph`]) and must be the graph this registry was
    /// materialized against — extensions from one graph say nothing about
    /// another (use [`Self::validate_graph`] when in doubt; debug builds
    /// assert it).
    pub fn execute(
        &self,
        q: &Pattern,
        plan: &QueryPlan,
        g: Option<&DataGraph>,
    ) -> Result<(MatchResult, JoinStats), EngineError> {
        if let Some(g) = g {
            debug_assert!(
                self.validate_graph(g).is_ok(),
                "QueryEngine::execute called with a different graph than the \
                 view registry was materialized against"
            );
        }
        Ok(match plan {
            QueryPlan::ViewsOnly(vp) => {
                let merged = merged_from_sources(q, &vp.sources, &self.ext, None)?;
                run_fixpoint(q, merged, vp.exec.join())
            }
            QueryPlan::Hybrid { sources, .. } => {
                let g = g.ok_or(EngineError::NeedsGraph)?;
                let merged = merged_from_sources(q, sources, &self.ext, Some(g))?;
                run_fixpoint(q, merged, JoinStrategy::RankedBottomUp)
            }
            QueryPlan::Direct { .. } => {
                let g = g.ok_or(EngineError::NeedsGraph)?;
                (match_pattern(q, g), JoinStats::default())
            }
        })
    }

    /// Plans and executes `q`, allowing graph fallback: equals
    /// `match_pattern(q, g)` on every input (the engine-level Theorem 1
    /// contract, asserted by `tests/engine.rs`). Precondition: `g` is the
    /// graph this registry was materialized against — the contract cannot
    /// hold for a registry built on a different graph (checked by
    /// `debug_assert`; use [`Self::validate_graph`] to check at runtime).
    pub fn answer(&self, q: &Pattern, g: &DataGraph) -> Result<MatchResult, EngineError> {
        let plan = self.plan(q);
        self.execute(q, &plan, Some(g)).map(|(r, _)| r)
    }

    /// Plans and executes `q` strictly from the materialized views — no
    /// graph access anywhere (Theorem 1's headline capability). Errors with
    /// [`EngineError::NotContained`] when `Qs ⋢ V`.
    pub fn answer_from_views(&self, q: &Pattern) -> Result<MatchResult, EngineError> {
        let plan = self.plan(q);
        if plan.needs_graph() {
            return Err(EngineError::NotContained);
        }
        self.execute(q, &plan, None).map(|(r, _)| r)
    }

    /// Plans a bounded query against the bounded-view registry. Same shape
    /// as `Self::select`: `all` / `minimal` / `minimum` costed by pairs
    /// read (plus the selection premium), cheapest wins, pinned mode
    /// computes only the pinned candidate.
    pub fn plan_bounded(&self, qb: &BoundedPattern) -> Result<BoundedPlan, EngineError> {
        let (views, ext) = self.bounded.as_ref().ok_or(EngineError::NoBoundedViews)?;
        // As in `plan`: one view-match table, here over bounded view
        // matches, shared by containment and both selection algorithms.
        let table = bounded_table(qb, views);
        let full = table.contain().ok_or(EngineError::BoundedNotContained)?;

        let (selection, sel, cost) = choose_selection(
            self.config.force_selection,
            full,
            || minimal_from_table(&table),
            || minimum_from_table(&table),
            |plan| {
                let pairs = CostModel::pairs_read_bounded(&plan.lambda, ext);
                CostEstimate {
                    pairs_read: pairs,
                    total: CostModel::join_exec_cost(qb.pattern().edge_count(), pairs),
                    ..CostEstimate::default()
                }
            },
            CostModel::selection_overhead(qb.pattern(), views.card()),
        );
        // The bounded merge reads each edge's smallest covering extension:
        // exactly the pairs the estimate counted.
        Ok(BoundedPlan {
            selection,
            views: sel.views,
            plan: sel.plan,
            exec: SEQUENTIAL,
            cost,
        })
    }

    /// Plans and executes a bounded query from bounded views only
    /// (Theorem 8 path).
    pub fn answer_bounded(&self, qb: &BoundedPattern) -> Result<BoundedMatchResult, EngineError> {
        let plan = self.plan_bounded(qb)?;
        let (_, ext) = self.bounded.as_ref().expect("plan_bounded checked");
        let (r, _) = crate::bmatchjoin::bmatch_join_with(qb, &plan.plan, ext, plan.exec.join())?;
        Ok(r)
    }

    /// Human-readable EXPLAIN of the plan for `q`.
    pub fn explain(&self, q: &Pattern) -> String {
        self.plan(q).to_string()
    }
}

/// The `all` / `minimal` / `minimum` choice shared by plain and bounded
/// planning. Each candidate is priced by `cost`; the selection algorithms
/// have already run by comparison time, so their planning premium is
/// recorded in [`CostEstimate::planning`] rather than charged to the
/// choice. The cheapest execution estimate wins, ties break toward fewer
/// views. A pinned mode computes only its own candidate, falling back to
/// the full `all` λ when the pinned algorithm cannot apply (it always can
/// when containment holds).
fn choose_selection(
    forced: Option<SelectionMode>,
    full: ContainmentPlan,
    minimal: impl FnOnce() -> Option<Selection>,
    minimum: impl FnOnce() -> Option<Selection>,
    cost: impl Fn(&ContainmentPlan) -> CostEstimate,
    premium: f64,
) -> (SelectionMode, Selection, CostEstimate) {
    let priced = |selection: SelectionMode, sel: Selection| {
        let mut c = cost(&sel.plan);
        c.planning = premium;
        (selection, sel, c)
    };
    let all = || {
        let c = cost(&full);
        let sel = Selection {
            views: full.used_views.clone(),
            plan: full,
        };
        (SelectionMode::All, sel, c)
    };
    match forced {
        Some(SelectionMode::All) => all(),
        Some(SelectionMode::Minimal) => {
            minimal().map_or_else(all, |s| priced(SelectionMode::Minimal, s))
        }
        Some(SelectionMode::Minimum) => {
            minimum().map_or_else(all, |s| priced(SelectionMode::Minimum, s))
        }
        None => {
            let mut candidates = Vec::with_capacity(3);
            if let Some(sel) = minimal() {
                candidates.push(priced(SelectionMode::Minimal, sel));
            }
            if let Some(sel) = minimum() {
                candidates.push(priced(SelectionMode::Minimum, sel));
            }
            candidates.push(all());
            candidates
                .into_iter()
                .min_by(|(_, a, ca), (_, b, cb)| {
                    ca.total
                        .partial_cmp(&cb.total)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.views.len().cmp(&b.views.len()))
                })
                .expect("at least the `all` candidate exists")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    fn single(x: &str, y: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        b.build().unwrap()
    }

    fn chain3() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        b.build().unwrap()
    }

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(a2, b2);
        b.build()
    }

    #[test]
    fn views_only_plan_and_answer() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        assert!(
            !plan.needs_graph(),
            "contained query must not need G: {plan}"
        );
        let via_engine = engine.answer_from_views(&q).unwrap();
        assert_eq!(via_engine, match_pattern(&q, &g));
        assert_eq!(engine.answer(&q, &g).unwrap(), via_engine);
    }

    #[test]
    fn hybrid_fallback_when_partially_covered() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        assert!(matches!(plan, QueryPlan::Hybrid { .. }), "{plan}");
        assert!(engine.answer_from_views(&q).is_err());
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn direct_fallback_when_nothing_covers() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![ViewDef::new("vxy", single("X", "Y"))]);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        assert!(matches!(plan, QueryPlan::Direct { .. }), "{plan}");
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn no_views_plans_direct() {
        let g = graph();
        let q = chain3();
        let engine = QueryEngine::materialize(ViewSet::default(), &g);
        let plan = engine.plan(&q);
        assert!(matches!(
            plan,
            QueryPlan::Direct {
                reason: FallbackReason::NoViews,
                ..
            }
        ));
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn selection_prefers_smaller_read() {
        // One bloated view covers everything; two tight views cover the
        // same edges with smaller extensions. The planner must not pick a
        // selection that reads more pairs than the cheapest one.
        let mut b = GraphBuilder::new();
        let mut last = b.add_node(["A"]);
        for _ in 0..30 {
            let m = b.add_node(["B"]);
            b.add_edge(last, m);
            let c = b.add_node(["C"]);
            b.add_edge(m, c);
            last = b.add_node(["A"]);
        }
        let g = b.build();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vall", chain3()),
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let QueryPlan::ViewsOnly(vp) = engine.plan(&q) else {
            panic!("contained");
        };
        // Whatever mode won, its pairs_read is the minimum of the three.
        let full = crate::containment::contain(&q, engine.views()).unwrap();
        let all_pairs = CostModel::pairs_read(&full.lambda, engine.extensions());
        assert!(vp.cost.pairs_read <= all_pairs);
        assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    #[test]
    fn add_view_rejects_other_graph() {
        let g = graph();
        let mut engine = QueryEngine::materialize(ViewSet::default(), &g);
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let other = b.build();
        assert!(matches!(
            engine.add_view(ViewDef::new("v", single("X", "Y")), &other),
            Err(EngineError::GraphMismatch { .. })
        ));
        assert!(engine
            .add_view(ViewDef::new("vab", single("A", "B")), &g)
            .is_ok());
        assert_eq!(engine.views().card(), 1);
        assert_eq!(engine.extensions().extensions.len(), 1);
    }

    #[test]
    fn bounded_planning_and_answer() {
        use crate::bview::BoundedViewDef;
        use gpv_matching::bounded::bmatch_pattern;
        let g = graph();
        let mk = |x: &str, y: &str, k: u32| {
            let mut b = PatternBuilder::new();
            let u = b.node_labeled(x);
            let v = b.node_labeled(y);
            b.edge_bounded(u, v, k);
            b.build_bounded().unwrap()
        };
        let qb = mk("A", "C", 2);
        let views = BoundedViewSet::new(vec![BoundedViewDef::new("vac", mk("A", "C", 2))]);
        let engine = QueryEngine::materialize(ViewSet::default(), &g).with_bounded_views(views, &g);
        let r = engine.answer_bounded(&qb).unwrap();
        assert_eq!(r, bmatch_pattern(&qb, &g));
    }

    #[test]
    fn explain_mentions_stages() {
        let g = graph();
        let q = chain3();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let engine = QueryEngine::materialize(views, &g);
        let text = engine.explain(&q);
        assert!(text.contains("views-only"), "{text}");
        assert!(text.contains("select"), "{text}");
    }
}
