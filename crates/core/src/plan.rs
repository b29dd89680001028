//! The query-plan IR produced by [`crate::engine::QueryEngine::plan`].
//!
//! A plan records the three planner stages explicitly, so callers can
//! inspect (and log, serialize, or replay) exactly which of the paper's
//! algorithms the engine chose and why:
//!
//! 1. **Analyze** — is `Qs ⊑ V` (Theorem 1)? Fully, partially, or not at
//!    all;
//! 2. **Select** — which view subset feeds the join: the full λ from
//!    [`contain`](crate::containment::contain), the irreducible subset from
//!    [`minimal`](crate::minimal::minimal), or the greedy set-cover subset
//!    from [`minimum`](crate::minimum::minimum), chosen by the
//!    [`CostModel`](crate::cost::CostModel) — plus, per query edge, its
//!    **source** ([`EdgeSource`]): a covered edge reads its smallest
//!    covering extension, an uncovered edge scans `G` surgically;
//! 3. **Execute** — `MatchJoin`, hybrid join, or direct `Match`
//!    fallback. The merge honors the per-edge sources verbatim, so EXPLAIN
//!    shows exactly what will run.

use crate::containment::{ContainmentPlan, ViewEdgeRef};
use crate::cost::CostEstimate;
use crate::matchjoin::JoinStrategy;
use crate::partial::PartialPlan;
use serde::{Deserialize, Serialize};

/// Which view-selection algorithm produced the λ a plan executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionMode {
    /// Every covering view (the raw `contain` λ).
    All,
    /// The irreducible subset from `minimal` (Fig. 5).
    Minimal,
    /// The greedy minimum-cardinality subset from `minimum` (Section V-C).
    Minimum,
}

impl std::fmt::Display for SelectionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SelectionMode::All => "all",
            SelectionMode::Minimal => "minimal",
            SelectionMode::Minimum => "minimum",
        })
    }
}

/// Where the merge step reads one query edge's initial match set from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeSource {
    /// Read the materialized extension of this view edge (the smallest
    /// covering one; pinned here so the executor reads exactly what the
    /// planner priced).
    View(ViewEdgeRef),
    /// Scan the data graph surgically for this edge's candidate pairs.
    Graph,
}

impl std::fmt::Display for EdgeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeSource::View(r) => write!(f, "view {} edge {}", r.view, r.edge.index()),
            EdgeSource::Graph => f.write_str("graph scan"),
        }
    }
}

/// Renders a source vector as one compact EXPLAIN line fragment, e.g.
/// `e0<-V0.e0 e1<-G`.
pub(crate) fn fmt_sources(sources: &[EdgeSource]) -> String {
    sources
        .iter()
        .enumerate()
        .map(|(ei, s)| match s {
            EdgeSource::View(r) => format!("e{ei}<-V{}.e{}", r.view, r.edge.index()),
            EdgeSource::Graph => format!("e{ei}<-G"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// How the serving layer satisfied one query — the per-query cache
/// disposition surfaced in EXPLAIN output and the `gpv serve` report.
/// Ordered from cheapest to most expensive path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheDisposition {
    /// The answer was fanned out from an identical query earlier in the
    /// same batch (no cache probe, no planning, no execution).
    Deduplicated,
    /// The answer came from the cross-batch result cache (no planning, no
    /// execution).
    ResultCache,
    /// The plan came from the plan cache; only execution ran.
    PlanCache,
    /// Planned and executed from scratch.
    Planned,
}

impl std::fmt::Display for CacheDisposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheDisposition::Deduplicated => "deduped",
            CacheDisposition::ResultCache => "result cached",
            CacheDisposition::PlanCache => "plan cached",
            CacheDisposition::Planned => "planned",
        })
    }
}

/// How the join executes. The planner always emits
/// `Sequential(JoinStrategy::RankedBottomUp)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecStrategy {
    /// Single-threaded, with the given worklist discipline.
    Sequential(JoinStrategy),
    /// Runs as `Sequential(JoinStrategy::RankedBottomUp)`; the planner
    /// never produces it. Exists only for perfbench; goes with ROADMAP's
    /// "Pending benchmark change".
    Parallel {
        /// Ignored.
        threads: usize,
    },
}

impl ExecStrategy {
    /// The worklist discipline this executes as.
    pub(crate) fn join(self) -> JoinStrategy {
        match self {
            ExecStrategy::Sequential(s) => s,
            ExecStrategy::Parallel { .. } => JoinStrategy::RankedBottomUp,
        }
    }
}

impl std::fmt::Display for ExecStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sequential({:?})", self.join())
    }
}

/// A fully-resolved view-only plan (`Qs ⊑ V`; no graph access at execution).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ViewPlan {
    /// Which selection algorithm chose the views.
    pub selection: SelectionMode,
    /// The selected view indices (ascending).
    pub views: Vec<usize>,
    /// The λ the executor consumes.
    pub plan: ContainmentPlan,
    /// Per-edge merge source (all [`EdgeSource::View`] here — the pinned
    /// smallest covering extension per edge).
    pub sources: Vec<EdgeSource>,
    /// Every view position the plan reads — `views` plus any view a merge
    /// source pins — ascending and deduplicated, computed once when the
    /// plan is built ([`QueryPlan::view_indices`]).
    pub reads: Vec<usize>,
    /// Join execution strategy.
    pub exec: ExecStrategy,
    /// The planner's estimate for this plan.
    pub cost: CostEstimate,
}

/// Why the planner fell back to a graph-reading plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackReason {
    /// `Qs ⋢ V`: no view set covers every query edge.
    NotContained,
    /// The engine holds no views at all.
    NoViews,
    /// The query has no edges; `MatchJoin` is defined via edge match sets,
    /// so node-only queries evaluate directly.
    NoEdges,
}

/// The planner's decision for one query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum QueryPlan {
    /// Answer from materialized views only (Theorem 1 path).
    ViewsOnly(ViewPlan),
    /// Mixed sourcing under partial coverage (the [`crate::partial`]
    /// hybrid): covered edges read views, uncovered edges scan `G`.
    Hybrid {
        /// The maximal-coverage λ with its uncovered edges.
        partial: PartialPlan,
        /// Per-edge merge source (what the executor honors).
        sources: Vec<EdgeSource>,
        /// The view positions the view-sourced edges read, ascending and
        /// deduplicated, computed once when the plan is built.
        reads: Vec<usize>,
        /// Why views alone were insufficient.
        reason: FallbackReason,
        /// The planner's estimate for this plan.
        cost: CostEstimate,
    },
    /// Evaluate `Match(Qs, G)` directly (no usable view coverage).
    Direct {
        /// Why views alone were insufficient.
        reason: FallbackReason,
        /// The planner's estimate for this plan.
        cost: CostEstimate,
    },
}

impl QueryPlan {
    /// Whether execution needs access to the data graph — `false` exactly
    /// for the Theorem-1 views-only path.
    ///
    /// ```
    /// use gpv_core::cost::CostEstimate;
    /// use gpv_core::plan::{FallbackReason, QueryPlan};
    /// let direct = QueryPlan::Direct {
    ///     reason: FallbackReason::NoViews,
    ///     cost: CostEstimate::default(),
    /// };
    /// assert!(direct.needs_graph());
    /// ```
    pub fn needs_graph(&self) -> bool {
        !matches!(self, QueryPlan::ViewsOnly(_))
    }

    /// The planner's cost estimate.
    pub fn cost(&self) -> &CostEstimate {
        match self {
            QueryPlan::ViewsOnly(vp) => &vp.cost,
            QueryPlan::Hybrid { cost, .. } => cost,
            QueryPlan::Direct { cost, .. } => cost,
        }
    }

    /// The per-edge merge sources, when the plan has a merge step
    /// (`None` for direct plans, which bypass `MatchJoin` entirely).
    pub fn sources(&self) -> Option<&[EdgeSource]> {
        match self {
            QueryPlan::ViewsOnly(vp) => Some(&vp.sources),
            QueryPlan::Hybrid { sources, .. } => Some(sources),
            QueryPlan::Direct { .. } => None,
        }
    }

    /// The positional indices of every view this plan reads, ascending and
    /// deduplicated — the footprint the epoch-keyed result cache stamps an
    /// answer with. Views-only plans contribute their whole selected set
    /// (the λ may consult any of them during refinement); hybrids
    /// contribute the view-sourced edges; direct plans read no views.
    /// Computed once when the plan is built, so reading it allocates
    /// nothing.
    pub fn view_indices(&self) -> &[usize] {
        match self {
            QueryPlan::ViewsOnly(vp) => &vp.reads,
            QueryPlan::Hybrid { reads, .. } => reads,
            QueryPlan::Direct { .. } => &[],
        }
    }
}

/// The view positions a plan with these `selected` views and merge
/// `sources` reads: their union, ascending and deduplicated. The planner
/// stores it in the plan ([`ViewPlan::reads`], `QueryPlan::Hybrid::reads`).
pub(crate) fn view_reads(selected: &[usize], sources: &[EdgeSource]) -> Vec<usize> {
    let mut ids: Vec<usize> = selected
        .iter()
        .copied()
        .chain(sources.iter().filter_map(|s| match s {
            EdgeSource::View(r) => Some(r.view),
            EdgeSource::Graph => None,
        }))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryPlan::ViewsOnly(vp) => {
                writeln!(f, "Plan: views-only MatchJoin (Qs ⊑ V)")?;
                writeln!(f, "  select : {} -> views {:?}", vp.selection, vp.views)?;
                writeln!(f, "  sources: {}", fmt_sources(&vp.sources))?;
                writeln!(f, "  execute: {}", vp.exec)?;
                write!(
                    f,
                    "  cost   : {:.0} ({} pairs read, 0 graph edges)",
                    vp.cost.total, vp.cost.pairs_read
                )?;
                if vp.cost.planning > 0.0 {
                    write!(f, " + {:.0} planning", vp.cost.planning)?;
                }
                Ok(())
            }
            QueryPlan::Hybrid {
                sources,
                reason,
                cost,
                ..
            } => {
                let from_views = sources
                    .iter()
                    .filter(|s| matches!(s, EdgeSource::View(_)))
                    .count();
                let from_graph = sources.len() - from_views;
                writeln!(
                    f,
                    "Plan: hybrid join ({from_views} view-sourced, {from_graph} graph-sourced edges; {reason:?})"
                )?;
                writeln!(f, "  sources: {}", fmt_sources(sources))?;
                write!(
                    f,
                    "  cost   : {:.0} ({} pairs read, {} graph edges scanned)",
                    cost.total, cost.pairs_read, cost.graph_edges_scanned
                )
            }
            QueryPlan::Direct { reason, cost } => {
                writeln!(f, "Plan: direct Match on G ({reason:?})")?;
                write!(
                    f,
                    "  cost   : {:.0} ({} graph edges scanned)",
                    cost.total, cost.graph_edges_scanned
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// EXPLAIN must name the chosen worklist discipline — the `execute:`
    /// line is how `gpv plan` / `gpv serve --explain` surface it.
    #[test]
    fn exec_strategy_display_names_the_discipline() {
        assert_eq!(
            ExecStrategy::Sequential(JoinStrategy::RankedBottomUp).to_string(),
            "sequential(RankedBottomUp)"
        );
    }
}
