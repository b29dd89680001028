//! The planner's cost model ([`crate::engine::QueryEngine`]).
//!
//! Theorem 1 prices `MatchJoin` at `O(|Qs||V(G)| + |V(G)|²)` and direct
//! evaluation at `O(|Qs|² + |Qs||G| + |G|²)` — both dominated by how many
//! match pairs the executor reads and refines. The planner therefore costs
//! every candidate plan by its *pairs read*: the sum over query edges of
//! the smallest covering extension (mirroring the witness-narrowing merge in
//! `matchjoin::merge_step`), or `|G|`-proportional terms for plans
//! that must scan the graph.
//!
//! The model is **fixed**. Its weights are constants in units of one
//! materialized pair read ([`CostModel::READ_PAIR`]), so an estimate's
//! `pairs_read` is a count the executor reproduces exactly
//! ([`JoinStats::merged_pairs`](crate::matchjoin::JoinStats::merged_pairs)
//! for views-only plans), not a guess at microseconds.

use crate::bview::BoundedViewExtensions;
use crate::containment::{ContainmentPlan, ViewEdgeRef};
use crate::view::ViewExtensions;
use gpv_graph::stats::GraphStats;
use gpv_pattern::Pattern;
use serde::{Deserialize, Serialize};

/// The one cost model: relative weights in units of one pair read. The
/// constants make view-only plans strongly preferred over graph scans (the
/// whole point of the paper) and charge a premium for planning-time view
/// selection. Only comparisons between candidate plans matter, and
/// [`Self::SCAN_EDGE`] > [`Self::READ_PAIR`] keeps every covered edge on its
/// view: an extension holds at most `|E(G)|` pairs, so no scan undercuts it.
#[derive(Clone, Copy, Debug)]
pub struct CostModel;

/// A costed estimate for one candidate plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Materialized pairs the merge step would read.
    pub pairs_read: u64,
    /// Graph edges a hybrid/direct plan would scan (0 for view-only plans).
    pub graph_edges_scanned: u64,
    /// Planning-time work already spent producing this candidate (e.g. the
    /// `minimal`/`minimum` view-match sweeps). Informational: by the time
    /// candidates are compared this is a sunk cost, so it is *not* part of
    /// [`total`](CostEstimate::total).
    pub planning: f64,
    /// Total relative *execution* cost (lower wins).
    pub total: f64,
}

/// Per-edge minimum over a λ: the smallest covering extension, which is
/// exactly what the witness-narrowing merge reads. `None` when some entry
/// is empty (an uncovered edge) — a λ with holes prices *nothing*, it needs
/// hybrid pricing. One definition shared by the plain, partial, and bounded
/// planners.
fn min_cover_pairs(
    lambda: &[Vec<ViewEdgeRef>],
    size_of: impl Fn(&ViewEdgeRef) -> u64,
) -> Option<u64> {
    lambda
        .iter()
        .map(|entries| entries.iter().map(&size_of).min())
        .sum()
}

/// Like [`min_cover_pairs`] but counting empty (uncovered) entries as zero
/// — the *covered-pairs* aggregation for partial λs, shared by the plain
/// and bounded pricers (hybrid pricing charges the uncovered edges
/// separately as graph scans).
fn covered_pairs(lambda: &[Vec<ViewEdgeRef>], size_of: impl Fn(&ViewEdgeRef) -> u64) -> u64 {
    lambda
        .iter()
        .map(|entries| entries.iter().map(&size_of).min().unwrap_or(0))
        .sum()
}

impl CostModel {
    /// Reading one materialized pair during the merge step: the unit every
    /// other weight is expressed in.
    pub const READ_PAIR: f64 = 1.0;
    /// Refining one merged pair in the fixpoint (scaled by `√|Eq|`).
    pub const REFINE_PAIR: f64 = 1.0;
    /// Scanning one graph edge (hybrid/direct plans).
    pub const SCAN_EDGE: f64 = 4.0;
    /// Planning cost of one view-match simulation, per view per query edge
    /// pair.
    pub const CONTAINMENT_UNIT: f64 = 0.25;

    /// Pairs the witness-narrowing merge reads for the *covered* edges of a
    /// λ (a full [`ContainmentPlan::lambda`] or a partial one): empty
    /// entries contribute zero here because hybrid pricing charges them as
    /// graph scans separately. Do **not** feed the result to view-only
    /// pricing — [`Self::view_plan`] rejects partial λs for that reason.
    pub fn pairs_read(lambda: &[Vec<ViewEdgeRef>], ext: &ViewExtensions) -> u64 {
        covered_pairs(lambda, |r| ext.edge_set(r.view, r.edge).len() as u64)
    }

    /// Bounded analogue of [`Self::pairs_read`] over `I(V)`-carrying
    /// extensions.
    pub fn pairs_read_bounded(lambda: &[Vec<ViewEdgeRef>], ext: &BoundedViewExtensions) -> u64 {
        covered_pairs(lambda, |r| ext.edge_set(r.view, r.edge).len() as u64)
    }

    /// Execution cost of a (B)MatchJoin reading `pairs` pairs for a query
    /// with `edge_count` edges: merge reads each pair once; the fixpoint
    /// refines the merged working set, with the `|Qs|` factor from per-edge
    /// propagation.
    pub fn join_exec_cost(edge_count: usize, pairs: u64) -> f64 {
        Self::READ_PAIR * pairs as f64
            + Self::REFINE_PAIR * pairs as f64 * (edge_count as f64).sqrt()
    }

    /// Cost of executing a view-only `MatchJoin` under `plan`. A λ with an
    /// uncovered (empty) entry cannot be executed from views alone, so it is
    /// priced infinite — it must never beat a correctly-priced hybrid or
    /// direct plan (regression: `unwrap_or(0)` used to price uncovered
    /// edges as *free* here).
    pub fn view_plan(q: &Pattern, plan: &ContainmentPlan, ext: &ViewExtensions) -> CostEstimate {
        match min_cover_pairs(&plan.lambda, |r| ext.edge_set(r.view, r.edge).len() as u64) {
            Some(pairs) => CostEstimate {
                pairs_read: pairs,
                total: Self::join_exec_cost(q.edge_count(), pairs),
                ..CostEstimate::default()
            },
            None => CostEstimate {
                total: f64::INFINITY,
                ..CostEstimate::default()
            },
        }
    }

    /// Cost of a hybrid plan: `covered_pairs` read from views, `uncovered_edges`
    /// query edges scanned surgically from `G` (~`|E(G)|` each in the worst
    /// case).
    pub fn hybrid_plan(
        q: &Pattern,
        covered_pairs: u64,
        uncovered_edges: usize,
        g: &GraphStats,
    ) -> CostEstimate {
        let scanned = uncovered_edges as u64 * g.edges as u64;
        let working = covered_pairs + scanned;
        let total = Self::READ_PAIR * covered_pairs as f64
            + Self::SCAN_EDGE * scanned as f64
            + Self::REFINE_PAIR * working as f64 * (q.edge_count() as f64).sqrt();
        CostEstimate {
            pairs_read: covered_pairs,
            graph_edges_scanned: scanned,
            planning: 0.0,
            total,
        }
    }

    /// Cost of evaluating `Qs` directly on `G` (the `Match` baseline).
    pub fn direct(q: &Pattern, g: &GraphStats) -> CostEstimate {
        let scanned = q.edge_count() as u64 * g.edges as u64;
        CostEstimate {
            graph_edges_scanned: scanned,
            total: Self::SCAN_EDGE * scanned as f64,
            ..CostEstimate::default()
        }
    }

    /// Planning cost of running view selection (`minimal` / `minimum`):
    /// one view-match simulation per view, each ~`|Qs|²` work. Recorded in
    /// [`CostEstimate::planning`] for EXPLAIN output; it is a sunk cost by
    /// comparison time, so candidates still compete on execution cost.
    pub fn selection_overhead(q: &Pattern, view_count: usize) -> f64 {
        let qsq = (q.edge_count() * q.edge_count()) as f64;
        Self::CONTAINMENT_UNIT * view_count as f64 * qsq
    }
}

// A scan never undercuts a read: an extension holds at most `|E(G)|`
// pairs, so with these constants no covered edge is worth sourcing from
// `G`, and only uncovered edges scan it.
const _: () = assert!(CostModel::SCAN_EDGE > CostModel::READ_PAIR);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
    use crate::view::{materialize, ViewDef, ViewSet};
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    fn chain(labels: &[&str]) -> Pattern {
        let mut b = PatternBuilder::new();
        let ids: Vec<_> = labels.iter().map(|l| b.node_labeled(l)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    fn some_stats() -> GraphStats {
        GraphStats {
            nodes: 100_000,
            edges: 400_000,
            avg_out_degree: 4.0,
            max_out_degree: 50,
            max_in_degree: 50,
            labels: 10,
            alpha: 1.1,
        }
    }

    #[test]
    fn pairs_read_matches_merge_choice() {
        // Two views cover the same edge with different extension sizes; the
        // cost model must count only the smaller one (as merge_step reads).
        let mut gb = GraphBuilder::new();
        let a1 = gb.add_node(["A"]);
        let b1 = gb.add_node(["B"]);
        let a2 = gb.add_node(["A"]);
        let b2 = gb.add_node(["B"]);
        gb.add_edge(a1, b1);
        gb.add_edge(a2, b2);
        gb.add_edge(a1, b2);
        let g = gb.build();

        let q = chain(&["A", "B"]);
        let views = ViewSet::new(vec![
            ViewDef::new("vab", chain(&["A", "B"])),
            ViewDef::new("vab2", chain(&["A", "B"])),
        ]);
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let pairs = CostModel::pairs_read(&plan.lambda, &ext);
        // Both views have the same extension here; the min is one of them.
        assert_eq!(
            pairs,
            ext.edge_set(0, gpv_pattern::PatternEdgeId(0)).len() as u64
        );
    }

    #[test]
    fn view_plans_beat_direct_on_small_extensions() {
        let q = chain(&["A", "B", "C"]);
        let direct = CostModel::direct(&q, &some_stats());
        // A view plan reading 10k pairs must be far cheaper.
        assert!(direct.total > CostModel::READ_PAIR * 10_000.0 * 10.0);
    }

    /// Regression for the `unwrap_or(0)` bug: a partial λ (some entry
    /// empty) fed to the view-only pricer used to price uncovered edges as
    /// *free*, letting a bogus views-only estimate beat a correctly-priced
    /// hybrid (the Direct-vs-Hybrid tie-break then flipped). The view-only
    /// pricer must reject such plans outright.
    #[test]
    fn view_plan_rejects_partial_lambda() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_node(["A"]);
        let b = gb.add_node(["B"]);
        let c = gb.add_node(["C"]);
        gb.add_edge(a, b);
        gb.add_edge(b, c);
        let g = gb.build();
        let q = chain(&["A", "B", "C"]);
        let views = ViewSet::new(vec![ViewDef::new("vab", chain(&["A", "B"]))]);
        let ext = materialize(&views, &g);

        // A hand-built "plan" whose second entry is uncovered.
        let partial = crate::partial::partial_contain(&q, &views);
        assert!(!partial.is_total());
        let broken = ContainmentPlan {
            lambda: partial.lambda.clone(),
            used_views: vec![0],
        };
        let bogus = CostModel::view_plan(&q, &broken, &ext);
        assert!(
            bogus.total.is_infinite(),
            "partial λ must never price as a views-only plan: {bogus:?}"
        );
        // The tie-break pin: the correctly-priced hybrid and direct plans
        // both beat the rejected views-only estimate.
        let stats = gpv_graph::stats::stats(&g);
        let covered = CostModel::pairs_read(&partial.lambda, &ext);
        let hybrid = CostModel::hybrid_plan(&q, covered, partial.uncovered.len(), &stats);
        let direct = CostModel::direct(&q, &stats);
        assert!(hybrid.total < bogus.total);
        assert!(direct.total < bogus.total);
    }
}
