//! Differential checking: every execution path vs the naive oracle.
//!
//! The paper's contract (Theorem 1 / Theorem 8) is that answering from
//! views is *indistinguishable* from `match_pattern(q, g)` — for every
//! graph, every covering view set, and every executor configuration. This
//! module turns that contract into a runtime check: a [`DifferentialCase`]
//! bundles one concrete workload (graph, views, queries, a round schedule
//! with store mutations) plus the engine/service configuration under test,
//! and [`check_plain`] / [`check_bounded`] assert **bit-exact** agreement
//! between every answer the planner-driven paths produce and a boxed
//! oracle (normally `gpv_matching::match_pattern`).
//!
//! Three properties make the oracle usable across a mutating serving run:
//!
//! * Theorem 1's corollary — adding views never changes answers, only how
//!   cheaply they can be produced. So one oracle answer per distinct query
//!   stays valid across every `ViewStore::insert` between rounds.
//! * Configuration only changes plan shape (selection mode, executor);
//!   by the contract every plan shape must produce the same match sets.
//! * Edge deltas ([`DifferentialCase::deltas`]) *do* change answers — so
//!   the checker tracks the evolving graph itself and drops every cached
//!   oracle answer when a delta lands, recomputing ground truth lazily
//!   against the current graph. Delta-maintained serving is thereby held
//!   to the same bit-exact standard as static serving: after any prefix of
//!   the update stream, every served answer must equal
//!   `match_pattern(q, current G)`.
//!
//! The scenario generator (`gpv-generator`'s `scenario` module) builds
//! `DifferentialCase` inputs from a one-line JSON descriptor; the `gpv
//! fuzz` subcommand drives sampled scenarios through these checks.

use crate::delta::EdgeDelta;
use crate::engine::{EngineConfig, QueryEngine};
use crate::plan::QueryPlan;
use crate::service::{ServiceConfig, ViewService};
use crate::store::ViewStore;
use crate::view::{ViewDef, ViewSet};
use gpv_graph::DataGraph;
use gpv_matching::{BoundedMatchResult, MatchResult};
use gpv_pattern::{BoundedPattern, Pattern};
use std::fmt;
use std::sync::Arc;

/// Ground-truth oracle for plain patterns. Boxed so test harnesses can
/// wrap the real `match_pattern` (e.g. the deliberate-corruption hook the
/// fuzz CLI uses to prove divergences are caught and reproducible).
pub type PlainOracle = Box<dyn Fn(&Pattern, &DataGraph) -> MatchResult>;

/// Ground-truth oracle for bounded patterns (normally `bmatch_pattern`).
pub type BoundedOracle = Box<dyn Fn(&BoundedPattern, &DataGraph) -> BoundedMatchResult>;

/// One concrete differential workload: the data, the serving schedule, and
/// the engine/service configuration every answer is produced under.
///
/// Rounds are indices into `queries` (repetition exercises the plan and
/// result caches); `updates[r]` is inserted into the store after round `r`
/// (exercising engine rebuilds and cache invalidation).
pub struct DifferentialCase<'a> {
    /// The data graph `G` every answer is checked against.
    pub graph: &'a DataGraph,
    /// The initial view set the store/engine materializes.
    pub views: &'a ViewSet,
    /// The distinct query pool.
    pub queries: &'a [Pattern],
    /// Per-round serve schedules: `rounds[r]` lists indices into `queries`.
    pub rounds: &'a [Vec<usize>],
    /// Views inserted into the store after each round (may be shorter than
    /// `rounds`; missing entries mean no mutation that round).
    pub updates: &'a [Vec<ViewDef>],
    /// Edge deltas applied to the store after each round — *after* that
    /// round's view inserts (may be shorter than `rounds`; missing or
    /// empty entries mean the graph does not move that round). Each delta
    /// routes through [`ViewService::apply_delta`], so the store's
    /// incremental maintenance, per-view epochs, snapshot publication and
    /// the service's footprint refresh of cached graph-reading answers are
    /// what the oracle comparison actually exercises.
    pub deltas: &'a [EdgeDelta],
    /// Store shard count.
    pub shards: usize,
    /// Engine configuration under test (selection mode).
    pub engine: EngineConfig,
    /// Service configuration under test (plan/result caches); its embedded
    /// engine config is what `serve_batch` uses.
    pub service: ServiceConfig,
}

/// Where and how an answer disagreed with the oracle.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which code path produced the wrong answer
    /// (`engine.answer`, `engine.answer_from_views`, `service.serve`, …).
    pub stage: &'static str,
    /// Serving round, for service-stage divergences.
    pub round: Option<usize>,
    /// Slot within the round's batch, for service-stage divergences.
    pub slot: Option<usize>,
    /// Index of the diverging query in the case's query pool.
    pub query: usize,
    /// Human-readable mismatch description (pair counts, error text).
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "divergence at {} (query #{}", self.stage, self.query)?;
        if let Some(r) = self.round {
            write!(f, ", round {r}")?;
        }
        if let Some(s) = self.slot {
            write!(f, ", slot {s}")?;
        }
        write!(f, "): {}", self.detail)
    }
}

/// Counters from a clean differential run (what was actually exercised).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Distinct plain queries checked against the oracle.
    pub queries: usize,
    /// Answers served through `ViewService::serve_batch` (incl. repeats).
    pub served: usize,
    /// Serving rounds executed.
    pub rounds: usize,
    /// Views inserted into the store between rounds.
    pub mutations: usize,
    /// Edge deltas applied to the store between rounds.
    pub edge_deltas: usize,
    /// Views the delta detector routed through incremental maintenance
    /// (summed over all applied deltas).
    pub views_maintained: usize,
    /// Bounded queries checked (0 unless [`check_bounded`] ran).
    pub bounded_queries: usize,
    /// Plans that answered from views alone.
    pub plans_views_only: usize,
    /// Mixed view/graph plans.
    pub plans_hybrid: usize,
    /// Direct `Match`-on-`G` plans.
    pub plans_direct: usize,
    /// Plan-cache hits observed by the service.
    pub plan_cache_hits: u64,
    /// Result-cache hits observed by the service.
    pub result_cache_hits: u64,
    /// Result-cache hits for graph-reading plans served in the round right
    /// after a delta: answers the delta's footprint refresh kept warm.
    pub graph_hits_after_delta: u64,
}

impl DifferentialReport {
    /// Folds another report's counters into this one.
    pub fn absorb(&mut self, other: &DifferentialReport) {
        self.queries += other.queries;
        self.served += other.served;
        self.rounds += other.rounds;
        self.mutations += other.mutations;
        self.edge_deltas += other.edge_deltas;
        self.views_maintained += other.views_maintained;
        self.bounded_queries += other.bounded_queries;
        self.plans_views_only += other.plans_views_only;
        self.plans_hybrid += other.plans_hybrid;
        self.plans_direct += other.plans_direct;
        self.plan_cache_hits += other.plan_cache_hits;
        self.result_cache_hits += other.result_cache_hits;
        self.graph_hits_after_delta += other.graph_hits_after_delta;
    }
}

fn pairs(r: &MatchResult) -> usize {
    r.edge_matches.iter().map(|s| s.len()).sum()
}

fn bpairs(r: &BoundedMatchResult) -> usize {
    r.edge_matches.iter().map(|s| s.len()).sum()
}

fn mismatch(stage: &'static str, query: usize, got: usize, want: usize) -> Box<Divergence> {
    Box::new(Divergence {
        stage,
        round: None,
        slot: None,
        query,
        detail: format!("answered {got} match pairs, oracle says {want} (match sets differ)"),
    })
}

/// A static-verifier finding of error severity, reported through the same
/// [`Divergence`] channel as an oracle mismatch — the fuzz sweep is a
/// standing false-positive audit for the `GPV0xx` passes.
fn verify_divergence(
    stage: &'static str,
    round: Option<usize>,
    query: usize,
    errors: &[crate::verify::Diagnostic],
) -> Box<Divergence> {
    Box::new(Divergence {
        stage,
        round,
        slot: None,
        query,
        detail: errors
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("; "),
    })
}

/// Runs the plan verifier and query lints over one freshly-produced plan;
/// any error-severity diagnostic is a divergence.
#[allow(clippy::too_many_arguments)]
fn verify_one_plan(
    q: &Pattern,
    plan: &QueryPlan,
    views: &ViewSet,
    g: &DataGraph,
    snap: Option<&crate::store::StoreSnapshot>,
    stage: &'static str,
    round: Option<usize>,
    qi: usize,
) -> Result<(), Box<Divergence>> {
    let mut diags = crate::verify::verify_plan(q, plan, views);
    if let Some(snap) = snap {
        diags.extend(crate::verify::verify_plan_epochs(plan, snap));
    }
    diags.extend(crate::lint::lint_query(q, Some(g)));
    let errors = crate::verify::errors_only(diags);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(verify_divergence(stage, round, qi, &errors))
    }
}

/// Runs the snapshot integrity pass plus the snapshot-engine plan/epoch
/// verification over every pool query — called on the freshly materialized
/// store and again after every applied delta.
fn verify_store_state(
    case: &DifferentialCase<'_>,
    store: &ViewStore,
    current: &DataGraph,
    round: Option<usize>,
) -> Result<(), Box<Divergence>> {
    let snap = store.snapshot();
    let errors = crate::verify::errors_only(crate::verify::check_snapshot(&snap, Some(current)));
    if !errors.is_empty() {
        return Err(verify_divergence("verify.store", round, 0, &errors));
    }
    let views = snap.view_set();
    let engine = QueryEngine::from_snapshot(&snap).with_config(case.engine.clone());
    for (qi, q) in case.queries.iter().enumerate() {
        let plan = engine.plan(q);
        verify_one_plan(
            q,
            &plan,
            &views,
            current,
            Some(&snap),
            "verify.plan_epochs",
            round,
            qi,
        )?;
    }
    Ok(())
}

/// Runs one plain-pattern differential case end to end.
///
/// Phase 1 (engine): plans and answers every query through a fresh
/// [`QueryEngine`] under the case's [`EngineConfig`], comparing
/// `answer(q, g)` — and `answer_from_views(q)` whenever the plan can run
/// without the graph — against the oracle.
///
/// Phase 2 (service): materializes a [`ViewStore`], serves every round's
/// batch through [`ViewService::serve_batch`] under the case's
/// [`ServiceConfig`], inserts the round's updates, and repeats — so cache
/// hits and engine rebuilds after mutations are all checked against the
/// *same* oracle answers (valid throughout, per the module docs).
///
/// Returns the exercise counters, or the first [`Divergence`] found.
pub fn check_plain(
    case: &DifferentialCase<'_>,
    oracle: &PlainOracle,
) -> Result<DifferentialReport, Box<Divergence>> {
    let mut report = DifferentialReport {
        queries: case.queries.len(),
        ..DifferentialReport::default()
    };
    let expected: Vec<MatchResult> = case.queries.iter().map(|q| oracle(q, case.graph)).collect();

    // Phase 1: the planner-driven engine paths.
    let engine =
        QueryEngine::materialize(case.views.clone(), case.graph).with_config(case.engine.clone());
    for (qi, q) in case.queries.iter().enumerate() {
        let plan = engine.plan(q);
        match &plan {
            QueryPlan::ViewsOnly(_) => report.plans_views_only += 1,
            QueryPlan::Hybrid { .. } => report.plans_hybrid += 1,
            QueryPlan::Direct { .. } => report.plans_direct += 1,
        }
        // Static verifier + query lints on every plan (release builds
        // included — the debug_assertions hook in `plan` is redundant
        // here by design, so the optimized fuzz sweep still audits).
        verify_one_plan(
            q,
            &plan,
            engine.views(),
            case.graph,
            None,
            "verify.plan",
            None,
            qi,
        )?;
        let got = engine.answer(q, case.graph).map_err(|e| {
            Box::new(Divergence {
                stage: "engine.answer",
                round: None,
                slot: None,
                query: qi,
                detail: format!("engine refused a query the oracle answers: {e:?}"),
            })
        })?;
        if got != expected[qi] {
            return Err(mismatch(
                "engine.answer",
                qi,
                pairs(&got),
                pairs(&expected[qi]),
            ));
        }
        if !plan.needs_graph() {
            let got = engine.answer_from_views(q).map_err(|e| {
                Box::new(Divergence {
                    stage: "engine.answer_from_views",
                    round: None,
                    slot: None,
                    query: qi,
                    detail: format!("views-only plan failed without the graph: {e:?}"),
                })
            })?;
            if got != expected[qi] {
                return Err(mismatch(
                    "engine.answer_from_views",
                    qi,
                    pairs(&got),
                    pairs(&expected[qi]),
                ));
            }
        }
    }

    // Phase 2: the serving layer, across store mutations and edge deltas.
    // The graph evolves under the deltas, so ground truth is tracked
    // per-round: `truth[qi]` caches the oracle's answer against the
    // *current* graph and is dropped wholesale whenever a delta lands
    // (answers are then recomputed lazily, only for queries actually
    // served again).
    let store = Arc::new(ViewStore::materialize(
        case.views.clone(),
        case.graph,
        case.shards,
    ));
    // View-set lints, with fragment-overlap/eviction reporting wired to the
    // freshly materialized store; then the store-integrity and epoch
    // passes over the initial snapshot.
    {
        let snap = store.snapshot();
        let needed: Vec<u64> = snap
            .views()
            .iter()
            .filter(|v| {
                case.queries
                    .iter()
                    .any(|q| !crate::containment::view_match(&v.def.pattern, q).is_empty())
            })
            .map(|v| v.id)
            .collect();
        let advice = store.eviction_advice(&needed);
        let errors =
            crate::verify::errors_only(crate::lint::lint_views(case.views, case.queries, &advice));
        if !errors.is_empty() {
            return Err(verify_divergence("lint.views", None, 0, &errors));
        }
    }
    verify_store_state(case, &store, case.graph, None)?;
    let service = ViewService::with_config(Arc::clone(&store), case.service.clone());
    let mut current = case.graph.clone();
    let mut truth: Vec<Option<MatchResult>> = expected.into_iter().map(Some).collect();
    let mut after_delta = false;
    for (round, schedule) in case.rounds.iter().enumerate() {
        let batch: Vec<Pattern> = schedule.iter().map(|&i| case.queries[i].clone()).collect();
        let answers = service.serve_batch(&batch, Some(&current));
        for (slot, ans) in answers.iter().enumerate() {
            let qi = schedule[slot];
            let want = truth[qi].get_or_insert_with(|| oracle(&case.queries[qi], &current));
            match ans {
                Ok(sa) => {
                    // In the round right after a delta, a graph-reading
                    // result-cache hit (not a dedup copy of one) can only
                    // come from an entry the delta's refresh re-stamped.
                    if after_delta && sa.result_cached && !sa.deduplicated && sa.plan.needs_graph()
                    {
                        report.graph_hits_after_delta += 1;
                    }
                    if *sa.result != *want {
                        return Err(Box::new(Divergence {
                            stage: "service.serve",
                            round: Some(round),
                            slot: Some(slot),
                            query: qi,
                            detail: format!(
                                "served {} match pairs, oracle says {} (match sets differ)",
                                pairs(&sa.result),
                                pairs(want)
                            ),
                        }));
                    }
                }
                Err(e) => {
                    return Err(Box::new(Divergence {
                        stage: "service.serve",
                        round: Some(round),
                        slot: Some(slot),
                        query: qi,
                        detail: format!("service refused a query the oracle answers: {e:?}"),
                    }));
                }
            }
        }
        report.served += batch.len();
        report.rounds += 1;
        after_delta = false;
        if let Some(upds) = case.updates.get(round) {
            for upd in upds {
                store.insert(upd.clone(), &current).map_err(|e| {
                    Box::new(Divergence {
                        stage: "store.insert",
                        round: Some(round),
                        slot: None,
                        query: 0,
                        detail: format!("store rejected a valid update view: {e:?}"),
                    })
                })?;
                report.mutations += 1;
            }
        }
        if let Some(delta) = case.deltas.get(round).filter(|d| !d.is_empty()) {
            let applied = service.apply_delta(delta, &current).map_err(|e| {
                Box::new(Divergence {
                    stage: "service.apply_delta",
                    round: Some(round),
                    slot: None,
                    query: 0,
                    detail: format!("store rejected a valid edge delta: {e:?}"),
                })
            })?;
            current = applied.graph;
            after_delta = true;
            report.edge_deltas += 1;
            report.views_maintained += applied.affected.len();
            // Store integrity after every applied delta: CSR canonicality,
            // epoch monotonicity, footprint consistency, and epoch-stamped
            // re-plans against the new snapshot.
            verify_store_state(case, &store, &current, Some(round))?;
            // The graph moved: every cached oracle answer is stale.
            for t in truth.iter_mut() {
                *t = None;
            }
        }
    }
    let stats = service.stats();
    report.plan_cache_hits = stats.plan_cache_hits;
    report.result_cache_hits = stats.result_cache_hits;
    Ok(report)
}

/// Bounded analogue of [`check_plain`]: answers every bounded query via
/// [`QueryEngine::answer_bounded`] under `engine_cfg` and compares against
/// the bounded oracle. Returns the number of queries checked.
pub fn check_bounded(
    graph: &DataGraph,
    views: &crate::bview::BoundedViewSet,
    queries: &[BoundedPattern],
    engine_cfg: EngineConfig,
    oracle: &BoundedOracle,
) -> Result<usize, Box<Divergence>> {
    let engine = QueryEngine::materialize(ViewSet::new(Vec::new()), graph)
        .with_config(engine_cfg)
        .with_bounded_views(views.clone(), graph);
    for (qi, qb) in queries.iter().enumerate() {
        // Bounded plan verifier: when the engine can plan the bounded
        // query at all, the plan must pass the static checks.
        if let Ok(bplan) = engine.plan_bounded(qb) {
            let errors =
                crate::verify::errors_only(crate::verify::verify_bounded_plan(qb, &bplan, views));
            if !errors.is_empty() {
                return Err(verify_divergence("verify.bounded_plan", None, qi, &errors));
            }
        }
        let want = oracle(qb, graph);
        let got = engine.answer_bounded(qb).map_err(|e| {
            Box::new(Divergence {
                stage: "engine.answer_bounded",
                round: None,
                slot: None,
                query: qi,
                detail: format!("engine refused a bounded query the oracle answers: {e:?}"),
            })
        })?;
        if got != want {
            return Err(Box::new(Divergence {
                stage: "engine.answer_bounded",
                round: None,
                slot: None,
                query: qi,
                detail: format!(
                    "answered {} match pairs, oracle says {} (match sets differ)",
                    bpairs(&got),
                    bpairs(&want)
                ),
            }));
        }
    }
    Ok(queries.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_matching::match_pattern;
    use gpv_pattern::PatternBuilder;

    fn tiny_graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let x = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        b.add_edge(a, x);
        b.add_edge(x, c);
        b.add_edge(c, a);
        b.build()
    }

    fn edge_query(src: &str, dst: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let x = b.node_labeled(src);
        let y = b.node_labeled(dst);
        b.edge(x, y);
        b.build().unwrap()
    }

    fn case_inputs() -> (DataGraph, ViewSet, Vec<Pattern>) {
        let g = tiny_graph();
        let queries = vec![edge_query("A", "B"), edge_query("B", "C")];
        let views = ViewSet::new(vec![
            ViewDef::new("V1", edge_query("A", "B")),
            ViewDef::new("V2", edge_query("B", "C")),
        ]);
        (g, views, queries)
    }

    #[test]
    fn clean_case_passes_and_counts() {
        let (g, views, queries) = case_inputs();
        let rounds = vec![vec![0, 1, 0], vec![1, 0]];
        let updates = vec![vec![ViewDef::new("U1", edge_query("C", "A"))]];
        let case = DifferentialCase {
            graph: &g,
            views: &views,
            queries: &queries,
            rounds: &rounds,
            updates: &updates,
            deltas: &[],
            shards: 2,
            engine: EngineConfig::default(),
            service: ServiceConfig::default(),
        };
        let oracle: PlainOracle = Box::new(match_pattern);
        let report = check_plain(&case, &oracle).expect("no divergence");
        assert_eq!(report.queries, 2);
        assert_eq!(report.served, 5);
        assert_eq!(report.rounds, 2);
        assert_eq!(report.mutations, 1);
        assert_eq!(report.edge_deltas, 0);
        assert_eq!(
            report.plans_views_only + report.plans_hybrid + report.plans_direct,
            2
        );
    }

    /// Serving across edge deltas: after a delta deletes the only A→B
    /// edge, the served answer for that query must shrink in lockstep with
    /// the recomputed oracle — the delta-maintained views, the epoch-keyed
    /// result cache, and the re-published snapshot all have to agree with
    /// `match_pattern` against the *current* graph, round after round.
    #[test]
    fn delta_rounds_track_the_evolving_graph() {
        let (g, views, queries) = case_inputs();
        // Round 0 serves and caches both queries; the delta then deletes
        // A→B (affecting V1 only); rounds 1–2 re-serve both queries, so
        // the checker verifies both the invalidated and the surviving
        // cached answers against fresh ground truth.
        let rounds = vec![vec![0, 1], vec![0, 1], vec![1, 0]];
        let deltas = vec![EdgeDelta::new(
            vec![],
            vec![(gpv_graph::NodeId(0), gpv_graph::NodeId(1))],
        )];
        let case = DifferentialCase {
            graph: &g,
            views: &views,
            queries: &queries,
            rounds: &rounds,
            updates: &[],
            deltas: &deltas,
            shards: 2,
            engine: EngineConfig::default(),
            service: ServiceConfig::default(),
        };
        let oracle: PlainOracle = Box::new(match_pattern);
        let report = check_plain(&case, &oracle).expect("no divergence");
        assert_eq!(report.edge_deltas, 1);
        assert!(report.views_maintained >= 1, "{report:?}");
        assert_eq!(report.served, 6);
    }

    #[test]
    fn corrupted_oracle_is_caught() {
        let (g, views, queries) = case_inputs();
        let rounds = vec![vec![0, 1]];
        let case = DifferentialCase {
            graph: &g,
            views: &views,
            queries: &queries,
            rounds: &rounds,
            updates: &[],
            deltas: &[],
            shards: 1,
            engine: EngineConfig::default(),
            service: ServiceConfig::default(),
        };
        // An oracle that drops one pair must diverge on the first query.
        let oracle: PlainOracle = Box::new(|q, g| {
            let mut r = match_pattern(q, g);
            for set in &mut r.edge_matches {
                if set.pop().is_some() {
                    break;
                }
            }
            r
        });
        let d = check_plain(&case, &oracle).expect_err("must diverge");
        assert_eq!(d.stage, "engine.answer");
        assert_eq!(d.query, 0);
    }
}
