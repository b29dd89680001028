//! Engine-contract property tests (seeded): on random graph / view /
//! pattern triples, `QueryEngine::answer(q, g)` must equal the
//! `match_pattern(q, g)` ground truth for *every* plan shape the planner
//! can pick — views-only under all three selection modes, hybrid partial
//! coverage, direct fallback, and bounded plans.

use gpv_generator::{
    covering_bounded_views, covering_views, random_bounded_pattern, random_graph, random_pattern,
    PatternShape,
};
use graph_views::prelude::*;
use graph_views::views::{EdgeSource, QueryPlan};
use proptest::prelude::*;

const LABELS: [&str; 4] = ["A", "B", "C", "D"];

fn arb_graph() -> impl Strategy<Value = DataGraph> {
    (5usize..60, 10usize..150, any::<u64>())
        .prop_map(|(n, m, seed)| random_graph(n, m, &LABELS, seed))
}

fn arb_query() -> impl Strategy<Value = Pattern> {
    (2usize..5, 1usize..6, any::<u64>())
        .prop_map(|(nv, ne, seed)| random_pattern(nv, ne, &LABELS, PatternShape::Any, seed))
}

fn arb_bounded_query() -> impl Strategy<Value = BoundedPattern> {
    (2usize..4, 1usize..5, 1u32..4, any::<u64>()).prop_map(|(nv, ne, k, seed)| {
        random_bounded_pattern(nv, ne, &LABELS, k, PatternShape::Any, seed)
    })
}

/// Configs that pin each selection mode, plus the cost-based default.
fn mode_configs() -> Vec<EngineConfig> {
    let mut cfgs = vec![EngineConfig::default()];
    for m in [
        SelectionMode::All,
        SelectionMode::Minimal,
        SelectionMode::Minimum,
    ] {
        cfgs.push(EngineConfig {
            force_selection: Some(m),
        });
    }
    cfgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Covered queries: the engine must answer from views alone, matching
    /// the ground truth under every selection mode. The plan's estimate is
    /// exact: the pairs it prices are the pairs the merge step actually
    /// reads.
    #[test]
    fn engine_equals_match_when_contained(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let direct = match_pattern(&q, &g);
        for cfg in mode_configs() {
            let engine = QueryEngine::materialize(views.clone(), &g).with_config(cfg);
            let plan = engine.plan(&q);
            prop_assert!(!plan.needs_graph(), "covering views contain q: {plan}");
            let (_, stats) = engine.execute(&q, &plan, None).unwrap();
            prop_assert_eq!(plan.cost().pairs_read, stats.merged_pairs, "plan: {}", plan);
            prop_assert_eq!(&engine.answer_from_views(&q).unwrap(), &direct);
            prop_assert_eq!(&engine.answer(&q, &g).unwrap(), &direct);
        }
    }

    /// Partially-covered queries: the planner picks hybrid (or direct) and
    /// `answer` still equals the ground truth; strict views-only answering
    /// refuses.
    #[test]
    fn engine_equals_match_under_partial_coverage(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
        keep_probe in any::<u64>(),
    ) {
        // Drop some of the covering views so coverage is partial (or, for
        // single-edge queries, possibly empty).
        let full = covering_views(std::slice::from_ref(&q), 2, vseed);
        let keep: Vec<usize> = (0..full.card())
            .filter(|i| (keep_probe >> (i % 64)) & 1 == 1)
            .collect();
        let views = full.subset(&keep);
        let engine = QueryEngine::materialize(views, &g);
        let direct = match_pattern(&q, &g);
        let plan = engine.plan(&q);
        prop_assert_eq!(&engine.answer(&q, &g).unwrap(), &direct, "plan was: {}", plan);
        if plan.needs_graph() {
            prop_assert!(engine.answer_from_views(&q).is_err());
        }
    }

    /// No views at all: the engine falls back to direct evaluation.
    #[test]
    fn engine_direct_fallback(g in arb_graph(), q in arb_query()) {
        let engine = QueryEngine::materialize(graph_views::views::ViewSet::default(), &g);
        prop_assert!(matches!(engine.plan(&q), QueryPlan::Direct { .. }));
        prop_assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    }

    /// Bounded queries: engine plans over the bounded registry equal
    /// `bmatch_pattern` (Theorem 8), under every selection mode.
    #[test]
    fn engine_bounded_equals_bmatch(g in arb_graph(), qb in arb_bounded_query(), vseed in any::<u64>()) {
        let views = covering_bounded_views(std::slice::from_ref(&qb), 2, vseed);
        let direct = bmatch_pattern(&qb, &g);
        for cfg in mode_configs() {
            let engine = QueryEngine::materialize(graph_views::views::ViewSet::default(), &g)
                .with_bounded_views(views.clone(), &g)
                .with_config(cfg);
            prop_assert_eq!(&engine.answer_bounded(&qb).unwrap(), &direct);
        }
    }

    /// Hybrid per-edge sourcing never changes answers: whatever
    /// `EdgeSource` assignment the planner emits — over full, partial, or
    /// no coverage — `answer` equals `match_pattern`, and the emitted
    /// source vector always has one entry per query edge.
    #[test]
    fn hybrid_sourcing_never_changes_answers(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
        keep_probe in any::<u64>(),
    ) {
        let full = covering_views(std::slice::from_ref(&q), 2, vseed);
        let keep: Vec<usize> = (0..full.card())
            .filter(|i| (keep_probe >> (i % 64)) & 1 == 1)
            .collect();
        let views = full.subset(&keep);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        if let Some(sources) = plan.sources() {
            prop_assert_eq!(sources.len(), q.edge_count(), "plan: {}", plan);
        }
        prop_assert_eq!(&engine.answer(&q, &g).unwrap(), &match_pattern(&q, &g), "plan: {}", plan);
    }

    /// The plan IR is stable through serialization (plans are cacheable).
    #[test]
    fn plans_roundtrip_through_json(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let engine = QueryEngine::materialize(views, &g);
        let plan = engine.plan(&q);
        let json = serde_json::to_string(&plan).unwrap();
        let back: QueryPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, plan);
    }
}

/// Partial coverage emits mixed sources: the covered edge reads its view,
/// the uncovered edge scans `G` (a `NotContained` hybrid), and the answer
/// is still exactly `match_pattern`. This pins that the sourcing proptest
/// genuinely exercises both `EdgeSource` arms.
#[test]
fn partial_coverage_emits_mixed_sources() {
    use graph_views::views::FallbackReason;
    // One A->B edge (the tight vab extension) and 20 B->C edges, which no
    // view covers.
    let mut b = GraphBuilder::new();
    let a = b.add_node(["A"]);
    let hub = b.add_node(["B"]);
    b.add_edge(a, hub);
    for _ in 0..20 {
        let c = b.add_node(["C"]);
        b.add_edge(hub, c);
    }
    let g = b.build();

    let mut p = PatternBuilder::new();
    let ua = p.node_labeled("A");
    let ub = p.node_labeled("B");
    let uc = p.node_labeled("C");
    p.edge(ua, ub);
    p.edge(ub, uc);
    let q = p.build().unwrap();
    let mut v = PatternBuilder::new();
    let (va, vb) = (v.node_labeled("A"), v.node_labeled("B"));
    v.edge(va, vb);
    let views = graph_views::views::ViewSet::new(vec![ViewDef::new("vab", v.build().unwrap())]);

    let engine = QueryEngine::materialize(views, &g);
    let plan = engine.plan(&q);
    let QueryPlan::Hybrid {
        sources, reason, ..
    } = &plan
    else {
        panic!("expected a hybrid, got: {plan}");
    };
    assert_eq!(*reason, FallbackReason::NotContained);
    assert!(
        matches!(sources[0], EdgeSource::View(_)),
        "covered edge reads its view: {plan}"
    );
    assert!(
        matches!(sources[1], EdgeSource::Graph),
        "uncovered edge scans G: {plan}"
    );
    assert_eq!(engine.answer(&q, &g).unwrap(), match_pattern(&q, &g));
    assert!(engine.answer_from_views(&q).is_err(), "hybrids need G");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scenario-driven differential sweep: a `Scenario` sampled from a
    /// random (master seed, index) pair bundles every knob — graph source,
    /// query mode, executor, cache state — and the differential
    /// checker asserts the engine and service agree bit-exactly with
    /// `match_pattern` on all of it. Failures print the scenario's
    /// one-line JSON and the exact `gpv fuzz --repro` command.
    #[test]
    fn scenario_differential_matches_oracle(master in any::<u64>(), idx in 0u64..60) {
        let sc = gpv_generator::Scenario::sample(master, idx);
        if let Err(d) = gpv_generator::check_scenario(&sc) {
            return Err(TestCaseError::fail(format!(
                "{d}\nscenario: {}\nrepro: {}",
                sc.to_json_line(),
                sc.repro_command()
            )));
        }
    }
}
