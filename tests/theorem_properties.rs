//! Property-based tests for the paper's theorems, over randomized graphs,
//! queries and view sets.
//!
//! The central property (Theorem 1 / Theorem 8): whenever `Q ⊑ V`,
//! `MatchJoin` over the materialized views equals direct evaluation — for
//! *every* graph. Plus: minimality is irreducible (Theorem 5), minimum never
//! selects more views than minimal (Theorem 6's point), both join strategies
//! agree, and the literal union-merge agrees with the narrowed merge.

use gpv_generator::{
    covering_bounded_views, covering_views, random_bounded_pattern, random_graph, random_pattern,
    PatternShape,
};
use graph_views::prelude::*;
use graph_views::views::matchjoin::merge_step_union;
use graph_views::views::{BoundedViewDef, BoundedViewSet, ContainmentPlan, ViewEdgeRef};
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

/// A bounded view for the `bmaterialize` oracle check: 2–4 nodes over
/// `LABELS` plus `Z`, which no graph node carries (an empty base set);
/// 1–4 edges with bounds 1–3 or `*` (bound code 0); and, when `isolated`,
/// one more node with no edges.
fn arb_bounded_view() -> impl Strategy<Value = BoundedPattern> {
    (
        proptest::collection::vec(0usize..13, 2..5),
        proptest::collection::vec((0usize..4, 0usize..4, 0u32..4), 1..5),
        any::<bool>(),
    )
        .prop_map(|(labels, edges, isolated)| {
            let label = |l: usize| if l == 12 { "Z" } else { LABELS[l % 4] };
            let mut b = PatternBuilder::new();
            let ids: Vec<_> = labels.iter().map(|&l| b.node_labeled(label(l))).collect();
            for (x, y, k) in edges {
                let (x, y) = (ids[x % ids.len()], ids[y % ids.len()]);
                match k {
                    0 => b.edge_unbounded(x, y),
                    k => b.edge_bounded(x, y, k),
                }
            }
            if isolated {
                b.node_labeled(label(labels[0]));
            }
            b.build_bounded().unwrap()
        })
}

/// Whether every query edge's λ entries are ordered by (view, view edge)
/// — the order `smallest_cover`'s first-smallest tie-break depends on.
fn lambda_ordered(lambda: &[Vec<ViewEdgeRef>]) -> bool {
    lambda.iter().all(|entries| {
        entries
            .windows(2)
            .all(|w| (w[0].view, w[0].edge) < (w[1].view, w[1].edge))
    })
}

/// An engine config pinned to one selection mode.
fn forced(mode: SelectionMode) -> EngineConfig {
    EngineConfig {
        force_selection: Some(mode),
    }
}

/// A random view set for `q`: a random subset of a covering set plus
/// random distractor views, so containment may or may not hold.
fn mixed_views(q: &Pattern, vseed: u64, keep: &[bool]) -> ViewSet {
    let cover = covering_views(std::slice::from_ref(q), 2, vseed);
    let distractors = (0..3u64).map(|i| {
        let p = random_pattern(2, 2, &LABELS, PatternShape::Any, vseed ^ (i + 1));
        ViewDef::new(format!("d{i}"), p)
    });
    let mut defs: Vec<ViewDef> = cover.views().to_vec();
    defs.extend(distractors);
    ViewSet::new(kept(defs, keep))
}

/// The items whose `keep` flag is set (items past its end are kept).
fn kept<T>(items: Vec<T>, keep: &[bool]) -> Vec<T> {
    items
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| *keep.get(i).unwrap_or(&true))
        .map(|(_, d)| d)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One view-match table behind every containment check: `contain` is
    /// `partial_contain(..).into_plan()`, every λ is ordered by (view, view
    /// edge), and the engine's pinned `All` / `Minimal` / `Minimum`
    /// selections are exactly `contain` / `minimal` / `minimum`.
    #[test]
    fn containment_checks_agree(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
        keep in proptest::collection::vec(any::<bool>(), 16),
    ) {
        use graph_views::views::partial_contain;
        let views = mixed_views(&q, vseed, &keep);
        let partial = partial_contain(&q, &views);
        prop_assert!(lambda_ordered(&partial.lambda));
        let full = contain(&q, &views);
        prop_assert_eq!(&full, &partial.into_plan());
        let engine = QueryEngine::materialize(views.clone(), &g);
        let Some(full) = full else {
            prop_assert!(minimal(&q, &views).is_none());
            prop_assert!(minimum(&q, &views).is_none());
            prop_assert!(engine.plan(&q).needs_graph());
            return Ok(());
        };
        prop_assert!(lambda_ordered(&full.lambda));
        let mnl = minimal(&q, &views).expect("contained");
        let min = minimum(&q, &views).expect("contained");
        let expected = [
            (SelectionMode::All, full.used_views.clone(), full),
            (SelectionMode::Minimal, mnl.views, mnl.plan),
            (SelectionMode::Minimum, min.views, min.plan),
        ];
        for (mode, views, plan) in expected {
            prop_assert!(lambda_ordered(&plan.lambda));
            prop_assert_eq!(&views, &plan.used_views);
            let planned = engine.clone().with_config(forced(mode)).plan(&q);
            let QueryPlan::ViewsOnly(vp) = planned else {
                return Err(TestCaseError::fail(format!("{mode:?}: not views-only")));
            };
            prop_assert_eq!(vp.selection, mode);
            prop_assert_eq!(vp.views, views);
            prop_assert_eq!(vp.plan, plan);
        }
    }

    /// The bounded twin: `plan_bounded`'s pinned selections are exactly
    /// `bcontain` / `bminimal` / `bminimum`, and a bounded λ lists only
    /// contributing views, ordered by (view, view edge).
    #[test]
    fn bounded_containment_checks_agree(
        g in arb_graph(),
        qb in arb_bounded_query(),
        vseed in any::<u64>(),
        keep in proptest::collection::vec(any::<bool>(), 16),
    ) {
        let cover = covering_bounded_views(std::slice::from_ref(&qb), 2, vseed);
        let mut defs: Vec<BoundedViewDef> = cover.views().to_vec();
        defs.extend((0..2u64).map(|i| {
            let p = random_bounded_pattern(2, 1, &LABELS, 3, PatternShape::Any, vseed ^ (i + 1));
            BoundedViewDef::new(format!("d{i}"), p)
        }));
        let views = BoundedViewSet::new(kept(defs, &keep));
        let engine = QueryEngine::materialize(ViewSet::default(), &g)
            .with_bounded_views(views.clone(), &g);
        let Some(full) = bcontain(&qb, &views) else {
            prop_assert!(bminimal(&qb, &views).is_none());
            prop_assert!(bminimum(&qb, &views).is_none());
            prop_assert!(engine.plan_bounded(&qb).is_err());
            return Ok(());
        };
        let mnl = bminimal(&qb, &views).expect("contained");
        let min = bminimum(&qb, &views).expect("contained");
        let expected = [
            (SelectionMode::All, full.used_views.clone(), full),
            (SelectionMode::Minimal, mnl.views, mnl.plan),
            (SelectionMode::Minimum, min.views, min.plan),
        ];
        for (mode, views, plan) in expected {
            prop_assert!(lambda_ordered(&plan.lambda));
            prop_assert_eq!(&views, &plan.used_views);
            let bp = engine.clone().with_config(forced(mode)).plan_bounded(&qb).unwrap();
            prop_assert_eq!(bp.selection, mode);
            prop_assert_eq!(bp.views, views);
            prop_assert_eq!(bp.plan, plan);
        }
    }

    /// Theorem 1: MatchJoin(V(G)) == Match(G) whenever Q ⊑ V.
    #[test]
    fn theorem1_matchjoin_equals_match(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let plan = contain(&q, &views).expect("covering views contain q");
        let ext = materialize(&views, &g);
        let joined = match_join(&q, &plan, &ext).unwrap();
        let direct = match_pattern(&q, &g);
        prop_assert_eq!(joined, direct);
    }

    /// Both worklist strategies compute the same fixpoint.
    #[test]
    fn join_strategies_agree(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        use graph_views::views::{match_join_with, JoinStrategy};
        let views = covering_views(std::slice::from_ref(&q), 2, vseed);
        let plan = contain(&q, &views).expect("contained");
        let ext = materialize(&views, &g);
        let (a, _) = match_join_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        let (b, _) = match_join_with(&q, &plan, &ext, JoinStrategy::NaiveFixpoint).unwrap();
        prop_assert_eq!(a, b);
    }

    /// The union merge (literal Fig. 2) and the narrowed single-witness
    /// merge both lead to the correct result.
    #[test]
    fn union_merge_agrees(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        // Compare end results: narrowed path via match_join, union path via
        // merge_step_union + the naive fixpoint (re-using public pieces).
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let plan: ContainmentPlan = contain(&q, &views).expect("contained");
        let ext = materialize(&views, &g);
        let narrowed = match_join(&q, &plan, &ext).unwrap();
        let direct = match_pattern(&q, &g);
        prop_assert_eq!(&narrowed, &direct);
        // The union initialization is a superset of the narrowed one; its
        // per-edge sets must still contain every true match.
        let union = merge_step_union(&q, &plan, &ext).unwrap();
        if !direct.is_empty() {
            for (ei, set) in direct.edge_matches.iter().enumerate() {
                for pair in set {
                    prop_assert!(union[ei].contains(pair), "union merge lost a true match");
                }
            }
        }
    }

    /// Theorem 5: the minimal selection is irreducible — dropping any view
    /// breaks containment.
    #[test]
    fn minimal_is_irreducible(q in arb_query(), vseed in any::<u64>()) {
        let views = covering_views(std::slice::from_ref(&q), 2, vseed);
        let sel = minimal(&q, &views).expect("contained");
        for skip in &sel.views {
            let rest: Vec<usize> = sel.views.iter().copied().filter(|v| v != skip).collect();
            prop_assert!(
                contain(&q, &views.subset(&rest)).is_none(),
                "view {} is redundant in a 'minimal' selection",
                skip
            );
        }
    }

    /// minimum never selects more views than minimal, and both contain q.
    #[test]
    fn minimum_not_larger_than_minimal(q in arb_query(), vseed in any::<u64>()) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let mnl = minimal(&q, &views).expect("contained");
        let min = minimum(&q, &views).expect("contained");
        prop_assert!(min.views.len() <= mnl.views.len());
        prop_assert!(contain(&q, &views.subset(&min.views)).is_some());
        prop_assert!(contain(&q, &views.subset(&mnl.views)).is_some());
    }

    /// Theorem 8: BMatchJoin(V(G)) == BMatch(G) whenever Qb ⊑ V.
    #[test]
    fn theorem8_bounded_join_equals_bmatch(
        g in arb_graph(),
        qb in arb_bounded_query(),
        vseed in any::<u64>(),
    ) {
        let views = covering_bounded_views(std::slice::from_ref(&qb), 2, vseed);
        let plan = bcontain(&qb, &views).expect("covering views contain qb");
        let ext = graph_views::views::bmaterialize(&views, &g);
        let joined = bmatch_join(&qb, &plan, &ext).unwrap();
        let direct = bmatch_pattern(&qb, &g);
        prop_assert_eq!(joined, direct);
    }

    /// Kernel materialization equals `BMatch` view by view, node sets and
    /// distances included: `*` edges, isolated nodes (which keep their
    /// whole base set), sinks (which keep the targets they take) and empty
    /// base sets (an empty extension).
    #[test]
    fn bmaterialize_equals_bmatch(
        g in arb_graph(),
        vs in proptest::collection::vec(arb_bounded_view(), 1..4),
    ) {
        let views = BoundedViewSet::new(
            vs.into_iter().map(|v| BoundedViewDef::new("V", v)).collect(),
        );
        let ext = graph_views::views::bmaterialize(&views, &g);
        for (i, v) in views.iter() {
            prop_assert_eq!(ext.extensions[i].thaw(), bmatch_pattern(&v.pattern, &g));
        }
    }

    /// Bounded minimal / minimum behave like their plain counterparts.
    #[test]
    fn bounded_selection_properties(qb in arb_bounded_query(), vseed in any::<u64>()) {
        let views = covering_bounded_views(std::slice::from_ref(&qb), 3, vseed);
        let mnl = bminimal(&qb, &views).expect("contained");
        let min = bminimum(&qb, &views).expect("contained");
        prop_assert!(min.views.len() <= mnl.views.len());
        for skip in &mnl.views {
            let rest: Vec<usize> = mnl.views.iter().copied().filter(|v| v != skip).collect();
            prop_assert!(bcontain(&qb, &views.subset(&rest)).is_none());
        }
    }

    /// Plain patterns are the fe(e)=1 special case: BMatch with unit bounds
    /// equals Match on pairs.
    #[test]
    fn unit_bounds_reduce_to_simulation(g in arb_graph(), q in arb_query()) {
        let qb = BoundedPattern::from_pattern(q.clone());
        let plain = match_pattern(&q, &g);
        let bounded = bmatch_pattern(&qb, &g);
        prop_assert_eq!(plain.is_empty(), bounded.is_empty());
        if !plain.is_empty() {
            prop_assert_eq!(plain.edge_matches, bounded.pairs());
        }
    }

    /// Query containment is sound: if q1 ⊑ q2 via λ, then on any graph each
    /// match set of q1 is inside the union of its covering q2 sets.
    #[test]
    fn query_containment_sound(g in arb_graph(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let q1 = random_pattern(3, 3, &LABELS, PatternShape::Any, s1);
        let q2 = random_pattern(2, 2, &LABELS, PatternShape::Any, s2);
        let views = graph_views::views::ViewSet::new(vec![
            graph_views::views::ViewDef::new("q2", q2.clone()),
        ]);
        if let Some(plan) = contain(&q1, &views) {
            let r1 = match_pattern(&q1, &g);
            let r2 = match_pattern(&q2, &g);
            if !r1.is_empty() {
                prop_assert!(!r2.is_empty(), "containment forces q2 to match too");
                for (ei, set) in r1.edge_matches.iter().enumerate() {
                    for pair in set {
                        let covered = plan.lambda[ei].iter().any(|r| {
                            r2.edge_matches[r.edge.index()].contains(pair)
                        });
                        prop_assert!(covered, "pair {:?} escaped λ", pair);
                    }
                }
            }
        }
    }

    /// §VIII extension: DualMatchJoin(V(G)) == DualMatch(G) whenever the
    /// query is dual-contained in the views.
    #[test]
    fn dual_join_equals_dual_match(g in arb_graph(), q in arb_query(), vseed in any::<u64>()) {
        use graph_views::views::{dual_contain, dual_match_join, dual_materialize};
        use graph_views::matching::dual_match_pattern;
        let views = covering_views(std::slice::from_ref(&q), 2, vseed);
        // Dual containment can be stricter than plain; only proceed when it
        // holds (fragment views of q always dual-simulate into q? not
        // necessarily — a fragment node can lack q's in-edges, which is
        // fine, but q's node must cover the fragment's constraints, which
        // holds since the fragment's edges are q's own).
        if let Some(plan) = dual_contain(&q, &views) {
            let ext = dual_materialize(&views, &g);
            // Each extension is the view's dual result, node sets included.
            for (i, v) in views.iter() {
                prop_assert_eq!(ext.extensions[i].thaw(), dual_match_pattern(&v.pattern, &g));
            }
            let joined = dual_match_join(&q, &plan, &ext).unwrap();
            let direct = dual_match_pattern(&q, &g);
            prop_assert_eq!(joined, direct);
        }
    }

    /// Pattern minimization composes with view answering: the minimized
    /// query, answered through views, agrees with the original's answer
    /// modulo the edge map.
    #[test]
    fn minimize_then_answer_with_views(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
    ) {
        use graph_views::views::minimize;
        let m = minimize(&q);
        let views = covering_views(std::slice::from_ref(&m.pattern), 2, vseed);
        let plan = contain(&m.pattern, &views).expect("covering views");
        let ext = materialize(&views, &g);
        let joined = match_join(&m.pattern, &plan, &ext).unwrap();
        let direct = match_pattern(&q, &g);
        prop_assert_eq!(joined.is_empty(), direct.is_empty());
        if !direct.is_empty() {
            for (ei, set) in direct.edge_matches.iter().enumerate() {
                let qe = m.edge_map[ei];
                prop_assert_eq!(set, &joined.edge_matches[qe.index()]);
            }
        }
    }

    /// Hybrid evaluation (partial views + surgical G access) equals direct
    /// matching regardless of how much of the query the views cover.
    #[test]
    fn hybrid_equals_match(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
        keep in proptest::collection::vec(any::<bool>(), 24),
    ) {
        use graph_views::views::{hybrid_match_join, partial_contain};
        // Randomly drop views from a covering set so coverage is partial.
        let full = covering_views(std::slice::from_ref(&q), 2, vseed);
        let kept: Vec<usize> = (0..full.card())
            .filter(|&i| *keep.get(i).unwrap_or(&false))
            .collect();
        let views = full.subset(&kept);
        let ext = materialize(&views, &g);
        let partial = partial_contain(&q, &views);
        let (r, _) = hybrid_match_join(&q, &partial, &ext, &g).unwrap();
        prop_assert_eq!(r, match_pattern(&q, &g));
    }

    /// Dual simulation is a restriction of plain simulation.
    #[test]
    fn simulation_hierarchy(g in arb_graph(), q in arb_query()) {
        use graph_views::matching::{dual_simulation_relation, simulation_relation};
        let plain = simulation_relation(&q, &g);
        let dual = dual_simulation_relation(&q, &g);
        match (&plain, &dual) {
            (None, Some(_)) => prop_assert!(false, "dual matched where plain failed"),
            (Some(p), Some(d)) => {
                for u in 0..q.node_count() {
                    prop_assert!(d[u].is_subset(&p[u]));
                }
            }
            _ => {}
        }
    }
}
