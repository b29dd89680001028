//! Golden kernel counters: the `JoinStats` a fixed, seeded corpus drives
//! through every plan shape the engine executes — views-only, hybrid and
//! direct plain plans, and bounded plans — summed per shape and compared
//! with committed constants. The views-only and bounded plans also run
//! under `JoinStrategy::NaiveFixpoint`, the paper's unoptimized baseline,
//! summed on their own.
//!
//! The counters (`merged_pairs`, `removals`, `edge_visits`) are
//! deterministic, so a change to the kernel that keeps its answers but
//! reads more pairs, removes candidates in another order or visits match
//! sets more often shows up here on any host, however noisy its clock. A
//! change that means to move them updates the constants and says why.

use gpv_generator::{
    covering_bounded_views, covering_views, random_bounded_pattern, random_graph, random_pattern,
    PatternShape,
};
use graph_views::prelude::*;
use graph_views::views::{bmatch_join_with, bmaterialize, BoundedViewSet, JoinStats};

const LABELS: [&str; 4] = ["A", "B", "C", "D"];
const SHAPES: [PatternShape; 3] = [PatternShape::Dag, PatternShape::Any, PatternShape::Cyclic];

/// Per plan shape: how many queries ran that way, and their summed stats
/// as `(merged_pairs, removals, edge_visits)`.
#[derive(Debug, Default, PartialEq, Eq)]
struct Sums {
    queries: u64,
    counters: (u64, u64, u64),
}

impl Sums {
    fn add(&mut self, s: &JoinStats) {
        self.queries += 1;
        self.counters.0 += s.merged_pairs;
        self.counters.1 += s.removals;
        self.counters.2 += s.edge_visits;
    }
}

/// The corpus: four graphs, twelve plain and six bounded queries per graph.
/// Each plain query runs against its full covering views (views-only),
/// against every other covering view (hybrid, or direct when the planner
/// prefers it) and against no views (direct).
fn corpus_sums() -> [Sums; 5] {
    let mut sums: [Sums; 5] = Default::default();
    for gseed in 0..4u64 {
        let g = random_graph(400, 1200, &LABELS, 0x5eed ^ gseed);
        for i in 0..12u64 {
            let seed = gseed * 100 + i;
            let shape = SHAPES[(i % 3) as usize];
            let size = 3 + (i % 3) as usize;
            let q = random_pattern(size, size, &LABELS, shape, seed);
            let cover = covering_views(std::slice::from_ref(&q), 2, seed);
            let half = ViewSet::new(cover.views().iter().step_by(2).cloned().collect());
            for views in [cover, half, ViewSet::default()] {
                let engine = QueryEngine::materialize(views, &g);
                let plan = engine.plan(&q);
                let (r, stats) = engine.execute(&q, &plan, Some(&g)).unwrap();
                assert_eq!(r, match_pattern(&q, &g), "seed {seed}: {plan}");
                let slot = match plan {
                    QueryPlan::ViewsOnly(_) => 0,
                    QueryPlan::Hybrid { .. } => 1,
                    QueryPlan::Direct { .. } => 2,
                };
                sums[slot].add(&stats);
                if let QueryPlan::ViewsOnly(vp) = &plan {
                    let naive = JoinStrategy::NaiveFixpoint;
                    let (r, stats) =
                        match_join_with(&q, &vp.plan, engine.extensions(), naive).unwrap();
                    assert_eq!(r, match_pattern(&q, &g), "naive, seed {seed}");
                    sums[4].add(&stats);
                }
            }
        }
        for i in 0..6u64 {
            let seed = gseed * 100 + 50 + i;
            let shape = SHAPES[(i % 3) as usize];
            let qb = random_bounded_pattern(3, 3, &LABELS, 3, shape, seed);
            let views: BoundedViewSet = covering_bounded_views(std::slice::from_ref(&qb), 2, seed);
            let engine = QueryEngine::materialize(ViewSet::default(), &g)
                .with_bounded_views(views.clone(), &g);
            let plan = engine.plan_bounded(&qb).expect("covering views contain qb");
            let ext = bmaterialize(&views, &g);
            for (slot, strategy) in [
                (3, JoinStrategy::RankedBottomUp),
                (4, JoinStrategy::NaiveFixpoint),
            ] {
                let (r, stats) = bmatch_join_with(&qb, &plan.plan, &ext, strategy).unwrap();
                assert_eq!(
                    r,
                    bmatch_pattern(&qb, &g),
                    "bounded seed {seed}, {strategy:?}"
                );
                sums[slot].add(&stats);
            }
        }
    }
    sums
}

#[test]
fn kernel_counters_match_the_golden_sums() {
    let [views_only, hybrid, direct, bounded, naive] = corpus_sums();
    let golden = |queries, counters| Sums { queries, counters };
    assert_eq!(
        views_only,
        golden(52, (13101, 2200, 2869)),
        "views-only plans"
    );
    assert_eq!(hybrid, golden(44, (11598, 2158, 2915)), "hybrid plans");
    assert_eq!(direct, golden(48, (15537, 2943, 4148)), "direct plans");
    assert_eq!(bounded, golden(24, (37152, 450, 688)), "bounded plans");
    assert_eq!(naive, golden(76, (50253, 14552, 984)), "NaiveFixpoint");
}
