//! Criterion bench for the `QueryEngine` layer: sequential vs parallel
//! `MatchJoin` on a fig8(d)-style synthetic workload, plus the full
//! plan-and-execute path. The x-axis sweep and the machine-readable record
//! (`BENCH_engine.json`) are produced by `repro engine`.
//!
//! On a single-core host the parallel executor degrades to inline execution
//! (by design), so the `par*` series tie `seq` there; spare cores are where
//! they separate.

use criterion::{criterion_group, criterion_main, Criterion};
use gpv_bench::experiments::setup::{plain, Dataset};
use gpv_core::engine::{EngineConfig, QueryEngine};
use gpv_core::matchjoin::JoinStrategy;
use gpv_core::minimum::minimum;
use gpv_core::par_match_join;
use gpv_core::plan::{ExecStrategy, SelectionMode};

fn bench(c: &mut Criterion) {
    let s = plain(Dataset::Synthetic, 40_000, (4, 6), 42);
    let sel = minimum(&s.query, &s.views).expect("contained");
    let engine = QueryEngine::materialize(s.views.clone(), &s.g).with_config(EngineConfig {
        force_selection: Some(SelectionMode::Minimum),
        force_exec: Some(ExecStrategy::Sequential(JoinStrategy::RankedBottomUp)),
        ..EngineConfig::default()
    });
    let plan = engine.plan(&s.query);
    assert!(!plan.needs_graph(), "covering views contain the query");

    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    g.bench_function("MatchJoin_seq", |b| {
        b.iter(|| std::hint::black_box(engine.execute(&s.query, &plan, None).unwrap()))
    });
    g.bench_function("MatchJoin_par_auto", |b| {
        b.iter(|| std::hint::black_box(par_match_join(&s.query, &sel.plan, &s.ext, 0).unwrap()))
    });
    g.bench_function("MatchJoin_par2", |b| {
        b.iter(|| std::hint::black_box(par_match_join(&s.query, &sel.plan, &s.ext, 2).unwrap()))
    });
    g.bench_function("MatchJoin_par4", |b| {
        b.iter(|| std::hint::black_box(par_match_join(&s.query, &sel.plan, &s.ext, 4).unwrap()))
    });
    g.bench_function("plan_and_execute", |b| {
        b.iter(|| {
            let plan = engine.plan(&s.query);
            std::hint::black_box(engine.execute(&s.query, &plan, None).unwrap())
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
