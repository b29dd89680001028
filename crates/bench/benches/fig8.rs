//! Criterion benches for the paper's Fig. 8(a)–(l), one group per figure.
//! Each group times a representative point; the full sweeps are produced
//! by `repro fig8a` … `repro fig8l`.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use gpv_bench::experiments::setup::{bounded, plain, BoundedSetup, Dataset, PlainSetup};
use gpv_core::bcontainment::{bminimal, bminimum};
use gpv_core::bmatchjoin::bmatch_join_with;
use gpv_core::containment::{contain, ContainmentPlan};
use gpv_core::matchjoin::{match_join_with, JoinStrategy};
use gpv_core::minimal::minimal;
use gpv_core::minimum::minimum;
use gpv_core::view::ViewSet;
use gpv_generator::{
    covering_views, label_pair_views, random_pattern, PatternShape, DEFAULT_ALPHABET,
};
use gpv_matching::bounded::bmatch_pattern;
use gpv_matching::simulation::match_pattern;

/// One `MatchJoin` series: the optimized join under `plan`.
fn match_join_series(g: &mut BenchmarkGroup<'_>, id: &str, s: &PlainSetup, plan: &ContainmentPlan) {
    g.bench_function(id, |b| {
        b.iter(|| {
            std::hint::black_box(
                match_join_with(&s.query, plan, &s.ext, JoinStrategy::RankedBottomUp).unwrap(),
            )
        })
    });
}

/// One `BMatchJoin` series: the optimized bounded join under `plan`.
fn bmatch_join_series(
    g: &mut BenchmarkGroup<'_>,
    id: &str,
    s: &BoundedSetup,
    plan: &ContainmentPlan,
) {
    g.bench_function(id, |b| {
        b.iter(|| {
            std::hint::black_box(
                bmatch_join_with(&s.query, plan, &s.ext, JoinStrategy::RankedBottomUp).unwrap(),
            )
        })
    });
}

/// Fig. 8(a)–(c): `Match` vs `MatchJoin_{mnl,min}` on one emulator.
fn plain_figure(c: &mut Criterion, name: &str, s: PlainSetup) {
    let mnl = minimal(&s.query, &s.views).expect("contained");
    let min = minimum(&s.query, &s.views).expect("contained");
    let mut g = c.benchmark_group(name);
    g.sample_size(20);
    g.bench_function("Match", |b| {
        b.iter(|| std::hint::black_box(match_pattern(&s.query, &s.g)))
    });
    match_join_series(&mut g, "MatchJoin_mnl", &s, &mnl.plan);
    match_join_series(&mut g, "MatchJoin_min", &s, &min.plan);
    g.finish();
}

/// Fig. 8(i)–(k): `BMatch` vs `BMatchJoin_{mnl,min}` on one emulator.
fn bounded_figure(c: &mut Criterion, name: &str, s: BoundedSetup) {
    let mnl = bminimal(&s.query, &s.views).expect("contained");
    let min = bminimum(&s.query, &s.views).expect("contained");
    let mut g = c.benchmark_group(name);
    g.sample_size(10);
    g.bench_function("BMatch", |b| {
        b.iter(|| std::hint::black_box(bmatch_pattern(&s.query, &s.g)))
    });
    bmatch_join_series(&mut g, "BMatchJoin_mnl", &s, &mnl.plan);
    bmatch_join_series(&mut g, "BMatchJoin_min", &s, &min.plan);
    g.finish();
}

/// Fig. 8(a): the Amazon emulator.
fn fig8a(c: &mut Criterion) {
    plain_figure(c, "fig8a", plain(Dataset::Amazon, 11_000, (6, 9), 42));
}

/// Fig. 8(b): the Citation emulator.
fn fig8b(c: &mut Criterion) {
    plain_figure(c, "fig8b", plain(Dataset::Citation, 28_000, (6, 12), 42));
}

/// Fig. 8(c): the YouTube emulator.
fn fig8c(c: &mut Criterion) {
    plain_figure(c, "fig8c", plain(Dataset::YouTube, 32_000, (6, 12), 42));
}

/// Fig. 8(d): scalability with |G| on synthetic graphs (|E| = 2|V|,
/// Q = (4,6)); two graph sizes bound the paper's sweep.
fn fig8d(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8d");
    g.sample_size(15);
    for n in [6_000usize, 20_000] {
        let s = plain(Dataset::Synthetic, n, (4, 6), 42);
        let sel = minimum(&s.query, &s.views).expect("contained");
        g.bench_function(format!("Match/|V|={n}"), |b| {
            b.iter(|| std::hint::black_box(match_pattern(&s.query, &s.g)))
        });
        match_join_series(&mut g, &format!("MatchJoin_min/|V|={n}"), &s, &sel.plan);
    }
    g.finish();
}

/// Fig. 8(e): `MatchJoin_min` across query sizes Q1..Q4 ((4,8)..(7,14)) on
/// a fixed synthetic graph.
fn fig8e(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8e");
    g.sample_size(15);
    for (i, size) in [(4, 8), (5, 10), (6, 12), (7, 14)].into_iter().enumerate() {
        let s = plain(Dataset::Synthetic, 12_000, size, 42 + i as u64);
        let sel = minimum(&s.query, &s.views).expect("contained");
        match_join_series(&mut g, &format!("MatchJoin_min/Q{}", i + 1), &s, &sel.plan);
    }
    g.finish();
}

/// Fig. 8(f): the rank-based bottom-up optimization vs the literal Fig. 2
/// fixpoint, on a densification-law graph (α = 1.15).
fn fig8f(c: &mut Criterion) {
    let s = plain(Dataset::Densification(1.15), 8_000, (4, 6), 42);
    let sel = minimum(&s.query, &s.views).expect("contained");
    let mut g = c.benchmark_group("fig8f");
    g.sample_size(20);
    g.bench_function("MatchJoin_nopt", |b| {
        b.iter(|| {
            std::hint::black_box(
                match_join_with(&s.query, &sel.plan, &s.ext, JoinStrategy::NaiveFixpoint).unwrap(),
            )
        })
    });
    match_join_series(&mut g, "MatchJoin_min", &s, &sel.plan);
    g.finish();
}

/// Fig. 8(g): `contain` on DAG vs cyclic patterns.
fn fig8g(c: &mut Criterion) {
    let pool: Vec<_> = (0..8)
        .map(|i| random_pattern(5, 8, &DEFAULT_ALPHABET, PatternShape::Any, 100 + i))
        .collect();
    let views = covering_views(&pool, 3, 7);
    let dag = random_pattern(10, 20, &DEFAULT_ALPHABET, PatternShape::Dag, 1);
    let cyc = random_pattern(10, 20, &DEFAULT_ALPHABET, PatternShape::Cyclic, 2);

    let mut g = c.benchmark_group("fig8g");
    g.bench_function("contain/QDAG(10,20)", |b| {
        b.iter(|| std::hint::black_box(contain(&dag, &views)))
    });
    g.bench_function("contain/QCyclic(10,20)", |b| {
        b.iter(|| std::hint::black_box(contain(&cyc, &views)))
    });
    g.finish();
}

/// Fig. 8(h): `minimum` vs `minimal` selection cost on cyclic patterns.
fn fig8h(c: &mut Criterion) {
    let q = random_pattern(10, 20, &DEFAULT_ALPHABET, PatternShape::Cyclic, 3);
    let qs = [q.clone()];
    let mut views = label_pair_views(&qs).views().to_vec();
    views.extend(covering_views(&qs, 3, 9).views().iter().cloned());
    views.extend(covering_views(&qs, 10, 11).views().iter().cloned());
    let views = ViewSet::new(views);

    let mut g = c.benchmark_group("fig8h");
    g.bench_function("minimal(10,20)", |b| {
        b.iter(|| std::hint::black_box(minimal(&q, &views)))
    });
    g.bench_function("minimum(10,20)", |b| {
        b.iter(|| std::hint::black_box(minimum(&q, &views)))
    });
    g.finish();
}

/// Fig. 8(i): the Amazon emulator, uniform edge bound fe(e) = 2.
fn fig8i(c: &mut Criterion) {
    bounded_figure(c, "fig8i", bounded(Dataset::Amazon, 9_000, (6, 9), 2, 42));
}

/// Fig. 8(j): the Citation emulator, fe(e) = 3.
fn fig8j(c: &mut Criterion) {
    bounded_figure(
        c,
        "fig8j",
        bounded(Dataset::Citation, 14_000, (6, 12), 3, 42),
    );
}

/// Fig. 8(k): the YouTube emulator, fe(e) = 3.
fn fig8k(c: &mut Criterion) {
    bounded_figure(c, "fig8k", bounded(Dataset::YouTube, 16_000, (4, 8), 3, 42));
}

/// Fig. 8(l): bounded scalability with |G| on synthetic graphs (Q = (4,6),
/// fe = 3).
fn fig8l(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8l");
    g.sample_size(10);
    for n in [6_000usize, 20_000] {
        let s = bounded(Dataset::Synthetic, n, (4, 6), 3, 42);
        let sel = bminimum(&s.query, &s.views).expect("contained");
        g.bench_function(format!("BMatch/|V|={n}"), |b| {
            b.iter(|| std::hint::black_box(bmatch_pattern(&s.query, &s.g)))
        });
        bmatch_join_series(&mut g, &format!("BMatchJoin_min/|V|={n}"), &s, &sel.plan);
    }
    g.finish();
}

criterion_group!(
    benches, fig8a, fig8b, fig8c, fig8d, fig8e, fig8f, fig8g, fig8h, fig8i, fig8j, fig8k, fig8l
);
criterion_main!(benches);
