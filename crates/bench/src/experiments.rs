//! Experiment definitions: one function per figure of the paper.

use gpv_core::bcontainment::{bcontain, bminimal, bminimum};
use gpv_core::bmatchjoin::bmatch_join_with;
use gpv_core::bview::{bmaterialize, BoundedViewSet};
use gpv_core::containment::contain;
use gpv_core::engine::{EngineConfig, QueryEngine};
use gpv_core::matchjoin::{match_join_with, JoinStrategy};
use gpv_core::minimal::{minimal, Selection};
use gpv_core::minimum::minimum;
use gpv_core::plan::{ExecStrategy, SelectionMode};
use gpv_core::view::{materialize, ViewSet};
use gpv_generator::{
    amazon, amazon_predicate_pool, citation, citation_predicate_pool, covering_bounded_views,
    covering_views, densification_graph, random_graph, random_pattern, random_pattern_with_preds,
    uniform_bounded_pattern, uniform_bounded_pattern_with_preds, youtube, youtube_predicate_pool,
    ExecKnob, GraphSource, PatternShape, QueryMode, Scenario, DEFAULT_ALPHABET,
};
use gpv_graph::DataGraph;
use gpv_matching::bounded::bmatch_pattern;
use gpv_matching::simulation::match_pattern;
use gpv_pattern::{BoundedPattern, Pattern};
use serde::Serialize;
use std::time::Instant;

/// Scale factor applied to the paper's graph sizes (1.0 = paper scale).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Scale(pub f64);

impl Scale {
    /// Default laptop-friendly scale.
    pub fn default_scale() -> Self {
        Scale(0.02)
    }

    /// Scales a paper-sized node count, keeping at least 1 000 nodes.
    pub fn nodes(&self, paper_n: usize) -> usize {
        ((paper_n as f64) * self.0).round().max(1_000.0) as usize
    }
}

/// One x-axis point of a figure: the x label plus `(series name, value)`
/// measurements. Values are seconds unless the experiment says otherwise.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// X-axis label, e.g. `"(4,6)"` or `"0.3M"`.
    pub x: String,
    /// `(series, value)` pairs, e.g. `("Match", 1.9)`.
    pub series: Vec<(String, f64)>,
    /// One-line [`Scenario`] JSON describing this
    /// row's workload knobs, attached to the performance-tracking
    /// experiments (`engine`, `service`). The same schema `gpv fuzz
    /// --repro` consumes, so a recorded BENCH row can be replayed as a
    /// differential check of its configuration class. `None` on the
    /// paper-figure reproductions.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
}

/// Host metadata attached to the performance-tracking experiments
/// (`engine`, `service`), so a recorded `BENCH_*.json` is self-describing:
/// parallel-series numbers from a 1-core container cannot be misread as a
/// scaling result when the row says `cores: 1` next to them.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub cores: usize,
    /// What `gpv_core::auto_threads()` resolves to (the executor's default
    /// worker count — cached `available_parallelism`).
    pub auto_threads: usize,
}

impl HostInfo {
    /// Probes the current host.
    pub fn probe() -> Self {
        HostInfo {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            auto_threads: gpv_core::parallel::auto_threads(),
        }
    }
}

/// A complete experiment result.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `"fig8a"`.
    pub id: String,
    /// Human title as in the paper.
    pub title: String,
    /// Unit of the values (`"s"`, `"ms"`, `"ratio"`, ...).
    pub unit: String,
    /// Host metadata for performance-tracking experiments (`None` for the
    /// paper-figure reproductions, whose series are ratios/contrasts that
    /// do not depend on core count).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub host: Option<HostInfo>,
    /// The measured rows.
    pub rows: Vec<Row>,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The [`Scenario`] descriptor attached to performance-tracking rows: the
/// row's synthetic workload knobs in the same one-line JSON schema `gpv
/// fuzz --repro` consumes. It pins the workload class — graph scale, query
/// sizes, view coverage, cache/shard settings — with the mode/executor
/// knobs set to the configuration the experiment forces as its baseline;
/// series that sweep executors on top of that baseline say so in their
/// names.
fn row_scenario(
    nodes: usize,
    queries: usize,
    batch_len: usize,
    rounds: usize,
    mode: QueryMode,
    shards: usize,
    seed: u64,
) -> String {
    Scenario {
        seed,
        graph: GraphSource::Synthetic {
            nodes,
            edges: 2 * nodes,
            labels: DEFAULT_ALPHABET.len(),
        },
        queries,
        query_nodes: 4,
        query_edges: 6,
        shape: PatternShape::Any,
        max_bound: 1,
        zipf_s: 0.0,
        batch_len,
        rounds,
        updates_per_round: 0,
        delta_batch_len: 0,
        delete_ratio: 0.0,
        coverage: 1.0,
        max_fragment: 3,
        mode,
        exec: ExecKnob::Sequential,
        threads: 1,
        result_cache_bytes: 64 << 20,
        plan_cache_capacity: 4096,
        shards,
    }
    .to_json_line()
}

/// A *selective* view set for the matching experiments: medium fragments
/// (2-3 edges, structurally selective like the paper's curated views) plus
/// large fragments that `minimum` can exploit. Single-edge views are
/// deliberately excluded here — their extensions are nearly all label-pair
/// edges of `G`, which would inflate `|V(G)|` toward `|G|` and defeat the
/// point of view-based matching.
fn selective_views(queries: &[Pattern], seed: u64) -> ViewSet {
    let mut views = covering_views(queries, 3, seed).views().to_vec();
    let max_ne = queries.iter().map(Pattern::edge_count).max().unwrap_or(1);
    views.extend(
        covering_views(queries, max_ne.max(4), seed ^ 0xabcd)
            .views()
            .iter()
            .cloned(),
    );
    let mut seen: Vec<Pattern> = Vec::new();
    let mut out = Vec::new();
    for (i, v) in views.into_iter().enumerate() {
        if !seen.contains(&v.pattern) {
            seen.push(v.pattern.clone());
            out.push(gpv_core::view::ViewDef::new(
                format!("V{}", i + 1),
                v.pattern,
            ));
        }
    }
    ViewSet::new(out)
}

/// A view set with deliberate size diversity, mirroring the paper's curated
/// sets: single-edge views first (cheap, numerous), then medium fragments,
/// then large fragments covering most of a query. `minimal`'s in-order scan
/// picks up many small views, while `minimum` can grab the large ones —
/// which is exactly the contrast Fig. 8(h) measures.
fn mixed_views(queries: &[Pattern], seed: u64) -> ViewSet {
    let mut views = gpv_generator::label_pair_views(queries).views().to_vec();
    views.extend(covering_views(queries, 3, seed).views().iter().cloned());
    let max_ne = queries.iter().map(Pattern::edge_count).max().unwrap_or(1);
    views.extend(
        covering_views(queries, max_ne.max(4), seed ^ 0xabcd)
            .views()
            .iter()
            .cloned(),
    );
    // Dedup identical patterns, keeping first occurrence (small first).
    let mut seen: Vec<Pattern> = Vec::new();
    let mut out = Vec::new();
    for (i, v) in views.into_iter().enumerate() {
        if !seen.contains(&v.pattern) {
            seen.push(v.pattern.clone());
            out.push(gpv_core::view::ViewDef::new(
                format!("V{}", i + 1),
                v.pattern,
            ));
        }
    }
    ViewSet::new(out)
}

/// Bounded analogue of [`mixed_views`].
fn mixed_bounded_views(queries: &[BoundedPattern], seed: u64) -> BoundedViewSet {
    let mut views = covering_bounded_views(queries, 2, seed).views().to_vec();
    views.extend(
        covering_bounded_views(queries, 3, seed ^ 0x1111)
            .views()
            .iter()
            .cloned(),
    );
    let max_ne = queries
        .iter()
        .map(|q| q.pattern().edge_count())
        .max()
        .unwrap_or(1);
    views.extend(
        covering_bounded_views(queries, max_ne.max(4), seed ^ 0xabcd)
            .views()
            .iter()
            .cloned(),
    );
    let mut seen: Vec<BoundedPattern> = Vec::new();
    let mut out = Vec::new();
    for (i, v) in views.into_iter().enumerate() {
        if !seen.contains(&v.pattern) {
            seen.push(v.pattern.clone());
            out.push(gpv_core::bview::BoundedViewDef::new(
                format!("V{}", i + 1),
                v.pattern,
            ));
        }
    }
    BoundedViewSet::new(out)
}

/// Builds per-size query sets: `count` patterns of each `(nv, ne)` size.
fn query_set(
    sizes: &[(usize, usize)],
    count: usize,
    shape: PatternShape,
    seed: u64,
) -> Vec<Vec<Pattern>> {
    sizes
        .iter()
        .enumerate()
        .map(|(si, &(nv, ne))| {
            (0..count)
                .map(|i| {
                    random_pattern(
                        nv,
                        ne,
                        &DEFAULT_ALPHABET,
                        shape,
                        seed + (si * count + i) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

/// Predicate-pattern queries over a dataset's schema (the paper's real-life
/// workloads carry Fig. 7-style search conditions, which is what keeps view
/// extensions small relative to `G`).
fn dataset_queries(
    pool: &[gpv_pattern::Predicate],
    sizes: &[(usize, usize)],
    count: usize,
    seed: u64,
) -> Vec<Vec<Pattern>> {
    sizes
        .iter()
        .enumerate()
        .map(|(si, &(nv, ne))| {
            (0..count)
                .map(|i| {
                    random_pattern_with_preds(
                        nv,
                        ne,
                        pool,
                        PatternShape::Any,
                        seed + (si * count + i) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

/// An [`EngineConfig`] pinning the figure's selection mode and the
/// sequential ranked executor, so the fig8 series measure exactly the
/// paper's comparison on any machine (planner auto-tuning is benched
/// separately by [`engine_experiment`]).
fn figure_config(selection: SelectionMode) -> EngineConfig {
    EngineConfig {
        force_selection: Some(selection),
        force_exec: Some(ExecStrategy::Sequential(JoinStrategy::RankedBottomUp)),
        ..EngineConfig::default()
    }
}

/// The common Fig. 8(a)–(c) runner: Match vs MatchJoin_mnl vs MatchJoin_min
/// over one dataset, varying |Qs|. The view paths go through the
/// [`QueryEngine`]: planning (containment + selection) stays untimed, as in
/// the paper's setup where views are pre-selected; the timed section is
/// plan execution only.
fn run_plain_dataset(
    id: &str,
    title: &str,
    g: DataGraph,
    sizes: &[(usize, usize)],
    queries: Vec<Vec<Pattern>>,
    seed: u64,
) -> ExperimentResult {
    // The cached view set covers the whole workload (the paper pre-defines
    // 12 views per dataset known to answer its queries).
    let all: Vec<Pattern> = queries.iter().flatten().cloned().collect();
    let views = selective_views(&all, seed);
    let mut engine = QueryEngine::materialize(views, &g);

    let mut rows = Vec::new();
    for (si, qs) in queries.iter().enumerate() {
        let (mut t_match, mut t_mnl, mut t_min) = (0.0, 0.0, 0.0);
        for q in qs {
            t_match += secs(|| {
                std::hint::black_box(match_pattern(q, &g));
            });
            engine.set_config(figure_config(SelectionMode::Minimal));
            let plan_mnl = engine.plan(q);
            assert!(!plan_mnl.needs_graph(), "covering views contain q");
            t_mnl += secs(|| {
                std::hint::black_box(engine.execute(q, &plan_mnl, None).unwrap());
            });
            engine.set_config(figure_config(SelectionMode::Minimum));
            let plan_min = engine.plan(q);
            t_min += secs(|| {
                std::hint::black_box(engine.execute(q, &plan_min, None).unwrap());
            });
        }
        let n = qs.len() as f64;
        rows.push(Row {
            scenario: None,
            x: format!("({},{})", sizes[si].0, sizes[si].1),
            series: vec![
                ("Match".into(), t_match / n),
                ("MatchJoin_mnl".into(), t_mnl / n),
                ("MatchJoin_min".into(), t_min / n),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: id.into(),
        title: title.into(),
        unit: "s".into(),
        rows,
    }
}

/// Fig. 8(a): varying |Qs| on Amazon.
pub fn fig8a(scale: Scale, seed: u64) -> ExperimentResult {
    let g = amazon(scale.nodes(548_000), seed);
    let sizes = [
        (4, 4),
        (4, 6),
        (4, 8),
        (6, 6),
        (6, 9),
        (6, 12),
        (8, 8),
        (8, 12),
        (8, 16),
    ];
    let queries = dataset_queries(&amazon_predicate_pool(), &sizes, 3, seed);
    run_plain_dataset("fig8a", "Varying |Qs| (Amazon)", g, &sizes, queries, seed)
}

/// Fig. 8(b): varying |Qs| on Citation.
pub fn fig8b(scale: Scale, seed: u64) -> ExperimentResult {
    let g = citation(scale.nodes(1_400_000), seed);
    let sizes = [(4, 8), (5, 10), (6, 12), (7, 14), (8, 16)];
    let queries = dataset_queries(&citation_predicate_pool(), &sizes, 3, seed);
    run_plain_dataset("fig8b", "Varying |Qs| (Citation)", g, &sizes, queries, seed)
}

/// Fig. 8(c): varying |Qs| on YouTube.
pub fn fig8c(scale: Scale, seed: u64) -> ExperimentResult {
    let g = youtube(scale.nodes(1_600_000), seed);
    let sizes = [(4, 8), (5, 10), (6, 12), (7, 14), (8, 16)];
    let queries = dataset_queries(&youtube_predicate_pool(), &sizes, 3, seed);
    run_plain_dataset("fig8c", "Varying |Qs| (YouTube)", g, &sizes, queries, seed)
}

/// Fig. 8(d): varying |G| on synthetic graphs, |E| = 2|V|, Q = (4,6).
pub fn fig8d(scale: Scale, seed: u64) -> ExperimentResult {
    let queries: Vec<Pattern> = (0..3)
        .map(|i| random_pattern(4, 6, &DEFAULT_ALPHABET, PatternShape::Any, seed + i))
        .collect();
    let views = selective_views(&queries, seed);

    let mut rows = Vec::new();
    for step in 0..8 {
        let paper_n = 300_000 + step * 100_000;
        let n = scale.nodes(paper_n);
        let g = random_graph(n, 2 * n, &DEFAULT_ALPHABET, seed + step as u64);
        let mut engine = QueryEngine::materialize(views.clone(), &g);
        let (mut t_match, mut t_mnl, mut t_min) = (0.0, 0.0, 0.0);
        for q in &queries {
            t_match += secs(|| {
                std::hint::black_box(match_pattern(q, &g));
            });
            engine.set_config(figure_config(SelectionMode::Minimal));
            let plan = engine.plan(q);
            assert!(!plan.needs_graph(), "covering views contain q");
            t_mnl += secs(|| {
                std::hint::black_box(engine.execute(q, &plan, None).unwrap());
            });
            engine.set_config(figure_config(SelectionMode::Minimum));
            let plan = engine.plan(q);
            t_min += secs(|| {
                std::hint::black_box(engine.execute(q, &plan, None).unwrap());
            });
        }
        let c = queries.len() as f64;
        rows.push(Row {
            scenario: None,
            x: format!("{:.1}M", paper_n as f64 / 1e6),
            series: vec![
                ("Match".into(), t_match / c),
                ("MatchJoin_mnl".into(), t_mnl / c),
                ("MatchJoin_min".into(), t_min / c),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: "fig8d".into(),
        title: "Varying |G| (synthetic)".into(),
        unit: "s".into(),
        rows,
    }
}

/// Fig. 8(e): varying |G| and |Qs| — MatchJoin_min for Q1..Q4 of sizes
/// (4,8)..(7,14).
pub fn fig8e(scale: Scale, seed: u64) -> ExperimentResult {
    let sizes = [(4, 8), (5, 10), (6, 12), (7, 14)];
    let queries: Vec<Pattern> = sizes
        .iter()
        .enumerate()
        .map(|(i, &(nv, ne))| {
            random_pattern(
                nv,
                ne,
                &DEFAULT_ALPHABET,
                PatternShape::Any,
                seed + i as u64,
            )
        })
        .collect();
    let views = covering_views(&queries, 3, seed);

    let mut rows = Vec::new();
    for step in 0..8 {
        let paper_n = 300_000 + step * 100_000;
        let n = scale.nodes(paper_n);
        let g = random_graph(n, 2 * n, &DEFAULT_ALPHABET, seed + step as u64);
        let ext = materialize(&views, &g);
        let mut series = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let sel = minimum(q, &views).unwrap();
            let t = secs(|| {
                std::hint::black_box(
                    match_join_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp).unwrap(),
                );
            });
            series.push((format!("MatchJoin_min[Q{}]", i + 1), t));
        }
        rows.push(Row {
            scenario: None,
            x: format!("{:.1}M", paper_n as f64 / 1e6),
            series,
        });
    }
    ExperimentResult {
        host: None,
        id: "fig8e".into(),
        title: "Varying |G| and |Qs| (synthetic)".into(),
        unit: "s".into(),
        rows,
    }
}

/// Fig. 8(f): optimization effectiveness — MatchJoin_nopt vs MatchJoin_min
/// on densification-law graphs, |V| = 200K (scaled), α ∈ [1, 1.25].
pub fn fig8f(scale: Scale, seed: u64) -> ExperimentResult {
    use gpv_core::matchjoin::match_join_union_with;
    let queries: Vec<Pattern> = (0..3)
        .map(|i| random_pattern(4, 6, &DEFAULT_ALPHABET, PatternShape::Cyclic, seed + i))
        .collect();
    // Mixed views (including coarse single-edge ones): the union merge then
    // hands the fixpoint substantial pruning work, which is what the
    // bottom-up strategy is for.
    let views = mixed_views(&queries, seed);
    // Keep a meaningful density: the optimization pays off when the merged
    // sets leave real pruning work, which needs graphs beyond toy size.
    let n = scale.nodes(200_000).max(50_000);

    let mut rows = Vec::new();
    for step in 0..6 {
        let alpha = 1.0 + 0.05 * step as f64;
        let g = densification_graph(n, alpha, &DEFAULT_ALPHABET, seed + step as u64);
        let ext = materialize(&views, &g);
        let (mut t_nopt, mut t_min) = (0.0, 0.0);
        for q in &queries {
            let sel = minimum(q, &views).unwrap();
            // Both arms start from the literal Fig. 2 union merge, so the
            // measured contrast is purely the worklist strategy.
            t_nopt += secs(|| {
                std::hint::black_box(
                    match_join_union_with(q, &sel.plan, &ext, JoinStrategy::NaiveFixpoint).unwrap(),
                );
            });
            t_min += secs(|| {
                std::hint::black_box(
                    match_join_union_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp)
                        .unwrap(),
                );
            });
        }
        let c = queries.len() as f64;
        rows.push(Row {
            scenario: None,
            x: format!("{alpha:.2}"),
            series: vec![
                ("MatchJoin_nopt".into(), t_nopt / c),
                ("MatchJoin_min".into(), t_min / c),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: "fig8f".into(),
        title: "Optimization: varying α (synthetic)".into(),
        unit: "s".into(),
        rows,
    }
}

/// Builds the synthetic 22-view set used by the containment experiments.
fn synthetic_views_for_containment(seed: u64) -> ViewSet {
    let pool: Vec<Pattern> = (0..8)
        .map(|i| random_pattern(5, 8, &DEFAULT_ALPHABET, PatternShape::Any, seed + 100 + i))
        .collect();
    covering_views(&pool, 3, seed)
}

/// Fig. 8(g): efficiency of `contain` on DAG vs cyclic patterns.
pub fn fig8g(_scale: Scale, seed: u64) -> ExperimentResult {
    let views = synthetic_views_for_containment(seed);
    let sizes = [
        (6, 6),
        (6, 12),
        (7, 7),
        (7, 14),
        (8, 8),
        (8, 16),
        (9, 9),
        (9, 18),
        (10, 10),
        (10, 20),
    ];
    let dag = query_set(&sizes, 5, PatternShape::Dag, seed);
    let cyc = query_set(&sizes, 5, PatternShape::Cyclic, seed + 1000);

    let mut rows = Vec::new();
    for (si, &(nv, ne)) in sizes.iter().enumerate() {
        let t_dag = secs(|| {
            for q in &dag[si] {
                std::hint::black_box(contain(q, &views));
            }
        }) / dag[si].len() as f64;
        let t_cyc = secs(|| {
            for q in &cyc[si] {
                std::hint::black_box(contain(q, &views));
            }
        }) / cyc[si].len() as f64;
        rows.push(Row {
            scenario: None,
            x: format!("({nv},{ne})"),
            series: vec![
                ("QDAG".into(), t_dag * 1e3),
                ("QCyclic".into(), t_cyc * 1e3),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: "fig8g".into(),
        title: "contain efficiency: DAG vs cyclic patterns".into(),
        unit: "ms".into(),
        rows,
    }
}

/// Fig. 8(h): `minimum` vs `minimal` — R1 (time ratio) and R2 (selected
/// set-size ratio) on cyclic patterns.
pub fn fig8h(_scale: Scale, seed: u64) -> ExperimentResult {
    let views = synthetic_views_for_containment(seed);
    let sizes = [
        (6, 6),
        (6, 12),
        (7, 7),
        (7, 14),
        (8, 8),
        (8, 16),
        (9, 9),
        (9, 18),
        (10, 10),
        (10, 20),
    ];
    let mut rows = Vec::new();
    for &(nv, ne) in &sizes {
        // Queries drawn from view compositions so containment holds and the
        // selection problem is nontrivial.
        let qs: Vec<Pattern> = (0..5)
            .map(|i| {
                random_pattern(
                    nv,
                    ne,
                    &DEFAULT_ALPHABET,
                    PatternShape::Cyclic,
                    seed + (nv * 31 + ne * 7 + i) as u64,
                )
            })
            .collect();
        let all_views = {
            // Workload views (small first, large later) + the fixed
            // synthetic set (paper: same fixed set V across sizes).
            let mut vs = mixed_views(&qs, seed).views().to_vec();
            vs.extend(views.views().iter().cloned());
            ViewSet::new(vs)
        };
        let (mut t_mnl, mut t_min) = (0.0, 0.0);
        let (mut s_mnl, mut s_min) = (0usize, 0usize);
        for q in &qs {
            let mut sel: Option<Selection> = None;
            t_mnl += secs(|| {
                sel = minimal(q, &all_views);
            });
            s_mnl += sel.as_ref().map(|s| s.views.len()).unwrap_or(0);
            let mut sel2: Option<Selection> = None;
            t_min += secs(|| {
                sel2 = minimum(q, &all_views);
            });
            s_min += sel2.as_ref().map(|s| s.views.len()).unwrap_or(0);
        }
        rows.push(Row {
            scenario: None,
            x: format!("({nv},{ne})"),
            series: vec![
                (
                    "R1 (Tmin/Tmnl)".into(),
                    if t_mnl > 0.0 { t_min / t_mnl } else { 0.0 },
                ),
                (
                    "R2 (|Minimum|/|Minimal|)".into(),
                    if s_mnl > 0 {
                        s_min as f64 / s_mnl as f64
                    } else {
                        0.0
                    },
                ),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: "fig8h".into(),
        title: "minimum vs minimal (cyclic patterns)".into(),
        unit: "ratio".into(),
        rows,
    }
}

/// The common bounded runner: BMatch vs BMatchJoin_mnl vs BMatchJoin_min.
fn run_bounded_dataset(
    id: &str,
    title: &str,
    g: DataGraph,
    pool: &[gpv_pattern::Predicate],
    sizes: &[(usize, usize)],
    k: u32,
    seed: u64,
) -> ExperimentResult {
    let queries: Vec<Vec<BoundedPattern>> = sizes
        .iter()
        .enumerate()
        .map(|(si, &(nv, ne))| {
            (0..2)
                .map(|i| {
                    uniform_bounded_pattern_with_preds(
                        nv,
                        ne,
                        pool,
                        k,
                        PatternShape::Any,
                        seed + (si * 2 + i) as u64,
                    )
                })
                .collect()
        })
        .collect();
    let all: Vec<BoundedPattern> = queries.iter().flatten().cloned().collect();
    let views = mixed_bounded_views(&all, seed);
    let ext = bmaterialize(&views, &g);

    let mut rows = Vec::new();
    for (si, qs) in queries.iter().enumerate() {
        let (mut t_bmatch, mut t_mnl, mut t_min) = (0.0, 0.0, 0.0);
        for q in qs {
            t_bmatch += secs(|| {
                std::hint::black_box(bmatch_pattern(q, &g));
            });
            let sel = bminimal(q, &views).expect("covering views contain q");
            t_mnl += secs(|| {
                std::hint::black_box(
                    bmatch_join_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp).unwrap(),
                );
            });
            let sel = bminimum(q, &views).expect("covering views contain q");
            t_min += secs(|| {
                std::hint::black_box(
                    bmatch_join_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp).unwrap(),
                );
            });
        }
        let n = qs.len() as f64;
        rows.push(Row {
            scenario: None,
            x: format!("({},{},{k})", sizes[si].0, sizes[si].1),
            series: vec![
                ("BMatch".into(), t_bmatch / n),
                ("BMatchJoin_mnl".into(), t_mnl / n),
                ("BMatchJoin_min".into(), t_min / n),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: id.into(),
        title: title.into(),
        unit: "s".into(),
        rows,
    }
}

/// Fig. 8(i): bounded patterns on Amazon, fe(e) = 2.
pub fn fig8i(scale: Scale, seed: u64) -> ExperimentResult {
    let g = amazon(scale.nodes(548_000), seed);
    let sizes = [
        (4, 4),
        (4, 6),
        (4, 8),
        (6, 6),
        (6, 9),
        (6, 12),
        (8, 8),
        (8, 12),
        (8, 16),
    ];
    run_bounded_dataset(
        "fig8i",
        "Varying |Qb| (Amazon, fe=2)",
        g,
        &amazon_predicate_pool(),
        &sizes,
        2,
        seed,
    )
}

/// Fig. 8(j): bounded patterns on Citation, fe(e) = 3.
pub fn fig8j(scale: Scale, seed: u64) -> ExperimentResult {
    let g = citation(scale.nodes(1_400_000), seed);
    let sizes = [(4, 8), (5, 10), (6, 12), (7, 14), (8, 16)];
    run_bounded_dataset(
        "fig8j",
        "Varying |Qb| (Citation, fe=3)",
        g,
        &citation_predicate_pool(),
        &sizes,
        3,
        seed,
    )
}

/// Fig. 8(k): varying fe(e) from 2 to 6 on YouTube, Q = (4, 8).
pub fn fig8k(scale: Scale, seed: u64) -> ExperimentResult {
    let g = youtube(scale.nodes(1_600_000), seed);
    let pool = youtube_predicate_pool();

    let mut rows = Vec::new();
    for k in 2..=6u32 {
        let queries: Vec<BoundedPattern> = (0..2)
            .map(|i| {
                uniform_bounded_pattern_with_preds(4, 8, &pool, k, PatternShape::Any, seed + i)
            })
            .collect();
        let views = mixed_bounded_views(&queries, seed + k as u64);
        let ext = bmaterialize(&views, &g);
        let (mut t_bmatch, mut t_mnl, mut t_min) = (0.0, 0.0, 0.0);
        for q in &queries {
            t_bmatch += secs(|| {
                std::hint::black_box(bmatch_pattern(q, &g));
            });
            let sel = bminimal(q, &views).unwrap();
            t_mnl += secs(|| {
                std::hint::black_box(
                    bmatch_join_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp).unwrap(),
                );
            });
            let sel = bminimum(q, &views).unwrap();
            t_min += secs(|| {
                std::hint::black_box(
                    bmatch_join_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp).unwrap(),
                );
            });
        }
        let n = queries.len() as f64;
        rows.push(Row {
            scenario: None,
            x: format!("{k}"),
            series: vec![
                ("BMatch".into(), t_bmatch / n),
                ("BMatchJoin_mnl".into(), t_mnl / n),
                ("BMatchJoin_min".into(), t_min / n),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: "fig8k".into(),
        title: "Varying fe(e) (YouTube)".into(),
        unit: "s".into(),
        rows,
    }
}

/// Fig. 8(l): bounded scalability on synthetic graphs — Q = (4,6), fe = 3,
/// |V| 0.3M → 1M (scaled), |E| = 2|V|.
pub fn fig8l(scale: Scale, seed: u64) -> ExperimentResult {
    let queries: Vec<BoundedPattern> = (0..2)
        .map(|i| uniform_bounded_pattern(4, 6, &DEFAULT_ALPHABET, 3, PatternShape::Any, seed + i))
        .collect();
    let views = mixed_bounded_views(&queries, seed);

    let mut rows = Vec::new();
    for step in 0..8 {
        let paper_n = 300_000 + step * 100_000;
        let n = scale.nodes(paper_n);
        let g = random_graph(n, 2 * n, &DEFAULT_ALPHABET, seed + step as u64);
        let ext = bmaterialize(&views, &g);
        let (mut t_bmatch, mut t_mnl, mut t_min) = (0.0, 0.0, 0.0);
        for q in &queries {
            t_bmatch += secs(|| {
                std::hint::black_box(bmatch_pattern(q, &g));
            });
            let sel = bminimal(q, &views).unwrap();
            t_mnl += secs(|| {
                std::hint::black_box(
                    bmatch_join_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp).unwrap(),
                );
            });
            let sel = bminimum(q, &views).unwrap();
            t_min += secs(|| {
                std::hint::black_box(
                    bmatch_join_with(q, &sel.plan, &ext, JoinStrategy::RankedBottomUp).unwrap(),
                );
            });
        }
        let c = queries.len() as f64;
        rows.push(Row {
            scenario: None,
            x: format!("{:.1}M", paper_n as f64 / 1e6),
            series: vec![
                ("BMatch".into(), t_bmatch / c),
                ("BMatchJoin_mnl".into(), t_mnl / c),
                ("BMatchJoin_min".into(), t_min / c),
            ],
        });
    }
    ExperimentResult {
        host: None,
        id: "fig8l".into(),
        title: "Bounded scalability: varying |G| (synthetic)".into(),
        unit: "s".into(),
        rows,
    }
}

/// Engine bench: the unified `QueryEngine` on a fig8(d)-style synthetic
/// workload — planner overhead, sequential `MatchJoin`, and the parallel
/// executor at auto / 2 / 4 workers, varying |G|. The parallel series only
/// beat the sequential one when the machine actually has spare cores
/// (`threads=1` degrades to inline execution by design); the point of the
/// experiment is recording that trajectory per host.
pub fn engine_experiment(scale: Scale, seed: u64) -> ExperimentResult {
    use gpv_core::par_match_join;
    let queries: Vec<Pattern> = (0..3)
        .map(|i| random_pattern(4, 6, &DEFAULT_ALPHABET, PatternShape::Any, seed + i))
        .collect();
    let views = selective_views(&queries, seed);
    let host = HostInfo::probe();

    let mut rows = Vec::new();
    for step in 0..4 {
        let paper_n = 400_000 + step * 400_000;
        let n = scale.nodes(paper_n);
        let g = random_graph(n, 2 * n, &DEFAULT_ALPHABET, seed + step as u64);
        let mut engine = QueryEngine::materialize(views.clone(), &g);
        engine.set_config(figure_config(SelectionMode::Minimum));
        let (mut t_plan, mut t_seq, mut t_auto, mut t_par2, mut t_par4) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for q in &queries {
            t_plan += secs(|| {
                std::hint::black_box(engine.plan(q));
            });
            let plan = engine.plan(q);
            assert!(!plan.needs_graph(), "covering views contain q");
            t_seq += secs(|| {
                std::hint::black_box(engine.execute(q, &plan, None).unwrap());
            });
            let gpv_core::QueryPlan::ViewsOnly(vp) = &plan else {
                unreachable!("checked above");
            };
            t_auto += secs(|| {
                std::hint::black_box(par_match_join(q, &vp.plan, engine.extensions(), 0).unwrap());
            });
            t_par2 += secs(|| {
                std::hint::black_box(par_match_join(q, &vp.plan, engine.extensions(), 2).unwrap());
            });
            t_par4 += secs(|| {
                std::hint::black_box(par_match_join(q, &vp.plan, engine.extensions(), 4).unwrap());
            });
        }
        // The columnar-arena series: read every cached pair the way the
        // join hot path does, through the flat arena vs the boxed
        // `Vec<Vec<(v, v')>>` representation the executors used to run on
        // (thawed back for the comparison), plus the resident bytes of
        // each. The arena read is a bare slice scan — freeze canonicalized
        // (sorted + deduped) every set once, so executors borrow it
        // verbatim. The boxed form carried no such guarantee, so its hot
        // path paid `canonical_pairs` on every read: a defensive copy plus
        // a sortedness check per edge set, per query. That per-read copy
        // is the throughput gap; the per-set `Vec` header and separate
        // allocation are the resident-bytes gap.
        let (t_flat_scan, t_boxed_scan, compact_resident, boxed_resident) = {
            let ext = engine.extensions();
            let boxed: Vec<_> = ext.extensions.iter().map(|v| v.thaw()).collect();
            fn flat_sweep(views: &[std::sync::Arc<gpv_core::CompactView>]) -> u64 {
                let mut acc = 0u64;
                for v in views {
                    for &(a, b) in v.all_pairs() {
                        acc = acc.wrapping_add(a.0 as u64 ^ b.0 as u64);
                    }
                }
                acc
            }
            fn boxed_sweep(results: &[gpv_matching::result::MatchResult]) -> u64 {
                let mut acc = 0u64;
                for r in results {
                    for set in &r.edge_matches {
                        // What `merged_from_sources` paid per read before
                        // the arena: copy, verify sorted, consume.
                        let mut v = set.clone();
                        if !v.windows(2).all(|w| w[0] < w[1]) {
                            v.sort_unstable();
                            v.dedup();
                        }
                        for &(a, b) in &v {
                            acc = acc.wrapping_add(a.0 as u64 ^ b.0 as u64);
                        }
                    }
                }
                acc
            }
            // Per-sweep wall time, minimum over interleaved timed batches
            // of `scan_reps` sweeps each: interleaving flat/boxed batches
            // keeps scheduler jitter and frequency drift on a shared
            // 1-core container from biasing whichever side is measured
            // second, and the min filters the remaining spikes. The data
            // reference is laundered through `black_box` every sweep so
            // the optimizer cannot hoist a pure loop-invariant sweep out
            // of the rep loop (it provably did for the arena side, whose
            // sweep allocates nothing). One untimed warm-up of each
            // first, so neither side pays the cold cache — the boxed
            // copies were just written by `thaw` and would otherwise
            // start warm while the arena starts cold.
            let scan_reps = 200;
            std::hint::black_box(flat_sweep(&ext.extensions) ^ boxed_sweep(&boxed));
            let (mut t_flat_scan, mut t_boxed_scan) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..9 {
                t_flat_scan = t_flat_scan.min(secs(|| {
                    let mut acc = 0u64;
                    for _ in 0..scan_reps {
                        acc = acc.wrapping_add(flat_sweep(std::hint::black_box(&ext.extensions)));
                    }
                    std::hint::black_box(acc);
                }));
                t_boxed_scan = t_boxed_scan.min(secs(|| {
                    let mut acc = 0u64;
                    for _ in 0..scan_reps {
                        acc = acc.wrapping_add(boxed_sweep(std::hint::black_box(&boxed)));
                    }
                    std::hint::black_box(acc);
                }));
            }
            let vec_hdr = std::mem::size_of::<Vec<(u32, u32)>>();
            let boxed_resident: usize = boxed
                .iter()
                .map(|r| {
                    2 * vec_hdr
                        + r.node_matches.len() * vec_hdr
                        + r.node_matches.iter().map(|v| v.len() * 4).sum::<usize>()
                        + r.edge_matches.len() * vec_hdr
                        + r.edge_matches.iter().map(|v| v.len() * 8).sum::<usize>()
                })
                .sum::<usize>();
            (
                t_flat_scan / scan_reps as f64,
                t_boxed_scan / scan_reps as f64,
                ext.resident_bytes(),
                boxed_resident,
            )
        };
        let c = queries.len() as f64;
        rows.push(Row {
            scenario: Some(row_scenario(
                n,
                queries.len(),
                queries.len(),
                1,
                QueryMode::Minimum,
                1,
                seed + step as u64,
            )),
            x: format!("{:.1}M", paper_n as f64 / 1e6),
            series: vec![
                ("plan".into(), t_plan / c),
                ("MatchJoin_seq".into(), t_seq / c),
                ("MatchJoin_par_auto".into(), t_auto / c),
                ("MatchJoin_par2".into(), t_par2 / c),
                ("MatchJoin_par4".into(), t_par4 / c),
                ("compact_scan".into(), t_flat_scan),
                ("boxed_scan".into(), t_boxed_scan),
                ("compact_resident_mb".into(), compact_resident as f64 / 1e6),
                ("boxed_resident_mb".into(), boxed_resident as f64 / 1e6),
            ],
        });
    }
    ExperimentResult {
        host: Some(host),
        id: "engine".into(),
        title: "QueryEngine: planner overhead + sequential vs parallel MatchJoin".into(),
        unit: "s".into(),
        rows,
    }
}

/// Service bench: concurrent batch serving through the
/// [`ViewService`](gpv_core::service::ViewService) facade over a sharded
/// [`ViewStore`](gpv_core::store::ViewStore). For each client count
/// (1/2/4/8), every client thread submits the same duplicated query batch
/// **twice** (two separate batches — the repeat is what exercises the
/// cross-batch result cache; in-batch duplicates only exercise dedup)
/// concurrently against a fresh service; the rows record wall-clock,
/// throughput, and the plan-/result-cache hit and miss counts. On a 1-core
/// host the client threads time-slice one core, so throughput cannot scale
/// with clients — the experiment still exercises (and records) contention
/// on the shared caches and store; see CHANGES.md.
pub fn service_experiment(scale: Scale, seed: u64) -> ExperimentResult {
    use gpv_core::service::ViewService;
    use gpv_core::store::ViewStore;
    use std::sync::Arc;

    let n = scale.nodes(400_000);
    let g = random_graph(n, 2 * n, &DEFAULT_ALPHABET, seed);
    let queries: Vec<Pattern> = (0..6)
        .map(|i| random_pattern(4, 6, &DEFAULT_ALPHABET, PatternShape::Any, seed + i))
        .collect();
    let views = selective_views(&queries, seed);
    let store = Arc::new(ViewStore::materialize(views, &g, 8));
    // Each query appears 4 times per batch: realistic repeated traffic,
    // which is what the plan cache and intra-batch dedup are for.
    let batch: Vec<Pattern> = queries
        .iter()
        .flat_map(|q| std::iter::repeat_n(q, 4))
        .cloned()
        .collect();
    const ROUNDS: usize = 2;

    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        // A fresh service per row: stats and cache state start cold, so
        // rows are comparable.
        let service = ViewService::new(store.clone());
        let wall = secs(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        s.spawn(|| {
                            for _ in 0..ROUNDS {
                                for r in service.serve_batch(&batch, Some(&g)) {
                                    std::hint::black_box(r.expect("batch serves"));
                                }
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("client thread panicked");
                }
            });
        });
        let stats = service.stats();
        let served = (clients * ROUNDS * batch.len()) as f64;
        rows.push(Row {
            scenario: Some(row_scenario(
                n,
                queries.len(),
                batch.len(),
                ROUNDS,
                QueryMode::Minimal,
                8,
                seed,
            )),
            x: format!("{clients}"),
            series: vec![
                ("wall_s".into(), wall),
                ("throughput_qps".into(), served / wall.max(1e-9)),
                ("plan_cache_hit_rate".into(), stats.plan_cache_hit_rate),
                ("result_cache_hits".into(), stats.result_cache_hits as f64),
                (
                    "result_cache_misses".into(),
                    stats.result_cache_misses as f64,
                ),
                ("result_cache_hit_rate".into(), stats.result_cache_hit_rate),
                ("dedup_saved".into(), stats.dedup_saved as f64),
                ("max_queue_depth".into(), stats.max_in_flight as f64),
            ],
        });
    }
    ExperimentResult {
        host: Some(HostInfo::probe()),
        id: "service".into(),
        title: "ViewService: concurrent batch serving, varying client threads".into(),
        unit: "mixed".into(),
        rows,
    }
}

/// Maintenance bench: sustained edge-update throughput interleaved with
/// serving. Each row fixes a delta batch size and replays the same
/// scenario twice: the **delta** series routes every update batch through
/// [`ViewService::apply_delta`](gpv_core::service::ViewService::apply_delta)
/// (footprint detection, warm incremental maintainers, selective
/// re-freeze, MVCC publish), while the **rebuild** baseline does what the
/// pre-delta pipeline had to — rematerialize the whole store from the
/// post-delta graph and restart serving on a cold service. The workload
/// (graph, views, serve schedule, delta stream) is a [`Scenario`], and its
/// one-line JSON rides on the row so `gpv fuzz --repro` replays the exact
/// configuration class as a differential check.
pub fn maintenance_experiment(scale: Scale, seed: u64) -> ExperimentResult {
    use gpv_core::service::ViewService;
    use gpv_core::store::ViewStore;
    use gpv_graph::NodeId;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let n = scale.nodes(200_000);
    // Enough rounds that the one-time warm-up (cold maintainer promotion on
    // the first delta that touches each view) amortizes and the row measures
    // sustained maintenance throughput, not start-up cost.
    const ROUNDS: usize = 12;
    let mut rows = Vec::new();
    // Three mixed rows sweep batch size at a 50/50 insert/delete mix; the
    // final row is delete-only, the truly-incremental case (deletions
    // propagate through warm supports without any recompute).
    for (delta_batch_len, delete_ratio) in [(1usize, 0.5), (8, 0.5), (64, 0.5), (64, 1.0)] {
        let sc = Scenario {
            seed: seed + delta_batch_len as u64,
            graph: GraphSource::Synthetic {
                nodes: n,
                edges: 2 * n,
                labels: DEFAULT_ALPHABET.len(),
            },
            queries: 6,
            query_nodes: 4,
            query_edges: 6,
            shape: PatternShape::Any,
            max_bound: 1,
            zipf_s: 0.0,
            batch_len: 8,
            rounds: ROUNDS,
            updates_per_round: 0,
            delta_batch_len,
            delete_ratio,
            coverage: 1.0,
            max_fragment: 3,
            mode: QueryMode::Minimal,
            exec: ExecKnob::Sequential,
            threads: 1,
            result_cache_bytes: 64 << 20,
            plan_cache_capacity: 4096,
            shards: 8,
        };
        let inputs = sc.materialize();
        let round_batch = |r: usize| -> Vec<Pattern> {
            inputs.rounds[r]
                .iter()
                .map(|&qi| inputs.queries[qi].clone())
                .collect()
        };
        let updates: usize = inputs
            .deltas
            .iter()
            .map(|d| d.inserts.len() + d.deletes.len())
            .sum();

        // Delta series: one long-lived service; every update batch goes
        // through the incremental pipeline, caches survive across rounds.
        let mut refrozen = 0usize;
        let mut delta_update_s = 0.0f64;
        let delta_wall = {
            let store = Arc::new(ViewStore::materialize(
                inputs.views.clone(),
                &inputs.graph,
                sc.shards,
            ));
            let service = ViewService::new(store);
            let mut current = inputs.graph.clone();
            secs(|| {
                for r in 0..ROUNDS {
                    let batch = round_batch(r);
                    for res in service.serve_batch(&batch, Some(&current)) {
                        std::hint::black_box(res.expect("batch serves"));
                    }
                    if let Some(d) = inputs.deltas.get(r).filter(|d| !d.is_empty()) {
                        let t = Instant::now();
                        let rep = service.apply_delta(d, &current).expect("delta applies");
                        delta_update_s += t.elapsed().as_secs_f64();
                        refrozen += rep.changed.len();
                        current = rep.graph;
                    }
                }
            })
        };

        // Rebuild baseline: the same rounds and deltas, but every update
        // batch pays a full store rematerialization from the post-delta
        // graph plus a cold service (no surviving caches) — the only
        // option before the delta pipeline existed.
        let mut rebuild_update_s = 0.0f64;
        let rebuild_wall = {
            let mut current = inputs.graph.clone();
            let mut service = ViewService::new(Arc::new(ViewStore::materialize(
                inputs.views.clone(),
                &current,
                sc.shards,
            )));
            secs(|| {
                for r in 0..ROUNDS {
                    let batch = round_batch(r);
                    for res in service.serve_batch(&batch, Some(&current)) {
                        std::hint::black_box(res.expect("batch serves"));
                    }
                    if let Some(d) = inputs.deltas.get(r).filter(|d| !d.is_empty()) {
                        let t = Instant::now();
                        let mut edges: BTreeSet<(NodeId, NodeId)> = current.edges().collect();
                        for e in &d.deletes {
                            edges.remove(e);
                        }
                        for e in &d.inserts {
                            edges.insert(*e);
                        }
                        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
                        current = current.with_edges(&edges);
                        service = ViewService::new(Arc::new(ViewStore::materialize(
                            inputs.views.clone(),
                            &current,
                            sc.shards,
                        )));
                        rebuild_update_s += t.elapsed().as_secs_f64();
                    }
                }
            })
        };

        rows.push(Row {
            scenario: Some(sc.to_json_line()),
            x: if delete_ratio >= 1.0 {
                format!("{delta_batch_len}-del")
            } else {
                format!("{delta_batch_len}")
            },
            series: vec![
                ("delta_wall_s".into(), delta_wall),
                ("rebuild_wall_s".into(), rebuild_wall),
                (
                    "delta_updates_per_s".into(),
                    updates as f64 / delta_update_s.max(1e-9),
                ),
                (
                    "rebuild_updates_per_s".into(),
                    updates as f64 / rebuild_update_s.max(1e-9),
                ),
                ("updates_applied".into(), updates as f64),
                ("views_refrozen".into(), refrozen as f64),
                (
                    "maintenance_speedup".into(),
                    rebuild_update_s / delta_update_s.max(1e-9),
                ),
            ],
        });
    }
    ExperimentResult {
        host: Some(HostInfo::probe()),
        id: "maintenance".into(),
        title: "Delta maintenance: incremental apply_delta vs full store rebuild".into(),
        unit: "mixed".into(),
        rows,
    }
}

/// Checks that a bounded workload is contained (used by tests).
pub fn sanity_bounded(qb: &BoundedPattern, views: &BoundedViewSet) -> bool {
    bcontain(qb, views).is_some()
}

/// Prebuilt workloads for the Criterion benches: graph + views +
/// materialized extensions + one representative query, so the timing loops
/// measure only the algorithms under comparison.
pub mod setup {
    use super::*;
    use gpv_core::bview::BoundedViewExtensions;
    use gpv_core::view::ViewExtensions;

    /// Which graph to build.
    #[derive(Clone, Copy, Debug)]
    pub enum Dataset {
        /// Amazon co-purchase emulator.
        Amazon,
        /// Citation DAG emulator.
        Citation,
        /// YouTube recommendation emulator.
        YouTube,
        /// Uniform random graph, |E| = 2|V|.
        Synthetic,
        /// Densification-law graph with the given α.
        Densification(f64),
    }

    fn build_graph(d: Dataset, n: usize, seed: u64) -> DataGraph {
        match d {
            Dataset::Amazon => amazon(n, seed),
            Dataset::Citation => citation(n, seed),
            Dataset::YouTube => youtube(n, seed),
            Dataset::Synthetic => random_graph(n, 2 * n, &DEFAULT_ALPHABET, seed),
            Dataset::Densification(a) => densification_graph(n, a, &DEFAULT_ALPHABET, seed),
        }
    }

    fn pool(d: Dataset) -> Option<Vec<gpv_pattern::Predicate>> {
        match d {
            Dataset::Amazon => Some(amazon_predicate_pool()),
            Dataset::Citation => Some(citation_predicate_pool()),
            Dataset::YouTube => Some(youtube_predicate_pool()),
            _ => None,
        }
    }

    /// A plain-pattern workload.
    pub struct PlainSetup {
        /// The data graph.
        pub g: DataGraph,
        /// The cached view set (contains `query`).
        pub views: ViewSet,
        /// Materialized extensions `V(G)`.
        pub ext: ViewExtensions,
        /// The representative query.
        pub query: Pattern,
    }

    /// Builds a plain workload on `dataset` with one `(nv, ne)` query.
    pub fn plain(dataset: Dataset, n: usize, (nv, ne): (usize, usize), seed: u64) -> PlainSetup {
        let g = build_graph(dataset, n, seed);
        let query = match pool(dataset) {
            Some(p) => random_pattern_with_preds(nv, ne, &p, PatternShape::Any, seed),
            None => random_pattern(nv, ne, &DEFAULT_ALPHABET, PatternShape::Any, seed),
        };
        let views = selective_views(std::slice::from_ref(&query), seed);
        let ext = materialize(&views, &g);
        PlainSetup {
            g,
            views,
            ext,
            query,
        }
    }

    /// A bounded-pattern workload.
    pub struct BoundedSetup {
        /// The data graph.
        pub g: DataGraph,
        /// The cached bounded view set (contains `query`).
        pub views: BoundedViewSet,
        /// Materialized extensions with `I(V)` distances.
        pub ext: BoundedViewExtensions,
        /// The representative query.
        pub query: BoundedPattern,
    }

    /// Builds a bounded workload on `dataset` with a `(nv, ne)` query of
    /// uniform bound `k`.
    pub fn bounded(
        dataset: Dataset,
        n: usize,
        (nv, ne): (usize, usize),
        k: u32,
        seed: u64,
    ) -> BoundedSetup {
        let g = build_graph(dataset, n, seed);
        let query = match pool(dataset) {
            Some(p) => uniform_bounded_pattern_with_preds(nv, ne, &p, k, PatternShape::Any, seed),
            None => uniform_bounded_pattern(nv, ne, &DEFAULT_ALPHABET, k, PatternShape::Any, seed),
        };
        let views = mixed_bounded_views(std::slice::from_ref(&query), seed);
        let ext = bmaterialize(&views, &g);
        BoundedSetup {
            g,
            views,
            ext,
            query,
        }
    }
}

/// Runs every experiment at the given scale.
pub fn run_all(scale: Scale, seed: u64) -> Vec<ExperimentResult> {
    vec![
        fig8a(scale, seed),
        fig8b(scale, seed),
        fig8c(scale, seed),
        fig8d(scale, seed),
        fig8e(scale, seed),
        fig8f(scale, seed),
        fig8g(scale, seed),
        fig8h(scale, seed),
        fig8i(scale, seed),
        fig8j(scale, seed),
        fig8k(scale, seed),
        fig8l(scale, seed),
        engine_experiment(scale, seed),
        service_experiment(scale, seed),
        maintenance_experiment(scale, seed),
    ]
}

/// Runs one experiment by id.
pub fn run_one(id: &str, scale: Scale, seed: u64) -> Option<ExperimentResult> {
    Some(match id {
        "fig8a" => fig8a(scale, seed),
        "fig8b" => fig8b(scale, seed),
        "fig8c" => fig8c(scale, seed),
        "fig8d" => fig8d(scale, seed),
        "fig8e" => fig8e(scale, seed),
        "fig8f" => fig8f(scale, seed),
        "fig8g" => fig8g(scale, seed),
        "fig8h" => fig8h(scale, seed),
        "fig8i" => fig8i(scale, seed),
        "fig8j" => fig8j(scale, seed),
        "fig8k" => fig8k(scale, seed),
        "fig8l" => fig8l(scale, seed),
        "engine" => engine_experiment(scale, seed),
        "service" => service_experiment(scale, seed),
        "maintenance" => maintenance_experiment(scale, seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale so the suite stays fast in CI.
    fn tiny() -> Scale {
        Scale(0.002)
    }

    #[test]
    fn fig8a_runs_and_views_win_eventually() {
        let r = fig8a(tiny(), 42);
        assert_eq!(r.rows.len(), 9);
        for row in &r.rows {
            assert_eq!(row.series.len(), 3);
            for (_, v) in &row.series {
                assert!(v.is_finite() && *v >= 0.0);
            }
        }
    }

    #[test]
    fn fig8g_has_both_series() {
        let r = fig8g(tiny(), 7);
        assert_eq!(r.rows.len(), 10);
        assert!(r.rows.iter().all(|r| r.series.len() == 2));
    }

    #[test]
    fn fig8h_ratios_sensible() {
        let r = fig8h(tiny(), 7);
        for row in &r.rows {
            let r2 = row.series[1].1;
            assert!(r2 > 0.0 && r2 <= 1.0 + 1e-9, "minimum never larger: {r2}");
        }
    }

    /// The perf-tracking experiments must be self-describing: host core
    /// count + auto thread count on the result, and the parallel-executor
    /// timings in every row — so 1-core container numbers cannot be misread
    /// as scaling results.
    #[test]
    fn perf_experiments_record_host_metadata() {
        let r = engine_experiment(tiny(), 42);
        let host = r.host.expect("engine experiment records host metadata");
        assert!(host.cores >= 1);
        assert!(host.auto_threads >= 1);
        for row in &r.rows {
            for series in ["MatchJoin_par_auto", "MatchJoin_par4"] {
                assert!(
                    row.series.iter().any(|(n, _)| n == series),
                    "row {} missing {series}",
                    row.x
                );
            }
        }
        let s = service_experiment(tiny(), 42);
        assert!(s.host.is_some(), "service experiment records host metadata");
        assert!(
            fig8g(tiny(), 1).host.is_none(),
            "figure reproductions carry no host block"
        );
    }

    /// Perf-tracking rows must carry a scenario descriptor that round-trips
    /// through the `gpv fuzz --repro` JSON schema; figure reproductions
    /// carry none (their series are paper contrasts, not tracked configs).
    #[test]
    fn perf_rows_carry_parseable_scenario_descriptors() {
        let r = engine_experiment(tiny(), 42);
        for row in &r.rows {
            let json = row
                .scenario
                .as_deref()
                .expect("engine rows describe themselves");
            let sc = Scenario::from_json_line(json).expect("descriptor parses as a Scenario");
            assert!(matches!(sc.graph, GraphSource::Synthetic { .. }));
            assert_eq!(sc.mode, QueryMode::Minimum);
        }
        let s = service_experiment(tiny(), 42);
        for row in &s.rows {
            let json = row
                .scenario
                .as_deref()
                .expect("service rows describe themselves");
            let sc = Scenario::from_json_line(json).expect("descriptor parses as a Scenario");
            assert_eq!(sc.rounds, 2);
            assert_eq!(sc.shards, 8);
        }
        let fig = fig8g(tiny(), 7);
        assert!(
            fig.rows.iter().all(|row| row.scenario.is_none()),
            "figure rows carry no scenario block"
        );
    }

    #[test]
    fn run_one_dispatch() {
        assert!(run_one("fig8g", tiny(), 1).is_some());
        assert!(run_one("service", tiny(), 1).is_some());
        assert!(run_one("maintenance", tiny(), 1).is_some());
        assert!(run_one("nope", tiny(), 1).is_none());
    }

    /// The maintenance bench must contrast the delta pipeline with the
    /// full-rebuild baseline on every row, actually apply updates, and
    /// carry a replayable update-heavy scenario descriptor.
    #[test]
    fn maintenance_rows_contrast_delta_with_rebuild() {
        let r = maintenance_experiment(tiny(), 42);
        assert_eq!(r.id, "maintenance");
        assert!(r.host.is_some(), "maintenance records host metadata");
        let xs: Vec<&str> = r.rows.iter().map(|row| row.x.as_str()).collect();
        assert_eq!(xs, ["1", "8", "64", "64-del"]);
        let del_only = Scenario::from_json_line(r.rows[3].scenario.as_deref().unwrap()).unwrap();
        assert_eq!(
            del_only.delete_ratio, 1.0,
            "last row is the delete-only (truly incremental) case"
        );
        for row in &r.rows {
            let get = |name: &str| {
                row.series
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("row {} missing series {name}", row.x))
            };
            assert!(get("delta_wall_s") >= 0.0 && get("delta_wall_s").is_finite());
            assert!(get("rebuild_wall_s") >= 0.0 && get("rebuild_wall_s").is_finite());
            assert!(get("updates_applied") > 0.0, "deltas must carry updates");
            assert!(get("delta_updates_per_s") > 0.0);
            assert!(get("rebuild_updates_per_s") > 0.0);
            let sc = Scenario::from_json_line(row.scenario.as_deref().expect("descriptor"))
                .expect("descriptor parses as a Scenario");
            assert!(sc.delta_batch_len > 0, "update-heavy scenario");
            assert!(sc.delete_ratio > 0.0, "deletes are part of the stream");
        }
    }

    #[test]
    fn service_rows_cover_client_counts() {
        let r = service_experiment(tiny(), 42);
        assert_eq!(r.id, "service");
        let clients: Vec<&str> = r.rows.iter().map(|row| row.x.as_str()).collect();
        assert_eq!(clients, ["1", "2", "4", "8"]);
        for row in &r.rows {
            let get = |name: &str| {
                row.series
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(get("wall_s") >= 0.0 && get("wall_s").is_finite());
            assert!(get("throughput_qps") > 0.0);
            // 6 distinct queries repeated 4x per batch: the duplicates hit
            // either the intra-batch dedup or the plan cache.
            assert!(get("plan_cache_hit_rate") >= 0.0);
            assert!(get("dedup_saved") >= 18.0 - 1e-9, "per-client dedup");
            // Every client's second round repeats the first at an
            // unchanged store version: the result cache must hit (the
            // CI-level guard against a silent always-miss regression).
            assert!(
                get("result_cache_hits") >= 6.0 - 1e-9,
                "second round must be served from the result cache"
            );
            let hits = get("result_cache_hits");
            let misses = get("result_cache_misses");
            assert!(
                (get("result_cache_hit_rate") - hits / (hits + misses)).abs() < 1e-9,
                "hit rate consistent with the raw counts"
            );
        }
    }
}
