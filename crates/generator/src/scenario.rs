//! The scenario harness: every workload + configuration knob in one
//! deterministic, serializable descriptor.
//!
//! A [`Scenario`] pins everything that influences an end-to-end run of the
//! engine/service stack — which graph emulator and at what scale, how many
//! queries of what shape over how many labels, how the serving schedule
//! repeats them (zipfian), what fraction of the covering view set is
//! registered, how the store mutates between rounds, and the full engine/
//! service configuration (selection mode, executor, threads, cache
//! budgets). Two invariants make it a fuzzing substrate:
//!
//! * **One-seed determinism** — [`Scenario::sample`] is a pure function of
//!   `(master_seed, index)`, and [`Scenario::materialize`] is a pure
//!   function of the descriptor. Same scenario, same workload, bit for bit.
//! * **One-line repro** — [`Scenario::to_json_line`] serializes the whole
//!   descriptor to one JSON line; [`Scenario::from_json_line`] round-trips
//!   it. A failing fuzz iteration prints this line, and
//!   `gpv fuzz --repro '<json>'` replays exactly that case.
//!
//! Config knobs are swept by *cycling* (`index` modulo small co-prime-ish
//! periods) rather than sampled randomly, so a short run provably covers
//! the whole configuration matrix: 5 query modes × 2 executors × 4 cache
//! states are all hit within the first `lcm ≤ 60` iterations (and mostly
//! within the first 5–12). Workload
//! dimensions (graph source/scale, query shapes, zipf skew, coverage) are
//! drawn from the seeded RNG for diversity.

use crate::datasets::{
    amazon, amazon_predicate_pool, citation, citation_predicate_pool, youtube,
    youtube_predicate_pool,
};
use crate::patterns::{random_bounded_pattern, random_pattern, random_pattern_with_preds};
use crate::synthetic::{densification_graph, random_graph, DEFAULT_ALPHABET};
use crate::views::{covering_bounded_views, covering_views};
use crate::PatternShape;
use gpv_core::differential::{
    check_bounded, check_plain, BoundedOracle, DifferentialCase, DifferentialReport, Divergence,
    PlainOracle,
};
use gpv_core::{
    BoundedViewSet, EdgeDelta, EngineConfig, ExecStrategy, JoinStrategy, SelectionMode,
    ServiceConfig, ViewDef, ViewSet,
};
use gpv_graph::{DataGraph, NodeId};
use gpv_matching::{bmatch_pattern, match_pattern};
use gpv_pattern::{BoundedPattern, Pattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which data-graph emulator a scenario draws its graph from.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum GraphSource {
    /// Uniform `G(n, m, Σ)` over the first `labels` entries of the default
    /// alphabet ([`random_graph`]).
    Synthetic {
        /// Node count.
        nodes: usize,
        /// Edge count.
        edges: usize,
        /// Label-alphabet cardinality (prefix of [`DEFAULT_ALPHABET`]).
        labels: usize,
    },
    /// Densification-law graph `|E| = |V|^alpha` ([`densification_graph`]).
    Densification {
        /// Node count.
        nodes: usize,
        /// Densification exponent (use binary-exact values like `1.125`).
        alpha: f64,
        /// Label-alphabet cardinality (prefix of [`DEFAULT_ALPHABET`]).
        labels: usize,
    },
    /// The Amazon product-graph emulator ([`amazon`]).
    Amazon {
        /// Node count.
        nodes: usize,
    },
    /// The Citation DAG emulator ([`citation`]).
    Citation {
        /// Node count.
        nodes: usize,
    },
    /// The YouTube video-graph emulator ([`youtube`]).
    YouTube {
        /// Node count.
        nodes: usize,
    },
}

/// Which of the five query modes a scenario exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryMode {
    /// Full coverage, selection forced to `all` (plain containment).
    Contain,
    /// Full coverage, selection forced to `minimal`.
    Minimal,
    /// Full coverage, selection forced to `minimum`.
    Minimum,
    /// Reduced view coverage — hybrid/direct fallbacks, cost-based
    /// selection.
    Partial,
    /// Bounded pattern queries vs `bmatch_pattern` (plus the plain check).
    Bounded,
}

/// Which executor the engine is forced to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecKnob {
    /// Single-threaded ranked-bottom-up.
    Sequential,
    /// Parallel, one work unit per pattern edge.
    ParallelPerEdge,
}

/// The result-cache states the sampler cycles through (bytes):
/// default 64 MiB (hot), disabled, 4 KiB (eviction churn), 64 KiB.
pub const CACHE_STATES: [usize; 4] = [64 << 20, 0, 4096, 64 << 10];

/// One fully-pinned workload + configuration. See the module docs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The seed all of [`materialize`](Scenario::materialize)'s randomness
    /// derives from.
    pub seed: u64,
    /// Data-graph source and scale.
    pub graph: GraphSource,
    /// Distinct queries in the pool.
    pub queries: usize,
    /// Pattern nodes per query.
    pub query_nodes: usize,
    /// Pattern edges per query (before duplicate-merge).
    pub query_edges: usize,
    /// Shape constraint for generated queries.
    pub shape: PatternShape,
    /// Upper bound `k` for bounded-mode edge bounds.
    pub max_bound: u32,
    /// Zipf exponent for the serving schedule (0 = uniform).
    pub zipf_s: f64,
    /// Queries per serving round (drawn zipfian from the pool).
    pub batch_len: usize,
    /// Serving rounds.
    pub rounds: usize,
    /// Views inserted into the store after each round.
    pub updates_per_round: usize,
    /// Edge operations per [`EdgeDelta`] batch applied to the graph after
    /// each round (0 keeps the graph static — the pre-delta serving path).
    pub delta_batch_len: usize,
    /// Fraction of each delta batch that deletes live edges; the rest
    /// inserts fresh edges between existing nodes. Sampled from a small
    /// set including 0.0 (insert-only) and 1.0 (delete-only churn).
    pub delete_ratio: f64,
    /// Fraction of the covering view set that gets registered
    /// (1.0 except in [`QueryMode::Partial`]).
    pub coverage: f64,
    /// Max edges per covering-view fragment.
    pub max_fragment: usize,
    /// Query mode under test.
    pub mode: QueryMode,
    /// Executor under test.
    pub exec: ExecKnob,
    /// Worker threads for the parallel executor.
    pub threads: usize,
    /// Result-cache budget in bytes (0 disables).
    pub result_cache_bytes: usize,
    /// Plan-cache capacity (small values force churn).
    pub plan_cache_capacity: usize,
    /// Store shard count.
    pub shards: usize,
}

/// Everything [`Scenario::materialize`] builds: the concrete workload the
/// differential checker (or a benchmark) runs.
pub struct ScenarioInputs {
    /// The data graph.
    pub graph: DataGraph,
    /// The distinct plain-query pool.
    pub queries: Vec<Pattern>,
    /// The registered view set (post-coverage subsetting).
    pub views: ViewSet,
    /// Per-round serve schedules (indices into `queries`).
    pub rounds: Vec<Vec<usize>>,
    /// Views inserted after each round.
    pub updates: Vec<Vec<ViewDef>>,
    /// Edge deltas applied to the graph after each round (empty batches
    /// when [`Scenario::delta_batch_len`] is 0).
    pub deltas: Vec<EdgeDelta>,
    /// Bounded workload (queries + covering bounded views), present only
    /// in [`QueryMode::Bounded`].
    pub bounded: Option<(Vec<BoundedPattern>, BoundedViewSet)>,
}

fn mix(master_seed: u64, index: u64) -> u64 {
    // splitmix64-style finalizer over (seed, index) — decorrelates nearby
    // indices without an RNG.
    let mut z = master_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Scenario {
    /// Deterministically samples the `index`-th scenario of a fuzz run
    /// seeded with `master_seed`.
    ///
    /// Configuration axes cycle with short periods so coverage is
    /// guaranteed, not probabilistic: query mode has period 5, executor 3
    /// (sequential on multiples of 3, parallel otherwise), cache state 4,
    /// threads 3 (offset so they decorrelate from the other axes). Everything else is drawn from an
    /// RNG seeded with `mix(master_seed, index)`.
    pub fn sample(master_seed: u64, index: u64) -> Scenario {
        let seed = mix(master_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);

        let mode = match index % 5 {
            0 => QueryMode::Contain,
            1 => QueryMode::Minimal,
            2 => QueryMode::Minimum,
            3 => QueryMode::Partial,
            _ => QueryMode::Bounded,
        };
        let exec = if index % 3 == 0 {
            ExecKnob::Sequential
        } else {
            ExecKnob::ParallelPerEdge
        };
        let result_cache_bytes = CACHE_STATES[(index % 4) as usize];
        let threads = [2, 4, 8][((index / 3) % 3) as usize];

        let labels = rng.gen_range(2..=6);
        // Bounded mode needs label-alphabet graphs (the bounded generator
        // draws from the alphabet, not the dataset predicate pools).
        let graph = if mode == QueryMode::Bounded {
            let n = rng.gen_range(20..=60);
            GraphSource::Synthetic {
                nodes: n,
                edges: n * rng.gen_range(2..=3usize),
                labels,
            }
        } else {
            match rng.gen_range(0..6) {
                0 | 1 => {
                    let n = rng.gen_range(20..=60);
                    GraphSource::Synthetic {
                        nodes: n,
                        edges: n * rng.gen_range(2..=3usize),
                        labels,
                    }
                }
                2 => GraphSource::Densification {
                    nodes: rng.gen_range(20..=50),
                    alpha: [1.125, 1.25][rng.gen_range(0..2usize)],
                    labels,
                },
                3 => GraphSource::Amazon {
                    nodes: rng.gen_range(40..=80),
                },
                4 => GraphSource::Citation {
                    nodes: rng.gen_range(40..=80),
                },
                _ => GraphSource::YouTube {
                    nodes: rng.gen_range(40..=80),
                },
            }
        };

        let shape = match rng.gen_range(0..3) {
            0 => PatternShape::Any,
            1 => PatternShape::Dag,
            _ => PatternShape::Cyclic,
        };
        let coverage = if mode == QueryMode::Partial {
            [0.25, 0.375, 0.5, 0.625][rng.gen_range(0..4usize)]
        } else {
            1.0
        };

        Scenario {
            seed,
            graph,
            queries: rng.gen_range(2..=4),
            query_nodes: rng.gen_range(3..=4),
            query_edges: rng.gen_range(2..=5),
            shape,
            max_bound: rng.gen_range(1..=3),
            zipf_s: [0.0, 0.75, 1.5][rng.gen_range(0..3usize)],
            batch_len: rng.gen_range(4..=10),
            rounds: rng.gen_range(2..=4),
            updates_per_round: rng.gen_range(0..=2),
            delta_batch_len: rng.gen_range(0..=3),
            delete_ratio: [0.0, 0.25, 0.5, 1.0][rng.gen_range(0..4usize)],
            coverage,
            max_fragment: rng.gen_range(2..=3),
            mode,
            exec,
            threads,
            result_cache_bytes,
            plan_cache_capacity: [2, 8, 4096][rng.gen_range(0..3usize)],
            shards: rng.gen_range(1..=4),
        }
    }

    /// Builds the concrete workload. Pure in `self` (all randomness comes
    /// from [`seed`](Scenario::seed)), so a deserialized repro line
    /// rebuilds the identical graph, queries, views and schedules.
    pub fn materialize(&self) -> ScenarioInputs {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let labels = match self.graph {
            GraphSource::Synthetic { labels, .. } | GraphSource::Densification { labels, .. } => {
                labels.clamp(1, DEFAULT_ALPHABET.len())
            }
            _ => DEFAULT_ALPHABET.len(),
        };
        let alphabet = &DEFAULT_ALPHABET[..labels];
        let graph = match self.graph {
            GraphSource::Synthetic { nodes, edges, .. } => {
                random_graph(nodes, edges, alphabet, rng.gen())
            }
            GraphSource::Densification { nodes, alpha, .. } => {
                densification_graph(nodes, alpha, alphabet, rng.gen())
            }
            GraphSource::Amazon { nodes } => amazon(nodes, rng.gen()),
            GraphSource::Citation { nodes } => citation(nodes, rng.gen()),
            GraphSource::YouTube { nodes } => youtube(nodes, rng.gen()),
        };
        let pool = match self.graph {
            GraphSource::Amazon { .. } => Some(amazon_predicate_pool()),
            GraphSource::Citation { .. } => Some(citation_predicate_pool()),
            GraphSource::YouTube { .. } => Some(youtube_predicate_pool()),
            _ => None,
        };
        let queries: Vec<Pattern> = (0..self.queries.max(1))
            .map(|_| match &pool {
                Some(preds) => random_pattern_with_preds(
                    self.query_nodes,
                    self.query_edges,
                    preds,
                    self.shape,
                    rng.gen(),
                ),
                None => random_pattern(
                    self.query_nodes,
                    self.query_edges,
                    alphabet,
                    self.shape,
                    rng.gen(),
                ),
            })
            .collect();

        let full = covering_views(&queries, self.max_fragment, rng.gen());
        let views = if self.coverage >= 1.0 {
            full
        } else {
            // Keep a deterministic random subset of ~coverage·|V| views.
            let keep = ((full.card() as f64 * self.coverage).ceil() as usize).min(full.card());
            let mut idx: Vec<usize> = (0..full.card()).collect();
            for i in (1..idx.len()).rev() {
                idx.swap(i, rng.gen_range(0..=i));
            }
            idx.truncate(keep);
            idx.sort_unstable();
            full.subset(&idx)
        };

        let rounds: Vec<Vec<usize>> = (0..self.rounds.max(1))
            .map(|_| zipf_schedule(&mut rng, queries.len(), self.batch_len, self.zipf_s))
            .collect();
        let updates: Vec<Vec<ViewDef>> = (0..self.rounds.max(1))
            .map(|r| {
                (0..self.updates_per_round)
                    .map(|j| {
                        let p = match &pool {
                            Some(preds) => {
                                random_pattern_with_preds(2, 1, preds, PatternShape::Any, rng.gen())
                            }
                            None => random_pattern(2, 1, alphabet, PatternShape::Any, rng.gen()),
                        };
                        ViewDef::new(format!("U{r}_{j}"), p)
                    })
                    .collect()
            })
            .collect();

        // Per-round edge deltas over the *evolving* edge set: deletes pick
        // live edges (so they actually remove something most of the time),
        // inserts pick fresh endpoint pairs among the existing nodes
        // (deltas never grow the node set). Tracking the live set across
        // rounds makes a long delete-heavy run drain the graph instead of
        // retrying the same victims.
        let deltas: Vec<EdgeDelta> = {
            let mut live: Vec<(NodeId, NodeId)> = graph.edges().collect();
            let n = graph.node_count() as u32;
            (0..self.rounds.max(1))
                .map(|_| {
                    let mut inserts = Vec::new();
                    let mut deletes = Vec::new();
                    for _ in 0..self.delta_batch_len {
                        if rng.gen::<f64>() < self.delete_ratio && !live.is_empty() {
                            let k = rng.gen_range(0..live.len());
                            deletes.push(live.swap_remove(k));
                        } else if n > 0 {
                            let e = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                            if !live.contains(&e) {
                                live.push(e);
                                inserts.push(e);
                            }
                        }
                    }
                    EdgeDelta::new(inserts, deletes)
                })
                .collect()
        };

        let bounded = (self.mode == QueryMode::Bounded).then(|| {
            let bqueries: Vec<BoundedPattern> = (0..self.queries.max(1))
                .map(|_| {
                    random_bounded_pattern(
                        self.query_nodes,
                        self.query_edges,
                        alphabet,
                        self.max_bound.max(1),
                        self.shape,
                        rng.gen(),
                    )
                })
                .collect();
            let bviews = covering_bounded_views(&bqueries, self.max_fragment, rng.gen());
            (bqueries, bviews)
        });

        ScenarioInputs {
            graph,
            queries,
            views,
            rounds,
            updates,
            deltas,
            bounded,
        }
    }

    /// The engine configuration the scenario forces (executor, selection
    /// mode, threads).
    pub fn engine_config(&self) -> EngineConfig {
        let force_exec = Some(match self.exec {
            ExecKnob::Sequential => ExecStrategy::Sequential(JoinStrategy::RankedBottomUp),
            ExecKnob::ParallelPerEdge => ExecStrategy::Parallel {
                threads: self.threads,
            },
        });
        let force_selection = match self.mode {
            QueryMode::Contain => Some(SelectionMode::All),
            QueryMode::Minimal => Some(SelectionMode::Minimal),
            QueryMode::Minimum => Some(SelectionMode::Minimum),
            QueryMode::Partial | QueryMode::Bounded => None,
        };
        EngineConfig {
            threads: self.threads,
            force_selection,
            force_exec,
        }
    }

    /// The service configuration (cache budgets) wrapping
    /// [`engine_config`](Scenario::engine_config).
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            engine: self.engine_config(),
            plan_cache_capacity: self.plan_cache_capacity,
            result_cache_bytes: self.result_cache_bytes,
        }
    }

    /// Serializes the descriptor to its one-line JSON repro string.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("scenario serializes")
    }

    /// Parses a repro string produced by [`to_json_line`](Scenario::to_json_line).
    pub fn from_json_line(s: &str) -> Result<Scenario, String> {
        serde_json::from_str(s.trim()).map_err(|e| format!("bad scenario JSON: {e}"))
    }

    /// The exact CLI command that replays this scenario.
    pub fn repro_command(&self) -> String {
        format!("gpv fuzz --repro '{}'", self.to_json_line())
    }
}

/// One zipfian serve schedule: `len` indices into a pool of `n` queries,
/// rank `i` drawn with probability ∝ `(i+1)^-s` (`s = 0` is uniform).
fn zipf_schedule(rng: &mut StdRng, n: usize, len: usize, s: f64) -> Vec<usize> {
    let n = n.max(1);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    (0..len.max(1))
        .map(|_| {
            let mut x = rng.gen::<f64>() * total;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    return i;
                }
                x -= *w;
            }
            n - 1
        })
        .collect()
}

/// Runs the scenario through the differential checker with the real
/// oracles (`match_pattern` / `bmatch_pattern`).
pub fn check_scenario(sc: &Scenario) -> Result<DifferentialReport, Box<Divergence>> {
    let oracle: PlainOracle = Box::new(match_pattern);
    let boracle: BoundedOracle = Box::new(bmatch_pattern);
    check_scenario_with(sc, &oracle, &boracle)
}

/// Runs the scenario through the differential checker with caller-supplied
/// oracles (the fuzz CLI's injection hook wraps the real oracle here).
pub fn check_scenario_with(
    sc: &Scenario,
    oracle: &PlainOracle,
    boracle: &BoundedOracle,
) -> Result<DifferentialReport, Box<Divergence>> {
    let inputs = sc.materialize();
    let case = DifferentialCase {
        graph: &inputs.graph,
        views: &inputs.views,
        queries: &inputs.queries,
        rounds: &inputs.rounds,
        updates: &inputs.updates,
        deltas: &inputs.deltas,
        shards: sc.shards.max(1),
        engine: sc.engine_config(),
        service: sc.service_config(),
    };
    let mut report = check_plain(&case, oracle)?;
    if let Some((bqueries, bviews)) = &inputs.bounded {
        report.bounded_queries =
            check_bounded(&inputs.graph, bviews, bqueries, sc.engine_config(), boracle)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sampling_is_deterministic() {
        for i in 0..8 {
            let a = Scenario::sample(99, i);
            let b = Scenario::sample(99, i);
            assert_eq!(a, b);
            assert_eq!(a.to_json_line(), b.to_json_line());
        }
        // Different indices actually differ.
        assert_ne!(Scenario::sample(99, 0), Scenario::sample(99, 1));
    }

    #[test]
    fn json_line_roundtrips() {
        for i in 0..12 {
            let sc = Scenario::sample(7, i);
            let line = sc.to_json_line();
            assert!(!line.contains('\n'), "repro must be one line");
            let back = Scenario::from_json_line(&line).expect("parses");
            assert_eq!(sc, back, "roundtrip at index {i}");
        }
    }

    #[test]
    fn materialize_is_deterministic() {
        let sc = Scenario::sample(3, 4);
        let a = sc.materialize();
        let b = sc.materialize();
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(a.views.card(), b.views.card());
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    /// Delta batches are valid for the evolving graph: every referenced
    /// node exists, delete-heavy batches pick live edges, and applying the
    /// whole stream round by round never errors.
    #[test]
    fn generated_deltas_replay_against_the_evolving_graph() {
        let mut sc = Scenario::sample(17, 1);
        sc.delta_batch_len = 4;
        sc.delete_ratio = 0.5;
        sc.rounds = 4;
        let inputs = sc.materialize();
        assert_eq!(inputs.deltas.len(), 4);
        assert!(inputs.deltas.iter().any(|d| !d.deletes.is_empty()));
        assert!(inputs.deltas.iter().any(|d| !d.inserts.is_empty()));
        let mut g = inputs.graph.clone();
        for d in &inputs.deltas {
            d.validate(&g).expect("deltas reference live nodes");
            g = d.apply_to(&g);
        }
    }

    /// Marginal coverage is not enough: an executor axis whose period
    /// divides another axis's would pin each executor to one half of that
    /// axis and still hit every value. Assert the joint pairs too.
    #[test]
    fn twenty_five_iterations_cover_the_matrix() {
        let mut modes = BTreeSet::new();
        let mut execs = BTreeSet::new();
        let mut caches = BTreeSet::new();
        let mut exec_modes = BTreeSet::new();
        for i in 0..25 {
            let sc = Scenario::sample(42, i);
            let (mode, exec) = (format!("{:?}", sc.mode), format!("{:?}", sc.exec));
            modes.insert(mode.clone());
            execs.insert(exec.clone());
            caches.insert(sc.result_cache_bytes);
            exec_modes.insert((exec, mode));
        }
        assert_eq!(modes.len(), 5, "all five query modes: {modes:?}");
        assert_eq!(execs.len(), 2, "both executors: {execs:?}");
        assert!(caches.len() >= 2, "≥ 2 cache states: {caches:?}");
        assert_eq!(
            exec_modes.len(),
            10,
            "every executor in every query mode: {exec_modes:?}"
        );
    }

    /// Repro lines saved before the chunked executor, the service's online
    /// re-fit and the cost-weight axis were removed carry their retired
    /// knob fields: they still parse, whatever the field values (the fields
    /// are ignored). A line naming the removed executor fails with the
    /// clean parse error.
    #[test]
    fn retired_knobs_in_saved_descriptors() {
        // Verbatim from a `BENCH_service.json` row recorded before both
        // removals.
        let saved = r#"{"seed":42,"graph":{"Synthetic":{"nodes":8000,"edges":16000,"labels":10}},"queries":6,"query_nodes":4,"query_edges":6,"shape":"Any","max_bound":1,"zipf_s":0.0,"batch_len":24,"rounds":2,"updates_per_round":0,"delta_batch_len":0,"delete_ratio":0.0,"coverage":1.0,"max_fragment":3,"mode":"Minimal","exec":"Sequential","threads":1,"chunk_pairs":0,"weights":"Default","recalibrate_every":0,"result_cache_bytes":67108864,"plan_cache_capacity":4096,"shards":8}"#;
        let refit_every_batch = saved.replace(r#"_every":0"#, r#"_every":1"#);
        assert_ne!(refit_every_batch, saved);
        let cheap_scan = saved.replace(r#""weights":"Default""#, r#""weights":"CheapScan""#);
        let expensive_read =
            saved.replace(r#""weights":"Default""#, r#""weights":"ExpensiveRead""#);
        assert_ne!(cheap_scan, saved);
        assert_ne!(expensive_read, saved);
        for line in [saved, &*refit_every_batch, &*cheap_scan, &*expensive_read] {
            let sc = Scenario::from_json_line(line).expect("old descriptor parses");
            assert_eq!(sc.exec, ExecKnob::Sequential);
            assert_eq!(sc.shards, 8);
        }
        let chunked = saved.replace(r#""exec":"Sequential""#, r#""exec":"ParallelChunked""#);
        let err = Scenario::from_json_line(&chunked).expect_err("removed executor");
        assert!(err.starts_with("bad scenario JSON"), "{err}");
    }

    #[test]
    fn partial_mode_reduces_coverage() {
        let sc = (0..40)
            .map(|i| Scenario::sample(5, i))
            .find(|s| s.mode == QueryMode::Partial)
            .expect("partial mode sampled");
        assert!(sc.coverage < 1.0);
        // Same scenario at full coverage keeps the whole covering set; the
        // partial one keeps ceil(coverage·|V|) of it.
        let mut full_sc = sc.clone();
        full_sc.coverage = 1.0;
        let partial = sc.materialize().views.card();
        let full = full_sc.materialize().views.card();
        assert!(partial <= full, "partial {partial} > full {full}");
        assert!(partial >= 1);
    }

    #[test]
    fn zipf_schedule_is_skewed_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let sched = zipf_schedule(&mut rng, 4, 400, 1.5);
        assert!(sched.iter().all(|&i| i < 4));
        let head = sched.iter().filter(|&&i| i == 0).count();
        let tail = sched.iter().filter(|&&i| i == 3).count();
        assert!(head > tail, "zipf head ({head}) should beat tail ({tail})");
    }

    #[test]
    fn sampled_scenarios_pass_differential_check() {
        // A cheap smoke over the first few sampled scenarios; the full
        // sweep lives in `gpv fuzz` and the integration proptests.
        for i in 0..5 {
            let sc = Scenario::sample(11, i);
            if let Err(d) = check_scenario(&sc) {
                panic!(
                    "{d}\nscenario: {}\nrepro: {}",
                    sc.to_json_line(),
                    sc.repro_command()
                );
            }
        }
    }

    /// Update-heavy smoke: force the delta path on (including pure-delete
    /// churn) and hold delta-maintained serving to the oracle across every
    /// round. This is the unit-test twin of CI's `gpv fuzz --require-deltas`
    /// sweep.
    #[test]
    fn update_heavy_scenarios_pass_differential_check() {
        for i in 0..4 {
            let mut sc = Scenario::sample(13, i);
            sc.delta_batch_len = 3;
            sc.delete_ratio = if i % 2 == 0 { 0.5 } else { 1.0 };
            sc.rounds = 3;
            match check_scenario(&sc) {
                Ok(report) => assert!(report.edge_deltas > 0, "deltas must have applied"),
                Err(d) => panic!(
                    "{d}\nscenario: {}\nrepro: {}",
                    sc.to_json_line(),
                    sc.repro_command()
                ),
            }
        }
    }
}
