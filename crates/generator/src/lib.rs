//! # gpv-generator — seeded workload generators
//!
//! Reproduces the experimental setting of *Answering Graph Pattern Queries
//! Using Views* (Fan, Wang, Wu — ICDE 2014), Section VII:
//!
//! * [`synthetic`] — random graphs `G(|V|, |E|, Σ)` and densification-law
//!   graphs `|E| = |V|^α`;
//! * [`patterns`] — random (bounded) pattern queries controlled by
//!   `(|Vp|, |Ep|, k)` with DAG/cyclic shape control;
//! * [`views`] — view sets guaranteed to contain a query workload
//!   (decomposition-based, mirroring the paper's curated 12–22 view sets);
//! * [`datasets`] — seeded emulators of the Amazon, Citation and YouTube
//!   snapshots (schema-faithful; see DESIGN.md §S1);
//! * [`youtube_views`] — the 12 concrete views of the paper's Fig. 7.
//!
//! Everything is deterministic in an explicit `seed`, so the benchmark
//! harness and EXPERIMENTS.md numbers are reproducible.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod patterns;
pub mod scenario;
pub mod synthetic;
pub mod views;
pub mod youtube_views;

pub use datasets::{
    amazon, amazon_predicate_pool, citation, citation_predicate_pool, youtube,
    youtube_predicate_pool,
};
pub use patterns::{
    random_bounded_pattern, random_pattern, random_pattern_with_preds, uniform_bounded_pattern,
    uniform_bounded_pattern_with_preds, PatternShape,
};
pub use scenario::{
    check_scenario, check_scenario_with, GraphSource, QueryMode, Scenario, ScenarioInputs,
    CACHE_STATES,
};
pub use synthetic::{densification_graph, random_graph, DEFAULT_ALPHABET};
pub use views::{
    bounded_subpattern, covering_bounded_views, covering_views, label_pair_views, subpattern,
};
pub use youtube_views::{fig7_queries, fig7_views};
