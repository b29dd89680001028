//! # gpv-core — answering graph pattern queries using views
//!
//! The primary contribution of *Answering Graph Pattern Queries Using Views*
//! (Fan, Wang, Wu — ICDE 2014):
//!
//! * [`view`] — view definitions `V`, view sets, materialized extensions
//!   `V(G)` (§II-B);
//! * [`containment`] — pattern containment `Qs ⊑ V`, the `contain`
//!   algorithm and the mapping `λ` (Theorem 1, Prop. 7, Theorem 3), plus
//!   classical query containment (Cor. 4);
//! * [`mod@minimal`] — the quadratic `minimal` algorithm (Fig. 5, Theorem 5);
//! * [`mod@minimum`] — the greedy `O(log |Ep|)`-approximate `minimum` algorithm
//!   for the NP-complete MMCP (Theorem 6);
//! * [`matchjoin`] — `MatchJoin` (Fig. 2) with the naive fixpoint and the
//!   rank-based bottom-up optimization (Lemma 2);
//! * [`bview`] / [`bcontainment`] / [`bmatchjoin`] — the bounded-pattern
//!   counterparts `Bcontain` / `Bminimal` / `Bminimum` / `BMatchJoin` with
//!   the distance index `I(V)` (§VI);
//! * [`maintenance`] — incremental maintenance of materialized views
//!   (extension following the paper's pointer to \[15\]).
//!
//! ## The contract (Theorem 1 / Theorem 8)
//!
//! `Qs` can be answered using `V` **iff** `Qs ⊑ V`; when it is,
//! `match_join(q, contain(q, v).unwrap(), materialize(v, g))` equals
//! `match_pattern(q, g)` for *every* graph `g`, at cost
//! `O(|Qs||V(G)| + |V(G)|²)` — no access to `g`.
//!
//! ## The serving layers
//!
//! On top of the algorithms sit the scale-out layers grown beyond the
//! paper: [`engine`] (the planner: Analyze → Select → Execute over an
//! explicit [`plan`] IR costed by [`cost`]), [`store`] (the sharded,
//! concurrently-writable [`ViewStore`]), and [`service`] (the concurrent
//! [`ViewService`] batch facade with plan caching and service stats).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fnv;

pub mod bcontainment;
pub mod bmatchjoin;
pub mod bview;
pub mod compact;
pub mod containment;
pub mod cost;
pub mod delta;
pub mod differential;
pub mod dualjoin;
pub mod engine;
pub mod lint;
pub mod maintenance;
pub mod matchjoin;
pub mod minimal;
pub mod minimize;
pub mod minimum;
pub mod parallel;
pub mod partial;
pub mod plan;
pub mod selection;
pub mod service;
pub mod shard;
pub mod storage;
pub mod store;
pub mod verify;
pub mod view;

pub use bcontainment::{bcontain, bminimal, bminimum, bounded_query_contained, bounded_view_match};
pub use bmatchjoin::{bmatch_join, bmatch_join_threaded, bmatch_join_with};
pub use bview::{bmaterialize, BoundedViewDef, BoundedViewExtensions, BoundedViewSet};
pub use compact::{CompactBoundedExtensions, CompactBoundedView, CompactExtensions, CompactView};
pub use containment::{contain, query_contained, view_match, ContainmentPlan, ViewEdgeRef};
pub use cost::{CostEstimate, CostModel};
pub use delta::{EdgeDelta, QueryFootprint, ViewFootprint, ViewFootprintIndex};
pub use differential::{
    check_bounded, check_plain, BoundedOracle, DifferentialCase, DifferentialReport, Divergence,
    PlainOracle,
};
pub use dualjoin::{dual_contain, dual_match_join, dual_materialize};
pub use engine::{BoundedPlan, EngineConfig, EngineError, QueryEngine};
pub use lint::{lint_query, lint_views};
pub use maintenance::IncrementalView;
pub use matchjoin::{match_join, match_join_with, JoinError, JoinStats, JoinStrategy};
pub use minimal::{minimal, Selection};
pub use minimize::{minimize, Minimized};
pub use minimum::{alpha, minimum};
pub use partial::{hybrid_match_join, partial_contain, sources_from_lambda, PartialPlan};
pub use plan::{
    CacheDisposition, EdgeSource, ExecStrategy, FallbackReason, QueryPlan, SelectionMode, ViewPlan,
};
pub use selection::{select_views_for_workload, WorkloadSelection};
pub use service::{
    query_fingerprint, LatencyHistogram, QuantileBound, ServedAnswer, ServiceConfig, ServiceError,
    ServiceStats, ViewService,
};
pub use shard::{decode_shard, encode_shard, ShardError, StoreMeta, SHARD_MAGIC, SHARD_VERSION};
pub use store::{
    DeltaReport, EvictionAdvice, ShardOccupancy, StoreError, StoreSnapshot, StoredView, ViewStore,
};
pub use verify::{
    check_snapshot, check_store_dir, classify_shard_error, errors_only, has_errors,
    verify_bounded_plan, verify_plan, verify_plan_epochs, DiagCode, Diagnostic, Severity,
};
pub use view::{materialize, ViewDef, ViewExtensions, ViewSet};
