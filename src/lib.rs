//! # graph-views
//!
//! A complete Rust implementation of *Answering Graph Pattern Queries Using
//! Views* (Wenfei Fan, Xin Wang, Yinghui Wu — ICDE 2014).
//!
//! Graph pattern matching via (bounded) simulation can answer a pattern query
//! `Qs` over a large graph `G` **without accessing `G`**, using only a set of
//! materialized views `V(G)`, whenever `Qs` is *contained* in the view
//! definitions `V` (`Qs ⊑ V`). This crate is a facade over the workspace:
//!
//! * [`graph`] — the data-graph substrate ([`gpv_graph`]);
//! * [`pattern`] — pattern queries `Qs` / bounded patterns `Qb` ([`gpv_pattern`]);
//! * [`matching`] — `Match` / `BMatch` baselines and simulation engines
//!   ([`gpv_matching`]);
//! * [`views`] — the paper's contribution: containment, `contain` /
//!   `minimal` / `minimum`, `MatchJoin` / `BMatchJoin` ([`gpv_core`]);
//! * [`generator`] — seeded workload generators ([`gpv_generator`]).
//!
//! ## Quickstart
//!
//! ```
//! use graph_views::prelude::*;
//!
//! // Build a tiny data graph: PM -> DBA -> PRG -> DBA (cycle).
//! let mut b = GraphBuilder::new();
//! let pm = b.add_node(["PM"]);
//! let dba = b.add_node(["DBA"]);
//! let prg = b.add_node(["PRG"]);
//! b.add_edge(pm, dba);
//! b.add_edge(dba, prg);
//! b.add_edge(prg, dba);
//! let g = b.build();
//!
//! // A pattern: PM -> DBA.
//! let mut p = PatternBuilder::new();
//! let u0 = p.node_labeled("PM");
//! let u1 = p.node_labeled("DBA");
//! p.edge(u0, u1);
//! let q = p.build().unwrap();
//!
//! // Direct evaluation (the paper's Match baseline).
//! let result = gpv_matching::simulation::match_pattern(&q, &g);
//! assert!(!result.is_empty());
//!
//! // Define a view identical to the query, materialize it, then answer the
//! // query from the view alone.
//! let views = ViewSet::new(vec![ViewDef::new("v0", q.clone())]);
//! let ext = materialize(&views, &g);
//! let plan = contain(&q, &views).expect("query is contained in the views");
//! let via_views = match_join(&q, &plan, &ext).unwrap();
//! assert_eq!(via_views, result);
//!
//! // Or let the QueryEngine make every decision (containment analysis,
//! // cost-based view selection, sequential vs parallel execution):
//! let engine = QueryEngine::materialize(views, &g);
//! let via_engine = engine.answer_from_views(&q).expect("Qs ⊑ V");
//! assert_eq!(via_engine, result);
//! println!("{}", engine.explain(&q));
//! ```

#![forbid(unsafe_code)]

pub use gpv_core as views;
pub use gpv_generator as generator;
pub use gpv_graph as graph;
pub use gpv_matching as matching;
pub use gpv_pattern as pattern;

/// Commonly used items, re-exported for `use graph_views::prelude::*`.
pub mod prelude {
    pub use gpv_core::bcontainment::{bcontain, bminimal, bminimum};
    pub use gpv_core::bmatchjoin::bmatch_join;
    pub use gpv_core::containment::{contain, query_contained, ContainmentPlan};
    pub use gpv_core::cost::{CostEstimate, CostModel};
    pub use gpv_core::engine::{EngineConfig, EngineError, QueryEngine};
    pub use gpv_core::matchjoin::{match_join, match_join_with, JoinStrategy};
    pub use gpv_core::minimal::minimal;
    pub use gpv_core::minimum::minimum;
    pub use gpv_core::plan::{EdgeSource, ExecStrategy, FallbackReason, QueryPlan, SelectionMode};
    pub use gpv_core::view::{materialize, ViewDef, ViewExtensions, ViewSet};
    pub use gpv_graph::{DataGraph, GraphBuilder, NodeId, Value};
    pub use gpv_matching::bounded::bmatch_pattern;
    pub use gpv_matching::result::MatchResult;
    pub use gpv_matching::simulation::match_pattern;
    pub use gpv_pattern::{
        BoundedPattern, EdgeBound, Pattern, PatternBuilder, PatternNodeId, Predicate,
    };
}
