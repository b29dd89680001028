//! # gpv-matching — (bounded) graph-simulation matching engines
//!
//! The matching substrate of *Answering Graph Pattern Queries Using Views*
//! (Fan, Wang, Wu — ICDE 2014):
//!
//! * [`simulation`] — graph simulation, the `Match` baseline (\[21\], \[16\]);
//! * [`bounded`] — bounded simulation, the `BMatch` baseline (\[16\], §VI);
//! * [`pattern_sim`] — a view simulated *into a query* treated as a data
//!   graph, producing view matches `M^Qs_V` (§V-A);
//! * [`bounded_pattern_sim`] — the weighted-graph analogue for `M^Qb_V`
//!   (§VI-B);
//! * [`dual`] — dual simulation (the §VIII extension);
//! * [`result`] — match results `{(e, Se)}` with the paper's `|Q(G)|`
//!   size measure.

#![forbid(unsafe_code)]

pub mod bounded;
pub mod bounded_pattern_sim;
pub mod dual;
pub mod pattern_sim;
pub mod result;
pub mod simulation;

pub use bounded::{bmatch_pattern, bmatches, bounded_simulation_relation};
pub use bounded_pattern_sim::{
    simulate_bounded_pattern, simulate_bounded_pattern_with, QueryDistances,
};
pub use dual::{dual_match_pattern, dual_simulation_relation};
pub use pattern_sim::{simulate_pattern, simulate_pattern_dual, PatternSimResult};
pub use result::{BoundedMatchResult, MatchResult};
pub use simulation::{match_pattern, matches, simulation_relation};
