//! # gpv-bench — benchmark harness for the paper's evaluation
//!
//! One experiment per figure of Section VII (Fig. 8(a)–(l)), shared between
//! the Criterion benches (`benches/fig8.rs`, one group per figure) and the
//! `repro` binary that prints the paper-style series and emits
//! machine-readable JSON for EXPERIMENTS.md.
//!
//! Default sizes are scaled down from the paper's (which used 0.5M–1.6M-node
//! graphs on a 2008 testbed) by the `scale` parameter so the full suite runs
//! in minutes; the *shape* of each comparison (who wins, how curves grow) is
//! what the reproduction asserts. See DESIGN.md §S1–S2.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

pub use experiments::{ExperimentResult, Row, Scale};
