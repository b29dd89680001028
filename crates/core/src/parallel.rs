//! The machine's available parallelism.
//!
//! `MatchJoin` runs on one thread; nothing in the engine reads this. It
//! remains only for perfbench, which records it in each run's header, and
//! goes with ROADMAP's "Pending benchmark change".

use std::sync::OnceLock;

/// The machine's available parallelism, probed once and cached. Exists only
/// for perfbench; goes with ROADMAP's "Pending benchmark change".
pub fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}
