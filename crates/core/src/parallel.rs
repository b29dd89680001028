//! Thread-parallel `MatchJoin` execution.
//!
//! The expensive stages of the ranked refinement
//! ([`crate::matchjoin`]) outside its drain are per-pattern-edge and
//! independent: compacting each merged match set into CSR form, computing
//! initial support counters, and filtering the surviving pairs. The one
//! kernel runs each of them through `par_map`, which fans them across
//! OS threads (`std::thread::scope` — the build environment vendors no
//! `rayon`) and runs inline when `threads <= 1`. The drain stays
//! sequential, so there is one drain, and per-edge fan-out only.
//!
//! The speedup ceiling is therefore `|Eq|`. Determinism: work units are
//! fixed by edge index — never by timing — and their results land in
//! edge order, so answers and [`JoinStats`] are bit-for-bit identical to
//! [`JoinStrategy::RankedBottomUp`] regardless of thread interleaving or
//! thread count (the seeded proptests in `tests/engine.rs` sweep it).

use crate::containment::ContainmentPlan;
use crate::matchjoin::{merge_step, run_fixpoint, JoinError, JoinStats, JoinStrategy};
use crate::view::ViewExtensions;
use gpv_matching::result::MatchResult;
use gpv_pattern::Pattern;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default worker count: the machine's available parallelism, probed once
/// and cached. `available_parallelism` is a syscall, and this sits on the
/// per-execution hot path (`QueryEngine::exec_for`, `run_fixpoint`), so
/// paying it per query would tax every single plan/join for a value that
/// never changes over the process lifetime.
pub fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How a [`par_map`] worker failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ParError {
    /// A work item panicked; the payload is the failing index.
    Panicked(usize),
    /// A worker thread died outside the per-item catch (its `join` failed),
    /// so no item index is known. Callers must *not* invent one — this used
    /// to surface as the sentinel `usize::MAX`, which
    /// [`JoinError::WorkerPanicked`] then reported as a nonsense edge index.
    Lost,
}

/// Runs `f(0..n)` across `threads` workers (atomic work-stealing counter),
/// returning results in index order. Inline when `threads <= 1` or the job
/// is trivially small (where a panic propagates normally, exactly like the
/// sequential executor). In the threaded path a panicking worker no longer
/// takes the whole process down through a context-free `expect`: the panic
/// is caught per work item and resurfaced as [`ParError::Panicked`] with
/// the failing index, so callers can attach executor context
/// ([`JoinError::WorkerPanicked`]); a worker lost outside the per-item
/// catch resurfaces as [`ParError::Lost`] ([`JoinError::WorkerLost`]).
pub(crate) fn par_map<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, ParError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return Ok((0..n).map(f).collect());
    }
    let counter = AtomicUsize::new(0);
    let workers = threads.min(n);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut failed: Option<ParError> = None;
    // Prefer the lowest panicked index as the reported failure; a lost
    // worker only wins when no indexed panic was observed.
    let mut note = |e: ParError| {
        failed = Some(match (failed, e) {
            (Some(ParError::Panicked(p)), ParError::Panicked(i)) => ParError::Panicked(p.min(i)),
            (Some(ParError::Panicked(p)), ParError::Lost) => ParError::Panicked(p),
            (_, e) => e,
        });
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let counter = &counter;
                let f = &f;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break Ok(local);
                        }
                        // `f` is a pure per-index computation shared by all
                        // workers; observing it mid-panic is safe because a
                        // failed index aborts the whole map.
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                            Ok(v) => local.push((i, v)),
                            Err(_) => break Err(i),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(local)) => {
                    for (i, v) in local {
                        slots[i] = Some(v);
                    }
                }
                Ok(Err(i)) => note(ParError::Panicked(i)),
                // Unreachable in practice (worker bodies catch panics), but
                // keep the process alive if it ever happens — and say "a
                // worker was lost" instead of fabricating an edge index.
                Err(_) => note(ParError::Lost),
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect())
}

/// Answers `Qs` from views with the parallel executor and an explicit
/// thread count (`0` = auto). Output and stats are identical to
/// [`match_join_with`](crate::matchjoin::match_join_with) under
/// [`JoinStrategy::RankedBottomUp`]; only wall-clock differs.
pub fn par_match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    threads: usize,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step(q, plan, ext)?;
    run_fixpoint(q, merged, JoinStrategy::Parallel, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4] {
            let out = par_map(100, threads, |i| i * i).unwrap();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty() {
        assert_eq!(par_map(0, 4, |i| i), Ok(Vec::<usize>::new()));
    }

    #[test]
    fn par_map_catches_worker_panic() {
        // Silence the default panic hook for the intentional panics below
        // (the worker catches them; the hook would still print backtraces).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = par_map(16, 4, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
        std::panic::set_hook(hook);
        assert_eq!(
            out,
            Err(ParError::Panicked(3)),
            "failing index resurfaces, process survives"
        );
    }

    /// Regression: a worker lost outside the per-item catch used to be
    /// reported as `WorkerPanicked(usize::MAX)` — a nonsense edge index
    /// that callers would happily print. The conversion must produce the
    /// distinct `WorkerLost` variant instead, and `Panicked` must never
    /// carry the old sentinel.
    #[test]
    fn lost_worker_maps_to_worker_lost_not_a_fake_index() {
        assert_eq!(JoinError::from(ParError::Lost), JoinError::WorkerLost);
        assert_eq!(
            JoinError::from(ParError::Panicked(3)),
            JoinError::WorkerPanicked(3)
        );
        let msg = JoinError::WorkerLost.to_string();
        assert!(
            !msg.contains(&usize::MAX.to_string()),
            "no fabricated edge index in: {msg}"
        );
    }

    #[test]
    fn auto_threads_is_cached_and_stable() {
        let first = auto_threads();
        assert!(first >= 1);
        for _ in 0..3 {
            assert_eq!(auto_threads(), first);
        }
    }
}
