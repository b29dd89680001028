//! Persistence contract tests for the columnar shard format: a store
//! saved to disk and reloaded must serve **bit-identical** answers to the
//! boxed `match_pattern` ground truth across every query mode × executor
//! × thread count the planner can pick, and corrupt shard files must load
//! as clean errors — never panics — in both debug and release builds.

use gpv_generator::{covering_views, random_graph, random_pattern, PatternShape};
use graph_views::prelude::*;
use graph_views::views::store::ViewStore;
use graph_views::views::{CompactView, ExecStrategy, ViewService};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const LABELS: [&str; 4] = ["A", "B", "C", "D"];

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test case (proptest runs many cases in
/// one process, so a per-process name is not enough).
fn scratch_dir() -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gpv-persist-{}-{n}", std::process::id()))
}

fn arb_graph() -> impl Strategy<Value = DataGraph> {
    (5usize..50, 10usize..120, any::<u64>())
        .prop_map(|(n, m, seed)| random_graph(n, m, &LABELS, seed))
}

fn arb_query() -> impl Strategy<Value = Pattern> {
    (2usize..5, 1usize..5, any::<u64>())
        .prop_map(|(nv, ne, seed)| random_pattern(nv, ne, &LABELS, PatternShape::Any, seed))
}

/// Five query modes (cost-based auto + the three pinned selections + the
/// pinned sequential executor) plus the parallel executor at two thread
/// counts: every plan shape a reloaded store can serve under.
fn all_configs() -> Vec<EngineConfig> {
    let mut cfgs = vec![EngineConfig::default()];
    for m in [
        SelectionMode::All,
        SelectionMode::Minimal,
        SelectionMode::Minimum,
    ] {
        cfgs.push(EngineConfig {
            force_selection: Some(m),
            ..EngineConfig::default()
        });
    }
    cfgs.push(EngineConfig {
        force_exec: Some(ExecStrategy::Sequential(JoinStrategy::RankedBottomUp)),
        ..EngineConfig::default()
    });
    for threads in [2usize, 4] {
        cfgs.push(EngineConfig {
            force_exec: Some(ExecStrategy::Parallel { threads }),
            ..EngineConfig::default()
        });
    }
    cfgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save → load → serve equals the boxed ground truth, for every plan
    /// shape; and freezing the ground truth itself thaws back unchanged
    /// (compact ≡ boxed at the representation level).
    #[test]
    fn reloaded_store_serves_boxed_ground_truth(
        g in arb_graph(),
        q in arb_query(),
        vseed in any::<u64>(),
    ) {
        let views = covering_views(std::slice::from_ref(&q), 3, vseed);
        let direct = match_pattern(&q, &g);

        // Representation equivalence: frozen columns thaw bit-identical.
        prop_assert_eq!(&CompactView::freeze(&direct).thaw(), &direct);

        let dir = scratch_dir();
        let store = ViewStore::materialize(views, &g, 4);
        store.save_to_dir(&dir).unwrap();
        let loaded = Arc::new(ViewStore::load_from_dir(&dir).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(loaded.snapshot().fingerprint, store.snapshot().fingerprint);

        // Through the batch service over the reloaded store...
        let service = ViewService::new(loaded.clone());
        let served = service.serve_batch(std::slice::from_ref(&q), Some(&g));
        prop_assert_eq!(&*served[0].as_ref().unwrap().result, &direct);

        // ...and through engines pinned to every mode × executor × thread
        // count, views-only (no graph access at all).
        let snap = loaded.snapshot();
        for cfg in all_configs() {
            let engine = QueryEngine::from_snapshot(&snap).with_config(cfg);
            prop_assert_eq!(&engine.answer_from_views(&q).unwrap(), &direct);
        }
    }
}

/// Every kind of shard-file damage — truncation at any point, a flipped
/// byte anywhere, and an emptied file — must surface as `Err`, never a
/// panic. Runs under `--release` in CI so debug-only checks cannot mask
/// unchecked arithmetic.
#[test]
fn corrupt_shard_files_fail_cleanly() {
    let g = random_graph(30, 80, &LABELS, 11);
    let q = random_pattern(3, 3, &LABELS, PatternShape::Any, 12);
    let views = covering_views(std::slice::from_ref(&q), 3, 13);
    let dir = scratch_dir();
    ViewStore::materialize(views, &g, 2)
        .save_to_dir(&dir)
        .unwrap();

    let shard = dir.join("shard-0000.bin");
    let pristine = std::fs::read(&shard).unwrap();
    assert!(ViewStore::load_from_dir(&dir).is_ok(), "pristine loads");

    // Truncations (every 7th prefix keeps it fast in debug builds).
    for cut in (0..pristine.len()).step_by(7) {
        std::fs::write(&shard, &pristine[..cut]).unwrap();
        assert!(
            ViewStore::load_from_dir(&dir).is_err(),
            "truncation at {cut} must be an error"
        );
    }

    // Single-byte flips (every 5th offset).
    for pos in (0..pristine.len()).step_by(5) {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0x40;
        std::fs::write(&shard, &bytes).unwrap();
        assert!(
            ViewStore::load_from_dir(&dir).is_err(),
            "bit flip at {pos} must be an error"
        );
    }

    // Restore: pristine still loads after the abuse.
    std::fs::write(&shard, &pristine).unwrap();
    assert!(ViewStore::load_from_dir(&dir).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Scenario-driven persistence sweep: materialize a sampled scenario's
    /// view set, round-trip it through the on-disk shard format, and serve
    /// the scenario's first batch from the reloaded store — every answer
    /// must stay bit-exact against `match_pattern`. Failures print the
    /// scenario's one-line JSON and the `gpv fuzz --repro` command.
    #[test]
    fn scenario_store_roundtrip_serves_oracle(master in any::<u64>(), idx in 0u64..60) {
        let sc = gpv_generator::Scenario::sample(master, idx);
        let inputs = sc.materialize();
        let store = ViewStore::materialize(inputs.views.clone(), &inputs.graph, sc.shards);
        let dir = scratch_dir();
        store.save_to_dir(&dir).unwrap();
        let loaded = Arc::new(ViewStore::load_from_dir(&dir).unwrap());
        let svc = ViewService::with_config(loaded, sc.service_config());
        let batch: Vec<Pattern> = inputs.rounds[0]
            .iter()
            .map(|&i| inputs.queries[i].clone())
            .collect();
        for (slot, served) in svc.serve_batch(&batch, Some(&inputs.graph)).into_iter().enumerate() {
            let got = served.expect("reloaded store serves the scenario batch");
            let want = match_pattern(&batch[slot], &inputs.graph);
            prop_assert_eq!(
                &*got.result,
                &want,
                "slot {} diverged after the shard round-trip\nscenario: {}\nrepro: {}",
                slot,
                sc.to_json_line(),
                sc.repro_command()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
