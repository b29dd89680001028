//! Integrity-checker contract tests: `check_store_dir` must (a) pass a
//! freshly saved store with zero findings, (b) map every corruption class
//! — magic, version, checksum, truncation, CSR offsets, pair sort order,
//! intern table, pattern JSON, id ordering, meta.json, graph fingerprint —
//! to a *distinct* stable `GPV0xx` code, and (c) never report an
//! error-severity diagnostic for any scenario the generator can sample
//! (the false-positive pin: the verifier passes run inside the
//! differential fuzz harness on every iteration, so a spurious error
//! there would poison every future fuzz run).

use graph_views::generator::Scenario;
use graph_views::pattern::PatternEdgeId;
use graph_views::prelude::*;
use graph_views::views::store::ViewStore;
use graph_views::views::{
    check_snapshot, check_store_dir, has_errors, lint_query, lint_views, verify_bounded_plan,
    verify_plan, BoundedPlan, BoundedViewDef, BoundedViewSet, DiagCode, Diagnostic, Severity,
    ViewEdgeRef,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Byte-wise FNV-1a, matching `gpv_core::fnv` — needed to re-forge shard
/// checksums so structural corruptions get past the integrity gate.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gpv-verify-{}-{n}", std::process::id()))
}

fn single(x: &str, y: &str) -> Pattern {
    let mut b = PatternBuilder::new();
    let u = b.node_labeled(x);
    let v = b.node_labeled(y);
    b.edge(u, v);
    b.build().unwrap()
}

/// A one-shard store whose first view has a two-pair edge set (so the
/// pair-sort corruption has something to unsort) and which holds two
/// views (so the id-ordering corruption has a second id to clash with).
fn saved_store() -> (std::path::PathBuf, DataGraph) {
    let mut b = GraphBuilder::new();
    let a0 = b.add_node(["A"]);
    let b1 = b.add_node(["B"]);
    let a2 = b.add_node(["A"]);
    let b3 = b.add_node(["B"]);
    let c4 = b.add_node(["C"]);
    b.add_edge(a0, b1);
    b.add_edge(a2, b3);
    b.add_edge(b1, c4);
    let g = b.build();
    let vs = ViewSet::new(vec![
        ViewDef::new("vab", single("A", "B")),
        ViewDef::new("vbc", single("B", "C")),
    ]);
    let dir = scratch_dir();
    let store = ViewStore::materialize(vs, &g, 1);
    store.save_to_dir(&dir).expect("store saves");
    (dir, g)
}

/// Byte positions of the first shard's corruptible fields, recovered by
/// walking the clean file with the documented layout (`gpv_core::shard`).
struct FieldMap {
    /// First view's name-table index (u32).
    name_idx: usize,
    /// First byte of the first view's pattern JSON.
    pat_json: usize,
    /// First view's node-offsets column (u32s; `[0]` must be 0).
    node_offsets: usize,
    /// First view's pair column (8 bytes per pair).
    pairs: usize,
    /// Pairs in the first view's first edge set.
    pair_count: usize,
    /// Second view's stable id (u64).
    second_id: usize,
}

fn map_fields(bytes: &[u8]) -> FieldMap {
    let u32_at = |p: usize| u32::from_le_bytes(bytes[p..p + 4].try_into().unwrap()) as usize;
    let mut p = 20 + 8 + 4; // payload + fingerprint + view count
    let name_count = u32_at(p);
    p += 4;
    for _ in 0..name_count {
        p += 4 + u32_at(p);
    }
    p += 8; // first view id
    let name_idx = p;
    p += 4;
    let pat_len = u32_at(p);
    let pat_json = p + 4;
    p += 4 + pat_len;
    let np = u32_at(p);
    let ne = u32_at(p + 4);
    p += 8;
    let node_offsets = p;
    let nn = u32_at(p + 4 * np); // last node offset
    p += 4 * (np + 1) + 4 * nn;
    let pair_count = u32_at(p + 4 * ne); // last edge offset
    p += 4 * (ne + 1);
    let pairs = p;
    let second_id = p + 8 * pair_count;
    FieldMap {
        name_idx,
        pat_json,
        node_offsets,
        pairs,
        pair_count,
        second_id,
    }
}

/// Re-forges the header checksum after a structural corruption, so the
/// check reaches the structural validators instead of stopping at
/// `GPV054`.
fn forge_checksum(bytes: &mut [u8]) {
    let sum = fnv1a(&bytes[20..]);
    bytes[12..20].copy_from_slice(&sum.to_le_bytes());
}

fn check_corrupted(dir: &std::path::Path, bytes: Vec<u8>) -> Vec<Diagnostic> {
    std::fs::write(dir.join("shard-0000.bin"), bytes).expect("shard writes");
    check_store_dir(dir)
}

fn sole_error_code(diags: &[Diagnostic]) -> DiagCode {
    let errors: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(!errors.is_empty(), "expected an error finding: {diags:?}");
    errors[0].code
}

#[test]
fn clean_store_checks_clean() {
    let (dir, g) = saved_store();
    let diags = check_store_dir(&dir);
    assert!(diags.is_empty(), "{diags:?}");
    let loaded = ViewStore::load_from_dir(&dir).expect("loads");
    let snap = check_snapshot(&loaded.snapshot(), Some(&g));
    assert!(snap.is_empty(), "{snap:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The sweep: bit-flip (or rewrite) each field class of the shard file
/// and assert each corruption surfaces as its own distinct `GPV0xx` code.
#[test]
fn each_corruption_class_has_a_distinct_code() {
    let (dir, _g) = saved_store();
    let clean = std::fs::read(dir.join("shard-0000.bin")).expect("shard reads");
    let f = map_fields(&clean);
    assert!(f.pair_count >= 2, "fixture needs a two-pair edge set");

    let mut seen: Vec<(&str, DiagCode)> = Vec::new();
    let mut case = |name: &'static str, corrupt: &dyn Fn(&mut Vec<u8>), expect: DiagCode| {
        let mut bytes = clean.clone();
        corrupt(&mut bytes);
        let code = sole_error_code(&check_corrupted(&dir, bytes));
        assert_eq!(code, expect, "corruption class `{name}`");
        seen.push((name, code));
    };

    case("magic", &|b| b[0] ^= 0xff, DiagCode::ShardBadMagic);
    case("version", &|b| b[8] = 99, DiagCode::ShardBadVersion);
    case(
        "checksum",
        &|b| {
            let last = b.len() - 1;
            b[last] ^= 0x01; // payload flip, header checksum left alone
        },
        DiagCode::ShardChecksumMismatch,
    );
    case(
        "truncation",
        &|b| {
            b.truncate(b.len() - 4);
            forge_checksum(b);
        },
        DiagCode::ShardTruncated,
    );
    case(
        "csr-offsets",
        &|b| {
            b[f.node_offsets..f.node_offsets + 4].copy_from_slice(&7u32.to_le_bytes());
            forge_checksum(b);
        },
        DiagCode::ShardBadOffsets,
    );
    case(
        "pair-sort",
        &|b| {
            // Overwrite the first pair with the second: equal adjacent
            // pairs break the strictly-sorted set invariant.
            let second: Vec<u8> = b[f.pairs + 8..f.pairs + 16].to_vec();
            b[f.pairs..f.pairs + 8].copy_from_slice(&second);
            forge_checksum(b);
        },
        DiagCode::ShardUnsortedSet,
    );
    case(
        "intern-table",
        &|b| {
            b[f.name_idx..f.name_idx + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            forge_checksum(b);
        },
        DiagCode::ShardBadInternTable,
    );
    case(
        "pattern-json",
        &|b| {
            b[f.pat_json] = b'X';
            forge_checksum(b);
        },
        DiagCode::ShardBadPatternJson,
    );
    case(
        "id-order",
        &|b| {
            // Both view ids zero: the second is no longer strictly above
            // the first.
            b[f.second_id..f.second_id + 8].copy_from_slice(&0u64.to_le_bytes());
            forge_checksum(b);
        },
        DiagCode::StoreIdsNotAscending,
    );
    case(
        "trailing-bytes",
        &|b| {
            b.extend_from_slice(&[0u8; 4]);
            forge_checksum(b);
        },
        DiagCode::ShardTrailingBytes,
    );
    case(
        "graph-fingerprint",
        &|b| {
            b[20] ^= 0xff; // fingerprint no longer matches meta.json
            forge_checksum(b);
        },
        DiagCode::StoreGraphMismatch,
    );

    // meta.json corruption classes live outside the shard bytes.
    std::fs::write(dir.join("shard-0000.bin"), &clean).unwrap();
    std::fs::write(dir.join("meta.json"), "{not json").unwrap();
    let meta_code = sole_error_code(&check_store_dir(&dir));
    assert_eq!(meta_code, DiagCode::StoreMetaInvalid);
    seen.push(("meta-json", meta_code));

    std::fs::remove_dir_all(&dir).ok();
    let missing_code = sole_error_code(&check_store_dir(&dir));
    assert_eq!(missing_code, DiagCode::StoreIo);
    seen.push(("missing-dir", missing_code));

    // Distinctness: every corruption class maps to its own code.
    for (i, (ni, ci)) in seen.iter().enumerate() {
        for (nj, cj) in seen.iter().skip(i + 1) {
            assert_ne!(ci, cj, "classes `{ni}` and `{nj}` share code {ci:?}");
        }
    }
}

/// A bounded query `A -[2]-> B, A -[2]-> C`, one bounded view with the
/// same two edges (view edge `i` witnesses query edge `i` only), and the
/// engine's plan for it.
fn bounded_fixture() -> (BoundedPattern, BoundedViewSet, BoundedPlan) {
    let fan = || {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge_bounded(a, bb, 2);
        b.edge_bounded(a, c, 2);
        b.build_bounded().unwrap()
    };
    let mut g = GraphBuilder::new();
    let a = g.add_node(["A"]);
    let bb = g.add_node(["B"]);
    let c = g.add_node(["C"]);
    g.add_edge(a, bb);
    g.add_edge(a, c);
    let g = g.build();
    let views = BoundedViewSet::new(vec![BoundedViewDef::new("fan", fan())]);
    let qb = fan();
    let plan = QueryEngine::materialize(ViewSet::default(), &g)
        .with_bounded_views(views.clone(), &g)
        .plan_bounded(&qb)
        .expect("the view contains the query");
    assert!(verify_bounded_plan(&qb, &plan, &views).is_empty());
    (qb, views, plan)
}

#[test]
fn bounded_plan_with_out_of_range_view_edge_is_rejected() {
    let (qb, views, mut plan) = bounded_fixture();
    plan.plan.lambda[0] = vec![ViewEdgeRef {
        view: 0,
        edge: PatternEdgeId(9),
    }];
    let codes: Vec<DiagCode> = verify_bounded_plan(&qb, &plan, &views)
        .iter()
        .map(|d| d.code)
        .collect();
    assert_eq!(codes, vec![DiagCode::PlanViewOutOfRange]);
}

#[test]
fn bounded_plan_with_non_witnessing_view_edge_is_rejected() {
    // View edge 1 (A -> C) covers query edge 1, not query edge 0.
    let (qb, views, mut plan) = bounded_fixture();
    plan.plan.lambda[0] = vec![ViewEdgeRef {
        view: 0,
        edge: PatternEdgeId(1),
    }];
    let codes: Vec<DiagCode> = verify_bounded_plan(&qb, &plan, &views)
        .iter()
        .map(|d| d.code)
        .collect();
    assert_eq!(codes, vec![DiagCode::PlanEdgeNotCovered]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The false-positive pin: on any scenario the generator can sample,
    /// all four verifier passes — plan IR, query lints, view-set lints,
    /// store/snapshot integrity — report zero error-severity diagnostics
    /// for plans the engine produced and stores it materialized.
    #[test]
    fn sampled_scenarios_verify_clean(seed in any::<u64>(), index in 0u64..64) {
        let sc = Scenario::sample(seed, index);
        let inputs = sc.materialize();
        let g = &inputs.graph;

        let engine = QueryEngine::materialize(inputs.views.clone(), g);
        for q in &inputs.queries {
            let plan = engine.plan(q);
            let diags = verify_plan(q, &plan, engine.views());
            prop_assert!(!has_errors(&diags), "plan verifier errored: {diags:?}");
            let lints = lint_query(q, Some(g));
            prop_assert!(!has_errors(&lints), "query lint errored: {lints:?}");
        }
        let vdiags = lint_views(&inputs.views, &inputs.queries, &[]);
        prop_assert!(!has_errors(&vdiags), "view lint errored: {vdiags:?}");

        let store = ViewStore::materialize(inputs.views.clone(), g, 2);
        let sdiags = check_snapshot(&store.snapshot(), Some(g));
        prop_assert!(!has_errors(&sdiags), "snapshot check errored: {sdiags:?}");

        let dir = scratch_dir();
        store.save_to_dir(&dir).expect("store saves");
        let ddiags = check_store_dir(&dir);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(!has_errors(&ddiags), "store check errored: {ddiags:?}");
    }
}
