//! Serving-layer contract tests: `ViewService` batch answers must be
//! byte-identical to sequential `QueryEngine::answer`, under concurrency,
//! across every plan shape the planner can pick, and the plan cache must
//! hand out *the same* plan for identical (query, view-set) fingerprints.

use gpv_generator::{covering_views, random_graph, random_pattern, PatternShape};
use graph_views::prelude::*;
use graph_views::views::compact::CompactView;
use graph_views::views::service::query_fingerprint;
use graph_views::views::store::ViewStore;
use graph_views::views::{EdgeDelta, QueryFootprint, ServiceError, ViewService};
use proptest::prelude::*;
use std::sync::Arc;

const LABELS: [&str; 4] = ["A", "B", "C", "D"];

fn build_service(views: ViewSet, g: &DataGraph, shards: usize) -> ViewService {
    ViewService::new(Arc::new(ViewStore::materialize(views, g, shards)))
}

/// N threads, overlapping duplicated batches: every answer equals the
/// single-threaded `QueryEngine::answer` ground truth, identical
/// fingerprints share one cached plan, and the cache records hits.
#[test]
fn concurrent_batches_match_sequential_engine() {
    let g = random_graph(40, 120, &LABELS, 7);
    let queries: Vec<Pattern> = (0..5)
        .map(|i| random_pattern(3, 4, &LABELS, PatternShape::Any, 100 + i))
        .collect();
    let views = covering_views(&queries, 2, 9);
    let engine = QueryEngine::materialize(views.clone(), &g);
    let ground_truth: Vec<MatchResult> = queries
        .iter()
        .map(|q| engine.answer(q, &g).unwrap())
        .collect();

    let service = build_service(views, &g, 4);
    // Overlapping batches: each client rotates the same query set and
    // duplicates it, so clients race on the same plan-cache keys.
    let n_clients = 8;
    let answers: Vec<Vec<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                let service = &service;
                let queries = &queries;
                let g = &g;
                s.spawn(move || {
                    let mut batch: Vec<Pattern> = Vec::new();
                    for i in 0..queries.len() * 2 {
                        batch.push(queries[(c + i) % queries.len()].clone());
                    }
                    service.serve_batch(&batch, Some(g))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut plans_by_fingerprint: std::collections::HashMap<u64, Arc<QueryPlan>> =
        std::collections::HashMap::new();
    for (c, client_answers) in answers.iter().enumerate() {
        assert_eq!(client_answers.len(), queries.len() * 2);
        for (i, r) in client_answers.iter().enumerate() {
            let a = r.as_ref().expect("all queries covered");
            let qi = (c + i) % queries.len();
            assert_eq!(
                *a.result, ground_truth[qi],
                "client {c} answer {i} ≡ sequential QueryEngine::answer"
            );
            assert_eq!(a.query_fingerprint, query_fingerprint(&queries[qi]));
            // One plan per fingerprint, service-wide: every answer for the
            // same query must carry the identical cached plan.
            match plans_by_fingerprint.entry(a.query_fingerprint) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    assert_eq!(
                        **e.get(),
                        *a.plan,
                        "identical fingerprints produce identical plans"
                    );
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(a.plan.clone());
                }
            }
        }
    }

    let stats = service.stats();
    assert_eq!(
        stats.queries,
        (n_clients * queries.len() * 2) as u64,
        "every submitted query was counted"
    );
    // Under concurrency any mix of the three reuse layers may fire (which
    // client wins each race is nondeterministic), but *some* reuse must:
    // 8 clients served 2x the distinct query count each.
    assert!(
        stats.plan_cache_hits + stats.result_cache_hits + stats.dedup_saved > 0,
        "duplicated batches must reuse work: {stats:?}"
    );
    assert!(
        stats.plan_cache_size <= queries.len(),
        "at most one cached plan per distinct query"
    );
    assert_eq!(stats.in_flight, 0, "queue drains");
    assert_eq!(stats.latency.count(), stats.queries, "every query timed");

    // Deterministic tail: with the caches warm and no concurrency, a
    // repeated batch is answered entirely from the result cache, sharing
    // the identical `Arc` answers.
    let warm = service.serve_batch(&queries, Some(&g));
    for (qi, r) in warm.iter().enumerate() {
        let a = r.as_ref().unwrap();
        assert!(a.result_cached, "warm repeat must hit the result cache");
        assert_eq!(*a.result, ground_truth[qi]);
    }
    let after = service.stats();
    assert!(after.result_cache_hits >= queries.len() as u64);
}

/// Concurrent mutation: clients keep serving while a writer registers
/// views; every answer must still equal the ground truth of *some* valid
/// store state (here: always the ground truth, since extra views never
/// change answers — Theorem 1).
#[test]
fn serving_stays_correct_under_concurrent_registration() {
    let g = random_graph(30, 90, &LABELS, 11);
    let q = random_pattern(3, 4, &LABELS, PatternShape::Any, 5);
    let views = covering_views(std::slice::from_ref(&q), 2, 13);
    let truth = match_pattern(&q, &g);

    let service = build_service(views, &g, 8);
    std::thread::scope(|s| {
        // Writer: registers fresh (redundant) views, bumping the store
        // version and invalidating the engine snapshot repeatedly.
        let writer = {
            let service = &service;
            let g = &g;
            s.spawn(move || {
                for i in 0..10 {
                    let extra = random_pattern(2, 2, &LABELS, PatternShape::Any, 50 + i);
                    service
                        .store()
                        .insert(ViewDef::new(format!("w{i}"), extra), g)
                        .unwrap();
                }
            })
        };
        for _ in 0..4 {
            let service = &service;
            let q = &q;
            let g = &g;
            let truth = &truth;
            s.spawn(move || {
                for _ in 0..10 {
                    let a = service.serve(q, Some(g)).unwrap();
                    assert_eq!(&*a.result, truth);
                }
            });
        }
        writer.join().unwrap();
    });
    assert!(service.stats().engine_rebuilds >= 1);
}

/// Strict views-only serving refuses when the plan needs the graph.
#[test]
fn strict_mode_refuses_uncovered_queries() {
    let g = random_graph(30, 90, &LABELS, 3);
    let q = random_pattern(4, 5, &LABELS, PatternShape::Any, 8);
    // No views at all: every plan is Direct, which needs G.
    let service = build_service(ViewSet::default(), &g, 2);
    assert!(matches!(
        service.serve(&q, None),
        Err(ServiceError::NeedsGraph)
    ));
    // Same query with the graph: answered, equal to ground truth.
    let a = service.serve(&q, Some(&g)).unwrap();
    assert_eq!(*a.result, match_pattern(&q, &g));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: for random (graph, views, queries), a
    /// duplicated service batch answers byte-identically to sequential
    /// `QueryEngine::answer` across all plan shapes (views-only, hybrid,
    /// direct — whatever the planner picks per query), and duplicated
    /// entries hit the dedup/plan-cache path.
    #[test]
    fn batch_equals_sequential_engine(
        (n, m, gseed) in (5usize..50, 10usize..120, any::<u64>()),
        qseeds in proptest::collection::vec(any::<u64>(), 1..4),
        vseed in any::<u64>(),
        keep_probe in any::<u64>(),
        shards in 1usize..9,
    ) {
        let g = random_graph(n, m, &LABELS, gseed);
        let queries: Vec<Pattern> = qseeds
            .iter()
            .map(|&s| random_pattern(3, 4, &LABELS, PatternShape::Any, s))
            .collect();
        // Random subset of covering views: full, partial, or no coverage,
        // so the planner exercises every plan shape.
        let full = covering_views(&queries, 2, vseed);
        let keep: Vec<usize> = (0..full.card())
            .filter(|i| (keep_probe >> (i % 64)) & 1 == 1)
            .collect();
        let views = full.subset(&keep);

        let engine = QueryEngine::materialize(views.clone(), &g);
        let service = build_service(views, &g, shards);

        // Batch = each query twice (dedup path) in interleaved order.
        let mut batch: Vec<Pattern> = Vec::new();
        batch.extend(queries.iter().cloned());
        batch.extend(queries.iter().cloned());

        let answers = service.serve_batch(&batch, Some(&g));
        prop_assert_eq!(answers.len(), batch.len());
        for (i, r) in answers.iter().enumerate() {
            let expected = engine.answer(&batch[i], &g).unwrap();
            let a = r.as_ref().expect("graph fallback always answers");
            prop_assert_eq!(&*a.result, &expected, "batch slot {} diverged", i);
        }
        // The second copy of each distinct query deduplicated.
        let distinct: std::collections::HashSet<u64> =
            batch.iter().map(query_fingerprint).collect();
        prop_assert_eq!(
            service.stats().dedup_saved,
            (batch.len() - distinct.len()) as u64
        );
    }

    /// The tentpole acceptance property: with the result cache enabled,
    /// `serve_batch` stays bit-identical to a sequential
    /// `QueryEngine::answer` built fresh from the store snapshot, across
    /// rounds of repeated batches interleaved with store mutations — no
    /// stale answer survives a version bump.
    #[test]
    fn result_cache_consistent_across_mutations(
        (n, m, gseed) in (5usize..40, 10usize..100, any::<u64>()),
        qseeds in proptest::collection::vec(any::<u64>(), 1..4),
        vseed in any::<u64>(),
        shards in 1usize..7,
    ) {
        let g = random_graph(n, m, &LABELS, gseed);
        let queries: Vec<Pattern> = qseeds
            .iter()
            .map(|&s| random_pattern(3, 4, &LABELS, PatternShape::Any, s))
            .collect();
        let views = covering_views(&queries, 2, vseed);
        let mut batch: Vec<Pattern> = queries.clone();
        batch.extend(queries.iter().cloned());
        // Sweep the result-cache budget across disabled, tiny (constant
        // eviction churn), and the 64 MiB default: cold, thrashing, and
        // hot cache states all face the same mutation differential, with a
        // fresh store and service per budget.
        for rcb in [0usize, 4096, 64 << 20] {
            let store = std::sync::Arc::new(ViewStore::materialize(views.clone(), &g, shards));
            let svc = ViewService::with_config(
                store,
                graph_views::views::ServiceConfig {
                    result_cache_bytes: rcb,
                    ..Default::default()
                },
            );
            for round in 0..4u64 {
                // Ground truth rebuilt from the *current* store state each
                // round, so cached answers are checked against what a fresh
                // sequential engine computes now.
                let engine = QueryEngine::from_snapshot(&svc.store().snapshot());
                let answers = svc.serve_batch(&batch, Some(&g));
                for (i, r) in answers.iter().enumerate() {
                    let a = r.as_ref().expect("graph fallback always answers");
                    let expected = engine.answer(&batch[i], &g).unwrap();
                    prop_assert_eq!(
                        &*a.result, &expected,
                        "round {} slot {} diverged at cache budget {}", round, i, rcb
                    );
                }
                // Mutate the store between rounds: the version bump must
                // invalidate every cached answer exactly.
                let extra = random_pattern(2, 2, &LABELS, PatternShape::Any, vseed ^ (round + 1));
                svc.store()
                    .insert(ViewDef::new(format!("m{round}"), extra), &g)
                    .unwrap();
            }
            // Repeats inside each round's batch reuse work via dedup or the
            // result cache; across mutated rounds nothing stale ever hit, but
            // the identical second half of each batch guarantees reuse fired
            // even with the result cache disabled outright.
            let stats = svc.stats();
            prop_assert!(
                stats.dedup_saved + stats.result_cache_hits > 0,
                "no reuse at cache budget {}", rcb
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delta chains served twice, with the result cache on and off: every
    /// answer is identical (and equals `match_pattern` on the current
    /// graph), and the cached service does hit. The first delta joins two
    /// `Z` nodes, which no query or view mentions, so it misses every
    /// footprint and the next round must be answered from the cache — the
    /// graph-reading answers through `ViewService::apply_delta`'s refresh.
    #[test]
    fn delta_chains_answer_the_same_with_the_result_cache_on_and_off(
        edges in proptest::collection::vec((0u32..30, 0u32..30), 20..90),
        qseeds in proptest::collection::vec(any::<u64>(), 1..4),
        vseed in any::<u64>(),
        keep_probe in any::<u64>(),
        chain in proptest::collection::vec((any::<bool>(), 0u32..30, 0u32..30), 1..5),
    ) {
        // Node i is labeled A, B, C, D or Z by i mod 5; nodes 4 and 9 are Z.
        let mut b = GraphBuilder::new();
        for i in 0..30 {
            b.add_node([["A", "B", "C", "D", "Z"][i % 5]]);
        }
        for &(u, v) in &edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let g = b.build();
        // Two- and three-node queries, so answers are often nonempty and
        // a delta inside a footprint often changes one.
        let queries: Vec<Pattern> = qseeds
            .iter()
            .map(|&s| random_pattern(2 + (s % 2) as usize, 3, &LABELS, PatternShape::Any, s))
            .collect();
        // A random subset of covering views, so graph-reading plans occur.
        let full = covering_views(&queries, 2, vseed);
        let keep: Vec<usize> = (0..full.card())
            .filter(|i| (keep_probe >> (i % 64)) & 1 == 1)
            .collect();
        let views = full.subset(&keep);
        let services = [64usize << 20, 0].map(|bytes| {
            ViewService::with_config(
                Arc::new(ViewStore::materialize(views.clone(), &g, 2)),
                graph_views::views::ServiceConfig {
                    result_cache_bytes: bytes,
                    ..Default::default()
                },
            )
        });
        let mut current = g;
        let first = EdgeDelta::new(vec![(NodeId(4), NodeId(9))], vec![]);
        for round in 0..=chain.len() {
            // `(true, u, v)` inserts u→v; `(false, u, v)` deletes the
            // present edge that `u * 30 + v` picks.
            let delta = match round.checked_sub(1).map(|i| chain[i]) {
                None => first.clone(),
                Some((true, u, v)) => EdgeDelta::new(vec![(NodeId(u), NodeId(v))], vec![]),
                Some((false, u, v)) => {
                    let present: Vec<(NodeId, NodeId)> = current.edges().collect();
                    let e = present[(u * 30 + v) as usize % present.len()];
                    EdgeDelta::new(vec![], vec![e])
                }
            };
            let [cached, uncached] = services.each_ref().map(|s| s.serve_batch(&queries, Some(&current)));
            for (slot, q) in queries.iter().enumerate() {
                let (a, b) = (cached[slot].as_ref().unwrap(), uncached[slot].as_ref().unwrap());
                prop_assert_eq!(&*a.result, &*b.result, "round {} slot {}", round, slot);
                prop_assert_eq!(&*a.result, &match_pattern(q, &current));
            }
            let next = services[0].apply_delta(&delta, &current).unwrap().graph;
            services[1].apply_delta(&delta, &current).unwrap();
            current = next;
        }
        let [on, off] = services.each_ref().map(|s| s.stats().result_cache_hits);
        prop_assert!(on > 0, "the cached service never hit");
        prop_assert_eq!(off, 0);
    }
}

/// The zero-copy rebuild contract: after a single-view insert, the rebuilt
/// engine's extensions for the *unchanged* views are the same `Arc`
/// allocations as before the mutation — the rebuild shares, it does not
/// deep-copy the store.
#[test]
fn engine_rebuild_shares_unchanged_extensions() {
    let g = random_graph(30, 80, &LABELS, 41);
    let q = random_pattern(3, 4, &LABELS, PatternShape::Any, 43);
    let views = covering_views(std::slice::from_ref(&q), 2, 47);
    let store = ViewStore::materialize(views, &g, 4);

    let before = QueryEngine::from_snapshot(&store.snapshot());
    store
        .insert(
            ViewDef::new(
                "extra",
                random_pattern(2, 2, &LABELS, PatternShape::Any, 53),
            ),
            &g,
        )
        .unwrap();
    let after = QueryEngine::from_snapshot(&store.snapshot());

    let old = &before.extensions().extensions;
    let new = &after.extensions().extensions;
    assert_eq!(new.len(), old.len() + 1, "one view was added");
    for (i, (a, b)) in old.iter().zip(new.iter()).enumerate() {
        assert!(
            std::sync::Arc::ptr_eq(a, b),
            "extension {i} was deep-copied instead of shared"
        );
    }
    // And the stored extension itself is the same allocation the engine
    // borrows — store → snapshot → engine is one chain of Arcs.
    let snap = store.snapshot();
    for (stored, engine_ext) in snap.views().iter().zip(new.iter()) {
        assert!(std::sync::Arc::ptr_eq(&stored.ext, engine_ext));
    }
    // Rebuilds change sharing, never answers.
    assert_eq!(
        before.answer(&q, &g).unwrap(),
        after.answer(&q, &g).unwrap()
    );
}

/// The LRU regression (the cache used to clear wholesale when full): a hot
/// entry that keeps being served must survive a sustained flood of distinct
/// cold queries, and the cache never exceeds its capacity.
#[test]
fn plan_cache_lru_keeps_hot_entries_under_cold_flood() {
    use graph_views::views::ServiceConfig;
    let g = random_graph(30, 80, &LABELS, 3);
    let hot = random_pattern(3, 3, &LABELS, PatternShape::Any, 1);
    let views = covering_views(std::slice::from_ref(&hot), 2, 5);
    let store = Arc::new(ViewStore::materialize(views, &g, 2));
    let svc = ViewService::with_config(
        store,
        ServiceConfig {
            plan_cache_capacity: 8,
            // Result caching off so every repeat reaches the plan cache —
            // this test pins the plan cache's LRU policy specifically.
            result_cache_bytes: 0,
            ..ServiceConfig::default()
        },
    );
    // Warm the hot entry, then flood with distinct cold queries while the
    // hot query keeps arriving in between (staying most-recently-used).
    svc.serve(&hot, Some(&g)).unwrap();
    for i in 0..50u64 {
        let cold = random_pattern(3, 3, &LABELS, PatternShape::Any, 1_000 + i);
        svc.serve(&cold, Some(&g)).unwrap();
        let again = svc.serve(&hot, Some(&g)).unwrap();
        assert!(
            again.plan_cached,
            "hot entry evicted by the cold flood at i={i}"
        );
    }
    let stats = svc.stats();
    assert!(
        stats.plan_cache_size <= 8,
        "LRU keeps the cache bounded: {}",
        stats.plan_cache_size
    );
}

/// Strict views-only serving reuses answers computed with the graph: a
/// covered query served once with `G` plans views-only, so its cached
/// answer also satisfies a later strict (`g = None`) call — the result
/// cache admits exactly the answers whose plans never read `G`.
#[test]
fn strict_mode_reuses_covered_answers_without_graph() {
    let g = random_graph(40, 120, &LABELS, 29);
    let q = random_pattern(3, 4, &LABELS, PatternShape::Any, 31);
    let views = covering_views(std::slice::from_ref(&q), 2, 33);
    let truth = match_pattern(&q, &g);
    let svc = ViewService::new(Arc::new(ViewStore::materialize(views, &g, 2)));
    let first = svc.serve(&q, Some(&g)).unwrap();
    assert!(!first.plan.needs_graph(), "covering views contain q");
    assert_eq!(*first.result, truth);
    let strict = svc.serve(&q, None).unwrap();
    assert!(
        strict.result_cached,
        "a views-only answer serves strict calls"
    );
    assert_eq!(*strict.result, truth);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Scenario-driven serving sweep biased toward churn: every sampled
    /// scenario is forced onto the hard path — multiple rounds and a store
    /// mutation after each one — and the differential checker asserts the
    /// served answers stay bit-exact
    /// against `match_pattern` throughout. Failures print the scenario's
    /// one-line JSON and the exact `gpv fuzz --repro` command.
    #[test]
    fn scenario_serving_matches_oracle_under_mutation(master in any::<u64>(), idx in 0u64..60) {
        let mut sc = gpv_generator::Scenario::sample(master, idx);
        sc.rounds = 4;
        sc.updates_per_round = 1;
        if let Err(d) = gpv_generator::check_scenario(&sc) {
            return Err(TestCaseError::fail(format!(
                "{d}\nscenario: {}\nrepro: {}",
                sc.to_json_line(),
                sc.repro_command()
            )));
        }
    }
}

/// What one [`answer_level_case`] saw.
#[derive(Clone, Copy)]
struct AnswerLevelCase {
    /// The delta touched the query's footprint.
    touched: bool,
    /// `may_change` proved the answer unchanged.
    kept: bool,
    /// The pre-delta answer was empty.
    empty: bool,
}

/// The exactness contract of `QueryFootprint::may_change` on one case: a
/// 12-node graph over three labels, a DAG, cyclic or mixed query of two
/// or three nodes (so sinks occur), and a delta built from `script`. Op
/// `k % 4` of each step inserts a fresh random edge, re-inserts a present
/// edge, deletes a present edge or deletes a random (often absent) one.
/// Whenever `may_change` says `false`, `match_pattern` on the post-delta
/// graph must equal the cached answer, node sets included.
fn answer_level_case(
    gseed: u64,
    qseed: u64,
    script: &[(u8, u32, u32)],
) -> Result<AnswerLevelCase, TestCaseError> {
    let g = random_graph(12, 24, &LABELS[..3], gseed);
    let shape = [PatternShape::Dag, PatternShape::Cyclic, PatternShape::Any][(qseed % 3) as usize];
    let nodes = 2 + (qseed / 3 % 2) as usize;
    let q = random_pattern(
        nodes,
        nodes + (qseed / 6 % 2) as usize,
        &LABELS[..3],
        shape,
        qseed,
    );
    let present: Vec<(NodeId, NodeId)> = g.edges().collect();
    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
    for &(k, a, b) in script {
        let pick = present[(a * 12 + b) as usize % present.len()];
        match k % 4 {
            0 => inserts.push((NodeId(a), NodeId(b))),
            1 => inserts.push(pick),
            2 => deletes.push(pick),
            _ => deletes.push((NodeId(a), NodeId(b))),
        }
    }
    let delta = EdgeDelta::new(inserts, deletes);
    let before = match_pattern(&q, &g);
    let footprint = QueryFootprint::of(&q, &g);
    let kept = !footprint.may_change(&delta, &CompactView::freeze(&before), &g);
    if kept {
        let after = match_pattern(&q, &delta.apply_to(&g));
        prop_assert_eq!(&after, &before, "{:?} changed the answer to {:?}", delta, q);
    }
    Ok(AnswerLevelCase {
        touched: footprint.touched_by(&delta, &g),
        kept,
        empty: before.is_empty(),
    })
}

/// A fixed sweep of [`answer_level_case`], asserting the test is not
/// vacuous: touched answers, empty and non-empty, are kept, and touched
/// answers are also sent back for recomputation.
#[test]
fn answer_level_sweep_keeps_touched_answers_exactly() {
    let (mut kept_full, mut kept_empty, mut recomputed) = (0, 0, 0);
    for seed in 0u64..600 {
        let x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let script: Vec<(u8, u32, u32)> = (0..1 + seed % 4)
            .map(|i| {
                let y = x.rotate_left(16 * i as u32);
                (y as u8, (y >> 8) as u32 % 12, (y >> 20) as u32 % 12)
            })
            .collect();
        let c = answer_level_case(seed, seed / 7, &script).unwrap();
        match (c.touched, c.kept, c.empty) {
            (true, true, false) => kept_full += 1,
            (true, true, true) => kept_empty += 1,
            (true, false, _) => recomputed += 1,
            _ => {}
        }
    }
    assert!(kept_full > 0, "no non-empty touched answer was kept");
    assert!(kept_empty > 0, "no empty touched answer was kept");
    assert!(recomputed > 0, "no touched answer was recomputed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`answer_level_case`] on random graphs, queries and deltas.
    #[test]
    fn answer_level_test_is_exact(
        gseed in any::<u64>(),
        qseed in any::<u64>(),
        script in proptest::collection::vec((any::<u8>(), 0u32..12, 0u32..12), 1..6),
    ) {
        answer_level_case(gseed, qseed, &script)?;
    }
}

/// Readers racing a delta writer over one `ViewService`: two reader
/// threads serve while the test thread applies a seeded chain of one-edge
/// deltas, handing each successor graph over through a mutex. A strict
/// batch (`g = None`) over covered queries executes against one store
/// snapshot, so it must equal `match_pattern` on one graph of the chain,
/// and that graph's chain index never decreases per reader. A batch over
/// uncovered queries, supplied the graph the reader last read, must equal
/// `match_pattern` on that graph or fail with `GraphMismatch`.
#[test]
fn readers_racing_a_delta_writer_see_one_chain_graph() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let g0 = random_graph(40, 160, &LABELS[..3], 41);
    let covered: Vec<Pattern> = (0..3)
        .map(|i| random_pattern(3, 2, &LABELS[..3], PatternShape::Any, 300 + i))
        .collect();
    let svc = ViewService::new(Arc::new(ViewStore::materialize(
        covering_views(&covered, 2, 43),
        &g0,
        2,
    )));
    let uncovered: Vec<Pattern> = (0..8)
        .map(|i| random_pattern(3, 2, &LABELS[..3], PatternShape::Any, 400 + i))
        .filter(|q| matches!(svc.serve(q, None), Err(ServiceError::NeedsGraph)))
        .collect();
    assert!(!uncovered.is_empty(), "no uncovered query to read G with");

    // The chain: alternately insert an absent edge and delete a present one.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let (mut deltas, mut graphs) = (Vec::new(), vec![g0.clone()]);
    while deltas.len() < 30 {
        let g = graphs.last().unwrap();
        let delta = if deltas.len() % 2 == 0 {
            let n = g.node_count();
            let e = (NodeId(next(n) as u32), NodeId(next(n) as u32));
            if e.0 == e.1 || g.has_edge(e.0, e.1) {
                continue;
            }
            EdgeDelta::new(vec![e], vec![])
        } else {
            // A matched edge: deleting it changes a strict answer.
            let matched: Vec<(NodeId, NodeId)> = covered
                .iter()
                .flat_map(|q| match_pattern(q, g).edge_matches.into_iter().flatten())
                .collect();
            let e = match matched.len() {
                0 => g.edges().nth(next(g.edge_count())).unwrap(),
                n => matched[next(n)],
            };
            EdgeDelta::new(vec![], vec![e])
        };
        graphs.push(delta.apply_to(g));
        deltas.push(delta);
    }
    let oracle = |qs: &[Pattern]| -> Vec<Vec<MatchResult>> {
        let answers = |g: &DataGraph| qs.iter().map(|q| match_pattern(q, g)).collect();
        graphs.iter().map(answers).collect()
    };
    let (strict_truth, graph_truth) = (oracle(&covered), oracle(&uncovered));
    assert_ne!(
        strict_truth[0], strict_truth[30],
        "the chain must change a covered answer"
    );

    let current = Mutex::new((0usize, g0.clone()));
    let done = AtomicBool::new(false);
    let rounds = [AtomicUsize::new(0), AtomicUsize::new(0)];
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|reader| {
                let (svc, current, done, rounds) = (&svc, &current, &done, &rounds);
                let (covered, uncovered) = (&covered, &uncovered);
                let (strict_truth, graph_truth) = (&strict_truth, &graph_truth);
                s.spawn(move || {
                    let (mut lo, mut seen) = (0usize, std::collections::BTreeSet::new());
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let (k, g) = current.lock().unwrap().clone();
                        let strict: Vec<MatchResult> = svc
                            .serve_batch(covered, None)
                            .into_iter()
                            .map(|r| (*r.expect("covered queries answer strictly").result).clone())
                            .collect();
                        let Some(i) = (lo..strict_truth.len()).find(|&i| strict_truth[i] == strict)
                        else {
                            panic!("reader {reader}: strict answers match no graph from {lo} on");
                        };
                        lo = i;
                        seen.insert(lo);
                        for (qi, r) in svc.serve_batch(uncovered, Some(&g)).iter().enumerate() {
                            match r {
                                Ok(a) => assert_eq!(
                                    *a.result, graph_truth[k][qi],
                                    "reader {reader}: query {qi} on graph {k}"
                                ),
                                Err(ServiceError::GraphMismatch { .. }) => {}
                                Err(e) => panic!("reader {reader}: query {qi}: {e}"),
                            }
                        }
                        rounds[reader].fetch_add(1, Ordering::Release);
                        if finished {
                            break;
                        }
                    }
                    assert!(seen.len() >= 2, "reader {reader} saw only {seen:?}");
                })
            })
            .collect();
        // Waits until every live reader has finished a round past `mark`.
        let await_rounds = |mark: [usize; 2]| {
            while (0..2)
                .any(|i| !readers[i].is_finished() && rounds[i].load(Ordering::Acquire) <= mark[i])
            {
                std::thread::yield_now();
            }
        };
        await_rounds([0, 0]);
        let mut applied = Ok(());
        for (k, delta) in deltas.iter().enumerate() {
            let mark = rounds.each_ref().map(|r| r.load(Ordering::Acquire));
            match svc.apply_delta(delta, &graphs[k]) {
                Ok(report) => *current.lock().unwrap() = (k + 1, report.graph),
                Err(e) => {
                    applied = Err(e);
                    break;
                }
            }
            // Every reader finishes a round that raced this delta before
            // the next one lands.
            await_rounds(mark);
        }
        // Stop the readers before failing, so a failure cannot hang them.
        done.store(true, Ordering::Release);
        applied.expect("the only writer's deltas apply");
    });
}
