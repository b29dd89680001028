//! Property tests for incremental view maintenance: after any script of
//! edge deletions and insertions, the incrementally maintained extension
//! equals recomputation from scratch — both on small random scripts and
//! on full delta streams sampled from [`gpv_generator::Scenario`]s — and
//! for the graph side of a delta: `EdgeDelta::apply_to` splices the CSRs
//! and carries the edge-set hash, and must agree with the from-scratch
//! `DataGraph::with_edges` oracle on both adjacencies and the fingerprint.
//! And for cached answers: a delta that misses a query's edge footprint
//! (`QueryFootprint::touched_by`) leaves `match_pattern` unchanged — the
//! same footprint a maintainer restricts itself to, so out-of-footprint
//! edges patched into a maintainer must not move its result either.
//! And for the store: the footprint index it caches across deltas follows
//! views inserted and removed between them.

use gpv_generator::{random_graph, random_pattern, PatternShape, Scenario};
use graph_views::prelude::*;
use graph_views::views::storage::graph_fingerprint;
use graph_views::views::store::ViewStore;
use graph_views::views::{EdgeDelta, IncrementalView, QueryFootprint};
use proptest::prelude::*;
use std::collections::BTreeSet;

const LABELS: [&str; 3] = ["A", "B", "C"];

/// Rebuilds a graph applying an edit script to the original edge set.
fn apply_script(g0: &DataGraph, script: &[(bool, u32, u32)]) -> DataGraph {
    let mut edges: BTreeSet<(u32, u32)> = g0.edges().map(|(u, v)| (u.0, v.0)).collect();
    for &(insert, a, b) in script {
        if insert {
            edges.insert((a, b));
        } else {
            edges.remove(&(a, b));
        }
    }
    let mut b = GraphBuilder::new();
    for v in g0.nodes() {
        let labels: Vec<&str> = g0.labels_of(v).iter().map(|&l| g0.label_name(l)).collect();
        b.add_node(labels.iter().copied());
    }
    for (u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

/// Asserts `spliced` equals `oracle` (built from scratch) in both CSRs, in
/// its carried edge-set hash and in its fingerprint.
fn assert_same_graph(spliced: &DataGraph, oracle: &DataGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(spliced.node_count(), oracle.node_count());
    prop_assert_eq!(spliced.edge_count(), oracle.edge_count());
    for v in oracle.nodes() {
        prop_assert_eq!(spliced.out_neighbors(v), oracle.out_neighbors(v));
        prop_assert_eq!(spliced.in_neighbors(v), oracle.in_neighbors(v));
    }
    prop_assert_eq!(spliced.edge_set_hash(), oracle.edge_set_hash());
    prop_assert_eq!(graph_fingerprint(spliced), graph_fingerprint(oracle));
    Ok(())
}

/// The oracle for one delta: the edge set with `deletes` removed, then
/// `inserts` added, rebuilt from scratch.
fn oracle_apply(g: &DataGraph, d: &EdgeDelta) -> DataGraph {
    let mut edges: BTreeSet<(NodeId, NodeId)> = g.edges().collect();
    for e in &d.deletes {
        edges.remove(e);
    }
    edges.extend(d.inserts.iter().copied());
    g.with_edges(&edges.into_iter().collect::<Vec<_>>())
}

/// `q` with node `at`'s predicate replaced by `pred`.
fn with_pred(q: &Pattern, at: usize, pred: Predicate) -> Pattern {
    let mut b = PatternBuilder::new();
    let nodes: Vec<_> = q
        .preds()
        .iter()
        .enumerate()
        .map(|(i, p)| b.node(if i == at { pred.clone() } else { p.clone() }))
        .collect();
    for &(x, y) in q.edges() {
        b.edge(nodes[x.index()], nodes[y.index()]);
    }
    b.build().expect("same shape as q")
}

fn pairs(raw: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    raw.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect()
}

/// Four labels, so a 3-node pattern's footprint leaves many edges out.
const FOOTPRINT_LABELS: [&str; 4] = ["A", "B", "C", "D"];

/// One footprint case: a 20-node graph, a 3-node pattern and a delta built
/// from `script` — `(true, a, b)` inserts `a → b`, `(false, a, b)` deletes
/// the present edge that `a * 20 + b` picks. Checks that a delta missing
/// the footprint leaves `match_pattern` unchanged and returns whether the
/// delta touched the footprint.
fn footprint_case(
    gseed: u64,
    qseed: u64,
    script: &[(bool, u32, u32)],
) -> Result<bool, TestCaseError> {
    let g = random_graph(20, 40, &FOOTPRINT_LABELS, gseed);
    let q = random_pattern(3, 3, &FOOTPRINT_LABELS, PatternShape::Any, qseed);
    let present: Vec<(NodeId, NodeId)> = g.edges().collect();
    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
    for &(insert, a, b) in script {
        if insert {
            inserts.push((NodeId(a), NodeId(b)));
        } else {
            deletes.push(present[(a * 20 + b) as usize % present.len()]);
        }
    }
    let delta = EdgeDelta::new(inserts, deletes);
    let touched = QueryFootprint::of(&q, &g).touched_by(&delta, &g);
    if !touched {
        prop_assert_eq!(
            match_pattern(&q, &g),
            match_pattern(&q, &delta.apply_to(&g)),
            "a delta missing the footprint changed the answer: {:?}",
            delta
        );
    }
    Ok(touched)
}

/// The footprint property over a fixed sweep, asserting that both outcomes
/// occur: the proptest below is not vacuous on this generator.
#[test]
fn footprint_sweep_sees_deltas_that_touch_and_miss() {
    let (mut touched, mut missed) = (0, 0);
    for seed in 0u64..64 {
        let len = 1 + (seed % 3) as u32;
        let script: Vec<(bool, u32, u32)> = (0..len)
            .map(|i| {
                let x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (8 * i);
                (x & 1 == 0, (x >> 1) as u32 % 20, (x >> 9) as u32 % 20)
            })
            .collect();
        if footprint_case(seed, seed ^ 0x5eed, &script).unwrap() {
            touched += 1;
        } else {
            missed += 1;
        }
    }
    assert!(
        touched > 0 && missed > 0,
        "touched {touched}, missed {missed}"
    );
}

#[test]
fn splice_keeps_an_edge_in_both_lists() {
    let g = random_graph(12, 30, &LABELS, 3);
    let present = g.edges().next().expect("graph has edges");
    let absent = (NodeId(0), NodeId(0));
    assert!(
        !g.has_edge(absent.0, absent.1),
        "random_graph draws no self-loops"
    );
    // Unsorted and duplicated, as a struct literal (no normalization).
    let d = EdgeDelta {
        inserts: vec![absent, present, absent],
        deletes: vec![present, absent, present],
    };
    let next = d.apply_to(&g);
    assert!(next.has_edge(present.0, present.1));
    assert!(next.has_edge(absent.0, absent.1));
    assert_same_graph(&next, &oracle_apply(&g, &d)).unwrap();
}

#[test]
fn splice_no_op_edges_leave_graph_and_fingerprint_unchanged() {
    let g = random_graph(12, 30, &LABELS, 5);
    let present: Vec<_> = g.edges().take(3).collect();
    let absent: Vec<_> = (0..12)
        .flat_map(|u| (0..12).map(move |v| (NodeId(u), NodeId(v))))
        .filter(|&(u, v)| !g.has_edge(u, v))
        .take(3)
        .collect();
    // Delete absent edges, insert present ones: nothing changes.
    let d = EdgeDelta {
        inserts: present.iter().rev().copied().collect(),
        deletes: absent.clone(),
    };
    let next = d.apply_to(&g);
    assert_same_graph(&next, &g).unwrap();
    assert_eq!(graph_fingerprint(&next), graph_fingerprint(&g));
}

#[test]
fn splice_insert_then_delete_restores_the_fingerprint_exactly() {
    let g = random_graph(40, 80, &LABELS, 9);
    let fp = graph_fingerprint(&g);
    let absent: Vec<_> = (0..40)
        .map(|u| (NodeId(u), NodeId((u * 7 + 3) % 40)))
        .filter(|&(u, v)| !g.has_edge(u, v))
        .collect();
    for &e in &absent {
        let grown = EdgeDelta::new(vec![e], vec![]).apply_to(&g);
        assert_ne!(graph_fingerprint(&grown), fp);
        let back = EdgeDelta::new(vec![], vec![e]).apply_to(&grown);
        assert_eq!(graph_fingerprint(&back), fp);
        assert_eq!(back.edge_set_hash(), g.edge_set_hash());
        assert_same_graph(&back, &g).unwrap();
    }
}

/// The store's footprint index is cached across deltas but follows
/// membership: a view registered after a delta is affected by the next
/// one, and a retired view is never reported again.
#[test]
fn store_deltas_see_views_inserted_and_removed_between_them() {
    // A -> B -> C.
    let mut b = GraphBuilder::new();
    let (a, x, c) = (b.add_node(["A"]), b.add_node(["B"]), b.add_node(["C"]));
    b.add_edge(a, x);
    b.add_edge(x, c);
    let g = b.build();
    let single = |from: &str, to: &str| {
        let mut pb = PatternBuilder::new();
        let (u, v) = (pb.node_labeled(from), pb.node_labeled(to));
        pb.edge(u, v);
        pb.build().unwrap()
    };
    let store = ViewStore::for_graph(&g, 2);
    let vab = store
        .insert(ViewDef::new("vab", single("A", "B")), &g)
        .unwrap();
    // The first delta builds the index over {vab}.
    let first = EdgeDelta::new(vec![(a, a)], vec![]);
    let g1 = store.apply_delta(&first, &g).unwrap().graph;
    assert_eq!(store.apply_delta(&first, &g1).unwrap().affected, vec![vab]);

    let vbc = store
        .insert(ViewDef::new("vbc", single("B", "C")), &g1)
        .unwrap();
    let cut = EdgeDelta::new(vec![], vec![(x, c)]);
    let report = store.apply_delta(&cut, &g1).unwrap();
    assert_eq!(report.affected, vec![vab, vbc]);
    assert_eq!(report.changed, vec![vbc]);
    let ext = store.get(vbc).expect("registered view").ext.thaw();
    assert_eq!(ext, match_pattern(&single("B", "C"), &report.graph));

    store.remove(vbc).expect("resident view");
    let back = EdgeDelta::new(vec![(x, c)], vec![]);
    let report = store.apply_delta(&back, &report.graph).unwrap();
    assert_eq!(report.affected, vec![vab]);
    assert_eq!(report.unaffected, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random chain of raw deltas — unsorted, duplicated, overlapping
    /// lists built as struct literals — spliced one after another agrees
    /// with the from-scratch oracle after every link, the carried hash
    /// included.
    #[test]
    fn splice_chain_matches_with_edges_oracle(
        gseed in any::<u64>(),
        n in 1u32..24,
        chain in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..24, 0u32..24), 0..8),
                proptest::collection::vec((0u32..24, 0u32..24), 0..8),
            ),
            1..6,
        ),
    ) {
        let mut g = random_graph(n as usize, 2 * n as usize, &LABELS, gseed);
        for (ins, del) in chain {
            let clamp = |raw: Vec<(u32, u32)>| -> Vec<(u32, u32)> {
                raw.into_iter().map(|(u, v)| (u % n, v % n)).collect()
            };
            let (ins, mut del) = (clamp(ins), clamp(del));
            // Make the overlap cases common: delete some present edges,
            // and delete one of the inserted edges too.
            del.extend(g.edges().step_by(3).map(|(u, v)| (u.0, v.0)));
            del.extend(ins.first().copied());
            let d = EdgeDelta { inserts: pairs(&ins), deletes: pairs(&del) };
            let next = d.apply_to(&g);
            assert_same_graph(&next, &oracle_apply(&g, &d))?;
            g = next;
        }
    }

    /// A 1–3-edge delta that misses the query's edge footprint leaves
    /// `match_pattern(Q, G)` unchanged — the claim the service's result
    /// cache relies on to keep a graph-reading answer across a delta.
    #[test]
    fn deltas_missing_the_footprint_keep_the_answer(
        gseed in any::<u64>(),
        qseed in any::<u64>(),
        script in proptest::collection::vec((any::<bool>(), 0u32..20, 0u32..20), 1..4),
    ) {
        footprint_case(gseed, qseed, &script)?;
    }

    /// A chain of single-edge deltas, checked against `match_pattern` on
    /// the current graph after every step. `special` swaps one pattern
    /// node's predicate: 1 drops its label atom (base ≈ V, the footprint's
    /// worst case), 2 names a label the graph lacks (base empty forever).
    /// Between steps, `noise` edges that miss the footprint go through
    /// `patch_adjacency` and into the graph: the result must not move.
    /// `cyclic` forces a directed cycle into the pattern, so deletions
    /// cascade through a non-singleton SCC — and, when the third node feeds
    /// it, on into a higher rank: the drain empties the cycle's bucket
    /// before it touches that node, where a FIFO drain would interleave.
    #[test]
    fn incremental_equals_recompute(
        gseed in any::<u64>(),
        qseed in any::<u64>(),
        cyclic in any::<bool>(),
        special in 0usize..3,
        at in 0usize..3,
        raw_script in proptest::collection::vec((any::<bool>(), 0u32..20, 0u32..20), 0..25),
        noise in proptest::collection::vec((any::<bool>(), 0u32..20, 0u32..20), 0..25),
    ) {
        let g = random_graph(20, 40, &LABELS, gseed);
        let shape = if cyclic { PatternShape::Cyclic } else { PatternShape::Any };
        let q = random_pattern(3, 3, &LABELS, shape, qseed);
        let q = match special {
            1 => with_pred(&q, at, Predicate::any()),
            2 => with_pred(&q, at, Predicate::label("Z")),
            _ => q,
        };
        let footprint = QueryFootprint::of(&q, &g);
        let mut inc = IncrementalView::new(q.clone(), &g);

        // Normalize the script: drop self-referential no-ops that the
        // builder would dedup anyway (self-loops are fine).
        let mut applied: Vec<(bool, u32, u32)> = Vec::new();
        for (i, (insert, a, b)) in raw_script.into_iter().enumerate() {
            if insert {
                inc.insert_edge(NodeId(a), NodeId(b));
            } else {
                inc.delete_edge(NodeId(a), NodeId(b));
            }
            applied.push((insert, a, b));
            if let Some(&(ins, x, y)) = noise.get(i) {
                let e = [(NodeId(x), NodeId(y))];
                let d = if ins { EdgeDelta::new(e.to_vec(), vec![]) } else { EdgeDelta::new(vec![], e.to_vec()) };
                if !footprint.touched_by(&d, &g) {
                    let before = inc.result();
                    inc.patch_adjacency(&d.deletes, &d.inserts);
                    prop_assert_eq!(inc.result(), before, "out-of-footprint patch moved the result");
                    applied.push((ins, x, y));
                }
            }
            // Check after *every* step, not just at the end, so ordering
            // bugs can't cancel out.
            let oracle_graph = apply_script(&g, &applied);
            let expect = match_pattern(&q, &oracle_graph);
            prop_assert_eq!(
                inc.result(),
                expect,
                "divergence after {} ops",
                applied.len()
            );
        }
    }

    /// Deleting every edge empties the view; re-inserting restores it.
    #[test]
    fn full_teardown_and_rebuild(gseed in any::<u64>(), qseed in any::<u64>()) {
        let g = random_graph(15, 30, &LABELS, gseed);
        let q = random_pattern(2, 2, &LABELS, PatternShape::Any, qseed);
        let mut inc = IncrementalView::new(q.clone(), &g);
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        for &(u, v) in &edges {
            inc.delete_edge(u, v);
        }
        prop_assert!(inc.result().is_empty() || q.edge_count() == 0);
        for &(u, v) in &edges {
            inc.insert_edge(u, v);
        }
        prop_assert_eq!(inc.result(), match_pattern(&q, &g));
    }

    /// Scenario-sampled maintenance sweep: sample a full [`Scenario`]
    /// (forced update-heavy — nonzero `delta_batch_len` and
    /// `delete_ratio`), keep one warm [`IncrementalView`] per registered
    /// view, and replay the scenario's generated insert/delete stream,
    /// checking after every batch that each maintainer equals the boxed
    /// from-scratch oracle on the evolving graph. Failures print the
    /// scenario's one-line JSON and the `gpv fuzz --repro` command (plus
    /// the shim's `GPV_TEST_SEED` replay line).
    #[test]
    fn scenario_delta_streams_keep_incremental_views_exact(
        master in any::<u64>(),
        idx in 0u64..40,
    ) {
        let mut sc = Scenario::sample(master, idx);
        sc.delta_batch_len = sc.delta_batch_len.max(3);
        if sc.delete_ratio == 0.0 {
            sc.delete_ratio = 0.5;
        }
        sc.rounds = sc.rounds.max(2);
        let inputs = sc.materialize();

        // The "boxed match_pattern" oracle — the same shape the
        // differential harness injects, so this pins maintainer ≡ oracle
        // rather than maintainer ≡ some inlined shortcut.
        type Oracle = Box<dyn Fn(&Pattern, &DataGraph) -> MatchResult>;
        let oracle: Oracle = Box::new(match_pattern);

        let mut incs: Vec<(Pattern, IncrementalView)> = inputs
            .views
            .iter()
            .map(|(_, def)| {
                (
                    def.pattern.clone(),
                    IncrementalView::new(def.pattern.clone(), &inputs.graph),
                )
            })
            .collect();
        let mut edges: std::collections::BTreeSet<(NodeId, NodeId)> =
            inputs.graph.edges().collect();
        for (round, delta) in inputs.deltas.iter().enumerate() {
            // EdgeDelta semantics: deletes land before inserts.
            for &(u, v) in &delta.deletes {
                edges.remove(&(u, v));
                for (_, inc) in &mut incs {
                    inc.delete_edge(u, v);
                }
            }
            for &(u, v) in &delta.inserts {
                edges.insert((u, v));
                for (_, inc) in &mut incs {
                    inc.insert_edge(u, v);
                }
            }
            let edge_list: Vec<(NodeId, NodeId)> = edges.iter().copied().collect();
            let truth_graph = inputs.graph.with_edges(&edge_list);
            for (vi, (q, inc)) in incs.iter().enumerate() {
                let want = oracle(q, &truth_graph);
                if inc.result() != want {
                    return Err(TestCaseError::fail(format!(
                        "view {vi} diverged from the oracle after delta round {round}\n\
                         scenario: {}\nrepro: {}",
                        sc.to_json_line(),
                        sc.repro_command()
                    )));
                }
            }
        }
    }
}
