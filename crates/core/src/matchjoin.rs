//! `MatchJoin` — answering a pattern query from materialized views
//! (paper Fig. 2, Theorem 1).
//!
//! Given `Qs ⊑ V` witnessed by a [`ContainmentPlan`] `λ`, `MatchJoin`
//! computes `Qs(G)` from the extensions `V(G)` **without accessing `G`**:
//!
//! 1. initialize each `Se` as `⋃_{e' ∈ λ(e)} S_e'` (merge);
//! 2. remove invalid matches until a fixpoint — exactly the matches whose
//!    endpoints lose all witnesses for some pattern edge.
//!
//! Two strategies are provided:
//!
//! * [`JoinStrategy::NaiveFixpoint`] — the literal Fig. 2 loop: rescan match
//!   sets until stable (`MatchJoin_nopt` in the experiments);
//! * [`JoinStrategy::RankedBottomUp`] — the Section III optimization: a
//!   support-counter worklist drained in ascending SCC-rank order, so match
//!   sets of edges below any non-singleton SCC are visited at most once
//!   (Lemma 2). This is the default.
//!
//! The ranked refinement is written once (`ranked_fixpoint`,
//! single-threaded) and serves every view join: `MatchJoin`, the bounded
//! `BMatchJoin` after its distance filter, and `DualMatchJoin` (whose dual
//! mode adds backward counters). It also serves `Match` itself: hybrid and
//! direct plans and view materialization feed it edge sets read from `G`
//! by [`GraphSource`](crate::partial::GraphSource). One single-witness
//! helper, `smallest_cover`, picks the extension every merge reads.
//!
//! Its support-counter step — withdraw a removed node as a witness,
//! decrement counters, schedule what reaches zero — is one function,
//! `drain`. Two callers share it: `ranked_fixpoint`, which counts initial
//! support in one pass over each edge's pairs and reads neighbours from
//! each edge's CSR, and the incremental maintainer
//! ([`IncrementalView`](crate::maintenance::IncrementalView)), which
//! counts with `initial_support` and reads neighbours from its footprint
//! adjacency after every edge delete or insert.
//!
//! The kernel returns each edge's survivors as positions into its merged
//! set; callers read pairs (and `BMatchJoin` its distances) at those
//! positions. Node sets are read off the sorted survivors by `node_sets`.
//!
//! Complexity: `O(|Qs||V(G)| + |V(G)|²)` — versus
//! `O(|Qs|² + |Qs||G| + |G|²)` for evaluating `Qs` on `G` directly.

use crate::containment::{ContainmentPlan, ViewEdgeRef};
use crate::view::ViewExtensions;
use gpv_graph::{BitSet, NodeId};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};

/// Merged per-edge match sets, the fixpoint's working input. Sets sourced
/// from a view borrow the extension arena's canonical flat slice
/// (`Cow::Borrowed` — zero per-pair work in the merge), while sets built by
/// a union or a graph scan own their pairs (`Cow::Owned`).
pub(crate) type MergedSets<'a> = Vec<Cow<'a, [(NodeId, NodeId)]>>;

/// Worklist discipline for the fixpoint phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinStrategy {
    /// The optimized bottom-up strategy (Section III): counter-based
    /// worklist drained in ascending pattern-node rank.
    RankedBottomUp,
    /// The unoptimized Fig. 2 fixpoint (`MatchJoin_nopt`): repeatedly rescan
    /// all match sets until nothing changes.
    NaiveFixpoint,
    /// Runs as [`RankedBottomUp`](JoinStrategy::RankedBottomUp). Exists
    /// only for perfbench; goes with ROADMAP's "Pending benchmark change".
    Parallel,
}

/// Which simulation the ranked refinement enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Simulation {
    /// Graph simulation: every match of `u` needs a witness for each
    /// out-edge of `u`.
    Plain,
    /// Dual simulation (§VIII): each in-edge of `u` needs a witness as
    /// well, so candidates also intersect in-edge targets and the drain
    /// keeps backward counters.
    Dual,
}

/// Instrumentation for the Lemma 2 / Fig. 8(f) experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinStats {
    /// Number of times a match set `Se` was scanned or updated.
    pub edge_visits: u64,
    /// Number of match pairs removed during refinement.
    pub removals: u64,
    /// Total pairs after the merge step (the working-set size).
    pub merged_pairs: u64,
}

/// Errors from [`match_join`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// The plan's λ has a different number of entries than the query has
    /// edges (plan built for another query).
    PlanMismatch,
    /// λ references a view index beyond the extensions.
    ViewOutOfRange(usize),
    /// Some query node has no incident edge (every node of an edgeless
    /// query). A join reads node sets off edge match sets, so only a graph
    /// read can answer it.
    NoEdges,
    /// A plan source is [`EdgeSource::Graph`](crate::plan::EdgeSource) but
    /// no data graph was supplied to the executor.
    GraphRequired,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::PlanMismatch => write!(f, "containment plan does not match the query"),
            JoinError::ViewOutOfRange(i) => write!(f, "plan references missing view {i}"),
            JoinError::NoEdges => write!(f, "query has a node with no edges"),
            JoinError::GraphRequired => {
                write!(f, "plan sources an edge from G but no graph was supplied")
            }
        }
    }
}

impl std::error::Error for JoinError {}

/// Answers `Qs` using views with the default (optimized) strategy.
pub fn match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
) -> Result<MatchResult, JoinError> {
    match_join_with(q, plan, ext, JoinStrategy::RankedBottomUp).map(|(r, _)| r)
}

/// Answers `Qs` using views with an explicit strategy, returning stats.
pub fn match_join_with(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    strategy: JoinStrategy,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step(q, plan, ext)?;
    Ok(run_fixpoint(q, merged, strategy))
}

/// Like [`match_join_with`] but initializing with the *literal* Fig. 2 merge
/// `Se := ⋃_{e' ∈ λ(e)} S_e'` instead of the narrowed single-witness merge.
/// Used by the optimization ablation (Fig. 8(f)): the union leaves the
/// fixpoint real pruning work, which is where the bottom-up strategy earns
/// its keep.
pub fn match_join_union_with(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    strategy: JoinStrategy,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step_union(q, plan, ext)?;
    Ok(run_fixpoint(q, merged, strategy))
}

/// Runs the fixpoint phase over caller-supplied merged sets — the
/// execution backend behind both the λ-based entry points and the
/// [`EdgeSource`](crate::plan::EdgeSource)-honoring engine path (whose
/// merge is built by `partial::merged_from_sources`).
pub(crate) fn run_fixpoint(
    q: &Pattern,
    merged: MergedSets<'_>,
    strategy: JoinStrategy,
) -> (MatchResult, JoinStats) {
    let (kept, stats) = refine(q, &merged, strategy);
    (assemble(q, &merged, kept), stats)
}

/// Refines merged sets under `strategy`, returning each edge's survivors
/// (`None` = empty result) and the join's stats. Shared by `MatchJoin`
/// and `BMatchJoin`.
pub(crate) fn refine(
    q: &Pattern,
    merged: &MergedSets<'_>,
    strategy: JoinStrategy,
) -> (Option<Survivors>, JoinStats) {
    let mut stats = JoinStats {
        merged_pairs: merged.iter().map(|s| s.len() as u64).sum(),
        ..JoinStats::default()
    };
    let sets = match strategy {
        JoinStrategy::NaiveFixpoint => naive_fixpoint(q, merged, &mut stats),
        JoinStrategy::RankedBottomUp | JoinStrategy::Parallel => {
            ranked_fixpoint(q, merged, Simulation::Plain, &mut stats)
        }
    };
    (sets, stats)
}

/// The covering view edge a merge reads, with its extension (`None` for
/// an uncovered λ entry).
pub(crate) type Cover<'a, T> = Option<(ViewEdgeRef, &'a [T])>;

/// Refined per-edge match sets, in pattern-edge order.
pub(crate) type RefinedSets = Vec<Vec<(NodeId, NodeId)>>;

/// Each edge's surviving pairs, as ascending positions into its merged
/// column, in pattern-edge order. A column parallel to the merged pairs
/// (`BMatchJoin`'s distances) is read at the same positions.
pub(crate) type Survivors = Vec<Vec<u32>>;

/// The items of `column` at the positions `kept`.
pub(crate) fn pick<T: Copy>(column: &[T], kept: &[u32]) -> Vec<T> {
    kept.iter().map(|&i| column[i as usize]).collect()
}

/// The surviving pairs of every merged set. Every merge the kernel runs
/// on is sorted, so the survivors come out canonical: [`node_sets`] and
/// the result constructors then skip their sorts.
pub(crate) fn survivor_pairs(merged: &MergedSets<'_>, kept: &Survivors) -> RefinedSets {
    let sets: RefinedSets = merged
        .iter()
        .zip(kept)
        .map(|(set, kept)| pick(set, kept))
        .collect();
    debug_assert!(sets.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
    sets
}

/// Checks that a per-edge plan (λ or source vector) of `entries` entries
/// fits `q`, and that every node of `q` has an edge to be joined on.
pub(crate) fn check_arity(q: &Pattern, entries: usize) -> Result<(), JoinError> {
    if q.nodes().any(|u| q.is_isolated(u)) {
        return Err(JoinError::NoEdges);
    }
    if entries != q.edge_count() {
        return Err(JoinError::PlanMismatch);
    }
    Ok(())
}

/// The single-witness pick behind every merge: validates each view index
/// of a λ entry against `view_count`, then returns the entry with the
/// smallest materialized extension (first minimum) together with that
/// extension. `Ok(None)` for an empty (uncovered) entry. `edge_set` reads
/// one view edge's extension — plain pairs, or the bounded triples that
/// carry `I(V)` distances.
pub(crate) fn smallest_cover<'a, T>(
    entries: &[ViewEdgeRef],
    view_count: usize,
    edge_set: impl Fn(&ViewEdgeRef) -> &'a [T],
) -> Result<Cover<'a, T>, JoinError> {
    if let Some(r) = entries.iter().find(|r| r.view >= view_count) {
        return Err(JoinError::ViewOutOfRange(r.view));
    }
    Ok(entries
        .iter()
        .map(|r| (*r, edge_set(r)))
        .min_by_key(|(_, set)| set.len()))
}

/// Lines 1-4 of Fig. 2, with a witness-narrowing optimization.
///
/// The paper initializes `Se := ⋃_{e' ∈ λ(e)} S_e'`. Any *single* entry of
/// `λ(e)` already suffices: if `e ∈ S_eV` (the view match of `V` into `Qs`
/// lists `e` for view edge `eV`), then for every `G`, `Se(G) ⊆ S_eV(G)` —
/// simulations compose, so a `G`-match of `e`'s endpoints also matches
/// `eV`'s endpoints, and the pair is a real edge either way. A singleton
/// `λ'(e) ⊆ λ(e)` is therefore also a containment witness, and we pick the
/// entry with the smallest materialized extension, minimizing the `|V(G)|`
/// that the join reads (the quantity Theorem 1's complexity is measured
/// in). The `union_lambda` escape hatch preserves the literal Fig. 2
/// behaviour for the ablation bench.
pub(crate) fn merge_step<'a>(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &'a ViewExtensions,
) -> Result<MergedSets<'a>, JoinError> {
    check_arity(q, plan.lambda.len())?;
    plan.lambda
        .iter()
        .map(|entries| {
            let (_, set) = smallest_cover(entries, ext.extensions.len(), |r| {
                ext.edge_set(r.view, r.edge)
            })?
            .ok_or(JoinError::PlanMismatch)?;
            // Arena regions are canonical by freeze — borrow the flat
            // slice directly: the merge allocates nothing per pair.
            Ok(Cow::Borrowed(set))
        })
        .collect()
}

/// The literal Fig. 2 merge: `Se := ⋃_{e' ∈ λ(e)} S_e'`. Exposed for the
/// union-vs-narrowed ablation; produces the same final result as
/// `merge_step` (both initializations contain the true `Se`).
pub fn merge_step_union<'a>(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &'a ViewExtensions,
) -> Result<MergedSets<'a>, JoinError> {
    check_arity(q, plan.lambda.len())?;
    let mut merged = Vec::with_capacity(q.edge_count());
    for entries in &plan.lambda {
        let mut set: Vec<(NodeId, NodeId)> = Vec::new();
        for r in entries {
            if r.view >= ext.extensions.len() {
                return Err(JoinError::ViewOutOfRange(r.view));
            }
            set.extend_from_slice(ext.edge_set(r.view, r.edge));
        }
        set.sort_unstable();
        set.dedup();
        merged.push(Cow::Owned(set));
    }
    Ok(merged)
}

/// Candidate node sets implied by the live pairs of merged edge sets (the
/// positions `alive` into each): for a node with out-edges, the
/// intersection of the sources of every out-edge set (a match must witness
/// them all); for a sink, the union of targets of its in-edge sets (the
/// only way it can appear in the result).
fn initial_candidates(
    q: &Pattern,
    merged: &MergedSets<'_>,
    alive: &Survivors,
) -> Vec<HashSet<NodeId>> {
    let pairs = |e: PatternEdgeId| {
        alive[e.index()]
            .iter()
            .map(move |&i| merged[e.index()][i as usize])
    };
    q.nodes()
        .map(|u| {
            let outs = q.out_edges(u);
            if !outs.is_empty() {
                let mut iter = outs.iter();
                let &(_, e0) = iter.next().expect("nonempty");
                let mut set: HashSet<NodeId> = pairs(e0).map(|(s, _)| s).collect();
                for &(_, e) in iter {
                    let srcs: HashSet<NodeId> = pairs(e).map(|(s, _)| s).collect();
                    set.retain(|v| srcs.contains(v));
                }
                set
            } else {
                q.in_edges(u)
                    .iter()
                    .flat_map(|&(_, e)| pairs(e).map(|(_, t)| t))
                    .collect()
            }
        })
        .collect()
}

/// Per-edge compacted representation of a merged match set: dense-id pair
/// list, endpoint presence bitsets, reverse CSR adjacency and, under dual
/// simulation, forward CSR adjacency. Pure per-edge data.
#[derive(Debug)]
struct EdgeCsr {
    /// Compacted `(src, tgt)` pairs, in merge order.
    pairs: Vec<(u32, u32)>,
    /// Dense ids occurring as sources.
    srcs: BitSet,
    /// Dense ids occurring as targets.
    tgts: BitSet,
    /// Forward CSR: offsets by source, target payloads. Only the dual
    /// drain reads it (withdrawing a removed node from its targets'
    /// backward counters), so plain simulation builds none.
    fwd: Option<Csr>,
    /// Reverse CSR: offsets by target, source payloads.
    rev: Csr,
}

/// One direction of an edge's adjacency: offsets by dense id, payloads.
type Csr = (Vec<u32>, Vec<u32>);

/// Dense-id compaction over every node mentioned in the merged sets (first
/// occurrence order, hence deterministic), with the number of dense ids.
/// The index is a flat vector sized by the largest node id, holding dense
/// id + 1 (0 = absent): it is zero-allocated, so pages no merged node
/// falls on are never written.
fn compact_index(merged: &MergedSets<'_>) -> (Vec<u32>, usize) {
    let pairs = || merged.iter().flat_map(|set| set.iter());
    let Some(max) = pairs().map(|&(s, t)| s.max(t)).max() else {
        return (Vec::new(), 0);
    };
    let mut index = vec![0u32; max.index() + 1];
    let mut m = 0;
    for &(s, t) in pairs() {
        for v in [s, t] {
            let slot = &mut index[v.index()];
            if *slot == 0 {
                m += 1;
                *slot = m;
            }
        }
    }
    (index, m as usize)
}

/// Builds one edge's [`EdgeCsr`] (pure function of that edge's set).
fn build_edge_csr(set: &[(NodeId, NodeId)], index: &[u32], m: usize, sim: Simulation) -> EdgeCsr {
    let mut ps = Vec::with_capacity(set.len());
    let mut sb = BitSet::new(m);
    let mut tb = BitSet::new(m);
    for &(s, t) in set {
        let (cs, ct) = (index[s.index()] - 1, index[t.index()] - 1);
        ps.push((cs, ct));
        sb.insert(cs as usize);
        tb.insert(ct as usize);
    }
    let fwd = (sim == Simulation::Dual).then(|| build_csr(ps.iter().copied(), ps.len(), m));
    let rev = build_csr(ps.iter().map(|&(s, t)| (t, s)), ps.len(), m);
    EdgeCsr {
        pairs: ps,
        srcs: sb,
        tgts: tb,
        fwd,
        rev,
    }
}

/// Counting-sort CSR of `len` `(key, payload)` pairs over keys `0..m`.
fn build_csr(pairs: impl Iterator<Item = (u32, u32)> + Clone, len: usize, m: usize) -> Csr {
    let mut off = vec![0u32; m + 1];
    for (k, _) in pairs.clone() {
        off[k as usize + 1] += 1;
    }
    for i in 0..m {
        off[i + 1] += off[i];
    }
    let mut cur = off.clone();
    let mut data = vec![0u32; len];
    for (k, v) in pairs {
        data[cur[k as usize] as usize] = v;
        cur[k as usize] += 1;
    }
    (off, data)
}

/// Candidate sets per pattern node: the intersection of out-edge sources
/// (plus, under dual simulation, of in-edge targets); a plain sink takes
/// the union of its in-edge targets. `None` when a node with edges has no
/// candidates (`Qs(G) = ∅`); a node with no edges constrains nothing here,
/// and its matches are the caller's to supply.
fn build_candidates(
    q: &Pattern,
    csrs: &[EdgeCsr],
    m: usize,
    sim: Simulation,
) -> Option<Vec<BitSet>> {
    let mut cand: Vec<BitSet> = Vec::with_capacity(q.node_count());
    for u in q.nodes() {
        let srcs = q.out_edges(u).iter().map(|&(_, e)| &csrs[e.index()].srcs);
        let tgts = q.in_edges(u).iter().map(|&(_, e)| &csrs[e.index()].tgts);
        let set = match sim {
            Simulation::Dual => intersect(srcs.chain(tgts), m),
            Simulation::Plain if !q.out_edges(u).is_empty() => intersect(srcs, m),
            Simulation::Plain => tgts.fold(BitSet::new(m), |mut set, t| {
                set.union_with(t);
                set
            }),
        };
        if set.is_empty() && !(q.out_edges(u).is_empty() && q.in_edges(u).is_empty()) {
            return None;
        }
        cand.push(set);
    }
    Some(cand)
}

/// Intersection of `sets` (empty when there are none).
fn intersect<'a>(mut sets: impl Iterator<Item = &'a BitSet>, m: usize) -> BitSet {
    let Some(first) = sets.next() else {
        return BitSet::new(m);
    };
    let mut set = first.clone();
    for s in sets {
        set.intersect_with(s);
    }
    set
}

/// One node's row of an edge's CSR direction.
fn row((off, data): &Csr, v: usize) -> &[u32] {
    &data[off[v] as usize..off[v + 1] as usize]
}

/// The ranked refinement every join runs: support counters plus a
/// rank-bucketed worklist over a *compacted* node domain — only nodes
/// occurring in the merged sets get dense ids, so every hot-path structure
/// but the id index is a flat vector or bitset sized by the merged node
/// count, not `|G|`.
///
/// Builds each edge's CSR, the candidates and the initial support
/// counters, runs the shared [`drain`] over the CSR rows, then keeps the
/// pairs whose endpoints survived. Returns each edge's survivors as
/// positions into its merged set (`None` = `Qs(G) = ∅`).
pub(crate) fn ranked_fixpoint(
    q: &Pattern,
    merged: &MergedSets<'_>,
    sim: Simulation,
    stats: &mut JoinStats,
) -> Option<Survivors> {
    let ne = q.edge_count();
    let (index, m) = compact_index(merged);

    let csrs: Vec<EdgeCsr> = merged
        .iter()
        .map(|set| build_edge_csr(set, &index, m, sim))
        .collect();
    stats.edge_visits += ne as u64;

    let cand = build_candidates(q, &csrs, m, sim)?;

    // Initial counters, one pass over each edge's pairs, keeping each
    // edge's zero-support candidates (ascending, as the seeds).
    let mut rel = Relation {
        cand,
        fwd: Vec::with_capacity(ne),
        bwd: Vec::new(),
    };
    let (mut fwd_zero, mut bwd_zero) = (Vec::with_capacity(ne), vec![Vec::new(); ne]);
    let zeros = |cand: &BitSet, support: &[u32]| -> Vec<u32> {
        cand.iter()
            .filter(|&v| support[v] == 0)
            .map(|v| v as u32)
            .collect()
    };
    let dual = sim == Simulation::Dual;
    for (ei, csr) in csrs.iter().enumerate() {
        let (u, t) = q.edge(PatternEdgeId(ei as u32));
        let (cu, ct) = (&rel.cand[u.index()], &rel.cand[t.index()]);
        let mut fwd = vec![0u32; m];
        let mut bwd = vec![0u32; if dual { m } else { 0 }];
        for &(v, w) in &csr.pairs {
            if cu.contains(v as usize) && ct.contains(w as usize) {
                fwd[v as usize] += 1;
                if dual {
                    bwd[w as usize] += 1;
                }
            }
        }
        fwd_zero.push(zeros(cu, &fwd));
        rel.fwd.push(fwd);
        if dual {
            bwd_zero[ei] = zeros(ct, &bwd);
            rel.bwd.push(bwd);
        }
    }
    stats.edge_visits += ne as u64;

    // Seed by pattern node, then edge.
    let mut seeds = Vec::new();
    for u in q.nodes() {
        let fwd = q.out_edges(u).iter().map(|&(_, e)| &fwd_zero[e.index()]);
        let bwd = q.in_edges(u).iter().map(|&(_, e)| &bwd_zero[e.index()]);
        seeds.extend(fwd.chain(bwd).flatten().map(|&v| (u, v)));
    }
    let drained = drain(
        q,
        &ranks(q),
        &mut rel,
        seeds,
        |e, along, v| {
            let csr = &csrs[e.index()];
            match along {
                Along::Sources => row(&csr.rev, v as usize),
                Along::Targets => row(csr.fwd.as_ref().expect("dual builds fwd"), v as usize),
            }
        },
        stats,
    );
    if !drained {
        return None;
    }

    // Survivors: positions of the pairs whose endpoints survived.
    let out: Survivors = csrs
        .iter()
        .enumerate()
        .map(|(ei, csr)| {
            let (u, t) = q.edge(PatternEdgeId(ei as u32));
            let (cu, ct) = (&rel.cand[u.index()], &rel.cand[t.index()]);
            let live = |&(s, w): &(u32, u32)| cu.contains(s as usize) && ct.contains(w as usize);
            (0u32..)
                .zip(&csr.pairs)
                .filter(|(_, p)| live(p))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    stats.edge_visits += ne as u64;
    (!out.iter().any(Vec::is_empty)).then_some(out)
}

/// Candidates and support counters over one dense id space: the state the
/// support-counter [`drain`] refines in place. The kernel builds one per
/// join; an [`IncrementalView`](crate::maintenance::IncrementalView) keeps
/// one across mutations.
#[derive(Clone, Debug, Default)]
pub(crate) struct Relation {
    /// Candidates per pattern node.
    pub cand: Vec<BitSet>,
    /// Per pattern edge `e = (u, t)`, by candidate `v` of `u`: successors
    /// of `v` along `e` among the candidates of `t`.
    pub fwd: Vec<Vec<u32>>,
    /// Dual simulation only (empty otherwise): per pattern edge, by
    /// candidate `w` of `t`: predecessors of `w` along `e` among the
    /// candidates of `u`.
    pub bwd: Vec<Vec<u32>>,
}

/// Which neighbours of a removed node the [`drain`] reads along a pattern
/// edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Along {
    /// Sources of the edge's pairs into the node: they lose forward
    /// support.
    Sources,
    /// Targets of the edge's pairs out of the node: under dual simulation
    /// they lose backward support.
    Targets,
}

/// Initial support over one direction of a pattern edge: for each
/// candidate `v` in `from`, writes to `support[v]` how many of `v`'s
/// neighbours lie in `to`, and returns the candidates left with none (the
/// drain's seeds). The incremental maintainer's counting; the kernel
/// counts the same in one pass over each edge's pairs.
pub(crate) fn initial_support<'a>(
    from: &BitSet,
    to: &BitSet,
    neighbours: impl Fn(usize) -> &'a [u32],
    support: &mut [u32],
) -> Vec<u32> {
    let mut zero = Vec::new();
    for v in from.iter() {
        let cnt = neighbours(v)
            .iter()
            .filter(|&&w| to.contains(w as usize))
            .count() as u32;
        support[v] = cnt;
        if cnt == 0 {
            zero.push(v as u32);
        }
    }
    zero
}

/// Per-pattern-node SCC ranks (Section III), the order the [`drain`]
/// removes candidates in.
pub(crate) fn ranks(q: &Pattern) -> Vec<usize> {
    let cond = q.condensation();
    q.nodes().map(|u| cond.rank(u.0) as usize).collect()
}

/// The support-counter drain (Lemma 2), written once for every
/// refinement: the kernel's joins and the incremental maintainer's
/// mutations. Schedules each `(u, v)` of `seeds` once, then removes
/// scheduled candidates in ascending SCC `rank`. A removed `v` of `u` is
/// withdrawn as a witness: along each in-edge `e0 = (u0, u)` its
/// [`Sources`](Along::Sources) lose forward support and, under dual
/// simulation (`rel.bwd` nonempty), along each out-edge `e = (u, t)` its
/// [`Targets`](Along::Targets) lose backward support; a neighbour left
/// with none is scheduled in turn. `adj(e, along, v)` reads `v`'s
/// neighbours along `e`. Returns `false` as soon as a candidate set
/// empties (`Qs(G) = ∅`).
pub(crate) fn drain<'a>(
    q: &Pattern,
    rank: &[usize],
    rel: &mut Relation,
    seeds: impl IntoIterator<Item = (PatternNodeId, u32)>,
    adj: impl Fn(PatternEdgeId, Along, u32) -> &'a [u32],
    stats: &mut JoinStats,
) -> bool {
    let m = rel.cand.first().map_or(0, BitSet::capacity);
    let max_rank = rank.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<VecDeque<(PatternNodeId, u32)>> = vec![VecDeque::new(); max_rank + 1];
    let mut scheduled: Vec<BitSet> = vec![BitSet::new(m); rel.cand.len()];
    for (u, v) in seeds {
        if scheduled[u.index()].insert(v as usize) {
            buckets[rank[u.index()]].push_back((u, v));
        }
    }

    while let Some(r) = buckets.iter().position(|b| !b.is_empty()) {
        let (u, v) = buckets[r].pop_front().expect("nonempty bucket");
        if !rel.cand[u.index()].remove(v as usize) {
            continue;
        }
        stats.removals += 1;
        if rel.cand[u.index()].is_empty() {
            return false;
        }
        // Withdraw v: forward counters of u's predecessors along each
        // in-edge and, under dual simulation, backward counters of its
        // successors along each out-edge. A scheduled node's counter
        // freezes, so each node is queued at most once.
        let outs: &[_] = if rel.bwd.is_empty() {
            &[]
        } else {
            q.out_edges(u)
        };
        let ins = q.in_edges(u).iter().map(|&(x, e)| (x, e, Along::Sources));
        for (x, e, along) in ins.chain(outs.iter().map(|&(x, e)| (x, e, Along::Targets))) {
            stats.edge_visits += 1;
            let support = match along {
                Along::Sources => &mut rel.fwd[e.index()],
                Along::Targets => &mut rel.bwd[e.index()],
            };
            let (cand, sched) = (&rel.cand[x.index()], &mut scheduled[x.index()]);
            for &w in adj(e, along, v) {
                if cand.contains(w as usize) && !sched.contains(w as usize) {
                    let s = &mut support[w as usize];
                    *s = s.saturating_sub(1);
                    if *s == 0 {
                        sched.insert(w as usize);
                        buckets[rank[x.index()]].push_back((x, w));
                    }
                }
            }
        }
    }
    true
}

/// The literal Fig. 2 fixpoint: rescan every match set until stable.
///
/// Tracks each edge's live pairs as positions into its merged set, so
/// borrowed (arena-backed) sets are never copied and the survivors come
/// out in the ranked kernel's form.
fn naive_fixpoint(
    q: &Pattern,
    merged: &MergedSets<'_>,
    stats: &mut JoinStats,
) -> Option<Survivors> {
    let mut alive: Survivors = merged
        .iter()
        .map(|set| (0..set.len() as u32).collect())
        .collect();
    loop {
        // Recompute candidate sets from the current match sets.
        let cand = initial_candidates(q, merged, &alive);
        if cand.iter().any(HashSet::is_empty) {
            return None;
        }
        let mut changed = false;
        for (ei, live) in alive.iter_mut().enumerate() {
            stats.edge_visits += 1;
            let (u, t) = q.edge(PatternEdgeId(ei as u32));
            let keep = |i: &u32| {
                let (s, w) = merged[ei][*i as usize];
                cand[u.index()].contains(&s) && cand[t.index()].contains(&w)
            };
            let before = live.len();
            let surviving = live.iter().filter(|i| keep(i)).count();
            if surviving == 0 {
                return None;
            }
            if surviving != before {
                live.retain(keep);
                stats.removals += (before - surviving) as u64;
                changed = true;
            }
        }
        if !changed {
            return Some(alive);
        }
    }
}

/// Builds the final [`MatchResult`] (or empty) from each edge's
/// survivors, with [`node_sets`] for the node matches.
pub(crate) fn assemble(
    q: &Pattern,
    merged: &MergedSets<'_>,
    kept: Option<Survivors>,
) -> MatchResult {
    kept.map_or_else(MatchResult::empty, |kept| {
        let sets = survivor_pairs(merged, &kept);
        MatchResult::new(q, node_sets(q, &sets), sets)
    })
}

/// The node sets of nonempty refined edge sets, the one definition every
/// result uses: a node's matches are the endpoints it takes in surviving
/// pairs (sources of out-edges, targets of in-edges). At a fixpoint every
/// out-edge of `u` has the same source set, `sim(u)`, and the targets of
/// its in-edges are a subset of it, so a node with out-edges reads the
/// sources of its first out-edge set, and only a sink merges its in-edge
/// targets. Sorted sets give sorted sources, deduplicated in one pass;
/// other input (an [`IncrementalView`](crate::maintenance::IncrementalView)
/// lists pairs in its own id order) falls back to a sort. A node with no
/// incident edge takes none; only a graph reader admits one, and gives it
/// its base set.
pub(crate) fn node_sets(q: &Pattern, sets: &[Vec<(NodeId, NodeId)>]) -> Vec<Vec<NodeId>> {
    q.nodes()
        .map(|u| {
            let mut nodes: Vec<NodeId> = match q.out_edges(u).first() {
                Some(&(_, e)) => sets[e.index()].iter().map(|&(v, _)| v).collect(),
                None => q
                    .in_edges(u)
                    .iter()
                    .flat_map(|&(_, e)| &sets[e.index()])
                    .map(|&(_, w)| w)
                    .collect(),
            };
            if !nodes.is_sorted() {
                nodes.sort_unstable();
            }
            nodes.dedup();
            nodes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
    use crate::containment::tests::{fig1_views, fig1c};
    use crate::view::{materialize, ViewDef, ViewSet};
    use gpv_graph::{DataGraph, GraphBuilder};
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::PatternBuilder;

    /// Paper Fig. 1(a).
    fn fig1a() -> DataGraph {
        let mut b = GraphBuilder::new();
        let bob = b.add_node(["PM"]);
        let walt = b.add_node(["PM"]);
        let mat = b.add_node(["DBA"]);
        let fred = b.add_node(["DBA"]);
        let mary = b.add_node(["DBA"]);
        let dan = b.add_node(["PRG"]);
        let pat = b.add_node(["PRG"]);
        let bill = b.add_node(["PRG"]);
        let jean = b.add_node(["BA"]);
        let emmy = b.add_node(["ST"]);
        b.add_edge(bob, mat);
        b.add_edge(walt, mat);
        b.add_edge(bob, dan);
        b.add_edge(walt, bill);
        b.add_edge(fred, pat);
        b.add_edge(mat, pat);
        b.add_edge(mary, bill);
        b.add_edge(dan, fred);
        b.add_edge(pat, mary);
        b.add_edge(pat, mat);
        b.add_edge(bill, mat);
        b.add_edge(bob, jean);
        b.add_edge(jean, emmy);
        b.build()
    }

    /// Paper Fig. 3(a) graph and Fig. 3(b) views.
    fn fig3() -> (DataGraph, ViewSet, Pattern) {
        let mut b = GraphBuilder::new();
        let pm1 = b.add_node(["PM"]);
        let ai1 = b.add_node(["AI"]);
        let ai2 = b.add_node(["AI"]);
        let bio1 = b.add_node(["Bio"]);
        let se1 = b.add_node(["SE"]);
        let se2 = b.add_node(["SE"]);
        let db1 = b.add_node(["DB"]);
        let db2 = b.add_node(["DB"]);
        b.add_edge(pm1, ai1);
        b.add_edge(pm1, ai2);
        b.add_edge(ai2, bio1);
        b.add_edge(db1, ai2);
        b.add_edge(db2, ai1);
        b.add_edge(ai1, se1);
        b.add_edge(ai2, se2);
        b.add_edge(se1, db2);
        b.add_edge(se2, db1);
        b.add_edge(se1, bio1);
        let g = b.build();

        // V1: AI -> Bio, PM -> AI.
        let mut pb = PatternBuilder::new();
        let ai = pb.node_labeled("AI");
        let bio = pb.node_labeled("Bio");
        let pm = pb.node_labeled("PM");
        pb.edge(ai, bio);
        pb.edge(pm, ai);
        let v1 = pb.build().unwrap();
        // V2: DB -> AI, AI -> SE, SE -> DB.
        let mut pb = PatternBuilder::new();
        let db = pb.node_labeled("DB");
        let ai = pb.node_labeled("AI");
        let se = pb.node_labeled("SE");
        pb.edge(db, ai);
        pb.edge(ai, se);
        pb.edge(se, db);
        let v2 = pb.build().unwrap();
        let views = ViewSet::new(vec![ViewDef::new("V1", v1), ViewDef::new("V2", v2)]);

        // Qs (Fig. 3(c)): PM -> AI, AI -> Bio, DB -> AI, AI -> SE, SE -> DB.
        let mut pb = PatternBuilder::new();
        let pm = pb.node_labeled("PM");
        let ai = pb.node_labeled("AI");
        let bio = pb.node_labeled("Bio");
        let db = pb.node_labeled("DB");
        let se = pb.node_labeled("SE");
        pb.edge(pm, ai);
        pb.edge(ai, bio);
        pb.edge(db, ai);
        pb.edge(ai, se);
        pb.edge(se, db);
        let q = pb.build().unwrap();
        (g, views, q)
    }

    #[test]
    fn theorem_1_equivalence_fig1() {
        let g = fig1a();
        let q = fig1c();
        let views = fig1_views();
        let plan = contain(&q, &views).expect("Example 3: Qs ⊑ V");
        let ext = materialize(&views, &g);
        let via_views = match_join(&q, &plan, &ext).unwrap();
        let direct = match_pattern(&q, &g);
        assert_eq!(via_views, direct, "MatchJoin(V(G)) == Match(G)");
        assert!(!direct.is_empty());
    }

    #[test]
    fn example_4_fig3_with_invalid_match_removal() {
        // The paper walks through MatchJoin removing (AI1,SE1) from
        // S(AI,SE), then (SE1,DB2) and (DB2,AI2) cascade out.
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).expect("Qs ⊑ V");
        let ext = materialize(&views, &g);
        let (r, stats) = match_join_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        assert!(!r.is_empty());
        // The paper counts three removed pairs: (AI1,SE1), (SE1,DB2),
        // (DB2,AI1). Our node-centric refinement excludes AI1 already at
        // candidate initialization (source intersection), so it counts the
        // two cascaded node removals (DB2 from DB, SE1 from SE).
        assert!(stats.removals >= 2, "cascade: {stats:?}");

        let direct = match_pattern(&q, &g);
        assert_eq!(r, direct);

        // Expected final table (Example 4): single pairs per edge.
        let e = |a: u32, b: u32| q.edge_id(PatternNodeId(a), PatternNodeId(b)).unwrap();
        let names = |pairs: &[(NodeId, NodeId)]| -> Vec<(u32, u32)> {
            pairs.iter().map(|&(x, y)| (x.0, y.0)).collect()
        };
        assert_eq!(
            names(r.edge_set(e(0, 1))),
            vec![(0, 2)],
            "(PM,AI)=(PM1,AI2)"
        );
        assert_eq!(
            names(r.edge_set(e(1, 2))),
            vec![(2, 3)],
            "(AI,Bio)=(AI2,Bio1)"
        );
        assert_eq!(
            names(r.edge_set(e(3, 1))),
            vec![(6, 2)],
            "(DB,AI)=(DB1,AI2)"
        );
        assert_eq!(
            names(r.edge_set(e(1, 4))),
            vec![(2, 5)],
            "(AI,SE)=(AI2,SE2)"
        );
        assert_eq!(
            names(r.edge_set(e(4, 3))),
            vec![(5, 6)],
            "(SE,DB)=(SE2,DB1)"
        );
    }

    #[test]
    fn strategies_agree() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let (a, _) = match_join_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        let (b, _) = match_join_with(&q, &plan, &ext, JoinStrategy::NaiveFixpoint).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_when_views_empty_on_g() {
        // Views match nothing in G: MatchJoin returns ∅.
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let g = b.build();
        let q = fig1c();
        let views = fig1_views();
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let r = match_join(&q, &plan, &ext).unwrap();
        assert!(r.is_empty());
        assert_eq!(match_pattern(&q, &g), r);
    }

    #[test]
    fn plan_mismatch_detected() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let other_q = fig1c();
        assert_eq!(
            match_join(&other_q, &plan, &ext).unwrap_err(),
            JoinError::PlanMismatch
        );
    }

    #[test]
    fn view_out_of_range_detected() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let ext = ViewExtensions {
            extensions: vec![materialize(&views, &g).extensions[0].clone()],
        };
        assert_eq!(
            match_join(&q, &plan, &ext).unwrap_err(),
            JoinError::ViewOutOfRange(1)
        );
    }

    #[test]
    fn dag_pattern_single_visit_lemma2() {
        // Lemma 2: for a DAG pattern, the bottom-up strategy visits each
        // match set O(1) times — bounded here by 3 bookkeeping passes
        // (build, init, final) plus in-edge propagation only on removal.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let b2 = b.add_node(["B"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(a1, b2); // b2 has no C successor
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        let uc = pb.node_labeled("C");
        pb.edge(ua, ub);
        pb.edge(ub, uc);
        let q = pb.build().unwrap();
        let views = ViewSet::new(vec![
            ViewDef::new("Vab", {
                let mut pb = PatternBuilder::new();
                let x = pb.node_labeled("A");
                let y = pb.node_labeled("B");
                pb.edge(x, y);
                pb.build().unwrap()
            }),
            ViewDef::new("Vbc", {
                let mut pb = PatternBuilder::new();
                let x = pb.node_labeled("B");
                let y = pb.node_labeled("C");
                pb.edge(x, y);
                pb.build().unwrap()
            }),
        ]);
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let (r, stats) = match_join_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
        // 2 edges × 3 passes + at most |removals| propagation visits.
        assert!(
            stats.edge_visits <= 2 * 3 + stats.removals + 2,
            "visits {} removals {}",
            stats.edge_visits,
            stats.removals
        );
    }

    /// Regression (canonicalization): a stored extension containing
    /// duplicate pairs — possible for caches or external producers, since
    /// nothing re-validates the `MatchResult` invariant on the way in —
    /// used to inflate `merged_pairs`, CSR sizes, and support counters.
    /// Since the arena refactor the choke point is `CompactView::freeze`:
    /// every set entering a `ViewExtensions` is sorted + deduplicated at
    /// freeze time, so the join sees identical stats and answers whether
    /// the producer's sets carried duplicates or not.
    #[test]
    fn duplicated_extension_pairs_do_not_inflate_the_join() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let clean = materialize(&views, &g);
        let (r_clean, s_clean) =
            match_join_with(&q, &plan, &clean, JoinStrategy::RankedBottomUp).unwrap();

        // Corrupt every stored edge set with duplicates (tripled pairs, out
        // of order), then re-freeze — the arena entry point.
        let dirty = ViewExtensions {
            extensions: clean
                .extensions
                .iter()
                .map(|ext| {
                    let mut m = ext.thaw();
                    for set in &mut m.edge_matches {
                        let orig = set.clone();
                        set.extend(orig.iter().rev().copied());
                        set.extend(orig);
                    }
                    std::sync::Arc::new(crate::compact::CompactView::freeze(&m))
                })
                .collect(),
        };
        let (r_dirty, s_dirty) =
            match_join_with(&q, &plan, &dirty, JoinStrategy::RankedBottomUp).unwrap();
        assert_eq!(r_dirty, r_clean, "answers unchanged");
        assert_eq!(
            s_dirty, s_clean,
            "duplicates must not inflate merged_pairs / visits / removals"
        );
        // And arena slices really are canonical: the merge borrows them
        // verbatim, so duplicates would inflate the counters above.
        let set = clean.edge_set(0, gpv_pattern::PatternEdgeId(0));
        assert!(set.windows(2).all(|w| w[0] < w[1]));
    }

    /// The drain withdraws a removed node along *every* in-edge of its
    /// pattern node. `c` (node 2) loses its only D witness, so its A
    /// predecessor `a` (0) and its B predecessor `b` (1) must both fall —
    /// and each sits in an A → B pair (`a → b2`, `a2 → b`) that survives if
    /// the cascade skips its in-edge.
    #[test]
    fn drain_cascades_along_every_in_edge() {
        let g = gpv_graph::io::parse_graph(
            "node 0 A\nnode 1 B\nnode 2 C\nnode 3 D\n\
             node 4 A\nnode 5 B\nnode 6 C\nnode 7 D\nnode 8 E\n\
             edge 0 5\nedge 0 2\nedge 1 2\nedge 2 3\n\
             edge 4 5\nedge 4 6\nedge 5 6\nedge 6 7\nedge 7 8\nedge 4 1",
        )
        .unwrap();
        let q = gpv_pattern::parse_pattern(
            "node a A\nnode b B\nnode c C\nnode d D\nnode e E\n\
             edge a b\nedge a c\nedge b c\nedge c d\nedge d e",
        )
        .unwrap();
        let (r, stats) = crate::partial::GraphSource::new(&g).simulate(&q, Simulation::Plain);
        assert_eq!(r, match_pattern(&q, &g));
        let expect = [4, 5, 6, 7, 8].map(|v| vec![NodeId(v)]);
        assert_eq!(r.node_matches, expect, "only the second chain matches");
        assert_eq!(stats.removals, 3, "c, then both of its predecessors");
    }

    use crate::view::ViewExtensions;
    use gpv_pattern::PatternNodeId;
}
