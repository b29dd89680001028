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
//! Complexity: `O(|Qs||V(G)| + |V(G)|²)` — versus
//! `O(|Qs|² + |Qs||G| + |G|²)` for evaluating `Qs` on `G` directly.

use crate::containment::ContainmentPlan;
use crate::view::ViewExtensions;
use gpv_graph::NodeId;
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternNodeId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};

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
    /// [`RankedBottomUp`](JoinStrategy::RankedBottomUp) with the per-edge
    /// build and support-initialization phases fanned across worker threads
    /// (thread count = available parallelism; see [`crate::parallel`]).
    /// Deterministic: per-edge results merge in edge order and the final
    /// fixpoint is confluent. With one thread it runs inline and matches
    /// the sequential strategy exactly.
    Parallel,
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
    /// The query has no edges; `Qs(G)` is defined via edge match sets.
    NoEdges,
    /// A plan source is [`EdgeSource::Graph`](crate::plan::EdgeSource) but
    /// no data graph was supplied to the executor.
    GraphRequired,
    /// A parallel worker panicked while processing the given pattern-edge
    /// index (caught and resurfaced instead of aborting the process).
    WorkerPanicked(usize),
    /// A parallel worker thread died outside the per-item panic catch, so
    /// no failing edge index is known. Distinct from
    /// [`WorkerPanicked`](Self::WorkerPanicked) — this used to be encoded
    /// as `WorkerPanicked(usize::MAX)`, which callers reported as a
    /// nonsense edge index.
    WorkerLost,
}

impl From<crate::parallel::ParError> for JoinError {
    fn from(e: crate::parallel::ParError) -> Self {
        match e {
            crate::parallel::ParError::Panicked(i) => JoinError::WorkerPanicked(i),
            crate::parallel::ParError::Lost => JoinError::WorkerLost,
        }
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::PlanMismatch => write!(f, "containment plan does not match the query"),
            JoinError::ViewOutOfRange(i) => write!(f, "plan references missing view {i}"),
            JoinError::NoEdges => write!(f, "query has no edges"),
            JoinError::GraphRequired => {
                write!(f, "plan sources an edge from G but no graph was supplied")
            }
            JoinError::WorkerPanicked(e) => {
                write!(
                    f,
                    "parallel worker panicked while processing pattern edge {e}"
                )
            }
            JoinError::WorkerLost => {
                write!(f, "parallel worker lost (failing pattern edge unknown)")
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
    run_fixpoint(q, merged, strategy)
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
    run_fixpoint(q, merged, strategy)
}

/// Runs the default (ranked) fixpoint over caller-supplied merged sets.
/// Used by the hybrid evaluator in [`crate::partial`], whose merge mixes
/// view extensions and surgical `G` scans.
pub(crate) fn run_fixpoint_public(
    q: &Pattern,
    merged: MergedSets<'_>,
) -> Result<(MatchResult, JoinStats), JoinError> {
    run_fixpoint(q, merged, JoinStrategy::RankedBottomUp)
}

/// Runs the fixpoint phase over caller-supplied merged sets with an
/// explicit strategy — the execution backend behind both the λ-based entry
/// points and the [`EdgeSource`](crate::plan::EdgeSource)-honoring engine
/// path (whose merge is built by `partial::merged_from_sources`).
pub(crate) fn run_fixpoint(
    q: &Pattern,
    merged: MergedSets<'_>,
    strategy: JoinStrategy,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let mut stats = JoinStats {
        merged_pairs: merged.iter().map(|s| s.len() as u64).sum(),
        ..JoinStats::default()
    };
    let sets = match strategy {
        JoinStrategy::RankedBottomUp => ranked_fixpoint(q, merged, &mut stats),
        JoinStrategy::NaiveFixpoint => naive_fixpoint(q, merged, &mut stats),
        JoinStrategy::Parallel => crate::parallel::par_ranked_fixpoint(q, merged, &mut stats, 0)?,
    };
    Ok((assemble(q, sets), stats))
}

/// Canonicalizes one edge's borrowed match set: sorted, duplicate-free.
///
/// Since the columnar-arena refactor, sets read from [`ViewExtensions`] are
/// canonical by construction ([`CompactView::freeze`](crate::compact::CompactView::freeze)
/// sorts + dedups defensively at freeze time), so the merge borrows them
/// verbatim and no production path re-normalizes. This survives as the test
/// oracle asserting that arena slices really are in canonical form —
/// duplicates there would inflate [`JoinStats::merged_pairs`], CSR sizes,
/// and the support counters.
#[cfg(test)]
pub(crate) fn canonical_pairs(set: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let mut v = set.to_vec();
    if !v.windows(2).all(|w| w[0] < w[1]) {
        v.sort_unstable();
        v.dedup();
    }
    v
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
    if q.edge_count() == 0 {
        return Err(JoinError::NoEdges);
    }
    if plan.lambda.len() != q.edge_count() {
        return Err(JoinError::PlanMismatch);
    }
    let mut merged = Vec::with_capacity(q.edge_count());
    for entries in &plan.lambda {
        for r in entries {
            if r.view >= ext.extensions.len() {
                return Err(JoinError::ViewOutOfRange(r.view));
            }
        }
        let best = entries
            .iter()
            .min_by_key(|r| ext.edge_set(r.view, r.edge).len())
            .ok_or(JoinError::PlanMismatch)?;
        // Arena regions are canonical by freeze — borrow the flat slice
        // directly: the merge allocates nothing per pair.
        merged.push(Cow::Borrowed(ext.edge_set(best.view, best.edge)));
    }
    Ok(merged)
}

/// The literal Fig. 2 merge: `Se := ⋃_{e' ∈ λ(e)} S_e'`. Exposed for the
/// union-vs-narrowed ablation; produces the same final result as
/// `merge_step` (both initializations contain the true `Se`).
pub fn merge_step_union<'a>(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &'a ViewExtensions,
) -> Result<MergedSets<'a>, JoinError> {
    if q.edge_count() == 0 {
        return Err(JoinError::NoEdges);
    }
    if plan.lambda.len() != q.edge_count() {
        return Err(JoinError::PlanMismatch);
    }
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

/// Candidate node sets implied by merged edge sets: for a node with
/// out-edges, the intersection of the sources of every out-edge set (a match
/// must witness them all); for a sink, the union of targets of its in-edge
/// sets (the only way it can appear in the result).
pub(crate) fn initial_candidates<S: std::ops::Deref<Target = [(NodeId, NodeId)]>>(
    q: &Pattern,
    merged: &[S],
) -> Vec<HashSet<NodeId>> {
    q.nodes()
        .map(|u| {
            let outs = q.out_edges(u);
            if !outs.is_empty() {
                let mut iter = outs.iter();
                let &(_, e0) = iter.next().expect("nonempty");
                let mut set: HashSet<NodeId> = merged[e0.index()].iter().map(|&(s, _)| s).collect();
                for &(_, e) in iter {
                    let srcs: HashSet<NodeId> = merged[e.index()].iter().map(|&(s, _)| s).collect();
                    set.retain(|v| srcs.contains(v));
                }
                set
            } else {
                q.in_edges(u)
                    .iter()
                    .flat_map(|&(_, e)| merged[e.index()].iter().map(|&(_, t)| t))
                    .collect()
            }
        })
        .collect()
}

/// Per-edge compacted representation of a merged match set: dense-id pair
/// list, endpoint presence bitsets, and forward/reverse CSR adjacency. Pure
/// per-edge data, so both the sequential and the parallel executor build it
/// — the latter one edge per worker (see [`crate::parallel`]).
#[derive(Debug)]
pub(crate) struct EdgeCsr {
    /// Compacted `(src, tgt)` pairs, in merge order.
    pub pairs: Vec<(u32, u32)>,
    /// Dense ids occurring as sources.
    pub srcs: gpv_graph::BitSet,
    /// Dense ids occurring as targets.
    pub tgts: gpv_graph::BitSet,
    /// Forward CSR: offsets by source, target payloads.
    pub fwd: (Vec<u32>, Vec<u32>),
    /// Reverse CSR: offsets by target, source payloads.
    pub rev: (Vec<u32>, Vec<u32>),
}

/// Dense-id compaction over every node mentioned in the merged sets (first
/// occurrence order, hence deterministic).
pub(crate) fn compact_index<S: std::ops::Deref<Target = [(NodeId, NodeId)]>>(
    merged: &[S],
) -> (HashMap<NodeId, u32>, Vec<NodeId>) {
    let mut index: HashMap<NodeId, u32> = HashMap::new();
    for set in merged {
        for &(s, t) in set.iter() {
            let next = index.len() as u32;
            index.entry(s).or_insert(next);
            let next = index.len() as u32;
            index.entry(t).or_insert(next);
        }
    }
    let mut rev_index = vec![NodeId(0); index.len()];
    for (&node, &i) in &index {
        rev_index[i as usize] = node;
    }
    (index, rev_index)
}

/// Builds one edge's [`EdgeCsr`] (pure function of that edge's set).
pub(crate) fn build_edge_csr(
    set: &[(NodeId, NodeId)],
    index: &HashMap<NodeId, u32>,
    m: usize,
) -> EdgeCsr {
    use gpv_graph::BitSet;
    let mut ps = Vec::with_capacity(set.len());
    let mut sb = BitSet::new(m);
    let mut tb = BitSet::new(m);
    for &(s, t) in set {
        let (cs, ct) = (index[&s], index[&t]);
        ps.push((cs, ct));
        sb.insert(cs as usize);
        tb.insert(ct as usize);
    }
    let mut fo = vec![0u32; m + 1];
    for &(s, _) in &ps {
        fo[s as usize + 1] += 1;
    }
    for i in 0..m {
        fo[i + 1] += fo[i];
    }
    let mut cur = fo.clone();
    let mut ft = vec![0u32; ps.len()];
    for &(s, t) in &ps {
        ft[cur[s as usize] as usize] = t;
        cur[s as usize] += 1;
    }
    let mut ro = vec![0u32; m + 1];
    for &(_, t) in &ps {
        ro[t as usize + 1] += 1;
    }
    for i in 0..m {
        ro[i + 1] += ro[i];
    }
    let mut cur = ro.clone();
    let mut rs = vec![0u32; ps.len()];
    for &(s, t) in &ps {
        rs[cur[t as usize] as usize] = s;
        cur[t as usize] += 1;
    }
    EdgeCsr {
        pairs: ps,
        srcs: sb,
        tgts: tb,
        fwd: (fo, ft),
        rev: (ro, rs),
    }
}

/// Candidate sets per pattern node: intersection of out-edge sources
/// (non-sinks) or union of in-edge targets (sinks). `None` when a node has
/// no candidates (`Qs(G) = ∅`).
pub(crate) fn build_candidates(
    q: &Pattern,
    csrs: &[EdgeCsr],
    m: usize,
) -> Option<Vec<gpv_graph::BitSet>> {
    use gpv_graph::BitSet;
    let mut cand: Vec<BitSet> = Vec::with_capacity(q.node_count());
    for u in q.nodes() {
        let outs = q.out_edges(u);
        let set = if !outs.is_empty() {
            let mut it = outs.iter();
            let mut set = csrs[it.next().expect("nonempty").1.index()].srcs.clone();
            for &(_, e) in it {
                set.intersect_with(&csrs[e.index()].srcs);
            }
            set
        } else {
            let mut set = BitSet::new(m);
            for &(_, e) in q.in_edges(u) {
                set.union_with(&csrs[e.index()].tgts);
            }
            set
        };
        if set.is_empty() {
            return None;
        }
        cand.push(set);
    }
    Some(cand)
}

/// Initial support counters for one pattern edge `e = (u, t)`: for each
/// candidate `v` of `u`, how many of `v`'s CSR successors are candidates of
/// `t`. Returns the counter vector plus the zero-support seeds (candidates
/// of `u` with no witness). Pure per-edge data.
pub(crate) fn edge_support(
    csr: &EdgeCsr,
    cand_u: &gpv_graph::BitSet,
    cand_t: &gpv_graph::BitSet,
    m: usize,
) -> (Vec<u32>, Vec<u32>) {
    let (fo, ft) = &csr.fwd;
    let mut support = vec![0u32; m];
    let mut seeds = Vec::new();
    for v in cand_u.iter() {
        let (a, b) = (fo[v] as usize, fo[v + 1] as usize);
        let cnt = ft[a..b]
            .iter()
            .filter(|&&t2| cand_t.contains(t2 as usize))
            .count() as u32;
        support[v] = cnt;
        if cnt == 0 {
            seeds.push(v as u32);
        }
    }
    (support, seeds)
}

/// The sequential bottom-up drain (Lemma 2) plus the final per-edge filter:
/// removes zero-support candidates in ascending SCC rank, cascading through
/// in-edges, then maps surviving compact pairs back to [`NodeId`]s. Shared
/// verbatim by the sequential and parallel executors — only the stages
/// *before* the drain are parallelized, so both produce identical results.
pub(crate) fn drain_and_extract(
    q: &Pattern,
    csrs: &[EdgeCsr],
    mut cand: Vec<gpv_graph::BitSet>,
    mut support: Vec<Vec<u32>>,
    seeds: &[(PatternNodeId, Vec<u32>)],
    rev_index: &[NodeId],
    stats: &mut JoinStats,
) -> Option<Vec<Vec<(NodeId, NodeId)>>> {
    use gpv_graph::BitSet;
    let np = q.node_count();
    let ne = q.edge_count();
    let m = rev_index.len();
    let cond = q.condensation();
    let max_rank = (0..np as u32).map(|u| cond.rank(u)).max().unwrap_or(0) as usize;

    let mut buckets: Vec<VecDeque<(PatternNodeId, u32)>> = vec![VecDeque::new(); max_rank + 1];
    let mut scheduled: Vec<BitSet> = vec![BitSet::new(m); np];
    // Seed in edge order: deterministic regardless of how the per-edge seed
    // lists were computed.
    for (u, vs) in seeds {
        for &v in vs {
            if scheduled[u.index()].insert(v as usize) {
                buckets[cond.rank(u.0) as usize].push_back((*u, v));
            }
        }
    }

    // Drain in ascending rank (bottom-up, Lemma 2).
    #[allow(clippy::while_let_loop)] // the else-break reads better with the bucket scan
    loop {
        let Some(rank) = (0..buckets.len()).find(|&r| !buckets[r].is_empty()) else {
            break;
        };
        let (u, v) = buckets[rank].pop_front().expect("nonempty bucket");
        if !cand[u.index()].remove(v as usize) {
            continue;
        }
        stats.removals += 1;
        if cand[u.index()].is_empty() {
            return None;
        }
        for &(u0, e0) in q.in_edges(u) {
            stats.edge_visits += 1;
            let (ro, rs) = &csrs[e0.index()].rev;
            let (a, b) = (ro[v as usize] as usize, ro[v as usize + 1] as usize);
            for &w in &rs[a..b] {
                if cand[u0.index()].contains(w as usize)
                    && !scheduled[u0.index()].contains(w as usize)
                {
                    let s = &mut support[e0.index()][w as usize];
                    *s = s.saturating_sub(1);
                    if *s == 0 {
                        scheduled[u0.index()].insert(w as usize);
                        buckets[cond.rank(u0.0) as usize].push_back((u0, w));
                    }
                }
            }
        }
    }

    // Final sets: pairs whose endpoints survived, mapped back to NodeIds.
    let mut out = Vec::with_capacity(ne);
    for (ei, csr) in csrs.iter().enumerate() {
        stats.edge_visits += 1;
        let (u, t) = q.edge(gpv_pattern::PatternEdgeId(ei as u32));
        let filtered = filter_surviving(&csr.pairs, &cand[u.index()], &cand[t.index()], rev_index);
        if filtered.is_empty() {
            return None;
        }
        out.push(filtered);
    }
    Some(out)
}

/// One edge's surviving pairs mapped back to [`NodeId`]s (pure per-edge).
pub(crate) fn filter_surviving(
    pairs: &[(u32, u32)],
    cand_u: &gpv_graph::BitSet,
    cand_t: &gpv_graph::BitSet,
    rev_index: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    pairs
        .iter()
        .filter(|&&(s, w)| cand_u.contains(s as usize) && cand_t.contains(w as usize))
        .map(|&(s, w)| (rev_index[s as usize], rev_index[w as usize]))
        .collect()
}

/// The optimized fixpoint: support counters + rank-bucketed worklist over a
/// *compacted* node domain — only nodes occurring in the merged sets get
/// dense ids, so all hot-path structures are flat vectors and bitsets sized
/// by `|V(G)|`, not `|G|`. Returns the refined per-edge sets; any empty set
/// means `Qs(G) = ∅`.
pub(crate) fn ranked_fixpoint(
    q: &Pattern,
    merged: MergedSets<'_>,
    stats: &mut JoinStats,
) -> Option<Vec<Vec<(NodeId, NodeId)>>> {
    let ne = q.edge_count();
    let (index, rev_index) = compact_index(&merged);
    let m = index.len();

    let mut csrs = Vec::with_capacity(ne);
    for set in &merged {
        stats.edge_visits += 1;
        csrs.push(build_edge_csr(set, &index, m));
    }

    let cand = build_candidates(q, &csrs, m)?;

    let mut support: Vec<Vec<u32>> = vec![Vec::new(); ne];
    let mut seeds: Vec<(PatternNodeId, Vec<u32>)> = Vec::new();
    for u in q.nodes() {
        for &(t, e) in q.out_edges(u) {
            stats.edge_visits += 1;
            let (sup, zero) = edge_support(&csrs[e.index()], &cand[u.index()], &cand[t.index()], m);
            support[e.index()] = sup;
            seeds.push((u, zero));
        }
    }

    drain_and_extract(q, &csrs, cand, support, &seeds, &rev_index, stats)
}

/// The literal Fig. 2 fixpoint: rescan every match set until stable.
///
/// Works over [`MergedSets`]: a borrowed (arena-backed) set is counted
/// first and only copied-on-write when the rescan actually prunes it, so a
/// pass that removes nothing allocates nothing.
pub(crate) fn naive_fixpoint(
    q: &Pattern,
    mut merged: MergedSets<'_>,
    stats: &mut JoinStats,
) -> Option<Vec<Vec<(NodeId, NodeId)>>> {
    loop {
        // Recompute candidate sets from the current match sets.
        let cand = initial_candidates(q, &merged);
        if cand.iter().any(HashSet::is_empty) {
            return None;
        }
        let mut changed = false;
        #[allow(clippy::needless_range_loop)] // ei doubles as the PatternEdgeId
        for ei in 0..merged.len() {
            stats.edge_visits += 1;
            let (u, t) = q.edge(gpv_pattern::PatternEdgeId(ei as u32));
            let before = merged[ei].len();
            let surviving = merged[ei]
                .iter()
                .filter(|(s, w)| cand[u.index()].contains(s) && cand[t.index()].contains(w))
                .count();
            if surviving == 0 {
                return None;
            }
            if surviving != before {
                merged[ei]
                    .to_mut()
                    .retain(|(s, w)| cand[u.index()].contains(s) && cand[t.index()].contains(w));
                stats.removals += (before - surviving) as u64;
                changed = true;
            }
        }
        if !changed {
            return Some(merged.into_iter().map(Cow::into_owned).collect());
        }
    }
}

/// Builds the final [`MatchResult`] (or empty) from refined sets.
pub(crate) fn assemble(q: &Pattern, sets: Option<Vec<Vec<(NodeId, NodeId)>>>) -> MatchResult {
    let Some(sets) = sets else {
        return MatchResult::empty();
    };
    // Node matches = nodes appearing in surviving sets in the role dictated
    // by the pattern (sources of out-edges / targets of in-edges).
    let mut node_sets: Vec<HashSet<NodeId>> = vec![HashSet::new(); q.node_count()];
    for (ei, set) in sets.iter().enumerate() {
        let (u, t) = q.edge(gpv_pattern::PatternEdgeId(ei as u32));
        for &(s, w) in set {
            node_sets[u.index()].insert(s);
            node_sets[t.index()].insert(w);
        }
    }
    if node_sets.iter().any(HashSet::is_empty) {
        return MatchResult::empty();
    }
    MatchResult::new(
        q,
        node_sets
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect(),
        sets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
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

    fn fig1c() -> Pattern {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba1 = b.node_labeled("DBA");
        let prg1 = b.node_labeled("PRG");
        let dba2 = b.node_labeled("DBA");
        let prg2 = b.node_labeled("PRG");
        b.edge(pm, dba1);
        b.edge(pm, prg2);
        b.edge(dba1, prg1);
        b.edge(prg1, dba2);
        b.edge(dba2, prg2);
        b.edge(prg2, dba1);
        b.build().unwrap()
    }

    fn fig1_views() -> ViewSet {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(pm, dba);
        b.edge(pm, prg);
        let v1 = b.build().unwrap();
        let mut b = PatternBuilder::new();
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(dba, prg);
        b.edge(prg, dba);
        let v2 = b.build().unwrap();
        ViewSet::new(vec![ViewDef::new("V1", v1), ViewDef::new("V2", v2)])
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
        // And the canonical helper is a plain copy on already-canonical
        // input (the hot path pays one linear scan, no sort).
        let set = clean.edge_set(0, gpv_pattern::PatternEdgeId(0));
        assert_eq!(canonical_pairs(set), set.to_vec());
    }

    use crate::view::ViewExtensions;
    use gpv_pattern::PatternNodeId;
}
