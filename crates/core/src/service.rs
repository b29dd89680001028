//! The concurrent serving layer: [`ViewService`] on top of
//! [`QueryEngine`].
//!
//! The paper's value proposition — answer `Qs` from materialized views
//! without touching `G` — only pays off at scale if the views are *served*
//! under concurrent traffic. `ViewService` is that facade: many client
//! threads submit batches of pattern queries against one shared service,
//! which
//!
//! * plans each query **once** per (query, view-set) pair — a plan cache
//!   keyed by `(query fingerprint, view-set fingerprint)` turns repeated
//!   queries into a hash lookup (the plan IR is immutable and shared by
//!   `Arc`);
//! * **answers repeated queries across batches without executing** — a
//!   byte-budgeted, LRU-evicted **result cache** keyed by `(query
//!   fingerprint, view-set fingerprint)` replays the answer
//!   computed the first time (the memo-over-recompute move the paper makes
//!   for views, applied one level up the stack); entries hold the *frozen
//!   columnar* form, so the byte budget bounds actual residency, and a hit
//!   thaws — an O(answer) copy in place of a plan + fixpoint execution;
//!   every entry is stamped with the **epoch set** of the views its plan
//!   actually read (plus the graph epoch when it read `G`), so an
//!   [`EdgeDelta`] to view *A* invalidates
//!   exactly the answers that read *A* — answers reading only other views
//!   keep hitting across the delta, which is the point of delta-maintained
//!   serving: an update never colds the whole cache, let alone forces a
//!   rebuild. A graph-reading answer also keeps its query's **edge
//!   footprint** ([`QueryFootprint`]): [`ViewService::apply_delta`] moves
//!   the stamp of every such answer the delta's edges miss forward to the
//!   post-delta snapshot, so a 1-edge delta re-runs only the graph-reading
//!   queries it can change. Failures are not cached: a strict (`g = None`)
//!   call the views cannot answer is refused again from its cached plan;
//! * **deduplicates identical queries inside a batch**, executing each
//!   distinct query once and fanning the result out. All three maps key
//!   by a structural [`query_fingerprint`] and confirm a hit by comparing
//!   the stored pattern with `==`;
//! * executes against a lock-free
//!   [`StoreSnapshot`] of the sharded
//!   [`ViewStore`], rebuilding its internal [`QueryEngine`] only when the
//!   store version moves — a rebuild shares the snapshot's extensions by
//!   `Arc` ([`QueryEngine::from_snapshot`]), so it costs O(card(V)) handle
//!   clones, never a deep copy of the materialized pairs;
//! * plans under the one fixed [`CostModel`](crate::cost::CostModel);
//! * keeps service-level statistics: plan- and result-cache hit rates,
//!   per-shard occupancy, in-flight queue depth and a log₂ latency
//!   histogram.
//!
//! Answers are **byte-identical** to calling
//! [`QueryEngine::answer`] sequentially (asserted by `tests/service.rs`):
//! caching and concurrency change wall-clock, never results.
//!
//! ```
//! use gpv_core::service::ViewService;
//! use gpv_core::store::ViewStore;
//! use gpv_core::view::{ViewDef, ViewSet};
//! use gpv_graph::GraphBuilder;
//! use gpv_pattern::PatternBuilder;
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::new();
//! let pm = b.add_node(["PM"]);
//! let dba = b.add_node(["DBA"]);
//! b.add_edge(pm, dba);
//! let g = b.build();
//!
//! let mut p = PatternBuilder::new();
//! let u0 = p.node_labeled("PM");
//! let u1 = p.node_labeled("DBA");
//! p.edge(u0, u1);
//! let q = p.build().unwrap();
//!
//! let views = ViewSet::new(vec![ViewDef::new("pm-dba", q.clone())]);
//! let store = Arc::new(ViewStore::materialize(views, &g, 4));
//! let service = ViewService::new(store);
//!
//! // Duplicate queries in one batch: planned once, answered identically.
//! let answers = service.serve_batch(&[q.clone(), q.clone()], None);
//! assert_eq!(answers.len(), 2);
//! let a0 = answers[0].as_ref().unwrap();
//! let a1 = answers[1].as_ref().unwrap();
//! assert_eq!(a0.result, a1.result);
//! assert!(service.stats().queries == 2);
//! ```

use crate::compact::CompactView;
use crate::delta::{EdgeDelta, QueryFootprint};
use crate::engine::{EngineConfig, EngineError, QueryEngine};
use crate::matchjoin::{JoinError, JoinStats};
use crate::plan::{CacheDisposition, QueryPlan};
use crate::store::{DeltaReport, ShardOccupancy, StoreError, StoreSnapshot, ViewStore};
use gpv_graph::{DataGraph, Value};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Atom, Pattern, Predicate};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// A structural fingerprint of a pattern query: FNV-1a, fed through
/// [`Hash`], over its node predicates and its (sorted, deduplicated) edge
/// list — everything [`Pattern`]'s `==` compares. Structurally identical
/// queries (same nodes, predicates, edges, in the same order) collide by
/// construction — that is what lets the service recognize "the same query
/// again" across clients. Distinct queries can collide (64-bit non-crypto
/// hash); the service's caches therefore keep the pattern itself next to
/// every fingerprint-keyed entry and confirm a hit with `==` before reusing
/// anything. Stable within one build of the crate; never persisted.
pub fn query_fingerprint(q: &Pattern) -> u64 {
    let mut h = crate::fnv::Fnv1a::new();
    q.preds().hash(&mut h);
    q.edges().hash(&mut h);
    Hasher::finish(&h)
}

/// The epoch-set stamp of an answer produced by `plan` against `snap`:
/// the maximum epoch over every view the plan reads, folding in the graph
/// epoch whenever the plan is not views-only (hybrid and direct executions
/// may scan `G`). A stamp claims that the answer equals the answer at
/// every snapshot that computes the same stamp (under the same view-set
/// fingerprint). Two snapshots agreeing on this stamp agree on every byte
/// the plan consumes, so the claim holds when the answer is computed; a
/// delta touching a consumed view (or the graph, for graph-reading plans)
/// moves the stamp and misses exactly — a delta to an *untouched* view
/// leaves it valid. [`ViewService::apply_delta`] re-stamps a graph-reading
/// answer only when the delta misses its [`QueryFootprint`], so a refresh
/// only ever makes a true claim. The view positions are computed once per
/// plan ([`QueryPlan::view_indices`]): a stamp allocates nothing.
fn plan_epoch_key(plan: &QueryPlan, snap: &StoreSnapshot) -> u64 {
    let epochs = snap.epochs();
    let mut key = 0u64;
    for &idx in plan.view_indices() {
        // A position the snapshot does not have (membership skew — ruled
        // out by the view-set fingerprint in the cache key, but kept
        // defensive) poisons the stamp so the entry can never hit.
        key = key.max(epochs.get(idx).copied().unwrap_or(u64::MAX));
    }
    if plan.needs_graph() {
        key = key.max(snap.graph_epoch);
    }
    key
}

/// Number of log₂ latency buckets: bucket `i` counts queries whose latency
/// fell in `[2^(i-1), 2^i)` µs (bucket 0: `< 1` µs; the last bucket is the
/// unbounded `≥ 2^(LATENCY_BUCKETS-2)` µs overflow).
pub const LATENCY_BUCKETS: usize = 22;

/// A log₂ latency histogram snapshot (microsecond buckets).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts queries with latency in `[2^(i-1), 2^i)` µs
    /// (`buckets[0]`: `< 1` µs; the last bucket absorbs everything slower).
    pub buckets: [u64; LATENCY_BUCKETS],
}

/// What a [`LatencyHistogram`] quantile lookup can actually assert — the
/// explicit replacement for the old "`None` means either *no data* or
/// *overflow*" ambiguity. An overflow must never be squashed into a finite
/// bound: the histogram's last bucket is unbounded, so a quantile landing
/// there has **no** upper bound the histogram can vouch for (a p99 that
/// silently reported the previous bucket's bound would understate tail
/// latency by an arbitrary amount).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantileBound {
    /// The quantile is strictly under this many microseconds (the upper
    /// edge of its bucket).
    Under(u64),
    /// The quantile fell in the unbounded overflow bucket: all the
    /// histogram knows is that it is **at least** this many microseconds.
    Overflow(u64),
}

impl std::fmt::Display for QuantileBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantileBound::Under(us) => write!(f, "< {us} µs"),
            QuantileBound::Overflow(us) => write!(f, ">= {us} µs"),
        }
    }
}

impl LatencyHistogram {
    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `p`-quantile's bucket bound (`0.0 < p <= 1.0`; `p` above 1 is
    /// clamped to 1): [`QuantileBound::Under`] with the bucket's upper edge,
    /// or the explicit [`QuantileBound::Overflow`] marker when the quantile
    /// lands in the unbounded last bucket. `None` only when the histogram
    /// has no observations or `p` is not positive (a `p ≤ 0` — or NaN —
    /// quantile is meaningless: clamping used to produce `target = 0`,
    /// making `seen >= target` vacuously true and returning `Some(1)` even
    /// with zero observations in bucket 0).
    pub fn quantile(&self, p: f64) -> Option<QuantileBound> {
        let total = self.count();
        if total == 0 || p.is_nan() || p <= 0.0 {
            return None;
        }
        let target = (p.min(1.0) * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate().take(LATENCY_BUCKETS - 1) {
            seen += c;
            if seen >= target {
                return Some(QuantileBound::Under(1u64 << i));
            }
        }
        Some(QuantileBound::Overflow(1u64 << (LATENCY_BUCKETS - 2)))
    }

    /// Upper bound (µs) of the bucket containing the `p`-quantile. Returns
    /// `None` when [`Self::quantile`] has no answer *or* reports
    /// [`QuantileBound::Overflow`] — the histogram must never report a
    /// finite bound it does not have. Callers that need to distinguish
    /// "no data" from "unbounded tail" use [`Self::quantile`] directly.
    /// Coarse by design: a `Some(x)` answers "the quantile is under `x`
    /// µs", not "the quantile is `x`".
    pub fn quantile_upper_micros(&self, p: f64) -> Option<u64> {
        match self.quantile(p) {
            Some(QuantileBound::Under(us)) => Some(us),
            Some(QuantileBound::Overflow(_)) | None => None,
        }
    }

    /// Human-readable bound for the `p`-quantile: `"< X µs"`, `">= X µs"`
    /// when it falls in the overflow bucket, or `"n/a"` with no
    /// observations or a non-positive `p`.
    pub fn quantile_label(&self, p: f64) -> String {
        match self.quantile(p) {
            Some(bound) => bound.to_string(),
            None => "n/a".into(),
        }
    }
}

fn bucket_of(micros: u64) -> usize {
    ((64 - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// Service tuning knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Engine configuration applied to the planner/executor.
    pub engine: EngineConfig,
    /// Maximum cached plans; when full, the least-recently-used entry is
    /// evicted — hot entries survive a flood of distinct cold queries
    /// (`0` disables plan caching entirely).
    pub plan_cache_capacity: usize,
    /// Byte budget for the cross-batch **result** cache (`0` disables it).
    /// The plan cache skips planning; this cache skips *execution*: a
    /// repeated identical query whose views are unchanged returns the answer
    /// computed the first time. When an insertion pushes the estimated
    /// resident bytes over the budget, least-recently-used entries are
    /// evicted until it fits (an answer larger than the whole budget is
    /// simply not cached).
    pub result_cache_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            engine: EngineConfig::default(),
            plan_cache_capacity: 4096,
            result_cache_bytes: 64 << 20,
        }
    }
}

/// Errors surfaced to service clients. Unlike [`EngineError`] this is
/// `Clone`, so one failure can be fanned out to every duplicate of a
/// deduplicated query.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The plan needs the data graph but the call supplied none
    /// (views-only serving of a not-fully-covered query).
    NeedsGraph,
    /// Executor failure (plan/extension mismatch).
    Join(JoinError),
    /// The supplied graph is not the one the store was materialized for.
    GraphMismatch {
        /// Fingerprint the store was materialized against.
        expected: u64,
        /// Fingerprint of the graph supplied now.
        actual: u64,
    },
    /// Any other engine-level failure, stringified.
    Engine(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NeedsGraph => {
                write!(f, "plan requires graph access but none was supplied")
            }
            ServiceError::Join(e) => write!(f, "join failed: {e}"),
            ServiceError::GraphMismatch { expected, actual } => write!(
                f,
                "store was materialized for graph {expected:#x}, not {actual:#x}"
            ),
            ServiceError::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::NeedsGraph => ServiceError::NeedsGraph,
            EngineError::Join(j) => ServiceError::Join(j),
            EngineError::GraphMismatch { expected, actual } => {
                ServiceError::GraphMismatch { expected, actual }
            }
            other => ServiceError::Engine(other.to_string()),
        }
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::GraphMismatch { expected, actual } => {
                ServiceError::GraphMismatch { expected, actual }
            }
            other => ServiceError::Engine(other.to_string()),
        }
    }
}

/// One served answer: the result plus everything needed to EXPLAIN it.
#[derive(Clone, Debug)]
pub struct ServedAnswer {
    /// The query result (≡ [`QueryEngine::answer`]), shared by `Arc` with
    /// the result cache and every other consumer of the same answer —
    /// fanning a cached answer out copies a pointer, never the match sets.
    pub result: Arc<MatchResult>,
    /// The executed plan (shared with the plan cache; `Display` renders the
    /// EXPLAIN text).
    pub plan: Arc<QueryPlan>,
    /// Executor instrumentation (for a result-cache hit: the stats of the
    /// execution that originally produced the cached answer).
    pub join_stats: JoinStats,
    /// The query's fingerprint (the cache key component).
    pub query_fingerprint: u64,
    /// Whether the plan came from the plan cache.
    pub plan_cached: bool,
    /// Whether the *answer* came from the cross-batch result cache (no
    /// planning or execution in this call).
    pub result_cached: bool,
    /// Whether the answer was copied from an identical query earlier in
    /// the same batch (no cache probe, planning, or execution at all).
    pub deduplicated: bool,
    /// End-to-end service latency for this query, in microseconds.
    pub latency_micros: u64,
}

impl ServedAnswer {
    /// The per-query cache disposition: which (if any) caching layer
    /// satisfied this query.
    pub fn disposition(&self) -> CacheDisposition {
        if self.deduplicated {
            CacheDisposition::Deduplicated
        } else if self.result_cached {
            CacheDisposition::ResultCache
        } else if self.plan_cached {
            CacheDisposition::PlanCache
        } else {
            CacheDisposition::Planned
        }
    }
}

/// A point-in-time snapshot of the service counters. Only answers are
/// cached, never failures: a repeated strict-mode
/// [`ServiceError::NeedsGraph`] shows up as a plan-cache hit.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Queries served (including deduplicated ones).
    pub queries: u64,
    /// Batches accepted.
    pub batches: u64,
    /// Plan-cache hits.
    pub plan_cache_hits: u64,
    /// Plan-cache misses (each miss plans and populates the cache).
    pub plan_cache_misses: u64,
    /// Plans currently cached.
    pub plan_cache_size: usize,
    /// `hits / (hits + misses)`, 0.0 before any planning.
    pub plan_cache_hit_rate: f64,
    /// Result-cache hits (answers served without planning or executing).
    pub result_cache_hits: u64,
    /// Result-cache misses (the query was planned/executed; successful
    /// answers populate the cache).
    pub result_cache_misses: u64,
    /// Answers currently cached.
    pub result_cache_size: usize,
    /// Estimated resident bytes of the cached answers (the quantity the
    /// [`ServiceConfig::result_cache_bytes`] budget bounds).
    pub result_cache_bytes: usize,
    /// `hits / (hits + misses)`, 0.0 before any probe.
    pub result_cache_hit_rate: f64,
    /// Answers evicted to stay within the byte budget.
    pub result_cache_evictions: u64,
    /// Queries answered by intra-batch deduplication.
    pub dedup_saved: u64,
    /// Queries that actually planned and executed (no cache hit, no
    /// in-batch deduplication).
    pub executed_queries: u64,
    /// Times the engine snapshot was rebuilt because the store changed.
    pub engine_rebuilds: u64,
    /// Queries currently in flight (the queue-depth gauge).
    pub in_flight: u64,
    /// High-water mark of [`Self::in_flight`].
    pub max_in_flight: u64,
    /// Per-shard occupancy of the backing store.
    pub shard_occupancy: Vec<ShardOccupancy>,
    /// Estimated resident bytes of the store's warm incremental
    /// maintainers ([`ViewStore::maintainer_bytes`]).
    pub maintainer_bytes: usize,
    /// Log₂ latency histogram over all served queries.
    pub latency: LatencyHistogram,
}

/// Internal atomic counters (one cache line of independently-updated
/// gauges; contention-tolerant, never locked).
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    batches: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    result_evictions: AtomicU64,
    dedup_saved: AtomicU64,
    /// Queries that planned and executed.
    executed: AtomicU64,
    engine_rebuilds: AtomicU64,
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

/// The engine snapshot the service executes against, tagged with the store
/// version it was built from. Carries the MVCC [`StoreSnapshot`] it was
/// built over so cache probes can price an answer's epoch-set stamp
/// without re-touching the store.
#[derive(Clone, Debug)]
struct EngineSnapshot {
    version: u64,
    view_fingerprint: u64,
    store: Arc<StoreSnapshot>,
    engine: Arc<QueryEngine>,
}

/// A concurrent, batch-oriented query-serving facade over a sharded
/// [`ViewStore`]. Shared by reference across client threads (`&self`
/// everywhere); see the [module docs](self) for the full contract.
#[derive(Debug)]
pub struct ViewService {
    store: Arc<ViewStore>,
    config: ServiceConfig,
    engine: RwLock<Option<EngineSnapshot>>,
    /// Keyed by `(query fingerprint, view-set fingerprint)`; each entry
    /// keeps the query itself so a fingerprint collision is detected by
    /// equality instead of silently serving the wrong plan.
    plan_cache: RwLock<PlanCache>,
    /// Cross-batch answers, keyed by `(query fingerprint, view-set
    /// fingerprint)` and validated per-hit against the entry's epoch-set
    /// stamp — the same collision-witness discipline as the plan cache,
    /// byte-budgeted ([`ServiceConfig::result_cache_bytes`]).
    result_cache: RwLock<ResultCache>,
    counters: Counters,
}

/// One cached plan: the query (the fingerprint-collision witness), the
/// shared plan, and an LRU stamp updated on hits.
#[derive(Debug)]
struct PlanCacheEntry {
    query: Arc<Pattern>,
    plan: Arc<QueryPlan>,
    last_used: AtomicU64,
}

/// `(query fingerprint, view-set fingerprint)` → cached plan, with
/// least-recently-used eviction at capacity (a flood of distinct cold
/// queries evicts only the coldest entries, never the hot ones).
#[derive(Debug, Default)]
struct PlanCache {
    map: HashMap<(u64, u64), PlanCacheEntry>,
    /// Monotonic LRU clock (ticked under the read lock on hits).
    clock: AtomicU64,
}

impl PlanCache {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Marks an entry as just-used.
    fn touch(&self, entry: &PlanCacheEntry) {
        entry.last_used.store(self.tick(), Ordering::Relaxed);
    }

    /// Removes the least-recently-used entry. The scan is O(capacity), but
    /// an eviction only ever happens on a cache *miss*, which has just paid
    /// for a full `QueryEngine::plan` (view-match simulations over every
    /// registered view) — orders of magnitude more than one pass over the
    /// bounded map's `u64` stamps — so exact LRU costs a rounding error per
    /// miss and never makes any entry immortal (sampled/windowed schemes
    /// trade that guarantee away for savings that don't show up here).
    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| *k);
        if let Some(k) = victim {
            self.map.remove(&k);
        }
    }
}

/// Fixed per-entry bookkeeping the budget charges on top of the frozen
/// columns: the map entry, the `Arc` headers, the plan handle, the stats.
const RESULT_ENTRY_OVERHEAD: usize = 128;

/// Bytes charged per predicate atom: the atom itself in the witness, its
/// resolved form in each footprint pair, and the `Vec` headers around them.
const ATOM_BYTES: usize = 64;

/// Resident bytes of one cached answer. Entries store the *frozen* columnar
/// form, so this is [`CompactView::resident_bytes`] — the exact column
/// bytes, no boxed per-set `Vec` headers or allocator scatter to guess at —
/// plus the entry's own bookkeeping ([`RESULT_ENTRY_OVERHEAD`]) and an
/// estimate of its collision witness and footprint: [`ATOM_BYTES`] per
/// atom plus the atom strings, and four node-id pairs per pattern edge
/// (edge list, both adjacency lists, the footprint pair). The configured
/// budget therefore bounds what the cache actually keeps resident, not
/// just the logical pair count.
fn result_entry_bytes(compact: &CompactView, q: &Pattern) -> usize {
    let atoms: usize = q
        .preds()
        .iter()
        .flat_map(Predicate::atoms)
        .map(|a| {
            ATOM_BYTES
                + match a {
                    Atom::Label(l) => l.len(),
                    Atom::Cmp { attr, value, .. } => {
                        attr.len()
                            + match value {
                                Value::Str(v) => v.len(),
                                Value::Int(_) => 0,
                            }
                    }
                }
        })
        .sum();
    compact.resident_bytes()
        + atoms
        + q.edge_count() * 4 * std::mem::size_of::<(u32, u32)>()
        + RESULT_ENTRY_OVERHEAD
}

/// One cached answer. `query` is the collision witness (same discipline
/// as the plan cache: a fingerprint hit counts only when the stored
/// pattern `==` the probe). An answer whose plan reads `G`
/// ([`QueryPlan::needs_graph`]) must not satisfy a strict views-only
/// (`g = None`) call that would otherwise have failed with
/// [`ServiceError::NeedsGraph`]: the cache must never change which queries
/// a serving mode accepts, only how fast it answers them.
#[derive(Debug)]
struct ResultCacheEntry {
    query: Arc<Pattern>,
    /// The answer in frozen columnar form — half the footprint of the boxed
    /// result and exactly accounted by `bytes`; a hit thaws it back.
    compact: Arc<CompactView>,
    plan: Arc<QueryPlan>,
    join_stats: JoinStats,
    /// The query's edge footprint, resolved against the batch's validated
    /// graph — exactly when `plan` reads `G` (`None` for views-only
    /// answers, which follow the view-epoch rule alone).
    footprint: Option<QueryFootprint>,
    /// The epoch-set stamp ([`plan_epoch_key`]) of the snapshot the answer
    /// was computed against, or moved forward by a delta that missed
    /// `footprint` ([`ViewService::apply_delta`]). A probe recomputes the
    /// stamp from `plan` against the *current* snapshot and hits only on
    /// equality: every view (and, for graph-reading plans, every graph edge
    /// the query can read) this answer depends on is then unchanged, so
    /// the answer still holds.
    epoch_key: u64,
    bytes: usize,
    last_used: AtomicU64,
}

/// The cross-batch result cache: `(query fingerprint, view-set
/// fingerprint)` → answer, bounded by an estimated-byte budget with LRU
/// eviction.
///
/// Invalidation is *exact at view granularity*: a hit additionally
/// requires the entry's epoch-set stamp to match the current snapshot
/// ([`ResultCacheEntry::epoch_key`]), so an [`EdgeDelta`] invalidates
/// precisely the answers whose plans read a changed view — answers over
/// untouched views survive the mutation. Graph-reading answers survive
/// too unless the delta lands in their query's edge footprint:
/// [`ViewService::apply_delta`] re-stamps the others. A view-set
/// membership change changes the key itself. Dead entries are purged
/// wholesale when the engine snapshot rebuilds ([`ViewService::engine`]),
/// so an invalidation also releases its budget immediately instead of
/// waiting for LRU pressure.
#[derive(Debug, Default)]
struct ResultCache {
    map: HashMap<(u64, u64), ResultCacheEntry>,
    /// Estimated resident bytes across all entries.
    bytes: usize,
    /// Monotonic LRU clock (ticked under the read lock on hits).
    clock: AtomicU64,
}

impl ResultCache {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Marks an entry as just-used.
    fn touch(&self, entry: &ResultCacheEntry) {
        entry.last_used.store(self.tick(), Ordering::Relaxed);
    }

    /// Drops every entry that can never hit again under the freshly
    /// published snapshot — wrong view-set fingerprint, or an epoch-set
    /// stamp some consumed view (or the graph) has moved past. Called on
    /// engine rebuild. Entries whose stamps *are* still current survive:
    /// that is what keeps answers over untouched views warm across a delta.
    fn purge_stale(&mut self, snap: &StoreSnapshot) {
        let mut freed = 0usize;
        self.map.retain(|&(_, vfp), entry| {
            let keep =
                vfp == snap.fingerprint && plan_epoch_key(&entry.plan, snap) == entry.epoch_key;
            if !keep {
                freed += entry.bytes;
            }
            keep
        });
        self.bytes -= freed;
    }

    /// Evicts least-recently-used entries until the resident estimate fits
    /// `budget`. Same exact-LRU rationale as the plan cache: eviction only
    /// runs on the insert path, which has just paid for a full plan *and*
    /// execution, so an O(entries) stamp scan is a rounding error.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0u64;
        while self.bytes > budget && !self.map.is_empty() {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            if let Some(k) = victim {
                if let Some(e) = self.map.remove(&k) {
                    self.bytes -= e.bytes;
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

impl ViewService {
    /// A service over `store` with the default configuration.
    pub fn new(store: Arc<ViewStore>) -> Self {
        Self::with_config(store, ServiceConfig::default())
    }

    /// A service over `store` with explicit tuning.
    pub fn with_config(store: Arc<ViewStore>, config: ServiceConfig) -> Self {
        ViewService {
            store,
            config,
            engine: RwLock::new(None),
            plan_cache: RwLock::new(PlanCache::default()),
            result_cache: RwLock::new(ResultCache::default()),
            counters: Counters::default(),
        }
    }

    /// The backing store (register/retire views through this; the service
    /// picks membership changes up on the next batch).
    pub fn store(&self) -> &Arc<ViewStore> {
        &self.store
    }

    /// Applies an edge-delta batch to the backing store between serving
    /// batches. Affected views are delta-maintained
    /// ([`ViewStore::apply_delta`]) — never rebuilt from scratch — and the
    /// new world is published atomically: batches already in flight keep
    /// executing against their MVCC snapshot, the next batch picks the
    /// post-delta snapshot up lazily. Cached answers whose plans read only
    /// views the delta never touched remain valid and keep hitting, and so
    /// do graph-reading answers whose query's edge footprint
    /// ([`QueryFootprint`]) the delta misses; the caller should adopt
    /// [`DeltaReport::graph`] as the current graph. A delta applied
    /// straight to [`ViewStore::apply_delta`] skips the refresh, so its
    /// graph-reading answers miss.
    pub fn apply_delta(
        &self,
        delta: &EdgeDelta,
        g: &DataGraph,
    ) -> Result<DeltaReport, ServiceError> {
        let before = self.store.snapshot();
        let report = self
            .store
            .apply_delta(delta, g)
            .map_err(ServiceError::from)?;
        if self.config.result_cache_bytes > 0 {
            self.refresh_untouched(delta, g, &before, report.version);
        }
        Ok(report)
    }

    /// Moves the stamp of every cached graph-reading answer that was valid
    /// at `before` and whose [`QueryFootprint`] `delta` misses to the
    /// post-delta snapshot: by the footprint argument ([`crate::delta`])
    /// and Theorem 1 the answer is unchanged, so the new stamp makes a
    /// true claim. Runs only when `delta` is the one mutation between
    /// `before` and the published snapshot at `version` (membership
    /// unchanged); otherwise the entries keep their old stamps and miss.
    /// A rebuild racing this refresh may purge an entry first, which costs
    /// a hit, never a wrong answer.
    fn refresh_untouched(
        &self,
        delta: &EdgeDelta,
        g: &DataGraph,
        before: &StoreSnapshot,
        version: u64,
    ) {
        let after = self.store.snapshot();
        if version != before.version + 1
            || after.version != version
            || after.fingerprint != before.fingerprint
        {
            return;
        }
        let mut cache = self
            .result_cache
            .write()
            .expect("result cache lock poisoned");
        for (&(_, vfp), entry) in cache.map.iter_mut() {
            // Views-only entries are most of a covered workload's cache:
            // skip them before any stamp work.
            let Some(footprint) = &entry.footprint else {
                continue;
            };
            if vfp == before.fingerprint
                && entry.epoch_key == plan_epoch_key(&entry.plan, before)
                && !footprint.touched_by(delta, g)
            {
                entry.epoch_key = plan_epoch_key(&entry.plan, &after);
            }
        }
    }

    /// Current engine snapshot, rebuilding if the store version moved.
    fn engine(&self) -> EngineSnapshot {
        let version = self.store.version();
        if let Some(snap) = self
            .engine
            .read()
            .expect("engine lock poisoned")
            .as_ref()
            .filter(|s| s.version == version)
        {
            return snap.clone();
        }
        let mut guard = self.engine.write().expect("engine lock poisoned");
        // Another thread may have rebuilt while we waited for the lock.
        let version = self.store.version();
        if let Some(snap) = guard.as_ref().filter(|s| s.version == version) {
            return snap.clone();
        }
        let store_snap = self.store.snapshot();
        let engine =
            QueryEngine::from_snapshot(&store_snap).with_config(self.config.engine.clone());
        let snap = EngineSnapshot {
            version: store_snap.version,
            view_fingerprint: store_snap.fingerprint,
            store: store_snap,
            engine: Arc::new(engine),
        };
        self.counters
            .engine_rebuilds
            .fetch_add(1, Ordering::Relaxed);
        *guard = Some(snap.clone());
        // Results whose keys or epoch-set stamps this rebuild obsoleted can
        // never hit again — release their budget now instead of letting
        // dead entries squat until LRU pressure finds them. Entries whose
        // stamps survived (answers over views the mutation never touched)
        // stay resident and keep hitting.
        if self.config.result_cache_bytes > 0 {
            self.result_cache
                .write()
                .expect("result cache lock poisoned")
                .purge_stale(&snap.store);
        }
        snap
    }

    /// The plan for `q` under view-set fingerprint `vfp`, from the cache
    /// when present. Returns `(plan, was_cached)`. A cache hit requires
    /// both the fingerprint *and* the stored query to match — a
    /// colliding distinct query is planned fresh (and left uncached, so
    /// the resident entry keeps working). At capacity the LRU entry is
    /// evicted (regression: the cache used to clear wholesale, so a
    /// sustained stream of distinct queries dumped the hot entries too).
    fn plan_for(
        &self,
        engine: &QueryEngine,
        vfp: u64,
        qfp: u64,
        q: &Pattern,
    ) -> (Arc<QueryPlan>, bool) {
        if self.config.plan_cache_capacity == 0 {
            self.counters.plan_misses.fetch_add(1, Ordering::Relaxed);
            return (Arc::new(engine.plan(q)), false);
        }
        let key = (qfp, vfp);
        {
            let cache = self.plan_cache.read().expect("plan cache lock poisoned");
            if let Some(entry) = cache.map.get(&key) {
                if *entry.query == *q {
                    cache.touch(entry);
                    self.counters.plan_hits.fetch_add(1, Ordering::Relaxed);
                    return (entry.plan.clone(), true);
                }
                // Fingerprint collision with a different query: plan fresh,
                // don't disturb the resident entry.
                self.counters.plan_misses.fetch_add(1, Ordering::Relaxed);
                return (Arc::new(engine.plan(q)), false);
            }
        }
        let plan = Arc::new(engine.plan(q));
        let mut cache = self.plan_cache.write().expect("plan cache lock poisoned");
        // Racing planners produce identical plans (planning is
        // deterministic), so last-writer-wins is safe; prefer the resident
        // entry to keep `Arc` identity stable for callers comparing plans.
        let entry = match cache.map.get(&key) {
            Some(e) if *e.query == *q => e.plan.clone(),
            Some(_) => plan, // collision: serve fresh, keep resident
            None => {
                if cache.map.len() >= self.config.plan_cache_capacity {
                    cache.evict_lru();
                }
                let stamp = cache.tick();
                cache.map.insert(
                    key,
                    PlanCacheEntry {
                        query: Arc::new(q.clone()),
                        plan: plan.clone(),
                        last_used: AtomicU64::new(stamp),
                    },
                );
                plan
            }
        };
        self.counters.plan_misses.fetch_add(1, Ordering::Relaxed);
        (entry, false)
    }

    fn record_latency(&self, micros: u64) {
        self.counters.latency[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Probes the cross-batch result cache for `qfp`/`q` at this engine
    /// snapshot. A hit requires the key `(fingerprint, view-set
    /// fingerprint)` *and* the stored query to match, *and* the entry's
    /// epoch-set stamp to still be current — every view
    /// (and, for graph-reading plans, the graph) the cached answer's plan
    /// consumed is then unchanged, so the answer holds even though the
    /// store version may have moved. For a views-only (`has_graph =
    /// false`) call the answer must additionally have been provably
    /// computable without the graph: caching must never let a strict call
    /// succeed where the uncached path would have returned
    /// [`ServiceError::NeedsGraph`]. Counts a hit or a miss per probe.
    fn cached_result(
        &self,
        snap: &EngineSnapshot,
        qfp: u64,
        q: &Pattern,
        has_graph: bool,
    ) -> Option<ServedAnswer> {
        if self.config.result_cache_bytes == 0 {
            return None;
        }
        let hit = {
            let cache = self
                .result_cache
                .read()
                .expect("result cache lock poisoned");
            cache
                .map
                .get(&(qfp, snap.view_fingerprint))
                .filter(|e| {
                    *e.query == *q
                        && (has_graph || !e.plan.needs_graph())
                        && plan_epoch_key(&e.plan, &snap.store) == e.epoch_key
                })
                .map(|e| {
                    cache.touch(e);
                    ServedAnswer {
                        result: Arc::new(e.compact.thaw()),
                        plan: e.plan.clone(),
                        join_stats: e.join_stats,
                        query_fingerprint: qfp,
                        plan_cached: false,
                        result_cached: true,
                        deduplicated: false,
                        latency_micros: 0,
                    }
                })
        };
        match &hit {
            Some(_) => self.counters.result_hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.result_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Caches a freshly-executed answer for cross-batch reuse (no-op when
    /// the cache is disabled or the answer alone exceeds the budget). A
    /// resident entry for the same query is replaced only when its
    /// epoch-set stamp went stale; a colliding distinct query is simply
    /// never cached, so the resident entry keeps serving its own query.
    /// `g` is the batch's validated graph; a graph-reading answer keeps
    /// its query's footprint resolved against it.
    fn cache_result(
        &self,
        snap: &EngineSnapshot,
        qfp: u64,
        q: &Pattern,
        a: &ServedAnswer,
        g: Option<&DataGraph>,
    ) {
        let budget = self.config.result_cache_bytes;
        if budget == 0 {
            return;
        }
        let footprint = match (a.plan.needs_graph(), g) {
            (false, _) => None,
            (true, Some(g)) => Some(QueryFootprint::of(q, g)),
            // Unreachable: a graph-reading plan only executes with a
            // validated graph. Not caching is the safe answer anyway.
            (true, None) => return,
        };
        let compact = Arc::new(CompactView::freeze(&a.result));
        let bytes = result_entry_bytes(&compact, q);
        if bytes > budget {
            return;
        }
        let epoch_key = plan_epoch_key(&a.plan, &snap.store);
        let key = (qfp, snap.view_fingerprint);
        let mut cache = self
            .result_cache
            .write()
            .expect("result cache lock poisoned");
        // An in-flight batch can finish executing *after* the store moved
        // on and `engine()` already purged this batch's world: inserting
        // now would park a dead entry in the budget until the next purge.
        // Recheck against the *currently published* snapshot under the
        // same lock `purge_stale` runs under — if membership or the
        // answer's epoch set moved, drop the insert. (A mutation racing in
        // right after this check still gets cleaned by the purge on the
        // next engine rebuild, which every later batch performs.)
        let current = self.store.snapshot();
        if current.fingerprint != snap.view_fingerprint
            || plan_epoch_key(&a.plan, &current) != epoch_key
        {
            return;
        }
        match cache.map.get(&key) {
            // A distinct colliding query or a still-fresh duplicate: keep
            // the resident entry (first writer wins on identical stamps).
            Some(e) if *e.query != *q || e.epoch_key == epoch_key => return,
            // Same query, stale stamp (a delta moved one of its views and
            // the answer was recomputed): replace, releasing the old bytes.
            Some(e) => {
                let stale = e.bytes;
                cache.bytes -= stale;
                cache.map.remove(&key);
            }
            None => {}
        }
        let stamp = cache.tick();
        cache.bytes += bytes;
        cache.map.insert(
            key,
            ResultCacheEntry {
                query: Arc::new(q.clone()),
                compact,
                plan: a.plan.clone(),
                join_stats: a.join_stats,
                footprint,
                epoch_key,
                bytes,
                last_used: AtomicU64::new(stamp),
            },
        );
        let evicted = cache.evict_to(budget);
        if evicted > 0 {
            self.counters
                .result_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Serves one query. `g` enables hybrid/direct fallback for queries the
    /// views do not fully cover; with `None` such queries fail with
    /// [`ServiceError::NeedsGraph`] (the strict Theorem-1 mode).
    pub fn serve(&self, q: &Pattern, g: Option<&DataGraph>) -> Result<ServedAnswer, ServiceError> {
        self.serve_batch(std::slice::from_ref(q), g)
            .pop()
            .expect("one query in, one answer out")
    }

    /// Serves a batch of queries, deduplicating identical ones. Answers are
    /// returned in input order; each equals what a sequential
    /// [`QueryEngine::answer`] (or
    /// [`QueryEngine::answer_from_views`] when `g` is `None`) would return.
    ///
    /// When `g` is supplied it must be the graph the store was
    /// materialized against — extensions from one graph say nothing about
    /// another. This is *checked* once per batch (one `O(1)` fingerprint
    /// comparison): queries whose plans read `G` fail with
    /// [`ServiceError::GraphMismatch`] instead of computing garbage.
    /// Views-only plans never touch `g`, so they answer correctly (for the
    /// store's graph) regardless of what was passed.
    ///
    /// Callable concurrently from any number of threads.
    pub fn serve_batch(
        &self,
        queries: &[Pattern],
        g: Option<&DataGraph>,
    ) -> Vec<Result<ServedAnswer, ServiceError>> {
        let fingerprints: Vec<u64> = queries.iter().map(query_fingerprint).collect();
        self.serve_fingerprinted(queries, &fingerprints, g)
    }

    /// [`Self::serve_batch`] with the query fingerprints supplied:
    /// `fingerprints[i]` keys `queries[i]` in the dedup map and both
    /// caches. Correct for *any* fingerprints — every keyed hit is
    /// confirmed by comparing patterns — which is what lets the tests forge
    /// collisions.
    fn serve_fingerprinted(
        &self,
        queries: &[Pattern],
        fingerprints: &[u64],
        g: Option<&DataGraph>,
    ) -> Vec<Result<ServedAnswer, ServiceError>> {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let depth = self
            .counters
            .in_flight
            .fetch_add(queries.len() as u64, Ordering::Relaxed)
            + queries.len() as u64;
        self.counters
            .max_in_flight
            .fetch_max(depth, Ordering::Relaxed);

        let snap = self.engine();
        // The supplied graph's validation, checked by every graph-reading
        // plan in this batch (views-only plans ignore it).
        let graph_check = g.map(|g| {
            let actual = crate::storage::graph_fingerprint(g);
            let expected = self.store.graph_fingerprint();
            if actual == expected {
                Ok(g)
            } else {
                Err(ServiceError::GraphMismatch { expected, actual })
            }
        });
        let validated = graph_check.as_ref().and_then(|c| c.as_ref().ok().copied());
        // Fingerprint → (query, answer). The query is compared on every hit
        // so a colliding distinct query is computed on its own instead of
        // inheriting the wrong answer.
        let mut answered: HashMap<u64, (&Pattern, Result<ServedAnswer, ServiceError>)> =
            HashMap::with_capacity(queries.len());
        let mut out = Vec::with_capacity(queries.len());
        for (q, &qfp) in queries.iter().zip(fingerprints) {
            let t0 = Instant::now();
            let dedup_hit = answered
                .get(&qfp)
                .filter(|(prev_q, _)| *prev_q == q)
                .map(|(_, prev)| prev.clone());
            let answer = match dedup_hit {
                Some(prev) => {
                    // Identical query earlier in this batch: fan its answer
                    // out without re-planning or re-executing.
                    self.counters.dedup_saved.fetch_add(1, Ordering::Relaxed);
                    let micros = t0.elapsed().as_micros() as u64;
                    self.record_latency(micros);
                    prev.map(|mut a| {
                        a.deduplicated = true;
                        a.latency_micros = micros;
                        a
                    })
                }
                // Cross-batch result cache: an identical query whose
                // epoch-set stamp is unchanged at this snapshot returns the
                // shared answer without planning or executing anything.
                None => match self.cached_result(&snap, qfp, q, g.is_some()) {
                    Some(hit) => {
                        // Mirror the uncached path's graph validation: a
                        // graph-reading plan supplied with the *wrong*
                        // graph fails with GraphMismatch there, and a warm
                        // cache must not mask that — caching changes
                        // latency, never which calls are accepted.
                        let validated = match (hit.plan.needs_graph(), &graph_check) {
                            (true, Some(Err(e))) => Err(e.clone()),
                            _ => Ok(hit),
                        };
                        let micros = t0.elapsed().as_micros() as u64;
                        self.record_latency(micros);
                        let answer = validated.map(|mut a| {
                            a.latency_micros = micros;
                            a
                        });
                        answered.entry(qfp).or_insert_with(|| (q, answer.clone()));
                        answer
                    }
                    None => {
                        let (plan, plan_cached) =
                            self.plan_for(&snap.engine, snap.view_fingerprint, qfp, q);
                        // Views-only plans execute with no graph at all;
                        // plans that do read G first validate it belongs to
                        // this store (once per batch).
                        let exec = match (plan.needs_graph(), &graph_check) {
                            (false, _) => snap
                                .engine
                                .execute(q, &plan, None)
                                .map_err(ServiceError::from),
                            (true, None) => Err(ServiceError::NeedsGraph),
                            (true, Some(Err(e))) => Err(e.clone()),
                            (true, Some(Ok(g))) => snap
                                .engine
                                .execute(q, &plan, Some(g))
                                .map_err(ServiceError::from),
                        };
                        if exec.is_ok() {
                            self.counters.executed.fetch_add(1, Ordering::Relaxed);
                        }
                        let executed = exec.map(|(result, join_stats)| ServedAnswer {
                            result: Arc::new(result),
                            plan: plan.clone(),
                            join_stats,
                            query_fingerprint: qfp,
                            plan_cached,
                            result_cached: false,
                            deduplicated: false,
                            latency_micros: 0,
                        });
                        // Successful answers enter the result cache;
                        // failures are never remembered. A repeated strict
                        // call that fails with NeedsGraph costs one
                        // plan-cache probe: whether strict mode can answer
                        // is a property of the cached plan.
                        if let Ok(a) = &executed {
                            self.cache_result(&snap, qfp, q, a, validated);
                        }
                        let micros = t0.elapsed().as_micros() as u64;
                        self.record_latency(micros);
                        let executed = executed.map(|mut a| {
                            a.latency_micros = micros;
                            a
                        });
                        // First occurrence wins the dedup slot; a colliding
                        // later query simply never dedups.
                        answered.entry(qfp).or_insert_with(|| (q, executed.clone()));
                        executed
                    }
                },
            };
            self.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
            out.push(answer);
        }
        out
    }

    /// EXPLAIN for `q` against the current view set — the same plan text a
    /// served answer's `plan` renders, plus the cache-key fingerprints and
    /// the per-query cache disposition: whether the plan cache and the
    /// cross-batch result cache would serve this query right now.
    pub fn explain(&self, q: &Pattern) -> String {
        let snap = self.engine();
        let qfp = query_fingerprint(q);
        // Observability must not perturb what it observes: probe both
        // caches read-only (no hit/miss counters, no insertion, no LRU
        // touch) and plan fresh on a miss.
        let cached_plan = self
            .plan_cache
            .read()
            .expect("plan cache lock poisoned")
            .map
            .get(&(qfp, snap.view_fingerprint))
            .filter(|entry| *entry.query == *q)
            .map(|entry| entry.plan.clone());
        let plan_cached = cached_plan.is_some();
        let result_cached = self
            .result_cache
            .read()
            .expect("result cache lock poisoned")
            .map
            .get(&(qfp, snap.view_fingerprint))
            .is_some_and(|entry| {
                *entry.query == *q && plan_epoch_key(&entry.plan, &snap.store) == entry.epoch_key
            });
        let plan = cached_plan.unwrap_or_else(|| Arc::new(snap.engine.plan(q)));
        format!(
            "{plan}\n  cache  : query {qfp:#018x} / views {:#018x} (plan {}, result {})",
            snap.view_fingerprint,
            if plan_cached { "hit" } else { "miss" },
            if result_cached { "hit" } else { "miss" }
        )
    }

    /// A point-in-time snapshot of all service counters.
    pub fn stats(&self) -> ServiceStats {
        let hits = self.counters.plan_hits.load(Ordering::Relaxed);
        let misses = self.counters.plan_misses.load(Ordering::Relaxed);
        let rhits = self.counters.result_hits.load(Ordering::Relaxed);
        let rmisses = self.counters.result_misses.load(Ordering::Relaxed);
        let (rsize, rbytes) = {
            let cache = self
                .result_cache
                .read()
                .expect("result cache lock poisoned");
            (cache.map.len(), cache.bytes)
        };
        let mut latency = LatencyHistogram::default();
        for (i, b) in self.counters.latency.iter().enumerate() {
            latency.buckets[i] = b.load(Ordering::Relaxed);
        }
        ServiceStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            plan_cache_hits: hits,
            plan_cache_misses: misses,
            plan_cache_size: self
                .plan_cache
                .read()
                .expect("plan cache lock poisoned")
                .map
                .len(),
            plan_cache_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            result_cache_hits: rhits,
            result_cache_misses: rmisses,
            result_cache_size: rsize,
            result_cache_bytes: rbytes,
            result_cache_hit_rate: if rhits + rmisses > 0 {
                rhits as f64 / (rhits + rmisses) as f64
            } else {
                0.0
            },
            result_cache_evictions: self.counters.result_evictions.load(Ordering::Relaxed),
            dedup_saved: self.counters.dedup_saved.load(Ordering::Relaxed),
            executed_queries: self.counters.executed.load(Ordering::Relaxed),
            engine_rebuilds: self.counters.engine_rebuilds.load(Ordering::Relaxed),
            in_flight: self.counters.in_flight.load(Ordering::Relaxed),
            max_in_flight: self.counters.max_in_flight.load(Ordering::Relaxed),
            shard_occupancy: self.store.occupancy(),
            maintainer_bytes: self.store.maintainer_bytes(),
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{ViewDef, ViewSet};
    use gpv_graph::GraphBuilder;
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::PatternBuilder;

    fn single(x: &str, y: &str) -> Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        b.build().unwrap()
    }

    fn chain3() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        b.build().unwrap()
    }

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.build()
    }

    fn service() -> (ViewService, DataGraph) {
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let store = Arc::new(ViewStore::materialize(views, &g, 4));
        (ViewService::new(store), g)
    }

    #[test]
    fn fingerprint_stable_for_equal_patterns() {
        assert_eq!(query_fingerprint(&chain3()), query_fingerprint(&chain3()));
        assert_ne!(
            query_fingerprint(&chain3()),
            query_fingerprint(&single("A", "B"))
        );
    }

    #[test]
    fn serve_matches_engine_and_caches_plans() {
        // Result caching off: the repeated serve must fall through to (and
        // therefore exercise) the plan cache. The result-cache layer above
        // it is covered by `repeated_serve_hits_result_cache`.
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let store = Arc::new(ViewStore::materialize(views, &g, 4));
        let svc = ViewService::with_config(
            store,
            ServiceConfig {
                result_cache_bytes: 0,
                ..ServiceConfig::default()
            },
        );
        let q = chain3();
        let direct = match_pattern(&q, &g);

        let first = svc.serve(&q, None).unwrap();
        assert_eq!(*first.result, direct);
        assert!(!first.plan_cached, "cold cache");

        let second = svc.serve(&q, None).unwrap();
        assert_eq!(*second.result, direct);
        assert!(second.plan_cached, "warm cache");
        assert!(
            Arc::ptr_eq(&first.plan, &second.plan),
            "identical fingerprints share one cached plan"
        );

        let stats = svc.stats();
        assert_eq!(stats.plan_cache_hits, 1);
        assert_eq!(stats.plan_cache_misses, 1);
        assert_eq!(stats.plan_cache_size, 1);
        assert!(stats.plan_cache_hit_rate > 0.0);
        assert_eq!(stats.result_cache_hits, 0, "result cache disabled");
        assert_eq!(stats.result_cache_size, 0);
        assert_eq!(stats.latency.count(), 2);
    }

    /// The cross-batch contract at unit scale: a repeated identical query
    /// is answered from the result cache — no planning, no execution —
    /// bit-identical to the uncached answer. Entries are held *frozen*
    /// (`Arc<CompactView>`, the byte-accounted columnar form) and thawed
    /// on hit, so the hit returns an equal answer, not the same `Arc`.
    #[test]
    fn repeated_serve_hits_result_cache() {
        let (svc, g) = service();
        let q = chain3();
        let first = svc.serve(&q, None).unwrap();
        assert!(!first.result_cached, "cold cache executes");
        assert_eq!(first.disposition(), CacheDisposition::Planned);

        let second = svc.serve(&q, None).unwrap();
        assert!(second.result_cached, "warm cache skips the executor");
        assert_eq!(second.disposition(), CacheDisposition::ResultCache);
        assert_eq!(
            *first.result, *second.result,
            "thawed hit is bit-identical to the executed answer"
        );
        assert_eq!(*second.result, match_pattern(&q, &g));

        let stats = svc.stats();
        assert_eq!(stats.result_cache_hits, 1);
        assert_eq!(stats.result_cache_misses, 1);
        assert_eq!(stats.result_cache_size, 1);
        assert!(stats.result_cache_bytes > 0);
        assert_eq!(
            stats.result_cache_hit_rate, 0.5,
            "hit rate consistent with the raw counts"
        );
    }

    /// A view-set *membership* change must invalidate cached answers: the
    /// positional view indices a plan's epoch stamp is built over only
    /// mean anything within one membership, so registering a view changes
    /// the key (view-set fingerprint) and the same query re-executes —
    /// never serves the pre-mutation answer object. The dead entry's
    /// budget is released on rebuild. (Edge *deltas* are the surgical
    /// case: see `delta_to_one_view_keeps_answers_reading_other_views`.)
    #[test]
    fn result_cache_invalidated_by_store_mutation() {
        let (svc, g) = service();
        let q = chain3();
        let first = svc.serve(&q, Some(&g)).unwrap();
        assert!(svc.serve(&q, Some(&g)).unwrap().result_cached);

        svc.store()
            .insert(ViewDef::new("vac", single("A", "C")), &g)
            .unwrap();
        let after = svc.serve(&q, Some(&g)).unwrap();
        assert!(!after.result_cached, "version bump must miss");
        assert!(
            !Arc::ptr_eq(&first.result, &after.result),
            "post-mutation answer is a fresh execution"
        );
        assert_eq!(*after.result, match_pattern(&q, &g));
        // Exact invalidation: the stale entry was purged on rebuild, so
        // only the new version's entry is resident.
        assert_eq!(svc.stats().result_cache_size, 1);
    }

    /// A strict (`g = None`) call must never be satisfied by an answer
    /// whose plan needed the graph: caching changes latency, not which
    /// queries a serving mode accepts.
    #[test]
    fn result_cache_never_leaks_graph_answers_into_strict_mode() {
        let g = graph();
        // Only one view: chain3 plans hybrid (needs G, not graph-optional).
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let store = Arc::new(ViewStore::materialize(views, &g, 2));
        let svc = ViewService::new(store);
        let q = chain3();
        let with_graph = svc.serve(&q, Some(&g)).unwrap();
        assert_eq!(*with_graph.result, match_pattern(&q, &g));
        // The answer is cached — but a strict call must still refuse.
        assert!(matches!(svc.serve(&q, None), Err(ServiceError::NeedsGraph)));
        // And with the graph again, it may serve from cache.
        assert!(svc.serve(&q, Some(&g)).unwrap().result_cached);
    }

    /// The byte budget holds: a stream of distinct answers evicts LRU
    /// entries instead of growing without bound.
    #[test]
    fn result_cache_respects_byte_budget() {
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let store = Arc::new(ViewStore::materialize(views, &g, 2));
        // A budget of ~2 small answers (frozen-column accounting).
        let small = CompactView::freeze(&match_pattern(&single("A", "B"), &g));
        let budget = 2 * result_entry_bytes(&small, &single("A", "B")) + 32;
        let svc = ViewService::with_config(
            store,
            ServiceConfig {
                result_cache_bytes: budget,
                ..ServiceConfig::default()
            },
        );
        for q in [
            single("A", "B"),
            single("B", "C"),
            chain3(),
            single("A", "B"),
        ] {
            let _ = svc.serve(&q, Some(&g));
        }
        let stats = svc.stats();
        assert!(
            stats.result_cache_bytes <= budget,
            "resident {} over budget {budget}",
            stats.result_cache_bytes
        );
        assert!(stats.result_cache_evictions > 0, "{stats:?}");
    }

    #[test]
    fn batch_dedup_fans_out_one_execution() {
        let (svc, g) = service();
        let q = chain3();
        let batch = vec![q.clone(), single("A", "B"), q.clone(), q.clone()];
        let answers = svc.serve_batch(&batch, None);
        assert_eq!(answers.len(), 4);
        for (i, a) in answers.iter().enumerate() {
            let a = a.as_ref().unwrap();
            assert_eq!(
                *a.result,
                match_pattern(&batch[i], &g),
                "answer {i} equals ground truth"
            );
        }
        assert!(!answers[0].as_ref().unwrap().deduplicated);
        assert!(answers[2].as_ref().unwrap().deduplicated);
        assert!(answers[3].as_ref().unwrap().deduplicated);
        assert_eq!(svc.stats().dedup_saved, 2);
    }

    #[test]
    fn needs_graph_without_fallback() {
        let g = graph();
        // Only one view: chain3 is not fully covered.
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let store = Arc::new(ViewStore::materialize(views, &g, 2));
        let svc = ViewService::new(store);
        let q = chain3();
        assert!(matches!(svc.serve(&q, None), Err(ServiceError::NeedsGraph)));
        // With the graph supplied the hybrid path answers correctly.
        let a = svc.serve(&q, Some(&g)).unwrap();
        assert_eq!(*a.result, match_pattern(&q, &g));
    }

    #[test]
    fn store_mutation_invalidates_plans_and_rebuilds_engine() {
        let (svc, g) = service();
        let q = chain3();
        svc.serve(&q, None).unwrap();
        assert_eq!(svc.stats().engine_rebuilds, 1);

        // Registering a view bumps the store version: new engine, new
        // view-set fingerprint, so the old cached plan is not reused.
        svc.store()
            .insert(ViewDef::new("vac", single("A", "C")), &g)
            .unwrap();
        let after = svc.serve(&q, None).unwrap();
        assert!(!after.plan_cached, "view-set fingerprint changed");
        assert_eq!(*after.result, match_pattern(&q, &g));
        assert_eq!(svc.stats().engine_rebuilds, 2);
    }

    #[test]
    fn explain_mentions_cache_key() {
        let (svc, _) = service();
        let text = svc.explain(&chain3());
        assert!(text.contains("cache"), "{text}");
        assert!(text.contains("views"), "{text}");
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.quantile_upper_micros(0.99), None);
        assert_eq!(h.quantile_label(0.99), "n/a");
        h.buckets[3] = 90; // < 8 µs
        h.buckets[10] = 10; // < 1024 µs
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), Some(QuantileBound::Under(8)));
        assert_eq!(h.quantile_upper_micros(0.5), Some(8));
        assert_eq!(h.quantile_upper_micros(0.99), Some(1024));
        assert_eq!(h.quantile_label(0.99), "< 1024 µs");
    }

    /// Regression: a quantile landing in the unbounded overflow bucket used
    /// to be indistinguishable from "no data" — and one bucket earlier it
    /// silently reported a finite bound it did not have. The marker must be
    /// the explicit `Overflow` variant, `quantile_upper_micros` must refuse
    /// a finite answer, and the label must say ≥, not <.
    #[test]
    fn quantile_overflow_is_an_explicit_marker_not_a_finite_bound() {
        let floor = 1u64 << (LATENCY_BUCKETS - 2);
        let mut slow = LatencyHistogram::default();
        slow.buckets[LATENCY_BUCKETS - 1] = 10;
        assert_eq!(slow.quantile(0.99), Some(QuantileBound::Overflow(floor)));
        assert_eq!(slow.quantile_upper_micros(0.99), None, "no finite bound");
        assert_eq!(slow.quantile_label(0.99), format!(">= {floor} µs"));
        // Mixed histogram: p50 is bounded, p99 overflows — the two answers
        // must differ in kind, not just in value.
        let mut mixed = LatencyHistogram::default();
        mixed.buckets[2] = 90;
        mixed.buckets[LATENCY_BUCKETS - 1] = 10;
        assert_eq!(mixed.quantile(0.5), Some(QuantileBound::Under(4)));
        assert_eq!(mixed.quantile(0.99), Some(QuantileBound::Overflow(floor)));
        assert_eq!(mixed.quantile_upper_micros(0.99), None);
    }

    /// Regression: `p = 0.0` used to clamp to `target = 0`, making
    /// `seen >= target` vacuously true at bucket 0 — the histogram claimed
    /// a `< 1 µs` "quantile" even when bucket 0 held zero observations.
    /// Non-positive (and NaN) `p` must be rejected, never answered.
    #[test]
    fn quantile_rejects_non_positive_p() {
        let mut h = LatencyHistogram::default();
        h.buckets[10] = 100; // nothing anywhere near bucket 0
        assert_eq!(h.quantile_upper_micros(0.0), None);
        assert_eq!(h.quantile_upper_micros(-0.5), None);
        assert_eq!(h.quantile_upper_micros(f64::NAN), None);
        assert_eq!(h.quantile_label(0.0), "n/a");
        assert_eq!(h.quantile_label(-1.0), "n/a");
        // Sanity: positive quantiles still answered, p > 1 clamps to 1.
        assert_eq!(h.quantile_upper_micros(0.5), Some(1024));
        assert_eq!(h.quantile_upper_micros(2.0), Some(1024));
    }

    #[test]
    fn mismatched_graph_rejected_when_plan_reads_it() {
        let (svc, g) = service();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["A"]);
        let y = b.add_node(["B"]);
        b.add_edge(x, y);
        let other = b.build();
        // Uncovered query: the plan must read G, so the wrong graph is
        // detected instead of computing garbage.
        let uncovered = single("A", "C");
        assert!(matches!(
            svc.serve(&uncovered, Some(&other)),
            Err(ServiceError::GraphMismatch { .. })
        ));
        // Covered query: views-only plans never touch the supplied graph,
        // so the answer is correct (for the store's graph) regardless.
        let covered = svc.serve(&chain3(), Some(&other)).unwrap();
        assert_eq!(*covered.result, match_pattern(&chain3(), &g));
    }

    /// Regression: a *warm* result cache must not mask the graph check.
    /// The uncovered query's answer is cached after a correct-graph serve;
    /// re-serving it with the wrong graph must still fail with
    /// GraphMismatch, exactly like the cold path — the cache probe used to
    /// run before (and bypass) the fingerprint validation.
    #[test]
    fn warm_result_cache_still_rejects_mismatched_graph() {
        let (svc, g) = service();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["A"]);
        let y = b.add_node(["B"]);
        b.add_edge(x, y);
        let other = b.build();
        let uncovered = single("A", "C");
        // Warm the cache with the right graph…
        let warm = svc.serve(&uncovered, Some(&g)).unwrap();
        assert_eq!(*warm.result, match_pattern(&uncovered, &g));
        // …then the wrong graph must still be rejected, not served.
        assert!(matches!(
            svc.serve(&uncovered, Some(&other)),
            Err(ServiceError::GraphMismatch { .. })
        ));
        // And the right graph keeps hitting.
        assert!(svc.serve(&uncovered, Some(&g)).unwrap().result_cached);
    }

    /// A fully cached steady state executes nothing and never rebuilds the
    /// engine: cache hits and dedup fan-outs leave the executed-query count
    /// untouched.
    #[test]
    fn hot_result_cache_never_rebuilds_the_engine() {
        let (svc, _) = service();
        let q = chain3();
        // Warm up: the first serve executes.
        assert!(!svc.serve(&q, None).unwrap().result_cached);
        let warm = svc.stats();
        assert_eq!(warm.executed_queries, 1);

        // Steady state: every serve hits the result cache (plus in-batch
        // dedup) and executes nothing.
        for _ in 0..10 {
            let batch = vec![q.clone(), q.clone()];
            for a in svc.serve_batch(&batch, None) {
                let a = a.unwrap();
                assert!(a.result_cached || a.deduplicated, "steady state is hot");
            }
        }
        let hot = svc.stats();
        assert_eq!(hot.executed_queries, 1, "nothing executed while hot");
        assert_eq!(
            hot.engine_rebuilds, warm.engine_rebuilds,
            "a hot cache must never rebuild the engine"
        );

        // A fresh query (cache miss) executes again.
        let q2 = single("A", "B");
        svc.serve(&q2, None).unwrap();
        assert_eq!(svc.stats().executed_queries, 2);
    }

    /// The tentpole contract at the serving layer: an [`EdgeDelta`] that
    /// the footprint detector routes to view *vcd* must leave cached
    /// answers that read only *vab* warm — the engine rebuilds (the store
    /// version moved), the extension `Arc` and epoch of the untouched view
    /// are preserved, and the epoch-keyed result cache keeps hitting.
    /// Answers that read the changed view (or the graph) miss and
    /// recompute against the post-delta world.
    #[test]
    fn delta_to_one_view_keeps_answers_reading_other_views() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let bb = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        let d = b.add_node(["D"]);
        b.add_edge(a, bb);
        b.add_edge(c, d);
        let g = b.build();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vcd", single("C", "D")),
        ]);
        let store = Arc::new(ViewStore::materialize(views, &g, 2));
        let svc = ViewService::new(store);
        let qab = single("A", "B");
        let qcd = single("C", "D");
        svc.serve(&qab, None).unwrap();
        svc.serve(&qcd, None).unwrap();
        assert!(svc.serve(&qab, None).unwrap().result_cached);
        assert!(svc.serve(&qcd, None).unwrap().result_cached);
        let before = svc.store().snapshot();
        let rebuilds = svc.stats().engine_rebuilds;
        assert_eq!(svc.stats().maintainer_bytes, 0, "nothing promoted yet");

        // Delete C→D: both endpoints hold labels only vcd's footprint has.
        let delta = EdgeDelta::new(vec![], vec![(c, d)]);
        let report = svc.apply_delta(&delta, &g).unwrap();
        assert_eq!(report.affected, vec![1], "only vcd routed to maintenance");
        let warm = svc.stats().maintainer_bytes;
        assert!(warm > 0, "vcd's maintainer is warm");
        assert_eq!(warm, svc.store().maintainer_bytes());
        let g2 = report.graph;

        // vab's answer survives the delta: the engine did rebuild, but the
        // untouched view kept its extension Arc and epoch, so the
        // epoch-keyed entry still hits.
        let kept = svc.serve(&qab, None).unwrap();
        assert!(
            kept.result_cached,
            "a delta to vcd must not evict vab-only answers"
        );
        assert!(svc.stats().engine_rebuilds > rebuilds, "version did move");
        let after = svc.store().snapshot();
        assert!(
            Arc::ptr_eq(&before.views()[0].ext, &after.views()[0].ext),
            "untouched extension is the same object"
        );
        assert_eq!(before.epochs()[0], after.epochs()[0]);
        assert!(after.epochs()[1] > before.epochs()[1]);

        // vcd's answer misses and recomputes against the post-delta graph.
        let fresh = svc.serve(&qcd, None).unwrap();
        assert!(!fresh.result_cached, "the changed view's answers miss");
        assert!(fresh.plan_cached, "membership unchanged: the plan survives");
        assert_eq!(*fresh.result, match_pattern(&qcd, &g2));
        // …and the recomputed answer re-enters the cache at the new stamp.
        assert!(svc.serve(&qcd, None).unwrap().result_cached);
    }

    /// A strict call the views cannot answer fails with `NeedsGraph`
    /// every time; the repeat is decided by the cached plan (one
    /// plan-cache hit, no replanning) — and a membership change that makes
    /// the query answerable re-plans it.
    #[test]
    fn repeated_needs_graph_is_served_from_the_plan_cache() {
        let g = graph();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let store = Arc::new(ViewStore::materialize(views, &g, 2));
        let svc = ViewService::new(store);
        let q = chain3();
        assert!(matches!(svc.serve(&q, None), Err(ServiceError::NeedsGraph)));
        let cold = svc.stats();
        assert_eq!(cold.plan_cache_misses, 1, "the first call plans");
        assert_eq!(cold.plan_cache_hits, 0);

        assert!(matches!(svc.serve(&q, None), Err(ServiceError::NeedsGraph)));
        let warm = svc.stats();
        assert_eq!(warm.plan_cache_misses, 1, "the repeat never plans");
        assert_eq!(warm.plan_cache_hits, 1, "…it reads the cached plan");
        assert_eq!(warm.executed_queries, 0);

        // Strict mode only: with the graph supplied the hybrid path
        // executes and answers.
        let a = svc.serve(&q, Some(&g)).unwrap();
        assert_eq!(*a.result, match_pattern(&q, &g));

        // A membership change moves the plan-cache key: with vbc
        // registered the query is covered and strict mode now answers.
        svc.store()
            .insert(ViewDef::new("vbc", single("B", "C")), &g)
            .unwrap();
        let now = svc.serve(&q, None).unwrap();
        assert!(!now.plan_cached);
        assert_eq!(*now.result, match_pattern(&q, &g));
    }

    /// Nodes a(A) b(B) c(C) d(D) e(E) c2(C); edges a→b, b→c, d→e. With
    /// only `vab` registered, `chain3` plans hybrid (B→C scans `G`), and
    /// D/E edges lie outside its footprint while b→c2 lies inside.
    fn footprint_service() -> (ViewService, DataGraph) {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let bb = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        let d = b.add_node(["D"]);
        let e = b.add_node(["E"]);
        b.add_node(["C"]);
        b.add_edge(a, bb);
        b.add_edge(bb, c);
        b.add_edge(d, e);
        let g = b.build();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let store = Arc::new(ViewStore::materialize(views, &g, 2));
        (ViewService::new(store), g)
    }

    /// E→D: misses chain3's footprint {A→B, B→C}.
    fn miss() -> EdgeDelta {
        EdgeDelta::new(vec![(gpv_graph::NodeId(4), gpv_graph::NodeId(3))], vec![])
    }

    /// b→c2: lands in chain3's B→C footprint and adds a match.
    fn hit() -> EdgeDelta {
        EdgeDelta::new(vec![(gpv_graph::NodeId(1), gpv_graph::NodeId(5))], vec![])
    }

    /// A delta that misses a graph-reading answer's footprint re-stamps
    /// it: the next call hits and equals the oracle on the new graph. The
    /// refresh changes latency only — strict mode and the pre-delta graph
    /// are refused exactly as on the uncached path.
    #[test]
    fn delta_missing_the_footprint_keeps_a_graph_reading_answer() {
        let (svc, g) = footprint_service();
        let q = chain3();
        let first = svc.serve(&q, Some(&g)).unwrap();
        assert!(
            matches!(&*first.plan, QueryPlan::Hybrid { .. }),
            "{}",
            first.plan
        );
        let g2 = svc.apply_delta(&miss(), &g).unwrap().graph;
        let rebuilds = svc.stats().engine_rebuilds;
        let kept = svc.serve(&q, Some(&g2)).unwrap();
        assert!(
            kept.result_cached,
            "a delta outside the footprint keeps the answer"
        );
        assert!(
            svc.stats().engine_rebuilds > rebuilds,
            "the version did move"
        );
        assert_eq!(*kept.result, match_pattern(&q, &g2));
        assert!(matches!(svc.serve(&q, None), Err(ServiceError::NeedsGraph)));
        assert!(matches!(
            svc.serve(&q, Some(&g)),
            Err(ServiceError::GraphMismatch { .. })
        ));
    }

    /// A delta inside the footprint leaves the stamp behind: the answer is
    /// recomputed on the new graph.
    #[test]
    fn delta_hitting_the_footprint_recomputes_the_answer() {
        let (svc, g) = footprint_service();
        let q = chain3();
        let old = svc.serve(&q, Some(&g)).unwrap();
        let g2 = svc.apply_delta(&hit(), &g).unwrap().graph;
        let fresh = svc.serve(&q, Some(&g2)).unwrap();
        assert!(!fresh.result_cached);
        assert_eq!(*fresh.result, match_pattern(&q, &g2));
        assert_ne!(*fresh.result, *old.result, "the delta changed the answer");
    }

    /// Only `ViewService::apply_delta` refreshes: a delta sent straight to
    /// the store leaves graph-reading answers behind, and so does a miss
    /// that follows an unserved hit (the entry was no longer valid).
    #[test]
    fn refresh_needs_the_service_path_and_a_valid_entry() {
        let q = chain3();
        let (svc, g) = footprint_service();
        svc.serve(&q, Some(&g)).unwrap();
        let g2 = svc.store().apply_delta(&miss(), &g).unwrap().graph;
        let a = svc.serve(&q, Some(&g2)).unwrap();
        assert!(!a.result_cached, "the store path skips the refresh");
        assert_eq!(*a.result, match_pattern(&q, &g2));

        let (svc, g) = footprint_service();
        svc.serve(&q, Some(&g)).unwrap();
        let g2 = svc.apply_delta(&hit(), &g).unwrap().graph;
        let g3 = svc.apply_delta(&miss(), &g2).unwrap().graph;
        let a = svc.serve(&q, Some(&g3)).unwrap();
        assert!(!a.result_cached, "a miss cannot revive a stale entry");
        assert_eq!(*a.result, match_pattern(&q, &g3));
    }

    /// The stamp read from a plan's precomputed view positions equals the
    /// stamp the positions computed on every call used to give, on
    /// views-only, hybrid and direct plans, before and after a delta.
    #[test]
    fn epoch_stamp_matches_the_recomputed_view_positions() {
        fn recomputed(plan: &QueryPlan, snap: &StoreSnapshot) -> u64 {
            let view_sources = |sources: &[EdgeSource]| -> Vec<usize> {
                sources
                    .iter()
                    .filter_map(|s| match s {
                        EdgeSource::View(r) => Some(r.view),
                        EdgeSource::Graph => None,
                    })
                    .collect()
            };
            let mut ids: Vec<usize> = match plan {
                QueryPlan::ViewsOnly(vp) => {
                    let mut ids = vp.views.clone();
                    ids.extend(view_sources(&vp.sources));
                    ids
                }
                QueryPlan::Hybrid { sources, .. } => view_sources(sources),
                QueryPlan::Direct { .. } => Vec::new(),
            };
            ids.sort_unstable();
            ids.dedup();
            let mut key = ids
                .iter()
                .map(|&i| snap.epochs().get(i).copied().unwrap_or(u64::MAX))
                .max()
                .unwrap_or(0);
            if plan.needs_graph() {
                key = key.max(snap.graph_epoch);
            }
            key
        }
        use crate::plan::EdgeSource;
        let (svc, g) = footprint_service();
        let plans: Vec<Arc<QueryPlan>> = [single("A", "B"), chain3(), single("D", "E")]
            .iter()
            .map(|q| svc.serve(q, Some(&g)).unwrap().plan)
            .collect();
        assert!(matches!(&*plans[0], QueryPlan::ViewsOnly(_)));
        assert!(matches!(&*plans[1], QueryPlan::Hybrid { .. }));
        assert!(matches!(&*plans[2], QueryPlan::Direct { .. }));
        let before = svc.store().snapshot();
        let delta = EdgeDelta::new(vec![], vec![(gpv_graph::NodeId(0), gpv_graph::NodeId(1))]);
        svc.apply_delta(&delta, &g).unwrap();
        let after = svc.store().snapshot();
        assert!(after.epochs()[0] > before.epochs()[0], "vab changed");
        for snap in [&before, &after] {
            for plan in &plans {
                assert_eq!(plan_epoch_key(plan, snap), recomputed(plan, snap), "{plan}");
            }
        }
    }

    /// Forged fingerprint collisions in all three maps: a distinct query
    /// served under another query's fingerprint finds that query's dedup
    /// slot, plan-cache entry and result-cache entry under its key, and
    /// must still be planned, executed and answered on its own.
    #[test]
    fn forged_fingerprint_collisions_never_share_answers() {
        let (svc, g) = service();
        let (q1, q2) = (single("A", "B"), chain3());
        let forged = query_fingerprint(&q1);
        let batch = [q1.clone(), q2.clone()];
        let answers = svc.serve_fingerprinted(&batch, &[forged, forged], None);
        for (q, a) in batch.iter().zip(&answers) {
            assert_eq!(*a.as_ref().unwrap().result, match_pattern(q, &g));
        }
        let a2 = answers[1].as_ref().unwrap();
        assert!(!a2.deduplicated && !a2.result_cached && !a2.plan_cached);
        assert_eq!(svc.stats().dedup_saved, 0);

        // Across batches, q1 still owns both cache slots and q2 is planned
        // and executed again.
        let again = svc
            .serve_fingerprinted(std::slice::from_ref(&q2), &[forged], None)
            .pop()
            .unwrap()
            .unwrap();
        assert!(!again.result_cached && !again.plan_cached);
        assert_eq!(*again.result, match_pattern(&q2, &g));
        assert!(svc.serve(&q1, None).unwrap().result_cached);
        assert_eq!(svc.stats().executed_queries, 3);
    }

    #[test]
    fn plan_cache_capacity_zero_disables_caching() {
        let g = graph();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let store = Arc::new(ViewStore::materialize(views, &g, 1));
        let svc = ViewService::with_config(
            store,
            ServiceConfig {
                plan_cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let q = single("A", "B");
        svc.serve(&q, None).unwrap();
        svc.serve(&q, None).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(stats.plan_cache_size, 0);
    }
}
