//! The concurrent serving layer: [`ViewService`] on top of
//! [`QueryEngine`].
//!
//! The paper's value proposition — answer `Qs` from materialized views
//! without touching `G` — only pays off at scale if the views are *served*
//! under concurrent traffic. `ViewService` is that facade: many client
//! threads submit batches of pattern queries against one shared service,
//! which
//!
//! * keeps **one cache entry per query**, keyed by `(query fingerprint,
//!   view-set fingerprint)`: the query's plan, planned **once** per
//!   (query, view-set) pair (the plan IR is immutable and shared by
//!   `Arc`), and its answer once one is cached;
//! * **answers repeated queries across batches without executing** — an
//!   entry's answer replays the answer computed the first time (the
//!   memo-over-recompute move the paper makes for views, applied one level
//!   up the stack). Answers are held in *frozen columnar* form under a
//!   byte budget with LRU eviction, so the budget bounds actual residency,
//!   and a hit thaws — an O(answer) copy in place of a plan + fixpoint
//!   execution. An evicted answer leaves its plan, and entries without an
//!   answer are LRU-bounded by count. Every answer is stamped with the
//!   **epoch set** of the views its plan actually read (plus the graph
//!   epoch when it read `G`), so an [`EdgeDelta`] to view *A* invalidates
//!   exactly the answers that read *A* — answers reading only other views
//!   keep hitting across the delta, which is the point of delta-maintained
//!   serving: an update never colds the whole cache, let alone forces a
//!   rebuild. An answer computed with the graph supplied also keeps its
//!   query's **footprint** ([`QueryFootprint`]): [`ViewService::apply_delta`]
//!   moves the stamp of every such answer forward to the post-delta
//!   snapshot when the delta's edges miss the footprint, or when the
//!   answer-level test ([`QueryFootprint::may_change`]) proves the answer
//!   unchanged, so a 1-edge delta re-runs only the queries it does change
//!   (and inserts into empty answers). Failures are not cached: a strict
//!   (`g = None`) call the views cannot answer is refused again from its
//!   cached plan;
//! * **deduplicates identical queries inside a batch**, executing each
//!   distinct query once and fanning the result out. The dedup map and
//!   the cache key by a structural [`query_fingerprint`] and confirm a hit
//!   by comparing the stored pattern with `==`;
//! * runs each batch on the [`StoreSnapshot`] of the [`ViewStore`] it
//!   reads, through an engine built over that snapshot by sharing its
//!   extensions by `Arc` ([`QueryEngine::from_snapshot`]): a few handle
//!   clones, never a copy of the materialized pairs. The first
//!   batch on a new store version purges the cache of entries for other
//!   view sets and of answers the version made stale;
//! * plans under the one fixed [`CostModel`](crate::cost::CostModel);
//! * keeps service-level statistics: plan- and result-cache hit rates,
//!   shard-file occupancy, in-flight queue depth and a log₂ latency
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
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
/// leaves it valid. [`ViewService::apply_delta`] re-stamps an answer only
/// when its [`QueryFootprint`] proves the delta leaves it unchanged, so a
/// refresh only ever makes a true claim. The view positions are computed
/// once per plan ([`QueryPlan::view_indices`]): a stamp allocates nothing.
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
    /// Maximum cached queries *without* a cached answer (plans whose
    /// answers were not cached, evicted or went stale); past it, the
    /// least-recently-used such entry is evicted — hot entries survive a
    /// flood of distinct cold queries. Entries holding an answer are
    /// bounded by [`Self::result_cache_bytes`] instead. With the result
    /// cache off, `0` disables plan caching entirely.
    pub plan_cache_capacity: usize,
    /// Byte budget for the cached **answers** (`0` disables them). A cached
    /// plan skips planning; a cached answer skips *execution*: a repeated
    /// identical query whose views are unchanged returns the answer
    /// computed the first time. When an insertion pushes the estimated
    /// resident bytes over the budget, least-recently-used answers are
    /// evicted until it fits, each leaving its plan cached (an answer
    /// larger than the whole budget is simply not cached).
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
    /// Queries currently cached: each entry holds a plan, and some also
    /// an answer ([`Self::result_cache_size`]).
    pub plan_cache_size: usize,
    /// `hits / (hits + misses)`, 0.0 before any planning.
    pub plan_cache_hit_rate: f64,
    /// Result-cache hits (answers served without planning or executing).
    pub result_cache_hits: u64,
    /// Result-cache misses (the query was planned/executed; successful
    /// answers populate the cache).
    pub result_cache_misses: u64,
    /// Cached queries that also hold an answer.
    pub result_cache_size: usize,
    /// Estimated resident bytes of the cached answers (the quantity the
    /// [`ServiceConfig::result_cache_bytes`] budget bounds).
    pub result_cache_bytes: usize,
    /// `hits / (hits + misses)`, 0.0 before any probe.
    pub result_cache_hit_rate: f64,
    /// Answers evicted to stay within the byte budget.
    pub result_cache_evictions: u64,
    /// Cached answers a delta kept valid because it missed their query's
    /// footprint ([`QueryFootprint::touched_by`]).
    pub result_kept_untouched: u64,
    /// Cached answers a delta touched but kept valid because the
    /// answer-level test proved them unchanged
    /// ([`QueryFootprint::may_change`]).
    pub result_kept_unchanged: u64,
    /// Queries answered by intra-batch deduplication.
    pub dedup_saved: u64,
    /// Queries that actually planned and executed (no cache hit, no
    /// in-batch deduplication).
    pub executed_queries: u64,
    /// Store versions the service has served: the first batch on each
    /// new version counts one and purges the cache.
    pub engine_rebuilds: u64,
    /// Queries currently in flight (the queue-depth gauge).
    pub in_flight: u64,
    /// High-water mark of [`Self::in_flight`].
    pub max_in_flight: u64,
    /// How the backing store's views spread over the shard files
    /// [`ViewStore::save_to_dir`] writes ([`ViewStore::occupancy`]).
    pub shard_occupancy: Vec<ShardOccupancy>,
    /// Estimated resident bytes of the store's warm incremental
    /// maintainers and the base sets they share
    /// ([`ViewStore::maintainer_bytes`]).
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
    /// Entries re-stamped by a delta, per test (written only by deltas).
    kept_untouched: AtomicU64,
    kept_unchanged: AtomicU64,
}

/// A concurrent, batch-oriented query-serving facade over a
/// [`ViewStore`]. Shared by reference across client threads (`&self`
/// everywhere); see the [module docs](self) for the full contract.
#[derive(Debug)]
pub struct ViewService {
    store: Arc<ViewStore>,
    config: ServiceConfig,
    /// One past the newest store version a batch has run on: the first
    /// batch on a newer version purges the cache ([`Self::engine`]).
    seen_version: AtomicU64,
    /// Every query's plan and cached answer, keyed by `(query
    /// fingerprint, view-set fingerprint)`.
    cache: RwLock<QueryCache>,
    counters: Counters,
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
/// atom plus the atom strings, four node-id pairs per pattern edge (edge
/// list, both adjacency lists, the footprint pair) and two words per
/// pattern node (the footprint's sink flag and reachability row; one
/// row word covers 64 nodes). The configured
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
        + q.node_count() * 2 * std::mem::size_of::<u64>()
        + RESULT_ENTRY_OVERHEAD
}

/// One cached answer. An answer whose plan reads `G`
/// ([`QueryPlan::needs_graph`]) must not satisfy a strict views-only
/// (`g = None`) call that would otherwise have failed with
/// [`ServiceError::NeedsGraph`]: the cache must never change which queries
/// a serving mode accepts, only how fast it answers them.
#[derive(Debug)]
struct CachedAnswer {
    /// The answer in frozen columnar form — half the footprint of the boxed
    /// result and exactly accounted by `bytes`; a hit thaws it back.
    compact: Arc<CompactView>,
    join_stats: JoinStats,
    /// The query's footprint, resolved against the batch's validated
    /// graph — whenever the batch carried one (`None` for strict-mode
    /// answers, which follow the view-epoch rule alone).
    footprint: Option<QueryFootprint>,
    /// The epoch-set stamp ([`plan_epoch_key`]) of the snapshot the answer
    /// was computed against, or moved forward by a delta that `footprint`
    /// proves leaves the answer unchanged ([`ViewService::apply_delta`]).
    /// A probe recomputes the stamp from the entry's plan against the
    /// batch's snapshot and hits only on equality: every view (and, for
    /// graph-reading plans, every graph edge the query can read) this
    /// answer depends on is then unchanged, or the footprint proved the
    /// delta between left the answer as it is.
    epoch_key: u64,
    bytes: usize,
}

/// One cached query: the query itself (the fingerprint-collision witness:
/// an entry serves a probe only when the stored pattern `==` it), its
/// shared plan, its answer when one is cached, and an LRU stamp updated on
/// every hit.
#[derive(Debug)]
struct CacheEntry {
    query: Arc<Pattern>,
    plan: Arc<QueryPlan>,
    answer: Option<CachedAnswer>,
    last_used: AtomicU64,
}

/// `(query fingerprint, view-set fingerprint)` → [`CacheEntry`]: a plan
/// per query, and the answer when one is cached. Two bounds, both exact
/// LRU: answers are evicted until their bytes fit
/// [`ServiceConfig::result_cache_bytes`] (an evicted answer leaves its
/// plan behind), and entries without an answer until at most
/// [`ServiceConfig::plan_cache_capacity`] remain. A count bound on every
/// entry would evict answers along with their plans whenever the capacity
/// is small.
///
/// Invalidation is *exact at view granularity*: an answer hits only while
/// its epoch-set stamp ([`CachedAnswer::epoch_key`]) matches the batch's
/// snapshot, so an [`EdgeDelta`] invalidates precisely the answers whose
/// plans read a changed view; answers with a footprint survive too when
/// the delta misses it or provably leaves them unchanged
/// ([`ViewService::apply_delta`] re-stamps them). A view-set membership
/// change changes the key itself. The first batch on a new store version
/// purges what can never hit again ([`Self::purge`]), so an invalidation
/// releases its budget at once instead of waiting for LRU pressure.
#[derive(Debug, Default)]
struct QueryCache {
    map: HashMap<(u64, u64), CacheEntry>,
    /// Estimated resident bytes of the cached answers.
    bytes: usize,
    /// Monotonic LRU clock (ticked under the read lock on hits).
    clock: AtomicU64,
}

impl QueryCache {
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The entry for `key` when it holds `q` itself, not a distinct query
    /// colliding on the fingerprint.
    fn get(&self, key: (u64, u64), q: &Pattern) -> Option<&CacheEntry> {
        self.map.get(&key).filter(|e| *e.query == *q)
    }

    /// The least-recently-used entry with (or without) an answer.
    fn lru(&self, answered: bool) -> Option<(u64, u64)> {
        self.map
            .iter()
            .filter(|(_, e)| e.answer.is_some() == answered)
            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| *k)
    }

    /// Evicts to the two bounds and returns how many answers the byte
    /// budget evicted. The scans are O(entries), but eviction only runs
    /// after a full plan and execution, or on a purge, so exact LRU costs a
    /// rounding error and never makes an entry immortal.
    fn evict(&mut self, budget: usize, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        while self.bytes > budget {
            let Some(key) = self.lru(true) else { break };
            if let Some(answer) = self.map.get_mut(&key).and_then(|e| e.answer.take()) {
                self.bytes -= answer.bytes;
                evicted += 1;
            }
        }
        let answerless = self.map.values().filter(|e| e.answer.is_none()).count();
        for _ in capacity..answerless {
            if let Some(key) = self.lru(false) {
                self.map.remove(&key);
            }
        }
        evicted
    }

    /// Drops what can never hit under the freshly published `snap`:
    /// entries of another view-set fingerprint (no batch on this snapshot
    /// probes their keys), and answers whose epoch-set stamp a consumed
    /// view (or the graph) has moved past, whose plans stay. Answers whose
    /// stamps *are* still current survive: that is what keeps answers over
    /// untouched views warm across a delta.
    fn purge(&mut self, snap: &StoreSnapshot, budget: usize, capacity: usize) {
        self.map.retain(|&(_, vfp), _| vfp == snap.fingerprint);
        for e in self.map.values_mut() {
            e.answer
                .take_if(|a| a.epoch_key != plan_epoch_key(&e.plan, snap));
        }
        self.bytes = self
            .map
            .values()
            .filter_map(|e| e.answer.as_ref())
            .map(|a| a.bytes)
            .sum();
        self.evict(budget, capacity);
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
            seen_version: AtomicU64::new(0),
            cache: RwLock::new(QueryCache::default()),
            counters: Counters::default(),
        }
    }

    /// The backing store (register/retire views through this; the service
    /// picks membership changes up on the next batch).
    pub fn store(&self) -> &Arc<ViewStore> {
        &self.store
    }

    /// The query cache for reading. A thread that panicked while writing
    /// it may have left it torn, so a read that finds the lock marked
    /// first has [`write_cache`](Self::write_cache) clear it.
    fn read_cache(&self) -> RwLockReadGuard<'_, QueryCache> {
        loop {
            match self.cache.read() {
                Ok(cache) => return cache,
                Err(torn) => {
                    drop(torn);
                    drop(self.write_cache());
                }
            }
        }
    }

    /// The query cache for writing. After a panic under the lock the
    /// cache is cleared — it holds only plans and answers that can be
    /// rebuilt — and the lock is usable again.
    fn write_cache(&self) -> RwLockWriteGuard<'_, QueryCache> {
        self.cache.write().unwrap_or_else(|torn| {
            let mut cache = torn.into_inner();
            *cache = QueryCache::default();
            self.cache.clear_poison();
            cache
        })
    }

    /// Applies an edge-delta batch to the backing store between serving
    /// batches. Affected views are delta-maintained
    /// ([`ViewStore::apply_delta`]) — never rebuilt from scratch — and the
    /// new world is published atomically: batches already in flight keep
    /// executing against their MVCC snapshot, the next batch picks the
    /// post-delta snapshot up lazily. Cached answers whose plans read only
    /// views the delta never touched remain valid and keep hitting, and so
    /// do answers whose query's footprint ([`QueryFootprint`]) proves the
    /// delta leaves them unchanged; the caller should adopt
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

    /// Moves the stamp of every cached answer that was valid at `before`
    /// and that `delta` provably leaves unchanged to the post-delta
    /// snapshot: either `delta` misses the answer's [`QueryFootprint`], or
    /// [`QueryFootprint::may_change`] proves the answer's edge sets stay
    /// the same. By the arguments in [`crate::delta`] and Theorem 1 the
    /// answer is then the post-delta `Q(G)`, so the new stamp makes a true
    /// claim. Answers whose stamp the delta does not move are left alone.
    /// Runs only when `delta` is the one mutation between `before` and the
    /// published snapshot at `version` (membership unchanged); otherwise
    /// the answers keep their old stamps and miss. A purge racing this
    /// refresh may drop an answer first, which costs a hit, never a wrong
    /// answer.
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
        let (mut untouched, mut unchanged) = (0u64, 0u64);
        let mut cache = self.write_cache();
        for (&(_, vfp), entry) in cache.map.iter_mut() {
            let CacheEntry {
                plan,
                answer: Some(answer),
                ..
            } = entry
            else {
                continue;
            };
            // Strict-mode answers carry no footprint and follow the
            // view-epoch rule alone.
            let Some(footprint) = &answer.footprint else {
                continue;
            };
            if vfp != before.fingerprint || answer.epoch_key != plan_epoch_key(plan, before) {
                continue;
            }
            let next = plan_epoch_key(plan, &after);
            if next == answer.epoch_key {
                continue;
            }
            if !footprint.touched_by(delta, g) {
                untouched += 1;
            } else if !footprint.may_change(delta, &answer.compact, g) {
                unchanged += 1;
            } else {
                continue;
            }
            answer.epoch_key = next;
        }
        drop(cache);
        self.counters
            .kept_untouched
            .fetch_add(untouched, Ordering::Relaxed);
        self.counters
            .kept_unchanged
            .fetch_add(unchanged, Ordering::Relaxed);
    }

    /// The published snapshot a batch runs on, and an engine over it. The
    /// engine shares the snapshot's view set and extensions by `Arc`
    /// ([`QueryEngine::from_snapshot`]), so building one per batch costs a
    /// few handle clones, never a copy of the materialized pairs. The first
    /// batch on a newer store version counts an engine rebuild and purges
    /// the cache ([`QueryCache::purge`]); a batch whose version was
    /// overtaken before it got the lock leaves the purge to the newer one.
    fn engine(&self) -> (Arc<StoreSnapshot>, QueryEngine) {
        let snap = self.store.snapshot();
        if self
            .seen_version
            .fetch_max(snap.version + 1, Ordering::Relaxed)
            <= snap.version
        {
            self.counters
                .engine_rebuilds
                .fetch_add(1, Ordering::Relaxed);
            let mut cache = self.write_cache();
            if self.store.version() == snap.version {
                let config = &self.config;
                cache.purge(&snap, config.result_cache_bytes, config.plan_cache_capacity);
            }
        }
        let engine = QueryEngine::from_snapshot(&snap).with_config(self.config.engine.clone());
        (snap, engine)
    }

    fn record_latency(&self, micros: u64) {
        self.counters.latency[bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Probes the cache for `q` at `snap`, under one read lock. Returns the
    /// cached answer when it is still current, else the cached plan
    /// (`Err(Some(plan))`), else `Err(None)`. An answer hits only when its
    /// entry holds `q` itself and its epoch-set stamp is current — every
    /// view (and, for graph-reading plans, the graph) its plan consumed is
    /// then unchanged, so the answer holds even though the store version
    /// may have moved. For a views-only (`has_graph = false`) call the
    /// answer must additionally have been provably computable without the
    /// graph: caching must never let a strict call succeed where the
    /// uncached path would have returned [`ServiceError::NeedsGraph`].
    /// Counts a result hit or miss when answers are cached, then a plan hit
    /// or miss on a result miss.
    fn lookup(
        &self,
        snap: &StoreSnapshot,
        qfp: u64,
        q: &Pattern,
        has_graph: bool,
    ) -> Result<ServedAnswer, Option<Arc<QueryPlan>>> {
        let cache = self.read_cache();
        let entry = cache.get((qfp, snap.fingerprint), q);
        if self.config.result_cache_bytes > 0 {
            let current = entry.and_then(|e| {
                e.answer
                    .as_ref()
                    .filter(|a| {
                        (has_graph || !e.plan.needs_graph())
                            && a.epoch_key == plan_epoch_key(&e.plan, snap)
                    })
                    .map(|a| (e, a))
            });
            if let Some((e, a)) = current {
                e.last_used.store(cache.tick(), Ordering::Relaxed);
                self.counters.result_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(ServedAnswer {
                    result: Arc::new(a.compact.thaw()),
                    plan: e.plan.clone(),
                    join_stats: a.join_stats,
                    query_fingerprint: qfp,
                    plan_cached: false,
                    result_cached: true,
                    deduplicated: false,
                    latency_micros: 0,
                });
            }
            self.counters.result_misses.fetch_add(1, Ordering::Relaxed);
        }
        match entry {
            Some(e) => {
                e.last_used.store(cache.tick(), Ordering::Relaxed);
                self.counters.plan_hits.fetch_add(1, Ordering::Relaxed);
                Err(Some(e.plan.clone()))
            }
            None => {
                self.counters.plan_misses.fetch_add(1, Ordering::Relaxed);
                Err(None)
            }
        }
    }

    /// The cacheable form of a freshly executed answer at `snap`: frozen,
    /// stamped and, when the batch carried its validated graph `g`, with
    /// its query's footprint resolved against it. `None` when the result
    /// cache is off or the answer alone exceeds its budget.
    fn cacheable(
        &self,
        snap: &StoreSnapshot,
        q: &Pattern,
        a: &ServedAnswer,
        g: Option<&DataGraph>,
    ) -> Option<CachedAnswer> {
        let budget = self.config.result_cache_bytes;
        if budget == 0 {
            return None;
        }
        let footprint = match (a.plan.needs_graph(), g) {
            (_, Some(g)) => Some(QueryFootprint::of(q, g)),
            (false, None) => None,
            // Unreachable: a graph-reading plan only executes with a
            // validated graph. Not caching is the safe answer anyway.
            (true, None) => return None,
        };
        let compact = Arc::new(CompactView::freeze(&a.result));
        let bytes = result_entry_bytes(&compact, q);
        (bytes <= budget).then(|| CachedAnswer {
            compact,
            join_stats: a.join_stats,
            footprint,
            epoch_key: plan_epoch_key(&a.plan, snap),
            bytes,
        })
    }

    /// Records `q`'s plan, with `answer` attached when there is one, after
    /// an execution at `snap`, then evicts to the bounds. A resident entry
    /// keeps its plan (planning is deterministic, and callers comparing
    /// plans see one `Arc`) and its answer unless that answer's stamp went
    /// stale; an entry holding a distinct colliding query is left alone, so
    /// it keeps serving its own query.
    ///
    /// An in-flight batch can finish executing *after* the store moved on
    /// and a newer batch already purged this batch's world. So the insert
    /// is rechecked against the *currently published* snapshot under the
    /// lock the purge runs under: nothing is recorded when membership
    /// moved, and an answer whose epoch set moved is dropped. (A mutation
    /// racing in right after this check is cleaned by the purge of the
    /// first batch on its version.)
    fn remember(
        &self,
        snap: &StoreSnapshot,
        qfp: u64,
        q: &Pattern,
        plan: &Arc<QueryPlan>,
        mut answer: Option<CachedAnswer>,
    ) {
        let mut guard = self.write_cache();
        let current = self.store.snapshot();
        if current.fingerprint != snap.fingerprint {
            return;
        }
        answer.take_if(|a| a.epoch_key != plan_epoch_key(plan, &current));
        let cache = &mut *guard;
        let stamp = cache.tick();
        match cache.map.entry((qfp, snap.fingerprint)) {
            Entry::Occupied(e) => {
                let e = e.into_mut();
                if *e.query != *q {
                    return;
                }
                e.last_used.store(stamp, Ordering::Relaxed);
                if let Some(new) = answer {
                    match &e.answer {
                        // First writer wins on identical stamps.
                        Some(old) if old.epoch_key == new.epoch_key => {}
                        old => {
                            cache.bytes -= old.as_ref().map_or(0, |a| a.bytes);
                            cache.bytes += new.bytes;
                            e.answer = Some(new);
                        }
                    }
                }
            }
            Entry::Vacant(slot) => {
                cache.bytes += answer.as_ref().map_or(0, |a| a.bytes);
                slot.insert(CacheEntry {
                    query: Arc::new(q.clone()),
                    plan: plan.clone(),
                    answer,
                    last_used: AtomicU64::new(stamp),
                });
            }
        }
        let config = &self.config;
        let evicted = cache.evict(config.result_cache_bytes, config.plan_cache_capacity);
        self.counters
            .result_evictions
            .fetch_add(evicted, Ordering::Relaxed);
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
    /// When `g` is supplied it must be the graph of the store snapshot the
    /// batch executes against — extensions from one graph say nothing
    /// about another. This is *checked* once per batch (one `O(1)`
    /// fingerprint comparison): queries whose plans read `G` fail with
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
    /// `fingerprints[i]` keys `queries[i]` in the dedup map and the query
    /// cache. Correct for *any* fingerprints — every keyed hit is
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

        let (snap, engine) = self.engine();
        // The supplied graph's validation against the graph of the snapshot
        // this batch executes, checked by every graph-reading plan in the
        // batch (views-only plans ignore it).
        let graph_check = g.map(|g| {
            let actual = crate::storage::graph_fingerprint(g);
            let expected = snap.graph_fingerprint;
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
                // An identical query whose epoch-set stamp is unchanged at
                // this snapshot returns the shared answer without planning
                // or executing anything.
                None => match self.lookup(&snap, qfp, q, g.is_some()) {
                    Ok(hit) => {
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
                    Err(cached_plan) => {
                        let plan_cached = cached_plan.is_some();
                        let plan = cached_plan.unwrap_or_else(|| Arc::new(engine.plan(q)));
                        // Views-only plans execute with no graph at all;
                        // plans that do read G first validate it belongs to
                        // this store (once per batch).
                        let exec = match (plan.needs_graph(), &graph_check) {
                            (false, _) => {
                                engine.execute(q, &plan, None).map_err(ServiceError::from)
                            }
                            (true, None) => Err(ServiceError::NeedsGraph),
                            (true, Some(Err(e))) => Err(e.clone()),
                            (true, Some(Ok(g))) => engine
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
                        // Successful answers are cached; failures never
                        // are. A repeated strict call that fails with
                        // NeedsGraph costs one probe: whether strict mode
                        // can answer is a property of the cached plan. A
                        // cached plan with no answer to attach takes no
                        // write lock.
                        let answer = executed
                            .as_ref()
                            .ok()
                            .and_then(|a| self.cacheable(&snap, q, a, validated));
                        if !plan_cached || answer.is_some() {
                            self.remember(&snap, qfp, q, &plan, answer);
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
    /// the per-query cache disposition: whether the cache holds this
    /// query's plan and a current answer right now.
    pub fn explain(&self, q: &Pattern) -> String {
        let (snap, engine) = self.engine();
        let qfp = query_fingerprint(q);
        // Observability must not perturb what it observes: probe the cache
        // read-only (no hit/miss counters, no insertion, no LRU touch) and
        // plan fresh on a miss.
        let (cached_plan, result_cached) = {
            let cache = self.read_cache();
            let entry = cache.get((qfp, snap.fingerprint), q);
            (
                entry.map(|e| e.plan.clone()),
                entry.is_some_and(|e| {
                    e.answer
                        .as_ref()
                        .is_some_and(|a| a.epoch_key == plan_epoch_key(&e.plan, &snap))
                }),
            )
        };
        let plan_cached = cached_plan.is_some();
        let plan = cached_plan.unwrap_or_else(|| Arc::new(engine.plan(q)));
        format!(
            "{plan}\n  cache  : query {qfp:#018x} / views {:#018x} (plan {}, result {})",
            snap.fingerprint,
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
        let (size, rsize, rbytes) = {
            let cache = self.read_cache();
            let answers = cache.map.values().filter(|e| e.answer.is_some()).count();
            (cache.map.len(), answers, cache.bytes)
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
            plan_cache_size: size,
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
            result_kept_untouched: self.counters.kept_untouched.load(Ordering::Relaxed),
            result_kept_unchanged: self.counters.kept_unchanged.load(Ordering::Relaxed),
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
        service_with(ServiceConfig::default())
    }

    fn service_with(config: ServiceConfig) -> (ViewService, DataGraph) {
        let g = graph();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ]);
        let store = Arc::new(ViewStore::materialize(views, &g, 4));
        (ViewService::with_config(store, config), g)
    }

    /// A thread that panics while holding the cache's write lock costs the
    /// cached plans and answers, not the service: the next batch clears the
    /// cache, re-plans and answers as the oracle does.
    #[test]
    fn a_panic_under_the_cache_lock_clears_the_cache() {
        let (svc, g) = service();
        let q = chain3();
        let direct = match_pattern(&q, &g);
        assert_eq!(*svc.serve(&q, None).unwrap().result, direct);
        assert_eq!(svc.stats().result_cache_size, 1);

        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _cache = svc.cache.write().unwrap();
                panic!("writer dies holding the cache lock");
            })
            .join()
        });
        assert!(panicked.is_err() && svc.cache.is_poisoned());

        let batch = [q.clone(), single("A", "B")];
        for (query, answer) in batch.iter().zip(svc.serve_batch(&batch, Some(&g))) {
            let answer = answer.unwrap();
            assert!(!answer.result_cached, "the cache was cleared");
            assert_eq!(*answer.result, match_pattern(query, &g));
        }
        assert!(!svc.cache.is_poisoned());
        assert_eq!(*svc.serve(&q, None).unwrap().result, direct);
        assert_eq!(svc.stats().result_cache_size, 2);
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
        let stats = svc.stats();
        assert_eq!(stats.engine_rebuilds, 2);
        // The first batch on the new version purged the old fingerprint's
        // entry: only the new one is resident.
        assert_eq!(stats.plan_cache_size, 1);
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

    /// An answer serves only the snapshots its stamp holds for: a batch
    /// still running on the snapshot before a delta misses the answer a
    /// later batch cached after it, and falls back to the cached plan.
    #[test]
    fn a_batch_on_an_older_snapshot_misses_a_newer_answer() {
        let (svc, g) = service();
        let q = single("A", "B");
        let before = svc.store().snapshot();
        svc.serve(&q, None).unwrap();
        let delta = EdgeDelta::new(vec![], vec![(gpv_graph::NodeId(0), gpv_graph::NodeId(1))]);
        let g2 = svc.apply_delta(&delta, &g).unwrap().graph;
        let fresh = svc.serve(&q, None).unwrap();
        assert!(!fresh.result_cached, "the delta changed vab");
        assert_eq!(*fresh.result, match_pattern(&q, &g2));
        assert!(matches!(
            svc.lookup(&before, query_fingerprint(&q), &q, false),
            Err(Some(_))
        ));
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

    /// Nodes a(A) b(B) c(C) b2(B); edges a→b, b→c. Inserting a→b2 lands
    /// in chain3's A→B footprint but leaves its answer unchanged: `a` is
    /// already in `sim(A)` and `b2` has no C successor, so `b2 ∉ sim(B)`.
    fn unchanged_service(views: Vec<ViewDef>) -> (ViewService, DataGraph, EdgeDelta) {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let bb = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        let b2 = b.add_node(["B"]);
        b.add_edge(a, bb);
        b.add_edge(bb, c);
        let g = b.build();
        let store = Arc::new(ViewStore::materialize(ViewSet::new(views), &g, 2));
        (
            ViewService::new(store),
            g,
            EdgeDelta::new(vec![(a, b2)], vec![]),
        )
    }

    /// A delta inside a graph-reading answer's footprint that provably
    /// leaves the answer unchanged re-stamps it, and the stats say which
    /// test kept it.
    #[test]
    fn delta_touching_the_footprint_keeps_an_unchanged_answer() {
        let (svc, g, delta) = unchanged_service(vec![ViewDef::new("vab", single("A", "B"))]);
        let q = chain3();
        let first = svc.serve(&q, Some(&g)).unwrap();
        assert!(first.plan.needs_graph(), "{}", first.plan);
        let g2 = svc.apply_delta(&delta, &g).unwrap().graph;
        let stats = svc.stats();
        assert_eq!(stats.result_kept_untouched, 0);
        assert_eq!(stats.result_kept_unchanged, 1);
        let kept = svc.serve(&q, Some(&g2)).unwrap();
        assert!(kept.result_cached, "an unchanged answer survives");
        assert_eq!(*kept.result, match_pattern(&q, &g2));
    }

    /// A views-only answer whose view the delta changes is kept too when
    /// the batch carried the graph, since it then has a footprint; a
    /// strict-mode answer has none and follows the view-epoch rule.
    #[test]
    fn views_only_answers_with_a_footprint_survive_a_changed_view() {
        let views = || {
            vec![
                ViewDef::new("vab", single("A", "B")),
                ViewDef::new("vbc", single("B", "C")),
            ]
        };
        let q = chain3();
        let (svc, g, delta) = unchanged_service(views());
        assert!(!svc.serve(&q, Some(&g)).unwrap().plan.needs_graph());
        let report = svc.apply_delta(&delta, &g).unwrap();
        assert!(!report.changed.is_empty(), "vab gained a→b2");
        let kept = svc.serve(&q, Some(&report.graph)).unwrap();
        assert!(kept.result_cached);
        assert_eq!(*kept.result, match_pattern(&q, &report.graph));
        assert_eq!(svc.stats().result_kept_unchanged, 1);

        let (svc, g, delta) = unchanged_service(views());
        svc.serve(&q, None).unwrap();
        svc.apply_delta(&delta, &g).unwrap();
        assert!(!svc.serve(&q, None).unwrap().result_cached);
        assert_eq!(svc.stats().result_kept_unchanged, 0);
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

    /// Forged fingerprint collisions in both maps: a distinct query served
    /// under another query's fingerprint finds that query's dedup slot and
    /// cache entry (plan and answer) under its key, and must still be
    /// planned, executed and answered on its own.
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

    /// `plan_cache_capacity` bounds the entries *without* an answer, so
    /// with the result cache off a capacity of 0 caches nothing at all.
    #[test]
    fn plan_cache_capacity_zero_disables_caching() {
        let g = graph();
        let views = ViewSet::new(vec![ViewDef::new("vab", single("A", "B"))]);
        let store = Arc::new(ViewStore::materialize(views, &g, 1));
        let svc = ViewService::with_config(
            store,
            ServiceConfig {
                plan_cache_capacity: 0,
                result_cache_bytes: 0,
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

    /// …but an answered entry is bounded by the byte budget alone: with
    /// answers cached, a capacity of 0 still keeps them (plan included).
    #[test]
    fn plan_cache_capacity_zero_still_caches_answers() {
        let (svc, g) = service_with(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        let q = chain3();
        assert!(!svc.serve(&q, None).unwrap().result_cached);
        let again = svc.serve(&q, None).unwrap();
        assert!(again.result_cached);
        assert_eq!(*again.result, match_pattern(&q, &g));
        let stats = svc.stats();
        assert_eq!((stats.plan_cache_size, stats.result_cache_size), (1, 1));
    }

    /// Answered entries do not count against `plan_cache_capacity`: with a
    /// capacity of 1, every distinct answered query still hits on repeat.
    #[test]
    fn answered_entries_outlive_a_small_plan_capacity() {
        let (svc, g) = service_with(ServiceConfig {
            plan_cache_capacity: 1,
            ..ServiceConfig::default()
        });
        let queries = [single("A", "B"), single("B", "C"), chain3()];
        for q in &queries {
            assert!(!svc.serve(q, None).unwrap().result_cached);
        }
        for q in &queries {
            let a = svc.serve(q, None).unwrap();
            assert!(a.result_cached, "{q:?} lost its answer");
            assert_eq!(*a.result, match_pattern(q, &g));
        }
        assert_eq!(svc.stats().result_cache_size, queries.len());
    }

    /// The byte budget evicts an answer, not its entry: the plan stays and
    /// the next serve of that query re-executes from the cached plan.
    #[test]
    fn evicted_answer_leaves_its_plan() {
        let g = graph();
        let (q1, q2) = (single("A", "B"), single("B", "C"));
        let bytes =
            |q: &Pattern| result_entry_bytes(&CompactView::freeze(&match_pattern(q, &g)), q);
        // Room for either answer alone, never both.
        let (svc, _) = service_with(ServiceConfig {
            result_cache_bytes: bytes(&q1) + bytes(&q2) - 1,
            ..ServiceConfig::default()
        });
        svc.serve(&q1, None).unwrap();
        svc.serve(&q2, None).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.result_cache_evictions, 1, "{stats:?}");
        assert_eq!((stats.plan_cache_size, stats.result_cache_size), (2, 1));
        let again = svc.serve(&q1, None).unwrap();
        assert!(again.plan_cached && !again.result_cached);
        assert_eq!(*again.result, match_pattern(&q1, &g));
    }
}
