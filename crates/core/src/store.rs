//! Sharded, concurrently-writable view storage.
//!
//! A [`QueryEngine`](crate::engine::QueryEngine) owns one monolithic view
//! registry. That is fine for a single-threaded CLI run but not for a
//! serving process where many threads read views while others register or
//! retire them. [`ViewStore`] is the concurrent representation: views live
//! in `N` independent shards,
//! each behind its own [`RwLock`], chosen by a hash of the view's stable id.
//!
//! Concurrency contract (MVCC):
//!
//! * **Writes** (insert / remove / [`ViewStore::apply_delta`]) serialize on
//!   one writer mutex, mutate the owning shard(s), and then *publish* a
//!   freshly assembled [`StoreSnapshot`] behind an `Arc` swap;
//! * **Reads never block on writers**: [`ViewStore::snapshot`] clones the
//!   published `Arc` — in-flight readers keep serving whatever snapshot
//!   they hold while a writer prepares the next one, and a half-applied
//!   delta is never observable;
//! * **The query hot path holds no locks at all**: execution works off a
//!   snapshot — a consistent, immutable set of `Arc`-shared views. The
//!   serving layer ([`crate::service::ViewService`]) rebuilds its
//!   [`QueryEngine`](crate::engine::QueryEngine) only when
//!   [`ViewStore::version`] moves, so steady-state query traffic is
//!   entirely lock-free.
//!
//! The store is keyed by *stable ids* (monotonic `u64`s handed out at
//! registration) rather than the positional indices of
//! [`ViewSet`]: positions shift when views are
//! retired, ids never do. Snapshots order views by id, so planning and
//! execution are deterministic regardless of shard count or interleaving.
//!
//! ## Epochs
//!
//! Every stored view carries an **epoch**: the store version at which its
//! extension last changed. A version bump no longer means "everything you
//! cached is stale" — [`ViewStore::apply_delta`] routes an [`EdgeDelta`]
//! through the [`ViewFootprintIndex`] detector and the warm
//! [`IncrementalView`] maintainers,
//! re-freezes only the views whose result actually changed, and leaves
//! every other view's `Arc` (and epoch) untouched. Cache layers key on the
//! epochs of the views a plan reads (plus [`StoreSnapshot::graph_epoch`]
//! for plans that read `G` itself), so a write to view A does not
//! invalidate answers that only read view B.

use crate::compact::CompactView;
use crate::delta::{EdgeDelta, ViewFootprintIndex};
use crate::maintenance::IncrementalView;
use crate::shard::{decode_shard, encode_shard, ShardError, StoreMeta, SHARD_VERSION};
use crate::storage::graph_fingerprint;
use crate::view::{ViewDef, ViewExtensions, ViewSet};
use gpv_graph::stats::GraphStats;
use gpv_graph::{DataGraph, NodeId};
use gpv_matching::result::MatchResult;
use gpv_matching::simulation::match_pattern;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One materialized view as stored: its stable id, definition and cached
/// extension, shared by `Arc` between the shards and live snapshots.
#[derive(Debug)]
pub struct StoredView {
    /// Stable registration id (never reused within a store).
    pub id: u64,
    /// The view definition.
    pub def: ViewDef,
    /// The materialized extension `V(G)` as a frozen columnar arena region,
    /// `Arc`-shared into every snapshot (and through it into every
    /// [`QueryEngine`](crate::engine::QueryEngine) built from one) —
    /// rebuilding an engine never copies the pairs, and a store mutation
    /// re-freezes only the touched view's region.
    pub ext: Arc<CompactView>,
    /// The store version at which `ext` last changed — the view's MVCC
    /// epoch. Cache keys derived from the epochs of the views a plan reads
    /// stay valid across mutations that touch other views.
    pub epoch: u64,
}

/// Errors from store mutation.
#[derive(Debug)]
pub enum StoreError {
    /// A view was registered (or a delta applied) against a different graph
    /// than the one the store currently materializes.
    GraphMismatch {
        /// Fingerprint the store was materialized against.
        expected: u64,
        /// Fingerprint of the graph supplied now.
        actual: u64,
    },
    /// An [`EdgeDelta`] referenced a node id the graph does not have.
    /// Deltas mutate edges only — they can never grow the node set.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The graph's node count.
        node_count: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::GraphMismatch { expected, actual } => write!(
                f,
                "view store was materialized for graph {expected:#x}, not {actual:#x}"
            ),
            StoreError::NodeOutOfRange { node, node_count } => write!(
                f,
                "edge delta references node {node} but the graph has {node_count} nodes"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`ViewStore::apply_delta`] did: the post-delta graph the caller
/// should adopt, plus which views the detector routed through incremental
/// maintenance and which of those actually changed.
#[derive(Debug)]
pub struct DeltaReport {
    /// The post-delta graph: node data (interners, label and attribute
    /// columns) shared by `Arc` with the pre-delta graph, edge CSRs spliced
    /// from its arrays (see [`EdgeDelta::apply_to`]). The caller serves
    /// subsequent graph-reading queries against this.
    pub graph: DataGraph,
    /// Store version after the delta (also the new
    /// [`StoreSnapshot::graph_epoch`]).
    pub version: u64,
    /// Ids the footprint detector flagged as possibly affected (sorted).
    pub affected: Vec<u64>,
    /// The subset of `affected` whose re-frozen extension differed — only
    /// these views got a new arena region and epoch.
    pub changed: Vec<u64>,
    /// Views the detector proved untouched: their `Arc`s and epochs (and
    /// every cached answer reading only them) survived verbatim.
    pub unaffected: usize,
}

/// Occupancy of one shard — how many views it holds and how many
/// materialized pairs they carry (the serving-layer stats surface this so
/// skew is visible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Shard index.
    pub shard: usize,
    /// Views resident in this shard.
    pub views: usize,
    /// Total materialized match pairs across those views.
    pub pairs: u64,
}

#[derive(Debug, Default)]
struct Shard {
    views: Vec<Arc<StoredView>>,
}

/// One row of [`ViewStore::eviction_advice`]: a resident view no workload
/// query needs, with the bytes evicting it would free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictionAdvice {
    /// Stable id of the candidate view.
    pub id: u64,
    /// Its name.
    pub name: String,
    /// Materialized pairs it holds (`|Vi(G)|`).
    pub pairs: u64,
    /// Resident arena bytes freed by evicting it.
    pub resident_bytes: usize,
}

/// A sharded, concurrently-writable registry of materialized views.
///
/// See the [module docs](self) for the locking contract. Build one with
/// [`ViewStore::materialize`] (or [`ViewStore::load_from_dir`] for
/// persisted shards), then hand it to a
/// [`ViewService`](crate::service::ViewService) — or use
/// [`ViewStore::snapshot`] directly:
///
/// ```
/// use gpv_core::store::ViewStore;
/// use gpv_core::view::{ViewDef, ViewSet};
/// use gpv_graph::GraphBuilder;
/// use gpv_pattern::PatternBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_node(["A"]);
/// let c = b.add_node(["B"]);
/// b.add_edge(a, c);
/// let g = b.build();
///
/// let mut p = PatternBuilder::new();
/// let u = p.node_labeled("A");
/// let v = p.node_labeled("B");
/// p.edge(u, v);
/// let q = p.build().unwrap();
///
/// let store = ViewStore::for_graph(&g, 4);
/// let id = store.insert(ViewDef::new("v", q), &g).unwrap();
/// assert_eq!(store.len(), 1);
/// let snap = store.snapshot();
/// assert_eq!(snap.ids(), vec![id]);
/// assert_eq!(snap.extensions().size(), 1); // one cached match pair
/// ```
#[derive(Debug)]
pub struct ViewStore {
    shards: Vec<RwLock<Shard>>,
    next_id: AtomicU64,
    /// Bumped on every successful mutation; snapshot consumers use it to
    /// detect staleness without locking any shard.
    version: AtomicU64,
    /// Fingerprint of the graph the store currently materializes. Atomic
    /// because [`Self::apply_delta`] moves it to the post-delta graph.
    graph_fingerprint: AtomicU64,
    /// Version of the last applied edge delta (0 = the graph has never
    /// changed). Mirrored into every snapshot as
    /// [`StoreSnapshot::graph_epoch`].
    graph_epoch: AtomicU64,
    graph_stats: Option<GraphStats>,
    /// The published MVCC snapshot: always fully assembled and internally
    /// consistent. Readers clone the `Arc`; only the writer path (under
    /// [`Self::writer`]) replaces it.
    published: RwLock<Arc<StoreSnapshot>>,
    /// Serializes all mutations and owns the warm incremental maintainers
    /// (view id → [`IncrementalView`]). Holding this across shard edits and
    /// the publish step is what makes half-applied deltas unobservable.
    writer: Mutex<WriterState>,
}

#[derive(Debug, Default)]
struct WriterState {
    /// Warm maintainers, promoted lazily the first time a delta affects a
    /// view. Invariant: every warm maintainer's adjacency mirrors the
    /// store's *current* graph — unaffected views get adjacency-only
    /// patches on every delta.
    warm: HashMap<u64, IncrementalView>,
}

/// FNV-1a over a view id: decorrelates consecutive ids so round-robin
/// registration still spreads across shards.
fn shard_hash(id: u64) -> u64 {
    crate::fnv::fnv1a(&id.to_le_bytes())
}

impl ViewStore {
    /// An empty store for graph `g` with `shards` shards (minimum 1).
    pub fn for_graph(g: &DataGraph, shards: usize) -> Self {
        Self::with_fingerprint(
            graph_fingerprint(g),
            Some(gpv_graph::stats::stats(g)),
            shards,
        )
    }

    fn with_fingerprint(fp: u64, stats: Option<GraphStats>, shards: usize) -> Self {
        let n = shards.max(1);
        let empty = Arc::new(StoreSnapshot {
            version: 0,
            fingerprint: view_set_fingerprint(&[]),
            graph_fingerprint: fp,
            graph_epoch: 0,
            graph_stats: stats.clone(),
            views: Vec::new(),
            epochs: Vec::new(),
            view_set: Arc::new(ViewSet::new(Vec::new())),
            extensions: Arc::new(ViewExtensions {
                extensions: Vec::new(),
            }),
        });
        ViewStore {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            next_id: AtomicU64::new(0),
            version: AtomicU64::new(0),
            graph_fingerprint: AtomicU64::new(fp),
            graph_epoch: AtomicU64::new(0),
            graph_stats: stats,
            published: RwLock::new(empty),
            writer: Mutex::new(WriterState::default()),
        }
    }

    /// Materializes `views` over `g` into a fresh store. (No per-view
    /// fingerprint checks — the store is built for `g` by construction;
    /// the public [`Self::insert`] path keeps the check.)
    pub fn materialize(views: ViewSet, g: &DataGraph, shards: usize) -> Self {
        let store = Self::for_graph(g, shards);
        for (_, def) in views.iter() {
            let ext = match_pattern(&def.pattern, g);
            store.insert_raw(def.clone(), Arc::new(CompactView::freeze(&ext)));
        }
        store.publish(false);
        store
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total views across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").views.len())
            .sum()
    }

    /// Whether the store holds no views.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fingerprint of the graph this store currently materializes against
    /// (moves when [`Self::apply_delta`] mutates the edge set).
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fingerprint.load(Ordering::Acquire)
    }

    /// Version of the last applied edge delta (0 if the graph never
    /// changed). Plans that read `G` fold this into their cache keys.
    pub fn graph_epoch(&self) -> u64 {
        self.graph_epoch.load(Ordering::Acquire)
    }

    /// Statistics of that graph, captured at construction.
    pub fn graph_stats(&self) -> Option<&GraphStats> {
        self.graph_stats.as_ref()
    }

    /// The store's mutation counter: bumped on every insert/remove, stable
    /// across reads. Snapshot consumers compare it to decide whether a
    /// cached engine is still current.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn shard_of(&self, id: u64) -> usize {
        (shard_hash(id) % self.shards.len() as u64) as usize
    }

    /// Materializes `def` over `g` and registers it, returning its stable
    /// id. The materialization work runs before any lock is taken.
    pub fn insert(&self, def: ViewDef, g: &DataGraph) -> Result<u64, StoreError> {
        let actual = graph_fingerprint(g);
        let expected = self.graph_fingerprint();
        if actual != expected {
            return Err(StoreError::GraphMismatch { expected, actual });
        }
        let ext = match_pattern(&def.pattern, g);
        Ok(self.insert_materialized(def, ext))
    }

    /// Registers an already-materialized extension (e.g. from a loaded
    /// cache), freezing it into its columnar arena region. The caller
    /// asserts `ext = def(G)` for this store's graph.
    pub fn insert_materialized(&self, def: ViewDef, ext: MatchResult) -> u64 {
        self.insert_shared(def, Arc::new(CompactView::freeze(&ext)))
    }

    /// [`Self::insert_materialized`] for a region that is already frozen
    /// and shared — registration keeps the `Arc`, so no pairs are copied.
    pub fn insert_shared(&self, def: ViewDef, ext: Arc<CompactView>) -> u64 {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let id = self.insert_raw(def, ext);
        self.publish(false);
        id
    }

    /// Shard insertion without publication: the bulk-load path
    /// (`materialize`, `load_from_dir`) registers every view
    /// first and publishes one snapshot at the end, keeping construction
    /// O(n) instead of O(n²). The new view's epoch is the post-insert
    /// version.
    fn insert_raw(&self, def: ViewDef, ext: Arc<CompactView>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let epoch = self.version.fetch_add(1, Ordering::Release) + 1;
        let stored = Arc::new(StoredView {
            id,
            def,
            ext,
            epoch,
        });
        let shard = self.shard_of(id);
        self.shards[shard]
            .write()
            .expect("shard lock poisoned")
            .views
            .push(stored);
        id
    }

    /// Registers a view under an explicit stable id — the shard loader's
    /// path, which must reproduce the saved store's id → shard routing
    /// exactly. Does not advance `next_id`; the caller restores the
    /// watermark from the metadata.
    fn insert_with_id(&self, id: u64, def: ViewDef, ext: Arc<CompactView>) {
        let epoch = self.version.fetch_add(1, Ordering::Release) + 1;
        let stored = Arc::new(StoredView {
            id,
            def,
            ext,
            epoch,
        });
        let shard = self.shard_of(id);
        self.shards[shard]
            .write()
            .expect("shard lock poisoned")
            .views
            .push(stored);
    }

    /// Persists the store to `dir` as `meta.json` plus one flat
    /// `shard-NNNN.bin` per shard (see [`crate::shard`] for the byte
    /// layout). The write is deterministic — views in id order, names
    /// interned in first-appearance order — so save → load → save
    /// reproduces byte-identical files (pinned by tests).
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), ShardError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snap = self.snapshot();
        let fp = self.graph_fingerprint();
        for (i, _) in self.shards.iter().enumerate() {
            let mine: Vec<(u64, &ViewDef, &CompactView)> = snap
                .views()
                .iter()
                .filter(|v| self.shard_of(v.id) == i)
                .map(|v| (v.id, &v.def, &*v.ext))
                .collect();
            let bytes = encode_shard(&mine, fp);
            std::fs::write(dir.join(format!("shard-{i:04}.bin")), bytes)?;
        }
        let meta = StoreMeta {
            format_version: SHARD_VERSION,
            shard_count: self.shards.len() as u32,
            graph_fingerprint: fp,
            next_id: self.next_id.load(Ordering::Relaxed),
            graph_stats: self.graph_stats.clone(),
        };
        std::fs::write(dir.join("meta.json"), serde_json::to_string(&meta)?)?;
        Ok(())
    }

    /// Loads a store saved by [`Self::save_to_dir`]: reads `meta.json`,
    /// then decodes every shard file (validating magic, version, checksum
    /// and structure — a corrupt file is a clean error, never a panic) into
    /// a store with the saved shard count and stable ids.
    pub fn load_from_dir(dir: impl AsRef<Path>) -> Result<Self, ShardError> {
        let dir = dir.as_ref();
        let meta_raw = std::fs::read_to_string(dir.join("meta.json"))?;
        let meta: StoreMeta = serde_json::from_str(&meta_raw)?;
        if meta.format_version != SHARD_VERSION {
            return Err(ShardError::BadVersion(meta.format_version));
        }
        let store = Self::with_fingerprint(
            meta.graph_fingerprint,
            meta.graph_stats.clone(),
            meta.shard_count as usize,
        );
        let mut max_id: Option<u64> = None;
        for i in 0..meta.shard_count as usize {
            let bytes = std::fs::read(dir.join(format!("shard-{i:04}.bin")))?;
            let contents = decode_shard(&bytes)?;
            if contents.graph_fingerprint != meta.graph_fingerprint {
                return Err(ShardError::GraphMismatch {
                    expected: meta.graph_fingerprint,
                    actual: contents.graph_fingerprint,
                });
            }
            for (id, def, ext) in contents.views {
                max_id = Some(max_id.map_or(id, |m| m.max(id)));
                store.insert_with_id(id, def, Arc::new(ext));
            }
        }
        // Never hand out an id at or below a loaded one, even if the saved
        // watermark is inconsistent.
        let floor = max_id.map_or(0, |m| m + 1);
        store
            .next_id
            .store(meta.next_id.max(floor), Ordering::Relaxed);
        store.publish(false);
        Ok(store)
    }

    /// Eviction advice: the resident views whose ids are *not* in
    /// `needed_ids` (e.g. the views a workload advisor selected), ranked by
    /// resident arena bytes descending — evicting from the top frees the
    /// most memory while keeping every view the workload reads.
    pub fn eviction_advice(&self, needed_ids: &[u64]) -> Vec<EvictionAdvice> {
        let needed: std::collections::HashSet<u64> = needed_ids.iter().copied().collect();
        let mut advice: Vec<EvictionAdvice> = self
            .snapshot()
            .views()
            .iter()
            .filter(|v| !needed.contains(&v.id))
            .map(|v| EvictionAdvice {
                id: v.id,
                name: v.def.name.clone(),
                pairs: v.ext.size() as u64,
                resident_bytes: v.ext.resident_bytes(),
            })
            .collect();
        advice.sort_by(|a, b| {
            b.resident_bytes
                .cmp(&a.resident_bytes)
                .then(a.id.cmp(&b.id))
        });
        advice
    }

    /// Retires the view with stable id `id`; returns it if it was present.
    pub fn remove(&self, id: u64) -> Option<Arc<StoredView>> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let shard = self.shard_of(id);
        let removed = {
            let mut guard = self.shards[shard].write().expect("shard lock poisoned");
            let pos = guard.views.iter().position(|v| v.id == id)?;
            guard.views.remove(pos)
        };
        writer.warm.remove(&id);
        self.version.fetch_add(1, Ordering::Release);
        self.publish(false);
        Some(removed)
    }

    /// The view with stable id `id`, if resident.
    pub fn get(&self, id: u64) -> Option<Arc<StoredView>> {
        self.shards[self.shard_of(id)]
            .read()
            .expect("shard lock poisoned")
            .views
            .iter()
            .find(|v| v.id == id)
            .cloned()
    }

    /// Per-shard occupancy (views and materialized pairs per shard).
    pub fn occupancy(&self) -> Vec<ShardOccupancy> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let guard = s.read().expect("shard lock poisoned");
                ShardOccupancy {
                    shard: i,
                    views: guard.views.len(),
                    pairs: guard.views.iter().map(|v| v.ext.size() as u64).sum(),
                }
            })
            .collect()
    }

    /// The current published MVCC snapshot: `Arc` handles to every resident
    /// view, ordered by stable id. This is a pointer clone — no shard lock
    /// is touched, and a writer mid-mutation never tears what readers see
    /// (the next snapshot appears only when its publish completes).
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.published
            .read()
            .expect("published snapshot lock poisoned")
            .clone()
    }

    /// Assembles and publishes a fresh snapshot from the shards. Called at
    /// the end of every mutation (under [`Self::writer`] for concurrent
    /// paths; bulk constructors call it once after loading).
    /// `same_members` says the mutation kept every id and definition (an
    /// edge delta): the previous snapshot's view-set fingerprint and
    /// positional [`ViewSet`] are then reused instead of re-serializing
    /// every pattern.
    fn publish(&self, same_members: bool) {
        let version = self.version();
        let mut views: Vec<Arc<StoredView>> = Vec::with_capacity(self.len());
        for s in &self.shards {
            views.extend(s.read().expect("shard lock poisoned").views.iter().cloned());
        }
        views.sort_by_key(|v| v.id);
        // Assembled once per publish (i.e. once per store version) and then
        // shared by `Arc` into every engine built from it: the positional
        // view set clones the (small) definitions, the extensions clone one
        // `Arc` per view — never the materialized pairs. A rebuild after a
        // mutation therefore costs O(card(V)), not O(|V(G)|).
        let (fingerprint, view_set) = if same_members {
            let prev = self.snapshot();
            (prev.fingerprint, prev.view_set.clone())
        } else {
            let defs = views.iter().map(|v| v.def.clone()).collect();
            (view_set_fingerprint(&views), Arc::new(ViewSet::new(defs)))
        };
        let extensions = Arc::new(ViewExtensions {
            extensions: views.iter().map(|v| v.ext.clone()).collect(),
        });
        let epochs = views.iter().map(|v| v.epoch).collect();
        let snap = Arc::new(StoreSnapshot {
            version,
            fingerprint,
            graph_fingerprint: self.graph_fingerprint(),
            graph_epoch: self.graph_epoch(),
            graph_stats: self.graph_stats.clone(),
            views,
            epochs,
            view_set,
            extensions,
        });
        *self
            .published
            .write()
            .expect("published snapshot lock poisoned") = snap;
    }

    /// Applies an edge-delta batch to the store's graph and incrementally
    /// maintains every affected view — the serving path never pays a full
    /// rebuild.
    ///
    /// `current` must be the store's present graph. The pipeline, all under
    /// the writer mutex:
    ///
    /// 1. check `current`'s [`graph_fingerprint`] (`O(1)`) against the
    ///    store's — so of two deltas racing against the same `current`,
    ///    exactly one is applied and the other fails with
    ///    [`StoreError::GraphMismatch`] — and validate delta endpoints
    ///    against the node set;
    /// 2. splice the post-delta graph ([`EdgeDelta::apply_to`]) and detect
    ///    affected views via the [`ViewFootprintIndex`];
    /// 3. patch the adjacency mirror of every *unaffected* warm maintainer
    ///    (their results provably cannot change — see [`crate::delta`]);
    /// 4. route each affected view through its warm [`IncrementalView`]
    ///    (promoting a cold one directly from the post-delta graph),
    ///    re-freezing only extensions whose content actually changed and
    ///    stamping those with the new version as their epoch;
    /// 5. bump the version, move the graph fingerprint and
    ///    [`graph_epoch`](Self::graph_epoch), and publish one new snapshot.
    ///
    /// In-flight readers keep serving the previous snapshot throughout.
    pub fn apply_delta(
        &self,
        delta: &EdgeDelta,
        current: &DataGraph,
    ) -> Result<DeltaReport, StoreError> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let actual = graph_fingerprint(current);
        let expected = self.graph_fingerprint();
        if actual != expected {
            return Err(StoreError::GraphMismatch { expected, actual });
        }
        delta.validate(current)?;
        let next = delta.apply_to(current);

        // Current membership, id-ordered (shards only read under the writer
        // mutex, so this is a consistent view).
        let mut resident: Vec<Arc<StoredView>> = Vec::with_capacity(self.len());
        for s in &self.shards {
            resident.extend(s.read().expect("shard lock poisoned").views.iter().cloned());
        }
        resident.sort_by_key(|v| v.id);
        let resident_ids: HashSet<u64> = resident.iter().map(|v| v.id).collect();
        writer.warm.retain(|id, _| resident_ids.contains(id));

        let index = ViewFootprintIndex::build(resident.iter().map(|v| (v.id, &v.def)), current);
        let affected = index.affected(delta, current);
        let affected_set: HashSet<u64> = affected.iter().copied().collect();

        // Unaffected warm maintainers still track the evolving edge set —
        // adjacency-only, no candidate/support work.
        for (id, m) in writer.warm.iter_mut() {
            if !affected_set.contains(id) {
                m.patch_adjacency(&delta.deletes, &delta.inserts);
            }
        }

        let new_version = self.version.load(Ordering::Acquire) + 1;
        let mut changed = Vec::new();
        for v in resident.iter().filter(|v| affected_set.contains(&v.id)) {
            // Cold maintainers are promoted straight from the stored
            // (pre-delta) extension — the relation is already known, so no
            // refinement fixpoint runs even on the first delta.
            let m = writer.warm.entry(v.id).or_insert_with(|| {
                IncrementalView::from_result(v.def.pattern.clone(), current, &v.ext.thaw())
            });
            m.apply_batch(&delta.deletes, &delta.inserts);
            if !m.take_dirty() {
                // The maintainer proved its extension unchanged: skip the
                // result extraction and re-freeze outright.
                continue;
            }
            let ext = CompactView::freeze(&m.result());
            if ext.content_eq(&v.ext) {
                continue; // identical result: keep the old arena Arc + epoch
            }
            let shard = self.shard_of(v.id);
            let mut guard = self.shards[shard].write().expect("shard lock poisoned");
            let pos = guard
                .views
                .iter()
                .position(|s| s.id == v.id)
                .expect("resident view present in its shard");
            guard.views[pos] = Arc::new(StoredView {
                id: v.id,
                def: v.def.clone(),
                ext: Arc::new(ext),
                epoch: new_version,
            });
            drop(guard);
            changed.push(v.id);
        }

        self.graph_fingerprint
            .store(graph_fingerprint(&next), Ordering::Release);
        self.graph_epoch.store(new_version, Ordering::Release);
        self.version.store(new_version, Ordering::Release);
        self.publish(true);
        let unaffected = resident.len() - affected.len();
        Ok(DeltaReport {
            graph: next,
            version: new_version,
            affected,
            changed,
            unaffected,
        })
    }
}

/// Fingerprint of a snapshot's view membership: FNV-1a over each view's
/// stable id and definition. Two snapshots with the same fingerprint plan
/// identically (same graph presumed), which is what makes it a sound plan
/// cache key component.
fn view_set_fingerprint(views: &[Arc<StoredView>]) -> u64 {
    let mut h = crate::fnv::Fnv1a::new();
    for v in views {
        h.write(&v.id.to_le_bytes());
        h.write(v.def.name.as_bytes());
        h.write(
            serde_json::to_string(&v.def.pattern)
                .expect("patterns serialize")
                .as_bytes(),
        );
    }
    h.finish()
}

/// An immutable, lock-free view of the store at one version: what the
/// serving layer plans and executes against.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// Store version this snapshot was taken at.
    pub version: u64,
    /// Fingerprint of the view membership (plan-cache key component).
    pub fingerprint: u64,
    /// Fingerprint of the underlying graph *as of this snapshot* — moves
    /// when a delta is applied.
    pub graph_fingerprint: u64,
    /// Version of the last applied edge delta (0 = graph never mutated).
    /// Cache keys for plans that read `G` fold this in, so a delta
    /// invalidates exactly the graph-reading answers.
    pub graph_epoch: u64,
    /// Graph statistics captured at store construction.
    pub graph_stats: Option<GraphStats>,
    views: Vec<Arc<StoredView>>,
    /// Position-aligned with `views`: `epochs[i]` is view `i`'s epoch.
    epochs: Vec<u64>,
    view_set: Arc<ViewSet>,
    extensions: Arc<ViewExtensions>,
}

impl StoreSnapshot {
    /// The snapshot's views in stable-id order.
    pub fn views(&self) -> &[Arc<StoredView>] {
        &self.views
    }

    /// Per-view epochs, position-aligned with [`views`](Self::views) (and
    /// therefore with the positional indices a
    /// [`QueryPlan`](crate::plan::QueryPlan) uses): `epochs()[i]` is the
    /// store version at which view `i`'s extension last changed.
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// Stable ids in snapshot order: `ids()[i]` is the store id of the view
    /// a [`QueryPlan`](crate::plan::QueryPlan) calls view `i`.
    pub fn ids(&self) -> Vec<u64> {
        self.views.iter().map(|v| v.id).collect()
    }

    /// The positional [`ViewSet`] the planner consumes, assembled once at
    /// snapshot time and shared by `Arc` (cloning the handle is O(1)).
    pub fn view_set(&self) -> Arc<ViewSet> {
        self.view_set.clone()
    }

    /// The positional [`ViewExtensions`] the executor reads, assembled once
    /// at snapshot time. The handle — and every per-view extension inside
    /// it — is `Arc`-shared with the store, so this never copies pairs
    /// (the old deep-copy per engine rebuild is gone; `tests/service.rs`
    /// pins it with `Arc::ptr_eq`).
    pub fn extensions(&self) -> Arc<ViewExtensions> {
        self.extensions.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    fn single(x: &str, y: &str) -> gpv_pattern::Pattern {
        let mut b = PatternBuilder::new();
        let u = b.node_labeled(x);
        let v = b.node_labeled(y);
        b.edge(u, v);
        b.build().unwrap()
    }

    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let x = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        b.add_edge(a, x);
        b.add_edge(x, c);
        b.build()
    }

    fn two_views() -> ViewSet {
        ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vbc", single("B", "C")),
        ])
    }

    #[test]
    fn snapshot_deterministic_across_shard_counts() {
        let g = graph();
        for shards in [1, 2, 4, 16] {
            let store = ViewStore::materialize(two_views(), &g, shards);
            assert_eq!(store.shard_count(), shards);
            assert_eq!(store.len(), 2);
            let snap = store.snapshot();
            assert_eq!(snap.ids(), vec![0, 1]);
            assert_eq!(snap.view_set().get(0).name, "vab");
            assert_eq!(snap.view_set().get(1).name, "vbc");
            assert_eq!(snap.extensions().extensions.len(), 2);
        }
    }

    #[test]
    fn fingerprint_tracks_membership_not_sharding() {
        let g = graph();
        let a = ViewStore::materialize(two_views(), &g, 2);
        let b = ViewStore::materialize(two_views(), &g, 8);
        assert_eq!(a.snapshot().fingerprint, b.snapshot().fingerprint);
        a.insert(ViewDef::new("extra", single("A", "B")), &g)
            .unwrap();
        assert_ne!(a.snapshot().fingerprint, b.snapshot().fingerprint);
    }

    #[test]
    fn insert_remove_bump_version_and_route_by_id() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 4);
        let v0 = store.version();
        let id = store
            .insert(ViewDef::new("vxx", single("A", "C")), &g)
            .unwrap();
        assert!(store.version() > v0);
        assert_eq!(store.get(id).unwrap().def.name, "vxx");
        let removed = store.remove(id).unwrap();
        assert_eq!(removed.def.name, "vxx");
        assert!(store.get(id).is_none());
        assert!(store.remove(id).is_none());
        assert_eq!(store.len(), 2);
    }

    /// Shard-count edge case: `shards == 0` must clamp to 1 everywhere a
    /// store is constructed — otherwise `shard_of`'s `% self.shards.len()`
    /// panics with a division by zero on the first insert or lookup.
    #[test]
    fn zero_shards_clamps_to_one() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 0);
        assert_eq!(store.shard_count(), 1);
        assert_eq!(store.len(), 2);
        let id = store
            .insert(ViewDef::new("vxx", single("A", "C")), &g)
            .unwrap();
        assert!(store.get(id).is_some());
        assert_eq!(store.snapshot().ids().len(), 3);

        let empty = ViewStore::for_graph(&g, 0);
        assert_eq!(empty.shard_count(), 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn insert_rejects_other_graph() {
        let g = graph();
        let store = ViewStore::for_graph(&g, 2);
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let other = b.build();
        assert!(matches!(
            store.insert(ViewDef::new("v", single("X", "Y")), &other),
            Err(StoreError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn occupancy_sums_to_store_contents() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 4);
        let occ = store.occupancy();
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.iter().map(|o| o.views).sum::<usize>(), 2);
        let total_pairs: u64 = occ.iter().map(|o| o.pairs).sum();
        assert_eq!(total_pairs, store.snapshot().extensions().size() as u64);
    }

    fn temp_store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gpv-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip_is_byte_identical() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 4);
        let dir = temp_store_dir("roundtrip");
        store.save_to_dir(&dir).unwrap();

        let loaded = ViewStore::load_from_dir(&dir).unwrap();
        assert_eq!(loaded.shard_count(), store.shard_count());
        let (a, b) = (store.snapshot(), loaded.snapshot());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.ids(), b.ids());
        assert_eq!(a.view_set().views(), b.view_set().views());
        assert_eq!(a.extensions().extensions, b.extensions().extensions);

        // Save → load → save is byte-identical file by file: encode order
        // is ascending-id and name interning is first-appearance, so the
        // format is deterministic, not merely value-preserving.
        let dir2 = temp_store_dir("roundtrip2");
        loaded.save_to_dir(&dir2).unwrap();
        for i in 0..store.shard_count() {
            let name = format!("shard-{i:04}.bin");
            assert_eq!(
                std::fs::read(dir.join(&name)).unwrap(),
                std::fs::read(dir2.join(&name)).unwrap(),
                "{name} differs across save → load → save"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn reload_preserves_id_watermark() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 2);
        let id = store
            .insert(ViewDef::new("vxx", single("A", "C")), &g)
            .unwrap();
        store.remove(id).unwrap();
        let dir = temp_store_dir("watermark");
        store.save_to_dir(&dir).unwrap();

        let loaded = ViewStore::load_from_dir(&dir).unwrap();
        let fresh = loaded
            .insert(ViewDef::new("vyy", single("A", "B")), &g)
            .unwrap();
        assert!(
            fresh > id,
            "reload reused id {id} (fresh insert got {fresh})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_shards_from_another_graph() {
        let g = graph();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let other = b.build();

        let dir_a = temp_store_dir("mix-a");
        let dir_b = temp_store_dir("mix-b");
        ViewStore::materialize(two_views(), &g, 2)
            .save_to_dir(&dir_a)
            .unwrap();
        ViewStore::materialize(
            ViewSet::new(vec![ViewDef::new("vxy", single("X", "Y"))]),
            &other,
            2,
        )
        .save_to_dir(&dir_b)
        .unwrap();

        // Shard files from one graph under the other's meta.json: the
        // per-shard fingerprint check must refuse to mix them.
        std::fs::copy(dir_b.join("meta.json"), dir_a.join("meta.json")).unwrap();
        assert!(matches!(
            ViewStore::load_from_dir(&dir_a),
            Err(ShardError::GraphMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn load_reports_truncated_shard_cleanly() {
        let g = graph();
        let dir = temp_store_dir("trunc");
        ViewStore::materialize(two_views(), &g, 1)
            .save_to_dir(&dir)
            .unwrap();
        let path = dir.join("shard-0000.bin");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(ViewStore::load_from_dir(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_advice_ranks_unneeded_views_by_bytes() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 2);
        let ids = store.snapshot().ids();

        // The workload needs the first view: advice lists only the second.
        let advice = store.eviction_advice(&ids[..1]);
        assert_eq!(advice.len(), 1);
        assert_eq!(advice[0].id, ids[1]);

        // A workload needing nothing lists everything, biggest first.
        let all = store.eviction_advice(&[]);
        assert_eq!(all.len(), 2);
        assert!(all[0].resident_bytes >= all[1].resident_bytes);
    }

    #[test]
    fn concurrent_inserts_land_once() {
        let g = graph();
        let store = ViewStore::for_graph(&g, 8);
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                let g = &g;
                s.spawn(move || {
                    for i in 0..8 {
                        store
                            .insert(ViewDef::new(format!("v{t}-{i}"), single("A", "B")), g)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.len(), 32);
        let snap = store.snapshot();
        let ids = snap.ids();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "ids unique and snapshot id-ordered");
    }

    use crate::delta::EdgeDelta;
    use gpv_graph::NodeId;

    #[test]
    fn apply_delta_maintains_only_affected_views() {
        // Graph: A -> B -> C plus two D nodes with an edge between them.
        let mut b = GraphBuilder::new();
        let a = b.add_node(["A"]);
        let x = b.add_node(["B"]);
        let c = b.add_node(["C"]);
        let d1 = b.add_node(["D"]);
        let d2 = b.add_node(["D"]);
        b.add_edge(a, x);
        b.add_edge(x, c);
        b.add_edge(d1, d2);
        let g = b.build();
        let views = ViewSet::new(vec![
            ViewDef::new("vab", single("A", "B")),
            ViewDef::new("vdd", single("D", "D")),
        ]);
        let store = ViewStore::materialize(views, &g, 2);
        let before = store.snapshot();

        // Delete the D -> D edge: only vdd is affected.
        let delta = EdgeDelta::new(vec![], vec![(d1, d2)]);
        let report = store.apply_delta(&delta, &g).unwrap();
        assert_eq!(report.affected, vec![1]);
        assert_eq!(report.changed, vec![1]);
        assert_eq!(report.unaffected, 1);
        assert!(!report.graph.has_edge(d1, d2));

        let after = store.snapshot();
        // The untouched view's arena region survived verbatim (same Arc),
        // and its epoch did not move; the maintained view re-froze.
        assert!(Arc::ptr_eq(&before.views()[0].ext, &after.views()[0].ext));
        assert_eq!(before.epochs()[0], after.epochs()[0]);
        assert!(after.epochs()[1] > before.epochs()[1]);
        assert_eq!(after.epochs()[1], report.version);
        assert_eq!(after.graph_epoch, report.version);
        assert!(after.views()[1].ext.is_empty(), "vdd lost its only match");

        // The extension now equals a from-scratch materialization, and the
        // store accepts the post-delta graph for further mutation.
        let oracle = CompactView::freeze(&gpv_matching::simulation::match_pattern(
            &single("D", "D"),
            &report.graph,
        ));
        assert!(after.views()[1].ext.content_eq(&oracle));
        assert_eq!(store.graph_fingerprint(), graph_fingerprint(&report.graph));
        store
            .insert(ViewDef::new("vbc", single("B", "C")), &report.graph)
            .unwrap();
    }

    #[test]
    fn apply_delta_insert_revives_view_and_reuses_warm_maintainer() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 2);
        // Delete A -> B, then re-insert it: vab goes empty and comes back.
        let d1 = EdgeDelta::new(vec![], vec![(NodeId(0), NodeId(1))]);
        let r1 = store.apply_delta(&d1, &g).unwrap();
        assert!(store.snapshot().views()[0].ext.is_empty());
        let d2 = EdgeDelta::new(vec![(NodeId(0), NodeId(1))], vec![]);
        let r2 = store.apply_delta(&d2, &r1.graph).unwrap();
        assert_eq!(r2.changed, vec![0]);
        let snap = store.snapshot();
        let oracle = CompactView::freeze(&gpv_matching::simulation::match_pattern(
            &single("A", "B"),
            &r2.graph,
        ));
        assert!(snap.views()[0].ext.content_eq(&oracle));
        assert_eq!(
            store.graph_fingerprint(),
            graph_fingerprint(&g),
            "round trip"
        );
    }

    #[test]
    fn apply_delta_no_op_keeps_every_epoch() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 2);
        let before = store.snapshot();
        // Deleting a non-existent edge between labeled endpoints: affected
        // views re-check but nothing changes — every Arc and epoch survives.
        let delta = EdgeDelta::new(vec![], vec![(NodeId(0), NodeId(2))]);
        let report = store.apply_delta(&delta, &g).unwrap();
        assert!(report.changed.is_empty());
        let after = store.snapshot();
        for i in 0..2 {
            assert!(Arc::ptr_eq(&before.views()[i].ext, &after.views()[i].ext));
            assert_eq!(before.epochs()[i], after.epochs()[i]);
        }
        // The graph epoch still moves: G's edge set is only textually the
        // same because the delete missed, but the version must reflect that
        // a delta was processed.
        assert_eq!(after.graph_epoch, report.version);
    }

    #[test]
    fn apply_delta_rejects_bad_nodes_and_wrong_graph() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 2);
        let v_before = store.version();
        let bad = EdgeDelta::new(vec![(NodeId(0), NodeId(42))], vec![]);
        assert!(matches!(
            store.apply_delta(&bad, &g),
            Err(StoreError::NodeOutOfRange {
                node: NodeId(42),
                node_count: 3
            })
        ));
        assert_eq!(store.version(), v_before, "failed delta mutates nothing");

        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let other = b.build();
        let ok = EdgeDelta::new(vec![(NodeId(0), NodeId(1))], vec![]);
        assert!(matches!(
            store.apply_delta(&ok, &other),
            Err(StoreError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn racing_deltas_against_one_graph_admit_exactly_one() {
        // Two writers each apply a different 1-edge delta to the same
        // `current`. The graph check runs under the writer lock, so the
        // second to take it sees the moved fingerprint and is refused
        // instead of applying its delta to a stale graph.
        let g = graph();
        let deltas = [
            EdgeDelta::new(vec![(NodeId(2), NodeId(0))], vec![]),
            EdgeDelta::new(vec![], vec![(NodeId(0), NodeId(1))]),
        ];
        for _ in 0..10 {
            let store = ViewStore::materialize(two_views(), &g, 2);
            let barrier = std::sync::Barrier::new(2);
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = deltas
                    .iter()
                    .map(|d| {
                        let (store, barrier, g) = (&store, &barrier, &g);
                        s.spawn(move || {
                            barrier.wait();
                            store.apply_delta(d, g)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let winners: Vec<&DeltaReport> =
                results.iter().filter_map(|r| r.as_ref().ok()).collect();
            assert_eq!(winners.len(), 1, "exactly one racing delta is applied");
            assert!(results
                .iter()
                .any(|r| matches!(r, Err(StoreError::GraphMismatch { .. }))));
            assert_eq!(
                store.graph_fingerprint(),
                graph_fingerprint(&winners[0].graph)
            );
            assert_eq!(store.version(), winners[0].version);
        }
    }

    #[test]
    fn apply_delta_reuses_the_view_set_it_cannot_change() {
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 2);
        let before = store.snapshot();
        let delta = EdgeDelta::new(vec![], vec![(NodeId(0), NodeId(1))]);
        store.apply_delta(&delta, &g).unwrap();
        let after = store.snapshot();
        assert_eq!(after.fingerprint, before.fingerprint);
        assert!(Arc::ptr_eq(&after.view_set(), &before.view_set()));
        assert!(!Arc::ptr_eq(&after.extensions(), &before.extensions()));
    }

    #[test]
    fn snapshot_is_published_not_torn() {
        // snapshot() must be a pointer clone of the last published state:
        // two calls with no intervening mutation return the same Arc.
        let g = graph();
        let store = ViewStore::materialize(two_views(), &g, 4);
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
        store
            .insert(ViewDef::new("vac", single("A", "C")), &g)
            .unwrap();
        let c = store.snapshot();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.ids().len(), 3);
        // The old snapshot keeps serving its own consistent world.
        assert_eq!(a.ids().len(), 2);
    }
}
