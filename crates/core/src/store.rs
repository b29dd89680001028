//! Concurrently-writable view storage: one published snapshot.
//!
//! A [`QueryEngine`](crate::engine::QueryEngine) owns one monolithic view
//! registry. That is fine for a single-threaded CLI run but not for a
//! serving process where many threads read views while others register or
//! retire them. [`ViewStore`] is the concurrent representation. Its whole
//! state is one published [`StoreSnapshot`]: the id-ordered views and their
//! epochs, the version, the graph's fingerprint and epoch, and the id
//! watermark. Nothing else in the store mirrors those values.
//!
//! Concurrency contract (MVCC):
//!
//! * **Writes** (insert / remove / [`ViewStore::apply_delta`]) serialize on
//!   one writer mutex, derive the successor of the published snapshot, and
//!   swap it in behind an `Arc`;
//! * **Reads never block on writers**: [`ViewStore::snapshot`] clones the
//!   published `Arc`, and every accessor ([`ViewStore::len`],
//!   [`ViewStore::get`], [`ViewStore::version`], ...) reads one snapshot.
//!   In-flight readers keep serving whatever snapshot they hold while a
//!   writer prepares the next one, and a half-applied delta is never
//!   observable;
//! * **The query hot path holds no locks at all**: execution works off a
//!   snapshot — a consistent, immutable set of `Arc`-shared views. The
//!   serving layer ([`crate::service::ViewService`]) rebuilds its
//!   [`QueryEngine`](crate::engine::QueryEngine) only when the snapshot's
//!   version moves, so steady-state query traffic is entirely lock-free.
//!
//! The store is keyed by *stable ids* (monotonic `u64`s handed out at
//! registration) rather than the positional indices of
//! [`ViewSet`]: positions shift when views are
//! retired, ids never do. Snapshots order views by id, so planning and
//! execution are deterministic. The store's shard count only routes views
//! to the `shard-NNNN.bin` files [`ViewStore::save_to_dir`] writes (by a
//! hash of the id); in memory there is one view list.
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
use crate::matchjoin::Simulation;
use crate::partial::{BaseSets, GraphSource};
use crate::shard::{decode_shard, encode_shard, ShardError, StoreMeta, SHARD_VERSION};
use crate::storage::graph_fingerprint;
use crate::view::{materialize, ViewDef, ViewExtensions, ViewSet};
use gpv_graph::stats::GraphStats;
use gpv_graph::{DataGraph, NodeId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// One materialized view as stored: its stable id, definition and cached
/// extension, shared by `Arc` between successive snapshots.
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

/// Occupancy of one shard file — how many views
/// [`ViewStore::save_to_dir`] routes to it and how many materialized pairs
/// they carry (the serving-layer stats surface this so skew is visible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Shard index.
    pub shard: usize,
    /// Views routed to this shard.
    pub views: usize,
    /// Total materialized match pairs across those views.
    pub pairs: u64,
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

/// A concurrently-writable registry of materialized views.
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
    /// How many `shard-NNNN.bin` files [`Self::save_to_dir`] writes
    /// (minimum 1).
    shards: usize,
    /// The store's state: always fully assembled and internally
    /// consistent. Readers clone the `Arc`; only a mutation (under
    /// [`Self::writer`]) replaces it.
    published: RwLock<Arc<StoreSnapshot>>,
    /// Serializes all mutations and owns the caches they reuse. Holding it
    /// from reading the published snapshot to swapping in its successor is
    /// what makes half-applied mutations unobservable.
    writer: Mutex<WriterState>,
}

#[derive(Debug, Default)]
struct WriterState {
    /// Warm maintainers, promoted lazily the first time a delta affects a
    /// view. Invariant: every warm maintainer mirrors the store's *current*
    /// graph's edges within its footprint (see [`crate::maintenance`]).
    ///
    /// Only affected views need a mutation to keep that invariant. A view
    /// the [`ViewFootprintIndex`] reports unaffected has every pattern node
    /// label-constrained, and no touched endpoint holds one of those
    /// labels. An edge inside the view's footprint has both endpoints in
    /// base sets, and each base set lies inside the holders of its pattern
    /// node's label, so no edge of the delta lies in the footprint: the
    /// unaffected maintainer's state is already the post-delta state.
    warm: HashMap<u64, IncrementalView>,
    /// The affected-view detector and the view set it indexes. Rebuilt
    /// only when the published snapshot's `view_set` is another `Arc`:
    /// every membership change publishes a new one, while an edge delta
    /// reuses it (and never changes labels), so one index serves a whole
    /// delta chain.
    footprints: Option<(Arc<ViewSet>, ViewFootprintIndex)>,
    /// The base sets every promotion reads, resolved once per distinct
    /// predicate and shared by the maintainers that use it. Valid for the
    /// store's lifetime: its graph changes only by edge deltas, which never
    /// change node data. Pruned to the resident views' predicates when the
    /// footprint index is rebuilt for a new membership.
    bases: BaseSets,
}

/// FNV-1a over a view id: decorrelates consecutive ids so round-robin
/// registration still spreads across shards.
fn shard_hash(id: u64) -> u64 {
    crate::fnv::fnv1a(&id.to_le_bytes())
}

impl ViewStore {
    /// An empty store for graph `g` that saves `shards` shard files
    /// (minimum 1).
    pub fn for_graph(g: &DataGraph, shards: usize) -> Self {
        Self::materialize(ViewSet::new(Vec::new()), g, shards)
    }

    /// Materializes `views` over `g` into a fresh store. (No per-view
    /// fingerprint checks — the store is built for `g` by construction;
    /// the public [`Self::insert`] path keeps the check.)
    pub fn materialize(views: ViewSet, g: &DataGraph, shards: usize) -> Self {
        let exts = materialize(&views, g).extensions;
        let ids_defs = (0..).zip(views.views().iter().cloned());
        let stored = ids_defs.zip(exts).map(|((id, def), ext)| (id, def, ext));
        let stats = Some(gpv_graph::stats::stats(g));
        Self::load(shards, graph_fingerprint(g), stats, 0, stored.collect())
    }

    /// The one bulk constructor: a store at version `views.len()` whose
    /// views, sorted by id, carry epochs `1..=views.len()`. The id
    /// watermark is `next_id`, raised above every loaded id.
    fn load(
        shards: usize,
        graph_fingerprint: u64,
        graph_stats: Option<GraphStats>,
        next_id: u64,
        mut views: Vec<(u64, ViewDef, Arc<CompactView>)>,
    ) -> Self {
        views.sort_by_key(|v| v.0);
        let views: Vec<Arc<StoredView>> = (1..)
            .zip(views)
            .map(|(epoch, (id, def, ext))| {
                Arc::new(StoredView {
                    id,
                    def,
                    ext,
                    epoch,
                })
            })
            .collect();
        let empty = StoreSnapshot {
            version: 0,
            fingerprint: view_set_fingerprint(&[]),
            graph_fingerprint,
            graph_epoch: 0,
            graph_stats,
            // Never hand out an id at or below a loaded one, even if a
            // saved watermark is inconsistent.
            next_id: views.last().map_or(next_id, |v| next_id.max(v.id + 1)),
            views: Vec::new(),
            epochs: Vec::new(),
            view_set: Arc::new(ViewSet::new(Vec::new())),
            extensions: Arc::new(ViewExtensions {
                extensions: Vec::new(),
            }),
        };
        let snap = empty.successor(views.len() as u64, views);
        ViewStore {
            shards: shards.max(1),
            published: RwLock::new(Arc::new(snap)),
            writer: Mutex::new(WriterState::default()),
        }
    }

    /// Number of shard files [`Self::save_to_dir`] writes.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Total views in the store.
    pub fn len(&self) -> usize {
        self.snapshot().views.len()
    }

    /// Whether the store holds no views.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fingerprint of the graph this store currently materializes against
    /// (moves when [`Self::apply_delta`] mutates the edge set).
    pub fn graph_fingerprint(&self) -> u64 {
        self.snapshot().graph_fingerprint
    }

    /// The store's mutation counter: bumped on every insert/remove/delta,
    /// stable across reads. Snapshot consumers compare it to decide
    /// whether a cached engine is still current.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    fn shard_of(&self, id: u64) -> usize {
        (shard_hash(id) % self.shards as u64) as usize
    }

    /// Materializes `def` over `g` and registers it, returning its stable
    /// id. The materialization work runs before any lock is taken; the
    /// graph is checked again under the writer lock, so a delta that lands
    /// meanwhile makes the insert fail with
    /// [`StoreError::GraphMismatch`] instead of registering a view of the
    /// old graph.
    pub fn insert(&self, def: ViewDef, g: &DataGraph) -> Result<u64, StoreError> {
        let actual = graph_fingerprint(g);
        self.snapshot().check_graph(actual)?;
        let (ext, _) = GraphSource::new(g).simulate(&def.pattern, Simulation::Plain);
        self.register(def, Arc::new(CompactView::freeze(&ext)), Some(actual))
    }

    /// Registers an already-materialized, frozen extension (e.g. from a
    /// loaded cache) — registration keeps the `Arc`, so no pairs are
    /// copied. The caller asserts `ext = def(G)` for this store's graph.
    pub fn insert_shared(&self, def: ViewDef, ext: Arc<CompactView>) -> u64 {
        self.register(def, ext, None)
            .expect("registration without a graph check cannot fail")
    }

    /// The one registration path: under the writer lock, checks the graph
    /// fingerprint `graph` (when given) against the published snapshot and
    /// publishes its successor with the new view appended under the next
    /// id, at the next version, with that version as its epoch.
    fn register(
        &self,
        def: ViewDef,
        ext: Arc<CompactView>,
        graph: Option<u64>,
    ) -> Result<u64, StoreError> {
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let snap = self.snapshot();
        if let Some(actual) = graph {
            snap.check_graph(actual)?;
        }
        let (id, version) = (snap.next_id, snap.version + 1);
        let mut views = snap.views.clone();
        views.push(Arc::new(StoredView {
            id,
            def,
            ext,
            epoch: version,
        }));
        self.publish(StoreSnapshot {
            next_id: id + 1,
            ..snap.successor(version, views)
        });
        Ok(id)
    }

    /// Persists the store to `dir` as `meta.json` plus one flat
    /// `shard-NNNN.bin` per shard (see [`crate::shard`] for the byte
    /// layout); a view goes to shard `hash(id) % shards`. Everything
    /// written comes from one snapshot. The write is deterministic — views
    /// in id order, names interned in first-appearance order — so save →
    /// load → save reproduces byte-identical files (pinned by tests).
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), ShardError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snap = self.snapshot();
        for i in 0..self.shards {
            let mine: Vec<(u64, &ViewDef, &CompactView)> = snap
                .views
                .iter()
                .filter(|v| self.shard_of(v.id) == i)
                .map(|v| (v.id, &v.def, &*v.ext))
                .collect();
            let bytes = encode_shard(&mine, snap.graph_fingerprint);
            std::fs::write(dir.join(format!("shard-{i:04}.bin")), bytes)?;
        }
        let meta = StoreMeta {
            format_version: SHARD_VERSION,
            shard_count: self.shards as u32,
            graph_fingerprint: snap.graph_fingerprint,
            next_id: snap.next_id,
            graph_stats: snap.graph_stats.clone(),
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
        let mut views = Vec::new();
        for i in 0..meta.shard_count as usize {
            let bytes = std::fs::read(dir.join(format!("shard-{i:04}.bin")))?;
            let contents = decode_shard(&bytes)?;
            if contents.graph_fingerprint != meta.graph_fingerprint {
                return Err(ShardError::GraphMismatch {
                    expected: meta.graph_fingerprint,
                    actual: contents.graph_fingerprint,
                });
            }
            let decoded = contents.views.into_iter();
            views.extend(decoded.map(|(id, def, ext)| (id, def, Arc::new(ext))));
        }
        Ok(Self::load(
            meta.shard_count as usize,
            meta.graph_fingerprint,
            meta.graph_stats,
            meta.next_id,
            views,
        ))
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
        let snap = self.snapshot();
        let pos = snap.position(id)?;
        let mut views = snap.views.clone();
        let removed = views.remove(pos);
        writer.warm.remove(&id);
        self.publish(snap.successor(snap.version + 1, views));
        Some(removed)
    }

    /// The view with stable id `id`, if resident.
    pub fn get(&self, id: u64) -> Option<Arc<StoredView>> {
        let snap = self.snapshot();
        snap.position(id).map(|i| snap.views[i].clone())
    }

    /// Per-shard occupancy: views and materialized pairs per shard file.
    pub fn occupancy(&self) -> Vec<ShardOccupancy> {
        let mut occ: Vec<ShardOccupancy> = (0..self.shards)
            .map(|shard| ShardOccupancy {
                shard,
                views: 0,
                pairs: 0,
            })
            .collect();
        for v in &self.snapshot().views {
            let o = &mut occ[self.shard_of(v.id)];
            o.views += 1;
            o.pairs += v.ext.size() as u64;
        }
        occ
    }

    /// Estimated resident bytes of the warm maintainers, summed
    /// ([`IncrementalView::resident_bytes`]), plus the base sets they were
    /// promoted from. Takes the writer lock, so it waits out an
    /// in-progress delta.
    pub fn maintainer_bytes(&self) -> usize {
        let writer = self.writer.lock().expect("writer lock poisoned");
        let warm: usize = writer
            .warm
            .values()
            .map(IncrementalView::resident_bytes)
            .sum();
        warm + writer.bases.resident_bytes()
    }

    /// The current published MVCC snapshot: `Arc` handles to every resident
    /// view, ordered by stable id. This is a pointer clone, and a writer
    /// mid-mutation never tears what readers see (the next snapshot
    /// appears only when it is swapped in whole).
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.published
            .read()
            .expect("published snapshot lock poisoned")
            .clone()
    }

    /// Swaps in `snap` as the store's state. Callers hold [`Self::writer`]
    /// and derived `snap` from the snapshot it replaces.
    fn publish(&self, snap: StoreSnapshot) {
        *self
            .published
            .write()
            .expect("published snapshot lock poisoned") = Arc::new(snap);
    }

    /// Applies an edge-delta batch to the store's graph and incrementally
    /// maintains every affected view — the serving path never pays a full
    /// rebuild.
    ///
    /// `current` must be the store's present graph. The pipeline, all under
    /// the writer mutex:
    ///
    /// 1. check `current`'s [`graph_fingerprint`] (`O(1)`) against the
    ///    published snapshot's — so of two deltas racing against the same
    ///    `current`, exactly one is applied and the other fails with
    ///    [`StoreError::GraphMismatch`] — and validate delta endpoints
    ///    against the node set;
    /// 2. splice the post-delta graph ([`EdgeDelta::apply_to`]) and detect
    ///    affected views via the [`ViewFootprintIndex`], which is built
    ///    once per view set and kept in the writer state;
    /// 3. route each affected view through its warm [`IncrementalView`]
    ///    (promoting a cold one from its stored pre-delta extension),
    ///    re-freezing only extensions whose content actually changed and
    ///    stamping those with the new version as their epoch. Unaffected
    ///    warm maintainers are left alone: no delta edge lies in their
    ///    footprint (the argument is on the writer state's `warm` map);
    /// 4. publish one successor snapshot carrying the new version, the
    ///    post-delta graph's fingerprint and the new
    ///    [`graph_epoch`](StoreSnapshot::graph_epoch).
    ///
    /// In-flight readers keep serving the previous snapshot throughout.
    pub fn apply_delta(
        &self,
        delta: &EdgeDelta,
        current: &DataGraph,
    ) -> Result<DeltaReport, StoreError> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let writer = &mut *writer;
        let snap = self.snapshot();
        snap.check_graph(graph_fingerprint(current))?;
        delta.validate(current)?;
        let next = delta.apply_to(current);

        let resident = snap.views();
        writer.warm.retain(|id, _| snap.position(*id).is_some());
        let index = match &writer.footprints {
            Some((set, index)) if Arc::ptr_eq(set, &snap.view_set) => index,
            _ => {
                let index =
                    ViewFootprintIndex::build(resident.iter().map(|v| (v.id, &v.def)), current);
                writer
                    .bases
                    .retain_used(resident.iter().map(|v| &v.def.pattern));
                &writer.footprints.insert((snap.view_set.clone(), index)).1
            }
        };
        let affected = index.affected(delta, current);

        let version = snap.version + 1;
        let mut views = resident.to_vec();
        let mut changed = Vec::new();
        for id in &affected {
            let pos = snap.position(*id).expect("affected view is resident");
            let v = &resident[pos];
            // Cold maintainers are promoted straight from the stored
            // (pre-delta) extension — the relation is already known, so no
            // refinement fixpoint runs even on the first delta — and share
            // the writer's base sets.
            let m = writer.warm.entry(v.id).or_insert_with(|| {
                let result = v.ext.thaw();
                let pattern = v.def.pattern.clone();
                IncrementalView::promote(pattern, current, &mut writer.bases, Some(&result))
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
            views[pos] = Arc::new(StoredView {
                id: v.id,
                def: v.def.clone(),
                ext: Arc::new(ext),
                epoch: version,
            });
            changed.push(v.id);
        }

        let unaffected = resident.len() - affected.len();
        self.publish(StoreSnapshot {
            graph_fingerprint: graph_fingerprint(&next),
            graph_epoch: version,
            ..snap.successor(version, views)
        });
        Ok(DeltaReport {
            graph: next,
            version,
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
/// serving layer plans and executes against, and the whole of the store's
/// state.
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
    /// The id the next registration gets: above every id the store ever
    /// handed out, so ids are never reused.
    next_id: u64,
    views: Vec<Arc<StoredView>>,
    /// Position-aligned with `views`: `epochs[i]` is view `i`'s epoch.
    epochs: Vec<u64>,
    view_set: Arc<ViewSet>,
    extensions: Arc<ViewExtensions>,
}

impl StoreSnapshot {
    /// The snapshot after a mutation: `views` (id-ordered) at `version`,
    /// with this snapshot's graph and id watermark carried over. The
    /// positional view set and extensions are assembled here once and then
    /// shared by `Arc` into every engine built from the snapshot: the view
    /// set clones the (small) definitions, the extensions one `Arc` per
    /// view — never the materialized pairs. Ids are never reused and a
    /// view's definition never changes under its id, so when the ids are
    /// this snapshot's (an edge delta) the view-set fingerprint and
    /// [`ViewSet`] are reused instead of re-serializing every pattern.
    fn successor(&self, version: u64, views: Vec<Arc<StoredView>>) -> StoreSnapshot {
        let same_members = views
            .iter()
            .map(|v| v.id)
            .eq(self.views.iter().map(|v| v.id));
        let (fingerprint, view_set) = if same_members {
            (self.fingerprint, self.view_set.clone())
        } else {
            let defs = views.iter().map(|v| v.def.clone()).collect();
            (view_set_fingerprint(&views), Arc::new(ViewSet::new(defs)))
        };
        StoreSnapshot {
            version,
            fingerprint,
            graph_fingerprint: self.graph_fingerprint,
            graph_epoch: self.graph_epoch,
            graph_stats: self.graph_stats.clone(),
            next_id: self.next_id,
            epochs: views.iter().map(|v| v.epoch).collect(),
            extensions: Arc::new(ViewExtensions {
                extensions: views.iter().map(|v| v.ext.clone()).collect(),
            }),
            view_set,
            views,
        }
    }

    /// `Err(GraphMismatch)` unless `actual` is the fingerprint of this
    /// snapshot's graph.
    fn check_graph(&self, actual: u64) -> Result<(), StoreError> {
        if actual == self.graph_fingerprint {
            Ok(())
        } else {
            Err(StoreError::GraphMismatch {
                expected: self.graph_fingerprint,
                actual,
            })
        }
    }

    /// Position of the view with stable id `id`, if resident.
    fn position(&self, id: u64) -> Option<usize> {
        self.views.binary_search_by_key(&id, |v| v.id).ok()
    }

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
    use gpv_matching::simulation::match_pattern;
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
    /// store is constructed — otherwise `shard_of`'s `% self.shards`
    /// panics with a division by zero on the first save or occupancy read.
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
    fn warm_maintainer_stays_exact_across_many_unaffecting_deltas() {
        // vabc is warmed by one delta, then sits unaffected (and, since the
        // store no longer patches unaffected maintainers, untouched) while
        // D → D edges churn, and is finally affected again.
        let mut b = GraphBuilder::new();
        let [a0, a1] = [b.add_node(["A"]), b.add_node(["A"])];
        let [b0, b1] = [b.add_node(["B"]), b.add_node(["B"])];
        let c0 = b.add_node(["C"]);
        let ds: Vec<NodeId> = (0..4).map(|_| b.add_node(["D"])).collect();
        for (u, v) in [(a0, b0), (b0, c0), (a1, b1), (b1, c0), (ds[0], ds[1])] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut pb = PatternBuilder::new();
        let (x, y, z) = (
            pb.node_labeled("A"),
            pb.node_labeled("B"),
            pb.node_labeled("C"),
        );
        pb.edge(x, y);
        pb.edge(y, z);
        let abc = pb.build().unwrap();
        let views = ViewSet::new(vec![
            ViewDef::new("vabc", abc.clone()),
            ViewDef::new("vdd", single("D", "D")),
        ]);
        let store = ViewStore::materialize(views, &g, 2);
        assert_eq!(store.maintainer_bytes(), 0, "no maintainer is warm yet");

        let warm = EdgeDelta::new(vec![], vec![(b0, c0)]);
        let mut current = store.apply_delta(&warm, &g).unwrap().graph;
        assert!(store.maintainer_bytes() > 0, "vabc was promoted");
        for i in 0..24usize {
            let e = (ds[i % 4], ds[(i * 3 + 1) % 4]);
            let d = if current.has_edge(e.0, e.1) {
                EdgeDelta::new(vec![], vec![e])
            } else {
                EdgeDelta::new(vec![e], vec![])
            };
            let r = store.apply_delta(&d, &current).unwrap();
            assert!(!r.affected.contains(&0), "D-only delta {i} affected vabc");
            current = r.graph;
        }
        let last = EdgeDelta::new(vec![(b0, c0)], vec![(a1, b1)]);
        let r = store.apply_delta(&last, &current).unwrap();
        assert!(r.affected.contains(&0));
        let snap = store.snapshot();
        for (i, q) in [abc, single("D", "D")].iter().enumerate() {
            let oracle = CompactView::freeze(&gpv_matching::simulation::match_pattern(q, &r.graph));
            assert!(snap.views()[i].ext.content_eq(&oracle), "view {i}");
        }
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
    fn insert_racing_a_delta_never_registers_a_stale_view() {
        // One thread registers an A→B view over `g` while another deletes
        // an A→B edge from it. Materializing 20k nodes leaves the delta
        // time to land between the insert's first graph check and its
        // registration; the check repeated under the writer lock refuses
        // the stale extension. So the insert either fails with
        // GraphMismatch or its extension is the final graph's answer.
        let mut b = GraphBuilder::new();
        for _ in 0..10_000 {
            let a = b.add_node(["A"]);
            let x = b.add_node(["B"]);
            b.add_edge(a, x);
        }
        let g = b.build();
        let delta = EdgeDelta::new(vec![], vec![(NodeId(0), NodeId(1))]);
        let (mut refused, mut admitted) = (0, 0);
        for _ in 0..10 {
            let store = ViewStore::materialize(ViewSet::new(Vec::new()), &g, 2);
            let barrier = std::sync::Barrier::new(2);
            let (inserted, report) = std::thread::scope(|s| {
                let insert = s.spawn(|| {
                    barrier.wait();
                    store.insert(ViewDef::new("vab", single("A", "B")), &g)
                });
                let apply = s.spawn(|| {
                    barrier.wait();
                    store.apply_delta(&delta, &g)
                });
                (insert.join().unwrap(), apply.join().unwrap())
            });
            let last = report.expect("the only delta applies").graph;
            match inserted {
                Err(StoreError::GraphMismatch { .. }) => refused += 1,
                Err(e) => panic!("unexpected insert error: {e:?}"),
                Ok(id) => {
                    admitted += 1;
                    let ext = store.get(id).expect("registered view").ext.thaw();
                    assert_eq!(ext, match_pattern(&single("A", "B"), &last));
                }
            }
        }
        assert_eq!(refused + admitted, 10);
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
