//! The model registry: trained estimators behind `Arc<dyn CostModel>`,
//! keyed by `(benchmark, estimator, environment fingerprint)`.
//!
//! A long-lived estimation node trains (or receives) one model per serving
//! key and looks it up on every request. The registry bounds resident
//! models with LRU eviction — a node serving many environments keeps only
//! the hot ones in memory and refits or reloads cold ones on demand.
//!
//! With a [`ModelLoader`] installed ([`ModelRegistry::set_loader`] — the
//! gateway wires one backed by the snapshot store's `QCFW` weight
//! sidecars), a miss consults the loader *before* any rebuild
//! (load-before-rebuild): an evicted or never-resident model comes back
//! from disk bit-identical instead of being retrained. Loads run outside
//! the registry lock and racing reloaders converge on one resident
//! instance through [`ModelRegistry::insert_if_absent`].

use crate::lru::LruCache;
use qcfe_core::cost_model::CostModel;
use qcfe_core::pipeline::EstimatorKind;
use qcfe_db::env::EnvFingerprint;
use qcfe_workloads::BenchmarkKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The serving key of one trained model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// The benchmark/schema the model was trained on.
    pub benchmark: BenchmarkKind,
    /// The estimator family.
    pub estimator: EstimatorKind,
    /// The environment fingerprint the training labels came from.
    pub fingerprint: EnvFingerprint,
}

impl ModelKey {
    /// Convenience constructor.
    pub fn new(
        benchmark: BenchmarkKind,
        estimator: EstimatorKind,
        fingerprint: EnvFingerprint,
    ) -> Self {
        ModelKey {
            benchmark,
            estimator,
            fingerprint,
        }
    }
}

/// Registry statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Models evicted by the LRU policy.
    pub evictions: u64,
    /// Models brought back by the installed [`ModelLoader`] (disk reloads).
    pub loads: u64,
    /// Currently resident models.
    pub resident: usize,
}

/// An entry evicted from the registry: the serving key and its model.
pub type EvictedModel = (ModelKey, Arc<dyn CostModel>);

/// A fallback invoked on registry misses before any rebuild — typically a
/// closure around [`crate::store::SnapshotStore::load_model`]. Returning
/// `None` means nothing is persisted (or the file is unreadable) and the
/// caller may fall through to training.
pub type ModelLoader = dyn Fn(&ModelKey) -> Option<Arc<dyn CostModel>> + Send + Sync;

/// How a [`ModelRegistry::get_or_load`] request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSource {
    /// The model was already resident in the registry.
    Resident,
    /// This call performed the disk load through the installed
    /// [`ModelLoader`] (the model was evicted earlier, or this process
    /// never trained it) and its registration won.
    Reloaded,
}

/// Outcome of a [`ModelRegistry::get_or_load`] resolution.
pub struct ResolvedModel {
    /// The model now resident under the key.
    pub model: Arc<dyn CostModel>,
    /// Whether this call performed the disk load or found a resident.
    pub source: ModelSource,
    /// Whether the resident model's weights came from the disk loader.
    /// The mark is maintained under the same lock as the cache itself, so
    /// it always describes the returned model: set when a disk load wins
    /// registration, sticky while the entry stays resident, and cleared by
    /// any in-process insert for the key.
    pub from_disk: bool,
    /// Entry evicted by a reload's registration, if any, so callers
    /// tracking evictions observe the same signal as on the insert paths.
    pub evicted: Option<EvictedModel>,
}

/// Interior state guarded by one lock: the LRU cache plus the disk-load
/// provenance marks. One mutex for both makes the marks atomic with every
/// cache mutation — no interleaving can tag an in-process-registered model
/// as disk-loaded.
struct RegistryInner {
    cache: LruCache<ModelKey, Arc<dyn CostModel>>,
    disk_loaded: std::collections::HashSet<ModelKey>,
}

impl RegistryInner {
    /// Insert plus mark bookkeeping: the key's mark becomes `from_disk`
    /// and an evicted key loses its mark (it is no longer resident).
    fn insert_marked(
        &mut self,
        key: ModelKey,
        model: Arc<dyn CostModel>,
        from_disk: bool,
    ) -> Option<EvictedModel> {
        if from_disk {
            self.disk_loaded.insert(key);
        } else {
            self.disk_loaded.remove(&key);
        }
        let evicted = self.cache.insert(key, model);
        if let Some((evicted_key, _)) = &evicted {
            if *evicted_key != key {
                self.disk_loaded.remove(evicted_key);
            }
        }
        evicted
    }
}

/// A bounded, thread-safe registry of trained cost models.
pub struct ModelRegistry {
    inner: Mutex<RegistryInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
    loader: Option<Arc<ModelLoader>>,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ModelRegistry")
            .field("resident", &stats.resident)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .field("loads", &stats.loads)
            .finish()
    }
}

impl ModelRegistry {
    /// Create a registry holding at most `capacity` models (no loader).
    pub fn new(capacity: usize) -> Self {
        ModelRegistry {
            inner: Mutex::new(RegistryInner {
                cache: LruCache::new(capacity),
                disk_loaded: std::collections::HashSet::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            loader: None,
        }
    }

    /// Install (or replace) the miss-time loader. The gateway builder wires
    /// one backed by the store's `QCFW` weight sidecars, making the
    /// registry lazily reload evicted models from disk.
    pub fn set_loader<F>(&mut self, loader: F)
    where
        F: Fn(&ModelKey) -> Option<Arc<dyn CostModel>> + Send + Sync + 'static,
    {
        self.loader = Some(Arc::new(loader));
    }

    /// Look up a model, consulting the installed [`ModelLoader`] on a miss
    /// before giving up. The load runs *outside* the registry lock (it is
    /// disk I/O plus deserialization) and registers with
    /// first-registration-wins semantics, so concurrent reloaders of the
    /// same key converge on a single resident instance — while a key stays
    /// resident it is never reloaded again. A reloader that loses its
    /// registration race reports [`ModelSource::Resident`] with the
    /// winner's `from_disk` mark, never its own.
    pub fn get_or_load(&self, key: &ModelKey) -> Option<ResolvedModel> {
        {
            let mut inner = self.inner.lock().expect("registry mutex poisoned");
            if let Some(model) = inner.cache.get(key) {
                let model = Arc::clone(model);
                let from_disk = inner.disk_loaded.contains(key);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(ResolvedModel {
                    model,
                    source: ModelSource::Resident,
                    from_disk,
                    evicted: None,
                });
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let loader = self.loader.as_ref()?;
        let loaded = loader(key)?;
        self.loads.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        if let Some(existing) = inner.cache.get(key) {
            // Lost the race: the resident entry — and its mark, which may
            // have been cleared by a concurrent in-process registration —
            // wins over our load.
            let model = Arc::clone(existing);
            let from_disk = inner.disk_loaded.contains(key);
            return Some(ResolvedModel {
                model,
                source: ModelSource::Resident,
                from_disk,
                evicted: None,
            });
        }
        let evicted = inner.insert_marked(*key, Arc::clone(&loaded), true);
        Some(ResolvedModel {
            model: loaded,
            source: ModelSource::Reloaded,
            from_disk: true,
            evicted,
        })
    }

    /// Register (or replace) a model; returns the evicted entry if the
    /// insert pushed the registry over capacity. An in-process insert
    /// clears any disk-load mark the key carried.
    pub fn insert(&self, key: ModelKey, model: Arc<dyn CostModel>) -> Option<EvictedModel> {
        self.inner
            .lock()
            .expect("registry mutex poisoned")
            .insert_marked(key, model, false)
    }

    /// Look up a model, marking it most recently used.
    pub fn get(&self, key: &ModelKey) -> Option<Arc<dyn CostModel>> {
        let found = self
            .inner
            .lock()
            .expect("registry mutex poisoned")
            .cache
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Look up without touching recency or hit counters.
    pub fn contains(&self, key: &ModelKey) -> bool {
        self.inner
            .lock()
            .expect("registry mutex poisoned")
            .cache
            .contains(key)
    }

    /// Remove a model (and its disk-load mark).
    pub fn remove(&self, key: &ModelKey) -> Option<Arc<dyn CostModel>> {
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        inner.disk_loaded.remove(key);
        inner.cache.remove(key)
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("registry mutex poisoned")
            .cache
            .len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup/eviction statistics.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry mutex poisoned");
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.cache.evictions(),
            loads: self.loads.load(Ordering::Relaxed),
            resident: inner.cache.len(),
        }
    }

    /// Register `model` only if `key` is not already resident, atomically.
    ///
    /// Returns the model now resident under the key — the existing one on
    /// a lost race (first registration wins), else `model` — together with
    /// the entry the insert evicted, if it happened and pushed the
    /// registry over capacity. This is the primitive behind the gateway's
    /// provider path: concurrent cold-starters converge on one instance
    /// instead of overwriting each other.
    pub fn insert_if_absent(
        &self,
        key: ModelKey,
        model: Arc<dyn CostModel>,
    ) -> (Arc<dyn CostModel>, Option<EvictedModel>) {
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        if let Some(existing) = inner.cache.get(&key) {
            return (Arc::clone(existing), None);
        }
        let evicted = inner.insert_marked(key, Arc::clone(&model), false);
        (model, evicted)
    }

    /// Look up a model or build, register and return it — consulting the
    /// installed [`ModelLoader`] *before* the rebuild (load-before-rebuild:
    /// persisted weights always beat retraining).
    ///
    /// The load/build runs outside the registry lock (training can take
    /// minutes and must not block lookups), so concurrent callers racing on
    /// a cold key may each run `build` — but the re-check under the lock
    /// makes the first registration win and every caller converge on that
    /// single resident instance; losers' builds are dropped.
    pub fn get_or_insert_with<F>(&self, key: ModelKey, build: F) -> Arc<dyn CostModel>
    where
        F: FnOnce() -> Arc<dyn CostModel>,
    {
        if let Some(resolved) = self.get_or_load(&key) {
            return resolved.model;
        }
        let model = build();
        let mut inner = self.inner.lock().expect("registry mutex poisoned");
        if let Some(existing) = inner.cache.get(&key) {
            return Arc::clone(existing);
        }
        inner.insert_marked(key, Arc::clone(&model), false);
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_core::estimators::PgEstimator;
    use qcfe_db::DbEnvironment;

    fn key(tag: u64) -> ModelKey {
        let mut env = DbEnvironment::reference();
        env.knobs.work_mem_kb = 1024 + tag;
        ModelKey::new(
            BenchmarkKind::Sysbench,
            EstimatorKind::Pgsql,
            env.fingerprint(),
        )
    }

    fn pg_model() -> Arc<dyn CostModel> {
        Arc::new(PgEstimator)
    }

    #[test]
    fn lookup_hits_and_misses_are_counted() {
        let registry = ModelRegistry::new(4);
        assert!(registry.is_empty());
        assert!(registry.get(&key(1)).is_none());
        registry.insert(key(1), pg_model());
        assert!(registry.get(&key(1)).is_some());
        assert!(registry.contains(&key(1)));
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (1, 1, 1));
    }

    #[test]
    fn capacity_overflow_evicts_least_recently_used() {
        let registry = ModelRegistry::new(2);
        registry.insert(key(1), pg_model());
        registry.insert(key(2), pg_model());
        // touch key(1) so key(2) is the LRU victim
        assert!(registry.get(&key(1)).is_some());
        let evicted = registry.insert(key(3), pg_model());
        assert_eq!(evicted.map(|(k, _)| k), Some(key(2)));
        assert_eq!(registry.len(), 2);
        assert!(registry.contains(&key(1)) && registry.contains(&key(3)));
        assert_eq!(registry.stats().evictions, 1);
    }

    #[test]
    fn get_or_insert_builds_once() {
        let registry = ModelRegistry::new(2);
        let mut builds = 0;
        for _ in 0..3 {
            registry.get_or_insert_with(key(7), || {
                builds += 1;
                pg_model()
            });
        }
        assert_eq!(builds, 1);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn racing_get_or_insert_converges_on_one_instance() {
        let registry = std::sync::Arc::new(ModelRegistry::new(4));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let registry = std::sync::Arc::clone(&registry);
                std::thread::spawn(move || registry.get_or_insert_with(key(3), pg_model))
            })
            .collect();
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let resident = registry.get(&key(3)).expect("registered");
        for model in &models {
            assert!(
                Arc::ptr_eq(model, &resident),
                "every racer must converge on the resident instance"
            );
        }
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn insert_if_absent_first_registration_wins_and_reports_evictions() {
        let registry = ModelRegistry::new(2);
        let first = pg_model();
        let (resident, evicted) = registry.insert_if_absent(key(1), Arc::clone(&first));
        assert!(Arc::ptr_eq(&resident, &first));
        assert!(evicted.is_none());
        // A later insert for the same key yields the resident instance.
        let (resident, evicted) = registry.insert_if_absent(key(1), pg_model());
        assert!(Arc::ptr_eq(&resident, &first), "existing instance wins");
        assert!(evicted.is_none());
        assert_eq!(registry.len(), 1);
        // Over-capacity inserts still report their victim.
        registry.insert_if_absent(key(2), pg_model());
        let (_, evicted) = registry.insert_if_absent(key(3), pg_model());
        assert!(evicted.is_some());
        assert_eq!(registry.len(), 2);
    }

    /// Satellite acceptance: 8 threads hammering a capacity-2 registry via
    /// `get_or_insert_with` — every thread on its own key, so eviction
    /// pressure is constant — must build each key's model at most once, and
    /// the registry must stay within capacity with a consistent eviction
    /// count.
    #[test]
    fn concurrent_get_or_insert_under_eviction_pressure_builds_each_key_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let registry = std::sync::Arc::new(ModelRegistry::new(2));
        let builds: std::sync::Arc<Vec<AtomicUsize>> =
            std::sync::Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let registry = std::sync::Arc::clone(&registry);
                let builds = std::sync::Arc::clone(&builds);
                std::thread::spawn(move || {
                    // Each thread resolves its key several times; after the
                    // first resolution the key may have been evicted by the
                    // other threads' inserts, in which case a rebuild is
                    // *correct* — the "at most once" contract applies per
                    // uninterrupted residency, which single-threaded keys
                    // with a live local Arc observe as exactly once below.
                    let model = registry.get_or_insert_with(key(i), || {
                        builds[i as usize].fetch_add(1, Ordering::Relaxed);
                        pg_model()
                    });
                    for _ in 0..50 {
                        let again = registry.get_or_insert_with(key(i), || {
                            builds[i as usize].fetch_add(1, Ordering::Relaxed);
                            pg_model()
                        });
                        // Whether freshly rebuilt after an eviction or
                        // resident, the registry must hand back a usable
                        // model every time.
                        assert!(std::sync::Arc::strong_count(&again) >= 1);
                    }
                    drop(model);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Capacity bound held under the race.
        assert!(registry.len() <= 2);
        let stats = registry.stats();
        assert!(stats.resident <= 2);
        // 8 distinct keys through a 2-slot registry must have evicted.
        assert!(stats.evictions >= 6, "evictions {}", stats.evictions);
        // No key was built redundantly while resident: each thread re-ran
        // `get_or_insert_with` 50 times, yet total builds stay bounded by
        // the eviction count (every build beyond the first for a key
        // requires a prior eviction of that key).
        let total_builds: usize = builds.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert!(total_builds >= 8, "every key built at least once");
        assert!(
            (total_builds as u64) <= 8 + stats.evictions,
            "{total_builds} builds vs {} evictions: a key was rebuilt while resident",
            stats.evictions
        );
    }

    /// The strict single-build guarantee: 8 threads racing `get_or_insert_with`
    /// on *distinct* keys in a registry large enough to hold them all — each
    /// key must be built exactly once even though eviction-pressure siblings
    /// (above) run concurrently elsewhere.
    #[test]
    fn concurrent_distinct_keys_within_capacity_build_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let registry = std::sync::Arc::new(ModelRegistry::new(8));
        let builds: std::sync::Arc<Vec<AtomicUsize>> =
            std::sync::Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let registry = std::sync::Arc::clone(&registry);
                let builds = std::sync::Arc::clone(&builds);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        registry.get_or_insert_with(key(i), || {
                            builds[i as usize].fetch_add(1, Ordering::Relaxed);
                            pg_model()
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (i, b) in builds.iter().enumerate() {
            assert_eq!(b.load(Ordering::Relaxed), 1, "key {i} built more than once");
        }
        assert_eq!(registry.len(), 8);
        assert_eq!(registry.stats().evictions, 0);
    }

    /// Load-before-rebuild: with a loader installed, a miss reloads instead
    /// of building, residency suppresses further loads, and eviction makes
    /// the key reloadable again.
    #[test]
    fn loader_is_consulted_before_rebuild_and_only_while_absent() {
        use std::sync::atomic::AtomicUsize;
        let loads = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&loads);
        let mut registry = ModelRegistry::new(2);
        registry.set_loader(move |k: &ModelKey| {
            counter.fetch_add(1, Ordering::Relaxed);
            // Only key(1) is "persisted".
            (*k == key(1)).then(pg_model)
        });

        // Persisted key: loaded, never built.
        let model = registry.get_or_insert_with(key(1), || panic!("must load, not rebuild"));
        assert!(Arc::strong_count(&model) >= 1);
        assert_eq!(loads.load(Ordering::Relaxed), 1);
        assert_eq!(registry.stats().loads, 1);
        // While resident: neither loaded nor built again.
        let resolved = registry.get_or_load(&key(1)).expect("resident");
        assert!(Arc::ptr_eq(&model, &resolved.model));
        assert_eq!(resolved.source, ModelSource::Resident);
        assert!(resolved.from_disk, "mark sticks while resident");
        assert!(resolved.evicted.is_none());
        assert_eq!(loads.load(Ordering::Relaxed), 1);

        // Unpersisted key: loader consulted, then built.
        let mut builds = 0;
        registry.get_or_insert_with(key(2), || {
            builds += 1;
            pg_model()
        });
        assert_eq!(builds, 1);
        assert_eq!(loads.load(Ordering::Relaxed), 2);
        assert_eq!(registry.stats().loads, 1, "failed loads are not counted");

        // Evict key(1) (capacity 2: insert a third key, with key(2) more
        // recently used... touch key(2) first so key(1) is the victim).
        assert!(registry.get(&key(2)).is_some());
        registry.insert(key(3), pg_model());
        assert!(!registry.contains(&key(1)), "key(1) evicted");
        // The evicted key reloads from "disk" exactly once more.
        let reloaded = registry.get_or_insert_with(key(1), || panic!("must reload"));
        assert!(
            !Arc::ptr_eq(&model, &reloaded),
            "fresh instance after eviction"
        );
        assert_eq!(registry.stats().loads, 2);
    }

    #[test]
    fn without_a_loader_get_or_load_reports_only_residents() {
        let registry = ModelRegistry::new(2);
        assert!(registry.get_or_load(&key(1)).is_none());
        registry.insert(key(1), pg_model());
        let resolved = registry.get_or_load(&key(1)).expect("resident");
        assert_eq!(resolved.source, ModelSource::Resident);
        assert!(
            !resolved.from_disk,
            "in-process inserts never carry the disk mark"
        );
    }

    #[test]
    fn keys_distinguish_every_dimension() {
        let fp = DbEnvironment::reference().fingerprint();
        let base = ModelKey::new(BenchmarkKind::Tpch, EstimatorKind::Mscn, fp);
        assert_ne!(
            base,
            ModelKey::new(BenchmarkKind::Sysbench, EstimatorKind::Mscn, fp)
        );
        assert_ne!(
            base,
            ModelKey::new(BenchmarkKind::Tpch, EstimatorKind::QcfeMscn, fp)
        );
        assert_ne!(
            base,
            ModelKey::new(BenchmarkKind::Tpch, EstimatorKind::Mscn, key(9).fingerprint)
        );
    }
}
