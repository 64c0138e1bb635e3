//! The placement store: a thread-safe, memoized cache of allocation
//! LUTs shared across the DP → policy → session layers.
//!
//! The §III-B allocation LUT is precomputed once per (architecture,
//! model, latency-constraint) configuration in the paper — but without
//! a cache every [`crate::Processor`] construction re-runs the DP, so
//! a dual-backend session and every cell of a
//! [`crate::session::Session::sweep`] would each pay the full
//! Algorithm 1+2 cost again. A [`PlacementStore`] memoizes the built
//! [`AllocationLut`]s behind a hashable [`PlacementKey`], so the DP
//! runs **once per distinct configuration per store**:
//!
//! ```text
//!            SessionBuilder ──.store(..)──┐
//!                 │                       ▼
//!            Processor ──prepare──▶ PlacementPolicy
//!                 │                       │
//!                 ▼                       ▼
//!           CycleBackend          PlacementStore ── PlacementKey ──▶ Arc<AllocationLut>
//!           AnalyticBackend         (hits / misses / build time)
//! ```
//!
//! Sharing is by [`Arc`]: a hit clones a pointer, never the table.
//! Distinct configurations (different architecture geometry, model
//! footprint, calibration, optimizer resolution or deadline budget)
//! hash to distinct keys and never alias. [`CacheStats`] reports
//! hits, misses, LUT DP builds and total build wall time — surfaced
//! per run in [`crate::session::RunArtifacts::cache`].
//!
//! With a persistent [`crate::artifact`] tier attached
//! ([`PlacementStore::set_artifact_store`], or
//! [`crate::session::SessionBuilder::artifact_dir`] from the facade),
//! the lookup ladder becomes **memory hit → disk hit →
//! build-and-write-back**: the DP survives the process, so a second
//! process pointed at a populated artifact dir performs zero LUT
//! builds for cached keys. [`PlacementKey::canonical`] supplies the
//! process-stable on-disk identity.
//!
//! Every store has one owner. A session or server built without an
//! explicit store owns a fresh one; callers who want sharing pass one
//! store to several builders ([`crate::session::SessionBuilder::store`],
//! [`crate::server::ServerBuilder::store`]). Inside a
//! [`crate::server::Server`] every tenant engine draws from the
//! server's store, so tenants serving the same model on the same
//! architecture share a single DP build.
//!
//! # Examples
//!
//! ```
//! use hhpim::{PlacementStore, Architecture, CostModel, CostParams, WorkloadProfile};
//! use hhpim::{OptimizerConfig, RuntimeConfig};
//! use hhpim_nn::TinyMlModel;
//!
//! let store = PlacementStore::new();
//! let cost = CostModel::new(
//!     Architecture::HhPim.spec(),
//!     WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
//!     CostParams::default(),
//! )
//! .unwrap();
//! let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, CostParams::default()).unwrap();
//! let opt = OptimizerConfig { time_buckets: 300, ..OptimizerConfig::default() };
//!
//! let first = store.lut(&cost, &runtime, &opt);   // cold: runs the DP
//! let second = store.lut(&cost, &runtime, &opt);  // warm: pointer clone
//! assert!(std::sync::Arc::ptr_eq(&first, &second));
//! let stats = store.stats();
//! assert_eq!((stats.lut_builds, stats.hits), (1, 1));
//! ```

use crate::artifact::ArtifactStore;
use crate::cost::CostModel;
use crate::dp::{AllocationLut, OptimizerConfig, PlacementOptimizer};
use crate::runtime::RuntimeConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Canonical, hashable identity of one allocation-LUT configuration:
/// the architecture's Table I geometry, the model's weight/MAC
/// footprint, the cost-model calibration, the optimizer resolution and
/// the deadline budget the LUT was sized against.
///
/// Two cost models that agree on every field produce bit-identical
/// LUTs, so the store may serve one build to both; any divergence in
/// any field yields a distinct key and a distinct entry. Floating
/// calibration knobs are keyed by their exact bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacementKey {
    // Architecture geometry (determines capacities and parallelism).
    arch: crate::arch::Architecture,
    hp_modules: usize,
    lp_modules: usize,
    mram_per_module: usize,
    sram_per_module: usize,
    // Model identity as the cost model sees it.
    weight_bytes: usize,
    pim_macs: u64,
    // Cost-model calibration.
    group_size: usize,
    act_reserve_per_module: usize,
    include_input_reads: bool,
    time_scale_bits: u64,
    // Optimizer resolution.
    time_buckets: usize,
    amortize_static: bool,
    retention_factor_bits: u64,
    // Deadline budget the LUT covers.
    usable_slice_ps: u64,
    max_tasks: u32,
}

impl PlacementKey {
    /// The key of the allocation LUT built for `cost` under `runtime`
    /// deadlines at `opt` resolution.
    pub fn for_lut(cost: &CostModel, runtime: &RuntimeConfig, opt: &OptimizerConfig) -> Self {
        let arch = cost.arch();
        let params = cost.params();
        let profile = cost.profile();
        let (time_buckets, amortize_static, retention_factor_bits) = opt.canonical_bits();
        PlacementKey {
            arch: arch.arch,
            hp_modules: arch.hp_modules,
            lp_modules: arch.lp_modules,
            mram_per_module: arch.mram_per_module,
            sram_per_module: arch.sram_per_module,
            weight_bytes: profile.weight_bytes,
            pim_macs: profile.pim_macs,
            group_size: params.group_size,
            act_reserve_per_module: params.act_reserve_per_module,
            include_input_reads: params.include_input_reads,
            time_scale_bits: params.time_scale.to_bits(),
            time_buckets,
            amortize_static,
            retention_factor_bits,
            usable_slice_ps: runtime.usable_slice().as_ps(),
            max_tasks: runtime.max_tasks,
        }
    }

    /// The key's canonical, **process-stable** encoding.
    ///
    /// The in-process `Hash` impl hashes machine bit patterns through
    /// `HashMap`'s randomly seeded hasher, so it cannot name an
    /// on-disk artifact. This method renders every field into a
    /// versioned, deterministic `field=value` string instead —
    /// architecture geometry, model footprint, cost-model calibration
    /// (floats by their exact bit patterns), optimizer resolution and
    /// the deadline budget — identical across runs, processes and
    /// machines for identical configurations. The `hhpim-key-v1`
    /// prefix versions the encoding itself: any change to the field
    /// set must bump it, retiring stale artifacts by key mismatch. The
    /// trailing `variant=lut` is part of the `v1` encoding that
    /// artifact files carry, so it stays.
    ///
    /// [`crate::artifact::ArtifactStore`] derives artifact file names
    /// from a hash of this string and embeds the full string in the
    /// file, so a loaded artifact is served only when the embedded key
    /// matches the requested one byte for byte.
    pub fn canonical(&self) -> String {
        let arch = match self.arch {
            crate::arch::Architecture::Baseline => "baseline",
            crate::arch::Architecture::Heterogeneous => "heterogeneous",
            crate::arch::Architecture::Hybrid => "hybrid",
            crate::arch::Architecture::HhPim => "hh-pim",
        };
        format!(
            "hhpim-key-v1;arch={arch};hp={};lp={};mram={};sram={};\
             wb={};macs={};gs={};act={};inp={};ts={};\
             tb={};amort={};rf={};slice={};maxt={};variant=lut",
            self.hp_modules,
            self.lp_modules,
            self.mram_per_module,
            self.sram_per_module,
            self.weight_bytes,
            self.pim_macs,
            self.group_size,
            self.act_reserve_per_module,
            u8::from(self.include_input_reads),
            self.time_scale_bits,
            self.time_buckets,
            u8::from(self.amortize_static),
            self.retention_factor_bits,
            self.usable_slice_ps,
            self.max_tasks,
        )
    }
}

/// A snapshot of one store's cache behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// LUT lookups served from memory (pointer clones, no DP).
    pub hits: u64,
    /// LUT lookups that found no LUT in memory: each became a disk hit
    /// or a DP build.
    pub misses: u64,
    /// LUT DP builds: the `misses` the disk tier did not serve.
    pub lut_builds: u64,
    /// Memory misses served by the [`crate::artifact`] disk tier
    /// instead of a DP build (always 0 without an attached artifact
    /// dir). Disk hits count in `misses` but never in `lut_builds`.
    pub disk_hits: u64,
    /// Freshly built LUTs written back to the artifact dir.
    pub disk_writes: u64,
    /// Total wall time spent in LUT DP builds.
    pub build_time: Duration,
    /// Always 0: a store never evicts, it keeps every LUT until
    /// [`PlacementStore::clear`].
    pub evictions: u64,
}

/// One LUT slot: a `OnceLock` so concurrent misses on the *same* key
/// serialize on the slot (exactly one build) while distinct keys build
/// in parallel.
type LutCell = Arc<OnceLock<Arc<AllocationLut>>>;

/// A thread-safe, memoized cache of allocation LUTs. See the
/// [module docs](self).
///
/// A store never evicts: its owner (a session, a server, or a caller
/// sharing one store explicitly) bounds how many configurations it
/// sees, one LUT each. [`PlacementStore::clear`] drops every entry.
#[derive(Debug, Default)]
pub struct PlacementStore {
    luts: Mutex<HashMap<PlacementKey, LutCell>>,
    /// Optional persistent disk tier consulted between a memory miss
    /// and the DP build; see [`PlacementStore::set_artifact_store`].
    artifacts: Mutex<Option<ArtifactStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    lut_builds: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
    build_ns: AtomicU64,
}

impl PlacementStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store, ready to share (`Arc::new(Self::new())`).
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// An empty store with a persistent [`crate::artifact`] disk tier
    /// rooted at `dir` — shorthand for [`PlacementStore::new`] plus
    /// [`PlacementStore::set_artifact_store`].
    pub fn with_artifact_dir(dir: impl Into<std::path::PathBuf>) -> Self {
        let store = Self::new();
        store.set_artifact_store(Some(ArtifactStore::new(dir)));
        store
    }

    /// Attaches (`Some`), replaces or detaches (`None`) the persistent
    /// disk tier. With a tier attached, a memory miss in
    /// [`PlacementStore::lut`] first tries to load the keyed artifact
    /// from disk (counted in [`CacheStats::disk_hits`]) and only then
    /// runs the DP, writing the fresh build back (counted in
    /// [`CacheStats::disk_writes`]). A missing, corrupt or
    /// key-mismatched artifact file silently falls through to a
    /// rebuild whose write-back replaces it — the tier can change
    /// *whether* the DP runs, never what a lookup returns.
    pub fn set_artifact_store(&self, artifacts: Option<ArtifactStore>) {
        *self.artifacts.lock().expect("placement store poisoned") = artifacts;
    }

    /// The attached disk tier, if any (a cheap handle clone).
    pub fn artifact_store(&self) -> Option<ArtifactStore> {
        self.artifacts
            .lock()
            .expect("placement store poisoned")
            .clone()
    }

    /// The allocation LUT for `(cost, runtime, opt)`: built by the DP
    /// on the first request for its [`PlacementKey`], served as an
    /// [`Arc`] clone afterwards. Concurrent first requests for the
    /// same key block on one build; distinct keys build concurrently.
    ///
    /// No lock is held while the DP runs. A build that panics leaves
    /// its key's slot empty and moves no counter, and the next request
    /// for that key builds again; every other key is served as before.
    pub fn lut(
        &self,
        cost: &CostModel,
        runtime: &RuntimeConfig,
        opt: &OptimizerConfig,
    ) -> Arc<AllocationLut> {
        let key = PlacementKey::for_lut(cost, runtime, opt);
        let cell: LutCell = self
            .luts
            .lock()
            .expect("placement store poisoned")
            .entry(key)
            .or_default()
            .clone();
        let mut built_here = false;
        let mut disk_hit = false;
        let artifacts = self.artifact_store();
        let lut = cell
            .get_or_init(|| {
                // Memory miss: consult the persistent disk tier before
                // paying the DP. A load failure of any kind (absent,
                // truncated, version-bumped, checksum- or
                // key-mismatched file) falls through to a rebuild
                // whose write-back replaces the bad file — stale or
                // torn artifacts are never served.
                if let Some(art) = &artifacts {
                    if let Ok(Some(lut)) = art.try_load_lut(&key) {
                        disk_hit = true;
                        return Arc::new(lut);
                    }
                }
                built_here = true;
                let start = Instant::now();
                let optimizer = PlacementOptimizer::new(cost, *opt);
                let lut =
                    AllocationLut::build(&optimizer, runtime.usable_slice(), runtime.max_tasks);
                self.build_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if let Some(art) = &artifacts {
                    if art.save_lut(&key, &lut).is_ok() {
                        self.disk_writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Arc::new(lut)
            })
            .clone();
        if built_here {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.lut_builds.fetch_add(1, Ordering::Relaxed);
        } else if disk_hit {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        lut
    }

    /// Whether a built LUT for `(cost, runtime, opt)` is already
    /// cached (without touching the hit/miss counters).
    pub fn contains_lut(
        &self,
        cost: &CostModel,
        runtime: &RuntimeConfig,
        opt: &OptimizerConfig,
    ) -> bool {
        let key = PlacementKey::for_lut(cost, runtime, opt);
        self.luts
            .lock()
            .expect("placement store poisoned")
            .get(&key)
            .is_some_and(|cell| cell.get().is_some())
    }

    /// A snapshot of this store's hit/miss/build counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            lut_builds: self.lut_builds.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            build_time: Duration::from_nanos(self.build_ns.load(Ordering::Relaxed)),
            evictions: 0,
        }
    }

    /// Number of cached LUTs.
    pub fn len(&self) -> usize {
        self.luts
            .lock()
            .expect("placement store poisoned")
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// Whether the store holds no built LUT.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (counters are kept — stats describe
    /// the store's lifetime, not its current contents).
    pub fn clear(&self) {
        self.luts.lock().expect("placement store poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::cost::{CostParams, WorkloadProfile};
    use hhpim_nn::TinyMlModel;

    fn fixture(
        arch: Architecture,
        model: TinyMlModel,
        buckets: usize,
    ) -> (CostModel, RuntimeConfig, OptimizerConfig) {
        let params = CostParams::default();
        let cost = CostModel::new(
            arch.spec(),
            WorkloadProfile::from_spec(&model.spec()),
            params,
        )
        .unwrap();
        let runtime = RuntimeConfig::reference(model, params).unwrap();
        let opt = OptimizerConfig {
            time_buckets: buckets,
            ..OptimizerConfig::default()
        };
        (cost, runtime, opt)
    }

    #[test]
    fn same_key_serves_one_build() {
        let store = PlacementStore::new();
        let (cost, runtime, opt) = fixture(Architecture::HhPim, TinyMlModel::MobileNetV2, 250);
        let a = store.lut(&cost, &runtime, &opt);
        let b = store.lut(&cost, &runtime, &opt);
        assert!(Arc::ptr_eq(&a, &b), "hit must be a pointer clone");
        assert_eq!(*a, *b);
        let stats = store.stats();
        assert_eq!(stats.lut_builds, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!(stats.build_time > Duration::ZERO);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn distinct_configurations_get_distinct_entries() {
        let store = PlacementStore::new();
        let (cost, runtime, opt) = fixture(Architecture::HhPim, TinyMlModel::MobileNetV2, 250);
        store.lut(&cost, &runtime, &opt);
        // Different optimizer resolution.
        let coarser = OptimizerConfig {
            time_buckets: 120,
            ..opt
        };
        store.lut(&cost, &runtime, &coarser);
        // Different model.
        let (cost2, runtime2, opt2) =
            fixture(Architecture::HhPim, TinyMlModel::EfficientNetB0, 250);
        store.lut(&cost2, &runtime2, &opt2);
        // Different architecture geometry.
        let (cost3, runtime3, opt3) = fixture(Architecture::Hybrid, TinyMlModel::MobileNetV2, 250);
        store.lut(&cost3, &runtime3, &opt3);
        let stats = store.stats();
        assert_eq!(stats.lut_builds, 4, "four distinct keys, four builds");
        assert_eq!(stats.hits, 0);
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn clear_drops_entries_but_keeps_lifetime_stats() {
        let store = PlacementStore::new();
        let (cost, runtime, opt) = fixture(Architecture::HhPim, TinyMlModel::MobileNetV2, 200);
        store.lut(&cost, &runtime, &opt);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.stats().lut_builds, 1);
        // A fresh request rebuilds.
        store.lut(&cost, &runtime, &opt);
        assert_eq!(store.stats().lut_builds, 2);
    }

    #[test]
    fn concurrent_requests_for_one_key_build_once() {
        let store = Arc::new(PlacementStore::new());
        let (cost, runtime, opt) = fixture(Architecture::HhPim, TinyMlModel::MobileNetV2, 200);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                let (cost, runtime, opt) = (&cost, &runtime, &opt);
                s.spawn(move || store.lut(cost, runtime, opt));
            }
        });
        let stats = store.stats();
        assert_eq!(stats.lut_builds, 1, "one build despite concurrent misses");
        assert_eq!(stats.hits + stats.misses, 4);
    }
}
