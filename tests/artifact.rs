//! Persistence-tier contract tests: artifacts saved by one store load
//! bit-identically into another, corrupted files degrade to typed
//! errors and transparent rebuilds (never a panic, never stale data),
//! a warm artifact directory reproduces every baseline energy and
//! every Fig. 5 savings cell with zero DP builds, and no truncated or
//! mutated artifact or recorded trace panics its reader.

use hhpim::session::SessionBuilder;
use hhpim::{AllocationLut, ARTIFACT_FORMAT_VERSION};
use hhpim::{
    Architecture, ArtifactError, ArtifactStore, BackendKind, CacheStats, CostModel, CostParams,
    OptimizerConfig, PlacementKey, PlacementOptimizer, PlacementStore, RecordedArrival,
    RecordedTrace, RuntimeConfig, WorkloadProfile,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{Scenario, ScenarioParams};
use std::path::{Path, PathBuf};

#[path = "support/mutations.rs"]
mod mutations;
use mutations::for_each_mutation;

/// Per-test scratch directory under the system temp dir, removed on
/// drop so repeated `cargo test` runs never see each other's files.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hhpim-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn quick_opt() -> OptimizerConfig {
    OptimizerConfig {
        time_buckets: 150,
        ..OptimizerConfig::default()
    }
}

fn quick_params() -> ScenarioParams {
    ScenarioParams {
        slices: 6,
        ..ScenarioParams::default()
    }
}

/// Key + DP-built LUT for one (architecture, model) cell, via the
/// same public API the session layer uses.
fn build_cell(arch: Architecture, model: TinyMlModel) -> (PlacementKey, AllocationLut) {
    let params = CostParams::default();
    let cost = CostModel::new(
        arch.spec(),
        WorkloadProfile::from_spec(&model.spec()),
        params,
    )
    .unwrap();
    let runtime = RuntimeConfig::reference(model, params).unwrap();
    let key = PlacementKey::for_lut(&cost, &runtime, &quick_opt());
    let optimizer = PlacementOptimizer::new(&cost, quick_opt());
    let lut = AllocationLut::build(&optimizer, runtime.usable_slice(), runtime.max_tasks);
    (key, lut)
}

/// Satellite: every (architecture, model) cell of the test matrix
/// survives a save→load round trip with full structural equality —
/// the disk tier may never hand back an approximation of the DP.
#[test]
fn save_load_round_trips_across_the_matrix() {
    let scratch = ScratchDir::new("matrix");
    let store = ArtifactStore::new(scratch.path());
    for arch in Architecture::ALL {
        for model in TinyMlModel::ALL {
            let (key, lut) = build_cell(arch, model);
            store.save_lut(&key, &lut).unwrap();
            let loaded = store.load_lut(&key).unwrap();
            assert_eq!(lut, loaded, "{arch:?}/{model:?} LUT drifted through disk");
        }
    }
    // Twelve distinct keys must produce twelve distinct files: the
    // canonical-key hash in the file name keeps cells from clobbering
    // one another.
    let files = std::fs::read_dir(scratch.path()).unwrap().count();
    assert_eq!(files, Architecture::ALL.len() * TinyMlModel::ALL.len());
}

/// `PlacementKey::canonical` names artifact files and is embedded in
/// them, so its bytes may not drift: this is the default HH-PIM /
/// MobileNetV2 LUT key as artifact files written since the
/// `hhpim-key-v1` encoding carry it.
#[test]
fn canonical_key_encoding_is_pinned() {
    let params = CostParams::default();
    let cost = CostModel::new(
        Architecture::HhPim.spec(),
        WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
        params,
    )
    .unwrap();
    let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, params).unwrap();
    let key = PlacementKey::for_lut(&cost, &runtime, &OptimizerConfig::default());
    assert_eq!(
        key.canonical(),
        "hhpim-key-v1;arch=hh-pim;hp=4;lp=4;mram=65536;sram=65536;wb=101000;macs=2022400;\
         gs=512;act=16384;inp=1;ts=4621334980629029192;tb=2000;amort=1;\
         rf=4607419450359352697;slice=235007366754;maxt=10;variant=lut"
    );
}

/// The canonical key embedded in the artifact guards against serving
/// one configuration's LUT to another, even through a forged file
/// name swap.
#[test]
fn foreign_artifact_is_a_key_mismatch() {
    let scratch = ScratchDir::new("foreign");
    let store = ArtifactStore::new(scratch.path());
    let (key_a, lut_a) = build_cell(Architecture::HhPim, TinyMlModel::MobileNetV2);
    let (key_b, _) = build_cell(Architecture::Hybrid, TinyMlModel::MobileNetV2);
    let saved = store.save_lut(&key_a, &lut_a).unwrap();
    std::fs::rename(saved, store.lut_path(&key_b)).unwrap();
    assert!(matches!(
        store.load_lut(&key_b).unwrap_err(),
        ArtifactError::KeyMismatch { .. }
    ));
}

/// Satellite: a corrupted artifact must surface as the *typed* error
/// for its corruption class — and the placement store must respond by
/// rebuilding the LUT and repairing the file, never panicking and
/// never serving stale bits.
#[test]
fn corruption_degrades_to_typed_errors_and_rebuilds() {
    let scratch = ScratchDir::new("corrupt");
    let store = ArtifactStore::new(scratch.path());
    let (key, lut) = build_cell(Architecture::HhPim, TinyMlModel::MobileNetV2);
    let pristine_path = store.save_lut(&key, &lut).unwrap();
    let pristine = std::fs::read_to_string(&pristine_path).unwrap();

    // (corrupted contents, matcher for the expected typed error)
    let half = pristine.len() / 2;
    let digit_at = pristine.find("\"t_constraints_ps\": [").unwrap() + 21;
    let mut flipped = pristine.clone();
    let original = flipped.as_bytes()[digit_at];
    let swapped = if original == b'9' { b'8' } else { original + 1 };
    flipped.replace_range(
        digit_at..digit_at + 1,
        std::str::from_utf8(&[swapped]).unwrap(),
    );
    type Expects = fn(&ArtifactError) -> bool;
    let cases: [(String, Expects); 3] = [
        (pristine[..half].to_string(), |e| {
            matches!(e, ArtifactError::Parse { .. })
        }),
        (pristine.replace("\"version\": 1", "\"version\": 99"), |e| {
            matches!(
                e,
                ArtifactError::Version {
                    found: 99,
                    supported: ARTIFACT_FORMAT_VERSION
                }
            )
        }),
        (flipped, |e| matches!(e, ArtifactError::Checksum { .. })),
    ];

    for (doctored, expects) in cases {
        std::fs::write(&pristine_path, &doctored).unwrap();
        let err = store.load_lut(&key).unwrap_err();
        assert!(expects(&err), "wrong error class: {err}");

        // The placement store sees the same corruption and falls
        // through to a DP rebuild whose write-back repairs the file.
        let placement = PlacementStore::with_artifact_dir(scratch.path());
        let params = CostParams::default();
        let cost = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
            params,
        )
        .unwrap();
        let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, params).unwrap();
        let rebuilt = placement.lut(&cost, &runtime, &quick_opt());
        assert_eq!(*rebuilt, lut, "rebuild after corruption must not drift");
        let stats = placement.stats();
        assert_eq!(stats.lut_builds, 1, "corrupt artifact must force a rebuild");
        assert_eq!(stats.disk_hits, 0);
        assert_eq!(stats.disk_writes, 1, "rebuild must repair the artifact");
        assert_eq!(std::fs::read_to_string(&pristine_path).unwrap(), pristine);
    }
}

/// Savings bits of one sweep cell: `(scenario, model, [vs_baseline,
/// vs_heterogeneous, vs_hybrid])`.
type CellBits = (Scenario, TinyMlModel, [u64; 3]);

/// One pass over `dir`, each half on a fresh in-memory store: the
/// seven-case baseline (the six analytic scenarios plus the
/// cycle-accurate case 3), returning each case's total energy bits,
/// then the full 6×3 `sweep_all`, returning every cell's savings bits.
/// Each half comes back with its store's final cache stats.
fn disk_tier_pass(dir: &Path) -> ((Vec<u64>, CacheStats), (Vec<CellBits>, CacheStats)) {
    let store = PlacementStore::shared();
    let mut energies = Vec::new();
    for (scenario, backend) in Scenario::ALL
        .iter()
        .map(|&s| (s, BackendKind::Analytic))
        .chain([(Scenario::ALL[2], BackendKind::Cycle)])
    {
        let mut session = SessionBuilder::new()
            .architecture(Architecture::HhPim)
            .model(TinyMlModel::MobileNetV2)
            .scenario(scenario)
            .scenario_params(quick_params())
            .optimizer(quick_opt())
            .backend(backend)
            .store(store.clone())
            .artifact_dir(dir)
            .build()
            .unwrap();
        let artifacts = session.run().unwrap();
        energies.push(artifacts.primary().total_energy().as_pj().to_bits());
    }

    let sweep = SessionBuilder::new()
        .scenario_params(quick_params())
        .optimizer(quick_opt())
        .store(PlacementStore::shared())
        .artifact_dir(dir)
        .build()
        .unwrap();
    let cells = sweep
        .sweep_all()
        .unwrap()
        .cells
        .iter()
        .map(|c| {
            (
                c.scenario,
                c.model,
                [c.vs_baseline, c.vs_heterogeneous, c.vs_hybrid].map(f64::to_bits),
            )
        })
        .collect();
    ((energies, store.stats()), (cells, sweep.cache_stats()))
}

/// Satellite + acceptance: a second process-equivalent (fresh stores,
/// populated artifact dir) reproduces all seven baseline-scenario
/// energies and every cell of the 6×3 savings matrix bit-for-bit
/// while performing **zero** LUT DP builds — every placement comes
/// off disk.
#[test]
fn warm_disk_tier_is_bit_identical_with_zero_builds() {
    let scratch = ScratchDir::new("warm");
    let ((cold, cold_stats), (cold_cells, _)) = disk_tier_pass(scratch.path());
    assert!(cold_stats.lut_builds >= 1);
    assert!(cold_stats.disk_writes >= 1);
    assert_eq!(cold_cells.len(), 18);

    let ((warm, warm_stats), (warm_cells, warm_sweep_stats)) = disk_tier_pass(scratch.path());
    assert_eq!(cold, warm, "warm disk-tier energies drifted");
    assert_eq!(cold_cells, warm_cells, "warm disk-tier sweep drifted");
    for (stats, what) in [(warm_stats, "runs"), (warm_sweep_stats, "sweep")] {
        assert_eq!(
            stats.lut_builds, 0,
            "{what}: a populated artifact dir must satisfy every LUT without DP"
        );
        assert!(stats.disk_hits >= 1, "{what}: {stats:?}");
        assert_eq!(stats.disk_writes, 0, "{what}: {stats:?}");
    }
}

/// Satellite: no truncation, single-byte substitution or seeded
/// multi-byte mutant of a LUT artifact panics the loader, and any
/// mutant that still loads is the original table bit for bit (it
/// re-serializes to the original text).
#[test]
fn mutated_lut_artifacts_load_the_original_or_fail_typed() {
    let (key, lut) = build_cell(Architecture::HhPim, TinyMlModel::MobileNetV2);
    let text = hhpim::lut_to_json(&key, &lut);
    let mut loaded = 0;
    for_each_mutation(&text, |mutant| {
        if let Ok(back) = hhpim::lut_from_json(&key, mutant) {
            assert_eq!(hhpim::lut_to_json(&key, &back), text, "{mutant}");
            loaded += 1;
        }
    });
    assert!(loaded > 0, "whitespace-only mutants must still load");
}

/// Satellite: no truncation, single-byte substitution or seeded
/// multi-byte mutant of a recorded trace panics its reader. (Traces
/// carry no checksum, so a mutant may load with other values.)
#[test]
fn mutated_recorded_traces_never_panic() {
    let arrivals = (0..8)
        .map(|i| RecordedArrival {
            time: f64::from(i) * 0.7,
            load: 0.125 * f64::from(i % 5),
        })
        .collect();
    let trace = RecordedTrace::new("mutation \"λ=3\"", arrivals).unwrap();
    for_each_mutation(&trace.to_json(), |mutant| {
        let _ = RecordedTrace::from_json(mutant);
    });
}
