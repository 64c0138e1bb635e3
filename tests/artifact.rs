//! Persistence-tier contract tests: artifacts saved by one store load
//! bit-identically into another, corrupted files degrade to typed
//! errors and transparent rebuilds (never a panic, never stale data),
//! a warm artifact directory reproduces every baseline energy with
//! zero DP builds, sharded sweeps merge bit-identically to the serial
//! sweep for every shard count, and no truncated or mutated artifact
//! or recorded trace panics its reader.

use hhpim::session::SessionBuilder;
use hhpim::{AllocationLut, ARTIFACT_FORMAT_VERSION};
use hhpim::{
    Architecture, ArtifactError, ArtifactStore, BackendKind, CostModel, CostParams,
    OptimizerConfig, PlacementKey, PlacementOptimizer, PlacementStore, RecordedArrival,
    RecordedTrace, RuntimeConfig, SavingsCell, SavingsMatrix, SweepArtifact, SweepStats,
    WorkloadProfile,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{Scenario, ScenarioParams};
use std::path::{Path, PathBuf};

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

/// One seven-case baseline pass (the six analytic scenarios plus the
/// cycle-accurate case 3) on a fresh in-memory store over `dir`,
/// returning each case's total energy bits and the final cache stats.
fn seven_case_energies(dir: &Path) -> (Vec<u64>, hhpim::CacheStats) {
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
    (energies, store.stats())
}

/// Satellite + acceptance: a second process-equivalent (fresh store,
/// populated artifact dir) reproduces all seven baseline-scenario
/// energies bit-for-bit while performing **zero** LUT DP builds —
/// every placement comes off disk.
#[test]
fn warm_disk_tier_is_bit_identical_with_zero_builds() {
    let scratch = ScratchDir::new("warm");
    let (cold, cold_stats) = seven_case_energies(scratch.path());
    assert!(cold_stats.lut_builds >= 1);
    assert!(cold_stats.disk_writes >= 1);

    let (warm, warm_stats) = seven_case_energies(scratch.path());
    assert_eq!(cold, warm, "warm disk-tier energies drifted");
    assert_eq!(
        warm_stats.lut_builds, 0,
        "a populated artifact dir must satisfy every LUT without DP"
    );
    assert!(warm_stats.disk_hits >= 1);
    assert_eq!(warm_stats.disk_writes, 0);
}

/// Satellite: for every worker count 1..=7, `sweep_shard` partitions
/// the 6×3 design space with no overlap and no omission, and the
/// merged shards are bit-for-bit the serial `sweep_all` — both
/// through the in-memory merge and through `SweepArtifact`'s
/// validated, disk-round-tripped merge.
#[test]
fn sweep_shards_merge_bit_identical_to_serial() {
    let scratch = ScratchDir::new("shards");
    let build = || {
        SessionBuilder::new()
            .scenario_params(quick_params())
            .optimizer(quick_opt())
            .store(PlacementStore::shared())
            .artifact_dir(scratch.path())
            .build()
            .unwrap()
    };
    let serial = build().sweep_all().unwrap();
    assert_eq!(
        serial.cells.len(),
        Scenario::ALL.len() * TinyMlModel::ALL.len()
    );

    for count in 1..=7 {
        let session = build();
        let shards: Vec<SavingsMatrix> = (0..count)
            .map(|index| session.sweep_shard(index, count).unwrap())
            .collect();

        // Cover: every (scenario, model) pair exactly once across
        // shards.
        let mut pairs: Vec<(usize, TinyMlModel)> = shards
            .iter()
            .flat_map(|m| m.cells.iter().map(|c| (c.scenario.case_number(), c.model)))
            .collect();
        assert_eq!(
            pairs.len(),
            serial.cells.len(),
            "count={count}: omission/overlap"
        );
        pairs.sort();
        pairs.dedup();
        assert_eq!(
            pairs.len(),
            serial.cells.len(),
            "count={count}: duplicate cell"
        );

        let assert_matches_serial = |merged: &SavingsMatrix, via: &str| {
            assert_eq!(merged.cells.len(), serial.cells.len());
            for (a, b) in serial.cells.iter().zip(&merged.cells) {
                assert_eq!(a.scenario, b.scenario, "count={count} via {via}");
                assert_eq!(a.model, b.model, "count={count} via {via}");
                for (x, y) in [
                    (a.vs_baseline, b.vs_baseline),
                    (a.vs_heterogeneous, b.vs_heterogeneous),
                    (a.vs_hybrid, b.vs_hybrid),
                ] {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "count={count} via {via}: {:?}/{:?} drifted",
                        a.scenario,
                        a.model
                    );
                }
            }
        };

        let merged = SavingsMatrix::merge_shards(shards.clone());
        assert_matches_serial(&merged, "merge_shards");

        // The same merge through the persisted artifact path: save
        // every shard, reload, and run the cover-validated merge.
        let artifacts: Vec<SweepArtifact> = shards
            .into_iter()
            .enumerate()
            .map(|(index, matrix)| {
                let artifact = SweepArtifact::new(index, count, matrix);
                let path = scratch
                    .path()
                    .join(format!("it-shard-{index}-of-{count}.json"));
                artifact.save(&path).unwrap();
                SweepArtifact::load(&path).unwrap()
            })
            .collect();
        let merged_artifact = SweepArtifact::merge(&artifacts).unwrap();
        assert_matches_serial(&merged_artifact.matrix, "SweepArtifact::merge");
    }
}

/// Hands `check` every proper prefix of `text`, then every variant
/// with one byte replaced by one of a fixed set of JSON-significant
/// bytes (skipping variants that are not UTF-8).
fn for_each_mutation(text: &str, mut check: impl FnMut(&str)) {
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        check(&text[..end]);
    }
    let mut bytes = text.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for &b in b"-09.e,]}[\" " {
            bytes[i] = b;
            if let Ok(mutant) = std::str::from_utf8(&bytes) {
                check(mutant);
            }
        }
        bytes[i] = original;
    }
}

/// Satellite: no truncation or single-byte substitution of a LUT
/// artifact panics the loader, and any mutant that still loads is the
/// original table bit for bit (it re-serializes to the original text).
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

/// Satellite: the same for a sweep artifact — a mutant that loads
/// carries the original shard and cells (its stats are outside the
/// checksum and may differ).
#[test]
fn mutated_sweep_artifacts_load_the_original_or_fail_typed() {
    let cells = TinyMlModel::ALL
        .iter()
        .zip(Scenario::ALL)
        .map(|(&model, scenario)| SavingsCell {
            scenario,
            model,
            vs_baseline: 61.25,
            vs_heterogeneous: 1.0 / 3.0,
            vs_hybrid: -0.5,
        })
        .collect();
    let mut artifact = SweepArtifact::new(1, 3, SavingsMatrix { cells });
    artifact.stats = Some(SweepStats {
        lut_builds: 3,
        disk_hits: 0,
        disk_writes: 3,
    });
    let payload = |a: &SweepArtifact| {
        SweepArtifact {
            stats: None,
            ..a.clone()
        }
        .to_json()
    };
    for_each_mutation(&artifact.to_json(), |mutant| {
        if let Ok(back) = SweepArtifact::from_json(mutant) {
            assert_eq!(payload(&back), payload(&artifact), "{mutant}");
        }
    });
}

/// Satellite: no truncation or single-byte substitution of a recorded
/// trace panics its reader. (Traces carry no checksum, so a mutant may
/// load with other values.)
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
