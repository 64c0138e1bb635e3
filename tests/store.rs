//! Store-semantics contract tests: one DP build per distinct
//! configuration across sessions, backends and sweeps; parallel
//! sweeps bit-identical to serial ones; a panicking build poisons
//! nothing.

use hhpim::session::SessionBuilder;
use hhpim::{
    Architecture, BackendKind, CostModel, CostParams, OptimizerConfig, PlacementStore, Processor,
    RuntimeConfig, WorkloadProfile,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{Scenario, ScenarioParams};
use std::sync::Arc;

fn quick_opt() -> OptimizerConfig {
    OptimizerConfig {
        time_buckets: 300,
        ..OptimizerConfig::default()
    }
}

fn quick_params() -> ScenarioParams {
    ScenarioParams {
        slices: 8,
        ..ScenarioParams::default()
    }
}

/// Satellite: the same `PlacementKey` yields a bit-identical LUT and
/// exactly one recorded build, no matter how many consumers ask.
#[test]
fn same_key_means_one_build_and_identical_luts() {
    let store = PlacementStore::shared();
    let params = CostParams::default();
    let cost = CostModel::new(
        Architecture::HhPim.spec(),
        WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
        params,
    )
    .unwrap();
    let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, params).unwrap();
    let opt = quick_opt();
    let a = store.lut(&cost, &runtime, &opt);
    let b = store.lut(&cost, &runtime, &opt);
    assert!(Arc::ptr_eq(&a, &b), "a hit must share the built table");
    assert_eq!(*a, *b, "shared LUTs are trivially bit-identical");
    let stats = store.stats();
    assert_eq!(stats.lut_builds, 1, "one DP build for one configuration");
    assert_eq!(stats.hits, 1);

    // The same configuration reached through the session facade still
    // hits the same entry.
    SessionBuilder::new()
        .model(TinyMlModel::MobileNetV2)
        .optimizer(opt)
        .scenario(Scenario::LowConstant)
        .scenario_params(quick_params())
        .store(Arc::clone(&store))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(store.stats().lut_builds, 1, "facade reuses the warm LUT");
}

/// Satellite: distinct architecture, model or optimizer parameters
/// produce distinct store entries (no false sharing).
#[test]
fn distinct_configurations_never_alias() {
    let store = PlacementStore::shared();
    let build = |model: TinyMlModel, buckets: usize, group_size: usize| {
        let params = CostParams {
            group_size,
            ..CostParams::default()
        };
        let cost = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&model.spec()),
            params,
        )
        .unwrap();
        let runtime = RuntimeConfig::reference(model, params).unwrap();
        store.lut(
            &cost,
            &runtime,
            &OptimizerConfig {
                time_buckets: buckets,
                ..OptimizerConfig::default()
            },
        )
    };
    let base = build(TinyMlModel::MobileNetV2, 300, 512);
    let other_model = build(TinyMlModel::EfficientNetB0, 300, 512);
    let other_opt = build(TinyMlModel::MobileNetV2, 200, 512);
    let other_cal = build(TinyMlModel::MobileNetV2, 300, 1024);
    for (label, other) in [
        ("model", &other_model),
        ("optimizer", &other_opt),
        ("calibration", &other_cal),
    ] {
        assert!(
            !Arc::ptr_eq(&base, other),
            "distinct {label} must get its own entry"
        );
    }
    let stats = store.stats();
    assert_eq!(stats.lut_builds, 4, "four configurations, four builds");
    assert_eq!(stats.hits, 0);
}

/// Acceptance: a dual-backend `Session::build` plus a full `sweep_all`
/// over all six scenarios records exactly one LUT DP build per
/// distinct configuration — one for the session's model, one for each
/// further model the sweep touches.
#[test]
fn dual_backend_build_plus_sweep_all_builds_each_lut_once() {
    let store = PlacementStore::shared();
    let mut session = SessionBuilder::new()
        .model(TinyMlModel::MobileNetV2)
        .optimizer(quick_opt())
        .scenario(Scenario::PeriodicSpike)
        .scenario_params(quick_params())
        .backend(BackendKind::Analytic)
        .backend(BackendKind::Cycle)
        .store(Arc::clone(&store))
        .build()
        .unwrap();
    let artifacts = session.run().unwrap();
    assert_eq!(
        artifacts.cache.lut_builds, 1,
        "dual-backend build pays one DP for its configuration"
    );

    let matrix = session.sweep_all().unwrap();
    assert_eq!(matrix.cells.len(), 18);
    let stats = session.cache_stats();
    assert_eq!(
        stats.lut_builds,
        TinyMlModel::ALL.len() as u64,
        "sweep_all adds one build per model not already warm; \
         MobileNetV2 reuses the session's LUT"
    );
    // The sweep hoists processors per model, so the store sees exactly
    // one LUT query per model: 3 LUTs, one already warm from the
    // session build (the single hit). The 9 fixed homes of the other
    // architectures never touch the store.
    assert_eq!(stats.misses, 3, "one LUT query per model: {stats:?}");
    assert_eq!(stats.hits, 1, "the session's own LUT is the only rehit");

    // A second sweep on the warm store builds nothing further — each
    // of its 3 LUT queries hits.
    session.sweep_all().unwrap();
    let rewarmed = session.cache_stats();
    assert_eq!(rewarmed.lut_builds, TinyMlModel::ALL.len() as u64);
    assert_eq!((rewarmed.misses, rewarmed.hits), (3, 4));
    assert_eq!(
        rewarmed.build_time, stats.build_time,
        "a warm sweep accrues no further build time"
    );
}

/// Satellite: the parallel sweep executor produces artifacts
/// bit-identical to the serial run — every cell of the full grid, at
/// 0.0000 % drift, in model-major order — including with more threads
/// than cells, where the executor clamps to one cell per thread.
#[test]
fn parallel_sweep_all_is_bit_identical_to_serial() {
    let build = |threads: usize| {
        SessionBuilder::new()
            .optimizer(quick_opt())
            .scenario_params(quick_params())
            .store(PlacementStore::shared()) // private store each: builds race in parallel
            .threads(threads)
            .build()
            .unwrap()
    };
    let serial = build(1).sweep_all().unwrap();
    assert_eq!(serial.cells.len(), 18);
    for (i, cell) in serial.cells.iter().enumerate() {
        assert_eq!(
            cell.model,
            TinyMlModel::ALL[i / Scenario::ALL.len()],
            "cell {i} breaks model-major order"
        );
        assert_eq!(cell.scenario, Scenario::ALL[i % Scenario::ALL.len()]);
    }
    for threads in [2, 4, 7, 32] {
        let session = build(threads);
        assert_eq!(session.threads(), threads);
        let parallel = session.sweep_all().unwrap();
        assert_eq!(parallel.cells.len(), serial.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!((s.scenario, s.model), (p.scenario, p.model), "cell order");
            assert_eq!(
                s.vs_baseline.to_bits(),
                p.vs_baseline.to_bits(),
                "{threads} threads, {} {}",
                s.scenario,
                s.model
            );
            assert_eq!(s.vs_heterogeneous.to_bits(), p.vs_heterogeneous.to_bits());
            assert_eq!(s.vs_hybrid.to_bits(), p.vs_hybrid.to_bits());
        }
        // The parallel run shares one store across workers: still one
        // build per distinct configuration, even under racing misses.
        assert_eq!(
            session.cache_stats().lut_builds,
            TinyMlModel::ALL.len() as u64,
            "{threads} threads"
        );
    }
}

/// The warm path is observably cheaper: a second identical session
/// build against a warm store performs no DP build at all.
#[test]
fn warm_session_builds_skip_the_dp() {
    let store = PlacementStore::shared();
    let build = || {
        SessionBuilder::new()
            .model(TinyMlModel::MobileNetV2)
            .optimizer(quick_opt())
            .scenario(Scenario::HighLowPulsing)
            .scenario_params(quick_params())
            .store(Arc::clone(&store))
            .build()
            .unwrap()
    };
    let mut cold = build();
    let cold_artifacts = cold.run().unwrap();
    assert_eq!(cold.cache_stats().lut_builds, 1);
    let build_time_after_cold = cold.cache_stats().build_time;

    let mut warm = build();
    let warm_artifacts = warm.run().unwrap();
    let stats = warm.cache_stats();
    assert_eq!(stats.lut_builds, 1, "warm build must not re-run the DP");
    assert_eq!(
        stats.build_time, build_time_after_cold,
        "no further build time accrues on the warm path"
    );
    assert!(stats.hits >= 1);

    // Same configuration ⇒ same results, cold or warm.
    assert_eq!(
        cold_artifacts.primary().total_energy().as_pj().to_bits(),
        warm_artifacts.primary().total_energy().as_pj().to_bits()
    );
}

/// Processors built directly (below the session facade) share the
/// same store plumbing.
#[test]
fn processors_share_an_explicit_store() {
    let store = PlacementStore::shared();
    let make = || {
        Processor::with_policy_in(
            Architecture::HhPim,
            TinyMlModel::MobileNetV2,
            CostParams::default(),
            quick_opt(),
            hhpim::default_policy(Architecture::HhPim),
            &store,
        )
        .unwrap()
    };
    let a = make();
    let b = make();
    assert_eq!(store.stats().lut_builds, 1);
    for n in [1u32, 4, 10] {
        assert_eq!(a.placement_for_tasks(n), b.placement_for_tasks(n));
    }
}

/// A build that panics poisons nothing: its key stays unbuilt, no
/// counter moves, and the same store goes on serving other keys with
/// LUTs equal to a fresh store's. A NaN `retention_factor` reaches the
/// DP only through a direct `PlacementStore::lut` call (the builders
/// reject it first), and panics there.
#[test]
fn a_panicking_build_leaves_the_store_serving() {
    let store = PlacementStore::new();
    let params = CostParams::default();
    let cost = CostModel::new(
        Architecture::HhPim.spec(),
        WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
        params,
    )
    .unwrap();
    let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, params).unwrap();
    let nan = OptimizerConfig {
        retention_factor: f64::NAN,
        ..quick_opt()
    };
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        store.lut(&cost, &runtime, &nan)
    }));
    assert!(built.is_err(), "a NaN retention factor panics in the DP");
    assert!(!store.contains_lut(&cost, &runtime, &nan));
    assert!(store.is_empty());

    let opt = quick_opt();
    let served = store.lut(&cost, &runtime, &opt);
    assert_eq!(*served, *PlacementStore::new().lut(&cost, &runtime, &opt));
    assert!(store.contains_lut(&cost, &runtime, &opt));
    let stats = store.stats();
    assert_eq!((stats.lut_builds, stats.misses, stats.hits), (1, 1, 0));
}
