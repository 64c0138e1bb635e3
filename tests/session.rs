//! Contract tests for the `hhpim::session` facade: determinism of the
//! builder pipeline, the store each session owns by default, and
//! policy selectability end to end.
//! (`tests/backend_parity.rs` property-tests the `Session::compare`
//! energy bound.)

use hhpim::session::{SessionBuilder, SessionError};
use hhpim::{
    Architecture, BackendKind, CostModelError, CostParams, FixedHome, GreedyBaseline, LutAdaptive,
    OptimizerConfig, StorageSpace,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{Scenario, ScenarioParams};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::assert_reports_identical;

fn params(slices: usize, seed: u64) -> ScenarioParams {
    ScenarioParams {
        slices,
        seed,
        ..ScenarioParams::default()
    }
}

/// Satellite: same seed ⇒ identical `LoadTrace` and identical
/// `RunArtifacts`, across two independently built sessions.
#[test]
fn same_seed_produces_identical_traces_and_artifacts() {
    let build = || {
        SessionBuilder::new()
            .model(TinyMlModel::MobileNetV2)
            .scenario(Scenario::Random)
            .scenario_params(params(6, 0xFEED))
            .backend(BackendKind::Analytic)
            .backend(BackendKind::Cycle)
            .build()
            .unwrap()
    };
    let (a, b) = (build().run().unwrap(), build().run().unwrap());
    assert_eq!(a.trace, b.trace, "same seed must regenerate the trace");
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_reports_identical(ra, rb);
    }

    // A different seed changes the random trace (and the artifacts).
    let mut other = SessionBuilder::new()
        .model(TinyMlModel::MobileNetV2)
        .scenario(Scenario::Random)
        .scenario_params(params(6, 0xBEEF))
        .build()
        .unwrap();
    let c = other.run().unwrap();
    assert_ne!(a.trace, c.trace);
}

/// A session built without `.store(..)` owns a fresh store: two such
/// sessions share nothing, each pays its own single LUT build for
/// both of its backends, and their reports on one trace agree to the
/// bit.
#[test]
fn sessions_without_an_explicit_store_share_nothing() {
    let build = || {
        SessionBuilder::new()
            .model(TinyMlModel::MobileNetV2)
            .scenario(Scenario::PeriodicSpike)
            .scenario_params(params(6, 7))
            .backend(BackendKind::Analytic)
            .backend(BackendKind::Cycle)
            .build()
            .unwrap()
    };
    let (mut a, mut b) = (build(), build());
    assert!(
        !Arc::ptr_eq(a.store(), b.store()),
        "each session must own its store"
    );
    let (ra, rb) = (a.run().unwrap(), b.run().unwrap());
    for session in [&a, &b] {
        let stats = session.cache_stats();
        assert_eq!(
            (stats.lut_builds, stats.misses, stats.hits),
            (1, 1, 0),
            "one LUT build, made in the session's own store: {stats:?}"
        );
    }
    assert_eq!(ra.trace, rb.trace);
    for (x, y) in ra.reports.iter().zip(&rb.reports) {
        assert_reports_identical(x, y);
    }
}

/// A pinned placement the architecture cannot hold is rejected when
/// the policy is prepared, with a typed error naming the placement.
#[test]
fn invalid_pinned_placement_is_rejected() {
    let bogus = hhpim::Placement::all_in(StorageSpace::HpSram, 1);
    let err = SessionBuilder::new()
        .architecture(Architecture::HhPim)
        .model(TinyMlModel::MobileNetV2)
        .policy(FixedHome::pinned(bogus))
        .build_cycle()
        .unwrap_err();
    assert!(matches!(
        err,
        SessionError::Cost(CostModelError::InvalidPlacement { placement }) if placement == bogus
    ));
}

/// Builds and runs a periodic-spike session under `cost` and `opt`,
/// asserting it fails with the typed error naming `field`, never a
/// panic or an `Ok`.
fn assert_rejects_parameter(cost: CostParams, opt: OptimizerConfig, field: &str) {
    let result = SessionBuilder::new()
        .scenario(Scenario::PeriodicSpike)
        .scenario_params(params(4, 1))
        .cost_params(cost)
        .optimizer(opt)
        .build()
        .and_then(|mut session| session.run());
    match result {
        Err(SessionError::Cost(CostModelError::InvalidParameter { field: f, .. })) => {
            assert_eq!(f, field)
        }
        other => panic!("expected `{field}` to be rejected, got {other:?}"),
    }
}

/// A NaN or negative `retention_factor` used to panic inside the DP
/// ("scale factor must be finite and non-negative").
#[test]
fn out_of_domain_retention_factor_is_a_typed_error() {
    for retention_factor in [f64::NAN, -1.0] {
        let opt = OptimizerConfig {
            retention_factor,
            ..OptimizerConfig::default()
        };
        assert_rejects_parameter(CostParams::default(), opt, "retention_factor");
    }
}

/// A NaN or negative `time_scale` used to panic in the cost model
/// ("duration must be finite and non-negative"), and a zero one built
/// a session reporting 0 pJ.
#[test]
fn out_of_domain_time_scale_is_a_typed_error() {
    for time_scale in [f64::NAN, -1.0, 0.0] {
        let cost = CostParams {
            time_scale,
            ..CostParams::default()
        };
        assert_rejects_parameter(cost, OptimizerConfig::default(), "time_scale");
    }
}

/// A zero `max_tasks_per_slice` used to panic while quantizing loads
/// ("min > max").
#[test]
fn zero_max_tasks_per_slice_is_a_typed_error() {
    let cost = CostParams {
        max_tasks_per_slice: 0,
        ..CostParams::default()
    };
    assert_rejects_parameter(cost, OptimizerConfig::default(), "max_tasks_per_slice");
}

/// Acceptance: all three placement policies are selectable at build
/// time and flow through both backends of one session.
#[test]
fn three_policies_select_and_flow_through_both_backends() {
    fn misses_and_moves(policy_name: &str, artifacts: &hhpim::RunArtifacts) -> (usize, usize) {
        assert_eq!(artifacts.policy, policy_name);
        let a = artifacts.report(BackendKind::Analytic).unwrap();
        let c = artifacts.report(BackendKind::Cycle).unwrap();
        assert_eq!(
            a.migrations.len(),
            c.migrations.len(),
            "{policy_name}: both backends must replay the same policy decisions"
        );
        (a.deadline_misses, a.migrations.len())
    }
    let run = |policy_name: &str| {
        let mut builder = SessionBuilder::new()
            .model(TinyMlModel::MobileNetV2)
            .scenario(Scenario::PeriodicSpike)
            .scenario_params(params(5, 1))
            .backend(BackendKind::Analytic)
            .backend(BackendKind::Cycle);
        builder = match policy_name {
            "lut-adaptive" => builder.policy(LutAdaptive::new()),
            "fixed-home" => builder.policy(FixedHome::arch_default()),
            "greedy" => builder.policy(GreedyBaseline::new()),
            _ => unreachable!(),
        };
        builder.build().unwrap().run().unwrap()
    };
    let (_, lut_moves) = misses_and_moves("lut-adaptive", &run("lut-adaptive"));
    let (fixed_misses, fixed_moves) = misses_and_moves("fixed-home", &run("fixed-home"));
    let (greedy_misses, greedy_moves) = misses_and_moves("greedy", &run("greedy"));
    assert!(lut_moves > 0, "spiky load must re-place under the LUT");
    assert!(greedy_moves > 0, "greedy must also adapt");
    assert_eq!(fixed_moves, 0, "fixed home never migrates");
    assert_eq!(fixed_misses, 0);
    assert_eq!(greedy_misses, 0, "greedy must stay schedulable");
}

/// Zero replayed loads are rejected with the same typed `TraceError`
/// `LoadTrace::try_generate` returns, instead of building a degenerate
/// empty trace.
#[test]
fn zero_slice_closure_source_is_a_typed_trace_error() {
    let mut session = SessionBuilder::new()
        .replay_loads(Vec::new())
        .build()
        .unwrap();
    assert!(matches!(
        session.run().unwrap_err(),
        hhpim::SessionError::Trace(hhpim_workload::TraceError::Empty)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Determinism holds across scenarios and seeds, not just one
    /// hand-picked pair.
    #[test]
    fn artifacts_are_deterministic_across_scenarios(
        scenario in proptest::sample::select(Scenario::ALL.to_vec()),
        seed in 0u64..1000,
    ) {
        let build = || {
            SessionBuilder::new()
                .model(TinyMlModel::MobileNetV2)
                .scenario(scenario)
                .scenario_params(params(4, seed))
                .build()
                .unwrap()
        };
        let a = build().run().unwrap();
        let b = build().run().unwrap();
        prop_assert_eq!(&a.trace, &b.trace);
        prop_assert_eq!(&a.primary().records, &b.primary().records);
        prop_assert_eq!(
            a.primary().total_energy().as_pj().to_bits(),
            b.primary().total_energy().as_pj().to_bits()
        );
    }
}
