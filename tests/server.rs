//! Serving-layer contract tests for `hhpim::server`:
//!
//! 1. **Equivalence** — a single-tenant [`Server`] under [`AlwaysAdmit`]
//!    is bit-identical to [`Session::run`] on the same trace, for both
//!    backends and all three placement policies (the server is pure
//!    scheduling: it must add nothing to the modeled physics).
//! 2. **SLO protection** — under synthetic overload,
//!    [`ShedOnPressure`] never lets a higher-priority (stricter-SLO)
//!    tenant's miss rate exceed a lower-priority one's.
//! 3. **No starvation** — deficit-round-robin bounds every tenant's
//!    `max_starvation` by the other tenants' aggregate quantum, even
//!    with adversarial queue capacities.

use hhpim::server::{
    BatchCoalesce, QosClass, ServerBuilder, ServerError, ServerEvent, ShedOnPressure, TenantSpec,
};
use hhpim::session::{ScenarioSource, SessionBuilder, SessionError};
use hhpim::{
    BackendKind, CostModelError, FixedHome, GreedyBaseline, LutAdaptive, OptimizerConfig, Server,
};
use hhpim_nn::TinyMlModel;
use hhpim_sim::SimDuration;
use hhpim_workload::{Scenario, ScenarioParams};
use proptest::prelude::*;

mod common;
use common::assert_reports_identical;

const POLICIES: [&str; 3] = ["lut-adaptive", "fixed-home", "greedy"];

fn params(slices: usize, seed: u64) -> ScenarioParams {
    ScenarioParams {
        slices,
        seed,
        ..ScenarioParams::default()
    }
}

fn policied_session(builder: SessionBuilder, policy: &str) -> SessionBuilder {
    match policy {
        "lut-adaptive" => builder.policy(LutAdaptive::new()),
        "fixed-home" => builder.policy(FixedHome::arch_default()),
        "greedy" => builder.policy(GreedyBaseline::new()),
        other => panic!("unknown policy {other}"),
    }
}

fn policied_server(builder: ServerBuilder, policy: &str) -> ServerBuilder {
    match policy {
        "lut-adaptive" => builder.policy(LutAdaptive::new()),
        "fixed-home" => builder.policy(FixedHome::arch_default()),
        "greedy" => builder.policy(GreedyBaseline::new()),
        other => panic!("unknown policy {other}"),
    }
}

/// One tenant, default QoS, [`AlwaysAdmit`]: the serving layer must be
/// pure plumbing over the same engine `Session::run` drives.
fn assert_single_tenant_equivalence(
    kind: BackendKind,
    policy: &str,
    scenario: Scenario,
    slices: usize,
    seed: u64,
) {
    let mut server = policied_server(Server::builder().backend(kind), policy)
        .tenant(TenantSpec::new(
            "solo",
            TinyMlModel::MobileNetV2,
            ScenarioSource::new(scenario, params(slices, seed)),
        ))
        .build()
        .unwrap();
    let served = server.run().unwrap();

    let mut session = policied_session(
        SessionBuilder::new()
            .model(TinyMlModel::MobileNetV2)
            .scenario(scenario)
            .scenario_params(params(slices, seed))
            .backend(kind),
        policy,
    )
    .build()
    .unwrap();
    let artifacts = session.run().unwrap();

    let tenant = served.tenant("solo").unwrap();
    assert_eq!(tenant.reports.len(), 1);
    assert_reports_identical(tenant.primary(), artifacts.primary());

    // The stats agree with the report they summarize.
    assert_eq!(tenant.stats.executed as usize, slices);
    assert_eq!(tenant.stats.admitted as usize, slices);
    assert_eq!(tenant.stats.shed, 0);
    assert_eq!(tenant.stats.service_share, 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Acceptance (analytic): single-tenant serving ≡ batch, for every
    /// placement policy.
    #[test]
    fn single_tenant_analytic_server_is_bit_identical_to_session(
        scenario in proptest::sample::select(Scenario::ALL.to_vec()),
        seed in 0u64..1000,
    ) {
        for policy in POLICIES {
            assert_single_tenant_equivalence(BackendKind::Analytic, policy, scenario, 6, seed);
        }
    }

    /// Acceptance (cycle): the same equivalence on the structural
    /// machine, where every slice really executes the layer stack.
    #[test]
    fn single_tenant_cycle_server_is_bit_identical_to_session(
        scenario in proptest::sample::select(Scenario::ALL.to_vec()),
        seed in 0u64..1000,
    ) {
        for policy in POLICIES {
            assert_single_tenant_equivalence(BackendKind::Cycle, policy, scenario, 4, seed);
        }
    }

    /// Acceptance: under overload (an unmeetable SLO on every slice),
    /// `ShedOnPressure` protects the stricter tenant — its executed
    /// miss rate never exceeds the laxer tenant's, and the shedding is
    /// directed at the tenant whose SLO is being violated.
    #[test]
    fn shed_on_pressure_orders_miss_rates_by_priority(
        scenario in proptest::sample::select(Scenario::ALL.to_vec()),
        seed in 0u64..1000,
    ) {
        // `deadline = 0` makes every executed slice an SLO miss: a
        // synthetic, deterministic overload independent of the cost
        // tables. The strict tenant tolerates no misses; the lax one
        // tolerates anything.
        let strict = QosClass::default()
            .with_priority(3)
            .with_queue_cap(2)
            .with_deadline(SimDuration::ZERO)
            .with_max_miss_rate(0.0);
        let lax = QosClass::default()
            .with_priority(1)
            .with_queue_cap(2)
            .with_deadline(SimDuration::ZERO)
            .with_max_miss_rate(1.0);
        let mut server = ServerBuilder::new()
            .admission(ShedOnPressure::new().with_min_samples(2))
            .miss_window(4)
            .tenant(
                TenantSpec::new(
                    "strict",
                    TinyMlModel::MobileNetV2,
                    ScenarioSource::new(scenario, params(16, seed)),
                )
                .qos(strict),
            )
            .tenant(
                TenantSpec::new(
                    "lax",
                    TinyMlModel::MobileNetV2,
                    ScenarioSource::new(scenario, params(16, seed)),
                )
                .qos(lax),
            )
            .build()
            .unwrap();
        let report = server.run().unwrap();
        let strict = report.tenant("strict").unwrap().stats;
        let lax = report.tenant("lax").unwrap().stats;

        prop_assert!(
            strict.miss_rate() <= lax.miss_rate(),
            "strict tenant missed {:.3} > lax {:.3} ({scenario}, seed {seed})",
            strict.miss_rate(),
            lax.miss_rate()
        );
        // The controller actually engaged, and only where the SLO was
        // violated: the lax tenant rode through untouched.
        prop_assert!(strict.shed > 0, "overload must shed the strict tenant");
        prop_assert_eq!(lax.shed, 0, "a tenant within its SLO is never shed");
        prop_assert_eq!(lax.executed, 16, "the lax tenant executes everything");
        prop_assert!(strict.executed < 16);
        prop_assert_eq!(
            strict.executed + strict.shed,
            16,
            "every offered slice is accounted admitted-or-shed"
        );
    }

    /// Acceptance: DRR bounds starvation. However adversarial the
    /// queue capacities, no tenant with queued work ever waits through
    /// more consecutive foreign slices than the other tenants'
    /// aggregate quantum (one full round of everyone else's service).
    #[test]
    fn drr_bounds_max_starvation_by_aggregate_foreign_quantum(
        seed in 0u64..1000,
        cap0 in 1usize..65,
        cap1 in 1usize..65,
        cap2 in 1usize..65,
    ) {
        let caps = [cap0, cap1, cap2];
        let priorities = [5u32, 2, 1];
        let mut builder = ServerBuilder::new();
        for (i, (&cap, &priority)) in caps.iter().zip(&priorities).enumerate() {
            builder = builder.tenant(
                TenantSpec::new(
                    format!("t{i}"),
                    TinyMlModel::MobileNetV2,
                    ScenarioSource::new(Scenario::HighConstant, params(12, seed + i as u64)),
                )
                .qos(
                    QosClass::default()
                        .with_priority(priority)
                        .with_queue_cap(cap),
                ),
            );
        }
        let report = builder.build().unwrap();
        let report = {
            let mut server = report;
            server.run().unwrap()
        };
        let total_quantum: u64 = priorities.iter().map(|&p| u64::from(p.max(1))).sum();
        for tenant in &report.tenants {
            let own = u64::from(tenant.qos.priority.max(1));
            let foreign = total_quantum - own;
            prop_assert!(
                tenant.stats.max_starvation <= foreign,
                "{}: starved {} consecutive slices > foreign quantum {} (caps {caps:?}, seed {seed})",
                tenant.name,
                tenant.stats.max_starvation,
                foreign
            );
            prop_assert_eq!(tenant.stats.executed, 12, "work-conserving: everyone finishes");
        }
    }
}

/// The per-tenant policy override: tenants on the same server may pin
/// different placement policies, and each behaves exactly like a
/// solo session under that policy.
#[test]
fn per_tenant_policy_overrides_match_their_solo_sessions() {
    let scenario = Scenario::PeriodicSpike;
    let mut server = ServerBuilder::new()
        .tenant(
            TenantSpec::new(
                "adaptive",
                TinyMlModel::MobileNetV2,
                ScenarioSource::new(scenario, params(5, 9)),
            )
            .policy(LutAdaptive::new()),
        )
        .tenant(
            TenantSpec::new(
                "pinned",
                TinyMlModel::MobileNetV2,
                ScenarioSource::new(scenario, params(5, 9)),
            )
            .policy(FixedHome::arch_default()),
        )
        .build()
        .unwrap();
    let report = server.run().unwrap();

    for (name, policy) in [("adaptive", "lut-adaptive"), ("pinned", "fixed-home")] {
        let mut session = policied_session(
            SessionBuilder::new()
                .model(TinyMlModel::MobileNetV2)
                .scenario(scenario)
                .scenario_params(params(5, 9))
                .backend(BackendKind::Analytic),
            policy,
        )
        .build()
        .unwrap();
        let artifacts = session.run().unwrap();
        assert_reports_identical(report.tenant(name).unwrap().primary(), artifacts.primary());
    }

    // The pinned tenant never migrates; the adaptive one re-places on
    // the spiky trace — two policies genuinely coexisted.
    assert!(report
        .tenant("pinned")
        .unwrap()
        .primary()
        .migrations
        .is_empty());
    assert!(!report
        .tenant("adaptive")
        .unwrap()
        .primary()
        .migrations
        .is_empty());
}

/// A server is reusable like a session: two runs over deterministic
/// sources produce bit-identical reports.
#[test]
fn reruns_are_bit_identical() {
    let mut server = ServerBuilder::new()
        .tenant(TenantSpec::new(
            "cam",
            TinyMlModel::MobileNetV2,
            ScenarioSource::new(Scenario::Random, params(6, 3)),
        ))
        .build()
        .unwrap();
    let first = server.run().unwrap();
    let second = server.run().unwrap();
    assert_reports_identical(
        first.tenant("cam").unwrap().primary(),
        second.tenant("cam").unwrap().primary(),
    );
}

/// A NaN `retention_factor` used to panic inside the tenant's DP; the
/// server reports it as the tenant's typed build error instead.
#[test]
fn out_of_domain_retention_factor_fails_the_tenant_build() {
    let result = ServerBuilder::new()
        .optimizer(OptimizerConfig {
            retention_factor: f64::NAN,
            ..OptimizerConfig::default()
        })
        .tenant(TenantSpec::new(
            "cam",
            TinyMlModel::MobileNetV2,
            ScenarioSource::new(Scenario::PeriodicSpike, params(4, 1)),
        ))
        .build();
    assert!(matches!(
        result,
        Err(ServerError::Build {
            tenant,
            error: SessionError::Cost(CostModelError::InvalidParameter {
                field: "retention_factor",
                ..
            }),
        }) if tenant == "cam"
    ));
}

/// Count and FNV-1a digest of the events' `Debug` forms: the digest
/// moves if any event, field or position in the sequence changes.
fn signature(events: &[ServerEvent]) -> (usize, u64) {
    let bytes = events.iter().flat_map(|e| format!("{e:?}").into_bytes());
    let hash = bytes.fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (events.len(), hash)
}

/// Three tenants with mixed priorities and queue caps and a 60 ms
/// per-task SLO, which low-load MobileNetV2 slices miss.
fn three_tenant_events(kind: BackendKind, coalesce: bool) -> Vec<ServerEvent> {
    let mut builder = ServerBuilder::new().backend(kind).miss_window(4);
    builder = if coalesce {
        builder.admission(BatchCoalesce::new().with_pressure(1))
    } else {
        builder.admission(ShedOnPressure::new().with_min_samples(2))
    };
    let tenants = [
        (TinyMlModel::MobileNetV2, Scenario::PeriodicSpike, 3, 2),
        (TinyMlModel::ResNet18, Scenario::Random, 1, 3),
        (TinyMlModel::EfficientNetB0, Scenario::HighLowPulsing, 2, 1),
    ];
    for (seed, (model, scenario, priority, queue_cap)) in tenants.into_iter().enumerate() {
        let qos = QosClass {
            deadline: SimDuration::from_ms(60),
            priority,
            queue_cap,
            max_miss_rate: 0.5,
        };
        let source = ScenarioSource::new(scenario, params(8, seed as u64));
        builder = builder.tenant(TenantSpec::new(format!("t{seed}"), model, source).qos(qos));
    }
    let mut server = builder.build().unwrap();
    server.run().unwrap();
    server.events().collect()
}

/// The full `ServerEvent` sequence of a three-tenant run on both
/// backends, under shedding with SLO misses and under coalescing, is
/// pinned: any change to an event, its fields or the order shows here.
#[test]
fn three_tenant_event_sequences_are_pinned() {
    let pinned = [
        (BackendKind::Analytic, false, (96, 8454390426507913500)),
        (BackendKind::Analytic, true, (88, 14190989413505295679)),
        (BackendKind::Cycle, false, (96, 7273042406993858888)),
        (BackendKind::Cycle, true, (88, 14328680036508234322)),
    ];
    for (kind, coalesce, expected) in pinned {
        let events = three_tenant_events(kind, coalesce);
        let case = format!("{kind}, coalesce {coalesce}");
        assert_eq!(signature(&events), expected, "{case}: {events:#?}");
    }
}
