//! Streaming ≡ batch contract tests: an `Engine` fed slice-by-slice
//! must produce bit-identical `ExecutionReport`s to `Session::run()`
//! on the same trace — for both backends and all three placement
//! policies — and its event stream must be deterministic (same seed ⇒
//! same events in the same order).

use hhpim::engine::{Engine, EngineEvent, SubmitOutcome};
use hhpim::session::SessionBuilder;
use hhpim::{movement_legs, BackendKind, ExecutionBackend, ExecutionReport};
use hhpim::{FixedHome, GreedyBaseline, LutAdaptive};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
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

fn policied(builder: SessionBuilder, policy: &str) -> SessionBuilder {
    match policy {
        "lut-adaptive" => builder.policy(LutAdaptive::new()),
        "fixed-home" => builder.policy(FixedHome::arch_default()),
        "greedy" => builder.policy(GreedyBaseline::new()),
        other => panic!("unknown policy {other}"),
    }
}

fn boxed_backend(kind: BackendKind, policy: &str) -> Box<dyn ExecutionBackend> {
    let builder = policied(
        SessionBuilder::new().model(TinyMlModel::MobileNetV2),
        policy,
    );
    match kind {
        BackendKind::Analytic => Box::new(builder.build_analytic().unwrap()),
        BackendKind::Cycle => Box::new(builder.build_cycle().unwrap()),
        other => panic!("unknown backend {other}"),
    }
}

/// Feeds `trace` slice-by-slice through a manual submit/step loop with
/// a deliberately tiny queue (so backpressure paths are exercised) and
/// returns the drained report plus the full event log.
fn streamed(
    kind: BackendKind,
    policy: &str,
    trace: &LoadTrace,
) -> (ExecutionReport, Vec<EngineEvent>) {
    let mut engine =
        Engine::from_backends(vec![boxed_backend(kind, policy)]).with_queue_capacity(2);
    for &load in trace.loads() {
        loop {
            match engine.submit(load).unwrap() {
                SubmitOutcome::Accepted => break,
                // `SubmitOutcome` is `#[non_exhaustive]`: downstream
                // matches need a fallback arm for future outcomes.
                // Anything that is not an acceptance frees a slot first.
                _ => {
                    engine.step().unwrap();
                }
            }
        }
    }
    let mut reports = engine.drain().unwrap();
    assert_eq!(reports.len(), 1);
    (reports.pop().unwrap(), engine.events().collect())
}

/// The batch facade on the same trace (replayed through a session).
fn batch(kind: BackendKind, policy: &str, trace: &LoadTrace) -> ExecutionReport {
    let mut session = policied(
        SessionBuilder::new()
            .model(TinyMlModel::MobileNetV2)
            .replay_loads(trace.loads().to_vec())
            .backend(kind),
        policy,
    )
    .build()
    .unwrap();
    let mut artifacts = session.run().unwrap();
    assert_eq!(artifacts.reports.len(), 1);
    artifacts.reports.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Acceptance: slice-by-slice streaming is bit-identical to the
    /// batch facade for the analytic backend under every policy, and
    /// the event order is deterministic across re-runs.
    #[test]
    fn analytic_streaming_matches_batch_for_all_policies(
        scenario in proptest::sample::select(Scenario::ALL.to_vec()),
        seed in 0u64..1000,
    ) {
        let trace = LoadTrace::generate(scenario, params(6, seed));
        for policy in POLICIES {
            let (streamed_report, events) = streamed(BackendKind::Analytic, policy, &trace);
            let batch_report = batch(BackendKind::Analytic, policy, &trace);
            assert_reports_identical(&streamed_report, &batch_report);
            // Same seed ⇒ the exact same event sequence.
            let (_, events_again) = streamed(BackendKind::Analytic, policy, &trace);
            prop_assert_eq!(&events, &events_again, "{}: event order must be deterministic", policy);
            // One completion per slice, in slice order.
            let completions: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    EngineEvent::SliceCompleted { record, .. } => Some(record.slice),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(completions, (0..trace.len()).collect::<Vec<_>>());
        }
    }

    /// The same contract holds on the cycle-level machine (fewer
    /// slices — every task physically executes the full layer stack).
    #[test]
    fn cycle_streaming_matches_batch_for_all_policies(
        scenario in proptest::sample::select(Scenario::ALL.to_vec()),
        seed in 0u64..1000,
    ) {
        let trace = LoadTrace::generate(scenario, params(4, seed));
        for policy in POLICIES {
            let (streamed_report, events) = streamed(BackendKind::Cycle, policy, &trace);
            let batch_report = batch(BackendKind::Cycle, policy, &trace);
            assert_reports_identical(&streamed_report, &batch_report);
            let (_, events_again) = streamed(BackendKind::Cycle, policy, &trace);
            prop_assert_eq!(&events, &events_again, "{}: event order must be deterministic", policy);
        }
    }
}

/// A dual-backend engine interleaves backends per slice; the reports
/// must still match a dual-backend session run, and the events must
/// tag each backend correctly and come slice by slice.
#[test]
fn dual_backend_engine_matches_dual_backend_session() {
    let trace = LoadTrace::generate(Scenario::PeriodicSpike, params(5, 11));
    let mut engine = Engine::from_backends(vec![
        boxed_backend(BackendKind::Analytic, "lut-adaptive"),
        boxed_backend(BackendKind::Cycle, "lut-adaptive"),
    ]);
    engine.pump(trace.loads().iter().copied()).unwrap();
    let reports = engine.drain().unwrap();

    let mut session = SessionBuilder::new()
        .model(TinyMlModel::MobileNetV2)
        .replay_loads(trace.loads().to_vec())
        .backend(BackendKind::Analytic)
        .backend(BackendKind::Cycle)
        .build()
        .unwrap();
    let artifacts = session.run().unwrap();
    assert_eq!(reports.len(), 2);
    for (engine_report, session_report) in reports.iter().zip(&artifacts.reports) {
        assert_reports_identical(engine_report, session_report);
    }

    // Both backends completed every slice, tagged with their kind.
    let events: Vec<EngineEvent> = engine.events().collect();
    // Slice-major: all of the analytic backend's events for slice `s`,
    // then the cycle backend's, then slice `s + 1`.
    let order: Vec<(usize, bool)> = events
        .iter()
        .map(|e| {
            let (backend, slice) = match e {
                EngineEvent::SliceCompleted { backend, record } => (backend, record.slice),
                EngineEvent::Migration { backend, record } => (backend, record.slice),
                EngineEvent::Replacement { backend, slice, .. }
                | EngineEvent::DeadlineMiss { backend, slice, .. }
                | EngineEvent::IdleAccrued { backend, slice, .. } => (backend, *slice),
                other => panic!("unexpected event {other:?}"),
            };
            (slice, *backend == BackendKind::Cycle)
        })
        .collect();
    assert!(order.windows(2).all(|w| w[0] <= w[1]), "{order:?}");
    for kind in [BackendKind::Analytic, BackendKind::Cycle] {
        let completed = events
            .iter()
            .filter(
                |e| matches!(e, EngineEvent::SliceCompleted { backend, .. } if *backend == kind),
            )
            .count();
        assert_eq!(completed, trace.len(), "{kind}");
    }
}

/// A LUT-adaptive stream on a spiky trace must surface the engine's
/// headline events on both backends: the replacement decision, whose
/// leg plan is `movement_legs(from, to)`, the migration realizing it
/// right after, and idle accrual at low load.
#[test]
fn replacement_events_carry_the_movement_plan() {
    let trace = LoadTrace::generate(Scenario::PeriodicSpike, params(6, 0));
    for kind in [BackendKind::Analytic, BackendKind::Cycle] {
        let (report, events) = streamed(kind, "lut-adaptive", &trace);
        let mut replacements = 0;
        for (i, event) in events.iter().enumerate() {
            let EngineEvent::Replacement {
                slice,
                from,
                to,
                legs,
                ..
            } = event
            else {
                continue;
            };
            replacements += 1;
            assert_ne!(from, to, "{kind}");
            assert_eq!(*legs, movement_legs(from, to), "{kind}");
            let Some(EngineEvent::Migration { record, .. }) = events.get(i + 1) else {
                panic!("{kind}: replacement at slice {slice} not followed by its migration");
            };
            assert_eq!((record.slice, record.from, record.to), (*slice, *from, *to));
            let moved: usize = legs.iter().map(|l| l.groups).sum();
            assert_eq!(moved, record.groups, "{kind}");
            assert!(report.migrations.contains(record), "{kind}");
        }
        assert!(replacements > 0, "{kind}: spiky load must re-place");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, EngineEvent::IdleAccrued { .. })),
            "{kind}: a mostly-idle trace must accrue idle time"
        );
        // The fixed home never replaces — its stream has no such events.
        let (_, fixed_events) = streamed(kind, "fixed-home", &trace);
        assert!(!fixed_events.iter().any(|e| matches!(
            e,
            EngineEvent::Replacement { .. } | EngineEvent::Migration { .. }
        )));
    }
}

/// `Engine::pump` over `take(n)` of an endless feed is just sugar over
/// the manual submit loop: pumping the first `n` loads produces the
/// same report as submitting the equivalent finite trace.
#[test]
fn budgeted_pump_matches_ingest() {
    let trace = LoadTrace::generate(Scenario::PeriodicSpike, params(6, 3));
    let loads = trace.loads();

    let mut pumped = Engine::from_backends(vec![boxed_backend(BackendKind::Analytic, "greedy")]);
    let mut live = loads.iter().copied().cycle();
    let executed = pumped.pump(live.by_ref().take(loads.len())).unwrap();
    assert_eq!(executed, loads.len());
    let pumped_reports = pumped.drain().unwrap();

    let mut ingested = Engine::from_backends(vec![boxed_backend(BackendKind::Analytic, "greedy")]);
    for &load in loads {
        ingested.submit_blocking(load).unwrap();
    }
    let ingested_reports = ingested.drain().unwrap();

    assert_reports_identical(&pumped_reports[0], &ingested_reports[0]);
}

/// Observer lifetime is an explicit contract: observers registered
/// before a `drain` keep firing on the engine's next epoch, and
/// `drain` resets the per-stream `events_dropped` counter.
#[test]
fn observers_outlive_drain_and_drop_counter_resets() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let seen = Arc::new(AtomicUsize::new(0));
    let hook = Arc::clone(&seen);
    let mut engine = Engine::from_backends(vec![boxed_backend(BackendKind::Analytic, "greedy")])
        .with_event_capacity(1);
    engine.observe(move |_: &EngineEvent| {
        hook.fetch_add(1, Ordering::SeqCst);
    });

    let trace = LoadTrace::generate(Scenario::PeriodicSpike, params(4, 7));
    engine.pump(trace.loads().iter().copied()).unwrap();
    let first_epoch = seen.load(Ordering::SeqCst);
    assert!(first_epoch > 0, "observer fires during the first epoch");
    assert!(
        engine.events_dropped() > 0,
        "a capacity-1 buffer must shed events (observers still saw all of them)"
    );

    engine.drain().unwrap();
    assert_eq!(
        engine.events_dropped(),
        0,
        "drain starts a fresh event stream: the drop counter resets"
    );
    assert_eq!(engine.observer_count(), 1, "observers survive drain");

    engine.pump(trace.loads().iter().copied()).unwrap();
    engine.drain().unwrap();
    assert!(
        seen.load(Ordering::SeqCst) > first_epoch,
        "the same observer keeps firing after drain"
    );
}

/// Backends are `Send` by contract, so an owner can move one to
/// another thread.
#[test]
fn backends_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<hhpim::AnalyticBackend>();
    assert_send::<hhpim::CycleBackend>();
    assert_send::<Box<dyn ExecutionBackend>>();
}
