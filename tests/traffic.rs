//! Integration tests for the `hhpim::traffic` load-generation
//! subsystem: the ISSUE 8 acceptance contracts — seeded determinism
//! through the execution stack, offered-load fidelity, record→replay
//! round trips under time warp, and the budgeted-pump regression.

use hhpim::session::SessionBuilder;
use hhpim::{
    record_slices, Engine, EngineEvent, LoadDistribution, RecordedTrace, ReplayTraffic,
    TraceRecorder, TrafficConfig, TrafficEngine, TrafficSource,
};
use proptest::prelude::*;

fn engine() -> Engine {
    Engine::new(SessionBuilder::new().build_analytic().unwrap())
}

fn any_config() -> impl Strategy<Value = TrafficConfig> {
    let process: proptest::strategy::Union<TrafficConfig> = prop_oneof![
        (0.5f64..8.0).prop_map(TrafficConfig::poisson),
        (2.0f64..10.0, 0.1f64..1.0, 1.0f64..5.0, 1.0f64..8.0)
            .prop_map(|(b, i, mb, mi)| TrafficConfig::bursty(b, i, mb, mi)),
        (0.5f64..4.0, 4.0f64..24.0).prop_map(|(base, period)| TrafficConfig::diurnal(
            base,
            period,
            vec![0.2, 0.6, 1.8, 2.4, 1.2, 0.4],
        )),
    ];
    (process, 0u64..10_000).prop_map(|(config, seed)| {
        config.with_seed(seed).with_load(LoadDistribution::Uniform {
            low: 0.05,
            high: 0.25,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same seed + same config ⇒ bit-identical arrival sequence and
    /// bit-identical `ExecutionReport` through the engine — for
    /// Poisson, bursty, and diurnal processes alike.
    #[test]
    fn same_seed_same_report(config in any_config()) {
        let run = |config: TrafficConfig| {
            let mut engine = engine();
            engine.pump(TrafficEngine::new(config).take(40)).unwrap();
            engine.drain().unwrap().remove(0)
        };
        let a = run(config.clone());
        let b = run(config.clone());
        prop_assert_eq!(&a, &b, "same seed must give bit-identical reports");
        let c = run(config.with_seed(u64::MAX / 2 + 7));
        prop_assert_ne!(&a, &c, "a different seed must actually change the run");
    }

    /// A recorded arrival stream replayed at warp 1.0 re-offers the
    /// exact per-slice loads the engine saw live.
    #[test]
    fn recorded_arrivals_replay_identically(config in any_config()) {
        let recorder = TraceRecorder::new();
        let mut live = TrafficEngine::new(config.clone()).with_recorder(&recorder);
        let live_loads: Vec<f64> = (0..60).map(|_| live.next_load()).collect();
        let trace = recorder.finish(config.label()).unwrap();
        // The recording round-trips through its JSON form unchanged.
        let trace = RecordedTrace::from_json(&trace.to_json()).unwrap();
        let mut replay = ReplayTraffic::new(trace);
        let replay_loads: Vec<f64> = (0..60).map(|_| replay.next_load()).collect();
        prop_assert_eq!(live_loads, replay_loads);
    }
}

/// Generated mean arrival rate stays within 5 % of the configured λ
/// over ≥10k arrivals (seeded, so this is a regression test, not a
/// flaky statistical one).
#[test]
fn poisson_rate_fidelity_over_10k_arrivals() {
    for (seed, rate) in [(1u64, 2.0f64), (2, 5.0), (3, 12.0)] {
        let mut traffic = TrafficEngine::new(TrafficConfig::poisson(rate).with_seed(seed));
        while traffic.arrivals() < 10_000 {
            traffic.next_load();
        }
        let observed = traffic.mean_rate();
        assert!(
            (observed / rate - 1.0).abs() < 0.05,
            "seed {seed}: observed rate {observed} strays from λ={rate}"
        );
    }
}

/// The long-run rate of the modulated processes also tracks their
/// analytic mean rate within 5 %.
#[test]
fn modulated_rate_fidelity_over_10k_arrivals() {
    let bursty = TrafficConfig::bursty(10.0, 0.5, 3.0, 6.0).with_seed(4);
    // Dwell-weighted mean: (10·3 + 0.5·6) / (3 + 6).
    let bursty_mean = (10.0 * 3.0 + 0.5 * 6.0) / 9.0;
    let diurnal = TrafficConfig::diurnal(2.0, 8.0, vec![0.5, 1.0, 2.0, 0.5]).with_seed(5);
    let diurnal_mean = 2.0 * (0.5 + 1.0 + 2.0 + 0.5) / 4.0;
    for (config, expected) in [(bursty, bursty_mean), (diurnal, diurnal_mean)] {
        let label = config.label();
        let mut traffic = TrafficEngine::new(config);
        while traffic.arrivals() < 10_000 {
            traffic.next_load();
        }
        assert!(
            (traffic.mean_rate() / expected - 1.0).abs() < 0.05,
            "{label}: observed {} vs analytic {expected}",
            traffic.mean_rate()
        );
    }
}

/// Recording *executed* slices through the engine observer and
/// replaying them at warp 1.0 reproduces the original
/// `ExecutionReport` bit for bit; warp ≠ 1.0 preserves the per-slice
/// loads (dilation interleaves idle slices, compression conserves
/// total load).
#[test]
fn record_replay_round_trip_with_time_warp() {
    let config = TrafficConfig::poisson(3.0).with_seed(42);
    let recorder = TraceRecorder::new();
    let mut live = engine();
    record_slices(&mut live, &recorder);
    live.pump(TrafficEngine::new(config).take(50)).unwrap();
    let original = live.drain().unwrap().remove(0);

    let trace = recorder.finish("executed capture").unwrap();
    assert_eq!(trace.len(), 50);

    // Warp 1.0: bit-identical report through a fresh engine.
    let identity = ReplayTraffic::new(trace.clone()).to_loads();
    let mut rerun = engine();
    for load in &identity {
        rerun.submit_blocking(*load).unwrap();
        rerun.step().unwrap();
    }
    assert_eq!(original, rerun.drain().unwrap().remove(0));

    // Warp 0.5 (dilation): every non-idle slice's load is preserved,
    // in order, with idle gaps between them.
    let dilated = ReplayTraffic::new(trace.clone())
        .warp(0.5)
        .unwrap()
        .to_loads();
    let originals: Vec<f64> = identity.iter().copied().filter(|&l| l > 0.0).collect();
    let survivors: Vec<f64> = dilated.iter().copied().filter(|&l| l > 0.0).collect();
    assert_eq!(
        originals, survivors,
        "dilation must preserve per-slice loads"
    );
    assert!(
        dilated.len() > identity.len(),
        "dilation must spread slices out"
    );

    // Warp 2.0 (compression): total load is conserved.
    let compressed = ReplayTraffic::new(trace).warp(2.0).unwrap().to_loads();
    let total: f64 = identity.iter().sum();
    assert!(
        (compressed.iter().sum::<f64>() - total).abs() < 1e-9,
        "compression must conserve total load"
    );
    assert!(compressed.iter().all(|&l| (0.0..=1.0).contains(&l)));
}

/// A pump over `take(BUDGET)` of a live `TrafficEngine` stops at
/// exactly the budget, executes everything it pulled, and loses no
/// events.
#[test]
fn budgeted_pump_stops_exactly_at_budget_with_no_events_lost() {
    const BUDGET: usize = 64;
    let mut engine =
        Engine::new(SessionBuilder::new().build_analytic().unwrap()).with_event_capacity(4096);
    let mut traffic = TrafficEngine::new(TrafficConfig::poisson(4.0).with_seed(9));
    let executed = engine.pump(traffic.by_ref().take(BUDGET)).unwrap();
    assert_eq!(executed, BUDGET, "pump must stop exactly at the budget");
    assert_eq!(traffic.position(), BUDGET, "no read-ahead past the budget");
    assert_eq!(engine.pending(), 0, "everything pulled was executed");
    assert_eq!(engine.events_dropped(), 0, "no events lost");
    let completed = engine
        .events()
        .filter(|e| matches!(e, EngineEvent::SliceCompleted { .. }))
        .count();
    assert_eq!(completed, BUDGET, "one completion event per budgeted slice");
    let reports = engine.drain().unwrap();
    assert_eq!(reports[0].records.len(), BUDGET);
}

/// `TrafficSource` honours the `TraceSource` contract end to end: a
/// session over it re-runs bit-identically, and its traces match the
/// raw generator's output.
#[test]
fn traffic_source_matches_generator_through_session() {
    let config = TrafficConfig::bursty(6.0, 0.4, 2.0, 4.0).with_seed(17);
    let mut session = SessionBuilder::new()
        .trace_source(TrafficSource::new(config.clone(), 35))
        .build()
        .unwrap();
    let report = session.run().unwrap().primary().clone();
    assert_eq!(report.records.len(), 35);

    let direct: Vec<f64> = TrafficEngine::new(config).take(35).collect();
    let max = 10.0;
    for (record, load) in report.records.iter().zip(&direct) {
        let expected = if *load <= 0.0 {
            0
        } else {
            ((load * max).round() as u32).clamp(1, 10)
        };
        assert_eq!(record.n_tasks, expected, "slice {}", record.slice);
    }
}
