//! # Traffic integration: load generation meets the execution stack
//!
//! The generators live in [`hhpim_workload::traffic`] (re-exported
//! here); this module is the glue that lets them drive every entry
//! point in the crate:
//!
//! * [`TrafficSource`] — a [`TraceSource`] over a [`TrafficConfig`],
//!   so sessions and server tenants can be fed synthetic traffic
//!   (`SessionBuilder::trace_source`, `TenantSpec::new`).
//! * [`TrafficEngine`] itself — an endless `Iterator` of loads, so a
//!   live feed goes straight into [`Engine::pump`] or [`run_paced`].
//! * [`record_slices`] — taps an [`Engine`] with a [`TraceRecorder`]
//!   so *executed* slices (not just offered ones) can be captured and
//!   replayed through [`ReplayTraffic`].
//! * [`run_paced`] / [`serve_paced`] — wall-clock pacing of
//!   [`Engine::step`] and [`Server`] rounds under a [`Pacer`],
//!   yielding a [`LoadReport`].
//!
//! Determinism carries through: pacing and recording never perturb
//! the load sequence, so a paced run produces the same
//! `ExecutionReport` as a free-running one over the same config.

use crate::engine::{Engine, EngineError, EngineEvent};
use crate::server::{ServeReport, Server, ServerError, ServerEvent};
use crate::session::{SessionError, TraceSource};
use hhpim_workload::LoadTrace;

pub use hhpim_workload::traffic::{
    ArrivalProcess, BurstyOnOff, ConstantRate, Diurnal, LoadDistribution, LoadReport, Pacer,
    Poisson, RecordedArrival, RecordedTrace, ReplayTraffic, TraceRecorder, TrafficConfig,
    TrafficEngine, TrafficError, TRACE_FORMAT_VERSION,
};

/// A [`TraceSource`] over a finite horizon of synthetic traffic.
///
/// Each [`TrafficSource::trace`] call runs a *fresh* seeded
/// [`TrafficEngine`] over the config, so repeated pulls (session
/// re-runs, server re-serves, sweep cells) see the identical trace —
/// the same contract every other source in the crate honours.
#[derive(Debug, Clone)]
pub struct TrafficSource {
    config: TrafficConfig,
    slices: usize,
}

impl TrafficSource {
    /// A source generating the first `slices` slices of `config`'s
    /// feed.
    pub fn new(config: TrafficConfig, slices: usize) -> Self {
        TrafficSource { config, slices }
    }

    /// The underlying traffic description.
    pub fn config(&self) -> &TrafficConfig {
        &self.config
    }

    /// The finite horizon, in slices.
    pub fn slices(&self) -> usize {
        self.slices
    }
}

impl TraceSource for TrafficSource {
    fn label(&self) -> String {
        format!("{} × {} slices", self.config.label(), self.slices)
    }

    fn trace(&self) -> Result<LoadTrace, SessionError> {
        Ok(TrafficEngine::new(self.config.clone()).take_trace(self.slices)?)
    }
}

/// Taps `engine` with `recorder`: every completed slice on the
/// engine's primary (first) backend is captured as an
/// `(arrival time, load)` pair — time is the slice index, load is the
/// executed `n_tasks / max_tasks`. Replaying the capture at warp 1.0
/// re-offers exactly the loads the engine executed (quantization is
/// exact: `n / max` quantizes back to `n` tasks, and idle slices
/// round-trip as zero).
///
/// The observer lives as long as the engine; keep the original
/// recorder handle (clones share the buffer) to read the capture
/// back with [`TraceRecorder::finish`].
pub fn record_slices(engine: &mut Engine, recorder: &TraceRecorder) {
    let primary = engine.backend_kinds().first().copied();
    let max_tasks = engine.max_tasks() as f64;
    let tap = recorder.clone();
    engine.observe(move |event: &EngineEvent| {
        if let EngineEvent::SliceCompleted { backend, record } = event {
            if Some(*backend) == primary {
                tap.record(record.slice as f64, record.n_tasks as f64 / max_tasks);
            }
        }
    });
}

/// Paces `loads` through `engine` against the wall clock, one slice
/// per load: each round takes the next load, waits for the pacer's
/// next boundary, executes the load, and records the slice's latency.
/// Returns the pacer's [`LoadReport`] with offered load (what the
/// loads asked for) and achieved load (executed `n_tasks / max_tasks`
/// on the primary backend) filled in. Bound an endless feed such as a
/// [`TrafficEngine`] with `take`.
///
/// Pacing never perturbs the load sequence — the report's
/// `ExecutionReport` twin from a free-running run is bit-identical.
/// The driver consumes the engine's buffered events and leaves the
/// engine mid-stream ([`Engine::drain`] it for reports).
///
/// # Errors
///
/// See [`Engine::step`].
pub fn run_paced(
    engine: &mut Engine,
    loads: impl IntoIterator<Item = f64>,
    pacer: &mut Pacer,
) -> Result<LoadReport, EngineError> {
    let primary = engine.backend_kinds().first().copied();
    let max_tasks = engine.max_tasks() as f64;
    let mut offered = 0.0;
    let mut achieved = 0.0;
    let mut slices = 0usize;
    for load in loads {
        pacer.pace();
        offered += load;
        engine.submit_blocking(load)?;
        engine.step()?;
        for event in engine.events() {
            if let EngineEvent::SliceCompleted { backend, record } = event {
                if Some(backend) == primary {
                    achieved += record.n_tasks as f64 / max_tasks;
                }
            }
        }
        pacer.complete();
        slices += 1;
    }
    let denom = slices.max(1) as f64;
    Ok(pacer.finish(offered / denom, achieved / denom))
}

/// Paces a whole [`Server`] run against the wall clock, one scheduling
/// round per pacer tick, then finishes the run and returns both the
/// [`ServeReport`] and the pacer's [`LoadReport`].
///
/// Offered load sums every admitted and shed load (coalesced loads
/// are counted once, when their merged slice is admitted); achieved
/// load sums executed `n_tasks / max_tasks` across all tenant
/// engines. Both are normalized per executed slice, so
/// `LoadReport::load_fidelity` reads as "fraction of offered work the
/// server actually executed". The driver consumes the server's
/// buffered event stream.
///
/// # Errors
///
/// See [`Server::run`] — including [`ServerError::Stalled`] when a
/// round moves nothing while work remains.
pub fn serve_paced(
    server: &mut Server,
    pacer: &mut Pacer,
) -> Result<(ServeReport, LoadReport), ServerError> {
    let max_tasks = server.max_tasks() as f64;
    let mut offered = 0.0;
    let mut achieved = 0.0;
    let mut executed = 0u64;
    while !server.finished() {
        pacer.pace();
        let progressed = server.round()?;
        for event in server.events() {
            match event {
                ServerEvent::Admitted { load, .. } | ServerEvent::Shed { load, .. } => {
                    offered += load;
                }
                ServerEvent::Engine {
                    event: EngineEvent::SliceCompleted { record, .. },
                    ..
                } => {
                    achieved += record.n_tasks as f64 / max_tasks;
                    executed += 1;
                }
                _ => {}
            }
        }
        pacer.complete();
        if !progressed {
            // Let run() diagnose the livelock as ServerError::Stalled.
            break;
        }
    }
    let report = server.run()?;
    let denom = executed.max(1) as f64;
    Ok((report, pacer.finish(offered / denom, achieved / denom)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{QosClass, Server, TenantSpec};
    use crate::session::SessionBuilder;
    use hhpim_nn::TinyMlModel;
    use std::time::Duration;

    fn engine() -> Engine {
        Engine::new(SessionBuilder::new().build_analytic().unwrap())
    }

    #[test]
    fn traffic_source_pulls_identically_per_run() {
        let source = TrafficSource::new(TrafficConfig::poisson(4.0).with_seed(7), 40);
        let a = source.trace().unwrap();
        let b = source.trace().unwrap();
        assert_eq!(a, b, "fresh engine per pull ⇒ identical traces");
        assert_eq!(a.len(), 40);
        assert!(source.label().contains("poisson"));
    }

    #[test]
    fn traffic_source_drives_a_session() {
        let mut session = SessionBuilder::new()
            .trace_source(TrafficSource::new(TrafficConfig::poisson(3.0), 30))
            .build()
            .unwrap();
        let a = session.run().unwrap().primary().clone();
        let b = session.run().unwrap().primary().clone();
        assert_eq!(a, b, "re-runs are bit-identical");
        assert_eq!(a.records.len(), 30);
    }

    #[test]
    fn stream_adapts_traffic_into_pump() {
        let mut engine = engine();
        let mut traffic = TrafficEngine::new(TrafficConfig::constant(2.0));
        let executed = engine.pump(traffic.by_ref().take(12)).unwrap();
        assert_eq!(executed, 12);
        assert_eq!(traffic.position(), 12);
        let reports = engine.drain().unwrap();
        assert_eq!(reports[0].records.len(), 12);
    }

    #[test]
    fn recorded_execution_replays_bit_identically() {
        let config = TrafficConfig::poisson(5.0).with_seed(11);
        let recorder = TraceRecorder::new();
        let mut live = engine();
        record_slices(&mut live, &recorder);
        let mut traffic = TrafficEngine::new(config);
        for _ in 0..50 {
            live.submit_blocking(traffic.next_load()).unwrap();
            live.step().unwrap();
        }
        let original = live.drain().unwrap().remove(0);

        // Replay the *executed* capture through a fresh engine.
        let trace = recorder.finish("capture").unwrap();
        assert_eq!(trace.len(), 50);
        let replay = ReplayTraffic::new(trace).to_loads();
        let mut rerun = engine();
        for load in replay {
            rerun.submit_blocking(load).unwrap();
            rerun.step().unwrap();
        }
        let replayed = rerun.drain().unwrap().remove(0);
        assert_eq!(original, replayed, "warp-1.0 replay is bit-identical");
    }

    #[test]
    fn paced_run_matches_free_running_reports() {
        let config = TrafficConfig::bursty(6.0, 0.5, 2.0, 4.0).with_seed(3);
        let mut free = engine();
        let mut traffic = TrafficEngine::new(config.clone());
        for _ in 0..20 {
            free.submit_blocking(traffic.next_load()).unwrap();
            free.step().unwrap();
        }
        let unpaced = free.drain().unwrap().remove(0);

        let mut paced = engine();
        let mut pacer = Pacer::new(Duration::from_micros(100)).unwrap();
        let report =
            run_paced(&mut paced, TrafficEngine::new(config).take(20), &mut pacer).unwrap();
        let paced_report = paced.drain().unwrap().remove(0);
        assert_eq!(unpaced, paced_report, "pacing never perturbs execution");
        assert_eq!(report.slices, 20);
        assert!(report.offered_load > 0.0);
        assert!(report.achieved_load > 0.0);
    }

    #[test]
    fn serve_paced_reports_load_and_finishes_the_server() {
        let mut server = Server::builder()
            .tenant(TenantSpec::new(
                "poisson",
                TinyMlModel::MobileNetV2,
                TrafficSource::new(TrafficConfig::poisson(4.0).with_seed(1), 25),
            ))
            .tenant(
                TenantSpec::new(
                    "bursty",
                    TinyMlModel::MobileNetV2,
                    TrafficSource::new(TrafficConfig::bursty(8.0, 0.3, 2.0, 5.0), 25),
                )
                .qos(QosClass::best_effort().with_priority(2)),
            )
            .build()
            .unwrap();
        let mut pacer = Pacer::new(Duration::from_micros(50)).unwrap();
        let (serve, load) = serve_paced(&mut server, &mut pacer).unwrap();
        assert_eq!(serve.tenants.len(), 2);
        assert_eq!(serve.total_executed(), 50);
        assert!(load.slices > 0);
        assert!(load.offered_load > 0.0);
        assert!(load.load_fidelity() > 0.0);
    }
}
