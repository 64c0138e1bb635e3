//! The serve workloads: seeded tenants on one HH-PIM machine under
//! `ShedOnPressure`, driven one `Server::round` at a time.
//!
//! Every op serves each tenant's whole trace on a server freshly built
//! over the run's warm store; building it is not part of the op. A
//! reused server would not do: the cycle backend reports a stream's
//! energy as a difference of its machine's cumulative counters, so the
//! same trace served again on one server differs in the last bits, and
//! ops could not be compared exactly.

use crate::check::{report_digest, stats_digest, Reference, Tally, TenantDigest};
use crate::plan::{self, TenantPlan, Workload};
use crate::report::{self, line, OpTimes, Outcome, Values, Window, PER_LAYER};
use crate::trace::{self, TimingBackend, TracedAdmission, TracedPolicy, TracedSource};
use hhpim::server::{ServeReport, Server, ServerBuilder, ServerEvent, ShedOnPressure, TenantSpec};
use hhpim::session::SessionBuilder;
use hhpim::{
    BackendKind, EnergyCat, Engine, EngineEvent, ExecutionReport, LutAdaptive, PlacementStore,
    TrafficSource,
};
use std::cell::RefCell;
use std::collections::HashSet;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Fresh-store server builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Lowerings timed per model for `timegraph.lower_us`.
const LOWER_REPS: usize = 20;

/// One serve workload under one seed.
pub struct Serve {
    workload: Workload,
    seed: u64,
    kind: BackendKind,
    plan: Vec<TenantPlan>,
    /// The fingerprints every op must reproduce: the reference table's
    /// for a reference seed, else the run's first op's.
    expected: Option<Vec<TenantDigest>>,
    from_reference: bool,
    tally: Tally,
}

/// Untraced timings of one run.
struct Timings {
    setup: Vec<f64>,
    ops: OpTimes,
    first: ServeReport,
}

impl Serve {
    pub fn new(workload: Workload, seed: u64, reference: &Reference) -> Self {
        let expected = reference.serve(workload.name(), seed).map(<[_]>::to_vec);
        Serve {
            workload,
            seed,
            kind: workload.backend().expect("a serve workload has a backend"),
            plan: plan::tenants(workload, seed),
            from_reference: expected.is_some(),
            expected,
            tally: Tally::default(),
        }
    }

    /// Loads offered per op.
    fn loads(&self) -> u64 {
        self.plan.iter().map(|t| t.slices as u64).sum()
    }

    fn build(&self, store: &Arc<PlacementStore>, traced: bool) -> hhpim::Result<Server> {
        let mut builder = ServerBuilder::new()
            .backend(self.kind)
            .store(Arc::clone(store));
        builder = if traced {
            builder.admission(TracedAdmission::new(ShedOnPressure::new()))
        } else {
            builder.admission(ShedOnPressure::new())
        };
        for (i, t) in self.plan.iter().enumerate() {
            let source = TrafficSource::new(t.traffic.clone(), t.slices);
            let spec = if traced {
                TenantSpec::new(t.name.clone(), t.model, TracedSource::new(source, i))
                    .policy(TracedPolicy::new(LutAdaptive::new(), i))
            } else {
                TenantSpec::new(t.name.clone(), t.model, source)
            };
            builder = builder.tenant(spec.qos(t.qos));
        }
        Ok(builder.build()?)
    }

    /// Checks one op against the expected fingerprints, counting every
    /// offered load of a mismatching tenant as failed.
    fn check(&mut self, op: &str, report: &ServeReport) {
        self.tally.attempt(self.loads());
        if report.tenants.len() != self.plan.len() {
            let note = format!(
                "{op}: {} tenant reports for {} tenants → every metric",
                report.tenants.len(),
                self.plan.len()
            );
            self.tally.fail(self.loads(), note);
            return;
        }
        let digests: Vec<TenantDigest> = report
            .tenants
            .iter()
            .map(|t| TenantDigest {
                report: report_digest(t.primary()),
                stats: stats_digest(&t.stats),
            })
            .collect();
        let source = if self.from_reference {
            "the reference"
        } else {
            "the run's first op"
        };
        let expected = self.expected.get_or_insert_with(|| digests.clone());
        for (i, tenant) in report.tenants.iter().enumerate() {
            let loads = self.plan[i].slices as u64;
            if digests[i].report != expected[i].report {
                self.tally.fail(
                    loads,
                    format!(
                        "{op}: tenant {} ExecutionReport differs from {source} → model_energy_per_task_mj",
                        tenant.name
                    ),
                );
            } else if digests[i].stats != expected[i].stats {
                self.tally.fail(
                    loads,
                    format!(
                        "{op}: tenant {} TenantStats differ from {source} → model_qos_miss_rate",
                        tenant.name
                    ),
                );
            }
            if tenant.stats.shed > 0 {
                self.tally.fail(
                    tenant.stats.shed,
                    format!(
                        "{op}: tenant {} shed {} loads → model_qos_miss_rate",
                        tenant.name, tenant.stats.shed
                    ),
                );
            }
        }
    }

    /// Builds a server on a fresh store, timing the build; returns the
    /// store, now warm, and the build time.
    fn setup(&self) -> hhpim::Result<(Arc<PlacementStore>, f64)> {
        let start = Instant::now();
        let store = PlacementStore::shared();
        let server = self.build(&store, false)?;
        let secs = start.elapsed().as_secs_f64();
        drop(server);
        Ok((store, secs))
    }

    /// Builds a server on the warm store and serves one untraced op; a
    /// failure is counted, not returned.
    fn op(
        &mut self,
        store: &Arc<PlacementStore>,
        label: &str,
        rounds: &mut Vec<f64>,
    ) -> Option<(f64, ServeReport)> {
        let result = self
            .build(store, false)
            .and_then(|mut server| serve_op(&mut server, rounds, false));
        match result {
            Ok((secs, report)) => {
                self.check(label, &report);
                Some((secs, report))
            }
            Err(e) => {
                self.tally.attempt(self.loads());
                self.tally
                    .fail(self.loads(), format!("{label}: {e} → every metric"));
                None
            }
        }
    }

    /// Untraced ops for `seconds` after one timed set-up, whose store
    /// the ops use, and one untimed warm-up op; the other set-ups are
    /// spread over the window.
    fn measure(&mut self, seconds: f64, setup_reps: usize) -> Result<Timings, String> {
        let (mut store, secs) = self.setup().map_err(|e| e.to_string())?;
        let mut setup = vec![secs];
        let mut first = self
            .op(&store, "warm-up op", &mut Vec::new())
            .map(|(_, r)| r);
        let mut ops = OpTimes::default();
        let mut window = Window::new(seconds);
        let mut n = 0;
        while window.is_open() || (ops.len() == 0 && n < 3) {
            if window.setup_due(setup.len(), setup_reps) {
                // The new store replaces the ops' store, so that two
                // warm stores never add up in `peak_rss_mib`.
                drop(std::mem::replace(&mut store, PlacementStore::shared()));
                let fresh = window.set_up(|| self.setup()).map_err(|e| e.to_string())?;
                store = fresh.0;
                setup.push(fresh.1);
            }
            let mut rounds = Vec::new();
            if let Some((secs, report)) = self.op(&store, &format!("op {n}"), &mut rounds) {
                ops.push(secs, rounds);
                first.get_or_insert(report);
            }
            n += 1;
        }
        match first {
            Some(first) if ops.len() > 0 => Ok(Timings { setup, ops, first }),
            _ => Err(format!(
                "{}: no op completed; first failure: {}",
                self.workload.name(),
                self.tally.notes.first().map_or("none", String::as_str)
            )),
        }
    }

    fn header(&self) -> String {
        let reference = if self.from_reference {
            "outputs checked against the reference table"
        } else {
            "held-out seed: every op checked against the run's first op"
        };
        format!(
            "{} seed {}: {} tenants, {} backend, ShedOnPressure, queue cap {}; {reference}",
            self.workload.name(),
            self.seed,
            self.plan.len(),
            self.kind,
            plan::QUEUE_CAP
        )
    }

    /// The end-to-end run (`--trace 0`).
    pub fn run(mut self, seconds: f64) -> Result<Outcome, String> {
        let t = self.measure(seconds, SETUP_REPS)?;
        let values = report::end_to_end(&t.setup, &t.ops, t.first.total_executed() as f64)?;
        let (_, rounds) = t.ops.call_quantile(0.99);
        let model = ModelTotals::of(&t.first);
        let lines = vec![
            self.header(),
            format!(
                "  {} timed ops after one warm-up op, median {:.3} ms over all, {:.3} ms over \
                 the fastest quarter; rounds summarised over that quarter: {rounds} ({} beyond p99)",
                t.ops.len(),
                t.ops.all_ops_median() * 1e3,
                t.ops.op_secs() * 1e3,
                rounds / 100
            ),
            line(
                "setup_s",
                values.get("setup_s"),
                "s",
                "lower   ServerBuilder::build on a fresh store (median of 3 over the run)",
            ),
            line(
                "sim_slices_per_s",
                values.get("sim_slices_per_s"),
                "slices/s",
                "higher  executed slices / op time",
            ),
            line(
                "round_p50_us",
                values.get("call_p50_us"),
                "us",
                "lower   one Server::round (reported as call_p50_us)",
            ),
            line(
                "round_p99_us",
                values.get("call_p99_us"),
                "us",
                "lower   (reported as call_p99_us)",
            ),
            line(
                "peak_rss_mib",
                values.get("peak_rss_mib"),
                "MiB",
                "lower   VmHWM",
            ),
            line(
                "model_energy_per_task_mj",
                model.energy_per_task_mj(),
                "mJ",
                "lower   modelled; unvalidated (no reference in the repo)",
            ),
            line(
                "model_qos_miss_rate",
                model.qos_miss_rate(),
                "ratio",
                "lower   modelled; unvalidated (no reference in the repo)",
            ),
        ];
        Ok(Outcome {
            tally: self.tally,
            metrics: values.metrics(),
            lines,
        })
    }

    /// The traced run (`--trace 1`): half the time untraced for the
    /// overhead baseline, half traced with an engine replay per op.
    pub fn run_traced(mut self, seconds: f64, out: &Path) -> Result<Outcome, String> {
        let untraced = self.measure(seconds / 2.0, 1)?;
        let err = |e: hhpim::Error| e.to_string();

        trace::start();
        trace::set_op("setup", 0, false);
        let store = PlacementStore::shared();
        drop(self.build(&store, true).map_err(err)?);
        let setup_stats = store.stats();
        let prepare = trace::with(|r| r.totals("setup", "policy.prepare")).unwrap_or_default();

        let mut traced = OpTimes::default();
        let mut events = 0u64;
        let mut first = None;
        let window = Window::new(seconds / 2.0);
        let mut n = 0u64;
        while window.is_open() || (traced.len() == 0 && n < 3) {
            let mut rounds = Vec::new();
            match self.traced_op(&store, n, &mut rounds, &mut events) {
                Ok((secs, report)) => {
                    traced.push(secs, rounds);
                    first.get_or_insert(report);
                }
                Err(e) => {
                    self.tally.attempt(self.loads());
                    self.tally
                        .fail(self.loads(), format!("traced op {n}: {e} → every metric"));
                }
            }
            n += 1;
        }
        trace::set_op("direct", n, false);
        let lower_us = if self.kind == BackendKind::Cycle {
            self.lowering_us(&store).map_err(err)?
        } else {
            0.0
        };
        let rec = trace::finish().expect("recording started above");
        let Some(first) = first else {
            return Err(format!(
                "{}: no traced op completed; first failure: {}",
                self.workload.name(),
                self.tally.notes.first().map_or("none", String::as_str)
            ));
        };

        let spans = out.join(format!("spans-{}.csv", self.workload.name()));
        std::fs::write(&spans, rec.spans_csv())
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;

        let ops = traced.len() as f64;
        let ms = |ns: u64| ns as f64 / ops / 1e6;
        let served = |name| rec.totals("serve", name);
        let replayed = |name| rec.totals("replay", name);
        let op_ms = traced.op_secs() * 1e3;
        let untraced_ms = untraced.ops.op_secs() * 1e3;

        let round = served("server.round");
        let report_call = served("server.report");
        let traffic = served("traffic.trace");
        let admit = served("server.admit");
        let flush = served("server.flush");
        let lookups = served("policy.lookup");
        let policy_served = lookups.busy_ns + served("policy.boot").busy_ns;
        let policy_replay = replayed("policy.lookup").busy_ns + replayed("policy.boot").busy_ns;
        let engine_step = replayed("engine.step");
        let engine_busy = engine_step.busy_ns + replayed("engine.drain").busy_ns;
        let backend = rec.totals_prefix("replay", "backend.");
        let backend_self = backend.busy_ns.saturating_sub(policy_replay);
        let engine_self = engine_busy.saturating_sub(backend.busy_ns);
        // The served rounds' own time holds server, engine and backend
        // work; the replay prices the engine and backend part (minus
        // its policy lookups, which the served run timed directly).
        let rounds_self = round.self_ns + report_call.self_ns;
        let replayed_engine = engine_busy.saturating_sub(policy_replay);
        let server_self = rounds_self.saturating_sub(replayed_engine);
        let admission = admit.busy_ns + flush.busy_ns;

        let model = ModelTotals::of(&first);
        let stats: Vec<_> = first.tenants.iter().map(|t| t.stats).collect();
        let executed: u64 = stats.iter().map(|s| s.executed).sum();
        let admitted: u64 = stats.iter().map(|s| s.admitted).sum();
        let admit_calls = admit.count as f64 / ops;
        let mut v = Values::new(&PER_LAYER);
        v.set("traffic.calls", traffic.count as f64 / ops);
        v.set("traffic.loads", self.loads() as f64);
        v.set("traffic.busy_ms", ms(traffic.busy_ns));
        v.set(
            "traffic.ns_per_load",
            traffic.busy_ns as f64 / ops / self.loads() as f64,
        );
        v.set("server.rounds", round.count as f64 / ops);
        v.set("server.round_busy_ms", ms(round.busy_ns));
        v.set("server.self_ms", ms(server_self));
        v.set("server.admit_calls", admit_calls);
        v.set("server.admit_busy_ms", ms(admission));
        v.set("server.admitted", admitted as f64);
        v.set(
            "server.deferred",
            stats.iter().map(|s| s.deferred).sum::<u64>() as f64,
        );
        v.set(
            "server.shed",
            stats.iter().map(|s| s.shed).sum::<u64>() as f64,
        );
        v.set("server.admit_useful_ratio", admitted as f64 / admit_calls);
        v.set(
            "server.starvation_ticks",
            stats.iter().map(|s| s.starvation_ticks).sum::<u64>() as f64,
        );
        v.set(
            "server.max_starvation",
            stats.iter().map(|s| s.max_starvation).max().unwrap_or(0) as f64,
        );
        v.set("engine.step_calls", engine_step.count as f64 / ops);
        v.set("engine.slices", executed as f64);
        v.set(
            "engine.slices_per_call",
            executed as f64 * ops / engine_step.count.max(1) as f64,
        );
        v.set("engine.busy_ms", ms(engine_busy));
        v.set("engine.self_ms", ms(engine_self));
        v.set("engine.events", events as f64 / ops);
        v.set("policy.lookups", lookups.count as f64 / ops);
        v.set("policy.lookup_busy_ms", ms(policy_served));
        v.set("policy.prepare_busy_ms", prepare.busy_ns as f64 / 1e6);
        v.set("policy.replacements", model.migrations as f64);
        v.set(
            "policy.replacement_ratio",
            model.migrations as f64 / executed as f64,
        );
        v.set(
            "backend.step_calls",
            replayed("backend.step").count as f64 / ops,
        );
        v.set("backend.slices", executed as f64);
        v.set("backend.tasks", model.tasks as f64);
        v.set("backend.busy_ms", ms(backend.busy_ns));
        v.set(
            "backend.ns_per_task",
            backend.busy_ns as f64 / ops / model.tasks as f64,
        );
        if self.kind == BackendKind::Cycle {
            v.set("timegraph.lower_us", lower_us);
            v.set("timegraph.programs", model.placements as f64);
            v.set("timegraph.splices", model.migrations as f64);
        }
        v.set("pim.instructions", model.instructions as f64);
        v.set("pim.macs", model.macs as f64);
        if model.instructions > 0 {
            v.set(
                "pim.ns_per_instruction",
                backend.busy_ns as f64 / ops / model.instructions as f64,
            );
        }
        set_store(&mut v, &setup_stats);
        model.set(&mut v);
        let op_mean_ns = served("op").busy_ns as f64;
        let share = |ns: u64| ns as f64 / op_mean_ns * 100.0;
        v.set("share.traffic_pct", share(traffic.busy_ns));
        v.set("share.server_pct", share(server_self + admission));
        v.set("share.engine_pct", share(engine_self));
        v.set("share.backend_pct", share(backend_self));
        v.set("share.policy_pct", share(policy_served));
        v.set("trace.overhead_pct", (op_ms / untraced_ms - 1.0) * 100.0);
        v.set("trace.op_ms", op_ms);
        v.set("trace.untraced_op_ms", untraced_ms);

        let backend_busy_pct = share(backend.busy_ns);
        let mut lines = vec![
            self.header(),
            format!(
                "  traced run: {} untraced ops ({untraced_ms:.3} ms), {} traced ops \
                 ({op_ms:.3} ms, {:+.1} % tracing overhead; fastest-quarter medians), each \
                 replayed through Engine::from_backends",
                untraced.ops.len(),
                traced.len(),
                v.get("trace.overhead_pct")
            ),
            format!(
                "  {} spans of traced op 0 and its replay written to {}",
                rec.kept(),
                spans.display()
            ),
            // Where the replay runs slower than the served rounds,
            // `server.self_ms` reads 0 and the shares add up to more
            // than 100 %.
            format!(
                "  replayed engine time is {:.1} % of the served rounds' own time",
                replayed_engine as f64 / rounds_self.max(1) as f64 * 100.0
            ),
            "  self-time share of a traced op (engine and backend priced by the replay):"
                .to_string(),
        ];
        for (layer, key) in [
            ("traffic", "share.traffic_pct"),
            ("server (DRR + admission)", "share.server_pct"),
            ("engine", "share.engine_pct"),
            ("backend (excl. policy)", "share.backend_pct"),
            ("policy lookups", "share.policy_pct"),
        ] {
            lines.push(format!("    {layer:<26} {:>6.2} %", v.get(key)));
        }
        let front =
            v.get("share.server_pct") + v.get("share.engine_pct") + v.get("share.traffic_pct");
        match self.workload {
            Workload::ServeCycle => lines.push(split(
                "backend busy ≥ 90 % of the op",
                backend_busy_pct,
                backend_busy_pct >= 90.0,
            )),
            _ => {
                lines.push(split(
                    "backend busy ≤ 30 % of the op",
                    backend_busy_pct,
                    backend_busy_pct <= 30.0,
                ));
                lines.push(split(
                    "server + engine + traffic ≥ 50 % of the op",
                    front,
                    front >= 50.0,
                ));
            }
        }
        Ok(Outcome {
            tally: self.tally,
            metrics: v.metrics(),
            lines,
        })
    }

    /// One traced op on a fresh traced server, then its replay.
    fn traced_op(
        &mut self,
        store: &Arc<PlacementStore>,
        n: u64,
        rounds: &mut Vec<f64>,
        events: &mut u64,
    ) -> Result<(f64, ServeReport), String> {
        trace::set_op("rebuild", n, false);
        let mut server = self.build(store, true).map_err(|e| e.to_string())?;
        let script = Rc::new(RefCell::new(Script::default()));
        let tap = Rc::clone(&script);
        server.observe(move |event: &ServerEvent| tap.borrow_mut().record(event));

        trace::set_op("serve", n, n == 0);
        let (secs, report) = trace::span("op", None, || serve_op(&mut server, rounds, true))
            .map_err(|e| e.to_string())?;
        self.check(&format!("traced op {n}"), &report);

        trace::set_op("rebuild", n, false);
        let mut engines = self.replay_engines(store).map_err(|e| e.to_string())?;
        trace::set_op("replay", n, n == 0);
        let script = script.borrow();
        let replayed = trace::span("op", None, || replay(&mut engines, &script, events))?;
        for (i, (tenant, replayed)) in report.tenants.iter().zip(&replayed).enumerate() {
            if tenant.primary() != replayed {
                self.tally.fail(
                    self.plan[i].slices as u64,
                    format!(
                        "traced op {n}: engine replay of tenant {} differs from the served \
                         report → engine.busy_ms, backend.busy_ms",
                        tenant.name
                    ),
                );
            }
        }
        Ok((secs, report))
    }

    /// One engine per tenant over the timing backend, built exactly as
    /// the server builds its tenants' engines.
    fn replay_engines(&self, store: &Arc<PlacementStore>) -> hhpim::Result<Vec<Engine>> {
        self.plan
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let backend = SessionBuilder::new()
                    .model(t.model)
                    .store(Arc::clone(store))
                    .policy(TracedPolicy::new(LutAdaptive::new(), i))
                    .build_backend(self.kind)?;
                Ok(
                    Engine::from_backends(vec![Box::new(TimingBackend::new(backend, i))])
                        .with_queue_capacity(t.qos.queue_cap),
                )
            })
            .collect()
    }

    /// Median time to drop and re-lower a model's timing-graph program,
    /// averaged over the workload's distinct models.
    fn lowering_us(&self, store: &Arc<PlacementStore>) -> hhpim::Result<f64> {
        let mut models = Vec::new();
        for t in &self.plan {
            if !models.contains(&t.model) {
                models.push(t.model);
            }
        }
        let mut per_model = Vec::new();
        for &model in &models {
            let mut backend = SessionBuilder::new()
                .model(model)
                .store(Arc::clone(store))
                .build_cycle()?;
            let mut samples = Vec::with_capacity(LOWER_REPS);
            for _ in 0..LOWER_REPS {
                let start = Instant::now();
                backend.clear_graph();
                backend.prepare_graph();
                samples.push(start.elapsed().as_secs_f64());
            }
            per_model.push(report::median(&samples));
        }
        Ok(per_model.iter().sum::<f64>() / per_model.len() as f64 * 1e6)
    }
}

/// One untraced op on a fresh server over `store`, as a benchmark run
/// serves it — the unit `--record-reference` fingerprints.
pub fn record_op(
    workload: Workload,
    seed: u64,
    store: &Arc<PlacementStore>,
) -> hhpim::Result<ServeReport> {
    let serve = Serve::new(workload, seed, &Reference::default());
    let mut server = serve.build(store, false)?;
    Ok(serve_op(&mut server, &mut Vec::new(), false)?.1)
}

/// Serves every tenant's trace to completion, timing each round.
fn serve_op(
    server: &mut Server,
    rounds: &mut Vec<f64>,
    traced: bool,
) -> hhpim::Result<(f64, ServeReport)> {
    let start = Instant::now();
    while !server.finished() {
        let round_start = Instant::now();
        let progressed = if traced {
            trace::span("server.round", None, || server.round())?
        } else {
            server.round()?
        };
        rounds.push(round_start.elapsed().as_secs_f64());
        if !progressed {
            // `run` below reports a round that moved nothing as a stall.
            break;
        }
    }
    let report = if traced {
        trace::span("server.report", None, || server.run())?
    } else {
        server.run()?
    };
    Ok((start.elapsed().as_secs_f64(), report))
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Submit(f64),
    Run(usize),
}

/// The engine calls a served op made, per tenant and in server order:
/// each admitted load, and each DRR quantum as one `step_n`.
#[derive(Debug, Default)]
struct Script {
    steps: Vec<(usize, Step)>,
    /// The tenant whose quantum is being executed.
    open: Option<usize>,
}

impl Script {
    fn record(&mut self, event: &ServerEvent) {
        match event {
            ServerEvent::Admitted { tenant, load } => {
                self.open = None;
                self.steps.push((tenant.index(), Step::Submit(*load)));
            }
            ServerEvent::Engine { tenant, event } => {
                let t = tenant.index();
                if self.open != Some(t) {
                    self.open = None;
                }
                if let EngineEvent::SliceCompleted { .. } = event {
                    match (self.open, self.steps.last_mut()) {
                        (Some(_), Some((_, Step::Run(n)))) => *n += 1,
                        _ => {
                            self.steps.push((t, Step::Run(1)));
                            self.open = Some(t);
                        }
                    }
                }
            }
            ServerEvent::QosMiss { tenant, .. } if self.open == Some(tenant.index()) => {}
            _ => self.open = None,
        }
    }
}

/// Replays a served op's engine calls, one engine per tenant, in the
/// server's order, and closes every engine into its report.
fn replay(
    engines: &mut [Engine],
    script: &Script,
    events: &mut u64,
) -> Result<Vec<ExecutionReport>, String> {
    for &(t, step) in &script.steps {
        let engine = &mut engines[t];
        match step {
            Step::Submit(load) => {
                let outcome = engine.submit(load).map_err(|e| e.to_string())?;
                if !outcome.is_accepted() {
                    return Err(format!("replayed submit deferred on tenant {t}"));
                }
            }
            Step::Run(n) => {
                let done = trace::span("engine.step", Some(t), || engine.step_n(n))
                    .map_err(|e| e.to_string())?;
                if done != n {
                    return Err(format!("replay stepped {done} of {n} slices on tenant {t}"));
                }
                // The server drains these into its own events; that
                // work is the server's, so it stays outside the span.
                *events += engine.events().count() as u64;
            }
        }
    }
    let mut reports = Vec::with_capacity(engines.len());
    for (t, engine) in engines.iter_mut().enumerate() {
        let mut closed =
            trace::span("engine.drain", Some(t), || engine.drain()).map_err(|e| e.to_string())?;
        *events += engine.events().count() as u64;
        reports.push(closed.remove(0));
    }
    Ok(reports)
}

/// Modelled totals over every tenant of one op.
#[derive(Debug, Default)]
struct ModelTotals {
    energy_mj: [f64; 6],
    tasks: u64,
    migrations: u64,
    migration_bytes: u64,
    sim_elapsed_s: f64,
    instructions: u64,
    macs: u64,
    placements: usize,
    missed: u64,
    shed: u64,
    submitted: u64,
}

impl ModelTotals {
    fn of(report: &ServeReport) -> Self {
        let mut m = ModelTotals::default();
        for tenant in &report.tenants {
            let r = tenant.primary();
            for (category, energy) in r.energy.iter() {
                let slot = match category {
                    EnergyCat::MemDynamic(..) => 0,
                    EnergyCat::MemStatic(..) => 1,
                    EnergyCat::MemWake(..) => 2,
                    EnergyCat::PeDynamic(_) | EnergyCat::PeStatic(_) => 3,
                    EnergyCat::Controller => 4,
                    EnergyCat::Movement => 5,
                };
                m.energy_mj[slot] += energy.as_mj();
            }
            m.tasks += r.records.iter().map(|s| u64::from(s.n_tasks)).sum::<u64>();
            m.migrations += r.migrations.len() as u64;
            m.migration_bytes += r.migrations.iter().map(|g| g.bytes as u64).sum::<u64>();
            m.sim_elapsed_s += r.elapsed.as_secs_f64();
            m.instructions += r.instructions;
            m.macs += r.macs;
            m.placements += r
                .records
                .iter()
                .filter_map(|s| s.placement)
                .collect::<HashSet<_>>()
                .len();
            m.missed += tenant.stats.missed;
            m.shed += tenant.stats.shed;
            m.submitted += tenant.stats.submitted;
        }
        m
    }

    fn energy_per_task_mj(&self) -> f64 {
        self.energy_mj.iter().sum::<f64>() / self.tasks as f64
    }

    /// A refused load counts as a miss.
    fn qos_miss_rate(&self) -> f64 {
        (self.missed + self.shed) as f64 / self.submitted as f64
    }

    fn set(&self, v: &mut Values) {
        for (name, mj) in [
            "model.energy.mem_dynamic_mj",
            "model.energy.mem_static_mj",
            "model.energy.mem_wake_mj",
            "model.energy.pe_mj",
            "model.energy.controller_mj",
            "model.energy.movement_mj",
        ]
        .into_iter()
        .zip(self.energy_mj)
        {
            v.set(name, mj);
        }
        v.set("model.tasks", self.tasks as f64);
        v.set("model.migrations", self.migrations as f64);
        v.set("model.migration_kib", self.migration_bytes as f64 / 1024.0);
        v.set("model.sim_elapsed_s", self.sim_elapsed_s);
        v.set("model_energy_per_task_mj", self.energy_per_task_mj());
        v.set("model_qos_miss_rate", self.qos_miss_rate());
    }
}

/// Store and DP counters from a store's lifetime stats.
pub fn set_store(v: &mut Values, stats: &hhpim::CacheStats) {
    let lookups = stats.hits + stats.misses;
    v.set("store.hits", stats.hits as f64);
    v.set("store.misses", stats.misses as f64);
    if lookups > 0 {
        v.set("store.hit_ratio", stats.hits as f64 / lookups as f64);
    }
    v.set("store.lut_builds", stats.lut_builds as f64);
    v.set("store.disk_hits", stats.disk_hits as f64);
    v.set("store.disk_writes", stats.disk_writes as f64);
    let build_ms = stats.build_time.as_secs_f64() * 1e3;
    v.set("dp.builds", stats.lut_builds as f64);
    v.set("dp.build_ms", build_ms);
    if stats.lut_builds > 0 {
        v.set("dp.ms_per_lut", build_ms / stats.lut_builds as f64);
    }
}

/// One line of the split the workloads were chosen for.
pub fn split(claim: &str, value: f64, holds: bool) -> String {
    let verdict = if holds { "holds" } else { "DOES NOT HOLD" };
    format!("  split check: {claim}: {value:.2} % — {verdict}")
}
