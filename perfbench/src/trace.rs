//! Outside-in tracing: a span recorder plus wrappers around the
//! library's public extension traits.
//!
//! Nothing inside `hhpim` is instrumented. Every span is opened by
//! this benchmark, either around a call it makes itself
//! (`Server::round`, `Engine::step_n`, …) or inside a wrapper the
//! library calls back into:
//!
//! | wrapper             | wraps                           | spans                                            |
//! |---------------------|---------------------------------|--------------------------------------------------|
//! | [`TracedSource`]    | a tenant's `TrafficSource`      | `traffic.trace`                                  |
//! | [`TracedAdmission`] | `ShedOnPressure`                | `server.admit`, `server.flush`                   |
//! | [`TracedPolicy`]    | `LutAdaptive`                   | `policy.lookup`, `policy.boot`, `policy.prepare` |
//! | [`TimingBackend`]   | `SessionBuilder::build_backend` | `backend.step`, `backend.stream`                 |
//!
//! Each wrapper forwards every trait method, provided ones included,
//! so wrapping never changes what the library computes — the benchmark
//! checks that a traced run is bit-identical to an untraced one.
//!
//! Spans live in a thread-local recorder. Each closed span adds its
//! duration and self time (duration minus the time its child spans
//! cover) to per-`(phase, name)` totals; the spans of one chosen op are
//! also kept verbatim and written out when the run ends.

use hhpim::server::{AdmissionDecision, AdmissionPolicy, TenantSnapshot};
use hhpim::session::{SessionError, TraceSource};
use hhpim::{
    Architecture, BackendError, BackendKind, CostModel, CostModelError, ExecutionBackend,
    ExecutionReport, OptimizerConfig, Placement, PlacementPolicy, PlacementStore, RuntimeConfig,
    SliceOutcome,
};
use hhpim_workload::LoadTrace;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span, as written to the span file.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    op: u64,
    tenant: Option<usize>,
}

/// Accumulated spans of one `(phase, name)` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    tenant: Option<usize>,
    child_ns: u64,
}

/// Everything a traced run recorded.
pub struct Recording {
    epoch: Instant,
    next_id: u64,
    op: u64,
    phase: &'static str,
    keep_op: Option<u64>,
    stack: Vec<Open>,
    kept: Vec<Span>,
    totals: Vec<((&'static str, &'static str), Totals)>,
}

/// Spans kept verbatim are capped so a long op cannot exhaust memory.
const MAX_KEPT_SPANS: usize = 500_000;

impl Recording {
    fn new() -> Self {
        Recording {
            epoch: Instant::now(),
            next_id: 0,
            op: 0,
            phase: "setup",
            keep_op: None,
            stack: Vec::new(),
            kept: Vec::new(),
            totals: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, tenant: Option<usize>) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            name,
            start: Instant::now(),
            parent: self.stack.last().map(|o| o.id),
            tenant,
            child_ns: 0,
        });
    }

    fn close(&mut self, end: Instant) {
        let open = self.stack.pop().expect("span closed without being opened");
        let busy = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += busy;
        }
        let key = (self.phase, open.name);
        let slot = match self.totals.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.totals.push((key, Totals::default()));
                self.totals.len() - 1
            }
        };
        let totals = &mut self.totals[slot].1;
        totals.count += 1;
        totals.busy_ns += busy;
        totals.self_ns += busy.saturating_sub(open.child_ns);
        if self.keep_op == Some(self.op) && self.kept.len() < MAX_KEPT_SPANS {
            self.kept.push(Span {
                id: open.id,
                name: open.name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                parent: open.parent,
                op: self.op,
                tenant: open.tenant,
            });
        }
    }

    /// Totals of `name` recorded in `phase` (zero if never seen).
    pub fn totals(&self, phase: &str, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|((p, n), _)| *p == phase && *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Totals of every span in `phase` whose name starts with `prefix`.
    pub fn totals_prefix(&self, phase: &str, prefix: &str) -> Totals {
        self.totals
            .iter()
            .filter(|((p, n), _)| *p == phase && n.starts_with(prefix))
            .fold(Totals::default(), |acc, (_, t)| Totals {
                count: acc.count + t.count,
                busy_ns: acc.busy_ns + t.busy_ns,
                self_ns: acc.self_ns + t.self_ns,
            })
    }

    /// The kept spans as CSV (`id,name,start_ns,end_ns,parent,op,tenant`;
    /// `-1` marks a missing parent or tenant).
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("id,name,start_ns,end_ns,parent,op,tenant\n");
        for s in &self.kept {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let tenant = s.tenant.map_or(-1, |t| t as i64);
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.op, tenant
            );
        }
        out
    }

    /// Number of spans kept verbatim.
    pub fn kept(&self) -> usize {
        self.kept.len()
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recording::new()));
}

/// Stops recording and hands back everything recorded.
pub fn finish() -> Option<Recording> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Reads the live recording (`None` when nothing is recording).
pub fn with<R>(f: impl FnOnce(&Recording) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow().as_ref().map(f))
}

/// Tags later spans with `phase` and op number `op`; with `keep` set,
/// that op's spans are kept verbatim for the span file.
pub fn set_op(phase: &'static str, op: u64, keep: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.phase = phase;
            rec.op = op;
            if keep {
                rec.keep_op = Some(op);
            }
        }
    });
}

/// Runs `f` inside a span named `name` (a plain call when nothing is
/// recording).
pub fn span<R>(name: &'static str, tenant: Option<usize>, f: impl FnOnce() -> R) -> R {
    let active = RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            rec.open(name, tenant);
            true
        }
        None => false,
    });
    if !active {
        return f();
    }
    let out = f();
    let end = Instant::now();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.close(end);
        }
    });
    out
}

/// A tenant's trace source, timed per pull.
#[derive(Debug)]
pub struct TracedSource<S> {
    inner: S,
    tenant: usize,
}

impl<S> TracedSource<S> {
    pub fn new(inner: S, tenant: usize) -> Self {
        TracedSource { inner, tenant }
    }
}

impl<S: TraceSource> TraceSource for TracedSource<S> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn trace(&self) -> Result<LoadTrace, SessionError> {
        span("traffic.trace", Some(self.tenant), || self.inner.trace())
    }
}

/// An admission policy, timed per decision.
#[derive(Debug, Clone)]
pub struct TracedAdmission<A> {
    inner: A,
}

impl<A> TracedAdmission<A> {
    pub fn new(inner: A) -> Self {
        TracedAdmission { inner }
    }
}

impl<A: AdmissionPolicy + Clone + 'static> AdmissionPolicy for TracedAdmission<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&mut self, tenant: &TenantSnapshot, load: f64) -> AdmissionDecision {
        span("server.admit", Some(tenant.id.index()), || {
            self.inner.admit(tenant, load)
        })
    }

    fn flush(&mut self, tenant: &TenantSnapshot) -> Option<f64> {
        span("server.flush", Some(tenant.id.index()), || {
            self.inner.flush(tenant)
        })
    }

    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }
}

/// A placement policy, timed per query.
#[derive(Debug, Clone)]
pub struct TracedPolicy {
    inner: Box<dyn PlacementPolicy>,
    tenant: usize,
}

impl TracedPolicy {
    pub fn new(inner: impl PlacementPolicy + 'static, tenant: usize) -> Self {
        TracedPolicy {
            inner: Box::new(inner),
            tenant,
        }
    }
}

impl PlacementPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(
        &mut self,
        cost: &CostModel,
        runtime: &RuntimeConfig,
        opt: &OptimizerConfig,
        store: &PlacementStore,
    ) -> Result<(), CostModelError> {
        let tenant = Some(self.tenant);
        span("policy.prepare", tenant, || {
            self.inner.prepare(cost, runtime, opt, store)
        })
    }

    fn placement_for(&self, cost: &CostModel, n_tasks: u32) -> Placement {
        span("policy.lookup", Some(self.tenant), || {
            self.inner.placement_for(cost, n_tasks)
        })
    }

    fn boot_placement(&self, cost: &CostModel) -> Placement {
        span("policy.boot", Some(self.tenant), || {
            self.inner.boot_placement(cost)
        })
    }

    fn is_adaptive(&self) -> bool {
        self.inner.is_adaptive()
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// An execution backend, timed per call. `step_n` is forwarded as one
/// batch: the trait's default would loop `step_slice` and silently
/// de-batch the cycle backend.
pub struct TimingBackend {
    inner: Box<dyn ExecutionBackend>,
    tenant: usize,
}

impl TimingBackend {
    pub fn new(inner: Box<dyn ExecutionBackend>, tenant: usize) -> Self {
        TimingBackend { inner, tenant }
    }
}

impl ExecutionBackend for TimingBackend {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn architecture(&self) -> Architecture {
        self.inner.architecture()
    }

    fn runtime_config(&self) -> &RuntimeConfig {
        self.inner.runtime_config()
    }

    fn begin_stream(&mut self) -> Result<(), BackendError> {
        span("backend.stream", Some(self.tenant), || {
            self.inner.begin_stream()
        })
    }

    fn step_slice(&mut self, n_tasks: u32) -> Result<SliceOutcome, BackendError> {
        span("backend.step", Some(self.tenant), || {
            self.inner.step_slice(n_tasks)
        })
    }

    fn step_n(
        &mut self,
        n_tasks: u32,
        n_slices: u32,
        out: &mut Vec<SliceOutcome>,
    ) -> Result<(), BackendError> {
        span("backend.step", Some(self.tenant), || {
            self.inner.step_n(n_tasks, n_slices, out)
        })
    }

    fn finish_stream(&mut self) -> Result<ExecutionReport, BackendError> {
        span("backend.stream", Some(self.tenant), || {
            self.inner.finish_stream()
        })
    }

    fn execute(&mut self, trace: &LoadTrace) -> Result<ExecutionReport, BackendError> {
        span("backend.execute", Some(self.tenant), || {
            self.inner.execute(trace)
        })
    }
}
