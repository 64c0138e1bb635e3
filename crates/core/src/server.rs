//! The multi-tenant serving scheduler: N models, one machine, QoS.
//!
//! [`crate::Session`] runs one workload; [`crate::engine::Engine`]
//! streams one workload. A deployment serves *many* — each user (or
//! app) with its own model, its own load trace and its own latency
//! expectations, all contending for the same PIM clusters. [`Server`]
//! is that step: it multiplexes N *tenants* — each a (model,
//! [`TraceSource`], [`QosClass`]) triple — over per-tenant resumable
//! engines that share one [`PlacementStore`] (so common
//! configurations pay their DP once for the whole fleet):
//!
//! ```text
//!   tenant sources ──AdmissionPolicy──▶ per-tenant Engine queues
//!        │      (admit/defer/shed/merge)        │
//!        ▼                                      ▼
//!   TenantStats                    deficit-round-robin grants
//!   (admitted/shed/deferred,                    │
//!    miss rate, service share,                  ▼
//!    starvation ticks)               ServerEvent stream
//!                                    (iterator + Observers)
//!                                               │
//!                                  run() ──▶ ServeReport
//! ```
//!
//! Three pieces compose per [`Server::round`]:
//!
//! 1. **Admission** — a pluggable [`AdmissionPolicy`] sees every load
//!    a tenant's source offers and decides: admit it, defer it to a
//!    later round, shed it, or coalesce it into a larger merged slice
//!    ([`AlwaysAdmit`], [`ShedOnPressure`], [`BatchCoalesce`]).
//! 2. **Scheduling** — a deficit-round-robin pass grants each backed-up
//!    tenant a quantum proportional to its [`QosClass::priority`] and
//!    steps its engine that many slices; deficits reset when a queue
//!    empties, so no tenant can bank unused credit and no tenant
//!    starves (the bound is tested in `tests/server.rs`).
//! 3. **Observation** — each executed slice's engine events go
//!    straight into the server's log as [`ServerEvent::Engine`]s tagged
//!    with their [`TenantId`], followed by the slice's QoS miss if any,
//!    alongside admission outcomes — through the same capped iterator
//!    and [`Observer`]s the engine uses.
//!
//! **The equivalence contract:** a single-tenant server under
//! [`AlwaysAdmit`] executes its trace through exactly the same
//! resumable `step_slice` path as [`crate::Session::run`], in the same
//! order — its [`ExecutionReport`]s are bit-identical to the plain
//! session's. Multi-tenancy, admission and QoS accounting are layered
//! *around* execution, never inside it.
//!
//! # Examples
//!
//! Serve two tenants with different priorities and watch the stats:
//!
//! ```
//! use hhpim::server::{QosClass, ServerBuilder, TenantSpec};
//! use hhpim::session::ScenarioSource;
//! use hhpim_nn::TinyMlModel;
//! use hhpim_workload::{Scenario, ScenarioParams};
//!
//! let params = ScenarioParams { slices: 6, ..ScenarioParams::default() };
//! let mut server = ServerBuilder::new()
//!     .tenant(
//!         TenantSpec::new(
//!             "camera",
//!             TinyMlModel::MobileNetV2,
//!             ScenarioSource::new(Scenario::PeriodicSpike, params),
//!         )
//!         .qos(QosClass::default().with_priority(3)),
//!     )
//!     .tenant(TenantSpec::new(
//!         "keyword",
//!         TinyMlModel::ResNet18,
//!         ScenarioSource::new(Scenario::LowConstant, params),
//!     ))
//!     .build()
//!     .unwrap();
//! let report = server.run().unwrap();
//! assert_eq!(report.tenants.len(), 2);
//! for tenant in &report.tenants {
//!     assert_eq!(tenant.stats.executed, 6);
//!     assert_eq!(tenant.stats.shed, 0);
//! }
//! ```

use crate::arch::Architecture;
use crate::backend::{BackendKind, ExecutionReport};
use crate::cost::CostParams;
use crate::dp::OptimizerConfig;
use crate::engine::{Engine, EngineError, EngineEvent, EventLog, Observer, SubmitOutcome};
use crate::policy::PlacementPolicy;
use crate::session::{SessionBuilder, SessionError, TraceSource};
use crate::store::PlacementStore;
use hhpim_nn::TinyMlModel;
use hhpim_sim::SimDuration;
use hhpim_workload::LoadTrace;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Executed-slice outcomes remembered per tenant when computing the
/// *recent* deadline-miss rate admission policies react to. Override
/// with [`ServerBuilder::miss_window`].
pub const DEFAULT_MISS_WINDOW: usize = 16;

/// A tenant's identity: its position in the server's build order.
/// Stable for the server's lifetime; printed as `tenant#<index>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(usize);

impl TenantId {
    /// The tenant's index in build (and report) order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// A tenant's quality-of-service class: the knobs admission and
/// scheduling read. Plain data with struct-update syntax (like
/// [`hhpim_workload::ScenarioParams`]) plus `with_*` conveniences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosClass {
    /// Per-task serving deadline (SLO): an executed slice whose
    /// per-task latency exceeds this counts as a QoS miss *in
    /// addition to* the backend's own architectural deadline.
    /// [`SimDuration::MAX`] (the default) disables the SLO so only
    /// architectural misses count — this keeps the single-tenant
    /// equivalence contract exact.
    pub deadline: SimDuration,
    /// Deficit-round-robin quantum: slices granted per scheduling
    /// round relative to other tenants (clamped to at least 1).
    pub priority: u32,
    /// The tenant engine's bounded-queue capacity, at least 1
    /// ([`ServerBuilder::build`] rejects 0); loads beyond it wait in
    /// the source and are counted as deferrals.
    pub queue_cap: usize,
    /// [`ShedOnPressure`]'s threshold: shed new loads while the
    /// tenant's recent miss rate (over the server's miss window)
    /// exceeds this. `1.0` (the default) never sheds.
    pub max_miss_rate: f64,
}

impl Default for QosClass {
    fn default() -> Self {
        QosClass {
            deadline: SimDuration::MAX,
            priority: 1,
            queue_cap: crate::engine::DEFAULT_QUEUE_CAPACITY,
            max_miss_rate: 1.0,
        }
    }
}

impl QosClass {
    /// The default best-effort class: no SLO, priority 1, default
    /// queue, never sheds.
    pub fn best_effort() -> Self {
        Self::default()
    }

    /// Sets the per-task serving deadline (SLO).
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the scheduling priority (DRR quantum).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the tenant queue capacity; [`ServerBuilder::build`]
    /// rejects 0.
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap;
        self
    }

    /// Sets the recent-miss-rate shedding threshold.
    pub fn with_max_miss_rate(mut self, rate: f64) -> Self {
        self.max_miss_rate = rate;
        self
    }

    fn quantum(&self) -> u64 {
        u64::from(self.priority.max(1))
    }
}

/// Per-tenant service counters, surfaced by [`Server::stats`] and in
/// every [`TenantReport`]. All counts are cumulative over the
/// server's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct TenantStats {
    /// Loads resolved from the tenant's source (admitted, coalesced
    /// or shed — deferrals leave the load unresolved).
    pub submitted: u64,
    /// Slices enqueued to the tenant's engine (including merged and
    /// flushed slices produced by a coalescing policy).
    pub admitted: u64,
    /// Loads dropped by the admission policy.
    pub shed: u64,
    /// Deferral decisions: rounds in which the tenant's next load had
    /// to wait (policy [`AdmissionDecision::Defer`] or a full queue).
    /// One load deferred across many rounds counts once per round.
    pub deferred: u64,
    /// Loads absorbed into a coalescing policy's accumulator.
    pub coalesced: u64,
    /// Slices executed on the tenant's engine.
    pub executed: u64,
    /// Executed slices that missed — architecturally
    /// ([`EngineEvent::DeadlineMiss`]) or against the tenant's
    /// [`QosClass::deadline`] SLO.
    pub missed: u64,
    /// Slices other tenants executed while this tenant had queued
    /// work waiting.
    pub starvation_ticks: u64,
    /// Longest run of [`TenantStats::starvation_ticks`] between two
    /// of this tenant's own slices — the fairness bound
    /// deficit-round-robin keeps finite.
    pub max_starvation: u64,
    /// This tenant's share of all executed slices, in `[0, 1]`
    /// (filled at snapshot time; `0.0` before anything executed).
    pub service_share: f64,
}

impl TenantStats {
    /// Lifetime miss rate: missed / executed (`0.0` before any slice
    /// executed). Admission policies react to the *recent* rate over
    /// the server's miss window instead — see
    /// [`TenantSnapshot::recent_miss_rate`].
    pub fn miss_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.missed as f64 / self.executed as f64
        }
    }
}

/// The read-only view of one tenant an [`AdmissionPolicy`] decides
/// from.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TenantSnapshot {
    /// Which tenant is offering the load.
    pub id: TenantId,
    /// The tenant's QoS class.
    pub qos: QosClass,
    /// Loads currently queued in the tenant's engine.
    pub queue_depth: usize,
    /// Loads still waiting in the tenant's source (backlog behind the
    /// offered one).
    pub pending_source: usize,
    /// Miss rate over the last [`ServerBuilder::miss_window`]
    /// executed slices (`0.0` until anything executed).
    pub recent_miss_rate: f64,
    /// Executed slices currently in the miss window.
    pub window_samples: usize,
    /// The tenant's cumulative counters.
    pub stats: TenantStats,
}

/// What an [`AdmissionPolicy`] decided about one offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AdmissionDecision {
    /// Enqueue the load as offered.
    Admit,
    /// The offered load was absorbed into the policy's accumulator
    /// and a merged slice of `load` should be enqueued in its place.
    /// Policies must only return this when
    /// [`TenantSnapshot::queue_depth`] is below the queue capacity;
    /// otherwise serving stops with
    /// [`ServerError::MergeIntoFullQueue`].
    AdmitMerged {
        /// The merged load to enqueue (in `[0, 1]`).
        load: f64,
    },
    /// The offered load was absorbed into the policy's accumulator;
    /// nothing is enqueued now ([`AdmissionPolicy::flush`] releases
    /// the remainder when the source ends).
    Coalesce,
    /// Leave the load in the source and retry next round.
    Defer,
    /// Drop the load.
    Shed,
}

/// A pluggable admission controller: consulted once per offered load,
/// per tenant, before anything enters an engine queue.
///
/// Implementations must be deterministic (the server replays
/// identically given identical tenants) and may keep per-tenant state
/// keyed by [`TenantSnapshot::id`].
pub trait AdmissionPolicy: fmt::Debug + Send {
    /// Short machine-readable name (used in reports).
    fn name(&self) -> &'static str;

    /// Decides what happens to `load`, the next load `tenant`'s
    /// source offers.
    fn admit(&mut self, tenant: &TenantSnapshot, load: f64) -> AdmissionDecision;

    /// Releases up to one slice of coalesced load once `tenant`'s
    /// source is exhausted; called repeatedly until it returns `None`.
    /// The default has nothing buffered.
    fn flush(&mut self, tenant: &TenantSnapshot) -> Option<f64> {
        let _ = tenant;
        None
    }

    /// Clones the policy into a box (keeps the builder reusable).
    fn clone_box(&self) -> Box<dyn AdmissionPolicy>;
}

impl Clone for Box<dyn AdmissionPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Admit everything, always — the identity admission policy and the
/// policy under which a single-tenant server is bit-identical to
/// [`crate::Session::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysAdmit;

impl AdmissionPolicy for AlwaysAdmit {
    fn name(&self) -> &'static str {
        "always-admit"
    }

    fn admit(&mut self, _tenant: &TenantSnapshot, _load: f64) -> AdmissionDecision {
        AdmissionDecision::Admit
    }

    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }
}

/// Shed or defer under pressure: drop new loads while a tenant's
/// recent miss rate exceeds its [`QosClass::max_miss_rate`], and
/// defer them while its queue is at capacity. Protects each tenant's
/// SLO by refusing work it would miss anyway — the classic
/// load-shedding admission controller.
#[derive(Debug, Clone, Copy)]
pub struct ShedOnPressure {
    min_samples: usize,
}

impl Default for ShedOnPressure {
    fn default() -> Self {
        ShedOnPressure { min_samples: 4 }
    }
}

impl ShedOnPressure {
    /// The default controller: sheds only once at least 4 executed
    /// slices are in the miss window (so one early miss cannot shed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many executed slices the miss window must hold before
    /// the miss-rate test can shed (clamped to at least 1).
    pub fn with_min_samples(mut self, min_samples: usize) -> Self {
        self.min_samples = min_samples.max(1);
        self
    }
}

impl AdmissionPolicy for ShedOnPressure {
    fn name(&self) -> &'static str {
        "shed-on-pressure"
    }

    fn admit(&mut self, tenant: &TenantSnapshot, _load: f64) -> AdmissionDecision {
        if tenant.window_samples >= self.min_samples
            && tenant.recent_miss_rate > tenant.qos.max_miss_rate
        {
            return AdmissionDecision::Shed;
        }
        if tenant.queue_depth >= tenant.qos.queue_cap {
            return AdmissionDecision::Defer;
        }
        AdmissionDecision::Admit
    }

    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(*self)
    }
}

/// Coalesce under backlog: while a tenant's backlog (queued plus
/// waiting loads) exceeds a pressure threshold, absorb offered loads
/// into an accumulator and emit merged slices of load `1.0` — the
/// point at which [`LoadTrace::task_count_for`] saturates the
/// per-slice task cap, i.e. the LUT's fastest placement. Fewer,
/// fuller slices amortize per-slice overheads; total load is
/// conserved (see [`LoadTrace::saturating_merge`]), with the
/// remainder flushed when the source ends.
#[derive(Debug, Clone, Default)]
pub struct BatchCoalesce {
    pressure: Option<usize>,
    accums: Vec<f64>,
}

impl BatchCoalesce {
    /// Coalesces while a tenant's backlog exceeds its
    /// [`QosClass::queue_cap`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an explicit backlog threshold above which coalescing
    /// starts (`0` coalesces always).
    pub fn with_pressure(mut self, backlog: usize) -> Self {
        self.pressure = Some(backlog);
        self
    }

    fn accum(&mut self, id: TenantId) -> &mut f64 {
        if id.index() >= self.accums.len() {
            self.accums.resize(id.index() + 1, 0.0);
        }
        &mut self.accums[id.index()]
    }
}

impl AdmissionPolicy for BatchCoalesce {
    fn name(&self) -> &'static str {
        "batch-coalesce"
    }

    fn admit(&mut self, tenant: &TenantSnapshot, load: f64) -> AdmissionDecision {
        let threshold = self.pressure.unwrap_or(tenant.qos.queue_cap);
        let backlog = tenant.queue_depth + tenant.pending_source;
        let accum = self.accum(tenant.id);
        if *accum <= 0.0 && backlog <= threshold {
            return AdmissionDecision::Admit;
        }
        // Absorb unconditionally (absorbing needs no queue space);
        // emit a saturated slice only when the engine can take it.
        *accum += load.max(0.0);
        if *accum >= 1.0 && tenant.queue_depth < tenant.qos.queue_cap {
            *accum -= 1.0;
            AdmissionDecision::AdmitMerged { load: 1.0 }
        } else {
            AdmissionDecision::Coalesce
        }
    }

    fn flush(&mut self, tenant: &TenantSnapshot) -> Option<f64> {
        let accum = self.accum(tenant.id);
        if *accum <= 0.0 {
            return None;
        }
        let (merged, overflow) = LoadTrace::saturating_merge(*accum, 0.0);
        *accum = overflow;
        Some(merged)
    }

    fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(self.clone())
    }
}

/// One observation from the serving loop, tagged with the tenant it
/// concerns. Admission events are emitted as decisions happen, engine
/// events as each slice completes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServerEvent {
    /// A load (or merged slice) entered a tenant's engine queue.
    Admitted {
        /// The admitting tenant.
        tenant: TenantId,
        /// The enqueued load.
        load: f64,
    },
    /// A load was absorbed into a coalescing policy's accumulator.
    Coalesced {
        /// The tenant whose load was absorbed.
        tenant: TenantId,
        /// The absorbed load.
        load: f64,
    },
    /// A load was dropped by the admission policy.
    Shed {
        /// The tenant whose load was dropped.
        tenant: TenantId,
        /// The dropped load.
        load: f64,
    },
    /// A load had to wait for a later round (policy deferral or full
    /// queue).
    Deferred {
        /// The tenant whose load waits.
        tenant: TenantId,
        /// The waiting load.
        load: f64,
    },
    /// An executed slice violated the tenant's [`QosClass::deadline`]
    /// SLO (architectural misses surface as the wrapped
    /// [`EngineEvent::DeadlineMiss`] instead).
    QosMiss {
        /// The tenant that missed.
        tenant: TenantId,
        /// The offending slice (tenant-local index).
        slice: usize,
        /// Per-task latency achieved.
        task_time: SimDuration,
        /// The tenant's SLO.
        deadline: SimDuration,
    },
    /// An event of a tenant's engine, with its tenant tag.
    Engine {
        /// The tenant whose engine emitted it.
        tenant: TenantId,
        /// The wrapped engine event.
        event: EngineEvent,
    },
    /// A full deficit-round-robin round completed.
    RoundCompleted {
        /// The round's number (counting from 0).
        round: u64,
        /// Slices executed across all tenants this round.
        executed: usize,
    },
}

/// Errors surfaced while building or serving a [`Server`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// The builder had no tenants.
    NoTenants,
    /// Two tenants share a name.
    DuplicateTenant {
        /// The repeated name.
        name: String,
    },
    /// A tenant's QoS class is malformed (e.g. a non-finite or
    /// out-of-range miss-rate threshold).
    InvalidQos {
        /// The offending tenant.
        tenant: String,
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A tenant's backend or trace failed to build.
    Build {
        /// The offending tenant.
        tenant: String,
        /// The underlying session-layer error.
        error: SessionError,
    },
    /// A tenant's engine failed mid-serve (its stream is poisoned;
    /// see [`crate::engine::EngineError::Backend`]).
    Tenant {
        /// The failing tenant.
        tenant: TenantId,
        /// The underlying engine error.
        error: EngineError,
    },
    /// A full round made no progress while work remained — a
    /// misbehaving admission policy deferred every tenant forever.
    Stalled {
        /// The round that made no progress.
        round: u64,
    },
    /// The admission policy answered
    /// [`AdmissionDecision::AdmitMerged`] while the tenant's queue was
    /// full; the offered load stays in the tenant's source.
    MergeIntoFullQueue {
        /// The tenant whose queue was full.
        tenant: TenantId,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::NoTenants => write!(f, "server has no tenants"),
            ServerError::DuplicateTenant { name } => {
                write!(f, "tenant `{name}` registered twice")
            }
            ServerError::InvalidQos {
                tenant,
                field,
                value,
            } => write!(f, "tenant `{tenant}`: QoS {field} = {value} is invalid"),
            ServerError::Build { tenant, error } => {
                write!(f, "tenant `{tenant}` failed to build: {error}")
            }
            ServerError::Tenant { tenant, error } => {
                write!(f, "{tenant} failed mid-serve: {error}")
            }
            ServerError::Stalled { round } => {
                write!(
                    f,
                    "round {round} made no progress with work remaining (admission livelock)"
                )
            }
            ServerError::MergeIntoFullQueue { tenant } => {
                write!(f, "admission merged a load into {tenant}'s full queue")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Build { error, .. } => Some(error),
            ServerError::Tenant { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// One tenant's registration: the (model, source, QoS) triple plus an
/// optional per-tenant placement-policy override.
#[derive(Debug)]
pub struct TenantSpec {
    name: String,
    model: TinyMlModel,
    source: Box<dyn TraceSource>,
    qos: QosClass,
    policy: Option<Box<dyn PlacementPolicy>>,
}

impl TenantSpec {
    /// A tenant serving `model` from `source` under the default
    /// best-effort [`QosClass`].
    pub fn new(
        name: impl Into<String>,
        model: TinyMlModel,
        source: impl TraceSource + 'static,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            model,
            source: Box::new(source),
            qos: QosClass::default(),
            policy: None,
        }
    }

    /// Sets the tenant's QoS class.
    pub fn qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Overrides the placement policy for this tenant only (default:
    /// the server-wide policy, or the architecture's Table I policy).
    pub fn policy(mut self, policy: impl PlacementPolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Builder for a [`Server`], mirroring [`SessionBuilder`]: machine-
/// wide knobs here, per-tenant triples via [`ServerBuilder::tenant`].
///
/// Defaults: HH-PIM architecture, the analytic backend, the
/// architecture's Table I placement policy, [`AlwaysAdmit`], a fresh
/// [`PlacementStore`] owned by the server and a
/// [`DEFAULT_MISS_WINDOW`]-slice miss window.
#[derive(Debug, Default)]
pub struct ServerBuilder {
    arch: Option<Architecture>,
    backend: Option<BackendKind>,
    cost_params: Option<CostParams>,
    opt_config: Option<OptimizerConfig>,
    policy: Option<Box<dyn PlacementPolicy>>,
    store: Option<Arc<PlacementStore>>,
    admission: Option<Box<dyn AdmissionPolicy>>,
    tenants: Vec<TenantSpec>,
    miss_window: Option<usize>,
    event_capacity: Option<usize>,
}

impl ServerBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the Table I architecture every tenant shares (default:
    /// HH-PIM).
    pub fn architecture(mut self, arch: Architecture) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Selects the execution backend every tenant engine runs
    /// (default: analytic).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = Some(kind);
        self
    }

    /// Cost-model calibration knobs shared by every tenant.
    pub fn cost_params(mut self, params: CostParams) -> Self {
        self.cost_params = Some(params);
        self
    }

    /// Placement-optimizer settings shared by every tenant.
    pub fn optimizer(mut self, config: OptimizerConfig) -> Self {
        self.opt_config = Some(config);
        self
    }

    /// Server-wide placement policy (default: the architecture's
    /// Table I policy); individual tenants may override via
    /// [`TenantSpec::policy`].
    pub fn policy(mut self, policy: impl PlacementPolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// The [`PlacementStore`] every tenant draws LUTs from (default: a
    /// fresh store the server owns). Tenants with the same
    /// (architecture, model, parameters) configuration share one DP;
    /// pass one store to several servers or sessions to share across
    /// them too.
    pub fn store(mut self, store: Arc<PlacementStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The admission policy (default: [`AlwaysAdmit`]).
    pub fn admission(mut self, policy: impl AdmissionPolicy + 'static) -> Self {
        self.admission = Some(Box::new(policy));
        self
    }

    /// Registers a tenant; call repeatedly. Build order is report
    /// order and DRR visitation order.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Executed slices remembered per tenant for the *recent* miss
    /// rate (default [`DEFAULT_MISS_WINDOW`]; clamped to at least 1).
    pub fn miss_window(mut self, slices: usize) -> Self {
        self.miss_window = Some(slices.max(1));
        self
    }

    /// The server event buffer's capacity (default
    /// [`crate::engine::DEFAULT_EVENT_CAPACITY`]; clamped to at least
    /// 1), with the same drop-oldest semantics as the engine's. The
    /// server's drop counter runs for its whole lifetime.
    pub fn event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = Some(capacity.max(1));
        self
    }

    /// Builds the server: one engine per tenant (queue capacity from
    /// its QoS class), all drawing placement state from the shared
    /// store.
    ///
    /// # Errors
    ///
    /// [`ServerError::NoTenants`] without tenants,
    /// [`ServerError::DuplicateTenant`] on a repeated name,
    /// [`ServerError::InvalidQos`] on a malformed QoS class (a miss-rate
    /// threshold outside `[0, 1]`, or a queue capacity of 0), and
    /// [`ServerError::Build`] when a tenant's backend cannot be
    /// built.
    pub fn build(self) -> Result<Server, ServerError> {
        if self.tenants.is_empty() {
            return Err(ServerError::NoTenants);
        }
        for (i, spec) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|s| s.name == spec.name) {
                return Err(ServerError::DuplicateTenant {
                    name: spec.name.clone(),
                });
            }
            if !spec.qos.max_miss_rate.is_finite() || !(0.0..=1.0).contains(&spec.qos.max_miss_rate)
            {
                return Err(ServerError::InvalidQos {
                    tenant: spec.name.clone(),
                    field: "max_miss_rate",
                    value: spec.qos.max_miss_rate,
                });
            }
            if spec.qos.queue_cap == 0 {
                return Err(ServerError::InvalidQos {
                    tenant: spec.name.clone(),
                    field: "queue_cap",
                    value: 0.0,
                });
            }
        }
        let store = self.store.clone().unwrap_or_else(PlacementStore::shared);
        let kind = self.backend.unwrap_or(BackendKind::Analytic);
        let miss_window = self.miss_window.unwrap_or(DEFAULT_MISS_WINDOW);
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (index, spec) in self.tenants.into_iter().enumerate() {
            let mut builder = SessionBuilder::new()
                .model(spec.model)
                .store(Arc::clone(&store));
            if let Some(arch) = self.arch {
                builder = builder.architecture(arch);
            }
            if let Some(params) = self.cost_params {
                builder = builder.cost_params(params);
            }
            if let Some(config) = self.opt_config {
                builder = builder.optimizer(config);
            }
            if let Some(policy) = spec.policy.or_else(|| self.policy.clone()) {
                builder = builder.policy(policy);
            }
            let backend = builder
                .build_backend(kind)
                .map_err(|error| ServerError::Build {
                    tenant: spec.name.clone(),
                    error,
                })?;
            let engine =
                Engine::from_backends(vec![backend]).with_queue_capacity(spec.qos.queue_cap);
            tenants.push(Tenant {
                id: TenantId(index),
                name: spec.name,
                qos: spec.qos,
                source: spec.source,
                pending: VecDeque::new(),
                engine,
                deficit: 0,
                stats: TenantStats::default(),
                window: MissWindow {
                    flags: VecDeque::with_capacity(miss_window),
                    misses: 0,
                    cap: miss_window,
                },
                streak: 0,
                primed: false,
                flushed: false,
            });
        }
        let mut log = EventLog::default();
        if let Some(capacity) = self.event_capacity {
            log.capacity = capacity;
        }
        Ok(Server {
            tenants,
            admission: self.admission.unwrap_or_else(|| Box::new(AlwaysAdmit)),
            store,
            round: 0,
            log,
        })
    }
}

/// One tenant's live state inside a [`Server`].
struct Tenant {
    id: TenantId,
    name: String,
    qos: QosClass,
    source: Box<dyn TraceSource>,
    pending: VecDeque<f64>,
    engine: Engine,
    deficit: u64,
    stats: TenantStats,
    window: MissWindow,
    streak: u64,
    primed: bool,
    flushed: bool,
}

/// Whether each of a tenant's last `cap` executed slices missed.
struct MissWindow {
    flags: VecDeque<bool>,
    misses: usize,
    cap: usize,
}

impl MissWindow {
    fn record(&mut self, missed: bool) {
        if self.flags.len() >= self.cap && self.flags.pop_front() == Some(true) {
            self.misses -= 1;
        }
        self.flags.push_back(missed);
        self.misses += usize::from(missed);
    }

    fn rate(&self) -> f64 {
        self.misses as f64 / self.flags.len().max(1) as f64
    }
}

impl Tenant {
    fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            id: self.id,
            qos: self.qos,
            queue_depth: self.engine.pending(),
            pending_source: self.pending.len().saturating_sub(1),
            recent_miss_rate: self.window.rate(),
            window_samples: self.window.flags.len(),
            stats: self.stats,
        }
    }

    /// Whether the tenant still has work the serve loop must move.
    fn has_work(&self) -> bool {
        !self.pending.is_empty() || !self.flushed || self.engine.pending() > 0
    }
}

/// The multi-tenant serving scheduler; see the [module docs](self)
/// for the tenant model and the equivalence contract. Built by
/// [`ServerBuilder`].
pub struct Server {
    tenants: Vec<Tenant>,
    admission: Box<dyn AdmissionPolicy>,
    store: Arc<PlacementStore>,
    round: u64,
    log: EventLog<ServerEvent>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field(
                "tenants",
                &self
                    .tenants
                    .iter()
                    .map(|t| t.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("admission", &self.admission.name())
            .field("round", &self.round)
            .field("pending_events", &self.log.pending.len())
            .finish_non_exhaustive()
    }
}

/// The outcome of one [`Server::run`]: per-tenant reports in build
/// order.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeReport {
    /// Scheduling rounds the serve took.
    pub rounds: u64,
    /// One report per tenant, in build order.
    pub tenants: Vec<TenantReport>,
}

impl ServeReport {
    /// The report of the tenant named `name`, if registered.
    pub fn tenant(&self, name: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Slices executed across all tenants.
    pub fn total_executed(&self) -> u64 {
        self.tenants.iter().map(|t| t.stats.executed).sum()
    }
}

/// One tenant's share of a [`ServeReport`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct TenantReport {
    /// The tenant's identity.
    pub id: TenantId,
    /// The tenant's name.
    pub name: String,
    /// The tenant's QoS class.
    pub qos: QosClass,
    /// The tenant's service counters, with
    /// [`TenantStats::service_share`] filled in.
    pub stats: TenantStats,
    /// The tenant engine's execution reports (one per backend; the
    /// server runs one backend per tenant).
    pub reports: Vec<ExecutionReport>,
}

impl TenantReport {
    /// The tenant's primary (first) execution report.
    pub fn primary(&self) -> &ExecutionReport {
        &self.reports[0]
    }
}

impl Server {
    /// A fresh builder (alias for [`ServerBuilder::new`]).
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// The registered tenants' names, in build (and report) order.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// The admission policy's name.
    pub fn admission_name(&self) -> &'static str {
        self.admission.name()
    }

    /// The shared placement store every tenant draws from.
    pub fn store(&self) -> &Arc<PlacementStore> {
        &self.store
    }

    /// Scheduling rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// The per-slice task cap shared by every tenant engine (tenants
    /// share one architecture and cost model, so the cap is uniform).
    pub fn max_tasks(&self) -> u32 {
        self.tenants
            .first()
            .map(|t| t.engine.max_tasks())
            .unwrap_or(0)
    }

    /// Per-tenant stats snapshots in build order, with
    /// [`TenantStats::service_share`] computed over all executed
    /// slices so far.
    pub fn stats(&self) -> Vec<TenantStats> {
        let total: u64 = self.tenants.iter().map(|t| t.stats.executed).sum();
        self.tenants
            .iter()
            .map(|t| {
                let mut stats = t.stats;
                stats.service_share = if total == 0 {
                    0.0
                } else {
                    stats.executed as f64 / total as f64
                };
                stats
            })
            .collect()
    }

    /// Registers an observer receiving every future [`ServerEvent`]
    /// at emission time, with the engine observer's lifetime
    /// contract: bound to the server, never auto-removed.
    pub fn observe(&mut self, observer: impl Observer<ServerEvent> + 'static) {
        self.log.observers.push(Box::new(observer));
    }

    /// Drains the pending event buffer as an iterator (events already
    /// delivered to observers are not replayed).
    pub fn events(&mut self) -> std::collections::vec_deque::Drain<'_, ServerEvent> {
        self.log.pending.drain(..)
    }

    /// Events dropped from the iterator buffer because nobody drained
    /// [`Server::events`] (observers still saw them), over the
    /// server's lifetime.
    pub fn events_dropped(&self) -> u64 {
        self.log.dropped
    }

    /// Whether every tenant's source is exhausted, coalesced
    /// remainders flushed, and queues empty.
    pub fn finished(&self) -> bool {
        self.tenants.iter().all(|t| t.primed && !t.has_work())
    }

    /// Serves every tenant to completion: rounds of admission +
    /// deficit-round-robin execution until all sources are exhausted
    /// and all queues drained, then closes every engine stream.
    /// Sources are re-pulled per run (like [`crate::Session::run`]),
    /// so a server can serve repeatedly.
    ///
    /// # Errors
    ///
    /// [`ServerError::Tenant`] when a tenant's engine fails (the
    /// failing tenant's stream is poisoned), [`ServerError::Stalled`]
    /// when a round moves nothing while work remains, and
    /// [`ServerError::Build`] when a trace source fails.
    pub fn run(&mut self) -> Result<ServeReport, ServerError> {
        self.prime()?;
        while !self.finished() {
            let progressed = self.round()?;
            // A round may legitimately move nothing while *finishing*
            // (e.g. its only effect was marking a source flushed);
            // only a no-progress round that leaves work behind is a
            // livelock.
            if !progressed && !self.finished() {
                return Err(ServerError::Stalled { round: self.round });
            }
        }
        let stats = self.stats();
        let mut reports = Vec::with_capacity(self.tenants.len());
        for (tenant, stats) in self.tenants.iter_mut().zip(stats) {
            let engine_reports = tenant.engine.drain().map_err(|error| ServerError::Tenant {
                tenant: tenant.id,
                error,
            })?;
            reports.push(TenantReport {
                id: tenant.id,
                name: tenant.name.clone(),
                qos: tenant.qos,
                stats,
                reports: engine_reports,
            });
            // The next run() re-primes from the (deterministic)
            // source, like a fresh Session::run.
            tenant.primed = false;
        }
        Ok(ServeReport {
            rounds: self.round,
            tenants: reports,
        })
    }

    /// Pulls each unprimed tenant's trace into its pending queue.
    fn prime(&mut self) -> Result<(), ServerError> {
        for tenant in &mut self.tenants {
            if tenant.primed {
                continue;
            }
            let trace = tenant.source.trace().map_err(|error| ServerError::Build {
                tenant: tenant.name.clone(),
                error,
            })?;
            tenant.pending = trace.loads().iter().copied().collect();
            tenant.primed = true;
            tenant.flushed = false;
        }
        Ok(())
    }

    /// One scheduling round: an admission pass then a
    /// deficit-round-robin execution pass over every tenant, in build
    /// order. Returns whether the round made progress (admitted,
    /// coalesced, shed or executed anything); a `false` with
    /// [`Server::finished`] still false means the admission policy
    /// has livelocked ([`Server::run`] surfaces that as
    /// [`ServerError::Stalled`]).
    ///
    /// # Errors
    ///
    /// See [`Server::run`]; `round` is the manual-stepping form.
    pub fn round(&mut self) -> Result<bool, ServerError> {
        self.prime()?;
        let mut progressed = false;
        let mut executed_this_round = 0usize;
        for i in 0..self.tenants.len() {
            progressed |= self.feed(i)?;
        }
        for i in 0..self.tenants.len() {
            let steps = self.serve_quantum(i)?;
            executed_this_round += steps;
            progressed |= steps > 0;
        }
        self.log.emit(ServerEvent::RoundCompleted {
            round: self.round,
            executed: executed_this_round,
        });
        self.round += 1;
        Ok(progressed)
    }

    /// Admission pass for one tenant: consult the policy on each
    /// offered load until the tenant defers, runs dry, or fills its
    /// queue; flush coalesced remainders once the source is dry.
    fn feed(&mut self, i: usize) -> Result<bool, ServerError> {
        let mut progressed = false;
        loop {
            let tenant = &self.tenants[i];
            let Some(&load) = tenant.pending.front() else {
                break;
            };
            let snapshot = tenant.snapshot();
            let room = snapshot.queue_depth < snapshot.qos.queue_cap;
            let decision = self.admission.admit(&snapshot, load);
            let tenant = &mut self.tenants[i];
            let id = tenant.id;
            match decision {
                AdmissionDecision::Admit if room => {
                    Self::enqueue(tenant, load)?;
                    self.log.emit(ServerEvent::Admitted { tenant: id, load });
                }
                AdmissionDecision::AdmitMerged { load: merged } => {
                    Self::enqueue(tenant, merged)?;
                    tenant.stats.coalesced += 1;
                    self.log.emit(ServerEvent::Coalesced { tenant: id, load });
                    self.log.emit(ServerEvent::Admitted {
                        tenant: id,
                        load: merged,
                    });
                }
                AdmissionDecision::Coalesce => {
                    tenant.stats.coalesced += 1;
                    self.log.emit(ServerEvent::Coalesced { tenant: id, load });
                }
                AdmissionDecision::Shed => {
                    tenant.stats.shed += 1;
                    self.log.emit(ServerEvent::Shed { tenant: id, load });
                }
                // A policy deferral, or an admission into a full queue.
                AdmissionDecision::Admit | AdmissionDecision::Defer => {
                    tenant.stats.deferred += 1;
                    self.log.emit(ServerEvent::Deferred { tenant: id, load });
                    break;
                }
            }
            // The offered load is consumed only once its decision went
            // through, so a failed enqueue leaves it in the source.
            tenant.pending.pop_front();
            tenant.stats.submitted += 1;
            progressed = true;
        }
        // Source dry: release any coalesced remainder, one slice per
        // free queue slot; mark flushed once the policy is empty.
        while self.tenants[i].pending.is_empty() && !self.tenants[i].flushed {
            let snapshot = self.tenants[i].snapshot();
            if snapshot.queue_depth >= snapshot.qos.queue_cap {
                break;
            }
            match self.admission.flush(&snapshot) {
                Some(load) => {
                    let tenant = &mut self.tenants[i];
                    let id = tenant.id;
                    Self::enqueue(tenant, load.clamp(0.0, 1.0))?;
                    self.log.emit(ServerEvent::Admitted { tenant: id, load });
                    progressed = true;
                }
                None => self.tenants[i].flushed = true,
            }
        }
        Ok(progressed)
    }

    /// Enqueues one load on a tenant's engine. The feed pass checks for
    /// room before admitting or flushing, so only a policy merging into
    /// a full queue finds none.
    fn enqueue(tenant: &mut Tenant, load: f64) -> Result<(), ServerError> {
        match tenant.engine.submit(load) {
            Ok(SubmitOutcome::Accepted) => {
                tenant.stats.admitted += 1;
                Ok(())
            }
            Ok(_) => Err(ServerError::MergeIntoFullQueue { tenant: tenant.id }),
            Err(error) => Err(ServerError::Tenant {
                tenant: tenant.id,
                error,
            }),
        }
    }

    /// Execution pass for one tenant: grant its DRR quantum as one
    /// engine call, charging one deficit unit per slice; the
    /// deficit resets when its queue empties (no banking). Returns
    /// slices executed.
    fn serve_quantum(&mut self, i: usize) -> Result<usize, ServerError> {
        let tenant = &mut self.tenants[i];
        if tenant.engine.pending() == 0 {
            tenant.deficit = 0;
            return Ok(0);
        }
        tenant.deficit += tenant.qos.quantum();
        let (id, deadline, log) = (tenant.id, tenant.qos.deadline, &mut self.log);
        let grant = (tenant.deficit as usize).min(tenant.engine.pending());
        // Each slice is accounted as it completes (tenants run one
        // backend, so one outcome is one slice): a grant that fails
        // partway leaves every slice it logged counted.
        let steps = tenant
            .engine
            .run_slices(grant, |_, backend, slice, n_tasks, outcome| {
                let record = &outcome.record;
                let qos_miss =
                    (record.task_time > deadline).then_some((record.slice, record.task_time));
                let missed = !record.deadline_met || qos_miss.is_some();
                tenant.stats.executed += 1;
                tenant.stats.missed += u64::from(missed);
                tenant.window.record(missed);
                outcome.into_events(backend, slice, n_tasks, |event| {
                    log.emit(ServerEvent::Engine { tenant: id, event });
                });
                if let Some((slice, task_time)) = qos_miss {
                    log.emit(ServerEvent::QosMiss {
                        tenant: id,
                        slice,
                        task_time,
                        deadline,
                    });
                }
            })
            .map_err(|error| ServerError::Tenant { tenant: id, error })?;
        tenant.deficit -= steps as u64;
        if tenant.engine.pending() == 0 {
            tenant.deficit = 0;
        }
        // Everyone who waited through this quantum starved a little
        // (only this tenant's queue moved, so who waited is who still
        // waits).
        if steps > 0 {
            tenant.streak = 0;
            for (j, other) in self.tenants.iter_mut().enumerate() {
                if j != i && other.engine.pending() > 0 {
                    other.stats.starvation_ticks += steps as u64;
                    other.streak += steps as u64;
                    other.stats.max_starvation = other.stats.max_starvation.max(other.streak);
                }
            }
        }
        Ok(steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::FailingBackend;
    use crate::session::ScenarioSource;
    use hhpim_workload::{Scenario, ScenarioParams};

    fn snapshot(queue_depth: usize, pending_source: usize, qos: QosClass) -> TenantSnapshot {
        TenantSnapshot {
            id: TenantId(0),
            qos,
            queue_depth,
            pending_source,
            recent_miss_rate: 0.0,
            window_samples: 0,
            stats: TenantStats::default(),
        }
    }

    fn source(scenario: Scenario, slices: usize, seed: u64) -> ScenarioSource {
        ScenarioSource::new(
            scenario,
            ScenarioParams {
                slices,
                seed,
                ..ScenarioParams::default()
            },
        )
    }

    /// One MobileNetV2 tenant on `slices` low-load slices.
    fn solo(slices: usize, qos: QosClass) -> ServerBuilder {
        let source = source(Scenario::LowConstant, slices, 0);
        ServerBuilder::new()
            .tenant(TenantSpec::new("cam", TinyMlModel::MobileNetV2, source).qos(qos))
    }

    #[test]
    fn shed_on_pressure_follows_its_decision_table() {
        let mut policy = ShedOnPressure::new().with_min_samples(2);
        let qos = QosClass::default()
            .with_queue_cap(2)
            .with_max_miss_rate(0.25);

        // Healthy tenant with room: admit.
        assert_eq!(
            policy.admit(&snapshot(0, 5, qos), 0.5),
            AdmissionDecision::Admit
        );
        // Full queue: defer, never drop.
        assert_eq!(
            policy.admit(&snapshot(2, 5, qos), 0.5),
            AdmissionDecision::Defer
        );
        // Miss rate above the SLO with enough samples: shed.
        let mut hot = snapshot(0, 5, qos);
        hot.recent_miss_rate = 0.5;
        hot.window_samples = 2;
        assert_eq!(policy.admit(&hot, 0.5), AdmissionDecision::Shed);
        // Same miss rate but too few samples: still admit.
        hot.window_samples = 1;
        assert_eq!(policy.admit(&hot, 0.5), AdmissionDecision::Admit);
    }

    #[test]
    fn batch_coalesce_conserves_total_load() {
        let mut policy = BatchCoalesce::new().with_pressure(0);
        let qos = QosClass::default().with_queue_cap(4);
        let offered = [0.7, 0.6, 0.4, 0.9, 0.2];
        let mut enqueued = 0.0;
        for &load in &offered {
            match policy.admit(&snapshot(0, 3, qos), load) {
                AdmissionDecision::Admit => enqueued += load,
                AdmissionDecision::AdmitMerged { load } => enqueued += load,
                AdmissionDecision::Coalesce => {}
                other => panic!("unexpected decision {other:?}"),
            }
        }
        while let Some(load) = policy.flush(&snapshot(0, 0, qos)) {
            enqueued += load;
        }
        let total: f64 = offered.iter().sum();
        assert!(
            (enqueued - total).abs() < 1e-12,
            "coalescing must conserve load: {enqueued} vs {total}"
        );
    }

    #[test]
    fn batch_coalesce_never_merges_into_a_full_queue() {
        let mut policy = BatchCoalesce::new().with_pressure(0);
        let qos = QosClass::default().with_queue_cap(1);
        // Queue full: absorb, do not emit a merged slice.
        for _ in 0..4 {
            assert_eq!(
                policy.admit(&snapshot(1, 3, qos), 0.9),
                AdmissionDecision::Coalesce
            );
        }
        // Room again: the backlog drains one saturated slice at a time.
        assert_eq!(
            policy.admit(&snapshot(0, 3, qos), 0.9),
            AdmissionDecision::AdmitMerged { load: 1.0 }
        );
    }

    #[test]
    fn builder_rejects_malformed_registrations() {
        assert!(matches!(
            ServerBuilder::new().build(),
            Err(ServerError::NoTenants)
        ));

        let dup = ServerBuilder::new()
            .tenant(TenantSpec::new(
                "cam",
                TinyMlModel::MobileNetV2,
                source(Scenario::LowConstant, 2, 0),
            ))
            .tenant(TenantSpec::new(
                "cam",
                TinyMlModel::ResNet18,
                source(Scenario::LowConstant, 2, 0),
            ))
            .build();
        assert!(matches!(dup, Err(ServerError::DuplicateTenant { name }) if name == "cam"));

        let bad_qos = ServerBuilder::new()
            .tenant(
                TenantSpec::new(
                    "cam",
                    TinyMlModel::MobileNetV2,
                    source(Scenario::LowConstant, 2, 0),
                )
                .qos(QosClass::default().with_max_miss_rate(f64::NAN)),
            )
            .build();
        assert!(matches!(
            bad_qos,
            Err(ServerError::InvalidQos {
                field: "max_miss_rate",
                ..
            })
        ));
    }

    #[test]
    fn zero_queue_cap_is_rejected_at_build() {
        let built = ServerBuilder::new()
            .tenant(
                TenantSpec::new(
                    "cam",
                    TinyMlModel::MobileNetV2,
                    source(Scenario::LowConstant, 2, 0),
                )
                .qos(QosClass::default().with_queue_cap(0)),
            )
            .build();
        match built {
            Err(ServerError::InvalidQos {
                tenant,
                field: "queue_cap",
                value,
            }) => assert_eq!((tenant.as_str(), value), ("cam", 0.0)),
            other => panic!("expected InvalidQos, got {:?}", other.err()),
        }
    }

    /// A policy that answers every offered load the same way.
    #[derive(Debug, Clone, Copy)]
    struct Always(AdmissionDecision);

    impl AdmissionPolicy for Always {
        fn name(&self) -> &'static str {
            "always"
        }

        fn admit(&mut self, _tenant: &TenantSnapshot, _load: f64) -> AdmissionDecision {
            self.0
        }

        fn clone_box(&self) -> Box<dyn AdmissionPolicy> {
            Box::new(*self)
        }
    }

    #[test]
    fn a_livelocked_admission_policy_surfaces_as_stalled() {
        // Refusing every load without consuming it must be detected,
        // not spun on forever.
        let mut server = solo(3, QosClass::default())
            .admission(Always(AdmissionDecision::Defer))
            .build()
            .unwrap();
        assert!(matches!(server.run(), Err(ServerError::Stalled { .. })));
    }

    #[test]
    fn a_merge_into_a_full_queue_is_an_error_not_a_lost_load() {
        // Merging into a full queue breaks the `AdmitMerged` contract.
        let merge = Always(AdmissionDecision::AdmitMerged { load: 1.0 });
        let qos = QosClass::default().with_queue_cap(1);
        let mut server = solo(3, qos).admission(merge).build().unwrap();
        assert!(matches!(
            server.run(),
            Err(ServerError::MergeIntoFullQueue { tenant }) if tenant == TenantId(0)
        ));
        // The second load found the queue full: it was neither counted
        // nor taken from the source.
        let stats = server.stats()[0];
        assert_eq!((stats.submitted, stats.admitted), (1, 1));
        assert_eq!(server.tenants[0].pending.len(), 2);
    }

    #[test]
    fn a_grant_failing_partway_counts_every_logged_slice() {
        // One grant of all four queued slices; the backend fails the
        // third, and a zero SLO misses every slice.
        let qos = QosClass::default()
            .with_priority(4)
            .with_queue_cap(4)
            .with_deadline(SimDuration::ZERO);
        let mut server = solo(4, qos).build().unwrap();
        server.tenants[0].engine = Engine::new(FailingBackend::new(2, 0)).with_queue_capacity(4);
        assert!(matches!(server.run(), Err(ServerError::Tenant { .. })));
        // Each logged slice ends with its QoS miss.
        let logged = server
            .events()
            .filter(|e| matches!(e, ServerEvent::QosMiss { .. }))
            .count();
        let stats = server.stats()[0];
        assert_eq!((logged, stats.executed, stats.missed), (2, 2, 2));
    }

    #[test]
    fn event_buffer_drops_oldest_but_observers_see_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let seen = Arc::new(AtomicUsize::new(0));
        let hook = Arc::clone(&seen);
        let mut server = ServerBuilder::new()
            .event_capacity(1)
            .tenant(TenantSpec::new(
                "cam",
                TinyMlModel::MobileNetV2,
                source(Scenario::PeriodicSpike, 4, 1),
            ))
            .build()
            .unwrap();
        server.observe(move |_: &ServerEvent| {
            hook.fetch_add(1, Ordering::SeqCst);
        });
        server.run().unwrap();
        let delivered = seen.load(Ordering::SeqCst);
        assert!(server.events_dropped() > 0, "capacity 1 must shed");
        assert_eq!(server.events().count(), 1, "only the newest survives");
        assert_eq!(
            delivered as u64,
            server.events_dropped() + 1,
            "observers saw every emission, dropped or not"
        );
    }

    #[test]
    fn drr_shares_track_priorities_under_equal_demand() {
        let qos_hi = QosClass::default().with_priority(3).with_queue_cap(1);
        let qos_lo = QosClass::default().with_priority(1).with_queue_cap(1);
        let mut server = ServerBuilder::new()
            .tenant(
                TenantSpec::new(
                    "hi",
                    TinyMlModel::MobileNetV2,
                    source(Scenario::LowConstant, 12, 0),
                )
                .qos(qos_hi),
            )
            .tenant(
                TenantSpec::new(
                    "lo",
                    TinyMlModel::MobileNetV2,
                    source(Scenario::LowConstant, 12, 0),
                )
                .qos(qos_lo),
            )
            .build()
            .unwrap();
        let report = server.run().unwrap();
        // Both finish (work-conserving), so shares equalize at the
        // end; the priority shows up in rounds-to-completion instead:
        // the queue-capped high-priority tenant is never starved
        // longer than the low one.
        assert_eq!(report.total_executed(), 24);
        let hi = report.tenant("hi").unwrap().stats;
        let lo = report.tenant("lo").unwrap().stats;
        assert!(
            hi.max_starvation <= lo.max_starvation,
            "priority 3 must not starve harder than priority 1 \
             ({} vs {})",
            hi.max_starvation,
            lo.max_starvation
        );
    }
}
