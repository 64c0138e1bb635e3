//! One builder-driven entry point for the whole stack: compose an
//! architecture, a model, a trace source, a placement policy and one or
//! more execution backends, then run, compare or sweep.
//!
//! [`SessionBuilder`] puts every knob of the stack behind one typed
//! pipeline instead of one constructor per combination:
//!
//! ```text
//! SessionBuilder ──build()──▶ Session ──run()────▶ RunArtifacts
//!        │                        ├────compare()─▶ Comparison
//!        │                        └────sweep()───▶ SavingsMatrix
//!        ├─ architecture / model           (Table I / Table IV)
//!        ├─ trace source                   (TraceSource: scenario, replay, traffic)
//!        ├─ placement policy               (PlacementPolicy: LUT, fixed, greedy)
//!        └─ backends                       (BackendKind: analytic, cycle)
//! ```
//!
//! # Examples
//!
//! Run one scenario analytically:
//!
//! ```
//! use hhpim::session::SessionBuilder;
//! use hhpim_nn::TinyMlModel;
//! use hhpim_workload::{Scenario, ScenarioParams};
//!
//! let mut session = SessionBuilder::new()
//!     .model(TinyMlModel::MobileNetV2)
//!     .scenario(Scenario::PeriodicSpike)
//!     .scenario_params(ScenarioParams {
//!         slices: 4,
//!         ..ScenarioParams::default()
//!     })
//!     .build()
//!     .unwrap();
//! let artifacts = session.run().unwrap();
//! assert_eq!(artifacts.primary().records.len(), 4);
//! assert_eq!(artifacts.policy, "lut-adaptive");
//! ```
//!
//! Cross-check the closed-form model against the cycle-level machine
//! (the parity harness in one call):
//!
//! ```
//! use hhpim::session::SessionBuilder;
//! use hhpim::BackendKind;
//! use hhpim_nn::TinyMlModel;
//! use hhpim_workload::{Scenario, ScenarioParams};
//!
//! let comparison = SessionBuilder::new()
//!     .model(TinyMlModel::MobileNetV2)
//!     .scenario(Scenario::PeriodicSpike)
//!     .scenario_params(ScenarioParams {
//!         slices: 4,
//!         ..ScenarioParams::default()
//!     })
//!     .backend(BackendKind::Analytic)
//!     .backend(BackendKind::Cycle)
//!     .build()
//!     .unwrap()
//!     .compare()
//!     .unwrap();
//! assert!(comparison.deadline_misses_agree());
//! assert!(comparison.max_total_energy_rel() < 0.10);
//! ```
//!
//! Replay recorded loads through a non-default policy:
//!
//! ```
//! use hhpim::session::SessionBuilder;
//! use hhpim::GreedyBaseline;
//!
//! let mut session = SessionBuilder::new()
//!     .replay_loads(vec![0.1, 0.9, 0.2, 1.0])
//!     .policy(GreedyBaseline::new())
//!     .build()
//!     .unwrap();
//! let artifacts = session.run().unwrap();
//! assert_eq!(artifacts.policy, "greedy");
//! assert_eq!(artifacts.primary().records.len(), 4);
//! ```

use crate::arch::Architecture;
use crate::backend::{
    AnalyticBackend, BackendError, BackendKind, CycleBackend, ExecutionBackend, ExecutionReport,
};
use crate::cost::{CostModelError, CostParams};
use crate::dp::OptimizerConfig;
use crate::engine::EngineError;
use crate::experiment::{SavingsCell, SavingsMatrix};
use crate::policy::{default_policy, PlacementPolicy};
use crate::runtime::Processor;
use crate::store::{CacheStats, PlacementStore};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{LoadTrace, Scenario, ScenarioParams, TraceError};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced while building or driving a [`Session`].
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionError {
    /// The model does not fit the architecture, or the placement
    /// policy rejected its configuration.
    Cost(CostModelError),
    /// A backend failed to build or execute.
    Backend(BackendError),
    /// The trace source produced an invalid trace.
    Trace(TraceError),
    /// `run`/`compare` was called on a session built without a trace
    /// source (`scenario`, `trace_source` or `replay_loads`).
    NoTraceSource,
    /// `compare` needs at least two backends.
    NotComparable {
        /// Backends the session was built with.
        backends: usize,
    },
    /// The same backend kind was requested twice.
    DuplicateBackend {
        /// The duplicated kind.
        kind: BackendKind,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Cost(e) => write!(f, "cost model: {e}"),
            SessionError::Backend(e) => write!(f, "backend: {e}"),
            SessionError::Trace(e) => write!(f, "trace source: {e}"),
            SessionError::NoTraceSource => {
                write!(f, "session has no trace source (use scenario/trace_source)")
            }
            SessionError::NotComparable { backends } => {
                write!(
                    f,
                    "compare needs at least two backends, session has {backends}"
                )
            }
            SessionError::DuplicateBackend { kind } => {
                write!(f, "backend `{kind}` requested twice")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Cost(e) => Some(e),
            SessionError::Backend(e) => Some(e),
            SessionError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CostModelError> for SessionError {
    fn from(e: CostModelError) -> Self {
        SessionError::Cost(e)
    }
}

impl From<BackendError> for SessionError {
    fn from(e: BackendError) -> Self {
        SessionError::Backend(e)
    }
}

impl From<TraceError> for SessionError {
    fn from(e: TraceError) -> Self {
        SessionError::Trace(e)
    }
}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Backend { error, .. } => SessionError::Backend(error),
            EngineError::InvalidLoad { slice, load } => {
                SessionError::Trace(TraceError::LoadOutOfRange { index: slice, load })
            }
        }
    }
}

/// A source of [`LoadTrace`]s: canned scenarios, recorded loads, or
/// programmatic generators. Sessions pull a fresh trace per run, so a
/// source must be deterministic for a session's runs to be.
pub trait TraceSource: fmt::Debug {
    /// Human-readable description of the source.
    fn label(&self) -> String;

    /// Produces the trace to execute.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError`] for invalid parameters or samples.
    fn trace(&self) -> Result<LoadTrace, SessionError>;
}

/// A [`TraceSource`] generating one of the paper's Fig. 4 scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSource {
    /// The scenario to generate.
    pub scenario: Scenario,
    /// Shape parameters.
    pub params: ScenarioParams,
}

impl ScenarioSource {
    /// A scenario source with explicit parameters.
    pub fn new(scenario: Scenario, params: ScenarioParams) -> Self {
        ScenarioSource { scenario, params }
    }
}

impl TraceSource for ScenarioSource {
    fn label(&self) -> String {
        self.scenario.to_string()
    }

    fn trace(&self) -> Result<LoadTrace, SessionError> {
        Ok(LoadTrace::try_generate(self.scenario, self.params)?)
    }
}

/// A [`TraceSource`] replaying recorded per-slice loads (e.g. a
/// measured object-count stream).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySource {
    loads: Vec<f64>,
}

impl ReplaySource {
    /// Wraps recorded loads; validation happens when the session pulls
    /// the trace.
    pub fn new(loads: Vec<f64>) -> Self {
        ReplaySource { loads }
    }
}

impl TraceSource for ReplaySource {
    fn label(&self) -> String {
        format!("replay of {} recorded slices", self.loads.len())
    }

    fn trace(&self) -> Result<LoadTrace, SessionError> {
        Ok(LoadTrace::replay(self.loads.clone())?)
    }
}

/// Builder for a [`Session`]; see the [module docs](self) for the
/// composition surface and examples.
///
/// Defaults: HH-PIM architecture, MobileNetV2, the analytic backend,
/// the architecture's Table I placement policy, paper-default scenario
/// and calibration parameters, and *no* trace source (`run`/`compare`
/// need one; `sweep` does not).
#[derive(Debug, Default)]
pub struct SessionBuilder {
    arch: Option<Architecture>,
    model: Option<TinyMlModel>,
    backends: Vec<BackendKind>,
    source: Option<Box<dyn TraceSource>>,
    pending_scenario: Option<Scenario>,
    scenario_params: Option<ScenarioParams>,
    cost_params: Option<CostParams>,
    opt_config: Option<OptimizerConfig>,
    policy: Option<Box<dyn PlacementPolicy>>,
    store: Option<Arc<PlacementStore>>,
    artifact_dir: Option<std::path::PathBuf>,
    threads: Option<usize>,
}

impl SessionBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the Table I architecture (default: HH-PIM).
    pub fn architecture(mut self, arch: Architecture) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Selects the Table IV model (default: MobileNetV2).
    pub fn model(mut self, model: TinyMlModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Adds an execution backend; call repeatedly to compare several.
    /// A session built without any backend gets the analytic one.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backends.push(kind);
        self
    }

    /// Sources traces from a canned scenario, shaped by
    /// [`SessionBuilder::scenario_params`] (order-independent).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.pending_scenario = Some(scenario);
        self.source = None;
        self
    }

    /// Scenario shape parameters, for [`SessionBuilder::scenario`] and
    /// [`Session::sweep`].
    pub fn scenario_params(mut self, params: ScenarioParams) -> Self {
        self.scenario_params = Some(params);
        self
    }

    /// Sources traces from an arbitrary [`TraceSource`].
    pub fn trace_source(mut self, source: impl TraceSource + 'static) -> Self {
        self.source = Some(Box::new(source));
        self.pending_scenario = None;
        self
    }

    /// Sources traces by replaying recorded per-slice loads, or any
    /// finite iterator of them (`(0..n).map(f)` for a synthetic shape).
    pub fn replay_loads(self, loads: impl IntoIterator<Item = f64>) -> Self {
        self.trace_source(ReplaySource::new(loads.into_iter().collect()))
    }

    /// Selects the placement policy every backend consults (default:
    /// the architecture's Table I policy — the DP LUT on HH-PIM, the
    /// fixed home elsewhere).
    pub fn policy(mut self, policy: impl PlacementPolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Cost-model calibration knobs.
    pub fn cost_params(mut self, params: CostParams) -> Self {
        self.cost_params = Some(params);
        self
    }

    /// Placement-optimizer settings (LUT resolution etc.).
    pub fn optimizer(mut self, config: OptimizerConfig) -> Self {
        self.opt_config = Some(config);
        self
    }

    /// The [`PlacementStore`] supplying memoized LUTs (default: a fresh
    /// store the session owns). Pass one store to several builders to
    /// share their DP builds and [`CacheStats`].
    pub fn store(mut self, store: Arc<PlacementStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a persistent [`crate::artifact`] directory to the
    /// session's store: memory misses then try the keyed on-disk LUT
    /// before running the DP, and fresh builds are written back
    /// atomically — so a second process pointed at a populated dir
    /// performs zero LUT DP builds for cached keys
    /// ([`CacheStats::disk_hits`] / [`CacheStats::disk_writes`] count
    /// the traffic). The tier never changes what a lookup returns,
    /// only whether the DP runs; corrupt or stale files fall through
    /// to a rebuild.
    ///
    /// The tier is attached to the session's store — its own by
    /// default, or the one passed to [`SessionBuilder::store`], where
    /// it stays attached until replaced
    /// ([`PlacementStore::set_artifact_store`]).
    pub fn artifact_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.artifact_dir = Some(dir.into());
        self
    }

    /// Worker threads for [`Session::sweep`]/[`Session::sweep_all`]
    /// (default 1 = serial). The parallel executor fans sweep cells
    /// across scoped threads sharing the session's warm store; results
    /// are ordered deterministically and bit-identical to the serial
    /// run. Values are clamped to at least 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn resolved(&self) -> (Architecture, TinyMlModel, CostParams, OptimizerConfig) {
        (
            self.arch.unwrap_or(Architecture::HhPim),
            self.model.unwrap_or(TinyMlModel::MobileNetV2),
            self.cost_params.unwrap_or_default(),
            self.opt_config.unwrap_or_default(),
        )
    }

    fn resolved_store(&self) -> Arc<PlacementStore> {
        let store = self
            .store
            .as_ref()
            .cloned()
            .unwrap_or_else(PlacementStore::shared);
        if let Some(dir) = &self.artifact_dir {
            store.set_artifact_store(Some(crate::artifact::ArtifactStore::new(dir.clone())));
        }
        store
    }

    fn make_policy(&self, arch: Architecture) -> Box<dyn PlacementPolicy> {
        self.policy
            .as_ref()
            .map(|p| p.clone_box())
            .unwrap_or_else(|| default_policy(arch))
    }

    fn make_processor(&self, store: &PlacementStore) -> Result<Processor, SessionError> {
        let (arch, model, cost_params, opt_config) = self.resolved();
        Ok(Processor::with_policy_in(
            arch,
            model,
            cost_params,
            opt_config,
            self.make_policy(arch),
            store,
        )?)
    }

    /// Builds just the analytic backend — the escape hatch for code
    /// that owns a single backend directly. Without
    /// [`SessionBuilder::store`], each call draws on a fresh store.
    ///
    /// # Errors
    ///
    /// See [`SessionBuilder::build`].
    pub fn build_analytic(&self) -> Result<AnalyticBackend, SessionError> {
        Ok(AnalyticBackend::from_processor(
            self.make_processor(&self.resolved_store())?,
        ))
    }

    /// Builds just the cycle backend — the escape hatch for code that
    /// owns a single backend directly. Without
    /// [`SessionBuilder::store`], each call draws on a fresh store.
    ///
    /// # Errors
    ///
    /// See [`SessionBuilder::build`].
    pub fn build_cycle(&self) -> Result<CycleBackend, SessionError> {
        let (_, model, _, _) = self.resolved();
        Ok(CycleBackend::from_processor(
            self.make_processor(&self.resolved_store())?,
            model,
        )?)
    }

    /// Builds one backend of the requested kind as a trait object —
    /// the dispatch point for callers that pick backends at runtime
    /// (the [`crate::server::ServerBuilder`] builds every tenant's
    /// engine through this) without matching on [`BackendKind`]
    /// themselves.
    ///
    /// # Errors
    ///
    /// See [`SessionBuilder::build`].
    pub fn build_backend(
        &self,
        kind: BackendKind,
    ) -> Result<Box<dyn ExecutionBackend>, SessionError> {
        Ok(match kind {
            BackendKind::Analytic => Box::new(self.build_analytic()?),
            BackendKind::Cycle => Box::new(self.build_cycle()?),
        })
    }

    /// Builds the session: prepares the policy, instantiates every
    /// requested backend and binds the trace source. A session with a
    /// source but no explicit backend gets the analytic one; a
    /// *sourceless* session with no explicit backend builds none —
    /// it cannot `run` anyway, and [`Session::sweep`] constructs its
    /// own processors, so sweep-only sessions skip the backend (and
    /// its LUT DP) cost entirely.
    ///
    /// # Errors
    ///
    /// [`SessionError::Cost`]/[`SessionError::Backend`] when the model
    /// does not fit, the policy rejects its configuration or a backend
    /// cannot be built; [`SessionError::DuplicateBackend`] when a kind
    /// was requested twice.
    pub fn build(self) -> Result<Session, SessionError> {
        let (arch, model, cost_params, opt_config) = self.resolved();
        let has_source = self.source.is_some() || self.pending_scenario.is_some();
        let kinds = if self.backends.is_empty() && has_source {
            vec![BackendKind::Analytic]
        } else {
            self.backends.clone()
        };
        for (i, &kind) in kinds.iter().enumerate() {
            if kinds[..i].contains(&kind) {
                return Err(SessionError::DuplicateBackend { kind });
            }
        }
        // One prepared processor (cost model + policy, LUT via the
        // shared store) serves every backend via Clone — a
        // dual-backend session pays at most one DP, and none at all
        // when the store is already warm for this configuration.
        let store = self.resolved_store();
        let mut backends: Vec<Box<dyn ExecutionBackend>> = Vec::with_capacity(kinds.len());
        if !kinds.is_empty() {
            let processor = self.make_processor(&store)?;
            for &kind in &kinds {
                match kind {
                    BackendKind::Analytic => {
                        backends.push(Box::new(AnalyticBackend::from_processor(processor.clone())))
                    }
                    BackendKind::Cycle => backends.push(Box::new(CycleBackend::from_processor(
                        processor.clone(),
                        model,
                    )?)),
                }
            }
        }
        let policy_name = self.make_policy(arch).name();
        let source = match (self.source, self.pending_scenario) {
            (Some(source), _) => Some(source),
            (None, Some(scenario)) => Some(Box::new(ScenarioSource::new(
                scenario,
                self.scenario_params.unwrap_or_default(),
            )) as Box<dyn TraceSource>),
            (None, None) => None,
        };
        Ok(Session {
            arch,
            model,
            scenario_params: self.scenario_params.unwrap_or_default(),
            cost_params,
            opt_config,
            policy_name,
            source,
            backends,
            store,
            threads: self.threads.unwrap_or(1),
        })
    }
}

/// The typed artifacts of one [`Session::run`]: the executed trace and
/// one [`ExecutionReport`] per configured backend, in builder order.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The trace every backend executed.
    pub trace: LoadTrace,
    /// Name of the placement policy in effect.
    pub policy: &'static str,
    /// One report per backend, in the order they were configured.
    pub reports: Vec<ExecutionReport>,
    /// Snapshot of the session's [`PlacementStore`] counters at the
    /// end of the run: how often prepared placement state (the LUT DP
    /// above all) was reused versus rebuilt.
    pub cache: CacheStats,
}

impl RunArtifacts {
    /// The first (primary) backend's report.
    pub fn primary(&self) -> &ExecutionReport {
        &self.reports[0]
    }

    /// The report of a specific backend, if the session ran one.
    pub fn report(&self, kind: BackendKind) -> Option<&ExecutionReport> {
        self.reports.iter().find(|r| r.backend == kind)
    }
}

/// The outcome of [`Session::compare`]: every backend's report on the
/// same trace, with agreement checks over the first (reference)
/// backend.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The underlying run.
    pub artifacts: RunArtifacts,
}

/// Wraps artifacts you already hold in the agreement checks, without
/// re-executing the backends (unlike [`Session::compare`], this does
/// not enforce a minimum backend count — a single-report comparison
/// trivially agrees with itself).
impl From<RunArtifacts> for Comparison {
    fn from(artifacts: RunArtifacts) -> Self {
        Comparison { artifacts }
    }
}

impl Comparison {
    /// The reference report (the first configured backend).
    pub fn reference(&self) -> &ExecutionReport {
        self.artifacts.primary()
    }

    /// Largest relative total-energy deviation of any backend from the
    /// reference.
    pub fn max_total_energy_rel(&self) -> f64 {
        let e_ref = self.reference().total_energy().as_pj();
        self.artifacts.reports[1..]
            .iter()
            .map(|r| (r.total_energy().as_pj() - e_ref).abs() / e_ref.abs().max(f64::MIN_POSITIVE))
            .fold(0.0, f64::max)
    }

    /// Whether every backend reports the same deadline-miss count.
    pub fn deadline_misses_agree(&self) -> bool {
        let misses = self.reference().deadline_misses;
        self.artifacts
            .reports
            .iter()
            .all(|r| r.deadline_misses == misses)
    }

    /// Whether every backend agrees on every slice's schedulability,
    /// not just the total.
    pub fn schedulability_agrees(&self) -> bool {
        let reference: Vec<bool> = self
            .reference()
            .records
            .iter()
            .map(|r| r.deadline_met)
            .collect();
        self.artifacts.reports.iter().all(|r| {
            r.records.len() == reference.len()
                && r.records
                    .iter()
                    .zip(&reference)
                    .all(|(rec, &expected)| rec.deadline_met == expected)
        })
    }
}

/// A built session: bound backends, policy and trace source. See the
/// [module docs](self).
pub struct Session {
    arch: Architecture,
    model: TinyMlModel,
    scenario_params: ScenarioParams,
    cost_params: CostParams,
    opt_config: OptimizerConfig,
    policy_name: &'static str,
    source: Option<Box<dyn TraceSource>>,
    backends: Vec<Box<dyn ExecutionBackend>>,
    store: Arc<PlacementStore>,
    threads: usize,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("arch", &self.arch)
            .field("model", &self.model)
            .field("policy", &self.policy_name)
            .field("backends", &self.backend_kinds())
            .field("source", &self.source)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A fresh builder (alias for [`SessionBuilder::new`]).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The architecture the session executes.
    pub fn architecture(&self) -> Architecture {
        self.arch
    }

    /// The model the session executes.
    pub fn model(&self) -> TinyMlModel {
        self.model
    }

    /// Name of the placement policy in effect.
    pub fn policy_name(&self) -> &'static str {
        self.policy_name
    }

    /// The configured backends, in run order.
    pub fn backend_kinds(&self) -> Vec<BackendKind> {
        self.backends.iter().map(|b| b.kind()).collect()
    }

    /// The bound trace source's label, if any.
    pub fn source_label(&self) -> Option<String> {
        self.source.as_ref().map(|s| s.label())
    }

    /// The placement store backing this session: the one passed to
    /// [`SessionBuilder::store`], or the session's own.
    pub fn store(&self) -> &Arc<PlacementStore> {
        &self.store
    }

    /// A snapshot of the session store's hit/miss/build counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Worker threads [`Session::sweep`] fans its cells out across.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pulls one trace from the source and executes it on every
    /// configured backend.
    ///
    /// The batch facade is a wrapper over the streaming path: each
    /// backend executes the trace slice by slice through its resumable
    /// `step_slice`, bit-identical to the former monolithic loops. For
    /// online (unbounded) workloads, events or backpressure, drive a
    /// [`crate::engine::Engine`] directly — see [`crate::engine`].
    ///
    /// # Errors
    ///
    /// [`SessionError::NoTraceSource`] without a source,
    /// [`SessionError::Trace`] when the source rejects its parameters,
    /// [`SessionError::Backend`] when execution fails.
    pub fn run(&mut self) -> Result<RunArtifacts, SessionError> {
        let trace = self
            .source
            .as_ref()
            .ok_or(SessionError::NoTraceSource)?
            .trace()?;
        let reports = self.execute_trace(&trace)?;
        Ok(RunArtifacts {
            trace,
            policy: self.policy_name,
            reports,
            cache: self.store.stats(),
        })
    }

    /// Runs `trace` on every backend (builder order) via the provided
    /// streaming loop — `execute` is `begin_stream` → `step_slice` per
    /// slice → `finish_stream`, the same resumable path a
    /// [`crate::engine::Engine`] drives online, without the engine's
    /// queue/event machinery that a batch run would only discard.
    fn execute_trace(&mut self, trace: &LoadTrace) -> Result<Vec<ExecutionReport>, SessionError> {
        let mut reports = Vec::with_capacity(self.backends.len());
        for backend in &mut self.backends {
            reports.push(backend.execute(trace).map_err(SessionError::Backend)?);
        }
        Ok(reports)
    }

    /// Runs every backend on the same trace and wraps the reports in
    /// agreement checks — the parity harness as a method.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotComparable`] with fewer than two backends,
    /// plus everything [`Session::run`] can raise.
    pub fn compare(&mut self) -> Result<Comparison, SessionError> {
        if self.backends.len() < 2 {
            return Err(SessionError::NotComparable {
                backends: self.backends.len(),
            });
        }
        Ok(Comparison {
            artifacts: self.run()?,
        })
    }

    /// Computes the paper's Fig. 5 energy-savings matrix over a
    /// `scenarios × models` grid: for every cell, HH-PIM's total trace
    /// energy against the three comparison architectures, each under
    /// its Table I placement mode (the session's policy selection
    /// applies to `run`/`compare`, not to this canonical comparison).
    ///
    /// Uses the session's scenario, cost and optimizer parameters.
    /// Every cell draws its LUTs from the session's [`PlacementStore`],
    /// so the DP runs once per distinct `(architecture, model)`
    /// configuration for the whole sweep.
    ///
    /// With [`SessionBuilder::threads`] above 1 the cells fan out
    /// across that many scoped worker threads sharing the warm store;
    /// cell order and every value are bit-identical to the serial run.
    ///
    /// # Errors
    ///
    /// [`SessionError::Cost`] when a model does not fit an
    /// architecture, [`SessionError::Trace`] on invalid scenario
    /// parameters, [`SessionError::Backend`] when a trace would run
    /// past the last `SimTime`.
    pub fn sweep(
        &self,
        scenarios: &[Scenario],
        models: &[TinyMlModel],
    ) -> Result<SavingsMatrix, SessionError> {
        // Model-major cell order, so a contiguous chunk re-prepares its
        // processors only at model boundaries.
        let pairs: Vec<(Scenario, TinyMlModel)> = models
            .iter()
            .flat_map(|&model| scenarios.iter().map(move |&scenario| (scenario, model)))
            .collect();
        let threads = self.threads.min(pairs.len()).max(1);
        let mut slots: Vec<Option<Result<SavingsCell, SessionError>>> = Vec::new();
        slots.resize_with(pairs.len(), || None);
        let (scenario_params, cost_params, opt_config) =
            (self.scenario_params, self.cost_params, self.opt_config);
        let store = &self.store;
        if threads == 1 {
            Self::sweep_chunk(
                &pairs,
                &mut slots,
                scenario_params,
                cost_params,
                opt_config,
                store,
            );
        } else {
            let chunk = pairs.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (pair_chunk, slot_chunk) in pairs.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                    scope.spawn(move || {
                        Self::sweep_chunk(
                            pair_chunk,
                            slot_chunk,
                            scenario_params,
                            cost_params,
                            opt_config,
                            store,
                        );
                    });
                }
            });
        }
        // Slots were filled chunk-by-chunk in pair order, so the
        // result ordering is deterministic regardless of thread
        // timing; the first error in pair order wins, as in the
        // serial path.
        let cells = slots
            .into_iter()
            .map(|cell| cell.expect("every sweep slot is filled"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SavingsMatrix { cells })
    }

    /// Computes a contiguous run of cells in pair order, hoisting the
    /// four prepared processors per model (cells are model-major, so a
    /// chunk re-prepares only at model boundaries). The serial path
    /// and every parallel worker share this walker, and a cell's
    /// arithmetic never depends on which chunk computed it — matrices
    /// are bit-identical regardless of thread count.
    fn sweep_chunk(
        pairs: &[(Scenario, TinyMlModel)],
        slots: &mut [Option<Result<SavingsCell, SessionError>>],
        scenario_params: ScenarioParams,
        cost_params: CostParams,
        opt_config: OptimizerConfig,
        store: &PlacementStore,
    ) {
        let mut procs: Option<(TinyMlModel, Vec<(Architecture, Processor)>)> = None;
        for (&(scenario, model), slot) in pairs.iter().zip(slots.iter_mut()) {
            *slot = Some(Self::sweep_cell(
                scenario,
                model,
                &mut procs,
                scenario_params,
                cost_params,
                opt_config,
                store,
            ));
        }
    }

    /// One sweep cell, reusing (or refreshing) the walker's per-model
    /// processor set.
    fn sweep_cell(
        scenario: Scenario,
        model: TinyMlModel,
        procs: &mut Option<(TinyMlModel, Vec<(Architecture, Processor)>)>,
        scenario_params: ScenarioParams,
        cost_params: CostParams,
        opt_config: OptimizerConfig,
        store: &PlacementStore,
    ) -> Result<SavingsCell, SessionError> {
        if procs.as_ref().is_none_or(|(m, _)| *m != model) {
            let built = Architecture::ALL
                .iter()
                .map(|&arch| {
                    Processor::with_policy_in(
                        arch,
                        model,
                        cost_params,
                        opt_config,
                        default_policy(arch),
                        store,
                    )
                    .map(|p| (arch, p))
                })
                .collect::<Result<Vec<_>, CostModelError>>()?;
            *procs = Some((model, built));
        }
        let (_, procs) = procs.as_ref().expect("processors prepared above");
        let trace = LoadTrace::try_generate(scenario, scenario_params)?;
        let energy = |arch: Architecture| {
            procs
                .iter()
                .find(|(a, _)| *a == arch)
                .expect("all architectures built")
                .1
                .run_trace(&trace)
                .map(|r| r.total_energy())
        };
        let e_hh = energy(Architecture::HhPim)?;
        let pct = |e_other: hhpim_mem::Energy| (1.0 - e_hh / e_other) * 100.0;
        Ok(SavingsCell {
            scenario,
            model,
            vs_baseline: pct(energy(Architecture::Baseline)?),
            vs_heterogeneous: pct(energy(Architecture::Heterogeneous)?),
            vs_hybrid: pct(energy(Architecture::Hybrid)?),
        })
    }

    /// [`Session::sweep`] over the full paper grid (6 scenarios × 3
    /// models).
    ///
    /// # Errors
    ///
    /// See [`Session::sweep`].
    pub fn sweep_all(&self) -> Result<SavingsMatrix, SessionError> {
        self.sweep(&Scenario::ALL, &TinyMlModel::ALL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedHome, GreedyBaseline, LutAdaptive};
    use crate::space::{Placement, StorageSpace};

    fn small_params() -> ScenarioParams {
        ScenarioParams {
            slices: 5,
            ..ScenarioParams::default()
        }
    }

    #[test]
    fn builder_defaults_run_the_analytic_backend() {
        let mut session = SessionBuilder::new()
            .scenario(Scenario::PeriodicSpike)
            .scenario_params(small_params())
            .build()
            .unwrap();
        assert_eq!(session.architecture(), Architecture::HhPim);
        assert_eq!(session.model(), TinyMlModel::MobileNetV2);
        assert_eq!(session.backend_kinds(), vec![BackendKind::Analytic]);
        assert_eq!(session.policy_name(), "lut-adaptive");
        let artifacts = session.run().unwrap();
        assert_eq!(artifacts.reports.len(), 1);
        assert_eq!(artifacts.primary().records.len(), 5);
        assert!(artifacts.report(BackendKind::Cycle).is_none());
    }

    #[test]
    fn run_without_source_is_a_typed_error() {
        let mut session = SessionBuilder::new().build().unwrap();
        assert!(matches!(
            session.run().unwrap_err(),
            SessionError::NoTraceSource
        ));
    }

    #[test]
    fn sourceless_sessions_build_no_backends_for_sweep_only_use() {
        // A sweep-only session (no trace source, no explicit backend)
        // must not pay for backend construction — sweep builds its own
        // processors.
        let session = SessionBuilder::new().build().unwrap();
        assert!(session.backend_kinds().is_empty());
        // Explicitly requested backends are still honored.
        let session = SessionBuilder::new()
            .backend(BackendKind::Analytic)
            .build()
            .unwrap();
        assert_eq!(session.backend_kinds(), vec![BackendKind::Analytic]);
    }

    #[test]
    fn comparison_wraps_held_artifacts_without_rerunning() {
        let mut session = SessionBuilder::new()
            .scenario(Scenario::PeriodicSpike)
            .scenario_params(small_params())
            .build()
            .unwrap();
        let artifacts = session.run().unwrap();
        let comparison = Comparison::from(artifacts);
        assert!(comparison.deadline_misses_agree());
        assert_eq!(comparison.max_total_energy_rel(), 0.0);
    }

    #[test]
    fn compare_needs_two_backends() {
        let mut session = SessionBuilder::new()
            .scenario(Scenario::LowConstant)
            .scenario_params(small_params())
            .build()
            .unwrap();
        assert!(matches!(
            session.compare().unwrap_err(),
            SessionError::NotComparable { backends: 1 }
        ));
    }

    #[test]
    fn duplicate_backends_are_rejected() {
        let err = SessionBuilder::new()
            .backend(BackendKind::Analytic)
            .backend(BackendKind::Analytic)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::DuplicateBackend {
                kind: BackendKind::Analytic
            }
        ));
    }

    #[test]
    fn invalid_scenario_params_surface_as_trace_errors() {
        let mut session = SessionBuilder::new()
            .scenario(Scenario::Random)
            .scenario_params(ScenarioParams {
                slices: 0,
                ..ScenarioParams::default()
            })
            .build()
            .unwrap();
        assert!(matches!(
            session.run().unwrap_err(),
            SessionError::Trace(TraceError::Empty)
        ));
    }

    #[test]
    fn closure_source_feeds_the_run() {
        let mut session = SessionBuilder::new()
            .replay_loads((0..6).map(|i| if i % 2 == 0 { 1.0 } else { 0.1 }))
            .build()
            .unwrap();
        let artifacts = session.run().unwrap();
        assert_eq!(artifacts.primary().records.len(), 6);
        let tasks: Vec<u32> = artifacts
            .primary()
            .records
            .iter()
            .map(|r| r.n_tasks)
            .collect();
        assert_eq!(tasks, vec![10, 1, 10, 1, 10, 1]);
    }

    #[test]
    fn all_three_policies_are_selectable_and_disagree_where_expected() {
        fn run(policy: impl PlacementPolicy + 'static) -> RunArtifacts {
            SessionBuilder::new()
                .scenario(Scenario::PeriodicSpike)
                .scenario_params(ScenarioParams {
                    slices: 5,
                    ..ScenarioParams::default()
                })
                .policy(policy)
                .build()
                .unwrap()
                .run()
                .unwrap()
        }
        let lut = run(LutAdaptive::new());
        let fixed = run(FixedHome::arch_default());
        let greedy = run(GreedyBaseline::new());
        assert_eq!(lut.policy, "lut-adaptive");
        assert_eq!(fixed.policy, "fixed-home");
        assert_eq!(greedy.policy, "greedy");
        // The fixed home never migrates; the adaptive policies do on a
        // spiky trace.
        assert!(fixed.primary().migrations.is_empty());
        assert!(!lut.primary().migrations.is_empty());
        assert!(!greedy.primary().migrations.is_empty());
        // The DP LUT's leakage-aware objective beats the fixed home on
        // total energy for a mostly-idle trace.
        assert!(
            lut.primary().total_energy() < fixed.primary().total_energy(),
            "lut {} vs fixed {}",
            lut.primary().total_energy(),
            fixed.primary().total_energy()
        );
    }

    #[test]
    fn pinned_policy_flows_through_both_backends() {
        // A valid all-groups pin: fill spaces in declaration order.
        let cost = Processor::new(Architecture::HhPim, TinyMlModel::MobileNetV2)
            .unwrap()
            .cost()
            .clone();
        let mut pin = Placement::empty();
        let mut remaining = cost.k_groups();
        for space in StorageSpace::ALL {
            let take = remaining.min(cost.capacity_groups(space));
            pin.set(space, take);
            remaining -= take;
        }
        assert!(cost.is_valid(&pin));
        let mut session = SessionBuilder::new()
            .scenario(Scenario::HighLowPulsing)
            .scenario_params(small_params())
            .policy(FixedHome::pinned(pin))
            .backend(BackendKind::Analytic)
            .backend(BackendKind::Cycle)
            .build()
            .unwrap();
        let artifacts = session.run().unwrap();
        for report in &artifacts.reports {
            assert!(report.migrations.is_empty(), "{}", report.backend);
            for rec in &report.records {
                assert_eq!(rec.placement, Some(pin), "{}", report.backend);
            }
        }
    }

    #[test]
    fn sweep_matches_grid_dimensions_and_subsets() {
        let session = SessionBuilder::new()
            .scenario_params(ScenarioParams {
                slices: 8,
                ..ScenarioParams::default()
            })
            .optimizer(OptimizerConfig {
                time_buckets: 300,
                ..OptimizerConfig::default()
            })
            .build()
            .unwrap();
        let sub = session
            .sweep(
                &[Scenario::LowConstant, Scenario::HighConstant],
                &[TinyMlModel::MobileNetV2],
            )
            .unwrap();
        assert_eq!(sub.cells.len(), 2);
        assert!(sub
            .cell(Scenario::LowConstant, TinyMlModel::MobileNetV2)
            .is_some());
        // Subset cells match the same cells of the full grid exactly.
        let full = session.sweep_all().unwrap();
        for cell in &sub.cells {
            let full_cell = full.cell(cell.scenario, cell.model).unwrap();
            assert_eq!(cell.vs_baseline.to_bits(), full_cell.vs_baseline.to_bits());
            assert_eq!(cell.vs_hybrid.to_bits(), full_cell.vs_hybrid.to_bits());
        }
    }
}
