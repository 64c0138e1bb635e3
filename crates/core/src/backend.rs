//! Unified execution backends: one workload in, one report out.
//!
//! The repo models the paper's machine twice — analytically
//! ([`crate::CostModel`] + [`crate::Processor`], fast enough for DP
//! sweeps) and structurally ([`hhpim_pim::PimMachine`] replaying a
//! lowered [`TimeGraph`], bit-accurate but slower). Before this
//! module each path produced its own report type with its own energy
//! vocabulary, so results could not be compared apples-to-apples.
//!
//! [`ExecutionBackend`] closes that gap: both backends consume a
//! [`hhpim_workload::LoadTrace`] and produce the same
//! [`ExecutionReport`] — energy broken down in one [`EnergyCat`]
//! vocabulary via [`hhpim_mem::EnergyLedger`], latency as
//! [`hhpim_sim::SimTime`], per-slice [`SliceRecord`]s and deadline
//! misses. Every future scaling layer (sharding, batching, new
//! backends) plugs in here.
//!
//! | backend              | wraps                              | fidelity |
//! |----------------------|------------------------------------|----------|
//! | [`AnalyticBackend`]  | `Processor` + `CostModel`          | closed-form slice accounting |
//! | [`CycleBackend`]     | `PimMachine` + `TimeGraph` replay  | per-access timing/energy of the full multi-layer program |
//!
//! Energy breakdowns, per-slice records, per-layer records, migration
//! ledgers and deadline misses all compare directly: both backends
//! account the same per-task PIM MACs (the cycle backend physically
//! retires them — see [`ExecutionReport::macs`]), consult the same
//! allocation LUT, and move the same re-placement traffic.
//!
//! Every driving layer selects its backend through the same
//! [`BackendKind`] switch: [`crate::session::SessionBuilder::backend`]
//! for batch runs, [`crate::engine::Engine::from_backends`] for
//! streaming, and [`crate::server::ServerBuilder::backend`] for every
//! tenant engine of the multi-tenant server.
//!
//! # Examples
//!
//! ```
//! use hhpim::{AnalyticBackend, Architecture, CycleBackend, ExecutionBackend};
//! use hhpim_nn::TinyMlModel;
//! use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
//!
//! let trace = LoadTrace::generate(
//!     Scenario::PeriodicSpike,
//!     ScenarioParams { slices: 4, ..ScenarioParams::default() },
//! );
//! let mut analytic = AnalyticBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
//! let mut cycle = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
//! let a = analytic.execute(&trace).unwrap();
//! let c = cycle.execute(&trace).unwrap();
//! assert_eq!(a.records.len(), c.records.len());
//! assert_eq!(a.deadline_misses, c.deadline_misses);
//! ```

use crate::arch::{Architecture, GatingPolicy};
use crate::compile::{compile_model, CompileError, CompiledProgram, LayerOp, WeightHome};
use crate::cost::CostModelError;
use crate::engine::{AnalyticRun, CycleRun, LayerAcc, SliceOutcome};
use crate::runtime::{Processor, RuntimeConfig};
use crate::space::{movement_legs, MovementLeg, Placement, StorageSpace};
use crate::timegraph::TimeGraph;
use hhpim_isa::{MemSelect, ModuleMask, PimInstruction};
use hhpim_mem::{AccessKind, ClusterClass, Energy, EnergyLedger, MemKind};
use hhpim_nn::{LayerWeights, TinyMlModel};
use hhpim_pim::{MachineConfig, MachineError, ModuleConfig, PimMachine};
use hhpim_sim::{SimDuration, SimTime};
use hhpim_workload::LoadTrace;
use std::fmt;
use std::ops::Range;

/// Which execution backend produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum BackendKind {
    /// Closed-form slice accounting over the cost model.
    Analytic,
    /// Transaction-level execution on the structural PIM machine.
    Cycle,
}

impl BackendKind {
    /// Human-readable backend name.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Analytic => "analytic",
            BackendKind::Cycle => "cycle",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The shared energy vocabulary of every backend's report.
///
/// The analytic runtime folds PE compute into its per-space dynamic
/// cost, so analytic reports carry it under [`EnergyCat::MemDynamic`];
/// the cycle backend meters PEs separately ([`EnergyCat::PeDynamic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnergyCat {
    /// Dynamic access energy of one memory technology in one cluster
    /// (weight + activation traffic; analytic reports include PE
    /// compute here).
    MemDynamic(ClusterClass, MemKind),
    /// Leakage of one memory technology in one cluster.
    MemStatic(ClusterClass, MemKind),
    /// Power-gating wake-up charges of one memory technology.
    MemWake(ClusterClass, MemKind),
    /// PE compute energy (cycle backend only).
    PeDynamic(ClusterClass),
    /// PE leakage.
    PeStatic(ClusterClass),
    /// Controller issue energy and leakage.
    Controller,
    /// Inter-space weight movement (re-placement) energy.
    Movement,
}

/// One time slice's outcome, shared by all backends.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceRecord {
    /// Slice index.
    pub slice: usize,
    /// Tasks processed this slice.
    pub n_tasks: u32,
    /// Placement in effect (`None` for backends without a placement
    /// notion).
    pub placement: Option<Placement>,
    /// Per-task deadline after movement overhead.
    pub t_constraint: SimDuration,
    /// Per-task latency under this slice's configuration.
    pub task_time: SimDuration,
    /// Re-placement movement time paid at the slice boundary.
    pub movement_time: SimDuration,
    /// Groups moved at the boundary.
    pub groups_moved: usize,
    /// Whether every task met `t_constraint`.
    pub deadline_met: bool,
    /// Slice energy (all categories).
    pub energy: Energy,
}

/// Per-model-layer accounting aggregated over a whole trace, so the
/// analytic and cycle backends compare layer-by-layer.
///
/// Semantics differ by fidelity: the cycle backend *measures* each
/// layer's execution window and the energy spent inside it, while the
/// analytic backend *apportions* its per-task latency and dynamic
/// energy across PIM layers by MAC share.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRecord {
    /// Index of the layer in the source model.
    pub layer: usize,
    /// Human-readable layer label.
    pub label: String,
    /// MAC operations attributed to the layer over the trace.
    pub macs: u64,
    /// Execution time attributed to the layer over the trace.
    pub time: SimDuration,
    /// Energy attributed to the layer over the trace.
    pub energy: Energy,
}

/// One re-placement event: the weight migration paid at a slice
/// boundary when the task-queue length changed.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Slice whose start paid the migration.
    pub slice: usize,
    /// Placement before the move.
    pub from: Placement,
    /// Placement after the move.
    pub to: Placement,
    /// Weight groups moved.
    pub groups: usize,
    /// Bytes moved (`groups × group_size`).
    pub bytes: usize,
    /// Wall time of the migration.
    pub time: SimDuration,
    /// Energy of the migration traffic (reported under
    /// [`EnergyCat::Movement`]).
    pub energy: Energy,
}

/// The unified outcome of running one [`LoadTrace`] on any backend.
///
/// `PartialEq` compares every field bit for bit — the determinism
/// contracts ("same seed ⇒ bit-identical report") are stated, and
/// tested, as report equality.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Backend that produced the report.
    pub backend: BackendKind,
    /// Architecture that was executed.
    pub arch: Architecture,
    /// Per-slice records.
    pub records: Vec<SliceRecord>,
    /// Per-layer accounting over the whole trace (PIM layers only, in
    /// model order).
    pub layers: Vec<LayerRecord>,
    /// Re-placement events, in slice order (empty for architectures
    /// with a static placement).
    pub migrations: Vec<MigrationRecord>,
    /// Energy breakdown over the whole trace.
    pub energy: EnergyLedger<EnergyCat>,
    /// Instant the trace finished (nominal end of the last slice, or
    /// later if work overran it).
    pub elapsed: SimTime,
    /// Slices whose deadline was missed.
    pub deadline_misses: usize,
    /// PIM instructions executed (0 for backends that do not count).
    pub instructions: u64,
    /// MAC operations accounted for. Both backends now share one basis
    /// — the workload profile's PIM MACs per task: the analytic backend
    /// counts them from the profile, the cycle backend physically
    /// retires them (per-layer schedules plus the bit-exact head), so
    /// the counts agree to within per-layer rounding.
    pub macs: u64,
}

impl ExecutionReport {
    /// Total energy over the trace.
    pub fn total_energy(&self) -> Energy {
        self.energy.total()
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} slices, {} total, {} misses",
            self.arch,
            self.backend,
            self.records.len(),
            self.total_energy(),
            self.deadline_misses
        )
    }
}

/// Errors surfaced while building or running a backend.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendError {
    /// The model does not fit the architecture's cost model.
    Cost(CostModelError),
    /// Lowering the model onto the cycle machine failed.
    Compile(CompileError),
    /// The cycle machine rejected an operation mid-trace.
    Machine(MachineError),
    /// The model has no layer the cycle machine can execute.
    NoPimLayer {
        /// The model that could not be lowered.
        model: TinyMlModel,
    },
    /// A caller-supplied placement violates the architecture's
    /// capacities or does not place all weight groups.
    InvalidPlacement {
        /// The offending placement.
        placement: Placement,
    },
    /// The stream's slice would end past the last [`SimTime`] (or its
    /// total task time past [`SimDuration::MAX`]).
    TimeOverflow {
        /// Index of the slice that could not run.
        slice: usize,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Cost(e) => write!(f, "cost model: {e}"),
            BackendError::Compile(e) => write!(f, "compile: {e}"),
            BackendError::Machine(e) => write!(f, "machine: {e}"),
            BackendError::NoPimLayer { model } => {
                write!(f, "{model} has no linear layer the PIM machine can execute")
            }
            BackendError::InvalidPlacement { placement } => {
                write!(f, "placement {placement} is invalid for this architecture")
            }
            BackendError::TimeOverflow { slice } => {
                write!(f, "slice {slice} would end past the last SimTime")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<CostModelError> for BackendError {
    fn from(e: CostModelError) -> Self {
        match e {
            // A policy rejecting its pinned placement surfaces as the
            // backend's own placement error, as the old constructors did.
            CostModelError::InvalidPlacement { placement } => {
                BackendError::InvalidPlacement { placement }
            }
            other => BackendError::Cost(other),
        }
    }
}

impl From<CompileError> for BackendError {
    fn from(e: CompileError) -> Self {
        BackendError::Compile(e)
    }
}

impl From<MachineError> for BackendError {
    fn from(e: MachineError) -> Self {
        BackendError::Machine(e)
    }
}

/// A machine model that can execute load slices.
///
/// The primary interface is *streaming*: a run is opened with
/// [`ExecutionBackend::begin_stream`], fed one slice at a time through
/// the resumable [`ExecutionBackend::step_slice`] (where the placement
/// policy is consulted and any re-placement traffic moves), and closed
/// into a report by [`ExecutionBackend::finish_stream`]. The
/// [`crate::engine::Engine`] drives this path online; the batch
/// [`ExecutionBackend::execute`] is a provided loop over it and stays
/// bit-identical to the former monolithic runs.
///
/// Implementations must be rerunnable: streams (and `execute` calls)
/// may be opened in sequence, each producing an independent report.
/// `Send` lets an owner move a backend to another thread.
pub trait ExecutionBackend: Send {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// The architecture being executed.
    fn architecture(&self) -> Architecture;

    /// The runtime configuration shared with the analytic twin (slice
    /// duration, per-slice task cap) — what the engine needs to
    /// convert loads into task counts.
    fn runtime_config(&self) -> &RuntimeConfig;

    /// Opens a fresh streaming run, discarding any run in progress.
    ///
    /// # Errors
    ///
    /// Backend-specific; see [`BackendError`].
    fn begin_stream(&mut self) -> Result<(), BackendError>;

    /// Executes the next slice of the open stream (opening one if
    /// necessary): decides the slice's placement, pays any migration,
    /// runs `n_tasks` tasks and accounts the energy. The returned
    /// [`SliceOutcome`] carries the record and boundary decisions for
    /// the engine's event stream.
    ///
    /// # Errors
    ///
    /// Backend-specific; after an error the stream is poisoned and
    /// must be reopened with [`ExecutionBackend::begin_stream`].
    fn step_slice(&mut self, n_tasks: u32) -> Result<SliceOutcome, BackendError>;

    /// Executes the next `n_slices` slices of the open stream, each
    /// with the same `n_tasks`, appending one [`SliceOutcome`] per
    /// completed slice to `out` (`out` is not cleared). A convenience
    /// loop over [`ExecutionBackend::step_slice`] for callers that step
    /// a backend directly; the [`crate::engine::Engine`] steps every
    /// backend slice by slice and never calls it.
    ///
    /// # Errors
    ///
    /// On a failing slice the outcomes of the slices completed before
    /// it remain in `out`, the error is returned, and the stream is
    /// poisoned exactly as by a failing `step_slice`.
    fn step_n(
        &mut self,
        n_tasks: u32,
        n_slices: u32,
        out: &mut Vec<SliceOutcome>,
    ) -> Result<(), BackendError> {
        for _ in 0..n_slices {
            out.push(self.step_slice(n_tasks)?);
        }
        Ok(())
    }

    /// Closes the open stream into the unified report (an empty report
    /// if no slice was stepped).
    ///
    /// # Errors
    ///
    /// Backend-specific; see [`BackendError`].
    fn finish_stream(&mut self) -> Result<ExecutionReport, BackendError>;

    /// Runs a complete `trace`, producing the unified report — a batch
    /// loop over the streaming path above.
    ///
    /// # Errors
    ///
    /// Backend-specific; see [`BackendError`].
    fn execute(&mut self, trace: &LoadTrace) -> Result<ExecutionReport, BackendError> {
        self.begin_stream()?;
        for &n in &trace.task_counts(self.runtime_config().max_tasks) {
            self.step_slice(n)?;
        }
        self.finish_stream()
    }
}

/// The closed-form backend: wraps [`Processor`] (and through it the
/// [`crate::CostModel`] and placement optimizer).
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    processor: Processor,
    /// The open streaming run, if any.
    run: Option<AnalyticRun>,
}

impl AnalyticBackend {
    /// Builds the backend with default calibration, the architecture's
    /// Table I policy and a private placement store
    /// ([`Processor::new`]).
    ///
    /// # Errors
    ///
    /// Fails if the model's weights do not fit the architecture.
    pub fn new(arch: Architecture, model: TinyMlModel) -> Result<Self, BackendError> {
        Ok(AnalyticBackend {
            processor: Processor::new(arch, model)?,
            run: None,
        })
    }

    /// Wraps an already-built processor.
    pub fn from_processor(processor: Processor) -> Self {
        AnalyticBackend {
            processor,
            run: None,
        }
    }

    /// The wrapped processor.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }
}

impl ExecutionBackend for AnalyticBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Analytic
    }

    fn architecture(&self) -> Architecture {
        self.processor.arch().arch
    }

    fn runtime_config(&self) -> &RuntimeConfig {
        self.processor.runtime()
    }

    fn begin_stream(&mut self) -> Result<(), BackendError> {
        self.run = Some(self.processor.begin_run());
        Ok(())
    }

    fn step_slice(&mut self, n_tasks: u32) -> Result<SliceOutcome, BackendError> {
        if self.run.is_none() {
            self.run = Some(self.processor.begin_run());
        }
        let run = self.run.as_mut().expect("stream opened above");
        self.processor.step_run(run, n_tasks)
    }

    fn finish_stream(&mut self) -> Result<ExecutionReport, BackendError> {
        let run = self
            .run
            .take()
            .unwrap_or_else(|| self.processor.begin_run());
        Ok(self.processor.finish_run(run))
    }
}

/// The structural backend: executes whole multi-layer programs on the
/// [`PimMachine`], slice by slice, by replaying each placement's
/// lowered [`TimeGraph`].
///
/// Every inference task runs the model's complete PIM layer stack
/// (lowered once into a [`CompiledProgram`]): convolutions and wide
/// linears as traffic-accurate MAC streams split across storage spaces
/// according to the placement in effect, and the narrow classifier
/// head as bit-exact INT8 MAC bursts. On architectures with the
/// paper's dynamic placement policy the backend replays the runtime's
/// re-placement step at every queue-length change — it consults the
/// same [`crate::AllocationLut`] the analytic runtime built, meters the
/// weight-migration traffic between HP/LP modules and MRAM/SRAM banks
/// as timed bank accesses on the machine (no migrated byte is ever
/// read, so none is copied), and reports that traffic under
/// [`EnergyCat::Movement`] with one [`MigrationRecord`] per event.
///
/// Bank gating mirrors the architecture's [`GatingPolicy`]: under
/// `BankLevel`, MRAM banks and idle PEs power down between the busy
/// window and the next slice, SRAM banks holding weights stay on, and
/// weight-free SRAM act buffers are only powered while computing —
/// the same accounting the analytic runtime applies in closed form.
///
/// All reported times and energies are calibrated by the cost model's
/// `time_scale` (the knob that maps ASIC-scale access latencies onto
/// the paper's measured FPGA wall clock), so reports compare directly
/// against [`AnalyticBackend`] — including total energy, which the
/// parity suite bounds within a stated relative error.
#[derive(Debug)]
pub struct CycleBackend {
    arch: Architecture,
    machine: PimMachine,
    processor: Processor,
    program: CompiledProgram,
    input: Vec<i8>,
    placement: Placement,
    head_home: WeightHome,
    head_modules: Vec<usize>,
    time_scale: f64,
    /// The open streaming run, if any.
    run: Option<CycleRun>,
    mode: ExecMode,
    graph: TimeGraph,
}

/// How [`CycleBackend`] executes the per-task instruction stream.
///
/// Both modes drive the same [`PimMachine`] through arithmetically
/// identical operations and produce **bit-identical**
/// [`ExecutionReport`]s; the equivalence suite in
/// [`crate::timegraph`] keeps the object walk alive as the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Replay the flat, arena-allocated [`TimeGraph`] (the fast path;
    /// programs are lowered once per placement and reused).
    #[default]
    TimingGraph,
    /// Interpret the object hierarchy per task (the original path;
    /// kept as the property-test oracle).
    ObjectWalk,
}

fn mem_select(kind: MemKind) -> MemSelect {
    match kind {
        MemKind::Mram => MemSelect::Mram,
        MemKind::Sram => MemSelect::Sram,
    }
}

/// Seed of the weight stream the bit-exact head's weights are drawn
/// from.
const HEAD_WEIGHT_SEED: u64 = 0xDAC;

impl CycleBackend {
    /// Builds the backend: shapes the machine after the architecture's
    /// Table I row, lowers every PIM layer of the model into a
    /// [`CompiledProgram`], and adopts the analytic runtime's slice
    /// timing and allocation LUT so deadlines and placements mean the
    /// same thing on both backends. Only the classifier head executes
    /// bit-exactly, so only its weights are drawn (see
    /// [`CycleBackend::from_processor`]). Calibration, policy and
    /// placement store are [`Processor::new`]'s defaults.
    ///
    /// # Errors
    ///
    /// Fails if the model does not fit the architecture or has no
    /// machine-executable layer.
    pub fn new(arch: Architecture, model: TinyMlModel) -> Result<Self, BackendError> {
        let processor = Processor::new(arch, model)?;
        Self::from_processor(processor, model)
    }

    /// Builds the backend around an already-constructed analytic twin
    /// (the session builder's entry point: the processor carries the
    /// calibration, optimizer settings and placement policy).
    ///
    /// The program is compiled from the model descriptor plus the
    /// head's weights, drawn with [`LayerWeights::random`] at seed
    /// `0xDAC`: the bytes a fully materialized random network at that
    /// seed gives its head, without drawing the layers that run as MAC
    /// schedules.
    ///
    /// # Errors
    ///
    /// Fails if the model cannot be lowered onto the machine.
    pub fn from_processor(processor: Processor, model: TinyMlModel) -> Result<Self, BackendError> {
        let arch = processor.arch().arch;
        let params = *processor.cost().params();
        let spec = arch.spec();
        // Reserve the same per-module SRAM activation region the
        // analytic cost model assumes.
        let act_base = spec
            .sram_per_module
            .saturating_sub(params.act_reserve_per_module);
        let machine = PimMachine::new(MachineConfig {
            hp_modules: spec.hp_modules,
            lp_modules: spec.lp_modules,
            module: ModuleConfig {
                mram_bytes: spec.mram_per_module,
                sram_bytes: spec.sram_per_module,
                act_base,
            },
            ..MachineConfig::default()
        });

        let net = model.build();
        let program = compile_model(&net, processor.cost().profile().pim_macs, |head| {
            LayerWeights::random(&net, head, HEAD_WEIGHT_SEED)
        })
        .map_err(|e| match e {
            CompileError::NotLinear { .. } => BackendError::NoPimLayer { model },
            other => BackendError::Compile(other),
        })?;
        // A fixed, value-diverse activation vector for the head; the
        // machine's timing/energy is data-independent, so any input
        // serves.
        let input: Vec<i8> = program
            .head()
            .map(|h| {
                (0..h.in_features())
                    .map(|i| ((i * 37 + 11) % 256) as u8 as i8)
                    .collect()
            })
            .unwrap_or_default();
        let initial = processor.boot_placement();

        let mut backend = CycleBackend {
            arch,
            machine,
            processor,
            program,
            input,
            placement: initial,
            head_home: WeightHome::Sram,
            head_modules: Vec::new(),
            time_scale: params.time_scale,
            run: None,
            mode: ExecMode::default(),
            graph: TimeGraph::new(),
        };
        backend.refresh_head()?;
        backend.enter_idle()?;
        Ok(backend)
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &PimMachine {
        &self.machine
    }

    /// How tasks are executed (timing-graph replay by default).
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Selects the execution path. Both paths are bit-identical; the
    /// object walk exists as the equivalence oracle and for debugging.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// The lowered timing graph (for inspection/benchmarks).
    pub fn timegraph(&self) -> &TimeGraph {
        &self.graph
    }

    /// Pre-lowers the timing-graph program for the placement currently
    /// realized on the machine, returning the cached program count.
    /// Lets benchmarks measure graph construction in isolation.
    pub fn prepare_graph(&mut self) -> usize {
        let mut graph = std::mem::take(&mut self.graph);
        graph.ensure_program(
            &self.machine,
            self.processor.arch(),
            &self.program,
            &self.placement,
            &self.head_modules,
            self.head_home,
            &self.input,
        );
        let count = graph.program_count();
        self.graph = graph;
        count
    }

    /// Drops every cached timing-graph program (for benchmarks).
    pub fn clear_graph(&mut self) {
        self.graph.clear();
    }

    /// The analytic twin providing slice timing, cost model and LUT.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// The lowered program executed once per task.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Where the bit-exact head currently lives.
    pub fn weight_home(&self) -> WeightHome {
        self.head_home
    }

    /// The placement currently realized on the machine.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The slice duration adopted from the analytic runtime.
    pub fn slice_duration(&self) -> SimDuration {
        self.processor.runtime().slice_duration
    }

    /// Migrates the machine to `target` outside any trace, returning
    /// the migration's measured traffic (calibrated units). Useful for
    /// probing re-placement costs in isolation; during `execute` the
    /// backend migrates on its own at slice boundaries.
    ///
    /// # Errors
    ///
    /// Fails if `target` is invalid for the architecture or the
    /// machine rejects the traffic.
    pub fn migrate_to(&mut self, target: Placement) -> Result<MigrationRecord, BackendError> {
        if !self.processor.cost().is_valid(&target) {
            return Err(BackendError::InvalidPlacement { placement: target });
        }
        self.wake_for(self.placement, target)?;
        let mut scratch = EnergyLedger::new();
        let record = self.migrate(0, target, &mut scratch)?;
        self.enter_idle()?;
        Ok(record)
    }

    fn placement_for(&self, n_tasks: u32) -> Placement {
        self.processor.placement_for_tasks(n_tasks)
    }

    fn gating_enabled(&self) -> bool {
        self.processor.arch().gating == GatingPolicy::BankLevel
    }

    fn cluster_modules(&self, cluster: ClusterClass) -> Range<usize> {
        let spec = self.processor.arch();
        match cluster {
            ClusterClass::HighPerformance => 0..spec.hp_modules,
            ClusterClass::LowPower => spec.hp_modules..spec.hp_modules + spec.lp_modules,
        }
    }

    /// The head follows the bulk of the weights: it stays in SRAM while
    /// any SRAM space is occupied (those banks are powered anyway) and
    /// retreats into non-volatile MRAM when the placement is MRAM-only,
    /// so idle gating never strands it in a dark bank.
    fn head_home_for(&self, placement: &Placement) -> WeightHome {
        let sram = placement.get(StorageSpace::HpSram) + placement.get(StorageSpace::LpSram);
        if sram > 0 {
            WeightHome::Sram
        } else {
            WeightHome::Mram
        }
    }

    /// Recomputes the head's residency for the current placement and
    /// re-installs its rows (the runtime's data allocator re-homes the
    /// whole network; the ~1 kB head rides along with the bulk
    /// migration whose traffic is metered separately). The head spans
    /// the modules of every cluster the placement keeps busy, or the
    /// whole machine if none is.
    fn refresh_head(&mut self) -> Result<(), BackendError> {
        self.head_modules.clear();
        for class in ClusterClass::ALL {
            if self.placement.cluster_total(class) > 0 {
                let modules = self.cluster_modules(class);
                self.head_modules.extend(modules);
            }
        }
        if self.head_modules.is_empty() {
            self.head_modules.extend(0..self.machine.module_count());
        }
        self.head_home = self.head_home_for(&self.placement);
        if let Some(head) = self.program.head() {
            head.install(&mut self.machine, &self.head_modules, self.head_home)
                .map_err(BackendError::Compile)?;
        }
        Ok(())
    }

    fn module_err(global: usize, error: hhpim_pim::ModuleError) -> BackendError {
        BackendError::Machine(MachineError::Module {
            module: global,
            error,
        })
    }

    /// Powers up everything the coming busy window needs: banks and PEs
    /// of every cluster occupied by either placement (migration legs
    /// only ever touch those).
    fn wake_for(&mut self, from: Placement, to: Placement) -> Result<(), BackendError> {
        if !self.gating_enabled() {
            return Ok(());
        }
        let now = self.machine.now();
        for class in ClusterClass::ALL {
            if from.cluster_total(class) == 0 && to.cluster_total(class) == 0 {
                continue;
            }
            for g in self.cluster_modules(class) {
                if self.machine.module(g).has_mram() {
                    self.machine
                        .module_mut(g)
                        .set_gated(now, MemSelect::Mram, false)
                        .map_err(|e| Self::module_err(g, e))?;
                }
                self.machine
                    .module_mut(g)
                    .set_gated(now, MemSelect::Sram, false)
                    .map_err(|e| Self::module_err(g, e))?;
                self.machine.module_mut(g).set_pe_powered(now, true);
            }
        }
        Ok(())
    }

    /// Applies the architecture's idle gating: MRAM banks and PEs power
    /// down, SRAM banks without resident weights release their buffers
    /// and gate; SRAM weight banks stay on (volatile retention), as the
    /// analytic runtime charges them.
    fn enter_idle(&mut self) -> Result<(), BackendError> {
        if !self.gating_enabled() {
            return Ok(());
        }
        let now = self.machine.now();
        for class in ClusterClass::ALL {
            let modules = self.cluster_modules(class);
            if modules.is_empty() {
                continue;
            }
            let sram_space = StorageSpace::of_cluster(class)[1];
            let weight_banks = self.placement.get(sram_space).min(modules.len());
            for (local, g) in modules.enumerate() {
                if self.machine.module(g).has_mram() {
                    self.machine
                        .module_mut(g)
                        .set_gated(now, MemSelect::Mram, true)
                        .map_err(|e| Self::module_err(g, e))?;
                }
                if local >= weight_banks {
                    let live = self.machine.module(g).bank(MemSelect::Sram).live_bytes();
                    if live > 0 {
                        self.machine
                            .module_mut(g)
                            .free_bytes(MemSelect::Sram, live)
                            .map_err(|e| Self::module_err(g, e))?;
                    }
                    self.machine
                        .module_mut(g)
                        .set_gated(now, MemSelect::Sram, true)
                        .map_err(|e| Self::module_err(g, e))?;
                }
                self.machine.module_mut(g).set_pe_powered(now, false);
            }
        }
        Ok(())
    }

    /// Adopts `target` without traffic (the analytic runtime's first
    /// slice is likewise free), refreshing head residency and gating.
    fn apply_placement_free(&mut self, target: Placement) -> Result<(), BackendError> {
        self.placement = target;
        self.refresh_head()?;
        self.enter_idle()
    }

    /// Executes the weight migration from the current placement to
    /// `target` on the machine and accounts its dynamic traffic into
    /// `migration_dyn` (reclassified as [`EnergyCat::Movement`] at
    /// report time).
    fn migrate(
        &mut self,
        slice: usize,
        target: Placement,
        migration_dyn: &mut EnergyLedger<hhpim_pim::EnergyCat>,
    ) -> Result<MigrationRecord, BackendError> {
        let from = self.placement;
        let start = self.machine.now();
        let before = self.machine.probe().mem_dynamic;
        let group = self.processor.cost().params().group_size;
        let mut groups = 0usize;
        for leg in movement_legs(&from, &target) {
            groups += leg.groups;
            self.transfer_leg(leg, leg.groups * group)?;
        }
        self.machine.execute(PimInstruction::Barrier)?;
        let after = self.machine.probe().mem_dynamic;
        // Walk the categories in the machine ledger's key order (HP
        // before LP, SRAM before MRAM), so the sum matches a ledger walk.
        let mut moved_energy = Energy::ZERO;
        for (ci, class) in ClusterClass::ALL.into_iter().enumerate() {
            for (ki, kind) in [(0, MemKind::Sram), (1, MemKind::Mram)] {
                let delta = after[ci][ki].saturating_sub(before[ci][ki]);
                if delta.as_pj() > 0.0 {
                    migration_dyn.add(hhpim_pim::EnergyCat::MemDynamic(class, kind), delta);
                    moved_energy += delta;
                }
            }
        }
        self.placement = target;
        self.refresh_head()?;
        Ok(MigrationRecord {
            slice,
            from,
            to: target,
            groups,
            bytes: groups * group,
            time: self
                .machine
                .now()
                .saturating_since(start)
                .mul_f64(self.time_scale),
            energy: moved_energy * self.time_scale,
        })
    }

    /// Meters `bytes` of one migration leg: lanes pair source and
    /// destination modules (one group stream per module pair, exactly
    /// the parallelism the analytic movement model assumes), and each
    /// chunk is a read burst on the source bank followed by a write
    /// burst on the destination bank — the module interface's
    /// MRAM↔SRAM path within a module, the Data Allocator's MEM
    /// interface across clusters. No byte moves: the head is
    /// re-installed right after ([`Self::refresh_head`]) and no other
    /// migrated byte is ever read.
    fn transfer_leg(&mut self, leg: MovementLeg, bytes: usize) -> Result<(), BackendError> {
        let src_mods = self.cluster_modules(leg.src.cluster());
        let dst_mods = self.cluster_modules(leg.dst.cluster());
        if src_mods.is_empty() || dst_mods.is_empty() {
            return Ok(());
        }
        let src_mem = mem_select(leg.src.kind());
        let dst_mem = mem_select(leg.dst.kind());
        let cfg = self.machine.config().module;
        let region = |kind: MemKind| match kind {
            MemKind::Mram => cfg.mram_bytes,
            MemKind::Sram => cfg.act_base,
        };
        let chunk_max = 1.max(
            region(leg.src.kind())
                .min(region(leg.dst.kind()))
                .min(16 * 1024),
        );
        let lanes = src_mods.len();
        let base = bytes / lanes;
        let rem = bytes % lanes;
        let at = self.machine.now();
        for (i, src_g) in src_mods.enumerate() {
            let dst_g = dst_mods.start + i % dst_mods.len();
            let mut remaining = base + usize::from(i < rem);
            while remaining > 0 {
                let chunk = remaining.min(chunk_max);
                let read_done = self
                    .machine
                    .module_mut(src_g)
                    .access(at, src_mem, AccessKind::Read, 0, chunk)
                    .map_err(|e| Self::module_err(src_g, e))?;
                self.machine
                    .module_mut(dst_g)
                    .access(read_done, dst_mem, AccessKind::Write, 0, chunk)
                    .map_err(|e| Self::module_err(dst_g, e))?;
                remaining -= chunk;
            }
        }
        Ok(())
    }

    /// Executes one inference task: every schedule layer splits across
    /// the occupied spaces by group share and streams on that cluster's
    /// modules in parallel; the head runs bit-exactly; a barrier closes
    /// each layer (layers depend on their predecessor's outputs).
    #[allow(clippy::too_many_arguments)]
    fn run_task(
        machine: &mut PimMachine,
        program: &CompiledProgram,
        placement: &Placement,
        head_modules: &[usize],
        head_home: WeightHome,
        input: &[i8],
        spec: &crate::arch::ArchSpec,
        accs: &mut [LayerAcc],
    ) -> Result<(), BackendError> {
        let k = placement.total().max(1);
        let mut probe = machine.report();
        for (i, layer) in program.layers().iter().enumerate() {
            let t0 = machine.now();
            match &layer.op {
                LayerOp::Schedule { macs_per_task } => {
                    for (space, groups) in placement.occupied() {
                        let cluster = space.cluster();
                        let modules = spec.modules_in(cluster);
                        if modules == 0 {
                            continue;
                        }
                        let share = *macs_per_task as f64 * groups as f64 / k as f64;
                        let per_module = (share / modules as f64).ceil() as usize;
                        if per_module == 0 {
                            continue;
                        }
                        let lo = match cluster {
                            ClusterClass::HighPerformance => 0,
                            ClusterClass::LowPower => spec.hp_modules,
                        };
                        let mask = ModuleMask::range(lo as u8, (lo + modules - 1) as u8);
                        machine.mac_stream(mask, mem_select(space.kind()), 0, per_module)?;
                    }
                }
                LayerOp::Head(plan) => {
                    plan.run(machine, head_modules, head_home, input)
                        .map_err(BackendError::Compile)?;
                }
            }
            machine.execute(PimInstruction::Barrier)?;
            let done = machine.report();
            accs[i].macs += done.macs - probe.macs;
            accs[i].time += machine.now().saturating_since(t0);
            accs[i].energy_pj += done.total_energy().as_pj() - probe.total_energy().as_pj();
            probe = done;
        }
        Ok(())
    }

    /// Runs the slice's tasks over the timing graph: look up (or lower)
    /// the current placement's node program, seed the barrier horizon
    /// from the machine's live completion state, then replay the arena
    /// once per task.
    fn replay_tasks(&mut self, run: &mut CycleRun, n_tasks: u32) -> Result<(), BackendError> {
        let mut graph = std::mem::take(&mut self.graph);
        let result = (|| {
            let prog = graph.ensure_program(
                &self.machine,
                self.processor.arch(),
                &self.program,
                &self.placement,
                &self.head_modules,
                self.head_home,
                &self.input,
            );
            graph.seed(&self.machine);
            for _ in 0..n_tasks {
                graph.replay_task(&mut self.machine, prog, &mut run.accs)?;
            }
            Ok(())
        })();
        self.graph = graph;
        result
    }

    /// One slice on the machine: re-place if the queue length changed,
    /// run the tasks, then gate down for the idle remainder. Appends the
    /// slice's record and migration to the run and returns them.
    fn do_slice(
        &mut self,
        run: &mut CycleRun,
        event_now: SimTime,
        slice: usize,
        n_tasks: u32,
    ) -> Result<(SliceRecord, Option<MigrationRecord>), BackendError> {
        // Work may overrun a slice; the backlog then delays the next
        // slice's start, exactly like a busy port.
        let slice_start = event_now.max(self.machine.now());
        self.machine.idle_until(slice_start);

        let target = self.placement_for(n_tasks);
        self.wake_for(self.placement, target)?;
        let migration = if target != self.placement {
            Some(self.migrate(slice, target, &mut run.migration_dyn)?)
        } else {
            // Idle gating may have powered down volatile SRAM banks
            // that carried head rows (their contents are physically
            // lost in gated SRAM); the host re-pushes the ~1 kB head
            // after wake-up, as it would on real silicon. Migrated
            // slices get this via migrate() → refresh_head().
            if self.gating_enabled() {
                self.refresh_head()?;
            }
            None
        };
        let movement_native = self.machine.now().saturating_since(slice_start);

        let busy_start = self.machine.now();
        match self.mode {
            ExecMode::TimingGraph => self.replay_tasks(run, n_tasks)?,
            ExecMode::ObjectWalk => {
                for _ in 0..n_tasks {
                    Self::run_task(
                        &mut self.machine,
                        &self.program,
                        &self.placement,
                        &self.head_modules,
                        self.head_home,
                        &self.input,
                        self.processor.arch(),
                        &mut run.accs,
                    )?;
                }
            }
        }
        let busy = self.machine.now().saturating_since(busy_start);
        // Statics accrue across the idle remainder of the slice under
        // the architecture's gating policy.
        self.enter_idle()?;
        self.machine.idle_until(event_now + run.native_slice);

        let scale = self.time_scale;
        let slice_duration = self.processor.runtime().slice_duration;
        let movement_time = movement_native.mul_f64(scale);
        let usable = slice_duration.saturating_sub(movement_time);
        let n = n_tasks.max(1) as u64;
        let t_constraint = usable / n;
        let task_time = busy.mul_f64(scale) / n;
        let total = self.machine.probe().total;
        let record = SliceRecord {
            slice,
            n_tasks,
            placement: Some(self.placement),
            t_constraint,
            task_time,
            movement_time,
            groups_moved: migration.as_ref().map_or(0, |m| m.groups),
            deadline_met: task_time <= t_constraint,
            energy: total.saturating_sub(run.prev_total) * scale,
        };
        run.prev_total = total;
        run.records.push(record.clone());
        if let Some(m) = &migration {
            run.migrations.push(m.clone());
        }
        Ok((record, migration))
    }

    /// One streaming step: boot on the first slice (its placement is
    /// adopted for free, mirroring the analytic runtime), execute the
    /// slice at its nominal start time, and package its record and
    /// re-placement for the engine.
    fn step_cycle(
        &mut self,
        run: &mut CycleRun,
        n_tasks: u32,
    ) -> Result<SliceOutcome, BackendError> {
        // The same instant the former event loop scheduled this slice
        // at: nominal starts on the native timeline, back-to-back. The
        // slice's end on both timelines is checked before anything runs.
        self.processor.runtime().slice_end(run.slice)?;
        let slice_end = run
            .native_slice
            .checked_mul(run.slice as u64 + 1)
            .and_then(|t| run.start_now.checked_add(t))
            .ok_or(BackendError::TimeOverflow { slice: run.slice })?;
        if !run.booted {
            self.apply_placement_free(self.placement_for(n_tasks))?;
            run.booted = true;
        }
        let event_now = slice_end - run.native_slice;
        let (record, migration) = self.do_slice(run, event_now, run.slice, n_tasks)?;
        let busy = record.task_time.saturating_mul(n_tasks.max(1) as u64);
        let idle = self
            .processor
            .runtime()
            .slice_duration
            .saturating_sub(busy.saturating_add(record.movement_time));
        run.slice += 1;
        Ok(SliceOutcome {
            record,
            migration,
            idle,
        })
    }
}

impl ExecutionBackend for CycleBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cycle
    }

    fn architecture(&self) -> Architecture {
        self.arch
    }

    fn runtime_config(&self) -> &RuntimeConfig {
        self.processor.runtime()
    }

    fn begin_stream(&mut self) -> Result<(), BackendError> {
        let scale = self.time_scale;
        let start_now = self.machine.now();
        let start_report = self.machine.report();
        self.run = Some(CycleRun {
            records: Vec::new(),
            migrations: Vec::new(),
            accs: vec![LayerAcc::default(); self.program.layers().len()],
            migration_dyn: EnergyLedger::new(),
            prev_total: start_report.total_energy(),
            start_now,
            start_report,
            // The machine runs in native (uncalibrated) time; slices
            // are paced at the calibrated duration divided back down so
            // the two timelines describe the same physical slice.
            native_slice: self.processor.runtime().slice_duration.mul_f64(1.0 / scale),
            booted: false,
            slice: 0,
        });
        Ok(())
    }

    fn step_slice(&mut self, n_tasks: u32) -> Result<SliceOutcome, BackendError> {
        if self.run.is_none() {
            self.begin_stream()?;
        }
        let mut run = self.run.take().expect("stream opened above");
        let result = self.step_cycle(&mut run, n_tasks);
        self.run = Some(run);
        result
    }

    fn finish_stream(&mut self) -> Result<ExecutionReport, BackendError> {
        if self.run.is_none() {
            self.begin_stream()?;
        }
        let run = self.run.take().expect("stream opened above");
        let scale = self.time_scale;

        // Report only this stream's share: previous runs on the same
        // machine already accounted for their energy. Dynamic traffic
        // spent inside migrations is reclassified from its per-bank
        // category into the shared Movement category.
        let run_report = self.machine.report();
        let mut energy = EnergyLedger::new();
        for (&cat, e) in run_report.energy.iter() {
            let mut delta = e.saturating_sub(run.start_report.energy.get(cat));
            if matches!(cat, hhpim_pim::EnergyCat::MemDynamic(..)) {
                delta = delta.saturating_sub(run.migration_dyn.get(cat));
            }
            if delta.as_pj() > 0.0 {
                energy.add(unify_machine_cat(cat), delta * scale);
            }
        }
        let moved = run.migration_dyn.total();
        if moved.as_pj() > 0.0 {
            energy.add(EnergyCat::Movement, moved * scale);
        }
        let layers = self
            .program
            .layers()
            .iter()
            .zip(&run.accs)
            .map(|(l, a)| LayerRecord {
                layer: l.layer,
                label: l.label.clone(),
                macs: a.macs,
                time: a.time.mul_f64(scale),
                energy: Energy::from_pj(a.energy_pj * scale),
            })
            .collect();
        let deadline_misses = run.records.iter().filter(|r| !r.deadline_met).count();
        Ok(ExecutionReport {
            backend: BackendKind::Cycle,
            arch: self.arch,
            records: run.records,
            layers,
            migrations: run.migrations,
            energy,
            // Stream-local, like the analytic backend's elapsed, so
            // reruns on the same machine stay comparable.
            elapsed: SimTime::ZERO
                + self
                    .machine
                    .now()
                    .saturating_since(run.start_now)
                    .mul_f64(scale),
            deadline_misses,
            instructions: run_report.instructions - run.start_report.instructions,
            macs: run_report.macs - run.start_report.macs,
        })
    }
}

/// Maps the machine's native categories into the shared vocabulary.
fn unify_machine_cat(cat: hhpim_pim::EnergyCat) -> EnergyCat {
    use hhpim_pim::EnergyCat as M;
    match cat {
        M::MemDynamic(c, k) => EnergyCat::MemDynamic(c, k),
        M::MemStatic(c, k) => EnergyCat::MemStatic(c, k),
        M::MemWake(c, k) => EnergyCat::MemWake(c, k),
        M::PeDynamic(c) => EnergyCat::PeDynamic(c),
        M::PeStatic(c) => EnergyCat::PeStatic(c),
        M::Controller(_) => EnergyCat::Controller,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{default_policy, CostParams, OptimizerConfig, PlacementStore};
    use hhpim_workload::{Scenario, ScenarioParams};

    /// Both backends stop with a typed error at the first slice that
    /// would end past the last `SimTime`, on the calibrated timeline
    /// or on the machine's native one.
    #[test]
    fn streams_past_the_last_simtime_are_typed_errors() {
        let (arch, model) = (Architecture::HhPim, TinyMlModel::MobileNetV2);
        // A time scale at which about 2.5 slices fit.
        let t0 = RuntimeConfig::reference(model, CostParams::default()).unwrap();
        let params = CostParams {
            time_scale: 9.14 * (u64::MAX as f64 / 2.5) / t0.slice_duration.as_ps() as f64,
            ..CostParams::default()
        };
        let (opt, store) = (OptimizerConfig::default(), PlacementStore::new());
        let p = Processor::with_policy_in(arch, model, params, opt, default_policy(arch), &store)
            .unwrap();
        let t = p.runtime().slice_duration;
        let fit = (u64::MAX / t.as_ps()) as usize;
        assert_eq!(fit, 2);
        // One task per slice, so only the slices' ends overflow.
        let trace = |slices| LoadTrace::replay(vec![0.1; slices]).unwrap();
        let overflow = BackendError::TimeOverflow { slice: fit };
        let report = p.run_trace(&trace(fit)).unwrap();
        assert_eq!(report.elapsed, SimTime::ZERO + t * fit as u64);
        assert_eq!(p.run_trace(&trace(fit + 1)).unwrap_err(), overflow);
        let mut analytic = AnalyticBackend::from_processor(p.clone());
        assert_eq!(analytic.execute(&trace(fit + 1)).unwrap_err(), overflow);
        // A slice of 1,000 tasks overflows the run's task time instead.
        analytic.begin_stream().unwrap();
        let err = analytic.step_slice(1_000).unwrap_err();
        assert_eq!(err, BackendError::TimeOverflow { slice: 0 });
        let mut cycle = CycleBackend::from_processor(p, model).unwrap();
        assert_eq!(cycle.execute(&trace(fit + 1)).unwrap_err(), overflow);
        // A machine clock one nanosecond short of the end.
        let mut cycle = CycleBackend::new(arch, model).unwrap();
        cycle
            .machine
            .idle_until(SimTime::MAX - SimDuration::from_ns(1));
        let err = cycle.step_slice(1).unwrap_err();
        assert_eq!(err, BackendError::TimeOverflow { slice: 0 });
    }

    fn small(scenario: Scenario) -> LoadTrace {
        LoadTrace::generate(
            scenario,
            ScenarioParams {
                slices: 5,
                ..ScenarioParams::default()
            },
        )
    }

    #[test]
    fn both_backends_share_report_shape() {
        let trace = small(Scenario::PeriodicSpike);
        let mut analytic =
            AnalyticBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
        let mut cycle = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
        let reports = [
            analytic.execute(&trace).unwrap(),
            cycle.execute(&trace).unwrap(),
        ];
        for r in &reports {
            assert_eq!(r.records.len(), 5);
            assert!(r.total_energy().as_pj() > 0.0);
            assert!(r.elapsed > SimTime::ZERO);
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.slice, i);
                assert!(rec.energy.as_pj() >= 0.0);
            }
        }
        assert_eq!(reports[0].backend, BackendKind::Analytic);
        assert_eq!(reports[1].backend, BackendKind::Cycle);
        assert_eq!(reports[0].deadline_misses, reports[1].deadline_misses);
    }

    #[test]
    fn cycle_backend_counts_real_work() {
        let trace = small(Scenario::HighConstant);
        let mut cycle = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
        let r = cycle.execute(&trace).unwrap();
        let tasks: u64 = r.records.iter().map(|rec| rec.n_tasks as u64).sum();
        assert!(
            r.macs >= tasks * 88,
            "88-feature head: {} macs for {tasks} tasks",
            r.macs
        );
        assert!(r.instructions > 0);
        assert!(
            r.energy
                .get(EnergyCat::PeDynamic(ClusterClass::HighPerformance))
                .as_pj()
                > 0.0
        );
    }

    #[test]
    fn cycle_backend_is_rerunnable_with_independent_reports() {
        let trace = small(Scenario::LowConstant);
        let mut cycle = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
        let a = cycle.execute(&trace).unwrap();
        let b = cycle.execute(&trace).unwrap();
        assert_eq!(a.records.len(), b.records.len());
        let (ea, eb) = (a.total_energy().as_pj(), b.total_energy().as_pj());
        assert!(
            (ea - eb).abs() / ea < 0.05,
            "re-run energy drifted: {ea} vs {eb}"
        );
        assert_eq!(a.macs, b.macs);
        // Elapsed is trace-local, not cumulative machine time.
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn all_architectures_run_on_the_cycle_machine() {
        let trace = small(Scenario::PeriodicSpike);
        for arch in Architecture::ALL {
            let mut cycle = CycleBackend::new(arch, TinyMlModel::MobileNetV2).unwrap();
            let r = cycle.execute(&trace).unwrap();
            assert_eq!(r.arch, arch);
            assert_eq!(r.deadline_misses, 0, "{arch}");
        }
    }

    #[test]
    fn hybrid_defaults_to_mram_home() {
        let cycle = CycleBackend::new(Architecture::Hybrid, TinyMlModel::MobileNetV2).unwrap();
        assert_eq!(cycle.weight_home(), WeightHome::Mram);
        let hh = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
        assert_eq!(hh.weight_home(), WeightHome::Sram);
    }

    #[test]
    fn trait_objects_run_both_backends() {
        let trace = small(Scenario::PeriodicSpike);
        let mut backends: Vec<Box<dyn ExecutionBackend>> = vec![
            Box::new(AnalyticBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap()),
            Box::new(CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap()),
        ];
        let mut kinds = Vec::new();
        for b in &mut backends {
            let r = b.execute(&trace).unwrap();
            assert_eq!(r.arch, Architecture::HhPim);
            kinds.push(r.backend);
        }
        assert_eq!(kinds, [BackendKind::Analytic, BackendKind::Cycle]);
    }
}
