//! # hhpim — the HH-PIM architecture model and placement optimizer
//!
//! Reproduction of *HH-PIM: Dynamic Optimization of Power and
//! Performance with Heterogeneous-Hybrid PIM for Edge AI Devices*
//! (DAC 2025). This crate is the paper's primary contribution:
//!
//! * [`session`] — **the batch entry point**: [`SessionBuilder`]
//!   composes an architecture, model, trace source, placement policy
//!   and backends into a [`Session`] that runs, compares, or sweeps,
//! * [`engine`] — **the streaming entry point**: [`Engine`] accepts
//!   load slices online (`submit`/`step`/`drain`), emits a typed
//!   [`EngineEvent`] stream and backpressures through a bounded
//!   queue; the batch facade is a wrapper over it,
//! * [`server`] — **the serving entry point**: [`Server`] multiplexes
//!   N tenants (model + trace + [`QosClass`]) over per-tenant engines
//!   with pluggable [`AdmissionPolicy`] admission control and a
//!   deficit-round-robin scheduler,
//! * [`traffic`] — **load generation**: seeded stochastic
//!   [`ArrivalProcess`]es ([`Poisson`], [`BurstyOnOff`], [`Diurnal`],
//!   [`ConstantRate`]) driving sessions, engines and servers;
//!   record/replay with time warp ([`ReplayTraffic`]); and a
//!   wall-clock [`Pacer`] producing [`LoadReport`]s of sustained
//!   slices/sec and latency tails,
//! * [`timegraph`] — **the cycle backend's hot path**: [`TimeGraph`]
//!   lowers a compiled program + placement into a flat arena of
//!   pre-resolved nodes replayed bit-identically to the object walk
//!   (which stays on as the oracle behind
//!   [`backend::ExecMode::ObjectWalk`]),
//! * [`error`] — the facade [`enum@Error`]: one enum over every
//!   layer's failure modes, with `From` impls and source chaining,
//! * [`Architecture`] / [`ArchSpec`] — the four Table I processors
//!   (Baseline-, Heterogeneous-, Hybrid- and HH-PIM) with their gating
//!   and placement modes,
//! * [`policy`] — first-class [`PlacementPolicy`] objects:
//!   [`LutAdaptive`], [`FixedHome`], [`GreedyBaseline`],
//! * [`CostModel`] — per-space time/energy costs `t_i`, `e_i` derived
//!   from Tables III/V,
//! * [`PlacementOptimizer`] — Algorithms 1 & 2: per-cluster bottom-up
//!   DP plus cross-cluster combination, building an [`AllocationLut`],
//! * [`store`] — the [`PlacementStore`]: a thread-safe, memoized cache
//!   of built LUTs shared by a session's backends and sweep cells (or a
//!   server's tenants), so each distinct configuration pays the DP once
//!   per store,
//! * [`artifact`] — **persistence**: [`ArtifactStore`] adds a
//!   versioned, checksummed on-disk tier under the store (memory hit →
//!   disk hit → build-and-write-back, opt-in via
//!   [`SessionBuilder::artifact_dir`](session::SessionBuilder::artifact_dir)),
//! * [`Processor`] — the time-slice runtime with task buffering,
//!   movement-aware re-placement and per-category energy accounting.
//!
//! # Examples
//!
//! ```
//! use hhpim::session::SessionBuilder;
//! use hhpim::{Architecture, BackendKind};
//! use hhpim_nn::TinyMlModel;
//! use hhpim_workload::Scenario;
//!
//! let mut session = SessionBuilder::new()
//!     .architecture(Architecture::HhPim)
//!     .model(TinyMlModel::MobileNetV2)
//!     .scenario(Scenario::PeriodicSpike)
//!     .backend(BackendKind::Analytic)
//!     .build()
//!     .unwrap();
//! let artifacts = session.run().unwrap();
//! assert_eq!(artifacts.primary().records.len(), 50);
//! assert_eq!(artifacts.primary().deadline_misses, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod arch;
pub mod artifact;
pub mod backend;
pub mod compile;
pub mod cost;
pub mod dp;
pub mod engine;
pub mod error;
pub mod experiment;
pub mod policy;
pub mod runtime;
pub mod server;
pub mod session;
pub mod space;
pub mod store;
pub mod timegraph;
pub mod traffic;

pub use analysis::{
    inference_times, mram_only_fastest, peak_sram_split, placement_sweep, progression_summary,
    InferenceTimes, PlacementSweep, SweepPoint,
};
pub use arch::{ArchSpec, Architecture, GatingPolicy, PlacementMode};
pub use artifact::{
    lut_from_json, lut_to_json, ArtifactError, ArtifactStore, ARTIFACT_FORMAT_VERSION,
};
pub use backend::{
    AnalyticBackend, BackendError, BackendKind, CycleBackend, EnergyCat, ExecMode,
    ExecutionBackend, ExecutionReport, LayerRecord, MigrationRecord, SliceRecord,
};
pub use compile::{
    compile_model, lower_head, CompileError, CompiledLayer, CompiledProgram, HeadPlan, LayerOp,
    WeightHome,
};
pub use cost::{CostModel, CostModelError, CostParams, WorkloadProfile};
pub use dp::{AllocationLut, OptimalPlacement, OptimizerConfig, PlacementOptimizer};
pub use engine::{Engine, EngineError, EngineEvent, Observer, SliceOutcome, SubmitOutcome};
pub use error::{Error, Result};
pub use experiment::{SavingsCell, SavingsMatrix};
pub use policy::{default_policy, FixedHome, GreedyBaseline, LutAdaptive, PlacementPolicy};
pub use runtime::{Processor, RuntimeConfig};
pub use server::{
    AdmissionDecision, AdmissionPolicy, AlwaysAdmit, BatchCoalesce, QosClass, ServeReport, Server,
    ServerBuilder, ServerError, ServerEvent, ShedOnPressure, TenantId, TenantReport,
    TenantSnapshot, TenantSpec, TenantStats,
};
pub use session::{
    Comparison, ReplaySource, RunArtifacts, ScenarioSource, Session, SessionBuilder, SessionError,
    TraceSource,
};
pub use space::{movement_legs, MovementLeg, Placement, StorageSpace};
pub use store::{CacheStats, PlacementKey, PlacementStore};
pub use timegraph::TimeGraph;
pub use traffic::{
    record_slices, run_paced, serve_paced, ArrivalProcess, BurstyOnOff, ConstantRate, Diurnal,
    LoadDistribution, LoadReport, Pacer, Poisson, RecordedArrival, RecordedTrace, ReplayTraffic,
    TraceRecorder, TrafficConfig, TrafficEngine, TrafficError, TrafficSource, TRACE_FORMAT_VERSION,
};
