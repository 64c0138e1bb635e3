//! # hhpim-workload — dynamic inference workloads
//!
//! Generators for the six benchmark scenarios of Fig. 4 (constant
//! low/high, periodic spikes, pulsing, random), whose per-slice task
//! counts ([`LoadTrace::task_counts`]) set the placement optimizer's
//! `t_constraint` (paper §III-A/§IV-A), and the [`traffic`] load
//! generators. It also holds [`json`], the reader every on-disk format
//! in the workspace shares.
//!
//! # Examples
//!
//! ```
//! use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
//! let trace = LoadTrace::generate(Scenario::PeriodicSpike, ScenarioParams::default());
//! let tasks = trace.task_counts(10); // ≤10 inferences per slice
//! assert_eq!(tasks.len(), 50);
//! assert_eq!(tasks[0], 10); // spike
//! assert_eq!(tasks[1], 2);  // low baseline
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod object_trace;
pub mod scenario;
pub mod traffic;

pub use object_trace::{object_loads, object_task_counts, ObjectStreamParams};
pub use scenario::{LoadTrace, Scenario, ScenarioParams, TraceError, TraceOrigin};
pub use traffic::{
    ArrivalProcess, BurstyOnOff, ConstantRate, Diurnal, LoadDistribution, LoadReport, Pacer,
    Poisson, RecordedArrival, RecordedTrace, ReplayTraffic, TraceRecorder, TrafficConfig,
    TrafficEngine, TrafficError, TRACE_FORMAT_VERSION,
};
