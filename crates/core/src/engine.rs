//! The streaming execution engine: slices in, events out.
//!
//! HH-PIM's core contribution is *online* adaptation — the runtime
//! consults the allocation LUT as queue depth changes and migrates
//! weights between HP-MPIM and LP-FPIM mid-flight — yet until this
//! module the public API was batch-only: a [`crate::TraceSource`] had
//! to hand over a complete finite [`LoadTrace`] and
//! [`crate::Session::run`] blocked until everything had executed.
//! [`Engine`] inverts that shape into an incremental submit/observe
//! loop:
//!
//! ```text
//!   submit(load) ──▶ bounded queue ──step()──▶ every backend's
//!        │                                     step_slice()
//!        ▼                                          │
//!   SubmitOutcome::Accepted | Deferred              ▼
//!                                    EngineEvent stream
//!                                      (iterator + Observers)
//!                                          │
//!                              drain() ──▶ Vec<ExecutionReport>
//! ```
//!
//! Both execution backends implement the resumable
//! [`ExecutionBackend::step_slice`] path, so the engine owns the
//! execution loop that used to be monolithic inside
//! `Processor::run_trace` and `CycleBackend::execute`. The loop takes
//! one queued load at a time, converts it into a task count and steps
//! every backend once, in order. The LUT lookup / re-placement
//! decision happens in that step behind the engine boundary; the
//! slice's [`SliceOutcome::migration`] carries it out, and the engine
//! surfaces it as [`EngineEvent::Replacement`] followed by
//! [`EngineEvent::Migration`]. The batch facade
//! ([`crate::Session::run`], `execute`) is now a loop over this API
//! and stays bit-identical to the former monolithic runs.
//!
//! Traces no longer need a known length: [`Engine::pump`] serves any
//! iterator of loads, an endless one included, and a caller bounds it
//! with `take`.
//!
//! # Examples
//!
//! Drive the analytic backend slice by slice and watch the events:
//!
//! ```
//! use hhpim::engine::{Engine, EngineEvent, SubmitOutcome};
//! use hhpim::session::SessionBuilder;
//!
//! let backend = SessionBuilder::new().build_analytic().unwrap();
//! let mut engine = Engine::new(backend);
//! for slice in 0..4 {
//!     let load = if slice % 2 == 0 { 1.0 } else { 0.1 };
//!     assert_eq!(engine.submit(load).unwrap(), SubmitOutcome::Accepted);
//!     engine.step().unwrap();
//! }
//! let reports = engine.drain().unwrap();
//! assert_eq!(reports[0].records.len(), 4);
//! let events: Vec<EngineEvent> = engine.events().collect();
//! assert!(events
//!     .iter()
//!     .any(|e| matches!(e, EngineEvent::SliceCompleted { .. })));
//! assert!(events
//!     .iter()
//!     .any(|e| matches!(e, EngineEvent::Replacement { .. })));
//! ```
//!
//! Serve an unbounded load stream in batches of ten slices:
//!
//! ```
//! use hhpim::engine::Engine;
//! use hhpim::session::SessionBuilder;
//!
//! let mut engine = Engine::new(SessionBuilder::new().build_analytic().unwrap());
//! let mut live = (0..).map(|slice| if slice % 7 == 0 { 0.9 } else { 0.2 });
//! engine.pump(live.by_ref().take(10)).unwrap();
//! engine.pump(live.by_ref().take(10)).unwrap(); // the stream has no end; keep going
//! assert_eq!(engine.slices_executed(), 20);
//! ```

use crate::backend::{
    BackendError, BackendKind, EnergyCat, ExecutionBackend, ExecutionReport, MigrationRecord,
    SliceRecord,
};
use crate::cost::CostParams;
use crate::space::{movement_legs, MovementLeg, Placement};
use hhpim_mem::{Energy, EnergyLedger};
use hhpim_pim::RunReport;
use hhpim_sim::{SimDuration, SimTime};
use hhpim_workload::LoadTrace;
use std::collections::VecDeque;
use std::fmt;

/// Loads a fresh engine will buffer before deferring submissions.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Pending events an [`Engine`] or a [`crate::Server`] keeps for its
/// `events()` iterator before the oldest are dropped (observers always
/// see every event at emission time). Override with
/// [`Engine::with_event_capacity`] or
/// [`crate::ServerBuilder::event_capacity`].
pub const DEFAULT_EVENT_CAPACITY: usize = 8192;

/// Whether [`Engine::submit`] enqueued the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SubmitOutcome {
    /// The load was enqueued and will execute on a later
    /// [`Engine::step`].
    Accepted,
    /// The bounded queue is full — the load was *not* enqueued. Step
    /// the engine (or [`Engine::drain`] it) and resubmit.
    Deferred,
}

impl SubmitOutcome {
    /// Whether the load was enqueued.
    pub fn is_accepted(self) -> bool {
        self == SubmitOutcome::Accepted
    }
}

/// One observation from the streaming run, tagged with the backend
/// that produced it. Per slice and backend, events are emitted in a
/// fixed order: [`EngineEvent::Replacement`] →
/// [`EngineEvent::Migration`] → [`EngineEvent::SliceCompleted`] →
/// [`EngineEvent::DeadlineMiss`] → [`EngineEvent::IdleAccrued`]
/// (absent stages are skipped); backends are visited in engine order.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineEvent {
    /// A slice finished executing on one backend.
    SliceCompleted {
        /// Backend that executed the slice.
        backend: BackendKind,
        /// The slice's full record (index, placement, timing, energy).
        record: SliceRecord,
    },
    /// The placement policy decided to re-place at a slice boundary —
    /// the LUT lookup (or greedy repair) behind the engine boundary.
    Replacement {
        /// Backend that made the move.
        backend: BackendKind,
        /// Slice whose start pays the movement.
        slice: usize,
        /// Placement before the move.
        from: Placement,
        /// Placement after the move.
        to: Placement,
        /// The deterministic movement plan both backends execute
        /// ([`movement_legs`] of `from` and `to`).
        legs: Vec<MovementLeg>,
    },
    /// The weight migration traffic realizing a replacement.
    Migration {
        /// Backend that moved the weights.
        backend: BackendKind,
        /// The migration's measured/modelled traffic.
        record: MigrationRecord,
    },
    /// A slice's tasks overran their per-task deadline.
    DeadlineMiss {
        /// Backend that missed.
        backend: BackendKind,
        /// The offending slice.
        slice: usize,
        /// Tasks the slice had to absorb.
        n_tasks: u32,
        /// Per-task latency achieved.
        task_time: SimDuration,
        /// Per-task budget after movement overhead.
        t_constraint: SimDuration,
    },
    /// Idle time accrued in a slice after movement and compute — the
    /// window bank-level gating converts into leakage savings.
    IdleAccrued {
        /// Backend that idled.
        backend: BackendKind,
        /// The slice in question.
        slice: usize,
        /// Idle share of the slice.
        idle: SimDuration,
    },
}

/// A callback receiving every event of an [`Engine`] (`E` =
/// [`EngineEvent`]) or a [`crate::Server`] (`E` =
/// [`crate::ServerEvent`]) at emission time, before it enters the
/// iterator buffer. Every `FnMut(&E)` closure is one.
pub trait Observer<E> {
    /// Called once per event, in emission order.
    fn on_event(&mut self, event: &E);
}

impl<E, F: FnMut(&E)> Observer<E> for F {
    fn on_event(&mut self, event: &E) {
        self(event)
    }
}

/// The event log an engine and a server each keep: every event goes to
/// the observers, then into a buffer for the `events()` iterator that
/// drops its oldest entry when full and counts the drop.
pub(crate) struct EventLog<E> {
    pub(crate) pending: VecDeque<E>,
    pub(crate) capacity: usize,
    pub(crate) dropped: u64,
    pub(crate) observers: Vec<Box<dyn Observer<E>>>,
}

impl<E> Default for EventLog<E> {
    fn default() -> Self {
        EventLog {
            pending: VecDeque::new(),
            capacity: DEFAULT_EVENT_CAPACITY,
            dropped: 0,
            observers: Vec::new(),
        }
    }
}

impl<E> EventLog<E> {
    pub(crate) fn emit(&mut self, event: E) {
        for observer in &mut self.observers {
            observer.on_event(&event);
        }
        if self.pending.len() >= self.capacity {
            self.pending.pop_front();
            self.dropped += 1;
        }
        self.pending.push_back(event);
    }
}

/// Errors surfaced while streaming slices through an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// A submitted load is not a finite value in `[0, 1]`.
    InvalidLoad {
        /// Index the slice would have had.
        slice: usize,
        /// The offending load.
        load: f64,
    },
    /// A backend failed mid-stream; the stream is poisoned — its
    /// queued loads and buffered events are discarded, and the next
    /// `step`/`drain` restarts every backend from slice 0.
    Backend {
        /// The failing backend.
        backend: BackendKind,
        /// Its error.
        error: BackendError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidLoad { slice, load } => {
                write!(f, "submitted load {load} for slice {slice} outside [0, 1]")
            }
            EngineError::Backend { backend, error } => {
                write!(f, "backend `{backend}` failed mid-stream: {error}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Backend { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// What one [`ExecutionBackend::step_slice`] call yields back to the
/// engine: the slice's record plus the re-placement that preceded it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SliceOutcome {
    /// The completed slice's record (also appended to the backend's
    /// final [`ExecutionReport`]).
    pub record: SliceRecord,
    /// The re-placement the policy made at the slice boundary and the
    /// traffic that realized it (`None` when the placement stayed, and
    /// on the free boot adoption). Its `from` and `to` are the two
    /// placements; the leg plan is [`movement_legs`] of them.
    pub migration: Option<MigrationRecord>,
    /// Idle time left in the slice after movement and compute.
    pub idle: SimDuration,
}

impl SliceOutcome {
    /// An outcome with no re-placement — the struct is
    /// `#[non_exhaustive]`, so out-of-crate [`ExecutionBackend`]
    /// implementations build outcomes through this constructor and
    /// [`SliceOutcome::with_migration`] instead of literal syntax.
    pub fn new(record: SliceRecord, idle: SimDuration) -> Self {
        SliceOutcome {
            record,
            migration: None,
            idle,
        }
    }

    /// Attaches the slice-boundary re-placement and its traffic.
    pub fn with_migration(mut self, record: MigrationRecord) -> Self {
        self.migration = Some(record);
        self
    }

    /// Expands the outcome of `slice` on `backend` into its events, in
    /// the order [`EngineEvent`] documents — the one place an outcome
    /// becomes events, for the engine's log and the server's alike.
    pub(crate) fn into_events(
        self,
        backend: BackendKind,
        slice: usize,
        n_tasks: u32,
        mut emit: impl FnMut(EngineEvent),
    ) {
        if let Some(record) = self.migration {
            let (from, to) = (record.from, record.to);
            emit(EngineEvent::Replacement {
                backend,
                slice,
                from,
                to,
                legs: movement_legs(&from, &to),
            });
            emit(EngineEvent::Migration { backend, record });
        }
        let missed = !self.record.deadline_met;
        let (task_time, t_constraint) = (self.record.task_time, self.record.t_constraint);
        emit(EngineEvent::SliceCompleted {
            backend,
            record: self.record,
        });
        if missed {
            emit(EngineEvent::DeadlineMiss {
                backend,
                slice,
                n_tasks,
                task_time,
                t_constraint,
            });
        }
        if self.idle > SimDuration::ZERO {
            emit(EngineEvent::IdleAccrued {
                backend,
                slice,
                idle: self.idle,
            });
        }
    }
}

/// The streaming, event-driven execution engine. See the
/// [module docs](self) for the API shape and examples.
///
/// An engine is reusable: after [`Engine::drain`] returns the reports
/// it resets to slice 0 and the next [`Engine::step`] opens a fresh
/// run on every backend (backends are rerunnable by contract).
pub struct Engine {
    backends: Vec<Box<dyn ExecutionBackend>>,
    max_tasks: u32,
    queue_capacity: usize,
    queue: VecDeque<f64>,
    next_slice: usize,
    started: bool,
    log: EventLog<EngineEvent>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("backends", &self.backend_kinds())
            .field("queued", &self.queue.len())
            .field("next_slice", &self.next_slice)
            .field("started", &self.started)
            .field("pending_events", &self.log.pending.len())
            .field("observers", &self.log.observers.len())
            .finish()
    }
}

impl Engine {
    /// An engine over one backend with the default queue capacity.
    pub fn new(backend: impl ExecutionBackend + 'static) -> Self {
        Self::from_backends(vec![Box::new(backend)])
    }

    /// An engine over several backends (every submitted slice executes
    /// on each of them, in order — the streaming analogue of
    /// [`crate::Session::compare`]). The per-slice task cap comes from
    /// the first backend's runtime configuration.
    pub fn from_backends(backends: Vec<Box<dyn ExecutionBackend>>) -> Self {
        let max_tasks = backends
            .first()
            .map(|b| b.runtime_config().max_tasks)
            .unwrap_or(CostParams::default().max_tasks_per_slice);
        Engine {
            backends,
            max_tasks,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            queue: VecDeque::new(),
            next_slice: 0,
            started: false,
            log: EventLog::default(),
        }
    }

    /// Sets the bounded queue's capacity (clamped to at least 1);
    /// submissions beyond it come back [`SubmitOutcome::Deferred`].
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the event-iterator buffer's capacity (clamped to at least
    /// 1; default [`DEFAULT_EVENT_CAPACITY`]). When the buffer is
    /// full the oldest pending event is dropped and
    /// [`Engine::events_dropped`] counts it; observers always see
    /// every event regardless.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.log.capacity = capacity.max(1);
        self
    }

    /// Registers an observer that receives every future event at
    /// emission time (events also remain iterable via
    /// [`Engine::events`]).
    ///
    /// Observer lifetime is an explicit contract: observers are bound
    /// to the *engine*, not to any one stream. They survive
    /// [`Engine::drain`] and the error poison path unchanged, so a
    /// metrics sink registered once keeps receiving events across
    /// every stream the engine serves. Detach them explicitly with
    /// [`Engine::clear_observers`].
    pub fn observe(&mut self, observer: impl Observer<EngineEvent> + 'static) {
        self.log.observers.push(Box::new(observer));
    }

    /// Detaches every registered observer (the other half of the
    /// [`Engine::observe`] lifetime contract: nothing else ever
    /// removes them).
    pub fn clear_observers(&mut self) {
        self.log.observers.clear();
    }

    /// Number of currently registered observers.
    pub fn observer_count(&self) -> usize {
        self.log.observers.len()
    }

    /// The configured backends' kinds, in execution order.
    pub fn backend_kinds(&self) -> Vec<BackendKind> {
        self.backends.iter().map(|b| b.kind()).collect()
    }

    /// The per-slice task cap used to convert loads to task counts.
    pub fn max_tasks(&self) -> u32 {
        self.max_tasks
    }

    /// Loads accepted but not yet executed.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Slices executed in the current stream (resets when
    /// [`Engine::drain`] closes it, or when a backend error poisons
    /// it).
    pub fn slices_executed(&self) -> usize {
        self.next_slice
    }

    /// Events dropped from the iterator buffer because nobody drained
    /// [`Engine::events`] (observers still saw them). The counter is
    /// per stream: [`Engine::drain`] and the error poison path reset
    /// it to zero along with the rest of the stream state, so a reused
    /// engine never reports a previous stream's losses.
    pub fn events_dropped(&self) -> u64 {
        self.log.dropped
    }

    /// Offers one load slice to the bounded queue.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] when `load` is not a finite value
    /// in `[0, 1]` (the same contract as [`LoadTrace::replay`]).
    pub fn submit(&mut self, load: f64) -> Result<SubmitOutcome, EngineError> {
        if !load.is_finite() || !(0.0..=1.0).contains(&load) {
            return Err(EngineError::InvalidLoad {
                slice: self.next_slice + self.queue.len(),
                load,
            });
        }
        if self.queue.len() >= self.queue_capacity {
            return Ok(SubmitOutcome::Deferred);
        }
        self.queue.push_back(load);
        Ok(SubmitOutcome::Accepted)
    }

    /// [`Engine::submit`] that makes room by stepping the engine when
    /// the queue is full — never returns [`SubmitOutcome::Deferred`].
    ///
    /// # Errors
    ///
    /// See [`Engine::submit`] and [`Engine::step`].
    pub fn submit_blocking(&mut self, load: f64) -> Result<(), EngineError> {
        loop {
            match self.submit(load)? {
                SubmitOutcome::Accepted => return Ok(()),
                // Make room by executing every queued slice.
                SubmitOutcome::Deferred => {
                    self.step_n(self.queue.len().max(1))?;
                }
            }
        }
    }

    /// Executes the oldest queued slice on every backend, emitting
    /// events. Returns the executed slice's index, or `None` when the
    /// queue is empty. The same as `step_n(1)`.
    ///
    /// # Errors
    ///
    /// See [`Engine::step_n`].
    pub fn step(&mut self) -> Result<Option<usize>, EngineError> {
        let slice = self.next_slice;
        Ok((self.step_n(1)? == 1).then_some(slice))
    }

    /// Executes up to `max_slices` queued slices, oldest first, emitting
    /// their events. Returns the number of slices executed (0 when the
    /// queue is empty).
    ///
    /// Each slice steps every backend once through
    /// [`ExecutionBackend::step_slice`], in engine order, so events
    /// come slice by slice and in backend order within a slice.
    ///
    /// # Errors
    ///
    /// [`EngineError::Backend`] when a backend fails. A failing
    /// `begin_stream` leaves the queue as it was. A failing step emits
    /// the events of everything that ran before it — the earlier slices
    /// and the failing slice on the backends ahead of the failing one —
    /// then poisons the stream: queued loads and buffered events are
    /// discarded and the next step restarts every backend at slice 0.
    pub fn step_n(&mut self, max_slices: usize) -> Result<usize, EngineError> {
        self.run_slices(max_slices, |log, backend, slice, n_tasks, outcome| {
            outcome.into_events(backend, slice, n_tasks, |event| log.emit(event));
        })
    }

    /// The engine's one stepping loop, behind [`Engine::step_n`] and
    /// the server's grants: executes up to `max_slices` queued slices
    /// and hands each backend's outcome of each slice to `sink` as
    /// `(log, backend, slice, n_tasks, outcome)` as soon as it exists;
    /// `log` is the engine's own, which `step_n` writes to. A failing
    /// step poisons the stream after everything before it was handed
    /// on.
    pub(crate) fn run_slices(
        &mut self,
        max_slices: usize,
        mut sink: impl FnMut(&mut EventLog<EngineEvent>, BackendKind, usize, u32, SliceOutcome),
    ) -> Result<usize, EngineError> {
        let mut executed = 0;
        while executed < max_slices {
            let Some(load) = self.queue.front().copied() else {
                break;
            };
            self.ensure_started()?;
            self.queue.pop_front();
            let n_tasks = LoadTrace::task_count_for(load, self.max_tasks);
            let slice = self.next_slice;
            for backend in &mut self.backends {
                match backend.step_slice(n_tasks) {
                    Ok(outcome) => sink(&mut self.log, backend.kind(), slice, n_tasks, outcome),
                    Err(error) => {
                        let backend = backend.kind();
                        // Poison: the aborted stream will never report,
                        // so its loads and events go, and the next step
                        // restarts every backend at slice 0.
                        self.started = false;
                        self.next_slice = 0;
                        self.queue.clear();
                        self.log.pending.clear();
                        self.log.dropped = 0;
                        return Err(EngineError::Backend { backend, error });
                    }
                }
            }
            self.next_slice += 1;
            executed += 1;
        }
        Ok(executed)
    }

    /// Executes every queued slice, closes the stream and returns one
    /// report per backend (builder order). The engine then resets to
    /// slice 0, ready for a fresh stream: the slice counter and the
    /// [`Engine::events_dropped`] counter restart at zero, while
    /// registered observers and any undrained [`Engine::events`]
    /// survive (see [`Engine::observe`] for the lifetime contract).
    ///
    /// # Errors
    ///
    /// See [`Engine::step_n`]; backend finalization errors surface as
    /// [`EngineError::Backend`].
    pub fn drain(&mut self) -> Result<Vec<ExecutionReport>, EngineError> {
        self.step_n(usize::MAX)?;
        // A zero-slice drain still opens a stream so there is one to
        // close; backends return an empty (but well-formed) report.
        self.ensure_started()?;
        let mut reports = Vec::with_capacity(self.backends.len());
        for backend in &mut self.backends {
            let kind = backend.kind();
            reports.push(
                backend
                    .finish_stream()
                    .map_err(|error| EngineError::Backend {
                        backend: kind,
                        error,
                    })?,
            );
        }
        self.started = false;
        self.next_slice = 0;
        self.log.dropped = 0;
        Ok(reports)
    }

    /// Serves `loads` until the iterator ends: submits each load with
    /// backpressure ([`Engine::submit_blocking`]), executes everything
    /// queued and leaves the queue empty. Returns the number of loads
    /// it pulled.
    ///
    /// An endless iterator is served until an error. To serve part of
    /// one, pass `feed.by_ref().take(n)`: it pulls exactly `n` loads,
    /// with no read-ahead, and the next pump continues where it
    /// stopped. A live [`crate::TrafficEngine`] is such a feed:
    ///
    /// ```
    /// use hhpim::session::SessionBuilder;
    /// use hhpim::{Engine, TrafficConfig, TrafficEngine};
    ///
    /// let mut engine = Engine::new(SessionBuilder::new().build_analytic().unwrap());
    /// let mut traffic = TrafficEngine::new(TrafficConfig::poisson(3.0));
    /// let executed = engine.pump(traffic.by_ref().take(25)).unwrap();
    /// assert_eq!(executed, 25);
    /// assert_eq!(traffic.position(), 25);
    /// ```
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidLoad`] when a load is not a finite value
    /// in `[0, 1]`; see [`Engine::step_n`] for backend failures.
    pub fn pump(&mut self, loads: impl IntoIterator<Item = f64>) -> Result<usize, EngineError> {
        let mut pulled = 0;
        for load in loads {
            self.submit_blocking(load)?;
            pulled += 1;
        }
        self.step_n(usize::MAX)?;
        Ok(pulled)
    }

    /// Drains the pending event buffer as an iterator (events already
    /// delivered to observers are not replayed).
    pub fn events(&mut self) -> std::collections::vec_deque::Drain<'_, EngineEvent> {
        self.log.pending.drain(..)
    }

    fn ensure_started(&mut self) -> Result<(), EngineError> {
        if self.started {
            return Ok(());
        }
        for backend in &mut self.backends {
            let kind = backend.kind();
            backend
                .begin_stream()
                .map_err(|error| EngineError::Backend {
                    backend: kind,
                    error,
                })?;
        }
        self.started = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Per-backend incremental run state. These structs hold everything the
// former monolithic run loops kept in local variables, so a run can
// pause between slices: the engine (or the batch facade's loop) owns
// *when* the next slice executes, the backend owns *how*.

/// Incremental state of one analytic streaming run (the locals of the
/// former `Processor::run_trace` loop).
#[derive(Debug, Clone)]
pub(crate) struct AnalyticRun {
    pub(crate) ledger: EnergyLedger<EnergyCat>,
    pub(crate) records: Vec<SliceRecord>,
    pub(crate) migrations: Vec<MigrationRecord>,
    /// Placement of the previous slice; `None` before the first slice
    /// (whose placement is adopted for free, as at boot).
    pub(crate) prev: Option<Placement>,
    pub(crate) task_seconds: SimDuration,
    pub(crate) dynamic: Energy,
    pub(crate) total_tasks: u64,
    pub(crate) slice: usize,
    /// Memoized policy decisions, indexed by task count (policies are
    /// pure in `n_tasks`, so one lookup per count is enough per run).
    pub(crate) placements: Vec<Option<Placement>>,
    /// Memoized slice evaluations keyed by `(from, n_tasks)` — the
    /// whole per-step cost-model computation collapses to replaying a
    /// small cached add-list once a transition has been seen.
    pub(crate) steps: Vec<crate::runtime::StepMemo>,
}

impl Default for AnalyticRun {
    fn default() -> Self {
        AnalyticRun {
            ledger: EnergyLedger::new(),
            records: Vec::new(),
            migrations: Vec::new(),
            prev: None,
            task_seconds: SimDuration::ZERO,
            dynamic: Energy::ZERO,
            total_tasks: 0,
            slice: 0,
            placements: Vec::new(),
            steps: Vec::new(),
        }
    }
}

/// Incremental state of one cycle-level streaming run (the locals and
/// sim-threaded state of the former `CycleBackend::execute`).
#[derive(Debug)]
pub(crate) struct CycleRun {
    pub(crate) records: Vec<SliceRecord>,
    pub(crate) migrations: Vec<MigrationRecord>,
    pub(crate) accs: Vec<LayerAcc>,
    pub(crate) migration_dyn: EnergyLedger<hhpim_pim::EnergyCat>,
    pub(crate) prev_total: Energy,
    pub(crate) start_now: SimTime,
    pub(crate) start_report: RunReport,
    pub(crate) native_slice: SimDuration,
    pub(crate) booted: bool,
    pub(crate) slice: usize,
}

/// Per-layer accumulator (native machine units, scaled at report
/// time).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LayerAcc {
    pub(crate) macs: u64,
    pub(crate) time: SimDuration,
    pub(crate) energy_pj: f64,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use hhpim_workload::{Scenario, ScenarioParams};

    fn analytic_engine() -> Engine {
        Engine::new(SessionBuilder::new().build_analytic().unwrap())
    }

    #[test]
    fn submit_step_drain_round_trip() {
        let mut engine = analytic_engine();
        for i in 0..5 {
            assert!(engine
                .submit(if i % 2 == 0 { 1.0 } else { 0.1 })
                .unwrap()
                .is_accepted());
        }
        assert_eq!(engine.pending(), 5);
        assert_eq!(engine.step().unwrap(), Some(0));
        assert_eq!(engine.pending(), 4);
        let reports = engine.drain().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].records.len(), 5);
        // Drained engines reset and can stream again.
        assert_eq!(engine.slices_executed(), 0);
        engine.submit(0.5).unwrap();
        let again = engine.drain().unwrap();
        assert_eq!(again[0].records.len(), 1);
    }

    #[test]
    fn bounded_queue_defers_and_recovers() {
        let mut engine = analytic_engine().with_queue_capacity(2);
        assert!(engine.submit(0.5).unwrap().is_accepted());
        assert!(engine.submit(0.5).unwrap().is_accepted());
        assert_eq!(engine.submit(0.5).unwrap(), SubmitOutcome::Deferred);
        assert_eq!(engine.pending(), 2, "deferred loads are not enqueued");
        engine.step().unwrap();
        assert!(engine.submit(0.5).unwrap().is_accepted());
        let reports = engine.drain().unwrap();
        assert_eq!(reports[0].records.len(), 3);
    }

    #[test]
    fn invalid_loads_are_typed_errors() {
        let mut engine = analytic_engine();
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                engine.submit(bad).unwrap_err(),
                EngineError::InvalidLoad { .. }
            ));
        }
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn events_follow_the_documented_order() {
        let mut engine = analytic_engine();
        // Low → high forces a replacement (and its migration) at the
        // second slice on HH-PIM's LUT policy.
        engine.submit(0.1).unwrap();
        engine.submit(1.0).unwrap();
        engine.drain().unwrap();
        let events: Vec<EngineEvent> = engine.events().collect();
        let kinds: Vec<&'static str> = events
            .iter()
            .map(|e| match e {
                EngineEvent::SliceCompleted { .. } => "slice",
                EngineEvent::Replacement { .. } => "replace",
                EngineEvent::Migration { .. } => "migrate",
                EngineEvent::DeadlineMiss { .. } => "miss",
                EngineEvent::IdleAccrued { .. } => "idle",
            })
            .collect();
        // Slice 0: boot adoption is free (no replacement), mostly idle.
        // Slice 1: replacement → migration → completion.
        assert_eq!(
            kinds,
            vec!["slice", "idle", "replace", "migrate", "slice", "idle"],
            "{events:#?}"
        );
        // Replacement and migration agree on the transition.
        let (from, to) = events
            .iter()
            .find_map(|e| match e {
                EngineEvent::Replacement { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .unwrap();
        let record = events
            .iter()
            .find_map(|e| match e {
                EngineEvent::Migration { record, .. } => Some(record.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!((record.from, record.to), (from, to));
        assert_eq!(record.slice, 1);
    }

    #[test]
    fn observers_see_every_event_in_order() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut engine = analytic_engine();
        engine.observe(move |event: &EngineEvent| {
            sink.lock().unwrap().push(event.clone());
        });
        engine.submit(0.3).unwrap();
        engine.submit(0.9).unwrap();
        engine.drain().unwrap();
        let buffered: Vec<EngineEvent> = engine.events().collect();
        assert_eq!(*seen.lock().unwrap(), buffered);
    }

    #[test]
    fn ingest_honors_backpressure_without_losing_slices() {
        let trace = LoadTrace::generate(
            Scenario::PeriodicSpike,
            ScenarioParams {
                slices: 10,
                ..ScenarioParams::default()
            },
        );
        let mut engine = analytic_engine().with_queue_capacity(3);
        assert_eq!(engine.pump(trace.loads().iter().copied()).unwrap(), 10);
        assert_eq!(engine.pending(), 0);
        let reports = engine.drain().unwrap();
        assert_eq!(reports[0].records.len(), 10);
    }

    /// An analytic backend that fails its first `begin_failures` stream
    /// openings and then every step at slice index `fail_on`, for
    /// exercising the engine's and the server's failure paths.
    #[derive(Debug)]
    pub(crate) struct FailingBackend {
        inner: crate::backend::AnalyticBackend,
        fail_on: usize,
        begin_failures: usize,
        stepped: usize,
    }

    impl FailingBackend {
        pub(crate) fn new(fail_on: usize, begin_failures: usize) -> Self {
            FailingBackend {
                inner: SessionBuilder::new().build_analytic().unwrap(),
                fail_on,
                begin_failures,
                stepped: 0,
            }
        }
    }

    const INJECTED: BackendError = BackendError::NoPimLayer {
        model: hhpim_nn::TinyMlModel::MobileNetV2,
    };

    impl ExecutionBackend for FailingBackend {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }

        fn architecture(&self) -> crate::arch::Architecture {
            self.inner.architecture()
        }

        fn runtime_config(&self) -> &crate::runtime::RuntimeConfig {
            self.inner.runtime_config()
        }

        fn begin_stream(&mut self) -> Result<(), BackendError> {
            if self.begin_failures > 0 {
                self.begin_failures -= 1;
                return Err(INJECTED);
            }
            self.stepped = 0;
            self.inner.begin_stream()
        }

        fn step_slice(&mut self, n_tasks: u32) -> Result<SliceOutcome, BackendError> {
            if self.stepped == self.fail_on {
                return Err(INJECTED);
            }
            self.stepped += 1;
            self.inner.step_slice(n_tasks)
        }

        fn finish_stream(&mut self) -> Result<ExecutionReport, BackendError> {
            self.inner.finish_stream()
        }
    }

    #[test]
    fn poisoned_stream_discards_state_and_restarts_cleanly() {
        let mut engine = Engine::new(FailingBackend::new(2, 0));
        for _ in 0..5 {
            engine.submit(0.5).unwrap();
        }
        assert_eq!(engine.step().unwrap(), Some(0));
        assert_eq!(engine.step().unwrap(), Some(1));
        let err = engine.step().unwrap_err();
        assert!(matches!(err, EngineError::Backend { .. }));
        // The aborted stream's state is gone: no stale loads, no stale
        // events, slice numbering back to zero.
        assert_eq!(engine.pending(), 0);
        assert_eq!(engine.slices_executed(), 0);
        assert_eq!(engine.events().count(), 0);
        // The engine restarts cleanly: a fresh stream runs from slice
        // 0 (the mock resets its own counter in begin_stream).
        engine.submit(0.5).unwrap();
        assert_eq!(engine.step().unwrap(), Some(0));
        let reports = engine.drain().unwrap();
        assert_eq!(reports[0].records.len(), 1);
        assert_eq!(reports[0].records[0].slice, 0);
    }

    #[test]
    fn observers_survive_drain_and_poison_by_contract() {
        use std::sync::{Arc, Mutex};
        let seen = Arc::new(Mutex::new(0usize));
        let sink = Arc::clone(&seen);
        let mut engine = analytic_engine();
        engine.observe(move |_: &EngineEvent| {
            *sink.lock().unwrap() += 1;
        });
        assert_eq!(engine.observer_count(), 1);
        engine.submit(0.5).unwrap();
        engine.drain().unwrap();
        let after_first = *seen.lock().unwrap();
        assert!(after_first > 0);
        // The observer is bound to the engine, not the stream: a
        // second stream keeps feeding it.
        engine.submit(0.5).unwrap();
        engine.drain().unwrap();
        assert!(*seen.lock().unwrap() > after_first);
        assert_eq!(engine.observer_count(), 1);
        engine.clear_observers();
        assert_eq!(engine.observer_count(), 0);
        let final_count = *seen.lock().unwrap();
        engine.submit(0.5).unwrap();
        engine.drain().unwrap();
        assert_eq!(*seen.lock().unwrap(), final_count, "detached");
    }

    #[test]
    fn drop_counter_is_per_stream_and_capacity_is_tunable() {
        let mut engine = analytic_engine().with_event_capacity(1);
        engine.submit(0.1).unwrap();
        engine.submit(1.0).unwrap();
        engine.drain().unwrap();
        // A capacity-1 buffer dropped everything but the last event of
        // the stream — but drain closed the stream, resetting the
        // per-stream counter.
        assert_eq!(engine.events_dropped(), 0);
        // Mid-stream the counter is live.
        engine.submit(0.1).unwrap();
        engine.submit(1.0).unwrap();
        while engine.step().unwrap().is_some() {}
        assert!(engine.events_dropped() > 0);
        assert!(engine.events().count() <= 1);
        engine.drain().unwrap();
        assert_eq!(engine.events_dropped(), 0);
    }

    #[test]
    fn pump_with_a_budget_executes_exactly_that_many() {
        let mut engine = analytic_engine();
        let mut live = (0..).map(|i| f64::from(i % 10) / 10.0).peekable();
        assert_eq!(engine.pump(live.by_ref().take(6)).unwrap(), 6);
        assert_eq!(engine.slices_executed(), 6);
        assert_eq!(engine.pending(), 0, "pump leaves the queue empty");
        assert_eq!(live.peek(), Some(&0.6), "no read-ahead past the budget");
        // A second budgeted pump continues where the first stopped.
        assert_eq!(engine.pump(live.by_ref().take(4)).unwrap(), 4);
        assert_eq!(engine.slices_executed(), 10);
        let reports = engine.drain().unwrap();
        assert_eq!(reports[0].records.len(), 10);
    }

    #[test]
    fn unbounded_pump_returns_only_on_error() {
        // An endless feed is served forever; a failing backend is the
        // only way out, and proves the loop was actually running.
        let mut engine = Engine::new(FailingBackend::new(7, 0));
        let mut pulls = 0usize;
        let live = std::iter::repeat_with(|| {
            pulls += 1;
            0.5
        });
        let err = engine.pump(live).unwrap_err();
        assert!(matches!(err, EngineError::Backend { .. }));
        assert!(pulls >= 7, "served until the backend failed");
    }

    #[test]
    fn a_failed_stream_opening_consumes_no_load() {
        let mut engine = Engine::new(FailingBackend::new(usize::MAX, 1));
        engine.submit(0.5).unwrap();
        engine.submit(0.9).unwrap();
        assert!(matches!(engine.step(), Err(EngineError::Backend { .. })));
        assert_eq!(engine.pending(), 2, "both loads stay queued");
        let reports = engine.drain().unwrap();
        assert_eq!(reports[0].records.len(), 2);
    }

    #[test]
    fn a_failing_backend_ends_its_slice_after_the_backends_ahead_of_it() {
        use std::sync::{Arc, Mutex};
        use BackendKind::{Analytic, Cycle};
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let cycle = SessionBuilder::new().build_cycle().unwrap();
        let mut engine =
            Engine::from_backends(vec![Box::new(cycle), Box::new(FailingBackend::new(1, 0))]);
        engine.observe(move |event: &EngineEvent| {
            if let EngineEvent::SliceCompleted { backend, record } = event {
                sink.lock().unwrap().push((*backend, record.slice));
            }
        });
        for _ in 0..3 {
            engine.submit(0.5).unwrap();
        }
        let failed = engine.step_n(3);
        assert!(matches!(
            failed,
            Err(EngineError::Backend {
                backend: Analytic,
                ..
            })
        ));
        // Slice-major: slice 1 ran on the cycle backend before the
        // analytic one failed it.
        assert_eq!(
            *seen.lock().unwrap(),
            [(Cycle, 0), (Analytic, 0), (Cycle, 1)]
        );
        assert_eq!((engine.pending(), engine.events().count()), (0, 0));
    }

    #[test]
    fn zero_slice_drain_yields_empty_reports() {
        let mut engine = analytic_engine();
        let reports = engine.drain().unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].records.is_empty());
        assert_eq!(reports[0].deadline_misses, 0);
    }
}
