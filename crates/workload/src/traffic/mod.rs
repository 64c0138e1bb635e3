//! # Load generation: stochastic arrivals, record/replay, pacing
//!
//! The traffic subsystem turns the fixed 7-entry scenario catalogue
//! into an open-ended load-testing toolbox:
//!
//! * [`ArrivalProcess`] — *when* requests land: [`Poisson`],
//!   [`BurstyOnOff`] (MMPP-2), [`Diurnal`], [`ConstantRate`], all
//!   seeded and deterministic over the vendored SplitMix64.
//! * [`TrafficConfig`] / [`TrafficEngine`] — compose an arrival
//!   process with a per-arrival [`LoadDistribution`] into an
//!   unbounded stream of per-slice loads in `[0, 1]`, with saturated
//!   slices carrying their overflow into a backlog
//!   (load-conserving, via [`LoadTrace::saturating_merge`]).
//! * [`TraceRecorder`] / [`RecordedTrace`] / [`ReplayTraffic`] —
//!   capture `(arrival time, load)` pairs from any run into a
//!   versioned on-disk JSON format and replay them compressed or
//!   dilated ([`ReplayTraffic::warp`]).
//! * [`Pacer`] / [`LoadReport`] — pace a run against the wall clock
//!   at a target slice rate and report sustained slices/sec, offered
//!   vs. achieved load, and p50/p95/p99 slice latency.
//!
//! ## Determinism contract
//!
//! Same seed + same [`TrafficConfig`] ⇒ bit-identical arrival
//! sequence, bit-identical per-slice loads, and therefore
//! bit-identical execution reports downstream. Wall-clock pacing
//! never perturbs the load sequence — it only times its delivery.
//!
//! See `docs/traffic.md` for the full tour.

mod arrival;
mod pace;
mod record;

pub use arrival::{ArrivalProcess, BurstyOnOff, ConstantRate, Diurnal, Poisson};
pub use pace::{LoadReport, Pacer};
pub use record::{
    RecordedArrival, RecordedTrace, ReplayTraffic, TraceRecorder, TrafficError,
    TRACE_FORMAT_VERSION,
};

use crate::scenario::{LoadTrace, TraceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How much computational load each arrival contributes, as a
/// fraction of a full slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadDistribution {
    /// Every arrival costs the same fixed fraction of a slice.
    Constant(f64),
    /// Arrival cost sampled uniformly from `[low, high]`.
    Uniform {
        /// Smallest per-arrival load.
        low: f64,
        /// Largest per-arrival load.
        high: f64,
    },
}

impl LoadDistribution {
    /// The distribution's mean per-arrival load.
    pub fn mean(&self) -> f64 {
        match *self {
            LoadDistribution::Constant(l) => l,
            LoadDistribution::Uniform { low, high } => (low + high) / 2.0,
        }
    }

    /// Validates the distribution's parameters: loads must be finite,
    /// non-negative fractions of a slice (`0 ≤ load ≤ 1`), and a
    /// uniform range must not be inverted.
    fn validate(&self) {
        match *self {
            LoadDistribution::Constant(l) => {
                assert!(
                    l.is_finite() && (0.0..=1.0).contains(&l),
                    "per-arrival load {l} outside [0, 1]"
                );
            }
            LoadDistribution::Uniform { low, high } => {
                for l in [low, high] {
                    assert!(
                        l.is_finite() && (0.0..=1.0).contains(&l),
                        "per-arrival load {l} outside [0, 1]"
                    );
                }
                assert!(low <= high, "inverted load range [{low}, {high}]");
            }
        }
    }

    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            LoadDistribution::Constant(l) => l,
            LoadDistribution::Uniform { low, high } => rng.gen_range(low..=high),
        }
    }
}

impl Default for LoadDistribution {
    /// One arrival = one inference at the paper's 10-task slice cap.
    fn default() -> Self {
        LoadDistribution::Constant(0.1)
    }
}

/// The full, cloneable description of a synthetic traffic feed: an
/// arrival process, a per-arrival load distribution, and the RNG
/// seed. Two engines built from equal configs produce bit-identical
/// streams.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// When arrivals land (cloned pristine into each engine).
    pub process: Box<dyn ArrivalProcess>,
    /// How much load each arrival carries.
    pub load: LoadDistribution,
    /// Seed for the engine's SplitMix64 stream.
    pub seed: u64,
}

impl TrafficConfig {
    /// A config over an explicit arrival process with the default
    /// load distribution and seed.
    pub fn new(process: impl ArrivalProcess + 'static) -> Self {
        TrafficConfig {
            process: Box::new(process),
            load: LoadDistribution::default(),
            seed: 0xDAC_2025,
        }
    }

    /// Shorthand for a [`Poisson`] feed at `rate` arrivals per slice.
    pub fn poisson(rate: f64) -> Self {
        Self::new(Poisson::new(rate))
    }

    /// Shorthand for a [`ConstantRate`] metronome feed.
    pub fn constant(rate: f64) -> Self {
        Self::new(ConstantRate::new(rate))
    }

    /// Shorthand for a [`BurstyOnOff`] MMPP-2 feed.
    pub fn bursty(burst_rate: f64, idle_rate: f64, mean_burst: f64, mean_idle: f64) -> Self {
        Self::new(BurstyOnOff::new(
            burst_rate, idle_rate, mean_burst, mean_idle,
        ))
    }

    /// Shorthand for a [`Diurnal`] feed over a periodic rate curve.
    pub fn diurnal(base_rate: f64, period: f64, curve: Vec<f64>) -> Self {
        Self::new(Diurnal::new(base_rate, period, curve))
    }

    /// Replaces the per-arrival load distribution.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's loads leave `[0, 1]` or the range
    /// is inverted.
    pub fn with_load(mut self, load: LoadDistribution) -> Self {
        load.validate();
        self.load = load;
        self
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Human-readable description of the feed.
    pub fn label(&self) -> String {
        format!("{} seed {:#x}", self.process.label(), self.seed)
    }
}

/// Folds time-stamped arrivals into per-slice loads, saturating each
/// slice at `1.0` and carrying the overflow forward — the *single*
/// binning rule, shared by [`TrafficEngine`] (live generation) and
/// [`ReplayTraffic`] (recorded arrivals), so a recorded run replayed
/// at warp 1.0 rebins bit-identically.
#[derive(Debug, Clone, Default)]
pub(crate) struct SliceBinner {
    accum: f64,
    carry: f64,
}

impl SliceBinner {
    /// Opens the next slice, seeding it from the carried backlog.
    pub(crate) fn open(&mut self) {
        let (accum, carry) = LoadTrace::saturating_merge(0.0, self.carry);
        self.accum = accum;
        self.carry = carry;
    }

    /// Adds one arrival's load to the open slice (overflow joins the
    /// backlog).
    pub(crate) fn add(&mut self, load: f64) {
        let (accum, overflow) = LoadTrace::saturating_merge(self.accum, load);
        self.accum = accum;
        self.carry += overflow;
    }

    /// Closes the slice, returning its load in `[0, 1]`.
    pub(crate) fn close(&mut self) -> f64 {
        let load = self.accum;
        self.accum = 0.0;
        load
    }

    /// Backlog still waiting for a future slice.
    pub(crate) fn backlog(&self) -> f64 {
        self.carry
    }
}

/// The live traffic generator: composes a [`TrafficConfig`] into an
/// unbounded stream of per-slice loads.
///
/// Arrivals time-stamped within `[k, k+1)` contribute to the load
/// offered at slice `k`; a slice saturates at `1.0` and the excess
/// carries into the backlog, so total offered load is conserved (the
/// engine's queue then realizes the backlog as latency). The stream
/// never ends — pull [`TrafficEngine::next_load`], iterate, or
/// snapshot a finite horizon with [`TrafficEngine::take_trace`].
#[derive(Debug, Clone)]
pub struct TrafficEngine {
    process: Box<dyn ArrivalProcess>,
    load: LoadDistribution,
    rng: StdRng,
    binner: SliceBinner,
    /// Absolute time of the most recently generated arrival.
    clock: f64,
    /// An arrival generated past the current slice boundary, waiting
    /// for its slice to open.
    pending: Option<(f64, f64)>,
    next_slice: usize,
    arrivals: u64,
    offered: f64,
    recorder: Option<TraceRecorder>,
}

impl TrafficEngine {
    /// A generator over `config`, starting at slice 0 with a fresh
    /// seeded RNG.
    pub fn new(config: TrafficConfig) -> Self {
        config.load.validate();
        TrafficEngine {
            rng: StdRng::seed_from_u64(config.seed),
            process: config.process,
            load: config.load,
            binner: SliceBinner::default(),
            clock: 0.0,
            pending: None,
            next_slice: 0,
            arrivals: 0,
            offered: 0.0,
            recorder: None,
        }
    }

    /// Attaches a [`TraceRecorder`]: every generated arrival is
    /// captured as an `(arrival time, load)` pair (the recorder
    /// clones share one buffer, so keep the original to read the
    /// capture back).
    pub fn with_recorder(mut self, recorder: &TraceRecorder) -> Self {
        self.recorder = Some(recorder.clone());
        self
    }

    fn next_arrival(&mut self) -> (f64, f64) {
        let gap = self.process.next_gap(&mut self.rng);
        debug_assert!(gap.is_finite() && gap > 0.0, "gap {gap}");
        self.clock += gap;
        let load = self.load.sample(&mut self.rng);
        self.arrivals += 1;
        self.offered += load;
        if let Some(recorder) = &self.recorder {
            recorder.record(self.clock, load);
        }
        (self.clock, load)
    }

    /// The load offered to the next slice: backlog first, then every
    /// arrival landing before the slice's end, saturating at `1.0`.
    pub fn next_load(&mut self) -> f64 {
        let end = (self.next_slice + 1) as f64;
        self.binner.open();
        loop {
            match self.pending {
                Some((time, _)) if time >= end => break,
                Some((_, load)) => {
                    self.binner.add(load);
                    self.pending = None;
                }
                None => self.pending = Some(self.next_arrival()),
            }
        }
        self.next_slice += 1;
        self.binner.close()
    }

    /// Snapshots the next `slices` loads as a finite [`LoadTrace`]
    /// (origin [`crate::TraceOrigin::Replay`]), advancing the stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when `slices == 0`.
    pub fn take_trace(&mut self, slices: usize) -> Result<LoadTrace, TraceError> {
        if slices == 0 {
            return Err(TraceError::Empty);
        }
        LoadTrace::replay((0..slices).map(|_| self.next_load()).collect())
    }

    /// The next slice index the stream will fill.
    pub fn position(&self) -> usize {
        self.next_slice
    }

    /// Arrivals generated so far.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// The process's clock: absolute time of the latest arrival, in
    /// slices.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Observed mean arrival rate (arrivals per slice of process
    /// time) — the statistic the offered-load fidelity contract is
    /// stated over.
    pub fn mean_rate(&self) -> f64 {
        if self.clock > 0.0 {
            self.arrivals as f64 / self.clock
        } else {
            0.0
        }
    }

    /// Total load generated so far (including backlog not yet
    /// emitted).
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// Mean offered load per elapsed slice.
    pub fn mean_offered(&self) -> f64 {
        if self.next_slice > 0 {
            self.offered / self.next_slice as f64
        } else {
            0.0
        }
    }

    /// Backlog carried past the last closed slice (saturation
    /// overflow waiting for capacity).
    pub fn backlog(&self) -> f64 {
        self.binner.backlog()
    }
}

impl Iterator for TrafficEngine {
    type Item = f64;

    /// Never `None`: the stream is unbounded (take what you need).
    fn next(&mut self) -> Option<f64> {
        Some(self.next_load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_config_bit_identical_stream() {
        let config = TrafficConfig::bursty(8.0, 0.2, 3.0, 5.0)
            .with_load(LoadDistribution::Uniform {
                low: 0.05,
                high: 0.3,
            })
            .with_seed(99);
        let a: Vec<f64> = TrafficEngine::new(config.clone()).take(200).collect();
        let b: Vec<f64> = TrafficEngine::new(config.clone()).take(200).collect();
        assert_eq!(a, b);
        let c: Vec<f64> = TrafficEngine::new(config.with_seed(100))
            .take(200)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn loads_stay_in_unit_interval() {
        let mut engine = TrafficEngine::new(
            TrafficConfig::poisson(20.0).with_load(LoadDistribution::Constant(0.4)),
        );
        for _ in 0..500 {
            let l = engine.next_load();
            assert!((0.0..=1.0).contains(&l), "{l}");
        }
    }

    #[test]
    fn offered_load_is_conserved_through_saturation() {
        // λ·E[load] = 20 × 0.4 = 8 slices' worth of work per slice:
        // heavily oversubscribed, so nearly every slice saturates and
        // the rest backlogs — but no load is lost.
        let mut engine = TrafficEngine::new(
            TrafficConfig::poisson(20.0).with_load(LoadDistribution::Constant(0.4)),
        );
        let emitted: f64 = (0..100).map(|_| engine.next_load()).sum();
        // Arrivals past slice 100 (the pending one) are generated but
        // not yet binned; subtract it like the binner will.
        let pending = engine.pending.map(|(_, l)| l).unwrap_or(0.0);
        let generated = engine.offered() - pending;
        assert!(
            (emitted + engine.backlog() - generated).abs() < 1e-9,
            "emitted {emitted} + backlog {} != generated {generated}",
            engine.backlog()
        );
        assert!(engine.backlog() > 100.0, "oversubscription must backlog");
    }

    #[test]
    fn mean_offered_tracks_rate_times_load() {
        let mut engine = TrafficEngine::new(
            TrafficConfig::poisson(3.0).with_load(LoadDistribution::Constant(0.1)),
        );
        for _ in 0..5_000 {
            engine.next_load();
        }
        let expect = 3.0 * 0.1;
        assert!(
            (engine.mean_offered() / expect - 1.0).abs() < 0.05,
            "mean offered {} vs {expect}",
            engine.mean_offered()
        );
    }

    #[test]
    fn take_trace_matches_streamed_loads() {
        let config = TrafficConfig::constant(2.0).with_load(LoadDistribution::Constant(0.25));
        let streamed: Vec<f64> = TrafficEngine::new(config.clone()).take(40).collect();
        let trace = TrafficEngine::new(config).take_trace(40).unwrap();
        assert_eq!(trace.loads(), streamed.as_slice());
        assert!(TrafficEngine::new(TrafficConfig::poisson(1.0))
            .take_trace(0)
            .is_err());
    }

    #[test]
    fn constant_rate_two_per_slice_fills_every_slice() {
        let mut engine = TrafficEngine::new(
            TrafficConfig::constant(2.0).with_load(LoadDistribution::Constant(0.3)),
        );
        let loads: Vec<f64> = (0..10).map(|_| engine.next_load()).collect();
        // Gaps of 0.5 put arrivals at 0.5, 1.0, 1.5, 2.0 … — exactly
        // two per slice from slice 1 on, one in slice 0.
        assert_eq!(loads[0], 0.3);
        assert!(
            loads[1..].iter().all(|&l| (l - 0.6).abs() < 1e-12),
            "{loads:?}"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn oversized_arrival_load_rejected() {
        TrafficConfig::poisson(1.0).with_load(LoadDistribution::Constant(1.5));
    }
}
