//! Trace recording and replay with time warp.
//!
//! A [`TraceRecorder`] captures `(arrival time, load)` pairs from any
//! run — a live [`TrafficEngine`](super::TrafficEngine) tap, or an
//! engine observer capturing completed slices — into a
//! [`RecordedTrace`], a versioned on-disk JSON format read through
//! the workspace's shared [`crate::json`] reader. A
//! [`ReplayTraffic`] then re-bins the recorded arrivals into
//! per-slice loads, optionally **time-warped**: compressed (warp > 1)
//! or dilated (warp < 1).
//!
//! Floating-point values are written with Rust's shortest round-trip
//! formatting, so save → load reproduces every sample bit for bit —
//! which is what makes "replay at warp 1.0 is bit-identical to the
//! original run" a checkable contract rather than a hope.

use super::SliceBinner;
use crate::json::{quote, ParseError, Reader};
use core::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Version stamp written into every recorded trace file.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// One captured arrival: when it landed (slice units) and how much
/// load it carried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedArrival {
    /// Arrival time in slice units (non-negative, finite).
    pub time: f64,
    /// The arrival's load, a fraction of a slice in `[0, 1]`.
    pub load: f64,
}

/// Why a piece of the traffic subsystem could not be built: a
/// recorded trace that could not be built, saved or loaded, a
/// [`Pacer`](super::Pacer) whose interval cannot be scheduled, or a
/// replay warp that cannot be applied.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrafficError {
    /// An arrival's time is negative/non-finite, times go backwards,
    /// or a load leaves `[0, 1]`.
    InvalidArrival {
        /// Index of the offending arrival.
        index: usize,
        /// Its recorded time.
        time: f64,
        /// Its recorded load.
        load: f64,
    },
    /// The file carries a format version this build does not read.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The file is not a well-formed recorded trace.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset where parsing stopped.
        offset: usize,
    },
    /// The file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// A pacer's rate is not finite and positive, or its interval is
    /// zero or too long to schedule `u32::MAX` rounds of.
    InvalidPace {
        /// The requested interval in seconds (`1 / rate` for a rate).
        interval_secs: f64,
    },
    /// A replay's warp factor is not finite and positive, or was set
    /// after the replay yielded a load.
    InvalidWarp {
        /// The requested warp factor.
        factor: f64,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::InvalidArrival { index, time, load } => write!(
                f,
                "invalid arrival #{index}: time {time}, load {load} \
                 (times must be finite, non-negative and non-decreasing; loads in [0, 1])"
            ),
            TrafficError::Version { found, supported } => write!(
                f,
                "recorded trace version {found} unsupported (this build reads {supported})"
            ),
            TrafficError::Parse { message, offset } => {
                write!(f, "malformed recorded trace at byte {offset}: {message}")
            }
            TrafficError::Io { path, message } => write!(f, "{path}: {message}"),
            TrafficError::InvalidPace { interval_secs } => write!(
                f,
                "pacing interval {interval_secs} s cannot be scheduled \
                 (the rate must be finite and positive, the interval non-zero \
                 and at most Duration::MAX / u32::MAX)"
            ),
            TrafficError::InvalidWarp { factor } => write!(
                f,
                "warp factor {factor} cannot be applied (it must be finite and positive, \
                 and set before the replay yields a load)"
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

impl From<ParseError> for TrafficError {
    fn from(e: ParseError) -> Self {
        TrafficError::Parse {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// A validated, versioned capture of `(arrival time, load)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    version: u32,
    label: String,
    arrivals: Vec<RecordedArrival>,
}

impl RecordedTrace {
    /// Builds a trace from captured arrivals, validating that times
    /// are finite, non-negative and non-decreasing, and loads are in
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidArrival`] naming the first offender.
    pub fn new(
        label: impl Into<String>,
        arrivals: Vec<RecordedArrival>,
    ) -> Result<Self, TrafficError> {
        let mut prev = 0.0f64;
        for (index, a) in arrivals.iter().enumerate() {
            let time_ok = a.time.is_finite() && a.time >= 0.0 && a.time >= prev;
            let load_ok = a.load.is_finite() && (0.0..=1.0).contains(&a.load);
            if !time_ok || !load_ok {
                return Err(TrafficError::InvalidArrival {
                    index,
                    time: a.time,
                    load: a.load,
                });
            }
            prev = a.time;
        }
        Ok(RecordedTrace {
            version: TRACE_FORMAT_VERSION,
            label: label.into(),
            arrivals,
        })
    }

    /// The format version the trace was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The run's human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The captured arrivals, in time order.
    pub fn arrivals(&self) -> &[RecordedArrival] {
        &self.arrivals
    }

    /// Number of captured arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Time of the last arrival (the run's extent in slice units).
    pub fn duration(&self) -> f64 {
        self.arrivals.last().map(|a| a.time).unwrap_or(0.0)
    }

    /// Serializes the trace to its on-disk JSON form:
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "label": "poisson(λ=3) seed 0xdac2025",
    ///   "arrivals": [
    ///     [0.3183, 0.1],
    ///     [0.5921, 0.1]
    ///   ]
    /// }
    /// ```
    ///
    /// Numbers use shortest round-trip formatting, so parsing the
    /// output reproduces every sample bit for bit.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"label\": {},\n", quote(&self.label)));
        out.push_str("  \"arrivals\": [");
        for (i, a) in self.arrivals.iter().enumerate() {
            let sep = if i + 1 == self.arrivals.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("\n    [{:?}, {:?}]{sep}", a.time, a.load));
        }
        if !self.arrivals.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a trace from its JSON form and validates it.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Parse`] for malformed input,
    /// [`TrafficError::Version`] for a future format version,
    /// [`TrafficError::InvalidArrival`] for out-of-contract samples.
    pub fn from_json(text: &str) -> Result<Self, TrafficError> {
        let mut r = Reader::new(text.as_bytes());
        let (mut version, mut label, mut arrivals) = (None, None, None);
        r.object(|r, key| {
            match key {
                "version" => version = Some(r.int::<u32>()?),
                "label" => label = Some(r.string()?),
                "arrivals" => {
                    let mut out = Vec::new();
                    r.array(|r| {
                        r.expect(b'[')?;
                        let time = r.f64()?;
                        r.expect(b',')?;
                        let load = r.f64()?;
                        r.expect(b']')?;
                        out.push(RecordedArrival { time, load });
                        Ok(())
                    })?;
                    arrivals = Some(out);
                }
                other => return Err(r.error(format!("unknown key `{other}`"))),
            }
            Ok(())
        })?;
        r.end()?;
        let version = version.ok_or_else(|| r.error("missing `version`"))?;
        let label = label.ok_or_else(|| r.error("missing `label`"))?;
        let arrivals = arrivals.ok_or_else(|| r.error("missing `arrivals`"))?;
        if version != TRACE_FORMAT_VERSION {
            return Err(TrafficError::Version {
                found: version,
                supported: TRACE_FORMAT_VERSION,
            });
        }
        RecordedTrace::new(label, arrivals)
    }

    /// Writes the trace to `path` as JSON.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TrafficError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| TrafficError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Reads and validates a trace from `path`.
    ///
    /// # Errors
    ///
    /// See [`RecordedTrace::from_json`]; filesystem failures surface
    /// as [`TrafficError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TrafficError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| TrafficError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::from_json(&text)
    }
}

/// A shareable arrival capture buffer.
///
/// Clones share one underlying buffer, so the same recorder can tap a
/// [`TrafficEngine`](super::TrafficEngine) *and* sit inside an engine
/// observer closure while the original handle reads the capture back
/// with [`TraceRecorder::finish`].
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    shared: Arc<Mutex<Vec<RecordedArrival>>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Captures one arrival. Samples are validated at
    /// [`TraceRecorder::finish`], not here, so observers stay
    /// infallible.
    pub fn record(&self, time: f64, load: f64) {
        self.shared
            .lock()
            .expect("recorder lock")
            .push(RecordedArrival { time, load });
    }

    /// Arrivals captured so far.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("recorder lock").len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards everything captured so far.
    pub fn clear(&self) {
        self.shared.lock().expect("recorder lock").clear();
    }

    /// Snapshots the capture into a validated [`RecordedTrace`]
    /// (the recorder keeps recording; snapshots are independent).
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidArrival`] if an out-of-contract sample
    /// was recorded.
    pub fn finish(&self, label: impl Into<String>) -> Result<RecordedTrace, TrafficError> {
        RecordedTrace::new(label, self.shared.lock().expect("recorder lock").clone())
    }
}

/// Replays a [`RecordedTrace`] as a stream of per-slice loads,
/// optionally time-warped.
///
/// ## Time-warp semantics
///
/// With warp factor `w`, the arrival recorded at time `t` replays at
/// time `t / w`:
///
/// * `w = 1` — the identity: re-binning the recorded arrivals with
///   the same rule the live engine used, so the replayed per-slice
///   loads (and any execution report built from them) are
///   bit-identical to the original run.
/// * `w < 1` — **dilation** (slower): arrivals spread over more
///   slices. Every recorded load value is preserved; idle (zero-load)
///   slices appear between them.
/// * `w > 1` — **compression** (faster): arrivals pile into fewer
///   slices. Loads merge through the saturating binner, so total
///   offered load is conserved and per-arrival load values are
///   preserved up to slice saturation (overflow backlogs into the
///   following slices, exactly as live oversubscription would).
#[derive(Debug, Clone)]
pub struct ReplayTraffic {
    arrivals: Vec<RecordedArrival>,
    warp: f64,
    cursor: usize,
    binner: SliceBinner,
    next_slice: usize,
}

impl ReplayTraffic {
    /// A replay of `trace` at warp 1.0 (original timing).
    pub fn new(trace: RecordedTrace) -> Self {
        ReplayTraffic {
            arrivals: trace.arrivals,
            warp: 1.0,
            cursor: 0,
            binner: SliceBinner::default(),
            next_slice: 0,
        }
    }

    /// Sets the time-warp factor: `factor > 1` compresses (replays
    /// faster), `factor < 1` dilates (replays slower).
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidWarp`] unless `factor` is finite and
    /// positive and the replay has not yielded a load yet.
    pub fn warp(mut self, factor: f64) -> Result<Self, TrafficError> {
        if !(factor.is_finite() && factor > 0.0) || self.next_slice > 0 {
            return Err(TrafficError::InvalidWarp { factor });
        }
        self.warp = factor;
        Ok(self)
    }

    fn warped_time(&self, index: usize) -> f64 {
        self.arrivals[index].time / self.warp
    }

    /// The load for the next slice: every remaining arrival whose
    /// warped time lands before the slice's end, folded through the
    /// same saturating binner the live engine uses. Returns `0.0`
    /// forever once the trace (and its backlog) is exhausted.
    pub fn next_load(&mut self) -> f64 {
        let end = (self.next_slice + 1) as f64;
        self.binner.open();
        while self.cursor < self.arrivals.len() && self.warped_time(self.cursor) < end {
            self.binner.add(self.arrivals[self.cursor].load);
            self.cursor += 1;
        }
        self.next_slice += 1;
        self.binner.close()
    }

    /// Whether every arrival has replayed and the backlog drained.
    pub fn is_exhausted(&self) -> bool {
        self.cursor == self.arrivals.len() && self.binner.backlog() == 0.0
    }

    /// The next slice index the replay will fill.
    pub fn position(&self) -> usize {
        self.next_slice
    }

    /// Saturation overflow waiting for a future slice.
    pub fn backlog(&self) -> f64 {
        self.binner.backlog()
    }

    /// Runs the replay to exhaustion, returning every per-slice load
    /// (idle slices included).
    pub fn to_loads(mut self) -> Vec<f64> {
        let mut loads = Vec::new();
        while !self.is_exhausted() {
            loads.push(self.next_load());
        }
        loads
    }
}

impl Iterator for ReplayTraffic {
    type Item = f64;

    /// Never `None` — zeros after exhaustion (check
    /// [`ReplayTraffic::is_exhausted`] or use
    /// [`ReplayTraffic::to_loads`] for the finite form).
    fn next(&mut self) -> Option<f64> {
        Some(self.next_load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RecordedTrace {
        RecordedTrace::new(
            "test \"run\" λ=3",
            vec![
                RecordedArrival {
                    time: 0.3,
                    load: 0.1,
                },
                RecordedArrival {
                    time: 0.7,
                    load: 0.25,
                },
                RecordedArrival {
                    time: 2.5,
                    load: 1.0,
                },
                RecordedArrival {
                    time: 1e2 / 3.0,
                    load: 0.123456789012345,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let trace = sample_trace();
        let back = RecordedTrace::from_json(&trace.to_json()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn save_load_round_trip() {
        let trace = sample_trace();
        let path = std::env::temp_dir().join(format!("hhpim_trace_{}.json", std::process::id()));
        trace.save(&path).unwrap();
        let back = RecordedTrace::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(trace, back);
    }

    #[test]
    fn future_version_rejected() {
        let text = sample_trace()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        assert_eq!(
            RecordedTrace::from_json(&text).unwrap_err(),
            TrafficError::Version {
                found: 99,
                supported: TRACE_FORMAT_VERSION
            }
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for text in [
            "",
            "{",
            "{\"version\": 1}",
            "{\"version\": 1, \"label\": \"x\", \"arrivals\": [[0.1]]}",
            "{\"version\": 1, \"label\": \"x\", \"arrivals\": []} trailing",
            "{\"version\": 1.5, \"label\": \"x\", \"arrivals\": []}",
            "{\"version\": 1.0, \"label\": \"x\", \"arrivals\": []}",
            "{\"version\": 4294967297, \"label\": \"x\", \"arrivals\": []}",
            "{\"bogus\": 1}",
        ] {
            assert!(
                matches!(
                    RecordedTrace::from_json(text),
                    Err(TrafficError::Parse { .. })
                ),
                "{text:?}"
            );
        }
    }

    #[test]
    fn invalid_arrivals_rejected() {
        let bad = RecordedTrace::new(
            "x",
            vec![
                RecordedArrival {
                    time: 1.0,
                    load: 0.5,
                },
                RecordedArrival {
                    time: 0.5,
                    load: 0.5,
                },
            ],
        );
        assert!(matches!(
            bad,
            Err(TrafficError::InvalidArrival { index: 1, .. })
        ));
        let oversized = RecordedTrace::new(
            "x",
            vec![RecordedArrival {
                time: 0.0,
                load: 1.5,
            }],
        );
        assert!(matches!(
            oversized,
            Err(TrafficError::InvalidArrival { index: 0, .. })
        ));
    }

    #[test]
    fn recorder_clones_share_a_buffer() {
        let recorder = TraceRecorder::new();
        let tap = recorder.clone();
        tap.record(0.5, 0.2);
        tap.record(1.5, 0.4);
        assert_eq!(recorder.len(), 2);
        let trace = recorder.finish("shared").unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.label(), "shared");
        recorder.clear();
        assert!(tap.is_empty());
    }

    #[test]
    fn replay_rebins_per_slice() {
        let trace = RecordedTrace::new(
            "bins",
            vec![
                RecordedArrival {
                    time: 0.2,
                    load: 0.3,
                },
                RecordedArrival {
                    time: 0.9,
                    load: 0.4,
                },
                RecordedArrival {
                    time: 3.5,
                    load: 0.5,
                },
            ],
        )
        .unwrap();
        let loads = ReplayTraffic::new(trace).to_loads();
        assert_eq!(loads, vec![0.3 + 0.4, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn dilation_preserves_every_load_sample() {
        let trace = RecordedTrace::new(
            "dilate",
            vec![
                RecordedArrival {
                    time: 0.5,
                    load: 0.3,
                },
                RecordedArrival {
                    time: 1.5,
                    load: 0.6,
                },
                RecordedArrival {
                    time: 2.5,
                    load: 0.9,
                },
            ],
        )
        .unwrap();
        // Warp 0.5 = half speed: arrival k lands in slice 2k+1.
        let loads = ReplayTraffic::new(trace).warp(0.5).unwrap().to_loads();
        assert_eq!(loads, vec![0.0, 0.3, 0.0, 0.6, 0.0, 0.9]);
    }

    #[test]
    fn compression_conserves_total_load() {
        let arrivals: Vec<RecordedArrival> = (0..40)
            .map(|i| RecordedArrival {
                time: i as f64 * 0.9,
                load: 0.35,
            })
            .collect();
        let total: f64 = arrivals.iter().map(|a| a.load).sum();
        let trace = RecordedTrace::new("compress", arrivals).unwrap();
        let loads = ReplayTraffic::new(trace).warp(4.0).unwrap().to_loads();
        assert!((loads.iter().sum::<f64>() - total).abs() < 1e-9);
        assert!(loads.iter().all(|&l| (0.0..=1.0).contains(&l)));
        // 4× compression of a ~0.39-load/slice feed saturates slices.
        assert!(loads.iter().filter(|&&l| l == 1.0).count() > 5, "{loads:?}");
    }

    #[test]
    fn exhausted_replay_yields_zeros() {
        let trace = RecordedTrace::new(
            "tiny",
            vec![RecordedArrival {
                time: 0.1,
                load: 0.2,
            }],
        )
        .unwrap();
        let mut replay = ReplayTraffic::new(trace);
        assert_eq!(replay.next_load(), 0.2);
        assert!(replay.is_exhausted());
        assert_eq!(replay.next_load(), 0.0);
        assert_eq!(replay.next_load(), 0.0);
    }

    #[test]
    fn zero_warp_rejected() {
        let mut replay = ReplayTraffic::new(sample_trace());
        assert!(matches!(
            replay.clone().warp(0.0),
            Err(TrafficError::InvalidWarp { factor }) if factor == 0.0
        ));
        // So is a warp set after the replay yielded a load.
        replay.next_load();
        assert!(matches!(
            replay.warp(2.0),
            Err(TrafficError::InvalidWarp { factor }) if factor == 2.0
        ));
    }
}
