//! Wall-clock pacing for engine/server rounds.
//!
//! A [`Pacer`] holds a run to a target slice rate against real time:
//! call [`Pacer::pace`] before each round (it sleeps until the round's
//! scheduled start, or not at all when the run is behind) and
//! [`Pacer::complete`] after, which records how late the round
//! finished relative to its scheduled start. [`Pacer::finish`] folds
//! the timings into a [`LoadReport`]: sustained slices/sec, offered
//! vs. achieved load, and p50/p95/p99/max slice latency.
//!
//! The pacer schedules against the run's start (`start + k·interval`),
//! not the previous round's end, so a single slow slice does not shift
//! every later deadline — the run catches back up, and the slow slice
//! alone shows up in the latency tail.

use super::TrafficError;
use core::fmt;
use std::time::{Duration, Instant};

/// Paces rounds against wall-clock time at a fixed slice rate.
#[derive(Debug, Clone)]
pub struct Pacer {
    interval: Duration,
    start: Option<Instant>,
    inflight: Option<Instant>,
    latencies: Vec<Duration>,
    late: u64,
}

impl Pacer {
    /// A pacer releasing one round every `interval`.
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidPace`] when `interval` is zero, or so
    /// long that `u32::MAX` of them overflow a `Duration` ([`Pacer::pace`]
    /// schedules round `k` at `start + k·interval`).
    pub fn new(interval: Duration) -> Result<Self, TrafficError> {
        if interval.is_zero() || interval.checked_mul(u32::MAX).is_none() {
            return Err(TrafficError::InvalidPace {
                interval_secs: interval.as_secs_f64(),
            });
        }
        Ok(Pacer {
            interval,
            start: None,
            inflight: None,
            latencies: Vec::new(),
            late: 0,
        })
    }

    /// A pacer targeting `slices_per_sec` rounds per second.
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidPace`] unless the rate is finite and
    /// positive and its interval is one [`Pacer::new`] accepts: a rate
    /// whose interval rounds to zero or does not fit a `Duration` is
    /// rejected too.
    pub fn from_rate(slices_per_sec: f64) -> Result<Self, TrafficError> {
        let interval_secs = 1.0 / slices_per_sec;
        let invalid = TrafficError::InvalidPace { interval_secs };
        if !(slices_per_sec.is_finite() && slices_per_sec > 0.0) {
            return Err(invalid);
        }
        Pacer::new(Duration::try_from_secs_f64(interval_secs).map_err(|_| invalid)?)
    }

    /// The configured per-round interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The configured target rate in slices per second.
    pub fn target_rate(&self) -> f64 {
        1.0 / self.interval.as_secs_f64()
    }

    /// Rounds completed so far.
    pub fn completed(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Blocks until round `k`'s scheduled start (`start + k·interval`,
    /// with the clock starting at the first call). Returns immediately
    /// when the run is already behind schedule — the pacer never
    /// inserts catch-up sleeps.
    pub fn pace(&mut self) {
        let start = *self.start.get_or_insert_with(Instant::now);
        let ticks = u32::try_from(self.latencies.len()).expect("pacer tick count overflow");
        let scheduled = start + self.interval * ticks;
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        self.inflight = Some(scheduled);
    }

    /// Records the in-flight round's completion. Slice latency is
    /// measured from the round's *scheduled* start, so time spent
    /// waiting behind an earlier overrun counts against this slice.
    ///
    /// # Panics
    ///
    /// Panics when called without a matching [`Pacer::pace`].
    pub fn complete(&mut self) {
        let scheduled = self.inflight.take().expect("complete() without pace()");
        let latency = Instant::now().saturating_duration_since(scheduled);
        if latency > self.interval {
            self.late += 1;
        }
        self.latencies.push(latency);
    }

    /// Folds the recorded timings into a [`LoadReport`].
    ///
    /// `offered_load` and `achieved_load` are mean per-slice loads in
    /// `[0, 1]` supplied by the caller (the pacer only observes time):
    /// what the traffic source asked for, and what the engine actually
    /// executed.
    pub fn finish(&self, offered_load: f64, achieved_load: f64) -> LoadReport {
        let slices = self.latencies.len() as u64;
        let elapsed = self.start.map(|s| s.elapsed()).unwrap_or(Duration::ZERO);
        let sustained_rate = if elapsed.is_zero() {
            0.0
        } else {
            slices as f64 / elapsed.as_secs_f64()
        };
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let percentile = |q: f64| -> Duration {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((q * sorted.len() as f64).ceil() as usize)
                .saturating_sub(1)
                .min(sorted.len() - 1);
            sorted[idx]
        };
        LoadReport {
            slices,
            elapsed,
            target_rate: self.target_rate(),
            sustained_rate,
            offered_load,
            achieved_load,
            late_slices: self.late,
            p50: percentile(0.50),
            p95: percentile(0.95),
            p99: percentile(0.99),
            max_latency: sorted.last().copied().unwrap_or(Duration::ZERO),
        }
    }
}

/// What a paced run sustained: rates, loads, and the latency tail.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Rounds completed.
    pub slices: u64,
    /// Wall-clock span from the first `pace()` to `finish()`.
    pub elapsed: Duration,
    /// Configured slice rate (slices/sec).
    pub target_rate: f64,
    /// Achieved slice rate (slices/sec) over `elapsed`.
    pub sustained_rate: f64,
    /// Mean per-slice load the traffic source offered, in `[0, 1]`.
    pub offered_load: f64,
    /// Mean per-slice load the engine executed, in `[0, 1]`.
    pub achieved_load: f64,
    /// Rounds that finished later than one interval after their
    /// scheduled start.
    pub late_slices: u64,
    /// Median slice latency (completion minus scheduled start).
    pub p50: Duration,
    /// 95th-percentile slice latency.
    pub p95: Duration,
    /// 99th-percentile slice latency.
    pub p99: Duration,
    /// Worst slice latency.
    pub max_latency: Duration,
}

impl LoadReport {
    /// Fraction of offered load the run actually executed (1.0 when
    /// nothing was offered).
    pub fn load_fidelity(&self) -> f64 {
        if self.offered_load <= 0.0 {
            1.0
        } else {
            self.achieved_load / self.offered_load
        }
    }

    /// A bordered stats table for terminal output.
    pub fn table(&self) -> String {
        let ms = |d: Duration| format!("{:.3} ms", d.as_secs_f64() * 1e3);
        let rows: Vec<(&str, String)> = vec![
            ("slices", self.slices.to_string()),
            ("elapsed", format!("{:.3} s", self.elapsed.as_secs_f64())),
            ("target rate", format!("{:.1} slices/s", self.target_rate)),
            (
                "sustained rate",
                format!("{:.1} slices/s", self.sustained_rate),
            ),
            ("offered load", format!("{:.4}", self.offered_load)),
            ("achieved load", format!("{:.4}", self.achieved_load)),
            (
                "load fidelity",
                format!("{:.1} %", self.load_fidelity() * 100.0),
            ),
            ("late slices", self.late_slices.to_string()),
            ("latency p50", ms(self.p50)),
            ("latency p95", ms(self.p95)),
            ("latency p99", ms(self.p99)),
            ("latency max", ms(self.max_latency)),
        ];
        let key_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let val_w = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let mut out = String::new();
        let rule = format!("+-{}-+-{}-+\n", "-".repeat(key_w), "-".repeat(val_w));
        out.push_str(&rule);
        for (k, v) in &rows {
            out.push_str(&format!("| {k:<key_w$} | {v:>val_w$} |\n"));
        }
        out.push_str(&rule);
        out
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paces_at_the_target_rate() {
        // 1 kHz for 25 slices: at least 24 full intervals must elapse,
        // so the sustained rate cannot overshoot the target by much
        // (undershoot is unbounded on a loaded machine, so only the
        // overshoot side is asserted tightly).
        let mut pacer = Pacer::from_rate(1000.0).unwrap();
        for _ in 0..25 {
            pacer.pace();
            pacer.complete();
        }
        let report = pacer.finish(0.5, 0.5);
        assert_eq!(report.slices, 25);
        assert!(report.elapsed >= Duration::from_millis(24), "{report:?}");
        assert!(
            report.sustained_rate <= report.target_rate * 1.1,
            "{report:?}"
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let mut pacer = Pacer::new(Duration::from_micros(200)).unwrap();
        for i in 0..40 {
            pacer.pace();
            if i % 10 == 0 {
                std::thread::sleep(Duration::from_micros(500));
            }
            pacer.complete();
        }
        let report = pacer.finish(0.3, 0.2);
        assert!(report.p50 <= report.p95);
        assert!(report.p95 <= report.p99);
        assert!(report.p99 <= report.max_latency);
        // Every tenth slice overslept a whole interval.
        assert!(report.late_slices >= 4, "{report:?}");
        assert!((report.load_fidelity() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_reports_zeros() {
        let pacer = Pacer::from_rate(100.0).unwrap();
        let report = pacer.finish(0.0, 0.0);
        assert_eq!(report.slices, 0);
        assert_eq!(report.sustained_rate, 0.0);
        assert_eq!(report.p99, Duration::ZERO);
        assert_eq!(report.load_fidelity(), 1.0);
    }

    #[test]
    fn table_renders_every_row() {
        let mut pacer = Pacer::from_rate(10_000.0).unwrap();
        pacer.pace();
        pacer.complete();
        let table = pacer.finish(0.5, 0.45).table();
        for key in [
            "slices",
            "sustained rate",
            "offered load",
            "achieved load",
            "load fidelity",
            "latency p99",
        ] {
            assert!(table.contains(key), "missing {key} in:\n{table}");
        }
    }

    #[test]
    #[should_panic(expected = "complete() without pace()")]
    fn complete_requires_pace() {
        Pacer::from_rate(10.0).unwrap().complete();
    }

    #[test]
    fn zero_rate_rejected() {
        assert!(matches!(
            Pacer::from_rate(0.0),
            Err(TrafficError::InvalidPace { interval_secs }) if interval_secs == f64::INFINITY
        ));
    }

    #[test]
    fn unschedulable_rates_and_intervals_are_typed_errors() {
        let rejected = |pacer: Result<Pacer, TrafficError>| {
            matches!(pacer, Err(TrafficError::InvalidPace { .. }))
        };
        // Not finite and positive; an interval that rounds to 0 ns
        // (1e10/s); one past `Duration::MAX` (1e-30/s, MIN_POSITIVE);
        // one `u32::MAX` ticks of which overflow (1e-15/s).
        for rate in [
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e10,
            1e-30,
            f64::MIN_POSITIVE,
            1e-15,
        ] {
            assert!(rejected(Pacer::from_rate(rate)), "rate {rate}");
        }
        let longest = Duration::MAX / u32::MAX;
        for interval in [
            Duration::ZERO,
            longest + Duration::from_nanos(1),
            Duration::MAX,
        ] {
            assert!(rejected(Pacer::new(interval)), "{interval:?}");
        }
        assert_eq!(Pacer::new(longest).unwrap().interval(), longest);
    }
}
