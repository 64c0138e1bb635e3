//! Simulation time, durations, frequencies and clock-domain conversion.
//!
//! All simulation time is kept in integer **picoseconds** so that the
//! sub-nanosecond latencies of Table III in the paper (e.g. SRAM reads of
//! 1.12 ns) are representable exactly and event ordering is deterministic.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation timeline, in picoseconds.
///
/// `SimTime` is an *instant*; spans between instants are [`SimDuration`].
/// The distinction prevents accidentally adding two instants.
///
/// # Examples
///
/// ```
/// use hhpim_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_ns(5);
/// assert_eq!(t.as_ps(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in picoseconds.
///
/// # Examples
///
/// ```
/// use hhpim_sim::SimDuration;
/// let d = SimDuration::from_ns_f64(2.62);
/// assert_eq!(d.as_ps(), 2_620);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(
            ns.is_finite() && ns >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((ns * 1e3).round() as u64)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((secs * 1e12).round() as u64)
    }

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked multiplication by an integer count; `None` on overflow.
    #[inline]
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Multiplication by an integer count, saturating at
    /// [`SimDuration::MAX`].
    pub fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }

    /// Addition, saturating at [`SimDuration::MAX`].
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    /// Integer ratio of two durations (floor division).
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// A clock frequency in hertz.
///
/// # Examples
///
/// ```
/// use hhpim_sim::Frequency;
/// let f = Frequency::from_mhz(50);
/// assert_eq!(f.period().as_ps(), 20_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub const fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    pub const fn from_ghz(ghz: u64) -> Self {
        Self::from_hz(ghz * 1_000_000_000)
    }

    /// Returns the frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Returns the clock period, rounded to the nearest picosecond.
    pub fn period(self) -> SimDuration {
        SimDuration((1e12 / self.0 as f64).round() as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}GHz", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}MHz", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

/// A clock domain: converts between cycle counts and simulation time.
///
/// # Examples
///
/// ```
/// use hhpim_sim::{Clock, Frequency, SimDuration};
/// let clk = Clock::new(Frequency::from_mhz(50));
/// assert_eq!(clk.cycles_to_duration(5).as_ps(), 100_000);
/// // A 30 ns latency needs 2 cycles at 50 MHz (20 ns period).
/// assert_eq!(clk.cycles_for(SimDuration::from_ns(30)), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    frequency: Frequency,
}

impl Clock {
    /// Creates a clock domain with the given frequency.
    pub const fn new(frequency: Frequency) -> Self {
        Clock { frequency }
    }

    /// Returns this clock's frequency.
    pub const fn frequency(self) -> Frequency {
        self.frequency
    }

    /// Returns this clock's period.
    pub fn period(self) -> SimDuration {
        self.frequency.period()
    }

    /// Converts a cycle count to a duration.
    pub fn cycles_to_duration(self, cycles: u64) -> SimDuration {
        self.period() * cycles
    }

    /// Returns the minimum whole number of cycles covering `d`
    /// (ceiling division); zero-length durations take zero cycles.
    pub fn cycles_for(self, d: SimDuration) -> u64 {
        let p = self.period().as_ps();
        d.as_ps().div_ceil(p)
    }

    /// Rounds an instant up to the next clock edge (multiples of the
    /// period measured from time zero).
    pub fn next_edge(self, t: SimTime) -> SimTime {
        let p = self.period().as_ps();
        SimTime::from_ps(t.as_ps().div_ceil(p) * p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrip() {
        let t = SimTime::from_ns(10);
        let d = SimDuration::from_ns(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn duration_from_fractional_ns_rounds_to_ps() {
        assert_eq!(SimDuration::from_ns_f64(1.12).as_ps(), 1_120);
        assert_eq!(SimDuration::from_ns_f64(11.81).as_ps(), 11_810);
        assert_eq!(SimDuration::from_ns_f64(0.0004).as_ps(), 0);
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(SimDuration::from_ps(500).to_string(), "500ps");
        assert_eq!(SimDuration::from_ns(2).to_string(), "2.000ns");
        assert_eq!(SimDuration::from_ms(3).to_string(), "3.000ms");
    }

    #[test]
    fn frequency_period() {
        assert_eq!(Frequency::from_mhz(50).period(), SimDuration::from_ns(20));
        assert_eq!(Frequency::from_ghz(1).period(), SimDuration::from_ns(1));
    }

    #[test]
    fn clock_cycle_ceiling() {
        let clk = Clock::new(Frequency::from_mhz(100)); // 10 ns period
        assert_eq!(clk.cycles_for(SimDuration::ZERO), 0);
        assert_eq!(clk.cycles_for(SimDuration::from_ns(1)), 1);
        assert_eq!(clk.cycles_for(SimDuration::from_ns(10)), 1);
        assert_eq!(clk.cycles_for(SimDuration::from_ns(11)), 2);
    }

    #[test]
    fn clock_next_edge() {
        let clk = Clock::new(Frequency::from_mhz(50));
        assert_eq!(clk.next_edge(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(clk.next_edge(SimTime::from_ns(1)), SimTime::from_ns(20));
        assert_eq!(clk.next_edge(SimTime::from_ns(20)), SimTime::from_ns(20));
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(b.saturating_since(a), SimDuration::from_ns(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = [1u64, 2, 3].iter().map(|&n| SimDuration::from_ns(n)).sum();
        assert_eq!(total, SimDuration::from_ns(6));
    }

    #[test]
    fn duration_ratio() {
        assert_eq!(SimDuration::from_ns(100) / SimDuration::from_ns(30), 3);
    }
}
