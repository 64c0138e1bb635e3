//! The processing element (PE) of a PIM module.
//!
//! Each PIM module carries one PE executing INT8 multiply-accumulate
//! operations into a 32-bit accumulator — the dominant operation of the
//! quantized TinyML workloads in Table IV. The PE is modelled both
//! *functionally* (bit-exact INT8×INT8→INT32 accumulation, so FPGA-style
//! correctness checks are possible) and *temporally/energetically*
//! (latency and power from Tables III and V).

use hhpim_mem::{Energy, PeTech, Power};
use hhpim_sim::{BusyResource, SimDuration, SimTime};

/// An INT8 MAC processing element with a 32-bit accumulator.
///
/// # Examples
///
/// ```
/// use hhpim_pim::ProcessingElement;
/// use hhpim_sim::SimTime;
///
/// let mut pe = ProcessingElement::new(hhpim_mem::hp_pe());
/// let done = pe.mac_burst(SimTime::ZERO, &[(2, 3), (-4, 5)]);
/// assert_eq!(pe.accumulator(), 2 * 3 + (-4) * 5);
/// assert_eq!(done.as_ps(), 2 * 5_520); // two MACs at 5.52 ns each
/// ```
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    tech: PeTech,
    /// `tech.mac_energy()`, fixed at construction.
    mac_energy: Energy,
    acc: i32,
    unit: BusyResource,
    macs: u64,
    dynamic_energy: Energy,
    static_energy: Energy,
    last_accrual: SimTime,
    powered: bool,
}

impl ProcessingElement {
    /// Creates a powered-on PE with a cleared accumulator.
    pub fn new(tech: PeTech) -> Self {
        ProcessingElement {
            tech,
            mac_energy: tech.mac_energy(),
            acc: 0,
            unit: BusyResource::new(),
            macs: 0,
            dynamic_energy: Energy::ZERO,
            static_energy: Energy::ZERO,
            last_accrual: SimTime::ZERO,
            powered: true,
        }
    }

    /// The PE's technology parameters.
    pub fn tech(&self) -> &PeTech {
        &self.tech
    }

    /// Current accumulator value.
    pub fn accumulator(&self) -> i32 {
        self.acc
    }

    /// Number of MAC operations retired.
    pub fn macs_retired(&self) -> u64 {
        self.macs
    }

    /// Dynamic energy consumed by MACs so far.
    pub fn dynamic_energy(&self) -> Energy {
        self.dynamic_energy
    }

    /// Static energy accrued up to the last [`Self::advance_to`].
    pub fn static_energy(&self) -> Energy {
        self.static_energy
    }

    /// Whether the PE is powered (accrues leakage).
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Powers the PE on or off (off = no leakage, used when a whole
    /// module is idle under the paper's gating policy). The accumulator
    /// is *not* preserved across power-off.
    pub fn set_powered(&mut self, now: SimTime, powered: bool) {
        self.advance_to(now);
        if self.powered && !powered {
            self.acc = 0;
        }
        self.powered = powered;
    }

    /// Advances leakage accrual to `now` (monotonic; earlier times are
    /// ignored).
    #[inline]
    pub fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_accrual {
            return;
        }
        if self.powered {
            let dt = now.saturating_since(self.last_accrual);
            self.static_energy += self.tech.static_power * dt;
        }
        self.last_accrual = now;
    }

    /// Leakage power in the current state.
    pub fn static_power(&self) -> Power {
        if self.powered {
            self.tech.static_power
        } else {
            Power::ZERO
        }
    }

    /// Clears the accumulator (zero-latency architectural operation).
    pub fn clear(&mut self) {
        self.acc = 0;
    }

    /// Executes a burst of `(weight, activation)` MACs starting no
    /// earlier than `at`; returns the completion instant.
    ///
    /// Accumulation wraps on i32 overflow, matching the RTL behaviour of
    /// a fixed-width accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the PE is powered off.
    pub fn mac_burst(&mut self, at: SimTime, operands: &[(i8, i8)]) -> SimTime {
        let count = operands.len() as u64;
        let done = self.retire(at, count, self.tech.mac_latency * count);
        for &(w, a) in operands {
            self.acc = self.acc.wrapping_add((w as i32) * (a as i32));
        }
        done
    }

    /// The instant a [`Self::mac_stream`] of `count` MACs issued at `at`
    /// would complete, or `None` when its latency or completion instant
    /// does not fit in [`SimTime`]. Changes nothing.
    pub fn stream_done(&self, at: SimTime, count: u64) -> Option<SimTime> {
        let latency = self.tech.mac_latency.checked_mul(count)?;
        self.unit.free_at().max(at).checked_add(latency)
    }

    /// Retires `count` MACs with exact timing/energy/counter metering
    /// but no functional accumulation (the accumulator is untouched),
    /// returning the completion instant — or `None`, with nothing
    /// changed, when the stream would end past the last [`SimTime`].
    ///
    /// This is the traffic-level twin of [`Self::mac_burst`] used by
    /// compiled multi-layer schedules, where operand values cannot
    /// affect timing or energy; it costs O(1) regardless of `count`.
    ///
    /// # Panics
    ///
    /// Panics if the PE is powered off.
    pub fn mac_stream(&mut self, at: SimTime, count: u64) -> Option<SimTime> {
        self.stream_done(at, count)?;
        Some(self.retire(at, count, self.tech.mac_latency * count))
    }

    /// Adds the products of a burst already metered through
    /// [`Self::retire`], folded by the caller with wrapping addition.
    #[inline]
    pub(crate) fn accumulate(&mut self, delta: i32) {
        self.acc = self.acc.wrapping_add(delta);
    }

    /// The instant the PE is free for the next burst.
    #[inline]
    pub(crate) fn free_at(&self) -> SimTime {
        self.unit.free_at()
    }

    /// Meters `count` MACs issued at `at` that occupy the PE for
    /// `latency` (`mac_latency × count`, computed by the caller) and
    /// returns their completion instant; panics if the PE is powered
    /// off.
    #[inline]
    pub(crate) fn retire(&mut self, at: SimTime, count: u64, latency: SimDuration) -> SimTime {
        assert!(self.powered, "MAC issued to a powered-off PE");
        self.advance_to(at);
        self.macs += count;
        self.dynamic_energy += self.mac_energy * count;
        self.unit.acquire(at, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhpim_mem::{hp_pe, lp_pe};

    #[test]
    fn functional_mac() {
        let mut pe = ProcessingElement::new(hp_pe());
        pe.mac_burst(SimTime::ZERO, &[(10, 10), (-5, 4), (127, 127)]);
        assert_eq!(pe.accumulator(), 100 - 20 + 16129);
        assert_eq!(pe.macs_retired(), 3);
    }

    #[test]
    fn accumulator_wraps_like_hardware() {
        let mut pe = ProcessingElement::new(hp_pe());
        // Drive the accumulator near i32::MAX then push it over.
        for _ in 0..133_152 {
            pe.mac_burst(SimTime::ZERO, &[(127, 127)]);
        }
        let before = pe.accumulator();
        pe.mac_burst(SimTime::ZERO, &[(127, 127)]);
        assert_eq!(pe.accumulator(), before.wrapping_add(16129));
    }

    #[test]
    fn burst_latency_scales() {
        let mut pe = ProcessingElement::new(lp_pe());
        let done = pe.mac_burst(SimTime::ZERO, &[(1, 1); 10]);
        assert_eq!(done, SimTime::ZERO + SimDuration::from_ns_f64(106.8));
    }

    #[test]
    fn back_to_back_bursts_serialize() {
        let mut pe = ProcessingElement::new(hp_pe());
        let d1 = pe.mac_burst(SimTime::ZERO, &[(1, 1)]);
        let d2 = pe.mac_burst(SimTime::ZERO, &[(1, 1)]);
        assert_eq!(d2, d1 + SimDuration::from_ns_f64(5.52));
    }

    #[test]
    fn dynamic_energy_per_mac() {
        let mut pe = ProcessingElement::new(hp_pe());
        pe.mac_burst(SimTime::ZERO, &[(1, 1); 100]);
        // 0.9 mW × 5.52 ns ≈ 4.968 pJ per MAC.
        assert!((pe.dynamic_energy().as_pj() - 496.8).abs() < 0.5);
    }

    #[test]
    fn leakage_accrues_only_when_powered() {
        let mut pe = ProcessingElement::new(hp_pe());
        pe.advance_to(SimTime::from_ns(1000));
        // 0.48 mW × 1000 ns = 480 pJ.
        assert!((pe.static_energy().as_pj() - 480.0).abs() < 0.5);
        pe.set_powered(SimTime::from_ns(1000), false);
        pe.advance_to(SimTime::from_ns(2000));
        assert!((pe.static_energy().as_pj() - 480.0).abs() < 0.5);
        assert_eq!(pe.static_power(), Power::ZERO);
    }

    #[test]
    fn power_off_clears_accumulator() {
        let mut pe = ProcessingElement::new(hp_pe());
        pe.mac_burst(SimTime::ZERO, &[(3, 3)]);
        pe.set_powered(SimTime::ZERO, false);
        pe.set_powered(SimTime::ZERO, true);
        assert_eq!(pe.accumulator(), 0);
    }

    #[test]
    #[should_panic(expected = "powered-off")]
    fn mac_on_gated_pe_panics() {
        let mut pe = ProcessingElement::new(hp_pe());
        pe.set_powered(SimTime::ZERO, false);
        pe.mac_burst(SimTime::ZERO, &[(1, 1)]);
    }

    #[test]
    fn clear_resets_accumulator() {
        let mut pe = ProcessingElement::new(hp_pe());
        pe.mac_burst(SimTime::ZERO, &[(2, 2)]);
        pe.clear();
        assert_eq!(pe.accumulator(), 0);
    }
}
