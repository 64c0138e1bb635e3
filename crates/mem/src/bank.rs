//! Cycle-level memory bank with a serialized port, occupancy tracking,
//! power gating and exact energy accrual.
//!
//! A bank models one memory instance inside a PIM module (e.g. the 64 kB
//! MRAM of an HP-PIM module). Key behaviours from the paper:
//!
//! * **Serialized port** — a module cannot read MRAM and SRAM operands
//!   truly in parallel; each bank serves one access at a time.
//! * **Power gating** — MRAM banks may be gated at any idle moment and
//!   retain contents; SRAM banks may only be gated when they hold no
//!   live data (volatile).
//! * **Static energy** — accrued continuously while powered on, scaled
//!   to the bank's capacity from the 64 kB reference of Table V.

use crate::energy::{Energy, Power};
use crate::tech::MemoryTech;
use hhpim_sim::{BusyResource, SimDuration, SimTime};
use std::fmt;

/// Power state of a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateState {
    /// Powered and accessible; accrues static energy.
    On,
    /// Power-gated: no static energy, not accessible.
    Gated,
}

/// Wake-up cost parameters for leaving the gated state.
///
/// Defaults are conservative: one SRAM-read-scale latency and a small
/// fixed charge; the paper treats wake-up cost as negligible relative to
/// time-slice scales.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateParams {
    /// Latency from `ungate` until the bank is accessible.
    pub wake_latency: SimDuration,
    /// Energy charged per wake-up.
    pub wake_energy: Energy,
}

impl Default for GateParams {
    fn default() -> Self {
        GateParams {
            wake_latency: SimDuration::from_ns(2),
            wake_energy: Energy::from_pj(50.0),
        }
    }
}

/// Kind of access issued to a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read words out of the bank.
    Read,
    /// Write words into the bank.
    Write,
}

/// Errors returned by bank operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankError {
    /// The bank is power-gated and cannot serve accesses.
    Gated,
    /// An allocation would exceed the bank's capacity.
    CapacityExceeded {
        /// Bytes requested.
        requested: usize,
        /// Bytes still free.
        available: usize,
    },
    /// Gating a volatile bank that still holds live data would lose it.
    WouldLoseData {
        /// Live bytes that would be lost.
        live_bytes: usize,
    },
    /// Freeing more bytes than are live.
    Underflow,
    /// A burst's service time or completion instant does not fit in
    /// [`SimTime`].
    TimeOverflow,
}

impl fmt::Display for BankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BankError::Gated => write!(f, "bank is power-gated"),
            BankError::CapacityExceeded {
                requested,
                available,
            } => {
                write!(
                    f,
                    "allocation of {requested} B exceeds {available} B available"
                )
            }
            BankError::WouldLoseData { live_bytes } => {
                write!(f, "gating volatile bank would lose {live_bytes} live bytes")
            }
            BankError::Underflow => write!(f, "freeing more bytes than are live"),
            BankError::TimeOverflow => write!(f, "burst would end past the last SimTime"),
        }
    }
}

impl std::error::Error for BankError {}

/// Result of a completed access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// Instant at which the data is available / committed.
    pub done_at: SimTime,
    /// Dynamic energy consumed by the access.
    pub energy: Energy,
}

/// Per-word access coefficients resolved from a bank's technology once,
/// at lowering time, so a timing-graph replay pays no per-access
/// technology lookups. Obtained from [`MemoryBank::resolve`] and spent
/// through [`MemoryBank::access_resolved`]; the two paths share the same
/// arithmetic, so a resolved replay is bit-identical to
/// [`MemoryBank::access`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedAccess {
    /// The access kind these coefficients were resolved for.
    pub kind: AccessKind,
    /// Port service latency per word.
    pub latency: SimDuration,
    /// Dynamic energy per word.
    pub energy_per_word: Energy,
}

/// A single memory bank (see module docs).
///
/// # Examples
///
/// ```
/// use hhpim_mem::{MemoryBank, AccessKind};
/// use hhpim_sim::SimTime;
///
/// let mut bank = MemoryBank::new(hhpim_mem::hp_sram(), 64 * 1024);
/// bank.store(1024).unwrap();
/// let acc = bank.access(SimTime::ZERO, AccessKind::Read, 1).unwrap();
/// assert_eq!(acc.done_at.as_ps(), 1_120); // 1.12 ns HP-SRAM read
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBank {
    tech: MemoryTech,
    capacity: usize,
    /// Leakage while on: `tech.static_power_for(capacity)`, fixed at
    /// construction.
    static_power: Power,
    live_bytes: usize,
    port: BusyResource,
    state: GateState,
    gate: GateParams,
    last_accrual: SimTime,
    static_energy: Energy,
    dynamic_energy: Energy,
    wake_energy_total: Energy,
    reads: u64,
    writes: u64,
    wakeups: u64,
}

impl MemoryBank {
    /// Creates a powered-on, empty bank.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(tech: MemoryTech, capacity: usize) -> Self {
        assert!(capacity > 0, "bank capacity must be non-zero");
        MemoryBank {
            tech,
            capacity,
            static_power: tech.static_power_for(capacity),
            live_bytes: 0,
            port: BusyResource::new(),
            state: GateState::On,
            gate: GateParams::default(),
            last_accrual: SimTime::ZERO,
            static_energy: Energy::ZERO,
            dynamic_energy: Energy::ZERO,
            wake_energy_total: Energy::ZERO,
            reads: 0,
            writes: 0,
            wakeups: 0,
        }
    }

    /// Overrides the wake-up cost parameters.
    pub fn with_gate_params(mut self, gate: GateParams) -> Self {
        self.gate = gate;
        self
    }

    /// The bank's technology.
    pub fn tech(&self) -> &MemoryTech {
        &self.tech
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently holding live data.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> usize {
        self.capacity - self.live_bytes
    }

    /// Current power state.
    pub fn state(&self) -> GateState {
        self.state
    }

    /// Leakage power at the current state (zero when gated).
    pub fn static_power(&self) -> Power {
        match self.state {
            GateState::On => self.static_power,
            GateState::Gated => Power::ZERO,
        }
    }

    /// Accrued static energy up to the last [`Self::advance_to`] call.
    pub fn static_energy(&self) -> Energy {
        self.static_energy
    }

    /// Accumulated dynamic access energy.
    pub fn dynamic_energy(&self) -> Energy {
        self.dynamic_energy
    }

    /// Accumulated wake-up energy.
    pub fn wake_energy(&self) -> Energy {
        self.wake_energy_total
    }

    /// Total energy (static + dynamic + wake).
    pub fn total_energy(&self) -> Energy {
        self.static_energy + self.dynamic_energy + self.wake_energy_total
    }

    /// `(reads, writes, wakeups)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.wakeups)
    }

    /// Advances the static-energy accrual boundary to `now`.
    ///
    /// Must be called with monotonically non-decreasing times; earlier
    /// times are ignored.
    #[inline]
    pub fn advance_to(&mut self, now: SimTime) {
        if now <= self.last_accrual {
            return;
        }
        if self.state == GateState::On {
            let dt = now.saturating_since(self.last_accrual);
            self.static_energy += self.static_power * dt;
        }
        self.last_accrual = now;
    }

    /// Marks `bytes` of the bank as holding live data.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::CapacityExceeded`] if the bank is too full and
    /// [`BankError::Gated`] if the bank is gated.
    pub fn store(&mut self, bytes: usize) -> Result<(), BankError> {
        if self.state == GateState::Gated {
            return Err(BankError::Gated);
        }
        if bytes > self.free_bytes() {
            return Err(BankError::CapacityExceeded {
                requested: bytes,
                available: self.free_bytes(),
            });
        }
        self.live_bytes += bytes;
        Ok(())
    }

    /// Releases `bytes` of live data.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::Underflow`] if more bytes are freed than live.
    pub fn free(&mut self, bytes: usize) -> Result<(), BankError> {
        if bytes > self.live_bytes {
            return Err(BankError::Underflow);
        }
        self.live_bytes -= bytes;
        Ok(())
    }

    /// Issues an access of `words` sequential words (one latency + one
    /// dynamic-energy quantum each, serialized on the bank port).
    ///
    /// # Errors
    ///
    /// See [`MemoryBank::access_resolved`].
    pub fn access(
        &mut self,
        at: SimTime,
        kind: AccessKind,
        words: u64,
    ) -> Result<Access, BankError> {
        let resolved = self.resolve(kind);
        self.access_resolved(at, &resolved, words)
    }

    /// Resolves the per-word coefficients for `kind` from the bank's
    /// technology — done once at graph-lowering time so replay skips the
    /// per-access technology match.
    pub fn resolve(&self, kind: AccessKind) -> ResolvedAccess {
        let (latency, energy_per_word) = match kind {
            AccessKind::Read => (self.tech.timing.read, self.tech.read_energy()),
            AccessKind::Write => (self.tech.timing.write, self.tech.write_energy()),
        };
        ResolvedAccess {
            kind,
            latency,
            energy_per_word,
        }
    }

    /// The instant the bank's port is free for the next burst.
    #[inline]
    pub fn port_free_at(&self) -> SimTime {
        self.port.free_at()
    }

    /// The instant a burst of `words` issued at `at` would complete on
    /// the bank's port, or `None` when its service time or completion
    /// instant does not fit in [`SimTime`]. Changes nothing.
    #[inline]
    pub fn burst_done(
        &self,
        at: SimTime,
        resolved: &ResolvedAccess,
        words: u64,
    ) -> Option<SimTime> {
        let service = resolved.latency.checked_mul(words)?;
        self.port.free_at().max(at).checked_add(service)
    }

    /// [`MemoryBank::access`] with pre-resolved coefficients: identical
    /// gating check, port serialization, energy accrual and counters,
    /// minus the technology lookup.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::Gated`] if the bank is gated, and
    /// [`BankError::TimeOverflow`] if the burst would end past the last
    /// [`SimTime`] ([`MemoryBank::burst_done`]). Neither changes the
    /// bank.
    #[inline]
    pub fn access_resolved(
        &mut self,
        at: SimTime,
        resolved: &ResolvedAccess,
        words: u64,
    ) -> Result<Access, BankError> {
        if self.state == GateState::Gated {
            return Err(BankError::Gated);
        }
        if self.burst_done(at, resolved, words).is_none() {
            return Err(BankError::TimeOverflow);
        }
        self.commit(at, resolved, words, resolved.latency * words)
    }

    /// Charges a burst whose `service` time the caller has already
    /// computed and checked, so a kernel that times several bursts up
    /// front pays for each multiplication once: the same gating check,
    /// accrual to `at`, port serialization, `energy_per_word × words`
    /// and counters as [`MemoryBank::access_resolved`].
    ///
    /// `service` must be `resolved.latency × words`, and the burst must
    /// end within [`SimTime`] ([`MemoryBank::burst_done`] is `Some`);
    /// otherwise the completion instant is wrong or overflows.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::Gated`], with the bank unchanged, if the
    /// bank is gated.
    #[inline]
    pub fn commit(
        &mut self,
        at: SimTime,
        resolved: &ResolvedAccess,
        words: u64,
        service: SimDuration,
    ) -> Result<Access, BankError> {
        if self.state == GateState::Gated {
            return Err(BankError::Gated);
        }
        self.advance_to(at);
        let done_at = self.port.acquire(at, service);
        let energy = resolved.energy_per_word * words;
        self.dynamic_energy += energy;
        match resolved.kind {
            AccessKind::Read => self.reads += words,
            AccessKind::Write => self.writes += words,
        }
        Ok(Access { done_at, energy })
    }

    /// Power-gates the bank at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::WouldLoseData`] for a volatile (SRAM) bank
    /// that still holds live data. MRAM banks may always be gated.
    pub fn gate(&mut self, now: SimTime) -> Result<(), BankError> {
        if !self.tech.kind.is_non_volatile() && self.live_bytes > 0 {
            return Err(BankError::WouldLoseData {
                live_bytes: self.live_bytes,
            });
        }
        self.advance_to(now);
        self.state = GateState::Gated;
        Ok(())
    }

    /// Wakes a gated bank; returns the instant it becomes accessible.
    /// A no-op (returning `now`) when already on.
    pub fn ungate(&mut self, now: SimTime) -> SimTime {
        self.advance_to(now);
        if self.state == GateState::On {
            return now;
        }
        self.state = GateState::On;
        self.wakeups += 1;
        self.wake_energy_total += self.gate.wake_energy;
        // The port is considered busy during wake-up.
        self.port.acquire(now, self.gate.wake_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::{hp_mram, hp_sram, lp_mram};

    #[test]
    fn access_latency_and_energy() {
        let mut b = MemoryBank::new(hp_mram(), 64 * 1024);
        let a = b.access(SimTime::ZERO, AccessKind::Read, 1).unwrap();
        assert_eq!(a.done_at, SimTime::ZERO + SimDuration::from_ns_f64(2.62));
        assert!((a.energy.as_pj() - 1122.6).abs() < 0.1);
        let w = b.access(a.done_at, AccessKind::Write, 1).unwrap();
        assert_eq!(w.done_at, a.done_at + SimDuration::from_ns_f64(11.81));
        assert_eq!(b.counters(), (1, 1, 0));
    }

    #[test]
    fn port_serializes_concurrent_accesses() {
        let mut b = MemoryBank::new(hp_sram(), 1024);
        let a1 = b.access(SimTime::ZERO, AccessKind::Read, 1).unwrap();
        let a2 = b.access(SimTime::ZERO, AccessKind::Read, 1).unwrap();
        assert_eq!(a2.done_at, a1.done_at + SimDuration::from_ns_f64(1.12));
    }

    #[test]
    fn burst_access_scales() {
        let mut b = MemoryBank::new(hp_sram(), 1024);
        let a = b.access(SimTime::ZERO, AccessKind::Read, 10).unwrap();
        assert_eq!(a.done_at.as_ps(), 11_200);
        assert!((a.energy.as_pj() - 5700.0).abs() < 1.0);
    }

    #[test]
    fn static_energy_accrues_only_when_on() {
        let mut b = MemoryBank::new(hp_sram(), 64 * 1024);
        b.advance_to(SimTime::from_ns(1000));
        // 23.29 mW × 1000 ns = 23290 pJ.
        assert!((b.static_energy().as_pj() - 23_290.0).abs() < 1.0);
        b.gate(SimTime::from_ns(1000)).unwrap();
        b.advance_to(SimTime::from_ns(2000));
        assert!((b.static_energy().as_pj() - 23_290.0).abs() < 1.0);
    }

    #[test]
    fn sram_gating_protects_live_data() {
        let mut b = MemoryBank::new(hp_sram(), 1024);
        b.store(10).unwrap();
        assert_eq!(
            b.gate(SimTime::ZERO),
            Err(BankError::WouldLoseData { live_bytes: 10 })
        );
        b.free(10).unwrap();
        assert!(b.gate(SimTime::ZERO).is_ok());
    }

    #[test]
    fn mram_gating_retains_data() {
        let mut b = MemoryBank::new(lp_mram(), 1024);
        b.store(512).unwrap();
        b.gate(SimTime::ZERO).unwrap();
        assert_eq!(b.live_bytes(), 512, "non-volatile contents survive gating");
        assert_eq!(
            b.access(SimTime::ZERO, AccessKind::Read, 1),
            Err(BankError::Gated)
        );
        let ready = b.ungate(SimTime::from_ns(100));
        assert!(ready > SimTime::from_ns(100), "wake-up takes time");
        assert!(b.access(ready, AccessKind::Read, 1).is_ok());
        assert_eq!(b.counters().2, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut b = MemoryBank::new(hp_sram(), 100);
        b.store(60).unwrap();
        assert_eq!(
            b.store(50),
            Err(BankError::CapacityExceeded {
                requested: 50,
                available: 40
            })
        );
        assert_eq!(b.free(70), Err(BankError::Underflow));
        assert_eq!(b.free_bytes(), 40);
    }

    #[test]
    fn gated_bank_rejects_store() {
        let mut b = MemoryBank::new(lp_mram(), 100);
        b.gate(SimTime::ZERO).unwrap();
        assert_eq!(b.store(1), Err(BankError::Gated));
    }

    #[test]
    fn static_power_reflects_state() {
        let mut b = MemoryBank::new(hp_sram(), 64 * 1024);
        assert!((b.static_power().as_mw() - 23.29).abs() < 1e-9);
        b.gate(SimTime::ZERO).unwrap();
        assert_eq!(b.static_power(), Power::ZERO);
    }

    #[test]
    fn ungate_when_on_is_noop() {
        let mut b = MemoryBank::new(hp_sram(), 1024);
        let t = b.ungate(SimTime::from_ns(5));
        assert_eq!(t, SimTime::from_ns(5));
        assert_eq!(b.counters().2, 0);
        assert_eq!(b.wake_energy(), Energy::ZERO);
    }

    #[test]
    fn resolved_access_is_bit_identical_to_access() {
        let mut a = MemoryBank::new(hp_mram(), 64 * 1024);
        let mut b = a.clone();
        let read = b.resolve(AccessKind::Read);
        let write = b.resolve(AccessKind::Write);
        for (t, words) in [(0u64, 3u64), (5, 1), (5, 7), (40, 255)] {
            let at = SimTime::from_ns(t);
            let lhs = a.access(at, AccessKind::Read, words).unwrap();
            let rhs = b.access_resolved(at, &read, words).unwrap();
            assert_eq!(lhs, rhs);
            let lhs = a.access(at, AccessKind::Write, words).unwrap();
            let rhs = b.access_resolved(at, &write, words).unwrap();
            assert_eq!(lhs, rhs);
        }
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.dynamic_energy().as_pj(), b.dynamic_energy().as_pj());
        assert_eq!(a.static_energy().as_pj(), b.static_energy().as_pj());
        // Gating is still enforced on the resolved path.
        a.gate(SimTime::from_ns(1000)).unwrap();
        b.gate(SimTime::from_ns(1000)).unwrap();
        assert_eq!(
            b.access_resolved(SimTime::from_ns(1001), &read, 1),
            Err(BankError::Gated)
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(BankError::Gated.to_string(), "bank is power-gated");
        assert!(BankError::WouldLoseData { live_bytes: 3 }
            .to_string()
            .contains("3 live"));
    }
}
