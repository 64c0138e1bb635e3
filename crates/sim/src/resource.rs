//! Busy-until resource modelling.
//!
//! Cycle-level hardware models in this workspace mostly need one
//! primitive: a shared resource (memory port, PE, bus) that serves one
//! request at a time with a deterministic service latency. [`BusyResource`]
//! captures that.

use crate::time::{SimDuration, SimTime};

/// A single-server resource with earliest-availability semantics.
///
/// # Examples
///
/// ```
/// use hhpim_sim::{BusyResource, SimDuration, SimTime};
/// let mut port = BusyResource::new();
/// // Two back-to-back 10 ns accesses issued at t=0 finish at 10 and 20 ns.
/// let done1 = port.acquire(SimTime::ZERO, SimDuration::from_ns(10));
/// let done2 = port.acquire(SimTime::ZERO, SimDuration::from_ns(10));
/// assert_eq!(done1, SimTime::from_ns(10));
/// assert_eq!(done2, SimTime::from_ns(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusyResource {
    free_at: SimTime,
    busy_total: SimDuration,
    served: u64,
}

impl BusyResource {
    /// Creates a resource that is free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instant at which the resource next becomes free.
    #[inline]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Whether the resource is free at `now`.
    pub fn is_free(&self, now: SimTime) -> bool {
        self.free_at <= now
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Serves a request arriving at `at` with the given `service` time;
    /// returns the completion instant. Requests queue FIFO: service starts
    /// at `max(at, free_at)`.
    #[inline]
    pub fn acquire(&mut self, at: SimTime, service: SimDuration) -> SimTime {
        let start = self.free_at.max(at);
        let done = start + service;
        self.free_at = done;
        self.busy_total += service;
        self.served += 1;
        done
    }

    /// Resets availability and statistics to time zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queueing() {
        let mut r = BusyResource::new();
        assert!(r.is_free(SimTime::ZERO));
        let d1 = r.acquire(SimTime::from_ns(5), SimDuration::from_ns(10));
        assert_eq!(d1, SimTime::from_ns(15));
        // Arrives while busy: waits.
        let d2 = r.acquire(SimTime::from_ns(6), SimDuration::from_ns(1));
        assert_eq!(d2, SimTime::from_ns(16));
        // Arrives after idle gap: starts immediately.
        let d3 = r.acquire(SimTime::from_ns(100), SimDuration::from_ns(2));
        assert_eq!(d3, SimTime::from_ns(102));
        assert_eq!(r.busy_total(), SimDuration::from_ns(13));
        assert_eq!(r.served(), 3);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = BusyResource::new();
        r.acquire(SimTime::ZERO, SimDuration::from_ns(10));
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        assert_eq!(r.busy_total(), SimDuration::ZERO);
        assert_eq!(r.served(), 0);
    }
}
