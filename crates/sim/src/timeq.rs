//! An indexed time queue for flat timing-graph replay.
//!
//! A lowered timing graph needs no general event heap — it tracks one
//! monotonically non-decreasing completion instant per hardware slot
//! (module `free_at`s, controller issue pipelines) and only ever asks
//! for the *latest* of them at a barrier. [`TimeQueue`] is that
//! structure: a flat `Vec<SimTime>` indexed by slot id, with a cached
//! running maximum.
//!
//! Correctness rests on monotonicity: [`TimeQueue::raise`] requires
//! completion times to only grow (true for busy-until resources, whose
//! `acquire` never returns an earlier instant), so the cached maximum
//! never needs recomputation — `max()` is `O(1)` and the whole queue is
//! allocation-free after construction.

use crate::time::SimTime;

/// A fixed-slot time queue: per-slot monotone completion instants with
/// an `O(1)` running maximum.
///
/// # Examples
///
/// ```
/// use hhpim_sim::{SimTime, TimeQueue};
///
/// let mut tq = TimeQueue::new(3);
/// tq.raise(0, SimTime::from_ns(5));
/// tq.raise(2, SimTime::from_ns(9));
/// assert_eq!(tq.max(), SimTime::from_ns(9));
/// assert_eq!(tq.get(1), SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct TimeQueue {
    slots: Vec<SimTime>,
    max: SimTime,
}

impl Default for TimeQueue {
    /// An empty (zero-slot) queue; resize by constructing anew.
    fn default() -> Self {
        TimeQueue::new(0)
    }
}

impl TimeQueue {
    /// Creates a queue of `slots` entries, all at [`SimTime::ZERO`].
    pub fn new(slots: usize) -> Self {
        TimeQueue {
            slots: vec![SimTime::ZERO; slots],
            max: SimTime::ZERO,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the queue has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current completion instant of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn get(&self, slot: usize) -> SimTime {
        self.slots[slot]
    }

    /// Raises `slot` to complete at `t`; instants only move forward, so
    /// an earlier `t` leaves the slot (and the maximum) untouched.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn raise(&mut self, slot: usize, t: SimTime) {
        if t > self.slots[slot] {
            self.slots[slot] = t;
        }
        if t > self.max {
            self.max = t;
        }
    }

    /// Overwrites `slot` with `t` without the monotone check, then
    /// restores the cached maximum by rescan. For (re)seeding a queue
    /// from live machine state at replay start; `O(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn seed(&mut self, slot: usize, t: SimTime) {
        self.slots[slot] = t;
        self.max = self.slots.iter().copied().max().unwrap_or(SimTime::ZERO);
    }

    /// The latest completion instant across all slots — the barrier
    /// resynchronization point. `O(1)`.
    pub fn max(&self) -> SimTime {
        self.max
    }

    /// Resets every slot (and the maximum) to `t`.
    pub fn reset(&mut self, t: SimTime) {
        self.slots.fill(t);
        self.max = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_is_monotone_and_tracks_max() {
        let mut tq = TimeQueue::new(4);
        tq.raise(0, SimTime::from_ns(10));
        tq.raise(1, SimTime::from_ns(20));
        assert_eq!(tq.max(), SimTime::from_ns(20));
        // Lower raise is ignored.
        tq.raise(1, SimTime::from_ns(5));
        assert_eq!(tq.get(1), SimTime::from_ns(20));
        assert_eq!(tq.max(), SimTime::from_ns(20));
        tq.raise(3, SimTime::from_ns(30));
        assert_eq!(tq.max(), SimTime::from_ns(30));
    }

    #[test]
    fn seed_overwrites_and_rescans() {
        let mut tq = TimeQueue::new(3);
        tq.raise(0, SimTime::from_ns(50));
        tq.seed(0, SimTime::from_ns(7));
        assert_eq!(tq.get(0), SimTime::from_ns(7));
        assert_eq!(tq.max(), SimTime::from_ns(7));
        tq.seed(2, SimTime::from_ns(3));
        assert_eq!(tq.max(), SimTime::from_ns(7));
    }

    #[test]
    fn reset_restores_uniform_state() {
        let mut tq = TimeQueue::new(2);
        tq.raise(1, SimTime::from_ns(99));
        tq.reset(SimTime::from_ns(4));
        assert_eq!(tq.get(0), SimTime::from_ns(4));
        assert_eq!(tq.get(1), SimTime::from_ns(4));
        assert_eq!(tq.max(), SimTime::from_ns(4));
    }

    #[test]
    fn empty_queue_maxes_at_zero() {
        let tq = TimeQueue::new(0);
        assert!(tq.is_empty());
        assert_eq!(tq.max(), SimTime::ZERO);
        assert_eq!(TimeQueue::new(3).len(), 3);
    }
}
