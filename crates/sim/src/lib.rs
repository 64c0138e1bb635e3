//! # hhpim-sim — simulated time and busy-until resources
//!
//! The timing substrate for the HH-PIM reproduction (DAC 2025): exact,
//! deterministic time keeping with picosecond resolution.
//!
//! The paper evaluates its architecture with an RTL design prototyped on
//! an FPGA; this crate provides the equivalent *measurement instrument*
//! in software. It deliberately contains no PIM-specific logic — the
//! structural hardware models live in `hhpim-pim` and build on:
//!
//! * [`SimTime`] / [`SimDuration`] / [`Frequency`] / [`Clock`] — exact
//!   integer time keeping and clock-domain conversion ([`time`]).
//! * [`BusyResource`] — the busy-until model of a port, PE or bus
//!   ([`resource`]).
//!
//! # Examples
//!
//! ```
//! use hhpim_sim::{BusyResource, Clock, Frequency, SimDuration, SimTime};
//!
//! // A 50 MHz memory port serving two 25 ns reads back to back.
//! let clk = Clock::new(Frequency::from_mhz(50));
//! let service = clk.cycles_to_duration(clk.cycles_for(SimDuration::from_ns(25)));
//! let mut port = BusyResource::new();
//! let first = port.acquire(SimTime::ZERO, service);
//! let second = port.acquire(SimTime::ZERO, service);
//! assert_eq!(first, SimTime::from_ns(40)); // 25 ns rounds to 2 cycles
//! assert_eq!(second, SimTime::from_ns(80));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod resource;
pub mod time;

pub use resource::BusyResource;
pub use time::{Clock, Frequency, SimDuration, SimTime};
