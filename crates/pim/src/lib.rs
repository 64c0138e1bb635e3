//! # hhpim-pim — structural PIM hardware models
//!
//! The RTL-equivalent of the paper's PIM processor, modelled at the
//! transaction level with bit-accurate data:
//!
//! * [`ProcessingElement`] — INT8 MAC datapath with a 32-bit
//!   accumulator, timed and powered per Tables III/V,
//! * [`PimModule`] — hybrid MRAM+SRAM module whose interface
//!   synchronizes the differing bank latencies in the LOAD state,
//! * [`Cluster`] — HP-/LP-PIM module cluster with its controller
//!   (issue pipeline, Data Allocator, Data Rearrange Buffer, MEM
//!   interface whose bandwidth scales with module count),
//! * [`PimMachine`] — the full machine: instruction queue, one or two
//!   clusters, inter-cluster transfers and an energy/latency report.
//!
//! Banks hold real bytes, so entire quantized networks can be run
//! through the machine and checked against a software reference — the
//! same functional verification the paper performs on its FPGA
//! prototype. Their pages materialize on first write
//! ([`PAGE_BYTES`]), so a machine pays host memory only for the bytes
//! it has written.
//!
//! # Examples
//!
//! ```
//! use hhpim_pim::{PimMachine, MachineConfig};
//! use hhpim_isa::{assemble, MemSelect};
//!
//! // A dot product on HP module 0, weights in MRAM.
//! let mut machine = PimMachine::new(MachineConfig::default());
//! machine.preload(0, MemSelect::Mram, 0, &[1, 2, 3]).unwrap();
//! machine.preload_activations(0, &[4, 5, 6]).unwrap();
//! let program = assemble("clr m0\nmac m0 mram @0 x3\nbarrier\nhalt").unwrap();
//! machine.run_program(&program).unwrap();
//! assert_eq!(machine.module(0).pe().accumulator(), 4 + 10 + 18);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod machine;
pub mod module;
pub mod pe;

pub use cluster::{Cluster, ControllerConfig, TransferChunk};
pub use machine::{EnergyCat, MachineConfig, MachineError, PimMachine, RunReport};
pub use module::{ModuleConfig, ModuleError, PimModule, PAGE_BYTES};
pub use pe::ProcessingElement;
