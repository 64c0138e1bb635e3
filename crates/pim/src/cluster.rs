//! A PIM module cluster and its controller.
//!
//! HH-PIM pairs an HP-PIM cluster with an LP-PIM cluster, each managed
//! by its own controller (Fig. 1/2 of the paper). The controller runs
//! the FETCH-DECODE-LOAD-EXECUTE-STORE cycle: here, FETCH/DECODE and
//! per-module command dispatch charge controller overhead on a shared
//! issue pipeline, while LOAD/EXECUTE/STORE timing is paid inside the
//! modules themselves. The controller *issues* and moves on — module
//! `free_at` bookkeeping provides the pipelining, and `Barrier`
//! resynchronizes, exactly as the dual-controller design synchronizes
//! components operating at different speeds.

use crate::module::{ModuleConfig, ModuleError, PimModule};
use hhpim_isa::MemSelect;
use hhpim_mem::{ClusterClass, Energy, Power, ResolvedAccess};
use hhpim_sim::{BusyResource, Clock, Frequency, SimDuration, SimTime};

/// Controller timing/power parameters.
///
/// The paper reports controller *area* (Table II) but not its power; the
/// defaults below are small relative to memory/PE energy and are
/// calibration knobs, documented in DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Controller clock domain.
    pub clock: Clock,
    /// Cycles charged per instruction for FETCH + DECODE.
    pub fetch_decode_cycles: u64,
    /// Extra cycles per selected module for command encode/dispatch.
    pub dispatch_cycles_per_module: u64,
    /// Dynamic energy charged per decoded instruction.
    pub dynamic_per_inst: Energy,
    /// Controller leakage while the cluster is powered.
    pub static_power: Power,
    /// Per-module MEM-interface bandwidth in bytes per cycle (the MEM
    /// Interface Logic is "scaled according to the number of PIM
    /// modules", so total bandwidth grows with cluster size).
    pub mem_if_bytes_per_cycle: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            clock: Clock::new(Frequency::from_ghz(1)),
            fetch_decode_cycles: 2,
            dispatch_cycles_per_module: 1,
            dynamic_per_inst: Energy::from_pj(6.0),
            static_power: Power::from_mw(0.35),
            mem_if_bytes_per_cycle: 8,
        }
    }
}

/// A chunk of data staged in the Data Rearrange Buffer for delivery to
/// the opposite cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferChunk {
    /// Index of the source module *within its cluster*.
    pub src_module: usize,
    /// Destination byte address (the Address Generator reuses the source
    /// address by default).
    pub addr: usize,
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Instant the chunk became available in the buffer.
    pub available_at: SimTime,
}

/// A cluster: `n` identical PIM modules plus their controller.
#[derive(Debug, Clone)]
pub struct Cluster {
    class: ClusterClass,
    modules: Vec<PimModule>,
    issue: BusyResource,
    cfg: ControllerConfig,
    /// `cfg.clock.period()`, fixed at construction.
    period: SimDuration,
    ctrl_dynamic: Energy,
    ctrl_static: Energy,
    last_accrual: SimTime,
    instructions_issued: u64,
}

impl Cluster {
    /// Creates a cluster of `n` modules.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(
        class: ClusterClass,
        n: usize,
        module_cfg: ModuleConfig,
        cfg: ControllerConfig,
    ) -> Self {
        assert!(n > 0, "cluster must contain at least one module");
        Cluster {
            class,
            modules: (0..n).map(|_| PimModule::new(class, module_cfg)).collect(),
            issue: BusyResource::new(),
            cfg,
            period: cfg.clock.period(),
            ctrl_dynamic: Energy::ZERO,
            ctrl_static: Energy::ZERO,
            last_accrual: SimTime::ZERO,
            instructions_issued: 0,
        }
    }

    /// The cluster's class (HP or LP).
    pub fn class(&self) -> ClusterClass {
        self.class
    }

    /// Number of modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the cluster has no modules (never true).
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Shared access to a module.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn module(&self, idx: usize) -> &PimModule {
        &self.modules[idx]
    }

    /// Exclusive access to a module.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn module_mut(&mut self, idx: usize) -> &mut PimModule {
        &mut self.modules[idx]
    }

    /// Iterates the cluster's modules.
    pub fn modules(&self) -> impl Iterator<Item = &PimModule> {
        self.modules.iter()
    }

    /// Instructions issued by this controller.
    pub fn instructions_issued(&self) -> u64 {
        self.instructions_issued
    }

    /// Controller dynamic energy so far.
    pub fn controller_dynamic_energy(&self) -> Energy {
        self.ctrl_dynamic
    }

    /// Controller static energy accrued so far.
    pub fn controller_static_energy(&self) -> Energy {
        self.ctrl_static
    }

    /// Instant when every module (and the issue pipeline) is idle.
    pub fn all_free_at(&self) -> SimTime {
        self.modules
            .iter()
            .map(PimModule::free_at)
            .chain(std::iter::once(self.issue.free_at()))
            .max()
            .expect("cluster is non-empty")
    }

    /// Advances static accrual of controller and modules to `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        if now > self.last_accrual {
            let dt = now.saturating_since(self.last_accrual);
            self.ctrl_static += self.cfg.static_power * dt;
            self.last_accrual = now;
        }
        for m in &mut self.modules {
            m.advance_to(now);
        }
    }

    /// Charges controller issue overhead for an instruction targeting
    /// `selected` modules; returns the instant dispatch completes.
    #[inline]
    pub fn issue(&mut self, at: SimTime, selected: usize) -> SimTime {
        let cycles =
            self.cfg.fetch_decode_cycles + self.cfg.dispatch_cycles_per_module * selected as u64;
        let dur = self.period * cycles;
        self.ctrl_dynamic += self.cfg.dynamic_per_inst;
        self.instructions_issued += 1;
        self.issue.acquire(at, dur)
    }

    /// MEM-interface transfer time for `bytes` on one module lane.
    pub fn mem_if_latency(&self, bytes: usize) -> SimDuration {
        let cycles = (bytes as u64).div_ceil(self.cfg.mem_if_bytes_per_cycle);
        self.period * cycles
    }

    /// Runs `op` on every module selected by the local `mask` bits,
    /// starting after controller dispatch; returns the latest completion.
    ///
    /// # Errors
    ///
    /// Returns the first module error with its local index.
    pub fn for_selected<F>(
        &mut self,
        at: SimTime,
        mask: u8,
        mut op: F,
    ) -> Result<SimTime, (usize, ModuleError)>
    where
        F: FnMut(&mut PimModule, SimTime) -> Result<SimTime, ModuleError>,
    {
        let selected = (mask as u32).count_ones() as usize;
        let dispatched = self.issue(at, selected);
        let mut latest = dispatched;
        for idx in 0..self.modules.len().min(8) {
            if (mask >> idx) & 1 == 1 {
                let done = op(&mut self.modules[idx], dispatched).map_err(|e| (idx, e))?;
                latest = latest.max(done);
            }
        }
        Ok(latest)
    }

    /// The timing-graph replay kernel for one compiled schedule split:
    /// [`Cluster::for_selected`] over [`PimModule::mac_stream_resolved`].
    /// It charges the issue of one instruction selecting the modules of
    /// the local `mask`, then streams `count` MACs on each of them, in
    /// ascending local index, from the dispatch instant, and returns the
    /// latest of the dispatch instant and every module's completion,
    /// which is all a barrier needs. A replay makes one call per cluster
    /// and node, and the per-module loop is compiled inside this crate.
    ///
    /// # Errors
    ///
    /// Returns the first module error with its local index; the modules
    /// before it have streamed.
    #[allow(clippy::too_many_arguments)]
    pub fn mac_stream_resolved(
        &mut self,
        at: SimTime,
        mask: u8,
        mem: MemSelect,
        weights: &ResolvedAccess,
        acts: &ResolvedAccess,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, (usize, ModuleError)> {
        self.for_selected(at, mask, |module, dispatched| {
            module.mac_stream_resolved(dispatched, mem, weights, acts, addr, count)
        })
    }

    /// Reads chunks out of the selected modules into the Data Rearrange
    /// Buffer (the outbound half of an inter-cluster transfer). Each
    /// chunk's availability includes the module read and a MEM-interface
    /// hop; lanes run in parallel across modules.
    ///
    /// # Errors
    ///
    /// Returns the first module error with its local index.
    pub fn export_chunks(
        &mut self,
        at: SimTime,
        mask: u8,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<Vec<TransferChunk>, (usize, ModuleError)> {
        let selected = (mask as u32).count_ones() as usize;
        let dispatched = self.issue(at, selected);
        let hop = self.mem_if_latency(count);
        let mut chunks = Vec::with_capacity(selected);
        for idx in 0..self.modules.len().min(8) {
            if (mask >> idx) & 1 == 1 {
                let (done, data) = self.modules[idx]
                    .read_words(dispatched, mem, addr, count)
                    .map_err(|e| (idx, e))?;
                chunks.push(TransferChunk {
                    src_module: idx,
                    addr,
                    data,
                    available_at: done + hop,
                });
            }
        }
        Ok(chunks)
    }

    /// Writes buffered chunks into this cluster's modules (the inbound
    /// half of an inter-cluster transfer). The Address Generator maps
    /// source module `i` to destination module `i % len` at the chunk's
    /// address; the Data Rearrange Buffer holds each chunk until the
    /// destination module is ready, preventing conflicts from the
    /// HP/LP speed mismatch.
    ///
    /// # Errors
    ///
    /// Returns the first module error with its local (destination) index.
    pub fn import_chunks(
        &mut self,
        chunks: &[TransferChunk],
        mem: MemSelect,
    ) -> Result<SimTime, (usize, ModuleError)> {
        let mut latest = SimTime::ZERO;
        for chunk in chunks {
            let dst = chunk.src_module % self.modules.len();
            let hop = self.mem_if_latency(chunk.data.len());
            let start = chunk.available_at + hop;
            let done = self.modules[dst]
                .write_words(start, mem, chunk.addr, &chunk.data)
                .map_err(|e| (dst, e))?;
            latest = latest.max(done);
        }
        Ok(latest)
    }

    /// Total energy across modules plus the controller.
    pub fn total_energy(&self) -> Energy {
        self.modules
            .iter()
            .map(PimModule::total_energy)
            .sum::<Energy>()
            + self.ctrl_dynamic
            + self.ctrl_static
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(
            ClusterClass::HighPerformance,
            n,
            ModuleConfig::default(),
            ControllerConfig::default(),
        )
    }

    #[test]
    fn issue_charges_overhead() {
        let mut c = cluster(4);
        // 2 + 4×1 = 6 cycles at 1 GHz = 6 ns.
        let done = c.issue(SimTime::ZERO, 4);
        assert_eq!(done, SimTime::from_ns(6));
        assert_eq!(c.instructions_issued(), 1);
        assert!(c.controller_dynamic_energy().as_pj() > 0.0);
    }

    #[test]
    fn for_selected_targets_masked_modules() {
        let mut c = cluster(4);
        for i in 0..4 {
            c.module_mut(i)
                .preload(MemSelect::Sram, 0, &[1u8; 4])
                .unwrap();
        }
        // Modules 0 and 2 only.
        let done = c
            .for_selected(SimTime::ZERO, 0b0101, |m, at| {
                m.mac(at, MemSelect::Sram, 0, 4)
            })
            .unwrap();
        assert!(done > SimTime::ZERO);
        assert_eq!(c.module(0).pe().macs_retired(), 4);
        assert_eq!(c.module(1).pe().macs_retired(), 0);
        assert_eq!(c.module(2).pe().macs_retired(), 4);
    }

    #[test]
    fn modules_work_in_parallel() {
        let mut c = cluster(4);
        for i in 0..4 {
            c.module_mut(i)
                .preload(MemSelect::Sram, 0, &[1u8; 64])
                .unwrap();
        }
        let one = {
            let mut c1 = cluster(1);
            c1.module_mut(0)
                .preload(MemSelect::Sram, 0, &[1u8; 64])
                .unwrap();
            c1.for_selected(SimTime::ZERO, 0b0001, |m, at| {
                m.mac(at, MemSelect::Sram, 0, 64)
            })
            .unwrap()
        };
        let four = c
            .for_selected(SimTime::ZERO, 0b1111, |m, at| {
                m.mac(at, MemSelect::Sram, 0, 64)
            })
            .unwrap();
        // Four modules each doing the same burst finish barely later than
        // one (only extra dispatch cycles), not 4× later.
        let slack = four.saturating_since(one);
        assert!(slack < SimDuration::from_ns(10), "slack was {slack}");
    }

    #[test]
    fn export_import_roundtrip_moves_data() {
        let mut src = cluster(2);
        let mut dst = Cluster::new(
            ClusterClass::LowPower,
            2,
            ModuleConfig::default(),
            ControllerConfig::default(),
        );
        src.module_mut(0)
            .preload(MemSelect::Sram, 16, &[9u8, 8, 7])
            .unwrap();
        src.module_mut(1)
            .preload(MemSelect::Sram, 16, &[1u8, 2, 3])
            .unwrap();
        let chunks = src
            .export_chunks(SimTime::ZERO, 0b11, MemSelect::Sram, 16, 3)
            .unwrap();
        assert_eq!(chunks.len(), 2);
        let done = dst.import_chunks(&chunks, MemSelect::Mram).unwrap();
        assert!(done > SimTime::ZERO);
        assert_eq!(
            dst.module(0).read_back(MemSelect::Mram, 16, 3).unwrap(),
            &[9, 8, 7]
        );
        assert_eq!(
            dst.module(1).read_back(MemSelect::Mram, 16, 3).unwrap(),
            &[1, 2, 3]
        );
    }

    #[test]
    fn import_wraps_destination_index() {
        let mut src = cluster(4);
        let mut dst = Cluster::new(
            ClusterClass::LowPower,
            2,
            ModuleConfig::default(),
            ControllerConfig::default(),
        );
        for i in 0..4 {
            src.module_mut(i)
                .preload(MemSelect::Sram, 0, &[i as u8 + 1; 2])
                .unwrap();
        }
        let chunks = src
            .export_chunks(SimTime::ZERO, 0b1111, MemSelect::Sram, 0, 2)
            .unwrap();
        dst.import_chunks(&chunks, MemSelect::Sram).unwrap();
        // Sources 2,3 wrap onto destinations 0,1 (overwriting 0,1's data
        // at the same address — last writer wins).
        assert_eq!(
            dst.module(0).read_back(MemSelect::Sram, 0, 2).unwrap(),
            &[3, 3]
        );
        assert_eq!(
            dst.module(1).read_back(MemSelect::Sram, 0, 2).unwrap(),
            &[4, 4]
        );
    }

    #[test]
    fn static_energy_accrues() {
        let mut c = cluster(2);
        c.advance_to(SimTime::from_ns(1_000));
        assert!(c.controller_static_energy().as_pj() > 0.0);
        assert!(c.total_energy().as_pj() > 0.0);
    }

    #[test]
    fn mem_if_latency_scales_with_bytes() {
        let c = cluster(1);
        assert_eq!(c.mem_if_latency(8), SimDuration::from_ns(1));
        assert_eq!(c.mem_if_latency(9), SimDuration::from_ns(2));
        assert_eq!(c.mem_if_latency(64), SimDuration::from_ns(8));
    }

    #[test]
    fn error_carries_module_index() {
        let mut c = cluster(2);
        // Module 1's MRAM gated: MAC against it must fail with idx 1.
        c.module_mut(1)
            .set_gated(SimTime::ZERO, MemSelect::Mram, true)
            .unwrap();
        c.module_mut(0)
            .preload(MemSelect::Mram, 0, &[1u8; 2])
            .unwrap();
        let err = c
            .for_selected(SimTime::ZERO, 0b11, |m, at| {
                m.mac(at, MemSelect::Mram, 0, 2)
            })
            .unwrap_err();
        assert_eq!(err.0, 1);
    }
}
