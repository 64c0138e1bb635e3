//! The full PIM machine: instruction queue, one or two clusters, and
//! the energy/latency report.
//!
//! Global module indices span both clusters: with `n_hp` HP modules and
//! `n_lp` LP modules, mask bit `i < n_hp` selects HP module `i` and bit
//! `n_hp <= i < n_hp+n_lp` selects LP module `i - n_hp`. This matches
//! Table I, where every architecture has 8 modules total.

use crate::cluster::{Cluster, ControllerConfig};
use crate::module::{ModuleConfig, ModuleError, PimModule};
use hhpim_isa::{
    DecodeError, InstructionQueue, MemSelect, ModuleMask, PimInstruction, QueueFullError,
};
use hhpim_mem::{ClusterClass, Energy, EnergyLedger, MemKind};
use hhpim_sim::SimTime;
use std::fmt;

/// Energy-report category for the machine ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EnergyCat {
    /// Dynamic access energy of a memory type.
    MemDynamic(ClusterClass, MemKind),
    /// Leakage of a memory type.
    MemStatic(ClusterClass, MemKind),
    /// Power-gating wake-up charges of a memory type.
    MemWake(ClusterClass, MemKind),
    /// PE compute energy.
    PeDynamic(ClusterClass),
    /// PE leakage.
    PeStatic(ClusterClass),
    /// Controller issue + leakage energy.
    Controller(ClusterClass),
}

/// Errors surfaced while running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A queue word failed to decode.
    Decode(DecodeError),
    /// A module rejected an operation (global module index attached).
    Module {
        /// Global module index.
        module: usize,
        /// Underlying error.
        error: ModuleError,
    },
    /// The instruction queue overflowed.
    QueueFull(QueueFullError),
    /// An instruction selected module indices beyond the configuration.
    NoSuchModule {
        /// The offending mask.
        mask: u8,
        /// Total modules configured.
        modules: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Decode(e) => write!(f, "decode error: {e}"),
            MachineError::Module { module, error } => {
                write!(f, "module {module}: {error}")
            }
            MachineError::QueueFull(e) => write!(f, "{e}"),
            MachineError::NoSuchModule { mask, modules } => {
                write!(
                    f,
                    "mask {mask:#010b} selects modules beyond the {modules} configured"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<DecodeError> for MachineError {
    fn from(e: DecodeError) -> Self {
        MachineError::Decode(e)
    }
}

impl From<QueueFullError> for MachineError {
    fn from(e: QueueFullError) -> Self {
        MachineError::QueueFull(e)
    }
}

/// Machine shape: module counts and per-module memory sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of HP-PIM modules.
    pub hp_modules: usize,
    /// Number of LP-PIM modules (0 for homogeneous machines).
    pub lp_modules: usize,
    /// Per-module memory configuration.
    pub module: ModuleConfig,
    /// Controller parameters (shared by both controllers).
    pub controller: ControllerConfig,
    /// Instruction queue depth.
    pub queue_depth: usize,
}

impl Default for MachineConfig {
    /// The paper's HH-PIM: 4 HP + 4 LP modules, 64 kB MRAM + 64 kB SRAM
    /// each (Table I).
    fn default() -> Self {
        MachineConfig {
            hp_modules: 4,
            lp_modules: 4,
            module: ModuleConfig::default(),
            controller: ControllerConfig::default(),
            queue_depth: 1024,
        }
    }
}

/// Allocation-free snapshot of the machine's observable totals, for
/// loops that only need deltas between instants: the timing-graph
/// replay's per-layer accounting, and the cycle backend's slice total
/// and migration energy.
///
/// [`PimMachine::probe`] performs the same static-energy accrual and
/// the same per-module, then per-category f64 additions as
/// [`PimMachine::report`], so every field is bit-identical to what the
/// ledger would hold — without building one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProbe {
    /// Total energy across every category, bit-identical to
    /// `report().total_energy()`.
    pub total: Energy,
    /// Dynamic memory energy indexed `[class][kind]` (class 0 = HP,
    /// 1 = LP; kind 0 = SRAM, 1 = MRAM), each bit-identical to
    /// `report().energy.get(EnergyCat::MemDynamic(class, kind))`, and
    /// zero where `report()` inserts no such entry (an absent cluster,
    /// or MRAM on SRAM-only modules).
    pub mem_dynamic: [[Energy; 2]; 2],
    /// MAC operations retired across all PEs.
    pub macs: u64,
}

/// Outcome of [`PimMachine::run_program`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Instant the last operation retired.
    pub finished_at: SimTime,
    /// Per-category energy breakdown.
    pub energy: EnergyLedger<EnergyCat>,
    /// Instructions executed.
    pub instructions: u64,
    /// MAC operations retired across all PEs.
    pub macs: u64,
}

impl RunReport {
    /// Total energy across all categories.
    pub fn total_energy(&self) -> Energy {
        self.energy.total()
    }
}

/// A complete PIM machine (see module docs).
///
/// # Examples
///
/// ```
/// use hhpim_pim::{PimMachine, MachineConfig};
/// use hhpim_isa::{assemble, MemSelect};
///
/// let mut machine = PimMachine::new(MachineConfig::default());
/// machine.preload(0, MemSelect::Mram, 0, &[2, 3]).unwrap();
/// machine.preload_activations(0, &[10, 10]).unwrap();
/// let program = assemble("
///     clr m0
///     mac m0 mram @0 x2
///     barrier
///     halt
/// ").unwrap();
/// let report = machine.run_program(&program).unwrap();
/// assert_eq!(machine.module(0).pe().accumulator(), 50);
/// assert!(report.total_energy().as_pj() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PimMachine {
    config: MachineConfig,
    hp: Option<Cluster>,
    lp: Option<Cluster>,
    queue: InstructionQueue,
    now: SimTime,
    halted: bool,
    instructions: u64,
}

impl PimMachine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if both module counts are zero or if more than 8 total
    /// modules are requested (the ISA's mask width).
    pub fn new(config: MachineConfig) -> Self {
        let total = config.hp_modules + config.lp_modules;
        assert!(total > 0, "machine needs at least one module");
        assert!(total <= 8, "ISA module mask addresses at most 8 modules");
        let hp = (config.hp_modules > 0).then(|| {
            Cluster::new(
                ClusterClass::HighPerformance,
                config.hp_modules,
                config.module,
                config.controller,
            )
        });
        let lp = (config.lp_modules > 0).then(|| {
            Cluster::new(
                ClusterClass::LowPower,
                config.lp_modules,
                config.module,
                config.controller,
            )
        });
        PimMachine {
            config,
            hp,
            lp,
            queue: InstructionQueue::new(config.queue_depth),
            now: SimTime::ZERO,
            halted: false,
            instructions: 0,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Total number of modules.
    pub fn module_count(&self) -> usize {
        self.config.hp_modules + self.config.lp_modules
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether a `halt` has been executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Advances the machine clock to `t` without dispatching work.
    ///
    /// Static energy accrues across the idle span (respecting each
    /// bank's gating state) the next time the machine reports. Times
    /// in the past are ignored, so callers may pass slice boundaries
    /// unconditionally even when work overran them.
    pub fn idle_until(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Counts one executed instruction without dispatching work — the
    /// timing-graph replay issues controller/module operations itself
    /// (through [`Cluster::issue`] and the resolved module primitives)
    /// and charges the machine-level counter through this hook, exactly
    /// as [`PimMachine::execute`]/[`PimMachine::mac_stream`] would.
    pub fn note_instruction(&mut self) {
        self.instructions += 1;
    }

    /// Shared access to a cluster, `None` when the machine has no
    /// modules of that class.
    pub fn cluster(&self, class: ClusterClass) -> Option<&Cluster> {
        match class {
            ClusterClass::HighPerformance => self.hp.as_ref(),
            ClusterClass::LowPower => self.lp.as_ref(),
        }
    }

    /// Exclusive access to a cluster, `None` when the machine has no
    /// modules of that class. Lowered timing-graph replay drives
    /// dispatch through this handle ([`Cluster::issue`] +
    /// [`Cluster::module_mut`]) instead of the interpretive
    /// mask-splitting path.
    pub fn cluster_mut(&mut self, class: ClusterClass) -> Option<&mut Cluster> {
        match class {
            ClusterClass::HighPerformance => self.hp.as_mut(),
            ClusterClass::LowPower => self.lp.as_mut(),
        }
    }

    fn locate(&self, global: usize) -> (ClusterClass, usize) {
        if global < self.config.hp_modules {
            (ClusterClass::HighPerformance, global)
        } else {
            (ClusterClass::LowPower, global - self.config.hp_modules)
        }
    }

    /// Shared access to a module by global index.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    pub fn module(&self, global: usize) -> &PimModule {
        assert!(global < self.module_count(), "module index out of range");
        let (class, local) = self.locate(global);
        match class {
            ClusterClass::HighPerformance => self.hp.as_ref().expect("hp exists").module(local),
            ClusterClass::LowPower => self.lp.as_ref().expect("lp exists").module(local),
        }
    }

    /// Exclusive access to a module by global index.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    pub fn module_mut(&mut self, global: usize) -> &mut PimModule {
        assert!(global < self.module_count(), "module index out of range");
        let (class, local) = self.locate(global);
        match class {
            ClusterClass::HighPerformance => self.hp.as_mut().expect("hp exists").module_mut(local),
            ClusterClass::LowPower => self.lp.as_mut().expect("lp exists").module_mut(local),
        }
    }

    /// Host-side preload of weights into a module bank.
    ///
    /// # Errors
    ///
    /// Propagates module range errors.
    pub fn preload(
        &mut self,
        global: usize,
        mem: MemSelect,
        addr: usize,
        bytes: &[u8],
    ) -> Result<(), MachineError> {
        self.module_mut(global)
            .preload(mem, addr, bytes)
            .map_err(|error| MachineError::Module {
                module: global,
                error,
            })
    }

    /// Host-side preload of activations into a module's SRAM activation
    /// region.
    ///
    /// # Errors
    ///
    /// Propagates module range errors.
    pub fn preload_activations(&mut self, global: usize, bytes: &[u8]) -> Result<(), MachineError> {
        let act_base = self.config.module.act_base;
        self.preload(global, MemSelect::Sram, act_base, bytes)
    }

    fn split_mask(&self, mask: ModuleMask) -> Result<(u8, u8), MachineError> {
        let bits = mask.bits();
        let total = self.module_count();
        if total < 8 && bits >> total != 0 {
            return Err(MachineError::NoSuchModule {
                mask: bits,
                modules: total,
            });
        }
        let hp = self.config.hp_modules;
        let hp_bits = bits & (((1u16 << hp) - 1) as u8);
        let lp_bits = if hp >= 8 { 0 } else { bits >> hp };
        Ok((hp_bits, lp_bits))
    }

    fn module_offset(&self, class: ClusterClass) -> usize {
        match class {
            ClusterClass::HighPerformance => 0,
            ClusterClass::LowPower => self.config.hp_modules,
        }
    }

    fn run_on_clusters<F>(&mut self, mask: ModuleMask, mut op: F) -> Result<SimTime, MachineError>
    where
        F: FnMut(&mut PimModule, SimTime) -> Result<SimTime, ModuleError>,
    {
        let (hp_bits, lp_bits) = self.split_mask(mask)?;
        let now = self.now;
        let mut latest = now;
        if hp_bits != 0 {
            let c = self.hp.as_mut().ok_or(MachineError::NoSuchModule {
                mask: mask.bits(),
                modules: 0,
            })?;
            let done = c
                .for_selected(now, hp_bits, &mut op)
                .map_err(|(local, error)| MachineError::Module {
                    module: local,
                    error,
                })?;
            latest = latest.max(done);
        }
        if lp_bits != 0 {
            let offset = self.module_offset(ClusterClass::LowPower);
            let c = self.lp.as_mut().ok_or(MachineError::NoSuchModule {
                mask: mask.bits(),
                modules: offset,
            })?;
            let done = c
                .for_selected(now, lp_bits, &mut op)
                .map_err(|(local, error)| MachineError::Module {
                    module: offset + local,
                    error,
                })?;
            latest = latest.max(done);
        }
        Ok(latest)
    }

    /// Executes one instruction immediately (bypassing the queue).
    ///
    /// The machine clock only advances on `Barrier`/`Halt`; other
    /// instructions dispatch at the current time and retire in the
    /// background via per-module `free_at`, mirroring the pipelined
    /// controller.
    ///
    /// # Errors
    ///
    /// Propagates decode, routing and module errors.
    pub fn execute(&mut self, inst: PimInstruction) -> Result<(), MachineError> {
        use PimInstruction::*;
        self.instructions += 1;
        match inst {
            Mac {
                modules,
                mem,
                addr,
                count,
            } => {
                self.run_on_clusters(modules, |m, at| {
                    m.mac(at, mem, addr as usize, count as usize)
                })?;
            }
            WriteBack { modules, mem, addr } => {
                self.run_on_clusters(modules, |m, at| m.write_back(at, mem, addr as usize))?;
            }
            ClearAcc { modules } => {
                self.run_on_clusters(modules, |m, at| {
                    m.clear_acc();
                    Ok(at)
                })?;
            }
            MoveIntra {
                modules,
                mem,
                addr,
                count,
            } => {
                self.run_on_clusters(modules, |m, at| {
                    m.move_intra(at, mem, addr as usize, count as usize)
                })?;
            }
            MoveInter {
                modules,
                mem,
                addr,
                count,
            } => {
                self.move_inter(modules, mem, addr as usize, count as usize)?;
            }
            LoadExt {
                modules,
                mem,
                addr,
                count,
            } => {
                // External data arrives over the host interface; the
                // machine charges the write burst into the bank.
                self.run_on_clusters(modules, |m, at| {
                    let zeros = vec![0u8; count as usize];
                    m.write_words(at, mem, addr as usize, &zeros)
                })?;
            }
            StoreExt {
                modules,
                mem,
                addr,
                count,
            } => {
                self.run_on_clusters(modules, |m, at| {
                    m.read_words(at, mem, addr as usize, count as usize)
                        .map(|(t, _)| t)
                })?;
            }
            GateOff { modules, mem } => {
                self.run_on_clusters(modules, |m, at| m.set_gated(at, mem, true))?;
            }
            GateOn { modules, mem } => {
                self.run_on_clusters(modules, |m, at| m.set_gated(at, mem, false))?;
            }
            Barrier => {
                let mut t = self.now;
                if let Some(c) = &self.hp {
                    t = t.max(c.all_free_at());
                }
                if let Some(c) = &self.lp {
                    t = t.max(c.all_free_at());
                }
                self.now = t;
            }
            Halt => {
                self.halted = true;
            }
            Nop => {}
        }
        Ok(())
    }

    /// Streams `count` traffic-level MACs on every module selected by
    /// `mask` (weights from `mem` at `addr`, activations from SRAM),
    /// charging controller issue overhead like any other instruction.
    /// The machine clock advances on the next `Barrier`, as with
    /// [`PimInstruction::Mac`]; unlike the ISA path, `count` is not
    /// limited to 255 and the PE accumulators are untouched — this is
    /// the execution primitive for compiled multi-layer schedules.
    ///
    /// # Errors
    ///
    /// Propagates routing and module errors, among them
    /// [`ModuleError::TimeOverflow`] for a stream that would end past the
    /// last [`SimTime`]; the module that reports it is left unchanged.
    pub fn mac_stream(
        &mut self,
        mask: ModuleMask,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<(), MachineError> {
        self.instructions += 1;
        self.run_on_clusters(mask, |m, at| m.mac_stream(at, mem, addr, count))?;
        Ok(())
    }

    /// Inter-cluster transfer through the Data Allocator: reads from the
    /// selected source modules (whichever cluster each belongs to),
    /// buffers chunks, and writes them into the *opposite* cluster.
    fn move_inter(
        &mut self,
        modules: ModuleMask,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<(), MachineError> {
        let (hp_bits, lp_bits) = self.split_mask(modules)?;
        let now = self.now;
        // HP sources → LP destinations.
        if hp_bits != 0 {
            let (Some(hp), Some(lp)) = (self.hp.as_mut(), self.lp.as_mut()) else {
                return Err(MachineError::NoSuchModule {
                    mask: modules.bits(),
                    modules: 0,
                });
            };
            let chunks =
                hp.export_chunks(now, hp_bits, mem, addr, count)
                    .map_err(|(local, error)| MachineError::Module {
                        module: local,
                        error,
                    })?;
            let offset = self.config.hp_modules;
            lp.import_chunks(&chunks, mem)
                .map_err(|(local, error)| MachineError::Module {
                    module: offset + local,
                    error,
                })?;
        }
        // LP sources → HP destinations.
        if lp_bits != 0 {
            let (Some(hp), Some(lp)) = (self.hp.as_mut(), self.lp.as_mut()) else {
                return Err(MachineError::NoSuchModule {
                    mask: modules.bits(),
                    modules: 0,
                });
            };
            let offset = self.config.hp_modules;
            let chunks =
                lp.export_chunks(now, lp_bits, mem, addr, count)
                    .map_err(|(local, error)| MachineError::Module {
                        module: offset + local,
                        error,
                    })?;
            hp.import_chunks(&chunks, mem)
                .map_err(|(local, error)| MachineError::Module {
                    module: local,
                    error,
                })?;
        }
        Ok(())
    }

    /// Enqueues and runs a program until the queue drains or `halt`.
    ///
    /// # Errors
    ///
    /// Propagates queue, decode and module errors.
    pub fn run_program(&mut self, program: &[PimInstruction]) -> Result<RunReport, MachineError> {
        for &inst in program {
            self.queue.push(inst)?;
        }
        while !self.halted {
            let Some(decoded) = self.queue.pop() else {
                break;
            };
            self.execute(decoded?)?;
        }
        // Drain: wait for everything in flight, then accrue statics.
        self.execute(PimInstruction::Barrier)?;
        Ok(self.report())
    }

    /// Builds the current energy/latency report (accruing static energy
    /// up to `now`).
    pub fn report(&mut self) -> RunReport {
        let now = self.now;
        if let Some(c) = self.hp.as_mut() {
            c.advance_to(now);
        }
        if let Some(c) = self.lp.as_mut() {
            c.advance_to(now);
        }
        let mut energy = EnergyLedger::new();
        let mut macs = 0;
        for cluster in [self.hp.as_ref(), self.lp.as_ref()].into_iter().flatten() {
            let class = cluster.class();
            for m in cluster.modules() {
                if m.has_mram() {
                    let b = m.bank(MemSelect::Mram);
                    energy.add(
                        EnergyCat::MemDynamic(class, MemKind::Mram),
                        b.dynamic_energy(),
                    );
                    energy.add(
                        EnergyCat::MemStatic(class, MemKind::Mram),
                        b.static_energy(),
                    );
                    energy.add(EnergyCat::MemWake(class, MemKind::Mram), b.wake_energy());
                }
                let s = m.bank(MemSelect::Sram);
                energy.add(
                    EnergyCat::MemDynamic(class, MemKind::Sram),
                    s.dynamic_energy(),
                );
                energy.add(
                    EnergyCat::MemStatic(class, MemKind::Sram),
                    s.static_energy(),
                );
                energy.add(EnergyCat::MemWake(class, MemKind::Sram), s.wake_energy());
                energy.add(EnergyCat::PeDynamic(class), m.pe().dynamic_energy());
                energy.add(EnergyCat::PeStatic(class), m.pe().static_energy());
                macs += m.pe().macs_retired();
            }
            energy.add(
                EnergyCat::Controller(class),
                cluster.controller_dynamic_energy() + cluster.controller_static_energy(),
            );
        }
        RunReport {
            finished_at: now,
            energy,
            instructions: self.instructions,
            macs,
        }
    }

    /// Snapshots total energy, dynamic memory energy and retired MACs
    /// without allocating.
    ///
    /// Performs [`PimMachine::report`]'s static-energy accrual, then
    /// accumulates each ledger category in the same per-module order
    /// and folds the categories in the ledger's key order — so `total`
    /// is bit-identical to `report().total_energy()`, and
    /// `mem_dynamic` to the ledger's `MemDynamic` entries, while no
    /// ledger is built.
    pub fn probe(&mut self) -> MachineProbe {
        let now = self.now;
        if let Some(c) = self.hp.as_mut() {
            c.advance_to(now);
        }
        if let Some(c) = self.lp.as_mut() {
            c.advance_to(now);
        }
        // Accumulators indexed [class][kind]: class 0 = HP, 1 = LP and
        // kind 0 = SRAM, 1 = MRAM, matching the ledger's derived key
        // order (HP < LP, SRAM < MRAM).
        let mut mem_dyn = [[Energy::ZERO; 2]; 2];
        let mut mem_stat = [[Energy::ZERO; 2]; 2];
        let mut mem_wake = [[Energy::ZERO; 2]; 2];
        let mut pe_dyn = [Energy::ZERO; 2];
        let mut pe_stat = [Energy::ZERO; 2];
        let mut ctrl = [Energy::ZERO; 2];
        let mut present = [false; 2];
        let mut mram = [false; 2];
        let mut macs = 0u64;
        for cluster in [self.hp.as_ref(), self.lp.as_ref()].into_iter().flatten() {
            let ci = match cluster.class() {
                ClusterClass::HighPerformance => 0,
                ClusterClass::LowPower => 1,
            };
            present[ci] = true;
            for m in cluster.modules() {
                if m.has_mram() {
                    let b = m.bank(MemSelect::Mram);
                    mem_dyn[ci][1] += b.dynamic_energy();
                    mem_stat[ci][1] += b.static_energy();
                    mem_wake[ci][1] += b.wake_energy();
                    mram[ci] = true;
                }
                let s = m.bank(MemSelect::Sram);
                mem_dyn[ci][0] += s.dynamic_energy();
                mem_stat[ci][0] += s.static_energy();
                mem_wake[ci][0] += s.wake_energy();
                pe_dyn[ci] += m.pe().dynamic_energy();
                pe_stat[ci] += m.pe().static_energy();
                macs += m.pe().macs_retired();
            }
            ctrl[ci] += cluster.controller_dynamic_energy() + cluster.controller_static_energy();
        }
        // Fold categories exactly as `EnergyLedger::total` walks its
        // keys, skipping the ones `report()` never inserts.
        let mut total = Energy::ZERO;
        for cat in [&mem_dyn, &mem_stat, &mem_wake] {
            for ci in 0..2 {
                if present[ci] {
                    total += cat[ci][0];
                    if mram[ci] {
                        total += cat[ci][1];
                    }
                }
            }
        }
        for cat in [&pe_dyn, &pe_stat, &ctrl] {
            for ci in 0..2 {
                if present[ci] {
                    total += cat[ci];
                }
            }
        }
        MachineProbe {
            total,
            mem_dynamic: mem_dyn,
            macs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhpim_isa::assemble;

    fn machine() -> PimMachine {
        PimMachine::new(MachineConfig::default())
    }

    #[test]
    fn runs_simple_program() {
        let mut m = machine();
        m.preload(0, MemSelect::Mram, 0, &[1, 2, 3, 4]).unwrap();
        m.preload_activations(0, &[1, 1, 1, 1]).unwrap();
        let prog = assemble("clr m0\nmac m0 mram @0 x4\nbarrier\nhalt").unwrap();
        let report = m.run_program(&prog).unwrap();
        assert_eq!(m.module(0).pe().accumulator(), 10);
        assert_eq!(report.macs, 4);
        assert!(report.finished_at > SimTime::ZERO);
        assert!(m.is_halted());
    }

    #[test]
    fn preload_near_usize_max_is_a_range_error() {
        let mut m = machine();
        assert_eq!(
            m.preload(0, MemSelect::Mram, usize::MAX - 1, &[1, 2, 3]),
            Err(MachineError::Module {
                module: 0,
                error: ModuleError::AddrOutOfRange {
                    addr: usize::MAX,
                    capacity: 64 * 1024,
                },
            })
        );
    }

    #[test]
    fn mask_routes_across_clusters() {
        let mut m = machine();
        for g in [0usize, 5] {
            m.preload(g, MemSelect::Sram, 0, &[2, 2]).unwrap();
            m.preload_activations(g, &[3, 3]).unwrap();
        }
        // m0 is HP module 0; m5 is LP module 1.
        let prog = assemble("clr m0,m5\nmac m0,m5 sram @0 x2\nbarrier\nhalt").unwrap();
        m.run_program(&prog).unwrap();
        assert_eq!(m.module(0).pe().accumulator(), 12);
        assert_eq!(m.module(5).pe().accumulator(), 12);
        assert_eq!(m.module(1).pe().accumulator(), 0);
    }

    #[test]
    fn hp_finishes_before_lp() {
        let mut m = machine();
        m.preload(0, MemSelect::Sram, 0, &[1u8; 64]).unwrap();
        m.preload(4, MemSelect::Sram, 0, &[1u8; 64]).unwrap();
        m.execute(PimInstruction::Mac {
            modules: ModuleMask::single(0),
            mem: MemSelect::Sram,
            addr: 0,
            count: 64,
        })
        .unwrap();
        m.execute(PimInstruction::Mac {
            modules: ModuleMask::single(4),
            mem: MemSelect::Sram,
            addr: 0,
            count: 64,
        })
        .unwrap();
        let hp_done = m.module(0).free_at();
        let lp_done = m.module(4).free_at();
        assert!(hp_done < lp_done, "HP {hp_done} should beat LP {lp_done}");
    }

    #[test]
    fn mac_stream_matches_mac_timing_and_energy() {
        // The traffic-level stream must meter exactly like the ISA MAC
        // path for the same operation count.
        let mut a = machine();
        a.preload(0, MemSelect::Mram, 0, &[1u8; 128]).unwrap();
        a.preload_activations(0, &[1u8; 128]).unwrap();
        a.execute(PimInstruction::Mac {
            modules: ModuleMask::single(0),
            mem: MemSelect::Mram,
            addr: 0,
            count: 128,
        })
        .unwrap();
        a.execute(PimInstruction::Barrier).unwrap();
        let ra = a.report();

        let mut b = machine();
        b.mac_stream(ModuleMask::single(0), MemSelect::Mram, 0, 128)
            .unwrap();
        b.execute(PimInstruction::Barrier).unwrap();
        let rb = b.report();

        assert_eq!(ra.macs, rb.macs);
        assert_eq!(ra.finished_at, rb.finished_at);
        let (ea, eb) = (ra.total_energy().as_pj(), rb.total_energy().as_pj());
        assert!((ea - eb).abs() < 1e-6, "stream {eb} vs mac {ea}");
        // The stream leaves the accumulator untouched.
        assert_eq!(b.module(0).pe().accumulator(), 0);
    }

    #[test]
    fn mac_streams_past_the_last_simtime_are_typed_errors() {
        use hhpim_mem::AccessKind::Read;
        let mut m = machine();
        let (before, t) = (m.module(0).clone(), SimTime::ZERO);
        let lat = |mem| before.bank(mem).resolve(Read).latency.as_ps() as usize;
        let pe = before.pe().tech().mac_latency.as_ps() as usize;
        // At the third count every burst fits, but the PE would finish
        // past the last SimTime: after the slower MRAM weight burst, or
        // after both SRAM bursts on the one port.
        let chains = [lat(MemSelect::Mram) + pe, 2 * lat(MemSelect::Sram) + pe];
        for (mem, chain) in [MemSelect::Mram, MemSelect::Sram].into_iter().zip(chains) {
            let w = before.bank(mem).resolve(Read);
            let x = before.bank(MemSelect::Sram).resolve(Read);
            for count in [1 << 62, usize::MAX, usize::MAX / chain + 1] {
                let error = ModuleError::TimeOverflow;
                assert_eq!(
                    m.mac_stream(ModuleMask::single(0), mem, 0, count),
                    Err(MachineError::Module { module: 0, error })
                );
                let g = m.module_mut(0);
                assert_eq!(g.mac_stream(t, mem, 0, count), Err(error));
                assert_eq!(g.mac_stream_resolved(t, mem, &w, &x, 0, count), Err(error));
                let after = format!("{:?}", m.module(0));
                assert_eq!(after, format!("{before:?}"), "{mem:?} x{count}");
            }
        }
        // The machine's timeline survives: a later stream ends in
        // nanoseconds, a few controller dispatches late.
        m.mac_stream(ModuleMask::single(0), MemSelect::Sram, 0, 4)
            .unwrap();
        m.execute(PimInstruction::Barrier).unwrap();
        assert!(m.now() < SimTime::from_ns(1_000), "{}", m.now());
    }

    #[test]
    fn mac_stream_exceeds_isa_burst_limit() {
        let mut m = machine();
        m.mac_stream(ModuleMask::all(), MemSelect::Sram, 0, 20_000)
            .unwrap();
        m.execute(PimInstruction::Barrier).unwrap();
        let r = m.report();
        assert_eq!(r.macs, 8 * 20_000);
        assert!(r.finished_at > SimTime::ZERO);
    }

    #[test]
    fn inter_cluster_move_transfers_weights() {
        let mut m = machine();
        m.preload(0, MemSelect::Sram, 32, &[42u8; 8]).unwrap();
        let prog = assemble("movx m0 sram @32 x8\nbarrier\nhalt").unwrap();
        m.run_program(&prog).unwrap();
        // HP module 0 exports; LP module 0 (global 4) receives.
        assert_eq!(
            m.module(4).read_back(MemSelect::Sram, 32, 8).unwrap(),
            &[42u8; 8]
        );
    }

    #[test]
    fn gating_program_cuts_static_power() {
        let mut a = machine();
        let mut b = machine();
        let gated = assemble("gateoff all mram\nbarrier\nhalt").unwrap();
        a.run_program(&gated).unwrap();
        b.run_program(&assemble("barrier\nhalt").unwrap()).unwrap();
        // Let both idle for 1 ms, then compare MRAM static energy.
        for mm in [&mut a, &mut b] {
            mm.idle_until(SimTime::from_ns(1_000_000));
        }
        let ra = a.report();
        let rb = b.report();
        let cat = EnergyCat::MemStatic(ClusterClass::HighPerformance, MemKind::Mram);
        assert!(ra.energy.get(cat).as_pj() < rb.energy.get(cat).as_pj());
    }

    #[test]
    fn rejects_mask_beyond_configuration() {
        let cfg = MachineConfig {
            hp_modules: 2,
            lp_modules: 2,
            ..MachineConfig::default()
        };
        let mut m = PimMachine::new(cfg);
        let err = m
            .execute(PimInstruction::ClearAcc {
                modules: ModuleMask::all(),
            })
            .unwrap_err();
        assert!(matches!(err, MachineError::NoSuchModule { .. }));
    }

    #[test]
    fn baseline_shape_runs_without_lp() {
        // Baseline-PIM: 8 HP modules, SRAM only (Table I).
        let cfg = MachineConfig {
            hp_modules: 8,
            lp_modules: 0,
            module: ModuleConfig {
                mram_bytes: 0,
                sram_bytes: 128 * 1024,
                act_base: 96 * 1024,
            },
            ..MachineConfig::default()
        };
        let mut m = PimMachine::new(cfg);
        m.preload(7, MemSelect::Sram, 0, &[1, 1]).unwrap();
        m.preload_activations(7, &[5, 5]).unwrap();
        let prog = assemble("clr m7\nmac m7 sram @0 x2\nbarrier\nhalt").unwrap();
        m.run_program(&prog).unwrap();
        assert_eq!(m.module(7).pe().accumulator(), 10);
    }

    #[test]
    fn report_energy_breakdown_has_all_active_categories() {
        let mut m = machine();
        m.preload(0, MemSelect::Mram, 0, &[1, 1]).unwrap();
        m.preload_activations(0, &[1, 1]).unwrap();
        let prog = assemble("clr m0\nmac m0 mram @0 x2\nbarrier\nhalt").unwrap();
        let report = m.run_program(&prog).unwrap();
        use ClusterClass::*;
        use MemKind::*;
        assert!(
            report
                .energy
                .get(EnergyCat::MemDynamic(HighPerformance, Mram))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::MemDynamic(HighPerformance, Sram))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::PeDynamic(HighPerformance))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::Controller(HighPerformance))
                .as_pj()
                > 0.0
        );
        assert!(
            report
                .energy
                .get(EnergyCat::MemStatic(HighPerformance, Sram))
                .as_pj()
                > 0.0
        );
    }

    #[test]
    fn probe_total_is_bit_identical_to_report_total() {
        let shapes = [
            MachineConfig::default(),
            // HP-only, SRAM-only (Baseline shape).
            MachineConfig {
                hp_modules: 8,
                lp_modules: 0,
                module: ModuleConfig {
                    mram_bytes: 0,
                    sram_bytes: 128 * 1024,
                    act_base: 96 * 1024,
                },
                ..MachineConfig::default()
            },
            // LP-present, asymmetric counts.
            MachineConfig {
                hp_modules: 2,
                lp_modules: 5,
                ..MachineConfig::default()
            },
        ];
        for cfg in shapes {
            let mut m = PimMachine::new(cfg);
            // Traffic into both memories of every present cluster: an
            // SRAM and an MRAM stream on its first module, plus an
            // MRAM→SRAM copy.
            for (lo, n) in [(0, cfg.hp_modules), (cfg.hp_modules, cfg.lp_modules)] {
                if n == 0 {
                    continue;
                }
                let mask = ModuleMask::single(lo as u8);
                m.mac_stream(mask, MemSelect::Sram, 0, 700).unwrap();
                if m.module(lo).has_mram() {
                    m.mac_stream(mask, MemSelect::Mram, 0, 300).unwrap();
                    m.execute(PimInstruction::MoveIntra {
                        modules: mask,
                        mem: MemSelect::Mram,
                        addr: 0,
                        count: 64,
                    })
                    .unwrap();
                }
            }
            m.execute(PimInstruction::Barrier).unwrap();
            m.idle_until(m.now() + hhpim_sim::SimDuration::from_ns(12_345));
            let p = m.probe();
            let r = m.report();
            assert_eq!(
                p.total.as_pj().to_bits(),
                r.total_energy().as_pj().to_bits(),
                "probe must reproduce the ledger fold bit for bit ({cfg:?})"
            );
            assert_eq!(p.macs, r.macs);
            for (ci, class) in ClusterClass::ALL.into_iter().enumerate() {
                for (ki, kind) in [(0, MemKind::Sram), (1, MemKind::Mram)] {
                    let entry = r.energy.get(EnergyCat::MemDynamic(class, kind));
                    assert_eq!(
                        p.mem_dynamic[ci][ki].as_pj().to_bits(),
                        entry.as_pj().to_bits(),
                        "MemDynamic({class:?}, {kind:?}) ({cfg:?})"
                    );
                    let metered = cfg.module.mram_bytes > 0 || kind == MemKind::Sram;
                    let present = [cfg.hp_modules, cfg.lp_modules][ci] > 0;
                    assert_eq!(entry.as_pj() > 0.0, present && metered);
                }
            }
            // Probing performs the same accrual side effects as
            // reporting: a second pair still agrees.
            assert_eq!(m.probe().total.as_pj(), m.report().total_energy().as_pj());
        }
    }

    #[test]
    fn split_mask_rejects_bits_beyond_hp_only_machine() {
        let mut m = PimMachine::new(MachineConfig {
            hp_modules: 4,
            lp_modules: 0,
            ..MachineConfig::default()
        });
        let err = m
            .mac_stream(ModuleMask::single(5), MemSelect::Sram, 0, 8)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::NoSuchModule {
                mask: 0b0010_0000,
                modules: 4
            }
        );
    }

    #[test]
    fn lp_only_machine_routes_module_errors_with_global_index() {
        // With no HP modules the LP cluster owns global indices 0..n;
        // errors must carry the global index, not a shifted one.
        let mut m = PimMachine::new(MachineConfig {
            hp_modules: 0,
            lp_modules: 4,
            ..MachineConfig::default()
        });
        m.module_mut(2)
            .set_gated(SimTime::ZERO, MemSelect::Mram, true)
            .unwrap();
        let err = m
            .mac_stream(ModuleMask::single(2), MemSelect::Mram, 0, 4)
            .unwrap_err();
        assert!(
            matches!(err, MachineError::Module { module: 2, .. }),
            "{err:?}"
        );
        // Bits beyond the configuration still fail with the total.
        let err = m
            .mac_stream(ModuleMask::single(6), MemSelect::Sram, 0, 1)
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::NoSuchModule {
                mask: 0b0100_0000,
                modules: 4
            }
        );
    }

    #[test]
    fn mac_stream_over_empty_mask_is_a_counted_noop() {
        let mut m = machine();
        let before = m.report();
        m.mac_stream(ModuleMask::empty(), MemSelect::Sram, 0, 1000)
            .unwrap();
        m.execute(PimInstruction::Barrier).unwrap();
        let after = m.report();
        assert_eq!(after.macs, before.macs, "no module was selected");
        assert_eq!(
            after.instructions,
            before.instructions + 2,
            "the stream and the barrier are still fetched and decoded"
        );
        assert_eq!(after.finished_at, before.finished_at);
    }

    #[test]
    fn lp_cluster_module_errors_carry_offset_global_index() {
        let mut m = machine();
        // Gate LP module 1 (global 5): the MAC against it must surface
        // global index 5, not the cluster-local 1.
        m.module_mut(5)
            .set_gated(SimTime::ZERO, MemSelect::Mram, true)
            .unwrap();
        let err = m
            .mac_stream(ModuleMask::single(5), MemSelect::Mram, 0, 4)
            .unwrap_err();
        assert!(
            matches!(err, MachineError::Module { module: 5, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn corrupted_queue_word_errors() {
        let mut m = machine();
        m.queue.push_word(u64::MAX).unwrap();
        let mut failed = false;
        while let Some(w) = m.queue.pop() {
            if w.is_err() {
                failed = true;
            }
        }
        assert!(failed);
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn too_many_modules_rejected() {
        PimMachine::new(MachineConfig {
            hp_modules: 6,
            lp_modules: 6,
            ..Default::default()
        });
    }
}
