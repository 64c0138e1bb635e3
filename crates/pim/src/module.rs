//! A PIM module: hybrid MRAM+SRAM memory, an interface and a PE.
//!
//! Per Fig. 1 of the paper, every module (HP or LP) contains an MRAM
//! bank, an SRAM bank, an internal interface and one PE. The interface
//! "dynamically adjusts the load process based on data storage status",
//! synchronizing the differing read cycles of MRAM and SRAM in the LOAD
//! state — modelled here by starting PE execution only once *both*
//! operand streams (weights from the selected bank, activations from
//! SRAM) have arrived.
//!
//! The module is bit-accurate, so whole quantized networks can be
//! executed and checked against a software reference (the FPGA
//! functional-verification step of §IV-A). A bank's contents are a
//! fixed table of [`PAGE_BYTES`] pages that materialize on first write;
//! a byte never written reads as zero. A module that only ever holds a
//! ~1 kB classifier head and its activations keeps a few pages, not its
//! banks' full capacity.

use crate::pe::ProcessingElement;
use hhpim_isa::MemSelect;
use hhpim_mem::{
    pe_for, tech_for, AccessKind, BankError, ClusterClass, Energy, MemKind, MemoryBank,
    ResolvedAccess,
};
use hhpim_sim::SimTime;
use std::fmt;

/// Errors raised by module operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleError {
    /// The underlying bank rejected the access.
    Bank(BankError),
    /// An address range fell outside the bank.
    AddrOutOfRange {
        /// First out-of-range byte address.
        addr: usize,
        /// Bank capacity in bytes.
        capacity: usize,
    },
    /// The activation pointer would run past the SRAM activation region.
    ActivationOverrun,
    /// A MAC stream would end past the last [`SimTime`].
    TimeOverflow,
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::Bank(e) => write!(f, "bank error: {e}"),
            ModuleError::AddrOutOfRange { addr, capacity } => {
                write!(f, "address {addr:#x} outside bank of {capacity} bytes")
            }
            ModuleError::ActivationOverrun => write!(f, "activation pointer overran SRAM"),
            ModuleError::TimeOverflow => write!(f, "MAC stream would end past the last SimTime"),
        }
    }
}

impl std::error::Error for ModuleError {}

impl From<BankError> for ModuleError {
    fn from(e: BankError) -> Self {
        ModuleError::Bank(e)
    }
}

/// Configuration of a single PIM module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleConfig {
    /// MRAM bank capacity in bytes (0 disables the bank, as in the
    /// SRAM-only Baseline/Heterogeneous architectures of Table I).
    pub mram_bytes: usize,
    /// SRAM bank capacity in bytes.
    pub sram_bytes: usize,
    /// Byte offset in SRAM where the activation region begins.
    pub act_base: usize,
}

impl Default for ModuleConfig {
    /// The paper's HH-PIM module: 64 kB MRAM + 64 kB SRAM, with the top
    /// quarter of SRAM reserved for activations.
    fn default() -> Self {
        ModuleConfig {
            mram_bytes: 64 * 1024,
            sram_bytes: 64 * 1024,
            act_base: 48 * 1024,
        }
    }
}

/// Bytes per page of a bank's contents (see module-level docs).
pub const PAGE_BYTES: usize = 4 * 1024;

/// What a page that was never written reads as.
static ZERO_PAGE: [u8; PAGE_BYTES] = [0; PAGE_BYTES];

/// One bank's byte contents: a fixed table of [`PAGE_BYTES`] pages,
/// each allocated on its first write.
#[derive(Debug, Clone)]
struct Pages {
    capacity: usize,
    table: Box<[Option<Box<[u8; PAGE_BYTES]>>]>,
}

impl Pages {
    fn new(capacity: usize) -> Self {
        Pages {
            capacity,
            table: (0..capacity.div_ceil(PAGE_BYTES)).map(|_| None).collect(),
        }
    }

    fn resident_bytes(&self) -> usize {
        self.table.iter().flatten().count() * PAGE_BYTES
    }

    /// The bytes from `addr` to the end of its page, at most `len`.
    fn run(&self, addr: usize, len: usize) -> &[u8] {
        let off = addr % PAGE_BYTES;
        let page = self.table[addr / PAGE_BYTES]
            .as_deref()
            .unwrap_or(&ZERO_PAGE);
        &page[off..off + len.min(PAGE_BYTES - off)]
    }

    /// [`Pages::run`] for writing: materializes the page.
    fn run_mut(&mut self, addr: usize, len: usize) -> &mut [u8] {
        let off = addr % PAGE_BYTES;
        let page = self.table[addr / PAGE_BYTES].get_or_insert_with(|| Box::new([0; PAGE_BYTES]));
        &mut page[off..off + len.min(PAGE_BYTES - off)]
    }

    fn read(&self, addr: usize, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let run = self.run(addr + done, out.len() - done);
            out[done..done + run.len()].copy_from_slice(run);
            done += run.len();
        }
    }

    fn write(&mut self, addr: usize, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let run = self.run_mut(addr + done, bytes.len() - done);
            let n = run.len();
            run.copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    /// Copies `src`'s `addr..addr + count` to the same addresses here.
    fn copy_from(&mut self, src: &Pages, addr: usize, count: usize) {
        let mut done = 0;
        while done < count {
            let run = src.run(addr + done, count - done);
            self.write(addr + done, run);
            done += run.len();
        }
    }
}

/// Calls `f` on each (weight, activation) operand pair of a `count`-MAC
/// burst, walking both ranges in place, one page run at a time.
fn for_each_pair(
    weights: &Pages,
    w_addr: usize,
    acts: &Pages,
    a_addr: usize,
    count: usize,
    mut f: impl FnMut(i8, i8),
) {
    let mut done = 0;
    while done < count {
        let w_run = weights.run(w_addr + done, count - done);
        let a_run = acts.run(a_addr + done, w_run.len());
        for (&w, &a) in w_run.iter().zip(a_run) {
            f(w as i8, a as i8);
        }
        done += a_run.len();
    }
}

/// A single PIM module (see module-level docs).
#[derive(Debug, Clone)]
pub struct PimModule {
    class: ClusterClass,
    mram: Option<MemoryBank>,
    mram_data: Pages,
    sram: MemoryBank,
    sram_data: Pages,
    pe: ProcessingElement,
    act_ptr: usize,
    act_base: usize,
    free_at: SimTime,
}

impl PimModule {
    /// Creates a module of the given class.
    ///
    /// # Panics
    ///
    /// Panics if `sram_bytes` is zero or `act_base >= sram_bytes` —
    /// a module always needs SRAM for activations.
    pub fn new(class: ClusterClass, config: ModuleConfig) -> Self {
        assert!(config.sram_bytes > 0, "module requires SRAM");
        assert!(
            config.act_base < config.sram_bytes,
            "activation base outside SRAM"
        );
        let mram = (config.mram_bytes > 0)
            .then(|| MemoryBank::new(tech_for(class, MemKind::Mram), config.mram_bytes));
        PimModule {
            class,
            mram,
            mram_data: Pages::new(config.mram_bytes),
            sram: MemoryBank::new(tech_for(class, MemKind::Sram), config.sram_bytes),
            sram_data: Pages::new(config.sram_bytes),
            pe: ProcessingElement::new(pe_for(class)),
            act_ptr: config.act_base,
            act_base: config.act_base,
            free_at: SimTime::ZERO,
        }
    }

    /// The module's cluster class.
    pub fn class(&self) -> ClusterClass {
        self.class
    }

    /// Whether the module has an MRAM bank.
    pub fn has_mram(&self) -> bool {
        self.mram.is_some()
    }

    /// The module's PE.
    pub fn pe(&self) -> &ProcessingElement {
        &self.pe
    }

    /// Shared view of a bank.
    ///
    /// # Panics
    ///
    /// Panics when selecting MRAM on an SRAM-only module.
    pub fn bank(&self, mem: MemSelect) -> &MemoryBank {
        match mem {
            MemSelect::Mram => self.mram.as_ref().expect("module has no MRAM bank"),
            MemSelect::Sram => &self.sram,
        }
    }

    fn bank_mut(&mut self, mem: MemSelect) -> Result<&mut MemoryBank, ModuleError> {
        match mem {
            MemSelect::Mram => self.mram.as_mut().ok_or(ModuleError::AddrOutOfRange {
                addr: 0,
                capacity: 0,
            }),
            MemSelect::Sram => Ok(&mut self.sram),
        }
    }

    /// Host memory held by the banks' contents: [`PAGE_BYTES`] for
    /// every page written so far.
    pub fn resident_bytes(&self) -> usize {
        self.mram_data.resident_bytes() + self.sram_data.resident_bytes()
    }

    /// Instant at which the module completes all issued work.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Advances static-energy accrual of all powered components to `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        if let Some(m) = self.mram.as_mut() {
            m.advance_to(now);
        }
        self.sram.advance_to(now);
        self.pe.advance_to(now);
    }

    /// Total energy (dynamic + static + wake) across banks and PE.
    pub fn total_energy(&self) -> Energy {
        let mram = self
            .mram
            .as_ref()
            .map(MemoryBank::total_energy)
            .unwrap_or(Energy::ZERO);
        mram + self.sram.total_energy() + self.pe.dynamic_energy() + self.pe.static_energy()
    }

    /// Checks `addr..addr + len` against `mem`; the error reports the
    /// range's end, saturated at `usize::MAX`.
    fn check_range(&self, mem: MemSelect, addr: usize, len: usize) -> Result<(), ModuleError> {
        let capacity = self.data(mem).capacity;
        let end = addr.saturating_add(len);
        if end > capacity {
            return Err(ModuleError::AddrOutOfRange {
                addr: end,
                capacity,
            });
        }
        Ok(())
    }

    fn data(&self, mem: MemSelect) -> &Pages {
        match mem {
            MemSelect::Mram => &self.mram_data,
            MemSelect::Sram => &self.sram_data,
        }
    }

    fn data_mut(&mut self, mem: MemSelect) -> &mut Pages {
        match mem {
            MemSelect::Mram => &mut self.mram_data,
            MemSelect::Sram => &mut self.sram_data,
        }
    }

    /// Host-side preload: writes bytes directly (no timing/energy), used
    /// for test fixture setup, mirroring a JTAG/debug load on the FPGA.
    ///
    /// # Errors
    ///
    /// Returns [`ModuleError::AddrOutOfRange`] on overflow.
    pub fn preload(
        &mut self,
        mem: MemSelect,
        addr: usize,
        bytes: &[u8],
    ) -> Result<(), ModuleError> {
        self.check_range(mem, addr, bytes.len())?;
        let occupy = bytes.len();
        self.data_mut(mem).write(addr, bytes);
        let bank = self.bank_mut(mem)?;
        // Occupancy tracking saturates at capacity: preloads may overwrite.
        let free = bank.free_bytes();
        let _ = bank.store(occupy.min(free));
        Ok(())
    }

    /// Host-side readback of bytes (no timing/energy), as an owned
    /// copy.
    ///
    /// # Errors
    ///
    /// Returns [`ModuleError::AddrOutOfRange`] on overflow.
    pub fn read_back(
        &self,
        mem: MemSelect,
        addr: usize,
        len: usize,
    ) -> Result<Vec<u8>, ModuleError> {
        self.check_range(mem, addr, len)?;
        let mut bytes = vec![0; len];
        self.data(mem).read(addr, &mut bytes);
        Ok(bytes)
    }

    /// Clears the PE accumulator and rewinds the activation pointer to
    /// the activation base (zero-latency architectural operation).
    pub fn clear_acc(&mut self) {
        self.pe.clear();
        self.act_ptr = self.act_base;
    }

    /// Executes `count` MACs: weights stream from `mem` at `addr`,
    /// activations stream from the SRAM activation region. The PE starts
    /// when both operand bursts have arrived (the LOAD-state
    /// synchronization the paper's interface performs); returns the
    /// completion instant.
    ///
    /// # Errors
    ///
    /// See [`Self::mac_resolved`]; MRAM on an SRAM-only module is a
    /// range error.
    pub fn mac(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        self.check_range(mem, addr, count)?;
        let weights = self.bank_mut(mem)?.resolve(AccessKind::Read);
        let acts = self.sram.resolve(AccessKind::Read);
        self.mac_resolved(at, mem, &weights, &acts, addr, count)
    }

    /// Streams `count` MACs through the PE with exact timing/energy
    /// metering but no functional accumulation: weights burst from
    /// `mem` starting at `addr` (wrapping within the bank), activations
    /// burst from SRAM, and the PE starts once both operand streams
    /// have arrived — the same LOAD-state synchronization as
    /// [`Self::mac`], at O(1) cost regardless of `count`.
    ///
    /// Compiled multi-layer *schedules* use this path (operand values
    /// cannot affect timing or energy); the bit-exact path for
    /// functional verification remains [`Self::mac`].
    ///
    /// # Errors
    ///
    /// Propagates bank errors (gated banks) and range errors on `addr`;
    /// see [`Self::mac_stream_resolved`].
    pub fn mac_stream(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        self.check_range(mem, addr, 1)?;
        let weights = self.bank(mem).resolve(AccessKind::Read);
        let acts = self.sram.resolve(AccessKind::Read);
        self.mac_stream_resolved(at, mem, &weights, &acts, addr, count)
    }

    /// [`Self::mac`] with pre-resolved bank coefficients. The burst is
    /// timed in one pass, as [`Self::mac_stream_resolved`] times a
    /// stream, and the weight/activation products are folded in place
    /// over the banks' page runs (no copy, no allocation); wrapping i32
    /// addition is associative, so the accumulator lands where a
    /// pair-by-pair [`ProcessingElement::mac_burst`] would. `weights`
    /// must be resolved from the bank `mem` selects and `acts` from this
    /// module's SRAM.
    ///
    /// # Errors
    ///
    /// In this order: a range error on `addr..addr + count`;
    /// [`ModuleError::ActivationOverrun`];
    /// [`ModuleError::TimeOverflow`] when a burst or the MACs would end
    /// past the last [`SimTime`], with the module left exactly as it
    /// was; a gated weight bank, with nothing charged; a gated SRAM
    /// bank, with the weight burst already charged.
    pub fn mac_resolved(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        weights: &ResolvedAccess,
        acts: &ResolvedAccess,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(self.free_at);
        self.check_range(mem, addr, count)?;
        if self.act_ptr + count > self.sram_data.capacity {
            return Err(ModuleError::ActivationOverrun);
        }
        let done = self.charge_burst(at, mem, weights, acts, count as u64)?;
        let mut delta = 0i32;
        for_each_pair(
            self.data(mem),
            addr,
            &self.sram_data,
            self.act_ptr,
            count,
            |w, a| delta = delta.wrapping_add(w as i32 * a as i32),
        );
        self.pe.accumulate(delta);
        self.act_ptr += count;
        Ok(done)
    }

    /// [`Self::mac_stream`] with pre-resolved bank coefficients — the
    /// timing-graph replay primitive for compiled schedules. Identical
    /// metering, gating checks and range errors; no technology lookups.
    ///
    /// The stream is timed in one pass: each burst's service time is
    /// multiplied once, checked, and then charged through
    /// [`MemoryBank::commit`] and the PE.
    ///
    /// # Errors
    ///
    /// In this order: a range error on `addr`;
    /// [`ModuleError::TimeOverflow`] when a burst or the stream would
    /// end past the last [`SimTime`], with the module left exactly as it
    /// was; a gated weight bank, with nothing charged; a gated SRAM
    /// bank, with the weight burst already charged.
    #[inline]
    pub fn mac_stream_resolved(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        weights: &ResolvedAccess,
        acts: &ResolvedAccess,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(self.free_at);
        self.check_range(mem, addr, 1)?;
        self.charge_burst(at, mem, weights, acts, count as u64)
    }

    /// Times a `words`-MAC burst issued at `at` in one pass, then
    /// charges the weight bank, SRAM and the PE, and returns the
    /// completion instant; errors as [`Self::mac_resolved`] after its
    /// range checks. The whole chain is timed before anything changes,
    /// so an overflow late in it leaves no burst half-charged. With SRAM
    /// weights both bursts share one port: activations queue behind them.
    #[inline]
    fn charge_burst(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        weights: &ResolvedAccess,
        acts: &ResolvedAccess,
        words: u64,
    ) -> Result<SimTime, ModuleError> {
        let w_port = self.bank_mut(mem)?.port_free_at();
        let timed = (|| {
            let w_service = weights.latency.checked_mul(words)?;
            let w_done = w_port.max(at).checked_add(w_service)?;
            let a_service = acts.latency.checked_mul(words)?;
            let a_at = if mem == MemSelect::Sram { w_done } else { at };
            let a_done = self.sram.port_free_at().max(a_at).checked_add(a_service)?;
            let ready = w_done.max(a_done);
            let pe_latency = self.pe.tech().mac_latency.checked_mul(words)?;
            let done = self.pe.free_at().max(ready).checked_add(pe_latency)?;
            Some((w_service, a_service, ready, pe_latency, done))
        })();
        let (w_service, a_service, ready, pe_latency, done) =
            timed.ok_or(ModuleError::TimeOverflow)?;
        self.bank_mut(mem)?.commit(at, weights, words, w_service)?;
        self.sram.commit(at, acts, words, a_service)?;
        self.pe.retire(ready, words, pe_latency);
        self.free_at = done;
        Ok(done)
    }

    /// Writes the PE accumulator (4 bytes, little-endian) to `mem` at
    /// `addr`; returns the completion instant.
    ///
    /// # Errors
    ///
    /// Propagates bank and range errors.
    pub fn write_back(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(self.free_at);
        self.check_range(mem, addr, 4)?;
        let value = self.pe.accumulator().to_le_bytes();
        let done = self
            .bank_mut(mem)?
            .access(at, AccessKind::Write, 4)?
            .done_at;
        self.data_mut(mem).write(addr, &value);
        self.free_at = done;
        Ok(done)
    }

    /// The timed bank access every byte-moving operation is built on:
    /// checks `addr..addr + count` against `mem`, serializes `count`
    /// words of `kind` on the bank's port from `at` (or once the module
    /// finishes earlier work), records written bytes as occupancy
    /// (saturating at capacity: writes may overwrite) and returns the
    /// completion instant. It moves no bytes, so traffic whose contents
    /// are never read (a placement transition's migration legs) is
    /// metered through it alone.
    ///
    /// # Errors
    ///
    /// Propagates bank and range errors.
    pub fn access(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        kind: AccessKind,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(self.free_at);
        self.check_range(mem, addr, count)?;
        let bank = self.bank_mut(mem)?;
        let done = bank.access(at, kind, count as u64)?.done_at;
        if kind == AccessKind::Write {
            let free = bank.free_bytes();
            let _ = bank.store(count.min(free));
        }
        self.free_at = done;
        Ok(done)
    }

    /// Copies `count` bytes from `from` at `addr` to the opposite bank at
    /// the same address (read burst then write burst, serialized as the
    /// module interface does); returns the completion instant. The
    /// copy stays live in both banks until explicitly freed.
    ///
    /// # Errors
    ///
    /// Propagates bank and range errors; fails on SRAM-only modules.
    pub fn move_intra(
        &mut self,
        at: SimTime,
        from: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let to = match from {
            MemSelect::Mram => MemSelect::Sram,
            MemSelect::Sram => MemSelect::Mram,
        };
        // Both ranges, before any traffic.
        self.check_range(from, addr, count)?;
        self.check_range(to, addr, count)?;
        // A rejected write burst (a gated destination) leaves the
        // completion instant where it was; the read stays charged.
        let free_at = self.free_at;
        let read_done = self.access(at, from, AccessKind::Read, addr, count)?;
        let done = self
            .access(read_done, to, AccessKind::Write, addr, count)
            .inspect_err(|_| self.free_at = free_at)?;
        let (src, dst) = match from {
            MemSelect::Mram => (&self.mram_data, &mut self.sram_data),
            MemSelect::Sram => (&self.sram_data, &mut self.mram_data),
        };
        dst.copy_from(src, addr, count);
        Ok(done)
    }

    /// Timed read of `count` bytes (used by the Data Allocator's MEM
    /// interface for inter-cluster transfers and external stores).
    ///
    /// # Errors
    ///
    /// Propagates bank and range errors.
    pub fn read_words(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<(SimTime, Vec<u8>), ModuleError> {
        // Range-check before allocating, so a bad `count` errors
        // instead of sizing the buffer.
        self.check_range(mem, addr, count)?;
        let mut bytes = vec![0; count];
        let done = self.read_words_into(at, mem, addr, &mut bytes)?;
        Ok((done, bytes))
    }

    /// [`Self::read_words`] into a caller-owned buffer: reads
    /// `out.len()` bytes with the same timing and energy, so a caller
    /// can reuse one buffer.
    ///
    /// # Errors
    ///
    /// Propagates bank and range errors.
    pub fn read_words_into(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        out: &mut [u8],
    ) -> Result<SimTime, ModuleError> {
        let done = self.access(at, mem, AccessKind::Read, addr, out.len())?;
        self.data(mem).read(addr, out);
        Ok(done)
    }

    /// Timed write of bytes (inter-cluster arrivals and external loads).
    ///
    /// # Errors
    ///
    /// Propagates bank and range errors.
    pub fn write_words(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        bytes: &[u8],
    ) -> Result<SimTime, ModuleError> {
        let done = self.access(at, mem, AccessKind::Write, addr, bytes.len())?;
        self.data_mut(mem).write(addr, bytes);
        Ok(done)
    }

    /// Power-gates or wakes a bank. Gating SRAM with live data fails
    /// (volatile); waking returns when the bank is accessible.
    ///
    /// # Errors
    ///
    /// Propagates [`BankError::WouldLoseData`] for live SRAM.
    pub fn set_gated(
        &mut self,
        now: SimTime,
        mem: MemSelect,
        gated: bool,
    ) -> Result<SimTime, ModuleError> {
        let bank = self.bank_mut(mem)?;
        if gated {
            bank.gate(now)?;
            Ok(now)
        } else {
            Ok(bank.ungate(now))
        }
    }

    /// Frees `bytes` of occupancy from a bank (placement bookkeeping).
    ///
    /// # Errors
    ///
    /// Propagates [`BankError::Underflow`].
    pub fn free_bytes(&mut self, mem: MemSelect, bytes: usize) -> Result<(), ModuleError> {
        Ok(self.bank_mut(mem)?.free(bytes)?)
    }

    /// Marks the module idle and powers the PE down or up.
    pub fn set_pe_powered(&mut self, now: SimTime, powered: bool) {
        self.pe.set_powered(now, powered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhpim_sim::SimDuration;

    fn hp_module() -> PimModule {
        PimModule::new(ClusterClass::HighPerformance, ModuleConfig::default())
    }

    #[test]
    fn mac_computes_dot_product() {
        let mut m = hp_module();
        m.preload(MemSelect::Mram, 0, &[2u8, 3, 0xFF]).unwrap(); // 2, 3, -1
        let act_base = ModuleConfig::default().act_base;
        m.preload(MemSelect::Sram, act_base, &[10u8, 20, 30])
            .unwrap();
        m.clear_acc();
        m.mac(SimTime::ZERO, MemSelect::Mram, 0, 3).unwrap();
        assert_eq!(m.pe().accumulator(), 2 * 10 + 3 * 20 - 30);
    }

    #[test]
    fn chained_macs_advance_activation_pointer() {
        let mut m = hp_module();
        m.preload(MemSelect::Sram, 0, &[1u8, 1, 1, 1]).unwrap();
        let act_base = ModuleConfig::default().act_base;
        m.preload(MemSelect::Sram, act_base, &[1u8, 2, 3, 4])
            .unwrap();
        m.clear_acc();
        m.mac(SimTime::ZERO, MemSelect::Sram, 0, 2).unwrap();
        m.mac(SimTime::ZERO, MemSelect::Sram, 2, 2).unwrap();
        assert_eq!(m.pe().accumulator(), 1 + 2 + 3 + 4);
        // Clearing rewinds the pointer.
        m.clear_acc();
        m.mac(SimTime::ZERO, MemSelect::Sram, 0, 2).unwrap();
        assert_eq!(m.pe().accumulator(), 1 + 2);
    }

    #[test]
    fn mram_and_sram_loads_overlap() {
        let mut m = hp_module();
        m.preload(MemSelect::Mram, 0, &[1u8; 16]).unwrap();
        let done_mram = m.mac(SimTime::ZERO, MemSelect::Mram, 0, 16).unwrap();

        let mut m2 = hp_module();
        m2.preload(MemSelect::Sram, 0, &[1u8; 16]).unwrap();
        let done_sram = m2.mac(SimTime::ZERO, MemSelect::Sram, 0, 16).unwrap();

        // MRAM weights (2.62 ns) overlap the SRAM activation reads
        // (1.12 ns): operands ready at 16×2.62 = 41.92 ns.
        // SRAM weights serialize with activations on one port:
        // operands ready at 32×1.12 = 35.84 ns. PE: 16×5.52 = 88.32.
        assert_eq!(done_mram.as_ps(), 41_920 + 88_320);
        assert_eq!(done_sram.as_ps(), 35_840 + 88_320);
    }

    #[test]
    fn write_back_persists_accumulator() {
        let mut m = hp_module();
        m.preload(MemSelect::Sram, 0, &[5u8, 5]).unwrap();
        let act_base = ModuleConfig::default().act_base;
        m.preload(MemSelect::Sram, act_base, &[3u8, 4]).unwrap();
        m.clear_acc();
        m.mac(SimTime::ZERO, MemSelect::Sram, 0, 2).unwrap();
        m.write_back(SimTime::ZERO, MemSelect::Sram, 100).unwrap();
        let bytes = m.read_back(MemSelect::Sram, 100, 4).unwrap();
        assert_eq!(i32::from_le_bytes(bytes.try_into().unwrap()), 35);
    }

    #[test]
    fn move_intra_copies_and_times() {
        let mut m = hp_module();
        m.preload(MemSelect::Mram, 10, &[7u8, 8, 9]).unwrap();
        let done = m.move_intra(SimTime::ZERO, MemSelect::Mram, 10, 3).unwrap();
        assert_eq!(m.read_back(MemSelect::Sram, 10, 3).unwrap(), &[7, 8, 9]);
        // 3 MRAM reads (2.62) then 3 SRAM writes (1.12).
        assert_eq!(done.as_ps(), 3 * 2_620 + 3 * 1_120);
    }

    #[test]
    fn sram_only_module_rejects_mram_ops() {
        let cfg = ModuleConfig {
            mram_bytes: 0,
            sram_bytes: 1024,
            act_base: 512,
        };
        let mut m = PimModule::new(ClusterClass::HighPerformance, cfg);
        assert!(!m.has_mram());
        assert!(m.mac(SimTime::ZERO, MemSelect::Mram, 0, 1).is_err());
        let none = ModuleError::AddrOutOfRange {
            addr: 0,
            capacity: 0,
        };
        assert_eq!(m.mac(SimTime::MAX, MemSelect::Mram, 0, 0), Err(none));
    }

    #[test]
    fn range_errors() {
        let mut m = hp_module();
        let cap = 64 * 1024;
        assert_eq!(
            m.preload(MemSelect::Mram, cap - 1, &[0, 0]),
            Err(ModuleError::AddrOutOfRange {
                addr: cap + 1,
                capacity: cap
            })
        );
        assert!(m.read_back(MemSelect::Sram, cap, 1).is_err());
    }

    #[test]
    fn activation_overrun_detected() {
        let cfg = ModuleConfig {
            mram_bytes: 1024,
            sram_bytes: 1024,
            act_base: 1020,
        };
        let mut m = PimModule::new(ClusterClass::HighPerformance, cfg);
        m.preload(MemSelect::Mram, 0, &[1u8; 8]).unwrap();
        assert_eq!(
            m.mac(SimTime::ZERO, MemSelect::Mram, 0, 8),
            Err(ModuleError::ActivationOverrun)
        );
    }

    #[test]
    fn gated_bank_rejects_mac() {
        let mut m = hp_module();
        m.preload(MemSelect::Mram, 0, &[1u8; 4]).unwrap();
        m.set_gated(SimTime::ZERO, MemSelect::Mram, true).unwrap();
        assert!(matches!(
            m.mac(SimTime::ZERO, MemSelect::Mram, 0, 4),
            Err(ModuleError::Bank(BankError::Gated))
        ));
        let ready = m.set_gated(SimTime::ZERO, MemSelect::Mram, false).unwrap();
        assert!(m.mac(ready, MemSelect::Mram, 0, 4).is_ok());
    }

    #[test]
    fn lp_module_is_slower() {
        let mut hp = hp_module();
        let mut lp = PimModule::new(ClusterClass::LowPower, ModuleConfig::default());
        for m in [&mut hp, &mut lp] {
            m.preload(MemSelect::Sram, 0, &[1u8; 8]).unwrap();
        }
        let hp_done = hp.mac(SimTime::ZERO, MemSelect::Sram, 0, 8).unwrap();
        let lp_done = lp.mac(SimTime::ZERO, MemSelect::Sram, 0, 8).unwrap();
        assert!(lp_done > hp_done);
    }

    #[test]
    fn energy_totals_accumulate() {
        let mut m = hp_module();
        m.preload(MemSelect::Mram, 0, &[1u8; 4]).unwrap();
        m.mac(SimTime::ZERO, MemSelect::Mram, 0, 4).unwrap();
        m.advance_to(SimTime::from_ns(100));
        let total = m.total_energy();
        assert!(total.as_pj() > 0.0);
        // Components: MRAM reads + SRAM act reads + PE MACs + leakage.
        let mram_dyn = m.bank(MemSelect::Mram).dynamic_energy();
        let sram_dyn = m.bank(MemSelect::Sram).dynamic_energy();
        assert!(mram_dyn.as_pj() > 0.0);
        assert!(sram_dyn.as_pj() > 0.0);
        assert!(total.as_pj() >= (mram_dyn + sram_dyn).as_pj());
    }

    /// [`PimModule::mac`] spelled out with the public bank and PE
    /// primitives: charge the weight bank, then SRAM, through
    /// `access_resolved`, then run `ProcessingElement::mac_burst` over
    /// the operand pairs read back from the banks.
    fn reference_mac(
        m: &mut PimModule,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(m.free_at);
        m.check_range(mem, addr, count)?;
        if m.act_ptr + count > m.sram_data.capacity {
            return Err(ModuleError::ActivationOverrun);
        }
        let weights = m.bank(mem).resolve(AccessKind::Read);
        let acts = m.sram.resolve(AccessKind::Read);
        let words = count as u64;
        let w_done = m.bank_mut(mem)?.access_resolved(at, &weights, words)?;
        let a_done = m.sram.access_resolved(at, &acts, words)?;
        let w = m.read_back(mem, addr, count)?;
        let x = m.read_back(MemSelect::Sram, m.act_ptr, count)?;
        let pairs: Vec<(i8, i8)> = (0..count).map(|i| (w[i] as i8, x[i] as i8)).collect();
        let done = m.pe.mac_burst(w_done.done_at.max(a_done.done_at), &pairs);
        m.act_ptr += count;
        m.free_at = done;
        Ok(done)
    }

    /// Issues one head MAC through [`reference_mac`] on `modules[0]`,
    /// through `mac` on `modules[1]` and through `mac_resolved` on
    /// `modules[2]`, and asserts that all three return the same outcome
    /// and end in the same state, to the bit.
    fn mac_all(
        modules: &mut [PimModule; 3],
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let [reference, object, resolved] = modules;
        let weights = resolved.bank(mem).resolve(AccessKind::Read);
        let acts = resolved.bank(MemSelect::Sram).resolve(AccessKind::Read);
        let want = reference_mac(reference, at, mem, addr, count);
        assert_eq!(object.mac(at, mem, addr, count), want);
        let got = resolved.mac_resolved(at, mem, &weights, &acts, addr, count);
        assert_eq!(got, want, "{mem:?} {addr}+{count} at {at}");
        assert_eq!(format!("{reference:?}"), format!("{object:?}"));
        assert_eq!(format!("{reference:?}"), format!("{resolved:?}"));
        got
    }

    /// [`PimModule::mac_stream_resolved`] spelled out with the public
    /// bank and PE primitives: time the whole stream with `burst_done`
    /// and `stream_done`, then charge each bank through
    /// `access_resolved` and the PE through `ProcessingElement::mac_stream`.
    fn reference_stream(
        m: &mut PimModule,
        at: SimTime,
        mem: MemSelect,
        weights: &ResolvedAccess,
        acts: &ResolvedAccess,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(m.free_at);
        m.check_range(mem, 0, 1)?;
        let words = count as u64;
        let w_done = m.bank(mem).burst_done(at, weights, words);
        let a_at = |w| if mem == MemSelect::Sram { w } else { at };
        let a_done = w_done.and_then(|w| m.sram.burst_done(a_at(w), acts, words));
        let end = w_done
            .zip(a_done)
            .and_then(|(w, a)| m.pe.stream_done(w.max(a), words));
        if end.is_none() {
            return Err(ModuleError::TimeOverflow);
        }
        let w_done = m
            .bank_mut(mem)?
            .access_resolved(at, weights, words)?
            .done_at;
        let a_done = m.sram.access_resolved(at, acts, words)?.done_at;
        let done = m.pe.mac_stream(w_done.max(a_done), words).unwrap();
        m.free_at = done;
        Ok(done)
    }

    /// Streams `count` MACs on `reference` through [`reference_stream`]
    /// and on `kernel` through the kernel, and asserts that both return
    /// the same outcome and end in the same state, to the bit.
    fn stream_both(
        reference: &mut PimModule,
        kernel: &mut PimModule,
        at: SimTime,
        mem: MemSelect,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let weights = kernel.bank(mem).resolve(AccessKind::Read);
        let acts = kernel.bank(MemSelect::Sram).resolve(AccessKind::Read);
        let want = reference_stream(reference, at, mem, &weights, &acts, count);
        let got = kernel.mac_stream_resolved(at, mem, &weights, &acts, 0, count);
        assert_eq!(got, want, "{mem:?} x{count} at {at}");
        assert_eq!(format!("{reference:?}"), format!("{kernel:?}"));
        got
    }

    #[test]
    fn resolved_mac_paths_match_object_paths_bit_for_bit() {
        let act_base = ModuleConfig::default().act_base;
        let mut m = hp_module();
        m.preload(MemSelect::Mram, 0, &[3u8, 250, 17, 90]).unwrap();
        m.preload(MemSelect::Sram, 0, &[9u8, 128, 66]).unwrap();
        m.preload(MemSelect::Sram, act_base, &[7u8, 200, 5, 11, 1, 255, 40])
            .unwrap();
        let mut heads = [m.clone(), m.clone(), m];
        let d1 = mac_all(&mut heads, SimTime::ZERO, MemSelect::Mram, 0, 4).unwrap();
        mac_all(&mut heads, d1, MemSelect::Sram, 0, 3).unwrap();
        mac_all(&mut heads, SimTime::ZERO, MemSelect::Mram, 4, 0).unwrap();
        // A gated weight bank is charged nothing; a gated SRAM bank
        // fails after the MRAM weights are charged.
        let gated = Err(ModuleError::Bank(BankError::Gated));
        for m in heads.iter_mut() {
            m.set_gated(d1, MemSelect::Mram, true).unwrap();
        }
        assert_eq!(mac_all(&mut heads, d1, MemSelect::Mram, 0, 1), gated);
        for m in heads.iter_mut() {
            m.set_gated(d1, MemSelect::Mram, false).unwrap();
            m.free_bytes(MemSelect::Sram, 10).unwrap();
            m.set_gated(d1, MemSelect::Sram, true).unwrap();
        }
        assert_eq!(mac_all(&mut heads, d1, MemSelect::Mram, 0, 1), gated);

        let mut a = hp_module();
        let mut b = hp_module();

        // Streams: MRAM weights overlap the SRAM activations, SRAM
        // weights share the activations' port, and gaps accrue leakage.
        let mut at = SimTime::ZERO;
        for (gap_ns, mem, count) in [
            (0, MemSelect::Mram, 500),
            (0, MemSelect::Sram, 300),
            (40, MemSelect::Mram, 0),
            (0, MemSelect::Sram, 0),
            (7, MemSelect::Sram, 41),
            (0, MemSelect::Mram, 1),
        ] {
            let start = at + SimDuration::from_ns(gap_ns);
            at = stream_both(&mut a, &mut b, start, mem, count).unwrap();
        }
        // A stream past the last SimTime changes nothing.
        let untouched = format!("{b:?}");
        let late = SimTime::from_ps(u64::MAX - 1_000);
        for (start, count) in [(late, 1), (at, usize::MAX)] {
            for mem in [MemSelect::Mram, MemSelect::Sram] {
                let overflow = stream_both(&mut a, &mut b, start, mem, count);
                assert_eq!(overflow, Err(ModuleError::TimeOverflow));
            }
        }
        assert_eq!(format!("{b:?}"), untouched);
        // A gated weight bank is charged nothing.
        for m in [&mut a, &mut b] {
            m.set_gated(at, MemSelect::Mram, true).unwrap();
        }
        let gated = Err(ModuleError::Bank(BankError::Gated));
        let untouched = format!("{b:?}");
        assert_eq!(stream_both(&mut a, &mut b, at, MemSelect::Mram, 2), gated);
        assert_eq!(format!("{b:?}"), untouched);
        // A gated SRAM bank fails after the MRAM weights are charged.
        for m in [&mut a, &mut b] {
            m.set_gated(at, MemSelect::Mram, false).unwrap();
            m.set_gated(at, MemSelect::Sram, true).unwrap();
        }
        let reads = b.bank(MemSelect::Mram).counters().0;
        for mem in [MemSelect::Mram, MemSelect::Sram] {
            assert_eq!(stream_both(&mut a, &mut b, at, mem, 3), gated);
        }
        assert_eq!(b.bank(MemSelect::Mram).counters().0, reads + 3);
    }

    #[test]
    fn unwritten_bytes_read_as_zero() {
        let mut m = hp_module();
        let cap = 64 * 1024;
        for mem in [MemSelect::Mram, MemSelect::Sram] {
            assert_eq!(m.read_back(mem, 0, cap).unwrap(), vec![0; cap]);
            let mut out = [0xAAu8; 9];
            m.read_words_into(SimTime::ZERO, mem, PAGE_BYTES - 4, &mut out)
                .unwrap();
            assert_eq!(out, [0; 9]);
        }
        // MACs over unwritten weights and activations fold zeros, and
        // nothing above (reads, metering) materializes a page.
        m.clear_acc();
        m.mac(SimTime::ZERO, MemSelect::Mram, PAGE_BYTES - 2, 4)
            .unwrap();
        assert_eq!(m.pe().accumulator(), 0);
        m.access(SimTime::ZERO, MemSelect::Sram, AccessKind::Write, 0, 64)
            .unwrap();
        assert_eq!(m.resident_bytes(), 0);
        m.preload(MemSelect::Sram, 5, &[1]).unwrap();
        assert_eq!(m.resident_bytes(), PAGE_BYTES);
    }

    #[test]
    fn writes_reads_and_moves_cross_page_boundaries() {
        let mut m = hp_module();
        let at = PAGE_BYTES - 3;
        let bytes: Vec<u8> = (1..=8).collect();
        m.preload(MemSelect::Mram, at, &bytes).unwrap();
        assert_eq!(m.resident_bytes(), 2 * PAGE_BYTES);
        assert_eq!(m.read_back(MemSelect::Mram, at, 8).unwrap(), bytes);
        assert_eq!(m.read_back(MemSelect::Mram, at - 1, 1).unwrap(), [0]);
        assert_eq!(m.read_back(MemSelect::Mram, at + 8, 1).unwrap(), [0]);

        m.move_intra(SimTime::ZERO, MemSelect::Mram, at, 8).unwrap();
        assert_eq!(m.read_back(MemSelect::Sram, at, 8).unwrap(), bytes);
        assert_eq!(m.resident_bytes(), 4 * PAGE_BYTES);

        // Two pages apart, over a page wholly written in between.
        let wide: Vec<u8> = (0..2 * PAGE_BYTES + 10).map(|i| i as u8 | 1).collect();
        let base = 3 * PAGE_BYTES - 5;
        m.write_words(SimTime::ZERO, MemSelect::Sram, base, &wide)
            .unwrap();
        let mut out = vec![0; wide.len()];
        m.read_words_into(SimTime::ZERO, MemSelect::Sram, base, &mut out)
            .unwrap();
        assert_eq!(out, wide);
        let (_, copy) = m
            .read_words(SimTime::ZERO, MemSelect::Sram, base, wide.len())
            .unwrap();
        assert_eq!(copy, wide);
    }

    #[test]
    fn resolved_mac_straddling_pages_equals_mac() {
        // Activations straddle a page boundary too.
        let cfg = ModuleConfig {
            act_base: 12 * PAGE_BYTES - 7,
            ..ModuleConfig::default()
        };
        let weights: Vec<u8> = (0..20u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let acts: Vec<u8> = (0..20u8).map(|i| i.wrapping_mul(91) ^ 0xC3).collect();
        for mem in [MemSelect::Mram, MemSelect::Sram] {
            let mut m = PimModule::new(ClusterClass::LowPower, cfg);
            m.preload(mem, PAGE_BYTES - 11, &weights).unwrap();
            m.preload(MemSelect::Sram, cfg.act_base, &acts).unwrap();
            let mut heads = [m.clone(), m.clone(), m];
            for (addr, count) in [(PAGE_BYTES - 11, 12), (PAGE_BYTES + 1, 8)] {
                mac_all(&mut heads, SimTime::ZERO, mem, addr, count).unwrap();
            }
            let expect = weights
                .iter()
                .zip(&acts)
                .fold(0i32, |d, (&w, &x)| d + w as i8 as i32 * x as i8 as i32);
            assert_eq!(heads[2].pe().accumulator(), expect);
        }
    }

    #[test]
    fn head_mac_past_the_last_simtime_is_a_typed_error() {
        // One SRAM MAC on a fresh HP module: both bursts fit, the PE's
        // 5.52 ns does not.
        let late = SimTime::MAX - SimDuration::from_ns(3);
        let mut m = hp_module();
        let untouched = format!("{m:?}");
        let x = m.bank(MemSelect::Sram).resolve(AccessKind::Read);
        let overflow = Err(ModuleError::TimeOverflow);
        assert_eq!(m.mac(late, MemSelect::Sram, 0, 1), overflow);
        let resolved = m.mac_resolved(late, MemSelect::Sram, &x, &x, 0, 1);
        assert_eq!(resolved, overflow);
        assert_eq!(format!("{m:?}"), untouched);
        // Overflow is reported ahead of a gated bank.
        m.set_gated(SimTime::ZERO, MemSelect::Mram, true).unwrap();
        assert_eq!(m.mac(late, MemSelect::Mram, 0, 1), overflow);
    }

    #[test]
    fn a_clone_is_independent_of_its_original() {
        let mut a = hp_module();
        a.preload(MemSelect::Mram, 0, &[1, 2, 3]).unwrap();
        let mut b = a.clone();
        b.preload(MemSelect::Mram, 1, &[9]).unwrap();
        b.preload(MemSelect::Sram, 2 * PAGE_BYTES, &[7]).unwrap();
        a.preload(MemSelect::Mram, 2, &[8]).unwrap();
        assert_eq!(a.read_back(MemSelect::Mram, 0, 3).unwrap(), [1, 2, 8]);
        assert_eq!(b.read_back(MemSelect::Mram, 0, 3).unwrap(), [1, 9, 3]);
        assert_eq!(
            a.read_back(MemSelect::Sram, 2 * PAGE_BYTES, 1).unwrap(),
            [0]
        );
        assert_eq!(
            (a.resident_bytes(), b.resident_bytes()),
            (PAGE_BYTES, 2 * PAGE_BYTES)
        );
    }

    #[test]
    fn range_error_values_are_pinned() {
        let mut m = hp_module();
        let cap = 64 * 1024;
        let oob = |addr| ModuleError::AddrOutOfRange {
            addr,
            capacity: cap,
        };
        let t = SimTime::ZERO;
        assert_eq!(
            m.read_back(MemSelect::Sram, cap, 1).unwrap_err(),
            oob(cap + 1)
        );
        assert_eq!(
            m.read_words(t, MemSelect::Mram, cap - 2, 4).unwrap_err(),
            oob(cap + 2)
        );
        assert_eq!(
            m.read_words_into(t, MemSelect::Sram, cap - 1, &mut [0; 3])
                .unwrap_err(),
            oob(cap + 2)
        );
        assert_eq!(
            m.write_words(t, MemSelect::Mram, cap, &[1]).unwrap_err(),
            oob(cap + 1)
        );
        assert_eq!(
            m.move_intra(t, MemSelect::Mram, cap - 4, 8).unwrap_err(),
            oob(cap + 4)
        );
        assert_eq!(
            m.mac(t, MemSelect::Mram, cap - 1, 2).unwrap_err(),
            oob(cap + 1)
        );
        assert_eq!(
            m.mac_stream(t, MemSelect::Sram, cap, 3).unwrap_err(),
            oob(cap + 1)
        );
        assert_eq!(
            m.write_back(t, MemSelect::Sram, cap - 3).unwrap_err(),
            oob(cap + 1)
        );
        assert_eq!(m.resident_bytes(), 0, "a failed access writes nothing");
        // An SRAM-only module reports MRAM as a zero-capacity bank.
        let mut s = PimModule::new(
            ClusterClass::LowPower,
            ModuleConfig {
                mram_bytes: 0,
                sram_bytes: 1024,
                act_base: 512,
            },
        );
        let none = |addr| ModuleError::AddrOutOfRange { addr, capacity: 0 };
        assert_eq!(s.preload(MemSelect::Mram, 0, &[1, 2]).unwrap_err(), none(2));
        assert_eq!(s.preload(MemSelect::Mram, 0, &[]).unwrap_err(), none(0));
        assert_eq!(s.move_intra(t, MemSelect::Sram, 0, 4).unwrap_err(), none(4));
        assert_eq!(
            s.read_back(MemSelect::Sram, 1000, 30).unwrap_err(),
            ModuleError::AddrOutOfRange {
                addr: 1030,
                capacity: 1024,
            }
        );
    }

    #[test]
    fn byte_ranges_at_usize_max_are_range_errors() {
        let mut m = hp_module();
        let cap = 64 * 1024;
        let max = ModuleError::AddrOutOfRange {
            addr: usize::MAX,
            capacity: cap,
        };
        let t = SimTime::ZERO;
        let w = m.bank(MemSelect::Mram).resolve(AccessKind::Read);
        let x = m.bank(MemSelect::Sram).resolve(AccessKind::Read);
        for mem in [MemSelect::Mram, MemSelect::Sram] {
            for (addr, len) in [(usize::MAX, 2), (usize::MAX - 1, 3), (1, usize::MAX)] {
                assert_eq!(m.read_back(mem, addr, len).unwrap_err(), max);
                assert_eq!(m.read_words(t, mem, addr, len).unwrap_err(), max);
                assert_eq!(m.move_intra(t, mem, addr, len).unwrap_err(), max);
                assert_eq!(m.mac(t, mem, addr, len).unwrap_err(), max);
                assert_eq!(m.mac_resolved(t, mem, &w, &x, addr, len).unwrap_err(), max);
                assert_eq!(
                    m.access(t, mem, AccessKind::Write, addr, len).unwrap_err(),
                    max
                );
            }
            let addr = usize::MAX - 1;
            assert_eq!(m.preload(mem, addr, &[1, 2, 3]).unwrap_err(), max);
            assert_eq!(
                m.read_words_into(t, mem, addr, &mut [0; 3]).unwrap_err(),
                max
            );
            assert_eq!(m.write_words(t, mem, addr, &[1, 2, 3]).unwrap_err(), max);
            assert_eq!(m.write_back(t, mem, addr).unwrap_err(), max);
            assert_eq!(m.mac_stream(t, mem, usize::MAX, 4), Err(max));
            assert_eq!(
                m.mac_stream_resolved(t, mem, &w, &x, usize::MAX, 4),
                Err(max)
            );
        }
        assert_eq!(m.resident_bytes(), 0);
        assert_eq!(m.free_at(), SimTime::ZERO, "no rejected access was timed");
    }

    #[test]
    fn error_display() {
        let e = ModuleError::AddrOutOfRange {
            addr: 0x10,
            capacity: 8,
        };
        assert!(e.to_string().contains("0x10"));
        assert_eq!(
            ModuleError::ActivationOverrun.to_string(),
            "activation pointer overran SRAM"
        );
    }
}
