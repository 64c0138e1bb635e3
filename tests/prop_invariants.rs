//! Cross-crate property tests on core invariants: the DP optimizer's
//! placements are always valid and deadline-respecting, energy
//! accounting is conserved, unit arithmetic behaves algebraically,
//! workload traces stay in range, and a PIM module's paged banks behave
//! exactly like dense ones.

use hhpim::{
    Architecture, CostModel, CostParams, OptimizerConfig, PlacementOptimizer, Processor,
    WorkloadProfile,
};
use hhpim_isa::MemSelect;
use hhpim_mem::{tech_for, AccessKind, ClusterClass, Energy, MemKind, MemoryBank, Power};
use hhpim_nn::TinyMlModel;
use hhpim_pim::{ModuleConfig, ModuleError, PimModule, PAGE_BYTES};
use hhpim_sim::{SimDuration, SimTime};
use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn any_model() -> impl Strategy<Value = TinyMlModel> {
    prop_oneof![
        Just(TinyMlModel::EfficientNetB0),
        Just(TinyMlModel::MobileNetV2),
        Just(TinyMlModel::ResNet18),
    ]
}

fn any_scenario() -> impl Strategy<Value = Scenario> {
    proptest::sample::select(Scenario::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever deadline the optimizer is given, its answer either is a
    /// valid placement meeting the deadline, or None only below the
    /// architectural peak.
    #[test]
    fn optimizer_placements_valid_and_feasible(
        model in any_model(),
        factor in 0.5f64..12.0,
    ) {
        let cost = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&model.spec()),
            CostParams::default(),
        ).expect("fits");
        let opt = PlacementOptimizer::new(
            &cost,
            OptimizerConfig { time_buckets: 300, ..OptimizerConfig::default() },
        );
        let t = cost.peak_task_time().mul_f64(factor);
        match opt.optimize(t) {
            Some(r) => {
                prop_assert!(cost.is_valid(&r.placement), "invalid {}", r.placement);
                prop_assert!(r.task_time <= t, "deadline violated: {} > {}", r.task_time, t);
                prop_assert_eq!(r.placement.total(), cost.k_groups());
            }
            None => {
                prop_assert!(
                    t < cost.peak_task_time(),
                    "infeasible result above the peak at factor {factor}"
                );
            }
        }
    }

    /// Slice energies always sum to the ledger total, every slice is
    /// non-negative, and deadline misses never occur for HH-PIM on the
    /// canned scenarios.
    #[test]
    fn trace_report_energy_is_conserved(
        scenario in any_scenario(),
        seed in 0u64..1000,
    ) {
        let proc = Processor::new(Architecture::HhPim, TinyMlModel::MobileNetV2).expect("fits");
        let trace = LoadTrace::generate(
            scenario,
            ScenarioParams { slices: 8, seed, ..ScenarioParams::default() },
        );
        let report = proc.run_trace(&trace).unwrap();
        let slice_sum: f64 = report.records.iter().map(|r| r.energy.as_pj()).sum();
        let ledger_total = report.energy.total().as_pj();
        prop_assert!(
            (slice_sum - ledger_total).abs() / ledger_total.max(1.0) < 1e-9,
            "slice sum {slice_sum} vs ledger {ledger_total}"
        );
        prop_assert_eq!(report.deadline_misses, 0);
    }

    /// Load traces stay within [low, high] and task counts within
    /// [1, max] for every scenario and seed.
    #[test]
    fn traces_bounded(scenario in any_scenario(), seed in 0u64..5000, max_tasks in 1u32..32) {
        let trace = LoadTrace::generate(
            scenario,
            ScenarioParams { seed, ..ScenarioParams::default() },
        );
        prop_assert!(trace.loads().iter().all(|&l| (0.2..=1.0).contains(&l)));
        prop_assert!(trace
            .task_counts(max_tasks)
            .iter()
            .all(|&n| n >= 1 && n <= max_tasks));
    }

    /// Movement cost is zero exactly for identical placements and
    /// symmetric in magnitude of groups moved.
    #[test]
    fn movement_cost_sane(n_a in 1u32..=10, n_b in 1u32..=10) {
        let proc = Processor::new(Architecture::HhPim, TinyMlModel::EfficientNetB0).expect("fits");
        let a = proc.placement_for_tasks(n_a);
        let b = proc.placement_for_tasks(n_b);
        let (t_ab, e_ab, m_ab) = proc.movement_cost(&a, &b);
        let (_, _, m_ba) = proc.movement_cost(&b, &a);
        prop_assert_eq!(m_ab, m_ba, "moved-group counts must be symmetric");
        if a == b {
            prop_assert_eq!(t_ab, SimDuration::ZERO);
            prop_assert!(e_ab.as_pj() == 0.0);
        } else {
            prop_assert!(m_ab > 0);
        }
    }

    /// SimTime/SimDuration arithmetic: additive identity, commutative
    /// accumulation, order compatibility and exact round trips at
    /// picosecond resolution.
    #[test]
    fn sim_time_arithmetic_invariants(
        a_ps in 0u64..1u64 << 40,
        b_ps in 0u64..1u64 << 40,
        t_ps in 0u64..1u64 << 40,
        n in 1u64..1000,
    ) {
        let a = SimDuration::from_ps(a_ps);
        let b = SimDuration::from_ps(b_ps);
        let t = SimTime::from_ps(t_ps);
        prop_assert_eq!(a + SimDuration::ZERO, a);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((t + a) + b, (t + b) + a);
        prop_assert_eq!((t + a) - t, a);
        prop_assert_eq!((a + b) - b, a);
        prop_assert_eq!(a * n, SimDuration::from_ps(a_ps * n));
        prop_assert_eq!((a * n) / n, a);
        prop_assert_eq!(a.saturating_sub(a), SimDuration::ZERO);
        prop_assert_eq!(SimDuration::ZERO.saturating_sub(a), SimDuration::ZERO);
        // Order is translation-invariant.
        prop_assert_eq!(a <= b, t + a <= t + b);
        // Round trip through ps is exact.
        prop_assert_eq!(SimDuration::from_ps(a.as_ps()), a);
    }

    /// Energy/Power arithmetic: conservation under splitting, identity,
    /// commutativity and Power × time = Energy consistency.
    #[test]
    fn energy_arithmetic_invariants(
        x_pj in 0.0f64..1e9,
        y_pj in 0.0f64..1e9,
        mw in 0.0f64..1e4,
        dur_ns in 0u64..1_000_000,
    ) {
        let x = Energy::from_pj(x_pj);
        let y = Energy::from_pj(y_pj);
        prop_assert_eq!(x + Energy::ZERO, x);
        prop_assert_eq!(x + y, y + x);
        prop_assert!((((x + y) - y).as_pj() - x.as_pj()).abs() <= 1e-9 * x.as_pj().max(1.0));
        prop_assert_eq!(x.saturating_sub(x), Energy::ZERO);
        prop_assert_eq!(Energy::ZERO.saturating_sub(x), Energy::ZERO);
        // Halving then doubling conserves.
        let half = x / 2.0;
        prop_assert!(((half + half).as_pj() - x.as_pj()).abs() <= 1e-9 * x.as_pj());
        // mW × ns = pJ, and power scales linearly in time.
        let p = Power::from_mw(mw);
        let d = SimDuration::from_ns(dur_ns);
        let e = p * d;
        prop_assert!((e.as_pj() - mw * dur_ns as f64).abs() <= 1e-9 * e.as_pj().max(1.0));
        let twice = p * (d * 2);
        prop_assert!((twice.as_pj() - 2.0 * e.as_pj()).abs() <= 1e-9 * twice.as_pj().max(1.0));
    }

    /// The single load-quantization rule: zero means idle (no tasks),
    /// any positive load issues at least one task, counts are monotone
    /// in load and saturate at the per-slice cap.
    #[test]
    fn task_count_quantization_invariants(
        load in 0.0f64..=1.0,
        other in 0.0f64..=1.0,
        max_tasks in 1u32..=64,
    ) {
        let n = LoadTrace::task_count_for(load, max_tasks);
        prop_assert!(n <= max_tasks, "count {n} above cap {max_tasks}");
        if load == 0.0 {
            prop_assert_eq!(n, 0, "idle slices execute nothing");
        } else {
            prop_assert!(n >= 1, "positive load {load} must issue a task");
        }
        prop_assert_eq!(LoadTrace::task_count_for(0.0, max_tasks), 0);
        prop_assert_eq!(LoadTrace::task_count_for(1.0, max_tasks), max_tasks);
        // Monotone: more load never means fewer tasks.
        let (lo, hi) = if load <= other { (load, other) } else { (other, load) };
        prop_assert!(
            LoadTrace::task_count_for(lo, max_tasks) <= LoadTrace::task_count_for(hi, max_tasks),
            "quantization not monotone at {lo} vs {hi}"
        );
    }

    /// `saturating_merge` conserves load exactly, clamps the merged
    /// slice to a full one, and never leaves overflow behind while the
    /// slice has room.
    #[test]
    fn saturating_merge_conserves(
        accum in 0.0f64..=4.0,
        load in 0.0f64..=1.0,
    ) {
        let (merged, overflow) = LoadTrace::saturating_merge(accum, load);
        prop_assert!((0.0..=1.0).contains(&merged), "merged {merged} outside [0, 1]");
        prop_assert!(overflow >= 0.0, "negative overflow {overflow}");
        let total = accum + load;
        prop_assert!(
            (merged + overflow - total).abs() <= 1e-12 * total.max(1.0),
            "lost load: {merged} + {overflow} != {total}"
        );
        // Overflow only once the slice is actually full.
        if overflow > 0.0 {
            prop_assert_eq!(merged, 1.0, "overflowed a non-full slice");
        }
    }
}

/// A module's two banks with dense contents, one `Vec<u8>` of full
/// capacity each, and the module's timing, occupancy and range rules
/// written out per operation: the reference `PimModule`'s page store
/// must match byte for byte, instant for instant and bit for bit.
struct DenseModule {
    /// MRAM (absent on SRAM-only modules), then SRAM.
    banks: [Option<MemoryBank>; 2],
    data: [Vec<u8>; 2],
    free_at: SimTime,
}

fn bank_index(mem: MemSelect) -> usize {
    match mem {
        MemSelect::Mram => 0,
        MemSelect::Sram => 1,
    }
}

impl DenseModule {
    fn new(class: ClusterClass, cfg: ModuleConfig) -> Self {
        let mram = (cfg.mram_bytes > 0)
            .then(|| MemoryBank::new(tech_for(class, MemKind::Mram), cfg.mram_bytes));
        let sram = MemoryBank::new(tech_for(class, MemKind::Sram), cfg.sram_bytes);
        DenseModule {
            banks: [mram, Some(sram)],
            data: [vec![0; cfg.mram_bytes], vec![0; cfg.sram_bytes]],
            free_at: SimTime::ZERO,
        }
    }

    fn range(&self, mem: MemSelect, addr: usize, len: usize) -> Result<(), ModuleError> {
        let capacity = self.data[bank_index(mem)].len();
        match addr.checked_add(len) {
            Some(end) if end <= capacity => Ok(()),
            end => Err(ModuleError::AddrOutOfRange {
                addr: end.unwrap_or(usize::MAX),
                capacity,
            }),
        }
    }

    fn bank(&mut self, mem: MemSelect) -> Result<&mut MemoryBank, ModuleError> {
        self.banks[bank_index(mem)]
            .as_mut()
            .ok_or(ModuleError::AddrOutOfRange {
                addr: 0,
                capacity: 0,
            })
    }

    fn occupy(&mut self, mem: MemSelect, bytes: usize) -> Result<(), ModuleError> {
        let bank = self.bank(mem)?;
        let free = bank.free_bytes();
        let _ = bank.store(bytes.min(free));
        Ok(())
    }

    fn preload(&mut self, mem: MemSelect, addr: usize, bytes: &[u8]) -> Result<(), ModuleError> {
        self.range(mem, addr, bytes.len())?;
        self.data[bank_index(mem)][addr..addr + bytes.len()].copy_from_slice(bytes);
        self.occupy(mem, bytes.len())
    }

    fn write_words(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        bytes: &[u8],
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(self.free_at);
        self.range(mem, addr, bytes.len())?;
        let done = self
            .bank(mem)?
            .access(at, AccessKind::Write, bytes.len() as u64)?
            .done_at;
        self.data[bank_index(mem)][addr..addr + bytes.len()].copy_from_slice(bytes);
        self.occupy(mem, bytes.len())?;
        self.free_at = done;
        Ok(done)
    }

    fn read_words_into(
        &mut self,
        at: SimTime,
        mem: MemSelect,
        addr: usize,
        out: &mut [u8],
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(self.free_at);
        self.range(mem, addr, out.len())?;
        let done = self
            .bank(mem)?
            .access(at, AccessKind::Read, out.len() as u64)?
            .done_at;
        out.copy_from_slice(&self.data[bank_index(mem)][addr..addr + out.len()]);
        self.free_at = done;
        Ok(done)
    }

    fn move_intra(
        &mut self,
        at: SimTime,
        from: MemSelect,
        addr: usize,
        count: usize,
    ) -> Result<SimTime, ModuleError> {
        let at = at.max(self.free_at);
        let to = match from {
            MemSelect::Mram => MemSelect::Sram,
            MemSelect::Sram => MemSelect::Mram,
        };
        self.range(from, addr, count)?;
        self.range(to, addr, count)?;
        let read_done = self
            .bank(from)?
            .access(at, AccessKind::Read, count as u64)?
            .done_at;
        let done = self
            .bank(to)?
            .access(read_done, AccessKind::Write, count as u64)?
            .done_at;
        let src = self.data[bank_index(from)][addr..addr + count].to_vec();
        self.data[bank_index(to)][addr..addr + count].copy_from_slice(&src);
        self.occupy(to, count)?;
        self.free_at = done;
        Ok(done)
    }
}

/// An address that lands near a page boundary, near the end of the
/// bank, anywhere in it, or far outside it.
fn any_addr(rng: &mut StdRng, capacity: usize) -> usize {
    match rng.gen_range(0..6) {
        0 | 1 => {
            let page = rng.gen_range(0..=capacity / PAGE_BYTES);
            (page * PAGE_BYTES).saturating_sub(rng.gen_range(0..16usize))
                + rng.gen_range(0..16usize)
        }
        2 => capacity.saturating_sub(rng.gen_range(0..32)),
        3 => usize::MAX - rng.gen_range(0..8usize),
        _ => rng.gen_range(0..capacity.max(1)),
    }
}

fn any_len(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(0..=2 * PAGE_BYTES + 16),
        _ => rng.gen_range(0..64),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random preload / write / read / intra-module move / gating
    /// sequences on a `PimModule` return what a dense-bank reference
    /// returns: the same results and errors, the same bytes, the same
    /// completion instants, occupancy and counters, and energies equal
    /// by `to_bits()`.
    #[test]
    fn paged_banks_match_a_dense_reference(seed in any::<u64>(), shape in 0usize..3) {
        let (class, cfg) = [
            (ClusterClass::HighPerformance, ModuleConfig::default()),
            (
                ClusterClass::LowPower,
                ModuleConfig { mram_bytes: 3 * PAGE_BYTES + 100, sram_bytes: 10_000, act_base: 5_000 },
            ),
            (
                ClusterClass::HighPerformance,
                ModuleConfig { mram_bytes: 0, sram_bytes: 2 * PAGE_BYTES, act_base: PAGE_BYTES },
            ),
        ][shape];
        let mut paged = PimModule::new(class, cfg);
        let mut dense = DenseModule::new(class, cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_ps(rng.gen_range(0..200_000));
            let mem = if rng.gen_bool(0.5) { MemSelect::Mram } else { MemSelect::Sram };
            let capacity = match mem {
                MemSelect::Mram => cfg.mram_bytes,
                MemSelect::Sram => cfg.sram_bytes,
            };
            let addr = any_addr(&mut rng, capacity);
            let len = any_len(&mut rng);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            match rng.gen_range(0..9) {
                0 => prop_assert_eq!(paged.preload(mem, addr, &bytes), dense.preload(mem, addr, &bytes)),
                1 | 2 => prop_assert_eq!(
                    paged.write_words(now, mem, addr, &bytes),
                    dense.write_words(now, mem, addr, &bytes)
                ),
                3 | 4 => {
                    let (mut a, mut b) = (vec![0xEE; len], vec![0xEE; len]);
                    prop_assert_eq!(
                        paged.read_words_into(now, mem, addr, &mut a),
                        dense.read_words_into(now, mem, addr, &mut b)
                    );
                    prop_assert_eq!(a, b);
                }
                5 | 6 => prop_assert_eq!(
                    paged.move_intra(now, mem, addr, len),
                    dense.move_intra(now, mem, addr, len)
                ),
                7 if paged.has_mram() => {
                    // Gate or wake MRAM (non-volatile, so always allowed):
                    // later MRAM traffic then meets a gated bank.
                    let gated = rng.gen_bool(0.5);
                    let a = paged.set_gated(now, MemSelect::Mram, gated);
                    let bank = dense.banks[0].as_mut().unwrap();
                    let b = if gated { bank.gate(now).map(|()| now) } else { Ok(bank.ungate(now)) };
                    prop_assert_eq!(a, b.map_err(ModuleError::Bank));
                }
                _ => {}
            }
            prop_assert_eq!(paged.free_at(), dense.free_at);
        }
        paged.advance_to(now);
        for (i, mem) in [MemSelect::Mram, MemSelect::Sram].into_iter().enumerate() {
            let Some(reference) = dense.banks[i].as_mut() else {
                prop_assert!(!paged.has_mram());
                continue;
            };
            reference.advance_to(now);
            let bank = paged.bank(mem);
            prop_assert_eq!(bank.counters(), reference.counters());
            prop_assert_eq!(bank.live_bytes(), reference.live_bytes());
            prop_assert_eq!(bank.state(), reference.state());
            for (got, want) in [
                (bank.dynamic_energy(), reference.dynamic_energy()),
                (bank.static_energy(), reference.static_energy()),
                (bank.wake_energy(), reference.wake_energy()),
            ] {
                prop_assert_eq!(got.as_pj().to_bits(), want.as_pj().to_bits());
            }
            prop_assert!(
                paged.read_back(mem, 0, dense.data[i].len()).unwrap() == dense.data[i],
                "{mem:?} contents differ"
            );
        }
    }
}
