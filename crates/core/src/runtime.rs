//! The time-slice runtime: per-slice placement decisions, movement
//! overhead, and slice-level energy accounting under each
//! architecture's gating policy.
//!
//! Semantics follow §III of the paper: tasks buffered during slice
//! `s` are processed in slice `s+1`; the task count fixes
//! `t_constraint`; HH-PIM consults its allocation LUT and pays the data
//! movement needed to transition placements; leakage accrues according
//! to what can(not) be power-gated.

use crate::arch::{ArchSpec, Architecture, GatingPolicy};
use crate::backend::{
    BackendError, BackendKind, EnergyCat, ExecutionReport, LayerRecord, MigrationRecord,
    SliceRecord,
};
use crate::cost::{CostModel, CostModelError, CostParams, WorkloadProfile};
use crate::dp::OptimizerConfig;
use crate::engine::{AnalyticRun, SliceOutcome};
use crate::policy::{default_policy, PlacementPolicy};
use crate::space::{movement_legs, Placement, StorageSpace};
use crate::store::PlacementStore;
use hhpim_mem::{ClusterClass, Energy, MemKind, Power};
use hhpim_nn::TinyMlModel;
use hhpim_sim::{SimDuration, SimTime};
use hhpim_workload::LoadTrace;

/// One memoized slice evaluation, keyed by `(from, n_tasks)`: the
/// record and migration templates (per-slice `slice` patched on
/// replay; the record's placement is the target, pure in `n_tasks`),
/// the slice's ledger additions in emission order, and the per-task
/// dynamic energy — everything a steady-state [`Processor::step_run`]
/// needs without re-deriving the cost model.
#[derive(Debug, Clone)]
pub(crate) struct StepMemo {
    pub(crate) from: Placement,
    pub(crate) n_tasks: u32,
    pub(crate) adds: Vec<(EnergyCat, Energy)>,
    /// Ledger slot per `adds` entry, valid while `ledger_len` matches
    /// the run ledger's length (categories are insert-only, so an
    /// unchanged length means no slot has shifted).
    pub(crate) slots: Vec<usize>,
    /// Ledger length `slots` was resolved against (`usize::MAX` until
    /// first resolved).
    pub(crate) ledger_len: usize,
    pub(crate) record: SliceRecord,
    /// The re-placement's traffic, if the slice moves any group.
    pub(crate) migration: Option<MigrationRecord>,
    pub(crate) idle: SimDuration,
    pub(crate) dynamic_per_task: Energy,
}

/// Runtime configuration shared by all architectures in a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Time-slice duration `T`.
    pub slice_duration: SimDuration,
    /// Maximum inferences per slice (paper: 10).
    pub max_tasks: u32,
    /// Total controller leakage (both controllers).
    pub controller_static: Power,
    /// Fraction of the slice reserved for movement when sizing the LUT.
    pub movement_margin: f64,
}

impl RuntimeConfig {
    /// The shared runtime configuration for `model` under `params`.
    ///
    /// Slice timing always derives from the *HH-PIM* peak for the same
    /// model (`T = 1.08 × max_tasks × peak`), so all four architectures
    /// — and all execution backends — share identical slices, as in the
    /// paper. The headroom factor covers re-placement movement and DP
    /// discretization so the peak load remains schedulable.
    ///
    /// # Errors
    ///
    /// Fails if the model's weights do not fit HH-PIM, `params` is
    /// outside the cost model's domain, or `T` would not fit in a
    /// [`SimDuration`] ([`CostModelError::SliceOverflow`]).
    pub fn reference(model: TinyMlModel, params: CostParams) -> Result<Self, CostModelError> {
        let profile = WorkloadProfile::from_spec(&model.spec());
        let reference = CostModel::new(Architecture::HhPim.spec(), profile, params)?;
        let slice_duration = reference
            .peak_task_time()
            .checked_mul(u64::from(params.max_tasks_per_slice))
            .map(|t| t.mul_f64(1.08))
            // `mul_f64` saturates: a slice of exactly `MAX` overflowed.
            .filter(|&t| t < SimDuration::MAX)
            .ok_or(CostModelError::SliceOverflow)?;
        Ok(RuntimeConfig {
            slice_duration,
            max_tasks: params.max_tasks_per_slice,
            controller_static: Power::from_mw(0.7),
            movement_margin: 0.05,
        })
    }

    /// The slice share available to tasks after the movement margin —
    /// the budget every placement policy (and the allocation LUT) is
    /// sized against.
    pub fn usable_slice(&self) -> SimDuration {
        self.slice_duration.mul_f64(1.0 - self.movement_margin)
    }

    /// Where stream slice `slice` ends, counted from the stream's start.
    ///
    /// # Errors
    ///
    /// [`BackendError::TimeOverflow`] past the last [`SimTime`].
    pub(crate) fn slice_end(&self, slice: usize) -> Result<SimDuration, BackendError> {
        self.slice_duration
            .checked_mul(slice as u64 + 1)
            .ok_or(BackendError::TimeOverflow { slice })
    }
}

/// A PIM processor model: one of the Table I architectures bound to a
/// Table IV workload, ready to execute load traces.
///
/// # Examples
///
/// ```
/// use hhpim::{Architecture, Processor};
/// use hhpim_nn::TinyMlModel;
/// use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
///
/// let hh = Processor::new(Architecture::HhPim, TinyMlModel::EfficientNetB0).unwrap();
/// let base = Processor::new(Architecture::Baseline, TinyMlModel::EfficientNetB0).unwrap();
/// let trace = LoadTrace::generate(Scenario::LowConstant, ScenarioParams::default());
/// let e_hh = hh.run_trace(&trace).unwrap().total_energy();
/// let e_base = base.run_trace(&trace).unwrap().total_energy();
/// assert!(e_hh < e_base, "HH-PIM saves energy at low load");
/// ```
#[derive(Debug, Clone)]
pub struct Processor {
    arch: ArchSpec,
    cost: CostModel,
    runtime: RuntimeConfig,
    policy: Box<dyn PlacementPolicy>,
    /// Per-PIM-layer `(model index, label, MAC share)` of the built
    /// model, used to apportion the closed-form report layer-by-layer.
    layer_shares: Vec<(usize, String, f64)>,
}

impl Processor {
    /// Builds a processor with default calibration, the
    /// architecture's Table I policy and a private [`PlacementStore`].
    ///
    /// # Errors
    ///
    /// Fails if the model's weights do not fit the architecture.
    pub fn new(arch: Architecture, model: TinyMlModel) -> Result<Self, CostModelError> {
        Self::with_policy_in(
            arch,
            model,
            CostParams::default(),
            OptimizerConfig::default(),
            default_policy(arch),
            &PlacementStore::new(),
        )
    }

    /// Builds a processor with explicit calibration knobs and an
    /// explicit [`PlacementPolicy`]: the policy is prepared against
    /// this processor's cost model, drawing its prepared state (the
    /// allocation LUT above all) from `store`, and then answers every
    /// per-slice placement query. Processors built on one store pay
    /// each distinct configuration's DP once;
    /// [`crate::session::SessionBuilder`] and
    /// [`crate::session::Session::sweep`] thread their store through
    /// here.
    ///
    /// The slice duration is always derived from the *HH-PIM* peak for
    /// the same model (see [`RuntimeConfig::reference`]), so all four
    /// architectures share identical slices, as in the paper.
    ///
    /// # Errors
    ///
    /// Fails if the model's weights do not fit the architecture, a
    /// calibration or optimizer parameter is outside its domain
    /// ([`CostModelError::InvalidParameter`]: `time_scale` must be a
    /// positive normal float within the bound [`CostModel::new`]
    /// states, `max_tasks_per_slice` at least 1,
    /// `retention_factor` finite and non-negative), the slice would
    /// not fit in a [`SimDuration`] ([`CostModelError::SliceOverflow`]),
    /// or the policy rejects its configuration (e.g. an invalid pinned
    /// placement).
    pub fn with_policy_in(
        arch: Architecture,
        model: TinyMlModel,
        params: CostParams,
        opt_config: OptimizerConfig,
        mut policy: Box<dyn PlacementPolicy>,
        store: &PlacementStore,
    ) -> Result<Self, CostModelError> {
        let profile = WorkloadProfile::from_spec(&model.spec());
        let spec = arch.spec();
        let cost = CostModel::new(spec, profile, params)?;
        let runtime = RuntimeConfig::reference(model, params)?;
        let retention = opt_config.retention_factor;
        if !(retention.is_finite() && retention >= 0.0) {
            return Err(CostModelError::InvalidParameter {
                field: "retention_factor",
                requirement: "finite and non-negative",
            });
        }
        policy.prepare(&cost, &runtime, &opt_config, store)?;
        let built = model.build();
        let total_macs: u64 = built
            .layers()
            .iter()
            .filter(|i| i.layer.is_pim_layer())
            .map(|i| i.macs)
            .sum();
        let layer_shares = built
            .layers()
            .iter()
            .enumerate()
            .filter(|(_, i)| i.layer.is_pim_layer())
            .map(|(idx, i)| {
                (
                    idx,
                    i.layer.to_string(),
                    i.macs as f64 / total_macs.max(1) as f64,
                )
            })
            .collect();
        Ok(Processor {
            arch: spec,
            cost,
            runtime,
            policy,
            layer_shares,
        })
    }

    /// The architecture specification.
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The underlying cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The runtime configuration (slice duration etc.).
    pub fn runtime(&self) -> &RuntimeConfig {
        &self.runtime
    }

    /// The placement policy answering per-slice queries.
    pub fn policy(&self) -> &dyn PlacementPolicy {
        self.policy.as_ref()
    }

    /// Placement the processor would use for an `n_tasks` slice
    /// (delegated to the bound [`PlacementPolicy`]).
    pub fn placement_for_tasks(&self, n_tasks: u32) -> Placement {
        self.policy.placement_for(&self.cost, n_tasks)
    }

    /// The placement adopted at boot, before the first slice is known.
    pub fn boot_placement(&self) -> Placement {
        self.policy.boot_placement(&self.cost)
    }

    /// Movement cost to transition between placements: groups leaving a
    /// space are read there and written at their destination; the lanes
    /// of the MEM interface move one group per module pair in parallel.
    /// The leg plan is shared with the cycle machine's migration engine
    /// via [`movement_legs`], so both backends move the same traffic.
    pub fn movement_cost(&self, from: &Placement, to: &Placement) -> (SimDuration, Energy, usize) {
        let group = self.cost.params().group_size as f64;
        let scale = self.cost.params().time_scale;
        let lanes = (self.arch.hp_modules + self.arch.lp_modules).max(1) as f64 / 2.0;
        let mut time_ns = 0.0;
        let mut energy_pj = 0.0;
        let mut moved = 0usize;
        for leg in movement_legs(from, to) {
            let src = hhpim_mem::tech_for(leg.src.cluster(), leg.src.kind());
            let dst = hhpim_mem::tech_for(leg.dst.cluster(), leg.dst.kind());
            let per_byte_ns = src.timing.read.as_ns_f64() + dst.timing.write.as_ns_f64();
            let per_byte_pj = src.read_energy().as_pj() + dst.write_energy().as_pj();
            time_ns += leg.groups as f64 * group * per_byte_ns / lanes * scale;
            energy_pj += leg.groups as f64 * group * per_byte_pj * scale;
            moved += leg.groups;
        }
        (
            SimDuration::from_ns_f64(time_ns),
            Energy::from_pj(energy_pj),
            moved,
        )
    }

    /// Evaluates one slice under `placement` with `n_tasks` tasks,
    /// charging `movement` at the boundary. Returns the record, numbered
    /// slice 0 for the caller to renumber, and pushes the slice's energy
    /// contributions onto `adds` in ledger order (the caller replays
    /// them into its ledger — and may cache the list, since the
    /// evaluation is a pure function of placement, task count and
    /// movement).
    fn evaluate_slice(
        &self,
        placement: Placement,
        n_tasks: u32,
        movement_time: SimDuration,
        movement_energy: Energy,
        groups_moved: usize,
        adds: &mut Vec<(EnergyCat, Energy)>,
    ) -> SliceRecord {
        let t = self.runtime.slice_duration;
        let usable = t.saturating_sub(movement_time);
        let t_constraint = if n_tasks > 0 {
            usable / n_tasks as u64
        } else {
            usable
        };
        let task_time = self.cost.task_time(&placement);
        let deadline_met = task_time <= t_constraint;
        let mut slice_energy = Energy::ZERO;
        let mut add = |cat: EnergyCat, e: Energy| {
            adds.push((cat, e));
            slice_energy += e;
        };
        // Weight leakage and traffic report under the space's
        // (cluster, technology) pair of the shared backend vocabulary.
        let mem_dynamic = |s: StorageSpace| EnergyCat::MemDynamic(s.cluster(), s.kind());
        let mem_static = |s: StorageSpace| EnergyCat::MemStatic(s.cluster(), s.kind());

        // Dynamic traffic.
        for (s, n) in placement.occupied() {
            add(
                mem_dynamic(s),
                self.cost.energy_per_group(s) * (n as u64 * n_tasks as u64),
            );
        }
        add(EnergyCat::Movement, movement_energy);

        // Busy time per cluster, capped at the slice (so saturating
        // on the way there is exact).
        let busy = |c: ClusterClass| -> SimDuration {
            let work = self.cost.cluster_time(&placement, c);
            let b = work
                .saturating_mul(n_tasks as u64)
                .saturating_add(movement_time);
            b.min(t)
        };

        match self.arch.gating {
            GatingPolicy::AlwaysOn => {
                for s in StorageSpace::ALL {
                    if self.arch.has_space(s) {
                        add(mem_static(s), self.cost.full_static_power(s) * t);
                    }
                }
                for c in ClusterClass::ALL {
                    if self.arch.modules_in(c) > 0 {
                        add(EnergyCat::PeStatic(c), self.cost.pe_static_power(c) * t);
                    }
                }
            }
            GatingPolicy::BankLevel => {
                for (s, _) in placement.occupied() {
                    let p = self.cost.weight_static_power(&placement, s);
                    let residency = match s.kind() {
                        // Volatile weights leak for the whole slice.
                        MemKind::Sram => t,
                        // Non-volatile banks gate whenever idle.
                        MemKind::Mram => busy(s.cluster()),
                    };
                    add(mem_static(s), p * residency);
                }
                for c in ClusterClass::ALL {
                    if self.arch.modules_in(c) > 0 {
                        let b = busy(c);
                        // Modules whose SRAM bank is already powered for
                        // weights have their activation region's leakage
                        // accounted there; only the remaining modules'
                        // buffers power up while computing.
                        let sram_space = StorageSpace::of_cluster(c)[1];
                        let weight_banks = self.cost.powered_banks(&placement, sram_space);
                        let free_modules =
                            self.arch.modules_in(c).saturating_sub(weight_banks) as f64;
                        add(
                            EnergyCat::MemStatic(c, MemKind::Sram),
                            (self.cost.act_buffer_static_power_per_module(c) * free_modules) * b,
                        );
                        add(EnergyCat::PeStatic(c), self.cost.pe_static_power(c) * b);
                    }
                }
            }
        }
        add(EnergyCat::Controller, self.runtime.controller_static * t);

        SliceRecord {
            slice: 0,
            n_tasks,
            placement: Some(placement),
            t_constraint,
            task_time,
            movement_time,
            groups_moved,
            deadline_met,
            energy: slice_energy,
        }
    }

    /// Opens a resumable streaming run: the returned state is fed one
    /// slice at a time through [`Processor::step_run`] and closed by
    /// [`Processor::finish_run`]. [`Processor::run_trace`] (and with
    /// it the whole batch facade) is a loop over exactly this path.
    pub(crate) fn begin_run(&self) -> AnalyticRun {
        AnalyticRun::default()
    }

    /// Executes one slice of `n_tasks` incrementally: consults the
    /// placement policy (the LUT lookup on HH-PIM), charges any
    /// movement at the boundary, accounts the slice's energy and
    /// returns the decisions for the engine's event stream. The first
    /// slice's placement is adopted for free, as at boot.
    ///
    /// Policies are pure in `n_tasks` and the whole slice evaluation is
    /// a pure function of `(from, n_tasks)` given `&self`, so both are
    /// memoized on the run: steady-state streaming replays a cached
    /// energy add-list and patches a cached record instead of
    /// re-deriving the cost model — bit-identically, because the cached
    /// values came from the very same computation and the ledger
    /// receives the same additions in the same order.
    ///
    /// Fails with [`BackendError::TimeOverflow`], charging nothing, if
    /// the slice would end past the last [`SimTime`] or the run's
    /// total task time would overflow [`SimDuration`].
    pub(crate) fn step_run(
        &self,
        run: &mut AnalyticRun,
        n_tasks: u32,
    ) -> Result<SliceOutcome, BackendError> {
        let placement = {
            let idx = n_tasks as usize;
            if idx >= run.placements.len() {
                run.placements.resize(idx + 1, None);
            }
            match run.placements[idx] {
                Some(p) => p,
                None => {
                    let p = self.placement_for_tasks(n_tasks);
                    run.placements[idx] = Some(p);
                    p
                }
            }
        };
        let from = run.prev.unwrap_or(placement);
        let memo_idx = match run
            .steps
            .iter()
            .position(|s| s.from == from && s.n_tasks == n_tasks)
        {
            Some(i) => i,
            None => {
                let (mt, me, moved) = self.movement_cost(&from, &placement);
                let mut adds = Vec::new();
                let record = self.evaluate_slice(placement, n_tasks, mt, me, moved, &mut adds);
                let busy = record.task_time.saturating_mul(n_tasks as u64);
                let idle = self
                    .runtime
                    .slice_duration
                    .saturating_sub(busy.saturating_add(mt));
                let migration = (moved > 0).then_some(MigrationRecord {
                    slice: 0,
                    from,
                    to: placement,
                    groups: moved,
                    bytes: moved * self.cost.params().group_size,
                    time: mt,
                    energy: me,
                });
                run.steps.push(StepMemo {
                    from,
                    n_tasks,
                    adds,
                    slots: Vec::new(),
                    ledger_len: usize::MAX,
                    record,
                    migration,
                    idle,
                    dynamic_per_task: self.cost.dynamic_energy_per_task(&placement),
                });
                run.steps.len() - 1
            }
        };
        // The slice's end and the run's task time, checked before
        // anything is charged.
        self.runtime.slice_end(run.slice)?;
        let task_time = run.steps[memo_idx].record.task_time;
        let task_seconds = task_time
            .checked_mul(n_tasks as u64)
            .and_then(|t| run.task_seconds.checked_add(t))
            .ok_or(BackendError::TimeOverflow { slice: run.slice })?;
        // Replay the memo's energy additions. The slot fast path skips
        // the per-add category search once every category exists in the
        // ledger; `add_at` performs the identical `+=`, so the fold is
        // bit-for-bit the same either way.
        let memo = &mut run.steps[memo_idx];
        if memo.ledger_len == run.ledger.len() {
            for (&slot, &(_, e)) in memo.slots.iter().zip(&memo.adds) {
                run.ledger.add_at(slot, e);
            }
        } else {
            for &(cat, e) in &memo.adds {
                run.ledger.add(cat, e);
            }
            memo.slots = memo
                .adds
                .iter()
                .map(|(cat, _)| {
                    run.ledger
                        .slot_of(cat)
                        .expect("category inserted by the replay above")
                })
                .collect();
            memo.ledger_len = run.ledger.len();
        }
        let memo = &run.steps[memo_idx];
        let mut record = memo.record.clone();
        record.slice = run.slice;
        let migration = memo.migration.clone().map(|m| MigrationRecord {
            slice: run.slice,
            ..m
        });
        if let Some(m) = &migration {
            run.migrations.push(m.clone());
        }
        run.task_seconds = task_seconds;
        run.dynamic += memo.dynamic_per_task * n_tasks as u64;
        run.total_tasks += n_tasks as u64;
        run.records.push(record.clone());
        run.prev = memo.record.placement;
        run.slice += 1;
        Ok(SliceOutcome {
            record,
            migration,
            idle: memo.idle,
        })
    }

    /// Closes a streaming run into the unified [`ExecutionReport`].
    pub(crate) fn finish_run(&self, run: AnalyticRun) -> ExecutionReport {
        let layers = self
            .layer_shares
            .iter()
            .map(|(idx, label, share)| LayerRecord {
                layer: *idx,
                label: label.clone(),
                macs: (self.cost.profile().pim_macs as f64 * share * run.total_tasks as f64).round()
                    as u64,
                time: run.task_seconds.mul_f64(*share),
                energy: run.dynamic * *share,
            })
            .collect();
        let deadline_misses = run.records.iter().filter(|r| !r.deadline_met).count();
        ExecutionReport {
            backend: BackendKind::Analytic,
            arch: self.arch.arch,
            // Checked slice by slice in `step_run`.
            elapsed: SimTime::ZERO + self.runtime.slice_duration * run.records.len() as u64,
            records: run.records,
            layers,
            migrations: run.migrations,
            energy: run.ledger,
            deadline_misses,
            instructions: 0,
            macs: self.cost.profile().pim_macs * run.total_tasks,
        }
    }

    /// Runs a full load trace, returning per-slice records and the
    /// energy breakdown as a unified [`ExecutionReport`] — a batch
    /// loop over the resumable `begin_run → step_run → finish_run`
    /// streaming path (bit-identical to the former monolithic loop).
    ///
    /// The closed-form model has no native layer notion; its
    /// [`LayerRecord`]s apportion the per-task latency and dynamic
    /// energy across the model's PIM layers by MAC share, so they
    /// compare layer-by-layer with the cycle backend's measured records.
    ///
    /// # Errors
    ///
    /// [`BackendError::TimeOverflow`] if the trace would run past the
    /// last [`SimTime`].
    pub fn run_trace(&self, trace: &LoadTrace) -> Result<ExecutionReport, BackendError> {
        let mut run = self.begin_run();
        for &n in &trace.task_counts(self.runtime.max_tasks) {
            self.step_run(&mut run, n)?;
        }
        Ok(self.finish_run(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hhpim_workload::{Scenario, ScenarioParams};

    fn proc(arch: Architecture) -> Processor {
        Processor::new(arch, TinyMlModel::EfficientNetB0).unwrap()
    }

    fn trace(s: Scenario) -> LoadTrace {
        LoadTrace::generate(s, ScenarioParams::default())
    }

    #[test]
    fn slice_duration_shared_across_architectures() {
        let t: Vec<SimDuration> = Architecture::ALL
            .iter()
            .map(|&a| proc(a).runtime().slice_duration)
            .collect();
        assert!(t.windows(2).all(|w| w[0] == w[1]), "{t:?}");
        // T = 1.08 × 10 × HH peak ≈ 335 ms for EfficientNet-B0.
        assert!((300.0..=360.0).contains(&t[0].as_ms_f64()), "{}", t[0]);
    }

    #[test]
    fn hh_adapts_placement_to_load() {
        let p = proc(Architecture::HhPim);
        let low = p.placement_for_tasks(1);
        let high = p.placement_for_tasks(10);
        assert_ne!(low, high);
        assert!(
            low.get(StorageSpace::LpMram) > 0,
            "low load should use LP-MRAM: {low}"
        );
        let sram = high.get(StorageSpace::HpSram) + high.get(StorageSpace::LpSram);
        assert!(
            sram > high.total() / 2,
            "high load should be SRAM-heavy: {high}"
        );
    }

    #[test]
    fn fixed_architectures_never_move() {
        for arch in [
            Architecture::Baseline,
            Architecture::Heterogeneous,
            Architecture::Hybrid,
        ] {
            let p = proc(arch);
            let report = p.run_trace(&trace(Scenario::Random)).unwrap();
            assert!(report.records.iter().all(|r| r.groups_moved == 0), "{arch}");
            assert_eq!(report.energy.get(EnergyCat::Movement), Energy::ZERO);
        }
    }

    #[test]
    fn hh_moves_on_load_changes() {
        let p = proc(Architecture::HhPim);
        let report = p.run_trace(&trace(Scenario::PeriodicSpike)).unwrap();
        let moved: usize = report.records.iter().map(|r| r.groups_moved).sum();
        assert!(moved > 0, "spiky load must trigger re-placement");
        assert!(report.energy.get(EnergyCat::Movement).as_pj() > 0.0);
    }

    #[test]
    fn deadlines_met_across_scenarios() {
        for scenario in Scenario::ALL {
            let p = proc(Architecture::HhPim);
            let report = p.run_trace(&trace(scenario)).unwrap();
            assert_eq!(report.deadline_misses, 0, "{scenario}");
        }
    }

    #[test]
    fn hh_beats_every_fixed_architecture_on_every_scenario() {
        // The paper's headline: HH-PIM saves energy in all six cases
        // against all three comparison architectures.
        let hh = proc(Architecture::HhPim);
        for scenario in Scenario::ALL {
            let tr = trace(scenario);
            let e_hh = hh.run_trace(&tr).unwrap().total_energy();
            for other in [
                Architecture::Baseline,
                Architecture::Heterogeneous,
                Architecture::Hybrid,
            ] {
                let e = proc(other).run_trace(&tr).unwrap().total_energy();
                assert!(e_hh < e, "{scenario}: HH {} not below {other} {}", e_hh, e);
            }
        }
    }

    #[test]
    fn savings_larger_at_low_load_than_high_load() {
        let hh = proc(Architecture::HhPim);
        let base = proc(Architecture::Baseline);
        let saving = |s: Scenario| {
            let tr = trace(s);
            let e_hh = hh.run_trace(&tr).unwrap().total_energy();
            let e_b = base.run_trace(&tr).unwrap().total_energy();
            1.0 - e_hh / e_b
        };
        let low = saving(Scenario::LowConstant);
        let high = saving(Scenario::HighConstant);
        assert!(
            low > high,
            "low-load saving {low:.3} should exceed high-load {high:.3}"
        );
        assert!(
            low > 0.5,
            "low-load saving should be substantial, got {low:.3}"
        );
    }

    #[test]
    fn hetero_close_to_hh_at_constant_high_load() {
        // Paper: only 3.72 % savings vs Heterogeneous-PIM in Case 2.
        let hh = proc(Architecture::HhPim);
        let het = proc(Architecture::Heterogeneous);
        let tr = trace(Scenario::HighConstant);
        let e_hh = hh.run_trace(&tr).unwrap().total_energy();
        let e_het = het.run_trace(&tr).unwrap().total_energy();
        let saving = 1.0 - e_hh / e_het;
        assert!(
            saving < 0.25,
            "case 2 vs hetero should be small, got {saving:.3}"
        );
        assert!(saving >= 0.0);
    }

    #[test]
    fn movement_cost_symmetry_and_zero() {
        let p = proc(Architecture::HhPim);
        let a = p.placement_for_tasks(1);
        let b = p.placement_for_tasks(10);
        let (t_ab, e_ab, m_ab) = p.movement_cost(&a, &b);
        let (t_zero, e_zero, m_zero) = p.movement_cost(&a, &a);
        assert_eq!(
            (t_zero, e_zero, m_zero),
            (SimDuration::ZERO, Energy::ZERO, 0)
        );
        assert!(m_ab > 0);
        assert!(t_ab > SimDuration::ZERO && e_ab.as_pj() > 0.0);
        // Movement stays well under the slice (the paper requires no
        // inference delay from movement overhead).
        assert!(
            t_ab < p.runtime().slice_duration.mul_f64(0.2),
            "movement {t_ab}"
        );
    }

    #[test]
    fn ledger_records_expected_categories() {
        let p = proc(Architecture::HhPim);
        let report = p.run_trace(&trace(Scenario::HighConstant)).unwrap();
        use hhpim_mem::MemKind::Sram;
        use ClusterClass::HighPerformance;
        assert!(
            report
                .energy
                .get(EnergyCat::MemDynamic(HighPerformance, Sram))
                .as_pj()
                > 0.0
        );
        assert!(report.energy.get(EnergyCat::Controller).as_pj() > 0.0);
        assert!(
            report
                .energy
                .get(EnergyCat::PeStatic(HighPerformance))
                .as_pj()
                > 0.0
        );
        // Baseline never gates: full static including unused spaces it has.
        let b = proc(Architecture::Baseline)
            .run_trace(&trace(Scenario::LowConstant))
            .unwrap();
        assert!(
            b.energy
                .get(EnergyCat::MemStatic(HighPerformance, Sram))
                .as_pj()
                > 0.0
        );
    }
}
