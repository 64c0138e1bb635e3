//! First-class placement policies: *how* the runtime answers "where do
//! the weight groups live for an `n`-task slice?".
//!
//! The paper's runtime hardwires one answer — consult the DP-built
//! [`AllocationLut`] — and the comparison architectures hardwire
//! another — never move. This module lifts that decision out of
//! [`crate::Processor`] and [`crate::CycleBackend`] into a
//! [`PlacementPolicy`] trait object, so a
//! [`crate::session::SessionBuilder`] can swap policies without new
//! constructors:
//!
//! | policy             | decision                                            |
//! |--------------------|-----------------------------------------------------|
//! | [`LutAdaptive`]    | Algorithms 1 & 2 LUT lookup (the paper's HH-PIM)    |
//! | [`FixedHome`]      | one placement forever (Baseline/Hetero/Hybrid, or a caller-pinned home) |
//! | [`GreedyBaseline`] | energy-greedy fill, repaired group-by-group until the deadline fits |
//!
//! Both execution backends consume the same policy object, so a policy
//! choice changes the analytic accounting and the cycle-level machine
//! identically.

use crate::arch::{Architecture, PlacementMode};
use crate::cost::{CostModel, CostModelError};
use crate::dp::{AllocationLut, OptimizerConfig};
use crate::runtime::RuntimeConfig;
use crate::space::{Placement, StorageSpace};
use crate::store::PlacementStore;
use hhpim_sim::SimDuration;
use std::fmt;
use std::sync::Arc;

/// A weight-placement decision procedure, bound to one cost model at
/// session build time via [`PlacementPolicy::prepare`].
///
/// Implementations must be deterministic: the same prepared policy
/// asked about the same task count must always answer the same
/// placement (the runtime replays decisions slice by slice on both
/// backends and the reports must agree). `Send` keeps the backends
/// that hold a policy `Send` (see [`crate::ExecutionBackend`]).
pub trait PlacementPolicy: fmt::Debug + Send {
    /// Short machine-readable name (used in artifacts and reports).
    fn name(&self) -> &'static str;

    /// Builds per-model state (e.g. the allocation LUT) once, before
    /// any placement query. Called by [`crate::Processor`] during
    /// construction.
    ///
    /// Expensive state must be obtained through `store` rather than
    /// built privately: the [`PlacementStore`] memoizes it per
    /// configuration, so every processor, backend and sweep cell
    /// sharing one store pays each DP exactly once. With a
    /// persistent [`crate::artifact`] tier attached to the store
    /// (memory hit → disk hit → build-and-write-back), a policy
    /// prepared in a fresh process may pay no DP at all — the ladder
    /// is transparent here, and a loaded LUT is bit-identical to the
    /// build it replaces.
    ///
    /// # Errors
    ///
    /// Policies validating caller-supplied state (e.g. a pinned
    /// placement) fail here with
    /// [`CostModelError::InvalidPlacement`].
    fn prepare(
        &mut self,
        cost: &CostModel,
        runtime: &RuntimeConfig,
        opt: &OptimizerConfig,
        store: &PlacementStore,
    ) -> Result<(), CostModelError>;

    /// The placement for an `n_tasks` slice.
    fn placement_for(&self, cost: &CostModel, n_tasks: u32) -> Placement;

    /// The placement adopted at boot, before the first slice is known.
    fn boot_placement(&self, cost: &CostModel) -> Placement {
        self.placement_for(cost, 1)
    }

    /// Whether the policy can re-place between slices (`false` lets
    /// backends skip migration machinery entirely).
    fn is_adaptive(&self) -> bool {
        true
    }

    /// Clones the policy into a box (keeps policy-holding types
    /// [`Clone`]).
    fn clone_box(&self) -> Box<dyn PlacementPolicy>;
}

impl Clone for Box<dyn PlacementPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A boxed policy is itself a policy, delegating every method to its
/// contents. This lets call sites that select policies dynamically —
/// per-tenant overrides in [`crate::server::ServerBuilder`], config
/// tables, CLI dispatch — hand a `Box<dyn PlacementPolicy>` straight
/// to [`crate::session::SessionBuilder::policy`] without a concrete
/// type in sight.
impl PlacementPolicy for Box<dyn PlacementPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn prepare(
        &mut self,
        cost: &CostModel,
        runtime: &RuntimeConfig,
        opt: &OptimizerConfig,
        store: &PlacementStore,
    ) -> Result<(), CostModelError> {
        (**self).prepare(cost, runtime, opt, store)
    }

    fn placement_for(&self, cost: &CostModel, n_tasks: u32) -> Placement {
        (**self).placement_for(cost, n_tasks)
    }

    fn boot_placement(&self, cost: &CostModel) -> Placement {
        (**self).boot_placement(cost)
    }

    fn is_adaptive(&self) -> bool {
        (**self).is_adaptive()
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        (**self).clone_box()
    }
}

/// The architecture's Table I default policy: the DP LUT for
/// [`PlacementMode::DynamicDp`] designs, the fixed architectural home
/// otherwise.
pub fn default_policy(arch: Architecture) -> Box<dyn PlacementPolicy> {
    match arch.spec().placement {
        PlacementMode::DynamicDp => Box::new(LutAdaptive::new()),
        PlacementMode::Static => Box::new(FixedHome::arch_default()),
    }
}

/// The paper's HH-PIM policy: every queue-length change consults the
/// [`AllocationLut`] built by the bottom-up DP (Algorithms 1 & 2),
/// falling back to the fastest placement when the entry is infeasible.
///
/// The LUT is obtained from the [`PlacementStore`] in
/// [`PlacementPolicy::prepare`]: the first policy prepared for a
/// configuration runs the DP, every later one shares the same
/// [`Arc`]'d table.
#[derive(Debug, Clone, Default)]
pub struct LutAdaptive {
    lut: Option<Arc<AllocationLut>>,
}

impl LutAdaptive {
    /// An unprepared LUT policy (the LUT is resolved in `prepare`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The prepared LUT (`None` before `prepare`).
    pub fn lut(&self) -> Option<&AllocationLut> {
        self.lut.as_deref()
    }
}

impl PlacementPolicy for LutAdaptive {
    fn name(&self) -> &'static str {
        "lut-adaptive"
    }

    fn prepare(
        &mut self,
        cost: &CostModel,
        runtime: &RuntimeConfig,
        opt: &OptimizerConfig,
        store: &PlacementStore,
    ) -> Result<(), CostModelError> {
        self.lut = Some(store.lut(cost, runtime, opt));
        Ok(())
    }

    fn placement_for(&self, cost: &CostModel, n_tasks: u32) -> Placement {
        self.lut
            .as_ref()
            .and_then(|lut| lut.lookup(n_tasks))
            .map(|p| p.placement)
            .unwrap_or_else(|| cost.fastest_placement())
    }

    fn boot_placement(&self, cost: &CostModel) -> Placement {
        // The dynamic machine powers up at its peak configuration; the
        // first slice then re-places for the actual load.
        cost.fastest_placement()
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// One placement forever: either the architecture's Table I default
/// home or a caller-pinned placement. Never re-places, so backends
/// issue no migration traffic — this is the comparison point the paper
/// measures HH-PIM against.
#[derive(Debug, Clone, Default)]
pub struct FixedHome {
    pinned: Option<Placement>,
    home: Option<Placement>,
}

impl FixedHome {
    /// The architecture's default fixed home (all-SRAM for Baseline,
    /// the fastest split for Heterogeneous/HH, all-MRAM for Hybrid),
    /// resolved against the cost model in `prepare`.
    pub fn arch_default() -> Self {
        Self::default()
    }

    /// Pins an explicit placement; `prepare` rejects it if it violates
    /// capacities or does not place all weight groups.
    pub fn pinned(placement: Placement) -> Self {
        FixedHome {
            pinned: Some(placement),
            home: None,
        }
    }

    /// The resolved home (`None` before `prepare`).
    pub fn home(&self) -> Option<Placement> {
        self.home
    }
}

/// The Table I fixed home of `arch` under `cost`.
fn arch_fixed_home(arch: Architecture, cost: &CostModel) -> Placement {
    match arch {
        Architecture::Baseline => Placement::all_in(StorageSpace::HpSram, cost.k_groups()),
        Architecture::Hybrid => Placement::all_in(StorageSpace::HpMram, cost.k_groups()),
        _ => cost.fastest_placement(),
    }
}

impl PlacementPolicy for FixedHome {
    fn name(&self) -> &'static str {
        "fixed-home"
    }

    fn prepare(
        &mut self,
        cost: &CostModel,
        _runtime: &RuntimeConfig,
        _opt: &OptimizerConfig,
        _store: &PlacementStore,
    ) -> Result<(), CostModelError> {
        // A few arithmetic steps: nothing here is worth memoizing.
        let home = self
            .pinned
            .unwrap_or_else(|| arch_fixed_home(cost.arch().arch, cost));
        if !cost.is_valid(&home) {
            return Err(CostModelError::InvalidPlacement { placement: home });
        }
        self.home = Some(home);
        Ok(())
    }

    fn placement_for(&self, cost: &CostModel, _n_tasks: u32) -> Placement {
        self.home
            .unwrap_or_else(|| arch_fixed_home(cost.arch().arch, cost))
    }

    fn is_adaptive(&self) -> bool {
        false
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// A DP-free adaptive baseline: fill the lowest-dynamic-energy spaces
/// first, then repair the deadline group-by-group toward faster
/// spaces. Decides in `O(K)` per query where the LUT pays a DP solve
/// per task count at build time — the natural "is the DP worth it?"
/// ablation the session API makes selectable.
#[derive(Debug, Clone, Default)]
pub struct GreedyBaseline {
    usable_slice: SimDuration,
}

impl GreedyBaseline {
    /// An unprepared greedy policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PlacementPolicy for GreedyBaseline {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn prepare(
        &mut self,
        _cost: &CostModel,
        runtime: &RuntimeConfig,
        _opt: &OptimizerConfig,
        _store: &PlacementStore,
    ) -> Result<(), CostModelError> {
        // The same movement-margin headroom the LUT sizes against;
        // nothing here is worth memoizing.
        self.usable_slice = runtime.usable_slice();
        Ok(())
    }

    fn placement_for(&self, cost: &CostModel, n_tasks: u32) -> Placement {
        let t_constraint = self.usable_slice / u64::from(n_tasks.max(1));

        // Energy-greedy fill: cheapest dynamic energy first.
        let mut order: Vec<StorageSpace> = StorageSpace::ALL
            .into_iter()
            .filter(|&s| cost.capacity_groups(s) > 0)
            .collect();
        order.sort_by(|&a, &b| {
            cost.energy_per_group(a)
                .partial_cmp(&cost.energy_per_group(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(cost.time_per_group(a).cmp(&cost.time_per_group(b)))
        });
        let mut placement = Placement::empty();
        let mut remaining = cost.k_groups();
        for &space in &order {
            let take = remaining.min(cost.capacity_groups(space));
            placement.set(space, take);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }

        // Repair: while the slice misses its deadline, move one group
        // from the bottleneck cluster's slowest occupied space into the
        // fastest space with free capacity.
        for _ in 0..cost.k_groups() {
            if cost.task_time(&placement) <= t_constraint {
                return placement;
            }
            let bottleneck = hhpim_mem::ClusterClass::ALL
                .into_iter()
                .max_by_key(|&c| cost.cluster_time(&placement, c))
                .expect("two clusters");
            let Some(donor) = StorageSpace::of_cluster(bottleneck)
                .into_iter()
                .filter(|&s| placement.get(s) > 0)
                .max_by_key(|&s| cost.time_per_group(s))
            else {
                break;
            };
            let Some(dest) = StorageSpace::ALL
                .into_iter()
                .filter(|&s| s != donor && placement.get(s) < cost.capacity_groups(s))
                .min_by_key(|&s| cost.time_per_group(s))
            else {
                break;
            };
            if cost.time_per_group(dest) >= cost.time_per_group(donor) {
                break; // no faster harbor exists; repairing would regress
            }
            placement.set(donor, placement.get(donor) - 1);
            placement.set(dest, placement.get(dest) + 1);
        }
        if cost.task_time(&placement) <= t_constraint {
            placement
        } else {
            // Best effort under an unmeetable deadline, like the LUT's
            // fastest-placement fallback.
            cost.fastest_placement()
        }
    }

    fn boot_placement(&self, cost: &CostModel) -> Placement {
        cost.fastest_placement()
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostParams, WorkloadProfile};
    use hhpim_nn::TinyMlModel;

    fn prepared(
        arch: Architecture,
        mut policy: Box<dyn PlacementPolicy>,
    ) -> (CostModel, Box<dyn PlacementPolicy>) {
        let cost = CostModel::new(
            arch.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
            CostParams::default(),
        )
        .unwrap();
        let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, *cost.params()).unwrap();
        policy
            .prepare(
                &cost,
                &runtime,
                &OptimizerConfig::default(),
                &PlacementStore::new(),
            )
            .unwrap();
        (cost, policy)
    }

    #[test]
    fn lut_adaptive_matches_direct_lut_lookup() {
        let (cost, policy) = prepared(Architecture::HhPim, Box::new(LutAdaptive::new()));
        let low = policy.placement_for(&cost, 1);
        let high = policy.placement_for(&cost, 10);
        assert_ne!(low, high, "adaptive policy must react to load");
        assert!(cost.is_valid(&low) && cost.is_valid(&high));
        assert_eq!(policy.boot_placement(&cost), cost.fastest_placement());
    }

    #[test]
    fn fixed_home_never_moves_and_validates_pins() {
        let (cost, policy) = prepared(Architecture::Hybrid, Box::new(FixedHome::arch_default()));
        let p1 = policy.placement_for(&cost, 1);
        assert_eq!(p1, policy.placement_for(&cost, 10));
        assert_eq!(p1, Placement::all_in(StorageSpace::HpMram, cost.k_groups()));
        assert!(!policy.is_adaptive());

        // An over-capacity pin is rejected at prepare time.
        let bogus = Placement::all_in(StorageSpace::LpMram, cost.k_groups() * 10);
        let cost2 = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
            CostParams::default(),
        )
        .unwrap();
        let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, CostParams::default());
        let err = FixedHome::pinned(bogus)
            .prepare(
                &cost2,
                &runtime.unwrap(),
                &OptimizerConfig::default(),
                &PlacementStore::new(),
            )
            .unwrap_err();
        assert!(matches!(err, CostModelError::InvalidPlacement { .. }));
    }

    #[test]
    fn greedy_is_valid_schedulable_and_load_sensitive() {
        let (cost, policy) = prepared(Architecture::HhPim, Box::new(GreedyBaseline::new()));
        let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, *cost.params()).unwrap();
        let usable = runtime.usable_slice();
        for n in 1..=10u32 {
            let p = policy.placement_for(&cost, n);
            assert!(cost.is_valid(&p), "n={n}: {p}");
            assert!(
                cost.task_time(&p) <= usable / u64::from(n),
                "n={n}: greedy placement misses its own deadline"
            );
        }
        let low = policy.placement_for(&cost, 1);
        let high = policy.placement_for(&cost, 10);
        assert_ne!(low, high, "greedy must adapt to load");
        // At idle the greedy fill stays in the cheap low-power spaces.
        assert!(
            low.get(StorageSpace::LpMram) + low.get(StorageSpace::LpSram) > 0,
            "idle greedy placement should use the LP cluster: {low}"
        );
    }

    #[test]
    fn greedy_energy_stays_near_the_dp_lut() {
        let (cost, lut) = prepared(Architecture::HhPim, Box::new(LutAdaptive::new()));
        let (_, greedy) = prepared(Architecture::HhPim, Box::new(GreedyBaseline::new()));
        for n in 1..=10u32 {
            let e_lut = cost.dynamic_energy_per_task(&lut.placement_for(&cost, n));
            let e_greedy = cost.dynamic_energy_per_task(&greedy.placement_for(&cost, n));
            // The DP optimizes a leakage-aware objective, so compare on
            // a coarse bound: greedy may not be dramatically cheaper on
            // the dynamic term than the optimum's neighborhood.
            assert!(
                e_greedy.as_pj() <= e_lut.as_pj() * 1.5 + 1.0,
                "n={n}: greedy {e_greedy} vs lut {e_lut}"
            );
        }
    }

    #[test]
    fn boxed_policies_delegate_transparently() {
        let boxed: Box<dyn PlacementPolicy> = Box::new(LutAdaptive::new());
        let (cost, direct) = prepared(Architecture::HhPim, Box::new(LutAdaptive::new()));
        let (_, via_box) = prepared(Architecture::HhPim, Box::new(boxed));
        assert_eq!(via_box.name(), "lut-adaptive");
        assert!(via_box.is_adaptive());
        for n in 1..=10u32 {
            assert_eq!(
                via_box.placement_for(&cost, n),
                direct.placement_for(&cost, n)
            );
        }
        assert_eq!(via_box.boot_placement(&cost), direct.boot_placement(&cost));
        assert_eq!(via_box.clone_box().name(), "lut-adaptive");
    }

    #[test]
    fn default_policy_follows_the_table_i_mode() {
        assert_eq!(default_policy(Architecture::HhPim).name(), "lut-adaptive");
        for arch in [
            Architecture::Baseline,
            Architecture::Heterogeneous,
            Architecture::Hybrid,
        ] {
            assert_eq!(default_policy(arch).name(), "fixed-home");
        }
    }
}
