//! The dynamic data-placement optimizer (Algorithms 1 and 2).
//!
//! The paper reduces weight placement to a knapsack hybrid (unbounded ×
//! multi-choice): minimize per-task energy `Σ e_i·x_i` subject to
//! `Σ t_i·x_i ≤ t_constraint` per cluster and `Σ x_i = K`, solved by a
//! bottom-up DP per cluster (Algorithm 1) whose tables are then combined
//! across clusters (Algorithm 2) into a placement LUT.
//!
//! Faithfulness notes:
//! * the recurrence implemented is exactly Eq. (2), including the
//!   `count[i][t][k]` path-tracing array, which we additionally use to
//!   enforce per-space capacity (finite banks);
//! * Algorithm 2 reads each cluster's table only at the full budget
//!   `t = buckets`, so Algorithm 1 is computed only on that row: each
//!   of its cells is reached by walking the one chain of cells it
//!   depends on, with the same additions in the same order as the full
//!   table, so the LUTs are bit-identical to it at O(K) memory (see
//!   `ClusterDp`);
//! * `e_i` is per-task energy. When static amortization is enabled
//!   (the default), `e_i = e_dyn_i + P_static_i · t_constraint`: a
//!   weight resident in space *i* leaks for the task's whole time
//!   window. This is what makes LP-MRAM win at relaxed deadlines, the
//!   effect Fig. 6 reports;
//! * the time axis is bucketed (`time_buckets`), the resolution-limiting
//!   measure §III-B prescribes so table construction stays far below 1 %
//!   of a time slice.

use crate::cost::CostModel;
use crate::space::{Placement, StorageSpace};
use hhpim_mem::{ClusterClass, Energy};
use hhpim_sim::SimDuration;

/// Optimizer tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Buckets on the DP time axis (resolution limiter, §III-B).
    pub time_buckets: usize,
    /// Fold per-task leakage (`P_static · t_constraint`) into `e_i`.
    pub amortize_static: bool,
    /// Ratio of the SRAM retention window to `t_constraint`. Volatile
    /// weights leak for the whole slice share `T / n`, which exceeds
    /// `t_constraint = (T - movement) / n`; the default compensates for
    /// the runtime's 5 % movement margin.
    pub retention_factor: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            time_buckets: 2_000,
            amortize_static: true,
            retention_factor: 1.0 / 0.95,
        }
    }
}

impl OptimizerConfig {
    /// The configuration's canonical, hashable identity — the exact
    /// bit patterns of every field, so a [`crate::PlacementStore`] key
    /// distinguishes any two configurations that could build different
    /// LUTs. Returns `(time_buckets, amortize_static,
    /// retention_factor_bits)`.
    pub fn canonical_bits(&self) -> (usize, bool, u64) {
        (
            self.time_buckets,
            self.amortize_static,
            self.retention_factor.to_bits(),
        )
    }
}

/// The optimizer's answer for one `t_constraint`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalPlacement {
    /// The chosen placement.
    pub placement: Placement,
    /// Objective value: per-task energy (dynamic + amortized static).
    pub energy_per_task: Energy,
    /// Exact task latency of the placement.
    pub task_time: SimDuration,
}

/// One cluster's Algorithm 1 instance over its `[MRAM, SRAM]` spaces:
/// per-group times `t` in buckets (each ≥ 1), per-group energies `e_pj`
/// in pJ and capacities `caps` in groups, under a budget of `buckets`,
/// solved for group counts `0..=k_cap`.
#[derive(Debug)]
struct ClusterProblem {
    k_cap: usize,
    buckets: usize,
    t: [usize; 2],
    e_pj: [f64; 2],
    caps: [usize; 2],
}

/// Algorithm 1 for one cluster, computed only on the row Algorithm 2
/// reads: the full budget `t = buckets`, for every `k ≤ k_cap`.
///
/// In the full table, the MRAM layer (layer 0) has a closed form:
/// `dp0(t, k)` is `k` additions of `e_M`, one after another from
/// `0.0`, with `k` groups in MRAM, when `k ≤ cap_M` and `k·t_M ≤ t`,
/// and infeasible otherwise. A cell of the SRAM layer reads only
/// `dp0` at its own `(t, k)` (the skip branch) and its own layer at
/// `(t − t_S, k − 1)` (the add branch). So `(buckets, k)` depends on
/// nothing but the chain `(buckets − j·t_S, k − j)`, and walking that
/// chain bottom-up, with the recurrence's run count and comparisons,
/// performs exactly the float additions the full table performs for
/// those cells, in the same order. Energies and MRAM counts are
/// therefore bit-identical to the full table, which the tests keep as
/// the oracle, at `k_cap + 1` cells of memory and at most `k_cap²/2`
/// steps instead of `(buckets + 1) × (k_cap + 1)` cells per layer.
///
/// Columns beyond `k_cap` are infeasible (the caller caps it at the
/// cluster's capacity and at what fits the budget), so
/// [`ClusterDp::energy_at`] answers `f64::INFINITY` for them without
/// computing a cell; no cell's value depends on `k_cap`.
#[derive(Debug, Clone)]
struct ClusterDp {
    /// `energy[k]` at `t = buckets`, pJ; `f64::INFINITY` = infeasible.
    energy: Vec<f64>,
    /// Groups placed in MRAM on the optimal path to `energy[k]`.
    mram: Vec<u32>,
}

impl ClusterDp {
    fn energy_at(&self, k: usize) -> f64 {
        self.energy.get(k).copied().unwrap_or(f64::INFINITY)
    }

    fn mram_at(&self, k: usize) -> u32 {
        self.mram.get(k).copied().unwrap_or(0)
    }

    fn solve(p: &ClusterProblem) -> Self {
        let [t_m, t_s] = p.t;
        let [e_m, e_s] = p.e_pj;
        let [cap_m, cap_s] = p.caps;
        // `mram_run[k]`: the k-fold sum every feasible `dp0(·, k)`
        // holds. A sum that is not `< ∞` ends the run, as it loses the
        // table's comparison against the infeasible skip branch.
        let mut mram_run = vec![0.0];
        while mram_run.len() <= p.k_cap.min(cap_m) {
            let sum = mram_run[mram_run.len() - 1] + e_m;
            if sum < f64::INFINITY {
                mram_run.push(sum);
            } else {
                break;
            }
        }
        let dp0 = |t: usize, k: usize| match mram_run.get(k) {
            Some(&e) if k.saturating_mul(t_m) <= t => (e, k as u32),
            _ => (f64::INFINITY, 0),
        };
        let depth = p.buckets / t_s;
        let mut energy = Vec::with_capacity(p.k_cap + 1);
        let mut mram = Vec::with_capacity(p.k_cap + 1);
        for k in 0..=p.k_cap {
            // The chain's first cell has no add branch (no time or no
            // group left), so it takes the skip branch with a run of 0.
            let top = k.min(depth);
            let (mut e, mut m) = dp0(p.buckets - top * t_s, k - top);
            let mut run = 0;
            for j in (0..top).rev() {
                let (skip_e, skip_m) = dp0(p.buckets - j * t_s, k - j);
                let add = e + e_s;
                if run < cap_s && add < skip_e {
                    e = add;
                    run += 1;
                } else {
                    (e, m, run) = (skip_e, skip_m, 0);
                }
            }
            energy.push(e);
            mram.push(m);
        }
        ClusterDp { energy, mram }
    }
}

/// The placement optimizer over a [`CostModel`].
#[derive(Debug, Clone)]
pub struct PlacementOptimizer<'a> {
    cost: &'a CostModel,
    config: OptimizerConfig,
}

impl<'a> PlacementOptimizer<'a> {
    /// Creates an optimizer over `cost`.
    pub fn new(cost: &'a CostModel, config: OptimizerConfig) -> Self {
        PlacementOptimizer { cost, config }
    }

    /// Leakage residency of one group in `space` within a task window of
    /// `t_constraint`: volatile SRAM must stay powered for the whole
    /// window, while an MRAM bank is gated except while streaming its
    /// own weights (≈ its per-group processing time).
    fn static_residency(&self, space: StorageSpace, t_constraint: SimDuration) -> SimDuration {
        match space.kind() {
            hhpim_mem::MemKind::Sram => t_constraint.mul_f64(self.config.retention_factor),
            hhpim_mem::MemKind::Mram => self.cost.time_per_group(space).min(t_constraint),
        }
    }

    /// Per-task energy of `placement` under this optimizer's objective
    /// (dynamic + amortized static if enabled).
    pub fn objective(&self, placement: &Placement, t_constraint: SimDuration) -> Energy {
        let mut total = self.cost.dynamic_energy_per_task(placement);
        if self.config.amortize_static {
            for (s, n) in placement.occupied() {
                total += (self.cost.static_power_per_group(s) * n as f64)
                    * self.static_residency(s, t_constraint);
            }
        }
        total
    }

    fn e_pj(&self, space: StorageSpace, t_constraint: SimDuration) -> f64 {
        let mut e = self.cost.energy_per_group(space).as_pj();
        if self.config.amortize_static {
            e += (self.cost.static_power_per_group(space)
                * self.static_residency(space, t_constraint))
            .as_pj();
        }
        e
    }

    /// Minimum-energy placement ignoring the time constraint: fill the
    /// cheapest spaces to capacity (the relaxed optimum; the far-right
    /// plateau of Fig. 6).
    pub fn relaxed_optimal(&self, t_constraint: SimDuration) -> Placement {
        let mut spaces: Vec<StorageSpace> = StorageSpace::ALL
            .into_iter()
            .filter(|&s| self.cost.capacity_groups(s) > 0)
            .collect();
        spaces.sort_by(|&a, &b| {
            self.e_pj(a, t_constraint)
                .partial_cmp(&self.e_pj(b, t_constraint))
                .expect("energies are finite")
        });
        let mut placement = Placement::empty();
        let mut remaining = self.cost.k_groups();
        for s in spaces {
            let take = remaining.min(self.cost.capacity_groups(s));
            placement.set(s, take);
            remaining -= take;
            if remaining == 0 {
                break;
            }
        }
        placement
    }

    /// Runs Algorithms 1 + 2 for one `t_constraint`; `None` when no
    /// placement can meet the deadline (the gray region of Fig. 6).
    pub fn optimize(&self, t_constraint: SimDuration) -> Option<OptimalPlacement> {
        let k = self.cost.k_groups();
        if k == 0 {
            return Some(OptimalPlacement {
                placement: Placement::empty(),
                energy_per_task: Energy::ZERO,
                task_time: SimDuration::ZERO,
            });
        }
        // Shortcut: if the relaxed optimum already meets the deadline it
        // is the answer (min-energy regardless of time).
        let relaxed = self.relaxed_optimal(t_constraint);
        if self.cost.task_time(&relaxed) <= t_constraint && self.cost.is_valid(&relaxed) {
            return Some(OptimalPlacement {
                energy_per_task: self.objective(&relaxed, t_constraint),
                task_time: self.cost.task_time(&relaxed),
                placement: relaxed,
            });
        }
        // Infeasibility: even the fastest placement misses the deadline.
        let fastest = self.cost.fastest_placement();
        if self.cost.task_time(&fastest) > t_constraint {
            return None;
        }

        let solve = |cluster| {
            self.cluster_problem(cluster, t_constraint)
                .map(|p| ClusterDp::solve(&p))
        };
        let hp = solve(ClusterClass::HighPerformance);
        let lp = solve(ClusterClass::LowPower);

        // Algorithm 2: scan k_hp at the full budget t = buckets.
        let mut best: Option<(f64, Placement)> = None;
        match (&hp, &lp) {
            (Some(hp), Some(lp)) => {
                for k_hp in 0..=k {
                    let k_lp = k - k_hp;
                    let e = hp.energy_at(k_hp) + lp.energy_at(k_lp);
                    if e.is_finite() && best.as_ref().is_none_or(|(b, _)| e < *b) {
                        let hp_m = hp.mram_at(k_hp) as usize;
                        let lp_m = lp.mram_at(k_lp) as usize;
                        let placement =
                            Placement::from_counts([hp_m, k_hp - hp_m, lp_m, k_lp - lp_m]);
                        best = Some((e, placement));
                    }
                }
            }
            (Some(single), None) | (None, Some(single)) => {
                let e = single.energy_at(k);
                if e.is_finite() {
                    let m = single.mram_at(k) as usize;
                    let counts = if hp.is_some() {
                        [m, k - m, 0, 0]
                    } else {
                        [0, 0, m, k - m]
                    };
                    best = Some((e, Placement::from_counts(counts)));
                }
            }
            (None, None) => {}
        }
        // The bucketed DP can be slightly pessimistic at the feasibility
        // boundary (round-up of t_i); the exact-arithmetic fastest
        // placement is always a valid candidate there. Take whichever
        // candidate has the lower objective, validating exact task time.
        let mut candidates: Vec<Placement> = Vec::new();
        if let Some((_, p)) = best {
            candidates.push(p);
        }
        candidates.push(fastest);
        let chosen = candidates
            .into_iter()
            .filter(|p| self.cost.is_valid(p) && self.cost.task_time(p) <= t_constraint)
            .min_by(|a, b| {
                self.objective(a, t_constraint)
                    .partial_cmp(&self.objective(b, t_constraint))
                    .expect("objectives are finite")
            })?;
        Some(OptimalPlacement {
            energy_per_task: self.objective(&chosen, t_constraint),
            task_time: self.cost.task_time(&chosen),
            placement: chosen,
        })
    }

    /// Algorithm 1's instance for `cluster` at `t_constraint`; `None`
    /// when the architecture has no modules in that cluster.
    fn cluster_problem(
        &self,
        cluster: ClusterClass,
        t_constraint: SimDuration,
    ) -> Option<ClusterProblem> {
        if self.cost.arch().modules_in(cluster) == 0 {
            return None;
        }
        let buckets = self.config.time_buckets.max(8);
        let bucket_ps = (t_constraint.as_ps() / buckets as u64).max(1);
        // Ceiling quantization: the DP never underestimates a group's
        // time, so every recovered placement is exactly feasible (the
        // boundary pessimism is absorbed by `optimize`'s
        // fastest-placement candidate).
        let quantize =
            |d: SimDuration| -> usize { (d.as_ps().div_ceil(bucket_ps) as usize).max(1) };
        let [m, s] = StorageSpace::of_cluster(cluster);
        let t = [
            quantize(self.cost.time_per_group(m)),
            quantize(self.cost.time_per_group(s)),
        ];
        let caps = [self.cost.capacity_groups(m), self.cost.capacity_groups(s)];
        // Columns the cluster can never populate are not solved: beyond
        // its capacity, and beyond what fits the full time budget (every
        // selection costs ≥ min(t_i) buckets).
        let k_cap = self
            .cost
            .k_groups()
            .min(caps[0] + caps[1])
            .min(buckets / t[0].min(t[1]));
        Some(ClusterProblem {
            k_cap,
            buckets,
            t,
            e_pj: [self.e_pj(m, t_constraint), self.e_pj(s, t_constraint)],
            caps,
        })
    }

    /// Exhaustive reference optimizer (small `K` only), used by tests to
    /// verify DP optimality.
    ///
    /// # Panics
    ///
    /// Panics if `K > 24` (search space too large).
    pub fn brute_force(&self, t_constraint: SimDuration) -> Option<OptimalPlacement> {
        let k = self.cost.k_groups();
        assert!(k <= 24, "brute force limited to small instances");
        let mut best: Option<OptimalPlacement> = None;
        for a in 0..=k {
            for b in 0..=(k - a) {
                for c in 0..=(k - a - b) {
                    let d = k - a - b - c;
                    let p = Placement::from_counts([a, b, c, d]);
                    if !self.cost.is_valid(&p) {
                        continue;
                    }
                    let time = self.cost.task_time(&p);
                    if time > t_constraint {
                        continue;
                    }
                    let e = self.objective(&p, t_constraint);
                    if best.as_ref().is_none_or(|x| e < x.energy_per_task) {
                        best = Some(OptimalPlacement {
                            placement: p,
                            energy_per_task: e,
                            task_time: time,
                        });
                    }
                }
            }
        }
        best
    }
}

/// The allocation-state look-up table: optimal placements indexed by
/// per-slice task count (the runtime's only decision points), built once
/// at application initialization as §III-B prescribes.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationLut {
    entries: Vec<Option<OptimalPlacement>>,
    t_constraints: Vec<SimDuration>,
}

impl AllocationLut {
    /// Builds the LUT for task counts `1..=max_tasks`, each with its
    /// `t_constraint = usable_slice / n`.
    pub fn build(
        optimizer: &PlacementOptimizer<'_>,
        usable_slice: SimDuration,
        max_tasks: u32,
    ) -> Self {
        let t_constraints: Vec<SimDuration> =
            (1..=max_tasks).map(|n| usable_slice / n as u64).collect();
        let entries = t_constraints
            .iter()
            .map(|&t_c| optimizer.optimize(t_c))
            .collect();
        AllocationLut {
            entries,
            t_constraints,
        }
    }

    /// Placement for `n_tasks` (clamped to the table's range).
    ///
    /// Task counts above the built range clamp onto the largest entry.
    /// When that clamped entry is itself infeasible (its `t_constraint`
    /// sits in the gray region), the lookup falls back to the largest
    /// *feasible* entry below it rather than returning `None`: the
    /// paper's runtime never stalls on a full queue — it serves an
    /// over-full slice with the most load-tolerant placement it knows.
    /// Within the built range an infeasible entry still returns `None`
    /// (the caller decides its own fallback, e.g. the fastest
    /// placement).
    pub fn lookup(&self, n_tasks: u32) -> Option<&OptimalPlacement> {
        if self.entries.is_empty() {
            return None;
        }
        let idx = (n_tasks.max(1) as usize - 1).min(self.entries.len() - 1);
        if self.entries[idx].is_some() || (n_tasks as usize) <= self.entries.len() {
            return self.entries[idx].as_ref();
        }
        self.entries[..idx].iter().rev().find_map(|e| e.as_ref())
    }

    /// The `t_constraint` associated with `n_tasks`.
    pub fn t_constraint(&self, n_tasks: u32) -> Option<SimDuration> {
        if self.t_constraints.is_empty() {
            return None;
        }
        let idx = (n_tasks.max(1) as usize - 1).min(self.t_constraints.len() - 1);
        Some(self.t_constraints[idx])
    }

    /// Number of entries (max task count covered).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the LUT is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The table's entries in task-count order (`entries()[n-1]` is
    /// the answer for `n` tasks; `None` = infeasible). Exposed for the
    /// [`crate::artifact`] serializer; runtime lookups should go
    /// through [`AllocationLut::lookup`], which adds the over-range
    /// clamping and feasibility fallback.
    pub fn entries(&self) -> &[Option<OptimalPlacement>] {
        &self.entries
    }

    /// The per-entry deadline budgets, parallel to
    /// [`AllocationLut::entries`].
    pub fn t_constraints(&self) -> &[SimDuration] {
        &self.t_constraints
    }

    /// Reassembles a LUT from its parts — the inverse of
    /// [`AllocationLut::entries`] / [`AllocationLut::t_constraints`],
    /// used by the [`crate::artifact`] loader. A deserialized table is
    /// indistinguishable from the build that produced it (`PartialEq`
    /// over every entry).
    ///
    /// # Panics
    ///
    /// Panics when the two vectors disagree in length — a LUT always
    /// carries exactly one `t_constraint` per entry.
    pub fn from_parts(
        entries: Vec<Option<OptimalPlacement>>,
        t_constraints: Vec<SimDuration>,
    ) -> Self {
        assert_eq!(
            entries.len(),
            t_constraints.len(),
            "one t_constraint per LUT entry"
        );
        AllocationLut {
            entries,
            t_constraints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::cost::{CostModel, CostParams, WorkloadProfile};
    use hhpim_nn::TinyMlModel;

    fn small_cost(weight_bytes: usize) -> CostModel {
        // Small K for brute-force comparisons.
        CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile {
                weight_bytes,
                pim_macs: weight_bytes as u64 * 20,
            },
            CostParams {
                group_size: 512,
                ..CostParams::default()
            },
        )
        .unwrap()
    }

    fn effnet_cost() -> CostModel {
        CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::EfficientNetB0.spec()),
            CostParams::default(),
        )
        .unwrap()
    }

    /// The full `(buckets+1) × (k_max+1)` Algorithm 1 table, the
    /// reference [`ClusterDp::solve`]'s row walk is checked against.
    /// Test-only: nothing outside this module builds it.
    struct FullTable {
        k_max: usize,
        /// `energy[t * (k_max+1) + k]`, pJ; `f64::INFINITY` = infeasible.
        energy: Vec<f64>,
        /// Groups placed in MRAM on the optimal path.
        mram: Vec<u32>,
    }

    impl FullTable {
        /// Algorithm 1 for one cluster.
        ///
        /// `spaces` are the cluster's `[MRAM, SRAM]`; `t_i` in buckets,
        /// `e_i` in pJ, `cap_i` in groups.
        fn build(
            k_max: usize,
            buckets: usize,
            t_bucketed: [usize; 2],
            e_pj: [f64; 2],
            caps: [usize; 2],
        ) -> Self {
            let cells = (buckets + 1) * (k_max + 1);
            // Layer i-1 = "no spaces considered": only k = 0 is feasible.
            let mut prev_energy = vec![f64::INFINITY; cells];
            let mut prev_mram = vec![0u32; cells];
            for t in 0..=buckets {
                prev_energy[t * (k_max + 1)] = 0.0;
            }
            let mut energy = prev_energy.clone();
            let mut mram = prev_mram.clone();

            for (i, ((ti, ei), cap)) in t_bucketed.into_iter().zip(e_pj).zip(caps).enumerate() {
                // `count` of space-i selections on the optimal path, used both
                // for path recovery and capacity enforcement.
                let mut count = vec![0u32; cells];
                energy.copy_from_slice(&prev_energy);
                mram.copy_from_slice(&prev_mram);
                for k in 1..=k_max {
                    for t in 0..=buckets {
                        let cell = t * (k_max + 1) + k;
                        // Skip branch: dp[i-1][t][k].
                        let mut best = prev_energy[cell];
                        let mut best_count = 0u32;
                        let mut best_mram = prev_mram[cell];
                        // Add-one branch: dp[i][t - ti][k - 1] + ei, guarded
                        // by the time budget and the space capacity.
                        if ti <= t {
                            let pred = (t - ti) * (k_max + 1) + (k - 1);
                            let pred_count = count[pred];
                            if (pred_count as usize) < cap {
                                let cand = energy[pred] + ei;
                                if cand < best {
                                    best = cand;
                                    best_count = pred_count + 1;
                                    best_mram = if i == 0 { mram[pred] + 1 } else { mram[pred] };
                                }
                            }
                        }
                        energy[cell] = best;
                        count[cell] = best_count;
                        mram[cell] = best_mram;
                    }
                }
                prev_energy.copy_from_slice(&energy);
                prev_mram.copy_from_slice(&mram);
            }
            FullTable {
                k_max,
                energy,
                mram,
            }
        }
    }

    /// Asserts that the row walk equals the full table's `t = buckets`
    /// row: energies bit for bit, MRAM counts exactly, and nothing
    /// feasible beyond `k_cap`.
    fn assert_walk_matches_full_table(p: &ClusterProblem) {
        let full = FullTable::build(p.k_cap, p.buckets, p.t, p.e_pj, p.caps);
        let walk = ClusterDp::solve(p);
        let row = p.buckets * (full.k_max + 1);
        for k in 0..=p.k_cap {
            assert_eq!(
                walk.energy_at(k).to_bits(),
                full.energy[row + k].to_bits(),
                "energy at k = {k} of {p:?}"
            );
            assert_eq!(
                walk.mram_at(k),
                full.mram[row + k],
                "MRAM at k = {k} of {p:?}"
            );
        }
        assert_eq!(walk.energy_at(p.k_cap + 1), f64::INFINITY);
        assert_eq!(walk.mram_at(p.k_cap + 1), 0);
    }

    /// SplitMix64, the seeded generator of the random instances.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    #[test]
    fn row_walk_is_bit_identical_to_full_table_on_random_instances() {
        let mut rng = SplitMix(0x5EED);
        let (mut zero_cap, mut cap_below_k, mut slow_space) = (0, 0, 0);
        for _ in 0..3_000 {
            let buckets = 8 + rng.below(300);
            let mut time = || match rng.below(10) {
                0 => buckets + 1 + rng.below(20),
                1..=5 => 1 + rng.below(8),
                _ => 1 + rng.below(buckets),
            };
            let t = [time(), time()];
            // Dyadic energies make add and skip tie exactly; the
            // others are arbitrary doubles.
            let mut energy = || match rng.below(3) {
                0 => rng.below(4) as f64 * 0.5,
                _ => rng.below(1 << 30) as f64 / 7.0e6,
            };
            let e_pj = [energy(), energy()];
            let p = ClusterProblem {
                k_cap: rng.below(60),
                buckets,
                t,
                e_pj,
                caps: [rng.below(70), rng.below(70)],
            };
            zero_cap += usize::from(p.caps.contains(&0));
            cap_below_k += usize::from(p.caps.iter().any(|&c| c < p.k_cap));
            slow_space += usize::from(p.t.iter().any(|&t| t > buckets));
            assert_walk_matches_full_table(&p);
        }
        assert!(
            zero_cap > 0 && cap_below_k > 0 && slow_space > 0,
            "{zero_cap} zero caps, {cap_below_k} caps below k, {slow_space} t_i > buckets"
        );
    }

    /// Checks the row walk against the full table on the cluster
    /// problems `optimize` hands to the DP while building the 10-entry
    /// LUTs of every architecture × model at each of `resolutions`.
    /// Entries the relaxed optimum answers, or that nothing can meet,
    /// never reach the DP. The slice (2–12 peak task times) rotates
    /// across the (resolution, architecture, model) triples, so every
    /// resolution sees every slice factor; the full product takes
    /// minutes in the unoptimized test profile.
    fn assert_walk_matches_on_lut_inputs(resolutions: &[usize]) {
        let mut slice_factors = (2u64..=12).cycle();
        let mut solved = 0;
        for &buckets in resolutions {
            for arch in Architecture::ALL {
                for model in TinyMlModel::ALL {
                    let cost = CostModel::new(
                        arch.spec(),
                        WorkloadProfile::from_spec(&model.spec()),
                        CostParams::default(),
                    )
                    .unwrap();
                    let opt = PlacementOptimizer::new(
                        &cost,
                        OptimizerConfig {
                            time_buckets: buckets,
                            ..OptimizerConfig::default()
                        },
                    );
                    let slice_factor = slice_factors.next().expect("cycle never ends");
                    let usable = cost.peak_task_time() * slice_factor;
                    for n in 1..=10u64 {
                        let t = usable / n;
                        let relaxed = opt.relaxed_optimal(t);
                        if (cost.task_time(&relaxed) <= t && cost.is_valid(&relaxed))
                            || cost.task_time(&cost.fastest_placement()) > t
                        {
                            continue;
                        }
                        for cluster in ClusterClass::ALL {
                            if let Some(p) = opt.cluster_problem(cluster, t) {
                                assert_walk_matches_full_table(&p);
                                solved += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(solved > 0, "no LUT entry reached the DP");
    }

    #[test]
    fn row_walk_is_bit_identical_to_full_table_on_lut_inputs_at_ci_resolutions() {
        assert_walk_matches_on_lut_inputs(&[150, 277, 401, 499]);
    }

    #[test]
    fn row_walk_is_bit_identical_to_full_table_on_lut_inputs_at_default_resolution() {
        assert_walk_matches_on_lut_inputs(&[OptimizerConfig::default().time_buckets]);
    }

    #[test]
    fn relaxed_optimum_is_lp_mram() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        // Generous deadline: everything belongs in LP-MRAM (minimal
        // leakage dominates), exactly the paper's most-efficient region.
        let p = opt.relaxed_optimal(SimDuration::from_ms(400));
        assert_eq!(p.get(StorageSpace::LpMram), cost.k_groups());
    }

    #[test]
    fn tight_deadline_forces_sram_mix() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let peak = cost.peak_task_time();
        let result = opt.optimize(peak).expect("peak must be feasible");
        // At the peak deadline, SRAM must carry (nearly) everything.
        let sram =
            result.placement.get(StorageSpace::HpSram) + result.placement.get(StorageSpace::LpSram);
        assert!(
            sram as f64 >= 0.9 * cost.k_groups() as f64,
            "placement {} not SRAM-heavy",
            result.placement
        );
        assert!(result.task_time <= peak + SimDuration::from_ms(2));
    }

    #[test]
    fn infeasible_below_peak() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let too_tight = cost.peak_task_time().mul_f64(0.5);
        assert!(
            opt.optimize(too_tight).is_none(),
            "gray region must be detected"
        );
    }

    #[test]
    fn energy_decreases_with_relaxed_deadlines() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let peak = cost.peak_task_time();
        // Normalized per-task energy must be non-increasing in
        // t_constraint at fixed t... note the objective includes
        // t-amortized leakage so compare *dynamic* energies of chosen
        // placements at increasing deadlines.
        let mut last_dyn = f64::INFINITY;
        for factor in [1.0, 1.5, 2.5, 4.0, 8.0] {
            let r = opt.optimize(peak.mul_f64(factor)).expect("feasible");
            let dyn_e = cost.dynamic_energy_per_task(&r.placement).as_pj();
            // Dynamic energy may rise as weights move to MRAM, but the
            // *objective at its own deadline* must beat keeping the peak
            // placement at that deadline.
            let keep_peak = opt.objective(&cost.fastest_placement(), peak.mul_f64(factor));
            assert!(
                r.energy_per_task.as_pj() <= keep_peak.as_pj() + 1e-6,
                "optimized {} must beat static peak {} at {}x",
                r.energy_per_task,
                keep_peak,
                factor
            );
            last_dyn = last_dyn.min(dyn_e);
        }
    }

    #[test]
    fn dp_matches_brute_force_small() {
        let cost = small_cost(6 * 512);
        let opt = PlacementOptimizer::new(
            &cost,
            OptimizerConfig {
                time_buckets: 800,
                ..OptimizerConfig::default()
            },
        );
        for ms in [1u64, 2, 3, 5, 8, 15, 40] {
            let t = SimDuration::from_ms(ms);
            let dp = opt.optimize(t);
            let bf = opt.brute_force(t);
            match (dp, bf) {
                (None, None) => {}
                (Some(d), Some(b)) => {
                    let rel = (d.energy_per_task.as_pj() - b.energy_per_task.as_pj()).abs()
                        / b.energy_per_task.as_pj().max(1.0);
                    assert!(
                        rel < 0.02,
                        "t={ms}ms: dp {} vs bf {} ({} vs {})",
                        d.energy_per_task,
                        b.energy_per_task,
                        d.placement,
                        b.placement
                    );
                }
                (d, b) => panic!("feasibility mismatch at t={ms}ms: dp={d:?} bf={b:?}"),
            }
        }
    }

    #[test]
    fn lut_lookup_clamps() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let slice = cost.peak_task_time() * 10;
        let lut = AllocationLut::build(&opt, slice, 10);
        assert_eq!(lut.len(), 10);
        assert!(lut.lookup(1).is_some());
        assert!(lut.lookup(10).is_some());
        // Beyond the table: clamps to the 10-task entry.
        assert_eq!(
            lut.lookup(25).map(|p| p.placement),
            lut.lookup(10).map(|p| p.placement)
        );
        assert_eq!(lut.t_constraint(10), Some(slice / 10));
    }

    #[test]
    fn lut_above_range_falls_back_to_largest_feasible_entry() {
        // Slice sized so the largest task counts are infeasible (their
        // t_constraint falls below the architectural peak) while small
        // counts remain feasible.
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let slice = cost.peak_task_time() * 4;
        let lut = AllocationLut::build(&opt, slice, 10);
        assert!(lut.lookup(4).is_some(), "4 tasks fit in 4 peak times");
        assert!(
            lut.lookup(10).is_none(),
            "10 tasks cannot fit in 4 peak times"
        );
        // A full queue beyond the table must not stall: it clamps onto
        // the infeasible 10-task entry and then falls back to the
        // largest feasible one.
        let over = lut.lookup(25).expect("over-full queue must not stall");
        let largest_feasible = (1..=10)
            .rev()
            .find_map(|n| lut.lookup(n))
            .expect("some entry is feasible");
        assert_eq!(over.placement, largest_feasible.placement);
    }

    #[test]
    fn lut_low_load_prefers_lp_mram_high_load_prefers_sram() {
        let cost = effnet_cost();
        let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let slice = cost.peak_task_time() * 10;
        let lut = AllocationLut::build(&opt, slice, 10);
        let low = lut.lookup(1).expect("1 task feasible");
        let high = lut.lookup(10).expect("10 tasks feasible");
        assert!(
            low.placement.get(StorageSpace::LpMram) > high.placement.get(StorageSpace::LpMram),
            "low {} vs high {}",
            low.placement,
            high.placement
        );
        let sram = |p: &Placement| p.get(StorageSpace::HpSram) + p.get(StorageSpace::LpSram);
        assert!(sram(&high.placement) > sram(&low.placement));
    }

    #[test]
    fn single_cluster_architectures_optimize() {
        for arch in [Architecture::Baseline, Architecture::Hybrid] {
            let cost = CostModel::new(
                arch.spec(),
                WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
                CostParams::default(),
            )
            .unwrap();
            let opt = PlacementOptimizer::new(&cost, OptimizerConfig::default());
            let r = opt
                .optimize(cost.peak_task_time().mul_f64(2.0))
                .expect("feasible");
            assert!(cost.is_valid(&r.placement), "{arch}: {}", r.placement);
            assert_eq!(r.placement.cluster_total(ClusterClass::LowPower), 0);
        }
    }

    #[test]
    fn objective_includes_static_when_enabled() {
        let cost = effnet_cost();
        let with = PlacementOptimizer::new(&cost, OptimizerConfig::default());
        let without = PlacementOptimizer::new(
            &cost,
            OptimizerConfig {
                amortize_static: false,
                ..OptimizerConfig::default()
            },
        );
        let p = Placement::all_in(StorageSpace::LpMram, cost.k_groups());
        let t = SimDuration::from_ms(100);
        assert!(with.objective(&p, t) > without.objective(&p, t));
        assert_eq!(without.objective(&p, t), cost.dynamic_energy_per_task(&p));
    }
}
