//! The analytical cost model: per-group time and energy for each
//! storage space, under a given architecture and workload.
//!
//! This is the quantitative backbone of the reproduction. For a weight
//! group stored in space *i* the model provides:
//!
//! * `t_i` — cluster time to execute one task's MACs over that group
//!   (weight read + activation read + PE, divided by the cluster's
//!   module-level parallelism) — the knapsack *weight* of §III-A,
//! * `e_i` — dynamic energy of the same work — the knapsack *value*,
//! * leakage powers for weights at rest, activation buffers and PEs.
//!
//! Modelling choices (see DESIGN.md §4): the LOAD→EXECUTE sequence per
//! operand gives HP:LP per-op times whose ratio reproduces the paper's
//! 16:9 peak split; `time_scale` calibrates absolute wall time to the
//! paper's FPGA measurements (EfficientNet-B0 peak ≈ 31.06 ms).

use crate::arch::ArchSpec;
use crate::space::{Placement, StorageSpace};
use hhpim_mem::{pe_for, tech_for, ClusterClass, Energy, MemKind, Power};
use hhpim_nn::ModelSpec;
use hhpim_sim::SimDuration;

/// Tunable parameters of the cost model (calibration knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Weights per placement group (the optimizer's unit, limiting DP
    /// resolution as §III-B prescribes).
    pub group_size: usize,
    /// SRAM bytes per module reserved for activations/IO (not available
    /// for weight placement; powered only while computing).
    pub act_reserve_per_module: usize,
    /// Whether each MAC also reads its activation from cluster SRAM.
    pub include_input_reads: bool,
    /// Wall-time calibration factor mapping ns-scale model time to the
    /// paper's measured FPGA-era inference times.
    pub time_scale: f64,
    /// Maximum inferences per time slice (paper: 10).
    pub max_tasks_per_slice: u32,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            group_size: 512,
            act_reserve_per_module: 16 * 1024,
            include_input_reads: true,
            time_scale: 9.14,
            max_tasks_per_slice: 10,
        }
    }
}

/// Workload characteristics the cost model consumes (derived from
/// Table IV's [`ModelSpec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Total weight footprint in bytes (INT8: #params).
    pub weight_bytes: usize,
    /// PIM MACs per inference task.
    pub pim_macs: u64,
}

impl WorkloadProfile {
    /// Builds the profile from a published model spec.
    pub fn from_spec(spec: &ModelSpec) -> Self {
        WorkloadProfile {
            weight_bytes: spec.weight_bytes(),
            pim_macs: spec.pim_macs(),
        }
    }

    /// MACs per weight per task.
    pub fn reuse(&self) -> f64 {
        self.pim_macs as f64 / self.weight_bytes as f64
    }
}

/// Errors from cost-model construction and placement validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CostModelError {
    /// The weights do not fit the architecture's weight-capable memory.
    InsufficientCapacity {
        /// Bytes needed.
        needed: usize,
        /// Bytes available for weights.
        available: usize,
    },
    /// Group size of zero.
    ZeroGroupSize,
    /// A caller-supplied placement violates the architecture's
    /// capacities or does not place all weight groups.
    InvalidPlacement {
        /// The offending placement.
        placement: crate::space::Placement,
    },
    /// A [`CostParams`] or [`crate::OptimizerConfig`] field is outside
    /// its domain.
    InvalidParameter {
        /// The offending field.
        field: &'static str,
        /// The domain the field must lie in.
        requirement: &'static str,
    },
    /// The slice length `1.08 × max_tasks_per_slice × peak task time`
    /// (the peak scales with `time_scale`) would not fit in a
    /// [`SimDuration`]; lower either parameter.
    SliceOverflow,
}

impl core::fmt::Display for CostModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CostModelError::InsufficientCapacity { needed, available } => {
                write!(
                    f,
                    "weights need {needed} B but only {available} B are placeable"
                )
            }
            CostModelError::ZeroGroupSize => write!(f, "group size must be non-zero"),
            CostModelError::InvalidPlacement { placement } => {
                write!(f, "placement {placement} is invalid for this architecture")
            }
            CostModelError::InvalidParameter { field, requirement } => {
                write!(f, "`{field}` must be {requirement}")
            }
            CostModelError::SliceOverflow => write!(
                f,
                "a slice of `max_tasks_per_slice` peak-load tasks at this `time_scale` \
                 would outlast `SimDuration::MAX`"
            ),
        }
    }
}

impl std::error::Error for CostModelError {}

/// The rejection of an out-of-domain `time_scale`.
const TIME_SCALE_DOMAIN: CostModelError = CostModelError::InvalidParameter {
    field: "time_scale",
    requirement: "positive, normal, and small enough that one task of the \
                  slowest placement lasts at most `SimDuration::MAX`",
};

/// The resolved cost model (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    arch: ArchSpec,
    params: CostParams,
    profile: WorkloadProfile,
    k_groups: usize,
    time_per_group: [SimDuration; 4],
    energy_per_group: [Energy; 4],
    static_power_per_group: [Power; 4],
    cap_groups: [usize; 4],
}

impl CostModel {
    /// Builds the cost model for `arch` running `profile`.
    ///
    /// # Errors
    ///
    /// Fails if the weights cannot fit in the architecture's placeable
    /// memory, the group size or `max_tasks_per_slice` is zero,
    /// `time_scale` is not a positive normal float or is so large that
    /// one task of the slowest placement (every group in one space)
    /// would last longer than [`SimDuration::MAX`], or
    /// `act_reserve_per_module` times a cluster's module count
    /// overflows `usize`.
    pub fn new(
        arch: ArchSpec,
        profile: WorkloadProfile,
        params: CostParams,
    ) -> Result<Self, CostModelError> {
        if params.group_size == 0 {
            return Err(CostModelError::ZeroGroupSize);
        }
        if !(params.time_scale.is_normal() && params.time_scale > 0.0) {
            return Err(TIME_SCALE_DOMAIN);
        }
        if params.max_tasks_per_slice == 0 {
            return Err(CostModelError::InvalidParameter {
                field: "max_tasks_per_slice",
                requirement: "at least 1",
            });
        }
        let k_groups = profile.weight_bytes.div_ceil(params.group_size);
        let reuse = profile.reuse();

        let mut time_per_group = [SimDuration::ZERO; 4];
        let mut energy_per_group = [Energy::ZERO; 4];
        let mut static_power_per_group = [Power::ZERO; 4];
        let mut cap_groups = [0usize; 4];
        let mut placeable_bytes = 0usize;

        for space in StorageSpace::ALL {
            let idx = space.index();
            let cluster = space.cluster();
            let modules = arch.modules_in(cluster);
            let cap_bytes = arch.capacity_bytes(space);
            if modules == 0 || cap_bytes == 0 {
                continue;
            }
            let reserve = if space.kind() == MemKind::Sram {
                params.act_reserve_per_module.checked_mul(modules).ok_or(
                    CostModelError::InvalidParameter {
                        field: "act_reserve_per_module",
                        requirement: "at most `usize::MAX` divided by a cluster's module count",
                    },
                )?
            } else {
                0
            };
            let placeable = cap_bytes.saturating_sub(reserve);
            cap_groups[idx] = placeable / params.group_size;
            placeable_bytes += placeable;

            let mem = tech_for(cluster, space.kind());
            let sram = tech_for(cluster, MemKind::Sram);
            let pe = pe_for(cluster);

            // Per MAC: weight read + (optional) activation read + PE.
            let mut op_ns = mem.timing.read.as_ns_f64() + pe.mac_latency.as_ns_f64();
            let mut op_pj = mem.read_energy().as_pj() + pe.mac_energy().as_pj();
            if params.include_input_reads {
                op_ns += sram.timing.read.as_ns_f64();
                op_pj += sram.read_energy().as_pj();
            }
            let macs_per_group_task = reuse * params.group_size as f64;
            let ns = macs_per_group_task * op_ns / modules as f64 * params.time_scale;
            // Check before `from_ns_f64`, which panics on an infinite
            // product and saturates a huge one, then check the largest
            // product `cluster_time` forms: every group in this space.
            if !(0.0..u64::MAX as f64).contains(&(ns * 1e3)) {
                return Err(TIME_SCALE_DOMAIN);
            }
            time_per_group[idx] = SimDuration::from_ns_f64(ns);
            time_per_group[idx]
                .checked_mul(k_groups as u64)
                .ok_or(TIME_SCALE_DOMAIN)?;
            // Dynamic energy scales with time_scale too: the calibrated
            // (FPGA-era) access occupies `time_scale×` the ASIC latency
            // at the same dynamic power, keeping the dynamic-vs-static
            // balance invariant under calibration.
            energy_per_group[idx] =
                Energy::from_pj(macs_per_group_task * op_pj * params.time_scale);
            // Marginal leakage per group for the optimizer: weights
            // stripe across all module banks of the space (powering all
            // of them), so the linear surrogate amortizes the full
            // striped-bank leakage over the K groups. Exact bank-granular
            // accounting happens in the runtime.
            let bank_bytes = match space.kind() {
                MemKind::Mram => arch.mram_per_module,
                MemKind::Sram => arch.sram_per_module,
            };
            static_power_per_group[idx] =
                mem.static_power_for(bank_bytes * modules) * (1.0 / k_groups.max(1) as f64);
        }

        if k_groups * params.group_size > placeable_bytes {
            return Err(CostModelError::InsufficientCapacity {
                needed: k_groups * params.group_size,
                available: placeable_bytes,
            });
        }
        Ok(CostModel {
            arch,
            params,
            profile,
            k_groups,
            time_per_group,
            energy_per_group,
            static_power_per_group,
            cap_groups,
        })
    }

    /// The architecture this model describes.
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// Calibration parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The workload profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of weight groups to place (the paper's `K`).
    pub fn k_groups(&self) -> usize {
        self.k_groups
    }

    /// Per-task processing time of one group in `space`
    /// (the knapsack weight `t_i`).
    pub fn time_per_group(&self, space: StorageSpace) -> SimDuration {
        self.time_per_group[space.index()]
    }

    /// Per-task dynamic energy of one group in `space`
    /// (the knapsack value `e_i`).
    pub fn energy_per_group(&self, space: StorageSpace) -> Energy {
        self.energy_per_group[space.index()]
    }

    /// Marginal leakage power of one resident group in `space`: the
    /// space's full striped-bank leakage amortized over the K groups
    /// (the optimizer's linear surrogate for bank-granular gating).
    pub fn static_power_per_group(&self, space: StorageSpace) -> Power {
        self.static_power_per_group[space.index()]
    }

    /// Capacity of `space` in groups (0 when absent in this design).
    pub fn capacity_groups(&self, space: StorageSpace) -> usize {
        self.cap_groups[space.index()]
    }

    /// Per-task compute time of `cluster` under `placement` (spaces in a
    /// cluster serialize; clusters run in parallel).
    pub fn cluster_time(&self, placement: &Placement, cluster: ClusterClass) -> SimDuration {
        StorageSpace::of_cluster(cluster)
            .iter()
            .map(|&s| self.time_per_group(s) * placement.get(s) as u64)
            .sum()
    }

    /// Per-task latency of `placement`: the slower of the two clusters.
    pub fn task_time(&self, placement: &Placement) -> SimDuration {
        ClusterClass::ALL
            .iter()
            .map(|&c| self.cluster_time(placement, c))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Per-task dynamic energy of `placement`.
    pub fn dynamic_energy_per_task(&self, placement: &Placement) -> Energy {
        placement
            .iter()
            .map(|(s, n)| self.energy_per_group(s) * n as u64)
            .sum()
    }

    /// Number of whole module banks of `space` that must stay powered to
    /// retain `placement`'s weights. Weights in a space are *striped*
    /// across the cluster's modules (each module's PE computes over its
    /// own partition — that is where the cluster's parallelism comes
    /// from), so `g` groups power `min(g, modules)` whole banks.
    pub fn powered_banks(&self, placement: &Placement, space: StorageSpace) -> usize {
        let groups = placement.get(space);
        groups.min(self.arch.modules_in(space.cluster()))
    }

    /// Leakage power of the weights at rest under `placement`:
    /// bank-granular — every powered bank leaks its full capacity
    /// (including its activation region for SRAM banks).
    pub fn weight_static_power(&self, placement: &Placement, space: StorageSpace) -> Power {
        let banks = self.powered_banks(placement, space);
        let bank_bytes = match space.kind() {
            MemKind::Mram => self.arch.mram_per_module,
            MemKind::Sram => self.arch.sram_per_module,
        };
        tech_for(space.cluster(), space.kind()).static_power_for(banks * bank_bytes)
    }

    /// Leakage power of one module's activation/IO SRAM region.
    pub fn act_buffer_static_power_per_module(&self, cluster: ClusterClass) -> Power {
        if self.arch.modules_in(cluster) == 0 || self.arch.sram_per_module == 0 {
            return Power::ZERO;
        }
        tech_for(cluster, MemKind::Sram).static_power_for(self.params.act_reserve_per_module)
    }

    /// Leakage power of `cluster`'s PEs.
    pub fn pe_static_power(&self, cluster: ClusterClass) -> Power {
        pe_for(cluster).static_power * self.arch.modules_in(cluster) as f64
    }

    /// Full-capacity leakage of `space` (for the never-gating Baseline).
    pub fn full_static_power(&self, space: StorageSpace) -> Power {
        tech_for(space.cluster(), space.kind()).static_power_for(self.arch.capacity_bytes(space))
    }

    /// Whether `placement` respects per-space capacities and places
    /// exactly all `k_groups`.
    pub fn is_valid(&self, placement: &Placement) -> bool {
        placement.total() == self.k_groups
            && StorageSpace::ALL
                .iter()
                .all(|&s| placement.get(s) <= self.capacity_groups(s))
    }

    /// The fastest valid placement: each cluster uses its fastest
    /// available space, with the group split balancing cluster finish
    /// times (spilling into the second space on capacity overflow).
    pub fn fastest_placement(&self) -> Placement {
        // Fastest space per cluster (the one with the smaller t_i).
        let fastest = |cluster: ClusterClass| -> Option<(StorageSpace, StorageSpace)> {
            let [m, s] = StorageSpace::of_cluster(cluster);
            let mut spaces: Vec<StorageSpace> = [m, s]
                .into_iter()
                .filter(|&sp| self.capacity_groups(sp) > 0)
                .collect();
            spaces.sort_by_key(|&sp| self.time_per_group(sp));
            match spaces.len() {
                0 => None,
                1 => Some((spaces[0], spaces[0])),
                _ => Some((spaces[0], spaces[1])),
            }
        };
        let hp = fastest(ClusterClass::HighPerformance);
        let lp = fastest(ClusterClass::LowPower);
        let k = self.k_groups;
        let mut placement = Placement::empty();
        match (hp, lp) {
            (Some((hp1, hp2)), Some((lp1, lp2))) => {
                // Balance finish times: k_hp / k_lp = (1/t_hp) / (1/t_lp).
                let t_hp = self.time_per_group(hp1).as_ns_f64().max(1e-9);
                let t_lp = self.time_per_group(lp1).as_ns_f64().max(1e-9);
                let k_hp = ((k as f64) * (1.0 / t_hp) / (1.0 / t_hp + 1.0 / t_lp)).round() as usize;
                let k_hp = k_hp.min(k);
                self.fill_cluster(&mut placement, hp1, hp2, k_hp);
                self.fill_cluster(&mut placement, lp1, lp2, k - k_hp);
            }
            (Some((p1, p2)), None) | (None, Some((p1, p2))) => {
                self.fill_cluster(&mut placement, p1, p2, k);
            }
            (None, None) => {}
        }
        placement
    }

    fn fill_cluster(
        &self,
        placement: &mut Placement,
        first: StorageSpace,
        second: StorageSpace,
        k: usize,
    ) {
        let in_first = k.min(self.capacity_groups(first));
        placement.set(first, placement.get(first) + in_first);
        let spill = k - in_first;
        if spill > 0 {
            placement.set(second, placement.get(second) + spill);
        }
    }

    /// Task latency of the fastest placement (the green-dot peak of
    /// Fig. 6 for HH-PIM).
    pub fn peak_task_time(&self) -> SimDuration {
        self.task_time(&self.fastest_placement())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use hhpim_nn::TinyMlModel;

    fn hh_model() -> CostModel {
        CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::EfficientNetB0.spec()),
            CostParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn group_counts() {
        let m = hh_model();
        assert_eq!(m.k_groups(), 95_000usize.div_ceil(512));
        // HH-PIM: 4 modules × (64-16) kB SRAM per cluster.
        assert_eq!(m.capacity_groups(StorageSpace::HpSram), 4 * 48 * 1024 / 512);
        assert_eq!(m.capacity_groups(StorageSpace::HpMram), 4 * 64 * 1024 / 512);
    }

    #[test]
    fn per_op_times_follow_table_iii() {
        let m = hh_model();
        // SRAM spaces are faster than MRAM spaces within a cluster.
        assert!(m.time_per_group(StorageSpace::HpSram) < m.time_per_group(StorageSpace::HpMram));
        assert!(m.time_per_group(StorageSpace::LpSram) < m.time_per_group(StorageSpace::LpMram));
        // HP spaces beat their LP counterparts.
        assert!(m.time_per_group(StorageSpace::HpSram) < m.time_per_group(StorageSpace::LpSram));
        // The HP:LP SRAM per-op ratio is ≈ 16:9 (the paper's peak split).
        let ratio = m.time_per_group(StorageSpace::LpSram).as_ns_f64()
            / m.time_per_group(StorageSpace::HpSram).as_ns_f64();
        assert!((ratio - 16.0 / 9.0).abs() < 0.08, "ratio {ratio}");
    }

    #[test]
    fn dynamic_energy_ordering() {
        let m = hh_model();
        // LP accesses are cheaper than HP accesses for the same kind.
        assert!(
            m.energy_per_group(StorageSpace::LpSram) < m.energy_per_group(StorageSpace::HpSram)
        );
        assert!(
            m.energy_per_group(StorageSpace::LpMram) < m.energy_per_group(StorageSpace::HpMram)
        );
        // Static: MRAM is far cheaper at rest.
        assert!(
            m.static_power_per_group(StorageSpace::LpMram).as_mw()
                < m.static_power_per_group(StorageSpace::LpSram).as_mw()
        );
    }

    #[test]
    fn fastest_placement_matches_paper_16_9_split() {
        let m = hh_model();
        let p = m.fastest_placement();
        assert!(m.is_valid(&p));
        // All weights in SRAM, split ≈ 16:9 between HP and LP.
        assert_eq!(p.get(StorageSpace::HpMram), 0);
        assert_eq!(p.get(StorageSpace::LpMram), 0);
        let hp = p.get(StorageSpace::HpSram) as f64;
        let lp = p.get(StorageSpace::LpSram) as f64;
        let ratio = hp / lp;
        assert!(
            (ratio - 16.0 / 9.0).abs() < 0.15,
            "split {hp}:{lp} ratio {ratio}"
        );
    }

    #[test]
    fn peak_time_calibrated_to_paper() {
        // With the default time_scale the EfficientNet-B0 peak inference
        // time should land near the paper's 31.06 ms.
        let m = hh_model();
        let t = m.peak_task_time().as_ms_f64();
        assert!((t - 31.06).abs() / 31.06 < 0.05, "peak {t} ms");
    }

    #[test]
    fn cluster_times_serialize_within_parallel_across() {
        let m = hh_model();
        let mut p = Placement::empty();
        p.set(StorageSpace::HpMram, 10);
        p.set(StorageSpace::HpSram, 10);
        p.set(StorageSpace::LpSram, 5);
        let hp = m.cluster_time(&p, ClusterClass::HighPerformance);
        let expect = m.time_per_group(StorageSpace::HpMram) * 10
            + m.time_per_group(StorageSpace::HpSram) * 10;
        assert_eq!(hp, expect);
        assert_eq!(
            m.task_time(&p),
            hp.max(m.cluster_time(&p, ClusterClass::LowPower))
        );
    }

    #[test]
    fn baseline_has_only_hp_sram() {
        let m = CostModel::new(
            Architecture::Baseline.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
            CostParams::default(),
        )
        .unwrap();
        assert_eq!(m.capacity_groups(StorageSpace::HpMram), 0);
        assert_eq!(m.capacity_groups(StorageSpace::LpSram), 0);
        let p = m.fastest_placement();
        assert_eq!(p.get(StorageSpace::HpSram), m.k_groups());
        assert!(m.is_valid(&p));
    }

    #[test]
    fn resnet_fits_all_architectures() {
        for arch in Architecture::ALL {
            let m = CostModel::new(
                arch.spec(),
                WorkloadProfile::from_spec(&TinyMlModel::ResNet18.spec()),
                CostParams::default(),
            );
            assert!(m.is_ok(), "{arch}: {:?}", m.err());
        }
    }

    #[test]
    fn capacity_error_when_weights_too_large() {
        let err = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile {
                weight_bytes: 2 * 1024 * 1024,
                pim_macs: 1_000_000,
            },
            CostParams::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CostModelError::InsufficientCapacity { .. }));
        assert!(err.to_string().contains("placeable"));
    }

    #[test]
    fn validity_checks() {
        let m = hh_model();
        let mut p = Placement::all_in(StorageSpace::LpMram, m.k_groups());
        assert!(m.is_valid(&p));
        p.set(StorageSpace::HpSram, 1); // now one group too many
        assert!(!m.is_valid(&p));
        let short = Placement::all_in(StorageSpace::LpMram, 1);
        assert!(!m.is_valid(&short));
    }

    #[test]
    fn activation_reserve_past_usize_is_a_typed_error() {
        let params = CostParams {
            act_reserve_per_module: usize::MAX,
            ..CostParams::default()
        };
        let err = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::EfficientNetB0.spec()),
            params,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CostModelError::InvalidParameter {
                field: "act_reserve_per_module",
                ..
            }
        ));
        // The largest reserve a 4-module cluster can hold still builds:
        // it reserves every SRAM byte and leaves the weights to MRAM.
        let params = CostParams {
            act_reserve_per_module: usize::MAX / 4,
            ..CostParams::default()
        };
        let m = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::EfficientNetB0.spec()),
            params,
        )
        .unwrap();
        assert_eq!(m.capacity_groups(StorageSpace::HpSram), 0);
        assert_eq!(m.capacity_groups(StorageSpace::LpSram), 0);
    }

    #[test]
    fn time_scale_past_simtime_is_a_typed_error() {
        let build = |time_scale| {
            let params = CostParams {
                time_scale,
                ..CostParams::default()
            };
            let profile = WorkloadProfile::from_spec(&TinyMlModel::ResNet18.spec());
            CostModel::new(Architecture::HhPim.spec(), profile, params)
        };
        // 1e300 would overflow `cluster_time`, f64::MAX would panic in
        // `from_ns_f64`, a subnormal scale has no finite reciprocal, and
        // at 2.5e8 one task with every group in LP-MRAM outlasts
        // `SimDuration::MAX` (at 2e8 it does not).
        for time_scale in [1e300, f64::MAX, 5e-324, 2.5e8] {
            let field = match build(time_scale) {
                Err(CostModelError::InvalidParameter { field, .. }) => field,
                other => panic!("{time_scale:e}: {other:?}"),
            };
            assert_eq!(field, "time_scale");
        }
        assert!(build(2e8).is_ok());
    }

    /// The slice bound is on `T = 1.08 × max_tasks_per_slice × peak`:
    /// 1,000-task slices build at the default scale, ten tasks at 2e8
    /// or 2^32 − 1 at the default scale do not.
    #[test]
    fn slice_past_simduration_is_a_typed_error() {
        let reference = |time_scale, max_tasks_per_slice| {
            let params = CostParams {
                time_scale,
                max_tasks_per_slice,
                ..CostParams::default()
            };
            crate::RuntimeConfig::reference(TinyMlModel::ResNet18, params)
        };
        assert!(reference(9.14, 1_000).is_ok());
        for (time_scale, max_tasks) in [(2e8, 10), (9.14, u32::MAX)] {
            let err = reference(time_scale, max_tasks).unwrap_err();
            assert_eq!(err, CostModelError::SliceOverflow, "{time_scale:e}");
        }
    }
}
