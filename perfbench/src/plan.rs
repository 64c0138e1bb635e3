//! The four workloads and the inputs each one generates from `--seed`.
//!
//! Simulated arrivals are open loop in *simulated* time: every tenant's
//! trace comes from a seeded arrival process whose rate does not depend
//! on service. The host driver is a closed loop with one caller that
//! calls `Server::round` back to back; nothing waits on the wall clock.

use hhpim::server::QosClass;
use hhpim::{BackendKind, LoadDistribution, TrafficConfig};
use hhpim_nn::TinyMlModel;
use hhpim_sim::SimDuration;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four tenants on the cycle backend.
    ServeCycle,
    /// Eight tenants on the analytic backend.
    ServeAnalytic,
    /// The Fig. 5 matrix from an empty store and an empty artifact dir.
    SweepCold,
    /// The Fig. 5 matrix from an empty store over a populated dir.
    SweepWarm,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeCycle,
        Workload::ServeAnalytic,
        Workload::SweepCold,
        Workload::SweepWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCycle => "serve_cycle",
            Workload::ServeAnalytic => "serve_analytic",
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The execution backend of a serve workload (`None` for sweeps).
    pub fn backend(self) -> Option<BackendKind> {
        match self {
            Workload::ServeCycle => Some(BackendKind::Cycle),
            Workload::ServeAnalytic => Some(BackendKind::Analytic),
            Workload::SweepCold | Workload::SweepWarm => None,
        }
    }
}

/// Every tenant's queue cap: small enough that admission defers.
pub const QUEUE_CAP: usize = 4;

/// The MobileNetV2 Poisson tenant's per-task SLO. HH-PIM stretches a
/// lightly loaded MobileNetV2 task to 62–70 ms to save energy, so this
/// SLO records QoS misses on low-load slices and none on busy ones.
pub const TIGHT_SLO: SimDuration = SimDuration::from_ms(60);

/// One tenant's registration, before it becomes a `TenantSpec`.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    pub name: String,
    pub model: TinyMlModel,
    pub traffic: TrafficConfig,
    pub slices: usize,
    pub qos: QosClass,
}

/// The tenants of a serve workload under `seed`. Each traffic family
/// draws its own seed from `seed`, so the server receives only the
/// generated traces.
pub fn tenants(workload: Workload, seed: u64) -> Vec<TenantPlan> {
    let (copies, slices) = match workload {
        Workload::ServeCycle => (1, 1_500),
        Workload::ServeAnalytic => (2, 3_000),
        Workload::SweepCold | Workload::SweepWarm => return Vec::new(),
    };
    let mut plans = Vec::new();
    for copy in 0..copies {
        for family in 0..4 {
            let suffix = if copies > 1 {
                format!("-{}", copy + 1)
            } else {
                String::new()
            };
            let index = (copy * 4 + family) as u64;
            plans.push(family_plan(
                family,
                &suffix,
                tenant_seed(seed, index),
                slices,
            ));
        }
    }
    plans
}

fn family_plan(family: usize, suffix: &str, seed: u64, slices: usize) -> TenantPlan {
    let base = QosClass::default()
        .with_queue_cap(QUEUE_CAP)
        .with_max_miss_rate(1.0);
    let (name, model, traffic, qos) = match family {
        0 => (
            "mbv2-poisson",
            TinyMlModel::MobileNetV2,
            TrafficConfig::poisson(3.0),
            base.with_priority(3).with_deadline(TIGHT_SLO),
        ),
        1 => (
            "effnet-mmpp",
            TinyMlModel::EfficientNetB0,
            TrafficConfig::bursty(8.0, 0.5, 4.0, 8.0),
            base.with_priority(2),
        ),
        2 => (
            "resnet-uniform",
            TinyMlModel::ResNet18,
            TrafficConfig::poisson(2.0).with_load(LoadDistribution::Uniform {
                low: 0.05,
                high: 0.3,
            }),
            base.with_priority(1),
        ),
        _ => (
            "mbv2-diurnal",
            TinyMlModel::MobileNetV2,
            TrafficConfig::diurnal(4.0, 200.0, vec![0.2, 0.5, 1.0, 1.5, 1.0, 0.5]),
            base.with_priority(2),
        ),
    };
    TenantPlan {
        name: format!("{name}{suffix}"),
        model,
        traffic: traffic.with_seed(seed),
        slices,
        qos,
    }
}

/// Mixes the command-line seed with a tenant index (the SplitMix64
/// finalizer), so every tenant draws a distinct traffic seed.
fn tenant_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
