//! Multi-tenant serving on one HH-PIM machine: `hhpim::server` in
//! action.
//!
//! Three edge workloads share one machine's PIM clusters and one
//! placement store:
//!
//! * `camera`   — MobileNetV2 on a spiky feed, priority 3, a strict
//!   latency SLO and a short queue (interactive traffic),
//! * `keyword`  — EfficientNet-B0 on a steady low trickle, priority 1
//!   (ambient always-on sensing),
//! * `batch`    — ResNet18 on a bursty backlog, priority 1 and a
//!   best-effort QoS class (offline re-scoring).
//!
//! A `ShedOnPressure` admission controller guards the SLOs, a
//! deficit-round-robin scheduler shares the machine by priority, and a
//! `Observer` closure narrates the admission decisions as they happen.
//! Compare `host_driver` (one stream, no scheduling) and `quickstart`
//! (the batch facade).
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use hhpim::server::{QosClass, ServerBuilder, ServerEvent, ShedOnPressure, TenantSpec};
use hhpim::session::ScenarioSource;
use hhpim::Architecture;
use hhpim_nn::TinyMlModel;
use hhpim_sim::SimDuration;
use hhpim_workload::{Scenario, ScenarioParams};

fn params(slices: usize, seed: u64) -> ScenarioParams {
    ScenarioParams {
        slices,
        seed,
        ..ScenarioParams::default()
    }
}

fn main() {
    // The camera tenant's SLO: generous enough to be met at low load,
    // tight enough that saturated slices (per-task latency rises with
    // queue depth) violate it — which is what lets the admission
    // controller earn its keep.
    let camera_slo = SimDuration::from_ms(40);

    let mut server = ServerBuilder::new()
        .architecture(Architecture::HhPim)
        .admission(ShedOnPressure::new())
        .miss_window(8)
        .tenant(
            TenantSpec::new(
                "camera",
                TinyMlModel::MobileNetV2,
                ScenarioSource::new(Scenario::PeriodicSpike, params(18, 7)),
            )
            .qos(
                QosClass::default()
                    .with_priority(3)
                    .with_queue_cap(2)
                    .with_deadline(camera_slo)
                    .with_max_miss_rate(0.25),
            ),
        )
        .tenant(
            TenantSpec::new(
                "keyword",
                TinyMlModel::EfficientNetB0,
                ScenarioSource::new(Scenario::LowConstant, params(18, 1)),
            )
            .qos(QosClass::default().with_priority(1).with_queue_cap(4)),
        )
        .tenant(
            TenantSpec::new(
                "batch",
                TinyMlModel::ResNet18,
                ScenarioSource::new(Scenario::PeriodicSpikeFrequent, params(18, 3)),
            )
            .qos(QosClass::best_effort()),
        )
        .build()
        .expect("three tenants fit HH-PIM");

    // Narrate the admission control decisions as they happen.
    server.observe(|event: &ServerEvent| match event {
        ServerEvent::Shed { tenant, load } => {
            println!("  {tenant}: SHED load {load:.2} (SLO under pressure)")
        }
        ServerEvent::Deferred { tenant, load } => {
            println!("  {tenant}: deferred load {load:.2} (queue full)")
        }
        ServerEvent::QosMiss {
            tenant, task_time, ..
        } => println!("  {tenant}: SLO miss ({task_time} per task)"),
        _ => {}
    });

    println!(
        "serving {:?} under {} admission:",
        server.tenant_names(),
        server.admission_name()
    );
    let report = server.run().expect("all tenants drain");

    println!(
        "\nserved in {} DRR rounds, {} slices total:",
        report.rounds,
        report.total_executed()
    );
    println!(
        "  {:<8} {:>4} {:>5} {:>5} {:>6} {:>6} {:>6} {:>7}",
        "tenant", "prio", "exec", "shed", "miss%", "share", "starve", "energy"
    );
    for tenant in &report.tenants {
        let s = tenant.stats;
        println!(
            "  {:<8} {:>4} {:>5} {:>5} {:>5.1}% {:>5.1}% {:>6} {:>7}",
            tenant.name,
            tenant.qos.priority,
            s.executed,
            s.shed,
            100.0 * s.miss_rate(),
            100.0 * s.service_share,
            s.max_starvation,
            tenant.primary().total_energy(),
        );
    }

    // One DP per (model, architecture): three tenants, one shared
    // placement store, zero redundant LUT builds.
    let stats = server.store().stats();
    println!(
        "\nplacement store: {} LUTs built, {} cache hits across tenants",
        stats.misses, stats.hits
    );

    let camera = report.tenant("camera").expect("registered").stats;
    assert!(
        camera.executed + camera.shed + camera.coalesced == 18,
        "every camera slice is accounted for"
    );
}
