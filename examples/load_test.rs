//! Load-testing a two-tenant server with synthetic traffic:
//! `hhpim::traffic` in action.
//!
//! A Poisson feed and a bursty MMPP-2 feed drive two tenants sharing
//! one HH-PIM machine. A wall-clock `Pacer` holds the scheduler to a
//! target round rate, and the resulting `LoadReport` shows what the
//! machine sustained: rounds/sec, offered vs. achieved load, and the
//! p50/p95/p99 latency tail. The load sequences are seeded and
//! deterministic — pacing times delivery, it never changes the work.
//!
//! Compare `multi_tenant` (canned scenarios, free-running) and
//! `host_driver` (one stream, no scheduling).
//!
//! ```sh
//! cargo run --release --example load_test
//! ```

use hhpim::server::{QosClass, ServerBuilder, TenantSpec};
use hhpim::{
    serve_paced, Architecture, LoadDistribution, Pacer, TrafficConfig, TrafficEngine, TrafficSource,
};
use hhpim_nn::TinyMlModel;

fn main() {
    const SLICES: usize = 40;

    // Tenant 1: memoryless Poisson arrivals, ~4 inferences per slice.
    let poisson = TrafficConfig::poisson(4.0)
        .with_load(LoadDistribution::Constant(0.1))
        .with_seed(7);
    // Tenant 2: two-state bursty traffic — 9 arrivals/slice in bursts
    // averaging 2 slices, then near-silence averaging 5 slices.
    let bursty = TrafficConfig::bursty(9.0, 0.3, 2.0, 5.0)
        .with_load(LoadDistribution::Uniform {
            low: 0.05,
            high: 0.2,
        })
        .with_seed(11);

    for (name, config) in [("poisson", &poisson), ("bursty", &bursty)] {
        let mut probe = TrafficEngine::new(config.clone());
        let mean = probe.take_trace(SLICES).expect("non-empty").mean_load();
        println!(
            "{name:<8} {:<28} mean offered load {mean:.3}",
            config.label()
        );
    }

    let mut server = ServerBuilder::new()
        .architecture(Architecture::HhPim)
        .tenant(
            TenantSpec::new(
                "poisson",
                TinyMlModel::MobileNetV2,
                TrafficSource::new(poisson, SLICES),
            )
            .qos(QosClass::default().with_priority(2)),
        )
        .tenant(
            TenantSpec::new(
                "bursty",
                TinyMlModel::EfficientNetB0,
                TrafficSource::new(bursty, SLICES),
            )
            .qos(QosClass::best_effort()),
        )
        .build()
        .expect("two tenants fit HH-PIM");

    // Pace scheduling rounds at 200/sec and measure what sticks.
    let mut pacer = Pacer::from_rate(200.0).expect("200 rounds/s is schedulable");
    println!(
        "\npacing {:?} at {:.0} rounds/sec...",
        server.tenant_names(),
        pacer.target_rate()
    );
    let (report, load) = serve_paced(&mut server, &mut pacer).expect("both tenants drain");

    println!("\n{}", load.table());
    println!(
        "{} DRR rounds, {} slices executed:",
        report.rounds,
        report.total_executed()
    );
    for tenant in &report.tenants {
        let s = tenant.stats;
        println!(
            "  {:<8} executed {:>3}  share {:>5.1}%  energy {}",
            tenant.name,
            s.executed,
            100.0 * s.service_share,
            tenant.primary().total_energy(),
        );
    }

    assert_eq!(
        report.total_executed(),
        2 * SLICES as u64,
        "every offered slice executes"
    );
    assert!(
        load.sustained_rate <= load.target_rate * 1.05,
        "pacer must not overshoot its target rate"
    );
}
