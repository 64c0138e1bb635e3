//! CI bench gate: measures a fixed set of performance and energy
//! numbers into a machine-readable JSON file and compares two such
//! files, failing (exit code 1) on regression.
//!
//! ```text
//! bench_gate measure --out BENCH_ci.json [--samples N]
//! bench_gate compare BENCH_baseline.json BENCH_ci.json [--threshold 0.20]
//! bench_gate inject --input BENCH_ci.json --out BENCH_bad.json --scale 1.5
//! ```
//!
//! The file has three sections:
//!
//! * `calibration_ns` — wall time of a fixed integer busy-loop. Timing
//!   comparisons are normalized by the calibration ratio, so a
//!   baseline recorded on one machine remains meaningful on another.
//! * `benches` — mean wall time (ns) of each gate benchmark. A bench
//!   regresses when it exceeds `baseline × (1 + threshold) ×
//!   calibration_ratio`.
//! * `energies` — total modelled energy (pJ) per scenario. These are
//!   deterministic model outputs built from `+ − × ÷` alone (no
//!   `ln`/`exp` reaches them), so they must equal the baseline bit for
//!   bit: a change of one ULP in either direction fails (an
//!   unexplained energy change is a model regression even when it
//!   "improves").
//!
//! `inject` exists so CI can prove the gate trips: it scales every
//! bench entry and moves every energy entry up one ULP, and the
//! workflow asserts `compare` fails against the doctored file. To
//! refresh the checked-in baseline after an intentional change, run
//! `measure` on the reference machine and commit the output (see
//! `docs/ci.md`).

use hhpim::engine::Engine;
use hhpim::server::{QosClass, Server, ShedOnPressure, TenantSpec};
use hhpim::session::{ScenarioSource, SessionBuilder};
use hhpim::{
    run_paced, AllocationLut, Architecture, ArtifactStore, BackendKind, CycleBackend, ExecMode,
    ExecutionBackend, OptimizerConfig, Pacer, PlacementKey, PlacementOptimizer, PlacementStore,
    Processor, TrafficConfig, TrafficEngine,
};
use hhpim_isa::{MemSelect, ModuleMask, PimInstruction};
use hhpim_nn::TinyMlModel;
use hhpim_pim::{MachineConfig, PimMachine};
use hhpim_sim::SimDuration;
use hhpim_workload::json::{quote, ParseError, Reader};
use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Version of the gate-file layout, written as its `schema` field.
const GATE_SCHEMA: u32 = 1;
/// Default timing regression threshold (the CI contract: >20 % fails).
const DEFAULT_THRESHOLD: f64 = 0.20;
/// Calibration ratios are clamped to this band: a slower machine
/// widens the gate proportionally (up to 4×), but a faster machine
/// never tightens it below the recorded baseline — tightening turns
/// ordinary scheduler noise into spurious failures.
const CALIBRATION_CLAMP: (f64, f64) = (1.0, 4.0);
/// Absolute slack added to every timing limit: scheduler blips cost a
/// fixed amount of wall time regardless of how short the bench is, so
/// sub-millisecond benches get this on top of the relative threshold.
/// Negligible against the millisecond-scale gate benches.
const JITTER_ALLOWANCE_NS: f64 = 100_000.0;

#[derive(Debug, Clone, PartialEq, Default)]
struct GateFile {
    calibration_ns: f64,
    benches: BTreeMap<String, f64>,
    energies: BTreeMap<String, f64>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("measure") => cmd_measure(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("inject") => cmd_inject(&args[1..]),
        _ => {
            eprintln!(
                "usage: bench_gate measure --out FILE [--samples N]\n       \
                 bench_gate compare BASELINE CURRENT [--threshold F]\n       \
                 bench_gate inject --input FILE --out FILE --scale F"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

// ---------------------------------------------------------------- measure

fn cmd_measure(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("measure requires --out FILE")?;
    let samples: usize = flag(args, "--samples")
        .map(|s| s.parse().map_err(|_| "--samples must be an integer"))
        .transpose()?
        .unwrap_or(7);
    let file = measure(samples)?;
    std::fs::write(&out, format_json(&file)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out} ({} benches, {} energies)",
        file.benches.len(),
        file.energies.len()
    );
    Ok(())
}

/// Measures every gate entry.
///
/// # Errors
///
/// Fails when a disk-warm sweep built a LUT instead of loading it. Its
/// timing is a weak witness for that: the three DP builds a lost disk
/// tier costs add only about 2 ms in release.
fn measure(samples: usize) -> Result<GateFile, String> {
    let mut file = GateFile {
        calibration_ns: calibrate(),
        ..GateFile::default()
    };

    // dp_optimize: one Algorithm 1+2 solve at CI-friendly resolution.
    let dp_processor = Processor::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
    let opt_config = OptimizerConfig {
        time_buckets: 500,
        ..OptimizerConfig::default()
    };
    // Just above the peak: tight enough that the relaxed-optimum
    // shortcut cannot answer, so the full Algorithm 1+2 DP runs.
    let t_mid = dp_processor.cost().peak_task_time().mul_f64(1.05);
    file.benches.insert(
        "dp_optimize_mobilenet".into(),
        bench(samples, || {
            let opt = PlacementOptimizer::new(dp_processor.cost(), opt_config);
            opt.optimize(t_mid)
        }),
    );

    // analytic_trace: the closed-form runtime over the paper's
    // 50-slice trace, ×10 per iteration so one measurement is hundreds
    // of microseconds of work (scheduler jitter amortizes away).
    let trace50 = LoadTrace::generate(Scenario::PeriodicSpike, ScenarioParams::default());
    let mut analytic = SessionBuilder::new()
        .architecture(Architecture::HhPim)
        .model(TinyMlModel::MobileNetV2)
        .build_analytic()
        .unwrap();
    file.benches.insert(
        "analytic_trace_50_slices_x10".into(),
        bench(samples, || {
            for _ in 0..10 {
                std::hint::black_box(analytic.execute(&trace50).unwrap());
            }
        }),
    );

    // cycle_trace: the structural machine over a 6-slice trace with a
    // LUT-triggered re-placement (construction excluded).
    let trace6 = cycle_trace();
    let mut cycle = SessionBuilder::new()
        .architecture(Architecture::HhPim)
        .model(TinyMlModel::MobileNetV2)
        .build_cycle()
        .unwrap();
    file.benches.insert(
        "cycle_trace_6_slices".into(),
        bench(samples, || cycle.execute(&trace6).unwrap()),
    );

    // cycle_trace_6_slices_object: the same 6-slice trace on the
    // interpretive object-hierarchy walk (`ExecMode::ObjectWalk`) —
    // the legacy path the timing graph replaced, kept measurable so
    // the gate self-test can assert the graph's speedup and a future
    // change can't silently swap the default back.
    let mut object_cycle =
        CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
    object_cycle.set_exec_mode(ExecMode::ObjectWalk);
    file.benches.insert(
        "cycle_trace_6_slices_object".into(),
        bench(samples, || object_cycle.execute(&trace6).unwrap()),
    );

    // timegraph_build: lowering the compiled MobileNetV2 program +
    // boot placement into the flat node arena, from scratch every
    // iteration (×10; `clear_graph` drops the cached programs so
    // `prepare_graph` pays the full lowering). This is the one-time
    // cost the replay path amortizes across every task and slice.
    let mut build_cycle = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
    file.benches.insert(
        "timegraph_build".into(),
        bench(samples, || {
            for _ in 0..10 {
                build_cycle.clear_graph();
                std::hint::black_box(build_cycle.prepare_graph());
            }
        }),
    );

    // session_build_and_run: the facade's hot path — builder →
    // prepared policy (a LUT hit on one store shared by every
    // iteration, warmed by the untimed first one) → analytic backend
    // → one 12-slice run, end to end.
    let session_store = PlacementStore::shared();
    file.benches.insert(
        "session_build_and_run".into(),
        bench(samples, || {
            let mut session = SessionBuilder::new()
                .store(Arc::clone(&session_store))
                .architecture(Architecture::HhPim)
                .model(TinyMlModel::MobileNetV2)
                .scenario(Scenario::PeriodicSpike)
                .scenario_params(ScenarioParams {
                    slices: 12,
                    ..ScenarioParams::default()
                })
                .build()
                .unwrap();
            std::hint::black_box(session.run().unwrap())
        }),
    );

    // lut_build_cold: the full §III-B allocation LUT (10 DP-solved
    // entries at CI resolution), built from scratch every iteration —
    // the cost the PlacementStore amortizes away.
    let lut_runtime = *dp_processor.runtime();
    file.benches.insert(
        "lut_build_cold".into(),
        bench(samples, || {
            let opt = PlacementOptimizer::new(dp_processor.cost(), opt_config);
            AllocationLut::build(&opt, lut_runtime.usable_slice(), lut_runtime.max_tasks)
        }),
    );

    // lut_store_warm: the memoized path — key construction, map
    // lookup and Arc clone on a warm PlacementStore, ×100 per
    // iteration so the sub-microsecond hit amortizes timer noise.
    let warm_store = PlacementStore::new();
    warm_store.lut(dp_processor.cost(), &lut_runtime, &opt_config);
    file.benches.insert(
        "lut_store_warm".into(),
        bench(samples, || {
            for _ in 0..100 {
                std::hint::black_box(warm_store.lut(
                    dp_processor.cost(),
                    &lut_runtime,
                    &opt_config,
                ));
            }
        }),
    );

    // sweep_all_parallel: the full 6×3 savings matrix fanned across 4
    // scoped threads sharing one store. The untimed warm-up iteration
    // populates the store, so the timed samples measure the warm
    // parallel sweep itself.
    let sweep_session = SessionBuilder::new()
        .scenario_params(ScenarioParams {
            slices: 12,
            ..ScenarioParams::default()
        })
        .optimizer(opt_config)
        .store(PlacementStore::shared())
        .threads(4)
        .build()
        .unwrap();
    file.benches.insert(
        "sweep_all_parallel".into(),
        bench(samples, || {
            std::hint::black_box(sweep_session.sweep_all().unwrap())
        }),
    );

    // artifact_save_load: one versioned-JSON LUT persistence round
    // trip — serialize + atomic write-rename, then read + full verify
    // ladder (format/version/key/checksum) + reconstruct. The LUT is
    // built once outside the timer; this measures the disk tier's
    // fixed per-artifact cost, not the DP.
    let artifact_dir =
        std::env::temp_dir().join(format!("hhpim_gate_artifacts_{}", std::process::id()));
    let artifact_store = ArtifactStore::new(&artifact_dir);
    let artifact_key = PlacementKey::for_lut(dp_processor.cost(), &lut_runtime, &opt_config);
    let artifact_lut = {
        let opt = PlacementOptimizer::new(dp_processor.cost(), opt_config);
        AllocationLut::build(&opt, lut_runtime.usable_slice(), lut_runtime.max_tasks)
    };
    file.benches.insert(
        "artifact_save_load".into(),
        bench(samples, || {
            artifact_store
                .save_lut(&artifact_key, &artifact_lut)
                .unwrap();
            std::hint::black_box(artifact_store.load_lut(&artifact_key).unwrap())
        }),
    );

    // sweep_all_disk_warm: the full 6×3 savings matrix on a fresh
    // in-memory store backed by a pre-warmed artifact dir — every LUT
    // comes off disk through the verify ladder, zero DP builds. This
    // is the path a second process over a populated artifact dir
    // takes.
    SessionBuilder::new()
        .scenario_params(ScenarioParams {
            slices: 12,
            ..ScenarioParams::default()
        })
        .optimizer(opt_config)
        .store(PlacementStore::shared())
        .artifact_dir(&artifact_dir)
        .build()
        .unwrap()
        .sweep_all()
        .unwrap();
    let mut disk_warm_stats = Vec::new();
    file.benches.insert(
        "sweep_all_disk_warm".into(),
        bench(samples, || {
            let session = SessionBuilder::new()
                .scenario_params(ScenarioParams {
                    slices: 12,
                    ..ScenarioParams::default()
                })
                .optimizer(opt_config)
                .store(PlacementStore::shared())
                .artifact_dir(&artifact_dir)
                .build()
                .unwrap();
            let matrix = session.sweep_all().unwrap();
            disk_warm_stats.push(session.cache_stats());
            matrix
        }),
    );
    let _ = std::fs::remove_dir_all(&artifact_dir);
    // The warm-dir contract: a populated artifact dir serves every
    // LUT, so a fast timing cannot hide a silent rebuild.
    if let Some(stats) = disk_warm_stats
        .iter()
        .find(|s| s.lut_builds > 0 || s.disk_hits == 0)
    {
        return Err(format!(
            "sweep_all_disk_warm ran {} LUT builds and {} disk hits \
             (want 0 builds and at least 1 disk hit)",
            stats.lut_builds, stats.disk_hits
        ));
    }

    // engine_step_hot: the streaming engine's steady-state single-slice
    // step (submit + step on an already-open analytic stream), ×100 per
    // iteration; events are drained so the buffer never caps. This is
    // the per-slice cost of the online serving path.
    let mut step_engine = Engine::new(
        SessionBuilder::new()
            .architecture(Architecture::HhPim)
            .model(TinyMlModel::MobileNetV2)
            .build_analytic()
            .unwrap(),
    );
    file.benches.insert(
        "engine_step_hot".into(),
        bench(samples, || {
            for i in 0..100 {
                step_engine
                    .submit(if i % 2 == 0 { 1.0 } else { 0.1 })
                    .unwrap();
                step_engine.step().unwrap();
            }
            std::hint::black_box(step_engine.events().count())
        }),
    );

    // engine_submit_drain: one full streaming round trip — 12 slices
    // submitted, drained into a report, events consumed — on a reused
    // engine (drain resets it, so every iteration opens a fresh run).
    let mut drain_engine = Engine::new(
        SessionBuilder::new()
            .architecture(Architecture::HhPim)
            .model(TinyMlModel::MobileNetV2)
            .build_analytic()
            .unwrap(),
    );
    file.benches.insert(
        "engine_submit_drain".into(),
        bench(samples, || {
            for i in 0..12 {
                drain_engine
                    .submit(if i % 2 == 0 { 1.0 } else { 0.1 })
                    .unwrap();
            }
            let reports = drain_engine.drain().unwrap();
            drain_engine.events().count();
            std::hint::black_box(reports)
        }),
    );

    // engine_step_n_batch_64: the batched twin of engine_step_hot —
    // 64 equal-load slices submitted then executed by one
    // `Engine::step_n` call (the stepping loop behind `drain`/`pump`
    // and the server's DRR grants).
    let mut batch_engine = Engine::new(
        SessionBuilder::new()
            .architecture(Architecture::HhPim)
            .model(TinyMlModel::MobileNetV2)
            .build_analytic()
            .unwrap(),
    );
    file.benches.insert(
        "engine_step_n_batch_64".into(),
        bench(samples, || {
            for _ in 0..64 {
                batch_engine.submit(0.6).unwrap();
            }
            let executed = batch_engine.step_n(64).unwrap();
            assert_eq!(executed, 64);
            std::hint::black_box(batch_engine.events().count())
        }),
    );

    // server_steady_state: the serving layer's happy path — a
    // two-tenant server under AlwaysAdmit, DRR rounds to completion
    // (12 slices per tenant, analytic backends, warm shared store).
    // The single-tenant case is bit-identical to a session run, so
    // this entry is the scheduler's overhead made visible.
    let mut steady_server = Server::builder()
        .architecture(Architecture::HhPim)
        .store(PlacementStore::shared())
        .tenant(
            TenantSpec::new(
                "camera",
                TinyMlModel::MobileNetV2,
                ScenarioSource::new(
                    Scenario::PeriodicSpike,
                    ScenarioParams {
                        slices: 12,
                        ..ScenarioParams::default()
                    },
                ),
            )
            .qos(QosClass::default().with_priority(3).with_queue_cap(4)),
        )
        .tenant(
            TenantSpec::new(
                "keyword",
                TinyMlModel::MobileNetV2,
                ScenarioSource::new(
                    Scenario::LowConstant,
                    ScenarioParams {
                        slices: 12,
                        ..ScenarioParams::default()
                    },
                ),
            )
            .qos(QosClass::default().with_queue_cap(4)),
        )
        .build()
        .unwrap();
    file.benches.insert(
        "server_steady_state".into(),
        bench(samples, || {
            let report = steady_server.run().unwrap();
            steady_server.events().count();
            std::hint::black_box(report)
        }),
    );

    // server_admission_overload: the control path under pressure — an
    // unmeetable SLO forces ShedOnPressure through its full
    // miss-window / shed / defer machinery every round.
    let mut overload_server = Server::builder()
        .architecture(Architecture::HhPim)
        .store(PlacementStore::shared())
        .admission(ShedOnPressure::new().with_min_samples(2))
        .miss_window(4)
        .tenant(
            TenantSpec::new(
                "strict",
                TinyMlModel::MobileNetV2,
                ScenarioSource::new(
                    Scenario::HighConstant,
                    ScenarioParams {
                        slices: 12,
                        ..ScenarioParams::default()
                    },
                ),
            )
            .qos(
                QosClass::default()
                    .with_priority(3)
                    .with_queue_cap(2)
                    .with_deadline(SimDuration::ZERO)
                    .with_max_miss_rate(0.0),
            ),
        )
        .tenant(
            TenantSpec::new(
                "lax",
                TinyMlModel::MobileNetV2,
                ScenarioSource::new(
                    Scenario::HighConstant,
                    ScenarioParams {
                        slices: 12,
                        ..ScenarioParams::default()
                    },
                ),
            )
            .qos(
                QosClass::default()
                    .with_queue_cap(2)
                    .with_deadline(SimDuration::ZERO),
            ),
        )
        .build()
        .unwrap();
    file.benches.insert(
        "server_admission_overload".into(),
        bench(samples, || {
            let report = overload_server.run().unwrap();
            overload_server.events().count();
            std::hint::black_box(report)
        }),
    );

    // machine_mac_burst: raw ISA-path MAC dispatch on all 8 modules,
    // 200 bursts per iteration on a pre-built machine (ClearAcc
    // rewinds the activation pointer between bursts).
    let mut mac_machine = PimMachine::new(MachineConfig::default());
    for g in 0..8 {
        mac_machine
            .preload(g, MemSelect::Mram, 0, &[1u8; 128])
            .unwrap();
        mac_machine.preload_activations(g, &[1u8; 128]).unwrap();
    }
    file.benches.insert(
        "machine_mac_burst_8x128_x200".into(),
        bench(samples, || {
            for _ in 0..200 {
                mac_machine
                    .execute(PimInstruction::ClearAcc {
                        modules: ModuleMask::all(),
                    })
                    .unwrap();
                mac_machine
                    .execute(PimInstruction::Mac {
                        modules: ModuleMask::all(),
                        mem: MemSelect::Mram,
                        addr: 0,
                        count: 128,
                    })
                    .unwrap();
            }
            mac_machine.execute(PimInstruction::Barrier).unwrap();
        }),
    );

    // nn_inference: bit-exact INT8 reference inference.
    let model = TinyMlModel::MobileNetV2.build();
    let (c, h, w) = model.input_shape();
    let qm = hhpim_nn::QuantizedModel::random(model, 11);
    let input = hhpim_nn::Tensor::zeros(c, h, w);
    file.benches.insert(
        "nn_mobilenet_int8_inference".into(),
        bench(samples, || qm.infer(&input)),
    );

    // traffic_gen_poisson: 10k Poisson arrivals drawn, sampled and
    // binned into per-slice loads by the live traffic generator.
    file.benches.insert(
        "traffic_gen_poisson".into(),
        bench(samples, || {
            let mut traffic = TrafficEngine::new(TrafficConfig::poisson(5.0).with_seed(1));
            while traffic.arrivals() < 10_000 {
                std::hint::black_box(traffic.next_load());
            }
            traffic.arrivals()
        }),
    );

    // paced_steady_state: the paced driver over the hot engine with a
    // 1 ns interval — always behind schedule, so the pacer never
    // sleeps and the entry prices its pace()/complete() bookkeeping
    // against the free-running engine_step_hot path.
    let mut paced_engine = Engine::new(
        SessionBuilder::new()
            .architecture(Architecture::HhPim)
            .model(TinyMlModel::MobileNetV2)
            .build_analytic()
            .unwrap(),
    );
    file.benches.insert(
        "paced_steady_state".into(),
        bench(samples, || {
            let traffic = TrafficEngine::new(TrafficConfig::constant(3.0).with_seed(1));
            let mut pacer = Pacer::new(std::time::Duration::from_nanos(1)).unwrap();
            let report = run_paced(&mut paced_engine, traffic.take(64), &mut pacer).unwrap();
            paced_engine.drain().unwrap();
            std::hint::black_box(report)
        }),
    );

    // Deterministic per-scenario energies (the fig5/table6 substrate),
    // all pulled through the session facade.
    for scenario in Scenario::ALL {
        let mut session = SessionBuilder::new()
            .architecture(Architecture::HhPim)
            .model(TinyMlModel::MobileNetV2)
            .scenario(scenario)
            .scenario_params(ScenarioParams {
                slices: 12,
                ..ScenarioParams::default()
            })
            .build()
            .unwrap();
        let artifacts = session.run().unwrap();
        file.energies.insert(
            format!("analytic_hhpim_case{}", scenario.case_number()),
            artifacts.primary().total_energy().as_pj(),
        );
    }
    let mut session = SessionBuilder::new()
        .architecture(Architecture::HhPim)
        .model(TinyMlModel::MobileNetV2)
        .scenario(Scenario::PeriodicSpike)
        .scenario_params(ScenarioParams {
            slices: 4,
            ..ScenarioParams::default()
        })
        .backend(BackendKind::Cycle)
        .build()
        .unwrap();
    let artifacts = session.run().unwrap();
    file.energies.insert(
        "cycle_hhpim_case3".into(),
        artifacts.primary().total_energy().as_pj(),
    );

    Ok(file)
}

/// Trimmed-mean wall time (ns) of `routine`: after one untimed
/// warm-up, `samples` runs are timed, the fastest and slowest are
/// dropped (when at least three exist), and the rest are averaged —
/// a mean that co-tenant scheduler noise cannot single-handedly skew.
fn bench<O, F: FnMut() -> O>(samples: usize, mut routine: F) -> f64 {
    std::hint::black_box(routine());
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(routine());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let kept: &[f64] = if times.len() >= 3 {
        &times[1..times.len() - 1]
    } else {
        &times
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The 6-slice trace the `cycle_trace_6_slices*` entries replay: long
/// enough for one LUT-triggered re-placement.
fn cycle_trace() -> LoadTrace {
    LoadTrace::generate(
        Scenario::PeriodicSpike,
        ScenarioParams {
            slices: 6,
            ..ScenarioParams::default()
        },
    )
}

/// Fixed integer busy-loop, the machine-speed yardstick.
fn calibrate() -> f64 {
    bench(3, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    })
}

// ---------------------------------------------------------------- compare

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(args.get(i.wrapping_sub(1)), Some(p) if p.starts_with("--"))
        })
        .map(|(_, a)| a)
        .collect();
    let [baseline_path, current_path] = positional[..] else {
        return Err("compare requires BASELINE and CURRENT paths".into());
    };
    let threshold: f64 = flag(args, "--threshold")
        .map(|s| s.parse().map_err(|_| "--threshold must be a number"))
        .transpose()?
        .unwrap_or(DEFAULT_THRESHOLD);
    let baseline = read_gate_file(baseline_path)?;
    let current = read_gate_file(current_path)?;
    let failures = compare(&baseline, &current, threshold);
    for line in &failures {
        eprintln!("REGRESSION: {line}");
    }
    if failures.is_empty() {
        println!(
            "bench gate passed: {} benches within {:.0}%, {} energies bit-identical",
            current.benches.len(),
            threshold * 100.0,
            current.energies.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{} regression(s) against {baseline_path}",
            failures.len()
        ))
    }
}

fn compare(baseline: &GateFile, current: &GateFile, threshold: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let ratio = if baseline.calibration_ns > 0.0 && current.calibration_ns > 0.0 {
        (current.calibration_ns / baseline.calibration_ns)
            .clamp(CALIBRATION_CLAMP.0, CALIBRATION_CLAMP.1)
    } else {
        1.0
    };
    for (name, base) in &baseline.benches {
        match current.benches.get(name) {
            None => failures.push(format!("bench `{name}` missing from current run")),
            Some(cur) => {
                let limit = base * (1.0 + threshold) * ratio + JITTER_ALLOWANCE_NS;
                if *cur > limit {
                    failures.push(format!(
                        "bench `{name}`: {cur:.0} ns exceeds {limit:.0} ns \
                         (baseline {base:.0} ns, calibration ratio {ratio:.2})"
                    ));
                }
            }
        }
    }
    for (name, base) in &baseline.energies {
        match current.energies.get(name) {
            None => failures.push(format!("energy `{name}` missing from current run")),
            Some(cur) => {
                if cur.to_bits() != base.to_bits() {
                    failures.push(format!(
                        "energy `{name}`: {cur:?} pJ differs from baseline {base:?} pJ"
                    ));
                }
            }
        }
    }
    failures
}

// ----------------------------------------------------------------- inject

fn cmd_inject(args: &[String]) -> Result<(), String> {
    let input = flag(args, "--input").ok_or("inject requires --input FILE")?;
    let out = flag(args, "--out").ok_or("inject requires --out FILE")?;
    let scale: f64 = flag(args, "--scale")
        .ok_or("inject requires --scale F")?
        .parse()
        .map_err(|_| "--scale must be a number")?;
    let file = inject(&read_gate_file(&input)?, scale);
    std::fs::write(&out, format_json(&file)).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote doctored gate file to {out} (benches ×{scale}, energies +1 ULP)");
    Ok(())
}

/// `file` with every bench scaled by `scale` and every energy moved to
/// the next representable value above it.
fn inject(file: &GateFile, scale: f64) -> GateFile {
    let mut out = file.clone();
    for v in out.benches.values_mut() {
        *v *= scale;
    }
    for v in out.energies.values_mut() {
        *v = f64::from_bits(v.to_bits() + 1);
    }
    out
}

// ------------------------------------------------------------------ JSON

fn format_json(file: &GateFile) -> String {
    let section = |map: &BTreeMap<String, f64>| -> String {
        map.iter()
            .map(|(k, v)| format!("    {}: {v:?}", quote(k)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"schema\": {GATE_SCHEMA},\n  \"calibration_ns\": {:?},\n  \"benches\": {{\n{}\n  }},\n  \"energies\": {{\n{}\n  }}\n}}\n",
        file.calibration_ns,
        section(&file.benches),
        section(&file.energies)
    )
}

fn read_gate_file(path: &str) -> Result<GateFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_gate_file(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Reads the gate-file shape: one object of numbers and flat
/// number-valued sub-objects. Unknown keys are ignored.
fn parse_gate_file(text: &str) -> Result<GateFile, String> {
    let mut file = GateFile::default();
    Reader::new(text.as_bytes())
        .object(|r, key| {
            match key {
                "schema" => {
                    let schema = r.int::<u32>()?;
                    if schema != GATE_SCHEMA {
                        return Err(r.error(format!("unsupported schema {schema}")));
                    }
                }
                "calibration_ns" => file.calibration_ns = r.f64()?,
                "benches" => file.benches = number_map(r)?,
                "energies" => file.energies = number_map(r)?,
                _ => r.skip_value()?,
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    Ok(file)
}

fn number_map(r: &mut Reader) -> Result<BTreeMap<String, f64>, ParseError> {
    let mut map = BTreeMap::new();
    r.object(|r, key| {
        map.insert(key.to_string(), r.f64()?);
        Ok(())
    })?;
    Ok(map)
}

#[cfg(test)]
#[path = "../../../../tests/support/mutations.rs"]
mod mutations;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GateFile {
        let mut f = GateFile {
            calibration_ns: 1000.0,
            ..GateFile::default()
        };
        f.benches.insert("a".into(), 5.0e6);
        f.benches.insert("b".into(), 2.5e6);
        f.energies.insert("e1".into(), 3.25e9);
        f
    }

    #[test]
    fn json_roundtrip() {
        let f = sample();
        let text = format_json(&f);
        let parsed = parse_gate_file(&text).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn parser_ignores_unknown_keys() {
        let text =
            "{\"schema\": 1, \"calibration_ns\": 5.0, \"benches\": {}, \"energies\": {\"x\": 1.0}}";
        let parsed = parse_gate_file(text).unwrap();
        assert_eq!(parsed.calibration_ns, 5.0);
        assert_eq!(parsed.energies["x"], 1.0);
    }

    const BASELINE: &str = include_str!("../../../../BENCH_baseline.json");

    #[test]
    fn checked_in_baseline_round_trips_byte_identically() {
        let parsed = parse_gate_file(BASELINE).unwrap();
        assert_eq!(parsed.benches.len(), 20);
        assert_eq!(parsed.energies.len(), 7);
        assert_eq!(format_json(&parsed), BASELINE);
    }

    #[test]
    fn out_of_range_schema_is_an_error() {
        // 2^32 + 1 must not wrap to schema 1.
        let text = BASELINE.replace("\"schema\": 1", "\"schema\": 4294967297");
        assert!(parse_gate_file(&text).is_err());
        let text = BASELINE.replace("\"schema\": 1", "\"schema\": 2");
        assert!(parse_gate_file(&text).is_err());
    }

    /// Every mutant `tests/support/mutations.rs` draws from the
    /// baseline (prefixes, one-byte substitutions, and 2,000 seeded
    /// multi-byte mutants) parses or fails with an error; none panics.
    #[test]
    fn mutated_baselines_never_panic() {
        crate::mutations::for_each_mutation(BASELINE, |mutant| {
            let _ = parse_gate_file(mutant);
        });
    }

    #[test]
    fn compare_passes_identical_files() {
        assert!(compare(&sample(), &sample(), DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn compare_fails_injected_regression() {
        let base = sample();
        let bad = inject(&base, 1.5); // > 20 % slower
        let failures = compare(&base, &bad, DEFAULT_THRESHOLD);
        assert_eq!(
            failures.len(),
            bad.benches.len() + bad.energies.len(),
            "{failures:?}"
        );
    }

    #[test]
    fn compare_normalizes_by_calibration() {
        let base = sample();
        let mut cur = sample();
        // Machine is 2× slower overall: benches 1.9× slower still pass.
        cur.calibration_ns *= 2.0;
        for v in cur.benches.values_mut() {
            *v *= 1.9;
        }
        assert!(compare(&base, &cur, DEFAULT_THRESHOLD).is_empty());
        // But 3× slower benches on a 2× machine fail.
        for v in cur.benches.values_mut() {
            *v *= 3.0 / 1.9;
        }
        assert!(!compare(&base, &cur, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn compare_flags_energy_drift_and_missing_entries() {
        let base = sample();
        let mut cur = sample();
        *cur.energies.get_mut("e1").unwrap() *= 1.05;
        cur.benches.remove("a");
        let failures = compare(&base, &cur, DEFAULT_THRESHOLD);
        assert_eq!(failures.len(), 2, "{failures:?}");
        // Energies compare exactly: one ULP either way is drift.
        let bits = base.energies["e1"].to_bits();
        for one_ulp in [bits + 1, bits - 1] {
            let mut cur = sample();
            cur.energies.insert("e1".into(), f64::from_bits(one_ulp));
            let failures = compare(&base, &cur, DEFAULT_THRESHOLD);
            assert_eq!(failures.len(), 1, "{failures:?}");
        }
    }

    #[test]
    fn measure_produces_complete_file() {
        // Three samples per entry, so each is the median of three and
        // one preempted sample cannot flip the ratio checks below.
        let f = measure(3).unwrap();
        assert!(f.calibration_ns > 0.0);
        assert_eq!(f.benches.len(), 20);
        for key in [
            "session_build_and_run",
            "lut_build_cold",
            "lut_store_warm",
            "sweep_all_parallel",
            "artifact_save_load",
            "sweep_all_disk_warm",
            "engine_step_hot",
            "engine_submit_drain",
            "engine_step_n_batch_64",
            "server_steady_state",
            "server_admission_overload",
            "traffic_gen_poisson",
            "paced_steady_state",
            "timegraph_build",
            "cycle_trace_6_slices",
            "cycle_trace_6_slices_object",
        ] {
            assert!(f.benches.contains_key(key), "missing bench `{key}`");
        }
        assert_eq!(f.energies.len(), 7);
        assert!(f.energies.values().all(|&v| v > 0.0));
        // The store's warm path must beat the cold DP by a wide margin
        // — this is the speedup the gate exists to protect.
        assert!(
            f.benches["lut_store_warm"] < f.benches["lut_build_cold"] / 10.0,
            "warm path {} ns not well below cold build {} ns",
            f.benches["lut_store_warm"],
            f.benches["lut_build_cold"]
        );
        // Timing-graph replay must stay well below the interpretive
        // object walk — the speedup these gate entries protect.
        // Observed ≈5–8× in release; the 2× floor also holds in the
        // unoptimized builds this self-test runs under. The paths are
        // timed here in alternation and compared by their fastest runs,
        // not through the two entries above: those are taken far apart
        // while the crate's other tests run, so contention could land on
        // one side only.
        let trace = cycle_trace();
        let backend = |mode| {
            let mut b = CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
            b.set_exec_mode(mode);
            b
        };
        let (mut graph, mut object) = (
            backend(ExecMode::TimingGraph),
            backend(ExecMode::ObjectWalk),
        );
        let time_ns = |b: &mut CycleBackend| {
            let start = Instant::now();
            std::hint::black_box(b.execute(&trace).unwrap());
            start.elapsed().as_secs_f64() * 1e9
        };
        let (mut graph_ns, mut object_ns) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..7 {
            graph_ns = graph_ns.min(time_ns(&mut graph));
            object_ns = object_ns.min(time_ns(&mut object));
        }
        assert!(
            graph_ns < object_ns / 2.0,
            "graph path {graph_ns} ns not well below object walk {object_ns} ns"
        );
        // A disk-warm sweep loads three LUT artifacts instead of DP
        // solving them (`measure` itself fails if it built any); the
        // whole 18-cell sweep must stay within a small multiple of one
        // cold DP build (loose enough for the unoptimized builds this
        // self-test runs under).
        assert!(
            f.benches["sweep_all_disk_warm"] < f.benches["lut_build_cold"] * 3.0,
            "disk-warm sweep {} ns not within 3x cold build {} ns",
            f.benches["sweep_all_disk_warm"],
            f.benches["lut_build_cold"]
        );
    }
}
