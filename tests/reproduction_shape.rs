//! Reproduction-shape integration tests: the qualitative claims of the
//! paper's evaluation must hold end to end (who wins, by roughly what
//! factor, where the crossovers fall).

use hhpim::session::SessionBuilder;
use hhpim::{
    inference_times, Architecture, CostModel, CostParams, OptimizerConfig, SavingsMatrix,
    WorkloadProfile,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{Scenario, ScenarioParams};

fn quick_matrix() -> SavingsMatrix {
    SessionBuilder::new()
        .scenario_params(ScenarioParams {
            slices: 10,
            ..ScenarioParams::default()
        })
        .optimizer(OptimizerConfig {
            time_buckets: 400,
            ..OptimizerConfig::default()
        })
        .build()
        .expect("default session builds")
        .sweep_all()
        .expect("all fit")
}

#[test]
fn fig5_shape_holds_for_all_models() {
    let matrix = quick_matrix();
    for model in TinyMlModel::ALL {
        let case1 = matrix.cell(Scenario::LowConstant, model).unwrap();
        let case2 = matrix.cell(Scenario::HighConstant, model).unwrap();
        // Case 1 (low load) is HH-PIM's best case against every group.
        assert!(
            case1.vs_baseline > 60.0,
            "{model}: case1 vs baseline {:.1}",
            case1.vs_baseline
        );
        assert!(
            case1.vs_heterogeneous > 40.0,
            "{model}: {:.1}",
            case1.vs_heterogeneous
        );
        assert!(case1.vs_hybrid > 25.0, "{model}: {:.1}", case1.vs_hybrid);
        // Case 2 (high load): the Hetero gap collapses (paper: 3.72 %).
        assert!(
            case2.vs_heterogeneous < case1.vs_heterogeneous / 2.0,
            "{model}: hetero gap must collapse at high load"
        );
        // Everything stays non-negative: HH-PIM never loses.
        for s in Scenario::ALL {
            let c = matrix.cell(s, model).unwrap();
            assert!(c.vs_baseline > 0.0, "{model}/{s}");
            assert!(c.vs_heterogeneous > -1.0, "{model}/{s}");
            assert!(c.vs_hybrid > 0.0, "{model}/{s}");
        }
    }
}

#[test]
fn table6_cases_ordered_sensibly() {
    let matrix = quick_matrix();
    // Spiky (mostly-idle) cases save more vs Baseline than the pulsing
    // case, which runs at high load half the time (paper: 72 > 49).
    let spike = matrix.scenario_mean(Scenario::PeriodicSpike, Architecture::Baseline);
    let pulse = matrix.scenario_mean(Scenario::HighLowPulsing, Architecture::Baseline);
    assert!(spike > pulse, "spike {spike:.1} vs pulse {pulse:.1}");
    // And vs Hetero the same ordering holds (paper: 55.8 > 16.9).
    let spike_h = matrix.scenario_mean(Scenario::PeriodicSpike, Architecture::Heterogeneous);
    let pulse_h = matrix.scenario_mean(Scenario::HighLowPulsing, Architecture::Heterogeneous);
    assert!(spike_h > pulse_h);
}

#[test]
fn inference_times_match_calibration_and_ratios() {
    // Paper §IV-B: peak 31.06/25.71/320.87 ms; MRAM-only slower
    // (44.5/36.84/459.74 ms).
    // Our model times PIM work only; the paper's measured times include
    // host-side (non-PIM) operations, so ResNet-18 (75 % PIM ratio) runs
    // relatively faster here. EfficientNet-B0 anchors the calibration.
    let expected_peak = [31.06, 25.71, 320.87];
    let tolerance = [0.15, 0.25, 0.30];
    let mut peaks = Vec::new();
    for ((model, expect), tol) in TinyMlModel::ALL
        .into_iter()
        .zip(expected_peak)
        .zip(tolerance)
    {
        let cost = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&model.spec()),
            CostParams::default(),
        )
        .unwrap();
        let times = inference_times(&cost);
        let peak_ms = times.peak.as_ms_f64();
        peaks.push(peak_ms);
        assert!(
            (peak_ms - expect).abs() / expect < tol,
            "{model}: peak {peak_ms:.2} ms vs paper {expect}"
        );
        let ratio = times.mram_only.as_ms_f64() / peak_ms;
        assert!(
            ratio > 1.05 && ratio < 1.6,
            "{model}: MRAM-only must be notably slower (paper ≈1.43x), got {ratio:.2}x"
        );
    }
    // Ordering matches the paper: MobileNetV2 < EfficientNet-B0 < ResNet-18.
    assert!(peaks[1] < peaks[0] && peaks[0] < peaks[2], "{peaks:?}");
}

#[test]
fn gating_ablation_baseline_policy_costs_energy() {
    // Running the HH-PIM *hardware* with the Baseline's always-on policy
    // must cost more than with bank-level gating — isolating the gating
    // contribution (DESIGN.md ablation).
    use hhpim::Processor;
    use hhpim_workload::LoadTrace;
    let trace = LoadTrace::generate(
        Scenario::LowConstant,
        ScenarioParams {
            slices: 10,
            ..ScenarioParams::default()
        },
    );
    let gated = Processor::new(Architecture::HhPim, TinyMlModel::EfficientNetB0).unwrap();
    let baseline = Processor::new(Architecture::Baseline, TinyMlModel::EfficientNetB0).unwrap();
    let e_gated = gated.run_trace(&trace).unwrap().total_energy();
    let e_base = baseline.run_trace(&trace).unwrap().total_energy();
    assert!(
        e_gated.as_mj() < e_base.as_mj() * 0.5,
        "gating should halve low-load energy"
    );
}

#[test]
fn dp_off_ablation_degrades_low_load_savings() {
    // With leakage amortization disabled the optimizer stays SRAM-greedy,
    // so low-load energy rises versus the full optimizer.
    use hhpim::{default_policy, PlacementStore, Processor};
    use hhpim_workload::LoadTrace;
    // A near-idle load (1 task/slice) gives the longest t_constraint,
    // where leakage-aware placement (LP-MRAM) diverges from the
    // dynamic-greedy choice (LP-SRAM).
    let trace = LoadTrace::generate(
        Scenario::LowConstant,
        ScenarioParams {
            slices: 10,
            low: 0.05,
            ..ScenarioParams::default()
        },
    );
    // ResNet-18 has the largest weight footprint and the longest
    // slice, making the retention-vs-access trade-off decisive at idle.
    let store = PlacementStore::new();
    let processor = |opt: OptimizerConfig| {
        Processor::with_policy_in(
            Architecture::HhPim,
            TinyMlModel::ResNet18,
            CostParams::default(),
            opt,
            default_policy(Architecture::HhPim),
            &store,
        )
        .unwrap()
    };
    let full = processor(OptimizerConfig::default());
    let greedy = processor(OptimizerConfig {
        amortize_static: false,
        ..OptimizerConfig::default()
    });
    let e_full = full.run_trace(&trace).unwrap().total_energy();
    let e_greedy = greedy.run_trace(&trace).unwrap().total_energy();
    assert!(
        e_full.as_mj() < e_greedy.as_mj(),
        "leakage-aware placement must win at low load: {} vs {}",
        e_full,
        e_greedy
    );
}
