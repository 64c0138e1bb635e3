//! Fig. 5 / Table VI experiment *artifacts*: the savings matrix HH-PIM
//! achieves over the comparison architectures across workload
//! scenarios and models.
//!
//! The matrix is produced by [`crate::session::Session::sweep`] and
//! its whole-grid form,
//! [`sweep_all`](crate::session::Session::sweep_all).

use crate::arch::Architecture;
use hhpim_nn::TinyMlModel;
use hhpim_workload::Scenario;
use std::fmt;

/// Energy savings of HH-PIM for one `(scenario, model)` cell of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsCell {
    /// The workload scenario.
    pub scenario: Scenario,
    /// The benchmark model.
    pub model: TinyMlModel,
    /// Savings versus Baseline-PIM, in percent.
    pub vs_baseline: f64,
    /// Savings versus Heterogeneous-PIM, in percent.
    pub vs_heterogeneous: f64,
    /// Savings versus Hybrid-PIM, in percent.
    pub vs_hybrid: f64,
}

impl SavingsCell {
    /// Savings against a specific architecture.
    ///
    /// # Panics
    ///
    /// Panics when asked for savings versus HH-PIM itself.
    pub fn versus(&self, arch: Architecture) -> f64 {
        match arch {
            Architecture::Baseline => self.vs_baseline,
            Architecture::Heterogeneous => self.vs_heterogeneous,
            Architecture::Hybrid => self.vs_hybrid,
            Architecture::HhPim => panic!("savings are measured against the comparison group"),
        }
    }
}

impl fmt::Display for SavingsCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {}: {:.2}% vs Baseline, {:.2}% vs Hetero, {:.2}% vs Hybrid",
            self.scenario.label(),
            self.model,
            self.vs_baseline,
            self.vs_heterogeneous,
            self.vs_hybrid
        )
    }
}

/// The full Fig. 5 matrix plus the reports behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsMatrix {
    /// One cell per `(scenario, model)` pair, model-major order: every
    /// scenario of the first model, then every scenario of the next.
    pub cells: Vec<SavingsCell>,
}

impl SavingsMatrix {
    /// The cell for a `(scenario, model)` pair.
    pub fn cell(&self, scenario: Scenario, model: TinyMlModel) -> Option<&SavingsCell> {
        self.cells
            .iter()
            .find(|c| c.scenario == scenario && c.model == model)
    }

    /// Mean savings versus `arch` across every cell (the paper's
    /// "average energy savings" headline).
    pub fn mean_versus(&self, arch: Architecture) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().map(|c| c.versus(arch)).sum::<f64>() / self.cells.len() as f64
    }

    /// Mean savings for one scenario across models (Table VI rows).
    pub fn scenario_mean(&self, scenario: Scenario, arch: Architecture) -> f64 {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.scenario == scenario)
            .map(|c| c.versus(arch))
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::OptimizerConfig;
    use crate::session::SessionBuilder;
    use hhpim_workload::ScenarioParams;

    fn quick_session() -> crate::session::Session {
        // Fewer slices + coarser DP keep the test fast while preserving
        // every qualitative property.
        SessionBuilder::new()
            .scenario_params(ScenarioParams {
                slices: 12,
                ..ScenarioParams::default()
            })
            .optimizer(OptimizerConfig {
                time_buckets: 400,
                ..OptimizerConfig::default()
            })
            .build()
            .unwrap()
    }

    fn savings_matrix_quick() -> SavingsMatrix {
        quick_session().sweep_all().unwrap()
    }

    #[test]
    fn matrix_covers_all_cells() {
        let m = savings_matrix_quick();
        assert_eq!(m.cells.len(), 18);
        for scenario in Scenario::ALL {
            for model in TinyMlModel::ALL {
                assert!(m.cell(scenario, model).is_some(), "{scenario} {model}");
            }
        }
    }

    #[test]
    fn hh_always_saves_energy() {
        let m = savings_matrix_quick();
        for c in &m.cells {
            assert!(c.vs_baseline > 0.0, "{c}");
            assert!(c.vs_heterogeneous >= -0.5, "{c}");
            assert!(c.vs_hybrid > 0.0, "{c}");
        }
    }

    #[test]
    fn case_orderings_match_paper() {
        let m = savings_matrix_quick();
        for model in TinyMlModel::ALL {
            let low = m.cell(Scenario::LowConstant, model).unwrap();
            let high = m.cell(Scenario::HighConstant, model).unwrap();
            // Case 1 beats Case 2 against every comparison group.
            assert!(low.vs_baseline > high.vs_baseline, "{model}");
            assert!(low.vs_heterogeneous > high.vs_heterogeneous, "{model}");
            // Case 2 vs Heterogeneous is the paper's smallest gap.
            assert!(
                high.vs_heterogeneous < 20.0,
                "{model}: case 2 vs hetero should be small, got {:.2}",
                high.vs_heterogeneous
            );
        }
    }

    #[test]
    fn average_savings_land_in_paper_band() {
        let m = savings_matrix_quick();
        // Paper: up to 60.43 % average vs Baseline, 36.3 % vs Hetero,
        // 48.58 % vs Hybrid. Shape requirement: baseline > hybrid > hetero
        // and all averages substantial.
        let base = m.mean_versus(Architecture::Baseline);
        let het = m.mean_versus(Architecture::Heterogeneous);
        let hyb = m.mean_versus(Architecture::Hybrid);
        assert!(
            base > hyb && hyb > het,
            "base {base:.1} hyb {hyb:.1} het {het:.1}"
        );
        assert!(base > 30.0, "vs baseline average {base:.1}% too small");
    }

    #[test]
    fn run_case_produces_full_trace() {
        let mut session = SessionBuilder::new()
            .scenario(Scenario::Random)
            .scenario_params(ScenarioParams {
                slices: 12,
                ..ScenarioParams::default()
            })
            .optimizer(OptimizerConfig {
                time_buckets: 400,
                ..OptimizerConfig::default()
            })
            .build()
            .unwrap();
        let r = session.run().unwrap();
        assert_eq!(r.primary().records.len(), 12);
        assert!(r.primary().total_energy().as_mj() > 0.0);
    }

    #[test]
    #[should_panic(expected = "comparison group")]
    fn versus_hh_panics() {
        let cell = SavingsCell {
            scenario: Scenario::Random,
            model: TinyMlModel::MobileNetV2,
            vs_baseline: 1.0,
            vs_heterogeneous: 1.0,
            vs_hybrid: 1.0,
        };
        cell.versus(Architecture::HhPim);
    }
}
