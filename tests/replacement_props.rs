//! Property tests for the cycle machine's LUT-driven re-placement:
//! adapting placements to the queue length never schedules worse than
//! pinning the weights in the worst fixed home, and the migration
//! engine's energy is monotone in the bytes it moves.

use hhpim::session::SessionBuilder;
use hhpim::{
    mram_only_fastest, Architecture, CycleBackend, ExecutionBackend, FixedHome, StorageSpace,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::{LoadTrace, Scenario, ScenarioParams};
use proptest::prelude::*;

fn any_scenario() -> impl Strategy<Value = Scenario> {
    proptest::sample::select(Scenario::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The paper's claim, on the structural machine: a re-placement run
    /// (allocation LUT consulted every slice) never reports *more*
    /// deadline misses than the same trace executed with the weights
    /// pinned in the worst fixed home (MRAM-only, prior H-PIM style).
    #[test]
    fn replacement_never_misses_more_than_fixed_worst_home(
        scenario in any_scenario(),
        slices in 3usize..6,
        seed in 0u64..50,
    ) {
        let trace = LoadTrace::generate(
            scenario,
            ScenarioParams { slices, seed, ..ScenarioParams::default() },
        );
        let mut adaptive =
            CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
        let worst = mram_only_fastest(adaptive.processor().cost())
            .expect("MobileNet fits in HH-PIM's MRAM");
        let mut pinned = SessionBuilder::new()
            .architecture(Architecture::HhPim)
            .model(TinyMlModel::MobileNetV2)
            .policy(FixedHome::pinned(worst))
            .build_cycle()
            .unwrap();
        let a = adaptive.execute(&trace).unwrap();
        let p = pinned.execute(&trace).unwrap();
        prop_assert!(
            a.deadline_misses <= p.deadline_misses,
            "adaptive missed {} > pinned {} ({scenario}, {slices} slices, seed {seed})",
            a.deadline_misses,
            p.deadline_misses
        );
        // The pinned run never migrates; the adaptive run's migrations
        // are all LUT decisions.
        prop_assert!(p.migrations.is_empty());
        prop_assert!(p.records.iter().all(|r| r.groups_moved == 0));
    }

    /// Migration energy is monotone in migrated bytes: moving more
    /// groups over the same route never costs less.
    #[test]
    fn migration_energy_monotone_in_bytes(
        small in 1usize..40,
        extra in 1usize..40,
    ) {
        let cost_of = |groups: usize| {
            let mut backend =
                CycleBackend::new(Architecture::HhPim, TinyMlModel::MobileNetV2).unwrap();
            // Start from the peak placement and push `groups` groups
            // from HP-SRAM into HP-MRAM (one fixed route, so the only
            // variable is the byte count).
            let mut target = backend.placement();
            let movable = target.get(StorageSpace::HpSram);
            let n = groups.min(movable);
            target.set(StorageSpace::HpSram, movable - n);
            target.set(StorageSpace::HpMram, target.get(StorageSpace::HpMram) + n);
            backend.migrate_to(target).unwrap()
        };
        let a = cost_of(small);
        let b = cost_of(small + extra);
        prop_assert!(a.bytes < b.bytes, "{} vs {}", a.bytes, b.bytes);
        prop_assert!(
            a.energy.as_pj() < b.energy.as_pj(),
            "moving {} B cost {} pJ but {} B cost {} pJ",
            a.bytes,
            a.energy.as_pj(),
            b.bytes,
            b.energy.as_pj()
        );
        prop_assert!(a.time < b.time);
    }
}
