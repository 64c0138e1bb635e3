//! The host-side serving loop: a long-lived driver feeding load
//! slices to the streaming `hhpim::engine` as they arrive, instead of
//! handing over a complete trace up front.
//!
//! This example plays the role of the paper's host processor under
//! live traffic: an endless iterator of loads stands in for the
//! camera/sensor feed (it has no known length — the engine never needs
//! one), each slice is `submit`ted and `step`ped individually, a
//! bounded queue backpressures the producer (`SubmitOutcome::Deferred`
//! means "the machine is behind — step before submitting more"), and
//! an `Observer` closure watches the runtime's online decisions: LUT
//! re-placements, the migration traffic realizing them, idle windows
//! the gating converts into leakage savings, and any deadline misses.
//!
//! The cycle-level backend is used, so every submitted slice really
//! executes the model's full PIM layer stack on the structural
//! machine. See `quickstart` for the batch facade over the same
//! stack.
//!
//! ```sh
//! cargo run --release --example host_driver
//! ```

use hhpim::engine::{Engine, EngineEvent, SubmitOutcome};
use hhpim::session::SessionBuilder;
use hhpim::Architecture;
use hhpim_nn::TinyMlModel;

fn main() {
    // The machine under service: HH-PIM running MobileNetV2 on the
    // cycle-accurate backend (same builder surface as batch runs).
    let backend = SessionBuilder::new()
        .architecture(Architecture::HhPim)
        .model(TinyMlModel::MobileNetV2)
        .build_cycle()
        .expect("MobileNetV2 fits HH-PIM");

    // A deliberately small queue so the demo exercises backpressure.
    let mut engine = Engine::new(backend).with_queue_capacity(2);

    // A live observer: print each online decision as it happens.
    engine.observe(|event: &EngineEvent| match event {
        EngineEvent::Replacement {
            slice,
            from,
            to,
            legs,
            ..
        } => println!(
            "  slice {slice:2}: LUT re-placement {from} -> {to} ({} legs)",
            legs.len()
        ),
        EngineEvent::Migration { record, .. } => println!(
            "  slice {:2}: migrated {} groups ({} B) in {}",
            record.slice, record.groups, record.bytes, record.time
        ),
        EngineEvent::DeadlineMiss { slice, n_tasks, .. } => {
            println!("  slice {slice:2}: DEADLINE MISS at {n_tasks} tasks")
        }
        _ => {}
    });

    // The "traffic": an unbounded stream of loads — a quiet feed that
    // spikes every fifth slice. No length is ever declared; `cursor`
    // is the next slice index the feed will sample.
    let load_at = |slice: usize| if slice.is_multiple_of(5) { 1.0 } else { 0.15 };
    let mut cursor = 0..;

    println!("streaming 12 slices into the engine:");
    let mut deferred = 0u32;
    for load in cursor.by_ref().take(12).map(load_at) {
        loop {
            match engine.submit(load).expect("loads are in [0, 1]") {
                SubmitOutcome::Accepted => break,
                // `SubmitOutcome` is `#[non_exhaustive]` — treat
                // anything else as "queue full: make progress, then
                // offer again".
                _ => {
                    deferred += 1;
                    engine.step().expect("slice executes");
                }
            }
        }
    }

    // Finish the backlog and close the stream into a report.
    let reports = engine.drain().expect("stream drains");
    let report = &reports[0];

    // Summarize what the iterator side of the event stream saw.
    let events: Vec<EngineEvent> = engine.events().collect();
    let replacements = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::Replacement { .. }))
        .count();
    let idle_slices = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::IdleAccrued { .. }))
        .count();

    println!("\nstream closed: {report}");
    println!("  re-placements     : {replacements}");
    println!("  slices with idle  : {idle_slices}");
    println!("  submissions held  : {deferred} (bounded-queue backpressure)");
    println!("  MACs retired      : {}", report.macs);
    println!("  energy total      : {}", report.total_energy());

    assert_eq!(report.records.len(), 12);
    assert!(replacements > 0, "a spiky feed must trigger re-placement");

    // The engine resets after drain — keep serving the same feed.
    engine
        .pump(cursor.by_ref().take(5).map(load_at))
        .expect("next batch serves");
    let more = engine.drain().expect("second stream drains");
    println!(
        "\nsecond batch of 5 slices (feed cursor now at {}): {}",
        cursor.start, more[0]
    );
}
