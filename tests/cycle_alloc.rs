//! Heap allocations on the cycle backend's slice boundary.
//!
//! A counting `#[global_allocator]` records every `alloc` and
//! `realloc` in a thread-local counter, so the test threads the
//! harness runs in parallel never add to each other's counts. Each
//! test drives one HH-PIM `CycleBackend` stream through `step_slice`
//! and counts a window of slices after a warm-up that has lowered
//! every placement's timing-graph program.
//!
//! What a slice may still allocate:
//! - the growth of the stream's `records` and `migrations` vectors,
//!   which double, so one reallocation per power of two crossed;
//! - on a re-placement, the one leg plan (`movement_legs`: its
//!   outflow, inflow and leg vectors), which moves into the slice's
//!   `ReplacementDecision`.

use hhpim::{Architecture, CycleBackend, ExecutionBackend};
use hhpim_nn::TinyMlModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the counter is
// a const-initialised thread-local without a destructor, so touching
// it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const MODELS: [TinyMlModel; 2] = [TinyMlModel::MobileNetV2, TinyMlModel::ResNet18];

/// Reallocations of a doubling `Vec` whose length grows from `from` to
/// `to`: one per power-of-two length it pushes past.
fn doublings(from: usize, to: usize) -> u64 {
    (from..to).filter(|n| n.is_power_of_two()).count() as u64
}

#[test]
fn steady_slices_allocate_nothing_but_record_growth() {
    for model in MODELS {
        let mut backend = CycleBackend::new(Architecture::HhPim, model).unwrap();
        backend.begin_stream().unwrap();
        for _ in 0..1_000 {
            backend.step_slice(4).unwrap();
        }
        let before = allocs();
        for _ in 0..1_000 {
            let outcome = backend.step_slice(4).unwrap();
            assert!(
                outcome.replacement.is_none(),
                "{model}: constant load re-placed"
            );
        }
        let made = allocs() - before;
        // 1,000 → 2,000 records crosses 1,024 once; one more is slack
        // for a different growth step.
        assert!(
            made <= 2,
            "{model}: 1,000 steady slices made {made} allocations"
        );
    }
}

#[test]
fn replacements_allocate_only_their_leg_plan() {
    const LOADS: [u32; 10] = [1, 3, 3, 7, 2, 2, 10, 4, 1, 5];
    const WARM: usize = 100;
    const WINDOW: usize = 400;
    for model in MODELS {
        let mut backend = CycleBackend::new(Architecture::HhPim, model).unwrap();
        backend.begin_stream().unwrap();
        let mut migrations = 0;
        for &n in LOADS.iter().cycle().take(WARM) {
            migrations += usize::from(backend.step_slice(n).unwrap().migration.is_some());
        }
        let mut replacements = 0;
        let before = allocs();
        for &n in LOADS.iter().cycle().take(WINDOW) {
            let outcome = backend.step_slice(n).unwrap();
            assert_eq!(outcome.replacement.is_some(), outcome.migration.is_some());
            replacements += usize::from(outcome.replacement.is_some());
        }
        let made = allocs() - before;
        let growth =
            doublings(WARM, WARM + WINDOW) + doublings(migrations, migrations + replacements);
        let allowed = 3 * replacements as u64 + growth;
        assert!(replacements > 0, "{model}: the load cycle never re-placed");
        assert!(
            made <= allowed,
            "{model}: {made} allocations for {replacements} re-placements \
             (at most {allowed} allowed)"
        );
    }
}
