//! Heap allocations and live heap of both backends.
//!
//! A counting `#[global_allocator]` records every `alloc` and
//! `realloc`, and the bytes they hold until freed, in thread-local
//! counters, so the test threads the harness runs in parallel never
//! add to each other's counts. Each slice test drives one HH-PIM
//! backend stream through `step_slice` and counts a window of slices
//! after a warm-up that has seen every transition of its load cycle:
//! the cycle backend has lowered every placement's timing-graph
//! program, and the analytic backend has memoized every
//! `(from, n_tasks)` slice evaluation.
//!
//! What a slice may still allocate:
//! - the growth of the stream's `records` and `migrations` vectors,
//!   which double, so one reallocation per power of two crossed;
//! - on a cycle re-placement, the leg plan (`movement_legs`) that
//!   `CycleBackend` walks to meter the migration traffic. An analytic
//!   re-placement replays its memoized migration and allocates
//!   nothing.
//!
//! What a backend holds: its machine's banks materialize a page on
//! first write, and only the classifier head and its activations are
//! ever written, so a built backend holds a small fraction of its
//! banks' capacity and a stream's migration legs, which meter their
//! traffic without moving bytes, materialize no page.

use hhpim::{AnalyticBackend, Architecture, CycleBackend, ExecutionBackend};
use hhpim_nn::TinyMlModel;
use hhpim_pim::PAGE_BYTES;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add_live(bytes: isize) {
    LIVE.with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards to `System` unchanged; the counters
// are const-initialised thread-locals without a destructor, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        add_live(layout.size() as isize);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        add_live(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated on this thread and not yet freed.
fn live() -> isize {
    LIVE.with(Cell::get)
}

const MODELS: [TinyMlModel; 2] = [TinyMlModel::MobileNetV2, TinyMlModel::ResNet18];

/// Host bytes the backend's machine holds as bank pages.
fn resident(backend: &CycleBackend) -> usize {
    let machine = backend.machine();
    (0..machine.module_count())
        .map(|g| machine.module(g).resident_bytes())
        .sum()
}

/// Reallocations of a doubling `Vec` whose length grows from `from` to
/// `to`: one per power-of-two length it pushes past.
fn doublings(from: usize, to: usize) -> u64 {
    (from..to).filter(|n| n.is_power_of_two()).count() as u64
}

/// A load cycle that re-places on most slices under HH-PIM's LUT.
const LOADS: [u32; 10] = [1, 3, 3, 7, 2, 2, 10, 4, 1, 5];
const WARM: usize = 100;
const WINDOW: usize = 400;

/// Steps an open stream through `WARM` slices of the load cycle, then
/// counts the next `WINDOW`. Returns the window's allocations, its
/// re-placements, and the reallocations the doubling `records` and
/// `migrations` vectors make across it.
fn replacing_window(backend: &mut impl ExecutionBackend) -> (u64, usize, u64) {
    let mut migrations = 0;
    for &n in LOADS.iter().cycle().take(WARM) {
        migrations += usize::from(backend.step_slice(n).unwrap().migration.is_some());
    }
    let mut replacements = 0;
    let before = allocs();
    for &n in LOADS.iter().cycle().take(WINDOW) {
        replacements += usize::from(backend.step_slice(n).unwrap().migration.is_some());
    }
    let made = allocs() - before;
    let growth = doublings(WARM, WARM + WINDOW) + doublings(migrations, migrations + replacements);
    (made, replacements, growth)
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
                outcome.migration.is_none(),
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
    for model in MODELS {
        let mut backend = CycleBackend::new(Architecture::HhPim, model).unwrap();
        backend.begin_stream().unwrap();
        let (made, replacements, growth) = replacing_window(&mut backend);
        let allowed = replacements as u64 + growth;
        assert!(replacements > 0, "{model}: the load cycle never re-placed");
        assert!(
            made <= allowed,
            "{model}: {made} allocations for {replacements} re-placements \
             (at most {allowed} allowed)"
        );
    }
}

#[test]
fn analytic_replacements_allocate_nothing_but_record_growth() {
    for model in MODELS {
        let mut backend = AnalyticBackend::new(Architecture::HhPim, model).unwrap();
        backend.begin_stream().unwrap();
        let (made, replacements, growth) = replacing_window(&mut backend);
        assert!(replacements > 0, "{model}: the load cycle never re-placed");
        assert!(
            made <= growth,
            "{model}: {made} allocations for {replacements} re-placements \
             (at most {growth} allowed)"
        );
    }
}

#[test]
fn a_built_backend_holds_little_live_heap() {
    for model in TinyMlModel::ALL {
        let before = live();
        let backend = CycleBackend::new(Architecture::HhPim, model).unwrap();
        let held = live() - before;
        // The machine's banks alone are 1 MiB of capacity.
        assert!(
            held <= 128 * 1024,
            "{model}: a built backend holds {} KiB",
            held / 1024
        );
        drop(backend);
        assert_eq!(live(), before, "{model}: dropping the backend leaks");
    }
}

#[test]
fn replacing_window_materializes_no_page() {
    for model in MODELS {
        let mut backend = CycleBackend::new(Architecture::HhPim, model).unwrap();
        backend.begin_stream().unwrap();
        for &n in LOADS.iter().cycle().take(WARM) {
            backend.step_slice(n).unwrap();
        }
        let warm = resident(&backend);
        let mut replacements = 0;
        for &n in LOADS.iter().cycle().take(WINDOW) {
            replacements += usize::from(backend.step_slice(n).unwrap().migration.is_some());
        }
        assert!(replacements > 0, "{model}: the load cycle never re-placed");
        assert_eq!(
            resident(&backend),
            warm,
            "{model}: {replacements} re-placements materialized pages"
        );
        // Every page the whole stream wrote holds the head: at most one
        // page of rows in each bank it was installed in, and one page of
        // activations.
        let machine = backend.machine();
        for g in 0..machine.module_count() {
            assert!(
                machine.module(g).resident_bytes() <= 3 * PAGE_BYTES,
                "{model}: module {g} holds {} pages",
                machine.module(g).resident_bytes() / PAGE_BYTES
            );
        }
    }
}
