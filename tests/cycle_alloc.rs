//! Heap allocations and live heap of the cycle backend.
//!
//! A counting `#[global_allocator]` records every `alloc` and
//! `realloc`, and the bytes they hold until freed, in thread-local
//! counters, so the test threads the harness runs in parallel never
//! add to each other's counts. Each slice test drives one HH-PIM
//! `CycleBackend` stream through `step_slice` and counts a window of
//! slices after a warm-up that has lowered every placement's
//! timing-graph program.
//!
//! What a slice may still allocate:
//! - the growth of the stream's `records` and `migrations` vectors,
//!   which double, so one reallocation per power of two crossed;
//! - on a re-placement, the one leg plan (`movement_legs`), which
//!   moves into the slice's `ReplacementDecision`.
//!
//! What a backend holds: its machine's banks materialize a page on
//! first write, and only the classifier head and its activations are
//! ever written, so a built backend holds a small fraction of its
//! banks' capacity and a stream's migration legs, which meter their
//! traffic without moving bytes, materialize no page.

use hhpim::{Architecture, CycleBackend, ExecutionBackend};
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
    const LOADS: [u32; 10] = [1, 3, 3, 7, 2, 2, 10, 4, 1, 5];
    for model in MODELS {
        let mut backend = CycleBackend::new(Architecture::HhPim, model).unwrap();
        backend.begin_stream().unwrap();
        for &n in LOADS.iter().cycle().take(100) {
            backend.step_slice(n).unwrap();
        }
        let warm = resident(&backend);
        let mut replacements = 0;
        for &n in LOADS.iter().cycle().take(400) {
            replacements += usize::from(backend.step_slice(n).unwrap().replacement.is_some());
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
