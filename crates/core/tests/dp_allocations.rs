//! Heap allocations per interval-DP value solve, pinned.
//!
//! The three interval DPs (`baptiste`, `multiproc_dp`, `power_dp`) keep
//! every memoized window in two arena vectors and solve values without
//! building a witness, so a solve allocates a bounded handful of buffers
//! (job arrays, tables, memo and arena growth) — not a few per state, as
//! a per-window `Vec` would. A counting global allocator measures each
//! solve on the calling thread; the pins are an absolute ceiling on
//! `batch_mix`-sized instances and no more than geometric regrowth when
//! the same instance is stretched over twice the horizon (which nearly
//! triples the window count).

use gaps_core::instance::{Instance, Job};
use gaps_core::{baptiste, multiproc_dp, power_dp};
use gaps_workloads::one_interval;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. `const`-initialized and free of
    /// destructors, so reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn count_one() {
    // Ignore accesses during thread teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards the caller's layout to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's layout to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `solve` makes on this thread, and its result.
fn allocations<T>(solve: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = solve();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Ceiling on allocations per value solve: about 100 today, where a
/// per-window `Vec` scheme made 1,300–1,500 on the 36-job instance
/// below. Debug builds also re-derive and verify one witness per value
/// solve (about 150 more allocations).
const MAX_ALLOCATIONS: u64 = if cfg!(debug_assertions) { 400 } else { 200 };

/// Allowed growth when the horizon doubles: the arena vectors and the
/// memo regrow geometrically, a few reallocations per doubling of the
/// state count (7 today; a per-window scheme grew by about 2,500).
const HORIZON_GROWTH: u64 = 16;

/// The 36-job `p = 1` and 30-job `p = 2` shapes of the `batch_mix`
/// benchmark's one-interval families.
fn instances() -> (Instance, Instance) {
    let mut rng = StdRng::seed_from_u64(1);
    let single = one_interval::feasible(&mut rng, 36, 72, 3, 1);
    // The uniform family is not feasible by construction: draw until a
    // feasible one comes up, as the benchmark's answers need.
    let double = loop {
        let inst = one_interval::uniform(&mut rng, 30, 60, 4, 2);
        if gaps_core::edf::is_feasible(&inst) {
            break inst;
        }
    };
    (single, double)
}

/// The same jobs with every time doubled: twice the horizon, many more
/// windows and states.
fn stretched(inst: &Instance) -> Instance {
    let jobs = inst
        .jobs()
        .iter()
        .map(|j| Job::new(2 * j.release, 2 * j.deadline))
        .collect();
    Instance::new(jobs, inst.processors()).unwrap()
}

/// Allocations of every DP value solve that takes `inst`, by name.
fn solve_all(inst: &Instance) -> Vec<(&'static str, u64)> {
    let mut counts = Vec::new();
    if inst.processors() == 1 {
        let (n, v) = allocations(|| baptiste::min_spans_value(inst));
        assert!(v.is_some());
        counts.push(("baptiste spans", n));
        let (n, v) = allocations(|| baptiste::min_power_value(inst, 3));
        assert!(v.is_some());
        counts.push(("baptiste power", n));
    }
    let (n, v) = allocations(|| multiproc_dp::min_gap_value(inst));
    assert!(v.is_some());
    counts.push(("multiproc_dp gaps", n));
    let (n, v) = allocations(|| power_dp::min_power_value(inst, 3));
    assert!(v.is_some());
    counts.push(("power_dp power", n));
    counts
}

#[test]
fn dp_value_solves_allocate_a_bounded_handful() {
    let (single, double) = instances();
    for inst in [&single, &double] {
        for (solver, n) in solve_all(inst) {
            assert!(
                n < MAX_ALLOCATIONS,
                "{solver} on {} jobs, p = {}: {n} allocations",
                inst.job_count(),
                inst.processors()
            );
        }
    }
}

#[test]
fn allocations_do_not_grow_with_the_horizon() {
    let (single, double) = instances();
    for inst in [&single, &double] {
        let wide = stretched(inst);
        for ((solver, narrow_n), (_, wide_n)) in solve_all(inst).into_iter().zip(solve_all(&wide)) {
            assert!(
                wide_n <= narrow_n + HORIZON_GROWTH,
                "{solver} on {} jobs, p = {}: {narrow_n} allocations, {wide_n} at twice the horizon",
                inst.job_count(),
                inst.processors()
            );
        }
    }
}
