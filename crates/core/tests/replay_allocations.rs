//! The allocation gate of a profile replay.
//!
//! A replay prices a cached profile with arithmetic: the hour's graph
//! borrows its per-item work and its redistribution plans, and every
//! per-node fold walks the items in place. So what a replay allocates —
//! the graph's node list, the machine's books, the report — does not
//! depend on the node count or the layout, and charging a graph a second
//! time allocates nothing at all. The counting allocator below counts
//! this thread's allocation calls and bytes, so tests running side by
//! side do not see each other's.
//!
//! `cargo test --release -p airshed-core --test replay_allocations --
//! --nocapture` prints the table.

use airshed_core::driver::{HourPlans, PlanLayouts};
use airshed_core::plan::{replay_profile, ItemLayout, PhaseGraph};
use airshed_core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed_machine::{Machine, MachineProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn account(bytes: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f()`'s result with the allocation calls and bytes this thread made
/// while computing it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    (
        r,
        CALLS.with(Cell::get) - calls,
        BYTES.with(Cell::get) - bytes,
    )
}

/// A tiny two-hour profile: 5 layers, 60 columns, three steps an hour.
fn profile() -> WorkProfile {
    let shape = [4, 5, 60];
    let hour = |h: usize| HourProfile {
        input_work: 7.0e6,
        pretrans_work: 3.0e6,
        output_work: 5.0e6,
        input_bytes: shape.iter().product(),
        steps: (0..3)
            .map(|k| StepProfile {
                transport1: (0..shape[1]).map(|i| 1.0e5 * (1 + i + k) as f64).collect(),
                transport2: (0..shape[1]).map(|i| 1.0e5 * (2 + i) as f64).collect(),
                chemistry: (0..shape[2])
                    .map(|i| 1.0e4 * (1 + (i * 7 + h) % 13) as f64)
                    .collect(),
                aerosol: 1.0e5,
            })
            .collect(),
        surface: Vec::new(),
    };
    WorkProfile {
        dataset: "TINY",
        shape,
        hours: (0..2).map(hour).collect(),
        summaries: Vec::new(),
    }
}

fn cases() -> Vec<(usize, ItemLayout)> {
    let layouts = [
        ItemLayout::Block,
        ItemLayout::Cyclic,
        ItemLayout::BlockCyclic(3),
    ];
    [2, 16, 64, 1024]
        .into_iter()
        .flat_map(|p| layouts.map(|l| (p, l)))
        .collect()
}

#[test]
fn a_replay_allocates_the_same_at_every_p_and_layout() {
    let profile = profile();
    let t3e = MachineProfile::t3e();
    // Warm the process-wide plan memo: each plan set is derived once,
    // outside the count.
    for (p, layout) in cases() {
        replay_profile(&profile, t3e, p, layout);
    }
    let mut rows = Vec::new();
    for (p, layout) in cases() {
        let (_, calls, bytes) = counted(|| replay_profile(&profile, t3e, p, layout));
        println!(
            "replay P = {p:>4} {:<10} {calls:>3} allocations {bytes:>6} bytes",
            layout.to_string()
        );
        rows.push((p, layout, calls, bytes));
    }
    let (_, _, calls, bytes) = rows[0];
    for (p, layout, c, b) in rows {
        assert_eq!(
            (c, b),
            (calls, bytes),
            "P = {p} {layout}: allocations grow with P or the layout"
        );
    }
}

#[test]
fn a_charged_graph_executes_again_without_allocating() {
    let profile = profile();
    let t3e = MachineProfile::t3e();
    for (p, layout) in cases() {
        let plans = HourPlans::shared(&profile.shape, p, PlanLayouts::chem(layout));
        let graph = PhaseGraph::for_hour(&profile.hours[0], &plans, p);
        let mut machine = Machine::new(t3e, p);
        graph.execute(&mut machine);
        let (_, calls, bytes) = counted(|| graph.execute(&mut machine));
        assert_eq!(
            (calls, bytes),
            (0, 0),
            "P = {p} {layout}: charging the graph again allocated"
        );
    }
}
