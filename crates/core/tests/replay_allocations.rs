//! The allocation gate of a profile replay.
//!
//! A replay prices a cached profile with arithmetic: a [`Placement`]
//! borrows the plan set and folds each distributed node's items in place
//! into one vector of heaviest-node units, and its machine half is the
//! one charge loop walking the node order, collecting nothing. So what
//! building a placement allocates (that vector) does not depend on the
//! node count or the layout; a replay from a built placement allocates
//! only the machine's comm log and the report, the same at every P,
//! layout and machine; and charging a live hour, or the benchmark's
//! `PhaseGraph` a second time, allocates nothing at all. A placement
//! keeps that vector and no plan set, so what it holds does not grow
//! with P either. The counting allocator below counts this thread's
//! allocation calls and bytes, and the bytes it still holds, so tests
//! running side by side do not see each other's.
//!
//! `cargo test --release -p airshed-core --test replay_allocations --
//! --nocapture` prints the table.

use airshed_core::driver::{charge_hour, HourPlans, PlanLayouts};
use airshed_core::plan::{replay_profile, ItemLayout, PhaseGraph, Placement};
use airshed_core::profile::{HourProfile, StepProfile, WorkProfile};
use airshed_machine::{Machine, MachineProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn account(bytes: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

fn hold(bytes: isize) {
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size());
        hold(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size);
        hold(new_size as isize - layout.size() as isize);
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

/// `f()`'s result with the bytes this thread still holds after
/// computing it that it did not before.
fn kept<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let live = LIVE.with(Cell::get);
    let r = f();
    (r, LIVE.with(Cell::get) - live)
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

/// A live hour's charge walks the node order with nothing collected:
/// once the plan set is resident and the machine's comm log holds the
/// four edge labels, charging another hour allocates nothing at any P
/// and layout.
#[test]
fn a_live_hour_charges_without_allocating() {
    let profile = profile();
    let t3e = MachineProfile::t3e();
    for (p, layout) in cases() {
        let plans = HourPlans::shared(&profile.shape, p, PlanLayouts::chem(layout));
        let mut machine = Machine::new(t3e, p);
        charge_hour(&mut machine, &profile.hours[0], &plans);
        let (_, calls, bytes) = counted(|| charge_hour(&mut machine, &profile.hours[1], &plans));
        println!(
            "live   P = {p:>4} {:<10} {calls:>3} allocations {bytes:>6} bytes",
            layout.to_string()
        );
        assert_eq!(
            (calls, bytes),
            (0, 0),
            "P = {p} {layout}: charging a live hour allocated"
        );
    }
}

#[test]
fn a_placement_folds_alike_and_replays_only_its_report() {
    let profile = profile();
    let mut folds = Vec::new();
    let mut replays = Vec::new();
    for (p, layout) in cases() {
        let layouts = PlanLayouts::chem(layout);
        // Warm the plan memo outside the count.
        HourPlans::shared(&profile.shape, p, layouts);
        let (placement, calls, bytes) = counted(|| Placement::of(&profile, p, layouts));
        println!(
            "fold   P = {p:>4} {:<10} {calls:>3} allocations {bytes:>6} bytes",
            layout.to_string()
        );
        folds.push((p, layout, calls, bytes));
        for machine in MachineProfile::paper_machines() {
            let (report, calls, bytes) = counted(|| placement.replay(&profile, machine));
            // What cloning the report allocates, so the machine's name
            // (which differs per machine) is accounted for.
            let (_, report_calls, report_bytes) = counted(|| report.clone());
            println!(
                "replay P = {p:>4} {:<10} {:<13} {calls:>3} allocations {bytes:>6} bytes \
                 (report {report_calls} / {report_bytes})",
                layout.to_string(),
                machine.name
            );
            replays.push((p, layout, calls - report_calls, bytes - report_bytes));
        }
    }
    let (_, _, calls, bytes) = folds[0];
    assert_eq!(calls, 1, "a fold allocates its units and nothing else");
    for (p, layout, c, b) in folds {
        assert_eq!(
            (c, b),
            (calls, bytes),
            "P = {p} {layout}: a fold's allocations grow with P or the layout"
        );
    }
    // Beyond its report, a replay allocates the machine's comm log: one
    // vector, the same everywhere.
    let (_, _, calls, bytes) = replays[0];
    assert_eq!(
        calls, 1,
        "a replay allocates more than its report and books"
    );
    for (p, layout, c, b) in replays {
        assert_eq!(
            (c, b),
            (calls, bytes),
            "P = {p} {layout}: a replay allocates beyond its report and books"
        );
    }
}

/// A placement keeps its units and no plan set, so what a memo of
/// placements holds does not grow with P — also above the plan memo's
/// largest P, where a plan set is planned per call and dropped after it.
#[test]
fn a_placement_keeps_no_plan_set() {
    let profile = profile();
    let layouts = PlanLayouts::default();
    let distributed: usize = profile.hours.iter().map(|hp| 3 * hp.steps.len()).sum();
    let units = (distributed * std::mem::size_of::<f64>()) as i64;
    let mut replays = Vec::new();
    for p in [2, 64, 2048, 8192] {
        // Warm the plan memo outside the count (it keeps no set above
        // its largest P).
        HourPlans::shared(&profile.shape, p, layouts);
        let (placement, fold) = kept(|| Placement::of(&profile, p, layouts));
        let (report, replay) = kept(|| placement.replay(&profile, MachineProfile::t3e()));
        println!("keep   P = {p:>4} fold {fold:>4} bytes, replay {replay:>4} bytes (its report)");
        assert_eq!(
            fold, units,
            "P = {p}: a placement keeps more than its units"
        );
        replays.push((p, replay));
        drop(report);
    }
    let (_, replay) = replays[0];
    for (p, r) in replays {
        assert_eq!(r, replay, "P = {p}: a replay keeps more than its report");
    }
}
