//! The process-wide plan memo behind `HourPlans::shared`: it answers
//! exactly what a fresh planning would, once per key, within its bound.
//!
//! The memo is one per process, so the tests of this file (its own test
//! binary) take turns.

use airshed_core::driver::{HourPlans, PlanLayouts, PLAN_MEMO_ENTRIES, WORD};
use airshed_core::plan::optimize::candidate_layouts;
use airshed_hpf::redist::airshed_redists;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `[species, layers, columns]` of LA, NE and `tiny:80`, as `airshed
/// gridinfo` prints them.
const SHAPES: [[usize; 3]; 3] = [[35, 5, 702], [35, 5, 3336], [35, 5, 80]];

#[test]
fn shared_equals_fresh_planning_for_every_candidate_placement() {
    let _turn = my_turn();
    let mut sets = 0;
    for shape in SHAPES {
        for p in 1..=130 {
            for &transport in &candidate_layouts(shape[1], p) {
                for &chemistry in &candidate_layouts(shape[2], p) {
                    let layouts = PlanLayouts::new(transport, chemistry);
                    let shared = HourPlans::shared(&shape, p, layouts);
                    assert_eq!(
                        *shared,
                        HourPlans::with_layouts(&shape, p, layouts),
                        "{shape:?} p={p} {layouts}"
                    );
                    sets += 1;
                }
            }
        }
    }
    // Far more keys than the memo holds: eviction was exercised.
    assert!(sets > 4 * PLAN_MEMO_ENTRIES, "{sets} plan sets compared");
    assert!(HourPlans::memo_stats().entries <= PLAN_MEMO_ENTRIES as u64);
}

#[test]
fn second_lookup_is_the_same_allocation_and_a_hit() {
    let _turn = my_turn();
    let shape = [9, 4, 123];
    let before = HourPlans::memo_stats();
    let first = HourPlans::shared(&shape, 7, PlanLayouts::default());
    let second = HourPlans::shared(&shape, 7, PlanLayouts::default());
    assert!(Arc::ptr_eq(&first, &second));
    // The default set is the paper's three plans, as hpf plans them.
    assert_eq!(first.main, airshed_redists(&shape, 7, WORD));
    let after = HourPlans::memo_stats();
    assert_eq!(after.misses - before.misses, 1);
    assert_eq!(after.hits - before.hits, 1);
    // Another P is another key.
    let other = HourPlans::shared(&shape, 8, PlanLayouts::default());
    assert!(!Arc::ptr_eq(&first, &other));
    assert_eq!(HourPlans::memo_stats().misses - before.misses, 2);
}

#[test]
fn threads_racing_one_cold_key_leave_one_entry() {
    let _turn = my_turn();
    let shape = [11, 5, 977];
    let entries_before = HourPlans::memo_stats().entries;
    let barrier = Barrier::new(8);
    let got: Vec<Arc<HourPlans>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    HourPlans::shared(&shape, 33, PlanLayouts::default())
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer"))
            .collect()
    });
    // Whoever planned, everyone holds the one resident set.
    let resident = HourPlans::shared(&shape, 33, PlanLayouts::default());
    for plans in &got {
        assert!(Arc::ptr_eq(plans, &resident));
    }
    let entries_after = HourPlans::memo_stats().entries;
    assert!(
        entries_after <= (entries_before + 1).min(PLAN_MEMO_ENTRIES as u64),
        "{entries_before} -> {entries_after}"
    );
}

#[test]
fn filling_past_the_bound_neither_grows_nor_changes_an_answer() {
    let _turn = my_turn();
    let shape = [3, 5, 200];
    let keep = HourPlans::shared(&shape, 5, PlanLayouts::default());
    let expect = HourPlans::new(&shape, 5);
    for p in 1..=2 * PLAN_MEMO_ENTRIES {
        let plans = HourPlans::shared(&shape, p, PlanLayouts::default());
        assert_eq!(plans.main.chem_to_repl.loads.len(), p);
        assert!(HourPlans::memo_stats().entries <= PLAN_MEMO_ENTRIES as u64);
    }
    assert_eq!(
        HourPlans::memo_stats().entries,
        PLAN_MEMO_ENTRIES as u64,
        "a full memo stays full"
    );
    // The first key was evicted long ago; its holder is untouched and a
    // new lookup plans the same set again.
    assert_eq!(*keep, expect);
    let again = HourPlans::shared(&shape, 5, PlanLayouts::default());
    assert!(!Arc::ptr_eq(&keep, &again));
    assert_eq!(*again, expect);
}
