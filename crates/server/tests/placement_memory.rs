//! A server's placement memo pins no plan set. Above the plan memo's
//! largest `P` a plan set is planned for each charge and dropped after
//! it, so jobs there leave their placements (a few units each) and their
//! reports resident, never the `O(P)` sets they were charged through.
//!
//! The counting allocator below counts the whole process's live bytes,
//! which is why this test has a binary of its own.

use airshed_core::config::SimConfig;
use airshed_core::ExecSpec;
use airshed_machine::NodeCommLoad;
use airshed_server::{ScenarioRequest, ScenarioServer, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct Counting;

/// Bytes allocated minus bytes freed, over every thread.
static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping is one
// atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn large_p_jobs_leave_no_plan_set_resident() {
    const P: usize = 4096;
    const JOBS: usize = 8;
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        exec: ExecSpec::serial(),
        ..Default::default()
    });
    let run = |p: usize| {
        let mut config = SimConfig::test_tiny(p, 1);
        config.start_hour = 12;
        let handle = server
            .submit(ScenarioRequest::new(config))
            .into_handle()
            .expect("accepted");
        handle.wait().expect("completed");
    };
    // Runs the numerics and warms the server's books; the jobs after it
    // are replays, each a placement the memo has not seen.
    run(P);
    let before = LIVE.load(Ordering::Relaxed);
    for k in 1..=JOBS {
        run(P + k);
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(server.metrics().placement_entries, 1 + JOBS as i64);
    // One plan set at these P is four load vectors of P nodes; the jobs
    // between them hold less than one.
    let plan_set = (4 * P * std::mem::size_of::<NodeCommLoad>()) as i64;
    println!("{JOBS} placements at P > {P}: {held} bytes held, a plan set {plan_set}");
    assert!(
        held < plan_set,
        "{JOBS} jobs at P > {P} left {held} bytes resident, a plan set is {plan_set}"
    );
    server.shutdown();
}
