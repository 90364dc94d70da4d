//! The allocation gate of the surrogate tier.
//!
//! A surrogate hit evaluates the response surface in one pass collected
//! into the answer, so a hit through `ScenarioServer::what_if` makes one
//! allocation: the answered field, `cells × 8` bytes. A fit eliminates
//! the normal matrix its cells share once and solves each cell on the
//! stack, so what a fit allocates — the scales, its coefficient rows,
//! the residual pass's predictions — is a count of calls that does not
//! grow with the cells. The counting allocator below counts this
//! thread's allocation calls and bytes, so tests running side by side
//! (and the server's worker threads) do not see each other's.
//!
//! `cargo test --release -p airshed-core --test surrogate_allocations --
//! --nocapture` prints the table.

use airshed_core::config::{DatasetChoice, SimConfig};
use airshed_core::ensemble::EnsembleJob;
use airshed_core::surrogate::ResponseSurface;
use airshed_core::ExecSpec;
use airshed_server::{EnsembleOutcome, ScenarioServer, ServerConfig, WhatIfRouted};
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

/// The `ensemble_whatif` benchmark's sweep scales.
const SWEEP: [f64; 6] = [0.5, 0.7, 0.9, 1.1, 1.3, 1.5];

#[test]
fn a_surrogate_hit_allocates_only_its_answer() {
    let server = ScenarioServer::start(ServerConfig {
        workers: 1,
        exec: ExecSpec::serial(),
        ..ServerConfig::default()
    });
    let mut base = SimConfig::test_tiny(16, 1);
    base.dataset = DatasetChoice::Tiny(60);
    base.start_hour = 5;
    let job = EnsembleJob::emission_sweep(base.clone(), &SWEEP);
    let EnsembleOutcome::Completed(result) = server.run_ensemble(&job, true) else {
        panic!("the sweep was rejected");
    };
    let cells = result.members[0].surface().len() as u64;
    // The first query pages in whatever is lazily set up.
    server.what_if(&base, 1.0, 1e-3);
    for scale in [0.55, 1.0, 1.45] {
        let (routed, calls, bytes) = counted(|| server.what_if(&base, scale, 1e-3));
        println!("hit at {scale:<4} {calls} allocation {bytes:>5} bytes ({cells} cells)");
        let hit = matches!(&routed, WhatIfRouted::Answered(o) if o.is_surrogate());
        assert!(hit, "an in-range query at {scale} missed the surrogate");
        assert_eq!(
            (calls, bytes),
            (1, cells * 8),
            "a hit at {scale} allocated more than its answer"
        );
    }
    server.shutdown();
}

#[test]
fn a_fit_allocates_the_same_at_every_cell_count() {
    let mut rows = Vec::new();
    for cells in [1, 7, 232, 4096] {
        let fields: Vec<Vec<f64>> = SWEEP
            .iter()
            .map(|&s| (0..cells).map(|c| (1.0 + c as f64) * s * s - s).collect())
            .collect();
        let (fit, calls, bytes) = counted(|| ResponseSurface::fit(&SWEEP, &fields));
        assert_eq!(fit.expect("distinct scales fit").cells(), cells);
        println!("fit {cells:>4} cells {calls:>3} allocations {bytes:>7} bytes");
        rows.push((cells, calls));
    }
    let (_, calls) = rows[0];
    for (cells, c) in rows {
        assert_eq!(
            c, calls,
            "{cells} cells: a fit's allocations grow with the cells"
        );
    }
}
