//! Host-side shared-memory execution: a fork–join worker pool over
//! scoped OS threads.
//!
//! The rest of this crate models the *virtual* Fx/HPF machine — it
//! charges communication and compute to a clock without running
//! anything concurrently. This module is the real counterpart: it takes
//! the per-node partitions an HPF distribution implies and runs them on
//! actual host cores. Tasks are pulled from a shared queue (dynamic
//! self-scheduling, like HPF's `CYCLIC` guided loops) so uneven
//! partitions — the paper's urban/rural chemistry imbalance — do not
//! leave workers idle.
//!
//! The pool is allocation-light by design: one `Vec` of boxed tasks per
//! fork, no channels, no long-lived threads. Scoped spawning lets tasks
//! borrow the caller's buffers (`&mut` slices of the concentration
//! array), which is what keeps the hot kernels allocation-free.

use std::sync::Mutex;
use std::time::Instant;

/// A unit of work handed to the pool. Boxed so heterogeneous captures
/// can share one queue; `'scope` lets it borrow caller data.
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Observer for pool task execution, implemented by the observability
/// layer upstream (this crate cannot depend on `airshed-core`, so the
/// hook is defined here and adapted there).
///
/// `task` is called once per completed task with the worker index that
/// ran it, the task's position in the submission order, and the
/// wall-clock start/end instants. Implementations must be cheap and
/// thread-safe: calls arrive concurrently from every worker.
///
/// ```
/// use airshed_hpf::host::{run_parts_observed, PoolObserver, Task};
/// use std::sync::Mutex;
/// use std::time::Instant;
///
/// struct Count(Mutex<usize>);
/// impl PoolObserver for Count {
///     fn task(&self, _w: usize, _seq: usize, _s: Instant, _e: Instant) {
///         *self.0.lock().unwrap() += 1;
///     }
/// }
///
/// let seen = Count(Mutex::new(0));
/// let tasks: Vec<Task> = (0..5).map(|_| Box::new(|| {}) as Task).collect();
/// run_parts_observed(2, tasks, Some(&seen));
/// assert_eq!(*seen.0.lock().unwrap(), 5);
/// ```
pub trait PoolObserver: Sync {
    fn task(&self, worker: usize, seq: usize, start: Instant, end: Instant);
}

/// Run `tasks` to completion on up to `threads` worker threads.
///
/// With `threads <= 1` (or a single task) everything runs inline on the
/// caller's thread in queue order — the serial path has zero spawn
/// overhead, so a 1-thread pool is exactly the serial executor.
///
/// Workers pull tasks one at a time from a shared queue, so scheduling
/// is dynamic: a worker that drew a cheap task comes back for more.
/// Nothing about *results* is ordered — callers that need deterministic
/// reductions must write into per-task slots and reduce sequentially
/// after this returns (see `airshed-core`'s backend layer).
///
/// Panics in a task propagate to the caller when the scope joins.
pub fn run_parts(threads: usize, tasks: Vec<Task<'_>>) {
    run_parts_observed(threads, tasks, None);
}

/// [`run_parts`] with an optional [`PoolObserver`] reporting each task's
/// worker, queue position, and wall-clock interval.
///
/// With `observer == None` this is exactly `run_parts` — no clock reads,
/// no extra bookkeeping — so the unobserved path stays zero-cost.
/// Observation never changes scheduling or result order: the observer is
/// invoked after a task completes, outside the queue lock.
pub fn run_parts_observed(
    threads: usize,
    tasks: Vec<Task<'_>>,
    observer: Option<&dyn PoolObserver>,
) {
    let workers = threads.min(tasks.len());
    if workers <= 1 {
        for (seq, task) in tasks.into_iter().enumerate() {
            match observer {
                None => task(),
                Some(obs) => {
                    let start = Instant::now();
                    task();
                    obs.task(0, seq, start, Instant::now());
                }
            }
        }
        return;
    }
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let queue = &queue;
    std::thread::scope(|scope| {
        for worker in 0..workers {
            scope.spawn(move || loop {
                // Hold the lock only while drawing, never while running.
                let task = queue.lock().unwrap().next();
                match task {
                    Some((seq, task)) => match observer {
                        None => task(),
                        Some(obs) => {
                            let start = Instant::now();
                            task();
                            obs.task(worker, seq, start, Instant::now());
                        }
                    },
                    None => break,
                }
            });
        }
    });
}

/// Number of host cores available to a pool, always at least 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        for threads in [1usize, 2, 4, 9] {
            let hits = AtomicUsize::new(0);
            let tasks: Vec<Task> = (0..23)
                .map(|_| {
                    Box::new(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as Task
                })
                .collect();
            run_parts(threads, tasks);
            assert_eq!(hits.load(Ordering::Relaxed), 23, "threads={threads}");
        }
    }

    #[test]
    fn tasks_can_borrow_disjoint_caller_slices() {
        let mut data = vec![0u64; 64];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(16).collect();
        let tasks: Vec<Task> = chunks
            .into_iter()
            .enumerate()
            .map(|(k, chunk)| {
                Box::new(move || {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = (k * 100 + i) as u64;
                    }
                }) as Task
            })
            .collect();
        run_parts(4, tasks);
        assert_eq!(data[0], 0);
        assert_eq!(data[17], 101);
        assert_eq!(data[63], 315);
    }

    #[test]
    fn empty_queue_is_fine() {
        run_parts(8, Vec::new());
    }

    #[test]
    fn observer_sees_every_task_once_with_valid_workers() {
        struct Rec(Mutex<Vec<(usize, usize)>>);
        impl PoolObserver for Rec {
            fn task(&self, worker: usize, seq: usize, start: Instant, end: Instant) {
                assert!(end >= start);
                self.0.lock().unwrap().push((worker, seq));
            }
        }
        for threads in [1usize, 3] {
            let rec = Rec(Mutex::new(Vec::new()));
            let tasks: Vec<Task> = (0..17).map(|_| Box::new(|| {}) as Task).collect();
            run_parts_observed(threads, tasks, Some(&rec));
            let mut seen = rec.0.into_inner().unwrap();
            assert!(seen.iter().all(|&(w, _)| w < threads));
            seen.sort_by_key(|&(_, seq)| seq);
            let seqs: Vec<usize> = seen.iter().map(|&(_, seq)| seq).collect();
            assert_eq!(seqs, (0..17).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn serial_path_preserves_queue_order() {
        let mut order = Vec::new();
        let cell = std::sync::Mutex::new(&mut order);
        let cell = &cell;
        let tasks: Vec<Task> = (0..5)
            .map(|i| {
                Box::new(move || {
                    cell.lock().unwrap().push(i);
                }) as Task
            })
            .collect();
        run_parts(1, tasks);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
