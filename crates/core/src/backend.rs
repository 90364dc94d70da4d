//! Execution backends: lowering [`crate::plan`] partitions onto real
//! host threads.
//!
//! The plan IR describes *what* each phase distributes (chemistry per
//! grid column, transport per layer, aerosol per cell) and the virtual
//! machine charges that distribution to a modeled clock. An
//! [`ExecSpec`] is the physical counterpart: it takes the same
//! `ItemLayout` partitions and runs them on OS threads via the
//! shared-memory pool in `airshed_hpf::host`
//! ([`ExecSpec::run_observed`] is the one executor). (Transport's host
//! items are finer than its virtual ones — layer × four-species group —
//! because the species of a layer share one operator; the charges stay
//! per layer.)
//!
//! An `ExecSpec` is a thread count and nothing else. With one thread
//! every partition runs inline on the caller's thread, in partition
//! order ([`ExecSpec::serial`]); with more, a fork–join worker pool runs
//! them (the rayon model: scoped workers pulling tasks from a shared
//! queue; the crate itself is not a dependency — the pool is
//! `airshed_hpf::host::run_parts`). Thread-level and lane-level
//! parallelism compose: partitions across the pool, and inside a
//! partition eight cells (chemistry, on AVX-512; four elsewhere), four
//! columns (vertical solve) or four species (transport) across vector
//! lanes, each lane doing the scalar arithmetic.
//!
//! Determinism contract: the thread count only controls *where* a
//! partition runs, never how results merge and never the arithmetic.
//! Kernels write into per-item or per-partition slots and the caller
//! reduces sequentially in item order afterwards, no lane's result
//! depends on what its neighbours hold, and every kernel is made of
//! correctly rounded operations only (`airshed_chem::simd`), so any
//! thread count on any host produces bit-identical states and work
//! profiles (pinned by the `backend_determinism` suite).

use airshed_hpf::host;

/// How many host threads run partitioned phase work. The default is
/// every available host core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpec {
    /// Never zero: the constructors clamp.
    threads: usize,
}

impl Default for ExecSpec {
    fn default() -> ExecSpec {
        ExecSpec::rayon(host::available_threads())
    }
}

impl ExecSpec {
    /// One thread: every partition inline on the caller's.
    pub fn serial() -> ExecSpec {
        ExecSpec::rayon(1)
    }

    /// `threads` threads (min 1).
    pub fn rayon(threads: usize) -> ExecSpec {
        ExecSpec {
            threads: threads.max(1),
        }
    }

    /// [`ExecSpec::rayon`] under the name it had while the arithmetic
    /// was a backend's choice; kept, like `rayon` itself, until the
    /// benchmark follows (ROADMAP item 2).
    pub fn simd(threads: usize) -> ExecSpec {
        ExecSpec::rayon(threads)
    }

    /// How many partitions a phase should cut its items into, and how
    /// many host threads [`run_observed`](ExecSpec::run_observed) gives
    /// them.
    pub fn parallelism(&self) -> usize {
        self.threads
    }

    /// Human-readable form for run reports and logs: `serial` or
    /// `threads(8)`.
    pub fn describe(&self) -> String {
        match self.threads {
            1 => "serial".to_string(),
            n => format!("threads({n})"),
        }
    }

    /// Run one fork of partition tasks.
    ///
    /// ```
    /// use airshed_core::backend::ExecSpec;
    /// let mut out = [0u32; 4];
    /// let tasks = out
    ///     .iter_mut()
    ///     .enumerate()
    ///     .map(|(i, slot)| Box::new(move || *slot = i as u32) as airshed_hpf::host::Task)
    ///     .collect();
    /// ExecSpec::rayon(2).run(tasks);
    /// assert_eq!(out, [0, 1, 2, 3]);
    /// ```
    pub fn run<'scope>(&self, tasks: Vec<host::Task<'scope>>) {
        self.run_observed(tasks, None)
    }

    /// [`run`](ExecSpec::run) with an optional pool observer that is
    /// told each task's worker, queue position, and wall-clock
    /// interval (see [`airshed_hpf::host::PoolObserver`]). Passing
    /// `None` is exactly `run` — the unobserved path takes no clock
    /// reads. Observation never affects scheduling or merge order.
    pub fn run_observed<'scope>(
        &self,
        tasks: Vec<host::Task<'scope>>,
        observer: Option<&dyn host::PoolObserver>,
    ) {
        host::run_parts_observed(self.parallelism(), tasks, observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spec_is_a_thread_count_of_at_least_one() {
        assert!(ExecSpec::default().parallelism() >= 1);
        assert_eq!(ExecSpec::serial().parallelism(), 1);
        assert_eq!(ExecSpec::rayon(0), ExecSpec::serial());
        assert_eq!(ExecSpec::rayon(1).describe(), "serial");
        assert_eq!(ExecSpec::rayon(3).parallelism(), 3);
        assert_eq!(ExecSpec::simd(3), ExecSpec::rayon(3));
        assert_eq!(ExecSpec::simd(3).describe(), "threads(3)");
    }

    #[test]
    fn every_thread_count_completes_all_tasks() {
        for spec in [ExecSpec::serial(), ExecSpec::rayon(4)] {
            let mut out = vec![0usize; 8];
            let tasks: Vec<airshed_hpf::host::Task> = out
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = i + 1;
                    }) as airshed_hpf::host::Task
                })
                .collect();
            spec.run(tasks);
            assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        }
    }
}
