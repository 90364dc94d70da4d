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
//! An `ExecSpec` is a [`BackendKind`] plus a thread count; three kinds
//! exist:
//!
//! * [`BackendKind::Serial`] — every partition runs inline on the
//!   caller's thread, in partition order. The baseline, and the
//!   reference for bit-identity.
//! * [`BackendKind::Rayon`] — a fork–join worker pool (the rayon model:
//!   scoped workers pulling tasks from a shared queue; the crate itself
//!   is not a dependency — the pool is `airshed_hpf::host::run_parts`).
//! * [`BackendKind::Simd`] — the same fork–join pool and the same
//!   kernels, with one difference: the chemistry's lanes use fused
//!   multiply-adds where the CPU has them (`airshed_chem::simd`).
//!   Thread-level and lane-level parallelism compose on *every* backend:
//!   partitions across the pool, and inside a partition four cells
//!   (chemistry), four columns (vertical solve) or four species
//!   (transport) across `F64x4` lanes, each lane doing the scalar
//!   arithmetic.
//!
//! Determinism contract: backends only control *where* a partition
//! runs, never how results merge. Kernels write into per-item or
//! per-partition slots and the caller reduces sequentially in item
//! order afterwards, and no lane's result depends on what its
//! neighbours hold, so `Serial` and `Rayon` at any thread count produce
//! bit-identical states and work profiles (pinned by the
//! `backend_determinism` suite). `Simd` is *epsilon-bounded* against
//! them (fused rounding in the chemistry kinetics: ≤ 1e-9 relative after
//! one chemistry step, ≤ 1e-5 on an episode, where transport's stopping
//! test amplifies it; every other kernel is serial's) and bit-identical
//! to itself at any thread count. The equivalence suite pins both sides
//! of that contract.

use airshed_hpf::host;

/// Which executor runs partitioned phase work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Inline, single-threaded, partition order.
    Serial,
    /// Fork–join worker pool on host threads.
    #[default]
    Rayon,
    /// Pool scheduling, fused multiply-adds in the chemistry lanes.
    Simd,
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<BackendKind, String> {
        match s {
            "serial" => Ok(BackendKind::Serial),
            "rayon" => Ok(BackendKind::Rayon),
            "simd" => Ok(BackendKind::Simd),
            other => Err(format!("unknown backend '{other}' (serial|rayon|simd)")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Serial => write!(f, "serial"),
            BackendKind::Rayon => write!(f, "rayon"),
            BackendKind::Simd => write!(f, "simd"),
        }
    }
}

/// A fully resolved execution choice: backend kind plus thread count.
/// The default is the rayon pool over every available host core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSpec {
    /// Which executor runs the work.
    pub kind: BackendKind,
    /// Worker threads for the pool backend; ignored (treated as 1) by
    /// the serial backend.
    pub threads: usize,
}

impl Default for ExecSpec {
    fn default() -> ExecSpec {
        ExecSpec::rayon(host::available_threads())
    }
}

impl ExecSpec {
    /// The inline single-threaded executor.
    pub fn serial() -> ExecSpec {
        ExecSpec {
            kind: BackendKind::Serial,
            threads: 1,
        }
    }

    /// The fork–join pool executor with `threads` workers (min 1).
    pub fn rayon(threads: usize) -> ExecSpec {
        ExecSpec {
            kind: BackendKind::Rayon,
            threads: threads.max(1),
        }
    }

    /// The fused executor: pool scheduling over `threads` workers (min 1)
    /// with fused multiply-adds in the chemistry lanes.
    pub fn simd(threads: usize) -> ExecSpec {
        ExecSpec {
            kind: BackendKind::Simd,
            threads: threads.max(1),
        }
    }

    /// Build a spec from CLI-ish inputs: optional kind (default rayon)
    /// and optional thread count (default all host cores).
    pub fn resolve(kind: Option<BackendKind>, threads: Option<usize>) -> ExecSpec {
        let kind = kind.unwrap_or_default();
        match kind {
            BackendKind::Serial => ExecSpec::serial(),
            BackendKind::Rayon => ExecSpec::rayon(threads.unwrap_or_else(host::available_threads)),
            BackendKind::Simd => ExecSpec::simd(threads.unwrap_or_else(host::available_threads)),
        }
    }

    /// How many partitions a phase should cut its items into, and how
    /// many host threads [`run_observed`](ExecSpec::run_observed) gives
    /// them.
    pub fn parallelism(&self) -> usize {
        match self.kind {
            BackendKind::Serial => 1,
            BackendKind::Rayon | BackendKind::Simd => self.threads.max(1),
        }
    }

    /// Whether the chemistry's lanes may fuse their multiply-adds — the
    /// one thing a kernel may ask the backend.
    pub fn fused(&self) -> bool {
        self.kind == BackendKind::Simd
    }

    /// Human-readable form for run reports and logs, e.g. `rayon(8)`.
    pub fn describe(&self) -> String {
        match self.kind {
            BackendKind::Serial => "serial".to_string(),
            BackendKind::Rayon => format!("rayon({})", self.threads),
            BackendKind::Simd => format!("simd({})", self.threads),
        }
    }

    /// Run one fork of partition tasks on the chosen backend.
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
    fn kind_parses_and_prints() {
        assert_eq!(
            "serial".parse::<BackendKind>().unwrap(),
            BackendKind::Serial
        );
        assert_eq!("rayon".parse::<BackendKind>().unwrap(), BackendKind::Rayon);
        assert_eq!("simd".parse::<BackendKind>().unwrap(), BackendKind::Simd);
        assert!("omp".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Rayon.to_string(), "rayon");
        assert_eq!(BackendKind::Simd.to_string(), "simd");
    }

    #[test]
    fn default_spec_is_rayon_all_cores() {
        let spec = ExecSpec::default();
        assert_eq!(spec.kind, BackendKind::Rayon);
        assert!(spec.threads >= 1);
    }

    #[test]
    fn resolve_honors_explicit_choices() {
        let s = ExecSpec::resolve(Some(BackendKind::Serial), Some(7));
        assert_eq!(s, ExecSpec::serial());
        assert_eq!(s.parallelism(), 1);
        let r = ExecSpec::resolve(Some(BackendKind::Rayon), Some(3));
        assert_eq!(r.threads, 3);
        assert_eq!(r.parallelism(), 3);
        assert_eq!(r.describe(), "rayon(3)");
        let v = ExecSpec::resolve(Some(BackendKind::Simd), Some(2));
        assert_eq!(v, ExecSpec::simd(2));
        assert_eq!(v.parallelism(), 2);
        assert!(v.fused());
        assert_eq!(v.describe(), "simd(2)");
        assert!(!r.fused() && !s.fused());
    }

    #[test]
    fn both_backends_complete_all_tasks() {
        for spec in [ExecSpec::serial(), ExecSpec::rayon(4), ExecSpec::simd(4)] {
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
