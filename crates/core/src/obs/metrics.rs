//! Metric primitives — counters, gauges, latency histograms — and the
//! one table every exported metric is declared in.
//!
//! The primitives are the concurrent building blocks every subsystem
//! reports through. They are deliberately tiny — plain relaxed atomics —
//! so a disabled observability layer costs nothing and an enabled one
//! costs one uncontended atomic RMW per event.
//!
//! [`metrics!`](crate::metrics) declares each exported metric once, as a
//! row under its Prometheus family; [`super::prom::render`] writes the
//! resulting [`Family`] tables.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two microsecond buckets in a histogram. Bucket `i`
/// covers `[2^i, 2^{i+1})` µs; bucket 0 also absorbs sub-microsecond
/// samples, the last bucket absorbs everything above ~35 minutes.
pub const BUCKETS: usize = 32;

/// A monotonically increasing event counter.
///
/// ```
/// use airshed_core::obs::metrics::Counter;
/// let c = Counter::new();
/// c.inc();
/// c.add(2);
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous-value gauge (queue depth, jobs in flight).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Set to `n`.
    pub fn set(&self, n: i64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A concurrent latency histogram with power-of-two microsecond buckets.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&self, sample: Duration) {
        let micros = sample.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - micros.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            max_micros: self.max_micros.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub total_micros: u64,
    pub max_micros: u64,
}

impl HistogramSnapshot {
    /// Mean sample in microseconds.
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }

    /// Upper bound (µs) of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`). Bucket resolution, so at most 2x off.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_micros
    }
}

/// An atomic a registry holds, and the plain value its snapshot copies.
pub trait Instrument: Default {
    type Snapshot;
    fn snapshot(&self) -> Self::Snapshot;
}

macro_rules! instrument {
    ($($t:ty => $snap:ty, $get:ident);*) => {$(
        impl Instrument for $t {
            type Snapshot = $snap;
            fn snapshot(&self) -> $snap {
                self.$get()
            }
        }
    )*};
}
instrument!(Counter => u64, get; Gauge => i64, get; Histogram => HistogramSnapshot, snapshot);

/// What one row of a metrics table reads: a sample value, or a
/// histogram rendered as its `_bucket`/`_sum`/`_count` series.
pub enum Reading {
    Value(f64),
    Histogram(Box<HistogramSnapshot>),
}

/// A value a metrics row can read (a `bool` reads as 1 or 0).
pub trait Readable {
    fn reading(&self) -> Reading;
}

macro_rules! readable {
    ($($t:ty: |$v:ident| $read:expr;)*) => {$(
        impl Readable for $t {
            fn reading(&self) -> Reading {
                let $v = self;
                $read
            }
        }
    )*};
}
readable! {
    u64: |v| Reading::Value(*v as f64);
    i64: |v| Reading::Value(*v as f64);
    usize: |v| Reading::Value(*v as f64);
    f64: |v| Reading::Value(*v);
    bool: |v| Reading::Value(f64::from(u8::from(*v)));
    HistogramSnapshot: |v| Reading::Histogram(Box::new(v.clone()));
    Histogram: |v| Reading::Histogram(Box::new(v.snapshot()));
}

/// One exported family: its name, Prometheus type and help text, and
/// the rows of `T` it renders, in order.
pub struct Family<T: ?Sized + 'static> {
    pub name: &'static str,
    pub kind: &'static str,
    pub help: &'static str,
    pub rows: &'static [Row<T>],
}

/// One sample (or histogram) of a family: its fixed labels and the
/// value of `T` it reads.
pub struct Row<T: ?Sized> {
    pub labels: &'static [(&'static str, &'static str)],
    pub read: fn(&T) -> Reading,
}

/// The Prometheus type named by a `metrics!` family, checked when the
/// table is compiled.
pub const fn kind(name: &'static str) -> &'static str {
    match name.as_bytes() {
        b"counter" | b"gauge" | b"histogram" => name,
        _ => panic!("a metrics family is a counter, gauge or histogram"),
    }
}

/// Declare exported metrics once: each row names the field it reads,
/// under the family (`kind "name" "help"`) it is exported in, with its
/// fixed labels. Families render in declaration order, one `# HELP` /
/// `# TYPE` each, then their rows.
///
/// `const TABLE: [T] = { families };` makes the [`Family`] table of an
/// existing type `T`, each row a field path (`stats.groups`). The
/// registry form below also declares each row's instrument (`Counter`,
/// `Gauge` or `Histogram`) and generates the registry of atomics, its
/// snapshot (same field names, holding `u64`, `i64`, `HistogramSnapshot`
/// and the fields sampled when it is taken), `new()`, `snapshot()` and
/// the snapshot's `FAMILIES`:
///
/// ```
/// use airshed_core::obs::metrics::Counter;
///
/// airshed_core::metrics! {
///     pub struct Jobs;
///     pub struct JobsSnapshot {
///         pub limit: u64 = 8,
///     }
///     counter "jobs_total" "Jobs by outcome." {
///         done: Counter {outcome = "done"},
///         failed: Counter {outcome = "failed"},
///     }
///     gauge "jobs_limit" "Configured job limit." { limit }
/// }
/// let jobs = Jobs::new();
/// jobs.done.add(2);
/// let snap = jobs.snapshot();
/// assert_eq!((snap.done, snap.failed, snap.limit), (2, 0, 8));
/// let text = airshed_core::obs::prom::render(JobsSnapshot::FAMILIES, &snap);
/// assert!(text.contains("jobs_total{outcome=\"done\"} 2\njobs_total{outcome=\"failed\"} 0"));
/// ```
#[macro_export]
macro_rules! metrics {
    (
        $(#[$rmeta:meta])* $rvis:vis struct $reg:ident;
        $(#[$smeta:meta])* $svis:vis struct $snap:ident {
            $($(#[$fmeta:meta])* $fvis:vis $sf:ident: $sty:ty = $sexpr:expr),* $(,)?
        }
        $($kind:ident $name:literal $help:literal {
            $($field:ident $(.$sub:ident)* $(: $ty:ident)?
                $({ $($k:ident = $v:literal),* $(,)? })?),* $(,)?
        })*
    ) => {
        $(#[$rmeta])*
        #[derive(Default)]
        $rvis struct $reg {
            $($($(#[doc = $help] pub $field: $ty,)?)*)*
        }

        $(#[$smeta])*
        $svis struct $snap {
            $($($(
                #[doc = $help]
                pub $field: <$ty as $crate::obs::metrics::Instrument>::Snapshot,
            )?)*)*
            $($(#[$fmeta])* $fvis $sf: $sty,)*
        }

        impl $reg {
            pub fn new() -> $reg {
                $reg::default()
            }

            /// A point-in-time copy of every instrument (and of each
            /// sampled field).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $($($(
                        $field: <$ty as $crate::obs::metrics::Instrument>::snapshot(&self.$field),
                    )?)*)*
                    $($sf: $sexpr,)*
                }
            }
        }

        impl $snap {
            $crate::metrics! {
                /// Every exported family of this snapshot, in exposition order.
                pub const FAMILIES: [$snap] = {
                    $($kind $name $help {
                        $($field $(.$sub)* $({ $($k = $v),* })?),*
                    })*
                };
            }
        }
    };
    ($(
        $(#[$meta:meta])* $vis:vis const $table:ident: [$ty:ty] = {
            $($kind:ident $name:literal $help:literal {
                $($field:ident $(.$sub:ident)* $({ $($k:ident = $v:literal),* $(,)? })?),* $(,)?
            })*
        };
    )+) => {$(
        $(#[$meta])*
        $vis const $table: &[$crate::obs::metrics::Family<$ty>] = &[$(
            $crate::obs::metrics::Family {
                name: $name,
                kind: $crate::obs::metrics::kind(stringify!($kind)),
                help: $help,
                rows: &[$($crate::obs::metrics::Row {
                    labels: &[$($((stringify!($k), $v)),*)?],
                    read: |s: &$ty| $crate::obs::metrics::Readable::reading(&s.$field $(.$sub)*),
                }),*],
            }
        ),*];
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for micros in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max_micros, 100_000);
        assert_eq!(s.total_micros, 101_106);
        // p50 of {1,2,3,100,1000,100000}: third sample, bucket of 3 µs
        // is [2,4) so the reported upper bound is 4.
        assert_eq!(s.quantile_micros(0.5), 4);
        assert!(s.quantile_micros(1.0) >= 100_000);
        assert_eq!(s.quantile_micros(0.0), s.quantile_micros(1e-9));
    }

    #[test]
    fn zero_duration_lands_in_first_bucket() {
        let h = Histogram::new();
        h.record(Duration::ZERO);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.mean_micros(), 0.0);
    }
}
