//! Sharded LRU caching for captured work profiles and finished reports.
//!
//! The paper's central observation — the numerics are deterministic and
//! independent of the machine and node count — is what makes the profile
//! cache correct: a [`airshed_core::WorkProfile`] captured for one
//! scenario can be replayed for *any* `(machine, P, layout)` variant of
//! the same numerics. The profile cache is therefore keyed by
//! [`NumericsKey`] (dataset, mode, hours — everything that determines the
//! physics) while the result cache is keyed by the full [`ResultKey`]
//! (numerics + machine profile + node count), so a repeat of the exact
//! same scenario skips even the replay.
//!
//! Profiles live in a [`ProfileStore`]: the LRU plus a **single-flight**
//! guard, so a numerics key is computed once wherever it lives. The
//! server's workers and the fabric's shard workers both go through
//! [`ProfileStore::get_or_run`]: the first caller of a cold key runs the
//! numerics, concurrent callers of the same key wait for that run
//! instead of repeating it, and everyone after replays the resident
//! profile.
//!
//! A job looks in the result cache, then the profile cache, then the
//! [`PlacementMemo`] (the machine-independent half of a replay, kept by
//! numerics, `P` and plan).
//!
//! All three are [`ShardedLru`]s, the one bounded map of the workspace
//! (it lives in `airshed_core::memo`, beside the plan and price memos
//! that are one too, and is re-exported here): least recently used
//! entries go first, and a shard holds at most 32.

pub use airshed_core::memo::ShardedLru;

use crate::{lock, JobError};
use airshed_chem::youngboris::{AsymptoticForm, YbOptions};
use airshed_core::config::{DatasetChoice, SimConfig, Weather};
use airshed_core::driver::{ChemLayout, PlanLayouts};
use airshed_core::plan::Placement;
use airshed_core::WorkProfile;
use airshed_machine::MachineKey;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Everything that determines the *numerics* of a scenario — two configs
/// with equal keys produce bit-identical work profiles and science.
/// Machine and node count are deliberately excluded (the profile is
/// machine- and P-independent).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NumericsKey {
    pub dataset: DatasetKey,
    pub hours: usize,
    pub start_hour: usize,
    pub weather_stagnation: bool,
    pub emission_scale_bits: u64,
    pub kh_bits: u64,
    pub chem: ChemKey,
}

/// Hashable form of [`DatasetChoice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKey {
    LosAngeles,
    NorthEast,
    Tiny(usize),
}

impl From<DatasetChoice> for DatasetKey {
    fn from(d: DatasetChoice) -> DatasetKey {
        match d {
            DatasetChoice::LosAngeles => DatasetKey::LosAngeles,
            DatasetChoice::NorthEast => DatasetKey::NorthEast,
            DatasetChoice::Tiny(n) => DatasetKey::Tiny(n),
        }
    }
}

/// Hashable form of the chemistry solver options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChemKey {
    eps_bits: u64,
    atol_bits: u64,
    h_min_bits: u64,
    h_max_bits: u64,
    stiff_ratio_bits: u64,
    exponential_form: bool,
}

impl From<&YbOptions> for ChemKey {
    fn from(o: &YbOptions) -> ChemKey {
        ChemKey {
            eps_bits: o.eps.to_bits(),
            atol_bits: o.atol.to_bits(),
            h_min_bits: o.h_min.to_bits(),
            h_max_bits: o.h_max.to_bits(),
            stiff_ratio_bits: o.stiff_ratio.to_bits(),
            exponential_form: o.form == AsymptoticForm::Exponential,
        }
    }
}

impl NumericsKey {
    pub fn of(config: &SimConfig) -> NumericsKey {
        NumericsKey {
            dataset: config.dataset.into(),
            hours: config.hours,
            start_hour: config.start_hour,
            weather_stagnation: config.weather == Weather::Stagnation,
            emission_scale_bits: config.emission_scale.to_bits(),
            kh_bits: config.kh.to_bits(),
            chem: ChemKey::from(&config.chem_opts),
        }
    }

    /// The scenario *family*: the numerics key with the episode length
    /// and start hour erased. A performance model calibrated on a short
    /// run of a family extrapolates to longer episodes of the same
    /// family (the paper's "measure small, predict large").
    pub fn family(&self) -> NumericsKey {
        NumericsKey {
            hours: 0,
            start_hour: 0,
            ..self.clone()
        }
    }
}

/// Full scenario identity: numerics plus the virtual machine placement
/// (the whole machine, not its name), including the per-phase layouts
/// the plan was executed with (two placements of the same numerics
/// charge different virtual cost under different layouts, so they must
/// not share a cached report).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    pub numerics: NumericsKey,
    pub machine: MachineKey,
    pub p: usize,
    pub layouts: PlanLayouts,
}

impl ResultKey {
    pub fn of(config: &SimConfig, layout: ChemLayout) -> ResultKey {
        ResultKey::of_layouts(config, PlanLayouts::chem(layout))
    }

    /// Key for a run under an explicit (possibly optimizer-chosen)
    /// per-phase layout pair.
    pub fn of_layouts(config: &SimConfig, layouts: PlanLayouts) -> ResultKey {
        ResultKey {
            numerics: NumericsKey::of(config),
            machine: config.machine.key(),
            p: config.p,
            layouts,
        }
    }
}

/// Lock shards per cache. The server's two caches and a fabric shard's
/// profile store are sized by this and the two capacities below.
pub const CACHE_SHARDS: usize = 8;
/// Total entries across a work-profile cache.
pub const PROFILE_CACHE_CAPACITY: usize = 64;
/// Total entries across the run-report cache.
pub const RESULT_CACHE_CAPACITY: usize = 256;

/// How [`ProfileStore::get_or_run`] came by the profile it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// The profile was resident when the caller arrived.
    Hit,
    /// Another caller was running this key; this one waited for it.
    Coalesced,
    /// This caller ran the numerics.
    Ran,
}

/// A cancel flag is a plain atomic nobody notifies on, so a waiter
/// re-reads its flag (and its deadline) at this period while it sleeps
/// on the leader.
const WAITER_POLL: Duration = Duration::from_millis(10);

/// The work-profile cache with a single-flight guard: per
/// [`NumericsKey`], at most one caller at a time runs the numerics.
pub struct ProfileStore {
    resident: ShardedLru<NumericsKey, Arc<WorkProfile>>,
    /// Keys a leader is running right now.
    in_flight: Mutex<HashSet<NumericsKey>>,
    /// Signalled whenever a leader lets go of its key, whatever the
    /// outcome.
    released: Condvar,
}

/// The leader's claim on its key. Dropping it — on return, on `?`, or
/// while a panic unwinds through the numerics — frees the key and wakes
/// the waiters, so a failed run can never strand them.
struct Flight<'a> {
    store: &'a ProfileStore,
    key: &'a NumericsKey,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        lock(&self.store.in_flight).remove(self.key);
        self.store.released.notify_all();
    }
}

impl ProfileStore {
    /// `capacity` profiles spread over `shards` locks.
    pub fn new(shards: usize, capacity: usize) -> ProfileStore {
        ProfileStore {
            resident: ShardedLru::new(shards, capacity),
            in_flight: Mutex::new(HashSet::new()),
            released: Condvar::new(),
        }
    }

    /// Seed a profile computed elsewhere (an ensemble sweep's members).
    pub fn insert(&self, key: NumericsKey, profile: Arc<WorkProfile>) {
        self.resident.insert(key, profile);
    }

    /// The profile for `key`, running the numerics at most once however
    /// many callers ask at the same time. A resident profile is
    /// returned after one cache lookup. Otherwise the first caller
    /// becomes the leader: it calls `run`, and its profile becomes
    /// resident before its claim on the key is released. Callers that
    /// arrive meanwhile wait — each still honouring its own `cancel`
    /// flag and `deadline_at` (there is nothing to resume: a waiter did
    /// no work) — and when the leader is cancelled, expires, fails or
    /// panics, the first waiter to wake takes over as leader with its
    /// own `run`.
    pub fn get_or_run(
        &self,
        key: &NumericsKey,
        cancel: &AtomicBool,
        deadline_at: Option<Instant>,
        run: impl FnOnce() -> Result<WorkProfile, JobError>,
    ) -> Result<(Arc<WorkProfile>, Fetch), JobError> {
        if let Some(profile) = self.resident.get(key) {
            return Ok((profile, Fetch::Hit));
        }
        let mut flights = lock(&self.in_flight);
        let mut fetch = Fetch::Hit;
        loop {
            // A leader publishes its profile before it releases the
            // key, so under this lock a cold key is either in flight or
            // ours to run.
            if let Some(profile) = self.resident.get(key) {
                return Ok((profile, fetch));
            }
            if !flights.contains(key) {
                flights.insert(key.clone());
                break;
            }
            fetch = Fetch::Coalesced;
            if cancel.load(Ordering::Relaxed) {
                return Err(JobError::Cancelled { resume: None });
            }
            let now = Instant::now();
            if deadline_at.is_some_and(|d| now >= d) {
                return Err(JobError::DeadlineExpired { resume: None });
            }
            let nap = deadline_at.map_or(WAITER_POLL, |d| WAITER_POLL.min(d - now));
            flights = self
                .released
                .wait_timeout(flights, nap)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(flights);
        let _flight = Flight { store: self, key };
        let profile = Arc::new(run()?);
        self.resident.insert(key.clone(), Arc::clone(&profile));
        Ok((profile, Fetch::Ran))
    }
}

/// Placements one [`PlacementMemo`] keeps: above the 756 a replay
/// batch's six families meet (63 `P` × 2 layouts each). A placement is
/// three `f64` per simulated step (18 for two `tiny:80` hours) and a few
/// words, whatever its `P` (it keeps no plan set), so a full memo holds
/// 24 KiB per step of its episodes.
pub const PLACEMENT_MEMO_ENTRIES: usize = 1024;

/// The [`Placement`]s a server has folded, so a result-cache miss on a
/// placement another machine already replayed costs only the machine
/// half. Keyed by the profile's [`NumericsKey`], `P` and plan, never by
/// the profile's address: an evicted profile runs again at another
/// address, and equal keys fold to the same units.
pub type PlacementMemo = ShardedLru<(NumericsKey, usize, PlanLayouts), Arc<Placement>>;

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_machine::MachineProfile;

    #[test]
    fn numerics_key_separates_scenarios_and_erases_placement() {
        let a = SimConfig::test_tiny(4, 2);
        let mut b = SimConfig::test_tiny(32, 2); // different P
        b.machine = airshed_machine::MachineProfile::paragon();
        assert_eq!(NumericsKey::of(&a), NumericsKey::of(&b));

        let mut c = a.clone();
        c.emission_scale = 0.5;
        assert_ne!(NumericsKey::of(&a), NumericsKey::of(&c));
        let mut d = a.clone();
        d.hours = 3;
        assert_ne!(NumericsKey::of(&a), NumericsKey::of(&d));
        assert_eq!(NumericsKey::of(&a).family(), NumericsKey::of(&d).family());
    }

    #[test]
    fn result_key_includes_placement() {
        let a = SimConfig::test_tiny(4, 2);
        let mut b = a.clone();
        b.p = 8;
        assert_ne!(
            ResultKey::of(&a, ChemLayout::Block),
            ResultKey::of(&b, ChemLayout::Block)
        );
        assert_ne!(
            ResultKey::of(&a, ChemLayout::Block),
            ResultKey::of(&a, ChemLayout::Cyclic)
        );
        assert_eq!(
            ResultKey::of(&a, ChemLayout::Block),
            ResultKey::of(&a, ChemLayout::Block)
        );
        // Optimizer-chosen layout pairs are first-class key material.
        let opt = ResultKey::of_layouts(
            &a,
            PlanLayouts::new(ChemLayout::Cyclic, ChemLayout::BlockCyclic(4)),
        );
        assert_ne!(opt, ResultKey::of(&a, ChemLayout::Block));
        assert_eq!(
            ResultKey::of(&a, ChemLayout::Cyclic).layouts.chemistry,
            ChemLayout::Cyclic
        );
        // The machine is keyed whole: the same name with any other
        // rate, L, G, H or W is another placement.
        let edits: [fn(&mut MachineProfile); 5] = [
            |m| m.rate *= 2.0,
            |m| m.latency *= 1.0e6,
            |m| m.byte_cost *= 2.0,
            |m| m.copy_cost *= 2.0,
            |m| m.word_size = 4,
        ];
        for edit in edits {
            let mut c = a.clone();
            edit(&mut c.machine);
            assert_eq!(c.machine.name, a.machine.name);
            assert_ne!(
                ResultKey::of(&c, ChemLayout::Block),
                ResultKey::of(&a, ChemLayout::Block)
            );
        }
        let mut renamed = a.clone();
        renamed.machine.name = "another T3E";
        assert_ne!(
            ResultKey::of(&renamed, ChemLayout::Block),
            ResultKey::of(&a, ChemLayout::Block)
        );
    }

    // --- single-flight store ---------------------------------------------

    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    /// An empty profile labelled with who produced it.
    fn marked(by: &'static str) -> WorkProfile {
        WorkProfile {
            dataset: by,
            shape: [0; 3],
            hours: Vec::new(),
            summaries: Vec::new(),
        }
    }

    fn cold_key() -> NumericsKey {
        NumericsKey::of(&SimConfig::test_tiny(4, 1))
    }

    /// A leader that announces it holds the key, then blocks in its
    /// numerics until told how to end them.
    fn blocked_leader<'a>(
        store: &'a ProfileStore,
        key: &'a NumericsKey,
        started: mpsc::Sender<()>,
        release: mpsc::Receiver<Result<WorkProfile, JobError>>,
    ) -> impl FnOnce() -> Result<(Arc<WorkProfile>, Fetch), JobError> + 'a {
        move || {
            store.get_or_run(key, &AtomicBool::new(false), None, || {
                started.send(()).unwrap();
                release.recv().unwrap()
            })
        }
    }

    #[test]
    fn concurrent_callers_of_a_cold_key_run_it_once() {
        let store = ProfileStore::new(2, 8);
        let key = cold_key();
        let never = AtomicBool::new(false);
        let runs = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let (arrived_tx, arrived_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let leader = scope.spawn(blocked_leader(&store, &key, started_tx, release_rx));
            started_rx.recv().unwrap();
            // The key is held until `release`: every caller from here on
            // finds it in flight, or resident if it is late.
            let followers: Vec<_> = (0..7)
                .map(|_| {
                    let arrived = arrived_tx.clone();
                    let (store, key, never, runs) = (&store, &key, &never, &runs);
                    scope.spawn(move || {
                        arrived.send(()).unwrap();
                        store.get_or_run(key, never, None, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            Ok(marked("follower"))
                        })
                    })
                })
                .collect();
            for _ in 0..7 {
                arrived_rx.recv().unwrap();
            }
            release_tx.send(Ok(marked("leader"))).unwrap();
            let (profile, fetch) = leader.join().unwrap().unwrap();
            assert_eq!((profile.dataset, fetch), ("leader", Fetch::Ran));
            for follower in followers {
                let (profile, fetch) = follower.join().unwrap().unwrap();
                assert_eq!(profile.dataset, "leader");
                assert_ne!(fetch, Fetch::Ran);
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 0, "followers never ran");
        let (_, fetch) = store
            .get_or_run(&key, &never, None, || Ok(marked("late")))
            .unwrap();
        assert_eq!(fetch, Fetch::Hit);
    }

    #[test]
    fn waiters_honour_their_own_cancel_flag_and_deadline() {
        let store = ProfileStore::new(2, 8);
        let key = cold_key();
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let must_not_run = || -> Result<WorkProfile, JobError> { panic!("a waiter ran") };
        let flag = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let leader = scope.spawn(blocked_leader(&store, &key, started_tx, release_rx));
            started_rx.recv().unwrap();
            // The leader stays blocked until every waiter below is back.
            let cancelled = AtomicBool::new(true);
            match store.get_or_run(&key, &cancelled, None, must_not_run) {
                Err(JobError::Cancelled { resume: None }) => {}
                other => panic!("expected cancellation, got {other:?}"),
            }
            let never = AtomicBool::new(false);
            let soon = Instant::now() + Duration::from_millis(30);
            match store.get_or_run(&key, &never, Some(soon), must_not_run) {
                Err(JobError::DeadlineExpired { resume: None }) => {}
                other => panic!("expected expiry, got {other:?}"),
            }
            // A flag raised while the waiter is already asleep.
            let waiter = scope.spawn(|| store.get_or_run(&key, &flag, None, must_not_run));
            flag.store(true, Ordering::Relaxed);
            match waiter.join().unwrap() {
                Err(JobError::Cancelled { resume: None }) => {}
                other => panic!("expected cancellation, got {other:?}"),
            }
            release_tx.send(Ok(marked("leader"))).unwrap();
            assert_eq!(leader.join().unwrap().unwrap().1, Fetch::Ran);
        });
    }

    #[test]
    fn a_waiter_takes_over_when_the_leader_fails_or_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for leader_panics in [false, true] {
            let store = ProfileStore::new(2, 8);
            let key = cold_key();
            let never = AtomicBool::new(false);
            let (started_tx, started_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel();
            // A stranded waiter would hang; the deadline turns that
            // into a failure instead.
            let patience = Instant::now() + Duration::from_secs(60);
            std::thread::scope(|scope| {
                let lead = blocked_leader(&store, &key, started_tx, release_rx);
                let leader = scope.spawn(|| catch_unwind(AssertUnwindSafe(lead)));
                started_rx.recv().unwrap();
                let waiter = scope.spawn(|| {
                    store.get_or_run(&key, &never, Some(patience), || Ok(marked("waiter")))
                });
                if leader_panics {
                    // A closed channel panics the leader mid-numerics.
                    drop(release_tx);
                } else {
                    let cancelled = Err(JobError::Cancelled { resume: None });
                    release_tx.send(cancelled).unwrap();
                }
                match leader.join().unwrap() {
                    Err(_) => assert!(leader_panics),
                    Ok(result) => assert!(matches!(result, Err(JobError::Cancelled { .. }))),
                }
                let (profile, fetch) = waiter.join().unwrap().unwrap();
                assert_eq!((profile.dataset, fetch), ("waiter", Fetch::Ran));
            });
            let (profile, fetch) = store
                .get_or_run(&key, &never, None, || Ok(marked("late")))
                .unwrap();
            assert_eq!((profile.dataset, fetch), ("waiter", Fetch::Hit));
        }
    }
}
