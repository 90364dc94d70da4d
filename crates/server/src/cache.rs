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
//! Both caches are [`ShardedLru`]s, whose shards hold tens of entries:
//! a shard is a short vector, and a lookup hashes its key once.

use crate::metrics::Metrics;
use crate::{lock, JobError};
use airshed_chem::youngboris::{AsymptoticForm, YbOptions};
use airshed_core::config::{DatasetChoice, SimConfig, Weather};
use airshed_core::driver::{ChemLayout, PlanLayouts};
use airshed_core::plan::Placement;
use airshed_core::WorkProfile;
use airshed_machine::MachineKey;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
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

/// One resident key: its hash (compared before the key), the value and
/// the shard tick of its last use.
struct Slot<K, V> {
    hash: u64,
    key: K,
    value: V,
    stamp: u64,
}

/// A sharded LRU map. Shard count fixes lock granularity; each shard
/// holds at most `ceil(capacity / shards)` entries and evicts its least
/// recently used entry when full. A shard is a short vector, not a hash
/// map: `capacity / shards` is expected in the tens (32 reports, 8
/// profiles per shard at the server's sizes), so each `get` or `insert`
/// hashes its key once — the hash picks the shard and is kept beside
/// the key — and one scan finds the key, the least recently used entry,
/// or both. Values are cloned out (use `Arc<V>` for large values).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    per_shard: usize,
}

/// Every update leaves a shard valid (the tick moves, then one slot is
/// written whole), so a poisoned lock still guards a usable shard.
struct LruShard<K, V> {
    slots: Vec<Slot<K, V>>,
    tick: u64,
}

impl<K: Hash + Eq, V: Clone> ShardedLru<K, V> {
    /// `capacity` is the total entry budget spread over `shards` locks.
    pub fn new(shards: usize, capacity: usize) -> ShardedLru<K, V> {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(LruShard {
                        slots: Vec::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard,
        }
    }

    /// The key's one hash and its shard, chosen from that hash.
    fn shard_of(&self, key: &K) -> (u64, &Mutex<LruShard<K, V>>) {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let hash = h.finish();
        (hash, &self.shards[(hash as usize) % self.shards.len()])
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let (hash, shard) = self.shard_of(key);
        let mut shard = lock(shard);
        shard.tick += 1;
        let tick = shard.tick;
        shard
            .slots
            .iter_mut()
            .find(|s| s.hash == hash && s.key == *key)
            .map(|s| {
                s.stamp = tick;
                s.value.clone()
            })
    }

    /// Insert (or refresh) a key, evicting the shard's least recently
    /// used entry if the shard is at capacity. Stamps are unique within
    /// a shard, so the victim is the one entry with the oldest stamp.
    pub fn insert(&self, key: K, value: V) {
        let (hash, shard) = self.shard_of(&key);
        let mut shard = lock(shard);
        shard.tick += 1;
        let stamp = shard.tick;
        let (mut found, mut oldest) = (None, 0);
        for (i, s) in shard.slots.iter().enumerate() {
            if s.hash == hash && s.key == key {
                found = Some(i);
                break;
            }
            if s.stamp < shard.slots[oldest].stamp {
                oldest = i;
            }
        }
        let slot = Slot {
            hash,
            key,
            value,
            stamp,
        };
        match found {
            Some(i) => shard.slots[i] = slot,
            None if shard.slots.len() < self.per_shard => shard.slots.push(slot),
            None => shard.slots[oldest] = slot,
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).slots.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

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

/// Placements one [`PlacementMemo`] keeps, cleared when full: above the
/// 756 a replay batch's six families meet (63 `P` × 2 layouts each). A
/// placement is three `f64` per simulated step (18 for two `tiny:80`
/// hours) and a few words, whatever its `P` (it keeps no plan set), so a
/// full memo holds 24 KiB per step of its episodes.
pub const PLACEMENT_MEMO_ENTRIES: usize = 1024;

/// A placement's `P` and plan, under its profile's numerics.
type Placed = HashMap<(usize, PlanLayouts), Arc<Placement>>;

/// The [`Placement`]s a server has folded, so a result-cache miss on a
/// placement another machine already replayed costs only the machine
/// half. Keyed by the profile's [`NumericsKey`] (stored once per family),
/// never by its address: an evicted profile runs again at another
/// address, and equal keys fold to the same units.
#[derive(Default)]
pub struct PlacementMemo {
    resident: Mutex<Placements>,
}

#[derive(Default)]
struct Placements {
    families: HashMap<NumericsKey, Placed>,
    entries: usize,
}

impl PlacementMemo {
    /// The placement of `profile` (whose numerics are `numerics`) on `p`
    /// nodes under `layouts`, folded (outside the lock) once while
    /// resident. Counts the hit or miss and the resident entries.
    pub fn get_or_fold(
        &self,
        numerics: &NumericsKey,
        profile: &WorkProfile,
        p: usize,
        layouts: PlanLayouts,
        metrics: &Metrics,
    ) -> Arc<Placement> {
        let hit = lock(&self.resident)
            .families
            .get(numerics)
            .and_then(|placed| placed.get(&(p, layouts)).cloned());
        if let Some(hit) = hit {
            metrics.placement_hits.inc();
            return hit;
        }
        metrics.placement_misses.inc();
        let placement = Arc::new(Placement::of(profile, p, layouts));
        let mut resident = lock(&self.resident);
        if resident.entries >= PLACEMENT_MEMO_ENTRIES {
            *resident = Placements::default();
        }
        let placed = resident.families.entry(numerics.clone()).or_default();
        let fresh = placed.insert((p, layouts), Arc::clone(&placement));
        resident.entries += usize::from(fresh.is_none());
        metrics.placement_entries.set(resident.entries as i64);
        placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_machine::MachineProfile;
    use std::collections::HashMap;

    #[test]
    fn get_returns_inserted_values() {
        let c: ShardedLru<u32, String> = ShardedLru::new(4, 16);
        assert!(c.get(&1).is_none());
        c.insert(1, "one".into());
        c.insert(2, "two".into());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        assert_eq!(c.get(&2).as_deref(), Some("two"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard so eviction order is fully observable.
        let c: ShardedLru<u32, u32> = ShardedLru::new(1, 3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(c.get(&1), Some(10));
        c.insert(4, 40);
        assert_eq!(c.len(), 3);
        assert!(c.get(&2).is_none(), "2 was least recently used");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&4), Some(40));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(1, 2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), Some(20));
    }

    /// The policy before shards were vectors, kept as the model: per
    /// shard a hash map of `(value, stamp)` and a tick, the victim the
    /// entry with the smallest stamp, the shard chosen by the same hash.
    /// A model shard: key to `(value, stamp)`, and the shard's tick.
    type MapShard = (HashMap<u32, (u64, u64)>, u64);

    struct MapLru {
        shards: Vec<MapShard>,
        per_shard: usize,
    }

    impl MapLru {
        fn new(shards: usize, capacity: usize) -> MapLru {
            MapLru {
                shards: vec![(HashMap::new(), 0); shards],
                per_shard: capacity.div_ceil(shards).max(1),
            }
        }

        fn shard(&mut self, key: u32) -> &mut MapShard {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            let n = self.shards.len();
            &mut self.shards[(h.finish() as usize) % n]
        }

        fn get(&mut self, key: u32) -> Option<u64> {
            let (map, tick) = self.shard(key);
            *tick += 1;
            let now = *tick;
            map.get_mut(&key).map(|e| {
                e.1 = now;
                e.0
            })
        }

        fn insert(&mut self, key: u32, value: u64) {
            let per_shard = self.per_shard;
            let (map, tick) = self.shard(key);
            *tick += 1;
            if !map.contains_key(&key) && map.len() >= per_shard {
                let oldest = *map.iter().min_by_key(|(_, e)| e.1).unwrap().0;
                map.remove(&oldest);
            }
            map.insert(key, (value, *tick));
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|(map, _)| map.len()).sum()
        }
    }

    /// A seeded run of gets and inserts over keys about twice the
    /// capacity: every `get` answers as the hash-map model does, and the
    /// entry count matches after every operation.
    #[test]
    fn vector_shards_follow_the_hash_map_model() {
        for shards in [1, 8] {
            for capacity in [1, 5, 32, 256] {
                let lru: ShardedLru<u32, u64> = ShardedLru::new(shards, capacity);
                let mut model = MapLru::new(shards, capacity);
                let keys = 2 * capacity as u64 + 3;
                let mut state = 0x5eed_u64 ^ (shards * 1000 + capacity) as u64;
                for op in 0..20_000u64 {
                    // splitmix64
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    let key = (z % keys) as u32;
                    if z >> 63 == 0 {
                        let got = lru.get(&key);
                        assert_eq!(got, model.get(key), "{shards}x{capacity} op {op}");
                    } else {
                        lru.insert(key, op);
                        model.insert(key, op);
                    }
                    assert_eq!(lru.len(), model.len(), "{shards}x{capacity} op {op}");
                }
            }
        }
    }

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
