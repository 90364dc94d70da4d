//! [`ShardedLru`], the one bounded map of the workspace. Every memo of
//! a pure function is one: the plan sets behind
//! [`crate::driver::HourPlans::shared`], the prices of a
//! [`crate::PricedModel`], a server's placements, and the server's
//! result and work-profile caches. Each keeps what its key determines,
//! so evicting an entry never changes an answer, only whether it is
//! computed again.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A sharded LRU map. Shard count fixes lock granularity; each shard
/// holds at most `ceil(capacity / shards)` entries and evicts its least
/// recently used entry when full. A shard is a short vector, not a hash
/// map: every user sizes its shards to 32 entries or fewer, so each
/// lookup hashes its key once — the hash picks the shard and is kept
/// for the key — and scans 16 bytes a slot for it; an insert into a full
/// shard scans once more for the least recently used entry. Values are
/// cloned out (use `Arc<V>` for large values).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    per_shard: usize,
    /// Entries across all shards: only a push into a shard adds one, and
    /// nothing removes one.
    len: AtomicUsize,
}

/// Every update leaves a shard valid (the tick moves, then one entry and
/// its tag are written), so a poisoned lock still guards a usable shard.
struct LruShard<K, V> {
    /// Per slot, the key's hash (compared before the key) and the tick of
    /// its last use: what a scan reads, apart from the entries.
    tags: Vec<(u64, u64)>,
    entries: Vec<(K, V)>,
    tick: u64,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Eq, V> LruShard<K, V> {
    /// One tick, and the slot holding `key`, its recency refreshed.
    fn find(&mut self, hash: u64, key: &K) -> Option<usize> {
        self.tick += 1;
        let i =
            (0..self.tags.len()).find(|&i| self.tags[i].0 == hash && self.entries[i].0 == *key)?;
        self.tags[i].1 = self.tick;
        Some(i)
    }

    /// Write `key`, which `find` just missed, into a new slot while the
    /// shard has fewer than `per_shard`, else over its least recently
    /// used one (stamps are unique within a shard, so that is the one
    /// oldest stamp). Whether a slot was added.
    fn place(&mut self, per_shard: usize, hash: u64, key: K, value: V) -> bool {
        let tag = (hash, self.tick);
        if self.entries.len() < per_shard {
            self.entries.push((key, value));
            self.tags.push(tag);
            return true;
        }
        let oldest = (0..self.tags.len()).min_by_key(|&i| self.tags[i].1);
        let oldest = oldest.expect("a full shard has a slot");
        self.entries[oldest] = (key, value);
        self.tags[oldest] = tag;
        false
    }
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
                        tags: Vec::new(),
                        entries: Vec::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard,
            len: AtomicUsize::new(0),
        }
    }

    /// The key's one hash and its shard, chosen from that hash.
    fn shard_of(&self, key: &K) -> (u64, &Mutex<LruShard<K, V>>) {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let hash = h.finish();
        (hash, &self.shards[(hash as usize) % self.shards.len()])
    }

    /// [`LruShard::place`], counting an added slot.
    fn place(&self, shard: &mut LruShard<K, V>, hash: u64, key: K, value: V) {
        if shard.place(self.per_shard, hash, key, value) {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let (hash, shard) = self.shard_of(key);
        let mut shard = lock(shard);
        let i = shard.find(hash, key)?;
        Some(shard.entries[i].1.clone())
    }

    /// Insert (or refresh) a key, evicting the shard's least recently
    /// used entry if the shard is at capacity.
    pub fn insert(&self, key: K, value: V) {
        let (hash, shard) = self.shard_of(&key);
        let mut shard = lock(shard);
        match shard.find(hash, &key) {
            Some(i) => shard.entries[i].1 = value,
            None => self.place(&mut shard, hash, key, value),
        }
    }

    /// The value under `key`, made by `make` and inserted if the key is
    /// not resident; `true` beside it when it was. `make` runs outside
    /// the shard's lock, so a cold key never stalls other lookups and
    /// `make` may use this map. If another caller inserts the key while
    /// `make` runs, the resident value is returned (with `false`: this
    /// caller made one) and the made one is dropped, so every caller
    /// holds the one resident value.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> (V, bool) {
        let (hash, shard) = self.shard_of(&key);
        {
            let mut shard = lock(shard);
            if let Some(i) = shard.find(hash, &key) {
                return (shard.entries[i].1.clone(), true);
            }
        }
        let fresh = make();
        let mut shard = lock(shard);
        match shard.find(hash, &key) {
            Some(raced) => (shard.entries[raced].1.clone(), false),
            None => {
                self.place(&mut shard, hash, key, fresh.clone());
                (fresh, false)
            }
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, V> fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .field("per_shard", &self.per_shard)
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::{Arc, Barrier};

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

    #[test]
    fn a_make_may_use_the_memo_and_a_racer_gets_the_resident_value() {
        let c: ShardedLru<u32, u32> = ShardedLru::new(1, 4);
        c.insert(2, 20);
        // `make` reads the memo, and inserts the very key it is making:
        // it holds no lock, and the value it raced in is what comes back.
        let (value, hit) = c.get_or_insert_with(1, || {
            assert_eq!(c.get(&2), Some(20));
            assert_eq!(c.get_or_insert_with(1, || 11), (11, false));
            99
        });
        assert_eq!((value, hit), (11, false));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get_or_insert_with(1, || unreachable!()), (11, true));
    }

    #[test]
    fn threads_racing_one_cold_key_share_one_value() {
        let c: ShardedLru<u32, Arc<usize>> = ShardedLru::new(2, 8);
        let barrier = Barrier::new(6);
        let got: Vec<(Arc<usize>, bool)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..6)
                .map(|i| {
                    let (c, barrier) = (&c, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        c.get_or_insert_with(7, || Arc::new(i))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let resident = c.get(&7).unwrap();
        for (value, _) in &got {
            assert!(Arc::ptr_eq(value, &resident));
        }
        assert_eq!(c.len(), 1);
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

        /// A lookup, then an insert on a miss.
        fn get_or_insert(&mut self, key: u32, value: u64) -> (u64, bool) {
            match self.get(key) {
                Some(hit) => (hit, true),
                None => {
                    self.insert(key, value);
                    (value, false)
                }
            }
        }

        fn len(&self) -> usize {
            self.shards.iter().map(|(map, _)| map.len()).sum()
        }
    }

    /// A seeded run of gets, inserts and `get_or_insert_with`s over keys
    /// about twice the capacity: every answer is the hash-map model's,
    /// and so is the entry count after every operation.
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
                    match z >> 62 {
                        0 | 1 => {
                            let got = lru.get(&key);
                            assert_eq!(got, model.get(key), "{shards}x{capacity} op {op}");
                        }
                        2 => {
                            lru.insert(key, op);
                            model.insert(key, op);
                        }
                        _ => {
                            let got = lru.get_or_insert_with(key, || op);
                            let want = model.get_or_insert(key, op);
                            assert_eq!(got, want, "{shards}x{capacity} op {op}");
                        }
                    }
                    assert_eq!(lru.len(), model.len(), "{shards}x{capacity} op {op}");
                }
            }
        }
    }
}
