//! A sharded LRU cache from canonical instance keys to solved answers.
//!
//! Keys come from [`crate::canonical`]; the engine's values are the
//! typed `(Answer, SolverKind)` pairs the router returned, so a hit
//! bypasses the solver and renders exactly the line a miss renders.
//!
//! Sharding: the key hash picks one of `shards` independent
//! `parking_lot::Mutex`-protected maps, so concurrent workers rarely
//! contend on the same lock. Each shard keeps its entries on an
//! **intrusive doubly-linked LRU list** threaded through a preallocated
//! slab: a hit splices its node to the front, an insert into a full shard
//! unlinks the tail — both O(1), no scans, no per-operation allocation
//! beyond the stored keys and values. (The seed implementation scanned
//! the whole shard for the minimum clock on every eviction, O(shard
//! capacity).)
//!
//! Hit/miss counters are relaxed atomics: they feed the
//! [`crate::metrics::EngineReport`] and tolerate the usual
//! increment-vs-read races.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the solver.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Sentinel for "no node" in the intrusive list.
const NIL: u32 = u32::MAX;

/// One slab node: the stored pair plus its LRU-list links. The key is an
/// `Arc<str>` shared with the index entry, so each (often long,
/// canonical-instance) key is stored once.
struct Node<V> {
    key: Arc<str>,
    value: V,
    /// Towards more recently used (NIL at the head).
    prev: u32,
    /// Towards less recently used (NIL at the tail).
    next: u32,
}

/// One shard: hash index into a slab of nodes threaded on an intrusive
/// most-recent-first list.
struct Shard<V> {
    /// Key → slab index (keys shared with the nodes).
    index: HashMap<Arc<str>, u32>,
    /// Node storage; freed slots are reused via `free`.
    slab: Vec<Node<V>>,
    /// Reusable slab slots (from removals, if any ever happen).
    free: Vec<u32>,
    /// Most recently used node, NIL when empty.
    head: u32,
    /// Least recently used node, NIL when empty.
    tail: u32,
}

impl<V> Shard<V> {
    fn new(capacity: usize) -> Shard<V> {
        Shard {
            index: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Unlink node `i` from the list (it keeps its slab slot).
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.slab[i as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.slab[x as usize].prev = prev,
        }
    }

    /// Link node `i` at the head (most recently used).
    fn link_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let n = &mut self.slab[i as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.slab[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Splice an existing node to the front — the O(1) "touch".
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Evict the least-recently-used entry — O(1) via the tail pointer.
    /// The victim's slot goes on the free list with its stale key and
    /// value, which the insert that evicted it overwrites at once.
    fn evict_tail(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "evict called on an empty shard");
        self.unlink(victim);
        let removed = self.index.remove(self.slab[victim as usize].key.as_ref());
        debug_assert_eq!(removed, Some(victim));
        self.free.push(victim);
    }

    fn insert(&mut self, key: String, value: V, capacity: usize) {
        if let Some(&i) = self.index.get(key.as_str()) {
            self.slab[i as usize].value = value;
            self.touch(i);
            return;
        }
        if self.index.len() >= capacity {
            self.evict_tail();
        }
        let key: Arc<str> = Arc::from(key);
        let i = match self.free.pop() {
            Some(i) => {
                let n = &mut self.slab[i as usize];
                n.key = Arc::clone(&key);
                n.value = value;
                i
            }
            None => {
                self.slab.push(Node {
                    key: Arc::clone(&key),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                (self.slab.len() - 1) as u32
            }
        };
        self.index.insert(key, i);
        self.link_front(i);
    }
}

/// Sharded LRU result cache. A capacity of 0 disables caching entirely
/// (every lookup misses, inserts are dropped).
///
/// The `String` default for `V` is read only by `perfbench/`, whose
/// frozen replay caches rendered result lines; the engine stores typed
/// answers.
pub struct ShardedCache<V = String> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard entry budgets; they sum to exactly the requested total
    /// capacity, so the user-facing memory bound is honored precisely.
    capacities: Vec<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// Build a cache holding at most `capacity` entries total, spread
    /// over up to `shards` locks. The shard count is clamped to the
    /// capacity (never more locks than entries) and the budget is split
    /// exactly — no rounding up per shard.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache<V> {
        let shard_count = shards.max(1).min(capacity.max(1));
        let capacities: Vec<usize> = (0..shard_count)
            .map(|i| capacity / shard_count + usize::from(i < capacity % shard_count))
            .collect();
        ShardedCache {
            shards: capacities
                .iter()
                .map(|&c| Mutex::new(Shard::new(c)))
                .collect(),
            capacities,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// False iff built with capacity 0.
    pub fn is_enabled(&self) -> bool {
        self.capacities.iter().any(|&c| c > 0)
    }

    fn shard_for(&self, key: &str) -> (&Mutex<Shard<V>>, usize) {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let index = (hasher.finish() as usize) % self.shards.len();
        (&self.shards[index], self.capacities[index])
    }

    /// Look up a canonical key, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<V> {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard_for(key).0.lock();
        match shard.index.get(key).copied() {
            Some(i) => {
                shard.touch(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(shard.slab[i as usize].value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a result, evicting the shard's least-recently-
    /// used entry in O(1) if the shard is full.
    pub fn insert(&self, key: String, value: V) {
        if !self.is_enabled() {
            return;
        }
        let (shard, capacity) = self.shard_for(&key);
        if capacity == 0 {
            return; // a zero-budget shard (capacity < shard count) holds nothing
        }
        shard.lock().insert(key, value, capacity);
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().index.len()).sum()
    }

    /// True iff no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the lifetime hit/miss counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Keys of one shard in least-recently-used-first order (test
    /// observability for the eviction order; shard 0 of a single-shard
    /// cache sees every key).
    #[doc(hidden)]
    pub fn lru_order_of_shard(&self, shard: usize) -> Vec<String> {
        let shard = self.shards[shard].lock();
        let mut keys = Vec::with_capacity(shard.index.len());
        let mut i = shard.tail;
        while i != NIL {
            let n = &shard.slab[i as usize];
            keys.push(n.key.to_string());
            i = n.prev;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ShardedCache::<String>::new(8, 2);
        assert_eq!(cache.get("k"), None);
        cache.insert("k".into(), "v".into());
        assert_eq!(cache.get("k"), Some("v".into()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let cache = ShardedCache::<String>::new(0, 4);
        cache.insert("k".into(), "v".into());
        assert_eq!(cache.get("k"), None);
        assert!(cache.is_empty());
        assert!(!cache.is_enabled());
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        // Single shard so the eviction order is fully observable.
        let cache = ShardedCache::<String>::new(2, 1);
        cache.insert("a".into(), "1".into());
        cache.insert("b".into(), "2".into());
        assert_eq!(cache.get("a"), Some("1".into())); // refresh a
        cache.insert("c".into(), "3".into()); // evicts b
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some("1".into()));
        assert_eq!(cache.get("c"), Some("3".into()));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_a_resident_key_updates_in_place() {
        let cache = ShardedCache::<String>::new(1, 1);
        cache.insert("k".into(), "old".into());
        cache.insert("k".into(), "new".into());
        assert_eq!(cache.get("k"), Some("new".into()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let cache = ShardedCache::<String>::new(2, 1);
        cache.insert("a".into(), "1".into());
        cache.insert("b".into(), "2".into());
        cache.insert("a".into(), "1'".into()); // refresh a by reinsert
        cache.insert("c".into(), "3".into()); // must evict b, not a
        assert_eq!(cache.get("a"), Some("1'".into()));
        assert_eq!(cache.get("b"), None);
    }

    #[test]
    fn lru_order_is_observable_and_exact() {
        let cache = ShardedCache::<String>::new(4, 1);
        for k in ["a", "b", "c", "d"] {
            cache.insert(k.into(), "v".into());
        }
        assert_eq!(cache.lru_order_of_shard(0), vec!["a", "b", "c", "d"]);
        cache.get("b");
        assert_eq!(cache.lru_order_of_shard(0), vec!["a", "c", "d", "b"]);
        cache.insert("e".into(), "v".into()); // evicts a
        assert_eq!(cache.lru_order_of_shard(0), vec!["c", "d", "b", "e"]);
    }

    #[test]
    fn eviction_reuses_slab_slots() {
        let cache = ShardedCache::<String>::new(2, 1);
        for i in 0..100 {
            cache.insert(format!("key-{i}"), i.to_string());
            assert!(cache.len() <= 2);
        }
        // The slab must not have grown past capacity + the in-flight slot.
        let shard = cache.shards[0].lock();
        assert!(shard.slab.len() <= 3, "slab grew to {}", shard.slab.len());
    }

    #[test]
    fn shards_share_total_capacity() {
        let cache = ShardedCache::<String>::new(64, 8);
        for i in 0..64 {
            cache.insert(format!("key-{i}"), i.to_string());
        }
        // Hash skew can evict a few entries early, but the bulk stays.
        assert!(cache.len() > 32, "len = {}", cache.len());
        assert!(cache.len() <= 64);
    }

    #[test]
    fn concurrent_access_is_safe_and_counted() {
        let cache = ShardedCache::<String>::new(128, 8);
        crossbeam::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move |_| {
                    for i in 0..100 {
                        let key = format!("key-{}", (t * 100 + i) % 50);
                        if cache.get(&key).is_none() {
                            cache.insert(key, "v".into());
                        }
                    }
                });
            }
        })
        .expect("threads join");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 400);
        assert!(stats.entries <= 50);
    }
}
