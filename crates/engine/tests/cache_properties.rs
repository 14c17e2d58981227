//! Property tests for the intrusive-list LRU cache: the rewrite from
//! scan-based eviction to O(1) list splicing must preserve exact LRU
//! semantics. A naive model cache (Vec ordered least-recent-first) is
//! replayed against the real one over random op sequences.

use gaps_engine::ShardedCache;
use proptest::prelude::*;

/// Reference LRU: a Vec of (key, value), least recently used first.
struct ModelLru {
    capacity: usize,
    entries: Vec<(String, String)>,
}

impl ModelLru {
    fn new(capacity: usize) -> ModelLru {
        ModelLru {
            capacity,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<String> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    fn insert(&mut self, key: String, value: String) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.remove(0); // least recently used
        }
        self.entries.push((key, value));
    }
}

/// An op sequence: (is_insert, key id, value id).
fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<(bool, u8, u8)>> {
    proptest::collection::vec(
        (0u8..2, 0u8..12, 0u8..250).prop_map(|(op, k, v)| (op == 1, k, v)),
        1..=max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single shard: the real cache agrees with the model on every get
    /// result, on residency, and on the full eviction order.
    #[test]
    fn single_shard_matches_model_lru(capacity in 1usize..6, ops in arb_ops(60)) {
        let cache = ShardedCache::<String>::new(capacity, 1);
        let mut model = ModelLru::new(capacity);
        for (is_insert, k, v) in ops {
            let key = format!("k{k}");
            if is_insert {
                cache.insert(key.clone(), format!("v{v}"));
                model.insert(key, format!("v{v}"));
            } else {
                prop_assert_eq!(cache.get(&key), model.get(&key), "get({}) diverged", key);
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
            prop_assert_eq!(cache.len(), model.entries.len());
            // Eviction order must match exactly, LRU first.
            let order = cache.lru_order_of_shard(0);
            let model_order: Vec<String> =
                model.entries.iter().map(|(k, _)| k.clone()).collect();
            prop_assert_eq!(order, model_order, "LRU order diverged");
        }
    }

    /// Any shard count: total capacity is never exceeded, and get-after-put
    /// round-trips while the cache has spare room (no eviction can have
    /// touched the key).
    #[test]
    fn sharded_capacity_and_round_trip(
        capacity in 1usize..40,
        shards in 1usize..9,
        keys in proptest::collection::vec(0u16..500, 1..=50),
    ) {
        let cache = ShardedCache::<String>::new(capacity, shards);
        let mut distinct = Vec::new();
        for k in keys {
            let key = format!("key-{k}");
            cache.insert(key.clone(), format!("val-{k}"));
            if !distinct.contains(&k) {
                distinct.push(k);
            }
            // Freshly inserted keys must be readable immediately: the
            // insert either hit a shard with room or evicted that shard's
            // LRU, never the key just written.
            prop_assert_eq!(cache.get(&key), Some(format!("val-{k}")));
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
            if distinct.len() <= capacity / shards {
                // No shard can have overflowed yet (even the worst-case
                // all-in-one-shard skew fits the smallest shard budget),
                // so every distinct key must still round-trip.
                for &d in &distinct {
                    prop_assert_eq!(
                        cache.get(&format!("key-{d}")),
                        Some(format!("val-{d}")),
                        "key-{} lost before any shard could be full", d
                    );
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.entries, cache.len());
        prop_assert!(stats.hits > 0);
    }

    /// The hottest key of a skewed stream is never the one evicted.
    #[test]
    fn hot_key_survives_skewed_stream(cold_keys in proptest::collection::vec(0u16..300, 1..=80)) {
        let cache = ShardedCache::<String>::new(4, 1);
        cache.insert("hot".into(), "h".into());
        for k in cold_keys {
            prop_assert_eq!(cache.get("hot"), Some("h".into()), "hot key evicted");
            cache.insert(format!("cold-{k}"), "c".into());
        }
        prop_assert_eq!(cache.get("hot"), Some("h".into()));
    }
}
