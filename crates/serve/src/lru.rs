//! A small least-recently-used map used by the model registry and the
//! plan-encoding cache.
//!
//! Entries live in a dense slab threaded by a doubly-linked recency list of
//! slot indices, with a `HashMap` from key to slot: touch, insert, remove
//! and evict are `O(1)`, and none allocates once the slab has grown to
//! capacity. A removed slot is refilled by the last one (`swap_remove`),
//! whose links are then repointed.

use std::collections::HashMap;
use std::hash::Hash;

/// Marks the end of the recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// The next less recently used slot.
    older: usize,
    /// The next more recently used slot.
    newer: usize,
}

/// A bounded map that evicts the least-recently-used entry on overflow.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Least and most recently used slots ([`NIL`] when empty).
    oldest: usize,
    newest: usize,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            evictions: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `key` is resident (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Look up `key` without touching recency (diagnostics reads that must
    /// not distort the eviction order).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.slots[i].value)
    }

    /// Look up `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_newest(i);
        Some(&self.slots[i].value)
    }

    /// Insert or replace `key`, marking it most recently used. Returns the
    /// evicted `(key, value)` pair when the insert pushed the cache over
    /// capacity.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            self.unlink(i);
            self.push_newest(i);
            return None;
        }
        let i = self.slots.len();
        self.map.insert(key.clone(), i);
        self.slots.push(Slot {
            key,
            value,
            older: NIL,
            newer: NIL,
        });
        self.push_newest(i);
        if self.map.len() > self.capacity {
            let victim = self.remove_slot(self.oldest);
            self.evictions += 1;
            return Some((victim.key, victim.value));
        }
        None
    }

    /// Remove `key` if resident.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = *self.map.get(key)?;
        Some(self.remove_slot(i).value)
    }

    /// Keys ordered from least to most recently used (tests/diagnostics).
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.slots.len());
        let mut i = self.oldest;
        while i != NIL {
            keys.push(self.slots[i].key.clone());
            i = self.slots[i].newer;
        }
        keys
    }

    /// Drop every entry (capacity and the eviction counter are kept —
    /// invalidation is not eviction).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (older, newer) = (self.slots[i].older, self.slots[i].newer);
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    /// Link the unlinked slot `i` in as the most recently used.
    fn push_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// Remove slot `i`; the last slot moves into its place.
    fn remove_slot(&mut self, i: usize) -> Slot<K, V> {
        self.unlink(i);
        self.map.remove(&self.slots[i].key);
        let slot = self.slots.swap_remove(i);
        if i < self.slots.len() {
            // The moved slot's neighbours and key still name its old index.
            *self
                .map
                .get_mut(&self.slots[i].key)
                .expect("moved slot resident") = i;
            let (older, newer) = (self.slots[i].older, self.slots[i].newer);
            match older {
                NIL => self.oldest = i,
                o => self.slots[o].newer = i,
            }
            match newer {
                NIL => self.newest = i,
                n => self.slots[n].older = i,
            }
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        assert!(lru.insert("a", 1).is_none());
        assert!(lru.insert("b", 2).is_none());
        // touch "a" so "b" becomes the victim
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(lru.len(), 2);
        assert!(lru.contains(&"a") && lru.contains(&"c"));
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert!(lru.insert("a", 10).is_none());
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn remove_and_recency_order() {
        let mut lru = LruCache::new(3);
        lru.insert(1, "x");
        lru.insert(2, "y");
        lru.insert(3, "z");
        lru.get(&1);
        assert_eq!(lru.keys_by_recency(), vec![2, 3, 1]);
        assert_eq!(lru.remove(&3), Some("z"));
        assert_eq!(lru.remove(&3), None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_eviction_history() {
        let mut lru = LruCache::new(1);
        lru.insert(1, "x");
        lru.insert(2, "y"); // evicts 1
        assert_eq!(lru.evictions(), 1);
        lru.clear();
        assert!(lru.is_empty());
        assert!(lru.keys_by_recency().is_empty());
        assert_eq!(lru.evictions(), 1, "invalidation is not eviction");
        assert!(lru.insert(3, "z").is_none(), "cleared cache has room");
    }

    /// Seeded random operations against a reference LRU (a `Vec` in
    /// recency order): every result, the recency order and the eviction
    /// count agree after each step.
    #[test]
    fn matches_a_reference_lru_under_random_operations() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for capacity in [1usize, 2, 3, 8] {
            let mut lru = LruCache::new(capacity);
            let mut reference: Vec<(u64, u64)> = Vec::new();
            let mut evictions = 0;
            for step in 0..2000u64 {
                let key = next(12);
                match next(5) {
                    0 | 1 => {
                        let evicted = lru.insert(key, step);
                        let mut expected = None;
                        if let Some(at) = reference.iter().position(|&(k, _)| k == key) {
                            reference.remove(at);
                        } else if reference.len() == capacity {
                            expected = Some(reference.remove(0));
                            evictions += 1;
                        }
                        reference.push((key, step));
                        assert_eq!(evicted, expected);
                    }
                    2 => {
                        let at = reference.iter().position(|&(k, _)| k == key);
                        let expected = at.map(|at| {
                            let entry = reference.remove(at);
                            reference.push(entry);
                            entry.1
                        });
                        assert_eq!(lru.get(&key).copied(), expected);
                    }
                    3 => {
                        let at = reference.iter().position(|&(k, _)| k == key);
                        let expected = at.map(|at| reference.remove(at).1);
                        assert_eq!(lru.remove(&key), expected);
                    }
                    _ => {
                        let expected = reference.iter().find(|&&(k, _)| k == key);
                        assert_eq!(lru.peek(&key), expected.map(|(_, v)| v));
                    }
                }
                let keys: Vec<u64> = reference.iter().map(|&(k, _)| k).collect();
                assert_eq!(lru.keys_by_recency(), keys);
                assert_eq!(lru.len(), reference.len());
                assert_eq!(lru.evictions(), evictions);
            }
        }
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut lru = LruCache::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1, 1);
        let evicted = lru.insert(2, 2);
        assert_eq!(evicted, Some((1, 1)));
    }
}
