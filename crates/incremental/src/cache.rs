//! Content-addressed solve cache.
//!
//! Batch workloads routinely resubmit instances they have already solved
//! (parameter sweeps revisit configurations; delta streams often undo
//! themselves). [`SolveCache`] maps a 128-bit content [`Fp`] to a stored
//! result, with FIFO eviction at a fixed capacity so a long-running
//! session cannot grow without bound. Lookups never validate the stored
//! value against the instance — the fingerprint *is* the identity, which
//! is sound because [`crate::fingerprint`] keys include every row of the
//! instance under two independent seeds.

use std::collections::HashMap;
use std::collections::VecDeque;

use crate::fingerprint::Fp;

/// Default capacity used by the incremental sessions.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// A bounded FIFO map from content fingerprints to solve results.
///
/// Eviction is first-in first-out, not least-recently-used: replacing a
/// key's value keeps the key's place in line.
///
/// ```
/// use kmatch_incremental::SolveCache;
///
/// let mut cache = SolveCache::new(2);
/// cache.insert((1, 1), "a");
/// cache.insert((2, 2), "b");
/// assert!(!cache.insert((1, 1), "a2")); // replaced, nothing evicted
/// assert!(cache.insert((3, 3), "c")); // evicts (1, 1), the oldest key
/// assert_eq!(cache.get((1, 1)), None);
/// assert_eq!(cache.get((2, 2)), Some(&"b"));
/// ```
#[derive(Debug, Clone)]
pub struct SolveCache<V> {
    map: HashMap<Fp, V>,
    order: VecDeque<Fp>,
    capacity: usize,
}

impl<V> SolveCache<V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SolveCache {
            map: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// The stored value for `key`, if any.
    pub fn get(&self, key: Fp) -> Option<&V> {
        self.map.get(&key)
    }

    /// Store `value` under `key`; returns `true` when an *older* entry was
    /// evicted to make room. Re-inserting an existing key replaces its
    /// value without evicting.
    pub fn insert(&mut self, key: Fp, value: V) -> bool {
        if self.map.insert(key, value).is_some() {
            return false;
        }
        self.order.push_back(key);
        if self.order.len() > self.capacity {
            let oldest = self.order.pop_front().expect("len > capacity ≥ 1");
            self.map.remove(&oldest);
            return true;
        }
        false
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The eviction threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<V> Default for SolveCache<V> {
    fn default() -> Self {
        SolveCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = SolveCache::new(2);
        assert!(!c.insert((1, 1), "a"));
        assert!(!c.insert((2, 2), "b"));
        assert!(c.insert((3, 3), "c"), "third insert evicts the oldest");
        assert!(c.get((1, 1)).is_none());
        assert_eq!(c.get((2, 2)), Some(&"b"));
        assert_eq!(c.get((3, 3)), Some(&"c"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut c = SolveCache::new(2);
        c.insert((1, 1), "a");
        c.insert((2, 2), "b");
        assert!(!c.insert((1, 1), "a2"));
        assert_eq!(c.get((1, 1)), Some(&"a2"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c = SolveCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert((1, 1), "a");
        assert!(c.insert((2, 2), "b"));
        assert_eq!(c.len(), 1);
    }
}
