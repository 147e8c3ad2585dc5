//! The memo behind every arena in this crate, and behind the
//! experiment drivers' cell memo: one build per key, shared by every
//! later request.
//!
//! Concurrency: the map is a mutex-guarded index of per-key
//! [`OnceLock`] cells. The mutex is held only to look up or insert a
//! cell — never while building — so distinct keys build concurrently,
//! while racing requests for the *same* key serialize on that key's
//! `OnceLock` and observe the same value. The non-blocking pair
//! [`Memo::get`] / [`Memo::insert`] serves callers that compute a
//! batch of values in one pass and would rather compute a racing key
//! twice than wait on it: the first insert wins, and a key still being
//! built reads as absent.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use sim_core::hash::FxHashMap;

/// A memoizing map from `K` to a built `V` (an `Arc`, so handing out
/// a value is a refcount bump), with hit/miss counters.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<FxHashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            map: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// Returns the value for `key`, running `build` on first request.
    /// Later requests for an equal key — including requests racing
    /// with the first, which block until it completes — get the same
    /// value. A `build` that unwinds leaves the key unbuilt, so a
    /// retry builds it from scratch.
    ///
    /// Callers open their arena's subsystem span inside `build`: the
    /// span-name lint wants the literal name at each `span::scope`
    /// call, and a build is the only work a scope should time.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        let cell = {
            // Poison recovery: entries are inserted whole, so a panic
            // on another thread cannot leave a half-written slot —
            // continuing with the inner map is sound (and keeps replay
            // paths free of panicking calls).
            let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        let mut built = false;
        let value = cell.get_or_init(|| {
            let value = build();
            built = true;
            value
        });
        let counter = if built { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }

    /// The built value for `key`, without waiting: a key that is
    /// absent or still being built reads as `None`, so a half-built
    /// value is never handed out. A value found counts as a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let value = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .and_then(|cell| cell.get().cloned());
        if value.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// Stores `value` under `key` unless the key already holds one:
    /// the first insert wins and later ones are dropped, so racing
    /// writers of equal values leave one. A stored value counts as a
    /// miss (a build). Returns whether this call stored it.
    pub fn insert(&self, key: K, value: V) -> bool {
        let cell = {
            let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        let stored = cell.set(value).is_ok();
        if stored {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        stored
    }

    /// `(hits, misses)`: requests served from a built value vs
    /// requests that built one.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Calls `f` on every built value.
    pub fn for_each_built(&self, f: impl FnMut(&V)) {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.values().filter_map(|cell| cell.get()).for_each(f);
    }

    /// Drops every value (outstanding clones stay valid) and resets
    /// the counters.
    pub fn clear(&self) {
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_first_wins_and_get_never_waits() {
        let memo: Memo<u32, u64> = Memo::default();
        assert_eq!(memo.get(&1), None, "absent key");
        assert!(memo.insert(1, 10));
        assert!(!memo.insert(1, 11), "a later insert is dropped");
        assert_eq!(memo.get(&1), Some(10));
        assert_eq!(memo.get_or_build(1, || unreachable!()), 10);
        assert_eq!(memo.stats(), (2, 1));
        memo.clear();
        assert_eq!(memo.get(&1), None);
        assert_eq!(memo.stats(), (0, 0));
    }
}
