//! Byte-bounded concurrent caches for write-once-valid derived values.
//!
//! The pipeline keeps four long-lived caches of expensive derived
//! objects: the global SWAP-test readout functional
//! ([`crate::engine`]), and each ensemble group's readout forms (the
//! dense noisy engine's), fused noisy superoperators (the per-sample
//! oracle's) and lowered channel programs (the structured engine's)
//! ([`crate::ensemble::EnsembleGroup`]). All four share the same
//! correctness story — every cached value is a pure deterministic
//! function of its key, so any build of the same key is
//! interchangeable — and, in a long-lived serving process, the same
//! three failure modes:
//!
//! 1. **Poisoning**: a panicking scorer thread that happens to hold the
//!    cache mutex must not wedge every subsequent request. Values are
//!    write-once-valid (a poisoned guard can only ever expose a fully
//!    constructed entry or the absence of one), so the guard is
//!    recovered via [`std::sync::PoisonError::into_inner`].
//! 2. **Overflow**: when an insert would exceed the byte budget, only
//!    the **oldest** entries are evicted until the new one fits —
//!    never the whole cache, which would re-derive the hottest
//!    `(group, level)` on every pass of a workload that cycles past
//!    the budget. Lookups move their entry to the back, so "oldest"
//!    is least-recently-used.
//! 3. **Build-under-lock**: deriving a value can take multiple
//!    milliseconds (a `16^n` superoperator fusion, which every readout
//!    form starts from), so it happens
//!    **outside** the critical section. Racing builders may duplicate
//!    the work — the build counter reports every build honestly — but
//!    the first insert wins and every caller shares one `Arc`.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A byte-bounded, LRU-evicting, poison-recovering map from keys to
/// shared derived values. Linear scan over entries — every use site
/// holds at most a few dozen `(noise model, level)`-shaped keys.
pub(crate) struct ByteBounded<K, V> {
    entries: Mutex<Vec<(K, Arc<V>)>>,
    builds: AtomicUsize,
}

impl<K: PartialEq + Clone, V> ByteBounded<K, V> {
    /// An empty cache. `const` so global caches can live in a `static`.
    pub const fn new() -> Self {
        ByteBounded {
            entries: Mutex::new(Vec::new()),
            builds: AtomicUsize::new(0),
        }
    }

    /// Locks the entry list, recovering from poisoning: entries are
    /// write-once-valid, so a panic in another holder cannot have left
    /// a half-written value behind.
    fn lock(&self) -> MutexGuard<'_, Vec<(K, Arc<V>)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How many times a value was actually built through this cache —
    /// the observable behind the fusion-counter regression tests.
    /// Racing builders each count (duplicate work is real work); a
    /// sequential workload counts exactly its distinct live keys.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Returns the cached value for `key`, or builds it (outside the
    /// lock), inserts it under the `budget`-byte bound and returns it.
    ///
    /// A hit is moved to the back of the entry list, marking it
    /// most-recently-used. On insert, oldest entries are evicted from
    /// the front until the newcomer fits; a value larger than the whole
    /// budget is returned uncached. If a racing builder inserted the
    /// key first, its value is returned (first insert wins) and the
    /// duplicate build is dropped — but still counted.
    ///
    /// # Errors
    ///
    /// Propagates `build` failures; the cache is left unchanged.
    pub fn get_or_try_build<E>(
        &self,
        key: &K,
        budget: usize,
        bytes_of: impl Fn(&V) -> usize,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.touch(key) {
            return Ok(hit);
        }
        // Build outside the critical section: concurrent scorers of
        // *different* keys proceed in parallel, and scorers of the same
        // key duplicate a build instead of serialising behind a
        // multi-ms lowering.
        let built = Arc::new(build()?);
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock();
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            // A racer inserted while we built: first insert wins.
            let entry = entries.remove(pos);
            let value = Arc::clone(&entry.1);
            entries.push(entry);
            return Ok(value);
        }
        let new_bytes = bytes_of(&built);
        if new_bytes <= budget {
            let mut held: usize = entries.iter().map(|(_, v)| bytes_of(v)).sum();
            while held + new_bytes > budget {
                let (_, evicted) = entries.remove(0);
                held -= bytes_of(&evicted);
            }
            entries.push((key.clone(), Arc::clone(&built)));
        }
        Ok(built)
    }

    /// The hit half of [`ByteBounded::get_or_try_build`]: returns the
    /// cached value and marks it most-recently-used.
    fn touch(&self, key: &K) -> Option<Arc<V>> {
        let mut entries = self.lock();
        let pos = entries.iter().position(|(k, _)| k == key)?;
        let entry = entries.remove(pos);
        let value = Arc::clone(&entry.1);
        entries.push(entry);
        Some(value)
    }
}

#[cfg(any(test, feature = "failpoints"))]
impl<K: Send, V: Send + Sync> ByteBounded<K, V> {
    /// Deliberately poisons the entry mutex by panicking a thread that
    /// holds it — the regression-test hook for recovery path 1, also
    /// driven by the serving runtime's chaos suite under the
    /// `failpoints` feature.
    pub fn poison_for_test(&self) {
        let joined = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = self.entries.lock().expect("not yet poisoned");
                panic!("deliberate cache poisoning");
            })
            .join()
        });
        assert!(joined.is_err(), "the poisoning thread must panic");
        assert!(self.entries.is_poisoned(), "mutex should now be poisoned");
    }
}

impl<K: PartialEq + Clone, V> Default for ByteBounded<K, V> {
    fn default() -> Self {
        ByteBounded::new()
    }
}

impl<K, V> Clone for ByteBounded<K, V> {
    /// Clones start cold: cached values are derived state, and sharing
    /// them would entangle otherwise independent owner copies.
    fn clone(&self) -> Self {
        ByteBounded {
            entries: Mutex::new(Vec::new()),
            builds: AtomicUsize::new(0),
        }
    }
}

impl<K, V> fmt::Debug for ByteBounded<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteBounded")
            .field("builds", &self.builds.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value whose "size" is its length — one test byte per element.
    /// The sizing callback receives `&V` by construction, so `&Vec` is
    /// the required parameter type here.
    #[allow(clippy::ptr_arg)]
    fn bytes_of(v: &Vec<u8>) -> usize {
        v.len()
    }

    fn build(tag: u8) -> Result<Vec<u8>, ()> {
        Ok(vec![tag; 10])
    }

    #[test]
    fn caches_and_counts_builds() {
        let cache: ByteBounded<u32, Vec<u8>> = ByteBounded::new();
        let a = cache
            .get_or_try_build(&1, 100, bytes_of, || build(1))
            .unwrap();
        let b = cache
            .get_or_try_build(&1, 100, bytes_of, || build(1))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the built value");
        assert_eq!(cache.builds(), 1);
        cache
            .get_or_try_build(&2, 100, bytes_of, || build(2))
            .unwrap();
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn overflow_evicts_oldest_first_and_spares_the_hot_entry() {
        // Budget fits two 10-byte entries. Insert 1 then 2, touch 1 to
        // make it the hot entry, then overflow with 3: the stale 2 must
        // go, not the whole cache (and in particular not 1).
        let cache: ByteBounded<u32, Vec<u8>> = ByteBounded::new();
        cache
            .get_or_try_build(&1, 25, bytes_of, || build(1))
            .unwrap();
        cache
            .get_or_try_build(&2, 25, bytes_of, || build(2))
            .unwrap();
        cache
            .get_or_try_build(&1, 25, bytes_of, || build(1))
            .unwrap();
        assert_eq!(cache.builds(), 2);
        cache
            .get_or_try_build(&3, 25, bytes_of, || build(3))
            .unwrap();
        assert_eq!(cache.builds(), 3);
        // 1 survived the overflow insert…
        cache
            .get_or_try_build(&1, 25, bytes_of, || build(1))
            .unwrap();
        assert_eq!(cache.builds(), 3, "hot entry must survive the overflow");
        // …and 2 (the oldest) was the one evicted.
        cache
            .get_or_try_build(&2, 25, bytes_of, || build(2))
            .unwrap();
        assert_eq!(cache.builds(), 4, "oldest entry should have been evicted");
    }

    #[test]
    fn eviction_frees_just_enough() {
        // Three 10-byte entries under a 35-byte budget: inserting a
        // fourth evicts exactly one (the oldest), keeping the rest.
        let cache: ByteBounded<u32, Vec<u8>> = ByteBounded::new();
        for k in 1..=3 {
            cache
                .get_or_try_build(&k, 35, bytes_of, || build(k as u8))
                .unwrap();
        }
        cache
            .get_or_try_build(&4, 35, bytes_of, || build(4))
            .unwrap();
        assert_eq!(cache.builds(), 4);
        for k in 2..=4 {
            cache
                .get_or_try_build(&k, 35, bytes_of, || build(k as u8))
                .unwrap();
        }
        assert_eq!(cache.builds(), 4, "entries 2..=4 must all have survived");
        cache
            .get_or_try_build(&1, 35, bytes_of, || build(1))
            .unwrap();
        assert_eq!(cache.builds(), 5, "only entry 1 was evicted");
    }

    #[test]
    fn oversized_values_are_returned_uncached() {
        let cache: ByteBounded<u32, Vec<u8>> = ByteBounded::new();
        let v = cache
            .get_or_try_build(&1, 5, bytes_of, || build(1))
            .unwrap();
        assert_eq!(*v, vec![1; 10]);
        cache
            .get_or_try_build(&1, 5, bytes_of, || build(1))
            .unwrap();
        assert_eq!(cache.builds(), 2, "an oversized value is rebuilt per call");
        // …and never displaces entries that do fit.
        cache
            .get_or_try_build(&2, 5, bytes_of, || Ok::<_, ()>(vec![2; 3]))
            .unwrap();
        cache
            .get_or_try_build(&1, 5, bytes_of, || build(1))
            .unwrap();
        cache
            .get_or_try_build(&2, 5, bytes_of, || Ok::<_, ()>(vec![2; 3]))
            .unwrap();
        assert_eq!(cache.builds(), 5 - 1, "the fitting entry stays cached");
    }

    #[test]
    fn build_failure_leaves_the_cache_unchanged() {
        let cache: ByteBounded<u32, Vec<u8>> = ByteBounded::new();
        assert!(cache
            .get_or_try_build(&1, 100, bytes_of, || Err::<Vec<u8>, &str>("boom"))
            .is_err());
        assert_eq!(cache.builds(), 0);
        cache
            .get_or_try_build(&1, 100, bytes_of, || build(1))
            .unwrap();
        assert_eq!(cache.builds(), 1);
    }

    #[test]
    fn survives_a_poisoned_mutex() {
        // The serving-runtime regression: a panicked holder thread must
        // not wedge later callers — hits and inserts both keep working.
        let cache: ByteBounded<u32, Vec<u8>> = ByteBounded::new();
        cache
            .get_or_try_build(&1, 100, bytes_of, || build(1))
            .unwrap();
        cache.poison_for_test();
        let hit = cache
            .get_or_try_build(&1, 100, bytes_of, || build(1))
            .unwrap();
        assert_eq!(*hit, vec![1; 10]);
        assert_eq!(cache.builds(), 1, "the pre-poison entry is still served");
        let fresh = cache
            .get_or_try_build(&2, 100, bytes_of, || build(2))
            .unwrap();
        assert_eq!(*fresh, vec![2; 10]);
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn clones_start_cold() {
        let cache: ByteBounded<u32, Vec<u8>> = ByteBounded::new();
        cache
            .get_or_try_build(&1, 100, bytes_of, || build(1))
            .unwrap();
        let fresh = cache.clone();
        assert_eq!(fresh.builds(), 0);
        fresh
            .get_or_try_build(&1, 100, bytes_of, || build(1))
            .unwrap();
        assert_eq!(fresh.builds(), 1);
    }
}
