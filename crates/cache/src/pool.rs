//! Thread-local recycling of the cache kernel's flat arrays.
//!
//! Experiment drivers construct one memory system per cell, and the
//! paper's 1 MB L2 alone needs ~300 KB of slot arrays — large enough
//! that every construction used to pay an `mmap` plus a page fault per
//! touched 4 KB page, and every drop an `munmap`. At the harness's
//! benchmark point (2 000 events per cell) those faults dominated the
//! per-cell cost. This pool keeps dropped arrays on the owning thread
//! and hands them back to the next [`crate::SetAssocCache`] of the
//! same size, so steady-state cell construction touches only warm
//! pages.
//!
//! Recycled buffers are returned **with their previous contents**
//! ([`take_u64`]); the kernel never reads a slot past a set's
//! occupancy count, so only the occupancy array needs zeroing
//! ([`take_u32_zeroed`]). Pools are `thread_local!`, so no
//! synchronisation is involved and worker threads' pools die with the
//! threads that own them.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use sim_core::hash::FxHashMap;

/// Buffers retained per (element type, length) — enough for the
/// handful of live caches an experiment cell juggles, small enough
/// that odd sizes cannot accumulate unbounded memory.
const MAX_PER_LEN: usize = 16;

// Process-wide traffic counters (the pools themselves stay
// thread-local and lock-free; one relaxed increment per take/recycle
// is noise next to the allocation it replaces). Surfaced in the
// `trace-repro/1` runtime-metrics record.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);
static RECYCLES: AtomicU64 = AtomicU64::new(0);

/// Process-wide pool traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests that fell through to a fresh heap allocation.
    pub allocs: u64,
    /// Requests served by recycling a pooled buffer.
    pub reuses: u64,
    /// Buffers returned to a pool on drop (bounded; overflow past
    /// `MAX_PER_LEN` per length is freed, not counted).
    pub recycles: u64,
}

/// Snapshot of the process-wide pool counters.
#[must_use]
pub fn stats() -> PoolStats {
    PoolStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        reuses: REUSES.load(Ordering::Relaxed),
        recycles: RECYCLES.load(Ordering::Relaxed),
    }
}

thread_local! {
    static U64_POOL: RefCell<FxHashMap<usize, Vec<Box<[u64]>>>> =
        RefCell::new(FxHashMap::default());
    static U32_POOL: RefCell<FxHashMap<usize, Vec<Box<[u32]>>>> =
        RefCell::new(FxHashMap::default());
}

/// A `u64` buffer of exactly `len` elements. Recycled buffers keep
/// their previous contents; fresh ones are zeroed. Callers must not
/// read elements they have not written. Public so the streaming
/// replay pipeline's chunk buffers flow through the same pool (and
/// the same counters) as the kernel arrays.
pub fn take_u64(len: usize) -> Box<[u64]> {
    match U64_POOL.with_borrow_mut(|pool| pool.get_mut(&len).and_then(Vec::pop)) {
        Some(buf) => {
            REUSES.fetch_add(1, Ordering::Relaxed);
            buf
        }
        None => {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            vec![0; len].into_boxed_slice()
        }
    }
}

/// A zeroed `u32` buffer of exactly `len` elements.
pub fn take_u32_zeroed(len: usize) -> Box<[u32]> {
    match U32_POOL.with_borrow_mut(|pool| pool.get_mut(&len).and_then(Vec::pop)) {
        Some(mut buf) => {
            REUSES.fetch_add(1, Ordering::Relaxed);
            buf.fill(0);
            buf
        }
        None => {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            vec![0; len].into_boxed_slice()
        }
    }
}

/// Returns a buffer taken with [`take_u64`] to the pool.
pub fn recycle_u64(buf: Box<[u64]>) {
    if buf.is_empty() {
        return;
    }
    U64_POOL.with_borrow_mut(|pool| {
        let slot = pool.entry(buf.len()).or_default();
        if slot.len() < MAX_PER_LEN {
            slot.push(buf);
            RECYCLES.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Returns a buffer taken with [`take_u32_zeroed`] to the pool.
pub fn recycle_u32(buf: Box<[u32]>) {
    if buf.is_empty() {
        return;
    }
    U32_POOL.with_borrow_mut(|pool| {
        let slot = pool.entry(buf.len()).or_default();
        if slot.len() < MAX_PER_LEN {
            slot.push(buf);
            RECYCLES.fetch_add(1, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_buffer() {
        let mut buf = take_u64(4099);
        buf[0] = 0xdead;
        recycle_u64(buf);
        let again = take_u64(4099);
        // Same length back (possibly the same allocation, contents
        // preserved — that is the contract callers must tolerate).
        assert_eq!(again.len(), 4099);
    }

    #[test]
    fn u32_take_is_always_zeroed() {
        let mut buf = take_u32_zeroed(513);
        buf.fill(7);
        recycle_u32(buf);
        let again = take_u32_zeroed(513);
        assert!(again.iter().all(|&x| x == 0));
    }

    #[test]
    fn lengths_do_not_mix() {
        recycle_u64(vec![9; 64].into_boxed_slice());
        assert_eq!(take_u64(65).len(), 65);
        assert_eq!(take_u64(64).len(), 64);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..100 {
            recycle_u64(vec![0; 32].into_boxed_slice());
        }
        U64_POOL.with_borrow(|pool| {
            assert!(pool.get(&32).is_none_or(|v| v.len() <= MAX_PER_LEN));
        });
    }
}
