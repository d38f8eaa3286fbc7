//! A process-global buffer budget shared by many [`crate::BufferPool`]s.
//!
//! One server process hosting many maps owns many pools (one index pool
//! plus one segment-table pool per map). Each pool still has its own
//! frames, shards, and LRU state, but the frames the simulated buffers
//! hold are metered, `page_size` bytes each, against one shared
//! [`BufferBudget`]: the build path charges unconditionally (a build must
//! be able to proceed, so the budget can be transiently overcommitted), an
//! external enforcer brings the total back under the line by shedding
//! frames from cold pools ([`crate::BufferPool::shed`]), and the query
//! path re-admits shed pages only when the budget has headroom
//! ([`BufferBudget::try_admit`]).
//!
//! The budget meters frames, not byte copies: pages live once in their
//! pool whatever it holds. Shedding releases a frame's charge but leaves
//! *logical* residency (the per-shard resident map and LRU metadata)
//! untouched, and logical residency is the only thing the query path's
//! charge decision consults. Per-query paper counters are therefore
//! byte-identical whether or not the budget ever sheds a page, under any
//! eviction pattern — the property the cross-map isolation suite pins
//! down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared byte-budget accountant. Cheap to clone via [`Arc`]; every
/// counter is a relaxed atomic (the budget bounds memory, it does not
/// order memory).
#[derive(Debug)]
pub struct BufferBudget {
    /// Bytes the attached pools may hold in total. `u64::MAX` means
    /// unlimited (the default every pool starts with).
    total: AtomicU64,
    /// Bytes of held frames across all attached pools.
    used: AtomicU64,
    /// Read-path re-admissions granted ([`BufferBudget::try_admit`]).
    admissions: AtomicU64,
    /// Read-path re-admissions denied for lack of headroom.
    denials: AtomicU64,
}

impl BufferBudget {
    /// A budget of `total_bytes` shared by every pool it is attached to.
    pub fn new(total_bytes: u64) -> Arc<BufferBudget> {
        Arc::new(BufferBudget {
            total: AtomicU64::new(total_bytes),
            used: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
            denials: AtomicU64::new(0),
        })
    }

    /// An unlimited budget: charges always fit, nothing is ever denied.
    pub fn unlimited() -> Arc<BufferBudget> {
        BufferBudget::new(u64::MAX)
    }

    /// The byte limit (`u64::MAX` = unlimited).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    pub fn is_unlimited(&self) -> bool {
        self.total() == u64::MAX
    }

    /// Bytes currently held by attached pools.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// How far the pools currently overshoot the budget (0 when under).
    /// The enforcement loop sheds at least this many bytes.
    pub fn over_budget(&self) -> u64 {
        self.used().saturating_sub(self.total())
    }

    pub fn admissions(&self) -> u64 {
        self.admissions.load(Ordering::Relaxed)
    }

    pub fn denials(&self) -> u64 {
        self.denials.load(Ordering::Relaxed)
    }

    /// Unconditionally account `bytes` as held. Build paths use this:
    /// a build must be able to hold the frames it mutates, so the budget
    /// may transiently overcommit; enforcement sheds later.
    ///
    /// Public so other residency-shaped consumers (the server's reply
    /// cache charges its entry bytes here, next to page residency) can
    /// share the same process-wide line.
    pub fn charge(&self, bytes: u64) {
        self.used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Return `bytes` to the budget (a frame shed, a pool dropped, or a
    /// cached reply evicted).
    pub fn release(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "budget release of bytes never charged");
    }

    /// Admission control for the read path: charge `bytes` only if they
    /// fit under the limit right now. Returns whether they were charged.
    pub fn try_admit(&self, bytes: u64) -> bool {
        let total = self.total();
        let mut used = self.used.load(Ordering::Relaxed);
        loop {
            if used + bytes > total {
                self.denials.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.used.compare_exchange_weak(
                used,
                used + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.admissions.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => used = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_and_overshoot() {
        let b = BufferBudget::new(1000);
        assert_eq!(b.over_budget(), 0);
        b.charge(600);
        b.charge(600);
        assert_eq!(b.used(), 1200);
        assert_eq!(b.over_budget(), 200);
        b.release(600);
        assert_eq!(b.over_budget(), 0);
    }

    #[test]
    fn try_admit_respects_the_line() {
        let b = BufferBudget::new(100);
        assert!(b.try_admit(60));
        assert!(!b.try_admit(60), "would overshoot");
        assert!(b.try_admit(40), "exact fit admitted");
        assert_eq!(b.used(), 100);
        assert_eq!(b.admissions(), 2);
        assert_eq!(b.denials(), 1);
    }

    #[test]
    fn unlimited_never_denies() {
        let b = BufferBudget::unlimited();
        assert!(b.is_unlimited());
        b.charge(u64::MAX / 4);
        assert!(b.try_admit(1 << 40));
        assert_eq!(b.denials(), 0);
        assert_eq!(b.over_budget(), 0);
    }

    #[test]
    fn concurrent_admissions_never_overshoot() {
        let b = BufferBudget::new(64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = &b;
                s.spawn(move || {
                    for _ in 0..1000 {
                        if b.try_admit(1) {
                            assert!(b.used() <= 64);
                            b.release(1);
                        }
                    }
                });
            }
        });
        assert_eq!(b.used(), 0);
    }
}
