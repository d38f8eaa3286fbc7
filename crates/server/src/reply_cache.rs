//! Epoch-tagged reply cache: byte-identical hot-query serving.
//!
//! The paper's workloads are heavily skewed probes over mostly-static
//! maps, so the same few queries arrive over and over — and every one
//! re-traverses the index from the root. This module caches *encoded
//! reply bytes* per map, keyed by `(mutation epoch, canonical request
//! bytes)`: a hit returns bit-for-bit what a cold execution would (ids
//! **and** the paper's six counters travel inside the stored body), so
//! the cache is invisible to every client and to `STATS` by
//! construction. The stored [`QueryStats`] are folded into the map's
//! [`lsdb_core::SharedStats`] on a hit exactly as a cold execution
//! folds its context snapshot, which keeps the `STATS` aggregates
//! byte-identical with the cache on or off.
//!
//! ## Invalidation
//!
//! The key's epoch component is [`lsdb_core::LiveIndex::epoch`], which
//! ticks on every `INSERT`, `DELETE`, and `FLUSH`. A mutation therefore
//! never *touches* the cache — it simply moves probes to a new epoch,
//! lazily orphaning every older entry. Orphans are reclaimed first by
//! the eviction clock (an entry whose epoch is not the map's current
//! epoch is evicted on sight, counted as an invalidation).
//!
//! ## Admission and eviction
//!
//! Entry bytes are charged to the process-wide
//! [`lsdb_pager::BufferBudget`] next to page residency — the reply
//! cache never overshoots the budget (it admits via
//! [`BufferBudget::try_admit`], unlike pools, whose builds may
//! transiently overcommit) — and additionally to a cache-specific byte
//! cap ([`ReplyCachePool`], the `serve --cache-bytes` knob) shared by
//! every map's cache.
//!
//! When the pool is full, a newcomer must *earn* admission: a four-row
//! count-min sketch with periodic halving estimates request
//! frequencies, and the newcomer is admitted only by evicting victims
//! that are colder than it (TinyLFU-style). Eviction runs a segmented
//! second-chance clock: new entries enter a probation ring; a hit
//! promotes an entry to the protected ring (lazily — the move happens
//! when the clock next reaches it); victims are taken from probation
//! first, each spared one lap if its reference bit is set. One polygon
//! scan's worth of cold one-shot queries therefore cannot flush the hot
//! set: the scan's entries die in probation with sketch frequency 1,
//! and can evict nothing hotter than themselves.

use crate::protocol::ReplyCacheWire;
use lsdb_core::QueryStats;
use lsdb_pager::BufferBudget;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed per-entry overhead charged on top of key + body bytes (map
/// entry, ring slot, stats, flags — an estimate, deliberately on the
/// generous side so the cap is honest).
const ENTRY_OVERHEAD: u64 = 112;

/// Process-wide accounting shared by every map's [`ReplyCache`]: the
/// byte cap (`serve --cache-bytes`; 0 disables caching) and the bytes
/// currently held across all maps. Entry bytes are *also* charged to
/// the buffer budget, so `STATS`' budget gauge sees cached replies next
/// to resident pages.
pub struct ReplyCachePool {
    cap: AtomicU64,
    used: AtomicU64,
    budget: Arc<BufferBudget>,
}

impl ReplyCachePool {
    pub fn new(budget: Arc<BufferBudget>) -> Arc<ReplyCachePool> {
        Arc::new(ReplyCachePool {
            cap: AtomicU64::new(0),
            used: AtomicU64::new(0),
            budget,
        })
    }

    /// The pool-wide byte cap (0 = caching disabled).
    pub fn cap(&self) -> u64 {
        self.cap.load(Ordering::Relaxed)
    }

    /// Set the pool-wide byte cap. Shrinking below the current holdings
    /// does not evict eagerly; the next insert's eviction loop brings
    /// the pool back under the line.
    pub fn set_cap(&self, bytes: u64) {
        self.cap.store(bytes, Ordering::Relaxed);
    }

    /// Bytes currently held across every map's cache.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

/// One cached reply: the encoded body (opcode, stats and payload, no
/// envelope) plus the counter snapshot to fold on a hit.
struct Entry {
    body: Arc<[u8]>,
    stats: QueryStats,
    bytes: u64,
    /// Second-chance bit: set on every hit, spent by the clock.
    ref_bit: bool,
    /// Logically promoted out of probation by a hit; physically moved
    /// to the protected ring when the clock next reaches it.
    protected: bool,
}

type Key = (u64, Box<[u8]>);

struct Inner {
    entries: HashMap<Key, Entry>,
    probation: VecDeque<Key>,
    protected: VecDeque<Key>,
    /// This map's share of the pool (mirrors the sum of entry bytes).
    bytes: u64,
    sketch: FreqSketch,
}

/// Per-map reply cache. All maps' caches share one [`ReplyCachePool`]
/// (and through it the process buffer budget); each map keeps its own
/// entries, rings, sketch, and counters, so `STATS` can report and
/// `CLOSE_MAP` can drop exactly one slot's entries.
pub struct ReplyCache {
    pool: Arc<ReplyCachePool>,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    rejections: AtomicU64,
}

impl ReplyCache {
    pub fn new(pool: Arc<ReplyCachePool>) -> ReplyCache {
        ReplyCache {
            pool,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                probation: VecDeque::new(),
                protected: VecDeque::new(),
                bytes: 0,
                sketch: FreqSketch::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        }
    }

    /// Whether probes and inserts do anything right now.
    pub fn on(&self) -> bool {
        self.pool.cap() > 0
    }

    /// Look up the reply cached for `req_bytes` at `epoch`. A hit
    /// returns the stored body and counter snapshot and refreshes the
    /// entry's clock state; every probe (hit or miss) also feeds the
    /// frequency sketch that admission consults.
    pub fn probe(&self, epoch: u64, req_bytes: &[u8]) -> Option<(Arc<[u8]>, QueryStats)> {
        if !self.on() {
            return None;
        }
        let mut inner = self.inner.lock().expect("reply cache lock");
        inner.sketch.touch(hash64(req_bytes));
        let key = (epoch, Box::from(req_bytes));
        if let Some(e) = inner.entries.get_mut(&key) {
            e.ref_bit = true;
            e.protected = true;
            let out = (Arc::clone(&e.body), e.stats);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(out)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Offer the reply executed for `req_bytes` at `epoch` for caching.
    /// May decline: oversized entries, a full pool whose victims are
    /// all hotter than the newcomer, or a budget with no headroom.
    pub fn insert(&self, epoch: u64, req_bytes: &[u8], body: Arc<[u8]>, stats: QueryStats) {
        if !self.on() {
            return;
        }
        let cap = self.pool.cap();
        let bytes = req_bytes.len() as u64 + body.len() as u64 + ENTRY_OVERHEAD;
        // One entry may take at most an eighth of the pool: a giant
        // polygon walk must not monopolize the cache.
        if bytes > cap / 8 {
            self.rejections.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut inner = self.inner.lock().expect("reply cache lock");
        let key: Key = (epoch, Box::from(req_bytes));
        if inner.entries.contains_key(&key) {
            return; // racing duplicate execution; first one won
        }
        let newcomer_freq = inner.sketch.estimate(hash64(req_bytes));
        // Make room under the pool cap by evicting entries colder than
        // the newcomer (orphans from older epochs go first and free).
        while self.pool.used() + bytes > cap {
            match self.evict_one(&mut inner, epoch, Some(newcomer_freq)) {
                Evicted::Yes => {}
                Evicted::VictimHotter | Evicted::Empty => {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        // Charge the process budget; if pages hold every byte, retry
        // once after shedding our own coldest entry, then give up.
        while !self.pool.budget.try_admit(bytes) {
            match self.evict_one(&mut inner, epoch, Some(newcomer_freq)) {
                Evicted::Yes => {}
                Evicted::VictimHotter | Evicted::Empty => {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        self.pool.used.fetch_add(bytes, Ordering::Relaxed);
        inner.bytes += bytes;
        inner.probation.push_back(key.clone());
        inner.entries.insert(
            key,
            Entry {
                body,
                stats,
                bytes,
                ref_bit: false,
                protected: false,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Evict up to `bytes` from this map's cache regardless of
    /// admission (the catalog's budget-pressure shedding path). Returns
    /// the bytes actually freed.
    pub fn evict_bytes(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("reply cache lock");
        let before = inner.bytes;
        while before - inner.bytes < bytes {
            if !matches!(self.evict_one(&mut inner, u64::MAX, None), Evicted::Yes) {
                break;
            }
        }
        before - inner.bytes
    }

    /// Drop every entry (CLOSE_MAP, per-map disable, shedding a whole
    /// slot); the bytes return to the pool and the budget.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("reply cache lock");
        let freed = inner.bytes;
        if freed > 0 {
            self.pool.used.fetch_sub(freed, Ordering::Relaxed);
            self.pool.budget.release(freed);
            self.evictions
                .fetch_add(inner.entries.len() as u64, Ordering::Relaxed);
        }
        inner.entries.clear();
        inner.probation.clear();
        inner.protected.clear();
        inner.bytes = 0;
    }

    /// This map's cached-entry count.
    pub fn entries(&self) -> u64 {
        self.inner.lock().expect("reply cache lock").entries.len() as u64
    }

    /// This map's share of the pool, in bytes.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().expect("reply cache lock").bytes
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The wire block `STATS` reports for this map.
    pub fn wire(&self) -> ReplyCacheWire {
        ReplyCacheWire {
            enabled: self.on(),
            entries: self.entries(),
            bytes: self.bytes(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
        }
    }

    /// One step of the segmented second-chance clock. `current_epoch`
    /// identifies orphans (evicted on sight); `newcomer_freq`, when
    /// present, is the TinyLFU admission duel — a clean victim at least
    /// as hot as the newcomer refuses to die ([`Evicted::VictimHotter`]).
    fn evict_one(
        &self,
        inner: &mut Inner,
        current_epoch: u64,
        newcomer_freq: Option<u8>,
    ) -> Evicted {
        // Bounded laps: every ring entry is touched at most twice (one
        // spare of its ref bit, one decision).
        let mut steps = 2 * (inner.probation.len() + inner.protected.len()) + 2;
        while steps > 0 {
            steps -= 1;
            let from_probation = !inner.probation.is_empty();
            let Some(key) = (if from_probation {
                inner.probation.pop_front()
            } else {
                inner.protected.pop_front()
            }) else {
                return Evicted::Empty;
            };
            let Some(e) = inner.entries.get_mut(&key) else {
                continue; // stale ring slot (entry already cleared)
            };
            // Orphans (older epochs can never be probed again) free on
            // sight, no second chance, no admission duel.
            if key.0 != current_epoch && current_epoch != u64::MAX {
                let bytes = e.bytes;
                inner.entries.remove(&key);
                inner.bytes -= bytes;
                self.pool.used.fetch_sub(bytes, Ordering::Relaxed);
                self.pool.budget.release(bytes);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                return Evicted::Yes;
            }
            if from_probation && e.protected {
                // Lazy promotion: the hit marked it; the clock moves it.
                inner.protected.push_back(key);
                continue;
            }
            if e.ref_bit {
                e.ref_bit = false;
                if from_probation {
                    inner.probation.push_back(key);
                } else {
                    inner.protected.push_back(key);
                }
                continue;
            }
            // Clean victim: the admission duel (if any) decides.
            if let Some(freq) = newcomer_freq {
                let victim_freq = inner.sketch.estimate(hash64(&key.1));
                if victim_freq >= freq {
                    // Put it back where it came from; the newcomer is
                    // not hot enough to displace it.
                    if from_probation {
                        inner.probation.push_front(key);
                    } else {
                        inner.protected.push_front(key);
                    }
                    return Evicted::VictimHotter;
                }
            }
            let bytes = e.bytes;
            inner.entries.remove(&key);
            inner.bytes -= bytes;
            self.pool.used.fetch_sub(bytes, Ordering::Relaxed);
            self.pool.budget.release(bytes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return Evicted::Yes;
        }
        Evicted::Empty
    }
}

enum Evicted {
    Yes,
    VictimHotter,
    Empty,
}

/// Four-row count-min sketch over request-byte hashes, 2048 4-bit-ish
/// (u8, saturating) counters per row, halved every `8 * WIDTH` touches
/// so old popularity decays — the classic TinyLFU aging scheme, sized
/// for tens of thousands of distinct requests.
struct FreqSketch {
    rows: Vec<u8>,
    touches: u32,
}

const SKETCH_WIDTH: usize = 2048;
const SKETCH_ROWS: usize = 4;

impl FreqSketch {
    fn new() -> FreqSketch {
        FreqSketch {
            rows: vec![0; SKETCH_WIDTH * SKETCH_ROWS],
            touches: 0,
        }
    }

    fn slot(row: usize, h: u64) -> usize {
        row * SKETCH_WIDTH + ((h >> (16 * row)) as usize & (SKETCH_WIDTH - 1))
    }

    fn touch(&mut self, h: u64) {
        for row in 0..SKETCH_ROWS {
            let s = Self::slot(row, h);
            self.rows[s] = self.rows[s].saturating_add(1);
        }
        self.touches += 1;
        if self.touches >= (8 * SKETCH_WIDTH) as u32 {
            self.touches = 0;
            for c in &mut self.rows {
                *c >>= 1;
            }
        }
    }

    fn estimate(&self, h: u64) -> u8 {
        (0..SKETCH_ROWS)
            .map(|row| self.rows[Self::slot(row, h)])
            .min()
            .unwrap_or(0)
    }
}

fn hash64(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: u64) -> Arc<ReplyCachePool> {
        let p = ReplyCachePool::new(BufferBudget::unlimited());
        p.set_cap(cap);
        p
    }

    fn body(n: usize) -> Arc<[u8]> {
        vec![0xAB; n].into()
    }

    #[test]
    fn probe_insert_roundtrip_and_counters() {
        let cache = ReplyCache::new(pool(1 << 20));
        assert!(cache.probe(0, b"q1").is_none());
        cache.insert(0, b"q1", body(40), QueryStats::default());
        let (b, _) = cache.probe(0, b"q1").expect("hit");
        assert_eq!(b.len(), 40);
        let w = cache.wire();
        assert_eq!((w.hits, w.misses, w.insertions), (1, 1, 1));
        assert_eq!(w.entries, 1);
        assert!(w.bytes > 40);
    }

    #[test]
    fn epoch_change_orphans_entries() {
        let cache = ReplyCache::new(pool(1 << 20));
        cache.insert(3, b"q", body(16), QueryStats::default());
        assert!(cache.probe(3, b"q").is_some());
        assert!(cache.probe(4, b"q").is_none(), "new epoch never hits");
    }

    #[test]
    fn cap_zero_disables_everything() {
        let cache = ReplyCache::new(pool(0));
        assert!(!cache.on());
        cache.insert(0, b"q", body(16), QueryStats::default());
        assert!(cache.probe(0, b"q").is_none());
        let w = cache.wire();
        assert_eq!((w.hits, w.misses, w.insertions), (0, 0, 0));
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let cache = ReplyCache::new(pool(1024));
        cache.insert(0, b"big", body(900), QueryStats::default());
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.wire().rejections, 1);
    }

    #[test]
    fn cold_scan_cannot_flush_hot_entries() {
        // Fill a pool exactly with entries made hot by repeated probes,
        // then stream one-shot newcomers: the hot set must survive.
        // (Pool sized at exactly 8 entries — the oversize rule caps one
        // entry at an eighth of the pool, so this is the smallest full
        // pool the cache accepts.)
        let cap = 8 * (ENTRY_OVERHEAD + 2 + 64);
        let cache = ReplyCache::new(pool(cap));
        let hot: Vec<Vec<u8>> = (0..8).map(|i| format!("h{i}").into_bytes()).collect();
        for q in &hot {
            cache.probe(0, q);
            cache.insert(0, q, body(64), QueryStats::default());
        }
        for q in &hot {
            for _ in 0..8 {
                assert!(cache.probe(0, q).is_some());
            }
        }
        for i in 0..64u32 {
            let q = format!("scan{i}").into_bytes();
            cache.probe(0, &q);
            cache.insert(0, &q, body(60), QueryStats::default());
        }
        let survivors = hot.iter().filter(|q| cache.probe(0, q).is_some()).count();
        assert!(
            survivors >= 7,
            "hot set flushed by a cold scan: {survivors}/8 survived"
        );
    }

    #[test]
    fn orphans_evict_before_live_entries() {
        let cap = 8 * (ENTRY_OVERHEAD + 2 + 64);
        let cache = ReplyCache::new(pool(cap));
        for i in 0..8u32 {
            let q = format!("o{i}").into_bytes();
            cache.insert(0, &q, body(64), QueryStats::default());
        }
        // Epoch moved on; the next inserts reclaim the orphans even
        // though the orphans were never "colder" in the sketch.
        for i in 0..8u32 {
            let q = format!("n{i}").into_bytes();
            cache.probe(1, &q);
            cache.insert(1, &q, body(64), QueryStats::default());
        }
        let w = cache.wire();
        assert_eq!(w.invalidations, 8, "orphans reclaimed: {w:?}");
        for i in 0..8u32 {
            let q = format!("n{i}").into_bytes();
            assert!(cache.probe(1, &q).is_some());
        }
    }

    #[test]
    fn budget_denial_rejects_after_trying_to_shed() {
        let budget = BufferBudget::new(256);
        budget.charge(256); // pages hold every byte
        let p = ReplyCachePool::new(Arc::clone(&budget));
        p.set_cap(1 << 20);
        let cache = ReplyCache::new(p);
        cache.insert(0, b"q", body(16), QueryStats::default());
        assert_eq!(cache.entries(), 0, "no headroom, nothing to shed");
        assert_eq!(cache.wire().rejections, 1);
        budget.release(200);
        cache.insert(0, b"q", body(16), QueryStats::default());
        assert_eq!(cache.entries(), 1, "headroom appeared");
        assert_eq!(budget.used(), 56 + cache.bytes());
    }

    #[test]
    fn clear_releases_pool_and_budget() {
        let budget = BufferBudget::new(1 << 20);
        let p = ReplyCachePool::new(Arc::clone(&budget));
        p.set_cap(1 << 20);
        let cache = ReplyCache::new(Arc::clone(&p));
        for i in 0..5u32 {
            cache.insert(
                0,
                format!("q{i}").as_bytes(),
                body(64),
                QueryStats::default(),
            );
        }
        assert!(p.used() > 0);
        assert_eq!(budget.used(), p.used());
        cache.clear();
        assert_eq!(p.used(), 0);
        assert_eq!(budget.used(), 0);
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn evict_bytes_frees_at_least_the_ask() {
        let cache = ReplyCache::new(pool(1 << 20));
        for i in 0..8u32 {
            cache.insert(
                0,
                format!("q{i}").as_bytes(),
                body(64),
                QueryStats::default(),
            );
        }
        let before = cache.bytes();
        let freed = cache.evict_bytes(200);
        assert!(freed >= 200, "freed {freed}");
        assert_eq!(cache.bytes(), before - freed);
        assert!(cache.evict_bytes(u64::MAX) > 0, "drains the rest");
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn sketch_estimates_and_ages() {
        let mut s = FreqSketch::new();
        for _ in 0..10 {
            s.touch(hash64(b"hot"));
        }
        s.touch(hash64(b"cold"));
        assert!(s.estimate(hash64(b"hot")) > s.estimate(hash64(b"cold")));
        assert_eq!(s.estimate(hash64(b"never")), 0);
        for _ in 0..(8 * SKETCH_WIDTH) {
            s.touch(hash64(b"noise"));
        }
        assert!(
            s.estimate(hash64(b"hot")) <= 5,
            "aging halves old popularity"
        );
    }
}
