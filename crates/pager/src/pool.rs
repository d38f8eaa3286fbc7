use crate::{BufferBudget, PageId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Multiplicative hasher for [`PageId`] keys. Page-id maps sit on the
/// query hot path (one lookup per page touch), where SipHash's keyed
/// mixing is needless work: page ids are small dense integers chosen by
/// the pool itself, not attacker-controlled, so a single odd-constant
/// multiply plus a fold of the high bits into the low ones (the bits a
/// `HashMap` actually indexes with) is collision-free enough and an
/// order of magnitude cheaper.
#[derive(Default)]
pub struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by PageId, which hashes as one u32).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, n: u32) {
        let mut x = self.0 ^ n as u64;
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }
}

/// Hash map from [`PageId`] keyed by [`PageIdHasher`].
type PageMap<V> = HashMap<PageId, V, BuildHasherDefault<PageIdHasher>>;

/// Process-unique pool identities, used to forget a [`PoolCtx`]'s touched
/// pages when it is reused against a different pool.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

/// Disk-transfer counters maintained by a [`BufferPool`] (build path) or a
/// [`PoolCtx`] (query path).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DiskStats {
    /// Pages fetched from storage because they were not pool-resident.
    pub reads: u64,
    /// Dirty pages written back to storage (on eviction or flush).
    pub writes: u64,
}

impl DiskStats {
    /// Total potential disk transfers, the quantity the paper tabulates.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl std::ops::Sub for DiskStats {
    type Output = DiskStats;
    fn sub(self, rhs: DiskStats) -> DiskStats {
        DiskStats {
            reads: self.reads - rhs.reads,
            writes: self.writes - rhs.writes,
        }
    }
}

/// Per-query page context: the pages one logical query has touched in a
/// shared (`&self`) pool, and the reads charged for them.
///
/// [`BufferPool::read_page`] charges a read the first time a query touches
/// a page the pool does not hold; later touches within the query are
/// free. The read counter is therefore a pure function of (query,
/// structure, pool residency at query start) — independent of how queries
/// interleave across threads. That is what makes parallel workload totals
/// equal sequential ones exactly. [`PoolCtx::reset`] starts the next
/// query.
///
/// The touched set is a dense array of epoch stamps indexed by
/// [`PageId`]: page `p` has been touched by the current query iff
/// `marks[p] == epoch`. A touch is one load and one store, with no
/// hashing; the array grows to the pool's page count on first use, and
/// starting the next query (or moving to another pool) only bumps the
/// epoch. Only when the `u32` epoch wraps is the array cleared.
#[derive(Default)]
pub struct PoolCtx {
    /// Epoch stamp per page id; `0` is never a live epoch.
    marks: Vec<u32>,
    /// The current query's stamp (`>= 1` once the context is bound).
    epoch: u32,
    /// Distinct pages stamped with the current epoch.
    touched: usize,
    /// Identity of the pool the stamps belong to. Page ids are only
    /// unique within one pool, so a context that wanders to a different
    /// pool starts a fresh epoch instead of treating the new pool's pages
    /// as already paid for.
    owner: Option<u64>,
    /// Potential disk accesses charged to this context: one read per
    /// distinct non-resident page touched.
    pub stats: DiskStats,
}

impl PoolCtx {
    pub fn new() -> Self {
        PoolCtx::default()
    }

    /// Forget the touched pages and zero the counters, readying the
    /// context for the next query without touching its stamp array.
    pub fn reset(&mut self) {
        self.next_epoch();
        self.stats = DiskStats::default();
    }

    /// Distinct pages touched by the current query.
    pub fn pages_touched(&self) -> usize {
        self.touched
    }

    /// Start a new touched set: bump the epoch, clearing the stamps only
    /// when it wraps (so a stale stamp can never equal a live epoch).
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        self.touched = 0;
    }

    /// Stamp `pid` for the current query; `true` on its first touch.
    #[inline]
    fn first_touch(&mut self, pid: PageId, pool_pages: usize) -> bool {
        let i = pid.index();
        if i >= self.marks.len() {
            // First use against this pool (or the pool grew): size the
            // array to the whole pool so later touches never resize.
            self.marks.resize(pool_pages.max(i + 1), 0);
        }
        let mark = &mut self.marks[i];
        if *mark == self.epoch {
            return false;
        }
        *mark = self.epoch;
        self.touched += 1;
        true
    }

    /// Test hook: jump the epoch so a test can push a context through the
    /// wrap without four billion queries.
    #[cfg(test)]
    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Observability counters for one pool's caching behavior (satellite of
/// the buffer-budget work: `STATS` reports these per map). Monotonic,
/// relaxed atomics; orthogonal to the paper's [`DiskStats`], which stay
/// byte-reproducible — these are allowed to depend on timing (budget
/// shedding, interleaving).
#[derive(Default, Debug)]
pub(crate) struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn evict(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// A snapshot of one pool's (or one map's summed) cache accounting.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Pages logically resident (tracked by the shards' resident maps —
    /// the set the paper counters' charge decision consults).
    pub resident_pages: u64,
    /// Frames that hold their page against the [`BufferBudget`] — the
    /// quantity the budget meters. An emptied frame keeps its hold, so
    /// this can exceed `resident_pages`; under budget pressure it drops
    /// while `resident_pages` stays put.
    pub cached_pages: u64,
    /// Total frames across the pool's shards.
    pub capacity_pages: u64,
    /// Page requests served from pool memory.
    pub hits: u64,
    /// Page requests that had to go to storage.
    pub misses: u64,
    /// Pages that lost their frame: build-path LRU repurposes plus
    /// budget-driven sheds.
    pub evictions: u64,
}

impl CacheStats {
    /// Element-wise accumulation (summing a map's pools, or all maps).
    pub fn add(&mut self, o: CacheStats) {
        self.resident_pages += o.resident_pages;
        self.cached_pages += o.cached_pages;
        self.capacity_pages += o.capacity_pages;
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
    }
}

/// One frame of the simulated buffer: which page it holds, nothing of the
/// page's bytes (those live once, in [`BufferPool`]'s page vector).
struct Frame {
    pid: Option<PageId>,
    dirty: bool,
    last_used: u64,
    /// Whether the frame is charged `page_size` bytes against the budget.
    /// Set on first use and on query-path re-admission, cleared by
    /// [`BufferPool::shed`]. Invariant: `!held` implies `!dirty`.
    held: bool,
}

/// One lock stripe of the pool: its own frames, resident map, LRU clock,
/// and build-path disk counters. Pages map to shards by `pid % shards`.
struct Shard {
    frames: Vec<Frame>,
    resident: PageMap<usize>,
    tick: u64,
    stats: DiskStats,
    page_size: usize,
    /// The byte budget this shard's frames are charged against (shared
    /// across pools; swapped by [`BufferPool::attach_budget`]).
    budget: Arc<BufferBudget>,
    /// The owning pool's cache counters (shared by all its shards).
    cache: Arc<CacheCounters>,
}

impl Shard {
    fn new(
        capacity: usize,
        page_size: usize,
        budget: Arc<BufferBudget>,
        cache: Arc<CacheCounters>,
    ) -> Self {
        Shard {
            // Frames are charged to the budget lazily, on first use, so an
            // idle pool costs nothing.
            frames: (0..capacity)
                .map(|_| Frame {
                    pid: None,
                    dirty: false,
                    last_used: 0,
                    held: false,
                })
                .collect(),
            resident: PageMap::default(),
            tick: 0,
            stats: DiskStats::default(),
            page_size,
            budget,
            cache,
        }
    }

    fn touch(&mut self, frame: usize) {
        self.tick += 1;
        self.frames[frame].last_used = self.tick;
    }

    /// Charge the frame to the budget if it was never used or was shed;
    /// returns whether it had to be.
    fn hold(&mut self, frame: usize) -> bool {
        let f = &mut self.frames[frame];
        if f.held {
            return false;
        }
        f.held = true;
        self.budget.charge(self.page_size as u64);
        true
    }

    fn held_bytes(&self) -> u64 {
        self.frames.iter().filter(|f| f.held).count() as u64 * self.page_size as u64
    }

    /// Choose a frame to (re)use: an empty one if available, else the LRU
    /// victim (a write if dirty).
    fn victim_frame(&mut self) -> usize {
        if let Some(i) = self.frames.iter().position(|f| f.pid.is_none()) {
            return i;
        }
        let victim = self
            .frames
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| f.last_used)
            .map(|(i, _)| i)
            .expect("shard capacity >= 1");
        if self.frames[victim].dirty {
            self.stats.writes += 1;
        }
        if let Some(pid) = self.frames[victim].pid {
            self.resident.remove(&pid);
            self.cache.evict();
        }
        victim
    }

    fn install(&mut self, frame: usize, pid: PageId, dirty: bool) {
        self.frames[frame].pid = Some(pid);
        self.frames[frame].dirty = dirty;
        self.resident.insert(pid, frame);
        self.touch(frame);
    }

    /// Bring `pid` into this shard, charging a read on a miss, and return
    /// its frame index.
    fn fetch(&mut self, pid: PageId) -> usize {
        if let Some(&frame) = self.resident.get(&pid) {
            self.touch(frame);
            if self.hold(frame) {
                // Logically resident but shed by the budget: the page
                // comes back from storage.
                self.stats.reads += 1;
                self.cache.miss();
            } else {
                self.cache.hit();
            }
            return frame;
        }
        let frame = self.victim_frame();
        self.install(frame, pid, false);
        self.stats.reads += 1;
        self.cache.miss();
        self.hold(frame);
        frame
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.budget.release(self.held_bytes());
    }
}

/// A page store with a fixed-capacity least-recently-used buffer in front
/// of it, lock-striped into shards so concurrent readers touch disjoint
/// locks.
///
/// Every page lives once, in the pool's page vector. The frames simulate
/// the paper's buffer: they record which pages it holds, which of those
/// are dirty, and their LRU order — the residency the disk counters are
/// charged against — but copy no bytes.
///
/// Two access paths coexist:
///
/// * the **build path** (`&mut self`: [`BufferPool::allocate`],
///   [`BufferPool::with_page`], [`BufferPool::with_page_mut`], ...) runs
///   the LRU simulation through `get_mut` — no lock traffic — and charges
///   misses and dirty evictions to the pool's internal [`DiskStats`],
///   preserving the paper's LRU-sensitive build measurements (Table 1,
///   Figure 6);
/// * the **query path** ([`BufferPool::read_page`], `&self`) borrows the
///   page and charges the caller's [`PoolCtx`] for non-resident pages. It
///   never installs pages or advances the LRU clock, so the resident set
///   is frozen during a read-only query phase — which is exactly why
///   per-query counters are reproducible under any thread interleaving.
///
/// Within each shard, LRU victim selection is a linear scan — the paper's
/// pools are tiny (16 frames), so this beats an intrusive list.
pub struct BufferPool {
    pages: Vec<Box<[u8]>>,
    page_size: usize,
    shards: Vec<RwLock<Shard>>,
    free_pages: Vec<PageId>,
    /// Process-unique identity, checked against [`PoolCtx::owner`].
    id: u64,
    /// The byte budget this pool's frames count against. Every pool
    /// starts on its own unlimited budget (standalone behavior exactly
    /// as before); a multi-map host re-attaches all pools to one shared
    /// budget via [`BufferPool::attach_budget`].
    budget: Arc<BufferBudget>,
    /// Cache observability counters (shared with the shards).
    cache: Arc<CacheCounters>,
}

/// Default number of lock stripes for pools large enough to split.
pub const DEFAULT_SHARDS: usize = 4;

impl BufferPool {
    /// A pool of `capacity` frames over `page_size`-byte pages, with the
    /// default shard count: up to [`DEFAULT_SHARDS`] stripes, but never
    /// fewer than two frames per shard. The stripes decide which pages
    /// share an LRU list, so the committed build counters depend on this
    /// formula.
    pub fn new(page_size: usize, capacity: usize) -> Self {
        let shards = DEFAULT_SHARDS.min(capacity / 2).max(1);
        Self::with_shards(page_size, capacity, shards)
    }

    /// A pool with an explicit shard count. `capacity` frames are spread
    /// as evenly as possible across `shards` lock stripes; page `p` lives
    /// in stripe `p % shards`.
    pub fn with_shards(page_size: usize, capacity: usize, shards: usize) -> Self {
        assert!(page_size >= 64, "page size too small to hold a node header");
        assert!(capacity >= 1, "pool needs at least one frame");
        assert!(
            (1..=capacity).contains(&shards),
            "shard count {shards} out of range 1..={capacity}"
        );
        let budget = BufferBudget::unlimited();
        let cache = Arc::new(CacheCounters::default());
        let shards = (0..shards)
            .map(|i| {
                let cap = capacity / shards + usize::from(i < capacity % shards);
                RwLock::new(Shard::new(
                    cap,
                    page_size,
                    Arc::clone(&budget),
                    Arc::clone(&cache),
                ))
            })
            .collect();
        BufferPool {
            pages: Vec::new(),
            page_size,
            shards,
            free_pages: Vec::new(),
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            budget,
            cache,
        }
    }

    /// Re-attach this pool to a (usually shared) byte budget, moving its
    /// current footprint from the old budget to the new one.
    pub fn attach_budget(&mut self, budget: &Arc<BufferBudget>) {
        if Arc::ptr_eq(&self.budget, budget) {
            return;
        }
        for s in &mut self.shards {
            let shard = s.get_mut().unwrap();
            let bytes = shard.held_bytes();
            shard.budget.release(bytes);
            budget.charge(bytes);
            shard.budget = Arc::clone(budget);
        }
        self.budget = Arc::clone(budget);
    }

    /// The budget this pool's frames are charged against.
    pub fn budget(&self) -> &Arc<BufferBudget> {
        &self.budget
    }

    /// Snapshot of this pool's cache accounting.
    pub fn cache_stats(&self) -> CacheStats {
        let mut out = CacheStats {
            hits: self.cache.hits.load(Ordering::Relaxed),
            misses: self.cache.misses.load(Ordering::Relaxed),
            evictions: self.cache.evictions.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for s in &self.shards {
            let s = s.read().unwrap();
            out.capacity_pages += s.frames.len() as u64;
            out.resident_pages += s.resident.len() as u64;
            out.cached_pages += s.frames.iter().filter(|f| f.held).count() as u64;
        }
        out
    }

    /// Budget enforcement: release up to `target_bytes` of held frames in
    /// LRU order (coldest `last_used` first). Returns the bytes freed.
    ///
    /// Only the budget charge goes; logical residency (the resident maps,
    /// LRU metadata) is untouched, so the query path's per-query paper
    /// counters are unaffected — a shed page still reads as "resident"
    /// (free). A shed dirty page is marked clean without counting a write
    /// in the pool's [`DiskStats`] (shedding is timing-dependent and must
    /// not perturb the paper's reproducible build counters); sheds do
    /// show in [`BufferPool::cache_stats`] as evictions.
    pub fn shed(&self, target_bytes: u64) -> u64 {
        let page = self.page_size as u64;
        let mut candidates: Vec<(u64, usize, usize)> = Vec::new();
        for (si, s) in self.shards.iter().enumerate() {
            let s = s.read().unwrap();
            for (fi, f) in s.frames.iter().enumerate() {
                if f.held {
                    candidates.push((f.last_used, si, fi));
                }
            }
        }
        candidates.sort_unstable();
        let mut freed = 0u64;
        for (lu, si, fi) in candidates {
            if freed >= target_bytes {
                break;
            }
            let mut s = self.shards[si].write().unwrap();
            let f = &mut s.frames[fi];
            // Re-validate under the write lock: skip frames that moved
            // (got touched or already shed) since we scanned them.
            if f.last_used != lu || !f.held {
                continue;
            }
            f.dirty = false;
            f.held = false;
            s.budget.release(page);
            s.cache.evict();
            freed += page;
        }
        freed
    }

    /// Query-path re-admission: after serving a logically-resident but
    /// shed page, hold its frame again if the budget has headroom. Never
    /// changes logical residency, so paper counters cannot observe it.
    fn readmit(&self, pid: PageId) {
        let page = self.page_size as u64;
        if !self.budget.try_admit(page) {
            return;
        }
        let mut shard = self.shards[self.shard_of(pid)].write().unwrap();
        match shard.resident.get(&pid).copied() {
            Some(frame) if !shard.frames[frame].held => shard.frames[frame].held = true,
            _ => {
                // Raced with another re-admission; hand the charge back.
                drop(shard);
                self.budget.release(page);
            }
        }
    }

    fn shard_of(&self, pid: PageId) -> usize {
        pid.0 as usize % self.shards.len()
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().frames.len())
            .sum()
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Process-unique identity of this pool. A [`PoolCtx`] (and any cache
    /// layered on top of one, such as the segment mini-cache in
    /// `lsdb-core`) uses this to detect that it has wandered to a
    /// different pool and must drop state keyed by page or record ids.
    pub fn pool_id(&self) -> u64 {
        self.id
    }

    /// Pages currently allocated (grown minus freed). Multiplied by the
    /// page size this is the structure's storage footprint.
    pub fn allocated_pages(&self) -> u32 {
        (self.pages.len() - self.free_pages.len()) as u32
    }

    /// Storage footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.allocated_pages() as u64 * self.page_size as u64
    }

    /// Build-path counters, summed over shards. Query-path accounting
    /// lives in each query's [`PoolCtx`], not here.
    pub fn stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for s in &self.shards {
            let s = s.read().unwrap();
            total.reads += s.stats.reads;
            total.writes += s.stats.writes;
        }
        total
    }

    pub fn reset_stats(&mut self) {
        for s in &mut self.shards {
            s.get_mut().unwrap().stats = DiskStats::default();
        }
    }

    /// Allocate a page (reusing freed pages first). The fresh page is
    /// zeroed, resident, and dirty; no read is charged because its contents
    /// need not come from disk.
    pub fn allocate(&mut self) -> PageId {
        let pid = match self.free_pages.pop() {
            Some(pid) => {
                self.pages[pid.index()].fill(0);
                pid
            }
            None => {
                self.pages
                    .push(vec![0u8; self.page_size].into_boxed_slice());
                PageId(self.pages.len() as u32 - 1)
            }
        };
        let idx = self.shard_of(pid);
        let shard = self.shards[idx].get_mut().unwrap();
        let frame = shard.victim_frame();
        shard.install(frame, pid, true);
        shard.hold(frame);
        pid
    }

    /// Release a page. It is dropped from the pool without write-back and
    /// becomes available for reuse by [`BufferPool::allocate`].
    pub fn free(&mut self, pid: PageId) {
        let idx = self.shard_of(pid);
        let shard = self.shards[idx].get_mut().unwrap();
        if let Some(frame) = shard.resident.remove(&pid) {
            shard.frames[frame].pid = None;
            shard.frames[frame].dirty = false;
        }
        debug_assert!(!self.free_pages.contains(&pid), "double free of {pid:?}");
        self.free_pages.push(pid);
    }

    /// Run `f` over the page contents (read-only; build path — misses are
    /// charged to the pool's own counters and update LRU state).
    pub fn with_page<T>(&mut self, pid: PageId, f: impl FnOnce(&[u8]) -> T) -> T {
        let idx = self.shard_of(pid);
        self.shards[idx].get_mut().unwrap().fetch(pid);
        f(&self.pages[pid.index()])
    }

    /// Run `f` over the page contents mutably; the page is marked dirty.
    pub fn with_page_mut<T>(&mut self, pid: PageId, f: impl FnOnce(&mut [u8]) -> T) -> T {
        let idx = self.shard_of(pid);
        let shard = self.shards[idx].get_mut().unwrap();
        let frame = shard.fetch(pid);
        shard.frames[frame].dirty = true;
        f(&mut self.pages[pid.index()])
    }

    /// Query path: borrow the page, charging all accounting to `ctx`
    /// instead of the pool.
    ///
    /// The read counter goes up only on the first touch of a page within a
    /// query, and only when the page is not resident (a potential disk
    /// access). Shared state is only ever read — the pool's resident set,
    /// LRU clock, and counters are untouched — so any number of contexts
    /// can run concurrently over `&self`.
    pub fn read_page<'p>(&'p self, pid: PageId, ctx: &mut PoolCtx) -> &'p [u8] {
        if ctx.owner != Some(self.id) {
            // The context last touched pages of a different pool (page ids
            // are per-pool); counters are kept, the touched set is not.
            ctx.next_epoch();
            ctx.owner = Some(self.id);
        }
        if ctx.first_touch(pid, self.pages.len()) {
            let shard = self.shards[self.shard_of(pid)].read().unwrap();
            match shard.resident.get(&pid).copied() {
                Some(frame) if shard.frames[frame].held => self.cache.hit(),
                resident => {
                    drop(shard);
                    self.cache.miss();
                    if resident.is_some() {
                        // Logically resident, shed by the budget: the paper
                        // charge stays free (the charge decision consults
                        // logical residency only), and the frame may be
                        // held again if the budget now has headroom.
                        self.readmit(pid);
                    } else {
                        ctx.stats.reads += 1;
                    }
                }
            }
        }
        &self.pages[pid.index()]
    }

    /// Write back every dirty resident page: each becomes clean and counts
    /// one write.
    pub fn flush(&mut self) {
        for s in &mut self.shards {
            let shard = s.get_mut().unwrap();
            for frame in &mut shard.frames {
                if frame.dirty && frame.pid.is_some() {
                    frame.dirty = false;
                    shard.stats.writes += 1;
                }
            }
        }
    }

    /// Drop every resident page (flushing dirty ones), emptying the pool.
    /// Useful to measure cold-cache query costs.
    pub fn clear(&mut self) {
        self.flush();
        for s in &mut self.shards {
            let shard = s.get_mut().unwrap();
            for f in &mut shard.frames {
                f.pid = None;
            }
            shard.resident.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single stripe: the whole pool is one global LRU, matching the exact
    /// eviction-order expectations below.
    fn pool1(frames: usize) -> BufferPool {
        BufferPool::with_shards(128, frames, 1)
    }

    #[test]
    fn allocate_is_zeroed_and_free_of_reads() {
        let mut p = pool1(4);
        let a = p.allocate();
        p.with_page(a, |d| assert!(d.iter().all(|&b| b == 0)));
        assert_eq!(p.stats().reads, 0, "fresh pages cost no read");
    }

    #[test]
    fn resident_pages_cost_nothing() {
        let mut p = BufferPool::new(128, 8);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 9);
        for _ in 0..100 {
            p.with_page(a, |d| assert_eq!(d[0], 9));
        }
        assert_eq!(
            p.stats(),
            DiskStats {
                reads: 0,
                writes: 0
            }
        );
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate(); // evicts a (LRU), which is dirty -> 1 write
        assert_eq!(p.stats().writes, 1);
        // b is resident, a is not.
        p.with_page(b, |_| {});
        assert_eq!(p.stats().reads, 0);
        p.with_page(a, |_| {}); // miss: evicts c (dirty)
        assert_eq!(p.stats().reads, 1);
        assert_eq!(p.stats().writes, 2);
        // Touch a, then load c: b must be the victim now (LRU).
        p.with_page(a, |_| {});
        p.with_page(c, |_| {});
        assert_eq!(p.stats().reads, 2);
        p.with_page(a, |_| {});
        assert_eq!(p.stats().reads, 2, "a stayed resident");
    }

    #[test]
    fn dirty_data_survives_eviction() {
        let mut p = pool1(2);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[5] = 77);
        // Force a out of the pool.
        let _b = p.allocate();
        let _c = p.allocate();
        p.with_page(a, |d| assert_eq!(d[5], 77));
    }

    #[test]
    fn clean_pages_evict_without_write() {
        let mut p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        p.flush();
        let w = p.stats().writes;
        // Re-read both (residents), then fault in a third page; the victim
        // is clean, so no write.
        p.with_page(a, |_| {});
        p.with_page(b, |_| {});
        let c = p.allocate();
        let _ = c;
        assert_eq!(p.stats().writes, w, "clean eviction writes nothing");
    }

    #[test]
    fn flush_writes_each_dirty_page_once() {
        let mut p = BufferPool::new(128, 8);
        let pids: Vec<_> = (0..5).map(|_| p.allocate()).collect();
        for &pid in &pids {
            p.with_page_mut(pid, |d| d[0] = 1);
        }
        p.flush();
        assert_eq!(p.stats().writes, 5);
        p.flush();
        assert_eq!(p.stats().writes, 5, "second flush is a no-op");
    }

    #[test]
    fn free_reuses_pages_and_shrinks_footprint() {
        let mut p = pool1(4);
        let a = p.allocate();
        let _b = p.allocate();
        assert_eq!(p.allocated_pages(), 2);
        p.free(a);
        assert_eq!(p.allocated_pages(), 1);
        let c = p.allocate();
        assert_eq!(c, a, "freed page is reused");
        assert_eq!(p.allocated_pages(), 2);
        assert_eq!(p.size_bytes(), 2 * 128);
    }

    #[test]
    fn freed_page_contents_are_zeroed_on_reuse() {
        let mut p = pool1(4);
        let a = p.allocate();
        p.with_page_mut(a, |d| d.fill(0xAB));
        p.free(a);
        let b = p.allocate();
        assert_eq!(b, a);
        p.with_page(b, |d| assert!(d.iter().all(|&x| x == 0)));
    }

    #[test]
    fn clear_empties_pool_and_future_reads_miss() {
        let mut p = pool1(4);
        let a = p.allocate();
        p.clear();
        p.reset_stats();
        p.with_page(a, |_| {});
        assert_eq!(p.stats().reads, 1, "cold read after clear");
    }

    #[test]
    fn stats_subtraction() {
        let a = DiskStats {
            reads: 10,
            writes: 4,
        };
        let b = DiskStats {
            reads: 3,
            writes: 1,
        };
        assert_eq!(
            a - b,
            DiskStats {
                reads: 7,
                writes: 3
            }
        );
        assert_eq!((a - b).total(), 10);
    }

    #[test]
    fn sharding_distributes_frames_and_pages() {
        let p = BufferPool::with_shards(128, 10, 4);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.capacity(), 10, "remainder frames are not lost");
    }

    #[test]
    fn ctx_charges_once_per_distinct_page() {
        let mut p = BufferPool::new(128, 4);
        let a = p.allocate();
        let b = p.allocate();
        p.with_page_mut(a, |d| d[0] = 1);
        p.with_page_mut(b, |d| d[0] = 2);
        p.clear(); // both now non-resident
        let mut ctx = PoolCtx::new();
        for _ in 0..10 {
            assert_eq!(p.read_page(a, &mut ctx)[0], 1);
            assert_eq!(p.read_page(b, &mut ctx)[0], 2);
        }
        assert_eq!(ctx.stats.reads, 2, "one charge per distinct page");
        assert_eq!(ctx.pages_touched(), 2);
        ctx.reset();
        assert_eq!(ctx.pages_touched(), 0);
        p.read_page(a, &mut ctx);
        assert_eq!(ctx.stats.reads, 1, "fresh context recharges");
    }

    #[test]
    fn ctx_reads_resident_pages_for_free_and_sees_dirty_data() {
        let mut p = BufferPool::new(128, 4);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 42); // dirty, resident, NOT flushed
        let mut ctx = PoolCtx::new();
        assert_eq!(p.read_page(a, &mut ctx)[0], 42, "sees dirty frame");
        assert_eq!(ctx.stats.reads, 0, "resident pages are free");
        assert_eq!(ctx.pages_touched(), 1);
    }

    #[test]
    fn read_path_leaves_pool_state_alone() {
        let mut p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate(); // a evicted
        p.flush();
        p.reset_stats();
        let mut ctx = PoolCtx::new();
        p.read_page(a, &mut ctx);
        assert_eq!(ctx.stats.reads, 1, "a was not resident");
        assert_eq!(p.stats(), DiskStats::default(), "pool counters untouched");
        // a was NOT installed: b and c are still the residents.
        let mut ctx2 = PoolCtx::new();
        p.read_page(b, &mut ctx2);
        p.read_page(c, &mut ctx2);
        assert_eq!(ctx2.stats.reads, 0, "residents undisturbed by read path");
    }

    #[test]
    fn concurrent_contexts_count_deterministically() {
        let mut p = BufferPool::with_shards(128, 8, 4);
        let pids: Vec<_> = (0..16).map(|_| p.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[0] = i as u8);
        }
        p.flush();
        let p = &p;
        let pids = &pids;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut ctx = PoolCtx::new();
                        for (i, &pid) in pids.iter().enumerate() {
                            assert_eq!(p.read_page(pid, &mut ctx)[0], i as u8);
                        }
                        ctx.stats.reads
                    })
                })
                .collect();
            for h in handles {
                let reads = h.join().unwrap();
                // 8 of the 16 pages are resident (each stripe holds its 2
                // most recent), 8 are not; every thread sees the same count.
                assert_eq!(reads, 8);
            }
        });
    }

    #[test]
    fn a_wandering_ctx_never_serves_another_pools_bytes() {
        // Same page id, two pools, different contents: a context reused
        // across pools must read each pool's own page.
        let mut a = BufferPool::new(64, 4);
        let mut b = BufferPool::new(64, 4);
        let pa = a.allocate();
        let pb = b.allocate();
        assert_eq!(pa, pb, "both pools hand out the same first page id");
        a.with_page_mut(pa, |d| d[0] = 0xAA);
        b.with_page_mut(pb, |d| d[0] = 0xBB);
        let mut ctx = PoolCtx::new();
        assert_eq!(a.read_page(pa, &mut ctx)[0], 0xAA);
        assert_eq!(b.read_page(pb, &mut ctx)[0], 0xBB);
        assert_eq!(a.read_page(pa, &mut ctx)[0], 0xAA);
    }

    /// A pool of `pages` pages with none resident: every page costs one
    /// read the first time a query touches it.
    fn cold_pool(pages: usize) -> (BufferPool, Vec<PageId>) {
        let mut p = BufferPool::new(64, 4);
        let pids: Vec<_> = (0..pages).map(|_| p.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[0] = i as u8);
        }
        p.clear();
        (p, pids)
    }

    #[test]
    fn stamped_ctx_charges_afresh_across_an_epoch_wrap() {
        let (p, pids) = cold_pool(12);
        let mut ctx = PoolCtx::new();
        // Stamp every page at epoch 1, then jump to just before the wrap:
        // the wrap must clear those stamps, or epoch 1 comes round again
        // and finds the pages already paid for.
        for &pid in &pids {
            p.read_page(pid, &mut ctx);
        }
        ctx.set_epoch(u32::MAX - 2);
        for query in 0..5 {
            ctx.reset();
            // Three distinct pages, each touched three times.
            for _ in 0..3 {
                for &pid in &pids[query..query + 3] {
                    assert_eq!(p.read_page(pid, &mut ctx)[0], pid.0 as u8);
                }
            }
            assert_eq!(ctx.stats.reads, 3, "query {query}: one read per page");
            assert_eq!(ctx.pages_touched(), 3, "query {query}");
        }
        assert_eq!(ctx.epoch, 3, "the epoch wrapped to 1 and moved on");
    }

    #[test]
    fn stamped_ctx_alternating_between_pools_charges_each_afresh() {
        // Different page counts, so the stamp array is sized by one pool
        // and then has to grow for the other.
        let (small, small_pids) = cold_pool(3);
        let (large, large_pids) = cold_pool(40);
        let mut ctx = PoolCtx::new();
        let mut expect = 0;
        for round in 0..4 {
            let (pool, pids) = if round % 2 == 0 {
                (&small, &small_pids)
            } else {
                (&large, &large_pids)
            };
            for _ in 0..2 {
                for &pid in pids {
                    assert_eq!(pool.read_page(pid, &mut ctx)[0], pid.0 as u8);
                }
            }
            expect += pids.len() as u64;
            assert_eq!(ctx.stats.reads, expect, "round {round}: each page once");
            assert_eq!(ctx.pages_touched(), pids.len(), "round {round}");
        }
    }

    #[test]
    fn pages_touched_counts_distinct_pages() {
        let (p, pids) = cold_pool(10);
        let mut ctx = PoolCtx::new();
        for (k, &pid) in pids.iter().enumerate() {
            // Touch page k, then every page before it again.
            p.read_page(pid, &mut ctx);
            for &again in &pids[..k] {
                p.read_page(again, &mut ctx);
            }
            assert_eq!(ctx.pages_touched(), k + 1);
        }
        assert_eq!(ctx.stats.reads, 10);
        ctx.reset();
        assert_eq!(ctx.pages_touched(), 0);
        assert_eq!(ctx.stats, DiskStats::default());
    }

    #[test]
    fn budget_accounts_physical_bytes_across_pools() {
        let budget = BufferBudget::new(1 << 20);
        let mut a = BufferPool::new(128, 4);
        let mut b = BufferPool::new(128, 4);
        a.attach_budget(&budget);
        b.attach_budget(&budget);
        assert_eq!(budget.used(), 0, "lazy frames cost nothing");
        let _ = a.allocate();
        let _ = a.allocate();
        let _ = b.allocate();
        assert_eq!(budget.used(), 3 * 128);
        drop(a);
        assert_eq!(budget.used(), 128, "dropping a pool releases its bytes");
        drop(b);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn attach_budget_moves_existing_footprint() {
        let mut p = BufferPool::new(128, 4);
        let _ = p.allocate();
        let _ = p.allocate();
        assert_eq!(p.budget().used(), 2 * 128, "charged to the default budget");
        let shared = BufferBudget::new(4096);
        p.attach_budget(&shared);
        assert_eq!(shared.used(), 2 * 128, "footprint moved over");
        assert!(Arc::ptr_eq(p.budget(), &shared));
    }

    #[test]
    fn shed_drops_coldest_bytes_and_reads_survive() {
        let mut p = pool1(4);
        let pids: Vec<_> = (0..4).map(|_| p.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[0] = i as u8 + 1);
        }
        // Touch pages 2 and 3 so 0 and 1 are the cold ones. All four are
        // dirty — shed marks them clean without counting a write.
        p.with_page(pids[2], |_| {});
        p.with_page(pids[3], |_| {});
        let freed = p.shed(2 * 128);
        assert_eq!(freed, 2 * 128);
        let cs = p.cache_stats();
        assert_eq!(cs.resident_pages, 4, "logical residency untouched");
        assert_eq!(cs.cached_pages, 2, "two frames shed");
        assert_eq!(p.stats().writes, 0, "shed counts no write");
        // Every page still reads back correctly.
        for (i, &pid) in pids.iter().enumerate() {
            let mut ctx = PoolCtx::new();
            assert_eq!(p.read_page(pid, &mut ctx)[0], i as u8 + 1);
        }
    }

    #[test]
    fn shed_pages_stay_free_for_paper_counters() {
        // The core byte-identity property: a query's DiskStats must not
        // change whether or not the budget shed pages under it.
        let mut p = pool1(4);
        let pids: Vec<_> = (0..6).map(|_| p.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            p.with_page_mut(pid, |d| d[0] = 10 + i as u8);
        }
        p.flush();
        // Residency now: pids[2..6] resident, pids[0..2] evicted.
        let baseline = {
            let mut ctx = PoolCtx::new();
            for &pid in &pids {
                p.read_page(pid, &mut ctx);
            }
            ctx.stats
        };
        assert_eq!(baseline.reads, 2, "two logically non-resident pages");
        // Shed every frame; logical residency is frozen.
        let freed = p.shed(u64::MAX);
        assert_eq!(freed, 4 * 128);
        let mut ctx = PoolCtx::new();
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(p.read_page(pid, &mut ctx)[0], 10 + i as u8);
        }
        assert_eq!(ctx.stats, baseline, "shedding is invisible to counters");
    }

    #[test]
    fn shed_pages_readmit_under_headroom_but_not_over_budget() {
        let mut p = pool1(2);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 5);
        p.flush();
        // Tight budget: exactly one page fits, and the pool holds one
        // frame (only one page was ever allocated).
        let budget = BufferBudget::new(128);
        p.attach_budget(&budget);
        assert_eq!(budget.used(), 128);
        p.shed(u64::MAX);
        assert_eq!(budget.used(), 0);
        // Read the shed page: logically free, and re-admitted because the
        // budget has headroom again.
        let mut ctx = PoolCtx::new();
        assert_eq!(p.read_page(a, &mut ctx)[0], 5);
        assert_eq!(ctx.stats.reads, 0, "resident page stays free");
        assert_eq!(budget.used(), 128, "frame re-admitted");
        assert_eq!(budget.admissions(), 1);
        assert_eq!(p.cache_stats().cached_pages, 1);
        // Second read is a pool hit again (a fresh ctx touches it anew).
        let hits = p.cache_stats().hits;
        let mut ctx2 = PoolCtx::new();
        assert_eq!(p.read_page(a, &mut ctx2)[0], 5);
        assert_eq!(p.cache_stats().hits, hits + 1);

        // Now starve the budget: shed, fill it from elsewhere, and the
        // re-read must be denied re-admission yet still serve the bytes.
        p.shed(u64::MAX);
        budget.charge(128);
        let mut ctx3 = PoolCtx::new();
        assert_eq!(p.read_page(a, &mut ctx3)[0], 5);
        assert_eq!(ctx3.stats.reads, 0, "still logically resident");
        assert_eq!(budget.denials(), 1);
        assert_eq!(p.cache_stats().cached_pages, 0, "not re-admitted");
    }

    #[test]
    fn cache_stats_track_hits_misses_and_evictions() {
        let mut p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate(); // evicts a
        let cs = p.cache_stats();
        assert_eq!(cs.evictions, 1);
        assert_eq!(cs.capacity_pages, 2);
        p.with_page(b, |_| {}); // hit
        p.with_page(a, |_| {}); // miss (evicts c: 2nd eviction)
        let cs = p.cache_stats();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.misses, 1);
        assert_eq!(cs.evictions, 2);
        let mut agg = CacheStats::default();
        agg.add(cs);
        agg.add(cs);
        assert_eq!(agg.hits, 2);
        let _ = c;
    }
}
