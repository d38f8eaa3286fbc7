use crate::{BufferBudget, MemStorage, PageId, Storage};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
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

/// The infallible convenience API panics on storage I/O errors (impossible
/// for [`MemStorage`]); callers with fallible backings use the `try_*`
/// methods instead.
fn io_abort(e: io::Error) -> ! {
    panic!("lsdb-pager: storage I/O failed (use the try_* API to handle this): {e}")
}

/// Process-unique pool identities, used to invalidate a [`PoolCtx`]'s pins
/// when it is reused against a different pool.
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

/// One pinned page copy held by a [`PoolCtx`], together with the
/// accounting needed to *replay* its charge across query boundaries.
struct Pin {
    data: Box<[u8]>,
    /// Whether the first touch of this page charged a read (the page was
    /// non-resident in the frozen pool). Replayed verbatim when a later
    /// query of the same batch re-touches the warm pin.
    charged: bool,
    /// The context epoch the pin was last touched in. A pin whose epoch is
    /// behind the context's is *warm*: its bytes are still valid (the pool
    /// is frozen on the read path) but it has not been charged to the
    /// current query yet.
    epoch: u64,
}

/// Per-query page context: the pin set and disk counters of one logical
/// query against a shared (`&self`) pool.
///
/// [`BufferPool::read_page`] pins a copy of each page a query touches, so
/// repeated accesses within the query are free and, crucially, the read
/// counter is a pure function of (query, structure, pool residency at query
/// start) — independent of how queries interleave across threads. That is
/// what makes parallel workload totals equal sequential ones exactly.
///
/// # Warm pins and query epochs
///
/// A context separates two lifetimes: the pin *bytes* (kept as long as the
/// context is used against one pool, in one read-only phase) and the pin
/// *charges* (per query). [`PoolCtx::retire_pins`] advances the context's
/// epoch and zeroes the counters without dropping the pinned copies; the
/// next query that touches a warm pin replays exactly the charge the pin
/// recorded when it was created. Because the query path never installs or
/// evicts pool pages, residency — and therefore the charge — cannot have
/// changed in between, so per-query counters are byte-identical to those
/// of a freshly reset context while the page bytes stay warm. Callers
/// that *mutate* the pool between queries must use [`PoolCtx::reset`]
/// instead.
#[derive(Default)]
pub struct PoolCtx {
    pinned: PageMap<Pin>,
    /// Retired pin buffers kept for reuse: [`PoolCtx::reset`] moves pinned
    /// copies here instead of freeing them, and the next pins pop a
    /// matching-size buffer instead of allocating. A warmed-up context
    /// therefore runs whole queries without touching the allocator.
    spare: Vec<Box<[u8]>>,
    /// Identity of the pool the pins were taken against. Page ids are only
    /// unique within one pool, so a context that wanders to a different
    /// pool drops its pins instead of serving the old pool's bytes.
    owner: Option<u64>,
    /// The pool's [`BufferPool::version`] when the pins were taken. A
    /// build-path mutation bumps the pool version, so a context whose
    /// version is stale drops its pins on the next pin: its copies (and
    /// recorded charges) describe a pool state that no longer exists.
    /// During a read-only phase the version never moves and this check
    /// costs one integer compare.
    owner_version: u64,
    /// Current query epoch; pins carry the epoch they were last charged
    /// in. Advanced by [`PoolCtx::retire_pins`].
    epoch: u64,
    /// Potential disk accesses charged to this context: one read per
    /// distinct non-resident page touched.
    pub stats: DiskStats,
}

impl PoolCtx {
    pub fn new() -> Self {
        PoolCtx::default()
    }

    /// Drop all pins and zero the counters, making the context ready for
    /// the next query without reallocating.
    pub fn reset(&mut self) {
        self.spare.extend(self.pinned.drain().map(|(_, p)| p.data));
        self.owner = None;
        self.stats = DiskStats::default();
    }

    /// Start a new query *without* dropping the pinned page bytes: advance
    /// the epoch and zero the counters. Warm pins from earlier queries are
    /// re-charged (identically) on their first touch in the new epoch, so
    /// counters stay byte-identical to a fresh context — valid only while
    /// the pool is in a read-only phase (see the type-level docs).
    ///
    /// Pins *not* touched by the query that just finished are recycled
    /// into the spare list (second chance): over a long batch the pin set
    /// stays bounded by a two-query working set instead of accumulating
    /// every page the batch ever touched. Counters are unaffected either
    /// way — re-reading a dropped pin charges exactly what its replay
    /// would have (residency is frozen on the read path), which is the
    /// same argument that makes the replay itself valid.
    pub fn retire_pins(&mut self) {
        let epoch = self.epoch;
        let spare = &mut self.spare;
        self.pinned.retain(|_, p| {
            p.epoch == epoch || {
                spare.push(std::mem::take(&mut p.data));
                false
            }
        });
        self.epoch += 1;
        self.stats = DiskStats::default();
    }

    /// The current query epoch (compared by caches layered on top of the
    /// context, e.g. the segment mini-cache in `lsdb-core`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Distinct pages touched by the *current query* (pins charged in the
    /// current epoch). Warm pins retired by [`PoolCtx::retire_pins`] are
    /// excluded until re-touched.
    pub fn pages_touched(&self) -> usize {
        self.pinned
            .values()
            .filter(|p| p.epoch == self.epoch)
            .count()
    }
}

/// Pop a reusable buffer of exactly `page_size` bytes from a context's
/// spare list, discarding any stale ones retired against a pool with a
/// different page size.
fn take_spare(spare: &mut Vec<Box<[u8]>>, page_size: usize) -> Option<Box<[u8]>> {
    while let Some(data) = spare.pop() {
        if data.len() == page_size {
            return Some(data);
        }
    }
    None
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
    /// Pages physically resident (frame bytes actually held — the
    /// quantity the [`BufferBudget`] meters). `<= resident_pages` never
    /// holds in general (empty frames may keep their buffers), but under
    /// budget pressure this drops while `resident_pages` stays put.
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

struct Frame {
    pid: Option<PageId>,
    dirty: bool,
    last_used: u64,
    /// The page bytes, or `None` when the frame has been physically shed
    /// by the budget enforcer. Invariant: `data.is_none()` implies
    /// `!dirty` (shed writes dirty bytes back first).
    data: Option<Box<[u8]>>,
}

impl Frame {
    fn bytes(&self) -> &[u8] {
        self.data.as_deref().expect("frame bytes are shed")
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        self.data.as_deref_mut().expect("frame bytes are shed")
    }
}

/// One lock stripe of the pool: its own frames, resident map, LRU clock,
/// and build-path disk counters. Pages map to shards by `pid % shards`.
struct Shard {
    frames: Vec<Frame>,
    resident: PageMap<usize>,
    tick: u64,
    stats: DiskStats,
    page_size: usize,
    /// The byte budget this shard's frame buffers are charged against
    /// (shared across pools; swapped by [`BufferPool::attach_budget`]).
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
            // Frame buffers are materialized lazily (and charged to the
            // budget) on first use, so an idle pool costs nothing.
            frames: (0..capacity)
                .map(|_| Frame {
                    pid: None,
                    dirty: false,
                    last_used: 0,
                    data: None,
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

    /// Materialize the frame's byte buffer (charging the budget) if it
    /// was never allocated or was shed; returns whether it had to be.
    fn ensure_bytes(&mut self, frame: usize) -> bool {
        if self.frames[frame].data.is_none() {
            self.budget.charge(self.page_size as u64);
            self.frames[frame].data = Some(vec![0u8; self.page_size].into_boxed_slice());
            true
        } else {
            false
        }
    }

    /// Choose a frame to (re)use: an empty one if available, else the LRU
    /// victim (written back if dirty).
    fn victim_frame<S: Storage>(&mut self, storage: &S) -> io::Result<usize> {
        if let Some(i) = self.frames.iter().position(|f| f.pid.is_none()) {
            return Ok(i);
        }
        let victim = self
            .frames
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| f.last_used)
            .map(|(i, _)| i)
            .expect("shard capacity >= 1");
        if self.frames[victim].dirty {
            let pid = self.frames[victim].pid.expect("occupied frame");
            storage.write_page(pid, self.frames[victim].bytes())?;
            self.stats.writes += 1;
        }
        if let Some(pid) = self.frames[victim].pid {
            self.resident.remove(&pid);
            self.cache.evict();
        }
        Ok(victim)
    }

    fn install(&mut self, frame: usize, pid: PageId, dirty: bool) {
        self.frames[frame].pid = Some(pid);
        self.frames[frame].dirty = dirty;
        self.resident.insert(pid, frame);
        self.touch(frame);
    }

    /// Bring `pid` into this shard (LRU-charging a read on a miss) and
    /// return its frame index.
    fn fetch<S: Storage>(&mut self, storage: &S, pid: PageId) -> io::Result<usize> {
        if let Some(&frame) = self.resident.get(&pid) {
            self.touch(frame);
            if self.ensure_bytes(frame) {
                // Logically resident but physically shed by the budget:
                // the bytes come back from storage (shed wrote them out).
                storage.read_page(pid, self.frames[frame].bytes_mut())?;
                self.stats.reads += 1;
                self.cache.miss();
            } else {
                self.cache.hit();
            }
            return Ok(frame);
        }
        let frame = self.victim_frame(storage)?;
        self.install(frame, pid, false);
        self.stats.reads += 1;
        self.cache.miss();
        self.ensure_bytes(frame);
        storage.read_page(pid, self.frames[frame].bytes_mut())?;
        Ok(frame)
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let held = self.frames.iter().filter(|f| f.data.is_some()).count();
        self.budget.release(held as u64 * self.page_size as u64);
    }
}

/// A fixed-capacity buffer pool with least-recently-used replacement,
/// lock-striped into shards so concurrent readers touch disjoint locks.
///
/// Two access paths coexist:
///
/// * the **build path** (`&mut self`: [`BufferPool::allocate`],
///   [`BufferPool::with_page`], [`BufferPool::with_page_mut`], ...) mutates
///   frames through `get_mut` — no lock traffic — and charges misses to the
///   pool's internal [`DiskStats`], preserving the paper's LRU-sensitive
///   build measurements (Table 1, Figure 6);
/// * the **query path** ([`BufferPool::read_page`], `&self`) serves
///   resident pages under a shard read-lock and non-resident pages straight
///   from storage, charging all accounting to the caller's [`PoolCtx`]. It
///   never installs pages or advances the LRU clock, so the resident set is
///   frozen during a read-only query phase — which is exactly why per-query
///   counters are reproducible under any thread interleaving.
///
/// Within each shard, LRU victim selection is a linear scan — the paper's
/// pools are tiny (16 frames), so this beats an intrusive list.
pub struct BufferPool<S: Storage> {
    storage: S,
    shards: Vec<RwLock<Shard>>,
    free_pages: Vec<PageId>,
    /// Process-unique identity, checked against [`PoolCtx::owner`].
    id: u64,
    /// Mutation version: bumped by every build-path operation that can
    /// change page contents or residency (`allocate`, `free`, the
    /// `with_page*` family, `clear`). The query path compares it against
    /// [`PoolCtx::owner_version`] so warm pins taken before a mutation
    /// are dropped instead of served stale — what makes interleaved
    /// write/read phases safe without a "caller must reset()" contract.
    version: u64,
    /// The byte budget this pool's frames count against. Every pool
    /// starts on its own unlimited budget (standalone behavior exactly
    /// as before); a multi-map host re-attaches all pools to one shared
    /// budget via [`BufferPool::attach_budget`].
    budget: Arc<BufferBudget>,
    /// Cache observability counters (shared with the shards).
    cache: Arc<CacheCounters>,
}

/// The default in-memory pool used by experiments.
pub type MemPool = BufferPool<MemStorage>;

/// Default number of lock stripes for pools large enough to split.
pub const DEFAULT_SHARDS: usize = 4;

impl MemPool {
    /// Convenience constructor for an in-memory pool.
    pub fn in_memory(page_size: usize, capacity: usize) -> MemPool {
        BufferPool::new(MemStorage::new(page_size), capacity)
    }
}

impl<S: Storage> BufferPool<S> {
    /// A pool with the default shard count: up to [`DEFAULT_SHARDS`]
    /// stripes, but never fewer than two frames per shard. The stripes
    /// decide which pages share an LRU list, so the committed build
    /// counters depend on this formula.
    pub fn new(storage: S, capacity: usize) -> Self {
        let shards = DEFAULT_SHARDS.min(capacity / 2).max(1);
        Self::with_shards(storage, capacity, shards)
    }

    /// A pool with an explicit shard count. `capacity` frames are spread
    /// as evenly as possible across `shards` lock stripes; page `p` lives
    /// in stripe `p % shards`.
    pub fn with_shards(storage: S, capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "pool needs at least one frame");
        assert!(
            (1..=capacity).contains(&shards),
            "shard count {shards} out of range 1..={capacity}"
        );
        let page_size = storage.page_size();
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
            storage,
            shards,
            free_pages: Vec::new(),
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            version: 0,
            budget,
            cache,
        }
    }

    /// Re-attach this pool to a (usually shared) byte budget, moving its
    /// current physical footprint from the old budget to the new one.
    pub fn attach_budget(&mut self, budget: &Arc<BufferBudget>) {
        if Arc::ptr_eq(&self.budget, budget) {
            return;
        }
        for s in &mut self.shards {
            let shard = s.get_mut().unwrap();
            let held = shard.frames.iter().filter(|f| f.data.is_some()).count() as u64;
            let bytes = held * shard.page_size as u64;
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
            out.cached_pages += s.frames.iter().filter(|f| f.data.is_some()).count() as u64;
        }
        out
    }

    /// Budget enforcement: physically drop up to `target_bytes` of frame
    /// bytes in LRU order (coldest `last_used` first), writing dirty
    /// pages back to storage first. Returns the bytes actually freed.
    ///
    /// Only the *bytes* go; logical residency (the resident maps, LRU
    /// metadata) is untouched, so the query path's per-query paper
    /// counters are unaffected — a shed page still reads as "resident"
    /// (free) and is served by a hidden storage re-read. The write-backs
    /// are deliberately **not** counted in the pool's [`DiskStats`]
    /// (shedding is timing-dependent and must not perturb the paper's
    /// reproducible build counters); they do show in
    /// [`BufferPool::cache_stats`] as evictions.
    pub fn shed(&self, target_bytes: u64) -> io::Result<u64> {
        let page = self.page_size() as u64;
        let mut candidates: Vec<(u64, usize, usize)> = Vec::new();
        for (si, s) in self.shards.iter().enumerate() {
            let s = s.read().unwrap();
            for (fi, f) in s.frames.iter().enumerate() {
                if f.data.is_some() {
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
            if f.last_used != lu || f.data.is_none() {
                continue;
            }
            if f.dirty {
                let pid = f.pid.expect("dirty frame holds a page");
                self.storage.write_page(pid, f.bytes())?;
                f.dirty = false;
            }
            f.data = None;
            s.budget.release(page);
            s.cache.evict();
            freed += page;
        }
        Ok(freed)
    }

    /// Query-path re-admission: after serving a logically-resident but
    /// physically-shed page from storage, put the bytes back into the
    /// frame if the budget has headroom. Never changes logical residency
    /// or the pool version, so paper counters cannot observe it.
    fn try_readmit(&self, pid: PageId, bytes: &[u8]) {
        let page = self.page_size() as u64;
        if !self.budget.try_admit(page) {
            return;
        }
        let mut shard = self.shards[self.shard_of(pid)].write().unwrap();
        match shard.resident.get(&pid).copied() {
            Some(frame) if shard.frames[frame].data.is_none() => {
                shard.frames[frame].data = Some(bytes.into());
            }
            _ => {
                // Raced with a build-path mutation or another re-admission;
                // hand the charge back.
                drop(shard);
                self.budget.release(page);
            }
        }
    }

    fn shard_of(&self, pid: PageId) -> usize {
        pid.0 as usize % self.shards.len()
    }

    pub fn page_size(&self) -> usize {
        self.storage.page_size()
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

    /// Mutation version: how many build-path operations have run against
    /// this pool. A [`PoolCtx`] records the version its pins were taken
    /// at and drops them when it observes a newer one; callers layering
    /// their own caches over a pool can do the same.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The backing storage (read-only).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Exclusive access to the backing storage, for durability control
    /// (commit/checkpoint on a `DurableStorage` backing). Callers must
    /// not change page *contents* through this — the pool's frames would
    /// go stale; [`BufferPool::flush`] first if the pool may hold dirty
    /// pages the storage operation should cover.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Flush dirty pages and force them to stable storage: the pool-level
    /// commit hook ([`BufferPool::try_flush`] + [`Storage::sync`]).
    pub fn try_sync(&mut self) -> io::Result<()> {
        self.try_flush()?;
        self.storage.sync()
    }

    /// Pages currently allocated (grown minus freed). Multiplied by the
    /// page size this is the structure's storage footprint.
    pub fn allocated_pages(&self) -> u32 {
        self.storage.num_pages() - self.free_pages.len() as u32
    }

    /// Storage footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.allocated_pages() as u64 * self.page_size() as u64
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
        self.try_allocate().unwrap_or_else(|e| io_abort(e))
    }

    /// Fallible [`BufferPool::allocate`]: growing the backing file or
    /// writing back the evicted frame can fail.
    pub fn try_allocate(&mut self) -> io::Result<PageId> {
        self.version += 1;
        let pid = match self.free_pages.pop() {
            Some(pid) => pid,
            None => self.storage.grow()?,
        };
        let idx = self.shard_of(pid);
        let storage = &self.storage;
        let shard = self.shards[idx].get_mut().unwrap();
        let frame = shard.victim_frame(storage)?;
        shard.install(frame, pid, true);
        shard.ensure_bytes(frame);
        shard.frames[frame].bytes_mut().fill(0);
        Ok(pid)
    }

    /// Release a page. It is dropped from the pool without write-back and
    /// becomes available for reuse by [`BufferPool::allocate`].
    pub fn free(&mut self, pid: PageId) {
        self.version += 1;
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
        self.try_with_page(pid, f).unwrap_or_else(|e| io_abort(e))
    }

    /// Fallible [`BufferPool::with_page`]: faulting the page in from a
    /// corrupt backing file surfaces the [`io::Error`].
    pub fn try_with_page<T>(&mut self, pid: PageId, f: impl FnOnce(&[u8]) -> T) -> io::Result<T> {
        // Read-only for page *contents*, but it moves residency and the
        // LRU clock — enough to invalidate warm-pin charge replay.
        self.version += 1;
        let idx = self.shard_of(pid);
        let storage = &self.storage;
        let shard = self.shards[idx].get_mut().unwrap();
        let frame = shard.fetch(storage, pid)?;
        Ok(f(shard.frames[frame].bytes()))
    }

    /// Run `f` over the page contents mutably; the page is marked dirty.
    pub fn with_page_mut<T>(&mut self, pid: PageId, f: impl FnOnce(&mut [u8]) -> T) -> T {
        self.try_with_page_mut(pid, f)
            .unwrap_or_else(|e| io_abort(e))
    }

    /// Fallible [`BufferPool::with_page_mut`].
    pub fn try_with_page_mut<T>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8]) -> T,
    ) -> io::Result<T> {
        self.version += 1;
        let idx = self.shard_of(pid);
        let storage = &self.storage;
        let shard = self.shards[idx].get_mut().unwrap();
        let frame = shard.fetch(storage, pid)?;
        shard.frames[frame].dirty = true;
        Ok(f(shard.frames[frame].bytes_mut()))
    }

    /// Query path: run `f` over the page contents, charging all accounting
    /// to `ctx` instead of the pool.
    ///
    /// The first touch of a page within a context pins a private copy, so
    /// later touches are free; the read counter goes up only when that
    /// first touch finds the page non-resident (a potential disk access).
    /// Shared state is only ever read — the pool's resident set, LRU clock,
    /// and counters are untouched — so any number of contexts can run
    /// concurrently over `&self`.
    pub fn read_page<T>(&self, pid: PageId, ctx: &mut PoolCtx, f: impl FnOnce(&[u8]) -> T) -> T {
        self.try_read_page(pid, ctx, f)
            .unwrap_or_else(|e| io_abort(e))
    }

    /// Fallible [`BufferPool::read_page`]: a failed fetch from a corrupt
    /// backing file propagates instead of aborting. The read is charged to
    /// `ctx` only when the page bytes actually arrive.
    pub fn try_read_page<T>(
        &self,
        pid: PageId,
        ctx: &mut PoolCtx,
        f: impl FnOnce(&[u8]) -> T,
    ) -> io::Result<T> {
        Ok(f(self.try_read_page_pinned(pid, ctx)?))
    }

    /// Query path, zero-copy variant: pin the page in `ctx` and return a
    /// borrow of the pinned copy, with the same accounting as
    /// [`BufferPool::read_page`]. The borrow lives as long as the `ctx`
    /// borrow, so scan kernels can walk the page bytes in place without a
    /// closure (and without a per-access hash lookup when a caller keeps
    /// the slice across several decodes).
    pub fn read_page_pinned<'c>(&self, pid: PageId, ctx: &'c mut PoolCtx) -> &'c [u8] {
        self.try_read_page_pinned(pid, ctx)
            .unwrap_or_else(|e| io_abort(e))
    }

    /// Fallible [`BufferPool::read_page_pinned`].
    pub fn try_read_page_pinned<'c>(
        &self,
        pid: PageId,
        ctx: &'c mut PoolCtx,
    ) -> io::Result<&'c [u8]> {
        if ctx.owner != Some(self.id) || ctx.owner_version != self.version {
            // The context last pinned pages of a different pool (page ids
            // are per-pool), or this pool has been mutated since the pins
            // were taken (page contents and residency may have moved).
            // Either way the pins are meaningless now; counters are kept —
            // only the pin cache is invalidated.
            ctx.spare.extend(ctx.pinned.drain().map(|(_, p)| p.data));
            ctx.owner = Some(self.id);
            ctx.owner_version = self.version;
        }
        let PoolCtx {
            pinned,
            spare,
            stats,
            epoch,
            ..
        } = ctx;
        match pinned.entry(pid) {
            Entry::Occupied(e) => {
                let pin = e.into_mut();
                if pin.epoch != *epoch {
                    // Warm pin from an earlier query of this batch: replay
                    // the identical charge (pool residency is frozen on
                    // the read path, so the original charge still holds).
                    pin.epoch = *epoch;
                    stats.reads += pin.charged as u64;
                }
                Ok(&pin.data)
            }
            Entry::Vacant(slot) => {
                // Stale contents of a recycled buffer are fine: both arms
                // below overwrite the full page before the caller sees it.
                let mut data = take_spare(spare, self.storage.page_size())
                    .unwrap_or_else(|| vec![0u8; self.storage.page_size()].into_boxed_slice());
                let mut charged = false;
                let shard = self.shards[pid.0 as usize % self.shards.len()]
                    .read()
                    .unwrap();
                let resident = shard.resident.get(&pid).copied();
                match resident {
                    Some(frame) if shard.frames[frame].data.is_some() => {
                        data.copy_from_slice(shard.frames[frame].bytes());
                        self.cache.hit();
                    }
                    _ => {
                        drop(shard);
                        // Non-resident and shed pages are never dirty
                        // (eviction and shed write back first), so storage
                        // holds current bytes.
                        self.storage.read_page(pid, &mut data)?;
                        self.cache.miss();
                        if resident.is_some() {
                            // Logically resident, physically shed by the
                            // budget: the paper charge stays free (the
                            // charge decision consults logical residency
                            // only), and the bytes may come back into the
                            // frame if the budget now has headroom.
                            self.try_readmit(pid, &data);
                        } else {
                            stats.reads += 1;
                            charged = true;
                        }
                    }
                }
                Ok(&slot
                    .insert(Pin {
                        data,
                        charged,
                        epoch: *epoch,
                    })
                    .data)
            }
        }
    }

    /// Write all dirty resident pages back to storage.
    pub fn flush(&mut self) {
        self.try_flush().unwrap_or_else(|e| io_abort(e))
    }

    /// Fallible [`BufferPool::flush`]. Stops at the first write error;
    /// pages already written are marked clean.
    pub fn try_flush(&mut self) -> io::Result<()> {
        let storage = &self.storage;
        for s in &mut self.shards {
            let shard = s.get_mut().unwrap();
            for frame in &mut shard.frames {
                if frame.dirty {
                    if let Some(pid) = frame.pid {
                        storage.write_page(pid, frame.bytes())?;
                        frame.dirty = false;
                        shard.stats.writes += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Drop every resident page (flushing dirty ones), emptying the pool.
    /// Useful to measure cold-cache query costs.
    pub fn clear(&mut self) {
        self.try_clear().unwrap_or_else(|e| io_abort(e))
    }

    /// Fallible [`BufferPool::clear`].
    pub fn try_clear(&mut self) -> io::Result<()> {
        self.version += 1;
        self.try_flush()?;
        for s in &mut self.shards {
            let shard = s.get_mut().unwrap();
            for f in &mut shard.frames {
                f.pid = None;
            }
            shard.resident.clear();
        }
        Ok(())
    }

    /// Consume the pool, flushing, and return the underlying storage.
    pub fn into_storage(mut self) -> S {
        self.flush();
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single stripe: the whole pool is one global LRU, matching the exact
    /// eviction-order expectations below.
    fn pool1(frames: usize) -> MemPool {
        BufferPool::with_shards(MemStorage::new(128), frames, 1)
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
        let mut p = MemPool::in_memory(128, 8);
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
        let mut p = MemPool::in_memory(128, 8);
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
        let p = BufferPool::with_shards(MemStorage::new(128), 10, 4);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.capacity(), 10, "remainder frames are not lost");
    }

    #[test]
    fn ctx_charges_once_per_distinct_page() {
        let mut p = MemPool::in_memory(128, 4);
        let a = p.allocate();
        let b = p.allocate();
        p.with_page_mut(a, |d| d[0] = 1);
        p.with_page_mut(b, |d| d[0] = 2);
        p.clear(); // both now non-resident
        let mut ctx = PoolCtx::new();
        for _ in 0..10 {
            p.read_page(a, &mut ctx, |d| assert_eq!(d[0], 1));
            p.read_page(b, &mut ctx, |d| assert_eq!(d[0], 2));
        }
        assert_eq!(ctx.stats.reads, 2, "one charge per distinct page");
        assert_eq!(ctx.pages_touched(), 2);
        ctx.reset();
        assert_eq!(ctx.pages_touched(), 0);
        p.read_page(a, &mut ctx, |_| {});
        assert_eq!(ctx.stats.reads, 1, "fresh context recharges");
    }

    #[test]
    fn ctx_reads_resident_pages_for_free_and_sees_dirty_data() {
        let mut p = MemPool::in_memory(128, 4);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 42); // dirty, resident, NOT flushed
        let mut ctx = PoolCtx::new();
        p.read_page(a, &mut ctx, |d| assert_eq!(d[0], 42, "sees dirty frame"));
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
        p.read_page(a, &mut ctx, |_| {});
        assert_eq!(ctx.stats.reads, 1, "a was not resident");
        assert_eq!(p.stats(), DiskStats::default(), "pool counters untouched");
        // a was NOT installed: b and c are still the residents.
        let mut ctx2 = PoolCtx::new();
        p.read_page(b, &mut ctx2, |_| {});
        p.read_page(c, &mut ctx2, |_| {});
        assert_eq!(ctx2.stats.reads, 0, "residents undisturbed by read path");
    }

    #[test]
    fn concurrent_contexts_count_deterministically() {
        let mut p = BufferPool::with_shards(MemStorage::new(128), 8, 4);
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
                            p.read_page(pid, &mut ctx, |d| assert_eq!(d[0], i as u8));
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
    fn pinned_borrow_matches_closure_reads_and_charges_identically() {
        let mut p = MemPool::in_memory(128, 4);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 7);
        p.clear();
        let mut ctx = PoolCtx::new();
        let buf = p.read_page_pinned(a, &mut ctx);
        assert_eq!(buf[0], 7);
        assert_eq!(ctx.stats.reads, 1, "cold page charges one read");
        let buf = p.read_page_pinned(a, &mut ctx);
        assert_eq!(buf[0], 7);
        assert_eq!(ctx.stats.reads, 1, "pinned page is free to re-borrow");
        assert_eq!(ctx.pages_touched(), 1);
        // The closure API and the borrow API share one pin set.
        p.read_page(a, &mut ctx, |d| assert_eq!(d[0], 7));
        assert_eq!(ctx.stats.reads, 1);
    }

    #[test]
    fn retired_pins_recharge_identically_without_refetching() {
        // One resident page (free) and one cold page (charged): after
        // retire_pins(), the next query must report the same counters a
        // fresh context would, while the page bytes stay warm.
        let mut p = pool1(2);
        let hot = p.allocate();
        let cold = p.allocate();
        p.with_page_mut(hot, |d| d[0] = 1);
        p.with_page_mut(cold, |d| d[0] = 2);
        p.flush();
        // Evict `cold` (LRU) by touching `hot` then faulting a third page.
        p.with_page(hot, |_| {});
        let third = p.allocate();
        let _ = third;
        p.with_page(hot, |_| {});
        p.reset_stats();

        let mut ctx = PoolCtx::new();
        let mut fresh = PoolCtx::new();
        for round in 0..4 {
            ctx.retire_pins();
            fresh.reset();
            p.read_page(hot, &mut ctx, |d| assert_eq!(d[0], 1));
            p.read_page(cold, &mut ctx, |d| assert_eq!(d[0], 2));
            p.read_page(hot, &mut fresh, |d| assert_eq!(d[0], 1));
            p.read_page(cold, &mut fresh, |d| assert_eq!(d[0], 2));
            assert_eq!(ctx.stats, fresh.stats, "round {round}");
            assert_eq!(ctx.pages_touched(), 2, "round {round}");
        }
        assert_eq!(p.stats(), DiskStats::default(), "pool state untouched");
    }

    #[test]
    fn retire_pins_counts_only_current_epoch_touches() {
        let mut p = MemPool::in_memory(128, 4);
        let a = p.allocate();
        let b = p.allocate();
        p.clear();
        let mut ctx = PoolCtx::new();
        p.read_page(a, &mut ctx, |_| {});
        p.read_page(b, &mut ctx, |_| {});
        assert_eq!(ctx.pages_touched(), 2);
        let e0 = ctx.epoch();
        ctx.retire_pins();
        assert_eq!(ctx.epoch(), e0 + 1);
        assert_eq!(ctx.stats, DiskStats::default());
        assert_eq!(ctx.pages_touched(), 0, "warm pins are not current");
        p.read_page(a, &mut ctx, |_| {});
        assert_eq!(ctx.pages_touched(), 1, "re-touched pin is current again");
        assert_eq!(ctx.stats.reads, 1, "cold charge replayed");
        p.read_page(a, &mut ctx, |_| {});
        assert_eq!(ctx.stats.reads, 1, "second touch in the epoch is free");
        ctx.reset();
        assert_eq!(ctx.pages_touched(), 0);
        p.read_page(a, &mut ctx, |_| {});
        assert_eq!(ctx.stats.reads, 1, "reset still recharges from cold");
    }

    #[test]
    fn a_wandering_ctx_never_serves_another_pools_bytes() {
        // Same page id, two pools, different contents: a context reused
        // across pools must re-pin, not serve the first pool's copy.
        let mut a = MemPool::in_memory(64, 4);
        let mut b = MemPool::in_memory(64, 4);
        let pa = a.allocate();
        let pb = b.allocate();
        assert_eq!(pa, pb, "both pools hand out the same first page id");
        a.with_page_mut(pa, |d| d[0] = 0xAA);
        b.with_page_mut(pb, |d| d[0] = 0xBB);
        let mut ctx = PoolCtx::new();
        assert_eq!(a.read_page(pa, &mut ctx, |d| d[0]), 0xAA);
        assert_eq!(b.read_page(pb, &mut ctx, |d| d[0]), 0xBB);
        assert_eq!(a.read_page(pa, &mut ctx, |d| d[0]), 0xAA);
    }

    #[test]
    fn mutation_bumps_version_and_invalidates_stale_pins() {
        let mut p = MemPool::in_memory(128, 4);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 1);
        let v = p.version();

        let mut ctx = PoolCtx::new();
        p.read_page(a, &mut ctx, |d| assert_eq!(d[0], 1));
        assert_eq!(p.version(), v, "query path never bumps the version");

        // Mutate the page: the context's pinned copy is now stale.
        p.with_page_mut(a, |d| d[0] = 2);
        assert!(p.version() > v);
        p.read_page(a, &mut ctx, |d| {
            assert_eq!(d[0], 2, "stale pin dropped, fresh bytes served")
        });
    }

    #[test]
    fn stale_warm_pins_recharge_like_a_fresh_context() {
        // After a mutation, a warm context's counters must match a fresh
        // context's exactly — the charge-replay contract, now enforced by
        // the version check instead of a caller-side reset() rule.
        let mut p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate(); // a evicted
        p.flush();
        let mut warm = PoolCtx::new();
        p.read_page(a, &mut warm, |_| {});
        p.read_page(b, &mut warm, |_| {});
        assert_eq!(warm.stats.reads, 1, "a cold, b resident");

        // Build-path read of `a` changes residency (evicts b).
        p.with_page(a, |_| {});
        warm.retire_pins();
        let mut fresh = PoolCtx::new();
        for pid in [a, b, c] {
            p.read_page(pid, &mut warm, |_| {});
            p.read_page(pid, &mut fresh, |_| {});
        }
        assert_eq!(warm.stats, fresh.stats, "stale charges not replayed");
        assert_eq!(warm.stats.reads, 1, "b now cold, a and c resident");
    }

    #[test]
    fn version_survives_read_only_batches() {
        let mut p = MemPool::in_memory(128, 4);
        let a = p.allocate();
        p.flush();
        let v = p.version();
        let mut ctx = PoolCtx::new();
        for _ in 0..5 {
            p.read_page(a, &mut ctx, |_| {});
            ctx.retire_pins();
        }
        assert_eq!(p.version(), v);
    }

    #[test]
    fn pool_sync_flushes_then_syncs_storage() {
        let mut p = MemPool::in_memory(128, 4);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 9);
        p.try_sync().unwrap();
        let mut buf = vec![0u8; 128];
        p.storage().read_page(a, &mut buf).unwrap();
        assert_eq!(buf[0], 9, "dirty page reached storage");
    }

    #[test]
    fn budget_accounts_physical_bytes_across_pools() {
        let budget = BufferBudget::new(1 << 20);
        let mut a = MemPool::in_memory(128, 4);
        let mut b = MemPool::in_memory(128, 4);
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
        let mut p = MemPool::in_memory(128, 4);
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
        // dirty — shed must write them back before dropping the bytes.
        p.with_page(pids[2], |_| {});
        p.with_page(pids[3], |_| {});
        let freed = p.shed(2 * 128).unwrap();
        assert_eq!(freed, 2 * 128);
        let cs = p.cache_stats();
        assert_eq!(cs.resident_pages, 4, "logical residency untouched");
        assert_eq!(cs.cached_pages, 2, "two frames physically shed");
        // Every page still reads back correctly (shed ones via storage).
        for (i, &pid) in pids.iter().enumerate() {
            let mut ctx = PoolCtx::new();
            p.read_page(pid, &mut ctx, |d| assert_eq!(d[0], i as u8 + 1));
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
                p.read_page(pid, &mut ctx, |_| {});
            }
            ctx.stats
        };
        assert_eq!(baseline.reads, 2, "two logically non-resident pages");
        // Shed everything physically; logical residency is frozen.
        let freed = p.shed(u64::MAX).unwrap();
        assert_eq!(freed, 4 * 128);
        let mut ctx = PoolCtx::new();
        for (i, &pid) in pids.iter().enumerate() {
            p.read_page(pid, &mut ctx, |d| assert_eq!(d[0], 10 + i as u8));
        }
        assert_eq!(ctx.stats, baseline, "shedding is invisible to counters");
    }

    #[test]
    fn shed_pages_readmit_under_headroom_but_not_over_budget() {
        let mut p = pool1(2);
        let a = p.allocate();
        p.with_page_mut(a, |d| d[0] = 5);
        p.flush();
        // Tight budget: exactly one page fits; the pool currently holds 2
        // frames' bytes? (only one allocated page => one materialized).
        let budget = BufferBudget::new(128);
        p.attach_budget(&budget);
        assert_eq!(budget.used(), 128);
        p.shed(u64::MAX).unwrap();
        assert_eq!(budget.used(), 0);
        // Read the shed page: logically free, served from storage, and
        // re-admitted because the budget has headroom again.
        let mut ctx = PoolCtx::new();
        p.read_page(a, &mut ctx, |d| assert_eq!(d[0], 5));
        assert_eq!(ctx.stats.reads, 0, "resident page stays free");
        assert_eq!(budget.used(), 128, "bytes re-admitted");
        assert_eq!(budget.admissions(), 1);
        assert_eq!(p.cache_stats().cached_pages, 1);
        // Second read is a pool hit again (ctx re-pins nothing; use fresh).
        let hits = p.cache_stats().hits;
        let mut ctx2 = PoolCtx::new();
        p.read_page(a, &mut ctx2, |d| assert_eq!(d[0], 5));
        assert_eq!(p.cache_stats().hits, hits + 1);

        // Now starve the budget: shed, fill it from elsewhere, and the
        // re-read must be denied re-admission yet still serve the bytes.
        p.shed(u64::MAX).unwrap();
        budget.charge(128);
        let mut ctx3 = PoolCtx::new();
        p.read_page(a, &mut ctx3, |d| assert_eq!(d[0], 5));
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

    #[test]
    fn file_backed_pool_roundtrip() {
        let dir = std::env::temp_dir().join(format!("lsdb-pool-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.bin");
        let pid;
        {
            let storage = crate::FileStorage::create(&path, 256).unwrap();
            let mut p = BufferPool::new(storage, 2);
            pid = p.allocate();
            p.with_page_mut(pid, |d| d[10] = 123);
            p.flush();
        }
        {
            let storage = crate::FileStorage::open(&path, 256).unwrap();
            let mut p = BufferPool::new(storage, 2);
            p.with_page(pid, |d| assert_eq!(d[10], 123));
            assert_eq!(p.stats().reads, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
