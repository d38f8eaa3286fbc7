use crate::QueryCtx;
use lsdb_geom::{Point, Segment};
use lsdb_pager::{BufferPool, PageId};

/// Identifier of a segment in a [`SegmentTable`]. Densely allocated from 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SegId(pub u32);

impl SegId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const RECORD_BYTES: usize = 16; // x1, y1, x2, y2 as i32

/// Slots in the per-context segment mini-cache. Power of two so the
/// direct-mapped slot index is a mask; 1024 × 20 bytes ≈ 20 KB per
/// context, wide enough that a whole polygon boundary (a few hundred
/// segments, each re-compared several times per walk) stays resident
/// instead of aliasing itself out of a narrower table.
const SEG_CACHE_SLOTS: usize = 1024;

/// A small direct-mapped cache of decoded segment records, owned by a
/// [`QueryCtx`] and living for exactly one query.
///
/// Polygon traversals (query 2/4 compositions) fetch the same few dozen
/// segments repeatedly; each fetch is a paper-metric *segment
/// comparison*, but the page lookup + record decode behind it is pure
/// implementation cost. This cache removes the redundant decode while
/// leaving every counter untouched:
///
/// * `seg_comps` is charged per [`SegmentTable::get`] call, hit or miss;
/// * a hit can never hide a disk charge: the miss that filled its slot
///   touched the record's page in this very query, so the skipped page
///   access was free anyway. [`QueryCtx::reset`] empties the cache with
///   the touched-page sets, and a context that wanders to a table backed
///   by a different pool empties it too.
///
/// Emptying is a bump of the cache's epoch: a slot's tag carries the
/// epoch it was filled in, so slots of an earlier query (or pool) simply
/// never match. Only when the `u32` epoch wraps are the tags rewritten.
///
/// (The table is append-only, so a cached decode can never go stale.)
pub(crate) struct SegCache {
    /// Identity of the pool the cached records came from
    /// ([`lsdb_pager::BufferPool::pool_id`]); `None` = empty.
    owner: Option<u64>,
    /// Fill epoch of the current binding (`>= 1` once bound; tag epoch 0
    /// is never live).
    epoch: u32,
    /// Per slot `epoch << 32 | SegId`: the slot holds that segment iff
    /// the high half equals the current epoch.
    tags: [u64; SEG_CACHE_SLOTS],
    segs: [Segment; SEG_CACHE_SLOTS],
}

impl Default for SegCache {
    fn default() -> Self {
        let zero = Segment::new(Point::new(0, 0), Point::new(0, 0));
        SegCache {
            owner: None,
            epoch: 0,
            tags: [0; SEG_CACHE_SLOTS],
            segs: [zero; SEG_CACHE_SLOTS],
        }
    }
}

impl SegCache {
    /// Drop every cached record (O(1): the next fetch binds a new epoch).
    pub(crate) fn invalidate(&mut self) {
        self.owner = None;
    }

    /// Bind to `pool_id` under a fresh epoch, rewriting the tags only when
    /// the epoch wraps.
    fn bind(&mut self, pool_id: u64) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.tags = [0; SEG_CACHE_SLOTS];
            self.epoch = 1;
        }
        self.owner = Some(pool_id);
    }
}

/// The disk-resident table of segment endpoints.
///
/// Every index entry is just a pointer (a [`SegId`]) into this table; "each
/// segment comparison means an access to the segment table which is
/// disk-resident" — so [`SegmentTable::get`] charges one segment comparison
/// and one (potential) segment-table page access to the caller's
/// [`QueryCtx`]. The table sits behind its own buffer pool so that segment
/// record disk activity is reported separately from index disk activity.
///
/// Layout: fixed 16-byte records packed `page_size / 16` per page, record
/// `i` on page `i / per_page`. Append-only: a polygonal map's segments are
/// loaded once and indexes reference them forever after (deleting a segment
/// from an *index* does not recycle its table slot, mirroring the paper's
/// shared-table setup).
pub struct SegmentTable {
    pool: BufferPool,
    pages: Vec<PageId>,
    per_page: usize,
    /// `(shift, mask)` when `per_page` is a power of two (it is for every
    /// power-of-two page size, including the default): record→page and
    /// record→slot become shift/mask instead of hardware div/mod on a
    /// path taken once per segment comparison.
    pow2: Option<(u32, usize)>,
    len: u32,
}

impl SegmentTable {
    pub fn new(page_size: usize, pool_pages: usize) -> Self {
        assert!(page_size >= RECORD_BYTES);
        let per_page = page_size / RECORD_BYTES;
        SegmentTable {
            pool: BufferPool::new(page_size, pool_pages),
            pages: Vec::new(),
            per_page,
            pow2: per_page
                .is_power_of_two()
                .then(|| (per_page.trailing_zeros(), per_page - 1)),
            len: 0,
        }
    }

    /// `(page index, slot within page)` of record `idx`.
    #[inline]
    fn locate(&self, idx: usize) -> (usize, usize) {
        match self.pow2 {
            Some((shift, mask)) => (idx >> shift, idx & mask),
            None => (idx / self.per_page, idx % self.per_page),
        }
    }

    /// Load every segment of `map`, in order, so `SegId(i)` is
    /// `map.segments[i]`.
    pub fn from_map(map: &crate::PolygonalMap, page_size: usize, pool_pages: usize) -> Self {
        let mut t = SegmentTable::new(page_size, pool_pages);
        for seg in &map.segments {
            t.push(*seg);
        }
        t
    }

    pub fn push(&mut self, seg: Segment) -> SegId {
        let id = SegId(self.len);
        let slot = id.index() % self.per_page;
        if slot == 0 {
            let pid = self.pool.allocate();
            self.pages.push(pid);
        }
        let pid = self.pages[id.index() / self.per_page];
        self.pool.with_page_mut(pid, |buf| {
            let at = slot * RECORD_BYTES;
            buf[at..at + 4].copy_from_slice(&seg.a.x.to_le_bytes());
            buf[at + 4..at + 8].copy_from_slice(&seg.a.y.to_le_bytes());
            buf[at + 8..at + 12].copy_from_slice(&seg.b.x.to_le_bytes());
            buf[at + 12..at + 16].copy_from_slice(&seg.b.y.to_le_bytes());
        });
        self.len += 1;
        id
    }

    /// Fetch a segment's endpoints on the query path: counts one segment
    /// comparison and charges any page access to the context's segment-pool
    /// handle. Shared — any number of queries may fetch concurrently.
    ///
    /// Served from the context's segment mini-cache when possible; the
    /// comparison is charged either way (it is a paper metric — only the
    /// redundant decode is skipped, see `SegCache`).
    pub fn get(&self, id: SegId, ctx: &mut QueryCtx) -> Segment {
        let QueryCtx {
            seg,
            seg_comps,
            seg_cache: cache,
            ..
        } = ctx;
        *seg_comps += 1;
        let pool_id = self.pool.pool_id();
        if cache.owner != Some(pool_id) {
            // First fetch since reset, or the context wandered to a table
            // backed by a different pool: (re)bind under a new epoch.
            cache.bind(pool_id);
        }
        let slot = id.index() & (SEG_CACHE_SLOTS - 1);
        let tag = (cache.epoch as u64) << 32 | id.0 as u64;
        if cache.tags[slot] == tag {
            return cache.segs[slot];
        }
        assert!(id.0 < self.len, "segment {id:?} out of range");
        let (page, page_slot) = self.locate(id.index());
        let record = decode(self.pool.read_page(self.pages[page], seg), page_slot);
        cache.tags[slot] = tag;
        cache.segs[slot] = record;
        record
    }

    /// Build-path fetch: goes through the pool's LRU (charging its internal
    /// stats on a miss) and counts no comparison — the paper's query
    /// metrics exclude harness and build bookkeeping.
    pub fn fetch(&mut self, id: SegId) -> Segment {
        assert!(id.0 < self.len, "segment {id:?} out of range");
        let (page, slot) = self.locate(id.index());
        let pid = self.pages[page];
        self.pool.with_page(pid, |buf| decode(buf, slot))
    }

    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate all ids (does not touch the disk).
    pub fn ids(&self) -> impl Iterator<Item = SegId> {
        (0..self.len).map(SegId)
    }

    /// Segment-table disk activity of the build path since the last reset.
    pub fn disk_stats(&self) -> lsdb_pager::DiskStats {
        self.pool.stats()
    }

    pub fn reset_stats(&mut self) {
        self.pool.reset_stats();
    }

    /// Flush and drop every buffered page (for cold-cache measurements).
    pub fn clear_cache(&mut self) {
        self.pool.clear();
    }

    /// Table footprint in bytes (the paper reports this separately since
    /// it is identical across structures).
    pub fn size_bytes(&self) -> u64 {
        self.pool.size_bytes()
    }

    /// Charge this table's pool frames against a (usually process-global)
    /// byte budget shared with other maps.
    pub fn attach_budget(&mut self, budget: &std::sync::Arc<lsdb_pager::BufferBudget>) {
        self.pool.attach_budget(budget);
    }

    /// Shed up to `target_bytes` of cold frames (budget enforcement;
    /// invisible to per-query paper counters).
    pub fn shed_cache(&self, target_bytes: u64) -> u64 {
        self.pool.shed(target_bytes)
    }

    /// Cache accounting snapshot for the table's pool.
    pub fn cache_stats(&self) -> lsdb_pager::CacheStats {
        self.pool.cache_stats()
    }
}

fn decode(buf: &[u8], slot: usize) -> Segment {
    let at = slot * RECORD_BYTES;
    let rd = |o: usize| i32::from_le_bytes(buf[at + o..at + o + 4].try_into().unwrap());
    Segment::new(Point::new(rd(0), rd(4)), Point::new(rd(8), rd(12)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: i32, ay: i32, bx: i32, by: i32) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn push_get_roundtrip() {
        let mut t = SegmentTable::new(1024, 4);
        let a = t.push(seg(1, 2, 3, 4));
        let b = t.push(seg(100, 200, 300, 400));
        let mut ctx = QueryCtx::new();
        assert_eq!(t.get(a, &mut ctx), seg(1, 2, 3, 4));
        assert_eq!(t.get(b, &mut ctx), seg(100, 200, 300, 400));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn records_span_many_pages() {
        // 64-byte pages hold 4 records each.
        let mut t = SegmentTable::new(64, 2);
        let n = 100;
        for i in 0..n {
            t.push(seg(i, i + 1, i + 2, i + 3));
        }
        for i in (0..n).rev() {
            assert_eq!(t.fetch(SegId(i as u32)), seg(i, i + 1, i + 2, i + 3));
        }
        assert_eq!(t.size_bytes(), 25 * 64);
    }

    #[test]
    fn get_counts_comparisons_fetch_does_not() {
        let mut t = SegmentTable::new(1024, 4);
        let a = t.push(seg(0, 0, 1, 1));
        let mut ctx = QueryCtx::new();
        t.get(a, &mut ctx);
        t.get(a, &mut ctx);
        t.fetch(a);
        assert_eq!(ctx.seg_comps, 2);
    }

    #[test]
    fn ctx_charges_seg_pool_reads_on_cold_pages() {
        // 64-byte pages hold 4 records; 64 records span 16 pages.
        let mut t = SegmentTable::new(64, 2);
        for i in 0..64 {
            t.push(seg(i, 0, i, 1));
        }
        t.clear_cache();
        let mut ctx = QueryCtx::new();
        for i in (0..64).step_by(8) {
            t.get(SegId(i), &mut ctx);
        }
        // 8 strided records hit 8 distinct cold pages.
        assert_eq!(ctx.seg.stats.reads, 8);
        assert_eq!(ctx.seg_comps, 8);
        // Repeating the scan within the same query is free.
        for i in (0..64).step_by(8) {
            t.get(SegId(i), &mut ctx);
        }
        assert_eq!(ctx.seg.stats.reads, 8);
        assert_eq!(ctx.seg_comps, 16);
    }

    #[test]
    fn concurrent_gets_share_the_table() {
        let mut t = SegmentTable::new(64, 2);
        for i in 0..32 {
            t.push(seg(i, 0, i, 1));
        }
        t.clear_cache();
        let t = &t;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut ctx = QueryCtx::new();
                        for i in 0..32 {
                            assert_eq!(t.get(SegId(i), &mut ctx), seg(i as i32, 0, i as i32, 1));
                        }
                        ctx.stats()
                    })
                })
                .collect();
            let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for s in &stats {
                assert_eq!(s.seg_comps, 32);
                assert_eq!(*s, stats[0], "identical work, identical counters");
            }
        });
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let t = SegmentTable::new(1024, 4);
        let mut ctx = QueryCtx::new();
        t.get(SegId(0), &mut ctx);
    }

    #[test]
    fn mini_cache_hits_skip_no_charges() {
        // 64-byte pages hold 4 records; two pages.
        let mut t = SegmentTable::new(64, 2);
        for i in 0..8 {
            t.push(seg(i, 0, i, 1));
        }
        t.clear_cache();
        let mut ctx = QueryCtx::new();
        // Repeated fetches: the comparison counter still moves per call,
        // disk charges only on the first touch of each page.
        for _ in 0..5 {
            assert_eq!(t.get(SegId(2), &mut ctx), seg(2, 0, 2, 1));
            assert_eq!(t.get(SegId(6), &mut ctx), seg(6, 0, 6, 1));
        }
        assert_eq!(ctx.seg_comps, 10, "every get is a comparison, hit or miss");
        assert_eq!(ctx.seg.stats.reads, 2, "one cold read per distinct page");
        // Reset empties the cache with the touched-page sets: the next
        // fetch recharges the page exactly as an uncached context would.
        ctx.reset();
        t.get(SegId(2), &mut ctx);
        assert_eq!(ctx.seg_comps, 1);
        assert_eq!(ctx.seg.stats.reads, 1, "cache does not outlive the query");
    }

    #[test]
    fn mini_cache_never_serves_another_tables_records() {
        // Two tables, same ids, different records, one wandering context;
        // mirrors the pager's wandering-ctx test one level up.
        let mut t1 = SegmentTable::new(64, 2);
        let mut t2 = SegmentTable::new(64, 2);
        t1.push(seg(1, 1, 1, 1));
        t2.push(seg(2, 2, 2, 2));
        let mut ctx = QueryCtx::new();
        assert_eq!(t1.get(SegId(0), &mut ctx), seg(1, 1, 1, 1));
        assert_eq!(t2.get(SegId(0), &mut ctx), seg(2, 2, 2, 2));
        assert_eq!(t1.get(SegId(0), &mut ctx), seg(1, 1, 1, 1));
    }

    #[test]
    fn mini_cache_colliding_ids_evict() {
        // Ids 0 and SEG_CACHE_SLOTS map to the same direct-mapped slot.
        let mut t = SegmentTable::new(1024, 8);
        let n = SEG_CACHE_SLOTS as i32 + 1;
        for i in 0..n {
            t.push(seg(i, 0, i, 1));
        }
        let mut ctx = QueryCtx::new();
        assert_eq!(t.get(SegId(0), &mut ctx), seg(0, 0, 0, 1));
        let far = SegId(SEG_CACHE_SLOTS as u32);
        assert_eq!(t.get(far, &mut ctx), seg(n - 1, 0, n - 1, 1));
        assert_eq!(t.get(SegId(0), &mut ctx), seg(0, 0, 0, 1));
    }

    #[test]
    fn mini_cache_epoch_wrap_forgets_every_slot() {
        // 64-byte pages hold 4 records; all pages cold.
        let mut t = SegmentTable::new(64, 2);
        for i in 0..8 {
            t.push(seg(i, 0, i, 1));
        }
        t.clear_cache();
        let mut ctx = QueryCtx::new();
        t.get(SegId(5), &mut ctx);
        // Run queries across the wrap: slots filled at epoch 1 (and at the
        // last epochs before the wrap) must not be hits afterwards, or the
        // page charge behind them would be skipped.
        ctx.seg_cache.epoch = u32::MAX - 2;
        for _ in 0..3 {
            ctx.reset();
            assert_eq!(t.get(SegId(5), &mut ctx), seg(5, 0, 5, 1));
            assert_eq!(t.get(SegId(5), &mut ctx), seg(5, 0, 5, 1));
            assert_eq!(ctx.seg.stats.reads, 1, "one cold page per query");
        }
        assert_eq!(ctx.seg_cache.epoch, 1, "the epoch wrapped");
    }

    #[test]
    fn negative_coordinates_survive() {
        // The table itself is coordinate-agnostic even though world maps
        // are normalized to non-negative coordinates.
        let mut t = SegmentTable::new(1024, 4);
        let a = t.push(seg(-5, -6, 7, 8));
        let mut ctx = QueryCtx::new();
        assert_eq!(t.get(a, &mut ctx), seg(-5, -6, 7, 8));
    }
}
