use crate::seg_table::SegCache;
use lsdb_pager::{DiskStats, PoolCtx};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of the three quantities the paper measures per query, plus
/// segment-table disk activity (reported separately because segment records
/// cluster: "although many segments will be involved, there will only be
/// minor differences in disk activity").
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct QueryStats {
    /// Index-structure disk accesses (buffer-pool misses + dirty
    /// write-backs of index pages).
    pub disk: DiskStats,
    /// Segment comparisons — accesses to the disk-resident segment table.
    pub seg_comps: u64,
    /// Bounding-box computations (R-trees) or bounding-bucket / node
    /// computations (PMR quadtree).
    pub bbox_comps: u64,
    /// Segment-table disk accesses.
    pub seg_disk: DiskStats,
}

impl QueryStats {
    /// Element-wise difference (for before/after measurement windows).
    pub fn since(self, earlier: QueryStats) -> QueryStats {
        QueryStats {
            disk: self.disk - earlier.disk,
            seg_comps: self.seg_comps - earlier.seg_comps,
            bbox_comps: self.bbox_comps - earlier.bbox_comps,
            seg_disk: self.seg_disk - earlier.seg_disk,
        }
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: QueryStats) {
        self.disk.reads += other.disk.reads;
        self.disk.writes += other.disk.writes;
        self.seg_comps += other.seg_comps;
        self.bbox_comps += other.bbox_comps;
        self.seg_disk.reads += other.seg_disk.reads;
        self.seg_disk.writes += other.seg_disk.writes;
    }
}

/// Per-query execution context: every `&self` query on a
/// [`crate::SpatialIndex`] threads one of these through and charges all of
/// its metric counting here instead of mutating the index.
///
/// The context owns two page contexts ([`PoolCtx`]) — one against the
/// index-node pool, one against the segment-table pool — plus the two pure
/// counters. Because a query's counters live entirely in its context, the
/// totals of a query batch are a plain sum of per-query values: identical
/// whether the batch ran on one thread or sixteen. [`QueryCtx::reset`]
/// starts each query.
#[derive(Default)]
pub struct QueryCtx {
    /// Touched pages + disk counters for index-structure pages.
    pub index: PoolCtx,
    /// Touched pages + disk counters for segment-table pages.
    pub seg: PoolCtx,
    /// Segment comparisons (segment-table record fetches).
    pub seg_comps: u64,
    /// Bounding-box / bounding-bucket computations.
    pub bbox_comps: u64,
    /// Reusable traversal scratch (stacks, priority queue, dedup set) owned
    /// by the shared engines in [`crate::traverse`]. Deliberately survives
    /// [`QueryCtx::reset`] so steady-state queries allocate nothing.
    scratch: Option<Box<dyn Any + Send>>,
    /// Direct-mapped cache of decoded segment records, consulted by
    /// [`crate::SegmentTable::get`]. Invalidated by [`QueryCtx::reset`]
    /// alongside the touched-page sets (its correctness argument depends
    /// on that — see `SegCache`); its storage is inline, so like `scratch`
    /// it costs the allocator nothing across queries.
    pub(crate) seg_cache: SegCache,
}

impl QueryCtx {
    pub fn new() -> Self {
        QueryCtx::default()
    }

    /// Forget the touched pages and zero every counter, readying the
    /// context for the next query without reallocating its tables.
    pub fn reset(&mut self) {
        self.index.reset();
        self.seg.reset();
        self.seg_comps = 0;
        self.bbox_comps = 0;
        self.seg_cache.invalidate();
    }

    /// Take the cached traversal scratch, if any (engine-internal).
    pub(crate) fn take_scratch_slot(&mut self) -> Option<Box<dyn Any + Send>> {
        self.scratch.take()
    }

    /// Return a traversal scratch for the next query (engine-internal).
    pub(crate) fn put_scratch_slot(&mut self, s: Box<dyn Any + Send>) {
        self.scratch = Some(s);
    }

    /// The paper-metric snapshot of this context.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            disk: self.index.stats,
            seg_comps: self.seg_comps,
            bbox_comps: self.bbox_comps,
            seg_disk: self.seg.stats,
        }
    }
}

/// Lock-free accumulator of [`QueryStats`] shared by many query threads.
///
/// Each worker finishes a query, snapshots its [`QueryCtx`] and folds the
/// result in with [`SharedStats::add`]; any thread can take a consistent
/// running total with [`SharedStats::snapshot`] without stopping the
/// workers. Because every counter is a plain sum of per-query values (the
/// shared-read guarantee), the aggregate is independent of which worker
/// served which query — a server's `STATS` op reports the same totals a
/// sequential run would.
#[derive(Default, Debug)]
pub struct SharedStats {
    queries: AtomicU64,
    disk_reads: AtomicU64,
    disk_writes: AtomicU64,
    seg_comps: AtomicU64,
    bbox_comps: AtomicU64,
    seg_disk_reads: AtomicU64,
    seg_disk_writes: AtomicU64,
}

impl SharedStats {
    pub fn new() -> Self {
        SharedStats::default()
    }

    /// Fold one query's stats into the shared totals.
    pub fn add(&self, s: QueryStats) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.disk_reads.fetch_add(s.disk.reads, Ordering::Relaxed);
        self.disk_writes.fetch_add(s.disk.writes, Ordering::Relaxed);
        self.seg_comps.fetch_add(s.seg_comps, Ordering::Relaxed);
        self.bbox_comps.fetch_add(s.bbox_comps, Ordering::Relaxed);
        self.seg_disk_reads
            .fetch_add(s.seg_disk.reads, Ordering::Relaxed);
        self.seg_disk_writes
            .fetch_add(s.seg_disk.writes, Ordering::Relaxed);
    }

    /// Number of queries folded in so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// A point-in-time total. Taken between batches it is exact; taken
    /// while workers are mid-[`SharedStats::add`] each counter is still a
    /// valid running sum (counters are only ever added to).
    pub fn snapshot(&self) -> QueryStats {
        QueryStats {
            disk: DiskStats {
                reads: self.disk_reads.load(Ordering::Relaxed),
                writes: self.disk_writes.load(Ordering::Relaxed),
            },
            seg_comps: self.seg_comps.load(Ordering::Relaxed),
            bbox_comps: self.bbox_comps.load(Ordering::Relaxed),
            seg_disk: DiskStats {
                reads: self.seg_disk_reads.load(Ordering::Relaxed),
                writes: self.seg_disk_writes.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qs(r: u64, w: u64, sc: u64, bc: u64) -> QueryStats {
        QueryStats {
            disk: DiskStats {
                reads: r,
                writes: w,
            },
            seg_comps: sc,
            bbox_comps: bc,
            seg_disk: DiskStats::default(),
        }
    }

    #[test]
    fn since_subtracts() {
        let later = qs(10, 5, 100, 1000);
        let earlier = qs(4, 2, 40, 100);
        let d = later.since(earlier);
        assert_eq!(d, qs(6, 3, 60, 900));
    }

    #[test]
    fn add_accumulates() {
        let mut acc = qs(1, 1, 1, 1);
        acc.add(qs(2, 3, 4, 5));
        assert_eq!(acc, qs(3, 4, 5, 6));
    }

    #[test]
    fn shared_stats_accumulate_across_threads() {
        let shared = SharedStats::new();
        let shared = &shared;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..25 {
                        shared.add(qs(1, 0, 2, 3));
                    }
                });
            }
        });
        assert_eq!(shared.queries(), 100);
        assert_eq!(shared.snapshot(), qs(100, 0, 200, 300));
    }

    #[test]
    fn ctx_stats_snapshot_and_reset() {
        let mut ctx = QueryCtx::new();
        ctx.seg_comps = 3;
        ctx.bbox_comps = 7;
        ctx.index.stats.reads = 2;
        ctx.seg.stats.reads = 1;
        assert_eq!(
            ctx.stats(),
            QueryStats {
                disk: DiskStats {
                    reads: 2,
                    writes: 0
                },
                seg_comps: 3,
                bbox_comps: 7,
                seg_disk: DiskStats {
                    reads: 1,
                    writes: 0
                },
            }
        );
        ctx.reset();
        assert_eq!(ctx.stats(), QueryStats::default());
    }
}
