//! On-page layout of R-tree-family nodes.
//!
//! The paper fixes the *logical* format: "represent each node as a set of
//! 2-tuples (R, O) where R is the smallest rectangle that contains the
//! data stored in son O. For line segments ... each 2-tuple requires 5
//! entries — 4 for the x and y coordinate values of the bounding rectangle
//! and one entry for the pointer to the son node ... each 2-tuple requires
//! 20 bytes of storage and thus each 1K byte page contains a maximum of 50
//! line segments."
//!
//! # Physical layout: structure of arrays (format v2)
//!
//! Those 20 bytes per tuple are preserved, but since format v2 they are
//! laid out as five parallel **lanes** instead of interleaved 20-byte
//! records:
//!
//! ```text
//! offset                  contents
//! 0 .. 24                 header: tag (1) · format version (1) ·
//!                         count u16 LE (2) · reserved (20)
//! HDR + 0·S .. +   S      xlo[cap]   i32 LE
//! HDR + 1·S .. + 2·S      ylo[cap]   i32 LE
//! HDR + 2·S .. + 3·S      xhi[cap]   i32 LE
//! HDR + 3·S .. + 4·S      yhi[cap]   i32 LE
//! HDR + 4·S .. + 5·S      child[cap] u32 LE
//! ```
//!
//! where `cap = (page_size - HDR) / 20` (identical to the v1 capacity, so
//! tree shapes — and therefore the paper's counters — are unchanged) and
//! `S = 4·cap` is the lane stride. A scan kernel now reads each predicate
//! operand as one contiguous vector-width load per lane instead of
//! gathering it out of interleaved records — the structure-of-arrays
//! transposition that "SIMD-ified R-tree Query Processing" shows beats
//! auto-vectorized AoS scanning by large constant factors (see
//! [`crate::scan`]). Lane starts are 4-byte aligned whenever the page
//! buffer is (HDR and every stride are multiples of 4); the kernels use
//! unaligned vector loads, so nothing stronger is required.
//!
//! Byte 1 of the header, reserved (always zero) in v1, now carries the
//! page-format version ([`FORMAT_VERSION`]). Node pages never leave
//! memory, so they are always current-format; the one persistent file, a
//! live map's op log, carries its own format version (see
//! [`crate::live`]) and is refused at open under any other.
//!
//! Entry order within a node is not semantically meaningful (R-tree nodes
//! are unordered sets), so removal is a swap-remove — this matches the
//! paper's observation that R-tree-family 2-tuples "need not be sorted",
//! unlike the PMR quadtree's B-tree pages.

use crate::scan::{self, EntryScan};
use crate::traverse::{DfsSink, NnSink, NodeAccess};
use crate::{LocId, QueryCtx, SegId, SegmentTable};
use lsdb_geom::{Dist2, Point, Rect};
use lsdb_pager::{BufferPool, PageId};

/// Node header bytes: tag (1) + format version (1) + count (2) +
/// reserved (20).
pub const HDR: usize = 24;
/// Bytes per entry summed across the five lanes: 4 × i32 rectangle +
/// u32 child pointer.
pub const ENTRY: usize = 20;
/// Page-format version written into header byte 1: 2 = structure-of-arrays
/// lanes. (Version 1, the interleaved array-of-structs layout, is no
/// longer readable; stores carrying v1 pages are rejected at open.)
pub const FORMAT_VERSION: u8 = 2;

/// One (R, O) 2-tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    pub rect: Rect,
    /// Segment id (leaf) or page id (internal).
    pub child: u32,
}

/// Static accessors over a raw node page.
pub struct RectNode;

impl RectNode {
    /// Maximum entries per node — the paper's `M ≈ S / k`. Unchanged by
    /// the v2 lane layout: the same 20 bytes per entry, transposed.
    pub fn capacity(page_size: usize) -> usize {
        (page_size - HDR) / ENTRY
    }

    /// Lane stride in bytes for a page buffer of `page_size` bytes:
    /// `4 · capacity`. Lane `k` (0 = xlo, 1 = ylo, 2 = xhi, 3 = yhi,
    /// 4 = child) starts at `HDR + k · stride`.
    #[inline(always)]
    pub fn lane_stride(page_size: usize) -> usize {
        4 * Self::capacity(page_size)
    }

    pub fn init(buf: &mut [u8], leaf: bool) {
        buf[..HDR].fill(0);
        buf[0] = if leaf { 0 } else { 1 };
        buf[1] = FORMAT_VERSION;
    }

    pub fn is_leaf(buf: &[u8]) -> bool {
        buf[0] == 0
    }

    /// The format version stamped into the node header (byte 1). Always
    /// [`FORMAT_VERSION`] for pages written by this code; v1 pages carried
    /// a zero here.
    pub fn format_version(buf: &[u8]) -> u8 {
        buf[1]
    }

    pub fn count(buf: &[u8]) -> usize {
        u16::from_le_bytes([buf[2], buf[3]]) as usize
    }

    fn set_count(buf: &mut [u8], c: usize) {
        buf[2..4].copy_from_slice(&(c as u16).to_le_bytes());
    }

    #[inline(always)]
    fn lane_at(buf_len: usize, lane: usize, i: usize) -> usize {
        HDR + lane * Self::lane_stride(buf_len) + 4 * i
    }

    #[inline(always)]
    fn rd_lane(buf: &[u8], lane: usize, i: usize) -> i32 {
        let at = Self::lane_at(buf.len(), lane, i);
        i32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
    }

    #[inline(always)]
    fn wr_lane(buf: &mut [u8], lane: usize, i: usize, v: i32) {
        let at = Self::lane_at(buf.len(), lane, i);
        buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn entry(buf: &[u8], i: usize) -> Entry {
        debug_assert!(i < Self::count(buf));
        Entry {
            rect: Rect::new(
                Self::rd_lane(buf, 0, i),
                Self::rd_lane(buf, 1, i),
                Self::rd_lane(buf, 2, i),
                Self::rd_lane(buf, 3, i),
            ),
            child: Self::rd_lane(buf, 4, i) as u32,
        }
    }

    pub fn set_entry(buf: &mut [u8], i: usize, e: Entry) {
        debug_assert!(i < Self::count(buf));
        Self::write_raw(buf, i, e);
    }

    fn write_raw(buf: &mut [u8], i: usize, e: Entry) {
        Self::wr_lane(buf, 0, i, e.rect.min.x);
        Self::wr_lane(buf, 1, i, e.rect.min.y);
        Self::wr_lane(buf, 2, i, e.rect.max.x);
        Self::wr_lane(buf, 3, i, e.rect.max.y);
        Self::wr_lane(buf, 4, i, e.child as i32);
    }

    /// Append an entry (the paper: "a 2-tuple ... can simply be inserted as
    /// the last element"). Panics in debug builds past capacity.
    pub fn push(buf: &mut [u8], e: Entry) {
        let c = Self::count(buf);
        debug_assert!(c < Self::capacity(buf.len()), "node overflow");
        Self::write_raw(buf, c, e);
        Self::set_count(buf, c + 1);
    }

    /// Swap-remove the entry at `i`.
    pub fn remove_at(buf: &mut [u8], i: usize) {
        let c = Self::count(buf);
        debug_assert!(i < c);
        if i != c - 1 {
            let last = Self::entry(buf, c - 1);
            Self::write_raw(buf, i, last);
        }
        Self::set_count(buf, c - 1);
    }

    /// Materialize all entries as an owned vector. Build/split path only:
    /// splits and redistributions genuinely want a reorderable `Vec`. The
    /// query path walks pages zero-copy through [`EntryScan`] instead.
    pub fn entries(buf: &[u8]) -> Vec<Entry> {
        (0..Self::count(buf)).map(|i| Self::entry(buf, i)).collect()
    }

    /// Replace all entries (used after splits and redistributions).
    pub fn write_entries(buf: &mut [u8], entries: &[Entry]) {
        debug_assert!(entries.len() <= Self::capacity(buf.len()));
        for (i, &e) in entries.iter().enumerate() {
            Self::write_raw(buf, i, e);
        }
        Self::set_count(buf, entries.len());
    }

    /// Minimum bounding rectangle of all entries. Panics on an empty node
    /// (only a leaf root may be empty, and its MBR is never requested).
    pub fn mbr(buf: &[u8]) -> Rect {
        let c = Self::count(buf);
        assert!(c > 0, "MBR of empty node");
        let mut r = Self::entry(buf, 0).rect;
        for i in 1..c {
            r = r.union(&Self::entry(buf, i).rect);
        }
        r
    }
}

/// Traversal handle for one R-tree-family node: its page plus its level
/// (leaves are level 1), which is how the family distinguishes leaf pages
/// without a per-page tag lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RectRef {
    pub pid: PageId,
    pub level: u32,
}

/// [`NodeAccess`] implementation shared by every structure that stores
/// [`RectNode`] pages — the R\*-tree and the R+-tree. The two trees differ
/// only in how pages are *built* (split/redistribution policy); their
/// traversal, including the counter accounting (one bbox computation per
/// entry on every page read), is identical, so one cursor serves both.
pub struct RectTreeAccess<'a> {
    pub pool: &'a BufferPool,
    pub table: &'a SegmentTable,
    pub root: PageId,
    /// Level of the root; leaves are level 1.
    pub height: u32,
}

impl RectTreeAccess<'_> {
    fn root_ref(&self) -> RectRef {
        RectRef {
            pid: self.root,
            level: self.height,
        }
    }
}

impl NodeAccess for RectTreeAccess<'_> {
    type Node = RectRef;

    fn table(&self) -> &SegmentTable {
        self.table
    }

    fn seed_point(
        &self,
        _p: Point,
        _probe_only: bool,
        _ctx: &mut QueryCtx,
        sink: &mut DfsSink<RectRef>,
    ) {
        sink.node(self.root_ref());
    }

    fn expand_point(
        &self,
        n: RectRef,
        p: Point,
        probe_only: bool,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<RectRef>,
    ) {
        let buf = self.pool.read_page(n.pid, &mut ctx.index);
        let entries = EntryScan::of_node(buf);
        // One bbox computation per entry scanned — the kernels report the
        // scanned count, which is the full node occupancy regardless of
        // how many entries pass the filter (identical to the historical
        // per-entry loop's charge).
        if n.level == 1 {
            sink.arrive(LocId(n.pid.0 as u64));
            if probe_only {
                ctx.bbox_comps += entries.len() as u64;
            } else {
                ctx.bbox_comps +=
                    scan::scan_containing_point(&entries, p, |c| sink.entry(SegId(c))) as u64;
            }
        } else {
            ctx.bbox_comps += scan::scan_containing_point(&entries, p, |c| {
                sink.node(RectRef {
                    pid: PageId(c),
                    level: n.level - 1,
                });
            }) as u64;
        }
    }

    fn seed_window(&self, _w: Rect, _ctx: &mut QueryCtx, sink: &mut DfsSink<RectRef>) {
        sink.node(self.root_ref());
    }

    fn expand_window(&self, n: RectRef, w: Rect, ctx: &mut QueryCtx, sink: &mut DfsSink<RectRef>) {
        let buf = self.pool.read_page(n.pid, &mut ctx.index);
        let entries = EntryScan::of_node(buf);
        if n.level == 1 {
            ctx.bbox_comps +=
                scan::scan_intersecting(&entries, &w, |c| sink.entry(SegId(c))) as u64;
        } else {
            ctx.bbox_comps += scan::scan_intersecting(&entries, &w, |c| {
                sink.node(RectRef {
                    pid: PageId(c),
                    level: n.level - 1,
                });
            }) as u64;
        }
    }

    fn seed_nearest(&self, _p: Point, _ctx: &mut QueryCtx, sink: &mut NnSink<RectRef>) {
        sink.node(self.root_ref(), Dist2::ZERO);
    }

    fn expand_nearest(&self, n: RectRef, p: Point, ctx: &mut QueryCtx, sink: &mut NnSink<RectRef>) {
        let buf = self.pool.read_page(n.pid, &mut ctx.index);
        let entries = EntryScan::of_node(buf);
        if n.level == 1 {
            // One page access charges the node (and one bbox per entry, as
            // every traversal of this family does); the segment fetches
            // then proceed over the borrowed bytes with their usual
            // per-fetch charges.
            ctx.bbox_comps += entries.len() as u64;
            for i in 0..entries.len() {
                let id = SegId(entries.child(i));
                let s = self.table.get(id, ctx);
                sink.exact(id, s.dist2_point(p));
            }
        } else {
            // No pruning against the best-so-far: the queue's global
            // ordering prunes for us (a node never pops after the k-th
            // result's distance).
            ctx.bbox_comps += scan::scan_min_dist2(&entries, p, |c, d| {
                sink.node(
                    RectRef {
                        pid: PageId(c),
                        level: n.level - 1,
                    },
                    Dist2::from_int(d),
                );
            }) as u64;
        }
    }
}

/// Minimum bounding rectangle of a slice of entries.
pub fn entries_mbr(entries: &[Entry]) -> Rect {
    assert!(!entries.is_empty());
    let mut r = entries[0].rect;
    for e in &entries[1..] {
        r = r.union(&e.rect);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(x0: i32, y0: i32, x1: i32, y1: i32, child: u32) -> Entry {
        Entry {
            rect: Rect::new(x0, y0, x1, y1),
            child,
        }
    }

    #[test]
    fn capacity_matches_paper() {
        assert_eq!(RectNode::capacity(1024), 50, "1 KB page = 50 tuples");
        assert_eq!(RectNode::capacity(512), 24);
        assert_eq!(RectNode::capacity(2048), 101);
    }

    #[test]
    fn lanes_tile_the_page_exactly() {
        // 1 KB page: cap 50, stride 200; five lanes end exactly at 1024.
        assert_eq!(RectNode::lane_stride(1024), 200);
        assert_eq!(HDR + 5 * RectNode::lane_stride(1024), 1024);
        // Lane starts are 4-byte aligned offsets.
        for k in 0..5 {
            assert_eq!((HDR + k * RectNode::lane_stride(1024)) % 4, 0);
        }
    }

    #[test]
    fn push_entry_roundtrip() {
        let mut buf = vec![0u8; 256];
        RectNode::init(&mut buf, true);
        assert!(RectNode::is_leaf(&buf));
        assert_eq!(RectNode::format_version(&buf), FORMAT_VERSION);
        RectNode::push(&mut buf, e(1, 2, 3, 4, 9));
        RectNode::push(&mut buf, e(-5, -6, 7, 8, 10));
        assert_eq!(RectNode::count(&buf), 2);
        assert_eq!(RectNode::entry(&buf, 0), e(1, 2, 3, 4, 9));
        assert_eq!(RectNode::entry(&buf, 1), e(-5, -6, 7, 8, 10));
    }

    #[test]
    fn swap_remove() {
        let mut buf = vec![0u8; 256];
        RectNode::init(&mut buf, false);
        assert!(!RectNode::is_leaf(&buf));
        for i in 0..4 {
            RectNode::push(&mut buf, e(i, i, i + 1, i + 1, i as u32));
        }
        RectNode::remove_at(&mut buf, 1);
        assert_eq!(RectNode::count(&buf), 3);
        // Last entry swapped into slot 1.
        assert_eq!(RectNode::entry(&buf, 1).child, 3);
        RectNode::remove_at(&mut buf, 2);
        assert_eq!(RectNode::count(&buf), 2);
    }

    #[test]
    fn mbr_unions_all() {
        let mut buf = vec![0u8; 256];
        RectNode::init(&mut buf, true);
        RectNode::push(&mut buf, e(0, 0, 2, 2, 0));
        RectNode::push(&mut buf, e(5, -1, 6, 1, 1));
        assert_eq!(RectNode::mbr(&buf), Rect::new(0, -1, 6, 2));
        assert_eq!(
            entries_mbr(&RectNode::entries(&buf)),
            Rect::new(0, -1, 6, 2)
        );
    }

    #[test]
    fn write_entries_replaces() {
        let mut buf = vec![0u8; 256];
        RectNode::init(&mut buf, true);
        for i in 0..5 {
            RectNode::push(&mut buf, e(i, 0, i, 0, i as u32));
        }
        RectNode::write_entries(&mut buf, &[e(9, 9, 9, 9, 42)]);
        assert_eq!(RectNode::count(&buf), 1);
        assert_eq!(RectNode::entry(&buf, 0).child, 42);
    }

    #[test]
    fn extreme_coordinates_roundtrip() {
        let mut buf = vec![0u8; 256];
        RectNode::init(&mut buf, true);
        let x = e(i32::MIN, i32::MIN, i32::MAX, i32::MAX, u32::MAX);
        RectNode::push(&mut buf, x);
        assert_eq!(RectNode::entry(&buf, 0), x);
    }
}
