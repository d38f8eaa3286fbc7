//! The representative-point index — the paper's §2 counter-example.
//!
//! "Using a representative point, each line segment can be represented by
//! its endpoints ... in effect, we have constructed a mapping from a
//! two-dimensional space to a four-dimensional space. This mapping is fine
//! for storage purposes. However, it is not ideal for spatial operations
//! involving search ... proximity in the two-dimensional space from which
//! the lines are drawn is not necessarily preserved in the four-dimensional
//! space."
//!
//! This crate implements that strawman faithfully so the claim can be
//! *measured* (see the `ablation` benchmark): a uniform 4-d grid over the
//! representative points `(x1, y1, x2, y2)` of the canonicalized segments —
//! the transformed-space bucketing the paper contrasts with spatial
//! occupancy (a simplified grid file "applied to the transformed data").
//!
//! What goes right and wrong, exactly as §2 predicts:
//!
//! * **Storage** is ideal: every segment lives in exactly one bucket, no
//!   redundancy at all.
//! * **Exact-endpoint search** (query 1) is tolerable: fixing two of the
//!   four coordinates leaves a 2-d slab of `g²` cells per endpoint role.
//! * **Window and nearest queries suffer**: a small 2-d window corresponds
//!   to a large, non-rectangular region of the 4-d space, and Euclidean
//!   proximity does not transfer, so the search must visit a large share
//!   of the buckets and fall back to coarse 4-d lower bounds.

use lsdb_core::{
    IndexConfig, PolygonalMap, QueryCtx, QueryStats, SegId, SegmentTable, SpatialIndex,
};
use lsdb_geom::{Dist2, Point, Rect, Segment, WORLD_SIZE};
use lsdb_pager::{BufferPool, PageId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const HDR: usize = 8; // count u16 at 0, next page u32 at 4

/// A uniform 4-d grid over segment representative points.
pub struct ReprGrid {
    pool: BufferPool,
    table: SegmentTable,
    /// Cells per axis (total cells = g⁴).
    g: i32,
    /// First/tail page of each 4-d cell's bucket chain, by flattened index.
    chains: Vec<Option<(PageId, PageId)>>,
    ids_per_page: usize,
    len: usize,
}

/// 4-d cell coordinates.
type Cell4 = [i32; 4];

impl ReprGrid {
    /// `g` cells per axis; `g⁴` buckets in total (keep `g` small).
    pub fn new(table: SegmentTable, cfg: IndexConfig, g: i32) -> Self {
        assert!((2..=16).contains(&g), "g^4 buckets: keep g in 2..=16");
        assert!(WORLD_SIZE % g == 0);
        let pool = BufferPool::new(cfg.page_size, cfg.pool_pages);
        let ids_per_page = (cfg.page_size - HDR) / 4;
        ReprGrid {
            pool,
            table,
            g,
            chains: vec![None; (g * g * g * g) as usize],
            ids_per_page,
            len: 0,
        }
    }

    pub fn build(map: &PolygonalMap, cfg: IndexConfig, g: i32) -> Self {
        let table = SegmentTable::from_map(map, cfg.page_size, cfg.pool_pages);
        let mut t = ReprGrid::new(table, cfg, g);
        for id in 0..map.segments.len() {
            t.insert(SegId(id as u32));
        }
        t
    }

    fn side(&self) -> i32 {
        WORLD_SIZE / self.g
    }

    /// The representative point of a segment: canonical endpoint order so
    /// the mapping is deterministic for undirected segments.
    fn rep(seg: &Segment) -> [i32; 4] {
        let c = seg.canonical();
        [c.a.x, c.a.y, c.b.x, c.b.y]
    }

    fn cell_of(&self, rep: [i32; 4]) -> Cell4 {
        let s = self.side();
        [rep[0] / s, rep[1] / s, rep[2] / s, rep[3] / s].map(|c| c.clamp(0, self.g - 1))
    }

    fn flat(&self, c: Cell4) -> usize {
        let g = self.g as usize;
        ((c[0] as usize * g + c[1] as usize) * g + c[2] as usize) * g + c[3] as usize
    }

    /// The 2-d rectangle of world positions axis-pair `lo` of a cell can
    /// hold: `[c*s, c*s + s - 1]`.
    fn axis_range(&self, c: i32) -> (i32, i32) {
        let s = self.side();
        (c * s, c * s + s - 1)
    }

    fn bucket_ids(&mut self, flat: usize) -> Vec<SegId> {
        let mut out = Vec::new();
        let Some((first, _)) = self.chains[flat] else {
            return out;
        };
        let mut page = Some(first);
        while let Some(pid) = page {
            page = self.pool.with_page(pid, |buf| {
                let count = u16::from_le_bytes([buf[0], buf[1]]) as usize;
                for i in 0..count {
                    let at = HDR + i * 4;
                    out.push(SegId(u32::from_le_bytes(
                        buf[at..at + 4].try_into().unwrap(),
                    )));
                }
                let next = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                (next != u32::MAX).then_some(PageId(next))
            });
        }
        out
    }

    fn append(&mut self, flat: usize, id: SegId) {
        let per = self.ids_per_page;
        let new_page = |pool: &mut BufferPool, id: SegId| -> PageId {
            let pid = pool.allocate();
            pool.with_page_mut(pid, |buf| {
                buf[0..2].copy_from_slice(&1u16.to_le_bytes());
                buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                buf[HDR..HDR + 4].copy_from_slice(&id.0.to_le_bytes());
            });
            pid
        };
        match self.chains[flat] {
            None => {
                let pid = new_page(&mut self.pool, id);
                self.chains[flat] = Some((pid, pid));
            }
            Some((first, tail)) => {
                let appended = self.pool.with_page_mut(tail, |buf| {
                    let count = u16::from_le_bytes([buf[0], buf[1]]) as usize;
                    if count < per {
                        let at = HDR + count * 4;
                        buf[at..at + 4].copy_from_slice(&id.0.to_le_bytes());
                        buf[0..2].copy_from_slice(&((count + 1) as u16).to_le_bytes());
                        true
                    } else {
                        false
                    }
                });
                if !appended {
                    let pid = new_page(&mut self.pool, id);
                    self.pool.with_page_mut(tail, |buf| {
                        buf[4..8].copy_from_slice(&pid.0.to_le_bytes());
                    });
                    self.chains[flat] = Some((first, pid));
                }
            }
        }
    }

    /// Query-path twin of [`ReprGrid::bucket_ids`]: walk the chain over the
    /// pool's shared read path, charging page reads to the context. One
    /// call is one bucket computation.
    fn bucket_ids_ctx(&self, flat: usize, ctx: &mut QueryCtx) -> Vec<SegId> {
        ctx.bbox_comps += 1;
        let mut out = Vec::new();
        let Some((first, _)) = self.chains[flat] else {
            return out;
        };
        let mut page = Some(first);
        while let Some(pid) = page {
            let buf = self.pool.read_page(pid, &mut ctx.index);
            let count = u16::from_le_bytes([buf[0], buf[1]]) as usize;
            for i in 0..count {
                let at = HDR + i * 4;
                out.push(SegId(u32::from_le_bytes(
                    buf[at..at + 4].try_into().unwrap(),
                )));
            }
            let next = u32::from_le_bytes(buf[4..8].try_into().unwrap());
            page = (next != u32::MAX).then_some(PageId(next));
        }
        out
    }

    /// Iterate cells of the 2-d slab where axes `(ai, aj)` are fixed to the
    /// cell coordinates containing `(vi, vj)`.
    fn slab_cells(&self, ai: usize, aj: usize, vi: i32, vj: i32) -> Vec<usize> {
        let s = self.side();
        let (ci, cj) = ((vi / s).clamp(0, self.g - 1), (vj / s).clamp(0, self.g - 1));
        let mut cells = Vec::with_capacity((self.g * self.g) as usize);
        for a in 0..self.g {
            for b in 0..self.g {
                let mut c = [0i32; 4];
                c[ai] = ci;
                c[aj] = cj;
                let free: Vec<usize> = (0..4).filter(|k| *k != ai && *k != aj).collect();
                c[free[0]] = a;
                c[free[1]] = b;
                cells.push(self.flat(c));
            }
        }
        cells
    }

    /// Lower bound on the distance from `p` to any segment whose
    /// representative point lies in cell `c`: both endpoints are confined
    /// to known 2-d rectangles, and a segment cannot be closer to `p` than
    /// the nearer of the two... it can (its interior can pass closer), so
    /// the only sound cell-level bound is the distance to the convex hull
    /// of the two endpoint rectangles — approximated by the bounding box
    /// of both, which is a valid lower bound.
    fn cell_dist_lb(&self, c: Cell4, p: Point) -> i64 {
        let (x1l, x1h) = self.axis_range(c[0]);
        let (y1l, y1h) = self.axis_range(c[1]);
        let (x2l, x2h) = self.axis_range(c[2]);
        let (y2l, y2h) = self.axis_range(c[3]);
        let hull = Rect::new(x1l.min(x2l), y1l.min(y2l), x1h.max(x2h), y1h.max(y2h));
        hull.dist2_point(p)
    }
}

struct CellEntry {
    dist: i64,
    flat: usize,
}

impl PartialEq for CellEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.flat == other.flat
    }
}
impl Eq for CellEntry {}
impl PartialOrd for CellEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CellEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.cmp(&other.dist).then(self.flat.cmp(&other.flat))
    }
}

impl SpatialIndex for ReprGrid {
    fn name(&self) -> &'static str {
        "repr-point 4-d grid"
    }

    fn seg_table(&self) -> &SegmentTable {
        &self.table
    }

    fn seg_table_mut(&mut self) -> &mut SegmentTable {
        &mut self.table
    }

    fn insert(&mut self, id: SegId) {
        let seg = self.table.fetch(id);
        let cell = self.cell_of(Self::rep(&seg));
        let flat = self.flat(cell);
        self.append(flat, id);
        self.len += 1;
    }

    fn remove(&mut self, id: SegId) -> bool {
        let seg = self.table.fetch(id);
        let flat = self.flat(self.cell_of(Self::rep(&seg)));
        let ids = self.bucket_ids(flat);
        if !ids.contains(&id) {
            return false;
        }
        // Rebuild the chain without `id`.
        if let Some((first, _)) = self.chains[flat] {
            let mut page = Some(first);
            while let Some(pid) = page {
                let next = self.pool.with_page(pid, |buf| {
                    let next = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                    (next != u32::MAX).then_some(PageId(next))
                });
                self.pool.free(pid);
                page = next;
            }
        }
        self.chains[flat] = None;
        for other in ids {
            if other != id {
                self.append(flat, other);
            }
        }
        self.len -= 1;
        true
    }

    fn len(&self) -> usize {
        self.len
    }

    fn find_incident_visit(&self, p: Point, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        // The canonical endpoint may sit in either role: two 2-d slabs of
        // g² buckets each.
        let mut seen = Vec::new();
        for (ai, aj) in [(0, 1), (2, 3)] {
            for flat in self.slab_cells(ai, aj, p.x, p.y) {
                for id in self.bucket_ids_ctx(flat, ctx) {
                    let seg = self.table.get(id, ctx);
                    if seg.has_endpoint(p) && !seen.contains(&id) {
                        seen.push(id);
                        f(id);
                    }
                }
            }
        }
    }

    fn nearest(&self, p: Point, ctx: &mut QueryCtx) -> Option<SegId> {
        if self.len == 0 {
            return None;
        }
        // Best-first over all g⁴ cells with the (weak) hull lower bound —
        // the paper's point: there is no good way to localize this search
        // in the transformed space.
        let g = self.g;
        let mut heap: BinaryHeap<Reverse<CellEntry>> = BinaryHeap::new();
        for x1 in 0..g {
            for y1 in 0..g {
                for x2 in 0..g {
                    for y2 in 0..g {
                        let c = [x1, y1, x2, y2];
                        if self.chains[self.flat(c)].is_some() {
                            heap.push(Reverse(CellEntry {
                                dist: self.cell_dist_lb(c, p),
                                flat: self.flat(c),
                            }));
                        }
                    }
                }
            }
        }
        let mut best: Option<(Dist2, SegId)> = None;
        while let Some(Reverse(CellEntry { dist, flat })) = heap.pop() {
            if let Some((bd, _)) = best {
                if bd <= Dist2::from_int(dist) {
                    break;
                }
            }
            for id in self.bucket_ids_ctx(flat, ctx) {
                let seg = self.table.get(id, ctx);
                let d = seg.dist2_point(p);
                if best.is_none_or(|(bd, bid)| (d, id) < (bd, bid)) {
                    best = Some((d, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    fn window_visit(&self, w: Rect, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        // A segment intersecting `w` cannot have both endpoints strictly on
        // the same outside of `w` along either axis; every 4-d cell not
        // excluded by that test must be scanned.
        let g = self.g;
        let excluded_axis = |cl: i32, ch: i32, lo: i32, hi: i32| -> bool {
            // Both endpoint coordinate ranges on one side of the window.
            (ch < lo) || (cl > hi)
        };
        for x1 in 0..g {
            for y1 in 0..g {
                for x2 in 0..g {
                    for y2 in 0..g {
                        let (x1l, x1h) = self.axis_range(x1);
                        let (x2l, x2h) = self.axis_range(x2);
                        let (y1l, y1h) = self.axis_range(y1);
                        let (y2l, y2h) = self.axis_range(y2);
                        // The segment's bbox spans from min to max of the
                        // endpoint ranges; exclude cells whose every
                        // possible bbox misses the window.
                        if excluded_axis(x1l.min(x2l), x1h.max(x2h), w.min.x, w.max.x)
                            || excluded_axis(y1l.min(y2l), y1h.max(y2h), w.min.y, w.max.y)
                        {
                            continue;
                        }
                        let flat = self.flat([x1, y1, x2, y2]);
                        if self.chains[flat].is_none() {
                            continue;
                        }
                        for id in self.bucket_ids_ctx(flat, ctx) {
                            let seg = self.table.get(id, ctx);
                            if w.intersects_segment(&seg) {
                                f(id);
                            }
                        }
                    }
                }
            }
        }
    }

    fn stats(&self) -> QueryStats {
        QueryStats {
            disk: self.pool.stats(),
            seg_comps: 0,
            bbox_comps: 0,
            seg_disk: self.table.disk_stats(),
        }
    }

    fn reset_stats(&mut self) {
        self.pool.reset_stats();
        self.table.reset_stats();
    }

    fn size_bytes(&self) -> u64 {
        self.pool.size_bytes()
    }

    fn clear_cache(&mut self) {
        self.pool.clear();
    }

    fn attach_budget(&mut self, budget: &std::sync::Arc<lsdb_pager::BufferBudget>) {
        self.pool.attach_budget(budget);
        self.table.attach_budget(budget);
    }

    fn shed_cache(&self, target_bytes: u64) -> u64 {
        let freed = self.pool.shed(target_bytes);
        freed + self.table.shed_cache(target_bytes.saturating_sub(freed))
    }

    fn cache_stats(&self) -> lsdb_pager::CacheStats {
        let mut s = self.pool.cache_stats();
        s.add(self.table.cache_stats());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_core::brute;

    fn cfg() -> IndexConfig {
        IndexConfig {
            page_size: 256,
            pool_pages: 16,
        }
    }

    fn cross_map() -> PolygonalMap {
        let q = WORLD_SIZE / 4;
        PolygonalMap::new(
            "cross",
            vec![
                Segment::new(Point::new(10, 10), Point::new(q, q)),
                Segment::new(Point::new(q, q), Point::new(3 * q, q)),
                Segment::new(Point::new(3 * q, q), Point::new(3 * q, 3 * q)),
                Segment::new(Point::new(0, 2 * q), Point::new(WORLD_SIZE - 1, 2 * q)),
                Segment::new(Point::new(2 * q, 0), Point::new(2 * q, WORLD_SIZE - 1)),
            ],
        )
    }

    #[test]
    fn build_and_storage_is_duplication_free() {
        let map = cross_map();
        let t = ReprGrid::build(&map, cfg(), 4);
        assert_eq!(t.len(), map.len());
        // One bucket entry per segment: the §2 "fine for storage" claim.
        // 5 segments × 4 bytes plus chain headers fits a single page per
        // occupied bucket.
        assert!(t.size_bytes() <= 5 * 256);
    }

    #[test]
    fn incident_matches_brute_force() {
        let map = cross_map();
        let t = ReprGrid::build(&map, cfg(), 4);
        let mut ctx = QueryCtx::new();
        let q = WORLD_SIZE / 4;
        for p in [
            Point::new(q, q),
            Point::new(3 * q, q),
            Point::new(10, 10),
            Point::new(5, 5),
        ] {
            assert_eq!(
                brute::sorted(t.find_incident(p, &mut ctx)),
                brute::incident(&map, p),
                "at {p:?}"
            );
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let map = cross_map();
        let t = ReprGrid::build(&map, cfg(), 4);
        let mut ctx = QueryCtx::new();
        for x in (0..WORLD_SIZE).step_by(2231) {
            for y in (0..WORLD_SIZE).step_by(1787) {
                let p = Point::new(x, y);
                let got = t.nearest(p, &mut ctx).expect("non-empty");
                let want = brute::nearest(&map, p).unwrap();
                assert_eq!(map.segments[got.index()].dist2_point(p), want.1, "at {p:?}");
            }
        }
    }

    #[test]
    fn window_matches_brute_force() {
        let map = cross_map();
        let t = ReprGrid::build(&map, cfg(), 4);
        let mut ctx = QueryCtx::new();
        let q = WORLD_SIZE / 4;
        for w in [
            Rect::new(0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1),
            Rect::new(q - 10, q - 10, q + 10, q + 10),
            Rect::new(0, 2 * q, 5, 2 * q),
            Rect::new(123, 456, 789, 1011),
        ] {
            assert_eq!(
                brute::sorted(t.window(w, &mut ctx)),
                brute::window(&map, w),
                "{w:?}"
            );
        }
    }

    #[test]
    fn remove_works() {
        let map = cross_map();
        let mut t = ReprGrid::build(&map, cfg(), 4);
        assert!(t.remove(SegId(1)));
        assert!(!t.remove(SegId(1)));
        assert_eq!(t.len(), map.len() - 1);
        let mut ctx = QueryCtx::new();
        let w = Rect::new(0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1);
        let want: Vec<SegId> = brute::window(&map, w)
            .into_iter()
            .filter(|id| id.0 != 1)
            .collect();
        assert_eq!(brute::sorted(t.window(w, &mut ctx)), want);
    }

    #[test]
    fn mixed_lengths_defeat_window_localization_as_the_paper_predicts() {
        // When segment lengths vary (short streets + long highways, as in
        // any road network), the 4-d cells holding long segments have
        // endpoint ranges spanning the whole map and can never be excluded:
        // every tiny window must scan all of them. This is §2's "proximity
        // ... is not necessarily preserved" made measurable.
        let mut segs = Vec::new();
        for i in 0i32..200 {
            let x = (i % 20) * 800 + 13;
            let y = (i / 20) * 800 + 29;
            segs.push(Segment::new(Point::new(x, y), Point::new(x + 300, y + 250)));
        }
        let n_short = segs.len();
        for i in 0i32..49 {
            // Long "highways" fanning out from near the window's corner to
            // 49 different destination cells: each lands in a distinct 4-d
            // bucket, every one of whose possible bounding boxes covers
            // the window — no window test can exclude any of them.
            segs.push(Segment::new(
                Point::new(300 + (i % 5), 350 + (i % 7)),
                Point::new(2048 * (1 + i % 7) + 700, 2048 * (1 + (i / 7) % 7) + 900),
            ));
        }
        let map = PolygonalMap::new("mixed", segs);
        let t = ReprGrid::build(&map, cfg(), 8);
        // The cells holding the highways can never be excluded by any
        // window test.
        let highway_cells: std::collections::HashSet<usize> = (n_short..map.len())
            .map(|i| t.flat(t.cell_of(ReprGrid::rep(&map.segments[i]))))
            .collect();
        let mut ctx = QueryCtx::new();
        let w = Rect::new(400, 400, 560, 560); // tiny corner window
        let hits = t.window(w, &mut ctx);
        let visited = ctx.stats().bbox_comps;
        assert!(
            visited as usize >= highway_cells.len(),
            "every highway bucket must be scanned: visited {visited}, \
             highway buckets {}",
            highway_cells.len()
        );
        assert!(visited > 15, "visited {visited}");
        // Correctness is unaffected — only cost.
        assert_eq!(brute::sorted(hits), brute::window(&map, w));
    }
}
