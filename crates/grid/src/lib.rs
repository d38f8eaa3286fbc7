//! Uniform grid over line segments — the paper's §2 regular-decomposition
//! baseline ("we can either decompose the space into blocks of uniform size
//! (e.g., the uniform grid of Franklin) or adapt the decomposition to the
//! distribution of the data"). It is used by the ablation benchmarks to
//! show *why* the adaptive PMR quadtree is preferred for non-uniform road
//! data: "the uniform grid is ideal for uniformly distributed data, while
//! quadtree-based approaches are suited for arbitrarily distributed data."
//!
//! Disk layout: the world is cut into `g × g` equal cells; each cell's
//! q-edges (segment ids) live in a chain of pages `[count: u16, next: u32,
//! ids ...]`. A per-cell first/last-page directory is kept in memory (it is
//! tiny and would occupy a handful of pages on disk).
//!
//! Queries run on the shared (`&self`) read path: cell chains are walked
//! through [`lsdb_pager::BufferPool::read_page`] and all counting is
//! charged to the caller's [`QueryCtx`].

use lsdb_core::queries::PolygonWalk;
use lsdb_core::scan;
use lsdb_core::traverse::{DfsSink, NnSink, NodeAccess};
use lsdb_core::{
    traverse, IndexConfig, LocId, PolygonalMap, QueryCtx, QueryStats, SegId, SegmentTable,
    SpatialIndex,
};
use lsdb_geom::{Dist2, Point, Rect, Segment, WORLD_SIZE};
use lsdb_pager::{BufferPool, PageId, PoolCtx};

const HDR: usize = 8; // count u16 at 0, next page u32 at 4 (u32::MAX = none)

/// A disk-resident uniform grid over line segments.
pub struct UniformGrid {
    pool: BufferPool,
    table: SegmentTable,
    /// Cells per side.
    g: i32,
    /// First and current-tail page of each cell's chain (row-major), once
    /// the cell holds at least one id.
    chains: Vec<Option<(PageId, PageId)>>,
    ids_per_page: usize,
    len: usize,
    /// Build-path bucket computations (query-path ones go to the ctx).
    bucket_comps: u64,
}

impl UniformGrid {
    /// `g` cells per side (the world side must be divisible by `g`).
    pub fn new(table: SegmentTable, cfg: IndexConfig, g: i32) -> Self {
        assert!(g >= 1 && WORLD_SIZE % g == 0, "grid must divide the world");
        let pool = BufferPool::new(cfg.page_size, cfg.pool_pages);
        let ids_per_page = (cfg.page_size - HDR) / 4;
        assert!(ids_per_page >= 1);
        UniformGrid {
            pool,
            table,
            g,
            chains: vec![None; (g * g) as usize],
            ids_per_page,
            len: 0,
            bucket_comps: 0,
        }
    }

    pub fn build(map: &PolygonalMap, cfg: IndexConfig, g: i32) -> Self {
        let table = SegmentTable::from_map(map, cfg.page_size, cfg.pool_pages);
        let mut t = UniformGrid::new(table, cfg, g);
        for id in 0..map.segments.len() {
            t.insert(SegId(id as u32));
        }
        t
    }

    fn cell_side(&self) -> i32 {
        WORLD_SIZE / self.g
    }

    fn cell_index(&self, cx: i32, cy: i32) -> usize {
        (cy * self.g + cx) as usize
    }

    /// Closed integer rect of a cell.
    fn cell_rect(&self, cx: i32, cy: i32) -> Rect {
        let s = self.cell_side();
        Rect::new(cx * s, cy * s, cx * s + s - 1, cy * s + s - 1)
    }

    /// Cell rect extended by one unit up/right so geometry on the upper
    /// boundary also registers (same convention as the PMR blocks).
    fn cell_closed_rect(&self, cx: i32, cy: i32) -> Rect {
        let s = self.cell_side();
        Rect::new(
            cx * s,
            cy * s,
            (cx * s + s).min(WORLD_SIZE - 1),
            (cy * s + s).min(WORLD_SIZE - 1),
        )
    }

    fn cell_of_point(&self, p: Point) -> (i32, i32) {
        let s = self.cell_side();
        (
            (p.x / s).clamp(0, self.g - 1),
            (p.y / s).clamp(0, self.g - 1),
        )
    }

    /// Cells whose closed region touches the segment (build path; bucket
    /// computations go to the build counter).
    fn cells_touching(&mut self, seg: &Segment) -> Vec<(i32, i32)> {
        let b = seg.bbox();
        let s = self.cell_side();
        // The extended (closed) region of cell c covers [c*s, c*s + s], so
        // a coordinate v can touch cells (v-s)/s ..= v/s.
        let cx0 = ((b.min.x - s) / s).clamp(0, self.g - 1);
        let cx1 = (b.max.x / s).clamp(0, self.g - 1);
        let cy0 = ((b.min.y - s) / s).clamp(0, self.g - 1);
        let cy1 = (b.max.y / s).clamp(0, self.g - 1);
        let mut out = Vec::new();
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                self.bucket_comps += 1;
                if self.cell_closed_rect(cx, cy).intersects_segment(seg) {
                    out.push((cx, cy));
                }
            }
        }
        out
    }

    /// Walk a cell's page chain on the shared read path, streaming each
    /// stored id into `f` (no intermediate collection). Pages are walked
    /// in place over the borrowed page bytes with the shared id-scan kernel.
    fn for_each_cell_id(&self, cx: i32, cy: i32, index: &mut PoolCtx, f: &mut dyn FnMut(SegId)) {
        let Some((first, _)) = self.chains[self.cell_index(cx, cy)] else {
            return;
        };
        let mut page = Some(first);
        while let Some(pid) = page {
            let buf = self.pool.read_page(pid, index);
            let count = u16::from_le_bytes([buf[0], buf[1]]) as usize;
            let next = u32::from_le_bytes(buf[4..8].try_into().unwrap());
            scan::scan_ids(&buf[HDR..HDR + count * 4], |id| f(SegId(id)));
            page = (next != u32::MAX).then_some(PageId(next));
        }
    }

    /// Walk a cell's page chain on the build path (through the LRU).
    fn cell_ids(&mut self, cx: i32, cy: i32) -> Vec<SegId> {
        let mut out = Vec::new();
        let Some((first, _)) = self.chains[self.cell_index(cx, cy)] else {
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

    fn append_to_cell(&mut self, cx: i32, cy: i32, id: SegId) {
        let idx = self.cell_index(cx, cy);
        let per = self.ids_per_page;
        match self.chains[idx] {
            None => {
                let pid = self.pool.allocate();
                self.pool.with_page_mut(pid, |buf| {
                    buf[0..2].copy_from_slice(&1u16.to_le_bytes());
                    buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                    buf[HDR..HDR + 4].copy_from_slice(&id.0.to_le_bytes());
                });
                self.chains[idx] = Some((pid, pid));
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
                    let pid = self.pool.allocate();
                    self.pool.with_page_mut(pid, |buf| {
                        buf[0..2].copy_from_slice(&1u16.to_le_bytes());
                        buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                        buf[HDR..HDR + 4].copy_from_slice(&id.0.to_le_bytes());
                    });
                    self.pool.with_page_mut(tail, |buf| {
                        buf[4..8].copy_from_slice(&pid.0.to_le_bytes());
                    });
                    self.chains[idx] = Some((first, pid));
                }
            }
        }
    }

    /// Rewrite a cell's chain without `id`; returns whether it was present.
    fn remove_from_cell(&mut self, cx: i32, cy: i32, id: SegId) -> bool {
        let ids = self.cell_ids(cx, cy);
        if !ids.contains(&id) {
            return false;
        }
        let idx = self.cell_index(cx, cy);
        // Free the whole chain and rebuild it.
        if let Some((first, _)) = self.chains[idx] {
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
        self.chains[idx] = None;
        for other in ids {
            if other != id {
                self.append_to_cell(cx, cy, other);
            }
        }
        true
    }
}

/// Expansion policy plugged into the shared engines. A "node" is a cell
/// coordinate; like the PMR quadtree, point queries resolve entirely in
/// the seed (the cell of `p` is arithmetic — one bucket computation, no
/// disk), while window and nearest-neighbor traversals enumerate cells and
/// charge one bucket computation per cell examined.
impl NodeAccess for UniformGrid {
    type Node = (i32, i32);

    fn table(&self) -> &SegmentTable {
        &self.table
    }

    fn seed_point(
        &self,
        p: Point,
        probe_only: bool,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<(i32, i32)>,
    ) {
        // Like the PMR quadtree, the cell containing p holds every segment
        // incident at p (grazing segments register via the closed region).
        let (cx, cy) = self.cell_of_point(p);
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        *bbox_comps += 1;
        sink.arrive(LocId(self.cell_index(cx, cy) as u64));
        if !probe_only {
            self.for_each_cell_id(cx, cy, index, &mut |id| sink.entry(id));
        }
    }

    fn expand_point(
        &self,
        _node: (i32, i32),
        _p: Point,
        _probe_only: bool,
        _ctx: &mut QueryCtx,
        _sink: &mut DfsSink<(i32, i32)>,
    ) {
        unreachable!("grid point queries resolve in the seed — no nodes are emitted");
    }

    fn seed_window(&self, w: Rect, _ctx: &mut QueryCtx, sink: &mut DfsSink<(i32, i32)>) {
        let s = self.cell_side();
        let cx0 = (w.min.x / s).clamp(0, self.g - 1);
        let cx1 = (w.max.x / s).clamp(0, self.g - 1);
        let cy0 = (w.min.y / s).clamp(0, self.g - 1);
        let cy1 = (w.max.y / s).clamp(0, self.g - 1);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                sink.node((cx, cy));
            }
        }
    }

    fn expand_window(
        &self,
        (cx, cy): (i32, i32),
        w: Rect,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<(i32, i32)>,
    ) {
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        // Charged before the overlap test: examining the cell is the
        // bucket computation, whether or not the window overlaps it.
        *bbox_comps += 1;
        if !w.intersects(&self.cell_rect(cx, cy)) {
            return;
        }
        self.for_each_cell_id(cx, cy, index, &mut |id| sink.entry(id));
    }

    fn seed_nearest(&self, p: Point, _ctx: &mut QueryCtx, sink: &mut NnSink<(i32, i32)>) {
        // Every cell enters the queue with its closed-region distance as
        // the lower bound; cells are only *opened* (chain walked, bucket
        // computation charged) when they pop before the k-th result, so
        // the scan stays local without the legacy ring bookkeeping.
        for cy in 0..self.g {
            for cx in 0..self.g {
                let d = Dist2::from_int(self.cell_closed_rect(cx, cy).dist2_point(p));
                sink.node((cx, cy), d);
            }
        }
    }

    fn expand_nearest(
        &self,
        (cx, cy): (i32, i32),
        p: Point,
        ctx: &mut QueryCtx,
        sink: &mut NnSink<(i32, i32)>,
    ) {
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        *bbox_comps += 1;
        // A segment is stored in every cell whose closed region it
        // touches — in particular the cell containing its nearest point to
        // p — so the cell distance is an admissible candidate bound.
        let d = Dist2::from_int(self.cell_closed_rect(cx, cy).dist2_point(p));
        self.for_each_cell_id(cx, cy, index, &mut |id| sink.candidate(id, d));
    }
}

impl SpatialIndex for UniformGrid {
    fn name(&self) -> &'static str {
        "uniform grid"
    }

    fn seg_table(&self) -> &SegmentTable {
        &self.table
    }

    fn seg_table_mut(&mut self) -> &mut SegmentTable {
        &mut self.table
    }

    fn insert(&mut self, id: SegId) {
        let seg = self.table.fetch(id);
        for (cx, cy) in self.cells_touching(&seg) {
            self.append_to_cell(cx, cy, id);
        }
        self.len += 1;
    }

    fn remove(&mut self, id: SegId) -> bool {
        let seg = self.table.fetch(id);
        let mut removed = false;
        for (cx, cy) in self.cells_touching(&seg) {
            removed |= self.remove_from_cell(cx, cy, id);
        }
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn len(&self) -> usize {
        self.len
    }

    fn find_incident_visit(&self, p: Point, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        traverse::incident_visit(self, p, ctx, f);
    }

    fn probe_point(&self, p: Point, ctx: &mut QueryCtx) -> LocId {
        traverse::probe_point(self, p, ctx)
    }

    fn nearest(&self, p: Point, ctx: &mut QueryCtx) -> Option<SegId> {
        if self.len == 0 {
            return None;
        }
        traverse::best_first_nearest(self, p, ctx)
    }

    fn nearest_k(&self, p: Point, k: usize, ctx: &mut QueryCtx) -> Vec<SegId> {
        if self.len == 0 {
            return Vec::new();
        }
        traverse::best_first_nearest_k(self, p, k, ctx)
    }

    fn enclosing_polygon(
        &self,
        p: Point,
        max_steps: usize,
        ctx: &mut QueryCtx,
    ) -> Option<PolygonWalk> {
        if self.len == 0 {
            return None;
        }
        traverse::polygon_walk(self, p, max_steps, ctx)
    }

    fn window_visit(&self, w: Rect, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        traverse::window_visit(self, w, ctx, f);
    }

    fn stats(&self) -> QueryStats {
        QueryStats {
            disk: self.pool.stats(),
            seg_comps: 0,
            bbox_comps: self.bucket_comps,
            seg_disk: self.table.disk_stats(),
        }
    }

    fn reset_stats(&mut self) {
        self.pool.reset_stats();
        self.table.reset_stats();
        self.bucket_comps = 0;
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
            page_size: 128,
            pool_pages: 8,
        }
    }

    fn cross_map() -> PolygonalMap {
        // Segments spread over the world, including cell-boundary hugs.
        let q = WORLD_SIZE / 4;
        PolygonalMap::new(
            "cross",
            vec![
                Segment::new(Point::new(10, 10), Point::new(q + 10, q + 10)),
                Segment::new(Point::new(q, q), Point::new(3 * q, q)),
                Segment::new(Point::new(3 * q, q), Point::new(3 * q, 3 * q)),
                Segment::new(Point::new(0, 2 * q), Point::new(WORLD_SIZE - 1, 2 * q)),
                Segment::new(Point::new(2 * q, 0), Point::new(2 * q, WORLD_SIZE - 1)),
                Segment::new(
                    Point::new(5, WORLD_SIZE - 5),
                    Point::new(500, WORLD_SIZE - 500),
                ),
            ],
        )
    }

    #[test]
    fn build_and_counts() {
        let map = cross_map();
        let t = UniformGrid::build(&map, cfg(), 8);
        assert_eq!(t.len(), map.len());
        assert!(t.size_bytes() > 0);
    }

    #[test]
    fn incident_matches_brute_force() {
        let map = cross_map();
        let t = UniformGrid::build(&map, cfg(), 8);
        let mut ctx = QueryCtx::new();
        let q = WORLD_SIZE / 4;
        for p in [
            Point::new(10, 10),
            Point::new(q, q),
            Point::new(3 * q, q),
            Point::new(2 * q, 0),
            Point::new(123, 456),
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
        for g in [4, 16, 64] {
            let t = UniformGrid::build(&map, cfg(), g);
            let mut ctx = QueryCtx::new();
            for x in (0..WORLD_SIZE).step_by(1711) {
                for y in (0..WORLD_SIZE).step_by(2049) {
                    let p = Point::new(x, y);
                    let got = t.nearest(p, &mut ctx).expect("non-empty");
                    let want = brute::nearest(&map, p).unwrap();
                    assert_eq!(
                        map.segments[got.index()].dist2_point(p),
                        want.1,
                        "g={g} at {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_matches_brute_force() {
        let map = cross_map();
        let t = UniformGrid::build(&map, cfg(), 16);
        let mut ctx = QueryCtx::new();
        let q = WORLD_SIZE / 4;
        for w in [
            Rect::new(0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1),
            Rect::new(q - 5, q - 5, q + 5, q + 5),
            Rect::new(0, 2 * q, 10, 2 * q),
            Rect::new(900, 900, 1000, 1000),
        ] {
            assert_eq!(
                brute::sorted(t.window(w, &mut ctx)),
                brute::window(&map, w),
                "{w:?}"
            );
            // The streaming variant visits exactly the same set.
            let mut visited = Vec::new();
            t.window_visit(w, &mut ctx, &mut |id| visited.push(id));
            assert_eq!(brute::sorted(visited), brute::window(&map, w));
        }
    }

    #[test]
    fn probe_point_is_stable_and_cheap() {
        let map = cross_map();
        let t = UniformGrid::build(&map, cfg(), 8);
        let mut ctx = QueryCtx::new();
        let p = Point::new(123, 456);
        let a = t.probe_point(p, &mut ctx);
        let b = t.probe_point(p, &mut ctx);
        assert_eq!(a, b, "same point, same cell");
        assert_ne!(a, LocId::NONE);
        assert_eq!(ctx.seg_comps, 0, "probe fetches no segment records");
        assert_eq!(ctx.bbox_comps, 2);
        // A point in a different cell maps to a different bucket.
        let far = t.probe_point(Point::new(WORLD_SIZE - 10, WORLD_SIZE - 10), &mut ctx);
        assert_ne!(a, far);
    }

    #[test]
    fn remove_works() {
        let map = cross_map();
        let mut t = UniformGrid::build(&map, cfg(), 8);
        assert!(t.remove(SegId(3)));
        assert!(!t.remove(SegId(3)));
        assert_eq!(t.len(), map.len() - 1);
        let mut ctx = QueryCtx::new();
        let w = Rect::new(0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1);
        let got = brute::sorted(t.window(w, &mut ctx));
        let want: Vec<SegId> = brute::window(&map, w)
            .into_iter()
            .filter(|id| id.0 != 3)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn long_segment_spans_many_cells_pages_chain() {
        // One segment crossing the full world with a tiny page size forces
        // multi-page chains and many cells.
        let map = PolygonalMap::new(
            "long",
            (0..60)
                .map(|i| {
                    Segment::new(
                        Point::new(0, i * 7 + 1),
                        Point::new(WORLD_SIZE - 1, i * 7 + 1),
                    )
                })
                .collect(),
        );
        let t = UniformGrid::build(&map, cfg(), 4);
        let mut ctx = QueryCtx::new();
        let w = Rect::new(100, 0, 110, 430);
        assert_eq!(brute::sorted(t.window(w, &mut ctx)), brute::window(&map, w));
    }

    #[test]
    #[should_panic(expected = "grid must divide the world")]
    fn invalid_grid_dimension_panics() {
        let table = lsdb_core::SegmentTable::new(128, 4);
        let _ = UniformGrid::new(table, cfg(), 3);
    }

    #[test]
    fn empty_grid_queries() {
        let map = PolygonalMap::new("empty", vec![]);
        let t = UniformGrid::build(&map, cfg(), 8);
        let mut ctx = QueryCtx::new();
        assert_eq!(t.nearest(Point::new(5, 5), &mut ctx), None);
        assert!(t.find_incident(Point::new(5, 5), &mut ctx).is_empty());
        assert!(t.window(Rect::new(0, 0, 10, 10), &mut ctx).is_empty());
    }

    #[test]
    fn parallel_queries_share_the_grid() {
        let map = cross_map();
        let t = UniformGrid::build(&map, cfg(), 16);
        let t = &t;
        let map = &map;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut ctx = QueryCtx::new();
                        let w = Rect::new(0, 0, WORLD_SIZE / 2, WORLD_SIZE / 2);
                        let got = brute::sorted(t.window(w, &mut ctx));
                        assert_eq!(got, brute::window(map, w));
                        ctx.stats()
                    })
                })
                .collect();
            let stats: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for s in &stats {
                assert_eq!(*s, stats[0], "identical queries charge identical counters");
            }
        });
    }
}
