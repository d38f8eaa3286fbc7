//! Paged R-tree family: the R\*-tree the paper evaluates, plus Guttman's
//! quadratic- and linear-split R-trees as ablation baselines.
//!
//! The structure follows the paper's implementation notes exactly:
//!
//! * nodes are pages of (R, O) 2-tuples, 20 bytes each (50 per 1 KB page);
//! * `M ≈ S/k` and `m = 40% · M`, "in accordance with the values reported
//!   to be best by the originators of the R\*-tree";
//! * the R\*-tree uses minimum-overlap-enlargement subtree choice at the
//!   leaf level, the margin/overlap split of Beckmann et al., and forced
//!   reinsertion of 30% of the entries on the first overflow per level
//!   ("the computationally expensive node overflow technique where 30% of
//!   the bounding boxes are reinserted into the structure");
//! * everything sits behind a 16-page LRU buffer pool, and queries count
//!   disk accesses, segment comparisons and bounding-box computations.

mod bulk;
mod split;

pub use split::RTreeKind;

use lsdb_core::queries::PolygonWalk;
use lsdb_core::rectnode::{entries_mbr, Entry, RectNode, RectTreeAccess};
use lsdb_core::{
    traverse, IndexConfig, LocId, PolygonalMap, QueryCtx, QueryStats, SegId, SegmentTable,
    SpatialIndex,
};
use lsdb_geom::{Point, Rect};
use lsdb_pager::{BufferPool, PageId};
use std::cmp::Reverse;

/// Fraction of entries force-reinserted on the first overflow of a level
/// (R\*-tree only). The paper and Beckmann et al. use 30%.
const REINSERT_FRACTION: f64 = 0.3;

/// A disk-resident R-tree over line segments.
pub struct RTree {
    pool: BufferPool,
    table: SegmentTable,
    kind: RTreeKind,
    root: PageId,
    /// Level of the root; leaves are level 1.
    height: u32,
    m_max: usize,
    m_min: usize,
    len: usize,
}

impl RTree {
    /// Create an empty tree of the given variant. The segment table must
    /// contain (at least) the segments that will be inserted.
    pub fn new(table: SegmentTable, cfg: IndexConfig, kind: RTreeKind) -> Self {
        // Pool-open time is when the scan ISA is decided: warm the cached
        // selection so the first query pays a plain atomic load.
        lsdb_core::scan::active_isa();
        let mut pool = BufferPool::new(cfg.page_size, cfg.pool_pages);
        let m_max = RectNode::capacity(cfg.page_size);
        assert!(m_max >= 4, "page too small for an R-tree node");
        let m_min = ((m_max as f64 * 0.4).ceil() as usize).max(2);
        let root = pool.allocate();
        pool.with_page_mut(root, |buf| RectNode::init(buf, true));
        RTree {
            pool,
            table,
            kind,
            root,
            height: 1,
            m_max,
            m_min,
            len: 0,
        }
    }

    /// Build a tree over a whole map by inserting its segments in order.
    pub fn build(map: &PolygonalMap, cfg: IndexConfig, kind: RTreeKind) -> Self {
        let table = SegmentTable::from_map(map, cfg.page_size, cfg.pool_pages);
        let mut t = RTree::new(table, cfg, kind);
        for id in 0..map.segments.len() {
            t.insert(SegId(id as u32));
        }
        t
    }

    /// Maximum entries per node (the paper's `M`; 50 with 1 KB pages).
    pub fn m_max(&self) -> usize {
        self.m_max
    }

    /// Minimum fill (the paper's `m = 40%·M`).
    pub fn m_min(&self) -> usize {
        self.m_min
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    /// Average number of entries per leaf node — the paper's §7 occupancy
    /// audit found ≈36 for the R\*-tree and ≈32 for the R+-tree.
    pub fn avg_leaf_occupancy(&mut self) -> f64 {
        let root = self.root;
        let height = self.height;
        let (sum, leaves) = self.leaf_occupancy_rec(root, height);
        sum as f64 / leaves as f64
    }

    fn leaf_occupancy_rec(&mut self, pid: PageId, level: u32) -> (u64, u64) {
        if level == 1 {
            let c = self.pool.with_page(pid, RectNode::count);
            return (c as u64, 1);
        }
        let children: Vec<PageId> = self.pool.with_page(pid, |buf| {
            RectNode::entries(buf)
                .iter()
                .map(|e| PageId(e.child))
                .collect()
        });
        let mut sum = 0;
        let mut leaves = 0;
        for ch in children {
            let (s, l) = self.leaf_occupancy_rec(ch, level - 1);
            sum += s;
            leaves += l;
        }
        (sum, leaves)
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    fn insert_entry(&mut self, e: Entry, level: u32, reinserted_levels: &mut u64) {
        let mut pending: Vec<(Entry, u32)> = Vec::new();
        let root = self.root;
        let height = self.height;
        if let Some(sibling) =
            self.insert_rec(root, height, e, level, reinserted_levels, &mut pending)
        {
            // Root split: grow the tree.
            let old_root = self.root;
            let old_mbr = self.pool.with_page(old_root, RectNode::mbr);
            let new_root = self.pool.allocate();
            self.pool.with_page_mut(new_root, |buf| {
                RectNode::init(buf, false);
                RectNode::push(
                    buf,
                    Entry {
                        rect: old_mbr,
                        child: old_root.0,
                    },
                );
                RectNode::push(buf, sibling);
            });
            self.root = new_root;
            self.height += 1;
        }
        // Forced reinsertions run after the main path has unwound, on a
        // structurally consistent tree.
        while let Some((e2, l2)) = pending.pop() {
            self.insert_entry(e2, l2, reinserted_levels);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_rec(
        &mut self,
        pid: PageId,
        node_level: u32,
        e: Entry,
        target_level: u32,
        reinserted_levels: &mut u64,
        pending: &mut Vec<(Entry, u32)>,
    ) -> Option<Entry> {
        if node_level == target_level {
            let count = self.pool.with_page(pid, RectNode::count);
            if count < self.m_max {
                self.pool.with_page_mut(pid, |buf| RectNode::push(buf, e));
                return None;
            }
            return self.overflow(pid, node_level, e, reinserted_levels, pending);
        }
        let idx = self.choose_subtree(pid, node_level, target_level, e.rect);
        let child = self
            .pool
            .with_page(pid, |buf| PageId(RectNode::entry(buf, idx).child));
        let result = self.insert_rec(
            child,
            node_level - 1,
            e,
            target_level,
            reinserted_levels,
            pending,
        );
        // Refresh the child's MBR from its actual contents: inserts may
        // have grown it and forced reinsertion may have shrunk it.
        let child_mbr = self.pool.with_page(child, RectNode::mbr);
        self.pool.with_page_mut(pid, |buf| {
            let mut ent = RectNode::entry(buf, idx);
            ent.rect = child_mbr;
            RectNode::set_entry(buf, idx, ent);
        });
        match result {
            None => None,
            Some(sibling) => {
                let count = self.pool.with_page(pid, RectNode::count);
                if count < self.m_max {
                    self.pool
                        .with_page_mut(pid, |buf| RectNode::push(buf, sibling));
                    None
                } else {
                    self.overflow(pid, node_level, sibling, reinserted_levels, pending)
                }
            }
        }
    }

    /// Handle an overflowing node (its page holds M entries and `extra`
    /// makes M+1): R\*-trees force-reinsert 30% on the first overflow per
    /// level (except at the root); otherwise the node splits and the new
    /// sibling's entry is returned for the parent.
    fn overflow(
        &mut self,
        pid: PageId,
        level: u32,
        extra: Entry,
        reinserted_levels: &mut u64,
        pending: &mut Vec<(Entry, u32)>,
    ) -> Option<Entry> {
        let mut entries = self.pool.with_page(pid, RectNode::entries);
        entries.push(extra);
        let first_at_level = *reinserted_levels & (1 << level.min(63)) == 0;
        if self.kind == RTreeKind::RStar && level < self.height && first_at_level {
            *reinserted_levels |= 1 << level.min(63);
            // Sort by distance between entry center and node center,
            // descending; the farthest p leave the node ("close reinsert":
            // they are re-inserted nearest-first).
            let node_mbr = entries_mbr(&entries);
            let (ncx, ncy) = node_mbr.center2();
            let dist = |r: &Rect| -> i64 {
                let (cx, cy) = r.center2();
                let dx = cx - ncx;
                let dy = cy - ncy;
                dx * dx + dy * dy
            };
            entries.sort_by_key(|e| Reverse(dist(&e.rect)));
            let p = ((self.m_max as f64 * REINSERT_FRACTION).round() as usize).max(1);
            let keep = entries.split_off(p);
            self.pool
                .with_page_mut(pid, |buf| RectNode::write_entries(buf, &keep));
            // `pending` is popped from the back; entries[] is sorted
            // farthest-first, so pushing in order pops nearest-first.
            for e in entries {
                pending.push((e, level));
            }
            return None;
        }
        let is_leaf = level == 1;
        let (left, right) = split::split(self.kind, entries, self.m_min);
        let right_pid = self.pool.allocate();
        self.pool.with_page_mut(pid, |buf| {
            RectNode::init(buf, is_leaf);
            RectNode::write_entries(buf, &left);
        });
        self.pool.with_page_mut(right_pid, |buf| {
            RectNode::init(buf, is_leaf);
            RectNode::write_entries(buf, &right);
        });
        Some(Entry {
            rect: entries_mbr(&right),
            child: right_pid.0,
        })
    }

    /// Pick the child of `pid` to descend into for `rect`.
    fn choose_subtree(
        &mut self,
        pid: PageId,
        node_level: u32,
        target_level: u32,
        rect: Rect,
    ) -> usize {
        let entries = self.pool.with_page(pid, RectNode::entries);
        debug_assert!(!entries.is_empty());
        let children_are_targets = node_level == target_level + 1;
        if self.kind == RTreeKind::RStar && children_are_targets {
            // Minimum overlap enlargement, then minimum area enlargement,
            // then minimum area. "This is superior to choosing the node
            // whose bounding rectangle would have to be enlarged the
            // least" (paper §3).
            //
            // The overlap sum is pruned exactly: `grown ⊇ e.rect`, so
            // every term is ≥ 0 and the partial sum only rises. A child
            // that does not grow adds nothing; a sibling that `grown`
            // does not touch overlaps neither rectangle; and once the
            // partial key reaches the best key the child can no longer
            // win. The chosen child is the one the full sum picks.
            let mut best = 0;
            let mut best_key = (i64::MAX, i64::MAX, i64::MAX);
            'children: for (i, e) in entries.iter().enumerate() {
                let grown = e.rect.union(&rect);
                let area = e.rect.area();
                let enlargement = grown.area() - area;
                let mut key = (0, enlargement, area);
                if key >= best_key {
                    continue;
                }
                if grown != e.rect {
                    for (j, o) in entries.iter().enumerate() {
                        if i == j || !grown.intersects(&o.rect) {
                            continue;
                        }
                        key.0 += grown.overlap_area(&o.rect) - e.rect.overlap_area(&o.rect);
                        if key >= best_key {
                            continue 'children;
                        }
                    }
                }
                best_key = key;
                best = i;
            }
            best
        } else {
            // Classic: least area enlargement, ties by smallest area.
            let mut best = 0;
            let mut best_key = (i64::MAX, i64::MAX);
            for (i, e) in entries.iter().enumerate() {
                let key = (e.rect.enlargement(&rect), e.rect.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    fn delete_rec(
        &mut self,
        pid: PageId,
        level: u32,
        rect: Rect,
        target: u32,
        orphans: &mut Vec<(Entry, u32)>,
    ) -> bool {
        if level == 1 {
            return self.pool.with_page_mut(pid, |buf| {
                for i in 0..RectNode::count(buf) {
                    if RectNode::entry(buf, i).child == target {
                        RectNode::remove_at(buf, i);
                        return true;
                    }
                }
                false
            });
        }
        let candidates: Vec<(usize, PageId)> = self.pool.with_page(pid, |buf| {
            (0..RectNode::count(buf))
                .filter(|&i| RectNode::entry(buf, i).rect.contains_rect(&rect))
                .map(|i| (i, PageId(RectNode::entry(buf, i).child)))
                .collect()
        });
        for (idx, child) in candidates {
            if !self.delete_rec(child, level - 1, rect, target, orphans) {
                continue;
            }
            let child_count = self.pool.with_page(child, RectNode::count);
            if child_count < self.m_min {
                // Dissolve the child: its surviving entries re-enter the
                // tree at their original level (CondenseTree).
                let entries = self.pool.with_page(child, RectNode::entries);
                for e in entries {
                    orphans.push((e, level - 1));
                }
                self.pool.free(child);
                self.pool
                    .with_page_mut(pid, |buf| RectNode::remove_at(buf, idx));
            } else {
                let child_mbr = self.pool.with_page(child, RectNode::mbr);
                self.pool.with_page_mut(pid, |buf| {
                    let mut ent = RectNode::entry(buf, idx);
                    ent.rect = child_mbr;
                    RectNode::set_entry(buf, idx, ent);
                });
            }
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Queries — all traversal lives in the shared engines; this crate
    // contributes only the node layout via [`RectTreeAccess`].
    // ------------------------------------------------------------------

    fn access(&self) -> RectTreeAccess<'_> {
        RectTreeAccess {
            pool: &self.pool,
            table: &self.table,
            root: self.root,
            height: self.height,
        }
    }

    /// Validate structural invariants (tests only): balanced depth, fill
    /// factors, MBR consistency, and that exactly the expected segments
    /// are present. Returns the sorted set of indexed segment ids.
    pub fn check_invariants(&mut self) -> Vec<SegId> {
        let mut segs = Vec::new();
        let root = self.root;
        let height = self.height;
        let leaf_empty_root = height == 1 && self.pool.with_page(root, RectNode::count) == 0;
        if !leaf_empty_root {
            self.check_rec(root, height, true, &mut segs);
        }
        segs.sort_unstable();
        assert_eq!(segs.len(), self.len, "len counter diverged");
        for w in segs.windows(2) {
            assert!(w[0] < w[1], "duplicate segment in R-tree");
        }
        segs
    }

    fn check_rec(&mut self, pid: PageId, level: u32, is_root: bool, segs: &mut Vec<SegId>) -> Rect {
        let (is_leaf, entries) = self
            .pool
            .with_page(pid, |buf| (RectNode::is_leaf(buf), RectNode::entries(buf)));
        assert_eq!(is_leaf, level == 1, "leaf flag inconsistent with depth");
        if !is_root {
            assert!(
                entries.len() >= self.m_min,
                "node under-full: {}",
                entries.len()
            );
        } else if level > 1 {
            assert!(entries.len() >= 2, "internal root must have >= 2 entries");
        }
        assert!(entries.len() <= self.m_max);
        if level == 1 {
            for e in &entries {
                let id = SegId(e.child);
                let seg = self.table.fetch(id);
                assert_eq!(
                    e.rect,
                    seg.bbox(),
                    "leaf entry rect must be the segment MBR"
                );
                segs.push(id);
            }
        } else {
            for e in &entries {
                let child_mbr = self.check_rec(PageId(e.child), level - 1, false, segs);
                assert_eq!(e.rect, child_mbr, "parent entry rect must equal child MBR");
            }
        }
        entries_mbr(&entries)
    }
}

impl SpatialIndex for RTree {
    fn name(&self) -> &'static str {
        self.kind.display_name()
    }

    fn seg_table(&self) -> &SegmentTable {
        &self.table
    }

    fn seg_table_mut(&mut self) -> &mut SegmentTable {
        &mut self.table
    }

    fn insert(&mut self, id: SegId) {
        let rect = self.table.fetch(id).bbox();
        let mut reinserted_levels = 0u64;
        self.insert_entry(Entry { rect, child: id.0 }, 1, &mut reinserted_levels);
        self.len += 1;
    }

    fn remove(&mut self, id: SegId) -> bool {
        let rect = self.table.fetch(id).bbox();
        let mut orphans = Vec::new();
        let root = self.root;
        let height = self.height;
        if !self.delete_rec(root, height, rect, id.0, &mut orphans) {
            return false;
        }
        self.len -= 1;
        // Collapse a root with a single child.
        while self.height > 1 {
            let (count, only_child) = self.pool.with_page(self.root, |buf| {
                (RectNode::count(buf), PageId(RectNode::entry(buf, 0).child))
            });
            if count != 1 {
                break;
            }
            self.pool.free(self.root);
            self.root = only_child;
            self.height -= 1;
        }
        let mut reinserted_levels = u64::MAX; // no forced reinsert during condense
        for (e, level) in orphans {
            self.insert_entry(e, level, &mut reinserted_levels);
        }
        true
    }

    fn len(&self) -> usize {
        self.len
    }

    fn find_incident(&self, p: Point, ctx: &mut QueryCtx) -> Vec<SegId> {
        traverse::find_incident(&self.access(), p, ctx)
    }

    fn find_incident_visit(&self, p: Point, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        traverse::incident_visit(&self.access(), p, ctx, f);
    }

    fn probe_point(&self, p: Point, ctx: &mut QueryCtx) -> LocId {
        traverse::probe_point(&self.access(), p, ctx)
    }

    fn nearest(&self, p: Point, ctx: &mut QueryCtx) -> Option<SegId> {
        if self.len == 0 {
            return None;
        }
        traverse::best_first_nearest(&self.access(), p, ctx)
    }

    fn nearest_k(&self, p: Point, k: usize, ctx: &mut QueryCtx) -> Vec<SegId> {
        if self.len == 0 {
            return Vec::new();
        }
        traverse::best_first_nearest_k(&self.access(), p, k, ctx)
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
        traverse::polygon_walk(&self.access(), p, max_steps, ctx)
    }

    fn window(&self, w: Rect, ctx: &mut QueryCtx) -> Vec<SegId> {
        traverse::window(&self.access(), w, ctx)
    }

    fn window_visit(&self, w: Rect, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        traverse::window_visit(&self.access(), w, ctx, f);
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
    use lsdb_geom::Segment;

    fn cfg_small() -> IndexConfig {
        // 224-byte pages -> M = 10, m = 4: splits and reinserts at small n.
        IndexConfig {
            page_size: 224,
            pool_pages: 8,
        }
    }

    fn grid_map(n: i32) -> PolygonalMap {
        // An n×n grid of streets (like an urban county in miniature).
        let mut segs = Vec::new();
        let step = 100;
        for i in 0..=n {
            for j in 0..n {
                segs.push(Segment::new(
                    Point::new(i * step, j * step),
                    Point::new(i * step, (j + 1) * step),
                ));
                segs.push(Segment::new(
                    Point::new(j * step, i * step),
                    Point::new((j + 1) * step, i * step),
                ));
            }
        }
        PolygonalMap::new("grid", segs)
    }

    fn all_kinds() -> [RTreeKind; 3] {
        [RTreeKind::RStar, RTreeKind::Quadratic, RTreeKind::Linear]
    }

    #[test]
    fn build_and_invariants_all_kinds() {
        let map = grid_map(8);
        for kind in all_kinds() {
            let mut t = RTree::build(&map, cfg_small(), kind);
            assert_eq!(t.len(), map.len());
            let segs = t.check_invariants();
            assert_eq!(segs.len(), map.len(), "{kind:?}");
            assert!(t.height() >= 2, "{kind:?} must have split");
        }
    }

    #[test]
    fn m_values_match_paper_at_1k() {
        let map = grid_map(2);
        let t = RTree::build(&map, IndexConfig::default(), RTreeKind::RStar);
        assert_eq!(t.m_max(), 50);
        assert_eq!(t.m_min(), 20);
    }

    #[test]
    fn incident_matches_brute_force() {
        let map = grid_map(6);
        for kind in all_kinds() {
            let t = RTree::build(&map, cfg_small(), kind);
            let mut ctx = QueryCtx::new();
            // Probe every grid vertex plus some non-vertices.
            for x in (0..=600).step_by(50) {
                for y in (0..=600).step_by(50) {
                    let p = Point::new(x, y);
                    let got = lsdb_core::brute::sorted(t.find_incident(p, &mut ctx));
                    let want = lsdb_core::brute::incident(&map, p);
                    assert_eq!(got, want, "{kind:?} at {p:?}");
                }
            }
        }
    }

    #[test]
    fn nearest_matches_brute_force_distance() {
        let map = grid_map(6);
        for kind in all_kinds() {
            let t = RTree::build(&map, cfg_small(), kind);
            let mut ctx = QueryCtx::new();
            for x in (-50..=650).step_by(37) {
                for y in (-50..=650).step_by(41) {
                    let p = Point::new(x, y);
                    let got = t.nearest(p, &mut ctx).expect("non-empty");
                    let want = lsdb_core::brute::nearest(&map, p).unwrap();
                    let got_d = map.segments[got.index()].dist2_point(p);
                    assert_eq!(got_d, want.1, "{kind:?} at {p:?}");
                }
            }
        }
    }

    #[test]
    fn window_matches_brute_force() {
        let map = grid_map(6);
        for kind in all_kinds() {
            let t = RTree::build(&map, cfg_small(), kind);
            let mut ctx = QueryCtx::new();
            let windows = [
                Rect::new(0, 0, 600, 600),
                Rect::new(120, 130, 180, 190),
                Rect::new(100, 100, 100, 100), // degenerate, on a vertex
                Rect::new(601, 601, 700, 700), // empty region
                Rect::new(55, 55, 65, 65),     // inside a block, touches nothing
            ];
            for w in windows {
                let got = lsdb_core::brute::sorted(t.window(w, &mut ctx));
                let want = lsdb_core::brute::window(&map, w);
                assert_eq!(got, want, "{kind:?} window {w:?}");
                let mut visited = Vec::new();
                t.window_visit(w, &mut ctx, &mut |id| visited.push(id));
                assert_eq!(
                    lsdb_core::brute::sorted(visited),
                    want,
                    "{kind:?} visit {w:?}"
                );
            }
        }
    }

    #[test]
    fn empty_tree_queries() {
        let map = PolygonalMap::new("empty", vec![]);
        let mut t = RTree::build(&map, cfg_small(), RTreeKind::RStar);
        let mut ctx = QueryCtx::new();
        assert_eq!(t.nearest(Point::new(5, 5), &mut ctx), None);
        assert!(t.find_incident(Point::new(5, 5), &mut ctx).is_empty());
        assert!(t.window(Rect::new(0, 0, 10, 10), &mut ctx).is_empty());
        t.check_invariants();
    }

    #[test]
    fn delete_then_queries_stay_correct() {
        let map = grid_map(6);
        for kind in all_kinds() {
            let mut t = RTree::build(&map, cfg_small(), kind);
            // Remove every third segment.
            let mut remaining = Vec::new();
            for i in 0..map.len() {
                if i % 3 == 0 {
                    assert!(t.remove(SegId(i as u32)), "{kind:?} remove {i}");
                } else {
                    remaining.push(SegId(i as u32));
                }
            }
            assert_eq!(t.check_invariants(), remaining, "{kind:?}");
            // Windows still agree with a brute force over the survivors.
            let mut ctx = QueryCtx::new();
            let w = Rect::new(90, 90, 310, 310);
            let got = lsdb_core::brute::sorted(t.window(w, &mut ctx));
            let want: Vec<SegId> = lsdb_core::brute::window(&map, w)
                .into_iter()
                .filter(|id| id.index() % 3 != 0)
                .collect();
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn delete_everything_collapses_tree() {
        let map = grid_map(5);
        let mut t = RTree::build(&map, cfg_small(), RTreeKind::RStar);
        for i in 0..map.len() {
            assert!(t.remove(SegId(i as u32)));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        t.check_invariants();
        assert!(!t.remove(SegId(0)), "double delete returns false");
    }

    #[test]
    fn reinsert_and_requery() {
        let map = grid_map(5);
        let mut t = RTree::build(&map, cfg_small(), RTreeKind::RStar);
        for i in (0..map.len()).step_by(2) {
            t.remove(SegId(i as u32));
        }
        for i in (0..map.len()).step_by(2) {
            t.insert(SegId(i as u32));
        }
        assert_eq!(t.len(), map.len());
        t.check_invariants();
        let mut ctx = QueryCtx::new();
        let p = Point::new(250, 250);
        assert_eq!(
            lsdb_core::brute::sorted(t.find_incident(p, &mut ctx)),
            lsdb_core::brute::incident(&map, p)
        );
    }

    #[test]
    fn query_ctx_counts_work_and_reset() {
        let map = grid_map(6);
        let mut t = RTree::build(&map, cfg_small(), RTreeKind::RStar);
        t.clear_cache();
        t.reset_stats();
        assert_eq!(t.stats(), QueryStats::default(), "build counters zeroed");
        let mut ctx = QueryCtx::new();
        let _ = t.nearest(Point::new(111, 222), &mut ctx);
        let s = ctx.stats();
        assert!(s.disk.reads > 0, "cold nearest must read index pages");
        assert!(s.bbox_comps > 0);
        assert!(s.seg_comps > 0);
        assert_eq!(
            t.stats(),
            QueryStats::default(),
            "queries never touch build counters"
        );
        ctx.reset();
        assert_eq!(ctx.stats(), QueryStats::default());
        // Warm query against a big-enough pool costs no disk: all pages
        // stayed resident from the build.
        let big = RTree::build(
            &map,
            IndexConfig {
                page_size: 224,
                pool_pages: 4096,
            },
            RTreeKind::RStar,
        );
        let mut warm = QueryCtx::new();
        let _ = big.nearest(Point::new(111, 222), &mut warm);
        assert_eq!(warm.stats().disk.reads, 0, "warm pool, free reads");
    }

    #[test]
    fn rstar_is_more_compact_than_guttman_on_clustered_data() {
        // Not guaranteed in general, but on a regular grid the R* split
        // quality should never be wildly worse.
        let map = grid_map(10);
        let s: Vec<u64> = all_kinds()
            .iter()
            .map(|&k| RTree::build(&map, cfg_small(), k).size_bytes())
            .collect();
        let rstar = s[0] as f64;
        for (i, &v) in s.iter().enumerate() {
            assert!(
                rstar <= v as f64 * 1.5,
                "R* size {rstar} vs {:?} size {v}",
                all_kinds()[i]
            );
        }
    }

    #[test]
    fn nearest_k_ranks_by_distance() {
        let map = grid_map(5);
        for kind in all_kinds() {
            let t = RTree::build(&map, cfg_small(), kind);
            let mut ctx = QueryCtx::new();
            let p = Point::new(333, 451);
            let got = t.nearest_k(p, 8, &mut ctx);
            assert_eq!(got.len(), 8, "{kind:?}");
            let dists: Vec<_> = got
                .iter()
                .map(|id| map.segments[id.index()].dist2_point(p))
                .collect();
            assert!(
                dists.windows(2).all(|w| w[0] <= w[1]),
                "{kind:?} not ranked"
            );
            // Head agrees with nearest().
            let n1 = t.nearest(p, &mut ctx).unwrap();
            assert_eq!(
                map.segments[n1.index()].dist2_point(p),
                dists[0],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn polygon_query_via_generic_traversal() {
        let map = grid_map(4);
        let t = RTree::build(&map, cfg_small(), RTreeKind::RStar);
        let mut ctx = QueryCtx::new();
        let walk = lsdb_core::queries::enclosing_polygon(&t, Point::new(150, 150), 100, &mut ctx)
            .expect("non-empty");
        assert!(walk.closed);
        // A city block: 4 segments.
        assert_eq!(walk.len(), 4);
        for id in walk.distinct_segments() {
            let s = map.segments[id.index()];
            let b = s.bbox();
            assert!(Rect::new(100, 100, 200, 200).contains_rect(&b), "{s:?}");
        }
    }
}
