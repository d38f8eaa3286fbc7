//! The paper's hybrid R+-tree (between a k-d-B-tree and the literature
//! R+-tree).
//!
//! Structure, following §3 of the paper:
//!
//! * Non-leaf entries hold **disjoint partition regions**, not minimum
//!   bounding rectangles ("we use minimum bounding rectangles for the line
//!   segments in the leaf nodes while we don't do so in the nonleaf
//!   nodes") — exactly the simplification the paper adopts from Greene.
//! * A line segment is inserted into **every leaf whose region it
//!   intersects**, so there may be several root-to-segment paths and the
//!   structure uses more space than the R\*-tree.
//! * Node split: "a node should be split in a way that minimizes the total
//!   number of resulting portions of line segments (bounding rectangles
//!   when the node is not a leaf node) ... we try all possible vertical and
//!   horizontal split lines ... in case of a tie, we choose the split line
//!   that yields the most even distribution."
//! * Splitting a non-leaf region can force recursive **downward splits** of
//!   straddling children (the k-d-B cascade).
//!
//! Region convention: sibling regions tile their parent's region with
//! shared boundaries (`[a, c]` and `[c, b]`). Interiors are disjoint;
//! geometry lying exactly on a split line belongs to both sides, mirroring
//! the paper's footnote that leaf-level disjointness "may be impossible
//! when many line segments intersect at a point". This keeps every
//! distance lower bound exact (no dead strips between regions).
//!
//! Deletion removes the segment from every leaf it occupies but does not
//! re-merge regions — the paper: "the price paid for the disjointness ...
//! is also paid when we want to delete an object. Fortunately, deletion is
//! not so common."
//!
//! Known structural limit (shared with published R+-trees): more than `M`
//! segments meeting inside a unit cell cannot be separated by any split
//! line and will panic; the paper's road networks have vertex degrees far
//! below `M = 50`.

mod bulk;

use lsdb_core::queries::PolygonWalk;
use lsdb_core::rectnode::{Entry, RectNode, RectTreeAccess};
use lsdb_core::{
    traverse, IndexConfig, LocId, PolygonalMap, QueryCtx, QueryStats, SegId, SegmentTable,
    SpatialIndex,
};
use lsdb_geom::{world_rect, Point, Rect, Segment};
use lsdb_pager::{BufferPool, PageId};
use std::cmp::Reverse;

/// Which axis a region is cut along.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Axis {
    X,
    Y,
}

/// A disk-resident hybrid R+-tree over line segments.
pub struct RPlusTree {
    pool: BufferPool,
    table: SegmentTable,
    root: PageId,
    /// Level of the root; leaves are level 1. The root region is the world.
    height: u32,
    m_max: usize,
    len: usize,
}

impl RPlusTree {
    pub fn new(table: SegmentTable, cfg: IndexConfig) -> Self {
        // Pool-open time is when the scan ISA is decided: warm the cached
        // selection so the first query pays a plain atomic load.
        lsdb_core::scan::active_isa();
        let mut pool = BufferPool::new(cfg.page_size, cfg.pool_pages);
        let m_max = RectNode::capacity(cfg.page_size);
        assert!(m_max >= 4, "page too small for an R+-tree node");
        let root = pool.allocate();
        pool.with_page_mut(root, |buf| RectNode::init(buf, true));
        RPlusTree {
            pool,
            table,
            root,
            height: 1,
            m_max,
            len: 0,
        }
    }

    /// Build over a whole map by inserting its segments in order.
    pub fn build(map: &PolygonalMap, cfg: IndexConfig) -> Self {
        let table = SegmentTable::from_map(map, cfg.page_size, cfg.pool_pages);
        let mut t = RPlusTree::new(table, cfg);
        for id in 0..map.segments.len() {
            t.insert(SegId(id as u32));
        }
        t
    }

    pub fn m_max(&self) -> usize {
        self.m_max
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    /// Average entries per leaf (the paper's §7 audit found ≈32).
    pub fn avg_leaf_occupancy(&mut self) -> f64 {
        let root = self.root;
        let height = self.height;
        let (sum, leaves) = self.occupancy_rec(root, height);
        sum as f64 / leaves as f64
    }

    fn occupancy_rec(&mut self, pid: PageId, level: u32) -> (u64, u64) {
        if level == 1 {
            return (self.pool.with_page(pid, RectNode::count) as u64, 1);
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
            let (s, l) = self.occupancy_rec(ch, level - 1);
            sum += s;
            leaves += l;
        }
        (sum, leaves)
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Recursive top-down insertion "that places it in every leaf node that
    /// it intersects". Returns replacement entries if the node was
    /// partitioned (the caller replaces its entry for this node with them).
    fn insert_rec(
        &mut self,
        pid: PageId,
        level: u32,
        region: Rect,
        seg: Segment,
        id: SegId,
    ) -> Option<Vec<Entry>> {
        if level == 1 {
            let count = self.pool.with_page(pid, RectNode::count);
            let entry = Entry {
                rect: seg.bbox(),
                child: id.0,
            };
            if count < self.m_max {
                self.pool
                    .with_page_mut(pid, |buf| RectNode::push(buf, entry));
                return None;
            }
            // Overflow: partition the M+1 entries into new leaves.
            let mut items = self.pool.with_page(pid, RectNode::entries);
            items.push(entry);
            let parts = self.partition_leaf(items, region);
            return Some(self.emit_parts(Some(pid), parts, true));
        }
        // Descend into every child whose region the segment touches.
        let snapshot = self.pool.with_page(pid, RectNode::entries);
        let mut replacements: Vec<(usize, Vec<Entry>)> = Vec::new();
        for (idx, e) in snapshot.iter().enumerate() {
            if e.rect.intersects_segment(&seg) {
                if let Some(repl) = self.insert_rec(PageId(e.child), level - 1, e.rect, seg, id) {
                    replacements.push((idx, repl));
                }
            }
        }
        if replacements.is_empty() {
            return None;
        }
        // Apply replacements in memory, then write back or partition.
        let mut entries = snapshot;
        // Replace from the highest index down so indices stay valid.
        replacements.sort_by_key(|(idx, _)| Reverse(*idx));
        for (idx, repl) in replacements {
            entries.splice(idx..=idx, repl);
        }
        if entries.len() <= self.m_max {
            self.pool.with_page_mut(pid, |buf| {
                RectNode::init(buf, false);
                RectNode::write_entries(buf, &entries);
            });
            return None;
        }
        let parts = self.partition_internal(entries, region);
        Some(self.emit_parts(Some(pid), parts, false))
    }

    /// Write partitioned groups to pages (reusing `reuse` for the first)
    /// and return the parent-level entries describing them.
    fn emit_parts(
        &mut self,
        reuse: Option<PageId>,
        parts: Vec<(Rect, Vec<Entry>)>,
        leaf: bool,
    ) -> Vec<Entry> {
        let mut out = Vec::with_capacity(parts.len());
        let mut reuse = reuse;
        for (region, entries) in parts {
            debug_assert!(entries.len() <= self.m_max);
            let pid = match reuse.take() {
                Some(p) => p,
                None => self.pool.allocate(),
            };
            self.pool.with_page_mut(pid, |buf| {
                RectNode::init(buf, leaf);
                RectNode::write_entries(buf, &entries);
            });
            out.push(Entry {
                rect: region,
                child: pid.0,
            });
        }
        out
    }

    /// Partition an over-full leaf's items into region-tagged groups, each
    /// within capacity, by recursively applying the minimal-cut split rule.
    fn partition_leaf(&mut self, items: Vec<Entry>, region: Rect) -> Vec<(Rect, Vec<Entry>)> {
        if items.len() <= self.m_max {
            return vec![(region, items)];
        }
        let (axis, c) = self.choose_leaf_split(&items, region).unwrap_or_else(|| {
            panic!(
                "R+-tree leaf over region {region:?} cannot be split: \
                 {} segments share an unsplittable region (> M = {})",
                items.len(),
                self.m_max
            )
        });
        let (lr, rr) = cut_region(region, axis, c);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for e in items {
            let seg = self.table.fetch(SegId(e.child));
            let in_l = lr.intersects_segment(&seg);
            let in_r = rr.intersects_segment(&seg);
            debug_assert!(in_l || in_r, "segment lost by split");
            if in_l {
                left.push(e);
            }
            if in_r {
                right.push(e);
            }
        }
        let mut parts = self.partition_leaf(left, lr);
        parts.extend(self.partition_leaf(right, rr));
        parts
    }

    /// Partition an over-full internal node's child entries, recursively
    /// splitting straddling children downward.
    fn partition_internal(&mut self, entries: Vec<Entry>, region: Rect) -> Vec<(Rect, Vec<Entry>)> {
        if entries.len() <= self.m_max {
            return vec![(region, entries)];
        }
        let (axis, c) = choose_internal_split(&entries, region)
            .expect("internal region with >= 2 children always has a valid cut");
        let (lr, rr) = cut_region(region, axis, c);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for e in entries {
            let (emin, emax) = match axis {
                Axis::X => (e.rect.min.x, e.rect.max.x),
                Axis::Y => (e.rect.min.y, e.rect.max.y),
            };
            if emax <= c {
                left.push(e);
            } else if emin >= c {
                right.push(e);
            } else {
                // Straddling child: split its whole subtree at the cut.
                let (le, re) = self.split_subtree(PageId(e.child), e.rect, axis, c);
                left.push(le);
                right.push(re);
            }
        }
        debug_assert!(!left.is_empty() && !right.is_empty());
        let mut parts = self.partition_internal(left, lr);
        parts.extend(self.partition_internal(right, rr));
        parts
    }

    /// Downward split (the k-d-B cascade): cut the subtree rooted at `pid`
    /// (covering `region`) along `axis` at `c`; `pid` is reused for the
    /// left part. Neither side can overflow: a node's side receives at most
    /// all of its current entries.
    fn split_subtree(&mut self, pid: PageId, region: Rect, axis: Axis, c: i32) -> (Entry, Entry) {
        let (lr, rr) = cut_region(region, axis, c);
        let (is_leaf, entries) = self
            .pool
            .with_page(pid, |buf| (RectNode::is_leaf(buf), RectNode::entries(buf)));
        let mut left = Vec::new();
        let mut right = Vec::new();
        if is_leaf {
            for e in entries {
                let seg = self.table.fetch(SegId(e.child));
                if lr.intersects_segment(&seg) {
                    left.push(e);
                }
                if rr.intersects_segment(&seg) {
                    right.push(e);
                }
            }
        } else {
            for e in entries {
                let (emin, emax) = match axis {
                    Axis::X => (e.rect.min.x, e.rect.max.x),
                    Axis::Y => (e.rect.min.y, e.rect.max.y),
                };
                if emax <= c {
                    left.push(e);
                } else if emin >= c {
                    right.push(e);
                } else {
                    let (le, re) = self.split_subtree(PageId(e.child), e.rect, axis, c);
                    left.push(le);
                    right.push(re);
                }
            }
            debug_assert!(
                !left.is_empty() && !right.is_empty(),
                "children tile the region, so a strict interior cut leaves both sides non-empty"
            );
        }
        let rpid = self.pool.allocate();
        self.pool.with_page_mut(pid, |buf| {
            RectNode::init(buf, is_leaf);
            RectNode::write_entries(buf, &left);
        });
        self.pool.with_page_mut(rpid, |buf| {
            RectNode::init(buf, is_leaf);
            RectNode::write_entries(buf, &right);
        });
        (
            Entry {
                rect: lr,
                child: pid.0,
            },
            Entry {
                rect: rr,
                child: rpid.0,
            },
        )
    }

    /// The paper's split rule for leaves: try all candidate vertical and
    /// horizontal cut lines, minimize the number of segments cut (counted
    /// on their MBRs), break ties by the most even distribution.
    ///
    /// Returns `None` only when the region is too small to admit any
    /// interior cut line.
    fn choose_leaf_split(&mut self, items: &[Entry], region: Rect) -> Option<(Axis, i32)> {
        let mut best: Option<(u64, u64, Axis, i32)> = None;
        let mut consider = |axis: Axis, c: i32| {
            let (mut l, mut r, mut cut) = (0u64, 0u64, 0u64);
            for e in items {
                let (emin, emax) = match axis {
                    Axis::X => (e.rect.min.x, e.rect.max.x),
                    Axis::Y => (e.rect.min.y, e.rect.max.y),
                };
                // Shared-boundary semantics: touching the cut line means
                // living on both sides.
                if emax < c {
                    l += 1;
                } else if emin > c {
                    r += 1;
                } else {
                    cut += 1;
                }
            }
            // A cut that sends everything to one side makes no progress.
            if l + cut == items.len() as u64 && r == 0 && cut == 0 {
                return;
            }
            let imbalance = (l + cut).abs_diff(r + cut);
            if best.is_none_or(|(bc, bi, _, _)| (cut, imbalance) < (bc, bi)) {
                best = Some((cut, imbalance, axis, c));
            }
        };
        for e in items {
            // Candidates at entry boundaries and one unit off them: under
            // shared-boundary region semantics a segment *ending* on the
            // cut line lives on both sides, so lines through road
            // junctions (where many segments terminate) are expensive and
            // the off-by-one lines right next to them are often far
            // cheaper. Both are offered; min-cut decides.
            for c in [
                e.rect.min.x - 1,
                e.rect.min.x,
                e.rect.max.x,
                e.rect.max.x + 1,
            ] {
                if region.min.x < c && c < region.max.x {
                    consider(Axis::X, c);
                }
            }
            for c in [
                e.rect.min.y - 1,
                e.rect.min.y,
                e.rect.max.y,
                e.rect.max.y + 1,
            ] {
                if region.min.y < c && c < region.max.y {
                    consider(Axis::Y, c);
                }
            }
        }
        // Fallback: midpoints (covers e.g. all items spanning the region).
        if let Some(c) = midpoint(region.min.x, region.max.x) {
            consider(Axis::X, c);
        }
        if let Some(c) = midpoint(region.min.y, region.max.y) {
            consider(Axis::Y, c);
        }
        best.map(|(_, _, axis, c)| (axis, c))
    }

    // ------------------------------------------------------------------
    // Queries — all traversal lives in the shared engines. The R+-tree
    // shares the R-tree family's [`RectTreeAccess`] cursor: a point on a
    // shared region boundary lives in several leaves, the descent visits
    // all of them (so access counts match a real point query), and the
    // engines' dedup reports each segment once.
    // ------------------------------------------------------------------

    fn access(&self) -> RectTreeAccess<'_> {
        RectTreeAccess {
            pool: &self.pool,
            table: &self.table,
            root: self.root,
            height: self.height,
        }
    }

    /// Validate structural invariants (tests only). Returns the sorted
    /// distinct segment ids present.
    pub fn check_invariants(&mut self) -> Vec<SegId> {
        let root = self.root;
        let height = self.height;
        let mut leaves: Vec<(Rect, Vec<SegId>)> = Vec::new();
        self.collect_leaves(root, height, world_rect(), &mut leaves);
        let mut all: Vec<SegId> = leaves.iter().flat_map(|(_, s)| s.iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), self.len, "len counter diverged");
        // Completeness: every segment is present in *every* leaf whose
        // region its geometry touches.
        for &id in &all {
            let seg = self.table.fetch(id);
            for (region, segs) in &leaves {
                let touches = region.intersects_segment(&seg);
                let stored = segs.contains(&id);
                assert_eq!(
                    touches, stored,
                    "segment {id:?} vs leaf region {region:?}: touches={touches}, stored={stored}"
                );
            }
        }
        all
    }

    fn collect_leaves(
        &mut self,
        pid: PageId,
        level: u32,
        region: Rect,
        out: &mut Vec<(Rect, Vec<SegId>)>,
    ) {
        let (is_leaf, entries) = self
            .pool
            .with_page(pid, |buf| (RectNode::is_leaf(buf), RectNode::entries(buf)));
        assert_eq!(is_leaf, level == 1);
        assert!(entries.len() <= self.m_max);
        if level == 1 {
            for e in &entries {
                let seg = self.table.fetch(SegId(e.child));
                assert_eq!(e.rect, seg.bbox(), "leaf entry must carry the segment MBR");
            }
            out.push((region, entries.iter().map(|e| SegId(e.child)).collect()));
            return;
        }
        assert!(!entries.is_empty(), "internal node with no children");
        // Children must tile `region`: disjoint interiors, full coverage.
        let mut area = 0i128;
        for (i, e) in entries.iter().enumerate() {
            assert!(region.contains_rect(&e.rect), "child region escapes parent");
            assert!(
                e.rect.width() > 0 && e.rect.height() > 0,
                "degenerate region"
            );
            area += continuous_area(&e.rect);
            for o in &entries[i + 1..] {
                if let Some(ix) = e.rect.intersection(&o.rect) {
                    assert_eq!(
                        ix.area(),
                        0,
                        "sibling regions overlap with interior: {:?} vs {:?}",
                        e.rect,
                        o.rect
                    );
                }
            }
        }
        assert_eq!(
            area,
            continuous_area(&region),
            "children must tile the region"
        );
        for e in entries {
            self.collect_leaves(PageId(e.child), level - 1, e.rect, out);
        }
    }

    fn remove_rec(&mut self, pid: PageId, level: u32, seg: Segment, id: SegId) -> bool {
        if level == 1 {
            return self.pool.with_page_mut(pid, |buf| {
                let mut i = 0;
                let mut removed = false;
                while i < RectNode::count(buf) {
                    if RectNode::entry(buf, i).child == id.0 {
                        RectNode::remove_at(buf, i);
                        removed = true;
                    } else {
                        i += 1;
                    }
                }
                removed
            });
        }
        let children: Vec<PageId> = self.pool.with_page(pid, |buf| {
            RectNode::entries(buf)
                .iter()
                .filter(|e| e.rect.intersects_segment(&seg))
                .map(|e| PageId(e.child))
                .collect()
        });
        let mut removed = false;
        for child in children {
            removed |= self.remove_rec(child, level - 1, seg, id);
        }
        removed
    }
}

/// Area of a region rect under the shared-boundary (continuous-space)
/// convention, as `width * height`.
fn continuous_area(r: &Rect) -> i128 {
    r.width() as i128 * r.height() as i128
}

/// Cut `region` along `axis` at `c` into two shared-boundary halves.
fn cut_region(region: Rect, axis: Axis, c: i32) -> (Rect, Rect) {
    match axis {
        Axis::X => {
            debug_assert!(region.min.x < c && c < region.max.x);
            (
                Rect::new(region.min.x, region.min.y, c, region.max.y),
                Rect::new(c, region.min.y, region.max.x, region.max.y),
            )
        }
        Axis::Y => {
            debug_assert!(region.min.y < c && c < region.max.y);
            (
                Rect::new(region.min.x, region.min.y, region.max.x, c),
                Rect::new(region.min.x, c, region.max.x, region.max.y),
            )
        }
    }
}

fn midpoint(lo: i32, hi: i32) -> Option<i32> {
    let c = lo + (hi - lo) / 2;
    (lo < c && c < hi).then_some(c)
}

/// Split rule for internal nodes: candidate cuts are the children's region
/// boundaries; minimize the number of children cut, tie-break on evenness.
fn choose_internal_split(entries: &[Entry], region: Rect) -> Option<(Axis, i32)> {
    let mut best: Option<(u64, u64, Axis, i32)> = None;
    let mut consider = |axis: Axis, c: i32| {
        let (mut l, mut r, mut cut) = (0u64, 0u64, 0u64);
        for e in entries {
            let (emin, emax) = match axis {
                Axis::X => (e.rect.min.x, e.rect.max.x),
                Axis::Y => (e.rect.min.y, e.rect.max.y),
            };
            if emax <= c {
                l += 1;
            } else if emin >= c {
                r += 1;
            } else {
                cut += 1;
            }
        }
        // Reject cuts that leave a side without any child.
        if l + cut == 0 || r + cut == 0 {
            return;
        }
        let imbalance = (l + cut).abs_diff(r + cut);
        if best.is_none_or(|(bc, bi, _, _)| (cut, imbalance) < (bc, bi)) {
            best = Some((cut, imbalance, axis, c));
        }
    };
    for e in entries {
        for c in [e.rect.min.x, e.rect.max.x] {
            if region.min.x < c && c < region.max.x {
                consider(Axis::X, c);
            }
        }
        for c in [e.rect.min.y, e.rect.max.y] {
            if region.min.y < c && c < region.max.y {
                consider(Axis::Y, c);
            }
        }
    }
    best.map(|(_, _, axis, c)| (axis, c))
}

impl SpatialIndex for RPlusTree {
    fn name(&self) -> &'static str {
        "R+-tree"
    }

    fn seg_table(&self) -> &SegmentTable {
        &self.table
    }

    fn seg_table_mut(&mut self) -> &mut SegmentTable {
        &mut self.table
    }

    fn insert(&mut self, id: SegId) {
        let seg = self.table.fetch(id);
        let root = self.root;
        let height = self.height;
        if let Some(mut repl) = self.insert_rec(root, height, world_rect(), seg, id) {
            if repl.len() == 1 {
                // Rewritten in place under the same region.
                debug_assert_eq!(PageId(repl[0].child), root);
            } else {
                // The root partitioned. Wrap the parts in internal layers
                // until they fit one node — each wrap adds a tree level —
                // then grow the new root over them.
                while repl.len() > self.m_max {
                    let parts = self.partition_internal(repl, world_rect());
                    repl = self.emit_parts(None, parts, false);
                    self.height += 1;
                }
                let new_root = self.pool.allocate();
                self.pool.with_page_mut(new_root, |buf| {
                    RectNode::init(buf, false);
                    RectNode::write_entries(buf, &repl);
                });
                self.root = new_root;
                self.height += 1;
            }
        }
        self.len += 1;
    }

    fn remove(&mut self, id: SegId) -> bool {
        let seg = self.table.fetch(id);
        let root = self.root;
        let height = self.height;
        let removed = self.remove_rec(root, height, seg, id);
        if removed {
            self.len -= 1;
        }
        removed
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
    use lsdb_core::brute;

    fn cfg_small() -> IndexConfig {
        IndexConfig {
            page_size: 224,
            pool_pages: 8,
        }
    }

    fn grid_map(n: i32) -> PolygonalMap {
        let mut segs = Vec::new();
        let step = 400;
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

    fn diagonal_map() -> PolygonalMap {
        // Long diagonals that cross many region boundaries, plus short
        // spurs — exercises multi-leaf storage and downward splits.
        let mut segs = Vec::new();
        for i in 0..40 {
            let x = i * 150;
            segs.push(Segment::new(Point::new(x, 0), Point::new(x + 140, 900)));
            segs.push(Segment::new(Point::new(x, 1000), Point::new(x + 10, 1100)));
            segs.push(Segment::new(
                Point::new(0, 2000 + i * 7),
                Point::new(6000, 2100 + i * 7),
            ));
        }
        PolygonalMap::new("diag", segs)
    }

    #[test]
    fn build_and_invariants() {
        for map in [grid_map(7), diagonal_map()] {
            let mut t = RPlusTree::build(&map, cfg_small());
            assert_eq!(t.len(), map.len());
            let segs = t.check_invariants();
            assert_eq!(segs.len(), map.len());
            assert!(t.height() >= 2);
        }
    }

    #[test]
    fn incident_matches_brute_force() {
        let map = grid_map(6);
        let t = RPlusTree::build(&map, cfg_small());
        let mut ctx = QueryCtx::new();
        for x in (0..=2400).step_by(200) {
            for y in (0..=2400).step_by(200) {
                let p = Point::new(x, y);
                let got = brute::sorted(t.find_incident(p, &mut ctx));
                assert_eq!(got, brute::incident(&map, p), "at {p:?}");
            }
        }
    }

    #[test]
    fn nearest_matches_brute_force_distance() {
        for map in [grid_map(6), diagonal_map()] {
            let t = RPlusTree::build(&map, cfg_small());
            let mut ctx = QueryCtx::new();
            for x in (-100..=4000).step_by(331) {
                for y in (-100..=4000).step_by(373) {
                    let p = Point::new(x, y);
                    let got = t.nearest(p, &mut ctx).expect("non-empty");
                    let want = brute::nearest(&map, p).unwrap();
                    assert_eq!(
                        map.segments[got.index()].dist2_point(p),
                        want.1,
                        "at {p:?} in {}",
                        map.name
                    );
                }
            }
        }
    }

    #[test]
    fn window_matches_brute_force() {
        for map in [grid_map(6), diagonal_map()] {
            let t = RPlusTree::build(&map, cfg_small());
            let mut ctx = QueryCtx::new();
            let windows = [
                Rect::new(0, 0, 2400, 2400),
                Rect::new(350, 390, 820, 410),
                Rect::new(400, 400, 400, 400),
                Rect::new(9000, 9000, 9100, 9100),
            ];
            for w in windows {
                let got = brute::sorted(t.window(w, &mut ctx));
                assert_eq!(got, brute::window(&map, w), "window {w:?} in {}", map.name);
                // The streaming variant must visit exactly the same ids.
                let mut streamed = Vec::new();
                t.window_visit(w, &mut ctx, &mut |id| streamed.push(id));
                assert_eq!(brute::sorted(streamed), got);
            }
        }
    }

    #[test]
    fn segments_live_in_multiple_leaves() {
        // The R+-tree stores boundary-crossing segments redundantly: its
        // total entry count exceeds the segment count once splits happen.
        let map = diagonal_map();
        let mut t = RPlusTree::build(&map, cfg_small());
        let mut leaves = Vec::new();
        let root = t.root;
        let height = t.height;
        t.collect_leaves(root, height, world_rect(), &mut leaves);
        let total_entries: usize = leaves.iter().map(|(_, s)| s.len()).sum();
        assert!(
            total_entries > map.len(),
            "expected redundancy: {total_entries} entries for {} segments",
            map.len()
        );
    }

    #[test]
    fn point_query_descends_single_path_in_interior() {
        // Disjointness: a point strictly inside one region visits one
        // root-to-leaf path; bbox comps stay near M * height. The counters
        // land in the per-query context, not the structure.
        let map = grid_map(7);
        let t = RPlusTree::build(&map, cfg_small());
        let mut ctx = QueryCtx::new();
        let _ = t.find_incident(Point::new(1201, 1201), &mut ctx);
        let s = ctx.stats();
        assert!(
            s.bbox_comps <= (t.m_max() as u64) * (t.height() as u64 + 1),
            "bbox comps {} too high for a single-path descent",
            s.bbox_comps
        );
    }

    #[test]
    fn probe_point_returns_the_containing_leaf() {
        let map = grid_map(7);
        let t = RPlusTree::build(&map, cfg_small());
        let mut ctx = QueryCtx::new();
        let p = Point::new(1201, 1201);
        let loc = t.probe_point(p, &mut ctx);
        assert_ne!(loc, LocId::NONE);
        // Stable: the same probe always lands in the same leaf, and probing
        // charges bbox comps but never a segment comparison.
        assert_eq!(t.probe_point(p, &mut ctx), loc);
        assert!(ctx.stats().bbox_comps > 0);
        assert_eq!(ctx.stats().seg_comps, 0);
    }

    #[test]
    fn parallel_queries_share_the_tree() {
        let map = diagonal_map();
        let t = RPlusTree::build(&map, cfg_small());
        let probes: Vec<Point> = (0..32)
            .map(|i| Point::new((i * 181) % 6000, (i * 257) % 2300))
            .collect();
        let run_one = |t: &RPlusTree, p: Point| {
            let mut ctx = QueryCtx::new();
            let inc = t.find_incident(p, &mut ctx);
            let near = t.nearest(p, &mut ctx);
            (inc, near, ctx.stats())
        };
        let sequential: Vec<_> = probes.iter().map(|&p| run_one(&t, p)).collect();
        let t = &t;
        let parallel: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = probes
                .chunks(8)
                .map(|chunk| {
                    scope.spawn(move || chunk.iter().map(|&p| run_one(t, p)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn remove_segments() {
        let map = grid_map(5);
        let mut t = RPlusTree::build(&map, cfg_small());
        for i in (0..map.len()).step_by(2) {
            assert!(t.remove(SegId(i as u32)), "remove {i}");
        }
        assert!(!t.remove(SegId(0)), "double remove");
        // Structure remains sound; only odd segments remain.
        let mut ctx = QueryCtx::new();
        let w = Rect::new(300, 300, 1300, 1300);
        let got = brute::sorted(t.window(w, &mut ctx));
        let want: Vec<SegId> = brute::window(&map, w)
            .into_iter()
            .filter(|id| id.index() % 2 == 1)
            .collect();
        assert_eq!(got, want);
        assert_eq!(t.len(), map.len() / 2);
    }

    #[test]
    fn empty_tree_queries() {
        let map = PolygonalMap::new("empty", vec![]);
        let t = RPlusTree::build(&map, cfg_small());
        let mut ctx = QueryCtx::new();
        assert_eq!(t.nearest(Point::new(5, 5), &mut ctx), None);
        assert!(t.find_incident(Point::new(5, 5), &mut ctx).is_empty());
        assert!(t.window(Rect::new(0, 0, 10, 10), &mut ctx).is_empty());
    }

    #[test]
    fn polygon_query_via_generic_traversal() {
        let map = grid_map(4);
        let t = RPlusTree::build(&map, cfg_small());
        let mut ctx = QueryCtx::new();
        let walk = lsdb_core::queries::enclosing_polygon(&t, Point::new(600, 600), 100, &mut ctx)
            .expect("non-empty");
        assert!(walk.closed);
        assert_eq!(walk.len(), 4, "a city block has 4 segments");
    }

    #[test]
    #[should_panic(expected = "cannot be split")]
    fn more_than_m_segments_through_one_point_panics() {
        // M = 10 at this page size; 11 segments share an endpoint, so some
        // unit region is intersected by all of them and no split line can
        // separate them — the documented structural limit.
        let center = Point::new(1000, 1000);
        let segs: Vec<Segment> = (0..11)
            .map(|i| Segment::new(center, Point::new(3000 + 100 * i, 2000 + 70 * i)))
            .collect();
        let map = PolygonalMap::new("star", segs);
        let _ = RPlusTree::build(&map, cfg_small());
    }

    #[test]
    fn uses_more_space_than_rstar() {
        // Paper Table 1: the R+-tree used 26-43% more space than R*.
        // Direction (not magnitude) must hold on crossing-heavy data.
        let map = diagonal_map();
        let rplus = RPlusTree::build(&map, cfg_small()).size_bytes();
        let rstar =
            lsdb_rtree::RTree::build(&map, cfg_small(), lsdb_rtree::RTreeKind::RStar).size_bytes();
        assert!(
            rplus > rstar,
            "R+ ({rplus}) should out-size R* ({rstar}) on boundary-crossing data"
        );
    }
}
