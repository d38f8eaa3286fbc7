//! The PMR quadtree, implemented as a linear quadtree over a disk B-tree —
//! the paper's third structure, hosted in its experiments by the QUILT GIS.
//!
//! Following §3-§4 of the paper:
//!
//! * The quadtree is **edge-based** with a probabilistic splitting rule: a
//!   line segment is inserted into every block it intersects; if an
//!   insertion pushes a block's occupancy past the *splitting threshold*
//!   (default 4 — "it is rare for more than 4 roads to intersect"), the
//!   block is split **once, and only once**, into four equal blocks.
//! * The decomposition is bounded by a maximum depth of 14 (a 16K × 16K
//!   world).
//! * Only leaf blocks are stored. Each q-edge is an 8-byte 2-tuple
//!   *(locational code, segment id)*: the code is the bit-interleaved
//!   (Morton) address of the block plus its depth, and the id points into
//!   the disk-resident segment table. Tuples live in a B-tree sorted by
//!   code, so one bucket's q-edges are physically contiguous — "the line
//!   segments associated with a particular PMR quadtree node should be
//!   stored on the same page".
//! * Deletion removes the segment from every block it occupies and merges
//!   a block with its brothers when their combined occupancy falls below
//!   the threshold, reapplying the merge recursively.
//!
//! **Deviation (documented in DESIGN.md):** a pure (L, O) B-tree cannot
//! represent an *empty* leaf block, making the shape of the decomposition
//! ambiguous after splits with empty children. We keep one sentinel tuple
//! (`segment id = u32::MAX`) per empty leaf so the B-tree is an exact
//! encoding of the decomposition; the overhead is a few hundred tuples per
//! 50k-segment county.

use lsdb_btree::BTree;
use lsdb_core::queries::PolygonWalk;
use lsdb_core::traverse::{DfsSink, NnSink, NodeAccess};
use lsdb_core::{
    traverse, IndexConfig, LocId, PolygonalMap, PoolCtx, QueryCtx, QueryStats, SegId, SegmentTable,
    SpatialIndex,
};
use lsdb_geom::morton::Block;
use lsdb_geom::{world_rect, Dist2, Point, Rect, Segment, MAX_DEPTH};
use lsdb_pager::BufferPool;
use std::cmp::Reverse;
use std::collections::HashSet;
use std::ops::ControlFlow;

/// Sentinel "segment id" marking an empty leaf block.
const EMPTY: u32 = u32::MAX;

/// Configuration for a PMR quadtree.
#[derive(Clone, Copy, Debug)]
pub struct PmrConfig {
    /// Splitting threshold (the paper's experiments use 4).
    pub threshold: usize,
    /// Maximum decomposition depth (the paper uses 14).
    pub max_depth: u8,
    /// Page/pool configuration of the underlying B-tree.
    pub index: IndexConfig,
}

impl Default for PmrConfig {
    fn default() -> Self {
        PmrConfig {
            threshold: 4,
            max_depth: MAX_DEPTH,
            index: IndexConfig::default(),
        }
    }
}

/// Pack a q-edge 2-tuple into a B-tree key: Morton code (28 bits) |
/// depth (4 bits) | payload (32 bits). Sorting by this key is sorting by
/// locational code, then by segment id within a block.
fn key(block: Block, payload: u32) -> u64 {
    ((block.code() as u64) << 36) | ((block.depth as u64) << 32) | payload as u64
}

fn block_of_key(k: u64) -> Block {
    Block::from_code((k >> 36) as u32, ((k >> 32) & 0xF) as u8)
}

fn payload_of_key(k: u64) -> u32 {
    k as u32
}

/// The key range of the block `k` belongs to, `(key(b, 0), key(b,
/// u32::MAX))`: the key with its payload bits cleared, then set.
fn block_run(k: u64) -> (u64, u64) {
    (k & !0xFFFF_FFFF, k | 0xFFFF_FFFF)
}

/// A disk-resident PMR quadtree over line segments.
pub struct PmrQuadtree {
    btree: BTree,
    table: SegmentTable,
    threshold: usize,
    max_depth: u8,
    len: usize,
    bucket_comps: u64,
}

impl PmrQuadtree {
    pub fn new(table: SegmentTable, cfg: PmrConfig) -> Self {
        assert!(cfg.threshold >= 1);
        assert!(cfg.max_depth <= MAX_DEPTH);
        let mut btree = BTree::new(BufferPool::new(cfg.index.page_size, cfg.index.pool_pages));
        btree.insert(key(Block::ROOT, EMPTY));
        PmrQuadtree {
            btree,
            table,
            threshold: cfg.threshold,
            max_depth: cfg.max_depth,
            len: 0,
            bucket_comps: 0,
        }
    }

    /// Build over a whole map by inserting its segments in order.
    pub fn build(map: &PolygonalMap, cfg: PmrConfig) -> Self {
        let table = SegmentTable::from_map(map, cfg.index.page_size, cfg.index.pool_pages);
        let mut t = PmrQuadtree::new(table, cfg);
        for id in 0..map.segments.len() {
            t.insert(SegId(id as u32));
        }
        t
    }

    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// All leaf blocks of the current decomposition, in Z-order. Feeds the
    /// paper's 2-stage query-point generator ("we first generated the PMR
    /// quadtree block at random using a uniform distribution based on the
    /// total number of blocks — not their size").
    pub fn leaf_blocks(&mut self) -> Vec<Block> {
        let mut blocks = Vec::new();
        let mut last: Option<Block> = None;
        let _ = self.btree.scan_range(0, u64::MAX, &mut |k| {
            let b = block_of_key(k);
            if last != Some(b) {
                blocks.push(b);
                last = Some(b);
            }
            ControlFlow::Continue(())
        });
        blocks
    }

    /// Average occupancy over non-empty leaf blocks (the paper's §7 note:
    /// "the average number of line segments in a bucket with a splitting
    /// threshold value of x is usually .5x").
    pub fn avg_bucket_occupancy(&mut self) -> f64 {
        let mut blocks = 0u64;
        let mut total = 0u64;
        let mut last: Option<Block> = None;
        let _ = self.btree.scan_range(0, u64::MAX, &mut |k| {
            if payload_of_key(k) != EMPTY {
                let b = block_of_key(k);
                if last != Some(b) {
                    blocks += 1;
                    last = Some(b);
                }
                total += 1;
            }
            ControlFlow::Continue(())
        });
        if blocks == 0 {
            0.0
        } else {
            total as f64 / blocks as f64
        }
    }

    /// Is `b` a leaf of the current decomposition? Every leaf holds at
    /// least one tuple (a sentinel when empty), so this is one B-tree
    /// probe.
    fn is_leaf(&mut self, b: Block) -> bool {
        self.btree
            .first_in_range(key(b, 0), key(b, u32::MAX))
            .is_some()
    }

    // ------------------------------------------------------------------
    // Shared-read query helpers: the same probes as the build-path ones
    // above, but over the B-tree's `&self` read path, charging disk
    // accesses to the query's context.
    // ------------------------------------------------------------------

    /// Query-path twin of [`PmrQuadtree::block_entries`], streaming: runs
    /// `f` over `b`'s segment ids (sentinel stripped) without collecting.
    /// Returns `false` iff `b` is not a leaf of the decomposition (an
    /// empty key range — every leaf holds at least one tuple).
    fn scan_block_ctx(&self, b: Block, index: &mut PoolCtx, f: &mut dyn FnMut(SegId)) -> bool {
        let mut any = false;
        let _ = self
            .btree
            .scan_range_ctx(key(b, 0), key(b, u32::MAX), index, &mut |k| {
                any = true;
                if payload_of_key(k) != EMPTY {
                    f(SegId(payload_of_key(k)));
                }
                ControlFlow::Continue(())
            });
        any
    }

    /// Query-path twin of [`PmrQuadtree::leaf_containing`].
    fn leaf_containing_ctx(&self, p: Point, index: &mut PoolCtx) -> Block {
        let probe = key(Block::containing(p, self.max_depth), u32::MAX);
        let k = self
            .btree
            .last_in_range_ctx(0, probe, index)
            .expect("decomposition covers the world");
        let b = block_of_key(k);
        debug_assert!(
            b.rect().contains_point(p),
            "predecessor block must contain p"
        );
        b
    }

    /// [`PmrQuadtree::leaf_containing_ctx`] followed by
    /// [`PmrQuadtree::scan_block_ctx`] on the leaf it finds, in one B-tree
    /// descent where the block's tuples sit in the leaf page the locate
    /// ends on ([`BTree::last_then_scan_ctx`]: same pages, same charges).
    fn locate_and_scan_ctx(
        &self,
        p: Point,
        index: &mut PoolCtx,
        f: &mut impl FnMut(SegId),
    ) -> Block {
        let probe = key(Block::containing(p, self.max_depth), u32::MAX);
        let k = self
            .btree
            .last_then_scan_ctx(0, probe, block_run, index, &mut |k| {
                if payload_of_key(k) != EMPTY {
                    f(SegId(payload_of_key(k)));
                }
                ControlFlow::Continue(())
            })
            .expect("decomposition covers the world");
        let b = block_of_key(k);
        debug_assert!(
            b.rect().contains_point(p),
            "predecessor block must contain p"
        );
        b
    }

    /// One-descent combined probe: `None` if `b` is not a leaf of the
    /// current decomposition, otherwise its segment ids (sentinel
    /// stripped). Every leaf holds at least one tuple, so an empty range
    /// means "internal block".
    fn block_entries(&mut self, b: Block) -> Option<Vec<SegId>> {
        let keys = self.btree.collect_range(key(b, 0), key(b, u32::MAX));
        if keys.is_empty() {
            return None;
        }
        Some(
            keys.into_iter()
                .filter(|&k| payload_of_key(k) != EMPTY)
                .map(|k| SegId(payload_of_key(k)))
                .collect(),
        )
    }

    /// Distinct segment ids stored in leaf `b` (no sentinel).
    fn block_segments(&mut self, b: Block) -> Vec<SegId> {
        self.btree
            .collect_range(key(b, 0), key(b, u32::MAX))
            .into_iter()
            .filter(|&k| payload_of_key(k) != EMPTY)
            .map(|k| SegId(payload_of_key(k)))
            .collect()
    }

    /// All leaf blocks whose (closed) region touches `seg` (with their
    /// current segment lists). Seeded from the leaf containing the
    /// segment's first endpoint so the B-tree probes stay in one key
    /// neighbourhood (segments are short relative to the map).
    fn leaves_touching_segment(&mut self, seg: &Segment) -> Vec<(Block, Vec<SegId>)> {
        let (leaf, segs, others) = self.seed_blocks(seg.a);
        let mut out = Vec::new();
        debug_assert!(
            leaf.region_touches_segment(seg),
            "seed leaf holds an endpoint"
        );
        self.bucket_comps += 1;
        out.push((leaf, segs));
        let mut stack: Vec<Block> = others;
        while let Some(b) = stack.pop() {
            if !b.region_touches_segment(seg) {
                continue;
            }
            match self.block_entries(b) {
                Some(segs) => {
                    self.bucket_comps += 1;
                    out.push((b, segs));
                }
                None => stack.extend_from_slice(&b.children()),
            }
        }
        out
    }

    /// The unique leaf block containing point `p`, located with a single
    /// predecessor search on the Morton code — the linear-quadtree trick
    /// that makes the paper's PMR point queries cost one bucket
    /// computation.
    fn leaf_containing(&mut self, p: Point) -> Block {
        let probe = key(Block::containing(p, self.max_depth), u32::MAX);
        let k = self
            .btree
            .last_in_range(0, probe)
            .expect("decomposition covers the world");
        let b = block_of_key(k);
        debug_assert!(
            b.rect().contains_point(p),
            "predecessor block must contain p"
        );
        b
    }

    /// Decompose the world around `p`: the leaf containing `p` (with its
    /// segments) plus the off-path children of its ancestors. The returned
    /// blocks partition the world, every proper ancestor of the leaf is
    /// known internal without any probe, and the one probe made lands in
    /// `p`'s key neighbourhood — this is what keeps the paper's PMR
    /// queries so disk-cheap (after Hoel & Samet [11]).
    fn seed_blocks(&mut self, p: Point) -> (Block, Vec<SegId>, Vec<Block>) {
        let leaf = self.leaf_containing(p);
        let segs = self
            .block_entries(leaf)
            .expect("leaf_containing returns a leaf");
        let mut others = Vec::new();
        let mut a = leaf;
        while let Some(parent) = a.parent() {
            for c in parent.children() {
                if c != a {
                    others.push(c);
                }
            }
            a = parent;
        }
        (leaf, segs, others)
    }

    /// Insert segment `id` into every block it touches, splitting blocks
    /// that exceed the threshold once.
    fn insert_segment(&mut self, id: SegId) {
        let seg = self.table.fetch(id);
        let blocks = self.leaves_touching_segment(&seg);
        debug_assert!(!blocks.is_empty(), "segment must land somewhere");
        for (b, existing) in blocks {
            if existing.contains(&id) {
                continue;
            }
            if existing.is_empty() {
                self.btree.remove(key(b, EMPTY));
            }
            self.btree.insert(key(b, id.0));
            let occupancy = existing.len() + 1;
            if occupancy > self.threshold && b.depth < self.max_depth {
                self.split_block(b);
            }
        }
    }

    /// Split `b` once into its four children, redistributing its q-edges.
    fn split_block(&mut self, b: Block) {
        let segs = self.block_segments(b);
        for &sid in &segs {
            self.btree.remove(key(b, sid.0));
        }
        for child in b.children() {
            let mut any = false;
            for &sid in &segs {
                let geom = self.table.fetch(sid);
                if child.region_touches_segment(&geom) {
                    self.btree.insert(key(child, sid.0));
                    any = true;
                }
            }
            if !any {
                self.btree.insert(key(child, EMPTY));
            }
        }
    }

    /// After deletions, try to merge `parent`'s four children back into
    /// it; recurse upward on success. "If the splitting threshold exceeds
    /// the occupancy of the block and its siblings, then they are merged."
    fn try_merge(&mut self, parent: Block) {
        let children = parent.children();
        let mut distinct: HashSet<SegId> = HashSet::new();
        for c in children {
            if !self.is_leaf(c) {
                return; // a grandchild decomposition blocks the merge
            }
            for sid in self.block_segments(c) {
                distinct.insert(sid);
            }
        }
        if distinct.len() >= self.threshold {
            return;
        }
        for c in children {
            for k in self.btree.collect_range(key(c, 0), key(c, u32::MAX)) {
                self.btree.remove(k);
            }
        }
        if distinct.is_empty() {
            self.btree.insert(key(parent, EMPTY));
        } else {
            for sid in distinct {
                self.btree.insert(key(parent, sid.0));
            }
        }
        if let Some(gp) = parent.parent() {
            self.try_merge(gp);
        }
    }

    /// Validate the decomposition (tests only): leaves partition the world
    /// in Z-order, sentinels mark exactly the empty leaves, every q-edge's
    /// segment touches its block, and every (segment, touching-leaf) pair
    /// is present. Returns the sorted distinct segment ids.
    pub fn check_invariants(&mut self) -> Vec<SegId> {
        let keys = self.btree.collect_range(0, u64::MAX);
        assert!(!keys.is_empty(), "even an empty tree has a root sentinel");
        // Group tuples by block, preserving Z-order.
        let mut blocks: Vec<(Block, Vec<u32>)> = Vec::new();
        for k in keys {
            let b = block_of_key(k);
            if blocks.last().map(|(lb, _)| *lb) != Some(b) {
                blocks.push((b, Vec::new()));
            }
            blocks.last_mut().unwrap().1.push(payload_of_key(k));
        }
        // Z-order partition: consecutive blocks abut exactly.
        let mut cursor: u64 = 0;
        for (b, payloads) in &blocks {
            let cells = 1u64 << (2 * (MAX_DEPTH - b.depth) as u32);
            assert_eq!(
                b.code() as u64,
                cursor,
                "gap or overlap in the Z-order decomposition at {b:?}"
            );
            cursor += cells;
            // Sentinel iff empty.
            let has_sentinel = payloads.contains(&EMPTY);
            if has_sentinel {
                assert_eq!(payloads.len(), 1, "sentinel must be alone in {b:?}");
            } else {
                assert!(!payloads.is_empty());
            }
            for &pl in payloads {
                if pl != EMPTY {
                    let seg = self.table.fetch(SegId(pl));
                    assert!(
                        b.region_touches_segment(&seg),
                        "q-edge {pl} does not touch its block {b:?}"
                    );
                }
            }
        }
        assert_eq!(
            cursor,
            1u64 << (2 * MAX_DEPTH as u32),
            "leaves must cover the world"
        );
        // Completeness: every segment is in every leaf it touches.
        let mut all: Vec<SegId> = blocks
            .iter()
            .flat_map(|(_, pls)| pls.iter().filter(|&&p| p != EMPTY).map(|&p| SegId(p)))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), self.len, "len counter diverged");
        for &id in &all {
            let seg = self.table.fetch(id);
            for (b, payloads) in &blocks {
                let touches = b.region_touches_segment(&seg);
                let stored = payloads.contains(&id.0);
                assert_eq!(
                    touches, stored,
                    "segment {id:?} vs block {b:?}: touches={touches} stored={stored}"
                );
            }
        }
        all
    }
}

/// Expansion policy plugged into the shared engines. Unlike the R-tree
/// family, a point query resolves entirely in the seed (one B-tree
/// predecessor probe finds the bucket — the quadtree's "descent" is
/// implicit in the locational code), and window/nearest traversals seed
/// with the query point's bucket plus the off-path children of its
/// ancestors, which partition the rest of the world.
impl NodeAccess for PmrQuadtree {
    type Node = Block;

    fn table(&self) -> &SegmentTable {
        &self.table
    }

    fn seed_point(
        &self,
        p: Point,
        probe_only: bool,
        ctx: &mut QueryCtx,
        sink: &mut DfsSink<Block>,
    ) {
        // The block containing p holds every segment with an endpoint at p
        // (any segment touching p touches this block's closed region) —
        // one bucket computation, one locate, one bucket scan.
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        *bbox_comps += 1;
        let b = if probe_only {
            self.leaf_containing_ctx(p, index)
        } else {
            self.locate_and_scan_ctx(p, index, &mut |id| sink.entry(id))
        };
        // The block's packed locational code: (Morton code, depth).
        sink.arrive(LocId(key(b, 0) >> 32));
    }

    fn expand_point(
        &self,
        _node: Block,
        _p: Point,
        _probe_only: bool,
        _ctx: &mut QueryCtx,
        _sink: &mut DfsSink<Block>,
    ) {
        unreachable!("PMR point queries resolve in the seed — no nodes are emitted");
    }

    fn seed_window(&self, w: Rect, ctx: &mut QueryCtx, sink: &mut DfsSink<Block>) {
        // Seed from the bucket of the window centre, clamped into the
        // world (a window may reach past it); only ancestor children that
        // actually overlap the window are traversed further.
        let c = w.center();
        let world = world_rect();
        let center = Point::new(
            c.x.clamp(world.min.x, world.max.x),
            c.y.clamp(world.min.y, world.max.y),
        );
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        let leaf = self.locate_and_scan_ctx(center, index, &mut |id| sink.entry(id));
        *bbox_comps += 1;
        let mut a = leaf;
        while let Some(parent) = a.parent() {
            for c in parent.children() {
                if c != a {
                    sink.node(c);
                }
            }
            a = parent;
        }
        // The legacy traversal popped the seed list as a stack (nearest
        // ancestors last); emission order is visit order, so reverse.
        sink.reverse_nodes();
    }

    fn expand_window(&self, b: Block, w: Rect, ctx: &mut QueryCtx, sink: &mut DfsSink<Block>) {
        if !w.intersects(&b.rect()) {
            return;
        }
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        let is_leaf = self.scan_block_ctx(b, index, &mut |id| sink.entry(id));
        if is_leaf {
            *bbox_comps += 1;
        } else {
            for c in b.children() {
                sink.node(c);
            }
            // Stack pop order of the legacy loop: last child first.
            sink.reverse_nodes();
        }
    }

    fn seed_nearest(&self, p: Point, ctx: &mut QueryCtx, sink: &mut NnSink<Block>) {
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        *bbox_comps += 1;
        // p lies in its bucket's block: the candidates' lower bound is 0.
        let leaf = self.locate_and_scan_ctx(p, index, &mut |id| sink.candidate(id, Dist2::ZERO));
        let mut a = leaf;
        while let Some(parent) = a.parent() {
            for c in parent.children() {
                if c != a {
                    sink.node(c, Dist2::from_int(c.dist2_point(p)));
                }
            }
            a = parent;
        }
    }

    fn expand_nearest(&self, b: Block, p: Point, ctx: &mut QueryCtx, sink: &mut NnSink<Block>) {
        let QueryCtx {
            index, bbox_comps, ..
        } = ctx;
        // Lower-bound candidates by the block distance; the exact distance
        // is computed (one segment comparison) when the candidate pops.
        let block_dist = Dist2::from_int(b.dist2_point(p));
        let is_leaf = self.scan_block_ctx(b, index, &mut |id| sink.candidate(id, block_dist));
        if is_leaf {
            *bbox_comps += 1;
        } else {
            for c in b.children() {
                sink.node(c, Dist2::from_int(c.dist2_point(p)));
            }
        }
    }
}

impl SpatialIndex for PmrQuadtree {
    fn name(&self) -> &'static str {
        "PMR quadtree"
    }

    fn seg_table(&self) -> &SegmentTable {
        &self.table
    }

    fn seg_table_mut(&mut self) -> &mut SegmentTable {
        &mut self.table
    }

    fn insert(&mut self, id: SegId) {
        assert_ne!(id.0, EMPTY, "segment id reserved for the empty sentinel");
        self.insert_segment(id);
        self.len += 1;
    }

    fn remove(&mut self, id: SegId) -> bool {
        let seg = self.table.fetch(id);
        let blocks = self.leaves_touching_segment(&seg);
        let mut removed = false;
        for (b, segs) in &blocks {
            if self.btree.remove(key(*b, id.0)) {
                removed = true;
                if segs.len() == 1 {
                    // `id` was the only occupant; keep the leaf encoded.
                    self.btree.insert(key(*b, EMPTY));
                }
            }
        }
        if !removed {
            return false;
        }
        self.len -= 1;
        // Attempt merges at each distinct affected parent.
        let mut parents: Vec<Block> = blocks.iter().filter_map(|(b, _)| b.parent()).collect();
        parents.sort_unstable_by_key(|p| (p.depth, p.x, p.y));
        parents.dedup();
        // Deepest first so cascading merges propagate cleanly.
        parents.sort_unstable_by_key(|p| Reverse(p.depth));
        for p in parents {
            // The block may already have been merged away by a sibling's
            // merge; `try_merge` re-checks leaf-ness itself.
            self.try_merge(p);
        }
        true
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
            disk: self.btree.pool().stats(),
            seg_comps: 0,
            bbox_comps: self.bucket_comps,
            seg_disk: self.table.disk_stats(),
        }
    }

    fn reset_stats(&mut self) {
        self.btree.pool_mut().reset_stats();
        self.btree.reset_stats();
        self.table.reset_stats();
        self.bucket_comps = 0;
    }

    fn size_bytes(&self) -> u64 {
        self.btree.pool().size_bytes()
    }

    fn clear_cache(&mut self) {
        self.btree.pool_mut().clear();
    }

    fn attach_budget(&mut self, budget: &std::sync::Arc<lsdb_pager::BufferBudget>) {
        self.btree.pool_mut().attach_budget(budget);
        self.table.attach_budget(budget);
    }

    fn shed_cache(&self, target_bytes: u64) -> u64 {
        let freed = self.btree.pool().shed(target_bytes);
        freed + self.table.shed_cache(target_bytes.saturating_sub(freed))
    }

    fn cache_stats(&self) -> lsdb_pager::CacheStats {
        let mut s = self.btree.pool().cache_stats();
        s.add(self.table.cache_stats());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_core::brute;
    use lsdb_geom::WORLD_SIZE;

    #[test]
    fn block_run_masks_the_payload_of_any_key() {
        let mut blocks = vec![Block::ROOT];
        for depth in 0..MAX_DEPTH as usize {
            let b = blocks[depth];
            blocks.extend(b.children().into_iter().skip(depth % 4).take(1));
        }
        blocks.push(Block::containing(
            Point::new(WORLD_SIZE - 1, WORLD_SIZE - 1),
            MAX_DEPTH,
        ));
        for b in blocks {
            for payload in [0, 1, 0x1234_5678, EMPTY] {
                let k = key(b, payload);
                assert_eq!(block_run(k), (key(b, 0), key(b, u32::MAX)), "{b:?}");
                assert_eq!(block_of_key(k), b);
            }
        }
    }

    fn cfg_test() -> PmrConfig {
        PmrConfig {
            threshold: 2,
            max_depth: 8,
            index: IndexConfig {
                page_size: 256,
                pool_pages: 8,
            },
        }
    }

    fn grid_map(n: i32) -> PolygonalMap {
        let mut segs = Vec::new();
        let step = WORLD_SIZE / (n + 2);
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

    #[test]
    fn key_packing_roundtrip() {
        let b = Block {
            depth: 7,
            x: 128 * 5,
            y: 128 * 9,
        };
        let k = key(b, 12345);
        assert_eq!(block_of_key(k), b);
        assert_eq!(payload_of_key(k), 12345);
        // Z-order: keys sort by (morton, depth, payload).
        let k2 = key(b, 12346);
        assert!(k2 > k);
        let sibling = Block {
            depth: 7,
            x: 128 * 6,
            y: 128 * 9,
        };
        assert!(key(sibling, 0) != k);
    }

    #[test]
    fn empty_tree_has_root_sentinel() {
        let table = SegmentTable::new(256, 4);
        let mut t = PmrQuadtree::new(table, cfg_test());
        assert_eq!(t.len(), 0);
        assert_eq!(t.leaf_blocks(), vec![Block::ROOT]);
        let mut ctx = QueryCtx::new();
        assert_eq!(t.nearest(Point::new(0, 0), &mut ctx), None);
        assert!(t.window(Rect::new(0, 0, 100, 100), &mut ctx).is_empty());
        t.check_invariants();
    }

    #[test]
    fn build_and_invariants() {
        let map = grid_map(6);
        let mut t = PmrQuadtree::build(&map, cfg_test());
        assert_eq!(t.len(), map.len());
        let segs = t.check_invariants();
        assert_eq!(segs.len(), map.len());
        assert!(t.leaf_blocks().len() > 4, "the root must have split");
    }

    #[test]
    fn split_threshold_is_respected_on_insert_path() {
        // Paper: a block is split when an insertion pushes it past the
        // threshold, but only once — so occupancy can exceed the
        // threshold, bounded by threshold + depth.
        let map = grid_map(6);
        let mut t = PmrQuadtree::build(&map, cfg_test());
        let mut counts: std::collections::HashMap<Block, usize> = Default::default();
        let _ = t.btree.scan_range(0, u64::MAX, &mut |k| {
            if payload_of_key(k) != EMPTY {
                *counts.entry(block_of_key(k)).or_default() += 1;
            }
            ControlFlow::Continue(())
        });
        for (b, c) in counts {
            assert!(
                c <= t.threshold + b.depth as usize || b.depth == t.max_depth,
                "block {b:?} occupancy {c} exceeds threshold+depth"
            );
        }
    }

    #[test]
    fn incident_matches_brute_force() {
        let map = grid_map(5);
        let t = PmrQuadtree::build(&map, cfg_test());
        let mut ctx = QueryCtx::new();
        let step = WORLD_SIZE / 7;
        for x in (0..=5 * step).step_by(step as usize) {
            for y in (0..=5 * step).step_by(step as usize) {
                let p = Point::new(x, y);
                let got = brute::sorted(t.find_incident(p, &mut ctx));
                assert_eq!(got, brute::incident(&map, p), "at {p:?}");
            }
        }
    }

    #[test]
    fn point_location_costs_one_bucket_computation() {
        let map = grid_map(5);
        let t = PmrQuadtree::build(&map, cfg_test());
        let mut ctx = QueryCtx::new();
        let _ = t.find_incident(Point::new(WORLD_SIZE / 3, WORLD_SIZE / 3), &mut ctx);
        assert_eq!(ctx.stats().bbox_comps, 1, "paper Table 2: Point1 = 1.00");
    }

    #[test]
    fn probe_point_reports_the_block_code() {
        let map = grid_map(5);
        let t = PmrQuadtree::build(&map, cfg_test());
        let mut ctx = QueryCtx::new();
        let p = Point::new(WORLD_SIZE / 3, WORLD_SIZE / 3);
        let loc = t.probe_point(p, &mut ctx);
        assert_ne!(loc, LocId::NONE);
        // Stable across repeats; a far-away point lands somewhere else.
        assert_eq!(t.probe_point(p, &mut ctx), loc);
        assert_ne!(t.probe_point(Point::new(1, 1), &mut ctx), loc);
        assert_eq!(
            ctx.stats().seg_comps,
            0,
            "a probe fetches no segment records"
        );
    }

    #[test]
    fn nearest_matches_brute_force_distance() {
        let map = grid_map(5);
        let t = PmrQuadtree::build(&map, cfg_test());
        let mut ctx = QueryCtx::new();
        for x in (0..WORLD_SIZE).step_by(1931) {
            for y in (0..WORLD_SIZE).step_by(2173) {
                let p = Point::new(x, y);
                let got = t.nearest(p, &mut ctx).expect("non-empty");
                let want = brute::nearest(&map, p).unwrap();
                assert_eq!(map.segments[got.index()].dist2_point(p), want.1, "at {p:?}");
            }
        }
    }

    #[test]
    fn window_matches_brute_force() {
        let map = grid_map(5);
        let t = PmrQuadtree::build(&map, cfg_test());
        let mut ctx = QueryCtx::new();
        let s = WORLD_SIZE / 7;
        let windows = [
            Rect::new(0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1),
            Rect::new(s - 10, s - 10, 2 * s + 10, 2 * s + 10),
            Rect::new(s, s, s, s),
            Rect::new(
                WORLD_SIZE - 100,
                WORLD_SIZE - 100,
                WORLD_SIZE - 1,
                WORLD_SIZE - 1,
            ),
        ];
        for w in windows {
            let got = brute::sorted(t.window(w, &mut ctx));
            assert_eq!(got, brute::window(&map, w), "window {w:?}");
            let mut streamed = Vec::new();
            t.window_visit(w, &mut ctx, &mut |id| streamed.push(id));
            assert_eq!(brute::sorted(streamed), got);
        }
    }

    #[test]
    fn parallel_queries_share_the_quadtree() {
        let map = grid_map(5);
        let t = PmrQuadtree::build(&map, cfg_test());
        let probes: Vec<Point> = (0..32)
            .map(|i| Point::new((i * 977) % WORLD_SIZE, (i * 1409) % WORLD_SIZE))
            .collect();
        let run_one = |t: &PmrQuadtree, p: Point| {
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
    fn remove_merges_blocks_back() {
        let map = grid_map(5);
        let mut t = PmrQuadtree::build(&map, cfg_test());
        let blocks_full = t.leaf_blocks().len();
        for i in 0..map.len() {
            assert!(t.remove(SegId(i as u32)), "remove {i}");
        }
        assert_eq!(t.len(), 0);
        assert_eq!(
            t.leaf_blocks(),
            vec![Block::ROOT],
            "all {blocks_full} blocks must merge back to the root"
        );
        t.check_invariants();
        assert!(!t.remove(SegId(0)), "double remove");
    }

    #[test]
    fn partial_removal_keeps_answers_correct() {
        let map = grid_map(5);
        let mut t = PmrQuadtree::build(&map, cfg_test());
        for i in (0..map.len()).step_by(3) {
            assert!(t.remove(SegId(i as u32)));
        }
        t.check_invariants();
        let mut ctx = QueryCtx::new();
        let s = WORLD_SIZE / 7;
        let w = Rect::new(s / 2, s / 2, 3 * s, 3 * s);
        let got = brute::sorted(t.window(w, &mut ctx));
        let want: Vec<SegId> = brute::window(&map, w)
            .into_iter()
            .filter(|id| id.index() % 3 != 0)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn reinsert_after_remove() {
        let map = grid_map(4);
        let mut t = PmrQuadtree::build(&map, cfg_test());
        for i in 0..map.len() {
            t.remove(SegId(i as u32));
        }
        for i in 0..map.len() {
            t.insert(SegId(i as u32));
        }
        assert_eq!(t.check_invariants().len(), map.len());
    }

    #[test]
    fn higher_threshold_uses_less_space() {
        // Paper: "as the splitting threshold is increased, the storage
        // requirements of the PMR quadtree decrease".
        let map = grid_map(6);
        let small = PmrQuadtree::build(
            &map,
            PmrConfig {
                threshold: 2,
                ..cfg_test()
            },
        )
        .size_bytes();
        let large = PmrQuadtree::build(
            &map,
            PmrConfig {
                threshold: 16,
                ..cfg_test()
            },
        )
        .size_bytes();
        assert!(
            large <= small,
            "threshold 16: {large} vs threshold 2: {small}"
        );
    }

    #[test]
    fn boundary_grazing_segment_lands_in_both_blocks() {
        // A horizontal segment exactly on the SW/NW quadrant boundary is a
        // q-edge of both quadrants once the root splits.
        let half = WORLD_SIZE / 2;
        let mut segs = vec![Segment::new(Point::new(10, half), Point::new(500, half))];
        // Filler to force a root split (threshold 2).
        segs.push(Segment::new(Point::new(100, 100), Point::new(200, 100)));
        segs.push(Segment::new(Point::new(300, 100), Point::new(400, 100)));
        let map = PolygonalMap::new("graze", segs);
        let mut t = PmrQuadtree::build(&map, cfg_test());
        t.check_invariants();
        let blocks = t.leaf_blocks();
        assert!(blocks.len() >= 4);
        // The grazing segment must be found from points on both sides.
        let mut ctx = QueryCtx::new();
        let got = t.find_incident(Point::new(10, half), &mut ctx);
        assert_eq!(got, vec![SegId(0)]);
    }

    #[test]
    fn polygon_query_via_generic_traversal() {
        let map = grid_map(4);
        let t = PmrQuadtree::build(&map, cfg_test());
        let mut ctx = QueryCtx::new();
        let step = WORLD_SIZE / 6;
        let walk = lsdb_core::queries::enclosing_polygon(
            &t,
            Point::new(step + step / 2, step + step / 2),
            100,
            &mut ctx,
        )
        .expect("non-empty");
        assert!(walk.closed);
        assert_eq!(walk.len(), 4, "a city block has 4 segments");
    }

    #[test]
    fn threshold_one_still_correct() {
        let map = grid_map(3);
        let mut t = PmrQuadtree::build(
            &map,
            PmrConfig {
                threshold: 1,
                ..cfg_test()
            },
        );
        t.check_invariants();
        let mut ctx = QueryCtx::new();
        let p = map.segments[0].a;
        assert_eq!(
            brute::sorted(t.find_incident(p, &mut ctx)),
            brute::incident(&map, p)
        );
    }

    #[test]
    fn zero_max_depth_keeps_everything_in_the_root() {
        // A decomposition that is never allowed to split degenerates to a
        // single bucket; queries stay correct, costs degrade.
        let map = grid_map(3);
        let mut t = PmrQuadtree::build(
            &map,
            PmrConfig {
                max_depth: 0,
                ..cfg_test()
            },
        );
        assert_eq!(t.leaf_blocks(), vec![Block::ROOT]);
        t.check_invariants();
        let mut ctx = QueryCtx::new();
        let w = Rect::new(0, 0, WORLD_SIZE - 1, WORLD_SIZE - 1);
        assert_eq!(brute::sorted(t.window(w, &mut ctx)).len(), map.len());
    }

    #[test]
    fn nearest_k_is_incremental_and_deduplicated() {
        let map = grid_map(4);
        let t = PmrQuadtree::build(&map, cfg_test());
        let mut ctx = QueryCtx::new();
        let p = Point::new(WORLD_SIZE / 3, WORLD_SIZE / 3);
        let k5 = t.nearest_k(p, 5, &mut ctx);
        assert_eq!(k5.len(), 5);
        let mut sorted_ids = k5.clone();
        sorted_ids.sort_unstable();
        sorted_ids.dedup();
        assert_eq!(sorted_ids.len(), 5, "k-NN must not repeat a q-edge");
        // Prefix property: nearest_k(1) is the head of nearest_k(5) by
        // distance (ids may differ under exact ties).
        let k1 = t.nearest_k(p, 1, &mut ctx);
        let d1 = map.segments[k1[0].index()].dist2_point(p);
        let d5 = map.segments[k5[0].index()].dist2_point(p);
        assert_eq!(d1, d5);
    }

    #[test]
    fn tuple_size_matches_paper() {
        // 8-byte 2-tuples: ~120 per 1 KB page (we fit 127).
        let table = SegmentTable::new(1024, 4);
        let t = PmrQuadtree::new(table, PmrConfig::default());
        assert_eq!(t.btree.height(), 1);
        // Key is a packed u64 = 8 bytes; the leaf capacity assertion lives
        // in the btree crate.
    }
}
