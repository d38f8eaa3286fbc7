use crate::queries::{self, PolygonWalk};
use crate::{QueryCtx, QueryStats, SegId, SegmentTable};
use lsdb_geom::{Point, Rect};

/// Page/pool configuration shared by the index and its segment table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Page (node) size in bytes. The paper's experiments use 1 KB.
    pub page_size: usize,
    /// Buffer-pool capacity in pages. The paper uses 16.
    pub pool_pages: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            page_size: lsdb_pager::DEFAULT_PAGE_SIZE,
            pool_pages: lsdb_pager::DEFAULT_POOL_PAGES,
        }
    }
}

/// Identifier of the leaf page or bucket a point probe located: the page id
/// for paged trees, the Z-order block key for the PMR quadtree, the cell
/// index for grids. Opaque — only meaningful back to the index that issued
/// it — but stable: probing the same point twice yields the same id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LocId(pub u64);

impl LocId {
    /// Returned by indexes with no localizable bucket (e.g. an oracle that
    /// scans everything).
    pub const NONE: LocId = LocId(u64::MAX);
}

/// The interface shared by the R\*-tree, R+-tree, PMR quadtree (and the
/// uniform-grid baseline).
///
/// The three primitive paper queries live here:
///
/// * **Query 1** ([`SpatialIndex::find_incident`]) — all segments incident
///   at a given segment endpoint;
/// * **Query 3** ([`SpatialIndex::nearest`]) — the nearest segment to an
///   arbitrary point under the Euclidean metric;
/// * **Query 5** ([`SpatialIndex::window`]) — all segments intersecting a
///   rectangular window.
///
/// Query 2 (segments at the *other* endpoint) and query 4 (minimal
/// enclosing polygon) are structure-independent compositions of these and
/// are implemented once in [`crate::queries`]. Query 4 is also a trait
/// method, [`SpatialIndex::enclosing_polygon`], so that the structures on
/// the shared traversal engines can run its walk inside the engine.
///
/// # Shared-read queries
///
/// All queries take `&self` plus a per-query [`QueryCtx`]: the index is
/// never mutated by a read, so one index can serve many query threads at
/// once. Everything a query *counts* — disk accesses, segment comparisons,
/// bounding-box computations — is charged to its context, making batch
/// totals independent of thread interleaving. Build/maintenance operations
/// ([`SpatialIndex::insert`], [`SpatialIndex::remove`]) remain exclusive
/// (`&mut self`) and charge the pools' internal counters instead.
///
/// # Query points lie in the world
///
/// Every point a query is asked at — [`SpatialIndex::find_incident`],
/// [`SpatialIndex::probe_point`], [`SpatialIndex::nearest`],
/// [`SpatialIndex::nearest_k`], and the compositions in [`crate::queries`]
/// built on them — must lie in [`lsdb_geom::world_rect`], as every indexed
/// segment does. The PMR quadtree locates points by their Morton code
/// within the world, and the distance arithmetic is exact only near it,
/// so an answer outside the world is undefined (debug builds may panic).
/// The server refuses such points with `BadArgument`. A window
/// ([`SpatialIndex::window`]) may have any extent.
///
/// `Send + Sync` are supertraits so a `&dyn SpatialIndex` can be handed to
/// query worker threads directly; every disk-resident implementor is
/// already thread-safe through its sharded buffer pool.
pub trait SpatialIndex: Send + Sync {
    /// Short display name ("R*-tree", "R+-tree", "PMR quadtree", ...).
    fn name(&self) -> &'static str;

    /// The segment table this index points into.
    fn seg_table(&self) -> &SegmentTable;

    /// Exclusive access to the segment table (loading, build paths).
    fn seg_table_mut(&mut self) -> &mut SegmentTable;

    /// Insert the segment with id `id` (geometry is read from the table).
    fn insert(&mut self, id: SegId);

    /// Remove a segment; returns `false` if it was not present.
    fn remove(&mut self, id: SegId) -> bool;

    /// Number of distinct segments currently indexed.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Query 1, streaming: invoke `f` once per segment with an endpoint
    /// exactly at `p`. Compositions that fire many incidence queries in a
    /// row (the polygon walk of query 4) call this with a reused buffer.
    fn find_incident_visit(&self, p: Point, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId));

    /// Query 1: all segments with an endpoint exactly at `p`, collected
    /// from [`SpatialIndex::find_incident_visit`] (same order, same
    /// counters).
    fn find_incident(&self, p: Point, ctx: &mut QueryCtx) -> Vec<SegId> {
        let mut out = Vec::new();
        self.find_incident_visit(p, ctx, &mut |id| out.push(id));
        out
    }

    /// Locate the leaf (or bucket) containing `p` without fetching any
    /// segment records — the cheap "find where this endpoint lives" step
    /// the paper's query 2 performs before searching the other endpoint.
    /// Charges disk accesses and bbox/bucket computations but no segment
    /// comparisons, and returns the located leaf/bucket id. The default
    /// implementation falls back to a full point search and reports
    /// [`LocId::NONE`].
    fn probe_point(&self, p: Point, ctx: &mut QueryCtx) -> LocId {
        let _ = self.find_incident(p, ctx);
        LocId::NONE
    }

    /// Query 3: the segment at minimal Euclidean distance from `p`
    /// (`None` only when the index is empty). Ties at the minimum
    /// distance resolve deterministically to the smallest [`SegId`], so
    /// every structure returns the same segment for the same query.
    fn nearest(&self, p: Point, ctx: &mut QueryCtx) -> Option<SegId>;

    /// The `k` nearest segments to `p`, closest first (fewer if the index
    /// holds fewer than `k`). Results are deduplicated and totally
    /// ordered by `(distance², SegId)`: equidistant segments appear in
    /// ascending id order, making the ranking — including every tie —
    /// identical across structures and runs. The incremental best-first
    /// search the structures use for [`SpatialIndex::nearest`] extends to
    /// ranked retrieval at no extra cost — the point of Hoel & Samet's
    /// incremental algorithm. The default implementation is correct for
    /// any structure (it conforms to the same ordering) but not
    /// incremental.
    fn nearest_k(&self, p: Point, k: usize, ctx: &mut QueryCtx) -> Vec<SegId> {
        // Generic fallback: widen a window around p until it provably
        // contains the k nearest, then rank by exact distance.
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut radius = 64i64;
        loop {
            let w = Rect::new(
                (p.x as i64 - radius).max(i32::MIN as i64) as i32,
                (p.y as i64 - radius).max(i32::MIN as i64) as i32,
                (p.x as i64 + radius).min(i32::MAX as i64) as i32,
                (p.y as i64 + radius).min(i32::MAX as i64) as i32,
            );
            let mut hits = self.window(w, ctx);
            let enough = hits.len() >= k;
            let saturated = hits.len() >= self.len();
            if enough || saturated {
                let mut ranked: Vec<_> = hits
                    .drain(..)
                    .map(|id| (self.seg_table().get(id, ctx).dist2_point(p), id))
                    .collect();
                ranked.sort();
                ranked.truncate(k);
                // All k within the inscribed radius? Then nothing outside
                // the window can beat them.
                let r2 = lsdb_geom::Dist2::from_int(radius * radius);
                if saturated || ranked.last().is_none_or(|(d, _)| *d < r2) {
                    return ranked.into_iter().map(|(_, id)| id).collect();
                }
            }
            radius *= 2;
        }
    }

    /// Query 5, streaming: invoke `f` once per segment intersecting the
    /// closed window `w`. Visit order is structure-defined but
    /// deterministic; no segment is visited twice.
    fn window_visit(&self, w: Rect, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId));

    /// Query 5: all segments intersecting the closed window `w`, without
    /// duplicates, collected from [`SpatialIndex::window_visit`] (same
    /// order, same counters).
    fn window(&self, w: Rect, ctx: &mut QueryCtx) -> Vec<SegId> {
        let mut out = Vec::new();
        self.window_visit(w, ctx, &mut |id| out.push(id));
        out
    }

    /// Query 4: walk the boundary of the face containing `p` (see
    /// [`crate::queries::enclosing_polygon`], which calls this). The
    /// default composes the trait queries; structures on the shared
    /// engines override it with [`crate::traverse::polygon_walk`]. Same
    /// boundary, `closed` flag and counters either way.
    fn enclosing_polygon(
        &self,
        p: Point,
        max_steps: usize,
        ctx: &mut QueryCtx,
    ) -> Option<PolygonWalk> {
        queries::compose_enclosing_polygon(self, p, max_steps, ctx)
    }

    /// Snapshot of the build-path metric counters (the pools' internal
    /// stats). Query-path metrics live in each query's [`QueryCtx`].
    fn stats(&self) -> QueryStats;

    /// Zero the build-path counters (typically after the build phase).
    fn reset_stats(&mut self);

    /// Storage footprint of the index structure in bytes, excluding the
    /// segment table (which the paper reports separately since it is
    /// identical across structures).
    fn size_bytes(&self) -> u64;

    /// Flush dirty pages and drop all buffered ones, so subsequent queries
    /// run against a cold cache.
    fn clear_cache(&mut self);

    /// Charge all of this structure's buffer pools (index pool + segment
    /// table pool) against a shared byte budget. Structures with an index
    /// pool override this and also attach that pool; the default covers
    /// the segment table only.
    fn attach_budget(&mut self, budget: &std::sync::Arc<lsdb_pager::BufferBudget>) {
        self.seg_table_mut().attach_budget(budget);
    }

    /// Budget enforcement hook: shed up to `target_bytes` of cold frames
    /// across this structure's pools, returning the bytes freed. Logical
    /// residency — and therefore every per-query paper counter — is
    /// unaffected. Overridden to cover the index pool too.
    fn shed_cache(&self, target_bytes: u64) -> u64 {
        self.seg_table().shed_cache(target_bytes)
    }

    /// Summed cache accounting across this structure's pools.
    fn cache_stats(&self) -> lsdb_pager::CacheStats {
        self.seg_table().cache_stats()
    }
}
