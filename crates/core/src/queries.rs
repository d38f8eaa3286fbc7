//! Structure-independent implementations of paper queries 2 and 4.
//!
//! * **Query 2** — "given an endpoint of a line segment, find all the line
//!   segments that are incident at the other endpoint of the line segment".
//!   One segment-table access to learn the other endpoint, then a query-1
//!   point search.
//!
//! * **Query 4** — "given a point in the two-dimensional space containing
//!   the line segments, find the minimal enclosing polygon by outputting
//!   its constituent line segments". Executed exactly as the paper
//!   describes: one nearest-line query (query 3) locates a boundary edge of
//!   the polygon, then the boundary is traversed "by repeatedly executing
//!   query 2 and determining the right line segment from the ones that are
//!   returned" — the *right* one being the first in clockwise order from
//!   the reversed incoming direction, which walks the face containing the
//!   query point.
//!
//! Both take `&I` plus a [`QueryCtx`], like the trait queries they are
//! built from, so they run concurrently against a shared index. Query 4
//! runs through [`SpatialIndex::enclosing_polygon`]: the R\*-tree,
//! R+-tree, PMR quadtree and grid run the walk inside the traversal
//! engine ([`crate::traverse::polygon_walk`]), where each step's probe
//! hands the walk the incident records it already fetched; any other
//! index composes the trait queries as described above. Both share one
//! walk loop (`walk_face`), and give the same boundary and counters.

use crate::{QueryCtx, SegId, SpatialIndex};
use lsdb_geom::angle::{first_clockwise_from, Dir};
use lsdb_geom::{orient, Point, Segment};

/// Result of an enclosing-polygon traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolygonWalk {
    /// Boundary edges in traversal order. A segment can appear twice when
    /// the face boundary doubles back over a dead-end road.
    pub boundary: Vec<SegId>,
    /// True if the walk returned to its starting directed edge; false if
    /// it was cut short by the step limit.
    pub closed: bool,
}

impl PolygonWalk {
    /// The polygon's constituent segments, deduplicated, in first-visit
    /// order.
    pub fn distinct_segments(&self) -> Vec<SegId> {
        let mut seen = std::collections::HashSet::new();
        self.boundary
            .iter()
            .copied()
            .filter(|id| seen.insert(*id))
            .collect()
    }

    /// Number of boundary steps (the paper's "polygon size": the average
    /// was 19 in urban Baltimore county and 132 in rural Charles county).
    pub fn len(&self) -> usize {
        self.boundary.len()
    }

    pub fn is_empty(&self) -> bool {
        self.boundary.is_empty()
    }
}

/// Query 2: all segments incident at the other endpoint of `id`, given
/// that `p` is one of its endpoints. The returned set includes `id` itself
/// (it is incident at that endpoint too).
///
/// Following the paper's implementation (its Point2 bounding-box metrics
/// are exactly twice its Point1 metrics, while its segment comparisons are
/// Point1's plus one), the structure is first probed at the *given*
/// endpoint to locate the segment's leaf, the segment record is fetched
/// (one segment comparison), and then the full point search runs at the
/// other endpoint.
pub fn second_endpoint<I: SpatialIndex + ?Sized>(
    index: &I,
    id: SegId,
    p: Point,
    ctx: &mut QueryCtx,
) -> Vec<SegId> {
    index.probe_point(p, ctx);
    let seg = index.seg_table().get(id, ctx);
    let other = seg.other_endpoint(p);
    index.find_incident(other, ctx)
}

/// Query 4: walk the boundary of the face containing `p`.
///
/// Returns `None` if the index is empty. `max_steps` bounds the traversal
/// (the outer face of a 50k-segment map can be long); a typical limit is
/// `4 * n`. Runs [`SpatialIndex::enclosing_polygon`]: the traversal engine
/// for the structures built on it, the composition over the trait queries
/// otherwise — the same walk, the same counters.
pub fn enclosing_polygon<I: SpatialIndex + ?Sized>(
    index: &I,
    p: Point,
    max_steps: usize,
    ctx: &mut QueryCtx,
) -> Option<PolygonWalk> {
    index.enclosing_polygon(p, max_steps, ctx)
}

/// Query 4 composed from the trait queries, the default of
/// [`SpatialIndex::enclosing_polygon`]: the start edge from
/// [`SpatialIndex::nearest`], then per boundary vertex one
/// [`SpatialIndex::find_incident_visit`] and one segment-table fetch per
/// incident segment.
pub(crate) fn compose_enclosing_polygon<I: SpatialIndex + ?Sized>(
    index: &I,
    p: Point,
    max_steps: usize,
    ctx: &mut QueryCtx,
) -> Option<PolygonWalk> {
    let e0 = index.nearest(p, ctx)?;
    let start = (e0, index.seg_table().get(e0, ctx));
    let mut ids = Vec::new();
    walk_face(start, p, max_steps, ctx, |v, ctx, incident| {
        ids.clear();
        index.find_incident_visit(v, ctx, &mut |id| ids.push(id));
        incident.extend(ids.iter().map(|&id| (id, index.seg_table().get(id, ctx))));
    })
}

/// The boundary walk of query 4 from the start edge `start`, nearest to
/// `p`. `incident_at(v, ctx, out)` fills `out` with the records of every
/// segment incident at `v`, charging what reading them costs; the walk
/// picks the clockwise-first one from the reversed incoming direction.
/// Returns `None` if a vertex has no incident segment (an index that lost
/// the current edge).
pub(crate) fn walk_face(
    start: (SegId, Segment),
    p: Point,
    max_steps: usize,
    ctx: &mut QueryCtx,
    mut incident_at: impl FnMut(Point, &mut QueryCtx, &mut Vec<(SegId, Segment)>),
) -> Option<PolygonWalk> {
    let (e0, s0) = start;
    // Walk the face on p's side: orient the starting edge u->v so that p
    // lies to its left. If p is exactly on the segment's supporting line,
    // either face is "the" enclosing polygon; take a->b.
    let (mut u, mut v) = if orient(s0.a, s0.b, p) >= 0 {
        (s0.a, s0.b)
    } else {
        (s0.b, s0.a)
    };
    let start = (u, v);
    let mut walk = PolygonWalk {
        boundary: vec![e0],
        closed: false,
    };
    let mut current = e0;
    // The walk fires one incidence query per boundary vertex — hundreds
    // on rural faces — so the per-step working vectors live outside the
    // loop and are refilled in place.
    let mut incident: Vec<(SegId, Segment)> = Vec::new();
    let mut dirs: Vec<Dir> = Vec::new();
    for _ in 0..max_steps {
        incident.clear();
        incident_at(v, ctx, &mut incident);
        debug_assert!(
            incident.iter().any(|&(id, _)| id == current),
            "index lost the current boundary edge at {v:?}"
        );
        let d_in = Dir::between(v, u);
        dirs.clear();
        dirs.extend(
            incident
                .iter()
                .map(|(_, s)| Dir::between(v, s.other_endpoint(v))),
        );
        let (next_id, next) = incident[first_clockwise_from(d_in, &dirs)?];
        u = v;
        v = next.other_endpoint(u);
        current = next_id;
        if (u, v) == start {
            walk.closed = true;
            break;
        }
        walk.boundary.push(next_id);
    }
    Some(walk)
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end (against real indexes) in each index crate and
    // in the workspace integration tests; the unit tests here use a mock
    // index around the brute-force oracle.
    use super::*;
    use crate::{brute, IndexConfig, PolygonalMap, QueryStats, SegmentTable};
    use lsdb_geom::{Rect, Segment};

    /// A trivial SpatialIndex that answers via the brute-force oracle.
    struct BruteIndex {
        map: PolygonalMap,
        table: SegmentTable,
    }

    impl BruteIndex {
        fn new(map: PolygonalMap) -> Self {
            let cfg = IndexConfig::default();
            let table = SegmentTable::from_map(&map, cfg.page_size, cfg.pool_pages);
            BruteIndex { map, table }
        }
    }

    impl SpatialIndex for BruteIndex {
        fn name(&self) -> &'static str {
            "brute"
        }
        fn seg_table(&self) -> &SegmentTable {
            &self.table
        }
        fn seg_table_mut(&mut self) -> &mut SegmentTable {
            &mut self.table
        }
        fn insert(&mut self, _id: SegId) {}
        fn remove(&mut self, _id: SegId) -> bool {
            false
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn find_incident_visit(&self, p: Point, _ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
            brute::incident(&self.map, p).into_iter().for_each(f);
        }
        fn nearest(&self, p: Point, _ctx: &mut QueryCtx) -> Option<SegId> {
            brute::nearest(&self.map, p).map(|(id, _)| id)
        }
        fn window_visit(&self, w: Rect, _ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
            brute::window(&self.map, w).into_iter().for_each(f);
        }
        fn stats(&self) -> QueryStats {
            QueryStats::default()
        }
        fn reset_stats(&mut self) {}
        fn size_bytes(&self) -> u64 {
            0
        }
        fn clear_cache(&mut self) {}
    }

    fn seg(ax: i32, ay: i32, bx: i32, by: i32) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// A 2×1 block of two squares sharing a wall, with a dead-end stub
    /// hanging off the middle of the shared wall into the left square:
    ///
    /// ```text
    ///   (0,10)---(10,10)---(20,10)
    ///     |         |          |
    ///     |  stub---+          |
    ///     |         |          |
    ///   (0,0)----(10,0)----(20,0)
    /// ```
    fn two_squares_with_stub() -> PolygonalMap {
        PolygonalMap::new(
            "two-squares",
            vec![
                seg(0, 0, 10, 0),    // 0 bottom-left
                seg(10, 0, 20, 0),   // 1 bottom-right
                seg(20, 0, 20, 10),  // 2 right wall
                seg(20, 10, 10, 10), // 3 top-right
                seg(10, 10, 0, 10),  // 4 top-left
                seg(0, 10, 0, 0),    // 5 left wall
                seg(10, 0, 10, 5),   // 6 shared wall, lower half
                seg(10, 5, 10, 10),  // 7 shared wall, upper half
                seg(10, 5, 5, 5),    // 8 dead-end stub into the left square
            ],
        )
    }

    #[test]
    fn second_endpoint_includes_self_and_neighbors() {
        let idx = BruteIndex::new(two_squares_with_stub());
        let mut ctx = QueryCtx::new();
        // Segment 0 from (0,0): other endpoint (10,0) touches 0, 1, 6.
        let got = second_endpoint(&idx, SegId(0), Point::new(0, 0), &mut ctx);
        assert_eq!(brute::sorted(got), vec![SegId(0), SegId(1), SegId(6)]);
        assert_eq!(ctx.seg_comps, 1, "one table fetch for the other endpoint");
    }

    #[test]
    fn polygon_around_point_in_right_square() {
        let idx = BruteIndex::new(two_squares_with_stub());
        let mut ctx = QueryCtx::new();
        let walk = enclosing_polygon(&idx, Point::new(15, 5), 100, &mut ctx).unwrap();
        assert!(walk.closed);
        assert_eq!(
            brute::sorted(walk.distinct_segments()),
            vec![SegId(1), SegId(2), SegId(3), SegId(6), SegId(7)]
        );
        assert_eq!(walk.len(), 5, "the stub is not on the right face");
    }

    #[test]
    fn polygon_around_point_in_left_square_walks_the_stub() {
        let idx = BruteIndex::new(two_squares_with_stub());
        let mut ctx = QueryCtx::new();
        // Query near the left wall: nearest edge is 5; the face boundary
        // includes the dead-end stub, whose segment is traversed twice.
        let walk = enclosing_polygon(&idx, Point::new(1, 5), 100, &mut ctx).unwrap();
        assert!(walk.closed);
        let distinct = brute::sorted(walk.distinct_segments());
        assert_eq!(
            distinct,
            vec![SegId(0), SegId(4), SegId(5), SegId(6), SegId(7), SegId(8)],
            "left square walls + stub"
        );
        let stub_visits = walk.boundary.iter().filter(|&&s| s == SegId(8)).count();
        assert_eq!(stub_visits, 2, "dead-end edge appears twice");
        assert_eq!(walk.len(), 7);
    }

    #[test]
    fn polygon_outside_walks_outer_face() {
        let idx = BruteIndex::new(two_squares_with_stub());
        let mut ctx = QueryCtx::new();
        let walk = enclosing_polygon(&idx, Point::new(-5, 5), 100, &mut ctx).unwrap();
        assert!(walk.closed);
        // Outer face: the outer boundary of the 2x1 block (not the shared
        // wall, not the stub).
        assert_eq!(
            brute::sorted(walk.distinct_segments()),
            vec![SegId(0), SegId(1), SegId(2), SegId(3), SegId(4), SegId(5)]
        );
    }

    #[test]
    fn polygon_respects_step_limit() {
        let idx = BruteIndex::new(two_squares_with_stub());
        let mut ctx = QueryCtx::new();
        let walk = enclosing_polygon(&idx, Point::new(15, 5), 2, &mut ctx).unwrap();
        assert!(!walk.closed);
        assert_eq!(walk.len(), 3, "start edge + 2 steps");
    }

    #[test]
    fn polygon_on_empty_index_is_none() {
        let idx = BruteIndex::new(PolygonalMap::new("empty", vec![]));
        let mut ctx = QueryCtx::new();
        assert!(enclosing_polygon(&idx, Point::new(0, 0), 10, &mut ctx).is_none());
    }

    #[test]
    fn shared_index_serves_parallel_walks() {
        // The same BruteIndex (and its segment table) serves four threads
        // walking the same polygon; each context sees identical counters.
        let idx = BruteIndex::new(two_squares_with_stub());
        let idx = &idx;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        let mut ctx = QueryCtx::new();
                        let walk =
                            enclosing_polygon(idx, Point::new(15, 5), 100, &mut ctx).unwrap();
                        (brute::sorted(walk.distinct_segments()), ctx.stats())
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results {
                assert_eq!(*r, results[0], "identical answers and counters");
            }
        });
    }
}
