//! Locality-sorted batch execution of homogeneous query vectors.
//!
//! A batch is one vector of same-typed queries executed back-to-back
//! against one structure by one [`QueryCtx`]. Before execution the batch
//! is sorted by the Morton (Z-order) key of each query's point, so
//! queries landing in the same region of the world run consecutively and
//! touch the same pages while they are still in the CPU caches. The
//! context is [`QueryCtx::reset`] before every item, so **each item's
//! [`QueryStats`] is byte-identical to executing it alone** (asserted by
//! the bench crate's counter guard). Results are returned in the original
//! submission order.

use crate::{queries, QueryCtx, QueryStats, SegId, SpatialIndex};
use lsdb_geom::{morton, Point, Rect};

/// A homogeneous vector of queries, executed as one unit by
/// [`execute_batch`]. Variants mirror the singleton wire requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchRequest {
    /// Query 1 per point: all segments incident at the point.
    Incident(Vec<Point>),
    /// Query 2 per `(id, at)` pair: segments at the other endpoint.
    Second(Vec<(SegId, Point)>),
    /// Query 3 per point: the nearest segment.
    Nearest(Vec<Point>),
    /// Ranked query 3 per `(at, k)` pair.
    Knn(Vec<(Point, u32)>),
    /// Query 5 per rectangle.
    Window(Vec<Rect>),
    /// Query 4 per point, all sharing one step cap.
    Polygon { points: Vec<Point>, max_steps: u32 },
}

impl BatchRequest {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        match self {
            BatchRequest::Incident(v) => v.len(),
            BatchRequest::Second(v) => v.len(),
            BatchRequest::Nearest(v) => v.len(),
            BatchRequest::Knn(v) => v.len(),
            BatchRequest::Window(v) => v.len(),
            BatchRequest::Polygon { points, .. } => points.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The largest segment id the batch references, if any (`Second`
    /// batches only) — what a server validates against the map before
    /// executing.
    pub fn max_seg_id(&self) -> Option<SegId> {
        match self {
            BatchRequest::Second(v) => v.iter().map(|&(id, _)| id).max(),
            _ => None,
        }
    }

    /// The singleton request equivalent to item `i` — the definition of
    /// what a batch item *means* (parity tests execute these).
    fn query_point(&self, i: usize) -> Point {
        match self {
            BatchRequest::Incident(v) => v[i],
            BatchRequest::Second(v) => v[i].1,
            BatchRequest::Nearest(v) => v[i],
            BatchRequest::Knn(v) => v[i].0,
            // A window's locality is its center.
            BatchRequest::Window(v) => v[i].center(),
            BatchRequest::Polygon { points, .. } => points[i],
        }
    }
}

/// One batch item's answer, mirroring the singleton reply shapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchAnswer {
    /// Incident / second / knn / window: a segment-id set.
    Segs(Vec<SegId>),
    /// Nearest: the closest segment, `None` only for an empty index.
    Nearest(Option<SegId>),
    /// Polygon: boundary walk plus the closed flag, `None` for an empty
    /// index.
    Polygon(Option<(Vec<SegId>, bool)>),
}

impl BatchAnswer {
    /// Result cardinality (segments returned / boundary steps).
    pub fn result_size(&self) -> usize {
        match self {
            BatchAnswer::Segs(ids) => ids.len(),
            BatchAnswer::Nearest(id) => id.is_some() as usize,
            BatchAnswer::Polygon(walk) => walk.as_ref().map_or(0, |(b, _)| b.len()),
        }
    }
}

/// One executed batch item: the answer plus the per-query counter
/// snapshot (byte-identical to singleton execution).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchItem {
    pub answer: BatchAnswer,
    pub stats: QueryStats,
}

/// Morton key of a query point, clamped into the 16-bit-per-axis domain
/// [`morton::interleave`] accepts (the world is 14 levels deep, so all
/// in-world points pass through unclamped).
fn morton_key(p: Point) -> u32 {
    morton::interleave(p.x.clamp(0, 0xFFFF) as u32, p.y.clamp(0, 0xFFFF) as u32)
}

/// Execute every query of `req` against `index`, in Morton order of query
/// point, returning per-item answers and counters in the original
/// submission order.
///
/// The context is [`QueryCtx::reset`] before each item, so every counter
/// is charged per item exactly as a singleton query charges it.
pub fn execute_batch(
    index: &dyn SpatialIndex,
    req: &BatchRequest,
    ctx: &mut QueryCtx,
) -> Vec<BatchItem> {
    let n = req.len();
    // Stable order: ties broken by submission index, so execution order —
    // and therefore nothing at all, per the counter invariant — depends
    // only on the batch contents.
    let mut order: Vec<(u32, u32)> = (0..n)
        .map(|i| (morton_key(req.query_point(i)), i as u32))
        .collect();
    order.sort_unstable();

    let mut out: Vec<Option<BatchItem>> = (0..n).map(|_| None).collect();
    for &(_, i) in &order {
        ctx.reset();
        let i = i as usize;
        let answer = match req {
            BatchRequest::Incident(v) => BatchAnswer::Segs(index.find_incident(v[i], ctx)),
            BatchRequest::Second(v) => {
                let (id, at) = v[i];
                BatchAnswer::Segs(queries::second_endpoint(index, id, at, ctx))
            }
            BatchRequest::Nearest(v) => BatchAnswer::Nearest(index.nearest(v[i], ctx)),
            BatchRequest::Knn(v) => {
                let (at, k) = v[i];
                BatchAnswer::Segs(index.nearest_k(at, k as usize, ctx))
            }
            BatchRequest::Window(v) => BatchAnswer::Segs(index.window(v[i], ctx)),
            BatchRequest::Polygon { points, max_steps } => {
                let walk = queries::enclosing_polygon(index, points[i], *max_steps as usize, ctx);
                BatchAnswer::Polygon(walk.map(|w| (w.boundary, w.closed)))
            }
        };
        out[i] = Some(BatchItem {
            answer,
            stats: ctx.stats(),
        });
    }
    out.into_iter()
        .map(|o| o.expect("every submission index executed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_key_orders_neighbors_together() {
        // Points in the same quadrant sort adjacent to each other, ahead
        // of a far-away point that is closer in submission order.
        let near_a = morton_key(Point::new(10, 10));
        let near_b = morton_key(Point::new(11, 10));
        let far = morton_key(Point::new(9000, 9000));
        assert!(near_a < far && near_b < far);
        assert!(near_a.abs_diff(near_b) < near_a.abs_diff(far));
    }

    #[test]
    fn morton_key_clamps_out_of_world_points() {
        // Must not trip interleave's 16-bit debug assertion.
        let _ = morton_key(Point::new(-5, i32::MAX));
        let _ = morton_key(Point::new(i32::MIN, 70000));
        // A window's centre is taken without overflow at any extent.
        let full = BatchRequest::Window(vec![Rect::new(i32::MIN, i32::MIN, i32::MAX, i32::MAX)]);
        assert_eq!(full.query_point(0), Point::new(-1, -1));
    }

    #[test]
    fn batch_len_and_max_seg_id() {
        let b = BatchRequest::Second(vec![
            (SegId(3), Point::new(0, 0)),
            (SegId(9), Point::new(1, 1)),
            (SegId(4), Point::new(2, 2)),
        ]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.max_seg_id(), Some(SegId(9)));
        let w = BatchRequest::Window(vec![]);
        assert!(w.is_empty());
        assert_eq!(w.max_seg_id(), None);
    }
}
