//! Acceptance check for locality-sorted batch execution: every item of a
//! Morton-sorted batch must be **byte-identical** — answer and per-query
//! counter snapshot alike — to running the same query alone on a freshly
//! reset context, across all four structure families (PMR quadtree,
//! R+-tree, R*-tree, uniform grid).
//!
//! The window and polygon workloads are checked per item over 1000
//! queries combined (500 each): those are the set-oriented workloads the
//! batch engine exists for, and the ones where state leaking from one
//! item into the next would be most visible.

use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, IndexKind};
use lsdb_core::{execute_batch, queries, BatchAnswer, BatchRequest, IndexConfig, QueryCtx};

const QUERIES: usize = 500;

fn four_structures() -> [IndexKind; 4] {
    [
        IndexKind::Pmr,
        IndexKind::RPlus,
        IndexKind::RStar,
        IndexKind::Grid(16),
    ]
}

#[test]
fn window_and_polygon_batches_are_byte_identical_to_singletons() {
    let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "batch-parity",
        lsdb_tiger::CountyClass::Suburban,
        1500,
        0xC4A5,
    ));
    let wb = QueryWorkbench::new(&map, QUERIES, 0xC4A5);
    let cfg = IndexConfig::default();

    for kind in four_structures() {
        let idx = build_index(kind, &map, cfg);
        let index = idx.as_ref();
        for w in [Workload::Range, Workload::PolygonTwoStage] {
            let req = wb.batch(w);
            let mut batch_ctx = QueryCtx::new();
            let items = execute_batch(index, &req, &mut batch_ctx);
            assert_eq!(items.len(), QUERIES, "{kind:?} {w:?}");

            // Singleton reference: one fresh context per query, exactly
            // what `QueryWorkbench::run` does.
            let mut ctx = QueryCtx::new();
            for (i, item) in items.iter().enumerate() {
                ctx.reset();
                let answer = match &req {
                    BatchRequest::Window(v) => BatchAnswer::Segs(index.window(v[i], &mut ctx)),
                    BatchRequest::Polygon { points, max_steps } => BatchAnswer::Polygon(
                        queries::enclosing_polygon(index, points[i], *max_steps as usize, &mut ctx)
                            .map(|walk| (walk.boundary, walk.closed)),
                    ),
                    other => panic!("unexpected batch shape {other:?}"),
                };
                assert_eq!(item.answer, answer, "{kind:?} {w:?} item {i}: answer");
                assert_eq!(item.stats, ctx.stats(), "{kind:?} {w:?} item {i}: counters");
            }
        }
    }
}

#[test]
fn remaining_batch_shapes_are_byte_identical_to_singletons() {
    // The point and nearest shapes (plus knn, which has no workload) get
    // the same per-item treatment on a smaller stream.
    let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "batch-parity-pts",
        lsdb_tiger::CountyClass::Urban,
        900,
        0x5EED,
    ));
    let wb = QueryWorkbench::new(&map, 60, 0x5EED);
    let cfg = IndexConfig::default();

    for kind in four_structures() {
        let idx = build_index(kind, &map, cfg);
        let index = idx.as_ref();
        let knn = BatchRequest::Knn(wb.uniform_points.iter().map(|&p| (p, 3)).collect());
        let shapes = [
            wb.batch(Workload::Point1),
            wb.batch(Workload::Point2),
            wb.batch(Workload::NearestTwoStage),
            knn,
        ];
        for req in shapes {
            let mut batch_ctx = QueryCtx::new();
            let items = execute_batch(index, &req, &mut batch_ctx);
            let mut ctx = QueryCtx::new();
            for (i, item) in items.iter().enumerate() {
                ctx.reset();
                let answer = match &req {
                    BatchRequest::Incident(v) => {
                        BatchAnswer::Segs(index.find_incident(v[i], &mut ctx))
                    }
                    BatchRequest::Second(v) => {
                        let (id, at) = v[i];
                        BatchAnswer::Segs(queries::second_endpoint(index, id, at, &mut ctx))
                    }
                    BatchRequest::Nearest(v) => BatchAnswer::Nearest(index.nearest(v[i], &mut ctx)),
                    BatchRequest::Knn(v) => {
                        let (at, k) = v[i];
                        BatchAnswer::Segs(index.nearest_k(at, k as usize, &mut ctx))
                    }
                    other => panic!("unexpected batch shape {other:?}"),
                };
                assert_eq!(item.answer, answer, "{kind:?} item {i}: answer");
                assert_eq!(item.stats, ctx.stats(), "{kind:?} item {i}: counters");
            }
        }
    }
}
