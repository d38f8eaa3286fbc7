//! Acceptance check for locality-sorted batch execution: every item of a
//! Morton-sorted batch must be **byte-identical** — answer and per-query
//! counter snapshot alike — to running the same query alone on a fresh
//! context, across all four structure families (PMR quadtree, R+-tree,
//! R*-tree, uniform grid).
//!
//! The window and polygon workloads are checked per item over 1000
//! queries combined (500 each): those are the set-oriented workloads the
//! batch engine exists for, and the ones where state leaking from one
//! item into the next would be most visible.

use lsdb_bench::wire::requests_for;
use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, IndexKind};
use lsdb_core::{queries, IndexConfig, QueryCtx, SpatialIndex};
use lsdb_server::{answer_in_morton_order, Reply, Request};
use std::ops::ControlFlow;

const QUERIES: usize = 500;

fn four_structures() -> [IndexKind; 4] {
    [
        IndexKind::Pmr,
        IndexKind::RPlus,
        IndexKind::RStar,
        IndexKind::Grid(16),
    ]
}

/// The singleton reference, written independently of the server's
/// dispatch: one fresh context per query, exactly what
/// `QueryWorkbench::run` does.
fn singleton(index: &dyn SpatialIndex, req: &Request) -> Reply {
    let mut ctx = QueryCtx::new();
    match *req {
        Request::Incident(p) => Reply::Segs {
            ids: index.find_incident(p, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Second { id, at } => Reply::Segs {
            ids: queries::second_endpoint(index, id, at, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Nearest(p) => Reply::Nearest {
            id: index.nearest(p, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Knn { at, k } => Reply::Segs {
            ids: index.nearest_k(at, k as usize, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Window(w) => Reply::Segs {
            ids: index.window(w, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Polygon { at, max_steps } => Reply::Polygon {
            walk: queries::enclosing_polygon(index, at, max_steps as usize, &mut ctx)
                .map(|walk| (walk.boundary, walk.closed)),
            stats: ctx.stats(),
        },
        ref other => panic!("not a spatial query: {other:?}"),
    }
}

/// Answer `items` as one Morton-sorted batch on one context and check
/// each reply against its singleton reference.
fn assert_batch_matches_singletons(index: &dyn SpatialIndex, items: &[Request], what: &str) {
    let mut replies: Vec<Option<Reply>> = vec![None; items.len()];
    answer_in_morton_order(
        index,
        items,
        0..items.len(),
        &mut QueryCtx::new(),
        |i, reply| {
            assert!(
                replies[i].replace(reply).is_none(),
                "{what}: item {i} twice"
            );
            ControlFlow::Continue(())
        },
    );
    for (i, (item, reply)) in items.iter().zip(replies).enumerate() {
        let reply = reply.unwrap_or_else(|| panic!("{what}: item {i} unanswered"));
        assert_eq!(reply, singleton(index, item), "{what}: item {i} {item:?}");
    }
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
        for w in [Workload::Range, Workload::PolygonTwoStage] {
            let items = requests_for(&wb, w);
            assert_eq!(items.len(), QUERIES, "{kind:?} {w:?}");
            assert_batch_matches_singletons(idx.as_ref(), &items, &format!("{kind:?} {w:?}"));
        }
    }
}

#[test]
fn remaining_batch_shapes_are_byte_identical_to_singletons() {
    // The point and nearest shapes (plus knn, which has no workload) get
    // the same per-item treatment on a smaller stream, each alone and all
    // interleaved in one mixed batch.
    let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "batch-parity-pts",
        lsdb_tiger::CountyClass::Urban,
        900,
        0x5EED,
    ));
    let wb = QueryWorkbench::new(&map, 60, 0x5EED);
    let cfg = IndexConfig::default();
    let knn: Vec<Request> = wb
        .uniform_points
        .iter()
        .map(|&at| Request::Knn { at, k: 3 })
        .collect();
    let shapes = [
        requests_for(&wb, Workload::Point1),
        requests_for(&wb, Workload::Point2),
        requests_for(&wb, Workload::NearestTwoStage),
        knn,
    ];
    let mixed: Vec<Request> = (0..wb.uniform_points.len())
        .flat_map(|i| shapes.iter().map(move |shape| shape[i].clone()))
        .collect();

    for kind in four_structures() {
        let idx = build_index(kind, &map, cfg);
        for (s, items) in shapes.iter().enumerate() {
            assert_batch_matches_singletons(idx.as_ref(), items, &format!("{kind:?} shape {s}"));
        }
        assert_batch_matches_singletons(idx.as_ref(), &mixed, &format!("{kind:?} mixed"));
    }
}
