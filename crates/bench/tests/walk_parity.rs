//! Walk parity: the polygon walk run inside the traversal engine
//! (`SpatialIndex::enclosing_polygon` on R*, R+, PMR and the grid) must
//! return the same boundary, the same `closed` flag and the same
//! `QueryStats` as the default composition over the trait queries
//! (nearest, one incidence query per boundary vertex, one segment-table
//! fetch per incident segment).
//!
//! The composition is reached through [`Composed`], which forwards every
//! `SpatialIndex` method to the structure except `enclosing_polygon` (and
//! the collectors the trait provides over the streaming queries), so the
//! trait's default runs over the structure's own queries. Every other
//! parity suite calls `queries::enclosing_polygon` on both sides; this
//! test and the counter guard are the ones that compare the engine with
//! something else.

use lsdb_bench::workloads::QueryWorkbench;
use lsdb_bench::{build_index, IndexKind};
use lsdb_core::{
    IndexConfig, LocId, PolygonalMap, QueryCtx, QueryStats, SegId, SegmentTable, SpatialIndex,
};
use lsdb_geom::{Point, Rect, Segment};
use std::sync::Arc;

/// A structure with the default (composed) `enclosing_polygon`.
struct Composed(Box<dyn SpatialIndex>);

impl SpatialIndex for Composed {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn seg_table(&self) -> &SegmentTable {
        self.0.seg_table()
    }
    fn seg_table_mut(&mut self) -> &mut SegmentTable {
        self.0.seg_table_mut()
    }
    fn insert(&mut self, id: SegId) {
        self.0.insert(id)
    }
    fn remove(&mut self, id: SegId) -> bool {
        self.0.remove(id)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn find_incident_visit(&self, p: Point, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        self.0.find_incident_visit(p, ctx, f)
    }
    fn probe_point(&self, p: Point, ctx: &mut QueryCtx) -> LocId {
        self.0.probe_point(p, ctx)
    }
    fn nearest(&self, p: Point, ctx: &mut QueryCtx) -> Option<SegId> {
        self.0.nearest(p, ctx)
    }
    fn nearest_k(&self, p: Point, k: usize, ctx: &mut QueryCtx) -> Vec<SegId> {
        self.0.nearest_k(p, k, ctx)
    }
    fn window_visit(&self, w: Rect, ctx: &mut QueryCtx, f: &mut dyn FnMut(SegId)) {
        self.0.window_visit(w, ctx, f)
    }
    fn stats(&self) -> QueryStats {
        self.0.stats()
    }
    fn reset_stats(&mut self) {
        self.0.reset_stats()
    }
    fn size_bytes(&self) -> u64 {
        self.0.size_bytes()
    }
    fn clear_cache(&mut self) {
        self.0.clear_cache()
    }
    fn attach_budget(&mut self, budget: &Arc<lsdb_pager::BufferBudget>) {
        self.0.attach_budget(budget)
    }
    fn shed_cache(&self, target_bytes: u64) -> u64 {
        self.0.shed_cache(target_bytes)
    }
    fn cache_stats(&self) -> lsdb_pager::CacheStats {
        self.0.cache_stats()
    }
}

fn four_structures() -> [IndexKind; 4] {
    [
        IndexKind::RStar,
        IndexKind::RPlus,
        IndexKind::Pmr,
        IndexKind::Grid(16),
    ]
}

type Walk = Option<(Vec<SegId>, bool)>;

/// One walk both ways on fresh contexts: (engine, composition), each with
/// its counters.
fn both_walks(
    idx: &Composed,
    p: Point,
    max_steps: usize,
) -> ((Walk, QueryStats), (Walk, QueryStats)) {
    let run = |index: &dyn SpatialIndex| {
        let mut ctx = QueryCtx::new();
        let walk = index
            .enclosing_polygon(p, max_steps, &mut ctx)
            .map(|w| (w.boundary, w.closed));
        (walk, ctx.stats())
    };
    (run(idx.0.as_ref()), run(idx))
}

#[test]
fn engine_walk_matches_composition_on_a_generated_county() {
    let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "walk-parity",
        lsdb_tiger::CountyClass::Rural { meander: 6 },
        3000,
        0x5EED,
    ));
    let wb = QueryWorkbench::new(&map, 150, 0x5EED);
    for kind in four_structures() {
        let idx = Composed(build_index(kind, &map, IndexConfig::default()));
        let streams = [
            ("1-stage", &wb.uniform_points),
            ("2-stage", &wb.two_stage_points),
        ];
        for (stream, points) in streams {
            let mut closed = 0;
            for (i, &p) in points.iter().enumerate() {
                let (engine, composed) = both_walks(&idx, p, wb.max_polygon_steps);
                assert_eq!(engine, composed, "{kind:?} {stream} query {i} at {p:?}");
                closed += engine.0.is_some_and(|(_, c)| c) as usize;
            }
            assert!(
                closed > points.len() / 2,
                "{kind:?} {stream}: walks must close"
            );
        }
    }
}

fn seg(ax: i32, ay: i32, bx: i32, by: i32) -> Segment {
    // Shifted into the world: query points must lie inside it, and the
    // outer-face query sits left of the block.
    let o = 100;
    Segment::new(Point::new(ax + o, ay + o), Point::new(bx + o, by + o))
}

/// Two squares sharing a wall, with a dead-end stub off the middle of the
/// shared wall into the left square (the map of `queries.rs`'s tests).
fn two_squares_with_stub() -> PolygonalMap {
    PolygonalMap::new(
        "two-squares",
        vec![
            seg(0, 0, 10, 0),
            seg(10, 0, 20, 0),
            seg(20, 0, 20, 10),
            seg(20, 10, 10, 10),
            seg(10, 10, 0, 10),
            seg(0, 10, 0, 0),
            seg(10, 0, 10, 5),
            seg(10, 5, 10, 10),
            seg(10, 5, 5, 5),
        ],
    )
}

#[test]
fn engine_walk_matches_composition_on_the_edge_cases() {
    let cases = [
        ("right square", Point::new(115, 105), 100, 5, true),
        (
            "left square with dead-end stub",
            Point::new(101, 105),
            100,
            7,
            true,
        ),
        ("outer face", Point::new(95, 105), 100, 6, true),
        ("step limit", Point::new(115, 105), 2, 3, false),
    ];
    let map = two_squares_with_stub();
    for kind in four_structures() {
        let idx = Composed(build_index(kind, &map, IndexConfig::default()));
        for (case, p, max_steps, len, closed) in cases {
            let (engine, composed) = both_walks(&idx, p, max_steps);
            assert_eq!(engine, composed, "{kind:?} {case}");
            let (boundary, c) = engine.0.expect("non-empty map");
            assert_eq!((boundary.len(), c), (len, closed), "{kind:?} {case}");
        }
    }
}

#[test]
fn engine_walk_matches_composition_on_an_empty_index() {
    let map = PolygonalMap::new("empty", vec![]);
    for kind in four_structures() {
        let idx = Composed(build_index(kind, &map, IndexConfig::default()));
        let (engine, composed) = both_walks(&idx, Point::new(50, 50), 10);
        assert_eq!(engine, composed, "{kind:?}");
        assert_eq!(engine.0, None, "{kind:?}");
    }
}
