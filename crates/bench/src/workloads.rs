//! The paper's seven query workloads with per-query metric accumulation.
//!
//! "For each query type and map, 1000 tests were performed" — queries 3
//! (nearest line) and 4 (enclosing polygon) run twice, once with 1-stage
//! (uniform) and once with 2-stage (block-correlated) random points, giving
//! seven workloads; query 5 uses windows covering 0.01% of the map area.
//!
//! Queries take `&dyn SpatialIndex` plus a per-query [`QueryCtx`], so a
//! batch can be fanned across threads ([`QueryWorkbench::run_threaded`]):
//! each worker owns one context, every counter is charged there, and the
//! batch totals are a plain sum of per-query values — identical on one
//! thread or sixteen.

use crate::wire::requests_for;
use lsdb_core::pointgen::{EndpointGen, TwoStageGen, UniformGen, WindowGen};
use lsdb_core::{queries, PolygonalMap, QueryCtx, QueryStats, SpatialIndex};
use lsdb_geom::Rect;
use lsdb_pmr::{PmrConfig, PmrQuadtree};
use lsdb_server::answer_in_morton_order;

/// The seven workloads of the paper's evaluation, in Table 2's order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Point1,
    Point2,
    NearestTwoStage,
    NearestOneStage,
    PolygonTwoStage,
    PolygonOneStage,
    Range,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::Point1,
        Workload::Point2,
        Workload::NearestTwoStage,
        Workload::NearestOneStage,
        Workload::PolygonTwoStage,
        Workload::PolygonOneStage,
        Workload::Range,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Workload::Point1 => "Point1",
            Workload::Point2 => "Point2",
            Workload::NearestTwoStage => "Nearest (2-stage)",
            Workload::NearestOneStage => "Nearest (1-stage)",
            Workload::PolygonTwoStage => "Polygon (2-stage)",
            Workload::PolygonOneStage => "Polygon (1-stage)",
            Workload::Range => "Range",
        }
    }

    /// Label for the locality-sorted batched execution of this workload
    /// (the `BENCH_queries.json` row name).
    pub fn batched_label(self) -> &'static str {
        match self {
            Workload::Point1 => "Point1 (batched)",
            Workload::Point2 => "Point2 (batched)",
            Workload::NearestTwoStage => "Nearest (2-stage, batched)",
            Workload::NearestOneStage => "Nearest (1-stage, batched)",
            Workload::PolygonTwoStage => "Polygon (2-stage, batched)",
            Workload::PolygonOneStage => "Polygon (1-stage, batched)",
            Workload::Range => "Range (batched)",
        }
    }
}

/// Average per-query metrics for one workload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub queries: usize,
    pub disk_accesses: f64,
    pub seg_comps: f64,
    pub bbox_comps: f64,
    /// Auxiliary: average result size (incident counts, window hits, or
    /// polygon boundary length).
    pub avg_result: f64,
}

/// Run every item of a query stream, one fresh [`QueryCtx`] per query,
/// summing result sizes and per-query stats. With `threads > 1` the stream
/// is split into contiguous chunks, one scoped worker per chunk; partial
/// sums are merged in chunk order, so the totals (and therefore the
/// averages) are exactly the sequential ones.
fn drive<T: Sync>(
    items: &[T],
    threads: usize,
    run_one: &(dyn Fn(&T, &mut QueryCtx) -> usize + Sync),
) -> (usize, QueryStats) {
    let run_chunk = |chunk: &[T]| {
        let mut ctx = QueryCtx::new();
        let mut stats = QueryStats::default();
        let mut size = 0usize;
        for item in chunk {
            ctx.reset();
            size += run_one(item, &mut ctx);
            stats.add(ctx.stats());
        }
        (size, stats)
    };
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return run_chunk(items);
    }
    let chunk_len = items.len().div_ceil(threads);
    let run_chunk = &run_chunk;
    let partials: Vec<(usize, QueryStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || run_chunk(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload worker"))
            .collect()
    });
    let mut size = 0usize;
    let mut stats = QueryStats::default();
    for (s, st) in partials {
        size += s;
        stats.add(st);
    }
    (size, stats)
}

/// Everything needed to drive the seven workloads reproducibly against any
/// number of structures: the shared query streams.
pub struct QueryWorkbench {
    /// (segment, endpoint) pairs for Point1/Point2.
    pub endpoints: Vec<(lsdb_core::SegId, lsdb_geom::Point)>,
    /// 1-stage (uniform) points.
    pub uniform_points: Vec<lsdb_geom::Point>,
    /// 2-stage (block-correlated) points.
    pub two_stage_points: Vec<lsdb_geom::Point>,
    /// Range-query windows (0.01% of the area).
    pub windows: Vec<Rect>,
    /// Step cap for polygon walks (outer faces can be long).
    pub max_polygon_steps: usize,
}

impl QueryWorkbench {
    /// Build the query streams for `map`. The 2-stage stream follows the
    /// paper: PMR-quadtree leaf blocks chosen uniformly *by count*, then a
    /// uniform point inside the block. A throwaway PMR quadtree over the
    /// map supplies the block list regardless of the structure under test.
    pub fn new(map: &PolygonalMap, n: usize, seed: u64) -> Self {
        let mut pmr = PmrQuadtree::build(map, PmrConfig::default());
        let blocks: Vec<Rect> = pmr.leaf_blocks().iter().map(|b| b.rect()).collect();
        let mut endpoint_gen = EndpointGen::new(map, seed ^ 0x1111);
        let mut uni = UniformGen::new(seed ^ 0x2222);
        let mut two = TwoStageGen::new(blocks, seed ^ 0x3333);
        let mut win = WindowGen::new(0.0001, seed ^ 0x4444);
        QueryWorkbench {
            endpoints: (0..n).map(|_| endpoint_gen.next_endpoint()).collect(),
            uniform_points: (0..n).map(|_| uni.next_point()).collect(),
            two_stage_points: (0..n).map(|_| two.next_point()).collect(),
            windows: (0..n).map(|_| win.next_window()).collect(),
            max_polygon_steps: (map.len() * 2).clamp(1000, 6000),
        }
    }

    /// Run one workload against a shared `index`, returning averaged
    /// metrics. Equivalent to [`QueryWorkbench::run_threaded`] with one
    /// thread.
    pub fn run(&self, workload: Workload, index: &dyn SpatialIndex) -> WorkloadResult {
        self.run_threaded(workload, index, 1)
    }

    /// Run one workload against a shared `index`, fanning the query stream
    /// over `threads` scoped workers. Answers and counters are exactly
    /// those of the sequential run: the read path never alters buffer-pool
    /// residency, so every per-query metric is a pure function of the
    /// query and the structure, not of the interleaving.
    pub fn run_threaded(
        &self,
        workload: Workload,
        index: &dyn SpatialIndex,
        threads: usize,
    ) -> WorkloadResult {
        let steps = self.max_polygon_steps;
        let (result_size, stats) = match workload {
            Workload::Point1 => drive(&self.endpoints, threads, &|&(_, p), ctx| {
                index.find_incident(p, ctx).len()
            }),
            Workload::Point2 => drive(&self.endpoints, threads, &|&(id, p), ctx| {
                queries::second_endpoint(index, id, p, ctx).len()
            }),
            Workload::NearestTwoStage => drive(&self.two_stage_points, threads, &|&p, ctx| {
                index.nearest(p, ctx).is_some() as usize
            }),
            Workload::NearestOneStage => drive(&self.uniform_points, threads, &|&p, ctx| {
                index.nearest(p, ctx).is_some() as usize
            }),
            Workload::PolygonTwoStage => drive(&self.two_stage_points, threads, &|&p, ctx| {
                queries::enclosing_polygon(index, p, steps, ctx).map_or(0, |w| w.len())
            }),
            Workload::PolygonOneStage => drive(&self.uniform_points, threads, &|&p, ctx| {
                queries::enclosing_polygon(index, p, steps, ctx).map_or(0, |w| w.len())
            }),
            Workload::Range => drive(&self.windows, threads, &|&w, ctx| {
                index.window(w, ctx).len()
            }),
        };
        let n = match workload {
            Workload::Point1 | Workload::Point2 => self.endpoints.len(),
            Workload::NearestTwoStage | Workload::PolygonTwoStage => self.two_stage_points.len(),
            Workload::NearestOneStage | Workload::PolygonOneStage => self.uniform_points.len(),
            Workload::Range => self.windows.len(),
        };
        let nf = n as f64;
        WorkloadResult {
            queries: n,
            disk_accesses: stats.disk.total() as f64 / nf,
            seg_comps: stats.seg_comps as f64 / nf,
            bbox_comps: stats.bbox_comps as f64 / nf,
            avg_result: result_size as f64 / nf,
        }
    }

    /// Run one workload as a single locality-sorted batch: its
    /// [`requests_for`] stream answered through the server's dispatch in
    /// Morton order of query point ([`lsdb_server::answer_in_morton_order`]),
    /// the context reset per item. The averages are exactly those of
    /// [`QueryWorkbench::run`] — batching is counter-transparent by
    /// construction (and by the counter guard) — only wall time differs.
    pub fn run_batched(&self, workload: Workload, index: &dyn SpatialIndex) -> WorkloadResult {
        let requests = requests_for(self, workload);
        let mut stats = QueryStats::default();
        let mut result_size = 0usize;
        let all = 0..requests.len();
        answer_in_morton_order(index, &requests, all, &mut QueryCtx::new(), |_, reply| {
            stats.add(reply.stats().expect("workload queries are answered"));
            result_size += reply.result_size();
        });
        let n = requests.len();
        let nf = n as f64;
        WorkloadResult {
            queries: n,
            disk_accesses: stats.disk.total() as f64 / nf,
            seg_comps: stats.seg_comps as f64 / nf,
            bbox_comps: stats.bbox_comps as f64 / nf,
            avg_result: result_size as f64 / nf,
        }
    }

    /// Mixed live workload: the range stream with one `INSERT` folded in
    /// after every ninth query (≈ 90% reads / 10% writes of the total op
    /// count). Queries run through the live index's read path, inserts
    /// through its durable write path, exactly as the server interleaves
    /// them. The averages cover the **queries only** — mutations are not
    /// spatial queries and are excluded from the paper counters, matching
    /// the server's `STATS` semantics.
    pub fn run_mixed_range_insert(
        &self,
        live: &lsdb_core::LiveIndex,
        inserts: &[lsdb_geom::Segment],
    ) -> WorkloadResult {
        let mut ctx = QueryCtx::new();
        let mut stats = QueryStats::default();
        let mut result_size = 0usize;
        let mut next_insert = inserts.iter().cycle();
        for (i, &w) in self.windows.iter().enumerate() {
            ctx.reset();
            result_size += live.with_read(|index| index.window(w, &mut ctx)).len();
            stats.add(ctx.stats());
            if i % 9 == 8 {
                live.insert(*next_insert.next().expect("non-empty insert stream"))
                    .expect("volatile insert cannot fail");
            }
        }
        let nf = self.windows.len() as f64;
        WorkloadResult {
            queries: self.windows.len(),
            disk_accesses: stats.disk.total() as f64 / nf,
            seg_comps: stats.seg_comps as f64 / nf,
            bbox_comps: stats.bbox_comps as f64 / nf,
            avg_result: result_size as f64 / nf,
        }
    }
}

/// A deterministic stream of `n` *fresh* segments for live-insert
/// workloads: the map's own segments displaced by a small per-index
/// jitter (clamped to the world), so inserts land in the same localities
/// the map populates without duplicating any geometry exactly.
pub fn insert_stream(map: &PolygonalMap, n: usize) -> Vec<lsdb_geom::Segment> {
    use lsdb_geom::{Point, Segment, WORLD_SIZE};
    let clamp = |v: i32| v.clamp(0, WORLD_SIZE - 1);
    (0..n)
        .map(|i| {
            let s = &map.segments[i % map.len()];
            let dx = (i % 13) as i32 - 6;
            let dy = (i % 11) as i32 - 5;
            Segment {
                a: Point::new(clamp(s.a.x + dx), clamp(s.a.y + dy)),
                b: Point::new(clamp(s.b.x + dx), clamp(s.b.y + dy)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_core::IndexConfig;

    fn tiny_map() -> PolygonalMap {
        lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
            "wb-test",
            lsdb_tiger::CountyClass::Suburban,
            800,
            17,
        ))
    }

    #[test]
    fn workbench_is_deterministic() {
        let map = tiny_map();
        let a = QueryWorkbench::new(&map, 50, 1);
        let b = QueryWorkbench::new(&map, 50, 1);
        assert_eq!(a.endpoints, b.endpoints);
        assert_eq!(a.uniform_points, b.uniform_points);
        assert_eq!(a.two_stage_points, b.two_stage_points);
        assert_eq!(a.windows, b.windows);
    }

    #[test]
    fn all_workloads_run_on_all_structures() {
        let map = tiny_map();
        let wb = QueryWorkbench::new(&map, 20, 2);
        for kind in crate::IndexKind::paper_three() {
            let idx = crate::build_index(kind, &map, IndexConfig::default());
            for w in Workload::ALL {
                let r = wb.run(w, idx.as_ref());
                assert_eq!(r.queries, 20, "{kind:?} {w:?}");
                assert!(r.seg_comps >= 0.0);
            }
        }
    }

    #[test]
    fn threaded_runs_reproduce_sequential_averages() {
        let map = tiny_map();
        let wb = QueryWorkbench::new(&map, 30, 9);
        for kind in crate::IndexKind::paper_three() {
            let idx = crate::build_index(kind, &map, IndexConfig::default());
            for w in Workload::ALL {
                let seq = wb.run(w, idx.as_ref());
                for threads in [2usize, 3, 8] {
                    let par = wb.run_threaded(w, idx.as_ref(), threads);
                    assert_eq!(seq, par, "{kind:?} {w:?} x{threads}");
                }
            }
        }
    }

    #[test]
    fn batched_runs_reproduce_sequential_averages() {
        // Morton-sorted batch execution must be invisible in every
        // reported metric, for every workload, on every structure kind —
        // including the grid, whose cells alias pages very differently
        // from the trees.
        let map = tiny_map();
        let wb = QueryWorkbench::new(&map, 25, 11);
        let kinds = [
            crate::IndexKind::Pmr,
            crate::IndexKind::RPlus,
            crate::IndexKind::RStar,
            crate::IndexKind::Grid(16),
        ];
        for kind in kinds {
            let idx = crate::build_index(kind, &map, IndexConfig::default());
            for w in Workload::ALL {
                let seq = wb.run(w, idx.as_ref());
                let bat = wb.run_batched(w, idx.as_ref());
                assert_eq!(seq, bat, "{kind:?} {w:?}");
                assert_eq!(requests_for(&wb, w).len(), seq.queries, "{kind:?} {w:?}");
            }
        }
    }

    #[test]
    fn oversized_thread_counts_are_clamped() {
        let map = tiny_map();
        let wb = QueryWorkbench::new(&map, 3, 4);
        let idx = crate::build_index(crate::IndexKind::Pmr, &map, IndexConfig::default());
        let seq = wb.run(Workload::Point1, idx.as_ref());
        // More threads than queries (and thread count 0) both degrade
        // gracefully.
        assert_eq!(seq, wb.run_threaded(Workload::Point1, idx.as_ref(), 64));
        assert_eq!(seq, wb.run_threaded(Workload::Point1, idx.as_ref(), 0));
    }

    #[test]
    fn identical_streams_give_identical_answers_across_structures() {
        // The three structures must agree on every query result (the
        // metrics differ; the answers must not).
        let map = tiny_map();
        let wb = QueryWorkbench::new(&map, 30, 3);
        let cfg = IndexConfig::default();
        let indexes: Vec<_> = crate::IndexKind::paper_three()
            .iter()
            .map(|&k| crate::build_index(k, &map, cfg))
            .collect();
        // A context's touched pages are only meaningful against one
        // index's pools, so each (query, index) pair gets a fresh one —
        // exactly what `drive` does per query.
        for &(_, p) in &wb.endpoints {
            let mut answers: Vec<Vec<lsdb_core::SegId>> = indexes
                .iter()
                .map(|i| lsdb_core::brute::sorted(i.find_incident(p, &mut QueryCtx::new())))
                .collect();
            answers.dedup();
            assert_eq!(answers.len(), 1, "incident answers diverge at {p:?}");
        }
        for &w in &wb.windows {
            let mut answers: Vec<Vec<lsdb_core::SegId>> = indexes
                .iter()
                .map(|i| lsdb_core::brute::sorted(i.window(w, &mut QueryCtx::new())))
                .collect();
            answers.dedup();
            assert_eq!(answers.len(), 1, "window answers diverge at {w:?}");
        }
        for &p in wb.two_stage_points.iter().chain(&wb.uniform_points) {
            let dists: Vec<_> = indexes
                .iter()
                .map(|i| {
                    let id = i.nearest(p, &mut QueryCtx::new()).unwrap();
                    map.segments[id.index()].dist2_point(p)
                })
                .collect();
            assert!(
                dists.windows(2).all(|d| d[0] == d[1]),
                "NN distance diverges at {p:?}"
            );
        }
    }
}
