//! Wall-clock micro-benchmarks over the three structures (plus baselines),
//! on a plain self-contained harness (no external bench framework).
//!
//! These are timing companions to the experiment binaries (which report
//! the paper's disk-access metrics), on reduced maps so `cargo bench`
//! completes quickly. Build, page/buffer and PMR-threshold timings are
//! not repeated here: `table1`, `fig6` and `occupancy` run those
//! pipelines and report their walls.
//!
//! * `query/*`          — Table 2's workloads (point, nearest, window, polygon)
//!   per structure
//! * `parallel/*`       — the shared-read driver at 1/2/4 threads

use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, IndexKind};
use lsdb_core::{queries, IndexConfig, PolygonalMap, QueryCtx};
use lsdb_tiger::{generate, CountyClass, CountySpec};
use std::hint::black_box;
use std::time::Instant;

/// Time `f` over `iters` iterations (after one warm-up call) and print a
/// criterion-style line.
fn bench<R>(group: &str, name: &str, iters: u32, mut f: impl FnMut() -> R) {
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    let (value, unit) = if per_iter >= 1.0 {
        (per_iter, "s ")
    } else if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else {
        (per_iter * 1e6, "µs")
    };
    println!("{group:<14} {name:<28} {value:>10.2} {unit}/iter  ({iters} iters)");
}

fn bench_map(class: CountyClass, target: usize, seed: u64) -> PolygonalMap {
    generate(&CountySpec::new("bench", class, target, seed))
}

fn kinds() -> Vec<IndexKind> {
    vec![
        IndexKind::RStar,
        IndexKind::RPlus,
        IndexKind::Pmr,
        IndexKind::RQuadratic,
        IndexKind::Grid(32),
    ]
}

fn bench_queries() {
    let cfg = IndexConfig::default();
    let map = bench_map(CountyClass::Suburban, 3000, 7);
    let wb = QueryWorkbench::new(&map, 64, 11);
    for kind in kinds() {
        let idx = build_index(kind, &map, cfg);
        let group = format!("query/{}", kind.label());
        let mut ctx = QueryCtx::new();
        let mut i = 0usize;
        bench(&group, "incident", 2000, || {
            let (_, p) = wb.endpoints[i % wb.endpoints.len()];
            i += 1;
            ctx.reset();
            idx.find_incident(p, &mut ctx)
        });
        let mut i = 0usize;
        bench(&group, "nearest", 2000, || {
            let p = wb.two_stage_points[i % wb.two_stage_points.len()];
            i += 1;
            ctx.reset();
            idx.nearest(p, &mut ctx)
        });
        let mut i = 0usize;
        bench(&group, "window", 2000, || {
            let w = wb.windows[i % wb.windows.len()];
            i += 1;
            ctx.reset();
            idx.window(w, &mut ctx)
        });
        let mut i = 0usize;
        bench(&group, "polygon", 200, || {
            let p = wb.two_stage_points[i % wb.two_stage_points.len()];
            i += 1;
            ctx.reset();
            queries::enclosing_polygon(idx.as_ref(), p, 10_000, &mut ctx)
        });
    }
}

fn bench_parallel() {
    // The shared-read driver on Table 2's heaviest workloads: the same
    // counters come out at every thread count, only the wall time moves.
    let cfg = IndexConfig::default();
    let map = bench_map(CountyClass::Rural { meander: 24 }, 4000, 9);
    let wb = QueryWorkbench::new(&map, 256, 13);
    for kind in IndexKind::paper_three() {
        let idx = build_index(kind, &map, cfg);
        for threads in [1usize, 2, 4] {
            bench(
                "parallel",
                &format!("{}/polygon2/{threads}t", kind.label()),
                3,
                || wb.run_threaded(Workload::PolygonTwoStage, idx.as_ref(), threads),
            );
        }
    }
}

fn main() {
    // `cargo bench` passes a `--bench` flag to harness = false targets;
    // the first non-flag argument (if any) filters the groups.
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_default();
    let run = |name: &str| filter.is_empty() || name.contains(&filter);
    if run("query") {
        bench_queries();
    }
    if run("parallel") {
        bench_parallel();
    }
}
