//! Reproduce **Table 2** — absolute per-query metrics for Charles county.
//!
//! For each of the seven workloads × {PMR, R+, R*}: average disk accesses,
//! segment comparisons, and bounding-box (R-trees) / bounding-bucket (PMR)
//! computations over `--queries` queries (default 1000, as in the paper).
//!
//! With `--threads N` each workload batch is fanned across N worker
//! threads sharing the index; the table is identical at any thread count —
//! only the reported wall time changes.
//!
//! Usage: `cargo run --release -p lsdb-bench --bin table2 -- [--queries N] [--threads N]`

use lsdb_bench::json::{self, QueryRecord};
use lsdb_bench::report::{fmt, render_table};
use lsdb_bench::workloads::{insert_stream, QueryWorkbench, Workload, WorkloadResult};
use lsdb_bench::{build_index, IndexKind, WorkloadConfig};
use lsdb_core::{IndexConfig, LiveIndex};
use std::time::Instant;

fn main() {
    let cfg = IndexConfig::default();
    let wcfg = WorkloadConfig::from_args();
    let map = wcfg.county("Charles");
    println!(
        "Table 2: Charles county ({} segments), {} queries per type, {} thread(s)\n",
        map.len(),
        wcfg.queries,
        wcfg.threads
    );
    let wb = QueryWorkbench::new(&map, wcfg.queries, 0xC4A5);
    // Build the three structures once; queries then share each structure
    // read-only, so the batch parallelizes without changing any counter.
    // Only the query phase is timed — builds are inherently serial.
    let indexes: Vec<_> = IndexKind::paper_three()
        .iter()
        .map(|&kind| build_index(kind, &map, cfg))
        .collect();
    // Every counter is deterministic, so repetition only serves the wall
    // clocks: each row's wall is the minimum over `WALL_REPS` runs, the
    // standard way to strip scheduler noise from a shared host. Counters
    // come from the first run (the guard asserts they never vary).
    const WALL_REPS: usize = 3;
    let start = Instant::now();
    let mut results = Vec::new();
    let mut walls_ms = Vec::new();
    for idx in &indexes {
        let mut per = Vec::new();
        let mut wall = Vec::new();
        for &w in Workload::ALL.iter() {
            let mut best = f64::INFINITY;
            for rep in 0..WALL_REPS {
                let t = Instant::now();
                let r = wb.run_threaded(w, idx.as_ref(), wcfg.threads);
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
                if rep == 0 {
                    per.push(r);
                }
            }
            wall.push(best);
        }
        results.push(per);
        walls_ms.push(wall);
    }
    // The set-oriented workloads again as single locality-sorted batches:
    // identical counters (the guard asserts it); Morton neighbours touch
    // the same pages while they are still in the CPU caches.
    const BATCHED: [Workload; 2] = [Workload::Range, Workload::PolygonTwoStage];
    let mut batched_results = Vec::new();
    let mut batched_walls_ms = Vec::new();
    for idx in &indexes {
        let mut per = Vec::new();
        let mut wall = Vec::new();
        for &w in BATCHED.iter() {
            let mut best = f64::INFINITY;
            for rep in 0..WALL_REPS {
                let t = Instant::now();
                let r = wb.run_batched(w, idx.as_ref());
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
                if rep == 0 {
                    per.push(r);
                }
            }
            wall.push(best);
        }
        batched_results.push(per);
        batched_walls_ms.push(wall);
    }
    // Live-mutation rows: each structure fronted by a [`LiveIndex`]
    // over a volatile op log (one in-memory 21-byte record per op; a
    // file-backed store adds one fsync per op, which these rows leave
    // out to time the index maintenance path). The
    // mixed row interleaves the range stream with inserts 90/10 exactly
    // as a read-mostly server workload would; the insert row then times
    // the pure write path on the already-mutated structure. Mutations
    // change the index, so every repetition starts from a freshly built
    // one (its build untimed), and the rows report the minimum over
    // `WALL_REPS` like the read-only rows.
    drop(indexes);
    const MIXED_LABEL: &str = "Range+Insert (90/10)";
    const INSERT_LABEL: &str = "Insert (live)";
    let insert_segs = insert_stream(&map, wcfg.queries.max(9));
    let mut mixed_results = Vec::new();
    let mut mixed_walls_ms = Vec::new();
    let mut insert_results = Vec::new();
    let mut insert_walls_ms = Vec::new();
    let mut build_secs = 0.0;
    for kind in IndexKind::paper_three() {
        let (mut mixed_best, mut insert_best) = (f64::INFINITY, f64::INFINITY);
        for rep in 0..WALL_REPS {
            let t = Instant::now();
            let live = LiveIndex::volatile(build_index(kind, &map, cfg));
            build_secs += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let r = wb.run_mixed_range_insert(&live, &insert_segs);
            mixed_best = mixed_best.min(t.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                mixed_results.push(r);
            }
            let t = Instant::now();
            for seg in &insert_segs {
                live.insert(*seg).expect("volatile insert cannot fail");
            }
            insert_best = insert_best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        mixed_walls_ms.push(mixed_best);
        insert_walls_ms.push(insert_best);
        insert_results.push(WorkloadResult {
            queries: insert_segs.len(),
            ..WorkloadResult::default()
        });
    }
    let query_secs = start.elapsed().as_secs_f64() - build_secs;
    // Paper order: PMR, R+, R*.
    let order = [2usize, 1, 0];
    let names = ["PMR", "R+", "R*"];
    let mut rows = vec![vec![
        "query".to_string(),
        "metric".to_string(),
        names[0].to_string(),
        names[1].to_string(),
        names[2].to_string(),
    ]];
    for (wi, w) in Workload::ALL.iter().enumerate() {
        for (mi, metric) in ["disk accesses", "segment comps", "bbox/node comps"]
            .iter()
            .enumerate()
        {
            let mut row = vec![
                if mi == 0 {
                    w.label().to_string()
                } else {
                    String::new()
                },
                metric.to_string(),
            ];
            for &si in &order {
                let r = &results[si][wi];
                let v = match mi {
                    0 => r.disk_accesses,
                    1 => r.seg_comps,
                    _ => r.bbox_comps,
                };
                row.push(fmt(v));
            }
            rows.push(row);
        }
    }
    println!("{}", render_table(&rows));

    // Context the paper discusses alongside Table 2.
    let avg_poly: Vec<f64> = order.iter().map(|&si| results[si][4].avg_result).collect();
    println!(
        "average polygon size (2-stage): PMR {:.0}, R+ {:.0}, R* {:.0}  (paper: 132 for rural Charles)",
        avg_poly[0], avg_poly[1], avg_poly[2]
    );
    println!(
        "query wall time: {query_secs:.2}s on {} thread(s)",
        wcfg.threads
    );
    for (bi, w) in BATCHED.iter().enumerate() {
        let line: Vec<String> = order
            .iter()
            .enumerate()
            .map(|(oi, &si)| {
                let wi = Workload::ALL.iter().position(|x| x == w).unwrap();
                format!(
                    "{} {:.1} -> {:.1} ms",
                    names[oi], walls_ms[si][wi], batched_walls_ms[si][bi]
                )
            })
            .collect();
        println!(
            "{} wall (singleton -> batched): {}",
            w.label(),
            line.join(", ")
        );
    }
    let live_line: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(oi, &si)| {
            let inserts_per_sec =
                insert_results[si].queries as f64 / (insert_walls_ms[si] / 1e3).max(1e-9);
            format!(
                "{} {:.1} ms mixed, {:.0} inserts/s",
                names[oi], mixed_walls_ms[si], inserts_per_sec
            )
        })
        .collect();
    println!(
        "live mutation ({} inserts): {}",
        insert_segs.len(),
        live_line.join(", ")
    );

    if let Some(path) = &wcfg.json {
        let mut records = Vec::new();
        for &si in &order {
            for (wi, w) in Workload::ALL.iter().enumerate() {
                records.push(QueryRecord {
                    structure: IndexKind::paper_three()[si].label(),
                    workload: w.label(),
                    result: results[si][wi],
                    wall_ms: walls_ms[si][wi],
                });
            }
            for (bi, w) in BATCHED.iter().enumerate() {
                records.push(QueryRecord {
                    structure: IndexKind::paper_three()[si].label(),
                    workload: w.batched_label(),
                    result: batched_results[si][bi],
                    wall_ms: batched_walls_ms[si][bi],
                });
            }
            records.push(QueryRecord {
                structure: IndexKind::paper_three()[si].label(),
                workload: MIXED_LABEL,
                result: mixed_results[si],
                wall_ms: mixed_walls_ms[si],
            });
            records.push(QueryRecord {
                structure: IndexKind::paper_three()[si].label(),
                workload: INSERT_LABEL,
                result: insert_results[si],
                wall_ms: insert_walls_ms[si],
            });
        }
        let doc = json::render_queries(&map.name, map.len(), wcfg.queries, wcfg.threads, &records);
        match json::write_file(path, &doc) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
