//! Counter-regression guard: the paper's Table 2 metrics are part of the
//! repo's contract, so the per-query averages for every structure ×
//! workload must match the values baked below **exactly** — they were
//! recorded from the pre-kernel per-entry query path, and every later
//! query-path optimization (zero-copy node scans, batched rectangle
//! kernels, the per-context segment mini-cache, borrowed page bytes)
//! is required to be counter-transparent.
//!
//! The full benchmark averages 1000 queries; this guard runs the same
//! deterministic query streams truncated to 50 per workload (the streams
//! are prefix-stable, so a 50-query average is itself reproducible) to
//! stay fast enough for CI. Wall time is deliberately not checked — it is
//! the one field allowed to change.

use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, IndexKind, WorkloadConfig};
use lsdb_core::IndexConfig;

const QUERIES: usize = 50;

/// `(structure, workload, disk_accesses, seg_comps, bbox_comps,
/// avg_result)` — per-query averages over the first 50 queries of the
/// Charles county streams (seed 0xC4A5), recorded from the pre-kernel
/// per-entry scan loops.
const EXPECTED: [(&str, &str, f64, f64, f64, f64); 21] = [
    ("PMR", "Point1", 2.04, 3.34, 1.0, 2.0),
    ("PMR", "Point2", 2.16, 4.56, 2.0, 2.08),
    ("PMR", "Nearest (2-stage)", 3.1, 9.86, 4.58, 1.0),
    ("PMR", "Nearest (1-stage)", 3.1, 8.6, 5.08, 1.0),
    ("PMR", "Polygon (2-stage)", 18.58, 1278.26, 233.28, 228.7),
    ("PMR", "Polygon (1-stage)", 27.08, 1975.82, 358.96, 353.88),
    ("PMR", "Range", 3.98, 15.34, 10.62, 7.5),
    ("R+", "Point1", 2.56, 2.0, 101.44, 2.0),
    ("R+", "Point2", 2.74, 3.08, 200.18, 2.08),
    ("R+", "Nearest (2-stage)", 3.24, 46.78, 121.16, 1.0),
    ("R+", "Nearest (1-stage)", 3.54, 55.62, 120.98, 1.0),
    ("R+", "Polygon (2-stage)", 20.96, 987.04, 22105.52, 228.7),
    ("R+", "Polygon (1-stage)", 30.58, 1505.24, 33615.06, 353.88),
    ("R+", "Range", 4.16, 7.58, 149.88, 7.5),
    ("R*", "Point1", 2.7, 2.0, 104.98, 2.0),
    ("R*", "Point2", 2.84, 3.08, 208.54, 2.08),
    ("R*", "Nearest (2-stage)", 2.98, 49.58, 115.32, 1.0),
    ("R*", "Nearest (1-stage)", 3.04, 50.24, 119.16, 1.0),
    ("R*", "Polygon (2-stage)", 16.08, 989.84, 22835.8, 228.7),
    ("R*", "Polygon (1-stage)", 22.92, 1499.86, 34937.7, 353.88),
    ("R*", "Range", 2.98, 7.58, 121.42, 7.5),
];

#[test]
fn table2_counters_match_pre_kernel_baseline() {
    let measured = measure(|wb, w, idx| wb.run(w, idx));
    assert_against_baseline(&measured, "sequential");
}

/// The same grid executed as locality-sorted batches
/// ([`QueryWorkbench::run_batched`]): Morton-ordered execution must
/// reproduce the pre-kernel baseline **exactly** — the batch engine
/// resets the context per item, so the execution order is not allowed
/// to show up in any counter.
#[test]
fn table2_counters_match_baseline_under_batched_execution() {
    let measured = measure(|wb, w, idx| wb.run_batched(w, idx));
    assert_against_baseline(&measured, "batched");
}

type Measurement = (String, &'static str, f64, f64, f64, f64);

fn measure(
    run: impl Fn(
        &QueryWorkbench,
        Workload,
        &dyn lsdb_core::SpatialIndex,
    ) -> lsdb_bench::workloads::WorkloadResult,
) -> Vec<Measurement> {
    let cfg = IndexConfig::default();
    let wcfg = WorkloadConfig {
        queries: QUERIES,
        ..Default::default()
    };
    let map = wcfg.county("Charles");
    let wb = QueryWorkbench::new(&map, QUERIES, 0xC4A5);

    let mut measured = Vec::new();
    for kind in IndexKind::paper_three() {
        let idx = build_index(kind, &map, cfg);
        for &w in Workload::ALL.iter() {
            let r = run(&wb, w, idx.as_ref());
            assert_eq!(r.queries, QUERIES);
            measured.push((
                kind.label(),
                w.label(),
                r.disk_accesses,
                r.seg_comps,
                r.bbox_comps,
                r.avg_result,
            ));
        }
    }
    measured
}

fn assert_against_baseline(measured: &[Measurement], mode: &str) {
    let mut failures = Vec::new();
    for &(structure, workload, disk, seg, bbox, avg) in &EXPECTED {
        let got = measured
            .iter()
            .find(|m| m.0 == structure && m.1 == workload)
            .unwrap_or_else(|| panic!("missing measurement for {structure} / {workload}"));
        for (metric, want, have) in [
            ("disk_accesses", disk, got.2),
            ("seg_comps", seg, got.3),
            ("bbox_comps", bbox, got.4),
            ("avg_result", avg, got.5),
        ] {
            if want != have {
                failures.push(format!(
                    "{structure} / {workload}: {metric} {have} != {want}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "paper counters ({mode}) drifted from the baked baseline:\n  {}",
        failures.join("\n  ")
    );
    assert_eq!(measured.len(), EXPECTED.len(), "workload grid changed size");
}
