//! Smoke tests for the experiment harness: every table/figure pipeline
//! runs end-to-end at a reduced scale and its headline *shape* properties
//! hold. (The full-scale numbers live in EXPERIMENTS.md and are produced
//! by the `lsdb-bench` binaries.)

use lsdb::core::IndexConfig;
use lsdb::tiger::{generate, CountyClass, CountySpec};
use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, measure_build, IndexKind};

fn county(target: usize) -> lsdb::core::PolygonalMap {
    generate(&CountySpec::new(
        "smoke",
        CountyClass::Rural { meander: 24 },
        target,
        4242,
    ))
}

#[test]
fn table1_pipeline_shape() {
    let map = county(4000);
    let cfg = IndexConfig::default();
    let reports: Vec<_> = IndexKind::paper_three()
        .iter()
        .map(|&k| measure_build(k, &map, cfg).1)
        .collect();
    let (rstar, rplus, pmr) = (&reports[0], &reports[1], &reports[2]);
    // Sizes: R+ uses more space than R* (paper: +26-43%).
    assert!(
        rplus.size_kbytes > rstar.size_kbytes,
        "R+ {:.0}KB vs R* {:.0}KB",
        rplus.size_kbytes,
        rstar.size_kbytes
    );
    // Build disk activity exists for all: a 16-page pool cannot hold a
    // 4000-segment build, so at minimum every page beyond the pool's 16
    // frames must have been written out (1 KB pages, so size in KB is the
    // page count).
    for r in &reports {
        assert!(
            r.disk_accesses as f64 > r.size_kbytes - 16.0,
            "{:?}: {} accesses for {:.0}KB",
            r.kind,
            r.disk_accesses,
            r.size_kbytes
        );
        assert!(r.cpu_seconds > 0.0);
    }
    let _ = pmr;
}

#[test]
fn fig6_pipeline_shape() {
    let map = county(3000);
    // Disk accesses decrease as the pool grows (fixed page size)...
    let mut prev = u64::MAX;
    for pool in [4usize, 16, 64] {
        let cfg = IndexConfig {
            page_size: 1024,
            pool_pages: pool,
        };
        let (_, rep) = measure_build(IndexKind::Pmr, &map, cfg);
        assert!(
            rep.disk_accesses <= prev,
            "pool {pool}: {} > previous {prev}",
            rep.disk_accesses
        );
        prev = rep.disk_accesses;
    }
    // ... and as the page size grows (fixed pool).
    let mut prev = u64::MAX;
    for page in [512usize, 2048, 8192] {
        let cfg = IndexConfig {
            page_size: page,
            pool_pages: 16,
        };
        let (_, rep) = measure_build(IndexKind::Pmr, &map, cfg);
        assert!(
            rep.disk_accesses <= prev,
            "page {page}: {} > previous {prev}",
            rep.disk_accesses
        );
        prev = rep.disk_accesses;
    }
    // PMR < R+ at the paper's configuration (8-byte vs 20-byte tuples).
    let cfg = IndexConfig::default();
    let (_, pmr) = measure_build(IndexKind::Pmr, &map, cfg);
    let (_, rplus) = measure_build(IndexKind::RPlus, &map, cfg);
    assert!(
        pmr.disk_accesses < rplus.disk_accesses,
        "PMR {} vs R+ {}",
        pmr.disk_accesses,
        rplus.disk_accesses
    );
}

#[test]
fn table2_pipeline_shape() {
    let map = county(4000);
    let cfg = IndexConfig::default();
    let wb = QueryWorkbench::new(&map, 120, 0x51);
    let mut per = Vec::new();
    for kind in IndexKind::paper_three() {
        let idx = build_index(kind, &map, cfg);
        per.push(
            Workload::ALL
                .iter()
                .map(|&w| wb.run(w, idx.as_ref()))
                .collect::<Vec<_>>(),
        );
    }
    let (rstar, rplus, pmr) = (&per[0], &per[1], &per[2]);
    // PMR point queries cost exactly one bucket computation on average.
    assert!(
        (pmr[0].bbox_comps - 1.0).abs() < 1e-9,
        "{}",
        pmr[0].bbox_comps
    );
    // R-tree bbox comps dwarf PMR bucket comps on every workload (the
    // reason the paper couldn't put them on one plot).
    for wi in 0..Workload::ALL.len() {
        assert!(
            rstar[wi].bbox_comps > 3.0 * pmr[wi].bbox_comps,
            "workload {wi}: R* {} vs PMR {}",
            rstar[wi].bbox_comps,
            pmr[wi].bbox_comps
        );
    }
    // Nearest-line: PMR needs the fewest segment comparisons ("the PMR
    // quadtree sorts the line segments and is able to prune the search").
    for wi in [2usize, 3] {
        assert!(
            pmr[wi].seg_comps < rplus[wi].seg_comps && pmr[wi].seg_comps < rstar[wi].seg_comps,
            "workload {wi}: PMR {} vs R+ {} vs R* {}",
            pmr[wi].seg_comps,
            rplus[wi].seg_comps,
            rstar[wi].seg_comps
        );
    }
    // Range query: the R-trees need fewer segment comps than PMR (their
    // leaf entries carry bounding boxes; PMR must fetch each q-edge).
    assert!(rstar[6].seg_comps < pmr[6].seg_comps);
}

#[test]
fn occupancy_pipeline_shape() {
    let map = county(4000);
    let cfg = IndexConfig::default();
    let mut rstar = lsdb::rtree::RTree::build(&map, cfg, lsdb::rtree::RTreeKind::RStar);
    let mut rplus = lsdb::rplus::RPlusTree::build(&map, cfg);
    let ro = rstar.avg_leaf_occupancy();
    let po = rplus.avg_leaf_occupancy();
    // M = 50: occupancies in a plausible band (paper: 36 and 32).
    assert!(ro > 20.0 && ro < 50.0, "R* occupancy {ro}");
    assert!(po > 15.0 && po < 50.0, "R+ occupancy {po}");
    // PMR bucket occupancy ≈ 0.5 × threshold.
    for t in [4usize, 16] {
        let mut pmr = lsdb::pmr::PmrQuadtree::build(
            &map,
            lsdb::pmr::PmrConfig {
                threshold: t,
                index: cfg,
                ..Default::default()
            },
        );
        let occ = pmr.avg_bucket_occupancy();
        assert!(
            occ > 0.25 * t as f64 && occ < 1.2 * t as f64,
            "threshold {t}: occupancy {occ}"
        );
    }
}
