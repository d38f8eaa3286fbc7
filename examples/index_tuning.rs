//! Index tuning: how page size, buffer-pool size, splitting threshold and
//! structure choice trade off for a fixed workload — the operational
//! version of the paper's Figure 6 and §7 discussion.
//!
//! ```sh
//! cargo run --release --example index_tuning
//! ```

use lsdb::core::pointgen::WindowGen;
use lsdb::core::{IndexConfig, QueryCtx, QueryStats, SpatialIndex};
use lsdb::grid::UniformGrid;
use lsdb::pmr::{PmrConfig, PmrQuadtree};
use lsdb::rplus::RPlusTree;
use lsdb::rtree::{RTree, RTreeKind};
use lsdb::tiger::{generate, CountyClass, CountySpec};

fn main() {
    let spec = CountySpec::new(
        "Tuning County",
        CountyClass::Rural { meander: 24 },
        6_000,
        5,
    );
    let map = generate(&spec);
    println!(
        "workload: 200 window queries (0.01% area) over {} segments\n",
        map.len()
    );

    let mut windows = Vec::new();
    let mut gen = WindowGen::new(0.0001, 31);
    for _ in 0..200 {
        windows.push(gen.next_window());
    }
    let run = |idx: &dyn SpatialIndex| -> (u64, u64) {
        // One fresh context per window query; the totals are the sum of
        // the per-query counters (and independent of query order).
        let mut total = QueryStats::default();
        let mut ctx = QueryCtx::new();
        for &w in &windows {
            ctx.reset();
            idx.window(w, &mut ctx);
            total.add(ctx.stats());
        }
        (total.disk.total(), total.seg_comps)
    };

    println!("PMR quadtree: page size x buffer pool (disk accesses for the workload)");
    print!("{:>8}", "");
    for pool in [8, 16, 32, 64] {
        print!("{:>10}", format!("{pool}p"));
    }
    println!();
    for page in [512usize, 1024, 2048, 4096] {
        print!("{:>8}", format!("{page}B"));
        for pool in [8usize, 16, 32, 64] {
            let cfg = IndexConfig {
                page_size: page,
                pool_pages: pool,
            };
            let pmr = PmrQuadtree::build(
                &map,
                PmrConfig {
                    index: cfg,
                    ..Default::default()
                },
            );
            let (disk, _) = run(&pmr);
            print!("{disk:>10}");
        }
        println!();
    }

    println!("\nPMR splitting threshold (1 KB pages): storage vs work");
    for t in [2usize, 4, 8, 16, 32, 64] {
        let mut pmr = PmrQuadtree::build(
            &map,
            PmrConfig {
                threshold: t,
                ..Default::default()
            },
        );
        let size_kb = pmr.size_bytes() / 1024;
        let occ = pmr.avg_bucket_occupancy();
        let (disk, segs) = run(&pmr);
        println!(
            "  t={t:<3} {size_kb:>6} KB   occupancy {occ:>5.1}   disk {disk:>6}   seg comps {segs:>7}"
        );
    }

    println!("\nstructure comparison at the paper's configuration (1 KB / 16 pages):");
    let cfg = IndexConfig::default();
    let structures: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(RTree::build(&map, cfg, RTreeKind::RStar)),
        Box::new(RTree::build(&map, cfg, RTreeKind::Quadratic)),
        Box::new(RTree::build(&map, cfg, RTreeKind::Linear)),
        Box::new(RPlusTree::build(&map, cfg)),
        Box::new(PmrQuadtree::build(
            &map,
            PmrConfig {
                index: cfg,
                ..Default::default()
            },
        )),
        Box::new(UniformGrid::build(&map, cfg, 64)),
    ];
    for idx in &structures {
        let size_kb = idx.size_bytes() / 1024;
        let (disk, segs) = run(idx.as_ref());
        println!(
            "  {:<18} {size_kb:>6} KB   disk {disk:>6}   seg comps {segs:>7}",
            idx.name()
        );
    }
}
