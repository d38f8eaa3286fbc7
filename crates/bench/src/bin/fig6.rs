//! Reproduce **Figure 6** — build disk accesses as a function of page size
//! and buffer-pool size, for the PMR quadtree and the R+-tree.
//!
//! The paper's shape: accesses decrease with both page size and pool size,
//! and "for identical page and buffer pool configurations, the number of
//! disk accesses for the PMR quadtree is smaller than for the R+-tree"
//! (8-byte vs 20-byte tuples).
//!
//! Usage: `cargo run --release -p lsdb-bench --bin fig6`

use lsdb_bench::report::render_table;
use lsdb_bench::{measure_build, IndexKind, WorkloadConfig};
use lsdb_core::IndexConfig;

fn main() {
    let map = WorkloadConfig::from_args().county("Anne Arundel");
    println!(
        "Figure 6: build disk accesses by page size x buffer pool ({}: {} segments)\n",
        map.name,
        map.len()
    );
    let page_sizes = [512usize, 1024, 2048, 4096];
    let pool_sizes = [8usize, 16, 32, 64];
    for kind in [IndexKind::Pmr, IndexKind::RPlus] {
        println!("{}:", kind.label());
        let mut rows = vec![{
            let mut h = vec!["page \\ pool".to_string()];
            h.extend(pool_sizes.iter().map(|b| format!("{b} pages")));
            h
        }];
        for &ps in &page_sizes {
            let mut row = vec![format!("{ps} B")];
            for &pool in &pool_sizes {
                let cfg = IndexConfig {
                    page_size: ps,
                    pool_pages: pool,
                };
                let (_, rep) = measure_build(kind, &map, cfg);
                row.push(rep.disk_accesses.to_string());
            }
            rows.push(row);
        }
        println!("{}", render_table(&rows));
    }
    println!("shape check: rows and columns should decrease; PMR < R+ cellwise.");
}
