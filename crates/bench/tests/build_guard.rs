//! Build-counter guard: Table 1's size and build disk-access columns and
//! Figure 6's build disk-access cells are part of the repo's contract,
//! like the query counters `counter_guard` pins. They come from the
//! buffer pool's LRU simulation of the build path, so any change to that
//! simulation must reproduce them exactly. The values are `table1` and
//! `fig6` output at scale 1.0.

use lsdb_bench::{measure_build, IndexKind, WorkloadConfig};
use lsdb_core::IndexConfig;

#[test]
fn table1_charles_sizes_and_build_disk_accesses() {
    let map = WorkloadConfig::default().county("Charles");
    for (kind, size_kbytes, disk_accesses) in [
        (IndexKind::RStar, 1572.0, 5812),
        (IndexKind::RPlus, 1992.0, 7667),
        (IndexKind::Pmr, 1366.0, 3671),
    ] {
        let (_, rep) = measure_build(kind, &map, IndexConfig::default());
        assert_eq!(
            (rep.size_kbytes, rep.disk_accesses),
            (size_kbytes, disk_accesses),
            "{} on Charles",
            kind.label()
        );
    }
}

#[test]
fn fig6_anne_arundel_build_disk_accesses_at_1k_pages_and_8_frames() {
    // An 8-page pool runs 4 stripes of 2 frames, so this cell also pins
    // which pages share an LRU list.
    let map = WorkloadConfig::default().county("Anne Arundel");
    let cfg = IndexConfig {
        page_size: 1024,
        pool_pages: 8,
    };
    for (kind, disk_accesses) in [(IndexKind::RPlus, 37770), (IndexKind::Pmr, 61811)] {
        let (_, rep) = measure_build(kind, &map, cfg);
        assert_eq!(
            rep.disk_accesses,
            disk_accesses,
            "{} on Anne Arundel",
            kind.label()
        );
    }
}
