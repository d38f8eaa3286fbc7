//! The served system: Charles county indexed by the paper's three
//! structures at the paper's operating point, hosted by one catalog.

use lsdb_core::{IndexConfig, LiveIndex, PolygonalMap, SpatialIndex};
use lsdb_pmr::{PmrConfig, PmrQuadtree};
use lsdb_rplus::RPlusTree;
use lsdb_rtree::{RTree, RTreeKind};
use lsdb_server::Catalog;
use std::time::{Duration, Instant};

/// 1 KB pages (about 50 entries per rectangle node) over a 16-page pool:
/// the configuration of the paper's Table 2.
fn index_config() -> IndexConfig {
    IndexConfig {
        page_size: 1024,
        pool_pages: 16,
        ..Default::default()
    }
}

/// Reply-cache pool shared by the three maps (`serve --cache-bytes`). It
/// holds the `hot` workload's Zipf head but not its tail, and a sliver of
/// the distinct replies the `table2` workload produces.
const REPLY_CACHE_BYTES: u64 = 4 << 20;

/// Catalog names of the served maps, in catalog order.
pub const MAP_NAMES: [&str; 3] = ["charles-rstar", "charles-rplus", "charles-pmr"];

/// The Charles county road map (the paper's Table 2 dataset), ~47k
/// segments. Deterministic: the seed of a run never changes the map.
pub fn charles() -> PolygonalMap {
    let spec = lsdb_tiger::county("Charles").expect("Charles is one of the six counties");
    lsdb_tiger::generate(&spec)
}

/// Build the three structures by insertion, as the paper did, and host
/// them in one catalog with the reply cache on and no buffer budget.
fn build_catalog(map: &PolygonalMap) -> Catalog {
    let cfg = index_config();
    let indexes: [Box<dyn SpatialIndex>; 3] = [
        Box::new(RTree::build(map, cfg, RTreeKind::RStar)),
        Box::new(RPlusTree::build(map, cfg)),
        Box::new(PmrQuadtree::build(
            map,
            PmrConfig {
                index: cfg,
                ..Default::default()
            },
        )),
    ];
    let mut catalog = Catalog::new(0, MAP_NAMES.len());
    for (name, index) in MAP_NAMES.into_iter().zip(indexes) {
        catalog.add_live(name, LiveIndex::volatile(index));
    }
    catalog.set_reply_cache_bytes(REPLY_CACHE_BYTES);
    catalog
}

/// Set the system up `times` times, timing each. Returns the first
/// catalog (the in-process reference every served reply is checked
/// against), the last one (the catalog to serve), and the set-up times.
/// Builds are deterministic, so the two catalogs hold identical indexes
/// and identical buffer-pool states.
pub fn build_timed(map: &PolygonalMap, times: usize) -> (Catalog, Catalog, Vec<Duration>) {
    assert!(times >= 2, "one reference catalog plus one served catalog");
    let mut spans = Vec::with_capacity(times);
    let mut timed = || {
        let start = Instant::now();
        let catalog = build_catalog(map);
        spans.push(start.elapsed());
        catalog
    };
    let reference = timed();
    for _ in 2..times {
        drop(timed());
    }
    let served = timed();
    (reference, served, spans)
}
