//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The paper builds its trees by one-by-one insertion (and pays for it —
//! Table 1's R\*-tree build CPU is ~9× the R+-tree's). A production system
//! loading a whole county at once would bulk-load instead: sort by x into
//! vertical slices, sort each slice by y, pack nodes to capacity, recurse.
//! The result is near-100% occupancy and a build that is orders of
//! magnitude cheaper than R\* insertion; the ablation benchmark compares
//! both. STR (Leutenegger, Lopez & Edgington) is insertion-order
//! independent, so bulk-loaded trees are also fully deterministic.

use crate::RTree;
use lsdb_core::rectnode::{entries_mbr, Entry, RectNode};
#[cfg(test)]
use lsdb_core::SegId;
use lsdb_core::{IndexConfig, PolygonalMap, SegmentTable};
use lsdb_pager::PageId;

impl RTree {
    /// Bulk-load a tree over `map` using Sort-Tile-Recursive packing.
    ///
    /// The resulting tree satisfies every R-tree invariant (all leaves at
    /// one level, nodes between `m` and `M` entries — trailing nodes
    /// borrow from their left neighbour to stay above `m`) and answers
    /// queries identically to an insertion-built tree; only its shape (and
    /// therefore its per-query metrics) differs.
    pub fn bulk_load(map: &PolygonalMap, cfg: IndexConfig) -> RTree {
        let table = SegmentTable::from_map(map, cfg.page_size, cfg.pool_pages);
        let mut tree = RTree::new(table, cfg, crate::RTreeKind::RStar);
        if map.is_empty() {
            return tree;
        }
        // The empty placeholder root from `new` is recycled by the first
        // allocation below.
        let placeholder = tree.root;
        tree.pool.free(placeholder);
        // Leaf entries: (segment MBR, segment id).
        let mut entries: Vec<Entry> = map
            .segments
            .iter()
            .enumerate()
            .map(|(i, s)| Entry {
                rect: s.bbox(),
                child: i as u32,
            })
            .collect();
        let mut level = 1u32;
        loop {
            let groups = str_tile(&mut entries, tree.m_max, tree.m_min);
            let single = groups.len() == 1;
            let mut parents = Vec::with_capacity(groups.len());
            for group in groups {
                let pid = tree.write_node(&group, level == 1);
                parents.push(Entry {
                    rect: entries_mbr(&group),
                    child: pid.0,
                });
            }
            if single {
                tree.root = PageId(parents[0].child);
                tree.height = level;
                tree.len = map.len();
                return tree;
            }
            entries = parents;
            level += 1;
        }
    }

    fn write_node(&mut self, entries: &[Entry], leaf: bool) -> PageId {
        let pid = self.pool.allocate();
        self.pool.with_page_mut(pid, |buf| {
            RectNode::init(buf, leaf);
            RectNode::write_entries(buf, entries);
        });
        pid
    }
}

/// Partition `entries` into groups of `m..=cap` entries using STR tiling:
/// slice vertically by x-center, then pack each slice by y-center.
fn str_tile(entries: &mut [Entry], cap: usize, m: usize) -> Vec<Vec<Entry>> {
    let n = entries.len();
    if n <= cap {
        return vec![entries.to_vec()];
    }
    let node_count = n.div_ceil(cap);
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let per_slice = n.div_ceil(slice_count);
    entries.sort_by_key(|e| center2(&e.rect).0);
    let mut groups = Vec::with_capacity(node_count);
    for slice in entries.chunks_mut(per_slice) {
        slice.sort_by_key(|e| center2(&e.rect).1);
        for chunk in slice.chunks(cap) {
            groups.push(chunk.to_vec());
        }
        rebalance_tail(&mut groups, m);
    }
    groups
}

/// Doubled center coordinates (exact, no rounding).
fn center2(r: &lsdb_geom::Rect) -> (i64, i64) {
    r.center2()
}

/// If the last group fell below `m`, move entries from its predecessor;
/// when the predecessor cannot spare enough (it may itself hold only `m`
/// after an earlier rebalance), merge the two groups instead — `m ≤ 40%·M`
/// guarantees the merged group fits one node.
fn rebalance_tail(groups: &mut Vec<Vec<Entry>>, m: usize) {
    let k = groups.len();
    if k < 2 {
        return;
    }
    let need = m.saturating_sub(groups[k - 1].len());
    if need == 0 {
        return;
    }
    if groups[k - 2].len() >= m + need {
        let (left, right) = groups.split_at_mut(k - 1);
        let donor = &mut left[k - 2];
        for _ in 0..need {
            let e = donor.pop().expect("donor entries");
            right[0].push(e);
        }
    } else {
        let tail = groups.pop().expect("k >= 2");
        let prev = groups.last_mut().expect("k >= 2");
        prev.extend(tail);
        debug_assert!(
            prev.len() <= 2 * m,
            "merged STR group exceeds capacity bound"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsdb_core::{brute, SpatialIndex};
    use lsdb_geom::{Point, Rect, Segment};

    fn cfg_small() -> IndexConfig {
        IndexConfig {
            page_size: 224,
            pool_pages: 8,
        }
    }

    fn random_ish_map(n: usize) -> PolygonalMap {
        // Deterministic scatter without rand.
        let segs: Vec<Segment> = (0..n)
            .map(|i| {
                let x = ((i * 7919) % 16000) as i32;
                let y = ((i * 104729) % 16000) as i32;
                Segment::new(
                    Point::new(x, y),
                    Point::new(x + 37, y + ((i % 90) as i32) - 45),
                )
            })
            .collect();
        PolygonalMap::new("scatter", segs)
    }

    #[test]
    fn bulk_load_satisfies_invariants() {
        for n in [1usize, 9, 10, 11, 57, 400] {
            let map = random_ish_map(n);
            let mut t = RTree::bulk_load(&map, cfg_small());
            let segs = t.check_invariants();
            assert_eq!(segs.len(), n, "n = {n}");
        }
    }

    #[test]
    fn bulk_load_answers_match_oracle() {
        let map = random_ish_map(300);
        let t = RTree::bulk_load(&map, cfg_small());
        let mut ctx = lsdb_core::QueryCtx::new();
        for i in (0..16000).step_by(2911) {
            let p = Point::new(i, (i * 3) % 16000);
            let got = t.nearest(p, &mut ctx).unwrap();
            let want = brute::nearest(&map, p).unwrap();
            assert_eq!(map.segments[got.index()].dist2_point(p), want.1);
            let w = Rect::new(p.x.saturating_sub(500).max(0), 0, p.x + 500, 15999);
            assert_eq!(brute::sorted(t.window(w, &mut ctx)), brute::window(&map, w));
        }
    }

    #[test]
    fn bulk_load_is_denser_than_insertion() {
        let map = random_ish_map(500);
        let mut packed = RTree::bulk_load(&map, cfg_small());
        let mut grown = RTree::build(&map, cfg_small(), crate::RTreeKind::RStar);
        assert!(
            packed.avg_leaf_occupancy() > grown.avg_leaf_occupancy(),
            "packed {:.1} vs grown {:.1}",
            packed.avg_leaf_occupancy(),
            grown.avg_leaf_occupancy()
        );
        assert!(packed.size_bytes() < grown.size_bytes());
    }

    #[test]
    fn bulk_and_insert_built_trees_answer_identically() {
        // Satellite contract: results identical, counters may differ.
        let map = random_ish_map(250);
        let bulk = RTree::bulk_load(&map, cfg_small());
        let grown = RTree::build(&map, cfg_small(), crate::RTreeKind::RStar);
        let mut cb = lsdb_core::QueryCtx::new();
        let mut cg = lsdb_core::QueryCtx::new();
        for i in (0..16000).step_by(911) {
            let p = Point::new(i, (i * 7) % 16000);
            assert_eq!(
                bulk.nearest(p, &mut cb)
                    .map(|id| map.segments[id.index()].dist2_point(p)),
                grown
                    .nearest(p, &mut cg)
                    .map(|id| map.segments[id.index()].dist2_point(p)),
            );
            let w = Rect::new((i - 700).max(0), 0, i + 700, 15999);
            assert_eq!(
                brute::sorted(bulk.window(w, &mut cb)),
                brute::sorted(grown.window(w, &mut cg)),
            );
            assert_eq!(
                brute::sorted(bulk.find_incident(p, &mut cb)),
                brute::sorted(grown.find_incident(p, &mut cg)),
            );
        }
    }

    #[test]
    fn bulk_loaded_tree_accepts_updates() {
        let map = random_ish_map(200);
        let mut t = RTree::bulk_load(&map, cfg_small());
        for i in (0..200).step_by(2) {
            assert!(t.remove(SegId(i as u32)));
        }
        for i in (0..200).step_by(2) {
            t.insert(SegId(i as u32));
        }
        assert_eq!(t.check_invariants().len(), 200);
    }
}
