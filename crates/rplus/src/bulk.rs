//! Bulk loading for the hybrid R+-tree.
//!
//! The R-tree's STR packing cannot be applied directly here: R+-tree
//! internal entries are disjoint *partition regions*, not MBRs, so bulk
//! construction must produce a recursive tiling of the world with every
//! leaf at the same depth. The loader works in two phases:
//!
//! 1. **Partition**: recursively cut the world into leaf regions with
//!    median-of-centers cuts on the longer region axis (falling back to
//!    the paper's exhaustive min-cut rule when a median cut makes no
//!    progress), duplicating a segment into every region its geometry
//!    intersects — the same completeness rule one-by-one insertion
//!    maintains.
//! 2. **Pack**: write the leaves, then repeatedly contract the cut tree
//!    bottom-up: each round turns every maximal cut subtree holding at
//!    most `M` built nodes into one internal node whose entries are its
//!    children's regions (a lone node is wrapped in a singleton parent).
//!    Every built node gains exactly one level per round, so all leaves
//!    stay at one depth and sibling regions tile their parent exactly.
//!
//! Unlike insertion — whose split rule is O(n) per candidate over all
//! resident entries and cascades downward splits — the bulk path is
//! O(n log n) in the common case, which is what makes a continental
//! build (hundreds of counties) feasible.

use crate::{cut_region, midpoint, Axis, RPlusTree};
use lsdb_core::rectnode::{Entry, RectNode};
use lsdb_core::{IndexConfig, PolygonalMap, SegmentTable};
use lsdb_geom::{world_rect, Rect, Segment};
use lsdb_pager::PageId;

/// The recursive region partition: a binary cut tree whose leaves carry
/// the (duplicated) segment entries of one future leaf node.
enum Part {
    Leaf {
        region: Rect,
        items: Vec<Entry>,
    },
    Split {
        region: Rect,
        left: Box<Part>,
        right: Box<Part>,
    },
}

/// The cut tree during packing: built nodes replace grouped subtrees.
enum Packed {
    /// A written node; `entry.rect` is the *region* it covers.
    Node { entry: Entry },
    Split {
        region: Rect,
        /// Number of built nodes in this subtree.
        built: usize,
        left: Box<Packed>,
        right: Box<Packed>,
    },
}

fn built_count(p: &Packed) -> usize {
    match p {
        Packed::Node { .. } => 1,
        Packed::Split { built, .. } => *built,
    }
}

fn region_of(p: &Packed) -> Rect {
    match p {
        Packed::Node { entry } => entry.rect,
        Packed::Split { region, .. } => *region,
    }
}

fn collect_entries(p: Packed, out: &mut Vec<Entry>) {
    match p {
        Packed::Node { entry } => out.push(entry),
        Packed::Split { left, right, .. } => {
            collect_entries(*left, out);
            collect_entries(*right, out);
        }
    }
}

impl RPlusTree {
    /// Bulk-load a tree over `map` by recursive region partitioning.
    ///
    /// The result satisfies every R+-tree invariant (uniform leaf depth,
    /// sibling regions tiling their parent, every segment present in
    /// every leaf whose region it touches) and answers queries
    /// identically to an insertion-built tree; only the tree *shape* —
    /// and therefore per-query disk/comparison metrics — differs.
    pub fn bulk_load(map: &PolygonalMap, cfg: IndexConfig) -> RPlusTree {
        let table = SegmentTable::from_map(map, cfg.page_size, cfg.pool_pages);
        let mut tree = RPlusTree::new(table, cfg);
        if map.is_empty() {
            return tree;
        }
        // The empty placeholder root from `new` is recycled below.
        let placeholder = tree.root;
        tree.pool.free(placeholder);
        let items: Vec<Entry> = map
            .segments
            .iter()
            .enumerate()
            .map(|(i, s)| Entry {
                rect: s.bbox(),
                child: i as u32,
            })
            .collect();
        let part = partition(&map.segments, items, world_rect(), tree.m_max);
        let mut packed = tree.write_leaves(part);
        let mut level = 1u32;
        loop {
            match packed {
                Packed::Node { entry } => {
                    tree.root = PageId(entry.child);
                    tree.height = level;
                    break;
                }
                split => {
                    packed = tree.pack_round(split);
                    level += 1;
                }
            }
        }
        tree.len = map.len();
        tree
    }

    fn write_leaves(&mut self, part: Part) -> Packed {
        match part {
            Part::Leaf { region, items } => {
                debug_assert!(items.len() <= self.m_max);
                let pid = self.pool.allocate();
                self.pool.with_page_mut(pid, |buf| {
                    RectNode::init(buf, true);
                    RectNode::write_entries(buf, &items);
                });
                Packed::Node {
                    entry: Entry {
                        rect: region,
                        child: pid.0,
                    },
                }
            }
            Part::Split {
                region,
                left,
                right,
            } => {
                let l = self.write_leaves(*left);
                let r = self.write_leaves(*right);
                let built = built_count(&l) + built_count(&r);
                Packed::Split {
                    region,
                    built,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
        }
    }

    /// One packing round: group every maximal cut subtree with at most
    /// `M` built nodes into a freshly written internal node.
    fn pack_round(&mut self, packed: Packed) -> Packed {
        match packed {
            Packed::Split {
                region,
                built,
                left,
                right,
            } if built > self.m_max => {
                let l = self.pack_round(*left);
                let r = self.pack_round(*right);
                let built = built_count(&l) + built_count(&r);
                Packed::Split {
                    region,
                    built,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
            subtree => {
                let region = region_of(&subtree);
                let mut entries = Vec::new();
                collect_entries(subtree, &mut entries);
                debug_assert!(!entries.is_empty() && entries.len() <= self.m_max);
                let pid = self.pool.allocate();
                self.pool.with_page_mut(pid, |buf| {
                    RectNode::init(buf, false);
                    RectNode::write_entries(buf, &entries);
                });
                Packed::Node {
                    entry: Entry {
                        rect: region,
                        child: pid.0,
                    },
                }
            }
        }
    }
}

/// Recursively partition `region` (and the entries whose segments touch
/// it) into leaf-sized region groups, duplicating straddlers.
fn partition(segs: &[Segment], items: Vec<Entry>, region: Rect, cap: usize) -> Part {
    if items.len() <= cap {
        return Part::Leaf { region, items };
    }
    let (axis, c) = choose_bulk_cut(segs, &items, region).unwrap_or_else(|| {
        panic!(
            "R+-tree bulk region {region:?} cannot be split: {} segments \
             share an unsplittable region (> M = {cap})",
            items.len(),
        )
    });
    let (lr, rr) = cut_region(region, axis, c);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for e in items {
        let seg = &segs[e.child as usize];
        let in_l = lr.intersects_segment(seg);
        let in_r = rr.intersects_segment(seg);
        debug_assert!(in_l || in_r, "segment lost by bulk split");
        if in_l {
            left.push(e);
        }
        if in_r {
            right.push(e);
        }
    }
    Part::Split {
        region,
        left: Box::new(partition(segs, left, lr, cap)),
        right: Box::new(partition(segs, right, rr, cap)),
    }
}

/// Pick a cut for an over-full bulk region. Cheap median/midpoint
/// candidates are validated for strict progress (each side must receive
/// strictly fewer segments than the whole); if none of them works, fall
/// back to the paper's exhaustive boundary scan.
fn choose_bulk_cut(segs: &[Segment], items: &[Entry], region: Rect) -> Option<(Axis, i32)> {
    let n = items.len();
    let interior = |axis: Axis, c: i32| match axis {
        Axis::X => region.min.x < c && c < region.max.x,
        Axis::Y => region.min.y < c && c < region.max.y,
    };
    let progress = |axis: Axis, c: i32| {
        let (lr, rr) = cut_region(region, axis, c);
        let (mut l, mut r) = (0usize, 0usize);
        for e in items {
            let seg = &segs[e.child as usize];
            if lr.intersects_segment(seg) {
                l += 1;
            }
            if rr.intersects_segment(seg) {
                r += 1;
            }
        }
        l < n && r < n
    };
    let mut axes = [Axis::X, Axis::Y];
    if region.height() > region.width() {
        axes.reverse();
    }
    for &axis in &axes {
        if let Some(c) = median_cut(items, axis) {
            if interior(axis, c) && progress(axis, c) {
                return Some((axis, c));
            }
        }
    }
    for &axis in &axes {
        let c = match axis {
            Axis::X => midpoint(region.min.x, region.max.x),
            Axis::Y => midpoint(region.min.y, region.max.y),
        };
        if let Some(c) = c {
            if progress(axis, c) {
                return Some((axis, c));
            }
        }
    }
    exhaustive_cut(items, region)
}

/// Median of the entries' doubled bbox centers along `axis`.
fn median_cut(items: &[Entry], axis: Axis) -> Option<i32> {
    let mut centers: Vec<i64> = items
        .iter()
        .map(|e| match axis {
            Axis::X => e.rect.min.x as i64 + e.rect.max.x as i64,
            Axis::Y => e.rect.min.y as i64 + e.rect.max.y as i64,
        })
        .collect();
    let mid = centers.len() / 2;
    let (_, &mut m, _) = centers.select_nth_unstable(mid);
    i32::try_from(m.div_euclid(2)).ok()
}

/// The paper's exhaustive rule, restricted to cuts that classify at
/// least one bbox strictly on each side (which guarantees both halves
/// receive strictly fewer segments): minimize bboxes cut, tie-break on
/// evenness. O(n²) — only reached when the cheap candidates all fail.
fn exhaustive_cut(items: &[Entry], region: Rect) -> Option<(Axis, i32)> {
    let mut best: Option<(u64, u64, Axis, i32)> = None;
    let mut consider = |axis: Axis, c: i32| {
        let (mut l, mut r, mut cut) = (0u64, 0u64, 0u64);
        for e in items {
            let (emin, emax) = match axis {
                Axis::X => (e.rect.min.x, e.rect.max.x),
                Axis::Y => (e.rect.min.y, e.rect.max.y),
            };
            if emax < c {
                l += 1;
            } else if emin > c {
                r += 1;
            } else {
                cut += 1;
            }
        }
        if l == 0 || r == 0 {
            return;
        }
        let imbalance = (l + cut).abs_diff(r + cut);
        if best.is_none_or(|(bc, bi, _, _)| (cut, imbalance) < (bc, bi)) {
            best = Some((cut, imbalance, axis, c));
        }
    };
    for e in items {
        for c in [
            e.rect.min.x - 1,
            e.rect.min.x,
            e.rect.max.x,
            e.rect.max.x + 1,
        ] {
            if region.min.x < c && c < region.max.x {
                consider(Axis::X, c);
            }
        }
        for c in [
            e.rect.min.y - 1,
            e.rect.min.y,
            e.rect.max.y,
            e.rect.max.y + 1,
        ] {
            if region.min.y < c && c < region.max.y {
                consider(Axis::Y, c);
            }
        }
    }
    best.map(|(_, _, axis, c)| (axis, c))
}

#[cfg(test)]
mod tests {
    use lsdb_core::{brute, IndexConfig, PolygonalMap, QueryCtx, SegId, SpatialIndex};
    use lsdb_geom::{Point, Rect, Segment};

    use crate::RPlusTree;

    fn cfg_small() -> IndexConfig {
        IndexConfig {
            page_size: 224,
            pool_pages: 8,
        }
    }

    fn random_ish_map(n: usize) -> PolygonalMap {
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
            let mut t = RPlusTree::bulk_load(&map, cfg_small());
            let segs = t.check_invariants();
            assert_eq!(segs.len(), n, "n = {n}");
        }
    }

    #[test]
    fn bulk_load_answers_match_oracle() {
        let map = random_ish_map(300);
        let t = RPlusTree::bulk_load(&map, cfg_small());
        let mut ctx = QueryCtx::new();
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
    fn bulk_and_insert_built_trees_answer_identically() {
        // Satellite contract: results identical, counters may differ.
        let map = random_ish_map(250);
        let bulk = RPlusTree::bulk_load(&map, cfg_small());
        let grown = RPlusTree::build(&map, cfg_small());
        let mut cb = QueryCtx::new();
        let mut cg = QueryCtx::new();
        for i in (0..16000).step_by(911) {
            let p = Point::new(i, (i * 7) % 16000);
            assert_eq!(
                bulk.nearest(p, &mut cb).map(|id| {
                    let s = &map.segments[id.index()];
                    s.dist2_point(p)
                }),
                grown.nearest(p, &mut cg).map(|id| {
                    let s = &map.segments[id.index()];
                    s.dist2_point(p)
                }),
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
        let mut t = RPlusTree::bulk_load(&map, cfg_small());
        for i in (0..200).step_by(2) {
            assert!(t.remove(SegId(i as u32)));
        }
        for i in (0..200).step_by(2) {
            t.insert(SegId(i as u32));
        }
        assert_eq!(t.check_invariants().len(), 200);
    }
}
