//! Property-style tests: every R-tree variant must agree with the
//! brute-force oracle on all queries, for arbitrary segment soups (R-trees
//! do not require planar input) and arbitrary delete subsets, while
//! maintaining its structural invariants. Cases are drawn from fixed-seed
//! [`lsdb_rng::StdRng`] streams.

use lsdb_core::{brute, IndexConfig, PolygonalMap, QueryCtx, SegId, SpatialIndex};
use lsdb_geom::{Point, Rect, Segment};
use lsdb_rng::StdRng;
use lsdb_rtree::{RTree, RTreeKind};

fn rand_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0..16384i32), rng.gen_range(0..16384i32))
}

fn rand_segment(rng: &mut StdRng) -> Segment {
    loop {
        let a = rand_point(rng);
        let b = rand_point(rng);
        if a != b {
            return Segment::new(a, b);
        }
    }
}

fn rand_map(rng: &mut StdRng, max: usize) -> PolygonalMap {
    let n = rng.gen_range(1..max);
    PolygonalMap::new("prop", (0..n).map(|_| rand_segment(rng)).collect())
}

fn rand_kind(rng: &mut StdRng) -> RTreeKind {
    [RTreeKind::RStar, RTreeKind::Quadratic, RTreeKind::Linear][rng.gen_range(0usize..3)]
}

fn small_cfg() -> IndexConfig {
    // M = 10: deep trees at small n.
    IndexConfig {
        page_size: 224,
        pool_pages: 8,
    }
}

#[test]
fn queries_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x47EE_0001);
    for _ in 0..48 {
        let map = rand_map(&mut rng, 120);
        let kind = rand_kind(&mut rng);
        let mut t = RTree::build(&map, small_cfg(), kind);
        t.check_invariants();
        let mut ctx = QueryCtx::new();
        for _ in 0..rng.gen_range(1..12) {
            let p = rand_point(&mut rng);
            assert_eq!(
                brute::sorted(t.find_incident(p, &mut ctx)),
                brute::incident(&map, p)
            );
            let got = t.nearest(p, &mut ctx).unwrap();
            let want = brute::nearest(&map, p).unwrap();
            assert_eq!(map.segments[got.index()].dist2_point(p), want.1);
        }
        for _ in 0..rng.gen_range(1..6) {
            let w = Rect::bounding(rand_point(&mut rng), rand_point(&mut rng));
            assert_eq!(brute::sorted(t.window(w, &mut ctx)), brute::window(&map, w));
        }
    }
}

#[test]
fn deletes_preserve_invariants_and_answers() {
    let mut rng = StdRng::seed_from_u64(0x47EE_0002);
    for _ in 0..48 {
        let map = rand_map(&mut rng, 90);
        let kind = rand_kind(&mut rng);
        let probe = rand_point(&mut rng);
        let mut t = RTree::build(&map, small_cfg(), kind);
        let mut deleted = vec![false; map.len()];
        let mut kept: Vec<SegId> = Vec::new();
        for (i, gone) in deleted.iter_mut().enumerate() {
            if rng.gen_range(0u32..2) == 0 {
                *gone = true;
                assert!(t.remove(SegId(i as u32)));
            } else {
                kept.push(SegId(i as u32));
            }
        }
        assert_eq!(t.check_invariants(), kept.clone());
        // Window answers equal the filtered oracle.
        let mut ctx = QueryCtx::new();
        let w = Rect::new(0, 0, 16383, 16383);
        let want: Vec<SegId> = brute::window(&map, w)
            .into_iter()
            .filter(|id| !deleted[id.index()])
            .collect();
        assert_eq!(brute::sorted(t.window(w, &mut ctx)), want);
        // Nearest still exact over the survivors.
        if !kept.is_empty() {
            let got = t.nearest(probe, &mut ctx).unwrap();
            let best = kept
                .iter()
                .map(|id| map.segments[id.index()].dist2_point(probe))
                .min()
                .unwrap();
            assert_eq!(map.segments[got.index()].dist2_point(probe), best);
        } else {
            assert_eq!(t.nearest(probe, &mut ctx), None);
        }
    }
}

#[test]
fn rebuild_after_full_delete() {
    let mut rng = StdRng::seed_from_u64(0x47EE_0003);
    for _ in 0..48 {
        let map = rand_map(&mut rng, 60);
        let mut t = RTree::build(&map, small_cfg(), RTreeKind::RStar);
        for i in 0..map.len() {
            assert!(t.remove(SegId(i as u32)));
        }
        assert_eq!(t.len(), 0);
        for i in 0..map.len() {
            t.insert(SegId(i as u32));
        }
        t.check_invariants();
        let mut ctx = QueryCtx::new();
        let p = Point::new(8000, 8000);
        let got = t.nearest(p, &mut ctx).unwrap();
        let want = brute::nearest(&map, p).unwrap();
        assert_eq!(map.segments[got.index()].dist2_point(p), want.1);
    }
}

#[test]
fn parallel_batch_matches_sequential() {
    // The cross-thread determinism contract at the single-structure level:
    // running the same probe batch on 4 threads yields byte-identical
    // results and identical summed counters vs the sequential run.
    let mut rng = StdRng::seed_from_u64(0x47EE_0004);
    let map = rand_map(&mut rng, 100);
    let mut t = RTree::build(&map, small_cfg(), RTreeKind::RStar);
    t.clear_cache();
    let probes: Vec<Point> = (0..64).map(|_| rand_point(&mut rng)).collect();

    let run_one = |t: &RTree, p: Point| {
        let mut ctx = QueryCtx::new();
        let inc = t.find_incident(p, &mut ctx);
        let near = t.nearest(p, &mut ctx);
        (inc, near, ctx.stats())
    };

    let sequential: Vec<_> = probes.iter().map(|&p| run_one(&t, p)).collect();
    let t = &t;
    let parallel: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .chunks(16)
            .map(|chunk| {
                scope.spawn(move || chunk.iter().map(|&p| run_one(t, p)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(
        sequential, parallel,
        "per-query results and counters must not depend on threading"
    );
}
