//! Property-style tests for the representative-point 4-d grid: despite
//! being the paper's §2 strawman, it must be *correct* — only its costs are
//! bad. Cases are drawn from fixed-seed [`lsdb_rng::StdRng`] streams.

use lsdb_core::{brute, IndexConfig, PolygonalMap, QueryCtx, SegId, SpatialIndex};
use lsdb_geom::{Point, Rect, Segment};
use lsdb_repr::ReprGrid;
use lsdb_rng::StdRng;

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

#[test]
fn queries_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x4E94_0001);
    for _ in 0..24 {
        let map = rand_map(&mut rng, 60);
        let g = [2i32, 4, 8][rng.gen_range(0usize..3)];
        let cfg = IndexConfig {
            page_size: 256,
            pool_pages: 8,
        };
        let t = ReprGrid::build(&map, cfg, g);
        let mut ctx = QueryCtx::new();
        for _ in 0..rng.gen_range(1..6) {
            let p = rand_point(&mut rng);
            assert_eq!(
                brute::sorted(t.find_incident(p, &mut ctx)),
                brute::incident(&map, p)
            );
            let got = t.nearest(p, &mut ctx).unwrap();
            let want = brute::nearest(&map, p).unwrap();
            assert_eq!(map.segments[got.index()].dist2_point(p), want.1);
        }
        for _ in 0..rng.gen_range(1..4) {
            let w = Rect::bounding(rand_point(&mut rng), rand_point(&mut rng));
            assert_eq!(brute::sorted(t.window(w, &mut ctx)), brute::window(&map, w));
        }
    }
}

#[test]
fn incident_at_real_endpoints() {
    // The rep-point index's one fast query: exact endpoint lookups.
    let mut rng = StdRng::seed_from_u64(0x4E94_0002);
    for _ in 0..24 {
        let map = rand_map(&mut rng, 50);
        let cfg = IndexConfig {
            page_size: 256,
            pool_pages: 8,
        };
        let t = ReprGrid::build(&map, cfg, 8);
        let mut ctx = QueryCtx::new();
        for s in map.segments.iter().take(20) {
            for p in [s.a, s.b] {
                assert_eq!(
                    brute::sorted(t.find_incident(p, &mut ctx)),
                    brute::incident(&map, p)
                );
            }
        }
    }
}

#[test]
fn deletes_then_queries() {
    let mut rng = StdRng::seed_from_u64(0x4E94_0003);
    for _ in 0..24 {
        let map = rand_map(&mut rng, 50);
        let cfg = IndexConfig {
            page_size: 128,
            pool_pages: 8,
        };
        let mut t = ReprGrid::build(&map, cfg, 4);
        let mut kept = Vec::new();
        for i in 0..map.len() {
            if rng.gen_range(0u32..2) == 0 {
                assert!(t.remove(SegId(i as u32)));
            } else {
                kept.push(SegId(i as u32));
            }
        }
        assert_eq!(t.len(), kept.len());
        let mut ctx = QueryCtx::new();
        let w = Rect::new(0, 0, 16383, 16383);
        assert_eq!(brute::sorted(t.window(w, &mut ctx)), kept);
    }
}
