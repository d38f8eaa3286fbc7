//! Property-style tests for the PMR quadtree: Z-order partition
//! invariants, q-edge completeness, oracle equivalence, and delete/merge
//! round-trips, across random segment soups and random thresholds. Cases
//! are drawn from fixed-seed [`lsdb_rng::StdRng`] streams.

use lsdb_core::{brute, IndexConfig, PolygonalMap, QueryCtx, SegId, SpatialIndex};
use lsdb_geom::morton::Block;
use lsdb_geom::{Point, Rect, Segment};
use lsdb_pmr::{PmrConfig, PmrQuadtree};
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

fn cfg(threshold: usize) -> PmrConfig {
    PmrConfig {
        threshold,
        max_depth: 10,
        index: IndexConfig {
            page_size: 256,
            pool_pages: 8,
        },
    }
}

#[test]
fn queries_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0x9314_0001);
    for _ in 0..32 {
        let map = rand_map(&mut rng, 100);
        let threshold = rng.gen_range(1usize..8);
        let mut t = PmrQuadtree::build(&map, cfg(threshold));
        t.check_invariants();
        let mut ctx = QueryCtx::new();
        for _ in 0..rng.gen_range(1..10) {
            let p = rand_point(&mut rng);
            assert_eq!(
                brute::sorted(t.find_incident(p, &mut ctx)),
                brute::incident(&map, p)
            );
            let got = t.nearest(p, &mut ctx).unwrap();
            let want = brute::nearest(&map, p).unwrap();
            assert_eq!(map.segments[got.index()].dist2_point(p), want.1);
        }
        for _ in 0..rng.gen_range(1..5) {
            let w = Rect::bounding(rand_point(&mut rng), rand_point(&mut rng));
            assert_eq!(brute::sorted(t.window(w, &mut ctx)), brute::window(&map, w));
        }
    }
}

#[test]
fn incident_at_real_endpoints() {
    // Endpoint queries at every actual vertex — the exact use case of
    // paper queries 1 and 2.
    let mut rng = StdRng::seed_from_u64(0x9314_0002);
    for _ in 0..32 {
        let map = rand_map(&mut rng, 80);
        let t = PmrQuadtree::build(&map, cfg(4));
        let mut ctx = QueryCtx::new();
        for s in map.segments.iter().take(25) {
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
fn delete_all_merges_to_root() {
    let mut rng = StdRng::seed_from_u64(0x9314_0003);
    for _ in 0..32 {
        let map = rand_map(&mut rng, 70);
        let threshold = rng.gen_range(1usize..6);
        let mut t = PmrQuadtree::build(&map, cfg(threshold));
        for i in 0..map.len() {
            assert!(t.remove(SegId(i as u32)));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.leaf_blocks(), vec![Block::ROOT]);
        t.check_invariants();
    }
}

#[test]
fn partial_delete_keeps_invariants() {
    let mut rng = StdRng::seed_from_u64(0x9314_0004);
    for _ in 0..32 {
        let map = rand_map(&mut rng, 90);
        let mut t = PmrQuadtree::build(&map, cfg(3));
        let mut kept = Vec::new();
        for i in 0..map.len() {
            if rng.gen_range(0u32..2) == 0 {
                assert!(t.remove(SegId(i as u32)));
            } else {
                kept.push(SegId(i as u32));
            }
        }
        assert_eq!(t.check_invariants(), kept);
        let mut ctx = QueryCtx::new();
        let w = Rect::new(0, 0, 16383, 16383);
        assert_eq!(brute::sorted(t.window(w, &mut ctx)), kept);
    }
}

#[test]
fn two_stage_generator_points_hit_leaf_blocks() {
    // The leaf-block list feeds the paper's 2-stage point generator;
    // its blocks must tile the world, so every generated point lies in
    // exactly one block.
    let mut rng = StdRng::seed_from_u64(0x9314_0005);
    for _ in 0..32 {
        let map = rand_map(&mut rng, 60);
        let mut t = PmrQuadtree::build(&map, cfg(2));
        let blocks: Vec<Rect> = t.leaf_blocks().iter().map(|b| b.rect()).collect();
        let mut gen = lsdb_core::pointgen::TwoStageGen::new(blocks.clone(), 5);
        for _ in 0..50 {
            let p = gen.next_point();
            let containing = blocks.iter().filter(|b| b.contains_point(p)).count();
            assert_eq!(containing, 1);
        }
    }
}
