//! Workspace integration tests: the three paper structures (plus the
//! uniform-grid baseline) must return *identical answers* to all five
//! paper queries on realistic generated county maps, and must agree with
//! the brute-force oracle.

use lsdb::core::pointgen::{EndpointGen, UniformGen, WindowGen};
use lsdb::core::{brute, queries, IndexConfig, PolygonalMap, QueryCtx, SegId};
use lsdb::geom::Dist2;
use lsdb_bench::{build_index, IndexKind};

fn test_map(class: lsdb::tiger::CountyClass, seed: u64) -> PolygonalMap {
    let spec = lsdb::tiger::CountySpec::new("itest", class, 1500, seed);
    let map = lsdb::tiger::generate(&spec);
    map.validate_planar().expect("generated maps are planar");
    map
}

fn all_kinds() -> Vec<IndexKind> {
    vec![
        IndexKind::RStar,
        IndexKind::RPlus,
        IndexKind::Pmr,
        IndexKind::RQuadratic,
        IndexKind::RLinear,
        IndexKind::Grid(32),
        IndexKind::Repr(8),
    ]
}

fn classes() -> Vec<(lsdb::tiger::CountyClass, u64)> {
    vec![
        (lsdb::tiger::CountyClass::Urban, 101),
        (lsdb::tiger::CountyClass::Suburban, 102),
        (lsdb::tiger::CountyClass::Rural { meander: 24 }, 103),
    ]
}

#[test]
fn query1_incident_agrees_with_oracle() {
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = EndpointGen::new(&map, seed);
        let probes: Vec<_> = (0..60).map(|_| gen.next_endpoint()).collect();
        for kind in all_kinds() {
            let idx = build_index(kind, &map, IndexConfig::default());
            let mut ctx = QueryCtx::new();
            for &(_, p) in &probes {
                assert_eq!(
                    brute::sorted(idx.find_incident(p, &mut ctx)),
                    brute::incident(&map, p),
                    "{kind:?} {class:?} at {p:?}"
                );
            }
        }
    }
}

#[test]
fn query2_second_endpoint_agrees_with_oracle() {
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = EndpointGen::new(&map, seed ^ 1);
        let probes: Vec<_> = (0..40).map(|_| gen.next_endpoint()).collect();
        for kind in all_kinds() {
            let idx = build_index(kind, &map, IndexConfig::default());
            let mut ctx = QueryCtx::new();
            for &(id, p) in &probes {
                assert_eq!(
                    brute::sorted(queries::second_endpoint(idx.as_ref(), id, p, &mut ctx)),
                    brute::second_endpoint(&map, id, p),
                    "{kind:?} {class:?} seg {id:?} at {p:?}"
                );
            }
        }
    }
}

#[test]
fn query3_nearest_distance_agrees_with_oracle() {
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = UniformGen::new(seed ^ 2);
        let probes: Vec<_> = (0..80).map(|_| gen.next_point()).collect();
        for kind in all_kinds() {
            let idx = build_index(kind, &map, IndexConfig::default());
            let mut ctx = QueryCtx::new();
            for &p in &probes {
                let got = idx.nearest(p, &mut ctx).expect("non-empty index");
                let want = brute::nearest(&map, p).unwrap();
                let got_d: Dist2 = map.segments[got.index()].dist2_point(p);
                assert_eq!(got_d, want.1, "{kind:?} {class:?} at {p:?}");
            }
        }
    }
}

#[test]
fn query4_polygon_walks_agree_across_structures() {
    // The enclosing-polygon walk is deterministic given the nearest edge;
    // nearest ties may differ across structures, so compare the walks only
    // when the three structures agree on the starting edge, and always
    // validate closure and membership.
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = UniformGen::new(seed ^ 3);
        let probes: Vec<_> = (0..25).map(|_| gen.next_point()).collect();
        let indexes: Vec<_> = all_kinds()
            .into_iter()
            .map(|k| build_index(k, &map, IndexConfig::default()))
            .collect();
        for &p in &probes {
            let starts: Vec<Option<SegId>> = indexes
                .iter()
                .map(|i| i.nearest(p, &mut QueryCtx::new()))
                .collect();
            let walks: Vec<_> = indexes
                .iter()
                .map(|i| {
                    queries::enclosing_polygon(i.as_ref(), p, map.len() * 3, &mut QueryCtx::new())
                })
                .collect();
            for w in &walks {
                let w = w.as_ref().expect("non-empty index");
                assert!(w.closed, "{class:?}: walk must close at {p:?}");
                assert!(!w.boundary.is_empty());
            }
            if starts.windows(2).all(|s| s[0] == s[1]) {
                let first = walks[0].as_ref().unwrap();
                for w in &walks[1..] {
                    assert_eq!(
                        w.as_ref().unwrap().boundary,
                        first.boundary,
                        "{class:?}: identical start must give identical walk at {p:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn query5_window_agrees_with_oracle() {
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = WindowGen::new(0.001, seed ^ 4);
        let windows: Vec<_> = (0..40).map(|_| gen.next_window()).collect();
        for kind in all_kinds() {
            let idx = build_index(kind, &map, IndexConfig::default());
            let mut ctx = QueryCtx::new();
            for &w in &windows {
                assert_eq!(
                    brute::sorted(idx.window(w, &mut ctx)),
                    brute::window(&map, w),
                    "{kind:?} {class:?} window {w:?}"
                );
            }
        }
    }
}

#[test]
fn deletion_keeps_all_structures_consistent() {
    let map = test_map(lsdb::tiger::CountyClass::Suburban, 777);
    let mut gen = WindowGen::new(0.001, 7);
    let windows: Vec<_> = (0..20).map(|_| gen.next_window()).collect();
    for kind in all_kinds() {
        let mut idx = build_index(kind, &map, IndexConfig::default());
        // Delete every 5th segment.
        for i in (0..map.len()).step_by(5) {
            assert!(idx.remove(SegId(i as u32)), "{kind:?} remove {i}");
        }
        assert_eq!(idx.len(), map.len() - map.len().div_ceil(5), "{kind:?}");
        let mut ctx = QueryCtx::new();
        for &w in &windows {
            let got = brute::sorted(idx.window(w, &mut ctx));
            let want: Vec<SegId> = brute::window(&map, w)
                .into_iter()
                .filter(|id| id.index() % 5 != 0)
                .collect();
            assert_eq!(got, want, "{kind:?} window {w:?} after deletes");
        }
    }
}

#[test]
fn resident_pages_are_free_cold_caches_fault() {
    // A pool big enough for the whole structure leaves every page resident
    // after the build: queries cost zero potential disk accesses. Dropping
    // the cache makes the same query fault. Both costs are read out of the
    // per-query context, never out of the shared index.
    let map = test_map(lsdb::tiger::CountyClass::Urban, 31);
    for kind in IndexKind::paper_three() {
        let cfg = IndexConfig {
            page_size: 1024,
            pool_pages: 4096,
        };
        let mut idx = build_index(kind, &map, cfg);
        let p = lsdb::geom::Point::new(8000, 8000);
        let mut ctx = QueryCtx::new();
        let _ = idx.nearest(p, &mut ctx);
        assert_eq!(
            ctx.stats().disk.reads,
            0,
            "{kind:?}: fully resident index cannot fault"
        );
        idx.clear_cache();
        ctx.reset();
        let _ = idx.nearest(p, &mut ctx);
        assert!(
            ctx.stats().disk.reads > 0,
            "{kind:?}: cold query must fault pages"
        );
    }
}

#[test]
fn duplicate_geometry_distinct_ids_are_all_retrievable() {
    // Two distinct map records with identical geometry (legal at the
    // index level even though planar maps forbid it): every structure
    // must keep and report both.
    use lsdb::geom::{Point, Segment};
    let seg = Segment::new(Point::new(100, 100), Point::new(900, 500));
    let far = Segment::new(Point::new(5000, 5000), Point::new(6000, 6000));
    let map = PolygonalMap::new("dups", vec![seg, seg, far]);
    for kind in all_kinds() {
        let mut idx = build_index(kind, &map, IndexConfig::default());
        let mut ctx = QueryCtx::new();
        assert_eq!(idx.len(), 3, "{kind:?}");
        let got = brute::sorted(idx.find_incident(Point::new(100, 100), &mut ctx));
        assert_eq!(got, vec![SegId(0), SegId(1)], "{kind:?}");
        let w = lsdb::geom::Rect::new(0, 0, 1000, 1000);
        assert_eq!(
            brute::sorted(idx.window(w, &mut ctx)),
            vec![SegId(0), SegId(1)],
            "{kind:?}"
        );
        assert!(idx.remove(SegId(0)), "{kind:?}");
        ctx.reset();
        assert_eq!(
            idx.find_incident(Point::new(100, 100), &mut ctx),
            vec![SegId(1)],
            "{kind:?}"
        );
    }
}

#[test]
fn k_nearest_matches_brute_force_ranking() {
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = UniformGen::new(seed ^ 9);
        let probes: Vec<_> = (0..25).map(|_| gen.next_point()).collect();
        for kind in all_kinds() {
            let idx = build_index(kind, &map, IndexConfig::default());
            let mut ctx = QueryCtx::new();
            for &p in &probes {
                for k in [1usize, 3, 10] {
                    let got = idx.nearest_k(p, k, &mut ctx);
                    assert_eq!(got.len(), k.min(map.len()), "{kind:?} {class:?} k={k}");
                    // Distances must match the brute-force ranking (ties
                    // may permute ids, distances must agree rank-by-rank),
                    // and results must be distinct.
                    let mut brute_d: Vec<Dist2> =
                        map.segments.iter().map(|s| s.dist2_point(p)).collect();
                    brute_d.sort();
                    let mut seen = std::collections::HashSet::new();
                    for (rank, id) in got.iter().enumerate() {
                        assert!(seen.insert(*id), "{kind:?} duplicate in k-NN result");
                        let d = map.segments[id.index()].dist2_point(p);
                        assert_eq!(d, brute_d[rank], "{kind:?} {class:?} rank {rank} at {p:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn edge_cases_are_uniform_across_structures() {
    // One parameterized sweep: empty index, k = 0, k > n, and zero-area
    // windows (point and degenerate line) must behave identically for
    // every structure — no panics, no phantom results.
    use lsdb::geom::{Point, Rect, Segment};
    let empty = PolygonalMap::new("empty", vec![]);
    let tiny = PolygonalMap::new(
        "tiny",
        vec![
            Segment::new(Point::new(0, 0), Point::new(10, 0)),
            Segment::new(Point::new(0, 5), Point::new(10, 5)),
            Segment::new(Point::new(200, 200), Point::new(210, 200)),
        ],
    );
    let p = Point::new(3, 1);
    for kind in all_kinds() {
        // Empty index: every query answers "nothing" without touching disk.
        let idx = build_index(kind, &empty, IndexConfig::default());
        let mut ctx = QueryCtx::new();
        assert_eq!(idx.len(), 0, "{kind:?}");
        assert!(idx.find_incident(p, &mut ctx).is_empty(), "{kind:?}");
        assert_eq!(idx.nearest(p, &mut ctx), None, "{kind:?}");
        assert!(idx.nearest_k(p, 5, &mut ctx).is_empty(), "{kind:?}");
        assert!(
            idx.window(Rect::new(0, 0, 1000, 1000), &mut ctx).is_empty(),
            "{kind:?}"
        );

        let idx = build_index(kind, &tiny, IndexConfig::default());
        let mut ctx = QueryCtx::new();
        // k = 0 is a no-op; k > n exhausts the index in (distance, id) order.
        assert!(idx.nearest_k(p, 0, &mut ctx).is_empty(), "{kind:?}");
        assert_eq!(
            idx.nearest_k(p, 99, &mut ctx),
            vec![SegId(0), SegId(1), SegId(2)],
            "{kind:?} k > n"
        );
        // Zero-area windows: a point window on a segment interior, a point
        // window in empty space, and a degenerate (zero-height) line window
        // crossing both horizontal segments.
        assert_eq!(
            idx.window(Rect::new(5, 0, 5, 0), &mut ctx),
            vec![SegId(0)],
            "{kind:?} point window on segment"
        );
        assert!(
            idx.window(Rect::new(50, 50, 50, 50), &mut ctx).is_empty(),
            "{kind:?} point window in space"
        );
        assert_eq!(
            brute::sorted(idx.window(Rect::new(0, 0, 10, 0), &mut ctx)),
            brute::window(&tiny, Rect::new(0, 0, 10, 0)),
            "{kind:?} zero-height window"
        );
    }
}

#[test]
fn window_visit_streams_the_window_result_set() {
    // Property: for random windows, `window_visit` must stream exactly the
    // set `window` collects — same elements, no duplicates.
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = WindowGen::new(0.002, seed ^ 11);
        let windows: Vec<_> = (0..30).map(|_| gen.next_window()).collect();
        for kind in all_kinds() {
            let idx = build_index(kind, &map, IndexConfig::default());
            let mut ctx = QueryCtx::new();
            for &w in &windows {
                let collected = idx.window(w, &mut ctx);
                let mut streamed = Vec::new();
                idx.window_visit(w, &mut ctx, &mut |id| streamed.push(id));
                assert_eq!(
                    brute::sorted(streamed.clone()),
                    brute::sorted(collected),
                    "{kind:?} {class:?} window {w:?}"
                );
                let distinct: std::collections::HashSet<_> = streamed.iter().collect();
                assert_eq!(
                    distinct.len(),
                    streamed.len(),
                    "{kind:?} duplicate emission"
                );
            }
        }
    }
}

#[test]
fn k_nearest_is_deterministic_distance_then_id() {
    // Property: `nearest_k(p, n)` must reproduce the brute-force ranking
    // *including ties*: results ordered by (distance², SegId), identical
    // across every structure.
    for (class, seed) in classes() {
        let map = test_map(class, seed);
        let mut gen = UniformGen::new(seed ^ 13);
        let probes: Vec<_> = (0..15).map(|_| gen.next_point()).collect();
        for kind in all_kinds() {
            let idx = build_index(kind, &map, IndexConfig::default());
            let mut ctx = QueryCtx::new();
            for &p in &probes {
                let got = idx.nearest_k(p, map.len(), &mut ctx);
                let mut want: Vec<(Dist2, SegId)> = map
                    .segments
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.dist2_point(p), SegId(i as u32)))
                    .collect();
                want.sort();
                let want: Vec<SegId> = want.into_iter().map(|(_, id)| id).collect();
                assert_eq!(got, want, "{kind:?} {class:?} full ranking at {p:?}");
                // And nearest() is exactly the head of that ranking.
                assert_eq!(
                    idx.nearest(p, &mut ctx),
                    Some(want[0]),
                    "{kind:?} {class:?}"
                );
            }
        }
    }
}

#[test]
fn k_nearest_exhausts_small_index() {
    use lsdb::geom::{Point, Segment};
    let map = PolygonalMap::new(
        "small",
        vec![
            Segment::new(Point::new(0, 0), Point::new(10, 0)),
            Segment::new(Point::new(100, 100), Point::new(110, 100)),
        ],
    );
    for kind in all_kinds() {
        let idx = build_index(kind, &map, IndexConfig::default());
        let mut ctx = QueryCtx::new();
        let got = idx.nearest_k(Point::new(0, 0), 10, &mut ctx);
        assert_eq!(got, vec![SegId(0), SegId(1)], "{kind:?}");
        assert!(idx.nearest_k(Point::new(0, 0), 0, &mut ctx).is_empty());
    }
}
