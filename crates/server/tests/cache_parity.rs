//! Reply-cache differential suite: a server with the epoch-tagged reply
//! cache enabled must be *observationally invisible* — every reply
//! frame it sends must be byte-for-byte what the same server with
//! caching off sends for the same request sequence, and the `STATS`
//! aggregates must agree exactly (cache hits fold the stored counters
//! precisely as cold execution folds its context).
//!
//! The suite drives a cached and an uncached server in lockstep over
//! interleaved query/mutation traces — across all four index structures
//! — comparing raw frames, not decoded replies, so envelope bytes and
//! counter encodings are pinned too. A concurrent phase checks the
//! invariant survives mutations racing queries, and a property test
//! pins the epoch protocol the cache keys on.

use lsdb_core::pointgen::{EndpointGen, UniformGen, WindowGen};
use lsdb_core::{IndexConfig, LiveIndex, PolygonalMap, SegId, SpatialIndex};
use lsdb_geom::{Point, Segment};
use lsdb_grid::UniformGrid;
use lsdb_pmr::{PmrConfig, PmrQuadtree};
use lsdb_rplus::RPlusTree;
use lsdb_rtree::RTree;
use lsdb_server::protocol::{read_frame, write_frame, FrameEvent, MAX_REPLY_FRAME};
use lsdb_server::{Catalog, CatalogStats, Client, Reply, Request, Server, ServerConfig};
use lsdb_tiger::{continent, CountySpec};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Cache pool large enough that nothing in these traces is evicted —
/// eviction behavior has its own unit tests; here the cache must be
/// *full* of opportunities to diverge.
const CACHE_BYTES: u64 = 4 * 1024 * 1024;

fn county_spec(segments: usize) -> CountySpec {
    continent(1, segments, 0xCAC4E).remove(0)
}

fn county_cfg() -> IndexConfig {
    IndexConfig {
        page_size: 1024,
        pool_pages: 64,
    }
}

/// A structure's build entry point, behind the `SpatialIndex` surface
/// the server executes against.
type Build = fn(&PolygonalMap) -> Box<dyn SpatialIndex>;

/// The four structures of the paper's comparison.
fn structures() -> Vec<(&'static str, Build)> {
    vec![
        ("rstar", |map| Box::new(RTree::bulk_load(map, county_cfg()))),
        ("rplus", |map| Box::new(RPlusTree::build(map, county_cfg()))),
        ("pmr", |map| {
            Box::new(PmrQuadtree::build(
                map,
                PmrConfig {
                    index: county_cfg(),
                    ..Default::default()
                },
            ))
        }),
        ("grid", |map| {
            Box::new(UniformGrid::build(map, county_cfg(), 32))
        }),
    ]
}

/// Bind a one-map catalog server over `build(map)`; `cache_bytes > 0`
/// turns the reply cache on.
fn start_server(
    map: &PolygonalMap,
    build: Build,
    cache_bytes: u64,
) -> (
    SocketAddr,
    std::thread::JoinHandle<lsdb_server::ServerReport>,
) {
    let mut catalog = Catalog::new(0, 1);
    catalog.add_live("default", LiveIndex::volatile(build(map)));
    catalog.set_reply_cache_bytes(cache_bytes);
    let config = ServerConfig {
        workers: 2,
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

/// A deterministic mixed query pool over every cacheable shape.
fn query_pool(map: &PolygonalMap, rounds: usize, seed: u64) -> Vec<Request> {
    let mut endpoints = EndpointGen::new(map, seed ^ 0x1111);
    let mut uniform = UniformGen::new(seed ^ 0x2222);
    let mut windows = WindowGen::new(0.0005, seed ^ 0x4444);
    let mut reqs = Vec::new();
    for i in 0..rounds {
        let (id, p) = endpoints.next_endpoint();
        reqs.push(Request::Incident(p));
        reqs.push(Request::Second { id, at: p });
        let q = uniform.next_point();
        reqs.push(Request::Nearest(q));
        reqs.push(Request::Knn {
            at: q,
            k: (i % 4 + 1) as u32,
        });
        reqs.push(Request::Polygon {
            at: q,
            max_steps: 800,
        });
        reqs.push(Request::Window(windows.next_window()));
    }
    reqs
}

/// The interleaved trace: two identical query passes (second pass hits
/// the cache), a mutation burst (insert + delete + flush, each of which
/// bumps the epoch), then two more passes (miss-and-restore, then hits
/// again). Mutation replies carry LSNs, which are deterministic for a
/// fixed op sequence, so they byte-compare too.
fn interleaved_trace(map: &PolygonalMap, seed: u64) -> Vec<Request> {
    let pool = query_pool(map, 4, seed);
    let mut uniform = UniformGen::new(seed ^ 0x8888);
    let mut trace = Vec::new();
    trace.extend(pool.iter().cloned());
    trace.extend(pool.iter().cloned());
    let a = uniform.next_point();
    let b = Point::new(a.x.saturating_add(5), a.y.saturating_add(3));
    trace.push(Request::Insert(Segment::new(a, b)));
    trace.push(Request::Delete { id: SegId(3) });
    trace.push(Request::Flush);
    trace.extend(pool.iter().cloned());
    trace.extend(pool.iter().cloned());
    trace
}

/// One raw framed exchange: no client-side decoding, the reply frame's
/// exact bytes come back.
fn raw_call(stream: &mut TcpStream, frame: &[u8]) -> Vec<u8> {
    write_frame(stream, frame).unwrap();
    match read_frame(stream, MAX_REPLY_FRAME).unwrap() {
        FrameEvent::Frame(p) => p,
        other => panic!("expected a reply frame, got {other:?}"),
    }
}

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s
}

/// The paper's counters from `STATS`, aggregate and per map: what must
/// not move with the cache on. (The cache's own counters, and the page
/// pool's hit/miss counts its hits skip, legitimately differ.)
fn paper_counters(stats: &CatalogStats) -> Vec<(u64, lsdb_core::QueryStats)> {
    let mut out = vec![(stats.queries, stats.totals)];
    out.extend(stats.maps.iter().map(|m| (m.queries, m.totals)));
    out
}

/// The tentpole invariant: over an interleaved query/mutation trace,
/// every reply frame from the cached server equals the uncached
/// server's byte-for-byte — results *and* the embedded `QueryStats` —
/// and the final `STATS` counters (the aggregate the paper reads) agree
/// too. Run across all four structures; the trace revisits every query
/// after mutations, so hits, misses, and epoch-orphaned entries are all
/// on the path.
#[test]
fn interleaved_trace_frames_byte_identical_across_structures() {
    let spec = county_spec(900);
    let map = lsdb_tiger::generate(&spec);
    let trace = interleaved_trace(&map, 0xF00D);
    for (name, build) in structures() {
        let (cached_addr, cached_handle) = start_server(&map, build, CACHE_BYTES);
        let (plain_addr, plain_handle) = start_server(&map, build, 0);
        let mut cached = raw_connect(cached_addr);
        let mut plain = raw_connect(plain_addr);
        for (i, req) in trace.iter().enumerate() {
            let frame = req.encode_v3(i as u32, 0);
            let got = raw_call(&mut cached, &frame);
            let want = raw_call(&mut plain, &frame);
            assert_eq!(
                got, want,
                "{name}: frame {i} ({req:?}) diverged with the cache on"
            );
        }
        // The aggregate counters must be indistinguishable: cache hits
        // fold their stored stats exactly as cold execution does.
        let mut client = Client::connect(cached_addr).unwrap();
        let mut plain_client = Client::connect(plain_addr).unwrap();
        let stats = client.stats_v3().unwrap();
        assert_eq!(
            paper_counters(&stats),
            paper_counters(&plain_client.stats_v3().unwrap()),
            "{name}: STATS counters diverged with the cache on"
        );
        // Sanity: the cached server actually served hits — a parity
        // test against a cache that never fires proves nothing.
        let rc = &stats.maps[0].reply_cache;
        assert!(rc.enabled, "{name}: cache should be on");
        assert!(rc.hits > 0, "{name}: trace produced no cache hits");
        assert!(
            rc.invalidations + rc.misses > rc.hits / 100,
            "{name}: implausible counter mix: {rc:?}"
        );
        client.shutdown().unwrap();
        plain_client.shutdown().unwrap();
        cached_handle.join().unwrap();
        plain_handle.join().unwrap();
    }
}

/// Same invariant across envelopes: identical queries sent under
/// different correlation ids and on different connections share one
/// cache entry (the key is the request body alone), and each reply's
/// bytes — marker, correlation id, body — match the uncached server's
/// exactly.
#[test]
fn correlation_ids_share_entries_and_stay_byte_identical() {
    let spec = county_spec(700);
    let map = lsdb_tiger::generate(&spec);
    let pool = query_pool(&map, 3, 0xE27);
    let (name, build) = ("rstar", structures()[0].1);
    let (cached_addr, cached_handle) = start_server(&map, build, CACHE_BYTES);
    let (plain_addr, plain_handle) = start_server(&map, build, 0);
    // Pass 1 primes; pass 2 replays the same queries under new
    // correlation ids, pass 3 on fresh connections — all hits on the
    // cached server, yet every frame must still match the uncached run
    // byte-for-byte.
    let mut cached = raw_connect(cached_addr);
    let mut plain = raw_connect(plain_addr);
    for base in [0u32, 0x1000, 0x2000] {
        if base == 0x2000 {
            cached = raw_connect(cached_addr);
            plain = raw_connect(plain_addr);
        }
        for (i, req) in pool.iter().enumerate() {
            let frame = req.encode_v3(base + i as u32, 0);
            assert_eq!(
                raw_call(&mut cached, &frame),
                raw_call(&mut plain, &frame),
                "{name}: frame {i} under correlation base {base:#x} diverged"
            );
        }
    }
    // The replays were pure hits: one miss per distinct query.
    let mut client = Client::connect(cached_addr).unwrap();
    let stats = client.stats_v3().unwrap();
    let rc = &stats.maps[0].reply_cache;
    assert_eq!(
        rc.misses,
        pool.len() as u64,
        "replays must share the body-keyed entries"
    );
    assert_eq!(rc.hits, 2 * pool.len() as u64);
    client.shutdown().unwrap();
    Client::connect(plain_addr).unwrap().shutdown().unwrap();
    cached_handle.join().unwrap();
    plain_handle.join().unwrap();
}

/// Batches probe per item: a batch whose items are half primed (hits)
/// and half cold (Morton-sorted miss execution) must produce a nested
/// reply frame byte-identical to the uncached server's — carving misses
/// out of a batch changes no item's counters.
#[test]
fn batch_with_mixed_hits_and_misses_is_byte_identical() {
    let spec = county_spec(800);
    let map = lsdb_tiger::generate(&spec);
    let (_, build) = ("rstar", structures()[0].1);
    let (cached_addr, cached_handle) = start_server(&map, build, CACHE_BYTES);
    let (plain_addr, plain_handle) = start_server(&map, build, 0);
    let mut uniform = UniformGen::new(0xBA7C4);
    let points: Vec<Point> = (0..24).map(|_| uniform.next_point()).collect();
    // Prime every other point as a singleton — batch items share the
    // singleton key space, so those become in-batch hits.
    let mut cached = raw_connect(cached_addr);
    let mut plain = raw_connect(plain_addr);
    for (i, p) in points.iter().step_by(2).enumerate() {
        let frame = Request::Nearest(*p).encode_v3(i as u32, 0);
        assert_eq!(
            raw_call(&mut cached, &frame),
            raw_call(&mut plain, &frame),
            "prime frame diverged"
        );
    }
    let batch = Request::Batch(points.iter().map(|&p| Request::Nearest(p)).collect());
    let frame = batch.encode_v3(0xBEEF, 0);
    let got = raw_call(&mut cached, &frame);
    let want = raw_call(&mut plain, &frame);
    assert_eq!(got, want, "mixed hit/miss batch reply diverged");
    // And the batch repeated is all hits — still identical.
    let frame = batch.encode_v3(0xBEF0, 0);
    assert_eq!(
        raw_call(&mut cached, &frame),
        raw_call(&mut plain, &frame),
        "all-hit batch reply diverged"
    );
    let mut client = Client::connect(cached_addr).unwrap();
    let stats = client.stats_v3().unwrap();
    let rc = stats.maps[0].reply_cache;
    assert_eq!(rc.hits, 12 + points.len() as u64, "12 primed + full replay");
    // A refused query point, alone or in a batch, leaves the cache as
    // it was: no probe, no fill.
    let outside = Request::Nearest(Point::new(points[0].x, -1));
    for req in [
        outside.clone(),
        Request::Batch(vec![Request::Nearest(points[0]), outside]),
    ] {
        assert!(client.call(&req).is_err(), "{req:?} must be refused");
    }
    assert_eq!(client.stats_v3().unwrap().maps[0].reply_cache, rc);
    client.shutdown().unwrap();
    Client::connect(plain_addr).unwrap().shutdown().unwrap();
    cached_handle.join().unwrap();
    plain_handle.join().unwrap();
}

/// Mutations racing queries: readers hammer the cached server while a
/// writer streams inserts (each bumping the epoch). Every concurrent
/// reply must decode cleanly; after the writer quiesces, a replay of
/// the whole query pool must byte-match an uncached server that applied
/// the same mutation sequence.
#[test]
fn concurrent_mutations_quiesce_to_byte_identical_replies() {
    let spec = county_spec(700);
    let map = lsdb_tiger::generate(&spec);
    let (_, build) = ("rstar", structures()[0].1);
    let (cached_addr, cached_handle) = start_server(&map, build, CACHE_BYTES);
    let (plain_addr, plain_handle) = start_server(&map, build, 0);
    let pool = query_pool(&map, 3, 0xC0C0);
    let mut uniform = UniformGen::new(0x111_222);
    let inserts: Vec<Segment> = (0..40)
        .map(|_| {
            let a = uniform.next_point();
            Segment::new(a, Point::new(a.x.saturating_add(4), a.y.saturating_add(6)))
        })
        .collect();

    // Churn phase: two readers loop the pool against the cached server
    // while the writer applies the insert stream there.
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let pool = &pool;
            s.spawn(move || {
                let mut client = Client::connect(cached_addr).unwrap();
                for pass in 0..3 {
                    for (i, req) in pool.iter().enumerate() {
                        if (i as u64 + t + pass).is_multiple_of(2) {
                            let reply = client.call(req).unwrap();
                            assert!(
                                !matches!(reply, Reply::Error { .. }),
                                "concurrent query errored: {reply:?}"
                            );
                        }
                    }
                }
            });
        }
        let inserts = &inserts;
        s.spawn(move || {
            let mut client = Client::connect(cached_addr).unwrap();
            for seg in inserts {
                client.insert(*seg).unwrap();
            }
            client.flush().unwrap();
        });
    });

    // Quiesce: bring the uncached server to the same logical state (the
    // single writer's op order is the op order), then byte-compare a
    // full replay.
    {
        let mut client = Client::connect(plain_addr).unwrap();
        for seg in &inserts {
            client.insert(*seg).unwrap();
        }
        client.flush().unwrap();
    }
    let mut cached = raw_connect(cached_addr);
    let mut plain = raw_connect(plain_addr);
    for (i, req) in pool.iter().enumerate() {
        let frame = req.encode_v3(i as u32, 0);
        assert_eq!(
            raw_call(&mut cached, &frame),
            raw_call(&mut plain, &frame),
            "post-quiesce frame {i} ({req:?}) diverged"
        );
    }
    // Replay again: now pure hits, still identical.
    for (i, req) in pool.iter().enumerate() {
        let frame = req.encode_v3(i as u32, 0);
        assert_eq!(
            raw_call(&mut cached, &frame),
            raw_call(&mut plain, &frame),
            "post-quiesce hit frame {i} diverged"
        );
    }
    Client::connect(cached_addr).unwrap().shutdown().unwrap();
    Client::connect(plain_addr).unwrap().shutdown().unwrap();
    cached_handle.join().unwrap();
    plain_handle.join().unwrap();
}

/// The epoch protocol the cache keys on: every applied insert, every
/// applicable delete, and every flush ticks the epoch exactly once; a
/// delete of a never-assigned id does not; and concurrent observers
/// only ever see it move forward.
#[test]
fn epoch_ticks_exactly_once_per_applied_mutation_and_never_regresses() {
    let spec = county_spec(300);
    let map = lsdb_tiger::generate(&spec);
    let base = map.len() as u32;
    let live = std::sync::Arc::new(LiveIndex::volatile(Box::new(RTree::bulk_load(
        &map,
        county_cfg(),
    ))));
    assert_eq!(live.epoch(), 0);

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let live_obs = std::sync::Arc::clone(&live);
        let stop = &stop;
        s.spawn(move || {
            let mut last = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let now = live_obs.epoch();
                assert!(now >= last, "epoch regressed: {last} -> {now}");
                last = now;
                std::thread::yield_now();
            }
        });

        let mut uniform = UniformGen::new(0xE60C);
        let mut expected = 0u64;
        for i in 0..30 {
            let a = uniform.next_point();
            let seg = Segment::new(a, Point::new(a.x.saturating_add(2), a.y));
            live.insert(seg).unwrap();
            expected += 1;
            if i % 3 == 0 {
                // Applicable delete (idempotent re-deletes still log
                // and still tick).
                live.remove(SegId(i as u32 % base)).unwrap();
                expected += 1;
            }
            if i % 10 == 0 {
                live.flush().unwrap();
                expected += 1;
            }
            // Out of range: not an applicable op, not logged, no tick.
            let (removed, _) = live.remove(SegId(u32::MAX - 1)).unwrap();
            assert!(!removed);
            assert_eq!(live.epoch(), expected);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}
