//! End-to-end tests of the TCP query service: concurrent clients must see
//! results and counters byte-identical to in-process execution, malformed
//! requests (older envelopes included) must come back as structured error
//! frames (not dropped connections), and `SHUTDOWN` must drain gracefully.

use lsdb_core::pointgen::{EndpointGen, UniformGen, WindowGen};
use lsdb_core::{
    brute, queries, IndexConfig, LiveIndex, PolygonalMap, QueryCtx, QueryStats, SegId, SpatialIndex,
};
use lsdb_geom::{Point, Rect, Segment};
use lsdb_server::protocol::{
    decode_reply, read_frame, write_frame, FrameEvent, MAX_REPLY_FRAME, MAX_REQUEST_FRAME,
    V3_MARKER,
};
use lsdb_server::{
    Catalog, Client, ErrorCode, Reply, Request, Server, ServerConfig, ServerError, MAX_BATCH_ITEMS,
};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn test_map() -> PolygonalMap {
    lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "server-test",
        lsdb_tiger::CountyClass::Suburban,
        900,
        0x5EA5,
    ))
}

fn build(map: &PolygonalMap) -> Box<dyn SpatialIndex> {
    Box::new(lsdb_pmr::PmrQuadtree::build(
        map,
        lsdb_pmr::PmrConfig {
            index: IndexConfig::default(),
            ..Default::default()
        },
    ))
}

const MAX_STEPS: u32 = 2000;

/// A mixed stream covering all seven paper workloads (plus knn): the
/// endpoint queries double as Point1/Point2, the point queries as 1-stage
/// and 2-stage nearest/polygon streams.
fn mixed_stream(map: &PolygonalMap, n: usize, seed: u64) -> Vec<Request> {
    let mut endpoints = EndpointGen::new(map, seed ^ 0x1111);
    let mut uniform = UniformGen::new(seed ^ 0x2222);
    let mut windows = WindowGen::new(0.0001, seed ^ 0x4444);
    let mut reqs = Vec::new();
    for i in 0..n {
        let (id, p) = endpoints.next_endpoint();
        reqs.push(Request::Incident(p));
        reqs.push(Request::Second { id, at: p });
        let q = uniform.next_point();
        reqs.push(Request::Nearest(q));
        reqs.push(Request::Knn {
            at: q,
            k: (i % 5 + 1) as u32,
        });
        reqs.push(Request::Polygon {
            at: q,
            max_steps: MAX_STEPS,
        });
        reqs.push(Request::Window(windows.next_window()));
    }
    reqs
}

/// Execute one request in-process, exactly as the server does.
fn run_in_process(index: &dyn SpatialIndex, req: &Request) -> Reply {
    let mut ctx = QueryCtx::new();
    match *req {
        Request::Incident(p) => Reply::Segs {
            ids: index.find_incident(p, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Second { id, at } => Reply::Segs {
            ids: queries::second_endpoint(index, id, at, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Nearest(p) => Reply::Nearest {
            id: index.nearest(p, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Knn { at, k } => Reply::Segs {
            ids: index.nearest_k(at, k as usize, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Window(w) => Reply::Segs {
            ids: index.window(w, &mut ctx),
            stats: ctx.stats(),
        },
        Request::Polygon { at, max_steps } => {
            let walk = queries::enclosing_polygon(index, at, max_steps as usize, &mut ctx);
            Reply::Polygon {
                walk: walk.map(|w| (w.boundary, w.closed)),
                stats: ctx.stats(),
            }
        }
        _ => panic!("not a spatial query: {req:?}"),
    }
}

fn start_server(
    index: Box<dyn SpatialIndex>,
) -> (
    SocketAddr,
    std::thread::JoinHandle<lsdb_server::ServerReport>,
) {
    start_live(LiveIndex::volatile(index), 4)
}

fn start_live(
    live: LiveIndex,
    workers: usize,
) -> (
    SocketAddr,
    std::thread::JoinHandle<lsdb_server::ServerReport>,
) {
    let config = ServerConfig {
        workers,
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", Catalog::single(live), config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

/// Read one reply frame off a raw socket and decode its envelope.
fn raw_reply(stream: &mut TcpStream) -> (u32, Reply) {
    match read_frame(stream, MAX_REPLY_FRAME).unwrap() {
        FrameEvent::Frame(p) => decode_reply(&p).unwrap(),
        other => panic!("expected a frame, got {other:?}"),
    }
}

fn error_code(reply: &Reply) -> ErrorCode {
    match reply {
        Reply::Error { code, .. } => *code,
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// An envelope header (marker, correlation id, map 0) followed by
/// arbitrary body bytes.
fn enveloped(corr: u32, body: &[u8]) -> Vec<u8> {
    let mut frame = vec![V3_MARKER];
    frame.extend_from_slice(&corr.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

#[test]
fn concurrent_clients_match_in_process_execution_and_drain_cleanly() {
    let map = test_map();
    let stream = mixed_stream(&map, 25, 0xBEEF);

    // Ground truth: every request executed in-process, plus the summed
    // counters the server's STATS op must report per pass.
    let index = build(&map);
    let expected: Vec<Reply> = stream
        .iter()
        .map(|r| run_in_process(index.as_ref(), r))
        .collect();
    let mut expected_totals = QueryStats::default();
    for r in &expected {
        expected_totals.add(r.stats().unwrap());
    }
    const CLIENTS: usize = 4;
    let mut four = QueryStats::default();
    for _ in 0..CLIENTS {
        four.add(expected_totals);
    }

    // One event loop, fewer loops than clients, and as many. With three
    // loops the fifth connection (the final SHUTDOWN) is dealt to loop
    // 1, so the drain has to wake loops 0 and 2 from another thread.
    for workers in 1..=4 {
        let (addr, handle) = start_live(LiveIndex::volatile(build(&map)), workers);
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let stream = &stream;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.ping().unwrap();
                    for (i, req) in stream.iter().enumerate() {
                        let reply = client.call(req).unwrap();
                        assert_eq!(
                            &reply, &expected[i],
                            "{workers} loops, client {c}, request {i}: {req:?}"
                        );
                    }
                });
            }
        });

        // Counters aggregate across all clients exactly: four identical
        // passes, each a plain sum of per-query values.
        let mut client = Client::connect(addr).unwrap();
        let stats = client.stats_v3().unwrap();
        assert_eq!(stats.queries, (CLIENTS * stream.len()) as u64);
        assert_eq!(stats.totals, four, "{workers} loops");

        client.shutdown().unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.queries, (CLIENTS * stream.len()) as u64);
        assert_eq!(report.totals, four);
        assert_eq!(report.connections, (CLIENTS + 1) as u64);

        // The listener is gone: new connections are refused (allow a
        // moment for the OS to tear the socket down).
        std::thread::sleep(Duration::from_millis(100));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err());
    }
}

#[test]
fn malformed_requests_get_error_frames_not_hangups() {
    let map = test_map();
    let (addr, handle) = start_server(build(&map));

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Garbage opcode -> UnknownOp error frame echoing the correlation
    // id, connection stays up.
    write_frame(&mut raw, &enveloped(1, &[0x77, 1, 2, 3])).unwrap();
    let (corr, reply) = raw_reply(&mut raw);
    assert_eq!((corr, error_code(&reply)), (1, ErrorCode::UnknownOp));

    // Truncated incident request -> Malformed, still connected.
    write_frame(&mut raw, &enveloped(2, &[0x02, 9, 9])).unwrap();
    let (corr, reply) = raw_reply(&mut raw);
    assert_eq!((corr, error_code(&reply)), (2, ErrorCode::Malformed));

    // Trailing bytes after a valid ping -> Malformed, still connected.
    let mut ping = Request::Ping.encode_v3(3, 0);
    ping.push(0xAA);
    write_frame(&mut raw, &ping).unwrap();
    let (corr, reply) = raw_reply(&mut raw);
    assert_eq!((corr, error_code(&reply)), (3, ErrorCode::Malformed));

    // A header cut short (no room for the map id) -> Malformed.
    write_frame(&mut raw, &[V3_MARKER, 4, 0, 0, 0, 0]).unwrap();
    let (corr, reply) = raw_reply(&mut raw);
    assert_eq!((corr, error_code(&reply)), (4, ErrorCode::Malformed));

    // The same connection still answers real queries.
    write_frame(&mut raw, &Request::Ping.encode_v3(5, 0)).unwrap();
    assert_eq!(raw_reply(&mut raw), (5, Reply::Pong));

    // An oversized frame declaration gets an error frame echoing the
    // buffered envelope's correlation id, then the connection closes
    // (the stream cannot be resynchronized). The payload is never sent —
    // the declared length alone is the offense.
    let mut poison = (MAX_REQUEST_FRAME + 1).to_le_bytes().to_vec();
    poison.extend_from_slice(&enveloped(6, &[0u8; 16]));
    std::io::Write::write_all(&mut raw, &poison).unwrap();
    let (corr, reply) = raw_reply(&mut raw);
    assert_eq!((corr, error_code(&reply)), (6, ErrorCode::Oversized));
    match read_frame(&mut raw, MAX_REPLY_FRAME).unwrap() {
        FrameEvent::Eof => {}
        other => panic!("connection should be closed, got {other:?}"),
    }

    // A zero-length frame has no envelope to echo: correlation id 0.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    std::io::Write::write_all(&mut raw, &0u32.to_le_bytes()).unwrap();
    let (corr, reply) = raw_reply(&mut raw);
    assert_eq!((corr, error_code(&reply)), (0, ErrorCode::Oversized));

    // A bad argument (segment id beyond the map) is a structured error.
    let mut client = Client::connect(addr).unwrap();
    let e = client
        .call(&Request::Second {
            id: lsdb_core::SegId(u32::MAX - 1),
            at: lsdb_geom::Point::new(0, 0),
        })
        .unwrap_err();
    let server_err = e
        .get_ref()
        .and_then(|e| e.downcast_ref::<ServerError>())
        .unwrap();
    assert_eq!(server_err.code, ErrorCode::BadArgument);

    // A batch is refused whole for such an item, naming it, and for
    // holding one item more than the limit; the connection keeps serving.
    let p = lsdb_geom::Point::new(8000, 8000);
    let beyond = Request::Second {
        id: lsdb_core::SegId(map.len() as u32),
        at: p,
    };
    let e = server_error(client.call_batch(&[Request::Nearest(p), beyond]));
    assert_eq!(e.code, ErrorCode::BadArgument);
    assert!(e.message.starts_with("batch item 1: segment id"), "{e:?}");
    let over = vec![Request::Incident(p); MAX_BATCH_ITEMS + 1];
    let e = server_error(client.call_batch(&over));
    assert_eq!(e.code, ErrorCode::BadArgument);
    assert!(e.message.contains("item limit"), "{e:?}");
    let replies = client.call_batch(&over[..2]).unwrap();
    assert_eq!(replies.len(), 2);
    assert_eq!(replies[0], run_in_process(build(&map).as_ref(), &over[0]));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_batch_whose_reply_passes_the_frame_limit_is_refused_and_the_connection_serves_on() {
    // A full-world window over 5,000 segments answers about 20 KB, so a
    // batch of 1,000 of them would need a ~20 MB reply frame: more than
    // any client reads.
    let map = lsdb_tiger::generate(&lsdb_tiger::CountySpec::new(
        "reply-limit",
        lsdb_tiger::CountyClass::Suburban,
        5000,
        0x5EA6,
    ));
    let bulk = || Box::new(lsdb_rtree::RTree::bulk_load(&map, IndexConfig::default()));
    let (addr, handle) = start_server(bulk());
    let mut client = Client::connect_with_timeout(addr, Duration::from_secs(120)).unwrap();

    let world = Request::Window(lsdb_geom::world_rect());
    let e = server_error(client.call_batch(&vec![world; 1000]));
    assert_eq!(e.code, ErrorCode::Oversized);
    let limit = format!("over the {MAX_REPLY_FRAME}-byte reply limit");
    assert!(e.message.contains(&limit), "{e:?}");

    // The same connection answers the next query.
    let small = Request::Nearest(Point::new(8000, 8000));
    let reply = client.call(&small).unwrap();
    assert_eq!(reply, run_in_process(bulk().as_ref(), &small));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn closed_loop_loadgen_reproduces_in_process_counters() {
    let map = test_map();
    let index = build(&map);
    let stream = mixed_stream(&map, 20, 0xF00D);

    let mut expected_totals = QueryStats::default();
    let mut expected_items = 0u64;
    for req in &stream {
        let reply = run_in_process(index.as_ref(), req);
        expected_totals.add(reply.stats().unwrap());
        expected_items += reply.result_size() as u64;
    }

    let (addr, handle) = start_server(index);
    let report = lsdb_server::run_closed_loop(addr, &stream, 4).unwrap();
    assert_eq!(report.queries, stream.len());
    assert_eq!(report.connections, 4);
    assert_eq!(
        report.totals, expected_totals,
        "wire adds latency, never counters"
    );
    assert_eq!(report.result_items, expected_items);
    assert_eq!(report.latencies.len(), stream.len());
    assert!(report.latencies.windows(2).all(|w| w[0] <= w[1]), "sorted");
    assert!(report.p50() <= report.p95() && report.p95() <= report.p99());
    assert!(report.p99() <= report.max_latency());
    assert!(report.throughput_qps() > 0.0);

    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn pipelined_requests_complete_out_of_order_and_match_sequential() {
    let map = test_map();
    let index = build(&map);
    let stream = mixed_stream(&map, 10, 0xD1CE);

    let expected: Vec<Reply> = stream
        .iter()
        .map(|r| run_in_process(index.as_ref(), r))
        .collect();

    let (addr, handle) = start_server(index);

    // High-level: N interleaved requests on one connection, sent before
    // any reply is read; replies matched by correlation id must be
    // byte-identical to sequential execution.
    let mut client = Client::connect(addr).unwrap();
    let replies = client.pipeline(&stream).unwrap();
    assert_eq!(replies.len(), expected.len());
    for (i, (got, want)) in replies.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "pipelined request {i}: {:?}", stream[i]);
    }

    // Raw wire: a slow executor-bound query pipelined ahead of an
    // inline-answered ping completes *after* it — replies genuinely
    // leave out of submission order, matched only by correlation id.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let slow = Request::Polygon {
        at: lsdb_geom::Point::new(8192, 8192),
        max_steps: MAX_STEPS,
    };
    let mut both = Vec::new();
    for (corr, req) in [(7u32, &slow), (8u32, &Request::Ping)] {
        let payload = req.encode_v3(corr, 0);
        both.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        both.extend_from_slice(&payload);
    }
    // One write: both frames arrive in one readiness event, so the ping
    // is answered inline before the polygon's completion can be routed.
    std::io::Write::write_all(&mut raw, &both).unwrap();
    let (first_corr, first) = raw_reply(&mut raw);
    let (second_corr, second) = raw_reply(&mut raw);
    assert_eq!(first_corr, 8, "ping overtakes the slow polygon");
    assert_eq!(first, Reply::Pong);
    assert_eq!(second_corr, 7);
    assert!(matches!(second, Reply::Polygon { .. }));
    drop(raw);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn older_envelopes_are_refused_and_the_connection_keeps_serving() {
    let map = test_map();
    let index = build(&map);
    let stream = mixed_stream(&map, 4, 0xA11CE);
    let expected: Vec<Reply> = stream
        .iter()
        .map(|r| run_in_process(index.as_ref(), r))
        .collect();
    let (addr, handle) = start_server(index);

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut corr = 100u32;
    for req in stream.iter().chain([&Request::Ping, &Request::Stats]) {
        // A v1 frame (opcode first) and a v2 frame (0xB2 marker +
        // correlation id, no map) each draw UnsupportedVersion in the v3
        // envelope; neither header is readable, so the id echoed is 0.
        let mut v2 = vec![0xB2];
        v2.extend_from_slice(&7u32.to_le_bytes());
        v2.extend_from_slice(&req.encode());
        for old in [req.encode(), v2] {
            write_frame(&mut raw, &old).unwrap();
            let (got, reply) = raw_reply(&mut raw);
            assert_eq!(
                (got, error_code(&reply)),
                (0, ErrorCode::UnsupportedVersion),
                "{req:?}"
            );
        }
    }
    // HELLO in the v3 envelope: an offer below 3 is refused, 3 and
    // above are answered with 3.
    for (offer, want) in [(1, None), (2, None), (3, Some(3)), (4, Some(3))] {
        corr += 1;
        write_frame(
            &mut raw,
            &Request::Hello { version: offer }.encode_v3(corr, 0),
        )
        .unwrap();
        let (got, reply) = raw_reply(&mut raw);
        assert_eq!(got, corr);
        match want {
            Some(version) => assert_eq!(reply, Reply::Hello { version }),
            None => assert_eq!(error_code(&reply), ErrorCode::UnsupportedVersion),
        }
    }
    // The refusals changed nothing: the same connection serves v3 and
    // every reply matches in-process execution.
    for (req, want) in stream.iter().zip(&expected) {
        corr += 1;
        write_frame(&mut raw, &req.encode_v3(corr, 0)).unwrap();
        assert_eq!(raw_reply(&mut raw), (corr, want.clone()), "{req:?}");
    }
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats_v3().unwrap().queries, stream.len() as u64);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn batched_execution_matches_singleton_counters_over_the_wire() {
    let map = test_map();
    let index = build(&map);
    let mut windows = WindowGen::new(0.0001, 0xB17C4);
    let windows: Vec<Request> = (0..200)
        .map(|_| Request::Window(windows.next_window()))
        .collect();
    // A one-kind batch, then every query kind mixed in one batch.
    let batches = [windows, mixed_stream(&map, 30, 0xBA7C)];

    // Ground truth: each item as a singleton, fresh context.
    let expected: Vec<Vec<Reply>> = batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|req| run_in_process(index.as_ref(), req))
                .collect()
        })
        .collect();

    let (addr, handle) = start_server(index);
    let mut client = Client::connect(addr).unwrap();
    for (batch, expected) in batches.iter().zip(&expected) {
        let replies = client.call_batch(batch).unwrap();
        assert_eq!(replies.len(), expected.len());
        for (i, (got, want)) in replies.iter().zip(expected).enumerate() {
            assert_eq!(got, want, "batch item {i} must be byte-identical");
        }
    }

    // STATS counts each batch item as one query, with the same totals a
    // singleton stream would produce.
    let stats = client.stats_v3().unwrap();
    let expected: Vec<&Reply> = expected.iter().flatten().collect();
    assert_eq!(stats.queries, expected.len() as u64);
    let mut expected_totals = QueryStats::default();
    for r in expected {
        expected_totals.add(r.stats().unwrap());
    }
    assert_eq!(stats.totals, expected_totals);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn open_loop_loadgen_measures_and_matches_counters() {
    let map = test_map();
    let index = build(&map);
    let stream = mixed_stream(&map, 10, 0xFA57);

    let mut expected_totals = QueryStats::default();
    for req in &stream {
        expected_totals.add(run_in_process(index.as_ref(), req).stats().unwrap());
    }

    let (addr, handle) = start_server(index);
    let report = lsdb_server::run_open_loop(addr, &stream, 2, 2000.0).unwrap();
    assert_eq!(report.queries, stream.len());
    assert_eq!(report.totals, expected_totals);
    assert_eq!(report.latencies.len(), stream.len());
    assert!(report.p50() <= report.p99() && report.p99() <= report.p999());
    assert!(report.p999() <= report.max_latency());

    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn rstar_serves_identically_too() {
    // The server is structure-agnostic: spot-check a second index kind.
    let map = test_map();
    let index: Box<dyn SpatialIndex> = Box::new(lsdb_rtree::RTree::build(
        &map,
        IndexConfig::default(),
        lsdb_rtree::RTreeKind::RStar,
    ));
    let stream = mixed_stream(&map, 8, 0xABBA);
    let expected: Vec<Reply> = stream
        .iter()
        .map(|r| run_in_process(index.as_ref(), r))
        .collect();

    let (addr, handle) = start_server(index);
    let mut client = Client::connect(addr).unwrap();
    for (req, want) in stream.iter().zip(&expected) {
        assert_eq!(&client.call(req).unwrap(), want);
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn live_mutations_apply_over_the_wire_while_readers_run() {
    let map = test_map();
    let index = build(&map);
    let base_len = map.segments.len() as u32;
    let (addr, handle) = start_server(index);

    // Readers hammer queries on their own connections while this thread
    // mutates: no reply may be malformed, every returned id must resolve.
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for seed in 0..2u64 {
            let stop = &stop;
            let map = &map;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let stream = mixed_stream(map, 4, 0xD00D ^ seed);
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    for req in &stream {
                        client.call(req).unwrap();
                    }
                }
            });
        }

        let mut writer = Client::connect(addr).unwrap();
        // A segment tucked into the top-right of the 16K world, where the
        // generated county has no endpoints: queries at its endpoint see
        // exactly it.
        let seg = lsdb_geom::Segment {
            a: lsdb_geom::Point::new(16_001, 16_003),
            b: lsdb_geom::Point::new(16_011, 16_003),
        };
        let (id, lsn) = writer.insert(seg).unwrap();
        assert_eq!(id, lsdb_core::SegId(base_len));
        assert_eq!(lsn, 1, "a fresh log's first op");

        match writer.call(&Request::Incident(seg.a)).unwrap() {
            Reply::Segs { ids, .. } => assert_eq!(ids, vec![id]),
            other => panic!("unexpected reply {other:?}"),
        }

        let (removed, _) = writer.delete(id).unwrap();
        assert!(removed);
        let (removed, _) = writer.delete(id).unwrap();
        assert!(!removed, "second delete of the same id is a no-op");
        match writer.call(&Request::Incident(seg.a)).unwrap() {
            Reply::Segs { ids, .. } => assert!(ids.is_empty()),
            other => panic!("unexpected reply {other:?}"),
        }

        // Flush syncs the (volatile) op log and answers its last LSN;
        // LSNs keep rising across it.
        let flushed = writer.flush().unwrap();
        assert_eq!(flushed, lsn + 2, "two deletes since the insert");
        let (_, lsn) = writer.insert(seg).unwrap();
        assert_eq!(lsn, flushed + 1);

        stop.store(true, std::sync::atomic::Ordering::Release);
    });

    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn out_of_world_and_degenerate_inserts_are_refused_before_the_wal() {
    // The PMR quadtree cannot place a point outside its 16K world, and
    // no structure's queries can take a zero-length segment (its angle
    // has no direction). Such an insert must be refused up front, not
    // committed and then applied (which panics in debug builds, and the
    // replay after it). One loop: a dead loop would stall every later
    // request.
    let map = test_map();
    let base = map.segments.len() as u64;
    let (addr, handle) = start_live(LiveIndex::volatile(build(&map)), 1);
    let mut client = Client::connect(addr).unwrap();
    let edge = lsdb_geom::WORLD_SIZE;
    for (a, b) in [
        ((edge, 100), (edge - 10, 100)),
        ((100, 100), (100, -1)),
        ((-5, -5), (-1, -1)),
        ((i32::MAX, i32::MIN), (0, 0)),
        ((100, 100), (100, 100)),
    ] {
        let seg = lsdb_geom::Segment {
            a: lsdb_geom::Point::new(a.0, a.1),
            b: lsdb_geom::Point::new(b.0, b.1),
        };
        let err = client.insert(seg).unwrap_err();
        let code = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<ServerError>())
            .map(|se| se.code);
        assert_eq!(code, Some(ErrorCode::BadArgument), "{seg:?}");
    }
    // The same connection keeps answering queries, and nothing landed.
    let probe = Request::Window(lsdb_geom::Rect::new(0, 0, edge - 1, edge - 1));
    match client.call(&probe).unwrap() {
        Reply::Segs { ids, .. } => assert_eq!(ids.len() as u64, base),
        other => panic!("unexpected reply {other:?}"),
    }
    assert_eq!(client.open_map("default").unwrap(), (0, base));
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The server's error frame behind a refused call.
fn server_error<T: std::fmt::Debug>(result: std::io::Result<T>) -> ServerError {
    let err = result.expect_err("the call must be refused");
    err.get_ref()
        .and_then(|e| e.downcast_ref::<ServerError>())
        .unwrap_or_else(|| panic!("not a server error: {err}"))
        .clone()
}

/// The error code of a refused call, `None` if it was answered.
fn refusal<T>(result: std::io::Result<T>) -> Option<ErrorCode> {
    let err = result.err()?;
    err.get_ref()?
        .downcast_ref::<ServerError>()
        .map(|se| se.code)
}

/// A 7×7 lattice of 2000-unit blocks: 84 axis-parallel segments that
/// meet only at their endpoints.
fn lattice_map() -> PolygonalMap {
    let at = |i: i32| 1000 + 2000 * i;
    let mut segments = Vec::new();
    for i in 0..7 {
        for j in 0..6 {
            segments.push(Segment::new(
                Point::new(at(j), at(i)),
                Point::new(at(j + 1), at(i)),
            ));
            segments.push(Segment::new(
                Point::new(at(i), at(j)),
                Point::new(at(i), at(j + 1)),
            ));
        }
    }
    PolygonalMap::new("lattice", segments)
}

#[test]
fn out_of_world_query_points_are_refused_and_any_window_is_exact() {
    // A query point must lie in the world, as an inserted segment must:
    // the PMR quadtree cannot locate anything else, and the distance
    // arithmetic is exact only near the world. Every structure refuses
    // such a point in each point query, singly and inside a batch. A
    // window may have any extent and answers exactly what brute force
    // answers.
    let map = lattice_map();
    let cfg = IndexConfig::default();
    let structures: [Box<dyn SpatialIndex>; 4] = [
        Box::new(lsdb_rtree::RTree::build(
            &map,
            cfg,
            lsdb_rtree::RTreeKind::RStar,
        )),
        Box::new(lsdb_rplus::RPlusTree::build(&map, cfg)),
        Box::new(lsdb_pmr::PmrQuadtree::build(
            &map,
            lsdb_pmr::PmrConfig {
                index: cfg,
                ..Default::default()
            },
        )),
        Box::new(lsdb_grid::UniformGrid::build(&map, cfg, 64)),
    ];
    let edge = lsdb_geom::WORLD_SIZE;
    let outside = [
        Point::new(-5, 50),
        Point::new(20000, 20000),
        Point::new(i32::MIN, i32::MAX),
        Point::new(edge, 0),
    ];
    let windows = [
        Rect::new(-100, -100, -1, -1),
        Rect::new(i32::MIN, i32::MIN, i32::MAX, i32::MAX),
        Rect::new(20000, 20000, 30000, 30000),
        Rect::new(-50, 90, 150, 4000),
    ];
    for index in structures {
        let name = index.name();
        let (addr, handle) = start_live(LiveIndex::volatile(index), 1);
        let mut client = Client::connect(addr).unwrap();
        for p in outside {
            for req in [
                Request::Incident(p),
                Request::Second {
                    id: SegId(0),
                    at: p,
                },
                Request::Nearest(p),
                Request::Knn { at: p, k: 3 },
                Request::Polygon {
                    at: p,
                    max_steps: MAX_STEPS,
                },
            ] {
                let got = refusal(client.call(&req));
                assert_eq!(got, Some(ErrorCode::BadArgument), "{name}: {req:?}");
            }
            let batch = [
                Request::Nearest(Point::new(5000, 5000)),
                Request::Nearest(p),
            ];
            let got = refusal(client.call_batch(&batch));
            assert_eq!(got, Some(ErrorCode::BadArgument), "{name}: batch at {p:?}");
        }
        for w in windows {
            let want = brute::sorted(brute::window(&map, w));
            match client.call(&Request::Window(w)).unwrap() {
                Reply::Segs { ids, .. } => assert_eq!(brute::sorted(ids), want, "{name}: {w:?}"),
                other => panic!("{name}: unexpected reply {other:?}"),
            }
        }
        // An in-world point on the same connection is still answered.
        let p = Point::new(1000, 1000);
        let want = brute::sorted(brute::incident(&map, p));
        match client.call(&Request::Incident(p)).unwrap() {
            Reply::Segs { ids, .. } => assert_eq!(brute::sorted(ids), want, "{name}"),
            other => panic!("{name}: unexpected reply {other:?}"),
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}

#[test]
fn a_panicking_job_is_answered_internal_and_its_loop_keeps_serving() {
    // One loop hosts a live map and a buildable map whose builder
    // panics. The panic must stay inside its own request: the loop
    // thread, its other connections and the listener all survive.
    let map = test_map();
    let probe = mixed_stream(&map, 2, 0x9A1C);
    let index = build(&map);
    let expected: Vec<Reply> = probe
        .iter()
        .map(|r| run_in_process(index.as_ref(), r))
        .collect();
    let mut catalog = Catalog::new(0, 4);
    let live = catalog.add_live("live", LiveIndex::volatile(index));
    let boom = catalog.add_map("boom", Box::new(|| panic!("builder exploded")));
    let config = ServerConfig {
        workers: 1,
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());

    let builder_panicked = |err: std::io::Error| {
        let server_err = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<ServerError>())
            .unwrap_or_else(|| panic!("expected an error frame, got {err}"));
        assert_eq!(server_err.code, ErrorCode::Internal);
        assert!(
            server_err.message.contains("builder exploded"),
            "{}",
            server_err.message
        );
    };
    let mut client = Client::connect(addr).unwrap();
    builder_panicked(client.open_map("boom").unwrap_err());
    // A refused query point never opens a cold map, singly or in a
    // batch: the builder would answer `Internal`.
    let outside = Request::Nearest(Point::new(-1, 5));
    let inside = Request::Nearest(Point::new(5, 5));
    for req in [
        outside.clone(),
        Request::Batch(vec![inside.clone(), outside]),
    ] {
        let refused = refusal(client.call_on(boom, &req));
        assert_eq!(refused, Some(ErrorCode::BadArgument), "{req:?}");
    }
    builder_panicked(client.call_on(boom, &inside).unwrap_err());

    // The same connection answers the live map exactly as in-process
    // execution does, on the loop's fresh context.
    for (req, want) in probe.iter().zip(&expected) {
        let got = client.call_on(live, req).unwrap();
        assert_eq!(got.encode(), want.encode(), "{req:?}");
    }

    // The builder panicked under its slot's write lock. The requests
    // that walk every slot still answer, and re-opening the map runs
    // the builder again rather than tripping over the poisoned lock.
    let stats = client.stats_v3().unwrap();
    assert_eq!((stats.queries, stats.maps.len()), (probe.len() as u64, 2));
    let listed: Vec<(String, bool)> = client
        .list_maps()
        .unwrap()
        .into_iter()
        .map(|m| (m.name, m.open))
        .collect();
    assert_eq!(
        listed,
        [("live".to_string(), true), ("boom".to_string(), false)]
    );
    builder_panicked(client.open_map("boom").unwrap_err());

    // The listener still accepts, and the drain still completes.
    let mut other = Client::connect(addr).unwrap();
    other.ping().unwrap();
    other.shutdown().unwrap();
    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.queries, probe.len() as u64);
}

#[test]
fn acknowledged_wire_mutations_survive_a_server_restart() {
    // Round one: an empty durable store served over TCP; every mutation
    // acknowledged over the wire. Round two: reopen the same file,
    // replay, and the queries must answer as if the server never died.
    let dir = std::env::temp_dir().join(format!("lsdb-server-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ops.log");
    let _ = std::fs::remove_file(&path);
    let empty = PolygonalMap::new("live", Vec::new());
    let segs: Vec<lsdb_geom::Segment> = (0..40)
        .map(|i| lsdb_geom::Segment {
            a: lsdb_geom::Point::new(i * 10, 0),
            b: lsdb_geom::Point::new(i * 10 + 7, 50),
        })
        .collect();
    let open = || {
        let log = lsdb_core::FileLog::open(&path).unwrap();
        lsdb_core::DurableMap::open(Box::new(log), &empty.segments).unwrap()
    };

    let probe = Request::Window(lsdb_geom::Rect::new(-10, -10, 500, 100));
    let served = {
        let (dmap, _) = open();
        let (addr, handle) = start_live(LiveIndex::new(build(&empty), dmap), 2);

        let mut client = Client::connect(addr).unwrap();
        for (i, seg) in segs.iter().enumerate() {
            let (id, lsn) = client.insert(*seg).unwrap();
            assert_eq!(id.0 as usize, i);
            assert_eq!(lsn, i as u64 + 1, "an op's lsn is its position in the log");
        }
        // Mix in deletes around a mid-stream flush: LSNs keep rising
        // across it.
        client.delete(lsdb_core::SegId(3)).unwrap();
        assert_eq!(client.flush().unwrap(), 41);
        let (_, lsn) = client.delete(lsdb_core::SegId(17)).unwrap();
        assert_eq!(lsn, 42);
        let reply = client.call(&probe).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
        reply
    };

    // "Restart": recover purely from the file and replay into a fresh
    // empty index of the same structure.
    let (dmap, report) = open();
    assert_eq!(
        report.ops.len(),
        segs.len() + 2,
        "all acknowledged ops recovered"
    );
    assert_eq!(report.discarded, 0);
    assert_eq!(
        dmap.last_lsn(),
        lsdb_core::Lsn(42),
        "LSNs continue after a restart"
    );
    let mut index = build(&empty);
    report.replay_into(index.as_mut());
    let recovered = run_in_process(index.as_ref(), &probe);

    match (&served, &recovered) {
        (Reply::Segs { ids: a, .. }, Reply::Segs { ids: b, .. }) => {
            assert_eq!(a, b, "recovered index answers exactly as the live one did")
        }
        other => panic!("unexpected replies {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
