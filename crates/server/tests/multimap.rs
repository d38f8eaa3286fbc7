//! Cross-map isolation suite: one server hosting many county maps under
//! a shared buffer budget must answer every routed query — results *and*
//! per-query paper counters — byte-identically to a dedicated single-map
//! run of that county, including while the budget forces page shedding
//! and the open-map cap forces close/reopen churn.

use lsdb_core::pointgen::{EndpointGen, UniformGen, WindowGen};
use lsdb_core::{queries, IndexConfig, PolygonalMap, QueryCtx, SpatialIndex};
use lsdb_rtree::RTree;
use lsdb_server::protocol::{decode_reply, read_frame, write_frame, FrameEvent, MAX_REPLY_FRAME};
use lsdb_server::{Catalog, Client, ErrorCode, Reply, Request, Server, ServerConfig, ServerError};
use lsdb_tiger::{continent, CountySpec};
use std::net::SocketAddr;
use std::time::Duration;

/// Small pages and a generous per-map pool: the page footprint is real,
/// so a process-wide budget below the combined footprint exerts genuine
/// eviction pressure.
fn county_cfg() -> IndexConfig {
    IndexConfig {
        page_size: 512,
        pool_pages: 256,
    }
}

fn county_index(spec: &CountySpec) -> Box<dyn SpatialIndex> {
    let map = lsdb_tiger::generate(spec);
    Box::new(RTree::bulk_load(&map, county_cfg()))
}

fn catalog_for(specs: &[CountySpec], budget: u64, max_open: usize) -> Catalog {
    let mut catalog = Catalog::new(budget, max_open);
    for spec in specs {
        let spec = spec.clone();
        catalog.add_map(
            &spec.name.clone(),
            Box::new(move || Ok(county_index(&spec))),
        );
    }
    catalog
}

fn start_catalog_server(
    catalog: Catalog,
) -> (
    SocketAddr,
    std::thread::JoinHandle<lsdb_server::ServerReport>,
) {
    let config = ServerConfig {
        workers: 3,
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

/// A mixed per-county stream over all the paper's query shapes.
fn mixed_stream(map: &PolygonalMap, rounds: usize, seed: u64) -> Vec<Request> {
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

/// The single-map reference: execute `req` on a dedicated index exactly
/// as the server's executor does.
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

/// The tentpole acceptance test: 16 county maps behind one server, a
/// budget well below their combined page footprint, queries interleaved
/// round-robin across every map — each reply (ids, walk, *and* the three
/// paper counters) must equal the dedicated single-map run, and the
/// budget must have forced real evictions along the way.
#[test]
fn sixteen_maps_under_budget_answer_byte_identically_to_single_map_runs() {
    const K: usize = 16;
    const SEGS: usize = 1200;
    let specs = continent(K, SEGS, 0xC0FFEE);

    // Dedicated single-map references, one fresh index per county.
    let streams: Vec<Vec<Request>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| mixed_stream(&lsdb_tiger::generate(spec), 3, 0xA11CE ^ i as u64))
        .collect();
    let expected: Vec<Vec<Reply>> = specs
        .iter()
        .zip(&streams)
        .map(|(spec, stream)| {
            let index = county_index(spec);
            stream
                .iter()
                .map(|req| run_in_process(index.as_ref(), req))
                .collect()
        })
        .collect();
    let combined_footprint: u64 = specs
        .iter()
        .map(|spec| county_index(spec).size_bytes())
        .sum();
    let budget = combined_footprint / 6;
    assert!(budget > 0, "footprint {combined_footprint} too small");

    let (addr, handle) = start_catalog_server(catalog_for(&specs, budget, K));
    let mut client = Client::connect(addr).unwrap();
    let ids: Vec<u32> = specs
        .iter()
        .map(|spec| client.open_map(&spec.name).unwrap().0)
        .collect();

    // Interleave: query j of every map, round-robin — the adversarial
    // schedule for cross-map cache pollution.
    for j in 0..streams[0].len() {
        for m in 0..K {
            let got = client.call_on(ids[m], &streams[m][j]).unwrap();
            assert_eq!(
                got, expected[m][j],
                "map {} query {j} diverged from its single-map run",
                specs[m].name
            );
        }
    }

    let stats = client.stats_v3().unwrap();
    assert_eq!(stats.budget.total, budget);
    assert!(
        stats.budget.used <= stats.budget.total,
        "budget overshot: {} of {}",
        stats.budget.used,
        stats.budget.total
    );
    let evictions: u64 = stats.maps.iter().map(|m| m.cache.evictions).sum();
    assert!(
        evictions > 0,
        "a budget below footprint must force evictions"
    );
    let per_map_queries: u64 = stats.maps.iter().map(|m| m.queries).sum();
    assert_eq!(
        per_map_queries, stats.queries,
        "per-map counters must fold to the aggregate"
    );
    assert_eq!(stats.queries, (K * streams[0].len()) as u64);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Close/reopen churn: an open-map cap far below the map count forces
/// the catalog's clock to close cold maps mid-run; lazily rebuilt maps
/// must keep answering byte-identically.
#[test]
fn lru_close_reopen_churn_preserves_answers_and_counters() {
    const K: usize = 5;
    let specs = continent(K, 700, 0xD15C);
    let streams: Vec<Vec<Request>> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| mixed_stream(&lsdb_tiger::generate(spec), 2, 0xFEED ^ i as u64))
        .collect();
    let expected: Vec<Vec<Reply>> = specs
        .iter()
        .zip(&streams)
        .map(|(spec, stream)| {
            let index = county_index(spec);
            stream
                .iter()
                .map(|req| run_in_process(index.as_ref(), req))
                .collect()
        })
        .collect();

    let (addr, handle) = start_catalog_server(catalog_for(&specs, 0, 2));
    let mut client = Client::connect(addr).unwrap();
    let ids: Vec<u32> = specs
        .iter()
        .map(|spec| client.open_map(&spec.name).unwrap().0)
        .collect();
    // Two full passes: the second pass queries maps the cap closed.
    for _pass in 0..2 {
        for j in 0..streams[0].len() {
            for m in 0..K {
                let got = client.call_on(ids[m], &streams[m][j]).unwrap();
                assert_eq!(got, expected[m][j]);
            }
        }
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The catalog admin surface over the wire: open/list/close round-trips,
/// unknown maps come back as structured `UnknownMap` errors, and raw
/// frames addressed to map 0 answer as the client's routing does.
#[test]
fn admin_ops_and_raw_frames_route_as_specified() {
    let specs = continent(3, 400, 0xBEE);
    let (addr, handle) = start_catalog_server(catalog_for(&specs, 0, 3));
    let mut client = Client::connect(addr).unwrap();

    // LIST sees every map, cold at first.
    let listed = client.list_maps().unwrap();
    assert_eq!(listed.len(), 3);
    assert!(listed.iter().all(|m| !m.open));
    let names: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, vec!["c0-0", "c0-1", "c1-0"]);

    // OPEN builds and reports the segment count; CLOSE round-trips.
    let (id, len) = client.open_map("c0-1").unwrap();
    assert_eq!(id, 1);
    assert!(len > 0);
    assert!(client.list_maps().unwrap()[1].open);
    assert!(client.close_map("c0-1").unwrap());
    assert!(!client.close_map("c0-1").unwrap(), "already cold");

    // Unknown names and ids are structured errors, not hangups.
    let err = client.open_map("atlantis").unwrap_err();
    let code = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<ServerError>())
        .map(|se| se.code);
    assert_eq!(code, Some(ErrorCode::UnknownMap));
    let err = client
        .call_on(99, &Request::Nearest(lsdb_geom::Point::new(0, 0)))
        .unwrap_err();
    let code = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<ServerError>())
        .map(|se| se.code);
    assert_eq!(code, Some(ErrorCode::UnknownMap));

    // A hand-built frame to map 0 on a fresh connection gets the same
    // answer as the client's routing, under its own correlation id.
    let probe = Request::Nearest(lsdb_geom::Point::new(500, 500));
    let via_client = client.call_on(0, &probe).unwrap();
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut raw, &probe.encode_v3(7, 0)).unwrap();
    let payload = match read_frame(&mut raw, MAX_REPLY_FRAME).unwrap() {
        FrameEvent::Frame(p) => p,
        other => panic!("expected a reply frame, got {other:?}"),
    };
    let (corr, via_raw) = decode_reply(&payload).unwrap();
    assert_eq!(corr, 7);
    assert_eq!(via_raw, via_client);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Continental build smoke (CI runs this in release): four ~20k-segment
/// counties bulk-build into both packed tree shapes and answer a window
/// probe identically to each other structure's view of the same county.
#[test]
#[ignore = "continental smoke: run in release (cargo test --release -- --ignored)"]
fn four_county_continental_build_smoke() {
    let specs = continent(4, 20_000, 0x51_6D0D);
    for spec in &specs {
        let map = lsdb_tiger::generate(spec);
        assert!(
            map.len() > 15_000,
            "{} came up short: {}",
            spec.name,
            map.len()
        );
        let rtree = RTree::bulk_load(&map, county_cfg());
        let rplus = lsdb_rplus::RPlusTree::bulk_load(&map, county_cfg());
        assert_eq!(rtree.len(), map.len());
        assert_eq!(rplus.len(), map.len());
        let bbox = map.bbox().unwrap();
        let mut ctx = QueryCtx::new();
        let mut a = rtree.window(bbox, &mut ctx);
        let mut b = rplus.window(bbox, &mut ctx);
        a.sort();
        b.sort();
        b.dedup();
        assert_eq!(
            a.len(),
            map.len(),
            "{}: full-extent window must see all",
            spec.name
        );
        assert_eq!(a, b, "{}: packed trees disagree", spec.name);
    }
}
