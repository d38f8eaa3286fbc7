//! Multi-map serving benchmark: one server, K county maps, one global
//! buffer budget.
//!
//! For each fleet size K in the sweep the binary builds a catalog of K
//! synthetic TIGER counties (deterministic `lsdb-tiger` specs, STR
//! bulk-packed R*-trees), binds an in-process catalog server, and drives an
//! open-loop routed workload whose per-request map choice follows a
//! Zipf(θ) popularity law — the canonical skew of a multi-tenant tile
//! service, where a few metro counties absorb most of the traffic.
//!
//! The buffer budget is fixed across the sweep at ~5.5× one county's
//! page footprint, so the small fleets fit comfortably while K ≥ 8
//! overcommits it and the cross-map second-chance evictor has to earn
//! its keep. The interesting columns are therefore the latency tail and
//! the disk reads per query as K crosses the budget line, with the
//! eviction count confirming the pressure is real.
//!
//! Usage: `multimap [--queries N] [--qps Q] [--connections C]
//!                  [--theta T] [--county-segments S] [--json PATH]`
//!
//! `--json` writes `BENCH_multimap.json`: run parameters plus one row
//! per fleet size. Counter columns are deterministic; only the wall/
//! latency fields vary run to run.

use lsdb_bench::json::write_file;
use lsdb_core::pointgen::{EndpointGen, UniformGen, WindowGen};
use lsdb_core::{IndexConfig, SpatialIndex};
use lsdb_rng::StdRng;
use lsdb_rtree::RTree;
use lsdb_server::{run_open_loop_routed, Catalog, Client, Request, Server, ServerConfig};
use lsdb_tiger::{continent, CountySpec};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Fleet sizes swept; the budget line sits between 4 and 8.
const FLEETS: [usize; 5] = [2, 4, 8, 16, 24];

/// Base seed for the synthetic continent (shared with the CLI default
/// so `lsdb serve --continent` hosts the same counties).
const CONTINENT_SEED: u64 = 0x7161;

/// Requests pre-generated per county, cycled as the Zipf sampler lands
/// on the map.
const STREAM_LEN: usize = 256;

/// Paper-style 1 KB pages with a pool *smaller* than one county's tree,
/// so the logical miss counters stay nonzero (and — because paper
/// counters are independent of budget shedding — provably identical
/// across fleet sizes: the isolation column of the sweep).
fn county_cfg() -> IndexConfig {
    IndexConfig {
        page_size: 1024,
        pool_pages: 48,
    }
}

fn county_index(spec: &CountySpec) -> Box<dyn SpatialIndex> {
    let map = lsdb_tiger::generate(spec);
    Box::new(RTree::bulk_load(&map, county_cfg()))
}

/// Mixed per-county request stream: the paper's point queries plus
/// small windows, in a fixed rotation.
fn county_stream(spec: &CountySpec, len: usize) -> Vec<Request> {
    let map = lsdb_tiger::generate(spec);
    let mut endpoints = EndpointGen::new(&map, spec.seed ^ 0x5711);
    let mut uniform = UniformGen::new(spec.seed ^ 0x17E0);
    let mut windows = WindowGen::new(0.0005, spec.seed ^ 0x3A11);
    (0..len)
        .map(|i| match i % 4 {
            0 => Request::Incident(endpoints.next_endpoint().1),
            1 => Request::Nearest(uniform.next_point()),
            2 => Request::Knn {
                at: uniform.next_point(),
                k: (i % 3 + 1) as u32,
            },
            _ => Request::Window(windows.next_window()),
        })
        .collect()
}

/// Cumulative Zipf(θ) popularity over `k` maps.
fn zipf_cdf(k: usize, theta: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

/// Run parameters shared by every fleet in the sweep.
struct Params {
    queries: usize,
    qps: f64,
    connections: usize,
    theta: f64,
    segments: usize,
}

struct Row {
    maps: usize,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    disk_reads_per_query: f64,
    evictions: u64,
    budget_used: u64,
}

fn ms(d: Duration) -> f64 {
    (d.as_secs_f64() * 1_000_000.0).round() / 1000.0
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn render(p: &Params, budget: u64, per_map: u64, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"multimap\",\n");
    let _ = writeln!(out, "  \"county_segments\": {},", p.segments);
    let _ = writeln!(out, "  \"queries\": {},", p.queries);
    let _ = writeln!(out, "  \"target_qps\": {},", num(p.qps));
    let _ = writeln!(out, "  \"connections\": {},", p.connections);
    let _ = writeln!(out, "  \"zipf_theta\": {},", num(p.theta));
    let _ = writeln!(out, "  \"budget_bytes\": {budget},");
    let _ = writeln!(out, "  \"per_map_bytes\": {per_map},");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"maps\": {}, \"throughput_qps\": {}, \"p50_ms\": {}, \
             \"p99_ms\": {}, \"p999_ms\": {}, \"disk_reads_per_query\": {}, \
             \"evictions\": {}, \"budget_used\": {}}}",
            r.maps,
            num((r.throughput * 10.0).round() / 10.0),
            num(r.p50_ms),
            num(r.p99_ms),
            num(r.p999_ms),
            num((r.disk_reads_per_query * 1000.0).round() / 1000.0),
            r.evictions,
            r.budget_used,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_fleet(k: usize, budget: u64, p: &Params) -> Row {
    let specs = continent(k, p.segments, CONTINENT_SEED);
    let mut catalog = Catalog::new(budget, k);
    for spec in &specs {
        let spec = spec.clone();
        catalog.add_map(
            &spec.name.clone(),
            Box::new(move || Ok(county_index(&spec))),
        );
    }
    let config = ServerConfig {
        workers: 3,
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    // Open every map up front so build time stays out of the measured
    // window, then sample the routed request list from the Zipf law.
    let mut client = Client::connect(addr).expect("connect");
    let ids: Vec<u32> = specs
        .iter()
        .map(|spec| client.open_map(&spec.name).expect("open map").0)
        .collect();
    let streams: Vec<Vec<Request>> = specs.iter().map(|s| county_stream(s, STREAM_LEN)).collect();
    let cdf = zipf_cdf(k, p.theta);
    let mut rng = StdRng::seed_from_u64(CONTINENT_SEED ^ 0x05EE_D2A9 ^ k as u64);
    let mut cursors = vec![0usize; k];
    let requests: Vec<(u32, Request)> = (0..p.queries)
        .map(|_| {
            let u = rng.next_f64();
            let m = cdf.iter().position(|&c| u <= c).unwrap_or(k - 1);
            let req = streams[m][cursors[m] % STREAM_LEN].clone();
            cursors[m] += 1;
            (ids[m], req)
        })
        .collect();

    let report = run_open_loop_routed(addr, &requests, p.connections, p.qps).expect("open loop");
    let stats = client.stats_v3().expect("stats");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");

    Row {
        maps: k,
        throughput: report.throughput_qps(),
        p50_ms: ms(report.latency_at(0.50)),
        p99_ms: ms(report.latency_at(0.99)),
        p999_ms: ms(report.latency_at(0.999)),
        disk_reads_per_query: report.totals.disk.reads as f64 / report.queries.max(1) as f64,
        evictions: stats.maps.iter().map(|m| m.cache.evictions).sum(),
        budget_used: stats.budget.used,
    }
}

fn main() {
    let mut queries = 3000usize;
    let mut qps = 1500.0f64;
    let mut connections = 4usize;
    let mut theta = 1.0f64;
    let mut segments = 5000usize;
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--queries" => queries = val("--queries").parse().expect("--queries"),
            "--qps" => qps = val("--qps").parse().expect("--qps"),
            "--connections" => connections = val("--connections").parse().expect("--connections"),
            "--theta" => theta = val("--theta").parse().expect("--theta"),
            "--county-segments" => segments = val("--county-segments").parse().expect("segments"),
            "--json" => json = Some(PathBuf::from(val("--json"))),
            other => {
                eprintln!(
                    "unknown arg {other}\nusage: multimap [--queries N] [--qps Q] \
                     [--connections C] [--theta T] [--county-segments S] [--json PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let p = Params {
        queries,
        qps,
        connections,
        theta,
        segments,
    };
    // Budget: ~5.5 county footprints, fixed across the sweep.
    let per_map = county_index(&continent(1, segments, CONTINENT_SEED)[0]).size_bytes();
    let budget = per_map * 11 / 2;
    println!(
        "multimap sweep: {queries} queries/fleet @ {qps} qps, zipf θ={theta}, \
         {segments}-segment counties ({per_map} B each), budget {budget} B"
    );
    println!(
        "{:>5} {:>12} {:>9} {:>9} {:>9} {:>12} {:>10} {:>12}",
        "maps", "qps", "p50 ms", "p99 ms", "p99.9 ms", "reads/query", "evictions", "budget used"
    );
    let mut rows = Vec::new();
    for &k in &FLEETS {
        let row = run_fleet(k, budget, &p);
        println!(
            "{:>5} {:>12.1} {:>9.3} {:>9.3} {:>9.3} {:>12.3} {:>10} {:>12}",
            row.maps,
            row.throughput,
            row.p50_ms,
            row.p99_ms,
            row.p999_ms,
            row.disk_reads_per_query,
            row.evictions,
            row.budget_used,
        );
        rows.push(row);
    }
    if let Some(path) = json {
        let doc = render(&p, budget, per_map, &rows);
        write_file(&path, &doc).expect("write json");
        println!("wrote {}", path.display());
    }
}
