//! Reply-cache benchmark: hot-query serving under Zipf skew and
//! mutation churn.
//!
//! One synthetic TIGER county (STR bulk-packed R*-tree, paper-style
//! 1 KB pages over a 48-page pool) is served from a v3 catalog, and a
//! closed-loop client replays a stream drawn from a fixed set of
//! distinct queries whose popularity follows Zipf(θ). The sweep crosses
//! three axes:
//!
//! * `theta` — 0.0 (uniform: every distinct query equally likely, the
//!   cache's worst case) and 1.0 (classic hot-head skew),
//! * `cache_bytes` — 0 (cache off: the baseline every other cell must
//!   not regress against), a small pool that cannot hold the full
//!   distinct set (TinyLFU admission has to pick the head), and a large
//!   pool that holds everything,
//! * `mutation_pct` — 0 and 10: the percentage of requests that are
//!   `INSERT`s, each of which bumps the map epoch and orphans every
//!   cached reply. The mutation-heavy cells measure the cost of a cache
//!   that is always stale — their latency should match cache-off.
//!
//! Hit rate, latency, and disk reads per query come straight from the
//! server's STATS counters and the load report; because cached
//! replies are byte-identical to cold execution (including the embedded
//! `QueryStats`), the *per-reply* counters are invariant across cells —
//! only the server-side disk column and the latency move.
//!
//! Usage: `cache [--queries N] [--connections C] [--county-segments S]
//!               [--distinct D] [--json PATH]`
//!
//! `--json` writes `BENCH_cache.json`: run parameters plus one row per
//! (theta, cache_bytes, mutation_pct) cell.

use lsdb_bench::json::write_file;
use lsdb_core::pointgen::{EndpointGen, UniformGen, WindowGen};
use lsdb_core::{IndexConfig, SpatialIndex};
use lsdb_geom::{Point, Segment, WORLD_SIZE};
use lsdb_rng::StdRng;
use lsdb_rtree::RTree;
use lsdb_server::{run_closed_loop_routed, Catalog, Client, Request, Server, ServerConfig};
use lsdb_tiger::{continent, CountySpec};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Base seed shared with the CLI / multimap bench so every harness
/// serves the same synthetic counties.
const CONTINENT_SEED: u64 = 0x7161;

/// Zipf skews swept: uniform (worst case) and the canonical hot head.
const THETAS: [f64; 2] = [0.0, 1.0];

/// Reply-cache pool sizes swept. 0 = off (baseline). The small pool is
/// sized so the full distinct-query set does NOT fit — admission has to
/// earn its keep — while the large pool holds every distinct reply.
const CACHE_BYTES: [u64; 3] = [0, 64 * 1024, 4 * 1024 * 1024];

/// Mutation mix swept: read-only, and one INSERT per ten requests
/// (every insert bumps the epoch and orphans the whole cache).
const MUTATION_PCT: [u32; 2] = [0, 10];

/// Paper-style county config (matches the multimap bench): pages small
/// enough that queries actually touch the pager.
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

/// The fixed set of distinct queries the Zipf sampler ranks. Same
/// rotation as the multimap bench's county stream.
fn distinct_queries(spec: &CountySpec, len: usize) -> Vec<Request> {
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

/// Cumulative Zipf(θ) popularity over the distinct-query ranks.
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in &mut weights {
        acc += *w / total;
        *w = acc;
    }
    weights
}

struct Params {
    queries: usize,
    connections: usize,
    segments: usize,
    distinct: usize,
}

struct Row {
    theta: f64,
    cache_bytes: u64,
    mutation_pct: u32,
    hit_rate: f64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    disk_reads_per_query: f64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
    rejections: u64,
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

fn render(p: &Params, budget: u64, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"cache\",\n");
    let _ = writeln!(out, "  \"county_segments\": {},", p.segments);
    let _ = writeln!(out, "  \"queries\": {},", p.queries);
    let _ = writeln!(out, "  \"distinct_queries\": {},", p.distinct);
    let _ = writeln!(out, "  \"connections\": {},", p.connections);
    let _ = writeln!(out, "  \"budget_bytes\": {budget},");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"theta\": {}, \"cache_bytes\": {}, \"mutation_pct\": {}, \
             \"hit_rate\": {}, \"throughput_qps\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \
             \"disk_reads_per_query\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"insertions\": {}, \"evictions\": {}, \"invalidations\": {}, \
             \"rejections\": {}}}",
            num(r.theta),
            r.cache_bytes,
            r.mutation_pct,
            num((r.hit_rate * 10000.0).round() / 10000.0),
            num((r.throughput * 10.0).round() / 10.0),
            num(r.p50_ms),
            num(r.p99_ms),
            num((r.disk_reads_per_query * 1000.0).round() / 1000.0),
            r.hits,
            r.misses,
            r.insertions,
            r.evictions,
            r.invalidations,
            r.rejections,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One cell of the sweep: fresh server, fresh cache, one closed-loop
/// run, counters read back over STATS.
fn run_cell(theta: f64, cache_bytes: u64, mutation_pct: u32, budget: u64, p: &Params) -> Row {
    let spec = continent(1, p.segments, CONTINENT_SEED).remove(0);
    let mut catalog = Catalog::new(budget, 1);
    {
        let spec = spec.clone();
        catalog.add_map(
            &spec.name.clone(),
            Box::new(move || Ok(county_index(&spec))),
        );
    }
    catalog.set_reply_cache_bytes(cache_bytes);
    let config = ServerConfig {
        workers: 3,
        read_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run().expect("serve"));

    let mut client = Client::connect(addr).expect("connect");
    let (map_id, _) = client.open_map(&spec.name).expect("open map");

    // Replay stream: Zipf-ranked picks from the distinct set, with a
    // deterministic sprinkle of INSERTs when the cell mutates. Inserted
    // segments are tiny and far apart so they never change a cached
    // query's answer — the epoch bump alone is what invalidates.
    let pool = distinct_queries(&spec, p.distinct);
    let cdf = zipf_cdf(p.distinct, theta);
    let mut rng =
        StdRng::seed_from_u64(CONTINENT_SEED ^ 0xCAC4_E5EE ^ theta.to_bits() ^ (cache_bytes << 8));
    let mut uniform = UniformGen::new(spec.seed ^ 0x1257);
    let requests: Vec<(u32, Request)> = (0..p.queries)
        .map(|i| {
            let req = if mutation_pct > 0 && (i as u32) % 100 < mutation_pct {
                // Clamped into the world: the server refuses the rest.
                let a = uniform.next_point();
                let b = Point::new((a.x + 3).min(WORLD_SIZE - 1), (a.y + 2).min(WORLD_SIZE - 1));
                Request::Insert(Segment::new(a, b))
            } else {
                let u = rng.next_f64();
                let rank = cdf.iter().position(|&c| u <= c).unwrap_or(p.distinct - 1);
                pool[rank].clone()
            };
            (map_id, req)
        })
        .collect();

    let report = run_closed_loop_routed(addr, &requests, p.connections).expect("closed loop");
    let stats = client.stats_v3().expect("stats");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");

    let rc = &stats
        .maps
        .iter()
        .find(|m| m.id == map_id)
        .expect("map stats")
        .reply_cache;
    let probes = rc.hits + rc.misses;
    Row {
        theta,
        cache_bytes,
        mutation_pct,
        hit_rate: if probes == 0 {
            0.0
        } else {
            rc.hits as f64 / probes as f64
        },
        throughput: report.throughput_qps(),
        p50_ms: ms(report.latency_at(0.50)),
        p99_ms: ms(report.latency_at(0.99)),
        disk_reads_per_query: report.totals.disk.reads as f64 / report.queries.max(1) as f64,
        hits: rc.hits,
        misses: rc.misses,
        insertions: rc.insertions,
        evictions: rc.evictions,
        invalidations: rc.invalidations,
        rejections: rc.rejections,
    }
}

fn main() {
    let mut queries = 4000usize;
    let mut connections = 4usize;
    let mut segments = 5000usize;
    let mut distinct = 512usize;
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--queries" => queries = val("--queries").parse().expect("--queries"),
            "--connections" => connections = val("--connections").parse().expect("--connections"),
            "--county-segments" => segments = val("--county-segments").parse().expect("segments"),
            "--distinct" => distinct = val("--distinct").parse().expect("--distinct"),
            "--json" => json = Some(PathBuf::from(val("--json"))),
            other => {
                eprintln!(
                    "unknown arg {other}\nusage: cache [--queries N] [--connections C] \
                     [--county-segments S] [--distinct D] [--json PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let p = Params {
        queries,
        connections,
        segments,
        distinct,
    };
    // Budget: one county's pages plus ample headroom for the largest
    // cache cell — this sweep measures the cache, not budget pressure
    // (the catalog tests cover eviction under overcommit).
    let per_map = county_index(&continent(1, segments, CONTINENT_SEED)[0]).size_bytes();
    let budget = per_map * 4 + 16 * 1024 * 1024;
    println!(
        "cache sweep: {queries} closed-loop queries/cell over {distinct} distinct, \
         {segments}-segment county ({per_map} B), budget {budget} B"
    );
    println!(
        "{:>6} {:>10} {:>5} {:>9} {:>12} {:>9} {:>9} {:>12} {:>10} {:>12} {:>10}",
        "theta",
        "cache B",
        "mut%",
        "hit rate",
        "qps",
        "p50 ms",
        "p99 ms",
        "reads/query",
        "evictions",
        "invalidated",
        "rejected"
    );
    let mut rows = Vec::new();
    for &theta in &THETAS {
        for &cache_bytes in &CACHE_BYTES {
            for &mutation_pct in &MUTATION_PCT {
                let row = run_cell(theta, cache_bytes, mutation_pct, budget, &p);
                println!(
                    "{:>6.1} {:>10} {:>5} {:>9.4} {:>12.1} {:>9.3} {:>9.3} {:>12.3} {:>10} {:>12} {:>10}",
                    row.theta,
                    row.cache_bytes,
                    row.mutation_pct,
                    row.hit_rate,
                    row.throughput,
                    row.p50_ms,
                    row.p99_ms,
                    row.disk_reads_per_query,
                    row.evictions,
                    row.invalidations,
                    row.rejections,
                );
                rows.push(row);
            }
        }
    }
    if let Some(path) = json {
        let doc = render(&p, budget, &rows);
        write_file(&path, &doc).expect("write json");
        println!("wrote {}", path.display());
    }
}
