//! `lsdb` — command-line utility over the line-segment-database library.
//!
//! ```text
//! lsdb generate --county charles -o charles.lsdbmap [--segments N] [--seed S]
//! lsdb generate --class urban --segments 20000 --seed 7 -o city.lsdbmap
//! lsdb info MAP
//! lsdb build MAP [--structure rstar|rplus|pmr|grid] [--page-size B] [--pool P]
//! lsdb query MAP --structure pmr incident X Y
//! lsdb query MAP --structure rstar nearest X Y
//! lsdb query MAP --structure rplus knn X Y K
//! lsdb query MAP --structure pmr window X0 Y0 X1 Y1
//! lsdb query MAP --structure pmr polygon X Y
//! lsdb query MAP --structure pmr --stdin        # one query per line
//! lsdb serve MAP --structure pmr --port 4750 --workers 4 [--store DIR] [--bulk]
//! lsdb serve --continent 16 --county-segments 50000 --budget 8388608 \
//!      --max-open 8 --bulk --structure rstar
//! lsdb bench-client MAP --addr 127.0.0.1:4750 --workload range \
//!      --queries 1000 --connections 4
//! lsdb bench-client MAP --addr 127.0.0.1:4750 --workload range --open-loop 5000
//! lsdb bench-client MAP --addr 127.0.0.1:4750 --workload polygon2 --batch
//! lsdb bench-client --addr 127.0.0.1:4750 --multimap 16 --open-loop 2000 \
//!      --zipf 1.0 --county-segments 50000
//! ```
//!
//! Every query prints its answer and the paper's three metrics for it.
//! `serve` exposes the built structure over the lsdb wire protocol as
//! map 0 of a one-map catalog; with `--store DIR` the server also accepts
//! `INSERT`/`DELETE`/`FLUSH`, appending every acknowledged mutation to
//! the op log `DIR/ops.log` and replaying the log over the freshly built
//! index on restart, so acknowledged writes survive a crash. The log is
//! tied to the map it was created over; serving it over another map is
//! refused. With `--continent N` it instead hosts a catalog of N
//! deterministic county maps behind one port — maps open lazily, close
//! under `--max-open` pressure, and share one `--budget` of page-pool
//! bytes. `bench-client` is the matching load generator: closed
//! loop by default, open loop at a fixed arrival rate with `--open-loop
//! QPS` (tail percentiles up to p999), a single locality-sorted `BATCH`
//! frame with `--batch`, or the multi-map mode with `--multimap K`
//! (Zipf map popularity, per-map counters, budget gauge).

use lsdb::core::queries::PolygonWalk;
use lsdb::core::{IndexConfig, PolygonalMap, QueryCtx, SegId, SpatialIndex};
use lsdb::geom::{Point, Rect};
use lsdb::server::{answer, Reply, Request};
use lsdb::tiger::{self, io, CountyClass, CountySpec};
use std::path::Path;
use std::process::exit;

/// `println!` for every line the CLI prints, except that once stdout's
/// reader has gone (`lsdb info MAP | head -1`) the process ends quietly
/// with status 0 instead of panicking on the broken pipe: the reader
/// took what it wanted.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench-client") => cmd_bench_client(&args[1..]),
        Some("help") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`");
            print_usage();
            2
        }
    };
    exit(code);
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         lsdb generate (--county NAME | --class urban|suburban|rural) \\\n      \
              [--segments N] [--seed S] -o FILE\n  \
         lsdb info FILE\n  \
         lsdb build FILE [--structure rstar|rplus|pmr|grid] [--page-size B] [--pool P]\n  \
         lsdb query FILE --structure S incident X Y\n  \
         lsdb query FILE --structure S nearest X Y\n  \
         lsdb query FILE --structure S knn X Y K\n  \
         lsdb query FILE --structure S window X0 Y0 X1 Y1\n  \
         lsdb query FILE --structure S polygon X Y\n  \
         lsdb query FILE --structure S --stdin\n  \
         lsdb serve FILE [--structure S] [--addr HOST] [--port P] [--workers W] \\\n      \
              [--page-size B] [--pool P] [--store DIR] [--bulk] [--cache-bytes B] \\\n      \
              [--verbose]\n  \
         lsdb serve --continent N [--county-segments S] [--continent-seed S] \\\n      \
              [--budget BYTES] [--max-open M] [--bulk] [--structure S] \\\n      \
              [--cache-bytes B] [--verbose] [...]\n  \
         lsdb bench-client FILE --addr HOST:PORT [--workload W] [--queries N] \\\n      \
              [--connections C] [--seed S] [--open-loop QPS | --batch] \\\n      \
              [--cache] [--shutdown]\n  \
         lsdb bench-client --addr HOST:PORT --multimap K [--open-loop QPS] \\\n      \
              [--zipf THETA] [--county-segments S] [--continent-seed S] [...]\n\n\
         serve --workers W: event-loop threads (default 4), each serving the\n  \
         connections dealt to it from read to reply\n\
         bench-client workloads: point1 point2 nearest1 nearest2 polygon1 polygon2 range"
    );
}

/// Pull `--flag value` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

fn parse_or_die<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {what}: `{s}`");
        exit(2)
    })
}

fn cmd_generate(rest: &[String]) -> i32 {
    let mut args = rest.to_vec();
    let county = take_flag(&mut args, "--county");
    let class = take_flag(&mut args, "--class");
    let segments = take_flag(&mut args, "--segments");
    let seed = take_flag(&mut args, "--seed");
    let out = match take_flag(&mut args, "-o").or_else(|| take_flag(&mut args, "--out")) {
        Some(o) => o,
        None => {
            eprintln!("generate requires -o FILE");
            return 2;
        }
    };
    let mut spec: CountySpec = match (county, class) {
        (Some(name), None) => match tiger::county(&name) {
            Some(s) => s,
            None => {
                eprintln!(
                    "unknown county `{name}`; the six are: {}",
                    tiger::the_six_counties()
                        .iter()
                        .map(|c| c.name.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return 2;
            }
        },
        (None, Some(class)) => {
            let class = match class.as_str() {
                "urban" => CountyClass::Urban,
                "suburban" => CountyClass::Suburban,
                "rural" => CountyClass::Rural { meander: 24 },
                other => {
                    eprintln!("unknown class `{other}` (urban|suburban|rural)");
                    return 2;
                }
            };
            CountySpec::new("custom", class, 20_000, 1)
        }
        _ => {
            eprintln!("generate needs exactly one of --county or --class");
            return 2;
        }
    };
    if let Some(n) = segments {
        spec = spec.with_target(parse_or_die(&n, "--segments"));
    }
    if let Some(s) = seed {
        spec.seed = parse_or_die(&s, "--seed");
    }
    let map = tiger::generate(&spec);
    if let Err(v) = map.validate_planar() {
        eprintln!("internal error: generated map is not planar ({v:?})");
        return 1;
    }
    if let Err(e) = io::save(&map, Path::new(&out)) {
        eprintln!("cannot write {out}: {e}");
        return 1;
    }
    outln!("wrote {} ({} segments) to {out}", map.name, map.len());
    0
}

fn load_map(path: &str) -> PolygonalMap {
    io::load(Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    })
}

fn cmd_info(rest: &[String]) -> i32 {
    let Some(path) = rest.first() else {
        eprintln!("info needs a map file");
        return 2;
    };
    let map = load_map(path);
    outln!("name      : {}", map.name);
    outln!("segments  : {}", map.len());
    if let Some(b) = map.bbox() {
        outln!("bbox      : {b:?}");
    }
    let inc = map.vertex_incidence();
    outln!("vertices  : {}", inc.len());
    let mut hist = [0usize; 8];
    for v in inc.values() {
        hist[v.len().min(7)] += 1;
    }
    for (d, n) in hist.iter().enumerate().skip(1) {
        if *n > 0 {
            outln!("  degree {d}{}: {n}", if d == 7 { "+" } else { " " });
        }
    }
    match map.validate_planar() {
        Ok(()) => outln!("planarity : ok"),
        Err(v) => outln!(
            "planarity : VIOLATED by segments {} and {}",
            v.first,
            v.second
        ),
    }
    0
}

fn structure_flag(args: &mut Vec<String>) -> String {
    take_flag(args, "--structure").unwrap_or_else(|| "pmr".to_string())
}

fn build_structure(
    name: &str,
    map: &PolygonalMap,
    cfg: IndexConfig,
) -> Option<Box<dyn SpatialIndex>> {
    Some(match name {
        "rstar" => Box::new(lsdb::rtree::RTree::build(
            map,
            cfg,
            lsdb::rtree::RTreeKind::RStar,
        )),
        "rquad" => Box::new(lsdb::rtree::RTree::build(
            map,
            cfg,
            lsdb::rtree::RTreeKind::Quadratic,
        )),
        "rlin" => Box::new(lsdb::rtree::RTree::build(
            map,
            cfg,
            lsdb::rtree::RTreeKind::Linear,
        )),
        "rplus" => Box::new(lsdb::rplus::RPlusTree::build(map, cfg)),
        "pmr" => Box::new(lsdb::pmr::PmrQuadtree::build(
            map,
            lsdb::pmr::PmrConfig {
                index: cfg,
                ..Default::default()
            },
        )),
        "grid" => Box::new(lsdb::grid::UniformGrid::build(map, cfg, 64)),
        _ => {
            eprintln!("unknown structure `{name}` (rstar|rquad|rlin|rplus|pmr|grid)");
            return None;
        }
    })
}

fn cmd_build(rest: &[String]) -> i32 {
    let mut args = rest.to_vec();
    let structure = structure_flag(&mut args);
    let page = take_flag(&mut args, "--page-size")
        .map(|v| parse_or_die(&v, "--page-size"))
        .unwrap_or(1024usize);
    let pool = take_flag(&mut args, "--pool")
        .map(|v| parse_or_die(&v, "--pool"))
        .unwrap_or(16usize);
    let Some(path) = args.first() else {
        eprintln!("build needs a map file");
        return 2;
    };
    let map = load_map(path);
    let cfg = IndexConfig {
        page_size: page,
        pool_pages: pool,
    };
    let start = std::time::Instant::now();
    let Some(mut idx) = build_structure(&structure, &map, cfg) else {
        return 2;
    };
    let secs = start.elapsed().as_secs_f64();
    idx.clear_cache();
    let s = idx.stats();
    outln!("structure     : {}", idx.name());
    outln!("segments      : {}", idx.len());
    outln!(
        "size          : {} KB ({} B pages, {}-page pool)",
        idx.size_bytes() / 1024,
        page,
        pool
    );
    outln!(
        "build disk    : {} accesses ({} reads, {} writes)",
        s.disk.total(),
        s.disk.reads,
        s.disk.writes
    );
    outln!("build cpu     : {secs:.2} s");
    0
}

fn cmd_query(rest: &[String]) -> i32 {
    let mut args = rest.to_vec();
    let structure = structure_flag(&mut args);
    let stdin_mode = if let Some(i) = args.iter().position(|a| a == "--stdin") {
        args.remove(i);
        true
    } else {
        false
    };
    if args.is_empty() || (!stdin_mode && args.len() < 2) {
        eprintln!("query needs a map file and a query (or --stdin)");
        return 2;
    }
    let map = load_map(&args[0]);
    let cfg = IndexConfig::default();
    let Some(idx) = build_structure(&structure, &map, cfg) else {
        return 2;
    };
    let mut ctx = QueryCtx::new();

    if stdin_mode {
        // Batch mode: the index above is built exactly once; every line of
        // stdin is one query in the same grammar as the positional form.
        let mut failures = 0u64;
        for (lineno, line) in std::io::stdin().lines().enumerate() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("stdin read error: {e}");
                    return 1;
                }
            };
            let tokens: Vec<&str> = line.split_whitespace().collect();
            match tokens.split_first() {
                None => continue, // blank line
                Some((first, _)) if first.starts_with('#') => continue,
                Some((q, rest)) => {
                    let mut coords = Vec::with_capacity(rest.len());
                    let mut bad = false;
                    for v in rest {
                        match v.parse::<i32>() {
                            Ok(c) => coords.push(c),
                            Err(_) => {
                                eprintln!("line {}: cannot parse coordinate `{v}`", lineno + 1);
                                bad = true;
                                break;
                            }
                        }
                    }
                    if bad || !run_query(idx.as_ref(), &map, q, &coords, &mut ctx) {
                        failures += 1;
                        continue;
                    }
                    print_query_stats(idx.as_ref(), &ctx);
                }
            }
        }
        if failures > 0 {
            eprintln!("{failures} line(s) failed");
            return 2;
        }
        return 0;
    }

    let q = args[1].as_str();
    let coords: Vec<i32> = args[2..]
        .iter()
        .map(|v| parse_or_die::<i32>(v, "coordinate"))
        .collect();
    if !run_query(idx.as_ref(), &map, q, &coords, &mut ctx) {
        return 2;
    }
    print_query_stats(idx.as_ref(), &ctx);
    0
}

fn print_query_stats(idx: &dyn SpatialIndex, ctx: &QueryCtx) {
    let s = ctx.stats();
    outln!(
        "[{}] {} disk accesses, {} segment comps, {} bbox/bucket comps",
        idx.name(),
        s.disk.total(),
        s.seg_comps,
        s.bbox_comps
    );
}

/// The request a query line names, `None` for an unknown query name or
/// arity.
fn parse_query(q: &str, coords: &[i32], map: &PolygonalMap) -> Option<Request> {
    let p = || Point::new(coords[0], coords[1]);
    Some(match (q, coords.len()) {
        ("incident", 2) => Request::Incident(p()),
        ("nearest", 2) => Request::Nearest(p()),
        ("knn", 3) => Request::Knn {
            at: p(),
            k: coords[2].max(0) as u32,
        },
        ("window", 4) => Request::Window(Rect::bounding(p(), Point::new(coords[2], coords[3]))),
        ("polygon", 2) => Request::Polygon {
            at: p(),
            max_steps: (map.len() * 2 + 16) as u32,
        },
        _ => return None,
    })
}

/// Answer and print one query through the server's dispatch. Returns
/// false on an unrecognized query name or arity, or a query the
/// dispatch refuses (a point outside the world), reported to stderr.
fn run_query(
    idx: &dyn SpatialIndex,
    map: &PolygonalMap,
    q: &str,
    coords: &[i32],
    ctx: &mut QueryCtx,
) -> bool {
    let Some(req) = parse_query(q, coords, map) else {
        eprintln!("unknown query `{q}` or wrong number of coordinates");
        return false;
    };
    let print_segs = |ids: &[SegId]| {
        for id in ids {
            outln!("  {:?}: {:?}", id, map.segments[id.index()]);
        }
    };
    let dist = |id: SegId, p: Point| map.segments[id.index()].dist2_point(p).to_f64().sqrt();
    match (&req, answer(idx, &req, ctx)) {
        (_, Reply::Error { message, .. }) => {
            eprintln!("{message}");
            return false;
        }
        (Request::Incident(_), Reply::Segs { ids, .. }) => {
            outln!("{} incident segments:", ids.len());
            print_segs(&ids);
        }
        (&Request::Nearest(p), Reply::Nearest { id, .. }) => match id {
            Some(id) => {
                outln!("nearest segment (distance {:.2}):", dist(id, p));
                print_segs(&[id]);
            }
            None => outln!("empty map"),
        },
        (&Request::Knn { at, .. }, Reply::Segs { ids, .. }) => {
            outln!("{} nearest segments:", ids.len());
            for id in ids {
                let d = dist(id, at);
                outln!("  {:?} at {d:.2}: {:?}", id, map.segments[id.index()]);
            }
        }
        (Request::Window(w), Reply::Segs { ids, .. }) => {
            outln!("{} segments in {w:?}:", ids.len());
            print_segs(&ids);
        }
        (Request::Polygon { .. }, Reply::Polygon { walk, .. }) => match walk {
            Some((boundary, closed)) => {
                let walk = PolygonWalk { boundary, closed };
                outln!(
                    "enclosing polygon: {} boundary segments (closed: {}):",
                    walk.len(),
                    walk.closed
                );
                print_segs(&walk.distinct_segments());
            }
            None => outln!("empty map"),
        },
        (req, reply) => unreachable!("{req:?} answered {reply:?}"),
    }
    true
}

/// Open (or initialize) the op log `DIR/ops.log` over the base map
/// `base` and return it with the recovered ops. A directory holding the
/// retired paged store (`ops.pages` + `ops.wal`) is refused: no reader
/// for that layout is kept.
fn open_store(
    dir: &str,
    base: &[lsdb::geom::Segment],
) -> std::io::Result<(lsdb::core::DurableMap, lsdb::core::RecoveryReport)> {
    use lsdb::core::{live::FORMAT_VERSION, DurableMap, FileLog};
    std::fs::create_dir_all(dir)?;
    let dir = Path::new(dir);
    for retired in ["ops.pages", "ops.wal"] {
        if dir.join(retired).exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{retired} belongs to the retired paged store (format version 2), \
                     which this build does not read; it keeps ops in ops.log \
                     (format version {FORMAT_VERSION})"
                ),
            ));
        }
    }
    DurableMap::open(Box::new(FileLog::open(&dir.join("ops.log"))?), base)
}

/// Build `name` over `map`, preferring the STR-style bulk loaders when
/// `bulk` is set (R-tree variants and the R+-tree have one; the others
/// fall back to their insertion build).
fn build_structure_maybe_bulk(
    name: &str,
    map: &PolygonalMap,
    cfg: IndexConfig,
    bulk: bool,
) -> Option<Box<dyn SpatialIndex>> {
    if bulk {
        match name {
            "rstar" | "rquad" | "rlin" => {
                return Some(Box::new(lsdb::rtree::RTree::bulk_load(map, cfg)))
            }
            "rplus" => return Some(Box::new(lsdb::rplus::RPlusTree::bulk_load(map, cfg))),
            _ => {}
        }
    }
    build_structure(name, map, cfg)
}

fn cmd_serve(rest: &[String]) -> i32 {
    use lsdb::core::LiveIndex;
    use lsdb::server::{Catalog, Server, ServerConfig};

    let mut args = rest.to_vec();
    let structure = structure_flag(&mut args);
    let store = take_flag(&mut args, "--store");
    let host = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = take_flag(&mut args, "--port")
        .map(|v| parse_or_die(&v, "--port"))
        .unwrap_or(4750);
    let defaults = ServerConfig::default();
    let workers: usize = take_flag(&mut args, "--workers")
        .map(|v| parse_or_die(&v, "--workers"))
        .unwrap_or(defaults.workers);
    let page = take_flag(&mut args, "--page-size")
        .map(|v| parse_or_die(&v, "--page-size"))
        .unwrap_or(1024usize);
    let pool = take_flag(&mut args, "--pool")
        .map(|v| parse_or_die(&v, "--pool"))
        .unwrap_or(16usize);
    let continent: Option<usize> =
        take_flag(&mut args, "--continent").map(|v| parse_or_die(&v, "--continent"));
    let county_segments: usize = take_flag(&mut args, "--county-segments")
        .map(|v| parse_or_die(&v, "--county-segments"))
        .unwrap_or(50_000);
    let continent_seed: u64 = take_flag(&mut args, "--continent-seed")
        .map(|v| parse_or_die(&v, "--continent-seed"))
        .unwrap_or(0x7161);
    let budget: u64 = take_flag(&mut args, "--budget")
        .map(|v| parse_or_die(&v, "--budget"))
        .unwrap_or(0);
    let max_open: Option<usize> =
        take_flag(&mut args, "--max-open").map(|v| parse_or_die(&v, "--max-open"));
    let cache_bytes: u64 = take_flag(&mut args, "--cache-bytes")
        .map(|v| parse_or_die(&v, "--cache-bytes"))
        .unwrap_or(0);
    let bulk = if let Some(i) = args.iter().position(|a| a == "--bulk") {
        args.remove(i);
        true
    } else {
        false
    };
    let verbose = if let Some(i) = args.iter().position(|a| a == "--verbose") {
        args.remove(i);
        true
    } else {
        false
    };
    let config = ServerConfig {
        workers,
        verbose,
        ..defaults
    };
    if let Err(e) = config.validate() {
        eprintln!("{e}");
        return 2;
    }
    let cfg = IndexConfig {
        page_size: page,
        pool_pages: pool,
    };

    // Continent mode: host a whole catalog of deterministic county maps
    // behind one port. Every map is rebuilt on demand (lazily, and again
    // after an LRU close), so cold maps cost nothing but their slot.
    if let Some(counties) = continent {
        if counties == 0 {
            eprintln!("--continent needs at least 1 county");
            return 2;
        }
        if store.is_some() {
            eprintln!(
                "--store is incompatible with --continent: continental counties \
                 rebuild deterministically and are served read-only"
            );
            return 2;
        }
        if !args.is_empty() {
            eprintln!("--continent takes no map file (counties are generated)");
            return 2;
        }
        // Vet the structure name once, before it is buried in builders.
        if build_structure(&structure, &PolygonalMap::new("probe", Vec::new()), cfg).is_none() {
            return 2;
        }
        let mut catalog = Catalog::new(budget, max_open.unwrap_or(counties));
        for spec in tiger::continent(counties, county_segments, continent_seed) {
            let name = spec.name.clone();
            let structure = structure.clone();
            catalog.add_map(
                &name,
                Box::new(move || {
                    let map = tiger::generate(&spec);
                    build_structure_maybe_bulk(&structure, &map, cfg, bulk).ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("unknown structure `{structure}`"),
                        )
                    })
                }),
            );
        }
        catalog.set_reply_cache_bytes(cache_bytes);
        outln!(
            "catalog: {counties} county maps x {county_segments} segments ({structure}, \
             bulk={bulk}), budget {}, max-open {}, reply cache {}",
            if budget == 0 {
                "unlimited".to_string()
            } else {
                format!("{budget} bytes")
            },
            max_open.unwrap_or(counties),
            if cache_bytes == 0 {
                "off".to_string()
            } else {
                format!("{cache_bytes} bytes")
            }
        );
        let server = match Server::bind_catalog((host.as_str(), port), catalog, config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind {host}:{port}: {e}");
                return 1;
            }
        };
        return run_server(server, &host, port, workers);
    }

    let Some(path) = args.first() else {
        eprintln!("serve needs a map file (or --continent N)");
        return 2;
    };
    let map = load_map(path);
    // Open the store *before* the index build: an unreadable store (a
    // foreign file, another format version, a log over another map) must
    // fail fast with a structured error, not after minutes of building an
    // index it can never serve.
    let recovered = match &store {
        Some(dir) => {
            let (dmap, report) = match open_store(dir, &map.segments) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("cannot open store {dir}: {e}");
                    return 1;
                }
            };
            if report.discarded > 0 {
                eprintln!(
                    "store {dir}: discarded {} bytes of torn log tail",
                    report.discarded
                );
            }
            outln!(
                "store {dir}: {} op(s) recovered, replaying",
                report.ops.len()
            );
            Some((dmap, report))
        }
        None => None,
    };
    let start = std::time::Instant::now();
    let Some(mut idx) = build_structure_maybe_bulk(&structure, &map, cfg, bulk) else {
        return 2;
    };
    outln!(
        "built {} over {} ({} segments) in {:.2}s",
        idx.name(),
        map.name,
        map.len(),
        start.elapsed().as_secs_f64()
    );
    // With --store, acknowledged mutations outlive the process: the op
    // log recovered above replays over the freshly built index, and the
    // server serves the live (writable) index instead of a read-only one.
    let live = match recovered {
        Some((dmap, report)) => {
            report.replay_into(idx.as_mut());
            LiveIndex::new(idx, dmap)
        }
        None => LiveIndex::volatile(idx),
    };
    let catalog = Catalog::single(live);
    catalog.set_reply_cache_bytes(cache_bytes);
    if cache_bytes > 0 {
        outln!("reply cache: {cache_bytes} bytes");
    }
    let server = match Server::bind_catalog((host.as_str(), port), catalog, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {host}:{port}: {e}");
            return 1;
        }
    };
    run_server(server, &host, port, workers)
}

/// Shared serve epilogue: announce the address, run to drain, report.
fn run_server(server: lsdb::server::Server, host: &str, port: u16, workers: usize) -> i32 {
    match server.local_addr() {
        Ok(addr) => {
            outln!("serving on {addr} with {workers} event loop(s); a SHUTDOWN request stops it")
        }
        Err(_) => outln!("serving on {host}:{port}"),
    }
    match server.run() {
        Ok(report) => {
            outln!(
                "served {} queries over {} connection(s)",
                report.queries,
                report.connections
            );
            outln!(
                "totals: {} disk accesses, {} segment comps, {} bbox/bucket comps",
                report.totals.disk.total(),
                report.totals.seg_comps,
                report.totals.bbox_comps
            );
            0
        }
        Err(e) => {
            eprintln!("server error: {e}");
            1
        }
    }
}

/// Cumulative Zipf(θ) popularity over ranks `0..k` (rank 0 hottest).
fn zipf_cdf(k: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn cmd_bench_client(rest: &[String]) -> i32 {
    use lsdb::bench::wire::requests_for;
    use lsdb::bench::workloads::{QueryWorkbench, Workload};
    use lsdb::server::{run_closed_loop, run_open_loop, Client};
    use std::net::ToSocketAddrs;

    let mut args = rest.to_vec();
    let Some(addr_str) = take_flag(&mut args, "--addr") else {
        eprintln!("bench-client needs --addr HOST:PORT");
        return 2;
    };
    let workload_name = take_flag(&mut args, "--workload").unwrap_or_else(|| "range".to_string());
    let queries: usize = take_flag(&mut args, "--queries")
        .map(|v| parse_or_die(&v, "--queries"))
        .unwrap_or(1000);
    let connections: usize = take_flag(&mut args, "--connections")
        .map(|v| parse_or_die(&v, "--connections"))
        .unwrap_or(1);
    let seed: u64 = take_flag(&mut args, "--seed")
        .map(|v| parse_or_die(&v, "--seed"))
        .unwrap_or(0xC4A5);
    let open_loop_qps: Option<f64> =
        take_flag(&mut args, "--open-loop").map(|v| parse_or_die(&v, "--open-loop"));
    let multimap: Option<usize> =
        take_flag(&mut args, "--multimap").map(|v| parse_or_die(&v, "--multimap"));
    let zipf_theta: f64 = take_flag(&mut args, "--zipf")
        .map(|v| parse_or_die(&v, "--zipf"))
        .unwrap_or(1.0);
    let county_segments: usize = take_flag(&mut args, "--county-segments")
        .map(|v| parse_or_die(&v, "--county-segments"))
        .unwrap_or(50_000);
    let continent_seed: u64 = take_flag(&mut args, "--continent-seed")
        .map(|v| parse_or_die(&v, "--continent-seed"))
        .unwrap_or(0x7161);
    let batch_mode = if let Some(i) = args.iter().position(|a| a == "--batch") {
        args.remove(i);
        true
    } else {
        false
    };
    let report_cache = if let Some(i) = args.iter().position(|a| a == "--cache") {
        args.remove(i);
        true
    } else {
        false
    };
    let send_shutdown = if let Some(i) = args.iter().position(|a| a == "--shutdown") {
        args.remove(i);
        true
    } else {
        false
    };
    if batch_mode && open_loop_qps.is_some() {
        eprintln!("--batch and --open-loop are mutually exclusive");
        return 2;
    }
    let workload = match workload_name.as_str() {
        "point1" => Workload::Point1,
        "point2" => Workload::Point2,
        "nearest1" => Workload::NearestOneStage,
        "nearest2" => Workload::NearestTwoStage,
        "polygon1" => Workload::PolygonOneStage,
        "polygon2" => Workload::PolygonTwoStage,
        "range" => Workload::Range,
        other => {
            eprintln!(
                "unknown workload `{other}` (point1|point2|nearest1|nearest2|polygon1|polygon2|range)"
            );
            return 2;
        }
    };
    let addr = match addr_str.to_socket_addrs().map(|mut it| it.next()) {
        Ok(Some(a)) => a,
        _ => {
            eprintln!("cannot resolve address `{addr_str}`");
            return 2;
        }
    };

    // Multi-map mode: route a Zipf-popular mix of per-county query
    // streams to a continental server at a fixed arrival rate and report
    // the latency SLO plus the server's per-map and budget counters.
    if let Some(k) = multimap {
        if k == 0 {
            eprintln!("--multimap needs at least 1 map");
            return 2;
        }
        if batch_mode || !args.is_empty() {
            eprintln!("--multimap takes no map file or --batch (county streams are generated)");
            return 2;
        }
        return bench_multimap(
            addr,
            k,
            county_segments,
            continent_seed,
            workload,
            queries,
            connections.max(1),
            open_loop_qps,
            zipf_theta,
            seed,
            report_cache,
            send_shutdown,
        );
    }
    let Some(path) = args.first() else {
        eprintln!("bench-client needs the map file the server loaded (to derive the query stream)");
        return 2;
    };
    let map = load_map(path);
    let wb = QueryWorkbench::new(&map, queries, seed);
    let requests = requests_for(&wb, workload);

    if batch_mode {
        // One BATCH frame carrying the whole workload: the server
        // answers its cache misses in Morton order.
        outln!(
            "1 batch of {} x {} against {addr}",
            requests.len(),
            workload.label()
        );
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot connect: {e}");
                return 1;
            }
        };
        let t0 = std::time::Instant::now();
        let items = match client.call_batch(&requests) {
            Ok(items) => items,
            Err(e) => {
                eprintln!("batch call failed: {e}");
                return 1;
            }
        };
        let wall = t0.elapsed();
        let mut totals = lsdb::core::QueryStats::default();
        let mut result_items = 0u64;
        for item in &items {
            if let Some(stats) = item.stats() {
                totals.add(stats);
            }
            result_items += item.result_size() as u64;
        }
        let n = items.len().max(1) as f64;
        outln!(
            "throughput : {:.0} queries/s ({} queries in {:.3}s, one round trip)",
            n / wall.as_secs_f64().max(1e-9),
            items.len(),
            wall.as_secs_f64()
        );
        outln!(
            "per query  : {:.2} disk accesses, {:.2} segment comps, {:.2} bbox/bucket comps, {:.2} results",
            totals.disk.total() as f64 / n,
            totals.seg_comps as f64 / n,
            totals.bbox_comps as f64 / n,
            result_items as f64 / n
        );
        return finish(addr, report_cache, send_shutdown);
    }

    match open_loop_qps {
        Some(qps) => outln!(
            "{} x {} against {addr}, {} connection(s), open loop at {qps} queries/s",
            requests.len(),
            workload.label(),
            connections.max(1)
        ),
        None => outln!(
            "{} x {} against {addr}, {} connection(s)",
            requests.len(),
            workload.label(),
            connections.max(1)
        ),
    }
    let run = match open_loop_qps {
        Some(qps) => run_open_loop(addr, &requests, connections.max(1), qps),
        None => run_closed_loop(addr, &requests, connections.max(1)),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return 1;
        }
    };
    let n = report.queries.max(1) as f64;
    outln!(
        "throughput : {:.0} queries/s ({} queries in {:.3}s)",
        report.throughput_qps(),
        report.queries,
        report.wall.as_secs_f64()
    );
    outln!(
        "latency    : p50 {:.0} us, p95 {:.0} us, p99 {:.0} us, p999 {:.0} us, max {:.0} us",
        report.p50().as_secs_f64() * 1e6,
        report.p95().as_secs_f64() * 1e6,
        report.p99().as_secs_f64() * 1e6,
        report.p999().as_secs_f64() * 1e6,
        report.max_latency().as_secs_f64() * 1e6
    );
    outln!(
        "per query  : {:.2} disk accesses, {:.2} segment comps, {:.2} bbox/bucket comps, {:.2} results",
        report.totals.disk.total() as f64 / n,
        report.totals.seg_comps as f64 / n,
        report.totals.bbox_comps as f64 / n,
        report.result_items as f64 / n
    );
    finish(addr, report_cache, send_shutdown)
}

/// The multi-map run: open `k` continental county maps on the server,
/// generate each county's query stream locally (byte-identical to what
/// a single-map run would issue), draw the per-request map from a
/// Zipf(θ) popularity distribution, and fire the routed stream over
/// `connections` connections — open loop at `target_qps` when given, closed loop
/// otherwise (the mode cache hit-rate curves want: no arrival schedule
/// to pick, the cache is the only variable).
#[allow(clippy::too_many_arguments)]
fn bench_multimap(
    addr: std::net::SocketAddr,
    k: usize,
    county_segments: usize,
    continent_seed: u64,
    workload: lsdb::bench::workloads::Workload,
    queries: usize,
    connections: usize,
    target_qps: Option<f64>,
    zipf_theta: f64,
    seed: u64,
    report_cache: bool,
    send_shutdown: bool,
) -> i32 {
    use lsdb::bench::wire::requests_for;
    use lsdb::bench::workloads::QueryWorkbench;
    use lsdb::server::{run_closed_loop_routed, run_open_loop_routed, Client};
    use lsdb_rng::StdRng;

    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect: {e}");
            return 1;
        }
    };
    // Open every targeted county and build its local stream. Stream
    // length is the per-map worst case (a map could absorb the whole
    // run), cycled by cursor if the Zipf draw exceeds it.
    let specs = tiger::continent(k, county_segments, continent_seed);
    let mut ids = Vec::with_capacity(k);
    let mut streams = Vec::with_capacity(k);
    for spec in &specs {
        let id = match client.open_map(&spec.name) {
            Ok((id, _len)) => id,
            Err(e) => {
                eprintln!(
                    "cannot open map `{}` (does the server host a --continent {k} catalog \
                     with the same --county-segments/--continent-seed?): {e}",
                    spec.name
                );
                return 1;
            }
        };
        ids.push(id);
        let map = tiger::generate(spec);
        let wb = QueryWorkbench::new(&map, queries.max(1), seed ^ spec.seed);
        streams.push(requests_for(&wb, workload));
    }

    let cdf = zipf_cdf(k, zipf_theta);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05EE_D2A9);
    let mut cursors = vec![0usize; k];
    let routed: Vec<(u32, lsdb::server::Request)> = (0..queries)
        .map(|_| {
            let u = rng.next_f64();
            let m = cdf.iter().position(|&c| u <= c).unwrap_or(k - 1);
            let stream = &streams[m];
            let req = stream[cursors[m] % stream.len()].clone();
            cursors[m] += 1;
            (ids[m], req)
        })
        .collect();

    match target_qps {
        Some(qps) => outln!(
            "{queries} x {} across {k} maps (Zipf theta {zipf_theta}) against {addr}, \
             {connections} connection(s), open loop at {qps} queries/s",
            workload.label()
        ),
        None => outln!(
            "{queries} x {} across {k} maps (Zipf theta {zipf_theta}) against {addr}, \
             {connections} connection(s), closed loop",
            workload.label()
        ),
    }
    let run = match target_qps {
        Some(qps) => run_open_loop_routed(addr, &routed, connections, qps),
        None => run_closed_loop_routed(addr, &routed, connections),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return 1;
        }
    };
    let n = report.queries.max(1) as f64;
    outln!(
        "throughput : {:.0} queries/s ({} queries in {:.3}s)",
        report.throughput_qps(),
        report.queries,
        report.wall.as_secs_f64()
    );
    outln!(
        "latency    : p50 {:.0} us, p99 {:.0} us, p999 {:.0} us, max {:.0} us",
        report.p50().as_secs_f64() * 1e6,
        report.p99().as_secs_f64() * 1e6,
        report.p999().as_secs_f64() * 1e6,
        report.max_latency().as_secs_f64() * 1e6
    );
    outln!(
        "per query  : {:.2} disk accesses, {:.2} segment comps, {:.2} bbox/bucket comps, {:.2} results",
        report.totals.disk.total() as f64 / n,
        report.totals.seg_comps as f64 / n,
        report.totals.bbox_comps as f64 / n,
        report.result_items as f64 / n
    );
    match client.stats_v3() {
        Ok(stats) => {
            if stats.budget.total != u64::MAX {
                outln!(
                    "budget     : {} / {} bytes resident, {} admissions, {} denials",
                    stats.budget.used,
                    stats.budget.total,
                    stats.budget.admissions,
                    stats.budget.denials
                );
            }
            for m in stats.maps.iter().filter(|m| m.queries > 0) {
                outln!(
                    "map {:10}: {} queries, {} disk accesses, cache {}h/{}m/{}e",
                    m.name,
                    m.queries,
                    m.totals.disk.total(),
                    m.cache.hits,
                    m.cache.misses,
                    m.cache.evictions
                );
            }
            if report_cache {
                print_reply_cache_summary(&stats.maps);
            }
        }
        Err(e) => eprintln!("per-map stats unavailable: {e}"),
    }
    if send_shutdown {
        match client.shutdown() {
            Ok(()) => outln!("server shutdown requested"),
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                return 1;
            }
        }
    }
    0
}

/// Shared bench-client epilogue: report server-side totals and honor
/// `--cache` / `--shutdown`.
fn finish(addr: std::net::SocketAddr, report_cache: bool, send_shutdown: bool) -> i32 {
    match lsdb::server::Client::connect(addr) {
        Ok(mut client) => {
            match client.stats_v3() {
                Ok(stats) => {
                    outln!(
                        "server     : {} queries served since start, {} disk accesses total",
                        stats.queries,
                        stats.totals.disk.total()
                    );
                    if report_cache {
                        print_reply_cache_summary(&stats.maps);
                    }
                }
                Err(e) => eprintln!("server stats unavailable: {e}"),
            }
            if send_shutdown {
                match client.shutdown() {
                    Ok(()) => outln!("server shutdown requested"),
                    Err(e) => {
                        eprintln!("shutdown failed: {e}");
                        return 1;
                    }
                }
            }
        }
        Err(e) => eprintln!("post-run stats unavailable: {e}"),
    }
    0
}

/// Sum the per-map reply-cache counters from a STATS reply and print
/// one summary line (hit rate across all maps, resident bytes, churn).
fn print_reply_cache_summary(maps: &[lsdb::server::MapStatsWire]) {
    let mut c = lsdb::server::ReplyCacheWire {
        enabled: maps.iter().any(|m| m.reply_cache.enabled),
        ..Default::default()
    };
    for m in maps {
        let rc = &m.reply_cache;
        c.entries += rc.entries;
        c.bytes += rc.bytes;
        c.hits += rc.hits;
        c.misses += rc.misses;
        c.insertions += rc.insertions;
        c.evictions += rc.evictions;
        c.invalidations += rc.invalidations;
        c.rejections += rc.rejections;
    }
    if !c.enabled {
        outln!("reply cache: off");
        return;
    }
    let probes = c.hits + c.misses;
    let rate = if probes == 0 {
        0.0
    } else {
        100.0 * c.hits as f64 / probes as f64
    };
    outln!(
        "reply cache: {} hits / {} misses ({rate:.1}% hit rate), {} entries / {} bytes resident, \
         {} insertions, {} evictions, {} invalidations, {} rejections",
        c.hits,
        c.misses,
        c.entries,
        c.bytes,
        c.insertions,
        c.evictions,
        c.invalidations,
        c.rejections
    );
}
