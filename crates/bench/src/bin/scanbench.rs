//! Node-scan kernel microbenchmark: ISA × page-size matrix.
//!
//! The hot loop of every query is "test each bounding rectangle on one
//! node page against the query region". This binary races the
//! implementations of that loop over synthetic leaf pages of 50 (what a
//! 1 KB paper page holds), 256, 512 and 1024 entries (raw byte layouts,
//! no pool), all in the v2 structure-of-arrays lane layout:
//!
//! * **soa-scalar** — the portable blocked-scalar kernel ([`Isa::Scalar`]).
//! * **soa-avx2** — the explicit 8-wide `std::arch` kernels with movemask
//!   survivor extraction (rows appear only when the host CPU has AVX2).
//!
//! The AVX2 arm must reproduce the scalar arm's survivor aggregate —
//! checked here per cell, and proven survivor-by-survivor in the
//! differential tests of `lsdb-core`. `--json PATH` additionally writes
//! the matrix as `BENCH_scan.json` rows.
//!
//! Usage: `scanbench [--iters N] [--json PATH]`

use lsdb_bench::report::render_table;
use lsdb_core::rectnode::{Entry, RectNode, ENTRY, HDR};
use lsdb_core::scan::{
    scan_containing_point_with, scan_intersecting_with, scan_min_dist2_with, EntryScan, Isa,
};
use lsdb_geom::{Point, Rect};
use lsdb_rng::StdRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Entry counts per synthetic page. 50 is what a 1 KB paper page holds,
/// the node size actually served; the larger sizes show how the kernels
/// scale when pages do.
const PAGE_ENTRIES: [usize; 4] = [50, 256, 512, 1024];

/// Generate the entry set for one synthetic leaf page, mirroring the
/// differential tests: 25% zero-area rectangles.
fn random_entries(rng: &mut StdRng, n: usize) -> Vec<Entry> {
    (0..n)
        .map(|i| {
            let x0 = rng.gen_range(-1000..1000);
            let y0 = rng.gen_range(-1000..1000);
            let (w, h) = if rng.gen_bool(0.25) {
                (0, 0)
            } else {
                (rng.gen_range(0..100), rng.gen_range(0..100))
            };
            Entry {
                rect: Rect::new(x0, y0, x0 + w, y0 + h),
                child: i as u32,
            }
        })
        .collect()
}

/// Encode entries as a v2 SoA page.
fn soa_page(entries: &[Entry]) -> Vec<u8> {
    let mut buf = vec![0u8; HDR + entries.len() * ENTRY];
    RectNode::init(&mut buf, true);
    for &e in entries {
        RectNode::push(&mut buf, e);
    }
    buf
}

/// Run `f` `iters` times over the page and report nanoseconds per entry
/// plus the survivor aggregate (for cross-variant agreement checks).
fn bench(iters: usize, n: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    // One untimed pass warms the page into cache.
    let mut check = f();
    let start = Instant::now();
    for _ in 0..iters {
        check = check.wrapping_add(f());
    }
    let ns = start.elapsed().as_nanos() as f64;
    (ns / (iters as f64 * n as f64), check)
}

/// One matrix cell: a (predicate, page size, ISA) timing.
struct Cell {
    predicate: &'static str,
    entries: usize,
    isa: Isa,
    ns_per_entry: f64,
}

/// Time one predicate on every host ISA, appending one cell per ISA.
/// `scan` runs the predicate once on the given arm and returns its
/// survivor aggregate. The scalar arm is always available and comes first
/// in [`Isa::ALL`], so its aggregate is the reference the AVX2 arm must
/// reproduce.
fn race(
    cells: &mut Vec<Cell>,
    isas: &[Isa],
    iters: usize,
    n: usize,
    predicate: &'static str,
    scan: impl Fn(Isa) -> u64,
) {
    let mut want = None;
    for &isa in isas {
        let (ns_per_entry, got) = bench(iters, n, || scan(isa));
        let want = *want.get_or_insert(got);
        assert_eq!(got, want, "{predicate} survivors diverged on {isa:?}");
        cells.push(Cell {
            predicate,
            entries: n,
            isa,
            ns_per_entry,
        });
    }
}

fn main() {
    let mut iters = 20_000usize;
    let mut json_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                i += 1;
                iters = args[i].parse().expect("--iters N");
            }
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            other => {
                eprintln!("usage: scanbench [--iters N] [--json PATH] (unknown arg {other})");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let isas: Vec<Isa> = Isa::ALL.into_iter().filter(|i| i.available()).collect();
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    let window = Rect::new(-300, -300, 250, 400);
    let probe = Point::new(17, -42);

    let mut cells: Vec<Cell> = Vec::new();
    for n in PAGE_ENTRIES {
        let page = soa_page(&random_entries(&mut rng, n));
        let page = page.as_slice();
        race(&mut cells, &isas, iters, n, "window", |isa| {
            let mut hits = 0u64;
            let scan = EntryScan::of_node(black_box(page));
            scan_intersecting_with(isa, &scan, &window, |e| hits += e.child as u64);
            hits
        });
        race(&mut cells, &isas, iters, n, "point", |isa| {
            let mut hits = 0u64;
            let scan = EntryScan::of_node(black_box(page));
            scan_containing_point_with(isa, &scan, probe, |e| hits += e.child as u64);
            hits
        });
        race(&mut cells, &isas, iters, n, "dist2", |isa| {
            let mut acc = 0u64;
            let scan = EntryScan::of_node(black_box(page));
            scan_min_dist2_with(isa, &scan, probe, |_, d| acc = acc.wrapping_add(d as u64));
            acc
        });
    }

    let mut header = vec!["predicate".to_string(), "entries".to_string()];
    header.extend(isas.iter().map(|isa| format!("soa-{} ns/e", isa.label())));
    let mut rows = vec![header];
    rows.extend(cells.chunks(isas.len()).map(|row| {
        let mut out = vec![row[0].predicate.to_string(), row[0].entries.to_string()];
        out.extend(row.iter().map(|c| format!("{:.2}", c.ns_per_entry)));
        out
    }));

    println!(
        "Node-scan kernel matrix ({iters} iterations per cell, ns per entry; host ISAs: {})\n",
        isas.iter()
            .map(|i| i.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{}", render_table(&rows));
    println!("soa-* = v2 lane layout through lsdb_core::scan on the named ISA.");

    if let Some(path) = json_path {
        let doc = render_scan_json(iters, &isas, &cells);
        lsdb_bench::json::write_file(std::path::Path::new(&path), &doc)
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}

/// Deterministic-key-order JSON document for `BENCH_scan.json`, in the
/// same hand-rolled style as `lsdb_bench::json` (ns values naturally vary
/// run to run; everything else diffs clean).
fn render_scan_json(iters: usize, isas: &[Isa], cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"scan_kernels\",");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(
        out,
        "  \"host_isas\": [{}],",
        isas.iter()
            .map(|i| format!("\"{}\"", i.label()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"predicate\": \"{}\", \"entries\": {}, \"variant\": \"soa-{}\", \
             \"ns_per_entry\": {:.3}}}",
            c.predicate,
            c.entries,
            c.isa.label(),
            c.ns_per_entry,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
