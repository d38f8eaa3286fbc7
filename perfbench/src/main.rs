//! Served Charles-county benchmark.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table2|hot> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The system under test is the `lsdb-server` catalog hosting Charles
//! county — the paper's Table 2 map, ~47k segments — built by insertion
//! into the paper's three structures (R\*-tree, R+-tree, PMR quadtree) at
//! the paper's operating point (1 KB pages, 16-page buffer pool), with a
//! 4 MiB reply cache, served over loopback TCP by two executor threads.
//! Four closed-loop client connections drive one workload; after a 1 s
//! warm-up the run measures for `--seconds`.
//!
//! Workloads — one exercises the reply cache, one bypasses it:
//!
//! * `table2` — the seven Table 2 query variants (Point1, Point2,
//!   Nearest and Polygon with 1- and 2-stage points, Range), round-robin
//!   over the three maps, every key distinct: the traversal and the
//!   per-request wire path carry the cost, and the reply cache only ever
//!   misses.
//! * `hot` — Zipf(θ = 1) picks from 2^20 distinct requests of the same
//!   variants: the reply cache serves the hot head (about three requests
//!   in five) and the long tail misses, so the cache probe, admission and
//!   eviction sit on the path next to the wire and the traversal.
//!
//! Correctness: every served reply (ids and the paper's counters) must
//! equal the in-process reference computed on a separately built,
//! identical catalog, and on the first 210 requests the reference must
//! agree with the brute-force oracle and across the three structures.
//!
//! Output: the last stdout line is one JSON object with `correct`,
//! `attempted` and `failed` (requests, warm-up included) and `metrics`.
//! With `--trace 0` the metrics are end to end, over the requests answered
//! in the measured window, cut into 250 ms windows: the median and the
//! 99th-percentile latency that 95% of the windows stay under, the
//! throughput 95% of them reach, and set-up time (the median of three
//! catalog builds). With `--trace 1` they are per layer: the round trip
//! attributed to the server's layers (see `layers.rs`; the spans are also
//! written as a Chrome trace file next to the benchmark binary), the
//! paper's counters per query, results per segment comparison, and the
//! reply-cache hit ratio.

mod check;
mod layers;
mod load;
mod setup;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use workload::{Plan, Workload};

/// Catalog builds per run: the first is the reference, the last is served,
/// and `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests whose reference answers are checked against ground truth:
/// each (variant, map) pair ten times.
const ORACLE_REQUESTS: u64 = 210;
/// The measured span is cut into windows this long, and each end-to-end
/// figure is taken per window.
const WINDOW: Duration = Duration::from_millis(250);
/// A run reports what this share of its windows meet: the latency 95% of
/// the windows stay under, the throughput 95% of them reach. On a shared
/// host the CPU speed a run gets swings at sub-second scale, by up to a
/// factor of two, as other tenants come and go; how much of a run falls
/// in the slow state differs from run to run, and whole-run figures
/// follow that share, while a run's slowest windows are much steadier.
const WINDOW_QUANTILE: f64 = 0.95;

const USAGE: &str =
    "usage: lsdb-perfbench --workload <table2|hot> [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if seconds == 0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        format!(
            "unknown workload '{workload_name}' (one of {})",
            Workload::NAMES.join(", ")
        )
    })?;
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
    })
}

/// `(name, value, unit)` in reporting order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let map = setup::charles();
    let plan = Plan::new(args.workload, &map, args.seed);
    let (reference, served_catalog, setups) = setup::build_timed(&map, SETUPS);
    let served = load::run(served_catalog, &plan, args.seconds as f64)
        .map_err(|e| format!("serving failed: {e}"))?;

    let mut problems = served.errors.clone();
    let failed = check::served_replies(&reference, &plan, &served.records, &mut problems);
    check::oracle(&reference, &plan, &map, ORACLE_REQUESTS, &mut problems);
    let attempted = served.records.len() as u64;
    let measured: Vec<&load::Record> = served.records.iter().filter(|r| r.measured()).collect();
    if measured.is_empty() {
        return Err("no request was measured".into());
    }
    eprintln!(
        "{}: seed {}, {} requests measured over {:.3} s, {} in total, {} failed, setups {:?}",
        args.workload_name,
        args.seed,
        measured.len(),
        served.measured_span.as_secs_f64(),
        attempted,
        failed,
        setups
    );
    for p in &problems {
        eprintln!("problem: {p}");
    }

    let metrics = if args.trace {
        let trace_file = trace_dir()
            .map_err(|e| format!("no trace directory: {e}"))?
            .join(format!("{}.json", args.workload_name));
        let breakdown = layers::attribute(&reference, &plan, &served, &trace_file)
            .map_err(|e| format!("tracing failed: {e}"))?;
        eprintln!(
            "traced {} requests in-process; spans in {}",
            breakdown.requests,
            trace_file.display()
        );
        per_layer(&served, &breakdown, measured.len() as u64)
    } else {
        end_to_end(&served, &measured, &setups)?
    };
    Ok(render(
        problems.is_empty() && failed == 0,
        attempted,
        failed,
        &metrics,
    ))
}

fn end_to_end(
    served: &load::Served,
    measured: &[&load::Record],
    setups: &[Duration],
) -> Result<Metrics, String> {
    let windows = (served.measured_span.as_nanos() / WINDOW.as_nanos()).max(1) as usize;
    let mut rtts: Vec<Vec<Duration>> = vec![Vec::new(); windows];
    for r in measured {
        let w = (r.finished().as_nanos() / WINDOW.as_nanos()) as usize;
        if let Some(rtts) = rtts.get_mut(w) {
            rtts.push(r.rtt);
        }
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut p50, mut p99, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    for mut w in rtts {
        qps.push(w.len() as f64 / WINDOW.as_secs_f64());
        if !w.is_empty() {
            w.sort_unstable();
            p50.push(ms(quantile(&w, 0.50)));
            p99.push(ms(quantile(&w, 0.99)));
        }
    }
    if p50.is_empty() {
        return Err("no reply arrived within a whole measured window".into());
    }
    for v in [&mut p50, &mut p99, &mut qps] {
        v.sort_unstable_by(f64::total_cmp);
    }
    let mut setups = setups.to_vec();
    setups.sort_unstable();
    Ok(vec![
        ("p50_ms", quantile(&p50, WINDOW_QUANTILE), "ms"),
        ("p99_ms", quantile(&p99, WINDOW_QUANTILE), "ms"),
        (
            "throughput_qps",
            quantile(&qps, 1.0 - WINDOW_QUANTILE),
            "1/s",
        ),
        ("setup_s", setups[setups.len() / 2].as_secs_f64(), "s"),
    ])
}

fn per_layer(served: &load::Served, breakdown: &layers::Breakdown, queries: u64) -> Metrics {
    let mut metrics: Metrics = breakdown
        .times
        .iter()
        .map(|&(name, us)| (name, us, "us"))
        .collect();
    let per_query = |v: u64| v as f64 / queries as f64;
    let t = &served.totals;
    metrics.extend([
        ("index_reads_per_query", per_query(t.disk.reads), "count"),
        ("seg_reads_per_query", per_query(t.seg_disk.reads), "count"),
        ("bbox_comps_per_query", per_query(t.bbox_comps), "count"),
        ("seg_comps_per_query", per_query(t.seg_comps), "count"),
        // Useful outcomes per segment fetched: how much of the exact
        // geometry work ends up in an answer.
        (
            "results_per_seg_comp",
            served.result_items as f64 / t.seg_comps.max(1) as f64,
            "ratio",
        ),
    ]);
    let probes = served.cache_hits + served.cache_misses;
    metrics.push((
        "cache_hit_ratio",
        if probes == 0 {
            0.0
        } else {
            served.cache_hits as f64 / probes as f64
        },
        "ratio",
    ));
    metrics
}

/// Nearest-rank quantile of sorted samples.
fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Where traced runs leave their span files: beside the benchmark binary,
/// inside the build directory.
fn trace_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or(std::io::ErrorKind::NotFound)?;
    Ok(dir.join("traces"))
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
