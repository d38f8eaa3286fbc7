//! Over-the-wire query cost: what the TCP service layer adds on top of the
//! in-process engine.
//!
//! For each paper structure × workload, the same query stream runs twice —
//! once in-process through [`QueryWorkbench::run_threaded`], once through
//! `lsdb-server`'s closed-loop client against a server on a loopback
//! ephemeral port (connections = `--threads`). The wire run must reproduce
//! the in-process counters exactly (the protocol ships every query's
//! `QueryStats` back in the reply); what differs is throughput and
//! latency, which is the point of the table.
//!
//! Usage: `cargo run --release -p lsdb-bench --bin netcost -- [--queries N] [--threads N]`

use lsdb_bench::report::render_table;
use lsdb_bench::wire::requests_for;
use lsdb_bench::workloads::{QueryWorkbench, Workload};
use lsdb_bench::{build_index, IndexKind, WorkloadConfig};
use lsdb_core::{IndexConfig, LiveIndex};
use lsdb_server::{run_closed_loop, Catalog, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

fn main() {
    let cfg = IndexConfig::default();
    let wcfg = WorkloadConfig::from_args();
    let map = wcfg.county("Charles");
    println!(
        "Network cost: Charles county ({} segments), {} queries per type, {} connection(s)\n",
        map.len(),
        wcfg.queries,
        wcfg.threads
    );
    let wb = QueryWorkbench::new(&map, wcfg.queries, 0xC4A5);

    let mut rows = vec![vec![
        "structure".to_string(),
        "query".to_string(),
        "in-proc qps".to_string(),
        "wire qps".to_string(),
        "p50 us".to_string(),
        "p95 us".to_string(),
        "p99 us".to_string(),
        "counters".to_string(),
    ]];

    for kind in IndexKind::paper_three() {
        // Two identical builds: the server consumes one, the in-process
        // reference keeps the other.
        let served = build_index(kind, &map, cfg);
        let local = build_index(kind, &map, cfg);

        let server = Server::bind_catalog(
            "127.0.0.1:0",
            Catalog::single(LiveIndex::volatile(served)),
            ServerConfig {
                workers: wcfg.threads,
                read_timeout: Duration::from_millis(100),
                ..Default::default()
            },
        )
        .expect("bind loopback server");
        let addr = server.local_addr().expect("server address");
        let handle = std::thread::spawn(move || server.run().expect("server run"));

        for w in Workload::ALL {
            let requests = requests_for(&wb, w);
            let start = Instant::now();
            let in_proc = wb.run_threaded(w, local.as_ref(), wcfg.threads);
            let in_proc_secs = start.elapsed().as_secs_f64();
            let report = run_closed_loop(addr, &requests, wcfg.threads).expect("closed-loop run");

            let n = report.queries as f64;
            let counters_match = report.queries == in_proc.queries
                && report.totals.disk.total() as f64 / n == in_proc.disk_accesses
                && report.totals.seg_comps as f64 / n == in_proc.seg_comps
                && report.totals.bbox_comps as f64 / n == in_proc.bbox_comps;

            rows.push(vec![
                kind.label(),
                w.label().to_string(),
                format!("{:.0}", in_proc.queries as f64 / in_proc_secs),
                format!("{:.0}", report.throughput_qps()),
                format!("{:.0}", report.p50().as_secs_f64() * 1e6),
                format!("{:.0}", report.p95().as_secs_f64() * 1e6),
                format!("{:.0}", report.p99().as_secs_f64() * 1e6),
                if counters_match {
                    "exact".into()
                } else {
                    "MISMATCH".into()
                },
            ]);
            if !counters_match {
                eprintln!(
                    "warning: wire counters diverge from in-process for {} / {}",
                    kind.label(),
                    w.label()
                );
            }
        }

        Client::connect(addr)
            .and_then(|mut c| c.shutdown())
            .expect("shutdown server");
        handle.join().expect("join server");
    }

    println!("{}", render_table(&rows));
    println!(
        "wire = framed request/reply over loopback TCP, closed loop, {} connection(s);",
        wcfg.threads
    );
    println!("counters 'exact' = per-query disk/seg/bbox totals identical to the in-process run.");
}
