//! The served run: a closed loop over loopback TCP. Each client
//! connection sends its next request only after the previous reply
//! arrived, so the offered load follows the server's speed.

use crate::check;
use crate::setup::MAP_NAMES;
use crate::workload::Plan;
use lsdb_core::QueryStats;
use lsdb_server::{Catalog, CatalogStats, Client, Server, ServerConfig, ShutdownHandle};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client connections in the closed loop.
const CONNECTIONS: usize = 4;
/// Executor threads of the served catalog (its I/O thread is one more).
const WORKERS: usize = 2;
/// Traffic before the measured window, so the reply cache fills and
/// lazy set-up finishes before timing starts.
const WARMUP: Duration = Duration::from_secs(1);

/// One request sent and answered.
pub struct Record {
    /// Position in the stream (the order connections claimed requests).
    pub seq: u64,
    /// The distinct request sent ([`Plan::key`]).
    pub key: u64,
    pub conn: usize,
    /// When the request was sent, from the start of the run.
    pub sent: Duration,
    pub rtt: Duration,
    /// Digest of the reply; `None` when the request failed.
    pub digest: Option<u64>,
}

impl Record {
    pub fn measured(&self) -> bool {
        self.sent >= WARMUP
    }

    /// When the reply arrived, from the start of the measured window.
    pub fn finished(&self) -> Duration {
        (self.sent + self.rtt).saturating_sub(WARMUP)
    }
}

pub struct Served {
    /// Every request sent, warm-up included, in stream order.
    pub records: Vec<Record>,
    /// From the start of the measured window to its last reply.
    pub measured_span: Duration,
    /// Summed counters of the measured replies.
    pub totals: QueryStats,
    /// Summed result sizes of the measured replies.
    pub result_items: u64,
    /// Reply-cache hits and misses over the measured window (server STATS).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub errors: Vec<String>,
}

/// Serve `catalog` on an ephemeral loopback port, drive `plan` at it for
/// the warm-up plus `seconds`, then shut the server down and wait for it.
pub fn run(catalog: Catalog, plan: &Plan, seconds: f64) -> io::Result<Served> {
    let config = ServerConfig {
        workers: WORKERS,
        read_timeout: Duration::from_millis(20),
        ..Default::default()
    };
    let server = Server::bind_catalog("127.0.0.1:0", catalog, config)?;
    let addr = server.local_addr()?;
    let stop = StopOnDrop(server.shutdown_handle());
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        let driven = drive(addr, plan, seconds);
        drop(stop);
        serving
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))??;
        driven
    })
}

/// Stops the server however `drive` returns, so the scope can join it.
struct StopOnDrop(ShutdownHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn drive(addr: SocketAddr, plan: &Plan, seconds: f64) -> io::Result<Served> {
    let mut control = Client::connect(addr)?;
    let mut ids = [0u32; 3];
    for (id, name) in ids.iter_mut().zip(MAP_NAMES) {
        *id = control.open_map(name)?.0;
    }
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let end = WARMUP + Duration::from_secs_f64(seconds);
    let (lanes, before, after) = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (ids, next) = (&ids, &next);
                scope.spawn(move || lane(addr, conn, plan, ids, next, start, end))
            })
            .collect();
        std::thread::sleep(WARMUP.saturating_sub(start.elapsed()));
        let before = control.stats_v3();
        let lanes: Vec<Lane> = lanes
            .into_iter()
            .map(|h| h.join().expect("client connection thread"))
            .collect();
        (lanes, before, control.stats_v3())
    });
    let (before, after) = (before?, after?);

    let mut served = Served {
        records: Vec::new(),
        measured_span: Duration::ZERO,
        totals: QueryStats::default(),
        result_items: 0,
        cache_hits: cache_counter(&after, |c| c.hits) - cache_counter(&before, |c| c.hits),
        cache_misses: cache_counter(&after, |c| c.misses) - cache_counter(&before, |c| c.misses),
        errors: Vec::new(),
    };
    for lane in lanes {
        served.records.extend(lane.records);
        served.totals.add(lane.totals);
        served.result_items += lane.result_items;
        served.errors.extend(lane.errors);
    }
    served.records.sort_unstable_by_key(|r| r.seq);
    served.measured_span = served
        .records
        .iter()
        .filter(|r| r.measured())
        .map(|r| r.sent + r.rtt)
        .max()
        .unwrap_or(WARMUP)
        - WARMUP;
    Ok(served)
}

fn cache_counter(stats: &CatalogStats, field: fn(&lsdb_server::ReplyCacheWire) -> u64) -> u64 {
    stats.maps.iter().map(|m| field(&m.reply_cache)).sum()
}

#[derive(Default)]
struct Lane {
    records: Vec<Record>,
    totals: QueryStats,
    result_items: u64,
    errors: Vec<String>,
}

/// One closed-loop connection: claim the next stream index, send its
/// request, wait for the reply, until the run ends.
fn lane(
    addr: SocketAddr,
    conn: usize,
    plan: &Plan,
    ids: &[u32; 3],
    next: &AtomicU64,
    start: Instant,
    end: Duration,
) -> Lane {
    let mut out = Lane::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            out.errors.push(format!("connection {conn}: {e}"));
            return out;
        }
    };
    loop {
        let sent = start.elapsed();
        if sent >= end {
            break;
        }
        let seq = next.fetch_add(1, Ordering::Relaxed);
        let key = plan.key(seq);
        let frame = plan.frame(key);
        let t0 = Instant::now();
        let result = client.call_on(ids[frame.map], &frame.request);
        let rtt = t0.elapsed();
        let mut record = Record {
            seq,
            key,
            conn,
            sent,
            rtt,
            digest: None,
        };
        match result {
            Ok(reply) => {
                if record.measured() {
                    if let Some(stats) = reply.stats() {
                        out.totals.add(stats);
                    }
                    out.result_items += reply.result_size() as u64;
                }
                record.digest = Some(check::digest(&reply));
                out.records.push(record);
            }
            Err(e) => {
                out.errors
                    .push(format!("connection {conn}, request {seq}: {e}"));
                out.records.push(record);
                break;
            }
        }
    }
    out
}
