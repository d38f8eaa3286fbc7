//! Closed-loop load generator for the wire protocol.
//!
//! Mirrors the in-process parallel driver: the request stream is split
//! into contiguous chunks, one connection (and thread) per chunk, each
//! issuing its requests back-to-back and waiting for every reply. Because
//! the server charges each query to its own context, the summed counters
//! are chunk-order independent — identical to running the same stream
//! in-process.

use crate::client::Client;
use crate::protocol::{Reply, Request};
use lsdb_core::QueryStats;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What one closed-loop run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests issued (every one was answered).
    pub queries: usize,
    /// Connections (= client threads) used.
    pub connections: usize,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Per-request latencies, sorted ascending (basis of the percentiles).
    pub latencies: Vec<Duration>,
    /// Summed per-query counters reported by the server.
    pub totals: QueryStats,
    /// Summed result cardinalities (segments / boundary steps).
    pub result_items: u64,
}

impl LoadReport {
    /// Overall request throughput.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.queries as f64 / self.wall.as_secs_f64()
    }

    /// Latency at quantile `q` in `[0, 1]` (nearest-rank).
    pub fn latency_at(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let rank =
            ((q * self.latencies.len() as f64).ceil() as usize).clamp(1, self.latencies.len());
        self.latencies[rank - 1]
    }

    pub fn p50(&self) -> Duration {
        self.latency_at(0.50)
    }

    pub fn p95(&self) -> Duration {
        self.latency_at(0.95)
    }

    pub fn p99(&self) -> Duration {
        self.latency_at(0.99)
    }

    pub fn p999(&self) -> Duration {
        self.latency_at(0.999)
    }

    pub fn max_latency(&self) -> Duration {
        self.latencies.last().copied().unwrap_or(Duration::ZERO)
    }
}

/// Drive `requests` against map `0` of the server at `addr` over
/// `connections` parallel closed-loop connections. Service ops are legal
/// in the stream but contribute no counters.
pub fn run_closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    connections: usize,
) -> io::Result<LoadReport> {
    closed_loop(addr, &on_map_zero(requests), connections)
}

/// [`run_closed_loop`], but every request is routed to its own catalog
/// map. The closed-loop counterpart of [`run_open_loop_routed`]: no
/// arrival schedule, each connection issues its chunk back-to-back — the
/// mode hit-rate curves want, where the interesting variable is the
/// cache, not a QPS target.
pub fn run_closed_loop_routed(
    addr: SocketAddr,
    requests: &[(u32, Request)],
    connections: usize,
) -> io::Result<LoadReport> {
    closed_loop(addr, &routed(requests), connections)
}

fn on_map_zero(requests: &[Request]) -> Vec<(u32, &Request)> {
    requests.iter().map(|r| (0, r)).collect()
}

fn routed(requests: &[(u32, Request)]) -> Vec<(u32, &Request)> {
    requests.iter().map(|(m, r)| (*m, r)).collect()
}

fn closed_loop(
    addr: SocketAddr,
    requests: &[(u32, &Request)],
    connections: usize,
) -> io::Result<LoadReport> {
    let connections = connections.max(1).min(requests.len().max(1));
    let chunk_len = requests.len().div_ceil(connections);
    let start = Instant::now();
    let partials: Vec<io::Result<ChunkResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk_len.max(1))
            .map(|chunk| scope.spawn(move || run_chunk(addr, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    merge(partials, connections, start.elapsed())
}

struct ChunkResult {
    latencies: Vec<Duration>,
    totals: QueryStats,
    result_items: u64,
}

/// Fold per-connection results into one report.
fn merge(
    partials: Vec<io::Result<ChunkResult>>,
    connections: usize,
    wall: Duration,
) -> io::Result<LoadReport> {
    let mut report = LoadReport {
        connections,
        wall,
        ..LoadReport::default()
    };
    for partial in partials {
        let p = partial?;
        report.queries += p.latencies.len();
        report.latencies.extend(p.latencies);
        report.totals.add(p.totals);
        report.result_items += p.result_items;
    }
    report.latencies.sort();
    Ok(report)
}

fn run_chunk(addr: SocketAddr, chunk: &[(u32, &Request)]) -> io::Result<ChunkResult> {
    let mut client = Client::connect(addr)?;
    let mut out = ChunkResult {
        latencies: Vec::with_capacity(chunk.len()),
        totals: QueryStats::default(),
        result_items: 0,
    };
    for &(map, req) in chunk {
        let t0 = Instant::now();
        let reply = client.call_on(map, req)?;
        out.latencies.push(t0.elapsed());
        if let Some(stats) = reply.stats() {
            out.totals.add(stats);
        }
        out.result_items += reply.result_size() as u64;
        if matches!(reply, Reply::Bye) {
            break;
        }
    }
    Ok(out)
}

/// Drive `requests` against map `0` at a *fixed arrival rate* of
/// `target_qps`, spread round-robin over `connections` pipelined
/// connections. Each connection runs a sender thread (writes frames on
/// the global schedule, never waiting for replies) and a reader thread
/// (matches replies by correlation id), so a slow query delays nothing
/// behind it.
///
/// Latency is measured from each request's *scheduled* send time — if
/// the sender falls behind, the queueing delay is charged to the
/// request rather than silently dropped (no coordinated omission). The
/// tail percentiles ([`LoadReport::p99`], [`LoadReport::p999`]) are the
/// point of this mode.
pub fn run_open_loop(
    addr: SocketAddr,
    requests: &[Request],
    connections: usize,
    target_qps: f64,
) -> io::Result<LoadReport> {
    open_loop(addr, &on_map_zero(requests), connections, target_qps)
}

/// [`run_open_loop`], but every request is routed to its own catalog map
/// — the multi-map serving benchmark: one arrival schedule, one
/// connection pool, requests fanned across maps exactly as a mixed
/// tenant population would issue them.
pub fn run_open_loop_routed(
    addr: SocketAddr,
    requests: &[(u32, Request)],
    connections: usize,
    target_qps: f64,
) -> io::Result<LoadReport> {
    open_loop(addr, &routed(requests), connections, target_qps)
}

fn open_loop(
    addr: SocketAddr,
    requests: &[(u32, &Request)],
    connections: usize,
    target_qps: f64,
) -> io::Result<LoadReport> {
    if !target_qps.is_finite() || target_qps <= 0.0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "target_qps must be positive",
        ));
    }
    let connections = connections.max(1).min(requests.len().max(1));
    let period = Duration::from_secs_f64(1.0 / target_qps);

    // Connection c owns requests c, c+connections, ... — the global
    // schedule interleaves evenly across connections.
    let lanes: Vec<Vec<(Duration, u32, &Request)>> = (0..connections)
        .map(|c| {
            requests
                .iter()
                .enumerate()
                .skip(c)
                .step_by(connections)
                .map(|(i, &(map, req))| (period * i as u32, map, req))
                .collect()
        })
        .collect();

    let start = Instant::now();
    let partials: Vec<io::Result<ChunkResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| scope.spawn(move || run_lane(addr, lane, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    merge(partials, connections, start.elapsed())
}

/// One open-loop connection: a sender honoring the schedule and a reader
/// correlating replies, racing on a split stream.
fn run_lane(
    addr: SocketAddr,
    lane: &[(Duration, u32, &Request)],
    start: Instant,
) -> io::Result<ChunkResult> {
    use crate::protocol::{decode_reply, read_frame, write_frame, FrameError, FrameEvent};

    if lane.is_empty() {
        return Ok(ChunkResult {
            latencies: Vec::new(),
            totals: QueryStats::default(),
            result_items: 0,
        });
    }
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut write_half = stream.try_clone()?;
    let mut read_half = stream;

    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<()> {
            // Correlation id = index into this lane, so the reader can
            // find the scheduled time without shared state.
            for (corr, (sched, map, req)) in lane.iter().enumerate() {
                let due = start + *sched;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                write_frame(&mut write_half, &req.encode_v3(corr as u32, *map))?;
            }
            Ok(())
        });

        let mut out = ChunkResult {
            latencies: vec![Duration::ZERO; lane.len()],
            totals: QueryStats::default(),
            result_items: 0,
        };
        let mut read_one = || -> io::Result<(u32, Reply)> {
            loop {
                match read_frame(&mut read_half, crate::protocol::MAX_REPLY_FRAME) {
                    Ok(FrameEvent::Frame(p)) => {
                        return decode_reply(&p)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                    }
                    Ok(FrameEvent::Eof) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed mid-run",
                        ))
                    }
                    Ok(FrameEvent::Idle) => continue,
                    Err(FrameError::Oversized(n)) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("oversized reply frame: {n} bytes"),
                        ))
                    }
                    Err(FrameError::Io(e)) => return Err(e),
                }
            }
        };
        let reader_result = (|| -> io::Result<()> {
            for _ in 0..lane.len() {
                let (corr, reply) = read_one()?;
                let slot = corr as usize;
                if slot >= lane.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply without a known correlation id",
                    ));
                }
                // Open-loop latency: now minus *scheduled* send time.
                out.latencies[slot] = (start + lane[slot].0).elapsed();
                if let Some(stats) = reply.stats() {
                    out.totals.add(stats);
                }
                out.result_items += reply.result_size() as u64;
            }
            Ok(())
        })();

        sender.join().expect("open-loop sender thread")?;
        reader_result?;
        Ok(out)
    })
}
