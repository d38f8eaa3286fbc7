//! Blocking client for the `lsdb` wire protocol.
//!
//! One [`Client`] wraps one TCP connection. [`Client::connect`] checks
//! with a `HELLO` exchange that the server speaks protocol v3; every
//! request then travels with a correlation id and a map id.
//! [`Client::call`] routes to map `0`, [`Client::call_on`] to any
//! catalog map; ids come from the catalog ops ([`Client::open_map`],
//! [`Client::list_maps`], [`Client::close_map`], [`Client::stats_v3`]).
//! [`Client::pipeline`] keeps many requests in flight on one connection
//! (replies matched by id) and [`Client::call_batch`] sends a list of
//! queries as one `BATCH` frame, which the server answers in one reply.
//!
//! Server-side error frames surface as [`std::io::ErrorKind::Other`]
//! errors carrying the structured code and message.

use crate::protocol::{
    decode_reply, read_frame, write_frame, BudgetWire, ErrorCode, FrameError, FrameEvent, MapInfo,
    MapStatsWire, Reply, Request, MAX_REPLY_FRAME, PROTOCOL_VERSION,
};
use lsdb_core::{QueryStats, SegId};
use lsdb_geom::Segment;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A server-reported error frame, preserved through [`io::Error`].
#[derive(Clone, Debug)]
pub struct ServerError {
    pub code: ErrorCode,
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error ({:?}): {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// The `STATS` answer: process aggregates, the buffer-budget gauge, and
/// one entry per map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogStats {
    pub queries: u64,
    pub totals: QueryStats,
    pub budget: BudgetWire,
    pub maps: Vec<MapStatsWire>,
}

/// One blocking protocol connection.
pub struct Client {
    stream: TcpStream,
    next_corr: u32,
}

impl Client {
    /// Connect with default timeouts (10 s read and write) and check the
    /// server speaks protocol v3.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(10))
    }

    /// Connect with an explicit read/write timeout, checking the version
    /// as [`Client::connect`] does.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            stream,
            next_corr: 0,
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match client.call(&hello)? {
            Reply::Hello {
                version: PROTOCOL_VERSION,
            } => Ok(client),
            other => Err(unexpected(&other)),
        }
    }

    fn read_reply(&mut self) -> io::Result<(u32, Reply)> {
        let payload = match read_frame(&mut self.stream, MAX_REPLY_FRAME) {
            Ok(FrameEvent::Frame(p)) => p,
            Ok(FrameEvent::Eof) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before replying",
                ))
            }
            Ok(FrameEvent::Idle) => {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timed out"))
            }
            Err(FrameError::Oversized(n)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("oversized reply frame: {n} bytes"),
                ))
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        decode_reply(&payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("undecodable reply: {e}"),
            )
        })
    }

    /// Issue one request to map `0` and wait for its reply. Error frames
    /// are returned as `Err`, so `Ok` replies are always answers.
    pub fn call(&mut self, req: &Request) -> io::Result<Reply> {
        self.call_on(0, req)
    }

    /// [`Client::call`] routed to catalog map `map`.
    pub fn call_on(&mut self, map: u32, req: &Request) -> io::Result<Reply> {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        write_frame(&mut self.stream, &req.encode_v3(corr, map))?;
        let (got, reply) = self.read_reply()?;
        if got != corr {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("correlation mismatch: sent {corr}, reply carries {got}"),
            ));
        }
        match reply {
            Reply::Error { code, message } => Err(io::Error::other(ServerError { code, message })),
            reply => Ok(reply),
        }
    }

    /// Send `items` (spatial queries, any mix) to map `0` as one `BATCH`
    /// frame and return the per-item replies in submission order.
    pub fn call_batch(&mut self, items: &[Request]) -> io::Result<Vec<Reply>> {
        match self.call(&Request::Batch(items.to_vec()))? {
            Reply::Batch(items) => Ok(items),
            other => Err(unexpected(&other)),
        }
    }

    /// Send every request (to map `0`) before reading any reply, then
    /// return the replies in request order (matched by correlation id —
    /// the server may complete them out of order).
    ///
    /// Per-request error frames stay inline as [`Reply::Error`] entries,
    /// so one bad request does not mask the other replies.
    pub fn pipeline(&mut self, reqs: &[Request]) -> io::Result<Vec<Reply>> {
        let base = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(reqs.len() as u32);
        for (i, req) in reqs.iter().enumerate() {
            let corr = base.wrapping_add(i as u32);
            write_frame(&mut self.stream, &req.encode_v3(corr, 0))?;
        }
        let mut out: Vec<Option<Reply>> = (0..reqs.len()).map(|_| None).collect();
        for _ in 0..reqs.len() {
            let (corr, reply) = self.read_reply()?;
            let i = corr.wrapping_sub(base) as usize;
            match out.get_mut(i) {
                Some(slot @ None) => *slot = Some(reply),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("reply carries unexpected correlation id {corr}"),
                    ))
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Durably insert a segment into the served index. Returns the id
    /// the segment received and the op's LSN; the server only
    /// acknowledges after the op is durable.
    pub fn insert(&mut self, seg: Segment) -> io::Result<(SegId, u64)> {
        match self.call(&Request::Insert(seg))? {
            Reply::Inserted { id, lsn } => Ok((id, lsn)),
            other => Err(unexpected(&other)),
        }
    }

    /// Durably delete the segment with `id`. Returns whether it was
    /// indexed, plus the op's LSN.
    pub fn delete(&mut self, id: SegId) -> io::Result<(bool, u64)> {
        match self.call(&Request::Delete { id })? {
            Reply::Deleted { removed, lsn } => Ok((removed, lsn)),
            other => Err(unexpected(&other)),
        }
    }

    /// Sync the server's op log. Returns the LSN of its last op (every
    /// acknowledged op was already synced when it was appended).
    pub fn flush(&mut self) -> io::Result<u64> {
        match self.call(&Request::Flush)? {
            Reply::Flushed { lsn } => Ok(lsn),
            other => Err(unexpected(&other)),
        }
    }

    /// `STATS`: process aggregates, the buffer-budget gauge, and per-map
    /// query/cache counters.
    pub fn stats_v3(&mut self) -> io::Result<CatalogStats> {
        match self.call(&Request::Stats)? {
            Reply::StatsV3 {
                queries,
                totals,
                budget,
                maps,
            } => Ok(CatalogStats {
                queries,
                totals,
                budget,
                maps,
            }),
            other => Err(unexpected(&other)),
        }
    }

    /// Open (or look up) the catalog map named `name`. Returns its map
    /// id — valid for [`Client::call_on`] — and its segment count.
    pub fn open_map(&mut self, name: &str) -> io::Result<(u32, u64)> {
        match self.call(&Request::OpenMap { name: name.into() })? {
            Reply::MapOpened { id, len } => Ok((id, len)),
            other => Err(unexpected(&other)),
        }
    }

    /// Every map in the server's catalog, open or cold.
    pub fn list_maps(&mut self) -> io::Result<Vec<MapInfo>> {
        match self.call(&Request::ListMaps)? {
            Reply::MapList(maps) => Ok(maps),
            other => Err(unexpected(&other)),
        }
    }

    /// Close the named map's store (it reopens lazily on the next query
    /// routed to it). Returns whether it was open; refuses maps the
    /// server cannot rebuild.
    pub fn close_map(&mut self, name: &str) -> io::Result<bool> {
        match self.call(&Request::CloseMap { name: name.into() })? {
            Reply::MapClosed { was_open } => Ok(was_open),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to drain and exit. The server acknowledges with
    /// `BYE` and then closes this connection.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("reply does not match the request: {reply:?}"),
    )
}
