//! The `lsdb` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or reply — is one *frame*:
//!
//! ```text
//! +-------------+---------------------+
//! | len: u32 LE | payload (len bytes) |
//! +-------------+---------------------+
//! ```
//!
//! `len` counts only the payload and must be in `1..=max`, where the
//! maximum is direction-specific ([`MAX_REQUEST_FRAME`] for requests,
//! [`MAX_REPLY_FRAME`] for replies). All integers are little-endian,
//! coordinates are `i32` (the geometry's native type), counters are `u64`.
//!
//! ## The envelope
//!
//! Every payload opens with the envelope marker [`V3_MARKER`] (`0xB3`)
//! and a correlation id; requests also name the catalog map they are
//! routed to:
//!
//! ```text
//! request: 0xB3 | corr: u32 LE | map: u32 LE | opcode: u8 | body
//! reply:   0xB3 | corr: u32 LE |              opcode: u8 | body
//! ```
//!
//! The correlation id is echoed verbatim in the reply, which is what
//! allows **pipelining**: a client may send many frames before reading
//! replies, and replies may complete out of order. A payload that opens
//! with any other byte — an older envelope, or an opcode-first frame —
//! draws a structured [`ErrorCode::UnsupportedVersion`] error frame, not
//! a hangup. [`Request::Hello`] survives only to name the version: a
//! client offering version 3 or higher is answered [`Reply::Hello`] with
//! version 3, a lower offer draws `UnsupportedVersion`.
//!
//! ## Maps
//!
//! One process serves a whole *catalog* of maps; the envelope's `map`
//! is the catalog id the request runs against, and an id the catalog
//! does not have draws [`ErrorCode::UnknownMap`]. Three catalog ops
//! resolve ids: `OPEN_MAP` maps a *name* to its id (building or
//! reopening its store if cold; answered by [`Reply::MapOpened`]),
//! `LIST_MAPS` enumerates the catalog ([`Reply::MapList`]), and
//! `CLOSE_MAP` drops a map's in-memory store ([`Reply::MapClosed`]; the
//! map stays in the catalog and reopens lazily on its next query).
//! `STATS` is answered by [`Reply::StatsV3`]: the paper's counters
//! aggregated process-wide and per map, plus the buffer-budget
//! accounting.
//!
//! ## Ops
//!
//! Requests cover the paper's query set — incident (query 1), second
//! endpoint (query 2), nearest (query 3), k-nearest (its ranked extension),
//! enclosing polygon (query 4), window (query 5) — plus `PING`, `STATS`
//! and `SHUTDOWN`. Every query reply carries a per-query [`QueryStats`]
//! block, so a remote caller sees exactly the metrics an in-process
//! [`lsdb_core::QueryCtx`] would have reported. `BATCH`
//! ([`Request::Batch`]) carries a list of query requests in any mix of
//! the six query ops: an item count, then each item's opcode + body
//! behind a `u32` length. [`Reply::Batch`] answers it in the same layout,
//! one nested reply per item in submission order. A batch item that is
//! not a query (a nested `BATCH` included) fails to decode.
//!
//! Three mutation ops round out the protocol: `INSERT` (a segment,
//! answered with its assigned id and the op's LSN), `DELETE` (an id,
//! answered with whether it was indexed) and `FLUSH` (sync the op log,
//! answered with its last LSN). Mutations are acknowledged only after
//! the op is durable; see [`lsdb_core::LiveIndex`].
//!
//! The opcode + body bytes ([`Request::encode`], [`Reply::encode`]) are
//! the envelope-free core of every frame: the reply cache keys on the
//! request body and stores the reply body.
//!
//! Decoding never panics: malformed bytes produce a [`ProtoError`], which
//! the server answers with a structured [`Reply::Error`] frame instead of
//! dropping the connection.

use lsdb_core::{DiskStats, QueryStats, SegId};
use lsdb_geom::{Point, Rect, Segment};
use std::io::{self, Read, Write};

/// Largest request payload the server reads — sized for `BATCH` frames
/// carrying tens of thousands of queries.
pub const MAX_REQUEST_FRAME: u32 = 4 * 1024 * 1024;

/// Most queries one `BATCH` request may carry; bigger batches draw
/// [`ErrorCode::BadArgument`]. The reply is bounded on its own: a batch
/// whose replies pass [`MAX_REPLY_FRAME`] is answered
/// [`ErrorCode::Oversized`].
pub const MAX_BATCH_ITEMS: usize = 65_536;

/// The protocol version this build speaks — the only one.
pub const PROTOCOL_VERSION: u8 = 3;

/// The envelope marker: first payload byte of every frame.
pub const V3_MARKER: u8 = 0xB0 | PROTOCOL_VERSION;

/// Largest reply payload a client will read, and the server will send: a
/// reply that would be larger is answered [`ErrorCode::Oversized`].
/// Bounds a window query over an entire county (hundreds of thousands of
/// `u32` segment ids) with room to spare.
pub const MAX_REPLY_FRAME: u32 = 16 * 1024 * 1024;

/// Request opcodes (first payload byte).
mod op {
    pub const PING: u8 = 0x01;
    pub const INCIDENT: u8 = 0x02;
    pub const SECOND: u8 = 0x03;
    pub const NEAREST: u8 = 0x04;
    pub const KNN: u8 = 0x05;
    pub const WINDOW: u8 = 0x06;
    pub const POLYGON: u8 = 0x07;
    pub const STATS: u8 = 0x08;
    pub const SHUTDOWN: u8 = 0x09;
    pub const HELLO: u8 = 0x0A;
    pub const BATCH: u8 = 0x0B;
    pub const INSERT: u8 = 0x0C;
    pub const DELETE: u8 = 0x0D;
    pub const FLUSH: u8 = 0x0E;
    pub const OPEN_MAP: u8 = 0x0F;
    pub const LIST_MAPS: u8 = 0x10;
    pub const CLOSE_MAP: u8 = 0x11;
}

/// Reply opcodes (first payload byte).
mod rop {
    pub const PONG: u8 = 0x80;
    pub const SEGS: u8 = 0x81;
    pub const NEAREST: u8 = 0x82;
    pub const POLYGON: u8 = 0x83;
    pub const BYE: u8 = 0x85;
    pub const HELLO: u8 = 0x86;
    pub const BATCH: u8 = 0x87;
    pub const INSERTED: u8 = 0x88;
    pub const DELETED: u8 = 0x89;
    pub const FLUSHED: u8 = 0x8A;
    pub const MAP_OPENED: u8 = 0x8B;
    pub const MAP_LIST: u8 = 0x8C;
    pub const MAP_CLOSED: u8 = 0x8D;
    pub const STATS_V3: u8 = 0x8E;
    pub const ERROR: u8 = 0xEE;
}

/// One client request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Version check: the highest protocol version the client speaks.
    /// Answered with [`Reply::Hello`] if that is 3 or higher, with
    /// [`ErrorCode::UnsupportedVersion`] otherwise.
    Hello { version: u8 },
    /// Spatial queries in any mix of the six query ops (no other op, no
    /// nested `BATCH`), answered by [`Reply::Batch`] in submission order.
    /// The server runs the items that miss its reply cache in Morton
    /// order of their query points, under one read guard.
    Batch(Vec<Request>),
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Query 1: all segments incident at the point.
    Incident(Point),
    /// Query 2: all segments at the *other* endpoint of segment `id`,
    /// given that `at` is one of its endpoints.
    Second { id: SegId, at: Point },
    /// Query 3: the nearest segment.
    Nearest(Point),
    /// Ranked query 3: the `k` nearest segments, closest first.
    Knn { at: Point, k: u32 },
    /// Query 5: all segments intersecting the window.
    Window(Rect),
    /// Query 4: the minimal enclosing polygon, traversed for at most
    /// `max_steps` boundary edges (the cap the in-process drivers use).
    Polygon { at: Point, max_steps: u32 },
    /// The paper's counters aggregated process-wide and per map;
    /// answered with [`Reply::StatsV3`].
    Stats,
    /// Graceful shutdown: drain in-flight requests, refuse new
    /// connections, exit.
    Shutdown,
    /// Durably insert a segment into the live index; answered with
    /// [`Reply::Inserted`] once the op has been appended to the op log
    /// (and synced) *and* applied.
    Insert(Segment),
    /// Durably delete the segment with this id; answered with
    /// [`Reply::Deleted`].
    Delete { id: SegId },
    /// Sync the op log. Answered with [`Reply::Flushed`] and the LSN of
    /// its last op.
    Flush,
    /// Resolve a catalog map name to its id, opening (building or
    /// recovering) its store if cold. Answered with [`Reply::MapOpened`],
    /// or [`ErrorCode::UnknownMap`] if the catalog has no such name.
    OpenMap { name: String },
    /// Enumerate the catalog; answered with [`Reply::MapList`].
    ListMaps,
    /// Drop a map's in-memory store (it reopens lazily on its next
    /// query). Answered with [`Reply::MapClosed`]. Closing the default
    /// map or an unknown name draws an error.
    CloseMap { name: String },
}

/// One server reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Reply {
    Pong,
    /// Version check answer: the protocol version the server speaks
    /// (always 3).
    Hello {
        version: u8,
    },
    /// Batched answers, one nested (non-`Batch`) reply per batch item, in
    /// the batch's submission order.
    Batch(Vec<Reply>),
    /// Segment-set answer (incident / second / knn / window). For `KNN`
    /// the ids are ordered closest-first; otherwise order is
    /// structure-defined but deterministic.
    Segs {
        ids: Vec<SegId>,
        stats: QueryStats,
    },
    /// Nearest-segment answer; `id` is `None` only for an empty index.
    Nearest {
        id: Option<SegId>,
        stats: QueryStats,
    },
    /// Enclosing-polygon answer: boundary edges in traversal order, or
    /// `None` for an empty index. `closed` is false if the walk hit the
    /// step cap.
    Polygon {
        walk: Option<(Vec<SegId>, bool)>,
        stats: QueryStats,
    },
    /// Shutdown acknowledged.
    Bye,
    /// Insert applied: the id the segment received and the op's LSN (its
    /// 1-based position in the op log).
    Inserted {
        id: SegId,
        lsn: u64,
    },
    /// Delete applied (`removed` is false if the id was valid but not
    /// currently indexed) and the op's LSN.
    Deleted {
        removed: bool,
        lsn: u64,
    },
    /// Op log synced; `lsn` is the LSN of its last op.
    Flushed {
        lsn: u64,
    },
    /// A map name resolved: its catalog id (usable as the envelope's map
    /// field) and its segment count.
    MapOpened {
        id: u32,
        len: u64,
    },
    /// The catalog, in id order.
    MapList(Vec<MapInfo>),
    /// Close acknowledged; `was_open` is false if the map was already
    /// cold.
    MapClosed {
        was_open: bool,
    },
    /// `STATS` answer: queries served and summed counters process-wide,
    /// per-map counters, and the process-wide buffer-budget accounting.
    StatsV3 {
        queries: u64,
        totals: QueryStats,
        budget: BudgetWire,
        maps: Vec<MapStatsWire>,
    },
    /// Structured error frame.
    Error {
        code: ErrorCode,
        message: String,
    },
}

/// One catalog entry in a [`Reply::MapList`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MapInfo {
    /// Catalog id — what a request envelope's map field names.
    pub id: u32,
    /// Whether the map's store is currently open (resident).
    pub open: bool,
    pub name: String,
}

/// Process-wide buffer-budget accounting in a [`Reply::StatsV3`]
/// (mirrors `lsdb_pager::BufferBudget`). `total == u64::MAX` means
/// unlimited.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BudgetWire {
    pub total: u64,
    pub used: u64,
    pub admissions: u64,
    pub denials: u64,
}

/// Buffer-cache counters for one map in a [`Reply::StatsV3`] (mirrors
/// `lsdb_pager::CacheStats`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheWire {
    pub resident_pages: u64,
    pub cached_pages: u64,
    pub capacity_pages: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// Reply-cache counters for one map in a [`Reply::StatsV3`] (mirrors
/// the server's `ReplyCache`). All-zero with caching disabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReplyCacheWire {
    /// Whether this map's reply cache is live right now (per-map enable
    /// bit AND a nonzero pool cap).
    pub enabled: bool,
    pub entries: u64,
    pub bytes: u64,
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Stale-epoch entries reclaimed by the eviction clock.
    pub invalidations: u64,
    /// Inserts declined (oversized, victim hotter, or budget full).
    pub rejections: u64,
}

/// Per-map block of a [`Reply::StatsV3`]. Counters persist across
/// close/reopen cycles; `cache` is all-zero for a cold map.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MapStatsWire {
    pub id: u32,
    pub open: bool,
    pub name: String,
    pub queries: u64,
    pub totals: QueryStats,
    pub cache: CacheWire,
    pub reply_cache: ReplyCacheWire,
}

/// Error codes carried by [`Reply::Error`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ErrorCode {
    /// Payload bytes do not decode as any request.
    Malformed = 1,
    /// First byte is not a known opcode.
    UnknownOp = 2,
    /// Frame length exceeds the direction's maximum.
    Oversized = 3,
    /// Request decoded but refers to something the server does not have
    /// (e.g. a segment id beyond the map).
    BadArgument = 4,
    /// Server is draining; no further requests are served.
    ShuttingDown = 5,
    /// The frame does not open with the v3 envelope marker, or a `HELLO`
    /// offered a version below 3.
    UnsupportedVersion = 6,
    /// A server-side failure executing a valid request (e.g. the
    /// write-ahead log refused a mutation). The request had no effect.
    Internal = 7,
    /// The envelope's map id (or an `OPEN_MAP`/`CLOSE_MAP` name) names
    /// no map in the catalog.
    UnknownMap = 8,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownOp,
            3 => ErrorCode::Oversized,
            4 => ErrorCode::BadArgument,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::UnsupportedVersion,
            7 => ErrorCode::Internal,
            8 => ErrorCode::UnknownMap,
            _ => return None,
        })
    }
}

/// Why a payload failed to decode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtoError {
    /// Payload ended before the fields its opcode promises.
    Truncated { expected: usize, got: usize },
    /// Payload has bytes beyond its opcode's fixed layout.
    Trailing { expected: usize, got: usize },
    /// Unknown opcode byte.
    UnknownOp(u8),
    /// Empty payload.
    Empty,
    /// A field holds an impossible value (reply decoding).
    BadField(&'static str),
    /// The payload opens with this byte instead of [`V3_MARKER`].
    UnsupportedVersion(u8),
}

impl ProtoError {
    /// The wire error code a server reports for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            ProtoError::UnknownOp(_) => ErrorCode::UnknownOp,
            ProtoError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
            _ => ErrorCode::Malformed,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { expected, got } => {
                write!(f, "payload truncated: need {expected} bytes, got {got}")
            }
            ProtoError::Trailing { expected, got } => {
                write!(f, "trailing bytes: layout is {expected} bytes, got {got}")
            }
            ProtoError::UnknownOp(b) => write!(f, "unknown opcode {b:#04x}"),
            ProtoError::Empty => write!(f, "empty payload"),
            ProtoError::BadField(what) => write!(f, "bad field: {what}"),
            ProtoError::UnsupportedVersion(b) => write!(
                f,
                "payload opens with {b:#04x}, not the envelope marker {V3_MARKER:#04x} \
                 (only protocol v{PROTOCOL_VERSION} is spoken)"
            ),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------- encoding

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        if self.pos + N > self.buf.len() {
            return Err(ProtoError::Truncated {
                expected: self.pos + N,
                got: self.buf.len(),
            });
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take::<1>()?[0])
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtoError::Truncated {
                expected: self.pos + n,
                got: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(i32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn point(&mut self) -> Result<Point, ProtoError> {
        Ok(Point::new(self.i32()?, self.i32()?))
    }

    /// A `u16`-length-prefixed UTF-8 string (map names).
    fn string16(&mut self) -> Result<String, ProtoError> {
        let len = u16::from_le_bytes(self.take::<2>()?) as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadField("name utf-8"))
    }

    /// Every request has a fixed layout, so decoding must consume the
    /// whole payload.
    fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError::Trailing {
                expected: self.pos,
                got: self.buf.len(),
            });
        }
        Ok(())
    }
}

fn put_point(buf: &mut Vec<u8>, p: Point) {
    buf.extend_from_slice(&p.x.to_le_bytes());
    buf.extend_from_slice(&p.y.to_le_bytes());
}

fn put_string16(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&bytes[..len]);
}

fn put_stats(buf: &mut Vec<u8>, s: QueryStats) {
    for v in [
        s.disk.reads,
        s.disk.writes,
        s.seg_comps,
        s.bbox_comps,
        s.seg_disk.reads,
        s.seg_disk.writes,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_stats(c: &mut Cursor) -> Result<QueryStats, ProtoError> {
    Ok(QueryStats {
        disk: DiskStats {
            reads: c.u64()?,
            writes: c.u64()?,
        },
        seg_comps: c.u64()?,
        bbox_comps: c.u64()?,
        seg_disk: DiskStats {
            reads: c.u64()?,
            writes: c.u64()?,
        },
    })
}

fn put_ids(buf: &mut Vec<u8>, ids: &[SegId]) {
    buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.0.to_le_bytes());
    }
}

fn get_ids(c: &mut Cursor) -> Result<Vec<SegId>, ProtoError> {
    let n = c.u32()? as usize;
    let mut ids = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        ids.push(SegId(c.u32()?));
    }
    Ok(ids)
}

/// A `BATCH` body after its opcode: an item count, then each item's
/// opcode + body behind a `u32` length.
fn put_items<T>(buf: &mut Vec<u8>, items: &[T], encode: impl Fn(&T, &mut Vec<u8>)) {
    buf.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        let at = buf.len();
        buf.extend_from_slice(&[0; 4]);
        encode(item, buf);
        let len = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Length of the frame payload [`Reply::envelope_batch_v3`] builds from
/// `items` bodies of `body_bytes` bytes in all: the envelope, the opcode,
/// the item count and a length per item, then the bodies.
pub(crate) fn batch_frame_len(items: usize, body_bytes: usize) -> usize {
    1 + 4 + 1 + 4 + 4 * items + body_bytes
}

/// The items of a [`put_items`] body. `decode` sees each item's bytes;
/// it must refuse a nested `BATCH` by its opcode before decoding it, so
/// no frame can nest deep enough to exhaust the stack.
fn get_items<T>(
    c: &mut Cursor,
    decode: impl Fn(&[u8]) -> Result<T, ProtoError>,
) -> Result<Vec<T>, ProtoError> {
    let n = c.u32()? as usize;
    // A lying count fails on the first missing length; the cap only
    // bounds a hostile reserve.
    let mut items = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let len = c.u32()? as usize;
        items.push(decode(c.bytes(len)?)?);
    }
    Ok(items)
}

/// One `BATCH` request item: one of the six spatial queries.
fn get_query(bytes: &[u8]) -> Result<Request, ProtoError> {
    match bytes.first() {
        Some(&(op::INCIDENT | op::SECOND | op::NEAREST | op::KNN | op::WINDOW | op::POLYGON)) => {
            Request::decode(bytes)
        }
        _ => Err(ProtoError::BadField("batch item is not a spatial query")),
    }
}

impl Request {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping => buf.push(op::PING),
            Request::Hello { version } => {
                buf.push(op::HELLO);
                buf.push(*version);
            }
            Request::Incident(p) => {
                buf.push(op::INCIDENT);
                put_point(buf, *p);
            }
            Request::Second { id, at } => {
                buf.push(op::SECOND);
                buf.extend_from_slice(&id.0.to_le_bytes());
                put_point(buf, *at);
            }
            Request::Nearest(p) => {
                buf.push(op::NEAREST);
                put_point(buf, *p);
            }
            Request::Knn { at, k } => {
                buf.push(op::KNN);
                put_point(buf, *at);
                buf.extend_from_slice(&k.to_le_bytes());
            }
            Request::Window(w) => {
                buf.push(op::WINDOW);
                put_point(buf, w.min);
                put_point(buf, w.max);
            }
            Request::Polygon { at, max_steps } => {
                buf.push(op::POLYGON);
                put_point(buf, *at);
                buf.extend_from_slice(&max_steps.to_le_bytes());
            }
            Request::Batch(items) => {
                buf.push(op::BATCH);
                put_items(buf, items, Request::encode_body);
            }
            Request::Stats => buf.push(op::STATS),
            Request::Shutdown => buf.push(op::SHUTDOWN),
            Request::Insert(seg) => {
                buf.push(op::INSERT);
                put_point(buf, seg.a);
                put_point(buf, seg.b);
            }
            Request::Delete { id } => {
                buf.push(op::DELETE);
                buf.extend_from_slice(&id.0.to_le_bytes());
            }
            Request::Flush => buf.push(op::FLUSH),
            Request::OpenMap { name } => {
                buf.push(op::OPEN_MAP);
                put_string16(buf, name);
            }
            Request::ListMaps => buf.push(op::LIST_MAPS),
            Request::CloseMap { name } => {
                buf.push(op::CLOSE_MAP);
                put_string16(buf, name);
            }
        }
    }

    /// The opcode + body bytes alone (no length prefix, no envelope) —
    /// the canonical form the reply cache keys on.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        self.encode_body(&mut buf);
        buf
    }

    /// Serialize to a frame payload: envelope marker, correlation id,
    /// the catalog id of the map this request is routed to, then the
    /// opcode + body of [`Request::encode`].
    pub fn encode_v3(&self, corr: u32, map: u32) -> Vec<u8> {
        let mut buf = Vec::with_capacity(36);
        buf.push(V3_MARKER);
        buf.extend_from_slice(&corr.to_le_bytes());
        buf.extend_from_slice(&map.to_le_bytes());
        self.encode_body(&mut buf);
        buf
    }

    /// Deserialize opcode + body bytes (the inverse of
    /// [`Request::encode`]). Total: never panics on any byte sequence.
    /// Whole frame payloads go through [`decode_request`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cursor::new(payload);
        let opcode = c.u8().map_err(|_| ProtoError::Empty)?;
        let req = match opcode {
            op::PING => Request::Ping,
            op::HELLO => Request::Hello { version: c.u8()? },
            op::INCIDENT => Request::Incident(c.point()?),
            op::SECOND => Request::Second {
                id: SegId(c.u32()?),
                at: c.point()?,
            },
            op::NEAREST => Request::Nearest(c.point()?),
            op::KNN => Request::Knn {
                at: c.point()?,
                k: c.u32()?,
            },
            op::WINDOW => {
                let (a, b) = (c.point()?, c.point()?);
                Request::Window(Rect::bounding(a, b))
            }
            op::POLYGON => Request::Polygon {
                at: c.point()?,
                max_steps: c.u32()?,
            },
            op::BATCH => Request::Batch(get_items(&mut c, get_query)?),
            op::STATS => Request::Stats,
            op::SHUTDOWN => Request::Shutdown,
            op::INSERT => Request::Insert(Segment {
                a: c.point()?,
                b: c.point()?,
            }),
            op::DELETE => Request::Delete {
                id: SegId(c.u32()?),
            },
            op::FLUSH => Request::Flush,
            op::OPEN_MAP => Request::OpenMap {
                name: c.string16()?,
            },
            op::LIST_MAPS => Request::ListMaps,
            op::CLOSE_MAP => Request::CloseMap {
                name: c.string16()?,
            },
            other => return Err(ProtoError::UnknownOp(other)),
        };
        c.finish()?;
        Ok(req)
    }
}

/// A decoded request plus its envelope: the correlation id its reply
/// echoes and the catalog map it is routed to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestFrame {
    pub corr: u32,
    pub map: u32,
    pub request: Request,
}

/// A request decode failure plus whatever envelope could still be
/// recovered — a frame with a bad body keeps its correlation id, so the
/// error reply can be matched by a pipelining client.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeFailure {
    pub corr: Option<u32>,
    pub error: ProtoError,
}

/// Check the envelope marker; anything but [`V3_MARKER`] is
/// [`ProtoError::UnsupportedVersion`].
fn open_envelope(payload: &[u8]) -> Result<Cursor<'_>, ProtoError> {
    match payload.first() {
        None => Err(ProtoError::Empty),
        Some(&V3_MARKER) => Ok(Cursor::new(&payload[1..])),
        Some(&b) => Err(ProtoError::UnsupportedVersion(b)),
    }
}

/// Decode a request frame payload. Total: never panics on any byte
/// sequence.
pub fn decode_request(payload: &[u8]) -> Result<RequestFrame, DecodeFailure> {
    let fail = |corr, error| DecodeFailure { corr, error };
    let mut c = open_envelope(payload).map_err(|e| fail(None, e))?;
    let corr = c.u32().map_err(|e| fail(None, e))?;
    let map = c.u32().map_err(|e| fail(Some(corr), e))?;
    let request = Request::decode(&c.buf[c.pos..]).map_err(|e| fail(Some(corr), e))?;
    Ok(RequestFrame { corr, map, request })
}

/// Decode a reply frame payload (the client side of [`decode_request`]):
/// the correlation id of the request it answers, and the reply.
pub fn decode_reply(payload: &[u8]) -> Result<(u32, Reply), ProtoError> {
    let mut c = open_envelope(payload)?;
    let corr = c.u32()?;
    Ok((corr, Reply::decode(&c.buf[c.pos..])?))
}

impl Reply {
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Reply::Pong => buf.push(rop::PONG),
            Reply::Hello { version } => {
                buf.push(rop::HELLO);
                buf.push(*version);
            }
            Reply::Batch(items) => {
                buf.push(rop::BATCH);
                put_items(buf, items, Reply::encode_body);
            }
            Reply::Segs { ids, stats } => {
                buf.push(rop::SEGS);
                put_stats(buf, *stats);
                put_ids(buf, ids);
            }
            Reply::Nearest { id, stats } => {
                buf.push(rop::NEAREST);
                put_stats(buf, *stats);
                match id {
                    Some(id) => {
                        buf.push(1);
                        buf.extend_from_slice(&id.0.to_le_bytes());
                    }
                    None => buf.push(0),
                }
            }
            Reply::Polygon { walk, stats } => {
                buf.push(rop::POLYGON);
                put_stats(buf, *stats);
                match walk {
                    Some((boundary, closed)) => {
                        buf.push(1);
                        buf.push(*closed as u8);
                        put_ids(buf, boundary);
                    }
                    None => buf.push(0),
                }
            }
            Reply::Bye => buf.push(rop::BYE),
            Reply::Inserted { id, lsn } => {
                buf.push(rop::INSERTED);
                buf.extend_from_slice(&id.0.to_le_bytes());
                buf.extend_from_slice(&lsn.to_le_bytes());
            }
            Reply::Deleted { removed, lsn } => {
                buf.push(rop::DELETED);
                buf.push(*removed as u8);
                buf.extend_from_slice(&lsn.to_le_bytes());
            }
            Reply::Flushed { lsn } => {
                buf.push(rop::FLUSHED);
                buf.extend_from_slice(&lsn.to_le_bytes());
            }
            Reply::MapOpened { id, len } => {
                buf.push(rop::MAP_OPENED);
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&len.to_le_bytes());
            }
            Reply::MapList(maps) => {
                buf.push(rop::MAP_LIST);
                buf.extend_from_slice(&(maps.len() as u32).to_le_bytes());
                for m in maps {
                    buf.extend_from_slice(&m.id.to_le_bytes());
                    buf.push(m.open as u8);
                    put_string16(buf, &m.name);
                }
            }
            Reply::MapClosed { was_open } => {
                buf.push(rop::MAP_CLOSED);
                buf.push(*was_open as u8);
            }
            Reply::StatsV3 {
                queries,
                totals,
                budget,
                maps,
            } => {
                buf.push(rop::STATS_V3);
                buf.extend_from_slice(&queries.to_le_bytes());
                put_stats(buf, *totals);
                for v in [budget.total, budget.used, budget.admissions, budget.denials] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                buf.extend_from_slice(&(maps.len() as u32).to_le_bytes());
                for m in maps {
                    buf.extend_from_slice(&m.id.to_le_bytes());
                    buf.push(m.open as u8);
                    put_string16(buf, &m.name);
                    buf.extend_from_slice(&m.queries.to_le_bytes());
                    put_stats(buf, m.totals);
                    for v in [
                        m.cache.resident_pages,
                        m.cache.cached_pages,
                        m.cache.capacity_pages,
                        m.cache.hits,
                        m.cache.misses,
                        m.cache.evictions,
                    ] {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                    buf.push(m.reply_cache.enabled as u8);
                    for v in [
                        m.reply_cache.entries,
                        m.reply_cache.bytes,
                        m.reply_cache.hits,
                        m.reply_cache.misses,
                        m.reply_cache.insertions,
                        m.reply_cache.evictions,
                        m.reply_cache.invalidations,
                        m.reply_cache.rejections,
                    ] {
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
            Reply::Error { code, message } => {
                buf.push(rop::ERROR);
                buf.push(*code as u8);
                let msg = message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                buf.extend_from_slice(&(len as u16).to_le_bytes());
                buf.extend_from_slice(&msg[..len]);
            }
        }
    }

    /// The opcode + body bytes alone (no length prefix, no envelope) —
    /// what the reply cache stores.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_body(&mut buf);
        buf
    }

    /// Serialize to a frame payload: envelope marker, the correlation id
    /// of the request being answered, then the body of [`Reply::encode`]
    /// (replies carry no map field).
    pub fn encode_v3(&self, corr: u32) -> Vec<u8> {
        let mut buf = Vec::with_capacity(72);
        buf.push(V3_MARKER);
        buf.extend_from_slice(&corr.to_le_bytes());
        self.encode_body(&mut buf);
        buf
    }

    /// Wrap an already-encoded reply body in the envelope: exactly the
    /// bytes [`Reply::encode_v3`] would produce for the decoded body. The
    /// reply cache serves stored bodies through this without
    /// re-encoding.
    pub fn envelope_v3(corr: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(5 + body.len());
        buf.push(V3_MARKER);
        buf.extend_from_slice(&corr.to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    /// The frame payload of a [`Reply::Batch`] whose items are already
    /// encoded ([`Reply::encode`] bodies): exactly the bytes
    /// [`Reply::encode_v3`] would produce for the decoded items.
    pub(crate) fn envelope_batch_v3(corr: u32, bodies: &[impl AsRef<[u8]>]) -> Vec<u8> {
        let body_bytes = bodies.iter().map(|b| b.as_ref().len()).sum();
        let mut buf = Vec::with_capacity(batch_frame_len(bodies.len(), body_bytes));
        buf.push(V3_MARKER);
        buf.extend_from_slice(&corr.to_le_bytes());
        buf.push(rop::BATCH);
        put_items(&mut buf, bodies, |b, buf| buf.extend_from_slice(b.as_ref()));
        buf
    }

    /// Deserialize opcode + body bytes (the inverse of [`Reply::encode`]).
    /// Never panics on any byte sequence. Whole frame payloads go through
    /// [`decode_reply`].
    pub fn decode(payload: &[u8]) -> Result<Reply, ProtoError> {
        let mut c = Cursor::new(payload);
        let opcode = c.u8().map_err(|_| ProtoError::Empty)?;
        let reply = match opcode {
            rop::PONG => Reply::Pong,
            rop::SEGS => Reply::Segs {
                stats: get_stats(&mut c)?,
                ids: get_ids(&mut c)?,
            },
            rop::NEAREST => {
                let stats = get_stats(&mut c)?;
                let id = match c.u8()? {
                    0 => None,
                    1 => Some(SegId(c.u32()?)),
                    _ => return Err(ProtoError::BadField("nearest presence flag")),
                };
                Reply::Nearest { id, stats }
            }
            rop::POLYGON => {
                let stats = get_stats(&mut c)?;
                let walk = match c.u8()? {
                    0 => None,
                    1 => {
                        let closed = match c.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(ProtoError::BadField("polygon closed flag")),
                        };
                        Some((get_ids(&mut c)?, closed))
                    }
                    _ => return Err(ProtoError::BadField("polygon presence flag")),
                };
                Reply::Polygon { walk, stats }
            }
            rop::BYE => Reply::Bye,
            rop::INSERTED => Reply::Inserted {
                id: SegId(c.u32()?),
                lsn: c.u64()?,
            },
            rop::DELETED => {
                let removed = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtoError::BadField("deleted flag")),
                };
                Reply::Deleted {
                    removed,
                    lsn: c.u64()?,
                }
            }
            rop::FLUSHED => Reply::Flushed { lsn: c.u64()? },
            rop::MAP_OPENED => Reply::MapOpened {
                id: c.u32()?,
                len: c.u64()?,
            },
            rop::MAP_LIST => {
                let n = c.u32()? as usize;
                let mut maps = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    maps.push(MapInfo {
                        id: c.u32()?,
                        open: match c.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(ProtoError::BadField("map open flag")),
                        },
                        name: c.string16()?,
                    });
                }
                Reply::MapList(maps)
            }
            rop::MAP_CLOSED => Reply::MapClosed {
                was_open: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtoError::BadField("map closed flag")),
                },
            },
            rop::STATS_V3 => {
                let queries = c.u64()?;
                let totals = get_stats(&mut c)?;
                let budget = BudgetWire {
                    total: c.u64()?,
                    used: c.u64()?,
                    admissions: c.u64()?,
                    denials: c.u64()?,
                };
                let n = c.u32()? as usize;
                let mut maps = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    maps.push(MapStatsWire {
                        id: c.u32()?,
                        open: match c.u8()? {
                            0 => false,
                            1 => true,
                            _ => return Err(ProtoError::BadField("map open flag")),
                        },
                        name: c.string16()?,
                        queries: c.u64()?,
                        totals: get_stats(&mut c)?,
                        cache: CacheWire {
                            resident_pages: c.u64()?,
                            cached_pages: c.u64()?,
                            capacity_pages: c.u64()?,
                            hits: c.u64()?,
                            misses: c.u64()?,
                            evictions: c.u64()?,
                        },
                        reply_cache: ReplyCacheWire {
                            enabled: match c.u8()? {
                                0 => false,
                                1 => true,
                                _ => return Err(ProtoError::BadField("reply cache enabled flag")),
                            },
                            entries: c.u64()?,
                            bytes: c.u64()?,
                            hits: c.u64()?,
                            misses: c.u64()?,
                            insertions: c.u64()?,
                            evictions: c.u64()?,
                            invalidations: c.u64()?,
                            rejections: c.u64()?,
                        },
                    });
                }
                Reply::StatsV3 {
                    queries,
                    totals,
                    budget,
                    maps,
                }
            }
            rop::HELLO => Reply::Hello { version: c.u8()? },
            rop::BATCH => Reply::Batch(get_items(&mut c, |item| match item.first() {
                Some(&rop::BATCH) => Err(ProtoError::BadField("nested batch reply")),
                _ => Reply::decode(item),
            })?),
            rop::ERROR => {
                let code = ErrorCode::from_u8(c.u8()?).ok_or(ProtoError::BadField("error code"))?;
                let len = u16::from_le_bytes(c.take::<2>()?) as usize;
                let mut msg = Vec::with_capacity(len);
                for _ in 0..len {
                    msg.push(c.u8()?);
                }
                Reply::Error {
                    code,
                    message: String::from_utf8_lossy(&msg).into_owned(),
                }
            }
            other => return Err(ProtoError::UnknownOp(other)),
        };
        c.finish()?;
        Ok(reply)
    }

    /// The per-query counter block, for replies that carry one.
    pub fn stats(&self) -> Option<QueryStats> {
        match self {
            Reply::Segs { stats, .. }
            | Reply::Nearest { stats, .. }
            | Reply::Polygon { stats, .. } => Some(*stats),
            _ => None,
        }
    }

    /// Result cardinality (segments returned / boundary steps), the
    /// quantity the workload drivers average.
    pub fn result_size(&self) -> usize {
        match self {
            Reply::Segs { ids, .. } => ids.len(),
            Reply::Nearest { id, .. } => id.is_some() as usize,
            Reply::Polygon { walk, .. } => walk.as_ref().map_or(0, |(b, _)| b.len()),
            Reply::Batch(items) => items.iter().map(Reply::result_size).sum(),
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------- framing

/// Outcome of one [`read_frame`] call.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete payload arrived.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly (EOF before any header
    /// byte).
    Eof,
    /// The read timed out before any header byte arrived — the connection
    /// is idle, not broken. (A timeout *mid-frame* is an error instead:
    /// the stream can no longer be re-synchronized.)
    Idle,
}

/// A framing-level receive failure.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds `max_len`. The stream cannot be
    /// resynchronized (the payload was not consumed); the connection must
    /// be closed after reporting the error.
    Oversized(u32),
    /// The underlying transport failed (including timeouts mid-frame).
    Io(io::Error),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "oversized frame: {n} bytes"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Write one frame: length prefix then payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame, distinguishing clean EOF and idle timeouts (both only
/// *before* the first header byte) from transport failures. An empty frame
/// (`len == 0`) and an overlong one are both [`FrameError::Oversized`]-class
/// protocol violations; zero length is reported as `Oversized(0)` since the
/// stream stays synchronized either way only for well-formed lengths.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<FrameEvent, FrameError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(FrameEvent::Eof),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) && got == 0 => return Ok(FrameEvent::Idle),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len == 0 || len > max_len {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-payload",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(FrameEvent::Frame(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Incident(Point::new(-5, 7)),
            Request::Second {
                id: SegId(42),
                at: Point::new(0, i32::MIN),
            },
            Request::Nearest(Point::new(i32::MAX, -1)),
            Request::Knn {
                at: Point::new(3, 4),
                k: 17,
            },
            Request::Window(Rect::new(-10, -10, 10, 10)),
            Request::Polygon {
                at: Point::new(1, 2),
                max_steps: 6000,
            },
            Request::Stats,
            Request::Shutdown,
            Request::Insert(Segment {
                a: Point::new(i32::MIN, 4),
                b: Point::new(9, i32::MAX),
            }),
            Request::Delete { id: SegId(831) },
            Request::Flush,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn reply_roundtrip() {
        let stats = QueryStats {
            disk: DiskStats {
                reads: 3,
                writes: 1,
            },
            seg_comps: 12,
            bbox_comps: 99,
            seg_disk: DiskStats {
                reads: 2,
                writes: 0,
            },
        };
        let replies = [
            Reply::Pong,
            Reply::Segs {
                ids: vec![SegId(1), SegId(9)],
                stats,
            },
            Reply::Segs { ids: vec![], stats },
            Reply::Nearest {
                id: Some(SegId(7)),
                stats,
            },
            Reply::Nearest { id: None, stats },
            Reply::Polygon {
                walk: Some((vec![SegId(3), SegId(3), SegId(5)], true)),
                stats,
            },
            Reply::Polygon {
                walk: Some((vec![], false)),
                stats,
            },
            Reply::Polygon { walk: None, stats },
            Reply::Bye,
            Reply::Inserted {
                id: SegId(512),
                lsn: u64::MAX,
            },
            Reply::Deleted {
                removed: true,
                lsn: 9,
            },
            Reply::Deleted {
                removed: false,
                lsn: 0,
            },
            Reply::Flushed { lsn: 77 },
            Reply::Error {
                code: ErrorCode::UnknownOp,
                message: "nope".into(),
            },
        ];
        for r in replies {
            assert_eq!(Reply::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn truncated_payloads_error_not_panic() {
        for r in [
            Request::Incident(Point::new(1, 2)).encode(),
            Request::Window(Rect::new(0, 0, 4, 4)).encode(),
            Request::Knn {
                at: Point::new(0, 0),
                k: 3,
            }
            .encode(),
        ] {
            for cut in 0..r.len() {
                let e = Request::decode(&r[..cut]);
                assert!(e.is_err(), "cut at {cut} must fail");
            }
        }
        assert_eq!(Request::decode(&[]), Err(ProtoError::Empty));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Nearest(Point::new(1, 1)).encode();
        bytes.push(0);
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtoError::Trailing { .. })
        ));
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // A tiny deterministic fuzz: xorshift bytes at every length up to
        // a window request's size.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        for len in 0..64usize {
            for _ in 0..64 {
                let bytes: Vec<u8> = (0..len).map(|_| next()).collect();
                let _ = Request::decode(&bytes); // must not panic
                let _ = Reply::decode(&bytes); // must not panic
                let _ = decode_request(&bytes); // must not panic
                let _ = decode_reply(&bytes); // must not panic
            }
        }
        // Every sample request, batches included, with one byte flipped.
        for bytes in sample_requests().iter().map(Request::encode) {
            for _ in 0..64 {
                let mut bad = bytes.clone();
                let at = next() as usize % bad.len();
                bad[at] ^= next() | 1;
                let _ = Request::decode(&bad); // must not panic
            }
        }
    }

    #[test]
    fn frame_io_roundtrip() {
        let payload = Request::Window(Rect::new(1, 2, 3, 4)).encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        match read_frame(&mut r, MAX_REQUEST_FRAME).unwrap() {
            FrameEvent::Frame(p) => assert_eq!(p, payload),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut r, MAX_REQUEST_FRAME).unwrap() {
            FrameEvent::Eof => {}
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn oversized_and_zero_length_frames_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_REQUEST_FRAME + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            read_frame(&mut &wire[..], MAX_REQUEST_FRAME),
            Err(FrameError::Oversized(n)) if n == MAX_REQUEST_FRAME + 1
        ));
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..], MAX_REQUEST_FRAME),
            Err(FrameError::Oversized(0))
        ));
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Hello { version: 2 },
            Request::Incident(Point::new(-5, 7)),
            Request::Second {
                id: SegId(42),
                at: Point::new(0, i32::MIN),
            },
            Request::Nearest(Point::new(i32::MAX, -1)),
            Request::Knn {
                at: Point::new(3, 4),
                k: 17,
            },
            Request::Window(Rect::new(-10, -10, 10, 10)),
            Request::Polygon {
                at: Point::new(1, 2),
                max_steps: 6000,
            },
            Request::Stats,
            Request::Shutdown,
            Request::Batch(vec![]),
            Request::Batch(vec![
                Request::Window(Rect::new(0, 0, 9, 9)),
                Request::Window(Rect::new(-4, -4, 4, 4)),
            ]),
            Request::Batch(vec![
                Request::Incident(Point::new(1, 2)),
                Request::Second {
                    id: SegId(9),
                    at: Point::new(5, 6),
                },
                Request::Nearest(Point::new(7, 8)),
                Request::Knn {
                    at: Point::new(1, 1),
                    k: 3,
                },
                Request::Window(Rect::new(-4, -4, 4, 4)),
                Request::Polygon {
                    at: Point::new(2, 3),
                    max_steps: 777,
                },
            ]),
            Request::Insert(Segment {
                a: Point::new(1, 2),
                b: Point::new(3, 4),
            }),
            Request::Delete { id: SegId(0) },
            Request::Flush,
            Request::OpenMap {
                name: "c12-7".into(),
            },
            Request::ListMaps,
            Request::CloseMap {
                name: "Baltimore".into(),
            },
        ]
    }

    #[test]
    fn reply_envelope_roundtrip_preserves_correlation_id() {
        let stats = QueryStats::default();
        let replies = [
            Reply::Pong,
            Reply::Hello { version: 3 },
            Reply::Batch(vec![
                Reply::Segs {
                    ids: vec![SegId(4)],
                    stats,
                },
                Reply::Nearest {
                    id: Some(SegId(2)),
                    stats,
                },
                Reply::Polygon { walk: None, stats },
                Reply::Error {
                    code: ErrorCode::BadArgument,
                    message: "x".into(),
                },
            ]),
            Reply::Batch(vec![]),
        ];
        for (i, r) in replies.into_iter().enumerate() {
            let corr = 1000 + i as u32;
            let bytes = r.encode_v3(corr);
            assert_eq!(bytes[0], V3_MARKER);
            // A stored body wrapped later is the same frame.
            assert_eq!(Reply::envelope_v3(corr, &r.encode()), bytes, "{r:?}");
            // So is a batch assembled from its items' bodies.
            if let Reply::Batch(items) = &r {
                let bodies: Vec<Vec<u8>> = items.iter().map(Reply::encode).collect();
                assert_eq!(Reply::envelope_batch_v3(corr, &bodies), bytes);
                let body_bytes = bodies.iter().map(Vec::len).sum();
                assert_eq!(batch_frame_len(items.len(), body_bytes), bytes.len());
            }
            let (got_corr, got) = decode_reply(&bytes).unwrap();
            assert_eq!(got_corr, corr, "{r:?}");
            assert_eq!(got, r);
        }
    }

    #[test]
    fn every_other_first_byte_is_unsupported_not_a_panic() {
        // Opcode-first (v1) frames, the other version markers 0xB0..=0xBF
        // (the v2 envelope included), 0x00, and everything else: a
        // structured UnsupportedVersion, never a panic or a decode.
        let frame = Request::Ping.encode_v3(7, 0);
        for b in (0..=u8::MAX).filter(|&b| b != V3_MARKER) {
            let mut bytes = frame.clone();
            bytes[0] = b;
            let fail = decode_request(&bytes).unwrap_err();
            assert_eq!(fail.error, ProtoError::UnsupportedVersion(b));
            assert_eq!(fail.error.code(), ErrorCode::UnsupportedVersion);
            assert_eq!(fail.corr, None);
            assert_eq!(decode_reply(&bytes), Err(ProtoError::UnsupportedVersion(b)));
        }
        for body in sample_requests().iter().map(Request::encode) {
            assert_eq!(
                decode_request(&body).unwrap_err().error,
                ProtoError::UnsupportedVersion(body[0]),
                "opcode-first frames are refused"
            );
        }
        assert_eq!(decode_request(&[]).unwrap_err().error, ProtoError::Empty);
    }

    #[test]
    fn v3_request_roundtrip_preserves_correlation_and_map_ids() {
        for (i, r) in sample_requests().into_iter().enumerate() {
            let corr = (i as u32).wrapping_mul(0x9E3779B9);
            let map = (i as u32).wrapping_mul(7) % 20;
            let bytes = r.encode_v3(corr, map);
            assert_eq!(bytes[0], V3_MARKER);
            let frame = decode_request(&bytes).unwrap();
            assert_eq!(frame.corr, corr, "{r:?}");
            assert_eq!(frame.map, map);
            assert_eq!(frame.request, r);
        }
    }

    #[test]
    fn map_replies_roundtrip() {
        let stats = QueryStats {
            disk: DiskStats {
                reads: 10,
                writes: 0,
            },
            seg_comps: 44,
            bbox_comps: 210,
            seg_disk: DiskStats {
                reads: 7,
                writes: 0,
            },
        };
        let replies = [
            Reply::MapOpened {
                id: 17,
                len: 50_998,
            },
            Reply::MapList(vec![
                MapInfo {
                    id: 0,
                    open: true,
                    name: "default".into(),
                },
                MapInfo {
                    id: 1,
                    open: false,
                    name: "c0-1".into(),
                },
            ]),
            Reply::MapList(vec![]),
            Reply::MapClosed { was_open: true },
            Reply::MapClosed { was_open: false },
            Reply::StatsV3 {
                queries: 1234,
                totals: stats,
                budget: BudgetWire {
                    total: 1 << 20,
                    used: 123_456,
                    admissions: 88,
                    denials: 3,
                },
                maps: vec![
                    MapStatsWire {
                        id: 0,
                        open: true,
                        name: "c0-0".into(),
                        queries: 1000,
                        totals: stats,
                        cache: CacheWire {
                            resident_pages: 64,
                            cached_pages: 32,
                            capacity_pages: 64,
                            hits: 900,
                            misses: 100,
                            evictions: 32,
                        },
                        reply_cache: ReplyCacheWire {
                            enabled: true,
                            entries: 41,
                            bytes: 17_204,
                            hits: 812,
                            misses: 188,
                            insertions: 120,
                            evictions: 79,
                            invalidations: 11,
                            rejections: 4,
                        },
                    },
                    MapStatsWire {
                        id: 1,
                        open: false,
                        name: "c0-1".into(),
                        queries: 234,
                        totals: stats,
                        cache: CacheWire::default(),
                        reply_cache: ReplyCacheWire::default(),
                    },
                ],
            },
            Reply::StatsV3 {
                queries: 0,
                totals: QueryStats::default(),
                budget: BudgetWire::default(),
                maps: vec![],
            },
            Reply::Error {
                code: ErrorCode::UnknownMap,
                message: "no such map".into(),
            },
        ];
        for r in replies {
            assert_eq!(Reply::decode(&r.encode()).unwrap(), r, "{r:?}");
            let (corr, got) = decode_reply(&r.encode_v3(0xC0FFEE)).unwrap();
            assert_eq!(corr, 0xC0FFEE);
            assert_eq!(got, r);
        }
    }

    #[test]
    fn truncated_v3_frames_error_not_panic() {
        // Every proper prefix of every encoding must fail cleanly —
        // including cuts inside the marker/correlation/map header.
        for r in sample_requests() {
            let bytes = r.encode_v3(0xDEAD_BEEF, 12);
            for cut in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..cut]).is_err(),
                    "{r:?} cut at {cut} must fail"
                );
            }
        }
        // Marker-led garbage: random bytes after a valid marker.
        let mut state = 0xA076_1D64_78BD_642Fu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        for len in 0..48usize {
            for _ in 0..64 {
                let mut bytes = vec![V3_MARKER];
                bytes.extend((0..len).map(|_| next()));
                let _ = decode_request(&bytes); // must not panic
                let _ = decode_reply(&bytes); // must not panic
            }
        }
    }

    #[test]
    fn bad_body_still_recovers_correlation_id() {
        let mut bytes = Request::Incident(Point::new(3, 4)).encode_v3(0x1234_5678, 9);
        bytes.truncate(bytes.len() - 2); // wound the body, keep the header
        let fail = decode_request(&bytes).unwrap_err();
        assert_eq!(
            fail.corr,
            Some(0x1234_5678),
            "error reply must be matchable"
        );
        assert!(matches!(fail.error, ProtoError::Truncated { .. }));
        // A header cut inside the map field still knows its corr.
        let bytes = Request::Ping.encode_v3(0x5151_5151, 9);
        assert_eq!(
            decode_request(&bytes[..7]).unwrap_err().corr,
            Some(0x5151_5151)
        );
    }

    #[test]
    fn truncated_cache_bearing_stats_error_not_panic() {
        // A StatsV3 frame carrying nonzero reply-cache counters: every
        // proper prefix must fail cleanly (never panic, never decode),
        // in particular cuts landing inside the new cache block.
        let reply = Reply::StatsV3 {
            queries: 42,
            totals: QueryStats::default(),
            budget: BudgetWire {
                total: 1 << 24,
                used: 99,
                admissions: 7,
                denials: 1,
            },
            maps: vec![MapStatsWire {
                id: 3,
                open: true,
                name: "hot".into(),
                queries: 40,
                totals: QueryStats::default(),
                cache: CacheWire::default(),
                reply_cache: ReplyCacheWire {
                    enabled: true,
                    entries: 5,
                    bytes: 1234,
                    hits: 30,
                    misses: 10,
                    insertions: 8,
                    evictions: 3,
                    invalidations: 2,
                    rejections: 1,
                },
            }],
        };
        let bytes = reply.encode();
        for cut in 0..bytes.len() {
            assert!(
                Reply::decode(&bytes[..cut]).is_err(),
                "StatsV3 cut at {cut} must fail"
            );
        }
        assert_eq!(Reply::decode(&bytes).unwrap(), reply);
        // An out-of-range enabled flag is a BadField, not a bool.
        let flag_at = bytes.len() - 65; // enabled byte precedes 8 u64s
        assert_eq!(bytes[flag_at], 1);
        let mut bad = bytes.clone();
        bad[flag_at] = 2;
        assert!(matches!(
            Reply::decode(&bad),
            Err(ProtoError::BadField("reply cache enabled flag"))
        ));
        // Fuzz the tail of the frame: random bytes over the cache block
        // must never panic.
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        };
        for _ in 0..256 {
            let mut fuzzed = bytes.clone();
            for b in fuzzed.iter_mut().skip(flag_at) {
                *b = next();
            }
            let _ = Reply::decode(&fuzzed); // must not panic
        }
    }

    #[test]
    fn nested_batch_replies_are_rejected() {
        let inner = Reply::Batch(vec![Reply::Pong]);
        let mut bytes = vec![rop::BATCH];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        let inner_bytes = inner.encode();
        bytes.extend_from_slice(&(inner_bytes.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&inner_bytes);
        assert_eq!(
            Reply::decode(&bytes),
            Err(ProtoError::BadField("nested batch reply"))
        );
    }

    #[test]
    fn batch_requests_hold_only_spatial_queries() {
        // Each non-query op, a nested batch included, fails to decode
        // as a batch item — wherever it sits in the batch.
        let query = Request::Nearest(Point::new(1, 1));
        for bad in [
            Request::Ping,
            Request::Insert(Segment {
                a: Point::new(1, 2),
                b: Point::new(3, 4),
            }),
            Request::Stats,
            Request::Batch(vec![query.clone()]),
        ] {
            for items in [vec![bad.clone()], vec![query.clone(), bad.clone()]] {
                assert_eq!(
                    Request::decode(&Request::Batch(items).encode()),
                    Err(ProtoError::BadField("batch item is not a spatial query")),
                    "{bad:?}"
                );
            }
        }
    }

    /// `depth` batches nested one in another around a single `inner`
    /// body, each holding one item — a frame no encoder produces.
    fn nested_batches(opcode: u8, depth: usize, inner: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(9 * depth + inner.len());
        for level in 1..=depth {
            bytes.push(opcode);
            bytes.extend_from_slice(&1u32.to_le_bytes());
            let len = 9 * (depth - level) + inner.len();
            bytes.extend_from_slice(&(len as u32).to_le_bytes());
        }
        bytes.extend_from_slice(inner);
        bytes
    }

    #[test]
    fn deeply_nested_batches_fail_without_recursing() {
        // 400k levels fit a request frame; decoding them recursively
        // would overflow the stack.
        let depth = 400_000;
        let req = nested_batches(op::BATCH, depth, &Request::Ping.encode());
        assert!(req.len() <= MAX_REQUEST_FRAME as usize);
        assert_eq!(
            Request::decode(&req),
            Err(ProtoError::BadField("batch item is not a spatial query"))
        );
        let reply = nested_batches(rop::BATCH, depth, &Reply::Pong.encode());
        assert_eq!(
            Reply::decode(&reply),
            Err(ProtoError::BadField("nested batch reply"))
        );
    }

    #[test]
    fn batch_item_count_mismatch_is_rejected() {
        // Declared count beyond the actual items must error, not panic
        // or over-allocate.
        let mut bytes = Request::Batch(vec![Request::Nearest(Point::new(1, 1))]).encode();
        // Body layout: opcode, count u32, items. Bump the count.
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&bytes).is_err());
        // An item length beyond the payload is truncation, too.
        let mut bytes = Request::Batch(vec![Request::Nearest(Point::new(1, 1))]).encode();
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Request::decode(&bytes),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn mid_header_and_mid_payload_eof_are_errors() {
        let wire = [5u8, 0]; // half a header
        assert!(matches!(
            read_frame(&mut &wire[..], 64),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2, 3]); // 3 of 8 payload bytes
        assert!(matches!(
            read_frame(&mut &wire[..], 64),
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }
}
