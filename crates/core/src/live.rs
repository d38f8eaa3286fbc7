//! Live mutation layer: a durable op log and a concurrently readable
//! index wrapper.
//!
//! The paper's experiments build each structure once from a polygonal map
//! and then measure read-only queries. This module adds the missing
//! *online* half: segments can be inserted and deleted while queries run,
//! and every mutation is made durable **before** it is applied, so a
//! store killed at any instant recovers to a prefix of the acknowledged
//! operations.
//!
//! The design treats the four spatial structures as *derived* state. The
//! durable truth is [`DurableMap`]: one append-only log of [`MapOp`]s
//! (insert segment / delete id) over the base map the index was built
//! from. Recovery replays the op log into a freshly built index
//! ([`RecoveryReport::replay_into`]); because segment ids are assigned by
//! append order and every structure's maintenance path is deterministic,
//! the replayed index is *identical* — page images, residency and all —
//! to the index the crashed process had built, which is what the
//! byte-equality crash tests assert.
//!
//! # Log format
//!
//! This module owns the whole durable format. A log is a fixed header
//! followed by fixed-size records; every integer is little-endian:
//!
//! ```text
//! header (20 bytes)  magic "LSDBOPLG" | version u32 | base segments u32 | base CRC-32 u32
//! record (21 bytes)  CRC-32 of the op u32 | op: kind u8 + 16-byte payload
//! ```
//!
//! The base fields tie a log to the map its ops extend: insert ids are
//! segment-table positions, so replaying the ops over another map would
//! shift every acknowledged id, and [`DurableMap::open`] refuses it.
//! Record *i* (from 0) starts at byte `20 + 21·i` and carries LSN `i + 1`:
//! an op's [`Lsn`] is its 1-based position in the log, rising for the
//! life of the store. An append writes one record and syncs once, so an
//! acknowledged op is on stable storage. Opening keeps the longest prefix
//! of records whose CRC holds and cuts the rest: a tail torn at any byte
//! loses only an append that never returned.
//!
//! [`LiveIndex`] composes the op log with an index behind a
//! [`RwLock`]: queries share the read side (the query path of every
//! structure is `&self` already), mutations take the write side only
//! *after* the op has reached the log. A generation counter
//! ([`LiveIndex::epoch`]) ticks on every applied mutation so readers can
//! detect change without holding the lock.

use crate::index::SpatialIndex;
use crate::SegId;
use lsdb_geom::{Point, Segment};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Log sequence number: the 1-based position of an op in its log.
/// `Lsn(0)` means "nothing logged yet".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Lsn(pub u64);

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Hand-rolled:
/// the repository is dependency-free by design, and the log needs a
/// checksum that detects torn writes, not an adversary.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Extend `crc`, the CRC-32 of some bytes, by `bytes`: `crc32(0, b)` is
/// the CRC-32 of `b`, and chained calls equal one call over the
/// concatenation.
fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// An append-only byte log: the device a [`DurableMap`] writes to.
///
/// Implementations never interpret the bytes. `truncate` has two
/// callers: opening a log (cutting a torn tail) and rolling back a
/// failed append.
pub trait LogDevice: Send {
    /// Total bytes in the log.
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every byte in the log.
    fn read_all(&self) -> io::Result<Vec<u8>>;

    /// Append `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Force appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;

    /// Discard everything after byte `len`.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// In-memory log device over a shared buffer: the device of volatile
/// maps and of tests.
///
/// Clones share the same bytes, so a crash test can keep one handle
/// while a [`DurableMap`] owns another, photograph the log at any moment
/// with [`MemLog::bytes`], and reopen arbitrary prefixes of it —
/// simulating a kill at every byte without a filesystem.
#[derive(Clone, Default)]
pub struct MemLog {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemLog {
    pub fn new() -> MemLog {
        MemLog::default()
    }

    /// A log pre-loaded with `bytes` (e.g. a prefix photographed from
    /// another log — a simulated torn crash).
    pub fn from_bytes(bytes: Vec<u8>) -> MemLog {
        MemLog {
            bytes: Arc::new(Mutex::new(bytes)),
        }
    }

    /// Snapshot of the current log contents.
    pub fn bytes(&self) -> Vec<u8> {
        self.bytes.lock().unwrap().clone()
    }
}

impl LogDevice for MemLog {
    fn len(&self) -> u64 {
        self.bytes.lock().unwrap().len() as u64
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        Ok(self.bytes())
    }

    fn append(&mut self, b: &[u8]) -> io::Result<()> {
        self.bytes.lock().unwrap().extend_from_slice(b);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.bytes.lock().unwrap().truncate(len as usize);
        Ok(())
    }
}

/// File-backed log device: positioned writes at the end, `sync_data`
/// for the sync, and `set_len` for truncation.
#[derive(Debug)]
pub struct FileLog {
    file: std::fs::File,
    len: u64,
}

impl FileLog {
    /// Open the log file at `path`, creating an empty one if absent.
    pub fn open(path: &Path) -> io::Result<FileLog> {
        let created = !path.exists();
        let file = std::fs::File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if created {
            // A new file's directory entry must reach the disk too, or a
            // power cut can lose the log with every op synced into it.
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        let len = file.metadata()?.len();
        Ok(FileLog { file, len })
    }
}

impl LogDevice for FileLog {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        use std::os::unix::fs::FileExt;
        let mut bytes = vec![0u8; self.len as usize];
        self.file.read_exact_at(&mut bytes, 0)?;
        Ok(bytes)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(bytes, self.len)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if len < self.len {
            self.file.set_len(len)?;
            self.len = len;
        }
        Ok(())
    }
}

/// What a [`FaultyLog`] does after its torn append.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AfterTear {
    /// The device works again at once, as after a transient write
    /// error: the rollback and every later call succeed.
    Recover,
    /// The device is gone: every later call fails, the rollback among
    /// them.
    Die,
}

/// Fault injection for crash tests: a [`LogDevice`] whose append that
/// would cross a byte budget lands only the bytes the budget allows (a
/// torn write) and fails.
pub struct FaultyLog<L: LogDevice> {
    inner: L,
    /// Bytes that may still be appended before an append tears.
    budget: u64,
    after: AfterTear,
    dead: bool,
}

impl<L: LogDevice> FaultyLog<L> {
    pub fn new(inner: L, budget: u64, after: AfterTear) -> Self {
        FaultyLog {
            inner,
            budget,
            after,
            dead: false,
        }
    }

    fn alive(&self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::other("injected fault: log device is dead"));
        }
        Ok(())
    }
}

impl<L: LogDevice> LogDevice for FaultyLog<L> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.alive()?;
        if bytes.len() as u64 <= self.budget {
            self.budget -= bytes.len() as u64;
            return self.inner.append(bytes);
        }
        self.inner.append(&bytes[..self.budget as usize])?;
        match self.after {
            AfterTear::Recover => self.budget = u64::MAX,
            AfterTear::Die => self.dead = true,
        }
        Err(io::Error::other("injected fault: log append torn"))
    }

    fn sync(&mut self) -> io::Result<()> {
        self.alive()?;
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.alive()?;
        self.inner.truncate(len)
    }
}

/// One logged mutation of the segment set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapOp {
    /// Append this segment to the segment table and index it. The id it
    /// receives is the table length at apply time — a pure function of
    /// the base map and the op's position in the log.
    Insert(Segment),
    /// Unindex the segment with this id (the table itself is append-only,
    /// so the record stays; the id is simply no longer live).
    Delete(SegId),
}

/// Bytes per encoded op: a kind byte plus a 16-byte payload (four `i32`
/// coordinates for an insert; a `u32` id, zero-padded, for a delete).
const OP_BYTES: usize = 17;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// Magic bytes opening every op log.
const MAGIC: &[u8; 8] = b"LSDBOPLG";

/// Op-log format version. The paged store the op log replaced
/// (`ops.pages` + `ops.wal`) was format version 2.
pub const FORMAT_VERSION: u32 = 3;

const HEADER_BYTES: usize = 20;
const RECORD_BYTES: usize = 4 + OP_BYTES;

fn segment_bytes(seg: &Segment) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (i, v) in [seg.a.x, seg.a.y, seg.b.x, seg.b.y].into_iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

fn encode_op(op: &MapOp, out: &mut [u8]) {
    out.fill(0);
    match *op {
        MapOp::Insert(seg) => {
            out[0] = KIND_INSERT;
            out[1..].copy_from_slice(&segment_bytes(&seg));
        }
        MapOp::Delete(id) => {
            out[0] = KIND_DELETE;
            out[1..5].copy_from_slice(&id.0.to_le_bytes());
        }
    }
}

fn decode_op(buf: &[u8]) -> Option<MapOp> {
    let word = |at: usize| i32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    match buf[0] {
        KIND_INSERT => Some(MapOp::Insert(Segment {
            a: Point {
                x: word(1),
                y: word(5),
            },
            b: Point {
                x: word(9),
                y: word(13),
            },
        })),
        KIND_DELETE => Some(MapOp::Delete(SegId(word(1) as u32))),
        _ => None,
    }
}

fn encode_record(op: &MapOp) -> [u8; RECORD_BYTES] {
    let mut record = [0u8; RECORD_BYTES];
    encode_op(op, &mut record[4..]);
    let crc = crc32(0, &record[4..]);
    record[..4].copy_from_slice(&crc.to_le_bytes());
    record
}

/// The op in `record`, or `None` when the record is torn: its CRC does
/// not match, or its kind is unknown.
fn decode_record(record: &[u8]) -> Option<MapOp> {
    let (crc, op) = record.split_at(4);
    if crc32(0, op) != u32::from_le_bytes(crc.try_into().unwrap()) {
        return None;
    }
    decode_op(op)
}

/// The header of a log over `base`: magic, version, and the base map's
/// segment count and CRC-32.
fn header(base: &[Segment]) -> [u8; HEADER_BYTES] {
    let crc = base
        .iter()
        .fold(0, |crc, seg| crc32(crc, &segment_bytes(seg)));
    let mut out = [0u8; HEADER_BYTES];
    out[..8].copy_from_slice(MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&(base.len() as u32).to_le_bytes());
    out[16..20].copy_from_slice(&crc.to_le_bytes());
    out
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Check that `bytes` opens with `want`, the header of a log over the
/// base map being opened.
fn check_header(bytes: &[u8], want: &[u8; HEADER_BYTES]) -> io::Result<()> {
    let word = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    if bytes.len() < HEADER_BYTES || bytes[..8] != MAGIC[..] {
        return Err(bad_data(format!(
            "not an op log: its {} bytes do not open with a {HEADER_BYTES}-byte LSDBOPLG header",
            bytes.len()
        )));
    }
    let version = word(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(bad_data(format!(
            "op log format version {version}, but this build reads only version {FORMAT_VERSION}"
        )));
    }
    if bytes[12..HEADER_BYTES] != want[12..] {
        return Err(bad_data(format!(
            "the op log extends a base map of {} segments (CRC-32 {:08x}), but was opened \
             over one of {} segments (CRC-32 {:08x}); its insert ids would name other segments",
            word(bytes, 12),
            word(bytes, 16),
            word(want, 12),
            word(want, 16),
        )));
    }
    Ok(())
}

/// What [`DurableMap::open`] recovered.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// The ops in the log, in log order (op `i` has LSN `i + 1`).
    pub ops: Vec<MapOp>,
    /// Bytes of torn tail cut off the log.
    pub discarded: u64,
}

impl RecoveryReport {
    /// Replay the recovered ops into `index`, which must hold the base
    /// map the log was opened over, freshly built. Inserts push into the
    /// segment table (ids are table positions, so they match the
    /// original assignment exactly) and deletes unindex. After replay
    /// the index is operation-for-operation identical to one that
    /// executed the ops live.
    pub fn replay_into(&self, index: &mut dyn SpatialIndex) {
        for op in &self.ops {
            match *op {
                MapOp::Insert(seg) => {
                    let id = index.seg_table_mut().push(seg);
                    index.insert(id);
                }
                MapOp::Delete(id) => {
                    index.remove(id);
                }
            }
        }
    }
}

/// The durable source of truth for a live segment database: an
/// append-only log of [`MapOp`]s over a base map (format in the module
/// docs).
///
/// The type is device-erased (`Box<dyn LogDevice>`) so volatile
/// in-memory maps, file-backed maps and fault-injected crash-test maps
/// share one concrete type.
pub struct DurableMap {
    log: Box<dyn LogDevice>,
    /// Ops in the log: the LSN of the last one.
    ops: u64,
    /// Set when a failed append could not be rolled back: the log's tail
    /// is unknown, so every later append is refused.
    poisoned: bool,
}

impl DurableMap {
    /// Open (or create) the op log on `log` over the base map `base`,
    /// cutting whatever torn tail a crash left. The recovered ops come
    /// back once, in the report; the map keeps only their count.
    ///
    /// An empty log gets a header (so does one torn while its header was
    /// first written: no op was acknowledged). A log whose header is
    /// missing, carries another format version, or names another base
    /// map is refused with [`io::ErrorKind::InvalidData`] and left
    /// unchanged.
    pub fn open(
        mut log: Box<dyn LogDevice>,
        base: &[Segment],
    ) -> io::Result<(DurableMap, RecoveryReport)> {
        let header = header(base);
        let bytes = log.read_all()?;
        let mut report = RecoveryReport::default();
        if bytes.len() < HEADER_BYTES && header.starts_with(&bytes) {
            report.discarded = bytes.len() as u64;
            log.truncate(0)?;
            log.append(&header)?;
            log.sync()?;
        } else {
            check_header(&bytes, &header)?;
            report.ops = bytes[HEADER_BYTES..]
                .chunks_exact(RECORD_BYTES)
                .map_while(decode_record)
                .collect();
            let valid = HEADER_BYTES + report.ops.len() * RECORD_BYTES;
            report.discarded = (bytes.len() - valid) as u64;
            log.truncate(valid as u64)?;
        }
        let map = DurableMap {
            log,
            ops: report.ops.len() as u64,
            poisoned: false,
        };
        Ok((map, report))
    }

    /// A volatile map (an in-memory log): live mutation semantics
    /// without persistence, for servers running on a transient store.
    pub fn volatile() -> DurableMap {
        let (map, _) = DurableMap::open(Box::new(MemLog::new()), &[])
            .expect("an in-memory op log cannot fail to open");
        map
    }

    fn refuse_if_poisoned(&self) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "op log refused: an earlier failed append could not be rolled back; \
                 reopen the log to recover",
            ));
        }
        Ok(())
    }

    /// Append one op durably: one record, one sync. On error nothing is
    /// recorded — the log is truncated back to its pre-append length, and
    /// if even that fails, every later append is refused.
    pub fn append(&mut self, op: MapOp) -> io::Result<Lsn> {
        self.refuse_if_poisoned()?;
        let rollback_to = self.log.len();
        let written = self
            .log
            .append(&encode_record(&op))
            .and_then(|()| self.log.sync());
        if let Err(e) = written {
            if self.log.truncate(rollback_to).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.ops += 1;
        Ok(self.last_lsn())
    }

    /// Sync the log and return the LSN of its last op.
    pub fn sync(&mut self) -> io::Result<Lsn> {
        self.refuse_if_poisoned()?;
        self.log.sync()?;
        Ok(self.last_lsn())
    }

    /// LSN of the last op in the log: the number of ops it holds.
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.ops)
    }
}

/// An index that accepts durable mutations while serving concurrent
/// readers.
///
/// * **Readers** take the shared side of an [`RwLock`] and run the
///   ordinary `&self` query path — counters, pinned-page charging and
///   all. Many readers proceed in parallel.
/// * **Writers** first append the op to the [`DurableMap`] (one synced
///   record — the op is durable before anything observable changes),
///   then take the exclusive side to apply it, then bump the epoch.
///
/// Lock order is always op-log mutex → index lock, and readers take only
/// the index lock, so the pair cannot deadlock. A mutation between a
/// reader's two queries can change results — that is the point — but no
/// reader ever observes a half-applied mutation.
pub struct LiveIndex {
    index: RwLock<Box<dyn SpatialIndex>>,
    map: Mutex<DurableMap>,
    epoch: AtomicU64,
}

impl LiveIndex {
    /// Wrap `index`, whose current contents must be its base map plus
    /// the replay of `map`'s ops (no ops yet, or index rebuilt via
    /// [`RecoveryReport::replay_into`], or the same ops applied live).
    pub fn new(index: Box<dyn SpatialIndex>, map: DurableMap) -> LiveIndex {
        LiveIndex {
            index: RwLock::new(index),
            map: Mutex::new(map),
            epoch: AtomicU64::new(0),
        }
    }

    /// Wrap an already-built index with a volatile op log: mutations are
    /// applied live and logged in memory, but nothing persists. Used by
    /// servers running on transient stores, where the "durability" half
    /// degenerates gracefully to plain serialised mutation.
    pub fn volatile(index: Box<dyn SpatialIndex>) -> LiveIndex {
        LiveIndex::new(index, DurableMap::volatile())
    }

    /// Durably insert a segment: append the op to the log, then append
    /// it to the segment table and index it. Returns the assigned id and
    /// the op's LSN.
    pub fn insert(&self, seg: Segment) -> io::Result<(SegId, Lsn)> {
        let mut map = self.map.lock().unwrap();
        let lsn = map.append(MapOp::Insert(seg))?;
        let mut index = self.index.write().unwrap();
        let id = index.seg_table_mut().push(seg);
        index.insert(id);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok((id, lsn))
    }

    /// Durably delete a segment. An id past the end of the segment table
    /// is not an applicable op and is **not** logged: the call returns
    /// `(false, last_lsn)` without touching the index. A valid id that
    /// is already deleted logs the (idempotent) op and returns `false`.
    pub fn remove(&self, id: SegId) -> io::Result<(bool, Lsn)> {
        let mut map = self.map.lock().unwrap();
        {
            let index = self.index.read().unwrap();
            if id.0 >= index.seg_table().len() {
                return Ok((false, map.last_lsn()));
            }
        }
        let lsn = map.append(MapOp::Delete(id))?;
        let mut index = self.index.write().unwrap();
        let removed = index.remove(id);
        self.epoch.fetch_add(1, Ordering::Release);
        Ok((removed, lsn))
    }

    /// Sync the op log and return the LSN of its last op. Readers are
    /// unaffected (the index lock is not taken), but the epoch still
    /// ticks: epoch-keyed consumers (the server's reply cache) treat
    /// every acknowledged `FLUSH` as an invalidation point.
    pub fn flush(&self) -> io::Result<Lsn> {
        let lsn = self.map.lock().unwrap().sync()?;
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(lsn)
    }

    /// Run `f` against the index under the shared read lock.
    pub fn with_read<R>(&self, f: impl FnOnce(&dyn SpatialIndex) -> R) -> R {
        let guard = self.index.read().unwrap();
        f(&**guard)
    }

    /// Run `f` against the index under the exclusive write lock, without
    /// logging anything. For maintenance that does not change the
    /// logical segment set (cache clearing, stats resets).
    pub fn with_write<R>(&self, f: impl FnOnce(&mut dyn SpatialIndex) -> R) -> R {
        let mut guard = self.index.write().unwrap();
        f(&mut **guard)
    }

    /// Generation counter: incremented after every applied mutation.
    /// Readers can compare epochs across queries to detect interleaved
    /// writes without holding any lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// LSN of the last logged op.
    pub fn last_lsn(&self) -> Lsn {
        self.map.lock().unwrap().last_lsn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::QueryCtx;
    use crate::{IndexConfig, QueryStats, SegmentTable};
    use lsdb_geom::Rect;
    use std::collections::BTreeSet;

    fn seg(ax: i32, ay: i32, bx: i32, by: i32) -> Segment {
        Segment {
            a: Point { x: ax, y: ay },
            b: Point { x: bx, y: by },
        }
    }

    /// A mixed op history: inserts with a delete after every third.
    fn history(n: i32) -> Vec<MapOp> {
        (0..n)
            .map(|i| match i % 4 {
                3 => MapOp::Delete(SegId(i as u32 / 2)),
                _ => MapOp::Insert(seg(i, i + 1, i + 2, i + 3)),
            })
            .collect()
    }

    /// A fresh in-memory map over an empty base, plus a handle on its log.
    fn mem_map() -> (DurableMap, MemLog) {
        let log = MemLog::new();
        let (map, report) = DurableMap::open(Box::new(log.clone()), &[]).unwrap();
        assert_eq!(report, RecoveryReport::default());
        (map, log)
    }

    /// Reopen photographed log bytes over an empty base, with a handle
    /// on the reopened log.
    fn reopen(bytes: Vec<u8>) -> (DurableMap, RecoveryReport, MemLog) {
        let log = MemLog::from_bytes(bytes);
        let (map, report) = DurableMap::open(Box::new(log.clone()), &[]).unwrap();
        (map, report, log)
    }

    /// A minimal list-backed [`SpatialIndex`]: enough structure to prove
    /// the live layer's replay and locking semantics in-core (the real
    /// structures exercise it from the bench crate).
    struct ListIndex {
        table: SegmentTable,
        alive: BTreeSet<SegId>,
    }

    impl ListIndex {
        fn new() -> ListIndex {
            let cfg = IndexConfig::default();
            ListIndex {
                table: SegmentTable::new(cfg.page_size, cfg.pool_pages),
                alive: BTreeSet::new(),
            }
        }
    }

    impl SpatialIndex for ListIndex {
        fn name(&self) -> &'static str {
            "list"
        }
        fn seg_table(&self) -> &SegmentTable {
            &self.table
        }
        fn seg_table_mut(&mut self) -> &mut SegmentTable {
            &mut self.table
        }
        fn insert(&mut self, id: SegId) {
            self.alive.insert(id);
        }
        fn remove(&mut self, id: SegId) -> bool {
            self.alive.remove(&id)
        }
        fn len(&self) -> usize {
            self.alive.len()
        }
        fn find_incident(&self, p: Point, ctx: &mut QueryCtx) -> Vec<SegId> {
            self.alive
                .iter()
                .copied()
                .filter(|&id| self.table.get(id, ctx).has_endpoint(p))
                .collect()
        }
        fn nearest(&self, p: Point, ctx: &mut QueryCtx) -> Option<SegId> {
            self.alive
                .iter()
                .copied()
                .map(|id| (self.table.get(id, ctx).dist2_point(p), id))
                .min()
                .map(|(_, id)| id)
        }
        fn window(&self, w: Rect, ctx: &mut QueryCtx) -> Vec<SegId> {
            self.alive
                .iter()
                .copied()
                .filter(|&id| w.intersects_segment(&self.table.get(id, ctx)))
                .collect()
        }
        fn stats(&self) -> QueryStats {
            QueryStats::default()
        }
        fn reset_stats(&mut self) {}
        fn size_bytes(&self) -> u64 {
            0
        }
        fn clear_cache(&mut self) {}
    }

    #[test]
    fn crc32_known_vectors_and_chaining() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn op_codec_roundtrips_and_every_flipped_bit_is_caught() {
        for op in [
            MapOp::Insert(seg(i32::MIN, -1, i32::MAX, 7)),
            MapOp::Delete(SegId(u32::MAX)),
            MapOp::Delete(SegId(0)),
        ] {
            let record = encode_record(&op);
            assert_eq!(decode_record(&record), Some(op));
            for bit in 0..RECORD_BYTES * 8 {
                let mut bad = record;
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(decode_record(&bad), None, "{op:?}, bit {bit}");
            }
        }
        assert_eq!(decode_op(&[9u8; OP_BYTES]), None, "unknown kind");
    }

    #[test]
    fn mem_log_clones_share_bytes() {
        let mut log = MemLog::new();
        let handle = log.clone();
        log.append(b"hello").unwrap();
        assert_eq!(handle.bytes(), b"hello");
        assert_eq!(handle.len(), 5);
        log.truncate(2).unwrap();
        assert_eq!(handle.read_all().unwrap(), b"he");
    }

    #[test]
    fn reopened_map_returns_its_ops_and_continues_the_lsns() {
        let (mut map, log) = mem_map();
        let ops = history(20);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(map.append(*op).unwrap(), Lsn(i as u64 + 1));
        }
        assert_eq!(map.sync().unwrap(), Lsn(20));
        assert_eq!(log.len() as usize, HEADER_BYTES + 20 * RECORD_BYTES);

        let (mut map, report, log) = reopen(log.bytes());
        assert_eq!(report, RecoveryReport { ops, discarded: 0 });
        assert_eq!(map.last_lsn(), Lsn(20));
        assert_eq!(map.append(MapOp::Delete(SegId(0))).unwrap(), Lsn(21));
        assert_eq!(reopen(log.bytes()).1.ops.len(), 21);
    }

    #[test]
    fn empty_map_reopens_cleanly() {
        let (map, log) = mem_map();
        assert_eq!(map.last_lsn(), Lsn(0));
        let (map, report, _) = reopen(log.bytes());
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(map.last_lsn(), Lsn(0));
    }

    #[test]
    fn torn_log_at_every_byte_recovers_an_op_prefix() {
        // Cut the log anywhere: the reopened map holds exactly the ops
        // whose records survived whole, the torn bytes are cut off the
        // device, and the next append continues from there. A cut inside
        // the header is a log torn at creation: it reopens empty.
        let (mut map, log) = mem_map();
        let ops = history(6);
        for op in &ops {
            map.append(*op).unwrap();
        }
        let full = log.bytes();
        let extra = MapOp::Insert(seg(100, 100, 101, 101));
        for cut in 0..=full.len() {
            let (mut map, report, log) = reopen(full[..cut].to_vec());
            let whole = cut.saturating_sub(HEADER_BYTES) / RECORD_BYTES;
            let valid = if cut < HEADER_BYTES {
                0
            } else {
                HEADER_BYTES + whole * RECORD_BYTES
            };
            assert_eq!(report.ops, &ops[..whole], "cut at {cut}");
            assert_eq!(report.discarded, (cut - valid) as u64, "cut at {cut}");
            assert_eq!(log.bytes(), full[..valid.max(HEADER_BYTES)], "cut at {cut}");

            assert_eq!(map.append(extra).unwrap(), Lsn(whole as u64 + 1));
            let mut expect = ops[..whole].to_vec();
            expect.push(extra);
            assert_eq!(reopen(log.bytes()).1.ops, expect, "cut at {cut}");
        }
    }

    #[test]
    fn foreign_or_unknown_version_logs_are_refused_and_left_unchanged() {
        let mut future = header(&[]).to_vec();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        future.extend_from_slice(&encode_record(&MapOp::Delete(SegId(0))));
        let retired_superblock = {
            let mut page = vec![0u8; 1024];
            page[..8].copy_from_slice(b"LSDBPAGE");
            page[8..10].copy_from_slice(&2u16.to_le_bytes());
            page
        };
        for (bytes, says) in [
            (b"not an op log, just some bytes".to_vec(), "not an op log"),
            (b"LSDBPAGE".to_vec(), "not an op log"),
            (retired_superblock, "not an op log"),
            (future, "version 99"),
        ] {
            let log = MemLog::from_bytes(bytes.clone());
            let err = DurableMap::open(Box::new(log.clone()), &[])
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(says), "{err}");
            assert_eq!(log.bytes(), bytes, "a refused log is left unchanged");
        }
    }

    #[test]
    fn reopening_over_another_base_map_is_refused() {
        let base = [seg(0, 0, 1, 1), seg(1, 1, 2, 0)];
        let log = MemLog::new();
        let (mut map, _) = DurableMap::open(Box::new(log.clone()), &base).unwrap();
        map.append(MapOp::Insert(seg(5, 5, 6, 6))).unwrap();
        let bytes = log.bytes();

        let same = DurableMap::open(Box::new(MemLog::from_bytes(bytes.clone())), &base);
        assert_eq!(same.unwrap().1.ops.len(), 1);
        let moved = [seg(0, 0, 1, 1), seg(1, 1, 2, 1)];
        for other in [&base[..1], &moved[..], &[]] {
            let log = MemLog::from_bytes(bytes.clone());
            let err = DurableMap::open(Box::new(log.clone()), other)
                .map(|_| ())
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("base map of 2 segments"), "{msg}");
            assert!(
                msg.contains(&format!("one of {} segments", other.len())),
                "{msg}"
            );
            assert_eq!(log.bytes(), bytes, "a refused log is left unchanged");
        }
    }

    #[test]
    fn a_failed_append_is_not_recorded_and_later_appends_succeed() {
        let log = MemLog::new();
        // Room for the header, one record and 10 bytes of the next.
        let budget = (HEADER_BYTES + RECORD_BYTES + 10) as u64;
        let faulty = FaultyLog::new(log.clone(), budget, AfterTear::Recover);
        let (mut map, _) = DurableMap::open(Box::new(faulty), &[]).unwrap();
        let ops = history(3);
        assert_eq!(map.append(ops[0]).unwrap(), Lsn(1));
        let acknowledged = log.bytes();
        assert!(map.append(ops[1]).is_err());
        assert_eq!(log.bytes(), acknowledged, "the torn record is rolled back");
        assert_eq!(map.append(ops[2]).unwrap(), Lsn(2));
        assert_eq!(reopen(log.bytes()).1.ops, [ops[0], ops[2]]);
    }

    #[test]
    fn after_a_failed_rollback_every_append_is_refused() {
        let log = MemLog::new();
        let budget = (HEADER_BYTES + RECORD_BYTES + 10) as u64;
        let faulty = FaultyLog::new(log.clone(), budget, AfterTear::Die);
        let (mut map, _) = DurableMap::open(Box::new(faulty), &[]).unwrap();
        let ops = history(3);
        map.append(ops[0]).unwrap();
        assert!(map.append(ops[1]).is_err(), "the append tears");
        let torn = log.bytes();
        assert_eq!(torn.len(), HEADER_BYTES + RECORD_BYTES + 10);
        for err in [map.append(ops[2]).unwrap_err(), map.sync().unwrap_err()] {
            assert!(err.to_string().contains("refused"), "{err}");
        }
        assert_eq!(map.last_lsn(), Lsn(1));
        assert_eq!(log.bytes(), torn);

        // A reopen re-establishes what is durable.
        let (_, report, _) = reopen(torn);
        assert_eq!(report.ops, [ops[0]]);
        assert_eq!(report.discarded, 10);
    }

    #[test]
    fn replay_matches_live_application() {
        let live = LiveIndex::volatile(Box::new(ListIndex::new()));
        let mut ids = Vec::new();
        for i in 0..10 {
            let (id, lsn) = live.insert(seg(i, 0, i, 10)).unwrap();
            assert_eq!(lsn, Lsn(i as u64 + 1));
            ids.push(id);
        }
        assert_eq!(ids, (0..10).map(SegId).collect::<Vec<_>>());
        let (removed, _) = live.remove(SegId(3)).unwrap();
        assert!(removed);
        let (removed, _) = live.remove(SegId(3)).unwrap();
        assert!(!removed, "double delete reports not-present");
        let (removed, lsn) = live.remove(SegId(99)).unwrap();
        assert!(!removed, "out-of-range delete refused");
        assert_eq!(lsn, Lsn(12), "refused delete was not logged");
        assert_eq!(live.flush().unwrap(), Lsn(12));
        assert_eq!(live.epoch(), 13, "12 mutations and a flush");

        // Replay the logged history into a fresh index: same alive set,
        // and the table keeps the deleted row.
        let mut ops: Vec<MapOp> = (0..10).map(|i| MapOp::Insert(seg(i, 0, i, 10))).collect();
        ops.extend([MapOp::Delete(SegId(3)); 2]);
        let mut rebuilt = ListIndex::new();
        RecoveryReport { ops, discarded: 0 }.replay_into(&mut rebuilt);
        assert_eq!(rebuilt.seg_table().len(), 10);
        live.with_read(|index| {
            assert_eq!(index.len(), rebuilt.len());
            let mut ctx = QueryCtx::new();
            let w = Rect::new(-100, -100, 100, 100);
            assert_eq!(index.window(w, &mut ctx), rebuilt.window(w, &mut ctx));
        });
    }

    #[test]
    fn concurrent_readers_during_writes() {
        use std::sync::atomic::AtomicBool;

        let live = LiveIndex::volatile(Box::new(ListIndex::new()));
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut ctx = QueryCtx::new();
                    while !done.load(Ordering::Acquire) {
                        live.with_read(|index| {
                            let hits = index.window(Rect::new(0, 0, 1000, 1000), &mut ctx);
                            // Every observed hit resolves to a real record:
                            // no reader sees a half-applied insert.
                            for id in hits {
                                let s = index.seg_table().get(id, &mut ctx);
                                assert_eq!(s.a.y, 0);
                            }
                        });
                        ctx.reset();
                    }
                });
            }
            for i in 0..200 {
                live.insert(seg(i, 0, i, 10)).unwrap();
                if i % 10 == 9 {
                    live.remove(SegId(i as u32 - 5)).unwrap();
                }
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(live.with_read(|i| i.len()), 200 - 20);
        assert_eq!(live.epoch(), 220);
    }

    #[test]
    fn file_backed_map_survives_reopen_and_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("lsdb-live-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.log");
        let _ = std::fs::remove_file(&path);
        let base = [seg(0, 0, 9, 9)];
        let ops = history(3);
        {
            let (mut map, _) =
                DurableMap::open(Box::new(FileLog::open(&path).unwrap()), &base).unwrap();
            for op in &ops {
                map.append(*op).unwrap();
            }
        }
        // A crash mid-append leaves part of a record behind.
        let whole = std::fs::read(&path).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(&encode_record(&ops[0])[..5]);
        std::fs::write(&path, &torn).unwrap();
        {
            let (mut map, report) =
                DurableMap::open(Box::new(FileLog::open(&path).unwrap()), &base).unwrap();
            assert_eq!(report, RecoveryReport { ops, discarded: 5 });
            assert_eq!(
                std::fs::read(&path).unwrap(),
                whole,
                "torn tail cut on disk"
            );
            assert_eq!(map.append(MapOp::Delete(SegId(1))).unwrap(), Lsn(4));
        }
        let (map, report) =
            DurableMap::open(Box::new(FileLog::open(&path).unwrap()), &base).unwrap();
        assert_eq!(report.ops.len(), 4);
        assert_eq!(map.last_lsn(), Lsn(4));
        std::fs::remove_dir_all(&dir).ok();
    }
}
