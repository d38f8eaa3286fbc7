//! Live mutation layer: a durable operation log and a concurrently
//! readable index wrapper.
//!
//! The paper's experiments build each structure once from a polygonal map
//! and then measure read-only queries. This module adds the missing
//! *online* half: segments can be inserted and deleted while queries run,
//! and every mutation is made durable **before** it is applied, so a
//! store killed at any instant recovers to a prefix of the acknowledged
//! operations.
//!
//! The design treats the four spatial structures as *derived* state. The
//! durable truth is [`DurableMap`] — an append-only log of [`MapOp`]s
//! (insert segment / delete id) stored in fixed-size records on pages
//! behind a [`DurableStorage`] WAL. Recovery replays the op log into a
//! freshly built empty index ([`DurableMap::replay_into`]); because
//! segment ids are assigned by append order and every structure's
//! maintenance path is deterministic, the replayed index is *identical* —
//! page images, residency and all — to the index the crashed process had
//! built, which is what the byte-equality crash tests assert.
//!
//! [`LiveIndex`] composes the op log with an index behind a
//! [`RwLock`]: queries share the read side (the query path of every
//! structure is `&self` already), mutations take the write side only
//! *after* the op has committed to the log. A generation counter
//! ([`LiveIndex::epoch`]) ticks on every applied mutation so readers can
//! detect change without holding the lock.

use crate::index::SpatialIndex;
use crate::SegId;
use lsdb_geom::{Point, Segment};
use lsdb_pager::wal::LogDevice;
use lsdb_pager::{DurableStorage, Lsn, MemLog, MemStorage, PageId, RecoveryReport, Storage};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// One logged mutation of the segment set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapOp {
    /// Append this segment to the segment table and index it. The id it
    /// receives is the table length at apply time — a pure function of
    /// the op's position in the log.
    Insert(Segment),
    /// Unindex the segment with this id (the table itself is append-only,
    /// so the record stays; the id is simply no longer live).
    Delete(SegId),
}

/// Bytes per op record: a kind byte plus a 16-byte payload (four `i32`
/// coordinates for an insert; a `u32` id, zero-padded, for a delete).
pub const OP_BYTES: usize = 17;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// Magic bytes opening the header page of a [`DurableMap`] store. The
/// trailing digit is the map-format version; it moved to 2 together with
/// the structure-of-arrays node-page layout (format v2 stores also carry
/// the versioned `FileStorage` superblock). A v1 store is recognized and
/// rejected with a version message, not a generic bad-magic error.
const MAGIC: &[u8; 8] = b"LSDBMAP2";
const MAGIC_V1: &[u8; 8] = b"LSDBMAP1";

fn encode_op(op: &MapOp, out: &mut [u8]) {
    debug_assert_eq!(out.len(), OP_BYTES);
    out.fill(0);
    match *op {
        MapOp::Insert(seg) => {
            out[0] = KIND_INSERT;
            out[1..5].copy_from_slice(&seg.a.x.to_le_bytes());
            out[5..9].copy_from_slice(&seg.a.y.to_le_bytes());
            out[9..13].copy_from_slice(&seg.b.x.to_le_bytes());
            out[13..17].copy_from_slice(&seg.b.y.to_le_bytes());
        }
        MapOp::Delete(id) => {
            out[0] = KIND_DELETE;
            out[1..5].copy_from_slice(&id.0.to_le_bytes());
        }
    }
}

fn decode_op(buf: &[u8]) -> io::Result<MapOp> {
    debug_assert_eq!(buf.len(), OP_BYTES);
    let word = |at: usize| i32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    match buf[0] {
        KIND_INSERT => Ok(MapOp::Insert(Segment {
            a: Point {
                x: word(1),
                y: word(5),
            },
            b: Point {
                x: word(9),
                y: word(13),
            },
        })),
        KIND_DELETE => Ok(MapOp::Delete(SegId(word(1) as u32))),
        k => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("durable map: unknown op kind {k}"),
        )),
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The durable source of truth for a live segment database: an
/// append-only log of [`MapOp`]s paged behind a [`DurableStorage`] WAL.
///
/// Page 0 is a header (magic, op count, page size); pages 1… hold
/// [`OP_BYTES`]-sized records, `page_size / OP_BYTES` per page. Appends
/// group-commit: a batch of ops dirties at most a handful of tail pages
/// plus the header and costs one log fsync however many ops it carries.
///
/// The type is storage-erased (`Box<dyn Storage>` / `Box<dyn
/// LogDevice>`) so volatile in-memory maps, file-backed maps, and
/// fault-wrapped crash-test maps all share one concrete type.
pub struct DurableMap {
    store: DurableStorage<Box<dyn Storage + Send>, Box<dyn LogDevice>>,
    /// Every committed op, in log order — the replay source.
    ops: Vec<MapOp>,
    page_size: usize,
    per_page: usize,
}

impl DurableMap {
    /// Open (or create) an op log over `base` + `log`, recovering from
    /// whatever bytes survived a crash. An empty base/log pair is
    /// initialised with a committed header page.
    pub fn open(
        base: Box<dyn Storage + Send>,
        log: Box<dyn LogDevice>,
    ) -> io::Result<(Self, RecoveryReport)> {
        let page_size = base.page_size();
        let (store, report) = DurableStorage::open(base, log)?;
        let mut map = DurableMap {
            store,
            ops: Vec::new(),
            page_size,
            per_page: page_size / OP_BYTES,
        };
        if map.store.num_pages() == 0 {
            let pid = map.store.grow()?;
            debug_assert_eq!(pid, PageId(0));
            map.write_header(0)?;
            map.store.commit()?;
        } else {
            map.load()?;
        }
        Ok((map, report))
    }

    /// A volatile map (in-memory pages and log): live mutation semantics
    /// without persistence, for servers running on a transient store.
    pub fn volatile(page_size: usize) -> DurableMap {
        let (map, _) = DurableMap::open(
            Box::new(MemStorage::new(page_size)),
            Box::new(MemLog::new()),
        )
        .expect("in-memory op log cannot fail to open");
        map
    }

    fn write_header(&mut self, count: u64) -> io::Result<()> {
        let mut page = vec![0u8; self.page_size];
        page[..8].copy_from_slice(MAGIC);
        page[8..16].copy_from_slice(&count.to_le_bytes());
        page[16..20].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        self.store.write_page(PageId(0), &page)
    }

    /// Parse the header and every op record out of a recovered store.
    fn load(&mut self) -> io::Result<()> {
        let mut page = vec![0u8; self.page_size];
        self.store.read_page(PageId(0), &mut page)?;
        if &page[..8] != MAGIC {
            if &page[..8] == MAGIC_V1 {
                return Err(bad_data(
                    "durable map: store is format version 1 (pre-SoA page \
                     layout), which this build does not read",
                ));
            }
            return Err(bad_data("durable map: bad magic in header page"));
        }
        let stored_ps = u32::from_le_bytes(page[16..20].try_into().unwrap()) as usize;
        if stored_ps != self.page_size {
            return Err(bad_data(format!(
                "durable map: store has {stored_ps}-byte pages, opened with {}",
                self.page_size
            )));
        }
        let count = u64::from_le_bytes(page[8..16].try_into().unwrap()) as usize;
        let pages_needed = count.div_ceil(self.per_page) as u32;
        if self.store.num_pages() < pages_needed + 1 {
            return Err(bad_data("durable map: op pages missing for header count"));
        }
        self.ops.reserve(count);
        for i in 0..count {
            let pid = PageId(1 + (i / self.per_page) as u32);
            let slot = i % self.per_page;
            if slot == 0 {
                self.store.read_page(pid, &mut page)?;
            }
            self.ops
                .push(decode_op(&page[slot * OP_BYTES..][..OP_BYTES])?);
        }
        Ok(())
    }

    /// Append one op durably. Equivalent to `append_all(&[op])`.
    pub fn append(&mut self, op: MapOp) -> io::Result<Lsn> {
        self.append_all(std::slice::from_ref(&op))
    }

    /// Append a batch of ops and group-commit them: the records land on
    /// tail pages, the header count is bumped, and the whole batch
    /// becomes durable with a single log append + fsync. On error
    /// nothing is appended (the WAL's pending tier is simply overwritten
    /// by the next attempt).
    pub fn append_all(&mut self, ops: &[MapOp]) -> io::Result<Lsn> {
        if ops.is_empty() {
            return Ok(self.store.last_lsn());
        }
        let mut page = vec![0u8; self.page_size];
        let mut cur: Option<PageId> = None;
        let mut count = self.ops.len();
        for op in ops {
            let pid = PageId(1 + (count / self.per_page) as u32);
            if cur != Some(pid) {
                if let Some(prev) = cur {
                    self.store.write_page(prev, &page)?;
                }
                while self.store.num_pages() <= pid.0 {
                    self.store.grow()?;
                }
                self.store.read_page(pid, &mut page)?;
                cur = Some(pid);
            }
            let slot = count % self.per_page;
            encode_op(op, &mut page[slot * OP_BYTES..][..OP_BYTES]);
            count += 1;
        }
        if let Some(prev) = cur {
            self.store.write_page(prev, &page)?;
        }
        self.write_header(count as u64)?;
        let lsn = self.store.commit()?;
        self.ops.extend_from_slice(ops);
        Ok(lsn)
    }

    /// Fold the log into the base store and truncate it (see
    /// [`DurableStorage::checkpoint`]).
    pub fn checkpoint(&mut self) -> io::Result<Lsn> {
        self.store.checkpoint()
    }

    /// Every committed op in log order.
    pub fn ops(&self) -> &[MapOp] {
        &self.ops
    }

    /// Number of committed ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// LSN of the last committed record in the current log generation.
    pub fn last_lsn(&self) -> Lsn {
        self.store.last_lsn()
    }

    /// Bytes currently in the WAL device (0 right after a checkpoint).
    pub fn log_len(&self) -> u64 {
        self.store.log_len()
    }

    /// Replay the full op history into `index`, which must be in the same
    /// state the live index was in when logging began — freshly built
    /// over the same base map (or empty, if the ops started from an empty
    /// index). Inserts push into the segment table (ids are assigned by
    /// table position, so against an identical base they match the
    /// original assignment exactly) and deletes unindex. After replay the
    /// index is operation-for-operation identical to one that executed
    /// the ops live.
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

/// An index that accepts durable mutations while serving concurrent
/// readers.
///
/// * **Readers** take the shared side of an [`RwLock`] and run the
///   ordinary `&self` query path — counters, pinned-page charging and
///   all. Many readers proceed in parallel.
/// * **Writers** first commit the op to the [`DurableMap`] (WAL fsync —
///   the op is durable before anything observable changes), then take
///   the exclusive side to apply it, then bump the epoch.
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
    /// Wrap `index`, whose current contents must be the replay of
    /// `map`'s op history (both empty, or index rebuilt via
    /// [`DurableMap::replay_into`], or the same ops applied live).
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
        LiveIndex::new(index, DurableMap::volatile(lsdb_pager::DEFAULT_PAGE_SIZE))
    }

    /// Durably insert a segment: commit the op to the log, then append
    /// it to the segment table and index it. Returns the assigned id and
    /// the commit LSN.
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

    /// Checkpoint the op log: fold the WAL into its base store and
    /// truncate the log. Readers are unaffected (the index lock is not
    /// taken), but the epoch still ticks: epoch-keyed consumers (the
    /// server's reply cache) treat every acknowledged `FLUSH` as an
    /// invalidation point, conservatively orphaning entries from before
    /// the checkpoint.
    pub fn flush(&self) -> io::Result<Lsn> {
        let lsn = self.map.lock().unwrap().checkpoint()?;
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

    /// Number of committed ops in the log.
    pub fn ops_len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// LSN of the last committed op.
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
    use lsdb_pager::fault::FaultyLog;
    use std::collections::BTreeSet;

    const PS: usize = 128;

    fn seg(ax: i32, ay: i32, bx: i32, by: i32) -> Segment {
        Segment {
            a: Point { x: ax, y: ay },
            b: Point { x: bx, y: by },
        }
    }

    fn mem_map() -> (DurableMap, MemLog) {
        let log = MemLog::new();
        let handle = log.clone();
        let (map, _) = DurableMap::open(Box::new(MemStorage::new(PS)), Box::new(log)).unwrap();
        (map, handle)
    }

    fn reopen(bytes: Vec<u8>) -> DurableMap {
        let (map, _) = DurableMap::open(
            Box::new(MemStorage::new(PS)),
            Box::new(MemLog::from_bytes(bytes)),
        )
        .unwrap();
        map
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
    fn op_codec_roundtrips() {
        for op in [
            MapOp::Insert(seg(i32::MIN, -1, i32::MAX, 7)),
            MapOp::Delete(SegId(u32::MAX)),
            MapOp::Delete(SegId(0)),
        ] {
            let mut buf = [0u8; OP_BYTES];
            encode_op(&op, &mut buf);
            assert_eq!(decode_op(&buf).unwrap(), op);
        }
        assert!(decode_op(&[9u8; OP_BYTES]).is_err());
    }

    #[test]
    fn durable_map_survives_reopen_from_log() {
        let (mut map, log) = mem_map();
        // Enough ops to cross a page boundary (128 / 17 = 7 per page).
        let ops: Vec<MapOp> = (0..20)
            .map(|i| {
                if i % 5 == 4 {
                    MapOp::Delete(SegId(i as u32 / 5))
                } else {
                    MapOp::Insert(seg(i, i + 1, i + 2, i + 3))
                }
            })
            .collect();
        map.append_all(&ops[..9]).unwrap();
        for op in &ops[9..] {
            map.append(*op).unwrap();
        }
        assert_eq!(map.ops(), &ops[..]);

        let recovered = reopen(log.bytes());
        assert_eq!(recovered.ops(), &ops[..]);
    }

    #[test]
    fn empty_map_reopens_cleanly() {
        let (map, log) = mem_map();
        assert_eq!(map.len(), 0);
        let recovered = reopen(log.bytes());
        assert_eq!(recovered.len(), 0);
    }

    #[test]
    fn header_validation_rejects_foreign_stores() {
        // A base whose header page carries the wrong magic is refused.
        let mut base = MemStorage::new(PS);
        let p0 = base.grow().unwrap();
        base.write_page(p0, &[0x5A; PS]).unwrap();
        let err = DurableMap::open(Box::new(base), Box::new(MemLog::new()))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // So is a header recording a different page size: hand-craft a
        // valid header page that claims 64-byte pages, open at 128.
        let mut page = vec![0u8; PS];
        page[..8].copy_from_slice(MAGIC);
        page[16..20].copy_from_slice(&64u32.to_le_bytes());
        let mut base = MemStorage::new(PS);
        let p0 = base.grow().unwrap();
        base.write_page(p0, &page).unwrap();
        let err = DurableMap::open(Box::new(base), Box::new(MemLog::new()))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn v1_format_store_is_rejected_with_version_error() {
        // A store written by the format-v1 code (header magic "LSDBMAP1",
        // node pages in the interleaved layout) must be refused at open
        // with a message naming the version — not a decode panic, and not
        // a generic bad-magic complaint.
        let mut page = vec![0u8; PS];
        page[..8].copy_from_slice(MAGIC_V1);
        page[8..16].copy_from_slice(&0u64.to_le_bytes());
        page[16..20].copy_from_slice(&(PS as u32).to_le_bytes());
        let mut base = MemStorage::new(PS);
        let p0 = base.grow().unwrap();
        base.write_page(p0, &page).unwrap();
        let err = DurableMap::open(Box::new(base), Box::new(MemLog::new()))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 1"), "{err}");
    }

    #[test]
    fn torn_log_at_every_byte_recovers_an_op_prefix() {
        // The crash property at the op level: cut the WAL anywhere and
        // the reopened map holds exactly the ops of some committed
        // prefix of append batches, never a partial batch.
        let (mut map, log) = mem_map();
        // Any cut before the first op batch (including inside the initial
        // header commit) recovers an empty map.
        let mut committed_prefixes = vec![(0usize, 0usize)];
        let batches: [&[MapOp]; 3] = [
            &[
                MapOp::Insert(seg(0, 0, 1, 1)),
                MapOp::Insert(seg(2, 2, 3, 3)),
            ],
            &[MapOp::Delete(SegId(0))],
            &[
                MapOp::Insert(seg(4, 4, 5, 5)),
                MapOp::Insert(seg(6, 6, 7, 7)),
                MapOp::Insert(seg(8, 8, 9, 9)),
            ],
        ];
        let mut all = Vec::new();
        for batch in batches {
            map.append_all(batch).unwrap();
            all.extend_from_slice(batch);
            committed_prefixes.push((log.len() as usize, all.len()));
        }
        let full = log.bytes();
        for cut in 0..=full.len() {
            let recovered = reopen(full[..cut].to_vec());
            let expect = committed_prefixes
                .iter()
                .rev()
                .find(|&&(len, _)| len <= cut)
                .map(|&(_, ops)| ops)
                .unwrap();
            assert_eq!(recovered.ops(), &all[..expect], "cut at {cut}");
        }
    }

    #[test]
    fn faulty_log_append_fails_cleanly_and_recovers_acknowledged_ops() {
        let (mut map, log) = mem_map();
        map.append(MapOp::Insert(seg(1, 1, 2, 2))).unwrap();
        let acknowledged = log.bytes();

        // Rebuild the map over a log that tears on the next append.
        let gen2 = MemLog::from_bytes(acknowledged);
        let handle = gen2.clone();
        let (mut map, _) = DurableMap::open(
            Box::new(MemStorage::new(PS)),
            Box::new(FaultyLog::new(gen2, 10)),
        )
        .unwrap();
        assert_eq!(map.len(), 1);
        assert!(map.append(MapOp::Insert(seg(3, 3, 4, 4))).is_err());
        assert_eq!(map.len(), 1, "failed append is not recorded");

        let recovered = reopen(handle.bytes());
        assert_eq!(recovered.ops(), &[MapOp::Insert(seg(1, 1, 2, 2))]);
    }

    #[test]
    fn checkpoint_truncates_log_and_map_stays_replayable() {
        let (mut map, _) = mem_map();
        map.append_all(&[
            MapOp::Insert(seg(0, 0, 5, 5)),
            MapOp::Insert(seg(5, 5, 9, 0)),
            MapOp::Delete(SegId(0)),
        ])
        .unwrap();
        assert!(map.log_len() > 0);
        map.checkpoint().unwrap();
        assert_eq!(map.log_len(), 0);
        assert_eq!(map.last_lsn(), Lsn::ZERO);

        let mut index = ListIndex::new();
        map.replay_into(&mut index);
        assert_eq!(index.len(), 1);
        assert_eq!(index.seg_table().len(), 2, "table is append-only");
        assert!(!index.alive.contains(&SegId(0)));
        assert!(index.alive.contains(&SegId(1)));
    }

    #[test]
    fn replay_matches_live_application() {
        let live = LiveIndex::new(Box::new(ListIndex::new()), DurableMap::volatile(PS));
        let mut ids = Vec::new();
        for i in 0..10 {
            let (id, _) = live.insert(seg(i, 0, i, 10)).unwrap();
            ids.push(id);
        }
        assert_eq!(ids, (0..10).map(SegId).collect::<Vec<_>>());
        let (removed, _) = live.remove(SegId(3)).unwrap();
        assert!(removed);
        let (removed, _) = live.remove(SegId(3)).unwrap();
        assert!(!removed, "double delete reports not-present");
        let (removed, _) = live.remove(SegId(99)).unwrap();
        assert!(!removed, "out-of-range delete refused");
        assert_eq!(live.ops_len(), 12, "refused delete was not logged");
        assert_eq!(live.epoch(), 12);

        // Replay the logged history into a fresh index: same alive set.
        let mut rebuilt = ListIndex::new();
        live.map.lock().unwrap().replay_into(&mut rebuilt);
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

        let live = LiveIndex::new(Box::new(ListIndex::new()), DurableMap::volatile(PS));
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
    fn file_backed_map_survives_checkpoint_and_reopen() {
        let dir = std::env::temp_dir().join(format!("lsdb-live-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("map.pages");
        let log_path = dir.join("map.wal");
        let ops = [
            MapOp::Insert(seg(1, 2, 3, 4)),
            MapOp::Insert(seg(5, 6, 7, 8)),
            MapOp::Delete(SegId(0)),
        ];
        {
            let base = lsdb_pager::FileStorage::create(&base_path, PS).unwrap();
            let log = lsdb_pager::FileLog::create(&log_path).unwrap();
            let (mut map, _) = DurableMap::open(Box::new(base), Box::new(log)).unwrap();
            map.append_all(&ops[..2]).unwrap();
            map.checkpoint().unwrap();
            map.append(ops[2]).unwrap(); // committed to the log only
        }
        {
            let base = lsdb_pager::FileStorage::open(&base_path, PS).unwrap();
            let log = lsdb_pager::FileLog::open(&log_path).unwrap();
            let (map, report) = DurableMap::open(Box::new(base), Box::new(log)).unwrap();
            assert_eq!(map.ops(), &ops[..]);
            assert_eq!(report.batches, 1, "one post-checkpoint batch replayed");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
