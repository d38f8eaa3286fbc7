//! Simulated-disk paged storage with an LRU buffer pool.
//!
//! The paper's central measurement is the number of *potential disk
//! accesses*: "operations that are expected to cause reading a page of data
//! that is not currently resident in main memory". Every index in this
//! repository therefore stores its nodes in fixed-size pages behind a
//! [`BufferPool`] with a least-recently-used replacement policy (the paper
//! uses 16 pages of 1 KB each), and the pool counts
//!
//! * a **read** whenever a page is fetched and is not resident, and
//! * a **write** whenever a dirty page is evicted or flushed.
//!
//! The pool owns its pages: each lives once, in memory, and the frames
//! only simulate which pages the buffer holds (see [`BufferPool`]). The
//! pool is lock-striped into shards and exposes a shared (`&self`) query
//! path, [`BufferPool::read_page`], which borrows page bytes and charges
//! a per-query [`PoolCtx`] — the substrate of the concurrent query engine
//! in the index crates.
//!
//! Durability is a separate layer: the [`Storage`] trait abstracts a
//! page-granular disk, in memory ([`MemStorage`]) or in a file
//! ([`FileStorage`]); [`wal`] defines the redo-only log record codec and
//! the append-only [`wal::LogDevice`] sinks, [`recovery`] scans a
//! (possibly torn) log back into committed state, and [`DurableStorage`]
//! composes them over any [`Storage`] to provide atomic group commit,
//! checkpointing, and crash recovery. [`fault`] holds the fault-injection
//! wrappers the crash tests kill stores with.

mod budget;
mod durable;
pub mod fault;
mod pool;
pub mod recovery;
mod storage;
pub mod wal;

pub use budget::BufferBudget;
pub use durable::DurableStorage;
pub use pool::{BufferPool, CacheStats, DiskStats, PoolCtx, DEFAULT_SHARDS};
pub use recovery::{LogTail, RecoveryReport};
pub use storage::{FileStorage, MemStorage, Storage};
pub use wal::{FileLog, LogDevice, Lsn, MemLog};

/// Page size used throughout the paper's main experiments.
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Buffer pool capacity (in pages) used throughout the paper's main
/// experiments.
pub const DEFAULT_POOL_PAGES: usize = 16;

/// Identifier of a page within one storage instance.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u32);

impl PageId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
