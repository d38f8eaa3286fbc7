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
//! That is all this crate is: the paper's simulated disk, its buffer
//! pool and the [`BufferBudget`] shared pools draw on. The only thing this
//! repository keeps durable is the op log of live maps, which lives with
//! the ops it stores (`lsdb_core::live`).

mod budget;
mod pool;

pub use budget::BufferBudget;
pub use pool::{BufferPool, CacheStats, DiskStats, PoolCtx, DEFAULT_SHARDS};

/// Page size used throughout the paper's main experiments.
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Buffer pool capacity (in pages) used throughout the paper's main
/// experiments.
pub const DEFAULT_POOL_PAGES: usize = 16;

/// Identifier of a page within one buffer pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u32);

impl PageId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
