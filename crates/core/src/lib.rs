//! Core model of a large line-segment database.
//!
//! This crate ties the substrates together into the objects the paper
//! reasons about:
//!
//! * a [`PolygonalMap`] — the in-memory collection of line segments
//!   (vertices + edges, connected or not) that a county map is,
//! * a disk-resident [`SegmentTable`] — the paged table of segment
//!   endpoints that every index points into (the paper's *segment table*;
//!   each access is a *segment comparison* in its metrics),
//! * the [`SpatialIndex`] trait — the interface all three spatial indexes
//!   (R\*-tree, R+-tree, PMR quadtree) implement,
//! * the five paper queries: Q1/Q3/Q5 live on the trait
//!   (`find_incident`, `nearest`, `window`); Q2 and Q4 are
//!   structure-independent compositions implemented in [`queries`],
//! * the shared query engines ([`traverse`]) — depth-first and best-first
//!   traversal loops every index plugs its expansion policy into via
//!   [`traverse::NodeAccess`], so all structures run the *same* query
//!   algorithm and differ only in node decomposition,
//! * the hot-path scan kernels ([`scan`]) — zero-copy views over node
//!   pages and batched, auto-vectorizable rectangle predicates that every
//!   structure's node decoding goes through,
//! * query-workload generators ([`pointgen`]) covering the paper's
//!   1-stage (uniform) and 2-stage (block-then-uniform) random points,
//! * brute-force reference implementations ([`brute`]) used by every
//!   index's correctness tests,
//! * live mutation ([`live`]): the durable op log of inserts and deletes
//!   (its whole on-disk format, header, records and recovery scan) and the
//!   concurrently readable [`LiveIndex`] over it.
//!
//! Query requests, single or batched, are a wire concern: `lsdb-server`
//! holds them and the one function that turns a request into calls on
//! this crate's queries.

pub mod brute;
mod index;
pub mod live;
mod map;
pub mod pointgen;
pub mod queries;
pub mod rectnode;
pub mod scan;
mod seg_table;
mod stats;
pub mod traverse;

pub use index::{IndexConfig, LocId, SpatialIndex};
pub use live::{DurableMap, FileLog, LiveIndex, LogDevice, Lsn, MapOp, MemLog, RecoveryReport};
pub use map::{PlanarityViolation, PolygonalMap};
pub use seg_table::{SegId, SegmentTable};
pub use stats::{QueryCtx, QueryStats, SharedStats};

// Re-exported so query implementations (and wire-protocol codecs) can name
// the pool-level context and counters without depending on lsdb-pager
// directly.
pub use lsdb_pager::{DiskStats, PoolCtx};
