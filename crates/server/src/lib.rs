//! `lsdb-server` — a concurrent TCP query service over the shared-read
//! line-segment index engine.
//!
//! The paper's evaluation is batch-shaped: build an index, run the query
//! workloads, read the counters. This crate adds the build-once/serve-many
//! layer a production deployment needs: the index is built once, stays
//! resident, and a fixed set of run-to-completion event loops serves it —
//! each loop thread reads, executes and replies for its own connections,
//! every request running through the `&self` query path on the loop's
//! [`lsdb_core::QueryCtx`], exactly as the in-process parallel driver
//! does. Remote answers and per-query counters are therefore
//! byte-identical to in-process execution; the wire only adds latency,
//! which the bundled load generators (closed- and open-loop) measure.
//!
//! The wire API has one envelope: every request frame carries a
//! correlation id — so one connection can pipeline many requests and
//! receive replies out of order — and the id of the map it is routed
//! to. One process hosts a [`catalog`] of maps behind a routing layer,
//! with `OPEN_MAP` / `LIST_MAPS` / `CLOSE_MAP` admin ops, lazy open and
//! clock eviction of cold stores, and a process-global
//! [`lsdb_pager::BufferBudget`] shared across every map; a single map is
//! a one-slot catalog ([`Catalog::single`]). A `BATCH` op carries a
//! list of query requests in any mix, answered item by item in Morton
//! order to keep per-context caches warm.
//!
//! One function, [`answer`], turns a query [`Request`] into index calls
//! on a reset [`lsdb_core::QueryCtx`], refusing a query point outside
//! the world or a `SECOND` id beyond the map with
//! [`ErrorCode::BadArgument`]. Singletons, batch items
//! ([`answer_in_morton_order`]) and the in-process batched workloads all
//! answer through it.
//!
//! The index is live, not frozen: `INSERT`, `DELETE`, and `FLUSH` route
//! through a [`lsdb_core::LiveIndex`] — each mutation is appended to an
//! op log and synced *before* it is applied or acknowledged, concurrent
//! readers proceed under a shared lock, and `FLUSH` syncs the log and
//! answers its last LSN. A catalog slot over a durable store replays the
//! op log on restart, so acknowledged mutations survive a crash.
//!
//! * [`protocol`] — frame format, envelope and request/reply codec
//!   (never panics on malformed bytes),
//! * [`catalog`] — the map catalog: named slots, lazy builders, clock
//!   eviction, cross-map budget enforcement, per-map counters,
//! * [`server`] — run-to-completion event loops, graceful drain on
//!   `SHUTDOWN`; [`Server::bind_catalog`] is the one entry point,
//! * [`client`] — blocking one-connection client with map routing,
//!   batching, and pipelining,
//! * [`loadgen`] — closed- and open-loop throughput/latency drivers.

pub mod catalog;
pub mod client;
mod conn;
mod event_loop;
mod executor;
pub mod loadgen;
pub mod protocol;
pub mod reply_cache;
pub mod server;
mod sys;

pub use catalog::{Catalog, CatalogError, MapBuilder, MapSlot};
pub use client::{CatalogStats, Client, ServerError};
pub use executor::{answer, answer_in_morton_order};
pub use loadgen::{
    run_closed_loop, run_closed_loop_routed, run_open_loop, run_open_loop_routed, LoadReport,
};
pub use protocol::{
    decode_reply, decode_request, BudgetWire, CacheWire, DecodeFailure, ErrorCode, FrameError,
    FrameEvent, MapInfo, MapStatsWire, ProtoError, Reply, ReplyCacheWire, Request, RequestFrame,
    MAX_BATCH_ITEMS, MAX_REPLY_FRAME, MAX_REQUEST_FRAME, PROTOCOL_VERSION,
};
pub use reply_cache::{ReplyCache, ReplyCachePool};
pub use server::{ConfigError, Server, ServerConfig, ServerReport, ShutdownHandle};
