//! The serving backbone: one readiness-driven I/O thread multiplexing
//! every connection, plus a fixed executor pool running the queries.
//!
//! [`Server::run`] spawns `workers` executor threads (each owning a warm
//! [`lsdb_core::QueryCtx`]) and then runs the event loop on
//! the calling thread. The loop accepts, frames, and decodes; spatial
//! work crosses to the executors over a channel and encoded replies come
//! back over another, so a single I/O thread supports thousands of
//! pipelined connections. Per-query counters fold into both the queried
//! map's [`lsdb_core::SharedStats`] and the catalog-wide aggregate (what
//! the `STATS` op reports), exactly as the in-process parallel driver
//! folds them — totals are independent of connection count, pipelining
//! depth, or batch shape. Shutdown is
//! graceful: a `SHUTDOWN` request (or [`ShutdownHandle::shutdown`]) stops
//! the acceptor, owed replies flush, and every thread exits.

use crate::catalog::Catalog;
use crate::event_loop;
use crate::executor::{self, Completion, Job};
use crate::sys::WakePipe;
use lsdb_core::QueryStats;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning knobs for [`Server`]: a struct literal over
/// [`ServerConfig::default`], checked by [`Server::bind_catalog`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Executor worker threads (the I/O thread is extra and fixed at
    /// one). Each worker runs one query or batch at a time.
    pub workers: usize,
    /// Poll cadence for noticing an out-of-band shutdown on an otherwise
    /// idle server. Keep it small when fast drain matters.
    pub read_timeout: Duration,
    /// How long a peer may refuse to accept a byte of a pending reply
    /// before its connection is dropped (a stalled reader cannot wedge
    /// the server).
    pub write_timeout: Duration,
    /// Emit a periodic one-line serving summary on stderr (budget
    /// residency, page evictions, reply-cache hits/misses). Off by
    /// default; `serve --verbose` turns it on.
    pub verbose: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(10),
            verbose: false,
        }
    }
}

impl ServerConfig {
    /// The invariants [`Server::bind_catalog`] enforces.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError("workers must be at least 1"));
        }
        if self.read_timeout.is_zero() {
            return Err(ConfigError("read_timeout must be nonzero"));
        }
        if self.write_timeout.is_zero() {
            return Err(ConfigError("write_timeout must be nonzero"));
        }
        Ok(())
    }
}

/// A rejected [`ServerConfig`] invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for io::Error {
    fn from(e: ConfigError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, e)
    }
}

/// What a finished server reports: the same aggregates `STATS` serves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Spatial queries answered (service ops excluded; each batch item
    /// counts as one query).
    pub queries: u64,
    /// Summed per-query counters — a plain sum of [`lsdb_core::QueryCtx`]
    /// snapshots, so identical to what a sequential in-process run would
    /// total.
    pub totals: QueryStats,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// Flips the server's drain flag from outside the wire protocol (e.g. an
/// embedding process that wants to stop serving without a client).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_shutting_down(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A bound-but-not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    catalog: Catalog,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) serving a whole
    /// [`Catalog`] of maps; requests route by the envelope's map id. A
    /// single map is [`Catalog::single`]. Rejects an invalid `config`
    /// with `InvalidInput`.
    pub fn bind_catalog(
        addr: impl ToSocketAddrs,
        catalog: Catalog,
        config: ServerConfig,
    ) -> io::Result<Server> {
        config.validate()?;
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            catalog,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can trigger a drain from outside the protocol.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Serve until shutdown, then return the lifetime aggregates. Blocks
    /// the calling thread (which becomes the I/O thread); spawn it on a
    /// thread if the caller must keep running.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            catalog,
            config,
            shutdown,
        } = self;
        let connections = AtomicU64::new(0);
        let wake = WakePipe::new()?;
        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Completion>();
        let job_rx = Mutex::new(job_rx);

        let shared = Shared {
            catalog: &catalog,
            shutdown: &shutdown,
            config: &config,
        };

        let result = std::thread::scope(|scope| {
            for _ in 0..config.workers {
                let job_rx = &job_rx;
                let shared = &shared;
                let done_tx = done_tx.clone();
                let wake = &wake;
                scope.spawn(move || executor::worker_loop(job_rx, shared, &done_tx, wake));
            }
            drop(done_tx); // workers hold the only senders now
                           // The event loop runs here; dropping `job_tx` when it exits
                           // disconnects the channel and terminates the workers.
            event_loop::run(listener, &shared, job_tx, done_rx, &wake, &connections)
        });
        result?;

        Ok(ServerReport {
            queries: catalog.aggregate().queries(),
            totals: catalog.aggregate().snapshot(),
            connections: connections.load(Ordering::Relaxed),
        })
    }
}

/// Everything the event loop and executors share, borrowed for the scope
/// of [`Server::run`].
pub(crate) struct Shared<'a> {
    pub catalog: &'a Catalog,
    pub shutdown: &'a AtomicBool,
    pub config: &'a ServerConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_zero_workers_and_timeouts() {
        let base = ServerConfig {
            workers: 2,
            read_timeout: Duration::from_millis(50),
            ..Default::default()
        };
        base.validate().unwrap();
        for bad in [
            ServerConfig {
                workers: 0,
                ..base.clone()
            },
            ServerConfig {
                read_timeout: Duration::ZERO,
                ..base.clone()
            },
            ServerConfig {
                write_timeout: Duration::ZERO,
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
            let bound = Server::bind_catalog("127.0.0.1:0", Catalog::new(0, 1), bad);
            assert_eq!(
                bound.err().map(|e| e.kind()),
                Some(io::ErrorKind::InvalidInput)
            );
        }
    }

    #[test]
    fn config_error_converts_to_invalid_input() {
        let e: io::Error = ConfigError("nope").into();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn default_config_is_valid() {
        ServerConfig::default().validate().unwrap();
    }
}
