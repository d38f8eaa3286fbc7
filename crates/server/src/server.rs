//! The serving backbone: `workers` run-to-completion event loops, one
//! thread each, the calling thread being loop 0. Loop 0 accepts and deals
//! connections round-robin; each loop reads, executes and replies for
//! its own connections on its own warm [`lsdb_core::QueryCtx`], so a
//! request never leaves the thread that read it (and a slow query delays
//! only the other connections of its loop). Per-query counters fold into
//! both the queried map's [`lsdb_core::SharedStats`] and the catalog-wide
//! aggregate (what the `STATS` op reports), exactly as the in-process
//! parallel driver folds them — totals are independent of connection
//! count, pipelining depth, or batch shape. Shutdown is graceful: a
//! `SHUTDOWN` request (or [`ShutdownHandle::shutdown`]) stops the
//! acceptor, owed replies flush, and every loop exits.

use crate::catalog::Catalog;
use crate::event_loop::{self, Inbox};
use lsdb_core::QueryStats;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`Server`]: a struct literal over
/// [`ServerConfig::default`], checked by [`Server::bind_catalog`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Event loops, one thread each (the thread calling [`Server::run`]
    /// is the first). Each loop serves the connections dealt to it and
    /// runs one query or batch at a time.
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
        listener.set_nonblocking(true)?;
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
    /// the calling thread (which becomes event loop 0); spawn it on a
    /// thread if the caller must keep running. If a loop fails, every
    /// loop drains and the first failure (in loop order) is returned.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            catalog,
            config,
            shutdown,
        } = self;
        let connections = AtomicU64::new(0);
        let inboxes = (0..config.workers)
            .map(|_| Inbox::new())
            .collect::<io::Result<Vec<_>>>()?;
        let shared = Shared {
            catalog: &catalog,
            shutdown: &shutdown,
            config: &config,
            inboxes: &inboxes,
            connections: &connections,
        };

        std::thread::scope(|scope| {
            let shared = &shared;
            let loops: Vec<_> = (1..config.workers)
                .map(|k| scope.spawn(move || event_loop::run(k, None, shared)))
                .collect();
            let first = event_loop::run(0, Some(listener), shared);
            let rest = loops
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
            rest.fold(first, io::Result::and)
        })?;

        Ok(ServerReport {
            queries: catalog.aggregate().queries(),
            totals: catalog.aggregate().snapshot(),
            connections: connections.load(Ordering::Relaxed),
        })
    }
}

/// Everything the event loops share, borrowed for the scope of
/// [`Server::run`].
pub(crate) struct Shared<'a> {
    pub catalog: &'a Catalog,
    pub shutdown: &'a AtomicBool,
    pub config: &'a ServerConfig,
    /// One per loop, indexed by loop number.
    pub inboxes: &'a [Inbox],
    /// Connections accepted so far (the deal counter).
    pub connections: &'a AtomicU64,
}

impl Shared<'_> {
    /// Flip the shutdown flag and wake every loop so each starts
    /// draining now (a [`ShutdownHandle`] flip is only seen at the next
    /// poll timeout).
    pub fn drain_all(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for inbox in self.inboxes {
            inbox.wake.wake();
        }
    }
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
