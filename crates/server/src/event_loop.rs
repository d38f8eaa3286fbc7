//! The readiness-driven I/O loop: one thread multiplexes the listener,
//! the worker wake pipe, and every client connection through `poll(2)`.
//!
//! The loop never executes a spatial query itself. It accepts, reads,
//! peels frames, answers service ops inline, and forwards spatial work
//! to the executor pool over a channel; completed replies come back over
//! a second channel (the workers nudge the self-pipe so a blocked `poll`
//! returns immediately). Because frame decode and byte shuffling are
//! cheap next to query execution, one I/O thread keeps thousands of
//! pipelined connections busy against a handful of executor workers.
//!
//! # Drain protocol
//!
//! `SHUTDOWN` (wire) or [`crate::ShutdownHandle`] flips the shared flag.
//! The loop then drops the listener (new connects are refused by the
//! OS), closes idle connections outright, answers any *further* frames
//! with `ShuttingDown`, and exits once every connection has flushed its
//! owed replies and closed. Dropping the job sender on exit is what
//! terminates the executor workers.

use crate::conn::Conn;
use crate::executor::{Completion, Job, Work};
use crate::protocol::{
    decode_request, ErrorCode, Reply, Request, MAX_REQUEST_FRAME, PROTOCOL_VERSION,
};
use crate::server::Shared;
use crate::sys::{poll_fds, PollFd, WakePipe, POLLIN, POLLOUT};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

/// Cadence of the `--verbose` one-line serving summary.
const VERBOSE_PERIOD: Duration = Duration::from_secs(2);

pub(crate) fn run(
    listener: TcpListener,
    shared: &Shared,
    job_tx: Sender<Job>,
    done_rx: Receiver<Completion>,
    wake: &WakePipe,
    connections: &AtomicU64,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut lp = Loop {
        listener: Some(listener),
        conns: HashMap::new(),
        next_id: 0,
        shared,
        job_tx,
        draining: false,
    };
    // Bound the poll so the loop notices an out-of-band ShutdownHandle
    // flip even with no I/O traffic; read_timeout doubles as that
    // cadence exactly as it did for the blocking server's workers.
    let poll_ms = shared.config.read_timeout.as_millis().clamp(10, 1_000) as i32;
    let mut last_summary = Instant::now();

    loop {
        // Periodic serving telemetry, off unless `--verbose`: one stderr
        // line with budget residency, evictions, and cache activity.
        if shared.config.verbose && last_summary.elapsed() >= VERBOSE_PERIOD {
            last_summary = Instant::now();
            eprintln!(
                "[serve] conns {} · {}",
                lp.conns.len(),
                shared.catalog.activity_line()
            );
        }
        // Route completed work before sleeping: replies queued here also
        // register write interest for this round's poll.
        for done in done_rx.try_iter() {
            lp.complete(done);
        }
        if shared.shutdown.load(Ordering::SeqCst) && !lp.draining {
            lp.begin_drain();
        }
        if lp.draining && lp.conns.is_empty() {
            return Ok(());
        }

        // fds[0] = wake pipe, fds[1] = listener (while accepting), then
        // one slot per connection (ids carried alongside).
        let mut fds = Vec::with_capacity(2 + lp.conns.len());
        fds.push(PollFd::new(wake.poll_fd(), POLLIN));
        if let Some(l) = &lp.listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let conn_base = fds.len();
        let mut ids = Vec::with_capacity(lp.conns.len());
        for (&id, conn) in &lp.conns {
            let mut events = 0i16;
            if !conn.read_closed {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            ids.push(id);
            fds.push(PollFd::new(conn.raw_fd(), events));
        }

        poll_fds(&mut fds, poll_ms)?;

        if fds[0].readable() {
            wake.drain();
        }
        if lp.listener.is_some() && fds[conn_base - 1].readable() {
            lp.accept_ready(connections);
        }
        for (slot, &id) in ids.iter().enumerate() {
            let pfd = fds[conn_base + slot];
            if pfd.revents == 0 {
                continue;
            }
            lp.service(id, pfd.readable(), pfd.writable());
        }
        lp.reap_stalled();
    }
}

struct Loop<'a> {
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    shared: &'a Shared<'a>,
    job_tx: Sender<Job>,
    draining: bool,
}

impl Conn {
    fn raw_fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }
}

impl Loop<'_> {
    fn begin_drain(&mut self) {
        self.draining = true;
        self.listener = None; // close: further connects are refused
        self.conns.retain(|_, c| !c.is_idle());
    }

    fn accept_ready(&mut self, connections: &AtomicU64) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    connections.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(id, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Listener broke: stop accepting, keep serving.
                    self.listener = None;
                    return;
                }
            }
        }
    }

    /// Handle one connection's readiness. Any transport error drops the
    /// connection (and orphans its in-flight completions, which
    /// [`Loop::complete`] discards).
    fn service(&mut self, id: u64, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if readable && !conn.read_closed {
            match conn.fill() {
                Ok(eof) => {
                    if eof {
                        conn.read_closed = true;
                    }
                }
                Err(_) => {
                    self.conns.remove(&id);
                    return;
                }
            }
            if self.parse_frames(id).is_err() {
                self.conns.remove(&id);
                return;
            }
        }
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if (writable || conn.wants_write()) && conn.flush().is_err() {
            self.conns.remove(&id);
            return;
        }
        let conn = &self.conns[&id];
        let done_writing = !conn.wants_write();
        let close = (conn.close_after_flush && done_writing && conn.inflight == 0)
            || (conn.read_closed && conn.is_idle());
        if close {
            self.conns.remove(&id);
        }
    }

    /// Peel and dispatch every complete frame. `Err(())` means the
    /// connection is already gone.
    fn parse_frames(&mut self, id: u64) -> Result<(), ()> {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return Err(());
            };
            if conn.close_after_flush {
                // Nothing past a fatal frame (or an acknowledged BYE) is
                // served; leftover buffered bytes are discarded.
                return Ok(());
            }
            match conn.rbuf.next_frame(MAX_REQUEST_FRAME) {
                Ok(Some(payload)) => self.dispatch(id, &payload),
                Ok(None) => return Ok(()),
                Err(n) => {
                    // Unrecoverable framing: answer, stop reading, hang
                    // up once the error (and any owed replies already
                    // queued ahead of it) has flushed.
                    let reply = Reply::Error {
                        code: ErrorCode::Oversized,
                        message: format!(
                            "frame of {n} bytes exceeds the {MAX_REQUEST_FRAME}-byte request limit"
                        ),
                    };
                    let corr = conn.rbuf.refused_corr().unwrap_or(0);
                    queue_reply(conn, corr, reply);
                    conn.read_closed = true;
                    conn.close_after_flush = true;
                    // Best-effort discard of whatever the peer already
                    // sent: closing with unread bytes would raise a TCP
                    // reset that destroys the error frame in flight.
                    let mut scratch = [0u8; 4096];
                    let mut budget = 1 << 20;
                    while budget > 0 {
                        match io::Read::read(&mut conn.stream, &mut scratch) {
                            Ok(n) if n > 0 => budget -= n.min(budget),
                            _ => break,
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Decode one frame and either answer it inline (service ops,
    /// errors, drain refusals) or enqueue it for the executor.
    fn dispatch(&mut self, id: u64, payload: &[u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let frame = match decode_request(payload) {
            Ok(frame) => frame,
            Err(fail) => {
                let reply = Reply::Error {
                    code: fail.error.code(),
                    message: fail.error.to_string(),
                };
                // Without a readable header there is no id to echo.
                queue_reply(conn, fail.corr.unwrap_or(0), reply);
                return;
            }
        };
        if self.draining {
            queue_reply(
                conn,
                frame.corr,
                Reply::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining".into(),
                },
            );
            conn.close_after_flush = true;
            return;
        }
        match frame.request {
            Request::Ping => queue_reply(conn, frame.corr, Reply::Pong),
            Request::Hello { version } => {
                let reply = if version >= PROTOCOL_VERSION {
                    Reply::Hello {
                        version: PROTOCOL_VERSION,
                    }
                } else {
                    Reply::Error {
                        code: ErrorCode::UnsupportedVersion,
                        message: format!(
                            "client speaks up to v{version}; only v{PROTOCOL_VERSION} is served"
                        ),
                    }
                };
                queue_reply(conn, frame.corr, reply);
            }
            Request::Shutdown => {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                queue_reply(conn, frame.corr, Reply::Bye);
                conn.close_after_flush = true;
                // The next loop iteration observes the flag and drains.
            }
            req => {
                let work = match req {
                    Request::Batch(b) => Work::Batch(b),
                    Request::OpenMap { .. }
                    | Request::ListMaps
                    | Request::CloseMap { .. }
                    | Request::Stats => Work::Admin(req),
                    other => Work::Single(other),
                };
                conn.inflight += 1;
                if self
                    .job_tx
                    .send(Job {
                        conn: id,
                        corr: frame.corr,
                        map: frame.map,
                        work,
                    })
                    .is_err()
                {
                    // Executor gone (only during teardown): refuse.
                    conn.inflight -= 1;
                    let reply = Reply::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".into(),
                    };
                    queue_reply(conn, frame.corr, reply);
                }
            }
        }
    }

    /// Route one executor completion back onto its connection (dropped
    /// silently if the connection died while the query ran).
    fn complete(&mut self, done: Completion) {
        let Some(conn) = self.conns.get_mut(&done.conn) else {
            return;
        };
        conn.inflight -= 1;
        conn.queue(&done.payload);
    }

    /// Drop connections whose peer has not accepted a byte of a pending
    /// reply for longer than `write_timeout`.
    fn reap_stalled(&mut self) {
        let timeout = self.shared.config.write_timeout;
        self.conns
            .retain(|_, c| !c.wants_write() || c.last_write_progress.elapsed() < timeout);
    }
}

/// Queue `reply` on `conn`, echoing the correlation id of the request
/// that provoked it.
fn queue_reply(conn: &mut Conn, corr: u32, reply: Reply) {
    conn.queue(&reply.encode_v3(corr));
}
