//! The server's event loops. Every server thread runs one `poll(2)` loop
//! over its own connections and carries each request it reads through
//! decode, execution on its own warm [`QueryCtx`], and the reply write.
//!
//! Loop 0 alone owns the listener. It deals accepted connection k to
//! loop k mod `workers` through that loop's [`Inbox`] — the one
//! cross-thread hand-off, made once per connection. One poll round:
//!
//! 1. read every ready connection and peel its complete frames;
//! 2. answer `PING`, `HELLO`, `SHUTDOWN` and decode errors inline, and
//!    flush those replies;
//! 3. run the round's spatial and admin jobs FIFO, flushing each reply as
//!    soon as its job finishes.
//!
//! So a `PING` pipelined behind a slow `POLYGON` is answered first. The
//! trade-off: a slow query or a lazy map build delays the other
//! connections of its own loop, and connections never move between loops.
//!
//! Drain: once the shutdown flag is up, a loop takes no new connections,
//! closes idle ones, answers further frames with `ShuttingDown`, and
//! exits when its connections have flushed what they are owed.

use crate::conn::Conn;
use crate::executor::{self, Job};
use crate::protocol::{
    decode_request, ErrorCode, Reply, Request, MAX_REQUEST_FRAME, PROTOCOL_VERSION,
};
use crate::server::Shared;
use crate::sys::{poll_fds, PollFd, WakePipe, POLLIN, POLLOUT};
use lsdb_core::QueryCtx;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Cadence of the `--verbose` one-line serving summary.
const VERBOSE_PERIOD: Duration = Duration::from_secs(2);

/// One loop's mailbox: the connections loop 0 dealt it, and the pipe that
/// wakes its `poll`.
pub(crate) struct Inbox {
    /// Only ever pushed to or emptied whole, so a poisoned lock still
    /// guards a valid list and is recovered rather than propagated.
    dealt: Mutex<Vec<TcpStream>>,
    pub wake: WakePipe,
    /// How many connections the loop holds (for the `--verbose` line).
    open: AtomicUsize,
}

impl Inbox {
    pub fn new() -> io::Result<Inbox> {
        Ok(Inbox {
            dealt: Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
            open: AtomicUsize::new(0),
        })
    }
}

/// Run loop `index` until it has drained; loop 0 gets the (nonblocking)
/// listener. A failed `poll` drains every other loop too.
pub(crate) fn run(index: usize, listener: Option<TcpListener>, shared: &Shared) -> io::Result<()> {
    let inbox = &shared.inboxes[index];
    let mut lp = Loop {
        listener,
        conns: HashMap::new(),
        next_id: 0,
        shared,
        draining: false,
        ctx: QueryCtx::new(),
        jobs: Vec::new(),
    };
    // Bound the poll so the loop notices an out-of-band ShutdownHandle
    // flip even with no I/O traffic.
    let poll_ms = shared.config.read_timeout.as_millis().clamp(10, 1_000) as i32;
    let mut last_summary = Instant::now();
    let (mut fds, mut ids) = (Vec::new(), Vec::new());

    loop {
        // Periodic serving telemetry, off unless `--verbose`: one stderr
        // line with budget residency, evictions, and cache activity.
        if index == 0 && shared.config.verbose && last_summary.elapsed() >= VERBOSE_PERIOD {
            last_summary = Instant::now();
            let conns: usize = shared
                .inboxes
                .iter()
                .map(|i| i.open.load(Ordering::Relaxed))
                .sum();
            eprintln!("[serve] conns {conns} · {}", shared.catalog.activity_line());
        }
        if shared.shutdown.load(Ordering::SeqCst) && !lp.draining {
            lp.begin_drain();
        }
        if lp.draining && lp.conns.is_empty() {
            return Ok(());
        }

        // fds[0] = wake pipe, fds[1] = listener (loop 0, while
        // accepting), then one slot per connection (ids carried
        // alongside).
        fds.clear();
        ids.clear();
        fds.push(PollFd::new(inbox.wake.poll_fd(), POLLIN));
        if let Some(l) = &lp.listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let conn_base = fds.len();
        for (&id, conn) in &lp.conns {
            let mut events = 0i16;
            if !conn.read_closed {
                events |= POLLIN;
            }
            if conn.wants_write() {
                events |= POLLOUT;
            }
            ids.push(id);
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }

        if let Err(e) = poll_fds(&mut fds, poll_ms) {
            shared.drain_all();
            return Err(e);
        }
        if fds[0].readable() {
            inbox.wake.drain();
            lp.adopt(inbox);
        }
        if lp.listener.is_some() && fds[1].readable() {
            lp.accept_ready();
        }
        for (slot, &id) in ids.iter().enumerate() {
            let pfd = fds[conn_base + slot];
            if pfd.revents != 0 {
                lp.service(id, pfd.readable());
            }
        }
        lp.run_jobs();
        lp.reap_stalled();
        inbox.open.store(lp.conns.len(), Ordering::Relaxed);
    }
}

struct Loop<'a> {
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    shared: &'a Shared<'a>,
    draining: bool,
    /// The warm context every job of this loop runs on.
    ctx: QueryCtx,
    /// This round's spatial and admin work, in arrival order.
    jobs: Vec<Job>,
}

impl Loop<'_> {
    fn begin_drain(&mut self) {
        self.draining = true;
        self.listener = None; // close: further connects are refused
        self.conns.retain(|_, c| !c.is_idle());
    }

    /// Take over the connections dealt to this loop (a draining loop
    /// closes them instead).
    fn adopt(&mut self, inbox: &Inbox) {
        let dealt =
            std::mem::take(&mut *inbox.dealt.lock().unwrap_or_else(PoisonError::into_inner));
        if !self.draining {
            for stream in dealt {
                self.conns.insert(self.next_id, Conn::new(stream));
                self.next_id += 1;
            }
        }
    }

    /// Accept every pending connection and deal the k-th one accepted to
    /// loop k mod `workers` (loop 0 included, through its own inbox).
    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let k = self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let inboxes = self.shared.inboxes;
                    let inbox = &inboxes[(k % inboxes.len() as u64) as usize];
                    let mut dealt = inbox.dealt.lock().unwrap_or_else(PoisonError::into_inner);
                    dealt.push(stream);
                    inbox.wake.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Listener broke: stop accepting, keep serving.
                Err(_) => self.listener = None,
            }
        }
    }

    /// Read one ready connection (answering its inline frames and queueing
    /// its jobs), then flush. Any transport error drops the connection,
    /// and with it the jobs it queued this round.
    fn service(&mut self, id: u64, readable: bool) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if readable && !conn.read_closed {
            match conn.fill() {
                Ok(eof) => conn.read_closed |= eof,
                Err(_) => {
                    self.conns.remove(&id);
                    return;
                }
            }
            self.parse_frames(id);
        }
        self.settle(id);
    }

    /// Run the round's jobs in arrival order, each reply flushed as soon
    /// as it is ready. Jobs of a connection that died this round are
    /// dropped unrun: nobody is left to answer.
    fn run_jobs(&mut self) {
        let mut jobs = std::mem::take(&mut self.jobs);
        for job in jobs.drain(..) {
            let Some(conn) = self.conns.get_mut(&job.conn) else {
                continue;
            };
            let payload = executor::execute(&job, self.shared, &mut self.ctx);
            conn.inflight -= 1;
            conn.queue(&payload);
            self.settle(job.conn);
        }
        self.jobs = jobs; // keep the capacity for the next round
    }

    /// Flush what `id` owes, then close it if it is done: a transport
    /// error, or nothing owed once it asked to close or reached EOF.
    fn settle(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.flush().is_err() || (conn.is_idle() && (conn.close_after_flush || conn.read_closed))
        {
            self.conns.remove(&id);
        }
    }

    /// Peel and dispatch every complete frame.
    fn parse_frames(&mut self, id: u64) {
        while let Some(conn) = self.conns.get_mut(&id) {
            if conn.close_after_flush {
                // Nothing past a fatal frame (or an acknowledged BYE) is
                // served; leftover buffered bytes are discarded.
                return;
            }
            match conn.rbuf.next_frame(MAX_REQUEST_FRAME) {
                Ok(Some(payload)) => self.dispatch(id, &payload),
                Ok(None) => return,
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
                    return;
                }
            }
        }
    }

    /// Decode one frame and either answer it inline (service ops,
    /// errors, drain refusals) or queue it as one of this round's jobs.
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
                self.shared.drain_all();
                queue_reply(conn, frame.corr, Reply::Bye);
                conn.close_after_flush = true;
            }
            request => {
                conn.inflight += 1;
                self.jobs.push(Job {
                    conn: id,
                    corr: frame.corr,
                    map: frame.map,
                    request,
                });
            }
        }
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
