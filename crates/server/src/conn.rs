//! Per-connection state for the event loop: an incremental frame parser
//! plus buffered reply delivery.
//!
//! A [`Conn`] owns both directions of one client socket. Inbound bytes
//! accumulate in a [`FrameBuf`] until whole frames can be peeled off;
//! outbound frames accumulate in a write buffer flushed whenever `poll`
//! reports the socket writable. Replies carry their request's
//! correlation id and are queued the moment they complete — out-of-order
//! completion is the point of pipelining.

use crate::protocol::V3_MARKER;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Incremental length-prefixed frame parser. Bytes go in via
/// [`FrameBuf::extend`]; complete payloads come out of
/// [`FrameBuf::next_frame`]. Consumed bytes are compacted lazily so
/// steady-state parsing does no per-frame reallocation.
#[derive(Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is dead.
        if self.start > 0 && (self.start >= 4096 || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed byte count (parsing backlog).
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Peel off the next complete frame payload, if one is fully
    /// buffered. `Err(len)` means the peer declared an impossible length
    /// (zero, or beyond `max_len`) — the stream can never be
    /// resynchronized past it.
    pub fn next_frame(&mut self, max_len: u32) -> Result<Option<Vec<u8>>, u32> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len == 0 || len > max_len {
            return Err(len);
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[4..total].to_vec();
        self.start += total;
        Ok(Some(payload))
    }

    /// The correlation id of the frame [`FrameBuf::next_frame`] refused,
    /// if its declared length is nonzero and its envelope header is
    /// already buffered — so the refusal can still be matched.
    pub fn refused_corr(&self) -> Option<u32> {
        let avail = &self.buf[self.start..];
        match avail.get(..9)? {
            [l0, l1, l2, l3, V3_MARKER, c0, c1, c2, c3] if [*l0, *l1, *l2, *l3] != [0; 4] => {
                Some(u32::from_le_bytes([*c0, *c1, *c2, *c3]))
            }
            _ => None,
        }
    }
}

/// One client connection owned by the event loop.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub rbuf: FrameBuf,
    /// Framed bytes awaiting the socket; `wstart` marks the flushed
    /// prefix (compacted lazily, like `FrameBuf`).
    wbuf: Vec<u8>,
    wstart: usize,
    /// Requests queued as jobs this round and not yet answered.
    pub inflight: usize,
    /// Peer sent EOF (or an unrecoverable frame): stop reading.
    pub read_closed: bool,
    /// Close the socket once the write buffer drains.
    pub close_after_flush: bool,
    /// Last moment the socket accepted bytes while we had bytes to send
    /// (stall detection against `write_timeout`).
    pub last_write_progress: Instant,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: FrameBuf::new(),
            wbuf: Vec::new(),
            wstart: 0,
            inflight: 0,
            read_closed: false,
            close_after_flush: false,
            last_write_progress: Instant::now(),
        }
    }

    /// Queue an enveloped reply for the socket (completion order).
    pub fn queue(&mut self, payload: &[u8]) {
        if self.wbuf.is_empty() {
            self.last_write_progress = Instant::now();
        }
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    pub fn wants_write(&self) -> bool {
        self.wstart < self.wbuf.len()
    }

    /// Every owed reply is flushed and nothing is executing.
    pub fn is_idle(&self) -> bool {
        self.inflight == 0 && !self.wants_write()
    }

    /// Pull whatever the socket has into the parse buffer. Returns
    /// `Ok(true)` if the peer reached EOF.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => self.rbuf.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Push buffered frames to the socket until it would block. Returns
    /// `true` if any bytes moved (stall-timer reset).
    pub fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while self.wstart < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wstart..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.wstart += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wstart == self.wbuf.len() {
            self.wbuf.clear();
            self.wstart = 0;
        } else if self.wstart >= 64 * 1024 {
            self.wbuf.drain(..self.wstart);
            self.wstart = 0;
        }
        if progressed {
            self.last_write_progress = Instant::now();
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_buf_reassembles_split_frames() {
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        for payload in [&b"abc"[..], &b"defgh"[..], &b"i"[..]] {
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(payload);
        }
        // Dribble the bytes in one at a time; frames pop out whole.
        let mut out = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(p) = fb.next_frame(64).unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out, vec![b"abc".to_vec(), b"defgh".to_vec(), b"i".to_vec()]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buf_rejects_zero_and_oversized_lengths() {
        let mut fb = FrameBuf::new();
        fb.extend(&0u32.to_le_bytes());
        assert_eq!(fb.next_frame(64), Err(0));

        let mut fb = FrameBuf::new();
        fb.extend(&65u32.to_le_bytes());
        assert_eq!(fb.next_frame(64), Err(65));
    }

    #[test]
    fn refused_frames_keep_a_buffered_correlation_id() {
        let mut fb = FrameBuf::new();
        fb.extend(&65u32.to_le_bytes());
        fb.extend(&[V3_MARKER, 0x78, 0x56, 0x34]);
        assert_eq!(fb.refused_corr(), None, "header not fully buffered");
        fb.extend(&[0x12, 0, 0]);
        assert_eq!(fb.next_frame(64), Err(65));
        assert_eq!(fb.refused_corr(), Some(0x1234_5678));

        // A zero-length frame has no header: what follows is the next
        // frame's length prefix.
        let mut fb = FrameBuf::new();
        fb.extend(&0u32.to_le_bytes());
        fb.extend(&[V3_MARKER, 1, 0, 0, 0]);
        assert_eq!(fb.refused_corr(), None);
        // An unknown marker is not an envelope.
        let mut fb = FrameBuf::new();
        fb.extend(&65u32.to_le_bytes());
        fb.extend(&[0xB2, 1, 0, 0, 0]);
        assert_eq!(fb.refused_corr(), None);
    }

    #[test]
    fn frame_buf_compacts_consumed_prefix() {
        let mut fb = FrameBuf::new();
        for _ in 0..2000 {
            let payload = [7u8; 8];
            fb.extend(&(payload.len() as u32).to_le_bytes());
            fb.extend(&payload);
            assert!(fb.next_frame(64).unwrap().is_some());
        }
        // Lazy compaction keeps the dead prefix bounded.
        assert!(fb.buf.len() < 8 * 1024, "buffer grew to {}", fb.buf.len());
    }
}
