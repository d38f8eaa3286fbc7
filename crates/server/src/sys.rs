//! Minimal readiness-notification shim over raw syscalls.
//!
//! The event loop needs exactly three primitives — `poll(2)`, `pipe(2)`
//! and `fcntl(2)` — and the workspace carries no external dependencies,
//! so they are declared here directly against the C library `std`
//! already links. Everything else (reads, writes, close-on-drop) goes
//! through [`std::fs::File`] over the raw descriptors.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};

/// Readiness bits for [`PollFd::events`] / [`PollFd::revents`]
/// (values from `<poll.h>` on Linux).
pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

/// One entry of a `poll(2)` set — layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

impl PollFd {
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Any readable-class readiness, including error/hangup (which must
    /// be serviced by a read so the loop observes the failure).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
}

/// Block until a descriptor in `fds` is ready or `timeout_ms` elapses.
/// Returns the number of ready descriptors (0 on timeout). `EINTR` is
/// reported as `Ok(0)` — the caller's loop re-polls anyway.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed slice of
    // `#[repr(C)]` pollfd-compatible structs for the whole call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(e)
    }
}

fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on a descriptor we own; no pointers involved.
    unsafe {
        let flags = fcntl(fd, F_GETFL);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Self-pipe waker: [`WakePipe::wake`] makes the owning event loop's
/// `poll` return immediately (a connection was dealt to it, or the
/// server is draining).
/// Both ends are nonblocking — a full pipe means a wake is already
/// pending, which is all the signal carries.
pub struct WakePipe {
    read: File,
    write: File,
}

impl WakePipe {
    pub fn new() -> io::Result<WakePipe> {
        let mut fds: [c_int; 2] = [-1, -1];
        // SAFETY: `fds` is a valid 2-element int array for pipe(2) to
        // fill; on success both descriptors are fresh and owned here.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: ownership of each fresh descriptor moves into exactly
        // one File, which closes it on drop.
        let (read, write) = unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) };
        set_nonblocking(read.as_raw_fd())?;
        set_nonblocking(write.as_raw_fd())?;
        Ok(WakePipe { read, write })
    }

    /// The descriptor the event loop polls for readability.
    pub fn poll_fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Nudge the poller. Failure (full pipe, dead reader) is ignored:
    /// either a wake is already pending or nobody is listening.
    pub fn wake(&self) {
        let _ = (&self.write).write(&[1]);
    }

    /// Consume pending wake bytes so the next poll blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.read).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_makes_pipe_readable_and_drain_clears_it() {
        let wp = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(wp.poll_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "fresh pipe is quiet");

        wp.wake();
        wp.wake(); // coalesces, never blocks
        let mut fds = [PollFd::new(wp.poll_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].readable());

        wp.drain();
        let mut fds = [PollFd::new(wp.poll_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "drained pipe is quiet");
    }

    #[test]
    fn poll_times_out_on_quiet_fd() {
        let wp = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(wp.poll_fd(), POLLIN)];
        let t0 = std::time::Instant::now();
        assert_eq!(poll_fds(&mut fds, 20).unwrap(), 0);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
    }
}
