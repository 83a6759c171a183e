//! A minimal hand-rolled `epoll(7)` binding — just the four calls the
//! socket reactor needs, declared `extern "C"` against the platform libc
//! the binary already links. Keeping the shim local (instead of pulling in a
//! bindings crate) keeps the workspace dependency-free and makes the unsafe
//! surface small enough to audit in one screen.
//!
//! Only the level-triggered subset is used: the event loop re-arms interest
//! explicitly per connection state machine, which keeps partial-read /
//! partial-write handling straightforward (no "drain until EAGAIN or lose
//! the edge" discipline required).

use std::io;
use std::os::unix::io::RawFd;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `struct epoll_event`. On x86-64 the kernel ABI packs the struct (the u64
/// data field is 4-byte aligned); other architectures use natural layout.
#[derive(Copy, Clone)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    pub events: u32,
    /// Caller-owned cookie — the event loop stores its connection token here.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// An owned epoll instance; the fd closes on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is the
        // only failure mode.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out. DEL
        // ignores the event argument but a valid pointer is always passed
        // (required on kernels before 2.6.9, harmless after).
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest mask of a registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister an fd (ignoring ENOENT races with close).
    pub fn delete(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Block until events arrive (or `timeout_ms` elapses; -1 = forever).
    /// Fills `events` and returns how many are valid. EINTR retries.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the out-pointer and capacity describe `events` exactly.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is a live epoll fd owned by this struct.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_round_trip() {
        let ep = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing readable yet: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (got_events, got_data) = (events[0].events, events[0].data);
        assert_ne!(got_events & EPOLLIN, 0);
        assert_eq!(got_data, 42);

        // Re-arm for writability: a fresh socketpair is instantly writable.
        ep.modify(b.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (got_events, got_data) = (events[0].events, events[0].data);
        assert_ne!(got_events & EPOLLOUT, 0);
        assert_eq!(got_data, 7);

        ep.delete(b.as_raw_fd());
        a.write_all(b"y").unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
