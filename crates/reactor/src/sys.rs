//! Raw epoll bindings — the only place this crate touches the kernel
//! directly.
//!
//! `std` has no readiness API, and the hermetic `--offline` build rules
//! out tokio/mio/libc, so the three `epoll` entry points are declared
//! here by hand against the C library std already links. Everything else
//! (sockets, non-blocking reads/writes, fd ownership) goes through std:
//! the epoll fd itself lives in an [`OwnedFd`] so it is closed by Drop
//! without a hand-rolled `close`.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
use std::time::Duration;

pub const EPOLL_CLOEXEC: c_int = 0o2000000;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
#[allow(dead_code)]
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

/// The kernel's `struct epoll_event`. On x86-64 the kernel declares it
/// packed (12 bytes, unaligned u64); elsewhere it is naturally aligned.
/// Getting this wrong corrupts every token the kernel hands back, so the
/// layout is pinned by a test below.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness notification, decoded from the raw event mask.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The `data` value registered with the fd (a slab token here).
    pub token: u64,
    /// `EPOLLIN`: bytes (or a pending accept) are readable.
    pub readable: bool,
    /// `EPOLLOUT`: the socket buffer has room again.
    pub writable: bool,
    /// `EPOLLRDHUP`: the peer closed its write side (half-close); queued
    /// replies can still be flushed.
    pub read_closed: bool,
    /// `EPOLLERR | EPOLLHUP`: the connection is gone.
    pub error: bool,
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    /// Create an epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// `epoll_create1` failures (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: epoll_create1 returned a fresh fd we now own.
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Register `fd` for edge-triggered readiness with `token` as its
    /// identity in delivered events.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failures (bad fd, duplicate registration).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) })?;
        Ok(())
    }

    /// Remove `fd` from the interest set. Removal of an already-closed fd
    /// is not an error worth surfacing (the kernel drops registrations
    /// with the last fd reference anyway).
    pub fn del(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        let _ = unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Wait for readiness, filling `out` (cleared first). `None` blocks
    /// forever; `Some(d)` wakes after `d` even if nothing is ready.
    /// EINTR is retried internally.
    ///
    /// # Errors
    ///
    /// `epoll_wait` failures other than EINTR.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms: c_int = match timeout {
            // Round up so a 100 µs deadline does not spin at timeout 0.
            Some(d) => {
                let ms = d
                    .as_millis()
                    .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0));
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            }
            None => -1,
        };
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            match cvt(unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    raw.as_mut_ptr(),
                    MAX_EVENTS as c_int,
                    timeout_ms,
                )
            }) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in raw.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before use.
            let events = ev.events;
            let data = ev.data;
            out.push(Event {
                token: data,
                readable: events & EPOLLIN != 0,
                writable: events & EPOLLOUT != 0,
                read_closed: events & EPOLLRDHUP != 0,
                error: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_layout_matches_the_kernel() {
        // x86-64 packs the struct to 12 bytes; everywhere else it is 16.
        if cfg!(target_arch = "x86_64") {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        } else {
            assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
        }
    }

    #[test]
    fn wait_times_out_on_an_empty_interest_set() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let t0 = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn readiness_carries_the_registered_token() {
        use std::io::Write;
        use std::os::unix::net::UnixStream;
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(b.as_raw_fd(), 0xDEAD_BEEF, EPOLLIN | EPOLLET)
            .unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 0xDEAD_BEEF);
        assert!(events[0].readable);
    }
}
