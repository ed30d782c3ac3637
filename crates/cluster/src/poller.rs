//! A minimal Linux `epoll` abstraction for the sharded reactor, plus the
//! nonblocking `connect` its peer calls need.
//!
//! The reactor needs exactly four operations — create an interest list,
//! add/modify/remove a file descriptor, and block until something is
//! ready — so rather than pull in an event-loop crate, this module binds
//! the `epoll` syscalls directly against the C library the binary
//! already links. Client connections are **level-triggered**: a readiness
//! bit stays set while the condition holds, which lets the reactor stop
//! reading a connection mid-burst (backpressure, per-connection ordering)
//! and pick it up on the next tick without an edge getting lost. Peer
//! connections are armed **one-shot** ([`Poller::arm_once`]): a task
//! parks on a socket only after a read or write would block, and one
//! event disarms the socket again, so an idle pooled connection never
//! wakes its shard.
//!
//! `std` can only connect a socket blockingly, which would stall every
//! connection on a shard behind one unresponsive peer;
//! [`connect_nonblocking`] issues the `socket`/`connect` pair itself.
//!
//! This is the only module in the crate that contains `unsafe`; every
//! call site is a thin FFI shim with the invariants stated inline.

#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_void};
use std::os::unix::io::{FromRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

// The x86-64 ABI packs `epoll_event` (kernel legacy); other 64-bit
// targets use natural alignment. Matching the kernel's layout is what
// makes the raw pointer casts below sound.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;

/// `struct sockaddr_in`: port and address in network byte order.
#[repr(C)]
struct SockAddrV4 {
    family: u16,
    port: u16,
    addr: [u8; 4],
    zero: [u8; 8],
}

/// `struct sockaddr_in6`: port and flow info in network byte order.
#[repr(C)]
struct SockAddrV6 {
    family: u16,
    port: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What readiness a registered descriptor should report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable.
    pub read: bool,
    /// Wake when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Writable only — a connection draining a backlogged write buffer
    /// while reads are held back.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };

    fn bits(self) -> u32 {
        let mut e = EPOLLRDHUP; // always observe peer half-close
        if self.read {
            e |= EPOLLIN;
        }
        if self.write {
            e |= EPOLLOUT;
        }
        e
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Readable (or a peer half-close, which reads as EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up; the connection should be torn down after one
    /// final read drains whatever the kernel still buffers.
    pub error: bool,
}

/// A level-triggered `epoll` interest list.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a new, empty interest list.
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` error (fd exhaustion, kernel limits).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers involved.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly-laid-out epoll_event for the
        // duration of the call; the kernel copies it before returning.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd`, reporting events under `token`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error (e.g. the fd is already registered).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest.bits())
    }

    /// Changes the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest.bits())
    }

    /// Arms `fd` for a single event: the first readiness (or error)
    /// reported under `token` disarms it until the next call. `first`
    /// adds the descriptor to the interest list; later calls re-arm it.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error.
    pub fn arm_once(
        &self,
        fd: RawFd,
        token: u64,
        interest: Interest,
        first: bool,
    ) -> io::Result<()> {
        let op = if first { EPOLL_CTL_ADD } else { EPOLL_CTL_MOD };
        self.ctl(op, fd, token, interest.bits() | EPOLLONESHOT)
    }

    /// Stops watching `fd`. Safe to call for an fd about to be closed.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` error.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: a non-null event pointer keeps pre-2.6.9 kernels happy;
        // the kernel ignores its contents for EPOLL_CTL_DEL.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout lapses (`None` = forever), filling `out` with the batch.
    /// Returns the number of events delivered; `0` means timeout.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` error. `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms: c_int = match timeout {
            // Round up so a 100µs deadline does not become a busy loop (and
            // a timer never fires early); zero polls without blocking.
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int,
            None => -1,
        };
        let n = loop {
            // SAFETY: `raw` is a valid, writable array of MAX_EVENTS
            // epoll_events; the kernel writes at most MAX_EVENTS entries.
            match cvt(unsafe {
                epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms)
            }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before testing bits.
            let bits = ev.events;
            let data = ev.data;
            out.push(PollEvent {
                token: data,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from epoll_create1 and is closed exactly once.
        unsafe {
            close(self.epfd);
        }
    }
}

/// The write half of a wake pipe: any thread can nudge a poller blocked
/// in [`Poller::wait`].
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Wakes the poller the paired read half is registered with. Lossy by
    /// design: if the pipe is already full the poller is awake anyway.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

impl Clone for Waker {
    fn clone(&self) -> Self {
        Waker {
            tx: self.tx.try_clone().expect("clone waker stream"),
        }
    }
}

/// Builds a waker and the nonblocking read half the reactor registers
/// under its waker token. Drain the read half with [`drain_waker`] on
/// every wake event, or level-triggered polling will spin.
///
/// # Errors
///
/// Socket-pair creation failure.
pub fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Empties a waker's read half so its level-triggered readability clears.
pub fn drain_waker(rx: &UnixStream) {
    let mut sink = [0u8; 64];
    loop {
        match (&*rx).read(&mut sink) {
            Ok(0) => break,    // peer waker dropped; nothing to drain
            Ok(_) => continue, // keep draining queued wakes
            Err(_) => break,   // WouldBlock: drained
        }
    }
}

/// Starts a TCP connect to `addr` without blocking. The returned stream
/// is nonblocking and usually still connecting: wait for it to become
/// writable, then [`TcpStream::take_error`] tells success from failure.
///
/// # Errors
///
/// Socket creation failure, or a connect that failed immediately.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: plain syscall, no pointers involved.
    let fd = cvt(unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `fd` is a freshly created socket owned by nothing else; the
    // stream takes ownership and closes it on every exit path below.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let ret = match addr {
        SocketAddr::V4(a) => {
            let sa = SockAddrV4 {
                family: AF_INET as u16,
                port: a.port().to_be(),
                addr: a.ip().octets(),
                zero: [0; 8],
            };
            // SAFETY: `sa` is a live, correctly-laid-out sockaddr_in and
            // the length passed is its size; the kernel copies it.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrV4).cast(),
                    size_of::<SockAddrV4>() as u32,
                )
            }
        }
        SocketAddr::V6(a) => {
            let sa = SockAddrV6 {
                family: AF_INET6 as u16,
                port: a.port().to_be(),
                flowinfo: a.flowinfo().to_be(),
                addr: a.ip().octets(),
                scope_id: a.scope_id(),
            };
            // SAFETY: as above, for sockaddr_in6.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrV6).cast(),
                    size_of::<SockAddrV6>() as u32,
                )
            }
        }
    };
    match cvt(ret) {
        Ok(_) => Ok(stream),
        Err(e) if e.raw_os_error() == Some(EINPROGRESS) => Ok(stream),
        Err(e) => Err(e),
    }
}

/// Re-exported for registration calls: every pollable type in this crate
/// is an `AsRawFd`.
pub use std::os::unix::io::AsRawFd as PollableFd;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        // Nothing pending yet.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn connected_socket_reports_writable_and_modify_narrows_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_server, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(client.as_raw_fd(), 1, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        // Narrow to read-only: an idle socket now reports nothing.
        poller
            .modify(client.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        // Level-triggered: data queued by the peer keeps firing until read.
        (&_server).write_all(b"ping").unwrap();
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.readable));
        }
        poller.deregister(client.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd must not report");
    }

    #[test]
    fn waker_unblocks_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let (waker, rx) = waker_pair().unwrap();
        poller
            .register(rx.as_raw_fd(), u64::MAX, Interest::READ)
            .unwrap();
        // Keep the original waker alive past the join: dropping the last
        // write half closes the pipe, which reads as a permanent EOF.
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
            remote.wake(); // double-wake coalesces, never errors
        });
        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        // Both wakes are in flight only once the thread is done; drain
        // after that so the second byte cannot race the drain.
        handle.join().unwrap();
        drain_waker(&rx);
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drained waker must go quiet");
    }

    #[test]
    fn nonblocking_connect_completes_or_reports_refusal() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        // A listening peer: the connect completes and the socket turns
        // writable with no pending error.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = connect_nonblocking(listener.local_addr().unwrap()).unwrap();
        poller
            .arm_once(stream.as_raw_fd(), 9, Interest::WRITE, true)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
        assert!(stream.take_error().unwrap().is_none());
        let (_accepted, peer) = listener.accept().unwrap();
        assert_eq!(peer, stream.local_addr().unwrap());
        // One-shot: the fired socket stays quiet until re-armed.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "a one-shot arm fires once");
        poller
            .arm_once(stream.as_raw_fd(), 9, Interest::WRITE, false)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
        // Nobody listening: the socket reports an error, and the refusal
        // surfaces through take_error (or the connect call itself).
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        match connect_nonblocking(dead) {
            Ok(stream) => {
                poller
                    .arm_once(stream.as_raw_fd(), 10, Interest::WRITE, true)
                    .unwrap();
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                assert!(events.iter().any(|e| e.token == 10 && e.error));
                let err = stream.take_error().unwrap().expect("refused");
                assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
        }
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(client.as_raw_fd(), 3, Interest::READ)
            .unwrap();
        drop(server);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("close event");
        assert!(ev.readable, "half-close must surface as readable EOF");
    }
}
