//! Level-triggered epoll reactor.
//!
//! A thin safe wrapper over the [`crate::sys`] bindings: one epoll
//! instance per shard, with a built-in eventfd **waker** so other
//! threads (the acceptor, the shutdown path) can interrupt a blocked
//! [`Reactor::wait`]. Tokens are opaque `u64`s chosen by the caller;
//! token [`WAKER_TOKEN`] is reserved for the waker and never reported
//! back as a socket event.
//!
//! The reactor is deliberately level-triggered: shard event loops
//! re-arm nothing and simply read/write until `WouldBlock`, which
//! keeps the state machine trivial at the cost of a few spurious
//! wakeups — the right trade for a request/response workload.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::Arc;

use crate::sys::{
    sys_close, sys_epoll_create, sys_epoll_ctl, sys_epoll_wait, sys_eventfd, sys_eventfd_drain,
    sys_eventfd_write, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};

/// Token reserved for the reactor's internal eventfd waker.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// Interest set for a registered socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the socket is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the socket is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state for an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read+write interest — used while response bytes are queued.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Write-only interest — a connection that reads no more but still
    /// has bytes to send. Leaves out the peer hangup too, which would
    /// otherwise report on every wait.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Reactor::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Caller-chosen token from registration.
    pub token: u64,
    /// Socket has bytes to read (or a pending hangup to observe).
    pub readable: bool,
    /// Socket can accept more outgoing bytes.
    pub writable: bool,
    /// Error or hangup condition; the connection should be torn down
    /// after a final drain.
    pub hangup: bool,
}

/// Cross-thread handle that interrupts a blocked [`Reactor::wait`].
///
/// Cloneable and cheap; safe to invoke from any thread.
#[derive(Clone, Debug)]
pub struct Waker {
    inner: Arc<WakerFd>,
}

#[derive(Debug)]
struct WakerFd {
    fd: i32,
}

impl Drop for WakerFd {
    fn drop(&mut self) {
        sys_close(self.fd);
    }
}

impl Waker {
    /// Interrupt the reactor's current (or next) `wait` call.
    pub fn wake(&self) -> io::Result<()> {
        sys_eventfd_write(self.inner.fd)
    }
}

/// Level-triggered epoll instance with an integrated waker.
#[derive(Debug)]
pub struct Reactor {
    epfd: i32,
    waker: Waker,
}

impl Reactor {
    /// Create a reactor and register its waker eventfd.
    pub fn new() -> io::Result<Reactor> {
        let epfd = sys_epoll_create()?;
        let efd = match sys_eventfd() {
            Ok(fd) => fd,
            Err(e) => {
                sys_close(epfd);
                return Err(e);
            }
        };
        if let Err(e) = sys_epoll_ctl(epfd, EPOLL_CTL_ADD, efd, EPOLLIN, WAKER_TOKEN) {
            sys_close(efd);
            sys_close(epfd);
            return Err(e);
        }
        Ok(Reactor {
            epfd,
            waker: Waker {
                inner: Arc::new(WakerFd { fd: efd }),
            },
        })
    }

    /// Handle other threads use to interrupt [`Reactor::wait`].
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Register a stream under `token` with the given interest.
    pub fn register(&self, stream: &TcpStream, token: u64, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(token, WAKER_TOKEN, "token collides with the waker");
        sys_epoll_ctl(
            self.epfd,
            EPOLL_CTL_ADD,
            stream.as_raw_fd(),
            interest.mask(),
            token,
        )
    }

    /// Change the interest set of an already-registered stream.
    pub fn reregister(&self, stream: &TcpStream, token: u64, interest: Interest) -> io::Result<()> {
        sys_epoll_ctl(
            self.epfd,
            EPOLL_CTL_MOD,
            stream.as_raw_fd(),
            interest.mask(),
            token,
        )
    }

    /// Remove a stream from the interest set. Errors are swallowed:
    /// the kernel auto-deregisters on close, so a racing close is not
    /// a fault worth surfacing.
    pub fn deregister(&self, stream: &TcpStream) {
        let _ = sys_epoll_ctl(self.epfd, EPOLL_CTL_DEL, stream.as_raw_fd(), 0, 0);
    }

    /// Block up to `timeout_ms` for readiness events, appending them
    /// to `out` (which is cleared first). Waker wakeups are drained
    /// internally and reported via the `bool` return (`true` when the
    /// waker fired). A negative timeout blocks indefinitely.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<bool> {
        out.clear();
        let mut raw = [EpollEvent::zeroed(); 256];
        let n = match sys_epoll_wait(self.epfd, &mut raw, timeout_ms) {
            Ok(n) => n,
            // A signal interrupting the wait is a spurious wakeup, not
            // an error: report "no events" and let the loop re-poll.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        let mut woken = false;
        for ev in raw.iter().take(n) {
            // Copy out of the (potentially packed) struct before use.
            let events = ev.events;
            let token = ev.data;
            if token == WAKER_TOKEN {
                sys_eventfd_drain(self.waker.inner.fd);
                woken = true;
                continue;
            }
            out.push(Event {
                token,
                readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(woken)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        sys_close(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;

    #[test]
    fn waker_interrupts_wait() {
        let reactor = Reactor::new().expect("reactor");
        let waker = reactor.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            waker.wake().expect("wake");
        });
        let mut events = Vec::new();
        let woken = reactor.wait(&mut events, 5_000).expect("wait");
        assert!(woken);
        assert!(events.is_empty());
        handle.join().expect("join");
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let reactor = Reactor::new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        reactor
            .register(&server, 42, Interest::READ)
            .expect("register");

        client.write_all(b"ping").expect("write");
        let mut events = Vec::new();
        // Level-triggered: the event persists until the bytes are read.
        for _ in 0..2 {
            reactor.wait(&mut events, 5_000).expect("wait");
            if !events.is_empty() {
                break;
            }
        }
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        let mut server = server;
        let n = server.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");
        reactor.deregister(&server);
    }

    #[test]
    fn interest_mod_controls_writable_events() {
        let reactor = Reactor::new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        // Read-only interest: an idle writable socket stays silent.
        reactor
            .register(&server, 9, Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        reactor.wait(&mut events, 50).expect("wait");
        assert!(events.iter().all(|e| !e.writable));

        // Read+write interest: writability is now reported.
        reactor
            .reregister(&server, 9, Interest::READ_WRITE)
            .expect("reregister");
        reactor.wait(&mut events, 5_000).expect("wait");
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
        reactor.deregister(&server);
    }
}
