//! Backend-agnostic stream endpoints: Unix domain sockets or TCP
//! loopback, behind one enum so the progress engine never matches on
//! the backend; and the [`Pipe`] through which an endpoint writes a
//! pinned payload by reference ([`Endpoint::write_pinned`]).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::faults::{FaultyLink, FaultyState, WireFaults};
use crate::sys;

/// What a splice pipe asks the kernel for: an unprivileged process may
/// have up to 1 MiB (`/proc/sys/fs/pipe-max-size`'s default), four
/// 256 KiB ranges in flight.
const PIPE_BYTES: usize = 1 << 20;

/// The pipe a socket's pinned payloads pass through on their way in:
/// `vmsplice` puts references to the payload's pages in, `splice` moves
/// them on to the socket, and no byte is copied in user space or into
/// the pipe. It remembers how many bytes of the payload it holds across
/// a socket that refused them. One per socket: a reconnected socket gets
/// a fresh one, so page references meant for a dead socket never reach
/// its successor.
#[derive(Debug)]
pub struct Pipe {
    /// `(read, write)` ends; `None` where the kernel refuses splicing,
    /// and payloads are copied instead.
    ends: Option<(OwnedFd, OwnedFd)>,
    /// Leading bytes of the payload being written already in the pipe.
    held: usize,
}

/// A kernel that has no splice for these fds: copy instead.
fn refused(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(38 | 22)) // ENOSYS, EINVAL
}

impl Pipe {
    /// A pipe sized once to `PIPE_BYTES` (a kernel that grants less
    /// leaves the default size), or a copying stand-in where the kernel
    /// refuses pipes.
    pub fn new() -> io::Result<Pipe> {
        let ends = match sys::pipe2() {
            Ok((rd, wr)) => {
                let _ = sys::set_pipe_size(&wr, PIPE_BYTES);
                Some((rd, wr))
            }
            Err(e) if refused(&e) => None,
            Err(e) => return Err(e),
        };
        Ok(Pipe { ends, held: 0 })
    }

    /// Forget what the pipe holds: those bytes will go another way.
    pub(crate) fn discard(&mut self) -> io::Result<()> {
        if self.held > 0 {
            *self = Pipe::new()?;
        }
        Ok(())
    }

    /// Move up to `limit` leading bytes of `buf` — the unsent rest of a
    /// payload, whose first `held` bytes the pipe already has — into
    /// `sock`: top the pipe up from `buf`, then splice.
    fn splice(&mut self, sock: i32, buf: &[u8], limit: usize) -> io::Result<usize> {
        let Some((rd, wr)) = &self.ends else {
            return Err(io::Error::from_raw_os_error(38));
        };
        if self.held < buf.len() {
            match sys::vmsplice(wr, &buf[self.held..]) {
                Ok(n) => self.held += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        let n = sys::splice(rd, sock, self.held.min(limit))?;
        self.held -= n;
        Ok(n)
    }
}

/// One connected, bidirectional byte stream to a peer rank.
#[derive(Debug)]
pub enum Endpoint {
    /// Unix domain socket (the default backend).
    Uds(UnixStream),
    /// TCP loopback socket.
    Tcp(TcpStream),
    /// A wrapped endpoint injecting seeded wire faults (chaos runs
    /// only). See [`crate::faults`].
    Faulty(Box<FaultyLink>),
}

impl Endpoint {
    /// Wrap this endpoint in a seeded wire-fault injector for `peer`.
    /// Clones made afterwards share one fault ledger, so the read and
    /// write halves of the socket count bytes together. A no-op
    /// (returns `self`) when the plan has no wire faults.
    pub fn with_faults(self, plan: Arc<WireFaults>, peer: u32) -> Endpoint {
        if !plan.any() || matches!(self, Endpoint::Faulty(_)) {
            return self;
        }
        Endpoint::Faulty(Box::new(FaultyLink {
            inner: self,
            plan,
            peer,
            state: Arc::new(FaultyState::default()),
        }))
    }

    /// Clone the underlying socket handle (shared file description), so
    /// the read and write halves of a socket can own the stream
    /// independently.
    pub fn try_clone(&self) -> io::Result<Endpoint> {
        Ok(match self {
            Endpoint::Uds(s) => Endpoint::Uds(s.try_clone()?),
            Endpoint::Tcp(s) => Endpoint::Tcp(s.try_clone()?),
            Endpoint::Faulty(l) => Endpoint::Faulty(Box::new(l.clone_shared()?)),
        })
    }

    /// Shut down both directions; a blocked `read` on any clone returns
    /// immediately. Errors are ignored — the socket may already be gone.
    pub fn shutdown(&self) {
        let _ = match self {
            Endpoint::Uds(s) => s.shutdown(Shutdown::Both),
            Endpoint::Tcp(s) => s.shutdown(Shutdown::Both),
            Endpoint::Faulty(l) => {
                l.inner.shutdown();
                Ok(())
            }
        };
    }

    /// The raw OS file descriptor of a Unix-domain endpoint (`None` for
    /// TCP). Used by the ipc fabric's bootstrap to pass the shared
    /// segment's memfd over the already-established mesh with
    /// `SCM_RIGHTS`.
    pub fn raw_fd(&self) -> Option<i32> {
        match self {
            Endpoint::Uds(s) => Some(std::os::fd::AsRawFd::as_raw_fd(s)),
            Endpoint::Tcp(_) => None,
            Endpoint::Faulty(l) => l.inner.raw_fd(),
        }
    }

    /// Set or clear the read timeout.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Endpoint::Uds(s) => s.set_read_timeout(dur),
            Endpoint::Tcp(s) => s.set_read_timeout(dur),
            Endpoint::Faulty(l) => l.inner.set_read_timeout(dur),
        }
    }

    /// Switch the socket (every clone: the flag lives on the shared
    /// file description) between blocking and nonblocking I/O.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Endpoint::Uds(s) => s.set_nonblocking(nb),
            Endpoint::Tcp(s) => s.set_nonblocking(nb),
            Endpoint::Faulty(l) => l.inner.set_nonblocking(nb),
        }
    }

    /// Disable Nagle on TCP endpoints so small frames (eager pingpong,
    /// CTS handshakes) are not held back waiting for an ACK; a no-op on
    /// UDS, which has no coalescing to disable.
    pub fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Endpoint::Uds(_) => Ok(()),
            Endpoint::Tcp(s) => s.set_nodelay(true),
            Endpoint::Faulty(l) => l.inner.set_nodelay(),
        }
    }

    /// Write the front of `buf`, the unsent rest of a pinned payload, by
    /// reference through `pipe` (see [`Pipe`]); returns how many bytes
    /// reached the socket. The socket reads the caller's pages, not a
    /// copy, until the peer has read them: the caller keeps `buf`
    /// unwritten until the peer acks it. Where the kernel refuses to
    /// splice (`ENOSYS`, `EINVAL`), the bytes are copied with `write`.
    pub fn write_pinned(&mut self, pipe: &mut Pipe, buf: &[u8]) -> io::Result<usize> {
        match self {
            Endpoint::Faulty(l) => l.faulty_write(buf, Some(pipe)),
            _ => self.splice_upto(pipe, buf, buf.len()),
        }
    }

    /// [`Self::write_pinned`] on a plain socket, moving at most `limit`
    /// bytes.
    pub(crate) fn splice_upto(
        &mut self,
        pipe: &mut Pipe,
        buf: &[u8],
        limit: usize,
    ) -> io::Result<usize> {
        match pipe.splice(self.as_raw_fd(), buf, limit) {
            Err(e) if refused(&e) => {
                *pipe = Pipe {
                    ends: None,
                    held: 0,
                };
                self.write(&buf[..limit])
            }
            moved => moved,
        }
    }

    /// Whether TCP_NODELAY is set (`true` for UDS, which never delays).
    pub fn nodelay(&self) -> io::Result<bool> {
        match self {
            Endpoint::Uds(_) => Ok(true),
            Endpoint::Tcp(s) => s.nodelay(),
            Endpoint::Faulty(l) => l.inner.nodelay(),
        }
    }
}

/// The socket's fd, on every backend (readiness registration).
impl std::os::fd::AsRawFd for Endpoint {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        match self {
            Endpoint::Uds(s) => s.as_raw_fd(),
            Endpoint::Tcp(s) => s.as_raw_fd(),
            Endpoint::Faulty(l) => l.inner.as_raw_fd(),
        }
    }
}

impl Read for Endpoint {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Endpoint::Uds(s) => s.read(buf),
            Endpoint::Tcp(s) => s.read(buf),
            Endpoint::Faulty(l) => l.faulty_read(buf),
        }
    }
}

impl Write for Endpoint {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Endpoint::Uds(s) => s.write(buf),
            Endpoint::Tcp(s) => s.write(buf),
            Endpoint::Faulty(l) => l.faulty_write(buf, None),
        }
    }

    // Forward explicitly: the trait's default implementation writes only
    // the first non-empty slice, which would turn a writer's batched
    // frame submission back into one syscall per frame. The faulty
    // wrapper deliberately *keeps* the one-slice default (via `write`)
    // so torn-write faults also exercise the vectored callers' partial
    // handling.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Endpoint::Uds(s) => s.write_vectored(bufs),
            Endpoint::Tcp(s) => s.write_vectored(bufs),
            Endpoint::Faulty(_) => {
                let buf = bufs
                    .iter()
                    .find(|b| !b.is_empty())
                    .map(|b| &b[..])
                    .unwrap_or(&[]);
                self.write(buf)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Endpoint::Uds(s) => s.flush(),
            Endpoint::Tcp(s) => s.flush(),
            Endpoint::Faulty(l) => l.inner.flush(),
        }
    }
}

/// A listening socket accepting connections from peer ranks.
#[derive(Debug)]
pub enum Listener {
    /// Unix domain socket listener.
    Uds(UnixListener),
    /// TCP loopback listener.
    Tcp(TcpListener),
}

impl Listener {
    /// The bound TCP port (TCP backend only).
    pub fn tcp_port(&self) -> Option<u16> {
        match self {
            Listener::Uds(_) => None,
            Listener::Tcp(l) => l.local_addr().ok().map(|a: SocketAddr| a.port()),
        }
    }

    /// Accept one connection, polling until `deadline`. The returned
    /// endpoint is in blocking mode with TCP_NODELAY set.
    pub fn accept_deadline(&self, deadline: Instant) -> io::Result<Endpoint> {
        // The listener is non-blocking (set at bind time): poll with a
        // short sleep so a missing peer turns into a typed error instead
        // of a hang.
        loop {
            let got = match self {
                Listener::Uds(l) => l.accept().map(|(s, _)| Endpoint::Uds(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Endpoint::Tcp(s)),
            };
            match got {
                Ok(ep) => {
                    // Accepted sockets do not reliably inherit the
                    // listener's non-blocking mode; force blocking.
                    ep.set_nonblocking(false)?;
                    ep.set_nodelay()?;
                    return Ok(ep);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "net: timed out waiting for a peer rank to connect",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Retry `connect` until it succeeds or `deadline` passes; retries on
/// the errors a not-yet-listening peer produces.
pub(crate) fn connect_retry(
    mut connect: impl FnMut() -> io::Result<Endpoint>,
    deadline: Instant,
    what: &str,
) -> io::Result<Endpoint> {
    loop {
        match connect() {
            Ok(ep) => return Ok(ep),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::NotFound
                        | io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::AddrNotAvailable
                        | io::ErrorKind::WouldBlock
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("net: timed out connecting to {what}: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodelay_is_set_on_both_tcp_sides() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let port = listener.local_addr().unwrap().port();
        let l = Listener::Tcp(listener);
        let connecting = std::thread::spawn(move || {
            let s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            let ep = Endpoint::Tcp(s);
            ep.set_nodelay().unwrap();
            ep
        });
        let accepted = l
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        let connected = connecting.join().unwrap();
        assert!(accepted.nodelay().unwrap(), "accept side");
        assert!(connected.nodelay().unwrap(), "connect side");
    }

    #[test]
    fn nodelay_is_a_noop_on_uds() {
        let (a, _b) = UnixStream::pair().unwrap();
        let ep = Endpoint::Uds(a);
        ep.set_nodelay().unwrap();
        assert!(ep.nodelay().unwrap());
    }
}
