//! Full-mesh connection establishment between the rank processes of one
//! universe.
//!
//! Every rank binds a listener named after the universe (`u<seq>.r<rank>`
//! in the shared rendezvous directory; TCP publishes a `.port` file
//! written temp-then-rename so readers never see a partial write). For
//! each pair the lower rank connects to the higher rank's listener and
//! sends a [`Frame::Hello`] carrying its rank and the universe sequence
//! number; the acceptor uses the hello to identify the peer and to
//! reject cross-universe connections. A pair is joined by exactly one
//! socket, which carries all of its traffic. Connects never wait on
//! accepts (the OS listen backlog decouples them), so establishment
//! cannot deadlock; every blocking step carries a deadline so a missing
//! peer becomes a typed error, not a hang.

use std::io::{self, Write};
use std::net::TcpListener;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::endpoint::{connect_retry, Endpoint, Listener};
use crate::frame::Frame;

/// How long establishment waits for peers before giving up.
pub const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// Which socket family carries the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Unix domain sockets (default).
    Uds,
    /// TCP over 127.0.0.1.
    Tcp,
}

impl Backend {
    /// Parse the `PCOMM_NET_BACKEND` value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "uds" | "unix" => Some(Backend::Uds),
            "tcp" => Some(Backend::Tcp),
            _ => None,
        }
    }

    /// Canonical name (`uds` / `tcp`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Uds => "uds",
            Backend::Tcp => "tcp",
        }
    }
}

/// Everything needed to wire one rank into a universe's mesh.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// This process's rank.
    pub rank: usize,
    /// Total ranks in the universe.
    pub n_ranks: usize,
    /// Shared rendezvous directory all ranks can reach.
    pub dir: PathBuf,
    /// Socket backend.
    pub backend: Backend,
    /// Per-process multiproc universe sequence number; all ranks run the
    /// same program (SPMD), so their counters agree.
    pub seq: u64,
}

/// The established mesh: one stream per peer; `None` at `rank`.
#[derive(Debug)]
pub struct Mesh {
    /// This process's rank.
    pub rank: usize,
    /// Total ranks.
    pub n_ranks: usize,
    /// `peers[r]` is the stream to rank `r`; `None` for self.
    pub peers: Vec<Option<Endpoint>>,
}

fn sock_path(dir: &Path, seq: u64, rank: usize) -> PathBuf {
    dir.join(format!("u{seq}.r{rank}"))
}

/// Rendezvous name for a *reconnect* between one pair. The original
/// per-rank listeners and their artifacts are gone by the time a socket
/// dies (removed at the end of [`establish`]), so recovery uses
/// a fresh pair-scoped name that cannot collide with them.
fn reconnect_path(dir: &Path, seq: u64, lo: usize, hi: usize) -> PathBuf {
    dir.join(format!("u{seq}.r{lo}p{hi}.rc"))
}

/// Where the TCP backend publishes the port of the listener whose
/// rendezvous name is `path`.
fn port_file(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".port");
    name.into()
}

/// Listen at the rendezvous name `path`: the socket itself for UDS, a
/// loopback port published in [`port_file`] for TCP.
fn bind(backend: Backend, path: &Path) -> io::Result<Listener> {
    match backend {
        Backend::Uds => {
            // A stale socket from a crashed earlier run with the same
            // name would make bind fail; the name is per-universe, so
            // removing it is safe.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Ok(Listener::Uds(l))
        }
        Backend::Tcp => {
            let l = TcpListener::bind("127.0.0.1:0")?;
            l.set_nonblocking(true)?;
            let port = l.local_addr()?.port();
            // Publish the port temp-then-rename so a reader never sees
            // a partially written file.
            let pfile = port_file(path);
            let tmp = pfile.with_extension("port.tmp");
            std::fs::write(&tmp, port.to_string())?;
            std::fs::rename(&tmp, &pfile)?;
            Ok(Listener::Tcp(l))
        }
    }
}

/// Remove what [`bind`] left at `path` once everyone has connected.
fn unbind(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(port_file(path));
}

/// Connect to the listener at the rendezvous name `path` (`what` names
/// it in the timeout error). The listening side may take a moment to
/// bind, so not-yet-there errors are retried until `deadline`.
fn connect_to(
    backend: Backend,
    path: &Path,
    deadline: Instant,
    what: &str,
) -> io::Result<Endpoint> {
    let ep = match backend {
        Backend::Uds => connect_retry(
            || UnixStream::connect(path).map(Endpoint::Uds),
            deadline,
            what,
        )?,
        Backend::Tcp => {
            let pfile = port_file(path);
            connect_retry(
                || {
                    let port: u16 = std::fs::read_to_string(&pfile)?
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::NotFound, "bad port file"))?;
                    let s = std::net::TcpStream::connect(("127.0.0.1", port))?;
                    Ok(Endpoint::Tcp(s))
                },
                deadline,
                what,
            )?
        }
    };
    ep.set_nodelay()?;
    Ok(ep)
}

/// A handshake the other side got wrong.
fn invalid(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Read the opening hello from an accepted connection, bounded by
/// `deadline`, and check that it names universe `cfg.seq`. Returns the
/// peer's rank and how many of our frames it has read.
fn read_hello(ep: &mut Endpoint, cfg: &MeshConfig, deadline: Instant) -> io::Result<(usize, u64)> {
    let left = deadline
        .checked_duration_since(Instant::now())
        .unwrap_or(Duration::from_millis(1));
    ep.set_read_timeout(Some(left))?;
    let frame = Frame::read_from(ep)?;
    ep.set_read_timeout(None)?;
    match frame {
        Frame::Hello {
            rank,
            received,
            seq,
        } if seq == cfg.seq => Ok((rank as usize, received)),
        Frame::Hello { rank, seq, .. } => Err(invalid(format!(
            "net: hello from rank {rank} names universe {seq}, this process \
             expects universe {} — the rank processes have diverged (non-SPMD main?)",
            cfg.seq
        ))),
        other => Err(invalid(format!(
            "net: expected Hello, got {}",
            other.name()
        ))),
    }
}

/// Write our hello (rank, receive count, universe) on a fresh connection.
fn write_hello(ep: &mut Endpoint, cfg: &MeshConfig, received: u64) -> io::Result<()> {
    Frame::Hello {
        rank: cfg.rank as u16,
        received,
        seq: cfg.seq,
    }
    .write_to(ep)?;
    ep.flush()
}

/// Establish the full mesh for this rank. Returns once a stream to
/// every peer exists; all streams are blocking.
pub fn establish(cfg: &MeshConfig) -> io::Result<Mesh> {
    assert!(cfg.rank < cfg.n_ranks, "rank out of range");
    let deadline = Instant::now() + ESTABLISH_TIMEOUT;
    let own_path = sock_path(&cfg.dir, cfg.seq, cfg.rank);
    let listener = bind(cfg.backend, &own_path)?;
    let mut peers: Vec<Option<Endpoint>> = (0..cfg.n_ranks).map(|_| None).collect();

    // Outbound first: connect() only needs the peer's listener to be
    // bound (the backlog queues us), never its accept loop — so doing
    // all connects before any accept cannot deadlock.
    for (peer, slot) in peers.iter_mut().enumerate().skip(cfg.rank + 1) {
        let path = sock_path(&cfg.dir, cfg.seq, peer);
        let what = format!("rank {peer} (universe {})", cfg.seq);
        let mut ep = connect_to(cfg.backend, &path, deadline, &what)?;
        write_hello(&mut ep, cfg, 0)?;
        *slot = Some(ep);
    }

    // Then accept one connection per lower rank; the hello tells us
    // whose it is (accept order is arbitrary).
    for _ in 0..cfg.rank {
        let mut ep = listener.accept_deadline(deadline)?;
        let (peer, _) = read_hello(&mut ep, cfg, deadline)?;
        if peer >= cfg.rank || peers[peer].is_some() {
            return Err(invalid(format!(
                "net: unexpected or duplicate connection from rank {peer} \
                 (expected one from each rank below {})",
                cfg.rank
            )));
        }
        peers[peer] = Some(ep);
    }

    // Everyone who needed our listener has connected; drop the
    // rendezvous artifacts.
    unbind(&own_path);

    Ok(Mesh {
        rank: cfg.rank,
        n_ranks: cfg.n_ranks,
        peers,
    })
}

/// Re-establish the stream between this rank and `peer` after the
/// original connection died. Role assignment is deterministic: the
/// lower rank of the pair listens on a fresh pair-scoped rendezvous
/// name, the higher rank connects (both sides call this one function).
/// Hellos are exchanged in *both* directions so each side proves who it
/// is and that it still belongs to universe `cfg.seq`, and says how many
/// of the other's frames it has read whole (`received`; the peer's count
/// comes back with the endpoint). Every blocking step is bounded by
/// `deadline`, so a peer that died for real turns into a typed error,
/// never a hang.
pub fn reconnect_pair(
    cfg: &MeshConfig,
    peer: usize,
    received: u64,
    deadline: Instant,
) -> io::Result<(Endpoint, u64)> {
    assert!(peer != cfg.rank && peer < cfg.n_ranks, "peer out of range");
    let (lo, hi) = (cfg.rank.min(peer), cfg.rank.max(peer));
    let path = reconnect_path(&cfg.dir, cfg.seq, lo, hi);
    let expect = |ep: &mut Endpoint| match read_hello(ep, cfg, deadline)? {
        (rank, has) if rank == peer => Ok(has),
        (rank, _) => Err(invalid(format!(
            "net: reconnect hello from rank {rank}, expected rank {peer}"
        ))),
    };
    if cfg.rank == lo {
        // Listener role. Bind a fresh pair-scoped listener, wait for
        // the peer, validate, answer with our own hello.
        let listener = bind(cfg.backend, &path)?;
        let result = (|| {
            let mut ep = listener.accept_deadline(deadline)?;
            let has = expect(&mut ep)?;
            write_hello(&mut ep, cfg, received)?;
            Ok((ep, has))
        })();
        unbind(&path);
        result
    } else {
        let what = format!("rank {peer} (reconnect, universe {})", cfg.seq);
        let mut ep = connect_to(cfg.backend, &path, deadline, &what)?;
        write_hello(&mut ep, cfg, received)?;
        let has = expect(&mut ep)?;
        Ok((ep, has))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn mesh_roundtrip(backend: Backend) {
        let dir = crate::launch::unique_rendezvous_dir().unwrap();
        let n = 3;
        let mut handles = Vec::new();
        for rank in 0..n {
            let cfg = MeshConfig {
                rank,
                n_ranks: n,
                dir: dir.clone(),
                backend,
                seq: 0,
            };
            handles.push(std::thread::spawn(move || {
                let mut mesh = establish(&cfg).unwrap();
                assert!(mesh.peers[rank].is_none());
                // Everyone sends its rank to every peer, then reads the
                // identifying byte back from each.
                for peer in (0..n).filter(|&p| p != rank) {
                    let ep = mesh.peers[peer].as_mut().unwrap();
                    ep.write_all(&[rank as u8]).unwrap();
                    ep.flush().unwrap();
                }
                for peer in (0..n).filter(|&p| p != rank) {
                    let mut b = [0u8; 1];
                    mesh.peers[peer]
                        .as_mut()
                        .unwrap()
                        .read_exact(&mut b)
                        .unwrap();
                    assert_eq!(b[0] as usize, peer, "the byte identifies the peer stream");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uds_mesh_connects_all_pairs() {
        mesh_roundtrip(Backend::Uds);
    }

    #[test]
    fn tcp_mesh_connects_all_pairs() {
        mesh_roundtrip(Backend::Tcp);
    }

    fn reconnect_roundtrip(backend: Backend) {
        let dir = crate::launch::unique_rendezvous_dir().unwrap();
        let mut handles = Vec::new();
        for rank in 0..2 {
            let cfg = MeshConfig {
                rank,
                n_ranks: 2,
                dir: dir.clone(),
                backend,
                seq: 3,
            };
            handles.push(std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(5);
                // Each side names how many frames it holds; each learns
                // the other's count.
                let (mut ep, has) =
                    reconnect_pair(&cfg, 1 - rank, 10 + rank as u64, deadline).unwrap();
                assert_eq!(has, 11 - rank as u64);
                ep.write_all(&[rank as u8]).unwrap();
                let mut b = [0u8; 1];
                ep.read_exact(&mut b).unwrap();
                assert_eq!(b[0] as usize, 1 - rank);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uds_reconnect_pair_rejoins_and_validates() {
        reconnect_roundtrip(Backend::Uds);
    }

    #[test]
    fn tcp_reconnect_pair_rejoins_and_validates() {
        reconnect_roundtrip(Backend::Tcp);
    }

    #[test]
    fn backend_parsing() {
        assert_eq!(Backend::parse("uds"), Some(Backend::Uds));
        assert_eq!(Backend::parse("unix"), Some(Backend::Uds));
        assert_eq!(Backend::parse("TCP"), Some(Backend::Tcp));
        assert_eq!(Backend::parse(""), Some(Backend::Uds));
        assert_eq!(Backend::parse("infiniband"), None);
    }
}
