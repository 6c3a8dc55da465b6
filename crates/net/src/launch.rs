//! The environment contract between a launcher and the rank processes,
//! mirroring how `mpirun` tells each process who it is.
//!
//! A launcher — the `pcomm-launch` binary ([`launch_ranks`]), or a
//! test harness on [`spawn_ranks`]/[`wait_ranks`] — starts N copies of
//! the same program with:
//!
//! * `PCOMM_NET_RANK` — this process's rank, `0..n`;
//! * `PCOMM_NET_RANKS` — the total rank count N;
//! * `PCOMM_NET_DIR` — a shared rendezvous directory;
//! * `PCOMM_NET_BACKEND` — `uds` (default) or `tcp`;
//! * `PCOMM_NET_FABRIC` — `socket` (default) or `ipc`.
//!
//! A `Universe::run` whose rank count matches `PCOMM_NET_RANKS` then
//! joins the mesh as rank `PCOMM_NET_RANK` instead of spawning threads.
//! The runtime only reads this environment: it never starts a rank
//! process or writes a variable itself.
//! Nothing else about the wire is configured: the ipc segment geometry
//! is the `DEFAULT_IPC_*` constants below, and the heartbeat is the
//! runtime's own constant.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::mesh::Backend;

/// Env var: this process's rank.
pub const ENV_RANK: &str = "PCOMM_NET_RANK";
/// Env var: total rank count.
pub const ENV_RANKS: &str = "PCOMM_NET_RANKS";
/// Env var: shared rendezvous directory.
pub const ENV_DIR: &str = "PCOMM_NET_DIR";
/// Env var: socket backend (`uds` / `tcp`).
pub const ENV_BACKEND: &str = "PCOMM_NET_BACKEND";
/// Env var: inter-process fabric — `socket` (default: the UDS/TCP
/// stream transport) or `ipc` (same-host process-shared memory rings;
/// requires the `uds` backend and a platform [`crate::sys::supported`]
/// reports usable, otherwise falls back to sockets with a note).
pub const ENV_FABRIC: &str = "PCOMM_NET_FABRIC";

/// The ipc segment's descriptor-ring capacity, slots per directed
/// channel. Every rank of a run uses the same geometry; the segment
/// header checks it again at attach.
pub const DEFAULT_IPC_SLOTS: u32 = 128;
/// The ipc FIFO slab per directed channel, bytes: frames too large for
/// a ring slot.
pub const DEFAULT_IPC_SLAB: u64 = 1 << 20;
/// The ipc partition arena per directed channel, bytes: where the
/// buffers of partitioned streams live on both sides, so one copy moves
/// each range.
pub const DEFAULT_IPC_ARENA: u64 = 32 << 20;

/// Which inter-process fabric carries the rank mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricKind {
    /// The UDS/TCP stream transport: one nonblocking socket per peer
    /// and one `epoll` progress thread.
    Socket,
    /// Same-host process-shared memory rings with futex doorbells.
    Ipc,
}

/// The `PCOMM_NET_FABRIC` selection. Unknown values degrade to
/// [`FabricKind::Socket`] with a note, same policy as the other knobs.
pub fn fabric_from_env() -> FabricKind {
    match std::env::var(ENV_FABRIC) {
        Ok(s) => match s.trim() {
            "ipc" => FabricKind::Ipc,
            "" | "socket" => FabricKind::Socket,
            other => {
                eprintln!("pcomm-net: ignoring unknown {ENV_FABRIC}={other:?}, using socket");
                FabricKind::Socket
            }
        },
        Err(_) => FabricKind::Socket,
    }
}

/// The decoded multiprocess environment of a rank process.
#[derive(Debug, Clone)]
pub struct MultiprocEnv {
    /// This process's rank.
    pub rank: usize,
    /// Total ranks.
    pub n_ranks: usize,
    /// Shared rendezvous directory.
    pub dir: PathBuf,
    /// Socket backend.
    pub backend: Backend,
}

impl MultiprocEnv {
    /// Decode the `PCOMM_NET_*` environment. `None` when the process
    /// was not launched as a rank (any required variable missing).
    /// Malformed values are reported on stderr and treated as absent,
    /// so a typo degrades to an in-process run instead of a crash.
    pub fn from_env() -> Option<MultiprocEnv> {
        let rank = std::env::var(ENV_RANK).ok()?;
        let ranks = std::env::var(ENV_RANKS).ok()?;
        let dir = std::env::var(ENV_DIR).ok()?;
        let backend = std::env::var(ENV_BACKEND).unwrap_or_default();
        let parsed = (|| {
            let rank: usize = rank.parse().ok()?;
            let n_ranks: usize = ranks.parse().ok()?;
            let backend = Backend::parse(&backend)?;
            if n_ranks == 0 || rank >= n_ranks {
                return None;
            }
            Some(MultiprocEnv {
                rank,
                n_ranks,
                dir: PathBuf::from(dir),
                backend,
            })
        })();
        if parsed.is_none() {
            eprintln!(
                "pcomm-net: ignoring malformed PCOMM_NET_* environment \
                 (rank={rank:?}, ranks={ranks:?}, backend={backend:?})"
            );
        }
        parsed
    }

    /// The environment of a new `n_ranks` mesh: a fresh rendezvous
    /// directory (see [`unique_rendezvous_dir`]), which the caller removes
    /// when the ranks are done.
    pub fn in_fresh_dir(n_ranks: usize, backend: Backend) -> io::Result<MultiprocEnv> {
        Ok(MultiprocEnv {
            rank: 0,
            n_ranks,
            dir: unique_rendezvous_dir()?,
            backend,
        })
    }

    /// Set the rank environment on a child command, overriding `rank`.
    pub fn apply_to(&self, cmd: &mut Command, rank: usize) {
        cmd.env(ENV_RANK, rank.to_string())
            .env(ENV_RANKS, self.n_ranks.to_string())
            .env(ENV_DIR, &self.dir)
            .env(ENV_BACKEND, self.backend.name());
    }
}

/// Create a fresh, unique rendezvous directory under the system temp
/// dir.
pub fn unique_rendezvous_dir() -> io::Result<PathBuf> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    // ORDERING: nonce allocator — uniqueness within the process is all
    // the directory name needs.
    let nonce = COUNTER.fetch_add(1, Ordering::Relaxed);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "pcomm-net-{}-{}-{}",
        std::process::id(),
        nonce,
        stamp
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The CPUs rank processes can be pinned to with `taskset`: this
/// process's `Cpus_allowed_list`, or none when that cannot be read or
/// `taskset` is missing (callers then run their ranks unpinned).
pub fn pin_cpus() -> Vec<usize> {
    let have_taskset = Command::new("taskset")
        .arg("-V")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .filter(|_| have_taskset)
        .unwrap_or("");
    let mut cpus = Vec::new();
    for range in list.trim().split(',').filter(|r| !r.is_empty()) {
        let mut ends = range.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(lo)), Some(Ok(hi))) => cpus.extend(lo..=hi),
            (Some(Ok(one)), None) => cpus.push(one),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// `exe`, run under `taskset -c <cpu>` when a CPU is given — one rank
/// per core is the standard `--bind-to core` deployment, and what makes
/// two runs of a latency-bound measurement comparable.
pub fn pinned_command(exe: &Path, cpu: Option<usize>) -> Command {
    match cpu {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.arg("-c").arg(cpu.to_string()).arg(exe);
            cmd
        }
        None => Command::new(exe),
    }
}

/// Where a spawned rank's stdout and stderr go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankOutput {
    /// The launcher's own (what `mpirun` does).
    Inherit,
    /// `rank-<r>.stdout` / `.stderr` in the rendezvous directory, read back
    /// with [`rank_output`] when a rank fails. (Not a pipe read after exit:
    /// a child that fills the pipe blocks, and looks like a hang.)
    Files,
}

/// Spawn one process per rank in `ranks`: `command(rank)` is the program
/// line plus whatever environment the caller adds (see
/// [`pinned_command`]); the rank environment of `env` goes on top. The
/// rendezvous directory is created if missing. When a spawn fails, the
/// ranks already started are killed and reaped before the error returns.
pub fn spawn_ranks(
    env: &MultiprocEnv,
    ranks: std::ops::Range<usize>,
    output: RankOutput,
    mut command: impl FnMut(usize) -> Command,
) -> io::Result<Vec<Child>> {
    std::fs::create_dir_all(&env.dir)?;
    let mut spawn = |rank| {
        let mut cmd = command(rank);
        env.apply_to(&mut cmd, rank);
        if output == RankOutput::Files {
            let file = |ext| std::fs::File::create(env.dir.join(format!("rank-{rank}.{ext}")));
            cmd.stdout(file("stdout")?).stderr(file("stderr")?);
        }
        cmd.spawn()
    };
    let mut children = Vec::with_capacity(ranks.len());
    for rank in ranks {
        match spawn(rank) {
            Ok(child) => children.push(child),
            Err(e) => {
                kill_ranks(&mut children);
                return Err(e);
            }
        }
    }
    Ok(children)
}

/// What rank `rank` wrote under [`RankOutput::Files`], labelled, for a
/// failure message.
pub fn rank_output(dir: &Path, rank: usize) -> String {
    let read = |ext| std::fs::read_to_string(dir.join(format!("rank-{rank}.{ext}")));
    format!(
        "--- rank {rank} stdout ---\n{}\n--- rank {rank} stderr ---\n{}",
        read("stdout").unwrap_or_default(),
        read("stderr").unwrap_or_default()
    )
}

fn kill_ranks(children: &mut [Child]) {
    for child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Whether `child` has exited, left unreaped where the kernel can say
/// so without reaping (elsewhere reaped, as `try_wait` does).
fn exited(child: &mut Child) -> io::Result<bool> {
    match crate::sys::child_exited(child.id() as i32) {
        Err(e) if e.raw_os_error() == Some(38) => child.try_wait().map(|s| s.is_some()), // ENOSYS
        known => known,
    }
}

/// Wait for every rank and return the exit statuses, in spawn order. A
/// rank that exits stays unreaped, a zombie holding its pid, until
/// every rank has exited: a rank still running may aim a cross-memory
/// call at that pid, which must not name another process by then. A
/// rank still running at the deadline fails the whole launch: every
/// child is killed and reaped (none outlives the caller) and the error
/// is `TimedOut`, naming the rank's place in `children`.
pub fn wait_ranks(
    mut children: Vec<Child>,
    deadline: Option<Instant>,
) -> io::Result<Vec<ExitStatus>> {
    loop {
        let mut running = None;
        for (i, child) in children.iter_mut().enumerate() {
            if !exited(child)? {
                running = Some(i);
                break;
            }
        }
        let Some(i) = running else {
            return children.iter_mut().map(Child::wait).collect();
        };
        if deadline.is_some_and(|d| Instant::now() >= d) {
            kill_ranks(&mut children);
            let what = format!("child {i} of {} outlived the deadline", children.len());
            return Err(io::Error::new(io::ErrorKind::TimedOut, what));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawn `n_ranks` copies of `argv` (program + args) with the rank
/// environment set, wait for all of them, and return the first
/// non-zero exit code (0 when every rank succeeded).
///
/// Ranks that die without an exit code (killed by a signal) count as
/// exit code 101. The rendezvous `dir` is created if missing; the
/// caller owns its lifetime.
pub fn launch_ranks(
    argv: &[String],
    n_ranks: usize,
    backend: Backend,
    dir: &Path,
) -> io::Result<i32> {
    assert!(!argv.is_empty(), "launch_ranks needs a program to run");
    assert!(n_ranks >= 1, "launch_ranks needs at least one rank");
    let env = MultiprocEnv {
        rank: 0,
        n_ranks,
        dir: dir.to_path_buf(),
        backend,
    };
    let children = spawn_ranks(&env, 0..n_ranks, RankOutput::Inherit, |_| {
        let mut cmd = Command::new(&argv[0]);
        cmd.args(&argv[1..]);
        cmd
    })?;
    let codes = wait_ranks(children, None)?
        .into_iter()
        .map(|status| status.code().unwrap_or(101));
    let first_bad = codes.enumerate().find(|&(_, code)| code != 0);
    if let Some((rank, code)) = first_bad {
        eprintln!("pcomm-launch: rank {rank} exited with code {code}");
    }
    Ok(first_bad.map_or(0, |(_, code)| code))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_to_sets_all_vars() {
        let env = MultiprocEnv {
            rank: 0,
            n_ranks: 4,
            dir: PathBuf::from("/tmp/x"),
            backend: Backend::Tcp,
        };
        let mut cmd = Command::new("true");
        env.apply_to(&mut cmd, 2);
        let vars: Vec<(String, String)> = cmd
            .get_envs()
            .filter_map(|(k, v)| {
                Some((
                    k.to_string_lossy().into_owned(),
                    v?.to_string_lossy().into_owned(),
                ))
            })
            .collect();
        assert!(vars.contains(&(ENV_RANK.into(), "2".into())));
        assert!(vars.contains(&(ENV_RANKS.into(), "4".into())));
        assert!(vars.contains(&(ENV_DIR.into(), "/tmp/x".into())));
        assert!(vars.contains(&(ENV_BACKEND.into(), "tcp".into())));
    }

    #[test]
    fn unique_dirs_do_not_collide() {
        let a = unique_rendezvous_dir().unwrap();
        let b = unique_rendezvous_dir().unwrap();
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn a_rank_past_the_deadline_takes_every_rank_down() {
        let env = MultiprocEnv::in_fresh_dir(2, Backend::Uds).unwrap();
        // Rank 0 exits at once, rank 1 would sleep for a minute.
        let children = spawn_ranks(&env, 0..2, RankOutput::Files, |rank| {
            let mut cmd = Command::new("sh");
            cmd.arg("-c")
                .arg(format!("echo up-$PCOMM_NET_RANK; exec sleep {}", rank * 60));
            cmd
        })
        .unwrap();
        let pids: Vec<u32> = children.iter().map(Child::id).collect();
        let t0 = Instant::now();
        let err = wait_ranks(children, Some(t0 + Duration::from_millis(300))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("child 1 of 2"), "{err}");
        // Killed (not awaited for its minute) and reaped: no such process,
        // or zombie, is left.
        for pid in pids.into_iter().filter(|_| cfg!(target_os = "linux")) {
            let proc_dir = format!("/proc/{pid}");
            assert!(!Path::new(&proc_dir).exists(), "pid {pid} survives");
        }
        let said = rank_output(&env.dir, 1);
        assert!(said.contains("up-1"), "{said}");
        let _ = std::fs::remove_dir_all(&env.dir);
    }

    /// A rank that exits first stays a zombie while its sibling runs:
    /// its pid is not free for another process to take.
    #[test]
    fn an_exited_rank_keeps_its_pid_while_a_sibling_runs() {
        if !crate::sys::supported() {
            return;
        }
        let env = MultiprocEnv::in_fresh_dir(2, Backend::Uds).unwrap();
        let children = spawn_ranks(&env, 0..2, RankOutput::Files, |rank| {
            let mut cmd = Command::new("sleep");
            cmd.arg(["0", "0.6"][rank]);
            cmd
        })
        .unwrap();
        let short = children[0].id();
        let waiter = std::thread::spawn(move || wait_ranks(children, None));
        std::thread::sleep(Duration::from_millis(300));
        // `pid (comm) state ...`
        let stat = std::fs::read_to_string(format!("/proc/{short}/stat")).unwrap_or_default();
        let state = stat
            .rsplit(") ")
            .next()
            .and_then(|rest| rest.chars().next());
        assert_eq!(
            state,
            Some('Z'),
            "rank 0 (pid {short}) is not a zombie: `{stat}`"
        );
        let statuses = waiter.join().unwrap().unwrap();
        assert!(statuses.iter().all(ExitStatus::success), "{statuses:?}");
        assert!(
            !Path::new(&format!("/proc/{short}")).exists(),
            "never reaped"
        );
        let _ = std::fs::remove_dir_all(&env.dir);
    }

    #[test]
    fn launch_ranks_propagates_failure() {
        let dir = unique_rendezvous_dir().unwrap();
        // `false` exits 1 in every rank; the first failure wins.
        let code = launch_ranks(&["false".to_string()], 2, Backend::Uds, &dir).unwrap();
        assert_eq!(code, 1);
        let code = launch_ranks(&["true".to_string()], 2, Backend::Uds, &dir).unwrap();
        assert_eq!(code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
