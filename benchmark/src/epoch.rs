//! One epoch from the parent's side: spawn the rank processes of a
//! fresh universe (pinned one per core on wire fabrics), collect what
//! they print, and never outlive the deadline.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pcomm_net::launch::ENV_FABRIC;
use pcomm_net::{Backend, MultiprocEnv};

use crate::report::EpochOut;
use crate::spans::unix_now_ns;
use crate::workloads::{Counts, Fabric, Workload};

/// What the rank processes of an epoch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One epoch of the workload itself.
    Epoch,
    /// The fixed-count probe phases on the workload's fabric.
    Probes,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Epoch => "epoch",
            Mode::Probes => "probes",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Epoch, Mode::Probes]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

pub struct EpochSpec<'a> {
    pub workload: &'a Workload,
    pub mode: Mode,
    pub counts: Counts,
    pub traced: bool,
    pub seed: u64,
    /// Names the epoch in the span file and its rendezvous directory.
    pub label: String,
}

pub struct Launcher {
    pub exe: PathBuf,
    /// `benchmark/out`: the rank processes' working directory, so the
    /// rendezvous directory is a short relative path however deep the
    /// checkout sits (socket paths are limited to 108 bytes).
    pub out_dir: PathBuf,
    /// `taskset` is there: wire-fabric rank `r` runs on `cpus[r mod nproc]`.
    pub pin: bool,
    /// The CPUs this process is allowed on (never empty).
    pub cpus: Vec<usize>,
}

impl Launcher {
    /// Run one epoch. `Err` names what failed: a spawn, a non-zero exit,
    /// or the deadline (the children are killed then, never left behind).
    pub fn run(&self, spec: &EpochSpec, deadline: Duration) -> Result<EpochOut, String> {
        let rdv = format!("rdv-{}-{}", std::process::id(), spec.label);
        let rdv_path = self.out_dir.join(&rdv);
        std::fs::create_dir_all(&rdv_path).map_err(|e| format!("{}: {e}", rdv_path.display()))?;
        let result = self.run_in(spec, deadline, &rdv);
        let _ = std::fs::remove_dir_all(&rdv_path);
        result
    }

    fn command(&self, spec: &EpochSpec, rank: usize, rdv: &str, t0: u128) -> Command {
        let wire = spec.workload.fabric != Fabric::Shm;
        let mut cmd = if wire && self.pin {
            let mut c = Command::new("taskset");
            c.arg("-c")
                .arg(self.cpus[rank % self.cpus.len()].to_string())
                .arg(&self.exe);
            c
        } else {
            Command::new(&self.exe)
        };
        cmd.args([
            "--child",
            spec.mode.name(),
            "--workload",
            spec.workload.name,
        ])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--warm", &spec.counts.warm.to_string()])
        .args(["--timed", &spec.counts.timed.to_string()])
        .args(["--traced", if spec.traced { "1" } else { "0" }])
        .args(["--t0", &t0.to_string()])
        .current_dir(&self.out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
        // The launcher's own variables are the only `PCOMM_*` a rank sees.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PCOMM_") {
                cmd.env_remove(key);
            }
        }
        if wire {
            let env = MultiprocEnv {
                rank,
                n_ranks: 2,
                dir: PathBuf::from(rdv),
                backend: Backend::Uds,
            };
            env.apply_to(&mut cmd, rank);
            if spec.workload.fabric == Fabric::Ipc {
                cmd.env(ENV_FABRIC, "ipc");
            }
        }
        cmd
    }

    fn run_in(&self, spec: &EpochSpec, deadline: Duration, rdv: &str) -> Result<EpochOut, String> {
        let n_procs = if spec.workload.fabric == Fabric::Shm {
            1
        } else {
            2
        };
        let t0 = unix_now_ns();
        let mut children: Vec<Child> = Vec::new();
        for rank in 0..n_procs {
            match self.command(spec, rank, rdv, t0).spawn() {
                Ok(c) => children.push(c),
                Err(e) => {
                    reap(&mut children, true);
                    return Err(format!("spawning rank {rank}: {e}"));
                }
            }
        }
        // One reader per child so a full pipe never blocks a rank; the
        // parent itself sleeps on the channel and uses no core.
        let (tx, rx) = mpsc::channel();
        let readers: Vec<_> = children
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut pipe = c.stdout.take().expect("stdout was piped");
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut text = String::new();
                    let _ = pipe.read_to_string(&mut text);
                    let _ = tx.send((i, text));
                })
            })
            .collect();
        let until = Instant::now() + deadline;
        let mut texts = vec![String::new(); n_procs];
        let mut late = false;
        for _ in 0..n_procs {
            match rx.recv_timeout(until.saturating_duration_since(Instant::now())) {
                Ok((i, text)) => texts[i] = text,
                Err(_) => {
                    late = true;
                    break;
                }
            }
        }
        let codes = reap(&mut children, late);
        for r in readers {
            let _ = r.join();
        }
        if late {
            return Err(format!(
                "deadline of {deadline:?} passed; rank processes killed"
            ));
        }
        if let Some((rank, code)) = codes.iter().enumerate().find(|(_, c)| **c != Some(0)) {
            return Err(format!("rank process {rank} exited with {code:?}"));
        }
        let mut out = EpochOut::default();
        for text in &texts {
            out.absorb(&spec.label, text);
        }
        Ok(out)
    }
}

/// Wait for every child (killing them first if asked) and return the
/// exit codes; `None` is death by signal.
fn reap(children: &mut [Child], kill: bool) -> Vec<Option<i32>> {
    if kill {
        for c in children.iter_mut() {
            let _ = c.kill();
        }
    }
    children
        .iter_mut()
        .map(|c| c.wait().ok().and_then(|s| s.code()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;
    use std::os::unix::fs::PermissionsExt;

    /// A launcher whose "rank process" is a shell script. One test runs
    /// the three scripts in turn: writing an executable while another
    /// thread forks can fail the exec with ETXTBSY.
    fn launcher_for(dir: &std::path::Path, script: &str) -> Launcher {
        let exe = dir.join("rank.sh");
        std::fs::write(&exe, format!("#!/bin/sh\n{script}\n")).unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        Launcher {
            exe,
            out_dir: dir.to_path_buf(),
            pin: false,
            cpus: vec![0],
        }
    }

    #[test]
    fn launcher_collects_output_reports_exit_codes_and_kills_at_the_deadline() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("launcher-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = EpochSpec {
            workload: find("small_ipc").unwrap(),
            mode: Mode::Epoch,
            counts: Counts { warm: 1, timed: 2 },
            traced: false,
            seed: 1,
            label: "t0".into(),
        };
        let leftovers = |dir: &std::path::Path| {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("rdv-"))
                .count()
        };

        // Both ranks print; the launcher's own variables reach them.
        let ok = launcher_for(
            &dir,
            r#"echo "M $PCOMM_NET_RANK proc.cpu_us 1.5"; echo "M 0 fabric.$PCOMM_NET_FABRIC 1""#,
        );
        let out = ok.run(&spec, Duration::from_secs(10)).unwrap();
        assert_eq!(out.get("proc.cpu_us"), Some(3.0));
        assert_eq!(out.get("fabric.ipc"), Some(1.0), "{:?}", out.values);
        assert_eq!(leftovers(&dir), 0);

        let bad = launcher_for(&dir, r#"[ "$PCOMM_NET_RANK" = 1 ] && exit 3; exit 0"#);
        let err = bad.run(&spec, Duration::from_secs(10)).unwrap_err();
        assert!(err.contains("rank process 1 exited with Some(3)"), "{err}");
        assert_eq!(leftovers(&dir), 0);

        let hang = launcher_for(&dir, "exec sleep 30");
        let started = Instant::now();
        let err = hang.run(&spec, Duration::from_millis(300)).unwrap_err();
        assert!(err.contains("deadline"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "children were not killed"
        );
        assert_eq!(leftovers(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
