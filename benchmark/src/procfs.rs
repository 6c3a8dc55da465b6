//! What the kernel says about this process and this host: the `/proc`
//! counters behind the `proc.*` ledger rows and `peak_rss_mb`, and the
//! host facts printed in the header line.

use std::fs;

/// Linux reports `utime`/`stime` in clock ticks of 10 ms (`USER_HZ` is
/// 100 on every supported architecture).
const US_PER_TICK: f64 = 10_000.0;

/// The process-wide fields of `/proc/<pid>/stat` the ledger uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat {
    pub user_us: f64,
    pub sys_us: f64,
    pub minor_faults: f64,
    pub threads: f64,
}

/// Parse one `/proc/<pid>/stat` line. The command name may hold spaces
/// and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); field k is at index k - 3.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let num = |k: usize| fields.get(k - 3)?.parse::<f64>().ok();
    Some(Stat {
        minor_faults: num(10)?,
        user_us: num(14)? * US_PER_TICK,
        sys_us: num(15)? * US_PER_TICK,
        threads: num(20)?,
    })
}

/// The fields of a `/proc/<pid>/status` (or `task/<tid>/status`) file
/// the ledger uses. The context-switch counts are per task.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Status {
    pub vm_hwm_kb: f64,
    pub vol_ctxsw: f64,
    pub invol_ctxsw: f64,
}

/// Parse a `status` file; a missing field reads as 0 (kernel threads
/// have no `VmHWM`).
pub fn parse_status(text: &str) -> Status {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Status {
        vm_hwm_kb: field("VmHWM"),
        vol_ctxsw: field("voluntary_ctxt_switches"),
        invol_ctxsw: field("nonvoluntary_ctxt_switches"),
    }
}

/// One reading of this process's counters; context switches are summed
/// over its live threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    pub stat: Stat,
    pub vm_hwm_kb: f64,
    pub vol_ctxsw: f64,
    pub invol_ctxsw: f64,
}

impl Snapshot {
    /// Read `/proc/self`. Unreadable files read as zeros: the ledger
    /// rows are diagnostics, never a reason to fail a run.
    pub fn take() -> Snapshot {
        let read = |p: &str| fs::read_to_string(p).unwrap_or_default();
        let mut snap = Snapshot {
            stat: parse_stat(&read("/proc/self/stat")).unwrap_or_default(),
            vm_hwm_kb: parse_status(&read("/proc/self/status")).vm_hwm_kb,
            ..Snapshot::default()
        };
        for entry in fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let st =
                parse_status(&fs::read_to_string(entry.path().join("status")).unwrap_or_default());
            snap.vol_ctxsw += st.vol_ctxsw;
            snap.invol_ctxsw += st.invol_ctxsw;
        }
        snap
    }
}

/// Parse a kernel CPU list (`0-1,4,6-7`, as `Cpus_allowed_list` prints
/// it) into the CPUs it names; `None` if any item is malformed.
pub fn parse_cpu_list(text: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for item in text.trim().split(',') {
        let (lo, hi) = item.split_once('-').unwrap_or((item, item));
        let (lo, hi) = (lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?);
        cpus.extend(lo..=hi);
    }
    (!cpus.is_empty()).then_some(cpus)
}

/// The CPUs this process may run on, from `Cpus_allowed_list`: under a
/// cpuset or an inherited affinity mask they need not start at 0.
fn allowed_cpus() -> Option<Vec<usize>> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_cpu_list(list)
}

/// Host facts for the header line.
pub struct Host {
    /// The CPUs the ranks may be pinned to; its length is `nproc`.
    pub cpus: Vec<usize>,
    pub kernel: String,
    pub llc: String,
    pub taskset: bool,
}

impl Host {
    pub fn detect() -> Host {
        let trimmed = |p: &str| fs::read_to_string(p).map(|s| s.trim().to_string()).ok();
        // The last-level cache is the highest `index<k>` cpu0 exposes.
        let llc = (0..8)
            .rev()
            .find_map(|k| trimmed(&format!("/sys/devices/system/cpu/cpu0/cache/index{k}/size")))
            .unwrap_or_else(|| "unknown".into());
        let taskset = std::process::Command::new("taskset")
            .arg("--version")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        let cpus = allowed_cpus().unwrap_or_else(|| {
            (0..std::thread::available_parallelism().map_or(1, |n| n.get())).collect()
        });
        Host {
            cpus,
            kernel: trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            llc,
            taskset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with a space and a parenthesis, as the kernel
        // prints it; utime=250 stime=125 ticks, minflt=4321, 5 threads.
        let line = "4242 (pcomm (bench) x) S 1 4242 4242 0 -1 4194304 4321 0 7 0 250 125 0 0 \
                    20 0 5 0 123456 1000000 900 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let st = parse_stat(line).unwrap();
        assert_eq!(st.minor_faults, 4321.0);
        assert_eq!(st.user_us, 2_500_000.0);
        assert_eq!(st.sys_us, 1_250_000.0);
        assert_eq!(st.threads, 5.0);
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
    }

    #[test]
    fn status_fields_by_name() {
        let text = "Name:\tpcomm-benchmark\nVmPeak:\t  100000 kB\nVmHWM:\t   20480 kB\n\
                    Threads:\t5\nvoluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t37\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 20480.0,
                vol_ctxsw: 1500.0,
                invol_ctxsw: 37.0
            }
        );
        assert_eq!(parse_status("Name:\tkthreadd\n"), Status::default());
    }

    #[test]
    fn cpu_lists_as_the_kernel_prints_them() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("2-3,8,10-11"), Some(vec![2, 3, 8, 10, 11]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("0-x"), None);
        assert!(!Host::detect().cpus.is_empty());
    }

    #[test]
    fn a_live_snapshot_reads_this_process() {
        let snap = Snapshot::take();
        assert!(snap.stat.threads >= 1.0);
        assert!(snap.vm_hwm_kb > 0.0);
    }
}
