//! Raw Linux syscall wrappers for the same-host ipc fabric, the
//! socket carrier's readiness loop and the launcher.
//!
//! The workspace is std-only and offline, so neither carrier can lean on
//! `libc`: the handful of kernel entry points they need — anonymous
//! memory files, shared mappings, cross-process futexes, `SCM_RIGHTS`
//! fd passing and a socket peer's credentials, cross-memory reads and
//! writes of a peer's buffer, `epoll`, the pipe and splice calls that move a pinned
//! payload into a socket by reference, and a look at an exited child
//! that leaves it unreaped — are issued directly with `std::arch::asm!`
//! on the two supported Linux targets (x86_64 and aarch64). Everywhere
//! else [`supported`] reports `false`: the transport layer stays off the
//! ipc fabric (as it does wherever [`cma_works`] is false), and the
//! `epoll` wrappers fail with `ENOSYS`, which the socket carrier turns
//! into a typed error at start.
//!
//! Why raw syscalls are sound here (see also DESIGN.md §12):
//!
//! * Every wrapper is a thin, audited translation of one documented
//!   kernel ABI entry; no wrapper touches errno, signals, or any libc
//!   state, so they cannot conflict with std's own syscall usage.
//! * The asm blocks follow the kernel calling convention exactly
//!   (x86_64: `syscall`, args in rdi/rsi/rdx/r10/r8/r9, rcx/r11
//!   clobbered; aarch64: `svc 0`, nr in x8, args in x0..x5) and mark
//!   every register the kernel may clobber.
//! * Errors come back as `-errno` in the return register; the wrappers
//!   convert them to `io::Error` instead of leaking raw integers.
//!
//! Every wrapper carries a `// SYSCALL:` marker naming the kernel
//! interface and why it is needed; `safety_lint` enforces the marker on
//! any `asm!` site in the workspace.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

/// Whether the raw syscalls below exist on this build target. Off-target
/// the transport layer keeps off the ipc fabric, and the socket
/// carrier's [`Epoll::new`] fails its start with `ENOSYS`.
pub const fn supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

/// `FUTEX_WAIT` without `FUTEX_PRIVATE_FLAG`: the futex words live in a
/// memory segment shared between rank *processes*, so the kernel must
/// hash them by physical page, not per-mm.
const FUTEX_WAIT: usize = 0;
/// `FUTEX_WAKE`, shared for the same reason as [`FUTEX_WAIT`].
const FUTEX_WAKE: usize = 1;

/// `PROT_READ | PROT_WRITE` for [`mmap`].
const PROT_RW: usize = 0x1 | 0x2;
/// `MAP_SHARED`: writes must be visible to every process mapping the
/// segment.
const MAP_SHARED: usize = 0x01;

/// `struct timespec` as the kernel expects it on both supported targets.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const MEMFD_CREATE: usize = 319;
    pub const FTRUNCATE: usize = 77;
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const CLOSE: usize = 3;
    pub const FUTEX: usize = 202;
    pub const SENDMSG: usize = 46;
    pub const RECVMSG: usize = 47;
    pub const EPOLL_CREATE1: usize = 291;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const PIPE2: usize = 293;
    pub const FCNTL: usize = 72;
    pub const VMSPLICE: usize = 278;
    pub const SPLICE: usize = 275;
    pub const GETSOCKOPT: usize = 55;
    pub const PROCESS_VM_READV: usize = 310;
    pub const PROCESS_VM_WRITEV: usize = 311;
    pub const PRCTL: usize = 157;
    pub const WAITID: usize = 247;
}

// aarch64 has no plain `epoll_wait`: `epoll_pwait` with a null mask is
// the same call on both targets.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const MEMFD_CREATE: usize = 279;
    pub const FTRUNCATE: usize = 46;
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const CLOSE: usize = 57;
    pub const FUTEX: usize = 98;
    pub const SENDMSG: usize = 211;
    pub const RECVMSG: usize = 212;
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const PIPE2: usize = 59;
    pub const FCNTL: usize = 25;
    pub const VMSPLICE: usize = 75;
    pub const SPLICE: usize = 76;
    pub const GETSOCKOPT: usize = 209;
    pub const PROCESS_VM_READV: usize = 270;
    pub const PROCESS_VM_WRITEV: usize = 271;
    pub const PRCTL: usize = 167;
    pub const WAITID: usize = 95;
}

/// Issue one syscall with up to six arguments and return the raw kernel
/// result (`-errno` on failure). The single funnel keeps the asm in one
/// audited place; every public wrapper goes through it.
///
/// # Safety
/// The caller must pass arguments that are valid for the named syscall
/// (live pointers with correct lengths, owned fds); the kernel trusts
/// them as-is.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: register constraints match the kernel calling convention;
    // the caller guarantees the arguments are valid for syscall `n`.
    unsafe {
        // SYSCALL: the one asm funnel every wrapper in this module uses
        // — x86_64 `syscall` instruction, args per the kernel ABI,
        // rcx/r11 clobbered by the instruction itself.
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// See the x86_64 [`syscall6`]; aarch64 uses `svc 0` with the number in
/// `x8` and arguments in `x0..x5`.
///
/// # Safety
/// Same contract as the x86_64 variant.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: register constraints match the kernel calling convention;
    // the caller guarantees the arguments are valid for syscall `n`.
    unsafe {
        // SYSCALL: the one asm funnel every wrapper in this module uses
        // — aarch64 `svc 0`, number in x8, args in x0..x5 per the
        // kernel ABI.
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
    }
    ret
}

/// Unsupported-target stub: every wrapper fails with `ENOSYS` ([`supported`]
/// keeps the ipc fabric from reaching it; the socket carrier's `epoll`
/// reports it as a start error). Present so the module typechecks
/// everywhere.
///
/// # Safety
/// Trivially safe — it only returns an error code.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
// SAFETY: trivially safe stub — returns ENOSYS without touching its arguments.
unsafe fn syscall6(
    _n: usize,
    _a1: usize,
    _a2: usize,
    _a3: usize,
    _a4: usize,
    _a5: usize,
    _a6: usize,
) -> isize {
    -38 // -ENOSYS
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod nr {
    pub const MEMFD_CREATE: usize = 0;
    pub const FTRUNCATE: usize = 0;
    pub const MMAP: usize = 0;
    pub const MUNMAP: usize = 0;
    pub const CLOSE: usize = 0;
    pub const FUTEX: usize = 0;
    pub const SENDMSG: usize = 0;
    pub const RECVMSG: usize = 0;
    pub const EPOLL_CREATE1: usize = 0;
    pub const EPOLL_CTL: usize = 0;
    pub const EPOLL_PWAIT: usize = 0;
    pub const PIPE2: usize = 0;
    pub const FCNTL: usize = 0;
    pub const VMSPLICE: usize = 0;
    pub const SPLICE: usize = 0;
    pub const GETSOCKOPT: usize = 0;
    pub const PROCESS_VM_READV: usize = 0;
    pub const PROCESS_VM_WRITEV: usize = 0;
    pub const PRCTL: usize = 0;
    pub const WAITID: usize = 0;
}

/// Convert a raw kernel return into `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// `memfd_create(2)`: an anonymous, fd-addressable memory file — the
/// backing object of the shared segment, passed to the peer ranks over
/// the UDS bootstrap with [`send_fd`].
pub fn memfd_create(name: &str) -> io::Result<i32> {
    let mut buf = [0u8; 32];
    let n = name.len().min(buf.len() - 1);
    buf[..n].copy_from_slice(&name.as_bytes()[..n]);
    // SYSCALL: memfd_create(name, 0) — no libc wrapper in std.
    // SAFETY: `buf` is a live NUL-terminated buffer for the duration of
    // the call; flags 0 requests a plain sealable-less memfd.
    let ret = unsafe { syscall6(nr::MEMFD_CREATE, buf.as_ptr() as usize, 0, 0, 0, 0, 0) };
    check(ret).map(|fd| fd as i32)
}

/// `ftruncate(2)`: size the fresh memfd to the full segment length
/// (sparse — pages materialise on first touch).
pub fn ftruncate(fd: i32, len: usize) -> io::Result<()> {
    // SYSCALL: ftruncate(fd, len) on the segment memfd.
    // SAFETY: no pointers; the fd is owned by the caller.
    let ret = unsafe { syscall6(nr::FTRUNCATE, fd as usize, len, 0, 0, 0, 0) };
    check(ret).map(|_| ())
}

/// `mmap(2)` with `PROT_READ|PROT_WRITE, MAP_SHARED`: map the segment
/// into this process. Each rank gets a different base address, which is
/// why the segment layout speaks only in offsets.
pub fn mmap_shared(fd: i32, len: usize) -> io::Result<*mut u8> {
    // SYSCALL: mmap(NULL, len, PROT_RW, MAP_SHARED, fd, 0).
    // SAFETY: NULL hint lets the kernel pick a free range; the fd is a
    // live memfd of at least `len` bytes (sized by `ftruncate` above).
    let ret = unsafe { syscall6(nr::MMAP, 0, len, PROT_RW, MAP_SHARED, fd as usize, 0) };
    check(ret).map(|addr| addr as *mut u8)
}

/// `munmap(2)`: drop the mapping at segment teardown.
///
/// # Safety
/// `addr..addr+len` must be exactly one live mapping returned by
/// [`mmap_shared`], with no remaining references into it.
pub unsafe fn munmap(addr: *mut u8, len: usize) -> io::Result<()> {
    // SYSCALL: munmap(addr, len) — releases the segment mapping.
    // SAFETY: forwarded to the caller: the range is one whole mapping
    // this process owns and no longer reads or writes.
    let ret = unsafe { syscall6(nr::MUNMAP, addr as usize, len, 0, 0, 0, 0) };
    check(ret).map(|_| ())
}

/// `close(2)`: release the memfd once mapped (the mapping keeps the
/// memory alive).
pub fn close(fd: i32) -> io::Result<()> {
    // SYSCALL: close(fd) on the segment memfd after mmap.
    // SAFETY: no pointers; the caller owns the fd and drops it here.
    let ret = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    check(ret).map(|_| ())
}

/// `futex(FUTEX_WAIT)` on a *process-shared* word: sleep while
/// `*word == expect`, up to `timeout_ns` (relative). Returns `Ok(true)`
/// when woken (or the value changed), `Ok(false)` on timeout. `EINTR`
/// and `EAGAIN` (value already changed) both report as woken — callers
/// re-check shared state in a loop anyway.
pub fn futex_wait(
    word: &std::sync::atomic::AtomicU32,
    expect: u32,
    timeout_ns: u64,
) -> io::Result<bool> {
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SYSCALL: futex(word, FUTEX_WAIT, expect, &timeout) — the shared
    // (non-PRIVATE) form, because waiter and waker are different
    // processes mapping the same physical page.
    // SAFETY: `word` and `ts` are live for the duration of the call;
    // FUTEX_WAIT only reads the word and sleeps.
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            word as *const _ as usize,
            FUTEX_WAIT,
            expect as usize,
            &ts as *const Timespec as usize,
            0,
            0,
        )
    };
    match check(ret) {
        Ok(_) => Ok(true),
        Err(e) => match e.raw_os_error() {
            Some(110) => Ok(false),         // ETIMEDOUT
            Some(11) | Some(4) => Ok(true), // EAGAIN (value changed) / EINTR
            _ => Err(e),
        },
    }
}

/// `futex(FUTEX_WAKE)` on a process-shared word: wake up to `n`
/// sleepers. Returns how many were woken.
pub fn futex_wake(word: &std::sync::atomic::AtomicU32, n: u32) -> io::Result<usize> {
    // SYSCALL: futex(word, FUTEX_WAKE, n) — shared form, see
    // `futex_wait`.
    // SAFETY: `word` is a live shared futex word; FUTEX_WAKE reads
    // nothing through it, it only scans the kernel wait queue.
    let ret = unsafe {
        syscall6(
            nr::FUTEX,
            word as *const _ as usize,
            FUTEX_WAKE,
            n as usize,
            0,
            0,
            0,
        )
    };
    check(ret)
}

/// `SOL_SOCKET` for the `SCM_RIGHTS` control message.
const SOL_SOCKET: i32 = 1;
/// `SCM_RIGHTS`: the control-message type that transfers fds.
const SCM_RIGHTS: i32 = 1;

/// `struct iovec` as the kernel expects it.
#[repr(C)]
struct Iovec {
    base: *const u8,
    len: usize,
}

/// `struct msghdr` as the kernel expects it on both supported targets.
#[repr(C)]
struct Msghdr {
    name: usize,
    namelen: u32,
    _pad0: u32,
    iov: *const Iovec,
    iovlen: usize,
    control: *const u8,
    controllen: usize,
    flags: i32,
    _pad1: u32,
}

/// One-fd `SCM_RIGHTS` control buffer: `cmsghdr` (16 bytes on LP64)
/// plus the fd, padded to alignment.
#[repr(C, align(8))]
struct CmsgOneFd {
    len: usize,
    level: i32,
    typ: i32,
    fd: i32,
    _pad: i32,
}

/// `sendmsg(2)` with a one-byte payload and the segment fd attached as
/// `SCM_RIGHTS` — how rank 0 hands the memfd to each peer over the
/// already-established UDS bootstrap stream.
pub fn send_fd(sock_fd: i32, fd: i32, tag: u8) -> io::Result<()> {
    let byte = [tag];
    let iov = Iovec {
        base: byte.as_ptr(),
        len: 1,
    };
    let cmsg = CmsgOneFd {
        len: 20, // CMSG_LEN(4): 16-byte header + one fd
        level: SOL_SOCKET,
        typ: SCM_RIGHTS,
        fd,
        _pad: 0,
    };
    let msg = Msghdr {
        name: 0,
        namelen: 0,
        _pad0: 0,
        iov: &iov,
        iovlen: 1,
        control: &cmsg as *const CmsgOneFd as *const u8,
        controllen: std::mem::size_of::<CmsgOneFd>(),
        flags: 0,
        _pad1: 0,
    };
    // SYSCALL: sendmsg(sock, &msg, 0) carrying one SCM_RIGHTS fd — std
    // has no fd-passing API.
    // SAFETY: `byte`, `iov`, `cmsg` and `msg` all outlive the call; the
    // layouts above match the kernel's LP64 msghdr/cmsghdr ABI.
    let ret = unsafe {
        syscall6(
            nr::SENDMSG,
            sock_fd as usize,
            &msg as *const Msghdr as usize,
            0,
            0,
            0,
            0,
        )
    };
    check(ret).and_then(|n| {
        if n == 1 {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "ipc: sendmsg wrote no payload byte",
            ))
        }
    })
}

/// `recvmsg(2)` counterpart of [`send_fd`]: returns the received fd and
/// the one-byte tag.
pub fn recv_fd(sock_fd: i32) -> io::Result<(i32, u8)> {
    let mut byte = [0u8; 1];
    let iov = Iovec {
        base: byte.as_mut_ptr(),
        len: 1,
    };
    let mut cmsg = CmsgOneFd {
        len: 0,
        level: 0,
        typ: 0,
        fd: -1,
        _pad: 0,
    };
    let msg = Msghdr {
        name: 0,
        namelen: 0,
        _pad0: 0,
        iov: &iov,
        iovlen: 1,
        control: &mut cmsg as *mut CmsgOneFd as *const u8,
        controllen: std::mem::size_of::<CmsgOneFd>(),
        flags: 0,
        _pad1: 0,
    };
    // SYSCALL: recvmsg(sock, &msg, 0) expecting one SCM_RIGHTS fd.
    // SAFETY: same lifetime/layout argument as `send_fd`; the kernel
    // writes the fd into `cmsg` and the tag byte into `byte`.
    let ret = unsafe {
        syscall6(
            nr::RECVMSG,
            sock_fd as usize,
            &msg as *const Msghdr as usize,
            0,
            0,
            0,
            0,
        )
    };
    let n = check(ret)?;
    if n != 1 || cmsg.typ != SCM_RIGHTS || cmsg.fd < 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "ipc: expected one SCM_RIGHTS fd with a tag byte, got {n} bytes \
                 (cmsg type {}, fd {})",
                cmsg.typ, cmsg.fd
            ),
        ));
    }
    Ok((cmsg.fd, byte[0]))
}

/// `SO_PEERCRED`: the credentials of a Unix socket's peer.
const SO_PEERCRED: usize = 17;

/// `struct ucred` as `SO_PEERCRED` fills it.
#[repr(C)]
#[derive(Default)]
struct Ucred {
    pid: i32,
    uid: u32,
    gid: u32,
}

/// `getsockopt(SO_PEERCRED)`: the process id of the peer of the Unix
/// socket `sock_fd`, as the kernel recorded it at connect time — not a
/// word the peer wrote, so a peer cannot name another process's memory
/// for [`process_vm_readv`].
pub fn peer_pid(sock_fd: i32) -> io::Result<i32> {
    let mut cred = Ucred::default();
    let mut len = std::mem::size_of::<Ucred>() as u32;
    // SYSCALL: getsockopt(sock, SOL_SOCKET, SO_PEERCRED, &cred, &len) —
    // std's `peer_cred` is unstable.
    // SAFETY: `cred` and `len` are live and writable for the call, and
    // `len` holds the size of `cred`; the kernel writes at most that.
    let ret = unsafe {
        syscall6(
            nr::GETSOCKOPT,
            sock_fd as usize,
            SOL_SOCKET as usize,
            SO_PEERCRED,
            &mut cred as *mut Ucred as usize,
            &mut len as *mut u32 as usize,
            0,
        )
    };
    check(ret)?;
    if cred.pid <= 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("SO_PEERCRED named no process (pid {})", cred.pid),
        ));
    }
    Ok(cred.pid)
}

/// `process_vm_readv(2)` with one iovec on each side: fill all of
/// `dest` from the bytes at address `src` in process `pid` (cross-memory
/// attach, one copy). A remote address the process does not map is
/// `EFAULT`, and a process this one may not trace (another user, Yama)
/// is `EPERM`: an `io::Error` saying how far the range got, never a
/// fault in this process, which the kernel checks the range of.
pub fn process_vm_readv(pid: i32, dest: &mut [u8], src: u64) -> io::Result<()> {
    moved_all(dest.len(), |k| {
        let local = Iovec {
            base: dest[k..].as_mut_ptr(),
            len: dest.len() - k,
        };
        // SAFETY: `local` describes the live, writable tail of `dest`,
        // the only memory of this process the kernel writes.
        unsafe { cma(nr::PROCESS_VM_READV, pid, local, src.wrapping_add(k as u64)) }
    })
}

/// `process_vm_writev(2)`, the other direction: copy all of `src` to
/// address `dest` in process `pid`. Fails as [`process_vm_readv`] does;
/// this process's memory is only read.
pub fn process_vm_writev(pid: i32, src: &[u8], dest: u64) -> io::Result<()> {
    moved_all(src.len(), |k| {
        let local = Iovec {
            base: src[k..].as_ptr(),
            len: src.len() - k,
        };
        // SAFETY: `local` describes the live tail of `src`, which the
        // kernel only reads.
        unsafe {
            cma(
                nr::PROCESS_VM_WRITEV,
                pid,
                local,
                dest.wrapping_add(k as u64),
            )
        }
    })
}

/// Move `len` bytes with calls that may stop short: `step(k)` moves from
/// byte `k` on and says how many it moved. The kernel stops a
/// cross-memory call at unmapped memory, or past its cap on one call
/// (just under 2 GiB), so a call that made progress is followed by
/// another; one that moved nothing, or failed, is the error, with how
/// far the range got (a failed first call's error as the kernel gave it).
fn moved_all(len: usize, mut step: impl FnMut(usize) -> io::Result<usize>) -> io::Result<()> {
    let mut k = 0;
    while k < len {
        match step(k) {
            Ok(0) => return Err(io::Error::other(format!("short: {k} of {len} B moved"))),
            Ok(n) => k += n,
            Err(e) if k == 0 => return Err(e),
            Err(e) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("{e}, {k} of {len} B moved"),
                ))
            }
        }
    }
    Ok(())
}

/// One cross-memory call of `local.len` bytes between `local` and the
/// address `remote` in process `pid`.
///
/// # Safety
/// `local` must describe live memory of this process that the call
/// may write (a read) or read (a write) for its whole length.
unsafe fn cma(nr: usize, pid: i32, local: Iovec, remote: u64) -> io::Result<usize> {
    let remote = Iovec {
        base: remote as usize as *const u8,
        len: local.len,
    };
    // SYSCALL: process_vm_{readv,writev}(pid, &local, 1, &remote, 1, 0)
    // — the ipc carrier moves a stream range between rank processes.
    // SAFETY: the caller vouches for `local`; the remote iovec names
    // memory of `pid`, which the kernel checks against its mappings.
    let ret = unsafe {
        syscall6(
            nr,
            pid as usize,
            &local as *const Iovec as usize,
            1,
            &remote as *const Iovec as usize,
            1,
            0,
        )
    };
    check(ret)
}

/// `waitid(P_PID, pid, WEXITED | WNOHANG | WNOWAIT)`: whether the child
/// `pid` has exited, leaving it unreaped. A zombie keeps its pid, so no
/// other process takes the pid while a sibling rank may still name it.
pub fn child_exited(pid: i32) -> io::Result<bool> {
    const P_PID: usize = 1;
    const WNOHANG_WEXITED_WNOWAIT: usize = 0x1 | 0x4 | 0x0100_0000;
    // `siginfo_t`: 128 bytes, `si_pid` at byte 16 on both targets.
    let mut info = [0i32; 32];
    // SYSCALL: waitid(P_PID, pid, &info, WEXITED | WNOHANG | WNOWAIT,
    // NULL) — std's `try_wait` reaps the child it finds exited.
    // SAFETY: `info` is a live, writable `siginfo_t` for the call, and
    // the `rusage` pointer is null.
    let ret = unsafe {
        syscall6(
            nr::WAITID,
            P_PID,
            pid as usize,
            info.as_mut_ptr() as usize,
            WNOHANG_WEXITED_WNOWAIT,
            0,
            0,
        )
    };
    check(ret)?;
    // With WNOHANG, a child still running leaves `si_pid` at 0.
    Ok(info[4] != 0)
}

/// Yama's `ptrace_scope`, or `None` where the kernel has no Yama.
fn yama_scope() -> Option<String> {
    let scope = std::fs::read_to_string("/proc/sys/kernel/yama/ptrace_scope").ok()?;
    Some(scope.trim().to_owned())
}

/// `prctl(PR_SET_PTRACER, PR_SET_PTRACER_ANY)`: under Yama's
/// `ptrace_scope` 1, let the sibling rank processes of this user move
/// ranges in and out of this one with cross-memory attach, as scope 0
/// already does. A no-op without Yama.
pub fn allow_cma_from_peers() -> io::Result<()> {
    const PR_SET_PTRACER: usize = 0x5961_6d61;
    const PR_SET_PTRACER_ANY: usize = usize::MAX;
    if yama_scope().is_none() {
        return Ok(());
    }
    // SYSCALL: prctl(PR_SET_PTRACER, PR_SET_PTRACER_ANY, 0, 0, 0).
    // SAFETY: no pointer arguments; it changes only who may trace us.
    let ret = unsafe { syscall6(nr::PRCTL, PR_SET_PTRACER, PR_SET_PTRACER_ANY, 0, 0, 0, 0) };
    check(ret).map(drop)
}

/// Whether Yama's `ptrace_scope` (`None`: no Yama) lets the sibling
/// rank processes of one user reach each other's memory: absent, 0, or
/// 1, which [`allow_cma_from_peers`] opens to them (2 and 3 refuse them).
fn scope_allows_cma(scope: Option<&str>) -> bool {
    scope.is_none_or(|scope| scope == "0" || scope == "1")
}

/// Whether ranks of this host can move bytes between each other's
/// memory with [`process_vm_readv`] and [`process_vm_writev`]: the raw
/// syscalls exist, a read of this process's own memory succeeds (no
/// seccomp filter refuses the call), and Yama allows it
/// (`scope_allows_cma`). The same answer on every rank of a host, so
/// it picks the ipc fabric before any mesh exists.
pub fn cma_works() -> bool {
    let probe = [0x5au8; 8];
    let mut got = [0u8; 8];
    supported()
        && scope_allows_cma(yama_scope().as_deref())
        && process_vm_readv(std::process::id() as i32, &mut got, probe.as_ptr() as u64).is_ok()
        && got == probe
}

/// `EPOLLIN`: readable, or the peer hung up.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`: writable.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLONESHOT`: one delivered event disarms the registration until
/// [`Epoll::modify`] re-arms it.
pub const EPOLLONESHOT: u32 = 1 << 30;
/// `EPOLL_CLOEXEC` for `epoll_create1`.
const EPOLL_CLOEXEC: usize = 0o2_000_000;
const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

/// `struct epoll_event` as the kernel expects it: packed on x86_64 (its
/// ABI says so), naturally aligned on aarch64.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready events (`EPOLLIN`, …).
    pub events: u32,
    /// The caller's token from registration.
    pub data: u64,
}

/// One `epoll` instance, closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        // SYSCALL: epoll_create1(EPOLL_CLOEXEC) — the socket carrier's
        // readiness set; std has no epoll API.
        // SAFETY: no pointers; the returned fd is owned by `Epoll`.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| Epoll { fd: fd as i32 })
    }

    fn ctl(&self, op: usize, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        // SYSCALL: epoll_ctl(epfd, op, fd, &event) — register, re-arm or
        // drop one fd.
        // SAFETY: `ev` outlives the call and has the kernel's layout; the
        // kernel only reads it, and ignores it for EPOLL_CTL_DEL.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd as usize,
                op,
                fd as usize,
                &ev as *const EpollEvent as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Register `fd` for `events`; readiness reports carry `token`.
    pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change (and, under `EPOLLONESHOT`, re-arm) `fd`'s registration.
    pub fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Drop `fd`'s registration.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` (`-1`: forever) for readiness; fills the
    /// front of `out` and returns how many. A signal counts as 0 events.
    pub fn wait(&self, out: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SYSCALL: epoll_pwait(epfd, events, max, timeout, NULL, 8) —
        // with a null mask this is epoll_wait, which aarch64 lacks.
        // SAFETY: `out` is a live, writable array of `out.len()` kernel-
        // layout events; the kernel writes at most that many.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd as usize,
                out.as_mut_ptr() as usize,
                out.len(),
                timeout_ms as isize as usize,
                0,
                8,
            )
        };
        match check(ret) {
            Err(e) if e.raw_os_error() == Some(4) => Ok(0), // EINTR
            other => other,
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = close(self.fd);
    }
}

/// `O_NONBLOCK | O_CLOEXEC` for `pipe2` (the same bits on both targets).
const PIPE_FLAGS: usize = 0o4000 | 0o2_000_000;
/// `fcntl` command that resizes a pipe.
const F_SETPIPE_SZ: usize = 1031;
/// `SPLICE_F_NONBLOCK`: a full or empty pipe refuses instead of blocking.
/// Never `SPLICE_F_GIFT`: the pages stay the caller's.
const SPLICE_F_NONBLOCK: usize = 2;

/// `pipe2(O_NONBLOCK | O_CLOEXEC)`: the `(read, write)` ends of a fresh
/// pipe, closed on drop.
pub fn pipe2() -> io::Result<(OwnedFd, OwnedFd)> {
    let mut fds = [-1i32; 2];
    // SYSCALL: pipe2(fds, O_NONBLOCK | O_CLOEXEC) — the socket carrier's
    // splice pipe; std has no pipe API.
    // SAFETY: `fds` is a live, writable array of two ints; the kernel
    // fills both or neither.
    let ret = unsafe { syscall6(nr::PIPE2, fds.as_mut_ptr() as usize, PIPE_FLAGS, 0, 0, 0, 0) };
    check(ret)?;
    // SAFETY: the kernel just installed both fds for this process, and
    // nothing else owns them.
    Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
}

/// `fcntl(F_SETPIPE_SZ)`: ask for a pipe of `bytes`; returns what the
/// kernel granted (`EPERM` past what an unprivileged process may have).
pub fn set_pipe_size(pipe: &OwnedFd, bytes: usize) -> io::Result<usize> {
    // SYSCALL: fcntl(fd, F_SETPIPE_SZ, bytes) — sized once per pipe.
    // SAFETY: no pointers; the fd is a live pipe end the caller owns.
    let ret = unsafe {
        syscall6(
            nr::FCNTL,
            pipe.as_raw_fd() as usize,
            F_SETPIPE_SZ,
            bytes,
            0,
            0,
            0,
        )
    };
    check(ret)
}

/// `vmsplice(2)` without `SPLICE_F_GIFT`: put references to the pages
/// under `buf` into the pipe's write end; returns how many bytes of
/// `buf` it took (`WouldBlock` when the pipe is full). The pipe holds
/// the caller's pages, not a copy: whoever reads the bytes at the far
/// end of what the pipe is spliced into reads `buf` as it is then, so
/// the caller keeps it unwritten until that reader is known to have it.
pub fn vmsplice(pipe_wr: &OwnedFd, buf: &[u8]) -> io::Result<usize> {
    let iov = Iovec {
        base: buf.as_ptr(),
        len: buf.len(),
    };
    // SYSCALL: vmsplice(pipe, &iov, 1, SPLICE_F_NONBLOCK) — a pinned
    // payload enters the pipe by reference.
    // SAFETY: `iov` outlives the call and describes the live `buf`; the
    // kernel takes page references, so `buf` may go away at any time.
    let ret = unsafe {
        syscall6(
            nr::VMSPLICE,
            pipe_wr.as_raw_fd() as usize,
            &iov as *const Iovec as usize,
            1,
            SPLICE_F_NONBLOCK,
            0,
            0,
        )
    };
    check(ret)
}

/// `splice(2)`: move up to `len` bytes from the pipe's read end into
/// `out` (a socket) without copying them; `WouldBlock` when the socket
/// (nonblocking) is full.
pub fn splice(pipe_rd: &OwnedFd, out: i32, len: usize) -> io::Result<usize> {
    // SYSCALL: splice(pipe, NULL, sock, NULL, len, SPLICE_F_NONBLOCK) —
    // the pipe's page references go to the socket.
    // SAFETY: no pointers (both offsets NULL: neither end is seekable);
    // the pipe end and the socket are live fds.
    let ret = unsafe {
        syscall6(
            nr::SPLICE,
            pipe_rd.as_raw_fd() as usize,
            0,
            out as usize,
            0,
            len,
            SPLICE_F_NONBLOCK,
        )
    };
    check(ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn memfd_map_write_read_roundtrip() {
        if !supported() {
            return;
        }
        let fd = memfd_create("pcomm-sys-test").unwrap();
        ftruncate(fd, 8192).unwrap();
        let base = mmap_shared(fd, 8192).unwrap();
        close(fd).unwrap();
        // SAFETY: `base` is a fresh 8 KiB private test mapping.
        unsafe {
            base.add(4096).write(0xa5);
            assert_eq!(base.add(4096).read(), 0xa5);
            munmap(base, 8192).unwrap();
        }
    }

    #[test]
    fn futex_wait_times_out_and_wakes() {
        if !supported() {
            return;
        }
        let word = AtomicU32::new(0);
        // Value mismatch: returns immediately as "woken".
        assert!(futex_wait(&word, 1, 1_000_000).unwrap());
        // Value match: sleeps until the 2 ms timeout.
        assert!(!futex_wait(&word, 0, 2_000_000).unwrap());
        // Nobody is sleeping: wake reports 0.
        assert_eq!(futex_wake(&word, 1).unwrap(), 0);
    }

    #[test]
    fn epoll_reports_a_oneshot_readiness_once_until_rearmed() {
        if !supported() {
            return;
        }
        use std::io::Write;
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::UnixStream;
        let (a, mut b) = UnixStream::pair().unwrap();
        let ep = Epoll::new().unwrap();
        let fd = a.as_raw_fd();
        ep.add(fd, EPOLLIN | EPOLLONESHOT, 7).unwrap();
        let mut out = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 0, "nothing to read yet");
        b.write_all(b"x").unwrap();
        assert_eq!(ep.wait(&mut out, 1000).unwrap(), 1);
        let (events, token) = (out[0].events, out[0].data);
        assert_eq!((events & EPOLLIN, token), (EPOLLIN, 7));
        // Still readable, but the one shot is spent.
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 0);
        ep.modify(fd, EPOLLIN | EPOLLOUT | EPOLLONESHOT, 8).unwrap();
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 1);
        let (events, token) = (out[0].events, out[0].data);
        assert_eq!(
            (events & (EPOLLIN | EPOLLOUT), token),
            (EPOLLIN | EPOLLOUT, 8)
        );
        ep.delete(fd).unwrap();
        assert_eq!(ep.wait(&mut out, 0).unwrap(), 0);
    }

    /// `n` bytes in which every offset has its own pattern.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + i / 251) as u8).collect()
    }

    #[test]
    fn vmsplice_and_splice_carry_a_buffer_through_a_socketpair() {
        if !supported() {
            return;
        }
        use std::io::Read;
        use std::os::unix::net::UnixStream;
        let (a, mut b) = UnixStream::pair().unwrap();
        let (rd, wr) = pipe2().unwrap();
        let payload = pattern(48 * 1024);
        let (mut held, mut sent) = (0, 0);
        while sent < payload.len() {
            held += vmsplice(&wr, &payload[sent + held..]).unwrap();
            let n = splice(&rd, a.as_raw_fd(), held).unwrap();
            (held, sent) = (held - n, sent + n);
        }
        let mut got = vec![0u8; payload.len()];
        b.read_exact(&mut got).unwrap();
        assert!(got == payload, "the spliced bytes differ");
    }

    #[test]
    fn a_splice_into_a_full_socket_resumes_from_the_pipe() {
        if !supported() {
            return;
        }
        use std::io::{ErrorKind, Read, Write};
        use std::os::unix::net::UnixStream;
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut filler = 0;
        while let Ok(n) = a.write(&[0xEEu8; 4096]) {
            filler += n;
        }
        let (rd, wr) = pipe2().unwrap();
        // Refused past the unprivileged ceiling: the default size works too.
        let _ = set_pipe_size(&wr, 1 << 20);
        let payload = pattern(256 * 1024);
        let mut held = vmsplice(&wr, &payload).unwrap();
        let full = splice(&rd, a.as_raw_fd(), held).unwrap_err();
        assert_eq!(full.kind(), ErrorKind::WouldBlock, "the socket had room");
        let (mut sent, mut partial, mut got) = (0, false, Vec::new());
        while sent < payload.len() {
            if sent + held < payload.len() {
                match vmsplice(&wr, &payload[sent + held..]) {
                    Ok(n) => held += n,
                    Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
                }
            }
            match splice(&rd, a.as_raw_fd(), held) {
                Ok(n) => {
                    partial |= n < held;
                    (held, sent) = (held - n, sent + n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let mut buf = [0u8; 16 * 1024];
                    let n = b.read(&mut buf).unwrap();
                    got.extend_from_slice(&buf[..n]);
                }
                Err(e) => panic!("{e}"),
            }
        }
        assert!(partial, "every splice took the whole pipe");
        let mut rest = vec![0u8; filler + payload.len() - got.len()];
        b.read_exact(&mut rest).unwrap();
        got.extend(rest);
        assert!(got[..filler].iter().all(|&x| x == 0xEE));
        assert!(got[filler..] == payload[..], "the resumed bytes differ");
    }

    #[test]
    fn cma_reads_this_processes_own_memory_bit_exact() {
        if !supported() {
            return;
        }
        let src = pattern(300 * 1024);
        let mut got = vec![0u8; src.len()];
        let pid = std::process::id() as i32;
        process_vm_readv(pid, &mut got, src.as_ptr() as u64).unwrap();
        assert!(got == src, "the read bytes differ");
    }

    #[test]
    fn a_bad_source_address_is_an_io_error_not_a_fault() {
        if !supported() {
            return;
        }
        let pid = std::process::id() as i32;
        let mut got = [0u8; 64];
        // The zero page, and a range that wraps the address space.
        for addr in [8u64, u64::MAX - 16] {
            let err = process_vm_readv(pid, &mut got, addr).unwrap_err();
            assert_eq!(err.raw_os_error(), Some(14), "{addr:#x}: {err}"); // EFAULT
        }
        assert_eq!(got, [0u8; 64]);
    }

    #[test]
    fn cma_writes_into_this_processes_own_memory_bit_exact() {
        if !supported() {
            return;
        }
        let src = pattern(300 * 1024);
        let mut got = vec![0u8; src.len() + 2];
        let pid = std::process::id() as i32;
        process_vm_writev(pid, &src, got[1..].as_mut_ptr() as u64).unwrap();
        assert!(got[1..=src.len()] == src[..], "the written bytes differ");
        assert_eq!(
            (got[0], got[src.len() + 1]),
            (0, 0),
            "a write left its range"
        );
        let err = process_vm_writev(pid, &src[..64], 8).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(14)); // EFAULT
    }

    /// A cross-memory call the kernel stops short is followed by another
    /// from where it stopped (past 2 GiB, one call never moves it all);
    /// only a call that moves nothing, or fails, is an error.
    #[test]
    fn a_short_cross_memory_call_goes_on_from_where_it_stopped() {
        let (src, mut dest) = ((0..100u8).collect::<Vec<u8>>(), [0u8; 100]);
        let mut calls = Vec::new();
        moved_all(100, |k| {
            calls.push(k);
            let n = if k == 0 { 37 } else { 100 - k };
            dest[k..k + n].copy_from_slice(&src[k..k + n]);
            Ok(n)
        })
        .unwrap();
        assert_eq!((calls, &dest[..]), (vec![0, 37], &src[..]));
        let mut steps = [Ok(40), Ok(0)].into_iter();
        let stopped = moved_all(100, |_| steps.next().unwrap()).unwrap_err();
        assert!(
            stopped.to_string().contains("short: 40 of 100 B moved"),
            "{stopped}"
        );
        let mut steps = [Ok(40), Err(io::Error::from_raw_os_error(14))].into_iter();
        let failed = moved_all(100, |_| steps.next().unwrap()).unwrap_err();
        assert_eq!(failed.kind(), io::Error::from_raw_os_error(14).kind());
        assert!(failed.to_string().contains("40 of 100 B moved"), "{failed}");
    }

    /// A source whose second page has nothing behind it: the first
    /// call stops at the page, the next fails there, and the error says
    /// how far the read got.
    #[test]
    fn a_source_that_ends_part_way_is_a_short_read_error() {
        if !supported() {
            return;
        }
        let fd = memfd_create("pcomm-short-source").unwrap();
        ftruncate(fd, 4096).unwrap();
        let base = mmap_shared(fd, 8192).unwrap();
        close(fd).unwrap();
        let mut got = [0u8; 8];
        let pid = std::process::id() as i32;
        let err = process_vm_readv(pid, &mut got, base as u64 + 4092).unwrap_err();
        assert!(err.to_string().contains("4 of 8 B moved"), "{err}");
        // SAFETY: `base..base + 8192` is the one mapping made above, and
        // nothing reads it any more.
        unsafe { munmap(base, 8192).unwrap() };
    }

    /// True here; wherever Yama's `ptrace_scope` is 2 or 3 the check must
    /// say no, since sibling rank processes could not reach each other
    /// whatever they allow.
    #[test]
    fn the_cma_check_agrees_with_this_host() {
        let yama_allows = scope_allows_cma(yama_scope().as_deref());
        assert_eq!(cma_works(), supported() && yama_allows);
        if supported() && yama_allows {
            allow_cma_from_peers().unwrap();
        }
    }

    /// Every Yama scope against the carrier it allows: cross-memory
    /// attach between sibling ranks without Yama and at scopes 0 and 1
    /// (which `allow_cma_from_peers` opens), none at 2, 3 or a value
    /// the kernel never writes.
    #[test]
    fn each_yama_scope_decides_cross_memory_attach() {
        let cases = [
            (None, true),
            (Some("0"), true),
            (Some("1"), true),
            (Some("2"), false),
            (Some("3"), false),
            (Some("garbage"), false),
        ];
        for (scope, allows) in cases {
            assert_eq!(scope_allows_cma(scope), allows, "scope {scope:?}");
        }
    }

    #[test]
    fn scm_rights_passes_a_real_fd() {
        if !supported() {
            return;
        }
        use std::io::{Read, Seek, Write};
        use std::os::unix::io::{AsRawFd, FromRawFd};
        use std::os::unix::net::UnixStream;
        let (a, b) = UnixStream::pair().unwrap();
        let fd = memfd_create("pcomm-scm-test").unwrap();
        ftruncate(fd, 16).unwrap();
        send_fd(a.as_raw_fd(), fd, 7).unwrap();
        close(fd).unwrap();
        let (got, tag) = recv_fd(b.as_raw_fd()).unwrap();
        assert_eq!(tag, 7);
        // SAFETY: `got` is a fresh fd the kernel just installed for us.
        let mut f = unsafe { std::fs::File::from_raw_fd(got) };
        f.write_all(b"hello").unwrap();
        f.seek(std::io::SeekFrom::Start(0)).unwrap();
        let mut s = String::new();
        f.read_to_string(&mut s).unwrap();
        assert!(s.starts_with("hello"));
    }
}
