//! Repo lint: every `unsafe` site must carry a written justification.
//!
//! A site passes when the `unsafe` line itself carries a `// SAFETY:`
//! trailing comment, or when the contiguous block of lines directly
//! above it — comments, attributes, or sibling `unsafe impl` lines —
//! contains `SAFETY:` (block/impl justifications) or `# Safety` (the
//! rustdoc section conventionally documenting an `unsafe fn`'s
//! contract). Run from the repo root (`ci.sh` does); exits non-zero
//! listing every unjustified site.
//!
//! The transport hot path gets extra marker rules, scoped to the wire
//! engine and its carriers (`crates/core/src/{wire,transport,
//! transport_ipc}.rs`) and `crates/net/` (non-test code):
//!
//! * every `Ordering::Relaxed` load/store needs an adjacent
//!   `// ORDERING:` comment saying why relaxed is enough — these are
//!   exactly the sites where a missing fence becomes a wire-protocol
//!   heisenbug, and the audit tooling can only check what the code
//!   promises;
//! * every `unwrap()` / `expect()` needs an adjacent `// PANIC:`
//!   comment naming the invariant that makes the panic unreachable —
//!   a panic in the progress engine takes the whole mesh down, so
//!   "can't happen" must be written down where it can be reviewed;
//! * every inline-`asm!` raw-syscall site needs an adjacent
//!   `// SYSCALL:` comment naming the kernel interface it issues and
//!   why std has no safe equivalent — the ipc fabric talks to the
//!   kernel directly (`crates/net/src/sys.rs`) and each such site must
//!   be auditable against the documented ABI.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `unsafe` as a whole word in the code portion of a line.
fn has_unsafe_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let before_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// The code portion of a line: everything before a `//` comment, with a
/// crude string-literal strip so `"unsafe"` inside a string or a `//`
/// inside one do not confuse the scan.
fn code_portion(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => in_str = !in_str,
            '\\' if in_str => {
                chars.next();
            }
            '/' if !in_str && chars.peek() == Some(&'/') => break,
            _ if in_str => {}
            _ => out.push(c),
        }
    }
    out
}

/// Is this line part of a justification block when walking upwards?
fn continues_block(trimmed: &str) -> bool {
    trimmed.starts_with("//")
        || trimmed.starts_with('#')
        || trimmed.starts_with("unsafe impl")
        || trimmed.is_empty()
}

/// A site is justified when the line itself, or the contiguous block of
/// comment/attribute lines directly above it, contains any of `markers`.
fn justified_by(lines: &[&str], idx: usize, markers: &[&str]) -> bool {
    let hit = |line: &str| markers.iter().any(|m| line.contains(m));
    if hit(lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = lines[i].trim_start();
        if !continues_block(trimmed) {
            return false;
        }
        if hit(trimmed) {
            return true;
        }
    }
    false
}

fn justified(lines: &[&str], idx: usize) -> bool {
    justified_by(lines, idx, &["SAFETY:", "# Safety"])
}

/// One scoped marker rule: `pattern` in the code portion of a line
/// demands an adjacent `marker` justification comment.
struct MarkerRule {
    patterns: &'static [&'static str],
    marker: &'static str,
    what: &'static str,
}

const MARKER_RULES: &[MarkerRule] = &[
    MarkerRule {
        patterns: &["Ordering::Relaxed"],
        marker: "ORDERING:",
        what: "Relaxed atomic",
    },
    MarkerRule {
        patterns: &[".unwrap(", ".expect("],
        marker: "PANIC:",
        what: "unwrap/expect",
    },
    MarkerRule {
        patterns: &["asm!"],
        marker: "SYSCALL:",
        what: "raw syscall (inline asm)",
    },
];

/// Do the extra marker rules apply to this file? The scope is the wire
/// engine, both carriers and everything under `crates/net/` — the code
/// where a silent ordering bug or a progress-engine panic is most
/// expensive.
fn marker_scoped(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    // Integration tests get the same dispensation as `#[cfg(test)]`.
    if p.contains("/tests/") {
        return false;
    }
    const WIRE_FILES: [&str; 3] = [
        "crates/core/src/wire.rs",
        "crates/core/src/transport.rs",
        "crates/core/src/transport_ipc.rs",
    ];
    p.contains("crates/net/") || WIRE_FILES.iter().any(|f| p.ends_with(f))
}

fn scan_file(path: &Path, offenders: &mut Vec<String>) -> usize {
    let Ok(text) = fs::read_to_string(path) else {
        return 0;
    };
    let lines: Vec<&str> = text.lines().collect();
    let scoped = marker_scoped(path);
    let mut sites = 0;
    let mut in_tests = false;
    for (idx, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        // The marker rules stop at the test module: tests unwrap freely
        // and poke atomics without the hot path's obligations.
        if trimmed.starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        // Doc/comment lines mentioning unsafe are prose, not sites.
        if trimmed.starts_with("//") {
            continue;
        }
        let code = code_portion(line);
        if has_unsafe_token(&code) {
            sites += 1;
            if !justified(&lines, idx) {
                offenders.push(format!("{}:{}: {}", path.display(), idx + 1, trimmed));
            }
        }
        if !scoped || in_tests {
            continue;
        }
        for rule in MARKER_RULES {
            if !rule.patterns.iter().any(|p| code.contains(p)) {
                continue;
            }
            sites += 1;
            if !justified_by(&lines, idx, &[rule.marker]) {
                offenders.push(format!(
                    "{}:{}: {} needs `// {}`: {}",
                    path.display(),
                    idx + 1,
                    rule.what,
                    rule.marker,
                    trimmed
                ));
            }
        }
    }
    sites
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, files);
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

fn main() -> ExitCode {
    let mut files = Vec::new();
    for root in ["crates", "src", "tests", "examples", "benches"] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut offenders = Vec::new();
    let mut sites = 0;
    for f in &files {
        sites += scan_file(f, &mut offenders);
    }
    if offenders.is_empty() {
        println!(
            "safety_lint: {} justified sites (unsafe / Relaxed / unwrap / asm) across {} files",
            sites,
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "safety_lint: {} of {} sites lack a written justification:",
            offenders.len(),
            sites
        );
        for o in &offenders {
            eprintln!("  {o}");
        }
        eprintln!(
            "add a `// SAFETY: ...` (unsafe), `// ORDERING: ...` (Relaxed atomics), \
             `// PANIC: ...` (unwrap/expect), or `// SYSCALL: ...` (inline asm) comment \
             above each site"
        );
        ExitCode::FAILURE
    }
}
