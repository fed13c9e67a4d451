//! Host facts every result carries: parallelism, toolchain, commit and
//! peak memory.

use std::process::Command;

/// Worker threads the host offers (`nproc`).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's stdout, or `None` if it cannot run. Waits
/// for the child to exit.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string(),
    )
}

/// One-line host fingerprint: `nproc`, `rustc -V`, git commit and dirty
/// flag (`commit=none` outside a git checkout).
#[must_use]
pub fn fingerprint() -> String {
    let rustc = first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let commit = first_line("git", &["rev-parse", "--verify", "HEAD"]);
    let dirty = match &commit {
        Some(_) => Command::new("git")
            .args(["status", "--porcelain", "--untracked-files=no"])
            .output()
            .ok()
            .map_or("unknown", |o| {
                if o.stdout.is_empty() {
                    "false"
                } else {
                    "true"
                }
            }),
        None => "unknown",
    };
    format!(
        "nproc={} rustc=\"{rustc}\" commit={} dirty={dirty}",
        nproc(),
        commit.as_deref().unwrap_or("none")
    )
}
