//! What the benchmark reads from the operating system: per-thread CPU
//! time, the process's peak resident set, and the host fingerprint that
//! every result carries.

use std::time::Instant;

/// Kernel clock ticks per second in `/proc` times. Linux fixes this
/// user-visible `USER_HZ` at 100 on every architecture it exports
/// `/proc/<pid>/stat` from, independent of the kernel's internal `HZ`.
const USER_HZ: f64 = 100.0;

/// Parse `utime + stime` (fields 14 and 15, in clock ticks) from the text
/// of a `/proc/.../stat` file. The command name (field 2) is wrapped in
/// parentheses and may itself contain spaces or parentheses, so fields
/// are counted from the *last* closing parenthesis.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime is field 14.
    let mut fields = after_comm.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|t| t as f64 / USER_HZ)
}

/// Measures how busy the calling thread is between `start` and `finish`.
pub struct CpuMeter {
    cpu0: Option<f64>,
    wall0: Instant,
}

impl CpuMeter {
    /// Start measuring on the calling thread.
    pub fn start() -> CpuMeter {
        CpuMeter { cpu0: thread_cpu_seconds(), wall0: Instant::now() }
    }

    /// Thread CPU time ÷ wall time since `start`, on the same thread.
    pub fn finish(&self) -> f64 {
        let wall = self.wall0.elapsed().as_secs_f64();
        match (self.cpu0, thread_cpu_seconds()) {
            (Some(a), Some(b)) if wall > 0.0 => (b - a) / wall,
            _ => f64::NAN,
        }
    }
}

/// A `cpu_set_t`: 1024 CPU bits, as glibc sizes it.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread to the `slot`-th CPU this process may run on
/// (modulo their count), so the simulation and analytics sides of a
/// coupling run on distinct cores — the helper-core placement — instead
/// of wherever the scheduler happens to put them on each run. Returns
/// the CPU chosen, or `None` if the affinity calls failed.
pub fn pin_current_thread(slot: usize) -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if got != 0 {
        return None;
    }
    let cpus: Vec<usize> =
        (0..1024).filter(|&c| allowed[c / 64] & (1u64 << (c % 64)) != 0).collect();
    let cpu = *cpus.get(slot % cpus.len().max(1))?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] |= 1u64 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed; the
    // kernel only reads it. pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) };
    (set == 0).then_some(cpu)
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/self/status`,
/// in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The git revision of the checkout in the working directory, read from
/// `.git` directly (no subprocess); `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host half of the fingerprint as JSON object members (no braces).
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    format!(
        "\"nproc\":{nproc},\"cpu_model\":{},\"kernel\":{},\"git_revision\":{}",
        json_str(&cpu_model()),
        json_str(&kernel()),
        json_str(&git_revision())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_reads_utime_plus_stime() {
        // Fields: pid (comm) state ppid pgrp session tty tpgid flags
        // minflt cminflt majflt cmajflt utime stime ...
        let stat = "4242 (perfbench) R 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(267));
    }

    #[test]
    fn stat_parser_survives_hostile_thread_names() {
        let stat = "7 (a) b (c) d) S 1 2 3 4 5 6 7 8 9 10 1000 24 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1024));
    }

    #[test]
    fn stat_parser_rejects_truncated_input() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3 4 5 6 7 8 9 10 oops 2"), None);
    }

    #[test]
    fn live_thread_stat_parses() {
        let t = thread_cpu_seconds().expect("/proc/thread-self/stat readable on Linux");
        assert!(t >= 0.0);
    }

    #[test]
    fn vm_hwm_parser() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS: 1 kB"), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
