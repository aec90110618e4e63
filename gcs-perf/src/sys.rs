//! Process and thread accounting from procfs (Linux), plus the small
//! statistics helpers every report uses. Standard library only.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`). Linux
/// fixes it at 100 for every architecture this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

/// `(comm, utime + stime in ticks)` parsed from one `/proc/.../stat`
/// line. `comm` may hold spaces or parentheses, so the fields are split
/// after the *last* `)`.
fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    // After the comm, field 3 (state) is rest[0]; utime is field 14 and
    // stime field 15.
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// CPU seconds a task has run, from the scheduler's nanosecond
/// `se.sum_exec_runtime` (in `sched`), falling back to the 10 ms
/// `utime + stime` ticks of `stat` where the kernel has no `sched`.
fn task_cpu_s(task: &Path) -> Option<f64> {
    if let Ok(sched) = fs::read_to_string(task.join("sched")) {
        let ms: Option<f64> = sched.lines().find_map(|l| {
            l.strip_prefix("se.sum_exec_runtime")?.split(':').nth(1)?.trim().parse().ok()
        });
        if let Some(ms) = ms {
            return Some(ms / 1e3);
        }
    }
    let (_, ticks) = parse_stat(&fs::read_to_string(task.join("stat")).ok()?)?;
    Some(ticks as f64 / TICKS_PER_S)
}

/// CPU seconds the calling thread has run so far.
pub fn this_thread_cpu_s() -> f64 {
    task_cpu_s(Path::new("/proc/thread-self")).unwrap_or(0.0)
}

/// CPU seconds per live thread, keyed by thread id, with the thread's
/// name. Threads the program spawns without a name inherit the name of
/// the thread that spawned them, which is what lets the benchmark
/// attribute them to a role.
pub fn thread_cpu() -> BTreeMap<u64, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else { continue };
        let path = entry.path();
        let name = fs::read_to_string(path.join("comm")).unwrap_or_default().trim().to_string();
        if let Some(cpu) = task_cpu_s(&path) {
            out.insert(tid, (name, cpu));
        }
    }
    out
}

/// CPU seconds per thread name between two [`thread_cpu`] samples.
/// Threads alive at both samples count their difference; threads born
/// in between count everything they used. Threads that ended in
/// between are not seen: callers keep the threads they measure alive,
/// or have them report their own use.
pub fn role_cpu_s(
    before: &BTreeMap<u64, (String, f64)>,
    after: &BTreeMap<u64, (String, f64)>,
) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (tid, (name, t1)) in after {
        let t0 = before.get(tid).map_or(0.0, |(_, t)| *t);
        *out.entry(name.clone()).or_default() += (t1 - t0).max(0.0);
    }
    out
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`, ...).
pub fn status_kb(field: &str) -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// SplitMix64: derives well-spread values from a seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "42 (gp node (x)) S 1 2 3 4 5 6 7 8 9 10 17 5 0 0";
        assert_eq!(parse_stat(line), Some(("gp node (x)".to_string(), 22)));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }
}
