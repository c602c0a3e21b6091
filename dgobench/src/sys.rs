//! Readings from `/proc` that explain a noisy run: peak memory, CPU steal and
//! time spent waiting in the run queue. All return 0 where `/proc` is absent.

use std::fs;

/// The process's peak resident set (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Host-wide CPU steal so far, in clock ticks (`/proc/stat`, `cpu` line).
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds this process's threads have spent runnable but waiting for a
/// CPU: the second field of `/proc/self/task/*/schedstat`, summed.
pub fn run_queue_wait_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|line| line.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Threads currently alive in this process.
pub fn thread_count() -> usize {
    fs::read_dir("/proc/self/task").map_or(1, |tasks| tasks.count())
}

/// Cores the host reports.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The steal and run-queue counters at one instant; the difference of two
/// snapshots is the run's context.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    steal_ticks: u64,
    wait_ns: u64,
}

impl Snapshot {
    /// Reads both counters now.
    pub fn now() -> Snapshot {
        Snapshot {
            steal_ticks: steal_ticks(),
            wait_ns: run_queue_wait_ns(),
        }
    }

    /// `(steal ticks, run-queue wait in seconds)` elapsed since `self`.
    pub fn since(self) -> (u64, f64) {
        let now = Snapshot::now();
        (
            now.steal_ticks.saturating_sub(self.steal_ticks),
            now.wait_ns.saturating_sub(self.wait_ns) as f64 * 1e-9,
        )
    }
}
