//! Host conditions: core count, CPU steal, and process peak memory.

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

/// Current aggregate CPU times, or zeros where `/proc/stat` is missing.
pub fn cpu_times() -> CpuTimes {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuTimes::default();
    };
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user/nice.
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    CpuTimes {
        total: f.iter().take(8).sum(),
        steal: f.get(7).copied().unwrap_or(0),
    }
}

/// Share of CPU time the hypervisor stole between two readings.
pub fn steal_frac(a: CpuTimes, b: CpuTimes) -> f64 {
    crate::stats::ratio(
        b.steal.saturating_sub(a.steal) as f64,
        b.total.saturating_sub(a.total) as f64,
    )
}

/// This process's peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kb() -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
