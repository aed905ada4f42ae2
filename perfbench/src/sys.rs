//! Host facts and process memory, read from `/proc` and `/sys`.

use std::path::Path;

/// Peak resident set size (`VmHWM`) of a process, in MB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(level, bytes)` of the largest cache of CPU 0, from sysfs.
pub fn last_level_cache() -> (u32, u64) {
    let mut best = (0, 0);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |name: &str| std::fs::read_to_string(format!("{dir}/{name}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(kb) => kb.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(mb) => mb.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        let level = level.trim().parse().unwrap_or(0);
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best
}

/// The L2 size of CPU 0 in bytes (0 when unknown).
pub fn l2_cache() -> u64 {
    (0..8)
        .filter_map(|index| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            (level.trim() == "2").then(|| size.trim().trim_end_matches('K').parse::<u64>().ok())?
        })
        .map(|kb| kb * 1024)
        .next()
        .unwrap_or(0)
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out git revision, when the checkout still has its `.git`
/// directory; `"unknown"` otherwise.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}
