//! Process accounting read from `/proc`: CPU time and resident memory.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI this runs on;
/// reading it properly needs `sysconf`, i.e. a libc binding the offline
/// build does not have.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds consumed by the whole process (all threads)
/// so far; `0.0` where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; everything after its
    // closing parenthesis is whitespace-separated. utime and stime are
    // fields 14 and 15, i.e. positions 11 and 12 after the name.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => (utime + stime) / TICKS_PER_SEC,
        _ => 0.0,
    }
}

/// Peak resident set size of the process so far (`VmHWM`) in MiB; `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before, "no CPU charged for a 60 ms spin");
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 1.0);
    }
}
