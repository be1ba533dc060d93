//! What the operating system says about this process.

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of every thread of this process so far.
/// `/proc/self/stat` counts in clock ticks, which Linux fixes at 100 per
/// second for user space.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: f64 = fields.by_ref().take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib() > 1.0);
        let before = cpu_s();
        let mut x = 0u64;
        while cpu_s() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s() > before);
    }
}
