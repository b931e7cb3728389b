//! Process counters from `/proc` and the order statistics the reports use.

use std::time::Duration;

/// Kernel clock ticks per second of the `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process, every thread included
/// (threads that already exited too).
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / USER_HZ)
}

/// Steal time of the machine's CPUs, summed (`/proc/stat`): CPU time
/// during which the host ran something else although this machine had
/// work for the CPU. On a shared host it stretches wall-clock timings by
/// amounts that have nothing to do with the program.
pub fn stolen() -> Duration {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // `cpu  user nice system idle iowait irq softirq steal ...`
    let ticks = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linearly interpolated quantile `q` of `sorted` (ascending).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let scaled = (i as i64 + 1) * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = (scaled - j * 4) as f64;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {}
        assert!(process_cpu() > Duration::ZERO);
        let before = stolen();
        assert!(stolen() >= before);
    }
}
