//! Order statistics over latency samples, and the process counters read from `/proc`.

/// The percentiles the tail helper considers, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// The median of `samples` (the mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample by construction.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of `samples`, with the number of samples
/// strictly beyond it.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    // In tenths of a percent, so that 99.9 % of 10,000 is exactly rank 9,990.
    let tenths = (p * 10.0).round() as usize;
    let rank = (tenths * sorted.len())
        .div_ceil(1000)
        .clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The highest percentile of [`TAIL_PERCENTILES`] that has at least ten samples
/// beyond it, as `(percentile, value, sample count)`; `None` below 20 samples,
/// where even the median has fewer than ten samples above it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let (value, beyond) = percentile(samples, p);
        (beyond >= 10).then_some((p, value, samples.len()))
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// CPU time of the whole process so far (user + system, every thread, including
/// threads that have exited), in seconds. Clock ticks are 10 ms.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces and parentheses: split after the last ')'.
    let (_, rest) = stat
        .rsplit_once(')')
        .expect("/proc/self/stat has a command field");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| -> f64 {
        fields
            .get(index)
            .and_then(|f| f.parse::<u64>().ok())
            .expect("numeric tick field") as f64
    };
    // Fields 14 (utime) and 15 (stime) of proc(5), counted from the state field.
    (ticks(11) + ticks(12)) / 100.0
}

/// Pins the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU the process may run on; returns that CPU.
///
/// The `serve-churn` client and server then hand each request over on one CPU
/// instead of waking a second, idle virtual CPU, whose wake-up latency swings with
/// the host's load and dominated the hit latencies before pinning.
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = allowed
        .trim()
        .split(',')
        .filter_map(|range| range.rsplit('-').next()?.trim().parse::<usize>().ok())
        .max()?;
    // glibc's `cpu_set_t`: a 1024-bit mask.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a live, aligned buffer of exactly `cpusetsize` bytes that the
    // call only reads, and pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}

/// CPU time of the calling thread so far, in seconds, to the nanosecond.
pub fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let nanos: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|field| field.parse().ok())
        .expect("time on CPU is the first schedstat field");
    nanos as f64 / 1e9
}

/// The process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&samples), Some((99.0, 990.0, 1000)));
        let samples: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((99.9, 9990.0, 10_000)));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((95.0, 190.0, 200)));
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((50.0, 10.0, 20)));
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&samples), None);
    }

    #[test]
    fn percentile_counts_the_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), (50.0, 50));
        assert_eq!(percentile(&samples, 99.0), (99.0, 1));
        assert_eq!(percentile(&samples, 100.0), (100.0, 0));
    }
}
