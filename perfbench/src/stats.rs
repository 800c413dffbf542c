//! Metric arithmetic: percentiles that count failures, shares, the
//! front-end residual, and the host counters read from `/proc`.

/// Latency a failed or refused request is given: it misses any limit,
/// and is still a finite JSON number (1000 s).
pub const BEYOND_LIMIT_US: f64 = 1e9;

/// Outcome of one attempted request, as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Answered, with its latency from the scheduled send time.
    Done(f64),
    /// Shed, errored, deadline-exceeded, dropped, malformed, or answered
    /// with a result that differs from the oracle.
    Failed,
}

/// The `q`-quantile (0 < q ≤ 1) of `outcomes` by the nearest-rank rule,
/// with every failure ranked beyond every completed request. `None` for
/// an empty slice.
pub fn percentile_us(outcomes: &[Outcome], q: f64) -> Option<f64> {
    let mut done: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Done(us) => Some(*us),
            Outcome::Failed => None,
        })
        .collect();
    if outcomes.is_empty() {
        return None;
    }
    done.sort_by(f64::total_cmp);
    let rank = ((q * outcomes.len() as f64).ceil() as usize).clamp(1, outcomes.len());
    Some(done.get(rank - 1).copied().unwrap_or(BEYOND_LIMIT_US))
}

/// Plain nearest-rank quantile of finite samples (no failures).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let outcomes: Vec<Outcome> = values.iter().map(|&v| Outcome::Done(v)).collect();
    percentile_us(&outcomes, q).unwrap_or(0.0)
}

/// Median of finite samples (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Share of attempts that failed; 0 when nothing was attempted.
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// What is left of a request's client-observed latency once the server's
/// own queue and service time are taken out: the front-end's share
/// (decode, admission, socket I/O, poll-loop sleeps) plus generator lag.
/// Clamped at 0, because the server's timers truncate to whole µs.
pub fn frontend_residual_us(latency_us: f64, queue_us: u64, service_us: u64) -> f64 {
    (latency_us - queue_us as f64 - service_us as f64).max(0.0)
}

/// CPU time counters from the aggregate `cpu` line of `/proc/stat`:
/// `(steal, total)` in clock ticks. `None` when the line is missing or
/// malformed.
pub fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already included in user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Share of CPU time the hypervisor stole between two `/proc/stat`
/// readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Host CPU steal share at or below which a measurement counts as calm.
pub const STEAL_CALM: f64 = 0.05;

/// Marks the `keep` measurements that ran on the calmest host: the ones
/// with the least CPU steal (earlier first among equals). Another tenant
/// taking the machine's CPUs stalls every thread at once and moves
/// timings more than any change to the program could, so timings are
/// taken from the calmest measurements.
pub fn calmest(steal: &[f64], keep: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    let mut marked = vec![false; steal.len()];
    for &i in order.iter().take(keep) {
        marked[i] = true;
    }
    marked
}

/// Whether at least `keep` of the measurements ran on a calm host.
pub fn enough_calm(steal: &[f64], keep: usize) -> bool {
    steal.iter().filter(|&&s| s <= STEAL_CALM).count() >= keep
}

/// Reads the host's `(steal, total)` CPU ticks now.
pub fn read_proc_stat() -> Option<(u64, u64)> {
    parse_proc_stat(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_rank_beyond_every_completed_request() {
        let mut outcomes: Vec<Outcome> = (1..=18).map(|i| Outcome::Done(i as f64)).collect();
        outcomes.push(Outcome::Failed);
        outcomes.push(Outcome::Failed);
        assert_eq!(percentile_us(&outcomes, 0.5), Some(10.0));
        assert_eq!(percentile_us(&outcomes, 0.9), Some(18.0));
        assert_eq!(percentile_us(&outcomes, 0.95), Some(BEYOND_LIMIT_US));
        assert_eq!(
            percentile_us(&[Outcome::Failed], 0.5),
            Some(BEYOND_LIMIT_US)
        );
        assert_eq!(percentile_us(&[], 0.5), None);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.01), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_share_counts_against_attempts() {
        assert_eq!(failed_share(200, 5), 0.025);
        assert_eq!(failed_share(10, 0), 0.0);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn frontend_residual_subtracts_server_time() {
        assert_eq!(frontend_residual_us(740.0, 300, 85), 355.0);
        // µs truncation in the server timers can overshoot the client's
        // measurement by a microsecond or two.
        assert_eq!(frontend_residual_us(100.0, 60, 41), 0.0);
    }

    #[test]
    fn calmest_keeps_the_least_stolen() {
        let steal = [0.2, 0.0, 0.06, 0.3, 0.01];
        assert_eq!(calmest(&steal, 3), [false, true, true, false, true]);
        assert_eq!(calmest(&[0.0, 0.0, 0.0], 2), [true, true, false]);
        assert_eq!(calmest(&steal, 9), [true; 5]);
        assert!(enough_calm(&steal, 2));
        assert!(!enough_calm(&steal, 3));
    }

    #[test]
    fn steal_share_comes_from_the_aggregate_cpu_line() {
        let before = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        let after = "cpu  200 0 100 1600 20 0 10 70 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        let b = parse_proc_stat(before).unwrap();
        let a = parse_proc_stat(after).unwrap();
        assert_eq!(b, (35, 1000));
        assert_eq!(a, (70, 2000));
        assert_eq!(steal_share(b, a), 0.035);
        assert_eq!(parse_proc_stat("cpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }
}
