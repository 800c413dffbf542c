//! Lock-free serving metrics: counters plus log-bucketed histograms with
//! approximate quantiles.

use crate::error::ServeError;
use crate::request::{ExitReason, InferResult};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-bucket histogram with exponentially growing bucket bounds.
///
/// Recording is a single atomic increment; quantiles are approximate:
/// the requested rank is linearly interpolated *within* its bucket, so
/// the error is bounded by the in-bucket distribution, not the bucket
/// width (a bucket holding a single rank still reports its upper
/// bound).
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing inclusive upper bounds; values above the last
    /// bound land in the overflow bucket.
    bounds: Vec<u64>,
    /// One counter per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram whose bucket bounds double from `first` for `buckets`
    /// buckets (plus an overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics if `first` is zero or `buckets` is zero.
    pub fn exponential(first: u64, buckets: usize) -> Self {
        assert!(first > 0 && buckets > 0, "degenerate histogram layout");
        let mut bounds = Vec::with_capacity(buckets);
        let mut b = first;
        for _ in 0..buckets {
            bounds.push(b);
            b = b.saturating_mul(2);
        }
        Self::from_bounds(bounds)
    }

    /// A histogram whose bucket bounds grow ~`1/substeps` relatively per
    /// bucket (log-linear layout) from `first` until `max` is covered.
    ///
    /// Doubling buckets over-report quantiles by up to 2× — a 180 µs
    /// p50 reads as 256. With `substeps = 8` the growth factor is 1.125,
    /// so quantiles are exact below `first + substeps` and within 12.5%
    /// everywhere else, at the cost of ~8× the buckets (still just one
    /// atomic per bucket).
    ///
    /// # Panics
    ///
    /// Panics if `first` or `substeps` is zero or `max <= first`.
    pub fn log_linear(first: u64, substeps: u64, max: u64) -> Self {
        assert!(
            first > 0 && substeps > 0 && max > first,
            "degenerate histogram layout"
        );
        let mut bounds = Vec::new();
        let mut b = first;
        while b < max {
            bounds.push(b);
            b += (b / substeps).max(1);
        }
        bounds.push(max);
        Self::from_bounds(bounds)
    }

    fn from_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Approximate `q`-quantile (`0 < q <= 1`): the rank-`ceil(q·n)`
    /// observation, linearly interpolated within its bucket `(L, U]` at
    /// `L + (U − L)·pos/count` — so a bucket whose requested rank is its
    /// last (or only) occupant reports exactly `U`, and sparse tails no
    /// longer over-report by a full bucket width. Returns 0 when empty;
    /// overflow observations report the last finite bound.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 && seen + c >= rank {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: no finite upper bound to
                    // interpolate toward.
                    break;
                };
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let pos = rank - seen; // 1..=c
                let frac = pos as f64 / c as f64;
                return lower + ((upper - lower) as f64 * frac).round() as u64;
            }
            seen += c;
        }
        *self
            .bounds
            .last()
            .expect("histogram has at least one bound")
    }
}

/// Shared counters and histograms of one [`crate::ServeRuntime`].
#[derive(Debug)]
pub struct ServeMetrics {
    /// Requests accepted into the queue.
    submitted: AtomicU64,
    /// Requests refused with `QueueFull`.
    rejected: AtomicU64,
    /// Requests refused by admission control with an explicit SHED
    /// response (load shedding; a superset trigger of `rejected` — see
    /// [`crate::shed`]).
    shed: AtomicU64,
    /// Requests answered successfully.
    completed: AtomicU64,
    /// Requests answered with an error.
    failed: AtomicU64,
    /// Requests answered `DeadlineExceeded` (counted apart from `failed`
    /// — the server worked correctly; the client's budget ran out).
    deadline_exceeded: AtomicU64,
    /// Requests answered under brownout degradation (tightened exit
    /// policy; still a success).
    degraded: AtomicU64,
    /// Panicked workers respawned by the supervisor.
    worker_restarts: AtomicU64,
    /// Models quarantined by poison-model detection.
    models_quarantined: AtomicU64,
    /// Completed requests that exited before their hard horizon.
    early_exits: AtomicU64,
    /// End-to-end latency (queue + service), µs.
    latency_us: Histogram,
    /// Queue wait, µs.
    queue_us: Histogram,
    /// Simulated time steps per request.
    steps: Histogram,
    /// Spikes per request.
    spikes: Histogram,
    /// Micro-batch occupancy seen by workers.
    batch: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            models_quarantined: AtomicU64::new(0),
            early_exits: AtomicU64::new(0),
            // 12.5%-growth buckets, 1 µs up to 2^25 µs (~33.5 s): a
            // sub-linger (µs-scale) latency lands in a bucket of its own
            // size instead of collapsing into a power-of-two bound up to
            // 2× away.
            latency_us: Histogram::log_linear(1, 8, 1 << 25),
            queue_us: Histogram::log_linear(1, 8, 1 << 25),
            // bounds up to 2^15 = 32768 steps
            steps: Histogram::exponential(1, 16),
            // bounds up to 2^26 ≈ 67M spikes
            spikes: Histogram::exponential(1, 27),
            // bounds up to 2^9 = 512 batch occupancy
            batch: Histogram::exponential(1, 10),
        }
    }
}

impl ServeMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts an accepted submission.
    pub fn observe_submit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a `QueueFull` rejection.
    pub fn observe_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request refused by admission control with an explicit
    /// SHED response.
    pub fn observe_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts the occupancy of one popped micro-batch.
    pub fn observe_batch(&self, occupancy: usize) {
        self.batch.record(occupancy as u64);
    }

    /// Counts one worker respawn after a panic.
    pub fn observe_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one model entering quarantine.
    pub fn observe_quarantine(&self) {
        self.models_quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of one served request.
    pub fn observe_result(&self, result: &InferResult) {
        match result {
            Ok(resp) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                if resp.degraded {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                }
                if resp.exit != ExitReason::HorizonReached {
                    self.early_exits.fetch_add(1, Ordering::Relaxed);
                }
                self.latency_us
                    .record(resp.queue_micros + resp.service_micros);
                self.queue_us.record(resp.queue_micros);
                self.steps.record(resp.steps as u64);
                self.spikes.record(resp.spikes);
            }
            Err(ServeError::DeadlineExceeded) => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy of every metric. `queue_depth` is supplied by
    /// the caller (the runtime knows its queue).
    pub fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            models_quarantined: self.models_quarantined.load(Ordering::Relaxed),
            early_exits: self.early_exits.load(Ordering::Relaxed),
            queue_depth,
            latency_us_p50: self.latency_us.quantile(0.50),
            latency_us_p95: self.latency_us.quantile(0.95),
            latency_us_p99: self.latency_us.quantile(0.99),
            latency_us_mean: self.latency_us.mean(),
            queue_us_mean: self.queue_us.mean(),
            steps_mean: self.steps.mean(),
            steps_p95: self.steps.quantile(0.95),
            spikes_mean: self.spikes.mean(),
            spikes_p95: self.spikes.quantile(0.95),
            batch_mean: self.batch.mean(),
        }
    }
}

/// Point-in-time metrics of a runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests refused with `QueueFull`.
    pub rejected: u64,
    /// Requests refused by admission control with an explicit SHED
    /// response.
    pub shed: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Requests answered `DeadlineExceeded` (not counted in `failed`).
    pub deadline_exceeded: u64,
    /// Requests answered under brownout degradation.
    pub degraded: u64,
    /// Panicked workers respawned by the supervisor.
    pub worker_restarts: u64,
    /// Models quarantined by poison-model detection.
    pub models_quarantined: u64,
    /// Completed requests that exited before their hard horizon.
    pub early_exits: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Median end-to-end latency, µs (approximate).
    pub latency_us_p50: u64,
    /// 95th-percentile end-to-end latency, µs (approximate).
    pub latency_us_p95: u64,
    /// 99th-percentile end-to-end latency, µs (approximate).
    pub latency_us_p99: u64,
    /// Mean end-to-end latency, µs.
    pub latency_us_mean: f64,
    /// Mean queue wait, µs.
    pub queue_us_mean: f64,
    /// Mean simulated time steps per request.
    pub steps_mean: f64,
    /// 95th-percentile time steps per request (approximate).
    pub steps_p95: u64,
    /// Mean spikes per request.
    pub spikes_mean: f64,
    /// 95th-percentile spikes per request (approximate).
    pub spikes_p95: u64,
    /// Mean micro-batch occupancy.
    pub batch_mean: f64,
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests   submitted {}  completed {}  failed {}  rejected {}  shed {}  early-exit {}",
            self.submitted, self.completed, self.failed, self.rejected, self.shed, self.early_exits
        )?;
        writeln!(
            f,
            "fault      deadline-exceeded {}  degraded {}  worker-restarts {}  quarantined {}",
            self.deadline_exceeded, self.degraded, self.worker_restarts, self.models_quarantined
        )?;
        writeln!(
            f,
            "latency µs p50 {}  p95 {}  p99 {}  mean {:.0}  (queue wait mean {:.0})",
            self.latency_us_p50,
            self.latency_us_p95,
            self.latency_us_p99,
            self.latency_us_mean,
            self.queue_us_mean
        )?;
        writeln!(
            f,
            "steps/req  mean {:.1}  p95 {}   spikes/req mean {:.0}  p95 {}",
            self.steps_mean, self.steps_p95, self.spikes_mean, self.spikes_p95
        )?;
        write!(
            f,
            "batching   mean occupancy {:.2}   queue depth {}",
            self.batch_mean, self.queue_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use crate::request::InferResponse;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::exponential(1, 10); // bounds 1,2,4,...,512
        for v in [1u64, 2, 3, 500, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 100_506.0 / 5.0).abs() < 1e-9);
        // Ranks: 1→bucket(1), 2→bucket(2), 3→bucket(4), 500→bucket(512),
        // 100k→overflow (reports last bound 512).
        assert_eq!(h.quantile(0.2), 1);
        assert_eq!(h.quantile(0.4), 2);
        assert_eq!(h.quantile(0.6), 4);
        assert_eq!(h.quantile(0.8), 512);
        assert_eq!(h.quantile(1.0), 512);
        let empty = Histogram::exponential(1, 4);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn log_linear_keeps_microsecond_latencies_apart() {
        // Regression: with doubling buckets a 180 µs observation reports
        // as 256 µs (42% high) and everything in [129, 256] collapses
        // into one bucket. The log-linear layout bounds the relative
        // over-report at 1/substeps.
        let h = Histogram::log_linear(1, 8, 1 << 25);
        for v in [40u64, 170, 180, 5_000, 1_000_000] {
            h.record(v);
            let q = h.quantile(1.0);
            assert!(
                q >= v && q as f64 <= v as f64 * 1.125 + 1.0,
                "value {v} reported as {q}"
            );
            // Reset by building a fresh histogram per value.
            let h2 = Histogram::log_linear(1, 8, 1 << 25);
            h2.record(v);
            assert_eq!(h2.quantile(0.5), h2.quantile(1.0));
        }
        // 150 and 250 µs land in different buckets (both were "256" in
        // the doubling layout).
        let fine = Histogram::log_linear(1, 8, 1 << 25);
        fine.record(150);
        fine.record(250);
        assert!(fine.quantile(0.5) < fine.quantile(1.0));
    }

    #[test]
    fn quantiles_pinned_on_synthetic_distribution() {
        // 900 × 100 µs, 90 × 5 ms, 10 × 20 ms — a typical serve shape
        // (fast mode, slow tail). True quantiles: p50 = 100, p95 = 5000
        // (rank 950), p99 = 5000 (rank 990), p99.9 = 20000 (rank 999);
        // with within-bucket interpolation each must come back within the
        // layout's 12.5% bucket width on *either* side (a mid-bucket rank
        // interpolates below the identical observations' upper bound).
        let h = Histogram::log_linear(1, 8, 1 << 25);
        for _ in 0..900 {
            h.record(100);
        }
        for _ in 0..90 {
            h.record(5_000);
        }
        for _ in 0..10 {
            h.record(20_000);
        }
        let within = |q: u64, truth: u64| {
            q as f64 >= truth as f64 / 1.125 - 1.0 && q as f64 <= truth as f64 * 1.125 + 1.0
        };
        assert!(within(h.quantile(0.50), 100), "p50 {}", h.quantile(0.50));
        assert!(within(h.quantile(0.95), 5_000), "p95 {}", h.quantile(0.95));
        assert!(within(h.quantile(0.99), 5_000), "p99 {}", h.quantile(0.99));
        assert!(
            within(h.quantile(0.999), 20_000),
            "p99.9 {}",
            h.quantile(0.999)
        );
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn quantile_interpolates_within_bucket_at_exact_ranks() {
        // exponential(1, 4) → bounds 1, 2, 4, 8. Fill bucket (4, 8] with
        // 5, 6, 7, 8: rank r interpolates to 4 + 4·r/4 = 4 + r exactly.
        let h = Histogram::exponential(1, 4);
        for v in [5u64, 6, 7, 8] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 5);
        assert_eq!(h.quantile(0.50), 6);
        assert_eq!(h.quantile(0.75), 7);
        assert_eq!(h.quantile(1.00), 8);
        // Two occupants: rank 1 of 2 lands mid-bucket, rank 2 at the
        // upper bound.
        let two = Histogram::exponential(1, 4);
        two.record(7);
        two.record(8);
        assert_eq!(two.quantile(0.5), 6, "4 + 4·(1/2)");
        assert_eq!(two.quantile(1.0), 8);
        // The first bucket interpolates from an implicit lower bound 0.
        let first = Histogram::exponential(1, 4);
        first.record(1);
        first.record(1);
        assert_eq!(first.quantile(0.5), 1, "0 + 1·(1/2) rounds up");
        assert_eq!(first.quantile(1.0), 1);
        // Overflow observations still report the last finite bound.
        let over = Histogram::exponential(1, 4);
        over.record(100);
        assert_eq!(over.quantile(1.0), 8);
    }

    #[test]
    fn metrics_aggregate_results() {
        let m = ServeMetrics::new();
        m.observe_submit();
        m.observe_submit();
        m.observe_rejected();
        m.observe_shed();
        m.observe_shed();
        m.observe_batch(2);
        let ok = InferResponse {
            prediction: 3,
            steps: 40,
            spikes: 1000,
            margin: 0.1,
            exit: ExitReason::Converged,
            model_epoch: 1,
            queue_micros: 50,
            service_micros: 450,
            batch_size: 2,
            degraded: false,
        };
        m.observe_result(&Ok(ok.clone()));
        m.observe_result(&Ok(InferResponse {
            exit: ExitReason::HorizonReached,
            degraded: true,
            ..ok
        }));
        m.observe_result(&Err(ServeError::UnknownModel("x".into())));
        m.observe_result(&Err(ServeError::DeadlineExceeded));
        m.observe_worker_restart();
        m.observe_quarantine();
        let snap = m.snapshot(5);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.failed, 1, "deadline-exceeded is not a failure");
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.models_quarantined, 1);
        assert_eq!(snap.early_exits, 1);
        assert_eq!(snap.queue_depth, 5);
        // Two identical 500 µs latencies: rank 1 of 2 interpolates to
        // the middle of 500's bucket — within one 12.5% bucket width on
        // either side of the true value.
        assert!(snap.latency_us_p50 >= 444 && snap.latency_us_p50 <= 563);
        assert!((snap.steps_mean - 40.0).abs() < 1e-9);
        assert!((snap.batch_mean - 2.0).abs() < 1e-9);
        let report = snap.to_string();
        assert!(report.contains("early-exit 1"));
        assert!(report.contains("shed 2"));
        assert!(report.contains("queue depth 5"));
        assert!(report.contains("deadline-exceeded 1"));
        assert!(report.contains("worker-restarts 1"));
    }
}
