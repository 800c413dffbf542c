//! Load generators: closed-loop and open-loop.
//!
//! [`run_closed_loop`] drives N client threads, each keeping exactly one
//! request in flight (submit → wait → repeat). Closed-loop clients are
//! the honest way to measure a backpressured runtime's *capacity*:
//! offered load adapts to service rate, and `QueueFull` rejections show
//! up as retries instead of dropped samples.
//!
//! [`run_open_loop_net`] instead offers load to a TCP server on a fixed
//! [`ArrivalProcess`] schedule that does **not** adapt to the server —
//! the only honest way to measure a latency SLO at a stated offered
//! rate, and the only way to provoke load shedding on purpose.
//! Latency is measured from each request's *scheduled* arrival time, so
//! a generator that falls behind charges its own lateness to the server
//! rather than silently thinning the offered load (no coordinated
//! omission).

use crate::metrics::Histogram;
use crate::net::{decode_response, encode_request_with_deadline, FrameReader, NetResponse};
use crate::request::{ExitPolicy, ExitReason, InferRequest};
use crate::runtime::ServeRuntime;
use crate::ServeError;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What to offer the runtime.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Total requests to issue across all clients.
    pub total_requests: usize,
    /// Concurrent closed-loop clients.
    pub concurrency: usize,
    /// Exit policy attached to every request.
    pub policy: ExitPolicy,
    /// Registry model name to target.
    pub model: String,
}

/// Aggregate result of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests answered with an error.
    pub errors: usize,
    /// `QueueFull` rejections that were retried.
    pub queue_full_retries: u64,
    /// Completed requests that exited before their hard horizon.
    pub early_exits: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Completed requests per second of wall clock.
    pub throughput_rps: f64,
    /// Mean simulated time steps per completed request.
    pub mean_steps: f64,
    /// Mean spikes per completed request.
    pub mean_spikes: f64,
}

/// Drives `runtime` with `spec.concurrency` closed-loop clients cycling
/// over `images` until `spec.total_requests` requests have been answered.
///
/// `QueueFull` is retried after a yield (and counted); any other error is
/// counted as a failure and the client moves on.
pub fn run_closed_loop(runtime: &ServeRuntime, images: &[Vec<f32>], spec: &LoadSpec) -> LoadReport {
    assert!(
        !images.is_empty(),
        "load generator needs at least one image"
    );
    let clients = spec.concurrency.max(1);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    // Per-client tallies: (completed, errors, retries, early, steps, spikes).
    let mut tallies: Vec<(usize, usize, u64, usize, u64, u64)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for _ in 0..clients {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut completed = 0usize;
                let mut errors = 0usize;
                let mut retries = 0u64;
                let mut early = 0usize;
                let mut steps = 0u64;
                let mut spikes = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= spec.total_requests {
                        break;
                    }
                    // Closed loop with retry-on-backpressure. The request
                    // is built per attempt (submit consumes it), so the
                    // common no-retry path pays exactly one image clone.
                    let handle = loop {
                        let request = InferRequest::new(
                            images[i % images.len()].clone(),
                            spec.model.clone(),
                            spec.policy.clone(),
                        );
                        match runtime.submit(request) {
                            Ok(h) => break Some(h),
                            Err(ServeError::QueueFull) => {
                                retries += 1;
                                std::thread::yield_now();
                            }
                            Err(_) => break None,
                        }
                    };
                    match handle.map(|h| h.wait()) {
                        Some(Ok(resp)) => {
                            completed += 1;
                            steps += resp.steps as u64;
                            spikes += resp.spikes;
                            if resp.exit != ExitReason::HorizonReached {
                                early += 1;
                            }
                        }
                        Some(Err(_)) | None => errors += 1,
                    }
                }
                (completed, errors, retries, early, steps, spikes)
            }));
        }
        tallies = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let elapsed = started.elapsed();
    let completed: usize = tallies.iter().map(|t| t.0).sum();
    let errors: usize = tallies.iter().map(|t| t.1).sum();
    let queue_full_retries: u64 = tallies.iter().map(|t| t.2).sum();
    let early_exits: usize = tallies.iter().map(|t| t.3).sum();
    let steps: u64 = tallies.iter().map(|t| t.4).sum();
    let spikes: u64 = tallies.iter().map(|t| t.5).sum();
    LoadReport {
        completed,
        errors,
        queue_full_retries,
        early_exits,
        elapsed,
        throughput_rps: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        mean_steps: steps as f64 / completed.max(1) as f64,
        mean_spikes: spikes as f64 / completed.max(1) as f64,
    }
}

// ---------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------

/// A deterministic arrival schedule for open-loop load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// One request every `1/rps` seconds.
    FixedRate {
        /// Offered requests per second.
        rps: f64,
    },
    /// `burst` requests back-to-back every `burst/rps` seconds — the same
    /// average rate as `FixedRate`, concentrated into periodic spikes
    /// that exercise the queue and the shedder.
    Bursty {
        /// Average offered requests per second.
        rps: f64,
        /// Requests per burst.
        burst: usize,
    },
}

impl ArrivalProcess {
    /// The average offered rate in requests per second.
    pub fn rps(&self) -> f64 {
        match *self {
            ArrivalProcess::FixedRate { rps } | ArrivalProcess::Bursty { rps, .. } => rps,
        }
    }

    /// The scheduled arrival offsets (from run start) over `duration`,
    /// in order.
    pub fn offsets(&self, duration: Duration) -> Vec<Duration> {
        let secs = duration.as_secs_f64();
        match *self {
            ArrivalProcess::FixedRate { rps } => {
                assert!(rps > 0.0, "rate must be positive");
                let n = (secs * rps).floor().max(1.0) as usize;
                (0..n)
                    .map(|i| Duration::from_secs_f64(i as f64 / rps))
                    .collect()
            }
            ArrivalProcess::Bursty { rps, burst } => {
                assert!(rps > 0.0 && burst > 0, "rate and burst must be positive");
                let n = (secs * rps).floor().max(1.0) as usize;
                let period = burst as f64 / rps;
                (0..n)
                    .map(|i| Duration::from_secs_f64((i / burst) as f64 * period))
                    .collect()
            }
        }
    }
}

/// What to offer, open-loop.
#[derive(Debug, Clone)]
pub struct OpenLoadSpec {
    /// How long to keep offering load.
    pub duration: Duration,
    /// The arrival schedule.
    pub arrival: ArrivalProcess,
    /// TCP connections; the schedule is split round-robin across them.
    pub connections: usize,
    /// Exit policy attached to every request.
    pub policy: ExitPolicy,
    /// Registry model name to target.
    pub model: String,
    /// How long to wait for in-flight responses after the schedule ends.
    pub drain_timeout: Duration,
    /// Optional per-request deadline, measured from each request's
    /// *scheduled* arrival (a generator that falls behind charges its
    /// own lateness against the deadline, consistent with how latency
    /// is measured). `None` sends no deadline.
    pub deadline: Option<Duration>,
}

impl OpenLoadSpec {
    /// A spec against `model` with the given schedule and defaults for
    /// the rest (one connection, recommended policy, 5 s drain).
    pub fn new(model: impl Into<String>, arrival: ArrivalProcess, duration: Duration) -> Self {
        OpenLoadSpec {
            duration,
            arrival,
            connections: 1,
            policy: ExitPolicy::recommended(96),
            model: model.into(),
            drain_timeout: Duration::from_secs(5),
            deadline: None,
        }
    }
}

/// Aggregate result of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoadReport {
    /// Requests the schedule offered.
    pub offered: usize,
    /// Requests the server admitted: offered minus shed, deadline
    /// refusals, errors and protocol errors.
    pub admitted: usize,
    /// Admitted requests answered successfully.
    pub completed: usize,
    /// Requests refused with an explicit SHED.
    pub shed: usize,
    /// Requests answered `DEADLINE_EXCEEDED` (refused at admission or
    /// expired before a batch lane would take them).
    pub deadline_exceeded: usize,
    /// Completed requests served under brownout with a tightened exit
    /// policy (the response's degraded flag; a subset of `completed`).
    pub degraded: usize,
    /// Requests answered with an error (or rejected non-shed).
    pub errors: usize,
    /// Admitted requests still unanswered when the drain timeout hit.
    pub dropped: usize,
    /// Undecodable/unexpected wire frames (networked runs only).
    pub protocol_errors: usize,
    /// Wall-clock duration including the drain.
    pub elapsed: Duration,
    /// Offered rate over the scheduled window.
    pub offered_rps: f64,
    /// Completed requests per second of scheduled window.
    pub completed_rps: f64,
    /// p50 latency of completed requests, µs (from scheduled arrival).
    pub latency_us_p50: u64,
    /// p95 latency of completed requests, µs.
    pub latency_us_p95: u64,
    /// p99 latency of completed requests, µs.
    pub latency_us_p99: u64,
    /// Mean latency of completed requests, µs.
    pub latency_us_mean: f64,
}

impl OpenLoadReport {
    /// The report as a machine-readable JSON object (one line, no
    /// external dependencies). Keys match the field names; `elapsed`
    /// is emitted as `elapsed_secs`.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"offered\":{},\"admitted\":{},\"completed\":{},",
                "\"shed\":{},\"deadline_exceeded\":{},\"degraded\":{},",
                "\"errors\":{},\"dropped\":{},",
                "\"protocol_errors\":{},\"elapsed_secs\":{:.6},",
                "\"offered_rps\":{:.3},\"completed_rps\":{:.3},",
                "\"latency_us_p50\":{},\"latency_us_p95\":{},",
                "\"latency_us_p99\":{},\"latency_us_mean\":{:.1}}}"
            ),
            self.offered,
            self.admitted,
            self.completed,
            self.shed,
            self.deadline_exceeded,
            self.degraded,
            self.errors,
            self.dropped,
            self.protocol_errors,
            self.elapsed.as_secs_f64(),
            self.offered_rps,
            self.completed_rps,
            self.latency_us_p50,
            self.latency_us_p95,
            self.latency_us_p99,
            self.latency_us_mean,
        )
    }
}

impl fmt::Display for OpenLoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "open-loop  offered {} ({:.0} rps)  admitted {}  completed {} ({:.0} rps)",
            self.offered, self.offered_rps, self.admitted, self.completed, self.completed_rps
        )?;
        writeln!(
            f,
            "outcomes   shed {}  deadline-exceeded {}  degraded {}  errors {}  dropped {}  \
             protocol-errors {}",
            self.shed,
            self.deadline_exceeded,
            self.degraded,
            self.errors,
            self.dropped,
            self.protocol_errors
        )?;
        write!(
            f,
            "latency µs p50 {}  p95 {}  p99 {}  mean {:.1}  (from scheduled arrival)",
            self.latency_us_p50, self.latency_us_p95, self.latency_us_p99, self.latency_us_mean
        )
    }
}

/// Shared tallies for one open-loop run (senders and readers bump them;
/// the report reads them once at the end).
#[derive(Default)]
struct OpenTally {
    offered: AtomicUsize,
    completed: AtomicUsize,
    shed: AtomicUsize,
    deadline_exceeded: AtomicUsize,
    degraded: AtomicUsize,
    errors: AtomicUsize,
    dropped: AtomicUsize,
    protocol_errors: AtomicUsize,
}

fn open_report(
    tally: &OpenTally,
    latency: &Histogram,
    spec: &OpenLoadSpec,
    elapsed: Duration,
) -> OpenLoadReport {
    let offered = tally.offered.load(Ordering::Relaxed);
    let completed = tally.completed.load(Ordering::Relaxed);
    let shed = tally.shed.load(Ordering::Relaxed);
    let deadline_exceeded = tally.deadline_exceeded.load(Ordering::Relaxed);
    let errors = tally.errors.load(Ordering::Relaxed);
    let protocol_errors = tally.protocol_errors.load(Ordering::Relaxed);
    let window = spec.duration.as_secs_f64().max(1e-9);
    OpenLoadReport {
        offered,
        // Over the wire, everything sent that wasn't refused (shed,
        // deadline-expired at admission) or errored was admitted by the
        // server. Deadline refusals past admission are indistinguishable
        // from admission-time ones on the wire, so all count as not
        // admitted — the conservative reading for capacity claims.
        admitted: offered.saturating_sub(shed + deadline_exceeded + errors + protocol_errors),
        completed,
        shed,
        deadline_exceeded,
        degraded: tally.degraded.load(Ordering::Relaxed),
        errors,
        dropped: tally.dropped.load(Ordering::Relaxed),
        protocol_errors,
        elapsed,
        offered_rps: offered as f64 / window,
        completed_rps: completed as f64 / window,
        latency_us_p50: latency.quantile(0.50),
        latency_us_p95: latency.quantile(0.95),
        latency_us_p99: latency.quantile(0.99),
        latency_us_mean: latency.mean(),
    }
}

fn latency_histogram() -> Histogram {
    // 12.5% bucket growth from 1 µs to ~33 s.
    Histogram::log_linear(1, 8, 1 << 25)
}

/// Sleeps until `deadline`; returns at once if it has passed. It never
/// spins, so sender threads leave the CPU to the server they measure.
/// Latency runs from the scheduled arrival, so oversleeping is still
/// counted.
fn wait_until(deadline: Instant) {
    if let Some(remaining) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(remaining);
    }
}

/// Offers `spec.arrival` to a [`crate::net::NetServer`] at `addr` over
/// `spec.connections` TCP connections (one sender + one reader thread
/// each), cycling over `images`.
///
/// Server-side SHED responses are counted, never retried. Undecodable
/// frames count as protocol errors. Latency is measured from scheduled
/// arrival to response decode.
pub fn run_open_loop_net<A: ToSocketAddrs>(
    addr: A,
    images: &[Vec<f32>],
    spec: &OpenLoadSpec,
) -> std::io::Result<OpenLoadReport> {
    assert!(
        !images.is_empty(),
        "load generator needs at least one image"
    );
    let offsets = spec.arrival.offsets(spec.duration);
    let connections = spec.connections.max(1);
    let streams: Vec<TcpStream> = (0..connections)
        .map(|_| {
            let addr = addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no addr"))?;
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()?;
    let tally = OpenTally::default();
    let latency = latency_histogram();
    let started = Instant::now();

    std::thread::scope(|scope| -> std::io::Result<()> {
        for (c, stream) in streams.into_iter().enumerate() {
            let reader_stream = stream.try_clone()?;
            reader_stream.set_read_timeout(Some(Duration::from_millis(50)))?;
            let in_flight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
            let done_sending = Arc::new(AtomicBool::new(false));
            let tally = &tally;
            let latency = &latency;
            let offsets = &offsets;
            let spec_ref = spec;

            // Reader: drain responses until the sender is done AND
            // nothing is in flight (or the drain deadline passes).
            let reader_inflight = Arc::clone(&in_flight);
            let reader_done = Arc::clone(&done_sending);
            scope.spawn(move || {
                let mut frames = FrameReader::new(reader_stream, 1 << 20);
                let hard_deadline = started + spec_ref.duration + spec_ref.drain_timeout;
                loop {
                    if reader_done.load(Ordering::Acquire) {
                        let pending = reader_inflight.lock().unwrap().len();
                        if pending == 0 {
                            break;
                        }
                        if Instant::now() > hard_deadline {
                            tally.dropped.fetch_add(pending, Ordering::Relaxed);
                            break;
                        }
                    }
                    match frames.next_frame() {
                        Ok(Some(payload)) => {
                            let Ok(response) = decode_response(&payload) else {
                                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                continue;
                            };
                            let scheduled = reader_inflight
                                .lock()
                                .unwrap()
                                .remove(&response.request_id());
                            match response {
                                NetResponse::Ok { response, .. } => {
                                    tally.completed.fetch_add(1, Ordering::Relaxed);
                                    if response.degraded {
                                        tally.degraded.fetch_add(1, Ordering::Relaxed);
                                    }
                                    if let Some(at) = scheduled {
                                        latency.record(at.elapsed().as_micros().max(1) as u64);
                                    }
                                }
                                NetResponse::Shed { .. } => {
                                    tally.shed.fetch_add(1, Ordering::Relaxed);
                                }
                                NetResponse::DeadlineExceeded { .. } => {
                                    tally.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                                }
                                NetResponse::Error { .. } => {
                                    tally.errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Ok(None) => break, // server closed cleanly
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            if Instant::now() > hard_deadline {
                                let pending = reader_inflight.lock().unwrap().len();
                                tally.dropped.fetch_add(pending, Ordering::Relaxed);
                                break;
                            }
                        }
                        Err(_) => {
                            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });

            // Sender: walk this connection's slice of the schedule.
            scope.spawn(move || {
                let mut stream = stream;
                let mut buf = Vec::with_capacity(1024);
                let mut id = 0u64;
                for (i, offset) in offsets.iter().enumerate().skip(c).step_by(connections) {
                    let scheduled = started + *offset;
                    wait_until(scheduled);
                    id += 1;
                    buf.clear();
                    // The wire deadline is relative to server receipt; a
                    // late sender has already burned part of its budget,
                    // so ship only what remains of the scheduled window.
                    let deadline_us = spec_ref.deadline.map_or(0, |d| {
                        let remaining = (scheduled + d).saturating_duration_since(Instant::now());
                        u64::try_from(remaining.as_micros())
                            .unwrap_or(u64::MAX)
                            .max(1)
                    });
                    if encode_request_with_deadline(
                        &mut buf,
                        id,
                        &spec_ref.model,
                        &spec_ref.policy,
                        &images[i % images.len()],
                        deadline_us,
                    )
                    .is_err()
                    {
                        tally.errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    tally.offered.fetch_add(1, Ordering::Relaxed);
                    // On the wire, "admitted" is only known from the
                    // response; count sends, and let SHED/ERROR subtract.
                    in_flight.lock().unwrap().insert(id, scheduled);
                    if stream.write_all(&buf).is_err() {
                        in_flight.lock().unwrap().remove(&id);
                        tally.errors.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
                done_sending.store(true, Ordering::Release);
                let _ = stream.shutdown(Shutdown::Write);
            });
        }
        Ok(())
    })?;

    Ok(open_report(&tally, &latency, spec, started.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_schedule_is_evenly_spaced() {
        let offsets = ArrivalProcess::FixedRate { rps: 100.0 }.offsets(Duration::from_secs(2));
        assert_eq!(offsets.len(), 200);
        assert_eq!(offsets[0], Duration::ZERO);
        for pair in offsets.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(
                (gap.as_secs_f64() - 0.01).abs() < 1e-9,
                "gap {gap:?} should be 10ms"
            );
        }
    }

    #[test]
    fn bursty_schedule_groups_arrivals_at_the_same_average_rate() {
        let arrival = ArrivalProcess::Bursty {
            rps: 100.0,
            burst: 25,
        };
        let offsets = arrival.offsets(Duration::from_secs(1));
        assert_eq!(offsets.len(), 100, "same average rate as fixed");
        // Four groups of 25, each group at one instant, 250ms apart.
        for (i, offset) in offsets.iter().enumerate() {
            let expected = Duration::from_secs_f64((i / 25) as f64 * 0.25);
            assert_eq!(*offset, expected, "arrival {i}");
        }
        assert!((arrival.rps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn report_json_carries_every_field() {
        let report = OpenLoadReport {
            offered: 100,
            admitted: 90,
            completed: 80,
            shed: 10,
            deadline_exceeded: 3,
            degraded: 2,
            errors: 5,
            dropped: 5,
            protocol_errors: 0,
            elapsed: Duration::from_millis(1500),
            offered_rps: 66.67,
            completed_rps: 53.33,
            latency_us_p50: 120,
            latency_us_p95: 450,
            latency_us_p99: 900,
            latency_us_mean: 180.5,
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"offered\":100",
            "\"admitted\":90",
            "\"completed\":80",
            "\"shed\":10",
            "\"deadline_exceeded\":3",
            "\"degraded\":2",
            "\"errors\":5",
            "\"dropped\":5",
            "\"protocol_errors\":0",
            "\"elapsed_secs\":1.500000",
            "\"latency_us_p50\":120",
            "\"latency_us_p95\":450",
            "\"latency_us_p99\":900",
            "\"latency_us_mean\":180.5",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn tiny_duration_offers_at_least_one_request() {
        let offsets = ArrivalProcess::FixedRate { rps: 1.0 }.offsets(Duration::from_millis(100));
        assert_eq!(offsets.len(), 1);
    }
}
