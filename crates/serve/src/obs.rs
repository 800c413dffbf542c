//! Observability: request lifecycle tracing, metrics exposition, and
//! per-model engine profiles.
//!
//! Three surfaces, one module:
//!
//! * **[`Tracer`]** — a lock-free ring buffer of timestamped span
//!   events covering a request's whole lifecycle (arrival → shed or
//!   queue wait → lockstep batch → per-lane service → response flush).
//!   Recording is sampled ([`TraceConfig::sample_every`]) so the hot
//!   path pays one relaxed counter increment per unsampled request, and
//!   [`export_chrome`](Tracer::export_chrome) writes Chrome
//!   trace-event JSON that loads directly in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * **[`MetricsHub`]** — aggregates every layer's counters (runtime
//!   [`crate::metrics::ServeMetrics`], front-end `NetStats`, snapshot
//!   watcher counters, per-model epochs and stage profiles) into one
//!   Prometheus-style text dump, served over the wire by the `STATS`
//!   frame ([`crate::net::KIND_STATS`]) or `bsnn_server
//!   --metrics-addr`. [`parse_metric`] reads a single sample back out
//!   of a dump — used by `bsnn_loadgen --check-shed-metrics` to
//!   reconcile observed SHED responses against the server's counters.
//! * **Stage profiles** — [`format_profile`] renders a
//!   [`bsnn_core::ProfileSnapshot`] (per-stage dense/sparse/packed/
//!   cached kernel counts, mean firing density, kernel wall time) the way the
//!   demo binaries print it at exit; the same numbers appear as
//!   `bsnn_model_stage_*` series in the Prometheus dump.
//!
//! ## Trace ring semantics
//!
//! Writers claim a slot with one atomic `fetch_add` and stamp a
//! sequence number *after* the payload fields, so readers can detect
//! and skip slots that are mid-write or have wrapped. The ring is a
//! best-effort diagnostic surface: under concurrent wrap-around a
//! reader may skip a torn slot, and the ring only keeps the most recent
//! `capacity` events — neither ever blocks or slows a writer.

use crate::metrics::MetricsSnapshot;
use crate::net::NetStatsHandle;
use crate::runtime::ServeRuntime;
use crate::watch::WatchStatsHandle;
use bsnn_core::ProfileSnapshot;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning knobs of a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Record every Nth request lifecycle (`0` disables tracing
    /// entirely; `1` traces every request). Sampling keeps the steady-
    /// state cost to one relaxed counter increment per request.
    pub sample_every: u32,
    /// Ring capacity in events; the ring keeps the most recent
    /// `capacity` events (values below 16 are raised to 16).
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 0,
            capacity: 4096,
        }
    }
}

/// What a trace span marks in the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A request arrived at `submit` (instant; tid 0 = front-end).
    Arrival,
    /// Admission control refused the request (`a` = shed-reason code).
    Shed,
    /// Queue wait: from enqueue to a worker popping it (complete span).
    Queued,
    /// One lockstep batch on a worker (`a` = lockstep width).
    Batch,
    /// One sampled lane from batch start to retirement (`a` = steps,
    /// `b` = prediction).
    Service,
    /// The lane's response is handed to its slot (instant, recorded
    /// just before the slot is fulfilled).
    Flush,
}

impl SpanKind {
    /// Event name as exported to the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Arrival => "arrival",
            SpanKind::Shed => "shed",
            SpanKind::Queued => "queued",
            SpanKind::Batch => "batch",
            SpanKind::Service => "service",
            SpanKind::Flush => "flush",
        }
    }

    /// Whether the span has a duration (`ph: "X"`) or marks an instant
    /// (`ph: "i"`).
    pub fn is_complete(self) -> bool {
        matches!(self, SpanKind::Queued | SpanKind::Batch | SpanKind::Service)
    }

    fn code(self) -> u64 {
        match self {
            SpanKind::Arrival => 1,
            SpanKind::Shed => 2,
            SpanKind::Queued => 3,
            SpanKind::Batch => 4,
            SpanKind::Service => 5,
            SpanKind::Flush => 6,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(SpanKind::Arrival),
            2 => Some(SpanKind::Shed),
            3 => Some(SpanKind::Queued),
            4 => Some(SpanKind::Batch),
            5 => Some(SpanKind::Service),
            6 => Some(SpanKind::Flush),
            _ => None,
        }
    }
}

/// One recorded span, read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the span marks.
    pub kind: SpanKind,
    /// Worker index (0 = front-end / submit path).
    pub tid: u64,
    /// Sample token correlating the spans of one request lifecycle.
    pub token: u64,
    /// Start time, µs since the tracer was created.
    pub ts_us: u64,
    /// Duration in µs (0 for instant events).
    pub dur_us: u64,
    /// Kind-specific payload (shed reason, lockstep width, steps).
    pub a: u64,
    /// Second kind-specific payload (prediction for `Service`).
    pub b: u64,
}

#[derive(Debug, Default)]
struct TraceSlot {
    /// 0 = never written; otherwise the claim number + 1, stamped after
    /// the payload fields so readers can skip mid-write slots.
    seq: AtomicU64,
    kind: AtomicU64,
    tid: AtomicU64,
    token: AtomicU64,
    ts: AtomicU64,
    dur: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// Lock-free sampled ring buffer of request lifecycle spans.
///
/// Shared by the submit path, admission control, and every worker; all
/// recording methods take `&self` and never block. See the module docs
/// for the ring's consistency guarantees.
#[derive(Debug)]
pub struct Tracer {
    sample_every: u64,
    epoch: Instant,
    head: AtomicU64,
    seen: AtomicU64,
    tokens: AtomicU64,
    slots: Vec<TraceSlot>,
}

impl Tracer {
    /// A tracer with `cfg`'s sampling rate and ring capacity. With
    /// `sample_every == 0` the ring is not allocated and every method
    /// is a cheap no-op.
    pub fn new(cfg: &TraceConfig) -> Self {
        let slots = if cfg.sample_every == 0 {
            Vec::new()
        } else {
            let cap = cfg.capacity.max(16);
            (0..cap).map(|_| TraceSlot::default()).collect()
        };
        Tracer {
            sample_every: cfg.sample_every as u64,
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            seen: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            slots,
        }
    }

    /// Whether any recording can happen at all.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Decides whether the next request lifecycle is traced; `Some`
    /// returns a fresh token that correlates all of its spans.
    pub fn sample(&self) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.sample_every)
            .then(|| self.tokens.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Microseconds elapsed from tracer creation to `at` (saturating to
    /// zero for instants before it).
    pub fn micros_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records an instant event at "now".
    pub fn instant(&self, kind: SpanKind, tid: u64, token: u64, a: u64) {
        let ts = self.micros_at(Instant::now());
        self.record(kind, tid, token, ts, 0, a, 0);
    }

    /// Records a complete span from `start` to "now".
    pub fn complete(&self, kind: SpanKind, tid: u64, token: u64, start: Instant, a: u64, b: u64) {
        let dur = start.elapsed().as_micros() as u64;
        self.record(kind, tid, token, self.micros_at(start), dur, a, b);
    }

    #[allow(clippy::too_many_arguments)]
    fn record(&self, kind: SpanKind, tid: u64, token: u64, ts: u64, dur: u64, a: u64, b: u64) {
        if self.slots.is_empty() {
            return;
        }
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim % self.slots.len() as u64) as usize];
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.tid.store(tid, Ordering::Relaxed);
        slot.token.store(token, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.dur.store(dur, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(claim + 1, Ordering::Release);
    }

    /// All readable events, oldest first by timestamp. Slots that are
    /// mid-write while this runs are skipped, not blocked on.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for slot in &self.slots {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let event = TraceEvent {
                kind: match SpanKind::from_code(slot.kind.load(Ordering::Relaxed)) {
                    Some(kind) => kind,
                    None => continue,
                },
                tid: slot.tid.load(Ordering::Relaxed),
                token: slot.token.load(Ordering::Relaxed),
                ts_us: slot.ts.load(Ordering::Relaxed),
                dur_us: slot.dur.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // overwritten while reading — skip the torn slot
            }
            events.push(event);
        }
        events.sort_by_key(|e| (e.ts_us, e.token));
        events
    }

    /// Serializes the ring as a Chrome trace-event JSON array, loadable
    /// in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
    /// Complete spans render as `ph: "X"` slices on the recording
    /// worker's track; arrival/shed/flush are thread-scoped instants.
    pub fn export_chrome(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push('[');
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"{}\",\"ts\":{},",
                e.kind.name(),
                if e.kind.is_complete() { "X" } else { "i" },
                e.ts_us
            );
            if e.kind.is_complete() {
                let _ = write!(out, "\"dur\":{},", e.dur_us);
            } else {
                out.push_str("\"s\":\"t\",");
            }
            let _ = write!(
                out,
                "\"pid\":0,\"tid\":{},\"args\":{{\"token\":{}",
                e.tid, e.token
            );
            match e.kind {
                SpanKind::Shed => {
                    let _ = write!(out, ",\"reason\":{}", e.a);
                }
                SpanKind::Batch => {
                    let _ = write!(out, ",\"width\":{}", e.a);
                }
                SpanKind::Service => {
                    let _ = write!(out, ",\"steps\":{},\"prediction\":{}", e.a, e.b);
                }
                SpanKind::Arrival | SpanKind::Queued | SpanKind::Flush => {}
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

// ---------------------------------------------------------------------
// Metrics exposition
// ---------------------------------------------------------------------

/// Aggregates every layer's counters into one Prometheus-style text
/// dump: runtime metrics and queue depth from the [`ServeRuntime`],
/// per-model epoch and stage profiles from its registry, and (when
/// wired in) front-end [`NetStatsHandle`] and snapshot-watcher
/// [`WatchStatsHandle`] counters.
///
/// [`crate::net::NetServer::bind`] builds a hub over its runtime with
/// its own net stats pre-wired; callers add the watcher with
/// [`set_watch_stats`](Self::set_watch_stats).
#[derive(Debug)]
pub struct MetricsHub {
    runtime: Arc<ServeRuntime>,
    net: Mutex<Option<NetStatsHandle>>,
    watch: Mutex<Option<WatchStatsHandle>>,
}

impl MetricsHub {
    /// A hub over `runtime` with no front-end or watcher sources yet.
    pub fn new(runtime: Arc<ServeRuntime>) -> Self {
        MetricsHub {
            runtime,
            net: Mutex::new(None),
            watch: Mutex::new(None),
        }
    }

    /// The runtime the hub reads from.
    pub fn runtime(&self) -> &Arc<ServeRuntime> {
        &self.runtime
    }

    /// Adds (or replaces) the front-end counter source.
    pub fn set_net_stats(&self, handle: NetStatsHandle) {
        *self.net.lock().expect("hub poisoned") = Some(handle);
    }

    /// Adds (or replaces) the snapshot-watcher counter source.
    pub fn set_watch_stats(&self, handle: WatchStatsHandle) {
        *self.watch.lock().expect("hub poisoned") = Some(handle);
    }

    /// Renders every known counter as Prometheus text exposition
    /// (`name{labels} value` lines; `#` lines are comments).
    pub fn render_prometheus(&self) -> String {
        let snap = self.runtime.metrics();
        let mut out = String::with_capacity(2048);
        out.push_str("# bsnn server metrics (Prometheus text exposition)\n");
        render_runtime(&mut out, &snap);
        if let Some(net) = self.net.lock().expect("hub poisoned").as_ref() {
            let n = net.snapshot();
            out.push_str("# TYPE bsnn_net_connections_accepted_total counter\n");
            let _ = writeln!(out, "bsnn_net_connections_accepted_total {}", n.accepted);
            let _ = writeln!(out, "bsnn_net_connections_closed_total {}", n.closed);
            let _ = writeln!(
                out,
                "bsnn_net_connections_refused_total {}",
                n.refused_connections
            );
            let _ = writeln!(out, "bsnn_net_timeouts_total {}", n.timeouts);
            let _ = writeln!(out, "bsnn_net_frames_in_total {}", n.frames_in);
            let _ = writeln!(out, "bsnn_net_responses_ok_total {}", n.responses_ok);
            let _ = writeln!(out, "bsnn_net_responses_shed_total {}", n.responses_shed);
            let _ = writeln!(out, "bsnn_net_responses_error_total {}", n.responses_error);
            let _ = writeln!(
                out,
                "bsnn_net_responses_deadline_total {}",
                n.responses_deadline
            );
            let _ = writeln!(
                out,
                "bsnn_net_responses_degraded_total {}",
                n.responses_degraded
            );
            let _ = writeln!(out, "bsnn_net_protocol_errors_total {}", n.protocol_errors);
            let _ = writeln!(out, "bsnn_net_bytes_in_total {}", n.bytes_in);
            let _ = writeln!(out, "bsnn_net_bytes_out_total {}", n.bytes_out);
        }
        if let Some(watch) = self.watch.lock().expect("hub poisoned").as_ref() {
            let w = watch.snapshot();
            out.push_str("# TYPE bsnn_watch_scans_total counter\n");
            let _ = writeln!(out, "bsnn_watch_scans_total {}", w.scans);
            let _ = writeln!(out, "bsnn_watch_installs_total {}", w.installs);
            let _ = writeln!(out, "bsnn_watch_removals_total {}", w.removals);
            let _ = writeln!(out, "bsnn_watch_failures_total {}", w.failures);
            let _ = writeln!(
                out,
                "bsnn_watch_checksum_failures_total {}",
                w.checksum_failures
            );
        }
        let registry = self.runtime.registry();
        for name in registry.names() {
            let Some(entry) = registry.get(&name) else {
                continue;
            };
            let label = escape_label(&name);
            let _ = writeln!(
                out,
                "bsnn_model_epoch{{model=\"{label}\"}} {}",
                entry.epoch()
            );
            let profile = entry.profile().snapshot();
            let _ = writeln!(
                out,
                "bsnn_model_batches_total{{model=\"{label}\"}} {}",
                profile.batches
            );
            let _ = writeln!(
                out,
                "bsnn_model_steps_total{{model=\"{label}\"}} {}",
                profile.steps
            );
            let _ = writeln!(
                out,
                "bsnn_model_step_seconds_total{{model=\"{label}\"}} {:.6}",
                profile.step_nanos as f64 / 1e9
            );
            for (stage, s) in profile.stages.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "bsnn_model_stage_dense_steps_total{{model=\"{label}\",stage=\"{stage}\"}} {}",
                    s.dense_steps
                );
                let _ = writeln!(
                    out,
                    "bsnn_model_stage_sparse_steps_total{{model=\"{label}\",stage=\"{stage}\"}} {}",
                    s.sparse_steps
                );
                let _ = writeln!(
                    out,
                    "bsnn_model_stage_packed_steps_total{{model=\"{label}\",stage=\"{stage}\"}} {}",
                    s.packed_steps
                );
                let _ = writeln!(
                    out,
                    "bsnn_model_stage_quant_steps_total{{model=\"{label}\",stage=\"{stage}\"}} {}",
                    s.quant_steps
                );
                let _ = writeln!(
                    out,
                    "bsnn_model_stage_cached_steps_total{{model=\"{label}\",stage=\"{stage}\"}} {}",
                    s.cached_steps
                );
                let _ = writeln!(
                    out,
                    "bsnn_model_stage_mean_density{{model=\"{label}\",stage=\"{stage}\"}} {:.6}",
                    s.mean_density
                );
                let _ = writeln!(
                    out,
                    "bsnn_model_stage_kernel_seconds_total{{model=\"{label}\",stage=\"{stage}\"}} \
                     {:.6}",
                    s.kernel_nanos as f64 / 1e9
                );
            }
        }
        out
    }
}

fn render_runtime(out: &mut String, snap: &MetricsSnapshot) {
    out.push_str("# TYPE bsnn_requests_submitted_total counter\n");
    let _ = writeln!(out, "bsnn_requests_submitted_total {}", snap.submitted);
    let _ = writeln!(out, "bsnn_requests_rejected_total {}", snap.rejected);
    let _ = writeln!(out, "bsnn_requests_shed_total {}", snap.shed);
    let _ = writeln!(out, "bsnn_requests_completed_total {}", snap.completed);
    let _ = writeln!(out, "bsnn_requests_failed_total {}", snap.failed);
    let _ = writeln!(
        out,
        "bsnn_requests_deadline_exceeded_total {}",
        snap.deadline_exceeded
    );
    let _ = writeln!(out, "bsnn_requests_degraded_total {}", snap.degraded);
    let _ = writeln!(out, "bsnn_worker_restarts_total {}", snap.worker_restarts);
    let _ = writeln!(
        out,
        "bsnn_models_quarantined_total {}",
        snap.models_quarantined
    );
    let _ = writeln!(out, "bsnn_requests_early_exit_total {}", snap.early_exits);
    out.push_str("# TYPE bsnn_queue_depth gauge\n");
    let _ = writeln!(out, "bsnn_queue_depth {}", snap.queue_depth);
    let _ = writeln!(
        out,
        "bsnn_latency_us{{quantile=\"0.5\"}} {}",
        snap.latency_us_p50
    );
    let _ = writeln!(
        out,
        "bsnn_latency_us{{quantile=\"0.95\"}} {}",
        snap.latency_us_p95
    );
    let _ = writeln!(
        out,
        "bsnn_latency_us{{quantile=\"0.99\"}} {}",
        snap.latency_us_p99
    );
    let _ = writeln!(out, "bsnn_latency_us_mean {:.3}", snap.latency_us_mean);
    let _ = writeln!(out, "bsnn_queue_wait_us_mean {:.3}", snap.queue_us_mean);
    let _ = writeln!(out, "bsnn_steps_mean {:.3}", snap.steps_mean);
    let _ = writeln!(out, "bsnn_steps{{quantile=\"0.95\"}} {}", snap.steps_p95);
    let _ = writeln!(out, "bsnn_spikes_mean {:.3}", snap.spikes_mean);
    let _ = writeln!(out, "bsnn_spikes{{quantile=\"0.95\"}} {}", snap.spikes_p95);
    let _ = writeln!(out, "bsnn_batch_occupancy_mean {:.3}", snap.batch_mean);
}

fn escape_label(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Reads one sample back out of a Prometheus text dump: the value of
/// the line whose full key (name including any `{labels}`) equals
/// `name`. Returns `None` if the line is absent or unparsable.
pub fn parse_metric(text: &str, name: &str) -> Option<f64> {
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.rsplit_once(' ') {
            if key.trim_end() == name {
                return value.trim().parse().ok();
            }
        }
    }
    None
}

/// Renders a per-model [`ProfileSnapshot`] the way the demo binaries
/// print it at exit: one line per stage with the
/// dense/sparse/packed/cached kernel mix, mean firing density, and
/// kernel wall time.
pub fn format_profile(model: &str, profile: &ProfileSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model {model}: {} batches, {} steps, {:.2} ms stepping",
        profile.batches,
        profile.steps,
        profile.step_nanos as f64 / 1e6
    );
    for (stage, s) in profile.stages.iter().enumerate() {
        let _ = writeln!(
            out,
            "  stage {stage}: dense {} sparse {} packed {} quant {} cached {}  density {:.4}  kernel {:.2} ms",
            s.dense_steps,
            s.sparse_steps,
            s.packed_steps,
            s.quant_steps,
            s.cached_steps,
            s.mean_density,
            s.kernel_nanos as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::runtime::ServeConfig;
    use crate::watch::{SnapshotWatcher, WatchConfig};
    use std::time::Duration;

    fn tracer(sample_every: u32, capacity: usize) -> Tracer {
        Tracer::new(&TraceConfig {
            sample_every,
            capacity,
        })
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = tracer(0, 4096);
        assert!(!t.enabled());
        for _ in 0..10 {
            assert_eq!(t.sample(), None);
        }
        t.instant(SpanKind::Arrival, 0, 1, 0);
        t.complete(SpanKind::Service, 1, 1, Instant::now(), 4, 2);
        assert!(t.events().is_empty());
        assert_eq!(t.export_chrome(), "[\n]\n");
    }

    #[test]
    fn sampling_selects_every_nth_with_distinct_tokens() {
        let t = tracer(4, 64);
        let tokens: Vec<_> = (0..16).filter_map(|_| t.sample()).collect();
        assert_eq!(tokens.len(), 4, "every 4th of 16 attempts");
        let mut unique = tokens.clone();
        unique.dedup();
        assert_eq!(unique, tokens, "tokens are distinct and increasing");
        assert!(tracer(1, 64).sample().is_some(), "sample_every=1 is all");
    }

    #[test]
    fn ring_records_wraps_and_keeps_newest() {
        let t = tracer(1, 16); // capacity floor is 16
        for i in 0..40u64 {
            t.instant(SpanKind::Arrival, 0, i, 0);
        }
        let events = t.events();
        assert_eq!(events.len(), 16, "ring keeps exactly `capacity` events");
        let tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        assert!(
            tokens.contains(&39),
            "newest event survives the wrap: {tokens:?}"
        );
        assert!(
            !tokens.contains(&0),
            "oldest events are overwritten: {tokens:?}"
        );
    }

    #[test]
    fn export_chrome_is_wellformed_and_carries_span_payloads() {
        let t = tracer(1, 64);
        let start = Instant::now();
        let token = t.sample().unwrap();
        t.instant(SpanKind::Arrival, 0, token, 0);
        t.complete(SpanKind::Queued, 2, token, start, 0, 0);
        t.complete(SpanKind::Batch, 2, token, start, 8, 0);
        t.complete(SpanKind::Service, 2, token, start, 42, 7);
        t.instant(SpanKind::Flush, 2, token, 0);
        t.instant(SpanKind::Shed, 0, token + 1, 1);

        let json = t.export_chrome();
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        // 6 events, each with an args object.
        assert_eq!(json.matches("\"name\":").count(), 6);
        assert!(json.contains("\"name\":\"service\""));
        assert!(json.contains("\"steps\":42,\"prediction\":7"));
        assert!(json.contains("\"width\":8"));
        assert!(json.contains("\"reason\":1"));
        assert!(json.contains("\"ph\":\"X\""), "complete spans present");
        assert!(json.contains("\"ph\":\"i\""), "instant events present");
        // Instant events carry a scope, complete spans a duration.
        assert_eq!(json.matches("\"s\":\"t\"").count(), 3);
        assert_eq!(json.matches("\"dur\":").count(), 3);
    }

    #[test]
    fn events_sorted_by_timestamp() {
        let t = tracer(1, 64);
        t.instant(SpanKind::Flush, 0, 3, 0);
        std::thread::sleep(Duration::from_millis(2));
        t.instant(SpanKind::Flush, 0, 4, 0);
        let events = t.events();
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn hub_renders_runtime_watch_and_model_series() {
        let registry = Arc::new(ModelRegistry::new());
        let runtime = Arc::new(
            ServeRuntime::start(
                ServeConfig {
                    workers: 1,
                    queue_capacity: 8,
                    max_batch: 2,
                    batch_linger: Duration::ZERO,
                    ..ServeConfig::default()
                },
                Arc::clone(&registry),
            )
            .unwrap(),
        );
        let hub = MetricsHub::new(Arc::clone(&runtime));
        // A watcher over a missing directory still counts scans.
        let mut watcher = SnapshotWatcher::new(
            "/nonexistent/bsnn-obs-test",
            Arc::clone(&registry),
            WatchConfig::default(),
        );
        hub.set_watch_stats(watcher.stats_handle());
        watcher.scan_once();

        let text = hub.render_prometheus();
        assert_eq!(
            parse_metric(&text, "bsnn_requests_submitted_total"),
            Some(0.0)
        );
        assert_eq!(parse_metric(&text, "bsnn_queue_depth"), Some(0.0));
        assert_eq!(parse_metric(&text, "bsnn_watch_scans_total"), Some(1.0));
        assert_eq!(parse_metric(&text, "bsnn_watch_failures_total"), Some(0.0));
        assert_eq!(
            parse_metric(&text, "bsnn_watch_checksum_failures_total"),
            Some(0.0)
        );
        // The fault-tolerance counters render from a fresh runtime too.
        assert_eq!(
            parse_metric(&text, "bsnn_requests_deadline_exceeded_total"),
            Some(0.0)
        );
        assert_eq!(
            parse_metric(&text, "bsnn_requests_degraded_total"),
            Some(0.0)
        );
        assert_eq!(parse_metric(&text, "bsnn_worker_restarts_total"), Some(0.0));
        assert_eq!(
            parse_metric(&text, "bsnn_models_quarantined_total"),
            Some(0.0)
        );
        assert_eq!(parse_metric(&text, "bsnn_missing_metric"), None);
        // Quantile series are addressable by their full labeled key.
        assert!(parse_metric(&text, "bsnn_latency_us{quantile=\"0.99\"}").is_some());
        // No models installed: no model series.
        assert!(!text.contains("bsnn_model_epoch"));
    }

    #[test]
    fn parse_metric_skips_comments_and_reads_labeled_keys() {
        let text = "# TYPE x counter\nx 3\ny{model=\"m\"} 4.5\nbad line\n";
        assert_eq!(parse_metric(text, "x"), Some(3.0));
        assert_eq!(parse_metric(text, "y{model=\"m\"}"), Some(4.5));
        assert_eq!(parse_metric(text, "TYPE"), None, "comments are skipped");
        assert_eq!(parse_metric(text, "bad"), None);
    }

    #[test]
    fn format_profile_lists_every_stage() {
        let sink = bsnn_core::ProfileSink::new(2);
        let text = format_profile("digits", &sink.snapshot());
        assert!(text.starts_with("model digits:"));
        assert_eq!(text.matches("stage ").count(), 2);
    }
}
