#![warn(missing_docs)]
//! # burst-serve
//!
//! A production-style inference runtime over the burst-coded SNN
//! simulator of Park et al. (DAC 2019). The paper's headline result is
//! that burst coding reaches DNN-comparable accuracy in far fewer time
//! steps and spikes than rate coding — i.e. inference latency and energy
//! are *tunable at request time*. This crate turns that property into a
//! request-serving engine:
//!
//! * **Worker pool** ([`runtime::ServeRuntime`]) — persistent threads,
//!   each holding a reusable lockstep engine
//!   ([`bsnn_core::batch::BatchedNetwork`]) per model whose state
//!   `begin_batch` resets in place between batches (no per-request
//!   allocation of layer state).
//! * **Adaptive micro-batching** ([`queue::BatchQueue`]) — a bounded
//!   MPMC queue; workers collect up to `max_batch` requests or wait
//!   `batch_linger`, whichever comes first, and submission returns
//!   [`ServeError::QueueFull`] instead of blocking forever
//!   (backpressure).
//! * **Anytime early-exit inference** ([`exit::run_with_policy`]) — each
//!   request carries an [`request::ExitPolicy`]: fixed steps, confidence
//!   margin with patience (stop once the output margin has been stable
//!   for `patience` checkpoints), or a spike budget. Workers run it per
//!   lane on the incremental [`bsnn_core::BatchedStepwiseInference`]
//!   API ([`exit::run_batch_with_policies_each`]); `run_with_policy` runs
//!   one request on the scalar reference engine.
//! * **Model registry** ([`registry::ModelRegistry`]) — snapshot-backed,
//!   hot-swappable by name with epoch-counted `Arc` swap: in-flight
//!   requests finish on the model they started with.
//! * **Metrics** ([`metrics::ServeMetrics`]) — request counts,
//!   p50/p95/p99 latency, time steps and spikes per request, batch
//!   occupancy, and queue depth.
//! * **TCP front-end** ([`net::NetServer`]) — an event loop over
//!   nonblocking `std::net` sockets speaking a length-framed binary
//!   protocol into `submit`. With nothing to do it blocks in `poll(2)`
//!   until a socket is ready, a worker's completion hook pings its
//!   wake-up pipe, or a connection timeout falls due, so neither a
//!   request frame nor its reply waits on a timer. Malformed input
//!   poisons only its own connection, oversized frames are rejected
//!   from the header alone, and slow or idle peers time out.
//! * **Load shedding** ([`shed::AdmissionControl`]) — a queue-depth
//!   watermark refuses work *before* it queues, and `QueueFull`
//!   backpressure maps to the same explicit `SHED` wire response, so
//!   overload degrades into cheap refusals instead of latency collapse.
//! * **Snapshot watcher** ([`watch::SnapshotWatcher`]) — polls a
//!   directory and hot-installs `name.bsnn` files once their
//!   (mtime, length) is stable; a corrupt file keeps the old model
//!   live.
//! * **Fault tolerance** ([`supervisor`], [`fault`], [`shed`]) —
//!   panicked workers are respawned in place with fresh engine caches
//!   and a model that repeatedly kills workers is quarantined
//!   (poison-model detection); optional per-request deadlines are
//!   checked at admission, dequeue, and batch formation with
//!   earliest-deadline-first queue ordering; a Normal → Degraded → Shed
//!   brownout controller tightens exit policies (the paper's anytime
//!   knob) before it starts refusing; and a seeded, budgeted
//!   [`fault::FaultPlan`] injects worker panics, dequeue stalls, and
//!   snapshot corruption deterministically for chaos tests.
//! * **Observability** ([`obs`]) — sampled request lifecycle tracing
//!   into a lock-free ring ([`obs::Tracer`], exported as Perfetto-
//!   loadable Chrome trace JSON), a Prometheus-style metrics dump
//!   aggregating every layer's counters ([`obs::MetricsHub`], served
//!   by the `STATS` wire frame), and per-model kernel-stage profiles
//!   fed by [`bsnn_core::ProfileSink`] when
//!   [`runtime::ServeConfig::profile`] is on.
//!
//! The `serve_demo` binary wires the in-process stack together behind a
//! CLI; `bsnn_server` exposes it over TCP and `bsnn_loadgen` drives it
//! open-loop (fixed-rate or bursty arrivals, latency quantiles measured
//! from scheduled arrival). [`loadgen`] provides both the closed-loop
//! generator used by the demo/bench and the open-loop TCP harness
//! ([`loadgen::run_open_loop_net`]).
//!
//! ```text
//! clients ──submit()──▶ BatchQueue ──pop_batch_by_key()──▶ worker threads ──▶ ResponseHandle
//!   ▲  QueueFull            │ bounded, linger                 │ cached net clone
//!   └──────────────────────┘                                  ▼ epoch check
//!                                                        ModelRegistry (Arc swap)
//! ```

pub mod error;
pub mod exit;
pub mod fault;
pub mod loadgen;
pub mod metrics;
pub mod net;
pub mod obs;
pub mod queue;
pub mod registry;
pub mod request;
pub mod runtime;
pub mod shed;
pub mod supervisor;
pub mod watch;
mod worker;

pub use error::ServeError;
pub use exit::{run_batch_with_policies_each, run_with_policy, ExitOutcome};
pub use fault::FaultPlan;
pub use loadgen::{
    run_closed_loop, run_open_loop_net, ArrivalProcess, LoadReport, LoadSpec, OpenLoadReport,
    OpenLoadSpec,
};
pub use metrics::{Histogram, MetricsSnapshot, ServeMetrics};
pub use net::{
    BackoffPolicy, NetClient, NetConfig, NetResponse, NetServer, NetServerHandle, NetStatsHandle,
    NetStatsSnapshot,
};
pub use obs::{
    format_profile, parse_metric, MetricsHub, SpanKind, TraceConfig, TraceEvent, Tracer,
};
pub use queue::{BatchQueue, PushError};
pub use registry::{ModelEntry, ModelRegistry};
pub use request::{ExitPolicy, ExitReason, InferRequest, InferResponse, ResponseHandle};
pub use runtime::{ServeConfig, ServeRuntime};
pub use shed::{
    degrade_policy, AdmissionControl, AdmitError, BrownoutState, ShedConfig, ShedReason,
};
pub use supervisor::Supervisor;
pub use watch::{SnapshotWatcher, WatchConfig, WatchHandle, WatchStatsHandle};
