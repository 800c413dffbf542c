//! Worker threads: pop micro-batches, run them in *lockstep* through a
//! per-worker batched engine, fulfill response slots.
//!
//! Each popped micro-batch is grouped by model name and every group is
//! stepped through one [`BatchedNetwork`] simultaneously — the SIMD-
//! friendly SoA kernels in `bsnn-core` make the arithmetic itself
//! batched, not just the queue synchronization. A group runs at its
//! popped width, which the queue caps at `max_batch`, the width every
//! worker engine is built for. Per-request [`crate::ExitPolicy`]s are
//! evaluated every step, so early-exiting lanes retire (freeze, stop
//! spiking) while the rest of the batch continues.

use crate::error::ServeError;
use crate::exit::run_batch_with_policies_each;
use crate::fault::FaultPlan;
use crate::metrics::ServeMetrics;
use crate::obs::{SpanKind, Tracer};
use crate::queue::BatchQueue;
use crate::registry::ModelRegistry;
use crate::request::{InferRequest, InferResponse, InferResult, ResponseSlot};
use crate::supervisor::{Blame, Supervisor};
use bsnn_core::batch::BatchedNetwork;
use bsnn_core::SnnError;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request travelling through the queue.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub(crate) request: InferRequest,
    pub(crate) slot: Arc<ResponseSlot>,
    pub(crate) enqueued: Instant,
    /// Trace sample token from [`Tracer::sample`] — `None` for the
    /// (vast majority of) unsampled requests.
    pub(crate) trace: Option<u64>,
}

impl QueuedRequest {
    /// Delivers a result to the waiting client and records it.
    fn fulfill(self, metrics: &ServeMetrics, result: InferResult) {
        metrics.observe_result(&result);
        self.slot.fulfill(result);
    }
}

impl Drop for QueuedRequest {
    /// Drop-guard: if a request is discarded before a response was
    /// delivered — a worker panicked mid-batch, or the queue was torn
    /// down with items still inside — the waiting client gets an error
    /// instead of hanging forever on its `ResponseHandle`.
    fn drop(&mut self) {
        self.slot.fulfill_if_empty(Err(ServeError::Internal(
            "request dropped without a response".into(),
        )));
    }
}

/// Per-worker observability and supervision context: the shared tracer,
/// this worker's trace track id, whether engines feed the per-model
/// profile sinks, the pool's supervisor (quarantine checks), this
/// worker's blame cell (panic attribution), and the optional
/// fault-injection plan.
#[derive(Debug)]
pub(crate) struct WorkerCtx {
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) tid: u64,
    pub(crate) profile: bool,
    pub(crate) supervisor: Arc<Supervisor>,
    pub(crate) blame: Arc<Blame>,
    pub(crate) fault: Option<Arc<FaultPlan>>,
}

/// A worker's long-lived lockstep engine for one registry model. Built
/// once per (model, epoch) and reused across micro-batches — repeated
/// batches of the same width perform no allocation at all.
struct CachedModel {
    epoch: u64,
    engine: BatchedNetwork,
}

/// Builds a worker's lockstep engine for one registry entry. With
/// profiling on, the engine reports into the entry's shared
/// [`crate::registry::ModelEntry::profile`] sink.
fn build_cached(
    entry: &crate::registry::ModelEntry,
    max_batch: usize,
    profile: bool,
) -> CachedModel {
    let mut engine = BatchedNetwork::new(entry.network().clone(), max_batch)
        .expect("max_batch validated at runtime start");
    if profile {
        engine.set_profile_sink(Some(Arc::clone(entry.profile())));
    }
    CachedModel {
        epoch: entry.epoch(),
        engine,
    }
}

/// The body of one worker thread. Returns when the queue is closed and
/// drained.
pub(crate) fn worker_loop(
    queue: Arc<BatchQueue<QueuedRequest>>,
    registry: Arc<ModelRegistry>,
    metrics: Arc<ServeMetrics>,
    max_batch: usize,
    linger: Duration,
    ctx: WorkerCtx,
) {
    let mut cache: HashMap<String, CachedModel> = HashMap::new();
    loop {
        if let Some(plan) = &ctx.fault {
            plan.maybe_stall();
        }
        // Earliest-deadline-first pop: lanes with a deadline retire
        // before lanes without one, nearest deadline first; deadline-less
        // lanes (and equal deadlines) keep FIFO order via the stable
        // selection, so a burst of deadline-less traffic cannot starve
        // near-expiry work and vice versa.
        let batch = queue.pop_batch_by_key(max_batch, linger, |q| {
            (q.request.deadline.is_none(), q.request.deadline)
        });
        if batch.is_empty() {
            return;
        }
        metrics.observe_batch(batch.len());
        // Dequeue-time deadline check: a request that expired while
        // queued is answered immediately instead of occupying a lockstep
        // lane (the second of the three deadline checkpoints — see
        // admission in [`crate::shed`] and batch formation below).
        let now = Instant::now();
        // Group by model, preserving arrival order within each group;
        // each group runs as one lockstep batch.
        let mut groups: Vec<(String, Vec<QueuedRequest>)> = Vec::new();
        for queued in batch {
            if let Some(token) = queued.trace {
                // Queue-wait span: from enqueue to this dequeue.
                ctx.tracer
                    .complete(SpanKind::Queued, ctx.tid, token, queued.enqueued, 0, 0);
            }
            if queued.request.deadline_expired(now) {
                queued.fulfill(&metrics, Err(ServeError::DeadlineExceeded));
                continue;
            }
            match groups
                .iter_mut()
                .find(|(name, _)| *name == queued.request.model)
            {
                Some((_, group)) => group.push(queued),
                None => groups.push((queued.request.model.clone(), vec![queued])),
            }
        }
        for (name, group) in groups {
            serve_group(
                &name, group, &registry, &mut cache, max_batch, &metrics, &ctx,
            );
        }
        // Drop engines of models that have been removed from the
        // registry, so name churn (install v1, swap to v2, remove v1)
        // cannot grow worker memory without bound.
        cache.retain(|name, _| registry.get(name).is_some());
    }
}

/// Serves one same-model group of a popped micro-batch in lockstep.
fn serve_group(
    name: &str,
    group: Vec<QueuedRequest>,
    registry: &ModelRegistry,
    cache: &mut HashMap<String, CachedModel>,
    max_batch: usize,
    metrics: &ServeMetrics,
    ctx: &WorkerCtx,
) {
    // Poison-model quarantine: a model whose requests have repeatedly
    // killed workers is refused up front — it must never reach an engine
    // again, or the pool grinds through an endless panic/respawn cycle.
    if ctx.supervisor.is_quarantined(name) {
        for queued in group {
            queued.fulfill(metrics, Err(ServeError::ModelQuarantined(name.to_string())));
        }
        return;
    }
    // From here until the group is served, an unwinding panic is this
    // model's fault; the supervision wrapper reads the cell.
    ctx.blame.set(name);
    if let Some(plan) = &ctx.fault {
        plan.maybe_panic(name);
    }
    let Some(entry) = registry.get(name) else {
        for queued in group {
            queued.fulfill(metrics, Err(ServeError::UnknownModel(name.to_string())));
        }
        ctx.blame.clear();
        return;
    };
    // Epoch-checked engine: a hot-swap invalidates this worker's cached
    // engine on its *next* batch for the name; the batch that resolved
    // the old entry before the swap finishes on it.
    let cached = cache
        .entry(name.to_string())
        .and_modify(|c| {
            if c.epoch != entry.epoch() {
                *c = build_cached(&entry, max_batch, ctx.profile);
            }
        })
        .or_insert_with(|| build_cached(&entry, max_batch, ctx.profile));
    // Per-lane validation isolates malformed requests so they cannot
    // fail the whole lockstep group. Batch formation is the last of the
    // three deadline checkpoints: an expired lane is answered here and
    // never enters the lockstep run.
    let input_len = entry.network().input_len();
    let now = Instant::now();
    let mut lanes: Vec<QueuedRequest> = Vec::with_capacity(group.len());
    for queued in group {
        if queued.request.deadline_expired(now) {
            queued.fulfill(metrics, Err(ServeError::DeadlineExceeded));
        } else if let Err(e) = queued.request.policy.validate() {
            queued.fulfill(metrics, Err(e));
        } else if queued.request.image.len() != input_len {
            let e = ServeError::Simulation(SnnError::InputSizeMismatch {
                expected: input_len,
                actual: queued.request.image.len(),
            });
            queued.fulfill(metrics, Err(e));
        } else {
            lanes.push(queued);
        }
    }
    let mut lanes = lanes.into_iter();
    loop {
        let chunk: Vec<QueuedRequest> = lanes.by_ref().take(max_batch).collect();
        if chunk.is_empty() {
            break;
        }
        serve_lockstep_chunk(chunk, &entry, &mut cached.engine, metrics, ctx);
    }
    ctx.blame.clear();
}

/// Runs one lockstep sub-batch (all same model, all pre-validated)
/// through the worker's engine and fulfills each slot as its lane
/// retires.
fn serve_lockstep_chunk(
    mut lanes: Vec<QueuedRequest>,
    entry: &crate::registry::ModelEntry,
    engine: &mut BatchedNetwork,
    metrics: &ServeMetrics,
    ctx: &WorkerCtx,
) {
    let lockstep_width = lanes.len();
    let queue_micros: Vec<u64> = lanes
        .iter()
        .map(|q| q.enqueued.elapsed().as_micros() as u64)
        .collect();
    let tokens: Vec<Option<u64>> = lanes.iter().map(|q| q.trace).collect();
    let degraded: Vec<bool> = lanes.iter().map(|q| q.request.degraded).collect();
    // Move the image buffers out of the requests (no clone) so the
    // engine can borrow them while the slots are fulfilled lane by lane.
    let images_owned: Vec<Vec<f32>> = lanes
        .iter_mut()
        .map(|q| std::mem::take(&mut q.request.image))
        .collect();
    let images: Vec<&[f32]> = images_owned.iter().map(|v| v.as_slice()).collect();
    let policies: Vec<_> = lanes.iter().map(|q| q.request.policy.clone()).collect();
    let started = Instant::now();
    // Slots are fulfilled the moment their lane retires: a converged
    // request is answered immediately instead of waiting for the
    // slowest lane in its batch.
    let mut slots: Vec<Option<QueuedRequest>> = lanes.into_iter().map(Some).collect();
    let result =
        run_batch_with_policies_each(engine, &images, entry, &policies, |lane, outcome| {
            if let Some(queued) = slots[lane].take() {
                let token = tokens[lane];
                if let Some(token) = token {
                    // Lane-retirement span: batch start to this exit.
                    ctx.tracer.complete(
                        SpanKind::Service,
                        ctx.tid,
                        token,
                        started,
                        outcome.steps as u64,
                        outcome.prediction as u64,
                    );
                }
                // Recorded before the slot is filled: the front-end sends
                // the reply as soon as it is, and a client that has its
                // reply must find the whole lifecycle in the trace.
                if let Some(token) = token {
                    ctx.tracer.instant(SpanKind::Flush, ctx.tid, token, 0);
                }
                queued.fulfill(
                    metrics,
                    Ok(InferResponse {
                        prediction: outcome.prediction,
                        steps: outcome.steps,
                        spikes: outcome.spikes,
                        margin: outcome.margin,
                        exit: outcome.reason,
                        model_epoch: entry.epoch(),
                        queue_micros: queue_micros[lane],
                        service_micros: started.elapsed().as_micros() as u64,
                        batch_size: lockstep_width,
                        degraded: degraded[lane],
                    }),
                );
            }
        });
    // One batch-formation span per lockstep run with at least one
    // sampled lane, labelled with that lane's token and the width.
    if let Some(token) = tokens.iter().flatten().next() {
        ctx.tracer.complete(
            SpanKind::Batch,
            ctx.tid,
            *token,
            started,
            lockstep_width as u64,
            0,
        );
    }
    if let Err(e) = result {
        for queued in slots.into_iter().flatten() {
            queued.fulfill(metrics, Err(e.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::TraceConfig;
    use crate::request::{ExitPolicy, ResponseHandle};
    use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
    use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
    use bsnn_core::synapse::Synapse;
    use bsnn_core::SpikingNetwork;
    use bsnn_tensor::Tensor;

    fn tiny_network() -> SpikingNetwork {
        let diag = || Synapse::Dense {
            weight: Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap(),
        };
        let hidden = SpikingLayer::new(diag(), None, ThresholdPolicy::Fixed { vth: 0.25 }).unwrap();
        SpikingNetwork::new(2, vec![hidden], diag(), None).unwrap()
    }

    fn queued(model: &str) -> (QueuedRequest, ResponseHandle) {
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        let queued = QueuedRequest {
            request: InferRequest::new(vec![0.9, 0.1], model, ExitPolicy::Fixed { steps: 4 }),
            slot,
            enqueued: Instant::now(),
            trace: None,
        };
        (queued, handle)
    }

    fn ctx() -> WorkerCtx {
        WorkerCtx {
            tracer: Arc::new(Tracer::new(&TraceConfig::default())),
            tid: 1,
            profile: false,
            supervisor: Arc::new(Supervisor::new(3)),
            blame: Arc::new(Blame::default()),
            fault: None,
        }
    }

    /// A popped group runs at its popped width, and a group wider than
    /// the worker's `max_batch` is chunked at `max_batch` in arrival
    /// order.
    #[test]
    fn unset_preference_keeps_width_and_wide_preference_is_capped() {
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let registry = ModelRegistry::new();
        registry.install("m", tiny_network(), scheme, 8);
        let metrics = ServeMetrics::new();

        let (group, handles): (Vec<_>, Vec<_>) = (0..5).map(|_| queued("m")).unzip();
        serve_group(
            "m",
            group,
            &registry,
            &mut HashMap::new(),
            8,
            &metrics,
            &ctx(),
        );
        for handle in handles {
            assert_eq!(handle.wait().unwrap().batch_size, 5);
        }

        let (group, handles): (Vec<_>, Vec<_>) = (0..10).map(|_| queued("m")).unzip();
        serve_group(
            "m",
            group,
            &registry,
            &mut HashMap::new(),
            4,
            &metrics,
            &ctx(),
        );
        let widths: Vec<usize> = handles
            .into_iter()
            .map(|h| h.wait().unwrap().batch_size)
            .collect();
        assert_eq!(
            widths,
            vec![4, 4, 4, 4, 4, 4, 4, 4, 2, 2],
            "chunked at max_batch"
        );
    }

    /// A lockstep width recorded in an older snapshot is discarded: a
    /// stream carrying width 4 installs, and a popped group of 8 runs as
    /// one lockstep batch of 8.
    #[test]
    fn snapshot_width_does_not_split_popped_groups() {
        let mut stream = Vec::new();
        bsnn_core::snapshot::save_network(&tiny_network(), &mut stream).unwrap();
        // Write 4 into the width word (after magic and version), then
        // recompute the checksum trailer.
        stream.truncate(stream.len() - 8);
        stream[8..12].copy_from_slice(&4u32.to_le_bytes());
        let digest = bsnn_core::snapshot::fnv1a(&stream);
        stream.extend_from_slice(&digest.to_le_bytes());
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let registry = ModelRegistry::new();
        registry
            .install_snapshot("shipped", stream.as_slice(), scheme, 8)
            .unwrap();
        let metrics = ServeMetrics::new();

        let (group, handles): (Vec<_>, Vec<_>) = (0..8).map(|_| queued("shipped")).unzip();
        serve_group(
            "shipped",
            group,
            &registry,
            &mut HashMap::new(),
            8,
            &metrics,
            &ctx(),
        );
        for handle in handles {
            assert_eq!(handle.wait().unwrap().batch_size, 8);
        }
    }

    #[test]
    fn quarantined_model_is_refused_before_reaching_an_engine() {
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let registry = ModelRegistry::new();
        registry.install("poison", tiny_network(), scheme, 8);
        let metrics = ServeMetrics::new();
        let mut cache = HashMap::new();
        let ctx = ctx();
        let blame_metrics = ServeMetrics::new();
        for _ in 0..3 {
            ctx.supervisor.record_panic(Some("poison"), &blame_metrics);
        }
        let (group, handles): (Vec<_>, Vec<_>) = (0..2).map(|_| queued("poison")).unzip();
        serve_group("poison", group, &registry, &mut cache, 8, &metrics, &ctx);
        for handle in handles {
            assert!(matches!(
                handle.wait(),
                Err(ServeError::ModelQuarantined(name)) if name == "poison"
            ));
        }
        assert!(
            cache.is_empty(),
            "no engine may be built for a quarantined model"
        );
    }

    #[test]
    fn expired_lane_never_enters_a_lockstep_batch() {
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let registry = ModelRegistry::new();
        registry.install("m", tiny_network(), scheme, 8);
        let metrics = ServeMetrics::new();
        let mut cache = HashMap::new();
        let past = Instant::now() - Duration::from_millis(1);
        let far = Instant::now() + Duration::from_secs(60);
        let make = |deadline: Option<Instant>| {
            let (mut q, h) = queued("m");
            q.request.deadline = deadline;
            (q, h)
        };
        let (expired, expired_h) = make(Some(past));
        let (live, live_h) = make(Some(far));
        let (plain, plain_h) = make(None);
        serve_group(
            "m",
            vec![expired, live, plain],
            &registry,
            &mut cache,
            8,
            &metrics,
            &ctx(),
        );
        assert_eq!(expired_h.wait(), Err(ServeError::DeadlineExceeded));
        let live = live_h.wait().unwrap();
        let plain = plain_h.wait().unwrap();
        assert_eq!(live.batch_size, 2, "the expired lane freed its slot");
        assert_eq!(plain.batch_size, 2);
        let snap = metrics.snapshot(0);
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn dropped_request_fulfills_slot_with_error() {
        // The drop-guard behind "a panicking worker must not hang its
        // clients": discarding a queued request without serving it
        // delivers an Internal error through the handle.
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        let queued = QueuedRequest {
            request: InferRequest::new(vec![0.0], "m", ExitPolicy::Fixed { steps: 1 }),
            slot,
            enqueued: Instant::now(),
            trace: None,
        };
        drop(queued);
        assert!(matches!(handle.wait(), Err(ServeError::Internal(_))));
    }

    #[test]
    fn served_request_is_not_overwritten_by_drop_guard() {
        let slot = Arc::new(ResponseSlot::default());
        let handle = ResponseHandle::new(Arc::clone(&slot));
        slot.fulfill(Err(ServeError::QueueFull));
        slot.fulfill_if_empty(Err(ServeError::ShuttingDown));
        assert_eq!(handle.wait(), Err(ServeError::QueueFull));
    }
}
