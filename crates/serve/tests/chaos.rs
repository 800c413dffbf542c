//! Deterministic fault-injection suite (the chaos-smoke tier).
//!
//! Every fault here is injected through a seeded, budgeted mechanism —
//! a [`FaultPlan`] for worker panics and dequeue stalls, the seeded
//! `corrupt_bit`/`truncate_len` helpers for snapshot rot — never
//! wall-clock randomness, so a failing run replays exactly. Each test
//! asserts the three chaos invariants end to end:
//!
//! 1. **No hung client** — every submitted request resolves (waits are
//!    bounded by `wait_timeout`, wire reads end at EOF).
//! 2. **Every fault is visible in metrics** — restarts, quarantines,
//!    deadline expirations, degraded answers, and checksum rejections
//!    all reconcile exactly against what clients observed.
//! 3. **Blast radius stays contained** — healthy models, healthy
//!    connections, and the last-good snapshot epoch keep serving.

use bsnn_core::coding::CodingScheme;
use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
use bsnn_core::synapse::Synapse;
use bsnn_core::{save_network_to_path, SpikingNetwork};
use bsnn_serve::fault::{corrupt_bit, truncate_len};
use bsnn_serve::net::{
    decode_response, encode_request, encode_request_with_deadline, FrameReader, NetServerHandle,
};
use bsnn_serve::{
    BackoffPolicy, ExitPolicy, FaultPlan, InferRequest, ModelRegistry, NetClient, NetConfig,
    NetResponse, ServeConfig, ServeError, ServeRuntime, ShedConfig, SnapshotWatcher, WatchConfig,
};
use bsnn_serve::{NetServer, ResponseHandle};
use bsnn_tensor::Tensor;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "tiny";
const POISON: &str = "poison";
const SEED: u64 = 0xDAC_2019;

fn tiny_network() -> SpikingNetwork {
    let dense = |w: f32| Synapse::Dense {
        weight: Tensor::from_vec(vec![w, 0.0, 0.0, w], &[2, 2]).unwrap(),
    };
    let hidden = SpikingLayer::new(dense(1.0), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
    SpikingNetwork::new(2, vec![hidden], dense(1.0), None).unwrap()
}

fn policy() -> ExitPolicy {
    ExitPolicy::Fixed { steps: 16 }
}

fn registry_with(names: &[&str]) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    for name in names {
        registry.install(*name, tiny_network(), CodingScheme::recommended(), 8);
    }
    registry
}

/// Single-worker runtime so respawn/stall effects are unambiguous.
fn chaos_config(fault: Option<Arc<FaultPlan>>, quarantine_threshold: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 64,
        max_batch: 4,
        batch_linger: Duration::ZERO,
        quarantine_threshold,
        fault_plan: fault,
        ..ServeConfig::default()
    }
}

/// Bounded wait: a chaos test must never hang on a lost response.
fn wait_bounded(handle: ResponseHandle) -> Result<bsnn_serve::InferResponse, ServeError> {
    match handle.wait_timeout(Duration::from_secs(10)) {
        Ok(result) => result,
        Err(_) => panic!("request hung: no response within 10s"),
    }
}

fn submit(
    runtime: &ServeRuntime,
    model: &str,
    deadline: Option<Instant>,
) -> Result<bsnn_serve::InferResponse, ServeError> {
    let mut request = InferRequest::new(vec![1.0, 0.0], model, policy());
    if let Some(d) = deadline {
        request = request.with_deadline(d);
    }
    wait_bounded(runtime.submit(request)?)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsnn-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A worker that panics mid-request is respawned in place: its
/// in-flight request fails loudly (never hangs), the pool keeps
/// serving, and every restart is visible in the metrics.
#[test]
fn injected_panic_respawns_worker_and_pool_keeps_serving() {
    let plan = Arc::new(FaultPlan::new().panic_on_model(POISON, 2));
    let registry = registry_with(&[MODEL, POISON]);
    // Quarantine disabled: this test isolates pure respawn behaviour.
    let runtime = ServeRuntime::start(chaos_config(Some(Arc::clone(&plan)), 0), registry).unwrap();

    for round in 0..2 {
        match submit(&runtime, POISON, None) {
            Err(ServeError::Internal(msg)) => {
                assert!(msg.contains("without a response"), "round {round}: {msg}")
            }
            other => panic!("round {round}: expected Internal error, got {other:?}"),
        }
        // The respawned worker (fresh engine caches) serves the healthy
        // model; completing this proves the restart finished.
        let resp = submit(&runtime, MODEL, None).unwrap();
        assert_eq!(resp.steps, 16);
    }

    assert_eq!(plan.panics_remaining(), 0, "both injected panics fired");
    let snap = runtime.metrics();
    assert_eq!(snap.worker_restarts, 2);
    assert_eq!(snap.models_quarantined, 0, "quarantine was disabled");
    assert_eq!(snap.completed, 2);
    assert_eq!(runtime.supervisor().panics_for(POISON), 2);
    assert!(runtime.supervisor().quarantined_models().is_empty());
}

/// A model whose requests repeatedly kill workers is quarantined after
/// the configured threshold: later requests for it are refused with a
/// typed error instead of burning another worker, while healthy models
/// are untouched.
#[test]
fn poison_model_is_quarantined_after_repeated_panics() {
    let plan = Arc::new(FaultPlan::new().panic_on_model(POISON, 2));
    let registry = registry_with(&[MODEL, POISON]);
    let runtime = ServeRuntime::start(chaos_config(Some(Arc::clone(&plan)), 2), registry).unwrap();

    // Two panics reach the quarantine threshold.
    for _ in 0..2 {
        assert!(matches!(
            submit(&runtime, POISON, None),
            Err(ServeError::Internal(_))
        ));
        // A healthy round-trip fences each respawn.
        submit(&runtime, MODEL, None).unwrap();
    }
    assert!(runtime.supervisor().is_quarantined(POISON));

    // The third request is refused up front — no panic budget is left,
    // and none is needed: the quarantine check runs before the engine.
    match submit(&runtime, POISON, None) {
        Err(ServeError::ModelQuarantined(name)) => assert_eq!(name, POISON),
        other => panic!("expected ModelQuarantined, got {other:?}"),
    }
    submit(&runtime, MODEL, None).unwrap();

    let snap = runtime.metrics();
    assert_eq!(snap.worker_restarts, 2);
    assert_eq!(snap.models_quarantined, 1);
    assert_eq!(
        runtime.supervisor().quarantined_models(),
        vec![POISON.to_string()]
    );

    // Operators can lift the quarantine; the model serves again (its
    // panic budget is spent, so the engine path is clean).
    runtime.supervisor().release(POISON);
    submit(&runtime, POISON, None).unwrap();
}

/// Seeded snapshot rot: a bit-flipped copy is rejected by the v5
/// checksum, a truncated copy by the decoder; neither corrupt file is
/// installed, both rejections are counted, and the last-good epoch
/// keeps serving end to end.
#[test]
fn corrupted_snapshots_are_rejected_and_last_good_epoch_serves() {
    let dir = fresh_dir("rot");
    save_network_to_path(&tiny_network(), dir.join("m.bsnn")).unwrap();

    let registry = Arc::new(ModelRegistry::new());
    let mut watcher = SnapshotWatcher::new(&dir, Arc::clone(&registry), WatchConfig::default());
    // Two scans: the watcher installs once a file is stable across
    // consecutive scans.
    watcher.scan_once();
    watcher.scan_once();
    assert_eq!(watcher.stats().installs, 1);
    let good_epoch = registry.get("m").unwrap().epoch();

    let bytes = std::fs::read(dir.join("m.bsnn")).unwrap();
    let len = bytes.len();
    // Bit flip inside the final weight tensor's f32 data (the body ends
    // with the output synapse weights, a 4-byte bias flag, and the
    // 8-byte checksum trailer). Flipping an f32 bit still decodes
    // structurally, so only the checksum can catch it.
    let mut rot = bytes.clone();
    corrupt_bit(&mut rot[len - 28..len - 12], SEED);
    std::fs::write(dir.join("rot.bsnn"), &rot).unwrap();
    // Seeded truncation: always strictly shorter, so the stream ends
    // before the trailer (or mid-body) and the loader errors out.
    let mut trunc = bytes.clone();
    trunc.truncate(truncate_len(len, SEED).max(1));
    std::fs::write(dir.join("trunc.bsnn"), &trunc).unwrap();

    watcher.scan_once();
    watcher.scan_once();
    let stats = watcher.stats();
    assert_eq!(stats.installs, 1, "no corrupt snapshot may install");
    assert_eq!(stats.failures, 2, "both corrupt files rejected");
    assert_eq!(stats.checksum_failures, 1, "the bit flip is a checksum hit");
    assert!(registry.get("rot").is_none());
    assert!(registry.get("trunc").is_none());

    // The last-good epoch still answers requests.
    let runtime = ServeRuntime::start(chaos_config(None, 0), registry).unwrap();
    let resp = submit(&runtime, "m", None).unwrap();
    assert_eq!(resp.model_epoch, good_epoch);
}

/// An injected dequeue stall lets queued deadlines lapse: every parked
/// request is answered `DeadlineExceeded` (nothing hangs, nothing is
/// silently dropped), the expirations are counted, and the pool is
/// healthy again once the stall budget is spent.
#[test]
fn queue_stall_expires_deadlines_without_hanging() {
    let plan = Arc::new(FaultPlan::new().stall_dequeue(Duration::from_millis(300), 1));
    let registry = registry_with(&[MODEL]);
    let runtime = ServeRuntime::start(chaos_config(Some(Arc::clone(&plan)), 0), registry).unwrap();

    // The single worker is stalled 300ms at loop entry; these deadlines
    // (40ms) all lapse while the requests sit in the queue.
    let deadline = Instant::now() + Duration::from_millis(40);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            runtime
                .submit(InferRequest::new(vec![1.0, 0.0], MODEL, policy()).with_deadline(deadline))
                .unwrap()
        })
        .collect();
    for handle in handles {
        assert!(matches!(
            wait_bounded(handle),
            Err(ServeError::DeadlineExceeded)
        ));
    }
    assert_eq!(plan.stalls_remaining(), 0, "the stall fired exactly once");

    let snap = runtime.metrics();
    assert_eq!(snap.deadline_exceeded, 4);
    assert_eq!(snap.completed, 0);

    // With the stall budget spent the pool serves normally again.
    submit(&runtime, MODEL, None).unwrap();
    assert_eq!(runtime.metrics().completed, 1);
}

fn start_server(
    cfg: ServeConfig,
    net_cfg: NetConfig,
) -> (NetServerHandle, SocketAddr, Arc<ServeRuntime>) {
    let registry = registry_with(&[MODEL]);
    let runtime = Arc::new(ServeRuntime::start(cfg, registry).unwrap());
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&runtime), net_cfg).unwrap();
    let addr = server.local_addr();
    (server.spawn().unwrap(), addr, runtime)
}

/// Deadlines propagate over the wire: requests whose budget lapses in
/// the queue are answered with `DEADLINE_EXCEEDED` frames (no lane in a
/// lockstep batch is wasted on them), deadline-less pipelined traffic
/// completes untouched, and the client/server counts reconcile exactly.
#[test]
fn expired_deadlines_get_status_deadline_over_the_wire() {
    let (handle, addr, runtime) = start_server(
        ServeConfig {
            max_batch: 1,
            ..chaos_config(None, 0)
        },
        NetConfig::default(),
    );

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    let slow = ExitPolicy::Fixed { steps: 96 };
    // Six slow deadline-less requests keep the single worker busy...
    for id in 0..6u64 {
        frame.clear();
        encode_request(&mut frame, id, MODEL, &slow, &[1.0, 0.0]).unwrap();
        stream.write_all(&frame).unwrap();
    }
    // ...so these 1µs budgets are long gone by dequeue time.
    for id in 6..12u64 {
        frame.clear();
        encode_request_with_deadline(&mut frame, id, MODEL, &slow, &[1.0, 0.0], 1).unwrap();
        stream.write_all(&frame).unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let (mut ok, mut deadline_exceeded) = (0u64, 0u64);
    let mut frames = FrameReader::new(stream, 1 << 20);
    while let Some(payload) = frames.next_frame().unwrap() {
        match decode_response(&payload).unwrap() {
            NetResponse::Ok { response, .. } => {
                assert!(!response.degraded, "no brownout was configured");
                ok += 1;
            }
            NetResponse::DeadlineExceeded { request_id } => {
                assert!((6..12).contains(&request_id));
                deadline_exceeded += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(ok, 6, "deadline-less traffic is untouched");
    assert_eq!(deadline_exceeded, 6, "every lapsed budget answered");

    assert_eq!(runtime.metrics().deadline_exceeded, 6);
    let stats = handle.shutdown();
    assert_eq!(stats.responses_ok, 6);
    assert_eq!(stats.responses_deadline, 6);
    assert_eq!(stats.protocol_errors, 0);
}

/// Brownout under pressure: past the degrade watermark the server
/// tightens the exit policy instead of shedding — answers come back
/// flagged degraded with a capped step budget, and the degraded count
/// reconciles exactly between client, front-end, and runtime.
#[test]
fn brownout_degrades_answers_before_shedding() {
    let total = 30u64;
    let (handle, addr, runtime) = start_server(
        ServeConfig {
            max_batch: 1,
            ..chaos_config(None, 0)
        },
        NetConfig {
            shed: ShedConfig {
                // Shed far out of reach; degrade from depth 1.
                queue_high_watermark: 64,
                degrade_watermark: 1,
                degraded_max_steps: 8,
            },
            ..NetConfig::default()
        },
    );

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    for id in 0..total {
        frame.clear();
        encode_request(
            &mut frame,
            id,
            MODEL,
            &ExitPolicy::Fixed { steps: 96 },
            &[1.0, 0.0],
        )
        .unwrap();
        stream.write_all(&frame).unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let (mut normal, mut degraded) = (0u64, 0u64);
    let mut frames = FrameReader::new(stream, 1 << 20);
    while let Some(payload) = frames.next_frame().unwrap() {
        match decode_response(&payload).unwrap() {
            NetResponse::Ok { response, .. } => {
                if response.degraded {
                    assert!(
                        response.steps <= 8,
                        "degraded answers honour the tightened budget (got {})",
                        response.steps
                    );
                    degraded += 1;
                } else {
                    assert_eq!(response.steps, 96);
                    normal += 1;
                }
            }
            other => panic!("brownout must degrade, not {other:?}"),
        }
    }
    assert_eq!(normal + degraded, total, "every request answered once");
    assert!(
        normal >= 1,
        "traffic under the watermark stays full-fidelity"
    );
    assert!(degraded > 0, "pipelined overload must trip the brownout");

    // Exact three-way reconciliation: client view == front-end counters
    // == runtime metrics.
    assert_eq!(runtime.metrics().degraded, degraded);
    let stats = handle.shutdown();
    assert_eq!(stats.responses_degraded, degraded);
    assert_eq!(stats.responses_ok, total);
    assert_eq!(stats.responses_shed, 0, "degradation absorbed the pressure");
    assert_eq!(stats.protocol_errors, 0);
}

/// A client with a backoff budget rides out a server that is not up
/// yet: the deterministic retry schedule lands once the listener
/// appears, and the connection then serves normally.
#[test]
fn backoff_dialing_survives_a_late_server() {
    // Reserve a port, free it, and bring the real server up there after
    // a delay longer than the first two backoff intervals.
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);

    let server = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let registry = registry_with(&[MODEL]);
        let runtime = Arc::new(ServeRuntime::start(chaos_config(None, 0), registry).unwrap());
        NetServer::bind(addr, runtime, NetConfig::default())
            .unwrap()
            .spawn()
            .unwrap()
    });

    let mut client = NetClient::connect_with_backoff(
        addr,
        BackoffPolicy {
            base: Duration::from_millis(50),
            max: Duration::from_millis(200),
            attempts: 10,
        },
    )
    .expect("backoff dialing must reach the late server");
    let handle = server.join().unwrap();

    match client.call(MODEL, &policy(), &[1.0, 0.0]).unwrap() {
        NetResponse::Ok { response, .. } => assert_eq!(response.steps, 16),
        other => panic!("expected OK, got {other:?}"),
    }
    let stats = handle.shutdown();
    assert_eq!(stats.responses_ok, 1);
    assert_eq!(stats.protocol_errors, 0);
}
