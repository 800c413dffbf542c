//! Integration tests of the networked front-end: end-to-end round trips,
//! wire-protocol robustness (truncated/oversized/garbage frames, slow
//! writers and readers, dropped connections), connection isolation, the
//! event loop's wake-ups (timeouts, shutdown), and load shedding over
//! TCP.
//!
//! These use a tiny hand-built 2-class network instead of a trained
//! model — the tests exercise the wire and the event loop, not inference
//! quality, and must stay fast.

use bsnn_core::coding::CodingScheme;
use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
use bsnn_core::synapse::Synapse;
use bsnn_core::SpikingNetwork;
use bsnn_serve::net::{
    decode_response, encode_request, encode_stats_request, FrameReader, NetServerHandle,
    KIND_REQUEST, KIND_STATS_REPLY, STATS_METRICS,
};
use bsnn_serve::{
    ArrivalProcess, ExitPolicy, ModelRegistry, NetClient, NetConfig, NetResponse, NetServer,
    OpenLoadSpec, ServeConfig, ServeRuntime, ShedConfig,
};
use bsnn_tensor::Tensor;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "tiny";

fn tiny_network() -> SpikingNetwork {
    let dense = |w: f32| Synapse::Dense {
        weight: Tensor::from_vec(vec![w, 0.0, 0.0, w], &[2, 2]).unwrap(),
    };
    let hidden = SpikingLayer::new(dense(1.0), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
    SpikingNetwork::new(2, vec![hidden], dense(1.0), None).unwrap()
}

fn start_server(cfg: ServeConfig, net_cfg: NetConfig) -> (NetServerHandle, SocketAddr) {
    let registry = Arc::new(ModelRegistry::new());
    registry.install(MODEL, tiny_network(), CodingScheme::recommended(), 8);
    let runtime = Arc::new(ServeRuntime::start(cfg, registry).unwrap());
    let server = NetServer::bind("127.0.0.1:0", runtime, net_cfg).unwrap();
    let addr = server.local_addr();
    (server.spawn().unwrap(), addr)
}

fn defaults() -> (ServeConfig, NetConfig) {
    (
        ServeConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 4,
            batch_linger: Duration::ZERO,
            ..ServeConfig::default()
        },
        NetConfig::default(),
    )
}

fn policy() -> ExitPolicy {
    ExitPolicy::Fixed { steps: 16 }
}

/// A few blocking calls must round-trip with sane response fields.
#[test]
fn end_to_end_round_trip_over_tcp() {
    let (cfg, net_cfg) = defaults();
    let (handle, addr) = start_server(cfg, net_cfg);
    let mut client = NetClient::connect(addr).unwrap();
    for _ in 0..5 {
        match client.call(MODEL, &policy(), &[1.0, 0.0]).unwrap() {
            NetResponse::Ok { response, .. } => {
                assert!(response.prediction < 2);
                assert_eq!(response.steps, 16);
                assert!(response.model_epoch > 0);
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }
    drop(client);
    let stats = handle.shutdown();
    assert_eq!(stats.responses_ok, 5);
    assert_eq!(stats.protocol_errors, 0);
}

/// Requests against a model that isn't installed are ERROR responses on
/// a healthy connection — not sheds, not disconnects.
#[test]
fn unknown_model_is_an_error_response_not_a_disconnect() {
    let (cfg, net_cfg) = defaults();
    let (_handle, addr) = start_server(cfg, net_cfg);
    let mut client = NetClient::connect(addr).unwrap();
    match client.call("missing", &policy(), &[1.0, 0.0]).unwrap() {
        NetResponse::Error { message, .. } => {
            assert!(message.contains("missing"), "message: {message}")
        }
        other => panic!("expected ERROR, got {other:?}"),
    }
    // The connection survives and serves the next request.
    match client.call(MODEL, &policy(), &[1.0, 0.0]).unwrap() {
        NetResponse::Ok { .. } => {}
        other => panic!("expected OK after error, got {other:?}"),
    }
}

/// A stalled partial frame hits the read timeout: that connection gets a
/// final ERROR frame and is closed, while a concurrent well-behaved
/// connection keeps completing requests.
#[test]
fn slow_writer_times_out_without_disturbing_others() {
    let (cfg, mut net_cfg) = defaults();
    net_cfg.read_timeout = Duration::from_millis(200);
    let (handle, addr) = start_server(cfg, net_cfg);

    // Slow writer: half a frame, then silence.
    let mut slow = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    encode_request(&mut frame, 9, MODEL, &policy(), &[1.0, 0.0]).unwrap();
    slow.write_all(&frame[..frame.len() / 2]).unwrap();

    // Healthy connection keeps working across the timeout window.
    let mut good = NetClient::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_millis(600);
    let mut completed = 0;
    while Instant::now() < deadline {
        match good.call(MODEL, &policy(), &[0.0, 1.0]).unwrap() {
            NetResponse::Ok { .. } => completed += 1,
            other => panic!("healthy connection broke: {other:?}"),
        }
    }
    assert!(completed > 0);

    // The slow connection got an ERROR frame and EOF.
    let mut frames = FrameReader::new(slow.try_clone().unwrap(), 1 << 20);
    match frames.next_frame().unwrap() {
        Some(payload) => match decode_response(&payload).unwrap() {
            NetResponse::Error { message, .. } => {
                assert!(message.contains("timeout"), "message: {message}")
            }
            other => panic!("expected timeout ERROR, got {other:?}"),
        },
        None => panic!("expected an ERROR frame before close"),
    }
    assert_eq!(frames.next_frame().unwrap(), None, "then EOF");
    let stats = handle.shutdown();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.protocol_errors, 0);
}

/// With no other traffic to wake the event loop, a lone stalled partial
/// frame still gets its read-timeout ERROR on schedule: the loop's wait
/// is bounded by the connections' deadlines.
#[test]
fn lone_partial_frame_times_out_on_schedule() {
    let (cfg, mut net_cfg) = defaults();
    let read_timeout = Duration::from_millis(200);
    net_cfg.read_timeout = read_timeout;
    let (handle, addr) = start_server(cfg, net_cfg);

    let mut slow = TcpStream::connect(addr).unwrap();
    // Far beyond schedule, far below the 60 s idle timeout.
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut frame = Vec::new();
    encode_request(&mut frame, 9, MODEL, &policy(), &[1.0, 0.0]).unwrap();
    let started = Instant::now();
    slow.write_all(&frame[..frame.len() / 2]).unwrap();

    let mut frames = FrameReader::new(slow, 1 << 20);
    let payload = frames
        .next_frame()
        .expect("the read-timeout ERROR frame never arrived")
        .expect("an ERROR frame before close");
    let waited = started.elapsed();
    match decode_response(&payload).unwrap() {
        NetResponse::Error { message, .. } => {
            assert!(message.contains("timeout"), "message: {message}")
        }
        other => panic!("expected timeout ERROR, got {other:?}"),
    }
    assert!(waited >= read_timeout, "fired early, after {waited:?}");
    assert!(
        waited < read_timeout + Duration::from_secs(1),
        "fired {waited:?} after the partial frame, read timeout {read_timeout:?}"
    );
    assert_eq!(handle.shutdown().timeouts, 1);
}

/// A client that pipelines requests but reads nothing backs its replies
/// up well past the loopback socket buffers. Other connections keep
/// being served meanwhile, and once the client reads, the event loop
/// waits for its socket to drain rather than for a timeout: every reply
/// arrives promptly.
#[test]
fn slow_reader_backlog_flushes_once_it_reads() {
    let (cfg, net_cfg) = defaults();
    let (handle, addr) = start_server(cfg, net_cfg);

    // Size the backlog from one reply: 16 MiB of metrics dumps.
    let mut good = NetClient::connect(addr).unwrap();
    let reply_len = good.dump_metrics().unwrap().len().max(1);
    let replies = (16 << 20) / reply_len + 1;
    let frames_before = handle.stats().frames_in;

    let mut slow = TcpStream::connect(addr).unwrap();
    let mut requests = Vec::new();
    for _ in 0..replies {
        encode_stats_request(&mut requests, STATS_METRICS);
    }
    slow.write_all(&requests).unwrap();
    // Once every request is decoded, its reply is in the server's
    // write buffer, mostly unsent.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().frames_in < frames_before + replies as u64 {
        assert!(Instant::now() < deadline, "server stopped decoding");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The blocked writer does not hold up anyone else.
    for _ in 0..5 {
        match good.call(MODEL, &policy(), &[1.0, 0.0]).unwrap() {
            NetResponse::Ok { .. } => {}
            other => panic!("expected OK beside the slow reader, got {other:?}"),
        }
    }
    drop(good);
    // Let the loop settle into its wait with the backlog unflushed.
    std::thread::sleep(Duration::from_millis(100));
    let sent_before = handle.stats().bytes_out;

    // Far below the 60 s idle timeout that would otherwise wake it.
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = Instant::now();
    let mut frames = FrameReader::new(slow, 1 << 24);
    for i in 0..replies {
        let payload = frames
            .next_frame()
            .unwrap_or_else(|e| panic!("reply {i} of {replies} stalled: {e}"))
            .unwrap_or_else(|| panic!("EOF after {i} of {replies} replies"));
        assert_eq!(payload.first(), Some(&KIND_STATS_REPLY));
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(10), "backlog took {took:?}");
    let stats = handle.shutdown();
    assert!(
        stats.bytes_out - sent_before > 4 << 20,
        "only {} bytes were still queued when the client began to read; \
         the backlog must be well past what the socket buffers hold",
        stats.bytes_out - sent_before
    );
}

/// Stopping goes through the wake-up pipe: shutting down an idle server
/// with an idle connection open returns at once, not at that
/// connection's idle timeout. Joined from a helper thread so a
/// regression fails instead of hanging.
#[test]
fn shutdown_of_an_idle_server_returns_promptly() {
    let (cfg, net_cfg) = defaults();
    let (handle, addr) = start_server(cfg, net_cfg);
    let _idle = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.stats().accepted < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let the loop settle into its wait.
    std::thread::sleep(Duration::from_millis(50));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        let _ = done_tx.send(handle.shutdown());
    });
    let stats = done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown did not return within 1 s");
    stopper.join().expect("shutdown thread panicked");
    assert_eq!(stats.accepted, 1);
}

/// A header declaring an oversized payload poisons the connection
/// immediately — no waiting for the bytes — with an ERROR frame.
#[test]
fn oversized_frame_is_rejected_from_the_header_alone() {
    let (cfg, net_cfg) = defaults();
    let max_frame = net_cfg.max_frame;
    let (handle, addr) = start_server(cfg, net_cfg);
    let mut stream = TcpStream::connect(addr).unwrap();
    // Declare a payload far over the limit; send only the header.
    stream
        .write_all(&((max_frame as u32) * 2).to_le_bytes())
        .unwrap();
    let mut frames = FrameReader::new(stream.try_clone().unwrap(), 1 << 20);
    match frames.next_frame().unwrap() {
        Some(payload) => match decode_response(&payload).unwrap() {
            NetResponse::Error { message, .. } => {
                assert!(message.contains("exceeds"), "message: {message}")
            }
            other => panic!("expected ERROR, got {other:?}"),
        },
        None => panic!("expected an ERROR frame before close"),
    }
    assert_eq!(frames.next_frame().unwrap(), None, "then EOF");
    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

/// Garbage payload bytes poison only the connection that sent them.
#[test]
fn garbage_bytes_poison_one_connection_only() {
    let (cfg, net_cfg) = defaults();
    let (handle, addr) = start_server(cfg, net_cfg);

    let mut bad = TcpStream::connect(addr).unwrap();
    let garbage = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x42];
    bad.write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    bad.write_all(&garbage).unwrap();

    // The other connection is untouched.
    let mut good = NetClient::connect(addr).unwrap();
    match good.call(MODEL, &policy(), &[1.0, 0.0]).unwrap() {
        NetResponse::Ok { .. } => {}
        other => panic!("expected OK, got {other:?}"),
    }

    let mut frames = FrameReader::new(bad.try_clone().unwrap(), 1 << 20);
    match frames.next_frame().unwrap() {
        Some(payload) => match decode_response(&payload).unwrap() {
            NetResponse::Error { .. } => {}
            other => panic!("expected ERROR, got {other:?}"),
        },
        None => panic!("expected an ERROR frame before close"),
    }
    assert_eq!(frames.next_frame().unwrap(), None, "then EOF");
    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.responses_ok, 1);
}

/// A request whose payload structure is fine but whose kind byte is a
/// *response* kind is a protocol error too (clients must not send
/// responses).
#[test]
fn response_kind_from_client_is_a_protocol_error() {
    let (cfg, net_cfg) = defaults();
    let (handle, addr) = start_server(cfg, net_cfg);
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    encode_request(&mut frame, 3, MODEL, &policy(), &[1.0, 0.0]).unwrap();
    let kind_at = 4; // first payload byte
    assert_eq!(frame[kind_at], KIND_REQUEST);
    frame[kind_at] = 2; // KIND_RESPONSE
    stream.write_all(&frame).unwrap();
    let mut frames = FrameReader::new(stream, 1 << 20);
    assert!(matches!(
        decode_response(&frames.next_frame().unwrap().unwrap()).unwrap(),
        NetResponse::Error { .. }
    ));
    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 1);
}

/// A client that vanishes with responses still in flight must not take
/// the server (or other connections) down.
#[test]
fn connection_dropped_mid_response_does_not_disturb_others() {
    let (cfg, net_cfg) = defaults();
    let (handle, addr) = start_server(cfg, net_cfg);

    {
        let mut doomed = TcpStream::connect(addr).unwrap();
        let mut frame = Vec::new();
        for id in 0..8 {
            frame.clear();
            encode_request(&mut frame, id, MODEL, &policy(), &[1.0, 0.0]).unwrap();
            doomed.write_all(&frame).unwrap();
        }
        // Drop without reading a single response.
    }

    // Everything still works for a well-behaved client.
    let mut good = NetClient::connect(addr).unwrap();
    for _ in 0..3 {
        match good.call(MODEL, &policy(), &[0.0, 1.0]).unwrap() {
            NetResponse::Ok { .. } => {}
            other => panic!("expected OK, got {other:?}"),
        }
    }
    drop(good);
    // Let the server notice the dead peer and retire both connections.
    let deadline = Instant::now() + Duration::from_secs(2);
    while handle.stats().closed < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = handle.shutdown();
    assert_eq!(stats.closed, 2, "both connections retired: {stats:?}");
}

/// Pipelining far more requests than the queue admits produces explicit
/// SHED responses over the wire — never hangs, never silent drops.
#[test]
fn overload_sheds_explicitly_over_tcp() {
    let (mut cfg, mut net_cfg) = defaults();
    cfg.queue_capacity = 8;
    cfg.max_batch = 1;
    net_cfg.shed = ShedConfig {
        queue_high_watermark: 2,
        ..ShedConfig::default()
    };
    let (handle, addr) = start_server(cfg, net_cfg);

    let mut stream = TcpStream::connect(addr).unwrap();
    let total = 400u64;
    let mut frame = Vec::new();
    for id in 0..total {
        frame.clear();
        // A long fixed horizon keeps the worker busy enough for the
        // queue to back up against the watermark.
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

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut frames = FrameReader::new(stream, 1 << 20);
    while let Some(payload) = frames.next_frame().unwrap() {
        match decode_response(&payload).unwrap() {
            NetResponse::Ok { .. } => ok += 1,
            NetResponse::Shed { .. } => shed += 1,
            NetResponse::DeadlineExceeded { request_id } => {
                panic!("unexpected DEADLINE for {request_id} (none was requested)")
            }
            NetResponse::Error { message, .. } => panic!("unexpected ERROR: {message}"),
        }
    }
    assert_eq!(ok + shed, total, "every request answered exactly once");
    assert!(shed > 0, "overload must shed ({ok} ok / {shed} shed)");
    assert!(ok > 0, "admitted traffic must still complete");
    let stats = handle.shutdown();
    assert_eq!(stats.responses_shed, shed);
    assert_eq!(stats.protocol_errors, 0);
}

/// The networked open-loop generator against a live server: all offered
/// requests are answered, latency is reported, no protocol errors.
#[test]
fn open_loop_net_round_trip() {
    let (cfg, net_cfg) = defaults();
    let (handle, addr) = start_server(cfg, net_cfg);
    let images = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
    let spec = OpenLoadSpec {
        policy: policy(),
        connections: 2,
        ..OpenLoadSpec::new(
            MODEL,
            ArrivalProcess::Bursty {
                rps: 400.0,
                burst: 20,
            },
            Duration::from_millis(500),
        )
    };
    let report = run_open_loop_net_helper(addr, &images, &spec);
    assert!(report.offered >= 150, "offered {}", report.offered);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(
        report.completed + report.shed + report.errors,
        report.offered
    );
    assert_eq!(
        report.admitted, report.completed,
        "no deadline, nothing dropped"
    );
    assert!(report.completed > 0);
    assert!(report.latency_us_p99 >= report.latency_us_p50);
    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 0);
}

fn run_open_loop_net_helper(
    addr: SocketAddr,
    images: &[Vec<f32>],
    spec: &OpenLoadSpec,
) -> bsnn_serve::OpenLoadReport {
    bsnn_serve::run_open_loop_net(addr, images, spec).unwrap()
}
