//! Serving over the network, end to end in one process: train → convert
//! → registry → worker pool → framed-TCP front-end with load shedding →
//! snapshot-watcher hot deploy → open-loop load with p50/p95/p99.
//!
//! The same stack `bsnn_server` + `bsnn_loadgen` run as separate
//! processes, compressed into an example.
//!
//! Run with: `cargo run --release --example networked_serving`

use burst_snn::core::coding::CodingScheme;
use burst_snn::core::convert::{convert, ConversionConfig};
use burst_snn::core::save_network;
use burst_snn::data::SynthSpec;
use burst_snn::dnn::models;
use burst_snn::dnn::train::{TrainConfig, Trainer};
use burst_snn::serve::watch::{SnapshotWatcher, WatchConfig};
use burst_snn::serve::{
    format_profile, run_open_loop_net, ArrivalProcess, ExitPolicy, ModelRegistry, NetClient,
    NetConfig, NetResponse, NetServer, OpenLoadSpec, ServeConfig, ServeRuntime, ShedConfig,
    TraceConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train and convert the demo model (identical to serving_pipeline).
    let (train, test) = SynthSpec::digits().with_counts(60, 8).generate();
    let mut dnn = models::mlp(144, &[32], 10, 5)?;
    Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 30,
        lr: 2e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)?;
    let scheme = CodingScheme::recommended();
    let norm = train.batch(&(0..40).collect::<Vec<_>>()).0;
    let snn = convert(&mut dnn, &norm, &ConversionConfig::new(scheme))?;

    // Registry + worker pool, then the TCP front-end on an ephemeral
    // port. The shed watermark keeps the queue at a depth the latency
    // SLO is provisioned for — beyond it, clients get explicit SHED
    // responses instead of unbounded queueing.
    let registry = Arc::new(ModelRegistry::new());
    registry.install("digits", snn.clone(), scheme, 8);
    // Observability on: 1-in-8 request tracing and per-stage engine
    // profiling, both dumped at the end of the run.
    let runtime = Arc::new(ServeRuntime::start(
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 8,
            batch_linger: Duration::from_micros(200),
            trace: TraceConfig {
                sample_every: 8,
                ..TraceConfig::default()
            },
            profile: true,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )?);
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&runtime),
        NetConfig {
            shed: ShedConfig {
                queue_high_watermark: 64,
                ..ShedConfig::default()
            },
            ..NetConfig::default()
        },
    )?;
    let addr = server.local_addr();
    let server = server.spawn()?;
    println!("serving on {addr}");

    // Hot deploy through the snapshot watcher: drop a `.bsnn` file into
    // the watched directory and a new model appears without a restart.
    let deploy_dir = std::env::temp_dir().join(format!("bsnn-netdemo-{}", std::process::id()));
    std::fs::create_dir_all(&deploy_dir)?;
    let watcher = SnapshotWatcher::new(
        &deploy_dir,
        Arc::clone(&registry),
        WatchConfig {
            poll_interval: Duration::from_millis(100),
            ..WatchConfig::default()
        },
    );
    let watcher = watcher.spawn()?;
    let mut snapshot = Vec::new();
    save_network(&snn, &mut snapshot)?;
    std::fs::write(deploy_dir.join("digits-canary.bsnn"), &snapshot)?;
    while registry.get("digits-canary").is_none() {
        std::thread::sleep(Duration::from_millis(50));
    }
    println!(
        "watcher installed `digits-canary` from {} ({})",
        deploy_dir.display(),
        watcher.stats()
    );

    // A single blocking call against the hot-deployed model.
    let mut client = NetClient::connect(addr)?;
    let image = test.image(0).to_vec();
    match client.call("digits-canary", &ExitPolicy::recommended(96), &image)? {
        NetResponse::Ok { response, .. } => println!(
            "canary answered: class {} in {} steps ({} spikes, epoch {})",
            response.prediction, response.steps, response.spikes, response.model_epoch
        ),
        other => println!("canary answered: {other:?}"),
    }

    // Open-loop load at a sustainable rate: the latency quantiles are an
    // SLO statement at a *stated offered load* (closed-loop numbers are
    // not), measured from each request's scheduled arrival.
    let images: Vec<Vec<f32>> = (0..test.len()).map(|i| test.image(i).to_vec()).collect();
    let steady = run_open_loop_net(
        addr,
        &images,
        &OpenLoadSpec {
            connections: 2,
            ..OpenLoadSpec::new(
                "digits",
                ArrivalProcess::FixedRate { rps: 2000.0 },
                Duration::from_secs(2),
            )
        },
    )?;
    println!("\nsteady 2000 rps:\n{steady}");

    // Now a bursty overload: sheds appear, admitted traffic still meets
    // latency, nobody hangs.
    let overload = run_open_loop_net(
        addr,
        &images,
        &OpenLoadSpec {
            connections: 2,
            ..OpenLoadSpec::new(
                "digits",
                ArrivalProcess::Bursty {
                    rps: 60_000.0,
                    burst: 512,
                },
                Duration::from_secs(1),
            )
        },
    )?;
    println!("\nbursty 60k rps overload:\n{overload}");

    // The server answers STATS frames inline even under load: fetch the
    // Prometheus-style dump and a sample of the trace over the wire.
    let metrics = client.dump_metrics()?;
    let shed_line = metrics
        .lines()
        .find(|l| l.starts_with("bsnn_net_responses_shed_total"))
        .unwrap_or("bsnn_net_responses_shed_total <missing>");
    println!(
        "\nmetrics dump: {} lines, e.g. `{shed_line}`",
        metrics.lines().count()
    );
    let trace = client.dump_trace()?;
    println!(
        "trace dump: {} bytes of Chrome trace JSON (load in ui.perfetto.dev)",
        trace.len()
    );

    println!(
        "\nfront-end: {}\nruntime:\n{}",
        server.shutdown(),
        runtime.metrics()
    );

    // Per-stage engine profile: how often each stage ran the dense
    // kernel or replayed the PSP cache, and where the stepping time
    // went.
    println!("\nengine profiles:");
    for name in registry.names() {
        if let Some(entry) = registry.get(&name) {
            println!("{}", format_profile(&name, &entry.profile().snapshot()));
        }
    }
    let _ = std::fs::remove_dir_all(&deploy_dir);
    Ok(())
}
