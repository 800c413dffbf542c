//! `bsnn_server`: the networked burst-serve front-end as a process.
//!
//! Wires together the pieces the library provides: a worker-pool
//! [`ServeRuntime`], the framed-TCP [`NetServer`] with watermark load
//! shedding, and (optionally) a [`SnapshotWatcher`] so dropping a
//! `.bsnn` file into `--snapshot-dir` hot-swaps the model without a
//! restart. With `--demo-model` it trains the same small synthetic-digit
//! MLP as `serve_demo` and installs it as `digits`, so a complete
//! serving stack needs no model files at all.
//!
//! Prints `bsnn_server listening on <addr>` once ready (scripts wait for
//! that line), serves until `--run-secs` elapses (0 = forever), then
//! prints final runtime metrics and front-end stats.
//!
//! ```text
//! cargo run --release -p bsnn-serve --bin bsnn_server -- \
//!     --addr 127.0.0.1:7979 --demo-model --workers 2
//! ```

use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_data::SynthSpec;
use bsnn_dnn::models;
use bsnn_dnn::train::{TrainConfig, Trainer};
use bsnn_serve::watch::WatchConfig;
use bsnn_serve::{
    format_profile, MetricsHub, ModelRegistry, NetConfig, NetServer, ServeConfig, ServeRuntime,
    ShedConfig, SnapshotWatcher, TraceConfig,
};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Args {
    addr: String,
    demo_model: bool,
    snapshot_dir: Option<String>,
    workers: usize,
    max_batch: usize,
    linger_us: u64,
    queue_capacity: usize,
    watermark: usize,
    degrade_watermark: usize,
    degrade_max_steps: usize,
    quarantine_after: usize,
    max_connections: usize,
    run_secs: u64,
    stats_every_secs: u64,
    metrics_addr: Option<String>,
    trace_out: Option<String>,
    trace_sample: Option<u32>,
    profile: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7979".into(),
            demo_model: false,
            snapshot_dir: None,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            max_batch: 8,
            linger_us: 200,
            queue_capacity: 1024,
            watermark: 0,         // 0 = 3/4 of queue capacity
            degrade_watermark: 0, // 0 = brownout off
            degrade_max_steps: 0, // 0 = library default (32)
            quarantine_after: 3,
            max_connections: 1024,
            run_secs: 0, // forever
            stats_every_secs: 0,
            metrics_addr: None,
            trace_out: None,
            trace_sample: None, // default: 64 if --trace-out set, else off
            profile: false,
        }
    }
}

fn usage() -> &'static str {
    "bsnn_server [--addr A] [--demo-model] [--snapshot-dir D] [--workers W] \
     [--batch B] [--linger-us T] [--queue-cap C] [--watermark H] \
     [--degrade-watermark H] [--degrade-max-steps N] [--quarantine-after N] \
     [--max-conns N] [--run-secs S] [--stats-every-s S] \
     [--metrics-addr A] [--trace-out F] [--trace-sample N] [--profile]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--demo-model" => args.demo_model = true,
            "--snapshot-dir" => args.snapshot_dir = Some(value("--snapshot-dir")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--batch" => {
                args.max_batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--linger-us" => {
                args.linger_us = value("--linger-us")?
                    .parse()
                    .map_err(|e| format!("--linger-us: {e}"))?
            }
            "--queue-cap" => {
                args.queue_capacity = value("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--watermark" => {
                args.watermark = value("--watermark")?
                    .parse()
                    .map_err(|e| format!("--watermark: {e}"))?
            }
            "--degrade-watermark" => {
                args.degrade_watermark = value("--degrade-watermark")?
                    .parse()
                    .map_err(|e| format!("--degrade-watermark: {e}"))?
            }
            "--degrade-max-steps" => {
                args.degrade_max_steps = value("--degrade-max-steps")?
                    .parse()
                    .map_err(|e| format!("--degrade-max-steps: {e}"))?
            }
            "--quarantine-after" => {
                args.quarantine_after = value("--quarantine-after")?
                    .parse()
                    .map_err(|e| format!("--quarantine-after: {e}"))?
            }
            "--max-conns" => {
                args.max_connections = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?
            }
            "--run-secs" => {
                args.run_secs = value("--run-secs")?
                    .parse()
                    .map_err(|e| format!("--run-secs: {e}"))?
            }
            "--stats-every-s" => {
                args.stats_every_secs = value("--stats-every-s")?
                    .parse()
                    .map_err(|e| format!("--stats-every-s: {e}"))?
            }
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--trace-sample" => {
                args.trace_sample = Some(
                    value("--trace-sample")?
                        .parse()
                        .map_err(|e| format!("--trace-sample: {e}"))?,
                )
            }
            "--profile" => args.profile = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if !args.demo_model && args.snapshot_dir.is_none() {
        return Err(format!(
            "nothing to serve: pass --demo-model and/or --snapshot-dir\n{}",
            usage()
        ));
    }
    Ok(args)
}

/// Trains the demo MLP on synthetic digits and installs it as `digits`
/// (same recipe as `serve_demo`).
fn install_demo_model(registry: &Arc<ModelRegistry>) {
    let t0 = Instant::now();
    let (train, test) = SynthSpec::digits().with_counts(60, 12).generate();
    let mut dnn = models::mlp(144, &[32], 10, 5).expect("model");
    Trainer::new(TrainConfig {
        epochs: 6,
        batch_size: 30,
        lr: 2e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)
    .expect("training");
    let scheme = CodingScheme::recommended();
    let norm = train.batch(&(0..40).collect::<Vec<_>>()).0;
    let snn = convert(&mut dnn, &norm, &ConversionConfig::new(scheme)).expect("conversion");
    let epoch = registry.install("digits", snn, scheme, 8);
    eprintln!(
        "demo model: trained + installed `digits` (epoch {epoch}) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let registry = Arc::new(ModelRegistry::new());
    if args.demo_model {
        install_demo_model(&registry);
    }

    // Tracing defaults on (1-in-64 sampling) when a trace file was
    // requested; otherwise it stays fully inert unless --trace-sample.
    let sample_every = args
        .trace_sample
        .unwrap_or(if args.trace_out.is_some() { 64 } else { 0 });
    let runtime = match ServeRuntime::start(
        ServeConfig {
            workers: args.workers,
            queue_capacity: args.queue_capacity,
            max_batch: args.max_batch,
            batch_linger: Duration::from_micros(args.linger_us),
            trace: TraceConfig {
                sample_every,
                ..TraceConfig::default()
            },
            profile: args.profile,
            quarantine_threshold: args.quarantine_after,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    ) {
        Ok(rt) => Arc::new(rt),
        Err(e) => {
            eprintln!("runtime start failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let _watch = match &args.snapshot_dir {
        Some(dir) => {
            let watcher = SnapshotWatcher::new(dir, Arc::clone(&registry), WatchConfig::default());
            eprintln!("watching {dir} for *.bsnn snapshots");
            match watcher.spawn() {
                Ok(handle) => Some(handle),
                Err(e) => {
                    eprintln!("snapshot watcher failed to start: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    let net_cfg = NetConfig {
        max_connections: args.max_connections,
        shed: ShedConfig {
            queue_high_watermark: args.watermark,
            degrade_watermark: args.degrade_watermark,
            degraded_max_steps: args.degrade_max_steps,
        },
        ..NetConfig::default()
    };
    let server = match NetServer::bind(&args.addr, Arc::clone(&runtime), net_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    let handle = match server.spawn() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("front-end failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(watch) = &_watch {
        handle.metrics_hub().set_watch_stats(watch.stats_handle());
    }
    if let Some(metrics_addr) = &args.metrics_addr {
        match spawn_metrics_http(metrics_addr, Arc::clone(handle.metrics_hub())) {
            Ok(local) => eprintln!("metrics endpoint on http://{local}/metrics"),
            Err(e) => {
                eprintln!("metrics bind {metrics_addr} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Scripts (and the CI net-smoke job) wait for this exact line.
    println!("bsnn_server listening on {addr}");
    std::io::stdout().flush().ok();

    let started = Instant::now();
    let mut last_stats = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        if args.run_secs > 0 && started.elapsed() >= Duration::from_secs(args.run_secs) {
            break;
        }
        if args.stats_every_secs > 0
            && last_stats.elapsed() >= Duration::from_secs(args.stats_every_secs)
        {
            last_stats = Instant::now();
            eprintln!("--- {:.0}s ---", started.elapsed().as_secs_f64());
            eprintln!("{}", runtime.metrics());
            eprintln!("{}", handle.stats());
        }
    }

    let net_stats = handle.shutdown();
    eprintln!("final front-end stats:\n{net_stats}");
    eprintln!("final runtime metrics:\n{}", runtime.metrics());
    if args.profile {
        for name in registry.names() {
            if let Some(entry) = registry.get(&name) {
                eprintln!("{}", format_profile(&name, &entry.profile().snapshot()));
            }
        }
    }
    if let Some(path) = &args.trace_out {
        match std::fs::write(path, runtime.tracer().export_chrome()) {
            Ok(()) => eprintln!("trace written to {path} (open in ui.perfetto.dev)"),
            Err(e) => {
                eprintln!("trace write to {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Serves `hub.render_prometheus()` as `text/plain` HTTP from a detached
/// thread — enough for `curl` and a Prometheus scraper, not a web
/// server. One connection at a time; the dump is cheap to render.
fn spawn_metrics_http(addr: &str, hub: Arc<MetricsHub>) -> std::io::Result<std::net::SocketAddr> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain (best-effort) whatever request line the client sent;
            // the reply is the same for every path.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            let mut scratch = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut scratch);
            let body = hub.render_prometheus();
            let _ = write!(
                stream,
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            );
        }
    });
    Ok(local)
}
