//! End-to-end serving demo: train a small DNN, convert it to a
//! burst-coded SNN, install it in the registry through a snapshot
//! stream, then serve a closed-loop request wave through the worker
//! pool — first with fixed-step inference, then with confidence-margin
//! early exit — and report throughput, latency percentiles, and the
//! energy-per-request saving implied by the paper's proportional energy
//! model.
//!
//! Exits nonzero if any request errored, if throughput was zero, or if
//! `--min-rps` was given and not reached (CI uses this as a smoke test).
//!
//! ```text
//! cargo run --release -p bsnn-serve --bin serve_demo -- --requests 200 --workers 4
//! ```

use bsnn_analysis::energy::{EnergyModel, WorkloadMetrics};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::snapshot::save_network;
use bsnn_data::SynthSpec;
use bsnn_dnn::models;
use bsnn_dnn::train::{TrainConfig, Trainer};
use bsnn_serve::{
    format_profile, run_closed_loop, ExitPolicy, LoadSpec, ModelRegistry, ServeConfig, ServeRuntime,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Args {
    requests: usize,
    workers: usize,
    max_batch: usize,
    linger_us: u64,
    queue_capacity: usize,
    concurrency: usize,
    steps: usize,
    policy: String,
    margin: f32,
    patience: usize,
    check_every: usize,
    spike_budget: u64,
    min_rps: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            requests: 200,
            workers: 4,
            max_batch: 8,
            linger_us: 200,
            queue_capacity: 1024,
            concurrency: 0, // 0 = 2 × workers
            steps: 96,
            policy: "margin".into(),
            margin: 0.02,
            patience: 2,
            check_every: 8,
            spike_budget: 20_000,
            min_rps: 0.0,
        }
    }
}

fn usage() -> &'static str {
    "serve_demo [--requests N] [--workers W] [--batch B] [--linger-us T] \
     [--queue-cap C] [--concurrency K] [--steps S] \
     [--policy margin|fixed|budget] [--margin M] [--patience P] \
     [--check-every E] [--spike-budget B] [--min-rps R]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
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
            "--concurrency" => {
                args.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("--concurrency: {e}"))?
            }
            "--steps" => {
                args.steps = value("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--policy" => args.policy = value("--policy")?,
            "--margin" => {
                args.margin = value("--margin")?
                    .parse()
                    .map_err(|e| format!("--margin: {e}"))?
            }
            "--patience" => {
                args.patience = value("--patience")?
                    .parse()
                    .map_err(|e| format!("--patience: {e}"))?
            }
            "--check-every" => {
                args.check_every = value("--check-every")?
                    .parse()
                    .map_err(|e| format!("--check-every: {e}"))?
            }
            "--spike-budget" => {
                args.spike_budget = value("--spike-budget")?
                    .parse()
                    .map_err(|e| format!("--spike-budget: {e}"))?
            }
            "--min-rps" => {
                args.min_rps = value("--min-rps")?
                    .parse()
                    .map_err(|e| format!("--min-rps: {e}"))?
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

fn policy_from(args: &Args) -> Result<ExitPolicy, String> {
    match args.policy.as_str() {
        "fixed" => Ok(ExitPolicy::Fixed { steps: args.steps }),
        "margin" => Ok(ExitPolicy::ConfidenceMargin {
            margin: args.margin,
            patience: args.patience,
            check_every: args.check_every,
            max_steps: args.steps,
        }),
        "budget" => Ok(ExitPolicy::SpikeBudget {
            max_spikes: args.spike_budget,
            max_steps: args.steps,
        }),
        other => Err(format!("unknown policy `{other}` (margin|fixed|budget)")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let policy = match policy_from(&args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    // 1. Train a small DNN on the synthetic digit task and convert it
    //    with the paper's recommended phase-burst hybrid coding.
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
    println!(
        "model: trained + converted ({} neurons, phase-burst) in {:.1}s",
        snn.num_neurons(),
        t0.elapsed().as_secs_f64()
    );

    // 2. Install through the snapshot path (convert once, ship bytes).
    let registry = Arc::new(ModelRegistry::new());
    let mut snapshot = Vec::new();
    save_network(&snn, &mut snapshot).expect("snapshot save");
    let epoch = registry
        .install_snapshot("digits", snapshot.as_slice(), scheme, 8)
        .expect("snapshot install");
    println!(
        "registry: installed `digits` from a {}-byte snapshot (epoch {epoch})",
        snapshot.len()
    );

    // 3. Start the worker pool (with engine profiling on, so the demo
    //    can report per-stage kernel and cache steps at exit).
    let cfg = ServeConfig {
        workers: args.workers,
        queue_capacity: args.queue_capacity,
        max_batch: args.max_batch,
        batch_linger: Duration::from_micros(args.linger_us),
        profile: true,
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::start(cfg, Arc::clone(&registry)).expect("runtime start");
    let images: Vec<Vec<f32>> = (0..test.len()).map(|i| test.image(i).to_vec()).collect();
    let concurrency = if args.concurrency == 0 {
        args.workers * 2
    } else {
        args.concurrency
    };

    // 4. Fixed-step reference wave (also the energy baseline).
    let fixed_spec = LoadSpec {
        total_requests: args.requests.clamp(16, 128),
        concurrency,
        policy: ExitPolicy::Fixed { steps: args.steps },
        model: "digits".into(),
    };
    let fixed = run_closed_loop(&runtime, &images, &fixed_spec);
    println!(
        "\nfixed-step reference: {} req @ {} steps  →  {:.0} req/s, {:.0} spikes/req",
        fixed.completed, args.steps, fixed.throughput_rps, fixed.mean_spikes
    );

    // 5. Main wave under the selected policy.
    let spec = LoadSpec {
        total_requests: args.requests,
        concurrency,
        policy,
        model: "digits".into(),
    };
    let report = run_closed_loop(&runtime, &images, &spec);
    println!(
        "{} wave: {} req  →  {:.0} req/s  (errors {}, queue-full retries {}, early exits {})",
        args.policy,
        report.completed,
        report.throughput_rps,
        report.errors,
        report.queue_full_retries,
        report.early_exits
    );
    println!(
        "steps/req {:.1} vs fixed {:.1}  ({:.0}% of fixed)",
        report.mean_steps,
        fixed.mean_steps,
        100.0 * report.mean_steps / fixed.mean_steps.max(1e-9)
    );

    // 6. Energy per request on the paper's proportional model, relative
    //    to the fixed-step wave.
    let neurons = snn.num_neurons() as f64;
    let workload = |steps: f64, spikes: f64| WorkloadMetrics {
        spikes_per_image: spikes,
        spiking_density: spikes / (neurons * steps.max(1.0)),
        latency: steps.round() as usize,
    };
    let reference = workload(fixed.mean_steps, fixed.mean_spikes);
    let served = workload(report.mean_steps, report.mean_spikes);
    for model in [EnergyModel::truenorth(), EnergyModel::spinnaker()] {
        let e = model.normalized(&served, &reference);
        println!(
            "energy/request ({}): {:.3}× the fixed-step baseline",
            model.name(),
            e.total()
        );
    }

    let snapshot = runtime.metrics();
    println!("\nruntime metrics:\n{snapshot}");
    if let Some(entry) = registry.get("digits") {
        println!("\nengine profile:");
        println!("{}", format_profile("digits", &entry.profile().snapshot()));
    }
    runtime.shutdown();

    // 7. Smoke assertions for CI.
    if report.errors > 0 || fixed.errors > 0 {
        eprintln!("FAIL: {} request errors", report.errors + fixed.errors);
        return ExitCode::FAILURE;
    }
    if report.completed != args.requests || report.throughput_rps <= 0.0 {
        eprintln!(
            "FAIL: completed {}/{} requests at {:.0} req/s",
            report.completed, args.requests, report.throughput_rps
        );
        return ExitCode::FAILURE;
    }
    if report.throughput_rps < args.min_rps {
        eprintln!(
            "FAIL: throughput {:.0} req/s below required {:.0}",
            report.throughput_rps, args.min_rps
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\nPASS: {} requests, 0 errors",
        report.completed + fixed.completed
    );
    ExitCode::SUCCESS
}
