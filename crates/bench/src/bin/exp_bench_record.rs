//! Records the repo's perf baselines as machine-readable JSON:
//! `BENCH_core.json` (simulation steps/s of the lockstep engine at
//! widths 1, 4 and 16) and `BENCH_serve.json` (serving req/s and latency
//! percentiles), so future PRs have a perf trajectory to compare
//! against.
//!
//! ```text
//! cargo run --release -p bsnn-bench --bin exp_bench_record -- \
//!     [--out DIR] [--quick] [--min-mlp-b16-speedup X]
//! ```
//!
//! `--quick` shrinks training and the serve waves for CI smoke runs;
//! `--min-mlp-b16-speedup X` exits nonzero unless the MLP's batch-16
//! lane-steps/s reaches `X ×` its batch-1 rate — a machine-independent
//! floor guarding the lockstep engine's batching win (absolute
//! lane-steps/s floors would be runner-dependent). Both sides of the
//! ratio run the lockstep engine; the scalar engine is the untimed
//! reference and is not measured here.
//!
//! Numbers are wall-clock measurements of this machine; the JSON
//! records the workload shape alongside every figure so comparisons
//! stay apples-to-apples.

use bsnn_bench::autotune_cached;
use bsnn_core::autotune::AutotuneConfig;
use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::{evaluate_dataset_batched, EvalConfig};
use bsnn_core::SpikingNetwork;
use bsnn_data::{ImageDataset, SynthSpec};
use bsnn_dnn::models;
use bsnn_dnn::train::{TrainConfig, Trainer};
use bsnn_serve::{run_closed_loop, ExitPolicy, LoadSpec, ModelRegistry, ServeConfig, ServeRuntime};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIM_STEPS: usize = 64;
const SIM_REPS: usize = 5;

fn train_model(
    build: impl Fn() -> bsnn_dnn::Sequential,
    epochs: usize,
) -> (SpikingNetwork, ImageDataset, Vec<Vec<f32>>, CodingScheme) {
    let (train, test) = SynthSpec::digits().with_counts(60, 8).generate();
    let mut dnn = build();
    Trainer::new(TrainConfig {
        epochs,
        batch_size: 30,
        lr: 2e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)
    .expect("training");
    let scheme = CodingScheme::recommended();
    let norm = train.batch(&(0..40).collect::<Vec<_>>()).0;
    let snn = convert(&mut dnn, &norm, &ConversionConfig::new(scheme)).expect("conversion");
    let images: Vec<Vec<f32>> = (0..test.len()).map(|i| test.image(i).to_vec()).collect();
    (snn, test, images, scheme)
}

/// Best-of-N wall clock of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Lane-steps per second of one lockstep batch of `width` lanes, plus
/// the engine profile (per-stage step counts, densities and wall time)
/// summed over all reps.
fn batched_steps_per_sec(
    net: &SpikingNetwork,
    images: &[Vec<f32>],
    cfg: &EvalConfig,
    width: usize,
) -> (f64, bsnn_core::ProfileSnapshot) {
    let sink = Arc::new(bsnn_core::ProfileSink::new(net.layers().len() + 1));
    let mut engine = BatchedNetwork::new(net.clone(), width).expect("engine");
    engine.set_profile_sink(Some(Arc::clone(&sink)));
    let refs: Vec<&[f32]> = images[..width].iter().map(|v| v.as_slice()).collect();
    let secs = best_secs(SIM_REPS, || {
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, cfg).expect("run");
        while run.advance().expect("step") {}
        for lane in 0..width {
            black_box(run.prediction(lane));
        }
    });
    ((width * SIM_STEPS) as f64 / secs, sink.snapshot())
}

/// One workload's core record: the JSON object string and the floor
/// metric.
struct CoreRecord {
    json: String,
    /// Batch-16 lane-steps/s over batch 1's (the floor metric).
    b16_speedup: f64,
}

fn core_record(
    name: &str,
    net: &SpikingNetwork,
    images: &[Vec<f32>],
    scheme: CodingScheme,
) -> CoreRecord {
    let cfg = EvalConfig::new(scheme, SIM_STEPS);
    let (b1, _) = batched_steps_per_sec(net, images, &cfg, 1);
    let (b4, _) = batched_steps_per_sec(net, images, &cfg, 4);
    // The batch-16 row sets the floor, so take the best of three rounds
    // to shed container-level drift.
    let mut b16 = 0.0f64;
    let mut evidence = None;
    for _ in 0..3 {
        let (r, p) = batched_steps_per_sec(net, images, &cfg, 16);
        if r > b16 {
            b16 = r;
            evidence = Some(p);
        }
    }
    let profile = evidence.expect("at least one batch-16 round");
    let stages: Vec<String> = profile
        .stages
        .iter()
        .enumerate()
        .map(|(k, st)| {
            format!(
                concat!(
                    "{{\"stage\": {}, \"mean_density\": {:.3}, ",
                    "\"dense_steps\": {}, \"cached_steps\": {}, \"kernel_ms\": {:.2}}}"
                ),
                k,
                st.mean_density,
                st.dense_steps,
                st.cached_steps,
                st.kernel_nanos as f64 / 1e6,
            )
        })
        .collect();
    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\"workload\": \"{}\", \"neurons\": {}, \"coding\": \"{}\", ",
            "\"steps\": {}, \"lane_steps_per_sec\": {{",
            "\"batch1\": {:.0}, \"batch4\": {:.0}, \"batch16\": {:.0}}}, ",
            "\"speedup_batch16_vs_batch1\": {:.2}, ",
            "\"stage_profile_batch16\": [{}]}}"
        ),
        name,
        net.num_neurons(),
        scheme,
        SIM_STEPS,
        b1,
        b4,
        b16,
        b16 / b1,
        stages.join(", "),
    );
    CoreRecord {
        json,
        b16_speedup: b16 / b1,
    }
}

/// One workload's end-to-end dataset-evaluation record (images/s for
/// parallel width 1 vs batched×parallel at the autotuned width) as a
/// JSON object string.
fn eval_record(
    name: &str,
    net: &SpikingNetwork,
    test: &ImageDataset,
    scheme: CodingScheme,
) -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = EvalConfig::new(scheme, SIM_STEPS);
    let n_images = test.len();
    let policy = autotune_cached(net, scheme, &AutotuneConfig::default());
    let par = best_secs(3, || {
        std::hint::black_box(evaluate_dataset_batched(net, test, &cfg, threads, 1).expect("eval"));
    });
    let batched = best_secs(3, || {
        std::hint::black_box(
            evaluate_dataset_batched(net, test, &cfg, threads, policy.preferred_batch)
                .expect("eval"),
        );
    });
    let ips = |secs: f64| n_images as f64 / secs;
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "{{\"workload\": \"{}\", \"images\": {}, \"steps\": {}, \"threads\": {}, ",
            "\"preferred_batch\": {}, \"images_per_sec\": {{",
            "\"parallel\": {:.1}, \"batched_autotuned\": {:.1}}}, ",
            "\"speedup_batched_vs_parallel\": {:.2}}}"
        ),
        name,
        n_images,
        SIM_STEPS,
        threads,
        policy.preferred_batch,
        ips(par),
        ips(batched),
        par / batched,
    );
    s
}

/// One serving configuration's record as a JSON object string.
#[allow(clippy::too_many_arguments)]
fn serve_record(
    name: &str,
    snn: &SpikingNetwork,
    scheme: CodingScheme,
    images: &[Vec<f32>],
    workers: usize,
    max_batch: usize,
    requests: usize,
    autotune: bool,
) -> String {
    let registry = Arc::new(ModelRegistry::new());
    if autotune {
        registry
            .install_autotuned("digits", snn.clone(), scheme, 8, &AutotuneConfig::default())
            .expect("autotuned install");
    } else {
        registry.install("digits", snn.clone(), scheme, 8);
    }
    let runtime = ServeRuntime::start(
        ServeConfig {
            workers,
            queue_capacity: 256,
            max_batch,
            batch_linger: Duration::from_micros(100),
            profile: true,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )
    .expect("runtime");
    let spec = LoadSpec {
        total_requests: requests,
        concurrency: (workers * 2).max(4).max(max_batch),
        policy: ExitPolicy::recommended(96),
        model: "digits".into(),
    };
    // One measured wave, no separate warm-up: the runtime's metrics are
    // cumulative, so throughput and the latency histograms must describe
    // the same requests. Engine construction (first batch per worker) is
    // inside the measurement and amortized by the wave size.
    let report = run_closed_loop(&runtime, images, &spec);
    assert_eq!(report.errors, 0, "bench wave must be error-free");
    let metrics = runtime.metrics();
    runtime.shutdown();
    // The wave ran with engine profiling on: record where the stepping
    // time went and how often each stage replayed the PSP cache.
    let profile = registry.get("digits").expect("entry").profile().snapshot();
    let stage_json: Vec<String> = profile
        .stages
        .iter()
        .enumerate()
        .map(|(k, st)| {
            format!(
                concat!(
                    "{{\"stage\": {}, \"dense_steps\": {}, \"cached_steps\": {}, ",
                    "\"mean_density\": {:.3}, ",
                    "\"kernel_ms\": {:.2}}}"
                ),
                k,
                st.dense_steps,
                st.cached_steps,
                st.mean_density,
                st.kernel_nanos as f64 / 1e6,
            )
        })
        .collect();
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "{{\"workload\": \"{}\", \"workers\": {}, \"max_batch\": {}, ",
            "\"batch_policy\": \"{}\", ",
            "\"requests\": {}, \"throughput_rps\": {:.0}, ",
            "\"latency_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}}, ",
            "\"mean_steps_per_req\": {:.1}, \"mean_spikes_per_req\": {:.0}, ",
            "\"early_exit_fraction\": {:.3}, \"mean_batch_occupancy\": {:.2}, ",
            "\"lockstep_batches\": {}, \"engine_step_ms\": {:.2}, ",
            "\"stage_profile\": [{}]}}"
        ),
        name,
        workers,
        max_batch,
        if autotune { "autotuned" } else { "fixed" },
        report.completed,
        report.throughput_rps,
        metrics.latency_us_p50,
        metrics.latency_us_p95,
        metrics.latency_us_p99,
        report.mean_steps,
        report.mean_spikes,
        report.early_exits as f64 / report.completed.max(1) as f64,
        metrics.batch_mean,
        profile.batches,
        profile.step_nanos as f64 / 1e6,
        stage_json.join(", "),
    );
    s
}

fn main() {
    let mut out_dir = ".".to_string();
    let mut quick = false;
    let mut min_mlp_b16_speedup: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out_dir = it.next().expect("missing value for --out"),
            "--quick" => quick = true,
            "--min-mlp-b16-speedup" => {
                min_mlp_b16_speedup = Some(
                    it.next()
                        .expect("missing value for --min-mlp-b16-speedup")
                        .parse()
                        .expect("floor must be a number"),
                )
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (usage: exp_bench_record [--out DIR] [--quick] \
                     [--min-mlp-b16-speedup X])"
                );
                std::process::exit(2);
            }
        }
    }
    // --quick: less training and smaller serve waves; the simulation
    // measurements themselves stay full-length (they are the floors).
    let (mlp_epochs, cnn_epochs) = if quick { (2, 1) } else { (6, 4) };
    let (mlp_wave, cnn_wave) = if quick { (128, 64) } else { (512, 128) };

    eprintln!("training workloads (mlp 144-32-10, vgg_tiny 1x12x12)...");
    let (mlp, mlp_test, mlp_images, mlp_scheme) =
        train_model(|| models::mlp(144, &[32], 10, 5).expect("mlp"), mlp_epochs);
    let (cnn, cnn_test, cnn_images, cnn_scheme) = train_model(
        || models::vgg_tiny(1, 12, 12, 10, 0).expect("vgg_tiny"),
        cnn_epochs,
    );

    eprintln!("measuring core simulation throughput...");
    let mlp_rec = core_record("mlp_144_32_10", &mlp, &mlp_images, mlp_scheme);
    let cnn_rec = core_record("vgg_tiny_1x12x12", &cnn, &cnn_images, cnn_scheme);
    let mlp_b16_speedup = mlp_rec.b16_speedup;
    let cnn_b16_speedup = cnn_rec.b16_speedup;
    let rustc_version = env!("BSNN_RUSTC_VERSION");
    let conv_instance = bsnn_core::synapse::conv_instance();
    let core = format!(
        "{{\n  \"schema\": \"bsnn-bench-core-v9\",\n  \"rustc_version\": \"{rustc_version}\",\n  \"conv_instance\": \"{conv_instance}\",\n  \"note\": \"lane-steps/s = images × time-steps simulated per wall-clock second; batch* rows run the lockstep engine (dense kernels plus the periodic-input PSP cache) at that width, best of {SIM_REPS} reps (batch16: best of 3 rounds); speedup_batch16_vs_batch1 is the CI floor metric; stage_profile_batch16 comes from the ProfileSink of the best batch-16 round: each stage's mean input density, and its dense-kernel step count, PSP-cache step count and kernel_ms of stage wall time, each summed over all {SIM_REPS} reps of that round (per-run counts are these divided by {SIM_REPS}); dataset_eval = full evaluate_dataset_batched passes at width 1 (parallel) and at the autotuned width (batched_autotuned)\",\n  \"workloads\": [\n    {},\n    {}\n  ],\n  \"dataset_eval\": [\n    {},\n    {}\n  ]\n}}\n",
        mlp_rec.json,
        cnn_rec.json,
        eval_record("mlp_144_32_10", &mlp, &mlp_test, mlp_scheme),
        eval_record("vgg_tiny_1x12x12", &cnn, &cnn_test, cnn_scheme),
    );
    let core_path = format!("{out_dir}/BENCH_core.json");
    std::fs::write(&core_path, &core).expect("write BENCH_core.json");
    eprintln!("wrote {core_path}");
    eprintln!(
        "batch16 speedup vs batch1: mlp {mlp_b16_speedup:.2}x, vgg_tiny {cnn_b16_speedup:.2}x"
    );
    // Fail the floor as soon as the metric exists — no point paying for
    // six serve waves on a run that has already regressed.
    if let Some(floor) = min_mlp_b16_speedup {
        if mlp_b16_speedup < floor {
            println!("{core}");
            eprintln!(
                "FAIL: mlp batch-16 speedup over batch 1 {mlp_b16_speedup:.2}x below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        eprintln!("perf floor ok: mlp batch-16 {mlp_b16_speedup:.2}x >= {floor:.2}x");
    }

    eprintln!("measuring serving throughput...");
    let serve = format!(
        "{{\n  \"schema\": \"bsnn-bench-serve-v8\",\n  \"rustc_version\": \"{rustc_version}\",\n  \"conv_instance\": \"{conv_instance}\",\n  \"note\": \"one closed-loop wave per config (cold worker engines included), confidence-margin early exit (horizon 96); latency percentiles are within-bucket interpolated log-bucket ranks; batch_policy=autotuned splits popped micro-batches to the model's measured width; ragged lockstep chunks are padded to fixed widths with dead lanes; stage_profile comes from the engine ProfileSink (kernel_ms = stage wall time over the whole wave, cached_steps = PSP-cache replays)\",\n  \"configs\": [\n    {},\n    {},\n    {},\n    {},\n    {},\n    {}\n  ]\n}}\n",
        serve_record("mlp_144_32_10", &mlp, mlp_scheme, &mlp_images, 4, 1, mlp_wave, false),
        serve_record("mlp_144_32_10", &mlp, mlp_scheme, &mlp_images, 4, 8, mlp_wave, false),
        serve_record("mlp_144_32_10", &mlp, mlp_scheme, &mlp_images, 4, 8, mlp_wave, true),
        serve_record("vgg_tiny_1x12x12", &cnn, cnn_scheme, &cnn_images, 1, 1, cnn_wave, false),
        serve_record("vgg_tiny_1x12x12", &cnn, cnn_scheme, &cnn_images, 1, 16, cnn_wave, false),
        serve_record("vgg_tiny_1x12x12", &cnn, cnn_scheme, &cnn_images, 1, 16, cnn_wave, true),
    );
    let serve_path = format!("{out_dir}/BENCH_serve.json");
    std::fs::write(&serve_path, &serve).expect("write BENCH_serve.json");
    eprintln!("wrote {serve_path}");
    println!("{core}");
    println!("{serve}");
}
