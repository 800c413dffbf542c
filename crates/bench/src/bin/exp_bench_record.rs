//! Records the repo's perf baselines as machine-readable JSON:
//! `BENCH_core.json` (simulation steps/s, sequential vs lockstep
//! batches) and `BENCH_serve.json` (serving req/s and latency
//! percentiles), so future PRs have a perf trajectory to compare
//! against.
//!
//! ```text
//! cargo run --release -p bsnn-bench --bin exp_bench_record -- \
//!     [--out DIR] [--quick] [--min-mlp-b16-speedup X] [--require-packed] \
//!     [--require-quant-probe]
//! ```
//!
//! `--quick` shrinks training and the serve waves for CI smoke runs;
//! `--min-mlp-b16-speedup X` exits nonzero unless the MLP's batch-16
//! auto-dispatch lane-steps/s reaches `X ×` its sequential baseline — a
//! machine-independent floor guarding the density-dispatching engine's
//! win (absolute lane-steps/s floors would be runner-dependent).
//! `--require-packed` exits nonzero unless the packed bit-plane kernel
//! is either auto-selected on at least one stage, or its forced-packed
//! batch-16 throughput lands within the dispatch hysteresis (1.15×) of
//! forced-dense on at least one workload — so the packed path can't
//! silently rot. `--require-quant-probe` is the same guard for the int8
//! path plus two extra pins: forced-quant batch-16 must land within 15%
//! of the best forced row on at least one workload, at least one
//! conv/pool stage must pick a non-dense strategy under auto dispatch
//! (vgg_tiny), and the MLP's auto dispatch must reach 95% of its best
//! forced row (the stage-0 miscalibration regression from BENCH v5).
//!
//! Numbers are wall-clock measurements of this machine; the JSON
//! records the workload shape alongside every figure so comparisons
//! stay apples-to-apples.

use bsnn_bench::{auto_dispatch, autotune_cached};
use bsnn_core::autotune::AutotuneConfig;
use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference, DispatchMode, DispatchPolicy};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::{
    evaluate_dataset, evaluate_dataset_batched, evaluate_dataset_batched_with_dispatch, EvalConfig,
    StepwiseInference,
};
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
const SIM_BATCH: usize = 16;
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

/// Lane-steps per second of `batch` sequential single-image runs.
fn seq_steps_per_sec(net: &SpikingNetwork, images: &[Vec<f32>], cfg: &EvalConfig) -> f64 {
    let mut local = net.clone();
    let secs = best_secs(SIM_REPS, || {
        for image in &images[..SIM_BATCH] {
            let mut run = StepwiseInference::new(&mut local, image, cfg).expect("run");
            while run.advance().expect("step") {}
            black_box(run.prediction());
        }
    });
    (SIM_BATCH * SIM_STEPS) as f64 / secs
}

/// Lane-steps per second of one lockstep batch of `width` lanes under
/// `dispatch`, plus the per-stage dispatch counters of the last rep and
/// the profile (kernel wall time per stage) aggregated over all reps.
fn batched_steps_per_sec(
    net: &SpikingNetwork,
    images: &[Vec<f32>],
    cfg: &EvalConfig,
    width: usize,
    dispatch: &DispatchPolicy,
) -> (
    f64,
    Vec<bsnn_core::batch::StageDispatchStats>,
    bsnn_core::ProfileSnapshot,
) {
    let sink = Arc::new(bsnn_core::ProfileSink::new(net.layers().len() + 1));
    let mut engine = BatchedNetwork::new(net.clone(), width).expect("engine");
    engine.set_dispatch(dispatch.clone());
    engine.set_profile_sink(Some(Arc::clone(&sink)));
    let refs: Vec<&[f32]> = images[..width].iter().map(|v| v.as_slice()).collect();
    let secs = best_secs(SIM_REPS, || {
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, cfg).expect("run");
        while run.advance().expect("step") {}
        for lane in 0..width {
            black_box(run.prediction(lane));
        }
    });
    (
        (width * SIM_STEPS) as f64 / secs,
        engine.dispatch_stats().to_vec(),
        sink.snapshot(),
    )
}

/// The floor-gate evidence one workload's core record produces besides
/// its JSON string.
struct CoreRecord {
    json: String,
    /// Auto-dispatch batch-16 speedup vs sequential (the floor metric).
    b16_speedup: f64,
    /// The packed kernel "held its ground": auto-selected on at least
    /// one stage, or forced-packed within the dispatch hysteresis
    /// (1.15×) of forced-dense.
    packed_ok: bool,
    /// Same guard for the int8 kernel: auto-selected, or forced-quant
    /// within 15% of the best forced row.
    quant_ok: bool,
    /// At least one conv/pool stage picked a non-dense strategy
    /// (packed or quant) under auto dispatch.
    convpool_nondense: bool,
    /// Auto dispatch reached 95% of the best forced row — the
    /// miscalibration pin from BENCH v5 (MLP auto ran 6% behind
    /// forced-dense because plane-build cost was invisible to the
    /// per-stage microbench).
    auto_ok: bool,
}

fn core_record(
    name: &str,
    net: &SpikingNetwork,
    images: &[Vec<f32>],
    scheme: CodingScheme,
) -> CoreRecord {
    let cfg = EvalConfig::new(scheme, SIM_STEPS);
    let policy = autotune_cached(net, scheme, &AutotuneConfig::default());
    let auto = auto_dispatch(&policy);
    let dense = DispatchPolicy::forced(DispatchMode::ForceDense);
    let packed = DispatchPolicy::forced(DispatchMode::ForcePacked);
    let quant = DispatchPolicy::forced(DispatchMode::ForceQuantized);
    let seq = seq_steps_per_sec(net, images, &cfg);
    let (b1, _, _) = batched_steps_per_sec(net, images, &cfg, 1, &auto);
    let (b4, _, _) = batched_steps_per_sec(net, images, &cfg, 4, &auto);
    // The batch-16 rows get compared against each other by the gate
    // flags below, so interleave their measurements across rounds —
    // container-level drift then hits every row alike instead of
    // penalizing whichever row ran during a slow window.
    let (mut b16, mut b16_dense, mut b16_packed, mut b16_quant) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut auto_evidence = None;
    for _ in 0..3 {
        let (r, s, p) = batched_steps_per_sec(net, images, &cfg, 16, &auto);
        if r > b16 {
            b16 = r;
            auto_evidence = Some((s, p));
        }
        b16_dense = b16_dense.max(batched_steps_per_sec(net, images, &cfg, 16, &dense).0);
        b16_packed = b16_packed.max(batched_steps_per_sec(net, images, &cfg, 16, &packed).0);
        b16_quant = b16_quant.max(batched_steps_per_sec(net, images, &cfg, 16, &quant).0);
    }
    let (stats, profile) = auto_evidence.expect("at least one auto round");
    let stages: Vec<String> = stats
        .iter()
        .enumerate()
        .map(|(k, st)| {
            format!(
                concat!(
                    "{{\"stage\": {}, \"packed_crossover\": {:.4}, ",
                    "\"quant_crossover\": {:.4}, \"quant_eligible\": {}, ",
                    "\"mean_density\": {:.3}, ",
                    "\"dense_steps\": {}, \"packed_steps\": {}, ",
                    "\"quant_steps\": {}, ",
                    "\"cached_steps\": {}, \"kernel_ms\": {:.2}}}"
                ),
                k,
                policy
                    .packed_thresholds
                    .get(k)
                    .copied()
                    .unwrap_or(bsnn_core::batch::DEFAULT_PACKED_CROSSOVER),
                policy
                    .quant_thresholds
                    .get(k)
                    .copied()
                    .unwrap_or(bsnn_core::batch::DEFAULT_QUANT_CROSSOVER),
                policy.quant_eligible.get(k).copied().unwrap_or(false),
                st.mean_density(),
                st.dense_steps,
                st.packed_steps,
                st.quant_steps,
                st.cached_steps,
                profile
                    .stages
                    .get(k)
                    .map_or(0.0, |p| p.kernel_nanos as f64 / 1e6),
            )
        })
        .collect();
    let best_forced = b16_dense.max(b16_packed).max(b16_quant);
    let packed_selected = stats.iter().any(|st| st.packed_steps > 0);
    let packed_ok = packed_selected || b16_packed * 1.15 >= b16_dense;
    let quant_selected = stats.iter().any(|st| st.quant_steps > 0);
    let quant_ok = quant_selected || b16_quant * 1.15 >= best_forced;
    // Stage k's synapse: hidden layers 0..n, then the output synapse.
    let stage_synapse = |k: usize| {
        net.layers()
            .get(k)
            .map(|l| l.synapse())
            .unwrap_or_else(|| net.output_synapse())
    };
    let convpool_nondense = stats.iter().enumerate().any(|(k, st)| {
        !matches!(stage_synapse(k), bsnn_core::synapse::Synapse::Dense { .. })
            && (st.packed_steps > 0 || st.quant_steps > 0)
    });
    let auto_ok = b16 >= 0.95 * best_forced;
    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\"workload\": \"{}\", \"neurons\": {}, \"coding\": \"{}\", ",
            "\"steps\": {}, \"lane_steps_per_sec\": {{\"sequential\": {:.0}, ",
            "\"batch1\": {:.0}, \"batch4\": {:.0}, \"batch16\": {:.0}, ",
            "\"batch16_forced_dense\": {:.0}, \"batch16_forced_packed\": {:.0}, ",
            "\"batch16_forced_quant\": {:.0}}}, ",
            "\"speedup_batch16_vs_sequential\": {:.2}, ",
            "\"dispatch_batch16\": [{}]}}"
        ),
        name,
        net.num_neurons(),
        scheme,
        SIM_STEPS,
        seq,
        b1,
        b4,
        b16,
        b16_dense,
        b16_packed,
        b16_quant,
        b16 / seq,
        stages.join(", "),
    );
    CoreRecord {
        json,
        b16_speedup: b16 / seq,
        packed_ok,
        quant_ok,
        convpool_nondense,
        auto_ok,
    }
}

/// One workload's end-to-end dataset-evaluation record (images/s for
/// sequential vs parallel vs batched×parallel at the autotuned width)
/// as a JSON object string.
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
    let seq = best_secs(3, || {
        let mut local = net.clone();
        std::hint::black_box(evaluate_dataset(&mut local, test, &cfg).expect("eval"));
    });
    let par = best_secs(3, || {
        std::hint::black_box(evaluate_dataset_batched(net, test, &cfg, threads, 1).expect("eval"));
    });
    let dispatch = auto_dispatch(&policy);
    let batched = best_secs(3, || {
        std::hint::black_box(
            evaluate_dataset_batched_with_dispatch(
                net,
                test,
                &cfg,
                threads,
                policy.preferred_batch,
                &dispatch,
            )
            .expect("eval"),
        );
    });
    let ips = |secs: f64| n_images as f64 / secs;
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "{{\"workload\": \"{}\", \"images\": {}, \"steps\": {}, \"threads\": {}, ",
            "\"preferred_batch\": {}, \"images_per_sec\": {{\"sequential\": {:.1}, ",
            "\"parallel\": {:.1}, \"batched_autotuned\": {:.1}}}, ",
            "\"speedup_batched_vs_parallel\": {:.2}}}"
        ),
        name,
        n_images,
        SIM_STEPS,
        threads,
        policy.preferred_batch,
        ips(seq),
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
    // time went and which kernel each stage picked.
    let profile = registry.get("digits").expect("entry").profile().snapshot();
    let stage_json: Vec<String> = profile
        .stages
        .iter()
        .enumerate()
        .map(|(k, st)| {
            format!(
                concat!(
                    "{{\"stage\": {}, \"dense_steps\": {}, ",
                    "\"packed_steps\": {}, \"quant_steps\": {}, \"cached_steps\": {}, ",
                    "\"mean_density\": {:.3}, ",
                    "\"kernel_ms\": {:.2}}}"
                ),
                k,
                st.dense_steps,
                st.packed_steps,
                st.quant_steps,
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
    let mut require_packed = false;
    let mut require_quant_probe = false;
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
            "--require-packed" => require_packed = true,
            "--require-quant-probe" => require_quant_probe = true,
            other => {
                eprintln!(
                    "unknown flag `{other}` (usage: exp_bench_record [--out DIR] [--quick] \
                     [--min-mlp-b16-speedup X] [--require-packed] [--require-quant-probe])"
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
        "{{\n  \"schema\": \"bsnn-bench-core-v7\",\n  \"rustc_version\": \"{rustc_version}\",\n  \"conv_instance\": \"{conv_instance}\",\n  \"note\": \"lane-steps/s = images × time-steps simulated per wall-clock second; sequential = {SIM_BATCH} back-to-back single-image runs; batch* rows run the density-dispatching engine at the autotuned crossovers, batch16_forced_dense pins the pre-dispatch dense kernels, batch16_forced_packed pins the bit-plane mask kernels (u64 activity masks + power-of-two exponent planes, register-blocked replay), and batch16_forced_quant pins the int8 fixed-point kernels (symmetric per-column scales, i32 PSP accumulation, burst magnitudes folded in as shifts); dispatch_batch16 records each stage's measured density and strategy mix (dense/packed/quant/cached) plus kernel_ms of stage wall time summed over all {SIM_REPS} measurement reps (ProfileSink); dataset_eval = full evaluate_dataset passes (batched width from the autotuner)\",\n  \"workloads\": [\n    {},\n    {}\n  ],\n  \"dataset_eval\": [\n    {},\n    {}\n  ]\n}}\n",
        mlp_rec.json,
        cnn_rec.json,
        eval_record("mlp_144_32_10", &mlp, &mlp_test, mlp_scheme),
        eval_record("vgg_tiny_1x12x12", &cnn, &cnn_test, cnn_scheme),
    );
    let core_path = format!("{out_dir}/BENCH_core.json");
    std::fs::write(&core_path, &core).expect("write BENCH_core.json");
    eprintln!("wrote {core_path}");
    eprintln!(
        "batch16 speedup vs sequential: mlp {mlp_b16_speedup:.2}x, vgg_tiny {cnn_b16_speedup:.2}x"
    );
    // Fail the floor as soon as the metric exists — no point paying for
    // six serve waves on a run that has already regressed.
    if let Some(floor) = min_mlp_b16_speedup {
        if mlp_b16_speedup < floor {
            println!("{core}");
            eprintln!(
                "FAIL: mlp batch-16 speedup {mlp_b16_speedup:.2}x below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        eprintln!("perf floor ok: mlp batch-16 {mlp_b16_speedup:.2}x >= {floor:.2}x");
    }
    if require_packed {
        if !(mlp_rec.packed_ok || cnn_rec.packed_ok) {
            println!("{core}");
            eprintln!(
                "FAIL: packed kernel neither auto-selected on any stage nor within the \
                 1.15x hysteresis of forced-dense on any workload"
            );
            std::process::exit(1);
        }
        eprintln!(
            "packed kernel ok: selected or within hysteresis (mlp {}, vgg_tiny {})",
            mlp_rec.packed_ok, cnn_rec.packed_ok
        );
    }
    if require_quant_probe {
        let mut fail = false;
        if !(mlp_rec.quant_ok || cnn_rec.quant_ok) {
            eprintln!(
                "FAIL: int8 kernel neither auto-selected on any stage nor within 15% of \
                 the best forced row on any workload"
            );
            fail = true;
        }
        if !cnn_rec.convpool_nondense {
            eprintln!(
                "FAIL: no conv/pool stage picked a non-dense strategy under auto dispatch \
                 on vgg_tiny (mask-plane staging coverage)"
            );
            fail = true;
        }
        if !mlp_rec.auto_ok {
            eprintln!(
                "FAIL: mlp auto dispatch below 95% of its best forced row (the BENCH v5 \
                 stage-0 miscalibration regression)"
            );
            fail = true;
        }
        if fail {
            println!("{core}");
            std::process::exit(1);
        }
        eprintln!(
            "quant probe ok: int8 competitive (mlp {}, vgg_tiny {}), conv/pool non-dense \
             coverage {}, mlp auto within 5% of best forced {}",
            mlp_rec.quant_ok, cnn_rec.quant_ok, cnn_rec.convpool_nondense, mlp_rec.auto_ok
        );
    }

    eprintln!("measuring serving throughput...");
    let serve = format!(
        "{{\n  \"schema\": \"bsnn-bench-serve-v7\",\n  \"rustc_version\": \"{rustc_version}\",\n  \"conv_instance\": \"{conv_instance}\",\n  \"note\": \"one closed-loop wave per config (cold worker engines included), confidence-margin early exit (horizon 96); latency percentiles are within-bucket interpolated log-bucket ranks; batch_policy=autotuned splits popped micro-batches to the model's measured width and installs its packed and quant crossovers (int8 only where the accuracy gate passed); ragged lockstep chunks are padded to fixed widths with dead lanes; stage_profile comes from the engine ProfileSink (kernel_ms = stage wall time over the whole wave, packed_steps = bit-plane kernel selections, quant_steps = int8 kernel selections)\",\n  \"configs\": [\n    {},\n    {},\n    {},\n    {},\n    {},\n    {}\n  ]\n}}\n",
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
