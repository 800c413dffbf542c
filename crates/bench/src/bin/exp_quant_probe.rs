//! Microbenchmark + accuracy probe for the int8 quantized path:
//! kernel-level f32-dense vs int8 costs across a (shape, density)
//! grid, then end-to-end accuracy deltas of quantized inference on the
//! two bench workloads (quickstart MLP and vgg_tiny), per stage and
//! combined.
//!
//! ```text
//! cargo run --release -p bsnn-bench --bin exp_quant_probe -- \
//!     [--min-kernel-speedup X] [--max-accuracy-delta D]
//! ```
//!
//! `--min-kernel-speedup X` exits nonzero unless the int8 kernel
//! reaches `X ×` the f32 dense kernel on at least one grid cell;
//! `--max-accuracy-delta D` exits nonzero if auto-with-quant dispatch
//! moves either workload's accuracy by more than `D` absolute vs the
//! f32 engine — the same bound the autotuner's accuracy gate enforces
//! (default 0.005).

use std::hint::black_box;
use std::time::Instant;

use bsnn_bench::{auto_dispatch, autotune_cached};
use bsnn_core::autotune::AutotuneConfig;
use bsnn_core::batch::{DispatchMode, DispatchPolicy};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::{evaluate_dataset_batched_with_dispatch, EvalConfig};
use bsnn_core::synapse::Synapse;
use bsnn_core::{QuantScratch, QuantizedDense, SpikingNetwork};
use bsnn_data::{ImageDataset, SynthSpec};
use bsnn_dnn::models;
use bsnn_dnn::train::{TrainConfig, Trainer};
use bsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTH: usize = 16;
const REPS: usize = 7;
const SIM_STEPS: usize = 64;

/// Best-of-N wall clock of `f`, in nanoseconds.
fn best_nanos(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Inputs at the requested per-element density: power-of-two multiples
/// of `base`, the on-plane traffic both kernels are built for.
fn density_input(rng: &mut StdRng, len: usize, base: f32, density: f32) -> Vec<f32> {
    (0..len * WIDTH)
        .map(|_| {
            if rng.gen_range(0.0..1.0f32) < density {
                base * 2.0f32.powi(rng.gen_range(-6..=2))
            } else {
                0.0
            }
        })
        .collect()
}

/// Times one (shape, density) cell: ns per call for the f32 dense
/// kernel vs the int8 kernel (self-packing and plane-fed). Returns the
/// best int8 speedup vs f32 dense of the cell.
fn kernel_cell(rng: &mut StdRng, n_in: usize, n_out: usize, density: f32) -> f64 {
    let base = 0.4f32;
    let weight_data: Vec<f32> = (0..n_in * n_out)
        .map(|_| rng.gen_range(-1.0..1.0f32))
        .collect();
    let weight = Tensor::from_vec(weight_data, &[n_in, n_out]).unwrap();
    let qd = QuantizedDense::from_weights(&weight).expect("quantizable grid weight");
    let syn = Synapse::Dense { weight };
    let input = density_input(rng, n_in, base, density);
    let masks: Vec<u64> = input
        .chunks_exact(WIDTH)
        .map(|lanes| {
            lanes
                .iter()
                .enumerate()
                .fold(0u64, |m, (b, &s)| m | ((s != 0.0) as u64) << b)
        })
        .collect();
    let mut psp = vec![0.0f32; n_out * WIDTH];
    let mut scratch = QuantScratch::default();
    let iters = (1 << 22) / (n_in * n_out).max(1);
    let per = |nanos: f64| nanos / iters as f64;
    let dense = best_nanos(REPS, || {
        for _ in 0..iters {
            syn.accumulate_batch(&input, &mut psp, WIDTH).unwrap();
        }
        black_box(&psp);
    });
    let quant_self = best_nanos(REPS, || {
        for _ in 0..iters {
            psp.iter_mut().for_each(|v| *v = 0.0);
            qd.accumulate_packed(&input, &mut psp, WIDTH, Some(base), &mut scratch)
                .unwrap();
        }
        black_box(&psp);
    });
    let quant_planes = best_nanos(REPS, || {
        for _ in 0..iters {
            psp.iter_mut().for_each(|v| *v = 0.0);
            qd.accumulate_packed_planes(
                &input,
                &mut psp,
                WIDTH,
                &masks,
                None,
                Some(base),
                &mut scratch,
            )
            .unwrap();
        }
        black_box(&psp);
    });
    let best_quant = quant_self.min(quant_planes);
    let speedup = dense / best_quant;
    println!(
        "  {n_in:>4}x{n_out:<4} d={density:<5} f32-dense {:>8.0} ns  int8(self) {:>8.0} ns  \
         int8(planes) {:>8.0} ns  speedup {speedup:>5.2}x",
        per(dense),
        per(quant_self),
        per(quant_planes),
    );
    speedup
}

fn train_model(
    build: impl Fn() -> bsnn_dnn::Sequential,
    epochs: usize,
) -> (SpikingNetwork, ImageDataset, CodingScheme) {
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
    (snn, test, scheme)
}

/// Dataset accuracy at batch [`WIDTH`] under `dispatch`.
fn accuracy(
    net: &SpikingNetwork,
    test: &ImageDataset,
    scheme: CodingScheme,
    dispatch: &DispatchPolicy,
) -> f64 {
    let cfg = EvalConfig::new(scheme, SIM_STEPS);
    evaluate_dataset_batched_with_dispatch(net, test, &cfg, 1, WIDTH, dispatch)
        .expect("eval")
        .final_accuracy()
}

/// Per-stage and combined accuracy deltas of the quantized path on one
/// workload. Returns the absolute delta of auto-with-quant dispatch
/// (the deployment configuration) vs the f32 engine.
fn workload_deltas(
    name: &str,
    net: &SpikingNetwork,
    test: &ImageDataset,
    scheme: CodingScheme,
) -> f64 {
    let policy = autotune_cached(net, scheme, &AutotuneConfig::default());
    let n_stages = net.layers().len() + 1;
    let f32_policy = DispatchPolicy {
        mode: DispatchMode::Auto,
        packed_thresholds: policy.packed_thresholds.clone(),
        ..DispatchPolicy::default()
    };
    let base_acc = accuracy(net, test, scheme, &f32_policy);
    println!("\n{name}: f32 accuracy {base_acc:.4}");
    // Stage-by-stage: force the int8 kernel on (threshold past the
    // grid top) for one quantizable stage at a time — the harshest
    // per-stage exposure, same as the autotuner's gate.
    let stage_synapse = |k: usize| {
        net.layers()
            .get(k)
            .map(|l| l.synapse())
            .unwrap_or_else(|| net.output_synapse())
    };
    for k in 0..n_stages {
        let quantizable = matches!(stage_synapse(k), Synapse::Dense { weight }
            if QuantizedDense::from_weights(weight).is_some());
        if !quantizable {
            println!("  stage {k}: not quantizable (conv/pool or degenerate)");
            continue;
        }
        let mut eligible = vec![false; n_stages];
        eligible[k] = true;
        let one = DispatchPolicy {
            quant_thresholds: vec![1.01; n_stages],
            quant_eligible: eligible,
            ..f32_policy.clone()
        };
        let acc = accuracy(net, test, scheme, &one);
        println!(
            "  stage {k}: int8-forced accuracy {acc:.4}  (delta {:+.4})",
            acc - base_acc
        );
    }
    // Deployment configuration: the autotuned policy as shipped —
    // measured quant crossovers, gate-approved eligibility.
    let auto_quant = auto_dispatch(&policy);
    let auto_acc = accuracy(net, test, scheme, &auto_quant);
    let delta = (auto_acc - base_acc).abs();
    println!(
        "  auto-with-quant accuracy {auto_acc:.4}  (delta {:+.4}, eligible {:?})",
        auto_acc - base_acc,
        policy.quant_eligible
    );
    delta
}

fn main() {
    let mut min_kernel_speedup: Option<f64> = None;
    let mut max_accuracy_delta: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--min-kernel-speedup" => {
                min_kernel_speedup = Some(
                    it.next()
                        .expect("missing value for --min-kernel-speedup")
                        .parse()
                        .expect("floor must be a number"),
                )
            }
            "--max-accuracy-delta" => {
                max_accuracy_delta = Some(
                    it.next()
                        .expect("missing value for --max-accuracy-delta")
                        .parse()
                        .expect("bound must be a number"),
                )
            }
            other => {
                eprintln!(
                    "unknown flag `{other}` (usage: exp_quant_probe \
                     [--min-kernel-speedup X] [--max-accuracy-delta D])"
                );
                std::process::exit(2);
            }
        }
    }

    let mut rng = StdRng::seed_from_u64(4243);
    println!("kernel grid (width {WIDTH}, best of {REPS}, int8 vs f32 dense):");
    let mut best_speedup = 0.0f64;
    for (n_in, n_out) in [(144usize, 32usize), (32, 10), (128, 128), (512, 64)] {
        for density in [0.05f32, 0.1, 0.2, 0.4, 0.8] {
            best_speedup = best_speedup.max(kernel_cell(&mut rng, n_in, n_out, density));
        }
    }
    println!("best int8 speedup vs f32 dense: {best_speedup:.2}x");
    if let Some(floor) = min_kernel_speedup {
        if best_speedup < floor {
            eprintln!(
                "FAIL: best int8 kernel speedup {best_speedup:.2}x below the {floor:.2}x floor"
            );
            std::process::exit(1);
        }
        eprintln!("kernel floor ok: {best_speedup:.2}x >= {floor:.2}x");
    }

    eprintln!("training workloads (mlp 144-32-10, vgg_tiny 1x12x12)...");
    let (mlp, mlp_test, mlp_scheme) =
        train_model(|| models::mlp(144, &[32], 10, 5).expect("mlp"), 2);
    let (cnn, cnn_test, cnn_scheme) =
        train_model(|| models::vgg_tiny(1, 12, 12, 10, 0).expect("vgg_tiny"), 1);
    let mlp_delta = workload_deltas("mlp_144_32_10", &mlp, &mlp_test, mlp_scheme);
    let cnn_delta = workload_deltas("vgg_tiny_1x12x12", &cnn, &cnn_test, cnn_scheme);
    if let Some(bound) = max_accuracy_delta {
        if mlp_delta > bound || cnn_delta > bound {
            eprintln!(
                "FAIL: auto-with-quant accuracy delta (mlp {mlp_delta:.4}, vgg_tiny \
                 {cnn_delta:.4}) exceeds the {bound:.4} bound"
            );
            std::process::exit(1);
        }
        eprintln!(
            "accuracy bound ok: deltas (mlp {mlp_delta:.4}, vgg_tiny {cnn_delta:.4}) \
             within {bound:.4}"
        );
    }
}
