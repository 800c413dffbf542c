//! Criterion bench of lockstep simulation at batch widths 1, 4 and 16.
//!
//! Each `batchN` sample runs the first N of 16 images as one lockstep
//! batch through `BatchedStepwiseInference` for a fixed horizon; `batch1`
//! is the baseline. The acceptance bar for the SoA kernels is
//! `batch16 ≤ 8 × batch1` per sample (16 lanes at ≥ 2× the lane-steps/s
//! of one) on the synthetic-digit conv network (`cnn` group — scatter
//! kernels are weight-reuse-bound, so lockstep SIMD wins). The `mlp`
//! group records the counterpoint: a small dense layer under sparse
//! spike traffic is event-skip-bound, because a lockstep batch must
//! touch every input that is live in *any* lane. The scalar engine is
//! the correctness reference and is not timed here.
//!
//! The `conv_kernel` group times the kernel alone: one
//! `Synapse::accumulate_batch` call on VGG-small's two costliest conv
//! shapes, at lockstep widths 1 (the scalar scatter), 4, 8 and 16 (the
//! register-blocked output-stationary kernel, whose widths 8 and 16 run
//! its AVX instance where the CPU has AVX; the group prints which).

use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::EvalConfig;
use bsnn_core::synapse::{self, Chw, Synapse};
use bsnn_core::SpikingNetwork;
use bsnn_data::SynthSpec;
use bsnn_dnn::models;
use bsnn_dnn::train::{TrainConfig, Trainer};
use bsnn_tensor::conv::Conv2dGeometry;
use bsnn_tensor::init::uniform;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const STEPS: usize = 64;
const MAX_BATCH: usize = 16;

/// The serving workload: the trained synthetic-digit MLP (144-32-10)
/// under the paper's recommended phase-burst coding.
fn digit_mlp() -> (SpikingNetwork, Vec<Vec<f32>>, CodingScheme) {
    let (train, test) = SynthSpec::digits().with_counts(60, 4).generate();
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
    let images = (0..MAX_BATCH)
        .map(|i| test.image(i % test.len()).to_vec())
        .collect();
    (snn, images, scheme)
}

/// The quickstart's synthetic-digit conv network: vgg_tiny (conv3 →
/// avg-pool → dense) trained on the digits task, converted with
/// phase-burst coding — the scatter-kernel workload.
fn digit_cnn() -> (SpikingNetwork, Vec<Vec<f32>>, CodingScheme) {
    let (train, test) = SynthSpec::digits().with_counts(60, 4).generate();
    let mut dnn = models::vgg_tiny(1, 12, 12, 10, 0).expect("model");
    Trainer::new(TrainConfig {
        epochs: 4,
        batch_size: 30,
        lr: 2e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)
    .expect("training");
    let scheme = CodingScheme::recommended();
    let norm = train.batch(&(0..40).collect::<Vec<_>>()).0;
    let snn = convert(&mut dnn, &norm, &ConversionConfig::new(scheme)).expect("conversion");
    let images = (0..MAX_BATCH)
        .map(|i| test.image(i % test.len()).to_vec())
        .collect();
    (snn, images, scheme)
}

fn bench_one_workload(
    c: &mut Criterion,
    name: &str,
    net: SpikingNetwork,
    images: Vec<Vec<f32>>,
    scheme: CodingScheme,
) {
    let cfg = EvalConfig::new(scheme, STEPS);
    let mut group = c.benchmark_group(format!("batched_sim/{name}"));
    group.sample_size(10);
    // Lockstep batches over the same images and horizon; batch 1 is the
    // baseline.
    for &batch in &[1usize, 4, 16] {
        let mut engine = BatchedNetwork::new(net.clone(), batch).expect("engine");
        let refs: Vec<&[f32]> = images[..batch].iter().map(|i| i.as_slice()).collect();
        group.bench_function(format!("batch{batch}"), |b| {
            b.iter(|| {
                let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &cfg).expect("run");
                while run.advance().expect("step") {}
                let mut acc = 0usize;
                for lane in 0..batch {
                    acc += run.prediction(lane);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_batched_sim(c: &mut Criterion) {
    let (mlp, mlp_images, mlp_scheme) = digit_mlp();
    bench_one_workload(c, "mlp", mlp, mlp_images, mlp_scheme);
    let (cnn, cnn_images, cnn_scheme) = digit_cnn();
    bench_one_workload(c, "cnn", cnn, cnn_images, cnn_scheme);
}

/// One conv stage's `accumulate_batch` per iteration (PSP zeroed first,
/// as the engine does every step): VGG-small's stage 1 (32→32 channels,
/// 16×16) and stage 4 (64→64, 8×8), 3×3 kernels with pad 1, on a seeded
/// input where ~25% of lane values spike.
fn bench_conv_kernel(c: &mut Criterion) {
    println!(
        "conv_kernel: widths 8 and 16 run the {} instance",
        synapse::conv_instance()
    );
    let mut group = c.benchmark_group("conv_kernel");
    group.sample_size(10);
    for (stage, c_in, c_out, hw) in [("stage1", 32, 32, 16), ("stage4", 64, 64, 8)] {
        let mut rng = StdRng::seed_from_u64(41);
        let syn = Synapse::Conv {
            weight: uniform(&mut rng, &[c_out, c_in, 3, 3], -0.1, 0.1),
            geom: Conv2dGeometry::square(3, 1, 1),
            in_shape: Chw::new(c_in, hw, hw),
            out_shape: Chw::new(c_out, hw, hw),
        };
        for width in [1usize, 4, 8, 16] {
            let input: Vec<f32> = (0..syn.input_len() * width)
                .map(|_| {
                    if rng.gen_range(0.0..1.0f32) < 0.25 {
                        0.125
                    } else {
                        0.0
                    }
                })
                .collect();
            let mut psp = vec![0.0f32; syn.output_len() * width];
            group.bench_function(format!("{stage}/w{width}"), |b| {
                b.iter(|| {
                    psp.fill(0.0);
                    syn.accumulate_batch(&input, &mut psp, width)
                        .expect("shapes");
                    black_box(psp[0])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_conv_kernel, bench_batched_sim);
criterion_main!(benches);
