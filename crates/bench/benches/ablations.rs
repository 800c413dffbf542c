//! Criterion benches for the DESIGN.md ablations: conversion cost under
//! max vs percentile normalization, burst-constant β variants, and the
//! raw spiking-layer step cost per threshold policy.
//!
//! The β variants time `infer_image`, the cache-free scalar reference,
//! which recomputes the input stage every step.

use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig, Normalization};
use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
use bsnn_core::simulator::{infer_image, EvalConfig};
use bsnn_core::synapse::Synapse;
use bsnn_data::SynthSpec;
use bsnn_dnn::models;
use bsnn_tensor::init::uniform;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_conversion(c: &mut Criterion) {
    let (train, _) = SynthSpec::digits().with_counts(8, 2).generate();
    let mut dnn = models::vgg_tiny(1, 12, 12, 10, 3).expect("model");
    let (norm, _) = train.batch(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let scheme = CodingScheme::recommended();

    let mut group = c.benchmark_group("ablation_conversion");
    group.sample_size(20);
    for (label, method) in [
        ("normalize_max", Normalization::Max),
        ("normalize_p999", Normalization::Percentile(99.9)),
    ] {
        let cfg = ConversionConfig::new(scheme).with_normalization(method);
        group.bench_function(label, |b| {
            b.iter(|| black_box(convert(&mut dnn, black_box(&norm), &cfg).expect("conversion")))
        });
    }
    group.finish();
}

fn bench_beta(c: &mut Criterion) {
    let (train, test) = SynthSpec::digits().with_counts(8, 2).generate();
    let mut dnn = models::vgg_tiny(1, 12, 12, 10, 3).expect("model");
    let (norm, _) = train.batch(&[0, 1, 2, 3]);
    let scheme = CodingScheme::recommended();
    let image = test.image(0).to_vec();

    let mut group = c.benchmark_group("ablation_beta_infer_32steps");
    group.sample_size(20);
    for beta in [1.0f32, 2.0, 4.0] {
        let cfg = ConversionConfig::new(scheme)
            .with_vth(0.125)
            .with_beta(beta);
        let mut snn = convert(&mut dnn, &norm, &cfg).expect("conversion");
        let eval_cfg = EvalConfig::new(scheme, 32);
        group.bench_function(format!("beta_{beta}"), |b| {
            b.iter(|| {
                black_box(
                    infer_image(&mut snn, black_box(&image), &eval_cfg)
                        .expect("inference")
                        .cum_spikes,
                )
            })
        });
    }
    group.finish();
}

fn bench_layer_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let weight = uniform(&mut rng, &[256, 256], -0.1, 0.1);
    let input: Vec<f32> = (0..256)
        .map(|i| if i % 4 == 0 { 0.5 } else { 0.0 })
        .collect();

    let mut group = c.benchmark_group("ablation_layer_step_256x256");
    for (label, policy) in [
        ("rate", ThresholdPolicy::Fixed { vth: 1.0 }),
        (
            "phase",
            ThresholdPolicy::Phase {
                vth: 8.0,
                period: 8,
            },
        ),
        (
            "burst",
            ThresholdPolicy::Burst {
                vth: 0.125,
                beta: 2.0,
            },
        ),
    ] {
        let mut layer = SpikingLayer::new(
            Synapse::Dense {
                weight: weight.clone(),
            },
            None,
            policy,
        )
        .expect("layer");
        let mut t = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                t += 1;
                black_box(layer.step(black_box(&input), t).expect("step").len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conversion, bench_beta, bench_layer_step);
criterion_main!(benches);
