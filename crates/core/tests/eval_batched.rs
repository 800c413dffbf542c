//! `evaluate_dataset_batched` must be **bit-identical** to the scalar
//! reference `evaluate_dataset` across batch widths {1, 2, 7, 16} ×
//! thread counts {1, 4}, on both a conv+pool and a dense network —
//! accuracy at every checkpoint, mean spikes, per-layer totals, and
//! (via the prefix sweep below) every individual image's prediction.

use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
use bsnn_core::layer::{ResetMode, SpikingLayer, ThresholdPolicy};
use bsnn_core::recorder::RecordLevel;
use bsnn_core::simulator::{evaluate_dataset, evaluate_dataset_batched, EvalConfig, EvalResult};
use bsnn_core::synapse::{Chw, Synapse};
use bsnn_core::SpikingNetwork;
use bsnn_data::ImageDataset;
use bsnn_tensor::conv::Conv2dGeometry;
use bsnn_tensor::init::uniform;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

const BATCH_SIZES: [usize; 4] = [1, 2, 7, 16];
const THREADS: [usize; 2] = [1, 4];

/// A conv → pool → dense network covering every synapse kernel.
fn conv_pool_network(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv = Synapse::Conv {
        weight: uniform(&mut rng, &[3, 2, 3, 3], -0.6, 0.6),
        geom: Conv2dGeometry::square(3, 1, 1),
        in_shape: Chw::new(2, 6, 6),
        out_shape: Chw::new(3, 6, 6),
    };
    let conv_bias: Vec<f32> = (0..3 * 6 * 6).map(|_| rng.gen_range(-0.02..0.02)).collect();
    let pool = Synapse::Pool {
        geom: Conv2dGeometry::square(2, 2, 0),
        in_shape: Chw::new(3, 6, 6),
        out_shape: Chw::new(3, 3, 3),
        scale: 1.15,
    };
    let dense_out = Synapse::Dense {
        weight: uniform(&mut rng, &[27, 5], -0.8, 0.8),
    };
    let policy = ThresholdPolicy::Burst {
        vth: 0.25,
        beta: 2.0,
    };
    let mut conv_layer = SpikingLayer::new(conv, Some(conv_bias), policy).unwrap();
    conv_layer.set_reset_mode(ResetMode::Subtraction);
    let pool_layer = SpikingLayer::new(pool, None, policy).unwrap();
    SpikingNetwork::new(72, vec![conv_layer, pool_layer], dense_out, None).unwrap()
}

/// A dense MLP-shaped network (the serving workload's shape).
fn dense_network(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let h1 = Synapse::Dense {
        weight: uniform(&mut rng, &[20, 16], -0.7, 0.7),
    };
    let bias: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.05..0.05)).collect();
    let out = Synapse::Dense {
        weight: uniform(&mut rng, &[16, 4], -0.9, 0.9),
    };
    let l = SpikingLayer::new(
        h1,
        Some(bias),
        ThresholdPolicy::Phase {
            vth: 0.8,
            period: 4,
        },
    )
    .unwrap();
    SpikingNetwork::new(20, vec![l], out, None).unwrap()
}

/// A labeled dataset of random images with injected exact zeros (mixed
/// per-lane sparsity) whose shape matches `(c, h, w)`.
fn dataset(seed: u64, n: usize, c: usize, h: usize, w: usize, classes: usize) -> ImageDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let volume = c * h * w;
    let images: Vec<f32> = (0..n * volume)
        .map(|_| {
            let v: f32 = rng.gen_range(0.0..1.0);
            if v < 0.3 {
                0.0
            } else {
                v
            }
        })
        .collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    ImageDataset::new("eval-batched", images, labels, c, h, w, classes)
}

/// Exact (bit-level for the f64 aggregates) equality of two eval runs.
fn assert_results_identical(a: &EvalResult, b: &EvalResult, ctx: &str) {
    assert_eq!(a.checkpoints, b.checkpoints, "{ctx}: checkpoints");
    assert_eq!(a.num_images, b.num_images, "{ctx}: num_images");
    assert_eq!(a.num_neurons, b.num_neurons, "{ctx}: num_neurons");
    assert_eq!(a.layer_counts, b.layer_counts, "{ctx}: layer counts");
    for (i, (x, y)) in a.accuracy_at.iter().zip(&b.accuracy_at).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: accuracy@cp{i}");
    }
    for (i, (x, y)) in a.mean_spikes_at.iter().zip(&b.mean_spikes_at).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: spikes@cp{i}");
    }
}

#[test]
fn batched_eval_matches_sequential_all_widths_and_threads() {
    let schemes = [
        CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst),
        CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
    ];
    let nets = [
        ("conv", conv_pool_network(42), dataset(7, 17, 2, 6, 6, 5)),
        ("dense", dense_network(43), dataset(8, 17, 1, 4, 5, 4)),
    ];
    for (name, net, ds) in &nets {
        for scheme in schemes {
            let cfg = EvalConfig::new(scheme, 20).with_checkpoint_every(6);
            let reference = evaluate_dataset(&mut net.clone(), ds, &cfg).unwrap();
            for batch in BATCH_SIZES {
                for threads in THREADS {
                    let got = evaluate_dataset_batched(net, ds, &cfg, threads, batch).unwrap();
                    let ctx = format!("{name} {scheme} batch={batch} threads={threads}");
                    assert_results_identical(&reference, &got, &ctx);
                }
            }
            // Four threads at width 1, the parallel case of the same path.
            let par = evaluate_dataset_batched(net, ds, &cfg, 4, 1).unwrap();
            assert_results_identical(&reference, &par, &format!("{name} {scheme} parallel"));
        }
    }
}

/// Pins *per-image* predictions, not just dataset aggregates: if the
/// sequential and batched paths agree on the correct-count of every
/// prefix `[0, k)` of the dataset, then (by differencing consecutive
/// prefixes) they agree on every single image's correctness at every
/// checkpoint — even though `EvalResult` only reports sums. Batch 7 on
/// 17 images also exercises ragged tail chunks of every length.
#[test]
fn prefix_sweep_pins_per_image_predictions() {
    let net = conv_pool_network(99);
    let ds = dataset(11, 17, 2, 6, 6, 5);
    let scheme = CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst);
    for k in 1..=ds.len() {
        let cfg = EvalConfig::new(scheme, 12)
            .with_checkpoint_every(4)
            .with_max_images(k);
        let reference = evaluate_dataset(&mut net.clone(), &ds, &cfg).unwrap();
        for threads in THREADS {
            let got = evaluate_dataset_batched(&net, &ds, &cfg, threads, 7).unwrap();
            assert_results_identical(&reference, &got, &format!("prefix {k} threads={threads}"));
        }
    }
}

/// Spike-train recording is scalar-only; the batched entry point routes
/// `Trains` configs through the scalar engine and still produces
/// identical aggregates.
#[test]
fn trains_recording_falls_back_to_scalar_path() {
    let net = dense_network(5);
    let ds = dataset(6, 9, 1, 4, 5, 4);
    let scheme = CodingScheme::new(InputCoding::Rate, HiddenCoding::Phase);
    let cfg = EvalConfig::new(scheme, 16)
        .with_checkpoint_every(8)
        .with_record(RecordLevel::Trains {
            fraction: 0.5,
            seed: 3,
        });
    let reference = evaluate_dataset(&mut net.clone(), &ds, &cfg).unwrap();
    let got = evaluate_dataset_batched(&net, &ds, &cfg, 2, 16).unwrap();
    assert_results_identical(&reference, &got, "trains fallback");
}

#[test]
fn degenerate_inputs_rejected() {
    let net = dense_network(5);
    let ds = dataset(6, 4, 1, 4, 5, 4);
    let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
    // Zero images to evaluate.
    let cfg = EvalConfig::new(scheme, 8).with_max_images(0);
    assert!(evaluate_dataset_batched(&net, &ds, &cfg, 2, 4).is_err());
    // Invalid checkpoint layout is caught before any work.
    let mut cfg = EvalConfig::new(scheme, 8);
    cfg.checkpoints = vec![9];
    assert!(evaluate_dataset_batched(&net, &ds, &cfg, 1, 4).is_err());
    // Zero threads/batch are clamped, not errors.
    let cfg = EvalConfig::new(scheme, 8);
    let a = evaluate_dataset_batched(&net, &ds, &cfg, 0, 0).unwrap();
    let b = evaluate_dataset(&mut net.clone(), &ds, &cfg).unwrap();
    assert_results_identical(&a, &b, "clamped zeros");
}
