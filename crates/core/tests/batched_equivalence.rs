//! Batched-vs-sequential equivalence: a lockstep batch must be
//! bit-identical, lane for lane, to running each image alone through
//! `StepwiseInference` — across all three threshold policies, both reset
//! modes, dense/conv/pool synapses, and batch sizes {1, 2, 7, 16}. A
//! second input sweeps the share of active lanes in a 16-wide batch
//! (silent lanes carry all-zero images) at two pixel densities, which
//! walks every stage from zero input density to saturation.
//!
//! The retirement suite pins the lane-masking logic: a lane retired
//! mid-batch must equal a solo run truncated at the same step, and its
//! retirement must not perturb the surviving lanes.

use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference};
use bsnn_core::coding::{CodingScheme, HiddenCoding, InputCoding};
use bsnn_core::layer::{ResetMode, SpikingLayer, ThresholdPolicy};
use bsnn_core::simulator::{EvalConfig, StepwiseInference};
use bsnn_core::synapse::{Chw, Synapse};
use bsnn_core::SpikingNetwork;
use bsnn_tensor::conv::Conv2dGeometry;
use bsnn_tensor::init::uniform;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

const BATCH_SIZES: [usize; 4] = [1, 2, 7, 16];

/// A conv → pool → dense network covering every synapse kernel, with a
/// bias on the conv stage to exercise masked bias injection.
fn conv_pool_network(policy: ThresholdPolicy, reset: ResetMode, seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let conv_geom = Conv2dGeometry::square(3, 1, 1);
    let conv = Synapse::Conv {
        weight: uniform(&mut rng, &[3, 2, 3, 3], -0.6, 0.6),
        geom: conv_geom,
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
    let mut conv_layer = SpikingLayer::new(conv, Some(conv_bias), policy).unwrap();
    conv_layer.set_reset_mode(reset);
    let mut pool_layer = SpikingLayer::new(pool, None, policy).unwrap();
    pool_layer.set_reset_mode(reset);
    SpikingNetwork::new(72, vec![conv_layer, pool_layer], dense_out, None).unwrap()
}

/// A dense MLP-shaped network (the serving workload's shape).
fn dense_network(policy: ThresholdPolicy, reset: ResetMode, seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let h1 = Synapse::Dense {
        weight: uniform(&mut rng, &[20, 16], -0.7, 0.7),
    };
    let bias: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.05..0.05)).collect();
    let out = Synapse::Dense {
        weight: uniform(&mut rng, &[16, 4], -0.9, 0.9),
    };
    let mut l = SpikingLayer::new(h1, Some(bias), policy).unwrap();
    l.set_reset_mode(reset);
    SpikingNetwork::new(20, vec![l], out, None).unwrap()
}

/// Random images in `[0, 1]` with injected exact zeros, so lanes differ
/// in their spike sparsity patterns.
fn images(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let v: f32 = rng.gen_range(0.0..1.0);
                    if v < 0.3 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

fn policies() -> Vec<ThresholdPolicy> {
    vec![
        ThresholdPolicy::Fixed { vth: 0.4 },
        ThresholdPolicy::Phase {
            vth: 0.8,
            period: 4,
        },
        ThresholdPolicy::Burst {
            vth: 0.25,
            beta: 2.0,
        },
    ]
}

/// Runs one image alone for `steps` steps; returns (potentials,
/// prediction, layer counts, total spikes).
fn solo_run(
    template: &SpikingNetwork,
    image: &[f32],
    cfg: &EvalConfig,
    steps: usize,
) -> (Vec<f32>, usize, Vec<u64>, u64) {
    let mut net = template.clone();
    let mut run = StepwiseInference::new(&mut net, image, cfg).unwrap();
    for _ in 0..steps {
        assert!(run.advance().unwrap());
    }
    let pots = run.output_potentials().to_vec();
    let pred = run.prediction();
    let counts = run.record().layer_counts().to_vec();
    let spikes = run.total_spikes();
    (pots, pred, counts, spikes)
}

fn assert_lane_matches(
    run: &BatchedStepwiseInference,
    lane: usize,
    solo: &(Vec<f32>, usize, Vec<u64>, u64),
    ctx: &str,
) {
    let (pots, pred, counts, spikes) = solo;
    let lane_pots = run.output_potentials(lane);
    assert_eq!(&lane_pots, pots, "{ctx}: lane {lane} potentials");
    for (a, b) in lane_pots.iter().zip(pots) {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: lane {lane} bit drift");
    }
    assert_eq!(run.prediction(lane), *pred, "{ctx}: lane {lane} prediction");
    assert_eq!(
        &run.layer_counts(lane),
        counts,
        "{ctx}: lane {lane} layer counts"
    );
    assert_eq!(
        run.total_spikes(lane),
        *spikes,
        "{ctx}: lane {lane} total spikes"
    );
}

/// One batch of [`images`] per size in [`BATCH_SIZES`].
fn random_batches(template: &SpikingNetwork, seed: u64) -> Vec<Vec<Vec<f32>>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    BATCH_SIZES
        .iter()
        .map(|&batch| images(&mut rng, batch, template.input_len()))
        .collect()
}

/// 16-lane batches whose first `active` lanes (0, 4, 8, 12, 16) carry
/// random images at a per-pixel density of 0.15 or 0.8 and whose other
/// lanes are all-zero.
fn lane_activity_batches(template: &SpikingNetwork, seed: u64) -> Vec<Vec<Vec<f32>>> {
    const WIDTH: usize = 16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    for active in [0usize, 4, 8, 12, 16] {
        for pixel_density in [0.15f32, 0.8] {
            batches.push(
                (0..WIDTH)
                    .map(|lane| {
                        (0..template.input_len())
                            .map(|_| {
                                if lane >= active || rng.gen_range(0.0..1.0f32) >= pixel_density {
                                    0.0
                                } else {
                                    rng.gen_range(0.05..1.0f32)
                                }
                            })
                            .collect()
                    })
                    .collect(),
            );
        }
    }
    batches
}

/// Runs each of `batches` in lockstep to the horizon on one engine and
/// checks every lane bitwise against its solo run.
fn check_full_horizon(
    template: &SpikingNetwork,
    scheme: CodingScheme,
    steps: usize,
    batches: &[Vec<Vec<f32>>],
) {
    let cfg = EvalConfig::new(scheme, steps);
    let max_batch = batches.iter().map(Vec::len).max().unwrap();
    let mut engine = BatchedNetwork::new(template.clone(), max_batch).unwrap();
    for imgs in batches {
        let batch = imgs.len();
        let refs: Vec<&[f32]> = imgs.iter().map(|i| i.as_slice()).collect();
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &cfg).unwrap();
        while run.advance().unwrap() {}
        for (lane, img) in imgs.iter().enumerate() {
            assert_eq!(run.steps_taken(lane), steps);
            let solo = solo_run(template, img, &cfg, steps);
            let ctx = format!("{scheme} batch={batch}");
            assert_lane_matches(&run, lane, &solo, &ctx);
        }
    }
}

#[test]
fn lockstep_matches_sequential_all_policies_and_resets() {
    // 3 threshold policies × 2 reset modes × {conv+pool, dense} nets ×
    // {real, phase, rate} input codings × batch sizes {1, 2, 7, 16}.
    let schemes = [
        CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
        CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst),
        CodingScheme::new(InputCoding::Rate, HiddenCoding::Phase),
    ];
    let mut seed = 101;
    for policy in policies() {
        for reset in [ResetMode::Subtraction, ResetMode::Zero] {
            for scheme in schemes {
                seed += 1;
                let conv_net = conv_pool_network(policy, reset, seed);
                check_full_horizon(&conv_net, scheme, 18, &random_batches(&conv_net, seed));
                let mlp = dense_network(policy, reset, seed);
                check_full_horizon(&mlp, scheme, 24, &random_batches(&mlp, seed));
            }
        }
    }
}

#[test]
fn ttfs_input_lockstep_matches_sequential() {
    let policy = ThresholdPolicy::Burst {
        vth: 0.25,
        beta: 2.0,
    };
    let net = dense_network(policy, ResetMode::Subtraction, 77);
    let scheme = CodingScheme::new(InputCoding::Ttfs, HiddenCoding::Burst);
    check_full_horizon(&net, scheme, 24, &random_batches(&net, 77));
}

#[test]
fn lane_activity_sweep_matches_sequential() {
    let burst = ThresholdPolicy::Burst {
        vth: 0.25,
        beta: 2.0,
    };
    let fixed = ThresholdPolicy::Fixed { vth: 0.4 };
    let phase_burst = CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst);
    let cases = [
        (
            conv_pool_network(burst, ResetMode::Subtraction, 71),
            phase_burst,
            710,
        ),
        (
            conv_pool_network(burst, ResetMode::Subtraction, 72),
            CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
            720,
        ),
        (dense_network(fixed, ResetMode::Zero, 81), phase_burst, 810),
        (
            dense_network(fixed, ResetMode::Zero, 82),
            CodingScheme::new(InputCoding::Rate, HiddenCoding::Phase),
            820,
        ),
    ];
    for (net, scheme, seed) in cases {
        check_full_horizon(&net, scheme, 16, &lane_activity_batches(&net, seed));
    }
}

/// Satellite property: lanes retired mid-batch equal solo runs
/// truncated at the retirement step, and the survivors still equal
/// full-horizon solo runs — the lane mask leaks in neither direction.
#[test]
fn retired_lanes_match_truncated_solo_runs() {
    let steps = 20usize;
    let schemes = [
        CodingScheme::new(InputCoding::Real, HiddenCoding::Burst),
        CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst),
        CodingScheme::new(InputCoding::Rate, HiddenCoding::Rate),
    ];
    let mut rng = StdRng::seed_from_u64(2024);
    for (si, scheme) in schemes.into_iter().enumerate() {
        for policy in policies() {
            let template = conv_pool_network(policy, ResetMode::Subtraction, 900 + si as u64);
            let cfg = EvalConfig::new(scheme, steps);
            let batch = 7usize;
            let imgs = images(&mut rng, batch, template.input_len());
            let refs: Vec<&[f32]> = imgs.iter().map(|i| i.as_slice()).collect();
            // Random retirement schedule; lanes 5 and 6 run to horizon.
            let retire_at: Vec<usize> = (0..batch)
                .map(|lane| {
                    if lane >= 5 {
                        steps
                    } else {
                        rng.gen_range(1..steps)
                    }
                })
                .collect();
            let mut engine = BatchedNetwork::new(template.clone(), batch).unwrap();
            let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &cfg).unwrap();
            while run.advance().unwrap() {
                let t = run.steps_taken_global();
                for (lane, &at) in retire_at.iter().enumerate() {
                    if run.is_active(lane) && at == t {
                        run.retire(lane);
                    }
                }
            }
            for (lane, img) in imgs.iter().enumerate() {
                assert_eq!(run.steps_taken(lane), retire_at[lane]);
                let solo = solo_run(&template, img, &cfg, retire_at[lane]);
                let ctx = format!("{scheme} {policy:?} retire@{}", retire_at[lane]);
                assert_lane_matches(&run, lane, &solo, &ctx);
            }
        }
    }
}

/// The batched engine refuses horizons it cannot represent, then works
/// after a correct begin; exercised through the public constructor to
/// pin error paths the serving runtime depends on.
#[test]
fn oversized_batch_is_rejected() {
    let template = dense_network(
        ThresholdPolicy::Fixed { vth: 0.5 },
        ResetMode::Subtraction,
        1,
    );
    let mut engine = BatchedNetwork::new(template.clone(), 2).unwrap();
    let cfg = EvalConfig::new(CodingScheme::new(InputCoding::Real, HiddenCoding::Rate), 8);
    let imgs = images(&mut StdRng::seed_from_u64(5), 3, template.input_len());
    let refs: Vec<&[f32]> = imgs.iter().map(|i| i.as_slice()).collect();
    assert!(BatchedStepwiseInference::new(&mut engine, &refs, &cfg).is_err());
    let two: Vec<&[f32]> = refs[..2].to_vec();
    let mut run = BatchedStepwiseInference::new(&mut engine, &two, &cfg).unwrap();
    while run.advance().unwrap() {}
    assert_eq!(run.steps_taken(0), 8);
}
