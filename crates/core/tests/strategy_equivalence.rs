//! Kernel-strategy equivalence: the dense lockstep path, the bit-plane
//! packed path, and the density-dispatching auto mode must produce
//! bit-identical results — output potentials (the integrated PSPs),
//! predictions, and per-layer spike counts — lane for lane, against the
//! scalar reference engine. The int8 path is held to a closeness
//! contract instead.
//!
//! The sweep drives the share of *active lanes* from 0% to 100% of a
//! 16-wide batch (silent lanes carry all-zero images), which walks the
//! engine across the density spectrum the dispatcher switches on: at 0%
//! every stage sees zero density, at 100% the conv stages saturate. A
//! second sweep varies per-pixel density inside every lane. Whatever
//! kernel the dispatcher picks at any (stage, step) — including mixes
//! within one run — the numbers must not move.

use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference, DispatchMode, DispatchPolicy};
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

const BATCH: usize = 16;
const STEPS: usize = 16;

/// Absolute bound on output-potential drift under int8 dispatch. The
/// dominant term is spike-timing divergence (a hidden potential nudged
/// across its threshold fires a step early or late), not the raw
/// codebook error, so the bound is loose relative to a single layer's
/// `weight_error_bound`. Runs are seeded and arithmetic is exactly
/// reproducible, so observed drift is stable; this sits well above it.
const QUANT_POTENTIAL_TOL: f32 = 2.5;

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
    let conv_layer = SpikingLayer::new(conv, Some(conv_bias), policy).unwrap();
    let pool_layer = SpikingLayer::new(pool, None, policy).unwrap();
    SpikingNetwork::new(72, vec![conv_layer, pool_layer], dense_out, None).unwrap()
}

/// A dense MLP-shaped network (the event-skip-bound serving workload).
fn dense_network(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let h1 = Synapse::Dense {
        weight: uniform(&mut rng, &[20, 16], -0.7, 0.7),
    };
    let bias: Vec<f32> = (0..16).map(|_| rng.gen_range(-0.05..0.05)).collect();
    let out = Synapse::Dense {
        weight: uniform(&mut rng, &[16, 4], -0.9, 0.9),
    };
    let mut l = SpikingLayer::new(h1, Some(bias), ThresholdPolicy::Fixed { vth: 0.4 }).unwrap();
    l.set_reset_mode(ResetMode::Zero);
    SpikingNetwork::new(20, vec![l], out, None).unwrap()
}

/// A 16-lane batch with the first `active` lanes carrying random images
/// at the given per-pixel density and the rest all-zero.
fn lane_sweep_images(
    rng: &mut StdRng,
    len: usize,
    active: usize,
    pixel_density: f32,
) -> Vec<Vec<f32>> {
    (0..BATCH)
        .map(|lane| {
            (0..len)
                .map(|_| {
                    if lane >= active || rng.gen_range(0.0..1.0f32) >= pixel_density {
                        0.0
                    } else {
                        rng.gen_range(0.05..1.0f32)
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs one image alone; returns (potentials, prediction, layer counts).
fn solo_run(
    template: &SpikingNetwork,
    image: &[f32],
    cfg: &EvalConfig,
) -> (Vec<f32>, usize, Vec<u64>) {
    let mut net = template.clone();
    let mut run = StepwiseInference::new(&mut net, image, cfg).unwrap();
    while run.advance().unwrap() {}
    (
        run.output_potentials().to_vec(),
        run.prediction(),
        run.record().layer_counts().to_vec(),
    )
}

/// Runs the batch under one dispatch policy and checks every lane
/// bitwise against the scalar reference.
fn check_policy(
    template: &SpikingNetwork,
    images: &[Vec<f32>],
    cfg: &EvalConfig,
    dispatch: DispatchPolicy,
    reference: &[(Vec<f32>, usize, Vec<u64>)],
    ctx: &str,
) {
    let mut engine = BatchedNetwork::new(template.clone(), BATCH).unwrap();
    engine.set_dispatch(dispatch);
    let refs: Vec<&[f32]> = images.iter().map(|i| i.as_slice()).collect();
    let mut run = BatchedStepwiseInference::new(&mut engine, &refs, cfg).unwrap();
    while run.advance().unwrap() {}
    for (lane, (pots, pred, counts)) in reference.iter().enumerate() {
        let lane_pots = run.output_potentials(lane);
        for (a, b) in lane_pots.iter().zip(pots) {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: lane {lane} potentials");
        }
        assert_eq!(run.prediction(lane), *pred, "{ctx}: lane {lane} prediction");
        assert_eq!(&run.layer_counts(lane), counts, "{ctx}: lane {lane} spikes");
    }
    // Accounting sanity: every (stage, step) lands in exactly one
    // strategy bucket, and forced modes never run another kernel.
    for st in engine.dispatch_stats() {
        assert_eq!(
            st.dense_steps + st.packed_steps + st.quant_steps + st.cached_steps,
            STEPS as u64,
            "{ctx}: dispatch accounting"
        );
    }
    match engine.dispatch().mode {
        DispatchMode::ForceDense => assert!(engine
            .dispatch_stats()
            .iter()
            .all(|s| s.packed_steps == 0 && s.quant_steps == 0)),
        DispatchMode::ForcePacked => assert!(engine
            .dispatch_stats()
            .iter()
            .all(|s| s.dense_steps == 0 && s.quant_steps == 0)),
        DispatchMode::ForceQuantized | DispatchMode::Auto => {}
    }
}

/// Runs the batch under a quantized dispatch policy and checks every
/// lane stays *close* to the scalar reference. The int8 path is
/// approximate by design — per-weight error is bounded by half a
/// quantization step, and a potential nudged across a firing threshold
/// can shift downstream spike timing — so unlike the f32 strategies the
/// contract is closeness plus bounded prediction churn, the same
/// standard the autotuner's accuracy gate enforces. Silent lanes see no
/// events, so they must still match the reference bit for bit.
fn check_quantized_close(
    template: &SpikingNetwork,
    images: &[Vec<f32>],
    cfg: &EvalConfig,
    dispatch: DispatchPolicy,
    reference: &[(Vec<f32>, usize, Vec<u64>)],
    ctx: &str,
) {
    let quantized_mode = dispatch.mode == DispatchMode::ForceQuantized;
    let mut engine = BatchedNetwork::new(template.clone(), BATCH).unwrap();
    engine.set_dispatch(dispatch);
    let refs: Vec<&[f32]> = images.iter().map(|i| i.as_slice()).collect();
    let mut run = BatchedStepwiseInference::new(&mut engine, &refs, cfg).unwrap();
    while run.advance().unwrap() {}
    let mut quant_ran_any_spikes = false;
    for (lane, (pots, pred, counts)) in reference.iter().enumerate() {
        // Bias alone can fire hidden neurons on an all-zero image, so
        // "no events reached any int8 kernel" is judged by the
        // reference spike record, not the input.
        let silent = images[lane].iter().all(|&p| p == 0.0) && counts.iter().all(|&c| c == 0);
        let lane_pots = run.output_potentials(lane);
        if silent {
            for (a, b) in lane_pots.iter().zip(pots) {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: silent lane {lane}");
            }
            assert_eq!(run.prediction(lane), *pred, "{ctx}: silent lane {lane}");
            continue;
        }
        quant_ran_any_spikes = true;
        let mut drift = 0.0f32;
        for (a, b) in lane_pots.iter().zip(pots) {
            assert!(a.is_finite(), "{ctx}: lane {lane} non-finite potential");
            drift = drift.max((a - b).abs());
        }
        assert!(
            drift <= QUANT_POTENTIAL_TOL,
            "{ctx}: lane {lane} potential drift {drift}"
        );
        // The argmax may only move when the reference was close to a
        // tie at the observed drift scale; a flip across a clear
        // margin means the int8 path is broken, not merely rounded.
        let mut sorted = pots.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let margin = match &sorted[..] {
            [best, second, ..] => best - second,
            _ => 0.0,
        };
        if run.prediction(lane) != *pred {
            assert!(
                margin <= 2.0 * drift.max(f32::EPSILON),
                "{ctx}: lane {lane} flipped prediction across margin {margin} (drift {drift})"
            );
        }
    }
    // Accounting still holds, and ForceQuantized never runs the f32
    // dense kernel — stages without an int8 table (conv, pool) degrade
    // to packed, never further.
    for st in engine.dispatch_stats() {
        assert_eq!(
            st.dense_steps + st.packed_steps + st.quant_steps + st.cached_steps,
            STEPS as u64,
            "{ctx}: dispatch accounting"
        );
        if quantized_mode {
            assert_eq!(st.dense_steps, 0, "{ctx}: dense under ForceQuantized");
        }
    }
    if quantized_mode && quant_ran_any_spikes {
        // At least one stage has a quantizable dense table in both test
        // networks, so int8 steps must actually have run.
        let quant_total: u64 = engine.dispatch_stats().iter().map(|s| s.quant_steps).sum();
        assert!(quant_total > 0, "{ctx}: ForceQuantized ran no int8 steps");
    }
}

fn sweep(template: &SpikingNetwork, scheme: CodingScheme, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = EvalConfig::new(scheme, STEPS);
    // 0%, 25%, 50%, 75%, 100% active lanes × two per-pixel densities.
    for active in [0usize, 4, 8, 12, 16] {
        for pixel_density in [0.15f32, 0.8] {
            let images = lane_sweep_images(&mut rng, template.input_len(), active, pixel_density);
            let reference: Vec<_> = images
                .iter()
                .map(|img| solo_run(template, img, &cfg))
                .collect();
            for (mode, name) in [
                (DispatchMode::ForceDense, "dense"),
                (DispatchMode::ForcePacked, "packed"),
                (DispatchMode::Auto, "auto"),
            ] {
                let ctx = format!("{scheme} active={active} density={pixel_density} {name}");
                check_policy(
                    template,
                    &images,
                    &cfg,
                    DispatchPolicy::forced(mode),
                    &reference,
                    &ctx,
                );
            }
            // Auto with extreme crossovers degenerates to the forced
            // modes; mixed per-stage vectors exercise packed and dense
            // stages disagreeing within one step, and mid-range ones
            // switch a stage between the two as its density moves.
            // Quant crossovers without eligibility must be dead weight:
            // the gate's veto keeps Auto exactly on the f32 kernels.
            for (packed, quant) in [
                (vec![0.0; 3], vec![0.0; 3]),
                (vec![1.01; 3], vec![0.0; 3]),
                (vec![1.01, 0.0, 1.01], vec![0.0; 3]),
                (vec![0.0, 1.01, 0.0], vec![0.0; 3]),
                (vec![0.3, 0.5, 0.1], vec![0.0; 3]),
                // Crossovers set but every stage vetoed by the gate.
                (vec![1.01; 3], vec![1.01; 3]),
            ] {
                let ctx = format!(
                    "{scheme} active={active} density={pixel_density} auto p{packed:?}/q{quant:?}"
                );
                check_policy(
                    template,
                    &images,
                    &cfg,
                    DispatchPolicy {
                        mode: DispatchMode::Auto,
                        packed_thresholds: packed,
                        quant_thresholds: quant,
                        quant_eligible: vec![false; 3],
                        ..DispatchPolicy::default()
                    },
                    &reference,
                    &ctx,
                );
            }
            // The int8 strategy: forced on every stage that has a
            // table, and Auto with gate-cleared eligibility at a
            // crossover above the whole density range. Closeness, not
            // bit-equality — see `check_quantized_close`.
            check_quantized_close(
                template,
                &images,
                &cfg,
                DispatchPolicy::forced(DispatchMode::ForceQuantized),
                &reference,
                &format!("{scheme} active={active} density={pixel_density} force-quant"),
            );
            check_quantized_close(
                template,
                &images,
                &cfg,
                DispatchPolicy {
                    mode: DispatchMode::Auto,
                    packed_thresholds: vec![0.2; 3],
                    quant_thresholds: vec![1.01; 3],
                    quant_eligible: vec![true; 3],
                    ..DispatchPolicy::default()
                },
                &reference,
                &format!("{scheme} active={active} density={pixel_density} auto-quant"),
            );
        }
    }
}

#[test]
fn conv_pool_net_strategies_are_bit_identical() {
    sweep(
        &conv_pool_network(71),
        CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst),
        710,
    );
    sweep(
        &conv_pool_network(72),
        CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
        720,
    );
}

#[test]
fn dense_net_strategies_are_bit_identical() {
    sweep(
        &dense_network(81),
        CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst),
        810,
    );
    sweep(
        &dense_network(82),
        CodingScheme::new(InputCoding::Rate, HiddenCoding::Phase),
        820,
    );
}

/// Early-exit retirement under every dispatch mode: lanes retired
/// mid-run must equal truncated solo runs regardless of which kernels
/// executed, and the survivors must stay bit-exact as the width (and
/// with it the measured density) shifts under the dispatcher.
#[test]
fn retirement_is_dispatch_invariant() {
    let template = conv_pool_network(91);
    let scheme = CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst);
    let cfg = EvalConfig::new(scheme, STEPS);
    let mut rng = StdRng::seed_from_u64(910);
    let images = lane_sweep_images(&mut rng, template.input_len(), 10, 0.4);
    let retire_at: Vec<usize> = (0..BATCH)
        .map(|lane| {
            if lane % 3 == 0 {
                1 + lane % STEPS
            } else {
                STEPS
            }
        })
        .collect();
    for mode in [
        DispatchMode::ForceDense,
        DispatchMode::ForcePacked,
        DispatchMode::Auto,
    ] {
        let mut engine = BatchedNetwork::new(template.clone(), BATCH).unwrap();
        engine.set_dispatch(DispatchPolicy::forced(mode));
        let refs: Vec<&[f32]> = images.iter().map(|i| i.as_slice()).collect();
        let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &cfg).unwrap();
        while run.advance().unwrap() {
            let t = run.steps_taken_global();
            for (lane, &at) in retire_at.iter().enumerate() {
                if run.is_active(lane) && at == t {
                    run.retire(lane);
                }
            }
        }
        for (lane, img) in images.iter().enumerate() {
            let mut net = template.clone();
            let mut solo = StepwiseInference::new(&mut net, img, &cfg).unwrap();
            for _ in 0..retire_at[lane] {
                assert!(solo.advance().unwrap());
            }
            let lane_pots = run.output_potentials(lane);
            for (a, b) in lane_pots.iter().zip(solo.output_potentials()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{mode:?}: lane {lane}");
            }
            assert_eq!(run.total_spikes(lane), solo.total_spikes(), "{mode:?}");
        }
    }
}
