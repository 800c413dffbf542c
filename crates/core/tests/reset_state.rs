//! Property test: `SpikingNetwork::reset_state()` erases every trace of a
//! previous presentation — a network that has been driven arbitrarily and
//! then reset behaves bit-identically to a freshly cloned one.
//!
//! This is the invariant the scalar reference relies on:
//! `StepwiseInference` (and so `infer_image` and `evaluate_dataset`)
//! resets one long-lived network before every image instead of cloning
//! it.

use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
use bsnn_core::network::SpikingNetwork;
use bsnn_core::recorder::{RecordLevel, SpikeRecord};
use bsnn_core::synapse::Synapse;
use bsnn_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const IN: usize = 12;
const HIDDEN: usize = 10;
const OUT: usize = 4;

fn random_dense(rng: &mut StdRng, inputs: usize, outputs: usize) -> Synapse {
    let data: Vec<f32> = (0..inputs * outputs)
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    Synapse::Dense {
        weight: Tensor::from_vec(data, &[inputs, outputs]).expect("shape"),
    }
}

/// A small random two-stage network mixing burst and phase thresholds, so
/// the reset property covers membrane potentials, burst state `g`, and
/// the output accumulator at once.
fn random_network(seed: u64) -> SpikingNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let bias: Vec<f32> = (0..HIDDEN).map(|_| rng.gen_range(-0.05f32..0.05)).collect();
    let stage1 = SpikingLayer::new(
        random_dense(&mut rng, IN, HIDDEN),
        Some(bias),
        ThresholdPolicy::Burst {
            vth: 0.25,
            beta: 2.0,
        },
    )
    .expect("stage1");
    let stage2 = SpikingLayer::new(
        random_dense(&mut rng, HIDDEN, HIDDEN),
        None,
        ThresholdPolicy::Phase {
            vth: 1.0,
            period: 4,
        },
    )
    .expect("stage2");
    SpikingNetwork::new(
        IN,
        vec![stage1, stage2],
        random_dense(&mut rng, HIDDEN, OUT),
        None,
    )
    .expect("network")
}

/// Drives `net` with a deterministic pseudo-random spike stream derived
/// from `seed`, returning the per-step output potentials.
fn drive(net: &mut SpikingNetwork, seed: u64, steps: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut record = SpikeRecord::new(&net.spiking_layer_sizes(), RecordLevel::Counts);
    let mut trace = Vec::with_capacity(steps);
    for t in 0..steps as u64 {
        let input: Vec<f32> = (0..IN)
            .map(|_| {
                if rng.gen_range(0.0f32..1.0) < 0.4 {
                    rng.gen_range(0.0f32..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        net.step(&input, t, &mut record).expect("step");
        record.end_step();
        trace.push(net.output_potentials().to_vec());
    }
    trace
}

proptest! {
    /// After arbitrary prior traffic, `reset_state()` makes the network
    /// indistinguishable (bitwise, at every step) from a fresh clone.
    #[test]
    fn reset_state_matches_fresh_clone(
        net_seed in 0u64..1_000_000,
        dirty_seed in 0u64..1_000_000,
        input_seed in 0u64..1_000_000,
        dirty_steps in 1usize..40,
        steps in 1usize..40,
    ) {
        let template = random_network(net_seed);
        let mut fresh = template.clone();
        let mut reused = template.clone();

        // Pollute the reused network with unrelated traffic, then reset.
        let _ = drive(&mut reused, dirty_seed, dirty_steps);
        reused.reset_state();

        // All dynamic state must be back at its pristine values...
        for (layer, pristine) in reused.layers().iter().zip(template.layers()) {
            prop_assert!(layer.potentials().iter().all(|&v| v == 0.0));
            prop_assert!(layer.burst_state().iter().all(|&g| g == 1.0));
            prop_assert_eq!(layer.potentials().len(), pristine.potentials().len());
        }
        prop_assert!(reused.output_potentials().iter().all(|&v| v == 0.0));

        // ...and the subsequent run must be bit-identical to the fresh
        // clone's, step for step.
        let a = drive(&mut fresh, input_seed, steps);
        let b = drive(&mut reused, input_seed, steps);
        prop_assert_eq!(a, b);
    }
}
