//! Spiking layers: integrate-and-fire neurons with pluggable threshold
//! policies (rate / phase / burst).
//!
//! ## Dynamics (paper Eqs. 2, 4, 5, 8, 9)
//!
//! Each step `t`, a layer:
//!
//! 1. accumulates PSPs: `V_mem += Σ_i w_ij · s_i(t) + b_j` where `s_i` is
//!    the presynaptic spike magnitude (Eq. 5 — the magnitude *is* the
//!    presynaptic threshold at fire time, making the effective weight
//!    `w·V_th(t)`),
//! 2. computes its threshold `V_th,j(t)` from the policy,
//! 3. fires where `V_mem ≥ V_th`, emitting magnitude `V_th,j(t)` and
//!    resetting by subtraction (Eq. 4) — or to zero (Eq. 3) when the
//!    [`ResetMode::Zero`] ablation is selected, and
//! 4. (burst only) updates the burst function `g` (Eq. 8): `g ← β·g` for
//!    neurons that fired, `g ← 1` otherwise.

use crate::synapse::Synapse;
use crate::SnnError;

/// What happens to the membrane potential when a neuron fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetMode {
    /// Reset by subtraction (Eq. 4): `V ← V − V_th`. Conserves charge —
    /// the standard for accurate DNN→SNN conversion (Rueckauer et al.).
    #[default]
    Subtraction,
    /// Reset to zero (Eq. 3): `V ← V_rest = 0`. Discards the residual
    /// above threshold, losing information; kept for the ablation
    /// comparing the two reset rules.
    Zero,
}

/// Threshold policy of a spiking layer — the essence of the three hidden
/// codings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Constant threshold (rate coding).
    Fixed {
        /// Threshold value.
        vth: f32,
    },
    /// Oscillating threshold `V_th(t) = 2^-(1+t mod k) · vth` (phase
    /// coding, Eqs. 6–7).
    Phase {
        /// Base threshold constant.
        vth: f32,
        /// Oscillation period `k`.
        period: u32,
    },
    /// Burst-adaptive threshold `V_th(t) = g(t)·vth` (Eqs. 8–9).
    Burst {
        /// Threshold constant — the transmission *precision* knob.
        vth: f32,
        /// Burst constant β (> 1; see crate docs).
        beta: f32,
    },
}

impl ThresholdPolicy {
    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for non-positive `vth`, zero
    /// phase period, or β ≤ 0.
    pub fn validate(&self) -> Result<(), SnnError> {
        match *self {
            ThresholdPolicy::Fixed { vth } if vth <= 0.0 => Err(SnnError::InvalidConfig(format!(
                "fixed threshold {vth} must be positive"
            ))),
            ThresholdPolicy::Phase { vth, period } if vth <= 0.0 || period == 0 => Err(
                SnnError::InvalidConfig(format!("phase policy vth={vth} period={period} invalid")),
            ),
            ThresholdPolicy::Burst { vth, beta } if vth <= 0.0 || beta <= 0.0 => Err(
                SnnError::InvalidConfig(format!("burst policy vth={vth} beta={beta} invalid")),
            ),
            _ => Ok(()),
        }
    }
}

/// One spiking stage: a synapse, optional bias current, IF neurons, and a
/// threshold policy.
#[derive(Debug, Clone)]
pub struct SpikingLayer {
    synapse: Synapse,
    bias: Option<Vec<f32>>,
    policy: ThresholdPolicy,
    vmem: Vec<f32>,
    /// Burst function state `g` (Eq. 8); all 1.0 unless the policy is
    /// `Burst`.
    g: Vec<f32>,
    out: Vec<f32>,
    psp: Vec<f32>,
    reset: ResetMode,
}

impl SpikingLayer {
    /// Builds a spiking layer.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for invalid policies, a conv
    /// or pool synapse whose shapes disagree with its geometry, or a bias
    /// length that disagrees with the synapse output size.
    pub fn new(
        synapse: Synapse,
        bias: Option<Vec<f32>>,
        policy: ThresholdPolicy,
    ) -> Result<Self, SnnError> {
        policy.validate()?;
        synapse.validate()?;
        let n = synapse.output_len();
        if let Some(b) = &bias {
            if b.len() != n {
                return Err(SnnError::InvalidConfig(format!(
                    "bias length {} does not match layer size {n}",
                    b.len()
                )));
            }
        }
        Ok(SpikingLayer {
            synapse,
            bias,
            policy,
            vmem: vec![0.0; n],
            g: vec![1.0; n],
            out: vec![0.0; n],
            psp: vec![0.0; n],
            reset: ResetMode::Subtraction,
        })
    }

    /// Number of neurons in this layer.
    pub fn len(&self) -> usize {
        self.vmem.len()
    }

    /// Whether the layer has no neurons (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.vmem.is_empty()
    }

    /// Number of presynaptic inputs.
    pub fn input_len(&self) -> usize {
        self.synapse.input_len()
    }

    /// The layer's threshold policy.
    pub fn policy(&self) -> ThresholdPolicy {
        self.policy
    }

    /// The layer's synaptic connection pattern.
    pub fn synapse(&self) -> &Synapse {
        &self.synapse
    }

    /// The layer's constant bias currents, if any.
    pub fn bias(&self) -> Option<&[f32]> {
        self.bias.as_deref()
    }

    /// Borrow of the membrane potentials.
    pub fn potentials(&self) -> &[f32] {
        &self.vmem
    }

    /// Borrow of the burst-function state `g`.
    pub fn burst_state(&self) -> &[f32] {
        &self.g
    }

    /// The layer's reset rule.
    pub fn reset_mode(&self) -> ResetMode {
        self.reset
    }

    /// Sets the reset rule (default: [`ResetMode::Subtraction`]).
    pub fn set_reset_mode(&mut self, reset: ResetMode) {
        self.reset = reset;
    }

    /// Resets all dynamic state (membrane, burst function).
    pub fn reset(&mut self) {
        self.vmem.iter_mut().for_each(|v| *v = 0.0);
        self.g.iter_mut().for_each(|g| *g = 1.0);
    }

    /// The threshold of neuron `j` at time `t` under the current state.
    pub fn threshold(&self, j: usize, t: u64) -> f32 {
        match self.policy {
            ThresholdPolicy::Fixed { vth } => vth,
            ThresholdPolicy::Phase { vth, period } => {
                let phase = (t % period as u64) as i32;
                vth * 0.5f32.powi(1 + phase)
            }
            ThresholdPolicy::Burst { vth, .. } => vth * self.g[j],
        }
    }

    /// Advances the layer one time step.
    ///
    /// `input` holds the presynaptic spike magnitudes (or analog drive for
    /// real input coding). Returns the output spike-magnitude buffer
    /// (entries are the emitting neuron's threshold, or `0.0`).
    ///
    /// This is the reference transcription of the dynamics above, with no
    /// cache: every step recomputes the PSP from `input`. The lockstep
    /// engine ([`crate::batch`]) performs the same float operations in the
    /// same order — taps summed from `0.0`, then `vmem + psp`, then the
    /// bias, then the threshold compare and reset — so its lanes match
    /// this loop bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InputSizeMismatch`] when `input` has the wrong
    /// length.
    pub fn step(&mut self, input: &[f32], t: u64) -> Result<&[f32], SnnError> {
        // 1. Accumulate the PSP from zero, integrate it, add the bias.
        self.psp.iter_mut().for_each(|p| *p = 0.0);
        self.synapse.accumulate(input, &mut self.psp)?;
        for (v, p) in self.vmem.iter_mut().zip(&self.psp) {
            *v += p;
        }
        if let Some(b) = &self.bias {
            for (v, bb) in self.vmem.iter_mut().zip(b) {
                *v += bb;
            }
        }

        // 2–4. One fire loop for every policy: threshold, fire, reset,
        // and under `Burst` the update of g.
        for j in 0..self.vmem.len() {
            let th = self.threshold(j, t);
            let fire = self.vmem[j] >= th;
            if fire {
                self.out[j] = th;
                self.vmem[j] = match self.reset {
                    ResetMode::Subtraction => self.vmem[j] - th,
                    ResetMode::Zero => 0.0,
                };
            } else {
                self.out[j] = 0.0;
            }
            if let ThresholdPolicy::Burst { beta, .. } = self.policy {
                // Eq. 8: g(t+1) = β·g(t) after a spike, 1 otherwise.
                self.g[j] = if fire { self.g[j] * beta } else { 1.0 };
            }
        }
        Ok(&self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synapse::Chw;
    use bsnn_tensor::conv::Conv2dGeometry;
    use bsnn_tensor::Tensor;

    fn identity_layer(n: usize, policy: ThresholdPolicy) -> SpikingLayer {
        // Identity dense synapse: out_j = in_j.
        let mut w = vec![0.0f32; n * n];
        for i in 0..n {
            w[i * n + i] = 1.0;
        }
        SpikingLayer::new(
            Synapse::Dense {
                weight: Tensor::from_vec(w, &[n, n]).unwrap(),
            },
            None,
            policy,
        )
        .unwrap()
    }

    #[test]
    fn fixed_policy_rate_tracks_input() {
        // Constant drive 0.3 with threshold 1.0 → fires every ~3.33 steps.
        let mut l = identity_layer(1, ThresholdPolicy::Fixed { vth: 1.0 });
        let mut spikes = 0;
        let mut emitted = 0.0f32;
        let steps = 100;
        for t in 0..steps {
            let out = l.step(&[0.3], t).unwrap();
            if out[0] > 0.0 {
                spikes += 1;
                emitted += out[0];
            }
        }
        assert_eq!(spikes, 30);
        assert!((emitted - 30.0).abs() < 1e-4);
        // conservation: emitted + residual == received
        assert!((emitted + l.potentials()[0] - 0.3 * steps as f32).abs() < 1e-3);
    }

    #[test]
    fn reset_by_subtraction_conserves_charge() {
        let mut l = identity_layer(1, ThresholdPolicy::Fixed { vth: 0.5 });
        let mut emitted = 0.0f32;
        let drive = [0.9f32];
        for t in 0..50 {
            let out = l.step(&drive, t).unwrap();
            emitted += out[0];
        }
        let received = 0.9 * 50.0;
        assert!(
            (emitted + l.potentials()[0] - received).abs() < 1e-3,
            "emitted {emitted} residual {}",
            l.potentials()[0]
        );
    }

    #[test]
    fn phase_policy_thresholds_oscillate() {
        let l = identity_layer(
            1,
            ThresholdPolicy::Phase {
                vth: 1.0,
                period: 4,
            },
        );
        assert_eq!(l.threshold(0, 0), 0.5);
        assert_eq!(l.threshold(0, 1), 0.25);
        assert_eq!(l.threshold(0, 3), 0.0625);
        assert_eq!(l.threshold(0, 4), 0.5); // periodic
    }

    #[test]
    fn phase_spikes_carry_phase_weights() {
        let mut l = identity_layer(
            1,
            ThresholdPolicy::Phase {
                vth: 1.0,
                period: 4,
            },
        );
        // Large initial drive: fires at every phase, magnitudes 1/2, 1/4…
        let out0 = l.step(&[2.0], 0).unwrap().to_vec();
        assert_eq!(out0[0], 0.5);
        let out1 = l.step(&[0.0], 1).unwrap().to_vec();
        assert_eq!(out1[0], 0.25);
    }

    #[test]
    fn burst_generates_consecutive_growing_spikes() {
        let mut l = identity_layer(
            1,
            ThresholdPolicy::Burst {
                vth: 0.125,
                beta: 2.0,
            },
        );
        // One big packet: 1.0 of charge, then silence.
        let mut magnitudes = Vec::new();
        let mut drive = vec![1.0f32];
        for t in 0..10 {
            let out = l.step(&drive, t).unwrap();
            if out[0] > 0.0 {
                magnitudes.push(out[0]);
            }
            drive[0] = 0.0;
        }
        // Burst: 0.125, 0.25, 0.5 transmits 0.875; residual 0.125 then
        // fires once more after g resets.
        assert!(magnitudes.len() >= 3);
        assert_eq!(magnitudes[0], 0.125);
        assert_eq!(magnitudes[1], 0.25);
        assert_eq!(magnitudes[2], 0.5);
        let total: f32 = magnitudes.iter().sum();
        assert!((total + l.potentials()[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn burst_state_resets_after_silent_step() {
        let mut l = identity_layer(
            1,
            ThresholdPolicy::Burst {
                vth: 0.5,
                beta: 2.0,
            },
        );
        let _ = l.step(&[0.6], 0).unwrap(); // fires, g -> 2
        assert_eq!(l.burst_state()[0], 2.0);
        let _ = l.step(&[0.0], 1).unwrap(); // silent, g -> 1
        assert_eq!(l.burst_state()[0], 1.0);
    }

    #[test]
    fn burst_with_beta_one_equals_rate() {
        let drive = [0.37f32];
        let mut rate = identity_layer(1, ThresholdPolicy::Fixed { vth: 0.5 });
        let mut burst = identity_layer(
            1,
            ThresholdPolicy::Burst {
                vth: 0.5,
                beta: 1.0,
            },
        );
        for t in 0..200 {
            let a = rate.step(&drive, t).unwrap().to_vec();
            let b = burst.step(&drive, t).unwrap().to_vec();
            assert_eq!(a, b, "diverged at t={t}");
        }
    }

    #[test]
    fn burst_drains_large_backlog_logarithmically() {
        // A backlog of 100 thresholds should drain in O(log) consecutive
        // steps with β=2, versus 100 steps for rate coding.
        let mut l = identity_layer(
            1,
            ThresholdPolicy::Burst {
                vth: 1.0,
                beta: 2.0,
            },
        );
        let mut drive = vec![100.0f32];
        let mut steps_to_drain = 0;
        for t in 0..64 {
            let _ = l.step(&drive, t).unwrap();
            drive[0] = 0.0;
            steps_to_drain = t + 1;
            if l.potentials()[0] < 1.0 {
                break;
            }
        }
        // Bursts of doubling payloads interleaved with single reset steps:
        // a 100-threshold backlog drains in ~18 steps versus 100 for rate.
        assert!(
            steps_to_drain <= 20,
            "burst took {steps_to_drain} steps to drain backlog"
        );
    }

    #[test]
    fn reset_to_zero_discards_residual() {
        // Drive 1.7 with vth 1.0: subtraction keeps the 0.7 residual;
        // reset-to-zero throws it away (the Eq. 3 information loss).
        let drive = [1.7f32];
        let mut sub = identity_layer(1, ThresholdPolicy::Fixed { vth: 1.0 });
        let mut zero = identity_layer(1, ThresholdPolicy::Fixed { vth: 1.0 });
        zero.set_reset_mode(ResetMode::Zero);
        assert_eq!(zero.reset_mode(), ResetMode::Zero);
        let _ = sub.step(&drive, 0).unwrap();
        let _ = zero.step(&drive, 0).unwrap();
        assert!((sub.potentials()[0] - 0.7).abs() < 1e-6);
        assert_eq!(zero.potentials()[0], 0.0);
    }

    #[test]
    fn reset_to_zero_undercounts_rate() {
        // With reset-to-zero, emitted charge over time falls below the
        // injected charge — the source of conversion error in Eq. 3.
        let mut zero = identity_layer(1, ThresholdPolicy::Fixed { vth: 1.0 });
        zero.set_reset_mode(ResetMode::Zero);
        let mut emitted = 0.0f32;
        for t in 0..100 {
            emitted += zero.step(&[1.3], t).unwrap()[0];
        }
        assert!(emitted < 1.3 * 100.0 * 0.9, "emitted {emitted}");
    }

    #[test]
    fn reset_clears_state() {
        let mut l = identity_layer(
            2,
            ThresholdPolicy::Burst {
                vth: 0.5,
                beta: 2.0,
            },
        );
        let _ = l.step(&[1.0, 1.0], 0).unwrap();
        l.reset();
        assert!(l.potentials().iter().all(|&v| v == 0.0));
        assert!(l.burst_state().iter().all(|&g| g == 1.0));
    }

    #[test]
    fn bias_injected_every_step() {
        let mut l = SpikingLayer::new(
            Synapse::Dense {
                weight: Tensor::zeros(&[1, 1]),
            },
            Some(vec![0.25]),
            ThresholdPolicy::Fixed { vth: 1.0 },
        )
        .unwrap();
        let mut spikes = 0;
        for t in 0..100 {
            let out = l.step(&[0.0], t).unwrap();
            if out[0] > 0.0 {
                spikes += 1;
            }
        }
        assert_eq!(spikes, 25);
    }

    #[test]
    fn rejects_invalid_configs() {
        assert!(ThresholdPolicy::Fixed { vth: 0.0 }.validate().is_err());
        assert!(ThresholdPolicy::Phase {
            vth: 1.0,
            period: 0
        }
        .validate()
        .is_err());
        assert!(ThresholdPolicy::Burst {
            vth: 1.0,
            beta: 0.0
        }
        .validate()
        .is_err());
        let syn = Synapse::Dense {
            weight: Tensor::zeros(&[1, 2]),
        };
        assert!(
            SpikingLayer::new(syn, Some(vec![0.0]), ThresholdPolicy::Fixed { vth: 1.0 }).is_err()
        );
    }

    #[test]
    fn rejects_conv_and_pool_shapes_that_disagree_with_geometry() {
        let geom = Conv2dGeometry::square(3, 1, 1);
        let conv = |weight: &[usize], out: Chw| Synapse::Conv {
            weight: Tensor::zeros(weight),
            geom,
            in_shape: Chw::new(1, 4, 4),
            out_shape: out,
        };
        let pool = |out: Chw| Synapse::Pool {
            geom: Conv2dGeometry::square(2, 2, 0),
            in_shape: Chw::new(2, 4, 4),
            out_shape: out,
            scale: 1.0,
        };
        let policy = ThresholdPolicy::Fixed { vth: 1.0 };
        let build = |syn| SpikingLayer::new(syn, None, policy);
        assert!(build(conv(&[2, 1, 3, 3], Chw::new(2, 4, 4))).is_ok());
        assert!(build(pool(Chw::new(2, 2, 2))).is_ok());
        for bad in [
            conv(&[2, 1, 1, 1], Chw::new(2, 4, 4)), // kernel ≠ geometry
            conv(&[3, 1, 3, 3], Chw::new(2, 4, 4)), // out channels
            conv(&[2, 2, 3, 3], Chw::new(2, 4, 4)), // in channels
            conv(&[2, 1, 3, 3], Chw::new(2, 4, 3)), // spatial
            pool(Chw::new(3, 2, 2)),                // channel count
            pool(Chw::new(2, 2, 1)),                // spatial
        ] {
            assert!(matches!(build(bad), Err(SnnError::InvalidConfig(_))));
        }
    }

    #[test]
    fn wrong_input_length_errors() {
        let mut l = identity_layer(2, ThresholdPolicy::Fixed { vth: 1.0 });
        assert!(matches!(
            l.step(&[1.0], 0),
            Err(SnnError::InputSizeMismatch { .. })
        ));
    }
}
