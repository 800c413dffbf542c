//! A wall-clock probe of the lockstep widths: [`autotune_batch`] times
//! a short synthetic warm-up at each candidate width and names the
//! narrowest one that no wider candidate beats by `min_gain`.
//!
//! No program path acts on that decision. Serving workers run every
//! popped same-model group at its popped width, chunked at
//! `max_batch`, and the experiment binaries evaluate at a fixed width;
//! the lockstep width changes wall time only, never a result. The probe
//! also disagrees with itself: on a 2-vCPU x86-64 host, five rounds
//! picked widths 8, 8, 4, 4, 4 for the MLP 144-32-10 and 8, 8, 16, 4, 8
//! for `vgg_tiny`, and three probes per traced benchmark run agreed on
//! two in three (`autotune.agreement` 0.67). The module stays only
//! because the benchmark times the probe for two per-layer metrics; it
//! goes with the next benchmark change.

use crate::batch::{BatchedNetwork, BatchedStepwiseInference};
use crate::coding::CodingScheme;
use crate::network::SpikingNetwork;
use crate::simulator::EvalConfig;
use crate::SnnError;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::time::Instant;

/// The widths probed by default: scalar, one SSE quad, and the two
/// micro-batch sizes the serving runtime commonly pops.
pub const DEFAULT_WIDTHS: [usize; 4] = [1, 4, 8, 16];

/// Knobs of one autotuning run.
#[derive(Debug, Clone)]
pub struct AutotuneConfig {
    /// Candidate lockstep widths, each probed independently.
    pub widths: Vec<usize>,
    /// Simulated time steps per probe run.
    pub steps: usize,
    /// Wall-clock repetitions per width (best-of, to shed scheduler
    /// noise).
    pub reps: usize,
    /// Relative throughput gain a wider width must show over the best
    /// narrower candidate to be preferred — hysteresis toward small
    /// widths, which cost less memory and queue latency. The default
    /// (15%) is sized to absorb scheduler noise on busy hosts: widths
    /// that only look a few percent apart are really tied, and a tie
    /// should resolve to the narrowest width, while genuine lockstep
    /// wins (conv models measure 2–3×) clear it easily.
    pub min_gain: f64,
    /// Seed of the synthetic warm-up images.
    pub seed: u64,
    /// Phase period `k` the model is served with. The period sets the
    /// input spike density under phase coding, which shifts the
    /// event-skip break-even width — probe with the value the model
    /// will actually run at.
    pub phase_period: u32,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            widths: DEFAULT_WIDTHS.to_vec(),
            steps: 64,
            reps: 4,
            min_gain: 0.15,
            seed: 0x5eed,
            phase_period: 8,
        }
    }
}

impl AutotuneConfig {
    fn validate(&self) -> Result<(), SnnError> {
        if self.widths.is_empty() || self.widths.contains(&0) {
            return Err(SnnError::InvalidConfig(
                "autotune widths must be nonempty and nonzero".into(),
            ));
        }
        if self.steps == 0 || self.reps == 0 {
            return Err(SnnError::InvalidConfig(
                "autotune steps and reps must be nonzero".into(),
            ));
        }
        if !self.min_gain.is_finite() || self.min_gain < 0.0 {
            return Err(SnnError::InvalidConfig(format!(
                "autotune min_gain {} must be finite and nonnegative",
                self.min_gain
            )));
        }
        Ok(())
    }
}

/// One width's measured throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchProbe {
    /// Lockstep width probed.
    pub width: usize,
    /// Lane-steps per second (images × time steps per wall-clock
    /// second) at that width.
    pub lane_steps_per_sec: f64,
}

/// One probe of a model: the lockstep width it picked, plus the
/// evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// The width the probe picked.
    pub preferred_batch: usize,
    /// All probed widths, in probe order.
    pub probes: Vec<BatchProbe>,
    /// Always empty: the removed sparse kernel's crossovers, kept so
    /// existing readers such as the `perfbench` harness still build.
    pub density_thresholds: Vec<f32>,
    /// Always empty: the removed packed kernel's crossovers, kept so
    /// existing readers such as the `perfbench` harness still build.
    pub packed_thresholds: Vec<f32>,
    /// Always empty: the removed int8 kernel's crossovers, kept so
    /// existing readers such as the `perfbench` harness still build.
    pub quant_thresholds: Vec<f32>,
    /// Always empty: the removed int8 kernel's accuracy-gate verdicts,
    /// kept so existing readers such as the `perfbench` harness still
    /// build.
    pub quant_eligible: Vec<bool>,
}

/// Deterministic synthetic warm-up images: intensities in `[0, 1]` with
/// ~40% exact zeros, approximating the mixed sparsity of real spike
/// traffic (all-dense or all-zero probes would flatter the wrong
/// widths).
fn warmup_images(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..len)
                .map(|_| {
                    let v: f32 = rng.gen_range(0.0..1.0);
                    if v < 0.4 {
                        0.0
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

/// Measures `net`'s lockstep throughput at each candidate width on a
/// short synthetic warm-up and returns the narrowest width that no
/// wider candidate beats by `min_gain`.
///
/// `scheme` must be the coding the model serves under — the input
/// coding decides whether the encoder restages the drive every step.
/// The probe is wall-clock-based, and its decision varies from run to
/// run on a busy host (see the module doc).
///
/// # Errors
///
/// Returns [`SnnError::InvalidConfig`] for degenerate configs and
/// propagates simulation errors.
pub fn autotune_batch(
    net: &SpikingNetwork,
    scheme: CodingScheme,
    cfg: &AutotuneConfig,
) -> Result<BatchPolicy, SnnError> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let max_width = *cfg.widths.iter().max().expect("nonempty widths");
    let images = warmup_images(&mut rng, max_width, net.input_len());
    let eval = EvalConfig::new(scheme, cfg.steps).with_phase_period(cfg.phase_period);
    let mut probes = Vec::with_capacity(cfg.widths.len());
    for &width in &cfg.widths {
        let mut engine = BatchedNetwork::new(net.clone(), width)?;
        let refs: Vec<&[f32]> = images[..width].iter().map(|v| v.as_slice()).collect();
        let mut best = f64::INFINITY;
        for _ in 0..cfg.reps {
            let t0 = Instant::now();
            let mut run = BatchedStepwiseInference::new(&mut engine, &refs, &eval)?;
            while run.advance()? {}
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let lane_steps_per_sec = if best > 0.0 {
            (width * cfg.steps) as f64 / best
        } else {
            f64::INFINITY
        };
        probes.push(BatchProbe {
            width,
            lane_steps_per_sec,
        });
    }
    // Prefer the narrowest width; a wider candidate must beat the
    // incumbent by `min_gain` to take over.
    let mut ranked = probes.clone();
    ranked.sort_by_key(|p| p.width);
    let mut preferred = ranked[0];
    for &probe in &ranked[1..] {
        if probe.lane_steps_per_sec > preferred.lane_steps_per_sec * (1.0 + cfg.min_gain) {
            preferred = probe;
        }
    }
    Ok(BatchPolicy {
        preferred_batch: preferred.width,
        probes,
        density_thresholds: Vec::new(),
        packed_thresholds: Vec::new(),
        quant_thresholds: Vec::new(),
        quant_eligible: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{HiddenCoding, InputCoding};
    use crate::layer::{SpikingLayer, ThresholdPolicy};
    use crate::synapse::Synapse;
    use bsnn_tensor::Tensor;

    fn tiny_network() -> SpikingNetwork {
        let dense = |n: usize| Synapse::Dense {
            weight: Tensor::from_vec(vec![0.3; n * n], &[n, n]).unwrap(),
        };
        let hidden =
            SpikingLayer::new(dense(4), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
        SpikingNetwork::new(4, vec![hidden], dense(4), None).unwrap()
    }

    fn quick_cfg() -> AutotuneConfig {
        AutotuneConfig {
            steps: 4,
            reps: 1,
            ..AutotuneConfig::default()
        }
    }

    #[test]
    fn degenerate_configs_rejected() {
        let net = tiny_network();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        for bad in [
            AutotuneConfig {
                widths: vec![],
                ..quick_cfg()
            },
            AutotuneConfig {
                widths: vec![0, 4],
                ..quick_cfg()
            },
            AutotuneConfig {
                steps: 0,
                ..quick_cfg()
            },
            AutotuneConfig {
                reps: 0,
                ..quick_cfg()
            },
            AutotuneConfig {
                min_gain: f64::NAN,
                ..quick_cfg()
            },
        ] {
            assert!(autotune_batch(&net, scheme, &bad).is_err());
        }
    }

    #[test]
    fn preferred_width_is_a_candidate_with_evidence() {
        let net = tiny_network();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let cfg = quick_cfg();
        let policy = autotune_batch(&net, scheme, &cfg).unwrap();
        assert!(cfg.widths.contains(&policy.preferred_batch));
        assert_eq!(policy.probes.len(), cfg.widths.len());
        for probe in &policy.probes {
            assert!(probe.lane_steps_per_sec > 0.0, "{probe:?}");
        }
        assert!(policy
            .probes
            .iter()
            .any(|p| p.width == policy.preferred_batch));
        // The removed kernels' lists stay empty.
        assert!(policy.density_thresholds.is_empty());
        assert!(policy.packed_thresholds.is_empty());
        assert!(policy.quant_thresholds.is_empty());
        assert!(policy.quant_eligible.is_empty());
    }

    #[test]
    fn infinite_gain_pins_scalar() {
        // With an unreachable gain requirement the narrowest width always
        // wins — the hysteresis knob is honored.
        let net = tiny_network();
        let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
        let cfg = AutotuneConfig {
            min_gain: 1e12,
            ..quick_cfg()
        };
        let policy = autotune_batch(&net, scheme, &cfg).unwrap();
        assert_eq!(policy.preferred_batch, 1);
    }
}
