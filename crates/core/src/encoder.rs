//! Input-layer spike encoders.
//!
//! The encoder converts a static image into a per-time-step drive signal
//! for the first spiking stage. Each call to [`InputEncoder::step`] fills
//! a magnitude buffer (one entry per input neuron, `0.0` = no spike) and
//! returns the number of input spikes emitted that step.

use crate::coding::InputCoding;
use crate::SnnError;

/// Stateful per-image input encoder.
///
/// Construct one per image presentation via [`InputEncoder::new`]; it
/// owns whatever state the coding needs (membrane potentials for rate
/// coding, quantized bit patterns for phase coding).
///
/// ```
/// use bsnn_core::{coding::InputCoding, encoder::InputEncoder};
///
/// let mut enc = InputEncoder::new(InputCoding::Phase, &[0.5, 0.25], 8).unwrap();
/// let mut buf = vec![0.0f32; 2];
/// let spikes = enc.step(0, &mut buf); // phase 0 carries weight 2^-1
/// assert_eq!(spikes, 1);
/// assert_eq!(buf, vec![0.5, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct InputEncoder {
    kind: EncoderKind,
    len: usize,
}

#[derive(Debug, Clone)]
enum EncoderKind {
    /// Analog injection: buffer = pixel values every step.
    Real { pixels: Vec<f32> },
    /// Deterministic IF encoding: `v += x`, fire unit spike at `v ≥ 1`.
    Rate { pixels: Vec<f32>, vmem: Vec<f32> },
    /// Binary expansion with per-phase weights `2^-(1+t mod k)`.
    Phase {
        /// Quantized pixel codes (k bits, MSB = phase 0).
        codes: Vec<u32>,
        period: u32,
    },
    /// One value-magnitude spike per window; brighter pixels fire
    /// earlier: `t_fire = round((1 − x)·(W − 1))` within each window.
    Ttfs {
        pixels: Vec<f32>,
        fire_at: Vec<u32>,
        window: u32,
    },
}

impl InputEncoder {
    /// Creates an encoder for one image.
    ///
    /// `phase_period` is the phase-coding period `k` (ignored by the other
    /// codings). Pixels are clamped to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] if `pixels` is empty or
    /// `phase_period` is zero or above 24 (phase weights would underflow
    /// the `u32` code / `f32` precision budget).
    pub fn new(coding: InputCoding, pixels: &[f32], phase_period: u32) -> Result<Self, SnnError> {
        if pixels.is_empty() {
            return Err(SnnError::InvalidConfig("empty input image".into()));
        }
        let clamped: Vec<f32> = pixels.iter().map(|&p| p.clamp(0.0, 1.0)).collect();
        let kind = match coding {
            InputCoding::Real => EncoderKind::Real { pixels: clamped },
            InputCoding::Rate => {
                let n = clamped.len();
                EncoderKind::Rate {
                    pixels: clamped,
                    vmem: vec![0.0; n],
                }
            }
            InputCoding::Phase => {
                if phase_period == 0 || phase_period > 24 {
                    return Err(SnnError::InvalidConfig(format!(
                        "phase period {phase_period} must be in 1..=24"
                    )));
                }
                let max_code = (1u32 << phase_period) - 1;
                let codes = clamped
                    .iter()
                    .map(|&p| {
                        // Round to the nearest k-bit code.
                        ((p * max_code as f32).round() as u32).min(max_code)
                    })
                    .collect();
                EncoderKind::Phase {
                    codes,
                    period: phase_period,
                }
            }
            InputCoding::Ttfs => {
                if phase_period == 0 {
                    return Err(SnnError::InvalidConfig(
                        "ttfs window (phase_period) must be nonzero".into(),
                    ));
                }
                let window = phase_period;
                let fire_at = clamped
                    .iter()
                    .map(|&p| ((1.0 - p) * (window - 1) as f32).round() as u32)
                    .collect();
                EncoderKind::Ttfs {
                    pixels: clamped,
                    fire_at,
                    window,
                }
            }
        };
        Ok(InputEncoder {
            len: pixels.len(),
            kind,
        })
    }

    /// Number of input neurons.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the encoder drives zero neurons (never true after
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The period `p` such that the drive at step `t` is a pure function
    /// of `t % p`, if the coding is periodic: real coding is the `p = 1`
    /// case, phase coding repeats every period (the codes are static and
    /// the bit/weight depend only on the phase), and TTFS repeats every
    /// window. Rate coding is stateful (integrate-and-fire membranes) and
    /// returns `None`. A periodic drive lets consumers cache everything
    /// derived from the input — spike counts and first-stage PSPs — per
    /// `t % p`, bit-exactly.
    pub fn period(&self) -> Option<u32> {
        match &self.kind {
            EncoderKind::Real { .. } => Some(1),
            EncoderKind::Phase { period, .. } => Some(*period),
            EncoderKind::Ttfs { window, .. } => Some(*window),
            EncoderKind::Rate { .. } => None,
        }
    }

    /// Fills `buf` with this step's spike magnitudes and returns the
    /// number of spikes emitted (always 0 for real coding, which injects
    /// analog current rather than spikes).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != self.len()`.
    pub fn step(&mut self, t: u64, buf: &mut [f32]) -> usize {
        assert_eq!(buf.len(), self.len, "encoder buffer length mismatch");
        match &mut self.kind {
            EncoderKind::Real { pixels } => {
                buf.copy_from_slice(pixels);
                0
            }
            EncoderKind::Rate { pixels, vmem } => {
                let mut spikes = 0usize;
                for ((b, &x), v) in buf.iter_mut().zip(pixels.iter()).zip(vmem.iter_mut()) {
                    *v += x;
                    if *v >= 1.0 {
                        *v -= 1.0;
                        *b = 1.0;
                        spikes += 1;
                    } else {
                        *b = 0.0;
                    }
                }
                spikes
            }
            EncoderKind::Phase { codes, period } => {
                let phase = (t % *period as u64) as u32;
                // Phase 0 carries the MSB: weight Π(t) = 2^-(1+phase)
                // (Eq. 6). One period transmits the k-bit value exactly,
                // so the drive rate is x/k per step — phase coding is
                // *per-period*. DNN→SNN conversion compensates by scaling
                // bias currents with the drive rate (see `convert`).
                let weight = 0.5f32.powi(1 + phase as i32);
                let bit = *period - 1 - phase;
                let mut spikes = 0usize;
                for (b, &code) in buf.iter_mut().zip(codes.iter()) {
                    if (code >> bit) & 1 == 1 {
                        *b = weight;
                        spikes += 1;
                    } else {
                        *b = 0.0;
                    }
                }
                spikes
            }
            EncoderKind::Ttfs {
                pixels,
                fire_at,
                window,
            } => {
                let phase = (t % *window as u64) as u32;
                let mut spikes = 0usize;
                for ((b, &x), &fa) in buf.iter_mut().zip(pixels.iter()).zip(fire_at.iter()) {
                    // Zero pixels never fire (their "first spike" would
                    // carry no information).
                    if x > 0.0 && phase == fa {
                        *b = x;
                        spikes += 1;
                    } else {
                        *b = 0.0;
                    }
                }
                spikes
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_steps(enc: &mut InputEncoder, steps: u64) -> (Vec<Vec<f32>>, usize) {
        let mut out = Vec::new();
        let mut total = 0usize;
        for t in 0..steps {
            let mut buf = vec![0.0f32; enc.len()];
            total += enc.step(t, &mut buf);
            out.push(buf);
        }
        (out, total)
    }

    #[test]
    fn real_injects_constant_analog() {
        let mut enc = InputEncoder::new(InputCoding::Real, &[0.3, 0.7], 8).unwrap();
        assert_eq!(enc.period(), Some(1));
        let (frames, spikes) = collect_steps(&mut enc, 3);
        assert_eq!(spikes, 0);
        for f in frames {
            assert_eq!(f, vec![0.3, 0.7]);
        }
    }

    #[test]
    fn rate_firing_rate_tracks_intensity() {
        let mut enc = InputEncoder::new(InputCoding::Rate, &[0.25, 0.75, 0.0], 8).unwrap();
        assert_eq!(enc.period(), None);
        let steps = 400u64;
        let (frames, _) = collect_steps(&mut enc, steps);
        let counts: Vec<usize> = (0..3)
            .map(|i| frames.iter().filter(|f| f[i] > 0.0).count())
            .collect();
        assert!((counts[0] as f32 / steps as f32 - 0.25).abs() < 0.02);
        assert!((counts[1] as f32 / steps as f32 - 0.75).abs() < 0.02);
        assert_eq!(counts[2], 0);
    }

    #[test]
    fn rate_spikes_have_unit_magnitude() {
        let mut enc = InputEncoder::new(InputCoding::Rate, &[1.0], 8).unwrap();
        let (frames, total) = collect_steps(&mut enc, 10);
        assert_eq!(total, 10); // x = 1 fires every step
        for f in frames {
            assert_eq!(f[0], 1.0);
        }
    }

    #[test]
    fn phase_period_sum_reconstructs_value() {
        // One period transmits the k-bit quantized pixel value exactly
        // (per-period semantics, Kim et al. 2018).
        let k = 8u32;
        let x = 0.7f32;
        let mut enc = InputEncoder::new(InputCoding::Phase, &[x], k).unwrap();
        let (frames, _) = collect_steps(&mut enc, k as u64);
        let sum: f32 = frames.iter().map(|f| f[0]).sum();
        // quantization error ≤ 2 quanta
        assert!(
            (sum - x).abs() < 2.0 / (1u32 << k) as f32,
            "sum {sum} vs {x}"
        );
    }

    #[test]
    fn phase_pattern_repeats_each_period() {
        let mut enc = InputEncoder::new(InputCoding::Phase, &[0.4, 0.9], 4).unwrap();
        let (frames, _) = collect_steps(&mut enc, 8);
        for p in 0..4 {
            assert_eq!(frames[p], frames[p + 4]);
        }
    }

    #[test]
    fn phase_msb_first() {
        // x = 0.5 with k=4: code = round(0.5 * 15) = 8 = 0b1000 → spike
        // only at phase 0, weight 2^-1.
        let mut enc = InputEncoder::new(InputCoding::Phase, &[0.5], 4).unwrap();
        let (frames, total) = collect_steps(&mut enc, 4);
        assert_eq!(total, 1);
        assert_eq!(frames[0][0], 0.5);
        assert_eq!(frames[1][0], 0.0);
    }

    #[test]
    fn ttfs_bright_pixels_fire_first() {
        let mut enc = InputEncoder::new(InputCoding::Ttfs, &[1.0, 0.5, 0.1], 8).unwrap();
        let (frames, total) = collect_steps(&mut enc, 8);
        assert_eq!(total, 3); // one spike per pixel per window
                              // x = 1.0 fires at phase 0, x = 0.5 at round(0.5·7) = 4,
                              // x = 0.1 at round(0.9·7) = 6.
        assert_eq!(frames[0], vec![1.0, 0.0, 0.0]);
        assert_eq!(frames[4][1], 0.5);
        assert!((frames[6][2] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn ttfs_repeats_each_window() {
        let mut enc = InputEncoder::new(InputCoding::Ttfs, &[0.7], 4).unwrap();
        let (frames, total) = collect_steps(&mut enc, 12);
        assert_eq!(total, 3); // three windows
        assert_eq!(frames[1], frames[5]);
        assert_eq!(frames[5], frames[9]);
    }

    #[test]
    fn ttfs_spike_carries_pixel_value() {
        let mut enc = InputEncoder::new(InputCoding::Ttfs, &[0.3], 8).unwrap();
        let (frames, _) = collect_steps(&mut enc, 8);
        let sum: f32 = frames.iter().map(|f| f[0]).sum();
        assert!((sum - 0.3).abs() < 1e-6);
    }

    #[test]
    fn zero_pixel_never_spikes() {
        for coding in [InputCoding::Rate, InputCoding::Phase, InputCoding::Ttfs] {
            let mut enc = InputEncoder::new(coding, &[0.0], 8).unwrap();
            let (_, total) = collect_steps(&mut enc, 64);
            assert_eq!(total, 0, "{coding:?}");
        }
    }

    #[test]
    fn pixels_clamped() {
        let mut enc = InputEncoder::new(InputCoding::Real, &[-0.5, 1.5], 8).unwrap();
        let mut buf = vec![0.0f32; 2];
        enc.step(0, &mut buf);
        assert_eq!(buf, vec![0.0, 1.0]);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(InputEncoder::new(InputCoding::Real, &[], 8).is_err());
        assert!(InputEncoder::new(InputCoding::Phase, &[0.5], 0).is_err());
        assert!(InputEncoder::new(InputCoding::Phase, &[0.5], 30).is_err());
    }
}
