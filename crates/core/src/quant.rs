//! Fixed-point int8 inference: symmetric per-output weight quantization
//! with `i32` PSP accumulation.
//!
//! A [`QuantizedDense`] stage stores each weight column `j` as `i8`
//! codes `q[i][j] = round(w[i][j] / scale[j])` with one symmetric scale
//! `scale[j] = max_i |w[i][j]| / 127` per output neuron. The kernel
//! never touches the `f32` weights: burst/phase event magnitudes
//! `g · 2^k` fold into the accumulator as pure shifts
//! (`acc += q << k`), and dequantization happens **once per output
//! row** (`psp[j] = scale[j] · (g · acc[j] + side[j])`), not per MAC.
//! An int8 SIMD lane processes 4× the operands of an `f32` lane on the
//! same registers, and the event-driven accumulation does work
//! proportional to spike density instead of the dense kernel's
//! `1 − (1 − density)^batch` live-neuron fraction.
//!
//! Magnitudes that do not sit on the power-of-two exponent plane (or
//! whose shift would overflow the [`max_shift`](QuantizedDense::max_shift)
//! bound) take a raw `f32` side channel, so the kernel is exact in the
//! *event magnitudes* — the only approximation is the int8 weight
//! rounding, bounded by `scale[j] / 2` per weight. Whether that
//! rounding is acceptable end-to-end is decided by the autotuner's
//! accuracy-delta gate (see [`crate::autotune::AutotuneConfig`]), never
//! assumed.

use crate::synapse::{lane_mask, pow2_exponent};
use crate::SnnError;
use bsnn_tensor::Tensor;

/// Decoded event shift sentinel: the magnitude must go through the raw
/// `f32` side channel instead of the `i32` shift path.
const SHIFT_SIDE: i32 = i32::MIN;

/// A dense synapse quantized to symmetric int8 weights with per-output
/// scales, executable through the `i32` PSP accumulator kernels.
///
/// Codes are `(in, out)` row-major like the `f32` weight matrix, so the
/// replay of one input neuron streams a contiguous `i8` row. Columns
/// that are entirely zero get a zero scale (their codes are zero and
/// their dequantized PSP is exactly `0.0`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedDense {
    in_len: usize,
    out_len: usize,
    /// Int8 weight codes, `(in, out)` row-major.
    q: Vec<i8>,
    /// Per-output dequantization scales (`max_i |w[i][j]| / 127`).
    scales: Vec<f32>,
    /// Largest event exponent the `i32` accumulator absorbs as a shift:
    /// `127 · in_len · 2^max_shift <= i32::MAX`, so no sequence of
    /// one-event-per-input steps can overflow. Larger exponents take
    /// the `f32` side channel.
    max_shift: u32,
}

/// The overflow-safe shift bound for a given input width.
fn shift_bound(in_len: usize) -> u32 {
    let worst = 127i64 * in_len.max(1) as i64;
    let mut ms = 0u32;
    while ms < 30 && (worst << (ms + 1)) <= i32::MAX as i64 {
        ms += 1;
    }
    ms
}

impl QuantizedDense {
    /// Quantizes a dense `(in, out)` weight tensor. Returns `None` when
    /// the tensor is not a 2-D matrix, is degenerate (zero rows or
    /// columns), carries non-finite weights, or is too wide for the
    /// overflow bound (`127 · in_len > i32::MAX`).
    pub fn from_weights(weight: &Tensor) -> Option<Self> {
        let shape = weight.shape();
        if shape.len() != 2 {
            return None;
        }
        let (in_len, out_len) = (shape[0], shape[1]);
        if in_len == 0 || out_len == 0 || 127i64 * in_len as i64 > i32::MAX as i64 {
            return None;
        }
        let w = weight.as_slice();
        let mut maxabs = vec![0.0f32; out_len];
        for row in w.chunks_exact(out_len) {
            for (m, &v) in maxabs.iter_mut().zip(row) {
                if !v.is_finite() {
                    return None;
                }
                *m = m.max(v.abs());
            }
        }
        let scales: Vec<f32> = maxabs.iter().map(|&m| m / 127.0).collect();
        let mut q = vec![0i8; in_len * out_len];
        for (qrow, row) in q.chunks_exact_mut(out_len).zip(w.chunks_exact(out_len)) {
            for ((qv, &v), &s) in qrow.iter_mut().zip(row).zip(&scales) {
                *qv = if s > 0.0 {
                    (v / s).round().clamp(-127.0, 127.0) as i8
                } else {
                    0
                };
            }
        }
        Some(QuantizedDense {
            max_shift: shift_bound(in_len),
            in_len,
            out_len,
            q,
            scales,
        })
    }

    /// Rebuilds a quantized stage from stored parts (the snapshot-v6
    /// load path). The shift bound is derived, never trusted from disk.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] on inconsistent lengths,
    /// degenerate shapes, or scales that are negative or non-finite.
    pub fn from_parts(
        in_len: usize,
        out_len: usize,
        q: Vec<i8>,
        scales: Vec<f32>,
    ) -> Result<Self, SnnError> {
        if in_len == 0 || out_len == 0 || 127i64 * in_len as i64 > i32::MAX as i64 {
            return Err(SnnError::InvalidConfig(format!(
                "quantized stage shape {in_len}x{out_len} out of range"
            )));
        }
        if q.len() != in_len * out_len {
            return Err(SnnError::InvalidConfig(format!(
                "quantized code count {} != {in_len}x{out_len}",
                q.len()
            )));
        }
        if scales.len() != out_len {
            return Err(SnnError::InvalidConfig(format!(
                "quantized scale count {} != {out_len} outputs",
                scales.len()
            )));
        }
        if scales.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(SnnError::InvalidConfig(
                "quantized scales must be finite and non-negative".into(),
            ));
        }
        Ok(QuantizedDense {
            max_shift: shift_bound(in_len),
            in_len,
            out_len,
            q,
            scales,
        })
    }

    /// Presynaptic width.
    pub fn input_len(&self) -> usize {
        self.in_len
    }

    /// Postsynaptic width.
    pub fn output_len(&self) -> usize {
        self.out_len
    }

    /// The int8 weight codes, `(in, out)` row-major.
    pub fn codes(&self) -> &[i8] {
        &self.q
    }

    /// Per-output dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Largest event exponent absorbed as an accumulator shift.
    pub fn max_shift(&self) -> u32 {
        self.max_shift
    }

    /// Worst-case absolute weight rounding error of output `j`
    /// (`scale[j] / 2` — the symmetric-rounding half step).
    pub fn weight_error_bound(&self, j: usize) -> f32 {
        self.scales.get(j).copied().unwrap_or(0.0) * 0.5
    }

    /// Self-packing int8 accumulation: builds the per-neuron `u64`
    /// activity masks from the staged SoA `input`
    /// (`[neuron][batch]`), then replays through
    /// [`Self::accumulate_packed_planes`]. `psp_lanes` is lane-major
    /// (`[lane][neuron]`) and **accumulated into** (callers zero it
    /// first, as for the packed `f32` kernels).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for a zero batch or one
    /// wider than the 64-bit mask plane, and
    /// [`SnnError::InputSizeMismatch`] on length mismatches.
    pub fn accumulate_packed(
        &self,
        input: &[f32],
        psp_lanes: &mut [f32],
        batch: usize,
        base: Option<f32>,
        scratch: &mut QuantScratch,
    ) -> Result<(), SnnError> {
        if batch == 0 || batch > 64 {
            return Err(SnnError::InvalidConfig(format!(
                "quantized kernel lockstep width {batch} outside 1..=64"
            )));
        }
        if input.len() != self.in_len * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: self.in_len * batch,
                actual: input.len(),
            });
        }
        let mut masks = std::mem::take(&mut scratch.masks);
        masks.clear();
        masks.extend(input.chunks_exact(batch).map(lane_mask));
        let r = self.accumulate_packed_planes(input, psp_lanes, batch, &masks, None, base, scratch);
        scratch.masks = masks;
        r
    }

    /// Plane-fed int8 accumulation: replays externally built activity
    /// masks (PR 8's fire-pass bit-planes) against the int8 codes.
    ///
    /// Event magnitudes resolve exactly as in the `f32` packed replay:
    /// `uniform` is the step's single magnitude under fixed/phase
    /// policies; otherwise each event's magnitude is read off the
    /// staged input. A magnitude `base · 2^k` with
    /// `0 <= k <= max_shift` folds into the `i32` accumulator as
    /// `q << k`; anything else (negative exponents under a non-uniform
    /// drive, off-plane magnitudes, missing `base`, oversized shifts)
    /// takes the raw `f32` side channel — so quantization error comes
    /// from weight rounding alone, never from magnitude handling.
    /// Dequantization runs once per (lane, output):
    /// `psp[j] += scale[j] · (base · acc[j] + side[j])`.
    ///
    /// `psp_lanes` is lane-major and accumulated into.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for a zero batch or one
    /// wider than 64, and [`SnnError::InputSizeMismatch`] on
    /// input/mask/PSP length mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate_packed_planes(
        &self,
        input: &[f32],
        psp_lanes: &mut [f32],
        batch: usize,
        masks: &[u64],
        uniform: Option<f32>,
        base: Option<f32>,
        scratch: &mut QuantScratch,
    ) -> Result<(), SnnError> {
        if batch == 0 || batch > 64 {
            return Err(SnnError::InvalidConfig(format!(
                "quantized kernel lockstep width {batch} outside 1..=64"
            )));
        }
        if input.len() != self.in_len * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: self.in_len * batch,
                actual: input.len(),
            });
        }
        if masks.len() != self.in_len {
            return Err(SnnError::InputSizeMismatch {
                expected: self.in_len,
                actual: masks.len(),
            });
        }
        let out = self.out_len;
        if psp_lanes.len() != out * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: out * batch,
                actual: psp_lanes.len(),
            });
        }
        scratch.begin(out * batch);
        if let Some(u) = uniform {
            // Uniform-magnitude fast path (fixed/phase-fed stages): the
            // magnitude factors out of the whole accumulation, so every
            // event is a shift-0 add and the negative phase exponents
            // never need a side channel.
            for (i, &m) in masks.iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let qrow = &self.q[i * out..(i + 1) * out];
                let mut mm = m;
                while mm != 0 {
                    let b = mm.trailing_zeros() as usize;
                    mm &= mm - 1;
                    let acc = &mut scratch.acc[b * out..(b + 1) * out];
                    for (a, &qv) in acc.iter_mut().zip(qrow) {
                        *a += qv as i32;
                    }
                }
            }
            for (b, acc_row) in scratch.acc.chunks_exact(out).take(batch).enumerate() {
                let lane_psp = &mut psp_lanes[b * out..(b + 1) * out];
                for ((p, &a), &sc) in lane_psp.iter_mut().zip(acc_row).zip(&self.scales) {
                    *p += (u * sc) * a as f32;
                }
            }
            return Ok(());
        }
        // Per-event magnitudes (burst-fed stages and stage 0). Spike
        // traffic repeats a handful of distinct magnitudes, so a
        // one-entry memo on the magnitude's bits answers almost every
        // exponent probe (same trick as the f32 packed pack pass).
        let mut any_side = false;
        let mut memo_bits = 0u32; // unreachable: set bits exclude ±0
        let mut memo_shift = SHIFT_SIDE;
        for (i, &m) in masks.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let qrow = &self.q[i * out..(i + 1) * out];
            let mut mm = m;
            while mm != 0 {
                let b = mm.trailing_zeros() as usize;
                mm &= mm - 1;
                let s = input[i * batch + b];
                let bits = s.to_bits();
                let sh = if bits == memo_bits {
                    memo_shift
                } else {
                    let sh = match base.and_then(|g| pow2_exponent(s, g)) {
                        Some(e) => {
                            let d = e as i32 - 127;
                            if (0..=self.max_shift as i32).contains(&d) {
                                d
                            } else {
                                SHIFT_SIDE
                            }
                        }
                        None => SHIFT_SIDE,
                    };
                    memo_bits = bits;
                    memo_shift = sh;
                    sh
                };
                if sh == SHIFT_SIDE {
                    any_side = true;
                    let side = &mut scratch.side[b * out..(b + 1) * out];
                    for (p, &qv) in side.iter_mut().zip(qrow) {
                        *p += s * qv as f32;
                    }
                } else {
                    let acc = &mut scratch.acc[b * out..(b + 1) * out];
                    for (a, &qv) in acc.iter_mut().zip(qrow) {
                        *a += (qv as i32) << sh;
                    }
                }
            }
        }
        // One dequantization per (lane, output) row.
        let g = base.unwrap_or(0.0); // read only when the shift path ran
        for b in 0..batch {
            let acc_row = &scratch.acc[b * out..(b + 1) * out];
            let lane_psp = &mut psp_lanes[b * out..(b + 1) * out];
            if any_side {
                let side_row = &scratch.side[b * out..(b + 1) * out];
                for (((p, &a), &sv), &sc) in lane_psp
                    .iter_mut()
                    .zip(acc_row)
                    .zip(side_row)
                    .zip(&self.scales)
                {
                    *p += sc * (g * a as f32 + sv);
                }
            } else {
                for ((p, &a), &sc) in lane_psp.iter_mut().zip(acc_row).zip(&self.scales) {
                    *p += sc * (g * a as f32);
                }
            }
        }
        scratch.side_dirty = any_side;
        Ok(())
    }
}

/// Reusable buffers of the int8 kernels: the lane-major `i32`
/// accumulator, the raw `f32` side channel, and the self-pack mask
/// plane. Hold one per engine — capacity is retained across calls.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    /// Lane-major `[lane][out]` i32 PSP accumulator.
    acc: Vec<i32>,
    /// Lane-major `[lane][out]` raw-magnitude side channel.
    side: Vec<f32>,
    /// Whether `side` holds residue from the previous call.
    side_dirty: bool,
    /// Self-pack mask plane (one `u64` per input neuron).
    masks: Vec<u64>,
}

impl QuantScratch {
    /// Sizes and zeroes the accumulators for one kernel call. The side
    /// channel is only re-zeroed when the previous call dirtied it.
    fn begin(&mut self, len: usize) {
        if self.acc.len() != len {
            self.acc.clear();
            self.acc.resize(len, 0);
        } else {
            self.acc.fill(0);
        }
        if self.side.len() != len {
            self.side.clear();
            self.side.resize(len, 0.0);
            self.side_dirty = false;
        } else if self.side_dirty {
            self.side.fill(0.0);
            self.side_dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsnn_tensor::init::uniform;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn to_soa(images: &[Vec<f32>]) -> Vec<f32> {
        let batch = images.len();
        let n = images[0].len();
        let mut soa = vec![0.0f32; n * batch];
        for (b, img) in images.iter().enumerate() {
            for (i, &v) in img.iter().enumerate() {
                soa[i * batch + b] = v;
            }
        }
        soa
    }

    /// f32 reference: per-lane dense matvec against the *original*
    /// weights, plus the quantization error bound it must sit within.
    fn check_against_f32(
        weight: &Tensor,
        qd: &QuantizedDense,
        inputs: &[Vec<f32>],
        base: Option<f32>,
        uniform: Option<f32>,
    ) {
        let (inn, out) = (weight.shape()[0], weight.shape()[1]);
        let w = weight.as_slice();
        let batch = inputs.len();
        let soa = to_soa(inputs);
        let masks: Vec<u64> = soa.chunks_exact(batch).map(lane_mask).collect();
        let mut psp = vec![0.0f32; out * batch];
        let mut scratch = QuantScratch::default();
        qd.accumulate_packed_planes(&soa, &mut psp, batch, &masks, uniform, base, &mut scratch)
            .unwrap();
        for (b, img) in inputs.iter().enumerate() {
            let sum_abs: f32 = img.iter().map(|s| s.abs()).sum();
            for j in 0..out {
                let reference: f32 = (0..inn).map(|i| img[i] * w[i * out + j]).sum();
                let got = psp[b * out + j];
                let bound = qd.weight_error_bound(j) * sum_abs + 1e-4;
                assert!(
                    (got - reference).abs() <= bound,
                    "lane {b} out {j}: {got} vs {reference} (bound {bound})"
                );
            }
        }
    }

    #[test]
    fn quantized_psp_tracks_f32_within_rounding_bound() {
        let mut rng = StdRng::seed_from_u64(71);
        let weight = uniform(&mut rng, &[24, 9], -1.0, 1.0);
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        assert_eq!(qd.input_len(), 24);
        assert_eq!(qd.output_len(), 9);
        for density in [0.1f32, 0.5, 1.0] {
            for batch in [1usize, 3, 16] {
                // Burst-shaped magnitudes base · 2^k on the shift path
                // plus some raw analog stragglers on the side channel.
                let inputs: Vec<Vec<f32>> = (0..batch)
                    .map(|_| {
                        (0..24)
                            .map(|_| {
                                if rng.gen_range(0.0..1.0f32) >= density {
                                    0.0
                                } else if rng.gen_bool(0.7) {
                                    0.25 * 2.0f32.powi(rng.gen_range(0..=4))
                                } else {
                                    rng.gen_range(0.01..1.0f32)
                                }
                            })
                            .collect()
                    })
                    .collect();
                check_against_f32(&weight, &qd, &inputs, Some(0.25), None);
                check_against_f32(&weight, &qd, &inputs, None, None);
            }
        }
    }

    #[test]
    fn uniform_fast_path_matches_f32_for_negative_exponents() {
        let mut rng = StdRng::seed_from_u64(73);
        let weight = uniform(&mut rng, &[20, 6], -1.0, 1.0);
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        // Phase-shaped traffic: one magnitude per step, including
        // exponents below the shift path's floor (2^−5 · vth).
        for u in [0.4f32, 0.4 * 0.5, 0.4 * 0.03125] {
            let inputs: Vec<Vec<f32>> = (0..8)
                .map(|l| {
                    (0..20)
                        .map(|i| if (i + l) % 3 == 0 { u } else { 0.0 })
                        .collect()
                })
                .collect();
            check_against_f32(&weight, &qd, &inputs, Some(0.4), Some(u));
        }
    }

    #[test]
    fn exactly_representable_weights_make_the_shift_path_exact() {
        // Integer weights in [−127, 127] quantize with scale 1.0, so
        // dequantization reproduces the f32 product bit-exactly when
        // every magnitude is a small power of two.
        let mut rng = StdRng::seed_from_u64(79);
        let mut w = vec![0.0f32; 12 * 5];
        for v in &mut w {
            *v = rng.gen_range(-127i32..=127) as f32;
        }
        // Pin the column max so every scale is exactly 1.0.
        for v in w.iter_mut().take(5) {
            *v = 127.0;
        }
        let weight = Tensor::from_vec(w.clone(), &[12, 5]).unwrap();
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        assert!(qd.scales().iter().all(|&s| s == 1.0));
        let g = 0.5f32;
        let batch = 4usize;
        let inputs: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..12)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            g * 2.0f32.powi(rng.gen_range(0..=3))
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let soa = to_soa(&inputs);
        let masks: Vec<u64> = soa.chunks_exact(batch).map(lane_mask).collect();
        let mut psp = vec![0.0f32; 5 * batch];
        let mut scratch = QuantScratch::default();
        qd.accumulate_packed_planes(&soa, &mut psp, batch, &masks, None, Some(g), &mut scratch)
            .unwrap();
        for (b, img) in inputs.iter().enumerate() {
            for j in 0..5 {
                let reference: f32 = (0..12).map(|i| img[i] * w[i * 5 + j]).sum();
                assert_eq!(
                    psp[b * 5 + j].to_bits(),
                    reference.to_bits(),
                    "lane {b} out {j}"
                );
            }
        }
    }

    #[test]
    fn saturation_and_all_negative_columns_quantize_symmetrically() {
        // Column 0 all-negative, column 1 mixed with one dominant
        // weight: the dominant entries must hit exactly ±127.
        let w = vec![
            -2.0f32, 10.0, //
            -1.0, -10.0, //
            -0.5, 0.1,
        ];
        let weight = Tensor::from_vec(w, &[3, 2]).unwrap();
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        assert_eq!(qd.codes()[0], -127, "column max must saturate");
        assert_eq!(qd.codes()[1], 127);
        assert_eq!(qd.codes()[3], -127);
        assert!(qd.scales()[0] > 0.0 && qd.scales()[1] > 0.0);
        let inputs = vec![vec![1.0f32, 1.0, 1.0]];
        check_against_f32(&weight, &qd, &inputs, None, None);
    }

    #[test]
    fn zero_column_dequantizes_to_exact_zero() {
        let w = vec![
            0.0f32, 1.0, //
            0.0, -0.5,
        ];
        let weight = Tensor::from_vec(w, &[2, 2]).unwrap();
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        assert_eq!(qd.scales()[0], 0.0);
        let inputs = vec![vec![0.7f32, 0.3]];
        let soa = to_soa(&inputs);
        let masks = vec![1u64, 1];
        let mut psp = vec![0.0f32; 2];
        let mut scratch = QuantScratch::default();
        qd.accumulate_packed_planes(&soa, &mut psp, 1, &masks, None, None, &mut scratch)
            .unwrap();
        assert_eq!(psp[0].to_bits(), 0.0f32.to_bits());
        assert_ne!(psp[1], 0.0);
    }

    #[test]
    fn oversized_shifts_fall_back_to_the_side_channel() {
        let mut rng = StdRng::seed_from_u64(83);
        let weight = uniform(&mut rng, &[8, 4], -1.0, 1.0);
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        let huge = 2.0f32.powi(qd.max_shift() as i32 + 3);
        // Every event sits above max_shift: the i32 path must not run
        // (it would overflow) and results still track the f32 product.
        let inputs: Vec<Vec<f32>> = (0..2)
            .map(|_| {
                (0..8)
                    .map(|i| if i % 2 == 0 { huge } else { 0.0 })
                    .collect()
            })
            .collect();
        check_against_f32(&weight, &qd, &inputs, Some(1.0), None);
        // Below-base exponents (2^−k under a burst-fed stage) also
        // reroute to the side channel rather than shifting negatively.
        let tiny = 0.25f32;
        let inputs: Vec<Vec<f32>> = (0..2)
            .map(|_| {
                (0..8)
                    .map(|i| if i % 2 == 1 { tiny } else { 0.0 })
                    .collect()
            })
            .collect();
        check_against_f32(&weight, &qd, &inputs, Some(1.0), None);
    }

    #[test]
    fn self_pack_agrees_with_plane_fed() {
        let mut rng = StdRng::seed_from_u64(89);
        let weight = uniform(&mut rng, &[16, 7], -1.0, 1.0);
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        let batch = 5usize;
        let inputs: Vec<Vec<f32>> = (0..batch)
            .map(|_| {
                (0..16)
                    .map(|_| {
                        if rng.gen_bool(0.4) {
                            rng.gen_range(0.01..1.0f32)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let soa = to_soa(&inputs);
        let masks: Vec<u64> = soa.chunks_exact(batch).map(lane_mask).collect();
        let mut scratch = QuantScratch::default();
        let mut a = vec![0.0f32; 7 * batch];
        qd.accumulate_packed(&soa, &mut a, batch, Some(0.5), &mut scratch)
            .unwrap();
        let mut b = vec![0.0f32; 7 * batch];
        qd.accumulate_packed_planes(&soa, &mut b, batch, &masks, None, Some(0.5), &mut scratch)
            .unwrap();
        assert_eq!(a, b, "self-pack diverged from plane-fed replay");
    }

    #[test]
    fn constructors_reject_degenerate_inputs() {
        assert!(QuantizedDense::from_weights(&Tensor::zeros(&[4])).is_none());
        assert!(QuantizedDense::from_weights(&Tensor::zeros(&[0, 3])).is_none());
        let nan = Tensor::from_vec(vec![f32::NAN, 1.0], &[2, 1]).unwrap();
        assert!(QuantizedDense::from_weights(&nan).is_none());
        assert!(QuantizedDense::from_parts(2, 2, vec![0; 3], vec![0.5; 2]).is_err());
        assert!(QuantizedDense::from_parts(2, 2, vec![0; 4], vec![0.5; 3]).is_err());
        assert!(QuantizedDense::from_parts(2, 2, vec![0; 4], vec![-0.5, 0.5]).is_err());
        assert!(QuantizedDense::from_parts(2, 2, vec![0; 4], vec![f32::NAN, 0.5]).is_err());
        assert!(QuantizedDense::from_parts(0, 2, vec![], vec![0.5; 2]).is_err());
        let ok = QuantizedDense::from_parts(2, 2, vec![1, -1, 2, -2], vec![0.5, 0.25]).unwrap();
        assert_eq!(ok.max_shift(), shift_bound(2));
        // Round trip through parts preserves the kernel's behaviour.
        let rebuilt = QuantizedDense::from_parts(
            ok.input_len(),
            ok.output_len(),
            ok.codes().to_vec(),
            ok.scales().to_vec(),
        )
        .unwrap();
        assert_eq!(ok, rebuilt);
    }

    #[test]
    fn kernel_rejects_bad_shapes() {
        let weight = Tensor::from_vec(vec![0.5f32; 6], &[2, 3]).unwrap();
        let qd = QuantizedDense::from_weights(&weight).unwrap();
        let mut scratch = QuantScratch::default();
        let mut psp = vec![0.0f32; 6];
        assert!(qd
            .accumulate_packed(&[0.0; 4], &mut psp, 0, None, &mut scratch)
            .is_err());
        assert!(qd
            .accumulate_packed(&[0.0; 130], &mut psp, 65, None, &mut scratch)
            .is_err());
        assert!(qd
            .accumulate_packed(&[0.0; 3], &mut psp, 2, None, &mut scratch)
            .is_err());
        let mut short = vec![0.0f32; 5];
        assert!(qd
            .accumulate_packed(&[0.0; 4], &mut short, 2, None, &mut scratch)
            .is_err());
        assert!(qd
            .accumulate_packed_planes(&[0.0; 4], &mut psp, 2, &[0; 3], None, None, &mut scratch)
            .is_err());
        assert!(qd
            .accumulate_packed(&[0.0; 4], &mut psp, 2, None, &mut scratch)
            .is_ok());
    }

    #[test]
    fn shift_bound_respects_i32_overflow() {
        for in_len in [1usize, 24, 1024, 1 << 20] {
            let ms = shift_bound(in_len);
            assert!((127i64 * in_len as i64) << ms <= i32::MAX as i64);
            assert!(ms == 30 || (127i64 * in_len as i64) << (ms + 1) > i32::MAX as i64);
        }
    }
}
