//! Synaptic weight stages connecting spiking layers.
//!
//! A [`Synapse`] turns the presynaptic layer's spike-magnitude vector into
//! per-neuron post-synaptic potentials (PSPs). The scalar path exploits
//! spike sparsity: only nonzero input entries contribute, so the cost per
//! time step scales with the number of spikes rather than the layer size —
//! exactly the event-driven advantage the paper's energy argument rests
//! on.
//!
//! The lockstep kernels run several images at once. Most skip an input
//! only when all of its lanes are silent; the conv kernel at 4, 8 and 16
//! lanes skips nothing and keeps blocks of outputs in registers instead
//! (output-stationary). Every `f32` kernel matches the scalar path bit
//! for bit under the condition stated on [`Synapse::accumulate_batch`].

use crate::SnnError;
use bsnn_tensor::conv::Conv2dGeometry;
use bsnn_tensor::Tensor;

/// `p[b] += lanes[b] * w` over one lane block, 4 lanes at a time.
///
/// On x86-64 this is written with explicit 128-bit SSE intrinsics rather
/// than a plain loop. The loop *is* trivially vectorizable — but LLVM's
/// SLP pass (rustc 1.95, opt-level 3) instead transposes mid-width lane
/// loops onto the *output* axis, assembling vectors of strided `psp`
/// elements with `movss`+`unpcklps` gathers; measured on the dense
/// 144×32 stage that made batch 4 *2.6× slower* per lane than batch 1
/// (the BENCH_core.json batch-4 regression). Spelling the quads as
/// vector IR pins the lane-innermost strategy. `_mm_mul_ps`/`_mm_add_ps`
/// round exactly like the scalar `mul`+`add` (no fused contraction), so
/// results stay bit-identical to [`Synapse::accumulate`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_fma(p: &mut [f32], lanes: &[f32], w: f32) {
    use core::arch::x86_64::{_mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps};
    debug_assert_eq!(p.len(), lanes.len());
    let n = p.len().min(lanes.len());
    let quads = n - n % 4;
    // SAFETY: SSE is baseline on x86-64, and every load/store covers
    // `[q, q + 4)` with `q + 4 <= quads <= n <= len(p), len(lanes)`.
    unsafe {
        let wv = _mm_set1_ps(w);
        let mut q = 0;
        while q < quads {
            let pp = p.as_mut_ptr().add(q);
            let lp = lanes.as_ptr().add(q);
            _mm_storeu_ps(
                pp,
                _mm_add_ps(_mm_loadu_ps(pp), _mm_mul_ps(_mm_loadu_ps(lp), wv)),
            );
            q += 4;
        }
    }
    for b in quads..n {
        p[b] += lanes[b] * w;
    }
}

/// Portable fallback: the plain lane loop (auto-vectorized).
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn lane_fma(p: &mut [f32], lanes: &[f32], w: f32) {
    for (pb, &sb) in p.iter_mut().zip(lanes) {
        *pb += sb * w;
    }
}

/// Four lanes of a register-held accumulator in [`conv_gather`]: one
/// SSE vector on x86-64. [`Quad::mul_add`] is a separate `_mm_mul_ps`
/// and `_mm_add_ps`, so it rounds exactly like [`lane_fma`] and the
/// scalar `p += s * w`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Quad(core::arch::x86_64::__m128);

#[cfg(target_arch = "x86_64")]
impl Quad {
    /// Reads the four floats at `p`.
    ///
    /// # Safety
    ///
    /// `[p, p + 4)` must be in bounds of one live allocation.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Quad(core::arch::x86_64::_mm_loadu_ps(p))
    }

    /// Writes the four floats at `p`.
    ///
    /// # Safety
    ///
    /// `[p, p + 4)` must be in bounds of one live, writable allocation.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        core::arch::x86_64::_mm_storeu_ps(p, self.0)
    }

    #[inline(always)]
    fn splat(w: f32) -> Self {
        // SAFETY: SSE is baseline on x86-64.
        Quad(unsafe { core::arch::x86_64::_mm_set1_ps(w) })
    }

    /// `self + x · w` per lane, rounded after the multiply and the add.
    #[inline(always)]
    fn mul_add(self, x: Quad, w: Quad) -> Self {
        use core::arch::x86_64::{_mm_add_ps, _mm_mul_ps};
        // SAFETY: SSE is baseline on x86-64.
        Quad(unsafe { _mm_add_ps(self.0, _mm_mul_ps(x.0, w.0)) })
    }
}

/// Portable fallback: a plain four-float array (auto-vectorized).
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy)]
struct Quad([f32; 4]);

#[cfg(not(target_arch = "x86_64"))]
impl Quad {
    /// Reads the four floats at `p`.
    ///
    /// # Safety
    ///
    /// `[p, p + 4)` must be in bounds of one live allocation.
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Quad(p.cast::<[f32; 4]>().read_unaligned())
    }

    /// Writes the four floats at `p`.
    ///
    /// # Safety
    ///
    /// `[p, p + 4)` must be in bounds of one live, writable allocation.
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 4]>().write_unaligned(self.0)
    }

    #[inline(always)]
    fn splat(w: f32) -> Self {
        Quad([w; 4])
    }

    /// `self + x · w` per lane, rounded after the multiply and the add.
    #[inline(always)]
    fn mul_add(self, x: Quad, w: Quad) -> Self {
        let mut r = self.0;
        for (r, (&x, &w)) in r.iter_mut().zip(x.0.iter().zip(&w.0)) {
            *r += x * w;
        }
        Quad(r)
    }
}

/// Bit-plane of one spike row: bit `b` set iff `row[b] != 0.0`, for
/// rows of up to 64 lanes. Four lanes per `movmskps` (the sign bits of
/// the `!=`-compare mask), so the scan is branch-free and O(len/4) —
/// cheap enough to run after every fire pass without perturbing the
/// fire loop's own vectorization. NaN compares not-equal in both the
/// vector and scalar paths, matching the scalar `!=`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn lane_mask(row: &[f32]) -> u64 {
    use std::arch::x86_64::*;
    let n = row.len();
    debug_assert!(n <= 64);
    let quads = n & !3;
    let mut m = 0u64;
    unsafe {
        let zero = _mm_setzero_ps();
        let mut b = 0;
        while b < quads {
            let ne = _mm_cmpneq_ps(_mm_loadu_ps(row.as_ptr().add(b)), zero);
            m |= (_mm_movemask_ps(ne) as u64) << b;
            b += 4;
        }
    }
    for (b, &s) in row.iter().enumerate().skip(quads) {
        m |= ((s != 0.0) as u64) << b;
    }
    m
}

/// Portable fallback: branch-free scalar fold.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub(crate) fn lane_mask(row: &[f32]) -> u64 {
    debug_assert!(row.len() <= 64);
    row.iter()
        .enumerate()
        .fold(0u64, |m, (b, &s)| m | ((s != 0.0) as u64) << b)
}

/// Sentinel exponent-plane entry: the magnitude was not an exact
/// `base · 2^k` and must be read from the raw-magnitude side channel.
const RAW_EXP: u8 = 0;

/// `2^(e − 127)` as `f32`, from a biased exponent byte in `1..=254`:
/// the per-exponent multiplier of the packed replay, built by exponent
/// manipulation alone (mantissa and sign bits zero).
#[inline(always)]
fn pow2_from_biased(e: u8) -> f32 {
    f32::from_bits((e as u32) << 23)
}

/// The biased exponent byte `e` such that `base · 2^(e − 127)`
/// reproduces `v` **bit-exactly**, if one exists.
///
/// Scaling by a power of two is exact in `f32` as long as the result
/// stays in range, so the magnitude of a burst (`vth · g`, g a power of
/// two) or phase (`vth · 2^−k`) spike compresses to one byte. The check
/// is two-step: the quotient `v / base` must be a positive *normal*
/// power of two (zero mantissa), and the reconstruction must round-trip
/// to `v`'s exact bits — the second test rejects the subnormal and
/// overflow edges where the division itself rounded. Zero, negative,
/// and non-finite inputs all fail the quotient test (`RAW_EXP` is never
/// a valid answer, so it can double as the sentinel).
#[inline]
pub(crate) fn pow2_exponent(v: f32, base: f32) -> Option<u8> {
    let bits = (v / base).to_bits();
    let exp = bits >> 23; // sign and exponent together: must be a
                          // positive normal power of two
    if bits & 0x007F_FFFF != 0 || exp == 0 || exp >= 255 {
        return None;
    }
    let recon = base * pow2_from_biased(exp as u8);
    (recon.to_bits() == v.to_bits()).then_some(exp as u8)
}

/// Rejects lockstep widths the packed kernels cannot run: a mask plane
/// holds one bit per lane in a `u64`.
fn check_plane_width(batch: usize) -> Result<(), SnnError> {
    if batch == 0 || batch > 64 {
        return Err(SnnError::InvalidConfig(format!(
            "packed kernel lockstep width {batch} outside 1..=64"
        )));
    }
    Ok(())
}

/// Whether `v` is a positive normal power of two — exactly the betas
/// whose burst magnitudes `vth · βⁿ` stay on the exponent plane.
pub(crate) fn is_exact_pow2(v: f32) -> bool {
    let bits = v.to_bits();
    bits & 0x007F_FFFF == 0 && matches!(bits >> 23, 1..=254)
}

/// One pass of the register-blocked packed replay: four lanes' PSP rows
/// accumulate the same weight row at once, so each `wij` load feeds
/// four independent FMA chains (>2 MAC/cycle; the single-row replay is
/// load-bound at ~2). Each row's own accumulation chain is untouched —
/// the blocking only interleaves *across* lanes — so results are
/// bit-identical to four sequential single-row replays.
#[inline(always)]
fn fma_rows4(rows: [&mut [f32]; 4], weights: &[f32], mags: [f32; 4]) {
    let n = weights.len();
    let [p0, p1, p2, p3] = rows;
    // Reslice every row to the weight length so the indexed loop
    // carries no bounds checks and each row's stream vectorizes.
    let (p0, p1, p2, p3) = (&mut p0[..n], &mut p1[..n], &mut p2[..n], &mut p3[..n]);
    for j in 0..n {
        let wij = weights[j];
        p0[j] += mags[0] * wij;
        p1[j] += mags[1] * wij;
        p2[j] += mags[2] * wij;
        p3[j] += mags[3] * wij;
    }
}

/// Replays one active input neuron's decoded `(lane, magnitude)` events
/// against its weight row: 4-blocked register FMAs for full quads, the
/// single-row axpy for the tail. Shared by the self-packing and
/// plane-fed packed kernels — both decode into the same `lane_of` /
/// `mag_of` staging arrays, so their per-lane operation sequences are
/// identical by construction.
#[inline(always)]
fn replay_packed_row(
    psp_lanes: &mut [f32],
    row: &[f32],
    out: usize,
    lane_of: &[usize; 64],
    mag_of: &[f32; 64],
    cnt: usize,
) {
    let mut c = 0usize;
    while c + 4 <= cnt {
        let rows = psp_lanes
            .get_disjoint_mut([
                lane_of[c] * out..(lane_of[c] + 1) * out,
                lane_of[c + 1] * out..(lane_of[c + 1] + 1) * out,
                lane_of[c + 2] * out..(lane_of[c + 2] + 1) * out,
                lane_of[c + 3] * out..(lane_of[c + 3] + 1) * out,
            ])
            .expect("set-bit lanes ascend, so their PSP rows are disjoint");
        fma_rows4(
            rows,
            row,
            [mag_of[c], mag_of[c + 1], mag_of[c + 2], mag_of[c + 3]],
        );
        c += 4;
    }
    while c < cnt {
        let s = mag_of[c];
        let lane_psp = &mut psp_lanes[lane_of[c] * out..(lane_of[c] + 1) * out];
        for (p, &wij) in lane_psp.iter_mut().zip(row) {
            *p += s * wij;
        }
        c += 1;
    }
}

/// Lane-elements per PSP block of the dense kernels (16 KiB of `f32`):
/// stages whose `out × batch` PSP exceeds this are processed in
/// L1-resident output chunks, so every active input's FMA hits a hot
/// PSP row instead of streaming the whole output. The active-input scan
/// re-runs once per block — negligible next to the saved PSP traffic —
/// and stages that fit in one block keep the exact single-pass loop.
/// Blocking only reorders work across output columns, never within one
/// `(output, lane)` accumulation chain, so results are bit-identical.
const DENSE_PSP_BLOCK: usize = 4096;

/// Batched dense accumulation with a compile-time lane count: the
/// zero-skip check compiles to straight vector compares, and the
/// `B`-wide FMA runs through [`lane_fma`] (quad-pinned; widths 2 and 3
/// take its scalar remainder loop, which LLVM vectorizes fine at those
/// widths). Large outputs are cache-blocked (see [`DENSE_PSP_BLOCK`]).
fn dense_lanes<const B: usize>(input: &[f32], psp: &mut [f32], w: &[f32], out: usize) {
    let cols = (DENSE_PSP_BLOCK / B).max(1);
    let mut j0 = 0;
    while j0 < out {
        let j1 = (j0 + cols).min(out);
        for (i, lanes) in input.chunks_exact(B).enumerate() {
            let lanes: &[f32; B] = lanes.try_into().expect("chunk width");
            if *lanes == [0.0; B] {
                continue;
            }
            let row = &w[i * out + j0..i * out + j1];
            for (p, &wij) in psp[j0 * B..j1 * B].chunks_exact_mut(B).zip(row) {
                lane_fma(p, lanes, wij);
            }
        }
        j0 = j1;
    }
}

/// Runtime-width sibling of [`dense_lanes`] for lane counts without a
/// monomorphized kernel, with the same output-axis cache blocking.
fn dense_dynamic(input: &[f32], psp: &mut [f32], w: &[f32], out: usize, batch: usize) {
    let cols = (DENSE_PSP_BLOCK / batch).max(1);
    let mut j0 = 0;
    while j0 < out {
        let j1 = (j0 + cols).min(out);
        for (i, lanes) in input.chunks_exact(batch).enumerate() {
            if lanes.iter().all(|&s| s == 0.0) {
                continue;
            }
            let row = &w[i * out + j0..i * out + j1];
            // One walk over this PSP block per active input: the weight
            // changes every `batch` elements, the lane FMA loop is the
            // vectorized innermost.
            for (p, &wij) in psp[j0 * batch..j1 * batch].chunks_exact_mut(batch).zip(row) {
                lane_fma(p, lanes, wij);
            }
        }
        j0 = j1;
    }
}

/// The scalar (batch = 1) dense kernel: the seed's spike-sparse loop,
/// cache-blocked over the output axis like its batched siblings.
fn dense_scalar(input: &[f32], psp: &mut [f32], w: &[f32], out: usize) {
    let cols = DENSE_PSP_BLOCK.max(1);
    let mut j0 = 0;
    while j0 < out {
        let j1 = (j0 + cols).min(out);
        for (i, &s) in input.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let row = &w[i * out + j0..i * out + j1];
            for (p, &wij) in psp[j0..j1].iter_mut().zip(row) {
                *p += s * wij;
            }
        }
        j0 = j1;
    }
}

/// The kernel offsets along one axis that map input coordinate `i` onto a
/// valid output coordinate: every `k` in `first..=last` stepping by
/// `stride` satisfies `(i + pad - k) % stride == 0` and
/// `(i + pad - k) / stride < out_len`.
///
/// Returns `None` when no kernel offset is valid. Hoisting this range
/// computation out of the innermost scatter loops removes the per-pixel
/// padding arithmetic and divisibility checks the seed kernels re-derived
/// for every `(ky, kx)` pair.
#[inline]
fn valid_kernel_range(
    i: usize,
    pad: usize,
    stride: usize,
    kernel: usize,
    out_len: usize,
) -> Option<(usize, usize)> {
    if kernel == 0 || out_len == 0 {
        return None;
    }
    let num = i + pad;
    let last_unaligned = num.min(kernel - 1);
    // `oy = (num - k) / stride < out_len` bounds k from below.
    let lower = num.saturating_sub(stride * (out_len - 1));
    // Align both ends onto `k ≡ num (mod stride)`.
    let first = lower + (num - lower) % stride;
    let align_down = (stride - (num - last_unaligned) % stride) % stride;
    let last = last_unaligned.checked_sub(align_down)?;
    (first <= last).then_some((first, last))
}

/// Spatial shape of a conv/pool stage in CHW order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chw {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Chw {
    /// A shape from its components.
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        Chw { c, h, w }
    }

    /// Flat neuron count.
    pub fn volume(&self) -> usize {
        self.c * self.h * self.w
    }
}

/// A weighted connection pattern from one layer's spikes to the next
/// layer's PSPs.
#[derive(Debug, Clone)]
pub enum Synapse {
    /// Fully connected: `weight` is `(in, out)` row-major.
    Dense {
        /// Weight matrix `(in, out)`.
        weight: Tensor,
    },
    /// 2-D convolution with weights `(c_out, c_in, kh, kw)`.
    Conv {
        /// Kernel tensor.
        weight: Tensor,
        /// Window geometry.
        geom: Conv2dGeometry,
        /// Input shape.
        in_shape: Chw,
        /// Output shape.
        out_shape: Chw,
    },
    /// Average pooling: depthwise uniform kernel `scale / (kh·kw)`.
    Pool {
        /// Window geometry.
        geom: Conv2dGeometry,
        /// Input shape.
        in_shape: Chw,
        /// Output shape.
        out_shape: Chw,
        /// Normalization rescale folded into the pool weights
        /// (`λ_prev / λ_this`).
        scale: f32,
    },
}

impl Synapse {
    /// Checks that a conv or pool stage's shapes agree with its
    /// geometry: a `Conv` weight is `[out.c, in.c, kh, kw]`, a `Pool`
    /// keeps its channel count, and both produce
    /// `(out.h, out.w) == geom.output_hw(in.h, in.w)`. Dense stages have
    /// no separate shape to disagree with.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] naming the first mismatch.
    pub(crate) fn validate(&self) -> Result<(), SnnError> {
        let (geom, in_shape, out_shape) = match self {
            Synapse::Dense { .. } => return Ok(()),
            Synapse::Conv {
                weight,
                geom,
                in_shape,
                out_shape,
            } => {
                let want = [out_shape.c, in_shape.c, geom.kernel_h, geom.kernel_w];
                if weight.shape() != want {
                    return Err(SnnError::InvalidConfig(format!(
                        "conv weight shape {:?} is not [out.c, in.c, kh, kw] = {want:?}",
                        weight.shape()
                    )));
                }
                (geom, in_shape, out_shape)
            }
            Synapse::Pool {
                geom,
                in_shape,
                out_shape,
                ..
            } => {
                if out_shape.c != in_shape.c {
                    return Err(SnnError::InvalidConfig(format!(
                        "pool maps {} channels to {}",
                        in_shape.c, out_shape.c
                    )));
                }
                (geom, in_shape, out_shape)
            }
        };
        let (oh, ow) = geom
            .output_hw(in_shape.h, in_shape.w)
            .map_err(|e| SnnError::InvalidConfig(format!("stage geometry: {e}")))?;
        if (oh, ow) != (out_shape.h, out_shape.w) {
            return Err(SnnError::InvalidConfig(format!(
                "output is {}x{} but the geometry maps a {}x{} input to {oh}x{ow}",
                out_shape.h, out_shape.w, in_shape.h, in_shape.w
            )));
        }
        Ok(())
    }

    /// Number of presynaptic neurons this synapse reads.
    pub fn input_len(&self) -> usize {
        match self {
            Synapse::Dense { weight } => weight.shape()[0],
            Synapse::Conv { in_shape, .. } => in_shape.volume(),
            Synapse::Pool { in_shape, .. } => in_shape.volume(),
        }
    }

    /// Number of postsynaptic neurons this synapse drives.
    pub fn output_len(&self) -> usize {
        match self {
            Synapse::Dense { weight } => weight.shape()[1],
            Synapse::Conv { out_shape, .. } => out_shape.volume(),
            Synapse::Pool { out_shape, .. } => out_shape.volume(),
        }
    }

    /// Accumulates `input`'s contribution into `psp` (`psp += W·input`).
    ///
    /// `psp` must have length [`Self::output_len`]; `input` length
    /// [`Self::input_len`]. Zero entries of `input` are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InputSizeMismatch`] on length mismatches.
    pub fn accumulate(&self, input: &[f32], psp: &mut [f32]) -> Result<(), SnnError> {
        self.accumulate_batch(input, psp, 1)
    }

    /// Accumulates `batch` images in lockstep: `input` and `psp` are
    /// structure-of-arrays, batch-innermost buffers (`[neuron][batch]`,
    /// so lane `b` of neuron `i` lives at `i * batch + b`).
    ///
    /// The innermost loop of every kernel runs over the contiguous batch
    /// axis; weights are loaded once per batch instead of once per image.
    /// The kernel depends on the stage and the width alone:
    ///
    /// - dense and pool stages skip an input neuron only when *all* of
    ///   its lanes are zero;
    /// - conv stages at widths 4, 8 and 16 run the output-stationary
    ///   kernel: a block of output channels' PSP lanes stays in
    ///   registers while every tap `(ci, ky, kx)` is added in ascending
    ///   order, and no input pixel is skipped;
    /// - conv stages at width 1 (the scalar path, which the equivalence
    ///   suites use as their reference), width 2 and every other width
    ///   run the input-driven scatter, which skips all-zero pixels.
    ///
    /// Every output lane receives the scalar path's terms in the scalar
    /// order, each rounded by a separate multiply and add; where the
    /// scalar path skips a zero input, a lockstep kernel may add an
    /// exact `±0.0` term instead. Those terms change nothing unless the
    /// accumulator is `−0.0` (`−0.0 + +0.0 = +0.0`) or the weight is not
    /// finite (`0 · ∞` is NaN). So lane `b` equals an independent
    /// [`Self::accumulate`] call on image `b`, bit for bit, whenever no
    /// `psp` entry starts at `−0.0` and the weights are finite: a sum
    /// that starts at `+0.0` or at a nonzero value never becomes `−0.0`.
    /// The lockstep engine and the scalar layer both zero the PSP to
    /// `+0.0` before every pass, so the first condition always holds
    /// there.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InputSizeMismatch`] on length mismatches and
    /// [`SnnError::InvalidConfig`] for a zero batch.
    pub fn accumulate_batch(
        &self,
        input: &[f32],
        psp: &mut [f32],
        batch: usize,
    ) -> Result<(), SnnError> {
        if batch == 0 {
            return Err(SnnError::InvalidConfig("batch must be nonzero".into()));
        }
        if input.len() != self.input_len() * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: self.input_len() * batch,
                actual: input.len(),
            });
        }
        if psp.len() != self.output_len() * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: self.output_len() * batch,
                actual: psp.len(),
            });
        }
        match self {
            Synapse::Dense { weight } => {
                let out = weight.shape()[1];
                let w = weight.as_slice();
                match batch {
                    // Scalar fast path: the seed's spike-sparse loop.
                    1 => dense_scalar(input, psp, w, out),
                    // Compile-time lane counts let LLVM fully unroll the
                    // lane loop into straight SIMD.
                    2 => dense_lanes::<2>(input, psp, w, out),
                    4 => dense_lanes::<4>(input, psp, w, out),
                    8 => dense_lanes::<8>(input, psp, w, out),
                    16 => dense_lanes::<16>(input, psp, w, out),
                    _ => dense_dynamic(input, psp, w, out, batch),
                }
            }
            Synapse::Conv {
                weight,
                geom,
                in_shape,
                out_shape,
            } => {
                debug_assert_eq!(weight.shape()[1], in_shape.c);
                let plan = ScatterPlan {
                    w: weight.as_slice(),
                    c_in: in_shape.c,
                    c_out: weight.shape()[0],
                    geom,
                    ih: in_shape.h,
                    iw: in_shape.w,
                    oh: out_shape.h,
                    ow: out_shape.w,
                };
                match batch {
                    2 => conv_scatter::<Fixed<2>>(batch, input, psp, &plan),
                    4 => conv_gather::<1, 8>(input, psp, &plan),
                    8 => conv_gather::<2, 4>(input, psp, &plan),
                    16 => conv_gather::<4, 2>(input, psp, &plan),
                    _ => conv_scatter::<Dynamic>(batch, input, psp, &plan),
                }
            }
            Synapse::Pool {
                geom,
                in_shape,
                out_shape,
                scale,
            } => {
                let unit = *scale / (geom.kernel_h * geom.kernel_w) as f32;
                let plan = ScatterPlan {
                    w: std::slice::from_ref(&unit),
                    c_in: in_shape.c,
                    c_out: 1,
                    geom,
                    ih: in_shape.h,
                    iw: in_shape.w,
                    oh: out_shape.h,
                    ow: out_shape.w,
                };
                match batch {
                    2 => pool_scatter::<Fixed<2>>(batch, input, psp, &plan),
                    4 => pool_scatter::<Fixed<4>>(batch, input, psp, &plan),
                    8 => pool_scatter::<Fixed<8>>(batch, input, psp, &plan),
                    16 => pool_scatter::<Fixed<16>>(batch, input, psp, &plan),
                    _ => pool_scatter::<Dynamic>(batch, input, psp, &plan),
                }
            }
        }
        Ok(())
    }

    /// Bit-plane packed accumulation: the mask-driven sibling of
    /// [`Self::accumulate_batch`] for spike-sparse batches of up to 64
    /// lanes, whose cost scales with the events of each lane rather
    /// than with the inputs live in any lane.
    ///
    /// `input` is the usual batch-innermost SoA buffer, but `psp_lanes`
    /// is **lane-major** (`[lane][neuron]`, so lane `b`'s PSP row is the
    /// contiguous slice `b * output_len()..`). The pack pass compresses
    /// the staged spikes into bit-plane form — one `u64` activity mask
    /// per input neuron (bit `b` set iff lane `b` spiked) plus a
    /// per-event *exponent plane*: when `base` is the presynaptic
    /// threshold `vth`, burst magnitudes `vth · g` and phase magnitudes
    /// `vth · 2^−k` are exact powers of two times `base`, so each
    /// event's magnitude compresses to one biased exponent byte
    /// (magnitudes off the plane — or all of them, when `base` is
    /// `None` — fall back to a raw-`f32` side channel, verified
    /// bit-exactly at pack time). The replay then walks set bits with
    /// trailing-zero scans and streams each active neuron's weight row
    /// through a 4-lane register-blocked FMA (`fma_rows4`): the row is
    /// loaded once per four lanes instead of once per event, which is
    /// what lifts the replay past a single-row replay's ~2 MAC/cycle.
    /// Reconstructing a magnitude as `base · 2^k` is exponent
    /// manipulation only (`pow2_from_biased`) and bit-identical to the
    /// original float product, and every lane sees its events in
    /// ascending neuron order, so per-lane results match
    /// [`Self::accumulate`] and the dense batch path bit for bit.
    ///
    /// The mask plane also makes the density probe a popcount:
    /// [`KernelScratch::plane_events`] after this call.
    ///
    /// Conv/pool stages run a mask-driven scatter: set bits select the
    /// live (pixel, lane) events directly.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for a zero batch or one
    /// wider than the 64-bit mask plane, and
    /// [`SnnError::InputSizeMismatch`] on length mismatches.
    pub fn accumulate_batch_packed(
        &self,
        input: &[f32],
        psp_lanes: &mut [f32],
        batch: usize,
        base: Option<f32>,
        scratch: &mut KernelScratch,
    ) -> Result<(), SnnError> {
        check_plane_width(batch)?;
        let weight = match self {
            Synapse::Dense { weight } => weight,
            Synapse::Conv { .. } | Synapse::Pool { .. } => {
                // Self-pack: one `lane_mask` pass builds the activity
                // plane, then the masked scatter replays raw staged
                // magnitudes (conv/pool never compresses exponents —
                // the scatter multiplies the raw float directly, so no
                // exponent plane is needed).
                scratch.active.clear();
                scratch.exps.clear();
                scratch.raws.clear();
                scratch.masks.clear();
                scratch
                    .masks
                    .extend(input.chunks_exact(batch).map(lane_mask));
                return self.packed_convpool(input, psp_lanes, batch, &scratch.masks, None);
            }
        };
        if input.len() != self.input_len() * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: self.input_len() * batch,
                actual: input.len(),
            });
        }
        let out = weight.shape()[1];
        if psp_lanes.len() != out * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: out * batch,
                actual: psp_lanes.len(),
            });
        }
        let w = weight.as_slice();
        // Pack: one pass over the SoA input builds the mask plane, the
        // active-neuron list (ascending, so every lane sees its events
        // in the same neuron order as the other strategies), and the
        // exponent plane in set-bit order. The lane scan is the
        // branch-free `movmskps` fold ([`lane_mask`]); per-event work
        // runs only over set bits. Spike traffic repeats a handful of
        // distinct magnitudes (one per step under phase coding, one
        // per burst run length), so a one-entry memo on the
        // magnitude's bits answers almost every exponent probe without
        // re-running the division + round-trip verification.
        scratch.masks.clear();
        scratch.active.clear();
        scratch.exps.clear();
        scratch.raws.clear();
        let mut memo_bits = 0u32; // unreachable: set bits exclude ±0
        let mut memo_exp = RAW_EXP;
        for (i, lanes) in input.chunks_exact(batch).enumerate() {
            let m = lane_mask(lanes);
            scratch.masks.push(m);
            if m == 0 {
                continue;
            }
            scratch.active.push(i as u32);
            let mut mm = m;
            while mm != 0 {
                let b = mm.trailing_zeros() as usize;
                mm &= mm - 1;
                let s = lanes[b];
                let bits = s.to_bits();
                let e = if bits == memo_bits {
                    memo_exp
                } else {
                    let e = base.and_then(|g| pow2_exponent(s, g)).unwrap_or(RAW_EXP);
                    memo_bits = bits;
                    memo_exp = e;
                    e
                };
                scratch.exps.push(e);
                if e == RAW_EXP {
                    scratch.raws.push(s);
                }
            }
        }
        // Replay: per active neuron, decode that neuron's (lane,
        // magnitude) events off the planes, then stream its weight row
        // through 4-blocked row FMAs. Ascending lane order within a
        // neuron plus ascending neuron order overall gives every lane
        // the scalar path's exact operation sequence.
        let g = base.unwrap_or(0.0); // read only under a non-RAW exponent
        let mut e_idx = 0usize;
        let mut r_idx = 0usize;
        let mut lane_of = [0usize; 64];
        let mut mag_of = [0.0f32; 64];
        for &i in &scratch.active {
            let i = i as usize;
            let row = &w[i * out..(i + 1) * out];
            let mut m = scratch.masks[i];
            let mut cnt = 0usize;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                let e = scratch.exps[e_idx];
                e_idx += 1;
                lane_of[cnt] = b;
                mag_of[cnt] = if e == RAW_EXP {
                    let v = scratch.raws[r_idx];
                    r_idx += 1;
                    v
                } else {
                    g * pow2_from_biased(e)
                };
                cnt += 1;
            }
            replay_packed_row(psp_lanes, row, out, &lane_of, &mag_of, cnt);
        }
        Ok(())
    }

    /// Plane-fed sibling of [`Self::accumulate_batch_packed`]: replays
    /// bit-planes that were **built during staging** — by
    /// `fire_lanes`, which already holds each lane's fire decision and
    /// spike magnitude — so the kernel itself never rescans the input.
    /// This is the packed strategy's hot path inside the lockstep
    /// engine; the self-packing variant remains for stage 0 (whose
    /// drive is staged lane-by-lane) and for direct callers.
    ///
    /// `masks[i]` has bit `b` set iff lane `b` of input neuron `i`
    /// spiked this step. `uniform` is the step's single spike magnitude
    /// when the presynaptic threshold policy is uniform across neurons
    /// and lanes (fixed and phase policies) — the degenerate exponent
    /// plane, one entry per step: when `base` is also known the
    /// magnitude is re-derived through the biased-exponent
    /// representation (`pow2_exponent` verifies the round trip, so
    /// the reconstruction is bit-identical). With `uniform == None`
    /// (burst-fed stages), each event's magnitude is read straight from
    /// the staged input — bit-identical by definition.
    ///
    /// Conv/pool stages replay the same planes through the mask-driven
    /// scatter (set bits select live (pixel, lane) events directly).
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for a zero batch or one
    /// wider than the 64-bit mask plane, and
    /// [`SnnError::InputSizeMismatch`] on input/PSP/mask length
    /// mismatches.
    ///
    /// # Panics
    ///
    /// May panic if a mask has a bit `>= batch` set — planes must be
    /// built at the lockstep width they are replayed at.
    pub fn accumulate_batch_packed_planes(
        &self,
        input: &[f32],
        psp_lanes: &mut [f32],
        batch: usize,
        masks: &[u64],
        uniform: Option<f32>,
        base: Option<f32>,
    ) -> Result<(), SnnError> {
        check_plane_width(batch)?;
        // One exponent-plane decode per step, not per event: reconstruct
        // the uniform magnitude as `base · 2^k` when it sits on the
        // plane (bit-identical — pow2_exponent verified the round
        // trip), or carry it raw when it does not.
        let mag = match (uniform, base) {
            (Some(u), Some(g)) => Some(match pow2_exponent(u, g) {
                Some(e) => g * pow2_from_biased(e),
                None => u,
            }),
            (Some(u), None) => Some(u),
            (None, _) => None,
        };
        let weight = match self {
            Synapse::Dense { weight } => weight,
            Synapse::Conv { .. } | Synapse::Pool { .. } => {
                return self.packed_convpool(input, psp_lanes, batch, masks, mag);
            }
        };
        if input.len() != self.input_len() * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: self.input_len() * batch,
                actual: input.len(),
            });
        }
        if masks.len() != self.input_len() {
            return Err(SnnError::InputSizeMismatch {
                expected: self.input_len(),
                actual: masks.len(),
            });
        }
        let out = weight.shape()[1];
        if psp_lanes.len() != out * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: out * batch,
                actual: psp_lanes.len(),
            });
        }
        let w = weight.as_slice();
        let mut lane_of = [0usize; 64];
        let mut mag_of = [0.0f32; 64];
        for (i, &m) in masks.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let row = &w[i * out..(i + 1) * out];
            let mut mm = m;
            let mut cnt = 0usize;
            match mag {
                Some(u) => {
                    while mm != 0 {
                        let b = mm.trailing_zeros() as usize;
                        mm &= mm - 1;
                        lane_of[cnt] = b;
                        mag_of[cnt] = u;
                        cnt += 1;
                    }
                }
                None => {
                    while mm != 0 {
                        let b = mm.trailing_zeros() as usize;
                        mm &= mm - 1;
                        lane_of[cnt] = b;
                        mag_of[cnt] = input[i * batch + b];
                        cnt += 1;
                    }
                }
            }
            replay_packed_row(psp_lanes, row, out, &lane_of, &mag_of, cnt);
        }
        Ok(())
    }

    /// Mask-plane staging for conv/pool stages: walks the input pixels
    /// in ascending order, skips dead masks, and scatters each live
    /// (pixel, lane) event through the hoisted kernel-range loops.
    ///
    /// Per lane, the visited pixels in ascending order are exactly the
    /// lane's nonzero pixels in ascending order — the batch-1 scatter's
    /// traversal — and the inner `ky → kx (→ co)` order is unchanged,
    /// so every (lane, output) accumulator sees the batch-1 scatter's
    /// exact operation sequence and results stay bit-identical.
    ///
    /// `mag` is the step's single decoded magnitude when the
    /// presynaptic drive is uniform (`None` reads each event's
    /// magnitude off the staged input).
    fn packed_convpool(
        &self,
        input: &[f32],
        psp_lanes: &mut [f32],
        batch: usize,
        masks: &[u64],
        mag: Option<f32>,
    ) -> Result<(), SnnError> {
        debug_assert!((1..=64).contains(&batch));
        if input.len() != self.input_len() * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: self.input_len() * batch,
                actual: input.len(),
            });
        }
        if masks.len() != self.input_len() {
            return Err(SnnError::InputSizeMismatch {
                expected: self.input_len(),
                actual: masks.len(),
            });
        }
        let out_len = self.output_len();
        if psp_lanes.len() != out_len * batch {
            return Err(SnnError::InputSizeMismatch {
                expected: out_len * batch,
                actual: psp_lanes.len(),
            });
        }
        match self {
            Synapse::Conv {
                weight,
                geom,
                in_shape,
                out_shape,
            } => {
                let plan = ScatterPlan {
                    w: weight.as_slice(),
                    c_in: in_shape.c,
                    c_out: weight.shape()[0],
                    geom,
                    ih: in_shape.h,
                    iw: in_shape.w,
                    oh: out_shape.h,
                    ow: out_shape.w,
                };
                conv_scatter_masked(batch, input, psp_lanes, out_len, &plan, masks, mag);
            }
            Synapse::Pool {
                geom,
                in_shape,
                out_shape,
                scale,
            } => {
                let unit = *scale / (geom.kernel_h * geom.kernel_w) as f32;
                let plan = ScatterPlan {
                    w: std::slice::from_ref(&unit),
                    c_in: in_shape.c,
                    c_out: 1,
                    geom,
                    ih: in_shape.h,
                    iw: in_shape.w,
                    oh: out_shape.h,
                    ow: out_shape.w,
                };
                pool_scatter_masked(batch, input, psp_lanes, out_len, &plan, masks, mag);
            }
            Synapse::Dense { .. } => {
                unreachable!("dense stages use the row-replay packed kernel")
            }
        }
        Ok(())
    }
}

/// Reusable buffers of the self-packing bit-plane kernel
/// ([`Synapse::accumulate_batch_packed`]): the mask and exponent planes
/// of its pack pass. Hold one per engine — capacity is retained across
/// calls, so repeated stepping allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    /// Packed pass: per-input-neuron lane activity masks (bit `b` set
    /// iff lane `b` spiked).
    masks: Vec<u64>,
    /// Packed pass: input neurons with a nonzero mask, ascending.
    active: Vec<u32>,
    /// Packed pass: per-event biased exponents in (active neuron,
    /// set bit) order; [`RAW_EXP`] defers to the next `raws` entry.
    exps: Vec<u8>,
    /// Packed pass: magnitudes that fell off the exponent plane.
    raws: Vec<f32>,
}

impl KernelScratch {
    /// Total events of the last packed pack pass — one popcount per
    /// mask word, the bit plane's free density probe. Meaningful only
    /// directly after a successful self-packing
    /// [`Synapse::accumulate_batch_packed`] call.
    pub fn plane_events(&self) -> u64 {
        self.masks.iter().map(|m| m.count_ones() as u64).sum()
    }
}

/// Shared geometry/weight context of the conv and pool scatter kernels.
struct ScatterPlan<'a> {
    w: &'a [f32],
    c_in: usize,
    c_out: usize,
    geom: &'a Conv2dGeometry,
    ih: usize,
    iw: usize,
    oh: usize,
    ow: usize,
}

/// A batch-innermost FMA over one output's lane block. Monomorphized per
/// lane-width wrapper so the fixed widths compile to straight SIMD.
trait LaneFma {
    fn any_nonzero(lanes: &[f32]) -> bool;
    fn fma(p: &mut [f32], lanes: &[f32], w: f32);
}

/// Compile-time lane count (widths 2/4/8/16).
struct Fixed<const B: usize>;

impl<const B: usize> LaneFma for Fixed<B> {
    #[inline(always)]
    fn any_nonzero(lanes: &[f32]) -> bool {
        let lanes: &[f32; B] = lanes.try_into().expect("lane width");
        *lanes != [0.0; B]
    }

    #[inline(always)]
    fn fma(p: &mut [f32], lanes: &[f32], w: f32) {
        // The array casts pin the lane count at compile time, so the
        // quad/remainder split inside `lane_fma` resolves statically.
        let p: &mut [f32; B] = p.try_into().expect("lane width");
        let lanes: &[f32; B] = lanes.try_into().expect("lane width");
        lane_fma(p, lanes, w);
    }
}

/// Runtime lane count (any other width).
struct Dynamic;

impl LaneFma for Dynamic {
    #[inline(always)]
    fn any_nonzero(lanes: &[f32]) -> bool {
        !lanes.iter().all(|&s| s == 0.0)
    }

    #[inline(always)]
    fn fma(p: &mut [f32], lanes: &[f32], w: f32) {
        lane_fma(p, lanes, w);
    }
}

/// The conv scatter kernel for width 1, width 2 and runtime widths
/// (4, 8 and 16 run [`conv_gather`]). At width 1 it is the scalar
/// engine's kernel, so it is the reference the lockstep kernels are
/// checked against. For every input pixel with at least one live lane,
/// it accumulates `s·w` into every output the pixel feeds. The valid
/// `(ky → oy, kx → ox)` kernel ranges are hoisted out of the inner
/// loops (see [`valid_kernel_range`]); the innermost loop is the
/// contiguous lane axis.
///
/// Kept out of line: inlined into [`Synapse::accumulate_batch`], the
/// width-1 scatter ran up to 1.5× slower on a 2-vCPU x86-64 host.
#[inline(never)]
fn conv_scatter<L: LaneFma>(batch: usize, input: &[f32], psp: &mut [f32], plan: &ScatterPlan<'_>) {
    let (kh, kw) = (plan.geom.kernel_h, plan.geom.kernel_w);
    let (stride_h, stride_w) = (plan.geom.stride_h.max(1), plan.geom.stride_w.max(1));
    let (pad_h, pad_w) = (plan.geom.pad_h, plan.geom.pad_w);
    let (ih, iw, oh, ow) = (plan.ih, plan.iw, plan.oh, plan.ow);
    for ci in 0..plan.c_in {
        for iy in 0..ih {
            // Valid `ky → oy` pairs depend only on the row.
            let Some((ky_first, ky_last)) = valid_kernel_range(iy, pad_h, stride_h, kh, oh) else {
                continue;
            };
            for ix in 0..iw {
                let base = ((ci * ih + iy) * iw + ix) * batch;
                let lanes = &input[base..base + batch];
                if !L::any_nonzero(lanes) {
                    continue;
                }
                let Some((kx_first, kx_last)) = valid_kernel_range(ix, pad_w, stride_w, kw, ow)
                else {
                    continue;
                };
                for ky in (ky_first..=ky_last).step_by(stride_h) {
                    let oy = (iy + pad_h - ky) / stride_h;
                    for kx in (kx_first..=kx_last).step_by(stride_w) {
                        let ox = (ix + pad_w - kx) / stride_w;
                        for co in 0..plan.c_out {
                            let wv = plan.w[((co * plan.c_in + ci) * kh + ky) * kw + kx];
                            let o = ((co * oh + oy) * ow + ox) * batch;
                            L::fma(&mut psp[o..o + batch], lanes, wv);
                        }
                    }
                }
            }
        }
    }
}

/// The taps `k in first..end` of one output coordinate `o` that land
/// inside the input, `o·stride + k − pad ∈ 0..in_len`, and the input
/// coordinate of `first` (out of range when the range is empty).
#[inline(always)]
fn gather_tap_range(
    o: usize,
    stride: usize,
    pad: usize,
    kernel: usize,
    in_len: usize,
) -> (usize, usize, usize) {
    let Some(start) = o.checked_mul(stride) else {
        return (0, 0, 0);
    };
    let first = pad.saturating_sub(start);
    let end = in_len.saturating_add(pad).saturating_sub(start).min(kernel);
    (first, end.max(first), start + first - pad)
}

/// The output-stationary conv kernel for lockstep widths `4·Q` = 4, 8
/// and 16. For each block of `CB` output channels (8, 4 or 2, so the
/// `CB·Q = 8` accumulators and the input quads fill the 16 SSE
/// registers) and each output pixel, it loads the pixel's PSP lane
/// blocks into registers once, adds `lanes × w` over the taps
/// `(ci, ky, kx)` in ascending order — each input lane block loaded
/// once per tap and fed to the whole channel block — and stores the
/// block once. Output channels past the last full block run one at a
/// time.
///
/// Ascending `(ci, ky, kx)` is ascending input pixel, so every output's
/// terms arrive in [`conv_scatter`]'s order, each rounded by a separate
/// multiply and add. Unlike the scatter, no pixel is skipped for having
/// all lanes zero: a dead pixel adds exact `±0.0` terms, which change
/// no accumulator that is not `−0.0` (the condition under which this
/// matches the scalar engine is spelled out on
/// [`Synapse::accumulate_batch`]). A zero test per pixel cost more
/// than the terms it saves at these widths.
///
/// # Panics
///
/// When `input`, `psp` or the weights are shorter than the plan's
/// shapes say. The `unsafe` indexing below rests on these checks.
fn conv_gather<const Q: usize, const CB: usize>(
    input: &[f32],
    psp: &mut [f32],
    plan: &ScatterPlan<'_>,
) {
    let lanes = 4 * Q;
    let (kh, kw) = (plan.geom.kernel_h, plan.geom.kernel_w);
    let fits = |dims: [usize; 4], len: usize| {
        dims.iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .is_some_and(|n| n <= len)
    };
    assert!(
        fits([plan.c_in, plan.ih, plan.iw, lanes], input.len()),
        "conv input shorter than its shape"
    );
    assert!(
        fits([plan.c_out, plan.oh, plan.ow, lanes], psp.len()),
        "conv PSP shorter than its shape"
    );
    assert!(
        fits([plan.c_out, plan.c_in, kh, kw], plan.w.len()),
        "conv weights shorter than their shape"
    );
    // With no output channel the asserts leave `c_in·kh·kw` and
    // `oh·ow·4Q` unchecked, and there is nothing to do.
    if plan.c_out == 0 {
        return;
    }
    let full = plan.c_out - plan.c_out % CB;
    // SAFETY: the asserts above bound all three buffers by the plan's
    // shapes without overflow, and both channel ranges lie in
    // `0..c_out` with lengths divisible by their block sizes.
    unsafe {
        gather_channels::<Q, CB>(input, psp, plan, 0..full);
        gather_channels::<Q, 1>(input, psp, plan, full..plan.c_out);
    }
}

/// [`conv_gather`]'s loop nest over the output channels `channels`, in
/// blocks of `CB`.
///
/// # Safety
///
/// `input`, `psp` and `plan.w` must hold at least `c_in·ih·iw·4Q`,
/// `c_out·oh·ow·4Q` and `c_out·c_in·kh·kw` floats, and `channels` must
/// lie inside `0..c_out` with a length divisible by `CB`.
#[inline(always)]
unsafe fn gather_channels<const Q: usize, const CB: usize>(
    input: &[f32],
    psp: &mut [f32],
    plan: &ScatterPlan<'_>,
    channels: std::ops::Range<usize>,
) {
    let lanes = 4 * Q;
    let (kh, kw) = (plan.geom.kernel_h, plan.geom.kernel_w);
    let (stride_h, stride_w) = (plan.geom.stride_h.max(1), plan.geom.stride_w.max(1));
    let (pad_h, pad_w) = (plan.geom.pad_h, plan.geom.pad_w);
    let (c_in, ih, iw, oh, ow) = (plan.c_in, plan.ih, plan.iw, plan.oh, plan.ow);
    let taps = c_in * kh * kw;
    let plane = oh * ow * lanes;
    let (x_ptr, p_ptr, w_ptr) = (input.as_ptr(), psp.as_mut_ptr(), plan.w.as_ptr());
    for co0 in channels.step_by(CB) {
        // Tap `t` of channel `co0 + c` is at `w_blk + c·taps + t`.
        let w_blk = w_ptr.add(co0 * taps);
        for oy in 0..oh {
            let (ky0, ky1, iy0) = gather_tap_range(oy, stride_h, pad_h, kh, ih);
            if ky0 == ky1 {
                continue;
            }
            for ox in 0..ow {
                let (kx0, kx1, ix0) = gather_tap_range(ox, stride_w, pad_w, kw, iw);
                if kx0 == kx1 {
                    continue;
                }
                // SAFETY (every pointer below): `co0 + c < c_out`,
                // `oy < oh` and `ox < ow` keep the PSP quads inside
                // `c_out·oh·ow·4Q`; the tap ranges keep `iy < ih` and
                // `ix < iw`, so the input quads stay inside
                // `c_in·ih·iw·4Q`; and `ky < kh`, `kx < kw` keep the
                // weights inside `c_out·c_in·kh·kw`.
                let p_px = p_ptr.add(((co0 * oh + oy) * ow + ox) * lanes);
                let mut acc: [[Quad; Q]; CB] = std::array::from_fn(|c| {
                    std::array::from_fn(|q| Quad::load(p_px.add(c * plane + 4 * q)))
                });
                for ci in 0..c_in {
                    for ky in ky0..ky1 {
                        let iy = iy0 + (ky - ky0);
                        let x_row = x_ptr.add(((ci * ih + iy) * iw + ix0) * lanes);
                        let w_row = w_blk.add((ci * kh + ky) * kw);
                        for kx in kx0..kx1 {
                            let x_px = x_row.add((kx - kx0) * lanes);
                            let x: [Quad; Q] = std::array::from_fn(|q| Quad::load(x_px.add(4 * q)));
                            for (c, acc) in acc.iter_mut().enumerate() {
                                let wv = Quad::splat(*w_row.add(c * taps + kx));
                                for (a, &xq) in acc.iter_mut().zip(&x) {
                                    *a = a.mul_add(xq, wv);
                                }
                            }
                        }
                    }
                }
                for (c, acc) in acc.iter().enumerate() {
                    for (q, a) in acc.iter().enumerate() {
                        a.store(p_px.add(c * plane + 4 * q));
                    }
                }
            }
        }
    }
}

/// The pool scatter kernel: identical traversal to [`conv_scatter`] but
/// depthwise (`c_out = 1` per input channel) with one uniform weight
/// (`scale / (kh·kw)`, precomputed once in `plan.w[0]`). Kept out of
/// line for the same reason as [`conv_scatter`].
#[inline(never)]
fn pool_scatter<L: LaneFma>(batch: usize, input: &[f32], psp: &mut [f32], plan: &ScatterPlan<'_>) {
    let (kh, kw) = (plan.geom.kernel_h, plan.geom.kernel_w);
    let (stride_h, stride_w) = (plan.geom.stride_h.max(1), plan.geom.stride_w.max(1));
    let (pad_h, pad_w) = (plan.geom.pad_h, plan.geom.pad_w);
    let (ih, iw, oh, ow) = (plan.ih, plan.iw, plan.oh, plan.ow);
    let unit = plan.w[0];
    for ci in 0..plan.c_in {
        for iy in 0..ih {
            let Some((ky_first, ky_last)) = valid_kernel_range(iy, pad_h, stride_h, kh, oh) else {
                continue;
            };
            for ix in 0..iw {
                let base = ((ci * ih + iy) * iw + ix) * batch;
                let lanes = &input[base..base + batch];
                if !L::any_nonzero(lanes) {
                    continue;
                }
                let Some((kx_first, kx_last)) = valid_kernel_range(ix, pad_w, stride_w, kw, ow)
                else {
                    continue;
                };
                for ky in (ky_first..=ky_last).step_by(stride_h) {
                    let oy = (iy + pad_h - ky) / stride_h;
                    for kx in (kx_first..=kx_last).step_by(stride_w) {
                        let ox = (ix + pad_w - kx) / stride_w;
                        let o = ((ci * oh + oy) * ow + ox) * batch;
                        L::fma(&mut psp[o..o + batch], lanes, unit);
                    }
                }
            }
        }
    }
}

/// Decode one pixel's mask into `(lane, magnitude)` event arrays: set
/// bits in ascending lane order, magnitudes either the step's uniform
/// decode or read off the staged SoA input.
#[inline(always)]
fn decode_mask_events(
    input: &[f32],
    batch: usize,
    i: usize,
    mut mm: u64,
    mag: Option<f32>,
    lane_of: &mut [usize; 64],
    mag_of: &mut [f32; 64],
) -> usize {
    let mut cnt = 0usize;
    match mag {
        Some(u) => {
            while mm != 0 {
                let b = mm.trailing_zeros() as usize;
                mm &= mm - 1;
                lane_of[cnt] = b;
                mag_of[cnt] = u;
                cnt += 1;
            }
        }
        None => {
            while mm != 0 {
                let b = mm.trailing_zeros() as usize;
                mm &= mm - 1;
                lane_of[cnt] = b;
                mag_of[cnt] = input[i * batch + b];
                cnt += 1;
            }
        }
    }
    cnt
}

/// Mask-driven sibling of [`conv_scatter`]: events come off the bit
/// plane, and `psp_lanes` is lane-major. The kernel weight is loaded
/// once per window position and scattered to every live lane; per
/// (lane, output) accumulator the contribution order equals the batch-1
/// scatter's (ascending pixel, then `ky → kx → co`), so results are
/// bit-identical to it.
fn conv_scatter_masked(
    batch: usize,
    input: &[f32],
    psp_lanes: &mut [f32],
    out_len: usize,
    plan: &ScatterPlan<'_>,
    masks: &[u64],
    mag: Option<f32>,
) {
    let (kh, kw) = (plan.geom.kernel_h, plan.geom.kernel_w);
    let (stride_h, stride_w) = (plan.geom.stride_h.max(1), plan.geom.stride_w.max(1));
    let (pad_h, pad_w) = (plan.geom.pad_h, plan.geom.pad_w);
    let (ih, iw, oh, ow) = (plan.ih, plan.iw, plan.oh, plan.ow);
    let mut lane_of = [0usize; 64];
    let mut mag_of = [0.0f32; 64];
    for ci in 0..plan.c_in {
        for iy in 0..ih {
            let Some((ky_first, ky_last)) = valid_kernel_range(iy, pad_h, stride_h, kh, oh) else {
                continue;
            };
            for ix in 0..iw {
                let i = (ci * ih + iy) * iw + ix;
                let m = masks[i];
                if m == 0 {
                    continue;
                }
                let Some((kx_first, kx_last)) = valid_kernel_range(ix, pad_w, stride_w, kw, ow)
                else {
                    continue;
                };
                let cnt = decode_mask_events(input, batch, i, m, mag, &mut lane_of, &mut mag_of);
                for ky in (ky_first..=ky_last).step_by(stride_h) {
                    let oy = (iy + pad_h - ky) / stride_h;
                    for kx in (kx_first..=kx_last).step_by(stride_w) {
                        let ox = (ix + pad_w - kx) / stride_w;
                        for co in 0..plan.c_out {
                            let wv = plan.w[((co * plan.c_in + ci) * kh + ky) * kw + kx];
                            let o = (co * oh + oy) * ow + ox;
                            for (&b, &s) in lane_of[..cnt].iter().zip(&mag_of[..cnt]) {
                                psp_lanes[b * out_len + o] += s * wv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Mask-driven sibling of [`pool_scatter`]: depthwise traversal with the
/// precomputed unit weight, events off the bit plane, lane-major PSP.
fn pool_scatter_masked(
    batch: usize,
    input: &[f32],
    psp_lanes: &mut [f32],
    out_len: usize,
    plan: &ScatterPlan<'_>,
    masks: &[u64],
    mag: Option<f32>,
) {
    let (kh, kw) = (plan.geom.kernel_h, plan.geom.kernel_w);
    let (stride_h, stride_w) = (plan.geom.stride_h.max(1), plan.geom.stride_w.max(1));
    let (pad_h, pad_w) = (plan.geom.pad_h, plan.geom.pad_w);
    let (ih, iw, oh, ow) = (plan.ih, plan.iw, plan.oh, plan.ow);
    let unit = plan.w[0];
    let mut lane_of = [0usize; 64];
    let mut mag_of = [0.0f32; 64];
    for ci in 0..plan.c_in {
        for iy in 0..ih {
            let Some((ky_first, ky_last)) = valid_kernel_range(iy, pad_h, stride_h, kh, oh) else {
                continue;
            };
            for ix in 0..iw {
                let i = (ci * ih + iy) * iw + ix;
                let m = masks[i];
                if m == 0 {
                    continue;
                }
                let Some((kx_first, kx_last)) = valid_kernel_range(ix, pad_w, stride_w, kw, ow)
                else {
                    continue;
                };
                let cnt = decode_mask_events(input, batch, i, m, mag, &mut lane_of, &mut mag_of);
                for ky in (ky_first..=ky_last).step_by(stride_h) {
                    let oy = (iy + pad_h - ky) / stride_h;
                    for kx in (kx_first..=kx_last).step_by(stride_w) {
                        let ox = (ix + pad_w - kx) / stride_w;
                        let o = (ci * oh + oy) * ow + ox;
                        for (&b, &s) in lane_of[..cnt].iter().zip(&mag_of[..cnt]) {
                            psp_lanes[b * out_len + o] += s * unit;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsnn_tensor::conv::conv2d;
    use bsnn_tensor::init::uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_matches_matvec() {
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let syn = Synapse::Dense { weight };
        let mut psp = vec![0.0; 3];
        syn.accumulate(&[1.0, 0.5], &mut psp).unwrap();
        // x^T W = [1*1+0.5*4, 1*2+0.5*5, 1*3+0.5*6]
        assert_eq!(psp, vec![3.0, 4.5, 6.0]);
    }

    #[test]
    fn dense_skips_zero_inputs() {
        let weight = Tensor::from_vec(vec![f32::NAN, 1.0], &[2, 1]).unwrap();
        let syn = Synapse::Dense { weight };
        let mut psp = vec![0.0; 1];
        // zero magnitude on the NaN row must not pollute the PSP
        syn.accumulate(&[0.0, 2.0], &mut psp).unwrap();
        assert_eq!(psp, vec![2.0]);
    }

    #[test]
    fn conv_scatter_matches_dense_conv2d() {
        let mut rng = StdRng::seed_from_u64(3);
        let geom = Conv2dGeometry::square(3, 1, 1);
        let weight = uniform(&mut rng, &[4, 2, 3, 3], -1.0, 1.0);
        let input = uniform(&mut rng, &[1, 2, 5, 5], 0.0, 1.0);
        let reference = conv2d(&input, &weight, None, &geom).unwrap();

        let syn = Synapse::Conv {
            weight,
            geom,
            in_shape: Chw::new(2, 5, 5),
            out_shape: Chw::new(4, 5, 5),
        };
        let mut psp = vec![0.0f32; 4 * 5 * 5];
        syn.accumulate(input.as_slice(), &mut psp).unwrap();
        for (a, b) in psp.iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_scatter_matches_dense_conv2d_stride2() {
        let mut rng = StdRng::seed_from_u64(5);
        let geom = Conv2dGeometry::square(2, 2, 0);
        let weight = uniform(&mut rng, &[3, 1, 2, 2], -1.0, 1.0);
        let input = uniform(&mut rng, &[1, 1, 6, 6], 0.0, 1.0);
        let reference = conv2d(&input, &weight, None, &geom).unwrap();

        let syn = Synapse::Conv {
            weight,
            geom,
            in_shape: Chw::new(1, 6, 6),
            out_shape: Chw::new(3, 3, 3),
        };
        let mut psp = vec![0.0f32; 3 * 3 * 3];
        syn.accumulate(input.as_slice(), &mut psp).unwrap();
        for (a, b) in psp.iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn pool_averages_windows() {
        let geom = Conv2dGeometry::square(2, 2, 0);
        let syn = Synapse::Pool {
            geom,
            in_shape: Chw::new(1, 2, 2),
            out_shape: Chw::new(1, 1, 1),
            scale: 1.0,
        };
        let mut psp = vec![0.0f32; 1];
        syn.accumulate(&[1.0, 2.0, 3.0, 4.0], &mut psp).unwrap();
        assert!((psp[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn pool_scale_multiplies() {
        let geom = Conv2dGeometry::square(2, 2, 0);
        let syn = Synapse::Pool {
            geom,
            in_shape: Chw::new(1, 2, 2),
            out_shape: Chw::new(1, 1, 1),
            scale: 2.0,
        };
        let mut psp = vec![0.0f32; 1];
        syn.accumulate(&[1.0, 1.0, 1.0, 1.0], &mut psp).unwrap();
        assert!((psp[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn accumulate_is_additive() {
        let weight = Tensor::from_vec(vec![1.0, 1.0], &[2, 1]).unwrap();
        let syn = Synapse::Dense { weight };
        let mut psp = vec![5.0f32];
        syn.accumulate(&[1.0, 1.0], &mut psp).unwrap();
        assert_eq!(psp, vec![7.0]);
    }

    #[test]
    fn rejects_wrong_lengths() {
        let weight = Tensor::zeros(&[2, 3]);
        let syn = Synapse::Dense { weight };
        let mut psp = vec![0.0f32; 3];
        assert!(syn.accumulate(&[0.0; 3], &mut psp).is_err());
        let mut short = vec![0.0f32; 2];
        assert!(syn.accumulate(&[0.0; 2], &mut short).is_err());
    }

    #[test]
    fn lens_report_shapes() {
        let syn = Synapse::Dense {
            weight: Tensor::zeros(&[4, 7]),
        };
        assert_eq!(syn.input_len(), 4);
        assert_eq!(syn.output_len(), 7);
    }

    #[test]
    fn valid_kernel_range_enumerates_seed_checks() {
        // Exhaustive cross-check against the seed's per-(i, k) predicate.
        for kernel in 1..=4usize {
            for stride in 1..=3usize {
                for pad in 0..=2usize {
                    for out_len in 1..=6usize {
                        for i in 0..8usize {
                            let brute: Vec<usize> = (0..kernel)
                                .filter(|&k| {
                                    let num = i + pad;
                                    num >= k
                                        && (num - k) % stride == 0
                                        && (num - k) / stride < out_len
                                })
                                .collect();
                            let hoisted: Vec<usize> =
                                match valid_kernel_range(i, pad, stride, kernel, out_len) {
                                    None => vec![],
                                    Some((first, last)) => (first..=last).step_by(stride).collect(),
                                };
                            assert_eq!(
                                brute, hoisted,
                                "i={i} pad={pad} stride={stride} kernel={kernel} out={out_len}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Interleaves per-image buffers into the batch-innermost SoA layout.
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

    fn batch_matches_scalar(syn: &Synapse, inputs: &[Vec<f32>]) {
        let start = vec![vec![0.0f32; syn.output_len()]; inputs.len()];
        batch_matches_scalar_from(syn, inputs, &start);
    }

    /// Lane `b` of a lockstep pass from PSP `start[b]` must equal, bit
    /// for bit, a scalar pass from the same PSP.
    fn batch_matches_scalar_from(syn: &Synapse, inputs: &[Vec<f32>], start: &[Vec<f32>]) {
        let batch = inputs.len();
        let out = syn.output_len();
        let soa = to_soa(inputs);
        let mut psp_batch = to_soa(start);
        syn.accumulate_batch(&soa, &mut psp_batch, batch).unwrap();
        for (b, input) in inputs.iter().enumerate() {
            let mut psp = start[b].clone();
            syn.accumulate(input, &mut psp).unwrap();
            for j in 0..out {
                assert_eq!(
                    psp[j].to_bits(),
                    psp_batch[j * batch + b].to_bits(),
                    "width {batch} lane {b} neuron {j} diverged: {} vs {}",
                    psp[j],
                    psp_batch[j * batch + b]
                );
            }
        }
    }

    #[test]
    fn dense_batch_lanes_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let weight = uniform(&mut rng, &[6, 4], -1.0, 1.0);
        let syn = Synapse::Dense { weight };
        // Mixed sparsity: some lanes zero where others spike.
        let inputs = vec![
            vec![0.5, 0.0, 1.0, 0.0, 0.25, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0, 0.5, 0.0, 0.125],
        ];
        batch_matches_scalar(&syn, &inputs);
    }

    #[test]
    fn conv_batch_lanes_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        // Asymmetric kernel, stride and pad (as in
        // `conv_restructured_matches_dense_conv2d_odd_geometry`).
        let odd = Conv2dGeometry {
            kernel_h: 3,
            kernel_w: 2,
            stride_h: 2,
            stride_w: 1,
            pad_h: 1,
            pad_w: 0,
        };
        // `c_out` 5 leaves a tail after every channel block (8, 4, 2).
        for (geom, in_shape, c_out) in [
            (Conv2dGeometry::square(3, 1, 1), Chw::new(2, 5, 5), 3),
            (Conv2dGeometry::square(2, 2, 0), Chw::new(1, 6, 6), 2),
            (Conv2dGeometry::square(3, 2, 1), Chw::new(1, 5, 5), 2),
            (odd, Chw::new(2, 7, 5), 5),
            (Conv2dGeometry::square(3, 1, 2), Chw::new(3, 4, 6), 5),
        ] {
            let (oh, ow) = geom.output_hw(in_shape.h, in_shape.w).unwrap();
            let out_shape = Chw::new(c_out, oh, ow);
            let weight = uniform(
                &mut rng,
                &[out_shape.c, in_shape.c, geom.kernel_h, geom.kernel_w],
                -1.0,
                1.0,
            );
            let syn = Synapse::Conv {
                weight,
                geom,
                in_shape,
                out_shape,
            };
            for batch in [2usize, 3, 4, 8, 16] {
                // Lane 1 is silent throughout; the rest are ~40% zero.
                let inputs: Vec<Vec<f32>> = (0..batch)
                    .map(|b| {
                        uniform(&mut rng, &[in_shape.volume()], 0.0, 1.0)
                            .as_slice()
                            .iter()
                            .map(|&v| if b == 1 || v < 0.4 { 0.0 } else { v })
                            .collect()
                    })
                    .collect();
                // Lane 0 starts from +0.0, the others from nonzero PSPs.
                let start: Vec<Vec<f32>> = (0..batch)
                    .map(|b| {
                        let p = uniform(&mut rng, &[out_shape.volume()], -1.0, 1.0);
                        let p = p.as_slice().iter();
                        p.map(|&v| if b == 0 { 0.0 } else { v }).collect()
                    })
                    .collect();
                batch_matches_scalar_from(&syn, &inputs, &start);
            }
        }
    }

    #[test]
    fn pool_batch_lanes_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let geom = Conv2dGeometry::square(2, 2, 0);
        let syn = Synapse::Pool {
            geom,
            in_shape: Chw::new(2, 4, 4),
            out_shape: Chw::new(2, 2, 2),
            scale: 1.7,
        };
        let inputs: Vec<Vec<f32>> = (0..2)
            .map(|_| uniform(&mut rng, &[32], 0.0, 1.0).as_slice().to_vec())
            .collect();
        batch_matches_scalar(&syn, &inputs);
    }

    /// Images at a given per-pixel density, including fully silent lanes.
    fn sparse_inputs(rng: &mut StdRng, batch: usize, len: usize, density: f32) -> Vec<Vec<f32>> {
        use rand::Rng;
        (0..batch)
            .map(|b| {
                (0..len)
                    .map(|_| {
                        if b == 0 || rng.gen_range(0.0..1.0f32) >= density {
                            0.0 // lane 0 stays fully silent
                        } else {
                            rng.gen_range(0.01..1.0f32)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn blocked_dense_matches_unblocked_reference_bitwise() {
        // `out × batch` beyond DENSE_PSP_BLOCK forces multiple PSP
        // blocks for scalar, fixed, and dynamic widths; the reference is
        // the naive single-pass loop.
        let mut rng = StdRng::seed_from_u64(31);
        let (inn, out) = (6usize, 2600usize);
        let weight = uniform(&mut rng, &[inn, out], -1.0, 1.0);
        let w = weight.as_slice().to_vec();
        let syn = Synapse::Dense { weight };
        for batch in [1usize, 2, 4, 5, 16] {
            let inputs = sparse_inputs(&mut rng, batch, inn, 0.7);
            let soa = to_soa(&inputs);
            let mut psp = vec![0.0f32; out * batch];
            syn.accumulate_batch(&soa, &mut psp, batch).unwrap();
            let mut reference = vec![0.0f32; out * batch];
            for (i, lanes) in soa.chunks_exact(batch).enumerate() {
                if lanes.iter().all(|&s| s == 0.0) {
                    continue;
                }
                for j in 0..out {
                    for (b, &s) in lanes.iter().enumerate() {
                        reference[j * batch + b] += s * w[i * out + j];
                    }
                }
            }
            for (a, b) in psp.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "batch {batch}");
            }
        }
    }

    #[test]
    fn accumulate_batch_rejects_bad_shapes() {
        let syn = Synapse::Dense {
            weight: Tensor::zeros(&[2, 3]),
        };
        let mut psp = vec![0.0f32; 6];
        assert!(syn.accumulate_batch(&[0.0; 4], &mut psp, 0).is_err());
        assert!(syn.accumulate_batch(&[0.0; 3], &mut psp, 2).is_err());
        let mut short = vec![0.0f32; 5];
        assert!(syn.accumulate_batch(&[0.0; 4], &mut short, 2).is_err());
        assert!(syn.accumulate_batch(&[0.0; 4], &mut psp, 2).is_ok());
    }

    #[test]
    fn conv_restructured_matches_dense_conv2d_odd_geometry() {
        // Asymmetric stride/pad exercise the hoisted range computation.
        let mut rng = StdRng::seed_from_u64(23);
        let geom = Conv2dGeometry {
            kernel_h: 3,
            kernel_w: 2,
            stride_h: 2,
            stride_w: 1,
            pad_h: 1,
            pad_w: 0,
        };
        let (oh, ow) = geom.output_hw(7, 5).unwrap();
        let weight = uniform(&mut rng, &[2, 1, 3, 2], -1.0, 1.0);
        let input = uniform(&mut rng, &[1, 1, 7, 5], 0.0, 1.0);
        let reference = conv2d(&input, &weight, None, &geom).unwrap();
        let syn = Synapse::Conv {
            weight,
            geom,
            in_shape: Chw::new(1, 7, 5),
            out_shape: Chw::new(2, oh, ow),
        };
        let mut psp = vec![0.0f32; 2 * oh * ow];
        syn.accumulate(input.as_slice(), &mut psp).unwrap();
        for (a, b) in psp.iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// The packed bit-plane strategy (lane-major) and the dense lockstep
    /// strategy (batch-innermost) must agree bitwise, lane for lane,
    /// with the scalar path — packed with any `base` hint (right,
    /// wrong, or absent).
    fn packed_matches_scalar(syn: &Synapse, inputs: &[Vec<f32>], base: Option<f32>) {
        let batch = inputs.len();
        let out = syn.output_len();
        let soa = to_soa(inputs);
        let mut psp_dense = vec![0.0f32; out * batch];
        syn.accumulate_batch(&soa, &mut psp_dense, batch).unwrap();
        let mut psp_packed = vec![0.0f32; out * batch];
        let mut scratch = KernelScratch::default();
        syn.accumulate_batch_packed(&soa, &mut psp_packed, batch, base, &mut scratch)
            .unwrap();
        for (b, input) in inputs.iter().enumerate() {
            let mut psp = vec![0.0f32; out];
            syn.accumulate(input, &mut psp).unwrap();
            for j in 0..out {
                assert_eq!(
                    psp[j].to_bits(),
                    psp_packed[b * out + j].to_bits(),
                    "packed lane {b} neuron {j} diverged from scalar (base {base:?})"
                );
                assert_eq!(
                    psp[j].to_bits(),
                    psp_dense[j * batch + b].to_bits(),
                    "dense lane {b} neuron {j} diverged from scalar"
                );
            }
        }
    }

    #[test]
    fn packed_strategy_matches_scalar_bitwise_across_densities() {
        let mut rng = StdRng::seed_from_u64(37);
        let dense_syn = Synapse::Dense {
            weight: uniform(&mut rng, &[24, 9], -1.0, 1.0),
        };
        let conv_syn = Synapse::Conv {
            weight: uniform(&mut rng, &[3, 2, 3, 3], -1.0, 1.0),
            geom: Conv2dGeometry::square(3, 1, 1),
            in_shape: Chw::new(2, 4, 4),
            out_shape: Chw::new(3, 4, 4),
        };
        let pool_syn = Synapse::Pool {
            geom: Conv2dGeometry::square(2, 2, 0),
            in_shape: Chw::new(2, 4, 4),
            out_shape: Chw::new(2, 2, 2),
            scale: 1.3,
        };
        // Arbitrary float magnitudes: every event takes the raw side
        // channel under any base, including a base the magnitudes do
        // not match (the bit-exact round-trip check must reject it).
        for density in [0.0, 0.1, 0.5, 1.0] {
            for batch in [1usize, 3, 4, 5, 16] {
                for base in [None, Some(1.7)] {
                    let inputs = sparse_inputs(&mut rng, batch, 24, density);
                    packed_matches_scalar(&dense_syn, &inputs, base);
                    let inputs = sparse_inputs(&mut rng, batch, 32, density);
                    packed_matches_scalar(&conv_syn, &inputs, base);
                    let inputs = sparse_inputs(&mut rng, batch, 32, density);
                    packed_matches_scalar(&pool_syn, &inputs, base);
                }
            }
        }
    }

    #[test]
    fn packed_exponent_plane_carries_pow2_magnitudes() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        let weight = uniform(&mut rng, &[24, 9], -1.0, 1.0);
        let syn = Synapse::Dense { weight };
        // Phase/burst-shaped magnitudes: base · 2^k, k ∈ [−8, 8].
        for base in [1.0f32, 0.5, 1.7, 0.125] {
            let batch = 16usize;
            let inputs: Vec<Vec<f32>> = (0..batch)
                .map(|_| {
                    (0..24)
                        .map(|_| {
                            if rng.gen_range(0.0..1.0f32) < 0.3 {
                                base * 2.0f32.powi(rng.gen_range(-8..=8))
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            packed_matches_scalar(&syn, &inputs, Some(base));
            // Every event must have landed on the exponent plane — the
            // raw side channel stays empty.
            let soa = to_soa(&inputs);
            let mut psp = vec![0.0f32; 9 * batch];
            let mut scratch = KernelScratch::default();
            syn.accumulate_batch_packed(&soa, &mut psp, batch, Some(base), &mut scratch)
                .unwrap();
            assert!(
                scratch.raws.is_empty(),
                "pow2 magnitudes fell off the exponent plane (base {base})"
            );
            let events = soa.iter().filter(|&&v| v != 0.0).count() as u64;
            assert_eq!(
                scratch.plane_events(),
                events,
                "popcount probe (base {base})"
            );
        }
    }

    /// The plane-fed replay must agree bitwise with the scalar path
    /// when handed externally built masks, with or without a uniform
    /// magnitude and with any base hint.
    fn packed_planes_match_scalar(
        syn: &Synapse,
        inputs: &[Vec<f32>],
        uniform: Option<f32>,
        base: Option<f32>,
    ) {
        let batch = inputs.len();
        let out = syn.output_len();
        let soa = to_soa(inputs);
        let masks: Vec<u64> = soa
            .chunks_exact(batch)
            .map(|lanes| {
                lanes
                    .iter()
                    .enumerate()
                    .fold(0u64, |m, (b, &s)| m | ((s != 0.0) as u64) << b)
            })
            .collect();
        let mut psp_packed = vec![0.0f32; out * batch];
        syn.accumulate_batch_packed_planes(&soa, &mut psp_packed, batch, &masks, uniform, base)
            .unwrap();
        for (b, input) in inputs.iter().enumerate() {
            let mut psp = vec![0.0f32; out];
            syn.accumulate(input, &mut psp).unwrap();
            for j in 0..out {
                assert_eq!(
                    psp[j].to_bits(),
                    psp_packed[b * out + j].to_bits(),
                    "plane replay lane {b} neuron {j} diverged (uniform {uniform:?} base {base:?})"
                );
            }
        }
    }

    #[test]
    fn packed_plane_replay_matches_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        let syn = Synapse::Dense {
            weight: uniform(&mut rng, &[24, 9], -1.0, 1.0),
        };
        // Burst-shaped traffic: per-event raw magnitudes read straight
        // off the staged input (no uniform magnitude). Batch sizes
        // cover the quad-blocked replay, its tail, and both together.
        for density in [0.0, 0.1, 0.5, 1.0] {
            for batch in [1usize, 3, 4, 5, 16, 64] {
                let inputs = sparse_inputs(&mut rng, batch, 24, density);
                packed_planes_match_scalar(&syn, &inputs, None, None);
                packed_planes_match_scalar(&syn, &inputs, None, Some(0.4));
            }
        }
        // Phase-shaped traffic: one magnitude per step, riding the
        // one-entry exponent plane (base known) or carried raw (base
        // absent or mismatched — the round-trip check must reject it).
        for th in [0.4f32, 0.4 * 0.5, 0.4 * 0.0625] {
            let inputs: Vec<Vec<f32>> = (0..16)
                .map(|l| {
                    (0..24)
                        .map(|i| if (i + l) % 3 == 0 { th } else { 0.0 })
                        .collect()
                })
                .collect();
            packed_planes_match_scalar(&syn, &inputs, Some(th), Some(0.4));
            packed_planes_match_scalar(&syn, &inputs, Some(th), Some(1.7));
            packed_planes_match_scalar(&syn, &inputs, Some(th), None);
        }
        // Mask-length mismatch is a typed error, not a bad replay.
        let mut psp = vec![0.0f32; 9];
        let err = syn
            .accumulate_batch_packed_planes(&[0.0; 24], &mut psp, 1, &[0u64; 7], None, None)
            .unwrap_err();
        assert!(matches!(err, SnnError::InputSizeMismatch { .. }));
    }

    #[test]
    fn pow2_exponent_reconstruction_is_bit_identical() {
        // Exactly representable products round-trip with the right
        // biased exponent; the reconstruction is bit-identical to the
        // float multiply by construction of the check.
        for base in [1.0f32, 0.5, 1.7, 0.3, 0.125] {
            for k in -40..=40i32 {
                let v = base * 2.0f32.powi(k);
                let e = pow2_exponent(v, base).expect("normal-range pow2 product");
                assert_eq!(e as i32, k + 127);
                assert_eq!((base * pow2_from_biased(e)).to_bits(), v.to_bits());
            }
        }
        // Soundness under fuzz: whenever Some, reconstruction is exact.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..10_000 {
            let v = f32::from_bits(rng.gen::<u32>());
            let base = f32::from_bits(rng.gen::<u32>());
            if let Some(e) = pow2_exponent(v, base) {
                assert_ne!(e, RAW_EXP);
                assert_eq!((base * pow2_from_biased(e)).to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn pow2_exponent_rejects_zero_subnormal_and_overflow_edges() {
        // Zero magnitude, zero base, sign flips, non-finite quotients.
        assert_eq!(pow2_exponent(0.0, 1.0), None);
        assert_eq!(pow2_exponent(1.0, 0.0), None);
        assert_eq!(pow2_exponent(-2.0, 1.0), None);
        assert_eq!(pow2_exponent(2.0, -1.0), None);
        assert_eq!(pow2_exponent(f32::NAN, 1.0), None);
        assert_eq!(pow2_exponent(f32::INFINITY, 1.0), None);
        // Subnormal magnitude whose quotient is itself subnormal.
        let tiny = f32::from_bits(3); // 3 · 2^−149
        assert_eq!(pow2_exponent(tiny, 3.0), None);
        // Subnormal magnitude with an odd mantissa cannot be base · 2^k
        // for base = 1.5 without rounding; the round-trip must catch it.
        let sub = f32::from_bits(7);
        if let Some(e) = pow2_exponent(sub, 1.5) {
            assert_eq!((1.5 * pow2_from_biased(e)).to_bits(), sub.to_bits());
        }
        // A subnormal that IS exactly base · 2^k stays on the plane.
        let half_min = f32::MIN_POSITIVE / 2.0;
        let e = pow2_exponent(half_min, f32::MIN_POSITIVE).expect("exact subnormal halving");
        assert_eq!(
            (f32::MIN_POSITIVE * pow2_from_biased(e)).to_bits(),
            half_min.to_bits()
        );
        // Overflow: quotient infinite.
        assert_eq!(pow2_exponent(f32::MAX, f32::MIN_POSITIVE), None);
    }

    #[test]
    fn is_exact_pow2_classifies() {
        for v in [1.0f32, 2.0, 0.5, 0.25, 2.0f32.powi(100), f32::MIN_POSITIVE] {
            assert!(is_exact_pow2(v), "{v}");
        }
        for v in [
            0.0f32,
            -2.0,
            3.0,
            1.5,
            f32::NAN,
            f32::INFINITY,
            f32::MIN_POSITIVE / 2.0,
        ] {
            assert!(!is_exact_pow2(v), "{v}");
        }
    }

    #[test]
    fn packed_rejects_bad_shapes() {
        let syn = Synapse::Dense {
            weight: Tensor::zeros(&[2, 3]),
        };
        let mut scratch = KernelScratch::default();
        let mut psp = vec![0.0f32; 6];
        assert!(syn
            .accumulate_batch_packed(&[0.0; 4], &mut psp, 0, None, &mut scratch)
            .is_err());
        assert!(syn
            .accumulate_batch_packed(&[0.0; 3], &mut psp, 2, None, &mut scratch)
            .is_err());
        let mut short = vec![0.0f32; 5];
        assert!(syn
            .accumulate_batch_packed(&[0.0; 4], &mut short, 2, None, &mut scratch)
            .is_err());
        assert!(syn
            .accumulate_batch_packed(&[0.0; 4], &mut psp, 2, None, &mut scratch)
            .is_ok());
        // Zero lanes, or more lanes than the 64-bit mask plane holds, is
        // a typed config error for both entry points — even with
        // buffers sized for the width.
        let (input, mut wide) = (vec![0.0f32; 2 * 65], vec![0.0f32; 3 * 65]);
        for batch in [0usize, 65] {
            let err = syn
                .accumulate_batch_packed(&input, &mut wide, batch, None, &mut scratch)
                .unwrap_err();
            assert!(matches!(err, SnnError::InvalidConfig(_)), "width {batch}");
            let err = syn
                .accumulate_batch_packed_planes(&input, &mut wide, batch, &[0u64; 2], None, None)
                .unwrap_err();
            assert!(matches!(err, SnnError::InvalidConfig(_)), "width {batch}");
        }
    }
}
