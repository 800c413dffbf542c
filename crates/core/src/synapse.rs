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
//! (output-stationary). That kernel is one loop nest built twice, over
//! 4-lane SSE and 8-lane AVX registers; widths 8 and 16 run the AVX
//! instance when the CPU has AVX, detected at run time
//! ([`conv_instance`] names the one in use). Every `f32` kernel matches
//! the scalar path bit for bit under the condition stated on
//! [`Synapse::accumulate_batch`].

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

/// One SIMD register of lanes in [`conv_gather`]'s accumulator block.
/// The loop nest is written once over this trait and built twice: with
/// [`Quad`] (SSE, on every x86-64 CPU) and with [`Oct`] (AVX, chosen at
/// run time). Both round `mul_add` exactly like the scalar `p += s * w`.
///
/// A value is only made by the `unsafe` constructors, whose contract
/// includes the CPU running the register's instructions; holding one is
/// the proof that [`LaneReg::mul_add`] may run them.
trait LaneReg: Copy {
    /// Floats per register.
    const LANES: usize;

    /// Reads the `LANES` floats at `p`.
    ///
    /// # Safety
    ///
    /// `[p, p + LANES)` must be in bounds of one live allocation, and the
    /// CPU must run the register's instructions.
    unsafe fn load(p: *const f32) -> Self;

    /// Writes the `LANES` floats at `p`.
    ///
    /// # Safety
    ///
    /// `[p, p + LANES)` must be in bounds of one live, writable
    /// allocation.
    unsafe fn store(self, p: *mut f32);

    /// `w` in every lane.
    ///
    /// # Safety
    ///
    /// The CPU must run the register's instructions.
    unsafe fn splat(w: f32) -> Self;

    /// `self + x · w` per lane, rounded after the multiply and the add.
    fn mul_add(self, x: Self, w: Self) -> Self;
}

/// Four lanes: one SSE vector on x86-64. [`LaneReg::mul_add`] is a
/// separate `_mm_mul_ps` and `_mm_add_ps`, so it rounds exactly like
/// [`lane_fma`]. SSE is baseline on x86-64, so every CPU runs it.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Quad(core::arch::x86_64::__m128);

#[cfg(target_arch = "x86_64")]
impl LaneReg for Quad {
    const LANES: usize = 4;

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Quad(core::arch::x86_64::_mm_loadu_ps(p))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        core::arch::x86_64::_mm_storeu_ps(p, self.0)
    }

    #[inline(always)]
    unsafe fn splat(w: f32) -> Self {
        Quad(core::arch::x86_64::_mm_set1_ps(w))
    }

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
impl LaneReg for Quad {
    const LANES: usize = 4;

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Quad(p.cast::<[f32; 4]>().read_unaligned())
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<[f32; 4]>().write_unaligned(self.0)
    }

    #[inline(always)]
    unsafe fn splat(w: f32) -> Self {
        Quad([w; 4])
    }

    #[inline(always)]
    fn mul_add(self, x: Quad, w: Quad) -> Self {
        let mut r = self.0;
        for (r, (&x, &w)) in r.iter_mut().zip(x.0.iter().zip(&w.0)) {
            *r += x * w;
        }
        Quad(r)
    }
}

/// Eight lanes: one AVX vector. [`LaneReg::mul_add`] is a separate
/// `_mm256_mul_ps` and `_mm256_add_ps` (no FMA), so it rounds exactly
/// like [`Quad`]. Its methods compile to AVX instructions only once
/// inlined into a `#[target_feature(enable = "avx")]` function
/// ([`conv_gather_avx`]); elsewhere they are calls.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Oct(core::arch::x86_64::__m256);

#[cfg(target_arch = "x86_64")]
impl LaneReg for Oct {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Oct(core::arch::x86_64::_mm256_loadu_ps(p))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        core::arch::x86_64::_mm256_storeu_ps(p, self.0)
    }

    #[inline(always)]
    unsafe fn splat(w: f32) -> Self {
        Oct(core::arch::x86_64::_mm256_set1_ps(w))
    }

    #[inline(always)]
    fn mul_add(self, x: Oct, w: Oct) -> Self {
        use core::arch::x86_64::{_mm256_add_ps, _mm256_mul_ps};
        // SAFETY: `self` exists, so one of the constructors ran under
        // their contract that the CPU runs AVX.
        Oct(unsafe { _mm256_add_ps(self.0, _mm256_mul_ps(x.0, w.0)) })
    }
}

/// Whether the CPU and OS run AVX (always `false` off x86-64). The
/// standard library caches the answer, so this is one atomic load.
#[inline(always)]
fn has_avx() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The instance of the output-stationary conv kernel that
/// [`Synapse::accumulate_batch`] runs at lockstep widths 8 and 16 on
/// this CPU: `"avx"` where the CPU runs AVX, else `"sse"` on x86-64 and
/// `"portable"` on other targets. Width 4 always runs the SSE (or
/// portable) instance. The choice is made at run time, so a binary's
/// compile-time target features do not show it; measurements of the
/// kernel should record it.
pub fn conv_instance() -> &'static str {
    if has_avx() {
        "avx"
    } else if cfg!(target_arch = "x86_64") {
        "sse"
    } else {
        "portable"
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
    ///   order, and no input pixel is skipped. Width 4 runs its SSE
    ///   instance; widths 8 and 16 run its AVX instance when the CPU has
    ///   AVX (checked on every call; [`conv_instance`] reports the
    ///   outcome) and the SSE instance otherwise. Both give the same
    ///   bits;
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
                    4 => conv_gather_sse::<1, 8>(input, psp, &plan),
                    // SAFETY (both AVX arms): the guard saw AVX.
                    #[cfg(target_arch = "x86_64")]
                    8 if has_avx() => unsafe { conv_gather_avx::<1, 8>(input, psp, &plan) },
                    8 => conv_gather_sse::<2, 4>(input, psp, &plan),
                    #[cfg(target_arch = "x86_64")]
                    16 if has_avx() => unsafe { conv_gather_avx::<2, 4>(input, psp, &plan) },
                    16 => conv_gather_sse::<4, 2>(input, psp, &plan),
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

/// The output-stationary conv kernel for lockstep widths 4, 8 and 16,
/// written once over the lane register `R` and built as two instances:
/// SSE ([`Quad`], [`conv_gather_sse`]) at every width, and AVX ([`Oct`],
/// [`conv_gather_avx`]) at widths 8 and 16, which
/// [`Synapse::accumulate_batch`] runs when the CPU has AVX. Each lane
/// block is `Q` registers: 4 lanes are 1 SSE register, 8 lanes 2 SSE
/// or 1 AVX, 16 lanes 4 SSE or 2 AVX.
///
/// For each block of `CB` output channels (8, 4 or 2, so the `CB·Q = 8`
/// accumulators, the `Q` input registers and the weight fill the 16
/// SSE or AVX registers) and each output pixel, it loads the pixel's
/// PSP lane blocks into registers once, adds `lanes × w` over the taps
/// `(ci, ky, kx)` in ascending order — each input lane block loaded
/// once per tap and fed to the whole channel block — and stores the
/// block once. Output channels past the last full block run one at a
/// time.
///
/// Ascending `(ci, ky, kx)` is ascending input pixel, so every output's
/// terms arrive in [`conv_scatter`]'s order, each rounded by a separate
/// multiply and add, in both instances. Unlike the scatter, no pixel is
/// skipped for having all lanes zero: a dead pixel adds exact `±0.0`
/// terms, which change no accumulator that is not `−0.0` (the condition
/// under which this matches the scalar engine is spelled out on
/// [`Synapse::accumulate_batch`]). A zero test per pixel cost more than
/// the terms it saves at these widths.
///
/// # Panics
///
/// When `input`, `psp` or the weights are shorter than the plan's
/// shapes say. The `unsafe` indexing below rests on these checks.
///
/// # Safety
///
/// The CPU must run `R`'s instructions.
#[inline(always)]
unsafe fn conv_gather<R: LaneReg, const Q: usize, const CB: usize>(
    input: &[f32],
    psp: &mut [f32],
    plan: &ScatterPlan<'_>,
) {
    let lanes = R::LANES * Q;
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
    // `oh·ow·lanes` unchecked, and there is nothing to do.
    if plan.c_out == 0 {
        return;
    }
    let full = plan.c_out - plan.c_out % CB;
    // SAFETY: the asserts above bound all three buffers by the plan's
    // shapes without overflow, both channel ranges lie in `0..c_out`
    // with lengths divisible by their block sizes, and the caller
    // vouches for `R`.
    unsafe {
        gather_channels::<R, Q, CB>(input, psp, plan, 0..full);
        gather_channels::<R, Q, 1>(input, psp, plan, full..plan.c_out);
    }
}

/// [`conv_gather`]'s SSE instance (the portable one off x86-64) at
/// `4·Q` lanes. Kept out of line like [`conv_scatter`], so each width's
/// kernel is its own function and the other arms of
/// [`Synapse::accumulate_batch`] compile as they would without it.
#[inline(never)]
fn conv_gather_sse<const Q: usize, const CB: usize>(
    input: &[f32],
    psp: &mut [f32],
    plan: &ScatterPlan<'_>,
) {
    // SAFETY: every x86-64 CPU runs SSE, and the portable `Quad` runs
    // no special instructions.
    unsafe { conv_gather::<Quad, Q, CB>(input, psp, plan) }
}

/// [`conv_gather`]'s AVX instance at `8·Q` lanes: the same loop nest,
/// compiled with AVX enabled so that every [`Oct`] operation inlines to
/// one 256-bit instruction. No FMA: the multiply and the add round
/// separately, as in the SSE instance and the scalar engine.
///
/// # Safety
///
/// The CPU must run AVX ([`has_avx`]). The buffers need no promise
/// beyond their types: [`conv_gather`]'s asserts bound them by the
/// plan's shapes and panic when they are short, as in the SSE
/// instance.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline(never)]
unsafe fn conv_gather_avx<const Q: usize, const CB: usize>(
    input: &[f32],
    psp: &mut [f32],
    plan: &ScatterPlan<'_>,
) {
    // SAFETY: the caller vouches that the CPU runs AVX.
    unsafe { conv_gather::<Oct, Q, CB>(input, psp, plan) }
}

/// [`conv_gather`]'s loop nest over the output channels `channels`, in
/// blocks of `CB`.
///
/// # Safety
///
/// The CPU must run `R`'s instructions; `input`, `psp` and `plan.w`
/// must hold at least `c_in·ih·iw·lanes`, `c_out·oh·ow·lanes` and
/// `c_out·c_in·kh·kw` floats (`lanes = R::LANES·Q`); and `channels` must
/// lie inside `0..c_out` with a length divisible by `CB`.
#[inline(always)]
unsafe fn gather_channels<R: LaneReg, const Q: usize, const CB: usize>(
    input: &[f32],
    psp: &mut [f32],
    plan: &ScatterPlan<'_>,
    channels: std::ops::Range<usize>,
) {
    let (rl, lanes) = (R::LANES, R::LANES * Q);
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
                // `oy < oh` and `ox < ow` keep the PSP registers inside
                // `c_out·oh·ow·lanes`; the tap ranges keep `iy < ih` and
                // `ix < iw`, so the input registers stay inside
                // `c_in·ih·iw·lanes`; and `ky < kh`, `kx < kw` keep the
                // weights inside `c_out·c_in·kh·kw`.
                let p_px = p_ptr.add(((co0 * oh + oy) * ow + ox) * lanes);
                let mut acc: [[R; Q]; CB] = std::array::from_fn(|c| {
                    std::array::from_fn(|q| R::load(p_px.add(c * plane + rl * q)))
                });
                for ci in 0..c_in {
                    for ky in ky0..ky1 {
                        let iy = iy0 + (ky - ky0);
                        let x_row = x_ptr.add(((ci * ih + iy) * iw + ix0) * lanes);
                        let w_row = w_blk.add((ci * kh + ky) * kw);
                        for kx in kx0..kx1 {
                            let x_px = x_row.add((kx - kx0) * lanes);
                            let x: [R; Q] = std::array::from_fn(|q| R::load(x_px.add(rl * q)));
                            for (c, acc) in acc.iter_mut().enumerate() {
                                let wv = R::splat(*w_row.add(c * taps + kx));
                                for (a, &xq) in acc.iter_mut().zip(&x) {
                                    *a = a.mul_add(xq, wv);
                                }
                            }
                        }
                    }
                }
                for (c, acc) in acc.iter().enumerate() {
                    for (q, a) in acc.iter().enumerate() {
                        a.store(p_px.add(c * plane + rl * q));
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
        lanes_match_scalar(syn, inputs, start, "accumulate_batch", |x, p| {
            syn.accumulate_batch(x, p, batch).unwrap()
        });
    }

    /// Lane `b` of the lockstep pass `run(input, psp)` over the SoA
    /// buffers, from PSP `start[b]`, must equal, bit for bit, a scalar
    /// pass from the same PSP.
    fn lanes_match_scalar(
        syn: &Synapse,
        inputs: &[Vec<f32>],
        start: &[Vec<f32>],
        kernel: &str,
        run: impl FnOnce(&[f32], &mut [f32]),
    ) {
        let batch = inputs.len();
        let out = syn.output_len();
        let soa = to_soa(inputs);
        let mut psp_batch = to_soa(start);
        run(&soa, &mut psp_batch);
        for (b, input) in inputs.iter().enumerate() {
            let mut psp = start[b].clone();
            syn.accumulate(input, &mut psp).unwrap();
            for j in 0..out {
                assert_eq!(
                    psp[j].to_bits(),
                    psp_batch[j * batch + b].to_bits(),
                    "{kernel} width {batch} lane {b} neuron {j} diverged: {} vs {}",
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
        let syn = Synapse::Dense {
            weight: uniform(&mut rng, &[24, 9], -1.0, 1.0),
        };
        density_sweep_matches_scalar(&mut rng, &syn);
    }

    /// The conv stages the lockstep conv tests sweep. `c_out` 5 leaves
    /// a tail after every channel block (8, 4, 2), 11 is one 8-channel
    /// block and a 3-channel tail, and 8 fills its blocks exactly.
    fn conv_cases(rng: &mut StdRng) -> Vec<Synapse> {
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
        [
            (Conv2dGeometry::square(3, 1, 1), Chw::new(2, 5, 5), 3),
            (Conv2dGeometry::square(2, 2, 0), Chw::new(1, 6, 6), 2),
            (Conv2dGeometry::square(3, 2, 1), Chw::new(1, 5, 5), 2),
            (odd, Chw::new(2, 7, 5), 5),
            (Conv2dGeometry::square(3, 1, 2), Chw::new(3, 4, 6), 5),
            (Conv2dGeometry::square(3, 1, 1), Chw::new(2, 4, 5), 11),
            (odd, Chw::new(3, 6, 4), 8),
        ]
        .into_iter()
        .map(|(geom, in_shape, c_out)| {
            let (oh, ow) = geom.output_hw(in_shape.h, in_shape.w).unwrap();
            let out_shape = Chw::new(c_out, oh, ow);
            let weight = uniform(
                rng,
                &[out_shape.c, in_shape.c, geom.kernel_h, geom.kernel_w],
                -1.0,
                1.0,
            );
            Synapse::Conv {
                weight,
                geom,
                in_shape,
                out_shape,
            }
        })
        .collect()
    }

    /// `batch` images for `syn` and their starting PSPs: lane 1 is
    /// silent throughout and the rest are ~40% zero; lane 0 starts from
    /// +0.0, the others from nonzero PSPs.
    fn lockstep_case(
        rng: &mut StdRng,
        syn: &Synapse,
        batch: usize,
    ) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let inputs = (0..batch)
            .map(|b| {
                uniform(rng, &[syn.input_len()], 0.0, 1.0)
                    .as_slice()
                    .iter()
                    .map(|&v| if b == 1 || v < 0.4 { 0.0 } else { v })
                    .collect()
            })
            .collect();
        let start = (0..batch)
            .map(|b| {
                let p = uniform(rng, &[syn.output_len()], -1.0, 1.0);
                let p = p.as_slice().iter();
                p.map(|&v| if b == 0 { 0.0 } else { v }).collect()
            })
            .collect();
        (inputs, start)
    }

    #[test]
    fn conv_batch_lanes_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(13);
        for syn in conv_cases(&mut rng) {
            for batch in [2usize, 3, 4, 8, 16] {
                let (inputs, start) = lockstep_case(&mut rng, &syn, batch);
                batch_matches_scalar_from(&syn, &inputs, &start);
            }
        }
        let syn = Synapse::Conv {
            weight: uniform(&mut rng, &[3, 2, 3, 3], -1.0, 1.0),
            geom: Conv2dGeometry::square(3, 1, 1),
            in_shape: Chw::new(2, 4, 4),
            out_shape: Chw::new(3, 4, 4),
        };
        density_sweep_matches_scalar(&mut rng, &syn);
    }

    /// `accumulate_batch` runs one conv instance per width and CPU, so
    /// this calls each instance at widths 8 and 16 directly: SSE always,
    /// AVX where the CPU runs it.
    #[test]
    fn conv_gather_instances_match_scalar_bitwise() {
        type Instance = unsafe fn(&[f32], &mut [f32], &ScatterPlan<'_>);
        let mut instances: Vec<(&str, usize, Instance)> = vec![
            ("sse", 8, conv_gather_sse::<2, 4>),
            ("sse", 16, conv_gather_sse::<4, 2>),
        ];
        #[cfg(target_arch = "x86_64")]
        if has_avx() {
            instances.push(("avx", 8, conv_gather_avx::<1, 8>));
            instances.push(("avx", 16, conv_gather_avx::<2, 4>));
        }
        let mut rng = StdRng::seed_from_u64(19);
        for syn in conv_cases(&mut rng) {
            let Synapse::Conv {
                weight,
                geom,
                in_shape,
                out_shape,
            } = &syn
            else {
                unreachable!("conv_cases builds conv stages")
            };
            let plan = ScatterPlan {
                w: weight.as_slice(),
                c_in: in_shape.c,
                c_out: out_shape.c,
                geom,
                ih: in_shape.h,
                iw: in_shape.w,
                oh: out_shape.h,
                ow: out_shape.w,
            };
            for &(name, batch, instance) in &instances {
                let (inputs, start) = lockstep_case(&mut rng, &syn, batch);
                // SAFETY: the AVX instances are listed only where the
                // CPU runs AVX.
                lanes_match_scalar(&syn, &inputs, &start, name, |x, p| unsafe {
                    instance(x, p, &plan)
                });
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
        density_sweep_matches_scalar(&mut rng, &syn);
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

    /// Every lane of `syn`'s lockstep pass equals the scalar pass at
    /// input densities {0, .1, .5, 1} and widths {1, 3, 4, 5, 16}, with
    /// lane 0 silent throughout.
    fn density_sweep_matches_scalar(rng: &mut StdRng, syn: &Synapse) {
        for density in [0.0, 0.1, 0.5, 1.0] {
            for batch in [1usize, 3, 4, 5, 16] {
                let inputs = sparse_inputs(rng, batch, syn.input_len(), density);
                batch_matches_scalar(syn, &inputs);
            }
        }
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
}
