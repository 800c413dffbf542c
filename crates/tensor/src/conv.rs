//! 2-D convolution and pooling primitives (NCHW layout).
//!
//! Convolution is implemented by lowering to a matrix product via
//! [`im2col`]; its gradient path uses [`col2im`]. Average pooling is
//! implemented directly. All functions validate their geometry and return
//! [`TensorError::InvalidGeometry`] on impossible configurations.

use crate::{ops::matmul, Tensor, TensorError};

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Zero padding added on the top and bottom.
    pub pad_h: usize,
    /// Zero padding added on the left and right.
    pub pad_w: usize,
}

impl Conv2dGeometry {
    /// A square kernel with equal strides and padding.
    pub fn square(kernel: usize, stride: usize, pad: usize) -> Self {
        Conv2dGeometry {
            kernel_h: kernel,
            kernel_w: kernel,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        }
    }

    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the kernel exceeds the
    /// padded input, any stride/kernel dimension is zero, or the padded
    /// size overflows `usize` (geometry read from a snapshot is
    /// untrusted).
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        if self.kernel_h == 0 || self.kernel_w == 0 || self.stride_h == 0 || self.stride_w == 0 {
            return Err(TensorError::InvalidGeometry(
                "kernel and stride must be nonzero".into(),
            ));
        }
        let padded = |len: usize, pad: usize| pad.checked_mul(2).and_then(|p| len.checked_add(p));
        let (Some(ph), Some(pw)) = (padded(h, self.pad_h), padded(w, self.pad_w)) else {
            return Err(TensorError::InvalidGeometry(
                "padded input size overflows".into(),
            ));
        };
        if self.kernel_h > ph || self.kernel_w > pw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kernel_h, self.kernel_w, ph, pw
            )));
        }
        Ok((
            (ph - self.kernel_h) / self.stride_h + 1,
            (pw - self.kernel_w) / self.stride_w + 1,
        ))
    }
}

fn expect_rank4(t: &Tensor) -> Result<(usize, usize, usize, usize), TensorError> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.rank(),
        });
    }
    let s = t.shape();
    Ok((s[0], s[1], s[2], s[3]))
}

/// Lowers image patches to columns.
///
/// Input `(n, c, h, w)` → output `(n · oh · ow, c · kh · kw)` where each
/// row is one flattened receptive field.
///
/// # Errors
///
/// Returns geometry and rank validation errors.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = expect_rank4(input)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let patch = c * geom.kernel_h * geom.kernel_w;
    let mut out = vec![0.0f32; n * oh * ow * patch];
    let src = input.as_slice();
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * patch;
                let mut k = 0usize;
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    for ky in 0..geom.kernel_h {
                        let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                        for kx in 0..geom.kernel_w {
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                src[base + iy as usize * w + ix as usize]
                            } else {
                                0.0
                            };
                            out[row + k] = v;
                            k += 1;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n * oh * ow, patch])
}

/// Inverse of [`im2col`]: scatters column gradients back onto the input
/// image, accumulating where patches overlap.
///
/// `cols` must be `(n · oh · ow, c · kh · kw)`; returns `(n, c, h, w)`.
///
/// # Errors
///
/// Returns geometry and shape validation errors.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (oh, ow) = geom.output_hw(h, w)?;
    let patch = c * geom.kernel_h * geom.kernel_w;
    if cols.shape() != [n * oh * ow, patch] {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.shape().to_vec(),
            rhs: vec![n * oh * ow, patch],
        });
    }
    let src = cols.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * patch;
                let mut k = 0usize;
                for ci in 0..c {
                    let base = (ni * c + ci) * h * w;
                    for ky in 0..geom.kernel_h {
                        let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                        for kx in 0..geom.kernel_w {
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                out[base + iy as usize * w + ix as usize] += src[row + k];
                            }
                            k += 1;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

/// 2-D convolution forward pass (NCHW).
///
/// * `input`: `(n, c_in, h, w)`
/// * `weight`: `(c_out, c_in, kh, kw)`
/// * `bias`: rank-1 of length `c_out`, or `None`
///
/// Returns `(n, c_out, oh, ow)`.
///
/// # Errors
///
/// Returns geometry/shape validation errors.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = expect_rank4(input)?;
    let (c_out, c_in, kh, kw) = expect_rank4(weight)?;
    if c_in != c || kh != geom.kernel_h || kw != geom.kernel_w {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.shape().to_vec(),
            rhs: vec![c_out, c, geom.kernel_h, geom.kernel_w],
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    let cols = im2col(input, geom)?; // (n*oh*ow, c*kh*kw)
    let wmat = weight.reshape(&[c_out, c * kh * kw])?;
    let wt = wmat.transpose2()?; // (patch, c_out)
    let mut prod = matmul(&cols, &wt)?; // (n*oh*ow, c_out)
    if let Some(b) = bias {
        prod.add_row_inplace(b)?;
    }
    // (n*oh*ow, c_out) -> (n, c_out, oh, ow)
    let pv = prod.as_slice();
    let mut out = vec![0.0f32; n * c_out * oh * ow];
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * c_out;
                for co in 0..c_out {
                    out[((ni * c_out + co) * oh + oy) * ow + ox] = pv[row + co];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c_out, oh, ow])
}

/// Average pooling forward pass (NCHW).
///
/// Returns `(n, c, oh, ow)` where each output is the mean of its window
/// (zero-padded cells count toward the denominator, matching the
/// "count_include_pad" convention).
///
/// # Errors
///
/// Returns geometry/rank validation errors.
pub fn avg_pool2d(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor, TensorError> {
    let (n, c, h, w) = expect_rank4(input)?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let denom = (geom.kernel_h * geom.kernel_w) as f32;
    let src = input.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..geom.kernel_h {
                        let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..geom.kernel_w {
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += src[base + iy as usize * w + ix as usize];
                        }
                    }
                    out[((ni * c + ci) * oh + oy) * ow + ox] = acc / denom;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Gradient of [`avg_pool2d`] with respect to its input.
///
/// # Errors
///
/// Returns geometry/shape validation errors.
pub fn avg_pool2d_backward(
    grad_out: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeometry,
) -> Result<Tensor, TensorError> {
    let (oh, ow) = geom.output_hw(h, w)?;
    if grad_out.shape() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, c, oh, ow],
        });
    }
    let denom = (geom.kernel_h * geom.kernel_w) as f32;
    let g = grad_out.as_slice();
    let mut out = vec![0.0f32; n * c * h * w];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((ni * c + ci) * oh + oy) * ow + ox] / denom;
                    for ky in 0..geom.kernel_h {
                        let iy = (oy * geom.stride_h + ky) as isize - geom.pad_h as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..geom.kernel_w {
                            let ix = (ox * geom.stride_w + kx) as isize - geom.pad_w as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            out[base + iy as usize * w + ix as usize] += go;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hw_basic() {
        let g = Conv2dGeometry::square(3, 1, 1);
        assert_eq!(g.output_hw(8, 8).unwrap(), (8, 8));
        let g = Conv2dGeometry::square(2, 2, 0);
        assert_eq!(g.output_hw(8, 8).unwrap(), (4, 4));
    }

    #[test]
    fn output_hw_rejects_oversized_kernel() {
        let g = Conv2dGeometry::square(5, 1, 0);
        assert!(g.output_hw(3, 3).is_err());
        // A padding whose padded size overflows is rejected, not wrapped.
        let g = Conv2dGeometry::square(5, 1, usize::MAX / 2);
        assert!(g.output_hw(3, 3).is_err());
    }

    #[test]
    fn output_hw_rejects_zero_stride() {
        let g = Conv2dGeometry {
            kernel_h: 2,
            kernel_w: 2,
            stride_h: 0,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
        };
        assert!(g.output_hw(4, 4).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is just a reshape.
        let input = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let g = Conv2dGeometry::square(1, 1, 0);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 2]);
        // row (y=0,x=0) should contain channel0[0,0]=0 and channel1[0,0]=4
        assert_eq!(cols.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(cols.get(&[0, 1]).unwrap(), 4.0);
    }

    #[test]
    fn conv2d_known_values() {
        // 3x3 input, 2x2 kernel of ones: outputs are window sums.
        let input = Tensor::from_vec((1..=9).map(|x| x as f32).collect(), &[1, 1, 3, 3]).unwrap();
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::square(2, 1, 0);
        let out = conv2d(&input, &weight, None, &g).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_bias_added_per_channel() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let weight = Tensor::ones(&[2, 1, 1, 1]);
        let bias = Tensor::from_slice(&[10.0, 20.0]);
        let g = Conv2dGeometry::square(1, 1, 0);
        let out = conv2d(&input, &weight, Some(&bias), &g).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2, 2]);
        assert_eq!(
            out.as_slice(),
            &[11.0, 11.0, 11.0, 11.0, 21.0, 21.0, 21.0, 21.0]
        );
    }

    #[test]
    fn conv2d_padding_zero_extends() {
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let g = Conv2dGeometry::square(3, 1, 1);
        let out = conv2d(&input, &weight, None, &g).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        // every output sees exactly the 4 ones
        assert_eq!(out.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::ones(&[1, 2, 4, 4]);
        let weight = Tensor::ones(&[1, 3, 3, 3]);
        let g = Conv2dGeometry::square(3, 1, 1);
        assert!(conv2d(&input, &weight, None, &g).is_err());
    }

    #[test]
    fn col2im_adjoint_of_im2col_on_ones() {
        // For each input pixel, col2im(im2col(x)) multiplies by the number
        // of windows covering it.
        let input = Tensor::ones(&[1, 1, 3, 3]);
        let g = Conv2dGeometry::square(2, 1, 0);
        let cols = im2col(&input, &g).unwrap();
        let back = col2im(&cols, 1, 1, 3, 3, &g).unwrap();
        // corner covered once, edge twice, center four times
        assert_eq!(
            back.as_slice(),
            &[1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]
        );
    }

    #[test]
    fn avg_pool_basic() {
        let input = Tensor::from_vec((1..=4).map(|x| x as f32).collect(), &[1, 1, 2, 2]).unwrap();
        let g = Conv2dGeometry::square(2, 2, 0);
        let out = avg_pool2d(&input, &g).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        assert_eq!(out.as_slice(), &[2.5]);
    }

    #[test]
    fn avg_pool_backward_distributes_evenly() {
        let g = Conv2dGeometry::square(2, 2, 0);
        let grad = Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap();
        let gin = avg_pool2d_backward(&grad, 1, 1, 2, 2, &g).unwrap();
        assert_eq!(gin.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn avg_pool_linearity_check() {
        // pooling(a+b) == pooling(a)+pooling(b)
        let a = Tensor::from_vec((0..16).map(|x| x as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let b = a.scale(2.0);
        let g = Conv2dGeometry::square(2, 2, 0);
        let pa = avg_pool2d(&a, &g).unwrap();
        let pb = avg_pool2d(&b, &g).unwrap();
        let psum = avg_pool2d(&a.add(&b).unwrap(), &g).unwrap();
        for (x, y) in psum.as_slice().iter().zip(pa.add(&pb).unwrap().as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
