//! Fused forward/backward kernels for the GCN hot loop.
//!
//! Three families live here:
//!
//! * **Fixed-width lane reductions** ([`lane_max`], [`lane_sum`]): row
//!   reductions that accumulate into a fixed array of [`LANES`] partial
//!   accumulators and fold the lanes pairwise at the end. The trip count and
//!   accumulation order depend only on the slice length, never on thread
//!   count or data, so results are deterministic — and the fixed-width inner
//!   loop is the shape LLVM's autovectorizer turns into SIMD without any
//!   intrinsics (this crate is `forbid(unsafe_code)`).
//! * **Softmax + cross-entropy** ([`softmax_rows_into`], [`softmax_ce_loss`],
//!   [`softmax_ce_grad_into`]): the loss head, shared by the batched fast
//!   path *and* the tape reference
//!   ([`Gcn::train_reference`](crate::Gcn::train_reference)) so the two
//!   training paths stay bitwise identical by construction.
//! * **Fused matmul(+bias)+ReLU** ([`matmul_bias_relu_into`]) and its
//!   backward ReLU′ (`relu_backward_row`): the per-layer `ReLU(Â H W + b)`
//!   is computed in one pass over the output block — the bias add and clamp
//!   happen while the freshly accumulated block is still in cache, inside
//!   the same parallel region. The backward mask is applied by whichever
//!   kernel produces a gradient row, right after it finishes that row. It is
//!   read off the *outputs* (`out > 0`), which for ReLU is equivalent to the
//!   pre-activation test `x > 0`, so the pre-activation buffer never needs
//!   to be kept.

use crate::matrix::{exec_for, Matrix};

/// Number of independent accumulator lanes in the row reductions.
pub const LANES: usize = 8;

/// Maximum of a slice via [`LANES`] parallel accumulator lanes folded at the
/// end. Deterministic for a fixed slice length; `NEG_INFINITY` on empty
/// input. NaN entries are absorbed by `f32::max` (it returns the non-NaN
/// operand), matching the scalar fold it replaces.
pub fn lane_max(xs: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for ch in chunks.by_ref() {
        for (l, &x) in lanes.iter_mut().zip(ch) {
            *l = l.max(x);
        }
    }
    let mut m = f32::NEG_INFINITY;
    for &l in &lanes {
        m = m.max(l);
    }
    for &x in chunks.remainder() {
        m = m.max(x);
    }
    m
}

/// Sum of a slice via [`LANES`] parallel accumulator lanes folded at the
/// end. The lane count is a compile-time constant, so the reduction order —
/// and therefore every output bit — depends only on the slice length.
pub fn lane_sum(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for ch in chunks.by_ref() {
        for (l, &x) in lanes.iter_mut().zip(ch) {
            *l += x;
        }
    }
    let mut s = 0.0f32;
    for &l in &lanes {
        s += l;
    }
    for &x in chunks.remainder() {
        s += x;
    }
    s
}

/// Row-wise softmax of `z` into `out` (resized in place, reusing its
/// allocation). Row maxima and exponent sums use the lane reductions above.
pub fn softmax_rows_into(z: &Matrix, out: &mut Matrix) {
    out.reset(z.rows(), z.cols());
    for r in 0..z.rows() {
        let row = z.row(r);
        let max = lane_max(row);
        let dst = out.row_mut(r);
        for (d, &v) in dst.iter_mut().zip(row) {
            *d = (v - max).exp();
        }
        let sum = lane_sum(dst);
        for d in dst.iter_mut() {
            *d /= sum;
        }
    }
}

/// Mean softmax-cross-entropy of `logits` against `labels`, accumulated in
/// `f64` across rows (fixed row order → deterministic).
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of logit rows.
pub fn softmax_ce_loss(logits: &Matrix, labels: &[u32]) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    let mut loss = 0.0f64;
    for (r, &y) in labels.iter().enumerate() {
        let row = logits.row(r);
        let max = lane_max(row);
        let mut lanes = [0.0f32; LANES];
        let mut chunks = row.chunks_exact(LANES);
        for ch in chunks.by_ref() {
            for (l, &v) in lanes.iter_mut().zip(ch) {
                *l += (v - max).exp();
            }
        }
        let mut sum = 0.0f32;
        for &l in &lanes {
            sum += l;
        }
        for &v in chunks.remainder() {
            sum += (v - max).exp();
        }
        let lse = sum.ln() + max;
        loss += f64::from(lse - row[y as usize]);
    }
    (loss / labels.len() as f64) as f32
}

/// Turns a softmax-probability matrix into the cross-entropy logits gradient
/// in place: subtract the one-hot target, then scale every element by
/// `scale` (the upstream gradient divided by the batch size).
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of rows.
pub fn softmax_ce_grad_into(probs: &mut Matrix, labels: &[u32], scale: f32) {
    assert_eq!(labels.len(), probs.rows(), "one label per row");
    for (r, &y) in labels.iter().enumerate() {
        let v = probs.get(r, y as usize) - 1.0;
        probs.set(r, y as usize, v);
    }
    probs.scale(scale);
}

/// Fused `ReLU(a @ b + bias)` into `out` (resized in place): the matmul
/// block kernel runs first, then bias add and clamp sweep the same block
/// while it is cache-hot, inside the same parallel region. Pass `None` for a
/// bias-free layer (the paper's GCN). Bitwise identical to
/// `a.matmul(b)` + bias add + [`Matrix::relu`] run separately.
///
/// # Panics
///
/// Panics on inner-dimension mismatch, or if `bias` is present with a length
/// other than `b.cols()`.
pub fn matmul_bias_relu_into(a: &Matrix, b: &Matrix, bias: Option<&[f32]>, out: &mut Matrix) {
    if let Some(bias) = bias {
        assert_eq!(bias.len(), b.cols(), "bias length mismatch");
    }
    let work = a.rows() * a.cols() * b.cols();
    let exec = exec_for(work);
    a.fused_matmul_post(b, out, &exec, |row| {
        if let Some(bias) = bias {
            for (o, &bi) in row.iter_mut().zip(bias) {
                *o = (*o + bi).max(0.0);
            }
        } else {
            for o in row.iter_mut() {
                *o = o.max(0.0);
            }
        }
    });
}

/// The fused backward half of [`matmul_bias_relu_into`], for one row:
/// zeroes `grad` wherever the forward activation was clamped (`act <= 0`).
/// Because activations are ReLU outputs, `act > 0` holds exactly where the
/// pre-activation was positive, so this reproduces the tape's
/// pre-activation mask bit for bit. The gradient producers of the batched
/// backward pass call it on each row they finish.
#[inline]
pub(crate) fn relu_backward_row(act: &[f32], grad: &mut [f32]) {
    debug_assert_eq!(act.len(), grad.len(), "relu mask shape mismatch");
    for (g, &a) in grad.iter_mut().zip(act) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

/// The standalone whole-matrix mask pass the fused producers replaced: the
/// oracle the fused backward kernels are checked against.
#[cfg(test)]
pub(crate) fn relu_backward_mask(act: &Matrix, grad: &mut Matrix) {
    assert_eq!((act.rows(), act.cols()), (grad.rows(), grad.cols()), "relu mask shape mismatch");
    for (g, &a) in grad.as_mut_slice().iter_mut().zip(act.as_slice()) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lane_reductions_agree_with_scalar() {
        let xs: Vec<f32> = (0..37).map(|i| ((i * 7919) % 23) as f32 - 11.0).collect();
        let smax = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(lane_max(&xs), smax);
        let ssum: f64 = xs.iter().map(|&x| f64::from(x)).sum();
        assert!((f64::from(lane_sum(&xs)) - ssum).abs() < 1e-3);
        assert_eq!(lane_max(&[]), f32::NEG_INFINITY);
        assert_eq!(lane_sum(&[]), 0.0);
    }

    #[test]
    fn lane_reductions_are_length_deterministic() {
        let xs: Vec<f32> = (0..100).map(|i| (i as f32 * 0.73).sin()).collect();
        assert_eq!(lane_sum(&xs).to_bits(), lane_sum(&xs.clone()).to_bits());
        assert_eq!(lane_max(&xs).to_bits(), lane_max(&xs.clone()).to_bits());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_loss_matches_naive() {
        let z = Matrix::from_rows(&[&[1.0, 2.0, 3.0, -1.0], &[0.0, 0.0, 0.0, 0.0]]);
        let mut p = Matrix::zeros(0, 0);
        softmax_rows_into(&z, &mut p);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        let labels = [2u32, 0];
        let loss = softmax_ce_loss(&z, &labels);
        // Naive reference.
        let mut want = 0.0f64;
        for (r, &y) in labels.iter().enumerate() {
            want -= f64::from(p.get(r, y as usize)).ln();
        }
        let want = (want / 2.0) as f32;
        assert!((loss - want).abs() < 1e-5, "loss {loss} vs naive {want}");
    }

    #[test]
    fn ce_grad_is_softmax_minus_onehot_scaled() {
        let z = Matrix::from_rows(&[&[0.3, -0.7, 1.1]]);
        let mut p = Matrix::zeros(0, 0);
        softmax_rows_into(&z, &mut p);
        let p0 = p.clone();
        softmax_ce_grad_into(&mut p, &[2], 0.5);
        for c in 0..3 {
            let want = (p0.get(0, c) - if c == 2 { 1.0 } else { 0.0 }) * 0.5;
            assert_eq!(p.get(0, c), want);
        }
    }

    #[test]
    fn fused_matmul_bias_relu_matches_unfused() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Matrix::xavier(70, 33, &mut rng);
        let b = Matrix::xavier(33, 12, &mut rng);
        let bias: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) * 0.1).collect();
        let mut fused = Matrix::zeros(0, 0);
        matmul_bias_relu_into(&a, &b, Some(&bias), &mut fused);
        let mut want = a.matmul(&b);
        for r in 0..want.rows() {
            for (c, &bc) in bias.iter().enumerate() {
                want.set(r, c, (want.get(r, c) + bc).max(0.0));
            }
        }
        assert_eq!(fused, want);
        // Bias-free path equals matmul + relu exactly.
        matmul_bias_relu_into(&a, &b, None, &mut fused);
        assert_eq!(fused, a.matmul(&b).relu());
    }

    #[test]
    fn relu_backward_mask_matches_preactivation_mask() {
        let pre = Matrix::from_rows(&[&[-1.0, 0.0, 2.0], &[0.5, -0.0, -3.0]]);
        let act = pre.relu();
        let mut grad = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]]);
        let mut fused = grad.clone();
        relu_backward_mask(&act, &mut grad);
        for r in 0..2 {
            relu_backward_row(act.row(r), fused.row_mut(r));
        }
        assert_eq!(fused, grad, "row-wise mask equals the whole-matrix pass");
        for r in 0..2 {
            for c in 0..3 {
                let want = if pre.get(r, c) <= 0.0 { 0.0 } else { 1.0 };
                assert_eq!(grad.get(r, c), want, "({r},{c})");
            }
        }
    }
}
