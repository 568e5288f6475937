//! BLAS-1 vector kernels.
//!
//! All kernels are plain slices-in, slices-out so the solver crates can use
//! them on globally stored vectors or on per-rank slices alike.

/// Dot product `xᵀ y`.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Fused `y += alpha * x` returning `yᵀ y`, in one pass over `y`.
///
/// Bit-identical to [`axpy`] followed by `dot(y, y)`: the update and
/// the squared-norm accumulation both walk `y` left to right, and the
/// accumulator folds terms in exactly the order [`dot`]'s `sum()` does.
/// One traversal instead of two halves the memory traffic of the CG
/// residual update.
pub fn axpy_dot(alpha: f64, x: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_dot: length mismatch");
    let mut acc = 0.0;
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
        acc += *yi * *yi;
    }
    acc
}

/// `y = x + beta * y` (the CG direction update `p = r + beta p`).
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Scales `x` in place by `alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm `||x||₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `||x||∞`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// `||x - y||₂`.
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn axpy_dot_is_bit_identical_to_axpy_then_dot() {
        let x: Vec<f64> = (0..257).map(|i| (i as f64).sin() * 1e3).collect();
        let y0: Vec<f64> = (0..257).map(|i| (i as f64).cos() / 3.0).collect();
        let alpha = -0.731;
        let mut separate = y0.clone();
        axpy(alpha, &x, &mut separate);
        let want = dot(&separate, &separate);
        let mut fused = y0.clone();
        let got = axpy_dot(alpha, &x, &mut fused);
        assert_eq!(separate, fused);
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn xpby_matches_cg_direction_update() {
        let mut p = vec![1.0, 2.0];
        xpby(&[10.0, 20.0], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 21.0]);
    }

    #[test]
    fn norms_are_consistent() {
        let x = vec![3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(dist2(&x, &x), 0.0);
    }

    #[test]
    fn scale_multiplies_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);
    }
}
