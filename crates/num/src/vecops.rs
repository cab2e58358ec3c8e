//! Small dense-vector helpers used by the solvers.
//!
//! These operate on plain `&[f64]` slices; all callers in this workspace deal
//! with vectors of at most a few dozen elements (the number of privacy levels
//! `t`), so simple scalar loops are both clear and fast enough.

/// Dot product `x · y`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// In-place `y += alpha * x`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Max norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Element-wise difference `x - y` as a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// In-place scaling `x *= alpha`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Returns `true` if every element is finite (no NaN/inf).
#[inline]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Linear interpolation `(1-t)*a + t*b`, element-wise, into a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn lerp(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "lerp: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (1.0 - t) * x + t * y)
        .collect()
}

/// Descending total order on `f64` with NaN demoted below every number.
///
/// `f64::total_cmp` makes the order total (no `partial_cmp` panic on NaN),
/// but its raw order puts `+NaN` *above* `+inf` — which would rank a
/// degenerate estimate as the largest value. This comparator keeps the
/// total-order guarantee and moves every NaN (either sign) to the very end
/// of a descending sort instead.
#[inline]
pub fn cmp_desc_nan_last(x: f64, y: f64) -> std::cmp::Ordering {
    match (x.is_nan(), y.is_nan()) {
        (false, false) => y.total_cmp(&x),
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (true, true) => std::cmp::Ordering::Equal,
    }
}

/// Indices of the `k` largest values, largest first; ties break toward the
/// smaller index. The one canonical ranking rule for heavy-hitter
/// identification — batch (`idldp-sim`) and streaming (`idldp-stream`)
/// top-k both call this, so their orderings can never drift apart.
///
/// Uses [`cmp_desc_nan_last`], so NaN values neither panic the sort nor
/// surface as top items. Runs in `O(n + k log k)`: a selection moves the
/// `k` top indices to the front, and only those are sorted. The comparator
/// (value, then index) is a strict total order, so the result is the
/// prefix of the fully sorted index list. `k` beyond the length returns
/// every index.
pub fn top_k_indices(values: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(values.len());
    let order = |&a: &usize, &b: &usize| cmp_desc_nan_last(values[a], values[b]).then(a.cmp(&b));
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.select_nth_unstable_by(k - 1, order);
    idx.truncate(k);
    idx.sort_unstable_by(order);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norms() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn sub_and_scale() {
        let d = sub(&[5.0, 2.0], &[1.0, 4.0]);
        assert_eq!(d, vec![4.0, -2.0]);
        let mut v = vec![2.0, -3.0];
        scale(&mut v, -0.5);
        assert_eq!(v, vec![-1.0, 1.5]);
    }

    #[test]
    fn finiteness() {
        assert!(all_finite(&[0.0, 1.0]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn top_k_orders_ties_and_truncates() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(top_k_indices(&v, 2), vec![2, 0]);
        assert_eq!(top_k_indices(&v, 10), vec![2, 0, 3, 1]);
        assert!(top_k_indices(&v, 0).is_empty());
        // Ties break toward the smaller index.
        assert_eq!(top_k_indices(&[1.0, 1.0, 1.0], 2), vec![0, 1]);
        // Signed zeros are still totally ordered (+0 ranks above -0).
        assert_eq!(top_k_indices(&[-0.0, 0.0], 1), vec![1]);
    }

    #[test]
    fn top_k_demotes_nan_below_everything() {
        let v = [1.0, f64::NAN, 3.0, f64::NEG_INFINITY, -f64::NAN];
        assert_eq!(top_k_indices(&v, 3), vec![2, 0, 3]);
        // NaNs come last (in index order), never first.
        assert_eq!(top_k_indices(&v, 5), vec![2, 0, 3, 1, 4]);
        assert_eq!(top_k_indices(&[f64::NAN, f64::NAN], 1), vec![0]);
        use std::cmp::Ordering;
        assert_eq!(
            cmp_desc_nan_last(f64::NAN, f64::INFINITY),
            Ordering::Greater
        );
        assert_eq!(cmp_desc_nan_last(f64::INFINITY, f64::NAN), Ordering::Less);
        assert_eq!(cmp_desc_nan_last(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(cmp_desc_nan_last(2.0, 1.0), Ordering::Less);
    }

    #[test]
    fn top_k_selection_matches_full_sort_reference() {
        let reference = |values: &[f64], k: usize| {
            let mut idx: Vec<usize> = (0..values.len()).collect();
            idx.sort_by(|&a, &b| cmp_desc_nan_last(values[a], values[b]).then(a.cmp(&b)));
            idx.truncate(k);
            idx
        };
        let edge = [
            2.0,
            f64::NAN,
            -0.0,
            2.0,
            0.0,
            f64::NEG_INFINITY,
            -f64::NAN,
            2.0,
            f64::INFINITY,
            -0.0,
            0.0,
            -1.5,
            f64::NAN,
            -1.5,
        ];
        // A longer vector with heavy ties: 300 values over 8 levels.
        let tied: Vec<f64> = (0..300u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as f64 - 3.0)
            .collect();
        let cases: [&[f64]; 4] = [&[], &[f64::NAN], &edge, &tied];
        for values in cases {
            let n = values.len();
            for k in [0, 1, 2, n / 2, n.saturating_sub(1), n, n + 3] {
                assert_eq!(
                    top_k_indices(values, k),
                    reference(values, k),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn lerp_endpoints() {
        let a = [0.0, 10.0];
        let b = [1.0, 20.0];
        assert_eq!(lerp(&a, &b, 0.0), vec![0.0, 10.0]);
        assert_eq!(lerp(&a, &b, 1.0), vec![1.0, 20.0]);
        assert_eq!(lerp(&a, &b, 0.5), vec![0.5, 15.0]);
    }
}
