//! Error metrics for frequency estimation.
//!
//! The paper reports the *total MSE* `Σ_i (ĉ_i − c*_i)²` over all items
//! (one trial's squared error; averaged over trials by the runner) and, in
//! Fig. 5, the same restricted to the top-5 most frequent items.

/// Total squared error over all items.
///
/// # Panics
/// Panics if the slices disagree in length.
pub fn total_squared_error(estimate: &[f64], truth: &[f64]) -> f64 {
    idldp_num::stats::total_squared_error(estimate, truth)
}

/// Squared error restricted to the given item indices (e.g. the top-k most
/// frequent items).
///
/// # Panics
/// Panics if some index is out of range.
pub fn squared_error_on(estimate: &[f64], truth: &[f64], items: &[usize]) -> f64 {
    items
        .iter()
        .map(|&i| {
            let d = estimate[i] - truth[i];
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_squared() {
        assert_eq!(total_squared_error(&[1.0, 3.0], &[0.0, 1.0]), 5.0);
    }

    #[test]
    fn restricted_squared() {
        let est = [1.0, 5.0, 10.0];
        let truth = [0.0, 5.0, 8.0];
        assert_eq!(squared_error_on(&est, &truth, &[0, 2]), 1.0 + 4.0);
        assert_eq!(squared_error_on(&est, &truth, &[]), 0.0);
    }
}
