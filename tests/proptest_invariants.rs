//! Property-based tests over the workspace's core invariants.
//!
//! These encode the paper's theorems as properties over *randomized*
//! problem instances: budgets, level structures, parameters and datasets
//! are drawn by proptest, and the invariant must hold for every draw.

use idldp::prelude::*;
use idldp_core::audit;
use idldp_core::relations;
use idldp_num::rng::stream_rng;
use proptest::prelude::*;

/// Strategy: a valid level partition with t in 1..=4 levels over m items.
fn arb_levels() -> impl Strategy<Value = LevelPartition> {
    (1usize..=4, 2usize..=10).prop_flat_map(|(t, per_level)| {
        // Budgets strictly ascending in [0.4, 4.4].
        let budgets: Vec<f64> = (0..t).map(|i| 0.4 + i as f64).collect();
        Just((t, per_level, budgets)).prop_map(|(t, per_level, budgets)| {
            let level_of: Vec<usize> = (0..t * per_level).map(|i| i % t).collect();
            LevelPartition::new(
                level_of,
                budgets.iter().map(|&b| Epsilon::new(b).unwrap()).collect(),
            )
            .unwrap()
        })
    })
}

/// Strategy: arbitrary feasible-domain raw parameters (not necessarily
/// privacy-feasible) with 0 < b < a < 1.
fn arb_ab_pair() -> impl Strategy<Value = (f64, f64)> {
    (0.02f64..0.95, 0.02f64..0.95).prop_filter_map("need b < a", |(x, y)| {
        let (lo, hi) = if x < y { (x, y) } else { (y, x) };
        (hi - lo > 0.02).then_some((hi, lo))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every solver model returns Eq. 7-feasible parameters, for any level
    /// structure: by the solver's own check, and by the independent audit
    /// of the mechanism built from them.
    #[test]
    fn solvers_always_feasible(levels in arb_levels(), model in 0usize..3) {
        let params = IdueSolver::new(Model::ALL[model]).solve(&levels).unwrap();
        prop_assert!(params.verify(&levels, RFunction::Min, 1e-6).is_ok());
        let mech = Idue::new(levels, &params).unwrap();
        let audited =
            audit::audit_unary_encoding(mech.unary_encoding(), &mech.intended_notion(), 1e-6);
        prop_assert!(audited.is_ok(), "{:?}", audited);
    }

    /// Lemma 1: any mechanism satisfying E-MinID-LDP (by Eq. 7 audit)
    /// satisfies min(max E, 2 min E)-LDP.
    #[test]
    fn lemma1_for_solved_mechanisms(levels in arb_levels()) {
        let params = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
        let mech = Idue::new(levels.clone(), &params).unwrap();
        let cap = relations::minid_implies_ldp(&levels.item_budget_set());
        prop_assert!(mech.ldp_epsilon() <= cap + 1e-6,
            "ldp eps {} exceeds Lemma 1 cap {}", mech.ldp_epsilon(), cap);
    }

    /// The analytic Eq. 7 bound equals the exhaustive worst case over all
    /// outputs, for arbitrary (not just solved) per-bit parameters.
    #[test]
    fn eq7_is_exact_worst_case(
        p0 in arb_ab_pair(),
        p1 in arb_ab_pair(),
        p2 in arb_ab_pair(),
    ) {
        let ue = UnaryEncoding::new(
            vec![p0.0, p1.0, p2.0],
            vec![p0.1, p1.1, p2.1],
        ).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                if i == j { continue; }
                let exhaustive = audit::ue_worst_ratio_exhaustive(&ue, i, j);
                prop_assert!((exhaustive - ue.pair_log_ratio(i, j)).abs() < 1e-9);
            }
        }
    }

    /// Estimator calibration inverts the expected count map exactly
    /// (the algebra behind Theorem 3's unbiasedness).
    #[test]
    fn estimator_inverts_expectation(
        (a, b) in arb_ab_pair(),
        n in 100u64..100_000,
        frac in 0.0f64..1.0,
    ) {
        let c_star = (n as f64 * frac).round();
        let expected_count = c_star * a + (n as f64 - c_star) * b;
        let est = FrequencyEstimator::new(vec![a], vec![b], n, 1.0).unwrap();
        // Feed the exact expected count (real-valued arithmetic checked via
        // the calibration formula directly).
        let calibrated = (expected_count - n as f64 * b) / (a - b);
        prop_assert!((calibrated - c_star).abs() < 1e-6);
        // And the integer-count path is within rounding of the same value.
        let via_est = est.estimate(&[expected_count.round() as u64]).unwrap()[0];
        prop_assert!((via_est - c_star).abs() <= 1.0 / (a - b) + 1e-9);
    }

    /// Eq. 17 set budgets are at least min(E) and at most ln of the max
    /// e^budget — and monotone in the padding regime.
    #[test]
    fn set_budget_bounds(levels in arb_levels(), l in 1usize..6) {
        let params = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
        let mech = IduePs::new(levels.clone(), &params, l).unwrap();
        let m = levels.num_items();
        let min_e = levels.min_budget().get();
        let max_e = levels.max_budget().get();
        for size in 1..=m.min(5) {
            let set: Vec<usize> = (0..size).collect();
            let eps_x = mech.set_budget(&set).unwrap();
            prop_assert!(eps_x >= min_e - 1e-9, "set budget {eps_x} below min {min_e}");
            prop_assert!(eps_x <= max_e + 1e-9, "set budget {eps_x} above max {max_e}");
        }
    }

    /// Pad-and-sample always returns an element of x ∪ S, and never a dummy
    /// when |x| >= ℓ.
    #[test]
    fn ps_sample_support(l in 1usize..6, size in 0usize..8, seed in any::<u64>()) {
        let ps = idldp_core::ps::PaddingAndSampling::new(l).unwrap();
        let x: Vec<usize> = (0..size).map(|i| i * 3).collect();
        let mut rng = stream_rng(seed, 0);
        for _ in 0..50 {
            match ps.pad_and_sample(&x, &mut rng) {
                idldp_core::ps::SampledItem::Real(i) => prop_assert!(x.contains(&i)),
                idldp_core::ps::SampledItem::Dummy(j) => {
                    prop_assert!(j < l);
                    prop_assert!(size < l, "dummy sampled although |x| >= l");
                }
            }
        }
    }

    /// MinID composition accounting matches manual addition.
    #[test]
    fn composition_accounting(
        b1 in proptest::collection::vec(0.1f64..3.0, 3),
        b2 in proptest::collection::vec(0.1f64..3.0, 3),
    ) {
        use idldp_core::composition::MinIdLdpAccountant;
        let s1 = BudgetSet::from_values(&b1).unwrap();
        let s2 = BudgetSet::from_values(&b2).unwrap();
        let mut acc = MinIdLdpAccountant::new(3).unwrap();
        acc.compose(&s1).unwrap();
        acc.compose(&s2).unwrap();
        for x in 0..3 {
            prop_assert!((acc.total_for(x).unwrap() - (b1[x] + b2[x])).abs() < 1e-12);
        }
        // Pair bound = min of totals (Theorem 2 through the Min r-function).
        let pb = acc.pair_bound(0, 1).unwrap();
        prop_assert!((pb - (b1[0]+b2[0]).min(b1[1]+b2[1])).abs() < 1e-12);
    }

    /// The worst-case objective (Eq. 10) upper-bounds the true total MSE of
    /// the built mechanism for any data distribution.
    #[test]
    fn worst_case_dominates_true_mse(
        levels in arb_levels(),
        mass_level in 0usize..4,
    ) {
        let params = IdueSolver::new(Model::Opt2).solve(&levels).unwrap();
        let mech = Idue::new(levels.clone(), &params).unwrap();
        let n = 1000u64;
        let est = mech.estimator(n);
        let m = levels.num_items();
        // All users concentrated on one item of the chosen level.
        let item = levels
            .items_in_level(mass_level % levels.num_levels())
            .first()
            .copied()
            .unwrap();
        let mut truth = vec![0.0; m];
        truth[item] = n as f64;
        let actual = est.theoretical_total_mse(&truth).unwrap();
        let worst = est.worst_case_total_mse();
        prop_assert!(actual <= worst + 1e-6, "actual {actual} worst {worst}");
    }
}
