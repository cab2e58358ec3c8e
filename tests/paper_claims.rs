//! Integration: the paper's concrete numerical claims.
//!
//! Table II values, the Lemma 1 sandwich, Theorem 4's exhaustive validity,
//! the opt-model dominance ordering the evaluation section relies on, and
//! the utility claims `examples/medical_survey.rs` and
//! `examples/clickstream_sets.rs` print, run at the examples' seeds, budget
//! schemes and aggregate mode.

use idldp::prelude::*;
use idldp_core::relations;
use idldp_data::budgets::BudgetScheme;
use idldp_data::kosarak::{generate, KosarakConfig};
use idldp_data::synthetic;
use idldp_num::rng::stream_rng;
use idldp_opt::worst_case_objective;
use idldp_sim::SimulationMode;

fn toy_levels() -> LevelPartition {
    LevelPartition::new(
        vec![0, 1, 1, 1, 1],
        vec![
            Epsilon::new(4.0_f64.ln()).unwrap(),
            Epsilon::new(6.0_f64.ln()).unwrap(),
        ],
    )
    .unwrap()
}

#[test]
fn table2_rappor_and_oue_columns() {
    // RAPPOR at ε = ln 4: flip = 1/3, per-bit variance exactly 2n.
    let rappor = Idue::rappor(5, Epsilon::new(4.0_f64.ln()).unwrap()).unwrap();
    let a = rappor.unary_encoding().a()[0];
    let b = rappor.unary_encoding().b()[0];
    assert!((1.0 - a - 1.0 / 3.0).abs() < 1e-12, "flip prob 1/3");
    let var_coeff = b * (1.0 - b) / ((a - b) * (a - b));
    assert!((var_coeff - 2.0).abs() < 1e-9, "Var = 2n per bit");

    // OUE at ε = ln 4: a = 1/2, b = 0.2, variance 1.78n + c*_i.
    let oue = Idue::oue(5, Epsilon::new(4.0_f64.ln()).unwrap()).unwrap();
    let a = oue.unary_encoding().a()[0];
    let b = oue.unary_encoding().b()[0];
    assert!((a - 0.5).abs() < 1e-12);
    assert!((b - 0.2).abs() < 1e-12);
    let k = b * (1.0 - b) / ((a - b) * (a - b));
    assert!((k - 16.0 / 9.0).abs() < 1e-9, "1.78n coefficient");
    let c = (1.0 - a - b) / (a - b);
    assert!((c - 1.0).abs() < 1e-9, "+1.0 c* coefficient");
}

#[test]
fn table2_idue_beats_both_baselines_in_worst_case() {
    let levels = toy_levels();
    let counts = levels.counts(); // [1, 4]
    let idue = IdueSolver::new(Model::Opt0).solve(&levels).unwrap();
    let v_idue = worst_case_objective(&idue, counts);
    // OUE at ln 4 in per-level form.
    let oue = LevelParams::uniform(2, 0.5, 0.2).unwrap();
    let v_oue = worst_case_objective(&oue, counts);
    // RAPPOR at ln 4.
    let rap = LevelParams::uniform(2, 2.0 / 3.0, 1.0 / 3.0).unwrap();
    let v_rap = worst_case_objective(&rap, counts);
    // Paper: 8.68–8.86n vs 9.9n vs 10n. Our solver may do slightly better
    // than the paper's reported solution but must respect the ordering and
    // be within the published ballpark.
    assert!(v_idue < v_oue, "IDUE {v_idue} vs OUE {v_oue}");
    assert!(v_oue < v_rap, "OUE {v_oue} vs RAPPOR {v_rap}");
    assert!((v_rap - 10.0).abs() < 0.1, "RAPPOR total ≈ 10n");
    assert!((v_oue - 9.9).abs() < 0.1, "OUE total ≈ 9.9n");
    assert!(
        (8.0..=8.9).contains(&v_idue),
        "IDUE worst-case total {v_idue} should sit in the paper's 8.68–8.86 range or better"
    );
}

#[test]
fn table2_idue_flip_probabilities_match_paper() {
    let levels = toy_levels();
    let p = IdueSolver::new(Model::Opt0).solve(&levels).unwrap();
    // Paper: flips 0.41 / 0.33 (x=1) and 0.33 / 0.28 (x=0). Allow ±0.03 —
    // the optimum is nearly flat near the solution.
    assert!((1.0 - p.a()[0] - 0.41).abs() < 0.03, "a0 = {}", p.a()[0]);
    assert!((1.0 - p.a()[1] - 0.33).abs() < 0.03, "a1 = {}", p.a()[1]);
    assert!((p.b()[0] - 0.33).abs() < 0.03, "b0 = {}", p.b()[0]);
    assert!((p.b()[1] - 0.28).abs() < 0.03, "b1 = {}", p.b()[1]);
}

#[test]
fn lemma1_sandwich_holds_for_solved_mechanisms() {
    let levels = toy_levels();
    let budgets = levels.item_budget_set();
    let implied = relations::minid_implies_ldp(&budgets);
    assert!((implied - 6.0_f64.ln().min(2.0 * 4.0_f64.ln())).abs() < 1e-12);
    for model in Model::ALL {
        let params = IdueSolver::new(model).solve(&levels).unwrap();
        let mech = Idue::new(levels.clone(), &params).unwrap();
        // The solved mechanism's actual LDP budget obeys the Lemma 1 cap…
        assert!(
            mech.ldp_epsilon() <= implied + 1e-6,
            "{model:?}: {} > {implied}",
            mech.ldp_epsilon()
        );
        // …and (for the discriminating models) genuinely exceeds min(E),
        // i.e. MinID-LDP really did relax plain LDP.
        if model != Model::Opt0 {
            // opt1/opt2 are symmetric structures — still > min(E) here.
            assert!(
                mech.ldp_epsilon() > 4.0_f64.ln() - 1e-6,
                "{model:?} did not use the relaxation"
            );
        }
    }
}

#[test]
fn opt_model_dominance_ordering() {
    // opt0 optimizes the true worst case over a superset of both restricted
    // parameterizations ⇒ opt0 <= min(opt1, opt2) everywhere.
    for (b0, b1) in [(0.5, 1.0), (1.0, 4.0), (2.0, 2.4), (0.7, 2.8)] {
        let levels = LevelPartition::new(
            vec![0, 0, 1, 1, 1, 1, 1, 1],
            vec![Epsilon::new(b0).unwrap(), Epsilon::new(b1).unwrap()],
        )
        .unwrap();
        let counts = levels.counts();
        let v: Vec<f64> = Model::ALL
            .iter()
            .map(|&m| worst_case_objective(&IdueSolver::new(m).solve(&levels).unwrap(), counts))
            .collect();
        assert!(
            v[0] <= v[1] + 1e-6,
            "budgets ({b0},{b1}): opt0 {} opt1 {}",
            v[0],
            v[1]
        );
        assert!(
            v[0] <= v[2] + 1e-6,
            "budgets ({b0},{b1}): opt0 {} opt2 {}",
            v[0],
            v[2]
        );
    }
}

#[test]
fn theorem4_exhaustive_on_three_level_domain() {
    use idldp_core::audit::audit_idue_ps_exhaustive;
    // Three levels over six items, ℓ = 2 → 8 bits: enumerable.
    let levels = LevelPartition::new(
        vec![0, 0, 1, 1, 2, 2],
        vec![
            Epsilon::new(0.6).unwrap(),
            Epsilon::new(1.2).unwrap(),
            Epsilon::new(2.4).unwrap(),
        ],
    )
    .unwrap();
    let params = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
    let mech = IduePs::new(levels, &params, 2).unwrap();
    let sets: Vec<Vec<usize>> = vec![
        vec![0],
        vec![4],
        vec![0, 2],
        vec![2, 4],
        vec![0, 1, 2, 3],
        vec![],
    ];
    let audits = audit_idue_ps_exhaustive(&mech, &sets, 1e-9).expect("Theorem 4 must hold");
    assert_eq!(audits.len(), 15);
    for a in &audits {
        assert!(a.observed <= a.allowed + 1e-9, "{a:?}");
    }
}

#[test]
fn sequential_composition_theorem2_numeric() {
    // Compose the same IDUE mechanism twice and exhaustively check the
    // doubled MinID-LDP bound on the product mechanism (small domain).
    let levels = LevelPartition::new(
        vec![0, 1, 1],
        vec![Epsilon::new(0.8).unwrap(), Epsilon::new(1.6).unwrap()],
    )
    .unwrap();
    let params = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
    let mech = Idue::new(levels.clone(), &params).unwrap();
    let ue = mech.unary_encoding();
    // Product mechanism output = pair of outputs; worst ratio over pairs of
    // inputs is the sum of the per-run worst ratios.
    for i in 0..3 {
        for j in 0..3 {
            if i == j {
                continue;
            }
            let single = ue.pair_log_ratio(i, j);
            let composed = 2.0 * single;
            let allowed = 2.0
                * RFunction::Min.combine(
                    levels.item_budget(i).unwrap(),
                    levels.item_budget(j).unwrap(),
                );
            assert!(
                composed <= allowed + 1e-9,
                "pair ({i},{j}): composed {composed} vs allowed {allowed}"
            );
        }
    }
}

/// How far `mse` sits below `baseline`, as a fraction of the baseline.
fn reduction(mse: f64, baseline: f64) -> f64 {
    1.0 - mse / baseline
}

#[test]
fn idue_beats_oue_and_rappor_on_the_medical_survey() {
    // examples/medical_survey.rs: power-law frequencies over 200
    // conditions, paper-default budget levels, IDUE under MinID-LDP
    // against baselines that run everything at the strictest budget.
    let seed = 7_u64;
    let m = 200;
    let dataset = synthetic::power_law_with(&mut stream_rng(seed, 0), 100_000, m, 2.0);
    let specs = [
        MechanismSpec::Rappor,
        MechanismSpec::Oue,
        MechanismSpec::Idue(Model::Opt0),
        MechanismSpec::Idue(Model::Opt1),
    ];
    for eps in [0.5_f64, 1.0, 2.0] {
        let levels = BudgetScheme::paper_default()
            .assign(m, Epsilon::new(eps).unwrap(), &mut stream_rng(seed, 1))
            .unwrap();
        let results = SingleItemExperiment::new(&dataset, levels, 10, seed)
            .with_mode(SimulationMode::Aggregate)
            .run(&specs)
            .unwrap();
        let rappor = results[0].empirical_mse;
        let oue = results[1].empirical_mse;
        for idue in &results[2..] {
            let mse = idue.empirical_mse;
            assert!(
                reduction(mse, oue) >= 0.10,
                "eps {eps}: {} total MSE {mse} is not 10% below OUE {oue}",
                idue.name
            );
            assert!(
                reduction(mse, rappor) >= 0.10,
                "eps {eps}: {} total MSE {mse} is not 10% below RAPPOR {rappor}",
                idue.name
            );
        }
    }
}

#[test]
fn idue_ps_beats_the_ps_baselines_on_clickstream_sets() {
    // examples/clickstream_sets.rs: Kosarak-like click sets, base budget
    // 1.5, padding at the 90th-percentile set size.
    let seed = 11_u64;
    let config = KosarakConfig {
        users: 50_000,
        pages: 500,
        mean_set_size: 6.0,
        zipf_exponent: 1.2,
        max_set_size: 60,
    };
    let dataset = generate(&mut stream_rng(seed, 0), &config);
    let levels = BudgetScheme::paper_default()
        .assign(
            dataset.domain_size(),
            Epsilon::new(1.5).unwrap(),
            &mut stream_rng(seed, 1),
        )
        .unwrap();
    let padding = dataset.percentile_set_size(0.9).max(1);
    let results = ItemSetExperiment::new(&dataset, levels, padding, 5, seed)
        .with_mode(SimulationMode::Aggregate)
        .run(&[
            MechanismSpec::Rappor,
            MechanismSpec::Oue,
            MechanismSpec::Idue(Model::Opt0),
        ])
        .unwrap();
    let idue_ps = results[2].empirical_mse;
    for (baseline, name) in results[..2].iter().zip(["RAPPOR-PS", "OUE-PS"]) {
        let base = baseline.empirical_mse;
        assert!(
            reduction(idue_ps, base) >= 0.20,
            "IDUE-PS total MSE {idue_ps} is not 20% below {name} {base}"
        );
    }
}
