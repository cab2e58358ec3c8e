//! The solver facade: pick a model, get feasible [`LevelParams`].
//!
//! [`IdueSolver`] wires a [`Model`] and an [`RFunction`] to a
//! [`LevelPartition`], runs the corresponding optimization, *verifies* the
//! solution against the Eq. 7 constraints, and caches it (experiments solve
//! the same `(levels, model)` instance for every trial; the cache turns that
//! into one solve per sweep point).

use crate::{opt0, opt1, opt2, pair_budget_matrix_with_policy};
use idldp_core::levels::LevelPartition;
use idldp_core::notion::RFunction;
use idldp_core::params::LevelParams;
use idldp_core::policy::PolicyGraph;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Which of the paper's optimization models to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Eq. 10 — non-convex worst-case model (best utility, slowest).
    Opt0,
    /// Eq. 12 — RAPPOR-structured convex model.
    Opt1,
    /// Eq. 13 — OUE-structured convex model.
    Opt2,
}

impl Model {
    /// Short lowercase name (`"opt0"`, ...), matching the paper's labels.
    pub fn name(self) -> &'static str {
        match self {
            Model::Opt0 => "opt0",
            Model::Opt1 => "opt1",
            Model::Opt2 => "opt2",
        }
    }

    /// All models, in paper order.
    pub const ALL: [Model; 3] = [Model::Opt0, Model::Opt1, Model::Opt2];
}

/// Errors from [`IdueSolver::solve`].
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// Structurally invalid inputs (dimension mismatches, empty problems).
    BadInput(String),
    /// The underlying numerical method failed to converge or produced an
    /// invalid point.
    Numerical(String),
    /// The solution failed post-verification against the privacy
    /// constraints (a bug guard; should not occur).
    Infeasible(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::BadInput(m) => write!(f, "bad input: {m}"),
            SolveError::Numerical(m) => write!(f, "numerical failure: {m}"),
            SolveError::Infeasible(m) => write!(f, "infeasible solution: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Cache key: model, r-function, policy mask, and the level structure
/// quantized to 1e-9.
#[derive(Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    model: Model,
    r: &'static str,
    policy: Option<Vec<bool>>,
    budgets_nano: Vec<u64>,
    counts: Vec<usize>,
}

/// Solver facade with per-instance memoization.
///
/// # Examples
/// ```
/// use idldp_core::budget::Epsilon;
/// use idldp_core::levels::LevelPartition;
/// use idldp_core::notion::RFunction;
/// use idldp_opt::{IdueSolver, Model};
///
/// let levels = LevelPartition::new(
///     vec![0, 1, 1, 1],
///     vec![Epsilon::new(1.0).unwrap(), Epsilon::new(4.0).unwrap()],
/// ).unwrap();
/// let params = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
/// // Solutions are always verified feasible before being returned.
/// assert!(params.verify(&levels, RFunction::Min, 1e-6).is_ok());
/// ```
pub struct IdueSolver {
    model: Model,
    r: RFunction,
    /// Optional incomplete policy graph (Section IV-C); `None` = complete.
    policy: Option<PolicyGraph>,
    /// Post-verification tolerance for accepting a solution.
    verify_tol: f64,
    cache: Mutex<HashMap<CacheKey, LevelParams>>,
}

impl IdueSolver {
    /// Creates a solver for `model` under MinID-LDP (`r = min`).
    pub fn new(model: Model) -> Self {
        Self {
            model,
            r: RFunction::Min,
            policy: None,
            verify_tol: 1e-7,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the r-function (AvgID-LDP, MaxID-LDP ablations).
    pub fn with_r(mut self, r: RFunction) -> Self {
        self.r = r;
        self
    }

    /// Restricts protection to an incomplete policy graph (Section IV-C):
    /// only the graph's protected level pairs receive Eq. 7 constraints.
    pub fn with_policy(mut self, policy: PolicyGraph) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The model this solver runs.
    pub fn model(&self) -> Model {
        self.model
    }

    fn cache_key(&self, levels: &LevelPartition) -> CacheKey {
        let t = levels.num_levels();
        CacheKey {
            model: self.model,
            r: self.r.name(),
            policy: self.policy.as_ref().map(|g| {
                (0..t)
                    .flat_map(|i| (0..t).map(move |j| (i, j)))
                    .map(|(i, j)| g.is_protected(i, j))
                    .collect()
            }),
            budgets_nano: levels
                .budgets()
                .iter()
                .map(|e| (e.get() * 1e9).round() as u64)
                .collect(),
            counts: levels.counts().to_vec(),
        }
    }

    /// Solves for the per-level `(a, b)` parameters of `levels`.
    ///
    /// The returned parameters are guaranteed to satisfy the Eq. 7
    /// constraints for this solver's r-function (within `1e-7` slack, the
    /// post-verification tolerance).
    pub fn solve(&self, levels: &LevelPartition) -> Result<LevelParams, SolveError> {
        let policy = match &self.policy {
            Some(g) => {
                if g.num_levels() != levels.num_levels() {
                    return Err(SolveError::BadInput(format!(
                        "policy graph has {} levels, partition has {}",
                        g.num_levels(),
                        levels.num_levels()
                    )));
                }
                g.clone()
            }
            None => PolicyGraph::complete(levels.num_levels()).expect("partition is non-empty"),
        };
        let key = self.cache_key(levels);
        if let Some(hit) = self.cache.lock().get(&key) {
            return Ok(hit.clone());
        }
        let rmat = pair_budget_matrix_with_policy(levels, self.r, &policy);
        let counts = levels.counts();
        let params = match self.model {
            Model::Opt1 => {
                let taus = opt1::solve_taus(&rmat, counts)?;
                LevelParams::from_rappor_taus(&taus)
                    .map_err(|e| SolveError::Numerical(e.to_string()))?
            }
            Model::Opt2 => {
                let bs = opt2::solve_bs(&rmat, counts)?;
                LevelParams::from_oue_bs(&bs).map_err(|e| SolveError::Numerical(e.to_string()))?
            }
            Model::Opt0 => {
                let (a, b) = opt0::solve_ab(&rmat, counts)?;
                LevelParams::new(a, b).map_err(|e| SolveError::Numerical(e.to_string()))?
            }
        };
        policy
            .verify_params(&params, levels, self.r, self.verify_tol)
            .map_err(|e| SolveError::Infeasible(e.to_string()))?;
        self.cache.lock().insert(key, params.clone());
        Ok(params)
    }

    /// Number of cached solutions (diagnostics).
    pub fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::worst_case_objective;
    use idldp_core::budget::Epsilon;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn two_level() -> LevelPartition {
        LevelPartition::new(vec![0, 1, 1, 1, 1], vec![eps(1.0), eps(4.0)]).unwrap()
    }

    #[test]
    fn all_models_produce_feasible_params() {
        let levels = two_level();
        for model in Model::ALL {
            let solver = IdueSolver::new(model);
            let params = solver.solve(&levels).unwrap();
            assert!(
                params.verify(&levels, RFunction::Min, 1e-6).is_ok(),
                "{model:?}"
            );
        }
    }

    #[test]
    fn opt0_dominates_convex_models() {
        let levels = two_level();
        let counts = levels.counts();
        let v: Vec<f64> = Model::ALL
            .iter()
            .map(|&m| {
                let p = IdueSolver::new(m).solve(&levels).unwrap();
                worst_case_objective(&p, counts)
            })
            .collect();
        assert!(v[0] <= v[1] + 1e-6, "opt0 {} vs opt1 {}", v[0], v[1]);
        assert!(v[0] <= v[2] + 1e-6, "opt0 {} vs opt2 {}", v[0], v[2]);
    }

    #[test]
    fn cache_hits_on_repeat_solves() {
        let levels = two_level();
        let solver = IdueSolver::new(Model::Opt1);
        let p1 = solver.solve(&levels).unwrap();
        assert_eq!(solver.cache_len(), 1);
        let p2 = solver.solve(&levels).unwrap();
        assert_eq!(solver.cache_len(), 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn distinct_levels_get_distinct_cache_entries() {
        let solver = IdueSolver::new(Model::Opt2);
        let l1 = two_level();
        let l2 = LevelPartition::new(vec![0, 1, 1, 1, 1], vec![eps(1.0), eps(2.0)]).unwrap();
        solver.solve(&l1).unwrap();
        solver.solve(&l2).unwrap();
        assert_eq!(solver.cache_len(), 2);
    }

    #[test]
    fn avg_r_function_is_looser_than_min() {
        // AvgID-LDP permits more leakage per pair, so the solved worst-case
        // objective can only improve (or tie).
        let levels = two_level();
        let counts = levels.counts();
        let p_min = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
        let p_avg = IdueSolver::new(Model::Opt1)
            .with_r(RFunction::Avg)
            .solve(&levels)
            .unwrap();
        assert!(
            worst_case_objective(&p_avg, counts) <= worst_case_objective(&p_min, counts) + 1e-9
        );
        // And the avg solution must satisfy Avg (it may violate Min).
        assert!(p_avg.verify(&levels, RFunction::Avg, 1e-6).is_ok());
    }

    #[test]
    fn uniform_budgets_reduce_to_ldp_baselines() {
        // Single level at ε: opt1 ≡ RAPPOR, opt2 ≡ OUE.
        let levels = LevelPartition::uniform(8, eps(1.5)).unwrap();
        let p1 = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
        let a_rap = (0.75_f64).exp() / ((0.75_f64).exp() + 1.0);
        assert!((p1.a()[0] - a_rap).abs() < 1e-4, "a={}", p1.a()[0]);
        let p2 = IdueSolver::new(Model::Opt2).solve(&levels).unwrap();
        assert!((p2.b()[0] - 1.0 / (1.5_f64.exp() + 1.0)).abs() < 1e-4);
    }

    #[test]
    fn incomplete_policy_graph_improves_utility() {
        // Section IV-C: the gain beyond 2·min(E) appears when loose inputs
        // need NOT be indistinguishable from the most-protected inputs.
        // Group policy: sensitive level 0 protected within itself; loose
        // levels 1 and 2 protected between each other — no cross edges to
        // level 0 (Blowfish-style secret pairs).
        let levels =
            LevelPartition::new(vec![0, 1, 1, 2, 2, 2], vec![eps(0.5), eps(2.0), eps(4.0)])
                .unwrap();
        let group = idldp_core::policy::PolicyGraph::from_edges(3, &[(1, 2)]).unwrap();
        let counts = levels.counts();
        let complete = IdueSolver::new(Model::Opt1).solve(&levels).unwrap();
        let sparse = IdueSolver::new(Model::Opt1)
            .with_policy(group.clone())
            .solve(&levels)
            .unwrap();
        let v_complete = worst_case_objective(&complete, counts);
        let v_sparse = worst_case_objective(&sparse, counts);
        assert!(
            v_sparse < v_complete,
            "group policy {v_sparse} must beat complete {v_complete}"
        );
        // The sparse solution still satisfies its own (incomplete) notion.
        assert!(group
            .verify_params(&sparse, &levels, RFunction::Min, 1e-6)
            .is_ok());
        // The unprotected cross pair (0, 2) exceeds Lemma 1's 2·min(E) cap
        // — the paper's >2x gain claim for incomplete graphs.
        let cross = sparse.pair_log_ratio(2, 0).max(sparse.pair_log_ratio(0, 2));
        assert!(
            cross > 2.0 * 0.5 + 1e-6,
            "unprotected pair should exceed 2 min(E): {cross}"
        );
    }

    #[test]
    fn policy_graph_dimension_mismatch_rejected() {
        let levels = two_level();
        let err = IdueSolver::new(Model::Opt1)
            .with_policy(idldp_core::policy::PolicyGraph::complete(3).unwrap())
            .solve(&levels)
            .unwrap_err();
        assert!(matches!(err, SolveError::BadInput(_)));
    }

    #[test]
    fn policy_graphs_cached_separately() {
        let levels = two_level();
        let solver_complete = IdueSolver::new(Model::Opt2);
        let solver_sparse = IdueSolver::new(Model::Opt2)
            .with_policy(idldp_core::policy::PolicyGraph::from_edges(2, &[]).unwrap());
        let p1 = solver_complete.solve(&levels).unwrap();
        let p2 = solver_sparse.solve(&levels).unwrap();
        // Dropping the cross constraint must change (improve) the solution.
        assert_ne!(p1, p2);
    }

    #[test]
    fn twenty_levels_solve_quickly_enough() {
        // t = 20 (the paper's Fig. 4b exponential-level setting) must be
        // tractable for the convex models.
        let budgets: Vec<Epsilon> = (0..20).map(|i| eps(1.0 + 3.0 * i as f64 / 19.0)).collect();
        let level_of: Vec<usize> = (0..200).map(|i| i % 20).collect();
        let levels = LevelPartition::new(level_of, budgets).unwrap();
        for model in [Model::Opt1, Model::Opt2] {
            let p = IdueSolver::new(model).solve(&levels).unwrap();
            assert!(p.verify(&levels, RFunction::Min, 1e-6).is_ok(), "{model:?}");
        }
    }
}
