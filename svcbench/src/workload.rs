//! The three workloads: their frozen parameters, the mechanism each one
//! serves, and the seeded generation of every report a run sends.

use idldp_core::mechanism::{Input, Mechanism};
use idldp_core::report::{ReportData, ReportShape};
use idldp_data::budgets::BudgetScheme;
use idldp_num::rng::stream_rng;
use idldp_sim::{BuildContext, MechanismRegistry};
use rand::Rng;
use std::sync::Arc;

/// Seed of the mechanism *configuration* (the per-item budget assignment),
/// fixed so every run serves the same mechanism; the workload seed only
/// drives the generated inputs. Equal to `idldp serve`'s default `--seed`.
pub const CONFIG_SEED: u64 = 20200401;

/// Top-k size of every `TopK` query.
pub const TOP_K: usize = 16;

/// Closed-loop rounds per run; `ingest_rps` and `reports_per_cpu_s` are
/// medians over rounds, so a burst of host noise spoils one round, not
/// the run.
pub const ROUNDS: usize = 9;

/// Share of `--seconds` the closed-loop phase takes at the nominal rate.
pub const CLOSED_SHARE: f64 = 0.5;

/// Share of `--seconds` the open-loop phase lasts.
pub const OPEN_SHARE: f64 = 0.3;

/// Reports per frame of the closed-loop phase, whatever the workload's
/// open-loop frame size: the phase measures bulk ingest, so per-frame
/// costs are amortised there (they show in the open-loop acks and the
/// replayed layers), and the throughput is bound by work the server does
/// per report rather than by socket round trips, which a small shared host
/// schedules too unevenly to measure against a bound.
pub const CLOSED_FRAME: usize = 1024;

/// One workload's frozen parameters.
#[derive(Debug)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Registry name of the mechanism (built like `idldp serve` builds it).
    pub mechanism: &'static str,
    /// Domain size.
    pub m: usize,
    /// Base privacy budget ε.
    pub eps: f64,
    /// Reports per open-loop `Reports` frame.
    pub frame: usize,
    /// Collectors behind a coordinator; 0 serves the load directly.
    pub collectors: usize,
    /// Users each collector restores from its checkpoint at start-up.
    pub restored_per_collector: usize,
    /// Closed-loop report rate the phase is sized for (reports/s); the
    /// report count is fixed from it, so a faster server finishes sooner.
    pub closed_rps: f64,
    /// Offered open-loop report rate (reports/s), kept far below
    /// closed-loop saturation so that a host running at half speed still
    /// serves it without `Busy` refusals.
    pub open_rps: f64,
    /// Offered open-loop query rates (per second).
    pub estimates_per_s: f64,
    /// Offered `TopK` rate.
    pub topk_per_s: f64,
    /// Offered `Checkpoint` rate.
    pub checkpoints_per_s: f64,
    /// Queries the traced replay answers.
    pub replay_queries: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "olh-fold",
        mechanism: "olh",
        m: 1000,
        eps: 1.0,
        frame: 1024,
        collectors: 0,
        restored_per_collector: 0,
        closed_rps: 260_000.0,
        open_rps: 64_000.0,
        estimates_per_s: 20.0,
        topk_per_s: 5.0,
        checkpoints_per_s: 5.0,
        replay_queries: 100,
    },
    Spec {
        name: "idue-frames",
        mechanism: "idue-opt1",
        m: 64,
        eps: 1.0,
        frame: 16,
        collectors: 0,
        restored_per_collector: 0,
        closed_rps: 2_800_000.0,
        open_rps: 64_000.0,
        estimates_per_s: 50.0,
        topk_per_s: 10.0,
        checkpoints_per_s: 5.0,
        replay_queries: 400,
    },
    Spec {
        name: "coord-query",
        mechanism: "grr",
        m: 100_000,
        eps: 1.0,
        frame: 64,
        collectors: 2,
        restored_per_collector: 200_000,
        closed_rps: 8_000_000.0,
        open_rps: 12_800.0,
        estimates_per_s: 10.0,
        topk_per_s: 5.0,
        checkpoints_per_s: 5.0,
        replay_queries: 20,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Builds the workload's mechanism exactly as `idldp serve --mechanism
/// NAME --m M --eps E` does: paper-default per-item budgets over RNG
/// stream `(CONFIG_SEED, 1)`, baselines at the minimum budget.
pub fn mechanism(spec: &Spec) -> Result<Arc<dyn Mechanism>, String> {
    let base = idldp_core::budget::Epsilon::new(spec.eps).map_err(|e| e.to_string())?;
    let levels = BudgetScheme::paper_default()
        .assign(spec.m, base, &mut stream_rng(CONFIG_SEED, 1))
        .map_err(|e| e.to_string())?;
    let ctx = BuildContext {
        levels: &levels,
        padding: 0,
        solver: None,
    };
    let built = MechanismRegistry::standard()
        .build_single_item(spec.mechanism, &ctx)
        .map_err(|e| e.to_string())?;
    Ok(Arc::<dyn idldp_sim::BatchMechanism>::from(built))
}

/// A frame of reports, as one `Reports` frame carries it.
pub type Frame = Vec<ReportData>;

/// Every report a run sends, generated from the workload seed before any
/// timing starts.
pub struct Inputs {
    /// Per-collector populations restored from checkpoints at start-up.
    pub restored: Vec<Vec<Frame>>,
    /// The closed-loop frame pool, `pool_turns × frames_per_turn` frames,
    /// sent turn by turn through [`Inputs::closed_turn`].
    pub closed: Vec<Frame>,
    /// Closed-loop frames per connection per round.
    pub frames_per_turn: usize,
    /// Distinct turns in the pool: `ROUNDS × 2` for hashed reports, one
    /// for every other shape.
    pub pool_turns: usize,
    /// Open-loop frames, one per scheduled send.
    pub open: Vec<Frame>,
}

impl Inputs {
    /// The frames connection `conn` pushes in closed-loop round `round`.
    pub fn closed_turn(&self, round: usize, conn: usize) -> &[Frame] {
        let start = ((round * 2 + conn) % self.pool_turns) * self.frames_per_turn;
        &self.closed[start..start + self.frames_per_turn]
    }

    /// Every closed-loop frame in the order the rounds send them.
    pub fn closed_sent(&self) -> impl Iterator<Item = &Frame> {
        (0..ROUNDS).flat_map(move |r| self.closed_turn(r, 0).iter().chain(self.closed_turn(r, 1)))
    }

    /// Reports restored from checkpoints across the fleet.
    pub fn restored_users(&self) -> u64 {
        count(self.restored.iter().flatten())
    }

    /// Reports in one closed-loop round.
    pub fn round_reports(&self, round: usize) -> u64 {
        count(
            self.closed_turn(round, 0)
                .iter()
                .chain(self.closed_turn(round, 1)),
        )
    }
}

/// Total reports across frames.
pub fn count<'a>(frames: impl IntoIterator<Item = &'a Frame>) -> u64 {
    frames.into_iter().map(|f| f.len() as u64).sum()
}

/// Draws one item from the truncated power law `p(x) ∝ x^{-2}` over the
/// domain — the `idldp push --dataset powerlaw` input distribution.
fn draw_item(rng: &mut impl Rng, m: usize) -> usize {
    let u: f64 = rng.random();
    let hi = (m + 1) as f64;
    let x = 1.0 / (1.0 - u * (1.0 - 1.0 / hi));
    (x.floor() as usize).clamp(1, m) - 1
}

/// Perturbs `frames × frame` fresh inputs on RNG stream `(seed, stream)`.
/// Every report is the mechanism's own client-side perturbation, so OLH
/// reports carry a fresh hash seed each, as real clients draw them.
fn frames(
    mech: &dyn Mechanism,
    seed: u64,
    stream: u64,
    frames: usize,
    frame: usize,
) -> Result<Vec<Frame>, String> {
    let mut rng = stream_rng(seed, stream);
    let m = mech.domain_size();
    (0..frames)
        .map(|_| {
            (0..frame)
                .map(|_| {
                    let item = draw_item(&mut rng, m);
                    mech.perturb_data(Input::Item(item), &mut rng)
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect()
}

/// Generates a run's inputs for `seconds` of measurement.
pub fn generate(
    spec: &Spec,
    mech: &dyn Mechanism,
    seed: u64,
    seconds: f64,
) -> Result<Inputs, String> {
    let closed_reports = spec.closed_rps * seconds * CLOSED_SHARE;
    let frames_per_turn =
        ((closed_reports / (ROUNDS * 2 * CLOSED_FRAME) as f64).round() as usize).max(1);
    // Hashed reports are all distinct: a repeated `(seed, value)` pair
    // would hit the server's preimage cache, which real clients, drawing a
    // fresh seed per report, never do. Every other shape folds the same
    // way however often a report repeats, so one turn is generated and
    // both connections send it every round.
    let pool_turns = if matches!(mech.report_shape(), ReportShape::Hashed { .. }) {
        ROUNDS * 2
    } else {
        1
    };
    let open_frames =
        ((spec.open_rps * seconds * OPEN_SHARE / spec.frame as f64).round() as usize).max(1);
    let restored = (0..spec.collectors)
        .map(|c| {
            let n = spec.restored_per_collector.div_ceil(spec.frame);
            frames(mech, seed, 10 + c as u64, n, spec.frame)
        })
        .collect::<Result<_, _>>()?;
    Ok(Inputs {
        restored,
        closed: frames(mech, seed, 1, pool_turns * frames_per_turn, CLOSED_FRAME)?,
        frames_per_turn,
        pool_turns,
        open: frames(mech, seed, 2, open_frames, spec.frame)?,
    })
}
