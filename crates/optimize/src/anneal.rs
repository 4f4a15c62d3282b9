//! Generalized (dual) simulated annealing.
//!
//! Structure mirrors SciPy's `dual_annealing` (Xiang et al.): a
//! generalized-simulated-annealing global phase using Tsallis
//! statistics — a distorted-Cauchy *visiting distribution* controlled
//! by `qv` and a generalized Metropolis *acceptance rule* controlled
//! by `qa` — combined with restarts when the temperature collapses and
//! a Nelder–Mead local polish (the "dual" part).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::special::ln_gamma;
use crate::{nelder_mead, Bounds, CancelToken, Deadline, NelderMeadConfig, OptimizeResult};

/// Configuration for [`dual_annealing`].
///
/// Defaults follow SciPy: `initial_temp = 5230`, `qv = 2.62`,
/// `qa = -5.0`, `restart_temp_ratio = 2e-5`.
#[derive(Debug, Clone, PartialEq)]
pub struct DualAnnealingConfig {
    /// Maximum outer iterations (temperature steps).
    pub max_iters: usize,
    /// Hard cap on objective evaluations.
    pub max_evaluations: usize,
    /// Initial visiting temperature.
    pub initial_temp: f64,
    /// Restart the schedule when `T < initial_temp · ratio`.
    pub restart_temp_ratio: f64,
    /// Tsallis visiting parameter `qv ∈ (1, 3)`.
    pub qv: f64,
    /// Tsallis acceptance parameter `qa < 1` (more negative = greedier).
    pub qa: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Run a Nelder–Mead polish from the best point at the end.
    pub polish: bool,
    /// Optional warm-start point: the first iterate starts here
    /// (clamped into bounds) instead of at a random point. Restarts
    /// after temperature collapse still draw random points, so a bad
    /// hint only costs the first chain. Length must match the bounds
    /// dimension or the hint is ignored.
    pub x0: Option<Vec<f64>>,
    /// Stop early once the objective falls at or below this value.
    pub target: Option<f64>,
    /// Wall-clock budget: the outer loop stops (returning the best
    /// iterate so far) once this deadline expires.
    pub deadline: Deadline,
    /// Cooperative cancellation: polled every chain move, so a
    /// caller's cancel is observed within one inner iteration.
    pub cancel: CancelToken,
}

impl Default for DualAnnealingConfig {
    fn default() -> Self {
        DualAnnealingConfig {
            max_iters: 1000,
            max_evaluations: 200_000,
            initial_temp: 5230.0,
            restart_temp_ratio: 2e-5,
            qv: 2.62,
            qa: -5.0,
            seed: 0,
            polish: true,
            x0: None,
            target: None,
            deadline: Deadline::none(),
            cancel: CancelToken::none(),
        }
    }
}

impl DualAnnealingConfig {
    /// Returns a copy with the given RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Returns a copy warm-started from the given point.
    pub fn with_x0(mut self, x0: Vec<f64>) -> Self {
        self.x0 = Some(x0);
        self
    }

    /// Returns a copy with an early-stop target objective value.
    pub fn with_target(mut self, target: f64) -> Self {
        self.target = Some(target);
        self
    }

    /// Returns a copy bounded by the given wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns a copy observing the given cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// Tail cap on visiting-distribution steps (as in SciPy).
const TAIL_LIMIT: f64 = 1e8;

struct VisitingDistribution {
    qv: f64,
    sigmax_factor: f64,
}

impl VisitingDistribution {
    fn new(qv: f64) -> Self {
        // Precompute the temperature-independent part of σ_x.
        let factor2 = ((4.0 - qv) * (qv - 1.0).ln()).exp();
        let factor3 = ((2.0 - qv) * std::f64::consts::LN_2 / (qv - 1.0)).exp();
        let factor4_base = std::f64::consts::PI.sqrt() * factor2 / (factor3 * (3.0 - qv));
        let factor5 = 1.0 / (qv - 1.0) - 0.5;
        let d1 = 2.0 - factor5;
        let factor6 = std::f64::consts::PI * (1.0 - factor5)
            / (std::f64::consts::PI * (1.0 - factor5)).sin()
            / ln_gamma(d1).exp();
        // σ_x = exp(-(qv-1)·ln(factor6/factor4)/(3-qv)) with
        // factor4 = factor4_base · tv^{1/(qv-1)}; the tv part is applied
        // per call.
        VisitingDistribution {
            qv,
            sigmax_factor: factor6 / factor4_base,
        }
    }

    /// Scale `σ_x` of the visiting distribution at visiting
    /// temperature `tv` (constant over one temperature step).
    fn sigmax(&self, tv: f64) -> f64 {
        let qv = self.qv;
        let factor1 = (tv.ln() / (qv - 1.0)).exp();
        (-(qv - 1.0) * (self.sigmax_factor / factor1).ln() / (3.0 - qv)).exp()
    }

    /// Draws one heavy-tailed visiting step with scale `sigmax`
    /// (from [`VisitingDistribution::sigmax`]).
    fn sample(&self, sigmax: f64, rng: &mut StdRng) -> f64 {
        let qv = self.qv;
        let x = sigmax * gaussian(rng);
        let y = gaussian(rng);
        let den = ((qv - 1.0) * y.abs().ln() / (3.0 - qv)).exp();
        let visit = x / den;
        visit.clamp(-TAIL_LIMIT, TAIL_LIMIT)
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Minimizes `f` over `bounds` with generalized simulated annealing
/// plus a Nelder–Mead polish.
///
/// Deterministic for a fixed configuration (seeded RNG).
///
/// # Panics
///
/// Panics if `qv ∉ (1, 3)`, `qa ≥ 1`, or the iteration budget is zero.
///
/// # Example
///
/// ```
/// use geyser_optimize::{dual_annealing, Bounds, DualAnnealingConfig};
/// let bounds = Bounds::uniform(2, -2.0, 2.0);
/// let rosenbrock = |x: &[f64]| {
///     100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2)
/// };
/// let res = dual_annealing(&rosenbrock, &bounds, &DualAnnealingConfig::default().with_seed(3));
/// assert!(res.fx < 1e-5);
/// ```
pub fn dual_annealing<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    bounds: &Bounds,
    cfg: &DualAnnealingConfig,
) -> OptimizeResult {
    assert!(cfg.qv > 1.0 && cfg.qv < 3.0, "qv must be in (1, 3)");
    assert!(cfg.qa < 1.0, "qa must be < 1");
    assert!(cfg.max_iters > 0, "iteration budget must be positive");

    let dim = bounds.dim();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let visit = VisitingDistribution::new(cfg.qv);

    let random_point = |rng: &mut StdRng| -> Vec<f64> {
        (0..dim)
            .map(|i| bounds.lo(i) + rng.gen::<f64>() * bounds.width(i))
            .collect()
    };

    let mut evaluations = 0usize;
    let mut accepted = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        f(x)
    };

    let mut current = match &cfg.x0 {
        // Warm start: begin at the caller's hint (clamped into
        // bounds) instead of a random point. The RNG is untouched, so
        // the rest of the schedule matches a cold run step for step.
        Some(hint) if hint.len() == dim && hint.iter().all(|v| v.is_finite()) => hint
            .iter()
            .enumerate()
            .map(|(i, &v)| v.clamp(bounds.lo(i), bounds.hi(i)))
            .collect(),
        _ => random_point(&mut rng),
    };
    let mut current_f = eval(&current, &mut evaluations);
    let mut best = current.clone();
    let mut best_f = current_f;
    // One reusable move buffer: each move starts from a copy of
    // `current`, and an accepted move swaps the two.
    let mut candidate = current.clone();

    // Temperature schedule constant: T(t) = T0·(2^{qv-1}−1)/((1+t)^{qv-1}−1).
    let t1 = (2.0f64.powf(cfg.qv - 1.0)) - 1.0;
    let mut step = 0usize;

    'outer: for _iter in 0..cfg.max_iters {
        if cfg.deadline.expired() || cfg.cancel.is_cancelled() {
            break 'outer;
        }
        step += 1;
        let tv = cfg.initial_temp * t1 / (((1 + step) as f64).powf(cfg.qv - 1.0) - 1.0);

        // Restart the schedule when the temperature has collapsed.
        if tv < cfg.initial_temp * cfg.restart_temp_ratio {
            step = 1;
            current = random_point(&mut rng);
            current_f = eval(&current, &mut evaluations);
            continue;
        }

        // One annealing "chain": dim full-vector moves then dim
        // single-coordinate moves (as in SciPy's strategy chain).
        let sigmax = visit.sigmax(tv);
        for j in 0..(2 * dim) {
            // Cancellation must interrupt even a single long chain:
            // poll per move, not only per temperature step.
            if cfg.cancel.is_cancelled() {
                break 'outer;
            }
            candidate.copy_from_slice(&current);
            if j < dim {
                for (i, slot) in candidate.iter_mut().enumerate() {
                    *slot += visit.sample(sigmax, &mut rng) * bounds.width(i).max(1e-12);
                }
            } else {
                let i = j - dim;
                candidate[i] += visit.sample(sigmax, &mut rng) * bounds.width(i).max(1e-12);
            }
            bounds.wrap(&mut candidate);
            let cand_f = eval(&candidate, &mut evaluations);

            let accept = if cand_f <= current_f {
                true
            } else {
                // Generalized Metropolis acceptance (Tsallis, qa < 1):
                // p = [1 − (1−qa)·ΔE/T_a]^{1/(1−qa)} when positive.
                let t_accept = tv / (step as f64);
                let base = 1.0 - (1.0 - cfg.qa) * (cand_f - current_f) / t_accept.max(1e-300);
                if base <= 0.0 {
                    false
                } else {
                    let p = (base.ln() / (1.0 - cfg.qa)).exp();
                    rng.gen::<f64>() < p
                }
            };
            if accept {
                accepted += 1;
                std::mem::swap(&mut current, &mut candidate);
                current_f = cand_f;
                if current_f < best_f {
                    best.copy_from_slice(&current);
                    best_f = current_f;
                    if let Some(t) = cfg.target {
                        if best_f <= t {
                            break 'outer;
                        }
                    }
                }
            }
            if evaluations >= cfg.max_evaluations {
                break 'outer;
            }
        }
    }

    // Local polish (the "dual" phase). Skipped on an expired deadline
    // or a cancelled run: the caller asked for whatever was bought.
    if cfg.polish && !cfg.deadline.expired() && !cfg.cancel.is_cancelled() {
        let nm_cfg = NelderMeadConfig {
            max_evaluations: (cfg.max_evaluations.saturating_sub(evaluations)).min(400 * dim),
            ..NelderMeadConfig::default()
        };
        let polished = nelder_mead(&mut f, bounds, &best, &nm_cfg);
        evaluations += polished.evaluations;
        if polished.fx < best_f {
            best = polished.x;
            best_f = polished.fx;
        }
    }

    OptimizeResult {
        x: best,
        fx: best_f,
        evaluations,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rastrigin(x: &[f64]) -> f64 {
        10.0 * x.len() as f64
            + x.iter()
                .map(|v| v * v - 10.0 * (std::f64::consts::TAU * v).cos())
                .sum::<f64>()
    }

    #[test]
    fn minimizes_sphere() {
        let bounds = Bounds::uniform(4, -5.0, 5.0);
        let res = dual_annealing(
            &sphere,
            &bounds,
            &DualAnnealingConfig::default().with_seed(1),
        );
        assert!(res.fx < 1e-8, "fx = {}", res.fx);
    }

    #[test]
    fn warm_start_seeds_the_first_iterate() {
        // A tiny budget from a good hint must land at least as well
        // as the same budget from a random start, and a hint at the
        // optimum keeps best_f at the optimum even with no polish.
        let bounds = Bounds::uniform(6, -5.0, 5.0);
        let base = DualAnnealingConfig {
            max_iters: 3,
            polish: false,
            ..DualAnnealingConfig::default()
        }
        .with_seed(9);
        let cold = dual_annealing(&rastrigin, &bounds, &base);
        let warm = dual_annealing(&rastrigin, &bounds, &base.clone().with_x0(vec![0.0; 6]));
        assert!(warm.fx <= cold.fx, "warm {} vs cold {}", warm.fx, cold.fx);
        assert!(warm.fx < 1e-9, "warm start lost the optimum: {}", warm.fx);
    }

    #[test]
    fn warm_start_hint_is_clamped_and_bad_hints_ignored() {
        let bounds = Bounds::uniform(2, -1.0, 1.0);
        let cfg = DualAnnealingConfig {
            max_iters: 2,
            polish: false,
            ..DualAnnealingConfig::default()
        };
        // Out-of-bounds hint clamps instead of escaping the box.
        let res = dual_annealing(&sphere, &bounds, &cfg.clone().with_x0(vec![9.0, -9.0]));
        assert!(res.fx <= 2.0 + 1e-12);
        // Wrong-dimension and non-finite hints fall back to the cold
        // path — identical to no hint at all.
        let cold = dual_annealing(&sphere, &bounds, &cfg);
        let wrong_dim = dual_annealing(&sphere, &bounds, &cfg.clone().with_x0(vec![0.0; 5]));
        let nan = dual_annealing(&sphere, &bounds, &cfg.clone().with_x0(vec![f64::NAN, 0.0]));
        assert_eq!(cold.x, wrong_dim.x);
        assert_eq!(cold.x, nan.x);
    }

    #[test]
    fn minimizes_shifted_sphere() {
        let bounds = Bounds::uniform(3, -4.0, 6.0);
        let f = |x: &[f64]| x.iter().map(|v| (v - 2.5).powi(2)).sum::<f64>();
        let res = dual_annealing(&f, &bounds, &DualAnnealingConfig::default().with_seed(2));
        assert!(res.fx < 1e-8);
        for v in &res.x {
            assert!((v - 2.5).abs() < 1e-3);
        }
    }

    #[test]
    fn escapes_rastrigin_local_minima() {
        let bounds = Bounds::uniform(2, -5.12, 5.12);
        let res = dual_annealing(
            &rastrigin,
            &bounds,
            &DualAnnealingConfig::default().with_seed(5),
        );
        assert!(res.fx < 1e-5, "fx = {}", res.fx);
    }

    #[test]
    fn respects_bounds() {
        let bounds = Bounds::uniform(3, 1.0, 2.0);
        // Minimum of the sphere outside the box: optimizer must stay in.
        let res = dual_annealing(
            &sphere,
            &bounds,
            &DualAnnealingConfig::default().with_seed(4),
        );
        assert!(bounds.contains(&res.x), "x = {:?}", res.x);
        assert!((res.fx - 3.0).abs() < 1e-6); // (1,1,1) is optimal
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let bounds = Bounds::uniform(2, -1.0, 1.0);
        let cfg = DualAnnealingConfig::default()
            .with_seed(11)
            .with_max_iters(50);
        let a = dual_annealing(&sphere, &bounds, &cfg);
        let b = dual_annealing(&sphere, &bounds, &cfg);
        assert_eq!(a.x, b.x);
        assert_eq!(a.fx, b.fx);
    }

    #[test]
    fn early_stop_at_target() {
        let bounds = Bounds::uniform(2, -5.0, 5.0);
        let cfg = DualAnnealingConfig::default().with_seed(6).with_target(1.0);
        let res = dual_annealing(&sphere, &bounds, &cfg);
        assert!(res.fx <= 1.0);
        // Should have stopped long before the evaluation cap.
        assert!(res.evaluations < 100_000);
    }

    #[test]
    fn evaluation_budget_respected() {
        let bounds = Bounds::uniform(2, -5.0, 5.0);
        let cfg = DualAnnealingConfig {
            max_evaluations: 500,
            polish: false,
            seed: 8,
            ..DualAnnealingConfig::default()
        };
        let res = dual_annealing(&sphere, &bounds, &cfg);
        assert!(res.evaluations <= 501);
    }

    #[test]
    fn expired_deadline_returns_best_so_far_quickly() {
        let bounds = Bounds::uniform(8, -5.0, 5.0);
        let cfg = DualAnnealingConfig::default()
            .with_seed(9)
            .with_deadline(Deadline::already_expired());
        let res = dual_annealing(&rastrigin, &bounds, &cfg);
        // One initial evaluation, no chain moves, no polish.
        assert_eq!(res.evaluations, 1);
        assert!(res.fx.is_finite());
        assert!(bounds.contains(&res.x));
    }

    #[test]
    fn pre_cancelled_token_returns_best_so_far_quickly() {
        let bounds = Bounds::uniform(8, -5.0, 5.0);
        let token = CancelToken::new();
        token.cancel();
        let cfg = DualAnnealingConfig::default()
            .with_seed(9)
            .with_cancel(token);
        let res = dual_annealing(&rastrigin, &bounds, &cfg);
        // One initial evaluation, no chain moves, no polish.
        assert_eq!(res.evaluations, 1);
        assert!(res.fx.is_finite());
        assert!(bounds.contains(&res.x));
    }

    #[test]
    fn cancellation_is_observed_within_one_chain_move() {
        // The objective itself fires the token after 100 evaluations:
        // the annealer must stop within one further chain move (which
        // costs exactly one evaluation).
        let dim = 4usize;
        let bounds = Bounds::uniform(dim, -5.0, 5.0);
        let token = CancelToken::new();
        let evals = std::sync::atomic::AtomicUsize::new(0);
        let f = |x: &[f64]| {
            if evals.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 >= 100 {
                token.cancel();
            }
            sphere(x)
        };
        let cfg = DualAnnealingConfig::default()
            .with_seed(3)
            .with_cancel(token.clone());
        let res = dual_annealing(&f, &bounds, &cfg);
        assert!(token.is_cancelled());
        assert!(
            res.evaluations <= 101,
            "cancel observed late: {} evaluations",
            res.evaluations
        );
    }

    #[test]
    #[should_panic(expected = "qv must be in (1, 3)")]
    fn invalid_qv_panics() {
        let cfg = DualAnnealingConfig {
            qv: 3.5,
            ..DualAnnealingConfig::default()
        };
        let _ = dual_annealing(&sphere, &Bounds::uniform(1, 0.0, 1.0), &cfg);
    }
}
