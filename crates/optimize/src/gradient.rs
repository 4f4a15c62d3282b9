//! Bounded Adam gradient descent on a value-and-gradient objective.
//!
//! Unitary-synthesis objectives (Hilbert–Schmidt distances of smooth
//! gate parameterizations) are infinitely differentiable, which makes
//! first-order descent the most reliable local refiner — block
//! composition uses it as the one local phase after dual annealing and
//! as a multi-start local searcher in its own right. Callers with an
//! exact gradient pass it directly; [`central_difference`] adapts a
//! value-only objective.

use crate::{Bounds, CancelToken, Deadline, OptimizeResult};

/// Step of [`central_difference`]'s probes.
const FD_STEP: f64 = 1e-5;

/// Configuration for [`adam`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdamConfig {
    /// Maximum descent iterations.
    pub max_iters: usize,
    /// Base learning rate.
    pub learning_rate: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Stop once the objective falls at or below this value.
    pub target: Option<f64>,
    /// When the objective improves by less than this over a
    /// 25-iteration window, the learning rate is halved; the run stops
    /// once the rate falls below `learning_rate / 1024`.
    pub stall_tol: f64,
    /// Wall-clock budget: descent stops (returning the best iterate so
    /// far) once this deadline expires.
    pub deadline: Deadline,
    /// Cooperative cancellation: polled every descent iteration.
    pub cancel: CancelToken,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            max_iters: 300,
            learning_rate: 0.08,
            beta1: 0.9,
            beta2: 0.999,
            target: None,
            stall_tol: 1e-12,
            deadline: Deadline::none(),
            cancel: CancelToken::none(),
        }
    }
}

impl AdamConfig {
    /// Returns a copy with an early-stop target.
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

/// Minimizes `f` from `x0` with Adam, clamping iterates into `bounds`.
///
/// `f(x, grad)` returns the objective at `x` and, when `grad` is
/// non-empty, writes the gradient there; an empty `grad` asks for the
/// value only. Each iterate is first valued alone, and its gradient is
/// asked for only if descent continues from it — from the current
/// iterate, or from the best one after a stall restart. Coordinates
/// with `lo == hi` get gradient 0. [`OptimizeResult::evaluations`]
/// counts calls of `f` of either kind.
///
/// # Panics
///
/// Panics if `x0.len() != bounds.dim()`.
///
/// # Example
///
/// ```
/// use geyser_optimize::{adam, AdamConfig, Bounds};
/// let bounds = Bounds::uniform(2, -5.0, 5.0);
/// let f = |x: &[f64], grad: &mut [f64]| {
///     if !grad.is_empty() {
///         grad[0] = 2.0 * (x[0] - 2.0);
///         grad[1] = 2.0 * (x[1] + 1.0);
///     }
///     (x[0] - 2.0).powi(2) + (x[1] + 1.0).powi(2)
/// };
/// let res = adam(f, &bounds, &[0.0, 0.0], &AdamConfig::default());
/// assert!(res.fx < 1e-8);
/// ```
pub fn adam<F: FnMut(&[f64], &mut [f64]) -> f64>(
    mut f: F,
    bounds: &Bounds,
    x0: &[f64],
    cfg: &AdamConfig,
) -> OptimizeResult {
    let dim = bounds.dim();
    assert_eq!(x0.len(), dim, "starting point dimension mismatch");
    let mut x = x0.to_vec();
    bounds.clamp(&mut x);

    let mut evaluations = 1usize;
    let mut fx = f(&x, &mut []);
    let mut best_x = x.clone();
    let mut best_f = fx;

    let mut m = vec![0.0; dim];
    let mut v = vec![0.0; dim];
    let mut grad = vec![0.0; dim];
    let mut window_best = fx;
    let mut lr = cfg.learning_rate;

    for t in 1..=cfg.max_iters {
        if cfg.deadline.expired() || cfg.cancel.is_cancelled() {
            break;
        }
        // Gradient at `x`, whose value is already known.
        evaluations += 1;
        f(&x, &mut grad);
        for (i, g) in grad.iter_mut().enumerate() {
            if bounds.lo(i) == bounds.hi(i) {
                *g = 0.0;
            }
        }
        // Adam update.
        for i in 0..dim {
            m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * grad[i];
            v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * grad[i] * grad[i];
            let m_hat = m[i] / (1.0 - cfg.beta1.powi(t as i32));
            let v_hat = v[i] / (1.0 - cfg.beta2.powi(t as i32));
            x[i] -= lr * m_hat / (v_hat.sqrt() + 1e-12);
        }
        bounds.clamp(&mut x);
        evaluations += 1;
        fx = f(&x, &mut []);
        if fx < best_f {
            best_f = fx;
            best_x.copy_from_slice(&x);
        }
        if let Some(target) = cfg.target {
            if best_f <= target {
                break;
            }
        }
        if t % 25 == 0 {
            if window_best - best_f < cfg.stall_tol {
                // Plateaued at this step size: anneal the rate and
                // restart descent from the best point seen (the next
                // iteration asks for the gradient there).
                lr *= 0.5;
                if lr < cfg.learning_rate / 1024.0 {
                    break;
                }
                x.copy_from_slice(&best_x);
                m.fill(0.0);
                v.fill(0.0);
            }
            window_best = best_f;
        }
    }

    OptimizeResult {
        x: best_x,
        fx: best_f,
        evaluations,
        accepted: 0,
    }
}

/// Adapts a value-only objective to [`adam`]'s value-and-gradient form
/// with central differences of step `1e-5`, probes clamped into
/// `bounds` (a coordinate whose probes coincide gets gradient 0).
///
/// A gradient request at the last or the lowest point already valued —
/// where [`adam`] asks for them — reuses that value instead of calling
/// `f` again, so each gradient costs exactly its `2·dim` probes.
///
/// # Example
///
/// ```
/// use geyser_optimize::{adam, central_difference, AdamConfig, Bounds};
/// let bounds = Bounds::uniform(2, -5.0, 5.0);
/// let f = |x: &[f64]| (x[0] - 2.0).powi(2) + (x[1] + 1.0).powi(2);
/// let res = adam(central_difference(f, &bounds), &bounds, &[0.0, 0.0], &AdamConfig::default());
/// assert!(res.fx < 1e-8);
/// ```
pub fn central_difference<'a, F>(
    mut f: F,
    bounds: &'a Bounds,
) -> impl FnMut(&[f64], &mut [f64]) -> f64 + 'a
where
    F: FnMut(&[f64]) -> f64 + 'a,
{
    let mut probe = vec![0.0; bounds.dim()];
    let mut last: Option<(Vec<f64>, f64)> = None;
    let mut lowest: Option<(Vec<f64>, f64)> = None;
    move |x: &[f64], grad: &mut [f64]| {
        let is_x = |p: &[f64]| p.iter().zip(x).all(|(a, b)| a.to_bits() == b.to_bits());
        let known = [&last, &lowest]
            .into_iter()
            .flatten()
            .find(|(p, _)| !grad.is_empty() && is_x(p));
        let fx = known.map_or_else(|| f(x), |&(_, fp)| fp);
        remember(&mut last, x, fx);
        if lowest.as_ref().is_none_or(|(_, fl)| fx < *fl) {
            remember(&mut lowest, x, fx);
        }
        if !grad.is_empty() {
            probe.copy_from_slice(x);
            for (i, g) in grad.iter_mut().enumerate() {
                let xi = x[i];
                let plus = (xi + FD_STEP).min(bounds.hi(i));
                let minus = (xi - FD_STEP).max(bounds.lo(i));
                let h = plus - minus;
                *g = 0.0;
                if h > 0.0 {
                    probe[i] = plus;
                    let f_plus = f(&probe);
                    probe[i] = minus;
                    let f_minus = f(&probe);
                    probe[i] = xi;
                    *g = (f_plus - f_minus) / h;
                }
            }
        }
        fx
    }
}

/// Stores `(x, fx)` in `slot`, reusing its buffer.
fn remember(slot: &mut Option<(Vec<f64>, f64)>, x: &[f64], fx: f64) {
    match slot {
        Some((p, fp)) => {
            p.copy_from_slice(x);
            *fp = fx;
        }
        None => *slot = Some((x.to_vec(), fx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn minimizes_quadratic() {
        let bounds = Bounds::uniform(4, -10.0, 10.0);
        let f = |x: &[f64]| x.iter().map(|v| (v - 1.5).powi(2)).sum::<f64>();
        let cfg = AdamConfig {
            max_iters: 800,
            ..AdamConfig::default()
        };
        let res = adam(central_difference(f, &bounds), &bounds, &[5.0; 4], &cfg);
        assert!(res.fx < 1e-6, "fx = {}", res.fx);
    }

    #[test]
    fn respects_bounds() {
        let bounds = Bounds::uniform(2, 0.0, 1.0);
        let f = |x: &[f64]| (x[0] + 2.0).powi(2) + (x[1] + 2.0).powi(2);
        let res = adam(
            central_difference(f, &bounds),
            &bounds,
            &[0.5, 0.5],
            &AdamConfig::default(),
        );
        assert!(bounds.contains(&res.x));
        assert!(res.x[0] < 1e-6 && res.x[1] < 1e-6);
    }

    #[test]
    fn early_stop_at_target() {
        let bounds = Bounds::uniform(2, -5.0, 5.0);
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let cfg = AdamConfig::default().with_target(0.5);
        let res = adam(central_difference(f, &bounds), &bounds, &[3.0, -3.0], &cfg);
        assert!(res.fx <= 0.5);
        assert!(res.evaluations < 3000);
    }

    #[test]
    fn handles_rosenbrock_valley() {
        let bounds = Bounds::uniform(2, -2.0, 2.0);
        let f = |x: &[f64]| 100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2);
        let cfg = AdamConfig {
            max_iters: 4000,
            learning_rate: 0.02,
            ..AdamConfig::default()
        };
        let res = adam(central_difference(f, &bounds), &bounds, &[-1.0, 1.0], &cfg);
        assert!(res.fx < 1e-3, "fx = {}", res.fx);
    }

    #[test]
    fn pre_cancelled_token_stops_after_initial_evaluation() {
        let bounds = Bounds::uniform(3, -5.0, 5.0);
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let token = crate::CancelToken::new();
        token.cancel();
        let cfg = AdamConfig::default().with_cancel(token);
        let res = adam(
            central_difference(f, &bounds),
            &bounds,
            &[3.0, 2.0, 1.0],
            &cfg,
        );
        assert_eq!(res.evaluations, 1);
        assert!(res.fx.is_finite());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_panics() {
        let bounds = Bounds::uniform(2, 0.0, 1.0);
        let f = |x: &[f64]| x[0];
        let _ = adam(
            central_difference(f, &bounds),
            &bounds,
            &[0.5],
            &AdamConfig::default(),
        );
    }

    /// Every call's point and whether it asked for a gradient.
    type Calls = RefCell<Vec<(Vec<f64>, bool)>>;

    #[test]
    fn pinned_coordinate_never_moves() {
        let bounds = Bounds::new(&[(-3.0, 3.0), (0.7, 0.7), (-3.0, 3.0)]);
        let calls = Calls::default();
        // The gradient claims a slope on the pinned coordinate too.
        let f = |x: &[f64], grad: &mut [f64]| {
            calls.borrow_mut().push((x.to_vec(), !grad.is_empty()));
            if !grad.is_empty() {
                grad.copy_from_slice(&[2.0 * (x[0] - 1.0), 5.0, 2.0 * x[2]]);
            }
            (x[0] - 1.0).powi(2) + 5.0 * x[1] + x[2] * x[2]
        };
        let res = adam(f, &bounds, &[2.0, 0.7, -1.0], &AdamConfig::default());
        assert!(calls.borrow().len() > 10);
        for (x, _) in calls.borrow().iter() {
            assert_eq!(x[1].to_bits(), 0.7f64.to_bits());
        }
        assert_eq!(res.x[1].to_bits(), 0.7f64.to_bits());
        assert!((res.x[0] - 1.0).abs() < 1e-3 && res.x[2].abs() < 1e-3);
    }

    #[test]
    fn stall_restart_asks_for_the_gradient_at_the_best_point() {
        // A gradient that points uphill: every step makes things
        // worse, so the 25-iteration window stalls at the start point.
        let bounds = Bounds::uniform(1, -1.0, 0.5);
        let calls = Calls::default();
        let f = |x: &[f64], grad: &mut [f64]| {
            calls.borrow_mut().push((x.to_vec(), !grad.is_empty()));
            if !grad.is_empty() {
                grad[0] = -1.0;
            }
            x[0] * x[0]
        };
        let res = adam(f, &bounds, &[0.0], &AdamConfig::default());
        let calls = calls.into_inner();
        assert_eq!(res.x, vec![0.0]);
        assert_eq!(res.fx, 0.0);
        let gradients: Vec<f64> = calls.iter().filter(|c| c.1).map(|c| c.0[0]).collect();
        // Iteration 26 restarts from the best point, x = 0 — not from
        // iteration 25's iterate, which sits at the upper bound.
        assert_eq!(gradients[24], 0.5);
        assert_eq!(gradients[25], 0.0);
        assert!(gradients[1] > 0.0);
        // Bounds hold for every point asked about, and the stalls
        // halve the rate down to the floor: ten restarts.
        assert!(calls.iter().all(|(x, _)| bounds.contains(x)));
        assert_eq!(gradients.iter().filter(|&&x| x == 0.0).count(), 11);
        assert_eq!(res.evaluations, calls.len());
    }

    /// The finite-difference Adam this module had before it took a
    /// value-and-gradient objective, kept verbatim (step `1e-5`).
    fn reference_fd_adam(
        f: &dyn Fn(&[f64]) -> f64,
        bounds: &Bounds,
        x0: &[f64],
        cfg: &AdamConfig,
    ) -> OptimizeResult {
        let fd_step = 1e-5;
        let dim = bounds.dim();
        let mut x = x0.to_vec();
        bounds.clamp(&mut x);
        let mut evaluations = 0usize;
        let eval = |x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            f(x)
        };
        let mut fx = eval(&x, &mut evaluations);
        let mut best_x = x.clone();
        let mut best_f = fx;
        let mut m = vec![0.0; dim];
        let mut v = vec![0.0; dim];
        let mut grad = vec![0.0; dim];
        let mut window_best = fx;
        let mut lr = cfg.learning_rate;
        for t in 1..=cfg.max_iters {
            if cfg.deadline.expired() || cfg.cancel.is_cancelled() {
                break;
            }
            for i in 0..dim {
                let xi = x[i];
                let plus = (xi + fd_step).min(bounds.hi(i));
                let minus = (xi - fd_step).max(bounds.lo(i));
                let h = plus - minus;
                grad[i] = 0.0;
                if h > 0.0 {
                    x[i] = plus;
                    let f_plus = eval(&x, &mut evaluations);
                    x[i] = minus;
                    let f_minus = eval(&x, &mut evaluations);
                    x[i] = xi;
                    grad[i] = (f_plus - f_minus) / h;
                }
            }
            for i in 0..dim {
                m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * grad[i];
                v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * grad[i] * grad[i];
                let m_hat = m[i] / (1.0 - cfg.beta1.powi(t as i32));
                let v_hat = v[i] / (1.0 - cfg.beta2.powi(t as i32));
                x[i] -= lr * m_hat / (v_hat.sqrt() + 1e-12);
            }
            bounds.clamp(&mut x);
            fx = eval(&x, &mut evaluations);
            if fx < best_f {
                best_f = fx;
                best_x.copy_from_slice(&x);
            }
            if let Some(target) = cfg.target {
                if best_f <= target {
                    break;
                }
            }
            if t % 25 == 0 {
                if window_best - best_f < cfg.stall_tol {
                    lr *= 0.5;
                    if lr < cfg.learning_rate / 1024.0 {
                        break;
                    }
                    x.copy_from_slice(&best_x);
                    m.fill(0.0);
                    v.fill(0.0);
                }
                window_best = best_f;
            }
        }
        OptimizeResult {
            x: best_x,
            fx: best_f,
            evaluations,
            accepted: 0,
        }
    }

    #[test]
    fn central_difference_reproduces_the_finite_difference_adam_bit_for_bit() {
        // A bumpy, bounded 4-D objective with a pinned coordinate: runs
        // end by the iteration cap, by the target, and by the stall
        // floor after restarts from earlier best points.
        let f = |x: &[f64]| {
            (x[0] - 0.3).powi(2)
                + 0.5 * (3.0 * x[1]).sin().powi(2)
                + (x[2] * x[3] - 0.2).powi(2)
                + 0.1 * (5.0 * x[0] * x[3]).cos()
        };
        let bounds = Bounds::new(&[(-1.0, 1.0), (-2.0, 2.0), (0.4, 0.4), (-1.5, 0.25)]);
        let configs = [
            AdamConfig::default(),
            AdamConfig::default().with_target(0.12),
            AdamConfig {
                max_iters: 4000,
                learning_rate: 0.3,
                ..AdamConfig::default()
            },
        ];
        let starts = [[0.9, 1.7, 0.4, -1.2], [-1.0, -0.3, 0.1, 0.25], [0.0; 4]];
        let (mut by_target, mut by_stall) = (false, false);
        for cfg in &configs {
            for x0 in &starts {
                let want = reference_fd_adam(&f, &bounds, x0, cfg);
                let calls = std::cell::Cell::new(0usize);
                let counted = |x: &[f64]| {
                    calls.set(calls.get() + 1);
                    f(x)
                };
                let got = adam(central_difference(counted, &bounds), &bounds, x0, cfg);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.x), bits(&want.x), "{x0:?}");
                assert_eq!(got.fx.to_bits(), want.fx.to_bits(), "{x0:?}");
                assert_eq!(calls.get(), want.evaluations, "{x0:?}");
                let early = got.evaluations < 2 * cfg.max_iters + 1;
                by_target |= early && cfg.target.is_some_and(|t| got.fx <= t);
                by_stall |= early && cfg.target.is_none();
            }
        }
        assert!(
            by_target && by_stall,
            "target {by_target}, stall {by_stall}"
        );
    }
}
