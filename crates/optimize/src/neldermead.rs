//! Bounded Nelder–Mead simplex minimization.

use crate::{Bounds, OptimizeResult};

/// Configuration for [`nelder_mead`].
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadConfig {
    /// Maximum objective evaluations.
    pub max_evaluations: usize,
    /// Convergence tolerance on the simplex's objective spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex's coordinate spread.
    pub x_tol: f64,
    /// Relative size of the initial simplex (fraction of each
    /// dimension's bound width).
    pub initial_step: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig {
            max_evaluations: 10_000,
            f_tol: 1e-12,
            x_tol: 1e-10,
            initial_step: 0.05,
        }
    }
}

/// Minimizes `f` with the Nelder–Mead simplex method starting from
/// `x0`, clamping every trial point into `bounds`.
///
/// Uses the standard coefficients (reflection 1, expansion 2,
/// contraction ½, shrink ½).
///
/// # Panics
///
/// Panics if `x0.len() != bounds.dim()`.
///
/// # Example
///
/// ```
/// use geyser_optimize::{nelder_mead, Bounds, NelderMeadConfig};
/// let bounds = Bounds::uniform(2, -5.0, 5.0);
/// let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2);
/// let res = nelder_mead(&f, &bounds, &[0.0, 0.0], &NelderMeadConfig::default());
/// assert!(res.fx < 1e-9);
/// ```
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    bounds: &Bounds,
    x0: &[f64],
    cfg: &NelderMeadConfig,
) -> OptimizeResult {
    let dim = bounds.dim();
    assert_eq!(x0.len(), dim, "starting point dimension mismatch");

    let mut evaluations = 0usize;
    let mut eval = |x: &mut Vec<f64>, evals: &mut usize| -> f64 {
        bounds.clamp(x);
        *evals += 1;
        f(x)
    };

    // Build the initial simplex: x0 plus one perturbed vertex per dim.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(dim + 1);
    let mut base = x0.to_vec();
    let f0 = eval(&mut base, &mut evaluations);
    simplex.push((base.clone(), f0));
    for i in 0..dim {
        let mut v = base.clone();
        let step = (bounds.width(i) * cfg.initial_step).max(1e-8);
        // Step away from the nearer bound to keep the vertex distinct.
        if v[i] + step <= bounds.hi(i) {
            v[i] += step;
        } else {
            v[i] -= step;
        }
        let fv = eval(&mut v, &mut evaluations);
        simplex.push((v, fv));
    }

    while evaluations < cfg.max_evaluations {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let f_best = simplex[0].1;
        let f_worst = simplex[dim].1;

        // Convergence tests.
        let f_spread = (f_worst - f_best).abs();
        let x_spread = (0..dim)
            .map(|i| {
                simplex
                    .iter()
                    .map(|(v, _)| (v[i] - simplex[0].0[i]).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        if f_spread <= cfg.f_tol && x_spread <= cfg.x_tol {
            break;
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; dim];
        for (v, _) in &simplex[..dim] {
            for i in 0..dim {
                centroid[i] += v[i];
            }
        }
        for c in &mut centroid {
            *c /= dim as f64;
        }

        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
        };

        // Reflection.
        let worst = simplex[dim].0.clone();
        let mut reflected = lerp(&centroid, &worst, -1.0);
        let f_ref = eval(&mut reflected, &mut evaluations);

        if f_ref < simplex[0].1 {
            // Expansion.
            let mut expanded = lerp(&centroid, &worst, -2.0);
            let f_exp = eval(&mut expanded, &mut evaluations);
            simplex[dim] = if f_exp < f_ref {
                (expanded, f_exp)
            } else {
                (reflected, f_ref)
            };
        } else if f_ref < simplex[dim - 1].1 {
            simplex[dim] = (reflected, f_ref);
        } else {
            // Contraction (outside if the reflection helped, else inside).
            let t = if f_ref < simplex[dim].1 { -0.5 } else { 0.5 };
            let mut contracted = lerp(&centroid, &worst, t);
            let f_con = eval(&mut contracted, &mut evaluations);
            let threshold = simplex[dim].1.min(f_ref);
            if f_con < threshold {
                simplex[dim] = (contracted, f_con);
            } else {
                // Shrink toward the best vertex.
                let best = simplex[0].0.clone();
                for entry in simplex.iter_mut().skip(1) {
                    let mut shrunk = lerp(&best, &entry.0, 0.5);
                    let fs = eval(&mut shrunk, &mut evaluations);
                    *entry = (shrunk, fs);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (x, fx) = simplex.swap_remove(0);
    OptimizeResult {
        x,
        fx,
        evaluations,
        accepted: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let bounds = Bounds::uniform(3, -10.0, 10.0);
        let f = |x: &[f64]| x.iter().map(|v| (v - 3.0).powi(2)).sum::<f64>();
        let res = nelder_mead(&f, &bounds, &[0.0; 3], &NelderMeadConfig::default());
        assert!(res.fx < 1e-9, "fx = {}", res.fx);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let bounds = Bounds::uniform(2, -2.0, 2.0);
        let f = |x: &[f64]| 100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2);
        let cfg = NelderMeadConfig {
            max_evaluations: 20_000,
            ..NelderMeadConfig::default()
        };
        let res = nelder_mead(&f, &bounds, &[-1.0, 1.0], &cfg);
        assert!(res.fx < 1e-8, "fx = {}", res.fx);
        assert!((res.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stays_within_bounds() {
        let bounds = Bounds::uniform(2, 0.0, 1.0);
        // Unconstrained minimum at (-3, -3), outside the box.
        let f = |x: &[f64]| (x[0] + 3.0).powi(2) + (x[1] + 3.0).powi(2);
        let res = nelder_mead(&f, &bounds, &[0.5, 0.5], &NelderMeadConfig::default());
        assert!(bounds.contains(&res.x));
        assert!((res.x[0]).abs() < 1e-6);
        assert!((res.x[1]).abs() < 1e-6);
    }

    #[test]
    fn respects_evaluation_budget() {
        let bounds = Bounds::uniform(5, -1.0, 1.0);
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let cfg = NelderMeadConfig {
            max_evaluations: 50,
            ..NelderMeadConfig::default()
        };
        let res = nelder_mead(&f, &bounds, &[0.9; 5], &cfg);
        // Budget plus at most one in-flight shrink loop of dim evals.
        assert!(res.evaluations <= 56, "evals = {}", res.evaluations);
    }

    #[test]
    fn starting_at_optimum_converges_immediately() {
        let bounds = Bounds::uniform(2, -1.0, 1.0);
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let res = nelder_mead(&f, &bounds, &[0.0, 0.0], &NelderMeadConfig::default());
        assert!(res.fx < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_start_dimension_panics() {
        let bounds = Bounds::uniform(2, 0.0, 1.0);
        let f = |x: &[f64]| x[0];
        let _ = nelder_mead(&f, &bounds, &[0.5], &NelderMeadConfig::default());
    }
}
