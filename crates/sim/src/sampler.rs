//! Ideal and noisy output-distribution estimation.
//!
//! # Failure model
//!
//! Trajectory simulation applies exact gate matrices, so a NaN/Inf
//! amplitude or a norm drifted from 1 means the inputs were corrupt.
//! Each trajectory is health-checked; an unhealthy one is rejected and
//! resampled from a derived seed up to [`MAX_TRAJECTORY_RETRIES`]
//! times before the sampler gives up with a typed
//! [`SimError::TrajectoryRejected`]. Healthy runs consume the primary
//! RNG stream exactly as before, so fault handling never perturbs
//! fault-free results.

use geyser_circuit::Circuit;
use geyser_num::{CMatrix, Complex};
use geyser_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{NoiseModel, SimError, StateVector, NORM_DRIFT_TOL};

/// Resample attempts per rejected trajectory before the sampler gives
/// up with [`SimError::TrajectoryRejected`].
pub const MAX_TRAJECTORY_RETRIES: usize = 3;

/// Test/bench-only fault hooks for the Monte-Carlo sampler.
///
/// Injection corrupts the trajectory state with a NaN-bearing gate
/// matrix — the same symptom a genuinely corrupt unitary would cause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimFaults {
    /// Trajectories whose *first* attempt is corrupted (transient
    /// fault: rejection-and-resample must recover).
    pub nan_trajectories: Vec<usize>,
    /// Trajectories corrupted on *every* attempt (persistent fault:
    /// must surface as [`SimError::TrajectoryRejected`]).
    pub persistent_nan_trajectories: Vec<usize>,
}

impl SimFaults {
    /// No injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault is configured.
    pub fn is_empty(&self) -> bool {
        self.nan_trajectories.is_empty() && self.persistent_nan_trajectories.is_empty()
    }
}

/// Poisons the state with a NaN-bearing single-qubit matrix, the way a
/// corrupted gate unitary would.
fn poison_state(sv: &mut StateVector) {
    let mut bad = CMatrix::identity(2);
    bad[(0, 0)] = Complex::new(f64::NAN, 0.0);
    sv.apply_matrix(&bad, &[0]);
}

/// Exact (noise-free) output distribution of `circuit` starting from
/// `|0…0⟩`, indexed by big-endian basis state.
///
/// # Example
///
/// ```
/// use geyser_circuit::Circuit;
/// use geyser_sim::ideal_distribution;
/// let mut c = Circuit::new(1);
/// c.h(0);
/// let p = ideal_distribution(&c);
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// ```
pub fn ideal_distribution(circuit: &Circuit) -> Vec<f64> {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    sv.apply_circuit(circuit);
    sv.probabilities()
}

/// [`ideal_distribution`] with numerical health guards: returns a
/// typed [`SimError`] instead of silently emitting NaN probabilities
/// when a gate matrix is corrupt or non-unitary.
pub fn try_ideal_distribution(circuit: &Circuit) -> Result<Vec<f64>, SimError> {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    sv.try_apply_circuit(circuit)?;
    Ok(sv.probabilities())
}

/// Monte-Carlo estimate of the noisy output distribution.
///
/// Runs `trajectories` independent noise realizations. In each
/// trajectory every operation is applied exactly, followed by the
/// Pauli errors sampled from `noise`; the trajectory's *exact*
/// measurement distribution is then accumulated. Averaging exact
/// per-trajectory distributions (rather than drawing one shot per
/// trajectory) is a standard variance-reduction: the estimator remains
/// unbiased for the channel's output distribution while converging
/// with far fewer trajectories.
///
/// Deterministic for a fixed `(circuit, noise, trajectories, seed)`.
///
/// # Panics
///
/// Panics if `trajectories == 0` or simulation is numerically
/// unhealthy (see [`try_sample_noisy_distribution_traced`] for the
/// fallible form).
pub fn sample_noisy_distribution(
    circuit: &Circuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
) -> Vec<f64> {
    try_sample_noisy_distribution_traced(
        circuit,
        noise,
        trajectories,
        seed,
        &SimFaults::none(),
        &Telemetry::disabled(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one noise trajectory from `|0…0⟩`, consuming `rng` for the
/// Pauli error draws.
fn run_trajectory(
    circuit: &Circuit,
    noise: &NoiseModel,
    rng: &mut StdRng,
    inject_nan: bool,
) -> StateVector {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    for op in circuit.iter() {
        sv.apply_operation(op);
        let (xs, zs) = noise.sample_errors(op, rng);
        for q in xs {
            sv.apply_x(q);
        }
        for q in zs {
            sv.apply_z(q);
        }
    }
    if inject_nan {
        poison_state(&mut sv);
    }
    sv
}

/// Fallible form of [`sample_noisy_distribution`] with trajectory
/// health checks, rejection-and-resample and test/bench-only fault
/// injection (`faults`).
///
/// Each trajectory is health-checked (finite amplitudes, norm within
/// [`NORM_DRIFT_TOL`]); an unhealthy one is resampled from a seed
/// derived from `(seed, trajectory, attempt)` up to
/// [`MAX_TRAJECTORY_RETRIES`] times. Attempt 0 consumes the primary
/// RNG stream exactly as the historical sampler did, so fault-free
/// runs are bit-identical with or without the guard machinery.
///
/// Records a `sim.sample` span plus `sim.trajectories` /
/// `sim.resamples` counters on `telemetry`. Results are bit-identical
/// with telemetry enabled or disabled — the handle is observational
/// only.
///
/// # Panics
///
/// Panics if `trajectories == 0`.
pub fn try_sample_noisy_distribution_traced(
    circuit: &Circuit,
    noise: &NoiseModel,
    trajectories: usize,
    seed: u64,
    faults: &SimFaults,
    telemetry: &Telemetry,
) -> Result<Vec<f64>, SimError> {
    assert!(trajectories > 0, "need at least one trajectory");
    let n = circuit.num_qubits();
    let dim = 1usize << n;

    if noise.is_noiseless() && faults.is_empty() {
        return try_ideal_distribution(circuit);
    }

    let mut span = telemetry.span("sim", "sim.sample");
    span.attr("trajectories", trajectories);
    let mut accum = vec![0.0f64; dim];
    let mut rng = StdRng::seed_from_u64(seed);
    for t in 0..trajectories {
        let persistent = faults.persistent_nan_trajectories.contains(&t);
        let transient = faults.nan_trajectories.contains(&t);
        let mut sv = run_trajectory(circuit, noise, &mut rng, persistent || transient);
        let mut retries = 0;
        while sv.check_health(NORM_DRIFT_TOL).is_err() {
            if retries >= MAX_TRAJECTORY_RETRIES {
                return Err(SimError::TrajectoryRejected {
                    trajectory: t,
                    retries,
                });
            }
            retries += 1;
            telemetry.counter_add("sim.resamples", 1);
            // Derived stream: keeps the primary RNG untouched so later
            // trajectories draw the same errors they always did.
            let retry_seed = seed
                ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (retries as u64).rotate_left(48);
            let mut retry_rng = StdRng::seed_from_u64(retry_seed);
            sv = run_trajectory(circuit, noise, &mut retry_rng, persistent);
        }
        for (a, p) in accum.iter_mut().zip(sv.probabilities()) {
            *a += p;
        }
    }
    telemetry.counter_add("sim.trajectories", trajectories as u64);
    let inv = 1.0 / trajectories as f64;
    for a in &mut accum {
        *a *= inv;
    }
    Ok(accum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::total_variation_distance;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c
    }

    #[test]
    fn ideal_distribution_normalizes() {
        let p = ideal_distribution(&bell());
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noiseless_sampling_equals_ideal() {
        let c = bell();
        let p1 = ideal_distribution(&c);
        let p2 = sample_noisy_distribution(&c, &NoiseModel::noiseless(), 10, 1);
        assert!(total_variation_distance(&p1, &p2) < 1e-14);
    }

    #[test]
    fn noise_increases_tvd_to_ideal() {
        let c = bell();
        let ideal = ideal_distribution(&c);
        let low = sample_noisy_distribution(&c, &NoiseModel::symmetric(0.001), 400, 2);
        let high = sample_noisy_distribution(&c, &NoiseModel::symmetric(0.05), 400, 2);
        let tvd_low = total_variation_distance(&ideal, &low);
        let tvd_high = total_variation_distance(&ideal, &high);
        assert!(tvd_low < tvd_high, "tvd {tvd_low} !< {tvd_high}");
        assert!(tvd_high > 0.01);
    }

    #[test]
    fn noisy_distribution_is_normalized() {
        let c = bell();
        let p = sample_noisy_distribution(&c, &NoiseModel::symmetric(0.02), 50, 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = bell();
        let nm = NoiseModel::symmetric(0.01);
        let a = sample_noisy_distribution(&c, &nm, 20, 7);
        let b = sample_noisy_distribution(&c, &nm, 20, 7);
        assert_eq!(a, b);
        let d = sample_noisy_distribution(&c, &nm, 20, 8);
        assert_ne!(a, d);
    }

    #[test]
    fn more_pulses_mean_more_noise() {
        // Same unitary effect, but one circuit wastes pulses: X·X·X = X.
        let mut lean = Circuit::new(1);
        lean.x(0);
        let mut wasteful = Circuit::new(1);
        wasteful.x(0).x(0).x(0).x(0).x(0);
        let nm = NoiseModel::symmetric(0.02);
        let ideal = ideal_distribution(&lean);
        let lean_p = sample_noisy_distribution(&lean, &nm, 600, 11);
        let waste_p = sample_noisy_distribution(&wasteful, &nm, 600, 11);
        let tvd_lean = total_variation_distance(&ideal, &lean_p);
        let tvd_waste = total_variation_distance(&ideal, &waste_p);
        assert!(
            tvd_lean < tvd_waste,
            "lean {tvd_lean} !< wasteful {tvd_waste}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trajectory")]
    fn zero_trajectories_panics() {
        let _ = sample_noisy_distribution(&bell(), &NoiseModel::symmetric(0.1), 0, 0);
    }

    #[test]
    fn transient_nan_trajectory_is_resampled() {
        let c = bell();
        let nm = NoiseModel::symmetric(0.01);
        let faults = SimFaults {
            nan_trajectories: vec![3, 7],
            ..SimFaults::none()
        };
        let p =
            try_sample_noisy_distribution_traced(&c, &nm, 20, 7, &faults, &Telemetry::disabled())
                .expect("transient faults must be resampled away");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|x| x.is_finite()));
        // The resampled estimate stays statistically sane.
        let clean = sample_noisy_distribution(&c, &nm, 20, 7);
        assert!(total_variation_distance(&p, &clean) < 0.1);
    }

    #[test]
    fn guards_do_not_perturb_fault_free_stream() {
        // With no faults injected, the guarded sampler is bit-identical
        // to the unguarded one (attempt 0 consumes the primary stream).
        let c = bell();
        let nm = NoiseModel::symmetric(0.02);
        let a = sample_noisy_distribution(&c, &nm, 30, 9);
        let b = try_sample_noisy_distribution_traced(
            &c,
            &nm,
            30,
            9,
            &SimFaults::none(),
            &Telemetry::disabled(),
        )
        .expect("healthy");
        assert_eq!(a, b);
    }

    #[test]
    fn persistent_nan_trajectory_surfaces_typed_error() {
        let c = bell();
        let nm = NoiseModel::symmetric(0.01);
        let faults = SimFaults {
            persistent_nan_trajectories: vec![2],
            ..SimFaults::none()
        };
        let err =
            try_sample_noisy_distribution_traced(&c, &nm, 10, 1, &faults, &Telemetry::disabled())
                .expect_err("persistent corruption must not be averaged in");
        assert_eq!(
            err,
            SimError::TrajectoryRejected {
                trajectory: 2,
                retries: MAX_TRAJECTORY_RETRIES
            }
        );
    }

    #[test]
    fn try_ideal_distribution_matches_ideal() {
        let c = bell();
        let a = ideal_distribution(&c);
        let b = try_ideal_distribution(&c).expect("healthy circuit");
        assert_eq!(a, b);
    }
}
