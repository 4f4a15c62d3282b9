//! Algorithm 2: layer-growing composition with dual annealing, and
//! parallel whole-circuit composition.
//!
//! # Failure model
//!
//! Block composition is a stochastic search that can time out, fail to
//! converge, or (under fault injection / numerical trouble) produce an
//! unhealthy candidate. Every per-block attempt therefore ends in a
//! [`BlockOutcome`]: `Composed` on success, `FellBack` (with a
//! [`FallbackReason`]) when the original blocked pulses are kept, or
//! `Failed` when the worker panicked — the panic is isolated per block
//! with `catch_unwind`, so one poisoned block never takes down the
//! whole compilation. A circuit always composes; the outcomes record
//! how much of it degraded.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use geyser_blocking::BlockedCircuit;
use geyser_circuit::Circuit;
use geyser_num::{hilbert_schmidt_distance, CMatrix};
use geyser_optimize::{
    adam, dual_annealing, AdamConfig, Bounds, CancelToken, Deadline, DualAnnealingConfig,
};
use geyser_reuse::{BlockFingerprint, ReuseEntry, ReuseOutcome, ReuseSession, ReuseStats};
use geyser_sim::circuit_unitary;
use geyser_telemetry::Telemetry;
use geyser_verify::verify_block_candidate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::certificate::SchmidtCertificate;
use crate::objective::AnsatzObjective;
use crate::{Ansatz, ComposeError, Entangler};

/// Configuration for block composition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompositionConfig {
    /// HSD acceptance threshold ε (Algorithm 2). The paper quotes
    /// 1e-5 for strict equivalence; 1e-3 is ample for the TVD
    /// experiments (ideal-output TVD stays ≪ 1e-2, Sec. 6).
    pub epsilon: f64,
    /// Maximum ansatz layers to try before giving up.
    pub max_layers: usize,
    /// Dual-annealing outer iterations per attempt.
    pub anneal_iters: usize,
    /// Independent annealing restarts per layer count.
    pub restarts: usize,
    /// Reseeded retries of the whole layer search after
    /// non-convergence, each with a halved annealing budget (backoff).
    pub retry_attempts: usize,
    /// Base RNG seed (each block/restart derives its own).
    pub seed: u64,
    /// Worker threads for whole-circuit composition (0 = all cores).
    pub threads: usize,
    /// Started wall-clock budget shared by all blocks: once expired,
    /// remaining blocks fall back to their original pulses with
    /// [`FallbackReason::BudgetExhausted`].
    pub deadline: Deadline,
}

impl Default for CompositionConfig {
    fn default() -> Self {
        CompositionConfig {
            epsilon: 1e-3,
            max_layers: 3,
            anneal_iters: 220,
            restarts: 3,
            retry_attempts: 1,
            seed: 0,
            threads: 0,
            deadline: Deadline::none(),
        }
    }
}

impl CompositionConfig {
    /// A reduced-budget configuration for tests and smoke runs.
    pub fn fast() -> Self {
        CompositionConfig {
            epsilon: 1e-3,
            max_layers: 2,
            anneal_iters: 60,
            restarts: 1,
            retry_attempts: 0,
            seed: 0,
            threads: 1,
            deadline: Deadline::none(),
        }
    }

    /// Returns a copy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy bounded by the given started deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

/// Why a block kept its original (uncomposed) pulses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The search met ε but no candidate needed fewer pulses than the
    /// original (the normal Algorithm 2 rejection) — or the block was
    /// too small for any ansatz to beat.
    NotCheaper,
    /// No candidate met ε within the annealing budget, even after
    /// `retry_attempts` reseeded retries.
    NonConvergence,
    /// The wall-clock budget expired before or during the search.
    BudgetExhausted,
    /// A candidate met ε inside the optimizer but failed the final
    /// re-verification against the block unitary (corrupted or
    /// numerically unhealthy candidate).
    EpsilonRejected,
    /// The job's cancellation token fired before or during the search;
    /// the original pulses were kept so the run could terminate
    /// promptly.
    Cancelled,
}

impl FallbackReason {
    /// Stable kebab-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            FallbackReason::NotCheaper => "not-cheaper",
            FallbackReason::NonConvergence => "non-convergence",
            FallbackReason::BudgetExhausted => "budget-exhausted",
            FallbackReason::EpsilonRejected => "epsilon-rejected",
            FallbackReason::Cancelled => "cancelled",
        }
    }
}

/// Per-block outcome of whole-circuit composition.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockOutcome {
    /// The composed candidate replaced the original block.
    Composed {
        /// Ansatz layers of the accepted candidate (0 = exact path).
        layers: usize,
        /// Verified HSD between the candidate and the block unitary.
        hsd: f64,
    },
    /// The original blocked pulses were kept.
    FellBack {
        /// Why composition did not win.
        reason: FallbackReason,
    },
    /// The composition worker panicked; the original pulses were kept
    /// and the panic payload recorded.
    Failed {
        /// Rendered panic payload.
        detail: String,
    },
    /// The block was not eligible for composition (non-triangle).
    Skipped,
}

/// Outcome of composing one block.
#[derive(Debug, Clone)]
pub struct CompositionResult {
    /// The block circuit to execute (composed, or the original when
    /// composition did not win).
    pub circuit: Circuit,
    /// HSD between the returned circuit and the original block.
    pub hsd: f64,
    /// Whether the composed candidate replaced the original.
    pub composed: bool,
    /// Ansatz layers of the accepted candidate (0 if not composed).
    pub layers: usize,
    /// How the attempt ended.
    pub outcome: BlockOutcome,
}

/// Test/bench-only fault hooks for whole-circuit composition.
///
/// Injected faults must degrade gracefully: a corrupted candidate is
/// caught by the final ε re-verification and falls back; a panicking
/// worker is isolated per block and records [`BlockOutcome::Failed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ComposeFaults {
    /// Block indices whose accepted candidate is corrupted before the
    /// final ε re-verification.
    pub corrupt_blocks: Vec<usize>,
    /// Block indices whose composition worker panics.
    pub panic_blocks: Vec<usize>,
}

impl ComposeFaults {
    /// No injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault is configured.
    pub fn is_empty(&self) -> bool {
        self.corrupt_blocks.is_empty() && self.panic_blocks.is_empty()
    }
}

/// Aggregate statistics of whole-circuit composition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompositionStats {
    /// Total blocks examined.
    pub blocks_total: usize,
    /// Triangle blocks eligible for composition.
    pub blocks_eligible: usize,
    /// Blocks where the composed candidate won.
    pub blocks_composed: usize,
    /// Pulses across all blocks before composition.
    pub pulses_before: u64,
    /// Pulses across all blocks after composition.
    pub pulses_after: u64,
    /// Eligible blocks that kept their original pulses (timeout,
    /// non-convergence, ε-rejection, or simply not cheaper).
    pub blocks_fell_back: usize,
    /// Eligible blocks whose worker panicked (isolated; original
    /// pulses kept).
    pub blocks_failed: usize,
    /// Fallbacks (a subset of [`CompositionStats::blocks_fell_back`])
    /// caused by a fired cancellation token.
    pub blocks_cancelled: usize,
    /// Blocks whose result was restored from `prior` results instead
    /// of being recomposed.
    pub blocks_resumed: usize,
    /// Largest HSD among accepted candidates (composition error bound).
    pub max_accepted_hsd: f64,
    /// Reuse accounting when a [`ReuseSession`] drove this composition
    /// (`None` when reuse was off).
    pub reuse: Option<ReuseStats>,
}

/// A fully composed circuit with its statistics.
#[derive(Debug, Clone)]
pub struct ComposedCircuit {
    /// The final flat circuit over the source qubit space.
    pub circuit: Circuit,
    /// Composition statistics.
    pub stats: CompositionStats,
    /// Per-block outcome, indexed like the blocked circuit's blocks.
    pub outcomes: Vec<BlockOutcome>,
}

/// Returns `true` if the unitary is the identity up to global phase.
fn is_identity_up_to_phase(u: &CMatrix, tol: f64) -> bool {
    let phase = u[(0, 0)];
    if (phase.norm() - 1.0).abs() > tol {
        return false;
    }
    u.approx_eq(&CMatrix::identity(u.rows()).scale(phase), tol)
}

/// Composes a single 3-qubit block circuit per Algorithm 2.
///
/// Grows the ansatz one layer at a time, minimizing the HSD with dual
/// annealing; accepts the first candidate that meets `epsilon` *and*
/// uses fewer pulses than the original; otherwise returns the
/// original block unchanged.
///
/// Deterministic for a fixed `(block, config)`.
///
/// # Panics
///
/// Panics if the block is not a 3-qubit circuit.
pub fn compose_block(block: &Circuit, config: &CompositionConfig) -> CompositionResult {
    try_compose_block(block, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`compose_block`]: returns
/// [`ComposeError::NotThreeQubit`] instead of panicking when the block
/// is not a 3-qubit circuit.
///
/// # Example
///
/// ```
/// use geyser_circuit::Circuit;
/// use geyser_compose::{try_compose_block, ComposeError, CompositionConfig};
/// let block = Circuit::new(2);
/// let err = try_compose_block(&block, &CompositionConfig::fast());
/// assert!(matches!(err, Err(ComposeError::NotThreeQubit { qubits: 2 })));
/// ```
pub fn try_compose_block(
    block: &Circuit,
    config: &CompositionConfig,
) -> Result<CompositionResult, ComposeError> {
    if block.num_qubits() != 3 {
        return Err(ComposeError::NotThreeQubit {
            qubits: block.num_qubits(),
        });
    }
    Ok(compose_block_inner(
        block,
        config,
        false,
        &CancelToken::none(),
        &Telemetry::disabled(),
    ))
}

/// How one reseeded pass over the layer ladder ended.
enum SearchVerdict {
    Accepted(CompositionResult),
    NotCheaper,
    EpsilonRejected,
    NonConvergence,
    BudgetExhausted,
    Cancelled,
}

/// Per-block reuse directive, computed in the serial planning phase so
/// the parallel waves stay deterministic across thread counts.
#[derive(Debug, Clone)]
enum ReusePlan {
    /// No applicable cached knowledge: search normally.
    Fresh,
    /// Near-miss (coarse-fingerprint) hit: warm-start the annealer
    /// from the cached parameters with a reduced iteration budget.
    WarmStart {
        /// Cached ansatz parameters (the annealer's starting point).
        params: Vec<f64>,
        /// Ansatz layer count the parameters belong to.
        layers: usize,
    },
    /// Exact-fingerprint hit: replay the cached entry (through the ε
    /// re-verification gate) instead of annealing.
    Replay {
        entry: ReuseEntry,
        /// CHAOS ONLY: accept the replay without re-verification.
        skip_verify: bool,
    },
    /// Same fingerprint as an earlier block in this run: composed in
    /// the second wave, after the leader's result is published.
    Follower,
}

/// Reuse side-channel threaded through one block's search: annealer
/// cost, the winning parameters (for publication), and what the replay
/// / warm-start machinery actually did.
#[derive(Debug, Clone, Default)]
struct ReuseTrace {
    /// Annealer objective evaluations this block spent (mirrors the
    /// `compose.anneal_evaluations` telemetry counter).
    evaluations: u64,
    /// Parameters + layer count of the accepted annealed candidate.
    winning: Option<(Vec<f64>, usize)>,
    /// The annealer was actually seeded from a near-miss entry.
    warm_applied: bool,
    /// The block was resolved by replaying a cached entry.
    exact_hit: bool,
    /// A replay was rejected by re-verification (fell through to a
    /// fresh search).
    exact_rejected: bool,
    /// A replay was accepted *without* re-verification (chaos fault).
    unverified_replay: bool,
    /// Evaluations the original composition spent, saved by replay.
    evals_saved: u64,
}

fn compose_block_inner(
    block: &Circuit,
    config: &CompositionConfig,
    corrupt: bool,
    cancel: &CancelToken,
    telemetry: &Telemetry,
) -> CompositionResult {
    compose_block_planned(
        block,
        config,
        corrupt,
        cancel,
        telemetry,
        &ReusePlan::Fresh,
        &mut ReuseTrace::default(),
    )
}

fn compose_block_planned(
    block: &Circuit,
    config: &CompositionConfig,
    corrupt: bool,
    cancel: &CancelToken,
    telemetry: &Telemetry,
    plan: &ReusePlan,
    trace: &mut ReuseTrace,
) -> CompositionResult {
    let original_pulses = block.total_pulses();
    let fall_back = |reason: FallbackReason| CompositionResult {
        circuit: block.clone(),
        hsd: 0.0,
        composed: false,
        layers: 0,
        outcome: BlockOutcome::FellBack { reason },
    };

    if block.is_empty() {
        return fall_back(FallbackReason::NotCheaper);
    }
    if cancel.is_cancelled() {
        return fall_back(FallbackReason::Cancelled);
    }
    if config.deadline.expired() {
        return fall_back(FallbackReason::BudgetExhausted);
    }
    let target = circuit_unitary(block);
    if !target.is_finite() {
        // Numerically unhealthy block unitary: nothing downstream of it
        // can be trusted, so keep the original pulses verbatim.
        return fall_back(FallbackReason::EpsilonRejected);
    }

    // Degenerate win: the block is the identity — drop it entirely.
    if is_identity_up_to_phase(&target, config.epsilon.min(1e-9)) && original_pulses > 0 {
        let hsd = hilbert_schmidt_distance(&target, &CMatrix::identity(8));
        return CompositionResult {
            circuit: Circuit::new(3),
            hsd,
            composed: true,
            layers: 0,
            outcome: BlockOutcome::Composed { layers: 0, hsd },
        };
    }

    // Exact fast path: blocks whose unitary touches at most two of the
    // three qubits synthesize deterministically — single U3 via ZYZ or
    // a ≤6-CZ KAK circuit — with no annealing at all.
    if let Some(mut exact) = exact_small_support_candidate(&target) {
        if exact.total_pulses() < original_pulses {
            if corrupt {
                exact.t(0);
            }
            // Shared oracle check (geyser-verify): the same acceptance
            // rule `--verify` trusts, so the two can never disagree.
            let check = verify_block_candidate(&exact, &target, config.epsilon);
            if check.accepted {
                let hsd = check.hsd;
                return CompositionResult {
                    circuit: exact,
                    hsd,
                    composed: true,
                    layers: 0,
                    outcome: BlockOutcome::Composed { layers: 0, hsd },
                };
            }
            // Exact synthesis missed ε (corrupted or numerically off):
            // fall through to the annealed search rather than trusting it.
        }
    }

    // Exact reuse hit: replay the cached entry instead of annealing.
    // The replayed candidate goes through the *same* shared-oracle ε
    // check as a fresh one — a poisoned or stale entry is rejected
    // here and the block falls through to a normal search.
    if let ReusePlan::Replay { entry, skip_verify } = plan {
        match entry.outcome {
            ReuseOutcome::NotCheaper => {
                trace.exact_hit = true;
                trace.evals_saved += entry.evaluations;
                telemetry.counter_add("reuse.exact_hits", 1);
                return fall_back(FallbackReason::NotCheaper);
            }
            ReuseOutcome::EpsilonRejected => {
                trace.exact_hit = true;
                trace.evals_saved += entry.evaluations;
                telemetry.counter_add("reuse.exact_hits", 1);
                return fall_back(FallbackReason::EpsilonRejected);
            }
            ReuseOutcome::NonConvergent => {
                trace.exact_hit = true;
                trace.evals_saved += entry.evaluations;
                telemetry.counter_add("reuse.exact_hits", 1);
                return fall_back(FallbackReason::NonConvergence);
            }
            ReuseOutcome::Composed => {
                let ansatz = Ansatz::new(entry.layers);
                if entry.layers >= 1 && entry.params.len() == ansatz.num_params() {
                    let mut candidate = ansatz.to_circuit(&entry.params);
                    if corrupt {
                        candidate.t(0);
                    }
                    if candidate.total_pulses() < original_pulses {
                        if *skip_verify {
                            // CHAOS ONLY: trust the entry blindly. The
                            // geyser-verify reuse invariant trips on the
                            // nonzero unverified_replays counter.
                            trace.exact_hit = true;
                            trace.unverified_replay = true;
                            trace.evals_saved += entry.evaluations;
                            telemetry.counter_add("reuse.exact_hits", 1);
                            telemetry.counter_add("reuse.unverified_replays", 1);
                            return CompositionResult {
                                circuit: candidate,
                                hsd: entry.hsd,
                                composed: true,
                                layers: entry.layers,
                                outcome: BlockOutcome::Composed {
                                    layers: entry.layers,
                                    hsd: entry.hsd,
                                },
                            };
                        }
                        let check = verify_block_candidate(&candidate, &target, config.epsilon);
                        if check.accepted {
                            trace.exact_hit = true;
                            trace.evals_saved += entry.evaluations;
                            telemetry.counter_add("reuse.exact_hits", 1);
                            let hsd = check.hsd;
                            return CompositionResult {
                                circuit: candidate,
                                hsd,
                                composed: true,
                                layers: entry.layers,
                                outcome: BlockOutcome::Composed {
                                    layers: entry.layers,
                                    hsd,
                                },
                            };
                        }
                    }
                }
                trace.exact_rejected = true;
                telemetry.counter_add("reuse.exact_hits_rejected", 1);
                // Fall through to the fresh annealed search below.
            }
        }
    }
    let warm: Option<(&[f64], usize)> = match plan {
        ReusePlan::WarmStart { params, layers } => Some((params.as_slice(), *layers)),
        _ => None,
    };

    // Which depths and entangler combinations can reach ε at all: a
    // property of the block, so every retry shares it.
    let cert = SchmidtCertificate::new(&target, config.epsilon);

    // Annealed layer search with reseeded retries: each retry derives a
    // fresh seed and halves the annealing budget (backoff), so a block
    // that refuses to converge costs a bounded, shrinking amount.
    let mut attempt_cfg = *config;
    for attempt in 0..=config.retry_attempts {
        if cancel.is_cancelled() {
            return fall_back(FallbackReason::Cancelled);
        }
        if config.deadline.expired() {
            return fall_back(FallbackReason::BudgetExhausted);
        }
        match search_all_layers(
            &target,
            &cert,
            &attempt_cfg,
            original_pulses,
            corrupt,
            cancel,
            telemetry,
            warm,
            trace,
        ) {
            SearchVerdict::Accepted(result) => return result,
            SearchVerdict::NotCheaper => return fall_back(FallbackReason::NotCheaper),
            SearchVerdict::EpsilonRejected => return fall_back(FallbackReason::EpsilonRejected),
            SearchVerdict::BudgetExhausted => return fall_back(FallbackReason::BudgetExhausted),
            SearchVerdict::Cancelled => return fall_back(FallbackReason::Cancelled),
            SearchVerdict::NonConvergence => {
                telemetry.counter_add("compose.retries", 1);
                attempt_cfg.seed = attempt_cfg
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(attempt as u64);
                attempt_cfg.anneal_iters = (attempt_cfg.anneal_iters / 2).max(16);
            }
        }
    }
    fall_back(FallbackReason::NonConvergence)
}

/// One pass over the layer ladder (Algorithm 2's outer loop) with the
/// final candidate re-verification.
#[allow(clippy::too_many_arguments)]
fn search_all_layers(
    target: &CMatrix,
    cert: &SchmidtCertificate,
    config: &CompositionConfig,
    original_pulses: u64,
    corrupt: bool,
    cancel: &CancelToken,
    telemetry: &Telemetry,
    warm: Option<(&[f64], usize)>,
    trace: &mut ReuseTrace,
) -> SearchVerdict {
    for layers in 1..=config.max_layers {
        let ansatz = Ansatz::new(layers);
        // Algorithm 2's loop guard: stop once even the cheapest
        // candidate of this depth cannot beat the original.
        if ansatz.min_pulses() >= original_pulses {
            return SearchVerdict::NotCheaper;
        }
        // Certified prune: no combination of this depth can reach ε, so
        // its search could only come back empty. Depths seed from
        // `(seed, layers)` alone, so skipping one leaves the next as is.
        let found = if cert.admits_depth(layers) {
            search_layer(
                &ansatz, target, cert, config, layers, cancel, telemetry, warm, trace,
            )
        } else {
            telemetry.counter_add("compose.pruned_depths", 1);
            None
        };
        match found {
            Some((_, params)) => {
                trace.winning = Some((params.clone(), layers));
                let mut candidate = ansatz.to_circuit(&params);
                if corrupt {
                    candidate.t(0);
                }
                // Re-verify the emitted *circuit* against the block
                // unitary with the shared geyser-verify oracle check:
                // the optimizer's objective was the ansatz matrix, and
                // the candidate may have been corrupted in between
                // (fault injection) or decode unhealthily.
                let check = verify_block_candidate(&candidate, target, config.epsilon);
                if !check.accepted {
                    return SearchVerdict::EpsilonRejected;
                }
                let verified = check.hsd;
                if candidate.total_pulses() < original_pulses {
                    return SearchVerdict::Accepted(CompositionResult {
                        circuit: candidate,
                        hsd: verified,
                        composed: true,
                        layers,
                        outcome: BlockOutcome::Composed {
                            layers,
                            hsd: verified,
                        },
                    });
                }
                // Meeting ε at this depth but not cheaper: deeper
                // ansätze only cost more pulses, so the original is
                // final.
                return SearchVerdict::NotCheaper;
            }
            None if cancel.is_cancelled() => return SearchVerdict::Cancelled,
            None if config.deadline.expired() => return SearchVerdict::BudgetExhausted,
            None => {}
        }
    }
    SearchVerdict::NonConvergence
}

/// Searches one ansatz depth for parameters meeting `config.epsilon`.
///
/// Hybrid strategy:
/// 1. **Global**: dual annealing over the full vector, categorical
///    included (the paper's optimizer), without its Nelder–Mead polish.
/// 2. **Refine**: Adam descent on the continuous angles from the best
///    annealing iterate (its categorical held fixed) — the search's
///    only local phase.
/// 3. **Multi-start**: Adam from seeded random starts, sweeping the
///    categorical combinations — annealing's decode first, then
///    all-CCZ, then the rest. Starts of combinations `cert` rules out
///    are skipped.
#[allow(clippy::too_many_arguments)]
fn search_layer(
    ansatz: &Ansatz,
    target: &CMatrix,
    cert: &SchmidtCertificate,
    config: &CompositionConfig,
    layers: usize,
    cancel: &CancelToken,
    telemetry: &Telemetry,
    warm: Option<(&[f64], usize)>,
    trace: &mut ReuseTrace,
) -> Option<(f64, Vec<f64>)> {
    let bounds = Bounds::new(&ansatz.bounds());
    // Every phase below shares one memoized kernel: its values are
    // bit-identical to `hilbert_schmidt_distance(&ansatz.unitary(p),
    // target)`, and Adam's gradients come from its adjoint sweep (see
    // `objective.rs`).
    let mut kernel = AnsatzObjective::new(*ansatz, target);
    let base_seed = config
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(layers as u64 * 131);

    // Phase 1: global annealing (bounded by the shared deadline). A
    // near-miss reuse hit at this depth seeds the chain from the
    // cached parameters with a reduced iteration budget: if the cached
    // optimum is close, the chain converges almost immediately; if
    // not, the refine/multi-start phases below run as usual. No
    // Nelder–Mead polish: phase 2's exact-gradient Adam is the local
    // phase, as a gradient method is in SciPy's `dual_annealing`.
    let mut da_cfg = DualAnnealingConfig {
        polish: false,
        ..DualAnnealingConfig::default()
    }
    .with_seed(base_seed)
    .with_max_iters(config.anneal_iters)
    .with_target(config.epsilon * 0.5)
    .with_deadline(config.deadline)
    .with_cancel(cancel.clone());
    if let Some((hint, warm_layers)) = warm {
        if warm_layers == layers && hint.len() == ansatz.num_params() {
            if !trace.warm_applied {
                telemetry.counter_add("reuse.warm_starts", 1);
            }
            trace.warm_applied = true;
            da_cfg = da_cfg
                .with_x0(hint.to_vec())
                .with_max_iters((config.anneal_iters / 4).max(16));
        }
    }
    let global = dual_annealing(|p: &[f64]| kernel.distance(p), &bounds, &da_cfg);
    trace.evaluations += global.evaluations as u64;
    telemetry.counter_add("compose.anneal_evaluations", global.evaluations as u64);
    if global.evaluations > 0 {
        let permille = (global.accepted as u64).saturating_mul(1000) / global.evaluations as u64;
        telemetry.histogram_record("compose.acceptance_permille", permille);
    }
    if cancel.is_cancelled() {
        return None;
    }
    if global.fx <= config.epsilon {
        return Some((global.fx, global.x));
    }
    if config.deadline.expired() {
        return None;
    }

    // Phase 2: gradient refinement of the annealing iterate. It runs
    // even when the annealer's decoded combination is ruled out: its
    // value feeds the `promising` gate below, so skipping it would
    // change which starts phase 3 runs.
    let adam_cfg = AdamConfig {
        max_iters: 350,
        ..AdamConfig::default()
    }
    .with_target(config.epsilon * 0.5)
    .with_deadline(config.deadline)
    .with_cancel(cancel.clone());
    let refined = adam(
        |p: &[f64], g: &mut [f64]| kernel.distance_and_gradient(p, g),
        &bounds,
        &global.x,
        &adam_cfg,
    );
    telemetry.counter_add("compose.refine_evaluations", refined.evaluations as u64);
    let mut best = if refined.fx < global.fx {
        (refined.fx, refined.x)
    } else {
        (global.fx, global.x)
    };
    if best.0 <= config.epsilon {
        return Some(best);
    }

    // Phase 3: multi-start descent over categorical combinations.
    // Blocks stuck far from the target after the global+refine phases
    // almost never converge from fresh random starts either — spend
    // the expensive sweep only when the search is within striking
    // distance.
    let promising = best.0 <= (config.epsilon * 100.0).max(0.05);
    let mut rng = StdRng::seed_from_u64(base_seed ^ 0xabcd_ef01);
    let mut combos: Vec<Vec<f64>> = Vec::new();
    // Annealing's decoded categorical first.
    combos.push(
        categorical_slots(ansatz)
            .iter()
            .map(|&slot| best.1[slot])
            .collect(),
    );
    // All-CCZ (the most expressive entangler).
    combos.push(vec![0.0; layers]);
    // Remaining combinations (exhaustive for ≤ 2 layers, sampled above).
    if layers <= 2 {
        let n_combos = 4usize.pow(layers as u32);
        for code in 0..n_combos {
            let combo: Vec<f64> = (0..layers)
                .map(|l| ((code >> (2 * l)) & 3) as f64 + 0.5)
                .collect();
            combos.push(combo);
        }
    } else {
        for _ in 0..8 {
            combos.push((0..layers).map(|_| rng.gen_range(0.0..4.0)).collect());
        }
    }
    combos.dedup_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .all(|(x, y)| Entangler::from_continuous(*x) == Entangler::from_continuous(*y))
    });

    if !promising {
        combos.truncate(2); // annealing decode + all-CCZ only
    }
    let starts = config.restarts.max(1);
    for combo in combos {
        let admitted = cert.admits(combo.iter().map(|&x| Entangler::from_continuous(x)));
        for _ in 0..starts {
            if config.deadline.expired() || cancel.is_cancelled() {
                return None;
            }
            let mut x0: Vec<f64> = (0..ansatz.num_params())
                .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
                .collect();
            if !admitted {
                // Certified: this start cannot reach ε, and a result
                // above ε never decides the outcome. Its `x0` is still
                // drawn, so later starts see the same RNG stream.
                telemetry.counter_add("compose.pruned_starts", 1);
                continue;
            }
            for (slot, &cat) in categorical_slots(ansatz).iter().zip(&combo) {
                x0[*slot] = cat;
            }
            // Freeze the categorical during descent by pinning its
            // bounds (Adam zeroes the gradient of pinned coordinates).
            let mut pinned = ansatz.bounds();
            for (slot, &cat) in categorical_slots(ansatz).iter().zip(&combo) {
                pinned[*slot] = (cat, cat);
            }
            let pinned_bounds = Bounds::new(&pinned);
            let res = adam(
                |p: &[f64], g: &mut [f64]| kernel.distance_and_gradient(p, g),
                &pinned_bounds,
                &x0,
                &adam_cfg,
            );
            telemetry.counter_add("compose.refine_evaluations", res.evaluations as u64);
            if res.fx < best.0 {
                best = (res.fx, res.x);
            }
            if best.0 <= config.epsilon {
                return Some(best);
            }
        }
    }
    if best.0 <= config.epsilon {
        Some(best)
    } else {
        None
    }
}

/// Indices of the categorical entangler parameters in the vector.
fn categorical_slots(ansatz: &Ansatz) -> Vec<usize> {
    (0..ansatz.layers()).map(|l| 9 + 10 * l).collect()
}

/// Returns `true` if the 8×8 unitary acts as the identity on local
/// qubit `q` — i.e. it commutes with both `X_q` and `Z_q` (commuting
/// with all of su(2) on a qubit forces a tensor-product identity
/// there).
fn qubit_untouched(target: &CMatrix, q: usize) -> bool {
    for pauli in [geyser_circuit::Gate::X, geyser_circuit::Gate::Z] {
        let full = geyser_sim::embed_gate(&pauli.matrix(), &[q], 3);
        let lhs = target.matmul(&full);
        let rhs = full.matmul(target);
        if !lhs.approx_eq(&rhs, 1e-9) {
            return false;
        }
    }
    true
}

/// Extracts the 4×4 unitary a 3-qubit unitary applies to two local
/// qubits, given the third is untouched: entries are read with the
/// idle qubit pinned to |0⟩.
fn reduce_to_pair(target: &CMatrix, active: [usize; 2]) -> CMatrix {
    let bit = |q: usize| 2 - q; // big-endian local bit position
    let full_index = |local: usize| -> usize {
        let mut idx = 0usize;
        for (j, &q) in active.iter().enumerate() {
            if (local >> (1 - j)) & 1 == 1 {
                idx |= 1 << bit(q);
            }
        }
        idx
    };
    CMatrix::from_fn(4, 4, |r, c| target[(full_index(r), full_index(c))])
}

/// Deterministic exact synthesis for blocks with ≤2-qubit support:
/// returns a minimal-pulse local circuit, or `None` when all three
/// qubits are genuinely engaged.
fn exact_small_support_candidate(target: &CMatrix) -> Option<Circuit> {
    let untouched: Vec<usize> = (0..3).filter(|&q| qubit_untouched(target, q)).collect();
    match untouched.len() {
        3 => Some(Circuit::new(3)), // identity (handled earlier, but safe)
        2 => {
            // Single-qubit support: one U3.
            let active = (0..3).find(|q| !untouched.contains(q))?;
            let pair_partner = untouched[0];
            let reduced = reduce_to_pair(target, [active, pair_partner]);
            // The partner is idle: the 4×4 is U ⊗ I; take the 2×2.
            let u2 = CMatrix::from_fn(2, 2, |r, c| reduced[(2 * r, 2 * c)]);
            let d = geyser_num::zyz_angles(&u2)?;
            let mut out = Circuit::new(3);
            out.u3(d.theta, d.phi, d.lambda, active);
            Some(out)
        }
        1 => {
            let idle = untouched[0];
            let active: Vec<usize> = (0..3).filter(|&q| q != idle).collect();
            let reduced = reduce_to_pair(target, [active[0], active[1]]);
            let local = geyser_synth::synthesize_two_qubit(&reduced)?;
            // Remap the 2-qubit circuit onto the block's active qubits.
            Some(local.remapped(3, |q| active[q]))
        }
        // All three qubits engaged: the unitary may still factor as a
        // tensor product of one qubit against an entangled pair.
        _ => bipartite_factor_candidate(target),
    }
}

/// Catches `U = U₁ ⊗ U₂` across the three lone-qubit bipartitions of
/// an 8×8 unitary where the lone factor is *not* the identity (the
/// commutation test misses those): emits one U3 plus an exact KAK
/// circuit for the pair.
fn bipartite_factor_candidate(target: &CMatrix) -> Option<Circuit> {
    // (lone qubit, permuted pair order) after swapping `lone` to the
    // most significant position.
    const CASES: [(usize, [usize; 2]); 3] = [(0, [1, 2]), (1, [0, 2]), (2, [1, 0])];
    for (lone, pair) in CASES {
        let permuted = if lone == 0 {
            target.clone()
        } else {
            let swap = geyser_sim::embed_gate(&geyser_circuit::Gate::Swap.matrix(), &[0, lone], 3);
            swap.matmul(target).matmul(&swap)
        };
        let Some((u1, u4)) = geyser_synth::split_tensor_product_dims(&permuted, 2, 1e-8) else {
            continue;
        };
        let mut out = Circuit::new(3);
        // Pair part first; ordering is irrelevant (disjoint qubits).
        let local = geyser_synth::synthesize_two_qubit(&u4)?;
        out.extend_from(&local.remapped(3, |q| pair[q]));
        if !is_identity_up_to_phase(&u1, 1e-9) {
            let d = geyser_num::zyz_angles(&u1)?;
            out.u3(d.theta, d.phi, d.lambda, lone);
        }
        return Some(out);
    }
    None
}

/// Composes every eligible triangle block of a blocked circuit in
/// parallel (the paper notes all blocks compose independently and
/// uses multiprocessing; here a crossbeam scoped-thread pool).
///
/// The returned circuit re-emits rounds/blocks in order, substituting
/// composed block bodies remapped onto their lattice nodes.
///
/// Deterministic for a fixed `(blocked, config)` regardless of thread
/// count (per-block seeds).
pub fn compose_blocked_circuit(
    blocked: &BlockedCircuit,
    config: &CompositionConfig,
) -> ComposedCircuit {
    try_compose_blocked_circuit_supervised(
        blocked,
        config,
        &ComposeFaults::none(),
        &CancelToken::none(),
        &[],
        None,
        &Telemetry::disabled(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Callback invoked by the composition pool as each block finishes.
///
/// Runs on the worker thread that composed the block, so
/// implementations must be `Sync`. Observers are *not* notified for
/// blocks restored from `prior`, and should ignore
/// [`FallbackReason::Cancelled`] fallbacks — a cancelled block was
/// never actually attempted.
pub trait BlockObserver: Sync {
    /// Called once per freshly composed (non-resumed) eligible block.
    fn block_finished(&self, index: usize, result: &CompositionResult);
}

/// Renders a `catch_unwind` payload as text.
fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fallible form of [`compose_blocked_circuit`]: fault injection plus
/// cooperative cancellation, restored prior results, and per-block
/// completion observation. The pipeline passes no `prior` and no
/// `observer`; both stay for callers that drive the layers directly.
///
/// * `faults` — test/bench-only fault injection. Each block's
///   composition runs under `catch_unwind`: a panicking block
///   (injected or real) records [`BlockOutcome::Failed`], keeps its
///   original pulses, and never poisons the worker pool — the scope
///   always joins cleanly and the remaining blocks compose normally.
/// * `cancel` — polled before every block and inside every annealing
///   chain move; once fired, remaining blocks fall back with
///   [`FallbackReason::Cancelled`] and the pool drains promptly.
/// * `prior` — per-block results from an earlier run,
///   indexed like the blocked circuit's blocks; a `Some` slot is
///   restored verbatim (counted in
///   [`CompositionStats::blocks_resumed`]) instead of recomposed.
///   Because every block derives its seed from `(config.seed, index)`,
///   a resumed run is bit-identical to an uninterrupted one.
/// * `observer` — notified on the worker thread as each fresh block
///   finishes.
/// * `telemetry` — records a `compose.block` span per fresh block plus
///   annealer counters and the acceptance-rate histogram. Timings are
///   observational only: results are bit-identical with telemetry
///   enabled or disabled.
#[allow(clippy::too_many_arguments)]
pub fn try_compose_blocked_circuit_supervised(
    blocked: &BlockedCircuit,
    config: &CompositionConfig,
    faults: &ComposeFaults,
    cancel: &CancelToken,
    prior: &[Option<CompositionResult>],
    observer: Option<&dyn BlockObserver>,
    telemetry: &Telemetry,
) -> Result<ComposedCircuit, ComposeError> {
    try_compose_blocked_circuit_reusing(
        blocked, config, faults, cancel, prior, observer, telemetry, None,
    )
}

/// Consults the coarse (near-miss) index for a warm-start plan.
fn warm_plan(sess: &ReuseSession, coarse: Option<BlockFingerprint>) -> ReusePlan {
    if !sess.warm_start() {
        return ReusePlan::Fresh;
    }
    match coarse.and_then(|cf| sess.lookup_coarse(cf)) {
        Some((params, layers)) => ReusePlan::WarmStart {
            params: params.to_vec(),
            layers,
        },
        None => ReusePlan::Fresh,
    }
}

/// Folds one wave's reuse traces into the session (serially, in block
/// order) and publishes fresh composition outcomes into the index.
///
/// Blocks with injected faults never publish: a corrupted candidate's
/// ε-rejection is an artifact of the fault, not a property of the
/// fingerprint. Replays never republish (their key is already
/// indexed), and only final, deterministic outcomes are cached —
/// cancellation and budget exhaustion are transient, so they stay out.
fn publish_wave(
    sess: &mut ReuseSession,
    wave: &[usize],
    fps: &[Option<(BlockFingerprint, Option<BlockFingerprint>)>],
    results: &Mutex<Vec<Option<CompositionResult>>>,
    traces: &Mutex<Vec<Option<ReuseTrace>>>,
    faults: &ComposeFaults,
    telemetry: &Telemetry,
) {
    let results = results
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let traces = traces
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for &i in wave {
        let Some(trace) = traces[i].as_ref() else {
            continue;
        };
        sess.stats.exact_hits += trace.exact_hit as u64;
        sess.stats.exact_hits_rejected += trace.exact_rejected as u64;
        sess.stats.warm_starts += trace.warm_applied as u64;
        sess.stats.evals_saved += trace.evals_saved;
        sess.stats.unverified_replays += trace.unverified_replay as u64;
        if trace.evals_saved > 0 {
            telemetry.counter_add("reuse.evals_saved", trace.evals_saved);
        }
        if trace.exact_hit {
            continue; // replays never republish their own key
        }
        let Some((fp, coarse)) = fps[i] else {
            continue;
        };
        if faults.corrupt_blocks.contains(&i) || faults.panic_blocks.contains(&i) {
            continue;
        }
        let Some(res) = results[i].as_ref() else {
            continue;
        };
        let entry = match &res.outcome {
            BlockOutcome::Composed { layers, hsd } if *layers >= 1 => {
                trace.winning.as_ref().map(|(params, l)| ReuseEntry {
                    outcome: ReuseOutcome::Composed,
                    params: params.clone(),
                    layers: *l,
                    hsd: *hsd,
                    evaluations: trace.evaluations,
                })
            }
            BlockOutcome::FellBack {
                reason: FallbackReason::NotCheaper,
            } => Some(ReuseEntry {
                outcome: ReuseOutcome::NotCheaper,
                params: Vec::new(),
                layers: 0,
                hsd: 0.0,
                evaluations: trace.evaluations,
            }),
            BlockOutcome::FellBack {
                reason: FallbackReason::EpsilonRejected,
            } => Some(ReuseEntry {
                outcome: ReuseOutcome::EpsilonRejected,
                params: Vec::new(),
                layers: 0,
                hsd: 0.0,
                evaluations: trace.evaluations,
            }),
            // The most valuable negative cache of all: a block that
            // burned the whole budget (including reseeded retries)
            // without converging will almost surely do it again for
            // every equal unitary in the job stream. The fallback
            // pulses are always correct, so the only thing replaying
            // the failure can cost is the slim chance a different
            // block-derived seed would have converged.
            BlockOutcome::FellBack {
                reason: FallbackReason::NonConvergence,
            } => Some(ReuseEntry {
                outcome: ReuseOutcome::NonConvergent,
                params: Vec::new(),
                layers: 0,
                hsd: 0.0,
                evaluations: trace.evaluations,
            }),
            _ => None,
        };
        if let Some(entry) = entry {
            let before = sess.stats.entries_published;
            sess.publish(fp, coarse, entry);
            if sess.stats.entries_published > before {
                telemetry.counter_add("reuse.entries_published", 1);
            }
        }
    }
}

/// [`try_compose_blocked_circuit_supervised`] with an optional
/// composition-reuse session.
///
/// With `session = Some(..)` the composer runs a serial planning phase
/// before annealing: every eligible block is fingerprinted
/// ([`BlockFingerprint`]) and matched against the session index. An
/// exact hit replays the cached entry (through the ε re-verification
/// gate) instead of annealing; a near-miss hit warm-starts the
/// annealer from the cached parameters with a reduced budget; blocks
/// sharing a fingerprint *within* this run compose once (the lowest
/// index leads, the rest replay the leader's published result in a
/// second wave). Planning, publication, and statistics folding are all
/// serial and in block order, so results stay deterministic across
/// thread counts for a fixed session content.
///
/// Reuse trades the bit-for-bit `prior`-restore guarantee for saved
/// annealing work: a run with `prior` results does not publish entries
/// for the restored blocks, so their followers may anneal fresh (and
/// converge to a different, equally ε-verified candidate). Every replayed
/// composition passes the same shared-oracle check as a fresh one
/// unless the session's `reuse-skip-verify` chaos fault is armed.
#[allow(clippy::too_many_arguments)]
pub fn try_compose_blocked_circuit_reusing(
    blocked: &BlockedCircuit,
    config: &CompositionConfig,
    faults: &ComposeFaults,
    cancel: &CancelToken,
    prior: &[Option<CompositionResult>],
    observer: Option<&dyn BlockObserver>,
    telemetry: &Telemetry,
    mut session: Option<&mut ReuseSession>,
) -> Result<ComposedCircuit, ComposeError> {
    let source = blocked.source();
    let blocks: Vec<_> = blocked.blocks().collect();
    let num_blocks = blocks.len();

    // Results and reuse-trace slot per block.
    let results: Mutex<Vec<Option<CompositionResult>>> = Mutex::new(vec![None; num_blocks]);
    let traces: Mutex<Vec<Option<ReuseTrace>>> = Mutex::new(vec![None; num_blocks]);
    let resumed = AtomicUsize::new(0);
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.threads
    };

    // Serial planning phase: fingerprint eligible blocks and decide
    // replay / warm-start / follower before any worker starts, so the
    // waves below are embarrassingly parallel again.
    let mut plans: Vec<ReusePlan> = vec![ReusePlan::Fresh; num_blocks];
    let mut fps: Vec<Option<(BlockFingerprint, Option<BlockFingerprint>)>> = vec![None; num_blocks];
    let mut wave1: Vec<usize> = Vec::with_capacity(num_blocks);
    let mut wave2: Vec<usize> = Vec::new();
    if let Some(sess) = session.as_deref_mut() {
        let mut leaders: std::collections::HashSet<geyser_reuse::ReuseKey> =
            std::collections::HashSet::new();
        for (i, block) in blocks.iter().enumerate() {
            let fresh_triangle =
                block.is_triangle() && prior.get(i).and_then(|p| p.as_ref()).is_none();
            if !fresh_triangle {
                wave1.push(i);
                continue;
            }
            let local = block.subcircuit(source);
            if local.is_empty() {
                wave1.push(i);
                continue;
            }
            let target = circuit_unitary(&local);
            let Some(fp) = BlockFingerprint::of(&target) else {
                wave1.push(i);
                continue;
            };
            let coarse = BlockFingerprint::coarse(&target);
            sess.stats.blocks_fingerprinted += 1;
            telemetry.counter_add("reuse.blocks_fingerprinted", 1);
            fps[i] = Some((fp, coarse));
            if let Some(entry) = sess.lookup(fp) {
                plans[i] = ReusePlan::Replay {
                    entry: entry.clone(),
                    skip_verify: sess.skip_verify(),
                };
                wave1.push(i);
            } else if !leaders.insert(sess.key(fp)) {
                // An earlier block in this run owns the fingerprint:
                // compose it once, replay here in the second wave.
                plans[i] = ReusePlan::Follower;
                wave2.push(i);
            } else {
                plans[i] = warm_plan(sess, coarse);
                wave1.push(i);
            }
        }
    } else {
        wave1 = (0..num_blocks).collect();
    }

    // Runs one parallel wave over the given block indices.
    let run_wave = |wave: &[usize], plans: &[ReusePlan]| -> Result<(), ComposeError> {
        let next = AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads.min(wave.len().max(1)) {
                scope.spawn(|_| loop {
                    let w = next.fetch_add(1, Ordering::Relaxed);
                    if w >= wave.len() {
                        break;
                    }
                    let i = wave[w];
                    let block = blocks[i];
                    let mut trace_slot: Option<ReuseTrace> = None;
                    let result = if block.is_triangle() {
                        let local = block.subcircuit(source);
                        if let Some(prev) = prior.get(i).and_then(|p| p.as_ref()) {
                            // Restore the recorded prior result
                            // without paying for the search again.
                            resumed.fetch_add(1, Ordering::Relaxed);
                            telemetry.counter_add("compose.blocks_resumed", 1);
                            Some(prev.clone())
                        } else {
                            let cfg = config.with_seed(config.seed.wrapping_add(i as u64));
                            let corrupt = faults.corrupt_blocks.contains(&i);
                            let inject_panic = faults.panic_blocks.contains(&i);
                            let mut span = telemetry.span("compose", "compose.block");
                            span.attr("index", i);
                            let mut trace = ReuseTrace::default();
                            // Panic isolation: one block's panic (injected or a
                            // genuine solver bug) must not take down the pool.
                            let attempt = catch_unwind(AssertUnwindSafe(|| {
                                if inject_panic {
                                    panic!("injected composition fault in block {i}");
                                }
                                compose_block_planned(
                                    &local, &cfg, corrupt, cancel, telemetry, &plans[i], &mut trace,
                                )
                            }));
                            let res = match attempt {
                                Ok(res) => res,
                                Err(payload) => CompositionResult {
                                    circuit: local.clone(),
                                    hsd: 0.0,
                                    composed: false,
                                    layers: 0,
                                    outcome: BlockOutcome::Failed {
                                        detail: panic_payload_message(payload),
                                    },
                                },
                            };
                            trace_slot = Some(trace);
                            match &res.outcome {
                                BlockOutcome::Composed { layers, .. } => {
                                    span.attr("outcome", "composed");
                                    span.attr("layers", layers);
                                    telemetry.counter_add("compose.blocks_composed", 1);
                                }
                                BlockOutcome::FellBack { reason } => {
                                    span.attr("outcome", reason.label());
                                    telemetry.counter_add("compose.blocks_fell_back", 1);
                                }
                                BlockOutcome::Failed { .. } => {
                                    span.attr("outcome", "failed");
                                    telemetry.counter_add("compose.blocks_failed", 1);
                                }
                                BlockOutcome::Skipped => {}
                            }
                            drop(span);
                            if let Some(obs) = observer {
                                obs.block_finished(i, &res);
                            }
                            Some(res)
                        }
                    } else {
                        None
                    };
                    // Lock holders only assign a Vec slot; recover the data
                    // even if another worker somehow poisoned the mutex.
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = result;
                    traces
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = trace_slot;
                });
            }
        })
        // Worker bodies are wrapped in catch_unwind above, so a scope-level
        // panic means the pool infrastructure itself failed — surface it as
        // a typed error rather than unwinding through the pipeline.
        .map_err(|payload| ComposeError::WorkerPanicked {
            detail: panic_payload_message(payload),
        })
    };

    run_wave(&wave1, &plans)?;

    if let Some(sess) = session.as_deref_mut() {
        // Serial publish of the first wave, then plan the followers:
        // their leader's entry is indexed now (or the leader failed
        // transiently and the follower searches fresh).
        publish_wave(sess, &wave1, &fps, &results, &traces, faults, telemetry);
        for &i in &wave2 {
            let Some((fp, coarse)) = fps[i] else {
                continue;
            };
            plans[i] = match sess.lookup(fp) {
                Some(entry) => ReusePlan::Replay {
                    entry: entry.clone(),
                    skip_verify: sess.skip_verify(),
                },
                None => warm_plan(sess, coarse),
            };
        }
        run_wave(&wave2, &plans)?;
        publish_wave(sess, &wave2, &fps, &results, &traces, faults, telemetry);
    }

    // The scope joined every worker above; recover from poisoning the
    // same way as the assignment sites.
    let results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    // Reassemble with substitutions.
    let mut out = Circuit::new(source.num_qubits());
    let mut stats = CompositionStats {
        blocks_total: num_blocks,
        blocks_resumed: resumed.load(Ordering::Relaxed),
        reuse: session.as_ref().map(|s| s.stats),
        ..CompositionStats::default()
    };
    let mut outcomes = Vec::with_capacity(num_blocks);
    for (block, result) in blocks.iter().zip(&results) {
        let before: u64 = block.pulses(source);
        stats.pulses_before += before;
        match result {
            Some(res) => {
                stats.blocks_eligible += 1;
                match &res.outcome {
                    BlockOutcome::Composed { .. } => {
                        stats.blocks_composed += 1;
                        stats.max_accepted_hsd = stats.max_accepted_hsd.max(res.hsd);
                    }
                    BlockOutcome::FellBack { reason } => {
                        stats.blocks_fell_back += 1;
                        if *reason == FallbackReason::Cancelled {
                            stats.blocks_cancelled += 1;
                        }
                    }
                    BlockOutcome::Failed { .. } => stats.blocks_failed += 1,
                    BlockOutcome::Skipped => {}
                }
                outcomes.push(res.outcome.clone());
                stats.pulses_after += res.circuit.total_pulses();
                let remapped = res
                    .circuit
                    .remapped(source.num_qubits(), |q| block.qubits()[q]);
                out.extend_from(&remapped);
            }
            None => {
                outcomes.push(BlockOutcome::Skipped);
                stats.pulses_after += before;
                for &i in block.op_indices() {
                    out.push(source.ops()[i].clone());
                }
            }
        }
    }
    Ok(ComposedCircuit {
        circuit: out,
        stats,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser_blocking::{block_circuit, BlockingConfig};
    use geyser_reuse::SEARCH_VERSION;
    use geyser_topology::Lattice;

    /// The paper's Fig. 11 example: a CCZ decomposed into 6 CZ and
    /// 8 single-qubit gates (26 pulses).
    fn decomposed_ccz() -> Circuit {
        let mut c = Circuit::new(3);
        let cx = |c: &mut Circuit, a: usize, b: usize| {
            c.h(b);
            c.cz(a, b);
            c.h(b);
        };
        cx(&mut c, 1, 2);
        c.tdg(2);
        cx(&mut c, 0, 2);
        c.t(2);
        cx(&mut c, 1, 2);
        c.tdg(2);
        cx(&mut c, 0, 2);
        c.t(1);
        c.t(2);
        cx(&mut c, 0, 1);
        c.t(0);
        c.tdg(1);
        cx(&mut c, 0, 1);
        c
    }

    #[test]
    fn identity_block_composes_to_nothing() {
        let mut block = Circuit::new(3);
        block.h(0).h(0).cz(1, 2).cz(1, 2);
        let res = compose_block(&block, &CompositionConfig::fast());
        assert!(res.composed);
        assert!(res.circuit.is_empty());
        assert!(res.hsd < 1e-9);
    }

    #[test]
    fn tiny_block_is_kept() {
        // 2 pulses: cheaper than any ansatz — must pass through.
        let mut block = Circuit::new(3);
        block.h(0).t(1);
        let res = compose_block(&block, &CompositionConfig::fast());
        assert!(!res.composed);
        assert_eq!(res.circuit.ops(), block.ops());
    }

    #[test]
    fn composition_never_increases_pulses() {
        let mut block = Circuit::new(3);
        block.h(0).cz(0, 1).t(1).cz(1, 2).h(2).cz(0, 1);
        let res = compose_block(&block, &CompositionConfig::fast());
        assert!(res.circuit.total_pulses() <= block.total_pulses());
    }

    #[test]
    fn decomposed_ccz_recomposes_to_native_form() {
        // The marquee example: 26 pulses of U3/CZ collapse back to a
        // CCZ-bearing form far below the original cost.
        let block = decomposed_ccz();
        // 37 raw pulses here; OptiMap's 1q fusion would bring it to
        // the paper's 26 (8 fused U3 + 6 CZ). Either way composition
        // must find the ~11-pulse CCZ form.
        assert_eq!(block.total_pulses(), 37);
        let cfg = CompositionConfig {
            epsilon: 1e-3,
            max_layers: 1,
            anneal_iters: 400,
            restarts: 4,
            seed: 11,
            threads: 1,
            ..CompositionConfig::default()
        };
        let res = compose_block(&block, &cfg);
        assert!(res.composed, "composition failed, hsd = {}", res.hsd);
        assert!(
            res.circuit.total_pulses() <= 11,
            "pulses = {}",
            res.circuit.total_pulses()
        );
        // Verify true equivalence of the accepted candidate.
        let d = hilbert_schmidt_distance(&circuit_unitary(&block), &circuit_unitary(&res.circuit));
        assert!(d <= 1.5e-3, "accepted candidate diverges: {d}");
    }

    /// A CCZ dressed in `t·h` on every qubit before and after: one
    /// annealed CCZ layer (11 pulses) replaces its 17.
    fn dressed_ccz() -> Circuit {
        let mut c = Circuit::new(3);
        for q in [1, 2, 0] {
            c.t(q).h(q);
        }
        c.ccz(0, 1, 2);
        for q in [1, 2, 0] {
            c.t(q).h(q);
        }
        c
    }

    /// `CZ(0,1)·H(1)·CZ(1,2)` dressed in single-qubit gates: the fast
    /// budget never reaches ε on it.
    fn dressed_cz_pair() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        c.cz(0, 1).h(1).cz(1, 2);
        for q in [1, 2, 0] {
            c.t(q).h(q);
        }
        c
    }

    /// Golden search regression: three blocks at `CompositionConfig::fast()`
    /// must keep the exact annealer evaluation count, outcome,
    /// accepted-HSD bits, pulses and Adam call count — any drift in
    /// the objective's or the gradient's floating point shows up here
    /// as a different trajectory. The annealer runs without its
    /// Nelder–Mead polish, so Adam is the only local phase: its calls
    /// pin the refine and multi-start trajectories, and the annealer
    /// counts pin the chain alone. The certificate's prunes are pinned
    /// too: dressed-cz-pair has no combination that reaches ε at one
    /// layer, so that depth is never searched, and each block skips
    /// one multi-start run of a ruled-out combination.
    #[test]
    fn golden_search_is_bit_identical() {
        // (name, block, search version, annealer evaluations, outcome,
        // accepted-HSD bits, pulses, Adam calls, pruned depths, pruned
        // starts). The search version sits beside the counters it was
        // recorded under: a change that moves any counter is a new
        // search, so it bumps SEARCH_VERSION and every store keyed on
        // it stops replaying the old search's outcomes.
        type Golden = (
            &'static str,
            Circuit,
            u32,
            u64,
            &'static str,
            u64,
            u64,
            u64,
            u64,
            u64,
        );
        let golden: [Golden; 3] = [
            (
                "decomposed-ccz",
                decomposed_ccz(),
                2,
                5762,
                "composed/2",
                0x3f3aa5fbc479a800,
                17,
                1489,
                0,
                1,
            ),
            (
                "dressed-ccz",
                dressed_ccz(),
                2,
                2281,
                "composed/1",
                0x3f3f4b6e60aaf800,
                11,
                932,
                0,
                1,
            ),
            (
                "dressed-cz-pair",
                dressed_cz_pair(),
                2,
                3481,
                "non-convergence",
                0,
                16,
                1402,
                1,
                1,
            ),
        ];
        for (
            name,
            block,
            search_version,
            evals,
            outcome,
            hsd_bits,
            pulses,
            refine,
            pruned_depths,
            pruned_starts,
        ) in golden
        {
            assert_eq!(SEARCH_VERSION, search_version, "{name}");
            let telemetry = Telemetry::enabled();
            let res = compose_block_inner(
                &block,
                &CompositionConfig::fast(),
                false,
                &CancelToken::none(),
                &telemetry,
            );
            let got_outcome = match &res.outcome {
                BlockOutcome::Composed { layers, .. } => format!("composed/{layers}"),
                BlockOutcome::FellBack { reason } => reason.label().to_string(),
                other => format!("{other:?}"),
            };
            let counter = |name: &str| telemetry.counter_value(name).unwrap_or(0);
            assert_eq!(got_outcome, outcome, "{name}");
            assert_eq!(counter("compose.anneal_evaluations"), evals, "{name}");
            assert_eq!(res.hsd.to_bits(), hsd_bits, "{name}: hsd {}", res.hsd);
            assert_eq!(res.circuit.total_pulses(), pulses, "{name}");
            // Every block here reaches Adam, whose calls are counted
            // apart from the annealer's; their number pins the
            // gradient kernel's trajectory.
            assert_eq!(counter("compose.refine_evaluations"), refine, "{name}");
            assert_eq!(counter("compose.pruned_depths"), pruned_depths, "{name}");
            assert_eq!(counter("compose.pruned_starts"), pruned_starts, "{name}");
        }
    }

    /// A depth that never reaches ε runs the annealing chain to its
    /// iteration cap and nothing more: one initial evaluation plus
    /// `2·dim` moves per temperature step. A Nelder–Mead polish (or any
    /// other local phase inside the annealer) would add evaluations.
    #[test]
    fn non_converging_depth_spends_only_the_annealing_chain() {
        let cfg = CompositionConfig::fast();
        let dim = Ansatz::new(2).num_params() as u64;
        let chain = 1 + cfg.anneal_iters as u64 * 2 * dim;
        assert_eq!(chain, 3481);
        let telemetry = Telemetry::enabled();
        let res = compose_block_inner(
            &dressed_cz_pair(),
            &cfg,
            false,
            &CancelToken::none(),
            &telemetry,
        );
        assert_eq!(
            res.outcome,
            BlockOutcome::FellBack {
                reason: FallbackReason::NonConvergence
            }
        );
        // Depth 1 is pruned by the certificate, so depth 2 is the one
        // annealed search.
        assert_eq!(telemetry.counter_value("compose.pruned_depths"), Some(1));
        assert_eq!(
            telemetry.counter_value("compose.anneal_evaluations"),
            Some(chain)
        );
    }

    /// `CZ(0,1)` then `CZ(1,2)` between generic U3 walls: 15 pulses,
    /// all three qubits engaged, and rank 4 across cut 1 — no
    /// one-layer combination reaches ε.
    fn chained_cz_block() -> Circuit {
        let wall = |c: &mut Circuit, base: f64| {
            for q in 0..3 {
                let a = base + 0.7 * q as f64;
                c.u3(a, 1.3 * a, 0.5 + a, q);
            }
        };
        let mut c = Circuit::new(3);
        wall(&mut c, 0.3);
        c.cz(0, 1);
        wall(&mut c, 1.9);
        c.cz(1, 2);
        wall(&mut c, 3.1);
        c
    }

    #[test]
    fn certified_infeasible_block_never_anneals() {
        let block = chained_cz_block();
        assert_eq!(block.total_pulses(), 15);
        assert!(exact_small_support_candidate(&circuit_unitary(&block)).is_none());
        // One layer only: the depth is pruned and the ladder ends.
        let one_layer = CompositionConfig {
            max_layers: 1,
            ..CompositionConfig::fast()
        };
        // At `fast()` the pulse guard then stops depth 2 (15 ≥ 15).
        for (cfg, reason) in [
            (one_layer, FallbackReason::NonConvergence),
            (CompositionConfig::fast(), FallbackReason::NotCheaper),
        ] {
            let telemetry = Telemetry::enabled();
            let res = compose_block_inner(&block, &cfg, false, &CancelToken::none(), &telemetry);
            assert_eq!(res.outcome, BlockOutcome::FellBack { reason });
            assert_eq!(res.circuit.ops(), block.ops());
            assert_eq!(telemetry.counter_value("compose.anneal_evaluations"), None);
            assert_eq!(telemetry.counter_value("compose.pruned_depths"), Some(1));
        }
    }

    #[test]
    fn composed_circuit_matches_source_distribution() {
        let lat = Lattice::triangular(2, 2);
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 2);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        let composed = compose_blocked_circuit(&blocked, &CompositionConfig::fast().with_seed(3));
        assert_eq!(composed.stats.blocks_total, blocked.num_blocks());
        // Equivalence within the accepted HSD budget: compare ideal
        // output distributions.
        let p1 = geyser_sim::ideal_distribution(&c);
        let p2 = geyser_sim::ideal_distribution(&composed.circuit);
        let tvd = geyser_sim::total_variation_distance(&p1, &p2);
        assert!(tvd < 1e-2, "TVD = {tvd}");
    }

    #[test]
    fn stats_account_for_all_blocks() {
        let lat = Lattice::triangular(2, 3);
        let mut c = Circuit::new(6);
        c.h(0).cz(0, 1).cz(3, 4).h(4).cz(4, 5).t(5);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        let composed = compose_blocked_circuit(&blocked, &CompositionConfig::fast());
        assert_eq!(composed.stats.blocks_total, blocked.num_blocks());
        assert!(composed.stats.pulses_after <= composed.stats.pulses_before);
        assert_eq!(composed.stats.pulses_before, c.total_pulses());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let lat = Lattice::triangular(2, 3);
        let mut c = Circuit::new(6);
        c.h(0).cz(0, 1).h(1).cz(1, 2).cz(3, 4).h(4).cz(4, 5);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        let mut cfg1 = CompositionConfig::fast();
        cfg1.threads = 1;
        let mut cfg4 = CompositionConfig::fast();
        cfg4.threads = 4;
        let a = compose_blocked_circuit(&blocked, &cfg1);
        let b = compose_blocked_circuit(&blocked, &cfg4);
        assert_eq!(a.circuit.ops(), b.circuit.ops());
    }

    #[test]
    #[should_panic(expected = "3-qubit blocks")]
    fn wrong_block_size_panics() {
        let _ = compose_block(&Circuit::new(2), &CompositionConfig::fast());
    }

    #[test]
    fn single_qubit_support_block_fuses_to_one_u3() {
        // Many gates on one qubit (others idle): exact path collapses
        // them to a single pulse without touching the annealer.
        let mut block = Circuit::new(3);
        block.h(1).t(1).ry(0.4, 1).h(1).rz(1.1, 1);
        let res = compose_block(&block, &CompositionConfig::fast());
        assert!(res.composed);
        assert_eq!(res.circuit.len(), 1);
        assert_eq!(res.circuit.total_pulses(), 1);
        assert!(res.hsd < 1e-8);
    }

    #[test]
    fn two_qubit_support_block_uses_exact_kak() {
        // A diagonal (ZZ-class) pattern on qubits (0, 2): exact KAK
        // needs only two CZ, far below the original's four.
        let mut block = Circuit::new(3);
        block
            .cz(0, 2)
            .rz(0.3, 0)
            .rz(0.4, 2)
            .cz(0, 2)
            .t(0)
            .cz(0, 2)
            .rz(0.2, 2)
            .cz(0, 2);
        let original_pulses = block.total_pulses();
        let res = compose_block(&block, &CompositionConfig::fast());
        assert!(res.composed, "exact path should fire");
        assert!(res.circuit.total_pulses() < original_pulses);
        assert!(res.hsd < 1e-7, "hsd = {}", res.hsd);
        // Idle qubit 1 must stay idle.
        assert!(res.circuit.iter().all(|op| !op.acts_on(1)));
        // True equivalence.
        let d = hilbert_schmidt_distance(&circuit_unitary(&block), &circuit_unitary(&res.circuit));
        assert!(d < 1e-7);
    }

    #[test]
    fn bipartite_factor_blocks_synthesize_exactly() {
        // Qubit 1 does its own single-qubit dance while (0, 2) build a
        // diagonal entangler: U = U₁q ⊗ U₂q across the bipartition.
        let mut block = Circuit::new(3);
        block
            .h(1)
            .cz(0, 2)
            .t(1)
            .rz(0.3, 0)
            .cz(0, 2)
            .ry(0.4, 1)
            .cz(0, 2)
            .rz(0.2, 2)
            .cz(0, 2)
            .h(1);
        let res = compose_block(&block, &CompositionConfig::fast());
        assert!(res.composed, "bipartite exact path should fire");
        assert!(res.hsd < 1e-7, "hsd = {}", res.hsd);
        assert!(res.circuit.total_pulses() < block.total_pulses());
        let d = hilbert_schmidt_distance(&circuit_unitary(&block), &circuit_unitary(&res.circuit));
        assert!(d < 1e-7, "equivalence broken: {d}");
    }

    #[test]
    fn exact_path_respects_pulse_acceptance() {
        // Cheap 2q block already minimal: exact candidate cannot be
        // cheaper, so the original is kept.
        let mut block = Circuit::new(3);
        block.cz(0, 1);
        let res = compose_block(&block, &CompositionConfig::fast());
        assert!(!res.composed);
        assert_eq!(res.circuit.ops(), block.ops());
    }

    /// A 4-qubit circuit whose blocking yields at least one eligible
    /// triangle block, shared by the fault-injection tests.
    fn blocked_fixture() -> (Circuit, BlockedCircuit) {
        let lat = Lattice::triangular(2, 2);
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 2);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        (c, blocked)
    }

    #[test]
    fn outcomes_cover_every_block() {
        let (_, blocked) = blocked_fixture();
        let composed = compose_blocked_circuit(&blocked, &CompositionConfig::fast());
        assert_eq!(composed.outcomes.len(), composed.stats.blocks_total);
        assert_eq!(
            composed.stats.blocks_eligible,
            composed.stats.blocks_composed
                + composed.stats.blocks_fell_back
                + composed.stats.blocks_failed
        );
    }

    #[test]
    fn injected_panic_is_isolated_and_keeps_original_pulses() {
        let (c, blocked) = blocked_fixture();
        let eligible: Vec<usize> = blocked
            .blocks()
            .enumerate()
            .filter(|(_, b)| b.is_triangle())
            .map(|(i, _)| i)
            .collect();
        assert!(!eligible.is_empty(), "fixture must have a triangle block");
        let faults = ComposeFaults {
            panic_blocks: vec![eligible[0]],
            ..ComposeFaults::none()
        };
        let composed = try_compose_blocked_circuit_supervised(
            &blocked,
            &CompositionConfig::fast(),
            &faults,
            &CancelToken::none(),
            &[],
            None,
            &Telemetry::disabled(),
        )
        .expect("panic must be isolated per block, not surfaced");
        assert_eq!(composed.stats.blocks_failed, 1);
        match &composed.outcomes[eligible[0]] {
            BlockOutcome::Failed { detail } => {
                assert!(detail.contains("injected composition fault"), "{detail}");
            }
            other => panic!("expected Failed outcome, got {other:?}"),
        }
        // The degraded circuit still matches the source distribution.
        let p1 = geyser_sim::ideal_distribution(&c);
        let p2 = geyser_sim::ideal_distribution(&composed.circuit);
        assert!(geyser_sim::total_variation_distance(&p1, &p2) < 1e-2);
    }

    #[test]
    fn corrupted_candidate_is_caught_by_reverification() {
        let (c, blocked) = blocked_fixture();
        let all: Vec<usize> = (0..blocked.num_blocks()).collect();
        let faults = ComposeFaults {
            corrupt_blocks: all,
            ..ComposeFaults::none()
        };
        let composed = try_compose_blocked_circuit_supervised(
            &blocked,
            &CompositionConfig::fast(),
            &faults,
            &CancelToken::none(),
            &[],
            None,
            &Telemetry::disabled(),
        )
        .expect("corruption must degrade, not error");
        // No corrupted candidate may slip through the ε re-check: every
        // eligible block either legitimately fell back or had its
        // corrupted winner rejected — so the output equals the source.
        assert_eq!(composed.stats.blocks_composed, 0);
        assert!(composed
            .outcomes
            .iter()
            .all(|o| matches!(o, BlockOutcome::FellBack { .. } | BlockOutcome::Skipped)));
        let p1 = geyser_sim::ideal_distribution(&c);
        let p2 = geyser_sim::ideal_distribution(&composed.circuit);
        assert!(geyser_sim::total_variation_distance(&p1, &p2) < 1e-9);
    }

    #[test]
    fn expired_deadline_falls_back_budget_exhausted() {
        let (c, blocked) = blocked_fixture();
        let cfg = CompositionConfig::fast().with_deadline(Deadline::already_expired());
        let composed = compose_blocked_circuit(&blocked, &cfg);
        assert_eq!(composed.stats.blocks_composed, 0);
        assert!(composed.stats.blocks_fell_back > 0);
        assert!(composed.outcomes.iter().any(|o| matches!(
            o,
            BlockOutcome::FellBack {
                reason: FallbackReason::BudgetExhausted
            }
        )));
        // Budget exhaustion still yields a runnable, equivalent circuit.
        assert_eq!(composed.stats.pulses_after, composed.stats.pulses_before);
        let p1 = geyser_sim::ideal_distribution(&c);
        let p2 = geyser_sim::ideal_distribution(&composed.circuit);
        assert!(geyser_sim::total_variation_distance(&p1, &p2) < 1e-9);
    }

    #[test]
    fn retry_backoff_is_deterministic() {
        let (_, blocked) = blocked_fixture();
        let mut cfg = CompositionConfig::fast();
        cfg.retry_attempts = 2;
        let a = compose_blocked_circuit(&blocked, &cfg);
        let b = compose_blocked_circuit(&blocked, &cfg);
        assert_eq!(a.circuit.ops(), b.circuit.ops());
        assert_eq!(a.outcomes, b.outcomes);
    }

    /// Test observer recording every fresh block completion.
    struct Recorder {
        seen: Mutex<Vec<(usize, CompositionResult)>>,
    }

    impl BlockObserver for Recorder {
        fn block_finished(&self, index: usize, result: &CompositionResult) {
            self.seen.lock().unwrap().push((index, result.clone()));
        }
    }

    #[test]
    fn pre_cancelled_token_falls_back_every_block_as_cancelled() {
        let (c, blocked) = blocked_fixture();
        let token = CancelToken::new();
        token.cancel();
        let composed = try_compose_blocked_circuit_supervised(
            &blocked,
            &CompositionConfig::fast(),
            &ComposeFaults::none(),
            &token,
            &[],
            None,
            &Telemetry::disabled(),
        )
        .expect("cancellation degrades, it does not error");
        assert_eq!(composed.stats.blocks_composed, 0);
        assert!(composed.stats.blocks_cancelled > 0);
        assert_eq!(
            composed.stats.blocks_cancelled,
            composed.stats.blocks_fell_back
        );
        assert!(composed.outcomes.iter().all(|o| matches!(
            o,
            BlockOutcome::FellBack {
                reason: FallbackReason::Cancelled
            } | BlockOutcome::Skipped
        )));
        // Cancelled composition still hands back the original circuit.
        let p1 = geyser_sim::ideal_distribution(&c);
        let p2 = geyser_sim::ideal_distribution(&composed.circuit);
        assert!(geyser_sim::total_variation_distance(&p1, &p2) < 1e-9);
    }

    #[test]
    fn observer_sees_every_eligible_block_exactly_once() {
        let (_, blocked) = blocked_fixture();
        let recorder = Recorder {
            seen: Mutex::new(Vec::new()),
        };
        let composed = try_compose_blocked_circuit_supervised(
            &blocked,
            &CompositionConfig::fast(),
            &ComposeFaults::none(),
            &CancelToken::none(),
            &[],
            Some(&recorder),
            &Telemetry::disabled(),
        )
        .unwrap();
        let mut seen = recorder.seen.into_inner().unwrap();
        seen.sort_by_key(|(i, _)| *i);
        assert_eq!(seen.len(), composed.stats.blocks_eligible);
        let mut indices: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        indices.dedup();
        assert_eq!(indices.len(), seen.len(), "duplicate notifications");
    }

    #[test]
    fn resume_from_prior_results_is_bit_identical_and_skips_work() {
        let (_, blocked) = blocked_fixture();
        let cfg = CompositionConfig::fast().with_seed(7);
        let recorder = Recorder {
            seen: Mutex::new(Vec::new()),
        };
        let full = try_compose_blocked_circuit_supervised(
            &blocked,
            &cfg,
            &ComposeFaults::none(),
            &CancelToken::none(),
            &[],
            Some(&recorder),
            &Telemetry::disabled(),
        )
        .unwrap();
        // Build a partial checkpoint: keep only the first recorded
        // block, as if the run was killed after one completion.
        let mut prior: Vec<Option<CompositionResult>> = vec![None; blocked.num_blocks()];
        let seen = recorder.seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        let (idx, res) = &seen[0];
        prior[*idx] = Some(res.clone());

        let resumed_recorder = Recorder {
            seen: Mutex::new(Vec::new()),
        };
        let resumed = try_compose_blocked_circuit_supervised(
            &blocked,
            &cfg,
            &ComposeFaults::none(),
            &CancelToken::none(),
            &prior,
            Some(&resumed_recorder),
            &Telemetry::disabled(),
        )
        .unwrap();
        // Same seed + per-block seeding ⇒ bit-identical to the
        // uninterrupted run, with the checkpointed block restored.
        assert_eq!(resumed.circuit.ops(), full.circuit.ops());
        assert_eq!(resumed.outcomes, full.outcomes);
        assert_eq!(resumed.stats.blocks_resumed, 1);
        // The restored block must not be re-announced to the observer.
        let resumed_seen = resumed_recorder.seen.into_inner().unwrap();
        assert!(resumed_seen.iter().all(|(i, _)| i != idx));
        assert_eq!(resumed_seen.len(), full.stats.blocks_eligible - 1);
    }

    /// A circuit with *repeated* identical triangle blocks: fixed-angle
    /// QAOA literally repeats one cost-plus-mixer layer, and blocking a
    /// deep instance yields many blocks with equal unitaries.
    fn repeated_blocked_fixture(layers: usize) -> (Circuit, BlockedCircuit) {
        let lat = Lattice::triangular(2, 2);
        let c = geyser_workloads::qaoa_fixed(4, layers, 5);
        let blocked = block_circuit(&c, &lat, &BlockingConfig::default());
        (c, blocked)
    }

    fn reuse_compose(
        blocked: &BlockedCircuit,
        cfg: &CompositionConfig,
        session: &mut geyser_reuse::ReuseSession,
    ) -> ComposedCircuit {
        try_compose_blocked_circuit_reusing(
            blocked,
            cfg,
            &ComposeFaults::none(),
            &CancelToken::none(),
            &[],
            None,
            &Telemetry::disabled(),
            Some(session),
        )
        .unwrap()
    }

    fn fast_session() -> geyser_reuse::ReuseSession {
        let cfg = CompositionConfig::fast();
        geyser_reuse::ReuseSession::new(
            0x51,
            geyser_reuse::reuse_config_hash(
                cfg.epsilon,
                cfg.max_layers,
                cfg.anneal_iters,
                cfg.restarts,
                cfg.retry_attempts,
            ),
        )
    }

    #[test]
    fn reuse_replays_repeated_blocks_within_one_run() {
        let (c, blocked) = repeated_blocked_fixture(4);
        let cfg = CompositionConfig::fast().with_seed(5);
        let mut session = fast_session();
        let composed = reuse_compose(&blocked, &cfg, &mut session);
        let stats = composed.stats.reuse.expect("session attached");
        assert!(stats.blocks_fingerprinted >= 2, "{stats:?}");
        assert!(
            stats.exact_hits >= 1,
            "repeated blocks must replay: {stats:?}"
        );
        assert_eq!(stats.unverified_replays, 0);
        // Replayed compositions are ε-verified: the whole circuit still
        // matches the source distribution.
        let p1 = geyser_sim::ideal_distribution(&c);
        let p2 = geyser_sim::ideal_distribution(&composed.circuit);
        assert!(geyser_sim::total_variation_distance(&p1, &p2) < 1e-2);
    }

    #[test]
    fn reuse_session_is_deterministic_across_thread_counts() {
        let (_, blocked) = repeated_blocked_fixture(3);
        let mut cfg1 = CompositionConfig::fast().with_seed(9);
        cfg1.threads = 1;
        let mut cfg4 = cfg1;
        cfg4.threads = 4;
        let mut s1 = fast_session();
        let mut s4 = fast_session();
        let a = reuse_compose(&blocked, &cfg1, &mut s1);
        let b = reuse_compose(&blocked, &cfg4, &mut s4);
        assert_eq!(a.circuit.ops(), b.circuit.ops());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(s1.stats, s4.stats);
    }

    #[test]
    fn second_run_against_warm_session_skips_annealing() {
        let (_, blocked) = repeated_blocked_fixture(3);
        let cfg = CompositionConfig::fast().with_seed(7);
        let mut session = fast_session();
        let first = reuse_compose(&blocked, &cfg, &mut session);
        let published = session.stats.entries_published;
        assert!(published >= 1, "first run must publish entries");
        // Annealer evaluations banked in the published entries. Blocks
        // the layer-ladder guard rejected before annealing (min_pulses
        // ≥ original) publish NotCheaper entries with zero
        // evaluations, so replaying them saves nothing.
        let replayable_evals: u64 = session
            .dirty()
            .iter()
            .filter_map(|(k, _)| session.get(k))
            .map(|e| e.evaluations)
            .sum();
        let before = session.stats;
        let second = reuse_compose(&blocked, &cfg, &mut session);
        let stats = second.stats.reuse.unwrap();
        // Every published entry replays at least once on the second
        // run. (Blocks the exact fast paths resolved — layers-0
        // results — never publish, so the hit count tracks published
        // entries, not all fingerprints.)
        assert!(
            stats.exact_hits - before.exact_hits >= published,
            "{stats:?}, published = {published}"
        );
        assert_eq!(stats.entries_published, published, "no new entries");
        if replayable_evals > 0 {
            assert!(stats.evals_saved > before.evals_saved, "{stats:?}");
        }
        // Replays reproduce the exact same circuits.
        assert_eq!(first.circuit.ops(), second.circuit.ops());
    }

    #[test]
    fn poisoned_entries_are_rejected_by_reverification() {
        let (c, blocked) = repeated_blocked_fixture(3);
        let cfg = CompositionConfig::fast().with_seed(3);
        let mut session = fast_session();
        let _ = reuse_compose(&blocked, &cfg, &mut session);
        // Poison only perturbs Composed entries; without one there is
        // nothing for the ε gate to catch.
        let has_composed_entry = session
            .dirty()
            .iter()
            .filter_map(|(k, _)| session.get(k))
            .any(|e| e.outcome == geyser_reuse::ReuseOutcome::Composed);
        if !has_composed_entry {
            return; // nothing composed at this budget; nothing to poison
        }
        session.poison_entries();
        let before = session.stats;
        let composed = reuse_compose(&blocked, &cfg, &mut session);
        let stats = composed.stats.reuse.unwrap();
        // The ε gate caught every poisoned replay of a composed entry,
        // and the compile stayed clean end to end.
        assert_eq!(stats.unverified_replays, 0);
        assert!(
            stats.exact_hits_rejected > before.exact_hits_rejected,
            "{stats:?}"
        );
        let p1 = geyser_sim::ideal_distribution(&c);
        let p2 = geyser_sim::ideal_distribution(&composed.circuit);
        assert!(geyser_sim::total_variation_distance(&p1, &p2) < 1e-2);
    }

    #[test]
    fn skip_verify_fault_lets_poison_escape_and_is_counted() {
        let (_, blocked) = repeated_blocked_fixture(3);
        let cfg = CompositionConfig::fast().with_seed(3);
        let mut seed_session = fast_session();
        let _ = reuse_compose(&blocked, &cfg, &mut seed_session);
        let has_composed_entry = seed_session
            .dirty()
            .iter()
            .filter_map(|(k, _)| seed_session.get(k))
            .any(|e| e.outcome == geyser_reuse::ReuseOutcome::Composed);
        if !has_composed_entry {
            return; // nothing composed at this budget; nothing to poison
        }
        seed_session.poison_entries();
        let mut session = seed_session.clone().with_skip_verify_fault(true);
        let composed = reuse_compose(&blocked, &cfg, &mut session);
        let stats = composed.stats.reuse.unwrap();
        // The ε gate was bypassed: poisoned candidates escape into the
        // output and the counter records it — exactly the signal the
        // geyser-verify reuse invariant trips on downstream.
        assert!(stats.unverified_replays > 0, "{stats:?}");
        // The escaped block's unitary really is garbage.
        let poisoned_survives = blocked
            .blocks()
            .zip(&composed.outcomes)
            .filter(|(b, _)| b.is_triangle())
            .any(|(_, o)| matches!(o, BlockOutcome::Composed { layers, .. } if *layers >= 1));
        assert!(poisoned_survives);
    }

    #[test]
    fn warm_start_plan_is_applied_from_coarse_index() {
        let (_, blocked) = repeated_blocked_fixture(3);
        let cfg = CompositionConfig::fast().with_seed(7);
        let mut first = fast_session();
        let _ = reuse_compose(&blocked, &cfg, &mut first);
        let composed_entries: Vec<_> = first
            .dirty()
            .iter()
            .filter_map(|(k, cf)| first.get(k).map(|e| (*k, *cf, e.clone())))
            .filter(|(_, _, e)| e.outcome == geyser_reuse::ReuseOutcome::Composed)
            .collect();
        if composed_entries.is_empty() {
            return;
        }
        // Rebuild a session holding only the *coarse* knowledge: keep
        // the coarse index entries but drop the exact keys by loading
        // them under a perturbed exact fingerprint.
        let mut session = fast_session().with_warm_start(true);
        for (key, coarse, entry) in &composed_entries {
            let mut shifted = *key;
            shifted.fingerprint = geyser_reuse::BlockFingerprint::Canonical {
                dim: 8,
                digest: 0xdead_beef,
            };
            session.insert_loaded(shifted, *coarse, entry.clone());
        }
        let composed = reuse_compose(&blocked, &cfg, &mut session);
        let stats = composed.stats.reuse.unwrap();
        assert!(stats.warm_starts >= 1, "{stats:?}");
    }
}
