//! End-to-end fault tolerance: every injectable fault must either
//! degrade gracefully (the circuit still compiles, falls back, and
//! stays equivalent) or surface as the matching typed error — never
//! an abort, a poisoned pool, or a hang.

use std::time::Duration;

use geyser::passes::{AllocateLatticePass, BlockPass, ComposePass, MapPass, SeamCleanupPass};
use geyser::verifier::VerifyConfig;
use geyser::{
    evaluate_tvd, try_evaluate_tvd_traced, verify_compiled, CancelToken, CompileContext,
    CompileError, FaultInjector, Pass, PassManager, PipelineConfig, Technique, Telemetry,
};
use geyser_sim::{NoiseModel, SimError, SimFaults, MAX_TRAJECTORY_RETRIES};
use geyser_workloads::{ghz, qaoa};

fn fast() -> PipelineConfig {
    PipelineConfig::fast()
}

/// All eligible block indices are well inside 0..64 for these tiny
/// workloads, so "fault every block" plans can just list the range.
fn all_blocks() -> Vec<usize> {
    (0..64).collect()
}

#[test]
fn injected_pass_panic_becomes_typed_error() {
    let plan = FaultInjector::parse("pass-panic:map").unwrap();
    let err = PassManager::for_technique(Technique::Geyser)
        .with_faults(plan)
        .run(&ghz(4), &fast())
        .expect_err("panicking pass must fail the run");
    match err {
        CompileError::PassPanicked { pass, detail } => {
            assert_eq!(pass, "map");
            assert!(detail.contains("injected fault"), "{detail}");
        }
        other => panic!("expected PassPanicked, got {other}"),
    }
}

#[test]
fn forced_compose_timeout_degrades_every_block() {
    let program = qaoa(4, 1, 1);
    let plan = FaultInjector::parse("compose-timeout").unwrap();
    let compiled = PassManager::for_technique(Technique::Geyser)
        .with_faults(plan)
        .run(&program, &fast())
        .expect("timeout must degrade, not fail");
    let stats = compiled.composition_stats().expect("stats recorded");
    assert_eq!(stats.blocks_composed, 0);
    assert_eq!(stats.blocks_fell_back, stats.blocks_eligible);
    assert!(stats.blocks_eligible > 0, "workload must have blocks");
    let report = compiled.report().expect("report attached");
    assert_eq!(report.blocks_fell_back, stats.blocks_fell_back as u64);
    // The degraded circuit is still runnable and equivalent: with
    // every block keeping its original pulses the compilation floor
    // is numerically zero.
    let tvd = evaluate_tvd(&compiled, &program, &NoiseModel::noiseless(), 1, 0);
    assert!(
        tvd.compilation_tvd < 1e-9,
        "floor = {}",
        tvd.compilation_tvd
    );
}

#[test]
fn corrupted_blocks_never_reach_the_output() {
    let program = qaoa(4, 1, 1);
    let plan = FaultInjector {
        compose: geyser_compose::ComposeFaults {
            corrupt_blocks: all_blocks(),
            panic_blocks: Vec::new(),
        },
        ..FaultInjector::none()
    };
    let compiled = PassManager::for_technique(Technique::Geyser)
        .with_faults(plan)
        .run(&program, &fast())
        .expect("corruption must degrade, not fail");
    let stats = compiled.composition_stats().expect("stats recorded");
    assert_eq!(stats.blocks_composed, 0, "no corrupted candidate accepted");
    let tvd = evaluate_tvd(&compiled, &program, &NoiseModel::noiseless(), 1, 0);
    assert!(
        tvd.compilation_tvd < 1e-9,
        "floor = {}",
        tvd.compilation_tvd
    );
}

#[test]
fn panicking_workers_are_isolated_per_block() {
    let program = qaoa(4, 1, 1);
    let plan = FaultInjector {
        compose: geyser_compose::ComposeFaults {
            corrupt_blocks: Vec::new(),
            panic_blocks: all_blocks(),
        },
        ..FaultInjector::none()
    };
    let compiled = PassManager::for_technique(Technique::Geyser)
        .with_faults(plan)
        .run(&program, &fast())
        .expect("per-block panics must be contained");
    let stats = compiled.composition_stats().expect("stats recorded");
    assert_eq!(stats.blocks_failed, stats.blocks_eligible);
    assert!(stats.blocks_failed > 0);
    let report = compiled.report().expect("report attached");
    assert_eq!(report.blocks_failed, stats.blocks_failed as u64);
    let tvd = evaluate_tvd(&compiled, &program, &NoiseModel::noiseless(), 1, 0);
    assert!(tvd.compilation_tvd < 1e-9);
}

#[test]
fn transient_sim_fault_recovers_persistent_fault_errors() {
    let program = ghz(3);
    let compiled = geyser::compile(&program, Technique::OptiMap, &fast());
    let noise = NoiseModel::symmetric(0.005);

    let transient = SimFaults {
        nan_trajectories: vec![0, 5],
        ..SimFaults::none()
    };
    let report = try_evaluate_tvd_traced(
        &compiled,
        &program,
        &noise,
        30,
        1,
        &transient,
        &Telemetry::disabled(),
    )
    .expect("transient NaN trajectories must be resampled");
    assert!(report.tvd_to_ideal.is_finite());

    let persistent = SimFaults {
        persistent_nan_trajectories: vec![4],
        ..SimFaults::none()
    };
    let err = try_evaluate_tvd_traced(
        &compiled,
        &program,
        &noise,
        30,
        1,
        &persistent,
        &Telemetry::disabled(),
    )
    .expect_err("persistent corruption must surface");
    assert_eq!(
        err,
        CompileError::Sim(SimError::TrajectoryRejected {
            trajectory: 4,
            retries: MAX_TRAJECTORY_RETRIES
        })
    );
}

#[test]
fn zero_budget_fails_before_mapping_with_typed_error() {
    let cfg = fast().with_budget_ms(0);
    let err = PassManager::for_technique(Technique::Geyser)
        .run(&ghz(4), &cfg)
        .expect_err("no mapped circuit exists to degrade to");
    match err {
        CompileError::BudgetExceeded { pass } => assert_eq!(pass, "allocate-lattice"),
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}

/// A stage that burns wall-clock time, standing in for any slow pass.
struct StallPass;

impl Pass for StallPass {
    fn name(&self) -> &'static str {
        "stall"
    }

    fn run(&self, _ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        std::thread::sleep(Duration::from_millis(60));
        Ok(())
    }
}

#[test]
fn mid_pipeline_budget_expiry_degrades_to_mapped_circuit() {
    let passes: Vec<Box<dyn Pass>> = vec![
        Box::new(AllocateLatticePass::triangular()),
        Box::new(MapPass::optimized()),
        Box::new(StallPass),
        Box::new(BlockPass),
        Box::new(ComposePass),
        Box::new(SeamCleanupPass),
    ];
    let program = ghz(4);
    let cfg = fast().with_budget_ms(40);
    let compiled = PassManager::new(Technique::Geyser, passes)
        .run(&program, &cfg)
        .expect("mapped circuit exists, so the run must degrade");
    let report = compiled.report().expect("report attached");
    assert!(report.budget_exhausted);
    assert_eq!(
        report.skipped_passes,
        vec!["block", "compose", "seam-cleanup"]
    );
    // The degraded result is the mapped circuit: runnable, equivalent.
    assert!(compiled.total_pulses() > 0);
    let tvd = evaluate_tvd(&compiled, &program, &NoiseModel::noiseless(), 1, 0);
    assert!(tvd.compilation_tvd < 1e-9);
}

/// A stage that fires the run's cancel token mid-pipeline, standing
/// in for an operator cancelling while a later stage is queued.
struct CancelNowPass;

impl Pass for CancelNowPass {
    fn name(&self) -> &'static str {
        "cancel-now"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        ctx.cancel().cancel();
        Ok(())
    }
}

#[test]
fn pre_cancelled_run_fails_typed_before_any_pass() {
    let token = CancelToken::new();
    token.cancel();
    let err = PassManager::for_technique(Technique::Geyser)
        .with_cancel(token)
        .run(&ghz(4), &fast())
        .expect_err("a cancelled job must not compile");
    match err {
        CompileError::Cancelled { ref pass } => assert_eq!(pass, "allocate-lattice"),
        ref other => panic!("expected Cancelled at the first pass, got {other}"),
    }
}

#[test]
fn cancellation_mid_pipeline_stops_before_the_next_pass() {
    // Cancel lands after mapping: the pipeline must stop at the next
    // pass boundary with a typed error, not finalize the mapped
    // circuit the way budget expiry would.
    let passes: Vec<Box<dyn Pass>> = vec![
        Box::new(AllocateLatticePass::triangular()),
        Box::new(MapPass::optimized()),
        Box::new(CancelNowPass),
        Box::new(BlockPass),
        Box::new(ComposePass),
        Box::new(SeamCleanupPass),
    ];
    let err = PassManager::new(Technique::Geyser, passes)
        .with_cancel(CancelToken::new())
        .run(&ghz(4), &fast())
        .expect_err("cancelled mid-pipeline");
    match err {
        CompileError::Cancelled { pass } => assert_eq!(pass, "block"),
        other => panic!("expected Cancelled at 'block', got {other}"),
    }
}

#[test]
fn cancellation_wins_over_budget_degradation() {
    // With a mapped circuit in hand an expired budget would degrade
    // gracefully — but if the job was also cancelled, cancellation
    // must win: no partial output for a job nobody wants any more.
    let passes: Vec<Box<dyn Pass>> = vec![
        Box::new(AllocateLatticePass::triangular()),
        Box::new(MapPass::optimized()),
        Box::new(CancelNowPass),
        Box::new(StallPass),
        Box::new(BlockPass),
        Box::new(ComposePass),
        Box::new(SeamCleanupPass),
    ];
    let cfg = fast().with_budget_ms(40);
    let err = PassManager::new(Technique::Geyser, passes)
        .with_cancel(CancelToken::new())
        .run(&ghz(4), &cfg)
        .expect_err("cancelled and over budget");
    assert!(
        matches!(err, CompileError::Cancelled { .. }),
        "cancellation must beat budget degradation, got {err:?}"
    );
}

#[test]
fn cancel_mid_compose_is_typed_and_leaves_no_poison() {
    // The compose workers observe the token between blocks; a token
    // fired from another thread mid-run either lands (typed Cancelled)
    // or the run beats it — both must leave the process healthy.
    let program = qaoa(4, 1, 1);
    let token = CancelToken::new();
    let trigger = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        })
    };
    let outcome = PassManager::for_technique(Technique::Geyser)
        .with_cancel(token.clone())
        .run(&program, &fast());
    trigger.join().unwrap();
    if let Err(err) = outcome {
        assert!(matches!(err, CompileError::Cancelled { .. }), "got {err:?}");
    }
    // The fired token is reused: a fresh run over the same shared
    // machinery must fail typed, proving no lock was poisoned.
    let err = PassManager::for_technique(Technique::Geyser)
        .with_cancel(token)
        .run(&program, &fast())
        .expect_err("token is still cancelled");
    assert!(matches!(err, CompileError::Cancelled { .. }), "got {err:?}");
}

#[test]
fn cancel_frees_a_hung_pass_within_bounded_time() {
    // hang-pass spins until cancelled; the cancel below is the only
    // thing that can end this run.
    let plan = FaultInjector::parse("hang-pass:block").unwrap();
    let token = CancelToken::new();
    let trigger = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let err = PassManager::for_technique(Technique::Geyser)
        .with_faults(plan)
        .with_cancel(token)
        .run(&ghz(4), &fast())
        .expect_err("a hung pass can only end cancelled");
    trigger.join().unwrap();
    match err {
        CompileError::Cancelled { pass } => assert_eq!(pass, "block"),
        other => panic!("expected Cancelled at the hung pass, got {other}"),
    }
}

#[test]
fn every_fault_spec_ends_gracefully_or_typed() {
    // The acceptance sweep: each injectable scenario must finish with
    // either a compiled circuit or a typed CompileError — the process
    // must never abort or hang. A fault may cost a typed error, never
    // correctness: every graceful outcome must pass the oracle.
    let program = ghz(4);
    let vcfg = VerifyConfig::default();
    let specs = [
        "pass-panic:allocate-lattice",
        "pass-panic:block",
        "pass-panic:compose",
        "compose-timeout",
        "compose-corrupt:0,compose-corrupt:1",
        "compose-panic:0,compose-corrupt:1",
        "compose-timeout,compose-panic:0",
    ];
    for technique in [Technique::Baseline, Technique::Geyser] {
        for spec in specs {
            let plan = FaultInjector::parse(spec).unwrap();
            let manager = PassManager::for_technique(technique);
            // A pass panic only fires in pipelines that run the pass.
            let panics = plan
                .panic_passes
                .iter()
                .any(|p| manager.pass_names().contains(&p.as_str()));
            let outcome = manager.with_faults(plan).run(&program, &fast());
            match (panics, outcome) {
                (true, Err(CompileError::PassPanicked { .. })) => {}
                (false, Ok(compiled)) => {
                    let verdict = verify_compiled(&program, &compiled, &vcfg);
                    assert!(
                        verdict.equivalent,
                        "{technique:?} under '{spec}' miscompiled: {verdict:?}"
                    );
                }
                (expected_panic, other) => panic!(
                    "{technique:?} under '{spec}' (panic={expected_panic}) ended with {other:?}"
                ),
            }
        }
    }
}

#[test]
fn seeded_fault_plans_are_reproducible_end_to_end() {
    let program = qaoa(4, 1, 1);
    let plan = FaultInjector::sampled(42, 8, 16);
    let run = |plan: FaultInjector| {
        PassManager::for_technique(Technique::Geyser)
            .with_faults(plan)
            .run(&program, &fast())
            .expect("sampled plan degrades gracefully")
    };
    let a = run(plan.clone());
    let b = run(plan);
    assert_eq!(a.total_pulses(), b.total_pulses());
    assert_eq!(a.composition_stats(), b.composition_stats());
}
