//! Differential fuzzing driver: generate seeded circuits, compile them
//! with every technique, check each result against the equivalence
//! oracle, shrink failures to local minima with delta debugging, and
//! quarantine minimized reproducers for `replay`.
//!
//! Flags (see the `geyser-bench` crate docs for the full list):
//!
//! * `--seed N` — run seed; the whole run is a pure function of it
//! * `--cases N` — fuzz cases to generate (default 16)
//! * `--fast` — reduced composition budget (recommended; also what the
//!   CI smoke uses)
//! * `--inject SPEC` — compile every case under an injected fault,
//!   e.g. `--inject miscompile:0` to prove the harness catches and
//!   shrinks a silent miscompile end to end
//! * `--structured` — draw repeated-layer (QAOA-like) circuits
//!   instead of fully random ones, so cases exercise the
//!   composition-reuse path
//! * `--reuse` / `--reuse-warm-start` — compile every case with the
//!   composition-reuse index enabled (in-process, no store, so a
//!   case's outcome stays a pure function of the entry); quarantine
//!   entries record the flag so `replay` takes the same path
//! * `--quarantine DIR` — where reproducers are filed (default
//!   `quarantine/`)
//! * `--json PATH` — write one row per case × technique: `compiled`,
//!   `pulses`, `depth`, `verified` and `worst_fidelity`, nothing
//!   wall-clock, so two runs with the same seed are byte-identical
//!
//! A fault may cost a typed error, never correctness: when `--inject`
//! panics a pass, that pass's `PassPanicked` error is the fault's
//! promised outcome, not a failure. Every other compile error, and
//! every compiled circuit the oracle rejects, is a failure. So a run
//! under a fault the pipeline promises to absorb (`pass-panic:block`,
//! `compose-timeout`) must exit 0, as a clean run must.
//!
//! Exit status: 0 = no failures, 1 = failures found (and quarantined),
//! 2 = usage error.

use std::collections::BTreeMap;

use geyser::{
    CompileError, CompiledCircuit, FaultInjector, PassManager, PipelineConfig, Technique,
    Telemetry, VerificationStats,
};
use geyser_bench::{exit_codes, maybe_write_json, metrics, Cli, Row};
use geyser_circuit::Circuit;
use geyser_verify::{
    generate_cases, minimize, quarantine::write_entry, FuzzCase, FuzzOptions, QuarantineEntry,
    VerifyConfig,
};

/// What went wrong with one (case × technique) run.
enum Failure {
    /// The pipeline returned a typed error.
    CompileError(String),
    /// The pipeline succeeded but the oracle rejected the output.
    Miscompile(VerificationStats),
}

impl Failure {
    /// Coarse kind used to match failures during minimization: the
    /// shrunk reproducer must fail the same way, not just somehow.
    fn kind(&self) -> &'static str {
        match self {
            Failure::CompileError(_) => "compile-error",
            Failure::Miscompile(_) => "miscompile",
        }
    }
}

/// The `--json` metrics of one run; a run without a compiled circuit
/// reads `compiled` 0 and `worst_fidelity` -1.
fn row_metrics(outcome: Option<(&CompiledCircuit, &VerificationStats)>) -> BTreeMap<String, f64> {
    let (compiled, pulses, depth, verified, worst) = match outcome {
        Some((c, v)) => (
            1.0,
            c.total_pulses() as f64,
            c.depth_pulses() as f64,
            f64::from(u8::from(v.equivalent)),
            v.worst_fidelity,
        ),
        None => (0.0, 0.0, 0.0, 0.0, -1.0),
    };
    metrics(&[
        ("compiled", compiled),
        ("pulses", pulses),
        ("depth", depth),
        ("verified", verified),
        ("worst_fidelity", worst),
    ])
}

/// Compile + verify one circuit under one technique, returning the
/// run's `--json` metrics and its verdict. Telemetry is observational
/// only — a disabled handle gives identical outcomes.
fn check(
    circuit: &Circuit,
    technique: Technique,
    cfg: &PipelineConfig,
    faults: &FaultInjector,
    vcfg: &VerifyConfig,
    telemetry: &Telemetry,
) -> (BTreeMap<String, f64>, Result<(), Failure>) {
    let compiled = match PassManager::for_technique(technique)
        .with_faults(faults.clone())
        .with_telemetry(telemetry.clone())
        .run(circuit, cfg)
    {
        Ok(c) => c,
        // The injected panic surfacing as its typed error is what the
        // fault promises.
        Err(CompileError::PassPanicked { pass, .. }) if faults.panic_passes.contains(&pass) => {
            return (row_metrics(None), Ok(()))
        }
        Err(e) => return (row_metrics(None), Err(Failure::CompileError(e.to_string()))),
    };
    let stats = geyser::verify_compiled(circuit, &compiled, vcfg);
    let row = row_metrics(Some((&compiled, &stats)));
    if stats.equivalent {
        (row, Ok(()))
    } else {
        (row, Err(Failure::Miscompile(stats)))
    }
}

fn main() {
    let cli = Cli::parse();
    // The config must be fully reconstructible from the tag stored in
    // each quarantine entry, so only the tag-encoded knobs apply here
    // (no wall-clock budget: a degraded circuit is machine-dependent).
    let mut cfg = if cli.fast {
        PipelineConfig::fast()
    } else {
        PipelineConfig::paper()
    }
    .with_seed(cli.seed);
    // Reuse is reconstructible from the quarantine entry's `reuse`
    // flag (the in-process index is deterministic); a persistent store
    // is not, so the fuzzer never uses one.
    if cli.reuse {
        cfg = cfg.with_reuse().with_reuse_warm_start(cli.reuse_warm_start);
    }
    let faults = &cli.inject;
    let vcfg = VerifyConfig::default().with_seed(cli.seed);
    let opts = FuzzOptions {
        seed: cli.seed,
        cases: cli.cases,
        // Hardware scenarios are part of the fuzzed surface: each case
        // carries a mutated spec (recorded in its quarantine entry so
        // replay reproduces hardware-dependent failures exactly).
        mutate_hardware: true,
        structured: cli.structured,
        ..FuzzOptions::default()
    };
    let qdir = cli.quarantine_dir();

    let mut rows = Vec::new();
    let mut failures = 0usize;
    for case in generate_cases(&opts) {
        let case_cfg = match &case.hardware {
            Some(spec) => cfg.clone().with_hardware(spec.clone()),
            None => cfg.clone(),
        };
        for technique in Technique::ALL {
            let (metrics, verdict) = check(
                &case.circuit,
                technique,
                &case_cfg,
                faults,
                &vcfg,
                &Telemetry::disabled(),
            );
            rows.push(Row {
                workload: case.id.clone(),
                technique: technique.label().to_string(),
                metrics,
            });
            let Err(failure) = verdict else {
                continue;
            };
            failures += 1;
            quarantine_failure(
                &cli, &case_cfg, faults, &vcfg, &case, technique, &failure, &qdir,
            );
        }
    }
    maybe_write_json(&cli, &rows);
    println!(
        "fuzz: seed {} — {} compilations over {} case(s), {failures} failure(s)",
        cli.seed,
        rows.len(),
        opts.cases
    );
    if failures > 0 {
        println!("reproducers quarantined under {}/", qdir.display());
        std::process::exit(exit_codes::FAILURES);
    }
}

/// Shrinks one failure with ddmin and files the minimized reproducer.
#[allow(clippy::too_many_arguments)]
fn quarantine_failure(
    cli: &Cli,
    cfg: &PipelineConfig,
    faults: &FaultInjector,
    vcfg: &VerifyConfig,
    case: &FuzzCase,
    technique: Technique,
    failure: &Failure,
    qdir: &std::path::Path,
) {
    let kind = failure.kind();
    let (minimized, shrink) = minimize(
        &case.circuit,
        |candidate| matches!(&check(candidate, technique, cfg, faults, vcfg, &Telemetry::disabled()).1, Err(f) if f.kind() == kind),
    );
    // Re-verify the minimized reproducer so the entry's oracle fields
    // describe exactly what `replay` will observe — with telemetry on
    // and the run timed, so the entry records what the reproducer
    // costs and replay can spot cost regressions across versions.
    let cost_telemetry = Telemetry::enabled();
    let started = std::time::Instant::now();
    let final_failure = check(&minimized, technique, cfg, faults, vcfg, &cost_telemetry)
        .1
        .expect_err("minimizer only returns circuits that still fail");
    let compile_ms = started.elapsed().as_millis() as u64;
    let anneal_evaluations = cost_telemetry.counter_value("compose.anneal_evaluations");
    let (failure_text, method, worst_fidelity, tolerance) = match &final_failure {
        Failure::CompileError(detail) => (
            format!("compile-error: {detail}"),
            "none".to_string(),
            -1.0,
            0.0,
        ),
        Failure::Miscompile(v) => (
            "miscompile".to_string(),
            v.method.clone(),
            v.worst_fidelity,
            v.tolerance,
        ),
    };
    let mut entry = QuarantineEntry {
        id: format!("{}-{}", case.id, technique.label().to_lowercase()),
        case_id: case.id.clone(),
        technique: technique.label().to_string(),
        config: cli.config_tag(),
        seed: case.seed,
        inject: (!cli.inject.is_empty()).then(|| cli.inject.spec()),
        failure: failure_text,
        method,
        worst_fidelity,
        tolerance,
        original_ops: shrink.original_ops as u64,
        minimized_ops: shrink.minimized_ops as u64,
        qasm: String::new(),
        compile_ms: Some(compile_ms),
        anneal_evaluations,
        hardware: case.hardware.clone(),
        reuse: cfg.reuse.enabled,
    };
    entry.set_circuit(&minimized);
    match write_entry(qdir, &entry) {
        Ok(path) => println!(
            "FAIL {}: {} — shrunk {} -> {} ops in {} recompile(s), filed {}",
            entry.id,
            entry.failure,
            shrink.original_ops,
            shrink.minimized_ops,
            shrink.predicate_calls,
            path.display()
        ),
        Err(e) => {
            eprintln!("error: cannot write quarantine entry {}: {e}", entry.id);
            std::process::exit(exit_codes::USAGE);
        }
    }
}
