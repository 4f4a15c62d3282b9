//! Shared harness for the evaluation binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index). They share the CLI, the
//! workload registry, the compile-all-techniques driver, and the
//! table/JSON emitters defined here.
//!
//! Common flags (all binaries):
//!
//! * `--fast` — reduced composition budget (smoke runs, CI)
//! * `--workloads a,b,c` — filter to specific suite rows
//! * `--trajectories N` — Monte-Carlo trajectories for TVD runs
//! * `--noise R` — error rate (e.g. `0.001` for the paper's 0.1%)
//! * `--seed N` — master seed
//! * `--include-large` — include the 16-qubit Heisenberg in TVD runs
//! * `--steps N` — Trotter steps for Heisenberg (paper scale: 37)
//! * `--json PATH` — also dump rows as JSON
//! * `--report PATH` — dump per-pass compile reports as JSON
//!   (enables telemetry, which bypasses the compile cache so every run
//!   is instrumented; the reports include budget consumption and
//!   per-run fallback counts)
//! * `--budget-ms N` — wall-clock budget per compilation; on expiry
//!   the pipeline degrades gracefully (blocks fall back, remaining
//!   passes are skipped and recorded) instead of running unbounded
//! * `--inject SPEC` — deterministic fault injection for robustness
//!   runs (bypasses the cache); see [`geyser::FaultInjector::parse`]
//!   for the spec syntax, e.g. `--inject compose-corrupt:0,sim-nan:3`
//! * `--verify` — run every compiled circuit through the equivalence
//!   oracle (`geyser-verify`); the verdict lands on the compile report
//!   (and in the results cache) and an inequivalent result aborts the
//!   run with exit status 4
//! * `--reuse` — enable the composition-reuse index: eligible blocks
//!   are fingerprinted and repeated blocks replay a cached
//!   composition (after the shared ε re-check) instead of annealing;
//!   reuse runs bypass the results cache so every run is measured
//! * `--reuse-store DIR` — persist the reuse index across jobs in
//!   `DIR` (one GEYSREC1 record per entry, atomic writes); implies
//!   `--reuse`
//! * `--reuse-warm-start` — let near-miss (coarse-fingerprint) hits
//!   warm-start the annealer with a reduced iteration budget; implies
//!   `--reuse`
//! * `--structured` — make the `fuzz` binary draw repeated-layer
//!   (QAOA-like) circuits instead of fully random ones, so fuzz cases
//!   exercise the composition-reuse path
//! * `--cases N` — fuzz-case count for the `fuzz` binary (default 16)
//! * `--quarantine DIR` — where the `fuzz` binary files minimized
//!   reproducers and the `replay` binary looks for them (default
//!   `quarantine/`)
//! * `--trace PATH` — record hierarchical telemetry spans across the
//!   whole pipeline and write them as a Chrome trace-event JSON file
//!   (load in `chrome://tracing` or Perfetto); enables telemetry, which
//!   bypasses the compile cache so every compile emits its spans, and
//!   adds the Geyser technique to binaries that would not otherwise
//!   compose, so annealer spans always reach the trace
//! * `--techniques a,b` — compile an explicit technique list
//!   (labels per [`Technique::label`], case-insensitive) instead of
//!   the binary's default comparison points
//! * `--hardware PATH` — load a serialized [`geyser::HardwareSpec`]
//!   scenario (JSON) and compile for that machine instead of the
//!   paper's; the spec's digest becomes part of the results-cache
//!   key, and its noise model drives noisy simulation
//!   unless `--noise` overrides it
//! * `--specs a,b,c` — hardware-scenario grid for the `sweep` binary:
//!   each element is a builtin preset name (`paper`,
//!   `square-diagonal`, `near-term`) or a path to a spec JSON file
//! * `--campaigns N` — campaign count for the `chaos` binary
//!   (default 8)
//!
//! Exit codes are unified in [`exit_codes`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod exit_codes;

use std::collections::BTreeMap;

use cache::compile_cached;
pub use cache::{
    classify_cache_payload, CachePayloadStatus, CACHE_OBJECTS_DIR, CACHE_ROOT,
    CACHE_VERSION_MISS_COUNTER,
};
use geyser::{
    CompileReport, CompiledCircuit, FaultInjector, FaultSpecError, HardwareSpec, MetricsSnapshot,
    PassManager, PipelineConfig, Technique, Telemetry, VerificationStats,
};
use geyser_circuit::Circuit;
use geyser_sim::NoiseModel;
use geyser_verify::VerifyConfig;
use geyser_workloads::{heisenberg, suite, WorkloadSpec};
use serde::Serialize;

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Use the reduced-budget pipeline configuration.
    pub fast: bool,
    /// Workload-name filter (empty = whole suite).
    pub workloads: Vec<String>,
    /// Monte-Carlo trajectories for noisy simulation.
    pub trajectories: usize,
    /// Error rate per channel invocation.
    pub noise: f64,
    /// Master seed.
    pub seed: u64,
    /// Include >10-qubit workloads in TVD experiments.
    pub include_large: bool,
    /// Heisenberg Trotter-step override.
    pub steps: Option<usize>,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional per-pass compile-report output path.
    pub report: Option<String>,
    /// Wall-clock budget per compilation in milliseconds.
    pub budget_ms: Option<u64>,
    /// Fault plan parsed from `--inject` (empty without the flag).
    pub inject: FaultInjector,
    /// Run compiled circuits through the equivalence oracle
    /// (`--verify`).
    pub verify: bool,
    /// Enable the composition-reuse index (`--reuse`): repeated blocks
    /// replay cached compositions after an ε re-check instead of
    /// annealing from scratch.
    pub reuse: bool,
    /// Persist the reuse index across jobs in this directory
    /// (`--reuse-store DIR`); implies `--reuse`.
    pub reuse_store: Option<String>,
    /// Let coarse-fingerprint near-misses warm-start the annealer
    /// (`--reuse-warm-start`); implies `--reuse`.
    pub reuse_warm_start: bool,
    /// Fuzz-case count for the `fuzz` binary (`--cases`).
    pub cases: usize,
    /// Use the repeated-layer structured fuzz generator
    /// (`--structured`), so fuzz cases exercise the reuse path.
    pub structured: bool,
    /// Quarantine-corpus directory override (`--quarantine`).
    pub quarantine: Option<String>,
    /// Chrome trace-event output path (`--trace`).
    pub trace: Option<String>,
    /// Explicit technique override (`--techniques`).
    pub techniques: Option<Vec<Technique>>,
    /// Hardware scenario loaded from `--hardware PATH`; `None`
    /// compiles for the paper machine ([`HardwareSpec::paper`]).
    pub hardware: Option<HardwareSpec>,
    /// Whether `--noise` was given explicitly, in which case it beats
    /// the hardware spec's noise model in [`Cli::noise_model`].
    pub noise_explicit: bool,
    /// Hardware-scenario grid for the `sweep` binary (`--specs`):
    /// builtin preset names or spec-JSON paths.
    pub specs: Vec<String>,
    /// Campaign count for the `chaos` binary (`--campaigns`).
    pub campaigns: usize,
    /// The run's telemetry handle: disabled by default, enabled by
    /// [`Cli::parse`] when `--trace` or `--report` is given. Cloning
    /// shares the same buffers, so spans recorded anywhere in the
    /// pipeline land in this handle's exporters. An enabled handle
    /// bypasses the results cache (see [`compile_techniques`]).
    pub telemetry: Telemetry,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            fast: false,
            workloads: Vec::new(),
            trajectories: 400,
            noise: 0.001,
            seed: 0,
            include_large: false,
            steps: None,
            json: None,
            report: None,
            budget_ms: None,
            inject: FaultInjector::none(),
            verify: false,
            reuse: false,
            reuse_store: None,
            reuse_warm_start: false,
            cases: 16,
            structured: false,
            quarantine: None,
            trace: None,
            techniques: None,
            hardware: None,
            noise_explicit: false,
            specs: Vec::new(),
            campaigns: 8,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl Cli {
    /// Parses `std::env::args`, panicking with a usage message on
    /// malformed input.
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match arg.as_str() {
                "--fast" => cli.fast = true,
                "--include-large" => cli.include_large = true,
                "--workloads" => {
                    cli.workloads = value("--workloads")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect();
                }
                "--trajectories" => {
                    cli.trajectories = value("--trajectories").parse().expect("integer")
                }
                "--noise" => {
                    cli.noise = value("--noise").parse().expect("float");
                    cli.noise_explicit = true;
                }
                "--seed" => cli.seed = value("--seed").parse().expect("integer"),
                "--steps" => cli.steps = Some(value("--steps").parse().expect("integer")),
                "--json" => cli.json = Some(value("--json")),
                "--report" => cli.report = Some(value("--report")),
                "--budget-ms" => {
                    cli.budget_ms = Some(value("--budget-ms").parse().expect("integer"))
                }
                "--inject" => {
                    // Parse at the CLI boundary so a typo fails with a
                    // pointed message before any compilation.
                    cli.inject = FaultInjector::parse(&value("--inject"))
                        .unwrap_or_else(|e| exit_bad_inject(&e));
                }
                "--verify" => cli.verify = true,
                "--reuse" => cli.reuse = true,
                "--reuse-store" => {
                    cli.reuse_store = Some(value("--reuse-store"));
                    cli.reuse = true;
                }
                "--reuse-warm-start" => {
                    cli.reuse_warm_start = true;
                    cli.reuse = true;
                }
                "--cases" => cli.cases = value("--cases").parse().expect("integer"),
                "--structured" => cli.structured = true,
                "--quarantine" => cli.quarantine = Some(value("--quarantine")),
                "--trace" => cli.trace = Some(value("--trace")),
                "--techniques" => {
                    cli.techniques = Some(
                        value("--techniques")
                            .split(',')
                            .map(|s| {
                                Technique::from_label(s.trim()).unwrap_or_else(|| {
                                    panic!(
                                        "unknown technique '{}'; expected one of \
                                         Baseline, OptiMap, Geyser, SC",
                                        s.trim()
                                    )
                                })
                            })
                            .collect(),
                    );
                }
                "--hardware" => {
                    let path = value("--hardware");
                    match HardwareSpec::load(std::path::Path::new(&path)) {
                        Ok(spec) => cli.hardware = Some(spec),
                        Err(e) => {
                            eprintln!("error: --hardware: {e}");
                            std::process::exit(exit_codes::USAGE);
                        }
                    }
                }
                "--campaigns" => cli.campaigns = value("--campaigns").parse().expect("integer"),
                "--specs" => {
                    cli.specs = value("--specs")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                other => {
                    eprintln!("error: unknown flag '{other}'; see crate docs for usage");
                    std::process::exit(exit_codes::USAGE);
                }
            }
        }
        if cli.trace.is_some() || cli.report.is_some() {
            cli.telemetry = Telemetry::enabled();
        }
        cli
    }

    /// The pipeline configuration implied by the flags, compiling for
    /// [`Cli::hardware_spec`]'s machine.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let base = if self.fast {
            PipelineConfig::fast()
        } else {
            PipelineConfig::paper()
        };
        let mut base = base
            .with_seed(self.seed)
            .with_hardware(self.hardware_spec());
        if self.reuse {
            base = base.with_reuse();
        }
        if let Some(dir) = &self.reuse_store {
            base = base.with_reuse_store(dir);
        }
        if self.reuse_warm_start {
            base = base.with_reuse_warm_start(true);
        }
        match self.budget_ms {
            Some(ms) => base.with_budget_ms(ms),
            None => base,
        }
    }

    /// The hardware scenario the run compiles for: the `--hardware`
    /// spec when one was loaded, otherwise the paper machine.
    pub fn hardware_spec(&self) -> HardwareSpec {
        self.hardware.clone().unwrap_or_else(HardwareSpec::paper)
    }

    /// The noise model noisy-simulation binaries should use: the
    /// hardware spec's model when `--hardware` was given, overridden
    /// by an explicit `--noise R` (symmetric per-pulse at rate `R`,
    /// the historical behavior and the default without a spec).
    pub fn noise_model(&self) -> NoiseModel {
        match &self.hardware {
            Some(spec) if !self.noise_explicit => spec.noise,
            _ => NoiseModel::symmetric(self.noise),
        }
    }

    /// The techniques a binary should compile: the explicit
    /// `--techniques` override when given, otherwise the binary's
    /// default list — extended with [`Technique::Geyser`] under
    /// `--trace` so composition/annealer spans always reach the trace.
    /// Order is preserved, so a binary's `compiled[0]` stays its first
    /// default technique.
    pub fn effective_techniques(&self, default: &[Technique]) -> Vec<Technique> {
        if let Some(explicit) = &self.techniques {
            return explicit.clone();
        }
        let mut list = default.to_vec();
        if self.trace.is_some() && !list.contains(&Technique::Geyser) {
            list.push(Technique::Geyser);
        }
        list
    }

    /// Suite rows selected by the flags. TVD experiments pass
    /// `simulable_only = true` to drop >10-qubit rows unless
    /// `--include-large` is given.
    pub fn selected_workloads(&self, simulable_only: bool) -> Vec<WorkloadSpec> {
        suite()
            .into_iter()
            .filter(|spec| {
                (self.workloads.is_empty() || self.workloads.iter().any(|w| w == spec.name))
                    && (!simulable_only || self.include_large || spec.num_qubits <= 10)
            })
            .collect()
    }

    /// Tag encoding every flag that affects compilation output, used
    /// as part of the on-disk cache key. Includes the
    /// hardware spec's content digest, so results compiled for
    /// different machines can never collide on disk.
    pub fn config_tag(&self) -> String {
        format!(
            "s{}-{}-st{}-h{:016x}",
            self.seed,
            if self.fast { "fast" } else { "paper" },
            self.steps
                .map_or_else(|| "d".to_string(), |s| s.to_string()),
            self.hardware_spec().digest()
        )
    }

    /// Builds a workload, honouring the Heisenberg step override.
    pub fn build(&self, spec: &WorkloadSpec) -> Circuit {
        match (spec.name, self.steps) {
            ("heisenberg-16", Some(steps)) => heisenberg(16, steps, 0.1),
            _ => spec.build(),
        }
    }

    /// Oracle configuration implied by the flags, or `None` without
    /// `--verify`. The oracle's probe seed follows `--seed` so probe
    /// verdicts are reproducible and cacheable under the config tag.
    pub fn verify_config(&self) -> Option<VerifyConfig> {
        self.verify
            .then(|| VerifyConfig::default().with_seed(self.seed))
    }

    /// Quarantine-corpus directory: `--quarantine` or `quarantine/`.
    pub fn quarantine_dir(&self) -> std::path::PathBuf {
        std::path::PathBuf::from(self.quarantine.as_deref().unwrap_or("quarantine"))
    }

    /// Resolves the `--specs` grid for the `sweep` binary. Each
    /// element names a builtin preset (`paper`, `square-diagonal`,
    /// `near-term`) or is a path to a spec JSON file; without the
    /// flag the grid defaults to `paper` + `near-term`. A bad name or
    /// file exits with usage status 2.
    pub fn hardware_grid(&self) -> Vec<HardwareSpec> {
        if self.specs.is_empty() {
            return vec![HardwareSpec::paper(), HardwareSpec::near_term()];
        }
        self.specs
            .iter()
            .map(|token| match token.as_str() {
                "paper" => HardwareSpec::paper(),
                "square-diagonal" => HardwareSpec::square_diagonal(),
                "near-term" => HardwareSpec::near_term(),
                path => HardwareSpec::load(std::path::Path::new(path)).unwrap_or_else(|e| {
                    eprintln!(
                        "error: --specs: '{path}' is neither a builtin preset \
                         (paper, square-diagonal, near-term) nor a loadable \
                         spec file: {e}"
                    );
                    std::process::exit(exit_codes::USAGE);
                }),
            })
            .collect()
    }
}

/// Prints a pointed `--inject` diagnostic and exits with status 2,
/// the conventional usage-error code.
fn exit_bad_inject(err: &FaultSpecError) -> ! {
    eprintln!("error: --inject: {err}");
    eprintln!(
        "usage: --inject SPEC where SPEC is comma-separated fault tokens, e.g.\n  \
         pass-panic:compose, hang-pass:block, compose-corrupt:0,\n  \
         compose-timeout, sim-nan:3, miscompile:0"
    );
    std::process::exit(exit_codes::USAGE);
}

/// One (workload × technique) measurement row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Technique label.
    pub technique: String,
    /// Named metric values, insertion-ordered by BTreeMap key.
    pub metrics: BTreeMap<String, f64>,
}

/// Compiles one workload with every requested technique, going
/// through the on-disk cache so repeated figure runs pay for each
/// compilation once.
///
/// The cache is bypassed when any flag makes the run non-reusable:
/// enabled telemetry (`--report`, `--trace`, and `sweep`: a cache hit
/// would carry no per-pass instrumentation and emit no spans),
/// `--budget-ms` (a degraded result depends on machine speed),
/// `--reuse` (a hit would neither consult nor grow the reuse index)
/// and `--inject` (deliberately faulty output must never be cached).
/// Bypassing runs go through a [`PassManager`] so injected pass panics
/// surface as typed errors.
///
/// With `--verify`, every finalized circuit additionally runs through
/// the `geyser-verify` equivalence oracle. The check runs *after*
/// compilation on the circuit exactly as it shipped — this is the only
/// vantage point that can catch an injected `miscompile:<i>` fault,
/// which corrupts the output after every in-pipeline check. Verdicts
/// land on the compile report (hence in `--report` JSON) and in the
/// results cache; an inequivalent circuit aborts the process with exit
/// status 4.
pub fn compile_techniques(
    cli: &Cli,
    name: &str,
    program: &Circuit,
    techniques: &[Technique],
    cfg: &PipelineConfig,
) -> Vec<(Technique, CompiledCircuit)> {
    let tag = cli.config_tag();
    let faults = &cli.inject;
    let verify_cfg = cli.verify_config();
    let bypass_cache =
        cli.telemetry.is_enabled() || cli.budget_ms.is_some() || cli.reuse || !faults.is_empty();
    let mut compiled: Vec<(Technique, CompiledCircuit, Option<VerificationStats>)> = techniques
        .iter()
        .map(|&t| {
            if bypass_cache {
                let c = PassManager::for_technique(t)
                    .with_faults(faults.clone())
                    .with_telemetry(cli.telemetry.clone())
                    .run(program, cfg)
                    .unwrap_or_else(|e| panic!("{e}"));
                (t, c, None)
            } else {
                let (c, stats) = compile_cached(
                    name,
                    program,
                    t,
                    cfg,
                    &tag,
                    verify_cfg.as_ref(),
                    &cli.telemetry,
                );
                (t, c, stats)
            }
        })
        .collect();
    if let Some(vc) = &verify_cfg {
        for (t, c, cached_verdict) in &mut compiled {
            // Cache hits reuse the verdict persisted next to the
            // circuit; every other path verifies the final artifact.
            let stats = cached_verdict
                .take()
                .unwrap_or_else(|| geyser::verify_compiled(program, c, vc));
            if let Some(report) = c.report_mut() {
                report.verification = Some(stats.clone());
            }
            if !stats.equivalent {
                exit_verification_failure(name, *t, &stats);
            }
        }
    }
    compiled.into_iter().map(|(t, c, _)| (t, c)).collect()
}

/// Prints the oracle's verdict on an inequivalent compilation and
/// exits with [`exit_codes::VERIFICATION_FAILED`].
fn exit_verification_failure(name: &str, technique: Technique, stats: &VerificationStats) -> ! {
    eprintln!(
        "error: '{name}' ({}) failed equivalence verification: \
         method={} worst_fidelity={:.12} tolerance={:e}",
        technique.label(),
        stats.method,
        stats.worst_fidelity,
        stats.tolerance
    );
    std::process::exit(exit_codes::VERIFICATION_FAILED);
}

/// One (workload × technique) per-pass compile report.
#[derive(Debug, Clone, Serialize)]
pub struct ReportRow {
    /// Workload name.
    pub workload: String,
    /// Technique label.
    pub technique: String,
    /// The pass manager's instrumentation record.
    pub report: CompileReport,
}

/// Collects the compile reports of one workload's compilations into
/// `out`. Cache replays contribute a report too (empty pass list,
/// explicit `verification` key), so the output schema is stable
/// whether a circuit was compiled or replayed.
pub fn collect_reports(
    name: &str,
    compiled: &[(Technique, CompiledCircuit)],
    out: &mut Vec<ReportRow>,
) {
    for (t, c) in compiled {
        if let Some(report) = c.report() {
            out.push(ReportRow {
                workload: name.to_string(),
                technique: t.label().to_string(),
                report: report.clone(),
            });
        }
    }
}

/// The `--report` artifact: per-pass compile reports plus the run's
/// telemetry metrics snapshot (`null` when telemetry never enabled,
/// which cannot happen through [`Cli::parse`] since `--report` enables
/// it).
#[derive(Debug, Clone, Serialize)]
pub struct ReportDocument {
    /// Per-(workload × technique) compile reports.
    pub rows: Vec<ReportRow>,
    /// Counters and histograms accumulated across the run.
    pub metrics: Option<MetricsSnapshot>,
}

/// Serializes a report-shaped value as pretty-printed JSON — the one
/// serializer behind `--json`, `--report`, and the metrics dump, so
/// every artifact shares a single format.
///
/// # Panics
///
/// Panics if serialization fails (cannot happen for the harness's
/// report types).
pub fn report_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("report values serialize")
}

/// Writes an artifact body to `path` and announces it on stdout.
fn write_artifact(path: &str, body: &str) {
    std::fs::write(path, body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("(wrote {path})");
}

/// Writes collected compile reports (with the run's metrics snapshot
/// folded in) to the `--report` path if one was given.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn maybe_write_reports(cli: &Cli, rows: &[ReportRow]) {
    if let Some(path) = &cli.report {
        let doc = ReportDocument {
            rows: rows.to_vec(),
            metrics: cli.telemetry.metrics_snapshot(),
        };
        write_artifact(path, &report_json(&doc));
    }
}

/// Writes the run's telemetry spans as a Chrome trace-event JSON file
/// to the `--trace` path if one was given (load the file in
/// `chrome://tracing` or Perfetto).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn maybe_write_trace(cli: &Cli) {
    if let Some(path) = &cli.trace {
        let body = cli
            .telemetry
            .chrome_trace_json()
            .expect("--trace enables telemetry");
        write_artifact(path, &body);
    }
}

/// Renders rows as an aligned text table on stdout.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    let metric_names: Vec<&String> = rows[0].metrics.keys().collect();
    print!("{:<16} {:<10}", "workload", "technique");
    for m in &metric_names {
        print!(" {:>14}", m);
    }
    println!();
    for row in rows {
        print!("{:<16} {:<10}", row.workload, row.technique);
        for m in &metric_names {
            let v = row.metrics[*m];
            if v.fract() == 0.0 && v.abs() < 1e15 {
                print!(" {:>14}", v as i64);
            } else {
                print!(" {:>14.4}", v);
            }
        }
        println!();
    }
}

/// Writes rows to the `--json` path if one was given.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn maybe_write_json(cli: &Cli, rows: &[Row]) {
    if let Some(path) = &cli.json {
        write_artifact(path, &report_json(rows));
    }
}

/// Convenience constructor for a metrics map.
pub fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
    pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cli_selects_full_suite() {
        let cli = Cli::default();
        assert_eq!(cli.selected_workloads(false).len(), 10);
        // TVD-mode drops the 16-qubit row.
        assert_eq!(cli.selected_workloads(true).len(), 9);
    }

    #[test]
    fn reuse_flags_reach_the_pipeline_config() {
        let off = Cli::default();
        assert!(!off.pipeline_config().reuse.enabled);

        let on = Cli {
            reuse: true,
            ..Cli::default()
        };
        let cfg = on.pipeline_config();
        assert!(cfg.reuse.enabled);
        assert!(cfg.reuse.store.is_none());
        assert!(!cfg.reuse.warm_start);

        let stored = Cli {
            reuse_store: Some("reuse-store".into()),
            reuse_warm_start: true,
            ..Cli::default()
        };
        let cfg = stored.pipeline_config();
        // --reuse-store / --reuse-warm-start imply --reuse even when
        // a library caller skips Cli::parse.
        assert!(cfg.reuse.enabled);
        assert_eq!(
            cfg.reuse.store.as_deref(),
            Some(std::path::Path::new("reuse-store"))
        );
        assert!(cfg.reuse.warm_start);
    }

    #[test]
    fn include_large_restores_heisenberg() {
        let cli = Cli {
            include_large: true,
            ..Cli::default()
        };
        assert_eq!(cli.selected_workloads(true).len(), 10);
    }

    #[test]
    fn workload_filter_applies() {
        let cli = Cli {
            workloads: vec!["qft-5".into(), "adder-4".into()],
            ..Cli::default()
        };
        let rows = cli.selected_workloads(false);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn steps_override_changes_heisenberg_depth() {
        let spec = suite()
            .into_iter()
            .find(|s| s.name == "heisenberg-16")
            .unwrap();
        let small = Cli {
            steps: Some(1),
            ..Cli::default()
        };
        let big = Cli {
            steps: Some(2),
            ..Cli::default()
        };
        assert!(small.build(&spec).len() < big.build(&spec).len());
    }

    #[test]
    fn metrics_helper_builds_map() {
        let m = metrics(&[("a", 1.0), ("b", 2.5)]);
        assert_eq!(m["a"], 1.0);
        assert_eq!(m["b"], 2.5);
    }

    #[test]
    fn budget_flag_bounds_the_pipeline_config() {
        let cli = Cli {
            budget_ms: Some(250),
            ..Cli::default()
        };
        assert!(cli.pipeline_config().budget.is_bounded());
        assert!(!Cli::default().pipeline_config().budget.is_bounded());
    }

    #[test]
    fn verify_flag_implies_an_oracle_config_following_the_seed() {
        assert!(Cli::default().verify_config().is_none());
        let cli = Cli {
            verify: true,
            seed: 9,
            ..Cli::default()
        };
        assert_eq!(cli.verify_config().unwrap().seed, 9);
    }

    #[test]
    fn quarantine_dir_defaults_and_overrides() {
        assert_eq!(
            Cli::default().quarantine_dir(),
            std::path::Path::new("quarantine")
        );
        let cli = Cli {
            quarantine: Some("corpus".into()),
            ..Cli::default()
        };
        assert_eq!(cli.quarantine_dir(), std::path::Path::new("corpus"));
    }

    #[test]
    fn trace_flag_appends_geyser() {
        let cli = Cli {
            trace: Some("t.json".into()),
            telemetry: Telemetry::enabled(),
            ..Cli::default()
        };
        assert_eq!(
            cli.effective_techniques(&[Technique::Baseline]),
            vec![Technique::Baseline, Technique::Geyser],
            "tracing appends Geyser after the binary's defaults"
        );
        // Already-composing defaults gain nothing (no duplicate).
        assert_eq!(cli.effective_techniques(&Technique::NEUTRAL_ATOM).len(), 3);
        // Without --trace the defaults pass through untouched.
        assert_eq!(
            Cli::default().effective_techniques(&[Technique::Baseline]),
            vec![Technique::Baseline]
        );
    }

    #[test]
    fn enabled_telemetry_compiles_instead_of_hitting_the_cache() {
        // A traced run must emit compose spans, so it compiles even
        // when the results cache is warm; `report: None` here, so the
        // telemetry handle alone decides the bypass.
        let _cwd = cache::CWD_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("geyser-bench-traced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        let mut program = Circuit::new(3);
        program.h(0).cx(0, 1).cx(1, 2).t(2);
        let cfg = PipelineConfig::fast();
        let warm = Cli {
            telemetry: Telemetry::enabled(),
            ..Cli::default()
        };
        compile_techniques(
            &Cli::default(),
            "traced",
            &program,
            &[Technique::Geyser],
            &cfg,
        );
        compile_techniques(&warm, "traced", &program, &[Technique::Geyser], &cfg);
        let hits = warm.telemetry.counter_value("bench.cache_hits");
        let passes = warm.telemetry.counter_value("core.passes_run");

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(hits, None, "a telemetry-enabled run never reads the cache");
        assert!(passes.unwrap_or(0) > 0, "the traced run ran its passes");
    }

    #[test]
    fn explicit_techniques_override_beats_the_trace_extension() {
        let cli = Cli {
            trace: Some("t.json".into()),
            techniques: Some(vec![Technique::Superconducting]),
            ..Cli::default()
        };
        assert_eq!(
            cli.effective_techniques(&[Technique::Baseline]),
            vec![Technique::Superconducting]
        );
    }

    #[test]
    fn config_tag_separates_hardware_scenarios() {
        let paper = Cli::default();
        let near = Cli {
            hardware: Some(HardwareSpec::near_term()),
            ..Cli::default()
        };
        assert_ne!(paper.config_tag(), near.config_tag());
        assert!(paper
            .config_tag()
            .ends_with(&format!("h{:016x}", HardwareSpec::paper().digest())));
    }

    #[test]
    fn pipeline_config_carries_the_loaded_spec() {
        let cli = Cli {
            hardware: Some(HardwareSpec::square_diagonal()),
            ..Cli::default()
        };
        assert_eq!(
            cli.pipeline_config().hardware.digest(),
            HardwareSpec::square_diagonal().digest()
        );
        assert!(Cli::default().pipeline_config().hardware.is_paper());
    }

    #[test]
    fn noise_model_follows_the_spec_unless_overridden() {
        let mut spec = HardwareSpec::paper();
        spec.noise = NoiseModel::symmetric(0.02);
        let from_spec = Cli {
            hardware: Some(spec.clone()),
            ..Cli::default()
        };
        assert_eq!(from_spec.noise_model(), NoiseModel::symmetric(0.02));
        // An explicit --noise beats the spec (historical behavior).
        let overridden = Cli {
            hardware: Some(spec),
            noise: 0.005,
            noise_explicit: true,
            ..Cli::default()
        };
        assert_eq!(overridden.noise_model(), NoiseModel::symmetric(0.005));
        // Without a spec the flag's default applies as before.
        assert_eq!(
            Cli::default().noise_model(),
            NoiseModel::symmetric(Cli::default().noise)
        );
    }

    #[test]
    fn hardware_grid_defaults_and_resolves_builtins() {
        let grid = Cli::default().hardware_grid();
        assert_eq!(grid.len(), 2);
        assert!(grid[0].is_paper());
        let cli = Cli {
            specs: vec!["square-diagonal".into(), "paper".into()],
            ..Cli::default()
        };
        let grid = cli.hardware_grid();
        assert_eq!(grid[0].digest(), HardwareSpec::square_diagonal().digest());
        assert!(grid[1].is_paper());
    }

    #[test]
    fn report_document_serializes_explicit_null_keys() {
        // The JSON schema must be stable: keys that are conceptually
        // absent serialize as explicit nulls, never disappear.
        let doc = ReportDocument {
            rows: vec![ReportRow {
                workload: "w".into(),
                technique: "Baseline".into(),
                report: CompileReport::new("Baseline"),
            }],
            metrics: None,
        };
        let json = report_json(&doc);
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"metrics\": null"));
        assert!(json.contains("\"verification\": null"));
    }

    #[test]
    fn verified_compile_attaches_oracle_stats_to_the_report() {
        // Enabled telemetry (what `--report` turns on) routes around
        // the on-disk cache, so this test leaves no .geyser-cache
        // entries behind.
        let cli = Cli {
            verify: true,
            report: Some("unused.json".into()),
            telemetry: Telemetry::enabled(),
            ..Cli::default()
        };
        let mut program = Circuit::new(3);
        program.h(0).cx(0, 1).cx(1, 2);
        let cfg = PipelineConfig::fast();
        let compiled = compile_techniques(
            &cli,
            "bench-verify-test",
            &program,
            &[Technique::Baseline, Technique::Geyser],
            &cfg,
        );
        for (t, c) in &compiled {
            let v = c
                .report()
                .and_then(|r| r.verification.as_ref())
                .unwrap_or_else(|| panic!("{} run missing verification stats", t.label()));
            assert!(v.equivalent, "{}: {v:?}", t.label());
        }
    }
}
