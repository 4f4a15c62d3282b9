//! `sweep` — technique × hardware-scenario grid evaluation.
//!
//! Drives every selected workload through every `(hardware spec ×
//! technique)` grid cell and emits a scorecard: physical pulses,
//! critical-path depth, estimated success probability under the
//! spec's noise model, and compile cost per cell. The grid comes from
//! `--specs` (builtin preset names or spec JSON paths; default
//! `paper,near-term`), techniques from `--techniques` (default
//! `Baseline,Geyser`).
//!
//! The scorecard is written as JSON to `--json PATH`
//! (default `sweep-scorecard.json`) in addition to the stdout table.
//! Telemetry is always on, so every cell compiles (the results cache
//! is bypassed) and `compile_seconds` times the compile itself, never
//! a cache read.
//!
//! ```text
//! sweep --fast --specs paper,near-term --techniques Baseline,Geyser \
//!       --workloads qft-5 --json scorecard.json
//! ```

use geyser::{estimated_success_probability, Technique, Telemetry};
use geyser_bench::{
    compile_techniques, maybe_write_trace, metrics, print_rows, report_json, Cli, Row,
};
use serde::Serialize;

/// One scorecard cell: what one technique produced for one workload
/// on one machine, and what producing it cost.
#[derive(Debug, Clone, Serialize)]
struct ScorecardCell {
    /// Hardware scenario name (`HardwareSpec::name`).
    spec: String,
    /// Content digest of the scenario the cell compiled for.
    hardware_digest: String,
    /// Workload name.
    workload: String,
    /// Technique label.
    technique: String,
    /// Total physical pulses of the compiled circuit.
    pulses: u64,
    /// Critical-path pulse depth.
    depth: u64,
    /// Estimated success probability under the spec's noise model.
    fidelity: f64,
    /// Wall-clock seconds the pipeline spent compiling the cell.
    compile_seconds: f64,
}

fn main() {
    let mut cli = Cli::parse();
    // Enabled telemetry keeps every cell off the results cache, so
    // each cell's compile report carries its own pass timings.
    cli.telemetry = Telemetry::enabled();
    let grid = cli.hardware_grid();
    let techniques = cli.effective_techniques(&[Technique::Baseline, Technique::Geyser]);
    let workloads = cli.selected_workloads(true);

    let mut cells: Vec<ScorecardCell> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for spec in &grid {
        // Rebinding the scenario here makes `pipeline_config` follow it.
        let mut cell_cli = cli.clone();
        cell_cli.hardware = Some(spec.clone());
        let cfg = cell_cli.pipeline_config();
        let noise = cell_cli.noise_model();
        for workload in &workloads {
            let program = cell_cli.build(workload);
            let started = std::time::Instant::now();
            let compiled =
                compile_techniques(&cell_cli, workload.name, &program, &techniques, &cfg);
            let wall = started.elapsed().as_secs_f64() / compiled.len().max(1) as f64;
            for (t, c) in &compiled {
                let seconds = c
                    .report()
                    .map(|r| r.total_seconds())
                    .filter(|s| *s > 0.0)
                    .unwrap_or(wall);
                let fidelity = estimated_success_probability(c, &noise);
                cells.push(ScorecardCell {
                    spec: spec.name.clone(),
                    hardware_digest: format!("{:016x}", spec.digest()),
                    workload: workload.name.to_string(),
                    technique: t.label().to_string(),
                    pulses: c.total_pulses(),
                    depth: c.depth_pulses(),
                    fidelity,
                    compile_seconds: seconds,
                });
                rows.push(Row {
                    workload: format!("{}@{}", workload.name, spec.name),
                    technique: t.label().to_string(),
                    metrics: metrics(&[
                        ("pulses", c.total_pulses() as f64),
                        ("depth", c.depth_pulses() as f64),
                        ("fidelity", fidelity),
                        ("compile_s", seconds),
                    ]),
                });
            }
        }
    }

    print_rows(
        &format!(
            "Hardware sweep: {} spec(s) x {} technique(s) x {} workload(s)",
            grid.len(),
            techniques.len(),
            workloads.len()
        ),
        &rows,
    );
    let path = cli.json.as_deref().unwrap_or("sweep-scorecard.json");
    std::fs::write(path, report_json(&cells))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("(wrote {path})");
    maybe_write_trace(&cli);
}
