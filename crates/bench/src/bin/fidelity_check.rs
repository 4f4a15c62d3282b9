//! Section 6 fidelity sanity check: the TVD between Geyser's
//! *noise-free* output and the original program's ideal output must be
//! practically negligible (< 1e-2) — composition error does not
//! corrupt program semantics.

use geyser::{evaluate_tvd, Technique};
use geyser_bench::{compile_techniques, maybe_write_json, metrics, print_rows, Cli, Row};
use geyser_sim::NoiseModel;

fn main() {
    let cli = Cli::parse();
    let cfg = cli.pipeline_config();
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for spec in cli.selected_workloads(true) {
        let program = cli.build(&spec);
        let (_, compiled) =
            compile_techniques(&cli, spec.name, &program, &[Technique::Geyser], &cfg).remove(0);
        let report = evaluate_tvd(&compiled, &program, &NoiseModel::noiseless(), 1, cli.seed);
        worst = worst.max(report.compilation_tvd);
        let stats = compiled.composition_stats().expect("geyser stats");
        rows.push(Row {
            workload: spec.name.to_string(),
            technique: "Geyser".to_string(),
            metrics: metrics(&[
                ("ideal_tvd", report.compilation_tvd),
                ("blocks_composed", stats.blocks_composed as f64),
                ("max_block_hsd", stats.max_accepted_hsd),
            ]),
        });
    }
    print_rows("Sec. 6 check: ideal-output TVD of composed circuits", &rows);
    println!(
        "worst ideal-output TVD = {worst:.2e} — paper bound: < 1e-2 → {}",
        if worst < 1e-2 { "PASS" } else { "FAIL" }
    );
    maybe_write_json(&cli, &rows);
}
