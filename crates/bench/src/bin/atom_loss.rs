//! Section 6 atom-loss experiment: Geyser's output fidelity across
//! atom-loss probabilities. The paper reports that effectiveness "was
//! not experimentally observed to be sensitive for realistic atom loss
//! probabilities" — this binary quantifies that claim.

use geyser::Technique;
use geyser_bench::{compile_techniques, maybe_write_json, metrics, print_rows, Cli, Row};
use geyser_sim::{
    ideal_distribution, sample_with_atom_loss, total_variation_distance, AtomLossModel,
};

fn main() {
    let cli = Cli::parse();
    let cfg = cli.pipeline_config();
    let noise = cli.noise_model();
    // The sweep grid always includes the hardware spec's own atom-loss
    // probability so scenario files exercise their stated machine.
    let mut loss_rates = vec![0.0, 0.001, 0.005, 0.02];
    let spec_loss = cli.hardware_spec().atom_loss;
    if spec_loss > 0.0 && !loss_rates.contains(&spec_loss) {
        loss_rates.push(spec_loss);
        loss_rates.sort_by(f64::total_cmp);
    }
    let mut rows = Vec::new();
    for spec in cli.selected_workloads(true).into_iter().take(5) {
        let program = cli.build(&spec);
        let (_, compiled) =
            compile_techniques(&cli, spec.name, &program, &[Technique::Geyser], &cfg).remove(0);
        let ideal = ideal_distribution(&program);
        for &loss_rate in &loss_rates {
            let dist = sample_with_atom_loss(
                compiled.mapped().circuit(),
                &noise,
                &AtomLossModel::new(loss_rate),
                cli.trajectories,
                cli.seed,
            );
            let logical = compiled.mapped().logical_distribution(&dist);
            rows.push(Row {
                workload: spec.name.to_string(),
                technique: format!("loss={:.1}%", loss_rate * 100.0),
                metrics: metrics(&[("tvd", total_variation_distance(&ideal, &logical))]),
            });
        }
    }
    print_rows(
        &format!(
            "Sec. 6: Geyser TVD under atom loss @ {:.2}% gate noise",
            noise.bit_flip * 100.0
        ),
        &rows,
    );
    maybe_write_json(&cli, &rows);
}
