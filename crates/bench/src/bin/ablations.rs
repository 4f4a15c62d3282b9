//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. **Pulse-aware vs gate-count-aware blocking** (paper Sec. 3.3
//!    argues pulses are the right objective).
//! 2. **Per-pulse vs per-operation noise granularity** (the paper's
//!    noise-∝-pulses premise).
//! 3. **Triangular vs square-diagonal lattice restriction pressure**
//!    (paper Fig. 7's topology choice).

use geyser::{evaluate_tvd, Technique};
use geyser_bench::{compile_techniques, maybe_write_json, metrics, print_rows, Cli, Row};
use geyser_blocking::{block_circuit, BlockingConfig};
use geyser_map::{map_circuit, MappingOptions};
use geyser_topology::Lattice;

fn main() {
    let cli = Cli::parse();
    let cfg = cli.pipeline_config();
    let mut rows = Vec::new();

    // --- Ablation 1: blocking objective ---------------------------
    for spec in cli.selected_workloads(true) {
        let program = cli.build(&spec);
        let lattice = Lattice::triangular_for(program.num_qubits());
        let mapped = map_circuit(&program, &lattice, &MappingOptions::optimized());
        for (label, pulse_aware) in [("pulse-aware", true), ("gate-aware", false)] {
            let blocked = block_circuit(
                mapped.circuit(),
                &lattice,
                &BlockingConfig {
                    pulse_aware,
                    ..BlockingConfig::default()
                },
            );
            rows.push(Row {
                workload: spec.name.to_string(),
                technique: label.to_string(),
                metrics: metrics(&[
                    ("blocks", blocked.num_blocks() as f64),
                    ("rounds", blocked.rounds().len() as f64),
                    ("mean_block_ops", blocked.mean_block_size()),
                ]),
            });
        }
    }
    print_rows(
        "Ablation 1: blocking objective (pulse vs gate aware)",
        &rows,
    );
    let mut all_rows = std::mem::take(&mut rows);

    // --- Ablation 2: noise granularity -----------------------------
    for spec in cli.selected_workloads(true).into_iter().take(4) {
        let program = cli.build(&spec);
        let (_, compiled) =
            compile_techniques(&cli, spec.name, &program, &[Technique::Geyser], &cfg).remove(0);
        let per_pulse = cli.noise_model();
        let per_op = per_pulse.with_per_operation_granularity();
        for (label, noise) in [("per-pulse", per_pulse), ("per-op", per_op)] {
            let report = evaluate_tvd(&compiled, &program, &noise, cli.trajectories, cli.seed);
            rows.push(Row {
                workload: spec.name.to_string(),
                technique: label.to_string(),
                metrics: metrics(&[("tvd", report.tvd_to_ideal)]),
            });
        }
    }
    print_rows("Ablation 2: noise granularity (per pulse vs per op)", &rows);
    all_rows.append(&mut rows);

    // --- Ablation 3: lattice restriction pressure -------------------
    // Depth pulses of the same OptiMap circuit structure when zones
    // come from a triangular vs a diagonal square lattice.
    for spec in cli.selected_workloads(true).into_iter().take(4) {
        let program = cli.build(&spec);
        for (label, lattice) in [
            ("triangular", Lattice::triangular_for(program.num_qubits())),
            (
                "square-diag",
                Lattice::square_diagonal(
                    Lattice::triangular_for(program.num_qubits()).rows(),
                    Lattice::triangular_for(program.num_qubits()).cols(),
                ),
            ),
        ] {
            let mapped = map_circuit(&program, &lattice, &MappingOptions::optimized());
            rows.push(Row {
                workload: spec.name.to_string(),
                technique: label.to_string(),
                metrics: metrics(&[
                    ("total_pulses", mapped.total_pulses() as f64),
                    ("depth_pulses", mapped.depth_pulses() as f64),
                ]),
            });
        }
    }
    print_rows("Ablation 3: lattice topology restriction pressure", &rows);
    all_rows.append(&mut rows);

    // --- Ablation 4: 3-qubit vs 4-qubit block composability ---------
    // The paper's Fig. 7 argument quantified: identical annealing
    // budgets against matched-depth random block unitaries.
    let budget_iters = 200;
    let epsilon = 1e-3;
    let samples = 6u64;
    let mut ok3 = 0usize;
    let mut ok4 = 0usize;
    let mut evals3 = 0usize;
    let mut evals4 = 0usize;
    for s in 0..samples {
        // Three-qubit target: 2 entanglers + walls (exact parameters
        // exist by construction, so convergence is purely a search
        // question).
        let a3 = geyser_compose::Ansatz::new(2);
        let p3: Vec<f64> = (0..a3.num_params())
            .map(|i| ((i as u64 * 137 + s * 31) % 628) as f64 / 100.0)
            .collect();
        let target3 = a3.unitary(&p3);
        let b3 = geyser_optimize::Bounds::new(&a3.bounds());
        let obj3 = |p: &[f64]| geyser_num::hilbert_schmidt_distance(&a3.unitary(p), &target3);
        let r3 = geyser_optimize::dual_annealing(
            &obj3,
            &b3,
            &geyser_optimize::DualAnnealingConfig::default()
                .with_seed(s)
                .with_max_iters(budget_iters)
                .with_target(epsilon * 0.5),
        );
        evals3 += r3.evaluations;
        if r3.fx <= epsilon {
            ok3 += 1;
        }
        // Four-qubit target of the same layer depth.
        let a4 = geyser_compose::QuadAnsatz::new(2);
        let p4: Vec<f64> = (0..a4.num_params())
            .map(|i| ((i as u64 * 137 + s * 31) % 628) as f64 / 100.0)
            .collect();
        let target4 = a4.unitary(&p4);
        let r4 = geyser_compose::try_compose_quad(&target4, 2, epsilon, budget_iters, s);
        evals4 += r4.evaluations;
        if r4.converged {
            ok4 += 1;
        }
    }
    rows.push(Row {
        workload: "random-2-layer".to_string(),
        technique: "3-qubit".to_string(),
        metrics: metrics(&[
            ("converged", ok3 as f64),
            ("samples", samples as f64),
            ("mean_evals", evals3 as f64 / samples as f64),
        ]),
    });
    rows.push(Row {
        workload: "random-2-layer".to_string(),
        technique: "4-qubit".to_string(),
        metrics: metrics(&[
            ("converged", ok4 as f64),
            ("samples", samples as f64),
            ("mean_evals", evals4 as f64 / samples as f64),
        ]),
    });
    print_rows(
        "Ablation 4: 3q vs 4q block composability at equal budget (paper Fig. 7)",
        &rows,
    );
    all_rows.append(&mut rows);

    maybe_write_json(&cli, &all_rows);
}
