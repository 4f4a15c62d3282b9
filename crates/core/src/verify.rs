//! Core-side glue for the `geyser-verify` equivalence oracle.
//!
//! [`verify_compiled`] checks an already-finalized [`CompiledCircuit`]
//! against its source program. It is what `--verify` uses — it sees
//! the circuit exactly as it shipped, including anything a
//! `miscompile:<i>` fault corrupted at finalize time, which no
//! in-pipeline pass can observe.

use geyser_circuit::Circuit;
use geyser_verify::{composition_allowance, verify_mapped, VerifyConfig};

use crate::report::VerificationStats;
use crate::CompiledCircuit;

/// Runs the equivalence oracle on a finalized compilation, returning
/// the verdict as report-ready stats. Never errors: an inequivalent
/// circuit is reported with `equivalent: false`, and the caller
/// decides whether that fails the run.
///
/// Exact pipelines are held to the raw tolerance; composed ones get
/// the triangle-inequality allowance of [`composition_allowance`].
pub fn verify_compiled(
    program: &Circuit,
    compiled: &CompiledCircuit,
    cfg: &VerifyConfig,
) -> VerificationStats {
    let allowance = compiled
        .composition_stats()
        .map(|s| composition_allowance(s.blocks_composed, s.max_accepted_hsd))
        .unwrap_or(0.0);
    let report = verify_mapped(program, compiled.mapped(), allowance, cfg);
    VerificationStats {
        method: report.method.label().to_string(),
        probes: report.probes,
        worst_fidelity: report.worst_fidelity,
        tolerance: report.tolerance,
        equivalent: report.equivalent,
        seconds: report.seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_compile, FaultInjector, PassManager, PipelineConfig, Technique};

    fn program() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 3);
        c
    }

    #[test]
    fn exact_pipelines_verify_at_strict_tolerance() {
        let cfg = PipelineConfig::fast();
        for technique in [
            Technique::Baseline,
            Technique::OptiMap,
            Technique::Superconducting,
        ] {
            let compiled = try_compile(&program(), technique, &cfg).unwrap();
            let stats = verify_compiled(&program(), &compiled, &VerifyConfig::default());
            assert!(
                stats.equivalent,
                "{technique:?}: {stats:?} should verify exactly"
            );
            assert!(
                stats.worst_fidelity >= 1.0 - 1e-9,
                "{technique:?}: {stats:?}"
            );
        }
    }

    #[test]
    fn composed_pipeline_verifies_within_allowance() {
        let cfg = PipelineConfig::fast();
        let compiled = try_compile(&program(), Technique::Geyser, &cfg).unwrap();
        let stats = verify_compiled(&program(), &compiled, &VerifyConfig::default());
        assert!(stats.equivalent, "{stats:?}");
    }

    #[test]
    fn injected_miscompile_is_caught_only_by_the_oracle() {
        let cfg = PipelineConfig::fast();
        let faults = FaultInjector::parse("miscompile:0").unwrap();
        // The corrupted run itself succeeds — every internal check
        // passes because the corruption lands after all of them.
        let compiled = PassManager::for_technique(Technique::Baseline)
            .with_faults(faults)
            .run(&program(), &cfg)
            .unwrap();
        let stats = verify_compiled(&program(), &compiled, &VerifyConfig::default());
        assert!(!stats.equivalent, "oracle must catch the miscompile");
        assert!(stats.worst_fidelity < 1.0 - 1e-6, "{stats:?}");
    }
}
