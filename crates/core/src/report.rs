//! Per-run instrumentation: what each pass did and what it cost.

use geyser_reuse::ReuseStats;
use serde::{Deserialize, Serialize};

/// Measurements for one pass execution.
///
/// The before/after columns snapshot the pipeline's *current* circuit
/// around the pass: the logical program before mapping, the mapped
/// physical circuit afterwards, and the composed circuit between
/// composition and seam cleanup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassReport {
    /// Pass name (see [`crate::Pass::name`]).
    pub name: String,
    /// Wall-clock seconds spent inside the pass.
    pub seconds: f64,
    /// Physical pulses before the pass ran.
    pub pulses_before: u64,
    /// Physical pulses after the pass ran.
    pub pulses_after: u64,
    /// Gate count before the pass ran.
    pub gates_before: u64,
    /// Gate count after the pass ran.
    pub gates_after: u64,
    /// Critical-path pulse depth before the pass ran.
    pub depth_before: u64,
    /// Critical-path pulse depth after the pass ran.
    pub depth_after: u64,
    /// Blocks rewritten by this pass (composition only).
    pub blocks_composed: Option<u64>,
}

impl PassReport {
    /// Signed pulse change introduced by the pass (negative = saved).
    pub fn pulse_delta(&self) -> i64 {
        self.pulses_after as i64 - self.pulses_before as i64
    }
}

/// What the equivalence oracle measured for one compiled circuit.
///
/// A serializable mirror of `geyser_verify::EquivalenceReport`, kept
/// as plain data so reports and the results cache don't depend on the
/// oracle's internal types.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationStats {
    /// Oracle tier that ran: `exact-unitary`, `state-probes`, or
    /// `structural`.
    pub method: String,
    /// Basis columns (exact tier) or probe states evaluated.
    pub probes: u64,
    /// Smallest fidelity observed; `-1.0` when the structural tier
    /// measured nothing.
    pub worst_fidelity: f64,
    /// Effective threshold: fidelity ≥ 1 − tolerance passes.
    pub tolerance: f64,
    /// Whether the compiled circuit passed the oracle.
    pub equivalent: bool,
    /// Oracle wall-clock seconds.
    pub seconds: f64,
}

/// The full instrumentation record of one [`crate::PassManager`] run.
///
/// Serializable to JSON for the evaluation binaries (`--report PATH`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompileReport {
    /// Label of the technique the pass list implements.
    pub technique: String,
    /// Content digest of the [`geyser_hardware::HardwareSpec`] the
    /// pipeline compiled for (see `HardwareSpec::digest`); `0` when a
    /// report was built outside a pass-manager run.
    pub hardware_digest: u64,
    /// Per-pass measurements in execution order.
    pub passes: Vec<PassReport>,
    /// Whether the wall-clock budget expired mid-pipeline (the run
    /// then degraded instead of completing every pass).
    pub budget_exhausted: bool,
    /// Wall-clock milliseconds left on the budget when the pipeline
    /// finished; `None` when the run was unbudgeted.
    pub budget_remaining_ms: Option<u64>,
    /// Passes skipped because the budget expired, in schedule order.
    pub skipped_passes: Vec<String>,
    /// Composition blocks that kept their original pulses (timeout,
    /// non-convergence, ε-rejection, or not cheaper).
    pub blocks_fell_back: u64,
    /// Composition blocks whose isolated worker panicked.
    pub blocks_failed: u64,
    /// Equivalence-oracle verdict for the compiled circuit; `None`
    /// when verification was not requested.
    pub verification: Option<VerificationStats>,
    /// Composition-reuse accounting (fingerprints, replays,
    /// warm-starts, store traffic); `None` when reuse was disabled.
    pub reuse: Option<ReuseStats>,
}

// Hand-written so reports filed before the reuse subsystem existed
// still load (the derive rejects missing fields): an absent `reuse`
// key deserializes to `None`. Keys no longer declared here, such as
// an older report's `supervision`, are ignored.
impl serde::Deserialize for CompileReport {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        fn or_default<T: serde::Deserialize + Default>(
            value: &serde::Value,
            name: &str,
        ) -> Result<T, serde::Error> {
            match value.get_field(name) {
                Ok(v) => serde::Deserialize::from_value(v),
                Err(_) => Ok(T::default()),
            }
        }
        Ok(CompileReport {
            technique: serde::Deserialize::from_value(value.get_field("technique")?)?,
            hardware_digest: serde::Deserialize::from_value(value.get_field("hardware_digest")?)?,
            passes: serde::Deserialize::from_value(value.get_field("passes")?)?,
            budget_exhausted: serde::Deserialize::from_value(value.get_field("budget_exhausted")?)?,
            budget_remaining_ms: serde::Deserialize::from_value(
                value.get_field("budget_remaining_ms")?,
            )?,
            skipped_passes: serde::Deserialize::from_value(value.get_field("skipped_passes")?)?,
            blocks_fell_back: serde::Deserialize::from_value(value.get_field("blocks_fell_back")?)?,
            blocks_failed: serde::Deserialize::from_value(value.get_field("blocks_failed")?)?,
            verification: serde::Deserialize::from_value(value.get_field("verification")?)?,
            reuse: or_default(value, "reuse")?,
        })
    }
}

impl CompileReport {
    /// Starts an empty report for a technique.
    pub fn new(technique: &str) -> Self {
        CompileReport {
            technique: technique.to_string(),
            hardware_digest: 0,
            passes: Vec::new(),
            budget_exhausted: false,
            budget_remaining_ms: None,
            skipped_passes: Vec::new(),
            blocks_fell_back: 0,
            blocks_failed: 0,
            verification: None,
            reuse: None,
        }
    }

    /// Total wall-clock seconds across all passes.
    pub fn total_seconds(&self) -> f64 {
        self.passes.iter().map(|p| p.seconds).sum()
    }

    /// Signed pulse change across the whole pipeline, from the first
    /// pass's input to the last pass's output.
    pub fn pulse_delta(&self) -> i64 {
        match (self.passes.first(), self.passes.last()) {
            (Some(first), Some(last)) => last.pulses_after as i64 - first.pulses_before as i64,
            _ => 0,
        }
    }

    /// Renders the report as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (cannot happen for this type).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompileReport {
        CompileReport {
            technique: "Geyser".into(),
            hardware_digest: 0x7925_376e_27ff_4848,
            budget_exhausted: false,
            budget_remaining_ms: None,
            skipped_passes: Vec::new(),
            blocks_fell_back: 0,
            blocks_failed: 0,
            verification: None,
            reuse: None,
            passes: vec![
                PassReport {
                    name: "map".into(),
                    seconds: 0.25,
                    pulses_before: 100,
                    pulses_after: 80,
                    gates_before: 60,
                    gates_after: 50,
                    depth_before: 40,
                    depth_after: 30,
                    blocks_composed: None,
                },
                PassReport {
                    name: "compose".into(),
                    seconds: 0.75,
                    pulses_before: 80,
                    pulses_after: 60,
                    gates_before: 50,
                    gates_after: 40,
                    depth_before: 30,
                    depth_after: 25,
                    blocks_composed: Some(4),
                },
            ],
        }
    }

    #[test]
    fn totals_aggregate_passes() {
        let r = sample();
        assert!((r.total_seconds() - 1.0).abs() < 1e-12);
        assert_eq!(r.pulse_delta(), -40);
        assert_eq!(r.passes[1].pulse_delta(), -20);
    }

    #[test]
    fn json_roundtrips() {
        let r = sample();
        let json = r.to_json();
        assert!(json.contains("\"technique\""));
        let back: CompileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_report_has_zero_delta() {
        let r = CompileReport::new("Baseline");
        assert_eq!(r.pulse_delta(), 0);
        assert_eq!(r.total_seconds(), 0.0);
        assert!(!r.budget_exhausted);
        assert!(r.skipped_passes.is_empty());
    }

    #[test]
    fn degraded_report_roundtrips_robustness_fields() {
        let mut r = sample();
        r.budget_exhausted = true;
        r.budget_remaining_ms = Some(0);
        r.skipped_passes = vec!["compose".into(), "seam-cleanup".into()];
        r.blocks_fell_back = 3;
        r.blocks_failed = 1;
        let json = r.to_json();
        assert!(json.contains("\"budget_exhausted\""));
        assert!(json.contains("\"skipped_passes\""));
        let back: CompileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.skipped_passes.len(), 2);
        assert_eq!(back.budget_remaining_ms, Some(0));
    }

    #[test]
    fn verification_stats_roundtrip() {
        let mut r = sample();
        r.verification = Some(VerificationStats {
            method: "exact-unitary".into(),
            probes: 16,
            worst_fidelity: 0.999999999,
            tolerance: 1e-9,
            equivalent: true,
            seconds: 0.02,
        });
        let json = r.to_json();
        assert!(json.contains("\"verification\""));
        assert!(json.contains("\"worst_fidelity\""));
        let back: CompileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let v = back.verification.unwrap();
        assert_eq!(v.method, "exact-unitary");
        assert!(v.equivalent);
    }

    #[test]
    fn reuse_stats_roundtrip() {
        let mut r = sample();
        r.reuse = Some(ReuseStats {
            blocks_fingerprinted: 12,
            exact_hits: 8,
            exact_hits_rejected: 1,
            warm_starts: 2,
            evals_saved: 40_000,
            entries_published: 3,
            store_entries_loaded: 5,
            store_entries_stale: 1,
            store_entries_saved: 3,
            unverified_replays: 0,
        });
        let json = r.to_json();
        assert!(json.contains("\"reuse\""));
        assert!(json.contains("\"evals_saved\""));
        let back: CompileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let s = back.reuse.unwrap();
        assert_eq!(s.exact_hits, 8);
        assert_eq!(s.unverified_replays, 0);
    }

    #[test]
    fn pre_reuse_reports_still_deserialize() {
        // Reports filed before the reuse subsystem existed lack the
        // `reuse` key entirely; the parse must default it to `None`.
        let json = sample().to_json();
        let key = json.find("\"reuse\"").expect("sample serializes reuse");
        let comma = json[..key].rfind(',').expect("reuse is not first");
        let end = key + json[key..].find("null").expect("reuse is null") + "null".len();
        let legacy = format!("{}{}", &json[..comma], &json[end..]);
        assert!(!legacy.contains("\"reuse\""));
        let back: CompileReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.reuse, None);
        assert_eq!(back, sample());
    }

    #[test]
    fn reports_carrying_a_supervision_key_still_deserialize() {
        // Reports written while the supervision runtime existed carry
        // a `supervision` key, `null` for unsupervised runs and an
        // object for supervised ones; the parse ignores it either way.
        let json = sample().to_json();
        let key = json
            .find("\"verification\"")
            .expect("sample serializes verification");
        for value in [
            "null",
            r#"{"attempts": 2, "retries": 1, "backoff_ms": 3, "queue_depth": 0,
                "breaker_state": "closed", "blocks_resumed": 0,
                "resumed_from_checkpoint": false, "hang_preemptions": 0}"#,
        ] {
            let legacy = format!(
                "{}\"supervision\": {value},\n  {}",
                &json[..key],
                &json[key..]
            );
            let back: CompileReport = serde_json::from_str(&legacy).unwrap();
            assert_eq!(back, sample());
        }
    }
}
