//! Machine-checked global invariants for chaos campaigns.
//!
//! A chaos campaign throws randomized fault compositions at the
//! compile pipeline and then asks: *did the system as a whole hold
//! its promises?* Those promises are encoded here as plain-data
//! invariants over plain-data observations, so the checks are
//! independent of the pipeline's internal types and trivially
//! serializable into the campaign scorecard.
//!
//! The invariants, in the order they are checked:
//!
//! 1. [`ChaosInvariant::VerifiedEquivalent`] — every successful
//!    compile passed the equivalence oracle. A fault may cost a
//!    compile (a typed error) or a composition (a fallback block),
//!    never correctness.
//! 2. [`ChaosInvariant::ReuseVerified`] — checked by [`check_reuse`]
//!    on compiles with the composition-reuse index enabled: every
//!    replayed (reused) composition went back through the ε
//!    re-verification gate, and any compile that replayed cached
//!    compositions still passes the equivalence oracle. A stale or
//!    poisoned store entry may cost a recomposition, never
//!    correctness.

use serde::{Deserialize, Serialize};

/// The global promises a chaos campaign holds the pipeline to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosInvariant {
    /// Every successful compile passed the equivalence oracle.
    VerifiedEquivalent,
    /// Every reused composition passed back through the ε
    /// re-verification gate, and reuse-assisted compiles still pass
    /// the equivalence oracle.
    ReuseVerified,
}

impl ChaosInvariant {
    /// Stable machine-readable label (used in scorecards and CI
    /// greps).
    pub fn label(&self) -> &'static str {
        match self {
            ChaosInvariant::VerifiedEquivalent => "verified-equivalent",
            ChaosInvariant::ReuseVerified => "reuse-verified",
        }
    }
}

impl std::fmt::Display for ChaosInvariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One violated invariant with enough context to reproduce it.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct InvariantViolation {
    /// [`ChaosInvariant::label`] of the violated invariant.
    pub invariant: String,
    /// What exactly went wrong (job id, file path, ...).
    pub detail: String,
}

impl InvariantViolation {
    /// Builds a violation record for `invariant` with a reproduction
    /// detail string. Public so harnesses can report campaign-level
    /// findings (e.g. an inert reuse leg) under the same labels the
    /// per-job checkers use.
    pub fn new(invariant: ChaosInvariant, detail: String) -> Self {
        InvariantViolation {
            invariant: invariant.label().to_string(),
            detail,
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant '{}' violated: {}",
            self.invariant, self.detail
        )
    }
}

/// What one campaign compile produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobObservation {
    /// Workload label (for reproduction).
    pub workload: String,
    /// Technique label.
    pub technique: String,
    /// The typed error the compile ended with, rendered; `None` when
    /// it produced a circuit.
    pub error: Option<String>,
    /// Oracle verdict for a compiled circuit; `None` when the compile
    /// produced no circuit (or verification was skipped, which chaos
    /// never does for a compiled circuit).
    pub verified_equivalent: Option<bool>,
}

/// Checks the job-level invariant (1) over one campaign's compiles.
pub fn check_campaign_jobs(jobs: &[JobObservation]) -> Vec<InvariantViolation> {
    jobs.iter()
        .filter(|job| job.error.is_none())
        .filter_map(|job| {
            let tag = format!("job {}/{}", job.workload, job.technique);
            match job.verified_equivalent {
                Some(true) => None,
                Some(false) => Some(format!("{tag} failed the equivalence oracle")),
                None => Some(format!("{tag} was never verified")),
            }
        })
        .map(|detail| InvariantViolation::new(ChaosInvariant::VerifiedEquivalent, detail))
        .collect()
}

/// What one reuse-enabled compile looked like after it drained — a
/// plain-data mirror of the pipeline's `ReuseStats` plus the oracle's
/// verdict on the finished circuit (this crate sits below the reuse
/// crate in the dependency graph, so the harness copies the counters
/// over).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ReuseObservation {
    /// Blocks whose fingerprints were consulted against the index.
    pub blocks_fingerprinted: u64,
    /// Exact-fingerprint hits that replayed a cached composition.
    pub exact_hits: u64,
    /// Replayed compositions that skipped the ε re-verification gate.
    /// The gate is unconditional in a healthy runtime, so anything
    /// non-zero is an invariant violation by construction.
    pub unverified_replays: u64,
    /// Oracle verdict on the finished circuit; `None` when the
    /// harness never verified it.
    pub verified_equivalent: Option<bool>,
}

/// Checks the reuse invariant (2) over one reuse-enabled compile.
pub fn check_reuse(obs: &ReuseObservation) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    if obs.unverified_replays > 0 {
        violations.push(InvariantViolation::new(
            ChaosInvariant::ReuseVerified,
            format!(
                "{} replayed composition(s) skipped the ε re-verification gate",
                obs.unverified_replays
            ),
        ));
    }
    if obs.exact_hits > 0 {
        match obs.verified_equivalent {
            Some(true) => {}
            Some(false) => violations.push(InvariantViolation::new(
                ChaosInvariant::ReuseVerified,
                format!(
                    "a compile that replayed {} cached composition(s) failed the equivalence oracle",
                    obs.exact_hits
                ),
            )),
            None => violations.push(InvariantViolation::new(
                ChaosInvariant::ReuseVerified,
                format!(
                    "a compile that replayed {} cached composition(s) was never verified",
                    obs.exact_hits
                ),
            )),
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(workload: &str) -> JobObservation {
        JobObservation {
            workload: workload.into(),
            technique: "Geyser".into(),
            error: None,
            verified_equivalent: Some(true),
        }
    }

    #[test]
    fn clean_campaign_has_no_violations() {
        let failed = JobObservation {
            error: Some("pass 'block' panicked: injected".into()),
            verified_equivalent: None,
            ..compiled("ghz")
        };
        assert!(check_campaign_jobs(&[compiled("ghz"), failed]).is_empty());
    }

    #[test]
    fn unverified_or_inequivalent_success_is_flagged() {
        let mut unverified = compiled("a");
        unverified.verified_equivalent = None;
        let mut wrong = compiled("b");
        wrong.verified_equivalent = Some(false);
        let v = check_campaign_jobs(&[unverified, wrong]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.invariant == "verified-equivalent"));
        assert!(v[0].detail.contains("never verified"));
        assert!(v[1].detail.contains("job b/Geyser"));
    }

    #[test]
    fn clean_reuse_compile_has_no_violations() {
        let obs = ReuseObservation {
            blocks_fingerprinted: 90,
            exact_hits: 72,
            unverified_replays: 0,
            verified_equivalent: Some(true),
        };
        assert!(check_reuse(&obs).is_empty());
        // No hits at all needs no oracle verdict either.
        let cold = ReuseObservation {
            blocks_fingerprinted: 90,
            exact_hits: 0,
            unverified_replays: 0,
            verified_equivalent: None,
        };
        assert!(check_reuse(&cold).is_empty());
    }

    #[test]
    fn unverified_or_inequivalent_reuse_is_flagged() {
        let skipped = ReuseObservation {
            blocks_fingerprinted: 10,
            exact_hits: 3,
            unverified_replays: 3,
            verified_equivalent: Some(true),
        };
        let v = check_reuse(&skipped);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "reuse-verified");

        let miscompiled = ReuseObservation {
            blocks_fingerprinted: 10,
            exact_hits: 3,
            unverified_replays: 3,
            verified_equivalent: Some(false),
        };
        assert_eq!(check_reuse(&miscompiled).len(), 2);

        let unchecked = ReuseObservation {
            blocks_fingerprinted: 10,
            exact_hits: 1,
            unverified_replays: 0,
            verified_equivalent: None,
        };
        let v = check_reuse(&unchecked);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("never verified"));
        assert_eq!(ChaosInvariant::ReuseVerified.label(), "reuse-verified");
    }

    #[test]
    fn violations_serialize_for_the_scorecard() {
        let v = InvariantViolation {
            invariant: ChaosInvariant::VerifiedEquivalent.label().to_string(),
            detail: "job adder-4/Geyser failed the equivalence oracle".into(),
        };
        let json = serde_json::to_string(&v).unwrap();
        let back: InvariantViolation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        assert!(v.to_string().contains("verified-equivalent"));
    }
}
