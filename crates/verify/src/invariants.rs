//! Machine-checked global invariants for chaos campaigns.
//!
//! A chaos campaign throws randomized fault compositions at the
//! supervised runtime and then asks: *did the system as a whole hold
//! its promises?* Those promises are encoded here as plain-data
//! invariants over plain-data observations, so the checks are
//! independent of the supervisor's internal types (this crate sits
//! below the supervisor in the dependency graph) and trivially
//! serializable into the campaign scorecard.
//!
//! The invariants, in the order they are checked:
//!
//! 1. [`ChaosInvariant::NoJobLost`] — every submitted job produced a
//!    terminal result; none vanished.
//! 2. [`ChaosInvariant::OutcomeClassified`] — every terminal job is in
//!    a recognized state, successful jobs carry a circuit, and
//!    unsuccessful ones carry a typed error.
//! 3. [`ChaosInvariant::VerifiedEquivalent`] — every successful
//!    compile passed the equivalence oracle.
//! 4. [`ChaosInvariant::ResumeBitIdentical`] — every resumed job's
//!    output matched the uninjected reference bit for bit.
//! 5. [`ChaosInvariant::StoreParsesOrQuarantined`] — every surviving
//!    store file either parses or was quarantined to a
//!    `.corrupt-<digest>` sidecar; no corrupt file was left in place.
//!
//! Campaigns that compile with the composition-reuse index enabled
//! hold the reuse layer to one more, checked by [`check_reuse`]:
//!
//! 6. [`ChaosInvariant::ReuseVerified`] — every replayed (reused)
//!    composition went back through the ε re-verification gate, and
//!    any compile that replayed cached compositions still passes the
//!    equivalence oracle. A stale or poisoned store entry may cost a
//!    recomposition, never correctness.

use serde::{Deserialize, Serialize};

/// The global promises a chaos campaign holds the runtime to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosInvariant {
    /// Every submitted job reached a terminal result.
    NoJobLost,
    /// Every terminal job has a classified outcome: a recognized
    /// state, a circuit iff successful, a typed error iff not.
    OutcomeClassified,
    /// Every successful compile passed the equivalence oracle.
    VerifiedEquivalent,
    /// Every checkpoint resume completed bit-identical to an
    /// uninterrupted run.
    ResumeBitIdentical,
    /// Every store file parses or was quarantined; none was left
    /// corrupt in place.
    StoreParsesOrQuarantined,
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
            ChaosInvariant::NoJobLost => "no-job-lost",
            ChaosInvariant::OutcomeClassified => "outcome-classified",
            ChaosInvariant::VerifiedEquivalent => "verified-equivalent",
            ChaosInvariant::ResumeBitIdentical => "resume-bit-identical",
            ChaosInvariant::StoreParsesOrQuarantined => "store-parses-or-quarantined",
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
    /// findings (e.g. a completed-set diff) under the same labels the
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

/// What one job looked like after the campaign drained — a plain-data
/// mirror of the supervisor's job result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobObservation {
    /// Supervisor job id.
    pub id: u64,
    /// Workload label (for reproduction).
    pub workload: String,
    /// Terminal state label: `done`, `failed`, `cancelled`, `broken`.
    pub state: String,
    /// Whether the result carried a compiled circuit.
    pub has_circuit: bool,
    /// Whether the result carried a typed error.
    pub has_error: bool,
    /// Attempts the job consumed.
    pub attempts: u64,
    /// Oracle verdict for a successful compile; `None` when the job
    /// did not produce a circuit (or verification was skipped, which
    /// chaos never does for `done` jobs).
    pub verified_equivalent: Option<bool>,
    /// For jobs re-run from a checkpoint: whether the resumed output
    /// matched the uninjected reference bit for bit. `None` when the
    /// job was not a resume case.
    pub resume_bit_identical: Option<bool>,
}

/// How one surviving store file scanned after the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreFileStatus {
    /// Frame verified and payload parsed.
    Parsed,
    /// A `.corrupt-<digest>` sidecar — corruption that was detected
    /// and moved aside, exactly as promised.
    Quarantined,
    /// A stale `.tmp` from an interrupted write — benign, the next
    /// write overwrites it.
    StaleTmp,
    /// A corrupt file still sitting at its primary path: the
    /// quarantine promise was broken.
    CorruptInPlace,
}

/// One scanned store file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreFileObservation {
    /// Path relative to the campaign's store root.
    pub path: String,
    /// What the scan found.
    pub status: StoreFileStatus,
}

/// Checks the job-level invariants (1–4) over one campaign's drained
/// results. `submitted` is how many jobs the campaign pushed in;
/// `jobs` is what came back.
pub fn check_campaign_jobs(submitted: u64, jobs: &[JobObservation]) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    if jobs.len() as u64 != submitted {
        violations.push(InvariantViolation::new(
            ChaosInvariant::NoJobLost,
            format!(
                "submitted {submitted} jobs but {} reached a terminal state",
                jobs.len()
            ),
        ));
    }
    for job in jobs {
        let tag = format!("job {} ({}, state={})", job.id, job.workload, job.state);
        match job.state.as_str() {
            "done" => {
                if !job.has_circuit {
                    violations.push(InvariantViolation::new(
                        ChaosInvariant::OutcomeClassified,
                        format!("{tag} succeeded without a circuit"),
                    ));
                }
                if job.has_error {
                    violations.push(InvariantViolation::new(
                        ChaosInvariant::OutcomeClassified,
                        format!("{tag} succeeded but carries an error"),
                    ));
                }
                match job.verified_equivalent {
                    Some(true) => {}
                    Some(false) => violations.push(InvariantViolation::new(
                        ChaosInvariant::VerifiedEquivalent,
                        format!("{tag} failed the equivalence oracle"),
                    )),
                    None => violations.push(InvariantViolation::new(
                        ChaosInvariant::VerifiedEquivalent,
                        format!("{tag} was never verified"),
                    )),
                }
            }
            "failed" | "cancelled" => {
                if !job.has_error {
                    violations.push(InvariantViolation::new(
                        ChaosInvariant::OutcomeClassified,
                        format!("{tag} terminated without a typed error"),
                    ));
                }
                if job.has_circuit {
                    violations.push(InvariantViolation::new(
                        ChaosInvariant::OutcomeClassified,
                        format!("{tag} failed but still carries a circuit"),
                    ));
                }
            }
            // A broken job was bounced by an open breaker before any
            // attempt; it carries neither circuit nor error by design.
            "broken" => {}
            other => violations.push(InvariantViolation::new(
                ChaosInvariant::OutcomeClassified,
                format!("job {} in unrecognized terminal state '{other}'", job.id),
            )),
        }
        if job.resume_bit_identical == Some(false) {
            violations.push(InvariantViolation::new(
                ChaosInvariant::ResumeBitIdentical,
                format!("{tag} resumed to a different circuit than the uninjected reference"),
            ));
        }
    }
    violations
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

/// Checks the reuse invariant (6) over one reuse-enabled compile.
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

/// Checks the store invariant (5) over a post-campaign scan of the
/// store directory.
pub fn check_store_scan(files: &[StoreFileObservation]) -> Vec<InvariantViolation> {
    files
        .iter()
        .filter(|f| f.status == StoreFileStatus::CorruptInPlace)
        .map(|f| {
            InvariantViolation::new(
                ChaosInvariant::StoreParsesOrQuarantined,
                format!("corrupt store file left in place: {}", f.path),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(id: u64) -> JobObservation {
        JobObservation {
            id,
            workload: "ghz".into(),
            state: "done".into(),
            has_circuit: true,
            has_error: false,
            attempts: 1,
            verified_equivalent: Some(true),
            resume_bit_identical: None,
        }
    }

    #[test]
    fn clean_campaign_has_no_violations() {
        let jobs = vec![done(0), done(1)];
        assert!(check_campaign_jobs(2, &jobs).is_empty());
        let files = vec![
            StoreFileObservation {
                path: "a.json".into(),
                status: StoreFileStatus::Parsed,
            },
            StoreFileObservation {
                path: "b.json.corrupt-0123".into(),
                status: StoreFileStatus::Quarantined,
            },
        ];
        assert!(check_store_scan(&files).is_empty());
    }

    #[test]
    fn lost_job_is_flagged() {
        let v = check_campaign_jobs(3, &[done(0), done(1)]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "no-job-lost");
    }

    #[test]
    fn unverified_or_inequivalent_success_is_flagged() {
        let mut unverified = done(0);
        unverified.verified_equivalent = None;
        let mut wrong = done(1);
        wrong.verified_equivalent = Some(false);
        let v = check_campaign_jobs(2, &[unverified, wrong]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.invariant == "verified-equivalent"));
    }

    #[test]
    fn misclassified_terminals_are_flagged() {
        let mut no_error = done(0);
        no_error.state = "failed".into();
        no_error.has_circuit = false;
        no_error.has_error = false;
        let mut weird = done(1);
        weird.state = "vanished".into();
        let v = check_campaign_jobs(2, &[no_error, weird]);
        assert!(v.iter().any(|x| x.detail.contains("typed error")));
        assert!(v.iter().any(|x| x.detail.contains("unrecognized")));
        assert!(v.iter().all(|x| x.invariant == "outcome-classified"));
    }

    #[test]
    fn resume_divergence_is_flagged() {
        let mut diverged = done(0);
        diverged.resume_bit_identical = Some(false);
        let v = check_campaign_jobs(1, &[diverged]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "resume-bit-identical");
    }

    #[test]
    fn corrupt_in_place_store_file_is_flagged() {
        let files = vec![StoreFileObservation {
            path: "ckpt-ghz.json".into(),
            status: StoreFileStatus::CorruptInPlace,
        }];
        let v = check_store_scan(&files);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "store-parses-or-quarantined");
        assert!(v[0].detail.contains("ckpt-ghz.json"));
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
            invariant: ChaosInvariant::NoJobLost.label().to_string(),
            detail: "submitted 3, drained 2".into(),
        };
        let json = serde_json::to_string(&v).unwrap();
        let back: InvariantViolation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        assert!(v.to_string().contains("no-job-lost"));
    }
}
