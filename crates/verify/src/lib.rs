//! Differential verification for the Geyser framework.
//!
//! The pipeline's value claim is that compilation preserves circuit
//! semantics while reducing pulses; this crate is the independent
//! check of that claim, plus the tooling that hunts for violations:
//!
//! * [`oracle`] — the equivalence oracle. Exact isometry comparison
//!   (up to global phase) for small circuits, seeded random
//!   state-vector probing for larger ones, and the shared
//!   block-candidate ε check the composer uses.
//! * [`fuzz`] — a seeded structured circuit fuzzer: random circuits
//!   over the whole gate enum plus mutations of the paper benchmarks.
//! * [`minimize`](mod@minimize) — a deterministic delta-debugging minimizer that
//!   shrinks failing circuits to 1-minimal reproducers.
//! * [`quarantine`] — the on-disk corpus of minimized reproducers
//!   that `replay` re-runs as regression tests.
//! * [`invariants`] — the plain-data global invariants chaos
//!   campaigns hold the compile pipeline to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod invariants;
pub mod minimize;
pub mod oracle;
pub mod quarantine;

pub use fuzz::{derive_seed, generate_case, generate_cases, FuzzCase, FuzzOptions};
pub use invariants::{
    check_campaign_jobs, check_reuse, ChaosInvariant, InvariantViolation, JobObservation,
    ReuseObservation,
};
pub use minimize::{minimize, MinimizeStats};
pub use oracle::{
    composition_allowance, verify_block_candidate, verify_circuits, verify_embedded, verify_mapped,
    BlockCheck, Embedding, EquivalenceReport, VerifyConfig, VerifyMethod,
};
pub use quarantine::{entry_path, load_entries, write_entry, QuarantineEntry};
