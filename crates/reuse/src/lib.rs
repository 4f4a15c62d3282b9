//! Block-equivalence fingerprinting and composition reuse.
//!
//! Geyser's dominant cost is dual-annealing every three-qubit block
//! independently, yet structured workloads (QAOA, VQE, Trotterized
//! Heisenberg) repeat the same layer structure dozens of times. This
//! crate recognizes that two blocks — within one job or across jobs —
//! need the *same* composition, and replays or warm-starts the cached
//! answer instead of annealing from scratch:
//!
//! * [`fingerprint`] — canonical block fingerprints: the quantized
//!   Makhlin invariant pair for two-qubit unitaries (a true
//!   local-equivalence class) and a phase-fixed, tolerance-bucketed
//!   canonical-form digest for three-qubit blocks (an exact-replay
//!   key up to global phase).
//! * [`index`] — the in-process [`ReuseSession`] the composer
//!   consults before annealing: an exact hit replays the cached
//!   ansatz parameters after an ε re-verification through the shared
//!   oracle, a near-miss (coarse-fingerprint) hit warm-starts the
//!   annealer from the cached parameters with a reduced budget.
//! * [`persist`] — the cross-job reuse store: per-entry digest-keyed
//!   `reuse-*.json` files on the crash-safe `GEYSREC1` record layer
//!   (atomic writes, corrupt-entry quarantine, stale-digest
//!   filtering), so compositions are amortized across jobs and
//!   processes.
//!
//! Every key binds the fingerprint to the hardware digest and a
//! composition-config hash: a reuse entry never crosses machines or
//! annealer configurations. Replayed compositions are *always*
//! re-verified against the block's own unitary before acceptance —
//! reuse is an optimization, never a correctness assumption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod index;
pub mod persist;

pub use fingerprint::{
    canonical_digest, quantize, BlockFingerprint, COARSE_TOL_FACTOR, FINGERPRINT_TOL,
};
pub use index::{
    reuse_config_hash, ReuseEntry, ReuseKey, ReuseOutcome, ReuseSession, ReuseStats, SEARCH_VERSION,
};
pub use persist::{
    is_reuse_entry, load_reuse_dir, parse_reuse_record, reuse_entry_path, save_reuse_dir,
    LoadedReuse, ReuseRecord, REUSE_FILE_PREFIX, REUSE_VERSION,
};
