//! The in-process reuse index the composer consults before annealing.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::fingerprint::BlockFingerprint;
use geyser_store::fnv1a_bytes;

/// Version of Algorithm 2's search: bumped whenever a change moves
/// annealer or refine trajectories, so every store keyed on the search
/// (the reuse store here, the bench results cache) stops replaying the
/// old search's outcomes. 1 was the search whose annealing chain ended
/// in a Nelder–Mead polish; 2 runs the chain alone. Lives here because
/// [`reuse_config_hash`] folds it in; `geyser-compose` re-exports it.
pub const SEARCH_VERSION: u32 = 2;

/// Hashes the composition-config fields a reuse entry depends on.
///
/// Binds [`SEARCH_VERSION`], ε, layer cap, annealing budget, restarts,
/// and retry attempts — everything that shapes the annealed
/// parameters. Seed, thread count, and deadline are deliberately
/// excluded: reuse across seeds is the whole point, and threads /
/// deadlines don't change what a converged solution looks like.
pub fn reuse_config_hash(
    epsilon: f64,
    max_layers: usize,
    anneal_iters: usize,
    restarts: usize,
    retry_attempts: usize,
) -> u64 {
    let text = format!(
        "reuse-cfg|search={SEARCH_VERSION}|eps={epsilon:?}|layers={max_layers}|iters={anneal_iters}|restarts={restarts}|retries={retry_attempts}"
    );
    fnv1a_bytes(text.as_bytes())
}

/// A fully-qualified reuse lookup key: the block fingerprint bound to
/// the hardware digest and composition-config hash, so an entry never
/// crosses machines or annealer configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReuseKey {
    /// Canonical block fingerprint.
    pub fingerprint: BlockFingerprint,
    /// `HardwareSpec::digest()` of the machine compiled for.
    pub hardware_digest: u64,
    /// [`reuse_config_hash`] of the composition configuration.
    pub config_hash: u64,
}

impl ReuseKey {
    /// Content digest of the key — the persistent store's file name.
    pub fn digest(&self) -> u64 {
        let (a, b, c) = self.fingerprint.components();
        let mut bytes = Vec::with_capacity(48);
        bytes.extend_from_slice(self.fingerprint.kind_label().as_bytes());
        for v in [a, b, c] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&self.hardware_digest.to_le_bytes());
        bytes.extend_from_slice(&self.config_hash.to_le_bytes());
        fnv1a_bytes(&bytes)
    }
}

/// What the original composition of a fingerprint concluded.
///
/// Negative outcomes are cached too: a block whose annealing never
/// converged, failed final ε re-verification, or was never cheaper
/// than its source pulses will fail the same way for every equal
/// unitary, so replaying the fallback skips the most expensive kind
/// of annealing — the kind that burns the whole budget and converges
/// to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseOutcome {
    /// Annealing found an accepted, cheaper composition.
    Composed,
    /// Every candidate ansatz was at least as expensive as the
    /// source block; no annealing needed.
    NotCheaper,
    /// A candidate met ε inside the optimizer but failed the final
    /// re-verification.
    EpsilonRejected,
    /// No candidate met ε within the annealing budget across all
    /// retries. Cached so an equal block skips the most expensive
    /// search of all — the one that burns the full budget (including
    /// backoff retries) and produces nothing. Replaying the failure
    /// trades a slim chance of a differently-seeded success for the
    /// whole budget back; the fallback pulses are always correct.
    NonConvergent,
}

impl ReuseOutcome {
    /// Stable serialization label.
    pub fn label(&self) -> &'static str {
        match self {
            ReuseOutcome::Composed => "composed",
            ReuseOutcome::NotCheaper => "not-cheaper",
            ReuseOutcome::EpsilonRejected => "epsilon-rejected",
            ReuseOutcome::NonConvergent => "non-convergent",
        }
    }

    /// Parses a serialization label.
    pub fn from_label(label: &str) -> Option<ReuseOutcome> {
        match label {
            "composed" => Some(ReuseOutcome::Composed),
            "not-cheaper" => Some(ReuseOutcome::NotCheaper),
            "epsilon-rejected" => Some(ReuseOutcome::EpsilonRejected),
            "non-convergent" => Some(ReuseOutcome::NonConvergent),
            _ => None,
        }
    }
}

/// One cached composition result.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseEntry {
    /// What the original composition concluded.
    pub outcome: ReuseOutcome,
    /// Annealed ansatz parameters ([`ReuseOutcome::Composed`] only;
    /// empty otherwise).
    pub params: Vec<f64>,
    /// Ansatz layer count the parameters belong to.
    pub layers: usize,
    /// Hilbert-Schmidt distance the original verification measured.
    pub hsd: f64,
    /// Annealer objective evaluations the original composition spent
    /// — the cost a replay saves.
    pub evaluations: u64,
}

/// Reuse accounting for one compile, reported on `CompileReport` and
/// mirrored to telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Blocks that were fingerprinted for reuse (triangle blocks not
    /// restored from `prior` results).
    pub blocks_fingerprinted: u64,
    /// Blocks resolved by replaying a cached entry (in-process or
    /// from the persistent store), annealing skipped.
    pub exact_hits: u64,
    /// Replays rejected by the ε re-verification gate; the block fell
    /// through to a fresh annealing run.
    pub exact_hits_rejected: u64,
    /// Blocks whose annealer was warm-started from a near-miss
    /// (coarse-fingerprint) entry with a reduced iteration budget.
    pub warm_starts: u64,
    /// Annealer objective evaluations saved by exact hits (the sum of
    /// the replayed entries' original costs).
    pub evals_saved: u64,
    /// Fresh composition outcomes published into the session index.
    pub entries_published: u64,
    /// Entries loaded from the persistent store.
    pub store_entries_loaded: u64,
    /// Store entries skipped because their hardware/config digests
    /// belong to another configuration.
    pub store_entries_stale: u64,
    /// New entries written back to the persistent store.
    pub store_entries_saved: u64,
    /// Replays accepted *without* ε re-verification. Always zero
    /// unless the `reuse-skip-verify` fault is injected; the reuse
    /// integration tests assert it stays zero on a clean compile.
    pub unverified_replays: u64,
}

impl ReuseStats {
    /// Folds another run's counters into this one.
    pub fn absorb(&mut self, other: &ReuseStats) {
        self.blocks_fingerprinted += other.blocks_fingerprinted;
        self.exact_hits += other.exact_hits;
        self.exact_hits_rejected += other.exact_hits_rejected;
        self.warm_starts += other.warm_starts;
        self.evals_saved += other.evals_saved;
        self.entries_published += other.entries_published;
        self.store_entries_loaded += other.store_entries_loaded;
        self.store_entries_stale += other.store_entries_stale;
        self.store_entries_saved += other.store_entries_saved;
        self.unverified_replays += other.unverified_replays;
    }
}

/// The per-compile reuse session: exact and coarse indexes, fault
/// switches, and accounting.
///
/// The composer drives it in two serial phases around the parallel
/// block waves — fingerprint + plan before composing, publish after —
/// so sessions never need internal locking and results stay
/// deterministic across thread counts.
#[derive(Debug, Clone)]
pub struct ReuseSession {
    hardware_digest: u64,
    config_hash: u64,
    warm_start: bool,
    skip_verify: bool,
    exact: HashMap<ReuseKey, ReuseEntry>,
    coarse: HashMap<ReuseKey, (Vec<f64>, usize)>,
    /// Keys published this run, in block order, with the coarse
    /// fingerprint needed to persist them.
    dirty: Vec<(ReuseKey, Option<BlockFingerprint>)>,
    /// Reuse accounting for this session.
    pub stats: ReuseStats,
}

impl ReuseSession {
    /// An empty session bound to a machine + composition config.
    pub fn new(hardware_digest: u64, config_hash: u64) -> Self {
        ReuseSession {
            hardware_digest,
            config_hash,
            warm_start: false,
            skip_verify: false,
            exact: HashMap::new(),
            coarse: HashMap::new(),
            dirty: Vec::new(),
            stats: ReuseStats::default(),
        }
    }

    /// Enables near-miss annealer warm-starts.
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// FAULT INJECTION ONLY: disables the ε re-verification gate on
    /// replays so a poisoned store entry escapes into the output (and
    /// shows in the nonzero `unverified_replays` counter).
    pub fn with_skip_verify_fault(mut self, on: bool) -> Self {
        self.skip_verify = on;
        self
    }

    /// Whether near-miss warm-starts are enabled.
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// Whether the `reuse-skip-verify` fault is active.
    pub fn skip_verify(&self) -> bool {
        self.skip_verify
    }

    /// Hardware digest this session is bound to.
    pub fn hardware_digest(&self) -> u64 {
        self.hardware_digest
    }

    /// Composition-config hash this session is bound to.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Qualifies a fingerprint with this session's binding.
    pub fn key(&self, fingerprint: BlockFingerprint) -> ReuseKey {
        ReuseKey {
            fingerprint,
            hardware_digest: self.hardware_digest,
            config_hash: self.config_hash,
        }
    }

    /// Exact-index lookup.
    pub fn lookup(&self, fingerprint: BlockFingerprint) -> Option<&ReuseEntry> {
        self.exact.get(&self.key(fingerprint))
    }

    /// Coarse-index lookup: cached parameters + layer count for a
    /// near-miss warm start.
    pub fn lookup_coarse(&self, coarse: BlockFingerprint) -> Option<(&[f64], usize)> {
        self.coarse
            .get(&self.key(coarse))
            .map(|(p, l)| (p.as_slice(), *l))
    }

    /// Number of exact entries currently indexed.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// Whether the exact index is empty.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }

    /// Records a fresh composition outcome under `fingerprint` and
    /// marks it for persistence. Composed entries also feed the
    /// coarse (warm-start) index.
    pub fn publish(
        &mut self,
        fingerprint: BlockFingerprint,
        coarse: Option<BlockFingerprint>,
        entry: ReuseEntry,
    ) {
        let key = self.key(fingerprint);
        if self.exact.contains_key(&key) {
            return;
        }
        if entry.outcome == ReuseOutcome::Composed {
            if let Some(cf) = coarse {
                self.coarse
                    .entry(self.key(cf))
                    .or_insert_with(|| (entry.params.clone(), entry.layers));
            }
        }
        self.exact.insert(key, entry);
        self.dirty.push((key, coarse));
        self.stats.entries_published += 1;
    }

    /// Inserts an entry loaded from the persistent store (not marked
    /// dirty — it is already on disk).
    pub fn insert_loaded(
        &mut self,
        key: ReuseKey,
        coarse: Option<BlockFingerprint>,
        entry: ReuseEntry,
    ) {
        if key.hardware_digest != self.hardware_digest || key.config_hash != self.config_hash {
            self.stats.store_entries_stale += 1;
            return;
        }
        if entry.outcome == ReuseOutcome::Composed {
            if let Some(cf) = coarse {
                self.coarse
                    .entry(self.key(cf))
                    .or_insert_with(|| (entry.params.clone(), entry.layers));
            }
        }
        self.exact.entry(key).or_insert(entry);
        self.stats.store_entries_loaded += 1;
    }

    /// Keys published this run (in block order) with their coarse
    /// fingerprints — the persistence work list.
    pub fn dirty(&self) -> &[(ReuseKey, Option<BlockFingerprint>)] {
        &self.dirty
    }

    /// Fetches an entry by fully-qualified key.
    pub fn get(&self, key: &ReuseKey) -> Option<&ReuseEntry> {
        self.exact.get(key)
    }

    /// FAULT INJECTION ONLY: deterministically corrupts the parameters of every
    /// indexed composed entry, simulating a stale or bit-rotted store
    /// whose frames still verify. The ε re-verification gate must
    /// reject every poisoned replay.
    pub fn poison_entries(&mut self) {
        for entry in self.exact.values_mut() {
            if entry.outcome == ReuseOutcome::Composed {
                for (i, p) in entry.params.iter_mut().enumerate() {
                    *p += 1.0 + 0.37 * (i % 5) as f64;
                }
            }
        }
        for (params, _) in self.coarse.values_mut() {
            for (i, p) in params.iter_mut().enumerate() {
                *p += 1.0 + 0.37 * (i % 5) as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(digest: u64) -> BlockFingerprint {
        BlockFingerprint::Canonical { dim: 8, digest }
    }

    fn entry(outcome: ReuseOutcome) -> ReuseEntry {
        ReuseEntry {
            outcome,
            params: vec![0.1, 0.2, 0.3],
            layers: 1,
            hsd: 1e-5,
            evaluations: 1234,
        }
    }

    #[test]
    fn publish_then_lookup_roundtrips() {
        let mut s = ReuseSession::new(7, 9);
        assert!(s.lookup(fp(1)).is_none());
        s.publish(fp(1), Some(fp(100)), entry(ReuseOutcome::Composed));
        assert_eq!(s.lookup(fp(1)).unwrap().evaluations, 1234);
        assert!(s.lookup_coarse(fp(100)).is_some());
        assert_eq!(s.dirty().len(), 1);
        assert_eq!(s.stats.entries_published, 1);
    }

    #[test]
    fn stale_loaded_entries_are_counted_not_indexed() {
        let mut s = ReuseSession::new(7, 9);
        let foreign = ReuseKey {
            fingerprint: fp(1),
            hardware_digest: 8,
            config_hash: 9,
        };
        s.insert_loaded(foreign, None, entry(ReuseOutcome::Composed));
        assert!(s.is_empty());
        assert_eq!(s.stats.store_entries_stale, 1);
        let native = ReuseKey {
            fingerprint: fp(1),
            hardware_digest: 7,
            config_hash: 9,
        };
        s.insert_loaded(native, None, entry(ReuseOutcome::Composed));
        assert_eq!(s.len(), 1);
        assert_eq!(s.stats.store_entries_loaded, 1);
    }

    #[test]
    fn negative_outcomes_do_not_feed_coarse_index() {
        let mut s = ReuseSession::new(0, 0);
        s.publish(fp(2), Some(fp(200)), entry(ReuseOutcome::EpsilonRejected));
        assert!(s.lookup(fp(2)).is_some());
        assert!(s.lookup_coarse(fp(200)).is_none());
    }

    #[test]
    fn poison_changes_composed_params() {
        let mut s = ReuseSession::new(0, 0);
        s.publish(fp(3), None, entry(ReuseOutcome::Composed));
        let before = s.lookup(fp(3)).unwrap().params.clone();
        s.poison_entries();
        assert_ne!(s.lookup(fp(3)).unwrap().params, before);
    }

    #[test]
    fn key_digest_separates_bindings() {
        let a = ReuseKey {
            fingerprint: fp(1),
            hardware_digest: 1,
            config_hash: 2,
        };
        let mut b = a;
        b.hardware_digest = 3;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn config_hash_ignores_seed_like_fields() {
        // Same knobs → same hash; any knob change → different hash.
        let h = reuse_config_hash(1e-3, 3, 220, 3, 1);
        assert_eq!(h, reuse_config_hash(1e-3, 3, 220, 3, 1));
        assert_ne!(h, reuse_config_hash(1e-3, 2, 220, 3, 1));
        assert_ne!(h, reuse_config_hash(1e-4, 3, 220, 3, 1));
    }
}
