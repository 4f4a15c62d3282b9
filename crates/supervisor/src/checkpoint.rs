//! Crash-safe checkpointing of per-block composition results.
//!
//! Composition dominates compile time, and its per-block results are
//! independent (each block derives its seed from `(config.seed,
//! block index)`), so they are the natural checkpoint grain: every
//! freshly composed block is appended to a JSON checkpoint written
//! with the classic temp-file + atomic-rename dance. A run killed at
//! any instant leaves either the previous complete checkpoint or the
//! new complete checkpoint on disk — never a torn file — and a
//! `--resume` run restores the recorded blocks verbatim, finishing
//! bit-identical to an uninterrupted run.
//!
//! A checkpoint is bound to its run by a fingerprint of the blocked
//! circuit's source and the composition seed; a stale or corrupt file
//! is detected at load time and the run starts fresh.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use geyser::store::{
    fnv1a_bytes, framed, load_record_quarantining, read_checked, write_record_atomic,
    RecordPayload, StoreReadError,
};
use geyser::{CancelToken, Telemetry};
use geyser_circuit::Circuit;
use geyser_compose::{
    BlockObserver, BlockOutcome, CompositionConfig, CompositionResult, FallbackReason,
};
use serde::{Deserialize, Serialize};

/// On-disk format version; bumped on incompatible layout changes.
/// v2 added the composition-config hash to the run binding; v3 added
/// the hardware-spec digest, so checkpoints written under one hardware
/// scenario can never resume a run compiling for another (pre-v3
/// files also fail deserialization — the field is required — and are
/// treated as absent, never silently replayed).
const CHECKPOINT_VERSION: u64 = 3;

/// One checkpointed block result — a serializable mirror of
/// [`CompositionResult`] (the vendored serde derive has no attribute
/// support, so enums are flattened into a `kind` + optional fields,
/// the same idiom the bench cache uses).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CheckpointBlock {
    index: usize,
    circuit: Circuit,
    hsd: f64,
    composed: bool,
    layers: usize,
    /// `composed`, `fell-back`, or `failed`.
    outcome_kind: String,
    outcome_layers: usize,
    outcome_hsd: f64,
    /// [`FallbackReason::label`] when `outcome_kind == "fell-back"`.
    outcome_reason: Option<String>,
    /// Panic payload when `outcome_kind == "failed"`.
    outcome_detail: Option<String>,
}

impl CheckpointBlock {
    fn from_result(index: usize, res: &CompositionResult) -> Option<Self> {
        let (kind, layers, hsd, reason, detail) = match &res.outcome {
            BlockOutcome::Composed { layers, hsd } => ("composed", *layers, *hsd, None, None),
            BlockOutcome::FellBack { reason } => {
                ("fell-back", 0, 0.0, Some(reason.label().to_string()), None)
            }
            // Failed and Skipped blocks are not checkpointed: a resume
            // should retry a panicked block, and skipped blocks carry
            // no result at all.
            BlockOutcome::Failed { .. } | BlockOutcome::Skipped => return None,
        };
        Some(CheckpointBlock {
            index,
            circuit: res.circuit.clone(),
            hsd: res.hsd,
            composed: res.composed,
            layers: res.layers,
            outcome_kind: kind.to_string(),
            outcome_layers: layers,
            outcome_hsd: hsd,
            outcome_reason: reason,
            outcome_detail: detail,
        })
    }

    fn to_result(&self) -> Option<(usize, CompositionResult)> {
        let outcome = match self.outcome_kind.as_str() {
            "composed" => BlockOutcome::Composed {
                layers: self.outcome_layers,
                hsd: self.outcome_hsd,
            },
            "fell-back" => BlockOutcome::FellBack {
                reason: FallbackReason::from_label(self.outcome_reason.as_deref()?)?,
            },
            "failed" => BlockOutcome::Failed {
                detail: self.outcome_detail.clone()?,
            },
            _ => return None,
        };
        Some((
            self.index,
            CompositionResult {
                circuit: self.circuit.clone(),
                hsd: self.hsd,
                composed: self.composed,
                layers: self.layers,
                outcome,
            },
        ))
    }
}

/// A composition checkpoint: completed block results bound to one
/// `(source circuit, seed)` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    version: u64,
    fingerprint: u64,
    seed: u64,
    num_blocks: usize,
    config_hash: u64,
    hardware_digest: u64,
    blocks: Vec<CheckpointBlock>,
}

impl Checkpoint {
    /// An empty checkpoint for a run over `num_blocks` blocks of a
    /// circuit with the given fingerprint, composition seed,
    /// composition-config hash (see [`composition_config_hash`]), and
    /// hardware-spec digest (`HardwareSpec::digest`).
    pub fn new(
        fingerprint: u64,
        seed: u64,
        num_blocks: usize,
        config_hash: u64,
        hardware_digest: u64,
    ) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            seed,
            num_blocks,
            config_hash,
            hardware_digest,
            blocks: Vec::new(),
        }
    }

    /// Completed block results recorded so far.
    pub fn num_recorded(&self) -> usize {
        self.blocks.len()
    }

    /// Whether this checkpoint belongs to the `(fingerprint, seed,
    /// num_blocks, config_hash, hardware_digest)` run — resuming
    /// someone else's checkpoint, one composed under different search
    /// parameters (a different ε, layer cap, or annealing budget), or
    /// one compiled for different hardware would silently splice wrong
    /// or differently-converged circuits in.
    pub fn matches(
        &self,
        fingerprint: u64,
        seed: u64,
        num_blocks: usize,
        config_hash: u64,
        hardware_digest: u64,
    ) -> bool {
        self.version == CHECKPOINT_VERSION
            && self.fingerprint == fingerprint
            && self.seed == seed
            && self.num_blocks == num_blocks
            && self.config_hash == config_hash
            && self.hardware_digest == hardware_digest
    }

    /// Expands the recorded blocks into the `prior` slice shape that
    /// `try_compose_blocked_circuit_supervised` resumes from.
    pub fn to_prior(&self) -> Vec<Option<CompositionResult>> {
        let mut prior = vec![None; self.num_blocks];
        for block in &self.blocks {
            if let Some((index, result)) = block.to_result() {
                if index < prior.len() {
                    prior[index] = Some(result);
                }
            }
        }
        prior
    }
}

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read (missing counts here too).
    Io(std::io::Error),
    /// The file was read but is not a valid checkpoint — torn by a
    /// crash, checksum-corrupted, injected corruption, or version
    /// skew.
    Corrupt {
        /// FNV-1a digest of the corrupt bytes (matches the quarantine
        /// sidecar suffix).
        digest: u64,
        /// What exactly was wrong (torn, checksum mismatch, JSON does
        /// not parse, ...).
        reason: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint unreadable: {e}"),
            CheckpointError::Corrupt { digest, reason } => {
                write!(f, "checkpoint corrupt (digest {digest:016x}): {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a fingerprint of a circuit's debug form — the same scheme the
/// bench cache uses to bind artifacts to their exact input.
pub fn checkpoint_fingerprint(circuit: &Circuit) -> u64 {
    fnv1a_bytes(format!("{circuit:?}").as_bytes())
}

/// FNV-1a hash of the composition parameters that shape per-block
/// results: ε, the layer cap, and the annealing budget (iterations,
/// restarts, retries). The seed is bound separately; threads and the
/// wall-clock deadline are excluded because they change scheduling,
/// never a completed block's content.
pub fn composition_config_hash(cfg: &CompositionConfig) -> u64 {
    let text = format!(
        "eps={:?}|layers={}|iters={}|restarts={}|retries={}",
        cfg.epsilon, cfg.max_layers, cfg.anneal_iters, cfg.restarts, cfg.retry_attempts
    );
    fnv1a_bytes(text.as_bytes())
}

/// Writes the checkpoint crash-safely as a framed record (length
/// prefix + FNV checksum) through [`write_record_atomic`]: a crash
/// mid-write leaves the previous checkpoint intact; a crash between
/// write and rename leaves a stale `.tmp` for `repair --prune` to
/// reclaim; a torn rename target fails the frame check on load.
pub fn write_checkpoint_atomic(path: &Path, checkpoint: &Checkpoint) -> std::io::Result<()> {
    let body = serde_json::to_string(checkpoint)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    write_record_atomic(path, &body)
}

/// Parses a record payload as a checkpoint — the schema check every
/// checkpoint loader (and `repair`) runs. Unframed (pre-framing)
/// payloads parse as legacy JSON.
pub fn parse_checkpoint(payload: RecordPayload) -> Result<Checkpoint, String> {
    serde_json::from_str(payload.text())
        .map_err(|_| "checkpoint JSON does not parse or has version skew".to_string())
}

impl From<StoreReadError> for CheckpointError {
    fn from(e: StoreReadError) -> Self {
        match e {
            StoreReadError::Io(e) => CheckpointError::Io(e),
            StoreReadError::Corrupt(c) => CheckpointError::Corrupt {
                digest: c.digest,
                reason: c.reason,
            },
        }
    }
}

/// Loads a checkpoint, distinguishing unreadable files from corrupt
/// ones; the frame's length and checksum are verified before any JSON
/// parsing. The file is left in place — see
/// [`load_checkpoint_quarantining`] for the variant the supervised
/// pipeline uses.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, CheckpointError> {
    Ok(read_checked(path, framed(parse_checkpoint))?)
}

/// Loads a checkpoint like [`load_checkpoint`], but quarantines a
/// corrupt file to a `.corrupt-<digest>` sidecar (logging a structured
/// warning and bumping the `store_corrupt_total` counter) so the next
/// write starts clean and corruption is observable, never a silent
/// fresh start.
pub fn load_checkpoint_quarantining(
    path: &Path,
    telemetry: &Telemetry,
) -> Result<Checkpoint, CheckpointError> {
    Ok(load_record_quarantining(
        path,
        "checkpoint",
        telemetry,
        parse_checkpoint,
    )?)
}

/// The live checkpoint writer: a [`BlockObserver`] that persists the
/// checkpoint after every fresh block and drives the injectable
/// mid-run faults (`checkpoint-corrupt`, `kill-after-block`).
pub(crate) struct CheckpointWriter {
    path: std::path::PathBuf,
    state: Mutex<Checkpoint>,
    /// Truncate the file after each write (injected corruption).
    corrupt: bool,
    /// Cancel `cancel` once this many fresh blocks have checkpointed
    /// (simulates the process dying mid-sweep).
    kill_after: Option<usize>,
    cancel: CancelToken,
    fresh: AtomicUsize,
    /// Beaten after every block so a long composition stays visibly
    /// alive to the watchdog.
    heartbeat: Option<crate::watchdog::Heartbeat>,
}

impl CheckpointWriter {
    pub(crate) fn new(
        path: std::path::PathBuf,
        initial: Checkpoint,
        corrupt: bool,
        kill_after: Option<usize>,
        cancel: CancelToken,
        heartbeat: Option<crate::watchdog::Heartbeat>,
    ) -> Self {
        CheckpointWriter {
            path,
            state: Mutex::new(initial),
            corrupt,
            kill_after,
            cancel,
            fresh: AtomicUsize::new(0),
            heartbeat,
        }
    }
}

impl BlockObserver for CheckpointWriter {
    fn block_finished(&self, index: usize, result: &CompositionResult) {
        if let Some(hb) = &self.heartbeat {
            hb.beat("compose");
        }
        // A cancelled fallback is not a completed block; persisting it
        // would make the resume skip real work.
        if matches!(
            result.outcome,
            BlockOutcome::FellBack {
                reason: FallbackReason::Cancelled
            }
        ) {
            return;
        }
        if let Some(block) = CheckpointBlock::from_result(index, result) {
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.blocks.push(block);
            // Checkpoint IO failures must never fail the compilation:
            // the checkpoint is an optimization for the next run.
            let _ = write_checkpoint_atomic(&self.path, &state);
            drop(state);
            if self.corrupt {
                if let Ok(body) = std::fs::read_to_string(&self.path) {
                    let _ = std::fs::write(&self.path, &body[..body.len() / 2]);
                }
            }
        }
        let fresh = self.fresh.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(kill_at) = self.kill_after {
            if fresh >= kill_at.max(1) {
                self.cancel.cancel();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(composed: bool) -> CompositionResult {
        let mut c = Circuit::new(3);
        c.h(0).cz(0, 1);
        CompositionResult {
            circuit: c,
            hsd: 1e-4,
            composed,
            layers: 2,
            outcome: if composed {
                BlockOutcome::Composed {
                    layers: 2,
                    hsd: 1e-4,
                }
            } else {
                BlockOutcome::FellBack {
                    reason: FallbackReason::NotCheaper,
                }
            },
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "geyser-ckpt-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrips_through_disk() {
        let path = temp_path("roundtrip");
        let mut ckpt = Checkpoint::new(0xabcd, 7, 5, 0xc0f6, 0x11);
        ckpt.blocks
            .push(CheckpointBlock::from_result(2, &sample_result(true)).unwrap());
        ckpt.blocks
            .push(CheckpointBlock::from_result(4, &sample_result(false)).unwrap());
        write_checkpoint_atomic(&path, &ckpt).unwrap();
        let back = load_checkpoint(&path).unwrap();
        assert!(back.matches(0xabcd, 7, 5, 0xc0f6, 0x11));
        assert_eq!(back.num_recorded(), 2);
        let prior = back.to_prior();
        assert_eq!(prior.len(), 5);
        assert!(prior[0].is_none() && prior[1].is_none() && prior[3].is_none());
        let restored = prior[2].as_ref().unwrap();
        assert!(restored.composed);
        assert_eq!(restored.layers, 2);
        assert_eq!(
            prior[4].as_ref().unwrap().outcome,
            BlockOutcome::FellBack {
                reason: FallbackReason::NotCheaper
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_run_is_rejected() {
        let ckpt = Checkpoint::new(1, 2, 3, 4, 5);
        assert!(!ckpt.matches(999, 2, 3, 4, 5), "wrong fingerprint");
        assert!(!ckpt.matches(1, 999, 3, 4, 5), "wrong seed");
        assert!(!ckpt.matches(1, 2, 999, 4, 5), "wrong block count");
        assert!(!ckpt.matches(1, 2, 3, 999, 5), "wrong config hash");
        assert!(!ckpt.matches(1, 2, 3, 4, 999), "wrong hardware digest");
        assert!(ckpt.matches(1, 2, 3, 4, 5));
    }

    #[test]
    fn truncated_file_loads_as_corrupt() {
        let path = temp_path("truncated");
        let ckpt = Checkpoint::new(1, 2, 3, 4, 5);
        write_checkpoint_atomic(&path, &ckpt).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        let CheckpointError::Corrupt { reason, .. } = err else {
            panic!("truncated checkpoint must load as Corrupt");
        };
        assert!(reason.contains("torn"), "reason was: {reason}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flipped_file_loads_as_checksum_corrupt() {
        let path = temp_path("bit-flip");
        write_checkpoint_atomic(&path, &Checkpoint::new(1, 2, 3, 4, 5)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        let CheckpointError::Corrupt { reason, .. } = err else {
            panic!("bit-flipped checkpoint must load as Corrupt");
        };
        assert!(reason.contains("checksum"), "reason was: {reason}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantining_load_moves_corrupt_file_aside() {
        let path = temp_path("quarantine");
        write_checkpoint_atomic(&path, &Checkpoint::new(1, 2, 3, 4, 5)).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        let telemetry = geyser::Telemetry::enabled();
        let err = load_checkpoint_quarantining(&path, &telemetry).unwrap_err();
        let CheckpointError::Corrupt { digest, .. } = err else {
            panic!("torn checkpoint must be Corrupt");
        };
        assert!(!path.exists(), "corrupt checkpoint must be quarantined");
        let sidecar = geyser::store::corrupt_sidecar_path(&path, digest);
        assert!(sidecar.exists(), "sidecar must hold the corrupt bytes");
        assert_eq!(
            telemetry.counter_value(geyser::store::STORE_CORRUPT_COUNTER),
            Some(1)
        );
        // The store is clean again: the next load is a plain miss.
        assert!(matches!(
            load_checkpoint_quarantining(&path, &telemetry),
            Err(CheckpointError::Io(_))
        ));
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn pre_v3_checkpoint_without_hardware_digest_is_invalidated() {
        // v2 files carry no hardware_digest; the field is required on
        // deserialize, so legacy checkpoints load as Corrupt and the
        // run starts fresh instead of silently replaying blocks
        // composed under an unknown hardware model.
        struct Raw(Value);
        impl serde::Serialize for Raw {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        use serde::Value;
        let path = temp_path("pre-v3");
        let ckpt = Checkpoint::new(1, 2, 3, 4, 5);
        let Value::Map(fields) = serde::Serialize::to_value(&ckpt) else {
            panic!("checkpoints serialize as maps");
        };
        let pruned: Vec<(String, Value)> = fields
            .into_iter()
            .filter(|(k, _)| k != "hardware_digest")
            .map(|(k, v)| {
                if k == "version" {
                    (k, Value::U64(2))
                } else {
                    (k, v)
                }
            })
            .collect();
        let body = serde_json::to_string(&Raw(Value::Map(pruned))).unwrap();
        std::fs::write(&path, body).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let path = temp_path("missing-never-written");
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let path = temp_path("atomic");
        write_checkpoint_atomic(&path, &Checkpoint::new(5, 6, 7, 8, 9)).unwrap();
        assert!(path.exists());
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let tmps = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                geyser::store::is_tmp(p)
                    && p.file_name().unwrap().to_string_lossy().starts_with(&name)
            })
            .count();
        assert_eq!(tmps, 0, "no *.tmp sibling may be left behind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_distinguishes_circuits() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(3);
        b.h(1);
        assert_ne!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&b));
        let mut a2 = Circuit::new(3);
        a2.h(0);
        assert_eq!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&a2));
    }

    #[test]
    fn config_hash_tracks_search_parameters_only() {
        let base = CompositionConfig::default();
        let mut eps = base;
        eps.epsilon = base.epsilon / 10.0;
        assert_ne!(
            composition_config_hash(&base),
            composition_config_hash(&eps)
        );
        let mut layers = base;
        layers.max_layers += 1;
        assert_ne!(
            composition_config_hash(&base),
            composition_config_hash(&layers)
        );
        let mut iters = base;
        iters.anneal_iters += 1;
        assert_ne!(
            composition_config_hash(&base),
            composition_config_hash(&iters)
        );
        // Seed is bound separately; threads and deadline affect
        // scheduling, not block content — none may change the hash.
        let mut sched = base;
        sched.seed = 99;
        sched.threads = 7;
        assert_eq!(
            composition_config_hash(&base),
            composition_config_hash(&sched)
        );
    }

    #[test]
    fn writer_records_fresh_blocks_and_fires_kill_switch() {
        let path = temp_path("writer");
        let token = CancelToken::new();
        let writer = CheckpointWriter::new(
            path.clone(),
            Checkpoint::new(1, 2, 4, 0, 0),
            false,
            Some(2),
            token.clone(),
            None,
        );
        writer.block_finished(0, &sample_result(true));
        assert!(!token.is_cancelled(), "kill fires after 2 blocks, not 1");
        writer.block_finished(1, &sample_result(true));
        assert!(token.is_cancelled());
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(back.num_recorded(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_skips_cancelled_fallbacks() {
        let path = temp_path("writer-cancelled");
        let writer = CheckpointWriter::new(
            path.clone(),
            Checkpoint::new(1, 2, 4, 0, 0),
            false,
            None,
            CancelToken::none(),
            None,
        );
        let mut res = sample_result(false);
        res.outcome = BlockOutcome::FellBack {
            reason: FallbackReason::Cancelled,
        };
        writer.block_finished(0, &res);
        assert!(!path.exists(), "cancelled fallback must not be persisted");
    }
}
