//! The persistent cross-job reuse store.
//!
//! One `reuse-<keydigest:016x>.json` file per entry, living alongside
//! the shared compile cache (by default under `.geyser-cache/reuse`).
//! Every file is a `GEYSREC1`-framed JSON [`ReuseRecord`] written and
//! read through the `geyser-store` protocol: staged tmp+rename writes
//! with a temp name unique per write, torn-write/bit-rot detection,
//! corrupt files quarantined to `.corrupt-<digest>` sidecars under the
//! `reuse` corruption label. Digest-keyed file names make concurrent
//! writers idempotent — two jobs or processes publishing the same
//! fingerprint race to rename equivalent records into place.
//!
//! Entries embed their hardware digest and composition-config hash;
//! the loader *skips* (never deletes) entries bound to another
//! configuration, so one store directory serves many machines and
//! configs at once. `repair --prune` reclaims entries whose digests
//! are stale for the machine being repaired.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::fingerprint::BlockFingerprint;
use crate::index::{ReuseEntry, ReuseKey, ReuseOutcome, ReuseSession};
use geyser_store::{load_record_quarantining, walk_files, write_record_atomic, StoreReadError};
use geyser_telemetry::Telemetry;

/// Version stamp of the on-disk reuse record schema. The search an
/// entry came from is bound by its config hash
/// ([`crate::SEARCH_VERSION`]), not here.
pub const REUSE_VERSION: u32 = 1;

/// File-name prefix of reuse store entries.
pub const REUSE_FILE_PREFIX: &str = "reuse-";

/// The on-disk shape of one reuse entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReuseRecord {
    /// Schema version ([`REUSE_VERSION`]).
    pub version: u32,
    /// Exact fingerprint kind (`two-qubit` | `canonical`).
    pub fingerprint_kind: String,
    /// Exact fingerprint components (see
    /// [`BlockFingerprint::components`]).
    pub fp_a: i64,
    /// Second exact component.
    pub fp_b: i64,
    /// Third exact component.
    pub fp_c: i64,
    /// Coarse (warm-start) fingerprint kind; empty when absent.
    pub coarse_kind: String,
    /// Coarse fingerprint components.
    pub coarse_a: i64,
    /// Second coarse component.
    pub coarse_b: i64,
    /// Third coarse component.
    pub coarse_c: i64,
    /// Hardware digest the composition was annealed for.
    pub hardware_digest: u64,
    /// Composition-config hash the composition was annealed under.
    pub config_hash: u64,
    /// Outcome label (see `ReuseOutcome::label`).
    pub outcome: String,
    /// Annealed ansatz parameters (composed outcomes only).
    pub params: Vec<f64>,
    /// Ansatz layer count for `params`.
    pub layers: u64,
    /// Verified Hilbert-Schmidt distance of the composition.
    pub hsd: f64,
    /// Annealer evaluations the original composition spent.
    pub evaluations: u64,
}

impl ReuseRecord {
    /// Builds the record for one published session entry.
    pub fn from_entry(
        key: &ReuseKey,
        coarse: Option<BlockFingerprint>,
        entry: &ReuseEntry,
    ) -> Self {
        let (fp_a, fp_b, fp_c) = key.fingerprint.components();
        let (coarse_kind, coarse_a, coarse_b, coarse_c) = match coarse {
            Some(cf) => {
                let (a, b, c) = cf.components();
                (cf.kind_label().to_string(), a, b, c)
            }
            None => (String::new(), 0, 0, 0),
        };
        ReuseRecord {
            version: REUSE_VERSION,
            fingerprint_kind: key.fingerprint.kind_label().to_string(),
            fp_a,
            fp_b,
            fp_c,
            coarse_kind,
            coarse_a,
            coarse_b,
            coarse_c,
            hardware_digest: key.hardware_digest,
            config_hash: key.config_hash,
            outcome: entry.outcome.label().to_string(),
            params: entry.params.clone(),
            layers: entry.layers as u64,
            hsd: entry.hsd,
            evaluations: entry.evaluations,
        }
    }

    /// Reconstructs the fully-qualified key, or `None` if the kind or
    /// components don't parse.
    pub fn key(&self) -> Option<ReuseKey> {
        let fingerprint =
            BlockFingerprint::from_parts(&self.fingerprint_kind, self.fp_a, self.fp_b, self.fp_c)?;
        Some(ReuseKey {
            fingerprint,
            hardware_digest: self.hardware_digest,
            config_hash: self.config_hash,
        })
    }

    /// Reconstructs the coarse fingerprint, if one was recorded.
    pub fn coarse_fingerprint(&self) -> Option<BlockFingerprint> {
        if self.coarse_kind.is_empty() {
            return None;
        }
        BlockFingerprint::from_parts(
            &self.coarse_kind,
            self.coarse_a,
            self.coarse_b,
            self.coarse_c,
        )
    }

    /// Reconstructs the in-memory entry, or `None` if the outcome
    /// label is unknown.
    pub fn entry(&self) -> Option<ReuseEntry> {
        Some(ReuseEntry {
            outcome: ReuseOutcome::from_label(&self.outcome)?,
            params: self.params.clone(),
            layers: self.layers as usize,
            hsd: self.hsd,
            evaluations: self.evaluations,
        })
    }
}

/// Path of the entry file for a key digest.
pub fn reuse_entry_path(dir: &Path, key_digest: u64) -> PathBuf {
    dir.join(format!("{REUSE_FILE_PREFIX}{key_digest:016x}.json"))
}

/// Whether a path names a (non-sidecar, non-tmp) reuse entry file.
pub fn is_reuse_entry(path: &Path) -> bool {
    let name = match path.file_name() {
        Some(n) => n.to_string_lossy().into_owned(),
        None => return false,
    };
    name.starts_with(REUSE_FILE_PREFIX) && name.ends_with(".json")
}

/// Parses a decoded record payload into a [`ReuseRecord`], with
/// schema-level validation (version, fingerprint, outcome label).
///
/// This is the same parse `load_reuse_dir` and `repair` run, so a
/// file that loads here is exactly a file the composer would accept.
pub fn parse_reuse_record(payload: &str) -> Result<ReuseRecord, String> {
    let record: ReuseRecord =
        serde_json::from_str(payload).map_err(|e| format!("reuse record parse: {e}"))?;
    if record.version != REUSE_VERSION {
        return Err(format!(
            "reuse record version {} (expected {REUSE_VERSION})",
            record.version
        ));
    }
    if record.key().is_none() {
        return Err(format!(
            "unknown fingerprint kind `{}`",
            record.fingerprint_kind
        ));
    }
    if record.entry().is_none() {
        return Err(format!("unknown outcome label `{}`", record.outcome));
    }
    Ok(record)
}

/// What one store-directory load observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadedReuse {
    /// Entries matching the session's hardware/config binding.
    pub loaded: u64,
    /// Healthy entries bound to another hardware/config (left in
    /// place for their owners).
    pub stale: u64,
    /// Corrupt files quarantined to sidecars during the scan.
    pub quarantined: u64,
}

/// Loads every matching entry from `dir` into `session`.
///
/// A missing directory is an empty store. Files are visited in
/// sorted order (the store's one recursive walk) so load accounting
/// is deterministic; frame-corrupt and schema-corrupt files are
/// quarantined in place (label `reuse`) and the scan continues — a
/// rotten entry costs one recomposition, never the run.
pub fn load_reuse_dir(
    dir: &Path,
    session: &mut ReuseSession,
    telemetry: &Telemetry,
) -> std::io::Result<LoadedReuse> {
    let mut observed = LoadedReuse::default();
    for path in walk_files(dir)?.iter().filter(|p| is_reuse_entry(p)) {
        let loaded = load_record_quarantining(path, "reuse", telemetry, |payload| {
            parse_reuse_record(payload.text())
        });
        let record = match loaded {
            Ok(r) => r,
            Err(StoreReadError::Corrupt(_)) => {
                observed.quarantined += 1;
                continue;
            }
            // Racing loader/pruner; skip, never fail the run.
            Err(StoreReadError::Io(_)) => continue,
        };
        let key = record.key().expect("validated by parse_reuse_record");
        let entry = record.entry().expect("validated by parse_reuse_record");
        if key.hardware_digest != session.hardware_digest()
            || key.config_hash != session.config_hash()
        {
            observed.stale += 1;
            session.stats.store_entries_stale += 1;
            continue;
        }
        session.insert_loaded(key, record.coarse_fingerprint(), entry);
        observed.loaded += 1;
    }
    Ok(observed)
}

/// Writes every entry the session published this run to `dir` with
/// atomic framed writes. Returns how many files were written.
pub fn save_reuse_dir(dir: &Path, session: &mut ReuseSession) -> std::io::Result<u64> {
    let mut saved = 0u64;
    let dirty: Vec<_> = session.dirty().to_vec();
    for (key, coarse) in dirty {
        let entry = match session.get(&key) {
            Some(e) => e.clone(),
            None => continue,
        };
        let record = ReuseRecord::from_entry(&key, coarse, &entry);
        let json = serde_json::to_string_pretty(&record).expect("reuse record serializes");
        write_record_atomic(&reuse_entry_path(dir, key.digest()), &json)?;
        saved += 1;
    }
    session.stats.store_entries_saved += saved;
    Ok(saved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::BlockFingerprint;

    fn fp(digest: u64) -> BlockFingerprint {
        BlockFingerprint::Canonical { dim: 8, digest }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geyser-reuse-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_session() -> ReuseSession {
        let mut s = ReuseSession::new(11, 22);
        s.publish(
            fp(1),
            Some(fp(100)),
            ReuseEntry {
                outcome: ReuseOutcome::Composed,
                params: vec![0.5, -1.25, 3.0],
                layers: 2,
                hsd: 4.5e-6,
                evaluations: 777,
            },
        );
        s.publish(
            fp(2),
            None,
            ReuseEntry {
                outcome: ReuseOutcome::NotCheaper,
                params: Vec::new(),
                layers: 0,
                hsd: 0.0,
                evaluations: 0,
            },
        );
        s
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = tmpdir("roundtrip");
        let mut writer = sample_session();
        assert_eq!(save_reuse_dir(&dir, &mut writer).unwrap(), 2);
        assert_eq!(writer.stats.store_entries_saved, 2);

        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 2);
        assert_eq!(obs.quarantined, 0);
        assert_eq!(reader.lookup(fp(1)).unwrap().params, vec![0.5, -1.25, 3.0]);
        assert_eq!(
            reader.lookup(fp(2)).unwrap().outcome,
            ReuseOutcome::NotCheaper
        );
        assert!(reader.lookup_coarse(fp(100)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_binding_entries_are_skipped_not_deleted() {
        let dir = tmpdir("stale");
        let mut writer = sample_session();
        save_reuse_dir(&dir, &mut writer).unwrap();

        let mut reader = ReuseSession::new(99, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 0);
        assert_eq!(obs.stale, 2);
        assert!(reader.is_empty());
        // Files survive for their rightful owner.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_entry_is_quarantined_and_scan_continues() {
        let dir = tmpdir("torn");
        let mut writer = sample_session();
        save_reuse_dir(&dir, &mut writer).unwrap();
        // Tear the first entry file mid-frame.
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        paths.sort();
        let bytes = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], &bytes[..bytes.len() / 2]).unwrap();

        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 1);
        assert_eq!(obs.quarantined, 1);
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().contains(".corrupt-")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_garbage_is_quarantined() {
        let dir = tmpdir("schema");
        let path = reuse_entry_path(&dir, 0xdead);
        write_record_atomic(&path, "{\"version\": 999}").unwrap();
        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.loaded, 0);
        assert_eq!(obs.quarantined, 1);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_garbage_is_quarantined_under_the_file_digest() {
        // Every store names a sidecar after the digest of the corrupt
        // file's bytes, so one rotten file gets one sidecar name no
        // matter which loader (or `repair`) finds it.
        let dir = tmpdir("schema-digest");
        let path = reuse_entry_path(&dir, 0xbeef);
        write_record_atomic(&path, "{\"version\": 999}").unwrap();
        let file_bytes = std::fs::read(&path).unwrap();
        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!(obs.quarantined, 1);
        let sidecar =
            geyser_store::corrupt_sidecar_path(&path, geyser_store::fnv1a_bytes(&file_bytes));
        assert!(sidecar.exists(), "expected sidecar {}", sidecar.display());
        assert_eq!(std::fs::read(&sidecar).unwrap(), file_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_of_one_key_all_succeed() {
        // Two jobs (or processes) publishing the same fingerprint into
        // one store race on one entry path; every write must land.
        const THREADS: usize = 4;
        const SAVES: usize = 500;
        let dir = tmpdir("concurrent");
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..SAVES {
                        let mut session = sample_session();
                        if let Err(e) = save_reuse_dir(&dir, &mut session) {
                            panic!("save {i} failed: {e}");
                        }
                    }
                });
            }
        });
        let names: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            names.iter().all(|p| is_reuse_entry(p)),
            "no *.tmp (or other) file may be left behind: {names:?}"
        );
        assert_eq!(names.len(), 2);
        let mut reader = ReuseSession::new(11, 22);
        let obs = load_reuse_dir(&dir, &mut reader, &Telemetry::disabled()).unwrap();
        assert_eq!((obs.loaded, obs.quarantined), (2, 0));
        assert_eq!(reader.lookup(fp(1)).unwrap().params, vec![0.5, -1.25, 3.0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_parse_rejects_bad_labels() {
        let mut record = ReuseRecord::from_entry(
            &ReuseKey {
                fingerprint: fp(5),
                hardware_digest: 1,
                config_hash: 2,
            },
            None,
            &ReuseEntry {
                outcome: ReuseOutcome::Composed,
                params: vec![1.0],
                layers: 1,
                hsd: 0.0,
                evaluations: 1,
            },
        );
        record.outcome = "mystery".into();
        let json = serde_json::to_string(&record).unwrap();
        assert!(parse_reuse_record(&json).is_err());
    }
}
