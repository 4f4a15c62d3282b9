//! The one store-file protocol shared by every persistent store (the
//! bench compile cache, the cross-job composition reuse store, and the
//! verifier's quarantine corpus): how a file is staged, committed, read, validated,
//! quarantined and found.
//!
//! * **Writes** are staged to a temp sibling whose name is unique per
//!   write (`<name>.<pid>-<n>.tmp`, see [`stage_write`]) and committed
//!   by an atomic rename, so concurrent writers of one path never
//!   rename each other's temp files and a crash leaves either the old
//!   or the new file plus, at worst, a stale `.tmp`. No store sweeps
//!   temp files on open, since one may be a concurrent writer's
//!   in-flight write; `repair --prune` reclaims them.
//! * **Loads** read the bytes once, verify the frame, run the store's
//!   own schema parse, and quarantine the file on either failure
//!   under the FNV-1a digest of the file bytes
//!   ([`load_record_quarantining`]).
//! * **Scans** list a store directory with one sorted, recursive walk
//!   ([`walk_files`]).
//!
//! Atomic temp-file + rename writes protect against a crash *between*
//! writes, but say nothing about a file that was torn by a mid-write
//! kill on a non-atomic filesystem, hit by a stray partial copy, or
//! bit-flipped at rest. This module frames every record with an ASCII
//! header carrying the payload length and an FNV-1a checksum:
//!
//! ```text
//! GEYSREC1 <length:016x> <fnv1a:016x>\n<payload bytes>
//! ```
//!
//! Loading verifies the frame before any JSON parsing happens, so a
//! torn or corrupted file surfaces as a typed [`RecordError`] — never
//! a panic, and never a silently replayed half-record. Corrupt files
//! are **quarantined** in place: renamed to a
//! `<name>.corrupt-<digest>` sidecar (the digest is the FNV-1a hash
//! of the corrupt bytes, so repeated corruption of the same content
//! dedupes), a structured warning is logged, and the
//! `store_corrupt_total` telemetry counter is bumped so corruption is
//! observable instead of degrading into an unexplained cache miss.
//!
//! Files written before this framing existed (plain JSON, no header)
//! decode as [`RecordPayload::Legacy`]; callers parse them as before
//! so an upgrade never invalidates a healthy store, and the next
//! write rewrites the file framed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use geyser_telemetry::Telemetry;

/// Magic prefix of a framed record file.
pub const RECORD_MAGIC: &str = "GEYSREC1";

/// Telemetry counter bumped once per corrupt store file detected
/// (all store kinds combined; see [`store_corrupt_kind_counter`]).
pub const STORE_CORRUPT_COUNTER: &str = "store_corrupt_total";

/// The per-kind companion of [`STORE_CORRUPT_COUNTER`]: corruption
/// telemetry tagged by *which* store is rotting. The label is the
/// same one passed to [`quarantine_corrupt`] /
/// [`read_record_file_quarantining`]; unknown labels fold into
/// `store_corrupt_total.other`.
pub fn store_corrupt_kind_counter(label: &str) -> &'static str {
    match label {
        "cache" => "store_corrupt_total.cache",
        "reuse" => "store_corrupt_total.reuse",
        _ => "store_corrupt_total.other",
    }
}

/// Header layout: magic + space + 16 hex length + space + 16 hex
/// checksum + newline.
const HEADER_LEN: usize = RECORD_MAGIC.len() + 1 + 16 + 1 + 16 + 1;

/// FNV-1a over raw bytes — the same scheme the cache and reuse keys
/// use, applied to file contents.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Why a framed record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The payload length disagrees with the header — the classic
    /// signature of a write torn by a crash.
    Torn {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// The payload checksum disagrees with the header — bit rot or
    /// in-place tampering of a complete-looking file.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// The header parses but the payload is not valid UTF-8.
    BadPayload,
    /// The header itself is malformed (magic present but the length
    /// or checksum fields are not hex) — a torn header.
    BadHeader,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Torn { expected, actual } => {
                write!(
                    f,
                    "torn record: header promises {expected} payload bytes, file has {actual}"
                )
            }
            RecordError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header {expected:016x}, payload {actual:016x}"
            ),
            RecordError::BadPayload => f.write_str("payload is not valid UTF-8"),
            RecordError::BadHeader => f.write_str("torn or malformed record header"),
        }
    }
}

impl std::error::Error for RecordError {}

/// A successfully decoded record file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordPayload {
    /// A framed record whose length and checksum both verified.
    Framed(String),
    /// A pre-framing file (no magic): returned verbatim for the
    /// caller to parse, preserving stores written by older versions.
    Legacy(String),
}

impl RecordPayload {
    /// The payload text regardless of framing.
    pub fn text(&self) -> &str {
        match self {
            RecordPayload::Framed(s) | RecordPayload::Legacy(s) => s,
        }
    }

    /// Whether the payload came from a verified frame.
    pub fn is_framed(&self) -> bool {
        matches!(self, RecordPayload::Framed(_))
    }
}

/// Frames a payload for storage.
pub fn encode_record(payload: &str) -> String {
    format!(
        "{RECORD_MAGIC} {:016x} {:016x}\n{payload}",
        payload.len(),
        fnv1a_bytes(payload.as_bytes())
    )
}

/// Decodes a record file's bytes, verifying length and checksum.
///
/// Bytes that do not start with [`RECORD_MAGIC`] are treated as a
/// legacy (pre-framing) file and returned verbatim when they are
/// UTF-8; the caller decides whether they parse.
pub fn decode_record(bytes: &[u8]) -> Result<RecordPayload, RecordError> {
    if !bytes.starts_with(RECORD_MAGIC.as_bytes()) {
        return match String::from_utf8(bytes.to_vec()) {
            Ok(text) => Ok(RecordPayload::Legacy(text)),
            Err(_) => Err(RecordError::BadPayload),
        };
    }
    if bytes.len() < HEADER_LEN || bytes[HEADER_LEN - 1] != b'\n' {
        return Err(RecordError::BadHeader);
    }
    let header =
        std::str::from_utf8(&bytes[..HEADER_LEN - 1]).map_err(|_| RecordError::BadHeader)?;
    let mut fields = header.split(' ');
    let _magic = fields.next();
    let expected_len = fields
        .next()
        .and_then(|s| usize::from_str_radix(s, 16).ok())
        .ok_or(RecordError::BadHeader)?;
    let expected_sum = fields
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(RecordError::BadHeader)?;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != expected_len {
        return Err(RecordError::Torn {
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual_sum = fnv1a_bytes(payload);
    if actual_sum != expected_sum {
        return Err(RecordError::ChecksumMismatch {
            expected: expected_sum,
            actual: actual_sum,
        });
    }
    String::from_utf8(payload.to_vec())
        .map(RecordPayload::Framed)
        .map_err(|_| RecordError::BadPayload)
}

/// Whether a path names a staged write's temp file (see
/// [`stage_write`]).
pub fn is_tmp(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "tmp")
}

/// Every regular file under `dir`, recursing into subdirectories, in
/// sorted path order — the one walk every store scan uses. A missing
/// `dir` is an empty store; any other error reading `dir` itself is
/// returned, while unreadable subdirectories are skipped.
pub fn walk_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)?.flatten() {
            let path = entry.path();
            // The directory entry's own type costs no `stat`; only a
            // symlink is followed to what it points at.
            let kind = match entry.file_type() {
                Ok(kind) if kind.is_symlink() => std::fs::metadata(&path).map(|m| m.file_type()),
                kind => kind,
            };
            match kind {
                Ok(kind) if kind.is_dir() => {
                    let _ = collect(&path, out);
                }
                Ok(kind) if kind.is_file() => out.push(path),
                _ => {}
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    match collect(dir, &mut files) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    files.sort();
    Ok(files)
}

/// Why a record file could not be loaded.
#[derive(Debug)]
pub enum StoreReadError {
    /// The file could not be read at all (missing counts here).
    Io(std::io::Error),
    /// The file was read but its frame or payload is corrupt.
    Corrupt(StoreCorruption),
}

impl std::fmt::Display for StoreReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreReadError::Io(e) => write!(f, "store file unreadable: {e}"),
            StoreReadError::Corrupt(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for StoreReadError {}

/// A typed description of one corrupt store file, including where the
/// bytes were quarantined (when quarantine succeeded).
#[derive(Debug, Clone)]
pub struct StoreCorruption {
    /// The store file that failed to load.
    pub path: PathBuf,
    /// FNV-1a digest of the corrupt bytes (the sidecar suffix).
    pub digest: u64,
    /// What exactly was wrong (torn, checksum, unparseable, ...).
    pub reason: String,
    /// The `<name>.corrupt-<digest>` sidecar the file was renamed to,
    /// or `None` when quarantine was skipped or the rename failed.
    pub quarantined: Option<PathBuf>,
}

impl std::fmt::Display for StoreCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store file corrupt: path={} digest={:016x} reason={}",
            self.path.display(),
            self.digest,
            self.reason
        )?;
        match &self.quarantined {
            Some(q) => write!(f, " quarantined={}", q.display()),
            None => write!(f, " quarantined=no"),
        }
    }
}

/// The sidecar path a corrupt file is renamed to:
/// `<file-name>.corrupt-<digest:016x>` next to the original.
pub fn corrupt_sidecar_path(path: &Path, digest: u64) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    path.with_file_name(format!("{name}.corrupt-{digest:016x}"))
}

/// Whether a file name marks an already-quarantined sidecar.
pub fn is_corrupt_sidecar(path: &Path) -> bool {
    path.file_name()
        .map(|n| n.to_string_lossy().contains(".corrupt-"))
        .unwrap_or(false)
}

/// Quarantines a corrupt store file: renames it to its
/// [`corrupt_sidecar_path`], logs a structured warning naming the
/// path and digest, and bumps [`STORE_CORRUPT_COUNTER`]. Returns the
/// typed corruption record; the original path no longer exists on
/// success, so the next write starts clean.
///
/// Quarantine must never fail the caller: a failed rename (e.g. a
/// read-only filesystem) leaves the file in place and is reported in
/// the returned record.
pub fn quarantine_corrupt(
    path: &Path,
    bytes: &[u8],
    reason: &str,
    label: &str,
    telemetry: &Telemetry,
) -> StoreCorruption {
    let digest = fnv1a_bytes(bytes);
    let sidecar = corrupt_sidecar_path(path, digest);
    let quarantined = std::fs::rename(path, &sidecar).is_ok().then_some(sidecar);
    telemetry.counter_add(STORE_CORRUPT_COUNTER, 1);
    telemetry.counter_add(store_corrupt_kind_counter(label), 1);
    let corruption = StoreCorruption {
        path: path.to_path_buf(),
        digest,
        reason: reason.to_string(),
        quarantined,
    };
    eprintln!("warning: {label} {corruption}");
    corruption
}

/// A write staged to a temp sibling of its destination and not yet
/// visible under the destination's name. [`StagedWrite::commit`]
/// publishes it; dropping it uncommitted leaves the temp file behind
/// exactly as a kill between write and rename would, for
/// `repair --prune` to reclaim.
#[derive(Debug)]
#[must_use = "a staged write is invisible until committed"]
pub struct StagedWrite {
    tmp: PathBuf,
    dest: PathBuf,
}

impl StagedWrite {
    /// Atomically renames the staged bytes into place.
    pub fn commit(self) -> std::io::Result<()> {
        std::fs::rename(&self.tmp, &self.dest)
    }
}

/// Process-wide count of staged writes: with the pid, it makes every
/// temp name unique, so concurrent writers of one path (threads or
/// processes) never rename each other's temp files.
static STAGED_WRITES: AtomicU64 = AtomicU64::new(0);

/// Stages `bytes` for `path`: creates the parent directories and
/// writes the bytes to `<file-name>.<pid>-<n>.tmp` beside it.
pub fn stage_write(path: &Path, bytes: &[u8]) -> std::io::Result<StagedWrite> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "store".to_string());
    let n = STAGED_WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!("{name}.{}-{n}.tmp", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    Ok(StagedWrite {
        tmp,
        dest: path.to_path_buf(),
    })
}

/// Writes a framed record crash-safely: [`stage_write`] the encoded
/// record, then commit it over `path`. A kill mid-write leaves the
/// previous record intact; a kill between write and rename leaves a
/// stale `.tmp` for `repair --prune` to reclaim.
pub fn write_record_atomic(path: &Path, payload: &str) -> std::io::Result<()> {
    stage_write(path, encode_record(payload).as_bytes())?.commit()
}

/// Reads `path` once and runs `check` over its bytes, **without**
/// quarantining — for readers that must observe corruption in place.
/// A failed check is [`StoreReadError::Corrupt`] carrying the FNV-1a
/// digest of the file bytes; a missing file is [`StoreReadError::Io`].
fn read_checked<T>(
    path: &Path,
    check: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Result<T, StoreReadError> {
    let bytes = std::fs::read(path).map_err(StoreReadError::Io)?;
    check(&bytes).map_err(|reason| {
        StoreReadError::Corrupt(StoreCorruption {
            path: path.to_path_buf(),
            digest: fnv1a_bytes(&bytes),
            reason,
            quarantined: None,
        })
    })
}

/// The validated loader every record store uses: reads `path` once,
/// verifies its frame, runs the store's schema `parse` on the
/// payload, and on either failure quarantines the file under the
/// digest of its bytes (see [`quarantine_corrupt`]) under the store
/// kind `label`. Each store keeps its own rule on
/// [`RecordPayload::Legacy`] (unframed) payloads inside `parse`.
pub fn load_record_quarantining<T>(
    path: &Path,
    label: &str,
    telemetry: &Telemetry,
    parse: impl FnOnce(RecordPayload) -> Result<T, String>,
) -> Result<T, StoreReadError> {
    let bytes = std::fs::read(path).map_err(StoreReadError::Io)?;
    framed(parse)(&bytes).map_err(|reason| {
        StoreReadError::Corrupt(quarantine_corrupt(path, &bytes, &reason, label, telemetry))
    })
}

/// Lifts a payload `parse` into a check over file bytes: verify the
/// frame first, then parse. For [`read_checked`] /
/// [`load_record_quarantining`].
fn framed<T>(
    parse: impl FnOnce(RecordPayload) -> Result<T, String>,
) -> impl FnOnce(&[u8]) -> Result<T, String> {
    move |bytes| parse(decode_record(bytes).map_err(|e| e.to_string())?)
}

/// Reads and decodes a record file **without** quarantining (see
/// [`read_record_file_quarantining`] for the form that moves a corrupt
/// file aside).
pub fn read_record_file(path: &Path) -> Result<RecordPayload, StoreReadError> {
    read_checked(path, framed(Ok))
}

/// Reads and decodes a record file, quarantining it on frame
/// corruption: [`load_record_quarantining`] with no schema check.
pub fn read_record_file_quarantining(
    path: &Path,
    label: &str,
    telemetry: &Telemetry,
) -> Result<RecordPayload, StoreReadError> {
    load_record_quarantining(path, label, telemetry, Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "geyser-store-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn frame_roundtrips() {
        let body = r#"{"answer": 42}"#;
        let framed = encode_record(body);
        assert!(framed.starts_with(RECORD_MAGIC));
        assert_eq!(
            decode_record(framed.as_bytes()).unwrap(),
            RecordPayload::Framed(body.to_string())
        );
    }

    #[test]
    fn truncation_anywhere_in_the_payload_is_torn() {
        let framed = encode_record(&"x".repeat(256));
        for keep in [
            HEADER_LEN,
            HEADER_LEN + 1,
            framed.len() - 100,
            framed.len() - 1,
        ] {
            assert!(
                matches!(
                    decode_record(&framed.as_bytes()[..keep]),
                    Err(RecordError::Torn { .. })
                ),
                "truncation to {keep} bytes must read as torn"
            );
        }
    }

    #[test]
    fn truncation_inside_the_header_is_bad_header() {
        let framed = encode_record("payload");
        assert_eq!(
            decode_record(&framed.as_bytes()[..HEADER_LEN - 5]),
            Err(RecordError::BadHeader)
        );
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let framed = encode_record(r#"{"blocks": [1, 2, 3]}"#);
        let mut bytes = framed.into_bytes();
        let flip_at = HEADER_LEN + 5;
        bytes[flip_at] ^= 0x01;
        assert!(matches!(
            decode_record(&bytes),
            Err(RecordError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn appended_garbage_is_torn_not_silently_accepted() {
        let mut framed = encode_record("payload");
        framed.push_str("tail");
        assert!(matches!(
            decode_record(framed.as_bytes()),
            Err(RecordError::Torn { .. })
        ));
    }

    #[test]
    fn unframed_files_pass_through_as_legacy() {
        let decoded = decode_record(br#"{"version": 3}"#).unwrap();
        assert!(!decoded.is_framed());
        assert_eq!(decoded.text(), r#"{"version": 3}"#);
    }

    /// Temp files left beside `path` by a staged write.
    fn tmp_siblings(path: &Path) -> Vec<PathBuf> {
        let prefix = path.file_name().unwrap().to_string_lossy().into_owned();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                is_tmp(p)
                    && p.file_name()
                        .unwrap()
                        .to_string_lossy()
                        .starts_with(&prefix)
            })
            .collect()
    }

    #[test]
    fn write_and_read_roundtrip_through_disk() {
        let path = temp_path("roundtrip");
        write_record_atomic(&path, "body").unwrap();
        assert!(tmp_siblings(&path).is_empty());
        let back = read_record_file(&path).unwrap();
        assert_eq!(back, RecordPayload::Framed("body".to_string()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        assert!(matches!(
            read_record_file(&temp_path("never-written")),
            Err(StoreReadError::Io(_))
        ));
    }

    #[test]
    fn quarantine_renames_warns_and_counts() {
        let path = temp_path("quarantine");
        std::fs::write(&path, "garbage").unwrap();
        let telemetry = Telemetry::enabled();
        let corruption = quarantine_corrupt(&path, b"garbage", "torn", "test", &telemetry);
        assert!(!path.exists(), "corrupt file must be renamed away");
        let sidecar = corruption.quarantined.expect("rename succeeds");
        assert!(sidecar.exists());
        assert!(sidecar
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains(".corrupt-"));
        assert_eq!(corruption.digest, fnv1a_bytes(b"garbage"));
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn quarantining_reader_files_torn_records_as_sidecars() {
        let path = temp_path("reader-quarantine");
        write_record_atomic(&path, &"y".repeat(64)).unwrap();
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        let telemetry = Telemetry::enabled();
        let err = read_record_file_quarantining(&path, "test", &telemetry).unwrap_err();
        let StoreReadError::Corrupt(c) = err else {
            panic!("torn file must be Corrupt");
        };
        assert!(!path.exists());
        assert!(c.reason.contains("torn"));
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
        let _ = std::fs::remove_file(c.quarantined.unwrap());
    }

    #[test]
    fn quarantine_tags_the_store_kind() {
        let path = temp_path("kind-tag");
        std::fs::write(&path, "garbage").unwrap();
        let telemetry = Telemetry::enabled();
        quarantine_corrupt(&path, b"garbage", "torn", "reuse", &telemetry);
        assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
        assert_eq!(
            telemetry.counter_value(store_corrupt_kind_counter("reuse")),
            Some(1)
        );
        assert_eq!(
            telemetry.counter_value(store_corrupt_kind_counter("cache")),
            None
        );
        let _ = std::fs::remove_file(corrupt_sidecar_path(&path, fnv1a_bytes(b"garbage")));
    }

    #[test]
    fn staged_writes_get_unique_tmp_names_and_commit_atomically() {
        let path = temp_path("staged");
        let first = stage_write(&path, b"one").unwrap();
        let second = stage_write(&path, b"two").unwrap();
        assert_eq!(tmp_siblings(&path).len(), 2, "one temp file per write");
        assert!(!path.exists(), "nothing is visible before a commit");
        first.commit().unwrap();
        second.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(tmp_siblings(&path).is_empty());
        // An uncommitted stage is exactly a kill between write and
        // rename: the destination is untouched and the temp stays.
        let _uncommitted = stage_write(&path, b"three").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let stale = tmp_siblings(&path);
        assert_eq!(stale.len(), 1);
        let _ = std::fs::remove_file(&stale[0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn schema_failures_quarantine_under_the_file_digest() {
        let path = temp_path("schema-digest");
        write_record_atomic(&path, "not the schema").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let telemetry = Telemetry::enabled();
        let err = load_record_quarantining(&path, "test", &telemetry, |_| {
            Err::<(), _>("schema says no".to_string())
        })
        .unwrap_err();
        let StoreReadError::Corrupt(c) = err else {
            panic!("a schema failure is corruption");
        };
        assert_eq!(c.digest, fnv1a_bytes(&bytes));
        assert_eq!(c.reason, "schema says no");
        let sidecar = corrupt_sidecar_path(&path, fnv1a_bytes(&bytes));
        assert_eq!(c.quarantined.as_deref(), Some(sidecar.as_path()));
        assert_eq!(std::fs::read(&sidecar).unwrap(), bytes);
        let _ = std::fs::remove_file(&sidecar);
    }

    #[test]
    fn walk_is_sorted_recursive_and_treats_missing_as_empty() {
        let dir = std::env::temp_dir().join(format!("geyser-store-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("b/deeper")).unwrap();
        for file in ["c.json", "a.json", "b/deeper/x.tmp", "b/y.json"] {
            std::fs::write(dir.join(file), "x").unwrap();
        }
        let rel: Vec<String> = walk_files(&dir)
            .unwrap()
            .iter()
            .map(|p| p.strip_prefix(&dir).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(rel, ["a.json", "b/deeper/x.tmp", "b/y.json", "c.json"]);
        assert!(walk_files(&dir.join("missing")).unwrap().is_empty());
        assert!(
            walk_files(&dir.join("a.json")).is_err(),
            "a file is not a store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_names_are_recognized() {
        let sidecar = corrupt_sidecar_path(Path::new("/tmp/entry.json"), 0xabcd);
        assert!(is_corrupt_sidecar(&sidecar));
        assert!(!is_corrupt_sidecar(Path::new("/tmp/entry.json")));
        assert!(sidecar
            .to_string_lossy()
            .ends_with(".corrupt-000000000000abcd"));
    }
}
