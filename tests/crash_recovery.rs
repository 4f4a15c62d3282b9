//! Crash tolerance of the persistent stores: committed records that
//! are later torn (truncated mid-write) or bit-flipped must be caught
//! by the frame check, surface as *typed* errors, quarantine to a
//! `.corrupt-<digest>` sidecar, and never panic or silently replay
//! corrupt data into a compilation.

use std::path::{Path, PathBuf};

use geyser::store::{
    read_record_file, read_record_file_quarantining, write_record_atomic, StoreReadError,
    STORE_CORRUPT_COUNTER,
};
use geyser::Telemetry;
use geyser_bench::{classify_cache_payload, CachePayloadStatus};

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "geyser-crash-recovery-{}-{tag}.json",
        std::process::id()
    ))
}

/// The quarantine sidecar written next to `path`, if any.
fn sidecar_of(path: &Path) -> Option<PathBuf> {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let dir = path.parent().unwrap();
    std::fs::read_dir(dir).ok().and_then(|entries| {
        entries.filter_map(|e| e.ok().map(|e| e.path())).find(|p| {
            p.file_name()
                .map(|n| {
                    let n = n.to_string_lossy();
                    n.starts_with(&name) && n.contains(".corrupt-")
                })
                .unwrap_or(false)
        })
    })
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    if let Some(sidecar) = sidecar_of(path) {
        let _ = std::fs::remove_file(sidecar);
    }
}

/// Writes a committed (frame-valid, readable) record and returns its
/// path.
fn committed_record(tag: &str) -> PathBuf {
    let path = temp(tag);
    cleanup(&path);
    write_record_atomic(&path, "{\"payload\":\"fine\"}").unwrap();
    assert!(
        read_record_file(&path).is_ok(),
        "the committed record must read before we corrupt it"
    );
    path
}

#[test]
fn torn_cache_record_is_quarantined_with_a_typed_error() {
    let path = committed_record("cache-torn");
    let body = std::fs::read(&path).unwrap();
    std::fs::write(&path, &body[..body.len() - 3]).unwrap();
    match read_record_file(&path) {
        Err(StoreReadError::Corrupt(c)) => {
            assert_eq!(c.path, path);
            assert_ne!(c.digest, 0);
            assert!(c.reason.contains("torn"), "got: {}", c.reason);
        }
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }

    let telemetry = Telemetry::enabled();
    assert!(read_record_file_quarantining(&path, "cache", &telemetry).is_err());
    assert!(!path.exists(), "torn cache records must be moved aside");
    assert!(sidecar_of(&path).is_some());
    assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
    cleanup(&path);
}

#[test]
fn bit_flipped_checkpoint_fails_the_checksum_and_quarantines() {
    // Bit rot at rest: one payload bit flips but the frame length
    // still matches, so only the checksum can catch it. Results-cache
    // entries and reuse stores share this frame.
    let path = committed_record("bitflip");
    let mut body = std::fs::read(&path).unwrap();
    let at = body.len() - 2; // inside the JSON payload, not the header
    body[at] ^= 0x01;
    std::fs::write(&path, &body).unwrap();

    match read_record_file(&path) {
        Err(StoreReadError::Corrupt(c)) => {
            assert_eq!(c.path, path);
            assert!(
                c.reason.contains("checksum"),
                "a flipped payload byte must fail the frame checksum, got: {}",
                c.reason
            );
        }
        other => panic!("expected a checksum error, got {other:?}"),
    }
    assert!(path.exists(), "the plain reader must not move the file");

    let telemetry = Telemetry::enabled();
    assert!(read_record_file_quarantining(&path, "cache", &telemetry).is_err());
    assert!(!path.exists());
    assert!(sidecar_of(&path).is_some());
    assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
    cleanup(&path);
}

#[test]
fn frame_valid_garbage_is_not_a_cache_entry() {
    // A frame can verify while the payload is still not a cache
    // entry (e.g. a different tool wrote the file): schema
    // classification must reject it rather than replay garbage.
    assert_eq!(
        classify_cache_payload("{\"not\":\"a cache entry\"}"),
        CachePayloadStatus::Malformed
    );
    assert_eq!(
        classify_cache_payload("[1,2,3]"),
        CachePayloadStatus::Malformed
    );
}
