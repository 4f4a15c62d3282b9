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
use geyser::{Technique, Telemetry};
use geyser_bench::{classify_cache_payload, CachePayloadStatus};
use geyser_circuit::Circuit;
use geyser_supervisor::{
    load_checkpoint, load_checkpoint_quarantining, run_supervised_compile, write_checkpoint_atomic,
    Checkpoint, CheckpointError, JobSpec, JobState, SupervisedCompileOptions, Supervisor,
    SupervisorConfig,
};

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "geyser-crash-recovery-{}-{tag}.json",
        std::process::id()
    ))
}

/// Writes a committed (frame-valid, loadable) checkpoint and returns
/// its path.
fn committed_checkpoint(tag: &str) -> PathBuf {
    let path = temp(tag);
    let _ = std::fs::remove_file(&path);
    write_checkpoint_atomic(&path, &Checkpoint::new(0xfeed, 42, 5, 0xc0de, 0xdead)).unwrap();
    assert!(
        load_checkpoint(&path).is_ok(),
        "the committed record must load before we corrupt it"
    );
    path
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

#[test]
fn truncated_checkpoint_is_a_typed_error_then_quarantined() {
    let path = committed_checkpoint("truncate");
    let body = std::fs::read(&path).unwrap();
    std::fs::write(&path, &body[..body.len() / 2]).unwrap();

    // The scanner-grade loader reports corruption but leaves the file
    // in place (repair and the chaos audit need to observe it).
    match load_checkpoint(&path) {
        Err(CheckpointError::Corrupt { digest, reason }) => {
            assert_ne!(digest, 0);
            assert!(!reason.is_empty());
        }
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }
    assert!(path.exists(), "the plain loader must not move the file");

    // The pipeline-grade loader additionally quarantines and counts.
    let telemetry = Telemetry::enabled();
    match load_checkpoint_quarantining(&path, &telemetry) {
        Err(CheckpointError::Corrupt { .. }) => {}
        other => panic!("expected a typed Corrupt error, got {other:?}"),
    }
    assert!(!path.exists(), "the corrupt file must be moved aside");
    let sidecar = sidecar_of(&path).expect("a .corrupt-<digest> sidecar must exist");
    assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
    let _ = std::fs::remove_file(sidecar);
}

#[test]
fn bit_flipped_checkpoint_fails_the_checksum_and_quarantines() {
    let path = committed_checkpoint("bitflip");
    let mut body = std::fs::read(&path).unwrap();
    let at = body.len() - 2; // inside the JSON payload, not the header
    body[at] ^= 0x01;
    std::fs::write(&path, &body).unwrap();

    match load_checkpoint(&path) {
        Err(CheckpointError::Corrupt { reason, .. }) => {
            assert!(
                reason.contains("checksum"),
                "a flipped payload byte must fail the frame checksum, got: {reason}"
            );
        }
        other => panic!("expected a checksum error, got {other:?}"),
    }

    let telemetry = Telemetry::enabled();
    assert!(load_checkpoint_quarantining(&path, &telemetry).is_err());
    assert!(!path.exists());
    assert!(sidecar_of(&path).is_some());
    assert_eq!(telemetry.counter_value(STORE_CORRUPT_COUNTER), Some(1));
    cleanup(&path);
}

#[test]
fn torn_cache_record_is_quarantined_with_a_typed_error() {
    let path = temp("cache-torn");
    let _ = std::fs::remove_file(&path);
    write_record_atomic(&path, "{\"payload\":\"fine\"}").unwrap();
    assert!(read_record_file(&path).is_ok());

    let body = std::fs::read(&path).unwrap();
    std::fs::write(&path, &body[..body.len() - 3]).unwrap();
    match read_record_file(&path) {
        Err(StoreReadError::Corrupt(c)) => {
            assert_eq!(c.path, path);
            assert_ne!(c.digest, 0);
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

/// The same blocky program the supervision tests use: several
/// eligible composition blocks, so `kill-after-block:1` fires
/// mid-sweep with work left over.
fn blocky() -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 2);
    c
}

#[test]
fn resume_from_a_bit_flipped_checkpoint_starts_fresh_and_matches() {
    // The full crash story end to end: a killed sweep commits a
    // partial checkpoint, the file is bit-flipped on disk (torn
    // write, bit rot), and the resume must detect it, quarantine it,
    // and recompile from scratch to the bit-identical result — never
    // splice corrupt blocks in, never panic.
    let cfg = geyser::PipelineConfig::fast();
    let path = temp("kill-flip-resume");
    cleanup(&path);

    let reference = run_supervised_compile(
        &blocky(),
        &cfg,
        &SupervisedCompileOptions::new(Technique::Geyser),
    )
    .unwrap();

    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut killed = JobSpec::new("crash", Technique::Geyser, blocky(), cfg.clone());
    killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
    killed.checkpoint = Some(path.clone());
    supervisor.submit(killed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Cancelled);
    assert!(path.exists(), "partial checkpoint survives the kill");

    let mut body = std::fs::read(&path).unwrap();
    let at = body.len() / 2;
    body[at] ^= 0x20;
    std::fs::write(&path, &body).unwrap();

    let supervisor = Supervisor::start(SupervisorConfig {
        workers: 1,
        ..SupervisorConfig::default()
    });
    let mut resumed = JobSpec::new("crash", Technique::Geyser, blocky(), cfg);
    resumed.checkpoint = Some(path.clone());
    resumed.resume = true;
    supervisor.submit(resumed).unwrap();
    let results = supervisor.shutdown();
    assert_eq!(results[0].state, JobState::Done);
    let recovered = results[0].compiled.as_ref().unwrap();
    assert_eq!(
        recovered.mapped().circuit().ops(),
        reference.mapped().circuit().ops(),
        "a rejected checkpoint must degrade to a fresh, bit-identical compile"
    );
    let stats = recovered
        .report()
        .and_then(|r| r.supervision.as_ref())
        .unwrap();
    assert_eq!(stats.blocks_resumed, 0, "corrupt blocks must never replay");
    assert!(!stats.resumed_from_checkpoint);
    assert!(
        sidecar_of(&path).is_some(),
        "the corrupt checkpoint must be quarantined, not overwritten in silence"
    );
    cleanup(&path);
}
