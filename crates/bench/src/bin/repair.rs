//! `fsck` for the on-disk stores: scans a store directory (including
//! the results cache's `objects/` shards), verifies every record's
//! frame (length prefix + FNV checksum) and payload schema,
//! quarantines anything corrupt to a `.corrupt-<digest>` sidecar, and
//! reports what it found.
//!
//! Usage: `repair [--store DIR] [--prune] [--hardware PATH]
//! [--json PATH]`
//!
//! * `--store DIR` — directory to scan (default `.geyser-cache`, the
//!   shared home of the bench results cache and the cross-job reuse
//!   store under `reuse/`).
//! * `--prune` — additionally reclaim debris: delete quarantine
//!   sidecars, stale `.tmp` files from interrupted writes, and cache
//!   entries whose schema version is stale (guaranteed misses).
//!   Sidecars the scan *keeps* — every sidecar without `--prune`,
//!   plus any whose removal failed — are reported with their on-disk
//!   size and age, so operators can see how much quarantine evidence
//!   is accumulating before deciding to reclaim it. Reuse-store entries whose hardware digest or
//!   composition-config hash no longer matches the machine being
//!   repaired (see `--hardware`), or that an older search wrote, are
//!   stale — guaranteed skips for this machine — and are likewise
//!   reclaimed only under `--prune`, with kept/reclaimed bytes
//!   reported in their own section.
//! * `--hardware PATH` — the hardware spec the reuse staleness check
//!   binds to (default: the paper machine). Entries are *current*
//!   when their hardware digest matches and their config hash is one
//!   of the two blessed pipeline configs (`fast`/`paper`) under the
//!   current `SEARCH_VERSION`.
//! * `--json PATH` — write the scan report as JSON.
//!
//! Classification mirrors the loaders exactly: every file goes through
//! the store protocol's validated loader with its store's own schema
//! check — `reuse-*.json` the reuse parse, and every other `.json` the
//! cache schema — so `repair` can never disagree with the pipeline
//! about what is loadable. Any other file (including a `generation`
//! header or `compaction.lock` left by an older cache, and a
//! `ckpt-*.json` composition checkpoint left by an older build) is
//! `unknown` and left alone. Because no store sweeps on open, `--prune` is the one
//! reclaimer of stale `.tmp` files; run it while no bench process
//! writes to the store, since a `.tmp` may be a live writer's staged
//! file. Corrupt files are moved aside
//! under the same sidecar name, structured warning (path + digest)
//! and `store_corrupt_total` accounting the runtime uses.
//!
//! Exits 0 when every surviving file is healthy or safely
//! quarantined, [`exit_codes::FAILURES`] when a corrupt file could
//! not be moved aside (it would still poison the next run), and
//! [`exit_codes::USAGE`] on bad arguments.

use std::path::{Path, PathBuf};

use geyser::store::{
    is_corrupt_sidecar, is_tmp, load_record_quarantining, walk_files, RecordPayload, StoreReadError,
};
use geyser::{HardwareSpec, PipelineConfig, Telemetry};
use geyser_bench::{classify_cache_payload, exit_codes, report_json, CachePayloadStatus};
use geyser_reuse::{is_reuse_entry, parse_reuse_record, reuse_config_hash};
use serde::Serialize;

/// What the scan decided about one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
enum FileStatus {
    /// Frame and payload verified.
    Healthy,
    /// Parses, but its schema version guarantees a cache miss.
    StaleVersion,
    /// A `.corrupt-<digest>` sidecar from an earlier quarantine.
    Sidecar,
    /// A stray `.tmp` from an interrupted atomic write.
    StaleTmp,
    /// A reuse-store entry bound to the current hardware/config.
    ReuseEntry,
    /// A healthy reuse-store entry bound to another hardware digest or
    /// config hash — a guaranteed skip on this machine, reclaimable
    /// with `--prune`.
    ReuseStale,
    /// Corrupt and moved aside by this scan.
    Quarantined,
    /// Corrupt but the quarantine rename failed; still in place.
    QuarantineFailed,
    /// Unreadable (permissions, vanished mid-scan).
    Unreadable,
    /// Not a store file; left alone.
    Unknown,
}

impl FileStatus {
    fn label(self) -> &'static str {
        match self {
            FileStatus::Healthy => "healthy",
            FileStatus::StaleVersion => "stale-version",
            FileStatus::Sidecar => "sidecar",
            FileStatus::StaleTmp => "stale-tmp",
            FileStatus::ReuseEntry => "reuse-entry",
            FileStatus::ReuseStale => "reuse-stale",
            FileStatus::Quarantined => "quarantined",
            FileStatus::QuarantineFailed => "quarantine-failed",
            FileStatus::Unreadable => "unreadable",
            FileStatus::Unknown => "unknown",
        }
    }
}

#[derive(Serialize)]
struct FileReport {
    path: String,
    status: FileStatus,
    /// Whether `--prune` deleted the file.
    pruned: bool,
    /// On-disk size, reported for quarantine sidecars and reuse-store
    /// entries (`null` otherwise).
    bytes: Option<u64>,
    /// Seconds since last modification, reported for quarantine
    /// sidecars (`null` otherwise) — how long the evidence has been
    /// sitting there.
    age_secs: Option<u64>,
}

#[derive(Serialize)]
struct RepairReport {
    store: String,
    scanned: usize,
    healthy: usize,
    quarantined: usize,
    quarantine_failed: usize,
    pruned: usize,
    /// Quarantine sidecars still on disk after this scan (evidence
    /// kept, not pruned).
    sidecars_kept: usize,
    /// Total bytes those kept sidecars occupy.
    sidecar_bytes_total: u64,
    /// Age in seconds of the oldest kept sidecar (0 when none).
    sidecar_oldest_age_secs: u64,
    /// Reuse-store entries bound to the current hardware/config.
    reuse_entries: usize,
    /// Reuse-store entries bound elsewhere (guaranteed skips here).
    reuse_stale: usize,
    /// Bytes occupied by reuse entries still on disk after this scan.
    reuse_bytes_kept: u64,
    /// Bytes of stale reuse entries reclaimed by `--prune`.
    reuse_bytes_reclaimed: u64,
    /// Final `store_corrupt_total` counter value for this scan.
    store_corrupt_total: u64,
    files: Vec<FileReport>,
}

struct Args {
    store: PathBuf,
    prune: bool,
    hardware: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: repair [--store DIR] [--prune] [--hardware PATH] [--json PATH]");
    std::process::exit(exit_codes::USAGE);
}

fn parse_args() -> Args {
    let mut args = Args {
        store: PathBuf::from(".geyser-cache"),
        prune: false,
        hardware: None,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--store" => match it.next() {
                Some(dir) => args.store = PathBuf::from(dir),
                None => usage(),
            },
            "--prune" => args.prune = true,
            "--hardware" => match it.next() {
                Some(path) => args.hardware = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--json" => match it.next() {
                Some(path) => args.json = Some(PathBuf::from(path)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag '{other}'");
                usage();
            }
        }
    }
    args
}

/// The hardware/config binding reuse entries are judged against: the
/// repaired machine's hardware digest plus the config hashes of the
/// two blessed pipeline configurations under the current search.
/// Anything else is stale *for this machine* — still loadable, but a
/// guaranteed skip.
struct ReuseBinding {
    hardware_digest: u64,
    config_hashes: [u64; 2],
}

impl ReuseBinding {
    fn new(hardware: &HardwareSpec) -> Self {
        let hash = |cfg: &PipelineConfig| {
            let c = cfg.composition;
            reuse_config_hash(
                c.epsilon,
                c.max_layers,
                c.anneal_iters,
                c.restarts,
                c.retry_attempts,
            )
        };
        ReuseBinding {
            hardware_digest: hardware.digest(),
            config_hashes: [
                hash(&PipelineConfig::fast()),
                hash(&PipelineConfig::paper()),
            ],
        }
    }

    fn is_current(&self, hardware_digest: u64, config_hash: u64) -> bool {
        hardware_digest == self.hardware_digest && self.config_hashes.contains(&config_hash)
    }
}

/// Size and age (seconds since last modification) of a quarantine
/// sidecar. Either is `None` when the filesystem withholds it — a
/// vanished file or a platform without mtime support degrades to an
/// unsized, age-unknown entry rather than a scan failure.
fn sidecar_stats(path: &Path) -> (Option<u64>, Option<u64>) {
    let Ok(meta) = std::fs::metadata(path) else {
        return (None, None);
    };
    let age_secs = meta
        .modified()
        .ok()
        .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
        .map(|age| age.as_secs());
    (Some(meta.len()), age_secs)
}

/// The status of a file the store protocol's validated loader refused:
/// quarantined when the rename aside succeeded, still in place when it
/// did not, unreadable when it could not be read at all.
fn refused(e: StoreReadError) -> FileStatus {
    match e {
        StoreReadError::Io(_) => FileStatus::Unreadable,
        StoreReadError::Corrupt(c) if c.quarantined.is_some() => FileStatus::Quarantined,
        StoreReadError::Corrupt(_) => FileStatus::QuarantineFailed,
    }
}

/// One record kind's schema check, judged against the repaired
/// machine's reuse binding.
type SchemaCheck = fn(RecordPayload, &ReuseBinding) -> Result<FileStatus, String>;

/// Classifies one store file, quarantining corruption exactly like
/// the pipeline's own loaders would: every kind goes through the store
/// protocol's validated loader with that store's own schema check.
fn scan_file(path: &Path, binding: &ReuseBinding, telemetry: &Telemetry) -> FileStatus {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if is_corrupt_sidecar(path) {
        return FileStatus::Sidecar;
    }
    if is_tmp(path) {
        return FileStatus::StaleTmp;
    }
    // A `ckpt-*` composition checkpoint left by an older build is no
    // store this build reads: leave it alone rather than quarantine it
    // as a corrupt cache entry.
    if !name.ends_with(".json") || name.starts_with("ckpt-") {
        return FileStatus::Unknown;
    }
    let (label, check): (&str, SchemaCheck) = if is_reuse_entry(path) {
        // Cross-job reuse entry: the reuse schema, then the staleness
        // check against the repaired machine's binding.
        ("reuse", |payload, binding| {
            let record = parse_reuse_record(payload.text())?;
            Ok(
                if binding.is_current(record.hardware_digest, record.config_hash) {
                    FileStatus::ReuseEntry
                } else {
                    FileStatus::ReuseStale
                },
            )
        })
    } else {
        // Results-cache entry.
        ("cache", |payload, _| {
            match classify_cache_payload(payload.text()) {
                CachePayloadStatus::Current => Ok(FileStatus::Healthy),
                CachePayloadStatus::StaleVersion => Ok(FileStatus::StaleVersion),
                CachePayloadStatus::Malformed => Err("cache JSON does not parse".to_string()),
            }
        })
    };
    load_record_quarantining(path, label, telemetry, |p| check(p, binding)).unwrap_or_else(refused)
}

fn main() {
    let args = parse_args();
    let telemetry = Telemetry::enabled();
    let hardware = match &args.hardware {
        Some(path) => match HardwareSpec::load(path) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("error: cannot load hardware spec {}: {e}", path.display());
                std::process::exit(exit_codes::USAGE);
            }
        },
        None => HardwareSpec::paper(),
    };
    let binding = ReuseBinding::new(&hardware);

    if !args.store.is_dir() {
        eprintln!(
            "error: cannot scan {}: not a directory",
            args.store.display()
        );
        std::process::exit(exit_codes::USAGE);
    }
    let paths = walk_files(&args.store).unwrap_or_default();

    let mut files = Vec::new();
    for path in &paths {
        let status = scan_file(path, &binding, &telemetry);
        // Quarantine evidence and reuse entries are sized (and aged,
        // for sidecars) *before* any prune so the report can say what
        // was reclaimed vs. what is still accumulating on disk.
        let (bytes, age_secs) = match status {
            FileStatus::Sidecar => sidecar_stats(path),
            FileStatus::ReuseEntry | FileStatus::ReuseStale => (sidecar_stats(path).0, None),
            _ => (None, None),
        };
        // Debris is only reclaimed on request: sidecars are evidence,
        // stale .tmp files are harmless, stale-version cache entries
        // and stale reuse entries are merely guaranteed misses/skips.
        let reclaimable = matches!(
            status,
            FileStatus::Sidecar
                | FileStatus::StaleTmp
                | FileStatus::StaleVersion
                | FileStatus::ReuseStale
        );
        let pruned = args.prune && reclaimable && std::fs::remove_file(path).is_ok();
        // Quarantine renames the file, so report the original name —
        // relative to the store root so `objects/` shards stay
        // distinguishable.
        let rel = path
            .strip_prefix(&args.store)
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|_| path.display().to_string());
        match (status, bytes, age_secs, pruned) {
            (FileStatus::Sidecar, Some(b), Some(age), false) => {
                println!("{rel}: {} (kept, {b} bytes, {age}s old)", status.label());
            }
            _ => println!(
                "{rel}: {}{}",
                status.label(),
                if pruned { " (pruned)" } else { "" }
            ),
        }
        files.push(FileReport {
            path: rel,
            status,
            pruned,
            bytes,
            age_secs,
        });
    }

    let kept_sidecars: Vec<&FileReport> = files
        .iter()
        .filter(|f| f.status == FileStatus::Sidecar && !f.pruned)
        .collect();
    let sidecar_bytes_total = kept_sidecars.iter().filter_map(|f| f.bytes).sum::<u64>();
    let sidecar_oldest_age_secs = kept_sidecars
        .iter()
        .filter_map(|f| f.age_secs)
        .max()
        .unwrap_or(0);
    let sidecars_kept = kept_sidecars.len();

    let reuse_entries = files
        .iter()
        .filter(|f| f.status == FileStatus::ReuseEntry)
        .count();
    let reuse_stale = files
        .iter()
        .filter(|f| f.status == FileStatus::ReuseStale)
        .count();
    let reuse_bytes_kept = files
        .iter()
        .filter(|f| {
            matches!(f.status, FileStatus::ReuseEntry | FileStatus::ReuseStale) && !f.pruned
        })
        .filter_map(|f| f.bytes)
        .sum::<u64>();
    let reuse_bytes_reclaimed = files
        .iter()
        .filter(|f| f.status == FileStatus::ReuseStale && f.pruned)
        .filter_map(|f| f.bytes)
        .sum::<u64>();

    let report = RepairReport {
        store: args.store.display().to_string(),
        scanned: files.len(),
        healthy: files
            .iter()
            .filter(|f| f.status == FileStatus::Healthy)
            .count(),
        quarantined: files
            .iter()
            .filter(|f| f.status == FileStatus::Quarantined)
            .count(),
        quarantine_failed: files
            .iter()
            .filter(|f| f.status == FileStatus::QuarantineFailed)
            .count(),
        pruned: files.iter().filter(|f| f.pruned).count(),
        sidecars_kept,
        sidecar_bytes_total,
        sidecar_oldest_age_secs,
        reuse_entries,
        reuse_stale,
        reuse_bytes_kept,
        reuse_bytes_reclaimed,
        store_corrupt_total: telemetry
            .counter_value(geyser::store::STORE_CORRUPT_COUNTER)
            .unwrap_or(0),
        files,
    };
    println!(
        "repair: {} — {} file(s), {} healthy, {} quarantined, {} pruned",
        report.store, report.scanned, report.healthy, report.quarantined, report.pruned
    );
    if report.sidecars_kept > 0 {
        println!(
            "repair: keeping {} quarantine sidecar(s), {} byte(s) total, oldest {}s",
            report.sidecars_kept, report.sidecar_bytes_total, report.sidecar_oldest_age_secs
        );
    }
    if report.reuse_entries + report.reuse_stale > 0 {
        println!(
            "repair: {} reuse entr{} current, {} stale, {} byte(s) kept, {} reclaimed",
            report.reuse_entries,
            if report.reuse_entries == 1 {
                "y"
            } else {
                "ies"
            },
            report.reuse_stale,
            report.reuse_bytes_kept,
            report.reuse_bytes_reclaimed
        );
    }

    if let Some(path) = &args.json {
        std::fs::write(path, report_json(&report)).unwrap_or_else(|e| {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(exit_codes::FAILURES);
        });
        println!("(wrote {})", path.display());
    }

    if report.quarantine_failed > 0 {
        eprintln!(
            "error: {} corrupt file(s) could not be quarantined and remain in place",
            report.quarantine_failed
        );
        std::process::exit(exit_codes::FAILURES);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser::store::write_record_atomic;
    use geyser_reuse::{
        reuse_entry_path, BlockFingerprint, ReuseEntry, ReuseKey, ReuseOutcome, ReuseRecord,
    };

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geyser-repair-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes one reuse entry bound to the paper machine and `config_hash`.
    fn reuse_entry(dir: &Path, config_hash: u64) -> PathBuf {
        let key = ReuseKey {
            fingerprint: BlockFingerprint::Canonical {
                dim: 8,
                digest: config_hash,
            },
            hardware_digest: HardwareSpec::paper().digest(),
            config_hash,
        };
        let entry = ReuseEntry {
            outcome: ReuseOutcome::NotCheaper,
            params: Vec::new(),
            layers: 0,
            hsd: 0.0,
            evaluations: 0,
        };
        let record = ReuseRecord::from_entry(&key, None, &entry);
        let path = reuse_entry_path(dir, key.digest());
        write_record_atomic(&path, &serde_json::to_string(&record).unwrap()).unwrap();
        path
    }

    #[test]
    fn leftover_checkpoints_are_unknown_and_left_alone() {
        let dir = tmpdir("ckpt");
        let framed = dir.join("ckpt-adder-4-geyser-s0-fast-std-h0.json");
        write_record_atomic(&framed, "{\"version\": 3, \"blocks\": []}").unwrap();
        let torn = dir.join("ckpt-qft-5-geyser-s0-fast-std-h0.json");
        std::fs::write(&torn, "GEYSREC1 00").unwrap();
        let binding = ReuseBinding::new(&HardwareSpec::paper());
        let telemetry = Telemetry::enabled();
        for path in [&framed, &torn] {
            assert_eq!(scan_file(path, &binding, &telemetry), FileStatus::Unknown);
            assert!(path.exists(), "{} must be left in place", path.display());
        }
        assert_eq!(
            telemetry.counter_value(geyser::store::STORE_CORRUPT_COUNTER),
            None
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reuse_entries_from_the_previous_search_are_stale() {
        let dir = tmpdir("search");
        let c = PipelineConfig::fast().composition;
        // The previous search (SEARCH_VERSION 1) hashed the knobs alone.
        let previous = geyser::store::fnv1a_bytes(
            format!(
                "reuse-cfg|eps={:?}|layers={}|iters={}|restarts={}|retries={}",
                c.epsilon, c.max_layers, c.anneal_iters, c.restarts, c.retry_attempts
            )
            .as_bytes(),
        );
        let current = reuse_config_hash(
            c.epsilon,
            c.max_layers,
            c.anneal_iters,
            c.restarts,
            c.retry_attempts,
        );
        let binding = ReuseBinding::new(&HardwareSpec::paper());
        let telemetry = Telemetry::disabled();
        let old = reuse_entry(&dir, previous);
        let new = reuse_entry(&dir, current);
        assert_eq!(
            scan_file(&old, &binding, &telemetry),
            FileStatus::ReuseStale
        );
        assert_eq!(
            scan_file(&new, &binding, &telemetry),
            FileStatus::ReuseEntry
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
