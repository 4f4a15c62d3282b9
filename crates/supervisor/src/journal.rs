//! Write-ahead job journal: the service core's durability story.
//!
//! Every job lifecycle decision the service layer makes — admitted,
//! attached to a dedup flight, dispatched to a worker, completed,
//! shed, cancelled, failed — is appended to an append-only journal
//! *before* the caller observes it. The journal is a sequence of
//! `GEYSREC1` frames (see [`geyser::store`]) appended over time; each
//! frame's payload is one JSON [`JournalEvent`].
//!
//! **Crash model.** A `kill -9` mid-append leaves a partial final
//! frame. That is not corruption: [`Journal::open`] truncates the
//! torn tail in place (reporting the bytes reclaimed) and resumes —
//! at most the single event being written at the instant of death is
//! lost, and that event's job simply replays as
//! acknowledged-but-incomplete. Anything else wrong with the file
//! (checksum mismatch, garbage at a frame boundary) is real
//! corruption and surfaces as a typed [`JournalError::Corrupt`];
//! opening a fresh journal over it is the *caller's* decision, never
//! a silent one.
//!
//! **Replay.** [`JournalReplay`] folds the event stream into the two
//! sets recovery cares about: jobs with a terminal outcome
//! (`settled`) and jobs that were acknowledged but never settled
//! (`pending`). On restart, [`crate::ServiceCore::recover`] consumes
//! the replay to seed its cost model and tenant budgets, and the host
//! re-admits every pending job **exactly once** — idempotent because
//! duplicate keys collapse in the single-flight layer and settled ids
//! are never re-submitted.
//!
//! **Compaction.** Replay cost is bounded: every
//! [`Journal::COMPACT_EVERY`] appended events the journal rewrites
//! itself (staged temp file + atomic rename) as one `snapshot` marker
//! followed by the folded per-job events — one terminal event per
//! settled job, one admitted (+ dispatched) event per pending job.
//! A crash during compaction leaves either the old journal or the new
//! one on disk, never a mix; the stray `.tmp` is swept at the next
//! open.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use geyser::store::{
    append_record, clean_stale_tmp, decode_segmented, encode_record, read_checked, stage_write,
    truncate_torn_tail, StoreReadError,
};
use geyser::Telemetry;
use serde::{Deserialize, Serialize};

use crate::admission::RejectReason;
use crate::singleflight::JobKey;

/// On-disk journal format version, recorded on every event.
pub const JOURNAL_VERSION: u64 = 1;

/// One job lifecycle event. The vendored serde derive has no
/// attribute support, so the event kinds are flattened into a `kind`
/// discriminator plus a fixed field set (unused fields hold zero /
/// empty), the same idiom the checkpoint store uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u64,
    /// `admitted`, `attached`, `dispatched`, `completed`, `failed`,
    /// `shed`, `cancelled`, or `snapshot`.
    pub kind: String,
    /// The job id (for `snapshot`: settled jobs folded).
    pub id: u64,
    /// Tenant the job bills to (admitted/attached only).
    pub tenant: String,
    /// Technique label (admitted/completed; cost-model seeding).
    pub technique: String,
    /// Scheduler cost estimate (admitted) or measured compile cost
    /// (completed), in cost units.
    pub cost: u64,
    /// FNV-1a digest of the compiled circuit (completed only) or the
    /// leader's job id (attached only).
    pub digest: u64,
    /// [`RejectReason::label`] for shed events; empty otherwise.
    pub reason: String,
    /// Single-flight key: program fingerprint (0 when dedup off).
    pub key_fingerprint: u64,
    /// Single-flight key: hardware digest.
    pub key_hardware: u64,
    /// Single-flight key: pipeline seed.
    pub key_seed: u64,
    /// Host timestamp (ms domain of the owning runtime).
    pub now_ms: u64,
}

impl JournalEvent {
    fn base(kind: &str, id: u64, now_ms: u64) -> Self {
        JournalEvent {
            version: JOURNAL_VERSION,
            kind: kind.to_string(),
            id,
            tenant: String::new(),
            technique: String::new(),
            cost: 0,
            digest: 0,
            reason: String::new(),
            key_fingerprint: 0,
            key_hardware: 0,
            key_seed: 0,
            now_ms,
        }
    }

    /// The job was admitted into the queue as a flight leader.
    pub fn admitted(
        id: u64,
        tenant: &str,
        technique: &str,
        key: Option<&JobKey>,
        cost: u64,
        now_ms: u64,
    ) -> Self {
        let mut ev = JournalEvent::base("admitted", id, now_ms);
        ev.tenant = tenant.to_string();
        ev.technique = technique.to_string();
        ev.cost = cost;
        if let Some(key) = key {
            ev.key_fingerprint = key.fingerprint;
            ev.key_hardware = key.hardware_digest;
            ev.key_seed = key.seed;
        }
        ev
    }

    /// The job attached as a dedup follower of `leader`'s flight.
    pub fn attached(id: u64, tenant: &str, technique: &str, leader: u64, now_ms: u64) -> Self {
        let mut ev = JournalEvent::base("attached", id, now_ms);
        ev.tenant = tenant.to_string();
        ev.technique = technique.to_string();
        ev.digest = leader;
        ev
    }

    /// The job was handed to a worker.
    pub fn dispatched(id: u64, now_ms: u64) -> Self {
        JournalEvent::base("dispatched", id, now_ms)
    }

    /// The job completed successfully; `digest` fingerprints the
    /// compiled circuit and `cost` is the measured compile cost.
    /// Carries the tenant so recovery can re-charge token buckets
    /// even after compaction folds the admitted event away.
    pub fn completed(
        id: u64,
        tenant: &str,
        technique: &str,
        digest: u64,
        cost: u64,
        now_ms: u64,
    ) -> Self {
        let mut ev = JournalEvent::base("completed", id, now_ms);
        ev.tenant = tenant.to_string();
        ev.technique = technique.to_string();
        ev.digest = digest;
        ev.cost = cost;
        ev
    }

    /// The job terminated with a typed failure.
    pub fn failed(id: u64, now_ms: u64) -> Self {
        JournalEvent::base("failed", id, now_ms)
    }

    /// The job was shed with a typed rejection.
    pub fn shed(id: u64, reason: &RejectReason, now_ms: u64) -> Self {
        let mut ev = JournalEvent::base("shed", id, now_ms);
        ev.reason = reason.label().to_string();
        ev
    }

    /// The job was cancelled.
    pub fn cancelled(id: u64, now_ms: u64) -> Self {
        JournalEvent::base("cancelled", id, now_ms)
    }

    /// Compaction marker: `id` counts the settled jobs folded behind
    /// it, `cost` the raw events the rewrite absorbed.
    fn snapshot(settled: u64, folded_events: u64, now_ms: u64) -> Self {
        let mut ev = JournalEvent::base("snapshot", settled, now_ms);
        ev.cost = folded_events;
        ev
    }

    /// Whether this event is a terminal outcome for its job.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self.kind.as_str(),
            "completed" | "failed" | "shed" | "cancelled"
        )
    }
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file holds something other than a journal: a mid-file
    /// frame failed its checksum, a frame boundary holds garbage, or
    /// a frame payload is not a journal event. (A torn *tail* is not
    /// corruption — it is truncated on open.)
    Corrupt {
        /// FNV-1a digest of the offending bytes.
        digest: u64,
        /// What exactly was wrong.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal unreadable: {e}"),
            JournalError::Corrupt { digest, reason } => {
                write!(f, "journal corrupt (digest {digest:016x}): {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<StoreReadError> for JournalError {
    fn from(e: StoreReadError) -> Self {
        match e {
            StoreReadError::Io(e) => JournalError::Io(e),
            StoreReadError::Corrupt(c) => JournalError::Corrupt {
                digest: c.digest,
                reason: c.reason,
            },
        }
    }
}

/// The folded state of a journal: what recovery needs to know.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    settled: BTreeMap<u64, JournalEvent>,
    pending: BTreeMap<u64, JournalEvent>,
    dispatched: BTreeSet<u64>,
    /// Snapshot markers seen (compactions this journal survived).
    pub snapshots: u64,
    /// Raw events folded into this state.
    pub events_applied: u64,
}

impl JournalReplay {
    /// Folds one event into the state.
    pub fn apply(&mut self, event: &JournalEvent) {
        self.events_applied += 1;
        match event.kind.as_str() {
            "admitted" | "attached" if !self.settled.contains_key(&event.id) => {
                self.pending.insert(event.id, event.clone());
            }
            "admitted" | "attached" => {}
            "dispatched" => {
                self.dispatched.insert(event.id);
            }
            "completed" | "failed" | "shed" | "cancelled" => {
                self.pending.remove(&event.id);
                self.dispatched.remove(&event.id);
                self.settled.insert(event.id, event.clone());
            }
            "snapshot" => self.snapshots += 1,
            // Unknown kinds from a future version are skipped, not
            // fatal: old binaries must still recover what they can.
            _ => {}
        }
    }

    /// Terminal outcomes by job id.
    pub fn settled(&self) -> &BTreeMap<u64, JournalEvent> {
        &self.settled
    }

    /// Acknowledged-but-incomplete jobs by id (their admitted /
    /// attached event).
    pub fn pending(&self) -> &BTreeMap<u64, JournalEvent> {
        &self.pending
    }

    /// Whether `id` reached a terminal outcome.
    pub fn is_settled(&self, id: u64) -> bool {
        self.settled.contains_key(&id)
    }

    /// Whether `id` had been handed to a worker before the crash.
    pub fn was_dispatched(&self, id: u64) -> bool {
        self.dispatched.contains(&id)
    }

    /// Ids the host must re-admit, ascending.
    pub fn to_readmit(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalOpenStats {
    /// Bytes of torn tail truncated (0 for a clean or fresh file).
    pub torn_bytes_truncated: u64,
    /// Events replayed from the existing file.
    pub events_replayed: u64,
    /// Stale `.tmp` files swept from the journal's directory.
    pub stale_tmp_cleaned: usize,
}

/// An open write-ahead journal. See the module docs for the format
/// and crash model.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    replay: JournalReplay,
    open_stats: JournalOpenStats,
    events_since_compaction: usize,
    /// Injected crash: the next compaction writes its temp file and
    /// stops before the commit rename (chaos `kill-mid-compaction`).
    crash_next_compaction: bool,
}

impl Journal {
    /// Appends between automatic snapshot compactions.
    pub const COMPACT_EVERY: usize = 256;

    /// Opens (or creates) the journal at `path`: sweeps stale `.tmp`
    /// files from its directory, truncates any torn tail left by a
    /// crash mid-append, and replays the surviving events. A corrupt
    /// journal (not merely torn) is refused with
    /// [`JournalError::Corrupt`] — the caller decides whether to
    /// quarantine and start fresh.
    pub fn open(path: &Path, telemetry: &Telemetry) -> Result<Journal, JournalError> {
        let stale_tmp_cleaned = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => clean_stale_tmp(dir, telemetry),
            _ => 0,
        };
        let mut replay = JournalReplay::default();
        let mut open_stats = JournalOpenStats {
            stale_tmp_cleaned,
            ..JournalOpenStats::default()
        };
        match load_journal_events(path) {
            Ok((events, torn_bytes)) => {
                if torn_bytes > 0 {
                    open_stats.torn_bytes_truncated =
                        truncate_torn_tail(path).map_err(JournalError::from)?;
                }
                for event in &events {
                    replay.apply(event);
                }
                open_stats.events_replayed = events.len() as u64;
            }
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Journal {
            path: path.to_path_buf(),
            replay,
            open_stats,
            events_since_compaction: 0,
            crash_next_compaction: false,
        })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What opening found on disk.
    pub fn open_stats(&self) -> JournalOpenStats {
        self.open_stats
    }

    /// The folded state, kept current as events append.
    pub fn replay(&self) -> &JournalReplay {
        &self.replay
    }

    /// Appends one event durably and folds it into the replay state.
    /// Every [`Journal::COMPACT_EVERY`] appends, the journal compacts
    /// itself so replay cost stays bounded.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        let payload = serde_json::to_string(event)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        append_record(&self.path, &payload)?;
        self.replay.apply(event);
        self.events_since_compaction += 1;
        if self.events_since_compaction >= Journal::COMPACT_EVERY {
            self.compact()?;
        }
        Ok(())
    }

    /// Simulates a `kill -9` mid-append: writes only the first half
    /// of the event's frame, leaving the torn tail a real crash
    /// would. The event is **not** folded into the replay state — the
    /// process is considered dead. Chaos-only
    /// (`kill-mid-journal-append`).
    pub fn append_torn(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        let payload = serde_json::to_string(event)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let frame = encode_record(&payload);
        let half = &frame.as_bytes()[..frame.len() / 2];
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(half)
    }

    /// Arms the injected compaction crash (chaos
    /// `kill-mid-compaction`): the next [`Journal::compact`] stages
    /// its temp file and returns `false` without committing.
    pub fn inject_compaction_crash(&mut self) {
        self.crash_next_compaction = true;
    }

    /// Rewrites the journal as a snapshot: one marker frame, then the
    /// folded per-job events. Staged to a temp file and committed by
    /// atomic rename, so a crash leaves the old journal fully intact.
    /// Returns whether the rewrite committed (`false` only under the
    /// injected compaction crash).
    pub fn compact(&mut self) -> std::io::Result<bool> {
        let mut body = String::new();
        let marker = JournalEvent::snapshot(
            self.replay.settled.len() as u64,
            self.replay.events_applied,
            0,
        );
        let encode = |event: &JournalEvent| -> std::io::Result<String> {
            let payload = serde_json::to_string(event)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            Ok(encode_record(&payload))
        };
        body.push_str(&encode(&marker)?);
        for event in self.replay.settled.values() {
            body.push_str(&encode(event)?);
        }
        for (id, event) in &self.replay.pending {
            body.push_str(&encode(event)?);
            if self.replay.dispatched.contains(id) {
                body.push_str(&encode(&JournalEvent::dispatched(*id, event.now_ms))?);
            }
        }
        let staged = stage_write(&self.path, body.as_bytes())?;
        if self.crash_next_compaction {
            self.crash_next_compaction = false;
            return Ok(false);
        }
        staged.commit()?;
        self.events_since_compaction = 0;
        Ok(true)
    }
}

/// Decodes a journal file's bytes: the events of every intact frame
/// plus the torn-tail byte count (0 when clean). The schema check
/// every journal reader (and `repair`) runs.
pub fn decode_journal(bytes: &[u8]) -> Result<(Vec<JournalEvent>, u64), String> {
    let decoded = decode_segmented(bytes).map_err(|e| e.to_string())?;
    let events = decoded
        .records
        .iter()
        .map(|payload| serde_json::from_str(payload))
        .collect::<Result<Vec<JournalEvent>, _>>()
        .map_err(|_| "frame payload is not a journal event".to_string())?;
    Ok((events, decoded.torn_bytes))
}

/// Loads a journal's events without truncating or mutating anything —
/// the scanner-grade loader the chaos audit uses. Returns the events
/// plus the torn-tail byte count (0 when clean).
pub fn load_journal_events(path: &Path) -> Result<(Vec<JournalEvent>, u64), JournalError> {
    Ok(read_checked(path, decode_journal)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use geyser::{PipelineConfig, Technique};
    use geyser_circuit::Circuit;

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "geyser-journal-test-{}-{tag}.journal",
            std::process::id()
        ))
    }

    fn spec(tenant: &str) -> JobSpec {
        let mut program = Circuit::new(2);
        program.h(0).cx(0, 1);
        JobSpec::new("wl", Technique::OptiMap, program, PipelineConfig::fast()).with_tenant(tenant)
    }

    fn telemetry() -> Telemetry {
        Telemetry::enabled()
    }

    #[test]
    fn events_roundtrip_through_the_journal() {
        let path = temp_journal("roundtrip");
        let _ = std::fs::remove_file(&path);
        let t = telemetry();
        let mut journal = Journal::open(&path, &t).unwrap();
        let s = spec("acme");
        let key = JobKey::derive(&s.program, &s.config.hardware, s.technique, s.config.seed);
        journal
            .append(&JournalEvent::admitted(
                7,
                "acme",
                "OptiMap",
                Some(&key),
                120,
                5,
            ))
            .unwrap();
        journal.append(&JournalEvent::dispatched(7, 6)).unwrap();
        journal
            .append(&JournalEvent::completed(
                7, "acme", "OptiMap", 0xbeef, 117, 30,
            ))
            .unwrap();
        drop(journal);

        let reopened = Journal::open(&path, &t).unwrap();
        assert_eq!(reopened.open_stats().events_replayed, 3);
        assert_eq!(reopened.open_stats().torn_bytes_truncated, 0);
        let replay = reopened.replay();
        assert!(replay.is_settled(7));
        assert!(replay.pending().is_empty());
        let done = &replay.settled()[&7];
        assert_eq!(done.kind, "completed");
        assert_eq!(done.digest, 0xbeef);
        assert_eq!(done.cost, 117);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_event_replays_pending() {
        let path = temp_journal("torn-tail");
        let _ = std::fs::remove_file(&path);
        let t = telemetry();
        let mut journal = Journal::open(&path, &t).unwrap();
        journal
            .append(&JournalEvent::admitted(1, "acme", "OptiMap", None, 100, 0))
            .unwrap();
        journal.append(&JournalEvent::dispatched(1, 1)).unwrap();
        // The completion is torn mid-append: the crash model's worst
        // case. After recovery the job must be pending, not lost and
        // not spuriously completed.
        journal
            .append_torn(&JournalEvent::completed(1, "acme", "OptiMap", 0xd1d, 90, 9))
            .unwrap();
        drop(journal);

        let reopened = Journal::open(&path, &t).unwrap();
        assert!(reopened.open_stats().torn_bytes_truncated > 0);
        assert_eq!(reopened.open_stats().events_replayed, 2);
        let replay = reopened.replay();
        assert!(!replay.is_settled(1));
        assert_eq!(replay.to_readmit(), vec![1]);
        assert!(replay.was_dispatched(1));
        // The journal is appendable again after truncation.
        let mut journal = reopened;
        journal
            .append(&JournalEvent::completed(
                1, "acme", "OptiMap", 0xd1d, 90, 12,
            ))
            .unwrap();
        assert!(journal.replay().is_settled(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_folds_events_and_preserves_state() {
        let path = temp_journal("compaction");
        let _ = std::fs::remove_file(&path);
        let t = telemetry();
        let mut journal = Journal::open(&path, &t).unwrap();
        for id in 0..6u64 {
            journal
                .append(&JournalEvent::admitted(
                    id, "acme", "OptiMap", None, 100, id,
                ))
                .unwrap();
            journal.append(&JournalEvent::dispatched(id, id)).unwrap();
            if id < 4 {
                journal
                    .append(&JournalEvent::completed(
                        id,
                        "acme",
                        "OptiMap",
                        id * 11,
                        100,
                        id + 1,
                    ))
                    .unwrap();
            }
        }
        assert!(journal.compact().unwrap());
        drop(journal);

        let reopened = Journal::open(&path, &t).unwrap();
        let replay = reopened.replay();
        assert_eq!(replay.snapshots, 1);
        assert_eq!(replay.settled().len(), 4);
        assert_eq!(replay.to_readmit(), vec![4, 5]);
        assert!(replay.was_dispatched(4) && replay.was_dispatched(5));
        assert_eq!(replay.settled()[&2].digest, 22);
        // Compacted size: marker + 4 terminal + 2 admitted + 2
        // dispatched = 9 frames instead of 16 raw events.
        assert_eq!(reopened.open_stats().events_replayed, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crashed_compaction_leaves_the_old_journal_intact() {
        let path = temp_journal("compaction-crash");
        let _ = std::fs::remove_file(&path);
        let t = telemetry();
        let mut journal = Journal::open(&path, &t).unwrap();
        journal
            .append(&JournalEvent::admitted(3, "acme", "OptiMap", None, 100, 0))
            .unwrap();
        journal
            .append(&JournalEvent::completed(3, "acme", "OptiMap", 0xabc, 95, 4))
            .unwrap();
        journal.inject_compaction_crash();
        assert!(!journal.compact().unwrap(), "injected crash aborts commit");
        drop(journal);
        // The stray .tmp is on disk; the journal itself is the
        // pre-compaction generation, fully replayable.
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let stray_tmp = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .any(|p| {
                geyser::store::is_tmp(&p)
                    && p.file_name().unwrap().to_string_lossy().starts_with(&name)
            });
        assert!(stray_tmp, "a *.tmp sibling stays behind");
        let reopened = Journal::open(&path, &t).unwrap();
        assert!(
            reopened.open_stats().stale_tmp_cleaned >= 1,
            "open sweeps the stray compaction tmp"
        );
        assert!(reopened.replay().is_settled(3));
        assert_eq!(reopened.replay().settled()[&3].digest, 0xabc);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_compaction_bounds_replay_cost() {
        let path = temp_journal("auto-compact");
        let _ = std::fs::remove_file(&path);
        let t = telemetry();
        let mut journal = Journal::open(&path, &t).unwrap();
        // 3 events per job; well past COMPACT_EVERY raw events in
        // total, but every job settles, so the folded journal stays
        // tiny no matter how many raw events flowed through.
        let jobs = (Journal::COMPACT_EVERY * 2) as u64;
        for id in 0..jobs {
            journal
                .append(&JournalEvent::admitted(
                    id, "acme", "OptiMap", None, 100, id,
                ))
                .unwrap();
            journal.append(&JournalEvent::dispatched(id, id)).unwrap();
            journal
                .append(&JournalEvent::completed(
                    id,
                    "acme",
                    "OptiMap",
                    id,
                    90,
                    id + 1,
                ))
                .unwrap();
        }
        drop(journal);
        let reopened = Journal::open(&path, &t).unwrap();
        let replayed = reopened.open_stats().events_replayed;
        assert!(
            replayed < (jobs * 3) / 2,
            "auto-compaction must fold the stream, replayed {replayed} of {}",
            jobs * 3
        );
        assert_eq!(reopened.replay().settled().len() as u64, jobs);
        assert!(reopened.replay().snapshots >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_journal_is_a_typed_error_not_a_fresh_start() {
        let path = temp_journal("corrupt");
        let _ = std::fs::remove_file(&path);
        let t = telemetry();
        let mut journal = Journal::open(&path, &t).unwrap();
        journal
            .append(&JournalEvent::admitted(0, "acme", "OptiMap", None, 100, 0))
            .unwrap();
        journal
            .append(&JournalEvent::completed(0, "acme", "OptiMap", 1, 90, 2))
            .unwrap();
        drop(journal);
        // Flip a payload byte in the *first* frame: mid-file
        // corruption, not a torn tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = 40; // inside the first frame's payload
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open(&path, &t) {
            Err(JournalError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum"), "reason: {reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scanner_loader_reports_torn_bytes_without_mutating() {
        let path = temp_journal("scanner");
        let _ = std::fs::remove_file(&path);
        let t = telemetry();
        let mut journal = Journal::open(&path, &t).unwrap();
        journal
            .append(&JournalEvent::admitted(0, "acme", "OptiMap", None, 100, 0))
            .unwrap();
        journal
            .append_torn(&JournalEvent::dispatched(0, 1))
            .unwrap();
        drop(journal);
        let len_before = std::fs::metadata(&path).unwrap().len();
        let (events, torn) = load_journal_events(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert!(torn > 0);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len_before,
            "the scanner must not truncate"
        );
        let _ = std::fs::remove_file(&path);
    }
}
