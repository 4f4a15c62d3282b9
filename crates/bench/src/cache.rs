//! Multi-process shared compilation cache.
//!
//! The Geyser technique's composition search is by far the most
//! expensive stage (minutes for the 16-qubit Heisenberg workload on
//! one core), and every figure binary needs the same compiled
//! circuits. This cache persists each `(workload, technique, seed,
//! budget)` compilation as JSON under `.geyser-cache/` so the full
//! figure suite compiles everything exactly once.
//!
//! The store is safe to share between concurrent processes (bench
//! runs pointed at the same directory):
//!
//! * Entries are **content-addressed**: each lives in its own file at
//!   `objects/<hh>/<digest:016x>.json`, written through the store
//!   protocol's staged write (a temp file unique per write, then an
//!   atomic rename; see [`geyser::store::stage_write`]). Two processes
//!   racing to publish the same key both rename byte-identical content
//!   — last rename wins, no torn state.
//! * A framed **generation header** at the store root records how many
//!   compactions have committed. Compaction bumps it with the same
//!   stage+commit protocol, so a crash mid-compaction leaves either the
//!   old or the new generation on disk, never a mix.
//! * Compaction itself is serialized by an advisory **lock file**
//!   created with `O_EXCL` semantics; a holder that died is detected
//!   by the age stamped inside the lock and taken over.

use std::path::{Path, PathBuf};

use geyser::store::{
    clean_stale_tmp, encode_record, is_corrupt_sidecar, load_record_quarantining, read_record_file,
    remove_stale_tmp, stage_write, walk_files, write_record_atomic, RecordPayload, StoreReadError,
};
use geyser::{
    compile, CompileReport, CompiledCircuit, PipelineConfig, Technique, Telemetry,
    VerificationStats,
};
use geyser_circuit::Circuit;
use geyser_compose::CompositionStats;
use geyser_map::{Layout, MappedCircuit};
use geyser_topology::{Lattice, LatticeKind};
use geyser_verify::{CacheGenerationObservation, VerifyConfig};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct CachedStats {
    blocks_total: usize,
    blocks_eligible: usize,
    blocks_composed: usize,
    pulses_before: u64,
    pulses_after: u64,
    blocks_fell_back: usize,
    blocks_failed: usize,
    blocks_cancelled: usize,
    blocks_resumed: usize,
    max_accepted_hsd: f64,
}

/// On-disk schema version. Bumped to 2 when entries started binding to
/// a hardware-spec digest, and to 3 when the store became shared
/// (content-addressed layout, entries stamped with the generation they
/// were written under). Older entries degrade to a cache miss instead
/// of silently replaying results compiled for a different machine or
/// schema.
const CACHE_VERSION: u64 = 3;

/// Schema version of the generation header record.
const GENERATION_VERSION: u64 = 1;

/// Default cache root, relative to the working directory (matching the
/// composition checkpoints that live beside it).
pub const CACHE_ROOT: &str = ".geyser-cache";

/// Subdirectory holding content-addressed entries, sharded by the top
/// byte of the key digest.
pub const CACHE_OBJECTS_DIR: &str = "objects";

/// File name of the framed generation header at the store root.
pub const CACHE_GENERATION_FILE: &str = "generation";

/// File name of the advisory compaction lock at the store root.
pub const CACHE_COMPACTION_LOCK: &str = "compaction.lock";

/// Age (against the timestamp stamped inside the lock) after which a
/// compaction lock is presumed orphaned by a dead process and taken
/// over.
pub const CACHE_LOCK_STALE_MS: u64 = 60_000;

#[derive(Serialize, Deserialize)]
struct GenerationHeader {
    version: u64,
    generation: u64,
}

#[derive(Serialize, Deserialize)]
struct CachedCompile {
    version: u64,
    /// Digest of the [`geyser::HardwareSpec`] the entry was compiled
    /// for; a mismatch at load time is a miss, never a replay.
    hardware_digest: u64,
    /// Store generation current when the entry was published. An entry
    /// claiming a generation the header never committed is the
    /// signature of a lost rename — flagged by [`scan_generation`],
    /// ignored by the loader (the entry itself is still replayable).
    generation: u64,
    lattice_kind: String,
    rows: usize,
    cols: usize,
    /// Atom spacing the lattice was built with (spec geometry).
    spacing: f64,
    /// Interaction radius the lattice was built with (spec geometry).
    radius: f64,
    circuit: Circuit,
    initial_node_of: Vec<usize>,
    final_node_of: Vec<usize>,
    num_logical: usize,
    swaps: usize,
    stats: Option<CachedStats>,
    /// Equivalence-oracle verdict recorded when the entry was written
    /// (or back-filled by a later `--verify` run). The oracle is
    /// deterministic for a given seed and the seed is part of the
    /// cache key, so a stored verdict can be replayed verbatim.
    verification: Option<VerificationStats>,
}

/// Telemetry counter bumped when a cache entry parses but cannot be
/// replayed — stale schema version or a foreign hardware digest.
/// Distinct from `bench.cache_misses` (which also counts cold misses)
/// so version skew after an upgrade is visible as such.
pub const CACHE_VERSION_MISS_COUNTER: &str = "bench.cache_version_miss_total";

/// How a frame-valid cache payload classifies for the `repair`
/// scanner, which cannot see the private [`CachedCompile`] schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePayloadStatus {
    /// Parses and carries the current schema version.
    Current,
    /// Parses but was written by an older schema — a guaranteed cache
    /// miss that `repair --prune` may reclaim.
    StaleVersion,
    /// Frame verified but the payload is not a cache entry at all.
    Malformed,
}

/// Classifies a frame-valid payload against the cache entry schema.
pub fn classify_cache_payload(payload: &str) -> CachePayloadStatus {
    match serde_json::from_str::<CachedCompile>(payload) {
        Ok(entry) if entry.version == CACHE_VERSION => CachePayloadStatus::Current,
        Ok(_) => CachePayloadStatus::StaleVersion,
        Err(_) => CachePayloadStatus::Malformed,
    }
}

/// FNV-1a fingerprint of a circuit's debug form — changes whenever the
/// workload generator's output changes, invalidating stale entries.
fn fingerprint(program: &Circuit) -> u64 {
    geyser::store::fnv1a_bytes(format!("{program:?}").as_bytes())
}

/// Digest addressing one `(workload, technique, config, program)`
/// tuple inside the object store.
fn key_digest(name: &str, technique: Technique, cfg_tag: &str, fp: u64) -> u64 {
    let key = format!(
        "{name}-{}-{cfg_tag}-{fp:016x}",
        technique.label().to_lowercase()
    );
    geyser::store::fnv1a_bytes(key.as_bytes())
}

/// Every file under the object tree, sorted; an unreadable tree reads
/// as empty.
fn object_files(objects: &Path) -> Vec<PathBuf> {
    walk_files(objects).unwrap_or_default()
}

/// Whether a path names a cache entry (quarantine sidecars and temp
/// files carry other extensions).
fn is_entry_file(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "json")
}

/// Outcome of one [`SharedCache::compact`] attempt.
#[derive(Debug, Clone, Copy)]
pub struct CompactionOutcome {
    /// Whether this process committed a compaction. `false` means the
    /// lock was held by a live peer (their compaction counts) or the
    /// commit was aborted by an injected crash.
    pub performed: bool,
    /// Files reclaimed: stale-version entries, quarantine sidecars,
    /// and orphaned temp files.
    pub pruned: u64,
    /// Store generation after the attempt.
    pub generation: u64,
}

/// Handle on a shared on-disk compile cache rooted at one directory.
///
/// Opening is cheap (one header read plus a stale-temp sweep) and safe
/// to repeat; every bench process opens its own handle on the same
/// root.
pub struct SharedCache {
    root: PathBuf,
    generation: u64,
}

impl SharedCache {
    /// Opens (creating if needed) the shared cache at `root`: builds
    /// the object tree, sweeps temp files orphaned by crashed writers,
    /// and loads — or initializes — the generation header. A corrupt
    /// header is quarantined and re-seeded at the highest generation
    /// any live entry claims, so healing never makes existing entries
    /// read as written "in the future".
    pub fn open(root: &Path, telemetry: &Telemetry) -> std::io::Result<SharedCache> {
        let objects = root.join(CACHE_OBJECTS_DIR);
        std::fs::create_dir_all(&objects)?;
        clean_stale_tmp(root, telemetry);
        remove_stale_tmp(&object_files(&objects), telemetry);
        let gen_path = root.join(CACHE_GENERATION_FILE);
        // A frame-corrupt header is quarantined; one that merely fails
        // the schema is re-seeded in place.
        let loaded = load_record_quarantining(&gen_path, "cache", telemetry, |payload| {
            Ok(serde_json::from_str::<GenerationHeader>(payload.text())
                .ok()
                .filter(|h| h.generation > 0)
                .map(|h| h.generation))
        })
        .unwrap_or(None);
        let generation = match loaded {
            Some(g) => g,
            None => {
                let floor = max_entry_generation(&objects).max(1);
                let header = GenerationHeader {
                    version: GENERATION_VERSION,
                    generation: floor,
                };
                if let Ok(body) = serde_json::to_string(&header) {
                    let _ = write_record_atomic(&gen_path, &body);
                }
                floor
            }
        };
        Ok(SharedCache {
            root: root.to_path_buf(),
            generation,
        })
    }

    /// The store root this handle was opened on.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The generation loaded at open (or committed by this handle's
    /// own compactions since).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Content-addressed path of the entry for one compile key.
    pub fn entry_path_for(
        &self,
        name: &str,
        technique: Technique,
        cfg_tag: &str,
        fp: u64,
    ) -> PathBuf {
        let digest = key_digest(name, technique, cfg_tag, fp);
        self.root
            .join(CACHE_OBJECTS_DIR)
            .join(format!("{:02x}", digest >> 56))
            .join(format!("{digest:016x}.json"))
    }

    /// Compacts the store: reclaims stale-version entries, quarantine
    /// sidecars, and orphaned temp files, then commits a new
    /// generation. Serialized against concurrent compactors by the
    /// advisory lock file; when a live peer holds the lock this
    /// returns `performed: false` without touching anything.
    ///
    /// `now_ms` drives lock-staleness judgement (the store is
    /// clock-free by design; callers pass their own time base).
    pub fn compact(
        &mut self,
        now_ms: u64,
        telemetry: &Telemetry,
    ) -> std::io::Result<CompactionOutcome> {
        self.compact_inner(now_ms, telemetry, false)
    }

    /// [`Self::compact`] that aborts at the worst possible point — the
    /// new generation header is written to its temp file but never
    /// renamed, and the lock file is left behind, exactly as a
    /// `kill -9` mid-commit would. Chaos hook for the
    /// `kill-mid-compaction` fault; the next [`Self::open`] sweeps the
    /// temp and the next compaction takes over the stale lock.
    pub fn compact_crashing(
        &mut self,
        now_ms: u64,
        telemetry: &Telemetry,
    ) -> std::io::Result<CompactionOutcome> {
        self.compact_inner(now_ms, telemetry, true)
    }

    fn compact_inner(
        &mut self,
        now_ms: u64,
        telemetry: &Telemetry,
        crash_before_commit: bool,
    ) -> std::io::Result<CompactionOutcome> {
        if !self.try_lock(now_ms, telemetry)? {
            return Ok(CompactionOutcome {
                performed: false,
                pruned: 0,
                generation: self.generation,
            });
        }
        let files = object_files(&self.root.join(CACHE_OBJECTS_DIR));
        let mut pruned = remove_stale_tmp(&files, telemetry) as u64;
        for path in &files {
            if is_corrupt_sidecar(path) {
                if std::fs::remove_file(path).is_ok() {
                    pruned += 1;
                }
                continue;
            }
            if !is_entry_file(path) {
                continue;
            }
            // Unlike the hit path, compaction refuses legacy payloads:
            // every entry in the object store was written framed.
            let status =
                load_record_quarantining(path, "cache", telemetry, |payload| match payload {
                    RecordPayload::Legacy(_) => Err("unframed file in cache object store".into()),
                    RecordPayload::Framed(text) => match classify_cache_payload(&text) {
                        CachePayloadStatus::Malformed => {
                            Err("cache entry JSON does not parse".into())
                        }
                        status => Ok(status),
                    },
                });
            if matches!(status, Ok(CachePayloadStatus::StaleVersion))
                && std::fs::remove_file(path).is_ok()
            {
                pruned += 1;
            }
        }
        let header = GenerationHeader {
            version: GENERATION_VERSION,
            generation: self.generation + 1,
        };
        let body = serde_json::to_string(&header)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let staged = stage_write(
            &self.root.join(CACHE_GENERATION_FILE),
            encode_record(&body).as_bytes(),
        )?;
        if crash_before_commit {
            return Ok(CompactionOutcome {
                performed: false,
                pruned,
                generation: self.generation,
            });
        }
        staged.commit()?;
        self.generation += 1;
        let _ = std::fs::remove_file(self.root.join(CACHE_COMPACTION_LOCK));
        Ok(CompactionOutcome {
            performed: true,
            pruned,
            generation: self.generation,
        })
    }

    /// Acquires the advisory compaction lock, taking over a lock whose
    /// holder stopped renewing `CACHE_LOCK_STALE_MS` ago (the holder's
    /// half-written generation temp is swept as part of takeover).
    /// Advisory by construction: two takeovers racing can momentarily
    /// both believe they hold it, which at worst double-runs an
    /// idempotent sweep — the generation commit itself stays atomic.
    fn try_lock(&self, now_ms: u64, telemetry: &Telemetry) -> std::io::Result<bool> {
        use std::io::Write;
        let lock = self.root.join(CACHE_COMPACTION_LOCK);
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock)
            {
                Ok(mut file) => {
                    let _ = write!(file, "{} {now_ms}", std::process::id());
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let held = std::fs::read_to_string(&lock).unwrap_or_default();
                    let held_ms = held
                        .split_whitespace()
                        .nth(1)
                        .and_then(|t| t.parse::<u64>().ok());
                    let stale = held_ms
                        .map(|t| now_ms.saturating_sub(t) >= CACHE_LOCK_STALE_MS)
                        .unwrap_or(true);
                    if !stale {
                        return Ok(false);
                    }
                    clean_stale_tmp(&self.root, telemetry);
                    let _ = std::fs::remove_file(&lock);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }
}

/// Highest generation any parseable entry under `objects` claims —
/// the floor a healed generation header must respect.
fn max_entry_generation(objects: &Path) -> u64 {
    object_files(objects)
        .iter()
        .filter(|path| is_entry_file(path))
        .filter_map(|path| read_record_file(path).ok())
        .filter_map(|payload| serde_json::from_str::<CachedCompile>(payload.text()).ok())
        .map(|entry| entry.generation)
        .max()
        .unwrap_or(0)
}

/// Audits a shared cache root **in place** (no healing, no
/// quarantining) and reports its coherence for the
/// `cache-generation-coherent` chaos invariant. `now_ms` judges lock
/// staleness against the timestamp stamped inside the lock file.
pub fn scan_generation(root: &Path, now_ms: u64) -> CacheGenerationObservation {
    let gen_path = root.join(CACHE_GENERATION_FILE);
    let (generation_parses, generation) = match read_record_file(&gen_path) {
        Ok(payload) => match serde_json::from_str::<GenerationHeader>(payload.text()) {
            Ok(header) if header.generation > 0 => (true, header.generation),
            _ => (false, 0),
        },
        Err(_) => (false, 0),
    };
    let mut corrupt_in_place = 0u64;
    let mut entries_beyond_generation = 0u64;
    for path in object_files(&root.join(CACHE_OBJECTS_DIR)) {
        if !is_entry_file(&path) {
            continue;
        }
        match read_record_file(&path) {
            Ok(payload) if payload.is_framed() => {
                match serde_json::from_str::<CachedCompile>(payload.text()) {
                    Ok(entry) if entry.generation > generation => {
                        entries_beyond_generation += 1;
                    }
                    Ok(_) => {}
                    Err(_) => corrupt_in_place += 1,
                }
            }
            Ok(_) | Err(StoreReadError::Corrupt(_)) => corrupt_in_place += 1,
            Err(StoreReadError::Io(_)) => {}
        }
    }
    let lock_path = root.join(CACHE_COMPACTION_LOCK);
    let stale_lock = match std::fs::read_to_string(&lock_path) {
        Ok(held) => held
            .split_whitespace()
            .nth(1)
            .and_then(|t| t.parse::<u64>().ok())
            .map(|t| now_ms.saturating_sub(t) >= CACHE_LOCK_STALE_MS)
            .unwrap_or(true),
        Err(_) => false,
    };
    CacheGenerationObservation {
        generation_parses,
        generation,
        corrupt_in_place,
        entries_beyond_generation,
        stale_lock,
    }
}

fn rebuild_lattice(
    kind: &str,
    rows: usize,
    cols: usize,
    spacing: f64,
    radius: f64,
) -> Option<Lattice> {
    let kind = match kind {
        "triangular" => LatticeKind::Triangular,
        "square" => LatticeKind::Square,
        "square_diagonal" => LatticeKind::SquareDiagonal,
        _ => return None,
    };
    Some(Lattice::with_geometry(kind, rows, cols, spacing, radius))
}

fn lattice_kind_tag(kind: LatticeKind) -> &'static str {
    match kind {
        LatticeKind::Triangular => "triangular",
        LatticeKind::Square => "square",
        LatticeKind::SquareDiagonal => "square_diagonal",
    }
}

fn to_cached(
    compiled: &CompiledCircuit,
    verification: Option<VerificationStats>,
    cfg: &PipelineConfig,
    generation: u64,
) -> CachedCompile {
    let mapped = compiled.mapped();
    let lattice = mapped.lattice();
    CachedCompile {
        version: CACHE_VERSION,
        hardware_digest: cfg.hardware.digest(),
        generation,
        lattice_kind: lattice_kind_tag(lattice.kind()).to_string(),
        rows: lattice.rows(),
        cols: lattice.cols(),
        spacing: cfg.hardware.lattice.spacing,
        radius: cfg.hardware.lattice.radius_for(lattice.kind()),
        circuit: mapped.circuit().clone(),
        initial_node_of: (0..mapped.num_logical())
            .map(|q| mapped.initial_layout().node_of(q))
            .collect(),
        final_node_of: (0..mapped.num_logical())
            .map(|q| mapped.final_layout().node_of(q))
            .collect(),
        num_logical: mapped.num_logical(),
        swaps: mapped.swaps_inserted(),
        stats: compiled.composition_stats().map(|s| CachedStats {
            blocks_total: s.blocks_total,
            blocks_eligible: s.blocks_eligible,
            blocks_composed: s.blocks_composed,
            pulses_before: s.pulses_before,
            pulses_after: s.pulses_after,
            blocks_fell_back: s.blocks_fell_back,
            blocks_failed: s.blocks_failed,
            blocks_cancelled: s.blocks_cancelled,
            blocks_resumed: s.blocks_resumed,
            max_accepted_hsd: s.max_accepted_hsd,
        }),
        verification,
    }
}

fn from_cached(
    cached: CachedCompile,
    technique: Technique,
    expected_digest: u64,
) -> Option<CompiledCircuit> {
    if cached.version != CACHE_VERSION || cached.hardware_digest != expected_digest {
        return None;
    }
    let lattice = rebuild_lattice(
        &cached.lattice_kind,
        cached.rows,
        cached.cols,
        cached.spacing,
        cached.radius,
    )?;
    if cached.circuit.num_qubits() != lattice.num_nodes() {
        return None;
    }
    let initial = Layout::from_assignment(cached.initial_node_of, lattice.num_nodes());
    let final_l = Layout::from_assignment(cached.final_node_of, lattice.num_nodes());
    let mapped = MappedCircuit::from_parts(
        cached.circuit,
        lattice,
        initial,
        final_l,
        cached.num_logical,
        cached.swaps,
    );
    // Entries written before the robustness fields existed fail to
    // deserialize upstream and degrade to a fresh compile, by design.
    let stats = cached.stats.map(|s| CompositionStats {
        blocks_total: s.blocks_total,
        blocks_eligible: s.blocks_eligible,
        blocks_composed: s.blocks_composed,
        pulses_before: s.pulses_before,
        pulses_after: s.pulses_after,
        blocks_fell_back: s.blocks_fell_back,
        blocks_failed: s.blocks_failed,
        blocks_cancelled: s.blocks_cancelled,
        blocks_resumed: s.blocks_resumed,
        max_accepted_hsd: s.max_accepted_hsd,
        // Replayed entries did no reuse work in this process.
        reuse: None,
    });
    // A replayed circuit carries a report with the same schema as a
    // fresh compile — empty pass list (nothing ran in this process),
    // explicit `supervision`/`verification` keys serialized as `null`
    // when absent — so `--report`-style consumers see a stable JSON
    // shape whether an entry was compiled or replayed.
    let mut report = CompileReport::new(technique.label());
    if let Some(s) = &stats {
        report.blocks_fell_back = s.blocks_fell_back as u64;
        report.blocks_failed = s.blocks_failed as u64;
    }
    report.supervision = None;
    report.verification = cached.verification;
    let mut compiled = CompiledCircuit::from_parts(technique, mapped, stats);
    compiled.attach_report(report);
    Some(compiled)
}

/// Compiles through the on-disk cache: returns the cached compilation
/// when one exists for this exact `(workload, technique, config,
/// program)` tuple; otherwise compiles and stores the result.
///
/// Cache corruption or version skew degrades gracefully to a fresh
/// compile. `cfg_tag` should encode everything that affects the
/// output (seed, fast/paper budget, workload parameter overrides).
pub fn compile_cached(
    name: &str,
    program: &Circuit,
    technique: Technique,
    cfg: &PipelineConfig,
    cfg_tag: &str,
) -> CompiledCircuit {
    compile_cached_verified(name, program, technique, cfg, cfg_tag, None).0
}

/// [`compile_cached`] with an optional equivalence-oracle pass whose
/// verdict travels with the cache entry.
///
/// * Cache hit with a stored verdict — the verdict is replayed without
///   re-simulating (the oracle is deterministic for the seed encoded
///   in `cfg_tag`).
/// * Cache hit from a pre-verification run — the oracle runs now and
///   the verdict is back-filled into the entry atomically.
/// * Cache miss — compile, verify, store circuit and verdict together.
///
/// Without a `verify` config this is exactly [`compile_cached`]:
/// stored verdicts are preserved but none are computed.
pub fn compile_cached_verified(
    name: &str,
    program: &Circuit,
    technique: Technique,
    cfg: &PipelineConfig,
    cfg_tag: &str,
    verify: Option<&VerifyConfig>,
) -> (CompiledCircuit, Option<VerificationStats>) {
    compile_cached_verified_traced(
        name,
        program,
        technique,
        cfg,
        cfg_tag,
        verify,
        &Telemetry::disabled(),
    )
}

/// [`compile_cached_verified`] recording cache telemetry: hits bump
/// the `bench.cache_hits` counter, misses `bench.cache_misses`.
/// Observational only — the returned circuit is bit-identical with
/// telemetry enabled or disabled.
#[allow(clippy::too_many_arguments)]
pub fn compile_cached_verified_traced(
    name: &str,
    program: &Circuit,
    technique: Technique,
    cfg: &PipelineConfig,
    cfg_tag: &str,
    verify: Option<&VerifyConfig>,
    telemetry: &Telemetry,
) -> (CompiledCircuit, Option<VerificationStats>) {
    let fp = fingerprint(program);
    let cache = match SharedCache::open(Path::new(CACHE_ROOT), telemetry) {
        Ok(cache) => cache,
        Err(_) => {
            // Unusable store (e.g. read-only filesystem): compile
            // straight through without caching rather than failing.
            let compiled = compile(program, technique, cfg);
            let stats = verify.map(|vc| geyser::verify_compiled(program, &compiled, vc));
            return (compiled, stats);
        }
    };
    let path = cache.entry_path_for(name, technique, cfg_tag, fp);
    // Frame corruption (torn write, bit rot) and a framed payload that
    // fails the schema are both quarantined to a `.corrupt-<digest>`
    // sidecar with a structured warning and a `store_corrupt_total`
    // bump. Both degrade to a miss, but never silently.
    let loaded = load_record_quarantining(&path, "cache", telemetry, |payload| {
        serde_json::from_str::<CachedCompile>(payload.text())
            .map_err(|_| "cache entry JSON does not parse".to_string())
    });
    if let Ok(cached) = loaded {
        let stored = cached.verification.clone();
        if let Some(compiled) = from_cached(cached, technique, cfg.hardware.digest()) {
            telemetry.counter_add("bench.cache_hits", 1);
            let stats = match (verify, stored) {
                (None, stored) => stored,
                (Some(_), Some(stats)) => Some(stats),
                (Some(vc), None) => {
                    let stats = geyser::verify_compiled(program, &compiled, vc);
                    store(
                        &path,
                        &compiled,
                        Some(stats.clone()),
                        cfg,
                        cache.generation(),
                    );
                    Some(stats)
                }
            };
            return (compiled, stats);
        }
        // Parsed, but unusable in this process: schema version or
        // hardware-digest skew. Counted apart from cold misses so
        // operators can tell "cache was empty" from "cache was full of
        // entries a version bump orphaned" — the latter is
        // reclaimable with `repair --prune`.
        telemetry.counter_add(CACHE_VERSION_MISS_COUNTER, 1);
    }
    telemetry.counter_add("bench.cache_misses", 1);
    let compiled = compile(program, technique, cfg);
    let stats = verify.map(|vc| geyser::verify_compiled(program, &compiled, vc));
    store(&path, &compiled, stats.clone(), cfg, cache.generation());
    (compiled, stats)
}

fn store(
    path: &std::path::Path,
    compiled: &CompiledCircuit,
    verification: Option<VerificationStats>,
    cfg: &PipelineConfig,
    generation: u64,
) {
    if let Ok(body) = serde_json::to_string(&to_cached(compiled, verification, cfg, generation)) {
        let _ = write_record_atomic(path, &body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests that relocate the process cwd (the cache root is relative)
    // must not interleave.
    static CWD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn sample_program() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).t(2);
        c
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("geyser-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sidecars_under(root: &Path) -> usize {
        walk_files(root)
            .unwrap()
            .iter()
            .filter(|p| is_corrupt_sidecar(p))
            .count()
    }

    #[test]
    fn roundtrip_preserves_metrics() {
        let program = sample_program();
        let cfg = PipelineConfig::fast();
        for technique in [
            Technique::Baseline,
            Technique::Geyser,
            Technique::Superconducting,
        ] {
            let direct = compile(&program, technique, &cfg);
            let cached = to_cached(&direct, None, &cfg, 1);
            let body = serde_json::to_string(&cached).unwrap();
            let back: CachedCompile = serde_json::from_str(&body).unwrap();
            let rebuilt =
                from_cached(back, technique, cfg.hardware.digest()).expect("rebuild succeeds");
            assert_eq!(rebuilt.total_pulses(), direct.total_pulses());
            assert_eq!(rebuilt.depth_pulses(), direct.depth_pulses());
            assert_eq!(rebuilt.gate_counts(), direct.gate_counts());
            assert_eq!(
                rebuilt.composition_stats().is_some(),
                direct.composition_stats().is_some()
            );
        }
    }

    #[test]
    fn entry_for_a_different_hardware_spec_is_a_miss() {
        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let direct = compile(&program, Technique::Baseline, &cfg);
        let cached = to_cached(&direct, None, &cfg, 1);
        let other = geyser::HardwareSpec::near_term();
        assert!(
            from_cached(cached, Technique::Baseline, other.digest()).is_none(),
            "a digest mismatch must never replay a foreign compilation"
        );
    }

    #[test]
    fn stale_version_entry_is_a_miss() {
        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let direct = compile(&program, Technique::Baseline, &cfg);
        let mut cached = to_cached(&direct, None, &cfg, 1);
        cached.version = CACHE_VERSION - 1;
        assert!(from_cached(cached, Technique::Baseline, cfg.hardware.digest()).is_none());
    }

    #[test]
    fn pre_versioning_entry_fails_to_deserialize() {
        // Entries written before the schema carried `version` /
        // `hardware_digest` / geometry fields look like this. They
        // must fail to parse (→ cache miss upstream), never replay.
        #[derive(Serialize)]
        struct LegacyCachedCompile {
            lattice_kind: String,
            rows: usize,
            cols: usize,
            circuit: Circuit,
            initial_node_of: Vec<usize>,
            final_node_of: Vec<usize>,
            num_logical: usize,
            swaps: usize,
            stats: Option<CachedStats>,
            verification: Option<VerificationStats>,
        }
        let legacy = LegacyCachedCompile {
            lattice_kind: "triangular".into(),
            rows: 2,
            cols: 2,
            circuit: sample_program(),
            initial_node_of: vec![0, 1, 2],
            final_node_of: vec![0, 1, 2],
            num_logical: 3,
            swaps: 0,
            stats: None,
            verification: None,
        };
        let body = serde_json::to_string(&legacy).unwrap();
        assert!(
            serde_json::from_str::<CachedCompile>(&body).is_err(),
            "legacy entries lacking the hardware digest must be invalidated"
        );
    }

    #[test]
    fn fingerprint_distinguishes_programs() {
        let a = sample_program();
        let mut b = sample_program();
        b.h(2);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&sample_program()));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp_behind() {
        let dir = temp_root("atomic");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("entry.json");
        std::fs::write(&path, "old").unwrap();
        write_record_atomic(&path, "new").unwrap();
        let decoded = geyser::store::read_record_file(&path).unwrap();
        assert!(decoded.is_framed(), "cache entries are framed records");
        assert_eq!(decoded.text(), "new");
        let tmps = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().map(|x| x == "tmp").unwrap_or(false))
            .count();
        assert_eq!(tmps, 0, "temp file must be renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_initializes_and_compaction_bumps_the_generation() {
        let root = temp_root("gen");
        let telemetry = Telemetry::enabled();
        let mut cache = SharedCache::open(&root, &telemetry).unwrap();
        assert_eq!(cache.generation(), 1, "fresh store starts at generation 1");
        assert!(root.join(CACHE_GENERATION_FILE).exists());

        let outcome = cache.compact(10_000, &telemetry).unwrap();
        assert!(outcome.performed);
        assert_eq!(outcome.generation, 2);
        assert!(
            !root.join(CACHE_COMPACTION_LOCK).exists(),
            "a committed compaction releases its lock"
        );
        // A second handle (another process) observes the new header.
        let reopened = SharedCache::open(&root, &telemetry).unwrap();
        assert_eq!(reopened.generation(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn live_peer_lock_makes_compaction_a_noop() {
        let root = temp_root("lock");
        let telemetry = Telemetry::enabled();
        let mut cache = SharedCache::open(&root, &telemetry).unwrap();
        // A peer took the lock one second ago (its timestamp, our
        // clock): not stale, so our compaction must back off.
        std::fs::write(root.join(CACHE_COMPACTION_LOCK), "99999 9000").unwrap();
        let outcome = cache.compact(10_000, &telemetry).unwrap();
        assert!(!outcome.performed, "live lock holders are respected");
        assert_eq!(cache.generation(), 1);
        // The same lock judged far later is an orphan: taken over.
        let outcome = cache
            .compact(9_000 + CACHE_LOCK_STALE_MS + 1, &telemetry)
            .unwrap();
        assert!(outcome.performed, "stale locks are taken over");
        assert_eq!(outcome.generation, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crashed_compaction_leaves_the_old_generation_never_a_mix() {
        let root = temp_root("crash");
        let telemetry = Telemetry::enabled();
        let mut cache = SharedCache::open(&root, &telemetry).unwrap();
        let outcome = cache.compact_crashing(5_000, &telemetry).unwrap();
        assert!(!outcome.performed);
        // The wreckage a kill -9 mid-commit leaves behind: old header
        // intact, half-committed temp, orphaned lock.
        assert!(root.join(CACHE_COMPACTION_LOCK).exists());
        let obs = scan_generation(&root, 5_001);
        assert!(obs.generation_parses, "old header must read back clean");
        assert_eq!(obs.generation, 1, "generation is old or new, never mixed");
        assert!(!obs.stale_lock, "a just-orphaned lock is not yet stale");

        // Recovery: the next open sweeps the temp; once the lock ages
        // out, the next compaction takes over and commits.
        let mut reopened = SharedCache::open(&root, &telemetry).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert!(
            telemetry
                .counter_value(geyser::store::STORE_STALE_TMP_CLEANED_COUNTER)
                .unwrap_or(0)
                >= 1,
            "the half-written generation temp is swept at open"
        );
        let outcome = reopened
            .compact(5_000 + CACHE_LOCK_STALE_MS, &telemetry)
            .unwrap();
        assert!(outcome.performed);
        assert_eq!(outcome.generation, 2);
        assert!(!root.join(CACHE_COMPACTION_LOCK).exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_prunes_stale_entries_and_sidecars() {
        let root = temp_root("prune");
        let telemetry = Telemetry::enabled();
        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let mut cache = SharedCache::open(&root, &telemetry).unwrap();

        // A current entry, written the way the compile path does.
        let direct = compile(&program, Technique::Baseline, &cfg);
        let keep = cache.entry_path_for("t", Technique::Baseline, "keep", 1);
        let body = serde_json::to_string(&to_cached(&direct, None, &cfg, 1)).unwrap();
        write_record_atomic(&keep, &body).unwrap();
        // A stale-version entry and a quarantine sidecar beside it.
        let mut stale = to_cached(&direct, None, &cfg, 1);
        stale.version = CACHE_VERSION - 1;
        let stale_path = cache.entry_path_for("t", Technique::Baseline, "stale", 2);
        write_record_atomic(&stale_path, &serde_json::to_string(&stale).unwrap()).unwrap();
        let sidecar = keep.parent().unwrap().join("junk.json.corrupt-00ff");
        std::fs::write(&sidecar, "quarantined bytes").unwrap();

        let outcome = cache.compact(1_000, &telemetry).unwrap();
        assert!(outcome.performed);
        assert_eq!(outcome.pruned, 2, "stale entry + sidecar reclaimed");
        assert!(keep.exists(), "current entries survive compaction");
        assert!(!stale_path.exists());
        assert!(!sidecar.exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scan_flags_each_incoherence_symptom() {
        let root = temp_root("scan");
        let telemetry = Telemetry::enabled();
        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let cache = SharedCache::open(&root, &telemetry).unwrap();
        let direct = compile(&program, Technique::Baseline, &cfg);

        // Coherent store first.
        let good = cache.entry_path_for("t", Technique::Baseline, "good", 1);
        let body = serde_json::to_string(&to_cached(&direct, None, &cfg, 1)).unwrap();
        write_record_atomic(&good, &body).unwrap();
        let obs = scan_generation(&root, 1_000);
        assert!(obs.generation_parses);
        assert_eq!(obs.generation, 1);
        assert_eq!(obs.corrupt_in_place, 0);
        assert_eq!(obs.entries_beyond_generation, 0);
        assert!(!obs.stale_lock);

        // An entry stamped with a generation the header never
        // committed — the signature of a lost rename.
        let future = cache.entry_path_for("t", Technique::Baseline, "future", 2);
        let beyond = serde_json::to_string(&to_cached(&direct, None, &cfg, 99)).unwrap();
        write_record_atomic(&future, &beyond).unwrap();
        // A torn entry left in place (scanners never quarantine).
        let torn = cache.entry_path_for("t", Technique::Baseline, "torn", 3);
        write_record_atomic(&torn, &body).unwrap();
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        // An orphaned lock from a long-dead compactor.
        std::fs::write(root.join(CACHE_COMPACTION_LOCK), "123 0").unwrap();

        let obs = scan_generation(&root, CACHE_LOCK_STALE_MS);
        assert_eq!(obs.corrupt_in_place, 1);
        assert_eq!(obs.entries_beyond_generation, 1);
        assert!(obs.stale_lock);
        let violations = geyser_verify::check_cache_generation(&obs);
        assert_eq!(violations.len(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_cache_entry_is_quarantined_and_recompiled() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("torn");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let telemetry = Telemetry::enabled();
        let (first, _) = compile_cached_verified_traced(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "torn",
            None,
            &telemetry,
        );
        let cache = SharedCache::open(Path::new(CACHE_ROOT), &telemetry).unwrap();
        let path = cache.entry_path_for("t", Technique::OptiMap, "torn", fingerprint(&program));
        // Tear the committed entry the way a mid-write kill would.
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();

        let (second, _) = compile_cached_verified_traced(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "torn",
            None,
            &telemetry,
        );
        assert_eq!(first.total_pulses(), second.total_pulses());
        assert_eq!(
            telemetry.counter_value(geyser::store::STORE_CORRUPT_COUNTER),
            Some(1),
            "corruption must be observable, not a silent miss"
        );
        assert_eq!(telemetry.counter_value("bench.cache_misses"), Some(2));
        assert_eq!(
            sidecars_under(Path::new(CACHE_ROOT)),
            1,
            "torn entry must be quarantined aside"
        );
        // The recompile rewrote a healthy framed entry in place.
        assert!(geyser::store::read_record_file(&path).is_ok());

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verification_verdict_travels_with_the_cache_entry() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("verify");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let vc = VerifyConfig::default().with_seed(3);

        // Write an unverified entry first (pre-`--verify` run), then
        // hit it with verification on: the verdict must be computed
        // once and back-filled.
        let (_, none) = compile_cached_verified(
            "t",
            &program,
            Technique::Baseline,
            &cfg,
            "s3-fast-st-d",
            None,
        );
        assert!(none.is_none());
        let (_, first) = compile_cached_verified(
            "t",
            &program,
            Technique::Baseline,
            &cfg,
            "s3-fast-st-d",
            Some(&vc),
        );
        let first = first.expect("verdict computed on back-fill");
        assert!(first.equivalent);

        // Second verified hit replays the stored verdict bit for bit
        // (same seconds field proves it was not re-measured).
        let (_, second) = compile_cached_verified(
            "t",
            &program,
            Technique::Baseline,
            &cfg,
            "s3-fast-st-d",
            Some(&vc),
        );
        assert_eq!(second.as_ref(), Some(&first));

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_hits_are_counted_and_replay_a_stable_report_shape() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("hits");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let telemetry = Telemetry::enabled();
        let (first, _) = compile_cached_verified_traced(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "hits",
            None,
            &telemetry,
        );
        assert_eq!(telemetry.counter_value("bench.cache_misses"), Some(1));
        assert_eq!(telemetry.counter_value("bench.cache_hits"), None);
        assert!(first.report().is_some(), "fresh compiles carry a report");

        let (second, _) = compile_cached_verified_traced(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "hits",
            None,
            &telemetry,
        );
        assert_eq!(telemetry.counter_value("bench.cache_hits"), Some(1));
        let report = second.report().expect("replays carry a report too");
        assert!(report.passes.is_empty(), "no pass ran in this process");
        assert!(report.supervision.is_none());
        // Stable schema: the telemetry-era keys serialize as explicit
        // nulls on a replay instead of vanishing.
        let json = report.to_json();
        assert!(json.contains("\"supervision\": null"));
        assert!(json.contains("\"verification\": null"));

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_is_counted_apart_from_cold_misses() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("skew");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let telemetry = Telemetry::enabled();
        let (first, _) = compile_cached_verified_traced(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "skew",
            None,
            &telemetry,
        );
        // Cold miss: nothing on disk yet, and no version miss.
        assert_eq!(telemetry.counter_value("bench.cache_misses"), Some(1));
        assert_eq!(telemetry.counter_value(CACHE_VERSION_MISS_COUNTER), None);

        // Rewrite the committed entry as if an older binary had
        // written it: same well-formed payload, previous schema
        // version.
        let cache = SharedCache::open(Path::new(CACHE_ROOT), &telemetry).unwrap();
        let path = cache.entry_path_for("t", Technique::OptiMap, "skew", fingerprint(&program));
        let payload = geyser::store::read_record_file(&path).unwrap();
        let mut entry: CachedCompile = serde_json::from_str(payload.text()).unwrap();
        entry.version = CACHE_VERSION - 1;
        write_record_atomic(&path, &serde_json::to_string(&entry).unwrap()).unwrap();

        let (second, _) = compile_cached_verified_traced(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "skew",
            None,
            &telemetry,
        );
        assert_eq!(first.total_pulses(), second.total_pulses());
        assert_eq!(
            telemetry.counter_value(CACHE_VERSION_MISS_COUNTER),
            Some(1),
            "a parsed-but-stale entry must be visible as version skew"
        );
        assert_eq!(
            telemetry.counter_value("bench.cache_misses"),
            Some(2),
            "version skew still degrades to a miss"
        );

        // The recompile rewrote a current-version entry: clean hit,
        // no further version misses.
        let (_, _) = compile_cached_verified_traced(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "skew",
            None,
            &telemetry,
        );
        assert_eq!(telemetry.counter_value("bench.cache_hits"), Some(1));
        assert_eq!(telemetry.counter_value(CACHE_VERSION_MISS_COUNTER), Some(1));

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_files_round_trip_through_disk() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("roundtrip");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let first = compile_cached("t", &program, Technique::OptiMap, &cfg, "test");
        let second = compile_cached("t", &program, Technique::OptiMap, &cfg, "test");
        assert_eq!(first.total_pulses(), second.total_pulses());
        assert!(dir.join(CACHE_ROOT).join(CACHE_OBJECTS_DIR).exists());

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_share_one_store_without_torn_state() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("race");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        // Two writers hammer the same keys through the shared store at
        // once — the same shape as two processes pointed at one cache
        // dir. Every publish must land whole.
        let pulses: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let program = sample_program();
                        let cfg = PipelineConfig::fast();
                        let mut last = 0;
                        for round in 0..3 {
                            let tag = format!("race-{round}");
                            let compiled =
                                compile_cached("t", &program, Technique::OptiMap, &cfg, &tag);
                            last = compiled.total_pulses();
                        }
                        last
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(pulses[0], pulses[1], "both writers see the same result");

        let obs = scan_generation(Path::new(CACHE_ROOT), 1_000);
        assert!(obs.generation_parses);
        assert_eq!(obs.corrupt_in_place, 0, "no torn entries");
        assert_eq!(obs.entries_beyond_generation, 0);
        assert_eq!(sidecars_under(Path::new(CACHE_ROOT)), 0);
        assert!(
            geyser_verify::check_cache_generation(&obs).is_empty(),
            "concurrent sharing must leave a coherent store"
        );

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
