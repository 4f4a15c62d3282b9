//! On-disk compilation cache.
//!
//! The Geyser technique's composition search is by far the most
//! expensive stage (minutes for the 16-qubit Heisenberg workload on
//! one core), and every figure binary needs the same compiled
//! circuits. This cache persists each `(workload, technique, seed,
//! budget)` compilation as JSON under `.geyser-cache/` so the full
//! figure suite compiles everything exactly once.
//!
//! The cache is a plain **content-addressed** directory of framed
//! records: each entry lives in its own file at
//! `objects/<hh>/<digest:016x>.json`, written through the store
//! protocol's staged write (a temp file unique per write, then an
//! atomic rename; see [`geyser::store::stage_write`]). Concurrent
//! processes may share one directory: two writers racing to publish
//! the same key both rename byte-identical content, so the last rename
//! wins and no reader ever sees a torn entry. Nothing here deletes a
//! file another writer may still be staging; `repair --prune` is the
//! one reclaimer of temp files, quarantine sidecars and stale-version
//! entries.

use std::path::{Path, PathBuf};

use geyser::store::{load_record_quarantining, write_record_atomic};
use geyser::{
    compile, CompileReport, CompiledCircuit, PipelineConfig, Technique, Telemetry,
    VerificationStats,
};
use geyser_circuit::Circuit;
use geyser_compose::{CompositionStats, SEARCH_VERSION};
use geyser_map::{Layout, MappedCircuit};
use geyser_topology::{Lattice, LatticeKind};
use geyser_verify::VerifyConfig;
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
/// a hardware-spec digest, to 3 when entries moved to the
/// content-addressed layout, to 4 when entries stopped carrying a
/// store generation, and to 5 when the composition search dropped the
/// annealer's Nelder–Mead polish (before the key bound the search).
/// It versions the schema only: the key binds
/// [`geyser_compose::SEARCH_VERSION`], so a change to the search's
/// trajectories bumps that instead. Older entries degrade to a cache
/// miss instead of silently replaying results compiled for a different
/// machine, schema or search.
const CACHE_VERSION: u64 = 5;

/// Default cache root, relative to the working directory.
pub const CACHE_ROOT: &str = ".geyser-cache";

/// Subdirectory holding content-addressed entries, sharded by the top
/// byte of the key digest.
pub const CACHE_OBJECTS_DIR: &str = "objects";

#[derive(Serialize, Deserialize)]
struct CachedCompile {
    version: u64,
    /// Digest of the [`geyser::HardwareSpec`] the entry was compiled
    /// for; a mismatch at load time is a miss, never a replay.
    hardware_digest: u64,
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

/// Serializes tests that relocate the process cwd: the cache root is
/// relative, so they must not interleave.
#[cfg(test)]
pub(crate) static CWD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

/// Content-addressed path of the entry for one `(workload, technique,
/// config, program, search version)` tuple under the cache `root`.
fn entry_path(root: &Path, name: &str, technique: Technique, cfg_tag: &str, fp: u64) -> PathBuf {
    let key = format!(
        "{name}-{}-{cfg_tag}-{fp:016x}-search{SEARCH_VERSION}",
        technique.label().to_lowercase()
    );
    let digest = geyser::store::fnv1a_bytes(key.as_bytes());
    root.join(CACHE_OBJECTS_DIR)
        .join(format!("{:02x}", digest >> 56))
        .join(format!("{digest:016x}.json"))
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
) -> CachedCompile {
    let mapped = compiled.mapped();
    let lattice = mapped.lattice();
    CachedCompile {
        version: CACHE_VERSION,
        hardware_digest: cfg.hardware.digest(),
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
    // an explicit `verification` key serialized as `null` when absent
    // — so `--report`-style consumers see a stable JSON shape whether
    // an entry was compiled or replayed.
    let mut report = CompileReport::new(technique.label());
    if let Some(s) = &stats {
        report.blocks_fell_back = s.blocks_fell_back as u64;
        report.blocks_failed = s.blocks_failed as u64;
    }
    report.verification = cached.verification;
    let mut compiled = CompiledCircuit::from_parts(technique, mapped, stats);
    compiled.attach_report(report);
    Some(compiled)
}

/// Compiles through the on-disk cache: returns the cached compilation
/// when one exists for this exact `(workload, technique, config,
/// program)` tuple; otherwise compiles and stores the result. With a
/// `verify` config the equivalence oracle's verdict travels with the
/// entry:
///
/// * Cache hit with a stored verdict — the verdict is replayed without
///   re-simulating (the oracle is deterministic for the seed encoded
///   in `cfg_tag`).
/// * Cache hit from a pre-verification run — the oracle runs now and
///   the verdict is back-filled into the entry atomically.
/// * Cache miss — compile, verify, store circuit and verdict together.
///
/// Without a `verify` config stored verdicts are returned but none
/// are computed. Cache corruption or version skew degrades gracefully
/// to a fresh compile. `cfg_tag` should encode everything that affects
/// the output (seed, fast/paper budget, workload parameter overrides).
/// Hits bump the `bench.cache_hits` counter, misses
/// `bench.cache_misses`; the returned circuit is bit-identical with
/// telemetry enabled or disabled.
pub(crate) fn compile_cached(
    name: &str,
    program: &Circuit,
    technique: Technique,
    cfg: &PipelineConfig,
    cfg_tag: &str,
    verify: Option<&VerifyConfig>,
    telemetry: &Telemetry,
) -> (CompiledCircuit, Option<VerificationStats>) {
    let path = entry_path(
        Path::new(CACHE_ROOT),
        name,
        technique,
        cfg_tag,
        fingerprint(program),
    );
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
                    store(&path, &compiled, Some(stats.clone()), cfg);
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
    store(&path, &compiled, stats.clone(), cfg);
    (compiled, stats)
}

/// Writes one entry. A failed write (e.g. a read-only filesystem) only
/// costs the next run a recompile, so it is ignored.
fn store(
    path: &Path,
    compiled: &CompiledCircuit,
    verification: Option<VerificationStats>,
    cfg: &PipelineConfig,
) {
    if let Ok(body) = serde_json::to_string(&to_cached(compiled, verification, cfg)) {
        let _ = write_record_atomic(path, &body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geyser::store::{is_corrupt_sidecar, read_record_file, stage_write, walk_files};

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
            let cached = to_cached(&direct, None, &cfg);
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
        let cached = to_cached(&direct, None, &cfg);
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
        let mut cached = to_cached(&direct, None, &cfg);
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
    fn torn_cache_entry_is_quarantined_and_recompiled() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("torn");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        let program = sample_program();
        let cfg = PipelineConfig::fast();
        let telemetry = Telemetry::enabled();
        let (first, _) = compile_cached(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "torn",
            None,
            &telemetry,
        );
        let path = entry_path(
            Path::new(CACHE_ROOT),
            "t",
            Technique::OptiMap,
            "torn",
            fingerprint(&program),
        );
        // Tear the committed entry the way a mid-write kill would.
        let body = std::fs::read(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();

        let (second, _) = compile_cached(
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
        let (_, none) = compile_cached(
            "t",
            &program,
            Technique::Baseline,
            &cfg,
            "s3-fast-st-d",
            None,
            &Telemetry::disabled(),
        );
        assert!(none.is_none());
        let (_, first) = compile_cached(
            "t",
            &program,
            Technique::Baseline,
            &cfg,
            "s3-fast-st-d",
            Some(&vc),
            &Telemetry::disabled(),
        );
        let first = first.expect("verdict computed on back-fill");
        assert!(first.equivalent);

        // Second verified hit replays the stored verdict bit for bit
        // (same seconds field proves it was not re-measured).
        let (_, second) = compile_cached(
            "t",
            &program,
            Technique::Baseline,
            &cfg,
            "s3-fast-st-d",
            Some(&vc),
            &Telemetry::disabled(),
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
        let (first, _) = compile_cached(
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

        let (second, _) = compile_cached(
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
        // Stable schema: absent verdicts serialize as explicit nulls on
        // a replay instead of vanishing.
        let json = report.to_json();
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
        let (first, _) = compile_cached(
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
        let path = entry_path(
            Path::new(CACHE_ROOT),
            "t",
            Technique::OptiMap,
            "skew",
            fingerprint(&program),
        );
        let payload = geyser::store::read_record_file(&path).unwrap();
        let mut entry: CachedCompile = serde_json::from_str(payload.text()).unwrap();
        entry.version = CACHE_VERSION - 1;
        write_record_atomic(&path, &serde_json::to_string(&entry).unwrap()).unwrap();

        let (second, _) = compile_cached(
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
        let (_, _) = compile_cached(
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
        let telemetry = Telemetry::disabled();
        let (first, _) = compile_cached(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "test",
            None,
            &telemetry,
        );
        let (second, _) = compile_cached(
            "t",
            &program,
            Technique::OptiMap,
            &cfg,
            "test",
            None,
            &telemetry,
        );
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
                            let (compiled, _) = compile_cached(
                                "t",
                                &program,
                                Technique::OptiMap,
                                &cfg,
                                &tag,
                                None,
                                &Telemetry::disabled(),
                            );
                            last = compiled.total_pulses();
                        }
                        last
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(pulses[0], pulses[1], "both writers see the same result");

        // One whole, framed entry per tag: no torn file, no sidecar,
        // no temp file left behind.
        let files = walk_files(&Path::new(CACHE_ROOT).join(CACHE_OBJECTS_DIR)).unwrap();
        assert_eq!(files.len(), 3, "one entry per tag: {files:?}");
        for path in &files {
            let payload = read_record_file(path).expect("entry reads back whole");
            assert!(payload.is_framed());
        }

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cached_compile_never_deletes_a_peers_in_flight_write() {
        let _cwd = CWD_LOCK.lock().unwrap();
        let dir = temp_root("peer");
        let _ = std::fs::create_dir_all(&dir);
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();

        // A peer process has staged a cache entry and a reuse-store
        // entry in the shared store but not yet renamed either into
        // place.
        let root = Path::new(CACHE_ROOT);
        let entry = entry_path(root, "peer", Technique::Baseline, "peer", 7);
        let staged_entry = stage_write(&entry, b"entry").unwrap();
        let reuse = root.join("reuse").join("reuse-0000000000000007.json");
        let staged_reuse = stage_write(&reuse, b"reuse").unwrap();

        let program = sample_program();
        let cfg = PipelineConfig::fast();
        compile_cached(
            "t",
            &program,
            Technique::Baseline,
            &cfg,
            "peer",
            None,
            &Telemetry::disabled(),
        );

        staged_entry
            .commit()
            .expect("the peer's cache entry commits");
        staged_reuse
            .commit()
            .expect("the peer's reuse entry commits");
        assert_eq!(std::fs::read(&entry).unwrap(), b"entry");
        assert_eq!(std::fs::read(&reuse).unwrap(), b"reuse");

        std::env::set_current_dir(old).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
