//! Chaos campaign harness for the compile pipeline.
//!
//! Usage: `chaos --seed S --campaigns N [--fast] [--workloads a,b]
//! [--inject EXTRA] [--json PATH]`
//!
//! Each campaign derives a private seed from the master seed, draws a
//! randomized fault schedule from a menu of `--inject` tokens (clean,
//! a pass panic, a forced composition timeout), compiles one small
//! workload with every technique through a plain [`PassManager`], and
//! then machine-checks the global invariants from
//! [`geyser_verify::invariants`]:
//!
//! 1. every successful compile passes the equivalence oracle — a
//!    fault may cost a typed error or a fallback block, never
//!    correctness.
//!
//! After the fault campaigns, a **reuse leg** seeds a
//! composition-reuse store with a structured (fixed-angle QAOA)
//! compile, rewrites the cached negative entries as bogus `composed`
//! records (simulated bit-rot whose frames and schema still verify),
//! and recompiles twice — once clean, once under the composed
//! `--inject` spec:
//!
//! 2. every replayed composition is re-verified against ε and the
//!    compiled circuit passes the equivalence oracle — the clean
//!    recompile must bounce every doctored entry off the ε gate, and
//!    a planted `reuse-poison,reuse-skip-verify` fault must be caught
//!    by the nonzero `unverified_replays` counter (exit 5).
//!
//! The whole run is a pure function of `--seed`: the same seed and
//! campaign count replay the same schedules, job outcomes, and
//! scorecard. An extra `--inject SPEC` is composed into every
//! campaign's schedule — `--inject miscompile:0` is the standard
//! planted-bug check that the harness really fails (invariant 1,
//! exit 5) when the compiler lies. The reuse leg alone does not catch
//! it, so the campaigns are what keep that check honest.
//!
//! Exits 0 with a scorecard (stdout summary, full JSON via `--json`)
//! when every invariant held, or prints each violation and exits
//! [`exit_codes::CHAOS_INVARIANT`].

use std::path::{Path, PathBuf};

use geyser::store::{read_record_file, walk_files, write_record_atomic};
use geyser::{splitmix64, verify_compiled, FaultInjector, PassManager, Technique};
use geyser_bench::{exit_codes, report_json, Cli};
use geyser_compose::Ansatz;
use geyser_reuse::{is_reuse_entry, parse_reuse_record, ReuseStats};
use geyser_verify::{
    check_campaign_jobs, check_reuse, ChaosInvariant, InvariantViolation, JobObservation,
    ReuseObservation, VerifyConfig,
};
use serde::Serialize;

/// Where the reuse leg's store lives.
const CHAOS_ROOT: &str = ".geyser-chaos";

/// Draws one campaign's fault spec from its seed. The menu only
/// contains faults the pipeline promises to absorb — a violated
/// invariant is therefore always a pipeline bug (or a deliberately
/// planted one via the extra spec), never an expected outcome.
fn draw_schedule(seed: u64) -> &'static str {
    ["", "pass-panic:block", "compose-timeout"][(splitmix64(seed) % 3) as usize]
}

/// Composes the drawn schedule with the user's extra `--inject` spec
/// (empty tokens parse to nothing, so either side may be empty).
fn composed_faults(schedule: &str, extra: Option<&str>) -> FaultInjector {
    let spec = format!("{schedule},{}", extra.unwrap_or(""));
    FaultInjector::parse(&spec).unwrap_or_else(|e| {
        eprintln!("error: composed fault spec '{spec}': {e}");
        std::process::exit(exit_codes::USAGE);
    })
}

/// Everything one campaign produced, scorecard-ready.
#[derive(Serialize)]
struct CampaignCard {
    index: usize,
    seed: u64,
    workload: String,
    inject: String,
    jobs: Vec<JobObservation>,
    violations: Vec<InvariantViolation>,
}

/// The composition-reuse leg (invariant 2: `reuse-verified`): a
/// doctored store's bogus composed entries must bounce off the ε
/// re-verification gate on a clean recompile, and escape — tripping
/// the invariant — only under the injected `reuse-skip-verify` fault.
#[derive(Serialize)]
struct ReuseLegCard {
    seed: u64,
    /// Entries the seeding compile persisted to the leg's store.
    store_entries: u64,
    /// Negative entries rewritten as bogus `composed` records.
    doctored: u64,
    /// Observation of the clean (fault-free) recompile.
    clean: ReuseObservation,
    /// ε-gate rejections the clean recompile recorded — the doctored
    /// entries bouncing off.
    clean_rejected: u64,
    /// Observation of the recompile under the composed `--inject`.
    faulted: ReuseObservation,
    violations: Vec<InvariantViolation>,
}

/// The whole run's scorecard.
#[derive(Serialize)]
struct Scorecard {
    seed: u64,
    campaigns: Vec<CampaignCard>,
    /// The composition-reuse leg (invariant 2).
    reuse: ReuseLegCard,
    total_jobs: usize,
    violations_total: usize,
}

/// Runs one campaign end to end and returns its scorecard entry.
fn run_campaign(
    cli: &Cli,
    index: usize,
    master_seed: u64,
    techniques: &[Technique],
) -> CampaignCard {
    let seed = splitmix64(master_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let faults = composed_faults(draw_schedule(seed), cli.inject.as_deref());

    // Small workloads keep a campaign to seconds; the faults under
    // test act on the pipeline, not on the annealer.
    let pool: Vec<_> = cli
        .selected_workloads(false)
        .into_iter()
        .filter(|w| w.num_qubits <= 5)
        .collect();
    assert!(
        !pool.is_empty(),
        "workload filter left nothing small enough for chaos"
    );
    let workload = pool[(splitmix64(seed ^ 1) % pool.len() as u64) as usize];
    let program = cli.build(&workload);
    let mut cfg = cli.pipeline_config().with_seed(seed);
    // A single ansatz layer and one restart cap each block's search at
    // a fraction of a second even in debug builds, while the fault
    // paths and verification all still run.
    cfg.composition.max_layers = 1;
    cfg.composition.anneal_iters = cfg.composition.anneal_iters.min(8);
    cfg.composition.restarts = 1;
    cfg.composition.retry_attempts = 0;
    let vcfg = VerifyConfig::default().with_seed(seed);

    let jobs: Vec<JobObservation> = techniques
        .iter()
        .map(|&t| {
            let result = PassManager::for_technique(t)
                .with_faults(faults.clone())
                .with_telemetry(cli.telemetry.clone())
                .run(&program, &cfg);
            JobObservation {
                workload: workload.name.to_string(),
                technique: t.label().to_string(),
                verified_equivalent: result
                    .as_ref()
                    .ok()
                    .map(|c| verify_compiled(&program, c, &vcfg).equivalent),
                error: result.err().map(|e| e.to_string()),
            }
        })
        .collect();
    let violations = check_campaign_jobs(&jobs);

    CampaignCard {
        index,
        seed,
        workload: workload.name.to_string(),
        inject: faults.spec(),
        jobs,
        violations,
    }
}

/// Rewrites every cached *negative* entry in the leg's reuse store as
/// a bogus `composed` record with plausible 1-layer ansatz parameters
/// — simulated bit-rot (or a stale-era store) whose frames and schema
/// still verify, so only the ε re-verification gate stands between
/// the garbage and the output. Returns how many entries were doctored.
fn doctor_reuse_store(dir: &Path) -> u64 {
    let paths = walk_files(dir).unwrap_or_default();
    let ansatz = Ansatz::new(1);
    let mut doctored = 0u64;
    for path in paths.into_iter().filter(|p| is_reuse_entry(p)) {
        let Ok(payload) = read_record_file(&path) else {
            continue;
        };
        let Ok(mut record) = parse_reuse_record(payload.text()) else {
            continue;
        };
        if record.outcome == "composed" {
            continue;
        }
        record.outcome = "composed".to_string();
        record.layers = 1;
        record.hsd = 1e-9;
        record.params = (0..ansatz.num_params())
            .map(|i| 0.11 + 0.37 * i as f64)
            .collect();
        let json = serde_json::to_string_pretty(&record).expect("reuse record serializes");
        write_record_atomic(&path, &json).expect("doctor reuse entry");
        doctored += 1;
    }
    doctored
}

/// Converts a compile's [`ReuseStats`] plus the oracle's verdict into
/// the plain-data observation the reuse invariant consumes.
fn observe_reuse(stats: &ReuseStats, verified_equivalent: Option<bool>) -> ReuseObservation {
    ReuseObservation {
        blocks_fingerprinted: stats.blocks_fingerprinted,
        exact_hits: stats.exact_hits,
        unverified_replays: stats.unverified_replays,
        verified_equivalent,
    }
}

/// Runs the composition-reuse leg: seed a store with a structured
/// compile, doctor the cached negative entries into bogus composed
/// records, then recompile clean (the ε gate must bounce every bogus
/// replay) and once more under the composed `--inject` spec (a
/// planted `reuse-poison,reuse-skip-verify` must trip invariant 2).
fn run_reuse_leg(cli: &Cli) -> ReuseLegCard {
    let seed = splitmix64(cli.seed ^ 0x5eed_5eed_5eed_5eed);
    let workdir = PathBuf::from(CHAOS_ROOT).join("reuse");
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir).expect("create reuse workdir");
    let store = workdir.join("store");

    // A fixed-angle QAOA is the canonical structured workload: its
    // repeated layers guarantee exact fingerprint hits. The chaos
    // budget caps the per-block search like the fault campaigns do —
    // the leg stresses the replay gate, not the annealer.
    let circuit = geyser_workloads::qaoa_fixed(4, 4, seed);
    let mut cfg = cli
        .pipeline_config()
        .with_seed(seed)
        .with_reuse_store(&store);
    cfg.composition.max_layers = 1;
    cfg.composition.anneal_iters = cfg.composition.anneal_iters.min(8);
    cfg.composition.restarts = 1;
    cfg.composition.retry_attempts = 0;
    let vcfg = VerifyConfig::default().with_seed(seed);

    let compile = |faults: FaultInjector| {
        let compiled = PassManager::for_technique(Technique::Geyser)
            .with_faults(faults)
            .with_telemetry(cli.telemetry.clone())
            .run(&circuit, &cfg)
            .expect("reuse leg compiles");
        let stats = compiled
            .report()
            .and_then(|r| r.reuse)
            .expect("reuse stats present when reuse is on");
        let verified = verify_compiled(&circuit, &compiled, &vcfg).equivalent;
        (stats, verified)
    };

    // Seed run: populate the store with honest entries.
    let (seed_stats, seed_verified) = compile(FaultInjector::none());
    assert!(seed_verified, "the seeding compile must be clean");
    let doctored = doctor_reuse_store(&store);

    // Clean recompile over the doctored store: every bogus composed
    // replay must bounce off the ε gate, and the output must still
    // pass the oracle.
    let (clean_stats, clean_verified) = compile(FaultInjector::none());
    let clean = observe_reuse(&clean_stats, Some(clean_verified));
    let mut violations = check_reuse(&clean);
    if clean.exact_hits == 0 && clean_stats.exact_hits_rejected == 0 {
        // A leg that replays nothing proves nothing: the structured
        // workload guarantees repeated fingerprints, so a recompile
        // that neither accepted nor bounced a single cached entry
        // means the reuse plumbing regressed.
        violations.push(InvariantViolation::new(
            ChaosInvariant::ReuseVerified,
            "the clean recompile replayed no cached entries — the reuse index is inert".to_string(),
        ));
    }

    // Faulted recompile: the composed `--inject` spec is applied to
    // the same store. With `reuse-poison,reuse-skip-verify` planted,
    // the doctored entries escape unverified and invariant 2 trips.
    let faults = match cli.inject.as_deref() {
        Some(spec) => FaultInjector::parse(spec).expect("validated in main"),
        None => FaultInjector::none(),
    };
    let (faulted_stats, faulted_verified) = compile(faults);
    let faulted = observe_reuse(&faulted_stats, Some(faulted_verified));
    violations.extend(check_reuse(&faulted));

    ReuseLegCard {
        seed,
        store_entries: seed_stats.store_entries_saved,
        doctored,
        clean,
        clean_rejected: clean_stats.exact_hits_rejected,
        faulted,
        violations,
    }
}

fn main() {
    let cli = Cli::parse();
    // Reject a malformed --inject up front, not on the first campaign
    // that happens to compose it.
    if let Some(extra) = cli.inject.as_deref() {
        if let Err(e) = FaultInjector::parse(extra) {
            eprintln!("error: --inject: {e}");
            std::process::exit(exit_codes::USAGE);
        }
    }
    let techniques = cli.effective_techniques(&[Technique::Baseline, Technique::Geyser]);

    let mut campaigns = Vec::new();
    for index in 0..cli.campaigns {
        let card = run_campaign(&cli, index, cli.seed, &techniques);
        println!(
            "campaign {index:>3}: seed={:016x} workload={} inject='{}' jobs={} violations={}",
            card.seed,
            card.workload,
            card.inject,
            card.jobs.len(),
            card.violations.len()
        );
        campaigns.push(card);
    }

    // Composition-reuse leg: doctored store vs the ε replay gate.
    let reuse = run_reuse_leg(&cli);
    println!(
        "reuse leg: seed={:016x} entries={} doctored={} hits={} rejected={} violations={}",
        reuse.seed,
        reuse.store_entries,
        reuse.doctored,
        reuse.clean.exact_hits,
        reuse.clean_rejected,
        reuse.violations.len()
    );

    let total_jobs = campaigns.iter().map(|c| c.jobs.len()).sum();
    let violations_total: usize =
        campaigns.iter().map(|c| c.violations.len()).sum::<usize>() + reuse.violations.len();
    let scorecard = Scorecard {
        seed: cli.seed,
        campaigns,
        reuse,
        total_jobs,
        violations_total,
    };
    if let Some(path) = &cli.json {
        std::fs::write(path, report_json(&scorecard))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
    println!(
        "chaos: seed {} — {} campaign(s), {} job(s), {} violation(s)",
        scorecard.seed,
        scorecard.campaigns.len(),
        scorecard.total_jobs,
        scorecard.violations_total
    );
    if violations_total > 0 {
        for card in &scorecard.campaigns {
            for v in &card.violations {
                eprintln!(
                    "error: campaign {} (seed {:016x}, inject '{}'): {v}",
                    card.index, card.seed, card.inject
                );
            }
        }
        for v in &scorecard.reuse.violations {
            eprintln!("error: reuse leg: {v}");
        }
        std::process::exit(exit_codes::CHAOS_INVARIANT);
    }
}
