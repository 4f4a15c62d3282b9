//! Chaos campaign harness for the supervised runtime.
//!
//! Usage: `chaos --seed S --campaigns N [--fast] [--workloads a,b]
//! [--watchdog-ms MS] [--max-retries R] [--inject EXTRA] [--json PATH]`
//!
//! Each campaign derives a private seed from the master seed, draws a
//! randomized fault schedule (composed `--inject` tokens: pass panics,
//! hangs, kill-after-block, checkpoint corruption, budget squeezes)
//! plus optional harness-driven cancellation storms, throws it at a
//! fresh supervised runtime with the hung-worker watchdog armed, and
//! then machine-checks the global invariants from
//! [`geyser_verify::invariants`]:
//!
//! 1. no submitted job is silently lost;
//! 2. every terminal job is classified (circuit iff success, typed
//!    error iff not);
//! 3. every successful compile passes the equivalence oracle;
//! 4. every checkpoint resume is bit-identical to an uninterrupted
//!    run;
//! 5. every surviving store file parses or was quarantined to a
//!    `.corrupt-<digest>` sidecar.
//!
//! After the fault campaigns, a **reuse leg** seeds a
//! composition-reuse store with a structured (fixed-angle QAOA)
//! compile, rewrites the cached negative entries as bogus `composed`
//! records (simulated bit-rot whose frames and schema still verify),
//! and recompiles twice — once clean, once under the composed
//! `--inject` spec:
//!
//! 6. every replayed composition is re-verified against ε and the
//!    compiled circuit passes the equivalence oracle — the clean
//!    recompile must bounce every doctored entry off the ε gate, and
//!    a planted `reuse-poison,reuse-skip-verify` fault must be caught
//!    by the nonzero `unverified_replays` counter (exit 5).
//!
//! The whole run is a pure function of `--seed`: the same seed and
//! campaign count replay the same schedules, job outcomes, and
//! scorecard. An extra `--inject SPEC` is composed into every
//! campaign's schedule — `--inject miscompile:0` is the standard
//! planted-bug check that the harness really fails (invariant 3,
//! exit 5) when the compiler lies.
//!
//! Exits 0 with a scorecard (stdout summary, full JSON via `--json`)
//! when every invariant held, or prints each violation and exits
//! [`exit_codes::CHAOS_INVARIANT`].

use std::path::{Path, PathBuf};

use geyser::store::{is_corrupt_sidecar, read_record_file, walk_files, write_record_atomic};
use geyser::{splitmix64, verify_compiled, FaultInjector, PassManager, Technique, Telemetry};
use geyser_bench::{exit_codes, report_json, Cli};
use geyser_circuit::Circuit;
use geyser_compose::Ansatz;
use geyser_reuse::{is_reuse_entry, parse_reuse_record, ReuseStats};
use geyser_supervisor::{
    load_checkpoint, run_supervised_compile, CheckpointError, JobSpec, JobState, RetryPolicy,
    SupervisedCompileOptions, Supervisor, SupervisorConfig, WatchdogConfig,
};
use geyser_verify::{
    check_campaign_jobs, check_reuse, check_store_scan, ChaosInvariant, InvariantViolation,
    JobObservation, ReuseObservation, StoreFileObservation, StoreFileStatus, VerifyConfig,
};
use serde::Serialize;

/// Where campaign workdirs (checkpoints, quarantine sidecars) live.
const CHAOS_ROOT: &str = ".geyser-chaos";

/// Deterministic per-campaign generator: chained [`splitmix64`]
/// outputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// One campaign's drawn schedule: the fault spec composed into every
/// job plus whether the harness cancels the last submitted job.
struct Schedule {
    /// `--inject`-syntax fault spec ("" = clean campaign).
    spec: String,
    /// Cancel the last submitted job right after submission
    /// (cancellation storm).
    storm: bool,
}

/// Draws one schedule from the campaign's seed stream. The menu only
/// contains faults the runtime promises to absorb — a violated
/// invariant is therefore always a runtime bug (or a deliberately
/// planted one via the extra spec), never an expected outcome.
fn draw_schedule(rng: &mut Rng) -> Schedule {
    let (mut tokens, storm): (Vec<String>, bool) = match rng.pick(7) {
        0 => (vec![], false),
        1 => (vec!["pass-panic-once:block".into()], false),
        2 => (vec!["pass-panic:block".into()], false),
        3 => (vec!["hang-pass:block".into()], false),
        4 => (vec!["kill-after-block:1".into()], false),
        5 => (
            vec!["checkpoint-corrupt".into(), "kill-after-block:1".into()],
            false,
        ),
        _ => (vec![], true),
    };
    // A budget squeeze composes with anything that still lets the
    // compile make progress (the degraded fallback path is exactly
    // what it stresses).
    if !storm && rng.pick(3) == 0 {
        tokens.push("compose-timeout".into());
    }
    Schedule {
        spec: tokens.join(","),
        storm,
    }
}

/// Composes the drawn schedule with the user's extra `--inject` spec.
fn composed_faults(schedule: &Schedule, extra: Option<&str>) -> FaultInjector {
    let spec = match (schedule.spec.as_str(), extra) {
        ("", None) => String::new(),
        ("", Some(e)) => e.to_string(),
        (s, None) => s.to_string(),
        (s, Some(e)) => format!("{s},{e}"),
    };
    if spec.is_empty() {
        FaultInjector::none()
    } else {
        FaultInjector::parse(&spec).unwrap_or_else(|e| {
            eprintln!("error: composed fault spec '{spec}': {e}");
            std::process::exit(exit_codes::USAGE);
        })
    }
}

/// Everything one campaign produced, scorecard-ready.
#[derive(Serialize)]
struct CampaignCard {
    index: usize,
    seed: u64,
    workload: String,
    inject: String,
    storm: bool,
    submitted: u64,
    jobs: Vec<JobObservation>,
    store: Vec<StoreFileObservation>,
    violations: Vec<InvariantViolation>,
}

/// The composition-reuse leg (invariant 6: `reuse-verified`): a
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
    /// The composition-reuse leg (invariant 6).
    reuse: ReuseLegCard,
    total_jobs: u64,
    hang_preemptions: u64,
    store_corrupt_total: u64,
    retries: u64,
    violations_total: usize,
}

fn retry_policy(cli: &Cli, seed: u64) -> RetryPolicy {
    RetryPolicy {
        // Transient faults (panic-once, preempted hangs) need at
        // least one retry to demonstrate recovery.
        max_retries: cli.max_retries.max(2),
        base_backoff_ms: 1,
        max_backoff_ms: 4,
        seed,
    }
}

fn supervisor_config(cli: &Cli, seed: u64, queue: usize) -> SupervisorConfig {
    SupervisorConfig {
        // One worker keeps job interleaving — and therefore the
        // scorecard — a pure function of the seed.
        workers: 1,
        queue_capacity: queue.max(1),
        retry: retry_policy(cli, seed),
        // Healthy compiles beat at every pass boundary and after
        // every composed block; injected hangs never beat at all. The
        // slowest single block in the chaos pool takes well under two
        // seconds even in a debug build, so an 8-second default
        // separates the two with a wide margin on any machine.
        watchdog: Some(WatchdogConfig {
            hang_timeout_ms: cli.watchdog_ms.unwrap_or(8_000),
            ..WatchdogConfig::default()
        }),
        ..SupervisorConfig::default()
    }
}

/// Turns one drained job result into the plain-data observation the
/// invariant checks consume, verifying successful compiles against
/// the original program.
fn observe(
    result: &geyser_supervisor::JobResult,
    program: &Circuit,
    vcfg: &VerifyConfig,
) -> JobObservation {
    let verified_equivalent = result
        .compiled
        .as_ref()
        .map(|c| verify_compiled(program, c, vcfg).equivalent);
    JobObservation {
        id: result.id,
        workload: result.workload.clone(),
        state: result.state.label().to_string(),
        has_circuit: result.compiled.is_some(),
        has_error: result.error.is_some(),
        attempts: result.attempts,
        verified_equivalent,
        resume_bit_identical: None,
    }
}

/// Scans every surviving file in the campaign workdir and classifies
/// it for invariant 5. Deterministic: entries are sorted by name.
fn scan_store(dir: &Path) -> Vec<StoreFileObservation> {
    let mut names: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(_) => return Vec::new(),
    };
    names.sort();
    names
        .into_iter()
        .filter(|p| p.is_file())
        .map(|path| {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let status = if is_corrupt_sidecar(&path) {
                StoreFileStatus::Quarantined
            } else if name.ends_with(".tmp") {
                StoreFileStatus::StaleTmp
            } else {
                // The campaign workdir only ever holds checkpoint
                // records, so "parses" means "is a loadable
                // checkpoint" (frame verified, JSON parsed, version
                // current).
                match load_checkpoint(&path) {
                    Ok(_) => StoreFileStatus::Parsed,
                    Err(CheckpointError::Corrupt { .. }) => StoreFileStatus::CorruptInPlace,
                    // The file vanished between listing and reading;
                    // nothing survives to classify.
                    Err(CheckpointError::Io(_)) => StoreFileStatus::StaleTmp,
                }
            };
            StoreFileObservation { path: name, status }
        })
        .collect()
}

/// Runs one campaign end to end and returns its scorecard entry.
fn run_campaign(
    cli: &Cli,
    index: usize,
    master_seed: u64,
    techniques: &[Technique],
) -> CampaignCard {
    let seed = splitmix64(master_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut rng = Rng(seed);
    let schedule = draw_schedule(&mut rng);
    let faults = composed_faults(&schedule, cli.inject.as_deref());

    // Small workloads keep a campaign to seconds; the runtime under
    // test is the supervisor, not the annealer. qft-5 and qaoa-5 are
    // excluded because their worst single-block search exceeds the
    // watchdog's margin in debug builds (per-block work is the one
    // interval the heartbeat cannot subdivide).
    let pool: Vec<_> = cli
        .selected_workloads(false)
        .into_iter()
        .filter(|w| w.num_qubits <= 5 && w.name != "qft-5" && w.name != "qaoa-5")
        .collect();
    assert!(
        !pool.is_empty(),
        "workload filter left nothing small enough for chaos"
    );
    let workload = pool[rng.pick(pool.len() as u64) as usize];
    let program = cli.build(&workload);
    let mut cfg = cli.pipeline_config().with_seed(seed);
    // Chaos stresses the runtime, not the annealer: a single ansatz
    // layer and one restart cap each block's search at a fraction of
    // the watchdog timeout even in debug builds, while checkpointing,
    // kills, resume, and verification all still exercise the same
    // code paths. Determinism is unaffected — the bit-identical
    // reference compiles with the same config.
    cfg.composition.max_layers = 1;
    cfg.composition.anneal_iters = cfg.composition.anneal_iters.min(8);
    cfg.composition.restarts = 1;
    cfg.composition.retry_attempts = 0;
    let vcfg = VerifyConfig::default().with_seed(seed);

    let workdir = PathBuf::from(CHAOS_ROOT).join(format!("c{index}"));
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir).expect("create campaign workdir");

    let supervisor = Supervisor::start_with_telemetry(
        supervisor_config(cli, seed, techniques.len()),
        cli.telemetry.clone(),
    );
    let mut submitted: u64 = 0;
    let mut handles = Vec::new();
    for &t in techniques {
        let ckpt = workdir.join(format!(
            "ckpt-{}-{}.json",
            workload.name,
            t.label().to_lowercase()
        ));
        let mut spec = JobSpec::new(workload.name, t, program.clone(), cfg.clone());
        spec.faults = faults.clone();
        spec.checkpoint = Some(ckpt.clone());
        let handle = supervisor
            .submit(spec)
            .expect("chaos queue admits every job");
        submitted += 1;
        handles.push((t, ckpt, handle));
    }
    if schedule.storm {
        // Cancellation storm: the single worker is busy with the
        // first job, so the last one is cancelled while queued (or,
        // worst case, mid-pass — both must classify cleanly).
        if let Some((_, _, handle)) = handles.last() {
            handle.cancel.cancel();
        }
    }
    let results = supervisor.shutdown();

    let mut jobs = Vec::new();
    for (t, ckpt, handle) in &handles {
        let result = results
            .iter()
            .find(|r| r.id == handle.id)
            .expect("no submitted job may be silently lost");
        let obs = observe(result, &program, &vcfg);
        // A cancelled job that left a checkpoint gets the resume leg:
        // pick the checkpoint up fault-free and demand bit-identical
        // output versus an uninterrupted compile.
        if result.state == JobState::Cancelled && ckpt.exists() {
            let reference =
                run_supervised_compile(&program, &cfg, &SupervisedCompileOptions::new(*t))
                    .expect("fault-free reference compile succeeds");
            let resumer = Supervisor::start_with_telemetry(
                supervisor_config(cli, seed, 1),
                cli.telemetry.clone(),
            );
            let mut spec = JobSpec::new(workload.name, *t, program.clone(), cfg.clone());
            spec.checkpoint = Some(ckpt.clone());
            spec.resume = true;
            let resume_handle = resumer.submit(spec).expect("resume job admitted");
            submitted += 1;
            let resume_results = resumer.shutdown();
            let resumed = resume_results
                .iter()
                .find(|r| r.id == resume_handle.id)
                .expect("resume job reaches a terminal state");
            let mut resumed_obs = observe(resumed, &program, &vcfg);
            resumed_obs.resume_bit_identical = Some(match &resumed.compiled {
                Some(c) => {
                    c.mapped().circuit().ops() == reference.mapped().circuit().ops()
                        && c.total_pulses() == reference.total_pulses()
                }
                None => false,
            });
            jobs.push(obs);
            jobs.push(resumed_obs);
            continue;
        }
        // Harness-cancelled storm victims are expected terminals, not
        // resume cases; everything else must classify on its own.
        jobs.push(obs);
    }

    let store = scan_store(&workdir);
    let mut violations = check_campaign_jobs(submitted, &jobs);
    violations.extend(check_store_scan(&store));

    CampaignCard {
        index,
        seed,
        workload: workload.name.to_string(),
        inject: faults.spec(),
        storm: schedule.storm,
        submitted,
        jobs,
        store,
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
/// planted `reuse-poison,reuse-skip-verify` must trip invariant 6).
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
    // the doctored entries escape unverified and invariant 6 trips.
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
    let mut cli = Cli::parse();
    // Reject a malformed --inject up front, not on the first campaign
    // that happens to compose it.
    if let Some(extra) = cli.inject.as_deref() {
        if let Err(e) = FaultInjector::parse(extra) {
            eprintln!("error: --inject: {e}");
            std::process::exit(exit_codes::USAGE);
        }
    }
    // The oracle and the corruption counters feed the scorecard, so
    // telemetry is always on for chaos.
    cli.telemetry = Telemetry::enabled();
    let techniques = cli.effective_techniques(&[Technique::Baseline, Technique::Geyser]);

    let mut campaigns = Vec::new();
    for index in 0..cli.campaigns {
        let card = run_campaign(&cli, index, cli.seed, &techniques);
        println!(
            "campaign {index:>3}: seed={:016x} workload={} inject='{}'{} jobs={} violations={}",
            card.seed,
            card.workload,
            card.inject,
            if card.storm { " +storm" } else { "" },
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

    let total_jobs: u64 = campaigns.iter().map(|c| c.submitted).sum();
    let violations_total: usize =
        campaigns.iter().map(|c| c.violations.len()).sum::<usize>() + reuse.violations.len();
    let scorecard = Scorecard {
        seed: cli.seed,
        reuse,
        total_jobs,
        hang_preemptions: cli
            .telemetry
            .counter_value("supervisor.hang_preemptions")
            .unwrap_or(0),
        store_corrupt_total: cli
            .telemetry
            .counter_value("store_corrupt_total")
            .unwrap_or(0),
        retries: cli
            .telemetry
            .counter_value("supervisor.retries")
            .unwrap_or(0),
        violations_total,
        campaigns,
    };
    if let Some(path) = &cli.json {
        std::fs::write(path, report_json(&scorecard))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
    println!(
        "chaos: seed {} — {} campaign(s), {} job(s), {} hang preemption(s), \
         {} quarantine(s), {} violation(s)",
        scorecard.seed,
        scorecard.campaigns.len(),
        scorecard.total_jobs,
        scorecard.hang_preemptions,
        scorecard.store_corrupt_total,
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
