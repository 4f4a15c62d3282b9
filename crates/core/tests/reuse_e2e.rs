//! End-to-end composition-reuse tests on a deep fixed-angle QAOA —
//! the canonical structured workload: every layer repeats the same
//! cost-plus-mixer block, so the reuse index should resolve most
//! blocks after the first layer without touching the annealer.

use geyser::compose::Ansatz;
use geyser::workloads::qaoa_fixed;
use geyser::{
    verify_compiled, CompiledCircuit, FaultInjector, PassManager, PipelineConfig, Technique,
    Telemetry,
};
use geyser_verify::VerifyConfig;

/// Compiles `circuit` with the Geyser technique under `cfg`, returning
/// the compiled circuit plus the annealer-evaluation count telemetry
/// observed for the run.
fn compile(circuit: &geyser::circuit::Circuit, cfg: &PipelineConfig) -> (CompiledCircuit, u64) {
    let telemetry = Telemetry::enabled();
    let compiled = PassManager::for_technique(Technique::Geyser)
        .with_telemetry(telemetry.clone())
        .run(circuit, cfg)
        .expect("deep QAOA compiles");
    let evals = telemetry
        .counter_value("compose.anneal_evaluations")
        .unwrap_or(0);
    (compiled, evals)
}

/// A scratch directory unique to this test binary + test name, wiped
/// before use so reruns are deterministic.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("geyser-reuse-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn reuse_cuts_annealing_on_deep_fixed_angle_qaoa() {
    let circuit = qaoa_fixed(4, 10, 3);
    let cfg = PipelineConfig::fast().with_seed(11);

    let (baseline, base_evals) = compile(&circuit, &cfg);
    let (reused, reuse_evals) = compile(&circuit, &cfg.clone().with_reuse());

    let stats = reused
        .report()
        .expect("pass-manager runs carry a report")
        .reuse
        .expect("reuse stats present when reuse is on");
    println!(
        "baseline evals={base_evals} reuse evals={reuse_evals} stats={stats:?} \
         baseline pulses={} reused pulses={}",
        baseline.total_pulses(),
        reused.total_pulses()
    );

    // A 10-fold repeated layer means most blocks after the first layer
    // are exact hits; the annealer must run strictly less than the
    // baseline (the acceptance bar is >=5x in the committed benchmark,
    // but the test only pins the direction so budget tweaks don't
    // break it).
    assert!(stats.blocks_fingerprinted > 0);
    assert!(
        stats.exact_hits > 0,
        "repeated layers must replay: {stats:?}"
    );
    assert!(
        reuse_evals < base_evals,
        "reuse must skip annealing work: {reuse_evals} vs {base_evals}"
    );
    assert_eq!(stats.unverified_replays, 0);

    // Replays go through the epsilon re-verification gate, so the
    // compiled circuit must still pass the end-to-end oracle.
    let vcfg = VerifyConfig::default().with_seed(11);
    let verdict = verify_compiled(&circuit, &reused, &vcfg);
    assert!(verdict.equivalent, "reuse broke equivalence: {verdict:?}");
}

#[test]
fn persistent_store_replays_across_jobs() {
    let dir = scratch_dir("store");
    let circuit = qaoa_fixed(4, 6, 5);
    let cfg = PipelineConfig::fast().with_seed(23).with_reuse_store(&dir);

    // Job 1 seeds the store.
    let (first, first_evals) = compile(&circuit, &cfg);
    let first_stats = first.report().unwrap().reuse.unwrap();
    println!("job1 evals={first_evals} stats={first_stats:?}");
    assert!(first_stats.store_entries_saved > 0, "{first_stats:?}");

    // Job 2 is a fresh process-equivalent session over the same store:
    // every fingerprint it computes is already cached, so annealing is
    // skipped wholesale.
    let (second, second_evals) = compile(&circuit, &cfg);
    let second_stats = second.report().unwrap().reuse.unwrap();
    println!("job2 evals={second_evals} stats={second_stats:?}");
    let outcomes = store_outcomes(&dir);
    println!("store outcomes: {outcomes:?}");
    assert!(second_stats.store_entries_loaded > 0, "{second_stats:?}");
    assert!(second_stats.exact_hits > 0, "{second_stats:?}");
    assert!(
        second_evals < first_evals,
        "warm store must skip annealing: {second_evals} vs {first_evals}"
    );

    let vcfg = VerifyConfig::default().with_seed(23);
    assert!(verify_compiled(&circuit, &second, &vcfg).equivalent);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The config hash the previous search (before `SEARCH_VERSION`
/// was folded in) gave a composition config.
fn previous_search_hash(c: &geyser::compose::CompositionConfig) -> u64 {
    geyser::store::fnv1a_bytes(
        format!(
            "reuse-cfg|eps={:?}|layers={}|iters={}|restarts={}|retries={}",
            c.epsilon, c.max_layers, c.anneal_iters, c.restarts, c.retry_attempts
        )
        .as_bytes(),
    )
}

#[test]
fn store_written_by_the_previous_search_is_stale_not_replayed() {
    let dir = scratch_dir("previous-search");
    let circuit = qaoa_fixed(4, 4, 5);
    let cfg = PipelineConfig::fast().with_seed(23).with_reuse_store(&dir);
    let (first, _) = compile(&circuit, &cfg);
    let saved = first.report().unwrap().reuse.unwrap().store_entries_saved;
    assert!(saved > 0);

    // Rebind every entry to the previous search's hash, as a store
    // that search wrote would be.
    let previous = previous_search_hash(&cfg.composition);
    for path in geyser::store::walk_files(&dir).unwrap() {
        let payload = geyser::store::read_record_file(&path).unwrap();
        let mut record = geyser_reuse::parse_reuse_record(payload.text()).unwrap();
        record.config_hash = previous;
        let json = serde_json::to_string_pretty(&record).unwrap();
        geyser::store::write_record_atomic(&path, &json).unwrap();
    }

    let (second, _) = compile(&circuit, &cfg);
    let stats = second.report().unwrap().reuse.unwrap();
    assert_eq!(stats.store_entries_loaded, 0, "{stats:?}");
    assert_eq!(stats.store_entries_stale, saved, "{stats:?}");
    assert_eq!(
        stats.exact_hits,
        first.report().unwrap().reuse.unwrap().exact_hits
    );
    assert_eq!(
        second.mapped().circuit().ops(),
        first.mapped().circuit().ops()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites every *negative* entry of the reuse store in `dir` as a
/// bogus `composed` record with plausible 1-layer ansatz parameters —
/// simulated bit-rot whose frames and schema still verify, so only the
/// ε re-verification gate stands between the garbage and the output.
/// Returns how many entries were rewritten.
fn doctor_reuse_store(dir: &std::path::Path) -> u64 {
    let ansatz = Ansatz::new(1);
    let mut doctored = 0;
    for path in geyser::store::walk_files(dir).unwrap() {
        if !geyser_reuse::is_reuse_entry(&path) {
            continue;
        }
        let payload = geyser::store::read_record_file(&path).unwrap();
        let mut record = geyser_reuse::parse_reuse_record(payload.text()).unwrap();
        if record.outcome == "composed" {
            continue;
        }
        record.outcome = "composed".to_string();
        record.layers = 1;
        record.hsd = 1e-9;
        record.params = (0..ansatz.num_params())
            .map(|i| 0.11 + 0.37 * i as f64)
            .collect();
        let json = serde_json::to_string_pretty(&record).unwrap();
        geyser::store::write_record_atomic(&path, &json).unwrap();
        doctored += 1;
    }
    doctored
}

#[test]
fn doctored_store_bounces_off_the_epsilon_gate_unless_it_is_skipped() {
    let dir = scratch_dir("doctored");
    let circuit = qaoa_fixed(4, 4, 7);
    let mut cfg = PipelineConfig::fast().with_seed(7).with_reuse_store(&dir);
    // One layer and one restart keep every block's search short; the
    // test stresses the replay gate, not the annealer.
    cfg.composition.max_layers = 1;
    cfg.composition.anneal_iters = cfg.composition.anneal_iters.min(8);
    cfg.composition.restarts = 1;
    cfg.composition.retry_attempts = 0;
    let vcfg = VerifyConfig::default().with_seed(7);
    let run = |faults: FaultInjector| {
        let compiled = PassManager::for_technique(Technique::Geyser)
            .with_faults(faults)
            .run(&circuit, &cfg)
            .expect("QAOA compiles");
        let stats = compiled.report().unwrap().reuse.unwrap();
        (compiled, stats)
    };

    let (seeded, _) = run(FaultInjector::none());
    assert!(verify_compiled(&circuit, &seeded, &vcfg).equivalent);
    assert!(doctor_reuse_store(&dir) > 0, "no negative entry to doctor");

    // A clean recompile must bounce every bogus replay off the ε gate.
    let (clean, stats) = run(FaultInjector::none());
    assert!(stats.exact_hits_rejected > 0, "{stats:?}");
    assert_eq!(stats.unverified_replays, 0, "{stats:?}");
    let verdict = verify_compiled(&circuit, &clean, &vcfg);
    assert!(verdict.equivalent, "doctored store leaked: {verdict:?}");

    // With the gate switched off, poisoned replays escape and the
    // counter shows it.
    let planted = FaultInjector::parse("reuse-poison,reuse-skip-verify").unwrap();
    let (_, stats) = run(planted);
    assert!(stats.unverified_replays > 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Outcome labels of every entry in a reuse store directory.
fn store_outcomes(dir: &std::path::Path) -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if !geyser_reuse::is_reuse_entry(&path) {
                continue;
            }
            if let Ok(payload) = geyser::store::read_record_file(&path) {
                if let Ok(record) = geyser_reuse::parse_reuse_record(payload.text()) {
                    out.push(record.outcome);
                }
            }
        }
    }
    out.sort();
    out
}
