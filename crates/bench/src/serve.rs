//! Virtual-time overload harness for the supervisor's service layer.
//!
//! The `serve` binary replays a seeded open-loop arrival schedule —
//! thousands of compile submissions from mixed tenants, with a storm
//! phase in which one tenant floods — against a
//! [`geyser_supervisor::ServiceCore`] and scores what the admission
//! controller, the deficit-round-robin scheduler, the single-flight
//! dedup table, and the load shedder did about it.
//!
//! Determinism is the whole point: the service core reads no clocks,
//! so this harness drives it from a discrete-event loop over *virtual*
//! milliseconds. Service durations are charged in deterministic cost
//! units derived from each compile's pulse count, never wall time.
//! The same `--seed` therefore replays the same arrivals, the same
//! admission decisions, the same sheds, and the same scorecard — byte
//! for byte — on any machine.
//!
//! Real compiles still happen: every dispatched job runs the actual
//! pipeline (memoized per unique job key, which is exactly what
//! single-flight promises), and a sample of dedup-served results is
//! checked bit-for-bit against a fresh solo compile of the same job.
//! The four service-layer invariants from
//! [`geyser_verify::invariants`] are machine-checked over the drained
//! campaign.
//!
//! # Durability (`--journal` / `--recover`)
//!
//! With `--journal PATH` the harness appends every lifecycle decision
//! — admitted, attached, dispatched, completed (with a result
//! digest), shed — to a write-ahead [`geyser_supervisor::Journal`]
//! before the decision takes effect in the scorecard. A process
//! killed mid-run (for real, or via the injected
//! `kill-mid-journal-append:N` / `torn-journal-tail` /
//! `kill-mid-compaction` faults) therefore leaves a journal from
//! which `--recover` rebuilds the run: the journal's torn tail is
//! truncated on open, settled outcomes are replayed verbatim (never
//! re-executed), and acknowledged-but-incomplete jobs are re-admitted
//! exactly once as the regenerated schedule reaches them. Because the
//! schedule is a pure function of the seed, job ids are stable across
//! the killed and recovering incarnations.
//!
//! Recovery is *outcome*-exact, not trajectory-exact: the admission
//! controller's transient state (queue depth, token-bucket levels,
//! cost EWMA) is only approximately rebuilt, so a recovering run may
//! shed different jobs than an uninterrupted one would have under
//! pressure. The `--no-shed` restart-campaign mode removes that
//! freedom — no deadlines, no shedding, no degraded tier — so the
//! chaos harness can demand a completed-job set (ids *and* digests)
//! identical to an uninjected reference.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use geyser::{splitmix64, CancelToken, CompiledCircuit, PassManager, PipelineConfig, Technique};
use geyser_circuit::Circuit;
use geyser_supervisor::{
    checkpoint_fingerprint, degrade_config, Admission, Dispatch, FlightTicket, JobSpec, Journal,
    JournalEvent, ServiceConfig, ServiceCore,
};
use geyser_verify::{
    check_serve_campaign, InvariantViolation, ServeJobObservation, TenantLatencyObservation,
};
use serde::Serialize;

use crate::Cli;

/// Techniques in the arrival mix: one plain mapper and one composing
/// pipeline, so the cost model has genuinely different service-time
/// classes to learn.
const TECHNIQUES: [Technique; 2] = [Technique::Baseline, Technique::Geyser];

/// Distinct per-variant seeds in the mix. Fewer variants means more
/// natural key collisions (dedup pressure); more means a wider compile
/// memo. Two is enough to prove keys separate by seed.
const SEED_VARIANTS: u64 = 2;

/// Dedup-served flights sampled for the bit-identity check.
const DEDUP_SAMPLES: usize = 4;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// One (workload, technique, seed-variant) job identity. Submissions
/// sharing a combo share a [`geyser_supervisor::JobKey`], so repeats
/// arriving while a flight is open attach as dedup followers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Combo {
    workload: usize,
    technique: usize,
    variant: u64,
}

/// One scheduled submission.
#[derive(Debug, Clone)]
struct Arrival {
    at_ms: u64,
    tenant: usize,
    combo: Combo,
    deadline_ms: Option<u64>,
    dedup: bool,
    storm: bool,
}

/// Everything the harness remembers about a submission until it
/// resolves.
#[derive(Debug, Clone)]
struct Meta {
    tenant: usize,
    arrival_ms: u64,
    storm: bool,
    combo: Combo,
    degraded: bool,
}

/// How one submission ended.
#[derive(Debug, Clone)]
enum Outcome {
    Done {
        latency_ms: u64,
        degraded: bool,
        deduped: bool,
    },
    Rejected {
        reason: String,
    },
}

/// One job currently occupying a worker lane.
struct Running {
    finish_ms: u64,
    ticket: FlightTicket,
    id: u64,
    duration_ms: u64,
}

/// A dedup broadcast retained for the bit-identity sample: which
/// compile served it and which followers received the clone.
struct DedupSample {
    combo: Combo,
    degraded: bool,
    followers: Vec<u64>,
}

/// One completed job's result digest, exported so a restart campaign
/// can diff a recovered run's completed set against its reference.
#[derive(Debug, Clone, Serialize)]
pub struct CompletionDigest {
    /// Job id (the arrival's schedule index).
    pub id: u64,
    /// [`checkpoint_fingerprint`] of the compiled circuit that served
    /// the job (followers inherit their leader's digest; recovered
    /// jobs carry the digest the journal settled with).
    pub digest: u64,
}

/// The harness side of the write-ahead journal: appends lifecycle
/// events and simulates the `kill-mid-journal-append` fault by
/// writing a torn half-frame at the scheduled append and halting the
/// incarnation on the spot.
struct JournalRig {
    journal: Option<Journal>,
    /// Tear the N-th append (0-based) and die there.
    kill_after: Option<usize>,
    appended: usize,
    killed: bool,
}

impl JournalRig {
    fn emit(&mut self, event: JournalEvent) {
        if self.killed {
            return;
        }
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        if self.kill_after == Some(self.appended) {
            journal
                .append_torn(&event)
                .expect("journal tear must reach the disk");
            self.killed = true;
            return;
        }
        journal
            .append(&event)
            .expect("journal append must reach the disk");
        self.appended += 1;
    }
}

/// Per-tenant scorecard entry.
#[derive(Debug, Clone, Serialize)]
pub struct TenantCard {
    /// Tenant label.
    pub tenant: String,
    /// Whether this tenant flooded during the storm phase.
    pub flooding: bool,
    /// Submissions billed to this tenant.
    pub submitted: u64,
    /// Jobs that completed with a circuit (own compile or dedup).
    pub completed: u64,
    /// Jobs shed with a typed rejection.
    pub rejected: u64,
    /// Jobs admitted in the degraded tier.
    pub degraded: u64,
    /// Jobs served by single-flight dedup.
    pub deduped: u64,
    /// p50 completed-job latency over the whole run (virtual ms).
    pub p50_ms: u64,
    /// p99 completed-job latency over the whole run (virtual ms).
    pub p99_ms: u64,
    /// Fair-share baseline p99: the measured calm-phase p99, floored
    /// at what deficit round robin entitles a tenant to under full
    /// contention (one worst-case service of its own plus one
    /// worst-case job per other tenant, spread over the lanes). The
    /// floor keeps a near-idle calm phase from shrinking the
    /// starvation budget to "zero queueing allowed".
    pub baseline_p99_ms: u64,
    /// p99 latency of jobs that arrived during the storm phase.
    pub storm_p99_ms: u64,
    /// Shed counts by rejection-reason label.
    pub sheds: BTreeMap<String, u64>,
}

/// Service-layer counters copied into the scorecard (the supervisor
/// type itself stays serialization-free).
#[derive(Debug, Clone, Serialize)]
pub struct ServiceCounters {
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Jobs shed, all reasons combined.
    pub shed: u64,
    /// Sheds for a full queue.
    pub shed_queue_full: u64,
    /// Sheds for an exhausted tenant budget.
    pub shed_throttled: u64,
    /// Sheds for an unmeetable deadline at admission.
    pub shed_deadline: u64,
    /// Sheds for a deadline that expired in the queue.
    pub shed_stale: u64,
    /// Jobs admitted in the degraded tier.
    pub degraded: u64,
    /// Jobs absorbed as dedup followers.
    pub dedup_attached: u64,
    /// Flights resolved by broadcasting a leader's result.
    pub dedup_broadcasts: u64,
    /// Leader re-elections after a failure.
    pub dedup_reelections: u64,
}

/// The whole run's scorecard — a pure function of the seed.
#[derive(Debug, Clone, Serialize)]
pub struct ServeScorecard {
    /// Master seed.
    pub seed: u64,
    /// Total submissions scheduled.
    pub arrivals: u64,
    /// Tenant count (tenant 0 floods).
    pub tenants: u64,
    /// Virtual milliseconds the campaign spanned.
    pub makespan_ms: u64,
    /// Distinct compiles actually run (the dedup/memo denominator).
    pub unique_compiles: u64,
    /// Mean service cost of the precompiled mix (virtual ms).
    pub mean_cost_ms: u64,
    /// Service-layer counters at drain.
    pub service: ServiceCounters,
    /// Per-tenant breakdown.
    pub tenant_cards: Vec<TenantCard>,
    /// Per-submission terminal outcomes (the invariant checker's
    /// input).
    pub jobs: Vec<ServeJobObservation>,
    /// Result digest per completed job, ascending by id — the restart
    /// campaign's diff key against its uninjected reference.
    pub completions: Vec<CompletionDigest>,
    /// True when an injected journal fault killed this incarnation
    /// mid-run (the scorecard then covers the partial run and no
    /// invariants are checked — the recovery incarnation is the one
    /// held to them).
    pub halted: bool,
    /// Jobs whose terminal outcome was taken verbatim from the
    /// replayed journal instead of being re-executed (`--recover`).
    pub recovered_settled: u64,
    /// Ids of journal-settled jobs that were nevertheless dispatched
    /// again. Exactly-once recovery demands this stays empty; the
    /// chaos harness feeds it into `recovery-exactly-once`.
    pub settled_reruns: Vec<u64>,
    /// Violated service-layer invariants (empty on a healthy run).
    pub violations: Vec<InvariantViolation>,
}

/// Nearest-rank percentile over a sorted slice (0 for an empty one).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) * p / 100]
    }
}

/// Service duration charged for one compile, in virtual ms: a pure
/// function of the compiled output's pulse count, so identical compiles
/// always cost the same on any machine.
fn service_cost_ms(compiled: &CompiledCircuit) -> u64 {
    (compiled.total_pulses() / 16).max(4)
}

/// The per-variant pipeline configuration: the CLI's config reseeded,
/// with the composition search clamped chaos-style so each unique
/// compile stays fast — the system under test is the service layer,
/// not the annealer.
fn variant_config(cli: &Cli, variant: u64) -> PipelineConfig {
    let seed = splitmix64(cli.seed ^ (variant + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut cfg = cli.pipeline_config().with_seed(seed);
    cfg.composition.max_layers = 1;
    cfg.composition.anneal_iters = cfg.composition.anneal_iters.min(8);
    cfg.composition.restarts = 1;
    cfg.composition.retry_attempts = 0;
    cfg
}

/// Compiles one combo (memoized). Every entry is one real pipeline
/// run; the memo is exactly the "duplicates compile once" ledger.
fn memo_compile<'a>(
    memo: &'a mut BTreeMap<(Combo, bool), CompiledCircuit>,
    combo: Combo,
    degraded: bool,
    programs: &[Circuit],
    configs: &[PipelineConfig],
) -> &'a CompiledCircuit {
    memo.entry((combo, degraded)).or_insert_with(|| {
        let mut cfg = configs[combo.variant as usize].clone();
        if degraded {
            cfg = degrade_config(&cfg);
        }
        PassManager::for_technique(TECHNIQUES[combo.technique])
            .run(&programs[combo.workload], &cfg)
            .expect("fault-free serve compiles succeed")
    })
}

/// Builds the seeded open-loop schedule as two superimposed streams:
///
/// * a **base stream** spanning the whole run — every tenant at a
///   steady combined ~70% utilization of the worker lanes;
/// * a **flood stream** from tenant 0 only, packed into a storm window
///   covering the middle of the run at roughly twice the system's
///   total service rate on top of the base load.
///
/// Bystander tenants therefore keep their own arrival rate constant
/// through the storm — any latency they gain is inflicted by the
/// flooder, which is exactly what the starvation invariant measures.
/// Roughly a third of arrivals repeat a recent combo (dedup pressure)
/// and a quarter carry deadlines (none in `no_shed` restart-campaign
/// mode — the combo/dedup draws are still made so the stream is
/// otherwise identical).
fn build_schedule(
    rng: &mut Rng,
    arrivals: usize,
    tenants: usize,
    workloads: usize,
    mean_cost_ms: u64,
    workers: u64,
    no_shed: bool,
) -> Vec<Arrival> {
    let g_base = (mean_cost_ms * 10 / (7 * workers)).max(2);
    let base_n = (arrivals / 2).max(1);
    let flood_n = arrivals - base_n;
    // (at_ms, sequence, tenant) — the sequence breaks time ties
    // deterministically in the sort below.
    let mut timed: Vec<(u64, u64, usize)> = Vec::with_capacity(arrivals);
    let mut t = 0u64;
    for seq in 0..base_n as u64 {
        t += g_base / 2 + rng.pick(g_base);
        timed.push((t, seq, rng.pick(tenants as u64) as usize));
    }
    let span = t.max(1);
    let storm_start = span * 2 / 5;
    let storm_end = span * 7 / 10;
    if flood_n > 0 {
        let g_flood = ((storm_end - storm_start) / flood_n as u64).max(1);
        let mut ft = storm_start;
        for seq in 0..flood_n as u64 {
            ft += (g_flood / 2 + rng.pick(g_flood)).max(1);
            timed.push((ft, base_n as u64 + seq, 0));
        }
    }
    timed.sort_unstable();

    let mut schedule = Vec::with_capacity(arrivals);
    let mut recent: Vec<Combo> = Vec::new();
    for (at_ms, _seq, tenant) in timed {
        let combo = if !recent.is_empty() && rng.pick(100) < 30 {
            recent[rng.pick(recent.len() as u64) as usize]
        } else {
            Combo {
                workload: rng.pick(workloads as u64) as usize,
                technique: rng.pick(TECHNIQUES.len() as u64) as usize,
                variant: rng.pick(SEED_VARIANTS),
            }
        };
        recent.push(combo);
        if recent.len() > 8 {
            recent.remove(0);
        }
        let deadline_ms =
            ((rng.pick(100) < 25) && !no_shed).then(|| mean_cost_ms * (2 + rng.pick(6)));
        let dedup = rng.pick(100) < 60;
        schedule.push(Arrival {
            at_ms,
            tenant,
            combo,
            deadline_ms,
            dedup,
            storm: at_ms >= storm_start && at_ms <= storm_end,
        });
    }
    schedule
}

/// Runs one serve campaign end to end. The scorecard — including every
/// per-job outcome and the invariant verdicts — is a pure function of
/// `cli.seed`, `cli.arrivals`, `cli.tenants`, `cli.fast`, and
/// `cli.no_shed`, plus (for journaled runs) the injected journal
/// faults and, under `--recover`, the journal's settled history.
///
/// # Panics
///
/// Panics if `cli.tenants < 2` (a storm needs a flooder and at least
/// one bystander), `cli.arrivals == 0`, or a `--journal` path cannot
/// be opened or appended.
pub fn run_serve(cli: &Cli) -> ServeScorecard {
    assert!(cli.tenants >= 2, "serve needs at least two tenants");
    assert!(cli.arrivals > 0, "serve needs at least one arrival");
    let mut rng = Rng(splitmix64(cli.seed ^ 0x5e7e_5e7e_5e7e_5e7e));

    // Small workloads keep each unique compile quick; the same pool
    // the chaos harness uses, minus the two whose per-block search
    // dominates. `--workloads` narrows it further (tests use a single
    // cheap workload to keep the compile memo small).
    let pool: Vec<_> = cli
        .selected_workloads(false)
        .into_iter()
        .filter(|w| w.num_qubits <= 5 && w.name != "qft-5" && w.name != "qaoa-5")
        .take(3)
        .collect();
    assert!(!pool.is_empty(), "workload filter left nothing for serve");
    let programs: Vec<Circuit> = pool.iter().map(|w| cli.build(w)).collect();
    let configs: Vec<PipelineConfig> = (0..SEED_VARIANTS).map(|v| variant_config(cli, v)).collect();

    // Precompile the undegraded mix so the schedule and the service
    // policy can be scaled to real service costs.
    let mut memo: BTreeMap<(Combo, bool), CompiledCircuit> = BTreeMap::new();
    let mut cost_sum = 0u64;
    let mut cost_n = 0u64;
    let mut max_cost_ms = 0u64;
    for workload in 0..programs.len() {
        for technique in 0..TECHNIQUES.len() {
            for variant in 0..SEED_VARIANTS {
                let combo = Combo {
                    workload,
                    technique,
                    variant,
                };
                let c = memo_compile(&mut memo, combo, false, &programs, &configs);
                let cost = service_cost_ms(c);
                cost_sum += cost;
                cost_n += 1;
                max_cost_ms = max_cost_ms.max(cost);
            }
        }
    }
    let mean_cost_ms = (cost_sum / cost_n).max(1);
    let max_cost_ms = max_cost_ms.max(1);

    let workers = if cli.jobs > 1 { cli.jobs } else { 2 };
    let tenants = cli.tenants;
    // Fair share: each tenant is budgeted 1/T of the system's service
    // capacity (workers × 1000 cost-ms per second), with a burst of a
    // few jobs. The flooder's storm rate exceeds this several times
    // over, so its bucket drains while bystanders never notice theirs.
    let service_config = ServiceConfig {
        // Restart-campaign mode gives every arrival a queue slot and
        // an inexhaustible budget: with shedding impossible, the
        // completed-job set is schedule-determined and a kill →
        // recover cycle must reproduce it exactly.
        queue_capacity: if cli.no_shed { cli.arrivals + 1 } else { 48 },
        workers,
        default_cost: mean_cost_ms,
        // A burst of a dozen jobs lets the flood actually build a
        // backlog (exercising the degraded tier) before the refill
        // rate — each tenant's 1/T share of the lanes' cost-ms per
        // second — takes over and sheds the rest.
        tenant_burst: if cli.no_shed {
            mean_cost_ms * (cli.arrivals as u64 + 12)
        } else {
            mean_cost_ms * 12
        },
        tenant_rate_per_sec: (workers as u64 * 1_000 / tenants as u64).max(1),
        drr_quantum: mean_cost_ms,
        degrade_wait_ms: if cli.no_shed { 0 } else { mean_cost_ms * 4 },
        dedup: true,
    };
    let mut core = ServiceCore::new(service_config);

    let schedule = build_schedule(
        &mut rng,
        cli.arrivals,
        tenants,
        programs.len(),
        mean_cost_ms,
        workers as u64,
        cli.no_shed,
    );

    // Write-ahead journal: open (sweeping stale tmp files and
    // truncating any torn tail), replay under `--recover`, and arm
    // the injected journal faults.
    let faults = cli.fault_injector();
    let mut settled_outcomes: BTreeMap<u64, Outcome> = BTreeMap::new();
    let mut settled_digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut settled_ids: BTreeSet<u64> = BTreeSet::new();
    let mut rig = JournalRig {
        journal: None,
        kill_after: faults.kill_mid_journal_append,
        appended: 0,
        killed: false,
    };
    if let Some(path) = &cli.journal {
        let path = Path::new(path);
        if !cli.recover {
            // A fresh incarnation owns the path; whatever a previous
            // run left there is a finished story, not state to merge.
            let _ = std::fs::remove_file(path);
        }
        let mut journal =
            Journal::open(path, &cli.telemetry).expect("journal opens (torn tails self-truncate)");
        if cli.recover {
            // Seed the cost model and tenant budgets from the settled
            // history, then take every settled outcome verbatim. Ids
            // beyond the regenerated schedule would mean the journal
            // belongs to a differently-parameterized run; they are
            // ignored rather than invented into the scorecard.
            let _ = core.recover(journal.replay(), 0);
            for (id, ev) in journal.replay().settled() {
                let Some(arrival) = schedule.get(*id as usize) else {
                    continue;
                };
                settled_ids.insert(*id);
                match ev.kind.as_str() {
                    "completed" => {
                        settled_outcomes.insert(
                            *id,
                            Outcome::Done {
                                latency_ms: ev.now_ms.saturating_sub(arrival.at_ms),
                                degraded: false,
                                deduped: ev.cost == 0,
                            },
                        );
                        settled_digests.insert(*id, ev.digest);
                    }
                    // Sheds replay their typed reason; the harness
                    // never journals failed/cancelled terminals, but a
                    // foreign journal's are still honoured as settled
                    // rejections rather than re-executed.
                    _ => {
                        let reason = if ev.reason.is_empty() {
                            ev.kind.clone()
                        } else {
                            ev.reason.clone()
                        };
                        settled_outcomes.insert(*id, Outcome::Rejected { reason });
                    }
                }
            }
        }
        if faults.kill_mid_compaction {
            journal.inject_compaction_crash();
        }
        rig.journal = Some(journal);
    }
    let settled_total = settled_outcomes.len() as u64;

    let mut meta: BTreeMap<u64, Meta> = BTreeMap::new();
    let mut outcomes: BTreeMap<u64, Outcome> = BTreeMap::new();
    let mut completion_digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut settled_reruns: Vec<u64> = Vec::new();
    let mut running: Vec<Running> = Vec::new();
    let mut samples: Vec<DedupSample> = Vec::new();
    let mut next_arrival = 0usize;
    let mut now = 0u64;

    'events: loop {
        // Fill free worker lanes from the DRR queue; stale jobs shed
        // here (typed, terminal) without consuming a lane.
        while running.len() < workers && !rig.killed {
            match core.next(now) {
                Some(Dispatch::Run(job)) => {
                    if settled_ids.contains(&job.id) {
                        // Structurally unreachable (settled arrivals
                        // are never resubmitted), but measured so the
                        // exactly-once invariant rests on observation,
                        // not faith.
                        settled_reruns.push(job.id);
                    }
                    rig.emit(JournalEvent::dispatched(job.id, now));
                    if rig.killed {
                        break 'events;
                    }
                    let m = &meta[&job.id];
                    let combo = m.combo;
                    let degraded = job.degraded;
                    meta.get_mut(&job.id)
                        .expect("dispatched job has meta")
                        .degraded = degraded;
                    let compiled = memo_compile(&mut memo, combo, degraded, &programs, &configs);
                    let duration_ms = service_cost_ms(compiled);
                    running.push(Running {
                        finish_ms: now + duration_ms,
                        ticket: job.ticket(),
                        id: job.id,
                        duration_ms,
                    });
                }
                Some(Dispatch::Shed {
                    job,
                    reason,
                    cancelled,
                }) => {
                    // The harness never fires cancel tokens, so no
                    // follower can have detached as cancelled.
                    debug_assert!(cancelled.is_empty(), "serve submits no cancellations");
                    rig.emit(JournalEvent::shed(job.id, &reason, now));
                    if rig.killed {
                        break 'events;
                    }
                    outcomes.insert(
                        job.id,
                        Outcome::Rejected {
                            reason: reason.label().to_string(),
                        },
                    );
                }
                None => break,
            }
        }

        let arrival_at = schedule.get(next_arrival).map(|a| a.at_ms);
        let finish_at = running.iter().map(|r| r.finish_ms).min();
        let completion_first = match (finish_at, arrival_at) {
            (Some(f), Some(a)) => f <= a,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };

        if completion_first {
            // Lowest (finish, id) pops first so equal finish times
            // settle in a fixed order.
            let pos = (0..running.len())
                .min_by_key(|&i| (running[i].finish_ms, running[i].id))
                .expect("a lane is running");
            let lane = running.remove(pos);
            now = lane.finish_ms;
            let done = core.complete(&lane.ticket, true, lane.duration_ms, now);
            debug_assert!(done.cancelled.is_empty(), "serve submits no cancellations");
            let m = meta[&lane.id].clone();
            let digest = checkpoint_fingerprint(memo[&(m.combo, m.degraded)].mapped().circuit());
            // Write-ahead: the completion is durable before the
            // scorecard observes it. A kill on this append loses the
            // result — the job stays pending in the journal and is
            // re-admitted on recovery, which is exactly the crash
            // semantics under test.
            rig.emit(JournalEvent::completed(
                lane.id,
                &format!("tenant-{}", m.tenant),
                TECHNIQUES[m.combo.technique].label(),
                digest,
                lane.duration_ms,
                now,
            ));
            if rig.killed {
                break 'events;
            }
            completion_digests.insert(lane.id, digest);
            outcomes.insert(
                lane.id,
                Outcome::Done {
                    latency_ms: now.saturating_sub(m.arrival_ms),
                    degraded: m.degraded,
                    deduped: false,
                },
            );
            if !done.broadcast.is_empty() {
                let mut followers = Vec::new();
                for f in &done.broadcast {
                    let fm = meta[&f.id].clone();
                    // Followers settle off the leader's result: same
                    // digest, zero measured cost.
                    rig.emit(JournalEvent::completed(
                        f.id,
                        &format!("tenant-{}", fm.tenant),
                        TECHNIQUES[m.combo.technique].label(),
                        digest,
                        0,
                        now,
                    ));
                    if rig.killed {
                        break 'events;
                    }
                    completion_digests.insert(f.id, digest);
                    outcomes.insert(
                        f.id,
                        Outcome::Done {
                            latency_ms: now.saturating_sub(fm.arrival_ms),
                            degraded: m.degraded,
                            deduped: true,
                        },
                    );
                    followers.push(f.id);
                }
                samples.push(DedupSample {
                    combo: m.combo,
                    degraded: m.degraded,
                    followers,
                });
            }
        } else {
            let arrival = schedule[next_arrival].clone();
            next_arrival += 1;
            now = arrival.at_ms;
            let id = next_arrival as u64 - 1;
            meta.insert(
                id,
                Meta {
                    tenant: arrival.tenant,
                    arrival_ms: arrival.at_ms,
                    storm: arrival.storm,
                    combo: arrival.combo,
                    degraded: false,
                },
            );
            // A journal-settled job is replayed, never re-executed:
            // its terminal outcome (and digest) land in the scorecard
            // verbatim and the service core never sees it again.
            if let Some(outcome) = settled_outcomes.remove(&id) {
                if let Some(d) = settled_digests.get(&id) {
                    completion_digests.insert(id, *d);
                }
                outcomes.insert(id, outcome);
                continue;
            }
            let tenant_label = format!("tenant-{}", arrival.tenant);
            let technique_label = TECHNIQUES[arrival.combo.technique].label();
            let mut spec = JobSpec::new(
                pool[arrival.combo.workload].name,
                TECHNIQUES[arrival.combo.technique],
                programs[arrival.combo.workload].clone(),
                configs[arrival.combo.variant as usize].clone(),
            )
            .with_tenant(tenant_label.clone())
            .with_dedup(arrival.dedup);
            if let Some(d) = arrival.deadline_ms {
                spec = spec.with_deadline_ms(d);
            }
            match core.submit(id, spec, CancelToken::new(), now) {
                Admission::Queued { degraded } => {
                    meta.get_mut(&id).expect("just inserted").degraded = degraded;
                    rig.emit(JournalEvent::admitted(
                        id,
                        &tenant_label,
                        technique_label,
                        None,
                        0,
                        now,
                    ));
                }
                Admission::Attached { leader } => {
                    // Resolved later by the flight's broadcast.
                    rig.emit(JournalEvent::attached(
                        id,
                        &tenant_label,
                        technique_label,
                        leader,
                        now,
                    ));
                }
                Admission::Shed { reason, .. } => {
                    rig.emit(JournalEvent::shed(id, &reason, now));
                    if rig.killed {
                        break 'events;
                    }
                    outcomes.insert(
                        id,
                        Outcome::Rejected {
                            reason: reason.label().to_string(),
                        },
                    );
                }
            }
            if rig.killed {
                break 'events;
            }
        }
    }
    let halted = rig.killed;
    if !halted {
        debug_assert!(core.is_quiescent(), "drained service must be quiescent");
        if let Some(journal) = rig.journal.as_mut() {
            if faults.torn_journal_tail {
                // Tear the tail *after* a clean run: recovery must
                // truncate the half-frame and replay everything else.
                journal
                    .append_torn(&JournalEvent::cancelled(u64::MAX, now))
                    .expect("journal tear must reach the disk");
            } else {
                // End-of-run compaction folds the settled history into
                // a snapshot (honouring an injected compaction crash,
                // which leaves the pre-compaction journal intact).
                journal.compact().expect("journal compaction");
            }
        }
    }
    let makespan_ms = now;

    // Bit-identity sample: recompile a few distinct dedup-served
    // combos solo and compare against the result the flights actually
    // shared. Every follower of a checked combo inherits the verdict.
    let mut verdicts: BTreeMap<(Combo, bool), bool> = BTreeMap::new();
    let mut bit_identical: BTreeMap<u64, bool> = BTreeMap::new();
    for sample in &samples {
        let key = (sample.combo, sample.degraded);
        if !verdicts.contains_key(&key) {
            if verdicts.len() >= DEDUP_SAMPLES {
                continue;
            }
            let shared = &memo[&key];
            let mut cfg = configs[sample.combo.variant as usize].clone();
            if sample.degraded {
                cfg = degrade_config(&cfg);
            }
            let solo = PassManager::for_technique(TECHNIQUES[sample.combo.technique])
                .run(&programs[sample.combo.workload], &cfg)
                .expect("solo reference compile succeeds");
            let identical = shared.mapped().circuit().ops() == solo.mapped().circuit().ops()
                && shared.total_pulses() == solo.total_pulses();
            verdicts.insert(key, identical);
        }
        let identical = verdicts[&key];
        for f in &sample.followers {
            bit_identical.insert(*f, identical);
        }
    }

    // Fold outcomes into observations and per-tenant cards.
    let mut jobs = Vec::with_capacity(outcomes.len());
    let mut cards: Vec<TenantCard> = (0..tenants)
        .map(|t| TenantCard {
            tenant: format!("tenant-{t}"),
            flooding: t == 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            degraded: 0,
            deduped: 0,
            p50_ms: 0,
            p99_ms: 0,
            baseline_p99_ms: 0,
            storm_p99_ms: 0,
            sheds: BTreeMap::new(),
        })
        .collect();
    let mut all_lat: Vec<Vec<u64>> = vec![Vec::new(); tenants];
    let mut calm_lat: Vec<Vec<u64>> = vec![Vec::new(); tenants];
    let mut storm_lat: Vec<Vec<u64>> = vec![Vec::new(); tenants];
    for (id, outcome) in &outcomes {
        let m = &meta[id];
        let card = &mut cards[m.tenant];
        card.submitted += 1;
        let obs = match outcome {
            Outcome::Done {
                latency_ms,
                degraded,
                deduped,
            } => {
                card.completed += 1;
                if *degraded {
                    card.degraded += 1;
                }
                if *deduped {
                    card.deduped += 1;
                }
                all_lat[m.tenant].push(*latency_ms);
                if m.storm {
                    storm_lat[m.tenant].push(*latency_ms);
                } else {
                    calm_lat[m.tenant].push(*latency_ms);
                }
                ServeJobObservation {
                    id: *id,
                    tenant: card.tenant.clone(),
                    state: "done".to_string(),
                    has_rejection: false,
                    deduped: *deduped,
                    dedup_bit_identical: bit_identical.get(id).copied(),
                }
            }
            Outcome::Rejected { reason } => {
                card.rejected += 1;
                *card.sheds.entry(reason.clone()).or_insert(0) += 1;
                ServeJobObservation {
                    id: *id,
                    tenant: card.tenant.clone(),
                    state: "rejected".to_string(),
                    has_rejection: true,
                    deduped: false,
                    dedup_bit_identical: None,
                }
            }
        };
        jobs.push(obs);
    }
    // The fair-share latency a tenant signs up for under contention.
    // DRR's service bound is governed by the *largest* job in the mix,
    // not the mean: a rotation hands every other tenant the chance to
    // dispatch one whole job once its deficit covers it, and a
    // worst-case job can already occupy each lane when you arrive. So
    // the entitlement is one max-cost service of your own plus one
    // max-cost job per other tenant, spread over the worker lanes.
    let fair_share_ms = max_cost_ms * (workers as u64 + (tenants as u64 - 1)) / workers as u64;
    let mut tenant_latencies = Vec::with_capacity(tenants);
    for (t, card) in cards.iter_mut().enumerate() {
        for lat in [&mut all_lat[t], &mut calm_lat[t], &mut storm_lat[t]] {
            lat.sort_unstable();
        }
        card.p50_ms = percentile(&all_lat[t], 50);
        card.p99_ms = percentile(&all_lat[t], 99);
        card.baseline_p99_ms = percentile(&calm_lat[t], 99).max(fair_share_ms);
        card.storm_p99_ms = percentile(&storm_lat[t], 99);
        tenant_latencies.push(TenantLatencyObservation {
            tenant: card.tenant.clone(),
            flooding: card.flooding,
            baseline_p99_ms: card.baseline_p99_ms,
            storm_p99_ms: card.storm_p99_ms,
        });
    }

    // A killed incarnation is a crash in progress, not a finished
    // campaign — its partial scorecard is raw material for the
    // recovery run, which is the incarnation held to the invariants.
    // Under `--recover` the latency profile is rebuilt from journal
    // timestamps plus a lighter re-execution, so the starvation check
    // (a property of one uninterrupted timeline) is skipped; the
    // completeness, typed-shed, and dedup invariants still apply.
    let violations = if halted {
        Vec::new()
    } else if cli.recover {
        check_serve_campaign(schedule.len() as u64, &jobs, &[])
    } else {
        check_serve_campaign(schedule.len() as u64, &jobs, &tenant_latencies)
    };
    let m = core.metrics();
    ServeScorecard {
        seed: cli.seed,
        arrivals: schedule.len() as u64,
        tenants: tenants as u64,
        makespan_ms,
        unique_compiles: memo.len() as u64,
        mean_cost_ms,
        service: ServiceCounters {
            admitted: m.admitted,
            shed: m.shed,
            shed_queue_full: m.shed_queue_full,
            shed_throttled: m.shed_throttled,
            shed_deadline: m.shed_deadline,
            shed_stale: m.shed_stale,
            degraded: m.degraded,
            dedup_attached: m.dedup_attached,
            dedup_broadcasts: m.dedup_broadcasts,
            dedup_reelections: m.dedup_reelections,
        },
        tenant_cards: cards,
        jobs,
        completions: completion_digests
            .into_iter()
            .map(|(id, digest)| CompletionDigest { id, digest })
            .collect(),
        halted,
        recovered_settled: settled_total - settled_outcomes.len() as u64,
        settled_reruns,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report_json;

    fn serve_cli(seed: u64, arrivals: usize, tenants: usize) -> Cli {
        Cli {
            fast: true,
            seed,
            arrivals,
            tenants,
            // One cheap workload keeps the compile memo (the only
            // expensive part — the event loop is trivial) to a few
            // seconds; the service-layer dynamics are unaffected.
            workloads: vec!["vqe-4".into()],
            ..Cli::default()
        }
    }

    #[test]
    fn serve_resolves_every_submission_without_violations() {
        let card = run_serve(&serve_cli(3, 120, 2));
        assert_eq!(card.jobs.len() as u64, card.arrivals);
        assert!(
            card.violations.is_empty(),
            "violations: {:?}",
            card.violations
        );
    }

    #[test]
    fn serve_scorecard_is_byte_identical_per_seed() {
        let a = report_json(&run_serve(&serve_cli(9, 90, 3)));
        let b = report_json(&run_serve(&serve_cli(9, 90, 3)));
        assert_eq!(a, b);
    }

    #[test]
    fn storm_produces_typed_sheds_and_dedup_hits() {
        let card = run_serve(&serve_cli(1, 400, 3));
        assert!(card.service.shed > 0, "a storm must shed something");
        assert!(
            card.service.dedup_attached > 0,
            "duplicate injection must produce followers"
        );
        assert!(
            card.jobs
                .iter()
                .filter(|j| j.state == "rejected")
                .all(|j| j.has_rejection),
            "every shed is typed"
        );
        // The memo proves duplicates compiled once: strictly fewer
        // unique compiles than completed jobs.
        let completed = card.jobs.iter().filter(|j| j.state == "done").count() as u64;
        assert!(card.unique_compiles < completed);
    }

    #[test]
    fn sampled_dedup_results_are_bit_identical() {
        let card = run_serve(&serve_cli(5, 300, 2));
        let sampled: Vec<_> = card
            .jobs
            .iter()
            .filter_map(|j| j.dedup_bit_identical)
            .collect();
        assert!(!sampled.is_empty(), "at least one flight gets sampled");
        assert!(sampled.into_iter().all(|b| b));
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("geyser-serve-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create journal dir");
        dir.join("serve.journal")
    }

    fn digests(card: &ServeScorecard) -> Vec<(u64, u64)> {
        card.completions.iter().map(|c| (c.id, c.digest)).collect()
    }

    #[test]
    fn no_shed_mode_completes_every_arrival() {
        let mut cli = serve_cli(11, 60, 2);
        cli.no_shed = true;
        let card = run_serve(&cli);
        assert!(card.violations.is_empty(), "{:?}", card.violations);
        assert_eq!(card.service.shed, 0, "no-shed mode must never shed");
        assert_eq!(card.completions.len() as u64, card.arrivals);
    }

    #[test]
    fn kill_mid_journal_append_recovers_to_the_reference_completed_set() {
        let journal = temp_journal("kill");
        let mut reference = serve_cli(21, 60, 2);
        reference.no_shed = true;
        let ref_card = run_serve(&reference);
        assert_eq!(ref_card.completions.len() as u64, ref_card.arrivals);

        let mut killed = reference.clone();
        killed.journal = Some(journal.to_string_lossy().into_owned());
        killed.inject = Some("kill-mid-journal-append:47".into());
        let killed_card = run_serve(&killed);
        assert!(killed_card.halted, "the injected kill must halt the run");
        assert!(
            (killed_card.completions.len() as u64) < killed_card.arrivals,
            "a mid-run kill leaves work unfinished"
        );

        let mut recovering = reference.clone();
        recovering.journal = Some(journal.to_string_lossy().into_owned());
        recovering.recover = true;
        let recovered = run_serve(&recovering);
        assert!(!recovered.halted);
        assert!(
            recovered.violations.is_empty(),
            "{:?}",
            recovered.violations
        );
        assert!(
            recovered.recovered_settled > 0,
            "settled journal outcomes must be replayed, not re-run"
        );
        assert!(recovered.settled_reruns.is_empty(), "exactly-once violated");
        assert_eq!(
            digests(&recovered),
            digests(&ref_card),
            "recovery must reproduce the reference completed set bit for bit"
        );
        let _ = std::fs::remove_dir_all(journal.parent().expect("journal has a dir"));
    }

    #[test]
    fn torn_tail_and_crashed_compaction_still_recover_cleanly() {
        let journal = temp_journal("torn");
        let mut base = serve_cli(33, 40, 2);
        base.no_shed = true;
        let ref_card = run_serve(&base);

        // A clean run whose journal gets a torn tail appended and
        // whose end-of-run compaction crashes: the worst-case file to
        // hand back to recovery.
        let mut wounded = base.clone();
        wounded.journal = Some(journal.to_string_lossy().into_owned());
        wounded.inject = Some("torn-journal-tail".into());
        let wounded_card = run_serve(&wounded);
        assert!(!wounded_card.halted);

        let mut recovering = base.clone();
        recovering.journal = Some(journal.to_string_lossy().into_owned());
        recovering.recover = true;
        let recovered = run_serve(&recovering);
        assert!(
            recovered.violations.is_empty(),
            "{:?}",
            recovered.violations
        );
        // Every outcome settled before the tear replays verbatim.
        assert_eq!(recovered.recovered_settled, recovered.arrivals);
        assert_eq!(digests(&recovered), digests(&ref_card));
        let _ = std::fs::remove_dir_all(journal.parent().expect("journal has a dir"));
    }
}
