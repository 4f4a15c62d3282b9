//! The pass-manager pipeline driver.
//!
//! A compilation is a sequence of [`Pass`]es run over a shared
//! [`CompileContext`] by a [`PassManager`]. Each technique of the
//! paper is a declarative pass list (see [`crate::Technique::pass_list`]);
//! the manager times every pass, snapshots circuit metrics around it,
//! and assembles the [`CompileReport`] that ships with the final
//! [`CompiledCircuit`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use geyser_blocking::BlockedCircuit;
use geyser_circuit::Circuit;
use geyser_compose::CompositionStats;
use geyser_map::MappedCircuit;
use geyser_optimize::{CancelToken, Deadline};
use geyser_sim::{ideal_distribution, total_variation_distance};
use geyser_telemetry::Telemetry;
use geyser_topology::Lattice;

use geyser_circuit::{Gate, Operation};

use crate::report::{CompileReport, PassReport};
use crate::{CompileError, CompiledCircuit, FaultInjector, PipelineConfig, Technique};

/// Largest physical register (lattice nodes) the debug-mode
/// distribution spot check will statevector-simulate.
const SPOT_CHECK_MAX_NODES: usize = 8;

/// Mutable state threaded through a pass pipeline.
///
/// Starts with just the logical program and configuration; passes fill
/// in the lattice, the mapped circuit, and the composition artifacts
/// as the pipeline advances.
#[derive(Debug)]
pub struct CompileContext<'a> {
    program: &'a Circuit,
    config: &'a PipelineConfig,
    technique: Technique,
    deadline: Deadline,
    cancel: CancelToken,
    faults: FaultInjector,
    telemetry: Telemetry,
    lattice: Option<Lattice>,
    mapped: Option<MappedCircuit>,
    blocked: Option<BlockedCircuit>,
    composed: Option<Circuit>,
    composition: Option<CompositionStats>,
}

impl<'a> CompileContext<'a> {
    /// Fresh context for one compilation run.
    pub fn new(program: &'a Circuit, technique: Technique, config: &'a PipelineConfig) -> Self {
        CompileContext {
            program,
            config,
            technique,
            deadline: Deadline::none(),
            cancel: CancelToken::none(),
            faults: FaultInjector::none(),
            telemetry: Telemetry::disabled(),
            lattice: None,
            mapped: None,
            blocked: None,
            composed: None,
            composition: None,
        }
    }

    /// The started wall-clock deadline every stage must check
    /// (unbounded unless [`crate::Budget`] set one).
    pub fn deadline(&self) -> Deadline {
        self.deadline
    }

    /// Installs the run's deadline (done once by the manager).
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// The job's cooperative cancellation token. Passes that run
    /// long inner loops (annealing, per-block composition) must poll
    /// it; a fired token ends the run with
    /// [`CompileError::Cancelled`].
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Installs the run's cancellation token (done once by the
    /// manager).
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// The run's telemetry handle (disabled unless the manager
    /// installed a recording one). Passes open spans and bump metrics
    /// through it; timings are recorded but never read back, so
    /// compilation stays bit-identical with telemetry on or off.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Installs the run's telemetry handle (done once by the manager).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The active fault-injection plan (empty in production runs).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Installs the fault plan (done once by the manager).
    pub fn set_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// The logical input program.
    pub fn program(&self) -> &Circuit {
        self.program
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        self.config
    }

    /// The technique this pipeline implements.
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// The allocated lattice, if a lattice pass has run.
    pub fn lattice(&self) -> Option<&Lattice> {
        self.lattice.as_ref()
    }

    /// Installs the lattice.
    pub fn set_lattice(&mut self, lattice: Lattice) {
        self.lattice = Some(lattice);
    }

    /// The mapped circuit, if the mapping pass has run.
    pub fn mapped(&self) -> Option<&MappedCircuit> {
        self.mapped.as_ref()
    }

    /// Installs (or replaces) the mapped circuit.
    pub fn set_mapped(&mut self, mapped: MappedCircuit) {
        self.mapped = Some(mapped);
    }

    /// The blocked circuit, if the blocking pass has run.
    pub fn blocked(&self) -> Option<&BlockedCircuit> {
        self.blocked.as_ref()
    }

    /// Installs the blocked circuit.
    pub fn set_blocked(&mut self, blocked: BlockedCircuit) {
        self.blocked = Some(blocked);
    }

    /// The composed physical circuit awaiting seam cleanup, if the
    /// composition pass has run and cleanup has not consumed it yet.
    pub fn composed(&self) -> Option<&Circuit> {
        self.composed.as_ref()
    }

    /// Installs the composition output.
    pub fn set_composed(&mut self, circuit: Circuit, stats: CompositionStats) {
        self.composed = Some(circuit);
        self.composition = Some(stats);
    }

    /// Removes and returns the composed circuit (seam cleanup).
    pub fn take_composed(&mut self) -> Option<Circuit> {
        self.composed.take()
    }

    /// Composition statistics, if composition has run.
    pub fn composition_stats(&self) -> Option<&CompositionStats> {
        self.composition.as_ref()
    }

    /// The pipeline's current best view of the circuit: the composed
    /// circuit if one is pending cleanup, else the mapped physical
    /// circuit, else the logical program.
    pub fn current_circuit(&self) -> &Circuit {
        if let Some(c) = &self.composed {
            c
        } else if let Some(m) = &self.mapped {
            m.circuit()
        } else {
            self.program
        }
    }

    fn into_compiled(mut self, report: CompileReport) -> Result<CompiledCircuit, CompileError> {
        let mut mapped = self.mapped.take().ok_or(CompileError::MissingStage {
            pass: "finalize",
            requires: "map",
        })?;
        // Degraded finalize: if the budget expired between composition
        // and seam cleanup, the composed circuit is still pending —
        // install it so its pulse savings are not thrown away.
        if let Some(composed) = self.composed.take() {
            mapped = mapped.with_circuit(composed);
        }
        // Injected silent miscompile: corrupt the final circuit after
        // every internal check has run, so nothing short of an
        // end-to-end equivalence oracle can notice.
        if !self.faults.miscompile_gates.is_empty() {
            let corrupted = miscompile(mapped.circuit(), &self.faults.miscompile_gates);
            mapped = mapped.with_circuit(corrupted);
        }
        Ok(CompiledCircuit::with_report(
            self.technique,
            mapped,
            self.composition,
            report,
        ))
    }
}

/// One step of a compilation pipeline.
///
/// Passes mutate the [`CompileContext`] — installing the lattice, the
/// mapped circuit, composition results — and report failures as
/// [`CompileError`]s. The built-in passes live in [`crate::passes`];
/// external code can implement the trait to splice custom stages into
/// a [`PassManager`].
pub trait Pass {
    /// Stable, kebab-case pass name used in reports and errors.
    fn name(&self) -> &'static str;

    /// Runs the pass over the shared context.
    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError>;
}

/// Runs an ordered list of [`Pass`]es and instruments every step.
///
/// # Example
///
/// ```
/// use geyser::{PassManager, PipelineConfig, Technique};
/// use geyser_circuit::Circuit;
///
/// let mut program = Circuit::new(2);
/// program.h(0).cx(0, 1);
/// let pm = PassManager::for_technique(Technique::OptiMap);
/// let compiled = pm
///     .run(&program, &PipelineConfig::fast())
///     .expect("pipeline succeeds");
/// let report = compiled.report().expect("pass manager attaches a report");
/// assert_eq!(report.passes.len(), 2); // allocate-lattice, map
/// ```
pub struct PassManager {
    technique: Technique,
    passes: Vec<Box<dyn Pass>>,
    debug_invariants: bool,
    faults: FaultInjector,
    cancel: CancelToken,
    telemetry: Telemetry,
}

impl PassManager {
    /// A manager over an explicit pass list, labelled with the
    /// technique the list implements.
    pub fn new(technique: Technique, passes: Vec<Box<dyn Pass>>) -> Self {
        PassManager {
            technique,
            passes,
            debug_invariants: false,
            faults: FaultInjector::none(),
            cancel: CancelToken::none(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The declarative pipeline for one of the paper's techniques —
    /// equivalent to what [`crate::compile`] runs.
    pub fn for_technique(technique: Technique) -> Self {
        Self::new(technique, technique.pass_list())
    }

    /// Installs a fault-injection plan for robustness testing: the
    /// named passes panic on entry (contained as
    /// [`CompileError::PassPanicked`]), and compose/timeout faults are
    /// threaded into the composition stage.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Installs a cooperative cancellation token. The manager checks
    /// it before every pass (returning [`CompileError::Cancelled`]
    /// once fired) and threads it into the context so long-running
    /// passes — the annealer's chain moves, per-block composition —
    /// observe it at much finer grain than the wall-clock budget.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Installs a telemetry handle: the manager opens a span per pass
    /// (category `core`) and threads the handle into the context so
    /// the mapper, blocker, composer, and verifier can instrument
    /// their own stages. The default disabled handle makes every
    /// instrumentation point a no-op.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables (or disables) inter-pass invariant checking: after each
    /// pass the manager verifies the physical circuit stays in the
    /// native basis, the logical register is preserved, and — for
    /// small circuits — that the output distribution still matches the
    /// program's (a unitary-equivalence spot check via `geyser-sim`).
    pub fn with_debug_invariants(mut self, on: bool) -> Self {
        self.debug_invariants = on;
        self
    }

    /// Appends a pass to the end of the list.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Names of the scheduled passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs the pipeline over a program.
    ///
    /// On success the returned [`CompiledCircuit`] carries a
    /// [`CompileReport`] with one entry per pass.
    ///
    /// # Robustness
    ///
    /// Every pass runs under `catch_unwind`: a panicking pass becomes
    /// [`CompileError::PassPanicked`] instead of unwinding through the
    /// caller. When the configured [`crate::Budget`] expires
    /// mid-pipeline, remaining passes are *skipped* (recorded in
    /// [`CompileReport::skipped_passes`]) and the best circuit built so
    /// far is finalized; the run only fails with
    /// [`CompileError::BudgetExceeded`] if the budget dies before a
    /// mapped circuit exists to degrade to.
    pub fn run(
        &self,
        program: &Circuit,
        config: &PipelineConfig,
    ) -> Result<CompiledCircuit, CompileError> {
        if program.num_qubits() == 0 {
            return Err(CompileError::EmptyProgram);
        }
        let mut ctx = CompileContext::new(program, self.technique, config);
        ctx.set_deadline(config.budget.start());
        ctx.set_cancel(self.cancel.clone());
        ctx.set_faults(self.faults.clone());
        ctx.set_telemetry(self.telemetry.clone());
        let mut pipeline_span = self.telemetry.span("core", "pipeline");
        pipeline_span.attr("technique", self.technique.label());
        let mut report = CompileReport::new(self.technique.label());
        report.hardware_digest = config.hardware.digest();
        for pass in &self.passes {
            // Cancellation wins over degradation: a cancelled job must
            // stop producing output, not finalize a partial circuit.
            if self.cancel.is_cancelled() {
                return Err(CompileError::Cancelled {
                    pass: pass.name().to_string(),
                });
            }
            if ctx.deadline().expired() {
                if ctx.mapped().is_some() {
                    // Graceful degradation: keep what compiled so far.
                    report.budget_exhausted = true;
                    report.skipped_passes.push(pass.name().to_string());
                    self.telemetry.counter_add("core.passes_skipped", 1);
                    continue;
                }
                return Err(CompileError::BudgetExceeded {
                    pass: pass.name().to_string(),
                });
            }
            if self.faults.hung_passes.iter().any(|p| p == pass.name()) {
                // Injected hang: the pass makes no progress, so the
                // only exits are the run's cancel token or the
                // wall-clock budget — exactly the paths a caller must
                // be able to free a stuck compile through.
                loop {
                    if self.cancel.is_cancelled() {
                        return Err(CompileError::Cancelled {
                            pass: pass.name().to_string(),
                        });
                    }
                    if ctx.deadline().expired() {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                if ctx.mapped().is_some() {
                    report.budget_exhausted = true;
                    report.skipped_passes.push(pass.name().to_string());
                    continue;
                }
                return Err(CompileError::BudgetExceeded {
                    pass: pass.name().to_string(),
                });
            }
            let (pulses_before, gates_before, depth_before) = snapshot(&ctx);
            let blocks_before = ctx.composition_stats().map(|s| s.blocks_composed as u64);
            let start = Instant::now();
            let inject_panic = self.faults.panic_passes.iter().any(|p| p == pass.name());
            // Panic isolation: a pass that unwinds (injected or a
            // genuine bug) is reported as a typed error; the context
            // is dropped with the run, never reused. The pass span is
            // closed by its guard on every path out of the
            // `catch_unwind` — including the unwinding one — so a
            // panicking pass never leaves an open span behind.
            let mut pass_span = self.telemetry.span("core", pass.name());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("injected fault in pass '{}'", pass.name());
                }
                pass.run(&mut ctx)
            }));
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    pass_span.attr("panicked", true);
                    return Err(CompileError::PassPanicked {
                        pass: pass.name().to_string(),
                        detail: panic_message(payload),
                    });
                }
            }
            drop(pass_span);
            self.telemetry.counter_add("core.passes_run", 1);
            let seconds = start.elapsed().as_secs_f64();
            let (pulses_after, gates_after, depth_after) = snapshot(&ctx);
            let blocks_after = ctx.composition_stats().map(|s| s.blocks_composed as u64);
            report.passes.push(PassReport {
                name: pass.name().to_string(),
                seconds,
                pulses_before,
                pulses_after,
                gates_before,
                gates_after,
                depth_before,
                depth_after,
                blocks_composed: match (blocks_before, blocks_after) {
                    (None, Some(after)) => Some(after),
                    (Some(before), Some(after)) if after != before => Some(after - before),
                    _ => None,
                },
            });
            if self.debug_invariants {
                check_invariants(&ctx, pass.name())?;
            }
        }
        report.budget_remaining_ms = ctx.deadline().remaining_ms();
        if let Some(stats) = ctx.composition_stats() {
            report.blocks_fell_back = stats.blocks_fell_back as u64;
            report.blocks_failed = stats.blocks_failed as u64;
            report.reuse = stats.reuse;
        }
        ctx.into_compiled(report)
    }
}

/// Renders a `catch_unwind` payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("technique", &self.technique)
            .field("passes", &self.pass_names())
            .field("debug_invariants", &self.debug_invariants)
            .finish()
    }
}

/// Deterministically corrupts the listed gate indices of a circuit:
/// a `U3` gets its θ shifted by 0.25 rad; a `CZ`/`CCZ` gets a stray
/// `U3(0.25, 0, 0)` inserted after it on its first qubit. Both stay in
/// the native basis, so no structural check can object — only
/// semantics change.
fn miscompile(circuit: &Circuit, gates: &[usize]) -> Circuit {
    let mut ops: Vec<Operation> = circuit.ops().to_vec();
    let mut targets: Vec<usize> = gates.iter().copied().filter(|&i| i < ops.len()).collect();
    targets.sort_unstable();
    targets.dedup();
    // Highest index first so insertions don't shift pending targets.
    for &i in targets.iter().rev() {
        match *ops[i].gate() {
            Gate::U3 { theta, phi, lambda } => {
                ops[i] = Operation::new(
                    Gate::U3 {
                        theta: theta + 0.25,
                        phi,
                        lambda,
                    },
                    ops[i].qubits().to_vec(),
                );
            }
            _ => {
                let q = ops[i].qubits()[0];
                ops.insert(
                    i + 1,
                    Operation::new(
                        Gate::U3 {
                            theta: 0.25,
                            phi: 0.0,
                            lambda: 0.0,
                        },
                        vec![q],
                    ),
                );
            }
        }
    }
    let mut out = Circuit::new(circuit.num_qubits());
    for op in ops {
        out.push(op);
    }
    out
}

/// (total pulses, gate count, depth pulses) of the context's current
/// circuit.
fn snapshot(ctx: &CompileContext<'_>) -> (u64, u64, u64) {
    let c = ctx.current_circuit();
    (c.total_pulses(), c.len() as u64, c.depth_pulses())
}

/// Inter-pass invariant checks (debug mode).
fn check_invariants(ctx: &CompileContext<'_>, pass: &str) -> Result<(), CompileError> {
    let Some(mapped) = ctx.mapped() else {
        return Ok(()); // pre-mapping stages carry no physical circuit
    };
    if mapped.num_logical() != ctx.program().num_qubits() {
        return Err(CompileError::InvariantViolation {
            pass: pass.to_string(),
            detail: format!(
                "logical register changed: program has {} qubits, mapped circuit tracks {}",
                ctx.program().num_qubits(),
                mapped.num_logical()
            ),
        });
    }
    let current = ctx.current_circuit();
    if !current.is_native_basis() {
        return Err(CompileError::InvariantViolation {
            pass: pass.to_string(),
            detail: "physical circuit left the native {U3, CZ, CCZ} basis".to_string(),
        });
    }
    // Unitary-equivalence spot check on small circuits: the compiled
    // output distribution (marginalized onto the logical register)
    // must match the program's ideal distribution. Composition is
    // approximate (per-block HSD <= epsilon), so the tolerance widens
    // once composed blocks are in play.
    let nodes = current.num_qubits();
    if nodes <= SPOT_CHECK_MAX_NODES && nodes == mapped.lattice().num_nodes() {
        let got = mapped.logical_distribution(&ideal_distribution(current));
        let want = ideal_distribution(ctx.program());
        let tvd = total_variation_distance(&want, &got);
        let tol = if ctx.composition_stats().is_some() {
            5e-2
        } else {
            1e-6
        };
        if tvd > tol {
            return Err(CompileError::InvariantViolation {
                pass: pass.to_string(),
                detail: format!("output distribution diverged from program: TVD = {tvd:.3e}"),
            });
        }
    }
    Ok(())
}
