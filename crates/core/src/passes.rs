//! Built-in passes: the paper's pipeline stages wrapped as [`Pass`]es.
//!
//! Each pass is a thin adapter over its home crate's fallible entry
//! point (`geyser_map::try_map_circuit_traced`,
//! `geyser_blocking::try_block_circuit_traced`,
//! `geyser_compose::try_compose_blocked_circuit_reusing`); the
//! algorithms themselves live in those crates.

use geyser_blocking::try_block_circuit_traced;
use geyser_compose::{try_compose_blocked_circuit_reusing, CompositionConfig};
use geyser_map::{optimize_to_fixpoint, try_map_circuit_traced, MappingOptions};
use geyser_optimize::Deadline;
use geyser_reuse::{load_reuse_dir, reuse_config_hash, save_reuse_dir, ReuseSession};

pub use geyser_topology::LatticeKind;

use crate::pass::{CompileContext, Pass};
use crate::CompileError;

/// Allocates the physical lattice sized for the program.
///
/// Geometry — family, dimensions, spacing, interaction radius — comes
/// from the pipeline's [`geyser_hardware::HardwareSpec`]; a technique
/// may pin the lattice *family* (the superconducting comparison always
/// runs on a square grid) while spacing and radius still follow the
/// spec.
#[derive(Debug, Clone, Copy)]
pub struct AllocateLatticePass {
    /// Lattice family forced by the technique, or `None` to use the
    /// hardware spec's family.
    pub kind_override: Option<LatticeKind>,
}

impl AllocateLatticePass {
    /// Allocates whatever family the hardware spec declares (all
    /// neutral-atom techniques).
    pub fn from_spec() -> Self {
        AllocateLatticePass {
            kind_override: None,
        }
    }

    /// Forces a triangular lattice regardless of the spec (pipeline
    /// tests that hand-build pass lists).
    pub fn triangular() -> Self {
        AllocateLatticePass {
            kind_override: Some(LatticeKind::Triangular),
        }
    }

    /// Forces a square lattice (the superconducting comparison).
    pub fn square() -> Self {
        AllocateLatticePass {
            kind_override: Some(LatticeKind::Square),
        }
    }
}

impl Pass for AllocateLatticePass {
    fn name(&self) -> &'static str {
        "allocate-lattice"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let n = ctx.program().num_qubits();
        let lattice = ctx.config().hardware.build_lattice(n, self.kind_override);
        ctx.set_lattice(lattice);
        Ok(())
    }
}

/// Maps the logical program onto the allocated lattice: lowering,
/// layout, SWAP routing, native-basis translation, and (for the
/// optimized options) the OptiMap passes.
#[derive(Debug, Clone, Copy)]
pub struct MapPass {
    /// Mapping options (baseline vs optimized).
    pub options: MappingOptions,
}

impl MapPass {
    /// Baseline mapping: no optimization passes.
    pub fn baseline() -> Self {
        MapPass {
            options: MappingOptions::baseline(),
        }
    }

    /// OptiMap mapping: smart layout plus optimization to fixpoint.
    pub fn optimized() -> Self {
        MapPass {
            options: MappingOptions::optimized(),
        }
    }
}

impl Pass for MapPass {
    fn name(&self) -> &'static str {
        "map"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let lattice = ctx.lattice().ok_or(CompileError::MissingStage {
            pass: "map",
            requires: "allocate-lattice",
        })?;
        let mapped =
            try_map_circuit_traced(ctx.program(), lattice, &self.options, ctx.telemetry())?;
        ctx.set_mapped(mapped);
        Ok(())
    }
}

/// Partitions the mapped circuit into rounds of triangle blocks
/// (paper Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockPass;

impl Pass for BlockPass {
    fn name(&self) -> &'static str {
        "block"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let mapped = ctx.mapped().ok_or(CompileError::MissingStage {
            pass: "block",
            requires: "map",
        })?;
        let lattice = ctx.lattice().ok_or(CompileError::MissingStage {
            pass: "block",
            requires: "allocate-lattice",
        })?;
        // The hardware's simultaneous-pulse cap folds into the
        // blocking options unless the caller already set a tighter
        // explicit cap.
        let mut blocking = ctx.config().blocking;
        if blocking.max_blocks_per_round.is_none() {
            blocking.max_blocks_per_round = ctx.config().hardware.parallel_block_limit();
        }
        let blocked =
            try_block_circuit_traced(mapped.circuit(), lattice, &blocking, ctx.telemetry())?;
        ctx.set_blocked(blocked);
        Ok(())
    }
}

/// Re-synthesizes every eligible block with annealed U3 + CZ/CCZ
/// layers (paper Algorithm 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ComposePass;

impl ComposePass {
    /// The composition config a run searches under: the pipeline's,
    /// with the pipeline budget threaded into the per-block search. A
    /// forced-timeout fault overrides it so every block must prove it
    /// degrades to `budget-exhausted` fallback.
    fn config(ctx: &CompileContext<'_>) -> CompositionConfig {
        let cfg = ctx.config().composition;
        if ctx.faults().force_compose_timeout {
            cfg.with_deadline(Deadline::already_expired())
        } else if ctx.deadline().is_bounded() {
            cfg.with_deadline(ctx.deadline())
        } else {
            cfg
        }
    }
}

impl Pass for ComposePass {
    fn name(&self) -> &'static str {
        "compose"
    }

    /// Composes the blocked circuit (through a reuse session when the
    /// pipeline enables one), installs the result, and surfaces a
    /// mid-composition cancellation as a typed error.
    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let cfg = ComposePass::config(ctx);
        let blocked = ctx.blocked().ok_or(CompileError::MissingStage {
            pass: "compose",
            requires: "block",
        })?;
        let reuse = ctx.config().reuse.clone();
        // The reuse session is keyed to this exact scenario: entries
        // only replay under the same hardware digest and the same
        // acceptance-relevant composition knobs and search version.
        let mut session = reuse.enabled.then(|| {
            ReuseSession::new(
                ctx.config().hardware.digest(),
                reuse_config_hash(
                    cfg.epsilon,
                    cfg.max_layers,
                    cfg.anneal_iters,
                    cfg.restarts,
                    cfg.retry_attempts,
                ),
            )
            .with_warm_start(reuse.warm_start)
            .with_skip_verify_fault(ctx.faults().reuse_skip_verify)
        });
        if let Some(session) = &mut session {
            if let Some(dir) = &reuse.store {
                load_reuse_dir(dir, session, ctx.telemetry()).map_err(|e| {
                    CompileError::ReuseStore {
                        detail: format!("loading {}: {e}", dir.display()),
                    }
                })?;
            }
            if ctx.faults().reuse_poison {
                session.poison_entries();
            }
        }
        let mut composed = try_compose_blocked_circuit_reusing(
            blocked,
            &cfg,
            &ctx.faults().compose,
            ctx.cancel(),
            &[],
            None,
            ctx.telemetry(),
            session.as_mut(),
        )?;
        if let Some(mut session) = session {
            if let Some(dir) = &reuse.store {
                save_reuse_dir(dir, &mut session).map_err(|e| CompileError::ReuseStore {
                    detail: format!("saving {}: {e}", dir.display()),
                })?;
            }
            // Fold the final session stats (including store save
            // counts) back into the stats the report reads.
            composed.stats.reuse = Some(session.stats);
        }
        ctx.set_composed(composed.circuit, composed.stats);
        // A token that fired mid-composition left the remaining blocks
        // uncomposed; surface the typed terminal state instead of
        // finalizing a silently degraded circuit.
        if ctx.cancel().is_cancelled() {
            return Err(CompileError::Cancelled {
                pass: "compose".to_string(),
            });
        }
        Ok(())
    }
}

/// Final cleanup after composition: block substitution can expose new
/// single-qubit fusion opportunities at block seams; re-optimizing to
/// fixpoint never increases pulses. Installs the cleaned circuit as
/// the mapped result.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeamCleanupPass;

impl Pass for SeamCleanupPass {
    fn name(&self) -> &'static str {
        "seam-cleanup"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        if ctx.mapped().is_none() {
            return Err(CompileError::MissingStage {
                pass: "seam-cleanup",
                requires: "map",
            });
        }
        let composed = ctx.take_composed().ok_or(CompileError::MissingStage {
            pass: "seam-cleanup",
            requires: "compose",
        })?;
        let cleaned = optimize_to_fixpoint(&composed);
        // invariant: the composed circuit spans the same node space as
        // the mapped circuit, so with_circuit cannot panic.
        let mapped = ctx.mapped().expect("checked above").with_circuit(cleaned);
        ctx.set_mapped(mapped);
        Ok(())
    }
}
