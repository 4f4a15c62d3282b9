//! One supervised pipeline attempt: the stock pass list with the
//! composition stage wrapped in checkpoint load and write.

use std::path::PathBuf;

use geyser::passes::ComposePass;
use geyser::{
    CancelToken, CompileContext, CompileError, CompiledCircuit, FaultInjector, Pass, PassManager,
    PipelineConfig, Technique, Telemetry,
};
use geyser_circuit::Circuit;

use crate::checkpoint::{
    checkpoint_fingerprint, composition_config_hash, load_checkpoint_quarantining, Checkpoint,
    CheckpointWriter,
};
use crate::watchdog::Heartbeat;

/// How one supervised attempt should run.
#[derive(Debug, Clone)]
pub struct SupervisedCompileOptions {
    /// Technique whose pass list to run.
    pub technique: Technique,
    /// Fault plan for this attempt (the supervisor strips transient
    /// faults after attempt 0).
    pub faults: FaultInjector,
    /// The job's cancellation token.
    pub cancel: CancelToken,
    /// Composition checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Whether to restore a matching checkpoint before composing.
    pub resume: bool,
    /// Telemetry handle threaded through the pass manager (disabled by
    /// default; observational only).
    pub telemetry: Telemetry,
    /// Liveness beacon for the watchdog: beaten at every pass boundary
    /// and after every composed block. `None` when the attempt is not
    /// under watch.
    pub heartbeat: Option<Heartbeat>,
}

impl SupervisedCompileOptions {
    /// Plain supervised options: no faults, no checkpoint.
    pub fn new(technique: Technique) -> Self {
        SupervisedCompileOptions {
            technique,
            faults: FaultInjector::none(),
            cancel: CancelToken::none(),
            checkpoint: None,
            resume: false,
            telemetry: Telemetry::disabled(),
            heartbeat: None,
        }
    }
}

/// Decorates a pass with heartbeat reporting: beats on entry and exit
/// under the inner pass's name, so the watchdog sees staleness only
/// when a pass is genuinely stuck *inside* its body (injected hangs
/// trigger before entry, which is exactly a stuck worker).
struct HeartbeatPass {
    inner: Box<dyn Pass>,
    heartbeat: Heartbeat,
}

impl Pass for HeartbeatPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        self.heartbeat.beat(self.inner.name());
        let result = self.inner.run(ctx);
        self.heartbeat.beat(self.inner.name());
        result
    }
}

/// Drop-in replacement for the stock `compose` pass that persists
/// per-block results to a crash-safe checkpoint as they land and, on
/// resume, restores a matching checkpoint's blocks instead of
/// recomposing them.
///
/// Registered under the same pass name (`compose`) so reports,
/// invariant checks, and skip accounting are unchanged.
#[derive(Debug, Clone)]
pub struct CheckpointedComposePass {
    path: PathBuf,
    resume: bool,
    heartbeat: Option<Heartbeat>,
}

impl CheckpointedComposePass {
    /// A checkpointing compose pass writing to (and, if `resume`,
    /// restoring from) `path`.
    pub fn new(path: PathBuf, resume: bool) -> Self {
        CheckpointedComposePass {
            path,
            resume,
            heartbeat: None,
        }
    }

    /// Beats `heartbeat` after every composed block, keeping a long
    /// composition visibly alive to the watchdog.
    pub fn with_heartbeat(mut self, heartbeat: Heartbeat) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }
}

impl Pass for CheckpointedComposePass {
    fn name(&self) -> &'static str {
        "compose"
    }

    fn run(&self, ctx: &mut CompileContext<'_>) -> Result<(), CompileError> {
        let blocked = ctx.blocked().ok_or(CompileError::MissingStage {
            pass: "compose",
            requires: "block",
        })?;
        let cfg = ComposePass::config(ctx);
        let fingerprint = checkpoint_fingerprint(blocked.source());
        let num_blocks = blocked.num_blocks();
        let config_hash = composition_config_hash(&cfg);
        let hardware_digest = ctx.config().hardware.digest();
        // A checkpoint binds to (source circuit, composition seed,
        // block count, composition-config hash, hardware digest);
        // anything else is someone else's run and must not be spliced
        // in. Corrupt files are quarantined to a `.corrupt-<digest>`
        // sidecar and the run starts fresh — resume is an
        // optimization, never a correctness requirement.
        let (initial, prior) = match load_checkpoint_quarantining(&self.path, ctx.telemetry()) {
            Ok(ckpt)
                if self.resume
                    && ckpt.matches(
                        fingerprint,
                        cfg.seed,
                        num_blocks,
                        config_hash,
                        hardware_digest,
                    ) =>
            {
                let prior = ckpt.to_prior();
                (ckpt, prior)
            }
            _ => (
                Checkpoint::new(
                    fingerprint,
                    cfg.seed,
                    num_blocks,
                    config_hash,
                    hardware_digest,
                ),
                Vec::new(),
            ),
        };
        let writer = CheckpointWriter::new(
            self.path.clone(),
            initial,
            ctx.faults().corrupt_checkpoint,
            ctx.faults().kill_after_block,
            ctx.cancel().clone(),
            self.heartbeat.clone(),
        );
        ComposePass::compose(ctx, &cfg, &prior, Some(&writer))
    }
}

/// Runs one supervised pipeline attempt: the technique's stock pass
/// list, with the `compose` pass replaced by
/// [`CheckpointedComposePass`] when a checkpoint path is configured,
/// under the attempt's fault plan and cancellation token.
pub fn run_supervised_compile(
    program: &Circuit,
    config: &PipelineConfig,
    opts: &SupervisedCompileOptions,
) -> Result<CompiledCircuit, CompileError> {
    let passes: Vec<Box<dyn Pass>> = opts
        .technique
        .pass_list()
        .into_iter()
        .map(|pass| match (&opts.checkpoint, pass.name()) {
            (Some(path), "compose") => {
                let mut compose = CheckpointedComposePass::new(path.clone(), opts.resume);
                if let Some(hb) = &opts.heartbeat {
                    compose = compose.with_heartbeat(hb.clone());
                }
                Box::new(compose) as Box<dyn Pass>
            }
            _ => pass,
        })
        .map(|pass| match &opts.heartbeat {
            Some(hb) => Box::new(HeartbeatPass {
                inner: pass,
                heartbeat: hb.clone(),
            }) as Box<dyn Pass>,
            None => pass,
        })
        .collect();
    PassManager::new(opts.technique, passes)
        .with_faults(opts.faults.clone())
        .with_cancel(opts.cancel.clone())
        .with_telemetry(opts.telemetry.clone())
        .run(program, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::load_checkpoint;

    fn program() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).h(1).cz(1, 2).h(2).cz(0, 2).h(0).cz(1, 2);
        c
    }

    fn temp_ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "geyser-supervised-compile-{}-{tag}.json",
            std::process::id()
        ))
    }

    #[test]
    fn plain_supervised_compile_matches_unsupervised() {
        let cfg = PipelineConfig::fast();
        let direct = geyser::try_compile(&program(), Technique::Geyser, &cfg).unwrap();
        let supervised = run_supervised_compile(
            &program(),
            &cfg,
            &SupervisedCompileOptions::new(Technique::Geyser),
        )
        .unwrap();
        assert_eq!(
            supervised.mapped().circuit().ops(),
            direct.mapped().circuit().ops()
        );
    }

    #[test]
    fn kill_after_block_cancels_typed_and_leaves_partial_checkpoint() {
        let path = temp_ckpt("kill");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();
        let mut opts = SupervisedCompileOptions::new(Technique::Geyser);
        opts.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        opts.cancel = CancelToken::new();
        opts.checkpoint = Some(path.clone());
        let err = run_supervised_compile(&program(), &cfg, &opts).unwrap_err();
        assert!(
            matches!(err, CompileError::Cancelled { .. }),
            "expected typed Cancelled, got {err:?}"
        );
        let ckpt = load_checkpoint(&path).expect("partial checkpoint persisted");
        assert!(ckpt.num_recorded() >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_kill_is_bit_identical_to_uninterrupted_run() {
        let path = temp_ckpt("resume");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();

        // Reference: one uninterrupted run.
        let full = run_supervised_compile(
            &program(),
            &cfg,
            &SupervisedCompileOptions::new(Technique::Geyser),
        )
        .unwrap();

        // Run 1: killed after the first fresh block.
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();

        // Run 2: resume from the partial checkpoint, no faults.
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let recovered = run_supervised_compile(&program(), &cfg, &resumed).unwrap();

        assert_eq!(
            recovered.mapped().circuit().ops(),
            full.mapped().circuit().ops(),
            "resumed run must be bit-identical to the uninterrupted run"
        );
        let stats = recovered.composition_stats().unwrap();
        assert!(
            stats.blocks_resumed >= 1,
            "at least the checkpointed block must be restored"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_different_pipeline_config_is_rejected() {
        let path = temp_ckpt("config-skew");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();

        // Run 1: killed mid-composition, leaves a partial checkpoint.
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();
        assert!(load_checkpoint(&path).unwrap().num_recorded() >= 1);

        // Run 2: same circuit, same seed, same block count — but a
        // different composition ε. The checkpoint's blocks were
        // accepted under the old ε, so splicing them in would bypass
        // the new acceptance rule; the resume must start fresh.
        let mut skewed_cfg = cfg.clone();
        skewed_cfg.composition.epsilon = cfg.composition.epsilon / 10.0;
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let compiled = run_supervised_compile(&program(), &skewed_cfg, &resumed).unwrap();
        let stats = compiled.composition_stats().unwrap();
        assert_eq!(
            stats.blocks_resumed, 0,
            "stale-config checkpoint must be rejected, not spliced in"
        );

        // Run 3: matching config resumes normally.
        let _ = std::fs::remove_file(&path);
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let compiled = run_supervised_compile(&program(), &cfg, &resumed).unwrap();
        assert!(compiled.composition_stats().unwrap().blocks_resumed >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_different_hardware_spec_is_rejected() {
        let path = temp_ckpt("hardware-skew");
        let _ = std::fs::remove_file(&path);
        let cfg = PipelineConfig::fast();

        // Run 1: compiled for the paper machine, killed mid-composition.
        let mut killed = SupervisedCompileOptions::new(Technique::Geyser);
        killed.faults = geyser::FaultInjector::parse("kill-after-block:1").unwrap();
        killed.cancel = CancelToken::new();
        killed.checkpoint = Some(path.clone());
        run_supervised_compile(&program(), &cfg, &killed).unwrap_err();
        assert!(load_checkpoint(&path).unwrap().num_recorded() >= 1);

        // Run 2: identical pipeline knobs but a different hardware
        // scenario. Same circuit, seed, and composition config — only
        // the spec digest differs, and that alone must force a fresh
        // start.
        let skewed_cfg = cfg.clone().with_hardware(geyser::HardwareSpec::near_term());
        let mut resumed = SupervisedCompileOptions::new(Technique::Geyser);
        resumed.cancel = CancelToken::new();
        resumed.checkpoint = Some(path.clone());
        resumed.resume = true;
        let compiled = run_supervised_compile(&program(), &skewed_cfg, &resumed).unwrap();
        let stats = compiled.composition_stats().unwrap();
        assert_eq!(
            stats.blocks_resumed, 0,
            "cross-hardware checkpoint must be rejected, not spliced in"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_fresh_start() {
        let path = temp_ckpt("corrupt");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "{ not a checkpoint").unwrap();
        let cfg = PipelineConfig::fast();
        let mut opts = SupervisedCompileOptions::new(Technique::Geyser);
        opts.checkpoint = Some(path.clone());
        opts.resume = true;
        let compiled = run_supervised_compile(&program(), &cfg, &opts).unwrap();
        let stats = compiled.composition_stats().unwrap();
        assert_eq!(stats.blocks_resumed, 0, "nothing restorable from garbage");
        let _ = std::fs::remove_file(&path);
    }
}
