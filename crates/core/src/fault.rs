//! Deterministic, config-driven fault injection for robustness tests.
//!
//! A [`FaultInjector`] is a *plan*: which pass panics, which
//! composition blocks are corrupted or panic, which Monte-Carlo
//! trajectories go NaN, whether the composition deadline is forced to
//! expire. The plan is plain data — building the same plan twice (or
//! deriving it from the same seed via [`FaultInjector::sampled`])
//! injects byte-identical faults, so every failure a fault test
//! provokes is reproducible.
//!
//! Injection is wired behind explicit entry points
//! ([`crate::PassManager::with_faults`]); the default pipeline carries
//! an empty plan and pays no cost for the machinery.

use std::fmt;

use geyser_compose::ComposeFaults;
use geyser_sim::SimFaults;

/// A deterministic fault plan for one compilation/evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjector {
    /// Passes (by [`crate::Pass::name`]) that panic on entry; the
    /// manager must convert each to
    /// [`crate::CompileError::PassPanicked`].
    pub panic_passes: Vec<String>,
    /// Passes that hang on entry (sleep-loop) until the run's
    /// cancellation token fires or the budget expires. Exercises the
    /// pass manager's ability to free a stuck compile through either.
    pub hung_passes: Vec<String>,
    /// Forces the composition deadline to be already expired: every
    /// eligible block must fall back with `budget-exhausted`.
    pub force_compose_timeout: bool,
    /// Gate indices of the *final* compiled circuit to corrupt after
    /// every internal check has run — a deliberate silent miscompile
    /// that only an end-to-end equivalence oracle can catch. Indices
    /// beyond the circuit inject nothing.
    pub miscompile_gates: Vec<usize>,
    /// Perturbs every `Composed` entry in the reuse index after it is
    /// loaded (a planted stale/poisoned store): the ε re-check must
    /// reject every poisoned replay, so the compile stays clean.
    pub reuse_poison: bool,
    /// Disables the ε re-check on reuse replays — cached compositions
    /// are trusted blindly. Combined with `reuse-poison` this lets
    /// garbage escape into the output; the geyser-verify reuse
    /// invariant (nonzero `unverified_replays`) must trip on it.
    pub reuse_skip_verify: bool,
    /// Composition-stage faults (corrupted candidates, per-block worker
    /// panics).
    pub compose: ComposeFaults,
    /// Sampler faults (transient/persistent NaN trajectories).
    pub sim: SimFaults,
}

/// Why a `--inject` fault spec failed to parse.
///
/// Carries the offending token so CLI layers can print a pointed
/// message instead of panicking on user input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The token's kind is not in the fault table.
    UnknownKind {
        /// The unrecognized kind.
        kind: String,
    },
    /// The kind requires a `:<arg>` and none was given.
    MissingArg {
        /// The fault kind missing its argument.
        kind: String,
        /// What the argument should have been (e.g. `block`).
        expected: &'static str,
    },
    /// The `:<arg>` was present but not a valid index.
    BadIndex {
        /// The full offending token.
        token: String,
        /// What the argument should have been.
        expected: &'static str,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::UnknownKind { kind } => {
                write!(f, "unknown fault kind '{kind}'")
            }
            FaultSpecError::MissingArg { kind, expected } => {
                write!(f, "fault '{kind}' needs :<{expected}>")
            }
            FaultSpecError::BadIndex { token, expected } => {
                write!(f, "fault '{token}': bad {expected} index")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// The splitmix64 increment (the golden-ratio constant).
const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 draw — the workspace's standard dependency-free
/// generator: fault plans and the chaos schedules draw from it.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// An empty plan: no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.panic_passes.is_empty()
            && self.hung_passes.is_empty()
            && !self.force_compose_timeout
            && self.miscompile_gates.is_empty()
            && !self.reuse_poison
            && !self.reuse_skip_verify
            && self.compose.is_empty()
            && self.sim.is_empty()
    }

    /// Derives a one-of-each fault plan from a seed: one corrupted
    /// composition block, one panicking block, and one transient NaN
    /// trajectory, all chosen by splitmix64 draws. Used by randomized
    /// robustness tests that want coverage across runs while each run
    /// stays reproducible.
    pub fn sampled(seed: u64, blocks: usize, trajectories: usize) -> Self {
        let mut state = seed;
        let mut draw = move |modulus: usize| -> usize {
            let z = splitmix64(state);
            state = state.wrapping_add(SPLITMIX64_GAMMA);
            (z % modulus.max(1) as u64) as usize
        };
        FaultInjector {
            compose: ComposeFaults {
                corrupt_blocks: vec![draw(blocks)],
                panic_blocks: vec![draw(blocks)],
            },
            sim: SimFaults {
                nan_trajectories: vec![draw(trajectories)],
                ..SimFaults::none()
            },
            ..FaultInjector::none()
        }
    }

    /// Renders the plan back into `--inject` syntax, the inverse of
    /// [`FaultInjector::parse`]. Chaos campaigns use this to report
    /// exactly which fault composition each campaign ran, in a form
    /// that can be replayed verbatim with `--inject`.
    pub fn spec(&self) -> String {
        let mut tokens: Vec<String> = Vec::new();
        for p in &self.panic_passes {
            tokens.push(format!("pass-panic:{p}"));
        }
        for p in &self.hung_passes {
            tokens.push(format!("hang-pass:{p}"));
        }
        if self.force_compose_timeout {
            tokens.push("compose-timeout".to_string());
        }
        for g in &self.miscompile_gates {
            tokens.push(format!("miscompile:{g}"));
        }
        if self.reuse_poison {
            tokens.push("reuse-poison".to_string());
        }
        if self.reuse_skip_verify {
            tokens.push("reuse-skip-verify".to_string());
        }
        for b in &self.compose.corrupt_blocks {
            tokens.push(format!("compose-corrupt:{b}"));
        }
        for b in &self.compose.panic_blocks {
            tokens.push(format!("compose-panic:{b}"));
        }
        for t in &self.sim.nan_trajectories {
            tokens.push(format!("sim-nan:{t}"));
        }
        for t in &self.sim.persistent_nan_trajectories {
            tokens.push(format!("sim-nan-persistent:{t}"));
        }
        tokens.join(",")
    }

    /// Parses a comma-separated fault spec, the `--inject` syntax of
    /// the bench binaries:
    ///
    /// | token | fault |
    /// |---|---|
    /// | `pass-panic:<name>` | pass `<name>` panics on entry |
    /// | `hang-pass:<name>` | pass `<name>` hangs until cancelled or out of budget |
    /// | `compose-timeout` | composition deadline forced expired |
    /// | `miscompile:<i>` | gate `i` of the final circuit silently corrupted |
    /// | `reuse-poison` | every loaded Composed reuse entry's params perturbed |
    /// | `reuse-skip-verify` | reuse replays skip the ε re-check (trusted blindly) |
    /// | `compose-corrupt:<i>` | block `i`'s winning candidate corrupted |
    /// | `compose-panic:<i>` | block `i`'s worker panics |
    /// | `sim-nan:<t>` | trajectory `t` transiently NaN (recovers) |
    /// | `sim-nan-persistent:<t>` | trajectory `t` NaN on every retry |
    ///
    /// # Example
    ///
    /// ```
    /// use geyser::FaultInjector;
    /// let f = FaultInjector::parse("compose-corrupt:0,sim-nan:3").unwrap();
    /// assert_eq!(f.compose.corrupt_blocks, vec![0]);
    /// assert_eq!(f.sim.nan_trajectories, vec![3]);
    /// assert!(FaultInjector::parse("bogus").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = FaultInjector::none();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, arg) = match token.split_once(':') {
                Some((k, a)) => (k, Some(a)),
                None => (token, None),
            };
            let index = |expected: &'static str| -> Result<usize, FaultSpecError> {
                arg.ok_or(FaultSpecError::MissingArg {
                    kind: kind.to_string(),
                    expected,
                })?
                .parse()
                .map_err(|_| FaultSpecError::BadIndex {
                    token: token.to_string(),
                    expected,
                })
            };
            let name = |expected: &'static str| -> Result<String, FaultSpecError> {
                arg.map(str::to_string).ok_or(FaultSpecError::MissingArg {
                    kind: kind.to_string(),
                    expected,
                })
            };
            match kind {
                "pass-panic" => plan.panic_passes.push(name("pass-name")?),
                "hang-pass" => plan.hung_passes.push(name("pass-name")?),
                "compose-timeout" => plan.force_compose_timeout = true,
                "miscompile" => plan.miscompile_gates.push(index("gate")?),
                "reuse-poison" => plan.reuse_poison = true,
                "reuse-skip-verify" => plan.reuse_skip_verify = true,
                "compose-corrupt" => plan.compose.corrupt_blocks.push(index("block")?),
                "compose-panic" => plan.compose.panic_blocks.push(index("block")?),
                "sim-nan" => plan.sim.nan_trajectories.push(index("trajectory")?),
                "sim-nan-persistent" => plan
                    .sim
                    .persistent_nan_trajectories
                    .push(index("trajectory")?),
                other => {
                    return Err(FaultSpecError::UnknownKind {
                        kind: other.to_string(),
                    })
                }
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultInjector::none().is_empty());
        assert!(!FaultInjector::parse("compose-timeout").unwrap().is_empty());
        assert!(!FaultInjector::parse("hang-pass:map").unwrap().is_empty());
        assert!(!FaultInjector::parse("miscompile:0").unwrap().is_empty());
        assert!(!FaultInjector::parse("reuse-poison").unwrap().is_empty());
        assert!(!FaultInjector::parse("reuse-skip-verify")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parse_covers_every_kind() {
        let plan = FaultInjector::parse(
            "pass-panic:map, hang-pass:block, compose-timeout, \
             compose-corrupt:1, compose-panic:2, sim-nan:3, sim-nan-persistent:4, \
             miscompile:5, reuse-poison, reuse-skip-verify",
        )
        .unwrap();
        assert_eq!(plan.panic_passes, vec!["map".to_string()]);
        assert_eq!(plan.hung_passes, vec!["block".to_string()]);
        assert!(plan.force_compose_timeout);
        assert_eq!(plan.compose.corrupt_blocks, vec![1]);
        assert_eq!(plan.compose.panic_blocks, vec![2]);
        assert_eq!(plan.sim.nan_trajectories, vec![3]);
        assert_eq!(plan.sim.persistent_nan_trajectories, vec![4]);
        assert_eq!(plan.miscompile_gates, vec![5]);
        assert!(plan.reuse_poison);
        assert!(plan.reuse_skip_verify);
    }

    #[test]
    fn parse_rejects_malformed_tokens_with_typed_errors() {
        assert_eq!(
            FaultInjector::parse("warp-core-breach"),
            Err(FaultSpecError::UnknownKind {
                kind: "warp-core-breach".to_string()
            })
        );
        assert_eq!(
            FaultInjector::parse("compose-corrupt"),
            Err(FaultSpecError::MissingArg {
                kind: "compose-corrupt".to_string(),
                expected: "block"
            })
        );
        assert_eq!(
            FaultInjector::parse("sim-nan:many"),
            Err(FaultSpecError::BadIndex {
                token: "sim-nan:many".to_string(),
                expected: "trajectory"
            })
        );
        // The message names the offending token.
        let err = FaultInjector::parse("frobnicate:7").unwrap_err();
        assert!(matches!(err, FaultSpecError::UnknownKind { .. }));
        assert!(err.to_string().contains("frobnicate"), "{err}");
        let err = FaultInjector::parse("compose-corrupt:banana").unwrap_err();
        assert!(matches!(err, FaultSpecError::BadIndex { .. }));
        assert!(err.to_string().contains("banana"), "{err}");
        assert!(FaultInjector::parse("pass-panic").is_err());
        assert!(FaultInjector::parse("hang-pass").is_err());
        assert!(FaultInjector::parse("miscompile").is_err());
        assert!(FaultInjector::parse("miscompile:first").is_err());
        // The write-ahead journal's and the supervision runtime's
        // fault tokens retired with them.
        for retired in [
            "kill-mid-journal-append:6",
            "kill-mid-compaction",
            "torn-journal-tail",
            "pass-panic-once:compose",
            "kill-after-block:1",
            "checkpoint-corrupt",
        ] {
            let kind = retired.split(':').next().unwrap().to_string();
            assert_eq!(
                FaultInjector::parse(retired),
                Err(FaultSpecError::UnknownKind { kind })
            );
        }
    }

    #[test]
    fn spec_errors_render_pointed_messages() {
        let e = FaultInjector::parse("sim-nan:many").unwrap_err();
        assert_eq!(e.to_string(), "fault 'sim-nan:many': bad trajectory index");
        let e = FaultInjector::parse("explode").unwrap_err();
        assert_eq!(e.to_string(), "unknown fault kind 'explode'");
        let e = FaultInjector::parse("hang-pass").unwrap_err();
        assert_eq!(e.to_string(), "fault 'hang-pass' needs :<pass-name>");
    }

    #[test]
    fn spec_roundtrips_through_parse() {
        let spec = "pass-panic:map,hang-pass:block,compose-timeout,\
                    miscompile:5,reuse-poison,reuse-skip-verify,\
                    compose-corrupt:1,compose-panic:2,sim-nan:3,\
                    sim-nan-persistent:4";
        let plan = FaultInjector::parse(spec).unwrap();
        assert_eq!(plan.spec(), spec);
        assert_eq!(FaultInjector::parse(&plan.spec()).unwrap(), plan);
        assert_eq!(FaultInjector::none().spec(), "");
    }

    #[test]
    fn sampled_is_deterministic_per_seed() {
        let a = FaultInjector::sampled(9, 7, 50);
        let b = FaultInjector::sampled(9, 7, 50);
        assert_eq!(a, b);
        assert!(a.compose.corrupt_blocks[0] < 7);
        assert!(a.compose.panic_blocks[0] < 7);
        assert!(a.sim.nan_trajectories[0] < 50);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The reference generator's first two outputs from state 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(SPLITMIX64_GAMMA), 0x6e78_9e6a_a1b9_65f4);
        // Fault plans are pinned to the same stream: seed 9 draws
        // these blocks and trajectory.
        let plan = FaultInjector::sampled(9, 7, 50);
        assert_eq!(plan.compose.corrupt_blocks, vec![2]);
        assert_eq!(plan.compose.panic_blocks, vec![2]);
        assert_eq!(plan.sim.nan_trajectories, vec![38]);
    }
}
