//! Process exit codes shared by every bench binary.
//!
//! The harness grew its exit-status conventions one binary at a time;
//! this module is the single authority so sweep scripts and CI can
//! branch on numbers that mean the same thing everywhere:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | [`FAILURES`] | run completed but found failures (fuzz counterexamples, replay regressions, trace-check defects) |
//! | [`USAGE`] | malformed invocation: unknown flag, bad `--inject` spec, unloadable `--hardware`/`--specs` file |
//! | [`VERIFICATION_FAILED`] | a compiled circuit failed the equivalence oracle under `--verify` |
//! | [`CHAOS_INVARIANT`] | a chaos campaign caught the pipeline breaking a global invariant |

/// The run completed but found failures (fuzz counterexamples, replay
/// regressions, trace defects).
pub const FAILURES: i32 = 1;

/// Malformed invocation: unknown flag, bad fault spec, unloadable
/// hardware scenario.
pub const USAGE: i32 = 2;

/// A compiled circuit failed the equivalence oracle under `--verify`.
pub const VERIFICATION_FAILED: i32 = 4;

/// A chaos campaign caught a violated runtime invariant (see
/// `geyser_verify::invariants`).
pub const CHAOS_INVARIANT: i32 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        // 3 meant "cancelled, resumable" while checkpoints existed; it
        // stays unused so scripts reading 4 and 5 keep working.
        assert_eq!(
            [FAILURES, USAGE, VERIFICATION_FAILED, CHAOS_INVARIANT],
            [1, 2, 4, 5]
        );
    }
}
