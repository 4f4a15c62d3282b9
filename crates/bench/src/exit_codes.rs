//! Process exit codes shared by every bench binary.
//!
//! The harness grew its exit-status conventions one binary at a time;
//! this module is the single authority so scripts and CI can branch
//! on numbers that mean the same thing everywhere:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | [`FAILURES`] | run completed but found failures (fuzz counterexamples, replay regressions, trace-check defects) |
//! | [`USAGE`] | malformed invocation: unknown flag, bad value, bad `--inject` spec, unloadable `--hardware` file |
//! | [`VERIFICATION_FAILED`] | a compiled circuit failed the equivalence oracle under `--verify` |

/// The run completed but found failures (fuzz counterexamples, replay
/// regressions, trace defects).
pub const FAILURES: i32 = 1;

/// Malformed invocation: unknown flag, bad value, bad fault spec,
/// unloadable hardware scenario.
pub const USAGE: i32 = 2;

/// A compiled circuit failed the equivalence oracle under `--verify`.
pub const VERIFICATION_FAILED: i32 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        // 3 meant "cancelled, resumable" while checkpoints existed and
        // 5 meant "chaos invariant" while the chaos harness existed;
        // both stay unused so scripts reading 4 keep working.
        assert_eq!([FAILURES, USAGE, VERIFICATION_FAILED], [1, 2, 4]);
    }
}
