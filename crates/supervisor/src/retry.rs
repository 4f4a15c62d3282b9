//! Seeded exponential backoff with deterministic jitter.

use geyser::splitmix64;

/// Retry budget and backoff schedule for retryable failures.
///
/// The schedule is exponential (`base_backoff_ms · 2^attempt`),
/// clamped to `max_backoff_ms`, plus a jitter term drawn from a
/// splitmix64 stream keyed on `(seed, job, attempt)` — so two
/// supervisors with the same seed replay byte-identical schedules,
/// while concurrent jobs still decorrelate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed beyond the first attempt (0 = never retry).
    pub max_retries: usize,
    /// Backoff before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Ceiling on a single backoff sleep, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_retries` retries with short test-scale
    /// backoffs.
    pub fn with_retries(max_retries: usize) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The backoff to sleep before retry number `attempt` (0-based:
    /// the first retry is attempt 0) of job `job_id`.
    ///
    /// Deterministic in `(seed, job_id, attempt)`.
    pub fn backoff_ms(&self, job_id: u64, attempt: usize) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ms);
        // Jitter in [0, base_backoff_ms): enough to decorrelate
        // retries without dominating the schedule.
        let jitter_span = self.base_backoff_ms.max(1);
        let draw = splitmix64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(job_id)
                .wrapping_add((attempt as u64) << 32),
        );
        exp.saturating_add(draw % jitter_span)
            .min(self.max_backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 500,
            seed: 42,
        };
        for attempt in 0..5 {
            assert_eq!(p.backoff_ms(7, attempt), p.backoff_ms(7, attempt));
        }
        let q = RetryPolicy { seed: 43, ..p };
        // Different seeds must shift at least one jittered sleep.
        assert!((0..5).any(|a| p.backoff_ms(7, a) != q.backoff_ms(7, a)));
    }

    #[test]
    fn backoff_grows_exponentially_until_clamped() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_ms: 10,
            max_backoff_ms: 100,
            seed: 1,
        };
        // Exponential part: 10, 20, 40, 80, then clamped to 100.
        assert!(p.backoff_ms(0, 0) >= 10 && p.backoff_ms(0, 0) < 20);
        assert!(p.backoff_ms(0, 1) >= 20 && p.backoff_ms(0, 1) < 30);
        assert!(p.backoff_ms(0, 2) >= 40 && p.backoff_ms(0, 2) < 50);
        assert_eq!(p.backoff_ms(0, 6), 100);
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(p.backoff_ms(0, 1_000), 100);
    }

    #[test]
    fn jobs_decorrelate() {
        let p = RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 1_000,
            max_backoff_ms: 100_000,
            seed: 9,
        };
        // With a wide jitter span, distinct jobs should not all share
        // a schedule.
        assert!((1..20).any(|job| p.backoff_ms(job, 0) != p.backoff_ms(0, 0)));
    }
}
