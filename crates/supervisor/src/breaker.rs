//! Per-workload circuit breaker.
//!
//! A workload whose jobs keep failing (a generator bug, an unmappable
//! size, a poisoned cache entry) should stop consuming queue slots and
//! compile minutes. The breaker counts consecutive failures per
//! workload; at the threshold it *trips open* and jobs for that
//! workload fail fast as [`crate::JobState::Broken`] without running.
//! After a cooldown the breaker *half-opens*: exactly one probe job is
//! admitted, and its outcome decides between closing (recovered) and
//! re-opening (still broken).

use std::time::Instant;

/// Thresholds for one [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: usize,
    /// Milliseconds the breaker stays open before half-opening. Zero
    /// means the next admission check already half-opens (useful in
    /// tests and for breakers meant only to absorb bursts).
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 30_000,
        }
    }
}

/// The observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: jobs run normally.
    Closed,
    /// Tripped: jobs fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe job is in flight; its outcome
    /// closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    /// Stable kebab-case label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Consecutive-failure circuit breaker for one workload.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: usize,
    opened_at: Option<Instant>,
    /// Closed → Open transitions over the breaker's lifetime.
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            trips: 0,
        }
    }

    /// Current state (advancing Open → HalfOpen if the cooldown has
    /// elapsed is done by [`CircuitBreaker::admit`], not here).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime count of trips (Closed/HalfOpen → Open transitions).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Whether a job may run now. Advances Open → HalfOpen once the
    /// cooldown has elapsed; in HalfOpen only the transitioning call
    /// (the probe) is admitted.
    pub fn admit(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let elapsed_ms = self
                    .opened_at
                    .map(|t| t.elapsed().as_millis() as u64)
                    .unwrap_or(u64::MAX);
                if elapsed_ms >= self.config.cooldown_ms {
                    self.state = BreakerState::HalfOpen;
                    true // this caller is the probe
                } else {
                    false
                }
            }
            // A probe is already in flight; everyone else waits.
            BreakerState::HalfOpen => false,
        }
    }

    /// Records a successful job: resets the failure streak and closes
    /// a half-open breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
        self.opened_at = None;
    }

    /// Records a cancelled job. Cancellation says nothing about the
    /// workload's health, so the failure streak is left alone — but a
    /// cancelled half-open probe must give its slot back, or every
    /// later admission would wait on a probe that never reports. The
    /// breaker returns to Open with its original `opened_at`, so the
    /// next admission re-probes once the cooldown has elapsed.
    pub fn record_cancelled(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open;
        }
    }

    /// Records a failed job: extends the streak, tripping the breaker
    /// at the threshold; a failed half-open probe re-opens
    /// immediately.
    pub fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        let should_trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.config.failure_threshold,
            BreakerState::Open => false,
        };
        if should_trip {
            self.state = BreakerState::Open;
            self.opened_at = Some(Instant::now());
            self.trips += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 60_000,
        });
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "long cooldown: still open");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 60_000,
        });
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn zero_cooldown_half_opens_immediately_and_recovers_on_probe_success() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 0,
        });
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // First admission check is the probe…
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // …and nobody else gets in while it runs.
        assert!(!b.admit());
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn failed_probe_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 0,
        });
        b.record_failure();
        assert!(b.admit()); // half-open probe
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn cancelled_probe_releases_the_half_open_slot() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 0,
        });
        b.record_failure();
        let opened_at = b.opened_at;
        assert!(b.admit(), "first admission is the probe");
        b.record_cancelled();
        assert_eq!(b.state(), BreakerState::Open, "probe released, not closed");
        assert_eq!(
            b.opened_at, opened_at,
            "the cooldown clock is not restarted"
        );
        assert_eq!(b.trips(), 1, "a cancelled probe is not a trip");
        assert!(b.admit(), "the cooldown already elapsed: re-probe");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // A cancellation while closed changes nothing.
        b.record_cancelled();
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
