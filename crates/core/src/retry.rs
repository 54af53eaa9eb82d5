//! Bounded retry with deterministic backoff for restore's storage reads.
//!
//! Local devices hiccup ([`StorageError::Transient`]) without being lost;
//! failing a whole collective restore over one recoverable read would be
//! self-inflicted data loss. A [`RetryPolicy`] bounds how often a fetch is
//! retried and spaces the attempts with a pure, deterministic backoff
//! schedule: `delay(attempt)` is a function of the policy and the attempt
//! number only, never of wall-clock state, so a simulated clock (or a
//! recording sleeper in tests) replays the identical schedule. Only
//! transient errors are retried — every other [`StorageError`] is a stable
//! fact about the cluster that waiting cannot change.

use std::time::Duration;

use replidedup_storage::StorageError;

/// Deterministic backoff schedule between retry attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Backoff {
    /// Retry immediately.
    None,
    /// The same pause before every retry.
    Fixed(Duration),
    /// `base * attempt` before retry number `attempt` (1-based).
    Linear(Duration),
    /// `base * 2^(attempt-1)`, saturating at `cap`.
    Exponential {
        /// Pause before the first retry.
        base: Duration,
        /// Upper bound on any single pause.
        cap: Duration,
    },
}

/// Bounded retry policy: at most `max_attempts` tries of an operation,
/// spaced by `backoff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`0` is treated as `1`:
    /// the operation always runs at least once).
    pub max_attempts: u32,
    /// Spacing between attempts.
    pub backoff: Backoff,
}

impl RetryPolicy {
    /// No retries: one attempt, transient errors surface immediately.
    pub const fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff: Backoff::None,
        }
    }

    /// Restore's default: 4 attempts with a short exponential backoff
    /// (1 ms, 2 ms, 4 ms) — enough to ride out an injected hiccup burst
    /// without stretching test runtimes.
    pub const fn default_restore() -> Self {
        Self {
            max_attempts: 4,
            backoff: Backoff::Exponential {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(16),
            },
        }
    }

    /// The pause before retry number `attempt` (1-based: the delay taken
    /// after the `attempt`-th failure). Pure — the whole schedule is
    /// derivable up front, which is what makes the policy
    /// simulated-clock friendly.
    pub fn delay(&self, attempt: u32) -> Duration {
        let attempt = attempt.max(1);
        match self.backoff {
            Backoff::None => Duration::ZERO,
            Backoff::Fixed(d) => d,
            Backoff::Linear(base) => base.saturating_mul(attempt),
            Backoff::Exponential { base, cap } => {
                // Every step saturates: the doubling factor pins to
                // u32::MAX once the shift leaves the type's width, the
                // multiply saturates Duration's range, and the cap bounds
                // the result — so even `attempt == u32::MAX` with a huge
                // base lands exactly on `cap` instead of wrapping.
                let factor = if attempt > u32::BITS {
                    u32::MAX
                } else {
                    1u32 << (attempt - 1)
                };
                base.saturating_mul(factor).min(cap)
            }
        }
    }

    /// Run `op` under this policy with an injectable sleeper: on each
    /// transient failure (while attempts remain) `sleep` is called with
    /// the deterministic [`RetryPolicy::delay`] for that attempt and `op`
    /// is retried. Non-transient errors and exhaustion return the error as
    /// is. Returns `(result, retries_taken)`.
    pub fn run_with_sleep<T>(
        &self,
        mut sleep: impl FnMut(Duration),
        mut op: impl FnMut() -> Result<T, StorageError>,
    ) -> (Result<T, StorageError>, u32) {
        let attempts = self.max_attempts.max(1);
        let mut retries = 0;
        loop {
            match op() {
                Err(e) if e.is_transient() && retries + 1 < attempts => {
                    retries += 1;
                    sleep(self.delay(retries));
                }
                done => return (done, retries),
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::default_restore()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn transient() -> StorageError {
        StorageError::Transient { node: 0 }
    }

    #[test]
    fn delay_schedules_are_pure_and_deterministic() {
        let fixed = RetryPolicy {
            max_attempts: 5,
            backoff: Backoff::Fixed(Duration::from_millis(7)),
        };
        assert_eq!(fixed.delay(1), Duration::from_millis(7));
        assert_eq!(fixed.delay(4), Duration::from_millis(7));

        let linear = RetryPolicy {
            max_attempts: 5,
            backoff: Backoff::Linear(Duration::from_millis(2)),
        };
        assert_eq!(linear.delay(1), Duration::from_millis(2));
        assert_eq!(linear.delay(3), Duration::from_millis(6));

        let exp = RetryPolicy::default_restore();
        assert_eq!(exp.delay(1), Duration::from_millis(1));
        assert_eq!(exp.delay(2), Duration::from_millis(2));
        assert_eq!(exp.delay(3), Duration::from_millis(4));
        assert_eq!(exp.delay(40), Duration::from_millis(16), "cap holds");
        assert_eq!(RetryPolicy::none().delay(1), Duration::ZERO);
    }

    #[test]
    fn exponential_backoff_saturates_at_the_cap_for_extreme_attempts() {
        // The cap must hold at every point where the doubling could
        // overflow: right at the shift width, just past it, and at the
        // largest representable attempt count.
        let exp = RetryPolicy::default_restore();
        for attempt in [31, 32, 33, 64, 1_000_000, u32::MAX] {
            assert_eq!(
                exp.delay(attempt),
                Duration::from_millis(16),
                "attempt {attempt} must pin to the cap, never wrap"
            );
        }
        // Even a pathological base (Duration::MAX) cannot overflow — the
        // multiply saturates and the cap still bounds the pause.
        let huge = RetryPolicy {
            max_attempts: u32::MAX,
            backoff: Backoff::Exponential {
                base: Duration::MAX,
                cap: Duration::from_secs(30),
            },
        };
        for attempt in [1, 2, 40, u32::MAX] {
            assert_eq!(huge.delay(attempt), Duration::from_secs(30));
        }
        // Linear saturates the same way instead of wrapping.
        let linear = RetryPolicy {
            max_attempts: u32::MAX,
            backoff: Backoff::Linear(Duration::MAX),
        };
        assert_eq!(linear.delay(u32::MAX), Duration::MAX);
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: Backoff::Fixed(Duration::from_millis(3)),
        };
        let failures = RefCell::new(2u32);
        let slept = RefCell::new(Vec::new());
        let (out, retries) = policy.run_with_sleep(
            |d| slept.borrow_mut().push(d),
            || {
                let mut left = failures.borrow_mut();
                if *left > 0 {
                    *left -= 1;
                    Err(transient())
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out, Ok(42));
        assert_eq!(retries, 2);
        assert_eq!(
            *slept.borrow(),
            vec![Duration::from_millis(3); 2],
            "the recorded schedule is exactly the policy's"
        );
    }

    #[test]
    fn exhaustion_returns_the_transient_error() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::None,
        };
        let mut calls = 0;
        let (out, retries) = policy.run_with_sleep(
            |_| {},
            || {
                calls += 1;
                Err::<(), _>(transient())
            },
        );
        assert_eq!(out, Err(transient()));
        assert_eq!(calls, 3, "exactly max_attempts tries");
        assert_eq!(retries, 2);
    }

    #[test]
    fn permanent_errors_never_retry() {
        let policy = RetryPolicy::default_restore();
        let mut calls = 0;
        let (out, retries) = policy.run_with_sleep(
            |_| panic!("must not sleep for a permanent error"),
            || {
                calls += 1;
                Err::<(), _>(StorageError::NodeDown(3))
            },
        );
        assert_eq!(out, Err(StorageError::NodeDown(3)));
        assert_eq!((calls, retries), (1, 0));
    }

    #[test]
    fn zero_max_attempts_still_runs_once() {
        let policy = RetryPolicy {
            max_attempts: 0,
            backoff: Backoff::None,
        };
        let (out, retries) = policy.run_with_sleep(|_| {}, || Ok(7));
        assert_eq!((out, retries), (Ok(7), 0));
    }
}
