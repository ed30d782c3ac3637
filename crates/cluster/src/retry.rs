//! Bounded retries with exponential backoff, deterministic jitter and a
//! per-request deadline.
//!
//! Every RPC in the cluster is idempotent (reads, registrations and
//! last-writer-wins puts), so the policy retries *any* failure — including
//! a connection that died mid-response — until either the attempt budget or
//! the time budget runs out. The two budgets produce two distinct typed
//! failures: [`CacheCloudError::Exhausted`] when every attempt failed with
//! time to spare, [`CacheCloudError::Timeout`] when the deadline expired
//! first. Telemetry reconciles on exactly that split: `rpc_errors` =
//! exhausted finals + `rpc_timeouts`.
//!
//! Jitter is deterministic — a hash of `(seed, lane, attempt)` via
//! [`cachecloud_net::unit_hash`], the same substrate the simulator's
//! `FaultPlan` uses — so a chaos run's retry schedule replays exactly under
//! a fixed seed. With `jitter <= 1` the backoff sequence is provably
//! monotone non-decreasing: level `a` starts at `base * 2^(a-1)`, which is
//! at least level `a-1`'s maximum of `base * 2^(a-2) * (1 + jitter)`.

use std::time::{Duration, Instant};

use cachecloud_net::unit_hash;
use cachecloud_types::{CacheCloudError, Result};

/// Retry configuration for one class of RPCs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per request (at least 1; 1 disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff pause.
    pub max_backoff: Duration,
    /// Total time budget of one request across all attempts.
    pub deadline: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by up to
    /// this fraction of itself, deterministically per `(seed, lane,
    /// attempt)`.
    pub jitter: f64,
    /// Seed of the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: Duration::from_secs(2),
            jitter: 0.5,
            seed: 0,
        }
    }
}

/// What one retried request cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryReport {
    /// Attempts made (1 = no retries).
    pub attempts: u32,
    /// Re-attempts after a transient failure (`attempts - 1` unless the
    /// deadline cut the loop short).
    pub retries: u32,
    /// Whether the final failure was the deadline (as opposed to a spent
    /// attempt budget or a success).
    pub timed_out: bool,
}

impl RetryPolicy {
    /// A tight policy for tests: small backoffs, sub-second deadline.
    pub fn fast() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            deadline: Duration::from_millis(800),
            jitter: 0.5,
            seed: 0,
        }
    }

    /// A single-attempt policy (failures surface immediately).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Checks the policy's invariants.
    ///
    /// # Errors
    ///
    /// Returns [`CacheCloudError::InvalidConfig`] when `max_attempts` is 0,
    /// `jitter` is outside `[0, 1]`, or the deadline is zero.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(CacheCloudError::InvalidConfig {
                param: "retry_max_attempts",
                reason: "at least one attempt is required".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(CacheCloudError::InvalidConfig {
                param: "retry_jitter",
                reason: format!("jitter {} must lie in [0, 1]", self.jitter),
            });
        }
        if self.deadline.is_zero() {
            return Err(CacheCloudError::InvalidConfig {
                param: "retry_deadline",
                reason: "deadline must be non-zero".into(),
            });
        }
        Ok(())
    }

    /// The backoff pause after failed attempt `attempt` (1-based), for the
    /// given jitter lane. Deterministic, monotone non-decreasing in
    /// `attempt`, capped at `max_backoff`.
    pub fn backoff(&self, lane: u64, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        // 2^(attempt-1), saturating well past any real cap.
        let factor = 2f64.powi(attempt.saturating_sub(1).min(62) as i32);
        let stretch = 1.0 + self.jitter * unit_hash(self.seed, lane, attempt as u64);
        let raw = self.base_backoff.as_secs_f64() * factor * stretch;
        Duration::from_secs_f64(raw.min(self.max_backoff.as_secs_f64()))
    }

    /// The pauses a maximally unlucky request would sleep, truncated where
    /// the cumulative schedule would cross the deadline. At most
    /// `max_attempts - 1` entries; their sum never exceeds `deadline`.
    pub fn schedule(&self, lane: u64) -> Vec<Duration> {
        let mut total = Duration::ZERO;
        let mut out = Vec::new();
        for attempt in 1..self.max_attempts {
            let pause = self.backoff(lane, attempt);
            if total + pause > self.deadline {
                break;
            }
            total += pause;
            out.push(pause);
        }
        out
    }

    /// Starts tracking one request under this policy. [`RetryPolicy::run`]
    /// drives it with blocking sleeps; the reactor's peer calls drive the
    /// same state machine with timer awaits, so both share one schedule.
    pub(crate) fn attempts(&self, lane: u64, what: &'static str) -> Attempts<'_> {
        Attempts {
            policy: self,
            lane,
            what,
            start: Instant::now(),
            report: RetryReport::default(),
            last: None,
        }
    }

    /// Runs `op` under this policy. Each attempt receives the remaining
    /// time budget (to use as its socket timeout); failed attempts back
    /// off and retry until success, a spent attempt budget
    /// ([`CacheCloudError::Exhausted`]) or a spent time budget
    /// ([`CacheCloudError::Timeout`]).
    pub fn run<T>(
        &self,
        lane: u64,
        what: &'static str,
        mut op: impl FnMut(Duration) -> Result<T>,
    ) -> (Result<T>, RetryReport) {
        let mut attempts = self.attempts(lane, what);
        let out = loop {
            let budget = match attempts.begin() {
                Ok(budget) => budget,
                Err(e) => break Err(e),
            };
            match op(budget) {
                Ok(v) => break Ok(v),
                Err(e) => match attempts.fail(e) {
                    Ok(pause) => std::thread::sleep(pause),
                    Err(e) => break Err(e),
                },
            }
        };
        (out, attempts.report())
    }
}

/// One request's progress through a [`RetryPolicy`]: call
/// [`Attempts::begin`] before each attempt and [`Attempts::fail`] after a
/// failed one, pausing for the duration `fail` returns.
#[derive(Debug)]
pub(crate) struct Attempts<'p> {
    policy: &'p RetryPolicy,
    lane: u64,
    what: &'static str,
    start: Instant,
    report: RetryReport,
    last: Option<CacheCloudError>,
}

impl Attempts<'_> {
    /// Starts the next attempt, returning its time budget, or the final
    /// error once either budget is spent.
    pub(crate) fn begin(&mut self) -> Result<Duration> {
        let Some(remaining) = self.policy.deadline.checked_sub(self.start.elapsed()) else {
            return Err(self.timed_out());
        };
        if self.report.attempts >= self.policy.max_attempts {
            let last = self.last.take().expect("at least one attempt was made");
            return Err(CacheCloudError::Exhausted {
                attempts: self.report.attempts,
                last: Box::new(last),
            });
        }
        if self.report.attempts > 0 {
            self.report.retries += 1;
        }
        self.report.attempts += 1;
        Ok(remaining)
    }

    /// Records a failed attempt. Returns the backoff pause before the next
    /// one (zero once the attempt budget is spent, so the next
    /// [`Attempts::begin`] reports exhaustion), or the final timeout when
    /// the pause would outlast the deadline.
    pub(crate) fn fail(&mut self, e: CacheCloudError) -> Result<Duration> {
        self.last = Some(e);
        if self.report.attempts >= self.policy.max_attempts {
            return Ok(Duration::ZERO);
        }
        let pause = self.policy.backoff(self.lane, self.report.attempts);
        match self.policy.deadline.checked_sub(self.start.elapsed()) {
            // Sleeping past the deadline helps no one: fail now.
            Some(remaining) if pause < remaining => Ok(pause),
            _ => Err(self.timed_out()),
        }
    }

    /// What the request has cost so far.
    pub(crate) fn report(&self) -> RetryReport {
        self.report
    }

    fn timed_out(&mut self) -> CacheCloudError {
        self.report.timed_out = true;
        CacheCloudError::Timeout {
            what: self.what,
            deadline_ms: self.policy.deadline.as_millis() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_valid() {
        RetryPolicy::default().validate().unwrap();
        RetryPolicy::fast().validate().unwrap();
        RetryPolicy::no_retries().validate().unwrap();
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = RetryPolicy {
            jitter: 1.5,
            ..RetryPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = RetryPolicy {
            deadline: Duration::ZERO,
            ..RetryPolicy::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn backoff_is_monotone_and_jitter_bounded() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_secs(10),
            deadline: Duration::from_secs(60),
            jitter: 1.0,
            seed: 42,
        };
        for lane in 0..20 {
            let mut prev = Duration::ZERO;
            for attempt in 1..10 {
                let b = p.backoff(lane, attempt);
                assert!(b >= prev, "backoff must not shrink: {b:?} < {prev:?}");
                let level = Duration::from_millis(5 * (1 << (attempt - 1)));
                assert!(b >= level, "below its level's floor");
                assert!(b <= level * 2, "above its level's jitter ceiling");
                prev = b;
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_per_lane() {
        let p = RetryPolicy::default();
        for attempt in 1..6 {
            assert_eq!(p.backoff(3, attempt), p.backoff(3, attempt));
        }
        // Different lanes decorrelate (with jitter > 0 some attempt differs).
        assert!((1..10).any(|a| p.backoff(1, a) != p.backoff(2, a)));
    }

    #[test]
    fn backoff_caps_at_max() {
        let p = RetryPolicy {
            max_backoff: Duration::from_millis(40),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0, 30), Duration::from_millis(40));
        // Huge attempt numbers must not overflow.
        assert_eq!(p.backoff(0, u32::MAX), Duration::from_millis(40));
    }

    #[test]
    fn schedule_never_exceeds_deadline() {
        let p = RetryPolicy {
            max_attempts: 50,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            deadline: Duration::from_millis(300),
            jitter: 1.0,
            seed: 7,
        };
        for lane in 0..50 {
            let sched = p.schedule(lane);
            let total: Duration = sched.iter().sum();
            assert!(total <= p.deadline, "{total:?} > {:?}", p.deadline);
            assert!(sched.len() < p.max_attempts as usize);
        }
    }

    #[test]
    fn run_succeeds_first_try_without_retries() {
        let p = RetryPolicy::fast();
        let (res, report) = p.run(0, "test rpc", |_| Ok(7));
        assert_eq!(res.unwrap(), 7);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.retries, 0);
        assert!(!report.timed_out);
    }

    #[test]
    fn run_retries_then_succeeds() {
        let p = RetryPolicy::fast();
        let mut calls = 0;
        let (res, report) = p.run(0, "test rpc", |_| {
            calls += 1;
            if calls < 3 {
                Err(CacheCloudError::Io("refused".into()))
            } else {
                Ok("done")
            }
        });
        assert_eq!(res.unwrap(), "done");
        assert_eq!(report.attempts, 3);
        assert_eq!(report.retries, 2);
        assert!(!report.timed_out);
    }

    #[test]
    fn run_exhausts_attempts_with_typed_error() {
        let p = RetryPolicy::fast();
        let (res, report) = p.run(0, "test rpc", |_| {
            Err::<(), _>(CacheCloudError::Io("refused".into()))
        });
        match res {
            Err(CacheCloudError::Exhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, CacheCloudError::Io(_)));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(report.attempts, 3);
        assert_eq!(report.retries, 2);
        assert!(!report.timed_out, "budget ran out before the deadline");
    }

    #[test]
    fn run_times_out_against_a_stalling_op() {
        let p = RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            deadline: Duration::from_millis(60),
            jitter: 0.0,
            seed: 0,
        };
        // Each attempt burns most of the budget and fails.
        let (res, report) = p.run(0, "stalled rpc", |_| {
            std::thread::sleep(Duration::from_millis(25));
            Err::<(), _>(CacheCloudError::Io("stall".into()))
        });
        match res {
            Err(CacheCloudError::Timeout { what, deadline_ms }) => {
                assert_eq!(what, "stalled rpc");
                assert_eq!(deadline_ms, 60);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(report.timed_out);
        assert!(report.attempts >= 1);
    }

    #[test]
    fn attempts_receive_shrinking_budgets() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_millis(500),
            jitter: 0.0,
            seed: 0,
        };
        let mut budgets = Vec::new();
        let (_, _) = p.run(0, "test rpc", |remaining| {
            budgets.push(remaining);
            std::thread::sleep(Duration::from_millis(5));
            Err::<(), _>(CacheCloudError::Io("x".into()))
        });
        assert_eq!(budgets.len(), 3);
        assert!(budgets.windows(2).all(|w| w[0] > w[1]));
        assert!(budgets.iter().all(|b| *b <= p.deadline));
    }
}
