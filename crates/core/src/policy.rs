//! Interstitial submission knobs.

use simkit::time::{SimDuration, SimTime};

/// When interstitial jobs flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterstitialMode {
    /// Submit continuously from time zero until the end of the native log —
    /// §4.3.2's "continual interstitial computing". The project's `jobs`
    /// field is an upper bound (set it high for unlimited).
    Continual,
    /// A single project dropped into the job stream at `start`; exactly
    /// `project.jobs` jobs are submitted, then the stream stops (§4.1/§4.3.1
    /// "short-term projects").
    Project {
        /// Instant the project enters the system.
        start: SimTime,
    },
}

/// What happens to running interstitial jobs when a native job needs their
/// CPUs — the paper's "breakage in time" extension point ("there is also a
/// 'breakage in time' because there is no checkpoint/restart for the
/// jobs", §4.2). The paper simulates only [`Preemption::None`]; the other
/// two variants quantify what checkpoint/restart would have bought.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Preemption {
    /// Non-preemptive (the paper's model): once started, an interstitial
    /// job runs to completion even if a native job is waiting.
    #[default]
    None,
    /// Kill interstitial jobs when the native queue head needs their CPUs;
    /// the partial work is lost (counted as waste).
    Kill,
    /// Checkpoint interstitial jobs when preempted and resume them later
    /// from where they stopped (idealized: zero checkpoint overhead).
    Checkpoint,
}

/// How aggressively interstitial jobs are submitted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterstitialPolicy {
    /// §4.3.2.2: submit only while the *resulting* machine utilization
    /// (native + interstitial) stays below this fraction. `None` = no cap
    /// (maximal interstitial computing).
    pub utilization_cap: Option<f64>,
    /// Breakage-in-time handling (extension; the paper uses `None`).
    pub preemption: Preemption,
}

impl Default for InterstitialPolicy {
    fn default() -> Self {
        InterstitialPolicy {
            utilization_cap: None,
            preemption: Preemption::None,
        }
    }
}

impl InterstitialPolicy {
    /// The §4.3.2.2 capped policy.
    pub fn capped(cap: f64) -> Self {
        assert!((0.0..=1.0).contains(&cap));
        InterstitialPolicy {
            utilization_cap: Some(cap),
            ..Self::default()
        }
    }

    /// A preempting policy (extension — see [`Preemption`]).
    pub fn preempting(preemption: Preemption) -> Self {
        InterstitialPolicy {
            preemption,
            ..Self::default()
        }
    }

    /// Maximum interstitial jobs of `cpus_per_job` CPUs that may start right
    /// now without lifting utilization to or past the cap, given `in_use`
    /// busy CPUs out of `total`.
    pub fn cap_allowance(&self, in_use: u32, total: u32, cpus_per_job: u32) -> u64 {
        match self.utilization_cap {
            None => u64::MAX,
            Some(cap) => {
                let budget = cap * total as f64 - in_use as f64;
                if budget <= 0.0 {
                    0
                } else {
                    (budget / cpus_per_job as f64).floor() as u64
                }
            }
        }
    }
}

/// Retry handling for interstitial jobs killed by node failures.
///
/// Fault victims are retried with capped exponential backoff: attempt `k`
/// (1-based) is released `min(base_delay × 2^(k−1), max_delay)` after the
/// kill, until `max_attempts` kills exhaust the budget and the job is
/// abandoned. The schedule is a pure function of the policy — no random
/// jitter — so identical seeds replay identical retry timelines
/// (Dubenskaya & Polyakov's cheap-retry premise for background streams).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base_delay: SimDuration,
    /// Ceiling on the backoff growth.
    pub max_delay: SimDuration,
    /// Fault kills a job may absorb before it is abandoned.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay: SimDuration::from_secs(60),
            max_delay: SimDuration::from_secs(3600),
            max_attempts: 5,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based): capped exponential,
    /// saturating rather than overflowing for absurd attempt counts.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let base = self.base_delay.as_secs().max(1);
        let factor = 1u64
            .checked_shl(attempt.saturating_sub(1))
            .unwrap_or(u64::MAX);
        let delay = base.saturating_mul(factor);
        SimDuration::from_secs(delay.min(self.max_delay.as_secs().max(base)))
    }

    /// True when a job killed `attempts` times should be abandoned instead
    /// of retried.
    pub fn gives_up_after(&self, attempts: u32) -> bool {
        attempts >= self.max_attempts
    }
}

pub use machine::fault::CHECKPOINT_OVERHEAD_S;

/// What an interstitial job salvages when a node failure (or a kill-mode
/// preemption) evicts it mid-run — the recovery half of the paper's
/// "breakage in time" extension point, following Dubenskaya & Polyakov's
/// observation that low-priority background streams become economical
/// exactly when suspend/resume replaces kill/restart.
///
/// [`RecoveryPolicy::KillRestart`] is the default and reproduces the legacy
/// path bit-for-bit: victims restart from scratch and traces stay schema
/// v2. The other two policies credit progress to a per-job ledger and emit
/// the schema-v3 events (`job_checkpointed` / `job_suspended` /
/// `job_resumed`). Native jobs are out of scope — they always requeue whole.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Evicted jobs lose all progress and retry from scratch (legacy path).
    #[default]
    KillRestart,
    /// Jobs checkpoint every `interval` of *work completed*; an evicted job
    /// loses only the progress past its last completed checkpoint and pays
    /// [`CHECKPOINT_OVERHEAD_S`] CPU·s per CPU per checkpoint taken.
    Checkpoint {
        /// Work completed between consecutive checkpoints. Must be > 0.
        interval: SimDuration,
    },
    /// Eviction freezes the job instantly (container suspend); it resumes
    /// later with all completed work intact and zero overhead.
    SuspendResume,
}

impl RecoveryPolicy {
    /// Parse the `--recovery` CLI argument: `kill`, `ckpt=SECONDS`, or
    /// `suspend`.
    pub fn parse(text: &str) -> Result<RecoveryPolicy, String> {
        match text {
            "kill" => return Ok(RecoveryPolicy::KillRestart),
            "suspend" => return Ok(RecoveryPolicy::SuspendResume),
            _ => {}
        }
        let secs = text.strip_prefix("ckpt=").ok_or_else(|| {
            format!("--recovery: unknown policy {text:?} (use kill, ckpt=SECONDS, suspend)")
        })?;
        match secs.parse() {
            Ok(0) => Err("--recovery: ckpt interval must be positive seconds".to_string()),
            Ok(secs) => Ok(RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(secs),
            }),
            Err(_) => Err(format!(
                "--recovery: ckpt wants an integer interval in seconds, got {secs:?}"
            )),
        }
    }

    /// Work credited to a job that had `done` banked before this attempt
    /// and ran `elapsed` more before eviction. Kill-restart credits nothing,
    /// suspend-resume credits everything, checkpointing rounds the *total*
    /// progress down to the last completed checkpoint boundary but never
    /// below `done`, which a checkpoint-mode preemption may have banked
    /// between boundaries.
    pub fn credited(&self, done: SimDuration, elapsed: SimDuration) -> SimDuration {
        match self {
            RecoveryPolicy::KillRestart => SimDuration::ZERO,
            RecoveryPolicy::SuspendResume => done + elapsed,
            RecoveryPolicy::Checkpoint { interval } => {
                let i = interval.as_secs().max(1);
                let total = done.as_secs() + elapsed.as_secs();
                SimDuration::from_secs((total / i) * i).max(done)
            }
        }
    }

    /// Checkpoints completed during an attempt that advanced total progress
    /// from `done` to `done + elapsed` — the boundaries crossed, each paying
    /// [`CHECKPOINT_OVERHEAD_S`] per CPU.
    pub fn checkpoints_in(&self, done: SimDuration, elapsed: SimDuration) -> u64 {
        match self {
            RecoveryPolicy::Checkpoint { interval } => {
                let i = interval.as_secs().max(1);
                (done.as_secs() + elapsed.as_secs()) / i - done.as_secs() / i
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_uncapped() {
        let p = InterstitialPolicy::default();
        assert_eq!(p.utilization_cap, None);
        assert_eq!(p.cap_allowance(0, 100, 32), u64::MAX);
    }

    #[test]
    fn cap_allowance_counts_jobs() {
        let p = InterstitialPolicy::capped(0.9);
        // Budget: 0.9·1000 − 800 = 100 CPUs → 3 × 32-CPU jobs.
        assert_eq!(p.cap_allowance(800, 1000, 32), 3);
        // Exactly at cap → zero.
        assert_eq!(p.cap_allowance(900, 1000, 32), 0);
        // Above cap → zero (not underflow).
        assert_eq!(p.cap_allowance(950, 1000, 32), 0);
        // 1-CPU jobs use the budget fully.
        assert_eq!(p.cap_allowance(800, 1000, 1), 100);
    }

    #[test]
    #[should_panic]
    fn cap_must_be_a_fraction() {
        InterstitialPolicy::capped(1.5);
    }

    #[test]
    fn preemption_defaults_to_paper_model() {
        assert_eq!(InterstitialPolicy::default().preemption, Preemption::None);
        let p = InterstitialPolicy::preempting(Preemption::Checkpoint);
        assert_eq!(p.preemption, Preemption::Checkpoint);
        assert_eq!(p.utilization_cap, None, "other knobs keep defaults");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy {
            base_delay: SimDuration::from_secs(30),
            max_delay: SimDuration::from_secs(200),
            max_attempts: 4,
        };
        assert_eq!(r.backoff(1), SimDuration::from_secs(30));
        assert_eq!(r.backoff(2), SimDuration::from_secs(60));
        assert_eq!(r.backoff(3), SimDuration::from_secs(120));
        assert_eq!(r.backoff(4), SimDuration::from_secs(200), "capped");
        assert_eq!(r.backoff(100), SimDuration::from_secs(200), "no overflow");
        assert!(!r.gives_up_after(3));
        assert!(r.gives_up_after(4));
        assert!(r.gives_up_after(5));
    }

    #[test]
    fn backoff_is_a_pure_function() {
        // No hidden state: every call with the same attempt yields the same
        // delay, across policy copies.
        let r = RetryPolicy::default();
        let s = r;
        for attempt in 1..50 {
            assert_eq!(r.backoff(attempt), s.backoff(attempt));
        }
        // Monotone non-decreasing up to the cap.
        for attempt in 1..49 {
            assert!(r.backoff(attempt + 1) >= r.backoff(attempt));
        }
    }

    #[test]
    fn degenerate_backoff_stays_positive() {
        let r = RetryPolicy {
            base_delay: SimDuration::ZERO,
            max_delay: SimDuration::ZERO,
            max_attempts: 1,
        };
        // A zero-delay policy still schedules retries strictly later.
        assert_eq!(r.backoff(1), SimDuration::from_secs(1));
    }

    #[test]
    fn mode_variants() {
        let m = InterstitialMode::Project {
            start: SimTime::from_hours(5),
        };
        assert_ne!(m, InterstitialMode::Continual);
    }

    #[test]
    fn recovery_parses_the_three_policies() {
        assert_eq!(
            RecoveryPolicy::parse("kill").unwrap(),
            RecoveryPolicy::KillRestart
        );
        assert_eq!(
            RecoveryPolicy::parse("suspend").unwrap(),
            RecoveryPolicy::SuspendResume
        );
        assert_eq!(
            RecoveryPolicy::parse("ckpt=300").unwrap(),
            RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(300)
            }
        );
    }

    #[test]
    fn recovery_parse_errors_name_the_offender() {
        let err = RecoveryPolicy::parse("restart").unwrap_err();
        assert!(err.contains("\"restart\""), "{err}");
        assert!(err.contains("kill, ckpt=SECONDS, suspend"), "{err}");
        let err = RecoveryPolicy::parse("ckpt=abc").unwrap_err();
        assert!(err.contains("\"abc\""), "{err}");
        let err = RecoveryPolicy::parse("ckpt=0").unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn recovery_credit_arithmetic() {
        let kill = RecoveryPolicy::KillRestart;
        let suspend = RecoveryPolicy::SuspendResume;
        let ckpt = RecoveryPolicy::Checkpoint {
            interval: SimDuration::from_secs(100),
        };
        let d = SimDuration::from_secs;
        // Kill credits nothing, ever.
        assert_eq!(kill.credited(d(250), d(99)), SimDuration::ZERO);
        assert_eq!(kill.checkpoints_in(d(250), d(99)), 0);
        // Suspend credits everything.
        assert_eq!(suspend.credited(d(250), d(99)), d(349));
        assert_eq!(suspend.checkpoints_in(d(250), d(99)), 0);
        // Checkpoint rounds total progress down to the last boundary and
        // counts only the boundaries this attempt crossed.
        assert_eq!(ckpt.credited(SimDuration::ZERO, d(99)), SimDuration::ZERO);
        assert_eq!(ckpt.credited(SimDuration::ZERO, d(100)), d(100));
        assert_eq!(ckpt.credited(d(250), d(99)), d(300));
        assert_eq!(ckpt.checkpoints_in(d(250), d(99)), 1, "250→349 crosses 300");
        assert_eq!(ckpt.checkpoints_in(d(0), d(350)), 3);
        assert_eq!(ckpt.checkpoints_in(d(300), d(50)), 0);
        // Progress banked between boundaries is never rolled back.
        assert_eq!(ckpt.credited(d(250), d(20)), d(250));
        assert_eq!(ckpt.checkpoints_in(d(250), d(20)), 0);
    }

    /// Satellite property test: across 1k seeded random configs, the backoff
    /// sequence is monotone non-decreasing, never exceeds the configured cap,
    /// and the driver's give-up predicate abandons every job by the horizon.
    #[test]
    fn retry_policy_properties_hold_across_random_configs() {
        let mut rng = simkit::rng::Rng::new(0xC0FFEE);
        for case in 0..1000u64 {
            let r = RetryPolicy {
                base_delay: SimDuration::from_secs(rng.range_u64(0, 7200)),
                max_delay: SimDuration::from_secs(rng.range_u64(0, 100_000)),
                max_attempts: rng.range_u64(1, 64) as u32,
            };
            let cap = r.max_delay.as_secs().max(r.base_delay.as_secs().max(1));
            let horizon = SimTime::from_secs(rng.range_u64(1000, 10_000_000));
            let runtime = SimDuration::from_secs(rng.range_u64(1, 100_000));
            let mut prev = SimDuration::ZERO;
            for attempt in 1..=r.max_attempts.min(80) {
                let b = r.backoff(attempt);
                assert!(b >= prev, "case {case}: backoff not monotone at {attempt}");
                assert!(
                    b.as_secs() <= cap,
                    "case {case}: backoff {b:?} exceeds cap {cap}"
                );
                prev = b;
            }
            // Replay the driver's retry loop: each kill bumps the attempt
            // count and schedules a release `backoff` later; the job is
            // abandoned when the attempt budget is spent or the retried run
            // could no longer finish inside the horizon. Killing at the
            // latest possible instant (the release itself) is the adversarial
            // schedule — if give-up triggers there, it triggers everywhere.
            let mut now = SimTime::ZERO;
            let mut attempts = 0u32;
            let mut retries = 0u32;
            loop {
                attempts += 1;
                let release = now + r.backoff(attempts);
                if r.gives_up_after(attempts) || release + runtime > horizon {
                    break;
                }
                retries += 1;
                assert!(
                    release + runtime <= horizon,
                    "case {case}: retry admitted past the horizon"
                );
                now = release;
                assert!(
                    retries <= r.max_attempts,
                    "case {case}: retry budget leaked"
                );
            }
            assert!(attempts <= r.max_attempts, "case {case}: gave up late");
            assert!(
                now + runtime <= horizon || retries == 0,
                "case {case}: last admitted retry overruns the horizon"
            );
        }
    }
}
