//! Cancellation, deadlines, and retry policy for the execution engine.
//!
//! The evaluation pipeline is deterministic and CPU-bound, which makes its
//! failure model simple — until batches grow to thousands of specs and the
//! runtime itself becomes the thing that must not fail. This module gives
//! the engine the three primitives a production batch system needs:
//!
//! * [`CancelToken`] — a lock-free cooperative cancellation flag with
//!   child-token derivation. The batch engine holds one parent token per
//!   batch and derives a child per spec attempt; cancelling the parent
//!   stops every spec at its next stage boundary, while the watchdog can
//!   cancel a single stuck spec's child without touching its siblings.
//!   Checks are a relaxed atomic load per ancestor — cheap enough for
//!   every stage boundary.
//! * [`Deadline`] — an absolute point in monotonic time. The stage
//!   executor checks it at every stage boundary and returns
//!   `EvalError::TimedOut { stage, elapsed_ms }` naming the stage that
//!   would have run next. Per-spec timeouts and whole-batch deadlines
//!   combine with [`Deadline::earliest`].
//! * [`RetryPolicy`] — seeded, bounded exponential backoff for transient
//!   failures (panics, watchdog cancellations). Backoff durations are a
//!   pure function of (policy, attempt, spec salt), so two runs of the
//!   same workload sleep the same — wall clock aside, retries never
//!   introduce nondeterminism, and retried attempts are excluded from the
//!   deterministic count metrics (see `docs/OBSERVABILITY.md`).
//!
//! Every batch takes these through one explicit
//! [`crate::batch::BatchControl`]. The CLI bins (`experiments`, `search`)
//! parse `--spec-timeout`, `--deadline` and `--retries` into one and pass
//! it down; library callers build their own, or pass
//! [`crate::batch::BatchControl::default`] for an inert one.
//!
//! **Determinism caveat:** deadlines and watchdogs observe the wall clock,
//! so *which* specs time out can vary run to run. The engine's contracts
//! degrade gracefully — slots stay in spec order, completed slots are
//! byte-identical to an uninterrupted run, interrupted slots carry typed
//! errors — but byte-stable outputs (search JSONL, Count-class metrics)
//! are only guaranteed when no deadline fires. See the
//! "Resilience & chaos testing" section of `docs/ARCHITECTURE.md`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pd_topology::gen::SplitMix64;

/// A lock-free cooperative cancellation flag, cloneable and shareable
/// across threads. Derive per-task children with [`CancelToken::child`]:
/// cancelling a parent cancels every descendant (they walk the ancestor
/// chain), while cancelling a child leaves the parent and siblings alive.
pub struct CancelToken {
    inner: Arc<Inner>,
}

struct Inner {
    cancelled: AtomicBool,
    parent: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A fresh, uncancelled root token.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                parent: None,
            }),
        }
    }

    /// A child token: cancelled when either it or any ancestor is
    /// cancelled. Cancelling the child does not affect the parent.
    pub fn child(&self) -> CancelToken {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                parent: Some(self.inner.clone()),
            }),
        }
    }

    /// Requests cancellation of this token (and, transitively, every
    /// token derived from it). Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether this token or any ancestor has been cancelled. One relaxed
    /// atomic load per ancestor — cheap enough for stage boundaries.
    pub fn is_cancelled(&self) -> bool {
        let mut node = Some(&self.inner);
        while let Some(inner) = node {
            if inner.cancelled.load(Ordering::Acquire) {
                return true;
            }
            node = inner.parent.as_ref();
        }
        false
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for CancelToken {
    /// Clones share the same flag (and ancestor chain): cancelling one
    /// clone cancels them all. Use [`CancelToken::child`] for a separately
    /// cancellable handle.
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// An absolute point in monotonic time by which work must finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
        }
    }

    /// A deadline at an explicit instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before the deadline (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The earlier of two optional deadlines — the combinator that merges
    /// a per-spec timeout with a whole-batch deadline.
    pub fn earliest(a: Option<Deadline>, b: Option<Deadline>) -> Option<Deadline> {
        match (a, b) {
            (Some(a), Some(b)) => Some(if a.at <= b.at { a } else { b }),
            (one, None) => one,
            (None, one) => one,
        }
    }
}

/// Seeded retry-with-bounded-backoff policy for transient failures.
///
/// `max_attempts` counts *total* attempts (1 = no retries). Backoff for a
/// failed attempt `n` is exponential from `base_backoff`, capped at
/// `max_backoff`, with deterministic seeded jitter: the duration is a pure
/// function of `(policy, attempt, salt)`, so retry schedules are
/// reproducible run to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed per spec (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            seed: 0,
        }
    }

    /// A policy with `max_attempts` total attempts and default backoff
    /// (25 ms base, 400 ms cap).
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// A policy allowing `extra` retries after the first attempt, as the
    /// `--retries` flag counts them: 0 is [`RetryPolicy::none`], and
    /// `u32::MAX` saturates instead of wrapping to a single attempt.
    pub fn retries(extra: u32) -> Self {
        match extra {
            0 => Self::none(),
            n => Self::attempts(n.saturating_add(1)),
        }
    }

    /// The backoff to sleep after failed attempt `attempt` (1-based),
    /// salted per spec so a batch's retries don't thunder in lockstep.
    /// Deterministic: equal inputs give equal durations.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.max_backoff)
            .max(self.base_backoff.min(self.max_backoff));
        let half = exp / 2;
        let span_ns = half.as_nanos() as u64;
        let jitter_ns = if span_ns == 0 {
            0
        } else {
            SplitMix64::new(self.seed ^ salt ^ u64::from(attempt)).next_u64() % (span_ns + 1)
        };
        half + Duration::from_nanos(jitter_ns)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Configuration for the batch engine's watchdog supervisor: a worker
/// whose heartbeat goes stale past `stall_threshold` has its current
/// spec's token cancelled (recorded as `batch.watchdog.{stalls,cancels}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How long a worker may go without a stage-boundary heartbeat before
    /// the supervisor cancels its current spec.
    pub stall_threshold: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            stall_threshold: Duration::from_secs(30),
        }
    }
}

/// Nanoseconds since an arbitrary process-local epoch, from the monotonic
/// clock. The batch engine's heartbeat cells store this (0 = idle, so
/// stamps are clamped to ≥ 1).
pub fn monotonic_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Why [`parse_duration`] rejected an input. Typed so CLI frontends can
/// print the precise complaint instead of a generic "invalid duration".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurationParseError {
    /// The input was empty, or a unit suffix with no digits in front of it
    /// (`""`, `"ms"`, `"  s "`).
    Empty,
    /// The numeric part is not a plain non-negative integer (`"1.5s"`,
    /// `"-3s"`, `"abcms"`).
    BadNumber(String),
    /// The value is syntactically fine but too large to be a meaningful
    /// duration: the number overflows `u64`, the `m` (minute) multiply
    /// overflows, or the total exceeds [`MAX_PARSED_DURATION`]. A typed
    /// rejection, where silent saturation would later panic in
    /// `Instant + Duration` arithmetic ([`Deadline::after`]).
    Overflow(String),
}

impl std::fmt::Display for DurationParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurationParseError::Empty => write!(f, "empty duration (no digits)"),
            DurationParseError::BadNumber(s) => {
                write!(f, "not a non-negative integer: {s:?}")
            }
            DurationParseError::Overflow(s) => write!(f, "duration too large: {s:?}"),
        }
    }
}

impl std::error::Error for DurationParseError {}

/// Upper bound accepted by [`parse_duration`]: 100 (365-day) years. Any
/// real timeout/deadline is far below this, and capping here keeps every
/// parsed duration safely addable to an [`Instant`] on every platform.
pub const MAX_PARSED_DURATION: Duration = Duration::from_secs(100 * 365 * 24 * 60 * 60);

/// Parses a human duration: `150ms`, `2s`, `500us`, `10ns`, `1m`, or a
/// bare number of seconds. Rejections are typed ([`DurationParseError`]):
/// an empty numeric part is [`DurationParseError::Empty`], and values that
/// would overflow — a number beyond `u64`, a minute multiply past `u64`
/// seconds, or anything over [`MAX_PARSED_DURATION`] — are
/// [`DurationParseError::Overflow`] instead of silently saturating.
pub fn parse_duration(s: &str) -> Result<Duration, DurationParseError> {
    fn number(raw: &str) -> Result<u64, DurationParseError> {
        let raw = raw.trim();
        if raw.is_empty() {
            return Err(DurationParseError::Empty);
        }
        raw.parse::<u64>().map_err(|e| {
            if *e.kind() == std::num::IntErrorKind::PosOverflow {
                DurationParseError::Overflow(raw.to_string())
            } else {
                DurationParseError::BadNumber(raw.to_string())
            }
        })
    }
    let s = s.trim();
    let parsed = 'parsed: {
        for (suffix, to_duration) in [
            ("ns", Duration::from_nanos as fn(u64) -> Duration),
            ("us", Duration::from_micros),
            ("ms", Duration::from_millis),
            ("s", Duration::from_secs),
        ] {
            if let Some(value) = s.strip_suffix(suffix) {
                break 'parsed to_duration(number(value)?);
            }
        }
        if let Some(value) = s.strip_suffix('m') {
            let minutes = number(value)?;
            let secs = minutes
                .checked_mul(60)
                .ok_or_else(|| DurationParseError::Overflow(s.to_string()))?;
            break 'parsed Duration::from_secs(secs);
        }
        Duration::from_secs(number(s)?)
    };
    if parsed > MAX_PARSED_DURATION {
        return Err(DurationParseError::Overflow(s.to_string()));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clean_and_cancels_idempotently() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag_but_children_do_not_leak_upward() {
        let parent = CancelToken::new();
        let alias = parent.clone();
        let child = parent.child();
        let grandchild = child.child();

        child.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled(), "descendants see the cancel");
        assert!(!parent.is_cancelled(), "parent unaffected");
        assert!(!alias.is_cancelled());

        parent.cancel();
        assert!(alias.is_cancelled(), "clones share the flag");
        let late_child = parent.child();
        assert!(late_child.is_cancelled(), "chain walk sees the ancestor");
    }

    #[test]
    fn deadline_accounting() {
        let generous = Deadline::after(Duration::from_secs(3600));
        assert!(!generous.expired());
        assert!(generous.remaining() > Duration::from_secs(3000));

        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);

        let merged = Deadline::earliest(Some(generous), Some(past)).unwrap();
        assert!(merged.expired(), "earliest picks the tighter deadline");
        assert_eq!(Deadline::earliest(None, Some(past)), Some(past));
        assert_eq!(Deadline::earliest(Some(past), None), Some(past));
        assert_eq!(Deadline::earliest(None, None), None);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_salted() {
        let p = RetryPolicy::attempts(5);
        for attempt in 1..=8 {
            for salt in [0u64, 1, 0xDEAD_BEEF] {
                let a = p.backoff_for(attempt, salt);
                let b = p.backoff_for(attempt, salt);
                assert_eq!(a, b, "equal inputs give equal backoff");
                assert!(a <= p.max_backoff, "attempt {attempt}: {a:?}");
                assert!(!a.is_zero());
            }
        }
        // Jitter actually varies with the salt somewhere in the range.
        let varied = (0..64).any(|salt| p.backoff_for(1, salt) != p.backoff_for(1, salt + 64));
        assert!(varied, "salted jitter must not be constant");
        // Exponential growth up to the cap.
        assert!(p.backoff_for(4, 7) >= p.backoff_for(1, 7));
        assert_eq!(RetryPolicy::none().backoff_for(3, 9), Duration::ZERO);
    }

    #[test]
    fn backoff_matches_recorded_values() {
        // Recorded before the jitter mixer moved to `SplitMix64::next_u64`;
        // a mixer change would move these durations.
        let p = RetryPolicy::attempts(5);
        for (attempt, salt, nanos) in [
            (1, 0, 21_732_143),
            (1, 7, 15_391_073),
            (2, 0xDEAD_BEEF, 26_320_873),
            (3, 42, 57_041_875),
            (5, 1, 347_143_482),
            (8, u64::MAX, 392_797_909),
        ] {
            assert_eq!(
                p.backoff_for(attempt, salt),
                Duration::from_nanos(nanos),
                "attempt {attempt}, salt {salt:#x}"
            );
        }
    }

    #[test]
    fn retries_counts_extra_attempts_without_wrapping() {
        assert_eq!(RetryPolicy::retries(0), RetryPolicy::none());
        assert_eq!(RetryPolicy::retries(3), RetryPolicy::attempts(4));
        assert_eq!(RetryPolicy::retries(3).max_attempts, 4);
        assert_eq!(RetryPolicy::retries(u32::MAX).max_attempts, u32::MAX);
    }

    #[test]
    fn parse_duration_accepts_the_documented_forms() {
        assert_eq!(parse_duration("1ms"), Ok(Duration::from_millis(1)));
        assert_eq!(parse_duration("150ms"), Ok(Duration::from_millis(150)));
        assert_eq!(parse_duration("2s"), Ok(Duration::from_secs(2)));
        assert_eq!(parse_duration("500us"), Ok(Duration::from_micros(500)));
        assert_eq!(parse_duration("10ns"), Ok(Duration::from_nanos(10)));
        assert_eq!(parse_duration("1m"), Ok(Duration::from_secs(60)));
        assert_eq!(parse_duration(" 3 "), Ok(Duration::from_secs(3)));
        assert_eq!(parse_duration("12 s"), Ok(Duration::from_secs(12)));
    }

    #[test]
    fn parse_duration_rejects_empty_numeric_parts_typed() {
        for input in ["", "   ", "ms", "s", "m", "ns", "us", "  ms "] {
            assert_eq!(
                parse_duration(input),
                Err(DurationParseError::Empty),
                "input {input:?}"
            );
        }
    }

    #[test]
    fn parse_duration_rejects_bad_numbers_typed() {
        for input in ["x", "1.5s", "-3s", "abcms", "1_000ms"] {
            match parse_duration(input) {
                Err(DurationParseError::BadNumber(_)) => {}
                other => panic!("input {input:?}: expected BadNumber, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_duration_rejects_overflow_typed_instead_of_wrapping() {
        // A number past u64::MAX in any unit.
        for input in ["99999999999999999999999s", "18446744073709551616ns"] {
            match parse_duration(input) {
                Err(DurationParseError::Overflow(_)) => {}
                other => panic!("input {input:?}: expected Overflow, got {other:?}"),
            }
        }
        // u64::MAX minutes: the ×60 must not wrap or saturate silently.
        let max_minutes = format!("{}m", u64::MAX);
        assert!(matches!(
            parse_duration(&max_minutes),
            Err(DurationParseError::Overflow(_))
        ));
        // Representable in u64 seconds but beyond the 100-year sanity cap
        // (so it could panic later in `Instant + Duration`).
        assert!(matches!(
            parse_duration("9999999999999s"),
            Err(DurationParseError::Overflow(_))
        ));
        // The cap itself is accepted; one second past it is not.
        let cap_secs = MAX_PARSED_DURATION.as_secs();
        assert_eq!(
            parse_duration(&format!("{cap_secs}s")),
            Ok(MAX_PARSED_DURATION)
        );
        assert!(parse_duration(&format!("{}s", cap_secs + 1)).is_err());
        // Errors render their complaint.
        let msg = parse_duration("ms").unwrap_err().to_string();
        assert!(msg.contains("empty"), "{msg}");
    }

    /// Seeded fuzz loop: any short string over the duration alphabet
    /// parses to a duration within the cap or to a typed error, and never
    /// panics. Case `i` uses `SplitMix64::new(i)`.
    #[test]
    fn parse_duration_never_panics_on_random_input() {
        const ALPHABET: [char; 19] = [
            '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'n', 'u', 'm', 's', 'h', ' ', '-',
            '.', '+',
        ];
        for case in 0..10_000u64 {
            let mut rng = SplitMix64::new(case);
            let len = rng.below(25);
            let input: String = (0..len)
                .map(|_| match rng.below(ALPHABET.len() + 1) {
                    i if i < ALPHABET.len() => ALPHABET[i],
                    _ => 'µ',
                })
                .collect();
            let outcome = std::panic::catch_unwind(|| parse_duration(&input));
            match outcome {
                Ok(Ok(d)) => assert!(
                    d <= MAX_PARSED_DURATION,
                    "case seed {case}: {input:?} parsed past the cap: {d:?}"
                ),
                Ok(Err(_)) => {}
                Err(_) => panic!("case seed {case}: {input:?} panicked"),
            }
        }
    }

    /// Seeded loop over `{n}{unit}` for random `n: u64`: the exact
    /// duration when it is within the cap, else `Overflow`.
    #[test]
    fn parse_duration_is_exact_or_overflow_for_any_u64() {
        type Unit = (&'static str, fn(u64) -> Option<Duration>);
        let units: [Unit; 6] = [
            ("ns", |n| Some(Duration::from_nanos(n))),
            ("us", |n| Some(Duration::from_micros(n))),
            ("ms", |n| Some(Duration::from_millis(n))),
            ("s", |n| Some(Duration::from_secs(n))),
            ("", |n| Some(Duration::from_secs(n))),
            ("m", |n| n.checked_mul(60).map(Duration::from_secs)),
        ];
        for case in 0..10_000u64 {
            let mut rng = SplitMix64::new(case);
            // A random bit width, so small and huge values both occur.
            let n = rng.next_u64() >> rng.below(64);
            let (unit, exact) = units[rng.below(units.len())];
            let input = format!("{n}{unit}");
            match (
                exact(n).filter(|d| *d <= MAX_PARSED_DURATION),
                parse_duration(&input),
            ) {
                (Some(d), Ok(parsed)) => assert_eq!(parsed, d, "case seed {case}: {input:?}"),
                (None, Err(DurationParseError::Overflow(_))) => {}
                (expected, got) => {
                    panic!("case seed {case}: {input:?}: expected {expected:?}, got {got:?}")
                }
            }
        }
    }

    #[test]
    fn monotonic_nanos_is_monotone() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
    }
}
