//! Cooperative deadlines and cancellation.
//!
//! A [`Deadline`] is a cheap handle the expensive searches poll from
//! inside their hot loops: [`Deadline::poll`] is a counter increment on
//! most calls and only consults the clock every [`POLL_STRIDE`]
//! iterations, so threading it through a per-candidate loop costs
//! almost nothing. A [`CancelToken`] is a shared flag that lets a
//! caller (another thread, a timeout watchdog, an RPC handler whose
//! client hung up) abandon every search holding a deadline built from
//! it.
//!
//! The handle is *cooperative*: a search that never polls is never
//! interrupted. Every NP-side search in the workspace polls once per
//! candidate, which bounds overrun by the cost of a single witness
//! check.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`Deadline::poll`] calls elapse between clock reads. The
/// first poll always checks, so a zero deadline trips immediately.
pub const POLL_STRIDE: u32 = 64;

/// Marker for "the deadline expired or the token was cancelled".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("deadline exceeded or operation cancelled")
    }
}

impl std::error::Error for DeadlineExceeded {}

/// A shared cancellation flag. Cloning is cheap (an `Arc` bump); all
/// clones observe the same flag. Cancellation is one-way and sticky.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Cancels every deadline built from this token. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A cooperative deadline: an optional wall-clock cutoff plus an
/// optional [`CancelToken`], polled from inside search loops.
///
/// Not `Sync` (the poll stride uses a `Cell`); build one per worker —
/// they can all share one `CancelToken`.
#[derive(Clone, Debug)]
pub struct Deadline {
    at: Option<Instant>,
    token: Option<CancelToken>,
    polls: Cell<u32>,
    /// Has this handle already reported its expiry/cancellation to the
    /// observability layer? Transition events fire once per handle.
    tripped: Cell<bool>,
}

impl Default for Deadline {
    fn default() -> Deadline {
        Deadline::never()
    }
}

impl Deadline {
    /// A deadline that never expires (polls short-circuit to `false`).
    pub fn never() -> Deadline {
        Deadline {
            at: None,
            token: None,
            polls: Cell::new(0),
            tripped: Cell::new(false),
        }
    }

    /// Expires `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        Deadline::at(Instant::now() + timeout)
    }

    /// Expires at the given instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline {
            at: Some(instant),
            token: None,
            polls: Cell::new(0),
            tripped: Cell::new(false),
        }
    }

    /// Attaches a cancellation token: the deadline also reports
    /// exceeded once the token is cancelled.
    pub fn with_token(mut self, token: &CancelToken) -> Deadline {
        self.token = Some(token.clone());
        self
    }

    /// A fresh handle that expires at the earlier of this deadline's
    /// cutoff and `slice` from now (no slice: this cutoff alone), and
    /// shares this handle's token: the cutoff of one unit of work that
    /// runs under both a batch deadline and a per-unit time slice.
    pub fn capped(&self, slice: Option<Duration>) -> Deadline {
        let sliced = slice.and_then(|s| Instant::now().checked_add(s));
        let at = match (self.at, sliced) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Deadline {
            at,
            token: self.token.clone(),
            polls: Cell::new(0),
            tripped: Cell::new(false),
        }
    }

    /// True when neither a cutoff nor a token is attached — polling is
    /// then free and the search runs to completion.
    pub fn is_unbounded(&self) -> bool {
        self.at.is_none() && self.token.is_none()
    }

    /// The full check: cancelled token, or cutoff in the past. Reads
    /// the clock; prefer [`Deadline::poll`] in hot loops.
    ///
    /// Observability: every full check bumps `runtime.deadline.checks`;
    /// the first check that trips bumps `runtime.cancel.observed` or
    /// `runtime.deadline.expired` (by cause) and emits a
    /// `runtime.deadline.tripped` trace event. Unbounded handles skip
    /// all of it.
    pub fn exceeded(&self) -> bool {
        if self.is_unbounded() {
            return false;
        }
        cxu_obs::counter!("runtime.deadline.checks").inc();
        let cancelled = self.token.as_ref().is_some_and(|t| t.is_cancelled());
        let expired = cancelled || matches!(self.at, Some(at) if Instant::now() >= at);
        if expired && !self.tripped.get() {
            self.tripped.set(true);
            if cancelled {
                cxu_obs::counter!("runtime.cancel.observed").inc();
            } else {
                cxu_obs::counter!("runtime.deadline.expired").inc();
            }
            cxu_obs::trace::event(
                "runtime.deadline.tripped",
                &[(
                    "cause",
                    if cancelled { "cancel" } else { "deadline" }.into(),
                )],
            );
        }
        expired
    }

    /// The strided check for hot loops: consults the clock on the
    /// first call and every [`POLL_STRIDE`]th call after, otherwise
    /// just increments a counter. Once a check trips, every later poll
    /// keeps returning `true` (expiry is sticky via the clock/token).
    pub fn poll(&self) -> bool {
        if self.is_unbounded() {
            return false;
        }
        let n = self.polls.get().wrapping_add(1);
        self.polls.set(n);
        if n % POLL_STRIDE == 1 {
            self.exceeded()
        } else {
            false
        }
    }

    /// [`Deadline::poll`] as a `Result`, for `?`-style early exit.
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if self.poll() {
            Err(DeadlineExceeded)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_trips() {
        let dl = Deadline::never();
        assert!(dl.is_unbounded());
        for _ in 0..10_000 {
            assert!(!dl.poll());
        }
        assert!(!dl.exceeded());
    }

    #[test]
    fn zero_deadline_trips_on_first_poll() {
        let dl = Deadline::after(Duration::ZERO);
        assert!(dl.poll(), "first poll must consult the clock");
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let dl = Deadline::after(Duration::from_secs(3600));
        for _ in 0..1000 {
            assert!(!dl.poll());
        }
    }

    #[test]
    fn token_cancels_mid_search() {
        let token = CancelToken::new();
        let dl = Deadline::never().with_token(&token);
        assert!(!dl.is_unbounded());
        assert!(!dl.poll());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(dl.exceeded());
        // The strided poll sees it within one stride.
        assert!((0..=u64::from(POLL_STRIDE)).any(|_| dl.poll()));
    }

    #[test]
    fn capped_takes_the_earlier_cutoff_and_keeps_the_token() {
        let hour = Duration::from_secs(3600);
        // The slice is earlier than the deadline, and vice versa.
        assert!(Deadline::after(hour).capped(Some(Duration::ZERO)).poll());
        assert!(Deadline::after(Duration::ZERO).capped(Some(hour)).poll());
        assert!(!Deadline::after(hour).capped(Some(hour)).poll());
        // No slice leaves the cutoff alone; neither side bounds nothing.
        assert!(Deadline::after(Duration::ZERO).capped(None).poll());
        assert!(Deadline::never().capped(None).is_unbounded());
        assert!(!Deadline::never().capped(Some(Duration::MAX)).poll());
        let token = CancelToken::new();
        let dl = Deadline::never().with_token(&token).capped(Some(hour));
        token.cancel();
        assert!(dl.exceeded());
    }

    #[test]
    fn token_is_shared_across_clones() {
        let token = CancelToken::new();
        let other = token.clone();
        other.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn check_maps_to_result() {
        assert_eq!(Deadline::never().check(), Ok(()));
        assert_eq!(
            Deadline::after(Duration::ZERO).check(),
            Err(DeadlineExceeded)
        );
    }
}
