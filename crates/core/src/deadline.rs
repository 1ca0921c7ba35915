//! Cooperative job deadlines.
//!
//! A [`Deadline`] is a wall-clock budget shared by every worker of one
//! simulation. [`crate::execute`] checks it at natural boundaries — per
//! shot, per trajectory group, per enumerated pattern, per tail candidate —
//! and bails out with [`TimedOut`] instead of finishing, so a runaway job
//! releases its worker within one trajectory's wall time rather than
//! holding it for the whole shot count. Checks are *cooperative*: nothing is interrupted
//! mid-trajectory, which keeps every context reusable after a timeout.
//!
//! The default [`Deadline::unbounded`] never expires and costs one relaxed
//! atomic load per check, so the ordinary no-timeout paths are unaffected.
//! Expiry is **latched**: the first worker to observe the clock past the
//! deadline flips a shared flag, and every other worker exits on its next
//! check without touching the clock again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The error a deadline-aware driver returns when its budget ran out
/// before the simulation finished. Carries no partial results: a timed-out
/// job's aggregates would not be a pure function of its inputs, so none
/// are exposed.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct TimedOut;

impl std::fmt::Display for TimedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timed_out")
    }
}

impl std::error::Error for TimedOut {}

/// A shareable wall-clock budget (see the module docs).
///
/// Cloning shares the latch: clones handed to worker threads all observe
/// the same expiry.
#[derive(Clone, Debug)]
pub struct Deadline {
    at: Option<Instant>,
    cancelled: Arc<AtomicBool>,
}

impl Deadline {
    /// A deadline that never expires (the default for every existing API).
    pub fn unbounded() -> Deadline {
        Deadline {
            at: None,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now().checked_add(budget),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A deadline `ms` milliseconds from now — the wire-format constructor
    /// (`timeout_ms` job fields, `--timeout` flags).
    pub fn from_millis(ms: u64) -> Deadline {
        Deadline::within(Duration::from_millis(ms))
    }

    /// Whether this deadline can ever expire. Drivers hoist this out of
    /// their hot loops so unbounded runs skip even the clock read.
    pub fn is_unbounded(&self) -> bool {
        self.at.is_none()
    }

    /// Whether the budget has run out. Once true, stays true (the latch is
    /// shared across clones, so one worker's observation cancels all).
    pub fn expired(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.at {
            Some(at) if Instant::now() >= at => {
                self.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

impl Default for Deadline {
    fn default() -> Deadline {
        Deadline::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadlines_never_expire() {
        let deadline = Deadline::unbounded();
        assert!(deadline.is_unbounded());
        assert!(!deadline.expired());
        assert!(!deadline.expired());
    }

    #[test]
    fn bounded_deadlines_expire_and_latch() {
        let deadline = Deadline::within(Duration::ZERO);
        assert!(!deadline.is_unbounded());
        assert!(deadline.expired());
        // Latched: still expired without consulting the clock.
        assert!(deadline.expired());
    }

    #[test]
    fn clones_share_the_latch() {
        let deadline = Deadline::within(Duration::ZERO);
        let clone = deadline.clone();
        assert!(deadline.expired());
        // The clone sees the latch via the shared flag (its own clock check
        // would agree here, but the flag is what multi-worker exits ride on).
        assert!(clone.cancelled.load(Ordering::Relaxed));
        assert!(clone.expired());
    }

    #[test]
    fn generous_deadlines_do_not_expire_immediately() {
        let deadline = Deadline::from_millis(60_000);
        assert!(!deadline.expired());
    }

    #[test]
    fn timed_out_displays_its_wire_reason() {
        assert_eq!(TimedOut.to_string(), "timed_out");
    }
}
