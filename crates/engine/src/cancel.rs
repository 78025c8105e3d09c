//! Cooperative cancellation for diagnosis jobs.
//!
//! The diagnosis service behind the server needs to abandon work that
//! is no longer wanted — a request whose deadline expired, a client
//! that disconnected, a daemon draining for shutdown — without ever
//! interrupting a worker mid-computation. A [`CancelToken`] is the
//! `Arc`-shared flag that carries that intent: jobs check it at their
//! boundaries (before the front stage, before each per-suspect
//! analysis) and surface [`FlowError::Cancelled`] instead of running;
//! work that already started always runs to completion, so the pool is
//! never poisoned and shared caches stay consistent.
//!
//! A token can carry a deadline: [`CancelToken::is_cancelled`] reports
//! `true` once the deadline has passed even if nobody called
//! [`CancelToken::cancel`] — the per-request deadline and the explicit
//! abort share one code path.
//!
//! [`FlowError::Cancelled`]: crate::flow::FlowError::Cancelled

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// A cancelled parent cancels this token too (but not vice versa):
    /// the server hangs every request token off its drain token so one
    /// `cancel()` at shutdown reaps all in-flight work.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        match &self.parent {
            Some(p) => p.is_cancelled(),
            None => false,
        }
    }
}

/// A cloneable, thread-safe cancellation flag with an optional deadline.
///
/// Cloning is cheap (one `Arc` bump) and every clone observes the same
/// state: cancelling any clone cancels them all.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never cancels on its own (no deadline).
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that auto-cancels once `deadline` has elapsed from now.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(deadline),
                parent: None,
            }),
        }
    }

    /// A child token that cancels when *either* its own flag/deadline
    /// fires or this (parent) token is cancelled. Cancelling the child
    /// never affects the parent — a request aborting must not drain the
    /// whole server.
    pub fn child_with_deadline(&self, deadline: Option<Duration>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Requests cancellation. Idempotent; already-running work still
    /// finishes (cooperative, checked at job boundaries only).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token was cancelled, its deadline passed, or any
    /// ancestor token was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// Time left until the deadline; `None` when the token has no
    /// deadline, `Some(ZERO)` once it has passed. Useful for sizing
    /// bounded waits (e.g. a drain loop polling `wait_idle`).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_propagates_to_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        // Idempotent.
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_auto_cancels() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_cancelled(), "zero deadline is already expired");
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
        far.cancel();
        assert!(far.is_cancelled(), "explicit cancel overrides the deadline");
    }

    #[test]
    fn parent_cancel_reaches_children_but_not_vice_versa() {
        let drain = CancelToken::new();
        let req_a = drain.child_with_deadline(None);
        let req_b = drain.child_with_deadline(Some(Duration::from_secs(3600)));
        assert!(!req_a.is_cancelled() && !req_b.is_cancelled());

        // A request aborting leaves siblings and the parent alone.
        req_a.cancel();
        assert!(req_a.is_cancelled());
        assert!(!drain.is_cancelled());
        assert!(!req_b.is_cancelled());

        // Draining the server reaps every outstanding request token.
        drain.cancel();
        assert!(req_b.is_cancelled());
    }

    #[test]
    fn child_deadline_fires_independently_of_parent() {
        let drain = CancelToken::new();
        let req = drain.child_with_deadline(Some(Duration::from_millis(0)));
        assert!(req.is_cancelled(), "expired child deadline cancels it");
        assert!(!drain.is_cancelled());
    }
}
