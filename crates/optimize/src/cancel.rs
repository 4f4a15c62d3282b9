//! Cooperative cancellation for iterative searches.
//!
//! A [`CancelToken`] is the prompt counterpart of [`crate::Deadline`]:
//! where a deadline bounds a search by wall clock, a token lets an
//! caller stop it *now* — the annealing chain loop, the
//! Adam descent loop, and (higher up the stack) every compilation pass
//! and per-block composition attempt poll the token between
//! iterations, so cancellation is observed within one inner-loop step
//! rather than at the next wall-clock expiry.
//!
//! Tokens are cheap shared handles: cloning shares the flag, and
//! [`CancelToken::none`] carries no allocation at all, so the
//! uncancellable default costs nothing on the hot path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, cooperative cancellation flag.
///
/// `CancelToken::none()` can never fire and is the default everywhere;
/// [`CancelToken::new`] creates a live token whose clones all observe
/// the same [`CancelToken::cancel`] call.
///
/// # Example
///
/// ```
/// use geyser_optimize::CancelToken;
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// assert!(!CancelToken::none().is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that can never be cancelled (no allocation).
    pub fn none() -> Self {
        CancelToken { flag: None }
    }

    /// A live token; clones share the same flag.
    pub fn new() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// Fires the token: every clone observes cancellation from now on.
    /// Calling it on a [`CancelToken::none`] token is a no-op.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.as_ref().is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Whether this token can ever fire (i.e. it is not the `none`
    /// token).
    pub fn is_cancellable(&self) -> bool {
        self.flag.is_some()
    }
}

/// Tokens compare equal when they share the same flag (or are both
/// uncancellable) — enough for config-struct `PartialEq` derives.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        match (&self.flag, &other.flag) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_token_never_fires() {
        let t = CancelToken::none();
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(!t.is_cancellable());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        assert!(t.is_cancellable());
    }

    #[test]
    fn cancellation_is_visible_across_threads() {
        let t = CancelToken::new();
        let seen = std::thread::scope(|scope| {
            let observer = t.clone();
            let handle = scope.spawn(move || {
                while !observer.is_cancelled() {
                    std::thread::yield_now();
                }
                true
            });
            t.cancel();
            handle.join().unwrap()
        });
        assert!(seen);
    }

    #[test]
    fn equality_follows_the_shared_flag() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_eq!(CancelToken::none(), CancelToken::none());
        assert_ne!(a, CancelToken::none());
    }
}
