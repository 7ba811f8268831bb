//! Offline stand-in for the `crossbeam` crate.
//!
//! One entry point is provided: the scoped-thread API ([`scope`]),
//! implemented on top of `std::thread::scope` (stable since Rust 1.63).
//! Semantics mirror the real crate: all spawned threads are joined before
//! `scope` returns, and a panicking child surfaces as `Err` instead of
//! unwinding through the caller.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// A scope handle passed to the closure given to [`scope`].
#[derive(Debug)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread. The child receives a scope reference so it can
    /// spawn further threads, mirroring crossbeam's signature.
    pub fn spawn<F, T>(&self, f: F) -> thread::ScopedJoinHandle<'scope, T>
    where
        F: for<'a> FnOnce(&'a Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let inner = self.inner;
        self.inner.spawn(move || f(&Scope { inner }))
    }
}

/// Runs `f` with a scope in which borrowed-data threads can be spawned.
///
/// All threads spawned inside are joined before this returns. Returns `Err`
/// with the first panic payload if the closure or any child panicked.
///
/// # Errors
///
/// The boxed panic payload of whichever thread panicked first.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| thread::scope(|s| f(&Scope { inner: s }))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_threads_borrow_stack_data() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn child_panic_is_reported_not_propagated() {
        let r = scope(|s| {
            s.spawn(|_| panic!("child failed"));
        });
        assert!(r.is_err());
    }

    #[test]
    fn scope_returns_closure_value() {
        assert_eq!(scope(|_| 42).unwrap(), 42);
    }
}
