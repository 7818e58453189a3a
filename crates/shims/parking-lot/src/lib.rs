//! Offline stand-in for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this shim as a path dependency under the same crate name. It
//! wraps `std::sync` primitives and mirrors parking_lot's panic-free API:
//! `lock()` returns the guard directly (a poisoned std mutex — possible
//! only if a thread panicked while holding it — is recovered rather than
//! propagated, matching parking_lot's "no poisoning" semantics).

#![warn(missing_docs)]

use std::sync;

/// A mutual-exclusion primitive with parking_lot's non-poisoning API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner
            .lock()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison_it() {
        let m = Mutex::new(0);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = m.lock();
                panic!("while holding the lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert_eq!(*m.lock(), 0);
    }
}
