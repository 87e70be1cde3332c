//! Job handles: one producer publishes a result, any number of waiters
//! block on it.
//!
//! [`Runner::run`] is a batch API — the caller owns every report. A
//! *service* sitting on top of the runner needs something the batch API
//! cannot express: several independent threads waiting on the same unit
//! of work (the `gsim-serve` single-flight path, where N identical HTTP
//! requests share one simulation). [`job_handle`] provides that
//! primitive:
//!
//! * [`Promise`] — the producer side. Consumed by [`Promise::set`]; if it
//!   is dropped without publishing (the producing closure panicked or was
//!   abandoned), every waiter wakes with [`Abandoned`] instead of
//!   deadlocking.
//! * [`JobHandle`] — the consumer side. Cheap to clone; every clone's
//!   [`JobHandle::wait`] returns the same shared `Arc<T>`.
//!
//! ```
//! use gsim_runner::handle::job_handle;
//!
//! let (promise, handle) = job_handle::<u64>();
//! let waiter = handle.clone();
//! let t = std::thread::spawn(move || *waiter.wait().unwrap());
//! promise.set(42);
//! assert_eq!(*handle.wait().unwrap(), 42);
//! assert_eq!(t.join().unwrap(), 42);
//! ```
//!
//! [`Runner::run`]: crate::Runner::run

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The producer vanished without publishing a result (dropped its
/// [`Promise`], typically because the producing closure panicked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abandoned;

impl std::fmt::Display for Abandoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job abandoned before publishing a result")
    }
}

impl std::error::Error for Abandoned {}

enum SlotState<T> {
    Pending,
    Done(Arc<T>),
    Abandoned,
}

struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

/// The producer side of a [`job_handle`] pair. Publish with [`set`];
/// dropping it unpublished wakes every waiter with [`Abandoned`].
///
/// [`set`]: Promise::set
pub struct Promise<T> {
    slot: Arc<Slot<T>>,
}

impl<T> std::fmt::Debug for Promise<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Promise").finish_non_exhaustive()
    }
}

impl<T> Promise<T> {
    /// Publishes the result, waking every current and future waiter.
    pub fn set(self, value: T) {
        let mut state = self.slot.state.lock().expect("handle lock");
        *state = SlotState::Done(Arc::new(value));
        drop(state);
        self.slot.cv.notify_all();
        // Forgetting nothing: Drop sees the published state and leaves it.
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        let mut state = self.slot.state.lock().expect("handle lock");
        if matches!(*state, SlotState::Pending) {
            *state = SlotState::Abandoned;
            drop(state);
            self.slot.cv.notify_all();
        }
    }
}

/// The consumer side of a [`job_handle`] pair: clone freely, every clone
/// observes the same published result.
pub struct JobHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Clone for JobHandle<T> {
    fn clone(&self) -> Self {
        Self {
            slot: Arc::clone(&self.slot),
        }
    }
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").finish_non_exhaustive()
    }
}

impl<T> JobHandle<T> {
    /// Blocks until the producer publishes (or abandons) the result.
    ///
    /// # Errors
    ///
    /// Returns [`Abandoned`] if the producer dropped its [`Promise`]
    /// without publishing.
    pub fn wait(&self) -> Result<Arc<T>, Abandoned> {
        let mut state = self.slot.state.lock().expect("handle lock");
        loop {
            match &*state {
                SlotState::Done(v) => return Ok(Arc::clone(v)),
                SlotState::Abandoned => return Err(Abandoned),
                SlotState::Pending => {
                    state = self.slot.cv.wait(state).expect("handle lock");
                }
            }
        }
    }

    /// Like [`wait`](JobHandle::wait) but gives up after `timeout`,
    /// returning `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`Abandoned`] if the producer dropped its [`Promise`]
    /// without publishing.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Option<Arc<T>>, Abandoned> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().expect("handle lock");
        loop {
            match &*state {
                SlotState::Done(v) => return Ok(Some(Arc::clone(v))),
                SlotState::Abandoned => return Err(Abandoned),
                SlotState::Pending => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    let (guard, _) = self.slot.cv.wait_timeout(state, left).expect("handle lock");
                    state = guard;
                }
            }
        }
    }

    /// Whether the producer vanished without publishing. A registry
    /// holding handles (single-flight) uses this to detect stale entries
    /// without blocking.
    pub fn is_abandoned(&self) -> bool {
        matches!(
            &*self.slot.state.lock().expect("handle lock"),
            SlotState::Abandoned
        )
    }
}

/// Creates a connected [`Promise`]/[`JobHandle`] pair.
pub fn job_handle<T>() -> (Promise<T>, JobHandle<T>) {
    let slot = Arc::new(Slot {
        state: Mutex::new(SlotState::Pending),
        cv: Condvar::new(),
    });
    (
        Promise {
            slot: Arc::clone(&slot),
        },
        JobHandle { slot },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn many_waiters_observe_one_result() {
        let (promise, handle) = job_handle::<String>();
        let waiters: Vec<_> = (0..8)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || h.wait().unwrap())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        promise.set("done".to_string());
        let results: Vec<Arc<String>> = waiters.into_iter().map(|t| t.join().unwrap()).collect();
        for r in &results {
            assert_eq!(**r, "done");
            // All waiters share the same allocation, not copies.
            assert!(Arc::ptr_eq(r, &results[0]));
        }
    }

    #[test]
    fn dropped_promise_abandons_waiters() {
        let (promise, handle) = job_handle::<u32>();
        let h = handle.clone();
        let t = std::thread::spawn(move || h.wait());
        std::thread::sleep(Duration::from_millis(10));
        drop(promise);
        assert_eq!(t.join().unwrap(), Err(Abandoned));
        assert_eq!(handle.wait(), Err(Abandoned));
    }

    #[test]
    fn wait_timeout_before_and_after_set() {
        let (promise, handle) = job_handle::<u32>();
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), Ok(None));
        promise.set(7);
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(5)).unwrap(),
            Some(Arc::new(7))
        );
    }

    #[test]
    fn set_before_wait_is_immediate() {
        let (promise, handle) = job_handle::<u32>();
        promise.set(1);
        assert_eq!(*handle.wait().unwrap(), 1);
    }
}
