//! Single-flight request deduplication.
//!
//! N concurrent requests for the same content address must cost one
//! computation. The first arrival becomes the *leader* and receives a
//! [`Promise`]; everyone else becomes a *follower* holding a
//! [`JobHandle`] on the same slot and blocks until the leader publishes.
//! The pair comes from [`job_handle`]: one producer, any number of
//! waiters sharing the published `Arc<T>`. If the promise is dropped
//! unpublished (the leader panicked), every waiter wakes with
//! [`Abandoned`] instead of deadlocking, and the registry replaces the
//! dead flight on the next [`SingleFlight::join`].
//!
//! ```
//! use gsim_serve::singleflight::job_handle;
//!
//! let (promise, handle) = job_handle::<u64>();
//! let waiter = handle.clone();
//! let t = std::thread::spawn(move || *waiter.wait().unwrap());
//! promise.set(42);
//! assert_eq!(*handle.wait().unwrap(), 42);
//! assert_eq!(t.join().unwrap(), 42);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The producer vanished without publishing a result (dropped its
/// [`Promise`], because the flight's leader panicked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abandoned;

impl std::fmt::Display for Abandoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flight abandoned before its leader published a result")
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

/// What [`SingleFlight::join`] hands back.
pub enum Role<T> {
    /// First arrival: compute the value, then [`SingleFlight::publish`]
    /// it through this promise.
    Leader(Promise<T>),
    /// Later arrival: `wait()` for the leader's value.
    Follower(JobHandle<T>),
}

/// A keyed registry of in-flight computations.
#[derive(Default)]
pub struct SingleFlight<T> {
    inflight: Mutex<HashMap<u64, JobHandle<T>>>,
}

impl<T> SingleFlight<T> {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Joins the flight for `key`: the first caller per key becomes the
    /// leader, every caller until [`publish`](Self::publish) a follower.
    /// A flight whose leader died without publishing (its promise was
    /// dropped) is replaced, so one crash never wedges a key forever.
    pub fn join(&self, key: u64) -> Role<T> {
        let mut inflight = self.lock();
        if let Some(handle) = inflight.get(&key) {
            if !handle.is_abandoned() {
                return Role::Follower(handle.clone());
            }
        }
        let (promise, handle) = job_handle();
        inflight.insert(key, handle);
        Role::Leader(promise)
    }

    /// Publishes the leader's value: removes the key (new arrivals start
    /// a fresh flight — by then the result sits in the cache) and wakes
    /// every follower.
    pub fn publish(&self, key: u64, promise: Promise<T>, value: T) {
        self.lock().remove(&key);
        promise.set(value);
    }

    /// Number of keys currently in flight.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no computation is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, JobHandle<T>>> {
        self.inflight.lock().expect("single-flight lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn one_leader_many_followers() {
        let sf = Arc::new(SingleFlight::<u32>::new());
        let computations = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let computations = Arc::clone(&computations);
                std::thread::spawn(move || match sf.join(42) {
                    Role::Leader(promise) => {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Linger so the other threads all arrive as
                        // followers of this flight.
                        std::thread::sleep(Duration::from_millis(100));
                        sf.publish(42, promise, 7);
                        7
                    }
                    Role::Follower(handle) => *handle.wait().expect("leader published"),
                })
            })
            .collect();
        let values: Vec<u32> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(computations.load(Ordering::SeqCst), 1, "exactly one leader");
        assert!(values.iter().all(|&v| v == 7));
        assert!(sf.is_empty(), "flight cleared after publish");
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let sf = SingleFlight::<&'static str>::new();
        let Role::Leader(p1) = sf.join(1) else {
            panic!("first join must lead")
        };
        let Role::Leader(p2) = sf.join(2) else {
            panic!("distinct key must lead its own flight")
        };
        assert_eq!(sf.len(), 2);
        sf.publish(1, p1, "one");
        sf.publish(2, p2, "two");
        assert!(sf.is_empty());
    }

    #[test]
    fn dropped_leader_wakes_followers_with_abandoned() {
        let sf = SingleFlight::<u32>::new();
        let Role::Leader(promise) = sf.join(9) else {
            panic!("must lead")
        };
        let Role::Follower(handle) = sf.join(9) else {
            panic!("must follow")
        };
        drop(promise); // leader died without publishing
        assert!(
            handle.wait().is_err(),
            "follower sees Abandoned, not a hang"
        );
        // The stale key must not poison future flights: the next joiner
        // notices the abandoned handle and becomes the new leader.
        assert!(matches!(sf.join(9), Role::Leader(_)));
    }

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
