//! Synchronization primitives with a parking_lot/crossbeam-shaped API.
//!
//! * [`Mutex`]/[`RwLock`]: thin wrappers over `std::sync` that ignore
//!   poisoning — `lock()`/`read()`/`write()` return guards directly, the way
//!   parking_lot does. A panicked critical section in one thread must not
//!   wedge the whole cluster simulation; the state types these protect
//!   (inbox registries, connection maps) stay consistent under panic.
//! * [`unbounded`] channels: `std::sync::mpsc` re-shaped to crossbeam's
//!   calling convention (`Sender`/`Receiver` with `try_recv`/`recv_timeout`
//!   and shareable, `Sync` receivers).
//! * [`scope`]: `std::thread::scope`, re-exported as the workspace's scoped
//!   spawn primitive (replaces `crossbeam::thread::scope`).
//! * [`take_shortest_slice`]: the calling thread asks Linux for the shortest
//!   scheduler slice, so it preempts a compute-bound thread when it wakes
//!   (the TCP reader threads that answer requests; see `sync/sched.rs`).

mod sched;

use std::sync::mpsc;
use std::time::Duration;

pub use sched::take_shortest_slice;

pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};
pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};
pub use std::thread::scope;

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// New mutex wrapping `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex and return the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock whose `read()`/`write()` never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// New lock wrapping `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock and return the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, ignoring poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an exclusive write guard, ignoring poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A one-way latch for background-loop shutdown: worker threads park on
/// [`StopFlag::wait_timeout`] for their poll cadence and wake *immediately*
/// when another thread calls [`StopFlag::stop`], instead of sleeping out the
/// rest of the interval. Replaces `AtomicBool` + `thread::sleep` polling,
/// whose shutdown latency is a full poll period per loop.
#[derive(Debug, Default)]
pub struct StopFlag {
    stopped: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl StopFlag {
    /// A flag in the running state.
    pub fn new() -> Self {
        StopFlag::default()
    }

    /// Latch to stopped and wake every waiter. Idempotent.
    pub fn stop(&self) {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    /// Whether [`StopFlag::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        *self.stopped.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park for up to `timeout`, returning early — with `true` — as soon as
    /// the flag stops. Returns the stopped state either way.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let guard = self.stopped.lock().unwrap_or_else(|e| e.into_inner());
        if *guard {
            return true;
        }
        let (guard, _timed_out) = self
            .cv
            .wait_timeout_while(guard, timeout, |stopped| !*stopped)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

/// Create an unbounded mpsc channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (
        Sender(tx),
        Receiver {
            inner: Mutex::new(rx),
        },
    )
}

/// Cloneable sending half of an [`unbounded`] channel.
#[derive(Debug)]
pub struct Sender<T>(mpsc::Sender<T>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender(self.0.clone())
    }
}

impl<T> Sender<T> {
    /// Send a value; fails only if the receiver was dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.0.send(value)
    }
}

/// Receiving half of an [`unbounded`] channel. Unlike `std`'s receiver this
/// is `Sync` (receives serialize through an internal mutex), matching the
/// crossbeam receivers it replaces.
#[derive(Debug)]
pub struct Receiver<T> {
    inner: Mutex<mpsc::Receiver<T>>,
}

impl<T> Receiver<T> {
    /// Block until a value arrives or every sender is dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.inner.lock().recv()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.inner.lock().try_recv()
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.inner.lock().recv_timeout(timeout)
    }

    /// Drain and return everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        let guard = self.inner.lock();
        let mut out = Vec::new();
        while let Ok(v) = guard.try_recv() {
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_ignores_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1; // must not panic
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn rwlock_ignores_poison() {
        let l = Arc::new(RwLock::new(5u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn channel_send_recv_roundtrip() {
        let (tx, rx) = unbounded();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn try_recv_and_timeout_semantics() {
        let (tx, rx) = unbounded::<u32>();
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        ));
        tx.send(1).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 1);
        drop(tx);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn cloned_senders_share_one_receiver() {
        let (tx, rx) = unbounded();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(tx);
        let mut got = rx.drain();
        got.sort();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn receiver_is_sync_and_shareable() {
        let (tx, rx) = unbounded::<u64>();
        let rx = Arc::new(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || {
                    let mut n = 0u32;
                    while rx.try_recv().is_ok() {
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let total: u32 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn stop_flag_wakes_parked_waiter_early() {
        let flag = Arc::new(StopFlag::new());
        assert!(!flag.is_stopped());
        assert!(!flag.wait_timeout(Duration::from_millis(1)));
        let waiter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                assert!(flag.wait_timeout(Duration::from_secs(30)));
                start.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        flag.stop();
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "woke early, not at timeout"
        );
        assert!(flag.is_stopped());
        // Stopped flag returns immediately.
        assert!(flag.wait_timeout(Duration::from_secs(30)));
    }

    #[test]
    fn scoped_threads_borrow_locals() {
        let data = vec![1, 2, 3, 4];
        let sums: Vec<i32> = scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|c| s.spawn(move || c.iter().sum::<i32>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sums, vec![3, 7]);
    }
}
