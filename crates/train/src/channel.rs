//! A bounded MPSC channel with send/recv timeouts and disconnect
//! detection, built on `std::sync::{Mutex, Condvar}`.
//!
//! The trainer needs exactly three properties from its channels, all so
//! that a panicked or hung stage fails the run with a typed error instead
//! of deadlocking it:
//!
//! 1. **bounded capacity** — a dead consumer backpressures its producer
//!    instead of letting queues grow without limit;
//! 2. **timeouts on both ends** — a stage blocked on a dead neighbour
//!    wakes up and unwinds instead of deadlocking the scope;
//! 3. **disconnect signalling** — dropping either end wakes the other
//!    immediately, so failure cascades through the pipeline fast.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a send did not complete.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<T> {
    /// The receiver was dropped; the value is returned.
    Disconnected(T),
    /// The queue stayed full past the deadline; the value is returned.
    Timeout(T),
}

/// Why a receive did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// All senders dropped and the queue is drained.
    Disconnected,
    /// Nothing arrived before the deadline.
    Timeout,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Inner<T> {
    cap: usize,
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producing end; clonable (MPSC).
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// Consuming end; single owner.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create a bounded channel with capacity `cap` (>= 1).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "channel capacity must be >= 1");
    let inner = Arc::new(Inner {
        cap,
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(cap),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Block until the value is queued or `timeout` elapses.
    pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendError<T>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if !state.receiver_alive {
                return Err(SendError::Disconnected(value));
            }
            if state.queue.len() < self.inner.cap {
                state.queue.push_back(value);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SendError::Timeout(value));
            }
            let (guard, _res) = self
                .inner
                .not_full
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = guard;
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().unwrap().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap();
        state.senders -= 1;
        if state.senders == 0 {
            // wake a receiver blocked on an empty queue so it observes
            // the disconnect
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a value arrives or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if let Some(v) = state.queue.pop_front() {
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            let (guard, _res) = self
                .inner
                .not_empty
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = guard;
        }
    }

    /// Drain whatever is queued without blocking.
    pub fn drain(&self) -> Vec<T> {
        let mut state = self.inner.state.lock().unwrap();
        let out = state.queue.drain(..).collect();
        self.inner.not_full.notify_all();
        out
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.inner.state.lock().unwrap();
        state.receiver_alive = false;
        // wake all senders blocked on a full queue so they observe the
        // disconnect
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send_timeout(i, Duration::from_secs(1)).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(i));
        }
    }

    #[test]
    fn send_times_out_when_full() {
        let (tx, _rx) = bounded(1);
        tx.send_timeout(1, Duration::from_millis(10)).unwrap();
        match tx.send_timeout(2, Duration::from_millis(10)) {
            Err(SendError::Timeout(2)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn recv_times_out_when_empty() {
        let (_tx, rx) = bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvError::Timeout)
        );
    }

    #[test]
    fn dropping_senders_disconnects_after_drain() {
        let (tx, rx) = bounded(2);
        tx.send_timeout(7, Duration::from_secs(1)).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)),
            Err(RecvError::Disconnected)
        );
    }

    #[test]
    fn dropping_receiver_fails_sends() {
        let (tx, rx) = bounded(1);
        drop(rx);
        match tx.send_timeout(1, Duration::from_secs(1)) {
            Err(SendError::Disconnected(1)) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn dropping_receiver_wakes_blocked_sender() {
        let (tx, rx) = bounded(1);
        tx.send_timeout(0, Duration::from_secs(1)).unwrap();
        let h = std::thread::spawn(move || tx.send_timeout(1, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        drop(rx);
        match h.join().unwrap() {
            Err(SendError::Disconnected(1)) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn cross_thread_producer_consumer() {
        let (tx, rx) = bounded(2);
        let h = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send_timeout(i, Duration::from_secs(5)).unwrap();
            }
        });
        for i in 0..100 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(i));
        }
        h.join().unwrap();
    }
}
