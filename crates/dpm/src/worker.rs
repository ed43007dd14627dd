//! The one background-thread shape of the DPM's processors: a
//! park/wake/drain/stop latch and the thread that steps while it is woken.
//!
//! Every merge worker ([`crate::merge`]) and the background compactor
//! ([`crate::gc`]) is one [`Worker`]. Its thread parks until
//! [`Worker::wake`], then calls its job's `step` back to back until a step
//! reports no progress or the worker stops:
//!
//! ```text
//! while park() { while !stopped && step() {} }
//! ```
//!
//! A wake-up that arrives while a step runs sets `pending`, so the thread
//! runs another burst instead of losing it. [`Worker::drain`] waits for a
//! burst that started after the call to park again; [`Worker::stop`] ends
//! the loop at the next step boundary and joins the thread.

use parking_lot::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long [`Worker::wait_while`] sleeps before re-checking its predicate
/// without a progress signal (the predicate can also change through
/// recovery, which is no step).
const RECHECK: Duration = Duration::from_millis(50);

/// A latch plus the thread it drives. `Q` is the work a wake-up hands over
/// ([`Worker::wake_with`]); a job that needs none uses `()`.
#[derive(Debug, Default)]
pub(crate) struct Worker<Q = ()> {
    state: Mutex<State<Q>>,
    /// The thread parks on this one.
    wake: Condvar,
    /// Signalled after every step that made progress and when the thread
    /// parks; [`Worker::drain`] and [`Worker::wait_while`] wait on it.
    progress: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

#[derive(Debug, Default)]
struct State<Q> {
    /// A wake-up that `park` has not consumed yet.
    pending: bool,
    /// Set from a consumed wake-up until the thread parks again.
    running: bool,
    stopped: bool,
    /// Work handed over with the wake-ups.
    queue: Q,
}

impl<Q> Worker<Q> {
    /// Spawn the thread `name` running `body`, which calls [`Worker::run`]
    /// on this worker.
    pub(crate) fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) {
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(body)
            .expect("failed to spawn a DPM processor thread");
        *self.thread.lock() = Some(handle);
    }

    /// The thread body: park until woken, then step until a step makes no
    /// progress; return once stopped.
    pub(crate) fn run(&self, mut step: impl FnMut() -> bool) {
        while self.park() {
            while step() && self.stepped() {}
        }
    }

    /// Wake the thread for another burst of steps.
    pub(crate) fn wake(&self) {
        self.wake_with(|_| ());
    }

    /// Hand the thread work and wake it, under one lock.
    pub(crate) fn wake_with(&self, give: impl FnOnce(&mut Q)) {
        let mut state = self.state.lock();
        give(&mut state.queue);
        state.pending = true;
        drop(state);
        self.wake.notify_one();
    }

    /// Take work handed over by [`Worker::wake_with`] (a step's side).
    pub(crate) fn take<R>(&self, take: impl FnOnce(&mut Q) -> R) -> R {
        take(&mut self.state.lock().queue)
    }

    /// Wake the thread and block until a burst that started after this
    /// call has parked again with no wake-up pending, or the worker
    /// stopped. Only call it while the thread runs: nothing else consumes
    /// the wake-up.
    pub(crate) fn drain(&self) {
        let mut state = self.state.lock();
        state.pending = true;
        self.wake.notify_one();
        while (state.pending || state.running) && !state.stopped {
            self.progress.wait(&mut state);
        }
    }

    /// Block while `busy()` holds. It is re-checked after every step that
    /// made progress, and every 50 ms in any case.
    pub(crate) fn wait_while(&self, mut busy: impl FnMut() -> bool) {
        let mut state = self.state.lock();
        while busy() {
            self.progress.wait_for(&mut state, RECHECK);
        }
    }

    /// Stop the thread at its next step boundary and join it (idempotent).
    pub(crate) fn stop(&self) {
        self.state.lock().stopped = true;
        self.wake.notify_all();
        self.progress.notify_all();
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }

    #[cfg(test)]
    pub(crate) fn is_stopped(&self) -> bool {
        self.state.lock().stopped
    }

    /// Park until woken, consuming the wake-up; `false` once stopped.
    fn park(&self) -> bool {
        let mut state = self.state.lock();
        state.running = false;
        if !state.pending {
            self.progress.notify_all();
        }
        while !state.pending && !state.stopped {
            self.wake.wait(&mut state);
        }
        state.pending = false;
        state.running = !state.stopped;
        !state.stopped
    }

    /// Tell waiters a step made progress; `false` once stopped.
    fn stepped(&self) -> bool {
        let state = self.state.lock();
        self.progress.notify_all();
        !state.stopped
    }
}

#[cfg(test)]
mod tests {
    use super::Worker;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    /// A worker whose every burst is one step that reports no progress, so
    /// only a wake-up starts the next step. Each step counts itself, then
    /// meets the test at the returned barrier twice: once running, once to
    /// end.
    fn one_step_bursts() -> (Arc<Worker>, Arc<Barrier>, Arc<AtomicUsize>) {
        let worker = Arc::new(Worker::default());
        let gate = Arc::new(Barrier::new(2));
        let steps = Arc::new(AtomicUsize::new(0));
        let (w, g, s) = (Arc::clone(&worker), Arc::clone(&gate), Arc::clone(&steps));
        worker.spawn("one-step".into(), move || {
            w.run(|| {
                s.fetch_add(1, Ordering::SeqCst);
                g.wait();
                g.wait();
                false
            });
        });
        (worker, gate, steps)
    }

    #[test]
    fn a_wake_during_a_step_is_not_lost() {
        let (worker, gate, steps) = one_step_bursts();
        worker.wake();
        gate.wait(); // Step 1 runs...
        worker.wake(); // ...while this wake-up arrives.
        gate.wait();
        // Step 1 made no progress, so only the kept wake-up starts step 2:
        // were it lost, this would wait forever.
        gate.wait();
        gate.wait();
        assert_eq!(steps.load(Ordering::SeqCst), 2);
        worker.stop();
    }

    #[test]
    fn drain_waits_for_a_burst_that_starts_after_the_call() {
        let (worker, gate, steps) = one_step_bursts();
        worker.wake();
        gate.wait(); // Step 1's burst started before the drain below.
        let drainer = {
            let worker = Arc::clone(&worker);
            std::thread::spawn(move || worker.drain())
        };
        gate.wait();
        // Step 1's burst parking is not enough: the drain's own wake-up
        // starts step 2, and the drain waits while it runs.
        gate.wait();
        assert!(!drainer.is_finished(), "drain returned during a burst");
        gate.wait();
        drainer.join().unwrap();
        assert_eq!(steps.load(Ordering::SeqCst), 2);
        worker.stop();
    }

    #[test]
    fn drain_returns_at_once_after_stop() {
        let (worker, _gate, steps) = one_step_bursts();
        worker.stop();
        // No thread consumes the wake-up any more: a drain that waited for
        // a burst would wait forever.
        worker.drain();
        worker.drain();
        worker.stop();
        assert_eq!(steps.load(Ordering::SeqCst), 0);
    }
}
