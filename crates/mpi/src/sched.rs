//! Bounded worker-pool scheduler for rank execution.
//!
//! [`WorldConfig::launch`](crate::WorldConfig::launch) historically ran one OS thread per rank, so a
//! 408-rank world (the paper's scale) needed 408 simultaneously runnable
//! threads. This module multiplexes rank execution onto a bounded number of
//! *worker slots* instead: every rank still owns a thread (its stack is the
//! cheapest possible representation of suspended rank state — the zero-copy
//! `Chunk` payloads mean a parked rank pins no bulk buffers beyond what the
//! algorithm itself holds), but only `workers` of them are runnable at any
//! instant. A rank *parks* — releases its slot — whenever it blocks on a
//! collective or RMA edge (a matched receive, a window handshake, an
//! injected delay) and reacquires a slot before it resumes. Because every
//! blocking wait parks, slot capacity can never deadlock the world: a rank
//! holding a slot is by construction runnable.
//!
//! Scheduling changes only *when* ranks run, never *what* they compute:
//! message matching is by `(source, tag)`, so dump/restore results and
//! trace span sets are byte-identical to thread-per-rank execution (the
//! oversubscription proptests in `tests/` pin this down).
//!
//! This module is the only place in the workspace allowed to spawn OS
//! threads (the root `clippy.toml` disallows raw `std::thread` spawns
//! elsewhere); one-off background workers (e.g. a concurrent healer
//! session) go through [`spawn`].

use std::num::NonZeroUsize;
use std::sync::{Arc, Condvar, Mutex};

/// Counting semaphore over worker slots. Plain `Mutex` + `Condvar`: slot
/// transitions happen only at blocking edges, so this is never on a
/// message-rate hot path.
#[derive(Debug)]
struct Gate {
    capacity: usize,
    running: Mutex<usize>,
    wakeup: Condvar,
}

impl Gate {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            running: Mutex::new(0),
            wakeup: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut running = self.running.lock().expect("scheduler gate poisoned");
        while *running >= self.capacity {
            running = self.wakeup.wait(running).expect("scheduler gate poisoned");
        }
        *running += 1;
    }

    fn release(&self) {
        let mut running = self.running.lock().expect("scheduler gate poisoned");
        debug_assert!(*running > 0, "slot released twice");
        *running = running.saturating_sub(1);
        drop(running);
        self.wakeup.notify_one();
    }
}

/// RAII worker slot held by a running task; dropping it (including during a
/// panic unwind, e.g. an injected crash) frees the slot for a parked peer.
struct Permit<'a>(&'a Gate);

impl<'a> Permit<'a> {
    fn acquire(gate: &'a Gate) -> Self {
        gate.acquire();
        Permit(gate)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Releases the slot on construction and reacquires it on drop: the shape
/// of a park. Reacquisition happens even if the blocking closure unwinds,
/// so the enclosing [`Permit`]'s release stays balanced.
struct ParkGuard<'a>(&'a Gate);

impl<'a> ParkGuard<'a> {
    fn park(gate: &'a Gate) -> Self {
        gate.release();
        ParkGuard(gate)
    }
}

impl Drop for ParkGuard<'_> {
    fn drop(&mut self) {
        self.0.acquire();
    }
}

/// A rank's handle onto the world's scheduler. Unpooled worlds (the
/// default, `workers: None`) carry a gate-less slot and every operation is
/// a no-op — the historical thread-per-rank behavior with zero overhead.
#[derive(Clone, Debug, Default)]
pub struct SchedSlot {
    gate: Option<Arc<Gate>>,
}

impl SchedSlot {
    /// Run a blocking wait with the worker slot released: the rank parks,
    /// peers get to run, and the slot is reacquired before this returns
    /// (or before a panic from `wait` propagates).
    pub fn park_while<R>(&self, wait: impl FnOnce() -> R) -> R {
        match &self.gate {
            None => wait(),
            Some(gate) => {
                let _reacquire = ParkGuard::park(gate);
                wait()
            }
        }
    }
}

/// Run one closure per task on dedicated threads, at most `workers` of
/// which are runnable at once (`None` = unbounded, thread-per-rank). Each
/// closure receives the [`SchedSlot`] it must park through at blocking
/// edges. Returns per-task join results in task order; panics are carried
/// as `Err` payloads exactly as `JoinHandle::join` reports them.
#[allow(
    clippy::disallowed_methods,
    reason = "the scheduler is the one owner of rank threads"
)]
pub fn run_tasks<T, F>(
    name_prefix: &str,
    workers: Option<NonZeroUsize>,
    tasks: Vec<F>,
) -> Vec<std::thread::Result<T>>
where
    F: FnOnce(SchedSlot) -> T + Send,
    T: Send,
{
    let gate = workers.map(|w| Arc::new(Gate::new(w.get())));
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                let slot = SchedSlot { gate: gate.clone() };
                std::thread::Builder::new()
                    .name(format!("{name_prefix}-{i}"))
                    .spawn_scoped(scope, move || match &slot.gate {
                        None => task(slot.clone()),
                        Some(gate) => {
                            let _permit = Permit::acquire(gate);
                            task(slot.clone())
                        }
                    })
                    .expect("spawn task thread")
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// Spawn a named detached background thread (e.g. a concurrent healer
/// session racing a dump). The one sanctioned escape hatch from the
/// worker-pool world for `'static` work; join it via the returned handle.
#[allow(
    clippy::disallowed_methods,
    reason = "the scheduler is the one owner of background threads"
)]
pub fn spawn<T, F>(name: &str, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(f)
        .expect("spawn background thread")
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "tasks sleep to hold or park a slot for a measurable time"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Tracks the high-water mark of concurrently running tasks.
    #[derive(Default)]
    struct Watermark {
        current: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Watermark {
        fn enter(&self) {
            let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }

        fn exit(&self) {
            self.current.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pool_bounds_concurrency() {
        let mark = Watermark::default();
        let tasks: Vec<_> = (0..16)
            .map(|_| {
                |_slot: SchedSlot| {
                    mark.enter();
                    std::thread::sleep(Duration::from_millis(5));
                    mark.exit();
                }
            })
            .collect();
        run_tasks("wm", NonZeroUsize::new(3), tasks);
        assert!(mark.peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn parked_tasks_free_their_slot() {
        // 4 tasks, 1 worker: each task parks once; if parking did not
        // release the slot, the peak would stay 1 but the parked section
        // could never overlap — verify parks overlap by counting parked
        // tasks at once.
        let parked = Watermark::default();
        let tasks: Vec<_> = (0..4)
            .map(|_| {
                |slot: SchedSlot| {
                    slot.park_while(|| {
                        parked.enter();
                        std::thread::sleep(Duration::from_millis(20));
                        parked.exit();
                    });
                }
            })
            .collect();
        run_tasks("park", NonZeroUsize::new(1), tasks);
        assert!(
            parked.peak.load(Ordering::SeqCst) > 1,
            "parking must release the slot so peers overlap"
        );
    }

    #[test]
    fn unlimited_slot_is_noop() {
        let slot = SchedSlot::default();
        assert!(slot.gate.is_none());
        assert_eq!(slot.park_while(|| 7), 7);
    }

    #[test]
    fn results_keep_task_order() {
        let tasks: Vec<_> = (0..32).map(|i| move |_slot: SchedSlot| i * 3).collect();
        let out = run_tasks("ord", NonZeroUsize::new(2), tasks);
        let vals: Vec<_> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_releases_its_slot() {
        // 1 worker; the first task panics while holding the slot. The
        // remaining tasks must still run to completion.
        let mut tasks: Vec<Box<dyn FnOnce(SchedSlot) -> u32 + Send>> =
            vec![Box::new(|_| panic!("boom"))];
        for i in 0..3u32 {
            tasks.push(Box::new(move |_| i));
        }
        let out = run_tasks("crash", NonZeroUsize::new(1), tasks);
        assert!(out[0].is_err());
        assert!(out[1..].iter().all(|r| r.is_ok()));
    }

    #[test]
    fn spawn_runs_and_joins() {
        let h = spawn("bg-test", || 41 + 1);
        assert_eq!(h.join().unwrap(), 42);
    }
}
