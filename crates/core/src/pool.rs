//! A minimal worker pool: the one way batches run in parallel.
//!
//! The build environment has no crates.io access, so this is a
//! hand-rolled stand-in for the slice of `rayon` the workspace needs: map
//! a function over a slice on `N` worker threads and collect the results
//! **in input order**, independent of scheduling. Work distribution is a
//! dynamic queue (one shared atomic cursor), so a few large items and
//! many small ones still balance across workers.
//!
//! Workers can carry per-worker state (created once per thread by an
//! `init` closure). `numfuzz batch`, the serve `batch` op, and
//! `numfuzz optimize` use it to give every worker its own analysis
//! session with a private [`crate::CoreArena`], so workers never contend
//! on one arena lock. [`TaskPool`] is the resident variant for work that
//! arrives over time.
//!
//! ```
//! use numfuzz_core::pool;
//!
//! let squares = pool::ordered_map(4, &[1u64, 2, 3, 4, 5], |_i, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Resolves a user-facing jobs knob against a workload: `0` means one
/// worker per available core (1 when that cannot be queried), and the
/// result is clamped to `[1, items]` so a small batch never spawns idle
/// workers.
pub fn effective_jobs(requested: usize, items: usize) -> usize {
    let jobs = match requested {
        0 => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        n => n,
    };
    jobs.min(items).max(1)
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, returning
/// results in input order (deterministic regardless of scheduling).
///
/// `jobs == 0` means auto-detect; `jobs <= 1` (after clamping to the item
/// count) runs inline on the caller's thread with no threads spawned. A
/// panic in `f` propagates to the caller once all workers have stopped.
pub fn ordered_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    ordered_map_with(jobs, items, |_| (), |(), i, item| f(i, item))
}

/// [`ordered_map`] with per-worker state: `init(w)` runs once on worker
/// `w`'s thread, and each call of `f` on that worker gets `&mut` access
/// to its state. The state is dropped when the worker finishes.
pub fn ordered_map_with<S, T, R, I, F>(jobs: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 {
        let mut state = init(0);
        return items.iter().enumerate().map(|(i, item)| f(&mut state, i, item)).collect();
    }

    // One shared cursor hands out item indices; each result is written to
    // its own slot, so output order is input order no matter which worker
    // claimed which item. The per-slot mutexes are never contended (each
    // index is claimed exactly once).
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let (cursor, slots, init, f) = (&cursor, &slots, &init, &f);
            scope.spawn(move || {
                let mut state = init(worker);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let result = f(&mut state, i, &items[i]);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("pool: every item index is claimed by exactly one worker")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Resident task pool
// ---------------------------------------------------------------------

/// One unit of work submitted to a [`TaskPool`], run with `&mut` access
/// to the claiming worker's state.
type Task<S> = Box<dyn FnOnce(&mut S) + Send + 'static>;

struct TaskQueue<S> {
    tasks: VecDeque<Task<S>>,
    closed: bool,
}

struct PoolShared<S> {
    queue: Mutex<TaskQueue<S>>,
    ready: Condvar,
}

impl<S> PoolShared<S> {
    fn lock(&self) -> std::sync::MutexGuard<'_, TaskQueue<S>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A resident worker pool: `jobs` threads that live for the pool's
/// lifetime, pulling boxed tasks from one shared queue.
///
/// Where [`ordered_map_with`] is a scoped fan-out over a slice that is
/// fully known up front, a `TaskPool` serves workloads where tasks
/// *arrive over time* — a network event loop dispatching requests, for
/// example. Each worker carries per-worker state built once by `init`
/// (the service layer uses this for per-worker analyzer sessions, so
/// concurrent tasks never contend on one arena lock).
///
/// Tasks are expected to catch their own panics (they have no caller to
/// propagate to). As a last resort the worker catches an escaped panic,
/// drops its possibly-inconsistent state, and rebuilds it with `init` —
/// a panicking task must cost one worker state, never a worker thread.
///
/// Dropping the pool closes the queue, wakes every worker, and joins
/// them; tasks already queued still run to completion first.
///
/// ```
/// use numfuzz_core::pool::TaskPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let done = Arc::new(AtomicUsize::new(0));
/// let pool = TaskPool::new(2, |_worker| 0u64);
/// for _ in 0..10 {
///     let done = Arc::clone(&done);
///     pool.submit(move |count| {
///         *count += 1;
///         done.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// drop(pool); // close + drain + join
/// assert_eq!(done.load(Ordering::SeqCst), 10);
/// ```
pub struct TaskPool<S> {
    shared: Arc<PoolShared<S>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<S: Send + 'static> TaskPool<S> {
    /// Spawns `jobs` resident workers (`0` = one per core), each with its
    /// own state from `init(worker_index)`.
    pub fn new<I>(jobs: usize, init: I) -> Self
    where
        I: Fn(usize) -> S + Send + Sync + 'static,
    {
        let jobs = effective_jobs(jobs, usize::MAX);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(TaskQueue { tasks: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        });
        let init = Arc::new(init);
        let workers = (0..jobs)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let init = Arc::clone(&init);
                std::thread::spawn(move || {
                    let mut state = init(worker);
                    loop {
                        let task = {
                            let mut queue = shared.lock();
                            loop {
                                if let Some(task) = queue.tasks.pop_front() {
                                    break Some(task);
                                }
                                if queue.closed {
                                    break None;
                                }
                                queue = shared.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
                            }
                        };
                        let Some(task) = task else { break };
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                task(&mut state)
                            }));
                        if outcome.is_err() {
                            // The task unwound mid-mutation: its worker
                            // state is suspect. Rebuild, keep serving.
                            state = init(worker);
                        }
                    }
                })
            })
            .collect();
        TaskPool { shared, workers }
    }

    /// The number of resident workers.
    pub fn jobs(&self) -> usize {
        self.workers.len()
    }

    /// Queues one task; some idle worker picks it up.
    pub fn submit(&self, task: impl FnOnce(&mut S) + Send + 'static) {
        {
            let mut queue = self.shared.lock();
            queue.tasks.push_back(Box::new(task));
        }
        self.shared.ready.notify_one();
    }

    /// Tasks queued and not yet claimed by a worker (claimed-but-running
    /// tasks are not counted — this is the backlog, not the in-flight
    /// set).
    pub fn backlog(&self) -> usize {
        self.shared.lock().tasks.len()
    }
}

impl<S> Drop for TaskPool<S> {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_input_order_for_any_job_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [0, 1, 2, 3, 8, 64, 1000] {
            assert_eq!(ordered_map(jobs, &items, |_i, x| x * 3 + 1), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(ordered_map(8, &none, |_, x| *x).is_empty());
        assert_eq!(ordered_map(8, &[7u8], |_, x| *x), vec![7]);
    }

    #[test]
    fn init_runs_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let results = ordered_map_with(
            4,
            &items,
            |_w| inits.fetch_add(1, Ordering::SeqCst),
            |_state, _i, x| *x,
        );
        assert_eq!(results, items);
        assert_eq!(inits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn jobs_one_runs_inline_in_input_order() {
        // `jobs = 1` is the inline serial path: one state, threaded
        // through the items in input order.
        let items: Vec<u32> = (0..50).collect();
        let results = ordered_map_with(
            1,
            &items,
            |_w| Vec::new(),
            |seen: &mut Vec<u32>, _i, x| {
                seen.push(*x);
                seen.clone()
            },
        );
        assert_eq!(results.last(), Some(&items), "one state visits every item in order");
    }

    #[test]
    fn empty_input_with_state_runs_inline() {
        let inits = AtomicUsize::new(0);
        let none: Vec<u8> = Vec::new();
        let results =
            ordered_map_with(8, &none, |_w| inits.fetch_add(1, Ordering::SeqCst), |_s, _i, x| *x);
        assert!(results.is_empty());
        // Clamping to the item count means no worker threads and one
        // inline state.
        assert_eq!(inits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // A panicking work item must abort the whole call (std::thread
        // scope re-raises on join) — not hang the queue and not return
        // partial results. Probe several panic positions and job counts.
        for jobs in [1usize, 2, 4] {
            for panic_at in [0usize, 7, 63] {
                let items: Vec<usize> = (0..64).collect();
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    ordered_map(jobs, &items, |_i, x| {
                        assert!(*x != panic_at, "boom at {panic_at}");
                        *x
                    })
                }));
                assert!(caught.is_err(), "panic at item {panic_at} with jobs={jobs} was swallowed");
            }
        }
    }

    #[test]
    fn task_pool_runs_every_task_and_drains_on_drop() {
        use std::sync::atomic::AtomicU64;
        let sum = Arc::new(AtomicU64::new(0));
        let pool = TaskPool::new(3, |_w| ());
        for i in 1..=100u64 {
            let sum = Arc::clone(&sum);
            pool.submit(move |()| {
                sum.fetch_add(i, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(sum.load(Ordering::SeqCst), 5050);
    }

    #[test]
    fn task_pool_survives_a_panicking_task_and_rebuilds_state() {
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc;
        let inits = Arc::new(AtomicU64::new(0));
        let pool = {
            let inits = Arc::clone(&inits);
            TaskPool::new(1, move |_w| {
                inits.fetch_add(1, Ordering::SeqCst);
                0u64
            })
        };
        let (tx, rx) = mpsc::channel();
        pool.submit(|state| *state += 1);
        pool.submit(|_state| panic!("task panic must not kill the worker"));
        let probe = tx.clone();
        pool.submit(move |state| {
            // The panicking task forced a state rebuild, so the first
            // task's increment is gone.
            probe.send(*state).unwrap();
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(0));
        assert_eq!(inits.load(Ordering::SeqCst), 2, "state rebuilt once after the panic");
        drop(pool);
    }

    #[test]
    fn dynamic_queue_balances_uneven_items() {
        // A single huge item early must not serialize the rest behind it:
        // with 2 workers the remaining 63 cheap items finish on the other.
        let mut items = vec![1u64; 64];
        items[0] = 5_000_000;
        let results = ordered_map(2, &items, |_i, n| {
            // Busy-ish work proportional to the item.
            (0..*n).fold(0u64, |a, b| a.wrapping_add(b))
        });
        assert_eq!(results.len(), 64);
        assert!(results[1..].iter().all(|&r| r == 0));
    }
}
