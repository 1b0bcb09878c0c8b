//! # inferray-parallel
//!
//! A small, persistent, scoped thread pool for the reasoner's parallel
//! stages (paper §4.3: "each rule is executed on a dedicated thread").
//!
//! The seed implementation spawned a fresh OS thread per rule on *every*
//! fixed-point iteration. This crate replaces that with one process-wide
//! pool ([`global`]) whose workers live for the whole run: an iteration
//! submits a batch of borrowed closures ([`ThreadPool::run_ordered`]),
//! workers drain them, and the caller gets the results back **in submission
//! order**, which keeps parallel materialization byte-for-byte deterministic.
//!
//! The calling thread participates in draining the queue while it waits, so
//! a pool of *n* workers gives *n + 1* lanes and a single-core machine
//! degrades gracefully to inline execution.
//!
//! A caller that wants each result as soon as it *can* be consumed in order
//! — the ingest merges a lexed range into the dictionary while later ranges
//! are still being lexed — uses [`ThreadPool::for_each_ordered`]: result
//! *k* is handed to a callback on the calling thread once results `0..=k`
//! are done, and the caller only helps drain the queue while it has nothing
//! to consume. `run_ordered` is that entry point collecting into a vector.
//!
//! ## Safety
//!
//! `for_each_ordered` accepts closures that borrow the caller's stack
//! (`'env` lifetime) and erases that lifetime to hand them to the
//! long-lived workers — the same contract as `crossbeam::thread::scope` or
//! `std::thread::scope`: the call does not return (even by unwinding)
//! until every submitted closure has finished, so the borrows outlive every
//! access. This is the only `unsafe` in the workspace and is confined to
//! one function.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    job_available: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop_job(&self) -> Option<Job> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }
}

/// The results of one `for_each_ordered` batch as its jobs finish.
struct Batch<R> {
    state: Mutex<BatchState<R>>,
    /// Signalled on every finished job.
    progress: Condvar,
}

struct BatchState<R> {
    /// One slot per task, filled when the task returns.
    results: Vec<Option<R>>,
    /// Jobs that have not finished (returned or panicked).
    running: usize,
    /// The first panic of a task or of the callback.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<R> Batch<R> {
    fn lock(&self) -> std::sync::MutexGuard<'_, BatchState<R>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records what job `index` ended with and wakes the caller.
    fn finish(&self, index: usize, outcome: std::thread::Result<R>) {
        let mut state = self.lock();
        match outcome {
            Ok(value) => state.results[index] = Some(value),
            Err(payload) => {
                state.panic.get_or_insert(payload);
            }
        }
        state.running -= 1;
        self.progress.notify_all();
    }
}

/// A persistent pool of worker threads executing scoped, ordered batches.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool with `threads` worker threads (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("inferray-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads (excluding the caller, which also helps).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs every task, in parallel across the pool, returning the results
    /// **in task order**. Tasks may borrow from the caller's scope; the call
    /// blocks until every task has completed, even if one of them panics
    /// (the first panic is then propagated to the caller).
    pub fn run_ordered<'env, R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send + 'env,
        R: Send + 'env,
    {
        let mut results = Vec::with_capacity(tasks.len());
        self.for_each_ordered(tasks, |value| results.push(value));
        results
    }

    /// Runs every task, in parallel across the pool, and hands each result
    /// to `consume` on the calling thread **in task order**, as soon as the
    /// tasks before it have finished too: result *k* is consumed while tasks
    /// after *k* may still run. The calling thread helps drain the queue
    /// only while it has no result to consume. Tasks may borrow from the
    /// caller's scope; the call blocks until every task has completed, even
    /// if a task or `consume` panics (the first panic is then propagated to
    /// the caller, and no result is consumed after it).
    pub fn for_each_ordered<'env, R, F>(&self, tasks: Vec<F>, mut consume: impl FnMut(R))
    where
        F: FnOnce() -> R + Send + 'env,
        R: Send + 'env,
    {
        let count = tasks.len();
        if count <= 1 {
            tasks.into_iter().for_each(|task| consume(task()));
            return;
        }

        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                results: (0..count).map(|_| None).collect(),
                running: count,
                panic: None,
            }),
            progress: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for (index, task) in tasks.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let job = Box::new(move || {
                    batch.finish(index, catch_unwind(AssertUnwindSafe(task)));
                });
                // SAFETY: `for_each_ordered` does not return (below, it
                // waits for `running == 0`) until every job has run to
                // completion, so the caller's `'env` data the task borrows
                // strictly outlives its execution, and every result is taken
                // out of the batch — and dropped — on this side of the
                // return. The transmute only erases the lifetime; the
                // vtable/layout of the boxed closure is unchanged.
                queue.push_back(unsafe { erase_job_lifetime(job) });
            }
            self.shared.job_available.notify_all();
        }

        // Consume what is ready; otherwise help drain the queue; otherwise
        // wait for a job to finish. NOTE: the caller may pick up jobs from
        // a *different* concurrent batch here; that is fine — they are all
        // self-contained.
        let mut next = 0;
        loop {
            let mut state = batch.lock();
            if state.panic.is_none() && next < count {
                if let Some(value) = state.results[next].take() {
                    drop(state);
                    next += 1;
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| consume(value))) {
                        batch.lock().panic.get_or_insert(payload);
                    }
                    continue;
                }
            }
            if state.running == 0 {
                break;
            }
            drop(state);
            if let Some(job) = self.shared.pop_job() {
                job();
                continue;
            }
            let state = batch.lock();
            let ready = |state: &BatchState<R>| {
                state.running == 0
                    || (state.panic.is_none() && next < count && state.results[next].is_some())
            };
            if !ready(&state) {
                drop(batch.progress.wait_while(state, |state| !ready(state)));
            }
        }

        let mut state = batch.lock();
        let unconsumed = std::mem::take(&mut state.results);
        let panic = state.panic.take();
        drop(state);
        drop(unconsumed);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Raise the flag under the queue lock. A worker checks the flag and
        // then waits without releasing that lock in between, so a store made
        // outside it can land between the two: the notify below then finds
        // nobody waiting and `join` never returns.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.job_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

/// Erases the borrow lifetime of a job so it can sit in the long-lived
/// queue. Sound only when the caller guarantees the job completes before
/// any borrowed data dies — see `for_each_ordered`.
unsafe fn erase_job_lifetime<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    std::mem::transmute(job)
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .job_available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// The process-wide pool: sized by `INFERRAY_THREADS` when set, otherwise by
/// the machine's available parallelism. Created on first use and kept for
/// the lifetime of the process — iterations and runs share it (the
/// "persistent pool" of the update-stage redesign).
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let threads = std::env::var("INFERRAY_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ThreadPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                    i * 2
                }
            })
            .collect();
        assert_eq!(
            pool.run_ordered(tasks),
            (0..64).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let pool = ThreadPool::new(3);
        let data: Vec<String> = (0..32).map(|i| format!("item-{i}")).collect();
        let tasks: Vec<_> = data.iter().map(|s| move || s.len()).collect();
        let lengths = pool.run_ordered(tasks);
        assert_eq!(lengths.len(), data.len());
        assert_eq!(lengths[0], "item-0".len());
        assert_eq!(lengths[31], "item-31".len());
    }

    #[test]
    fn work_actually_spreads_over_threads() {
        // With blocking tasks, > 1 distinct thread must participate
        // (the caller itself counts as one lane).
        let pool = ThreadPool::new(4);
        let barrier = std::sync::Barrier::new(3);
        let tasks: Vec<_> = (0..3)
            .map(|_| {
                let barrier = &barrier;
                move || {
                    barrier.wait();
                    std::thread::current().id()
                }
            })
            .collect();
        let ids = pool.run_ordered(tasks);
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() >= 2, "expected parallel execution");
    }

    #[test]
    fn empty_and_single_batches() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.run_ordered(Vec::<fn() -> u8>::new()), Vec::<u8>::new());
        assert_eq!(pool.run_ordered(vec![|| 9u8]), vec![9]);
    }

    #[test]
    fn panics_propagate_after_the_batch_finishes() {
        let pool = ThreadPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
                .map(|i| {
                    let completed = &completed;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                        i
                    }) as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            pool.run_ordered(tasks)
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(completed.load(Ordering::SeqCst), 7, "other tasks still ran");
    }

    #[test]
    fn for_each_ordered_consumes_in_task_order_on_the_calling_thread() {
        let pool = ThreadPool::new(3);
        let caller = std::thread::current().id();
        let tasks: Vec<_> = (0..40u64)
            .map(|i| {
                move || {
                    if i % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i
                }
            })
            .collect();
        let mut seen = Vec::new();
        pool.for_each_ordered(tasks, |i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.push(i);
        });
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_ordered_consumes_a_result_while_later_tasks_run() {
        // A later task a worker runs returns only once result 0 has been
        // consumed — which a pool that consumed after the whole batch would
        // never do. (A later task the calling thread draws cannot wait for
        // its own consumer and returns.) Every task first waits for a worker
        // to have started a later task: the caller holds one task at a
        // time, so the idle workers take some, and one always waits.
        let pool = ThreadPool::new(3);
        let caller = std::thread::current().id();
        let later_on_worker = AtomicBool::new(false);
        let consumed = AtomicBool::new(false);
        let wait_for = |flag: &AtomicBool| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while !flag.load(Ordering::SeqCst) {
                assert!(std::time::Instant::now() < deadline, "waited 10 s");
                std::thread::yield_now();
            }
        };
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                let (later_on_worker, consumed, wait_for) =
                    (&later_on_worker, &consumed, &wait_for);
                move || {
                    let waits = i > 0 && std::thread::current().id() != caller;
                    if waits {
                        later_on_worker.store(true, Ordering::SeqCst);
                    }
                    wait_for(later_on_worker);
                    if waits {
                        wait_for(consumed);
                    }
                    waits
                }
            })
            .collect();
        let mut waited = 0;
        pool.for_each_ordered(tasks, |waits| {
            consumed.store(true, Ordering::SeqCst);
            waited += usize::from(waits);
        });
        assert!(waited > 0);
    }

    #[test]
    fn a_panicking_consumer_waits_for_the_batch_and_propagates() {
        let pool = ThreadPool::new(2);
        let finished = AtomicUsize::new(0);
        let mut consumed = 0;
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<_> = (0..8usize)
                .map(|i| {
                    let finished = &finished;
                    move || {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                        finished.fetch_add(1, Ordering::SeqCst);
                        i
                    }
                })
                .collect();
            pool.for_each_ordered(tasks, |i| {
                consumed += 1;
                if i == 2 {
                    panic!("consumer");
                }
            });
        }));
        assert!(result.is_err(), "the consumer's panic must propagate");
        assert_eq!(consumed, 3, "nothing is consumed after the panic");
        assert_eq!(finished.load(Ordering::SeqCst), 8, "every task still ran");
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = ThreadPool::new(2);
        for round in 0..50 {
            let tasks: Vec<_> = (0..8).map(|i| move || i + round).collect();
            let out = pool.run_ordered(tasks);
            assert_eq!(out[7], 7 + round);
        }
    }

    #[test]
    fn global_pool_is_persistent() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
