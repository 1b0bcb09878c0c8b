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
//! ## Safety
//!
//! `run_ordered` accepts closures that borrow the caller's stack (`'env`
//! lifetime) and erases that lifetime to hand them to the long-lived
//! workers — the same contract as `crossbeam::thread::scope` or
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

/// Tracks completion of one `run_ordered` batch.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Arc<Self> {
        Arc::new(Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        })
    }

    fn count_down(&self) {
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = self.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
        }
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
        let count = tasks.len();
        if count == 0 {
            return Vec::new();
        }
        if count == 1 {
            let mut tasks = tasks;
            return vec![(tasks.pop().expect("one task"))()];
        }

        let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let latch = Latch::new(count);

        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for (index, task) in tasks.into_iter().enumerate() {
                let slot = &slots[index];
                let panic_slot = &panic_slot;
                let latch = Arc::clone(&latch);
                let job = Box::new(move || {
                    match catch_unwind(AssertUnwindSafe(task)) {
                        Ok(value) => {
                            *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
                        }
                        Err(payload) => {
                            let mut first = panic_slot.lock().unwrap_or_else(|e| e.into_inner());
                            if first.is_none() {
                                *first = Some(payload);
                            }
                        }
                    }
                    latch.count_down();
                });
                // SAFETY: `run_ordered` blocks (below, via `latch.wait()`)
                // until every job has run to completion, so everything the
                // job borrows — the caller's `'env` data, `slots`,
                // `panic_slot` — strictly outlives its execution. The
                // transmute only erases the lifetime; the vtable/layout of
                // the boxed closure is unchanged.
                queue.push_back(unsafe { erase_job_lifetime(job) });
            }
            self.shared.job_available.notify_all();
        }

        // Help drain the queue, then wait for stragglers. NOTE: the caller
        // may pick up jobs from a *different* concurrent batch here; that is
        // fine — they are all self-contained.
        while let Some(job) = self.shared.pop_job() {
            job();
        }
        latch.wait();

        if let Some(payload) = panic_slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every job completed")
            })
            .collect()
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
/// any borrowed data dies — see `run_ordered`.
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
