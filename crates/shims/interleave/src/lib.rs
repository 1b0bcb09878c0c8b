//! Minimal loom-style deterministic-interleaving model checker.
//!
//! The workspace builds without network access, so instead of `loom` this
//! shim implements the small slice of its idea the repo's model-check tests
//! need: run a closure many times, once per distinct thread interleaving,
//! with every schedule decision driven by a depth-first search over the
//! yield points the tracked primitives introduce.
//!
//! # Execution model
//!
//! [`model`] runs the closure under a cooperative scheduler: every logical
//! thread is a real OS thread, but exactly **one** is runnable at a time.
//! Each operation on a tracked primitive ([`sync::Mutex`],
//! [`sync::RwLock`], the [`sync::atomic`] types, [`thread::spawn`],
//! [`thread::JoinHandle::join`], [`thread::yield_now`], [`nondet`]) is a *yield
//! point*: the running thread picks the next thread to run. When more than
//! one thread could go, the choice is a DFS decision; the search replays
//! the closure until every reachable sequence of choices has been explored,
//! so the enumeration is **exhaustive** (sequentially-consistent
//! interleavings of the tracked operations), not sampled.
//!
//! A panic on any logical thread is a **violation**: the search stops and
//! [`model`] re-panics with the failing schedule trace. [`model_expect_violation`]
//! inverts that, for tests that seed a bug and must see it caught.
//! [`nondet`] folds environment choices (e.g. fault injection) into the
//! same search, so "every schedule × every fault" is covered.
//!
//! Requirements on the model closure: deterministic apart from the
//! scheduler's choices (no wall clock, no OS randomness), and small —
//! state spaces grow factorially with threads × yield points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Hard cap on schedules explored before the search declares the model too
/// large (a model-authoring error, not a property violation).
const MAX_SCHEDULES: usize = 1_000_000;

/// What a parked logical thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockedOn {
    /// A tracked mutex/rwlock in a state that excludes the thread.
    Resource(usize),
    /// Another logical thread's completion.
    Join(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Schedulable (running or waiting to be picked).
    Ready,
    /// Parked until the thing it waits on changes state.
    Blocked(BlockedOn),
    /// Body returned (or unwound).
    Finished,
}

/// Tracked lock state.
#[derive(Debug, Clone, Copy)]
enum ResState {
    Mutex {
        held_by: Option<usize>,
    },
    RwLock {
        writer: Option<usize>,
        readers: usize,
    },
}

/// One DFS decision: which of `num` deterministic options was taken.
#[derive(Debug, Clone, Copy)]
struct Decision {
    chosen: usize,
    num: usize,
}

#[derive(Debug, Default)]
struct KernelState {
    /// The single thread currently allowed to run.
    active: usize,
    threads: Vec<Status>,
    resources: Vec<ResState>,
    /// The DFS decision prefix being replayed, then extended.
    decisions: Vec<Decision>,
    cursor: usize,
    /// Human-readable schedule trace for violation reports.
    trace: Vec<String>,
    /// Set on the first violation; every kernel call then unwinds.
    abort: bool,
    failure: Option<String>,
    live: usize,
}

/// Shared scheduler: one per schedule execution.
struct Kernel {
    state: StdMutex<KernelState>,
    cv: Condvar,
    os_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Panic payload used to unwind logical threads after a violation was
/// recorded elsewhere; never reported as a failure itself.
struct AbortToken;

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Kernel>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn ctx() -> (Arc<Kernel>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("interleave primitive used outside interleave::model")
    })
}

impl Kernel {
    fn new(decisions: Vec<Decision>) -> Kernel {
        Kernel {
            state: StdMutex::new(KernelState {
                active: 0,
                threads: vec![Status::Ready],
                resources: Vec::new(),
                decisions,
                cursor: 0,
                trace: Vec::new(),
                abort: false,
                failure: None,
                live: 1,
            }),
            cv: Condvar::new(),
            os_handles: StdMutex::new(Vec::new()),
        }
    }

    fn lock_state(&self) -> StdMutexGuard<'_, KernelState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Picks the next ready thread (DFS decision when several are ready) and
    /// makes it active. Caller holds the state lock.
    fn pick_next(&self, st: &mut KernelState, label: &str) {
        let ready: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Ready)
            .map(|(tid, _)| tid)
            .collect();
        if ready.is_empty() {
            if st.live > 0 {
                st.failure = Some(format!(
                    "deadlock: {} unfinished thread(s), none runnable (at {label})",
                    st.live
                ));
                st.abort = true;
            }
            self.cv.notify_all();
            return;
        }
        let chosen = self.decide(st, ready.len(), label);
        st.active = ready[chosen];
        st.trace.push(format!("run t{}", ready[chosen]));
        self.cv.notify_all();
    }

    /// Consumes (or extends) the DFS decision list. Caller holds the lock.
    fn decide(&self, st: &mut KernelState, num: usize, label: &str) -> usize {
        if num <= 1 {
            return 0;
        }
        let chosen = if st.cursor < st.decisions.len() {
            let d = st.decisions[st.cursor];
            assert_eq!(
                d.num, num,
                "non-deterministic model: decision {} had {} options on replay, {} before \
                 (at {label}); model closures must be deterministic apart from the scheduler",
                st.cursor, num, d.num
            );
            d.chosen
        } else {
            st.decisions.push(Decision { chosen: 0, num });
            0
        };
        st.cursor += 1;
        chosen
    }

    /// Yield point: schedule somebody (possibly the caller), then wait until
    /// the caller is active again.
    fn yield_point(&self, tid: usize, label: &str) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        self.pick_next(&mut st, label);
        self.wait_until_active(st, tid);
    }

    /// Waits until `tid` is the active thread. Consumes and re-acquires the
    /// state lock; unwinds on abort.
    fn wait_until_active(&self, mut st: StdMutexGuard<'_, KernelState>, tid: usize) {
        while st.active != tid && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
    }

    /// Parks `tid` on `on`, schedules somebody else, and returns once `tid`
    /// is woken *and* scheduled again.
    fn block(&self, tid: usize, on: BlockedOn, label: &str) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        st.threads[tid] = Status::Blocked(on);
        self.pick_next(&mut st, label);
        self.wait_until_active(st, tid);
    }

    /// Moves every thread parked on `on` back to ready. Caller holds lock.
    fn wake_waiters(st: &mut KernelState, on: BlockedOn) {
        for status in st.threads.iter_mut() {
            if *status == Status::Blocked(on) {
                *status = Status::Ready;
            }
        }
    }

    fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        st.threads.push(Status::Ready);
        st.live += 1;
        st.threads.len() - 1
    }

    fn alloc_resource(&self, res: ResState) -> usize {
        let mut st = self.lock_state();
        st.resources.push(res);
        st.resources.len() - 1
    }

    /// Records a finished logical thread, converting a non-abort panic into
    /// the schedule's failure.
    fn finish(&self, tid: usize, outcome: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut st = self.lock_state();
        if let Err(payload) = outcome {
            if payload.downcast_ref::<AbortToken>().is_none() && st.failure.is_none() {
                st.failure = Some(format!(
                    "thread t{tid} panicked: {}",
                    panic_message(payload.as_ref())
                ));
                st.abort = true;
            }
        }
        st.threads[tid] = Status::Finished;
        st.live -= 1;
        Self::wake_waiters(&mut st, BlockedOn::Join(tid));
        if st.live == 0 || st.abort {
            self.cv.notify_all();
            return;
        }
        self.pick_next(&mut st, "thread exit");
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Outcome of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// The violation message, when the exploration was stopped by one.
    pub violation: Option<String>,
}

/// Serializes explorations so schedule counts stay deterministic and the
/// temporarily-silenced panic hook cannot leak across concurrent tests.
static MODEL_LOCK: StdMutex<()> = StdMutex::new(());

fn explore(f: &(dyn Fn() + Sync)) -> Report {
    let _serial = MODEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Logical-thread panics are the search's *signal*, not noise: silence
    // the default hook while exploring so seeded-bug runs don't spam stderr.
    let saved_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut decisions: Vec<Decision> = Vec::new();
    let mut schedules = 0usize;
    let result = loop {
        schedules += 1;
        assert!(
            schedules <= MAX_SCHEDULES,
            "interleave: model exceeds {MAX_SCHEDULES} schedules; shrink the model"
        );
        let kernel = Arc::new(Kernel::new(std::mem::take(&mut decisions)));
        run_one_schedule(&kernel, f);
        let mut st = kernel.lock_state();
        decisions = std::mem::take(&mut st.decisions);
        if let Some(failure) = st.failure.take() {
            let trace = st.trace.join(" → ");
            break Report {
                schedules,
                violation: Some(format!("{failure}\nschedule: [{trace}]")),
            };
        }
        drop(st);
        // DFS backtrack: advance the deepest decision that still has an
        // unexplored branch, dropping everything after it.
        loop {
            match decisions.pop() {
                None => break,
                Some(d) if d.chosen + 1 < d.num => {
                    decisions.push(Decision {
                        chosen: d.chosen + 1,
                        num: d.num,
                    });
                    break;
                }
                Some(_) => {}
            }
        }
        if decisions.is_empty() {
            break Report {
                schedules,
                violation: None,
            };
        }
    };
    panic::set_hook(saved_hook);
    result
}

/// Runs one schedule of the model: the closure body is logical thread 0.
fn run_one_schedule(kernel: &Arc<Kernel>, f: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| {
        let root_kernel = Arc::clone(kernel);
        scope.spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&root_kernel), 0)));
            let outcome = panic::catch_unwind(AssertUnwindSafe(f));
            CTX.with(|c| *c.borrow_mut() = None);
            root_kernel.finish(0, outcome);
        });
        // Wait for every logical thread to finish, then reap the detached
        // OS threads the model spawned.
        let mut st = kernel.lock_state();
        while st.live > 0 {
            st = kernel.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        drop(st);
    });
    let handles: Vec<_> =
        std::mem::take(&mut *kernel.os_handles.lock().unwrap_or_else(|e| e.into_inner()));
    for handle in handles {
        let _ = handle.join();
    }
}

/// Exhaustively explores every interleaving of `f`'s tracked operations.
///
/// Panics (with the failing schedule) if any interleaving panics; returns
/// the number of schedules explored otherwise.
pub fn model(f: impl Fn() + Sync) -> Report {
    let report = explore(&f);
    if let Some(violation) = report.violation {
        panic!(
            "interleave: violation found on schedule {} of the exploration:\n{violation}",
            report.schedules
        );
    }
    report
}

/// Like [`model`], but *requires* the exploration to find a violation —
/// for tests that seed a bug to prove the checker catches it. Returns the
/// violation message.
pub fn model_expect_violation(f: impl Fn() + Sync) -> String {
    let report = explore(&f);
    report.violation.unwrap_or_else(|| {
        panic!(
            "interleave: expected a violation, but {} schedule(s) all passed",
            report.schedules
        )
    })
}

/// A scheduler-controlled environment choice in `0..num` (e.g. inject a
/// fault or not). The DFS explores every value in every schedule context.
pub fn nondet(num: usize) -> usize {
    assert!(num >= 1, "nondet needs at least one option");
    let (kernel, _tid) = ctx();
    let mut st = kernel.lock_state();
    if st.abort {
        drop(st);
        panic::panic_any(AbortToken);
    }
    let chosen = kernel.decide(&mut st, num, "nondet");
    st.trace.push(format!("nondet={chosen}"));
    chosen
}

/// Tracked replacements for [`std::thread`] inside a model.
pub mod thread {
    use super::*;

    /// Handle to a logical thread; [`JoinHandle::join`] is a blocking
    /// tracked operation.
    pub struct JoinHandle<T> {
        tid: usize,
        result: Arc<StdMutex<Option<T>>>,
    }

    impl<T: Send + 'static> JoinHandle<T> {
        /// Blocks (at a yield point) until the thread finishes; returns its
        /// value. A panicking thread is already a model violation, so join
        /// never reports one.
        pub fn join(self) -> T {
            let (kernel, tid) = ctx();
            kernel.yield_point(tid, "join");
            loop {
                {
                    let st = kernel.lock_state();
                    if st.threads[self.tid] == Status::Finished {
                        break;
                    }
                }
                kernel.block(tid, BlockedOn::Join(self.tid), "join");
            }
            let mut slot = self.result.lock().unwrap_or_else(|e| e.into_inner());
            slot.take().expect("joined thread produced no value")
        }
    }

    /// Spawns a logical thread participating in the schedule exploration.
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (kernel, _parent) = ctx();
        let tid = kernel.register_thread();
        let result = Arc::new(StdMutex::new(None));
        let slot = Arc::clone(&result);
        let child_kernel = Arc::clone(&kernel);
        let os = std::thread::Builder::new()
            .name(format!("interleave-t{tid}"))
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&child_kernel), tid)));
                // A fresh thread waits its first turn before running.
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let st = child_kernel.lock_state();
                    child_kernel.wait_until_active(st, tid);
                    let value = f();
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
                }));
                CTX.with(|c| *c.borrow_mut() = None);
                child_kernel.finish(tid, outcome);
            })
            .expect("spawn interleave OS thread");
        kernel
            .os_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(os);
        JoinHandle { tid, result }
    }

    /// An explicit yield point with no other effect.
    pub fn yield_now() {
        let (kernel, tid) = ctx();
        kernel.yield_point(tid, "yield_now");
    }
}

/// Tracked replacements for [`std::sync`] inside a model.
pub mod sync {
    use super::*;
    pub use std::sync::Arc;

    /// Tracked mutual-exclusion lock; every acquisition is a yield point.
    pub struct Mutex<T> {
        res: usize,
        inner: StdMutex<T>,
    }

    /// Guard for [`Mutex`]; releases the tracked lock on drop.
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        inner: Option<StdMutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates a tracked mutex (must run inside a model).
        pub fn new(value: T) -> Mutex<T> {
            let (kernel, _tid) = ctx();
            Mutex {
                res: kernel.alloc_resource(ResState::Mutex { held_by: None }),
                inner: StdMutex::new(value),
            }
        }

        /// Acquires the lock, blocking (as a scheduling event) while held.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let (kernel, tid) = ctx();
            kernel.yield_point(tid, "mutex lock");
            loop {
                {
                    let mut st = kernel.lock_state();
                    if st.abort {
                        drop(st);
                        panic::panic_any(AbortToken);
                    }
                    if let ResState::Mutex { held_by } = &mut st.resources[self.res] {
                        if held_by.is_none() {
                            *held_by = Some(tid);
                            break;
                        }
                    }
                }
                kernel.block(tid, BlockedOn::Resource(self.res), "mutex contention");
            }
            MutexGuard {
                lock: self,
                inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            }
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None;
            let (kernel, _tid) = ctx();
            let mut st = kernel.lock_state();
            if let ResState::Mutex { held_by } = &mut st.resources[self.lock.res] {
                *held_by = None;
            }
            Kernel::wake_waiters(&mut st, BlockedOn::Resource(self.lock.res));
        }
    }

    /// Tracked reader-writer lock; acquisitions are yield points.
    pub struct RwLock<T> {
        res: usize,
        inner: StdMutex<T>,
    }

    /// Shared-read guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T> {
        lock: &'a RwLock<T>,
        // The value is cloned out under exclusivity, so reads hold no inner
        // guard; `Clone` keeps the tracked read non-exclusive over storage.
        value: T,
    }

    /// Exclusive-write guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T> {
        lock: &'a RwLock<T>,
        inner: Option<StdMutexGuard<'a, T>>,
    }

    impl<T: Clone> RwLock<T> {
        /// Creates a tracked rwlock (must run inside a model).
        pub fn new(value: T) -> RwLock<T> {
            let (kernel, _tid) = ctx();
            RwLock {
                res: kernel.alloc_resource(ResState::RwLock {
                    writer: None,
                    readers: 0,
                }),
                inner: StdMutex::new(value),
            }
        }

        /// Acquires a shared read view (a clone of the protected value).
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let (kernel, tid) = ctx();
            kernel.yield_point(tid, "rwlock read");
            loop {
                {
                    let mut st = kernel.lock_state();
                    if st.abort {
                        drop(st);
                        panic::panic_any(AbortToken);
                    }
                    if let ResState::RwLock { writer, readers } = &mut st.resources[self.res] {
                        if writer.is_none() {
                            *readers += 1;
                            break;
                        }
                    }
                }
                kernel.block(tid, BlockedOn::Resource(self.res), "rwlock read contention");
            }
            let value = self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone();
            RwLockReadGuard { lock: self, value }
        }

        /// Acquires the exclusive write side.
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let (kernel, tid) = ctx();
            kernel.yield_point(tid, "rwlock write");
            loop {
                {
                    let mut st = kernel.lock_state();
                    if st.abort {
                        drop(st);
                        panic::panic_any(AbortToken);
                    }
                    if let ResState::RwLock { writer, readers } = &mut st.resources[self.res] {
                        if writer.is_none() && *readers == 0 {
                            *writer = Some(tid);
                            break;
                        }
                    }
                }
                kernel.block(
                    tid,
                    BlockedOn::Resource(self.res),
                    "rwlock write contention",
                );
            }
            RwLockWriteGuard {
                lock: self,
                inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            }
        }
    }

    impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            let (kernel, _tid) = ctx();
            let mut st = kernel.lock_state();
            if let ResState::RwLock { readers, .. } = &mut st.resources[self.lock.res] {
                *readers = readers.saturating_sub(1);
            }
            Kernel::wake_waiters(&mut st, BlockedOn::Resource(self.lock.res));
        }
    }

    impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            self.inner = None;
            let (kernel, _tid) = ctx();
            let mut st = kernel.lock_state();
            if let ResState::RwLock { writer, .. } = &mut st.resources[self.lock.res] {
                *writer = None;
            }
            Kernel::wake_waiters(&mut st, BlockedOn::Resource(self.lock.res));
        }
    }

    /// Tracked sequentially-consistent atomics: each access is a yield
    /// point. The `Ordering` argument is accepted for API compatibility and
    /// ignored — the model explores sequential consistency only.
    pub mod atomic {
        use super::super::*;
        pub use std::sync::atomic::Ordering;

        macro_rules! tracked_atomic {
            ($name:ident, $prim:ty) => {
                /// Tracked atomic cell; every access is a scheduling point.
                pub struct $name {
                    inner: StdMutex<$prim>,
                }

                impl $name {
                    /// Creates the cell (must run inside a model).
                    pub fn new(value: $prim) -> $name {
                        $name {
                            inner: StdMutex::new(value),
                        }
                    }

                    fn with<R>(&self, label: &str, f: impl FnOnce(&mut $prim) -> R) -> R {
                        let (kernel, tid) = ctx();
                        kernel.yield_point(tid, label);
                        let mut slot = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                        f(&mut slot)
                    }

                    /// Atomic read.
                    pub fn load(&self, _order: Ordering) -> $prim {
                        self.with("atomic load", |v| *v)
                    }

                    /// Atomic write.
                    pub fn store(&self, value: $prim, _order: Ordering) {
                        self.with("atomic store", |v| *v = value)
                    }

                    /// Atomic swap; returns the previous value.
                    pub fn swap(&self, value: $prim, _order: Ordering) -> $prim {
                        self.with("atomic swap", |v| std::mem::replace(v, value))
                    }

                    /// Atomic compare-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        _success: Ordering,
                        _failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        self.with("atomic cas", |v| {
                            if *v == current {
                                *v = new;
                                Ok(current)
                            } else {
                                Err(*v)
                            }
                        })
                    }
                }
            };
        }

        tracked_atomic!(AtomicU64, u64);
        tracked_atomic!(AtomicUsize, usize);
        tracked_atomic!(AtomicBool, bool);

        impl AtomicU64 {
            /// Atomic add; returns the previous value.
            pub fn fetch_add(&self, delta: u64, _order: Ordering) -> u64 {
                self.with("atomic fetch_add", |v| {
                    let old = *v;
                    *v = v.wrapping_add(delta);
                    old
                })
            }
        }

        impl AtomicUsize {
            /// Atomic add; returns the previous value.
            pub fn fetch_add(&self, delta: usize, _order: Ordering) -> usize {
                self.with("atomic fetch_add", |v| {
                    let old = *v;
                    *v = v.wrapping_add(delta);
                    old
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::sync::{Arc, Mutex};
    use super::*;

    #[test]
    fn unsynchronized_increment_loses_an_update_and_the_checker_finds_it() {
        let violation = model_expect_violation(|| {
            let counter = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        // Racy read-modify-write: load then store.
                        let seen = counter.load(Ordering::SeqCst);
                        counter.store(seen + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
        });
        assert!(violation.contains("lost update"), "got: {violation}");
    }

    #[test]
    fn mutex_protected_increment_passes_exhaustively() {
        let report = model(|| {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    thread::spawn(move || {
                        let mut guard = counter.lock();
                        *guard += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*counter.lock(), 2);
        });
        assert!(report.schedules > 1, "expected multiple interleavings");
    }

    #[test]
    fn ab_ba_lock_order_deadlocks_and_the_checker_reports_it() {
        let violation = model_expect_violation(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            {
                let _gb = b.lock();
                let _ga = a.lock();
            }
            t.join();
        });
        assert!(violation.contains("deadlock"), "got: {violation}");
    }

    #[test]
    fn nondet_multiplies_the_explored_space() {
        let report = model(|| {
            let fault = nondet(2);
            assert!(fault < 2);
        });
        assert_eq!(report.schedules, 2, "one schedule per nondet branch");
    }

    #[test]
    fn fixed_two_thread_handoff_is_fully_enumerated() {
        // Two threads, one tracked op each after spawn → the interleaving
        // space is small and exactly enumerable.
        let report = model(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || x2.store(1, Ordering::SeqCst));
            let _ = x.load(Ordering::SeqCst);
            t.join();
        });
        assert!(report.schedules >= 2, "got {}", report.schedules);
    }
}
