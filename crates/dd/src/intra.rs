//! A small hand-rolled fork-join pool for intra-shot parallelism.
//!
//! The diagram traversals in [`ops`](crate::ops) and the dense statevector
//! kernels both decompose into two independent halves at every level, so
//! the only primitive needed is a scoped [`join`](IntraPool::join): run two
//! closures, possibly on different threads, and return both results. The
//! pool is deliberately tiny — a shared injector queue, `threads - 1`
//! workers (the caller is the remaining worker), and stack-allocated job
//! records — because the recursion itself provides all the load balancing:
//! each fork level doubles the number of outstanding jobs, and the
//! [`fork_budget`](IntraPool::fork_budget) cutoff stops forking once every
//! thread has work.
//!
//! ## Why not a library?
//!
//! The workspace builds offline with no registry access, so rayon is out of
//! reach; and the determinism contract (byte-identical results regardless
//! of `intra_threads`) is easier to audit against eighty lines of queue
//! than against a work-stealing scheduler. Panics in forked closures are
//! captured and re-raised on the joining thread, matching `rayon::join`.
//!
//! ## Safety protocol
//!
//! Jobs live on the forking thread's stack and are pushed into the queue by
//! raw pointer. The joiner never returns (or unwinds) while the queue still
//! holds its job: it either reclaims the job from the queue and runs it
//! inline, or — when a worker already popped it — helps run other jobs
//! until the worker flags completion. The closure run inline is wrapped in
//! `catch_unwind` for the same reason: an unwind must not escape while a
//! sibling stack job is still reachable from the queue.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Type-erased pointer to a [`StackJob`] plus its executor thunk.
struct JobRef {
    ptr: *const (),
    run: unsafe fn(*const ()),
}

// SAFETY: the pointee is a `StackJob` whose closure is `Send`; the join
// protocol guarantees the pointee outlives every access through this ref.
unsafe impl Send for JobRef {}

/// A forked closure living on the forking thread's stack.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<R>>,
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    done: AtomicBool,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    fn new(func: F) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            panic: UnsafeCell::new(None),
            done: AtomicBool::new(false),
        }
    }

    fn as_ref(&self) -> JobRef {
        JobRef {
            ptr: self as *const Self as *const (),
            run: Self::execute,
        }
    }

    /// Runs the job through its erased pointer. Called exactly once, either
    /// by a worker that popped the ref or by the joiner after reclaiming it.
    unsafe fn execute(ptr: *const ()) {
        let job = &*(ptr as *const Self);
        let func = (*job.func.get()).take().expect("job executed twice");
        match catch_unwind(AssertUnwindSafe(func)) {
            Ok(value) => *job.result.get() = Some(value),
            Err(payload) => *job.panic.get() = Some(payload),
        }
        job.done.store(true, Ordering::Release);
    }
}

/// Queue state shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<JobRef>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop(&self) -> Option<JobRef> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    /// Removes `ptr`'s job from the queue if no worker claimed it yet.
    fn reclaim(&self, ptr: *const ()) -> bool {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = queue.iter().position(|job| job.ptr == ptr) {
            queue.remove(pos);
            true
        } else {
            false
        }
    }
}

/// A scoped fork-join worker pool shared by the diagram and dense kernels
/// of one simulation context (or borrowed by several idle shot workers).
pub struct IntraPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl IntraPool {
    /// Creates a pool that runs work on `threads` threads in total: the
    /// calling thread plus `threads - 1` background workers. `threads` is
    /// clamped to at least 1; a 1-thread pool spawns nothing and
    /// [`join`](Self::join) degenerates to two sequential calls.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qsdd-intra-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn intra worker")
            })
            .collect();
        IntraPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total number of threads that execute work (callers + workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many fork levels keep all threads busy: `log2(threads) + 2`.
    /// Forking deeper than this only adds queue traffic; the recursion
    /// below the budget runs serially.
    pub fn fork_budget(&self) -> u32 {
        if self.threads <= 1 {
            0
        } else {
            (usize::BITS - 1 - self.threads.leading_zeros()) + 2
        }
    }

    /// Runs `a` and `b`, potentially in parallel, and returns both results.
    ///
    /// `b` is offered to the pool while the calling thread runs `a`; if no
    /// worker picks `b` up in time, the caller reclaims and runs it inline,
    /// so progress never depends on the pool having free threads. A panic
    /// in either closure resumes on the calling thread (`a`'s first).
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.threads <= 1 {
            return (a(), b());
        }
        let job = StackJob::new(b);
        let job_ref = job.as_ref();
        let (job_ptr, job_run) = (job_ref.ptr, job_ref.run);
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.push_back(job_ref);
        }
        self.shared.ready.notify_one();

        let result_a = catch_unwind(AssertUnwindSafe(a));

        if self.shared.reclaim(job_ptr) {
            // SAFETY: reclaim removed the sole queue ref, so we are the
            // only executor and the job is alive on our stack.
            unsafe { job_run(job_ptr) };
        } else {
            // A worker owns the job; help with other work until it lands.
            while !job.done.load(Ordering::Acquire) {
                match self.shared.pop() {
                    // SAFETY: popping transfers sole execution rights, and
                    // the job's joiner keeps it alive until `done`.
                    Some(other) => unsafe { (other.run)(other.ptr) },
                    None => std::thread::yield_now(),
                }
            }
        }

        let value_a = match result_a {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        };
        // SAFETY: the job finished (run inline above or `done` observed with
        // Acquire), so no other thread touches these cells.
        if let Some(payload) = unsafe { (*job.panic.get()).take() } {
            resume_unwind(payload);
        }
        let value_b = unsafe { (*job.result.get()).take() }.expect("forked job lost its result");
        (value_a, value_b)
    }

    /// Applies `body` to every chunk index in `0..chunks`, splitting the
    /// range over the pool via recursive joins. Chunk indices — and thus
    /// any chunk-indexed output the caller merges afterwards — are a fixed
    /// partition independent of thread count, which is what keeps
    /// floating-point reductions byte-identical across `intra_threads`.
    pub fn for_each_chunk(&self, chunks: usize, body: &(impl Fn(usize) + Sync)) {
        fn split(pool: &IntraPool, lo: usize, hi: usize, body: &(impl Fn(usize) + Sync)) {
            match hi - lo {
                0 => {}
                1 => body(lo),
                _ => {
                    let mid = lo + (hi - lo) / 2;
                    pool.join(|| split(pool, lo, mid, body), || split(pool, mid, hi, body));
                }
            }
        }
        split(self, 0, chunks, body);
    }
}

impl std::fmt::Debug for IntraPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntraPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Drop for IntraPool {
    fn drop(&mut self) {
        // Raise the flag under the queue lock: a worker checks it under the
        // same lock before it waits, so it either sees the flag or is
        // already waiting when the notification lands. Raised outside the
        // lock, the store and the notification could both fall between a
        // worker's check and its wait, and that worker (and `join` below)
        // would block forever.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        match job {
            // SAFETY: popping the ref grants sole execution rights; the
            // joiner keeps the stack job alive until `done` is set.
            Some(job) => unsafe { (job.run)(job.ptr) },
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn join_returns_both_results_in_order() {
        let pool = IntraPool::new(4);
        let (a, b) = pool.join(|| 2 + 2, || "forked".len());
        assert_eq!((a, b), (4, 6));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = IntraPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.fork_budget(), 0);
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn nested_joins_sum_a_tree() {
        fn tree_sum(pool: &IntraPool, lo: u64, hi: u64, depth: u32) -> u64 {
            if depth == 0 || hi - lo < 2 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = pool.join(
                    || tree_sum(pool, lo, mid, depth - 1),
                    || tree_sum(pool, mid, hi, depth - 1),
                );
                a + b
            }
        }
        let pool = IntraPool::new(8);
        let n = 100_000;
        assert_eq!(tree_sum(&pool, 0, n, pool.fork_budget()), n * (n - 1) / 2);
    }

    #[test]
    fn for_each_chunk_visits_every_index_once() {
        let pool = IntraPool::new(4);
        let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
        pool.for_each_chunk(37, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn panics_propagate_to_the_joiner() {
        let pool = IntraPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> u32 { panic!("forked failure") });
        }));
        assert!(caught.is_err());
        // The pool stays usable after a propagated panic.
        let (a, b) = pool.join(|| 10, || 20);
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn dropping_fresh_pools_never_hangs() {
        // Dropping a pool right after spawning it races the shutdown flag
        // against workers that are just about to wait; a lost wakeup leaves
        // the drop joining a sleeping worker forever. Run the churn on a
        // helper thread so a hang fails the test instead of stalling it.
        let (done, finished) = std::sync::mpsc::channel();
        let churn = std::thread::spawn(move || {
            for _ in 0..2000 {
                drop(IntraPool::new(3));
            }
            done.send(()).expect("the test thread waits for the churn");
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("dropping an idle pool hung");
        churn.join().expect("pool churn panicked");
    }

    #[test]
    fn fork_budget_scales_with_threads() {
        assert_eq!(IntraPool::new(1).fork_budget(), 0);
        assert_eq!(IntraPool::new(2).fork_budget(), 3);
        assert_eq!(IntraPool::new(8).fork_budget(), 5);
    }
}
