//! Persistent work-stealing worker pool.
//!
//! The engine historically respawned scoped threads inside `fill_caches`
//! on every round; at 30 K seeds cache filling dominates the phase
//! profile, and thread spawn/join overhead rides on every round. This
//! module keeps a long-lived pool that both the per-session cache fill
//! and the sharded driver (`shard.rs`) submit to, amortizing thread
//! creation over the whole run.
//!
//! Design (std-only, `forbid(unsafe_code)`):
//!
//! - a shared **injector** deque takes externally submitted jobs;
//! - each worker owns a **LIFO slot stack** for jobs it submits itself
//!   (nested submissions run hot, in cache), while idle workers steal
//!   the *oldest* entries from other workers' slots (FIFO steal);
//! - `run_batch` is a **helping** barrier: when called from a pool
//!   worker it executes queued jobs (its own batch's or any other's)
//!   while waiting, so nested batches — a shard task that itself fans
//!   out a cache fill — cannot deadlock even on a single-worker pool.
//!   External threads block on a condvar instead of helping, so a
//!   `--shards 1` run really is serial;
//! - results and panics go back to the submitter: `run_batch` returns
//!   each job's value, or the payload of its panic, in submission
//!   order. The pool catches every panic, so a panicking job never
//!   kills a worker; the submitter decides whether to recover (the
//!   cache fill retries the chunk serially) or to re-raise it with
//!   [`std::panic::resume_unwind`] (the fleet driver);
//! - `submit` queues one job and returns a [`Pending`] handle whose
//!   `join` hands back the same result. A join that finds the job still
//!   queued runs it on the joining thread, so the submitter never waits
//!   for a worker to come free: a session refilling one cluster beside
//!   its select (DESIGN §5.6) cannot queue behind another shard's
//!   quantum, and no session needs a thread of its own.
//!
//! All queues hang off one mutex; job granularity here (a chunk of
//! cluster growth evaluations, or a whole shard quantum) is far above
//! lock cost.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work, wrapped to report its result. Returns `false`
/// when there was nothing left to run: a submitted job its joiner
/// already ran.
type Job = Box<dyn FnOnce() -> bool + Send + 'static>;

/// Pending-jobs state shared by workers and submitters.
struct Queues {
    /// Externally submitted jobs, oldest first.
    injector: VecDeque<Job>,
    /// Per-worker LIFO slots for jobs submitted *by* that worker.
    locals: Vec<Vec<Job>>,
    shutdown: bool,
}

struct Shared {
    queues: Mutex<Queues>,
    /// Signalled when a job is enqueued or the pool shuts down.
    work: Condvar,
    /// Jobs executed by the pool's threads over its lifetime
    /// (spawn-amortization metric: a scoped-thread implementation would
    /// have spawned one thread per job chunk; the pool spawns `workers`
    /// threads total). A submitted job its joiner ran is not counted.
    jobs_executed: AtomicU64,
}

std::thread_local! {
    /// Index of the pool worker running on this thread, if any.
    static WORKER_INDEX: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Resolves a thread-count setting ([`Config::threads`], the fleet's
/// `workers`, [`WorkerPool::new`]'s `workers`): `0` means the machine's
/// available parallelism, which costs a system call, so callers resolve
/// once and keep the result.
///
/// [`Config::threads`]: crate::Config::threads
pub(crate) fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// A fixed-size persistent worker pool with work stealing.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("jobs_executed", &self.jobs_executed())
            .finish()
    }
}

/// One `run_batch` call: each job's result lands in its submission
/// slot, and the submitter waits for `remaining` to reach zero.
struct Batch<T> {
    state: Mutex<BatchState<T>>,
    done: Condvar,
}

struct BatchState<T> {
    remaining: usize,
    results: Vec<Option<std::thread::Result<T>>>,
}

/// One [`WorkerPool::submit`]ted job, shared by its queue entry and its
/// [`Pending`] handle.
struct Task<T> {
    state: Mutex<TaskState<T>>,
    done: Condvar,
}

enum TaskState<T> {
    /// Not started: whichever of a worker and the joiner takes it first
    /// runs it.
    Queued(Box<dyn FnOnce() -> T + Send>),
    /// A worker is running it.
    Running,
    /// A worker ran it; the joiner takes the result.
    Done(std::thread::Result<T>),
    /// The joiner took it (to run, or its result).
    Taken,
}

impl<T> Task<T> {
    /// The queue entry's side: runs the job unless the joiner took it
    /// first. Returns whether it ran.
    fn run_queued(&self) -> bool {
        let job = {
            let mut state = self.state.lock().expect("pool task lock poisoned");
            match std::mem::replace(&mut *state, TaskState::Running) {
                TaskState::Queued(job) => job,
                other => {
                    *state = other;
                    return false;
                }
            }
        };
        let result = catch_unwind(AssertUnwindSafe(job));
        *self.state.lock().expect("pool task lock poisoned") = TaskState::Done(result);
        self.done.notify_all();
        true
    }
}

/// The handle of a job queued with [`WorkerPool::submit`].
#[must_use = "a submitted job's result, and its panic, are only visible through join"]
pub struct Pending<T> {
    task: Arc<Task<T>>,
}

impl<T> std::fmt::Debug for Pending<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending").finish_non_exhaustive()
    }
}

impl<T> Pending<T> {
    /// The job's result: `Ok` with its value, or `Err` with the payload
    /// of its panic. A job no worker has started yet runs here, on the
    /// calling thread; one a worker is running is waited for.
    pub fn join(self) -> std::thread::Result<T> {
        let mut state = self.task.state.lock().expect("pool task lock poisoned");
        loop {
            match std::mem::replace(&mut *state, TaskState::Taken) {
                TaskState::Queued(job) => {
                    drop(state);
                    return catch_unwind(AssertUnwindSafe(job));
                }
                TaskState::Running => {
                    *state = TaskState::Running;
                    state = self.task.done.wait(state).expect("pool task lock poisoned");
                }
                TaskState::Done(result) => return result,
                TaskState::Taken => unreachable!("a pending job is joined once"),
            }
        }
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads; `0` means the machine's
    /// available parallelism, as for [`Config::threads`].
    ///
    /// [`Config::threads`]: crate::Config::threads
    pub fn new(workers: usize) -> WorkerPool {
        let workers = resolve_threads(workers);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                injector: VecDeque::new(),
                locals: (0..workers).map(|_| Vec::new()).collect(),
                shutdown: false,
            }),
            work: Condvar::new(),
            jobs_executed: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sixgen-pool-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers: handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Total jobs executed over the pool lifetime.
    pub fn jobs_executed(&self) -> u64 {
        self.shared.jobs_executed.load(Ordering::Relaxed)
    }

    /// Runs `jobs` to completion and returns each job's result in
    /// submission order: `Ok` with its value, or `Err` with the payload
    /// of its panic. Jobs may themselves call `run_batch` on the same
    /// pool: a submitter that is a pool worker helps drain queues while
    /// it waits, so nested batches make progress even with one worker.
    /// A panicking job is caught at the pool boundary, so the batch
    /// still completes and the pool stays usable.
    #[must_use = "a job's panic is only visible in its result"]
    pub fn run_batch<T, F>(&self, jobs: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                remaining: jobs.len(),
                results: jobs.iter().map(|_| None).collect(),
            }),
            done: Condvar::new(),
        });
        let caller = WORKER_INDEX.with(|w| w.get());
        {
            let mut queues = self.shared.queues.lock().unwrap();
            for (slot, job) in jobs.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                let wrapped: Job = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    let mut state = batch.state.lock().unwrap();
                    state.results[slot] = Some(result);
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        batch.done.notify_all();
                    }
                    true
                });
                match caller {
                    // Nested submission: push onto the submitting
                    // worker's LIFO slot so it runs the freshest work
                    // first; idle workers steal the oldest entries.
                    Some(index) => queues.locals[index].push(wrapped),
                    None => queues.injector.push_back(wrapped),
                }
            }
            self.shared.work.notify_all();
        }
        match caller {
            Some(index) => self.help_until_done(&batch, index),
            None => {
                let mut state = batch.state.lock().unwrap();
                while state.remaining > 0 {
                    state = batch.done.wait(state).unwrap();
                }
            }
        }
        let results = std::mem::take(&mut batch.state.lock().unwrap().results);
        results
            .into_iter()
            .map(|result| result.expect("a finished batch holds every result"))
            .collect()
    }

    /// Queues one job and returns its handle at once. The job runs on a
    /// pool worker, or on the thread that [joins](Pending::join) it if
    /// no worker has started it by then. Like `run_batch`, a pool
    /// worker's submission goes to its own LIFO slot, where idle workers
    /// steal it.
    pub fn submit<T, F>(&self, job: F) -> Pending<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let task = Arc::new(Task {
            state: Mutex::new(TaskState::Queued(Box::new(job))),
            done: Condvar::new(),
        });
        let queued = Arc::clone(&task);
        let wrapped: Job = Box::new(move || queued.run_queued());
        {
            let mut queues = self.shared.queues.lock().expect("pool queue lock poisoned");
            match WORKER_INDEX.with(|w| w.get()) {
                Some(index) => queues.locals[index].push(wrapped),
                None => queues.injector.push_back(wrapped),
            }
        }
        self.shared.work.notify_one();
        Pending { task }
    }

    /// Worker-side wait: drain queued jobs until the batch completes.
    fn help_until_done<T>(&self, batch: &Batch<T>, index: usize) {
        loop {
            if batch.state.lock().unwrap().remaining == 0 {
                return;
            }
            let job = {
                let mut queues = self.shared.queues.lock().unwrap();
                pop_job(&mut queues, index)
            };
            match job {
                Some(job) => {
                    if job() {
                        self.shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => {
                    // Nothing stealable; the batch's jobs are running on
                    // other workers. Wait for a completion signal.
                    let state = batch.state.lock().unwrap();
                    if state.remaining > 0 {
                        let (guard, _timeout) = batch
                            .done
                            .wait_timeout(state, std::time::Duration::from_millis(1))
                            .unwrap();
                        drop(guard);
                    }
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queues = self.shared.queues.lock().unwrap();
            queues.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pops the next job for worker `index`: own LIFO slot first, then the
/// injector (oldest first), then steal the oldest entry from another
/// worker's slot.
fn pop_job(queues: &mut Queues, index: usize) -> Option<Job> {
    if let Some(job) = queues.locals[index].pop() {
        return Some(job);
    }
    if let Some(job) = queues.injector.pop_front() {
        return Some(job);
    }
    let workers = queues.locals.len();
    for offset in 1..workers {
        let victim = (index + offset) % workers;
        if !queues.locals[victim].is_empty() {
            return Some(queues.locals[victim].remove(0));
        }
    }
    None
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    loop {
        let job = {
            let mut queues = shared.queues.lock().unwrap();
            loop {
                if let Some(job) = pop_job(&mut queues, index) {
                    break Some(job);
                }
                if queues.shutdown {
                    break None;
                }
                queues = shared.work.wait(queues).unwrap();
            }
        };
        match job {
            Some(job) => {
                if job() {
                    shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn zero_workers_means_available_parallelism() {
        assert_eq!(WorkerPool::new(0).workers(), resolve_threads(0));
    }

    #[test]
    fn batch_runs_all_jobs() {
        let pool = WorkerPool::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                let hits = Arc::clone(&hits);
                move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                    i * 10
                }
            })
            .collect();
        let values: Vec<usize> = pool
            .run_batch(jobs)
            .into_iter()
            .map(|result| result.unwrap())
            .collect();
        let expected: Vec<usize> = (0..64).map(|i| i * 10).collect();
        assert_eq!(values, expected, "results come back in submission order");
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(pool.jobs_executed(), 64);
    }

    #[test]
    fn nested_batches_do_not_deadlock_on_one_worker() {
        let pool = Arc::new(WorkerPool::new(1));
        let hits = Arc::new(AtomicUsize::new(0));
        let outer: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                move || {
                    let inner: Vec<_> = (0..8)
                        .map(|_| {
                            let hits = Arc::clone(&hits);
                            move || hits.fetch_add(1, Ordering::SeqCst)
                        })
                        .collect();
                    pool.run_batch(inner).len()
                }
            })
            .collect();
        let inner_lens: Vec<usize> = pool
            .run_batch(outer)
            .into_iter()
            .map(|result| result.unwrap())
            .collect();
        assert_eq!(inner_lens, [8; 4]);
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let results = pool.run_batch(jobs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().ok(), Some(&1));
        let payload = results[1].as_ref().expect_err("the panicking job's slot");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(results[2].as_ref().ok(), Some(&3));
        let after = pool.run_batch(vec![|| 7]);
        assert_eq!(
            after.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            [7]
        );
    }

    #[test]
    fn a_submitted_job_hands_back_its_value_or_its_panic() {
        let pool = WorkerPool::new(2);
        let pending: Vec<_> = (0..16u64).map(|i| pool.submit(move || i * i)).collect();
        let values: Vec<u64> = pending.into_iter().map(|p| p.join().unwrap()).collect();
        assert_eq!(values, (0..16u64).map(|i| i * i).collect::<Vec<_>>());
        let payload = pool
            .submit(|| -> u32 { panic!("boom") })
            .join()
            .expect_err("the job panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(
            pool.submit(|| 7).join().unwrap(),
            7,
            "the pool stays usable"
        );
    }

    /// A join that finds its job queued runs it on the joining thread:
    /// with the only worker blocked, the join still returns, and the
    /// worker later skips the entry without counting it as executed.
    #[test]
    fn join_runs_a_job_no_worker_has_started() {
        let pool = WorkerPool::new(1);
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let (started, on_worker) = std::sync::mpsc::channel::<()>();
        let blocker = pool.submit(move || {
            started.send(()).unwrap();
            blocked.recv().unwrap();
        });
        on_worker.recv().unwrap();
        let main = std::thread::current().id();
        let ran_on = pool.submit(|| std::thread::current().id());
        assert_eq!(ran_on.join().unwrap(), main);
        release.send(()).unwrap();
        blocker.join().unwrap();
        // The worker drains the skipped entry; only the blocker counts.
        assert_eq!(pool.submit(|| 1).join().unwrap(), 1);
        while pool.jobs_executed() < 1 {
            std::thread::yield_now();
        }
        assert!(pool.jobs_executed() <= 2, "{}", pool.jobs_executed());
    }

    #[test]
    fn external_submitter_does_not_execute_jobs() {
        // An external thread blocks instead of helping, so a 1-worker
        // pool runs batch jobs strictly on the worker thread.
        let pool = WorkerPool::new(1);
        let main = std::thread::current().id();
        let ran_on_main = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                let ran_on_main = Arc::clone(&ran_on_main);
                move || {
                    if std::thread::current().id() == main {
                        ran_on_main.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
            .collect();
        assert!(pool.run_batch(jobs).iter().all(Result::is_ok));
        assert_eq!(ran_on_main.load(Ordering::SeqCst), 0);
    }
}
