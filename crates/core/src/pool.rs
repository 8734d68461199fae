//! Persistent worker pool.
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
//! - one FIFO queue takes every job, and workers pop its oldest entry;
//! - `submit` queues one job and returns a [`Pending`] handle whose
//!   `join` hands back the job's value, or the payload of its panic. The
//!   pool catches every panic, so a panicking job never kills a worker;
//!   the submitter decides whether to recover (the cache fill retries
//!   the chunk serially) or to re-raise it with
//!   [`std::panic::resume_unwind`] (the fleet driver). A join that finds
//!   the job still queued runs it on the joining thread, so the
//!   submitter never waits for a worker to come free: a session
//!   refilling one cluster beside its select (DESIGN §5.6) cannot queue
//!   behind another shard's quantum, and no session needs a thread of
//!   its own;
//! - `run_batch` submits every job and waits for them newest first,
//!   while idle workers take the oldest. A pool worker waiting on its
//!   batch runs the batch's still-queued jobs itself, never another
//!   batch's, and sleeps only on a job another thread has started, so
//!   every chain of waits ends at a running job: nested batches (a shard
//!   task that fans out a cache fill) cannot deadlock, even on one
//!   worker. Other threads sleep instead of running jobs, so a
//!   `--shards 1` run really is serial.
//!
//! The queue hangs off one mutex; job granularity here (a chunk of
//! cluster growth evaluations, or a whole shard quantum) is far above
//! lock cost.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A queue entry: runs its task unless the task's waiter took it first,
/// counting it in the given counter if it ran.
type Job = Box<dyn FnOnce(&AtomicU64) + Send + 'static>;

struct Queue {
    /// Submitted jobs, oldest first.
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the pool shuts down.
    work: Condvar,
    /// Jobs the pool's threads took from the queue and ran, over the
    /// pool's lifetime (spawn-amortization metric: a scoped-thread
    /// implementation would have spawned one thread per job chunk; the
    /// pool spawns `workers` threads in all). A job its waiter ran is not
    /// counted.
    jobs_executed: AtomicU64,
}

std::thread_local! {
    /// Whether this thread is a pool worker.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
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

/// A fixed-size persistent worker pool.
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

/// One submitted job, shared by its queue entry and its [`Pending`]
/// handle.
struct Task<T> {
    state: Mutex<TaskState<T>>,
    done: Condvar,
}

enum TaskState<T> {
    /// Not started: whichever of a worker and the waiter takes it first
    /// runs it.
    Queued(Box<dyn FnOnce() -> T + Send>),
    /// A worker is running it.
    Running,
    /// A worker ran it; the waiter takes the result.
    Done(std::thread::Result<T>),
    /// The waiter took it (to run, or its result).
    Taken,
}

impl<T> Task<T> {
    /// The queue entry's side: unless the waiter took the job first,
    /// counts it in `executed` and runs it.
    fn run_queued(&self, executed: &AtomicU64) {
        let job = {
            let mut state = self.state.lock().expect("pool task lock poisoned");
            match std::mem::replace(&mut *state, TaskState::Running) {
                TaskState::Queued(job) => job,
                other => {
                    *state = other;
                    return;
                }
            }
        };
        executed.fetch_add(1, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(job));
        *self.state.lock().expect("pool task lock poisoned") = TaskState::Done(result);
        self.done.notify_all();
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
        self.wait(true)
    }

    /// [`join`](Pending::join), except that with `run_queued` false a job
    /// no worker has started is waited for as well.
    fn wait(self, run_queued: bool) -> std::thread::Result<T> {
        let mut state = self.task.state.lock().expect("pool task lock poisoned");
        loop {
            match std::mem::replace(&mut *state, TaskState::Taken) {
                TaskState::Queued(job) if run_queued => {
                    drop(state);
                    return catch_unwind(AssertUnwindSafe(job));
                }
                TaskState::Done(result) => return result,
                TaskState::Taken => unreachable!("a pending job is joined once"),
                not_done => {
                    *state = not_done;
                    state = self.task.done.wait(state).expect("pool task lock poisoned");
                }
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
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            jobs_executed: AtomicU64::new(0),
        });
        let handles = (0..resolve_threads(workers))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sixgen-pool-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers: handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs the pool's threads took from the queue and ran, over the
    /// pool's lifetime; a job run by the thread waiting on it does not
    /// count.
    pub fn jobs_executed(&self) -> u64 {
        self.shared.jobs_executed.load(Ordering::Relaxed)
    }

    /// Runs `jobs` to completion and returns each job's result in
    /// submission order: `Ok` with its value, or `Err` with the payload
    /// of its panic. It submits every job, then waits for them newest
    /// first. A caller that is a pool worker runs its batch's
    /// still-queued jobs itself while it waits, so jobs may call
    /// `run_batch` on the same pool, even on one worker; any other caller
    /// sleeps until workers have run them. A panicking job is caught at
    /// the pool boundary, so the batch still completes and the pool
    /// stays usable.
    #[must_use = "a job's panic is only visible in its result"]
    pub fn run_batch<T, F>(&self, jobs: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let pending: Vec<Pending<T>> = jobs.into_iter().map(|job| self.submit(job)).collect();
        let on_worker = IS_WORKER.with(Cell::get);
        let mut results: Vec<_> = pending
            .into_iter()
            .rev()
            .map(|pending| pending.wait(on_worker))
            .collect();
        results.reverse();
        results
    }

    /// Queues one job and returns its handle at once. The job runs on a
    /// pool worker, or on the thread that [joins](Pending::join) it if
    /// no worker has started it by then.
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
        self.shared
            .queue
            .lock()
            .expect("pool queue lock poisoned")
            .jobs
            .push_back(Box::new(move |executed| queued.run_queued(executed)));
        self.shared.work.notify_one();
        Pending { task }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Setting one flag leaves the queue valid even if a holder of the
        // lock panicked.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A worker runs queued jobs, oldest first, until the pool shuts down
/// and the queue is empty.
fn worker_loop(shared: &Shared) {
    IS_WORKER.with(|is_worker| is_worker.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work.wait(queue).expect("pool queue lock poisoned");
            }
        };
        job(&shared.jobs_executed);
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

    /// A worker waiting on its own batch runs only that batch's queued
    /// jobs. Here the batch's older job blocks on the second worker while
    /// the first waits for it, and a job of another batch, queued
    /// meanwhile, must not run on the waiting worker's stack.
    #[test]
    fn a_waiting_worker_runs_no_other_batch() {
        let pool = Arc::new(WorkerPool::new(2));
        // The worker inside the outer job's `run_batch`, while it is there.
        let waiting = Arc::new(Mutex::new(None));
        let (started, on_second_worker) = std::sync::mpsc::channel::<()>();
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let (ran_newest, newest_done) = std::sync::mpsc::channel::<()>();
        let outer = {
            let (pool_ref, waiting) = (Arc::clone(&pool), Arc::clone(&waiting));
            pool.submit(move || {
                let batch: Vec<Box<dyn FnOnce() + Send>> = vec![
                    Box::new(move || {
                        started.send(()).unwrap();
                        blocked.recv().unwrap();
                    }),
                    // Run by the waiting worker, newest first; it returns
                    // once the older job holds the second worker.
                    Box::new(move || {
                        on_second_worker.recv().unwrap();
                        ran_newest.send(()).unwrap();
                    }),
                ];
                *waiting.lock().unwrap() = Some(std::thread::current().id());
                let results = pool_ref.run_batch(batch);
                *waiting.lock().unwrap() = None;
                results.iter().all(Result::is_ok)
            })
        };
        newest_done.recv().unwrap();
        let (ran, other_ran) = std::sync::mpsc::channel::<()>();
        let other = {
            let waiting = Arc::clone(&waiting);
            pool.submit(move || {
                let on_waiting_stack =
                    *waiting.lock().unwrap() == Some(std::thread::current().id());
                let _ = ran.send(());
                on_waiting_stack
            })
        };
        // Time for a waiting worker that helps out to pick the job up.
        let _ = other_ran.recv_timeout(std::time::Duration::from_millis(200));
        release.send(()).unwrap();
        assert!(outer.join().unwrap());
        assert!(
            !other.join().unwrap(),
            "another batch's job ran on top of a waiting worker's stack"
        );
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
