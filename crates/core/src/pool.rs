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
//!   `--shards 1` run really is serial.
//!
//! All queues hang off one mutex; job granularity here (a chunk of
//! cluster growth evaluations, or a whole shard quantum) is far above
//! lock cost.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work submitted to the pool: a boxed one-shot closure.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

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
    /// Jobs executed over the pool lifetime (spawn-amortization metric:
    /// a scoped-thread implementation would have spawned one thread per
    /// job chunk; the pool spawns `workers` threads total).
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

/// Completion counter for one `run_batch` call.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
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

    /// Runs `jobs` to completion. Jobs may themselves call `run_batch`
    /// on the same pool: a submitter that is a pool worker helps drain
    /// queues while it waits, so nested batches make progress even with
    /// one worker. Panicking jobs are contained (the panic is swallowed
    /// at the pool boundary and the batch still completes); callers that
    /// need panic visibility must catch inside the job.
    pub fn run_batch(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let batch = Arc::new(Batch {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
        });
        let caller = WORKER_INDEX.with(|w| w.get());
        {
            let mut queues = self.shared.queues.lock().unwrap();
            for job in jobs {
                let batch = Arc::clone(&batch);
                let wrapped: Job = Box::new(move || {
                    let _ = catch_unwind(AssertUnwindSafe(job));
                    let mut remaining = batch.remaining.lock().unwrap();
                    *remaining -= 1;
                    if *remaining == 0 {
                        batch.done.notify_all();
                    }
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
                let mut remaining = batch.remaining.lock().unwrap();
                while *remaining > 0 {
                    remaining = batch.done.wait(remaining).unwrap();
                }
            }
        }
    }

    /// Worker-side wait: drain queued jobs until the batch completes.
    fn help_until_done(&self, batch: &Batch, index: usize) {
        loop {
            if *batch.remaining.lock().unwrap() == 0 {
                return;
            }
            let job = {
                let mut queues = self.shared.queues.lock().unwrap();
                pop_job(&mut queues, index)
            };
            match job {
                Some(job) => {
                    job();
                    self.shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    // Nothing stealable; the batch's jobs are running on
                    // other workers. Wait for a completion signal.
                    let remaining = batch.remaining.lock().unwrap();
                    if *remaining > 0 {
                        let (guard, _timeout) = batch
                            .done
                            .wait_timeout(remaining, std::time::Duration::from_millis(1))
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
                job();
                shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
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
        let jobs: Vec<Job> = (0..64)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        pool.run_batch(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert_eq!(pool.jobs_executed(), 64);
    }

    #[test]
    fn nested_batches_do_not_deadlock_on_one_worker() {
        let pool = Arc::new(WorkerPool::new(1));
        let hits = Arc::new(AtomicUsize::new(0));
        let outer: Vec<Job> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    let inner: Vec<Job> = (0..8)
                        .map(|_| {
                            let hits = Arc::clone(&hits);
                            Box::new(move || {
                                hits.fetch_add(1, Ordering::SeqCst);
                            }) as Job
                        })
                        .collect();
                    pool.run_batch(inner);
                }) as Job
            })
            .collect();
        pool.run_batch(outer);
        assert_eq!(hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn panicking_job_does_not_poison_the_pool() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Job> = vec![Box::new(|| panic!("boom")), Box::new(|| {})];
        pool.run_batch(jobs);
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = Arc::clone(&ok);
        pool.run_batch(vec![Box::new(move || {
            ok2.fetch_add(1, Ordering::SeqCst);
        })]);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn external_submitter_does_not_execute_jobs() {
        // An external thread blocks instead of helping, so a 1-worker
        // pool runs batch jobs strictly on the worker thread.
        let pool = WorkerPool::new(1);
        let main = std::thread::current().id();
        let ran_on_main = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..8)
            .map(|_| {
                let ran_on_main = Arc::clone(&ran_on_main);
                Box::new(move || {
                    if std::thread::current().id() == main {
                        ran_on_main.fetch_add(1, Ordering::SeqCst);
                    }
                }) as Job
            })
            .collect();
        pool.run_batch(jobs);
        assert_eq!(ran_on_main.load(Ordering::SeqCst), 0);
    }
}
