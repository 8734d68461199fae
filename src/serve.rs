//! The `sixgen serve` job layer: target generation as a long-running,
//! multi-tenant HTTP service.
//!
//! Built on the hand-rolled HTTP transport in `sixgen_obs::serve`
//! (offline-build policy: std TCP only), this module turns the
//! engine-as-a-session substrate into a read-write product surface:
//!
//! * `POST /jobs?budget=N&mode=loose&rng_seed=N[&shards=N][&time_limit=S]`
//!   — upload a seed hitlist (request body, one address per line, `#`
//!   comments allowed) and start a generation job. Returns `201` with
//!   the job id.
//! * `GET /jobs` — summary list of every job.
//! * `GET /jobs/<id>/status` — per-job JSON status: job state machine
//!   fields plus the full observer status document (round/shard
//!   progress, throughput, ETA, checkpoint age) mounted from the job's
//!   own [`ObserverSources`].
//! * `GET /jobs/<id>/metrics` — the job's Prometheus exposition.
//! * `GET /jobs/<id>/targets[?from=N]` — stream ranked targets
//!   incrementally via chunked transfer as growth rounds commit; the
//!   stream ends (terminal chunk) when the job finishes. `from=N` skips
//!   the first N targets — how a client resumes a stream cut by a
//!   server restart without duplicates.
//! * `POST /jobs/<id>/cancel` — cooperative cancellation via the job's
//!   [`CancelToken`]; the job finishes with termination `cancelled` and
//!   its stream closes cleanly.
//! * `GET /healthz`, `/metrics`, `/status` — global observer views.
//!
//! # Streaming semantics
//!
//! Each job owns a [`TargetFeed`]: an append-only, condvar-signalled
//! list of generated addresses. The engine's round boundary is the
//! flush signal — the same boundary where `Session::step()` publishes
//! its [`EventBus`] round events — so a committed growth's addresses
//! become visible to `GET /targets` readers at the next boundary, and
//! the byte stream (one address per line, generation order) is exactly
//! what `sixgen generate` writes for the same seeds and config. For
//! sharded jobs the feed carries the fleet's *settled prefix*
//! ([`Fleet::targets_so_far`]), published at every epoch barrier:
//! completed shards' full target lists (in prefix order) followed by
//! the first still-running shard's committed prefix — every byte
//! streamed is final, never reordered by later epochs.
//!
//! # Durability contract
//!
//! With a checkpoint directory, each job persists its seed upload and
//! spec (`job-<id>.meta` / `job-<id>.seeds`) before it starts, engine
//! checkpoints at round/epoch boundaries (`job-<id>.ckpt`, written
//! *before* the round's targets are published to the stream), and its
//! final target list on completion (`job-<id>.targets`). A restarted
//! [`JobManager`] rescans the directory: finished jobs serve their
//! persisted targets; unfinished jobs resume from their checkpoint (or
//! restart from seeds when none was written yet or it cannot be read,
//! which `serve/checkpoints_unreadable` counts) and — generation
//! being deterministic — regenerate the identical stream, so a client
//! reconnecting with `from=N` loses nothing and sees no duplicates.
//!
//! # Budget ceiling
//!
//! A job holds about 64 bytes per target for as long as it lives: 16 in
//! the engine's generation order, about 32 in the budget ledger's hash
//! set (a 16-byte entry plus a control byte per bucket, with 8/7 to 16/7
//! buckets per entry), and 16 in its [`TargetFeed`] copy. A final sample
//! drawn in one piece briefly holds the sampler's own set and list on top
//! of that. `POST /jobs` refuses a budget above [`MAX_JOB_BUDGET`] (2²⁶
//! targets, 4 GiB at 64 bytes each) with `400`, before any job exists,
//! and a restart skips a persisted job above it. Without the ceiling one upload could ask for more
//! memory than the host has: an allocation failure aborts the whole
//! process, which no `catch_unwind` contains. `sixgen generate` has no
//! such ceiling; there the budget is the caller's own.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::addr::NybbleAddr;
use crate::core::{
    CancelToken, CheckpointWriter, ClusterMode, Config, EngineCheckpoint, Fleet, Session,
    ShardSpec, ShardedCheckpoint, SixGen, Termination, WorkerPool,
};
use crate::datasets::io::{read_hitlist, read_hitlist_file, write_hitlist};
use crate::obs::{
    escape_json, observer_response, status_json, write_atomic, EventBus, HttpHandler, HttpServer,
    MetricsRegistry, ObserverSources, Request, Response,
};
use crate::routing::{partition_by_length, FALLBACK_SHARD_LEN};

/// Default handler-pool size for `sixgen serve`: each in-flight target
/// stream occupies one slot for its duration, and the rest keep
/// `/healthz` and job control responsive.
pub const DEFAULT_SERVE_THREADS: usize = 4;

/// The largest budget a job may ask for: 2²⁶ = 67 108 864 targets. At
/// the 64 bytes a job holds per target (see the module docs) that is
/// 4 GiB, room for the paper's 1 M-target budget 64 times over. Larger
/// budgets are refused at upload and skipped at restart.
pub const MAX_JOB_BUDGET: u64 = 1 << 26;

/// How long a target-stream handler sleeps on the feed condvar before
/// re-checking for server shutdown.
const STREAM_POLL: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------------
// Job spec
// ---------------------------------------------------------------------------

/// Configuration of one generation job, parsed from `POST /jobs` query
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Probe budget (`budget=`, default 1 000 000).
    pub budget: u64,
    /// Cluster mode (`mode=loose|tight`, default loose).
    pub mode: ClusterMode,
    /// RNG seed (`rng_seed=`, default the CLI's `0x6CE4`).
    pub rng_seed: u64,
    /// `Some(workers)` runs the job as a sharded fleet over routed /48
    /// prefixes with that many scheduler workers (`shards=`; `0` or
    /// `auto` uses machine parallelism). `None` runs one engine.
    pub shards: Option<usize>,
    /// Wall-clock limit in seconds (`time_limit=`, fractions allowed).
    pub time_limit: Option<Duration>,
    /// Checkpoint cadence in rounds (single engine) or epochs (fleet)
    /// (`checkpoint_every=`, default 1). Only meaningful with a
    /// checkpoint directory.
    pub checkpoint_every: u64,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            budget: 1_000_000,
            mode: ClusterMode::Loose,
            rng_seed: 0x6CE4,
            shards: None,
            time_limit: None,
            checkpoint_every: 1,
        }
    }
}

/// Stable lower-case label for a cluster mode (query-param and meta-file
/// vocabulary).
fn mode_label(mode: ClusterMode) -> &'static str {
    match mode {
        ClusterMode::Loose => "loose",
        ClusterMode::Tight => "tight",
    }
}

fn parse_mode(text: &str) -> Option<ClusterMode> {
    match text {
        "loose" => Some(ClusterMode::Loose),
        "tight" => Some(ClusterMode::Tight),
        _ => None,
    }
}

impl JobSpec {
    /// Parses a spec from request query parameters, rejecting unknown
    /// values, and budgets above [`MAX_JOB_BUDGET`], with a diagnostic.
    pub fn from_query(request: &Request) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        if let Some(value) = request.query_param("budget") {
            spec.budget = value
                .parse()
                .map_err(|_| format!("bad budget {value:?}"))?;
            if spec.budget > MAX_JOB_BUDGET {
                return Err(format!(
                    "budget {} exceeds the per-job ceiling of {MAX_JOB_BUDGET} targets",
                    spec.budget
                ));
            }
        }
        if let Some(value) = request.query_param("mode") {
            spec.mode = parse_mode(value).ok_or_else(|| format!("bad mode {value:?}"))?;
        }
        if let Some(value) = request.query_param("rng_seed") {
            spec.rng_seed = value
                .parse()
                .map_err(|_| format!("bad rng_seed {value:?}"))?;
        }
        if let Some(value) = request.query_param("shards") {
            spec.shards = Some(match value {
                "auto" => 0,
                n => n.parse().map_err(|_| format!("bad shards {value:?}"))?,
            });
        }
        if let Some(value) = request.query_param("time_limit") {
            let seconds: f64 = value
                .parse()
                .map_err(|_| format!("bad time_limit {value:?}"))?;
            if !seconds.is_finite() || seconds < 0.0 {
                return Err(format!("bad time_limit {value:?}"));
            }
            spec.time_limit = Some(Duration::from_secs_f64(seconds));
        }
        if let Some(value) = request.query_param("checkpoint_every") {
            spec.checkpoint_every = value
                .parse()
                .map_err(|_| format!("bad checkpoint_every {value:?}"))?;
        }
        Ok(spec)
    }
}

// ---------------------------------------------------------------------------
// Job state machine & target feed
// ---------------------------------------------------------------------------

/// The job state machine: `Running → Done | Failed`. Cancellation is
/// not a separate state — a cancelled job runs to its round boundary
/// and finishes as `Done` with termination `cancelled`, exactly like a
/// CLI run under a deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// The job's engine (or fleet) is running on its own thread.
    Running,
    /// The run finished; `termination` is the engine's stopping-rule
    /// label (`budget_exhausted`, `cancelled`, ...). A sharded fleet
    /// reports `cancelled`, `deadline` when a shard stopped on its time
    /// limit, or else `complete`.
    Done {
        /// Stopping-rule label.
        termination: String,
    },
    /// The run errored (resume failure, worker panic, bad persisted
    /// state).
    Failed {
        /// Human-readable diagnostic.
        error: String,
    },
}

impl JobState {
    /// Stable lower-case label (`running`/`done`/`failed`).
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// Where a [`TargetFeed`] read left the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedStatus {
    /// The job is still running; more targets may arrive.
    Open,
    /// The job finished; the feed holds the complete target list.
    Done,
    /// The job failed; the stream is truncated.
    Failed(String),
}

#[derive(Default)]
struct FeedState {
    targets: Vec<NybbleAddr>,
    closed: bool,
    error: Option<String>,
}

/// An append-only, condvar-signalled target list: the engine publishes
/// its committed prefix at every round boundary, and any number of
/// stream handlers block on [`next_batch`](TargetFeed::next_batch) for
/// bytes past their cursor. Monotone by construction — published
/// targets are never reordered or retracted.
pub struct TargetFeed {
    state: Mutex<FeedState>,
    ready: Condvar,
}

impl std::fmt::Debug for TargetFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetFeed").finish_non_exhaustive()
    }
}

impl TargetFeed {
    fn new() -> TargetFeed {
        TargetFeed {
            state: Mutex::new(FeedState::default()),
            ready: Condvar::new(),
        }
    }

    /// Publishes `all` — the run's full generation-order list so far —
    /// appending whatever extends the published prefix. Idempotent for
    /// repeated or stale snapshots (a shorter list is a no-op).
    fn publish_prefix(&self, all: &[NybbleAddr]) {
        let mut state = self.state.lock().expect("feed poisoned");
        let have = state.targets.len();
        if all.len() > have {
            debug_assert_eq!(
                state.targets[..],
                all[..have],
                "target feed prefix diverged"
            );
            state.targets.extend_from_slice(&all[have..]);
            self.ready.notify_all();
        }
    }

    fn complete(&self) {
        let mut state = self.state.lock().expect("feed poisoned");
        state.closed = true;
        self.ready.notify_all();
    }

    fn fail(&self, error: String) {
        let mut state = self.state.lock().expect("feed poisoned");
        state.error = Some(error);
        state.closed = true;
        self.ready.notify_all();
    }

    /// Number of targets published so far.
    pub fn ready_len(&self) -> usize {
        self.state.lock().expect("feed poisoned").targets.len()
    }

    /// Returns a copy of every target past `cursor`, waiting up to
    /// `timeout` for news when the stream is still open and nothing new
    /// is available. The copy lets callers write to sockets without
    /// holding the feed lock.
    pub fn next_batch(&self, cursor: usize, timeout: Duration) -> (Vec<NybbleAddr>, FeedStatus) {
        let mut state = self.state.lock().expect("feed poisoned");
        if state.targets.len() <= cursor && !state.closed {
            let (guard, _) = self
                .ready
                .wait_timeout(state, timeout)
                .expect("feed poisoned");
            state = guard;
        }
        let batch = state.targets.get(cursor..).unwrap_or(&[]).to_vec();
        let status = match (&state.error, state.closed) {
            (Some(error), _) => FeedStatus::Failed(error.clone()),
            (None, true) => FeedStatus::Done,
            (None, false) => FeedStatus::Open,
        };
        (batch, status)
    }
}

// ---------------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------------

/// One generation job: spec, state, cancellation token, per-job
/// observability sources, and the target feed its streams read from.
#[derive(Debug)]
pub struct Job {
    /// Job id, monotone across the manager's lifetime and recovered
    /// across restarts.
    pub id: u64,
    spec: JobSpec,
    seed_count: usize,
    created: Instant,
    cancel: CancelToken,
    bus: Arc<EventBus>,
    metrics: Arc<MetricsRegistry>,
    checkpoint: Option<PathBuf>,
    feed: TargetFeed,
    state: Mutex<JobState>,
}

impl Job {
    /// The job's spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Snapshot of the job state.
    pub fn state(&self) -> JobState {
        self.state.lock().expect("job state poisoned").clone()
    }

    /// The job's target feed.
    pub fn feed(&self) -> &TargetFeed {
        &self.feed
    }

    /// Requests cooperative cancellation; the run stops at its next
    /// round boundary with termination `cancelled`.
    pub fn request_cancel(&self) {
        self.cancel.cancel();
    }

    /// The job's observability sources — the same views `/metrics` and
    /// `/status` serve globally, mounted per job.
    pub fn sources(&self) -> ObserverSources {
        ObserverSources {
            metrics: Some(Arc::clone(&self.metrics)),
            events: Some(Arc::clone(&self.bus)),
            trace: None,
            checkpoint: self.checkpoint.clone(),
        }
    }

    fn set_state(&self, next: JobState) {
        *self.state.lock().expect("job state poisoned") = next;
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

fn meta_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.meta"))
}

fn seeds_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.seeds"))
}

fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ckpt"))
}

fn targets_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.targets"))
}

/// Renders the job's meta file: a flat `key=value` document (no JSON
/// parser in the workspace, and none needed for eleven fixed keys).
fn meta_text(job: &Job) -> String {
    let state = job.state();
    let (termination, error) = match &state {
        JobState::Running => (String::from("-"), String::from("-")),
        JobState::Done { termination } => (termination.clone(), String::from("-")),
        JobState::Failed { error } => {
            (String::from("-"), error.replace(['\n', '\r'], " "))
        }
    };
    format!(
        "sixgen-job v1\nid={}\nbudget={}\nmode={}\nrng_seed={}\nshards={}\n\
         time_limit_ms={}\ncheckpoint_every={}\nseed_count={}\nstate={}\n\
         termination={}\nerror={}\n",
        job.id,
        job.spec.budget,
        mode_label(job.spec.mode),
        job.spec.rng_seed,
        job.spec
            .shards
            .map_or(String::from("-"), |n| n.to_string()),
        job.spec
            .time_limit
            .map_or(String::from("-"), |d| d.as_millis().to_string()),
        job.spec.checkpoint_every,
        job.seed_count,
        state.label(),
        termination,
        error,
    )
}

/// Parses a meta file back into `(spec, seed_count, state)`.
fn parse_meta(text: &str) -> Option<(JobSpec, usize, JobState)> {
    let mut lines = text.lines();
    if lines.next()? != "sixgen-job v1" {
        return None;
    }
    let fields: BTreeMap<&str, &str> = lines.filter_map(|l| l.split_once('=')).collect();
    let mut spec = JobSpec {
        budget: fields
            .get("budget")?
            .parse()
            .ok()
            .filter(|&budget| budget <= MAX_JOB_BUDGET)?,
        mode: parse_mode(fields.get("mode")?)?,
        rng_seed: fields.get("rng_seed")?.parse().ok()?,
        shards: None,
        time_limit: None,
        checkpoint_every: fields.get("checkpoint_every")?.parse().ok()?,
    };
    match *fields.get("shards")? {
        "-" => {}
        n => spec.shards = Some(n.parse().ok()?),
    }
    match *fields.get("time_limit_ms")? {
        "-" => {}
        ms => spec.time_limit = Some(Duration::from_millis(ms.parse().ok()?)),
    }
    let seed_count = fields.get("seed_count")?.parse().ok()?;
    let state = match *fields.get("state")? {
        "running" => JobState::Running,
        "done" => JobState::Done {
            termination: (*fields.get("termination")?).to_string(),
        },
        "failed" => JobState::Failed {
            error: (*fields.get("error")?).to_string(),
        },
        _ => return None,
    };
    Some((spec, seed_count, state))
}

// ---------------------------------------------------------------------------
// Job manager
// ---------------------------------------------------------------------------

/// Why [`JobManager::create`] started no job. Either way no job is
/// registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CreateError {
    /// The upload is unusable (it holds no seed address): the client's
    /// fault, answered `400`.
    Upload(String),
    /// The server could not persist the upload or start the job's
    /// runner: its own fault, answered `500`.
    Server(String),
}

/// Owns every job: creation, lookup, cancellation, the shared
/// [`WorkerPool`] all jobs' engines evaluate growths on, and — with a
/// checkpoint directory — the durability contract (see the module
/// docs).
pub struct JobManager {
    jobs: Mutex<Vec<Arc<Job>>>,
    next_id: AtomicU64,
    pool: Arc<WorkerPool>,
    dir: Option<PathBuf>,
    metrics: Arc<MetricsRegistry>,
    runners: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl JobManager {
    /// Creates a manager. With `checkpoint_dir` set, the directory is
    /// created if absent and scanned for persisted jobs: finished jobs
    /// are re-registered serving their persisted targets, and
    /// unfinished jobs are resumed (from their checkpoint when one was
    /// written, else restarted from their seed upload — deterministic
    /// generation makes both produce the identical stream).
    pub fn new(checkpoint_dir: Option<PathBuf>) -> std::io::Result<Arc<JobManager>> {
        if let Some(dir) = &checkpoint_dir {
            std::fs::create_dir_all(dir)?;
        }
        let manager = Arc::new(JobManager {
            jobs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            pool: Arc::new(WorkerPool::new(0)),
            dir: checkpoint_dir,
            metrics: MetricsRegistry::shared(),
            runners: Mutex::new(Vec::new()),
        });
        manager.recover()?;
        Ok(manager)
    }

    /// The server-wide metrics registry (job counters), served at the
    /// global `/metrics`.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Creates and starts a job. The seed upload and spec are persisted
    /// *before* the run starts, so a crash at any later point is
    /// recoverable, and the job is registered only once it is persisted
    /// and running.
    pub fn create(
        self: &Arc<Self>,
        seeds: Vec<NybbleAddr>,
        spec: JobSpec,
    ) -> Result<Arc<Job>, CreateError> {
        if seeds.is_empty() {
            return Err(CreateError::Upload("no seed addresses in upload".into()));
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let job = self.new_job(id, spec, seeds.len(), JobState::Running);
        if let Some(dir) = &self.dir {
            let mut upload = Vec::new();
            write_hitlist(&mut upload, &seeds).expect("hitlist to memory cannot fail");
            write_atomic(&seeds_path(dir, id), &upload)
                .map_err(|e| CreateError::Server(format!("cannot persist seeds: {e}")))?;
            write_atomic(&meta_path(dir, id), meta_text(&job).as_bytes())
                .map_err(|e| CreateError::Server(format!("cannot persist job meta: {e}")))?;
        }
        if let Err(e) = self.spawn_runner(Arc::clone(&job), seeds) {
            // A persisted running meta would resume the job on restart,
            // after its client was told it failed.
            if let Some(dir) = &self.dir {
                let _ = std::fs::remove_file(meta_path(dir, id));
            }
            return Err(CreateError::Server(format!("cannot start job runner: {e}")));
        }
        self.metrics.counter("serve/jobs_created").add(1);
        Ok(self.register(job))
    }

    /// Looks up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("job table poisoned")
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// All jobs, in creation order.
    pub fn list(&self) -> Vec<Arc<Job>> {
        self.jobs.lock().expect("job table poisoned").clone()
    }

    /// Cancels a job (no-op when already finished). Returns false for
    /// an unknown id.
    pub fn cancel(&self, id: u64) -> bool {
        match self.get(id) {
            Some(job) => {
                job.request_cancel();
                true
            }
            None => false,
        }
    }

    /// Joins every runner thread — blocks until all jobs reach a
    /// terminal state. Used by tests and graceful teardown; cancel
    /// running jobs first for a prompt return.
    pub fn join(&self) {
        let handles: Vec<_> = {
            let mut runners = self.runners.lock().expect("runner table poisoned");
            runners.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn new_job(&self, id: u64, spec: JobSpec, seed_count: usize, state: JobState) -> Arc<Job> {
        Arc::new(Job {
            id,
            spec,
            seed_count,
            created: Instant::now(),
            cancel: CancelToken::new(),
            bus: EventBus::shared(),
            metrics: MetricsRegistry::shared(),
            checkpoint: self.dir.as_ref().map(|d| ckpt_path(d, id)),
            feed: TargetFeed::new(),
            state: Mutex::new(state),
        })
    }

    fn register(&self, job: Arc<Job>) -> Arc<Job> {
        self.jobs
            .lock()
            .expect("job table poisoned")
            .push(Arc::clone(&job));
        job
    }

    /// Rescans the checkpoint directory on startup (see
    /// [`new`](JobManager::new)).
    fn recover(self: &Arc<Self>) -> std::io::Result<()> {
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        let mut metas: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(id) = name
                .strip_prefix("job-")
                .and_then(|n| n.strip_suffix(".meta"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                metas.push((id, path));
            }
        }
        metas.sort_unstable();
        for (id, path) in metas {
            let text = std::fs::read_to_string(&path)?;
            let Some((spec, seed_count, state)) = parse_meta(&text) else {
                eprintln!("warning: skipping unreadable job meta {}", path.display());
                continue;
            };
            // Keep ids monotone across restarts.
            let _ = self
                .next_id
                .fetch_max(id + 1, Ordering::SeqCst);
            match state {
                JobState::Done { termination } => {
                    let state = JobState::Done { termination };
                    let job = self.register(self.new_job(id, spec, seed_count, state));
                    match read_hitlist_file(targets_path(&dir, id)) {
                        Ok(targets) => {
                            job.feed.publish_prefix(&targets);
                            job.feed.complete();
                        }
                        Err(e) => {
                            let message = format!("persisted targets unreadable: {e}");
                            job.set_state(JobState::Failed {
                                error: message.clone(),
                            });
                            job.feed.fail(message);
                        }
                    }
                }
                JobState::Failed { error } => {
                    let state = JobState::Failed {
                        error: error.clone(),
                    };
                    let job = self.register(self.new_job(id, spec, seed_count, state));
                    job.feed.fail(error);
                }
                JobState::Running => {
                    // In flight when the previous server died: resume.
                    match read_hitlist_file(seeds_path(&dir, id)) {
                        Ok(seeds) => {
                            let job = self.new_job(id, spec, seeds.len(), JobState::Running);
                            self.spawn_runner(Arc::clone(&job), seeds)?;
                            self.metrics.counter("serve/jobs_resumed").add(1);
                            self.register(job);
                        }
                        Err(e) => {
                            let message = format!("persisted seeds unreadable: {e}");
                            let state = JobState::Failed {
                                error: message.clone(),
                            };
                            let job = self.register(self.new_job(id, spec, seed_count, state));
                            job.feed.fail(message);
                            self.persist_state(&job);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn spawn_runner(
        self: &Arc<Self>,
        job: Arc<Job>,
        seeds: Vec<NybbleAddr>,
    ) -> std::io::Result<()> {
        let manager = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("sixgen-job-{}", job.id))
            .spawn(move || {
                let run = catch_unwind(AssertUnwindSafe(|| manager.run_job(&job, seeds)));
                match run {
                    Ok(Ok(termination)) => {
                        job.set_state(JobState::Done { termination });
                        manager.metrics.counter("serve/jobs_done").add(1);
                        // Durability before visibility: persist the final
                        // targets and terminal meta before the stream's
                        // end-of-feed is announced.
                        manager.persist_targets(&job);
                        manager.persist_state(&job);
                        job.feed.complete();
                    }
                    Ok(Err(message)) => {
                        job.set_state(JobState::Failed {
                            error: message.clone(),
                        });
                        manager.metrics.counter("serve/jobs_failed").add(1);
                        manager.persist_state(&job);
                        job.feed.fail(message);
                    }
                    Err(payload) => {
                        let message = panic_message(payload.as_ref());
                        job.set_state(JobState::Failed {
                            error: message.clone(),
                        });
                        manager.metrics.counter("serve/jobs_failed").add(1);
                        manager.persist_state(&job);
                        job.feed.fail(message);
                    }
                }
            })?;
        // A finished runner's handle goes with the next spawn: a thread
        // that is neither joined nor detached keeps its stack mapped.
        let mut runners = self.runners.lock().expect("runner table poisoned");
        runners.retain(|runner| !runner.is_finished());
        runners.push(handle);
        Ok(())
    }

    fn persist_state(&self, job: &Job) {
        if let Some(dir) = &self.dir {
            if let Err(e) = write_atomic(&meta_path(dir, job.id), meta_text(job).as_bytes()) {
                eprintln!("warning: cannot persist job {} meta: {e}", job.id);
            }
        }
    }

    fn persist_targets(&self, job: &Job) {
        if let Some(dir) = &self.dir {
            let (targets, _) = job.feed.next_batch(0, Duration::ZERO);
            let mut bytes = Vec::with_capacity(targets.len() * 24);
            write_hitlist(&mut bytes, &targets).expect("hitlist to memory cannot fail");
            if let Err(e) = write_atomic(&targets_path(dir, job.id), &bytes) {
                eprintln!("warning: cannot persist job {} targets: {e}", job.id);
            }
        }
    }

    /// Runs the job's engine (or fleet) to termination, publishing the
    /// committed target prefix to the feed at every round/epoch
    /// boundary. Returns the termination label.
    fn run_job(&self, job: &Arc<Job>, seeds: Vec<NybbleAddr>) -> Result<String, String> {
        let spec = &job.spec;
        job.bus.set_budget_total(spec.budget);
        let config = Config {
            budget: spec.budget,
            mode: spec.mode,
            threads: 0,
            rng_seed: spec.rng_seed,
            time_limit: spec.time_limit,
            metrics: Some(Arc::clone(&job.metrics)),
            events: Some(Arc::clone(&job.bus)),
            cancel: Some(job.cancel.clone()),
            pool: Some(Arc::clone(&self.pool)),
            ..Config::default()
        };
        match spec.shards {
            None => self.run_single(job, seeds, config),
            Some(workers) => self.run_fleet(job, seeds, config, workers),
        }
    }

    fn run_single(
        &self,
        job: &Arc<Job>,
        seeds: Vec<NybbleAddr>,
        config: Config,
    ) -> Result<String, String> {
        let spec = &job.spec;
        // A loadable checkpoint means a previous server died mid-run:
        // resume from its round boundary. Determinism makes the resumed
        // stream identical to the uninterrupted one.
        let resume = job
            .checkpoint
            .as_ref()
            .and_then(|path| self.load_checkpoint(path, EngineCheckpoint::load));
        let session = match resume {
            Some(checkpoint) => {
                let config = Config {
                    budget: spec.budget.max(checkpoint.budget),
                    ..checkpoint.pin_fingerprint(config)
                };
                Session::resume(checkpoint, config)
                    .map_err(|e| format!("cannot resume from checkpoint: {e}"))?
            }
            None => SixGen::new(seeds, config).session(),
        };
        // Prefill the feed with the already-generated prefix: a resumed
        // run's targets so far, or a fresh session's seeds, which are
        // visible before round 1's checkpoint exists.
        job.feed.publish_prefix(session.targets_so_far());
        let mut writer = checkpoint_writer(job);
        let outcome = session.run_with(|session| {
            // Durability before visibility: the round's checkpoint lands
            // before the round's targets are published to the stream.
            checkpoint_at(writer.as_mut(), session.rounds(), || {
                session.checkpoint().to_bytes()
            });
            job.feed.publish_prefix(session.targets_so_far());
        });
        // The terminal round (final sampling, exhaustion) appends past
        // the last boundary publish.
        job.feed.publish_prefix(outcome.targets.as_slice());
        Ok(outcome.stats.termination.label().to_string())
    }

    /// Loads a job's checkpoint, or `None` to start from the seeds. No
    /// file is the normal case for a job that wrote none yet. Any other
    /// error (a file from another format version, a torn or corrupted
    /// file) is reported on stderr and counted in
    /// `serve/checkpoints_unreadable`; starting from the seeds then
    /// regenerates the identical stream.
    fn load_checkpoint<T>(
        &self,
        path: &Path,
        load: impl FnOnce(&Path) -> std::io::Result<T>,
    ) -> Option<T> {
        match load(path) {
            Ok(checkpoint) => Some(checkpoint),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                eprintln!(
                    "warning: cannot read job checkpoint {} ({e}); restarting from seeds",
                    path.display()
                );
                self.metrics.counter("serve/checkpoints_unreadable").add(1);
                None
            }
        }
    }

    fn run_fleet(
        &self,
        job: &Arc<Job>,
        seeds: Vec<NybbleAddr>,
        config: Config,
        workers: usize,
    ) -> Result<String, String> {
        let spec = &job.spec;
        let resume = job
            .checkpoint
            .as_ref()
            .and_then(|path| self.load_checkpoint(path, ShardedCheckpoint::load));
        let fleet = match resume {
            Some(envelope) => {
                let config = Config {
                    budget: spec.budget.max(envelope.budget),
                    ..envelope.pin_fingerprint(config)
                };
                Fleet::resume(envelope, config, workers)
                    .map_err(|e| format!("cannot resume fleet from checkpoint: {e}"))?
            }
            None => {
                let specs: Vec<ShardSpec> = partition_by_length(seeds, FALLBACK_SHARD_LEN)
                    .into_iter()
                    .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
                    .collect();
                Fleet::start(specs, config, workers)
            }
        };
        // The feed carries the fleet's settled prefix (see
        // `Fleet::targets_so_far`): every published byte is final.
        job.feed.publish_prefix(&fleet.targets_so_far());
        let mut writer = checkpoint_writer(job);
        // Every shard has terminated by the last barrier, whose publish
        // therefore completes the feed.
        let outcome = fleet.run_with(|fleet| {
            // Durability before visibility, as in `run_single`.
            checkpoint_at(writer.as_mut(), fleet.epochs(), || {
                fleet.checkpoint().to_bytes()
            });
            job.feed.publish_prefix(&fleet.targets_so_far());
        });
        let cut_by_deadline = outcome
            .shards
            .iter()
            .any(|shard| shard.outcome.stats.termination == Termination::Deadline);
        let termination = if job.cancel.is_cancelled() {
            "cancelled"
        } else if cut_by_deadline {
            "deadline"
        } else {
            "complete"
        };
        Ok(termination.to_string())
    }
}

/// The job's checkpoint writer at its spec's cadence, with a checkpoint
/// directory.
fn checkpoint_writer(job: &Job) -> Option<CheckpointWriter> {
    job.checkpoint
        .as_ref()
        .map(|path| CheckpointWriter::new(path).every(job.spec.checkpoint_every))
}

/// Applies the job's checkpoint cadence at one boundary. A persistent
/// write failure is reported once; the job runs on without checkpoints.
fn checkpoint_at(
    writer: Option<&mut CheckpointWriter>,
    boundary: u64,
    encode: impl FnOnce() -> Vec<u8>,
) {
    if let Some(Err(e)) = writer.map(|writer| writer.at_boundary(boundary, encode)) {
        eprintln!(
            "warning: job checkpoint write failed persistently ({e}); \
             continuing without further checkpoints"
        );
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        format!("job panicked: {text}")
    } else if let Some(text) = payload.downcast_ref::<String>() {
        format!("job panicked: {text}")
    } else {
        "job panicked".to_string()
    }
}

// ---------------------------------------------------------------------------
// HTTP API
// ---------------------------------------------------------------------------

/// The `sixgen serve` request handler: `/jobs` routes over a
/// [`JobManager`], everything else falling through to the global
/// observer views.
#[derive(Debug)]
pub struct ServeApi {
    manager: Arc<JobManager>,
    started: Instant,
}

impl ServeApi {
    /// Wraps a manager.
    pub fn new(manager: Arc<JobManager>) -> ServeApi {
        ServeApi {
            manager,
            started: Instant::now(),
        }
    }

    fn create_job(&self, request: &Request) -> Response {
        let spec = match JobSpec::from_query(request) {
            Ok(spec) => spec,
            Err(message) => return Response::bad_request(format!("{message}\n")),
        };
        let seeds = match read_hitlist(request.body.as_slice()) {
            Ok(seeds) => seeds,
            Err(e) => return Response::bad_request(format!("bad seed upload: {e}\n")),
        };
        match self.manager.create(seeds, spec) {
            Ok(job) => Response::json(
                "201 Created",
                format!(
                    "{{\"id\":{},\"state\":\"running\",\"seed_count\":{},\"budget\":{}}}",
                    job.id, job.seed_count, job.spec.budget
                ),
            ),
            Err(CreateError::Upload(message)) => Response::bad_request(format!("{message}\n")),
            Err(CreateError::Server(message)) => {
                Response::text("500 Internal Server Error", format!("{message}\n"))
            }
        }
    }

    fn jobs_json(&self) -> String {
        let jobs = self.manager.list();
        let mut out = String::from("{\"jobs\":[");
        for (i, job) in jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "{{\"id\":{},\"state\":\"{}\",\"seed_count\":{},\"budget\":{},\
                     \"targets_ready\":{}}}",
                    job.id,
                    job.state().label(),
                    job.seed_count,
                    job.spec.budget,
                    job.feed.ready_len(),
                ),
            );
        }
        out.push_str("]}");
        out
    }

    fn job_status_json(job: &Job) -> String {
        let state = job.state();
        let (termination, error) = match &state {
            JobState::Running => (String::from("null"), String::from("null")),
            JobState::Done { termination } => {
                (format!("\"{}\"", escape_json(termination)), String::from("null"))
            }
            JobState::Failed { error } => {
                (String::from("null"), format!("\"{}\"", escape_json(error)))
            }
        };
        format!(
            "{{\"id\":{},\"state\":\"{}\",\"termination\":{},\"error\":{},\"seed_count\":{},\
             \"budget\":{},\"mode\":\"{}\",\"rng_seed\":{},\"shards\":{},\"targets_ready\":{},\
             \"observer\":{}}}",
            job.id,
            state.label(),
            termination,
            error,
            job.seed_count,
            job.spec.budget,
            mode_label(job.spec.mode),
            job.spec.rng_seed,
            job.spec
                .shards
                .map_or(String::from("null"), |n| n.to_string()),
            job.feed.ready_len(),
            status_json(&job.sources(), job.created),
        )
    }

    fn stream_targets(&self, request: &Request, job: Arc<Job>) -> Response {
        let from = match request.query_param("from") {
            Some(value) => match value.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return Response::bad_request("bad from offset\n"),
            },
            None => 0,
        };
        Response::chunked("text/plain; charset=utf-8", move |writer| {
            let mut cursor = from;
            loop {
                let (batch, status) = job.feed.next_batch(cursor, STREAM_POLL);
                if !batch.is_empty() {
                    let mut text = String::with_capacity(batch.len() * 24);
                    for addr in &batch {
                        let _ = std::fmt::Write::write_fmt(&mut text, format_args!("{addr}\n"));
                    }
                    writer.chunk(text.as_bytes())?;
                    cursor += batch.len();
                }
                match status {
                    FeedStatus::Open => {
                        if writer.aborted() {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::Interrupted,
                                "server shutting down",
                            ));
                        }
                    }
                    FeedStatus::Done => return Ok(()),
                    // Truncate the chunked stream (no terminal chunk):
                    // the client sees a protocol error, not a silently
                    // short target list.
                    FeedStatus::Failed(error) => {
                        return Err(std::io::Error::other(error));
                    }
                }
            }
        })
    }

    fn job_route(&self, request: &Request, rest: &str) -> Response {
        let (id_text, action) = match rest.split_once('/') {
            Some((id, action)) => (id, Some(action)),
            None => (rest, None),
        };
        let Ok(id) = id_text.parse::<u64>() else {
            return Response::bad_request("bad job id\n");
        };
        let Some(job) = self.manager.get(id) else {
            return Response::not_found();
        };
        match action {
            None | Some("status") | Some("") => {
                if request.method == "GET" {
                    Response::json("200 OK", Self::job_status_json(&job))
                } else {
                    Response::method_not_allowed()
                }
            }
            Some("metrics") => {
                if request.method == "GET" {
                    Response {
                        status: "200 OK",
                        content_type: "text/plain; version=0.0.4; charset=utf-8",
                        body: crate::obs::Body::Full(job.metrics.to_prometheus()),
                    }
                } else {
                    Response::method_not_allowed()
                }
            }
            Some("targets") => {
                if request.method == "GET" {
                    self.stream_targets(request, job)
                } else {
                    Response::method_not_allowed()
                }
            }
            Some("cancel") => {
                if request.method == "POST" {
                    job.request_cancel();
                    Response::json("200 OK", format!("{{\"id\":{id},\"cancelling\":true}}"))
                } else {
                    Response::method_not_allowed()
                }
            }
            Some(_) => Response::not_found(),
        }
    }
}

impl HttpHandler for ServeApi {
    fn handle(&self, request: &Request) -> Response {
        if request.path == "/jobs" {
            return match request.method.as_str() {
                "POST" => self.create_job(request),
                "GET" => Response::json("200 OK", self.jobs_json()),
                _ => Response::method_not_allowed(),
            };
        }
        if let Some(rest) = request.path.strip_prefix("/jobs/") {
            return self.job_route(request, rest);
        }
        let sources = ObserverSources {
            metrics: Some(self.manager.metrics()),
            ..ObserverSources::default()
        };
        observer_response(request, &sources, self.started)
    }
}

/// Binds the job API on `addr` (port 0 for ephemeral) with `threads`
/// handler threads (`0` for the default pool).
pub fn serve(addr: &str, manager: Arc<JobManager>, threads: usize) -> std::io::Result<HttpServer> {
    let threads = if threads == 0 {
        DEFAULT_SERVE_THREADS
    } else {
        threads
    };
    HttpServer::bind(addr, Arc::new(ServeApi::new(manager)), threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(query: &str) -> Request {
        Request {
            method: "POST".into(),
            path: "/jobs".into(),
            query: query.into(),
            body: Vec::new(),
        }
    }

    #[test]
    fn spec_parses_every_query_parameter() {
        let spec = JobSpec::from_query(&request(
            "budget=5000&mode=tight&rng_seed=42&shards=auto&time_limit=1.5&checkpoint_every=3",
        ))
        .expect("valid spec");
        assert_eq!(spec.budget, 5000);
        assert_eq!(spec.mode, ClusterMode::Tight);
        assert_eq!(spec.rng_seed, 42);
        assert_eq!(spec.shards, Some(0));
        assert_eq!(spec.time_limit, Some(Duration::from_millis(1500)));
        assert_eq!(spec.checkpoint_every, 3);
        assert_eq!(JobSpec::from_query(&request("")).expect("defaults"), JobSpec::default());
    }

    #[test]
    fn spec_rejects_bad_values_with_diagnostics() {
        for (query, needle) in [
            ("budget=many", "budget"),
            ("mode=medium", "mode"),
            ("rng_seed=-1", "rng_seed"),
            ("shards=half", "shards"),
            ("time_limit=-2", "time_limit"),
            ("time_limit=inf", "time_limit"),
            ("checkpoint_every=never", "checkpoint_every"),
        ] {
            let error = JobSpec::from_query(&request(query)).expect_err(query);
            assert!(error.contains(needle), "{query}: {error}");
        }
        // The budget ceiling: the ceiling itself is accepted, one more
        // target is refused.
        let at = format!("budget={MAX_JOB_BUDGET}");
        assert_eq!(JobSpec::from_query(&request(&at)).expect(&at).budget, MAX_JOB_BUDGET);
        let over = format!("budget={}", MAX_JOB_BUDGET + 1);
        let error = JobSpec::from_query(&request(&over)).expect_err(&over);
        assert!(error.contains("budget") && error.contains("ceiling"), "{over}: {error}");
    }

    #[test]
    fn meta_roundtrips_through_its_text_form() {
        for (spec, state) in [
            (
                JobSpec::default(),
                JobState::Done {
                    termination: "budget_exhausted".to_string(),
                },
            ),
            (
                JobSpec {
                    budget: 7,
                    mode: ClusterMode::Tight,
                    rng_seed: 9,
                    shards: Some(4),
                    time_limit: Some(Duration::from_millis(2500)),
                    checkpoint_every: 2,
                },
                JobState::Running,
            ),
            (
                JobSpec::default(),
                JobState::Failed {
                    error: "it broke\nbadly".to_string(),
                },
            ),
        ] {
            let job = Job {
                id: 3,
                spec: spec.clone(),
                seed_count: 17,
                created: Instant::now(),
                cancel: CancelToken::new(),
                bus: EventBus::shared(),
                metrics: MetricsRegistry::shared(),
                checkpoint: None,
                feed: TargetFeed::new(),
                state: Mutex::new(state.clone()),
            };
            let (parsed_spec, seed_count, parsed_state) =
                parse_meta(&meta_text(&job)).expect("meta parses");
            assert_eq!(parsed_spec, spec);
            assert_eq!(seed_count, 17);
            // Newlines in failure diagnostics are flattened for the
            // line-oriented meta format.
            match (&state, &parsed_state) {
                (JobState::Failed { .. }, JobState::Failed { error }) => {
                    assert_eq!(error, "it broke badly");
                }
                _ => assert_eq!(parsed_state, state),
            }
        }
        assert_eq!(parse_meta("sixgen-job v2\n"), None);
        assert_eq!(parse_meta("garbage"), None);
        // A restart applies the upload's budget ceiling too.
        let meta = |budget: u64| {
            format!(
                "sixgen-job v1\nid=1\nbudget={budget}\nmode=loose\nrng_seed=1\nshards=-\n\
                 time_limit_ms=-\ncheckpoint_every=1\nseed_count=2\nstate=running\n\
                 termination=-\nerror=-\n"
            )
        };
        assert!(parse_meta(&meta(MAX_JOB_BUDGET)).is_some());
        assert_eq!(parse_meta(&meta(MAX_JOB_BUDGET + 1)), None);
    }

    /// Starting a runner drops the handles of runners that have finished,
    /// so a long-lived server does not keep every past job's thread.
    #[test]
    fn finished_runners_leave_the_runner_table() {
        let manager = JobManager::new(None).expect("manager");
        let seeds: Vec<NybbleAddr> = ["2001:db8::1", "2001:db8::2", "2001:db8::11"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for _ in 0..6 {
            let spec = JobSpec {
                budget: 50,
                ..JobSpec::default()
            };
            let job = manager.create(seeds.clone(), spec).expect("job starts");
            while job.state() == JobState::Running {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // The last job's runner, plus at most one still exiting when the
        // last job started.
        let runners = manager.runners.lock().unwrap().len();
        assert!(runners <= 2, "{runners} runner handles after 6 sequential jobs");
        manager.join();
    }

    #[test]
    fn feed_publishes_appends_and_signals_completion() {
        let feed = TargetFeed::new();
        let a: NybbleAddr = "2001:db8::1".parse().unwrap();
        let b: NybbleAddr = "2001:db8::2".parse().unwrap();
        feed.publish_prefix(&[a]);
        feed.publish_prefix(&[a, b]);
        // Stale shorter snapshots are no-ops.
        feed.publish_prefix(&[a]);
        let (batch, status) = feed.next_batch(0, Duration::ZERO);
        assert_eq!(batch, vec![a, b]);
        assert_eq!(status, FeedStatus::Open);
        let (batch, _) = feed.next_batch(1, Duration::ZERO);
        assert_eq!(batch, vec![b]);
        feed.complete();
        let (batch, status) = feed.next_batch(2, Duration::from_secs(5));
        assert!(batch.is_empty());
        assert_eq!(status, FeedStatus::Done);
    }
}
