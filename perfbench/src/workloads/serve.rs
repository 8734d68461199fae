//! `serve_jobs`: the release `sixgen serve` binary in its own process,
//! driven by one client process with two threads:
//!
//! * a closed-loop submitter that posts a seeded sequence of small jobs
//!   (CDN-shaped uploads) and streams each to its end;
//! * an open-loop monitor that polls `/healthz` and the running job's
//!   status at a fixed rate, timing each request from its due time.
//!
//! Here HTTP and the job layer set job latency, not 6Gen. The traced
//! run adds what per-round checkpointing costs by replaying a sample of
//! the same jobs in-process, step by step, making the calls the job
//! runner and `CheckpointWriter::write` make.

use super::prefix::{single_engine_layers, traced_step};
use super::{Iteration, Workload, SETUP_REPS};
use crate::common::{digest, engine_phases, ms, peak_rss_mb, timed_setup, Opts};
use crate::env::nproc;
use crate::http;
use crate::report::Report;
use crate::stats::{median, open_loop_latency, OpenLoop};
use crate::trace::{durations_ms, Span, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sixgen_addr::NybbleAddr;
use sixgen_core::{run_sharded, ClusterMode, Config, ShardSpec, SixGen, Step};
use sixgen_datasets::io::{read_hitlist, write_hitlist};
use sixgen_datasets::{cdn_internet, cdn_seed_sample, Cdn};
use sixgen_obs::{write_atomic, MetricsRegistry};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs the submitter posts per pass.
pub const JOBS: usize = 100;
/// Seeds per upload.
const SEEDS_PER_JOB: usize = 500;
/// Budget per job, as a multiple of its seeds.
const BUDGET_PER_SEED: u64 = 10;
/// Every this many jobs, one runs as a two-worker sharded fleet.
const SHARDED_EVERY: usize = 5;
/// Active hosts per CDN network the uploads are sampled from.
const CDN_HOSTS: usize = 5_000;
/// Monitor schedule: one request per period, alternating routes — 25
/// requests per second per route, well below what the server handles,
/// and with two passes of about 4.5 s enough for the 200 samples per
/// route that a p95 needs.
const MONITOR_PERIOD: Duration = Duration::from_millis(20);
/// Single-engine jobs replayed in-process by the traced run.
const REPLAYED_JOBS: usize = 10;
/// Shard granularity `sixgen serve` uses for sharded jobs.
const SERVE_SHARD_LEN: u8 = 48;

/// One job of the sequence.
#[derive(Debug, Clone)]
pub struct Job {
    seeds: Vec<NybbleAddr>,
    upload: Vec<u8>,
    budget: u64,
    mode: ClusterMode,
    rng_seed: u64,
    shards: Option<usize>,
}

impl Job {
    fn query(&self) -> String {
        let mode = match self.mode {
            ClusterMode::Loose => "loose",
            ClusterMode::Tight => "tight",
        };
        let mut query = format!(
            "/jobs?budget={}&mode={mode}&rng_seed={}",
            self.budget, self.rng_seed
        );
        if let Some(workers) = self.shards {
            query.push_str(&format!("&shards={workers}"));
        }
        query
    }

    fn config(&self) -> Config {
        Config {
            budget: self.budget,
            mode: self.mode,
            rng_seed: self.rng_seed,
            ..Config::default()
        }
    }

    /// What `sixgen serve` must stream for this job: the same upload and
    /// spec run in-process, one address per line.
    pub fn expected_stream(&self) -> Vec<u8> {
        let targets = match self.shards {
            None => SixGen::new(self.seeds.clone(), self.config())
                .run()
                .targets
                .into_vec(),
            Some(workers) => {
                let specs =
                    sixgen_routing::partition_by_length(self.seeds.clone(), SERVE_SHARD_LEN)
                        .into_iter()
                        .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
                        .collect();
                run_sharded(specs, self.config(), workers).targets
            }
        };
        let mut bytes = Vec::with_capacity(targets.len() * 24);
        write_hitlist(&mut bytes, &targets).expect("writing to memory cannot fail");
        bytes
    }
}

/// The seeded job sequence: uploads sampled from the five §7 CDN
/// shapes, budget ten times the seeds, and every fifth job sharded over
/// two workers. The mix is fixed — each block of five jobs takes one
/// upload from every CDN, blocks alternate loose and tight, and the
/// sharded slot rotates over the CDNs — so that seeds change which
/// addresses are uploaded, not how much work the sequence is.
pub fn job_sequence(opts: &Opts, jobs: usize) -> Vec<Job> {
    let cdns: Vec<_> = Cdn::ALL
        .iter()
        .enumerate()
        .map(|(i, &cdn)| cdn_internet(cdn, CDN_HOSTS, opts.derive(30 + i as u64)))
        .collect();
    let mut rng = StdRng::seed_from_u64(opts.derive(36));
    (0..jobs)
        .map(|index| {
            let block = index / SHARDED_EVERY;
            let cdn = &cdns[(index + block) % cdns.len()];
            let seeds = cdn_seed_sample(cdn, SEEDS_PER_JOB, &mut rng);
            let mut upload = Vec::with_capacity(seeds.len() * 24);
            write_hitlist(&mut upload, &seeds).expect("writing to memory cannot fail");
            Job {
                budget: BUDGET_PER_SEED * seeds.len() as u64,
                mode: if block.is_multiple_of(2) {
                    ClusterMode::Loose
                } else {
                    ClusterMode::Tight
                },
                rng_seed: rng.gen(),
                shards: (index % SHARDED_EVERY == SHARDED_EVERY - 1).then_some(2),
                seeds,
                upload,
            }
        })
        .collect()
}

/// A running `sixgen serve`; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Starts the server and waits for its first `200 /healthz`.
    ///
    /// The server gets no `--checkpoint-dir`: the only place the
    /// benchmark may write is its checkout, and there every per-round
    /// checkpoint is an fsync to a shared disk whose latency swung
    /// threefold for minutes at a time while this workload was sized.
    /// The traced run measures the checkpoint layer by replay instead.
    fn start(sixgen: &Path, dir: &Path) -> std::io::Result<Server> {
        std::fs::create_dir_all(dir)?;
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(dir.join("server.log"))?;
        let child = Command::new(sixgen)
            .arg("serve")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("server did not become healthy"));
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(std::io::Error::other(format!("server exited: {status}")));
            }
            if server.addr.port() == 0 {
                if let Ok(text) = std::fs::read_to_string(&addr_file) {
                    if let Ok(addr) = text.trim().parse() {
                        server.addr = addr;
                    }
                }
            }
            if server.addr.port() != 0 {
                if let Ok(response) = http::request(server.addr, "GET", "/healthz", &[]) {
                    if response.status == 200 {
                        return Ok(server);
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the client saw of one job.
#[derive(Debug, Default)]
struct JobRecord {
    id: u64,
    posted: Option<Instant>,
    stream_sent: Option<Instant>,
    chunk_times: Vec<Instant>,
    done: Option<Instant>,
    body: Vec<u8>,
    problems: Vec<String>,
    /// From `/jobs/<id>/metrics` (traced pass): engine phase time and
    /// rounds.
    engine_ns: u64,
    rounds: u64,
}

/// One monitor request.
#[derive(Debug)]
struct Probe {
    healthz: bool,
    latency: Duration,
    ok: bool,
    status: u16,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
struct PassRecord {
    jobs: Vec<JobRecord>,
    probes: Vec<Probe>,
    lateness: Duration,
}

fn parse_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"id\":")? + 5..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Sums the engine's phase counters and reads its round count from a
/// job's Prometheus exposition.
fn engine_counters(exposition: &str) -> (u64, u64) {
    let value = |name: &str| -> u64 {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    let engine_ns = ["cache_fill", "select", "commit", "subsume"]
        .iter()
        .map(|phase| value(&format!("sixgen_engine_{phase}_ns_total")))
        .sum();
    (engine_ns, value("sixgen_engine_select_runs_total"))
}

/// Runs one job: post, then stream to the terminal chunk.
fn run_job(
    addr: SocketAddr,
    job: &Job,
    index: u64,
    tracer: &Tracer,
    current: &AtomicU64,
) -> JobRecord {
    let mut record = JobRecord::default();
    let posted = Instant::now();
    record.posted = Some(posted);
    let response = http::request(addr, "POST", &job.query(), &job.upload);
    let post_done = Instant::now();
    let id = match response {
        Ok(r) if r.status == 201 => parse_id(&r.body),
        Ok(r) => {
            record
                .problems
                .push(format!("job {index}: POST answered {}", r.status));
            None
        }
        Err(e) => {
            record
                .problems
                .push(format!("job {index}: POST failed: {e}"));
            None
        }
    };
    let Some(id) = id else {
        if record.problems.is_empty() {
            record
                .problems
                .push(format!("job {index}: no id in the POST response"));
        }
        return record;
    };
    tracer.record("serve.post", id, posted, post_done, job.seeds.len() as u64);
    record.id = id;
    current.store(id, Ordering::Relaxed);
    let sent = Instant::now();
    record.stream_sent = Some(sent);
    match http::stream(addr, &format!("/jobs/{id}/targets")) {
        Ok(stream) => {
            let done = Instant::now();
            record.done = Some(done);
            let lines = stream.body.iter().filter(|&&b| b == b'\n').count() as u64;
            tracer.record("serve.stream", id, sent, done, lines);
            if stream.status != 200 {
                record
                    .problems
                    .push(format!("job {id}: stream answered {}", stream.status));
            }
            if !stream.complete {
                record
                    .problems
                    .push(format!("job {id}: stream truncated after {lines} lines"));
            }
            if stream.chunk_times.is_empty() {
                record
                    .problems
                    .push(format!("job {id}: no target streamed"));
            }
            record.chunk_times = stream.chunk_times;
            record.chunk_times.push(done);
            record.body = stream.body;
        }
        Err(e) => record
            .problems
            .push(format!("job {id}: stream failed: {e}")),
    }
    record
}

/// Reads a finished job's engine phase time and rounds from its
/// `/jobs/<id>/metrics`.
fn fetch_job_metrics(addr: SocketAddr, record: &mut JobRecord, tracer: &Tracer) {
    let id = record.id;
    let at = Instant::now();
    match http::request(addr, "GET", &format!("/jobs/{id}/metrics"), &[]) {
        Ok(r) if r.status == 200 => {
            (record.engine_ns, record.rounds) = engine_counters(&String::from_utf8_lossy(&r.body));
        }
        Ok(r) => record
            .problems
            .push(format!("job {id}: metrics answered {}", r.status)),
        Err(e) => record
            .problems
            .push(format!("job {id}: metrics failed: {e}")),
    }
    tracer.record("serve.metrics", id, at, Instant::now(), 0);
}

/// The open-loop monitor: alternates `/healthz` and the running job's
/// status on a fixed schedule while the submitter runs.
fn monitor(
    addr: SocketAddr,
    tracer: &Tracer,
    current: &AtomicU64,
    submitting: &AtomicBool,
) -> (Vec<Probe>, Duration) {
    let mut schedule = OpenLoop::new(Instant::now(), MONITOR_PERIOD);
    let mut probes = Vec::new();
    while submitting.load(Ordering::Relaxed) {
        let is_healthz = schedule.issued().is_multiple_of(2);
        let due = schedule.wait_next();
        let id = current.load(Ordering::Relaxed);
        let target = if is_healthz {
            "/healthz".to_string()
        } else {
            format!("/jobs/{id}/status")
        };
        let sent = Instant::now();
        let result = http::request(addr, "GET", &target, &[]);
        let done = Instant::now();
        let (ok, code) = match &result {
            Ok(r) => (r.status == 200, r.status),
            Err(_) => (false, 0),
        };
        let name = if is_healthz {
            "obs.healthz"
        } else {
            "obs.status"
        };
        tracer.record(name, id, sent, done, 1);
        probes.push(Probe {
            healthz: is_healthz,
            latency: open_loop_latency(due, done),
            ok,
            status: code,
        });
    }
    (probes, schedule.lateness_max())
}

/// One pass: the submitter runs the whole sequence on this thread while
/// the monitor polls from a second one.
fn pass(addr: SocketAddr, jobs: &[Job], tracer: &Tracer) -> (PassRecord, Instant, Instant) {
    let current = AtomicU64::new(0);
    let submitting = AtomicBool::new(true);
    let mut record = PassRecord::default();
    let start = Instant::now();
    let mut end = start;
    std::thread::scope(|scope| {
        let first = run_job(addr, &jobs[0], 0, tracer, &current);
        let monitor = scope.spawn(|| monitor(addr, tracer, &current, &submitting));
        record.jobs.push(first);
        for (index, job) in jobs.iter().enumerate().skip(1) {
            record
                .jobs
                .push(run_job(addr, job, index as u64, tracer, &current));
        }
        end = Instant::now();
        submitting.store(false, Ordering::Relaxed);
        let (probes, lateness) = monitor.join().expect("monitor thread panicked");
        record.probes = probes;
        record.lateness = lateness;
    });
    // After the timed window: the traced pass reads what the server
    // measured of each job.
    if tracer.enabled() {
        for job in record.jobs.iter_mut().filter(|j| j.id != 0) {
            fetch_job_metrics(addr, job, tracer);
        }
    }
    (record, start, end)
}

struct State {
    opts: Opts,
    jobs: Vec<Job>,
    server: Option<Server>,
    /// Job index, job id and digest of every complete stream, all passes.
    streamed: Vec<(usize, u64, u64)>,
    /// Digest of each job's reference stream, once computed.
    expected: Vec<u64>,
    passes: usize,
    /// Untraced passes, stream bodies dropped: the end-to-end figures
    /// pool their jobs and monitor samples.
    untraced: Vec<PassRecord>,
    traced: Option<PassRecord>,
}

/// Runs the workload.
pub fn run(opts: &Opts, report: &mut Report) {
    let reps = SETUP_REPS;
    let dir = opts.run_dir.join("setup");
    let ((jobs, server), setup_s) = timed_setup(reps, || {
        let jobs = job_sequence(opts, JOBS);
        let server = Server::start(&opts.sixgen, &dir);
        (jobs, server)
    });
    let server = match server {
        Ok(server) => server,
        Err(e) => {
            report.operation(vec![format!("cannot start {}: {e}", opts.sixgen.display())]);
            return;
        }
    };
    let mut state = State {
        opts: opts.clone(),
        streamed: Vec::new(),
        expected: Vec::new(),
        jobs,
        server: Some(server),
        passes: 0,
        untraced: Vec::new(),
        traced: None,
    };
    super::drive(opts, setup_s, reps, &mut state, report);
}

impl State {
    /// Counts jobs that failed over HTTP now, and keeps the digest of
    /// every complete stream for [`Workload::finish`], which compares it
    /// with the in-process reference.
    fn check_pass(&mut self, record: &PassRecord, report: &mut Report) {
        for (index, job_record) in record.jobs.iter().enumerate() {
            if job_record.problems.is_empty() {
                self.streamed
                    .push((index, job_record.id, digest(&job_record.body)));
            } else {
                report.operation(job_record.problems.clone());
            }
        }
        for probe in &record.probes {
            let route = if probe.healthz {
                "/healthz"
            } else {
                "/jobs/<id>/status"
            };
            report.operation(if probe.ok {
                vec![]
            } else {
                vec![format!("monitor {route} answered {}", probe.status)]
            });
        }
    }

    /// Replays a sample of the single-engine jobs in-process, step by
    /// step, checkpointing every round the way the job runner does.
    fn replay(&mut self, report: &mut Report) {
        let started = Instant::now();
        let tracer = Tracer::new(true);
        let registry = MetricsRegistry::shared();
        let dir = self.opts.run_dir.join("replay");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            report.operation(vec![format!("cannot create replay directory: {e}")]);
            return;
        }
        let mut seeds_total = 0;
        let mut replayed = 0;
        for (index, job) in self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.shards.is_none())
            .take(REPLAYED_JOBS)
        {
            let group = index as u64;
            let mut problems = Vec::new();
            let seeds = tracer.span("datasets.read_hitlist", group, || {
                read_hitlist(job.upload.as_slice())
            });
            let Ok(seeds) = seeds else {
                report.operation(vec![format!("replay {index}: upload does not parse")]);
                continue;
            };
            seeds_total += seeds.len();
            let config = Config {
                threads: nproc(),
                metrics: Some(Arc::clone(&registry)),
                ..job.config()
            };
            let engine = tracer.span("core.new", group, || SixGen::new(seeds, config));
            let mut session = tracer.span("core.start", group, || engine.session());
            let path = dir.join(format!("job-{index}.ckpt"));
            let mut first = true;
            loop {
                let step = traced_step(&tracer, &mut session, first, group);
                first = false;
                match step {
                    Step::Grew => {}
                    Step::Done(_) => break,
                    Step::NeedsBudget => {
                        problems.push(format!(
                            "replay {index}: parked without deferred exhaustion"
                        ));
                        break;
                    }
                }
                let snapshot = tracer.span("core.checkpoint", group, || session.checkpoint());
                let bytes = tracer.span("core.checkpoint_to_bytes", group, || snapshot.to_bytes());
                let at = Instant::now();
                if let Err(e) = write_atomic(&path, &bytes) {
                    problems.push(format!("replay {index}: checkpoint write failed: {e}"));
                }
                tracer.record(
                    "obs.write_atomic",
                    group,
                    at,
                    Instant::now(),
                    bytes.len() as u64,
                );
            }
            if problems.is_empty() {
                let outcome = tracer.span("core.finish", group, || session.finish());
                let written = tracer.span("datasets.write_hitlist", group, || {
                    let mut bytes = Vec::with_capacity(outcome.targets.len() * 24);
                    write_hitlist(&mut bytes, outcome.targets.as_slice())
                        .expect("writing to memory cannot fail");
                    write_atomic(&dir.join(format!("job-{index}.targets")), &bytes).map(|()| bytes)
                });
                match written {
                    Ok(bytes) if self.expected.get(index) == Some(&digest(&bytes)) => {}
                    Ok(_) => problems.push(format!(
                        "replay {index}: targets differ from the reference run"
                    )),
                    Err(e) => problems.push(format!("replay {index}: target write failed: {e}")),
                }
            }
            report.operation(problems);
            replayed += 1;
        }
        tracer.close_root("bench.replay", started, Instant::now());
        let spans = tracer.spans();
        single_engine_layers(&spans, seeds_total / replayed.max(1), report);
        let per_round = |name: &'static str| median(&durations_ms(&spans, name));
        let rounds = durations_ms(&spans, "obs.write_atomic").len();
        report.set(
            "core.ckpt_snapshot_ms_p50",
            per_round("core.checkpoint"),
            rounds,
        );
        report.set(
            "core.ckpt_encode_ms_p50",
            per_round("core.checkpoint_to_bytes"),
            rounds,
        );
        report.set(
            "core.ckpt_write_ms_p50",
            per_round("obs.write_atomic"),
            rounds,
        );
        let sizes: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "obs.write_atomic")
            .map(|s| s.count as f64 / (1024.0 * 1024.0))
            .collect();
        report.set("core.ckpt_mb_p50", median(&sizes), sizes.len());
        report.set(
            "core.ckpts_per_job",
            rounds as f64 / replayed.max(1) as f64,
            replayed,
        );
        engine_phases(report, &registry);
        report.notes.push(format!(
            "replayed {replayed} single-engine jobs, {rounds} checkpoints"
        ));
    }

    /// Each job's reference stream digest, computed on nproc threads.
    fn reference_digests(&self) -> Vec<u64> {
        let threads = nproc();
        let chunk = self.jobs.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .jobs
                .chunks(chunk)
                .map(|jobs| {
                    scope.spawn(move || {
                        jobs.iter()
                            .map(|j| digest(&j.expected_stream()))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        })
    }
}

impl Workload for State {
    fn iteration(&mut self, tracer: &Tracer, report: &mut Report) -> Iteration {
        let server = match self.server.take() {
            Some(server) => server,
            None => {
                let dir = self.opts.run_dir.join(format!("pass-{}", self.passes));
                Server::start(&self.opts.sixgen, &dir).expect("start sixgen serve")
            }
        };
        self.passes += 1;
        let (record, start, end) = pass(server.addr, &self.jobs, tracer);
        let rss = peak_rss_mb(&server.pid());
        // No job may end failed.
        match http::request(server.addr, "GET", "/jobs", &[]) {
            Ok(r) => {
                let failed = String::from_utf8_lossy(&r.body)
                    .matches("\"state\":\"failed\"")
                    .count();
                report.operation(if failed == 0 {
                    vec![]
                } else {
                    vec![format!("{failed} jobs ended failed")]
                });
            }
            Err(e) => report.operation(vec![format!("GET /jobs failed: {e}")]),
        }
        drop(server);
        self.check_pass(&record, report);

        if tracer.enabled() {
            self.traced = Some(record);
        } else {
            let mut record = record;
            for job in &mut record.jobs {
                job.body = Vec::new();
            }
            self.untraced.push(record);
        }
        Iteration {
            start,
            end,
            peak_rss_mb: rss,
        }
    }

    fn layer_metrics(&mut self, spans: &[Span], report: &mut Report) {
        let Some(record) = &self.traced else { return };
        let posts = durations_ms(spans, "serve.post");
        report.set_percentile("serve.post_ms_p50", &posts, 50.0);
        let first_chunk: Vec<f64> = record
            .jobs
            .iter()
            .filter_map(|j| Some(ms(j.stream_sent?, *j.chunk_times.first()?)))
            .collect();
        report.set_percentile("serve.first_chunk_ms_p50", &first_chunk, 50.0);
        let rounds: Vec<f64> = record.jobs.iter().map(|j| j.rounds as f64).collect();
        report.set_percentile("serve.rounds_per_job", &rounds, 50.0);
        let streamed: u64 = spans
            .iter()
            .filter(|s| s.name == "serve.stream")
            .map(|s| s.count)
            .sum();
        let stream_s: f64 = durations_ms(spans, "serve.stream").iter().sum::<f64>() / 1e3;
        report.set(
            "serve.stream_targets_per_s",
            streamed as f64 / stream_s,
            record.jobs.len(),
        );
        let engine_s: f64 = record.jobs.iter().map(|j| j.engine_ns as f64 / 1e9).sum();
        let job_s: f64 = record
            .jobs
            .iter()
            .filter_map(|j| Some(j.done?.duration_since(j.posted?).as_secs_f64()))
            .sum();
        report.set("serve.engine_frac", engine_s / job_s, record.jobs.len());
        let unavailable = record.probes.iter().filter(|p| p.status == 503).count();
        report.set("obs.http_503", unavailable as f64, record.probes.len());
        report.set(
            "client.lateness_ms_max",
            record.lateness.as_secs_f64() * 1e3,
            record.probes.len(),
        );
    }

    /// Compares every complete stream with the in-process reference of
    /// its job, then (traced run) replays jobs for the checkpoint layer.
    fn finish(&mut self, report: &mut Report) {
        self.expected = self.reference_digests();
        for &(index, id, streamed) in &self.streamed {
            report.operation(if streamed == self.expected[index] {
                vec![]
            } else {
                vec![format!(
                    "job {id}: streamed targets differ from the in-process run of the same upload and spec"
                )]
            });
        }
        end_to_end_lines(&self.untraced, report);
        if self.opts.trace {
            self.replay(report);
        }
    }
}

/// The serve-only end-to-end figures, pooled over the untraced passes.
fn end_to_end_lines(passes: &[PassRecord], report: &mut Report) {
    let mut first_target = Vec::new();
    let mut job_s = Vec::new();
    let mut gaps = Vec::new();
    for job in passes.iter().flat_map(|p| &p.jobs) {
        let (Some(posted), Some(done)) = (job.posted, job.done) else {
            continue;
        };
        if let Some(&first) = job.chunk_times.first() {
            first_target.push(ms(posted, first));
        }
        job_s.push(done.duration_since(posted).as_secs_f64());
        gaps.extend(job.chunk_times.windows(2).map(|w| ms(w[0], w[1])));
    }
    report.set_percentile("first_target_ms_p50", &first_target, 50.0);
    report.set_percentile("first_target_ms_p90", &first_target, 90.0);
    report.set_percentile("job_s_p50", &job_s, 50.0);
    report.set_percentile("job_s_p90", &job_s, 90.0);
    report.set_percentile("stream_gap_ms_p99", &gaps, 99.0);
    let probes: Vec<&Probe> = passes.iter().flat_map(|p| &p.probes).collect();
    let latencies = |healthz: bool| -> Vec<f64> {
        probes
            .iter()
            .filter(|p| p.healthz == healthz)
            .map(|p| p.latency.as_secs_f64() * 1e3)
            .collect()
    };
    report.set_percentile("healthz_ms_p50", &latencies(true), 50.0);
    report.set_percentile("healthz_ms_p95", &latencies(true), 95.0);
    report.set_percentile("status_ms_p50", &latencies(false), 50.0);
    report.set_percentile("status_ms_p95", &latencies(false), 95.0);
    let lateness = passes.iter().map(|p| p.lateness).max().unwrap_or_default();
    report.notes.push(format!(
        "{} passes; monitor generator lateness max {:.3} ms over {} requests",
        passes.len(),
        lateness.as_secs_f64() * 1e3,
        probes.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn opts() -> Opts {
        Opts {
            workload: "serve_jobs".into(),
            seed: 7,
            seconds: Duration::from_secs(1),
            trace: false,
            sixgen: PathBuf::new(),
            run_dir: PathBuf::new(),
            state_dir: PathBuf::new(),
        }
    }

    #[test]
    fn the_sequence_is_seeded_and_mixes_modes_and_shards() {
        let a = job_sequence(&opts(), 10);
        let b = job_sequence(&opts(), 10);
        assert_eq!(a.len(), 10);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.upload == y.upload && x.rng_seed == y.rng_seed));
        assert_eq!(a.iter().filter(|j| j.shards == Some(2)).count(), 2);
        assert!(a.iter().all(|j| j.budget == 10 * j.seeds.len() as u64));
        assert!(a[4].query().ends_with("&shards=2"));
    }

    #[test]
    fn one_flipped_streamed_target_is_a_mismatch() {
        let job = &job_sequence(&opts(), 1)[0];
        let expected = job.expected_stream();
        let lines = expected.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(lines, job.budget);
        let mut streamed = expected.clone();
        // Change one hex digit of the last target.
        let at = streamed.len() - 2;
        streamed[at] = if streamed[at] == b'1' { b'2' } else { b'1' };
        assert_ne!(digest(&streamed), digest(&expected));
    }

    #[test]
    fn counters_and_ids_are_read_from_server_responses() {
        let exposition = "# TYPE x counter\nsixgen_engine_select_runs_total 116\n\
                          sixgen_engine_cache_fill_ns_total 10\nsixgen_engine_select_ns_total 5\n\
                          sixgen_engine_commit_ns_total 3\nsixgen_engine_subsume_ns_total 2\n";
        assert_eq!(engine_counters(exposition), (20, 116));
        assert_eq!(parse_id(b"{\"id\":42,\"state\":\"running\"}"), Some(42));
        assert_eq!(parse_id(b"{}"), None);
    }
}
