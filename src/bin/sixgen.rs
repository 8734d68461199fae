//! `sixgen` — command-line target generation for IPv6 scanning.
//!
//! ```text
//! sixgen generate --seeds <file> [--budget N] [--mode loose|tight] [--out <file>] [--binary]
//!                 [--shards N|auto] [--routes <file>]
//! sixgen analyze  --seeds <file>
//! sixgen split    --seeds <file> --groups K --out-prefix <path>
//! sixgen entropy-ip --seeds <file> [--budget N] [--out <file>]
//! sixgen simulate [--hosts N] [--loss P] [--bursty] [--rate-limit PPS] [--retries N]
//!                 [--backoff DUR] [--retransmit-budget N] [--rate-pps N]
//! sixgen serve ADDR [--checkpoint-dir DIR] [--handler-threads N] [--addr-file FILE]
//! ```
//!
//! * `generate` — run 6Gen over a seed hitlist (one address per line, `#`
//!   comments allowed) and write the generated targets. With `--shards`
//!   the seeds are partitioned by routed prefix (from `--routes`, else
//!   by /48) and run as a sharded fleet on a shared worker pool; the
//!   output is byte-identical for any worker count.
//! * `analyze` — print the per-nybble entropy profile and the final 6Gen
//!   clusters for a seed set: a quick look at a network's address
//!   structure.
//! * `split` — split a hitlist into K random groups (train/test
//!   experiments).
//! * `entropy-ip` — generate targets with the Entropy/IP baseline instead.
//! * `simulate` — end-to-end dry run on a synthetic Internet: extract
//!   seeds, run 6Gen, then scan the generated targets through a
//!   configurable fault stack (uniform loss, Gilbert–Elliott bursts,
//!   per-/48 ICMP rate limiting) with optional exponential-backoff retries
//!   and a total retransmit budget.
//! * `serve` — run target generation as an HTTP service: `POST /jobs`
//!   uploads a seed set and starts a job, `GET /jobs/<id>/targets`
//!   streams ranked targets incrementally as growth rounds commit, and
//!   `--checkpoint-dir` makes jobs durable across server restarts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen::addr::NybbleAddr;
use sixgen::addr::Prefix;
use sixgen::core::{
    CheckpointWriter, ClusterMode, Config, EngineCheckpoint, Fleet, Outcome, Session, ShardSpec,
    ShardedCheckpoint, ShardedOutcome, SixGen, SHARDED_MAGIC,
};
use sixgen::datasets::io::{read_hitlist_file, write_hitlist_binary_file, write_hitlist_file};
use sixgen::datasets::split_groups;
use sixgen::entropy_ip::{entropy_profile, EntropyIpConfig, EntropyIpModel};
use sixgen::obs::{EventBus, MetricsRegistry, Observer, ObserverSources, TraceSink};
use sixgen::routing::{partition_by_length, PrefixTable, FALLBACK_SHARD_LEN};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sixgen generate   --seeds FILE [--budget N] [--mode loose|tight] [--out FILE] [--binary] [--shards N|auto] [--routes FILE] [--rng-seed N] [--time-limit DUR] [--metrics-out FILE] [--metrics-format json|prom] [--trace-out FILE] [--trace-summary] [--checkpoint-out FILE] [--checkpoint-every N] [--resume CKPT] [--observe ADDR] [--progress] [--events-out FILE]\n  sixgen analyze    --seeds FILE [--budget N]\n  sixgen split      --seeds FILE --groups K --out-prefix PATH [--rng-seed N]\n  sixgen entropy-ip --seeds FILE [--budget N] [--out FILE] [--rng-seed N]\n  sixgen simulate   [--hosts N] [--budget N] [--loss P] [--bursty] [--rate-limit PPS]\n                    [--retries N] [--backoff DUR] [--retransmit-budget N] [--rate-pps N]\n                    [--rng-seed N] [--time-limit DUR] [--metrics-out FILE] [--metrics-format json|prom]\n                    [--trace-out FILE] [--trace-summary]\n                    [--checkpoint-out FILE] [--checkpoint-every N] [--resume CKPT]\n                    [--observe ADDR] [--progress] [--events-out FILE]\n  sixgen serve      ADDR [--checkpoint-dir DIR] [--handler-threads N] [--addr-file FILE]\n\nDUR: seconds, or with ms/s/m/h suffix (e.g. 250ms, 90s, 5m)\n--metrics-out: write engine/prober metrics (JSON by default; a .prom extension\n               or --metrics-format prom selects Prometheus text exposition)\n--trace-out: stream every span to FILE as it completes, as Chrome trace-event\n             JSON (Perfetto / chrome://tracing)\n--trace-summary: print a per-span-kind self-time summary table of every span\n--checkpoint-out: snapshot resumable engine state to FILE (atomic rename)\n                  every N rounds (--checkpoint-every, default 1)\n--resume: continue an interrupted run from a checkpoint; the seed set, mode,\n          and RNG seed come from the checkpoint, and --budget (if given)\n          tops up the probe budget; sharded and single-engine checkpoints\n          are told apart by their magic bytes\n--shards: run generation as a sharded fleet over routed prefixes with N\n          scheduler workers (auto = machine parallelism); --budget is the\n          global budget, leased proportionally and recirculated, and the\n          output is byte-identical for any N\n--routes: routed-prefix table for --shards, one \"PREFIX [ASN]\" per line\n          (# comments allowed); seeds outside every routed prefix are\n          dropped; without --routes seeds shard by their /48\n--observe: serve read-only GET /metrics (Prometheus), /status (JSON), and\n           /healthz on ADDR (e.g. 127.0.0.1:9106) for the duration of the\n           run; purely observational — outputs are byte-identical\n--progress: live single-line progress on stderr (budget burn, rounds,\n            shards done, throughput, ETA)\n--events-out: stream every progress event (rounds, leases, parks,\n              barriers, terminations) to FILE as NDJSON\n\nserve: POST /jobs?budget=N&mode=loose|tight&rng_seed=N[&shards=N|auto]\n       [&time_limit=SECONDS][&checkpoint_every=N] with a seed hitlist\n       as the request body starts a job; GET /jobs/ID/targets streams\n       ranked targets (chunked) as rounds commit, ?from=N resumes a cut\n       stream; GET /jobs/ID/status, POST /jobs/ID/cancel; with\n       --checkpoint-dir a restarted server resumes unfinished jobs;\n       --addr-file writes the bound address (for port 0) once listening"
    );
    ExitCode::from(2)
}

struct Cli {
    seeds: Option<PathBuf>,
    /// `None` means "not given": commands default to 1 000 000, and
    /// `--resume` continues under the checkpoint's budget.
    budget: Option<u64>,
    mode: ClusterMode,
    out: Option<PathBuf>,
    binary: bool,
    groups: usize,
    out_prefix: Option<PathBuf>,
    rng_seed: u64,
    time_limit: Option<std::time::Duration>,
    hosts: usize,
    loss: f64,
    bursty: bool,
    rate_limit: Option<f64>,
    retries: u8,
    backoff: Option<std::time::Duration>,
    retransmit_budget: Option<u64>,
    rate_pps: u64,
    metrics_out: Option<PathBuf>,
    metrics_format: Option<MetricsFormat>,
    trace_out: Option<PathBuf>,
    trace_summary: bool,
    checkpoint_out: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: Option<PathBuf>,
    /// `None` means "not sharded"; `Some(0)` (`--shards auto`) resolves
    /// to the machine's available parallelism.
    shards: Option<usize>,
    routes: Option<PathBuf>,
    /// `--observe ADDR`: serve read-only `/metrics`, `/status`, and
    /// `/healthz` over HTTP while the run executes.
    observe: Option<String>,
    /// `--progress`: single-line live progress on stderr.
    progress: bool,
    /// `--events-out FILE`: stream every progress event as NDJSON.
    events_out: Option<PathBuf>,
    /// `serve --checkpoint-dir DIR`: job durability directory.
    checkpoint_dir: Option<PathBuf>,
    /// `serve --handler-threads N`: HTTP handler-pool size (0 = default).
    handler_threads: usize,
    /// `serve --addr-file FILE`: write the bound address once listening
    /// (useful with port 0 in tests and CI).
    addr_file: Option<PathBuf>,
}

/// Output format for `--metrics-out`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Prometheus,
}

/// Parses a human duration: plain seconds (`30`), or with a `ms`/`s`/`m`/`h`
/// suffix (`250ms`, `90s`, `5m`, `1h`). Fractions are allowed (`1.5m`).
fn parse_duration(text: &str) -> Option<std::time::Duration> {
    let (number, scale) = if let Some(n) = text.strip_suffix("ms") {
        (n, 0.001)
    } else if let Some(n) = text.strip_suffix('h') {
        (n, 3600.0)
    } else if let Some(n) = text.strip_suffix('m') {
        (n, 60.0)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1.0)
    } else {
        (text, 1.0)
    };
    let value: f64 = number.parse().ok()?;
    if !value.is_finite() || value < 0.0 {
        return None;
    }
    Some(std::time::Duration::from_secs_f64(value * scale))
}

fn parse(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        seeds: None,
        budget: None,
        mode: ClusterMode::Loose,
        out: None,
        binary: false,
        groups: 10,
        out_prefix: None,
        rng_seed: 0x6CE4,
        time_limit: None,
        hosts: 2000,
        loss: 0.0,
        bursty: false,
        rate_limit: None,
        retries: 0,
        backoff: None,
        retransmit_budget: None,
        rate_pps: 100_000,
        metrics_out: None,
        metrics_format: None,
        trace_out: None,
        trace_summary: false,
        checkpoint_out: None,
        checkpoint_every: None,
        resume: None,
        shards: None,
        routes: None,
        observe: None,
        progress: false,
        events_out: None,
        checkpoint_dir: None,
        handler_threads: 0,
        addr_file: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => cli.seeds = Some(PathBuf::from(it.next()?)),
            "--budget" => cli.budget = Some(it.next()?.parse().ok()?),
            "--mode" => {
                cli.mode = match it.next()?.as_str() {
                    "loose" => ClusterMode::Loose,
                    "tight" => ClusterMode::Tight,
                    _ => return None,
                }
            }
            "--out" => cli.out = Some(PathBuf::from(it.next()?)),
            "--binary" => cli.binary = true,
            "--groups" => cli.groups = it.next()?.parse().ok()?,
            "--out-prefix" => cli.out_prefix = Some(PathBuf::from(it.next()?)),
            "--rng-seed" => cli.rng_seed = it.next()?.parse().ok()?,
            "--time-limit" => cli.time_limit = Some(parse_duration(it.next()?)?),
            "--hosts" => cli.hosts = it.next()?.parse().ok()?,
            "--loss" => cli.loss = it.next()?.parse().ok()?,
            "--bursty" => cli.bursty = true,
            "--rate-limit" => cli.rate_limit = Some(it.next()?.parse().ok()?),
            "--retries" => cli.retries = it.next()?.parse().ok()?,
            "--backoff" => cli.backoff = Some(parse_duration(it.next()?)?),
            "--retransmit-budget" => cli.retransmit_budget = Some(it.next()?.parse().ok()?),
            "--rate-pps" => cli.rate_pps = it.next()?.parse().ok()?,
            "--metrics-out" => cli.metrics_out = Some(PathBuf::from(it.next()?)),
            "--metrics-format" => {
                cli.metrics_format = Some(match it.next()?.as_str() {
                    "json" => MetricsFormat::Json,
                    "prom" | "prometheus" => MetricsFormat::Prometheus,
                    _ => return None,
                })
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(it.next()?)),
            "--trace-summary" => cli.trace_summary = true,
            "--checkpoint-out" => cli.checkpoint_out = Some(PathBuf::from(it.next()?)),
            "--checkpoint-every" => cli.checkpoint_every = Some(it.next()?.parse().ok()?),
            "--resume" => cli.resume = Some(PathBuf::from(it.next()?)),
            "--shards" => {
                cli.shards = Some(match it.next()?.as_str() {
                    "auto" => 0,
                    n => n.parse().ok()?,
                })
            }
            "--routes" => cli.routes = Some(PathBuf::from(it.next()?)),
            "--observe" => cli.observe = Some(it.next()?.clone()),
            "--progress" => cli.progress = true,
            "--events-out" => cli.events_out = Some(PathBuf::from(it.next()?)),
            "--checkpoint-dir" => cli.checkpoint_dir = Some(PathBuf::from(it.next()?)),
            "--handler-threads" => cli.handler_threads = it.next()?.parse().ok()?,
            "--addr-file" => cli.addr_file = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    Some(cli)
}

/// The probe budget: `--budget` when given, else the historical default.
fn budget(cli: &Cli) -> u64 {
    cli.budget.unwrap_or(1_000_000)
}

fn load_seeds(cli: &Cli) -> Result<Vec<NybbleAddr>, String> {
    let path = cli.seeds.as_ref().ok_or("--seeds is required")?;
    let seeds =
        read_hitlist_file(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if seeds.is_empty() {
        return Err(format!("{}: no addresses", path.display()));
    }
    Ok(seeds)
}

fn write_targets(cli: &Cli, targets: &[NybbleAddr]) -> Result<(), String> {
    match (&cli.out, cli.binary) {
        (Some(path), true) => write_hitlist_binary_file(path, targets)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        (Some(path), false) => write_hitlist_file(path, targets)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        (None, _) => {
            let mut stdout = std::io::stdout().lock();
            sixgen::datasets::io::write_hitlist(&mut stdout, targets)
                .map_err(|e| format!("cannot write to stdout: {e}"))?;
        }
    }
    Ok(())
}

/// Creates a registry when `--metrics-out` was given, or when an
/// observer needs one to serve `/metrics` from.
fn metrics_registry(cli: &Cli) -> Option<Arc<MetricsRegistry>> {
    (cli.metrics_out.is_some() || cli.observe.is_some()).then(MetricsRegistry::shared)
}

/// Writes the registry to the `--metrics-out` path, if both are set. The
/// format is `--metrics-format` when given, else inferred from a `.prom`
/// extension, defaulting to JSON.
fn write_metrics(cli: &Cli, registry: &Option<Arc<MetricsRegistry>>) -> Result<(), String> {
    if let (Some(path), Some(registry)) = (&cli.metrics_out, registry) {
        let format = cli.metrics_format.unwrap_or_else(|| {
            if path.extension().is_some_and(|e| e == "prom") {
                MetricsFormat::Prometheus
            } else {
                MetricsFormat::Json
            }
        });
        let (body, label) = match format {
            MetricsFormat::Json => (registry.to_json(), "json"),
            MetricsFormat::Prometheus => (registry.to_prometheus(), "prometheus"),
        };
        sixgen::obs::write_atomic(path, body.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("metrics written to {} ({label})", path.display());
    }
    Ok(())
}

/// Closes the `--trace-out` document and prints the summary, then writes
/// the `--metrics-out` file, so an unwritable metrics file never leaves
/// the trace document unclosed.
fn write_observations(
    cli: &Cli,
    metrics: &Option<Arc<MetricsRegistry>>,
    trace: &Option<Arc<TraceSink>>,
) -> Result<(), String> {
    finish_trace(cli, trace);
    write_metrics(cli, metrics)
}

/// Creates a trace sink when `--trace-out` or `--trace-summary` was
/// given. A `--trace-out` path is created (and the document preamble
/// written) immediately, so a path that cannot be created fails before
/// the run, and spans stream from the first round onward.
fn trace_sink(cli: &Cli) -> Result<Option<Arc<TraceSink>>, String> {
    if cli.trace_out.is_none() && !cli.trace_summary {
        return Ok(None);
    }
    let sink = TraceSink::shared();
    if let Some(path) = &cli.trace_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        sink.stream_to(Box::new(std::io::BufWriter::new(file)))
            .map_err(|e| format!("cannot stream to {}: {e}", path.display()))?;
    }
    Ok(Some(sink))
}

/// Closes the `--trace-out` document and prints the `--trace-summary`
/// table. A stream that failed, mid-run or at this final flush, only
/// warns: tracing a run never costs it its output.
fn finish_trace(cli: &Cli, sink: &Option<Arc<TraceSink>>) {
    let Some(sink) = sink else { return };
    if let Some(path) = &cli.trace_out {
        let finished = sink.finish_stream();
        if finished.is_err() || sink.stream_errors() > 0 {
            // `streamed` counts spans handed to the buffered writer, not
            // spans that reached the file, so a failed stream names none.
            eprintln!(
                "warning: trace stream to {} failed; the file is incomplete",
                path.display()
            );
        } else {
            eprintln!(
                "trace written to {} ({} spans)",
                path.display(),
                sink.streamed()
            );
        }
    }
    if cli.trace_summary {
        println!("\n{}", sink.render_summary());
    }
}

/// Live observability for one run: the progress-event bus plus whatever
/// consumers the flags asked for (`--observe` HTTP observer, `--progress`
/// stderr reporter, `--events-out` NDJSON stream). Everything here only
/// *reads* the run: targets, RNG streams, metrics, and checkpoints are
/// byte-identical with or without it.
struct Observability {
    /// `Some` when any observability flag was given; threaded into
    /// [`Config::events`].
    bus: Option<Arc<EventBus>>,
    observer: Option<Observer>,
    reporter: Option<ProgressReporter>,
    events_out: Option<PathBuf>,
}

/// Background thread repainting one stderr line from the live progress
/// table every quarter second.
struct ProgressReporter {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl ProgressReporter {
    fn start(bus: Arc<EventBus>) -> ProgressReporter {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sixgen-progress".into())
            .spawn(move || {
                use std::io::Write;
                while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                    let line = render_progress(&bus.progress());
                    // Repaint in place; pad to clear a shrinking line.
                    eprint!("\r{line:<78}");
                    let _ = std::io::stderr().flush();
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
                // Final repaint so the last state is the one left behind.
                eprintln!("\r{:<78}", render_progress(&bus.progress()));
            })
            .expect("spawn progress reporter");
        ProgressReporter { stop, handle }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// One line of live progress: budget burn, rounds, shard completion,
/// throughput, and ETA (the latter two once the rolling window fills).
fn render_progress(progress: &sixgen::obs::ProgressSnapshot) -> String {
    use std::fmt::Write;
    let mut line = String::with_capacity(96);
    let total = progress.budget_total;
    if total > 0 {
        let _ = write!(
            line,
            "6gen: {}/{} addrs ({:.1}%)",
            progress.budget_used,
            total,
            progress.budget_used as f64 / total as f64 * 100.0
        );
    } else {
        let _ = write!(line, "6gen: {} addrs", progress.budget_used);
    }
    let _ = write!(line, ", {} rounds", progress.rounds);
    if progress.shards.len() > 1 {
        let _ = write!(
            line,
            ", {}/{} shards done",
            progress.done_shards,
            progress.shards.len()
        );
    }
    if progress.throughput_per_s > 0.0 {
        let _ = write!(line, ", {:.0} addr/s", progress.throughput_per_s);
    }
    if let Some(eta) = progress.eta_s {
        let _ = write!(line, ", eta {eta:.0}s");
    }
    line
}

/// Builds the run's observability from the flags: creates the event bus
/// when any consumer wants it, opens the NDJSON stream, and binds the
/// HTTP observer before the run starts (so `/healthz` is up from the
/// first round).
fn observability(
    cli: &Cli,
    metrics: &Option<Arc<MetricsRegistry>>,
    trace: &Option<Arc<TraceSink>>,
) -> Result<Observability, String> {
    if cli.observe.is_none() && !cli.progress && cli.events_out.is_none() {
        return Ok(Observability {
            bus: None,
            observer: None,
            reporter: None,
            events_out: None,
        });
    }
    let bus = EventBus::shared();
    if let Some(path) = &cli.events_out {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        bus.stream_to(Box::new(std::io::BufWriter::new(file)));
    }
    let observer = match &cli.observe {
        Some(addr) => {
            let sources = ObserverSources {
                metrics: metrics.clone(),
                events: Some(Arc::clone(&bus)),
                trace: trace.clone(),
                checkpoint: cli.checkpoint_out.clone(),
            };
            let observer = Observer::bind(addr, sources)
                .map_err(|e| format!("cannot bind observer on {addr}: {e}"))?;
            eprintln!(
                "observer listening on http://{} (/metrics /status /healthz)",
                observer.local_addr()
            );
            Some(observer)
        }
        None => None,
    };
    let reporter = cli.progress.then(|| ProgressReporter::start(Arc::clone(&bus)));
    Ok(Observability {
        bus: Some(bus),
        observer,
        reporter,
        events_out: cli.events_out.clone(),
    })
}

impl Observability {
    /// Stops every consumer after the run: final progress repaint, a last
    /// observer grace beat, and the NDJSON stream flushed and closed. A
    /// stream that failed, mid-run or at this final flush, only warns:
    /// observing a run never costs it its output.
    fn finish(self) {
        if let Some(reporter) = self.reporter {
            reporter.finish();
        }
        if let Some(observer) = self.observer {
            observer.shutdown();
        }
        if let (Some(bus), Some(path)) = (&self.bus, &self.events_out) {
            let finished = bus.finish_stream();
            if finished.is_err() || bus.stream_errors() > 0 {
                eprintln!(
                    "warning: event stream to {} failed; the file is incomplete",
                    path.display()
                );
            } else {
                eprintln!(
                    "events streamed to {} ({} events)",
                    path.display(),
                    bus.streamed()
                );
            }
        }
    }
}

/// The config a generating command runs the engine (or fleet) under.
fn run_config(
    cli: &Cli,
    metrics: &Option<Arc<MetricsRegistry>>,
    trace: &Option<Arc<TraceSink>>,
    live: &Observability,
) -> Config {
    Config {
        budget: budget(cli),
        mode: cli.mode,
        threads: 0,
        rng_seed: cli.rng_seed,
        time_limit: cli.time_limit,
        metrics: metrics.clone(),
        trace: trace.clone(),
        events: live.bus.clone(),
        ..Config::default()
    }
}

/// The `--checkpoint-out` writer at the `--checkpoint-every` cadence, or
/// `None` without `--checkpoint-out`.
fn checkpoint_writer(cli: &Cli) -> Result<Option<CheckpointWriter>, String> {
    match &cli.checkpoint_out {
        Some(path) => Ok(Some(
            CheckpointWriter::new(path).every(cli.checkpoint_every.unwrap_or(1)),
        )),
        None if cli.checkpoint_every.is_some() => {
            Err("--checkpoint-every requires --checkpoint-out".into())
        }
        None => Ok(None),
    }
}

/// Applies the checkpoint cadence at one round or epoch boundary. A
/// persistent write failure warns once; the run goes on without
/// checkpoints.
fn checkpoint_at(writer: &mut CheckpointWriter, boundary: u64, encode: impl FnOnce() -> Vec<u8>) {
    if let Err(e) = writer.at_boundary(boundary, encode) {
        eprintln!(
            "warning: checkpoint write to {} failed persistently ({e}); \
             continuing without further checkpoints",
            writer.path().display()
        );
    }
}

/// Reports how many checkpoints the run wrote, if any.
fn report_checkpoints(writer: &CheckpointWriter) {
    if writer.writes() > 0 {
        eprintln!(
            "{} checkpoint(s) written to {}",
            writer.writes(),
            writer.path().display()
        );
    }
}

/// Runs the engine as a session, honouring `--resume`, `--checkpoint-out`,
/// and `--checkpoint-every`. On resume the checkpoint is authoritative for
/// the seed set and determinism fingerprint (`seeds` is ignored); an
/// explicit `--budget` tops up the probe budget, otherwise the
/// checkpoint's budget continues to apply.
fn run_engine(cli: &Cli, seeds: Vec<NybbleAddr>, config: Config) -> Result<Outcome, String> {
    let writer = checkpoint_writer(cli)?;
    let session = match &cli.resume {
        Some(path) => {
            let checkpoint = EngineCheckpoint::load(path)
                .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()))?;
            eprintln!(
                "resuming from {} (round {}, {} targets already generated)",
                path.display(),
                checkpoint.rounds,
                checkpoint.generated.len()
            );
            let config = Config {
                budget: cli.budget.unwrap_or(checkpoint.budget),
                ..checkpoint.pin_fingerprint(config)
            };
            Session::resume(checkpoint, config)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?
        }
        None => SixGen::new(seeds, config).session(),
    };
    let Some(mut writer) = writer else {
        return Ok(session.run());
    };
    let outcome = session.run_with(|session| {
        checkpoint_at(&mut writer, session.rounds(), || {
            session.checkpoint().to_bytes()
        })
    });
    report_checkpoints(&writer);
    Ok(outcome)
}

/// Reads a routed-prefix table: one `PREFIX [ASN]` per line, with `#`
/// comments and blank lines skipped. The ASN defaults to 0 when absent
/// (sharding only needs the prefixes).
fn load_routes(path: &PathBuf) -> Result<PrefixTable, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut routes: Vec<(Prefix, u32)> = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let prefix: Prefix = fields
            .next()
            .expect("non-empty line has a first field")
            .parse()
            .map_err(|e| format!("{}:{}: bad prefix: {e}", path.display(), number + 1))?;
        let asn: u32 = match fields.next() {
            Some(field) => field
                .parse()
                .map_err(|_| format!("{}:{}: bad ASN", path.display(), number + 1))?,
            None => 0,
        };
        routes.push((prefix, asn));
    }
    if routes.is_empty() {
        return Err(format!("{}: no routes", path.display()));
    }
    Ok(PrefixTable::from_routes(routes))
}

/// Partitions seeds into shard specs: by routed prefix when `--routes`
/// is given (seeds outside every routed prefix belong to no scannable
/// shard and are dropped with a warning), else by their /48.
fn shard_specs(cli: &Cli, seeds: Vec<NybbleAddr>) -> Result<Vec<ShardSpec>, String> {
    let groups = match &cli.routes {
        Some(path) => {
            let table = load_routes(path)?;
            let (routed, unrouted) = table.partition(seeds);
            if !unrouted.is_empty() {
                eprintln!(
                    "warning: dropping {} seed(s) outside every routed prefix",
                    unrouted.len()
                );
            }
            routed
        }
        None => partition_by_length(seeds, FALLBACK_SHARD_LEN),
    };
    if groups.is_empty() {
        return Err("no seeds fall inside any shard".into());
    }
    Ok(groups
        .into_iter()
        .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
        .collect())
}

/// True when `--resume` points at a sharded fleet envelope (magic
/// `6GSH`) rather than a single-engine checkpoint (`6GSN`).
fn resume_is_sharded(path: &PathBuf) -> Result<bool, String> {
    use std::io::Read;
    let mut magic = [0u8; 4];
    let mut file = std::fs::File::open(path)
        .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
    file.read_exact(&mut magic)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    Ok(magic == SHARDED_MAGIC)
}

/// Runs (or resumes) a sharded fleet, writing envelope checkpoints at
/// epoch barriers when `--checkpoint-out` is set. On resume the
/// envelope is authoritative for the determinism fingerprint (seed
/// sets, mode, RNG seed); an explicit `--budget` raises the global
/// budget and the extra headroom is leased to hungry shards.
fn run_fleet(cli: &Cli, config: Config) -> Result<ShardedOutcome, String> {
    let workers = cli.shards.unwrap_or(0);
    let writer = checkpoint_writer(cli)?;
    let fleet = match &cli.resume {
        Some(path) => {
            let envelope = ShardedCheckpoint::load(path)
                .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()))?;
            eprintln!(
                "resuming sharded fleet from {} ({} shards, epoch {})",
                path.display(),
                envelope.shards.len(),
                envelope.epochs
            );
            let config = Config {
                budget: cli.budget.unwrap_or(envelope.budget),
                ..envelope.pin_fingerprint(config)
            };
            Fleet::resume(envelope, config, workers)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?
        }
        None => Fleet::start(shard_specs(cli, load_seeds(cli)?)?, config, workers),
    };
    let Some(mut writer) = writer else {
        return Ok(fleet.run());
    };
    let outcome = fleet.run_with(|fleet| {
        checkpoint_at(&mut writer, fleet.epochs(), || {
            fleet.checkpoint().to_bytes()
        })
    });
    report_checkpoints(&writer);
    Ok(outcome)
}

fn cmd_generate_sharded(cli: &Cli) -> Result<(), String> {
    let metrics = metrics_registry(cli);
    let trace = trace_sink(cli)?;
    let live = observability(cli, &metrics, &trace)?;
    let fleet = run_fleet(cli, run_config(cli, &metrics, &trace, &live))?;
    live.finish();
    for shard in fleet.shards.iter().take(24) {
        eprintln!(
            "  shard {:<32} {:>9} targets, lease {} (returned {}), stopped: {:?}",
            shard.prefix.to_string(),
            shard.outcome.targets.len(),
            shard.lease,
            shard.returned,
            shard.outcome.stats.termination,
        );
    }
    if fleet.shards.len() > 24 {
        eprintln!("  ... and {} more shards", fleet.shards.len() - 24);
    }
    eprintln!(
        "6Gen sharded: {} targets from {} shards ({} epochs, {} workers, budget {}/{} used)",
        fleet.targets.len(),
        fleet.shards.len(),
        fleet.stats.epochs,
        fleet.stats.workers,
        fleet.stats.budget_used,
        fleet.stats.budget,
    );
    // Targets first: a metrics file that cannot be written
    // still fails the command, but never costs it its targets.
    write_targets(cli, fleet.targets.as_slice())?;
    write_observations(cli, &metrics, &trace)
}

fn cmd_generate(cli: &Cli) -> Result<(), String> {
    if cli.routes.is_some() && cli.shards.is_none() {
        return Err("--routes requires --shards".into());
    }
    // The checkpoint's magic routes a resume; otherwise --shards decides.
    let sharded = match &cli.resume {
        Some(path) => {
            let sharded = resume_is_sharded(path)?;
            if !sharded && cli.shards.is_some() {
                return Err(
                    "cannot resume a single-engine checkpoint as a sharded fleet".into()
                );
            }
            sharded
        }
        None => cli.shards.is_some(),
    };
    if sharded {
        return cmd_generate_sharded(cli);
    }
    // On resume the checkpoint carries the seed set; --seeds is not needed.
    let seeds = if cli.resume.is_some() {
        Vec::new()
    } else {
        load_seeds(cli)?
    };
    let metrics = metrics_registry(cli);
    let trace = trace_sink(cli)?;
    let live = observability(cli, &metrics, &trace)?;
    let outcome = run_engine(cli, seeds, run_config(cli, &metrics, &trace, &live))?;
    live.finish();
    eprintln!(
        "6Gen: {} targets from {} seeds ({} clusters, stopped: {:?})",
        outcome.targets.len(),
        outcome.stats.seed_count,
        outcome.clusters.len(),
        outcome.stats.termination,
    );
    // Targets first: a metrics file that cannot be written
    // still fails the command, but never costs it its targets.
    write_targets(cli, outcome.targets.as_slice())?;
    write_observations(cli, &metrics, &trace)
}

fn cmd_analyze(cli: &Cli) -> Result<(), String> {
    let seeds = load_seeds(cli)?;
    println!("seeds: {}", seeds.len());
    println!("\nper-nybble entropy (0 = fixed, 1 = uniform):");
    let profile = entropy_profile(&seeds);
    for (i, h) in profile.iter().enumerate() {
        let bar = "#".repeat((h * 32.0).round() as usize);
        println!("  nybble {:>2}: {:>5.3} {}", i + 1, h, bar);
    }
    let outcome = SixGen::new(
        seeds,
        Config {
            budget: budget(cli),
            rng_seed: cli.rng_seed,
            threads: 0,
            ..Config::default()
        },
    )
    .run();
    println!("\n6Gen clusters (budget {}):", budget(cli));
    let mut clusters = outcome.clusters;
    clusters.sort_by_key(|c| std::cmp::Reverse(c.seed_count));
    for c in clusters.iter().take(24) {
        println!(
            "  {:<40} {:>7} seeds / {:>12} addrs",
            c.range.to_string(),
            c.seed_count,
            c.range_size
        );
    }
    if clusters.len() > 24 {
        println!("  ... and {} more clusters", clusters.len() - 24);
    }
    Ok(())
}

fn cmd_split(cli: &Cli) -> Result<(), String> {
    let seeds = load_seeds(cli)?;
    let prefix = cli.out_prefix.as_ref().ok_or("--out-prefix is required")?;
    if cli.groups == 0 {
        return Err("--groups must be positive".into());
    }
    let mut rng = StdRng::seed_from_u64(cli.rng_seed);
    let groups = split_groups(&seeds, cli.groups, &mut rng);
    for (i, group) in groups.iter().enumerate() {
        let path = PathBuf::from(format!("{}.{i}.txt", prefix.display()));
        write_hitlist_file(&path, group)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {} ({} addresses)", path.display(), group.len());
    }
    Ok(())
}

fn cmd_entropy_ip(cli: &Cli) -> Result<(), String> {
    let seeds = load_seeds(cli)?;
    let model = EntropyIpModel::fit(&seeds, &EntropyIpConfig::default());
    eprintln!(
        "Entropy/IP: {} segments, generating up to {} targets",
        model.segments().len(),
        budget(cli)
    );
    let mut rng = StdRng::seed_from_u64(cli.rng_seed);
    let targets = model.generate(budget(cli) as usize, &mut rng);
    eprintln!("generated {} distinct targets", targets.len());
    write_targets(cli, &targets)
}

fn cmd_simulate(cli: &Cli) -> Result<(), String> {
    use sixgen::simnet::faults::{FaultModel, GilbertElliott, GilbertElliottConfig, IcmpRateLimit};
    use sixgen::simnet::{
        HostScheme, Internet, NetworkSpec, ProbeConfig, Prober, RetryPolicy, SeedExtraction,
    };

    let mut faults: Vec<Box<dyn FaultModel>> = Vec::new();
    if cli.bursty {
        faults.push(Box::new(
            GilbertElliott::new(GilbertElliottConfig::default()).map_err(|e| e.to_string())?,
        ));
    }
    if let Some(rate) = cli.rate_limit {
        faults.push(Box::new(
            IcmpRateLimit::new(48, rate, rate).map_err(|e| e.to_string())?,
        ));
    }
    let retry = match cli.backoff {
        Some(base) => RetryPolicy::ExponentialBackoff {
            base,
            cap: std::time::Duration::from_secs(60),
        },
        None => RetryPolicy::Immediate,
    };
    let metrics = metrics_registry(cli);
    let trace = trace_sink(cli)?;
    let probe_config = ProbeConfig {
        loss: cli.loss,
        retries: cli.retries,
        rate_pps: cli.rate_pps,
        rng_seed: cli.rng_seed ^ 0x5CA7,
        faults,
        retry,
        retransmit_budget: cli.retransmit_budget,
        metrics: metrics.clone(),
        trace: trace.clone(),
    };
    // Reject a bad scanner config before spending time on generation.
    probe_config.validate().map_err(|e| e.to_string())?;

    let mut rng = StdRng::seed_from_u64(cli.rng_seed);
    let per_network = (cli.hosts / 2).max(1);
    let internet = Internet::build(
        vec![
            NetworkSpec::simple(
                "2001:db8::/32".parse().unwrap(),
                64496,
                "SimSequential",
                HostScheme::LowByteSequential,
                per_network,
            ),
            NetworkSpec::simple(
                "2620:100::/40".parse().unwrap(),
                64497,
                "SimSparse",
                HostScheme::LowByteRandom { nybbles: 4 },
                per_network,
            ),
        ],
        &mut rng,
    )
    .map_err(|e| e.to_string())?;

    let seeds: Vec<NybbleAddr> = internet
        .extract_seeds(&SeedExtraction::default(), &mut rng)
        .into_iter()
        .map(|record| record.addr)
        .collect();
    let live = observability(cli, &metrics, &trace)?;
    let outcome = run_engine(cli, seeds, run_config(cli, &metrics, &trace, &live))?;
    eprintln!(
        "6Gen: {} targets from {} seeds (stopped: {:?})",
        outcome.targets.len(),
        outcome.stats.seed_count,
        outcome.stats.termination,
    );

    let mut prober = Prober::new(&internet, probe_config).map_err(|e| e.to_string())?;
    let result = prober.scan(outcome.targets.iter(), 80);
    let stats = prober.stats();
    println!(
        "scan: {} hits / {} targets ({:.1}% hit rate)",
        result.hits.len(),
        result.targets,
        result.hit_rate() * 100.0,
    );
    println!(
        "packets: {} sent ({} retransmits), {} responses",
        stats.packets_sent, stats.retransmits, stats.responses,
    );
    println!(
        "simulated duration: {:.3}s at {} pps (incl. backoff waits)",
        prober.simulated_duration().as_secs_f64(),
        cli.rate_pps,
    );
    println!(
        "ground truth: {} active hosts, {} recovered ({:.1}%)",
        internet.active_host_count(),
        result.hits.len(),
        result.hits.len() as f64 / internet.active_host_count().max(1) as f64 * 100.0,
    );
    live.finish();
    write_observations(cli, &metrics, &trace)
}

/// Runs the job server until killed: binds the API, optionally records
/// the bound address, and parks the main thread while the handler pool
/// and job runners do the work.
fn cmd_serve(cli: &Cli, addr: &str) -> Result<(), String> {
    let manager = sixgen::serve::JobManager::new(cli.checkpoint_dir.clone())
        .map_err(|e| format!("cannot initialise job manager: {e}"))?;
    let resumed = manager
        .list()
        .iter()
        .filter(|job| job.state() == sixgen::serve::JobState::Running)
        .count();
    if resumed > 0 {
        eprintln!("resumed {resumed} unfinished job(s) from checkpoint directory");
    }
    let server = sixgen::serve::serve(addr, manager, cli.handler_threads)
        .map_err(|e| format!("cannot bind on {addr}: {e}"))?;
    let bound = server.local_addr();
    eprintln!("sixgen serving on http://{bound} (POST /jobs, GET /jobs/<id>/targets)");
    if let Some(path) = &cli.addr_file {
        sixgen::obs::write_atomic(path, format!("{bound}\n").as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    // Serve until killed; jobs checkpoint as they run, so a kill at any
    // point is recoverable with the same --checkpoint-dir.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    // `serve` takes a positional listen address before its flags.
    let (serve_addr, rest) = if command == "serve" {
        match rest.split_first() {
            Some((addr, rest)) if !addr.starts_with("--") => (Some(addr.clone()), rest),
            _ => return usage(),
        }
    } else {
        (None, rest)
    };
    let Some(cli) = parse(rest) else {
        return usage();
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&cli),
        "analyze" => cmd_analyze(&cli),
        "split" => cmd_split(&cli),
        "entropy-ip" => cmd_entropy_ip(&cli),
        "simulate" => cmd_simulate(&cli),
        "serve" => cmd_serve(&cli, serve_addr.as_deref().expect("serve parsed an address")),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
