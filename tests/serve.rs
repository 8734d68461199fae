//! Integration tests for the `sixgen serve` job layer: differential
//! byte-identity of the streamed target list against direct engine runs,
//! the job lifecycle (upload → poll → stream → cancel), stream resume
//! via `?from=N`, and crash durability (a restarted manager resumes an
//! in-flight checkpointed job, single or sharded, restarts one whose
//! checkpoint it cannot read from its seeds, and serves finished jobs
//! from disk).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sixgen::addr::NybbleAddr;
use sixgen::core::{
    run_sharded, run_sharded_with, CheckpointWriter, Config, ShardSpec, ShardedCheckpoint, SixGen,
    Step,
};
use sixgen::datasets::io::{write_hitlist, write_hitlist_file};
use sixgen::routing::partition_by_length;
use sixgen::serve::{serve, JobManager, JobState};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sixgen-serve-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Seeds in pairwise-distant dense groups: a multi-round run with one
/// growth per group, good for streaming across many boundaries.
fn ladder_seeds() -> Vec<NybbleAddr> {
    let mut seeds = Vec::new();
    for group in 1..=9u32 {
        for host in 0..3u32 {
            seeds.push(
                format!("2001:db8::{group}{group}{group}{host:x}")
                    .parse()
                    .expect("valid seed"),
            );
        }
    }
    seeds
}

/// Seeds spanning several /48s, for sharded jobs and long runs.
fn routed_seeds(subnets: u32, hosts: u32) -> Vec<NybbleAddr> {
    let mut seeds = Vec::new();
    for s in 0..subnets {
        for i in 1..=hosts {
            seeds.push(
                format!("2600:3c00:{s:x}::{i:x}")
                    .parse()
                    .expect("valid seed"),
            );
        }
    }
    seeds
}

/// Seeds in six /48s of unequal density, so shards exhaust their leases
/// at different times and a fleet runs several epochs.
fn uneven_fleet_seeds() -> Vec<NybbleAddr> {
    let mut seeds = Vec::new();
    for p in 0..6u128 {
        let base = 0x2001_0db8u128 << 96 | p << 80;
        for i in 0..24u128 {
            let subnet = i % (2 + p % 3);
            let host = (i * 7 + p * 3) % 200;
            seeds.push(NybbleAddr::from_bits(base | subnet << 16 | host));
        }
    }
    seeds
}

fn render(targets: &[NybbleAddr]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_hitlist(&mut bytes, targets).expect("render hitlist");
    bytes
}

/// One-shot HTTP client against the serve API: sends a request with a
/// body and reads the whole response (the server closes the connection
/// after one exchange). Returns (status line, header block, raw body).
fn http(addr: &str, method: &str, path: &str, body: &[u8]) -> (String, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let headers = String::from_utf8_lossy(&raw[..split]).to_string();
    let status = headers.lines().next().expect("status line").to_string();
    (status, headers, raw[split + 4..].to_vec())
}

fn get(addr: &str, path: &str) -> (String, String, Vec<u8>) {
    http(addr, "GET", path, b"")
}

/// Decodes a chunked transfer encoding, asserting well-formed framing
/// including the terminal zero-length chunk.
fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let line_end = raw
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[..line_end]).expect("utf8 size").trim(),
            16,
        )
        .expect("hex chunk size");
        raw = &raw[line_end + 2..];
        if size == 0 {
            assert!(raw.starts_with(b"\r\n"), "missing terminal CRLF");
            return out;
        }
        assert!(raw.len() >= size + 2, "truncated chunk");
        out.extend_from_slice(&raw[..size]);
        assert_eq!(&raw[size..size + 2], b"\r\n", "chunk not CRLF-terminated");
        raw = &raw[size + 2..];
    }
}

/// Polls the job's status endpoint until the predicate holds (10 s cap).
fn wait_for(addr: &str, path: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = get(addr, path);
        assert!(status.contains("200"), "{status}");
        let text = String::from_utf8_lossy(&body).to_string();
        if pred(&text) {
            return text;
        }
        assert!(Instant::now() < deadline, "timed out waiting on {path}: {text}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn streamed_targets_are_byte_identical_to_direct_run() {
    let seeds = ladder_seeds();
    let reference = SixGen::new(
        seeds.clone(),
        Config {
            budget: 400,
            rng_seed: 7,
            threads: 0,
            ..Config::default()
        },
    )
    .run();
    let expected = render(reference.targets.as_slice());

    let manager = JobManager::new(None).expect("manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();

    let upload = render(&seeds);
    let (status, _, body) = http(&addr, "POST", "/jobs?budget=400&rng_seed=7", &upload);
    assert!(status.contains("201"), "{status}");
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"id\":1"), "{text}");

    // The stream blocks until the job finishes, then ends cleanly.
    let (status, headers, raw) = get(&addr, "/jobs/1/targets");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("Transfer-Encoding: chunked"), "{headers}");
    assert_eq!(dechunk(&raw), expected, "streamed targets diverge from direct run");

    // Status mounts the per-job observer document and the terminal state.
    let status_body = wait_for(&addr, "/jobs/1/status", |t| t.contains("\"state\":\"done\""));
    assert!(status_body.contains("\"termination\":\"budget_exhausted\""), "{status_body}");
    assert!(status_body.contains("\"observer\":{"), "{status_body}");
    assert!(status_body.contains("\"run\":{"), "{status_body}");

    // Per-job Prometheus metrics are mounted too.
    let (status, _, body) = get(&addr, "/jobs/1/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(String::from_utf8_lossy(&body).contains("sixgen_"), "no metrics");

    // The job index lists it.
    let (_, _, body) = get(&addr, "/jobs");
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"jobs\":[{\"id\":1"), "{text}");
    manager.join();
}

#[test]
fn sharded_job_stream_matches_sharded_reference() {
    let seeds = routed_seeds(4, 12);
    let config = Config {
        budget: 600,
        rng_seed: 11,
        threads: 0,
        ..Config::default()
    };
    let specs: Vec<ShardSpec> = partition_by_length(seeds.clone(), 48)
        .into_iter()
        .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
        .collect();
    let reference = run_sharded_with(specs, config, 2, |_| {});
    let expected = render(&reference.targets);

    let manager = JobManager::new(None).expect("manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();

    let (status, _, _) = http(
        &addr,
        "POST",
        "/jobs?budget=600&rng_seed=11&shards=2",
        &render(&seeds),
    );
    assert!(status.contains("201"), "{status}");
    let (status, _, raw) = get(&addr, "/jobs/1/targets");
    assert!(status.contains("200"), "{status}");
    assert_eq!(dechunk(&raw), expected, "sharded stream diverges from direct fleet run");
    wait_for(&addr, "/jobs/1/status", |t| {
        t.contains("\"state\":\"done\"") && t.contains("\"termination\":\"complete\"")
    });
    manager.join();
}

#[test]
fn from_offset_skips_already_streamed_targets() {
    let seeds = ladder_seeds();
    let manager = JobManager::new(None).expect("manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();

    let (status, _, _) = http(&addr, "POST", "/jobs?budget=300&rng_seed=3", &render(&seeds));
    assert!(status.contains("201"), "{status}");
    let (_, _, full_raw) = get(&addr, "/jobs/1/targets");
    let full = dechunk(&full_raw);
    let lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
    assert!(lines.len() > 50, "expected a non-trivial stream");

    // A client cut off after 50 targets reconnects with from=50 and gets
    // exactly the remainder — no loss, no duplicates.
    let (status, _, rest_raw) = get(&addr, "/jobs/1/targets?from=50");
    assert!(status.contains("200"), "{status}");
    let rest = dechunk(&rest_raw);
    assert_eq!(rest, lines[50..].concat(), "from offset lost or duplicated targets");

    let (status, _, _) = get(&addr, "/jobs/1/targets?from=bogus");
    assert!(status.contains("400"), "{status}");
    manager.join();
}

#[test]
fn cancel_stops_a_running_job_and_closes_its_stream() {
    // A budget far beyond what the corpus yields quickly: without the
    // cancel this run would take much longer than the test timeout.
    let seeds = routed_seeds(24, 40);
    let manager = JobManager::new(None).expect("manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();

    let (status, _, _) = http(
        &addr,
        "POST",
        "/jobs?budget=50000000&rng_seed=5",
        &render(&seeds),
    );
    assert!(status.contains("201"), "{status}");

    // Wait until the run demonstrably makes progress, then cancel.
    wait_for(&addr, "/jobs/1/status", |t| {
        !t.contains("\"targets_ready\":0,")
    });
    let (status, _, body) = http(&addr, "POST", "/jobs/1/cancel", b"");
    assert!(status.contains("200"), "{status}");
    assert!(String::from_utf8_lossy(&body).contains("\"cancelling\":true"));

    let status_body = wait_for(&addr, "/jobs/1/status", |t| t.contains("\"state\":\"done\""));
    assert!(status_body.contains("\"termination\":\"cancelled\""), "{status_body}");

    // The stream of the cancelled job still ends with clean framing.
    let (status, _, raw) = get(&addr, "/jobs/1/targets");
    assert!(status.contains("200"), "{status}");
    let streamed = dechunk(&raw);
    let count = streamed.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
    assert!(count > 0 && count < 50_000_000, "{count} targets");
    manager.join();
}

/// The meta file of a job that was still running when its server died.
fn running_meta(budget: u64, rng_seed: u64, shards: &str, seed_count: usize) -> String {
    format!(
        "sixgen-job v1\nid=1\nbudget={budget}\nmode=loose\nrng_seed={rng_seed}\n\
         shards={shards}\ntime_limit_ms=-\ncheckpoint_every=1\nseed_count={seed_count}\n\
         state=running\ntermination=-\nerror=-\n"
    )
}

#[test]
fn manager_restart_resumes_inflight_job_from_checkpoint() {
    let dir = workdir("resume");
    let seeds = ladder_seeds();
    let config = Config {
        budget: 400,
        rng_seed: 9,
        threads: 0,
        ..Config::default()
    };
    let expected = render(
        SixGen::new(seeds.clone(), config.clone())
            .run()
            .targets
            .as_slice(),
    );

    // Manufacture the on-disk state of a server that died mid-run:
    // the persisted upload + meta, and a checkpoint from a few rounds in.
    write_hitlist_file(dir.join("job-1.seeds"), &seeds).expect("persist seeds");
    let mut session = SixGen::new(seeds.clone(), config).session();
    for _ in 0..4 {
        assert_eq!(session.step(), Step::Grew);
    }
    let mid = session.checkpoint();
    assert!(!mid.generated.is_empty(), "checkpoint should be mid-run");
    CheckpointWriter::new(dir.join("job-1.ckpt"))
        .write(&mid)
        .expect("write checkpoint");
    let meta = running_meta(400, 9, "-", seeds.len());
    std::fs::write(dir.join("job-1.meta"), meta).expect("write meta");

    // A fresh manager on the same directory resumes the job...
    let manager = JobManager::new(Some(dir.clone())).expect("manager");
    let job = manager.get(1).expect("job recovered");
    assert_eq!(job.state().label(), "running");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();

    // ...and the resumed stream is byte-identical to the uninterrupted
    // run: a client that had already consumed N targets reconnects with
    // from=N and loses nothing, duplicates nothing.
    let (status, _, raw) = get(&addr, "/jobs/1/targets");
    assert!(status.contains("200"), "{status}");
    assert_eq!(dechunk(&raw), expected, "resumed stream diverges from uninterrupted run");
    wait_for(&addr, "/jobs/1/status", |t| t.contains("\"state\":\"done\""));
    manager.join();

    // New jobs on the restarted manager get fresh ids past the
    // recovered ones.
    let next = manager
        .create(seeds, sixgen::serve::JobSpec::default())
        .expect("create");
    assert_eq!(next.id, 2);
    manager.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manager_restart_resumes_sharded_job_from_envelope() {
    let dir = workdir("resume-fleet");
    let seeds = uneven_fleet_seeds();
    let config = Config {
        budget: 1500,
        rng_seed: 11,
        threads: 0,
        ..Config::default()
    };
    let specs: Vec<ShardSpec> = partition_by_length(seeds.clone(), 48)
        .into_iter()
        .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
        .collect();
    assert!(specs.len() >= 2, "the job must span several /48s");
    let expected = render(&run_sharded(specs.clone(), config.clone(), 2).targets);

    // The on-disk state of a server that died after the fleet's first
    // epoch barrier: upload, meta with `shards=2`, and that barrier's
    // envelope.
    let mut envelopes: Vec<ShardedCheckpoint> = Vec::new();
    run_sharded_with(specs, config, 2, |envelope| {
        envelopes.push(envelope.clone())
    });
    assert!(envelopes.len() >= 2, "the first barrier must be mid-fleet");
    write_hitlist_file(dir.join("job-1.seeds"), &seeds).expect("persist seeds");
    CheckpointWriter::new(dir.join("job-1.ckpt"))
        .write_sharded(&envelopes[0])
        .expect("write envelope");
    let meta = running_meta(1500, 11, "2", seeds.len());
    std::fs::write(dir.join("job-1.meta"), meta).expect("write meta");

    let manager = JobManager::new(Some(dir.clone())).expect("manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();
    let (status, _, raw) = get(&addr, "/jobs/1/targets");
    assert!(status.contains("200"), "{status}");
    assert_eq!(
        dechunk(&raw),
        expected,
        "resumed fleet stream diverges from run_sharded"
    );
    wait_for(&addr, "/jobs/1/status", |t| {
        t.contains("\"state\":\"done\"") && t.contains("\"termination\":\"complete\"")
    });
    let unreadable = manager.metrics().counter("serve/checkpoints_unreadable");
    assert_eq!(unreadable.get(), 0, "the envelope must have been read");
    manager.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a 64, the checksum trailing every checkpoint file.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn manager_restart_reruns_job_whose_checkpoint_is_unreadable() {
    let dir = workdir("stale-ckpt");
    let seeds = ladder_seeds();
    let config = Config {
        budget: 400,
        rng_seed: 9,
        threads: 0,
        ..Config::default()
    };
    let expected = render(
        SixGen::new(seeds.clone(), config.clone())
            .run()
            .targets
            .as_slice(),
    );

    // A mid-run checkpoint in the version-1 layout an older build wrote:
    // version 1 and a growth-path byte after the mode, with a valid
    // checksum, which this build refuses to decode.
    let mut session = SixGen::new(seeds.clone(), config).session();
    for _ in 0..4 {
        assert_eq!(session.step(), Step::Grew);
    }
    let mut old = session.checkpoint().to_bytes();
    old.truncate(old.len() - 8);
    old[4..6].copy_from_slice(&1u16.to_le_bytes());
    old.insert(7, 0);
    let checksum = fnv1a(&old);
    old.extend_from_slice(&checksum.to_le_bytes());
    write_hitlist_file(dir.join("job-1.seeds"), &seeds).expect("persist seeds");
    std::fs::write(dir.join("job-1.ckpt"), &old).expect("write checkpoint");
    let meta = running_meta(400, 9, "-", seeds.len());
    std::fs::write(dir.join("job-1.meta"), meta).expect("write meta");

    // The restarted job runs again from its seeds: same stream, done,
    // and the unreadable file is counted.
    let manager = JobManager::new(Some(dir.clone())).expect("manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();
    let (status, _, raw) = get(&addr, "/jobs/1/targets");
    assert!(status.contains("200"), "{status}");
    assert_eq!(
        dechunk(&raw),
        expected,
        "restarted stream diverges from a direct run"
    );
    wait_for(&addr, "/jobs/1/status", |t| {
        t.contains("\"state\":\"done\"")
    });
    let unreadable = manager.metrics().counter("serve/checkpoints_unreadable");
    assert_eq!(unreadable.get(), 1);
    manager.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn finished_jobs_survive_restart_and_serve_persisted_targets() {
    let dir = workdir("finished");
    let seeds = ladder_seeds();
    let manager = JobManager::new(Some(dir.clone())).expect("manager");
    let spec = sixgen::serve::JobSpec {
        budget: 300,
        rng_seed: 13,
        ..sixgen::serve::JobSpec::default()
    };
    let job = manager.create(seeds.clone(), spec).expect("create");
    manager.join();
    let JobState::Done { termination } = job.state() else {
        panic!("job did not finish: {:?}", job.state());
    };
    assert_eq!(termination, "budget_exhausted");
    let (expected, _) = job.feed().next_batch(0, Duration::ZERO);
    assert!(!expected.is_empty());
    drop(manager);

    // A second manager on the same directory serves the job read-only
    // from its persisted target list — no engine re-run.
    let manager = JobManager::new(Some(dir.clone())).expect("restarted manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();
    let (status, _, raw) = get(&addr, "/jobs/1/targets");
    assert!(status.contains("200"), "{status}");
    assert_eq!(dechunk(&raw), render(&expected));
    let (_, _, body) = get(&addr, "/jobs/1/status");
    let text = String::from_utf8_lossy(&body);
    assert!(text.contains("\"state\":\"done\""), "{text}");
    manager.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn api_rejects_bad_requests() {
    let manager = JobManager::new(None).expect("manager");
    let server = serve("127.0.0.1:0", Arc::clone(&manager), 0).expect("bind");
    let addr = server.local_addr().to_string();

    // Garbage seed upload, bad spec values, empty upload.
    let (status, _, _) = http(&addr, "POST", "/jobs", b"not an address\n");
    assert!(status.contains("400"), "{status}");
    let (status, _, _) = http(&addr, "POST", "/jobs?budget=none", b"2001:db8::1\n");
    assert!(status.contains("400"), "{status}");
    let (status, _, _) = http(&addr, "POST", "/jobs?mode=wat", b"2001:db8::1\n");
    assert!(status.contains("400"), "{status}");
    let (status, _, _) = http(&addr, "POST", "/jobs", b"# empty\n");
    assert!(status.contains("400"), "{status}");

    // Unknown job, malformed id, wrong method, unknown action.
    let (status, _, _) = get(&addr, "/jobs/99/status");
    assert!(status.contains("404"), "{status}");
    let (status, _, _) = get(&addr, "/jobs/banana/status");
    assert!(status.contains("400"), "{status}");
    // A job must exist before its routes discriminate by method.
    let (status, _, _) = http(&addr, "POST", "/jobs/1/targets", b"");
    assert!(status.contains("404"), "{status}");
    let (status, _, _) = http(&addr, "POST", "/jobs?budget=50&rng_seed=1", b"2001:db8::1\n");
    assert!(status.contains("201"), "{status}");
    let (status, _, _) = http(&addr, "POST", "/jobs/1/targets", b"");
    assert!(status.contains("405"), "{status}");
    let (status, _, _) = http(&addr, "GET", "/jobs/1/cancel", b"");
    assert!(status.contains("405"), "{status}");
    let (status, _, _) = get(&addr, "/jobs/1/frobnicate");
    assert!(status.contains("404"), "{status}");

    // The global observer views still answer beside the job routes.
    let (status, _, body) = get(&addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, b"ok\n");
    manager.join();
}
