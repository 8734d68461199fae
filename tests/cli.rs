//! Integration tests for the `sixgen` command-line binary, driven through
//! the real executable (`CARGO_BIN_EXE_sixgen`).

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sixgen"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sixgen-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_seeds(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("seeds.txt");
    let mut text = String::from("# test seeds\n\n");
    for i in 1..=40u32 {
        text.push_str(&format!("2001:db8::{:x}\n", i));
    }
    for i in 1..=10u32 {
        text.push_str(&format!("2001:db8:0:5::{:x}\n", i * 3));
    }
    std::fs::write(&path, text).expect("write seeds");
    path
}

#[test]
fn generate_writes_targets_within_budget() {
    let dir = workdir("generate");
    let seeds = write_seeds(&dir);
    let out = dir.join("targets.txt");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "200", "--out"])
        .arg(&out)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let targets = std::fs::read_to_string(&out).expect("read targets");
    let lines: Vec<&str> = targets.lines().collect();
    assert!(!lines.is_empty() && lines.len() <= 200, "{} targets", lines.len());
    // Every line parses as an address; seeds are covered.
    for line in &lines {
        line.parse::<sixgen::addr::NybbleAddr>().expect("valid address");
    }
    assert!(lines.contains(&"2001:db8::1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_binary_roundtrips() {
    let dir = workdir("binary");
    let seeds = write_seeds(&dir);
    let out = dir.join("targets.bin");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "100", "--binary", "--out"])
        .arg(&out)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let targets = sixgen::datasets::io::read_hitlist_binary_file(&out).expect("decode");
    assert!(!targets.is_empty() && targets.len() <= 100);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_is_deterministic_across_invocations() {
    let dir = workdir("deterministic");
    let seeds = write_seeds(&dir);
    let run = |out: &std::path::Path| {
        let status = bin()
            .args(["generate", "--seeds"])
            .arg(&seeds)
            .args(["--budget", "150", "--rng-seed", "42", "--out"])
            .arg(out)
            .status()
            .expect("run sixgen");
        assert!(status.success());
        std::fs::read_to_string(out).expect("read")
    };
    let a = run(&dir.join("a.txt"));
    let b = run(&dir.join("b.txt"));
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_prints_entropy_and_clusters() {
    let dir = workdir("analyze");
    let seeds = write_seeds(&dir);
    let output = bin()
        .args(["analyze", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "500"])
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("per-nybble entropy"), "{stdout}");
    assert!(stdout.contains("6Gen clusters"), "{stdout}");
    assert!(stdout.contains("nybble 32"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn split_partitions_hitlist() {
    let dir = workdir("split");
    let seeds = write_seeds(&dir);
    let prefix = dir.join("part");
    let status = bin()
        .args(["split", "--seeds"])
        .arg(&seeds)
        .args(["--groups", "5", "--out-prefix"])
        .arg(&prefix)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let mut total = 0;
    for i in 0..5 {
        let part = PathBuf::from(format!("{}.{i}.txt", prefix.display()));
        let addrs = sixgen::datasets::io::read_hitlist_file(&part).expect("read part");
        assert_eq!(addrs.len(), 10);
        total += addrs.len();
    }
    assert_eq!(total, 50);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entropy_ip_subcommand_generates() {
    let dir = workdir("eip");
    let seeds = write_seeds(&dir);
    let out = dir.join("eip.txt");
    let status = bin()
        .args(["entropy-ip", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--out"])
        .arg(&out)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let targets = sixgen::datasets::io::read_hitlist_file(&out).expect("read");
    assert!(!targets.is_empty() && targets.len() <= 300);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_runs_fault_injected_scan() {
    let output = bin()
        .args([
            "simulate",
            "--hosts",
            "200",
            "--budget",
            "2000",
            "--bursty",
            "--rate-limit",
            "500",
            "--retries",
            "2",
            "--backoff",
            "100ms",
            "--retransmit-budget",
            "1000",
            "--rate-pps",
            "5000",
        ])
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("hit rate"), "{stdout}");
    assert!(stdout.contains("retransmits"), "{stdout}");
    assert!(stdout.contains("simulated duration"), "{stdout}");
}

#[test]
fn simulate_rejects_invalid_loss() {
    let output = bin()
        .args(["simulate", "--hosts", "50", "--loss", "1.5"])
        .output()
        .expect("run sixgen");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("loss"), "{stderr}");
}

#[test]
fn generate_respects_time_limit_flag() {
    let dir = workdir("deadline");
    let seeds = write_seeds(&dir);
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "100000", "--time-limit", "0ms"])
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("Deadline"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_metrics_out_emits_deterministic_json() {
    let dir = workdir("metrics");
    let seeds = write_seeds(&dir);
    let run = |tag: &str| {
        let out = dir.join(format!("targets-{tag}.txt"));
        let metrics = dir.join(format!("metrics-{tag}.json"));
        let status = bin()
            .args(["generate", "--seeds"])
            .arg(&seeds)
            .args(["--budget", "300", "--rng-seed", "42", "--out"])
            .arg(&out)
            .arg("--metrics-out")
            .arg(&metrics)
            .status()
            .expect("run sixgen");
        assert!(status.success());
        std::fs::read_to_string(&metrics).expect("read metrics json")
    };
    let a = run("a");
    let b = run("b");

    // The export carries the expected sections and engine metrics.
    for key in [
        "\"deterministic\"",
        "\"timing\"",
        "\"engine/budget_used\"",
        "\"engine/runs\"",
        "\"engine/candidate_set_size\"",
        "\"engine/cache_fill\"",
        "\"engine/select\"",
        "\"engine/commit\"",
        "\"engine/subsume\"",
    ] {
        assert!(a.contains(key), "missing {key} in {a}");
    }

    // The deterministic section (everything before the timing namespace)
    // is byte-identical across same-seed invocations.
    let det = |s: &str| s.split("\"timing\"").next().expect("has timing split").to_owned();
    assert_eq!(det(&a), det(&b), "deterministic metrics differ across runs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_trace_out_emits_valid_chrome_json() {
    let dir = workdir("trace");
    let seeds = write_seeds(&dir);
    let out = dir.join("targets.txt");
    let trace = dir.join("run.trace.json");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--rng-seed", "42", "--out"])
        .arg(&out)
        .arg("--trace-out")
        .arg(&trace)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let body = std::fs::read_to_string(&trace).expect("read trace json");
    sixgen::obs::validate_json(&body).expect("trace parses as JSON");
    // The export is a Chrome trace-event document with nested engine spans.
    assert!(body.contains("\"traceEvents\""), "{body}");
    for name in ["\"run\"", "\"cache_fill\"", "\"select\"", "\"growth_eval\""] {
        assert!(body.contains(name), "missing span {name}");
    }
    assert!(body.contains("\"cat\":\"engine\""), "{body}");
    assert!(body.contains("\"stream_write_errors\":0"), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracing_does_not_perturb_generated_targets() {
    let dir = workdir("trace-determinism");
    let seeds = write_seeds(&dir);
    let run = |tag: &str, traced: bool| {
        let out = dir.join(format!("targets-{tag}.txt"));
        let mut cmd = bin();
        cmd.args(["generate", "--seeds"])
            .arg(&seeds)
            .args(["--budget", "200", "--rng-seed", "7", "--out"])
            .arg(&out);
        if traced {
            cmd.arg("--trace-out").arg(dir.join(format!("{tag}.trace.json")));
        }
        let status = cmd.status().expect("run sixgen");
        assert!(status.success());
        std::fs::read_to_string(&out).expect("read targets")
    };
    let plain = run("plain", false);
    let traced = run("traced", true);
    assert_eq!(plain, traced, "tracing changed the generated targets");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_trace_summary_prints_table() {
    let dir = workdir("trace-summary");
    let seeds = write_seeds(&dir);
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "200", "--trace-summary", "--out"])
        .arg(dir.join("targets.txt"))
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("engine/run"), "{stdout}");
    assert!(stdout.contains("p99"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_prom_extension_selects_prometheus() {
    let dir = workdir("prom");
    let seeds = write_seeds(&dir);
    let metrics = dir.join("metrics.prom");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--out"])
        .arg(dir.join("targets.txt"))
        .arg("--metrics-out")
        .arg(&metrics)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let body = std::fs::read_to_string(&metrics).expect("read prom");
    assert!(body.contains("# TYPE sixgen_engine_runs_total counter"), "{body}");
    assert!(body.contains("sixgen_engine_candidate_set_size_bucket"), "{body}");
    assert!(body.contains("le=\"+Inf\""), "{body}");
    assert!(body.contains("_sum"), "{body}");
    assert!(body.contains("_count"), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_format_flag_overrides_extension() {
    let dir = workdir("prom-flag");
    let seeds = write_seeds(&dir);
    let metrics = dir.join("metrics.json");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "200", "--metrics-format", "prom", "--out"])
        .arg(dir.join("targets.txt"))
        .arg("--metrics-out")
        .arg(&metrics)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let body = std::fs::read_to_string(&metrics).expect("read prom");
    assert!(body.starts_with("# "), "not prometheus text: {body}");
    assert!(body.contains("sixgen_engine_runs_total"), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_trace_covers_prober_spans() {
    let dir = workdir("sim-trace");
    let trace = dir.join("sim.trace.json");
    let output = bin()
        .args(["simulate", "--hosts", "100", "--budget", "1000", "--trace-out"])
        .arg(&trace)
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let body = std::fs::read_to_string(&trace).expect("read trace");
    sixgen::obs::validate_json(&body).expect("trace parses as JSON");
    assert!(body.contains("\"cat\":\"prober\""), "{body}");
    assert!(body.contains("\"scan\""), "{body}");
    assert!(body.contains("\"cat\":\"engine\""), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeds in pairwise-distant dense groups: a multi-round run with one
/// growth per group, good for interrupting at many boundaries.
fn write_ladder_seeds(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("ladder.txt");
    let mut text = String::new();
    for group in 1..=9u32 {
        for host in 0..3u32 {
            text.push_str(&format!("2001:db8::{group}{group}{group}{host:x}\n"));
        }
    }
    std::fs::write(&path, text).expect("write seeds");
    path
}

#[test]
fn checkpointed_run_resumes_byte_identical() {
    let dir = workdir("checkpoint");
    let seeds = write_ladder_seeds(&dir);
    let baseline = dir.join("baseline.txt");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--out"])
        .arg(&baseline)
        .status()
        .expect("run sixgen");
    assert!(status.success());

    // Checkpointed run: every round snapshots to the same file.
    let ckpt = dir.join("run.ckpt");
    let full = dir.join("full.txt");
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--checkpoint-out"])
        .arg(&ckpt)
        .args(["--checkpoint-every", "1", "--out"])
        .arg(&full)
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("checkpoint(s) written"), "{stderr}");
    assert!(ckpt.exists(), "checkpoint file persisted");
    assert_eq!(
        std::fs::read_to_string(&baseline).unwrap(),
        std::fs::read_to_string(&full).unwrap(),
        "checkpointing changed the targets"
    );

    // Resume from the last boundary: no --seeds needed, same targets.
    let resumed = dir.join("resumed.txt");
    let output = bin()
        .args(["generate", "--resume"])
        .arg(&ckpt)
        .arg("--out")
        .arg(&resumed)
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&baseline).unwrap(),
        std::fs::read_to_string(&resumed).unwrap(),
        "resumed run diverged from the uninterrupted one"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_tops_up_budget_but_refuses_lowering_it() {
    let dir = workdir("resume-budget");
    let seeds = write_ladder_seeds(&dir);
    let ckpt = dir.join("run.ckpt");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--checkpoint-out"])
        .arg(&ckpt)
        .arg("--out")
        .arg(dir.join("full.txt"))
        .status()
        .expect("run sixgen");
    assert!(status.success());

    // Topping up continues past the original budget.
    let topped = dir.join("topped.txt");
    let status = bin()
        .args(["generate", "--resume"])
        .arg(&ckpt)
        .args(["--budget", "400", "--out"])
        .arg(&topped)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let count = std::fs::read_to_string(&topped).unwrap().lines().count();
    assert_eq!(count, 400, "topped-up budget fully consumed");

    // A budget below what was already generated is refused.
    let output = bin()
        .args(["generate", "--resume"])
        .arg(&ckpt)
        .args(["--budget", "1"])
        .output()
        .expect("run sixgen");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("below"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_garbage_checkpoint() {
    let dir = workdir("resume-garbage");
    let ckpt = dir.join("bogus.ckpt");
    std::fs::write(&ckpt, b"not a checkpoint").unwrap();
    let output = bin()
        .args(["generate", "--resume"])
        .arg(&ckpt)
        .output()
        .expect("run sixgen");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot load checkpoint"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_every_requires_checkpoint_out() {
    let dir = workdir("every-without-out");
    let seeds = write_ladder_seeds(&dir);
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--checkpoint-every", "2"])
        .output()
        .expect("run sixgen");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--checkpoint-out"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A routes file with a /32 holding a nested /48 and /64, a non-aligned
/// /17 and the /32 announced again by another AS, between comments and
/// blank lines.
const ROUTES: &str = "\
# routed prefixes

2001:db8::/32 64496
2001:db8:1::/48 64497   # inside the /32
2001:db8:1:2::/64 64498 # inside the /48

2a00:8000::/17 64499    # not nybble-aligned
2001:db8::/32 64500
";

/// Seeds inside every route, on the edges of the nested ones, and five
/// outside all of them (the last is one past the /17, the first one
/// before the /32).
fn routed_seeds() -> String {
    let mut seeds = Vec::new();
    for i in 1..=12u32 {
        seeds.push(format!("2001:db8::{i:x}"));
        seeds.push(format!("2001:db8:5::{:x}", i * 16));
    }
    for i in 1..=6u32 {
        seeds.push(format!("2001:db8:1::{i:x}"));
        seeds.push(format!("2001:db8:1:3::{:x}", i * 3));
        seeds.push(format!("2001:db8:1:2::{i:x}"));
        seeds.push(format!("2a00:8000::{i:x}"));
        seeds.push(format!("2a00:ffff:ffff:ffff::{i:x}"));
    }
    seeds.extend(
        [
            "2001:db8:1:2::",
            "2001:db8:1:2:ffff:ffff:ffff:ffff",
            "2001:db8:1:3::",
            "2001:db8:1:ffff:ffff:ffff:ffff:ffff",
            "2001:db8:2::",
            "2a00:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
            // Outside every route.
            "2001:db7:ffff:ffff:ffff:ffff:ffff:ffff",
            "2001:db9::1",
            "2a00:7fff:ffff:ffff:ffff:ffff:ffff:ffff",
            "fe80::1",
            "2a01::",
        ]
        .map(String::from),
    );
    seeds.join("\n") + "\n"
}

/// `--routes` shards seeds by longest-prefix match: the unrouted ones
/// are dropped with a count, any worker count writes the same targets,
/// and those targets are pinned by digest. A malformed prefix names its
/// file and line.
#[test]
fn routes_shard_by_longest_prefix_match() {
    let dir = workdir("routes");
    let seeds = dir.join("seeds.txt");
    std::fs::write(&seeds, routed_seeds()).expect("write seeds");
    let routes = dir.join("routes.txt");
    std::fs::write(&routes, ROUTES).expect("write routes");
    let run = |shards: &str| {
        let out = dir.join(format!("targets-{shards}.txt"));
        let output = bin()
            .args(["generate", "--seeds"])
            .arg(&seeds)
            .args(["--budget", "3000", "--rng-seed", "11", "--shards", shards])
            .arg("--routes")
            .arg(&routes)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("run sixgen");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(output.status.success(), "{stderr}");
        assert!(
            stderr.contains("warning: dropping 5 seed(s) outside every routed prefix"),
            "{stderr}"
        );
        assert!(stderr.contains(" from 4 shards "), "{stderr}");
        std::fs::read(&out).expect("read targets")
    };
    let one = run("1");
    assert_eq!(one, run("2"), "the worker count changed the targets");
    assert_eq!(one.iter().filter(|&&b| b == b'\n').count(), 3000);
    // Recorded before the routing table changed representation.
    assert_eq!(fnv1a(&one), 0x2beee92e4bcfe38e, "targets digest");

    let bad = dir.join("bad-routes.txt");
    std::fs::write(&bad, "# header\n2001:db8::/32 1\n2001:db8::/129 2\n").expect("write");
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--shards", "1", "--routes"])
        .arg(&bad)
        .output()
        .expect("run sixgen");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(&format!("{}:3: bad prefix", bad.display())),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--trace-out` streams every span: the file holds as many span events
/// as its trailer counts and as the success line reports.
#[test]
fn trace_stream_writes_incremental_document() {
    let dir = workdir("trace-stream");
    let seeds = write_ladder_seeds(&dir);
    let stream = dir.join("stream.json");
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--trace-out"])
        .arg(&stream)
        .arg("--out")
        .arg(dir.join("targets.txt"))
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let body = std::fs::read_to_string(&stream).expect("read streamed trace");
    sixgen::obs::validate_json(body.trim_end()).expect("streamed trace parses as JSON");
    for key in ["\"traceEvents\"", "\"cat\":\"engine\""] {
        assert!(body.contains(key), "missing {key}");
    }
    let spans = body.matches("\"ph\":\"X\"").count();
    assert!(spans > 0, "{body}");
    assert!(
        body.contains(&format!(
            "\"spans_streamed\":{spans},\"stream_write_errors\":0"
        )),
        "{body}"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let written = format!("trace written to {} ({spans} spans)", stream.display());
    assert!(stderr.contains(&written), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--trace-out` path that cannot be created fails the command before
/// the run, as an `--events-out` path does.
#[test]
fn uncreatable_trace_file_fails_before_the_run() {
    let dir = workdir("trace-uncreatable");
    let seeds = write_seeds(&dir);
    let out = dir.join("targets.txt");
    let trace = dir.join("missing").join("run.trace.json");
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "100", "--out"])
        .arg(&out)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("run sixgen");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("cannot create {}", trace.display())),
        "{stderr}"
    );
    assert!(!stderr.contains("6Gen:"), "the run started: {stderr}");
    assert!(!out.exists(), "no targets before a failed start");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observe_and_events_out_do_not_perturb_targets() {
    let dir = workdir("observe");
    let seeds = write_ladder_seeds(&dir);
    let plain = dir.join("plain.txt");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--out"])
        .arg(&plain)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let observed = dir.join("observed.txt");
    let events = dir.join("events.ndjson");
    // Port 0: the OS picks a free port, so parallel tests never collide.
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--observe", "127.0.0.1:0", "--events-out"])
        .arg(&events)
        .arg("--out")
        .arg(&observed)
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("observer listening on http://127.0.0.1:"),
        "{stderr}"
    );
    assert!(stderr.contains("events streamed to"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&plain).expect("read plain"),
        std::fs::read_to_string(&observed).expect("read observed"),
        "observer must not perturb the target stream"
    );
    let ndjson = std::fs::read_to_string(&events).expect("read events");
    let lines: Vec<&str> = ndjson.lines().collect();
    assert!(!lines.is_empty(), "event stream is empty");
    for line in &lines {
        sixgen::obs::validate_json(line).expect("event line parses as JSON");
    }
    assert!(lines[0].contains("\"kind\":\"session_start\""), "{}", lines[0]);
    assert!(
        lines.iter().any(|l| l.contains("\"kind\":\"session_end\"")),
        "no session_end in stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `generate` at budget 100 over `seeds` into `out`, plus `extra`.
fn generate_into(
    seeds: &std::path::Path,
    out: &std::path::Path,
    extra: &[&str],
) -> std::process::Output {
    bin()
        .args(["generate", "--seeds"])
        .arg(seeds)
        .args(["--budget", "100", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("run sixgen")
}

/// A work dir with four seeds and the targets of a plain run over them,
/// or `None` on a platform without `/dev/full`, where the sink-failure
/// tests skip.
fn dev_full_fixture(name: &str) -> Option<(PathBuf, PathBuf, String)> {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipped: this platform has no /dev/full");
        return None;
    }
    let dir = workdir(name);
    let seeds = dir.join("seeds.txt");
    std::fs::write(&seeds, "2001:db8::1\n2001:db8::2\n2001:db8::3\n2001:db8::11\n")
        .expect("write seeds");
    let plain = dir.join("plain.txt");
    assert!(generate_into(&seeds, &plain, &[]).status.success());
    let expected = std::fs::read_to_string(&plain).expect("read plain");
    Some((dir, seeds, expected))
}

/// A stream that cannot be written, even only at its final flush, warns
/// and costs the run nothing: exit 0 and the plain run's targets. The
/// warning says the file is incomplete and claims no count of records:
/// the stream counts what it handed its buffer, not what reached the
/// file.
#[test]
fn failing_streams_warn_and_keep_the_targets() {
    let Some((dir, seeds, expected)) = dev_full_fixture("stream-full") else {
        return;
    };
    for (flag, what) in [("--events-out", "event"), ("--trace-out", "trace")] {
        let out = dir.join(format!("{}.txt", &flag[2..]));
        let output = generate_into(&seeds, &out, &[flag, "/dev/full"]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("warning: {what} stream to /dev/full failed")),
            "{flag}: {stderr}"
        );
        assert!(
            stderr.contains(&format!(
                "warning: {what} stream to /dev/full failed; the file is incomplete\n"
            )),
            "{flag}: {stderr}"
        );
        let targets = std::fs::read_to_string(&out).expect("targets written");
        assert_eq!(targets, expected, "{flag}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A metrics file that cannot be written fails the command, but only
/// after the targets are written, and it still lets the `--trace-out`
/// document close.
#[test]
fn unwritable_metrics_file_fails_after_the_targets() {
    let Some((dir, seeds, expected)) = dev_full_fixture("file-full") else {
        return;
    };
    let out = dir.join("metrics-out.txt");
    let output = generate_into(&seeds, &out, &["--metrics-out", "/dev/full/file"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write /dev/full/file"), "{stderr}");
    let targets = std::fs::read_to_string(&out).expect("targets written first");
    assert_eq!(targets, expected);
    let out = dir.join("metrics-and-stream.txt");
    let stream = dir.join("stream.json");
    let stream_arg = stream.to_str().expect("utf-8 path");
    let output = generate_into(
        &seeds,
        &out,
        &[
            "--metrics-out",
            "/dev/full/file",
            "--trace-out",
            stream_arg,
        ],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot write /dev/full/file"), "{stderr}");
    let text = std::fs::read_to_string(&stream).expect("stream file");
    sixgen::obs::validate_json(&text).expect("the trace stream is closed");
    let targets = std::fs::read_to_string(&out).expect("targets written first");
    assert_eq!(targets, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_flag_reports_and_does_not_perturb() {
    let dir = workdir("progress");
    let seeds = write_ladder_seeds(&dir);
    let plain = dir.join("plain.txt");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--rng-seed", "7", "--out"])
        .arg(&plain)
        .status()
        .expect("run sixgen");
    assert!(status.success());
    let reported = dir.join("reported.txt");
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "300", "--rng-seed", "7", "--progress", "--out"])
        .arg(&reported)
        .output()
        .expect("run sixgen");
    assert!(output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    // The reporter always paints a final line at shutdown, even when the
    // run finishes before the first 250 ms repaint tick.
    assert!(stderr.contains("6gen:"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&plain).expect("read plain"),
        std::fs::read_to_string(&reported).expect("read reported"),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn observe_rejects_unbindable_address() {
    let dir = workdir("observe-bad");
    let seeds = write_seeds(&dir);
    let output = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "100", "--observe", "definitely-not-an-addr", "--out"])
        .arg(dir.join("targets.txt"))
        .output()
        .expect("run sixgen");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("observe"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_accepts_job_and_streams_targets() {
    use std::io::{Read, Write};
    let dir = workdir("serve");
    let seeds = write_seeds(&dir);
    // Reference run through the ordinary CLI path.
    let reference = dir.join("reference.txt");
    let status = bin()
        .args(["generate", "--seeds"])
        .arg(&seeds)
        .args(["--budget", "200", "--rng-seed", "21", "--out"])
        .arg(&reference)
        .status()
        .expect("run sixgen");
    assert!(status.success());

    // Start the server on an ephemeral port; --addr-file tells us where.
    let addr_file = dir.join("addr");
    let mut server = bin()
        .args(["serve", "127.0.0.1:0", "--addr-file"])
        .arg(&addr_file)
        .spawn()
        .expect("spawn server");
    let addr = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    break text.trim().to_string();
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never published its address");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    };

    let exchange = |request: &[u8]| -> Vec<u8> {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .expect("set timeout");
        stream.write_all(request).expect("write request");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read response");
        response
    };
    let upload = std::fs::read(&seeds).expect("read seeds");
    let post = [
        format!(
            "POST /jobs?budget=200&rng_seed=21 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            upload.len()
        )
        .into_bytes(),
        upload,
    ]
    .concat();
    let response = exchange(&post);
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 201"), "{text}");

    // Stream the targets and de-chunk them.
    let response = exchange(b"GET /jobs/1/targets HTTP/1.1\r\nHost: t\r\n\r\n");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let mut raw = &response[split + 4..];
    let mut streamed = Vec::new();
    loop {
        let line_end = raw.windows(2).position(|w| w == b"\r\n").expect("chunk size");
        let size =
            usize::from_str_radix(std::str::from_utf8(&raw[..line_end]).unwrap().trim(), 16)
                .expect("hex size");
        raw = &raw[line_end + 2..];
        if size == 0 {
            break;
        }
        streamed.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..];
    }
    assert_eq!(
        streamed,
        std::fs::read(&reference).expect("read reference"),
        "served stream diverges from sixgen generate"
    );
    server.kill().expect("kill server");
    server.wait().expect("reap server");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_requires_listen_address() {
    let status = bin().args(["serve"]).status().expect("run");
    assert_eq!(status.code(), Some(2));
    let status = bin()
        .args(["serve", "--checkpoint-dir", "/tmp/x"])
        .status()
        .expect("run");
    assert_eq!(status.code(), Some(2), "flags must not be mistaken for ADDR");
}

#[test]
fn bad_usage_exits_nonzero() {
    let status = bin().status().expect("run sixgen");
    assert_eq!(status.code(), Some(2));
    let status = bin().args(["generate"]).status().expect("run");
    assert_eq!(status.code(), Some(1), "--seeds missing is an error");
    let status = bin()
        .args(["generate", "--seeds", "/definitely/missing/file.txt"])
        .status()
        .expect("run");
    assert_eq!(status.code(), Some(1));
    let status = bin().args(["frobnicate"]).status().expect("run");
    assert_eq!(status.code(), Some(2));
    // `--trace-out` streams; there is no separate stream option.
    let status = bin()
        .args(["generate", "--trace-stream", "t.json"])
        .status()
        .expect("run");
    assert_eq!(status.code(), Some(2));
}
