//! The sixgen benchmark: one command per workload, end to end with
//! `--trace 0` and layer by layer with `--trace 1`.
//!
//! ```text
//! perfbench --workload <prefix_100k|internet_scan|adaptive_scan|serve_jobs>
//!           --seed <n> --seconds <s> --trace <0|1> [--sixgen <path>]
//! ```
//!
//! Run it from the repository root (through `perfbench/run.sh`, which
//! builds it and the `sixgen` binary first). Every input derives from
//! `--seed`; the program receives only the generated inputs. The last
//! line of standard output is the JSON result; the lines before it name
//! every metric with its unit and sample count, the environment, and
//! any failed check. The exit code is non-zero when any check failed.

mod common;
mod env;
mod http;
mod report;
mod stats;
mod trace;
mod workloads;

use common::Opts;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by name.
const WORKLOADS: &[&str] = &[
    "prefix_100k",
    "internet_scan",
    "adaptive_scan",
    "serve_jobs",
];

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--sixgen <path>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sixgen = PathBuf::from("target/release/sixgen");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            "--sixgen" => sixgen = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // Working files live in the checkout: the benchmark writes nowhere
    // else.
    let base = PathBuf::from(".perfbench-run");
    Ok(Opts {
        run_dir: base.join(format!("{workload}-{seed}-{}", std::process::id())),
        state_dir: base.join("state"),
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sixgen,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => return usage(&message),
    };
    for dir in [&opts.run_dir, &opts.state_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let stamp = env::EnvStamp::collect(opts.seed, &opts.run_dir);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.trace)
    );
    println!("env {}", stamp.to_json());
    let mut report = Report::default();
    match opts.workload.as_str() {
        "prefix_100k" => workloads::prefix::run(&opts, &mut report),
        "internet_scan" => workloads::scan::run(&opts, &mut report),
        "adaptive_scan" => workloads::adaptive::run(&opts, &mut report),
        "serve_jobs" => workloads::serve::run(&opts, &mut report),
        _ => unreachable!("workload names are checked while parsing"),
    }
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    for line in report.lines() {
        println!("{line}");
    }
    println!(
        "operations attempted={} failed={} failure_share={}",
        report.attempted,
        report.failed,
        stats::failure_share(report.attempted, report.failed)
    );
    println!("{}", report.json(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
