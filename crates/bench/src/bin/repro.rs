//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENTS
//!   fig2      runtime scaling
//!   fig3      AS-level CDFs (alias of table1)
//!   fig4      hits vs budget
//!   fig5      cluster-count CDFs
//!   fig6      dynamic-nybble positions
//!   fig7      hits per prefix by seed bucket
//!   fig8      CDN train-and-test (6Gen vs Entropy/IP)
//!   fig9      CDN active scans (6Gen vs Entropy/IP)
//!   table1    top ASes by seeds / aliased / non-aliased hits
//!   table2    seed downsampling
//!   tight     tight vs loose ranges (§6.3)
//!   hosttype  NS-only seeds (§6.7.1)
//!   dealias   alias survey (§6.2)
//!   adaptive  §8 scanner-integration extension
//!   budgetpolicy  §8 budget-allocation ablation
//!   eipranked  §7.1 budget-aware Entropy/IP ablation
//!   faults    hit rate vs fault severity, fixed vs adaptive retries
//!   trajectory  core perf trajectory -> BENCH_core.json
//!   trajectory-check  validate committed BENCH_core.json (schema, 100K
//!                     point, growth_eval p95 regression <= 25% at 30K /
//!                     <= 50% at 300K, event-bus disabled-path overhead
//!                     < 2% with identical targets)
//!   chaos     session fault-injection harness: worker panics, kill+resume,
//!             checkpoint-write I/O faults, deadline jitter, corruption
//!             (exits non-zero on any recovery-invariant violation)
//!   all       everything above (except trajectory and chaos)
//!
//! OPTIONS
//!   --scale <f64>    world scale factor           (default 1.0)
//!   --budget <u64>   per-prefix probe budget      (default 50000)
//!   --results <dir>  TSV output directory         (default results)
//!   --threads <n>    6Gen worker threads, 0=auto  (default 0)
//!   --quick          reduced sweeps for smoke runs
//!   --metrics-out <file>  write the aggregated metrics registry as JSON
//!                         (a `.prom` extension selects Prometheus text
//!                         exposition instead)
//!   --trace-out <file>    stream every span of the run to <file> as
//!                         Chrome trace-event JSON (loadable in Perfetto /
//!                         chrome://tracing)
//!   --trace-summary       print a per-span-kind self-time summary table
//!   --observe <addr>      serve read-only GET /metrics, /status, and
//!                         /healthz on <addr> while the experiments run
//! ```

use sixgen_bench::experiments::{
    self, adaptive_loop, budget_policy, cdn_compare, dealias_survey, eip_ranked, fault_severity, fig2_runtime, fig4_budget,
    fig5_clusters, fig6_nybbles, fig7_hits, host_type, table1_ases, table2_downsampling, tight_vs_loose,
    ExperimentOptions,
};
use sixgen_bench::{chaos, trajectory};
use sixgen_obs::{maybe_span, EventBus, MetricsRegistry, Observer, ObserverSources, SpanId, TraceSink};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale F] [--budget N] [--results DIR] [--threads N] [--quick] \
         [--metrics-out FILE[.prom]] [--trace-out FILE] [--trace-summary] [--observe ADDR] \
         <fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|table1|table2|tight|hosttype|dealias|adaptive|budgetpolicy|eipranked|faults|trajectory|trajectory-check|chaos|all>..."
    );
    std::process::exit(2);
}

/// Maps a user-supplied experiment name onto the identical `'static`
/// string, for use as a span name (span names must be `&'static str` so
/// recording never allocates).
fn static_name(name: &str) -> &'static str {
    const NAMES: &[&str] = &[
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2",
        "tight", "hosttype", "dealias", "adaptive", "budgetpolicy", "eipranked", "faults",
        "trajectory", "trajectory-check", "chaos", "all",
    ];
    NAMES
        .iter()
        .find(|&&n| n == name)
        .copied()
        .unwrap_or("experiment")
}

fn main() {
    let mut opts = ExperimentOptions::default();
    let mut wanted: Vec<String> = Vec::new();
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_summary = false;
    let mut observe: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.next().map(Into::into).unwrap_or_else(|| usage()))
            }
            "--trace-out" => {
                trace_out = Some(args.next().map(Into::into).unwrap_or_else(|| usage()))
            }
            "--trace-summary" => trace_summary = true,
            "--observe" => observe = Some(args.next().unwrap_or_else(|| usage())),
            "--scale" => {
                opts.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--budget" => {
                opts.budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--results" => {
                opts.results_dir = args.next().map(Into::into).unwrap_or_else(|| usage())
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--quick" => opts.quick = true,
            "--help" | "-h" => usage(),
            name if !name.starts_with('-') => wanted.push(name.to_owned()),
            _ => usage(),
        }
    }
    if wanted.is_empty() {
        usage();
    }
    if metrics_out.is_some() || observe.is_some() {
        opts.metrics = Some(MetricsRegistry::shared());
    }
    if trace_out.is_some() || trace_summary {
        let sink = TraceSink::shared();
        if let Some(path) = &trace_out {
            let attached = std::fs::File::create(path).and_then(|file| {
                sink.stream_to(Box::new(std::io::BufWriter::new(file)))
            });
            if let Err(e) = attached {
                eprintln!("error: cannot create {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        opts.trace = Some(sink);
    }
    let observer = observe.as_ref().map(|addr| {
        opts.events = Some(EventBus::shared());
        let observer = Observer::bind(
            addr,
            ObserverSources {
                metrics: opts.metrics.clone(),
                events: opts.events.clone(),
                trace: opts.trace.clone(),
                checkpoint: None,
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind observer on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "observer listening on http://{} (/metrics /status /healthz)",
            observer.local_addr()
        );
        observer
    });

    for name in &wanted {
        // One root span per experiment; engine/prober/pipeline spans nest
        // under whatever they create themselves (parented to their own run
        // roots), so this mainly delimits experiments on the trace timeline.
        let _span = maybe_span(opts.trace.as_deref(), "repro", static_name(name), SpanId::NONE);
        match name.as_str() {
            "fig2" => fig2_runtime::run(&opts),
            "fig3" | "table1" => {
                table1_ases::run(&opts);
            }
            "fig4" => fig4_budget::run(&opts),
            "fig5" | "fig6" | "fig7" => {
                // These three share one pipeline run.
                let run = table1_ases::run(&opts);
                match name.as_str() {
                    "fig5" => fig5_clusters::run(&opts, &run),
                    "fig6" => fig6_nybbles::run(&opts, &run),
                    _ => fig7_hits::run(&opts, &run),
                }
            }
            "fig8" => cdn_compare::run_train_test(&opts),
            "fig9" => cdn_compare::run_active_scans(&opts),
            "table2" => table2_downsampling::run(&opts),
            "tight" => tight_vs_loose::run(&opts),
            "hosttype" => host_type::run(&opts),
            "dealias" => dealias_survey::run(&opts),
            "adaptive" => adaptive_loop::run(&opts),
            "budgetpolicy" => budget_policy::run(&opts),
            "eipranked" => eip_ranked::run(&opts),
            "faults" => fault_severity::run(&opts),
            "trajectory" => trajectory::run(&opts),
            "trajectory-check" => {
                if !trajectory::check(&opts, &trajectory::default_output()) {
                    std::process::exit(1);
                }
            }
            "chaos" => {
                if !chaos::run(&opts) {
                    std::process::exit(1);
                }
            }
            "all" => run_all(&opts),
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        }
    }
    if let Some(observer) = observer {
        observer.shutdown();
    }
    if let Some(sink) = &opts.trace {
        if let Some(path) = &trace_out {
            if sink.finish_stream().is_err() || sink.stream_errors() > 0 {
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
        if trace_summary {
            println!("\n{}", sink.render_summary());
        }
    }
    if let (Some(path), Some(registry)) = (&metrics_out, &opts.metrics) {
        let prom = path.extension().is_some_and(|e| e == "prom");
        let body = if prom {
            registry.to_prometheus()
        } else {
            registry.to_json()
        };
        sixgen_obs::write_atomic(path, body.as_bytes()).expect("write metrics");
        eprintln!(
            "metrics written to {} ({})",
            path.display(),
            if prom { "prometheus" } else { "json" }
        );
    }
    experiments::banner_done(&opts);
}

fn run_all(opts: &ExperimentOptions) {
    fig2_runtime::run(opts);
    // One pipeline run shared by table1/fig3/fig5/fig6/fig7.
    let run = table1_ases::run(opts);
    fig5_clusters::run(opts, &run);
    fig6_nybbles::run(opts, &run);
    fig7_hits::run(opts, &run);
    drop(run);
    fig4_budget::run(opts);
    dealias_survey::run(opts);
    tight_vs_loose::run(opts);
    host_type::run(opts);
    table2_downsampling::run(opts);
    adaptive_loop::run(opts);
    budget_policy::run(opts);
    eip_ranked::run(opts);
    fault_severity::run(opts);
    cdn_compare::run(opts);
}
