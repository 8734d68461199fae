//! The four workloads, and [`drive`], which runs any of them untraced
//! (end-to-end metrics) or traced (per-layer metrics).

pub mod adaptive;
pub mod prefix;
pub mod scan;
pub mod serve;

use crate::common::{repeat, Opts};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{summary, unattributed_frac, Span, Tracer};
use std::time::Instant;

/// Set-ups per run: `setup_s` is their median, which keeps a single
/// slow set-up (the machine is shared) out of the reported figure.
pub const SETUP_REPS: usize = 11;

/// What one timed iteration measured.
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    /// First call into the system.
    pub start: Instant,
    /// Complete output in hand.
    pub end: Instant,
    /// Peak resident set of the process that ran the system, read
    /// before the output checks.
    pub peak_rss_mb: f64,
}

impl Iteration {
    /// The iteration's wall time in seconds.
    pub fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// A workload after its set-up.
pub trait Workload {
    /// Runs the timed section once, then checks its outputs into
    /// `report` (one operation per unit of work, failures counted).
    /// With an enabled tracer it records a span around every call into
    /// the program.
    fn iteration(&mut self, tracer: &Tracer, report: &mut Report) -> Iteration;

    /// Derives the per-layer metrics from the traced iteration's spans
    /// (and whatever else the workload kept from it).
    fn layer_metrics(&mut self, spans: &[Span], report: &mut Report);

    /// Checks left until every iteration has run (for outputs whose
    /// reference is expensive to compute).
    fn finish(&mut self, _report: &mut Report) {}
}

/// Runs a set-up workload: untraced iterations for the end-to-end
/// metrics, or, for a traced run, untraced iterations for the baseline
/// and then one traced iteration for the per-layer metrics.
pub fn drive(
    opts: &Opts,
    setup_s: f64,
    setup_reps: usize,
    workload: &mut dyn Workload,
    report: &mut Report,
) {
    report.set("setup_s", setup_s, setup_reps);
    let untraced = Tracer::new(false);
    let budget = if opts.trace {
        opts.seconds / 2
    } else {
        opts.seconds
    };
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    repeat(budget, || {
        let it = workload.iteration(&untraced, report);
        walls.push(it.wall_s());
        rss.push(it.peak_rss_mb);
        it.end.duration_since(it.start)
    });
    let untraced_wall = median(&walls);
    report.set("wall_s", untraced_wall, walls.len());
    report
        .notes
        .push(format!("wall_s of each iteration: {walls:?}"));
    // Only the first reading is clean: in the benchmark's own process
    // the high-water mark of a later iteration includes the output
    // checks of the ones before it.
    report.set("peak_rss_mb", rss[0], 1);
    if opts.trace {
        traced_iteration(opts, untraced_wall, walls.len(), workload, report);
    }
    workload.finish(report);
}

fn traced_iteration(
    opts: &Opts,
    untraced_wall: f64,
    untraced_runs: usize,
    workload: &mut dyn Workload,
    report: &mut Report,
) {
    let tracer = Tracer::new(true);
    let it = workload.iteration(&tracer, report);
    tracer.close_root("bench.iteration", it.start, it.end);
    let spans = tracer.spans();
    workload.layer_metrics(&spans, report);
    report.set(
        "trace_overhead_frac",
        it.wall_s() / untraced_wall - 1.0,
        untraced_runs + 1,
    );
    report.set("unattributed_frac", unattributed_frac(&spans), spans.len());
    let path = opts
        .state_dir
        .join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    if let Err(e) = tracer.write_chrome(&path) {
        report.notes.push(format!("cannot write trace: {e}"));
    }
    report.notes.push(format!("{} spans recorded", spans.len()));
    report.notes.extend(summary(&spans));
}
