//! `prefix_100k`: one `Session` over 100 000 seeds of one routed prefix,
//! read from a hitlist file, with the paper's 1 M budget, and the
//! targets written back out. Figure 2's largest point: the engine does
//! all the work.

use super::{Iteration, Workload, SETUP_REPS};
use crate::common::{digest, engine_phases, peak_rss_mb, same_as_earlier_runs, timed_setup, Opts};
use crate::env::nproc;
use crate::report::Report;
use crate::trace::{durations_ms, named, Span, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sixgen_addr::NybbleAddr;
use sixgen_core::{Config, Session, SixGen, Step};
use sixgen_datasets::io::{read_hitlist_file, write_hitlist, write_hitlist_file};
use sixgen_obs::MetricsRegistry;
use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Seeds in the prefix.
pub const SEEDS: usize = 100_000;
/// The paper's probe budget.
pub const BUDGET: u64 = 1_000_000;

/// Figure 2's hosting-provider shape: sequential low bytes spread over
/// 48 /64s of one /32, and every seventh seed with a random 16-bit part.
pub fn hosting_seeds(count: usize, rng: &mut StdRng) -> Vec<NybbleAddr> {
    (0..count)
        .map(|i| {
            let subnet = (i % 48) as u128;
            let structured = (i / 48 + 1) as u128;
            let noise: u128 = if i % 7 == 0 {
                u128::from(rng.gen::<u16>())
            } else {
                0
            };
            NybbleAddr::from_bits(
                (0x2600_3c00u128 << 96) | (subnet << 64) | (noise << 16) | structured,
            )
        })
        .collect()
}

/// Checks a finished run's targets: exactly `budget` of them, no
/// duplicates, and every seed among them.
pub fn check_targets(targets: &[NybbleAddr], seeds: &[NybbleAddr], budget: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if targets.len() as u64 != budget {
        problems.push(format!("{} targets, budget {budget}", targets.len()));
    }
    let unique: HashSet<NybbleAddr> = targets.iter().copied().collect();
    if unique.len() != targets.len() {
        problems.push(format!(
            "{} duplicate targets",
            targets.len() - unique.len()
        ));
    }
    let missing = seeds.iter().filter(|s| !unique.contains(s)).count();
    if missing > 0 {
        problems.push(format!("{missing} seeds missing from the targets"));
    }
    problems
}

struct State {
    opts: Opts,
    seeds: Vec<NybbleAddr>,
    input: PathBuf,
    output: PathBuf,
    digests: Vec<u64>,
    registry: Option<Arc<MetricsRegistry>>,
}

/// Runs the workload.
pub fn run(opts: &Opts, report: &mut Report) {
    let input = opts.run_dir.join("seeds.txt");
    let reps = SETUP_REPS;
    let (seeds, setup_s) = timed_setup(reps, || {
        let mut rng = StdRng::seed_from_u64(opts.derive(1));
        let seeds = hosting_seeds(SEEDS, &mut rng);
        write_hitlist_file(&input, &seeds).expect("write the seed hitlist");
        seeds
    });
    let mut state = State {
        opts: opts.clone(),
        seeds,
        input,
        output: opts.run_dir.join("targets.txt"),
        digests: Vec::new(),
        registry: None,
    };
    super::drive(opts, setup_s, reps, &mut state, report);
}

impl Workload for State {
    fn iteration(&mut self, tracer: &Tracer, report: &mut Report) -> Iteration {
        let registry = tracer.enabled().then(MetricsRegistry::shared);
        let config = Config {
            budget: BUDGET,
            threads: nproc(),
            rng_seed: self.opts.derive(2),
            metrics: registry.clone(),
            ..Config::default()
        };
        let start = Instant::now();
        let seeds = tracer.span("datasets.read_hitlist", 0, || {
            read_hitlist_file(&self.input)
        });
        let seeds = seeds.expect("read the seed hitlist");
        let engine = tracer.span("core.new", 0, || SixGen::new(seeds, config));
        let mut session = tracer.span("core.start", 0, || engine.session());
        let mut step = traced_step(tracer, &mut session, true, 0);
        while !matches!(step, Step::Done(_)) {
            step = traced_step(tracer, &mut session, false, 0);
        }
        let outcome = tracer.span("core.finish", 0, || session.finish());
        let written = tracer.span("datasets.write_hitlist", 0, || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&self.output)?);
            write_hitlist(&mut out, outcome.targets.as_slice())?;
            out.flush()
        });
        let end = Instant::now();
        let rss = peak_rss_mb("self");

        let mut problems = Vec::new();
        if let Err(e) = written {
            problems.push(format!("writing targets failed: {e}"));
        }
        match std::fs::read(&self.output) {
            Ok(bytes) => {
                let d = digest(&bytes);
                match self.digests.first() {
                    // The first iteration's targets are checked one by
                    // one; a later iteration must write the same file.
                    None => {
                        problems.extend(check_targets(
                            outcome.targets.as_slice(),
                            &self.seeds,
                            BUDGET,
                        ));
                        let key = format!("prefix_100k-{}.digest", self.opts.seed);
                        problems.extend(same_as_earlier_runs(
                            &self.opts.state_dir,
                            &key,
                            &format!("{d:016x}"),
                        ));
                    }
                    Some(&first) if first != d => {
                        problems.push(format!(
                            "target digest {d:016x} differs from the run's first"
                        ));
                    }
                    Some(_) => {}
                }
                self.digests.push(d);
            }
            Err(e) => problems.push(format!("cannot read back targets: {e}")),
        }
        report.operation(problems);
        self.registry = registry;
        Iteration {
            start,
            end,
            peak_rss_mb: rss,
        }
    }

    fn layer_metrics(&mut self, spans: &[Span], report: &mut Report) {
        single_engine_layers(spans, self.seeds.len(), report);
        if let Some(registry) = &self.registry {
            engine_phases(report, registry);
        }
        report.notes.push(format!(
            "target digest {:016x}",
            self.digests.last().copied().unwrap_or(0)
        ));
    }
}

/// Steps `session` once inside a span named for where the step falls:
/// the first (the all-N cache fill), a later round, or the terminal one
/// (final sampling). The span counts the targets the step added.
pub fn traced_step(tracer: &Tracer, session: &mut Session, first: bool, group: u64) -> Step {
    let before = session.budget_used();
    let began = Instant::now();
    let step = session.step();
    let name = match (first, step) {
        (true, _) => "core.first_step",
        (false, Step::Done(_)) => "core.final_step",
        (false, _) => "core.step",
    };
    let added = session.budget_used() - before;
    tracer.record(name, group, began, Instant::now(), added);
    step
}

/// Per-layer metrics of single-engine runs driven step by step, from
/// spans named as in [`Workload::iteration`] above (also used by the
/// serve replay, whose sessions are driven the same way). Values are
/// per run: the median over runs where several were traced.
pub fn single_engine_layers(spans: &[Span], seeds_per_run: usize, report: &mut Report) {
    let runs = named(spans, "core.start").count().max(1);
    let median_of = |name: &'static str| crate::stats::median(&durations_ms(spans, name));
    report.set(
        "datasets.parse_ms",
        median_of("datasets.read_hitlist"),
        runs,
    );
    report.set(
        "datasets.write_ms",
        median_of("datasets.write_hitlist"),
        runs,
    );
    report.set("core.new_ms", median_of("core.new"), runs);
    report.set("core.start_ms", median_of("core.start"), runs);
    let first_step = median_of("core.first_step");
    report.set("core.first_step_ms", first_step, runs);
    report.set(
        "core.fill_us_per_seed",
        first_step * 1e3 / seeds_per_run.max(1) as f64,
        runs,
    );
    let steps: Vec<f64> = durations_ms(spans, "core.step")
        .iter()
        .map(|v| v * 1e3)
        .collect();
    report.set("core.steps", steps.len() as f64 / runs as f64, runs);
    report.set_percentile("core.step_us_p50", &steps, 50.0);
    report.set_percentile("core.step_us_p99", &steps, 99.0);
    report.set("core.final_step_ms", median_of("core.final_step"), runs);
    report.set("core.finish_ms", median_of("core.finish"), runs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_shape_is_unique_and_seeded() {
        let a = hosting_seeds(700, &mut StdRng::seed_from_u64(1));
        let b = hosting_seeds(700, &mut StdRng::seed_from_u64(1));
        let c = hosting_seeds(700, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let unique: HashSet<_> = a.iter().collect();
        assert_eq!(unique.len(), a.len());
    }

    #[test]
    fn one_flipped_target_is_reported() {
        let seeds = hosting_seeds(50, &mut StdRng::seed_from_u64(3));
        let outcome = SixGen::new(seeds.clone(), Config::with_budget(400)).run();
        let mut targets = outcome.targets.into_vec();
        assert!(check_targets(&targets, &seeds, 400).is_empty());
        // Replace the first target (a seed) with an address not generated.
        let flipped = NybbleAddr::from_bits(targets[0].bits() ^ (1 << 100));
        assert!(!targets.contains(&flipped));
        targets[0] = flipped;
        let problems = check_targets(&targets, &seeds, 400);
        assert!(!problems.is_empty(), "a flipped target must fail the check");
        // A duplicated target fails too.
        targets[0] = targets[1];
        assert!(check_targets(&targets, &seeds, 400)
            .iter()
            .any(|p| p.contains("duplicate")));
    }
}
