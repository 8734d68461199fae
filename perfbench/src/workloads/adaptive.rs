//! `adaptive_scan`: the §8 scanner-integrated loop, once per routed
//! prefix of a half-scale world, with `Prober::probe` answering every
//! probe. The only caller of `core::adaptive`, whose cost grows faster
//! than its input.

use super::scan::{routed_groups, world_and_seeds};
use super::{Iteration, Workload, SETUP_REPS};
use crate::common::{peak_rss_mb, same_as_earlier_runs, timed_setup, Opts};
use crate::report::Report;
use crate::trace::{durations_ms, total_ms, Span, Tracer};
use sixgen_addr::NybbleAddr;
use sixgen_core::{adaptive_scan, AdaptiveConfig, AdaptiveOutcome};
use sixgen_simnet::{Internet, ProbeConfig, Prober};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// World scale.
const SCALE: f64 = 0.5;
/// Probe budget of each prefix's adaptive scan.
pub const BUDGET: u64 = 50_000;
/// Scanned port.
const PORT: u16 = 80;

/// Checks one prefix's adaptive outcome: no more probes than the
/// budget, and hits unique and responsive.
pub fn check_outcome(internet: &Internet, outcome: &AdaptiveOutcome, budget: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if outcome.probes_used > budget {
        problems.push(format!(
            "{} probes used, budget {budget}",
            outcome.probes_used
        ));
    }
    let unique: HashSet<NybbleAddr> = outcome.hits.iter().copied().collect();
    if unique.len() != outcome.hits.len() {
        problems.push(format!(
            "{} duplicate hits",
            outcome.hits.len() - unique.len()
        ));
    }
    let silent = outcome
        .hits
        .iter()
        .filter(|h| !internet.is_responsive(**h, PORT))
        .count();
    if silent > 0 {
        problems.push(format!("{silent} hits are not responsive"));
    }
    problems
}

struct State {
    opts: Opts,
    internet: Internet,
    seeds: Vec<NybbleAddr>,
    hits_seen: Vec<usize>,
    traced: Option<Traced>,
}

/// Counts the traced iteration keeps beside its spans.
struct Traced {
    probe_calls: u64,
    probe_time: Duration,
    probe_hits: u64,
    packets: u64,
    retransmits: u64,
    growths: u64,
    hits: u64,
    probes_used: u64,
    dealiased_hits: usize,
}

/// Runs the workload.
pub fn run(opts: &Opts, report: &mut Report) {
    let reps = SETUP_REPS;
    let ((internet, seeds), setup_s) = timed_setup(reps, || world_and_seeds(opts, SCALE));
    let mut state = State {
        opts: opts.clone(),
        internet,
        seeds,
        hits_seen: Vec::new(),
        traced: None,
    };
    super::drive(opts, setup_s, reps, &mut state, report);
}

impl Workload for State {
    fn iteration(&mut self, tracer: &Tracer, report: &mut Report) -> Iteration {
        let traced = tracer.enabled();
        let mut probe_calls = 0u64;
        let mut probe_time = Duration::ZERO;
        let mut probe_hits = 0u64;
        let mut outcomes = Vec::new();
        let start = Instant::now();
        let groups = tracer.span("routing.group_by_prefix", 0, || {
            routed_groups(&self.internet, &self.seeds)
        });
        let mut prober = Prober::new(
            &self.internet,
            ProbeConfig {
                rng_seed: self.opts.derive(20),
                ..ProbeConfig::default()
            },
        )
        .expect("valid probe config");
        for (index, (_prefix, seeds)) in groups.iter().enumerate() {
            let config = AdaptiveConfig {
                budget: BUDGET,
                rng_seed: self.opts.derive(21) ^ index as u64,
                ..AdaptiveConfig::default()
            };
            let began = Instant::now();
            let outcome = if traced {
                // Time every probe: the callback is simnet's share of
                // the adaptive call.
                adaptive_scan(seeds.iter().copied(), &config, |addr| {
                    let at = Instant::now();
                    let hit = prober.probe(addr, PORT);
                    probe_time += at.elapsed();
                    probe_calls += 1;
                    probe_hits += u64::from(hit);
                    hit
                })
            } else {
                adaptive_scan(seeds.iter().copied(), &config, |addr| {
                    prober.probe(addr, PORT)
                })
            };
            tracer.record(
                "core.adaptive_scan",
                index as u64,
                began,
                Instant::now(),
                outcome.probes_used,
            );
            outcomes.push(outcome);
        }
        let end = Instant::now();
        let rss = peak_rss_mb("self");

        let mut dealiased: HashSet<NybbleAddr> = HashSet::new();
        for outcome in &outcomes {
            report.operation(check_outcome(&self.internet, outcome, BUDGET));
            dealiased.extend(outcome.hits.iter().copied());
        }
        let mut problems = Vec::new();
        if self
            .hits_seen
            .first()
            .is_some_and(|&first| first != dealiased.len())
        {
            problems.push(format!(
                "{} dealiased hits, the run's first had {:?}",
                dealiased.len(),
                self.hits_seen.first()
            ));
        }
        self.hits_seen.push(dealiased.len());
        let key = format!("adaptive_scan-{}.hits", self.opts.seed);
        problems.extend(same_as_earlier_runs(
            &self.opts.state_dir,
            &key,
            &dealiased.len().to_string(),
        ));
        report.operation(problems);
        report.set("dealiased_hits", dealiased.len() as f64, 1);

        if traced {
            let stats = prober.stats();
            self.traced = Some(Traced {
                probe_calls,
                probe_time,
                probe_hits,
                packets: stats.packets_sent,
                retransmits: stats.retransmits,
                growths: outcomes.iter().map(|o| o.growths).sum(),
                hits: outcomes.iter().map(|o| o.hits.len() as u64).sum(),
                probes_used: outcomes.iter().map(|o| o.probes_used).sum(),
                dealiased_hits: dealiased.len(),
            });
        }
        Iteration {
            start,
            end,
            peak_rss_mb: rss,
        }
    }

    fn layer_metrics(&mut self, spans: &[Span], report: &mut Report) {
        let Some(t) = &self.traced else { return };
        report.set(
            "routing.group_ms",
            total_ms(spans, "routing.group_by_prefix"),
            1,
        );
        let per_prefix = durations_ms(spans, "core.adaptive_scan");
        let adaptive_ms: f64 = per_prefix.iter().sum();
        let probe_ms = t.probe_time.as_secs_f64() * 1e3;
        report.set("core.adaptive_ms", adaptive_ms, per_prefix.len());
        report.set(
            "core.adaptive_self_ms",
            adaptive_ms - probe_ms,
            per_prefix.len(),
        );
        report.set(
            "core.adaptive_prefix_ms_max",
            per_prefix.iter().copied().fold(0.0, f64::max),
            per_prefix.len(),
        );
        report.set("core.adaptive_growths", t.growths as f64, per_prefix.len());
        report.set(
            "core.adaptive_hit_frac",
            t.hits as f64 / t.probes_used.max(1) as f64,
            per_prefix.len(),
        );
        report.set("simnet.probe_calls", t.probe_calls as f64, 1);
        report.set(
            "simnet.probe_ns_mean",
            probe_ms * 1e6 / t.probe_calls.max(1) as f64,
            t.probe_calls as usize,
        );
        report.set("simnet.packets", t.packets as f64, 1);
        report.set("simnet.retransmits", t.retransmits as f64, 1);
        report.set(
            "simnet.hit_frac",
            t.probe_hits as f64 / t.probe_calls.max(1) as f64,
            t.probe_calls as usize,
        );
        report.set("dealiased_hits", t.dealiased_hits as f64, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sixgen_simnet::{HostScheme, NetworkSpec};

    #[test]
    fn one_flipped_hit_is_reported() {
        let mut rng = StdRng::seed_from_u64(9);
        let internet = Internet::build(
            vec![NetworkSpec::simple(
                "2001:db8::/32".parse().unwrap(),
                64496,
                "Example",
                HostScheme::LowByteSequential,
                200,
            )],
            &mut rng,
        )
        .unwrap();
        let seeds: Vec<NybbleAddr> = (1..60u128)
            .map(|i| NybbleAddr::from_bits((0x2001_0db8u128 << 96) | i))
            .collect();
        let mut prober = Prober::new(&internet, ProbeConfig::default()).unwrap();
        let config = AdaptiveConfig {
            budget: 500,
            ..AdaptiveConfig::default()
        };
        let mut outcome = adaptive_scan(seeds, &config, |a| prober.probe(a, PORT));
        assert!(!outcome.hits.is_empty());
        assert!(check_outcome(&internet, &outcome, 500).is_empty());
        // Flip one hit to an address that does not answer.
        outcome.hits[0] = "2001:db8::ffff:1".parse().unwrap();
        assert_eq!(check_outcome(&internet, &outcome, 500).len(), 1);
        outcome.probes_used = 501;
        assert_eq!(check_outcome(&internet, &outcome, 500).len(), 2);
    }
}
