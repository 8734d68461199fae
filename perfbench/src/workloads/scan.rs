//! `internet_scan`: the §6 pipeline on the default world — group the
//! seeds by routed prefix, one sharded fleet over every prefix, a scan
//! of the merged targets through the CLI's fault stack, and /96 alias
//! detection. Budget charging, fleet scheduling and merge, and the
//! prober do the work, over many small per-prefix trees.

use super::{Iteration, Workload, SETUP_REPS};
use crate::common::{
    digest_addrs, engine_phases, peak_rss_mb, same_as_earlier_runs, timed_setup, Opts,
};
use crate::env::nproc;
use crate::report::Report;
use crate::trace::{total_ms, Span, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_core::{run_sharded, Config, ShardSpec, ShardedOutcome, WorkerPool};
use sixgen_datasets::world::{build_world, WorldConfig};
use sixgen_obs::MetricsRegistry;
use sixgen_simnet::dealias::{detect_aliased, DealiasConfig};
use sixgen_simnet::faults::{FaultModel, GilbertElliott, GilbertElliottConfig, IcmpRateLimit};
use sixgen_simnet::{Internet, ProbeConfig, Prober, RetryPolicy, SeedExtraction};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// World scale (1.0 is `repro`'s default world).
const SCALE: f64 = 1.0;
/// 6Gen budget per routed prefix; the fleet's global budget is this
/// times the number of prefixes.
const BUDGET_PER_PREFIX: u64 = 50_000;
/// Scanned port (the paper's TCP/80).
const PORT: u16 = 80;
/// Prefixes with fewer seeds are skipped: one seed cannot cluster.
const MIN_SEEDS: usize = 2;

/// Builds `repro`'s default world at `scale` and extracts a seed corpus
/// from it (sorted, deduplicated): the set-up of the two world
/// workloads. The world itself is fixed — its generator draws how many
/// networks there are, and a seed-dependent world would change the
/// amount of work, not just the inputs — while the workload seed picks
/// which hosts the corpus sees.
pub fn world_and_seeds(opts: &Opts, scale: f64) -> (Internet, Vec<NybbleAddr>) {
    let internet = build_world(&WorldConfig {
        scale,
        ..WorldConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(opts.derive(11));
    let records = internet.extract_seeds(&SeedExtraction::default(), &mut rng);
    let mut seeds: Vec<NybbleAddr> = records.iter().map(|r| r.addr).collect();
    seeds.sort_unstable();
    seeds.dedup();
    (internet, seeds)
}

/// Groups seeds by routed prefix, in prefix order, keeping prefixes
/// with at least [`MIN_SEEDS`] seeds.
pub fn routed_groups(internet: &Internet, seeds: &[NybbleAddr]) -> Vec<(Prefix, Vec<NybbleAddr>)> {
    let (grouped, _unrouted) = internet.table().group_by_prefix(seeds.iter().copied());
    let mut groups: Vec<(Prefix, Vec<NybbleAddr>)> = grouped
        .into_iter()
        .filter(|(_, seeds)| seeds.len() >= MIN_SEEDS)
        .collect();
    groups.sort_by_key(|(prefix, _)| *prefix);
    groups
}

/// The fault stack of `sixgen simulate --bursty --rate-limit 2000
/// --retries 2 --backoff 200ms`: Gilbert–Elliott bursty loss, a
/// per-/48 ICMP rate limit, and exponential-backoff retries.
fn probe_config(rng_seed: u64) -> ProbeConfig {
    let faults: Vec<Box<dyn FaultModel>> = vec![
        Box::new(GilbertElliott::new(GilbertElliottConfig::default()).expect("valid loss model")),
        Box::new(IcmpRateLimit::new(48, 2000.0, 2000.0).expect("valid rate limit")),
    ];
    ProbeConfig {
        retries: 2,
        rng_seed,
        faults,
        retry: RetryPolicy::ExponentialBackoff {
            base: Duration::from_millis(200),
            cap: Duration::from_secs(60),
        },
        ..ProbeConfig::default()
    }
}

/// Checks the fleet's merge: shards in strictly increasing prefix
/// order, and the merged list equal to their target lists concatenated.
pub fn check_merge(fleet: &ShardedOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if fleet.shards.windows(2).any(|w| w[0].prefix >= w[1].prefix) {
        problems.push("shards are not in prefix order".to_string());
    }
    let concatenated: Vec<NybbleAddr> = fleet
        .shards
        .iter()
        .flat_map(|s| s.outcome.targets.iter())
        .collect();
    if concatenated != fleet.targets {
        let at = concatenated
            .iter()
            .zip(&fleet.targets)
            .position(|(a, b)| a != b)
            .unwrap_or(concatenated.len().min(fleet.targets.len()));
        problems.push(format!(
            "merged targets differ from the per-shard lists at index {at} \
             ({} merged, {} in shards)",
            fleet.targets.len(),
            concatenated.len()
        ));
    }
    problems
}

/// Checks that every hit was a target and really answers on `port`.
pub fn check_hits(
    internet: &Internet,
    targets: &HashSet<NybbleAddr>,
    hits: &[NybbleAddr],
    port: u16,
) -> Vec<String> {
    let mut problems = Vec::new();
    let not_target = hits.iter().filter(|h| !targets.contains(h)).count();
    if not_target > 0 {
        problems.push(format!("{not_target} hits were never targets"));
    }
    let silent = hits
        .iter()
        .filter(|h| !internet.is_responsive(**h, port))
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
    /// Digest of the first iteration's targets and hits, and its count
    /// of dealiased hits.
    first: Option<(u64, usize)>,
    registry: Option<Arc<MetricsRegistry>>,
    traced: Option<Traced>,
}

/// What the traced iteration keeps for the per-layer metrics beyond
/// its spans.
struct Traced {
    shard_busy: Vec<Duration>,
    workers: usize,
    epochs: u64,
    pool_jobs: u64,
    targets: usize,
    packets: u64,
    retransmits: u64,
    scan_hits: usize,
    dealias_packets: u64,
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
        first: None,
        registry: None,
        traced: None,
    };
    super::drive(opts, setup_s, reps, &mut state, report);
}

impl Workload for State {
    fn iteration(&mut self, tracer: &Tracer, report: &mut Report) -> Iteration {
        let registry = tracer.enabled().then(MetricsRegistry::shared);
        let workers = nproc();
        let start = Instant::now();
        let groups = tracer.span("routing.group_by_prefix", 0, || {
            routed_groups(&self.internet, &self.seeds)
        });
        let specs: Vec<ShardSpec> = groups
            .into_iter()
            .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
            .collect();
        let budget = BUDGET_PER_PREFIX * specs.len() as u64;
        let pool = Arc::new(WorkerPool::new(workers));
        let config = Config {
            budget,
            threads: workers,
            rng_seed: self.opts.derive(12),
            metrics: registry.clone(),
            pool: Some(Arc::clone(&pool)),
            ..Config::default()
        };
        let fleet = tracer.span("core.run_sharded", 0, || {
            run_sharded(specs, config, workers)
        });
        let mut prober = Prober::new(&self.internet, probe_config(self.opts.derive(13)))
            .expect("valid probe config");
        let scan = tracer.span("simnet.scan", 0, || {
            prober.scan(fleet.targets.iter().copied(), PORT)
        });
        let scan_stats = prober.stats();
        let alias = tracer.span("simnet.detect_aliased", 0, || {
            detect_aliased(
                &mut prober,
                &scan.hits,
                PORT,
                &DealiasConfig {
                    rng_seed: self.opts.derive(14),
                    ..DealiasConfig::default()
                },
            )
        });
        let (clean, _aliased) = alias.split(scan.hits.iter());
        let end = Instant::now();
        let rss = peak_rss_mb("self");

        let dealiased: HashSet<NybbleAddr> = clean.iter().copied().collect();
        let mut problems = check_merge(&fleet);
        if fleet.stats.budget_used > budget {
            problems.push(format!(
                "fleet used {} of budget {budget}",
                fleet.stats.budget_used
            ));
        }
        let outputs = (
            digest_addrs(fleet.targets.iter().chain(&scan.hits).copied()),
            dealiased.len(),
        );
        match self.first {
            // The first iteration's hits are checked one by one; a later
            // iteration must reproduce its targets and hits exactly.
            None => {
                let targets: HashSet<NybbleAddr> = fleet.targets.iter().copied().collect();
                problems.extend(check_hits(&self.internet, &targets, &scan.hits, PORT));
                let key = format!("internet_scan-{}.outputs", self.opts.seed);
                let value = format!("{:016x} {}", outputs.0, outputs.1);
                problems.extend(same_as_earlier_runs(&self.opts.state_dir, &key, &value));
                self.first = Some(outputs);
            }
            Some(first) if first != outputs => problems.push(format!(
                "targets or hits differ from the run's first iteration ({} dealiased hits, first had {})",
                outputs.1, first.1
            )),
            Some(_) => {}
        }
        report.operation(problems);
        report.set("dealiased_hits", dealiased.len() as f64, 1);

        if tracer.enabled() {
            self.traced = Some(Traced {
                shard_busy: fleet.shards.iter().map(|s| s.busy).collect(),
                workers: fleet.stats.workers,
                epochs: fleet.stats.epochs,
                pool_jobs: pool.jobs_executed(),
                targets: fleet.targets.len(),
                packets: scan_stats.packets_sent,
                retransmits: scan_stats.retransmits,
                scan_hits: scan.hits.len(),
                dealias_packets: alias.probes,
                dealiased_hits: dealiased.len(),
            });
            self.registry = registry;
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
        let fleet_ms = total_ms(spans, "core.run_sharded");
        report.set("core.fleet_ms", fleet_ms, 1);
        report.set(
            "core.fleet_targets_per_s",
            t.targets as f64 / (fleet_ms / 1e3),
            1,
        );
        let busy_max = t.shard_busy.iter().max().copied().unwrap_or_default();
        report.set(
            "core.shard_busy_max_ms",
            busy_max.as_secs_f64() * 1e3,
            t.shard_busy.len(),
        );
        let busy_total: Duration = t.shard_busy.iter().sum();
        report.set(
            "core.fleet_busy_frac",
            busy_total.as_secs_f64() * 1e3 / (fleet_ms * t.workers as f64),
            t.shard_busy.len(),
        );
        report.set("core.fleet_epochs", t.epochs as f64, 1);
        report.set("core.pool_jobs", t.pool_jobs as f64, 1);
        let scan_ms = total_ms(spans, "simnet.scan");
        report.set("simnet.scan_ms", scan_ms, 1);
        report.set("simnet.packets", t.packets as f64, 1);
        report.set(
            "simnet.packets_per_s",
            t.packets as f64 / (scan_ms / 1e3),
            1,
        );
        report.set("simnet.retransmits", t.retransmits as f64, 1);
        report.set(
            "simnet.hit_frac",
            t.scan_hits as f64 / t.targets.max(1) as f64,
            t.targets,
        );
        report.set(
            "simnet.dealias_ms",
            total_ms(spans, "simnet.detect_aliased"),
            1,
        );
        report.set("simnet.dealias_packets", t.dealias_packets as f64, 1);
        report.set("dealiased_hits", t.dealiased_hits as f64, 1);
        if let Some(registry) = &self.registry {
            engine_phases(report, registry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixgen_simnet::{HostScheme, NetworkSpec};

    fn small_internet() -> Internet {
        let mut rng = StdRng::seed_from_u64(5);
        Internet::build(
            vec![NetworkSpec::simple(
                "2001:db8::/32".parse().unwrap(),
                64496,
                "Example",
                HostScheme::LowByteSequential,
                64,
            )],
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn one_flipped_merged_target_is_reported() {
        let seeds: Vec<NybbleAddr> = (1..40u128)
            .map(|i| NybbleAddr::from_bits((0x2001_0db8u128 << 96) | (i % 3) << 80 | i))
            .collect();
        let specs: Vec<ShardSpec> = sixgen_routing::partition_by_length(seeds, 48)
            .into_iter()
            .map(|(prefix, seeds)| ShardSpec { prefix, seeds })
            .collect();
        let mut fleet = run_sharded(specs, Config::with_budget(300), 1);
        assert!(check_merge(&fleet).is_empty());
        let bits = fleet.targets[5].bits();
        fleet.targets[5] = NybbleAddr::from_bits(bits ^ 1);
        let problems = check_merge(&fleet);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("index 5"), "{problems:?}");
    }

    #[test]
    fn hits_outside_the_targets_or_silent_are_reported() {
        let internet = small_internet();
        let live: NybbleAddr = "2001:db8::5".parse().unwrap();
        let dead: NybbleAddr = "2001:db8::ffff".parse().unwrap();
        assert!(internet.is_responsive(live, PORT));
        let targets: HashSet<NybbleAddr> = [live, dead].into_iter().collect();
        assert!(check_hits(&internet, &targets, &[live], PORT).is_empty());
        assert_eq!(check_hits(&internet, &targets, &[dead], PORT).len(), 1);
        let stranger: NybbleAddr = "2001:db8::6".parse().unwrap();
        assert_eq!(check_hits(&internet, &targets, &[stranger], PORT).len(), 1);
    }
}
