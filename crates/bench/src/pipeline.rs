//! The full evaluation pipeline of §6: build the world, extract seeds,
//! group by routed prefix, run one sharded 6Gen fleet over the routed
//! prefixes (one engine session per prefix on a shared worker pool,
//! leasing slices of a single global budget), scan the targets, and
//! dealias the hits (including the per-AS /112 refinement).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen_addr::{NybbleAddr, Prefix};
use sixgen_core::{run_sharded, ClusterInfo, ClusterMode, Config, RunStats, ShardSpec};
use sixgen_datasets::downsample;
use sixgen_datasets::world::{build_world, WorldConfig};
use sixgen_obs::{maybe_span, EventBus, MetricsRegistry, SpanId, TraceSink};
use sixgen_simnet::dealias::{detect_aliased, AliasReport, DealiasConfig};
use sixgen_simnet::{HostKind, Internet, ProbeConfig, Prober, SeedExtraction};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Configuration of one full pipeline run.
#[derive(Debug, Clone)]
pub struct WorldRunConfig {
    /// World construction parameters (scale, seed).
    pub world: WorldConfig,
    /// Seed-corpus extraction parameters.
    pub extraction: SeedExtraction,
    /// 6Gen probe budget per routed prefix. The fleet's *global* budget
    /// is this times the number of routed prefixes; the sharded driver
    /// leases it to prefixes proportionally to seed share and
    /// recirculates unspent leases, so cheap prefixes no longer strand
    /// budget (the paper's default: 1 M; the simulated default world
    /// plateaus around 50 K).
    pub budget_per_prefix: u64,
    /// Loose or tight cluster ranges (§6.3).
    pub mode: ClusterMode,
    /// Worker threads per 6Gen run's growth evaluation (`0` = auto).
    pub threads: usize,
    /// Worker threads for the sharded fleet scheduler (`0` = auto). Any
    /// value produces byte-identical output; it only changes wall time.
    pub shards: usize,
    /// Scanned port (the paper: TCP/80).
    pub port: u16,
    /// Skip prefixes with fewer seeds than this (a single seed cannot
    /// cluster; the paper's analyses start at 2).
    pub min_seeds: usize,
    /// Keep only seeds of this host kind (§6.7.1's NS-only experiment).
    pub seed_kind: Option<HostKind>,
    /// Downsample the seed corpus to this fraction first (§6.7.2).
    pub downsample: Option<f64>,
    /// Master RNG seed for extraction/downsampling/scanning/dealiasing.
    pub rng_seed: u64,
    /// How many top ASes (by post-/96 hits) get the /112 refinement.
    pub refine_top_ases: usize,
    /// Optional metrics sink. Shared with every per-prefix 6Gen run and
    /// the prober; the pipeline additionally records per-prefix runtime
    /// (`bench/prefix_run`) and scan/dealias probe counters.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Optional trace sink, shared with the sharded fleet and the prober.
    /// The pipeline records one `bench/run_world` root span, and the
    /// fleet's `sharded/run` span nests under it. Per-prefix runtime is
    /// the `bench/prefix_run` duration histogram in `metrics`, not a span.
    pub trace: Option<Arc<TraceSink>>,
    /// Optional progress-event bus, shared with the sharded fleet so a
    /// live observer can follow per-prefix generation. Observational
    /// only: results are byte-identical with or without it.
    pub events: Option<Arc<EventBus>>,
}

impl Default for WorldRunConfig {
    fn default() -> Self {
        WorldRunConfig {
            world: WorldConfig::default(),
            extraction: SeedExtraction::default(),
            budget_per_prefix: 50_000,
            mode: ClusterMode::Loose,
            threads: 0,
            shards: 0,
            port: 80,
            min_seeds: 2,
            seed_kind: None,
            downsample: None,
            rng_seed: 0xEC0,
            refine_top_ases: 10,
            metrics: None,
            trace: None,
            events: None,
        }
    }
}

/// Result of 6Gen + scan on one routed prefix.
#[derive(Debug)]
pub struct PrefixRunResult {
    /// The routed prefix.
    pub prefix: Prefix,
    /// Its origin AS.
    pub asn: u32,
    /// Seeds fed to 6Gen.
    pub seed_count: usize,
    /// Final clusters.
    pub clusters: Vec<ClusterInfo>,
    /// Run statistics.
    pub stats: RunStats,
    /// Scan hits among the generated targets.
    pub hits: Vec<NybbleAddr>,
    /// Seeds that no longer respond (for the §6.6 churn analysis).
    pub inactive_seeds: usize,
}

/// The complete outcome of one pipeline run.
#[derive(Debug)]
pub struct WorldRun {
    /// The ground-truth model.
    pub internet: Internet,
    /// Seeds per routed prefix actually used (post filter/downsample).
    pub seeds_by_prefix: HashMap<Prefix, Vec<NybbleAddr>>,
    /// Per-prefix results.
    pub results: Vec<PrefixRunResult>,
    /// The /96 alias report.
    pub alias_report: AliasReport,
    /// Hits outside aliased /96es and outside /112-refined ASes.
    pub non_aliased_hits: Vec<NybbleAddr>,
    /// Hits inside aliased regions (either granularity).
    pub aliased_hits: Vec<NybbleAddr>,
    /// ASes excluded by the /112 refinement (the paper found Cloudflare
    /// and Mittwald).
    pub refined_asns: Vec<u32>,
    /// Total probe packets sent (scanning + dealiasing).
    pub probes_sent: u64,
}

impl WorldRun {
    /// All hits, aliased or not.
    pub fn total_hits(&self) -> usize {
        self.non_aliased_hits.len() + self.aliased_hits.len()
    }

    /// Per-AS address counts for a hit set.
    pub fn count_by_asn<'a>(
        &self,
        addrs: impl IntoIterator<Item = &'a NybbleAddr>,
    ) -> HashMap<u32, u64> {
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for addr in addrs {
            if let Some(entry) = self.internet.table().lookup(*addr) {
                *counts.entry(entry.asn).or_default() += 1;
            }
        }
        counts
    }
}

/// Extracts, filters, and groups the seed corpus for a config.
pub fn prepare_seeds(
    internet: &Internet,
    cfg: &WorldRunConfig,
) -> HashMap<Prefix, Vec<NybbleAddr>> {
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed ^ 0x5EED);
    let records = internet.extract_seeds(&cfg.extraction, &mut rng);
    let mut addrs: Vec<NybbleAddr> = records
        .iter()
        .filter(|r| cfg.seed_kind.is_none_or(|k| r.kind == k))
        .map(|r| r.addr)
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    if let Some(fraction) = cfg.downsample {
        addrs = downsample(&addrs, fraction, &mut rng);
    }
    let (grouped, _unrouted) = internet.table().group_by_prefix(addrs);
    grouped
        .into_iter()
        .filter(|(_, seeds)| seeds.len() >= cfg.min_seeds)
        .collect()
}

/// Runs the full §6 pipeline.
pub fn run_world(cfg: &WorldRunConfig) -> WorldRun {
    let internet = build_world(&cfg.world);
    let seeds_by_prefix = prepare_seeds(&internet, cfg);

    // Deterministic prefix order.
    let mut prefixes: Vec<Prefix> = seeds_by_prefix.keys().copied().collect();
    prefixes.sort();

    let mut prober = Prober::new(
        &internet,
        ProbeConfig {
            rng_seed: cfg.rng_seed ^ 0x5CA9,
            metrics: cfg.metrics.clone(),
            trace: cfg.trace.clone(),
            ..ProbeConfig::default()
        },
    )
    .expect("valid probe config");

    let trace = cfg.trace.as_deref();
    let mut run_span = maybe_span(trace, "bench", "run_world", SpanId::NONE);
    run_span.attr("prefixes", prefixes.len() as u64);
    let run_span_id = run_span.id();

    // Pipeline-level metric handles (prober/engine layers register their
    // own under `prober/...` and `engine/...`).
    let prefix_run = cfg.metrics.as_deref().map(|m| m.time_histogram("bench/prefix_run"));
    let prefixes_ctr = cfg.metrics.as_deref().map(|m| m.counter("bench/prefixes"));
    let scan_probes = cfg.metrics.as_deref().map(|m| m.counter("bench/scan_probes"));
    let dealias_probes = cfg.metrics.as_deref().map(|m| m.counter("bench/dealias_probes"));

    // One sharded fleet over every routed prefix: a single global budget
    // (per-prefix budget × prefix count) leased proportionally to seed
    // share, unspent leases recirculated (see `sixgen_core::run_sharded`).
    let specs: Vec<ShardSpec> = prefixes
        .iter()
        .map(|&prefix| ShardSpec {
            prefix,
            seeds: seeds_by_prefix[&prefix].clone(),
        })
        .collect();
    let global_budget = cfg
        .budget_per_prefix
        .saturating_mul(specs.len() as u64);
    let fleet = run_sharded(
        specs,
        Config {
            budget: global_budget,
            mode: cfg.mode,
            threads: cfg.threads,
            rng_seed: cfg.rng_seed,
            metrics: cfg.metrics.clone(),
            trace: cfg.trace.clone(),
            trace_parent: run_span_id,
            events: cfg.events.clone(),
            ..Config::default()
        },
        cfg.shards,
    );

    let mut results = Vec::with_capacity(fleet.shards.len());
    let mut all_hits: Vec<NybbleAddr> = Vec::new();
    for shard in fleet.shards {
        let prefix = shard.prefix;
        let seeds = &seeds_by_prefix[&prefix];
        let asn = internet
            .table()
            .lookup(prefix.network())
            .map(|e| e.asn)
            .unwrap_or(0);
        if let Some(h) = &prefix_run {
            h.record_duration(shard.busy);
        }
        if let Some(c) = &prefixes_ctr {
            c.inc();
        }
        let outcome = shard.outcome;
        let scan = prober.scan(outcome.targets.iter(), cfg.port);
        let hit_set: HashSet<NybbleAddr> = scan.hits.iter().copied().collect();
        let inactive_seeds = seeds.iter().filter(|s| !hit_set.contains(s)).count();
        all_hits.extend(scan.hits.iter().copied());
        results.push(PrefixRunResult {
            prefix,
            asn,
            seed_count: seeds.len(),
            clusters: outcome.clusters,
            stats: outcome.stats,
            hits: scan.hits,
            inactive_seeds,
        });
    }
    let packets_after_scans = prober.stats().packets_sent;
    if let Some(c) = &scan_probes {
        c.add(packets_after_scans);
    }

    // §6.2: /96 alias detection over all hits.
    let report = detect_aliased(
        &mut prober,
        &all_hits,
        cfg.port,
        &DealiasConfig {
            rng_seed: cfg.rng_seed ^ 0xA11A,
            ..DealiasConfig::default()
        },
    );
    let (mut non_aliased, mut aliased) = report.split(all_hits.iter());

    // §6.2: per-AS /112 refinement of the top ASes by remaining hits.
    let mut by_asn: HashMap<u32, Vec<NybbleAddr>> = HashMap::new();
    for &hit in &non_aliased {
        if let Some(entry) = internet.table().lookup(hit) {
            by_asn.entry(entry.asn).or_default().push(hit);
        }
    }
    let mut top: Vec<(u32, usize)> = by_asn.iter().map(|(&a, v)| (a, v.len())).collect();
    top.sort_by_key(|&(asn, n)| (std::cmp::Reverse(n), asn));
    let mut refined_asns = Vec::new();
    for &(asn, _) in top.iter().take(cfg.refine_top_ases) {
        let hits = &by_asn[&asn];
        let sub_report = detect_aliased(
            &mut prober,
            hits,
            cfg.port,
            &DealiasConfig {
                prefix_len: 112,
                rng_seed: cfg.rng_seed ^ 0xA112 ^ asn as u64,
                ..DealiasConfig::default()
            },
        );
        // "Aliased at /112 granularity": the overwhelming majority of the
        // AS's hit-bearing /112s test aliased.
        if sub_report.tested > 0
            && sub_report.aliased.len() as f64 / sub_report.tested as f64 > 0.8
        {
            refined_asns.push(asn);
        }
    }
    if !refined_asns.is_empty() {
        let excluded: HashSet<u32> = refined_asns.iter().copied().collect();
        let (keep, moved): (Vec<NybbleAddr>, Vec<NybbleAddr>) =
            non_aliased.into_iter().partition(|h| {
                internet
                    .table()
                    .lookup(*h)
                    .map(|e| !excluded.contains(&e.asn))
                    .unwrap_or(true)
            });
        non_aliased = keep;
        aliased.extend(moved);
    }

    let probes_sent = prober.stats().packets_sent;
    if let Some(c) = &dealias_probes {
        c.add(probes_sent - packets_after_scans);
    }
    WorldRun {
        internet,
        seeds_by_prefix,
        results,
        alias_report: report,
        non_aliased_hits: non_aliased,
        aliased_hits: aliased,
        refined_asns,
        probes_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> WorldRunConfig {
        WorldRunConfig {
            world: WorldConfig {
                scale: 0.05,
                rng_seed: 3,
            },
            budget_per_prefix: 3000,
            threads: 1,
            ..WorldRunConfig::default()
        }
    }

    #[test]
    fn pipeline_end_to_end_smoke() {
        let run = run_world(&quick_cfg());
        assert!(!run.results.is_empty());
        assert!(run.total_hits() > 0, "some hosts must be found");
        // The planted aliased regions dominate raw hits.
        assert!(
            run.aliased_hits.len() > run.non_aliased_hits.len(),
            "aliased {} vs non-aliased {}",
            run.aliased_hits.len(),
            run.non_aliased_hits.len()
        );
        // Real discoveries exist after filtering.
        assert!(!run.non_aliased_hits.is_empty());
        // The /112-refined ASes are found (Cloudflare 13335, Mittwald
        // 15817 stand-ins).
        assert!(
            run.refined_asns.contains(&13335) || run.refined_asns.contains(&15817),
            "refined: {:?}",
            run.refined_asns
        );
        assert!(run.probes_sent > 0);
    }

    #[test]
    fn ns_only_filter_reduces_seed_count() {
        let internet = build_world(&quick_cfg().world);
        let all = prepare_seeds(&internet, &quick_cfg());
        let ns_only = prepare_seeds(
            &internet,
            &WorldRunConfig {
                seed_kind: Some(HostKind::NameServer),
                ..quick_cfg()
            },
        );
        let total_all: usize = all.values().map(|v| v.len()).sum();
        let total_ns: usize = ns_only.values().map(|v| v.len()).sum();
        assert!(total_ns > 0);
        assert!(total_ns < total_all / 4, "{total_ns} vs {total_all}");
    }

    #[test]
    fn downsampling_reduces_seeds() {
        let internet = build_world(&quick_cfg().world);
        let full = prepare_seeds(&internet, &quick_cfg());
        let sampled = prepare_seeds(
            &internet,
            &WorldRunConfig {
                downsample: Some(0.25),
                ..quick_cfg()
            },
        );
        let total_full: usize = full.values().map(|v| v.len()).sum();
        let total_sampled: usize = sampled.values().map(|v| v.len()).sum();
        assert!(total_sampled < total_full / 2);
    }
}
