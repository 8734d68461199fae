//! **§8 extension** — scanner integration: the offline pipeline (generate
//! everything, then scan, then dealias) versus the adaptive feedback loop
//! ([`sixgen_core::adaptive_scan`]) at the **same probe budget**.
//!
//! Expectation (the paper's motivating argument for integration): the
//! adaptive loop stops probing aliased mirages and cold regions early, so
//! at equal probe counts it finds as many or more real hosts while wasting
//! far fewer probes on aliased space.

use super::{banner, ExperimentOptions};
use crate::pipeline::prepare_seeds;
use crate::pipeline::WorldRunConfig;
use sixgen_addr::Prefix;
use sixgen_core::{adaptive_scan, AdaptiveConfig, Config, RegionFate, SixGen};
use sixgen_datasets::world::{build_world, WorldConfig};
use sixgen_report::{group_digits, percent, Series, TextTable};
use sixgen_simnet::dealias::{detect_aliased, DealiasConfig};
use sixgen_simnet::{ProbeConfig, Prober};
use std::collections::HashSet;

/// Runs the experiment.
pub fn run(opts: &ExperimentOptions) {
    banner("§8 extension: offline pipeline vs scanner-integrated feedback loop");
    let world_cfg = WorldRunConfig {
        world: WorldConfig {
            scale: opts.scale,
            ..WorldConfig::default()
        },
        budget_per_prefix: opts.budget,
        threads: opts.threads,
        ..WorldRunConfig::default()
    };
    let internet = build_world(&world_cfg.world);
    let seeds_by_prefix = prepare_seeds(&internet, &world_cfg);
    let mut prefixes: Vec<Prefix> = seeds_by_prefix.keys().copied().collect();
    prefixes.sort();

    // ---- Offline: generate, scan, dealias (the §6 pipeline). -----------
    let mut offline_prober = Prober::new(&internet, ProbeConfig::default()).expect("valid probe config");
    let mut offline_hits = Vec::new();
    for &prefix in &prefixes {
        let outcome = SixGen::new(
            seeds_by_prefix[&prefix].iter().copied(),
            Config {
                budget: opts.budget,
                threads: opts.threads,
                ..Config::default()
            },
        )
        .run();
        offline_hits.extend(offline_prober.scan(outcome.targets.iter(), 80).hits);
    }
    let report = detect_aliased(
        &mut offline_prober,
        &offline_hits,
        80,
        &DealiasConfig::default(),
    );
    let (offline_clean, offline_aliased) = report.split(offline_hits.iter());
    let offline_probes = offline_prober.stats().packets_sent;

    // ---- Adaptive: same per-prefix probe budget. ------------------------
    let mut adaptive_prober = Prober::new(&internet, ProbeConfig::default()).expect("valid probe config");
    let mut adaptive_clean: Vec<_> = Vec::new();
    let mut adaptive_probes = 0u64;
    let mut aliased_probe_waste = 0u64;
    let mut early_terminated = 0usize;
    let mut aliased_regions = 0usize;
    let mut growths = 0u64;
    let mut evaluations = 0u64;
    for &prefix in &prefixes {
        let outcome = adaptive_scan(
            seeds_by_prefix[&prefix].iter().copied(),
            &AdaptiveConfig {
                budget: opts.budget,
                ..AdaptiveConfig::default()
            },
            |addr| adaptive_prober.probe(addr, 80),
        );
        adaptive_probes += outcome.probes_used;
        early_terminated += outcome.early_terminated();
        aliased_regions += outcome.aliased_regions();
        growths += outcome.growths;
        evaluations += outcome.evaluations;
        aliased_probe_waste += outcome
            .regions
            .iter()
            .filter(|r| r.fate == RegionFate::Aliased)
            .map(|r| r.probes)
            .sum::<u64>();
        adaptive_clean.extend(outcome.hits);
    }
    // Count only genuinely distinct responsive addresses for both sides.
    let offline_set: HashSet<_> = offline_clean.iter().copied().collect();
    let adaptive_set: HashSet<_> = adaptive_clean.iter().copied().collect();

    let mut table = TextTable::new(vec![
        "Strategy",
        "Probes sent",
        "Dealiased hits",
        "Probes into aliased space",
    ]);
    table.row(vec![
        "offline (generate→scan→dealias)".into(),
        group_digits(offline_probes),
        group_digits(offline_set.len() as u64),
        group_digits(offline_aliased.len() as u64),
    ]);
    table.row(vec![
        "adaptive feedback loop".into(),
        group_digits(adaptive_probes),
        group_digits(adaptive_set.len() as u64),
        group_digits(aliased_probe_waste),
    ]);
    println!("{table}");
    println!(
        "adaptive: {early_terminated} regions early-terminated, {aliased_regions} regions \
         declared aliased mid-scan"
    );
    println!(
        "adaptive: {} growth evaluations for {} growths",
        group_digits(evaluations),
        group_digits(growths),
    );
    println!(
        "probe efficiency: offline {} hits/Mprobe vs adaptive {} hits/Mprobe",
        (offline_set.len() as f64 / offline_probes.max(1) as f64 * 1e6).round(),
        (adaptive_set.len() as f64 / adaptive_probes.max(1) as f64 * 1e6).round(),
    );
    println!(
        "aliased-space waste: offline {} vs adaptive {}",
        percent(offline_aliased.len() as u64, offline_probes),
        percent(aliased_probe_waste, adaptive_probes.max(1)),
    );

    let mut series = Series::new(
        "adaptive_loop",
        vec!["adaptive", "probes", "dealiased_hits", "aliased_waste"],
    );
    series.push(vec![
        0.0,
        offline_probes as f64,
        offline_set.len() as f64,
        offline_aliased.len() as f64,
    ]);
    series.push(vec![
        1.0,
        adaptive_probes as f64,
        adaptive_set.len() as f64,
        aliased_probe_waste as f64,
    ]);
    let path = series
        .write_tsv_file(opts.results_dir())
        .expect("write adaptive tsv");
    println!("series -> {}", path.display());
}
