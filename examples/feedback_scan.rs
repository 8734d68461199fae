//! Scanner-integrated target generation (the paper's §8 direction): run
//! the adaptive feedback loop against the simulated Internet and compare
//! it with the classic offline generate→scan pipeline at the same probe
//! budget.
//!
//! ```sh
//! cargo run --release --example feedback_scan -- [--budget 15000] [--scale 0.3]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sixgen::core::{adaptive_scan, AdaptiveConfig, Config, RegionFate, SixGen};
use sixgen::datasets::world::{build_world, WorldConfig};
use sixgen::report::group_digits;
use sixgen::simnet::{ProbeConfig, Prober, SeedExtraction};

fn main() {
    let mut budget = 15_000u64;
    let mut scale = 0.3f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => budget = args.next().and_then(|v| v.parse().ok()).expect("--budget N"),
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).expect("--scale F"),
            other => panic!("unknown option {other}"),
        }
    }

    let internet = build_world(&WorldConfig {
        scale,
        ..WorldConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(3);
    let seeds = internet.extract_seeds(&SeedExtraction::default(), &mut rng);
    let (grouped, _) = internet.table().group_by_prefix(seeds.iter().map(|r| r.addr));

    // Pick the most seed-rich prefixes for a readable demo.
    let mut ranked: Vec<_> = grouped.into_iter().collect();
    ranked.sort_by_key(|(p, v)| (std::cmp::Reverse(v.len()), *p));
    ranked.truncate(8);

    println!(
        "{:<22} {:>6}  {:>22}  {:>26}  {:>11}",
        "routed prefix", "seeds", "offline hits/probes", "adaptive hits/probes", "evaluations"
    );
    for (prefix, prefix_seeds) in ranked {
        // Offline: generate all targets, scan them.
        let mut prober = Prober::new(&internet, ProbeConfig::default()).expect("valid probe config");
        let outcome = SixGen::new(prefix_seeds.iter().copied(), Config::with_budget(budget)).run();
        let offline = prober.scan(outcome.targets.iter(), 80);

        // Adaptive: interleave generation and probing at the same budget.
        let mut prober = Prober::new(&internet, ProbeConfig::default()).expect("valid probe config");
        let adaptive = adaptive_scan(
            prefix_seeds.iter().copied(),
            &AdaptiveConfig {
                budget,
                ..AdaptiveConfig::default()
            },
            |addr| prober.probe(addr, 80),
        );
        let aliased = adaptive
            .regions
            .iter()
            .filter(|r| r.fate == RegionFate::Aliased)
            .count();
        let flag = if aliased > 0 { " [aliasing dodged]" } else { "" };
        println!(
            "{:<22} {:>6}  {:>10} / {:>9}  {:>10} / {:>9}  {:>11}{}",
            prefix.to_string(),
            prefix_seeds.len(),
            group_digits(offline.hits.len() as u64),
            group_digits(offline.probes),
            group_digits(adaptive.hits.len() as u64),
            group_digits(adaptive.probes_used),
            group_digits(adaptive.evaluations),
            flag,
        );
    }
    println!(
        "\nNote: offline hit counts include aliased mirages (they respond but are\n\
         not distinct hosts); the adaptive loop excludes them on the fly and\n\
         refunds the unspent probes to other regions. `evaluations` counts the\n\
         loop's cluster growth evaluations."
    );
}
