//! **Figure 2** — median 6Gen execution time (CPU and wall clock) versus
//! the number of seeds in a routed prefix.
//!
//! The paper ran its C++/OpenMP prototype on a dual 10-core Xeon; absolute
//! times differ here, but the claim under reproduction is the *scaling
//! curve*: runtime grows steeply with seed count and depends on address
//! structure, not just size.

use super::{banner, ExperimentOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sixgen_addr::NybbleAddr;
use sixgen_core::{Config, SixGen};
use sixgen_report::Series;

/// Synthetic routed-prefix seed sets with hosting-provider structure:
/// sequential low bytes spread over a few dozen subnets, plus a small
/// random component. The performance trajectory's ladder draws the same
/// seeds.
pub(crate) fn synthetic_seeds(count: usize, rng: &mut StdRng) -> Vec<NybbleAddr> {
    (0..count)
        .map(|i| {
            let subnet = (i % 48) as u128;
            let structured = (i / 48 + 1) as u128;
            let noise: u128 = if i % 7 == 0 {
                rng.gen::<u16>() as u128
            } else {
                0
            };
            NybbleAddr::from_bits((0x2600_3c00u128 << 96) | (subnet << 64) | structured | noise << 16)
        })
        .collect()
}

/// Runs the experiment.
pub fn run(opts: &ExperimentOptions) {
    banner("Figure 2: 6Gen runtime vs number of seeds in a routed prefix");
    let sizes: &[usize] = if opts.quick {
        &[10, 100, 1000]
    } else {
        &[10, 100, 1_000, 10_000, 30_000]
    };
    let repeats = if opts.quick { 1 } else { 3 };
    let mut series = Series::new("fig2_runtime", vec!["seeds", "wall_ms", "cpu_ms"]);
    println!("{:>8}  {:>12}  {:>12}", "seeds", "wall (ms)", "cpu (ms)");
    for &n in sizes {
        let mut walls = Vec::new();
        let mut cpus = Vec::new();
        for rep in 0..repeats {
            let mut rng = StdRng::seed_from_u64(42 + rep);
            let seeds = synthetic_seeds(n, &mut rng);
            let outcome = SixGen::new(
                seeds,
                Config {
                    budget: opts.budget,
                    threads: opts.threads,
                    rng_seed: rep,
                    ..Config::default()
                },
            )
            .run();
            walls.push(outcome.stats.wall_time.as_secs_f64() * 1e3);
            cpus.push(outcome.stats.cpu_time.as_secs_f64() * 1e3);
        }
        walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        cpus.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let wall = walls[walls.len() / 2];
        let cpu = cpus[cpus.len() / 2];
        println!("{n:>8}  {wall:>12.2}  {cpu:>12.2}");
        series.push(vec![n as f64, wall, cpu]);
    }
    let path = series
        .write_tsv_file(opts.results_dir())
        .expect("write fig2 tsv");
    println!("series -> {}", path.display());
}
