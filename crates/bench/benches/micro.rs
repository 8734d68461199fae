//! Criterion micro-benchmarks of the hot primitives: nybble Hamming
//! distance, range membership/distance, nybble-tree queries, growth
//! evaluation and Entropy/IP sampling.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sixgen_addr::{NybbleAddr, NybbleTree, Range};
use sixgen_core::{best_growth, Cluster, ClusterMode};
use sixgen_entropy_ip::{EntropyIpConfig, EntropyIpModel};

fn random_addrs(n: usize, seed: u64) -> Vec<NybbleAddr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            NybbleAddr::from_bits(
                0x2001_0db8_0000_0000_0000_0000_0000_0000u128 | rng.gen::<u32>() as u128,
            )
        })
        .collect()
}

fn bench_hamming(c: &mut Criterion) {
    let addrs = random_addrs(1024, 1);
    c.bench_function("hamming/addr_addr", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % (addrs.len() - 1);
            black_box(addrs[i].hamming(addrs[i + 1]))
        })
    });
    let range: Range = "2001:db8::?:?".parse().unwrap();
    c.bench_function("hamming/range_addr", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % addrs.len();
            black_box(range.distance(addrs[i]))
        })
    });
}

fn bench_range_ops(c: &mut Criterion) {
    let range: Range = "2001:db8::[1-3]?:100?".parse().unwrap();
    let addrs = random_addrs(1024, 2);
    c.bench_function("range/contains", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % addrs.len();
            black_box(range.contains(addrs[i]))
        })
    });
    c.bench_function("range/expand_loose", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % addrs.len();
            black_box(range.expand_loose(addrs[i]))
        })
    });
    c.bench_function("range/size", |b| b.iter(|| black_box(range.size())));
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("range/sample", |b| {
        b.iter(|| black_box(range.sample(&mut rng)))
    });
}

fn bench_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree");
    for n in [1_000usize, 10_000] {
        let addrs = random_addrs(n, 4);
        let tree = NybbleTree::from_addresses(addrs.iter().copied());
        let range: Range = "2001:db8::?:?".parse().unwrap();
        group.bench_with_input(BenchmarkId::new("count_in_range", n), &n, |b, _| {
            b.iter(|| black_box(tree.count_in_range(&range)))
        });
        let probe = Range::from_address(addrs[0]);
        group.bench_with_input(BenchmarkId::new("nearest_outside", n), &n, |b, _| {
            b.iter(|| black_box(tree.nearest_outside(&probe)))
        });
        group.bench_with_input(BenchmarkId::new("insert", n), &n, |b, _| {
            let mut i: u64 = 0;
            b.iter(|| {
                let mut t = NybbleTree::new();
                i += 1;
                t.insert(NybbleAddr::from_bits(i as u128));
                black_box(t.len())
            })
        });
    }
    group.finish();
}

fn bench_growth(c: &mut Criterion) {
    let addrs = random_addrs(5_000, 5);
    let tree = NybbleTree::from_addresses(addrs.iter().copied());
    let cluster = Cluster::singleton(addrs[42]);
    c.bench_function("growth/best_growth_5k_seeds", |b| {
        b.iter(|| {
            black_box(best_growth(&cluster, &tree, ClusterMode::Loose, || 7));
        })
    });
}

fn bench_entropy_ip(c: &mut Criterion) {
    let addrs = random_addrs(2_000, 6);
    let model = EntropyIpModel::fit(&addrs, &EntropyIpConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("entropy_ip/sample", |b| {
        b.iter(|| black_box(model.sample(&mut rng)))
    });
    c.bench_function("entropy_ip/fit_2k", |b| {
        b.iter(|| black_box(EntropyIpModel::fit(&addrs, &EntropyIpConfig::default())))
    });
}

criterion_group!(
    benches,
    bench_hamming,
    bench_range_ops,
    bench_tree,
    bench_growth,
    bench_entropy_ip
);
criterion_main!(benches);
