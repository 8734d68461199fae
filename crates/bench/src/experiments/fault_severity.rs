//! **Robustness extension** — hit rate vs. fault severity, fixed retries
//! vs. adaptive backoff.
//!
//! The paper's scans ran against a network that rate-limits ICMP, drops
//! packets in bursts, and answers from aliased regions (§6.2); ZMap-style
//! immediate retransmissions land inside the same loss burst (and the same
//! drained rate-limit bucket) that ate the original probe. This experiment
//! sweeps a severity knob over a Gilbert–Elliott + per-/48 rate-limit
//! fault stack and scans the same ground-truth hosts twice at an **equal
//! total retransmit budget**: once with immediate retries, once with
//! exponential backoff. Expectation: the adaptive prober's hit rate is at
//! least the fixed-retry prober's at every severity, because backoff lets
//! the loss burst end and the token bucket refill before retransmitting.

use super::{banner, ExperimentOptions};
use sixgen_addr::NybbleAddr;
use sixgen_datasets::world::{build_world, WorldConfig};
use sixgen_obs::MetricsRegistry;
use sixgen_report::{group_digits, Series, TextTable};
use sixgen_simnet::faults::{FaultModel, GilbertElliott, GilbertElliottConfig, IcmpRateLimit};
use sixgen_simnet::{Internet, ProbeConfig, Prober, RetryPolicy, ScanResult};
use std::time::Duration;

/// The fault stack at a given severity (0 = pristine network).
fn stack(severity: u32) -> Vec<Box<dyn FaultModel>> {
    if severity == 0 {
        return Vec::new();
    }
    let s = severity as f64;
    vec![
        // Bursts grow longer and good spells shorter with severity.
        Box::new(
            GilbertElliott::new(GilbertElliottConfig {
                mean_good: Duration::from_secs_f64(2.0 / s),
                mean_bad: Duration::from_secs_f64(0.15 * s),
                loss_good: 0.002 * s,
                loss_bad: 0.9,
            })
            .expect("valid GE config"),
        ),
        // Each /48's ICMP budget shrinks with severity.
        Box::new(IcmpRateLimit::new(48, 4000.0 / s, 400.0 / s).expect("valid rate limit")),
    ]
}

/// Per-fault-model drop attribution for one scan, read back from the
/// prober's `prober/fault/<model>/drop` counters.
#[derive(Debug, Clone, Copy, Default)]
struct DropAttribution {
    /// Packets dropped by the Gilbert–Elliott bursty-loss channel.
    burst: u64,
    /// Packets dropped by the per-/48 ICMP rate limiter.
    rate_limit: u64,
}

/// Scans every active host once through the given retry policy and fault
/// stack, all else equal. Each scan gets a private metrics registry so the
/// fault counters attribute drops to exactly this scan.
fn scan(
    opts: &ExperimentOptions,
    internet: &Internet,
    targets: &[NybbleAddr],
    severity: u32,
    retry: RetryPolicy,
) -> (ScanResult, u64, f64, DropAttribution) {
    let budget = targets.len() as u64 * 3;
    let registry = MetricsRegistry::shared();
    let mut prober = Prober::new(
        internet,
        ProbeConfig {
            retries: 3,
            rate_pps: 2_000,
            rng_seed: 0xFA_0175 ^ severity as u64,
            faults: stack(severity),
            retry,
            retransmit_budget: Some(budget),
            metrics: Some(registry.clone()),
            trace: opts.trace.clone(),
            ..ProbeConfig::default()
        },
    )
    .expect("valid probe config");
    let result = prober.scan(targets.iter().copied(), 80);
    let duration = prober.simulated_duration().as_secs_f64();
    let drops = DropAttribution {
        burst: registry.counter("prober/fault/gilbert_elliott/drop").get(),
        rate_limit: registry.counter("prober/fault/icmp_rate_limit/drop").get(),
    };
    (result, prober.stats().retransmits, duration, drops)
}

/// Runs the experiment.
pub fn run(opts: &ExperimentOptions) {
    banner("robustness: hit rate vs fault severity, immediate vs adaptive retries");
    let internet = build_world(&WorldConfig {
        scale: (opts.scale * 0.25).max(0.05),
        ..WorldConfig::default()
    });
    let targets: Vec<NybbleAddr> = internet
        .networks()
        .iter()
        .flat_map(|n| n.active().iter().map(|&(addr, _)| addr))
        .collect();
    println!(
        "scanning {} ground-truth hosts per severity (equal retransmit budget {})",
        group_digits(targets.len() as u64),
        group_digits(targets.len() as u64 * 3),
    );

    let severities: &[u32] = if opts.quick { &[0, 2, 4] } else { &[0, 1, 2, 3, 4] };
    let mut table = TextTable::new(vec![
        "Severity",
        "Immediate hit rate",
        "Adaptive hit rate",
        "Imm. retransmits",
        "Adpt. retransmits",
        "Imm. burst/rl drops",
        "Adpt. burst/rl drops",
        "Adpt. duration",
    ]);
    let mut series = Series::new(
        "fault_severity",
        vec![
            "severity",
            "immediate_hit_rate",
            "adaptive_hit_rate",
            "immediate_retransmits",
            "adaptive_retransmits",
            "immediate_burst_drops",
            "immediate_ratelimit_drops",
            "adaptive_burst_drops",
            "adaptive_ratelimit_drops",
        ],
    );
    let mut adaptive_never_worse = true;
    for &severity in severities {
        let (imm, imm_rtx, _, imm_drops) =
            scan(opts, &internet, &targets, severity, RetryPolicy::Immediate);
        let (adpt, adpt_rtx, adpt_secs, adpt_drops) = scan(
            opts,
            &internet,
            &targets,
            severity,
            RetryPolicy::ExponentialBackoff {
                base: Duration::from_millis(250),
                cap: Duration::from_secs(8),
            },
        );
        adaptive_never_worse &= adpt.hit_rate() >= imm.hit_rate();
        table.row(vec![
            severity.to_string(),
            format!("{:.1}%", imm.hit_rate() * 100.0),
            format!("{:.1}%", adpt.hit_rate() * 100.0),
            group_digits(imm_rtx),
            group_digits(adpt_rtx),
            format!(
                "{}/{}",
                group_digits(imm_drops.burst),
                group_digits(imm_drops.rate_limit)
            ),
            format!(
                "{}/{}",
                group_digits(adpt_drops.burst),
                group_digits(adpt_drops.rate_limit)
            ),
            format!("{adpt_secs:.1}s"),
        ]);
        series.push(vec![
            severity as f64,
            imm.hit_rate(),
            adpt.hit_rate(),
            imm_rtx as f64,
            adpt_rtx as f64,
            imm_drops.burst as f64,
            imm_drops.rate_limit as f64,
            adpt_drops.burst as f64,
            adpt_drops.rate_limit as f64,
        ]);
    }
    println!("{table}");
    println!(
        "adaptive >= immediate at every severity: {}",
        if adaptive_never_worse { "yes" } else { "NO" },
    );
    let path = series
        .write_tsv_file(opts.results_dir())
        .expect("write fault severity tsv");
    println!("series -> {}", path.display());
}
