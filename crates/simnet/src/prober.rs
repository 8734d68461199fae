//! [`Prober`]: a ZMap-like scanner over the simulated Internet.
//!
//! The paper probed generated targets with TCP/80 SYNs at 100 K packets per
//! second (§6). The prober reproduces the observable behaviour of that
//! pipeline: per-probe hit/miss answers from ground truth, packet and
//! response accounting, a composable [fault stack](crate::faults) (uniform
//! and bursty loss, per-prefix rate limiting, blackholed and aliased
//! regions), retransmissions with an optional exponential-backoff policy
//! and a ZMap-style total retransmit budget, randomized probe order, and a
//! simulated scan duration derived from the configured packet rate plus
//! accumulated backoff waits.
//!
//! [`Prober::scan`] resolves ground truth once for its whole target list:
//! the sorted, deduplicated list is merged with the [`Internet`]'s span
//! table and host slices into one vector of answers, which a clone of the
//! prober's RNG shuffles beside the list. The vendored Fisher–Yates draws
//! depend only on the slice length, so both get the same permutation, and
//! each target is probed with its known answer. Single probes
//! ([`Prober::probe`], [`Prober::probe_attempts`]) look their address up
//! on their own. Either way every packet, fault verdict and RNG draw is
//! the same (DESIGN §7, "The §6 scan: ground truth in one ordered pass").

use crate::faults::{FaultAction, FaultConfigError, FaultModel, ProbeContext, UniformLoss};
use crate::internet::Internet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sixgen_addr::NybbleAddr;
use sixgen_obs::{maybe_span, Counter, MetricsRegistry, SpanId, TraceSink};
use std::sync::Arc;
use std::time::Duration;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// When and how lost probes are retransmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryPolicy {
    /// Retransmissions follow the original probe back-to-back, spaced only
    /// by the packet rate (ZMap's behaviour).
    #[default]
    Immediate,
    /// Adaptive retry: before retransmission `n` (1-based), the virtual
    /// clock advances by `base × 2^(n-1)`, capped at `cap`. Time-dependent
    /// faults (loss bursts, rate-limit buckets) see the delay, so spaced
    /// retries recover responses an immediate volley would lose.
    ExponentialBackoff {
        /// Wait before the first retransmission.
        base: Duration,
        /// Upper bound on a single wait.
        cap: Duration,
    },
}

/// Prober configuration.
///
/// Validated by [`Prober::new`]; see [`ProbeConfig::validate`].
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Probability that any single probe (or its response) is lost in
    /// transit, independently per packet. `0.0` disables it. Shorthand for
    /// pushing a [`UniformLoss`] onto `faults`.
    pub loss: f64,
    /// Additional attempts after a lost probe (a responsive host is
    /// reported unresponsive only if all `1 + retries` probes are lost).
    pub retries: u8,
    /// Modeled transmit rate in packets per second (the paper used
    /// 100 Kpps); drives [`Prober::simulated_duration`].
    pub rate_pps: u64,
    /// RNG seed for loss draws and probe-order shuffling.
    pub rng_seed: u64,
    /// Additional fault models, consulted for every packet in order after
    /// the `loss` shorthand. Verdicts combine with Drop > Answer > Pass
    /// precedence.
    pub faults: Vec<Box<dyn FaultModel>>,
    /// Retransmission timing policy.
    pub retry: RetryPolicy,
    /// ZMap-style cap on the *total* number of retransmissions across the
    /// prober's lifetime; once spent, lost probes are not retried. `None`
    /// means unbounded.
    pub retransmit_budget: Option<u64>,
    /// Optional metrics registry. When set, the prober records packet,
    /// response, retransmission, and virtual-backoff counters plus a
    /// per-fault-model action breakdown under `prober/*` names. All prober
    /// metrics are virtual-time quantities and therefore deterministic.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Optional trace sink. When set, every [`Prober::scan`] records one
    /// `prober/scan` span carrying target, probe, retransmit, and hit
    /// counts. Tracing only observes — traced and bare scans return
    /// identical results.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            loss: 0.0,
            retries: 0,
            rate_pps: 100_000,
            rng_seed: 0x5CA7,
            faults: Vec::new(),
            retry: RetryPolicy::Immediate,
            retransmit_budget: None,
            metrics: None,
            trace: None,
        }
    }
}

impl ProbeConfig {
    /// Checks the configuration: `loss ∈ [0, 1]`, `rate_pps > 0`, and a
    /// non-zero backoff base when exponential backoff is selected.
    /// (Out-of-range loss used to panic deep inside the RNG on the first
    /// probe; now it is a typed error at construction.)
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(FaultConfigError::ProbabilityOutOfRange {
                what: "loss",
                value: self.loss,
            });
        }
        if self.rate_pps == 0 {
            return Err(FaultConfigError::NonPositive { what: "rate_pps" });
        }
        if let RetryPolicy::ExponentialBackoff { base, .. } = self.retry {
            if base.is_zero() {
                return Err(FaultConfigError::NonPositive {
                    what: "backoff base",
                });
            }
        }
        Ok(())
    }
}

/// Cumulative packet accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Probe packets transmitted (including retransmissions).
    pub packets_sent: u64,
    /// Responses received.
    pub responses: u64,
    /// Retransmissions sent (counts against
    /// [`ProbeConfig::retransmit_budget`]).
    pub retransmits: u64,
}

/// Result of scanning a target list on one port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Responsive target addresses, deduplicated, in the (shuffled) probe
    /// order.
    pub hits: Vec<NybbleAddr>,
    /// Number of distinct targets probed.
    pub targets: u64,
    /// Probe packets this scan transmitted.
    pub probes: u64,
}

impl ScanResult {
    /// Hit rate: responsive targets ÷ probed targets.
    pub fn hit_rate(&self) -> f64 {
        if self.targets == 0 {
            0.0
        } else {
            self.hits.len() as f64 / self.targets as f64
        }
    }
}

/// Pre-registered metric handles for one prober (see
/// [`ProbeConfig::metrics`]). `fault_actions[i]` holds the
/// `[pass, answer, drop]` counters for `faults[i]`.
#[derive(Debug)]
struct ProbeMetrics {
    packets_sent: Arc<Counter>,
    responses: Arc<Counter>,
    retransmits: Arc<Counter>,
    backoff_ns: Arc<Counter>,
    fault_actions: Vec<[Arc<Counter>; 3]>,
}

impl ProbeMetrics {
    fn new(registry: &MetricsRegistry, faults: &[Box<dyn FaultModel>]) -> ProbeMetrics {
        ProbeMetrics {
            packets_sent: registry.counter("prober/packets_sent"),
            responses: registry.counter("prober/responses"),
            retransmits: registry.counter("prober/retransmits"),
            backoff_ns: registry.counter("prober/backoff_ns"),
            fault_actions: faults
                .iter()
                .map(|model| {
                    let name = model.name();
                    [
                        registry.counter(&format!("prober/fault/{name}/pass")),
                        registry.counter(&format!("prober/fault/{name}/answer")),
                        registry.counter(&format!("prober/fault/{name}/drop")),
                    ]
                })
                .collect(),
        }
    }

    fn record_action(&self, model_index: usize, action: FaultAction) {
        let slot = match action {
            FaultAction::Pass => 0,
            FaultAction::Answer => 1,
            FaultAction::Drop => 2,
        };
        self.fault_actions[model_index][slot].inc();
    }
}

/// A scanner bound to a simulated Internet.
#[derive(Debug)]
pub struct Prober<'a> {
    internet: &'a Internet,
    config: ProbeConfig,
    /// Compiled fault stack: the `loss` shorthand (if any) followed by
    /// `config.faults` (moved out of the stored config).
    faults: Vec<Box<dyn FaultModel>>,
    rng: StdRng,
    stats: ProbeStats,
    /// Accumulated transmit time: exactly `floor(packets_sent × 10⁹ /
    /// rate_pps)` nanoseconds, maintained incrementally in integers so the
    /// virtual clock never drifts (the old per-probe
    /// `packets_sent as f64 / rate_pps` recomputation accumulated f64
    /// rounding error on long scans and paid a division per packet).
    transmit: Duration,
    /// Sub-nanosecond remainder of the transmit clock, in units of
    /// `1/rate_pps` ns. Invariant: `transmit_rem < rate_pps`.
    transmit_rem: u64,
    /// Whole nanoseconds each packet adds to the clock
    /// (`10⁹ / rate_pps`).
    nanos_per_packet: u64,
    /// Remainder each packet adds to `transmit_rem`
    /// (`10⁹ mod rate_pps`).
    nanos_rem_per_packet: u64,
    /// Accumulated virtual backoff waits.
    backoff: Duration,
    metrics: Option<ProbeMetrics>,
}

impl<'a> Prober<'a> {
    /// Creates a prober with the given fault/rate model. Returns a typed
    /// error for invalid configurations (e.g. `loss` outside `[0, 1]`,
    /// which formerly panicked inside the RNG on the first lossy probe).
    pub fn new(
        internet: &'a Internet,
        mut config: ProbeConfig,
    ) -> Result<Prober<'a>, FaultConfigError> {
        config.validate()?;
        let mut faults: Vec<Box<dyn FaultModel>> = Vec::with_capacity(1 + config.faults.len());
        if config.loss > 0.0 {
            faults.push(Box::new(UniformLoss::new(config.loss)?));
        }
        faults.append(&mut config.faults);
        let rng = StdRng::seed_from_u64(config.rng_seed);
        let metrics = config
            .metrics
            .as_deref()
            .map(|registry| ProbeMetrics::new(registry, &faults));
        let nanos_per_packet = NANOS_PER_SEC / config.rate_pps;
        let nanos_rem_per_packet = NANOS_PER_SEC % config.rate_pps;
        Ok(Prober {
            internet,
            config,
            faults,
            rng,
            stats: ProbeStats::default(),
            transmit: Duration::ZERO,
            transmit_rem: 0,
            nanos_per_packet,
            nanos_rem_per_packet,
            backoff: Duration::ZERO,
            metrics,
        })
    }

    /// The prober's virtual clock: transmit time of everything sent so far
    /// at the configured rate, plus accumulated backoff waits. Fault models
    /// see this as [`ProbeContext::send_time`].
    fn virtual_now(&self) -> Duration {
        self.transmit + self.backoff
    }

    /// Advances the transmit clock by one packet at the configured rate,
    /// exactly: after `n` packets, `transmit == floor(n × 10⁹ / rate_pps)`
    /// nanoseconds.
    fn advance_transmit_clock(&mut self) {
        self.transmit += Duration::from_nanos(self.nanos_per_packet);
        self.transmit_rem += self.nanos_rem_per_packet;
        if self.transmit_rem >= self.config.rate_pps {
            // Both addends are < rate_pps, so a single carry suffices.
            self.transmit_rem -= self.config.rate_pps;
            self.transmit += Duration::from_nanos(1);
        }
    }

    /// Probes one address once (plus configured retries). Returns whether a
    /// response was received.
    pub fn probe(&mut self, addr: NybbleAddr, port: u16) -> bool {
        self.probe_attempts(addr, port, 1 + self.config.retries as u32)
    }

    /// Probes one address with an explicit attempt count (the §6.2 alias
    /// test sends exactly three SYNs per address regardless of the scan's
    /// retry setting).
    pub fn probe_attempts(&mut self, addr: NybbleAddr, port: u16, attempts: u32) -> bool {
        let responsive = self.internet.is_responsive(addr, port);
        self.send(addr, port, attempts, responsive)
    }

    /// Sends up to `attempts` probes to `addr`, whose ground truth is
    /// `responsive`, through the fault stack. Returns whether a response
    /// was received.
    fn send(&mut self, addr: NybbleAddr, port: u16, attempts: u32, responsive: bool) -> bool {
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                if let Some(budget) = self.config.retransmit_budget {
                    if self.stats.retransmits >= budget {
                        return false;
                    }
                }
                self.stats.retransmits += 1;
                if let Some(m) = &self.metrics {
                    m.retransmits.inc();
                }
                if let RetryPolicy::ExponentialBackoff { base, cap } = self.config.retry {
                    let doubling = (attempt - 1).min(20);
                    let wait = base.saturating_mul(1 << doubling).min(cap);
                    self.backoff += wait;
                    if let Some(m) = &self.metrics {
                        m.backoff_ns
                            .add(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
                    }
                }
            }
            let ctx = ProbeContext {
                addr,
                port,
                packet_index: self.stats.packets_sent,
                send_time: self.virtual_now(),
                attempt,
                responsive,
            };
            self.stats.packets_sent += 1;
            self.advance_transmit_clock();
            if let Some(m) = &self.metrics {
                m.packets_sent.inc();
            }
            let mut action = FaultAction::Pass;
            for (index, model) in self.faults.iter_mut().enumerate() {
                let verdict = model.apply(&ctx, &mut self.rng);
                if let Some(m) = &self.metrics {
                    m.record_action(index, verdict);
                }
                action = action.combine(verdict);
            }
            match action {
                FaultAction::Drop => continue,
                FaultAction::Answer => {
                    self.stats.responses += 1;
                    if let Some(m) = &self.metrics {
                        m.responses.inc();
                    }
                    return true;
                }
                FaultAction::Pass => {
                    if responsive {
                        self.stats.responses += 1;
                        if let Some(m) = &self.metrics {
                            m.responses.inc();
                        }
                        return true;
                    }
                    // An unresponsive address never answers; remaining
                    // retries are still transmitted by a real scanner.
                }
            }
        }
        false
    }

    /// Scans a target list on `port`: deduplicates, randomizes probe order
    /// ("We randomized the order of the destination hosts", §6), probes
    /// each target once (plus retries), and returns the hits.
    pub fn scan(&mut self, targets: impl IntoIterator<Item = NybbleAddr>, port: u16) -> ScanResult {
        // Clone the sink handle up front: the span must not borrow `self`
        // across the `&mut self` probe loop.
        let trace = self.config.trace.clone();
        let mut span = maybe_span(trace.as_deref(), "prober", "scan", SpanId::NONE);
        let mut list: Vec<NybbleAddr> = targets.into_iter().collect();
        list.sort_unstable();
        list.dedup();
        let mut truth = self.internet.responsive_sorted(&list, port);
        // The shuffle's draws depend only on the length, so the clone
        // applies the list's permutation to its answers.
        truth.shuffle(&mut self.rng.clone());
        list.shuffle(&mut self.rng);
        let before = self.stats.packets_sent;
        let retransmits_before = self.stats.retransmits;
        let attempts = 1 + self.config.retries as u32;
        let mut hits = Vec::new();
        for (&addr, &responsive) in list.iter().zip(&truth) {
            if self.send(addr, port, attempts, responsive) {
                hits.push(addr);
            }
        }
        span.attr("targets", list.len() as u64);
        span.attr("probes", self.stats.packets_sent - before);
        span.attr("retransmits", self.stats.retransmits - retransmits_before);
        span.attr("hits", hits.len() as u64);
        ScanResult {
            targets: list.len() as u64,
            probes: self.stats.packets_sent - before,
            hits,
        }
    }

    /// The scan as a per-target loop: each target looked up on its own
    /// while it is probed. The reference `scan` must match.
    #[cfg(test)]
    fn scan_per_target(&mut self, targets: &[NybbleAddr], port: u16) -> ScanResult {
        let mut list = targets.to_vec();
        list.sort_unstable();
        list.dedup();
        list.shuffle(&mut self.rng);
        let before = self.stats.packets_sent;
        let hits: Vec<NybbleAddr> = list
            .iter()
            .copied()
            .filter(|&addr| self.probe(addr, port))
            .collect();
        ScanResult {
            targets: list.len() as u64,
            probes: self.stats.packets_sent - before,
            hits,
        }
    }

    /// Cumulative packet statistics.
    pub fn stats(&self) -> ProbeStats {
        self.stats
    }

    /// The wall-clock time a real scanner would have needed for everything
    /// sent so far: transmit time at the configured rate plus accumulated
    /// retransmission backoff waits.
    pub fn simulated_duration(&self) -> Duration {
        self.virtual_now()
    }

    /// The underlying ground-truth model.
    pub fn internet(&self) -> &'a Internet {
        self.internet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{AliasedResponder, Blackhole, GilbertElliott, GilbertElliottConfig, IcmpRateLimit};
    use crate::network::{AliasedRegion, HostPopulation, NetworkSpec};
    use crate::scheme::HostScheme;

    fn internet() -> Internet {
        let mut rng = StdRng::seed_from_u64(2);
        Internet::build(
            vec![NetworkSpec::simple(
                "2001:db8::/32".parse().unwrap(),
                64496,
                "Example",
                HostScheme::LowByteSequential,
                50,
            )],
            &mut rng,
        )
        .expect("unique prefixes")
    }

    fn a(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    fn prober(net: &Internet, config: ProbeConfig) -> Prober<'_> {
        Prober::new(net, config).expect("valid probe config")
    }

    #[test]
    fn probe_counts_packets() {
        let net = internet();
        let mut p = prober(&net, ProbeConfig::default());
        assert!(p.probe(a("2001:db8::1"), 80));
        assert!(!p.probe(a("2001:db8::1234"), 80));
        assert_eq!(
            p.stats(),
            ProbeStats {
                packets_sent: 2,
                responses: 1,
                retransmits: 0,
            }
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let net = internet();
        let bad_loss = Prober::new(
            &net,
            ProbeConfig {
                loss: 1.5,
                ..ProbeConfig::default()
            },
        );
        assert!(matches!(
            bad_loss,
            Err(FaultConfigError::ProbabilityOutOfRange { what: "loss", .. })
        ));
        assert!(Prober::new(
            &net,
            ProbeConfig {
                loss: f64::NAN,
                ..ProbeConfig::default()
            },
        )
        .is_err());
        assert!(matches!(
            Prober::new(
                &net,
                ProbeConfig {
                    rate_pps: 0,
                    ..ProbeConfig::default()
                },
            ),
            Err(FaultConfigError::NonPositive { what: "rate_pps" })
        ));
        assert!(Prober::new(
            &net,
            ProbeConfig {
                retry: RetryPolicy::ExponentialBackoff {
                    base: Duration::ZERO,
                    cap: Duration::from_secs(1),
                },
                ..ProbeConfig::default()
            },
        )
        .is_err());
    }

    #[test]
    fn scan_finds_exactly_the_active_hosts() {
        let net = internet();
        let mut p = prober(&net, ProbeConfig::default());
        let targets: Vec<NybbleAddr> = (0..100u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let result = p.scan(targets, 80);
        assert_eq!(result.hits.len(), 50, "hosts ::1..=::32 respond");
        assert_eq!(result.targets, 100);
        assert_eq!(result.probes, 100);
        assert!((result.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn scan_deduplicates_targets() {
        let net = internet();
        let mut p = prober(&net, ProbeConfig::default());
        let result = p.scan(vec![a("2001:db8::1"), a("2001:db8::1")], 80);
        assert_eq!(result.targets, 1);
        assert_eq!(result.probes, 1);
        assert_eq!(result.hits, vec![a("2001:db8::1")]);
    }

    #[test]
    fn loss_with_retries_recovers_hosts() {
        let net = internet();
        // 50% loss, no retries: roughly half the hits are missed.
        let mut lossy = prober(
            &net,
            ProbeConfig {
                loss: 0.5,
                retries: 0,
                ..ProbeConfig::default()
            },
        );
        let targets: Vec<NybbleAddr> = (1..=50u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let r = lossy.scan(targets.clone(), 80);
        assert!(r.hits.len() < 45, "lost some: {}", r.hits.len());
        // 50% loss but 9 retries: virtually every host answers.
        let mut retried = prober(
            &net,
            ProbeConfig {
                loss: 0.5,
                retries: 9,
                ..ProbeConfig::default()
            },
        );
        let r = retried.scan(targets, 80);
        assert_eq!(r.hits.len(), 50);
        // Retries cost packets: more than one per target on average.
        assert!(r.probes > 50);
    }

    #[test]
    fn total_loss_with_max_retries_terminates_with_zero_hits() {
        // Edge case: loss = 1.0 drops every packet; retries = u8::MAX must
        // still terminate (50 targets × 256 attempts) with no hits.
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                loss: 1.0,
                retries: u8::MAX,
                ..ProbeConfig::default()
            },
        );
        let targets: Vec<NybbleAddr> = (1..=50u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let r = p.scan(targets, 80);
        assert!(r.hits.is_empty());
        assert_eq!(r.probes, 50 * 256);
        assert_eq!(p.stats().retransmits, 50 * 255);
    }

    #[test]
    fn retransmit_budget_caps_retries() {
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                loss: 1.0,
                retries: 10,
                retransmit_budget: Some(7),
                ..ProbeConfig::default()
            },
        );
        let targets: Vec<NybbleAddr> = (1..=50u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let r = p.scan(targets, 80);
        // 50 first transmissions plus exactly 7 retransmissions.
        assert_eq!(r.probes, 50 + 7);
        assert_eq!(p.stats().retransmits, 7);
    }

    #[test]
    fn lossless_probe_sends_single_packet_even_with_retries() {
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                retries: 3,
                ..ProbeConfig::default()
            },
        );
        assert!(p.probe(a("2001:db8::1"), 80));
        assert_eq!(p.stats().packets_sent, 1, "responsive host answers first probe");
        // Unresponsive host consumes all attempts.
        assert!(!p.probe(a("2001:db8::999"), 80));
        assert_eq!(p.stats().packets_sent, 1 + 4);
    }

    #[test]
    fn simulated_duration_follows_rate() {
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                rate_pps: 10,
                ..ProbeConfig::default()
            },
        );
        for i in 0..20u32 {
            p.probe(
                NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128),
                80,
            );
        }
        assert_eq!(p.simulated_duration(), Duration::from_secs(2));
    }

    #[test]
    fn virtual_clock_is_exact_at_large_packet_counts() {
        // rate 3 pps: 10⁹/3 ns per packet does not divide evenly, the case
        // where the old f64 clock (packets_sent / rate_pps recomputed per
        // probe) drifted. The integer clock must be exactly
        // floor(n × 10⁹ / 3) ns at every checkpoint.
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                rate_pps: 3,
                ..ProbeConfig::default()
            },
        );
        let dead = a("2001:db8::dead");
        let mut sent: u128 = 0;
        for checkpoint in [1u64, 2, 3, 100, 9999, 100_000, 250_000] {
            while sent < checkpoint as u128 {
                p.probe(dead, 80);
                sent += 1;
            }
            let expected = Duration::from_nanos(((sent * 1_000_000_000) / 3) as u64);
            assert_eq!(
                p.simulated_duration(),
                expected,
                "drift after {sent} packets"
            );
        }
    }

    #[test]
    fn virtual_clock_carry_rollover() {
        // rate 7 pps: remainder accumulation must carry a whole nanosecond
        // exactly when it crosses the rate, never sooner or later.
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                rate_pps: 7,
                ..ProbeConfig::default()
            },
        );
        for n in 1u64..=1000 {
            p.probe(a("2001:db8::dead"), 80);
            let expected = Duration::from_nanos(n * 1_000_000_000 / 7);
            assert_eq!(p.simulated_duration(), expected, "after {n} packets");
        }
    }

    #[test]
    fn metrics_record_packets_and_fault_actions() {
        let net = internet();
        let registry = MetricsRegistry::shared();
        let mut p = prober(
            &net,
            ProbeConfig {
                retries: 3,
                faults: vec![Box::new(Blackhole::new(vec![
                    "2001:db8::/127".parse().unwrap() // covers ::0 and ::1 only
                ]))],
                retry: RetryPolicy::ExponentialBackoff {
                    base: Duration::from_millis(100),
                    cap: Duration::from_secs(1),
                },
                metrics: Some(Arc::clone(&registry)),
                ..ProbeConfig::default()
            },
        );
        // Live host inside the blackhole: all 4 attempts dropped.
        assert!(!p.probe(a("2001:db8::1"), 80));
        // Live host outside: answered on the first attempt.
        assert!(p.probe(a("2001:db8::2"), 80));
        let stats = p.stats();
        assert_eq!(registry.counter("prober/packets_sent").get(), stats.packets_sent);
        assert_eq!(registry.counter("prober/responses").get(), stats.responses);
        assert_eq!(registry.counter("prober/retransmits").get(), stats.retransmits);
        assert_eq!(registry.counter("prober/fault/blackhole/drop").get(), 4);
        assert_eq!(registry.counter("prober/fault/blackhole/pass").get(), 1);
        assert_eq!(registry.counter("prober/fault/blackhole/answer").get(), 0);
        // Backoff counter equals the virtual waits: 100 + 200 + 400 ms.
        assert_eq!(
            registry.counter("prober/backoff_ns").get(),
            Duration::from_millis(700).as_nanos() as u64
        );
    }

    #[test]
    fn metrics_do_not_perturb_scans() {
        let net = internet();
        let targets: Vec<NybbleAddr> = (0..60u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let run = |metrics: Option<Arc<MetricsRegistry>>| {
            let mut p = prober(
                &net,
                ProbeConfig {
                    loss: 0.3,
                    retries: 1,
                    faults: bursty_stack(),
                    metrics,
                    ..ProbeConfig::default()
                },
            );
            p.scan(targets.clone(), 80)
        };
        let registry = MetricsRegistry::shared();
        assert_eq!(run(None), run(Some(Arc::clone(&registry))));
        // And the deterministic export is identical across repeat runs.
        let again = MetricsRegistry::shared();
        run(Some(Arc::clone(&again)));
        assert_eq!(registry.deterministic_json(), again.deterministic_json());
    }

    /// A stream kept in memory.
    #[derive(Clone, Default)]
    struct Capture(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn scan_records_trace_span_with_packet_attrs() {
        let net = internet();
        let sink = TraceSink::shared();
        let capture = Capture::default();
        sink.stream_to(Box::new(capture.clone())).unwrap();
        let mut p = prober(
            &net,
            ProbeConfig {
                loss: 0.5,
                retries: 2,
                trace: Some(Arc::clone(&sink)),
                ..ProbeConfig::default()
            },
        );
        let targets: Vec<NybbleAddr> = (0..20u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let r = p.scan(targets, 80);
        sink.finish_stream().unwrap();
        let text = String::from_utf8(capture.0.lock().unwrap().clone()).unwrap();
        let span = text
            .lines()
            .find(|line| line.contains("\"cat\":\"prober\",\"name\":\"scan\""))
            .expect("scan span");
        let attr = |key: &str| -> u64 {
            let rest = span.split(&format!("\"{key}\":")).nth(1).expect("attr present");
            rest.split([',', '}']).next().unwrap().parse().unwrap()
        };
        assert_eq!(attr("targets"), 20);
        assert_eq!(attr("probes"), r.probes);
        assert_eq!(attr("hits"), r.hits.len() as u64);
        assert_eq!(attr("retransmits"), p.stats().retransmits);
    }

    #[test]
    fn backoff_waits_count_toward_simulated_duration() {
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                loss: 1.0,
                retries: 3,
                rate_pps: 1_000_000,
                retry: RetryPolicy::ExponentialBackoff {
                    base: Duration::from_millis(100),
                    cap: Duration::from_secs(10),
                },
                ..ProbeConfig::default()
            },
        );
        assert!(!p.probe(a("2001:db8::1"), 80));
        // 4 packets of transmit time (4µs) plus 100 + 200 + 400 ms backoff.
        let expected = Duration::from_millis(700);
        let got = p.simulated_duration();
        assert!(
            got >= expected && got < expected + Duration::from_millis(1),
            "duration {got:?}"
        );
    }

    #[test]
    fn scans_are_deterministic() {
        let net = internet();
        let targets: Vec<NybbleAddr> = (0..60u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let r1 = prober(&net, ProbeConfig { loss: 0.3, ..Default::default() })
            .scan(targets.clone(), 80);
        let r2 = prober(&net, ProbeConfig { loss: 0.3, ..Default::default() })
            .scan(targets, 80);
        assert_eq!(r1.hits, r2.hits);
        assert_eq!(r1.probes, r2.probes);
    }

    fn bursty_stack() -> Vec<Box<dyn FaultModel>> {
        vec![
            Box::new(
                GilbertElliott::new(GilbertElliottConfig {
                    mean_good: Duration::from_millis(400),
                    mean_bad: Duration::from_millis(200),
                    loss_good: 0.01,
                    loss_bad: 0.95,
                })
                .unwrap(),
            ),
            Box::new(IcmpRateLimit::new(48, 200.0, 50.0).unwrap()),
        ]
    }

    #[test]
    fn fault_stacks_are_deterministic() {
        // Identical rng_seed + identical fault stack ⇒ identical ScanResult,
        // even with stateful time-driven models in the stack.
        let net = internet();
        let targets: Vec<NybbleAddr> = (0..80u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let run = || {
            let mut p = prober(
                &net,
                ProbeConfig {
                    retries: 2,
                    rate_pps: 500,
                    faults: bursty_stack(),
                    retry: RetryPolicy::ExponentialBackoff {
                        base: Duration::from_millis(50),
                        cap: Duration::from_secs(2),
                    },
                    rng_seed: 0xFA_17,
                    ..ProbeConfig::default()
                },
            );
            p.scan(targets.clone(), 80)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_beats_immediate_retries_under_bursty_loss() {
        // Same retransmit allowance, same fault stack: spacing retries out
        // lets the Gilbert–Elliott channel leave its burst and the rate
        // limiter refill, so the adaptive prober's hit rate must be at
        // least the immediate prober's.
        let net = internet();
        let targets: Vec<NybbleAddr> = (1..=50u32)
            .map(|i| NybbleAddr::from_bits(0x2001_0db8u128 << 96 | i as u128))
            .collect();
        let run = |retry: RetryPolicy| {
            let mut p = prober(
                &net,
                ProbeConfig {
                    retries: 3,
                    rate_pps: 100,
                    faults: bursty_stack(),
                    retry,
                    ..ProbeConfig::default()
                },
            );
            p.scan(targets.clone(), 80).hit_rate()
        };
        let immediate = run(RetryPolicy::Immediate);
        let adaptive = run(RetryPolicy::ExponentialBackoff {
            base: Duration::from_millis(250),
            cap: Duration::from_secs(4),
        });
        assert!(
            adaptive >= immediate,
            "adaptive {adaptive} < immediate {immediate}"
        );
        assert!(adaptive > 0.8, "adaptive recovered only {adaptive}");
    }

    #[test]
    fn scan_matches_the_per_target_loop() {
        // Nested prefixes, an aliased region and churned hosts, probed
        // through every kind of fault.
        let mut rng = StdRng::seed_from_u64(8);
        let net = Internet::build(
            vec![
                NetworkSpec::simple(
                    "2001:db8::/32".parse().unwrap(),
                    1,
                    "Outer",
                    HostScheme::LowByteSequential,
                    300,
                ),
                NetworkSpec {
                    aliased: vec![AliasedRegion {
                        prefix: "2001:db8:0:5::/64".parse().unwrap(),
                        ports: vec![80],
                    }],
                    populations: vec![HostPopulation {
                        churned: 40,
                        ..HostPopulation::simple(HostScheme::LowByteRandom { nybbles: 2 }, 120)
                    }],
                    ..NetworkSpec::simple(
                        "2001:db8::/48".parse().unwrap(),
                        2,
                        "Inner",
                        HostScheme::LowByteSequential,
                        0,
                    )
                },
            ],
            &mut rng,
        )
        .expect("distinct prefixes");
        let targets: Vec<NybbleAddr> = (0..3_000u128)
            .map(|i| {
                NybbleAddr::from_bits(0x2001_0db8u128 << 96 | (i % 7) << 64 | ((i * 37) % 401))
            })
            .chain((0..200u128).map(|i| NybbleAddr::from_bits(0x2001_0db9u128 << 96 | i)))
            .collect();
        let configs = || {
            vec![
                ProbeConfig::default(),
                ProbeConfig {
                    loss: 0.2,
                    retries: 3,
                    retransmit_budget: Some(500),
                    ..ProbeConfig::default()
                },
                ProbeConfig {
                    retries: 2,
                    rate_pps: 400,
                    faults: bursty_stack(),
                    retry: RetryPolicy::ExponentialBackoff {
                        base: Duration::from_millis(30),
                        cap: Duration::from_secs(1),
                    },
                    ..ProbeConfig::default()
                },
            ]
        };
        for (index, (one, two)) in configs().into_iter().zip(configs()).enumerate() {
            let mut pass = prober(&net, one);
            let mut reference = prober(&net, two);
            for (round, list) in [&targets[..], &targets[..1_000]].into_iter().enumerate() {
                let got = pass.scan(list.iter().copied(), 80);
                let want = reference.scan_per_target(list, 80);
                assert_eq!(got, want, "config {index}, scan {round}");
                assert!(!got.hits.is_empty());
                assert_eq!(pass.stats(), reference.stats());
                assert_eq!(pass.simulated_duration(), reference.simulated_duration());
            }
        }
    }

    #[test]
    fn blackhole_and_aliased_fault_regions_shape_scans() {
        let net = internet();
        let mut p = prober(
            &net,
            ProbeConfig {
                faults: vec![
                    Box::new(Blackhole::new(vec!["2001:db8::/112".parse().unwrap()])),
                    Box::new(AliasedResponder::new(vec![
                        "2001:db8:aaaa::/48".parse().unwrap()
                    ])),
                ],
                ..ProbeConfig::default()
            },
        );
        // Live host inside the blackhole: unreachable.
        assert!(!p.probe(a("2001:db8::1"), 80));
        // Dead address inside the aliased fault region: answers anyway.
        assert!(p.probe(a("2001:db8:aaaa::1234"), 80));
        // Unaffected dead address: still dead.
        assert!(!p.probe(a("2001:db8:1::1"), 80));
    }
}
