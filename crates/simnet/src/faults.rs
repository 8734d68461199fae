//! Composable fault models for the simulated scanner.
//!
//! Real Internet-wide scans do not observe clean ground truth: packets are
//! lost independently and in bursts, routers rate-limit their responses,
//! and whole regions are blackholed or answer for every address (§6.2's
//! aliased prefixes). Each phenomenon is a [`FaultModel`]; a
//! [`Prober`](crate::Prober) carries a stack of them and consults every
//! model for every probe packet.
//!
//! Models are *stateful* (a Gilbert–Elliott channel remembers its state, a
//! token bucket its fill level) and *virtual-time driven*: they see the
//! probe's [`send_time`](ProbeContext::send_time) on the prober's simulated
//! clock, so time-dependent behaviour (burst decay, bucket refill) reacts
//! to retransmission backoff exactly as it would on the wire. Everything is
//! deterministic given the prober's RNG seed.
//!
//! Verdicts combine across the stack with precedence
//! [`Drop`](FaultAction::Drop) > [`Answer`](FaultAction::Answer) >
//! [`Pass`](FaultAction::Pass): a lost packet is lost no matter what an
//! aliased region would have said.

use rand::rngs::StdRng;
use rand::Rng;
use sixgen_addr::{NybbleAddr, Prefix};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Everything a fault model may observe about one probe packet.
#[derive(Debug, Clone, Copy)]
pub struct ProbeContext {
    /// Target address.
    pub addr: NybbleAddr,
    /// Target port.
    pub port: u16,
    /// Index of this packet in the prober's lifetime (0-based).
    pub packet_index: u64,
    /// Virtual send time on the prober's simulated clock (transmit time at
    /// the configured rate plus accumulated retransmission backoff).
    pub send_time: Duration,
    /// Attempt number for this target within the current probe call
    /// (0 = first transmission).
    pub attempt: u32,
    /// Whether ground truth says the target would answer.
    pub responsive: bool,
}

/// A fault model's verdict for one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultAction {
    /// No opinion: ground truth decides.
    #[default]
    Pass,
    /// The probe is answered regardless of ground truth (aliased or
    /// middlebox-answered space).
    Answer,
    /// The probe (or its response) is lost.
    Drop,
}

impl FaultAction {
    /// Combines two verdicts with `Drop > Answer > Pass` precedence.
    pub fn combine(self, other: FaultAction) -> FaultAction {
        use FaultAction::*;
        match (self, other) {
            (Drop, _) | (_, Drop) => Drop,
            (Answer, _) | (_, Answer) => Answer,
            (Pass, Pass) => Pass,
        }
    }
}

/// A composable network fault.
///
/// Implementations must be deterministic functions of their configuration,
/// their accumulated state, the probe context, and the supplied RNG — the
/// prober's reproducibility guarantee rests on it.
pub trait FaultModel: fmt::Debug + Send {
    /// Judges one probe packet. Called exactly once per transmitted packet,
    /// in transmission order, with monotonically non-decreasing
    /// [`send_time`](ProbeContext::send_time).
    fn apply(&mut self, ctx: &ProbeContext, rng: &mut StdRng) -> FaultAction;

    /// Clones the model into a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn FaultModel>;

    /// Stable short name for metrics keys (`prober/fault/<name>/...`).
    /// Two models with the same name in one stack share counters.
    fn name(&self) -> &'static str {
        "fault"
    }
}

impl Clone for Box<dyn FaultModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// An invalid fault-model (or prober) configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    /// A probability parameter is outside `[0, 1]` (or not a number).
    ProbabilityOutOfRange {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A duration or rate parameter must be positive and finite.
    NonPositive {
        /// Which parameter.
        what: &'static str,
    },
    /// A prefix length exceeds 128 bits.
    PrefixTooLong {
        /// The offending length.
        len: u8,
    },
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::ProbabilityOutOfRange { what, value } => {
                write!(f, "{what} = {value} is outside [0, 1]")
            }
            FaultConfigError::NonPositive { what } => {
                write!(f, "{what} must be positive and finite")
            }
            FaultConfigError::PrefixTooLong { len } => {
                write!(f, "prefix length {len} exceeds 128")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

fn check_probability(what: &'static str, value: f64) -> Result<f64, FaultConfigError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(FaultConfigError::ProbabilityOutOfRange { what, value })
    }
}

/// Independent (i.i.d.) packet loss: every packet is dropped with the same
/// probability. Subsumes the prober's legacy `loss` field.
#[derive(Debug, Clone)]
pub struct UniformLoss {
    loss: f64,
}

impl UniformLoss {
    /// Validates `loss ∈ [0, 1]`.
    pub fn new(loss: f64) -> Result<UniformLoss, FaultConfigError> {
        Ok(UniformLoss {
            loss: check_probability("loss", loss)?,
        })
    }

    /// The configured loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }
}

impl FaultModel for UniformLoss {
    fn apply(&mut self, _ctx: &ProbeContext, rng: &mut StdRng) -> FaultAction {
        if self.loss > 0.0 && rng.gen_bool(self.loss) {
            FaultAction::Drop
        } else {
            FaultAction::Pass
        }
    }

    fn clone_box(&self) -> Box<dyn FaultModel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "uniform_loss"
    }
}

/// Parameters for the [`GilbertElliott`] bursty-loss channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliottConfig {
    /// Mean sojourn time in the good state.
    pub mean_good: Duration,
    /// Mean sojourn time in the bad (burst) state.
    pub mean_bad: Duration,
    /// Loss probability while the channel is good.
    pub loss_good: f64,
    /// Loss probability while the channel is bad.
    pub loss_bad: f64,
}

impl Default for GilbertElliottConfig {
    fn default() -> Self {
        GilbertElliottConfig {
            mean_good: Duration::from_secs(2),
            mean_bad: Duration::from_millis(200),
            loss_good: 0.005,
            loss_bad: 0.9,
        }
    }
}

/// Bursty packet loss: a continuous-time Gilbert–Elliott channel.
///
/// The channel alternates between a *good* and a *bad* state with
/// exponentially distributed sojourn times, advanced along the prober's
/// virtual clock. Packets sent back-to-back therefore share channel state
/// (a burst eats a whole retry volley), while a retransmission delayed by
/// backoff sees the channel with a fresh chance of having recovered — the
/// mechanism that lets adaptive retries outperform immediate ones.
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    config: GilbertElliottConfig,
    in_bad: bool,
    /// Virtual time up to which the chain has been advanced.
    clock: Duration,
}

impl GilbertElliott {
    /// Validates probabilities and sojourn times.
    pub fn new(config: GilbertElliottConfig) -> Result<GilbertElliott, FaultConfigError> {
        check_probability("loss_good", config.loss_good)?;
        check_probability("loss_bad", config.loss_bad)?;
        if config.mean_good.is_zero() {
            return Err(FaultConfigError::NonPositive { what: "mean_good" });
        }
        if config.mean_bad.is_zero() {
            return Err(FaultConfigError::NonPositive { what: "mean_bad" });
        }
        Ok(GilbertElliott {
            config,
            in_bad: false,
            clock: Duration::ZERO,
        })
    }

    /// Advances the two-state chain to virtual time `until`. Sojourn times
    /// are exponential, so stopping mid-sojourn and resampling later is
    /// distribution-preserving (memorylessness).
    ///
    /// A sampled dwell that clearly outlasts the remaining gap ends the
    /// walk without being converted to a `Duration`: packets come far
    /// closer together than the mean sojourn, so that is almost every
    /// call, and the exact conversion is only needed for a dwell that ends
    /// inside the gap or within a few nanoseconds of its end.
    fn advance(&mut self, until: Duration, rng: &mut StdRng) {
        while self.clock < until {
            let mean = if self.in_bad {
                self.config.mean_bad
            } else {
                self.config.mean_good
            };
            let secs = exp_secs(mean, rng);
            let gap = until - self.clock;
            if outlasts(secs, gap) {
                self.clock = until;
                return;
            }
            let dwell = Duration::from_secs_f64(secs);
            if dwell >= gap {
                self.clock = until;
                return;
            }
            self.clock += dwell;
            self.in_bad = !self.in_bad;
        }
    }
}

/// An exponentially distributed number of seconds with the given mean.
fn exp_secs(mean: Duration, rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen();
    // 1 - u ∈ (0, 1] keeps ln() finite.
    -(1.0 - u).ln() * mean.as_secs_f64()
}

/// Gaps of at least this many nanoseconds (about 52 days) have no
/// guaranteed-exact `f64` comparison below and take the exact path.
const FAST_GAP_LIMIT_NS: u128 = 1 << 52;

/// How many nanoseconds a dwell's `f64` estimate must clear the gap by.
const GUARD_NS: f64 = 4.0;

/// `true` if `Duration::from_secs_f64(secs) >= gap` for certain, decided
/// without the conversion; `false` means undecided. The conversion lies
/// within 1 ns of `secs × 10⁹`, whose `f64` product is off by under 1 ns
/// below 2⁵³ ns. A gap below 2⁵² ns is exact in `f64`, so a product that
/// clears it by [`GUARD_NS`] leaves the converted dwell at or above the
/// gap; a product of 2⁵³ ns or more is at least twice such a gap.
fn outlasts(secs: f64, gap: Duration) -> bool {
    let gap_ns = gap.as_nanos();
    gap_ns < FAST_GAP_LIMIT_NS && secs * 1e9 >= gap_ns as f64 + GUARD_NS
}

impl FaultModel for GilbertElliott {
    fn apply(&mut self, ctx: &ProbeContext, rng: &mut StdRng) -> FaultAction {
        self.advance(ctx.send_time, rng);
        let loss = if self.in_bad {
            self.config.loss_bad
        } else {
            self.config.loss_good
        };
        if loss > 0.0 && rng.gen_bool(loss) {
            FaultAction::Drop
        } else {
            FaultAction::Pass
        }
    }

    fn clone_box(&self) -> Box<dyn FaultModel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "gilbert_elliott"
    }
}

#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    refilled_at: Duration,
}

/// Per-prefix response rate limiting, as routers apply to ICMPv6 (and some
/// stacks to SYN/ACK generation): each covering prefix of the configured
/// length owns a token bucket; a response is only delivered when a token is
/// available. Buckets refill along the prober's virtual clock, so spacing
/// retransmissions out (backoff) recovers responses that an immediate retry
/// volley would lose.
///
/// Probes to unresponsive space pass through untouched — there is no
/// response to suppress.
#[derive(Debug, Clone)]
pub struct IcmpRateLimit {
    prefix_len: u8,
    rate_per_sec: f64,
    burst: f64,
    buckets: HashMap<u128, TokenBucket>,
}

impl IcmpRateLimit {
    /// A limiter granting `rate_per_sec` responses per second with bucket
    /// capacity `burst`, per prefix of length `prefix_len`.
    pub fn new(
        prefix_len: u8,
        rate_per_sec: f64,
        burst: f64,
    ) -> Result<IcmpRateLimit, FaultConfigError> {
        if prefix_len > 128 {
            return Err(FaultConfigError::PrefixTooLong { len: prefix_len });
        }
        if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
            return Err(FaultConfigError::NonPositive {
                what: "rate_per_sec",
            });
        }
        if !(burst.is_finite() && burst >= 1.0) {
            return Err(FaultConfigError::NonPositive { what: "burst" });
        }
        Ok(IcmpRateLimit {
            prefix_len,
            rate_per_sec,
            burst,
            buckets: HashMap::new(),
        })
    }

    fn key(&self, addr: NybbleAddr) -> u128 {
        if self.prefix_len == 0 {
            0
        } else {
            addr.bits() >> (128 - self.prefix_len as u32)
        }
    }
}

impl FaultModel for IcmpRateLimit {
    fn apply(&mut self, ctx: &ProbeContext, _rng: &mut StdRng) -> FaultAction {
        if !ctx.responsive {
            return FaultAction::Pass;
        }
        let key = self.key(ctx.addr);
        let bucket = self.buckets.entry(key).or_insert(TokenBucket {
            tokens: self.burst,
            refilled_at: ctx.send_time,
        });
        let elapsed = ctx.send_time.saturating_sub(bucket.refilled_at);
        bucket.tokens = (bucket.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
        bucket.refilled_at = ctx.send_time;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            FaultAction::Pass
        } else {
            FaultAction::Drop
        }
    }

    fn clone_box(&self) -> Box<dyn FaultModel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "icmp_rate_limit"
    }
}

/// Blackholed regions: every probe into a listed prefix vanishes (filtered
/// or unrouted space that silently discards traffic).
#[derive(Debug, Clone)]
pub struct Blackhole {
    prefixes: Vec<Prefix>,
}

impl Blackhole {
    /// Blackholes the given prefixes.
    pub fn new(prefixes: Vec<Prefix>) -> Blackhole {
        Blackhole { prefixes }
    }
}

impl FaultModel for Blackhole {
    fn apply(&mut self, ctx: &ProbeContext, _rng: &mut StdRng) -> FaultAction {
        if self.prefixes.iter().any(|p| p.contains(ctx.addr)) {
            FaultAction::Drop
        } else {
            FaultAction::Pass
        }
    }

    fn clone_box(&self) -> Box<dyn FaultModel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "blackhole"
    }
}

/// Aliased regions injected at the network layer: every probe into a listed
/// prefix is answered regardless of ground truth (§6.2's fully responsive
/// prefixes, as a fault rather than a property of a
/// [`NetworkSpec`](crate::NetworkSpec)).
#[derive(Debug, Clone)]
pub struct AliasedResponder {
    prefixes: Vec<Prefix>,
}

impl AliasedResponder {
    /// Makes the given prefixes answer every probe.
    pub fn new(prefixes: Vec<Prefix>) -> AliasedResponder {
        AliasedResponder { prefixes }
    }
}

impl FaultModel for AliasedResponder {
    fn apply(&mut self, ctx: &ProbeContext, _rng: &mut StdRng) -> FaultAction {
        if self.prefixes.iter().any(|p| p.contains(ctx.addr)) {
            FaultAction::Answer
        } else {
            FaultAction::Pass
        }
    }

    fn clone_box(&self) -> Box<dyn FaultModel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "aliased_responder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx(addr: &str, t_ms: u64, responsive: bool) -> ProbeContext {
        ProbeContext {
            addr: addr.parse().unwrap(),
            port: 80,
            packet_index: 0,
            send_time: Duration::from_millis(t_ms),
            attempt: 0,
            responsive,
        }
    }

    #[test]
    fn action_precedence() {
        use FaultAction::*;
        assert_eq!(Pass.combine(Pass), Pass);
        assert_eq!(Pass.combine(Answer), Answer);
        assert_eq!(Answer.combine(Drop), Drop);
        assert_eq!(Drop.combine(Answer), Drop);
        assert_eq!(Drop.combine(Pass), Drop);
    }

    #[test]
    fn uniform_loss_validates() {
        assert!(UniformLoss::new(0.0).is_ok());
        assert!(UniformLoss::new(1.0).is_ok());
        assert!(matches!(
            UniformLoss::new(-0.1),
            Err(FaultConfigError::ProbabilityOutOfRange { what: "loss", .. })
        ));
        assert!(UniformLoss::new(1.5).is_err());
        assert!(UniformLoss::new(f64::NAN).is_err());
    }

    #[test]
    fn uniform_loss_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut all = UniformLoss::new(1.0).unwrap();
        let mut none = UniformLoss::new(0.0).unwrap();
        for i in 0..50 {
            assert_eq!(all.apply(&ctx("2001:db8::1", i, true), &mut rng), FaultAction::Drop);
            assert_eq!(none.apply(&ctx("2001:db8::1", i, true), &mut rng), FaultAction::Pass);
        }
    }

    #[test]
    fn gilbert_elliott_validates() {
        let ok = GilbertElliottConfig::default();
        assert!(GilbertElliott::new(ok).is_ok());
        assert!(GilbertElliott::new(GilbertElliottConfig {
            loss_bad: 1.2,
            ..ok
        })
        .is_err());
        assert!(GilbertElliott::new(GilbertElliottConfig {
            mean_good: Duration::ZERO,
            ..ok
        })
        .is_err());
    }

    #[test]
    fn gilbert_elliott_loses_in_bursts() {
        // All-or-nothing states make the burst structure visible: loss
        // only happens in the bad state, and the observed loss fraction
        // must sit strictly between the two state probabilities.
        let mut ge = GilbertElliott::new(GilbertElliottConfig {
            mean_good: Duration::from_millis(100),
            mean_bad: Duration::from_millis(100),
            loss_good: 0.0,
            loss_bad: 1.0,
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut dropped = 0u32;
        let total = 2_000u32;
        for i in 0..total {
            // One packet per millisecond of virtual time.
            if ge.apply(&ctx("2001:db8::1", i as u64, true), &mut rng) == FaultAction::Drop {
                dropped += 1;
            }
        }
        let fraction = dropped as f64 / total as f64;
        assert!(
            (0.2..=0.8).contains(&fraction),
            "loss fraction {fraction} not near the 0.5 stationary share"
        );
    }

    #[test]
    fn gilbert_elliott_is_deterministic() {
        let config = GilbertElliottConfig::default();
        let run = || {
            let mut ge = GilbertElliott::new(config).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            (0..500u64)
                .map(|i| ge.apply(&ctx("2001:db8::1", i, true), &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// `GilbertElliott::advance` with every dwell converted exactly: the
    /// reference the guard-banded walk must match.
    fn advance_exact(ge: &mut GilbertElliott, until: Duration, rng: &mut StdRng) {
        while ge.clock < until {
            let mean = if ge.in_bad {
                ge.config.mean_bad
            } else {
                ge.config.mean_good
            };
            let dwell = Duration::from_secs_f64(exp_secs(mean, rng));
            if ge.clock + dwell >= until {
                ge.clock = until;
                return;
            }
            ge.clock += dwell;
            ge.in_bad = !ge.in_bad;
        }
    }

    #[test]
    fn guard_banded_walk_matches_the_exact_walk() {
        let ns = Duration::from_nanos;
        let beyond_exact = ns((1 << 53) + 12_345);
        // Each case pairs sojourn means with gaps that the walk crosses in
        // a few transitions: means far above the gaps (the scan's regime),
        // means near them (dwells land in the guard band often), and
        // means large enough for gaps with no exact `f64`.
        let cases: [(Duration, Duration, Vec<Duration>, usize); 4] = [
            (
                Duration::from_secs(2),
                Duration::from_millis(200),
                vec![
                    Duration::ZERO,
                    ns(1),
                    Duration::from_micros(10),
                    Duration::from_millis(200),
                ],
                400_000,
            ),
            (
                Duration::from_micros(10),
                Duration::from_micros(7),
                vec![ns(1), Duration::from_micros(10), Duration::from_micros(3)],
                300_000,
            ),
            (
                ns(5),
                ns(3),
                vec![Duration::ZERO, ns(1), ns(4), ns(9)],
                400_000,
            ),
            (
                ns(1 << 55),
                ns(1 << 53),
                vec![beyond_exact, ns(1 << 54), Duration::from_millis(200), ns(1)],
                200_000,
            ),
        ];
        let mut draws = 0u64;
        for (seed, (mean_good, mean_bad, gaps, steps)) in cases.into_iter().enumerate() {
            let config = GilbertElliottConfig {
                mean_good,
                mean_bad,
                ..GilbertElliottConfig::default()
            };
            let mut fast = GilbertElliott::new(config).unwrap();
            let mut exact = fast.clone();
            let mut fast_rng = StdRng::seed_from_u64(seed as u64);
            let mut exact_rng = fast_rng.clone();
            for step in 0..steps {
                let gap = gaps[step % gaps.len()];
                let until = fast.clock + gap;
                fast.advance(until, &mut fast_rng);
                advance_exact(&mut exact, until, &mut exact_rng);
                assert_eq!(
                    (fast.in_bad, fast.clock),
                    (exact.in_bad, exact.clock),
                    "means {mean_good:?}/{mean_bad:?}, step {step}"
                );
                draws += u64::from(!gap.is_zero());
            }
            assert_eq!(
                fast_rng.gen::<u64>(),
                exact_rng.gen::<u64>(),
                "RNG position"
            );
        }
        assert!(draws >= 1_000_000, "{draws} draws");
        // Gaps with no exact f64 are never decided early.
        assert!(!outlasts(1e30, beyond_exact));
        assert!(outlasts(1e30, Duration::from_millis(200)));
    }

    #[test]
    fn rate_limit_validates() {
        assert!(IcmpRateLimit::new(64, 10.0, 5.0).is_ok());
        assert!(IcmpRateLimit::new(129, 10.0, 5.0).is_err());
        assert!(IcmpRateLimit::new(64, 0.0, 5.0).is_err());
        assert!(IcmpRateLimit::new(64, 10.0, 0.5).is_err());
    }

    #[test]
    fn rate_limit_exhausts_burst_and_refills() {
        // 1 token/sec, burst 3, one /64 bucket.
        let mut rl = IcmpRateLimit::new(64, 1.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // Back-to-back packets at t=0: first 3 pass, rest drop.
        for i in 0..5 {
            let expected = if i < 3 { FaultAction::Pass } else { FaultAction::Drop };
            assert_eq!(rl.apply(&ctx("2001:db8::1", 0, true), &mut rng), expected, "packet {i}");
        }
        // 2 seconds later: 2 tokens refilled.
        assert_eq!(rl.apply(&ctx("2001:db8::2", 2_000, true), &mut rng), FaultAction::Pass);
        assert_eq!(rl.apply(&ctx("2001:db8::3", 2_000, true), &mut rng), FaultAction::Pass);
        assert_eq!(rl.apply(&ctx("2001:db8::4", 2_000, true), &mut rng), FaultAction::Drop);
        // A different /64 has its own untouched bucket.
        assert_eq!(
            rl.apply(&ctx("2001:db8:0:1::1", 2_000, true), &mut rng),
            FaultAction::Pass
        );
    }

    #[test]
    fn rate_limit_ignores_unresponsive_targets() {
        let mut rl = IcmpRateLimit::new(64, 1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        // Unresponsive probes neither consume tokens nor get dropped.
        for _ in 0..10 {
            assert_eq!(rl.apply(&ctx("2001:db8::9", 0, false), &mut rng), FaultAction::Pass);
        }
        assert_eq!(rl.apply(&ctx("2001:db8::1", 0, true), &mut rng), FaultAction::Pass);
        assert_eq!(rl.apply(&ctx("2001:db8::1", 0, true), &mut rng), FaultAction::Drop);
    }

    #[test]
    fn blackhole_and_aliased_regions() {
        let inside = "2001:db8:dead::1";
        let outside = "2001:db8::1";
        let prefix: Prefix = "2001:db8:dead::/48".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut bh = Blackhole::new(vec![prefix]);
        assert_eq!(bh.apply(&ctx(inside, 0, true), &mut rng), FaultAction::Drop);
        assert_eq!(bh.apply(&ctx(outside, 0, true), &mut rng), FaultAction::Pass);
        let mut al = AliasedResponder::new(vec![prefix]);
        assert_eq!(al.apply(&ctx(inside, 0, false), &mut rng), FaultAction::Answer);
        assert_eq!(al.apply(&ctx(outside, 0, false), &mut rng), FaultAction::Pass);
    }

    #[test]
    fn boxed_models_clone() {
        let stack: Vec<Box<dyn FaultModel>> = vec![
            Box::new(UniformLoss::new(0.1).unwrap()),
            Box::new(GilbertElliott::new(GilbertElliottConfig::default()).unwrap()),
            Box::new(IcmpRateLimit::new(64, 10.0, 5.0).unwrap()),
        ];
        let cloned = stack.clone();
        assert_eq!(cloned.len(), 3);
    }
}
