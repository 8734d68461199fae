//! Statistics helpers: nearest-rank percentiles that refuse to report a
//! tail the sample cannot support, open-loop latency timed from the due
//! time, and the failure share.

use std::time::{Duration, Instant};

/// A percentile needs at least this many samples strictly above its rank
/// before it is reported; below that the tail is noise.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Why a percentile was not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused {
    /// Number of samples offered.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refused: {} of {} samples beyond the rank, {MIN_BEYOND} needed",
            self.beyond, self.samples
        )
    }
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `values`: the
/// smallest sample with at least `p` % of the samples at or below it.
/// The median (`p = 50`) is always reported for a non-empty sample;
/// any higher percentile is refused unless at least [`MIN_BEYOND`]
/// samples lie beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> Result<Quantile, Refused> {
    let samples = values.len();
    if samples == 0 {
        return Err(Refused { samples, beyond: 0 });
    }
    let rank = ((p / 100.0 * samples as f64).ceil() as usize).clamp(1, samples);
    let beyond = samples - rank;
    if p > 50.0 && beyond < MIN_BEYOND {
        return Err(Refused { samples, beyond });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Quantile {
        value: sorted[rank - 1],
        samples,
    })
}

/// The nearest-rank median of a non-empty sample (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).map_or(0.0, |q| q.value)
}

/// Failed operations as a share of attempted ones (`0.0` when nothing
/// was attempted).
pub fn failure_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// A fixed-rate request schedule for an open-loop client. Each request
/// is due at `start + k × period` whatever happened to earlier ones, so
/// a stall in the system shows up as latency on every request it
/// delays, not as a quietly lower request rate.
#[derive(Debug)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    next: u64,
    lateness_max: Duration,
}

impl OpenLoop {
    /// A schedule starting at `start` with one request per `period`.
    pub fn new(start: Instant, period: Duration) -> OpenLoop {
        OpenLoop {
            start,
            period,
            next: 0,
            lateness_max: Duration::ZERO,
        }
    }

    /// Waits until the next request is due and returns its due time.
    /// When the generator is already past the due time (the previous
    /// request overran), it returns at once and records how late it is.
    pub fn wait_next(&mut self) -> Instant {
        let due = self.start + self.period * self.next as u32;
        self.next += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        } else {
            self.lateness_max = self.lateness_max.max(now - due);
        }
        due
    }

    /// Requests scheduled so far.
    pub fn issued(&self) -> u64 {
        self.next
    }

    /// The largest delay between a due time and the moment the generator
    /// got round to sending the request.
    pub fn lateness_max(&self) -> Duration {
        self.lateness_max
    }
}

/// Latency of an open-loop request: from its due time, not from when it
/// was actually sent, to when its response ended.
pub fn open_loop_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let values = ramp(100);
        assert_eq!(percentile(&values, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&values, 90.0).unwrap().value, 90.0);
        assert_eq!(percentile(&values, 90.0).unwrap().samples, 100);
        // Order of the input does not matter.
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0).unwrap().value, 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentiles_without_ten_samples_beyond_are_refused() {
        // p90 of 99 samples has only 9 beyond rank 90.
        let refused = percentile(&ramp(99), 90.0).unwrap_err();
        assert_eq!(
            refused,
            Refused {
                samples: 99,
                beyond: 9
            }
        );
        assert!(refused.to_string().contains("99 samples"));
        assert!(percentile(&ramp(100), 90.0).is_ok());
        // p99 needs a thousand samples, p95 two hundred.
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert!(percentile(&ramp(1000), 99.0).is_ok());
        assert!(percentile(&ramp(199), 95.0).is_err());
        assert!(percentile(&ramp(200), 95.0).is_ok());
        // The median is always reported, the empty sample never.
        assert_eq!(percentile(&[7.0], 50.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn failure_share_counts_failures_against_attempts() {
        assert_eq!(failure_share(0, 0), 0.0);
        assert_eq!(failure_share(200, 0), 0.0);
        assert_eq!(failure_share(200, 5), 0.025);
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_records_lateness() {
        let start = Instant::now();
        let mut schedule = OpenLoop::new(start, Duration::from_millis(2));
        let first = schedule.wait_next();
        assert_eq!(first, start);
        // Stall past the next two due times: the generator falls behind.
        std::thread::sleep(Duration::from_millis(7));
        let second = schedule.wait_next();
        assert_eq!(second, start + Duration::from_millis(2));
        assert!(schedule.lateness_max() >= Duration::from_millis(4));
        // Latency counts the stall, not just the service time.
        let done = Instant::now();
        assert!(open_loop_latency(second, done) >= Duration::from_millis(5));
        assert_eq!(open_loop_latency(done, second), Duration::ZERO);
        assert_eq!(schedule.issued(), 2);
    }
}
