//! Metric names, the run's report, and its output: readable lines for
//! people, then one JSON line with the metrics the run mode owes.

use crate::stats::{percentile, Refused};
use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports each of them from its
/// untraced run. Kept equal to `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every workload reports each of them from its
/// traced run, 0 where the workload does not call the layer. Kept
/// equal to `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // End-to-end quantities that only some workloads have.
    ("dealiased_hits", "count"),
    ("first_target_ms_p50", "ms"),
    ("first_target_ms_p90", "ms"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("stream_gap_ms_p99", "ms"),
    ("healthz_ms_p50", "ms"),
    ("healthz_ms_p95", "ms"),
    ("status_ms_p50", "ms"),
    ("status_ms_p95", "ms"),
    // datasets::io
    ("datasets.parse_ms", "ms"),
    ("datasets.write_ms", "ms"),
    // core::engine set-up and the addr tree
    ("core.new_ms", "ms"),
    ("core.start_ms", "ms"),
    ("core.first_step_ms", "ms"),
    ("core.fill_us_per_seed", "us"),
    // core::engine rounds
    ("core.steps", "count"),
    ("core.step_us_p50", "us"),
    ("core.step_us_p99", "us"),
    ("core.phase.cache_fill_ms", "ms"),
    ("core.phase.select_ms", "ms"),
    ("core.phase.commit_ms", "ms"),
    ("core.phase.subsume_ms", "ms"),
    ("core.growth_eval_us_p99", "us"),
    ("core.cache_recomputes", "count"),
    // core::budget final sampling and TargetSet
    ("core.final_step_ms", "ms"),
    ("core.finish_ms", "ms"),
    // core::shard, pool and BudgetPool
    ("core.fleet_ms", "ms"),
    ("core.fleet_targets_per_s", "1/s"),
    ("core.shard_busy_max_ms", "ms"),
    ("core.fleet_busy_frac", "ratio"),
    ("core.fleet_epochs", "count"),
    ("core.pool_jobs", "count"),
    // routing
    ("routing.group_ms", "ms"),
    // simnet prober and faults
    ("simnet.scan_ms", "ms"),
    ("simnet.packets", "count"),
    ("simnet.packets_per_s", "1/s"),
    ("simnet.retransmits", "count"),
    ("simnet.hit_frac", "ratio"),
    ("simnet.probe_calls", "count"),
    ("simnet.probe_ns_mean", "ns"),
    // simnet::dealias
    ("simnet.dealias_ms", "ms"),
    ("simnet.dealias_packets", "count"),
    // core::adaptive
    ("core.adaptive_ms", "ms"),
    ("core.adaptive_self_ms", "ms"),
    ("core.adaptive_prefix_ms_max", "ms"),
    ("core.adaptive_growths", "count"),
    ("core.adaptive_hit_frac", "ratio"),
    // core::checkpoint
    ("core.ckpt_snapshot_ms_p50", "ms"),
    ("core.ckpt_encode_ms_p50", "ms"),
    ("core.ckpt_write_ms_p50", "ms"),
    ("core.ckpt_mb_p50", "MB"),
    ("core.ckpts_per_job", "count"),
    // serve job layer
    ("serve.post_ms_p50", "ms"),
    ("serve.first_chunk_ms_p50", "ms"),
    ("serve.rounds_per_job", "count"),
    ("serve.stream_targets_per_s", "1/s"),
    ("serve.engine_frac", "ratio"),
    // obs HTTP transport and observer
    ("obs.http_503", "count"),
    ("client.lateness_ms_max", "ms"),
    // trace accounting
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// Everything one run found: metric values with their sample counts,
/// operations attempted and failed, and what failed.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
    refused: Vec<(&'static str, Refused)>,
    /// Operations attempted (sessions, fleets, prefix scans, jobs,
    /// monitor requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Readable notes printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        unit_of(name);
        self.values.insert(name, (value, samples));
    }

    /// Sets a nearest-rank percentile of `values`; a refused percentile
    /// is left unset and listed with its sample count.
    pub fn set_percentile(&mut self, name: &'static str, values: &[f64], p: f64) {
        match percentile(values, p) {
            Ok(q) => self.set(name, q.value, q.samples),
            Err(refused) => {
                unit_of(name);
                self.refused.push((name, refused));
            }
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Records one operation and the problems its checks found; any
    /// problem makes it a failed operation.
    pub fn operation(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Whether every operation succeeded and every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Readable lines: every metric set, by name, with its unit and
    /// sample count; refused percentiles; notes; problems.
    pub fn lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, (value, samples)) in &self.values {
            lines.push(format!(
                "metric {name} = {value} {} (n={samples})",
                unit_of(name)
            ));
        }
        for (name, refused) in &self.refused {
            lines.push(format!("metric {name} {refused}"));
        }
        lines.extend(self.notes.iter().map(|n| format!("note {n}")));
        lines.extend(self.problems.iter().map(|p| format!("FAILED {p}")));
        lines
    }

    /// The result line: the end-to-end metrics for an untraced run, the
    /// per-layer metrics for a traced one. A metric the workload does
    /// not have reads 0.
    pub fn json(&self, traced: bool) -> String {
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let section = |key: &str, next: &str| {
            let start = manifest
                .find(&format!("\"{key}\""))
                .expect("section present");
            let end = manifest[start..]
                .find(&format!("\"{next}\""))
                .map_or(manifest.len(), |e| start + e);
            manifest[start..end].to_string()
        };
        let e2e = section("end_to_end", "per_layer");
        let layer = section("per_layer", "\u{0}");
        let count = |text: &str| text.matches("\"name\"").count();
        assert_eq!(count(&e2e), END_TO_END.len());
        assert_eq!(count(&layer), PER_LAYER.len());
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for (name, unit) in PER_LAYER {
            assert!(
                layer.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn a_failed_check_fails_the_operation_and_the_run() {
        let mut report = Report::default();
        report.operation(vec![]);
        assert!(report.correct());
        report.operation(vec!["target 7 differs".into(), "second problem".into()]);
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert!(!report.correct());
        assert!(report
            .json(false)
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
    }

    #[test]
    fn json_lists_every_metric_of_the_mode_with_its_unit() {
        let mut report = Report::default();
        report.operation(vec![]);
        report.set("wall_s", 1.25, 3);
        report.set_percentile("job_s_p90", &[1.0; 5], 90.0);
        let untraced = report.json(false);
        assert!(untraced.contains("\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert!(untraced.contains("\"setup_s\":{\"value\":0,\"unit\":\"s\"}"));
        assert!(!untraced.contains("job_s_p90"));
        let traced = report.json(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(report
            .lines()
            .iter()
            .any(|l| l.contains("job_s_p90 refused")));
    }
}
