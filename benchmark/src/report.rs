//! Workload and metric names, and the result a run prints.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::hist::{supported_tail, Histogram};
use crate::trace::Span;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `S4` on an empty store: the solver stack and the store's write path.
    CampaignCold,
    /// `S4` against the fixture, fresh engine per pass: all cache hits.
    CampaignWarm,
    /// Cheap routes of the service over the fixture.
    ServeRead,
    /// `/query` and `/compare` over the static fixture.
    ServeQuery,
    /// The same mix while a writer grows the store from 20 to 60 units.
    ServeQueryGrowing,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 5] = [
        Workload::CampaignCold,
        Workload::CampaignWarm,
        Workload::ServeRead,
        Workload::ServeQuery,
        Workload::ServeQueryGrowing,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCold => "campaign_cold",
            Workload::CampaignWarm => "campaign_warm",
            Workload::ServeRead => "serve_read",
            Workload::ServeQuery => "serve_query",
            Workload::ServeQueryGrowing => "serve_query_growing",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `op_tail_us` reports: the highest one the
    /// workload's sample count supports in a run of the configured
    /// length, fixed so the metric means the same thing on every run.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::CampaignCold => 0.75,
            Workload::ServeRead => 0.99,
            Workload::CampaignWarm | Workload::ServeQuery | Workload::ServeQueryGrowing => 0.95,
        }
    }
}

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric. A workload that bypasses a
/// layer reports 0 for it. Names ending in a count unit are exact:
/// they must repeat on every run of the same code.
pub const PER_LAYER: [(&str, &str); 84] = [
    ("host.nproc", "count"),
    ("host.effective_threads", "count"),
    ("host.triad_gbs", "GB/s"),
    ("host.triad_ws_gbs", "GB/s"),
    ("sparse.spmv_calls", "count"),
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_gflops", "GFLOP/s"),
    ("sparse.spmv_gbs_computed", "GB/s"),
    ("sparse.spmv_roofline_frac", "ratio"),
    ("sparse.sell_share", "ratio"),
    ("sparse.sell_convert_s", "s"),
    ("sparse.blas1_s", "s"),
    ("sparse.par_spmv_speedup_t2", "ratio"),
    ("sparse.artifact_hit_rate", "ratio"),
    ("sparse.gen_s", "s"),
    ("solvers.cg_iters", "count"),
    ("solvers.cg_s", "s"),
    ("solvers.cg_step_us", "us"),
    ("solvers.cg_spmv_frac", "ratio"),
    ("solvers.cg_step_allocs", "count"),
    ("core.run_s", "s"),
    ("core.run_self_s", "s"),
    ("core.virtual_s", "s"),
    ("core.energy_j", "J"),
    ("core.faults_injected", "count"),
    ("core.sim_speed", "ratio"),
    ("core.reconstruct_us", "us"),
    ("core.li_warm_allocs", "count"),
    ("core.lsi_warm_allocs", "count"),
    ("core.ckpt_save_us", "us"),
    ("core.ckpt_bytes", "bytes"),
    ("cluster.iter_charge_ns", "ns"),
    ("power.account_ns", "ns"),
    ("campaign.units", "count"),
    ("campaign.executed", "count"),
    ("campaign.hit_rate", "ratio"),
    ("campaign.self_s", "s"),
    ("campaign.store_us", "us"),
    ("campaign.store_bytes_per_unit", "bytes"),
    ("campaign.journal_append_us", "us"),
    ("campaign.spec_hash_us", "us"),
    ("campaign.lookup_us", "us"),
    ("campaign.load_us", "us"),
    ("campaign.engine_open_us", "us"),
    ("campaign.jobs2_speedup", "ratio"),
    ("campaign.fixture_fill_s", "s"),
    ("experiments.harness_self_s", "s"),
    ("experiments.workload_hit_rate", "ratio"),
    ("experiments.fingerprint_us", "us"),
    ("experiments.tables_json_us", "us"),
    ("lab.ingest_ms", "ms"),
    ("lab.ingest_objects", "count"),
    ("lab.ingest_mb_s", "MB/s"),
    ("lab.ingest_rejected", "count"),
    ("lab.parse_us", "us"),
    ("lab.exec_us", "us"),
    ("lab.compare_us", "us"),
    ("lab.ingest_share", "ratio"),
    ("serve.boot_ms", "ms"),
    ("serve.http_parse_ns", "ns"),
    ("serve.http_serialize_ns", "ns"),
    ("serve.lat_health_p50_us", "us"),
    ("serve.lat_listing_p50_us", "us"),
    ("serve.lat_exp_hit_p50_us", "us"),
    ("serve.lat_exp_304_p50_us", "us"),
    ("serve.lat_report_200_p50_us", "us"),
    ("serve.lat_report_304_p50_us", "us"),
    ("serve.lat_metrics_p50_us", "us"),
    ("serve.lat_miss_404_p50_us", "us"),
    ("serve.lat_report_200_p99_us", "us"),
    ("serve.keepalive_reuse_rate", "ratio"),
    ("serve.reconnects", "count"),
    ("serve.result_cache_hit_rate", "ratio"),
    ("serve.lat_query_p50_us", "us"),
    ("serve.lat_query_304_p50_us", "us"),
    ("serve.lat_compare_p50_us", "us"),
    ("serve.lat_query_p99_us", "us"),
    ("serve.dispatch_residual_us", "us"),
    ("serve.computations", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed_503", "count"),
    ("serve.lat_query_after_growth_p50_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that failed, were refused, or failed an output check.
    pub failed: u64,
    /// Ops per reference-clock second (see `clock`), before failed
    /// ops are taken out: the median over the run's slices.
    pub rate_per_s: f64,
    /// Mean clock factor over the measured phase: reference seconds
    /// per wall second.
    pub clock_factor: f64,
    /// Wall seconds of the measured phase, as the wall clock read them.
    pub wall_s: f64,
    /// Process CPU seconds over the measured phase.
    pub cpu_s: f64,
    /// Latency of every op, in reference-clock nanoseconds.
    pub latency: Histogram,
    /// Set-up times, reference-clock seconds: this process's and its
    /// probes'.
    pub setup_samples_s: Vec<f64>,
    /// Exact facts about the outputs (`store_digest`, counts): must be
    /// identical on every run of the same code and inputs.
    pub facts: Vec<(String, String)>,
    /// First messages of failed checks.
    pub failures: Vec<String>,
    /// Per-layer metrics this workload measured (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// `(layer, self seconds)` rows that sum, with
    /// `trace.unattributed_s`, to `traced_total_s`.
    pub layer_self_s: Vec<(String, f64)>,
    /// What the self-time rows partition: the traced wall, times the
    /// client connections for a served workload.
    pub traced_total_s: f64,
    /// Spans per recording thread (traced run only).
    pub spans: Vec<(String, Vec<Span>)>,
}

impl Outcome {
    /// Records a failed check, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Closes the traced run of a single-threaded workload: keeps its
    /// spans and computes the trace's own two metrics.
    pub fn finish_trace(&mut self, spans: Vec<Span>) {
        let count = spans.len();
        self.spans.push(("main".to_string(), spans));
        self.close_trace(count, 1.0);
    }

    /// Computes what the layer rows leave unattributed and the share of
    /// the wall that recording `spans` spans cost. `lanes` is how many
    /// op streams ran side by side (client connections), each of which
    /// accounts for one wall.
    pub fn close_trace(&mut self, spans: usize, lanes: f64) {
        self.traced_total_s = self.wall_s * lanes;
        let attributed: f64 = self.layer_self_s.iter().map(|(_, s)| s).sum();
        // Replayed layers can also claim more than was measured; either
        // way the gap is time the layer rows do not explain.
        self.layer(
            "trace.unattributed_s",
            (self.traced_total_s - attributed).abs(),
        );
        let overhead_s = spans as f64 * crate::trace::span_cost_ns() / 1e9;
        self.layer("trace.overhead_share", overhead_s / self.wall_s.max(1e-9));
    }

    /// The end-to-end metric values, in [`END_TO_END`] order.
    pub fn end_to_end(&self, workload: Workload) -> Vec<(&'static str, f64)> {
        let ops = self.attempted.max(1) as f64;
        let done_share = self.attempted.saturating_sub(self.failed) as f64 / ops;
        vec![
            ("ops_per_s", self.rate_per_s * done_share),
            ("op_p50_us", self.latency.quantile_us(0.5)),
            (
                "op_tail_us",
                self.latency.quantile_us(workload.tail_quantile()),
            ),
            ("cpu_us_per_op", self.cpu_s * self.clock_factor * 1e6 / ops),
            ("peak_rss_mb", crate::host::peak_rss_mb()),
            ("setup_s", crate::hist::median(&self.setup_samples_s)),
        ]
    }

    /// Whether the sample supports the workload's tail percentile.
    pub fn tail_supported(&self, workload: Workload) -> bool {
        supported_tail(self.latency.count()).is_some_and(|q| q >= workload.tail_quantile())
    }
}

/// The JSON object a run ends its standard output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).unwrap_or("");
            (
                (*name).to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("ops_per_s", 12.5), ("setup_s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"ops_per_s\":{\"value\":12.5,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_turns_an_op_into_a_failure() {
        let mut out = Outcome {
            attempted: 4,
            rate_per_s: 2.0,
            ..Outcome::default()
        };
        assert_eq!(out.end_to_end(Workload::ServeRead)[0], ("ops_per_s", 2.0));
        out.fail("wrong body".to_string());
        assert_eq!(out.failed, 1);
        assert_eq!(out.end_to_end(Workload::ServeRead)[0], ("ops_per_s", 1.5));
    }
}
