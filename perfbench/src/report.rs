//! The names the benchmark prints, and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics and the
//! same workloads but `indb-scoring`, which runs by hand: its latency and
//! throughput follow the host's speed too closely to hold a bound. A test
//! keeps the two in step.

use std::collections::BTreeMap;

/// Workload names and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "online-fraud",
        "single-row requests at a third of saturation load wire, reactor, batcher and small kernels, with no planning, storage or relational work",
    ),
    (
        "online-mixed",
        "two models and priority bands under Adaptive: per-call planning, admission, head-of-line blocking; its traced run adds in-database queries for the storage, relational and executor layers",
    ),
    (
        "indb-scoring",
        "closed-loop in-database queries: heap scan, optimizer, UDF, hybrid and relation-centric execution, block joins, buffer pool and disk; no serve layer",
    ),
];

/// End-to-end metrics (printed with `--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("slo_pct", "%"),
    ("rows_per_s", "rows/s"),
    ("rss_mib", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_wait_us.p50", "us"),
    ("serve.queue_wait_us.p99", "us"),
    ("serve.post_queue_us.p50", "us"),
    ("serve.post_queue_us.p99", "us"),
    ("serve.batch_rows.avg", "rows"),
    ("serve.batches", "count"),
    ("serve.saturation_rows_per_s", "rows/s"),
    ("serve.batch_class.p50_ms", "ms"),
    ("serve.wire.encode_us", "us"),
    ("serve.wire.decode_us", "us"),
    ("serve.shed", "count"),
    ("serve.deadline_rejected", "count"),
    ("serve.wire_errors", "count"),
    ("serve.reactor.read_pauses", "count"),
    ("serve.reactor.response_parks", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.bound_rejections", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.bytes", "bytes"),
    ("serve.cache.disagreements", "count"),
    ("vectoridx.hnsw.search_us", "us"),
    ("runtime.admission.interactive.admitted", "count"),
    ("runtime.admission.interactive.shed", "count"),
    ("runtime.admission.interactive.deadline_expired", "count"),
    ("runtime.admission.standard.admitted", "count"),
    ("runtime.admission.standard.shed", "count"),
    ("runtime.admission.standard.deadline_expired", "count"),
    ("runtime.admission.batch.admitted", "count"),
    ("runtime.admission.batch.shed", "count"),
    ("runtime.admission.batch.deadline_expired", "count"),
    ("runtime.admit_us", "us"),
    ("runtime.kernel_pool.tasks_run", "count"),
    ("runtime.kernel_pool.steals", "count"),
    ("runtime.kernel_pool.parks", "count"),
    ("runtime.governor.peak_mib", "MiB"),
    ("runtime.governor.oom_events", "count"),
    ("core.plan_us", "us"),
    ("core.plan.relational_layers", "layers"),
    ("core.exec.udf_us", "us"),
    ("core.exec.relation_us", "us"),
    ("core.exec.hybrid_us", "us"),
    ("core.session_overhead_us", "us"),
    ("core.degradations", "count"),
    ("core.kernel_panics", "count"),
    ("relational.from_dense_us", "us"),
    ("relational.matmul_bt_us", "us"),
    ("relational.add_bias_us", "us"),
    ("relational.map_us", "us"),
    ("relational.joins", "count"),
    ("relational.blocks_out", "count"),
    ("relational.bytes_read", "bytes"),
    ("relational.bytes_written", "bytes"),
    ("storage.heap.scan_us", "us"),
    ("storage.pool.hits", "count"),
    ("storage.pool.misses", "count"),
    ("storage.pool.evictions", "count"),
    ("storage.pool.writebacks", "count"),
    ("storage.disk.pages_allocated", "count"),
    ("storage.disk.pages_per_query", "pages"),
    ("storage.disk.reads", "count"),
    ("storage.disk.writes", "count"),
    ("storage.db_growth_mib", "MiB"),
    ("tensor.matmul_us", "us"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_bytes", "bytes"),
    ("nn.forward_us", "us"),
    ("trace.spans", "count"),
    ("trace_overhead_pct", "%"),
];

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets a metric; the name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Sets every metric of `table` that is still unset to `value`.
    pub fn fill_unset(&mut self, table: &[(&'static str, &str)], value: f64) {
        for (name, _) in table {
            self.0.entry(name).or_insert(value);
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome counts of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// Answers that disagreed with the serial oracle (also in `failed`).
    pub wrong: u64,
}

/// The result line: every metric of `table` with its unit. Errors name a
/// metric that was not measured or is not a finite number.
pub fn json_line(
    outcome: Outcome,
    table: &[(&str, &str)],
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_requires_every_metric() {
        let mut v = Values::default();
        let ok = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        assert!(json_line(ok, END_TO_END, &v).is_err());
        for (name, _) in END_TO_END {
            v.set(name, 1.5);
        }
        let line = json_line(ok, END_TO_END, &v).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        v.set("p50_ms", f64::NAN);
        assert!(json_line(ok, END_TO_END, &v).is_err());
        v.set("p50_ms", 2.0);
        v.fill_unset(PER_LAYER, 0.0);
        assert_eq!(v.get("p50_ms"), Some(2.0));
        assert_eq!(v.get("trace.spans"), Some(0.0));
    }

    #[test]
    fn a_wrong_answer_marks_the_run_incorrect() {
        let mut v = Values::default();
        v.set("setup_s", 1.0);
        let wrong = Outcome {
            attempted: 2,
            failed: 1,
            wrong: 1,
        };
        let line = json_line(wrong, &[("setup_s", "s")], &v).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }
}
