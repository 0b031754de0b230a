//! Metric names, units, statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("load_s", "s"),
    ("query_s", "s"),
    ("job_s", "s"),
    ("serve_jobs_per_s", "1/s"),
    ("sim_response_s", "sim_s"),
    ("sim_latency_p50_s", "sim_s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run of every workload. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("sim_network_mb", "MB"),
    ("sim_latency_p90_s", "sim_s"),
    ("graph.generate_s", "s"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.storage_bytes", "bytes"),
    ("graph.working_set_bytes", "bytes"),
    ("partition.symmetrize_s", "s"),
    ("partition.root_bisect_s", "s"),
    ("partition.recursive_s", "s"),
    ("partition.place_s", "s"),
    ("partition.build_s", "s"),
    ("partition.inner_edge_ratio", "ratio"),
    ("partition.root_cut_weight", "count"),
    ("engine.iter_s.vectorized", "s"),
    ("engine.iter_s.scalar", "s"),
    ("engine.msgs_per_s", "1/s"),
    ("engine.vec_over_scalar", "ratio"),
    ("engine.threads_speedup", "ratio"),
    ("engine.local_msgs", "count"),
    ("engine.cross_msgs", "count"),
    ("kernel.fastpath_ratio", "ratio"),
    ("mapreduce.job_s", "s"),
    ("mapreduce.reduce_values", "count"),
    ("checkpoint.job_s", "s"),
    ("checkpoint.writes", "count"),
    ("checkpoint.snapshot_bytes", "bytes"),
    ("checkpoint.restores", "count"),
    ("checkpoint.tail_recomputed", "count"),
    ("ooc.bytes_spilled", "bytes"),
    ("ooc.bytes_reread", "bytes"),
    ("ooc.spill_iterations", "count"),
    ("ooc.spill_over_resident", "ratio"),
    ("serve.admit_s", "s"),
    ("serve.step_s", "s"),
    ("serve.dispatch_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_wait_sim_s", "sim_s"),
    ("serve.refused", "count"),
    ("cluster.tasks", "count"),
    ("cluster.disk_mb", "MB"),
    ("query.app_s", "s"),
    ("failed_frac", "ratio"),
    ("trace.job_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// Measured value (a median where `samples > 1`).
    pub value: f64,
    /// How many measurements the value summarises.
    pub samples: usize,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: app runs, served jobs and engine probes.
    pub attempted: u64,
    /// Operations that failed, were refused or gave wrong output.
    pub failed: u64,
    /// One line per wrong output; any entry makes the run exit non-zero.
    pub mismatches: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result (context, self-time breakdown).
    pub notes: Vec<String>,
    /// The trace export (traced runs only).
    pub trace_json: Option<String>,
}

impl Outcome {
    /// True when every output matched its reference.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Record a check: counts one attempted operation, and a failure plus
    /// a mismatch line when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    /// Set a metric by name; the unit comes from the metric tables.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Set a metric to the median of `values`, and note the samples.
    pub fn set_median(&mut self, name: &'static str, values: &[f64]) {
        self.set(name, median(values), values.len());
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        self.notes
            .push(format!("samples {name}: [{}]", shown.join(", ")));
    }

    /// Fill every per-layer metric the workload did not set with 0.
    pub fn fill_layers(&mut self) {
        for (name, _) in PER_LAYER {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.set(name, 0.0, 0);
            }
        }
    }

    /// The metrics a run of this kind reports, in table order.
    pub fn reported(&self, traced: bool) -> Vec<Metric> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .filter_map(|(n, _)| self.metrics.iter().find(|m| m.name == *n).cloned())
            .collect()
    }

    /// The result object printed as the run's last line.
    pub fn result_line(&self, traced: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(&self.reported(traced))
        )
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` for the given metrics.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push('}');
    s
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 1] (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's resident-memory high-water mark in MB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
