//! The metric catalog, summary statistics and the result writer.
//!
//! The catalog is the single list of metric names this binary prints; the
//! self-test checks it against `BENCHMARK.json`. Each per-layer entry names
//! the end-to-end metric (and workload) it is expected to move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric of the catalog.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric and workload this one should move (per-layer only).
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// Printed by every untraced run, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", ""),
    m("ingest_docs_per_s", "1/s", "higher", ""),
    m("train_docs_per_s", "1/s", "higher", ""),
    m("autotag_docs_per_s", "1/s", "higher", ""),
    m("autotag_p50_ms", "ms", "lower", ""),
    m("autotag_p99_ms", "ms", "lower", ""),
    m("epoch_s", "s", "lower", ""),
    m("converge_s", "s", "lower", ""),
    m("bytes_per_peer", "bytes", "lower", ""),
    m("macro_f1", "ratio", "higher", ""),
    m("served_frac", "ratio", "higher", ""),
    m("peak_rss_mib", "MiB", "lower", ""),
];

const SIM_BYTES: &str = "bytes_per_peer on pace-batch, cempar-query, session-churn";
const RELIABLE: &str =
    "epoch_s, bytes_per_peer, served_frac on session-churn; converge_s on peerd-loopback";

/// Printed by every traced run, on every workload. A layer that the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "doctagger.ingest_s",
        "s",
        "lower",
        "ingest_docs_per_s on pace-batch, cempar-query",
    ),
    m(
        "doctagger.learn_s",
        "s",
        "lower",
        "train_docs_per_s on pace-batch, cempar-query; epoch_s on session-churn",
    ),
    m(
        "doctagger.refine_s",
        "s",
        "lower",
        "epoch_s on session-churn",
    ),
    m(
        "doctagger.autotag_s",
        "s",
        "lower",
        "autotag_docs_per_s, autotag_p50_ms on pace-batch, cempar-query; epoch_s on session-churn",
    ),
    m(
        "doctagger.other_s",
        "s",
        "lower",
        "epoch_s on session-churn",
    ),
    m(
        "trace.unattributed_frac",
        "ratio",
        "lower",
        "every end-to-end time on every workload (share of a pass outside the phase spans)",
    ),
    m(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "every end-to-end time on every workload (traced vs untraced pass)",
    ),
    m(
        "textproc.vectorize_s",
        "s",
        "lower",
        "ingest_docs_per_s on pace-batch",
    ),
    m(
        "textproc.nnz_per_doc",
        "count",
        "lower",
        "ingest_docs_per_s on pace-batch",
    ),
    m(
        "ml.svm.linear_train_s",
        "s",
        "lower",
        "train_docs_per_s on pace-batch",
    ),
    m(
        "ml.svm.kernel_train_s",
        "s",
        "lower",
        "train_docs_per_s on cempar-query",
    ),
    m(
        "ml.svm.support_vectors",
        "count",
        "lower",
        "train_docs_per_s on cempar-query",
    ),
    m(
        "ml.cascade.merge_s",
        "s",
        "lower",
        "autotag_p50_ms on cempar-query",
    ),
    m(
        "ml.cascade.sv_in",
        "count",
        "lower",
        "autotag_p50_ms on cempar-query",
    ),
    m(
        "ml.cascade.sv_out",
        "count",
        "lower",
        "autotag_p50_ms on cempar-query",
    ),
    m(
        "ml.batch.linear_score_s",
        "s",
        "lower",
        "autotag_docs_per_s on pace-batch",
    ),
    m(
        "ml.batch.kernel_score_s",
        "s",
        "lower",
        "autotag_p50_ms on cempar-query",
    ),
    m(
        "ml.batch.kernel_rows_per_query",
        "count",
        "lower",
        "autotag_p50_ms on cempar-query",
    ),
    m(
        "ml.lsh.query_s",
        "s",
        "lower",
        "autotag_docs_per_s on pace-batch",
    ),
    m(
        "ml.codec.encode_s",
        "s",
        "lower",
        "train_docs_per_s, bytes_per_peer on pace-batch",
    ),
    m(
        "ml.codec.decode_s",
        "s",
        "lower",
        "train_docs_per_s, bytes_per_peer on pace-batch",
    ),
    m(
        "ml.codec.model_bytes",
        "bytes",
        "lower",
        "train_docs_per_s, bytes_per_peer on pace-batch",
    ),
    m(
        "p2psim.bytes.overlay-maintenance",
        "bytes",
        "lower",
        SIM_BYTES,
    ),
    m("p2psim.bytes.dht-lookup", "bytes", "lower", SIM_BYTES),
    m(
        "p2psim.bytes.model-propagation",
        "bytes",
        "lower",
        SIM_BYTES,
    ),
    m(
        "p2psim.bytes.centroid-propagation",
        "bytes",
        "lower",
        SIM_BYTES,
    ),
    m("p2psim.bytes.training-data", "bytes", "lower", SIM_BYTES),
    m("p2psim.bytes.prediction-query", "bytes", "lower", SIM_BYTES),
    m(
        "p2psim.bytes.prediction-response",
        "bytes",
        "lower",
        SIM_BYTES,
    ),
    m(
        "p2psim.bytes.refinement-update",
        "bytes",
        "lower",
        SIM_BYTES,
    ),
    m("p2psim.bytes.ack", "bytes", "lower", SIM_BYTES),
    m("p2psim.bytes.anti-entropy", "bytes", "lower", SIM_BYTES),
    m("p2psim.bytes.other", "bytes", "lower", SIM_BYTES),
    m(
        "p2psim.messages.overlay-maintenance",
        "count",
        "lower",
        SIM_BYTES,
    ),
    m("p2psim.messages.dht-lookup", "count", "lower", SIM_BYTES),
    m(
        "p2psim.messages.model-propagation",
        "count",
        "lower",
        SIM_BYTES,
    ),
    m(
        "p2psim.messages.centroid-propagation",
        "count",
        "lower",
        SIM_BYTES,
    ),
    m("p2psim.messages.training-data", "count", "lower", SIM_BYTES),
    m(
        "p2psim.messages.prediction-query",
        "count",
        "lower",
        SIM_BYTES,
    ),
    m(
        "p2psim.messages.prediction-response",
        "count",
        "lower",
        SIM_BYTES,
    ),
    m(
        "p2psim.messages.refinement-update",
        "count",
        "lower",
        SIM_BYTES,
    ),
    m("p2psim.messages.ack", "count", "lower", SIM_BYTES),
    m("p2psim.messages.anti-entropy", "count", "lower", SIM_BYTES),
    m("p2psim.messages.other", "count", "lower", SIM_BYTES),
    m("p2psim.hotspot_bytes", "bytes", "lower", SIM_BYTES),
    m("p2psim.dropped", "count", "lower", SIM_BYTES),
    m("p2psim.faults.lost", "count", "lower", SIM_BYTES),
    m("p2psim.faults.corrupted", "count", "lower", SIM_BYTES),
    m("p2psim.faults.crashes", "count", "lower", SIM_BYTES),
    m(
        "p2psim.lookup_hops_mean",
        "hops",
        "lower",
        "autotag_p50_ms on cempar-query",
    ),
    m("reliable.sends", "count", "lower", RELIABLE),
    m("reliable.delivered", "count", "higher", RELIABLE),
    m("reliable.retransmits", "count", "lower", RELIABLE),
    m("reliable.recovered", "count", "higher", RELIABLE),
    m("reliable.gave_up", "count", "lower", RELIABLE),
    m("reliable.resyncs", "count", "lower", RELIABLE),
    m("reliable.backoff_ms", "ms_virtual", "lower", RELIABLE),
    m("reliable.useful_frac", "ratio", "higher", RELIABLE),
    m(
        "peerd.train_s",
        "s",
        "lower",
        "converge_s on peerd-loopback",
    ),
    m(
        "peerd.predict_s",
        "s",
        "lower",
        "autotag_p50_ms on peerd-loopback",
    ),
    m(
        "peerd.command_rtt_p50_ms",
        "ms",
        "lower",
        "autotag_p50_ms on peerd-loopback",
    ),
    m(
        "peerd.frames_sent",
        "count",
        "lower",
        "converge_s on peerd-loopback",
    ),
    m(
        "peerd.bytes_sent",
        "bytes",
        "lower",
        "converge_s, bytes_per_peer on peerd-loopback",
    ),
    m(
        "peerd.retransmits",
        "count",
        "lower",
        "converge_s on peerd-loopback",
    ),
];

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The 99th percentile of `xs`, or, with fewer than 1,100 samples, the
/// highest percentile that still has at least ten samples beyond it; as
/// `(value, percentile)`. With ten samples or fewer the maximum is returned
/// with percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let i = (n * 99).div_ceil(100).saturating_sub(1).min(n - 11);
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map_or_else(|| "unknown".into(), str::to_string)
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Run metadata: sizes, sample counts, percentiles.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The catalog's metrics as a JSON object, in catalog order. A catalog
    /// metric the run did not produce, or a non-finite value, is an error.
    pub fn metrics_json(&self, catalog: &[MetricDef]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, def) in catalog.iter().enumerate() {
            let value = *self
                .metrics
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not produced", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", def.name));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(median(&xs), 50.5);
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), (1980.0, 99.0));
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
