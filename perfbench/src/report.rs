//! Metric registries, the per-run outcome, and the result line.

use crate::stats::{median, Dist};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`). An
/// "op" is the workload's unit of work: a protocol round on `stabilize`,
/// a simulated request on `churn` and `keyspace`, an RPC on `kv-tcp`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.round_s", "s"),
    ("sim.engine_s", "s"),
    ("sim.clone_s", "s"),
    ("sim.compare_s", "s"),
    ("sim.rounds", "count"),
    ("sim.dropped", "count"),
    ("core.step_s", "s"),
    ("core.deliver_s", "s"),
    ("core.messages", "count"),
    ("core.msgs.unmarked", "count"),
    ("core.msgs.ring", "count"),
    ("core.msgs.connection", "count"),
    ("core.round_ms", "ms"),
    ("core.rounds", "count"),
    ("core.bootstrap_s", "s"),
    ("routing.table_build_s", "s"),
    ("routing.route_us", "us"),
    ("routing.mean_hops", "hops"),
    ("placement.preload_s", "s"),
    ("placement.audit_s", "s"),
    ("placement.digest_s", "s"),
    ("placement.audit_share", "ratio"),
    ("placement.repair_keys_moved", "count"),
    ("placement.lost_keys", "count"),
    ("workload.run_s", "s"),
    ("workload.requests", "count"),
    ("workload.events", "count"),
    ("workload.retries", "count"),
    ("net.connect_s", "s"),
    ("net.converge_s", "s"),
    ("net.client_busy_s", "s"),
    ("net.client_cpu_s", "s"),
    ("net.node_cpu_s", "s"),
    ("net.node_cpu_max_share", "ratio"),
    ("net.inflight_mean", "count"),
    ("net.encode_ns", "ns"),
    ("net.decode_ns", "ns"),
    ("net.serial_rtt_p50_us", "us"),
    ("net.served", "count"),
    ("net.wire_errors", "count"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer values of one traced run, keyed by registry name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn check(name: &str) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unregistered per-layer metric {name}");
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        Self::check(name);
        self.0.insert(name, value);
    }

    /// Adds to a metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        Self::check(name);
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Current value (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (trials, simulated requests, RPCs).
    pub attempted: u64,
    /// Operations that failed, gate failures included.
    pub failed: u64,
    /// Named correctness-gate failures; any entry fails the run.
    pub errors: Vec<String>,
    /// Set-up time of every set-up in the run.
    pub setup_s: Vec<f64>,
    /// Ops completed in the measured phase, and the phase's wall time.
    pub ops: f64,
    /// Wall seconds the ops took.
    pub ops_time_s: f64,
    /// Per-op wall time samples (µs).
    pub op_us: Vec<f64>,
    /// Peak RSS of the process that does the work (MiB).
    pub peak_rss_mb: f64,
    /// Per-layer values (traced runs).
    pub layers: Layers,
    /// Context written beside the result: sample counts, percentiles,
    /// workload sizes.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Records a gate failure: it counts as one failed operation.
    pub fn gate(&mut self, msg: String) {
        eprintln!("perfbench: gate failed: {msg}");
        self.errors.push(msg);
        self.failed += 1;
    }

    /// Adds a context line.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// The end-to-end values, in registry order.
    pub fn end_to_end(&mut self) -> Vec<(&'static str, &'static str, f64)> {
        let ops = Dist::of(&self.op_us);
        self.note("op_us", ops.describe("us"));
        self.note("setup_samples", self.setup_s.len());
        let values =
            [median(&self.setup_s), self.ops / self.ops_time_s, ops.p50, ops.p90, self.peak_rss_mb];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    }

    /// The per-layer values, in registry order.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER.iter().map(|&(n, u)| (n, u, self.layers.get(n))).collect()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// The context document written beside the result line.
pub fn context_json(result: &str, info: &[(String, String)]) -> String {
    let mut out = format!("{{\"result\": {result}");
    for (k, v) in info {
        let _ = write!(out, ", \"{}\": \"{}\"", escape(k), escape(v));
    }
    out.push_str("}\n");
    out
}
