//! Metric names and units, summary statistics, and the result line.

use crate::check::Tally;
use std::fmt::Write as _;
use std::time::Instant;

/// What one run measured, ready to print.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

/// One reported value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_slices_per_s", "slices/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`, in
/// output order; a layer a workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 81] = [
    ("traffic.calls", "count"),
    ("traffic.loads", "count"),
    ("traffic.busy_ms", "ms"),
    ("traffic.ns_per_load", "ns"),
    ("server.rounds", "count"),
    ("server.round_busy_ms", "ms"),
    ("server.self_ms", "ms"),
    ("server.admit_calls", "count"),
    ("server.admit_busy_ms", "ms"),
    ("server.admitted", "count"),
    ("server.deferred", "count"),
    ("server.shed", "count"),
    ("server.admit_useful_ratio", "ratio"),
    ("server.starvation_ticks", "count"),
    ("server.max_starvation", "count"),
    ("engine.step_calls", "count"),
    ("engine.slices", "count"),
    ("engine.slices_per_call", "ratio"),
    ("engine.busy_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.events", "count"),
    ("policy.lookups", "count"),
    ("policy.lookup_busy_ms", "ms"),
    ("policy.prepare_busy_ms", "ms"),
    ("policy.replacements", "count"),
    ("policy.replacement_ratio", "ratio"),
    ("backend.step_calls", "count"),
    ("backend.slices", "count"),
    ("backend.tasks", "count"),
    ("backend.busy_ms", "ms"),
    ("backend.ns_per_task", "ns"),
    ("timegraph.lower_us", "us"),
    ("timegraph.programs", "count"),
    ("timegraph.splices", "count"),
    ("pim.instructions", "count"),
    ("pim.macs", "count"),
    ("pim.ns_per_instruction", "ns"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.lut_builds", "count"),
    ("store.disk_hits", "count"),
    ("store.disk_writes", "count"),
    ("dp.builds", "count"),
    ("dp.build_ms", "ms"),
    ("dp.ms_per_lut", "ms"),
    ("artifact.writes", "count"),
    ("artifact.write_ms", "ms"),
    ("artifact.reads", "count"),
    ("artifact.read_ms", "ms"),
    ("artifact.bytes", "B"),
    ("artifact.load_errors", "count"),
    ("session.cells", "count"),
    ("session.arch_runs", "count"),
    ("session.sweep_mem_warm_ms", "ms"),
    ("model.energy.mem_dynamic_mj", "mJ"),
    ("model.energy.mem_static_mj", "mJ"),
    ("model.energy.mem_wake_mj", "mJ"),
    ("model.energy.pe_mj", "mJ"),
    ("model.energy.controller_mj", "mJ"),
    ("model.energy.movement_mj", "mJ"),
    ("model.tasks", "count"),
    ("model.migrations", "count"),
    ("model.migration_kib", "KiB"),
    ("model.sim_elapsed_s", "s"),
    ("model_energy_per_task_mj", "mJ"),
    ("model_qos_miss_rate", "ratio"),
    ("model_savings_vs_baseline_pct", "%"),
    ("model_savings_vs_hetero_pct", "%"),
    ("model_savings_vs_hybrid_pct", "%"),
    ("share.traffic_pct", "%"),
    ("share.server_pct", "%"),
    ("share.engine_pct", "%"),
    ("share.backend_pct", "%"),
    ("share.policy_pct", "%"),
    ("share.dp_pct", "%"),
    ("share.artifact_pct", "%"),
    ("share.session_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
];

/// Values for the named metrics of one table; unset names report 0.
#[derive(Debug)]
pub struct Values {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Values {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Values {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// Sets `name`, which must be in the table: a name outside it is a
    /// bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.table
            .iter()
            .position(|(n, _)| *n == name)
            .map_or(0.0, |i| self.values[i])
    }

    pub fn metrics(&self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &value)| Metric { name, unit, value })
            .collect()
    }
}

/// Host timings of one run: each op's time and the times of the calls
/// it made into the library (every `Server::round`, or the one
/// `Session::sweep_all`).
///
/// Summaries cover the fastest quarter of the ops. On a shared 2-vCPU
/// VM, host speed drops by up to 1.75× for several seconds at a time,
/// with no steal time counted; a run's median op then depends on how
/// long it spent in the slow state, but its fastest quarter rarely
/// does. The readable report also prints the median over all ops.
#[derive(Debug, Default)]
pub struct OpTimes {
    ops: Vec<(f64, Vec<f64>)>,
}

impl OpTimes {
    pub fn push(&mut self, op_secs: f64, call_secs: Vec<f64>) {
        self.ops.push((op_secs, call_secs));
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    fn fastest(&self) -> Vec<&(f64, Vec<f64>)> {
        let mut sorted: Vec<_> = self.ops.iter().collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        sorted.truncate(self.ops.len().div_ceil(4));
        sorted
    }

    /// Median op time of the fastest quarter, in seconds.
    pub fn op_secs(&self) -> f64 {
        median(&self.fastest().iter().map(|op| op.0).collect::<Vec<_>>())
    }

    /// Median op time over every op, in seconds.
    pub fn all_ops_median(&self) -> f64 {
        median(&self.ops.iter().map(|op| op.0).collect::<Vec<_>>())
    }

    /// The `q`-quantile of the fastest quarter's call times, in seconds,
    /// and the number of calls it was taken over.
    pub fn call_quantile(&self, q: f64) -> (f64, usize) {
        let calls: Vec<f64> = self
            .fastest()
            .iter()
            .flat_map(|op| op.1.iter().copied())
            .collect();
        (percentile(&calls, q), calls.len())
    }
}

/// A run's measuring window: ops run until `seconds` have passed, not
/// counting time taken out for set-ups.
///
/// Set-ups are spread over the window rather than timed back to back
/// before it, so their median samples the host across the run instead
/// of during one moment of it.
pub struct Window {
    start: Instant,
    seconds: f64,
    excluded: f64,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            seconds,
            excluded: 0.0,
        }
    }

    fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.excluded
    }

    pub fn is_open(&self) -> bool {
        self.elapsed() < self.seconds
    }

    /// Whether set-up number `done` of `reps` is due: set-up `k` runs
    /// once `k / reps` of the window has passed.
    pub fn setup_due(&self, done: usize, reps: usize) -> bool {
        done < reps && self.elapsed() >= self.seconds * done as f64 / reps as f64
    }

    /// Runs `f`, a set-up, outside the window.
    pub fn set_up<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.excluded += start.elapsed().as_secs_f64();
        out
    }
}

/// The end-to-end metrics of a run whose ops each simulate `slices`
/// slices after the set-ups timed in `setup`.
pub fn end_to_end(setup: &[f64], times: &OpTimes, slices: f64) -> Result<Values, String> {
    let mut values = Values::new(&END_TO_END);
    values.set("setup_s", median(setup));
    values.set("sim_slices_per_s", slices / times.op_secs());
    values.set("call_p50_us", times.call_quantile(0.50).0 * 1e6);
    values.set("call_p99_us", times.call_quantile(0.99).0 * 1e6);
    values.set("peak_rss_mib", peak_rss_mib()?);
    Ok(values)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The nearest-rank `q`-quantile of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// One aligned line of the human-readable report.
pub fn line(name: &str, value: f64, unit: &str, note: &str) -> String {
    format!("  {name:<31} {value:>14.4} {unit:<9} {note}")
}
