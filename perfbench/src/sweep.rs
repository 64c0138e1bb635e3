//! The sweep workloads: the paper's Fig. 5 matrix (4 architectures × 3
//! models × 6 scenarios, 50 slices, default DP resolution) through
//! `Session::sweep_all` with `threads(1)`, every op on a fresh store.
//!
//! `sweep_cold` starts each op from an empty artifact dir, so the op is
//! three LUT DP builds plus three artifact writes. `sweep_warm` starts
//! each op over a dir populated in set-up, so the op is three artifact
//! reads plus verification and no DP. The sweep's inputs are the
//! paper's fixed scenarios: `--seed` shapes serve traffic only.

use crate::check::{sweep_bits, Reference, Tally};
use crate::plan::Workload;
use crate::report::{self, line, OpTimes, Outcome, Values, Window, PER_LAYER};
use crate::serve::{set_store, split};
use crate::trace;
use hhpim::session::{Session, SessionBuilder};
use hhpim::{
    Architecture, ArtifactStore, CacheStats, CostModel, CostParams, OptimizerConfig, PlacementKey,
    PlacementStore, RuntimeConfig, SavingsMatrix, WorkloadProfile,
};
use hhpim_nn::TinyMlModel;
use hhpim_workload::ScenarioParams;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The paper's Fig. 5 average savings (%) of HH-PIM over Baseline-,
/// Heterogeneous- and Hybrid-PIM — the figures `fig5` prints.
const PAPER_SAVINGS: [f64; 3] = [60.43, 36.3, 48.58];

/// Set-ups per `sweep_warm` run; each runs a full cold sweep.
const WARM_SETUP_REPS: usize = 3;

/// One sweep workload.
pub struct Sweep {
    workload: Workload,
    dirs: PathBuf,
    next_dir: u64,
    reference: Vec<[u64; 3]>,
    /// The matrix the populating cold sweep built (`sweep_warm` only):
    /// every warm op must reproduce it.
    cold: Option<SavingsMatrix>,
    tally: Tally,
}

/// Untimed state for one op: a session over a fresh store and the
/// artifact dir it reads and writes.
struct Prepared {
    session: Session,
    dir: PathBuf,
}

struct Timings {
    setup: Vec<f64>,
    ops: OpTimes,
    first: SavingsMatrix,
}

impl Sweep {
    /// A sweep whose artifact dirs live under `dirs`.
    pub fn new(workload: Workload, reference: &Reference, dirs: &Path) -> Self {
        Sweep {
            workload,
            dirs: dirs.to_path_buf(),
            next_dir: 0,
            reference: reference.sweep().to_vec(),
            cold: None,
            tally: Tally::default(),
        }
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.next_dir += 1;
        self.dirs.join(format!("artifacts-{}", self.next_dir))
    }

    /// A session over a fresh store with `dir` as its artifact tier.
    fn session(dir: &Path) -> hhpim::Result<Session> {
        Ok(SessionBuilder::new()
            .store(PlacementStore::shared())
            .artifact_dir(dir)
            .threads(1)
            .build()?)
    }

    /// Time from nothing until an op can start: on `sweep_cold` an
    /// empty dir plus the session, on `sweep_warm` populating the dir.
    fn prepare(&mut self) -> Result<(Prepared, f64), String> {
        let start = Instant::now();
        let dir = self.fresh_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let session = Self::session(&dir).map_err(|e| e.to_string())?;
        if self.workload == Workload::SweepWarm {
            let matrix = session.sweep_all().map_err(|e| e.to_string())?;
            self.cold = Some(matrix);
        }
        let secs = start.elapsed().as_secs_f64();
        Ok((Prepared { session, dir }, secs))
    }

    /// The session one op runs on: a fresh one for `sweep_cold`, and a
    /// fresh store over the populated dir for `sweep_warm`.
    fn op_session(&mut self, warm_dir: Option<&Path>) -> Result<(Prepared, f64), String> {
        match warm_dir {
            Some(dir) => {
                let session = Self::session(dir).map_err(|e| e.to_string())?;
                Ok((
                    Prepared {
                        session,
                        dir: dir.to_path_buf(),
                    },
                    0.0,
                ))
            }
            None => self.prepare(),
        }
    }

    /// Checks one matrix cell by cell, bit for bit.
    fn check(&mut self, op: &str, matrix: &SavingsMatrix) {
        let cells = self.reference.len() as u64;
        self.tally.attempt(cells);
        if matrix.cells.len() != self.reference.len() {
            let note = format!(
                "{op}: {} cells, reference has {cells} → model_savings_*",
                matrix.cells.len()
            );
            self.tally.fail(cells, note);
            return;
        }
        const METRICS: [&str; 3] = [
            "model_savings_vs_baseline_pct",
            "model_savings_vs_hetero_pct",
            "model_savings_vs_hybrid_pct",
        ];
        let cold = self.cold.as_ref().map(sweep_bits);
        for (i, (got, want)) in sweep_bits(matrix).iter().zip(&self.reference).enumerate() {
            let cell = &matrix.cells[i];
            let against_cold = cold.as_ref().map(|c| c[i]);
            let which = (0..3).find(|&k| got[k] != want[k]);
            let warm_differs = against_cold.is_some_and(|c| c != *got);
            if let Some(k) = which {
                self.tally.fail(
                    1,
                    format!(
                        "{op}: cell {} / {} differs from the reference → {}",
                        cell.scenario.label(),
                        cell.model,
                        METRICS[k]
                    ),
                );
            } else if warm_differs {
                self.tally.fail(
                    1,
                    format!(
                        "{op}: cell {} / {} differs from the cold sweep → model_savings_*",
                        cell.scenario.label(),
                        cell.model
                    ),
                );
            }
        }
    }

    /// Untraced ops for `seconds`, the first an untimed warm-up. On
    /// `sweep_cold` each op's own preparation is a set-up. On
    /// `sweep_warm` the first of `warm_reps` set-ups populates the dir
    /// every op reads, and the others are spread over the window.
    fn measure(&mut self, seconds: f64, warm_reps: usize) -> Result<Timings, String> {
        let mut setup = Vec::new();
        let warm_dir = match self.workload {
            Workload::SweepWarm => {
                let (prepared, secs) = self.prepare()?;
                setup.push(secs);
                Some(prepared.dir)
            }
            _ => None,
        };
        let mut first = None;
        let mut ops = OpTimes::default();
        let mut window = Window::new(seconds);
        let mut n = 0;
        // Op 0 warms the process up and is not timed.
        while n == 0 || window.is_open() || (ops.len() == 0 && n < 4) {
            if warm_dir.is_some() && window.setup_due(setup.len(), warm_reps) {
                let (prepared, secs) = window.set_up(|| self.prepare())?;
                remove(&prepared.dir);
                setup.push(secs);
            }
            let (prepared, prep_secs) = self.op_session(warm_dir.as_deref())?;
            if warm_dir.is_none() {
                setup.push(prep_secs);
            }
            let start = Instant::now();
            let result = prepared.session.sweep_all();
            let secs = start.elapsed().as_secs_f64();
            let label = if n == 0 {
                "warm-up op".to_string()
            } else {
                format!("op {n}")
            };
            match result {
                Ok(matrix) => {
                    self.check(&label, &matrix);
                    if n > 0 {
                        ops.push(secs, vec![secs]);
                    }
                    first.get_or_insert(matrix);
                }
                Err(e) => {
                    self.tally.attempt(self.reference.len() as u64);
                    self.tally.fail(
                        self.reference.len() as u64,
                        format!("{label}: {e} → every metric"),
                    );
                }
            }
            if self.workload == Workload::SweepCold {
                remove(&prepared.dir);
            }
            n += 1;
        }
        if let Some(dir) = warm_dir {
            remove(&dir);
        }
        match first {
            Some(first) if ops.len() > 0 => Ok(Timings { setup, ops, first }),
            _ => Err(format!(
                "{}: no op completed; first failure: {}",
                self.workload.name(),
                self.tally.notes.first().map_or("none", String::as_str)
            )),
        }
    }

    fn header(&self) -> String {
        let what = match self.workload {
            Workload::SweepWarm => "fresh store over a populated artifact dir",
            _ => "fresh store and an empty artifact dir",
        };
        format!(
            "{}: Fig. 5 matrix via Session::sweep_all, threads(1), {what}; \
             cells checked bit for bit against the reference table",
            self.workload.name()
        )
    }

    /// The end-to-end run (`--trace 0`).
    pub fn run(mut self, seconds: f64) -> Result<Outcome, String> {
        let t = self.measure(seconds, WARM_SETUP_REPS)?;
        let values = report::end_to_end(&t.setup, &t.ops, simulated_slices(&t.first))?;
        let (_, samples) = t.ops.call_quantile(0.99);
        let setup_note = match self.workload {
            Workload::SweepWarm => {
                "lower   populate the dir: one cold sweep (median of 3 over the run)"
            }
            _ => "lower   empty dir + session on a fresh store (median over the ops)",
        };
        let mut lines = vec![
            self.header(),
            format!(
                "  {} timed ops after one warm-up op, median {:.3} ms over all; one \
                 Session::sweep_all per op, so call_p50_us and call_p99_us are op times \
                 over the fastest quarter ({samples} samples)",
                t.ops.len(),
                t.ops.all_ops_median() * 1e3,
            ),
            line("setup_s", values.get("setup_s"), "s", setup_note),
            line(
                "sweep_ms",
                t.ops.op_secs() * 1e3,
                "ms",
                "lower   one op (reported as call_p50_us)",
            ),
            line(
                "sim_slices_per_s",
                values.get("sim_slices_per_s"),
                "slices/s",
                "higher  18 cells × 4 architectures × 50 slices / op time",
            ),
            line(
                "peak_rss_mib",
                values.get("peak_rss_mib"),
                "MiB",
                "lower   VmHWM",
            ),
        ];
        lines.extend(savings_lines(&t.first));
        Ok(Outcome {
            tally: self.tally,
            metrics: values.metrics(),
            lines,
        })
    }

    /// The traced run (`--trace 1`): half the time untraced for the
    /// overhead baseline, half traced, each traced op followed by direct
    /// timings of the warm in-memory sweep and of the artifact codec.
    pub fn run_traced(mut self, seconds: f64, out: &Path) -> Result<Outcome, String> {
        let untraced = self.measure(seconds / 2.0, 1)?;
        let keys = lut_keys().map_err(|e| e.to_string())?;
        let scratch = self.fresh_dir();

        trace::start();
        let warm_dir = if self.workload == Workload::SweepWarm {
            trace::set_op("setup", 0, false);
            Some(self.prepare()?.0.dir)
        } else {
            None
        };
        let mut traced = OpTimes::default();
        let mut stats = Vec::new();
        let mut bytes = 0u64;
        let mut load_errors = 0u64;
        let mut first = None;
        let window = Window::new(seconds / 2.0);
        let mut n = 0u64;
        while window.is_open() || (traced.len() == 0 && n < 3) {
            trace::set_op("rebuild", n, false);
            let (prepared, _) = self.op_session(warm_dir.as_deref())?;
            trace::set_op("sweep", n, n == 0);
            let start = Instant::now();
            let result = trace::span("op", None, || prepared.session.sweep_all());
            let secs = start.elapsed().as_secs_f64();
            let label = format!("traced op {n}");
            match result {
                Ok(matrix) => {
                    self.check(&label, &matrix);
                    traced.push(secs, vec![secs]);
                    stats.push(prepared.session.cache_stats());
                    trace::set_op("direct", n, n == 0);
                    let again = trace::span("session.sweep_mem_warm", None, || {
                        prepared.session.sweep_all()
                    });
                    match again {
                        Ok(again) => self.check(&format!("{label}, warm in-memory rerun"), &again),
                        Err(e) => {
                            let cells = self.reference.len() as u64;
                            self.tally.attempt(cells);
                            self.tally.fail(
                                cells,
                                format!("{label}: warm rerun: {e} → session.sweep_mem_warm_ms"),
                            );
                        }
                    }
                    let (b, errors) = time_artifacts(&prepared.dir, &scratch, &keys);
                    bytes = b;
                    load_errors += errors;
                    first.get_or_insert(matrix);
                }
                Err(e) => {
                    self.tally.attempt(self.reference.len() as u64);
                    self.tally.fail(
                        self.reference.len() as u64,
                        format!("{label}: {e} → every metric"),
                    );
                }
            }
            if self.workload == Workload::SweepCold {
                remove(&prepared.dir);
            }
            n += 1;
        }
        let rec = trace::finish().expect("recording started above");
        remove(&scratch);
        if let Some(dir) = warm_dir {
            remove(&dir);
        }
        let Some(first) = first else {
            return Err(format!(
                "{}: no traced op completed; first failure: {}",
                self.workload.name(),
                self.tally.notes.first().map_or("none", String::as_str)
            ));
        };
        let spans = out.join(format!("spans-{}.csv", self.workload.name()));
        std::fs::write(&spans, rec.spans_csv())
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;

        let ops = traced.len() as f64;
        let ms = |ns: u64| ns as f64 / ops / 1e6;
        let op_ms = traced.op_secs() * 1e3;
        let op_mean_ms = ms(rec.totals("sweep", "op").busy_ns);
        let untraced_ms = untraced.ops.op_secs() * 1e3;
        let stats = mean_stats(&stats);
        let mem_warm_ms = ms(rec.totals("direct", "session.sweep_mem_warm").busy_ns);
        let read_ms = ms(rec.totals("direct", "artifact.load_lut").busy_ns);
        let write_ms = ms(rec.totals("direct", "artifact.save_lut").busy_ns);

        let mut v = Values::new(&PER_LAYER);
        set_store(&mut v, &stats);
        v.set("artifact.writes", stats.disk_writes as f64);
        v.set("artifact.write_ms", write_ms);
        v.set("artifact.reads", stats.disk_hits as f64);
        v.set("artifact.read_ms", read_ms);
        v.set("artifact.bytes", bytes as f64);
        v.set("artifact.load_errors", load_errors as f64);
        v.set("session.cells", first.cells.len() as f64);
        v.set(
            "session.arch_runs",
            (first.cells.len() * Architecture::ALL.len()) as f64,
        );
        v.set("session.sweep_mem_warm_ms", mem_warm_ms);
        for (name, arch) in [
            ("model_savings_vs_baseline_pct", Architecture::Baseline),
            ("model_savings_vs_hetero_pct", Architecture::Heterogeneous),
            ("model_savings_vs_hybrid_pct", Architecture::Hybrid),
        ] {
            v.set(name, first.mean_versus(arch));
        }
        let share = |layer_ms: f64| layer_ms / op_mean_ms * 100.0;
        let dp_pct = share(v.get("dp.build_ms"));
        let artifact_ms = match self.workload {
            Workload::SweepWarm => read_ms,
            _ => write_ms,
        };
        v.set("share.dp_pct", dp_pct);
        v.set("share.artifact_pct", share(artifact_ms));
        v.set("share.session_pct", share(mem_warm_ms));
        v.set("trace.overhead_pct", (op_ms / untraced_ms - 1.0) * 100.0);
        v.set("trace.op_ms", op_ms);
        v.set("trace.untraced_op_ms", untraced_ms);

        let mut lines = vec![
            self.header(),
            format!(
                "  traced run: {} untraced ops ({untraced_ms:.3} ms), {} traced ops \
                 ({op_ms:.3} ms, {:+.1} % tracing overhead; fastest-quarter medians)",
                untraced.ops.len(),
                traced.len(),
                v.get("trace.overhead_pct")
            ),
            format!(
                "  {} spans of traced op 0 written to {}",
                rec.kept(),
                spans.display()
            ),
            "  share of a traced op (dp from CacheStats; artifact and in-memory sweep timed \
             directly after the op):"
                .to_string(),
            format!("    dp (LUT builds)            {dp_pct:>6.2} %"),
            format!(
                "    artifact ({})        {:>6.2} %",
                if self.workload == Workload::SweepWarm {
                    "3 reads "
                } else {
                    "3 writes"
                },
                v.get("share.artifact_pct")
            ),
            format!(
                "    session (warm-memory sweep) {:>6.2} %",
                v.get("share.session_pct")
            ),
        ];
        match self.workload {
            Workload::SweepWarm => {
                let holds = stats.disk_hits > 0 && stats.lut_builds == 0;
                lines.push(format!(
                    "  split check: artifact.reads > 0 and dp.builds = 0: reads {}, builds {} — {}",
                    stats.disk_hits,
                    stats.lut_builds,
                    if holds { "holds" } else { "DOES NOT HOLD" }
                ));
            }
            _ => lines.push(split("dp ≥ 90 % of the op", dp_pct, dp_pct >= 90.0)),
        }
        lines.extend(savings_lines(&first));
        Ok(Outcome {
            tally: self.tally,
            metrics: v.metrics(),
            lines,
        })
    }
}

/// Slices the sweep simulates: every cell runs its trace on every
/// architecture.
fn simulated_slices(matrix: &SavingsMatrix) -> f64 {
    (matrix.cells.len() * Architecture::ALL.len() * ScenarioParams::default().slices) as f64
}

/// The mean savings beside the paper's figures, with the signed error.
fn savings_lines(matrix: &SavingsMatrix) -> Vec<String> {
    [
        ("model_savings_vs_baseline_pct", Architecture::Baseline),
        ("model_savings_vs_hetero_pct", Architecture::Heterogeneous),
        ("model_savings_vs_hybrid_pct", Architecture::Hybrid),
    ]
    .into_iter()
    .zip(PAPER_SAVINGS)
    .map(|((name, arch), paper)| {
        let modelled = matrix.mean_versus(arch);
        line(
            name,
            modelled,
            "%",
            &format!(
                "higher  modelled; paper {paper:.2} %, error {:+.2} points",
                modelled - paper
            ),
        )
    })
    .collect()
}

/// The store keys of the three HH-PIM LUTs a Fig. 5 sweep builds.
fn lut_keys() -> hhpim::Result<Vec<PlacementKey>> {
    let params = CostParams::default();
    TinyMlModel::ALL
        .iter()
        .map(|&model| {
            let cost = CostModel::new(
                Architecture::HhPim.spec(),
                WorkloadProfile::from_spec(&model.spec()),
                params,
            )?;
            let runtime = RuntimeConfig::reference(model, params)?;
            Ok(PlacementKey::for_lut(
                &cost,
                &runtime,
                &OptimizerConfig::default(),
            ))
        })
        .collect()
}

/// Loads each LUT artifact from `dir` and saves it again to `scratch`,
/// timing both; returns the artifacts' total size and the failed loads.
fn time_artifacts(dir: &Path, scratch: &Path, keys: &[PlacementKey]) -> (u64, u64) {
    let source = ArtifactStore::new(dir);
    let target = ArtifactStore::new(scratch);
    let mut bytes = 0;
    let mut errors = 0;
    for key in keys {
        match trace::span("artifact.load_lut", None, || source.load_lut(key)) {
            Ok(lut) => {
                bytes += std::fs::metadata(source.lut_path(key)).map_or(0, |m| m.len());
                if trace::span("artifact.save_lut", None, || target.save_lut(key, &lut)).is_err() {
                    errors += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    (bytes, errors)
}

/// Per-op means of the ops' store counters.
fn mean_stats(stats: &[CacheStats]) -> CacheStats {
    let n = stats.len().max(1) as u64;
    let sum = |f: fn(&CacheStats) -> u64| stats.iter().map(f).sum::<u64>() / n;
    CacheStats {
        hits: sum(|s| s.hits),
        misses: sum(|s| s.misses),
        lut_builds: sum(|s| s.lut_builds),
        disk_hits: sum(|s| s.disk_hits),
        disk_writes: sum(|s| s.disk_writes),
        build_time: stats.iter().map(|s| s.build_time).sum::<Duration>() / n as u32,
        evictions: sum(|s| s.evictions),
    }
}

/// Removes an artifact dir; a dir that cannot be removed only wastes
/// space under the benchmark's own output dir.
fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
