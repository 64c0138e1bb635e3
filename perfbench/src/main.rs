//! `perfbench`: the repository benchmark for the HH-PIM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_cycle|serve_analytic|sweep_cold|sweep_warm \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference
//! ```
//!
//! A run prints a readable report and then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. Every
//! op's modelled output is checked; a mismatch counts as a failed op.
//! `--record-reference` rewrites `reference.txt` from the current code.
//! See `README.md` beside this crate for the workloads and metrics.

mod check;
mod plan;
mod report;
mod serve;
mod sweep;
mod trace;

use check::{render_reference, Reference, TenantDigest};
use hhpim::session::SessionBuilder;
use hhpim::PlacementStore;
use plan::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The traffic seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The measuring time when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// `--record-reference` records serve outputs for seeds `0..REFERENCE_SEEDS`.
const REFERENCE_SEEDS: u64 = 100;

const USAGE: &str = "usage: perfbench --workload serve_cycle|serve_analytic|sweep_cold|sweep_warm \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --record-reference";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            parsed.record = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if parsed.workload.is_none() && !parsed.record {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(parsed)
}

/// A scratch dir for artifact dirs under the benchmark's own output
/// dir, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(out: &Path) -> Result<Self, String> {
        let dir = out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs what `args` ask for and returns everything to print; nothing is
/// printed before the run has finished.
fn run(args: &[String]) -> Result<String, String> {
    let args = parse(args)?;
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    if args.record {
        return record(&crate_dir.join("reference.txt"));
    }
    let workload = args.workload.expect("checked by parse");
    let reference = Reference::load()?;
    let out = crate_dir.join("out");
    let scratch = Scratch::new(&out)?;
    let outcome = match workload {
        Workload::ServeCycle | Workload::ServeAnalytic => {
            let serve = serve::Serve::new(workload, args.seed, &reference);
            if args.trace {
                serve.run_traced(args.seconds, &out)?
            } else {
                serve.run(args.seconds)?
            }
        }
        Workload::SweepCold | Workload::SweepWarm => {
            let sweep = sweep::Sweep::new(workload, &reference, &scratch.0);
            if args.trace {
                sweep.run_traced(args.seconds, &out)?
            } else {
                sweep.run(args.seconds)?
            }
        }
    };
    let tally = &outcome.tally;
    let mut text = String::new();
    for line in &outcome.lines {
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(&format!(
        "  ops attempted {}, failed {}\n",
        tally.attempted, tally.failed
    ));
    for note in &tally.notes {
        text.push_str(&format!("  FAILED: {note}\n"));
    }
    text.push_str(&report::result_line(
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        &outcome.metrics,
    ));
    text.push('\n');
    Ok(text)
}

/// Records the reference table from the current code: the Fig. 5
/// matrix, and every tenant's fingerprints under each reference seed
/// (one op per seed, each on a fresh server as in a benchmark run).
fn record(path: &Path) -> Result<String, String> {
    let err = |e: hhpim::Error| e.to_string();
    let matrix = SessionBuilder::new()
        .store(PlacementStore::shared())
        .threads(1)
        .build()
        .map_err(|e| err(e.into()))?
        .sweep_all()
        .map_err(|e| err(e.into()))?;
    let mut serve = Vec::new();
    for workload in [Workload::ServeCycle, Workload::ServeAnalytic] {
        let store = PlacementStore::shared();
        for seed in 0..REFERENCE_SEEDS {
            let report = serve::record_op(workload, seed, &store).map_err(err)?;
            let tenants: Vec<(String, TenantDigest)> = report
                .tenants
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        TenantDigest {
                            report: check::report_digest(t.primary()),
                            stats: check::stats_digest(&t.stats),
                        },
                    )
                })
                .collect();
            serve.push((workload.name(), seed, tenants));
        }
    }
    let text = render_reference(&serve, &matrix);
    std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!(
        "recorded {} cells and {} seeds per serve workload to {}\n",
        matrix.cells.len(),
        REFERENCE_SEEDS,
        path.display()
    ))
}
