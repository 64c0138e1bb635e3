//! Output checks: exact fingerprints of the modelled outputs, the
//! reference table they are compared against, and the failure tally.

use hhpim::server::TenantStats;
use hhpim::{ExecutionReport, Placement, SavingsMatrix, StorageSpace};

/// Outputs recorded with `--record-reference` at the commit that
/// introduced this benchmark.
const REFERENCE: &str = include_str!("../reference.txt");

/// Failure notes printed per run; every failure is counted regardless.
const MAX_NOTES: usize = 20;

/// FNV-1a over 64-bit words: an exact fingerprint of modelled outputs
/// (floats enter by their bit patterns).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }

    fn placement(&mut self, placement: &Placement) {
        for space in StorageSpace::ALL {
            self.word(placement.get(space) as u64);
        }
    }
}

/// Fingerprint of every field of one execution report.
pub fn report_digest(report: &ExecutionReport) -> u64 {
    let mut d = Digest::new();
    d.text(report.backend.label());
    d.text(&report.arch.to_string());
    for r in &report.records {
        d.word(r.slice as u64);
        d.word(u64::from(r.n_tasks));
        match &r.placement {
            Some(p) => {
                d.word(1);
                d.placement(p);
            }
            None => d.word(0),
        }
        d.word(r.t_constraint.as_ps());
        d.word(r.task_time.as_ps());
        d.word(r.movement_time.as_ps());
        d.word(r.groups_moved as u64);
        d.word(u64::from(r.deadline_met));
        d.float(r.energy.as_pj());
    }
    for layer in &report.layers {
        d.word(layer.layer as u64);
        d.text(&layer.label);
        d.word(layer.macs);
        d.word(layer.time.as_ps());
        d.float(layer.energy.as_pj());
    }
    for m in &report.migrations {
        d.word(m.slice as u64);
        d.placement(&m.from);
        d.placement(&m.to);
        d.word(m.groups as u64);
        d.word(m.bytes as u64);
        d.word(m.time.as_ps());
        d.float(m.energy.as_pj());
    }
    for (category, energy) in report.energy.iter() {
        d.text(&format!("{category:?}"));
        d.float(energy.as_pj());
    }
    d.word(report.elapsed.as_ps());
    d.word(report.deadline_misses as u64);
    d.word(report.instructions);
    d.word(report.macs);
    d.0
}

/// Fingerprint of one tenant's service counters.
pub fn stats_digest(stats: &TenantStats) -> u64 {
    let mut d = Digest::new();
    for count in [
        stats.submitted,
        stats.admitted,
        stats.shed,
        stats.deferred,
        stats.coalesced,
        stats.executed,
        stats.missed,
        stats.starvation_ticks,
        stats.max_starvation,
    ] {
        d.word(count);
    }
    d.float(stats.service_share);
    d.0
}

/// The bits of every cell's three savings, in cell order.
pub fn sweep_bits(matrix: &SavingsMatrix) -> Vec<[u64; 3]> {
    matrix
        .cells
        .iter()
        .map(|c| {
            [
                c.vs_baseline.to_bits(),
                c.vs_heterogeneous.to_bits(),
                c.vs_hybrid.to_bits(),
            ]
        })
        .collect()
}

/// One tenant's fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantDigest {
    pub report: u64,
    pub stats: u64,
}

/// The recorded outputs runs are checked against.
#[derive(Debug, Default)]
pub struct Reference {
    serve: Vec<(String, u64, Vec<TenantDigest>)>,
    sweep: Vec<[u64; 3]>,
}

impl Reference {
    /// The table compiled into this binary.
    pub fn load() -> Result<Self, String> {
        Self::parse(REFERENCE)
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut reference = Reference::default();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference.txt line {}: malformed `{line}`", number + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["serve", workload, seed, tenant, _name, report, stats] => {
                    let seed: u64 = seed.parse().map_err(|_| bad())?;
                    let tenant: usize = tenant.parse().map_err(|_| bad())?;
                    let digest = TenantDigest {
                        report: hex(report).ok_or_else(bad)?,
                        stats: hex(stats).ok_or_else(bad)?,
                    };
                    let position = reference
                        .serve
                        .iter()
                        .position(|(w, s, _)| w == workload && *s == seed);
                    let digests = match position {
                        Some(i) => &mut reference.serve[i].2,
                        None => {
                            reference
                                .serve
                                .push((workload.to_string(), seed, Vec::new()));
                            &mut reference.serve.last_mut().expect("pushed above").2
                        }
                    };
                    if digests.len() != tenant {
                        return Err(bad());
                    }
                    digests.push(digest);
                }
                ["sweep", _cell, _case, _model, baseline, hetero, hybrid] => {
                    reference.sweep.push([
                        hex(baseline).ok_or_else(bad)?,
                        hex(hetero).ok_or_else(bad)?,
                        hex(hybrid).ok_or_else(bad)?,
                    ]);
                }
                _ => return Err(bad()),
            }
        }
        Ok(reference)
    }

    /// The recorded tenant fingerprints of `workload` under `seed`, if
    /// `seed` is a reference seed.
    pub fn serve(&self, workload: &str, seed: u64) -> Option<&[TenantDigest]> {
        self.serve
            .iter()
            .find(|(w, s, _)| w == workload && *s == seed)
            .map(|(_, _, d)| d.as_slice())
    }

    /// The recorded bits of every Fig. 5 cell.
    pub fn sweep(&self) -> &[[u64; 3]] {
        &self.sweep
    }
}

fn hex(text: &str) -> Option<u64> {
    u64::from_str_radix(text, 16).ok()
}

/// One serve workload's tenant names and fingerprints under one seed.
pub type SeedDigests = (&'static str, u64, Vec<(String, TenantDigest)>);

/// Renders a reference table in the format [`Reference::load`] reads.
pub fn render_reference(serve: &[SeedDigests], matrix: &SavingsMatrix) -> String {
    let mut out = String::from(
        "# Reference outputs for perfbench, written by `perfbench --record-reference`.\n\
         # serve <workload> <seed> <tenant> <name> <ExecutionReport digest> <TenantStats digest>\n\
         # sweep <cell> <case> <model> <vs_baseline bits> <vs_hetero bits> <vs_hybrid bits>\n",
    );
    for (cell, (c, bits)) in matrix.cells.iter().zip(sweep_bits(matrix)).enumerate() {
        out.push_str(&format!(
            "sweep {cell} case{} {} {:016x} {:016x} {:016x}\n",
            c.scenario.case_number(),
            c.model,
            bits[0],
            bits[1],
            bits[2]
        ));
    }
    for (workload, seed, tenants) in serve {
        for (index, (name, d)) in tenants.iter().enumerate() {
            out.push_str(&format!(
                "serve {workload} {seed} {index} {name} {:016x} {:016x}\n",
                d.report, d.stats
            ));
        }
    }
    out
}

/// Ops attempted and failed in one run, with the first few failures
/// explained.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Counts `ops` failed ops; `note` names the metric they touch.
    pub fn fail(&mut self, ops: u64, note: String) {
        self.failed += ops;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}
