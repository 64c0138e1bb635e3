//! Persistent placement artifacts: the on-disk tier under the
//! [`crate::PlacementStore`] and the interchange format of the sharded
//! sweep executor.
//!
//! The §III-B allocation LUT is the expensive, reusable product of
//! Algorithms 1+2 — but the store's memoization (PR 4) dies with the
//! process, so every worker, CI run and sweep shard used to recompute
//! the same tables. This module makes the DP survive the process:
//!
//! ```text
//!  PlacementStore::lut(key)
//!        │ memory hit ──────────────▶ Arc clone          (hits)
//!        │ memory miss
//!        ▼
//!  ArtifactStore::try_load_lut(key)
//!        │ disk hit ────────────────▶ parse + verify     (disk_hits)
//!        │ absent / corrupt / stale
//!        ▼
//!  AllocationLut::build ──▶ save_lut (atomic write-back) (disk_writes)
//! ```
//!
//! Three guarantees shape the format:
//!
//! * **Process-stable identity.** Artifact files are named by an
//!   FNV-1a hash of [`PlacementKey::canonical`] — a versioned,
//!   deterministic rendering of every key field — and embed the full
//!   canonical string. A file is served only when its embedded key
//!   matches the requested one byte for byte, so a hash collision or
//!   a renamed file can never smuggle in a stale table.
//! * **Versioned, checksummed JSON.** The schema (read through the
//!   shared [`hhpim_workload::json`] reader — no new dependencies)
//!   leads with a `version` field and carries an FNV-1a checksum over
//!   the payload's exact bit patterns. Floats are written with `{:?}`
//!   shortest round-trip formatting, so a load is bit-identical to the
//!   build that was saved; any torn, truncated or bit-flipped file
//!   surfaces as a typed [`ArtifactError`] and the store falls through
//!   to a rebuild.
//! * **Atomic writes.** [`ArtifactStore::save_lut`] and
//!   [`SweepArtifact::save`] write to a unique temp file in the target
//!   directory and `rename` into place, so concurrent writers (the
//!   `sweep_farm` worker processes) never tear a file — the last
//!   complete write wins, and every complete write of one key has
//!   identical contents.
//!
//! [`SweepArtifact`] is the shard interchange format of the sharded
//! sweep executor: `sweep_farm` workers persist
//! [`crate::session::Session::sweep_shard`] outputs, and
//! [`SweepArtifact::merge`] recombines them — validating the shard
//! cover — into one report bit-identical to the serial
//! [`crate::session::Session::sweep_all`].
//!
//! # Examples
//!
//! ```
//! use hhpim::{ArtifactStore, PlacementStore, PlacementKey};
//! use hhpim::{Architecture, CostModel, CostParams, WorkloadProfile};
//! use hhpim::{OptimizerConfig, RuntimeConfig};
//! use hhpim_nn::TinyMlModel;
//!
//! let dir = std::env::temp_dir().join(format!("hhpim-artifact-doc-{}", std::process::id()));
//! let params = CostParams::default();
//! let cost = CostModel::new(
//!     Architecture::HhPim.spec(),
//!     WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
//!     params,
//! )
//! .unwrap();
//! let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, params).unwrap();
//! let opt = OptimizerConfig { time_buckets: 120, ..OptimizerConfig::default() };
//!
//! // First process: builds the DP once and writes it back.
//! let store = PlacementStore::with_artifact_dir(&dir);
//! let built = store.lut(&cost, &runtime, &opt);
//! assert_eq!(store.stats().disk_writes, 1);
//!
//! // "Second process": a fresh store over the same dir loads instead
//! // of building — zero LUT DP builds for cached keys.
//! let warm = PlacementStore::with_artifact_dir(&dir);
//! let loaded = warm.lut(&cost, &runtime, &opt);
//! assert_eq!(*built, *loaded);
//! assert_eq!(warm.stats().lut_builds, 0);
//! assert_eq!(warm.stats().disk_hits, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::dp::{AllocationLut, OptimalPlacement};
use crate::experiment::{SavingsCell, SavingsMatrix};
use crate::space::{Placement, StorageSpace};
use crate::store::PlacementKey;
use hhpim_mem::Energy;
use hhpim_nn::TinyMlModel;
use hhpim_sim::SimDuration;
use hhpim_workload::json::{quote, ParseError, Reader};
use hhpim_workload::Scenario;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the on-disk artifact schema. Bumped on any incompatible
/// change; files recording a different version load as
/// [`ArtifactError::Version`] and are rebuilt, never reinterpreted.
pub const ARTIFACT_FORMAT_VERSION: u32 = 1;

/// Format tag of a persisted allocation LUT.
const LUT_FORMAT: &str = "hhpim-lut-artifact";
/// Format tag of a persisted sweep shard / merged sweep report.
const SWEEP_FORMAT: &str = "hhpim-sweep-artifact";

/// Why an artifact could not be saved, loaded or merged. Every load
/// failure is typed so the [`crate::PlacementStore`] disk tier can
/// fall through to a rebuild — corruption is never a panic and never
/// serves stale data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The file records an incompatible schema version.
    Version {
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The file is not well-formed (truncated, torn or hand-edited
    /// past recognition). `offset` is the byte position the parser
    /// stopped at.
    Parse {
        /// What the parser expected or found.
        message: String,
        /// Byte offset of the failure.
        offset: usize,
    },
    /// The payload parsed but its recomputed checksum disagrees with
    /// the recorded one — a value-level bit flip.
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed from the parsed payload.
        found: u64,
    },
    /// The file's embedded canonical key is not the requested one (a
    /// renamed file or a filename-hash collision).
    KeyMismatch {
        /// The requested key's canonical form.
        expected: String,
        /// The canonical form embedded in the file.
        found: String,
    },
    /// The filesystem said no.
    Io {
        /// Path involved.
        path: String,
        /// The OS error, stringified.
        message: String,
    },
    /// Shard outputs do not form a complete, non-overlapping cover
    /// (merge-time validation).
    Shard {
        /// What was wrong with the shard set.
        message: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Version { found, supported } => write!(
                f,
                "artifact format version {found} is not supported (this build reads {supported})"
            ),
            ArtifactError::Parse { message, offset } => {
                write!(f, "artifact parse error at byte {offset}: {message}")
            }
            ArtifactError::Checksum { expected, found } => write!(
                f,
                "artifact checksum mismatch: file records {expected}, payload hashes to {found}"
            ),
            ArtifactError::KeyMismatch { expected, found } => write!(
                f,
                "artifact key mismatch: requested `{expected}`, file contains `{found}`"
            ),
            ArtifactError::Io { path, message } => write!(f, "artifact io on {path}: {message}"),
            ArtifactError::Shard { message } => write!(f, "sweep shard merge: {message}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<ParseError> for ArtifactError {
    fn from(e: ParseError) -> Self {
        ArtifactError::Parse {
            message: e.message,
            offset: e.offset,
        }
    }
}

// --------------------------------------------------------------------
// FNV-1a: the no-dependency hash behind file names and checksums.
// --------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over raw bytes — deterministic across runs and machines,
/// unlike `HashMap`'s seeded hasher.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_u64(hash: &mut u64, value: u64) {
    fnv1a(hash, &value.to_le_bytes());
}

/// FNV-1a of one string, from the standard offset basis.
fn fnv_str(s: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, s.as_bytes());
    hash
}

/// Checksum of a LUT payload: the canonical key plus the exact bit
/// patterns of every entry. Recomputed from *parsed* values on load,
/// so any digit-level corruption that still parses is caught.
fn lut_digest(key: &str, lut: &AllocationLut) -> u64 {
    let mut hash = fnv_str(key);
    for t in lut.t_constraints() {
        fnv_u64(&mut hash, t.as_ps());
    }
    for entry in lut.entries() {
        match entry {
            None => fnv_u64(&mut hash, 0),
            Some(p) => {
                fnv_u64(&mut hash, 1);
                for space in StorageSpace::ALL {
                    fnv_u64(&mut hash, p.placement.get(space) as u64);
                }
                fnv_u64(&mut hash, p.energy_per_task.as_pj().to_bits());
                fnv_u64(&mut hash, p.task_time.as_ps());
            }
        }
    }
    hash
}

/// Checksum of a sweep payload: shard coordinates plus every cell's
/// identity and exact savings bit patterns (stats are informational
/// and excluded, so warm and cold runs of the same grid produce
/// byte-identical merged reports).
fn sweep_digest(shard_index: usize, shard_count: usize, cells: &[SavingsCell]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv_u64(&mut hash, shard_index as u64);
    fnv_u64(&mut hash, shard_count as u64);
    for cell in cells {
        fnv_u64(&mut hash, cell.scenario.case_number() as u64);
        fnv1a(&mut hash, cell.model.to_string().as_bytes());
        fnv_u64(&mut hash, cell.vs_baseline.to_bits());
        fnv_u64(&mut hash, cell.vs_heterogeneous.to_bits());
        fnv_u64(&mut hash, cell.vs_hybrid.to_bits());
    }
    hash
}

// --------------------------------------------------------------------
// Serialization: floats via shortest round-trip, read back through
// `hhpim_workload::json`.
// --------------------------------------------------------------------

/// Renders `key`'s LUT into the versioned on-disk JSON form. Floats
/// use `{:?}` (shortest round-trip), so parsing the text back yields
/// bit-identical values; see [`lut_from_json`].
pub fn lut_to_json(key: &PlacementKey, lut: &AllocationLut) -> String {
    let canonical = key.canonical();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"format\": \"{LUT_FORMAT}\",\n"));
    out.push_str(&format!("  \"version\": {ARTIFACT_FORMAT_VERSION},\n"));
    out.push_str(&format!("  \"key\": {},\n", quote(&canonical)));
    out.push_str(&format!(
        "  \"checksum\": {},\n",
        lut_digest(&canonical, lut)
    ));
    out.push_str("  \"t_constraints_ps\": [");
    for (i, t) in lut.t_constraints().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&t.as_ps().to_string());
    }
    out.push_str("],\n");
    out.push_str("  \"entries\": [\n");
    for (i, entry) in lut.entries().iter().enumerate() {
        match entry {
            None => out.push_str("    null"),
            Some(p) => {
                let c = StorageSpace::ALL.map(|s| p.placement.get(s));
                out.push_str(&format!(
                    "    [{}, {}, {}, {}, {:?}, {}]",
                    c[0],
                    c[1],
                    c[2],
                    c[3],
                    p.energy_per_task.as_pj(),
                    p.task_time.as_ps()
                ));
            }
        }
        if i + 1 < lut.entries().len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a LUT artifact back, verifying in order: well-formedness
/// ([`ArtifactError::Parse`] with a byte offset), schema version
/// ([`ArtifactError::Version`]), the embedded canonical key against
/// `expected_key` ([`ArtifactError::KeyMismatch`]) and the payload
/// checksum ([`ArtifactError::Checksum`]).
///
/// # Errors
///
/// The typed [`ArtifactError`] for each verification stage above —
/// never a panic, whatever the file contains.
pub fn lut_from_json(
    expected_key: &PlacementKey,
    text: &str,
) -> Result<AllocationLut, ArtifactError> {
    let mut r = Reader::new(text.as_bytes());
    let mut format: Option<String> = None;
    let mut version: Option<u32> = None;
    let mut key: Option<String> = None;
    let mut checksum: Option<u64> = None;
    let mut t_constraints: Option<Vec<SimDuration>> = None;
    let mut entries: Option<Vec<Option<OptimalPlacement>>> = None;
    r.object(|r, field| {
        match field {
            "format" => format = Some(r.string()?),
            "version" => version = Some(r.int::<u32>()?),
            "key" => key = Some(r.string()?),
            "checksum" => checksum = Some(r.int::<u64>()?),
            "t_constraints_ps" => {
                let mut out = Vec::new();
                r.array(|r| {
                    out.push(SimDuration::from_ps(r.int::<u64>()?));
                    Ok(())
                })?;
                t_constraints = Some(out);
            }
            "entries" => {
                let mut out = Vec::new();
                r.array(|r| {
                    out.push(lut_entry(r)?);
                    Ok(())
                })?;
                entries = Some(out);
            }
            other => return Err(r.error(format!("unknown field `{other}`"))),
        }
        Ok(())
    })?;
    r.end()?;

    if format.as_deref() != Some(LUT_FORMAT) {
        return Err(r.error(format!("not a `{LUT_FORMAT}` file")).into());
    }
    let found = version.ok_or_else(|| r.error("missing `version`"))?;
    if found != ARTIFACT_FORMAT_VERSION {
        return Err(ArtifactError::Version {
            found,
            supported: ARTIFACT_FORMAT_VERSION,
        });
    }
    let key = key.ok_or_else(|| r.error("missing `key`"))?;
    let expected = expected_key.canonical();
    if key != expected {
        return Err(ArtifactError::KeyMismatch {
            expected,
            found: key,
        });
    }
    let recorded = checksum.ok_or_else(|| r.error("missing `checksum`"))?;
    let t_constraints = t_constraints.ok_or_else(|| r.error("missing `t_constraints_ps`"))?;
    let entries = entries.ok_or_else(|| r.error("missing `entries`"))?;
    if entries.len() != t_constraints.len() {
        return Err(r
            .error(format!(
                "{} entries but {} t_constraints",
                entries.len(),
                t_constraints.len()
            ))
            .into());
    }
    let lut = AllocationLut::from_parts(entries, t_constraints);
    let computed = lut_digest(&key, &lut);
    if computed != recorded {
        return Err(ArtifactError::Checksum {
            expected: recorded,
            found: computed,
        });
    }
    Ok(lut)
}

/// Process-unique suffix counter for atomic-write temp files (two
/// threads of one process writing the same key must not share a temp
/// path).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(path: &Path, e: std::io::Error) -> ArtifactError {
    ArtifactError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Writes `contents` to `path` atomically: create the parent dir,
/// write a process-and-sequence-unique temp file next to the target,
/// then `rename` into place. Readers see either the old complete file
/// or the new complete file, never a torn prefix — the contract the
/// `sweep_farm` worker processes rely on.
fn write_atomic(path: &Path, contents: &str) -> Result<(), ArtifactError> {
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = dir.join(format!(
        ".{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        io_err(path, e)
    })
}

// --------------------------------------------------------------------
// The disk tier.
// --------------------------------------------------------------------

/// A directory of persisted placement artifacts: the disk tier a
/// [`crate::PlacementStore`] consults between a memory miss and the
/// DP ([`crate::PlacementStore::set_artifact_store`] /
/// [`crate::session::SessionBuilder::artifact_dir`]). Cloning clones
/// the handle (a path), not the artifacts.
///
/// File layout: one `lut-<fnv1a-of-canonical-key>.json` per persisted
/// LUT. The directory is created lazily on the first save; loads from
/// a missing directory are plain misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// A handle on `dir` (not touched until the first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore { dir: dir.into() }
    }

    /// The directory artifacts live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path `key`'s LUT artifact is stored at — named by the
    /// FNV-1a hash of [`PlacementKey::canonical`], stable across
    /// processes and machines.
    pub fn lut_path(&self, key: &PlacementKey) -> PathBuf {
        self.dir
            .join(format!("lut-{:016x}.json", fnv_str(&key.canonical())))
    }

    /// Persists `lut` under `key` with an atomic write-rename,
    /// returning the artifact's path. Concurrent writers of the same
    /// key race benignly: every complete write has identical contents.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory or file cannot be
    /// written.
    pub fn save_lut(
        &self,
        key: &PlacementKey,
        lut: &AllocationLut,
    ) -> Result<PathBuf, ArtifactError> {
        let path = self.lut_path(key);
        write_atomic(&path, &lut_to_json(key, lut))?;
        Ok(path)
    }

    /// Loads and fully verifies `key`'s LUT artifact.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the file is absent or unreadable;
    /// the [`lut_from_json`] verification errors otherwise.
    pub fn load_lut(&self, key: &PlacementKey) -> Result<AllocationLut, ArtifactError> {
        let path = self.lut_path(key);
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        lut_from_json(key, &text)
    }

    /// [`ArtifactStore::load_lut`] with "file not found" folded into
    /// `Ok(None)` — the shape the store's lookup ladder wants: a
    /// plain disk miss is not an error, while a *corrupt* file still
    /// surfaces as `Err` (and falls through to a rebuild).
    ///
    /// # Errors
    ///
    /// Every [`ArtifactError`] except not-found `Io`.
    pub fn try_load_lut(&self, key: &PlacementKey) -> Result<Option<AllocationLut>, ArtifactError> {
        let path = self.lut_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        lut_from_json(key, &text).map(Some)
    }
}

// --------------------------------------------------------------------
// Sweep shard interchange.
// --------------------------------------------------------------------

/// Cache-counter summary a `sweep_farm` worker attaches to its shard
/// output ([`crate::CacheStats`], reduced to the disk-tier facts the
/// farm driver asserts on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// LUT DP builds the worker performed (0 on a warm artifact dir).
    pub lut_builds: u64,
    /// Memory misses the worker served from the artifact dir.
    pub disk_hits: u64,
    /// Fresh builds the worker wrote back.
    pub disk_writes: u64,
}

/// One sweep shard's output (or a merged full report) in the
/// versioned on-disk form: which slice `[shard_index, shard_count]`
/// of the deterministic sweep partition these cells are, the cells
/// themselves, and optionally the worker's [`SweepStats`].
///
/// Stats are excluded from the checksum and from merged reports, so
/// two runs of the same grid — cold or warm — produce byte-identical
/// merged files.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArtifact {
    /// Which shard of the partition this is (0-based).
    pub shard_index: usize,
    /// How many shards the partition has (a merged report is `0` of
    /// `1`).
    pub shard_count: usize,
    /// The shard's cells, in [`crate::session::Session::sweep_shard`]
    /// pair order.
    pub matrix: SavingsMatrix,
    /// The producing worker's cache counters, if recorded.
    pub stats: Option<SweepStats>,
}

impl SweepArtifact {
    /// Wraps shard `index` of `count`'s matrix (no stats).
    pub fn new(shard_index: usize, shard_count: usize, matrix: SavingsMatrix) -> Self {
        SweepArtifact {
            shard_index,
            shard_count,
            matrix,
            stats: None,
        }
    }

    /// Renders the versioned on-disk JSON form (savings via `{:?}`
    /// shortest round-trip, so a reload is bit-identical).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": \"{SWEEP_FORMAT}\",\n"));
        out.push_str(&format!("  \"version\": {ARTIFACT_FORMAT_VERSION},\n"));
        out.push_str(&format!(
            "  \"shard\": [{}, {}],\n",
            self.shard_index, self.shard_count
        ));
        out.push_str(&format!(
            "  \"checksum\": {},\n",
            sweep_digest(self.shard_index, self.shard_count, &self.matrix.cells)
        ));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.matrix.cells.iter().enumerate() {
            out.push_str(&format!(
                "    [{}, {}, {:?}, {:?}, {:?}]",
                cell.scenario.case_number(),
                quote(&cell.model.to_string()),
                cell.vs_baseline,
                cell.vs_heterogeneous,
                cell.vs_hybrid
            ));
            if i + 1 < self.matrix.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]");
        if let Some(stats) = self.stats {
            out.push_str(&format!(
                ",\n  \"stats\": [{}, {}, {}]",
                stats.lut_builds, stats.disk_hits, stats.disk_writes
            ));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a sweep artifact, verifying well-formedness, schema
    /// version and payload checksum (same ladder as
    /// [`lut_from_json`], minus the key check — shard identity is in
    /// the payload).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Parse`] / [`ArtifactError::Version`] /
    /// [`ArtifactError::Checksum`].
    pub fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let mut r = Reader::new(text.as_bytes());
        let mut format: Option<String> = None;
        let mut version: Option<u32> = None;
        let mut shard: Option<(usize, usize)> = None;
        let mut checksum: Option<u64> = None;
        let mut cells: Option<Vec<SavingsCell>> = None;
        let mut stats: Option<SweepStats> = None;
        r.object(|r, field| {
            match field {
                "format" => format = Some(r.string()?),
                "version" => version = Some(r.int::<u32>()?),
                "shard" => {
                    r.expect(b'[')?;
                    let index = r.int::<usize>()?;
                    r.expect(b',')?;
                    let count = r.int::<usize>()?;
                    r.expect(b']')?;
                    shard = Some((index, count));
                }
                "checksum" => checksum = Some(r.int::<u64>()?),
                "cells" => {
                    let mut out = Vec::new();
                    r.array(|r| {
                        out.push(sweep_cell(r)?);
                        Ok(())
                    })?;
                    cells = Some(out);
                }
                "stats" => {
                    r.expect(b'[')?;
                    let lut_builds = r.int::<u64>()?;
                    r.expect(b',')?;
                    let disk_hits = r.int::<u64>()?;
                    r.expect(b',')?;
                    let disk_writes = r.int::<u64>()?;
                    r.expect(b']')?;
                    stats = Some(SweepStats {
                        lut_builds,
                        disk_hits,
                        disk_writes,
                    });
                }
                other => return Err(r.error(format!("unknown field `{other}`"))),
            }
            Ok(())
        })?;
        r.end()?;

        if format.as_deref() != Some(SWEEP_FORMAT) {
            return Err(r.error(format!("not a `{SWEEP_FORMAT}` file")).into());
        }
        let found = version.ok_or_else(|| r.error("missing `version`"))?;
        if found != ARTIFACT_FORMAT_VERSION {
            return Err(ArtifactError::Version {
                found,
                supported: ARTIFACT_FORMAT_VERSION,
            });
        }
        let (shard_index, shard_count) = shard.ok_or_else(|| r.error("missing `shard`"))?;
        let recorded = checksum.ok_or_else(|| r.error("missing `checksum`"))?;
        let cells = cells.ok_or_else(|| r.error("missing `cells`"))?;
        let computed = sweep_digest(shard_index, shard_count, &cells);
        if computed != recorded {
            return Err(ArtifactError::Checksum {
                expected: recorded,
                found: computed,
            });
        }
        Ok(SweepArtifact {
            shard_index,
            shard_count,
            matrix: SavingsMatrix { cells },
            stats,
        })
    }

    /// Saves with the same atomic write-rename contract as
    /// [`ArtifactStore::save_lut`].
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        write_atomic(path.as_ref(), &self.to_json())
    }

    /// Loads and verifies one artifact file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] plus the [`SweepArtifact::from_json`]
    /// verification errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        Self::from_json(&text)
    }

    /// Recombines shard outputs into one merged report, in shard
    /// order — bit-identical to the serial sweep that the partition
    /// was cut from. Validates the cover first: every shard must
    /// agree on `shard_count`, and the indices must be exactly
    /// `0..shard_count`, each once (any order in `shards` is fine).
    /// Stats sum when every shard carries them, else drop.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Shard`] naming the missing, duplicate or
    /// disagreeing shard.
    pub fn merge(shards: &[SweepArtifact]) -> Result<SweepArtifact, ArtifactError> {
        let shard_err = |message: String| ArtifactError::Shard { message };
        let first = shards
            .first()
            .ok_or_else(|| shard_err("no shards to merge".into()))?;
        let count = first.shard_count;
        if shards.len() != count {
            return Err(shard_err(format!(
                "partition declares {count} shards but {} were provided",
                shards.len()
            )));
        }
        let mut ordered: Vec<&SweepArtifact> = shards.iter().collect();
        ordered.sort_by_key(|s| s.shard_index);
        for (i, s) in ordered.iter().enumerate() {
            if s.shard_count != count {
                return Err(shard_err(format!(
                    "shard {} declares {} shards, expected {count}",
                    s.shard_index, s.shard_count
                )));
            }
            if s.shard_index != i {
                return Err(shard_err(format!(
                    "shard index {i} is missing or duplicated (found {})",
                    s.shard_index
                )));
            }
        }
        let cells: Vec<SavingsCell> = ordered
            .iter()
            .flat_map(|s| s.matrix.cells.iter().copied())
            .collect();
        let stats = ordered
            .iter()
            .map(|s| s.stats)
            .collect::<Option<Vec<_>>>()
            .map(|all| {
                all.iter().fold(SweepStats::default(), |acc, s| SweepStats {
                    lut_builds: acc.lut_builds + s.lut_builds,
                    disk_hits: acc.disk_hits + s.disk_hits,
                    disk_writes: acc.disk_writes + s.disk_writes,
                })
            });
        Ok(SweepArtifact {
            shard_index: 0,
            shard_count: 1,
            matrix: SavingsMatrix { cells },
            stats,
        })
    }
}

// --------------------------------------------------------------------
// Schema pieces read through `hhpim_workload::json`.
// --------------------------------------------------------------------

/// `null` or `[hp_mram, hp_sram, lp_mram, lp_sram, energy_pj,
/// task_time_ps]`. A negative or non-finite energy is a parse error,
/// caught before [`Energy::from_pj`] (which asserts both) and before
/// the checksum is compared.
fn lut_entry(r: &mut Reader) -> Result<Option<OptimalPlacement>, ParseError> {
    if r.literal("null") {
        return Ok(None);
    }
    r.expect(b'[')?;
    let mut counts = [0usize; 4];
    for slot in &mut counts {
        *slot = r.int::<usize>()?;
        r.expect(b',')?;
    }
    let energy_pj = r.f64()?;
    if !energy_pj.is_finite() || energy_pj < 0.0 {
        return Err(r.error(format!("energy {energy_pj} pJ is negative or not finite")));
    }
    r.expect(b',')?;
    let task_time_ps = r.int::<u64>()?;
    r.expect(b']')?;
    Ok(Some(OptimalPlacement {
        placement: Placement::from_counts(counts),
        energy_per_task: Energy::from_pj(energy_pj),
        task_time: SimDuration::from_ps(task_time_ps),
    }))
}

/// `[case_number, "model", vs_baseline, vs_heterogeneous, vs_hybrid]`.
fn sweep_cell(r: &mut Reader) -> Result<SavingsCell, ParseError> {
    r.expect(b'[')?;
    let case = r.int::<usize>()?;
    let scenario = *Scenario::ALL
        .get(case.wrapping_sub(1))
        .ok_or_else(|| r.error(format!("case {case} is out of range 1..=6")))?;
    r.expect(b',')?;
    let name = r.string()?;
    let model = *TinyMlModel::ALL
        .iter()
        .find(|m| m.to_string() == name)
        .ok_or_else(|| r.error(format!("unknown model `{name}`")))?;
    r.expect(b',')?;
    let vs_baseline = r.f64()?;
    r.expect(b',')?;
    let vs_heterogeneous = r.f64()?;
    r.expect(b',')?;
    let vs_hybrid = r.f64()?;
    r.expect(b']')?;
    Ok(SavingsCell {
        scenario,
        model,
        vs_baseline,
        vs_heterogeneous,
        vs_hybrid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::cost::{CostModel, CostParams, WorkloadProfile};
    use crate::dp::{OptimizerConfig, PlacementOptimizer};
    use crate::runtime::RuntimeConfig;

    fn fixture(buckets: usize) -> (PlacementKey, AllocationLut) {
        let params = CostParams::default();
        let cost = CostModel::new(
            Architecture::HhPim.spec(),
            WorkloadProfile::from_spec(&TinyMlModel::MobileNetV2.spec()),
            params,
        )
        .unwrap();
        let runtime = RuntimeConfig::reference(TinyMlModel::MobileNetV2, params).unwrap();
        let opt = OptimizerConfig {
            time_buckets: buckets,
            ..OptimizerConfig::default()
        };
        let key = PlacementKey::for_lut(&cost, &runtime, &opt);
        let optimizer = PlacementOptimizer::new(&cost, opt);
        let lut = AllocationLut::build(&optimizer, runtime.usable_slice(), runtime.max_tasks);
        (key, lut)
    }

    #[test]
    fn lut_json_round_trips_bit_identical() {
        let (key, lut) = fixture(150);
        let text = lut_to_json(&key, &lut);
        let loaded = lut_from_json(&key, &text).unwrap();
        assert_eq!(lut, loaded);
        // Idempotent: re-serializing the loaded table is byte-stable.
        assert_eq!(text, lut_to_json(&key, &loaded));
    }

    #[test]
    fn version_bump_is_typed() {
        let (key, lut) = fixture(120);
        let text = lut_to_json(&key, &lut).replace("\"version\": 1", "\"version\": 99");
        let err = lut_from_json(&key, &text).unwrap_err();
        assert_eq!(
            err,
            ArtifactError::Version {
                found: 99,
                supported: ARTIFACT_FORMAT_VERSION
            }
        );
    }

    #[test]
    fn out_of_range_versions_are_parse_errors() {
        // 2^32 + 1 must not wrap to version 1.
        let wrapped = "\"version\": 4294967297";
        let (key, lut) = fixture(120);
        let lut_text = lut_to_json(&key, &lut).replace("\"version\": 1", wrapped);
        assert!(matches!(
            lut_from_json(&key, &lut_text),
            Err(ArtifactError::Parse { .. })
        ));
        let sweep = SweepArtifact::new(0, 1, SavingsMatrix { cells: Vec::new() });
        let sweep_text = sweep.to_json().replace("\"version\": 1", wrapped);
        assert!(matches!(
            SweepArtifact::from_json(&sweep_text),
            Err(ArtifactError::Parse { .. })
        ));
    }

    #[test]
    fn negative_energy_is_a_parse_error_not_a_panic() {
        let (key, lut) = fixture(120);
        let text = lut_to_json(&key, &lut);
        // `[hp_mram, hp_sram, lp_mram, lp_sram, energy, time]`: turn the
        // space before the first entry's energy into a minus sign.
        let entry = text.find("\n    [").unwrap();
        let at = entry + text[entry..].match_indices(", ").nth(3).unwrap().0 + 1;
        let mut doctored = text.clone();
        doctored.replace_range(at..at + 1, "-");
        assert!(matches!(
            lut_from_json(&key, &doctored),
            Err(ArtifactError::Parse { .. })
        ));
    }

    #[test]
    fn truncation_is_a_parse_error_with_offset() {
        let (key, lut) = fixture(120);
        let text = lut_to_json(&key, &lut);
        let cut = &text[..text.len() / 2];
        match lut_from_json(&key, cut).unwrap_err() {
            ArtifactError::Parse { offset, .. } => assert!(offset <= cut.len()),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn value_corruption_is_a_checksum_error() {
        let (key, lut) = fixture(120);
        let text = lut_to_json(&key, &lut);
        // Flip one digit of the first t_constraint — still parses,
        // but the payload no longer hashes to the recorded checksum.
        let marker = "\"t_constraints_ps\": [";
        let at = text.find(marker).unwrap() + marker.len();
        let mut doctored = text.clone();
        let original = doctored.as_bytes()[at];
        let flipped = if original == b'9' { b'8' } else { original + 1 };
        // SAFETY-free byte swap via String rebuild.
        doctored.replace_range(at..at + 1, std::str::from_utf8(&[flipped]).unwrap());
        assert!(matches!(
            lut_from_json(&key, &doctored).unwrap_err(),
            ArtifactError::Checksum { .. }
        ));
    }

    #[test]
    fn foreign_key_is_a_key_mismatch() {
        let (key, lut) = fixture(120);
        let (other_key, _) = fixture(130);
        let text = lut_to_json(&key, &lut);
        assert!(matches!(
            lut_from_json(&other_key, &text).unwrap_err(),
            ArtifactError::KeyMismatch { .. }
        ));
    }

    #[test]
    fn sweep_artifact_round_trips_and_merges() {
        let cell = |case: usize, b: f64| SavingsCell {
            scenario: Scenario::ALL[case - 1],
            model: TinyMlModel::MobileNetV2,
            vs_baseline: b,
            vs_heterogeneous: b / 2.0,
            vs_hybrid: b / 3.0,
        };
        let a = SweepArtifact::new(
            0,
            2,
            SavingsMatrix {
                cells: vec![cell(1, 10.0)],
            },
        );
        let b = SweepArtifact::new(
            1,
            2,
            SavingsMatrix {
                cells: vec![cell(2, 20.0)],
            },
        );
        let reloaded = SweepArtifact::from_json(&a.to_json()).unwrap();
        assert_eq!(a, reloaded);
        // Merge accepts any order and reassembles shard order.
        let merged = SweepArtifact::merge(&[b.clone(), a.clone()]).unwrap();
        assert_eq!(merged.matrix.cells.len(), 2);
        assert_eq!(merged.matrix.cells[0], cell(1, 10.0));
        assert_eq!((merged.shard_index, merged.shard_count), (0, 1));
        // Incomplete and duplicated covers are typed errors.
        assert!(matches!(
            SweepArtifact::merge(std::slice::from_ref(&a)).unwrap_err(),
            ArtifactError::Shard { .. }
        ));
        assert!(matches!(
            SweepArtifact::merge(&[a.clone(), a]).unwrap_err(),
            ArtifactError::Shard { .. }
        ));
    }

    #[test]
    fn store_paths_are_stable_and_keyed() {
        let (key, _) = fixture(120);
        let store = ArtifactStore::new("/tmp/somewhere");
        let path = store.lut_path(&key);
        assert_eq!(path, store.lut_path(&key), "same key, same path");
        let (other, _) = fixture(130);
        assert_ne!(
            path,
            store.lut_path(&other),
            "distinct keys, distinct files"
        );
        assert!(path.to_string_lossy().ends_with(".json"));
    }

    #[test]
    fn errors_display_their_facts() {
        let cases: Vec<ArtifactError> = vec![
            ArtifactError::Version {
                found: 9,
                supported: 1,
            },
            ArtifactError::Parse {
                message: "boom".into(),
                offset: 42,
            },
            ArtifactError::Checksum {
                expected: 1,
                found: 2,
            },
            ArtifactError::KeyMismatch {
                expected: "a".into(),
                found: "b".into(),
            },
            ArtifactError::Io {
                path: "p".into(),
                message: "m".into(),
            },
            ArtifactError::Shard {
                message: "gap".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
