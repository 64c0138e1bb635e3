//! Persistent placement artifacts: the on-disk tier under the
//! [`crate::PlacementStore`].
//!
//! The §III-B allocation LUT is the reusable product of Algorithms
//! 1+2 — but the store's memoization dies with the process, so every
//! process would recompute the same tables. This module makes the DP
//! survive the process:
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
//! * **Atomic writes.** [`ArtifactStore::save_lut`] writes to a unique
//!   temp file in the target directory and `rename`s it into place, so
//!   concurrent writers (threads of one process, or processes sharing
//!   an artifact dir) never tear a file — the last complete write
//!   wins, and every complete write of one key has identical contents.
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
use crate::space::{Placement, StorageSpace};
use crate::store::PlacementKey;
use hhpim_mem::Energy;
use hhpim_sim::SimDuration;
use hhpim_workload::json::{quote, ParseError, Reader};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the on-disk artifact schema. Bumped on any incompatible
/// change; files recording a different version load as
/// [`ArtifactError::Version`] and are rebuilt, never reinterpreted.
pub const ARTIFACT_FORMAT_VERSION: u32 = 1;

/// Format tag of a persisted allocation LUT.
const LUT_FORMAT: &str = "hhpim-lut-artifact";

/// Why an artifact could not be saved or loaded. Every load
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
/// or the new complete file, never a torn prefix — the contract
/// concurrent writers sharing an artifact dir rely on.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::cost::{CostModel, CostParams, WorkloadProfile};
    use crate::dp::{OptimizerConfig, PlacementOptimizer};
    use crate::runtime::RuntimeConfig;
    use hhpim_nn::TinyMlModel;

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
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
