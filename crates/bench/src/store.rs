//! The on-disk bench results database behind `bench_gate` and
//! `perf_smoke --db`.
//!
//! One file holds every benchmark sample this repository has ever kept:
//! an append-only sequence of [`SampleRecord`]s keyed by
//! `(commit, scheme, mode, tier, kernel, shards)`. Records are never
//! mutated or deleted — a new run of the same cell appends a new record —
//! so the file order *is* the chronological order, and
//! [`BenchDb::commits`] (first-seen order) doubles as the commit axis of
//! the trend report.
//!
//! The durability discipline matches the analyzer's fact database
//! (`crates/analyzer/src/cache.rs`): a versioned magic header,
//! length-prefixed checksummed records, whole-file atomic temp-rename
//! writes, and a loader for which *no* input is an error — a missing
//! file opens empty, a version bump resets empty, and a truncated or
//! corrupt tail is dropped (counted in [`Recovery`], never panicked on)
//! so one bad byte cannot hold the gate hostage.
//!
//! ```text
//! MDBSBNCH <version:u32 le>            header
//! [len:u32 le][fnv64:u64 le][payload]  record 0   payload = compact JSON
//! [len:u32 le][fnv64:u64 le][payload]  record 1
//! ...                                  (until EOF or corrupt tail)
//! ```
//!
//! JSON payloads (via the vendored serde facade) keep the format
//! debuggable with a hex dump and make the record schema self-describing;
//! the FNV-1a checksum catches torn writes that still parse.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// On-disk format version. Bumping it abandons (resets) old databases;
/// the CI cache key embeds it so a bump cold-starts by construction.
pub const DB_VERSION: u32 = 4;

/// The record schema name, matching the `perf_smoke` report schema this
/// database stores samples from.
pub const DB_SCHEMA: &str = "mdbs-bench-smoke-v5";

const MAGIC: [u8; 8] = *b"MDBSBNCH";

/// FNV-1a over a byte slice — the per-record payload checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identity of one benchmark cell, independent of commit: which scheme,
/// execution mode, workload tier, kernel, and shard count produced the
/// measurement. Two records compare (gate) or align (trend report) only
/// when their keys are equal.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellKey {
    /// Scheme name as `perf_smoke` prints it (`Scheme0` … `Scheme3`).
    pub scheme: String,
    /// Execution mode: `replay`, `replay-sharded`, or `des`.
    pub mode: String,
    /// Workload tier label (`small` / `medium` / `large`).
    pub tier: String,
    /// Kernel name (`btree` / `dense`; `dense-memo` in pre-PR-12 history).
    pub kernel: String,
    /// Pump shard count (1 for single-engine replay and DES; one per
    /// site for `replay-sharded`).
    pub shards: u32,
}

impl CellKey {
    /// Stable one-line id, used in reports and gate output.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/x{}",
            self.scheme, self.mode, self.tier, self.kernel, self.shards
        )
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id())
    }
}

/// One benchmark measurement of one cell at one commit: every wall-clock
/// sample taken plus the deterministic counters of the run.
///
/// Wall-clock lives in `wall_ms_samples` (one entry per repetition) and
/// is what the statistical gate tests. The step counters are *not*
/// statistical — they must be bit-identical for a comparable workload —
/// so the gate uses them as a comparability guard and the trend report
/// pins them in a separate table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SampleRecord {
    /// Commit (or label) the samples were measured at.
    pub commit: String,
    /// Where the record came from: `perf_smoke`, `bench_gate`, or
    /// `ingest:<file>` for migrated historical snapshots.
    pub source: String,
    /// Whether the gate may use this record as comparison history.
    /// False for ingested snapshots: they were measured on a different
    /// machine, so their wall-clock is trend data, not a baseline.
    pub gate_eligible: bool,
    /// Cell identity.
    pub key: CellKey,
    /// Transactions in the workload (tier definitions changed across
    /// PRs, so equal tiers with different `txns` are incomparable).
    pub txns: u64,
    /// Wall-clock per repetition, milliseconds, in measurement order.
    pub wall_ms_samples: Vec<f64>,
    /// Machine-speed calibration for the run that measured this record:
    /// the median wall-clock of a fixed pure-CPU spin workload
    /// ([`crate::smoke::calibration_ms`]). The gate compares
    /// `wall_ms / calib_ms` so a uniformly slower/faster machine state
    /// (frequency scaling, CI-runner contention) cancels instead of
    /// firing every cell. `None` on ingested pre-v4 records.
    pub calib_ms: Option<f64>,
    /// Paper-step `cond` charges (deterministic; comparability guard).
    pub steps_cond: u64,
    /// Paper-step `act` charges (deterministic; comparability guard).
    pub steps_act: u64,
    /// Wait-scan steps.
    pub steps_wait_scan: u64,
    /// Operations that waited at least once.
    pub waits: u64,
    /// Peak WAIT-set size.
    pub peak_wait: u64,
    /// Peak active-transaction count.
    pub peak_active: u64,
    /// Wake scans performed (absent in pre-v2 snapshots).
    pub wake_scan_count: Option<u64>,
    /// Total wake candidates examined (absent in pre-v2 snapshots).
    pub wake_scan_sum: Option<u64>,
    /// DES p50 response (simulated µs); `None` for replay cells.
    pub p50_response_us: Option<u64>,
    /// DES p99 response (simulated µs); `None` for replay cells.
    pub p99_response_us: Option<u64>,
}

impl SampleRecord {
    /// Median of the wall-clock samples (NaN-free inputs assumed; an
    /// empty sample list yields 0.0 rather than a panic).
    pub fn wall_ms_median(&self) -> f64 {
        crate::gate::median(&self.wall_ms_samples)
    }

    /// Smallest wall-clock sample (0.0 when empty).
    pub fn wall_ms_min(&self) -> f64 {
        if self.wall_ms_samples.is_empty() {
            return 0.0;
        }
        self.wall_ms_samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest wall-clock sample (0.0 when empty).
    pub fn wall_ms_max(&self) -> f64 {
        self.wall_ms_samples.iter().copied().fold(0.0, f64::max)
    }
}

/// What the loader had to do to open the file: all-zero on the happy
/// path. A corrupt tail or version reset is *reported*, not fatal — the
/// next [`BenchDb::save`] rewrites a clean file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Bytes dropped from a corrupt or truncated tail.
    pub dropped_tail_bytes: u64,
    /// Whether the whole file was abandoned (bad magic / old version).
    pub reset: Option<String>,
}

/// The append-only bench results database. All records live in memory
/// (a few hundred small records even after many PRs); [`BenchDb::save`]
/// rewrites the file atomically.
#[derive(Debug)]
pub struct BenchDb {
    path: PathBuf,
    records: Vec<SampleRecord>,
    recovery: Recovery,
    dirty: bool,
}

impl BenchDb {
    /// Open a database file, or start empty if it does not exist.
    /// Corruption never errors: the valid prefix is kept and the rest is
    /// reported via [`BenchDb::recovery`]. Only real I/O failures (e.g.
    /// permission denied) surface as `Err`.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<BenchDb> {
        let path = path.into();
        let mut db = BenchDb {
            path,
            records: Vec::new(),
            recovery: Recovery::default(),
            dirty: false,
        };
        let bytes = match fs::read(&db.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(db),
            Err(e) => return Err(e),
        };
        db.load(&bytes);
        Ok(db)
    }

    /// Decode `bytes`, keeping the longest valid prefix.
    fn load(&mut self, bytes: &[u8]) {
        if bytes.len() < MAGIC.len() + 4 || bytes[..MAGIC.len()] != MAGIC {
            self.recovery.reset = Some("bad magic header".to_string());
            self.recovery.dropped_tail_bytes = bytes.len() as u64;
            self.dirty = !bytes.is_empty();
            return;
        }
        let mut v = [0u8; 4];
        v.copy_from_slice(&bytes[MAGIC.len()..MAGIC.len() + 4]);
        let version = u32::from_le_bytes(v);
        if version != DB_VERSION {
            self.recovery.reset = Some(format!("version {version} != {DB_VERSION}"));
            self.recovery.dropped_tail_bytes = bytes.len() as u64;
            self.dirty = true;
            return;
        }
        let mut off = MAGIC.len() + 4;
        while off < bytes.len() {
            let Some(rec) = decode_record(bytes, &mut off) else {
                self.recovery.dropped_tail_bytes = (bytes.len() - off) as u64;
                self.dirty = true;
                break;
            };
            self.records.push(rec);
        }
    }

    /// Where the database lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What the loader recovered from, if anything.
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// Every record, in append (= chronological) order.
    pub fn records(&self) -> &[SampleRecord] {
        &self.records
    }

    /// Append one record (in memory; call [`BenchDb::save`] to persist).
    pub fn append(&mut self, record: SampleRecord) {
        self.records.push(record);
        self.dirty = true;
    }

    /// Whether appends (or a recovered/reset load) are unpersisted.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Commit labels in first-seen (chronological) order.
    pub fn commits(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &self.records {
            if !out.contains(&r.commit) {
                out.push(r.commit.clone());
            }
        }
        out
    }

    /// Whether any record carries this commit label.
    pub fn has_commit(&self, commit: &str) -> bool {
        self.records.iter().any(|r| r.commit == commit)
    }

    /// Every distinct cell key, sorted.
    pub fn cells(&self) -> BTreeSet<CellKey> {
        self.records.iter().map(|r| r.key.clone()).collect()
    }

    /// All records of one cell, in append order.
    pub fn history(&self, key: &CellKey) -> Vec<&SampleRecord> {
        self.records.iter().filter(|r| &r.key == key).collect()
    }

    /// Persist atomically: encode everything into `<path>.tmp`, then
    /// rename over the target, so a crash leaves either the old file or
    /// the new one — never a torn write.
    pub fn save(&mut self) -> io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            let mut buf = Vec::with_capacity(64 * self.records.len() + 16);
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&DB_VERSION.to_le_bytes());
            for rec in &self.records {
                encode_record(rec, &mut buf)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            }
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.dirty = false;
        Ok(())
    }
}

fn encode_record(rec: &SampleRecord, out: &mut Vec<u8>) -> Result<(), String> {
    let payload = serde_json::to_string(rec).map_err(|e| e.to_string())?;
    let payload = payload.as_bytes();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Decode one record at `*off`, advancing it past the record. `None`
/// on truncation, checksum mismatch, or an undecodable payload — the
/// caller treats everything from `*off` as a corrupt tail.
fn decode_record(bytes: &[u8], off: &mut usize) -> Option<SampleRecord> {
    let header_end = off.checked_add(12)?;
    if header_end > bytes.len() {
        return None;
    }
    let mut l = [0u8; 4];
    l.copy_from_slice(&bytes[*off..*off + 4]);
    let len = u32::from_le_bytes(l) as usize;
    let mut c = [0u8; 8];
    c.copy_from_slice(&bytes[*off + 4..*off + 12]);
    let checksum = u64::from_le_bytes(c);
    let payload_end = header_end.checked_add(len)?;
    if payload_end > bytes.len() {
        return None;
    }
    let payload = &bytes[header_end..payload_end];
    if fnv64(payload) != checksum {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let rec: SampleRecord = serde_json::from_str(text).ok()?;
    *off = payload_end;
    Some(rec)
}

/// Read a whole file defensively (used by tests to inspect raw bytes).
pub fn read_file_bytes(path: &Path) -> io::Result<Vec<u8>> {
    let mut f = fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(buf)
}
