//! Content-addressed trace store: validated ingest, atomic writes,
//! indexed metadata, and size-budget eviction.
//!
//! Accel-Sim-style trace-driven simulation separates *capture* from
//! *replay*: a workload is traced once and replayed by many simulations.
//! This crate is the capture side's home. A [`TraceStore`] keeps every
//! ingested trace under a directory, named by its **semantic hash** (the
//! FNV-1a content identity from
//! [`gsim_trace::semantic_hash_of`]), so:
//!
//! * identical instruction streams deduplicate to one blob no matter how
//!   many times — or under which names or chunking — they are uploaded;
//! * a trace reference (`16` lowercase hex digits) is stable across
//!   machines and sessions, making it a safe cache key for downstream
//!   prediction services.
//!
//! # Layout and ingest protocol
//!
//! ```text
//! <root>/
//!   traces.jsonl          index: one JSON object per entry, append-only,
//!                         rewritten atomically on eviction/compaction
//!   traces/<ref>.gstr     blobs: each upload's bytes exactly as validated
//! ```
//!
//! Ingest *validates* the upload in one streaming [`TraceReader`] pass
//! (resource limits enforced), which also yields the index entry: totals,
//! name, kernel count and the semantic hash. It then writes the very
//! bytes it validated to a temp file, `fsync`s it, `rename`s it into place
//! (atomic on POSIX) and `fsync`s the containing directory so the rename
//! itself survives power loss, then appends (and `fsync`s) the index
//! entry. A crash can therefore leave only a temp file or an unindexed
//! blob, never a corrupt index entry pointing at a bad blob — and open
//! repairs both: temp files are deleted, stale or unparsable index lines
//! (including a torn tail from a crash mid-append) are dropped, and
//! valid blobs the index never recorded are re-validated and re-indexed
//! (counted in [`StoreStats::recovered`]).
//!
//! Eviction is oldest-first by ingest sequence once the configured byte
//! budget is exceeded; the most recent ingest is never evicted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gsim_json::{obj, Json};
use gsim_trace::{TraceLimits, TraceReadError, TraceReader, TracedWorkload};

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Byte budget for stored blobs; oldest entries are evicted beyond
    /// it. The most recent ingest always survives, even alone over
    /// budget.
    pub max_bytes: u64,
    /// Decode limits applied when validating ingests and opening blobs.
    pub limits: TraceLimits,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            max_bytes: 1 << 30,
            limits: TraceLimits::default(),
        }
    }
}

/// Index metadata of one stored trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Content address: the semantic hash as 16 lowercase hex digits.
    pub trace_ref: String,
    /// Workload name recorded in the trace (informational only; not part
    /// of the content address).
    pub name: String,
    /// Number of kernels.
    pub n_kernels: u64,
    /// Total warps.
    pub total_warps: u64,
    /// Total ops.
    pub total_ops: u64,
    /// Total warp instructions.
    pub total_warp_instrs: u64,
    /// Stored blob size in bytes.
    pub bytes: u64,
    /// Monotonic ingest sequence number (eviction order).
    pub seq: u64,
}

/// Session counters and gauges of a [`TraceStore`]. Counters reset on
/// open; `store_bytes`/`entries` reflect durable state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful ingests of new content.
    pub ingests: u64,
    /// Ingests whose content was already stored.
    pub dedup_hits: u64,
    /// Rejected ingests (decode/validation failures) plus index entries
    /// dropped as stale on open.
    pub validation_failures: u64,
    /// Entries evicted to fit the byte budget.
    pub evictions: u64,
    /// Valid blobs found on open that the index had no entry for
    /// (crash between blob rename and index append), re-indexed.
    pub recovered: u64,
    /// Bytes currently stored.
    pub store_bytes: u64,
    /// Entries currently stored.
    pub entries: u64,
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The ingested bytes are not a valid trace.
    Invalid(TraceReadError),
    /// No trace with the given reference exists.
    NotFound(String),
    /// Filesystem failure.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Invalid(e) => write!(f, "invalid trace: {e}"),
            Self::NotFound(r) => write!(f, "no trace {r} in store"),
            Self::Io(e) => write!(f, "trace store I/O error: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Invalid(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::NotFound(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

struct Inner {
    root: PathBuf,
    cfg: StoreConfig,
    /// Entries in ingest order (oldest first).
    entries: Vec<TraceMeta>,
    next_seq: u64,
    ingests: u64,
    dedup_hits: u64,
    validation_failures: u64,
    evictions: u64,
    recovered: u64,
    /// Fault injector consulted on blob I/O. Defaults to the
    /// process-wide plan; tests swap in a private one.
    faults: Option<&'static gsim_faults::Injector>,
}

/// Flushes a directory's own metadata (the rename/unlink journal on
/// POSIX). Best effort: platforms where directories cannot be fsynced
/// (or opened) still get the file-level syncs.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all().or(Ok(())),
        Err(_) => Ok(()),
    }
}

/// Streams a whole trace once, validating it under `limits`, and returns
/// its index entry with sequence number `seq`.
fn scan<R: Read>(input: R, limits: TraceLimits, seq: u64) -> Result<TraceMeta, TraceReadError> {
    let mut reader = TraceReader::with_limits(input, limits)?;
    while reader.next_warp()?.is_some() {}
    let stats = *reader.stats().expect("fully streamed");
    Ok(TraceMeta {
        trace_ref: format!("{:016x}", stats.semantic_hash),
        name: reader.name().to_string(),
        n_kernels: reader.n_kernels() as u64,
        total_warps: stats.total_warps,
        total_ops: stats.total_ops,
        total_warp_instrs: stats.total_warp_instrs,
        bytes: stats.bytes_read,
        seq,
    })
}

/// Fully streams an orphaned blob and, if it decodes cleanly and its
/// semantic hash matches its file name, returns a fresh index entry
/// for it.
fn validate_blob(path: &Path, trace_ref: &str, limits: TraceLimits, seq: u64) -> Option<TraceMeta> {
    let f = File::open(path).ok()?;
    let meta = scan(io::BufReader::new(f), limits, seq).ok()?;
    (meta.trace_ref == trace_ref).then_some(meta)
}

/// A thread-safe, content-addressed store of validated traces.
pub struct TraceStore {
    inner: Mutex<Inner>,
}

const INDEX_FILE: &str = "traces.jsonl";
const BLOB_DIR: &str = "traces";

fn blob_rel(trace_ref: &str) -> String {
    format!("{BLOB_DIR}/{trace_ref}.gstr")
}

fn meta_to_json(m: &TraceMeta) -> Json {
    obj([
        ("ref", Json::from(m.trace_ref.as_str())),
        ("name", Json::from(m.name.as_str())),
        ("kernels", Json::from(m.n_kernels)),
        ("warps", Json::from(m.total_warps)),
        ("ops", Json::from(m.total_ops)),
        ("warp_instrs", Json::from(m.total_warp_instrs)),
        ("bytes", Json::from(m.bytes)),
        ("seq", Json::from(m.seq)),
    ])
}

fn meta_from_json(j: &Json) -> Option<TraceMeta> {
    let trace_ref = j.get("ref")?.as_str()?.to_string();
    if trace_ref.len() != 16 || !trace_ref.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    Some(TraceMeta {
        trace_ref,
        name: j.get("name")?.as_str()?.to_string(),
        n_kernels: j.get("kernels")?.as_u64()?,
        total_warps: j.get("warps")?.as_u64()?,
        total_ops: j.get("ops")?.as_u64()?,
        total_warp_instrs: j.get("warp_instrs")?.as_u64()?,
        bytes: j.get("bytes")?.as_u64()?,
        seq: j.get("seq")?.as_u64()?,
    })
}

impl Inner {
    fn blob_path(&self, trace_ref: &str) -> PathBuf {
        self.root.join(blob_rel(trace_ref))
    }

    fn store_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Rewrites the whole index atomically (temp file + rename).
    fn rewrite_index(&self) -> io::Result<()> {
        let tmp = self.root.join(".traces.jsonl.tmp");
        {
            let mut f = File::create(&tmp)?;
            for e in &self.entries {
                writeln!(f, "{}", meta_to_json(e).render())?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, self.root.join(INDEX_FILE))?;
        fsync_dir(&self.root)
    }

    fn append_index(&self, meta: &TraceMeta) -> io::Result<()> {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join(INDEX_FILE))?;
        writeln!(f, "{}", meta_to_json(meta).render())?;
        f.sync_all()?;
        // The append may have created the file; persist its dirent too.
        fsync_dir(&self.root)
    }

    /// Evicts oldest entries until the budget fits, sparing the entry
    /// with sequence number `keep_seq`.
    fn evict_to_budget(&mut self, keep_seq: u64) -> io::Result<()> {
        let mut evicted = false;
        while self.store_bytes() > self.cfg.max_bytes {
            let Some(idx) = self.entries.iter().position(|e| e.seq != keep_seq) else {
                break;
            };
            let victim = self.entries.remove(idx);
            // A missing blob is already gone; don't fail eviction on it.
            match fs::remove_file(self.blob_path(&victim.trace_ref)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    self.entries.insert(idx, victim);
                    return Err(e);
                }
            }
            self.evictions += 1;
            evicted = true;
        }
        if evicted {
            self.rewrite_index()?;
        }
        Ok(())
    }
}

impl TraceStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// The index is re-validated: unparsable lines, duplicate refs, and
    /// entries whose blob is missing or has the wrong size are dropped
    /// (counted as validation failures) and the index is compacted.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error creating the directories or reading
    /// the index.
    pub fn open(root: impl Into<PathBuf>, cfg: StoreConfig) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(root.join(BLOB_DIR))?;
        let mut entries: Vec<TraceMeta> = Vec::new();
        let mut seen: HashMap<String, usize> = HashMap::new();
        let mut dropped = 0u64;
        let index_path = root.join(INDEX_FILE);
        let raw = match fs::read_to_string(&index_path) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        for line in raw.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some(meta) = gsim_json::parse(line)
                .ok()
                .as_ref()
                .and_then(meta_from_json)
            else {
                dropped += 1;
                continue;
            };
            let ok = fs::metadata(root.join(blob_rel(&meta.trace_ref)))
                .map(|m| m.is_file() && m.len() == meta.bytes)
                .unwrap_or(false);
            if !ok {
                dropped += 1;
                continue;
            }
            // Last write wins on duplicate refs.
            if let Some(&i) = seen.get(&meta.trace_ref) {
                dropped += 1;
                entries[i] = meta;
            } else {
                seen.insert(meta.trace_ref.clone(), entries.len());
                entries.push(meta);
            }
        }
        entries.sort_by_key(|e| e.seq);
        let mut next_seq = entries.last().map_or(0, |e| e.seq + 1);

        // Crash recovery: a crash after the blob rename but before the
        // index append leaves a valid blob the index never saw. Find such
        // orphans, re-validate them, and give them fresh index entries
        // instead of losing the data; interrupted ingests' temp files are
        // deleted. Orphans are re-indexed in name order (deterministic).
        let mut recovered = 0u64;
        let mut orphans: Vec<String> = Vec::new();
        for dirent in fs::read_dir(root.join(BLOB_DIR))? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if name.starts_with(".tmp-") {
                let _ = fs::remove_file(dirent.path());
                continue;
            }
            let Some(stem) = name.strip_suffix(".gstr") else {
                continue;
            };
            let canonical = stem.len() == 16
                && stem
                    .bytes()
                    .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
            if canonical && !seen.contains_key(stem) {
                orphans.push(stem.to_string());
            }
        }
        orphans.sort_unstable();
        for trace_ref in orphans {
            let path = root.join(blob_rel(&trace_ref));
            let Some(meta) = validate_blob(&path, &trace_ref, cfg.limits, next_seq) else {
                // Not a decodable trace under our limits, or content
                // doesn't match its name: corrupt, not recoverable.
                dropped += 1;
                let _ = fs::remove_file(&path);
                continue;
            };
            next_seq += 1;
            recovered += 1;
            entries.push(meta);
        }

        let inner = Inner {
            root,
            cfg,
            entries,
            next_seq,
            ingests: 0,
            dedup_hits: 0,
            validation_failures: dropped,
            evictions: 0,
            recovered,
            faults: gsim_faults::active(),
        };
        if dropped > 0 || recovered > 0 {
            inner.rewrite_index()?;
        }
        Ok(Self {
            inner: Mutex::new(inner),
        })
    }

    /// Validates a trace in one streaming pass and stores the bytes as
    /// sent. Returns its metadata and whether the content was already
    /// present (dedup). The pass needs no store state, so it runs before
    /// the store lock is taken: `get`, `list` and `load` never wait
    /// behind an upload's decode, only behind its write.
    ///
    /// # Errors
    ///
    /// [`StoreError::Invalid`] if `bytes` fail to decode under the
    /// configured limits; [`StoreError::Io`] on filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn ingest_bytes(&self, bytes: &[u8]) -> Result<(TraceMeta, bool), StoreError> {
        let limits = self.inner.lock().expect("trace store lock").cfg.limits;
        let scanned = scan(bytes, limits, 0);
        let mut inner = self.inner.lock().expect("trace store lock");
        let mut meta = match scanned {
            Ok(meta) => meta,
            Err(e) => {
                inner.validation_failures += 1;
                return Err(StoreError::Invalid(e));
            }
        };
        meta.seq = inner.next_seq;
        if let Some(existing) = inner.entries.iter().find(|e| e.trace_ref == meta.trace_ref) {
            let meta = existing.clone();
            inner.dedup_hits += 1;
            return Ok((meta, true));
        }

        let blob_dir = inner.root.join(BLOB_DIR);
        let tmp = blob_dir.join(format!(".tmp-{}", meta.trace_ref));
        let faults = inner.faults;
        let write_result = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            // Injected fault: persist only a prefix, as a crash mid-write
            // would, and fail the ingest. The rename never happens, so the
            // store must stay consistent (no index entry, no blob).
            if let Some(short) = faults.and_then(|inj| inj.store_short_write(bytes.len())) {
                f.write_all(&bytes[..short])?;
                f.sync_all()?;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected fault: short blob write",
                ));
            }
            f.write_all(bytes)?;
            f.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write_result {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        fs::rename(&tmp, inner.blob_path(&meta.trace_ref))?;
        fsync_dir(&blob_dir)?;

        inner.next_seq += 1;
        inner.append_index(&meta)?;
        inner.entries.push(meta.clone());
        inner.ingests += 1;
        inner.evict_to_budget(meta.seq)?;
        Ok((meta, false))
    }

    /// Reads and ingests a trace file from the filesystem.
    ///
    /// # Errors
    ///
    /// As [`TraceStore::ingest_bytes`], plus I/O errors reading `path`.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn ingest_file(&self, path: &Path) -> Result<(TraceMeta, bool), StoreError> {
        let max = self
            .inner
            .lock()
            .expect("trace store lock")
            .cfg
            .limits
            .max_file_bytes;
        let f = File::open(path)?;
        let mut bytes = Vec::new();
        // Bound the read so a huge file fails cleanly instead of OOMing.
        f.take(max.saturating_add(1)).read_to_end(&mut bytes)?;
        if bytes.len() as u64 > max {
            self.inner
                .lock()
                .expect("trace store lock")
                .validation_failures += 1;
            return Err(StoreError::Invalid(TraceReadError::TooLarge(format!(
                "file exceeds max_file_bytes = {max}"
            ))));
        }
        self.ingest_bytes(&bytes)
    }

    /// Looks up a trace's metadata by reference.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn get(&self, trace_ref: &str) -> Option<TraceMeta> {
        let inner = self.inner.lock().expect("trace store lock");
        inner
            .entries
            .iter()
            .find(|e| e.trace_ref == trace_ref)
            .cloned()
    }

    /// Loads and fully decodes a stored trace.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for an unknown reference;
    /// [`StoreError::Invalid`] if the blob no longer decodes (on-disk
    /// corruption); [`StoreError::Io`] on filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn load(&self, trace_ref: &str) -> Result<TracedWorkload, StoreError> {
        let (path, limits, faults) = {
            let inner = self.inner.lock().expect("trace store lock");
            if !inner.entries.iter().any(|e| e.trace_ref == trace_ref) {
                return Err(StoreError::NotFound(trace_ref.to_string()));
            }
            (inner.blob_path(trace_ref), inner.cfg.limits, inner.faults)
        };
        if let Some(delay) = faults.and_then(|inj| inj.store_read_delay()) {
            std::thread::sleep(delay);
        }
        let f = File::open(path)?;
        TracedWorkload::read_with_limits(io::BufReader::new(f), limits).map_err(StoreError::Invalid)
    }

    /// The on-disk path of a stored trace's blob, if the reference is
    /// indexed. Useful for streaming readers that want the raw file
    /// without materialising the whole workload.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn blob_path(&self, trace_ref: &str) -> Option<PathBuf> {
        let inner = self.inner.lock().expect("trace store lock");
        inner
            .entries
            .iter()
            .any(|e| e.trace_ref == trace_ref)
            .then(|| inner.blob_path(trace_ref))
    }

    /// All entries, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn list(&self) -> Vec<TraceMeta> {
        self.inner.lock().expect("trace store lock").entries.clone()
    }

    /// Replaces the fault injector this store consults on blob I/O
    /// (default: the process-wide plan from [`gsim_faults::install`]).
    /// For tests and chaos harnesses that need store-local faults.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn set_faults(&self, faults: Option<&'static gsim_faults::Injector>) {
        self.inner.lock().expect("trace store lock").faults = faults;
    }

    /// Session counters and current gauges.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("trace store lock");
        StoreStats {
            ingests: inner.ingests,
            dedup_hits: inner.dedup_hits,
            validation_failures: inner.validation_failures,
            evictions: inner.evictions,
            recovered: inner.recovered,
            store_bytes: inner.store_bytes(),
            entries: inner.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::{semantic_hash_of, write_trace, Kernel, PatternKind, PatternSpec, Workload};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("gsim-tracestore-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&d).expect("create temp dir");
        d
    }

    fn workload(seed: u64, footprint: u64) -> Workload {
        let spec = PatternSpec::new(PatternKind::GlobalSweep { passes: 2 }, footprint)
            .compute_per_mem(1.0);
        Workload::new("wl", seed, vec![Kernel::new("k", 8, 128, spec)])
    }

    fn trace_bytes(wl: &Workload) -> Vec<u8> {
        let mut b = Vec::new();
        write_trace(wl, &mut b).expect("write");
        b
    }

    /// Validation runs outside the lock, so concurrent uploads of one
    /// content race to the write: exactly one stores it, the rest dedup.
    #[test]
    fn concurrent_ingests_of_one_content_store_it_once() {
        const N: usize = 8;
        let dir = tmpdir("concurrent");
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
        let bytes = trace_bytes(&workload(3, 4096));
        let barrier = std::sync::Barrier::new(N);
        let dups: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        store.ingest_bytes(&bytes).expect("ingest").1
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ingest thread"))
                .collect()
        });
        assert_eq!(dups.iter().filter(|&&dup| !dup).count(), 1, "{dups:?}");
        let stats = store.stats();
        assert_eq!((stats.ingests, stats.dedup_hits), (1, N as u64 - 1));
        assert_eq!(stats.entries, 1);
        let blobs = fs::read_dir(dir.join(BLOB_DIR)).expect("blob dir").count();
        assert_eq!(blobs, 1, "one blob and no temp file");
        let index = fs::read_to_string(dir.join(INDEX_FILE)).expect("index");
        assert_eq!(index.lines().count(), 1, "{index}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A re-upload of the same content dedupes; a file in any other
    /// format version — 1, the unframed format earlier builds wrote,
    /// included — is refused and stores nothing.
    #[test]
    fn ingest_dedupes_across_format_versions() {
        let dir = tmpdir("dedupe");
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
        let wl = workload(1, 4096);
        let bytes = trace_bytes(&wl);
        let (meta, dup) = store.ingest_bytes(&bytes).expect("ingest");
        assert!(!dup);
        assert_eq!(meta.trace_ref, format!("{:016x}", semantic_hash_of(&wl)));
        assert_eq!(meta.n_kernels, 1);
        assert_eq!(meta.total_warps, 8 * 4);
        assert_eq!(meta.total_warp_instrs, wl.approx_warp_instrs());

        let (meta2, dup2) = store.ingest_bytes(&bytes).expect("re-ingest");
        assert!(dup2);
        assert_eq!(meta2, meta);

        let mut v1 = bytes.clone();
        v1[4] = 1;
        let err = store.ingest_bytes(&v1).expect_err("v1 refused");
        assert!(
            matches!(
                err,
                StoreError::Invalid(TraceReadError::UnsupportedVersion(1))
            ),
            "{err}"
        );

        let s = store.stats();
        assert_eq!((s.ingests, s.dedup_hits, s.entries), (1, 1, 1));
        assert_eq!(s.validation_failures, 1);
        assert_eq!(s.store_bytes, meta.bytes);
        let blobs = fs::read_dir(dir.join(BLOB_DIR)).expect("blob dir").count();
        assert_eq!(blobs, 1, "the refused upload left no blob");
        fs::remove_dir_all(&dir).ok();
    }

    /// The blob on disk is the upload byte for byte — here an upload
    /// whose header-frame length is an overlong (valid) varint, which the
    /// writer never emits — and `load` replays the uploaded streams.
    #[test]
    fn stores_the_validated_upload_as_sent() {
        let dir = tmpdir("as-sent");
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
        let wl = workload(3, 2048);
        let mut bytes = trace_bytes(&wl);
        assert!(bytes[6] < 0x80, "one-byte header length");
        bytes.splice(6..7, [bytes[6] | 0x80, 0]);
        let (meta, _) = store.ingest_bytes(&bytes).expect("ingest");
        assert_eq!(meta.bytes, bytes.len() as u64);
        let path = store.blob_path(&meta.trace_ref).expect("indexed");
        assert_eq!(fs::read(path).expect("blob"), bytes);
        let loaded = store.load(&meta.trace_ref).expect("load");
        assert_eq!(semantic_hash_of(&loaded), semantic_hash_of(&wl));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_replays_the_same_streams() {
        let dir = tmpdir("load");
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
        let wl = workload(2, 2048);
        let (meta, _) = store.ingest_bytes(&trace_bytes(&wl)).expect("ingest");
        let loaded = store.load(&meta.trace_ref).expect("load");
        assert_eq!(semantic_hash_of(&loaded), semantic_hash_of(&wl));
        assert!(matches!(
            store.load("0000000000000000"),
            Err(StoreError::NotFound(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage_and_counts_it() {
        let dir = tmpdir("garbage");
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
        assert!(matches!(
            store.ingest_bytes(b"not a trace at all"),
            Err(StoreError::Invalid(_))
        ));
        assert_eq!(store.stats().validation_failures, 1);
        assert_eq!(store.stats().entries, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evicts_oldest_beyond_budget_but_spares_newest() {
        let dir = tmpdir("evict");
        let one = trace_bytes(&workload(10, 1024));
        let budget = (one.len() as u64 * 5) / 2; // fits two traces, not three
        let cfg = StoreConfig {
            max_bytes: budget,
            ..StoreConfig::default()
        };
        let store = TraceStore::open(&dir, cfg).expect("open");
        let refs: Vec<String> = (0..3u64)
            .map(|i| {
                let (m, _) = store
                    .ingest_bytes(&trace_bytes(&workload(10 + i, 1024 + i * 64)))
                    .expect("ingest");
                m.trace_ref
            })
            .collect();
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.store_bytes <= budget);
        assert!(store.get(&refs[0]).is_none(), "oldest evicted");
        assert!(store.get(&refs[2]).is_some(), "newest kept");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_index_and_drops_stale_entries() {
        let dir = tmpdir("reopen");
        let wl_a = workload(20, 1024);
        let wl_b = workload(21, 2048);
        let (keep, gone) = {
            let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
            let (a, _) = store.ingest_bytes(&trace_bytes(&wl_a)).expect("a");
            let (b, _) = store.ingest_bytes(&trace_bytes(&wl_b)).expect("b");
            (a.trace_ref, b.trace_ref)
        };
        // Sabotage: delete one blob and append garbage to the index.
        fs::remove_file(dir.join(BLOB_DIR).join(format!("{gone}.gstr"))).expect("rm");
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(INDEX_FILE))
            .expect("index");
        writeln!(f, "{{ not json").expect("garbage");
        drop(f);

        let store = TraceStore::open(&dir, StoreConfig::default()).expect("reopen");
        assert!(store.get(&keep).is_some());
        assert!(store.get(&gone).is_none());
        assert_eq!(store.stats().entries, 1);
        assert_eq!(store.stats().validation_failures, 2);
        // The loadable survivor still decodes to the right content.
        let loaded = store.load(&keep).expect("load");
        assert_eq!(semantic_hash_of(&loaded), semantic_hash_of(&wl_a));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_reindexes_orphaned_blobs_and_sweeps_temp_files() {
        let dir = tmpdir("orphan");
        let wl_a = workload(30, 1024);
        let wl_b = workload(31, 2048);
        let (indexed, orphan) = {
            let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
            let (a, _) = store.ingest_bytes(&trace_bytes(&wl_a)).expect("a");
            let (b, _) = store.ingest_bytes(&trace_bytes(&wl_b)).expect("b");
            (a, b)
        };
        // Simulate a crash between blob rename and index append: keep b's
        // blob but rewrite the index without its entry, with a torn tail.
        let index = dir.join(INDEX_FILE);
        let keep_line = fs::read_to_string(&index)
            .expect("index")
            .lines()
            .find(|l| l.contains(&indexed.trace_ref))
            .expect("indexed line")
            .to_string();
        fs::write(&index, format!("{keep_line}\n{{\"ref\":\"torn")).expect("rewrite");
        // Plus leftovers a crash mid-ingest would leave behind.
        let tmp = dir.join(BLOB_DIR).join(".tmp-deadbeefdeadbeef");
        fs::write(&tmp, b"partial").expect("tmp");
        // And a canonical-looking blob whose content doesn't match its
        // name — must be dropped, not recovered.
        let fake = dir.join(BLOB_DIR).join("00000000000000aa.gstr");
        fs::write(&fake, trace_bytes(&wl_a)).expect("fake");

        let store = TraceStore::open(&dir, StoreConfig::default()).expect("reopen");
        let s = store.stats();
        assert_eq!(s.entries, 2, "indexed + recovered orphan");
        assert_eq!(s.recovered, 1);
        // Dropped: the torn index tail and the mismatched fake blob.
        assert_eq!(s.validation_failures, 2);
        assert!(!tmp.exists(), "temp file swept");
        assert!(!fake.exists(), "mismatched blob deleted");
        let loaded = store.load(&orphan.trace_ref).expect("recovered loads");
        assert_eq!(semantic_hash_of(&loaded), semantic_hash_of(&wl_b));
        // Recovered entry is re-sequenced after survivors and durable: a
        // third open sees a clean index, nothing recovered or dropped.
        assert!(store.get(&orphan.trace_ref).expect("meta").seq > indexed.seq);
        drop(store);
        let again = TraceStore::open(&dir, StoreConfig::default()).expect("third open");
        let s = again.stats();
        assert_eq!((s.entries, s.recovered, s.validation_failures), (2, 0, 0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_short_write_fails_ingest_and_leaves_store_consistent() {
        let dir = tmpdir("shortwrite");
        // A store-local injector (not the process-wide plan, which would
        // leak the fault into every other test): cut every blob write.
        let plan = gsim_faults::FaultPlan::parse("seed=1,store_short_write_p=1.0").expect("plan");
        let faults: &'static gsim_faults::Injector =
            Box::leak(Box::new(gsim_faults::Injector::new(plan)));
        let store = TraceStore::open(&dir, StoreConfig::default()).expect("open");
        store.set_faults(Some(faults));
        let bytes = trace_bytes(&workload(40, 1024));
        let err = store
            .ingest_bytes(&bytes)
            .expect_err("short write must fail ingest");
        assert!(matches!(err, StoreError::Io(_)));
        let s = store.stats();
        assert_eq!((s.entries, s.ingests), (0, 0));
        let blobs: Vec<_> = fs::read_dir(dir.join(BLOB_DIR))
            .expect("blob dir")
            .collect();
        assert!(blobs.is_empty(), "no blob or temp file left behind");

        // With faults off again the identical bytes ingest fine — the
        // failed attempt left nothing poisoned behind.
        store.set_faults(None);
        let (meta, dup) = store.ingest_bytes(&bytes).expect("clean retry");
        assert!(!dup);
        assert!(store.load(&meta.trace_ref).is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
