//! Content-addressed result cache: in-memory LRU with optional on-disk
//! JSONL persistence.
//!
//! The *content address* of a prediction is the FNV-1a 64-bit hash of a
//! canonical string spelling out everything the answer depends on: every
//! field of the derived [`GpuConfig`](gsim_sim::GpuConfig)s (so changing
//! a simulator default silently invalidates old entries), the normalized
//! workload/pattern spec, the scale-model sizes, the targets and the
//! memory miniature. The canonical string itself is persisted next to
//! the body, which makes the on-disk file self-validating: keys are
//! re-derived on load, never trusted.
//!
//! Persistence is an append-only `predictions.jsonl` under the cache
//! directory — one `{"schema", "canonical", "body"}` object per line,
//! rewritten compacted only when eviction would otherwise let the file
//! grow without bound. Unparseable lines are skipped, not fatal: a
//! truncated tail (crash mid-append) must not brick the server.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use gsim_json::{obj, Json};

/// Schema tag of one persisted cache line.
const LINE_SCHEMA: &str = "gsim-serve-cache-v1";
/// File name inside the cache directory.
const FILE_NAME: &str = "predictions.jsonl";

/// FNV-1a 64-bit over `bytes` — the content-address hash. Stable across
/// platforms and releases by construction.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A bounded map that evicts its least-recently-used entry: every entry
/// carries the tick of a logical clock from its last `get` or `insert`,
/// and an insert into a full map scans for the smallest. The scan is
/// O(capacity); capacities here are a few hundred entries and an insert
/// follows work that costs far more.
struct Lru<K, V> {
    map: HashMap<K, (u64, V)>,
    capacity: usize,
    clock: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map of at most `capacity` entries (clamped to at least 1).
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// The value under `key`, marking it most-recently used.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let (last_used, value) = self.map.get_mut(key)?;
        *last_used = self.clock;
        Some(value)
    }

    /// Inserts (or replaces) `value` under `key` as most-recently used,
    /// evicting the least-recently-used entry if the key is new and the
    /// map is full. Returns whether the key was new.
    fn insert(&mut self, key: K, value: V) -> bool {
        self.clock += 1;
        if self.is_full() && !self.map.contains_key(&key) {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, (self.clock, value)).is_none()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_full(&self) -> bool {
        self.map.len() >= self.capacity
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|(_, value)| value)
    }
}

struct Entry {
    canonical: String,
    body: Arc<String>,
}

struct Results {
    lru: Lru<u64, Entry>,
    /// Lines appended to disk since the last compaction.
    appended: usize,
}

/// The shared result cache.
pub struct ResultCache {
    inner: Mutex<Results>,
    /// Persistence root; `None` disables the disk tier.
    dir: Option<PathBuf>,
}

impl ResultCache {
    /// An in-memory cache of at most `capacity` entries; when `dir` is
    /// given, existing entries are loaded from it and new entries are
    /// appended to it.
    ///
    /// # Errors
    ///
    /// Returns an error if the cache directory cannot be created or its
    /// existing file cannot be read (individual bad lines are skipped).
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> io::Result<Self> {
        let mut lru = Lru::new(capacity);
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(FILE_NAME);
            if path.exists() {
                load_file(&path, &mut lru)?;
            }
        }
        Ok(Self {
            inner: Mutex::new(Results { lru, appended: 0 }),
            dir,
        })
    }

    /// The body cached under `key`, marking it most-recently used.
    pub fn get(&self, key: u64) -> Option<Arc<String>> {
        self.lock().lru.get(&key).map(|e| Arc::clone(&e.body))
    }

    /// Inserts `body` under `key` (which the caller derived as
    /// `fnv1a(canonical)`), evicting the least-recently-used entry when
    /// full, and appends to the persistence file when one is configured.
    pub fn put(&self, key: u64, canonical: &str, body: Arc<String>) {
        debug_assert_eq!(key, fnv1a(canonical.as_bytes()), "key must address content");
        let mut results = self.lock();
        let fresh = results.lru.insert(
            key,
            Entry {
                canonical: canonical.to_string(),
                body: Arc::clone(&body),
            },
        );
        if let (true, Some(dir)) = (fresh, &self.dir) {
            if let Err(e) = self.persist(dir, &mut results, canonical, &body) {
                eprintln!("gsim-serve: cache persistence failed: {e}");
            }
        }
    }

    /// Number of entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Results> {
        self.inner.lock().expect("cache lock poisoned")
    }

    fn persist(
        &self,
        dir: &Path,
        results: &mut Results,
        canonical: &str,
        body: &str,
    ) -> io::Result<()> {
        let path = dir.join(FILE_NAME);
        // Compact instead of appending once the file holds twice the
        // capacity in stale + live lines.
        if results.appended + results.lru.len() > 2 * results.lru.capacity {
            let mut f = File::create(&path)?;
            for e in results.lru.values() {
                writeln!(f, "{}", line_json(&e.canonical, &e.body).render())?;
            }
            results.appended = 0;
            return Ok(());
        }
        let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
        writeln!(f, "{}", line_json(canonical, body).render())?;
        results.appended += 1;
        Ok(())
    }
}

fn line_json(canonical: &str, body: &str) -> Json {
    obj([
        ("schema", Json::from(LINE_SCHEMA)),
        ("canonical", Json::from(canonical)),
        ("body", Json::from(body)),
    ])
}

fn load_file(path: &Path, lru: &mut Lru<u64, Entry>) -> io::Result<()> {
    let reader = BufReader::new(File::open(path)?);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = gsim_json::parse(&line) else {
            continue; // torn tail from a crash mid-append
        };
        if doc.get("schema").and_then(Json::as_str) != Some(LINE_SCHEMA) {
            continue;
        }
        let (Some(canonical), Some(body)) = (
            doc.get("canonical").and_then(Json::as_str),
            doc.get("body").and_then(Json::as_str),
        ) else {
            continue;
        };
        // Self-validating: the key is re-derived, never stored.
        let key = fnv1a(canonical.as_bytes());
        // A file longer than the capacity keeps its first lines: loading
        // never evicts.
        if !lru.is_full() || lru.get(&key).is_some() {
            lru.insert(
                key,
                Entry {
                    canonical: canonical.to_string(),
                    body: Arc::new(body.to_string()),
                },
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gsim-serve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2, None).unwrap();
        let key = |s: &str| fnv1a(s.as_bytes());
        cache.put(key("a"), "a", Arc::new("A".into()));
        cache.put(key("b"), "b", Arc::new("B".into()));
        assert_eq!(cache.get(key("a")).unwrap().as_str(), "A"); // refresh a
        cache.put(key("c"), "c", Arc::new("C".into())); // evicts b
        assert!(cache.get(key("b")).is_none());
        assert_eq!(cache.get(key("a")).unwrap().as_str(), "A");
        assert_eq!(cache.get(key("c")).unwrap().as_str(), "C");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn persists_and_reloads_across_instances() {
        let dir = tmpdir("reload");
        let key = fnv1a(b"req-1");
        {
            let cache = ResultCache::new(8, Some(dir.clone())).unwrap();
            cache.put(key, "req-1", Arc::new("{\"x\": 1}".into()));
        }
        let cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        assert_eq!(cache.get(key).unwrap().as_str(), "{\"x\": 1}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_skipped_on_load() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let good = line_json("req-ok", "BODY").render();
        std::fs::write(
            dir.join(FILE_NAME),
            format!("{good}\nnot json at all\n{{\"schema\": \"other\"}}\n{{\"trunc"),
        )
        .unwrap();
        let cache = ResultCache::new(8, Some(dir.clone())).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(fnv1a(b"req-ok")).unwrap().as_str(), "BODY");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_bounds_the_file() {
        let dir = tmpdir("compact");
        let cache = ResultCache::new(2, Some(dir.clone())).unwrap();
        for i in 0..20 {
            let canonical = format!("req-{i}");
            cache.put(
                fnv1a(canonical.as_bytes()),
                &canonical,
                Arc::new(format!("B{i}")),
            );
        }
        let lines = std::fs::read_to_string(dir.join(FILE_NAME))
            .unwrap()
            .lines()
            .count();
        assert!(lines <= 2 * 2 + 1, "file not compacted: {lines} lines");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
