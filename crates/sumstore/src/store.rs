//! The content-addressed summary store.
//!
//! Entries are keyed by the canonical method hash from [`crate::hash`]:
//! two methods with the same key have behaviorally identical bodies and
//! callee subtrees, so one method's SBDA result is valid for the other.
//! An entry carries the relocatable summary plus the raw per-node fact
//! words and the space geometry they were computed under; the geometry
//! acts as a belt-and-braces integrity check at instantiation time.
//!
//! The store is internally synchronized (a single [`Mutex`]) so one
//! handle can be shared across service workers behind an `Arc`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use crate::reloc::RelocSummary;

/// Running counters for a store handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SumStoreStats {
    /// Lookups that found a matching entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries newly inserted (duplicates are not counted).
    pub insertions: u64,
    /// Hits discarded because the summary failed to re-bind in the
    /// target program (or the geometry did not match).
    pub reloc_failures: u64,
}

impl SumStoreStats {
    /// Exact merge of two instances' lifetime counters (field-wise sum) —
    /// used when per-shard service reports fold into one fleet report.
    pub fn merge(&self, other: &SumStoreStats) -> SumStoreStats {
        SumStoreStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            reloc_failures: self.reloc_failures + other.reloc_failures,
        }
    }
}

/// One stored analysis result: the symbolic summary plus the raw fact
/// matrix (`nodes × geometry-words` u64 words, row-major) and the
/// geometry it was computed under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredMethod {
    /// Relocatable summary.
    pub summary: RelocSummary,
    /// Slot-pool size of the method space the facts were computed in.
    pub slots: u32,
    /// Instance-pool size of that method space.
    pub insts: u32,
    /// Number of CFG nodes (fact-matrix rows).
    pub nodes: u32,
    /// Flattened fact words, `nodes` rows of `words_per_node` each.
    pub words: Vec<u64>,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u128, StoredMethod>,
    stats: SumStoreStats,
}

/// Cross-app summary store. Cheap to share via `Arc<SumStore>`.
#[derive(Default)]
pub struct SumStore {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for SumStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SumStore")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SumStore {
    /// An empty in-memory store.
    pub fn new() -> SumStore {
        SumStore::default()
    }

    /// Opens a store persisted under `dir` (see [`crate::persist`]).
    /// A missing file yields an empty store; a corrupt one an error.
    pub fn open(dir: &Path) -> std::io::Result<SumStore> {
        let file = dir.join(crate::persist::STORE_FILE);
        let entries = match std::fs::read(&file) {
            Ok(bytes) => crate::persist::decode(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(e),
        };
        Ok(SumStore { inner: Mutex::new(Inner { entries, stats: SumStoreStats::default() }) })
    }

    /// Persists the entries under `dir` (created if absent). Counters
    /// are session-local and not persisted.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let inner = self.lock();
        let bytes = crate::persist::encode(&inner.entries);
        std::fs::write(dir.join(crate::persist::STORE_FILE), bytes)
    }

    /// Looks up a canonical key, counting a hit or miss.
    pub fn lookup(&self, key: u128) -> Option<StoredMethod> {
        let mut inner = self.lock();
        match inner.entries.get(&key) {
            Some(entry) => {
                let entry = entry.clone();
                inner.stats.hits += 1;
                Some(entry)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Records that a hit could not be instantiated in the target
    /// program; callers treat such lookups as misses.
    pub fn note_reloc_failure(&self) {
        self.lock().stats.reloc_failures += 1;
    }

    /// Inserts an entry unless the key is already present. Returns
    /// whether the entry was newly inserted.
    pub fn insert(&self, key: u128, entry: StoredMethod) -> bool {
        let mut inner = self.lock();
        if inner.entries.contains_key(&key) {
            return false;
        }
        inner.entries.insert(key, entry);
        inner.stats.insertions += 1;
        true
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> SumStoreStats {
        self.lock().stats
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock leaves only counters and a
        // plain map behind; recovering the data is always safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reloc::{RelocField, RelocToken};

    fn entry(tag: u8) -> StoredMethod {
        StoredMethod {
            summary: RelocSummary {
                returns: vec![RelocToken::Formal(tag)],
                field_writes: vec![],
                static_writes: vec![(
                    RelocField { class: format!("com/x/C{tag}"), name: "f".into() },
                    RelocToken::Fresh,
                )],
                array_writes: vec![],
            },
            slots: 3,
            insts: 2,
            nodes: 4,
            words: vec![tag as u64, 0, u64::MAX, 7],
        }
    }

    #[test]
    fn lookup_and_insert_count() {
        let store = SumStore::new();
        assert!(store.lookup(1).is_none());
        assert!(store.insert(1, entry(1)));
        assert!(!store.insert(1, entry(2)), "duplicate key is ignored");
        assert_eq!(store.lookup(1).unwrap(), entry(1));
        store.note_reloc_failure();
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.reloc_failures), (1, 1, 1, 1));
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.stats().insertions, 1, "clear keeps counters");
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gdroid-sumstore-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SumStore::new();
        store.insert(42, entry(1));
        store.insert(u128::MAX, entry(9));
        store.save(&dir).unwrap();
        let reopened = SumStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.lookup(42).unwrap(), entry(1));
        assert_eq!(reopened.lookup(u128::MAX).unwrap(), entry(9));
        // Byte-stable: saving the reopened store reproduces the file.
        let first = std::fs::read(dir.join(crate::persist::STORE_FILE)).unwrap();
        reopened.save(&dir).unwrap();
        let second = std::fs::read(dir.join(crate::persist::STORE_FILE)).unwrap();
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("gdroid-sumstore-definitely-missing");
        let store = SumStore::open(&dir).unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let dir = std::env::temp_dir().join(format!("gdroid-sumstore-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SumStore::new();
        store.insert(7, entry(3));
        store.save(&dir).unwrap();
        let file = dir.join(crate::persist::STORE_FILE);
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&file, &bytes).unwrap();
        let err = SumStore::open(&dir).expect_err("corrupt file must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
