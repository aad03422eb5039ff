//! The content-addressed summary store.
//!
//! Entries are keyed by the canonical method hash from [`crate::hash`]:
//! two methods with the same key have behaviorally identical bodies and
//! callee subtrees, so one method's SBDA result is valid for the other.
//! An entry carries the relocatable summary plus the raw per-node fact
//! words and the space geometry they were computed under; the geometry
//! acts as a belt-and-braces integrity check at instantiation time.
//!
//! A store is built before the runs that read it and is only read while
//! they run: [`SumStore::insert`] takes `&mut self`, so a store shared
//! behind an `Arc` is frozen, and what a run hits is a function of the
//! store and the app alone — never of which other run finished first.

use std::collections::HashMap;
use std::path::Path;

use crate::reloc::RelocSummary;

/// Store traffic as a service report publishes it. A run's traffic is
/// its own (`gdroid_vetting::StoreUse`); a frozen store counts nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SumStoreStats {
    /// Methods pre-solved from the store.
    pub hits: u64,
    /// Reachable methods solved by the run.
    pub misses: u64,
    /// Entries newly inserted (duplicates are not counted).
    pub insertions: u64,
    /// Hits discarded because the summary failed to re-bind in the
    /// target program (or the geometry did not match).
    pub reloc_failures: u64,
}

impl SumStoreStats {
    /// Exact merge of two reports' counters (field-wise sum) — used when
    /// per-shard service reports fold into one fleet report.
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

/// Cross-app summary store: a map from canonical hash to stored method.
#[derive(Debug, Default)]
pub struct SumStore {
    entries: HashMap<u128, StoredMethod>,
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
        Ok(SumStore { entries })
    }

    /// Persists the entries under `dir` (created if absent).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let bytes = crate::persist::encode(&self.entries);
        std::fs::write(dir.join(crate::persist::STORE_FILE), bytes)
    }

    /// The entry stored under a canonical key.
    pub fn lookup(&self, key: u128) -> Option<&StoredMethod> {
        self.entries.get(&key)
    }

    /// Inserts an entry unless the key is already present. Returns
    /// whether the entry was newly inserted.
    pub fn insert(&mut self, key: u128, entry: StoredMethod) -> bool {
        if self.entries.contains_key(&key) {
            return false;
        }
        self.entries.insert(key, entry);
        true
    }

    /// Adds every entry of `other` whose key is not present yet — the
    /// union of two stores.
    pub fn absorb(&mut self, other: SumStore) {
        for (key, entry) in other.entries {
            self.insert(key, entry);
        }
    }

    /// The store's size as report counters: every entry was inserted
    /// once, and a frozen store counts no traffic.
    pub fn stats(&self) -> SumStoreStats {
        SumStoreStats { insertions: self.len() as u64, ..SumStoreStats::default() }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    fn insert_keeps_the_first_entry_and_absorb_unions() {
        let mut store = SumStore::new();
        assert!(store.lookup(1).is_none());
        assert!(store.insert(1, entry(1)));
        assert!(!store.insert(1, entry(2)), "duplicate key is ignored");
        assert_eq!(store.lookup(1), Some(&entry(1)));
        let mut other = SumStore::new();
        other.insert(1, entry(3));
        other.insert(2, entry(2));
        store.absorb(other);
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(1), Some(&entry(1)), "absorb keeps the present entry");
        assert_eq!(store.lookup(2), Some(&entry(2)));
        assert_eq!(store.stats(), SumStoreStats { insertions: 2, ..SumStoreStats::default() });
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("gdroid-sumstore-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = SumStore::new();
        store.insert(42, entry(1));
        store.insert(u128::MAX, entry(9));
        store.save(&dir).unwrap();
        let reopened = SumStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.lookup(42), Some(&entry(1)));
        assert_eq!(reopened.lookup(u128::MAX), Some(&entry(9)));
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
        let mut store = SumStore::new();
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
