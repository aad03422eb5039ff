//! Content-hash result cache with warm-start invalidation.
//!
//! Keyed by an FNV-1a hash of the *pre-prep* bundle content (printed
//! program + manifest text — exactly what [`gdroid_apk::save_bundle`]
//! writes to disk), so any byte-identical resubmission is a pure hit — and
//! an on-disk bundle is keyed by its bytes as read
//! ([`bundle_content_hash`]), before anything is parsed.
//!
//! Each entry keeps its outcome plus a small per-package
//! [`SumStore`] of that version's reachable methods (summary and fact
//! words, [`gdroid_vetting::summary_store`]). An *updated* app (same
//! package, different content hash) invalidates the stale entry but does
//! not discard its store: the service attaches it to the new version's
//! run as [`gdroid_vetting::ExecCtx::store`], so every method whose body
//! and callee subtree are unchanged is pre-solved and only the misses
//! reach the device. The canonical hash is alpha-renamed and keyed on
//! names, not on interned symbol indices, so a version that interns in
//! another order still warm-starts.

use gdroid_apk::bundle::write_manifest;
use gdroid_apk::{App, BundleText};
use gdroid_ir::text::print_program_into;
use gdroid_sumstore::SumStore;
pub use gdroid_sumstore::{fnv1a, fnv1a_extend};
use gdroid_vetting::{summary_store, PreparedApp, VettingOutcome, VettingRun};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Content hash of an app bundle, computed *before* environment
/// synthesis mutates the program. Byte-identical bundles — whether
/// generated in process or loaded from disk — hash identically.
///
/// The printer's pieces and the manifest's lines are folded as they are
/// written: the hash equals [`fnv1a`] over the bundle's text, which is
/// never built.
pub fn app_content_hash(app: &App) -> u64 {
    let mut fold = Fnv1a(fnv1a(&[]));
    print_program_into(&app.program, &mut fold).expect("an FNV-1a fold cannot fail");
    write_manifest(app, &mut fold).expect("an FNV-1a fold cannot fail");
    fold.0
}

/// A writer that folds every byte written into a 64-bit FNV-1a state.
pub struct Fnv1a(pub u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_extend(self.0, s.as_bytes());
        Ok(())
    }
}

/// Content hash of a bundle as read from disk: the same fold as
/// [`app_content_hash`], over the file bytes. [`gdroid_apk::save_bundle`]
/// writes `print_program` and `manifest_to_text` verbatim and both are
/// fixpoints of parse → print, so for every bundle it wrote this equals
/// `app_content_hash` of the parsed app — an in-process and an on-disk
/// submission of one app share a cache entry — at the cost of one pass over
/// the bytes instead of a parse and a re-print. A bundle formatted any
/// other way hashes differently: a miss, never a wrong hit.
pub fn bundle_content_hash(text: &BundleText) -> u64 {
    fnv1a_extend(fnv1a(text.jil.as_bytes()), text.manifest.as_bytes())
}

/// Counters describing cache behavior over the service lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact content-hash hits (outcome returned verbatim).
    pub hits: u64,
    /// Lookups that found no exact entry.
    pub misses: u64,
    /// Stale same-package entries invalidated by an update.
    pub invalidations: u64,
    /// Entries stored.
    pub insertions: u64,
}

struct StoredEntry {
    outcome: VettingOutcome,
    /// The version's reachable methods, for the next version's warm start.
    store: SumStore,
}

struct CacheInner {
    by_hash: HashMap<u64, StoredEntry>,
    by_package: HashMap<String, u64>,
    stats: CacheStats,
}

/// Thread-safe content-hash → outcome cache with a package index for
/// warm-start invalidation.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache").finish_non_exhaustive()
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// Creates an empty cache.
    pub fn new() -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheInner {
                by_hash: HashMap::new(),
                by_package: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Exact-hash lookup; clones the cached outcome on a hit.
    pub fn lookup(&self, hash: u64) -> Option<VettingOutcome> {
        let mut inner =
            self.inner.lock().expect("result-cache mutex poisoned: a service thread panicked");
        match inner.by_hash.get(&hash) {
            Some(entry) => {
                let outcome = entry.outcome.clone();
                inner.stats.hits += 1;
                Some(outcome)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Invalidation hook for an updated app: if `package` has a cached
    /// entry under a *different* content hash, removes it and hands its
    /// summary store out for a warm start.
    pub fn take_previous(&self, package: &str, new_hash: u64) -> Option<SumStore> {
        let mut inner =
            self.inner.lock().expect("result-cache mutex poisoned: a service thread panicked");
        let old_hash = *inner.by_package.get(package)?;
        if old_hash == new_hash {
            return None;
        }
        inner.by_package.remove(package);
        let entry = inner.by_hash.remove(&old_hash)?;
        inner.stats.invalidations += 1;
        Some(entry.store)
    }

    /// Stores a finished full run of `prep` with its summary store (built
    /// before the lock is taken). Replaces any entry the same package still
    /// holds (counted as an invalidation when the hash changed).
    pub fn insert(&self, hash: u64, package: &str, prep: &PreparedApp, run: VettingRun) {
        let store = summary_store(prep, &run.analysis);
        let mut inner =
            self.inner.lock().expect("result-cache mutex poisoned: a service thread panicked");
        if let Some(old_hash) = inner.by_package.insert(package.to_owned(), hash) {
            if old_hash != hash && inner.by_hash.remove(&old_hash).is_some() {
                inner.stats.invalidations += 1;
            }
        }
        inner.by_hash.insert(hash, StoredEntry { outcome: run.outcome, store });
        inner.stats.insertions += 1;
    }

    /// Snapshot of the lifetime stats.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("result-cache mutex poisoned: a service thread panicked").stats
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("result-cache mutex poisoned: a service thread panicked")
            .by_hash
            .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_vetting::{prepare_vetting, vet_prepared, Engine, ExecPlan};

    fn run_for(seed: u64) -> (u64, String, PreparedApp, VettingRun) {
        let app = generate_app(0, seed, &GenConfig::tiny());
        let hash = app_content_hash(&app);
        let package = app.manifest.package.clone();
        let prep = prepare_vetting(app);
        let run = vet_prepared(&prep, ExecPlan::new(Engine::AmandroidCpu));
        (hash, package, prep, run)
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let a = generate_app(0, 7001, &GenConfig::tiny());
        let a2 = generate_app(0, 7001, &GenConfig::tiny());
        let b = generate_app(0, 7002, &GenConfig::tiny());
        assert_eq!(app_content_hash(&a), app_content_hash(&a2));
        assert_ne!(app_content_hash(&a), app_content_hash(&b));
    }

    #[test]
    fn saved_bundle_bytes_hash_like_the_app_they_hold() {
        let dir = std::env::temp_dir().join(format!("gdroid-cache-bytes-{}", std::process::id()));
        for (i, config) in
            [GenConfig::tiny(), GenConfig::tiny().with_libraries(2, 3)].into_iter().enumerate()
        {
            let app = generate_app(i, 7006 + i as u64, &config);
            gdroid_apk::save_bundle(&app, &dir).unwrap();
            let text = gdroid_apk::read_bundle(&dir).unwrap();
            assert_eq!(bundle_content_hash(&text), app_content_hash(&app));
            // ... and like the app a parse of those bytes yields.
            let parsed = gdroid_apk::parse_bundle(&text).unwrap();
            assert_eq!(app_content_hash(&parsed), app_content_hash(&app));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hit_returns_identical_outcome() {
        let cache = ResultCache::new();
        let (hash, package, prep, run) = run_for(7010);
        let expected = run.outcome.to_json();
        cache.insert(hash, &package, &prep, run);
        let hit = cache.lookup(hash).expect("hit");
        assert_eq!(hit.to_json(), expected);
        assert!(cache.lookup(hash ^ 1).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn update_invalidates_and_hands_out_the_previous_store() {
        let cache = ResultCache::new();
        let (hash, package, prep, run) = run_for(7020);
        let reachable = run.analysis.facts.len();
        cache.insert(hash, &package, &prep, run);
        // Same hash → no invalidation (it's a pure hit, not an update).
        assert!(cache.take_previous(&package, hash).is_none());
        // Different hash → the entry's store handed out, the entry removed.
        let store = cache.take_previous(&package, hash ^ 7).expect("previous");
        assert_eq!(store.len(), reachable, "one stored method per reachable method");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }
}
