//! Content-hash result cache with incremental invalidation.
//!
//! Keyed by an FNV-1a hash of the *pre-prep* bundle content (printed
//! program + manifest text — exactly what [`gdroid_apk::save_bundle`]
//! writes to disk), so any byte-identical resubmission is a pure hit — and
//! an on-disk bundle is keyed by its bytes as read
//! ([`bundle_content_hash`]), before anything is parsed.
//!
//! An *updated* app (same package, different content hash) invalidates
//! the stale entry but does not discard it: the cached
//! [`gdroid_analysis::AppAnalysis`] plus post-prep per-method hashes let
//! the service hand the previous run to [`gdroid_vetting::execute`] as
//! [`gdroid_vetting::ExecCtx::prev`] with exactly the changed method set,
//! so only dirty summaries are re-solved.
//!
//! Soundness of the changed-set diff: method hashes are over the IR
//! `Debug` text, which contains interned `Symbol` indices. Two hashes are
//! only comparable when both programs resolve every symbol identically,
//! so each entry also stores an interner fingerprint; on mismatch (or a
//! different method count) the diff is refused and the caller falls back
//! to a full analysis.

use gdroid_analysis::AppAnalysis;
use gdroid_apk::bundle::manifest_to_text;
use gdroid_apk::{App, BundleText};
use gdroid_ir::text::print_program;
use gdroid_ir::{Interner, MethodId, Program, Symbol};
pub use gdroid_sumstore::{fnv1a, fnv1a_extend};
use gdroid_vetting::{VettingOutcome, VettingRun};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Content hash of an app bundle, computed *before* environment
/// synthesis mutates the program. Byte-identical bundles — whether
/// generated in process or loaded from disk — hash identically.
pub fn app_content_hash(app: &App) -> u64 {
    let mut h = fnv1a(print_program(&app.program).as_bytes());
    h = fnv1a_extend(h, manifest_to_text(app).as_bytes());
    h
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

/// FNV-1a state that `Debug`/`Display` output streams into, so hashing a
/// value's text never materializes the text.
struct FnvSink(u64);

impl std::fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a_extend(self.0, s.as_bytes());
        Ok(())
    }
}

/// Per-method content hashes of a *prepared* program (environment
/// methods included), aligned with the `MethodId`s the stored analysis
/// uses: FNV-1a of each method's `Debug` text. Comparable across programs
/// only under an equal [`interner_fingerprint`].
pub fn method_hashes(program: &Program) -> HashMap<MethodId, u64> {
    program
        .methods
        .iter_enumerated()
        .map(|(mid, m)| {
            let mut sink = FnvSink(fnv1a(&[]));
            write!(sink, "{m:?}").expect("FnvSink never fails");
            (mid, sink.0)
        })
        .collect()
}

/// Fingerprint of the interner contents (every symbol's string, in
/// order). Equal fingerprints mean equal symbol→string maps, which makes
/// `Debug`-text method hashes comparable across program versions.
pub fn interner_fingerprint(interner: &Interner) -> u64 {
    let mut h = fnv1a(&[]);
    for i in 0..interner.len() {
        h = fnv1a_extend(h, interner.resolve(Symbol::new(i)).as_bytes());
        h = fnv1a_extend(h, b"\0");
    }
    h
}

/// The previous run handed out for an incremental warm start.
pub struct PrevAnalysis {
    /// The full per-method analysis of the previous version.
    pub analysis: AppAnalysis,
    /// Per-method hashes of the previous prepared program.
    pub method_hashes: HashMap<MethodId, u64>,
    /// Interner fingerprint backing those hashes.
    pub interner_fingerprint: u64,
}

/// Diffs a new prepared program against a previous entry. Returns the
/// sorted changed-method set, or `None` when the programs are not
/// comparable (different method count or interner contents) and a full
/// analysis is required.
pub fn changed_methods(
    prev: &PrevAnalysis,
    new_hashes: &HashMap<MethodId, u64>,
    new_fingerprint: u64,
) -> Option<Vec<MethodId>> {
    if prev.interner_fingerprint != new_fingerprint || prev.method_hashes.len() != new_hashes.len()
    {
        return None;
    }
    let mut changed: Vec<MethodId> = new_hashes
        .iter()
        .filter(|(mid, h)| prev.method_hashes.get(mid) != Some(h))
        .map(|(&mid, _)| mid)
        .collect();
    changed.sort_unstable();
    Some(changed)
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
    package: String,
    outcome: VettingOutcome,
    analysis: AppAnalysis,
    method_hashes: HashMap<MethodId, u64>,
    interner_fingerprint: u64,
}

struct CacheInner {
    by_hash: HashMap<u64, StoredEntry>,
    by_package: HashMap<String, u64>,
    stats: CacheStats,
}

/// Thread-safe content-hash → outcome cache with a package index for
/// incremental invalidation.
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
    /// entry under a *different* content hash, removes it and hands the
    /// previous analysis out for an incremental warm start.
    pub fn take_previous(&self, package: &str, new_hash: u64) -> Option<PrevAnalysis> {
        let mut inner =
            self.inner.lock().expect("result-cache mutex poisoned: a service thread panicked");
        let old_hash = *inner.by_package.get(package)?;
        if old_hash == new_hash {
            return None;
        }
        inner.by_package.remove(package);
        let entry = inner.by_hash.remove(&old_hash)?;
        inner.stats.invalidations += 1;
        Some(PrevAnalysis {
            analysis: entry.analysis,
            method_hashes: entry.method_hashes,
            interner_fingerprint: entry.interner_fingerprint,
        })
    }

    /// Stores a finished run. Replaces any entry the same package still
    /// holds (counted as an invalidation when the hash changed).
    pub fn insert(
        &self,
        hash: u64,
        package: &str,
        run: VettingRun,
        method_hashes: HashMap<MethodId, u64>,
        interner_fingerprint: u64,
    ) {
        let mut inner =
            self.inner.lock().expect("result-cache mutex poisoned: a service thread panicked");
        if let Some(old_hash) = inner.by_package.insert(package.to_owned(), hash) {
            if old_hash != hash && inner.by_hash.remove(&old_hash).is_some() {
                inner.stats.invalidations += 1;
            }
        }
        inner.by_hash.insert(
            hash,
            StoredEntry {
                package: package.to_owned(),
                outcome: run.outcome,
                analysis: run.analysis,
                method_hashes,
                interner_fingerprint,
            },
        );
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

    /// Packages currently cached (diagnostics).
    pub fn packages(&self) -> Vec<String> {
        let inner =
            self.inner.lock().expect("result-cache mutex poisoned: a service thread panicked");
        let mut p: Vec<String> = inner.by_hash.values().map(|e| e.package.clone()).collect();
        p.sort();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_vetting::{prepare_vetting, vet_prepared, Engine, ExecPlan};

    fn run_for(seed: u64) -> (u64, String, VettingRun, HashMap<MethodId, u64>, u64) {
        let app = generate_app(0, seed, &GenConfig::tiny());
        let hash = app_content_hash(&app);
        let package = app.manifest.package.clone();
        let prep = prepare_vetting(app);
        let mh = method_hashes(&prep.app.program);
        let fp = interner_fingerprint(&prep.app.program.interner);
        let run = vet_prepared(&prep, ExecPlan::new(Engine::AmandroidCpu));
        (hash, package, run, mh, fp)
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
    fn streamed_method_hashes_equal_hashing_the_debug_text() {
        for seed in [7003, 7004, 7005] {
            let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
            let by_text: HashMap<MethodId, u64> = prep
                .app
                .program
                .methods
                .iter_enumerated()
                .map(|(mid, m)| (mid, fnv1a(format!("{m:?}").as_bytes())))
                .collect();
            assert_eq!(method_hashes(&prep.app.program), by_text, "seed {seed}");
        }
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
        let (hash, package, run, mh, fp) = run_for(7010);
        let expected = run.outcome.to_json();
        cache.insert(hash, &package, run, mh, fp);
        let hit = cache.lookup(hash).expect("hit");
        assert_eq!(hit.to_json(), expected);
        assert!(cache.lookup(hash ^ 1).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn update_invalidates_and_hands_out_previous() {
        let cache = ResultCache::new();
        let (hash, package, run, mh, fp) = run_for(7020);
        cache.insert(hash, &package, run, mh.clone(), fp);
        // Same hash → no invalidation (it's a pure hit, not an update).
        assert!(cache.take_previous(&package, hash).is_none());
        // Different hash → previous entry handed out and removed.
        let prev = cache.take_previous(&package, hash ^ 7).expect("previous");
        assert_eq!(prev.method_hashes, mh);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn changed_methods_diffs_or_refuses() {
        let (_, _, run, mh, fp) = run_for(7030);
        let prev = PrevAnalysis {
            analysis: run.analysis,
            method_hashes: mh.clone(),
            interner_fingerprint: fp,
        };
        assert_eq!(changed_methods(&prev, &mh, fp), Some(vec![]));
        let mut touched = mh.clone();
        let victim = *touched.keys().min().unwrap();
        touched.insert(victim, 12345);
        assert_eq!(changed_methods(&prev, &touched, fp), Some(vec![victim]));
        assert_eq!(changed_methods(&prev, &mh, fp ^ 1), None, "interner mismatch must refuse");
        let mut extra = mh.clone();
        extra.insert(MethodId::new(mh.len()), 1);
        assert_eq!(changed_methods(&prev, &extra, fp), None, "count mismatch must refuse");
    }
}
