//! gdroid-sumstore — cross-app shared-library summary store.
//!
//! Real app corpora share enormous amounts of library code: the same
//! support/ads/analytics packages are bundled into thousands of APKs.
//! Re-summarizing them per app wastes most of a vetting campaign's GPU
//! time. This crate makes SBDA method summaries *content-addressed* so
//! a summary computed once — in any app — is reused everywhere the same
//! code appears:
//!
//! - [`hash`] — the canonical method hash: a 128-bit digest over the
//!   resolved signature, the structural body (local *names* excluded;
//!   the IR references locals positionally so alpha-renaming never
//!   changes the digest), and the canonical hashes of resolved callees,
//!   folded bottom-up over call-graph SCC layers. Equal hashes imply
//!   behaviorally identical method subtrees across apps and builds.
//! - [`reloc`] — relocatable summaries: program-relative field ids are
//!   replaced by *(class name, field name)* pairs so app A's summary
//!   instantiates inside app B.
//! - [`store`] — the [`SumStore`]: a thread-safe map from canonical
//!   hash to stored summary + raw fact words, with hit/miss/insertion
//!   counters.
//! - [`persist`] — optional on-disk persistence (versioned binary
//!   format, integrity-checked).
//!
//! Store-hit methods are treated as pre-summarized leaves by the ICFG
//! layering and never enter the GPU worklist; see
//! `gdroid_vetting::execute` (an `ExecCtx` with a store) for the wiring.

#![warn(missing_docs)]

pub mod hash;
pub mod persist;
pub mod reloc;
pub mod store;

pub use hash::{canonical_hashes, fnv1a, fnv1a_extend, Fnv128};
pub use reloc::{RelocField, RelocSummary, RelocToken};
pub use store::{StoredMethod, SumStore, SumStoreStats};
