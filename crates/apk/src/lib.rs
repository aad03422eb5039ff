#![warn(missing_docs)]

//! # gdroid-apk — synthetic Android app substrate
//!
//! The GDroid paper evaluates on 1000 real Google Play APKs. Real APKs (and
//! the Dalvik toolchain to decode them) are unavailable here, so this crate
//! provides the substitute substrate: a deterministic synthetic app
//! generator whose output corpus matches the structural characteristics the
//! paper reports (Table I) and exercises the same analysis code paths
//! (field aliasing, layered call graphs with occasional recursion, loops
//! that force fixed-point revisits, components with lifecycle callbacks,
//! and taint source→sink flows for the vetting layer).
//!
//! Entry points:
//!
//! * [`Corpus::paper`] — the 1000-app evaluation corpus behind every figure;
//! * [`generate_app`] — one app from a seed;
//! * [`AppStats`] / [`CorpusStats`] — Table I statistics;
//! * [`Framework`] — the modeled Android API surface with taint roles;
//! * [`bundle`] — on-disk app bundles (`app.jil` + `manifest.txt`), the
//!   repository's `.apk` stand-in.

pub mod app;
pub mod bundle;
pub mod config;
pub mod corpus;
pub mod framework;
pub mod generator;
pub mod manifest;
pub mod rng;
pub mod stats;

pub use app::{App, Category};
pub use bundle::{
    export_corpus, load_bundle, parse_bundle, read_bundle, save_bundle, BundleError, BundleText,
};
pub use config::GenConfig;
pub use corpus::{Corpus, PAPER_CORPUS_SIZE, PAPER_MASTER_SEED};
pub use framework::{builtin_api_roles, ApiMethod, ApiRole, Framework};
pub use generator::{generate_app, generate_library_pool};
pub use manifest::{Component, ComponentKind, IntentFilter, Manifest, Permission};
pub use rng::Rng;
pub use stats::{AppStats, CorpusStats};
