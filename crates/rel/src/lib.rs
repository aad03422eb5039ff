//! `gdroid-rel` is retired: the relational (semi-naive Datalog) GPU engine
//! computed facts byte-identical to the worklist engine's and lost on
//! every lane measured (EXPERIMENTS.md, "Retired: relational engine";
//! `dddd58f` is the last commit containing the code).
//!
//! The crate stays as an item-free shell because `benchmark/Cargo.lock`
//! names it and the `gdroid`/`gdroid-vetting` dependency edges to it, and
//! `benchmark/` changes only in a `benchmark` PR; it leaves with
//! serde/rayon (ROADMAP 3a).
