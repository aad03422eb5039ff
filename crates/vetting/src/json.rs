//! JSON output of the vetting layer: the workspace's one ordered writer
//! ([`gdroid_trace::json`]), which owns key order, commas, escaping and
//! the number rules, so identical runs render byte-identical documents —
//! the property the serving layer's cache-parity checks rely on.
//! Re-exported here for crates that reach the trace crate only through
//! this one (`gdroid-campaign`).

pub use gdroid_trace::json::JsonWriter;
