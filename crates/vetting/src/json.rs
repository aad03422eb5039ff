//! Minimal hand-rolled JSON emission helpers.
//!
//! The workspace's `serde` is a vendored marker stub with no real
//! serialization, so machine-readable output is rendered by hand. These
//! helpers keep the rendering deterministic (stable key order, no
//! whitespace) so two identical runs produce byte-identical JSON — the
//! property the serving layer's cache-parity checks rely on.

/// Escapes a string for embedding in a JSON string literal (the trace
/// crate's definition: one escape for reports and traces).
pub use gdroid_trace::json_escape as escape;

/// Renders a quoted JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders a JSON array from already-rendered element values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("hi"), "\"hi\"");
    }

    #[test]
    fn arrays_join_without_spaces() {
        assert_eq!(array(&["1".into(), "2".into()]), "[1,2]");
        assert_eq!(array(&[]), "[]");
    }
}
