//! The workspace's one JSON emitter: an append-only, ordered writer.
//!
//! Every machine-readable document of the stack is rendered through
//! [`JsonWriter`], and the byte-identity gates compare exactly those
//! bytes, so the rules live here and nowhere else (DESIGN.md, "JSON
//! output: one writer"). Key order is call order; no whitespace; commas,
//! quotes and escapes are the writer's; a parent hands the writer to its
//! children instead of splicing their strings. Integers render by
//! `Display`, floats shortest round-trip or fixed to `N` decimals, a
//! non-finite float as the quoted string `Display` gives it, a digest as
//! sixteen quoted hex digits. No pretty mode, no parser, no options.

use std::fmt::{Arguments, Display, Write};

/// An append-only JSON document under construction.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
}

/// The integer types [`JsonWriter::int`] accepts.
pub trait Integer: Display {}
impl Integer for u32 {}
impl Integer for u64 {}
impl Integer for usize {}

impl JsonWriter {
    /// Renders the one value `build` writes as a finished document.
    pub fn render(build: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::default();
        build(&mut w);
        w.out
    }

    /// A comma unless this is a container's first member or the value of
    /// the key just written — both visible in the last byte, since every
    /// finished value ends in `"`, `}`, `]`, a digit or a letter.
    fn separate(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    fn token(&mut self, token: Arguments<'_>) {
        self.separate();
        self.out.write_fmt(token).expect("writing to a String cannot fail");
    }

    fn number(&mut self, v: f64, token: Arguments<'_>) {
        if v.is_finite() {
            self.token(token);
        } else {
            self.string(&v.to_string());
        }
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.string(key);
        self.out.push(':');
        self
    }

    /// Writes `{…}` around the members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut JsonWriter)) {
        self.token(format_args!("{{"));
        members(self);
        self.out.push('}');
    }

    /// Writes `[…]` around the elements `elements` writes.
    pub fn array(&mut self, elements: impl FnOnce(&mut JsonWriter)) {
        self.token(format_args!("["));
        elements(self);
        self.out.push(']');
    }

    /// Writes a quoted, escaped string.
    pub fn string(&mut self, s: &str) {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => write!(self.out, "\\u{:04x}", c as u32)
                    .expect("writing to a String cannot fail"),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Writes an integer by `Display`.
    pub fn int(&mut self, v: impl Integer) {
        self.token(format_args!("{v}"));
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) {
        self.token(format_args!("{v}"));
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.token(format_args!("null"));
    }

    /// Writes a float in Rust's shortest round-trip `Display` form.
    pub fn float(&mut self, v: f64) {
        self.number(v, format_args!("{v}"));
    }

    /// Writes a float fixed to `decimals` places (`{:.N}`).
    pub fn fixed(&mut self, v: f64, decimals: usize) {
        self.number(v, format_args!("{v:.decimals$}"));
    }

    /// Writes a 64-bit digest as sixteen quoted hex digits.
    pub fn hex(&mut self, v: u64) {
        self.token(format_args!("\"{v:016x}\""));
    }

    /// Writes nanoseconds as microseconds with three decimals, by integer
    /// math (no float formatting variance).
    pub fn micros(&mut self, ns: u64) {
        self.token(format_args!("{}.{:03}", ns / 1_000, ns % 1_000));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(build: impl FnOnce(&mut JsonWriter)) -> String {
        JsonWriter::render(build)
    }

    #[test]
    fn strings_escape_the_full_table() {
        assert_eq!(render(|w| w.string("a\"b\\c\nd\te\rf\u{1}g")), r#""a\"b\\c\nd\te\rf\u0001g""#);
        assert_eq!(render(|w| w.string("")), "\"\"");
        assert_eq!(render(|w| w.string("naïve ✓")), "\"naïve ✓\"");
        assert_eq!(render(|w| w.object(|w| w.key("k\"").int(1u32))), r#"{"k\"":1}"#, "keys too");
    }

    #[test]
    fn commas_fall_between_siblings_only() {
        assert_eq!(render(|w| w.object(|_| {})), "{}");
        assert_eq!(render(|w| w.array(|_| {})), "[]");
        let nested = render(|w| {
            w.object(|w| {
                w.key("a").int(1u64);
                w.key("empty").object(|_| {});
                w.key("list").array(|w| {
                    w.array(|_| {});
                    w.object(|w| w.key("x").null());
                    w.object(|_| {});
                    w.string("{");
                    w.bool(true);
                });
                w.key("b").object(|w| {
                    w.key("c").string("[");
                    w.key("d").bool(false);
                });
                w.key("e").int(2usize);
            })
        });
        assert_eq!(
            nested,
            r#"{"a":1,"empty":{},"list":[[],{"x":null},{},"{",true],"b":{"c":"[","d":false},"e":2}"#
        );
    }

    #[test]
    fn integers_render_by_display() {
        let doc = render(|w| {
            w.array(|w| {
                w.int(u64::MAX);
                w.int(0usize);
                w.int(7u32);
            })
        });
        assert_eq!(doc, "[18446744073709551615,0,7]");
    }

    #[test]
    fn fixed_floats_match_format_precision() {
        for v in [0.0, 1.0, 0.05, 0.25, 2.0 / 3.0, 1234.5678, 105901234.56, 1e-9, -7.0625] {
            assert_eq!(render(|w| w.fixed(v, 1)), format!("{v:.1}"));
            assert_eq!(render(|w| w.fixed(v, 3)), format!("{v:.3}"));
            assert_eq!(render(|w| w.fixed(v, 4)), format!("{v:.4}"));
            assert_eq!(render(|w| w.fixed(v, 6)), format!("{v:.6}"));
        }
    }

    #[test]
    fn shortest_floats_match_display() {
        for v in [0.0, 250000.0, 0.1 + 0.2, 1751234.8678000001, 1e21, 5e-324, -0.5] {
            assert_eq!(render(|w| w.float(v)), format!("{v}"));
        }
        assert_eq!(render(|w| w.float(250000.0)), "250000", "whole floats carry no `.0`");
    }

    #[test]
    fn non_finite_floats_render_as_quoted_strings() {
        let doc = render(|w| {
            w.array(|w| {
                w.float(f64::NAN);
                w.float(f64::INFINITY);
                w.fixed(f64::NEG_INFINITY, 1);
                w.fixed(f64::NAN, 6);
                w.float(1.5);
            })
        });
        assert_eq!(doc, r#"["NaN","inf","-inf","NaN",1.5]"#);
    }

    #[test]
    fn digests_render_as_quoted_hex_and_times_as_integer_micros() {
        assert_eq!(render(|w| w.hex(0x2a)), "\"000000000000002a\"");
        assert_eq!(render(|w| w.hex(u64::MAX)), "\"ffffffffffffffff\"");
        let times = render(|w| {
            w.array(|w| {
                for ns in [0, 999, 1_000, 1_234_567] {
                    w.micros(ns);
                }
            })
        });
        assert_eq!(times, "[0.000,0.999,1.000,1234.567]");
    }
}
