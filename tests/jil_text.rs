//! The `.jil` reader against its printer: literals round-trip over the whole
//! `i64` range and any Unicode text, and each malformed input fails with
//! the same message and line as before the reader borrowed its tokens.

use gdroid::apk::bundle::manifest_to_text;
use gdroid::apk::{generate_app, parse_bundle, BundleText, GenConfig};
use gdroid::ir::text::{parse_program, print_program};
use gdroid::ir::{Expr, JType, Lhs, Literal, MethodKind, Program, ProgramBuilder, Stmt};
use gdroid::serve::{app_content_hash, bundle_content_hash};
use proptest::prelude::*;

/// One static method that assigns `lit int` and `lit "text"` to locals.
fn literal_program(int: i64, text: &str) -> Program {
    let mut pb = ProgramBuilder::new();
    let cls = pb.class("com/example/A").build();
    let string = pb.intern("java/lang/String");
    let text = pb.intern(text);
    let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
    let i = mb.local("i", JType::Long);
    let s = mb.local("s", JType::Object(string));
    mb.stmt(Stmt::Assign { lhs: Lhs::Var(i), rhs: Expr::Lit(Literal::Int(int)) });
    mb.stmt(Stmt::Assign { lhs: Lhs::Var(s), rhs: Expr::Lit(Literal::Str(text)) });
    mb.stmt(Stmt::Return { var: None });
    mb.build();
    pb.finish()
}

/// The two literals of a [`literal_program`], read back.
fn literals(p: &Program) -> (i64, &str) {
    let body = &p.methods.iter().next().expect("one method").body;
    let lit = |k: usize| match body.iter().nth(k) {
        Some(Stmt::Assign { rhs: Expr::Lit(lit), .. }) => *lit,
        other => panic!("statement {k} is not a literal: {other:?}"),
    };
    match (lit(0), lit(1)) {
        (Literal::Int(n), Literal::Str(s)) => (n, p.interner.resolve(s)),
        other => panic!("unexpected literals {other:?}"),
    }
}

/// Asserts print ∘ parse ∘ print = print, and that both literals survive.
fn assert_roundtrip(int: i64, text: &str) {
    let printed = print_program(&literal_program(int, text));
    let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    assert_eq!(literals(&reparsed), (int, text));
    assert_eq!(print_program(&reparsed), printed);
}

proptest! {
    /// Any `i64` and any string — quotes, backslashes, a backslash before
    /// `n`, newlines, `#`, any scalar value, empty — round-trip as a literal.
    #[test]
    fn literals_roundtrip_through_jil(
        int in any::<i64>(),
        chars in prop::collection::vec((0u8..6, any::<u32>()), 0..12),
    ) {
        let text: String = chars
            .into_iter()
            .filter_map(|(kind, x)| match kind {
                0 => Some('"'),
                1 => Some('\\'),
                2 => Some('\n'),
                3 => Some('n'),
                4 => char::from_u32(0x20 + x % 0x5f),
                _ => char::from_u32(x % 0x11_0000),
            })
            .collect();
        assert_roundtrip(int, &text);
    }
}

#[test]
fn int_literal_extremes_roundtrip() {
    for int in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
        assert_roundtrip(int, "");
    }
}

#[test]
fn non_ascii_string_literals_roundtrip() {
    for text in ["héllo", "naïve \"ß\" \\ 中文", "😀\n", "\u{10ffff}"] {
        assert_roundtrip(0, text);
    }
}

/// A bundle with a non-ASCII literal hashes like the app it parses to, so
/// an on-disk and an in-process submission of it share a cache entry.
#[test]
fn non_ascii_bundle_hashes_like_its_app() {
    let app = generate_app(0, 7, &GenConfig::tiny());
    let jil = print_program(&app.program);
    let at = jil.find("lit \"").expect("a string literal") + "lit \"".len();
    let len = jil[at..].find('"').expect("closing quote");
    let jil = format!("{}héllo → 中文{}", &jil[..at], &jil[at + len..]);
    let text = BundleText { jil, manifest: manifest_to_text(&app) };
    let parsed = parse_bundle(&text).expect("valid bundle");
    assert_eq!(print_program(&parsed.program), text.jil);
    assert_eq!(bundle_content_hash(&text), app_content_hash(&parsed));
}

/// Each malformed input's `Display`, line included. The rows were captured
/// from the token-cloning reader this one replaced.
#[test]
fn malformed_inputs_fail_with_pinned_messages() {
    const HEAD: &str = ".class A\n.method m ( ) void static public\n.var s obj A\n";
    let body = |stmts: &str| format!("{HEAD}{stmts}.end\n.endclass\n");
    let rows = [
        (body("  v0 = lit \"oops\n"), "parse error at line 7: unterminated string literal"),
        (body("  v0 = lit \"a\\qb\"\n"), "parse error at line 4: invalid string escape: Some('q')"),
        (body("  v0 = { A nope }\n"), "parse error at line 5: unknown field {A nope}"),
        (".class B : Nope\n.endclass\n".into(), "parse error at line 2: unknown superclass Nope"),
        (
            ".class A\n.field f integer static\n.endclass\n".into(),
            "parse error at line 2: unknown type keyword `integer`",
        ),
        (body("  v99999999999 = null\n"), "parse error at line 4: variable index overflow"),
        (format!("{HEAD}  return _\n"), "parse error at line 0: unterminated method"),
        (body("  v0 = null ;\n"), "parse error at line 4: unexpected character ';'"),
        (
            body("  goto 99999999999999999999\n"),
            "parse error at line 4: bad int literal \"99999999999999999999\": \
             number too large to fit in target type",
        ),
        (
            body("  v0 = lit -99999999999999999999\n"),
            "parse error at line 4: bad int literal \"99999999999999999999\": \
             number too large to fit in target type",
        ),
        (
            ".class \"a\\\"b\\\\c\\n\"\n.endclass\n".into(),
            "parse error at line 2: expected identifier, found Some(Str(\"a\\\"b\\\\c\\n\"))",
        ),
    ];
    for (src, want) in rows {
        let got = parse_program(&src).expect_err(&src).to_string();
        assert_eq!(got, want, "input:\n{src}");
    }
}
