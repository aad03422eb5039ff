//! Printer pin: the `.jil` printer's bytes, including the arms the
//! generator never reaches.
//!
//! `tests/fixtures/every_form.jil` is hand-written in printed form. It uses
//! every statement and expression form, every type, whole, fractional and
//! negative float literals, the `\\`, `\"` and `\n` string escapes and
//! `i64::MIN` — the generator emits no float literal and no
//! primitive-element array, so `corpus_pin` cannot see those arms. Parsed
//! and printed again it gives back its own bytes, which were captured from
//! the printer as it stood before it wrote pieces instead of `write!`
//! calls.
//!
//! The service's content hash folds the printer's pieces straight into
//! FNV-1a without building the text, so the fold is checked against
//! `fnv1a` of the printed text, for the fixture and for generated apps.

use gdroid::apk::bundle::manifest_to_text;
use gdroid::apk::{generate_app, App, Corpus, GenConfig};
use gdroid::ir::text::{parse_program, print_program, print_program_into};
use gdroid::ir::{Expr, Literal, Program, Stmt, StmtIdx};
use gdroid::serve::{app_content_hash, fnv1a, Fnv1a};
use gdroid::sumstore::fnv1a_extend;

const FIXTURE: &str = include_str!("fixtures/every_form.jil");

/// `fnv1a` of the fixture's bytes.
const FIXTURE_FNV: u64 = 0x135b_ab43_b066_68c0;

/// The fixture, parsed. The reader reads `lit true` / `lit false` as the
/// integers 1 / 0, so the two boolean literals are put back by hand.
fn fixture() -> Program {
    let mut p = parse_program(FIXTURE).expect("the fixture parses");
    let long = p.methods.iter_enumerated().find(|(_, m)| m.len() > 50).map(|(mid, _)| mid);
    let method = &mut p.methods[long.expect("the fixture's long method")];
    for (at, value) in [(23, true), (24, false)] {
        match &mut method.body[StmtIdx(at)] {
            Stmt::Assign { rhs: Expr::Lit(lit), .. } => *lit = Literal::Bool(value),
            other => panic!("L{at} is not a literal: {other:?}"),
        }
    }
    p
}

/// FNV-1a of what `print_program_into` writes.
fn folded(p: &Program) -> u64 {
    let mut fold = Fnv1a(fnv1a(&[]));
    print_program_into(p, &mut fold).expect("an FNV-1a fold cannot fail");
    fold.0
}

#[test]
fn every_form_prints_its_pinned_bytes() {
    assert_eq!(fnv1a(FIXTURE.as_bytes()), FIXTURE_FNV, "the fixture file changed");
    let printed = print_program(&fixture());
    assert_eq!(printed, FIXTURE, "the printer moved a byte");
}

#[test]
fn the_streamed_fold_equals_the_hash_of_the_printed_text() {
    let p = fixture();
    assert_eq!(folded(&p), fnv1a(print_program(&p).as_bytes()), "every_form.jil");

    let paper = Corpus {
        config: GenConfig { scale: 0.25, ..GenConfig::default() },
        ..Corpus::paper_sized(3)
    };
    let libraries = GenConfig::tiny().with_libraries(2, 3);
    let apps: Vec<App> = (0..3)
        .map(|i| paper.generate(i))
        .chain((0..3).map(|i| generate_app(i, 9300 + i as u64, &GenConfig::tiny())))
        .chain((0..3).map(|i| generate_app(i, 9400 + i as u64, &libraries)))
        .collect();
    for app in &apps {
        let text = print_program(&app.program);
        let package = &app.manifest.package;
        assert_eq!(folded(&app.program), fnv1a(text.as_bytes()), "{package}");
        // The content hash is FNV-1a over the bundle's two texts.
        let bundle = fnv1a_extend(fnv1a(text.as_bytes()), manifest_to_text(app).as_bytes());
        assert_eq!(app_content_hash(app), bundle, "{package}");
    }
}
