//! Tier-1 pin of `gdroid lint`: the lines it prints above its summary are
//! the IR lint's findings over the program plus its precomputed dead
//! sinks, in (declaring class, method, statement) order.
//!
//! Two pins. An FNV-1a over those lines for five generated apps, which
//! only ever fire def-before-use and dead-store; and the exact lines for
//! one hand-written `.jil` program that fires every check and carries one
//! dead sink, so the text of the other checks and the order of two
//! findings on one statement are pinned too.

use gdroid::apk::{generate_app, GenConfig};
use gdroid::ir::text::parse_program;
use gdroid::ir::{lint_program, validate_program, Program};
use gdroid::sumstore::fnv1a_extend;
use gdroid::vetting::sink_reachability_findings;

/// What `gdroid lint` prints above its summary line.
fn lint_lines(program: &Program) -> Vec<String> {
    let dead_sinks = sink_reachability_findings(program);
    lint_program(program, &dead_sinks).iter().map(ToString::to_string).collect()
}

/// FNV-1a over the lines, each followed by `\n` — the bytes on stdout.
fn lines_hash(lines: &[String]) -> u64 {
    lines
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, l| fnv1a_extend(fnv1a_extend(h, l.as_bytes()), b"\n"))
}

#[test]
fn generated_apps_lint_to_the_pinned_lines() {
    let pins: [(u64, usize, u64); 5] = [
        (0, 2909, 0xf693_5793_a589_96c8),
        (1, 1034, 0x7035_8ca1_1ec5_2428),
        (2, 6730, 0x646c_f975_07df_23f2),
        (3, 1949, 0x5f9a_c454_fa5f_d4b8),
        (4, 1423, 0xa776_2a2c_290b_4085),
    ];
    for (seed, count, hash) in pins {
        let app = generate_app(0, seed, &GenConfig::small());
        let lines = lint_lines(&app.program);
        assert_eq!((seed, lines.len(), lines_hash(&lines)), (seed, count, hash));
    }
}

/// One static method: a dead store (L0), a reference field loaded into an
/// int through an unassigned base (L1), an array access with the wrong
/// base and index types (L2), a primitive field-store base (L3), a sink
/// no source reaches whose argument is unassigned (L4), and an
/// unreachable `length` of an int (L6).
const EVERY_CHECK: &str = "\
.class java/lang/Object
.endclass
.class android/util/Log : java/lang/Object
.endclass
.class com/lint/A : java/lang/Object
.field n int instance
.field o obj java/lang/Object instance
.method run ( int ) void static public
.var c int
.var i int
.var r obj java/lang/Object
.var s obj java/lang/Object
.var u obj java/lang/Object
  # L0
  v1 = lit 1
  # L1
  v1 = v2 . { com/lint/A o }
  # L2
  v3 = v1 [ v2 ]
  # L3
  v0 . { com/lint/A n } = v1
  # L4
  call static android/util/Log d ( obj java/lang/Object obj java/lang/Object ) void args ( v3 v4 ) ret _
  # L5
  return _
  # L6
  v1 = length v0
  # L7
  return _
.end
.endclass
";

#[test]
fn every_check_renders_the_pinned_lines() {
    let program = parse_program(EVERY_CHECK).expect("the pin program parses");
    assert!(validate_program(&program).is_empty(), "the lint runs on validated IR only");
    let expected = [
        "warning: M0:L0: [dead-store] value assigned to v1 is never read",
        "warning: M0:L1: [def-before-use] v2 may be read before any assignment",
        "warning: M0:L1: [type-confusion] field of type Ljava/lang/Object; loaded into v1 of type I",
        "warning: M0:L2: [def-before-use] v2 may be read before any assignment",
        "warning: M0:L2: [type-confusion] array access base v1 has non-array type I",
        "warning: M0:L2: [type-confusion] array index v2 has non-primitive type Ljava/lang/Object;",
        "warning: M0:L3: [type-confusion] field store base v0 has primitive type I",
        "warning: M0:L4: [def-before-use] v4 may be read before any assignment",
        "warning: M0:L4: [sink-reachability] sink android/util/Log.d is not reachable by any taint source",
        "warning: M0:L6: [unreachable] statement is unreachable from the method entry",
        "warning: M0:L6: [type-confusion] length read base v0 has primitive type I",
        "warning: M0:L7: [unreachable] statement is unreachable from the method entry",
    ];
    assert_eq!(lint_lines(&program), expected);
}
