//! A reader that closes `gdroid`'s stdout early (`gdroid gen 42 | head -1`)
//! ends the process quietly with exit 0, not with a panic and exit 101.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_gdroid_quietly() {
    // The printed app (≈ 330 KB) is far larger than a pipe's buffer, so
    // gdroid is still writing when the pipe closes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_gdroid"))
        .args(["gen", "42"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gdroid gen");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    // The reader is dropped here: the pipe's read end is closed.
    assert!(first.starts_with(".class "), "first line {first:?}");
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("stderr");
    let status = child.wait().expect("gdroid exits");
    assert!(status.success(), "gdroid gen exited {status} with stderr {stderr:?}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
