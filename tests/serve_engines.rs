//! The service verbs take every engine: a service runs its one engine for
//! every job and owns its result cache, so no cached cost profile mixes
//! with another engine's. Verdict reports are engine-invariant, so every
//! engine's `gdroid serve --digest` prints the worklist engine's lines.

use std::process::Command;

fn serve_digest(engine: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gdroid"))
        .args(["serve", "--apps", "4", "--engine", engine, "--digest"])
        .output()
        .expect("run gdroid serve");
    assert!(out.status.success(), "serve --engine {engine} exited {}", out.status);
    String::from_utf8(out.stdout).expect("digest lines are UTF-8")
}

#[test]
fn every_engine_serves_the_worklist_digest() {
    let worklist = serve_digest("worklist");
    assert_eq!(worklist.lines().count(), 4, "{worklist}");
    for engine in ["mat", "plain", "matgrp", "cpu", "mtcpu", "amandroid"] {
        assert_eq!(serve_digest(engine), worklist, "serve --engine {engine}");
    }
}
