//! Graphviz (DOT) export of the call graph — the `gdroid dot` verb.

use crate::callgraph::CallGraph;
use gdroid_ir::{MethodId, Program};
use std::fmt::Write;

/// Escapes a DOT label.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the internal call graph (reachable from `roots`) as DOT.
pub fn callgraph_to_dot(program: &Program, cg: &CallGraph, roots: &[MethodId]) -> String {
    let reach = cg.reachable_from(roots);
    let mut out = String::new();
    writeln!(out, "digraph callgraph {{").unwrap();
    writeln!(out, "  rankdir=LR; node [shape=ellipse, fontname=monospace];").unwrap();
    for &m in &reach {
        let name = program.interner.resolve(program.methods[m].sig.name);
        let shape = if roots.contains(&m) { ", style=filled, fillcolor=lightblue" } else { "" };
        writeln!(out, "  m{} [label=\"{}\"{shape}];", m.index(), esc(name)).unwrap();
    }
    for &m in &reach {
        for &c in cg.callees_of(m) {
            writeln!(out, "  m{} -> m{};", m.index(), c.index()).unwrap();
        }
    }
    writeln!(out, "}}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::prepare_app;
    use gdroid_apk::{generate_app, GenConfig};

    fn setup() -> (gdroid_apk::App, CallGraph, Vec<crate::env::EnvironmentInfo>) {
        let mut app = generate_app(0, 321, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        (app, cg, envs)
    }

    #[test]
    fn callgraph_dot_contains_roots_and_edges() {
        let (app, cg, envs) = setup();
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let dot = callgraph_to_dot(&app.program, &cg, &roots);
        assert!(dot.contains("lightblue"), "roots must be highlighted");
        assert!(dot.contains("->"), "no call edges rendered");
    }
}
