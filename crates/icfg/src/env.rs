//! Environment-method synthesis.
//!
//! Amandroid (and the GDroid paper, equation (1)) analyze each component
//! `C` starting from a synthesized *environment method* `EC` that models
//! everything the Android framework does to the component: instantiate it,
//! deliver an `Intent`, and drive the lifecycle callbacks — including the
//! pause/resume cycle, which contributes a loop (and therefore fixed-point
//! revisits) at the very root of the ICFG.
//!
//! The synthesized body deliberately uses the two expression kinds app code
//! cannot produce — [`Expr::CallRhs`] (framework-returned values) and
//! `Tuple` — so all 17 expression kinds of the paper's branch-partition
//! table are live in a full app analysis.

use crate::callgraph::CallGraph;
use gdroid_apk::{App, Component};
use gdroid_ir::{
    CallKind, Expr, JType, Lhs, Literal, MethodId, MethodKind, ProgramBuilder, Signature, Stmt,
    StmtIdx,
};

/// A synthesized environment: the ICFG root for one component.
#[derive(Clone, Debug)]
pub struct EnvironmentInfo {
    /// The component this environment drives.
    pub component: Component,
    /// The synthesized environment method.
    pub method: MethodId,
}

/// Synthesizes one environment method per manifest component, mutating the
/// app's program in place. Returns the environments in manifest order.
///
/// Idempotency: calling this twice would add duplicate methods; the app
/// pipeline calls it exactly once (enforced by the `env$` naming check).
pub fn synthesize_environments(app: &mut App) -> Vec<EnvironmentInfo> {
    let program = std::mem::take(&mut app.program);
    assert!(
        !program.methods.iter().any(|m| m.kind == MethodKind::Environment),
        "environments already synthesized"
    );
    let mut pb = ProgramBuilder::from_program(program);
    let mut envs = Vec::with_capacity(app.manifest.components.len());

    for component in &app.manifest.components {
        let Some(class) = pb.program().class_by_name(component.class) else {
            continue;
        };
        let class_name = component.class;
        let intent_sym = pb.intern("android/content/Intent");

        // Collect the component's own lifecycle callbacks (declared methods
        // with kind LifecycleCallback).
        let callbacks: Vec<Signature> = pb.program().classes[class]
            .methods
            .iter()
            .filter_map(|&mid| {
                let m = &pb.program().methods[mid];
                (m.kind == MethodKind::LifecycleCallback).then(|| m.sig.clone())
            })
            .collect();

        let env_name = format!("env${}", component.kind_tag());
        let mut mb = pb.method(class, &env_name).kind(MethodKind::Environment);
        let comp = mb.local("comp", JType::Object(class_name));
        let intent = mb.local("intent", JType::Object(intent_sym));
        let bundle = mb.local("bundle", JType::Object(intent_sym));
        let cond = mb.local("cond", JType::Int);

        // comp = new C; intent = new Intent; bundle = callrhs intent —
        // modeling the framework handing back saved state.
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(comp),
            rhs: Expr::New { ty: JType::Object(class_name) },
        });
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(intent),
            rhs: Expr::New { ty: JType::Object(intent_sym) },
        });
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(bundle), rhs: Expr::CallRhs { ret: intent } });
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(bundle),
            rhs: Expr::Tuple { elems: vec![comp, intent] },
        });
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(cond), rhs: Expr::Lit(Literal::Int(0)) });

        // The creation-phase callbacks run once, in order; the "active"
        // pair (the middle callbacks, e.g. onResume/onPause) run inside a
        // loop to model repeated foreground/background transitions.
        let n = callbacks.len();
        let (once_head, looped, once_tail): (&[Signature], &[Signature], &[Signature]) = if n >= 4 {
            (&callbacks[..2], &callbacks[2..n - 1], &callbacks[n - 1..])
        } else {
            (&callbacks[..], &[], &[])
        };

        let emit_call = |mb: &mut gdroid_ir::MethodBuilder<'_>, sig: &Signature| {
            let mut args = vec![comp];
            args.extend(std::iter::repeat_n(intent, sig.params.len()));
            mb.stmt(Stmt::Call { ret: None, kind: CallKind::Virtual, sig: sig.clone(), args });
        };

        for sig in once_head {
            emit_call(&mut mb, sig);
        }
        if !looped.is_empty() {
            let head = mb.next_idx();
            let exit_if = mb.stmt(Stmt::If { cond, target: StmtIdx(0) });
            for sig in looped {
                emit_call(&mut mb, sig);
            }
            mb.stmt(Stmt::Goto { target: head });
            let end = mb.next_idx();
            mb.patch_target(exit_if, end).expect("exit_if is an If");
        }
        for sig in once_tail {
            emit_call(&mut mb, sig);
        }
        mb.stmt(Stmt::Return { var: None });
        let method = mb.build();
        envs.push(EnvironmentInfo { component: component.clone(), method });
    }

    app.program = pb.finish();
    app.program.rebuild_lookups();
    envs
}

/// Extension: a short tag for environment naming.
trait KindTag {
    fn kind_tag(&self) -> String;
}

impl KindTag for Component {
    fn kind_tag(&self) -> String {
        format!("{:?}_{}", self.kind, self.class.index())
    }
}

/// Convenience: synthesizes environments and returns the roots plus the
/// call graph of the finished program.
pub fn prepare_app(app: &mut App) -> (Vec<EnvironmentInfo>, CallGraph) {
    let envs = synthesize_environments(app);
    let cg = CallGraph::build(&app.program);
    (envs, cg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_ir::ExprKind;

    fn prepared_app(seed: u64) -> (App, Vec<EnvironmentInfo>) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let envs = synthesize_environments(&mut app);
        (app, envs)
    }

    #[test]
    fn one_environment_per_component() {
        let (app, envs) = prepared_app(42);
        assert_eq!(envs.len(), app.manifest.components.len());
        for env in &envs {
            let m = &app.program.methods[env.method];
            assert_eq!(m.kind, MethodKind::Environment);
            assert!(m.this_var.is_none(), "environments are static");
        }
    }

    #[test]
    fn environment_calls_lifecycle_callbacks() {
        let (app, envs) = prepared_app(43);
        let env = &envs[0];
        let m = &app.program.methods[env.method];
        let calls: Vec<_> = m
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Call { sig, .. } => Some(app.program.interner.resolve(sig.name).to_owned()),
                _ => None,
            })
            .collect();
        assert!(calls.iter().any(|n| n.starts_with("on")), "no lifecycle calls: {calls:?}");
    }

    #[test]
    fn environment_has_lifecycle_loop_for_activities() {
        let (app, envs) = prepared_app(44);
        // The launcher (first component) is always an Activity with 6
        // callbacks, so its environment must contain a back edge.
        let m = &app.program.methods[envs[0].method];
        let cfg = crate::cfg::Cfg::build(m);
        assert!(cfg.back_edge_count() >= 1, "no lifecycle loop");
    }

    #[test]
    fn environment_uses_callrhs_and_tuple() {
        let (app, envs) = prepared_app(45);
        let m = &app.program.methods[envs[0].method];
        let kinds: Vec<ExprKind> = m
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Assign { rhs, .. } => Some(rhs.kind()),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&ExprKind::CallRhs));
        assert!(kinds.contains(&ExprKind::Tuple));
        assert!(kinds.contains(&ExprKind::New));
    }

    #[test]
    fn environment_is_valid_ir() {
        let (app, _) = prepared_app(46);
        let errors = gdroid_ir::validate_program(&app.program);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn double_synthesis_panics() {
        let (mut app, _) = prepared_app(47);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            synthesize_environments(&mut app)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn prepare_app_returns_connected_roots() {
        let mut app = generate_app(1, 48, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        // Every environment reaches at least one app method (its own
        // lifecycle callbacks).
        for env in &envs {
            let reach = cg.reachable_from(&[env.method]);
            assert!(reach.len() >= 2, "environment {:?} reaches nothing", env.method);
        }
    }
}
