//! Additional vetting plugins over the IDFG.
//!
//! The paper's §II-A argues Amandroid's strength is *IDFG reuse*: "it
//! builds the DFG and DDG, then adds low-cost plugins to realize various
//! specific analyses." The taint tracker in [`crate::taint`] is one such
//! plugin; this module adds three more, all reading the same node-wise
//! points-to facts without re-running the worklist:
//!
//! * [`intent_exposure`] — exported components whose Intent-derived data
//!   (lifecycle formals) reaches an exfiltration sink: the classic
//!   confused-deputy / component-hijacking shape;
//! * [`hardcoded_payloads`] — sink calls whose argument can only be a
//!   string literal: hardcoded identifiers/keys leaving the device;
//! * [`permission_audit`] — manifest permissions vs the API surface the
//!   code actually reaches: over- and under-privilege.

use crate::registry::SourceSinkRegistry;
use gdroid_analysis::{AppAnalysis, Instance, Slot};
use gdroid_apk::{builtin_api_roles, ApiRole, App, Permission};
use gdroid_icfg::{CallGraph, EnvironmentInfo};
use gdroid_ir::{Expr, Literal, MethodId, Stmt, StmtIdx};
use std::collections::HashSet;

/// A component whose externally controlled data reaches a sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExposureFinding {
    /// The exported component's class (interned name resolved to text).
    pub component: String,
    /// Method containing the sink call.
    pub method: MethodId,
    /// The sink call site.
    pub stmt: StmtIdx,
    /// Sink API name.
    pub sink: String,
}

/// Intent-exposure plugin: for every *exported* component, check whether a
/// lifecycle formal (the framework-delivered Intent/Bundle) can flow into a
/// sink argument anywhere in the component's reachable methods.
pub fn intent_exposure(
    app: &App,
    cg: &CallGraph,
    envs: &[EnvironmentInfo],
    analysis: &AppAnalysis,
    registry: &SourceSinkRegistry,
) -> Vec<ExposureFinding> {
    let mut findings = Vec::new();
    for env in envs.iter().filter(|e| e.component.exported) {
        let reachable = cg.reachable_from(&[env.method]);
        let reachable: HashSet<MethodId> = reachable.into_iter().collect();
        for &mid in &reachable {
            let Some(space) = analysis.spaces.get(&mid) else { continue };
            let Some(cfg) = analysis.cfgs.get(&mid) else { continue };
            let method = &app.program.methods[mid];
            // Only lifecycle methods receive framework-controlled formals
            // directly; transitively, formal-derived data in callees also
            // counts (the facts carry Formal instances there too).
            for (idx, stmt) in method.body.iter_enumerated() {
                let Stmt::Call { sig, args, .. } = stmt else { continue };
                let Some(sink) = registry.sink_of(sig) else { continue };
                let node = cfg.node_of(idx);
                let facts = analysis.node_facts(mid, node);
                let intent_controlled = args.iter().any(|&a| {
                    space.slot(Slot::Local(a)).is_some_and(|slot| {
                        facts.row(slot).any(|i| {
                            matches!(space.instances[usize::from(i)], Instance::Formal(k) if k > 0)
                        })
                    })
                });
                if intent_controlled {
                    findings.push(ExposureFinding {
                        component: app.program.interner.resolve(env.component.class).to_owned(),
                        method: mid,
                        stmt: idx,
                        sink: sink.to_owned(),
                    });
                }
            }
        }
    }
    findings.sort_by_key(|a| (a.method, a.stmt));
    findings.dedup();
    findings
}

/// A sink receiving only constant data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HardcodedFinding {
    /// Method containing the sink call.
    pub method: MethodId,
    /// The call site.
    pub stmt: StmtIdx,
    /// Sink API name.
    pub sink: String,
}

/// Hardcoded-payload plugin: a sink argument whose points-to set is
/// non-empty and consists *only* of string-literal allocation sites —
/// the code ships fixed data (tokens, ids, keys) to an output channel.
pub fn hardcoded_payloads(
    app: &App,
    analysis: &AppAnalysis,
    registry: &SourceSinkRegistry,
) -> Vec<HardcodedFinding> {
    let mut findings = Vec::new();
    for (&mid, space) in &analysis.spaces {
        let Some(cfg) = analysis.cfgs.get(&mid) else { continue };
        let method = &app.program.methods[mid];
        for (idx, stmt) in method.body.iter_enumerated() {
            let Stmt::Call { sig, args, .. } = stmt else { continue };
            let Some(sink) = registry.sink_of(sig) else { continue };
            let node = cfg.node_of(idx);
            let facts = analysis.node_facts(mid, node);
            let only_literals = args.iter().any(|&a| {
                let Some(slot) = space.slot(Slot::Local(a)) else { return false };
                let mut row = facts.row(slot).peekable();
                row.peek().is_some()
                    && row.all(|i| match space.instances[usize::from(i)] {
                        Instance::Alloc(at) => matches!(
                            method.body[at],
                            Stmt::Assign { rhs: Expr::Lit(Literal::Str(_)), .. }
                        ),
                        _ => false,
                    })
            });
            if only_literals {
                findings.push(HardcodedFinding { method: mid, stmt: idx, sink: sink.to_owned() });
            }
        }
    }
    findings.sort_by_key(|a| (a.method, a.stmt));
    findings
}

/// Permission audit result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PermissionAudit {
    /// Permissions declared but never exercised by reachable API calls.
    pub over_privileged: Vec<Permission>,
    /// Sensitive APIs reached without a matching declared permission.
    pub under_privileged: Vec<String>,
}

/// Maps our modeled source APIs to the permission that gates them.
fn permission_for(class: &str) -> Option<Permission> {
    Some(match class {
        "android/telephony/TelephonyManager" => Permission::ReadPhoneState,
        "android/location/LocationManager" => Permission::AccessFineLocation,
        "android/content/ContentResolver" => Permission::ReadContacts,
        "android/telephony/SmsMessage" => Permission::ReadSms,
        "android/telephony/SmsManager" => Permission::SendSms,
        "android/media/AudioRecord" => Permission::RecordAudio,
        _ => return None,
    })
}

/// Permission-audit plugin: compares the manifest's permission set with
/// the gated APIs actually reachable in the analyzed code.
pub fn permission_audit(app: &App, analysis: &AppAnalysis) -> PermissionAudit {
    // Gated APIs present in the reachable code.
    let mut used: HashSet<Permission> = HashSet::new();
    let mut ungated_calls: Vec<String> = Vec::new();
    let gated: Vec<(&str, &str)> = builtin_api_roles()
        .filter(|(_, _, role)| !matches!(role, ApiRole::Neutral))
        .map(|(c, n, _)| (c, n))
        .collect();
    for &mid in analysis.spaces.keys() {
        for stmt in app.program.methods[mid].body.iter() {
            let Stmt::Call { sig, .. } = stmt else { continue };
            let class = app.program.interner.resolve(sig.class);
            let name = app.program.interner.resolve(sig.name);
            if !gated.iter().any(|&(c, n)| c == class && n == name) {
                continue;
            }
            if let Some(p) = permission_for(class) {
                used.insert(p);
                if !app.manifest.has_permission(p) {
                    ungated_calls.push(format!("{class}.{name}"));
                }
            }
        }
    }
    let mut over: Vec<Permission> = app
        .manifest
        .permissions
        .iter()
        .copied()
        .filter(|p| *p != Permission::Internet && !used.contains(p))
        .collect();
    over.sort_by_key(|p| p.manifest_name());
    ungated_calls.sort();
    ungated_calls.dedup();
    PermissionAudit { over_privileged: over, under_privileged: ungated_calls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_analysis::{analyze_app, StoreKind};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    fn setup(seed: u64) -> (App, CallGraph, Vec<EnvironmentInfo>, AppAnalysis, SourceSinkRegistry) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let analysis = analyze_app(&app.program, &cg, &roots, StoreKind::Matrix);
        let registry = SourceSinkRegistry::for_program(&app.program);
        (app, cg, envs, analysis, registry)
    }

    #[test]
    fn plugins_run_and_are_deterministic() {
        let (app, cg, envs, analysis, registry) = setup(7501);
        let e1 = intent_exposure(&app, &cg, &envs, &analysis, &registry);
        let e2 = intent_exposure(&app, &cg, &envs, &analysis, &registry);
        assert_eq!(e1, e2);
        let h1 = hardcoded_payloads(&app, &analysis, &registry);
        let h2 = hardcoded_payloads(&app, &analysis, &registry);
        assert_eq!(h1, h2);
        let a1 = permission_audit(&app, &analysis);
        let a2 = permission_audit(&app, &analysis);
        assert_eq!(a1, a2);
    }

    #[test]
    fn exposure_findings_reference_exported_components() {
        // Over a few seeds, at least one app should expose Intent data to
        // a sink (lifecycle formals flow freely in the generator).
        let mut found = false;
        for seed in 7510..7530 {
            let (app, cg, envs, analysis, registry) = setup(seed);
            let findings = intent_exposure(&app, &cg, &envs, &analysis, &registry);
            for f in &findings {
                assert!(!f.sink.is_empty());
                assert!(!f.component.is_empty());
                found = true;
            }
            if found {
                break;
            }
        }
        assert!(found, "no intent exposure found in 20 apps");
    }

    #[test]
    fn audit_flags_overprivilege_somewhere() {
        // The generator adds random extra permissions, so some app in a
        // small sweep must be over-privileged.
        let mut over = false;
        let mut under = false;
        for seed in 7540..7570 {
            let (app, _, _, analysis, _) = setup(seed);
            let audit = permission_audit(&app, &analysis);
            over |= !audit.over_privileged.is_empty();
            under |= !audit.under_privileged.is_empty();
            if over && under {
                break;
            }
        }
        assert!(over, "no over-privileged app found");
        // Under-privilege requires a source call without its permission —
        // possible because only ReadPhoneState is auto-added.
        assert!(under, "no under-privileged app found");
    }
}
