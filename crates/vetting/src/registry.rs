//! Source/sink registry: resolves the modeled Android API's taint roles
//! against a concrete app's interned symbols.

use gdroid_apk::{builtin_api_roles, ApiRole};
use gdroid_ir::{Program, Signature, Symbol};
use std::collections::HashMap;

/// A taint source identifier (index into the registry's source list).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u16);

/// The registry, resolved for one app.
#[derive(Clone, Debug, Default)]
pub struct SourceSinkRegistry {
    /// `(class, name) → source id` for source APIs.
    sources: HashMap<(Symbol, Symbol), SourceId>,
    /// Source display names, indexed by [`SourceId`].
    pub source_names: Vec<String>,
    /// `(class, name)` pairs of sink APIs.
    sinks: HashMap<(Symbol, Symbol), String>,
}

impl SourceSinkRegistry {
    /// Builds the registry for an app, resolving API names through its
    /// interner. APIs the app never mentions are simply absent.
    pub fn for_program(program: &Program) -> SourceSinkRegistry {
        let mut reg = SourceSinkRegistry::default();
        for (cls, name, role) in builtin_api_roles() {
            let (Some(c), Some(n)) = (program.interner.get(cls), program.interner.get(name)) else {
                continue;
            };
            match role {
                ApiRole::Source => {
                    let id = SourceId(reg.source_names.len() as u16);
                    reg.source_names.push(format!("{cls}.{name}"));
                    reg.sources.insert((c, n), id);
                }
                ApiRole::Sink => {
                    reg.sinks.insert((c, n), format!("{cls}.{name}"));
                }
                ApiRole::Neutral => {}
            }
        }
        reg
    }

    /// Source id of a call signature, if it is a source.
    pub fn source_of(&self, sig: &Signature) -> Option<SourceId> {
        self.sources.get(&(sig.class, sig.name)).copied()
    }

    /// Sink name of a call signature, if it is a sink.
    pub fn sink_of(&self, sig: &Signature) -> Option<&str> {
        self.sinks.get(&(sig.class, sig.name)).map(String::as_str)
    }

    /// Number of resolved sources.
    pub fn source_count(&self) -> usize {
        self.source_names.len()
    }

    /// Number of resolved sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_ir::JType;

    #[test]
    fn registry_resolves_known_apis() {
        let app = generate_app(0, 808, &GenConfig::tiny());
        let reg = SourceSinkRegistry::for_program(&app.program);
        // The framework installs all API classes, so everything resolves.
        assert!(reg.source_count() >= 5);
        assert!(reg.sink_count() >= 5);
    }

    #[test]
    fn source_and_sink_lookup() {
        let app = generate_app(0, 809, &GenConfig::tiny());
        let reg = SourceSinkRegistry::for_program(&app.program);
        let p = &app.program;
        let tm = p.interner.get("android/telephony/TelephonyManager").unwrap();
        let gdi = p.interner.get("getDeviceId").unwrap();
        let sig = Signature::new(tm, gdi, vec![], JType::Void);
        assert!(reg.source_of(&sig).is_some());
        assert!(reg.sink_of(&sig).is_none());

        let log = p.interner.get("android/util/Log").unwrap();
        let d = p.interner.get("d").unwrap();
        let sig = Signature::new(log, d, vec![], JType::Void);
        assert!(reg.sink_of(&sig).is_some());
        assert!(reg.source_of(&sig).is_none());
    }

    #[test]
    fn unknown_method_is_neither() {
        let app = generate_app(0, 810, &GenConfig::tiny());
        let reg = SourceSinkRegistry::for_program(&app.program);
        let p = &app.program;
        let cls = p.classes.iter().next().unwrap().name;
        let sig = Signature::new(cls, cls, vec![], JType::Void);
        assert!(reg.source_of(&sig).is_none());
        assert!(reg.sink_of(&sig).is_none());
    }
}
