//! A miniature model of the Android framework API surface.
//!
//! Generated apps link against these classes the way real APKs link against
//! `android.jar`: the classes exist in the hierarchy (components extend
//! them, casts mention them) but have no analyzable bodies — the analysis
//! applies default summaries at their call sites. The registry also labels
//! which API methods are taint *sources* and *sinks*; `gdroid-vetting`
//! builds its leak detection on exactly this labeling.

use gdroid_ir::{ClassId, JType, ProgramBuilder, Signature, Symbol};

/// Security-relevant labeling of a framework method.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ApiRole {
    /// Returns sensitive data (device id, location, contacts, SMS…).
    Source,
    /// Exfiltrates or persists its arguments (network, SMS send, log…).
    Sink,
    /// Neither.
    Neutral,
}

/// One framework API method the generator may call.
#[derive(Clone, Debug)]
pub struct ApiMethod {
    /// Full signature.
    pub sig: Signature,
    /// Whether it is an instance method (needs a receiver argument).
    pub is_instance: bool,
    /// Taint role.
    pub role: ApiRole,
}

/// The framework registry: classes added to a program plus the callable
/// API surface.
#[derive(Clone, Debug)]
pub struct Framework {
    /// `java/lang/Object`.
    pub object: ClassId,
    /// `java/lang/String`.
    pub string: ClassId,
    /// Base classes for the four component kinds, in
    /// [`crate::manifest::ComponentKind::ALL`] order.
    pub component_bases: [ClassId; 4],
    /// `android/content/Intent`.
    pub intent: ClassId,
    /// `android/content/Context`.
    pub context: ClassId,
    /// Callable API methods, grouped by role in [`ApiRole`] declaration
    /// order (table order within a role).
    pub api: Vec<ApiMethod>,
    /// `api[role_starts[r]..role_starts[r + 1]]` are the methods of the
    /// role with discriminant `r`.
    role_starts: [usize; 4],
    /// Interned `java/lang/Object` symbol, for convenience.
    pub object_sym: Symbol,
    /// Interned `java/lang/String` symbol.
    pub string_sym: Symbol,
}

/// Table of `(class, method, param-count, returns-ref, instance, role)`
/// describing the modeled API surface. Parameter and return types are
/// filled in as `Object`/`String` refs; the analysis only needs reference-
/// ness and the taint role.
const API_TABLE: &[(&str, &str, usize, bool, bool, ApiRole)] = &[
    // Sources — identifiers, location, user data.
    ("android/telephony/TelephonyManager", "getDeviceId", 0, true, true, ApiRole::Source),
    ("android/telephony/TelephonyManager", "getSubscriberId", 0, true, true, ApiRole::Source),
    ("android/telephony/TelephonyManager", "getSimSerialNumber", 0, true, true, ApiRole::Source),
    ("android/location/LocationManager", "getLastKnownLocation", 1, true, true, ApiRole::Source),
    ("android/content/ContentResolver", "query", 2, true, true, ApiRole::Source),
    ("android/accounts/AccountManager", "getAccounts", 0, true, true, ApiRole::Source),
    ("android/telephony/SmsMessage", "getMessageBody", 0, true, true, ApiRole::Source),
    ("android/media/AudioRecord", "read", 1, true, true, ApiRole::Source),
    // Sinks — exfiltration and persistence channels.
    ("android/telephony/SmsManager", "sendTextMessage", 3, false, true, ApiRole::Sink),
    ("java/net/HttpURLConnection", "getOutputStream", 0, true, true, ApiRole::Sink),
    ("java/io/OutputStream", "write", 1, false, true, ApiRole::Sink),
    ("android/util/Log", "d", 2, false, false, ApiRole::Sink),
    ("android/util/Log", "e", 2, false, false, ApiRole::Sink),
    ("java/io/FileWriter", "append", 1, true, true, ApiRole::Sink),
    ("org/apache/http/client/HttpClient", "execute", 1, true, true, ApiRole::Sink),
    // Neutral plumbing — the bulk of real API calls.
    ("java/lang/StringBuilder", "append", 1, true, true, ApiRole::Neutral),
    ("java/lang/StringBuilder", "toString", 0, true, true, ApiRole::Neutral),
    ("java/lang/String", "concat", 1, true, true, ApiRole::Neutral),
    ("java/lang/String", "substring", 1, true, true, ApiRole::Neutral),
    ("java/lang/Object", "hashCode", 0, false, true, ApiRole::Neutral),
    ("java/util/ArrayList", "add", 1, false, true, ApiRole::Neutral),
    ("java/util/ArrayList", "get", 1, true, true, ApiRole::Neutral),
    ("java/util/HashMap", "put", 2, true, true, ApiRole::Neutral),
    ("java/util/HashMap", "get", 1, true, true, ApiRole::Neutral),
    ("android/content/Intent", "getStringExtra", 1, true, true, ApiRole::Neutral),
    ("android/content/Intent", "putExtra", 2, true, true, ApiRole::Neutral),
    ("android/content/Context", "getSystemService", 1, true, true, ApiRole::Neutral),
    ("android/view/View", "findViewById", 1, true, true, ApiRole::Neutral),
    ("android/widget/TextView", "setText", 1, false, true, ApiRole::Neutral),
    ("android/os/Bundle", "getString", 1, true, true, ApiRole::Neutral),
];

/// The `(class, method, role)` triples of the modeled API surface — the
/// ground truth the vetting layer matches call sites against.
pub fn builtin_api_roles() -> impl Iterator<Item = (&'static str, &'static str, ApiRole)> {
    API_TABLE.iter().map(|&(cls, name, _, _, _, role)| (cls, name, role))
}

impl Framework {
    /// Installs the framework classes into a program under construction and
    /// returns the registry.
    pub fn install(pb: &mut ProgramBuilder) -> Framework {
        let object = pb.class("java/lang/Object").build();
        let string = pb.class("java/lang/String").extends(object).build();
        let context = pb.class("android/content/Context").extends(object).build();

        let mut bases = Vec::with_capacity(4);
        for kind in crate::manifest::ComponentKind::ALL {
            // Components transitively extend Context, like the real SDK.
            let c = pb.class(kind.base_class()).extends(context).build();
            bases.push(c);
        }
        let intent = pb.class("android/content/Intent").extends(object).build();

        // Every distinct class mentioned in the API table exists in the
        // hierarchy so casts/instanceof resolve.
        let mut api = Vec::with_capacity(API_TABLE.len());
        for &(cls, name, nparams, returns_ref, is_instance, role) in API_TABLE {
            let cls_sym = pb.intern(cls);
            if pb.find_class(cls_sym).is_none() {
                pb.class(cls).extends(object).build();
            }
            let name_sym = pb.intern(name);
            let obj_sym = pb.intern("java/lang/Object");
            let params = vec![JType::Object(obj_sym); nparams];
            let ret = if returns_ref { JType::Object(obj_sym) } else { JType::Void };
            api.push(ApiMethod {
                sig: Signature::new(cls_sym, name_sym, params, ret),
                is_instance,
                role,
            });
        }

        // The generator picks a method of a given role per emitted API
        // call: group once here, hand out slices there.
        api.sort_by_key(|m| m.role as usize);
        let role_starts = [0, 1, 2, 3].map(|r| api.partition_point(|m| (m.role as usize) < r));

        let object_sym = pb.intern("java/lang/Object");
        let string_sym = pb.intern("java/lang/String");
        Framework {
            object,
            string,
            component_bases: [bases[0], bases[1], bases[2], bases[3]],
            intent,
            context,
            api,
            role_starts,
            object_sym,
            string_sym,
        }
    }

    /// API methods with a given role, in table order.
    pub fn api_with_role(&self, role: ApiRole) -> &[ApiMethod] {
        let r = role as usize;
        &self.api[self.role_starts[r]..self.role_starts[r + 1]]
    }

    /// Number of modeled sources.
    pub fn source_count(&self) -> usize {
        self.api_with_role(ApiRole::Source).len()
    }

    /// Number of modeled sinks.
    pub fn sink_count(&self) -> usize {
        self.api_with_role(ApiRole::Sink).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_creates_hierarchy() {
        let mut pb = ProgramBuilder::new();
        let fw = Framework::install(&mut pb);
        let p = pb.finish();
        // Component bases extend Context which extends Object.
        for base in fw.component_bases {
            let sup = p.classes[base].superclass.unwrap();
            assert_eq!(sup, fw.context);
        }
        assert_eq!(p.classes[fw.context].superclass, Some(fw.object));
        assert_eq!(p.classes[fw.string].superclass, Some(fw.object));
    }

    #[test]
    fn api_surface_has_sources_and_sinks() {
        let mut pb = ProgramBuilder::new();
        let fw = Framework::install(&mut pb);
        assert!(fw.source_count() >= 5, "{}", fw.source_count());
        assert!(fw.sink_count() >= 5, "{}", fw.sink_count());
        assert!(fw.api.len() > fw.source_count() + fw.sink_count());
    }

    #[test]
    fn role_slices_partition_the_table_in_table_order() {
        let mut pb = ProgramBuilder::new();
        let fw = Framework::install(&mut pb);
        let p = pb.finish();
        for role in [ApiRole::Source, ApiRole::Sink, ApiRole::Neutral] {
            let got: Vec<(&str, &str)> = fw
                .api_with_role(role)
                .iter()
                .map(|m| (p.interner.resolve(m.sig.class), p.interner.resolve(m.sig.name)))
                .collect();
            let want: Vec<(&str, &str)> = builtin_api_roles()
                .filter(|&(_, _, r)| r == role)
                .map(|(cls, name, _)| (cls, name))
                .collect();
            assert_eq!(got, want, "{role:?}");
        }
    }

    #[test]
    fn api_classes_exist_in_program() {
        let mut pb = ProgramBuilder::new();
        let fw = Framework::install(&mut pb);
        let api_classes: Vec<Symbol> = fw.api.iter().map(|m| m.sig.class).collect();
        let p = pb.finish();
        for cls in api_classes {
            assert!(p.class_by_name(cls).is_some(), "missing {}", p.interner.resolve(cls));
        }
    }

    #[test]
    fn install_is_idempotent_per_builder() {
        // Two installs into different builders give structurally equal
        // registries (determinism).
        let mut pb1 = ProgramBuilder::new();
        let fw1 = Framework::install(&mut pb1);
        let mut pb2 = ProgramBuilder::new();
        let fw2 = Framework::install(&mut pb2);
        assert_eq!(fw1.api.len(), fw2.api.len());
        assert_eq!(fw1.object, fw2.object);
    }
}
