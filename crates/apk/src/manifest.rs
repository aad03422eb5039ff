//! Android manifest model: components, intent filters, permissions.
//!
//! The manifest determines the ICFG entry points: every exported component
//! gets a synthesized *environment method* (the paper's `EC` in equation
//! (1)) that drives its lifecycle callbacks.

use gdroid_ir::Symbol;

/// The four Android component kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// `<activity>` — UI screen with the full lifecycle.
    Activity,
    /// `<service>` — background work.
    Service,
    /// `<receiver>` — broadcast receiver.
    BroadcastReceiver,
    /// `<provider>` — content provider.
    ContentProvider,
}

impl ComponentKind {
    /// The lifecycle callback names the environment method drives, in the
    /// order the Android framework invokes them along the main happy path.
    pub fn lifecycle_callbacks(self) -> &'static [&'static str] {
        match self {
            ComponentKind::Activity => {
                &["onCreate", "onStart", "onResume", "onPause", "onStop", "onDestroy"]
            }
            ComponentKind::Service => &["onCreate", "onStartCommand", "onBind", "onDestroy"],
            ComponentKind::BroadcastReceiver => &["onReceive"],
            ComponentKind::ContentProvider => &["onCreate", "query", "insert", "update"],
        }
    }

    /// The framework base class of this component kind.
    pub fn base_class(self) -> &'static str {
        match self {
            ComponentKind::Activity => "android/app/Activity",
            ComponentKind::Service => "android/app/Service",
            ComponentKind::BroadcastReceiver => "android/content/BroadcastReceiver",
            ComponentKind::ContentProvider => "android/content/ContentProvider",
        }
    }

    /// All four kinds.
    pub const ALL: [ComponentKind; 4] = [
        ComponentKind::Activity,
        ComponentKind::Service,
        ComponentKind::BroadcastReceiver,
        ComponentKind::ContentProvider,
    ];
}

/// An intent filter action (simplified: the action string).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntentFilter {
    /// The action, e.g. `android.intent.action.MAIN`.
    pub action: String,
}

/// A declared component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// The implementing class (interned in the app's program).
    pub class: Symbol,
    /// Kind.
    pub kind: ComponentKind,
    /// Whether the component is exported (reachable from outside the app).
    pub exported: bool,
    /// Declared intent filters.
    pub intent_filters: Vec<IntentFilter>,
}

/// Android permissions the vetting layer cares about (a representative
/// subset of dangerous permissions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Permission {
    Internet,
    ReadContacts,
    AccessFineLocation,
    ReadSms,
    SendSms,
    Camera,
    RecordAudio,
    ReadPhoneState,
    WriteExternalStorage,
    ReadCallLog,
}

impl Permission {
    /// All modeled permissions.
    pub const ALL: [Permission; 10] = [
        Permission::Internet,
        Permission::ReadContacts,
        Permission::AccessFineLocation,
        Permission::ReadSms,
        Permission::SendSms,
        Permission::Camera,
        Permission::RecordAudio,
        Permission::ReadPhoneState,
        Permission::WriteExternalStorage,
        Permission::ReadCallLog,
    ];

    /// The manifest string of the permission.
    pub fn manifest_name(self) -> &'static str {
        match self {
            Permission::Internet => "android.permission.INTERNET",
            Permission::ReadContacts => "android.permission.READ_CONTACTS",
            Permission::AccessFineLocation => "android.permission.ACCESS_FINE_LOCATION",
            Permission::ReadSms => "android.permission.READ_SMS",
            Permission::SendSms => "android.permission.SEND_SMS",
            Permission::Camera => "android.permission.CAMERA",
            Permission::RecordAudio => "android.permission.RECORD_AUDIO",
            Permission::ReadPhoneState => "android.permission.READ_PHONE_STATE",
            Permission::WriteExternalStorage => "android.permission.WRITE_EXTERNAL_STORAGE",
            Permission::ReadCallLog => "android.permission.READ_CALL_LOG",
        }
    }
}

/// A parsed (well, generated) AndroidManifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Application package name.
    pub package: String,
    /// Declared components.
    pub components: Vec<Component>,
    /// Requested permissions.
    pub permissions: Vec<Permission>,
}

impl Manifest {
    /// The launcher activity (first exported activity with a MAIN filter),
    /// if any.
    pub fn launcher(&self) -> Option<&Component> {
        self.components.iter().find(|c| {
            c.kind == ComponentKind::Activity
                && c.exported
                && c.intent_filters.iter().any(|f| f.action.ends_with("MAIN"))
        })
    }

    /// Whether a permission is requested.
    pub fn has_permission(&self, p: Permission) -> bool {
        self.permissions.contains(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_callback_tables() {
        assert_eq!(ComponentKind::Activity.lifecycle_callbacks().len(), 6);
        assert_eq!(ComponentKind::BroadcastReceiver.lifecycle_callbacks(), &["onReceive"]);
        for k in ComponentKind::ALL {
            assert!(!k.lifecycle_callbacks().is_empty());
            assert!(k.base_class().starts_with("android/"));
        }
    }

    #[test]
    fn launcher_detection() {
        let mut m = Manifest { package: "com.example".into(), ..Default::default() };
        assert!(m.launcher().is_none());
        m.components.push(Component {
            class: Symbol(1),
            kind: ComponentKind::Activity,
            exported: true,
            intent_filters: vec![IntentFilter { action: "android.intent.action.MAIN".into() }],
        });
        assert_eq!(m.launcher().unwrap().class, Symbol(1));
    }

    #[test]
    fn permission_lookup() {
        let m = Manifest {
            package: "p".into(),
            components: vec![],
            permissions: vec![Permission::Internet, Permission::ReadSms],
        };
        assert!(m.has_permission(Permission::Internet));
        assert!(!m.has_permission(Permission::Camera));
        assert_eq!(Permission::ALL.len(), 10);
    }
}
