//! Whole-program container: interner, classes, fields, methods.

use crate::idx::{ClassId, FieldId, IndexVec, MethodId, Symbol};
use crate::method::{Method, Signature};
use crate::types::JType;
use std::collections::HashMap;

/// A string interner. [`Symbol`]s are indices into its table.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    strings: Vec<String>,
    lookup: HashMap<String, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = Symbol::new(self.strings.len());
        self.strings.push(s.to_owned());
        self.lookup.insert(s.to_owned(), sym);
        sym
    }

    /// Resolves a symbol to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Looks up an already-interned string.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.lookup.get(s).copied()
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Rebuilds the reverse lookup table from the string table.
    pub fn rebuild_lookup(&mut self) {
        self.lookup =
            self.strings.iter().enumerate().map(|(i, s)| (s.clone(), Symbol::new(i))).collect();
    }
}

/// A field declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Declaring class.
    pub class: ClassId,
    /// Field name.
    pub name: Symbol,
    /// Declared type.
    pub ty: JType,
    /// Whether the field is static.
    pub is_static: bool,
}

/// A class definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassDef {
    /// Fully-qualified interned name.
    pub name: Symbol,
    /// Superclass, if any (only `java/lang/Object` has none).
    pub superclass: Option<ClassId>,
    /// Declared fields.
    pub fields: Vec<FieldId>,
    /// Declared methods.
    pub methods: Vec<MethodId>,
    /// Whether this is an interface.
    pub is_interface: bool,
}

/// A whole program: the unit the analyses consume.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// String interner for all names.
    pub interner: Interner,
    /// All classes.
    pub classes: IndexVec<ClassId, ClassDef>,
    /// All fields.
    pub fields: IndexVec<FieldId, FieldDef>,
    /// All methods.
    pub methods: IndexVec<MethodId, Method>,
    /// Class lookup by name.
    class_by_name: HashMap<Symbol, ClassId>,
    /// Method lookup by signature.
    method_by_sig: HashMap<Signature, MethodId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a class; the caller has already pushed it. Internal —
    /// used by the builder.
    pub(crate) fn index_class(&mut self, id: ClassId) {
        let name = self.classes[id].name;
        self.class_by_name.insert(name, id);
    }

    /// Registers a method for signature lookup. Internal — used by builder.
    pub(crate) fn index_method(&mut self, id: MethodId) {
        let sig = self.methods[id].sig.clone();
        self.method_by_sig.insert(sig, id);
    }

    /// Looks up a class by interned name.
    pub fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        self.class_by_name.get(&name).copied()
    }

    /// Looks up a method by exact signature.
    pub fn method_by_sig(&self, sig: &Signature) -> Option<MethodId> {
        self.method_by_sig.get(sig).copied()
    }

    /// Resolves a method by (class, name) pair, walking up the superclass
    /// chain — a simplified virtual-dispatch resolution.
    pub fn resolve_method(&self, class: ClassId, sig: &Signature) -> Option<MethodId> {
        self.resolve_method_in(class, &mut sig.clone())
    }

    /// [`Self::resolve_method`] through a caller-owned copy of the
    /// signature, whose `class` is overwritten with each class tried — so a
    /// caller that probes many classes for one call site (CHA) clones the
    /// signature, parameter list included, once rather than once per step.
    pub fn resolve_method_in(&self, class: ClassId, candidate: &mut Signature) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(cid) = cur {
            let cdef = &self.classes[cid];
            candidate.class = cdef.name;
            if let Some(mid) = self.method_by_sig(candidate) {
                return Some(mid);
            }
            cur = cdef.superclass;
        }
        None
    }

    /// Total statement count across all methods — "CFG nodes" in the
    /// paper's Table I sense (one node per statement, plus entry/exit
    /// added by the ICFG layer).
    pub fn total_statements(&self) -> usize {
        self.methods.iter().map(|m| m.len()).sum()
    }

    /// Total variable count across all methods.
    pub fn total_vars(&self) -> usize {
        self.methods.iter().map(|m| m.var_count()).sum()
    }

    /// Rebuilds the name → id lookup tables from `classes` and `methods`
    /// — after a caller has edited those in place.
    pub fn rebuild_lookups(&mut self) {
        self.interner.rebuild_lookup();
        self.class_by_name = self.classes.iter_enumerated().map(|(id, c)| (c.name, id)).collect();
        self.method_by_sig =
            self.methods.iter_enumerated().map(|(id, m)| (m.sig.clone(), id)).collect();
    }
}

/// The class → direct-subclasses index of a program.
///
/// Building it is one pass over the classes; class-hierarchy analysis asks
/// for a subtree at every virtual call site, so a consumer builds the
/// index once (per call graph) and walks it per site.
#[derive(Clone, Debug)]
pub struct ClassHierarchy {
    /// Direct subclasses, in class-id order.
    children: IndexVec<ClassId, Vec<ClassId>>,
}

impl ClassHierarchy {
    /// Indexes `program`'s superclass edges.
    pub fn of(program: &Program) -> ClassHierarchy {
        let mut children: IndexVec<ClassId, Vec<ClassId>> =
            program.classes.iter().map(|_| Vec::new()).collect();
        for (id, c) in program.classes.iter_enumerated() {
            if let Some(sup) = c.superclass {
                children[sup].push(id);
            }
        }
        ClassHierarchy { children }
    }

    /// All transitive subclasses of `class` (itself excluded). The order —
    /// a class's direct subclasses by id, then the subtree of the *last*
    /// of them first — is the order CHA lists call targets in, so it is
    /// part of every downstream result's byte identity.
    pub fn descendants(&self, class: ClassId) -> impl Iterator<Item = ClassId> + '_ {
        let mut stack = Vec::new();
        let mut siblings = self.children[class].iter();
        std::iter::from_fn(move || loop {
            if let Some(&k) = siblings.next() {
                stack.push(k);
                return Some(k);
            }
            siblings = self.children[stack.pop()?].iter();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_dedups() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        let c = i.intern("foo");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "foo");
        assert_eq!(i.get("bar"), Some(b));
        assert_eq!(i.get("baz"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn descendants_walk_last_pushed_subtree_first() {
        let mut pb = crate::ProgramBuilder::new();
        let root = pb.class("Root").build();
        let a = pb.class("A").extends(root).build();
        let b = pb.class("B").extends(root).build();
        let a1 = pb.class("A1").extends(a).build();
        let b1 = pb.class("B1").extends(b).build();
        let a2 = pb.class("A2").extends(a).build();
        let a1x = pb.class("A1x").extends(a1).build();
        let p = pb.finish();
        let h = ClassHierarchy::of(&p);
        // Direct subclasses by id, then B's subtree (pushed last) before A's.
        assert_eq!(h.descendants(root).collect::<Vec<_>>(), [a, b, b1, a1, a2, a1x]);
        assert_eq!(h.descendants(a).collect::<Vec<_>>(), [a1, a2, a1x]);
        assert_eq!(h.descendants(a1x).count(), 0);
    }

    #[test]
    fn interner_rebuild_after_clearing_lookup() {
        let mut i = Interner::new();
        let a = i.intern("x");
        i.lookup.clear();
        i.rebuild_lookup();
        assert_eq!(i.get("x"), Some(a));
    }
}
