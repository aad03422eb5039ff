//! The data-fact domain: slots, instances, and per-method pools.
//!
//! A data-fact is a `(slot, instance)` pair — "this storage location may
//! point to this object". The paper's MAT optimization rests on the
//! observation that *the pools of slots and instances can be pre-determined
//! before the worklist algorithm runs* (§IV-A); [`MethodSpace::build`] is
//! that pre-determination pass. Downstream, slots index matrix rows and
//! instances index matrix columns.

use gdroid_ir::{Expr, FieldId, Lhs, Literal, Method, MethodId, Program, Stmt, StmtIdx, VarId};
use std::collections::HashMap;

/// A storage location that can hold an object reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Slot {
    /// A reference-typed local variable.
    Local(VarId),
    /// A static field.
    Static(FieldId),
    /// An instance field of a pooled instance: `(instance, field)`.
    Heap(InstanceIdx, FieldId),
    /// The merged element slot of a pooled array instance.
    ArrayElem(InstanceIdx),
}

/// An abstract object the analysis tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Instance {
    /// Allocation site within this method (`new`, string literal,
    /// `constclass`, caught exception).
    Alloc(StmtIdx),
    /// The symbolic object bound to formal `k` (0 = `this` for instance
    /// methods).
    Formal(u8),
    /// The symbolic content of a static field at method entry.
    StaticIn(FieldId),
    /// The symbolic object returned by the call at this statement
    /// (external callee or summarized escape).
    CallRet(StmtIdx),
}

/// Dense index of a slot within a method's pool.
pub type SlotIdx = u16;
/// Dense index of an instance within a method's pool.
pub type InstanceIdx = u16;

/// A packed data-fact: `(slot, instance)` as dense pool indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fact {
    /// Row.
    pub slot: SlotIdx,
    /// Column.
    pub instance: InstanceIdx,
}

impl Fact {
    /// Packs into a single `u32` (used by the set store and for hashing).
    #[inline]
    pub fn pack(self) -> u32 {
        (u32::from(self.slot) << 16) | u32::from(self.instance)
    }

    /// Unpacks from [`Fact::pack`] form.
    #[inline]
    pub fn unpack(raw: u32) -> Fact {
        Fact { slot: (raw >> 16) as u16, instance: (raw & 0xFFFF) as u16 }
    }
}

/// The pre-determined pools and lookup tables of one method — everything
/// the transfer functions need, computed once before analysis.
#[derive(Clone, Debug, Default)]
pub struct MethodSpace {
    /// The method this space belongs to.
    pub method: MethodId,
    /// Slot pool; index = [`SlotIdx`].
    pub slots: Vec<Slot>,
    /// Instance pool; index = [`InstanceIdx`].
    pub instances: Vec<Instance>,
    /// Reverse slot lookup.
    slot_idx: HashMap<Slot, SlotIdx>,
    /// Reverse instance lookup.
    instance_idx: HashMap<Instance, InstanceIdx>,
    /// Reference fields accessed (read or written) by this method — the
    /// field axis of the heap-slot cross product.
    pub ref_fields: Vec<FieldId>,
    /// Statement count (bitmask width for the per-statement cell view).
    pub stmt_count: usize,
}

impl MethodSpace {
    /// Scans a method body and pre-computes its pools.
    pub fn build(program: &Program, mid: MethodId) -> MethodSpace {
        let method = &program.methods[mid];
        let mut sp = MethodSpace { method: mid, stmt_count: method.len(), ..Default::default() };

        // --- instances -----------------------------------------------------
        // Formals first (stable small indices), then allocation sites and
        // call returns in statement order, then static-ins.
        let mut formal_count = 0u8;
        if method.this_var.is_some() {
            sp.add_instance(Instance::Formal(formal_count));
            formal_count += 1;
        }
        for p in &method.params {
            if p.ty.is_reference() {
                sp.add_instance(Instance::Formal(formal_count));
            }
            // Formal numbering follows declaration order including
            // primitives, so callers can map argument positions directly.
            formal_count += 1;
        }
        for (idx, stmt) in method.body.iter_enumerated() {
            match stmt {
                Stmt::Assign {
                    rhs:
                        Expr::New { .. }
                        | Expr::Lit(Literal::Str(_))
                        | Expr::ConstClass { .. }
                        | Expr::Exception,
                    ..
                } => {
                    sp.add_instance(Instance::Alloc(idx));
                }
                // Every call site gets a fresh-object instance, even calls
                // whose result is discarded: a void callee can still store
                // a fresh object into an argument's field, and that object
                // needs a caller-side identity.
                Stmt::Call { .. } => {
                    sp.add_instance(Instance::CallRet(idx));
                }
                _ => {}
            }
        }

        // --- statics and accessed fields -----------------------------------
        let mut statics: Vec<FieldId> = Vec::new();
        for stmt in method.body.iter() {
            if let Stmt::Assign { lhs, rhs } = stmt {
                match lhs {
                    Lhs::Field { field, .. } => sp.note_ref_field(program, *field),
                    Lhs::StaticField { field }
                        if program.fields[*field].ty.is_reference() && !statics.contains(field) =>
                    {
                        statics.push(*field);
                    }
                    _ => {}
                }
                match rhs {
                    Expr::Access { field, .. } => sp.note_ref_field(program, *field),
                    Expr::StaticField { field }
                        if program.fields[*field].ty.is_reference() && !statics.contains(field) =>
                    {
                        statics.push(*field);
                    }
                    _ => {}
                }
            }
        }
        for &f in &statics {
            sp.add_instance(Instance::StaticIn(f));
        }

        // --- slots ----------------------------------------------------------
        // Locals.
        for (vid, decl) in method.vars.iter_enumerated() {
            if decl.ty.is_reference() {
                sp.add_slot(Slot::Local(vid));
            }
        }
        // Statics.
        for &f in &statics {
            sp.add_slot(Slot::Static(f));
        }
        // Heap slots: every pooled instance × every field the method
        // accesses, plus one array-element slot per instance when the
        // method has array operations. The pool stays at the paper's
        // "no. of Variable ≈ 116" scale because a method accesses only a
        // handful of distinct reference fields (as in real Dalvik code);
        // the pre-determinability of this pool is exactly what MAT
        // exploits (§IV-A).
        let n_inst = sp.instances.len() as u16;
        let has_array_ops = method.body.iter().any(|s| {
            matches!(s, Stmt::Assign { lhs: Lhs::ArrayElem { .. }, .. })
                || matches!(s, Stmt::Assign { rhs: Expr::Indexing { .. }, .. })
        });
        let fields = sp.ref_fields.clone();
        for inst in 0..n_inst {
            for &f in &fields {
                sp.add_slot(Slot::Heap(inst, f));
            }
            if has_array_ops {
                sp.add_slot(Slot::ArrayElem(inst));
            }
        }

        sp
    }

    fn note_ref_field(&mut self, program: &Program, field: FieldId) {
        if program.fields[field].ty.is_reference() && !self.ref_fields.contains(&field) {
            self.ref_fields.push(field);
        }
    }

    fn add_instance(&mut self, inst: Instance) -> InstanceIdx {
        if let Some(&i) = self.instance_idx.get(&inst) {
            return i;
        }
        let idx = self.instances.len() as InstanceIdx;
        self.instances.push(inst);
        self.instance_idx.insert(inst, idx);
        idx
    }

    fn add_slot(&mut self, slot: Slot) -> SlotIdx {
        if let Some(&i) = self.slot_idx.get(&slot) {
            return i;
        }
        let idx = self.slots.len() as SlotIdx;
        self.slots.push(slot);
        self.slot_idx.insert(slot, idx);
        idx
    }

    /// Looks up a slot's pool index.
    #[inline]
    pub fn slot(&self, slot: Slot) -> Option<SlotIdx> {
        self.slot_idx.get(&slot).copied()
    }

    /// Looks up an instance's pool index.
    #[inline]
    pub fn instance(&self, inst: Instance) -> Option<InstanceIdx> {
        self.instance_idx.get(&inst).copied()
    }

    /// Number of slots (matrix rows).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of instances (matrix columns).
    #[inline]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// The entry facts of this method: formals bound to their symbolic
    /// instances and statics to their entry contents.
    pub fn entry_facts(&self, method: &Method) -> Vec<Fact> {
        let mut facts = Vec::new();
        let mut formal = 0u8;
        if let Some(this) = method.this_var {
            if let (Some(s), Some(i)) =
                (self.slot(Slot::Local(this)), self.instance(Instance::Formal(formal)))
            {
                facts.push(Fact { slot: s, instance: i });
            }
            formal += 1;
        }
        for p in &method.params {
            if p.ty.is_reference() {
                if let (Some(s), Some(i)) =
                    (self.slot(Slot::Local(p.var)), self.instance(Instance::Formal(formal)))
                {
                    facts.push(Fact { slot: s, instance: i });
                }
            }
            formal += 1;
        }
        for (idx, inst) in self.instances.iter().enumerate() {
            if let Instance::StaticIn(f) = inst {
                if let Some(s) = self.slot(Slot::Static(*f)) {
                    facts.push(Fact { slot: s, instance: idx as InstanceIdx });
                }
            }
        }
        facts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_ir::{JType, MethodKind, ProgramBuilder};

    fn sample() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let obj = pb.class("java/lang/Object").build();
        let cls = pb.class("A").extends(obj).build();
        let obj_sym = pb.program().classes[obj].name;
        let f = pb.field(cls, "data", JType::Object(obj_sym), false);
        let sf = pb.field(cls, "shared", JType::Object(obj_sym), true);

        let mut mb = pb.method(cls, "m");
        let this = mb.this();
        let p0 = mb.param("p0", JType::Object(obj_sym));
        let _p1 = mb.param("p1", JType::Int);
        let r = mb.local("r", JType::Object(obj_sym));
        let _n = mb.local("n", JType::Int);
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(r), rhs: Expr::New { ty: JType::Object(obj_sym) } });
        mb.stmt(Stmt::Assign { lhs: Lhs::Field { base: this, field: f }, rhs: Expr::Var(r) });
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(r), rhs: Expr::StaticField { field: sf } });
        let ext_name = mb.intern("ext");
        mb.stmt(Stmt::Call {
            ret: Some(p0),
            kind: gdroid_ir::CallKind::Static,
            sig: gdroid_ir::Signature::new(obj_sym, ext_name, vec![], JType::Object(obj_sym)),
            args: vec![],
        });
        mb.stmt(Stmt::Return { var: None });
        let mid = mb.build();
        (pb.finish(), mid)
    }

    #[test]
    fn pools_contain_expected_entries() {
        let (p, mid) = sample();
        let sp = MethodSpace::build(&p, mid);
        // Instances: Formal(0)=this, Formal(1)=p0, Alloc(L0), CallRet(L3),
        // StaticIn(shared).
        assert!(sp.instance(Instance::Formal(0)).is_some());
        assert!(sp.instance(Instance::Formal(1)).is_some());
        assert!(sp.instance(Instance::Alloc(StmtIdx(0))).is_some());
        assert!(sp.instance(Instance::CallRet(StmtIdx(3))).is_some());
        assert_eq!(sp.instance_count(), 5);
        // Primitive param p1 does NOT get an instance, but bumps numbering:
        assert!(sp.instance(Instance::Formal(2)).is_none());

        // Slots: 3 ref locals (this, p0, r) + 1 static + heap pairs for
        // all 5 instances × 1 accessed field = 9. No array ops → no array
        // slots.
        assert_eq!(sp.slot_count(), 3 + 1 + 5);
        assert!(sp.slots.iter().all(|s| !matches!(s, Slot::ArrayElem(_))));
    }

    #[test]
    fn entry_facts_bind_formals_and_statics() {
        let (p, mid) = sample();
        let sp = MethodSpace::build(&p, mid);
        let facts = sp.entry_facts(&p.methods[mid]);
        // this→Formal(0), p0→Formal(1), shared→StaticIn = 3 facts.
        assert_eq!(facts.len(), 3);
        for f in &facts {
            assert!(usize::from(f.slot) < sp.slot_count());
            assert!(usize::from(f.instance) < sp.instance_count());
        }
    }

    #[test]
    fn fact_pack_roundtrip() {
        for (s, i) in [(0u16, 0u16), (1, 2), (65535, 65535), (300, 7)] {
            let f = Fact { slot: s, instance: i };
            assert_eq!(Fact::unpack(f.pack()), f);
        }
    }

    #[test]
    fn array_ops_create_array_slots() {
        let mut pb = ProgramBuilder::new();
        let obj = pb.class("java/lang/Object").build();
        let obj_sym = pb.program().classes[obj].name;
        let cls = pb.class("B").extends(obj).build();
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let a = mb.local("a", JType::object_array(obj_sym));
        let x = mb.local("x", JType::Object(obj_sym));
        let i = mb.local("i", JType::Int);
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Var(a),
            rhs: Expr::New { ty: JType::object_array(obj_sym) },
        });
        mb.stmt(Stmt::Assign { lhs: Lhs::ArrayElem { base: a, index: i }, rhs: Expr::Var(x) });
        mb.stmt(Stmt::Return { var: None });
        let mid = mb.build();
        let p = pb.finish();
        let sp = MethodSpace::build(&p, mid);
        assert!(sp.slots.iter().any(|s| matches!(s, Slot::ArrayElem(_))));
    }

    #[test]
    fn corpus_method_space_sizes_are_bounded() {
        let app = gdroid_apk::generate_app(0, 2222, &gdroid_apk::GenConfig::tiny());
        for (mid, _) in app.program.methods.iter_enumerated() {
            let sp = MethodSpace::build(&app.program, mid);
            assert!(sp.slot_count() < 4000, "slot pool blew up: {}", sp.slot_count());
            assert!(sp.instance_count() < 1000);
            assert!(sp.slot_count() >= 1);
        }
    }
}
