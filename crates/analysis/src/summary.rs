//! SBDA method summaries.
//!
//! Summary-based Bottom-up Data-flow Analysis (§III-A2 of the paper, after
//! Dillig et al.) gives every method a *unified heap-manipulation summary*
//! expressed over symbolic [`Token`]s, so callers can apply callee effects
//! without descending into them — the property that makes methods of the
//! same call-graph layer independent and thread-block-parallelizable.

use crate::fact::{Instance, MethodSpace, Slot};
use crate::store::MatrixStore;
use gdroid_ir::{FieldId, Method, MethodId, Stmt};
use std::collections::{BTreeSet, HashMap};

/// A symbolic value source, relative to the summarized method's caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Token {
    /// Whatever the caller's argument `k` points to (0 = receiver for
    /// instance methods).
    Formal(u8),
    /// A fresh object that escapes the callee (allocation or nested call
    /// return) — resolves to the call site's [`Instance::CallRet`].
    Fresh,
    /// The caller's view of a static field's contents.
    StaticIn(FieldId),
}

/// The heap-manipulation summary of one method.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodSummary {
    /// Possible sources of the return value.
    pub returns: BTreeSet<Token>,
    /// Field writes that escape: `recv.field ← src`.
    pub field_writes: BTreeSet<(Token, FieldId, Token)>,
    /// Static writes: `field ← src`.
    pub static_writes: BTreeSet<(FieldId, Token)>,
    /// Array-element writes: `recv[…] ← src`.
    pub array_writes: BTreeSet<(Token, Token)>,
}

impl MethodSummary {
    /// The default summary for external (framework) callees: returns a
    /// fresh object, no side effects. The vetting layer refines source
    /// semantics on top of this.
    pub fn external() -> MethodSummary {
        let mut s = MethodSummary::default();
        s.returns.insert(Token::Fresh);
        s
    }

    /// The number of entries: return tokens plus field, static and array
    /// writes.
    pub fn len(&self) -> usize {
        self.returns.len()
            + self.field_writes.len()
            + self.static_writes.len()
            + self.array_writes.len()
    }

    /// Whether the summary is empty (pure method).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unions another summary in (CHA call sites merge all targets).
    pub fn merge(&mut self, other: &MethodSummary) {
        self.returns.extend(other.returns.iter().copied());
        self.field_writes.extend(other.field_writes.iter().copied());
        self.static_writes.extend(other.static_writes.iter().copied());
        self.array_writes.extend(other.array_writes.iter().copied());
    }
}

/// Summaries for all analyzed methods.
pub type SummaryMap = HashMap<MethodId, MethodSummary>;

/// Maps a callee-local instance to its caller-relative token.
#[inline]
pub fn token_of(instance: Instance) -> Token {
    match instance {
        Instance::Formal(k) => Token::Formal(k),
        Instance::Alloc(_) | Instance::CallRet(_) => Token::Fresh,
        Instance::StaticIn(f) => Token::StaticIn(f),
    }
}

/// Derives a method's summary from its solved facts.
///
/// * `returns` — union over all `return v` nodes of `v`'s points-to,
///   tokenized;
/// * heap/static/array effects — read off the *exit* facts (the union of
///   everything that reached a method exit).
pub fn derive_summary(
    method: &Method,
    space: &MethodSpace,
    // IN-facts per CFG node, indexed by node id (entry=0 … exit=last).
    facts: &MatrixStore,
    exit_node: usize,
) -> MethodSummary {
    let mut summary = MethodSummary::default();

    // Return-value sources: at each return node, the returned var's row.
    for (idx, stmt) in method.body.iter_enumerated() {
        if let Stmt::Return { var: Some(v) } = stmt {
            if let Some(slot) = space.slot(Slot::Local(*v)) {
                for inst in facts.node(idx.index() + 1).row(slot) {
                    summary.returns.insert(token_of(space.instances[usize::from(inst)]));
                }
            }
        }
    }

    // Escaping heap effects: exit facts, all heap/static/array slots.
    let exit = facts.node(exit_node);
    for (si, &slot) in space.slots.iter().enumerate() {
        match slot {
            Slot::Heap(recv, field) => {
                let recv_tok = token_of(space.instances[usize::from(recv)]);
                for inst in exit.row(si as u16) {
                    let src_tok = token_of(space.instances[usize::from(inst)]);
                    summary.field_writes.insert((recv_tok, field, src_tok));
                }
            }
            Slot::Static(field) => {
                for inst in exit.row(si as u16) {
                    let tok = token_of(space.instances[usize::from(inst)]);
                    // The entry binding `Static(f) ∋ StaticIn(f)` is not an
                    // effect; only report genuine changes.
                    if tok != Token::StaticIn(field) {
                        summary.static_writes.insert((field, tok));
                    }
                }
            }
            Slot::ArrayElem(recv) => {
                let recv_tok = token_of(space.instances[usize::from(recv)]);
                for inst in exit.row(si as u16) {
                    let src_tok = token_of(space.instances[usize::from(inst)]);
                    summary.array_writes.insert((recv_tok, src_tok));
                }
            }
            Slot::Local(_) => {}
        }
    }

    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::store::{Geometry, NodeFacts};
    use gdroid_ir::{Expr, JType, Lhs, ProgramBuilder, StmtIdx, VarId};

    #[test]
    fn external_summary_returns_fresh() {
        let s = MethodSummary::external();
        assert!(s.returns.contains(&Token::Fresh));
        assert!(s.field_writes.is_empty());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn token_mapping() {
        assert_eq!(token_of(Instance::Formal(2)), Token::Formal(2));
        assert_eq!(token_of(Instance::Alloc(StmtIdx(3))), Token::Fresh);
        assert_eq!(token_of(Instance::CallRet(StmtIdx(1))), Token::Fresh);
        assert_eq!(token_of(Instance::StaticIn(FieldId(4))), Token::StaticIn(FieldId(4)));
    }

    #[test]
    fn merge_unions_everything() {
        let mut a = MethodSummary::default();
        a.returns.insert(Token::Formal(0));
        let mut b = MethodSummary::default();
        b.returns.insert(Token::Fresh);
        b.static_writes.insert((FieldId(0), Token::Formal(1)));
        a.merge(&b);
        assert_eq!(a.returns.len(), 2);
        assert_eq!(a.static_writes.len(), 1);
    }

    #[test]
    fn derive_summary_reads_returns_and_heap_effects() {
        // m(this, p): this.f = new; return p;
        let mut pb = ProgramBuilder::new();
        let obj = pb.class("java/lang/Object").build();
        let obj_sym = pb.program().classes[obj].name;
        let cls = pb.class("A").extends(obj).build();
        let f = pb.field(cls, "f", JType::Object(obj_sym), false);
        let mut mb = pb.method(cls, "m");
        let this = mb.this();
        let p0 = mb.param("p", JType::Object(obj_sym));
        mb.stmt(Stmt::Assign {
            lhs: Lhs::Field { base: this, field: f },
            rhs: Expr::New { ty: JType::Object(obj_sym) },
        });
        mb.stmt(Stmt::Return { var: Some(p0) });
        let mid = mb.build();
        let p = pb.finish();
        let method = &p.methods[mid];
        let space = MethodSpace::build(&p, mid);
        let geometry = Geometry::of(&space);

        // Hand-build node facts approximating the solved state.
        // Wait: `this.f = new` — the New is the RHS of a field store; the
        // pool registers the alloc site.
        let alloc = space.instance(Instance::Alloc(StmtIdx(0))).expect("alloc pooled");
        let formal0 = space.instance(Instance::Formal(0)).unwrap();
        let formal1 = space.instance(Instance::Formal(1)).unwrap();
        let this_slot = space.slot(Slot::Local(this)).unwrap();
        let p_slot = space.slot(Slot::Local(VarId(1))).unwrap();
        let heap_slot = space.slot(Slot::Heap(formal0, f)).unwrap();

        let mut exit = NodeFacts::empty(geometry);
        exit.set(Fact { slot: this_slot, instance: formal0 });
        exit.set(Fact { slot: p_slot, instance: formal1 });
        exit.set(Fact { slot: heap_slot, instance: alloc });
        let mut facts = MatrixStore::new(geometry, 4);
        for node in 0..4 {
            facts.union_into(node, &exit);
        }

        let summary = derive_summary(method, &space, &facts, 3);
        assert!(summary.returns.contains(&Token::Formal(1)), "{summary:?}");
        assert!(summary.field_writes.contains(&(Token::Formal(0), f, Token::Fresh)), "{summary:?}");
    }
}
