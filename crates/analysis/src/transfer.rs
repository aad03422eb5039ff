//! Gen/kill transfer functions — the `ProcessNode` analyzer of Alg. 1.
//!
//! `transfer` maps a node's IN bitmap to its OUT bitmap. The formulation is
//! monotone: kills apply only to the flow-through copy, node fact sets grow
//! monotonically under propagation (the property the paper's MER
//! optimization relies on for soundness).
//!
//! The same function backs every solver in the repository — sequential
//! CPU, multithreaded CPU, and all four GPU kernels — so functional
//! equivalence between them is by construction, and the GPU simulator
//! charges costs for the *accesses this function actually performs*
//! (reported in [`TransferEffort`]).

use crate::fact::{Instance, InstanceIdx, MethodSpace, Slot, SlotIdx};
use crate::store::{Geometry, NodeFacts, NodeView};
use crate::summary::{MethodSummary, SiteSummaries, Token};
use gdroid_ir::{Expr, FieldId, Lhs, Literal, Method, Stmt, StmtIdx, VarId};

/// Abstract operation counts of one node evaluation — consumed by the CPU
/// and GPU cost models.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferEffort {
    /// Slot rows read from the fact store.
    pub rows_read: usize,
    /// Facts written (set bits, pre-dedup).
    pub facts_written: usize,
    /// Dependent de-reference layers (0 = generation only, 1 = single,
    /// 2 = double) — mirrors the GRP classification.
    pub deref_layers: usize,
}

/// Everything `transfer` needs besides the IN facts.
pub struct TransferCtx<'a> {
    /// The method being analyzed.
    pub method: &'a Method,
    /// Its pre-computed pools.
    pub space: &'a MethodSpace,
    /// Its call sites' merged callee summaries.
    pub sites: &'a SiteSummaries,
}

/// The instances an expression or a summary token evaluates to at a node:
/// read out of the IN bitmap 64 at a time when written, never collected.
#[derive(Clone, Copy)]
enum Instances<'e> {
    /// One pooled instance (an allocation site, a call's return), or none.
    One(Option<InstanceIdx>),
    /// A slot's row.
    Row(SlotIdx),
    /// The union of the rows of a tuple's reference locals.
    Locals(&'e [VarId]),
    /// The union of the rows `o.field` (`o[*]` for `None`) over the
    /// instances `o` in a base slot's row.
    Deref(SlotIdx, Option<FieldId>),
}

impl<'a> TransferCtx<'a> {
    #[inline]
    fn local(&self, v: VarId) -> Option<u16> {
        self.space.slot(Slot::Local(v))
    }

    /// The slot of `o.field`, or of `o`'s array element for `None`.
    #[inline]
    fn deref(&self, o: InstanceIdx, field: Option<FieldId>) -> Option<SlotIdx> {
        self.space.slot(match field {
            Some(f) => Slot::Heap(o, f),
            None => Slot::ArrayElem(o),
        })
    }

    /// Applies the transfer function of statement `stmt` to `input`,
    /// returning the OUT bitmap and the effort expended.
    pub fn transfer(&self, stmt_idx: StmtIdx, input: NodeView<'_>) -> (NodeFacts, TransferEffort) {
        // Empty until `transfer_into` sizes it: one allocation, as a clone.
        let mut out = NodeFacts::empty(Geometry::default());
        let effort = self.transfer_into(stmt_idx, input, &mut out);
        (out, effort)
    }

    /// [`TransferCtx::transfer`] into a bitmap the caller reuses: `out` is
    /// overwritten, its allocation kept. Allocates nothing.
    pub fn transfer_into(
        &self,
        stmt_idx: StmtIdx,
        input: NodeView<'_>,
        out: &mut NodeFacts,
    ) -> TransferEffort {
        out.assign(input);
        let mut effort = TransferEffort::default();
        let stmt = &self.method.body[stmt_idx];

        match stmt {
            Stmt::Assign { lhs, rhs } => {
                self.transfer_assign(stmt_idx, lhs, rhs, input, out, &mut effort)
            }
            Stmt::Call { ret, args, .. } => {
                let summary = self.sites.get(stmt_idx).unwrap_or(MethodSummary::external());
                self.apply_summary(stmt_idx, summary, *ret, args, input, out, &mut effort);
            }
            // Control and no-op statements: identity transfer.
            Stmt::Empty
            | Stmt::Monitor { .. }
            | Stmt::Goto { .. }
            | Stmt::If { .. }
            | Stmt::Return { .. }
            | Stmt::Switch { .. }
            | Stmt::Throw { .. } => {}
        }
        effort
    }

    fn transfer_assign(
        &self,
        stmt_idx: StmtIdx,
        lhs: &Lhs,
        rhs: &Expr,
        input: NodeView<'_>,
        out: &mut NodeFacts,
        effort: &mut TransferEffort,
    ) {
        // Evaluate the RHS to its instances (for reference-producing
        // expressions) while tracking effort.
        let value = match rhs {
            Expr::New { .. }
            | Expr::Lit(Literal::Str(_))
            | Expr::ConstClass { .. }
            | Expr::Exception => {
                effort.facts_written += 1;
                self.space.instance(Instance::Alloc(stmt_idx)).map(|i| Instances::One(Some(i)))
            }
            Expr::Null => Some(Instances::One(None)),
            Expr::Var(v) | Expr::Cast { operand: v, .. } | Expr::CallRhs { ret: v } => {
                effort.rows_read += 1;
                effort.deref_layers = effort.deref_layers.max(1);
                self.local(*v).map(Instances::Row)
            }
            Expr::Tuple { elems } => {
                effort.deref_layers = effort.deref_layers.max(1);
                effort.rows_read += elems.iter().filter(|&&v| self.local(v).is_some()).count();
                Some(Instances::Locals(elems))
            }
            Expr::StaticField { field } => {
                effort.rows_read += 1;
                effort.deref_layers = effort.deref_layers.max(1);
                self.space.slot(Slot::Static(*field)).map(Instances::Row)
            }
            // Double de-reference: base's instances, then their heap
            // (or array-element) slots.
            Expr::Access { base, field } => self.deref_rhs(*base, Some(*field), input, effort),
            Expr::Indexing { base, .. } => self.deref_rhs(*base, None, input, effort),
            // Primitive-valued expressions: no reference flow.
            Expr::Binary { .. }
            | Expr::Cmp { .. }
            | Expr::InstanceOf { .. }
            | Expr::Length { .. }
            | Expr::Unary { .. }
            | Expr::Lit(_) => None,
        };

        let Some(value) = value else { return };

        match lhs {
            Lhs::Var(v) => {
                // Strong update on locals: kill, then gen.
                if let Some(slot) = self.local(*v) {
                    out.clear_row(slot);
                    effort.facts_written += self.gen(value, input, out, slot);
                }
            }
            Lhs::StaticField { field } => {
                // Strong update on statics (single abstract location).
                if let Some(slot) = self.space.slot(Slot::Static(*field)) {
                    out.clear_row(slot);
                    effort.facts_written += self.gen(value, input, out, slot);
                }
            }
            Lhs::Field { base, field } => {
                // Weak update: the base may alias, so no kill.
                effort.deref_layers = 2;
                if let Some(bs) = self.local(*base) {
                    effort.rows_read += 1;
                    for o in input.row(bs) {
                        if let Some(hs) = self.space.slot(Slot::Heap(o, *field)) {
                            effort.facts_written += self.gen(value, input, out, hs);
                        }
                    }
                }
            }
            Lhs::ArrayElem { base, .. } => {
                effort.deref_layers = 2;
                if let Some(bs) = self.local(*base) {
                    effort.rows_read += 1;
                    for o in input.row(bs) {
                        if let Some(es) = self.space.slot(Slot::ArrayElem(o)) {
                            effort.facts_written += self.gen(value, input, out, es);
                        }
                    }
                }
            }
        }
    }

    /// A double de-reference `base.field` (`base[*]` for `None`): one row
    /// read for the base and one per instance in it that has the slot.
    fn deref_rhs(
        &self,
        base: VarId,
        field: Option<FieldId>,
        input: NodeView<'_>,
        effort: &mut TransferEffort,
    ) -> Option<Instances<'static>> {
        effort.deref_layers = 2;
        let bs = self.local(base)?;
        effort.rows_read += 1 + input.row(bs).filter(|&o| self.deref(o, field).is_some()).count();
        Some(Instances::Deref(bs, field))
    }

    /// Instances `first..first + 64` of `value` at a node with IN facts
    /// `input`, as one word.
    fn word(&self, value: Instances<'_>, input: NodeView<'_>, first: usize) -> u64 {
        match value {
            Instances::One(Some(i)) if (first..first + 64).contains(&usize::from(i)) => {
                1 << (usize::from(i) - first)
            }
            Instances::One(_) => 0,
            Instances::Row(s) => input.row_word(s, first),
            Instances::Locals(vars) => vars
                .iter()
                .filter_map(|&v| self.local(v))
                .fold(0, |w, s| w | input.row_word(s, first)),
            Instances::Deref(bs, field) => input
                .row(bs)
                .filter_map(|o| self.deref(o, field))
                .fold(0, |w, s| w | input.row_word(s, first)),
        }
    }

    /// ORs `value` into `out`'s row of `slot`; returns how many instances
    /// `value` holds.
    fn gen(
        &self,
        value: Instances<'_>,
        input: NodeView<'_>,
        out: &mut NodeFacts,
        slot: SlotIdx,
    ) -> usize {
        let mut n = 0;
        for first in (0..self.space.instance_count()).step_by(64) {
            let word = self.word(value, input, first);
            out.or_row_word(slot, first, word);
            n += word.count_ones() as usize;
        }
        n
    }

    /// Calls `f` with each instance of `value`, ascending.
    fn for_each(&self, value: Instances<'_>, input: NodeView<'_>, mut f: impl FnMut(InstanceIdx)) {
        for first in (0..self.space.instance_count()).step_by(64) {
            let mut word = self.word(value, input, first);
            while word != 0 {
                f((first + word.trailing_zeros() as usize) as InstanceIdx);
                word &= word - 1;
            }
        }
    }

    /// Resolves a summary token to caller instances at this node.
    fn resolve_token(
        &self,
        token: Token,
        stmt_idx: StmtIdx,
        args: &[VarId],
        effort: &mut TransferEffort,
    ) -> Instances<'static> {
        let row = match token {
            // `None` for a primitive or missing argument.
            Token::Formal(k) => args.get(usize::from(k)).and_then(|&v| self.local(v)),
            Token::Fresh => {
                return Instances::One(self.space.instance(Instance::CallRet(stmt_idx)))
            }
            Token::StaticIn(f) => self.space.slot(Slot::Static(f)),
        };
        match row {
            Some(s) => {
                effort.rows_read += 1;
                Instances::Row(s)
            }
            None => Instances::One(None),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_summary(
        &self,
        stmt_idx: StmtIdx,
        summary: &MethodSummary,
        ret: Option<VarId>,
        args: &[VarId],
        input: NodeView<'_>,
        out: &mut NodeFacts,
        effort: &mut TransferEffort,
    ) {
        effort.deref_layers = effort.deref_layers.max(1);
        // Return value.
        if let Some(r) = ret {
            if let Some(slot) = self.local(r) {
                out.clear_row(slot);
                for &tok in &summary.returns {
                    let value = self.resolve_token(tok, stmt_idx, args, effort);
                    effort.facts_written += self.gen(value, input, out, slot);
                }
            }
        }
        // Escaping field writes, then array writes.
        let fields = summary.field_writes.iter().map(|&(recv, f, src)| (recv, Some(f), src));
        let arrays = summary.array_writes.iter().map(|&(recv, src)| (recv, None, src));
        for (recv_tok, field, src_tok) in fields.chain(arrays) {
            let recvs = self.resolve_token(recv_tok, stmt_idx, args, effort);
            if (0..self.space.instance_count()).step_by(64).all(|f| self.word(recvs, input, f) == 0)
            {
                continue;
            }
            let srcs = self.resolve_token(src_tok, stmt_idx, args, effort);
            self.for_each(recvs, input, |o| {
                if let Some(slot) = self.deref(o, field) {
                    effort.facts_written += self.gen(srcs, input, out, slot);
                }
            });
        }
        // Static writes (weak at call sites).
        for &(field, src_tok) in &summary.static_writes {
            if let Some(slot) = self.space.slot(Slot::Static(field)) {
                let value = self.resolve_token(src_tok, stmt_idx, args, effort);
                effort.facts_written += self.gen(value, input, out, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::{Fact, MethodSpace};
    use crate::store::Geometry;
    use gdroid_ir::{CallKind, JType, MethodId, ProgramBuilder, Signature};

    /// Builds: m(this, p) {
    ///   L0: r = new Object
    ///   L1: this.f = r
    ///   L2: q = this.f
    ///   L3: q = null
    ///   L4: s = call ext() ret s
    ///   L5: return
    /// }
    struct Fixture {
        program: gdroid_ir::Program,
        mid: MethodId,
        f: gdroid_ir::FieldId,
        this: VarId,
        r: VarId,
        q: VarId,
        s: VarId,
    }

    fn fixture() -> Fixture {
        let mut pb = ProgramBuilder::new();
        let obj = pb.class("java/lang/Object").build();
        let obj_sym = pb.program().classes[obj].name;
        let cls = pb.class("A").extends(obj).build();
        let f = pb.field(cls, "f", JType::Object(obj_sym), false);
        let ext =
            Signature::new(pb.intern("Ext"), pb.intern("get"), vec![], JType::Object(obj_sym));
        let mut mb = pb.method(cls, "m");
        let this = mb.this();
        let _p = mb.param("p", JType::Object(obj_sym));
        let r = mb.local("r", JType::Object(obj_sym));
        let q = mb.local("q", JType::Object(obj_sym));
        let s = mb.local("s", JType::Object(obj_sym));
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(r), rhs: Expr::New { ty: JType::Object(obj_sym) } });
        mb.stmt(Stmt::Assign { lhs: Lhs::Field { base: this, field: f }, rhs: Expr::Var(r) });
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(q), rhs: Expr::Access { base: this, field: f } });
        mb.stmt(Stmt::Assign { lhs: Lhs::Var(q), rhs: Expr::Null });
        mb.stmt(Stmt::Call { ret: Some(s), kind: CallKind::Static, sig: ext, args: vec![] });
        mb.stmt(Stmt::Return { var: None });
        let mid = mb.build();
        Fixture { program: pb.finish(), mid, f, this, r, q, s }
    }

    fn ctx_and_entry(fx: &Fixture) -> (MethodSpace, NodeFacts) {
        let space = MethodSpace::build(&fx.program, fx.mid);
        let geometry = Geometry::of(&space);
        let mut entry = NodeFacts::empty(geometry);
        for fact in space.entry_facts(&fx.program.methods[fx.mid]) {
            entry.set(fact);
        }
        (space, entry)
    }

    #[test]
    fn new_generates_alloc_fact() {
        let fx = fixture();
        let (space, entry) = ctx_and_entry(&fx);
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method: &fx.program.methods[fx.mid], space: &space, sites: &sites };
        let (out, effort) = ctx.transfer(StmtIdx(0), entry.view());
        let slot = space.slot(Slot::Local(fx.r)).unwrap();
        let alloc = space.instance(Instance::Alloc(StmtIdx(0))).unwrap();
        assert!(out.get(Fact { slot, instance: alloc }));
        assert_eq!(effort.deref_layers, 0, "one-time generation pattern");
    }

    #[test]
    fn field_store_then_load_roundtrips() {
        let fx = fixture();
        let (space, entry) = ctx_and_entry(&fx);
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method: &fx.program.methods[fx.mid], space: &space, sites: &sites };
        // L0 then L1 then L2.
        let (f0, _) = ctx.transfer(StmtIdx(0), entry.view());
        let (f1, e1) = ctx.transfer(StmtIdx(1), f0.view());
        assert_eq!(e1.deref_layers, 2, "heap store is double-layer");
        let (f2, e2) = ctx.transfer(StmtIdx(2), f1.view());
        assert_eq!(e2.deref_layers, 2, "field load is double-layer");
        let q_slot = space.slot(Slot::Local(fx.q)).unwrap();
        let alloc = space.instance(Instance::Alloc(StmtIdx(0))).unwrap();
        assert!(f2.get(Fact { slot: q_slot, instance: alloc }), "q must see the stored object");
        // The heap slot itself holds the alloc, keyed by this's formal.
        let formal0 = space.instance(Instance::Formal(0)).unwrap();
        let heap = space.slot(Slot::Heap(formal0, fx.f)).unwrap();
        assert!(f2.get(Fact { slot: heap, instance: alloc }));
    }

    #[test]
    fn null_assign_kills_strongly() {
        let fx = fixture();
        let (space, entry) = ctx_and_entry(&fx);
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method: &fx.program.methods[fx.mid], space: &space, sites: &sites };
        let (f0, _) = ctx.transfer(StmtIdx(0), entry.view());
        let (f1, _) = ctx.transfer(StmtIdx(1), f0.view());
        let (f2, _) = ctx.transfer(StmtIdx(2), f1.view());
        let (f3, _) = ctx.transfer(StmtIdx(3), f2.view());
        let q_slot = space.slot(Slot::Local(fx.q)).unwrap();
        assert_eq!(f3.row(q_slot).count(), 0, "null kills q's points-to");
    }

    #[test]
    fn external_call_returns_fresh_instance() {
        let fx = fixture();
        let (space, entry) = ctx_and_entry(&fx);
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method: &fx.program.methods[fx.mid], space: &space, sites: &sites };
        let (out, _) = ctx.transfer(StmtIdx(4), entry.view());
        let s_slot = space.slot(Slot::Local(fx.s)).unwrap();
        let ret = space.instance(Instance::CallRet(StmtIdx(4))).unwrap();
        assert_eq!(out.row(s_slot).collect::<Vec<_>>(), [ret]);
    }

    #[test]
    fn internal_summary_flows_args_to_return() {
        // Callee summary: returns Formal(1) (echoes its argument).
        let fx = fixture();
        let (space, mut entry) = ctx_and_entry(&fx);
        let mut summary = MethodSummary::default();
        summary.returns.insert(Token::Formal(1));
        // Pretend L4's call has args [this, r] and a summary.
        // Build a custom method for this: reuse fixture's call site but
        // resolve with our summary and args including r.
        // For simplicity, seed r with the alloc and use Formal(1) = args[1].
        let alloc = space.instance(Instance::Alloc(StmtIdx(0))).unwrap();
        let r_slot = space.slot(Slot::Local(fx.r)).unwrap();
        entry.set(Fact { slot: r_slot, instance: alloc });

        let method = &fx.program.methods[fx.mid];
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method, space: &space, sites: &sites };
        // Apply the summary manually with explicit args.
        let mut out = entry.clone();
        let mut effort = TransferEffort::default();
        ctx.apply_summary(
            StmtIdx(4),
            &summary,
            Some(fx.s),
            &[fx.this, fx.r],
            entry.view(),
            &mut out,
            &mut effort,
        );
        let s_slot = space.slot(Slot::Local(fx.s)).unwrap();
        assert_eq!(
            out.row(s_slot).collect::<Vec<_>>(),
            [alloc],
            "arg r's points-to flows to the return"
        );
    }

    #[test]
    fn summary_field_write_lands_in_caller_heap() {
        // Summary: arg0.f = Fresh.
        let fx = fixture();
        let (space, entry) = ctx_and_entry(&fx);
        let mut summary = MethodSummary::default();
        summary.field_writes.insert((Token::Formal(0), fx.f, Token::Fresh));
        let method = &fx.program.methods[fx.mid];
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method, space: &space, sites: &sites };
        let mut out = entry.clone();
        let mut effort = TransferEffort::default();
        ctx.apply_summary(
            StmtIdx(4),
            &summary,
            None,
            &[fx.this],
            entry.view(),
            &mut out,
            &mut effort,
        );
        let formal0 = space.instance(Instance::Formal(0)).unwrap();
        let fresh = space.instance(Instance::CallRet(StmtIdx(4))).unwrap();
        let heap = space.slot(Slot::Heap(formal0, fx.f)).unwrap();
        assert!(out.get(Fact { slot: heap, instance: fresh }));
    }

    #[test]
    fn control_statements_are_identity() {
        let fx = fixture();
        let (space, entry) = ctx_and_entry(&fx);
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method: &fx.program.methods[fx.mid], space: &space, sites: &sites };
        let (out, effort) = ctx.transfer(StmtIdx(5), entry.view()); // return
        assert_eq!(out, entry);
        assert_eq!(effort, TransferEffort::default());
    }

    #[test]
    fn monotone_on_larger_inputs() {
        // transfer(in1 ∪ extra) ⊇ transfer(in1) — the MER soundness property.
        let fx = fixture();
        let (space, entry) = ctx_and_entry(&fx);
        let sites = SiteSummaries::default();
        let ctx = TransferCtx { method: &fx.program.methods[fx.mid], space: &space, sites: &sites };
        let (small_out, _) = ctx.transfer(StmtIdx(2), entry.view());
        let mut bigger = entry.clone();
        // Add heap facts the load at L2 will pick up.
        let formal0 = space.instance(Instance::Formal(0)).unwrap();
        let heap = space.slot(Slot::Heap(formal0, fx.f)).unwrap();
        let ret = space.instance(Instance::CallRet(StmtIdx(4))).unwrap();
        bigger.set(Fact { slot: heap, instance: ret });
        let (big_out, _) = ctx.transfer(StmtIdx(2), bigger.view());
        for fact in small_out.iter() {
            assert!(big_out.get(fact), "lost fact {fact:?} on larger input");
        }
    }
}
