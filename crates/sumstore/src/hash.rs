//! Canonical method hashing — the content address of the summary store.
//!
//! The canonical hash of a method is a 128-bit digest of everything that
//! determines its SBDA summary and per-node facts, and *nothing* that
//! depends on the surrounding program's accidents:
//!
//! * local-variable **names** are excluded (statements reference locals by
//!   positional `VarId`, so alpha-renaming is invisible by construction);
//! * interned `Symbol` and `FieldId`/`MethodId` *values* are never hashed
//!   raw — class names, field names, and string literals are resolved
//!   through the interner to their text, so two programs that intern in
//!   different orders (or interleave unrelated classes) agree;
//! * call sites fold in the canonical hash of every **resolved callee**,
//!   making the key transitive: hash equality implies the entire callee
//!   subtree is behaviorally identical, which is what lets a stored
//!   summary *and* fact matrix be reused verbatim;
//! * recursion is handled on the SCC condensation: intra-SCC edges fold a
//!   marker plus the callee's resolved signature into a per-member "local"
//!   hash, and every member's final hash combines its own local hash with
//!   the sorted local hashes of the whole component.
//!
//! Slot/instance numbering needs no explicit canonicalization: the
//! analysis' `MethodSpace` pools are pure positional functions of the
//! body, so structurally identical bodies get correspondingly ordered
//! pools in any program (see `gdroid_analysis::fact`).

use gdroid_icfg::{CallGraph, CallLayers, CallTarget};
use gdroid_ir::types::ArrayElem;
use gdroid_ir::{
    Expr, FieldId, Interner, JType, Lhs, Literal, Method, MethodId, MethodKind, Program, Signature,
    Stmt, Visibility,
};
use std::collections::HashMap;

/// 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 64-bit FNV-1a over a byte slice — the store file's checksum and the
/// serving and campaign layers' content, report and journal digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds more bytes into a 64-bit FNV-1a state.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Incremental 128-bit FNV-1a hasher.
#[derive(Clone)]
pub struct Fnv128(u128);

impl Fnv128 {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Fnv128 {
        Fnv128(FNV128_OFFSET)
    }

    /// Folds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Folds a tag byte.
    pub fn tag(&mut self, t: u8) {
        self.write(&[t]);
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u128` (little-endian).
    pub fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a length-prefixed string (prefix keeps "ab"+"c" ≠ "a"+"bc").
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

fn write_jtype(h: &mut Fnv128, ty: JType, interner: &Interner) {
    match ty {
        JType::Void => h.tag(0),
        JType::Boolean => h.tag(1),
        JType::Byte => h.tag(2),
        JType::Char => h.tag(3),
        JType::Short => h.tag(4),
        JType::Int => h.tag(5),
        JType::Long => h.tag(6),
        JType::Float => h.tag(7),
        JType::Double => h.tag(8),
        JType::Object(s) => {
            h.tag(9);
            h.write_str(interner.resolve(s));
        }
        JType::Array(ArrayElem::Prim(p)) => {
            h.tag(10);
            h.tag(p as u8);
        }
        JType::Array(ArrayElem::Object(s)) => {
            h.tag(11);
            h.write_str(interner.resolve(s));
        }
    }
}

fn write_sig(h: &mut Fnv128, sig: &Signature, interner: &Interner) {
    h.write_str(interner.resolve(sig.class));
    h.write_str(interner.resolve(sig.name));
    h.write_u32(sig.params.len() as u32);
    for &p in &sig.params {
        write_jtype(h, p, interner);
    }
    write_jtype(h, sig.ret, interner);
}

fn write_field(h: &mut Fnv128, f: FieldId, program: &Program) {
    let fd = &program.fields[f];
    h.write_str(program.interner.resolve(program.classes[fd.class].name));
    h.write_str(program.interner.resolve(fd.name));
    h.tag(fd.is_static as u8);
    write_jtype(h, fd.ty, &program.interner);
}

fn write_lhs(h: &mut Fnv128, lhs: &Lhs, program: &Program) {
    match lhs {
        Lhs::Var(v) => {
            h.tag(0);
            h.write_u32(v.0);
        }
        Lhs::Field { base, field } => {
            h.tag(1);
            h.write_u32(base.0);
            write_field(h, *field, program);
        }
        Lhs::StaticField { field } => {
            h.tag(2);
            write_field(h, *field, program);
        }
        Lhs::ArrayElem { base, index } => {
            h.tag(3);
            h.write_u32(base.0);
            h.write_u32(index.0);
        }
    }
}

fn write_expr(h: &mut Fnv128, e: &Expr, program: &Program) {
    let it = &program.interner;
    match e {
        Expr::Access { base, field } => {
            h.tag(0);
            h.write_u32(base.0);
            write_field(h, *field, program);
        }
        Expr::Binary { op, lhs, rhs } => {
            h.tag(1);
            h.tag(*op as u8);
            h.write_u32(lhs.0);
            h.write_u32(rhs.0);
        }
        Expr::CallRhs { ret } => {
            h.tag(2);
            h.write_u32(ret.0);
        }
        Expr::Cast { ty, operand } => {
            h.tag(3);
            write_jtype(h, *ty, it);
            h.write_u32(operand.0);
        }
        Expr::Cmp { kind, lhs, rhs } => {
            h.tag(4);
            h.tag(*kind as u8);
            h.write_u32(lhs.0);
            h.write_u32(rhs.0);
        }
        Expr::ConstClass { ty } => {
            h.tag(5);
            write_jtype(h, *ty, it);
        }
        Expr::Exception => h.tag(6),
        Expr::Indexing { base, index } => {
            h.tag(7);
            h.write_u32(base.0);
            h.write_u32(index.0);
        }
        Expr::InstanceOf { operand, ty } => {
            h.tag(8);
            h.write_u32(operand.0);
            write_jtype(h, *ty, it);
        }
        Expr::Length { base } => {
            h.tag(9);
            h.write_u32(base.0);
        }
        Expr::Lit(lit) => {
            h.tag(10);
            match lit {
                Literal::Int(v) => {
                    h.tag(0);
                    h.write(&v.to_le_bytes());
                }
                Literal::Float(v) => {
                    h.tag(1);
                    h.write_u64(v.to_bits());
                }
                Literal::Str(s) => {
                    h.tag(2);
                    h.write_str(it.resolve(*s));
                }
                Literal::Bool(b) => {
                    h.tag(3);
                    h.tag(*b as u8);
                }
            }
        }
        Expr::Var(v) => {
            h.tag(11);
            h.write_u32(v.0);
        }
        Expr::StaticField { field } => {
            h.tag(12);
            write_field(h, *field, program);
        }
        Expr::New { ty } => {
            h.tag(13);
            write_jtype(h, *ty, it);
        }
        Expr::Null => h.tag(14),
        Expr::Tuple { elems } => {
            h.tag(15);
            h.write_u32(elems.len() as u32);
            for v in elems {
                h.write_u32(v.0);
            }
        }
        Expr::Unary { op, operand } => {
            h.tag(16);
            h.tag(*op as u8);
            h.write_u32(operand.0);
        }
    }
}

fn kind_tag(k: MethodKind) -> u8 {
    match k {
        MethodKind::Instance => 0,
        MethodKind::Static => 1,
        MethodKind::Constructor => 2,
        MethodKind::LifecycleCallback => 3,
        MethodKind::Environment => 4,
    }
}

fn vis_tag(v: Visibility) -> u8 {
    match v {
        Visibility::Public => 0,
        Visibility::Protected => 1,
        Visibility::Private => 2,
    }
}

/// The "local" hash of one method: its own structure plus callee
/// bindings, with intra-SCC callees folded symbolically (marker +
/// resolved signature) since their final hashes are not yet known.
fn local_hash(
    program: &Program,
    cg: &CallGraph,
    mid: MethodId,
    done: &HashMap<MethodId, u128>,
    scc: &[MethodId],
) -> u128 {
    let m: &Method = &program.methods[mid];
    let it = &program.interner;
    let mut h = Fnv128::new();

    write_sig(&mut h, &m.sig, it);
    h.tag(kind_tag(m.kind));
    h.tag(vis_tag(m.visibility));
    h.tag(m.this_var.is_some() as u8);
    // Variable *types* in declaration order; names are printing-only.
    h.write_u32(m.params.len() as u32);
    h.write_u32(m.vars.len() as u32);
    for v in m.vars.iter() {
        write_jtype(&mut h, v.ty, it);
    }

    h.write_u32(m.body.len() as u32);
    for (idx, stmt) in m.body.iter_enumerated() {
        match stmt {
            Stmt::Assign { lhs, rhs } => {
                h.tag(0);
                write_lhs(&mut h, lhs, program);
                write_expr(&mut h, rhs, program);
            }
            Stmt::Empty => h.tag(1),
            Stmt::Monitor { op, var } => {
                h.tag(2);
                h.tag(*op as u8);
                h.write_u32(var.0);
            }
            Stmt::Throw { var } => {
                h.tag(3);
                h.write_u32(var.0);
            }
            Stmt::Call { ret, kind, sig, args } => {
                h.tag(4);
                match ret {
                    Some(v) => {
                        h.tag(1);
                        h.write_u32(v.0);
                    }
                    None => h.tag(0),
                }
                h.tag(*kind as u8);
                write_sig(&mut h, sig, it);
                h.write_u32(args.len() as u32);
                for a in args {
                    h.write_u32(a.0);
                }
                // Callee binding: the transitive part of the key.
                match cg.site(mid, idx) {
                    None => h.tag(0),
                    Some(CallTarget::External(esig)) => {
                        h.tag(1);
                        write_sig(&mut h, esig, it);
                    }
                    Some(CallTarget::Internal(targets)) => {
                        h.tag(2);
                        h.write_u32(targets.len() as u32);
                        // Sorted for order-independence of multi-target
                        // virtual dispatch.
                        let mut folded: Vec<u128> = targets
                            .iter()
                            .map(|&t| {
                                if scc.contains(&t) {
                                    // Same component: marker + resolved
                                    // signature (final hash unknown yet).
                                    let mut sh = Fnv128::new();
                                    sh.tag(1);
                                    write_sig(&mut sh, &program.methods[t].sig, it);
                                    sh.finish()
                                } else if let Some(&th) = done.get(&t) {
                                    th
                                } else {
                                    // Defensive: unscheduled callee binds
                                    // by resolved signature.
                                    let mut sh = Fnv128::new();
                                    sh.tag(2);
                                    write_sig(&mut sh, &program.methods[t].sig, it);
                                    sh.finish()
                                }
                            })
                            .collect();
                        folded.sort_unstable();
                        for f in folded {
                            h.write_u128(f);
                        }
                    }
                }
            }
            Stmt::Goto { target } => {
                h.tag(5);
                h.write_u32(target.0);
            }
            Stmt::If { cond, target } => {
                h.tag(6);
                h.write_u32(cond.0);
                h.write_u32(target.0);
            }
            Stmt::Return { var } => {
                h.tag(7);
                match var {
                    Some(v) => {
                        h.tag(1);
                        h.write_u32(v.0);
                    }
                    None => h.tag(0),
                }
            }
            Stmt::Switch { var, targets, default } => {
                h.tag(8);
                h.write_u32(var.0);
                h.write_u32(targets.len() as u32);
                for t in targets {
                    h.write_u32(t.0);
                }
                h.write_u32(default.0);
            }
        }
    }
    h.finish()
}

/// Computes the canonical hash of every method reachable from `roots`,
/// bottom-up over the SBDA layering so callee hashes exist before their
/// callers fold them in.
pub fn canonical_hashes(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
) -> HashMap<MethodId, u128> {
    let layers = CallLayers::compute(cg, roots);
    let mut hashes: HashMap<MethodId, u128> = HashMap::with_capacity(layers.method_count());

    // SCCs ordered bottom-up; components on the same layer have no edges
    // between each other, so within-layer order is irrelevant.
    let mut scc_order: Vec<usize> = (0..layers.scc_members.len()).collect();
    scc_order.sort_by_key(|&s| (layers.scc_layer[s], s));

    for s in scc_order {
        let members = &layers.scc_members[s];
        let locals: Vec<u128> =
            members.iter().map(|&m| local_hash(program, cg, m, &hashes, members)).collect();
        let mut sorted = locals.clone();
        sorted.sort_unstable();
        for (i, &m) in members.iter().enumerate() {
            // Final hash: own local hash + the whole component's sorted
            // local hashes, so mutually recursive methods key on the
            // entire cycle.
            let mut h = Fnv128::new();
            h.write_u128(locals[i]);
            for &l in &sorted {
                h.write_u128(l);
            }
            hashes.insert(m, h.finish());
        }
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_ir::text::{parse_program, print_program};

    fn all_hashes(program: &Program) -> HashMap<MethodId, u128> {
        let cg = CallGraph::build(program);
        let roots: Vec<MethodId> = (0..program.methods.len() as u32).map(MethodId).collect();
        canonical_hashes(program, &cg, &roots)
    }

    #[test]
    fn hash_survives_reinterning() {
        // print → parse builds a fresh interner with a different symbol
        // order; canonical hashes must agree method-for-method.
        let app = generate_app(0, 4100, &GenConfig::tiny());
        let ha = all_hashes(&app.program);
        let reparsed = parse_program(&print_program(&app.program)).expect("reparse");
        let hb = all_hashes(&reparsed);
        assert_eq!(ha.len(), hb.len());
        for (mid, &h) in &ha {
            let sig = &app.program.methods[*mid].sig;
            let name = format!(
                "{}::{}",
                app.program.interner.resolve(sig.class),
                app.program.interner.resolve(sig.name)
            );
            let other = hb
                .iter()
                .find(|(m2, _)| {
                    let s2 = &reparsed.methods[**m2].sig;
                    format!(
                        "{}::{}",
                        reparsed.interner.resolve(s2.class),
                        reparsed.interner.resolve(s2.name)
                    ) == name
                })
                .map(|(_, h2)| *h2);
            assert_eq!(other, Some(h), "hash changed across re-interning for {name}");
        }
    }

    #[test]
    fn distinct_bodies_never_collide() {
        // Across several apps, two methods may share a hash only when
        // they are the same code (framework methods, shared libraries).
        // The generator interns the framework first, so identical code
        // across apps has an identical Debug form too.
        let mut by_hash: HashMap<u128, String> = HashMap::new();
        for seed in 0..4u64 {
            let app = generate_app(seed as usize, 3200 + seed, &GenConfig::tiny());
            for (mid, h) in all_hashes(&app.program) {
                let m = &app.program.methods[mid];
                let body = format!("{:?} {:?}", m.sig, m.body.as_slice());
                match by_hash.entry(h) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(body);
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        assert_eq!(e.get(), &body, "hash collision between distinct bodies");
                    }
                }
            }
        }
        assert!(by_hash.len() > 50, "expected many distinct method hashes");
    }

    #[test]
    fn shared_library_methods_hash_identically_across_apps() {
        // The tentpole property: two different apps (different seeds,
        // different interner contents, different field numbering) that
        // bundle the same library package agree on every library method's
        // canonical hash — so a summary computed in one app is a store
        // hit in the other.
        let cfg = GenConfig::tiny().with_libraries(2, 2);
        let a = generate_app(0, 6100, &cfg);
        let b = generate_app(1, 6200, &cfg);
        let lib_hashes = |p: &Program| -> HashMap<String, u128> {
            all_hashes(p)
                .into_iter()
                .filter_map(|(mid, h)| {
                    let sig = &p.methods[mid].sig;
                    let cls = p.interner.resolve(sig.class);
                    cls.starts_with("com/lib/")
                        .then(|| (format!("{cls}::{}", p.interner.resolve(sig.name)), h))
                })
                .collect()
        };
        let (ha, hb) = (lib_hashes(&a.program), lib_hashes(&b.program));
        let mut shared = 0;
        for (name, h) in &ha {
            if let Some(h2) = hb.get(name) {
                assert_eq!(h, h2, "library method {name} hashes differ across apps");
                shared += 1;
            }
        }
        assert!(shared > 10, "apps share too few library methods ({shared})");
    }
}
