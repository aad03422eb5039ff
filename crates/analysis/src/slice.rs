//! Backward inter-procedural slicing from sink statements.
//!
//! Demand-driven vetting (BackDroid-style) answers "can anything flow into
//! these sinks?" without building the full IDFG. This module computes the
//! set of methods whose analysis can influence a sink verdict — the
//! **slice** — so an engine schedules only those methods (the GPU driver
//! seeds and launches only their blocks).
//!
//! The slice is a closure over three rules, iterated to a fixed point:
//!
//! * **R1 (callers):** every method containing a sink is a member, and
//!   every *reachable* caller of a member is a member. Consequently no
//!   method outside the slice ever calls into it.
//! * **R2 (exact members):** a member with at least one reachable caller
//!   is **exact** — its exit summary feeds that caller, so its entire
//!   behavior matters and all of its internal callees join the slice.
//! * **R3 (partial roots):** a member with no reachable caller is a
//!   **partial root** — an analysis entry whose summary nobody consumes.
//!   Only its facts *at* sink statements and at call sites targeting the
//!   slice matter, and facts at a CFG node depend only on the nodes that
//!   can reach it. So the root is refined by backward-CFG reachability
//!   from those relevant statements, and only call sites inside that
//!   region pull their callees into the slice.
//!
//! Exactness argument (why targeted verdicts equal full verdicts): by R1
//! the slice is closed under reachable callers, so data can enter sliced
//! methods only through call sites the slice itself contains; by R2 every
//! exact member sees the same entry facts and the same callee summaries
//! as in a full run (induction bottom-up over the restricted schedule);
//! by R3 a partial root's facts at every relevant node coincide with the
//! full run because pruned call sites cannot reach a relevant node. The
//! tier-1 gate (`tests/targeted_gate.rs`) checks the resulting per-sink
//! verdict agreement empirically over the whole corpus.

use gdroid_icfg::{CallGraph, Cfg, NodeId};
use gdroid_ir::{MethodId, Program, Stmt, StmtIdx};
use std::collections::{HashMap, HashSet};

/// A backward inter-procedural slice rooted at sink statements.
#[derive(Clone, Debug, Default)]
pub struct BackwardSlice {
    /// All slice members (methods the targeted run must analyze).
    pub members: HashSet<MethodId>,
    /// Members whose facts and summaries are bit-identical to a full run
    /// (they have at least one reachable caller, which is also a member).
    pub exact: HashSet<MethodId>,
    /// Partial roots: members with no reachable caller, analyzed for
    /// their relevant region only. Sorted.
    pub roots: Vec<MethodId>,
    /// Methods containing at least one (reachable) sink statement. Sorted.
    pub sink_methods: Vec<MethodId>,
    /// Per partial root: dense CFG-node mask of the backward-reachable
    /// relevant region (see [`Cfg::backward_reachable`]).
    pub relevant: HashMap<MethodId, Vec<bool>>,
    /// Size of the full reachable method set the slice was carved from.
    pub total_reachable: usize,
}

impl BackwardSlice {
    /// Computes the slice of `program` for the given analysis entry
    /// `roots` and `sink_sites` (call statements that invoke a sink).
    /// Sinks in methods unreachable from `roots` are ignored — the full
    /// analysis would never reach them either.
    pub fn compute(
        program: &Program,
        cg: &CallGraph,
        roots: &[MethodId],
        sink_sites: &[(MethodId, StmtIdx)],
    ) -> BackwardSlice {
        let reach_vec = cg.reachable_from(roots);
        let reach: HashSet<MethodId> = reach_vec.iter().copied().collect();
        let total_reachable = reach.len();

        let mut sink_stmts: HashMap<MethodId, Vec<StmtIdx>> = HashMap::new();
        for &(m, s) in sink_sites {
            if reach.contains(&m) {
                sink_stmts.entry(m).or_default().push(s);
            }
        }
        let mut sink_methods: Vec<MethodId> = sink_stmts.keys().copied().collect();
        sink_methods.sort_unstable();

        let mut members: HashSet<MethodId> = sink_stmts.keys().copied().collect();
        let mut exact: HashSet<MethodId> = HashSet::new();
        let mut relevant: HashMap<MethodId, Vec<bool>> = HashMap::new();
        // Partial-root CFGs are rebuilt per round as the slice grows; cache
        // them across rounds (bodies never change).
        let mut cfgs: HashMap<MethodId, Cfg> = HashMap::new();

        loop {
            let mut changed = false;

            // R1: close over reachable callers.
            let mut queue: Vec<MethodId> = members.iter().copied().collect();
            while let Some(m) = queue.pop() {
                for &c in cg.callers_of(m) {
                    if reach.contains(&c) && members.insert(c) {
                        queue.push(c);
                        changed = true;
                    }
                }
            }

            // Classify: exact iff some reachable caller exists (that
            // caller is itself a member by R1).
            exact.clear();
            exact.extend(
                members
                    .iter()
                    .copied()
                    .filter(|&m| cg.callers_of(m).iter().any(|c| reach.contains(c))),
            );

            // R2: exact members contribute every internal callee.
            let snapshot: Vec<MethodId> = exact.iter().copied().collect();
            for m in snapshot {
                for &c in cg.callees_of(m) {
                    changed |= members.insert(c);
                }
            }

            // R3: partial roots contribute only callees of call sites in
            // the backward-reachable region of their relevant statements.
            relevant.clear();
            let proots: Vec<MethodId> =
                members.iter().copied().filter(|m| !exact.contains(m)).collect();
            for r in proots {
                let cfg = cfgs.entry(r).or_insert_with(|| Cfg::build(&program.methods[r]));
                let mut targets: Vec<NodeId> = Vec::new();
                if let Some(stmts) = sink_stmts.get(&r) {
                    targets.extend(stmts.iter().map(|&s| cfg.node_of(s)));
                }
                for (idx, stmt) in program.methods[r].body.iter_enumerated() {
                    if !matches!(stmt, Stmt::Call { .. }) {
                        continue;
                    }
                    let Some(site) = cg.site(r, idx) else { continue };
                    if site.internal().iter().any(|t| members.contains(t)) {
                        targets.push(cfg.node_of(idx));
                    }
                }
                let mask = cfg.backward_reachable(&targets);
                for (idx, stmt) in program.methods[r].body.iter_enumerated() {
                    if !matches!(stmt, Stmt::Call { .. }) || !mask[cfg.node_of(idx) as usize] {
                        continue;
                    }
                    let Some(site) = cg.site(r, idx) else { continue };
                    for &t in site.internal() {
                        changed |= members.insert(t);
                    }
                }
                relevant.insert(r, mask);
            }

            if !changed {
                break;
            }
        }

        let mut roots_out: Vec<MethodId> =
            members.iter().copied().filter(|m| !exact.contains(m)).collect();
        roots_out.sort_unstable();

        BackwardSlice { members, exact, roots: roots_out, sink_methods, relevant, total_reachable }
    }

    /// Number of slice members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the slice is empty (no reachable sink at all).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Reachable methods the targeted run skips.
    pub fn methods_skipped(&self) -> usize {
        self.total_reachable - self.members.len()
    }

    /// Fraction of the reachable method set the slice retains (0 when
    /// nothing is reachable).
    pub fn sliced_fraction(&self) -> f64 {
        if self.total_reachable == 0 {
            0.0
        } else {
            self.members.len() as f64 / self.total_reachable as f64
        }
    }

    /// Whether a statement participates in the slice: its method must be
    /// a member, and in a partial root the statement must additionally sit
    /// inside the relevant backward-reachable region. The lint layer uses
    /// this to decide if a source call site can influence the slice's
    /// sinks.
    pub fn contains_site(&self, mid: MethodId, stmt: StmtIdx) -> bool {
        if !self.members.contains(&mid) {
            return false;
        }
        match self.relevant.get(&mid) {
            // Node id of a statement is `index + 1` (entry is node 0).
            Some(mask) => mask.get(stmt.index() + 1).copied().unwrap_or(false),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_ir::{CallKind, MethodKind, ProgramBuilder, Signature};

    /// A program of `n` static methods where method `i`'s body is the
    /// calls listed for it (in order) followed by a return.
    fn call_program(n: usize, edges: &[(usize, usize)]) -> (Program, Vec<MethodId>) {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut sigs: Vec<Signature> = Vec::new();
        for i in 0..n {
            let mut mb = pb.method(cls, &format!("m{i}")).kind(MethodKind::Static);
            mb.stmt(Stmt::Return { var: None });
            let mid = mb.build();
            sigs.push(pb.program().methods[mid].sig.clone());
        }
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mids = Vec::new();
        for i in 0..n {
            let mut mb = pb.method(cls, &format!("m{i}")).kind(MethodKind::Static);
            for &(from, to) in edges {
                if from == i {
                    mb.stmt(Stmt::Call {
                        ret: None,
                        kind: CallKind::Static,
                        sig: sigs[to].clone(),
                        args: vec![],
                    });
                }
            }
            mb.stmt(Stmt::Return { var: None });
            mids.push(mb.build());
        }
        (pb.finish(), mids)
    }

    #[test]
    fn ancestors_join_and_unrelated_branches_stay_out() {
        // m0 -> m1 -> m2 (sink), m0 -> m3. The call to m3 comes after the
        // call to m1, so it is not backward-reachable from the relevant
        // site and m3 stays out of the slice.
        let (p, m) = call_program(4, &[(0, 1), (0, 3), (1, 2)]);
        let cg = CallGraph::build(&p);
        let sink = (m[2], StmtIdx(0));
        let slice = BackwardSlice::compute(&p, &cg, &[m[0]], &[sink]);
        assert!(slice.members.contains(&m[0]));
        assert!(slice.members.contains(&m[1]));
        assert!(slice.members.contains(&m[2]));
        assert!(!slice.members.contains(&m[3]), "{:?}", slice.members);
        assert_eq!(slice.roots, vec![m[0]]);
        assert!(slice.exact.contains(&m[1]) && slice.exact.contains(&m[2]));
        assert_eq!(slice.sink_methods, vec![m[2]]);
        assert_eq!(slice.total_reachable, 4);
        assert_eq!(slice.methods_skipped(), 1);
        assert!(slice.sliced_fraction() < 1.0);
    }

    #[test]
    fn earlier_call_sites_in_relevant_region_pull_their_callees() {
        // m0 body: call m3; call m1; return. The m3 call precedes the
        // relevant m1 call, so m3's effects can reach it: m3 joins.
        let (p, m) = call_program(4, &[(0, 3), (0, 1), (1, 2)]);
        let cg = CallGraph::build(&p);
        let slice = BackwardSlice::compute(&p, &cg, &[m[0]], &[(m[2], StmtIdx(0))]);
        assert!(slice.members.contains(&m[3]));
        assert!(slice.exact.contains(&m[3]), "m3 has a member caller");
    }

    #[test]
    fn exact_members_pull_all_callees() {
        // m0 -> m1 (sink in m1); m1 -> m2 after the sink. m1 is exact (its
        // summary feeds m0), so m2 joins even though the sink precedes it.
        let (p, m) = call_program(3, &[(0, 1), (1, 2)]);
        let cg = CallGraph::build(&p);
        // Sink = m1's call statement itself (stmt 0 of m1).
        let slice = BackwardSlice::compute(&p, &cg, &[m[0]], &[(m[1], StmtIdx(0))]);
        assert!(slice.members.contains(&m[2]));
    }

    #[test]
    fn unreachable_sinks_and_empty_sink_sets_give_empty_slices() {
        let (p, m) = call_program(3, &[(0, 1)]);
        let cg = CallGraph::build(&p);
        // m2 is unreachable from m0: its sink is ignored.
        let slice = BackwardSlice::compute(&p, &cg, &[m[0]], &[(m[2], StmtIdx(0))]);
        assert!(slice.is_empty());
        assert_eq!(slice.sliced_fraction(), 0.0);
        let none = BackwardSlice::compute(&p, &cg, &[m[0]], &[]);
        assert!(none.is_empty());
        assert_eq!(none.methods_skipped(), none.total_reachable);
    }

    #[test]
    fn contains_site_refines_partial_roots_only() {
        let (p, m) = call_program(4, &[(0, 1), (0, 3), (1, 2)]);
        let cg = CallGraph::build(&p);
        let slice = BackwardSlice::compute(&p, &cg, &[m[0]], &[(m[2], StmtIdx(0))]);
        // Root m0: the m1 call (stmt 0) is relevant, the m3 call (stmt 1)
        // is not, non-members never contain sites.
        assert!(slice.contains_site(m[0], StmtIdx(0)));
        assert!(!slice.contains_site(m[0], StmtIdx(1)));
        assert!(slice.contains_site(m[1], StmtIdx(0)));
        assert!(!slice.contains_site(m[3], StmtIdx(0)));
    }

    #[test]
    fn recursive_sccs_stay_whole() {
        // m0 -> m1 <-> m2, sink in m2: both SCC members are exact members.
        let (p, m) = call_program(3, &[(0, 1), (1, 2), (2, 1)]);
        let cg = CallGraph::build(&p);
        let slice = BackwardSlice::compute(&p, &cg, &[m[0]], &[(m[2], StmtIdx(0))]);
        assert!(slice.members.contains(&m[1]) && slice.members.contains(&m[2]));
        assert!(slice.exact.contains(&m[1]) && slice.exact.contains(&m[2]));
    }
}
