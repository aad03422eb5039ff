//! Intra-procedural control-flow graphs.
//!
//! One CFG per method. Nodes are the method's statements plus a virtual
//! entry and exit node (matching the ICFG node-count convention of the
//! paper's Table I, which counts statement nodes).
//!
//! Edge rules:
//!
//! * entry → statement 0;
//! * fall-through `i → i+1` unless the statement is `goto`/`return`/`throw`;
//! * explicit jump targets for `goto`/`if`/`switch`;
//! * `return` → exit;
//! * `throw` → the nearest *following* exception-handler head (a statement
//!   assigning [`gdroid_ir::Expr::Exception`]), or exit when none exists —
//!   the flat-CFG equivalent of Dalvik try/catch ranges.

use gdroid_ir::{Expr, Method, Stmt, StmtIdx};

/// Dense CFG node index (0 = entry, 1.. = statements, last = exit).
pub type NodeId = u32;

/// What a CFG node represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CfgNode {
    /// Virtual entry node.
    Entry,
    /// A statement node.
    Stmt(StmtIdx),
    /// Virtual exit node.
    Exit,
}

/// An intra-procedural CFG.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Node payloads; index = [`NodeId`].
    pub nodes: Vec<CfgNode>,
    /// Successor adjacency (parallel to `nodes`).
    pub succs: Vec<Vec<NodeId>>,
    /// Predecessor adjacency (parallel to `nodes`).
    pub preds: Vec<Vec<NodeId>>,
}

impl Cfg {
    /// Builds the CFG of a method body.
    pub fn build(method: &Method) -> Cfg {
        let n = method.body.len();
        assert!(n > 0, "CFG of empty body");
        // Layout: node 0 = entry, nodes 1..=n = statements, node n+1 = exit.
        let node_count = n + 2;
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); node_count];

        // Pre-scan exception handler heads for throw routing.
        let handler_heads: Vec<usize> = method
            .body
            .iter_enumerated()
            .filter_map(|(idx, s)| match s {
                Stmt::Assign { rhs: Expr::Exception, .. } => Some(idx.index()),
                _ => None,
            })
            .collect();

        let entry: NodeId = 0;
        let exit: NodeId = (n + 1) as NodeId;
        let stmt_node = |i: usize| (i + 1) as NodeId;

        succs[entry as usize].push(stmt_node(0));
        let mut targets = Vec::new();
        for (idx, stmt) in method.body.iter_enumerated() {
            let i = idx.index();
            let me = stmt_node(i) as usize;
            match stmt {
                Stmt::Return { .. } => succs[me].push(exit),
                Stmt::Throw { .. } => {
                    // Nearest handler strictly after the throw.
                    match handler_heads.iter().find(|&&h| h > i) {
                        Some(&h) => succs[me].push(stmt_node(h)),
                        None => succs[me].push(exit),
                    }
                }
                Stmt::Goto { target } => succs[me].push(stmt_node(target.index())),
                _ => {
                    // Fall-through…
                    if i + 1 < n {
                        succs[me].push(stmt_node(i + 1));
                    } else {
                        // A validated body cannot end with a falling-through
                        // statement, but stay total anyway.
                        succs[me].push(exit);
                    }
                    // …plus explicit jump targets.
                    targets.clear();
                    stmt.jump_targets(&mut targets);
                    for t in &targets {
                        let tn = stmt_node(t.index());
                        if !succs[me].contains(&tn) {
                            succs[me].push(tn);
                        }
                    }
                }
            }
        }

        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); node_count];
        for (from, ss) in succs.iter().enumerate() {
            for &to in ss {
                preds[to as usize].push(from as NodeId);
            }
        }

        let mut nodes = Vec::with_capacity(node_count);
        nodes.push(CfgNode::Entry);
        for i in 0..n {
            nodes.push(CfgNode::Stmt(StmtIdx::new(i)));
        }
        nodes.push(CfgNode::Exit);

        Cfg { nodes, succs, preds }
    }

    /// The entry node id (always 0).
    #[inline]
    pub fn entry(&self) -> NodeId {
        0
    }

    /// The exit node id (always `len - 1`).
    #[inline]
    pub fn exit(&self) -> NodeId {
        (self.nodes.len() - 1) as NodeId
    }

    /// Number of nodes including entry/exit.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the CFG is empty (never true for built CFGs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of statement nodes.
    #[inline]
    pub fn stmt_count(&self) -> usize {
        self.nodes.len() - 2
    }

    /// The statement index of a node, if it is a statement node.
    #[inline]
    pub fn stmt_of(&self, node: NodeId) -> Option<StmtIdx> {
        match self.nodes[node as usize] {
            CfgNode::Stmt(s) => Some(s),
            _ => None,
        }
    }

    /// The node id of a statement index.
    #[inline]
    pub fn node_of(&self, stmt: StmtIdx) -> NodeId {
        (stmt.index() + 1) as NodeId
    }

    /// Successors of a node.
    #[inline]
    pub fn succ(&self, node: NodeId) -> &[NodeId] {
        &self.succs[node as usize]
    }

    /// Predecessors of a node.
    #[inline]
    pub fn pred(&self, node: NodeId) -> &[NodeId] {
        &self.preds[node as usize]
    }

    /// All nodes reachable from entry (sanity metric; unreachable code is
    /// possible after `goto` lowering).
    pub fn reachable_count(&self) -> usize {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![self.entry()];
        seen[0] = true;
        let mut count = 0;
        while let Some(n) = stack.pop() {
            count += 1;
            for &s in self.succ(n) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        count
    }

    /// All nodes that can reach one of `targets` by forward edges, i.e.
    /// backward reachability over [`Cfg::pred`]. Returned as a dense
    /// node-indexed mask (targets themselves included). The slicer uses
    /// this to restrict a method to the statements that matter for a sink.
    pub fn backward_reachable(&self, targets: &[NodeId]) -> Vec<bool> {
        let mut mask = vec![false; self.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for &t in targets {
            if !mask[t as usize] {
                mask[t as usize] = true;
                stack.push(t);
            }
        }
        while let Some(n) = stack.pop() {
            for &p in self.pred(n) {
                if !mask[p as usize] {
                    mask[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        mask
    }

    /// Back edges (target dominates source approximated as target ≤ source
    /// in statement order) — the revisit drivers for the worklist analysis.
    pub fn back_edge_count(&self) -> usize {
        let mut count = 0;
        for (from, ss) in self.succs.iter().enumerate() {
            for &to in ss {
                if (to as usize) <= from && to != 0 {
                    count += 1;
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_ir::{Expr, JType, Lhs, Literal, MethodKind, ProgramBuilder, Stmt, StmtIdx, VarId};

    fn build_method(stmts: Vec<Stmt>) -> Cfg {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("T").build();
        let mut mb = pb.method(cls, "m").kind(MethodKind::Static);
        let _a = mb.local("a", JType::Int);
        let _r = mb.local("r", JType::Object(gdroid_ir::Symbol(0)));
        for s in stmts {
            mb.stmt(s);
        }
        let mid = mb.build();
        let p = pb.finish();
        Cfg::build(&p.methods[mid])
    }

    #[test]
    fn straight_line_chain() {
        let cfg = build_method(vec![
            Stmt::Assign { lhs: Lhs::Var(VarId(0)), rhs: Expr::Lit(Literal::Int(1)) },
            Stmt::Empty,
            Stmt::Return { var: None },
        ]);
        assert_eq!(cfg.len(), 5);
        assert_eq!(cfg.succ(0), &[1]);
        assert_eq!(cfg.succ(1), &[2]);
        assert_eq!(cfg.succ(2), &[3]);
        assert_eq!(cfg.succ(3), &[cfg.exit()]);
        assert_eq!(cfg.pred(cfg.exit()), &[3]);
        assert_eq!(cfg.reachable_count(), 5);
    }

    #[test]
    fn if_has_two_successors() {
        let cfg = build_method(vec![
            Stmt::If { cond: VarId(0), target: StmtIdx(2) },
            Stmt::Empty,
            Stmt::Return { var: None },
        ]);
        // Node 1 = the if: fall-through to node 2 and jump to node 3.
        assert_eq!(cfg.succ(1), &[2, 3]);
    }

    #[test]
    fn goto_has_single_successor_no_fallthrough() {
        let cfg = build_method(vec![
            Stmt::Goto { target: StmtIdx(2) },
            Stmt::Empty, // unreachable
            Stmt::Return { var: None },
        ]);
        assert_eq!(cfg.succ(1), &[3]);
        assert_eq!(cfg.reachable_count(), 4); // entry, goto, return, exit
    }

    #[test]
    fn loop_creates_back_edge() {
        let cfg = build_method(vec![
            Stmt::If { cond: VarId(0), target: StmtIdx(3) }, // exit test
            Stmt::Empty,
            Stmt::Goto { target: StmtIdx(0) }, // back edge
            Stmt::Return { var: None },
        ]);
        assert!(cfg.back_edge_count() >= 1);
        // goto node (3) → if node (1).
        assert_eq!(cfg.succ(3), &[1]);
    }

    #[test]
    fn throw_routes_to_following_handler() {
        let cfg = build_method(vec![
            Stmt::If { cond: VarId(0), target: StmtIdx(2) },
            Stmt::Throw { var: VarId(1) },
            Stmt::Assign { lhs: Lhs::Var(VarId(1)), rhs: Expr::Exception },
            Stmt::Return { var: None },
        ]);
        // throw at node 2 routes to the handler at node 3, not exit.
        assert_eq!(cfg.succ(2), &[3]);
    }

    #[test]
    fn throw_without_handler_routes_to_exit() {
        let cfg = build_method(vec![
            Stmt::If { cond: VarId(0), target: StmtIdx(2) },
            Stmt::Throw { var: VarId(1) },
            Stmt::Return { var: None },
        ]);
        assert_eq!(cfg.succ(2), &[cfg.exit()]);
    }

    #[test]
    fn switch_fans_out() {
        let cfg = build_method(vec![
            Stmt::Switch {
                var: VarId(0),
                targets: vec![StmtIdx(1), StmtIdx(2)],
                default: StmtIdx(3),
            },
            Stmt::Empty,
            Stmt::Empty,
            Stmt::Return { var: None },
        ]);
        // switch node (1): fall-through 2 + targets 2,3,4 (dedup keeps 2 once).
        let s = cfg.succ(1);
        assert!(s.contains(&2) && s.contains(&3) && s.contains(&4));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn preds_mirror_succs() {
        let cfg = build_method(vec![
            Stmt::If { cond: VarId(0), target: StmtIdx(2) },
            Stmt::Empty,
            Stmt::Return { var: None },
        ]);
        for from in 0..cfg.len() as NodeId {
            for &to in cfg.succ(from) {
                assert!(cfg.pred(to).contains(&from));
            }
        }
    }

    #[test]
    fn backward_reachable_follows_preds_only() {
        let cfg = build_method(vec![
            Stmt::If { cond: VarId(0), target: StmtIdx(3) },
            Stmt::Empty,
            Stmt::Return { var: None },
            Stmt::Return { var: None },
        ]);
        // Target = node 2 (stmt 1): reaches entry, the if, itself — not the
        // jump-only branch (stmt 3) or anything downstream.
        let mask = cfg.backward_reachable(&[2]);
        assert!(mask[0] && mask[1] && mask[2]);
        assert!(!mask[3] && !mask[4] && !mask[cfg.exit() as usize]);
        // Empty target set reaches nothing.
        assert!(cfg.backward_reachable(&[]).iter().all(|&b| !b));
    }

    #[test]
    fn node_stmt_mapping_roundtrips() {
        let cfg = build_method(vec![Stmt::Empty, Stmt::Return { var: None }]);
        for i in 0..2 {
            let node = cfg.node_of(StmtIdx::new(i));
            assert_eq!(cfg.stmt_of(node), Some(StmtIdx::new(i)));
        }
        assert_eq!(cfg.stmt_of(cfg.entry()), None);
        assert_eq!(cfg.stmt_of(cfg.exit()), None);
    }
}
