//! Call-graph SCC condensation and bottom-up layering for SBDA.
//!
//! Summary-based Bottom-up Data-flow Analysis (SBDA, Dillig et al.)
//! computes one heap summary per method, visiting methods bottom-up over
//! the call graph so a caller's analysis only needs its callees'
//! *finished* summaries. Methods in the same layer are then mutually
//! independent — exactly the property the GDroid paper uses to map one
//! method to one GPU thread-block ("two-level parallelization", §III-A2).
//!
//! Recursion makes the call graph cyclic, so layering happens on the
//! Tarjan SCC condensation; an SCC's members share a layer and their
//! summaries are iterated to a joint fixed point by the analysis.

use crate::callgraph::CallGraph;
use gdroid_ir::MethodId;
use std::collections::{HashMap, HashSet};

/// Index of a strongly connected component.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SccId(pub u32);

/// The SBDA schedule: SCCs, their members, and bottom-up layers.
#[derive(Clone, Debug, Default)]
pub struct CallLayers {
    /// SCC membership per method.
    pub scc_of: HashMap<MethodId, SccId>,
    /// Members of each SCC (index = `SccId`).
    pub scc_members: Vec<Vec<MethodId>>,
    /// Layer of each SCC: leaves are layer 0; `layer(s) =
    /// 1 + max(layer(callee SCCs))`.
    pub scc_layer: Vec<u32>,
    /// Methods grouped by layer, bottom-up: `layers[0]` are leaves.
    pub layers: Vec<Vec<MethodId>>,
}

impl CallLayers {
    /// Computes the schedule for the methods reachable from `roots`.
    pub fn compute(cg: &CallGraph, roots: &[MethodId]) -> CallLayers {
        Self::compute_cut(cg, roots, None, &HashSet::new())
    }

    /// [`CallLayers::compute`] over a cut call graph.
    ///
    /// Every method in `leaves` is treated as pre-summarized: its call
    /// edges are not traversed, so it sits at layer 0 and methods
    /// reachable only *through* it are not scheduled at all. This is the
    /// summary-store schedule — store-hit methods become leaves whose
    /// blocks never enter the GPU worklist, and the layers above them
    /// compress accordingly.
    ///
    /// With a `slice`, only its members are traversed and call edges
    /// leaving it are cut (leaves keep their slice membership). Both
    /// drivers, the GPU's and the CPU's, schedule a targeted run with it,
    /// so only slice members are solved while the bottom-up SCC layer
    /// structure of the full schedule is kept.
    pub fn compute_cut(
        cg: &CallGraph,
        roots: &[MethodId],
        slice: Option<&HashSet<MethodId>>,
        leaves: &HashSet<MethodId>,
    ) -> CallLayers {
        let in_slice = |m: &MethodId| slice.is_none_or(|s| s.contains(m));
        let empty: &[MethodId] = &[];
        let callees = |m: MethodId| if leaves.contains(&m) { empty } else { cg.callees_of(m) };
        // Same traversal as `CallGraph::reachable_from`, over the cut
        // graph. Only slice members enter `methods`, and the condensation
        // ignores callees outside it, which cuts the edges leaving the
        // slice.
        let mut stack: Vec<MethodId> = roots.iter().copied().filter(in_slice).collect();
        let mut seen: HashSet<MethodId> = stack.iter().copied().collect();
        let mut methods = Vec::new();
        while let Some(m) = stack.pop() {
            methods.push(m);
            for &c in callees(m) {
                if in_slice(&c) && seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        Self::condense(&methods, &callees)
    }

    /// Shared condensation + layering over a callee view of the graph.
    fn condense<'f>(
        methods: &[MethodId],
        callees: &impl Fn(MethodId) -> &'f [MethodId],
    ) -> CallLayers {
        let tarjan = Tarjan::run(methods, callees);

        // Condensation edges and per-SCC layer (bottom-up: Tarjan emits
        // SCCs in reverse topological order, i.e. callees before callers).
        let scc_count = tarjan.members.len();
        let mut scc_layer = vec![0u32; scc_count];
        for (scc_idx, members) in tarjan.members.iter().enumerate() {
            let mut layer = 0;
            for &m in members {
                for &callee in callees(m) {
                    let Some(&callee_scc) = tarjan.scc_of.get(&callee) else { continue };
                    if callee_scc.0 as usize != scc_idx {
                        layer = layer.max(scc_layer[callee_scc.0 as usize] + 1);
                    }
                }
            }
            scc_layer[scc_idx] = layer;
        }

        let max_layer = scc_layer.iter().copied().max().unwrap_or(0);
        let mut layers: Vec<Vec<MethodId>> = vec![Vec::new(); max_layer as usize + 1];
        for (scc_idx, members) in tarjan.members.iter().enumerate() {
            let l = scc_layer[scc_idx] as usize;
            layers[l].extend(members.iter().copied());
        }
        // Deterministic order inside each layer.
        for l in &mut layers {
            l.sort_unstable();
        }

        CallLayers { scc_of: tarjan.scc_of, scc_members: tarjan.members, scc_layer, layers }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The layer of a method.
    pub fn layer_of(&self, m: MethodId) -> Option<u32> {
        self.scc_of.get(&m).map(|s| self.scc_layer[s.0 as usize])
    }

    /// Whether a method participates in recursion (its SCC has >1 member,
    /// or it calls itself).
    pub fn is_recursive(&self, m: MethodId, cg: &CallGraph) -> bool {
        match self.scc_of.get(&m) {
            Some(&scc) => {
                self.scc_members[scc.0 as usize].len() > 1 || cg.callees_of(m).contains(&m)
            }
            None => false,
        }
    }

    /// The schedule as a driver walks it: per layer, bottom-up, that
    /// layer's SCCs in `SccId` order, recursion decided once per SCC.
    /// SCCs of one layer never call each other.
    pub fn sccs_by_layer(&self, cg: &CallGraph) -> Vec<Vec<LayerScc<'_>>> {
        let mut buckets = vec![Vec::new(); self.layer_count()];
        for (members, &layer) in self.scc_members.iter().zip(&self.scc_layer) {
            let recursive = self.is_recursive(members[0], cg);
            buckets[layer as usize].push(LayerScc { members, recursive });
        }
        buckets
    }

    /// Total scheduled methods.
    pub fn method_count(&self) -> usize {
        self.scc_of.len()
    }
}

/// One SCC of a layer, as [`CallLayers::sccs_by_layer`] hands it out.
#[derive(Clone, Copy, Debug)]
pub struct LayerScc<'a> {
    /// Its members, sorted.
    pub members: &'a [MethodId],
    /// Whether its summaries must be iterated to a joint fixed point:
    /// several members, or one that calls itself.
    pub recursive: bool,
}

/// Iterative Tarjan SCC (explicit stack; app call graphs can be deep).
struct Tarjan {
    scc_of: HashMap<MethodId, SccId>,
    members: Vec<Vec<MethodId>>,
}

impl Tarjan {
    fn run<'f>(methods: &[MethodId], callees_of: &impl Fn(MethodId) -> &'f [MethodId]) -> Tarjan {
        #[derive(Clone, Copy)]
        struct NodeState {
            index: u32,
            lowlink: u32,
            on_stack: bool,
        }
        let mut state: HashMap<MethodId, NodeState> = HashMap::with_capacity(methods.len());
        let in_scope: HashSet<MethodId> = methods.iter().copied().collect();
        let mut stack: Vec<MethodId> = Vec::new();
        let mut next_index = 0u32;
        let mut scc_of = HashMap::with_capacity(methods.len());
        let mut members: Vec<Vec<MethodId>> = Vec::new();

        // Explicit DFS frame: (node, next-callee-cursor).
        for &root in methods {
            if state.contains_key(&root) {
                continue;
            }
            let mut frames: Vec<(MethodId, usize)> = vec![(root, 0)];
            state
                .insert(root, NodeState { index: next_index, lowlink: next_index, on_stack: true });
            next_index += 1;
            stack.push(root);

            while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
                let callees = callees_of(v);
                if *cursor < callees.len() {
                    let w = callees[*cursor];
                    *cursor += 1;
                    if !in_scope.contains(&w) {
                        continue;
                    }
                    match state.get(&w) {
                        None => {
                            state.insert(
                                w,
                                NodeState {
                                    index: next_index,
                                    lowlink: next_index,
                                    on_stack: true,
                                },
                            );
                            next_index += 1;
                            stack.push(w);
                            frames.push((w, 0));
                        }
                        Some(ws) if ws.on_stack => {
                            let w_index = ws.index;
                            let vs = state.get_mut(&v).unwrap();
                            vs.lowlink = vs.lowlink.min(w_index);
                        }
                        Some(_) => {}
                    }
                } else {
                    // Post-order: pop the frame, fold lowlink into parent,
                    // emit an SCC if v is a root.
                    frames.pop();
                    let v_state = state[&v];
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        let pl = state.get_mut(&parent).unwrap();
                        pl.lowlink = pl.lowlink.min(v_state.lowlink);
                    }
                    if v_state.lowlink == v_state.index {
                        let scc = SccId(members.len() as u32);
                        let mut group = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            state.get_mut(&w).unwrap().on_stack = false;
                            scc_of.insert(w, scc);
                            group.push(w);
                            if w == v {
                                break;
                            }
                        }
                        group.sort_unstable();
                        members.push(group);
                    }
                }
            }
        }
        Tarjan { scc_of, members }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_ir::{CallKind, MethodKind, ProgramBuilder, Signature, Stmt};

    /// Builds a program with the given call edges `caller -> callee` (by
    /// method index) and returns (program, methods).
    fn call_chain(n: usize, edges: &[(usize, usize)]) -> (gdroid_ir::Program, Vec<MethodId>) {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        // First create all methods with empty bodies, collect signatures.
        let mut sigs: Vec<Signature> = Vec::new();
        let mut mids: Vec<MethodId> = Vec::new();
        for i in 0..n {
            let mut mb = pb.method(cls, &format!("m{i}")).kind(MethodKind::Static);
            mb.stmt(Stmt::Return { var: None });
            let mid = mb.build();
            sigs.push(pb.program().methods[mid].sig.clone());
            mids.push(mid);
        }
        // Rebuild bodies with the calls. Simpler: add caller wrapper methods
        // would change ids, so instead we regenerate: build a fresh program
        // where each body contains its calls then return.
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("A").build();
        let mut mids2: Vec<MethodId> = Vec::new();
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
            mids2.push(mb.build());
        }
        (pb.finish(), mids2)
    }

    #[test]
    fn linear_chain_layers() {
        // m0 -> m1 -> m2: m2 is a leaf (layer 0), m0 top (layer 2).
        let (p, m) = call_chain(3, &[(0, 1), (1, 2)]);
        let cg = CallGraph::build(&p);
        let layers = CallLayers::compute(&cg, &[m[0]]);
        assert_eq!(layers.layer_of(m[2]), Some(0));
        assert_eq!(layers.layer_of(m[1]), Some(1));
        assert_eq!(layers.layer_of(m[0]), Some(2));
        assert_eq!(layers.layer_count(), 3);
        assert!(!layers.is_recursive(m[0], &cg));
    }

    #[test]
    fn mutual_recursion_shares_scc_and_layer() {
        // m0 -> m1 <-> m2 -> m3.
        let (p, m) = call_chain(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let cg = CallGraph::build(&p);
        let layers = CallLayers::compute(&cg, &[m[0]]);
        assert_eq!(layers.scc_of[&m[1]], layers.scc_of[&m[2]]);
        assert_eq!(layers.layer_of(m[1]), layers.layer_of(m[2]));
        assert_eq!(layers.layer_of(m[3]), Some(0));
        assert_eq!(layers.layer_of(m[1]), Some(1));
        assert_eq!(layers.layer_of(m[0]), Some(2));
        assert!(layers.is_recursive(m[1], &cg));
        assert!(layers.is_recursive(m[2], &cg));
        assert!(!layers.is_recursive(m[3], &cg));
    }

    #[test]
    fn self_recursion_detected() {
        let (p, m) = call_chain(2, &[(0, 0), (0, 1)]);
        let cg = CallGraph::build(&p);
        let layers = CallLayers::compute(&cg, &[m[0]]);
        assert!(layers.is_recursive(m[0], &cg));
        assert!(!layers.is_recursive(m[1], &cg));
    }

    #[test]
    fn only_reachable_methods_scheduled() {
        let (p, m) = call_chain(3, &[(0, 1)]);
        let cg = CallGraph::build(&p);
        let layers = CallLayers::compute(&cg, &[m[0]]);
        assert_eq!(layers.method_count(), 2);
        assert_eq!(layers.layer_of(m[2]), None);
    }

    #[test]
    fn layers_respect_callee_before_caller() {
        // Diamond: m0 -> m1, m0 -> m2, m1 -> m3, m2 -> m3.
        let (p, m) = call_chain(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let cg = CallGraph::build(&p);
        let layers = CallLayers::compute(&cg, &[m[0]]);
        for (i, layer) in layers.layers.iter().enumerate() {
            for &method in layer {
                for &callee in cg.callees_of(method) {
                    let cl = layers.layer_of(callee).unwrap() as usize;
                    assert!(
                        cl < i || layers.scc_of[&callee] == layers.scc_of[&method],
                        "callee {callee:?} (layer {cl}) not below caller {method:?} (layer {i})"
                    );
                }
            }
        }
    }

    #[test]
    fn leaves_compress_layers_and_cut_subtrees() {
        // m0 -> m1 -> m2 -> m3; with m1 pre-summarized, m2/m3 never enter
        // the schedule and m0 drops from layer 3 to layer 1.
        let (p, m) = call_chain(4, &[(0, 1), (1, 2), (2, 3)]);
        let cg = CallGraph::build(&p);
        let leaves: HashSet<MethodId> = [m[1]].into_iter().collect();
        let layers = CallLayers::compute_cut(&cg, &[m[0]], None, &leaves);
        assert_eq!(layers.layer_of(m[1]), Some(0));
        assert_eq!(layers.layer_of(m[0]), Some(1));
        assert_eq!(layers.layer_of(m[2]), None);
        assert_eq!(layers.layer_of(m[3]), None);
        assert_eq!(layers.layer_count(), 2);
        // An empty leaf set reproduces the plain schedule.
        let plain = CallLayers::compute(&cg, &[m[0]]);
        let none = CallLayers::compute_cut(&cg, &[m[0]], None, &HashSet::new());
        assert_eq!(plain.layers, none.layers);
    }

    #[test]
    fn compute_within_cuts_edges_leaving_the_slice() {
        // m0 -> m1 -> m2, m0 -> m3; slicing to {m0, m1} drops m2/m3 and
        // compresses m0 to layer 1.
        let (p, m) = call_chain(4, &[(0, 1), (1, 2), (0, 3)]);
        let cg = CallGraph::build(&p);
        let allowed: HashSet<MethodId> = [m[0], m[1]].into_iter().collect();
        let layers = CallLayers::compute_cut(&cg, &[m[0]], Some(&allowed), &HashSet::new());
        assert_eq!(layers.method_count(), 2);
        assert_eq!(layers.layer_of(m[1]), Some(0));
        assert_eq!(layers.layer_of(m[0]), Some(1));
        assert_eq!(layers.layer_of(m[2]), None);
        assert_eq!(layers.layer_of(m[3]), None);
        // Allowing everything reproduces the plain schedule.
        let all: HashSet<MethodId> = m.iter().copied().collect();
        let full = CallLayers::compute_cut(&cg, &[m[0]], Some(&all), &HashSet::new());
        let plain = CallLayers::compute(&cg, &[m[0]]);
        assert_eq!(full.layers, plain.layers);
    }

    #[test]
    fn compute_within_keeps_sccs_whole() {
        // m0 -> m1 <-> m2; the recursive pair stays one SCC in the slice.
        let (p, m) = call_chain(3, &[(0, 1), (1, 2), (2, 1)]);
        let cg = CallGraph::build(&p);
        let allowed: HashSet<MethodId> = m.iter().copied().collect();
        let layers = CallLayers::compute_cut(&cg, &[m[0]], Some(&allowed), &HashSet::new());
        assert_eq!(layers.scc_of[&m[1]], layers.scc_of[&m[2]]);
        assert!(layers.is_recursive(m[1], &cg));
    }

    #[test]
    fn slice_and_leaves_cut_together() {
        // m0 -> m1 -> m2 -> m3, m0 -> m4; slice {m0, m1, m2, m3} drops m4,
        // leaf m1 drops m2/m3 although the slice holds them.
        let (p, m) = call_chain(5, &[(0, 1), (1, 2), (2, 3), (0, 4)]);
        let cg = CallGraph::build(&p);
        let slice: HashSet<MethodId> = m[..4].iter().copied().collect();
        let leaves: HashSet<MethodId> = [m[1]].into_iter().collect();
        let layers = CallLayers::compute_cut(&cg, &[m[0]], Some(&slice), &leaves);
        assert_eq!(layers.layers, vec![vec![m[1]], vec![m[0]]]);
        // A root outside the slice schedules nothing.
        let other: HashSet<MethodId> = [m[4]].into_iter().collect();
        assert_eq!(CallLayers::compute_cut(&cg, &[m[0]], Some(&other), &leaves).method_count(), 0);
    }

    #[test]
    fn uncut_compute_cut_is_compute_and_buckets_agree_with_the_fields() {
        let mut cfg = gdroid_apk::GenConfig::tiny();
        cfg.recursion_prob = 0.5;
        let mut app = gdroid_apk::generate_app(0, 9100, &cfg);
        let (envs, cg) = crate::env::prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let plain = CallLayers::compute(&cg, &roots);
        let uncut = CallLayers::compute_cut(&cg, &roots, None, &HashSet::new());
        assert_eq!(plain.scc_of, uncut.scc_of);
        assert_eq!(plain.scc_members, uncut.scc_members);
        assert_eq!(plain.scc_layer, uncut.scc_layer);
        assert_eq!(plain.layers, uncut.layers);
        // The reachable set and its order are `reachable_from`'s.
        assert_eq!(plain.method_count(), cg.reachable_from(&roots).len());

        let buckets = plain.sccs_by_layer(&cg);
        assert_eq!(buckets.len(), plain.layer_count());
        let mut seen = 0;
        for (layer, sccs) in buckets.iter().enumerate() {
            let ids: Vec<SccId> = sccs.iter().map(|s| plain.scc_of[&s.members[0]]).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "layer {layer} not in SccId order");
            for (scc, id) in sccs.iter().zip(ids) {
                assert_eq!(scc.members, plain.scc_members[id.0 as usize]);
                assert_eq!(plain.scc_layer[id.0 as usize] as usize, layer);
                for &m in scc.members {
                    assert_eq!(scc.recursive, plain.is_recursive(m, &cg), "{m:?}");
                }
                seen += 1;
            }
        }
        assert_eq!(seen, plain.scc_members.len());
        assert!(buckets.iter().flatten().any(|s| s.recursive), "no recursive SCC generated");
    }

    #[test]
    fn corpus_app_schedules_cleanly() {
        let mut app = gdroid_apk::generate_app(0, 5150, &gdroid_apk::GenConfig::tiny());
        let (envs, cg) = crate::env::prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let layers = CallLayers::compute(&cg, &roots);
        assert!(layers.method_count() >= roots.len());
        // The environment methods sit at or above their callbacks' layers.
        for env in &envs {
            let el = layers.layer_of(env.method).unwrap();
            for &callee in cg.callees_of(env.method) {
                assert!(layers.layer_of(callee).unwrap() <= el);
            }
        }
    }
}
