//! The sequential worklist solver (Alg. 1 of the paper) and the bottom-up
//! SBDA driver that runs it over a whole app.
//!
//! Per method, the solver iterates `ProcessNode` over a worklist of CFG
//! nodes until the node-wise fact sets reach a fixed point. Per app, the
//! driver walks the call-graph layers bottom-up, iterating each SCC's
//! summaries to their own fixed point, so that by the time a caller runs,
//! every callee summary is final — the SBDA property.

use crate::fact::MethodSpace;
use crate::store::{FactStore, Geometry, MatrixStore, NodeView, SetStore};
use crate::summary::{derive_summary, MethodSummary, SummaryMap};
use crate::transfer::{CallResolution, TransferCtx};
use gdroid_icfg::{CallGraph, CallLayers, CallTarget, Cfg, LayerScc};
use gdroid_ir::{MethodId, Program};
use std::collections::HashMap;

/// Which fact-store representation a solver run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// Dynamically growing hash sets (the original structure).
    Set,
    /// MAT fixed-size bitmask matrices.
    Matrix,
}

/// Counters from one method's fixed-point run — the raw material for
/// Table II and for the CPU/GPU cost models.
#[derive(Clone, Debug, Default)]
pub struct WorklistTelemetry {
    /// Node processings (the paper's "worklist iterations" are counted as
    /// worklist *generations*; this is the total node count processed).
    pub nodes_processed: usize,
    /// Worklist generations (outer `while` rounds in the generation-based
    /// formulation).
    pub rounds: usize,
    /// Size of the worklist at the start of every round.
    pub round_sizes: Vec<u32>,
    /// Largest worklist observed.
    pub max_worklist: usize,
    /// Facts inserted into stores.
    pub facts_inserted: usize,
    /// Store reallocation events (set store only).
    pub reallocations: usize,
    /// Slot rows read by transfer functions.
    pub rows_read: usize,
    /// Facts written by transfer functions (pre-dedup).
    pub facts_written: usize,
    /// Successor-union operations performed (edges traversed).
    pub unions: usize,
    /// Bitmap words per node in this method's geometry (0 in aggregates
    /// where geometries differ; use `word_ops` instead).
    pub words_per_node: usize,
    /// Total `u64` words touched by snapshots and unions — the matrix
    /// store's work metric.
    pub word_ops: usize,
}

impl WorklistTelemetry {
    /// Merges another method's counters into an app-level aggregate.
    pub fn absorb(&mut self, other: &WorklistTelemetry) {
        self.nodes_processed += other.nodes_processed;
        self.rounds += other.rounds;
        self.round_sizes.extend_from_slice(&other.round_sizes);
        self.max_worklist = self.max_worklist.max(other.max_worklist);
        self.facts_inserted += other.facts_inserted;
        self.reallocations += other.reallocations;
        self.rows_read += other.rows_read;
        self.facts_written += other.facts_written;
        self.unions += other.unions;
        self.words_per_node = 0;
        self.word_ops += other.word_ops;
    }
}

/// Pre-merges the CHA call targets' summaries for every call site of a
/// method: `Some(merged)` for internal calls, `None` for external ones.
/// Missing summaries (same-SCC first iteration) contribute nothing yet;
/// the SCC loop re-solves until stable. Shared by the CPU solvers and the
/// GPU kernels.
pub fn merge_site_summaries(
    program: &Program,
    mid: MethodId,
    summaries: &SummaryMap,
    cg: &CallGraph,
) -> HashMap<gdroid_ir::StmtIdx, Option<MethodSummary>> {
    program.methods[mid]
        .body
        .iter_enumerated()
        .filter(|(_, s)| s.is_call())
        .map(|(idx, _)| {
            let merged = match cg.site(mid, idx) {
                Some(CallTarget::Internal(targets)) => {
                    let mut acc = MethodSummary::default();
                    for t in targets {
                        if let Some(s) = summaries.get(t) {
                            acc.merge(s);
                        }
                    }
                    Some(acc)
                }
                _ => None, // external
            };
            (idx, merged)
        })
        .collect()
}

/// Solves one method to its fact fixed point.
///
/// `store` holds IN-facts per CFG node (entry = node 0). Entry facts are
/// seeded from the method's formals/statics. Returns telemetry; the facts
/// stay in `store`.
pub fn solve_method<S: FactStore>(
    program: &Program,
    mid: MethodId,
    space: &MethodSpace,
    cfg: &Cfg,
    store: &mut S,
    summaries: &SummaryMap,
    cg: &CallGraph,
) -> WorklistTelemetry {
    let method = &program.methods[mid];
    let mut telemetry = WorklistTelemetry::default();
    let words = Geometry::of(space).words();
    telemetry.words_per_node = words;

    // Seed the entry node.
    store.seed(cfg.entry() as usize, &space.entry_facts(method));

    // Pre-merge CHA targets' summaries per call site.
    let site_summaries = merge_site_summaries(program, mid, summaries, cg);
    let resolve = |idx: gdroid_ir::StmtIdx| match site_summaries.get(&idx) {
        Some(Some(s)) => CallResolution::Summary(s),
        _ => CallResolution::External,
    };
    let ctx = TransferCtx { method, space, resolve_call: &resolve };

    // Generation-based worklist (mirrors the GPU kernels so Table II's
    // round-size profile is comparable). A successor is enqueued when its
    // facts changed OR it has never been visited — Alg. 1 terminates only
    // once "all nodes are visited and all data-fact sets reach the
    // fixed-point"; without the visited rule, regions behind empty fact
    // sets (e.g. the body of a parameterless environment method before its
    // first allocation) would never be analyzed.
    let mut current: Vec<u32> = vec![cfg.entry()];
    let mut visited = vec![false; cfg.len()];
    visited[cfg.entry() as usize] = true;
    let mut in_next = vec![false; cfg.len()];
    let mut next: Vec<u32> = Vec::new();

    while !current.is_empty() {
        telemetry.rounds += 1;
        telemetry.round_sizes.push(current.len() as u32);
        telemetry.max_worklist = telemetry.max_worklist.max(current.len());
        for &node in &current {
            telemetry.nodes_processed += 1;
            telemetry.word_ops += words; // snapshot copy
            let input = store.snapshot(node as usize);
            let (out, effort) = match cfg.stmt_of(node) {
                Some(stmt_idx) => ctx.transfer(stmt_idx, input.view()),
                None => (input, Default::default()), // entry/exit: identity
            };
            telemetry.rows_read += effort.rows_read;
            telemetry.facts_written += effort.facts_written;
            for &succ in cfg.succ(node) {
                telemetry.unions += 1;
                telemetry.word_ops += words;
                let outcome = store.union_into(succ as usize, &out);
                telemetry.facts_inserted += outcome.inserted;
                telemetry.reallocations += outcome.reallocations;
                let first_visit = !visited[succ as usize];
                if (outcome.changed || first_visit) && !in_next[succ as usize] {
                    visited[succ as usize] = true;
                    in_next[succ as usize] = true;
                    next.push(succ);
                }
            }
        }
        current.clear();
        std::mem::swap(&mut current, &mut next);
        for &n in &current {
            in_next[n as usize] = false;
        }
    }
    telemetry
}

/// The full result of analyzing one app on the CPU.
pub struct AppAnalysis {
    /// Per-method pools.
    pub spaces: HashMap<MethodId, MethodSpace>,
    /// Per-method CFGs.
    pub cfgs: HashMap<MethodId, Cfg>,
    /// Per-method node facts (IN sets) — the IDFG's `fact(n)` component.
    pub facts: HashMap<MethodId, MatrixStore>,
    /// Final summaries.
    pub summaries: SummaryMap,
    /// Aggregated telemetry.
    pub telemetry: WorklistTelemetry,
    /// Per-method telemetry (accumulated over SCC re-iterations) — the
    /// input for layer-parallel cost models.
    pub per_method: HashMap<MethodId, WorklistTelemetry>,
    /// Bytes the fact stores held, by the store kind used for the run.
    pub store_bytes: usize,
    /// Which store kind the run used.
    pub store_kind: StoreKind,
    /// Methods in bottom-up order (layer by layer).
    pub schedule: Vec<Vec<MethodId>>,
}

impl AppAnalysis {
    /// Facts of one node of one method.
    pub fn node_facts(&self, mid: MethodId, node: u32) -> NodeView<'_> {
        self.facts[&mid].node(node as usize)
    }

    /// Total facts across all methods' nodes.
    pub fn total_facts(&self) -> usize {
        self.facts
            .values()
            .map(|s| (0..s.node_count()).map(|n| s.fact_count(n)).sum::<usize>())
            .sum()
    }
}

/// Analyzes an app bottom-up from the given roots (environment methods).
///
/// `store_kind` selects the fact-store representation, which changes the
/// memory/allocation profile (Fig. 10) but never the resulting facts
/// (property-tested).
pub fn analyze_app(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    store_kind: StoreKind,
) -> AppAnalysis {
    drive(program, cg, roots, store_kind, |_, _| None)
}

/// [`analyze_app`] with a set of *pre-solved* methods whose summaries and
/// node facts are already known (summary-store hits). An SCC whose
/// members are all pre-solved is never solved: its results are published
/// as they are and its callers consume the summaries as usual. Callers
/// must guarantee the injected results are what solving would have
/// produced (the summary store's canonical-hash contract).
pub fn analyze_app_presolved(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    store_kind: StoreKind,
    presolved: &HashMap<MethodId, (MethodSummary, MatrixStore)>,
) -> AppAnalysis {
    drive(program, cg, roots, store_kind, |scc, _| {
        scc.iter().map(|m| presolved.get(m).map(|(summary, facts)| (summary, facts))).collect()
    })
}

/// What the driver's hook answers for one SCC: its members' results, in
/// member order, when they are already known — `None` to have it solved.
pub(crate) type Known<'a> = Option<Vec<(&'a MethodSummary, &'a MatrixStore)>>;

/// One method's result as it is published at a layer barrier.
struct Solved {
    mid: MethodId,
    summary: MethodSummary,
    facts: MatrixStore,
    /// Footprint of the store the facts were solved in — its last one,
    /// so the total reflects one live store per method, not re-solve
    /// churn.
    bytes: usize,
    /// Accumulated over SCC re-iterations; `None` for a known result.
    telemetry: Option<WorklistTelemetry>,
}

/// The bottom-up SBDA driver (Alg. 2's host side on the CPU), and the
/// multithreaded-C baseline's schedule (§III-B1): layers are barriers,
/// and the SCCs of one layer — which never call each other — are mapped
/// against the summaries the layers below published. The map runs on one
/// thread; the baseline's speed-up over cores is modeled
/// ([`crate::CpuCostModel::parallel_ns`]), not executed.
///
/// `known` is asked once per SCC, with those summaries, whether the SCC's
/// result is already at hand; a known SCC is published without solving.
pub(crate) fn drive<'a>(
    program: &Program,
    cg: &CallGraph,
    roots: &[MethodId],
    store_kind: StoreKind,
    known: impl Fn(&[MethodId], &SummaryMap) -> Known<'a>,
) -> AppAnalysis {
    let layers = CallLayers::compute(cg, roots);
    let methods = || layers.scc_of.keys();
    let mut out = AppAnalysis {
        spaces: methods().map(|&m| (m, MethodSpace::build(program, m))).collect(),
        cfgs: methods().map(|&m| (m, Cfg::build(&program.methods[m]))).collect(),
        facts: HashMap::new(),
        summaries: HashMap::new(),
        telemetry: WorklistTelemetry::default(),
        per_method: HashMap::new(),
        store_bytes: 0,
        store_kind,
        schedule: layers.layers.clone(),
    };

    for sccs in layers.sccs_by_layer(cg) {
        let outcomes: Vec<(WorklistTelemetry, Vec<Solved>)> = sccs
            .iter()
            .map(|scc| match known(scc.members, &out.summaries) {
                Some(results) => {
                    let handed_over = scc.members.iter().zip(results);
                    let published = handed_over.map(|(&mid, (summary, facts))| Solved {
                        mid,
                        summary: summary.clone(),
                        facts: facts.clone(),
                        bytes: facts.memory_bytes(),
                        telemetry: None,
                    });
                    (WorklistTelemetry::default(), published.collect())
                }
                None => solve_scc(program, cg, &out, scc),
            })
            .collect();
        // Layer barrier: publish in SCC order, so the aggregate telemetry
        // reads as if the SCCs had been solved one after another.
        for (telemetry, methods) in outcomes {
            out.telemetry.absorb(&telemetry);
            for m in methods {
                out.store_bytes += m.bytes;
                if let Some(telemetry) = m.telemetry {
                    out.per_method.insert(m.mid, telemetry);
                }
                out.summaries.insert(m.mid, m.summary);
                out.facts.insert(m.mid, m.facts);
            }
        }
    }
    out
}

/// Solves one SCC against what the layers below it have published
/// `so_far`, iterating a recursive SCC until its summaries stabilize.
/// Returns the telemetry of every solve in execution order, and each
/// member's final result.
fn solve_scc(
    program: &Program,
    cg: &CallGraph,
    so_far: &AppAnalysis,
    scc: &LayerScc<'_>,
) -> (WorklistTelemetry, Vec<Solved>) {
    // A recursive SCC iterates against a private view: its callees'
    // published summaries plus its members' summaries so far.
    let mut view: SummaryMap = SummaryMap::new();
    if scc.recursive {
        let callees = scc.members.iter().flat_map(|&m| cg.callees_of(m));
        view.extend(callees.filter_map(|c| Some((*c, so_far.summaries.get(c)?.clone()))));
    }
    let mut telemetry = WorklistTelemetry::default();
    let mut per_member = vec![WorklistTelemetry::default(); scc.members.len()];
    let mut latest = Vec::with_capacity(scc.members.len());
    loop {
        latest.clear();
        let mut changed = false;
        for (&mid, accumulated) in scc.members.iter().zip(&mut per_member) {
            let (space, cfg) = (&so_far.spaces[&mid], &so_far.cfgs[&mid]);
            let summaries = if scc.recursive { &view } else { &so_far.summaries };
            let geometry = Geometry::of(space);
            let mut facts = MatrixStore::new(geometry, cfg.len());
            let (tele, bytes) = match so_far.store_kind {
                StoreKind::Matrix => {
                    let tele = solve_method(program, mid, space, cfg, &mut facts, summaries, cg);
                    (tele, facts.memory_bytes())
                }
                StoreKind::Set => {
                    let mut store = SetStore::new(geometry, cfg.len());
                    let tele = solve_method(program, mid, space, cfg, &mut store, summaries, cg);
                    // The result container is matrix-form either way
                    // (facts are identical).
                    for node in 0..cfg.len() {
                        facts.union_into(node, &store.snapshot(node));
                    }
                    (tele, store.memory_bytes())
                }
            };
            telemetry.absorb(&tele);
            accumulated.absorb(&tele);
            let summary = derive_summary(&program.methods[mid], space, &facts, cfg.exit() as usize);
            if scc.recursive {
                changed |= view.insert(mid, summary.clone()).as_ref() != Some(&summary);
            }
            latest.push((mid, summary, facts, bytes));
        }
        if !changed {
            break;
        }
    }
    let solved = latest.into_iter().zip(per_member).map(|((mid, summary, facts, bytes), t)| {
        Solved { mid, summary, facts, bytes, telemetry: Some(t) }
    });
    (telemetry, solved.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_icfg::prepare_app;

    fn analyzed(seed: u64, kind: StoreKind) -> (gdroid_apk::App, AppAnalysis) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let analysis = analyze_app(&app.program, &cg, &roots, kind);
        (app, analysis)
    }

    #[test]
    fn analysis_reaches_fixed_point_with_facts() {
        let (_, analysis) = analyzed(1000, StoreKind::Matrix);
        assert!(analysis.telemetry.nodes_processed > 0);
        assert!(analysis.total_facts() > 0);
        assert!(!analysis.summaries.is_empty());
        assert!(analysis.telemetry.max_worklist >= 1);
    }

    #[test]
    fn matrix_and_set_stores_agree_exactly() {
        let (_, a_mat) = analyzed(1001, StoreKind::Matrix);
        let (_, a_set) = analyzed(1001, StoreKind::Set);
        assert_eq!(a_mat.facts.len(), a_set.facts.len());
        for (mid, mat) in &a_mat.facts {
            let set = &a_set.facts[mid];
            assert_eq!(mat.node_count(), set.node_count());
            for node in 0..mat.node_count() {
                let f1: Vec<_> = {
                    let mut v: Vec<_> = mat.snapshot(node).iter().collect();
                    v.sort();
                    v
                };
                let f2: Vec<_> = {
                    let mut v: Vec<_> = set.snapshot(node).iter().collect();
                    v.sort();
                    v
                };
                assert_eq!(f1, f2, "facts differ at {mid:?} node {node}");
            }
        }
        // Summaries must agree too.
        assert_eq!(a_mat.summaries, a_set.summaries);
    }

    #[test]
    fn set_store_reallocates_matrix_does_not() {
        let (_, a_set) = analyzed(1002, StoreKind::Set);
        let (_, a_mat) = analyzed(1002, StoreKind::Matrix);
        assert!(a_set.telemetry.reallocations > 0, "set store never reallocated");
        assert_eq!(a_mat.telemetry.reallocations, 0);
    }

    #[test]
    fn matrix_store_uses_less_memory() {
        // The MAT claim (Fig. 10): matrix ≤ set-based footprint on real
        // workloads.
        let (_, a_set) = analyzed(1003, StoreKind::Set);
        let (_, a_mat) = analyzed(1003, StoreKind::Matrix);
        assert!(
            a_mat.store_bytes < a_set.store_bytes,
            "matrix {} >= set {}",
            a_mat.store_bytes,
            a_set.store_bytes
        );
    }

    #[test]
    fn analysis_is_deterministic() {
        let (_, a1) = analyzed(1004, StoreKind::Matrix);
        let (_, a2) = analyzed(1004, StoreKind::Matrix);
        assert_eq!(a1.telemetry.nodes_processed, a2.telemetry.nodes_processed);
        assert_eq!(a1.total_facts(), a2.total_facts());
        assert_eq!(a1.summaries, a2.summaries);
    }

    #[test]
    fn entry_facts_present_at_entry_nodes() {
        let (app, analysis) = analyzed(1005, StoreKind::Matrix);
        for (mid, space) in &analysis.spaces {
            let entry_facts = space.entry_facts(&app.program.methods[*mid]);
            let entry = analysis.node_facts(*mid, 0);
            for f in entry_facts {
                assert!(entry.get(f), "missing entry fact at {mid:?}");
            }
        }
    }

    #[test]
    fn facts_flow_downstream_monotonically() {
        // Along any edge, succ facts ⊇ transfer of pred facts — spot-check
        // that exit facts contain entry bindings that survive identity.
        let (_, analysis) = analyzed(1006, StoreKind::Matrix);
        for (mid, cfg) in &analysis.cfgs {
            let entry = analysis.node_facts(*mid, cfg.entry());
            // Successor of entry sees at least entry's facts.
            for &s in cfg.succ(cfg.entry()) {
                let succ = analysis.node_facts(*mid, s);
                for f in entry.iter() {
                    assert!(succ.get(f), "entry fact lost on edge in {mid:?}");
                }
            }
        }
    }

    #[test]
    fn schedule_covers_all_analyzed_methods() {
        let (_, analysis) = analyzed(1007, StoreKind::Matrix);
        let scheduled: usize = analysis.schedule.iter().map(Vec::len).sum();
        assert_eq!(scheduled, analysis.facts.len());
    }
    /// Regression: the layer-parallel entry point used to overwrite a
    /// method's telemetry on every SCC re-iteration, under-reporting the
    /// work the Fig. 4 CPU baseline is charged for.
    #[test]
    fn parallel_entry_point_reports_every_scc_re_iteration() {
        let config = GenConfig { recursion_prob: 0.5, ..GenConfig::tiny() };
        let mut app = generate_app(0, 0x5cc, &config);
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let layers = CallLayers::compute(&cg, &roots);
        let recursive: Vec<MethodId> =
            layers.scc_members.iter().filter(|m| m.len() > 1).flatten().copied().collect();
        assert!(!recursive.is_empty(), "no multi-member SCC generated");

        for kind in [StoreKind::Set, StoreKind::Matrix] {
            let seq = analyze_app(&app.program, &cg, &roots, kind);
            let par = crate::analyze_app_parallel(&app.program, &cg, &roots, kind);
            assert_eq!(format!("{:?}", par.telemetry), format!("{:?}", seq.telemetry), "{kind:?}");
            assert_eq!(par.per_method.len(), seq.per_method.len());
            for (mid, t) in &seq.per_method {
                assert_eq!(format!("{:?}", par.per_method[mid]), format!("{t:?}"), "{mid:?}");
            }
            // An SCC member is solved at least twice (the second pass
            // confirms stability), the last time against the final
            // summaries: its telemetry exceeds that one solve's.
            for &mid in &recursive {
                let (space, cfg) = (&seq.spaces[&mid], &seq.cfgs[&mid]);
                let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                let once =
                    solve_method(&app.program, mid, space, cfg, &mut store, &seq.summaries, &cg);
                let total = &par.per_method[&mid];
                assert!(total.nodes_processed > once.nodes_processed, "{kind:?} {mid:?}");
                assert!(total.rounds > once.rounds, "{kind:?} {mid:?}");
            }
        }
    }
}
