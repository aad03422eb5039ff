//! The layered-fixpoint host loop (Alg. 2's host side), stated once.
//!
//! A [`Fixpoint`] is one app's schedule and everything the schedule
//! updates: SBDA layers bucketed once (store hits cut out as pre-solved
//! leaves, optionally restricted to a slice), pools and CFGs, summaries,
//! facts, telemetry, and the current layer's pending set. Every driver is
//! a *launch policy* over it (DESIGN.md §18):
//!
//! ```text
//! while !fx.done() {
//!     launch(fx.blocks(kernel));  // the policy's part
//!     fx.absorb(..);    // block results → summaries, facts, changed set
//!     fx.advance();     // re-launch changed recursive SCCs, else next layer
//! }
//! ```
//!
//! A policy decides only how a round's blocks reach a device and how
//! modeled time is accounted; what the blocks compute is the paper's
//! worklist kernel. A block does all of its method's host work — merging
//! callee summaries into its call sites, seeding, solving and deriving the
//! summary — so a device may run the round's blocks on several host
//! threads. Each block reports into its own slot, and
//! [`Fixpoint::absorb`] folds the slots in pending (launch) order —
//! telemetry round sizes and trace instants depend on it.

use crate::driver::WorklistKernel;
use crate::engine::EngineAnalysis;
use crate::stats::{GpuRunStats, WorklistProfile};
use gdroid_analysis::{
    derive_summary, merge_site_summaries, Geometry, MatrixStore, MethodSpace, MethodSummary,
    Presolved, SiteSummaries, SummaryMap, WorklistTelemetry,
};
use gdroid_gpusim::{BlockCtx, BlockFn, SanReport};
use gdroid_icfg::{CallGraph, CallLayers, Cfg};
use gdroid_ir::{Method, MethodId, Program};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// One method's block: everything its kernel reads, and the store it
/// solves into.
pub struct MethodBlock<'a> {
    /// The method.
    pub mid: MethodId,
    /// Its body.
    pub method: &'a Method,
    /// Its pools.
    pub space: &'a MethodSpace,
    /// Its CFG.
    pub cfg: &'a Cfg,
    /// Callee summaries merged per call site, as of this round.
    pub sites: SiteSummaries,
    /// The node facts, entry facts seeded.
    pub store: MatrixStore,
}

/// What one block reports: its method's solved facts, the worklist
/// telemetry, and the summary derived from the facts.
struct Solved {
    store: MatrixStore,
    tele: WorklistTelemetry,
    summary: MethodSummary,
}

/// One layer of the schedule, pre-solved leaves already removed.
struct Layer {
    /// Every launchable method, sorted — the layer's first round.
    methods: Vec<MethodId>,
    /// Launchable members of each recursive SCC — the only re-launch
    /// candidates.
    recursive: Vec<Vec<MethodId>>,
}

/// One app as every launch policy takes it: what to analyze, and what
/// [`Fixpoint::new`] cuts out of its schedule.
#[derive(Clone, Copy)]
pub struct AppInput<'a> {
    /// The app's program.
    pub program: &'a Program,
    /// Its call graph.
    pub cg: &'a CallGraph,
    /// Analysis entry points.
    pub roots: &'a [MethodId],
    /// Store hits (closed under callee edges; see [`Fixpoint::new`]).
    pub presolved: &'a Presolved,
    /// The methods to schedule, when sliced (caller-closed).
    pub slice: Option<&'a HashSet<MethodId>>,
}

impl<'a> AppInput<'a> {
    /// A whole-app run with nothing pre-solved.
    pub fn new(program: &'a Program, cg: &'a CallGraph, roots: &'a [MethodId]) -> AppInput<'a> {
        static NONE: std::sync::LazyLock<Presolved> = std::sync::LazyLock::new(HashMap::new);
        AppInput { program, cg, roots, presolved: &NONE, slice: None }
    }
}

/// One app's layered fixpoint in flight (see the module docs).
pub struct Fixpoint<'a> {
    program: &'a Program,
    cg: &'a CallGraph,
    layers: Vec<Layer>,
    methods: Vec<MethodId>,
    /// Pools of every launchable and pre-solved method.
    pub spaces: HashMap<MethodId, MethodSpace>,
    /// CFGs of every launchable and pre-solved method.
    pub cfgs: HashMap<MethodId, Cfg>,
    /// Summaries so far; final once [`Fixpoint::done`].
    summaries: SummaryMap,
    /// Node facts so far; final once [`Fixpoint::done`].
    facts: HashMap<MethodId, MatrixStore>,
    /// Telemetry of every absorbed block.
    telemetry: WorklistTelemetry,
    layer: usize,
    round: usize,
    pending: Vec<MethodId>,
    changed: HashSet<MethodId>,
    /// One slot per pending method, filled by its block.
    results: Vec<OnceLock<Solved>>,
}

impl<'a> Fixpoint<'a> {
    /// Schedules the methods reachable from the input's `roots`.
    ///
    /// `presolved` methods (summary-store hits) have their summaries and
    /// node facts injected instead of computed and become leaves of the
    /// schedule: their subtrees never launch. The set must be *closed* —
    /// every internal callee of a pre-solved method is itself pre-solved
    /// (under a slice: closed over slice-internal call edges).
    ///
    /// `slice` schedules only its members, cutting call edges that leave
    /// it; it must be caller-closed over the reachable set (see
    /// `gdroid_analysis::BackwardSlice`). An empty slice is born done.
    pub fn new(input: AppInput<'a>) -> Fixpoint<'a> {
        let AppInput { program, cg, roots, presolved, slice } = input;
        let leaves: HashSet<MethodId> = presolved.keys().copied().collect();
        let sched = CallLayers::compute_cut(cg, roots, slice, &leaves);
        let launchable = |ms: &[MethodId]| -> Vec<MethodId> {
            ms.iter().copied().filter(|m| !leaves.contains(m)).collect()
        };
        // `CallLayers::layers` is already sorted per layer.
        let layers: Vec<Layer> = sched
            .layers
            .iter()
            .zip(sched.sccs_by_layer(cg))
            .map(|(ms, sccs)| Layer {
                methods: launchable(ms),
                recursive: sccs
                    .iter()
                    .filter(|s| s.recursive)
                    .map(|s| launchable(s.members))
                    .collect(),
            })
            .collect();
        let mut methods: Vec<MethodId> = layers.iter().flat_map(|l| &l.methods).copied().collect();
        methods.sort_unstable();
        let built = || methods.iter().chain(presolved.keys());
        let mut fx = Fixpoint {
            program,
            cg,
            spaces: built().map(|&m| (m, MethodSpace::build(program, m))).collect(),
            cfgs: built().map(|&m| (m, Cfg::build(&program.methods[m]))).collect(),
            // Pre-solved results go in before any launch so call sites
            // resolve against final summaries from the first kernel on.
            summaries: presolved.iter().map(|(&m, (s, _))| (m, s.clone())).collect(),
            facts: presolved.iter().map(|(&m, (_, f))| (m, f.clone())).collect(),
            telemetry: WorklistTelemetry::default(),
            layer: 0,
            round: 0,
            pending: Vec::new(),
            changed: HashSet::new(),
            results: Vec::new(),
            layers,
            methods,
        };
        fx.enter_layer();
        fx.open_slots();
        fx
    }

    /// Every method that will launch, sorted — what a layout plans for.
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Layers in the schedule, counting ones with nothing to launch.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// All layers drained?
    pub fn done(&self) -> bool {
        self.layer >= self.layers.len()
    }

    /// `(layer, round)` being solved; round 0 is the layer's first launch.
    pub fn position(&self) -> (usize, usize) {
        (self.layer, self.round)
    }

    /// Methods the current round must launch, sorted; non-empty until
    /// [`Fixpoint::done`].
    pub fn pending(&self) -> &[MethodId] {
        &self.pending
    }

    /// `(h2d, d2h)` bytes of the current pending set under `kernel`.
    pub(crate) fn pending_bytes(&self, kernel: WorklistKernel<'_>) -> (u64, u64) {
        self.pending.iter().map(|&m| kernel.bytes(m)).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// One block per pending method, inputs merged from the summaries as
    /// they stand (no summary changes while a round's blocks run).
    pub(crate) fn blocks<'s>(&'s self, kernel: WorklistKernel<'s>) -> Vec<BlockFn<'s>> {
        let block_of = |(&mid, slot): (&MethodId, &'s OnceLock<Solved>)| {
            Box::new(move |ctx: &mut BlockCtx<'_>| {
                let (method, space, cfg) =
                    (&self.program.methods[mid], &self.spaces[&mid], &self.cfgs[&mid]);
                let sites = merge_site_summaries(self.program, mid, &self.summaries, self.cg);
                let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
                store.seed(cfg.entry() as usize, &space.entry_facts(method));
                let mut block = MethodBlock { mid, method, space, cfg, sites, store };
                let tele = kernel.run(ctx, &mut block);
                let summary = derive_summary(method, space, &block.store, cfg.exit() as usize);
                let fresh = slot.set(Solved { store: block.store, tele, summary }).is_ok();
                debug_assert!(fresh, "{mid:?} reported twice in one round");
            }) as BlockFn<'s>
        };
        self.pending.iter().zip(&self.results).map(block_of).collect()
    }

    /// Folds the round's block results in, in pending (launch) order, and
    /// notes which summaries changed. `each` sees every block first
    /// (stats, trace instants).
    pub fn absorb(&mut self, mut each: impl FnMut(MethodId, &WorklistTelemetry)) {
        let slots = std::mem::take(&mut self.results);
        for (&mid, slot) in self.pending.iter().zip(slots) {
            let Solved { store, tele, summary } =
                slot.into_inner().unwrap_or_else(|| panic!("{mid:?}'s block never reported"));
            each(mid, &tele);
            self.telemetry.absorb(&tele);
            if self.summaries.get(&mid) != Some(&summary) {
                self.changed.insert(mid);
            }
            self.summaries.insert(mid, summary);
            self.facts.insert(mid, store);
        }
    }

    /// Ends the round. Only recursive SCCs with a changed summary
    /// re-launch (monotonicity guarantees they stabilize); when none did,
    /// moves on to the next layer with something to launch. Returns how
    /// many summaries changed.
    pub fn advance(&mut self) -> usize {
        let changed = std::mem::take(&mut self.changed);
        self.pending = self.layers[self.layer]
            .recursive
            .iter()
            .filter(|scc| scc.iter().any(|m| changed.contains(m)))
            .flatten()
            .copied()
            .collect();
        self.pending.sort_unstable();
        self.round += 1;
        if self.pending.is_empty() {
            self.layer += 1;
            self.enter_layer();
        }
        self.open_slots();
        changed.len()
    }

    /// One empty result slot per pending method.
    fn open_slots(&mut self) {
        self.results = self.pending.iter().map(|_| OnceLock::new()).collect();
    }

    /// Positions on the first layer at or after `self.layer` that has
    /// launchable methods.
    fn enter_layer(&mut self) {
        self.round = 0;
        while let Some(layer) = self.layers.get_mut(self.layer) {
            self.pending = std::mem::take(&mut layer.methods);
            if !self.pending.is_empty() {
                break;
            }
            self.layer += 1;
        }
    }

    /// Packages the finished fixpoint with the policy's accounting.
    pub fn finish(self, mut stats: GpuRunStats, sanitizer: Option<SanReport>) -> EngineAnalysis {
        stats.profile =
            WorklistProfile::from_round_sizes(&self.telemetry.round_sizes, self.telemetry.rounds);
        EngineAnalysis {
            facts: self.facts,
            summaries: self.summaries,
            spaces: self.spaces,
            cfgs: self.cfgs,
            telemetry: self.telemetry,
            idfg_ns: stats.total_ns,
            stats,
            store_bytes: 0,
            sanitizer,
        }
    }
}
