//! The GDroid worklist kernels — Alg. 2 (plain) and Alg. 3 (optimized) in
//! one warp-centric block program.
//!
//! One thread block processes one method's worklist (the two-level
//! parallelization of §III-A2: methods → blocks, worklist nodes → lanes).
//! The functional computation is *always* the shared transfer function
//! over a bitmap store, so every configuration converges to the identical
//! IDFG; the optimization flags change
//!
//! * what the lanes' **branch partitions** are (25 statement/expression
//!   partitions plain vs 3 access-pattern groups under GRP),
//! * what **addresses** the lanes touch (streamed bitmaps under MAT vs
//!   heap-scattered, growing set chunks without it),
//! * whether the per-round worklist is **group-sorted** (GRP) and
//! * whether only the **head warp** is processed with the tail postponed
//!   and merged (MER).

use crate::fixpoint::MethodBlock;
use crate::layout::MethodLayout;
use crate::opts::OptConfig;
use gdroid_analysis::{NodeFacts, NodeView, TransferCtx, WorklistTelemetry};
use gdroid_gpusim::{segment_of, AccessOrder, BlockCtx, LaneWork};
use gdroid_icfg::Cfg;
use gdroid_ir::Method;

/// Branch partition of a node in the plain kernel: statement partitions
/// 0..25, entry/exit nodes take partition 25 (the identity path).
fn plain_partition(method: &Method, cfg: &Cfg, node: u32) -> u32 {
    match cfg.stmt_of(node) {
        Some(s) => method.body[s].plain_partition() as u32,
        None => gdroid_ir::stmt::PLAIN_PARTITIONS as u32,
    }
}

/// Branch partition under GRP: the three access-pattern groups; entry/exit
/// join the one-time-generation group.
fn grp_partition(method: &Method, cfg: &Cfg, node: u32) -> u32 {
    match cfg.stmt_of(node) {
        Some(s) => method.body[s].access_pattern() as u32,
        None => 0,
    }
}

/// Device-side state of one node's *set-based* fact storage (plain
/// layout): a growing chunk on the device heap.
#[derive(Clone, Copy, Debug, Default)]
struct SetState {
    /// Capacity in entries (8 bytes each); 0 = not yet allocated.
    cap: u64,
    /// Chunk base address (heap-scattered).
    base: u64,
}

/// Bytes of one statement-bitmask cell of `method`'s matrix (one bit per
/// statement) — the stride between the cells of consecutive fact bits.
pub(crate) fn cell_stride(method: &Method) -> u64 {
    (method.len().div_ceil(8) as u64).max(1)
}

/// What one head-list lane's propagation did, kept for the counted lane
/// form until the lane's divergence group is counted.
#[derive(Clone, Copy, Debug, Default)]
struct Propagation {
    /// Facts in the lane's input bitmap.
    facts_in: usize,
    /// Facts in its OUT bitmap.
    facts_out: usize,
    /// Successors the OUT bitmap was unioned into.
    succs: u32,
    /// The largest `inserted` of those unions (the written OUT prefix).
    max_inserted: usize,
    /// The summed `inserted` of those unions.
    sum_inserted: usize,
}

impl Propagation {
    /// A lane's propagation before its unions, with its read bitmap built
    /// into `read`: `input`, ORed with `out` if the node has a successor.
    fn start(read: &mut NodeFacts, input: NodeView<'_>, out: &NodeFacts, succs: bool) -> Self {
        if succs {
            let (facts_in, facts_out) = read.assign_union(input, out.view());
            Propagation { facts_in, facts_out, ..Propagation::default() }
        } else {
            read.assign(input);
            Propagation { facts_in: input.count(), ..Propagation::default() }
        }
    }
}

/// The counted lane form's coalescing count under MAT: the distinct
/// transaction lines a divergence group's cell accesses touch, read
/// straight off the lanes' bitmaps instead of built as addresses and
/// hashed. A group's read (or write) bitmaps are ORed into one buffer and
/// walked once in ascending bit order, in which a line is new exactly
/// when it differs from the previous bit's.
struct LineCounter {
    /// The group's union, one node bitmap wide, reused by every group.
    union: Vec<u64>,
    base: u64,
    cell_bytes: u64,
    line_bytes: u64,
}

impl LineCounter {
    /// A counter over `layout.facts`' cells, allocated once per block.
    fn new(layout: &MethodLayout, words: usize, cell_bytes: u64, line_bytes: u64) -> LineCounter {
        LineCounter { union: vec![0; words], base: layout.facts.base, cell_bytes, line_bytes }
    }

    /// The group's `(transactions, useful bytes)` — what the address form
    /// counts over `cell_addrs` of each member's input, `cell_addrs` of
    /// its OUT per successor and the first `inserted` OUT cells per
    /// successor. The reads are the lines of each member's read bitmap
    /// (its input, ORed with its OUT if it has a successor); the writes
    /// are the lines of the first `max_inserted` OUT bits. The bytes come
    /// from the popcounts.
    fn count(
        &mut self,
        group: &[u32],
        reads: &[NodeFacts],
        outs: &[NodeFacts],
        props: &[Propagation],
    ) -> (u64, u64) {
        let members = || group.iter().map(|&i| i as usize);
        let cells: usize = members()
            .map(|i| props[i])
            .map(|p| p.facts_in + p.succs as usize * p.facts_out + p.sum_inserted)
            .sum();
        let mut reads = members().map(|i| reads[i].words());
        self.union.copy_from_slice(reads.next().expect("a divergence group has a member"));
        for words in reads {
            for (u, &w) in self.union.iter_mut().zip(words) {
                *u |= w;
            }
        }
        let mut tx = self.lines();
        if members().any(|i| props[i].max_inserted > 0) {
            self.union.fill(0);
            for i in members() {
                let n = props[i].max_inserted;
                let taken = or_prefix(&mut self.union, outs[i].words(), n);
                debug_assert_eq!(taken, n, "a union inserted more facts than OUT holds");
            }
            tx += self.lines();
        }
        (tx, cells as u64 * self.cell_bytes)
    }

    /// The distinct lines the union's cells fall in.
    fn lines(&self) -> u64 {
        let (mut lines, mut last) = (0, u64::MAX);
        for (wi, &word) in self.union.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = wi as u64 * 64 + u64::from(w.trailing_zeros());
                w &= w - 1;
                let line = segment_of(self.line_bytes, self.base + bit * self.cell_bytes);
                if line != last {
                    last = line;
                    lines += 1;
                }
            }
        }
        lines
    }
}

/// ORs the lowest `n` set bits of `src` into `dst`; returns how many it
/// found (fewer than `n` only if `src` holds fewer).
fn or_prefix(dst: &mut [u64], src: &[u64], n: usize) -> usize {
    let mut left = n;
    for (d, &s) in dst.iter_mut().zip(src) {
        if left == 0 {
            break;
        }
        if s == 0 {
            continue;
        }
        let ones = s.count_ones() as usize;
        if ones <= left {
            *d |= s;
            left -= ones;
        } else {
            // Keep the word's lowest `left` set bits.
            let mut w = s;
            for _ in 0..left {
                *d |= w & w.wrapping_neg();
                w &= w - 1;
            }
            left = 0;
        }
    }
    n - left
}

/// Runs one method's worklist to its fixed point inside one thread block.
///
/// `block.store` is the functional fact state (entry facts must already
/// be seeded); `block.sites` come from
/// [`gdroid_analysis::merge_site_summaries`]. Returns the same telemetry
/// the CPU solver produces, with round sizes reflecting the GPU worklist
/// regime (head-list-only under MER).
pub fn run_method_block(
    ctx: &mut BlockCtx<'_>,
    block: &mut MethodBlock<'_>,
    layout: &MethodLayout,
    opts: OptConfig,
) -> WorklistTelemetry {
    let (method, space, cfg) = (block.method, block.space, block.cfg);
    let (sites, store) = (&block.sites, &mut block.store);
    let warp = ctx.config().warp_size;
    let line_bytes = ctx.config().transaction_bytes;
    let geometry = store.geometry();
    // One statement-bitmask cell per (slot, instance).
    let cell_bytes = cell_stride(method);
    // Under MAT on a block the sanitizer does not watch, lanes carry no
    // addresses: each divergence group's coalescing is counted off the
    // bitmaps (the counted lane form). The sanitizer needs every access.
    let mut lines = (opts.mat && !ctx.sanitizing())
        .then(|| LineCounter::new(layout, geometry.words(), cell_bytes, line_bytes));
    let counted = lines.is_some();
    let mut telemetry =
        WorklistTelemetry { words_per_node: geometry.words(), ..Default::default() };

    let tctx = TransferCtx { method, space, sites };

    // Each node's branch partition under this configuration.
    let partition_of = if opts.grp { grp_partition } else { plain_partition };
    let partitions: Vec<u32> =
        (0..cfg.len() as u32).map(|n| partition_of(method, cfg, n)).collect();
    // The grouped (GRP) kernel handles many statement kinds in one
    // data-driven path, which costs a few extra lookups per lane compared
    // with the specialized 25-way branches.
    let grp_overhead = if opts.grp { 14 } else { 0 };

    // Device-side set chunks (plain layout only).
    let mut set_states: Vec<SetState> = Vec::new();
    if !opts.mat {
        set_states.resize(cfg.len(), SetState::default());
        // Alg. 2 line 1: the initial per-node set chunks are allocated by
        // the kernel (entry facts land in node 0's chunk).
        let entry_len = store.fact_count(cfg.entry() as usize) as u64;
        if entry_len > 0 {
            let cap = entry_len.next_power_of_two().max(16);
            let buf = ctx.malloc(cap * 8);
            set_states[cfg.entry() as usize] = SetState { cap, base: buf.base };
        }
    }

    let mut current: Vec<u32> = vec![cfg.entry()];
    let mut next: Vec<u32> = Vec::new();
    // Alg. 1's termination is "all nodes visited AND facts stable": a
    // successor is enqueued on its first visit even when no facts changed
    // (see the CPU solver for the rationale).
    let mut visited = vec![false; cfg.len()];
    visited[cfg.entry() as usize] = true;
    let mut in_next = vec![false; cfg.len()];
    // One OUT bitmap and one lane descriptor per head-list position, kept
    // (with their allocations) from round to round. The counted form adds
    // each lane's read bitmap, built at transfer time (propagation changes
    // the store before the lane's group is counted), and its propagation
    // counts.
    let mut outs: Vec<NodeFacts> = Vec::new();
    let mut lanes: Vec<LaneWork> = Vec::new();
    let mut reads: Vec<NodeFacts> = Vec::new();
    let mut props: Vec<Propagation> = Vec::new();

    while !current.is_empty() {
        telemetry.rounds += 1;
        telemetry.round_sizes.push(current.len() as u32);
        telemetry.max_worklist = telemetry.max_worklist.max(current.len());

        // GRP: partial sort of the worklist by group (Alg. 3 line 7).
        // `store_pos` is a permutation, so equal keys are equal nodes.
        if opts.grp {
            ctx.shared_sort(current.len());
            current
                .sort_unstable_by_key(|&n| (partitions[n as usize], layout.store_pos[n as usize]));
        }

        // MER: only the head list (one warp) is processed; the tail is
        // postponed and merged with the destinations (Alg. 3 line 8).
        let head_len = if opts.mer { current.len().min(warp) } else { current.len() };
        let (head, tail) = current.split_at(head_len);
        if outs.len() < head_len {
            outs.resize_with(head_len, || NodeFacts::empty(geometry));
            lanes.resize_with(head_len, LaneWork::default);
            props.resize(head_len, Propagation::default());
            if counted {
                reads.resize_with(head_len, || NodeFacts::empty(geometry));
            }
        }

        // Jacobi semantics: all lanes of the round run concurrently on the
        // device, so every transfer reads the fact state as of round start;
        // updates only become visible to the *next* round. (The CPU solver
        // is naturally Gauss–Seidel; both reach the same unique fixed
        // point, but the GPU needs more processings — the redundancy MER
        // then removes by postponing the tail.) So the whole head list is
        // transferred, straight out of the store, before anything is
        // propagated.
        for (pos, (((&node, out), lane), prop)) in
            head.iter().zip(&mut outs).zip(&mut lanes).zip(&mut props).enumerate()
        {
            let input = store.node(node as usize);
            let effort = match cfg.stmt_of(node) {
                Some(stmt_idx) => tctx.transfer_into(stmt_idx, input, out),
                None => {
                    out.assign(input);
                    Default::default()
                }
            };
            telemetry.nodes_processed += 1;
            telemetry.word_ops += geometry.words();
            telemetry.rows_read += effort.rows_read;
            telemetry.facts_written += effort.facts_written;

            lane.partition = partitions[node as usize];
            lane.compute_cycles =
                18 + grp_overhead + 3 * effort.rows_read as u64 + 2 * effort.facts_written as u64;
            lane.deref_layers = effort.deref_layers as u32;
            // Fact traffic is atomic on real hardware (bitmap ORs under
            // MAT, CAS-based set inserts without it), so the Jacobi
            // same-round overlaps are not races.
            lane.order = AccessOrder::Atomic;
            lane.reads.clear();
            lane.writes.clear();
            lane.mallocs.clear();
            lane.bytes_written = 0;
            // Read cost of this node's own facts. Under MAT the method's
            // matrix stores one statement-bitmask cell per (slot,
            // instance); a node's in-facts are the cells whose bit `node`
            // is set, so the traffic is proportional to the facts present,
            // not to the matrix size — the paper's fixed-size "entry
            // looking-up" (§IV-A). (Without MAT the whole set chunk is
            // scanned — as it stands when the lane runs, below.) The
            // counted form keeps the cells the lane reads for its line
            // counter: the input's, and the OUT's if it is propagated.
            lane.bytes_read = 0;
            if counted {
                *prop = Propagation::start(&mut reads[pos], input, out, !cfg.succ(node).is_empty());
            } else if opts.mat {
                lane.bytes_read =
                    cell_addrs(&mut lane.reads, layout, input, cell_bytes, line_bytes);
            }
        }

        next.clear();
        for start in (0..head_len).step_by(warp) {
            let end = (start + warp).min(head_len);
            for (((&node, out), lane), prop) in head[start..end]
                .iter()
                .zip(&outs[start..end])
                .zip(&mut lanes[start..end])
                .zip(&mut props[start..end])
            {
                if !opts.mat {
                    let s = set_states[node as usize];
                    lane.bytes_read += stream_addrs(&mut lane.reads, s.base, s.cap * 8, line_bytes);
                }

                // Propagate to successors.
                for &succ in cfg.succ(node) {
                    telemetry.unions += 1;
                    telemetry.word_ops += geometry.words();
                    let outcome = store.union_into(succ as usize, out);
                    telemetry.facts_inserted += outcome.inserted;

                    if counted {
                        prop.succs += 1;
                        prop.max_inserted = prop.max_inserted.max(outcome.inserted);
                        prop.sum_inserted += outcome.inserted;
                    } else if opts.mat {
                        // Each propagated fact ORs the successor's bit into
                        // its cell: traffic is the out-fact cells (reads:
                        // bit tests; writes: only newly inserted bits).
                        lane.bytes_read +=
                            cell_addrs(&mut lane.reads, layout, out.view(), cell_bytes, line_bytes);
                        let before = lane.writes.len();
                        lane.writes.extend(
                            out.view()
                                .bits()
                                .take(outcome.inserted)
                                .map(|bit| cell_addr(layout, bit, cell_bytes)),
                        );
                        lane.bytes_written += (lane.writes.len() - before) as u64 * cell_bytes;
                    } else {
                        // Set semantics: probe + insert each new fact at a
                        // hash-scattered position; grow the chunk when
                        // capacity is exceeded (dynamic allocation — the
                        // paper's first bottleneck).
                        let state = &mut set_states[succ as usize];
                        let new_len = store.fact_count(succ as usize) as u64;
                        while state.cap < new_len {
                            let new_cap = (state.cap * 2).max(16);
                            lane.mallocs.push(new_cap * 8);
                            telemetry.reallocations += 1;
                            // Rehash: stream the old chunk out and in.
                            lane.bytes_read += stream_addrs(
                                &mut lane.reads,
                                state.base,
                                state.cap * 8,
                                line_bytes,
                            );
                            state.cap = new_cap;
                            // New chunk address is modeled per malloc by
                            // the heap; approximate its traffic location
                            // with a fresh pseudo-address derived from
                            // cap so chunks never coalesce.
                            state.base =
                                0x8000_0000_0000u64 + (succ as u64 * 131 + state.cap) * 4096;
                            // Tell the sanitizer the kernel manages this
                            // fabricated chunk range (zero-cost when off) —
                            // per doubling, since the next doubling rehashes
                            // out of this very chunk.
                            ctx.san_note_region(state.base, state.cap * 8);
                        }
                        // Hash-scattered probe positions; capacities are
                        // powers of two.
                        let slot_mask = state.cap.max(16) - 1;
                        for k in 0..outcome.inserted as u64 {
                            let probe = state.base + ((k * 0x9E37_79B9) & slot_mask) * 8;
                            lane.reads.push(probe);
                            lane.writes.push(probe);
                        }
                    }

                    let first_visit = !visited[succ as usize];
                    if outcome.changed || first_visit {
                        visited[succ as usize] = true;
                        // The plain kernel (Alg. 2 line 17) inserts the
                        // destination without a membership test — shared-
                        // memory deduplication costs a sort, so the next
                        // worklist carries repetitions. Only MER's merge
                        // step removes them (Fig. 7's N33).
                        if opts.mer {
                            if !in_next[succ as usize] {
                                in_next[succ as usize] = true;
                                next.push(succ);
                            }
                        } else {
                            next.push(succ);
                        }
                    }
                }
            }
            let warp_lanes = &lanes[start..end];
            match lines.as_mut() {
                Some(lines) => ctx.warp_process_counted(warp_lanes, &mut |group| {
                    lines.count(group, &reads[start..end], &outs[start..end], &props[start..end])
                }),
                None => ctx.warp_process(warp_lanes),
            }
        }
        ctx.sync();

        // Form the next worklist (Alg. 2 line 19 / Alg. 3 line 15).
        if opts.mer && !tail.is_empty() {
            // Merge the postponed tail, removing repetitions.
            for &n in tail {
                if !in_next[n as usize] {
                    in_next[n as usize] = true;
                    next.push(n);
                }
            }
            ctx.compute(8 * tail.len() as u64); // merge bookkeeping
        }
        // Worklist write-back (shared-memory traffic; consecutive u32
        // slots are conflict-free, so the cost is linear in the list).
        ctx.compute(4 * next.len() as u64);
        std::mem::swap(&mut current, &mut next);
        for &n in &current {
            in_next[n as usize] = false;
        }
    }

    telemetry
}

/// Address of the cell behind flat bit position `bit`
/// ([`gdroid_analysis::Geometry::bit_of`]) of a method's matrix
/// (cell-major layout).
#[inline]
fn cell_addr(layout: &MethodLayout, bit: usize, cell_bytes: u64) -> u64 {
    layout.facts.base + bit as u64 * cell_bytes
}

/// Appends the cell addresses behind a fact bitmap, one sample per
/// `line_bytes` line actually touched; returns the useful bytes.
fn cell_addrs(
    out: &mut Vec<u64>,
    layout: &MethodLayout,
    facts: NodeView<'_>,
    cell_bytes: u64,
    line_bytes: u64,
) -> u64 {
    let mut cells = 0;
    let mut last_line = u64::MAX;
    for bit in facts.bits() {
        let addr = cell_addr(layout, bit, cell_bytes);
        cells += 1;
        let line = segment_of(line_bytes, addr);
        if line != last_line {
            out.push(addr);
            last_line = line;
        }
    }
    cells * cell_bytes
}

/// Appends one address per `line_bytes` line of a `[base, base+len)`
/// stream; returns the useful bytes streamed.
fn stream_addrs(out: &mut Vec<u64>, base: u64, len: u64, line_bytes: u64) -> u64 {
    let mut off = 0;
    while off < len {
        out.push(base + off);
        off += line_bytes;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::plan_layout;
    use gdroid_analysis::{merge_site_summaries, Geometry, MatrixStore, MethodSpace, SummaryMap};
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::{Device, DeviceConfig};
    use gdroid_icfg::prepare_app;
    use gdroid_ir::MethodId;
    use std::collections::HashMap;

    struct Bench {
        app: gdroid_apk::App,
        cg: gdroid_icfg::CallGraph,
        methods: Vec<MethodId>,
        spaces: HashMap<MethodId, MethodSpace>,
        cfgs: HashMap<MethodId, Cfg>,
    }

    fn bench(seed: u64) -> Bench {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let methods = cg.reachable_from(&roots);
        let spaces: HashMap<_, _> =
            methods.iter().map(|&m| (m, MethodSpace::build(&app.program, m))).collect();
        let cfgs: HashMap<_, _> =
            methods.iter().map(|&m| (m, Cfg::build(&app.program.methods[m]))).collect();
        Bench { app, cg, methods, spaces, cfgs }
    }

    fn run_one(b: &Bench, mid: MethodId, opts: OptConfig) -> (MatrixStore, WorklistTelemetry) {
        let mut device = Device::new(DeviceConfig::tiny());
        let layout = plan_layout(&b.app.program, &mut device, &b.spaces, &b.cfgs, &b.methods, opts);
        let space = &b.spaces[&mid];
        let cfg = &b.cfgs[&mid];
        let method = &b.app.program.methods[mid];
        let mut store = MatrixStore::new(Geometry::of(space), cfg.len());
        store.seed(cfg.entry() as usize, &space.entry_facts(method));
        let summaries = SummaryMap::new();
        let sites = merge_site_summaries(&b.app.program, mid, &summaries, &b.cg);
        let mut block = MethodBlock { mid, method, space, cfg, sites, store };
        let mut telemetry = WorklistTelemetry::default();
        let stats = device.launch(vec![|ctx: &mut BlockCtx<'_>| {
            telemetry = run_method_block(ctx, &mut block, &layout.methods[&mid], opts);
        }]);
        assert!(stats.makespan_cycles > 0);
        (block.store, telemetry)
    }

    #[test]
    fn all_configs_reach_same_fixed_point() {
        let b = bench(9001);
        let mid = b.methods[b.methods.len() / 2];
        let results: Vec<MatrixStore> =
            OptConfig::ladder().iter().map(|&o| run_one(&b, mid, o).0).collect();
        for pair in results.windows(2) {
            for node in 0..pair[0].node_count() {
                assert_eq!(
                    pair[0].snapshot(node).words(),
                    pair[1].snapshot(node).words(),
                    "configs disagree at node {node}"
                );
            }
        }
    }

    #[test]
    fn gpu_kernel_matches_cpu_solver() {
        let b = bench(9002);
        for &mid in b.methods.iter().take(6) {
            let (gpu_store, _) = run_one(&b, mid, OptConfig::gdroid());
            // CPU reference.
            let space = &b.spaces[&mid];
            let cfg = &b.cfgs[&mid];
            let mut cpu_store = MatrixStore::new(Geometry::of(space), cfg.len());
            let summaries = SummaryMap::new();
            let tele = gdroid_analysis::solve_method(
                &b.app.program,
                mid,
                space,
                cfg,
                &mut cpu_store,
                &summaries,
                &b.cg,
            );
            assert!(tele.nodes_processed > 0);
            for node in 0..cfg.len() {
                assert_eq!(
                    gpu_store.snapshot(node).words(),
                    cpu_store.snapshot(node).words(),
                    "GPU differs from CPU at {mid:?} node {node}"
                );
            }
        }
    }

    #[test]
    fn mer_bounds_head_to_one_warp() {
        let b = bench(9003);
        // Find a method with a worklist round over 32 nodes, if any; at
        // minimum verify the MER telemetry never exceeds plain rounds'
        // sizes and rounds count differs when tails exist.
        let mid = *b.methods.iter().max_by_key(|m| b.cfgs[m].len()).unwrap();
        let (_, plain_tele) = run_one(&b, mid, OptConfig::mat_grp());
        let (_, mer_tele) = run_one(&b, mid, OptConfig::gdroid());
        assert!(plain_tele.rounds > 0 && mer_tele.rounds > 0);
        // Under MER, each round processes at most one warp.
        assert!(mer_tele.nodes_processed <= mer_tele.rounds * 32);
    }

    #[test]
    fn plain_kernel_allocates_mat_does_not() {
        let b = bench(9004);
        // Methods with no reference traffic never grow their sets; at
        // least one method in the app must, and MAT must never.
        let mut any_realloc = false;
        for &mid in &b.methods {
            let (_, plain) = run_one(&b, mid, OptConfig::plain());
            let (_, mat) = run_one(&b, mid, OptConfig::mat());
            any_realloc |= plain.reallocations > 0;
            assert_eq!(mat.reallocations, 0);
        }
        assert!(any_realloc, "plain kernel never grew a set");
    }

    proptest::proptest! {
        /// Walking the bitmap words yields exactly the addresses the
        /// definition does — `NodeFacts::iter()` + `Geometry::bit_of`, one
        /// sample per line — for cell sizes that do and do not divide the
        /// line size.
        #[test]
        fn cell_addrs_match_the_fact_iterator(
            (slots, insts) in (1usize..30, 1usize..30),
            bits in proptest::collection::vec((0u16..30, 0u16..30), 0..120),
            cell_bytes in 1u64..200,
            line_pick in 0usize..3,
            base in 0u64..1 << 20,
        ) {
            let line_bytes = [128, 96, 32][line_pick];
            let geometry = Geometry { slots, insts };
            let facts = bitmap(geometry, &bits);
            let layout = matrix_layout(geometry, base, cell_bytes);

            let mut expected = vec![7];
            let mut last_line = None;
            for fact in facts.iter() {
                let addr = base + geometry.bit_of(fact) as u64 * cell_bytes;
                if last_line != Some(addr / line_bytes) {
                    expected.push(addr);
                    last_line = Some(addr / line_bytes);
                }
            }
            let mut got = vec![7];
            let bytes = cell_addrs(&mut got, &layout, facts.view(), cell_bytes, line_bytes);
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(bytes, facts.count() as u64 * cell_bytes);
        }

        /// The line counter's `(transactions, bytes)` for a divergence
        /// group equal the coalescing definition (see `check_counter`) for
        /// any cell size, line size and base alignment, with members that
        /// repeat their predecessor's bitmaps, overlap, or have no
        /// successor.
        #[test]
        fn line_counter_matches_the_coalescing_definition(
            (slots, insts) in (1usize..30, 1usize..30),
            lanes in proptest::collection::vec(
                (
                    proptest::collection::vec((0u16..30, 0u16..30), 0..40),
                    proptest::collection::vec((0u16..30, 0u16..30), 0..40),
                    proptest::collection::vec(0usize..64, 0..4),
                ),
                1..33,
            ),
            (member_mask, repeat_mask) in (proptest::any::<u32>(), proptest::any::<u32>()),
            (cell_bytes, line_pick) in (1u64..200, 0usize..3),
            base in 0u64..1 << 20,
        ) {
            let line_bytes = [128, 96, 32][line_pick];
            let geometry = Geometry { slots, insts };
            let mut members: Vec<(NodeFacts, NodeFacts, Vec<usize>)> = Vec::new();
            for (i, (input, out, picks)) in lanes.iter().enumerate() {
                let (input, out) = match members.last() {
                    Some((pi, po, _)) if repeat_mask >> i & 1 == 1 => (pi.clone(), po.clone()),
                    _ => (bitmap(geometry, input), bitmap(geometry, out)),
                };
                // A union never inserts more facts than the OUT bitmap holds.
                let inserted = picks.iter().map(|p| p % (out.count() + 1)).collect();
                members.push((input, out, inserted));
            }
            // Any ascending subset of the lanes can be a divergence group.
            let mut group: Vec<u32> =
                (0..lanes.len() as u32).filter(|&i| member_mask >> i & 1 == 1).collect();
            if group.is_empty() {
                group.push(0);
            }
            let (got, expected) =
                check_counter(geometry, &members, &group, base, cell_bytes, line_bytes);
            proptest::prop_assert_eq!(got, expected);
        }
    }

    /// The counter's answer for `group` of `members` — `(input, OUT, the
    /// inserted count of each union)` — twice from one counter (a counter
    /// reused across groups, as within one block, counts each group
    /// afresh), and the coalescing definition's:
    /// `gdroid_gpusim::transactions` of the group's reads (`cell_addrs` of
    /// each input and, per successor, of its OUT) plus that of its writes
    /// (the first `inserted` OUT cells per successor), and the address
    /// form's byte formula. Read bitmaps and propagations are built as
    /// `run_method_block` builds them.
    fn check_counter(
        geometry: Geometry,
        members: &[(NodeFacts, NodeFacts, Vec<usize>)],
        group: &[u32],
        base: u64,
        cell_bytes: u64,
        line_bytes: u64,
    ) -> ((u64, u64), (u64, u64)) {
        let layout = matrix_layout(geometry, base, cell_bytes);
        let (mut reads, mut outs, mut props) = (Vec::new(), Vec::new(), Vec::new());
        for (input, out, inserted) in members {
            let mut read = NodeFacts::empty(geometry);
            let start = Propagation::start(&mut read, input.view(), out, !inserted.is_empty());
            reads.push(read);
            outs.push(out.clone());
            props.push(Propagation {
                succs: inserted.len() as u32,
                max_inserted: inserted.iter().copied().max().unwrap_or(0),
                sum_inserted: inserted.iter().sum(),
                ..start
            });
        }

        let (mut read_addrs, mut write_addrs, mut bytes) = (Vec::new(), Vec::new(), 0);
        for &i in group {
            let (input, out, inserted) = &members[i as usize];
            bytes += cell_addrs(&mut read_addrs, &layout, input.view(), cell_bytes, line_bytes);
            for &k in inserted {
                bytes += cell_addrs(&mut read_addrs, &layout, out.view(), cell_bytes, line_bytes);
                let before = write_addrs.len();
                write_addrs.extend(
                    out.view().bits().take(k).map(|bit| cell_addr(&layout, bit, cell_bytes)),
                );
                bytes += (write_addrs.len() - before) as u64 * cell_bytes;
            }
        }
        let config = DeviceConfig { transaction_bytes: line_bytes, ..DeviceConfig::tiny() };
        let expected = gdroid_gpusim::transactions(&config, &read_addrs)
            + gdroid_gpusim::transactions(&config, &write_addrs);

        let mut lines = LineCounter::new(&layout, geometry.words(), cell_bytes, line_bytes);
        let first = lines.count(group, &reads, &outs, &props);
        assert_eq!(lines.count(group, &reads, &outs, &props), first, "a reused counter drifted");
        (first, (expected, bytes))
    }

    #[test]
    fn line_counter_counts_identical_overlapping_and_successorless_members() {
        let geometry = Geometry { slots: 12, insts: 9 };
        let a = bitmap(geometry, &[(0, 0), (0, 1), (3, 4), (7, 8), (11, 2)]);
        let b = bitmap(geometry, &[(0, 1), (3, 5), (9, 0)]);
        let c = bitmap(geometry, &[(1, 1), (3, 4), (11, 8)]);
        let members = [
            (a.clone(), b.clone(), vec![2, 1]),
            // Identical to lane 0.
            (a.clone(), b.clone(), vec![2, 1]),
            // Overlaps lanes 0 and 1 in input and OUT.
            (c.clone(), a.clone(), vec![5]),
            // No successor: only its input is read, nothing is written.
            (b.clone(), c.clone(), vec![]),
        ];
        let groups: [&[u32]; 6] = [&[0], &[0, 1], &[0, 2], &[3], &[2, 3], &[0, 1, 2, 3]];
        for (cell_bytes, line_bytes) in [(2, 32), (16, 128), (7, 96), (150, 32)] {
            for group in groups {
                let (got, expected) =
                    check_counter(geometry, &members, group, 4096 + 3, cell_bytes, line_bytes);
                assert_eq!(
                    got, expected,
                    "group {group:?}, {cell_bytes} B cells, {line_bytes} B lines"
                );
            }
        }
        // A member with no successor reads no OUT cells: the group of lane
        // 3 alone costs exactly its input's.
        let (only_input, _) = check_counter(geometry, &members, &[3], 0, 1, 32);
        assert_eq!(only_input.1, b.count() as u64);
    }

    /// A bitmap with the given `(slot, instance)` facts, wrapped into the
    /// geometry.
    fn bitmap(geometry: Geometry, bits: &[(u16, u16)]) -> NodeFacts {
        let mut facts = NodeFacts::empty(geometry);
        for &(s, i) in bits {
            facts.set(gdroid_analysis::Fact {
                slot: s % geometry.slots as u16,
                instance: i % geometry.insts as u16,
            });
        }
        facts
    }

    /// A layout whose only planned buffer is a `geometry` matrix of
    /// `cell_bytes` cells at `base`.
    fn matrix_layout(geometry: Geometry, base: u64, cell_bytes: u64) -> MethodLayout {
        use gdroid_gpusim::DeviceBuffer;
        let unused = DeviceBuffer { base: 0, len: 0 };
        MethodLayout {
            icfg: unused,
            stmt: unused,
            facts: DeviceBuffer { base, len: geometry.bits() as u64 * cell_bytes },
            node_bytes: 0,
            store_pos: Vec::new(),
            h2d_bytes: 0,
            d2h_bytes: 0,
        }
    }
}
