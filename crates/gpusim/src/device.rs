//! The device: block scheduling and kernel launches.
//!
//! A launch takes one closure per thread block (the paper's mapping: one
//! method per block). Blocks execute functionally, and their *timelines*
//! are then packed onto the device's concurrent block slots
//! (`SMs × blocks-per-SM`) with greedy earliest-finish scheduling, exactly
//! how a hardware work distributor assigns blocks as SMs drain. The
//! makespan of the packing is the kernel's execution time; workload
//! imbalance across methods shows up as slot idle time.
//!
//! ## Blocks on host threads
//!
//! The blocks of one launch are independent, so the device runs them on
//! up to [`Device::host_threads`] host threads (default: the machine's
//! `available_parallelism`), the calling thread included. The rule:
//!
//! * **Sanitizer ⇒ sequential.** With `config.sanitize` (where
//!   [`Device::host_threads`] is 1), or when the launch has one block, or
//!   the device has one host thread, blocks run one after another on the
//!   caller, in launch order, exactly as a single-threaded simulator would.
//! * **Results in launch order.** Otherwise workers take blocks in launch
//!   order from one shared queue and each block's [`BlockStats`] is put
//!   back at its launch index, so packing, schedules and every modeled
//!   number are independent of which thread ran which block or when.
//! * **Helper heaps.** The caller's blocks allocate from [`Device::heap`];
//!   each helper thread allocates from a private [`DeviceHeap`] whose
//!   counters are folded into the device heap when the launch ends. Only two
//!   things read a heap address: the sanitizer, which forces the sequential
//!   path, and the plain kernel's per-block entry chunk, whose coalescing
//!   count does not depend on where a 4096-aligned chunk lands.

use crate::block::{BlockCtx, BlockStats, WarpScratch};
use crate::config::DeviceConfig;
use crate::memory::{AddressSpace, DeviceBuffer, DeviceHeap};
use crate::sancheck::{SanReport, Sanitizer};
use gdroid_trace::Tracer;
use std::sync::Mutex;

/// A boxed block program, for launches whose blocks are heterogeneous
/// closures (homogeneous launches can pass plain closures to
/// [`Device::launch`] directly). `Send`, because a launch may run its
/// blocks on several host threads.
pub type BlockFn<'a> = Box<dyn FnOnce(&mut BlockCtx<'_>) + Send + 'a>;

/// A deterministic fault-injection schedule for resilience testing: every
/// `period`-th kernel launch on the device fails (before executing any
/// block), up to `budget` total faults over the device's lifetime. Only
/// [`Device::try_launch`] observes the plan; [`Device::launch`] ignores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fault every `period`-th launch (0 disables the plan).
    pub period: u64,
    /// Maximum faults to inject over the device lifetime.
    pub budget: u64,
}

/// An injected device fault: the launch aborted before running any block
/// (the moral equivalent of a `cudaErrorLaunchFailure` at submit time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceFault {
    /// 1-based lifetime index of the launch that faulted.
    pub launch_index: u64,
}

impl std::fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected device fault at launch #{}", self.launch_index)
    }
}

impl std::error::Error for DeviceFault {}

/// The simulated GPU.
pub struct Device {
    /// Architectural constants.
    pub config: DeviceConfig,
    /// cudaMalloc-style planned allocations.
    pub address_space: AddressSpace,
    /// Kernel-side dynamic heap (shared across all blocks).
    pub heap: DeviceHeap,
    /// `simcheck` shadow-state tracker, present iff `config.sanitize`.
    san: Option<Sanitizer>,
    /// Host-side buffers lent to each block's `warp_process` on the
    /// calling thread.
    scratch: WarpScratch,
    /// Host threads one launch's blocks may run on, the caller included.
    host_threads: usize,
    /// One [`WarpScratch`] per helper thread, kept from launch to launch.
    helper_scratch: Vec<WarpScratch>,
    /// Injected-fault schedule, if any.
    fault_plan: Option<FaultPlan>,
    /// Lifetime launch counter (survives [`Device::reset`]).
    launches: u64,
    /// Faults injected so far (survives [`Device::reset`]).
    faults_injected: u64,
    /// Modeled device clock in ns: each launch advances it by the
    /// kernel's modeled time, so traces get a monotone per-device
    /// timeline. Survives [`Device::reset`] (the clock is lifetime
    /// state, like the launch counter).
    clock_ns: u64,
    /// Trace sink. Disabled by default — recording then costs one
    /// branch per launch.
    tracer: Tracer,
}

/// Aggregated result of one kernel launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Blocks launched.
    pub blocks: usize,
    /// Makespan in device cycles (including launch overhead).
    pub makespan_cycles: u64,
    /// Sum of all block cycles (the work; makespan ≥ work / slots).
    pub total_block_cycles: u64,
    /// Busy-slot utilization in `[0, 1]`.
    pub utilization: f64,
    /// Warp steps across all blocks.
    pub warp_steps: u64,
    /// Divergence passes across all blocks.
    pub divergence_passes: u64,
    /// Memory transactions across all blocks.
    pub transactions: u64,
    /// Ideal (perfectly coalesced) transaction count.
    pub ideal_transactions: u64,
    /// Dynamic allocations.
    pub mallocs: u64,
    /// Cycles spent in the allocator.
    pub malloc_cycles: u64,
    /// Per-block schedule: `(slot, start_cycle, end_cycle)` in launch
    /// order — the raw material for occupancy timelines.
    pub schedule: Vec<(u32, u64, u64)>,
}

impl KernelStats {
    /// Mean serialized passes per warp step (1.0 = divergence-free).
    pub fn divergence_factor(&self) -> f64 {
        if self.warp_steps == 0 {
            return 1.0;
        }
        self.divergence_passes as f64 / self.warp_steps as f64
    }

    /// Execution time in nanoseconds at the device clock. The launch
    /// overhead is rounded to whole ns exactly as the device clock and
    /// trace spans round it, so a fractional `launch_overhead_us` can
    /// never make the reported makespan disagree with the clock advance.
    pub fn time_ns(&self, config: &DeviceConfig) -> f64 {
        config.cycles_to_ns(self.makespan_cycles) + (config.launch_overhead_us * 1e3).round()
    }

    /// Renders an ASCII occupancy timeline: one row per busy slot, `#`
    /// where a block ran, `.` where the slot idled — the view a profiler's
    /// kernel timeline gives. `width` is the number of character columns.
    pub fn occupancy_chart(&self, width: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // Degenerate inputs: an empty or zero-cycle schedule has no
        // timeline to scale against (the scale below would be 0 and the
        // slot arithmetic nonsense), and a zero-width chart has no
        // columns (`width - 1` would underflow).
        if self.makespan_cycles == 0 || self.schedule.is_empty() {
            return "(empty launch)\n".into();
        }
        let width = width.max(1);
        let slots = self.schedule.iter().map(|&(s, _, _)| s).max().unwrap_or(0) as usize + 1;
        let scale = self.makespan_cycles as f64 / width as f64;
        for slot in 0..slots {
            let mut row = vec![b'.'; width];
            for &(s, start, end) in &self.schedule {
                if s as usize != slot {
                    continue;
                }
                let from = (start as f64 / scale) as usize;
                let to = ((end as f64 / scale) as usize).min(width.saturating_sub(1));
                for c in row.iter_mut().take(to + 1).skip(from.min(width - 1)) {
                    *c = b'#';
                }
            }
            writeln!(out, "slot {slot:3} |{}|", String::from_utf8(row).unwrap()).unwrap();
        }
        out
    }
}

/// Result of a *sourced* launch ([`Device::try_launch_sourced`]): the
/// combined packing plus the raw per-block counters and each block's
/// caller-supplied source tag, so multi-app batches can attribute work
/// back to the app that contributed each block.
#[derive(Clone, Debug)]
pub struct SourcedKernelStats {
    /// The whole launch packed onto the device, all sources together.
    pub combined: KernelStats,
    /// Raw per-block counters, in launch order.
    pub per_block: Vec<BlockStats>,
    /// The source tag of each block, in launch order.
    pub sources: Vec<u32>,
}

impl SourcedKernelStats {
    /// The per-block stats contributed by one source, in launch order.
    pub fn blocks_of(&self, source: u32) -> Vec<BlockStats> {
        self.sources
            .iter()
            .zip(&self.per_block)
            .filter(|&(&s, _)| s == source)
            .map(|(_, b)| *b)
            .collect()
    }
}

impl Device {
    /// A fresh device.
    pub fn new(config: DeviceConfig) -> Device {
        Device {
            address_space: AddressSpace::new(&config),
            heap: DeviceHeap::new(),
            san: config.sanitize.then(Sanitizer::new),
            scratch: WarpScratch::default(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            helper_scratch: Vec::new(),
            config,
            fault_plan: None,
            launches: 0,
            faults_injected: 0,
            clock_ns: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Caps the host threads one launch's blocks run on (at least 1, the
    /// calling thread). Changes host time only: every result and modeled
    /// number is the same for any count (see the module docs).
    pub fn set_host_threads(&mut self, threads: usize) {
        self.host_threads = threads.max(1);
    }

    /// The host threads a many-block launch runs on: 1 on a sanitizing
    /// device, which always runs its blocks in order, else the count set
    /// by [`Device::set_host_threads`] (default: `available_parallelism`).
    pub fn host_threads(&self) -> usize {
        if self.san.is_some() {
            1
        } else {
            self.host_threads
        }
    }

    /// Installs a trace sink; pass `Tracer::disabled()` to stop recording.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed trace sink (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The modeled device clock, ns: the sum of all launch times so far,
    /// plus any host-side time acknowledged via [`Device::advance_clock`].
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the modeled clock to at least `ns` — used by hosts to
    /// align the device timeline with modeled host-side work (e.g. app
    /// preparation) that happened before the next launch.
    pub fn advance_clock(&mut self, ns: u64) {
        self.clock_ns = self.clock_ns.max(ns);
    }

    /// Returns the device to its freshly-constructed memory state — a new
    /// address space, an empty heap, and (when sanitizing) a fresh shadow
    /// tracker — so one long-lived device can serve many analyses without
    /// its `cudaMalloc` arena growing without bound. Lifetime counters
    /// (launches, injected faults) and the fault plan survive, so a fault
    /// schedule spans the device's whole service life.
    pub fn reset(&mut self) {
        self.address_space = AddressSpace::new(&self.config);
        self.heap = DeviceHeap::new();
        self.san = self.config.sanitize.then(Sanitizer::new);
    }

    /// Installs (or clears) a fault-injection schedule. See [`FaultPlan`].
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Faults injected so far over the device's lifetime.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Kernel launches attempted so far (including faulted ones).
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Plans a buffer (host-side `cudaMalloc`). Its contents are
    /// *uninitialized*: under the sanitizer, kernel reads before any write
    /// are reported. Use [`Device::alloc_init`] for buffers filled by a
    /// host-to-device copy.
    pub fn alloc(&mut self, len: u64) -> DeviceBuffer {
        let buf = self.address_space.alloc(len);
        if let Some(san) = self.san.as_mut() {
            san.note_planned(buf, false);
        }
        buf
    }

    /// Plans a buffer whose contents are initialized host-side before the
    /// first kernel reads it (`cudaMalloc` + `cudaMemcpy`).
    pub fn alloc_init(&mut self, len: u64) -> DeviceBuffer {
        let buf = self.address_space.alloc(len);
        if let Some(san) = self.san.as_mut() {
            san.note_planned(buf, true);
        }
        buf
    }

    /// The sanitizer's findings so far, when `config.sanitize` is set.
    pub fn san_report(&self) -> Option<SanReport> {
        self.san.as_ref().map(Sanitizer::report)
    }

    /// Launches a kernel: one closure per block. Returns the aggregated
    /// stats with the packed makespan. Ignores any fault plan — existing
    /// single-shot callers cannot fault.
    pub fn launch<F>(&mut self, blocks: Vec<F>) -> KernelStats
    where
        F: FnOnce(&mut BlockCtx<'_>) + Send,
    {
        self.launches += 1;
        self.execute(blocks)
    }

    /// Launches a kernel, honoring the installed [`FaultPlan`]: a faulted
    /// launch aborts before any block runs and leaves device memory
    /// untouched, so the caller can retry the whole analysis.
    pub fn try_launch<F>(&mut self, blocks: Vec<F>) -> Result<KernelStats, DeviceFault>
    where
        F: FnOnce(&mut BlockCtx<'_>) + Send,
    {
        self.launches += 1;
        if let Some(fault) = self.check_fault() {
            return Err(fault);
        }
        Ok(self.execute(blocks))
    }

    /// Launches a kernel whose blocks carry a caller-chosen source tag
    /// (e.g. the index of the app that contributed the block in a
    /// co-resident batch). Honors the installed [`FaultPlan`] exactly like
    /// [`Device::try_launch`]; on success returns the combined packing
    /// *and* the tagged per-block counters so callers can re-attribute
    /// work per source via [`Device::repack`].
    pub fn try_launch_sourced(
        &mut self,
        blocks: Vec<(u32, BlockFn<'_>)>,
    ) -> Result<SourcedKernelStats, DeviceFault> {
        self.launches += 1;
        if let Some(fault) = self.check_fault() {
            return Err(fault);
        }
        let (sources, fns): (Vec<u32>, Vec<BlockFn<'_>>) = blocks.into_iter().unzip();
        let (combined, per_block) = self.execute_with_blocks(fns);
        Ok(SourcedKernelStats { combined, per_block, sources })
    }

    /// Applies the installed fault plan to the launch counter just bumped;
    /// shared by the faultable launch entry points.
    fn check_fault(&mut self) -> Option<DeviceFault> {
        let plan = self.fault_plan?;
        if plan.period > 0
            && self.launches.is_multiple_of(plan.period)
            && self.faults_injected < plan.budget
        {
            self.faults_injected += 1;
            return Some(DeviceFault { launch_index: self.launches });
        }
        None
    }

    /// Runs a launch's blocks and packs their timelines (shared by
    /// [`Device::launch`] and [`Device::try_launch`]).
    fn execute<F>(&mut self, blocks: Vec<F>) -> KernelStats
    where
        F: FnOnce(&mut BlockCtx<'_>) + Send,
    {
        self.execute_with_blocks(blocks).0
    }

    /// [`Device::execute`], also returning the raw per-block counters in
    /// launch order (the attribution substrate for sourced launches).
    fn execute_with_blocks<F>(&mut self, blocks: Vec<F>) -> (KernelStats, Vec<BlockStats>)
    where
        F: FnOnce(&mut BlockCtx<'_>) + Send,
    {
        let per_block = self.run_blocks(blocks);
        let stats = self.pack(&per_block);
        let launch_ns = stats.time_ns(&self.config).round() as u64;
        if self.tracer.enabled() {
            self.trace_launch(&stats, &per_block, launch_ns);
        }
        self.clock_ns += launch_ns;
        (stats, per_block)
    }

    /// Runs one launch's blocks and returns their raw counters in launch
    /// order: in order on the caller under the sanitizer, else on up to
    /// [`Device::host_threads`] threads (see the module docs).
    fn run_blocks<F>(&mut self, blocks: Vec<F>) -> Vec<BlockStats>
    where
        F: FnOnce(&mut BlockCtx<'_>) + Send,
    {
        let resident = blocks.len().min(self.config.block_slots()).max(1);
        let workers = self.host_threads().min(blocks.len());
        let allocations_before = self.heap.allocations;
        let per_block = if workers <= 1 {
            self.run_in_order(blocks, resident)
        } else {
            self.run_on_threads(blocks, resident, workers)
        };
        debug_assert_eq!(
            self.heap.allocations - allocations_before,
            per_block.iter().map(|b| b.mallocs).sum::<u64>(),
            "heap allocations != the launch's block mallocs"
        );
        per_block
    }

    /// The sequential runner: blocks one after another on the caller,
    /// inside one sanitizer epoch.
    fn run_in_order<F>(&mut self, blocks: Vec<F>, resident: usize) -> Vec<BlockStats>
    where
        F: FnOnce(&mut BlockCtx<'_>),
    {
        if let Some(san) = self.san.as_mut() {
            san.begin_launch();
        }
        let mut per_block: Vec<BlockStats> = Vec::with_capacity(blocks.len());
        for (i, f) in blocks.into_iter().enumerate() {
            if let Some(san) = self.san.as_mut() {
                san.begin_block(i as u32);
            }
            let mut ctx = BlockCtx::new(
                &self.config,
                &mut self.heap,
                resident,
                self.san.as_mut(),
                &mut self.scratch,
            );
            f(&mut ctx);
            per_block.push(ctx.stats);
        }
        per_block
    }

    /// The threaded runner: the caller and `workers - 1` scoped helpers
    /// take blocks in launch order from one shared queue; each returns the
    /// `(index, stats)` of the blocks it ran, put back into launch order.
    fn run_on_threads<F>(
        &mut self,
        blocks: Vec<F>,
        resident: usize,
        workers: usize,
    ) -> Vec<BlockStats>
    where
        F: FnOnce(&mut BlockCtx<'_>) + Send,
    {
        let n = blocks.len();
        let queue = Mutex::new(blocks.into_iter().enumerate());
        let config = &self.config;
        let work = |heap: &mut DeviceHeap, scratch: &mut WarpScratch| {
            let mut ran = Vec::new();
            loop {
                // The guard drops with the `let`: no block runs under the lock.
                let next = queue.lock().expect("the queue is locked only to take a block").next();
                let Some((i, f)) = next else { break ran };
                let mut ctx = BlockCtx::new(config, heap, resident, None, scratch);
                f(&mut ctx);
                ran.push((i, ctx.stats));
            }
        };
        if self.helper_scratch.len() < workers - 1 {
            self.helper_scratch.resize_with(workers - 1, WarpScratch::default);
        }
        let heap = &mut self.heap;
        let helpers = &mut self.helper_scratch[..workers - 1];
        let scratch = &mut self.scratch;
        let mut ran = std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = helpers
                .iter_mut()
                .map(|scratch| {
                    scope.spawn(move || {
                        let mut own = DeviceHeap::new();
                        let ran = work(&mut own, scratch);
                        (own, ran)
                    })
                })
                .collect();
            let mut ran = work(heap, scratch);
            for handle in handles {
                let (own, theirs) =
                    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                heap.allocations += own.allocations;
                heap.bytes += own.bytes;
                ran.extend(theirs);
            }
            ran
        });
        ran.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(
            ran.len() == n && ran.iter().enumerate().all(|(slot, &(i, _))| slot == i),
            "every block must report exactly once"
        );
        ran.into_iter().map(|(_, stats)| stats).collect()
    }

    /// Re-packs a set of already-executed block timelines as if they had
    /// been the whole launch. Pure: touches no device state, charges no
    /// time. Because the per-block dilation factors depend only on the
    /// *configured* blocks-per-SM (never the launch size), re-packing the
    /// blocks one app contributed to a co-resident launch reproduces that
    /// app's solo [`KernelStats`] exactly — the attribution rule behind
    /// multi-app batching.
    pub fn repack(&self, per_block: &[BlockStats]) -> KernelStats {
        self.pack(per_block)
    }

    /// Emits one span for the launch plus one per block (on the block's
    /// slot track), all in modeled time. Only called when tracing is on.
    fn trace_launch(&self, stats: &KernelStats, per_block: &[BlockStats], launch_ns: u64) {
        let overhead_ns = (self.config.launch_overhead_us * 1e3).round() as u64;
        self.tracer.span(
            "gpusim",
            format!("launch #{}", self.launches),
            self.clock_ns,
            launch_ns,
            0,
            vec![
                ("blocks", stats.blocks.into()),
                ("makespan_cycles", stats.makespan_cycles.into()),
                ("transactions", stats.transactions.into()),
                ("divergence_passes", stats.divergence_passes.into()),
                ("utilization", stats.utilization.into()),
            ],
        );
        let base_ns = self.clock_ns + overhead_ns;
        for (i, (&(slot, start, end), b)) in stats.schedule.iter().zip(per_block).enumerate() {
            self.tracer.span(
                "gpusim",
                format!("block {i}"),
                base_ns + self.config.cycles_to_ns(start).round() as u64,
                self.config.cycles_to_ns(end - start).round() as u64,
                slot + 1,
                vec![
                    ("transactions", b.transactions.into()),
                    ("divergence_passes", b.divergence_passes.into()),
                    ("warp_steps", b.warp_steps.into()),
                ],
            );
        }
    }

    /// Packs finished block timelines onto slots and aggregates stats.
    ///
    /// Co-residency trade-off: with `k = blocks_per_sm`, the warp
    /// scheduler can switch to another block's warps during dependent-load
    /// stalls (latency divided by `min(k, 6)`), but co-resident blocks
    /// share the SM's issue/cache resources (non-latency cycles dilated by
    /// `1 + 0.06·(k−1)`). The optimum lands at the paper's empirical 4–5
    /// blocks/SM for typical layer widths.
    fn pack(&self, per_block: &[BlockStats]) -> KernelStats {
        let k = self.config.blocks_per_sm.max(1) as u64;
        let dilation_num = 100 + 6 * (k - 1);
        let hide = k.min(6);
        let effective = |b: &BlockStats| -> u64 {
            let non_latency = b.cycles.saturating_sub(b.latency_cycles);
            non_latency * dilation_num / 100 + b.latency_cycles / hide
        };
        let slots = self.config.block_slots().max(1);
        let mut slot_end = vec![0u64; slots.min(per_block.len().max(1))];
        let mut stats = KernelStats { blocks: per_block.len(), ..Default::default() };
        for b in per_block {
            stats.total_block_cycles += b.cycles;
            stats.warp_steps += b.warp_steps;
            stats.divergence_passes += b.divergence_passes;
            stats.transactions += b.transactions;
            stats.ideal_transactions += b.ideal_transactions;
            stats.mallocs += b.mallocs;
            stats.malloc_cycles += b.malloc_cycles;
            // Greedy: next block goes to the earliest-finishing slot.
            let (idx, _) =
                slot_end.iter().enumerate().min_by_key(|(_, &end)| end).expect("at least one slot");
            let start = slot_end[idx];
            slot_end[idx] += effective(b);
            stats.schedule.push((idx as u32, start, slot_end[idx]));
        }
        stats.makespan_cycles = slot_end.iter().copied().max().unwrap_or(0);
        let busy: u64 = stats.total_block_cycles;
        let span = stats.makespan_cycles * slot_end.len() as u64;
        stats.utilization = if span == 0 { 1.0 } else { busy as f64 / span as f64 };
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::LaneWork;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A tiny config with one block per SM: no co-residency effects, so
    /// cycle arithmetic in tests stays exact.
    fn flat_config() -> DeviceConfig {
        DeviceConfig { blocks_per_sm: 1, sm_count: 4, ..DeviceConfig::tesla_p40() }
    }

    #[test]
    fn launch_packs_blocks_across_slots() {
        let mut dev = Device::new(flat_config()); // 4 slots
                                                  // 8 equal blocks of 100 cycles → 2 rounds → makespan 200.
        let blocks: Vec<_> = (0..8)
            .map(|_| {
                |ctx: &mut BlockCtx<'_>| {
                    ctx.compute(100);
                }
            })
            .collect();
        let stats = dev.launch(blocks);
        assert_eq!(stats.blocks, 8);
        assert_eq!(stats.total_block_cycles, 800);
        assert_eq!(stats.makespan_cycles, 200);
        assert!((stats.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn co_residency_dilates_compute_but_hides_latency() {
        // Pure-compute block: higher blocks/SM dilates it.
        let mut one = Device::new(DeviceConfig { blocks_per_sm: 1, ..DeviceConfig::tesla_p40() });
        let mut four = Device::new(DeviceConfig { blocks_per_sm: 4, ..DeviceConfig::tesla_p40() });
        let compute = |ctx: &mut BlockCtx<'_>| ctx.compute(1000);
        assert!(
            four.launch(vec![compute]).makespan_cycles > one.launch(vec![compute]).makespan_cycles
        );
        // Latency-dominated block: higher blocks/SM hides the stalls.
        let latency = |ctx: &mut BlockCtx<'_>| {
            let mut lane = LaneWork::compute(0, 0);
            lane.deref_layers = 2;
            for _ in 0..50 {
                ctx.warp_process(std::slice::from_ref(&lane));
            }
        };
        let mut one = Device::new(DeviceConfig { blocks_per_sm: 1, ..DeviceConfig::tesla_p40() });
        let mut four = Device::new(DeviceConfig { blocks_per_sm: 4, ..DeviceConfig::tesla_p40() });
        assert!(
            four.launch(vec![latency]).makespan_cycles < one.launch(vec![latency]).makespan_cycles
        );
    }

    #[test]
    fn imbalance_shows_in_makespan() {
        let mut dev = Device::new(flat_config()); // 4 slots
                                                  // One huge block dominates.
        let mut blocks: Vec<BlockFn<'_>> =
            vec![Box::new(|ctx: &mut BlockCtx<'_>| ctx.compute(1000))];
        for _ in 0..3 {
            blocks.push(Box::new(|ctx: &mut BlockCtx<'_>| ctx.compute(10)));
        }
        let stats = dev.launch(blocks);
        assert_eq!(stats.makespan_cycles, 1000);
        assert!(stats.utilization < 0.3);
    }

    #[test]
    fn fewer_blocks_than_slots_uses_block_count() {
        let mut dev = Device::new(flat_config());
        let stats = dev.launch(vec![|ctx: &mut BlockCtx<'_>| ctx.compute(50)]);
        assert_eq!(stats.makespan_cycles, 50);
        assert!((stats.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_aggregate_block_counters() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let stats = dev.launch(vec![
            |ctx: &mut BlockCtx<'_>| {
                let lanes: Vec<LaneWork> = (0..4).map(|i| LaneWork::compute(i, 5)).collect();
                ctx.warp_process(&lanes);
            },
            |ctx: &mut BlockCtx<'_>| {
                ctx.malloc(64);
            },
        ]);
        assert_eq!(stats.warp_steps, 1);
        assert_eq!(stats.divergence_passes, 4);
        assert_eq!(stats.mallocs, 1);
        assert!(stats.divergence_factor() > 3.9);
    }

    /// Conservation (ROADMAP 4c): every additive launch counter is the
    /// sum of the launch's per-block counters, and the makespan covers
    /// every block's scheduled end.
    #[test]
    fn kernel_stats_are_the_sum_of_their_block_stats() {
        let mut dev = Device::new(DeviceConfig::tiny()); // 4 slots
        let base = dev.alloc(1 << 17).base;
        // 9 blocks over 4 slots, each touching every counted cost path
        // with a block-dependent amount of work.
        let blocks: Vec<(u32, BlockFn<'_>)> = (0..9u64)
            .map(|b| {
                let f: BlockFn<'_> = Box::new(move |ctx: &mut BlockCtx<'_>| {
                    let lanes: Vec<LaneWork> = (0..8 + b)
                        .map(|i| LaneWork {
                            partition: (i % (b + 1)) as u32,
                            compute_cycles: 3 + b,
                            reads: vec![base + i * 4096],
                            writes: vec![base + 8 * i],
                            deref_layers: (b % 3) as u32,
                            ..Default::default()
                        })
                        .collect();
                    for _ in 0..=b {
                        ctx.warp_process(&lanes);
                    }
                    ctx.malloc(64 * (b + 1));
                    ctx.compute(10 * b);
                });
                (b as u32, f)
            })
            .collect();
        let launch = dev.try_launch_sourced(blocks).expect("no fault plan");
        let (k, per_block) = (&launch.combined, &launch.per_block);
        assert_eq!(k.blocks, per_block.len());
        type OfBlock = fn(&BlockStats) -> u64;
        let counters: [(&str, u64, OfBlock); 7] = [
            ("total_block_cycles", k.total_block_cycles, |b| b.cycles),
            ("warp_steps", k.warp_steps, |b| b.warp_steps),
            ("divergence_passes", k.divergence_passes, |b| b.divergence_passes),
            ("transactions", k.transactions, |b| b.transactions),
            ("ideal_transactions", k.ideal_transactions, |b| b.ideal_transactions),
            ("mallocs", k.mallocs, |b| b.mallocs),
            ("malloc_cycles", k.malloc_cycles, |b| b.malloc_cycles),
        ];
        for (name, total, of_block) in counters {
            assert_eq!(total, per_block.iter().map(of_block).sum::<u64>(), "{name}");
            // Live in this launch, so a dropped `+=` in `pack` cannot hide
            // behind 0 == 0.
            assert!(total > 0, "{name} never counted");
        }
        assert!(k.divergence_passes > k.warp_steps && k.transactions > k.ideal_transactions);
        assert_eq!(k.schedule.len(), per_block.len());
        for &(slot, start, end) in &k.schedule {
            assert!((slot as usize) < dev.config.block_slots());
            assert!(start <= end && end <= k.makespan_cycles, "block ends after the launch");
        }
    }

    /// Blocks that finish out of launch order still report in launch
    /// order. On four host threads block 0 waits until every other block
    /// has run, so it finishes last; the per-block stats, the packing and
    /// the folded heap counters still equal a one-thread run's.
    #[test]
    fn threaded_blocks_report_in_launch_order() {
        const BLOCKS: usize = 9;
        let run = |host_threads: usize| {
            let finished = AtomicUsize::new(0);
            let finished = &finished;
            let mut dev = Device::new(DeviceConfig::tiny());
            dev.set_host_threads(host_threads);
            let blocks: Vec<(u32, BlockFn<'_>)> = (0..BLOCKS as u64)
                .map(|b| {
                    let f: BlockFn<'_> = Box::new(move |ctx: &mut BlockCtx<'_>| {
                        if b == 0 && host_threads > 1 {
                            while finished.load(Ordering::SeqCst) < BLOCKS - 1 {
                                std::thread::yield_now();
                            }
                        }
                        ctx.compute(100 * (b + 1));
                        for _ in 0..b {
                            ctx.malloc(64 * (b + 1));
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                    (b as u32, f)
                })
                .collect();
            let launch = dev.try_launch_sourced(blocks).expect("no fault plan");
            (launch.combined, launch.per_block, dev.heap.allocations, dev.heap.bytes)
        };
        let sequential = run(1);
        assert!(sequential.1.windows(2).all(|w| w[0].cycles < w[1].cycles), "blocks differ");
        assert_eq!(sequential.2, (0..BLOCKS as u64).sum::<u64>());
        assert_eq!(run(4), sequential);
    }

    /// The sanitizer forces the sequential runner: a sanitizing device
    /// allowed four host threads reports what a one-thread one does.
    #[test]
    fn sanitized_launches_ignore_host_threads() {
        let run = |host_threads: usize| {
            let mut dev = Device::new(DeviceConfig::tiny().with_sanitizer());
            dev.set_host_threads(host_threads);
            assert_eq!(dev.host_threads(), 1, "a sanitizing device reports one host thread");
            let buf = dev.alloc(4096);
            // Each block writes its own word and reads its neighbour's: an
            // uninitialized read, and a cross-block race.
            let blocks: Vec<BlockFn<'_>> = (0..6u64)
                .map(|b| {
                    Box::new(move |ctx: &mut BlockCtx<'_>| {
                        let mut lane = LaneWork::compute(0, 1);
                        lane.writes = vec![buf.base + 8 * b];
                        lane.reads = vec![buf.base + 8 * ((b + 1) % 6)];
                        ctx.warp_process(&[lane]);
                        ctx.malloc(64);
                    }) as BlockFn<'_>
                })
                .collect();
            let stats = dev.launch(blocks);
            (stats, dev.san_report().expect("the device sanitizes"))
        };
        let one = run(1);
        assert!(!one.1.is_clean(), "the launch must give the sanitizer something to find");
        assert_eq!(run(4), one);
    }

    #[test]
    fn occupancy_chart_shows_busy_and_idle() {
        let mut dev = Device::new(flat_config()); // 4 slots
        let blocks: Vec<BlockFn<'_>> = vec![
            Box::new(|ctx: &mut BlockCtx<'_>| ctx.compute(1000)),
            Box::new(|ctx: &mut BlockCtx<'_>| ctx.compute(100)),
        ];
        let stats = dev.launch(blocks);
        let chart = stats.occupancy_chart(40);
        assert_eq!(chart.lines().count(), 2, "two busy slots");
        assert!(chart.contains('#'));
        assert!(chart.contains('.'), "short block's slot must show idle time");
        // The long block's row is denser than the short one's.
        let rows: Vec<&str> = chart.lines().collect();
        let dense = rows[0].matches('#').count();
        let sparse = rows[1].matches('#').count();
        assert!(dense > sparse);
    }

    #[test]
    fn empty_launch_is_zero() {
        let mut dev = Device::new(DeviceConfig::tiny());
        let stats = dev.launch(Vec::<fn(&mut BlockCtx<'_>)>::new());
        assert_eq!(stats.makespan_cycles, 0);
        assert_eq!(stats.blocks, 0);
    }

    #[test]
    fn reset_reclaims_address_space_but_keeps_counters() {
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.alloc(1 << 20);
        dev.launch(vec![|ctx: &mut BlockCtx<'_>| ctx.compute(1)]);
        let used = dev.address_space.used();
        assert!(used > 1 << 20);
        dev.reset();
        assert!(dev.address_space.used() < used, "reset must reclaim the arena");
        assert_eq!(dev.launches(), 1, "lifetime counters survive reset");
        // The device stays usable after reset.
        dev.alloc(1 << 20);
        let stats = dev.launch(vec![|ctx: &mut BlockCtx<'_>| ctx.compute(7)]);
        assert_eq!(stats.makespan_cycles, 7);
    }

    #[test]
    fn fault_plan_faults_every_nth_try_launch_up_to_budget() {
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.set_fault_plan(Some(FaultPlan { period: 3, budget: 2 }));
        let mut faults = 0;
        for i in 1..=12u64 {
            let r = dev.try_launch(vec![|ctx: &mut BlockCtx<'_>| ctx.compute(1)]);
            match r {
                Ok(_) => {}
                Err(f) => {
                    faults += 1;
                    assert_eq!(f.launch_index, i);
                    assert_eq!(f.launch_index % 3, 0, "faults land on the period");
                }
            }
        }
        assert_eq!(faults, 2, "budget caps injected faults");
        assert_eq!(dev.faults_injected(), 2);
        assert_eq!(dev.launches(), 12);
    }

    #[test]
    fn plain_launch_ignores_fault_plan() {
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.set_fault_plan(Some(FaultPlan { period: 1, budget: u64::MAX }));
        for _ in 0..5 {
            let stats = dev.launch(vec![|ctx: &mut BlockCtx<'_>| ctx.compute(1)]);
            assert_eq!(stats.blocks, 1);
        }
        assert_eq!(dev.faults_injected(), 0);
    }

    #[test]
    fn tracer_records_launch_and_block_spans_in_modeled_time() {
        let mut traced = Device::new(flat_config());
        traced.set_tracer(Tracer::enabled_new());
        let mut plain = Device::new(flat_config());
        let mk = || {
            (0..3)
                .map(|_| {
                    |ctx: &mut BlockCtx<'_>| {
                        ctx.compute(100);
                    }
                })
                .collect::<Vec<_>>()
        };
        let a = traced.launch(mk());
        let b = plain.launch(mk());
        assert_eq!(a, b, "tracing must not perturb kernel stats");
        let evs = traced.tracer().events();
        assert_eq!(evs.len(), 4, "one launch span + three block spans");
        assert_eq!(evs[0].name, "launch #1");
        assert_eq!(evs[0].ts_ns, 0, "first launch starts at modeled zero");
        assert_eq!(evs[0].dur_ns, a.time_ns(&traced.config).round() as u64);
        assert!(evs.iter().filter(|e| e.name.starts_with("block")).count() == 3);
        assert_eq!(traced.clock_ns(), evs[0].dur_ns, "clock advances by the launch time");
        assert_eq!(plain.clock_ns(), traced.clock_ns(), "clock is trace-independent");
        // A second launch lands after the first on the device timeline.
        traced.launch(mk());
        let evs = traced.tracer().events();
        let second = evs.iter().find(|e| e.name == "launch #2").unwrap();
        assert_eq!(second.ts_ns, a.time_ns(&traced.config).round() as u64);
    }

    #[test]
    fn sourced_launch_repacks_to_solo_stats() {
        // Interleaved blocks from two "apps"; re-packing each app's
        // blocks must reproduce the stats of launching that app alone.
        let mk = |cycles: u64| {
            Box::new(move |ctx: &mut BlockCtx<'_>| ctx.compute(cycles)) as BlockFn<'_>
        };
        let mut dev = Device::new(flat_config());
        let tagged: Vec<(u32, BlockFn<'_>)> =
            vec![(0, mk(100)), (1, mk(70)), (0, mk(300)), (1, mk(70)), (0, mk(200))];
        let sourced = dev.try_launch_sourced(tagged).unwrap();
        assert_eq!(sourced.combined.blocks, 5);
        assert_eq!(sourced.sources, vec![0, 1, 0, 1, 0]);
        let app0 = dev.repack(&sourced.blocks_of(0));
        let app1 = dev.repack(&sourced.blocks_of(1));
        let mut solo0 = Device::new(flat_config());
        let mut solo1 = Device::new(flat_config());
        assert_eq!(app0, solo0.launch(vec![mk(100), mk(300), mk(200)]));
        assert_eq!(app1, solo1.launch(vec![mk(70), mk(70)]));
        // The combined launch covers both apps' work.
        assert_eq!(
            sourced.combined.total_block_cycles,
            app0.total_block_cycles + app1.total_block_cycles
        );
    }

    #[test]
    fn sourced_launch_honors_fault_plan() {
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.set_fault_plan(Some(FaultPlan { period: 2, budget: 1 }));
        let mk = || vec![(0u32, Box::new(|ctx: &mut BlockCtx<'_>| ctx.compute(1)) as BlockFn<'_>)];
        assert!(dev.try_launch_sourced(mk()).is_ok());
        assert_eq!(dev.try_launch_sourced(mk()).unwrap_err().launch_index, 2);
        assert!(dev.try_launch_sourced(mk()).is_ok());
        assert_eq!(dev.faults_injected(), 1);
    }

    #[test]
    fn advance_clock_is_monotone() {
        let mut dev = Device::new(DeviceConfig::tiny());
        dev.advance_clock(500);
        assert_eq!(dev.clock_ns(), 500);
        dev.advance_clock(100);
        assert_eq!(dev.clock_ns(), 500, "advance never rewinds");
    }

    #[test]
    fn time_includes_launch_overhead() {
        let dev_cfg = DeviceConfig::tesla_p40();
        let stats = KernelStats { makespan_cycles: 1303, ..Default::default() };
        let t = stats.time_ns(&dev_cfg);
        assert!(t > 1000.0 + 4999.0, "{t}");
    }

    #[test]
    fn fractional_launch_overhead_rounds_like_the_clock() {
        // Regression: time_ns used to add launch_overhead_us * 1e3
        // unrounded while the device clock advanced by the rounded value,
        // so a fractional overhead (5.0004 µs → 5000.4 ns) made the
        // reported makespan disagree with the clock by fractional ns.
        let cfg = DeviceConfig { launch_overhead_us: 5.0004, ..flat_config() };
        let stats = KernelStats::default();
        assert_eq!(stats.time_ns(&cfg), 5000.0, "overhead contributes its rounded ns");
        let mut dev = Device::new(cfg);
        let s = dev.launch(vec![|ctx: &mut BlockCtx<'_>| ctx.compute(100)]);
        assert_eq!(
            dev.clock_ns(),
            s.time_ns(&dev.config).round() as u64,
            "clock advance equals the reported launch time exactly"
        );
    }

    #[test]
    fn occupancy_chart_guards_degenerate_schedules() {
        // Empty launch: no schedule, zero makespan — must not divide by 0.
        let mut dev = Device::new(DeviceConfig::tiny());
        let empty = dev.launch(Vec::<fn(&mut BlockCtx<'_>)>::new());
        assert_eq!(empty.occupancy_chart(40), "(empty launch)\n");
        // Zero-cost blocks: schedule entries exist but the makespan is 0.
        let zero = dev.launch(vec![|_ctx: &mut BlockCtx<'_>| {}]);
        assert_eq!(zero.makespan_cycles, 0);
        assert_eq!(zero.occupancy_chart(40), "(empty launch)\n");
        // Zero width must not underflow `width - 1`; it renders 1 column.
        let real = dev.launch(vec![|ctx: &mut BlockCtx<'_>| ctx.compute(10)]);
        let chart = real.occupancy_chart(0);
        assert!(chart.contains('#'), "zero width clamps to one column: {chart:?}");
    }
}
