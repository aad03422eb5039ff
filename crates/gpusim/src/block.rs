//! Thread-block execution context: warp-synchronous cost accounting.
//!
//! Kernels in this simulator are written *warp-centrically*: for each
//! worklist round, the kernel builds one [`LaneWork`] descriptor per active
//! lane and submits warp-sized groups through [`BlockCtx::warp_process`]
//! (or [`BlockCtx::warp_process_counted`], below).
//! The context then charges cycles mechanistically:
//!
//! * **branch divergence** — lanes are grouped by their `partition` (the
//!   branch path they take); distinct groups execute *serially*, exactly
//!   like a SIMT reconvergence stack. A warp of 25 different statement
//!   types pays ~25 serialized passes; a GRP-sorted warp pays 1–3.
//! * **memory coalescing** — each group's reads/writes are collapsed into
//!   128-byte transactions (the counting routine behind
//!   [`crate::memory::transactions`]); lanes in different divergence groups
//!   cannot coalesce with each other.
//! * **dependent latency** — double-de-reference lanes (`x.f`, `a[i]`)
//!   pay pointer-chasing latency that other warps cannot hide.
//! * **dynamic allocation** — `malloc` requests route to the shared
//!   [`crate::memory::DeviceHeap`] and pay the serialized, contended path.
//!
//! A step comes in two lane forms that charge identically:
//!
//! * **address form** ([`BlockCtx::warp_process`]) — each lane lists every
//!   global address it reads and writes, and the context counts the
//!   group's distinct segments itself;
//! * **counted form** ([`BlockCtx::warp_process_counted`]) — the lanes
//!   carry no addresses, and a kernel-supplied closure returns each
//!   group's transactions and useful bytes (the MAT kernel counts them
//!   straight from its fact bitmaps).
//!
//! Sanitizer ⇒ address form: a race detector must see every access, not a
//! count, so a kernel takes the counted form only when
//! [`BlockCtx::sanitizing`] is false.

use crate::config::DeviceConfig;
use crate::memory::{DevAddr, DeviceBuffer, DeviceHeap, SegmentCounter};
use crate::sancheck::{AccessOrder, Sanitizer};

/// The work one lane performs in one warp-synchronous step.
#[derive(Clone, Debug, Default)]
pub struct LaneWork {
    /// Branch-path identifier: lanes with equal partitions execute
    /// together; distinct partitions serialize.
    pub partition: u32,
    /// ALU cycles this lane needs.
    pub compute_cycles: u64,
    /// Global addresses read.
    pub reads: Vec<DevAddr>,
    /// Global addresses written.
    pub writes: Vec<DevAddr>,
    /// Dependent de-reference depth (GRP's 0/1/2 classification).
    pub deref_layers: u32,
    /// Dynamic allocations requested (byte sizes).
    pub mallocs: Vec<u64>,
    /// Useful bytes behind `reads` (for the ideal-coalescing metric).
    /// When 0, 8 bytes per address are assumed.
    pub bytes_read: u64,
    /// Useful bytes behind `writes`.
    pub bytes_written: u64,
    /// Memory-ordering class of this lane's accesses. `Atomic` models the
    /// kernels' atomic-OR fact updates and CAS inserts: such accesses are
    /// exempt from the sanitizer's race detection (but still bounds- and
    /// liveness-checked). Has no effect on timing.
    pub order: AccessOrder,
    /// Barrier this lane arrives at during the step (`None` = does not
    /// sync). Lanes of one warp disagreeing is barrier divergence —
    /// reported by the sanitizer. Has no effect on timing.
    pub barrier: Option<u32>,
}

impl LaneWork {
    /// A lane that only computes.
    pub fn compute(partition: u32, cycles: u64) -> LaneWork {
        LaneWork { partition, compute_cycles: cycles, ..Default::default() }
    }
}

/// Per-block counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Cycles this block's timeline advanced.
    pub cycles: u64,
    /// Warp-synchronous steps executed.
    pub warp_steps: u64,
    /// Serialized divergence passes (≥ warp_steps; ratio = divergence).
    pub divergence_passes: u64,
    /// Global-memory transactions issued.
    pub transactions: u64,
    /// The minimum transactions had every access been perfectly coalesced.
    pub ideal_transactions: u64,
    /// Dynamic allocations performed.
    pub mallocs: u64,
    /// Bytes requested from the device heap.
    pub malloc_bytes: u64,
    /// Cycles spent waiting on the allocator.
    pub malloc_cycles: u64,
    /// Cycles of dependent-load latency (hideable by co-resident blocks).
    pub latency_cycles: u64,
    /// Device-side worklist queue operations (persistent kernels).
    pub queue_ops: u64,
    /// Cycles spent in contended queue operations (persistent kernels).
    pub queue_cycles: u64,
}

/// Host buffers [`BlockCtx::warp_process`] reuses from step to step. The
/// [`crate::Device`] owns one and lends it to every block it runs.
#[derive(Default)]
pub(crate) struct WarpScratch {
    /// Lane indices of the current step, sorted by partition.
    order: Vec<u32>,
    segments: SegmentCounter,
}

/// Execution context of one thread block.
pub struct BlockCtx<'a> {
    config: &'a DeviceConfig,
    heap: &'a mut DeviceHeap,
    /// Blocks co-resident on the device during this launch (allocator
    /// contention factor).
    resident_blocks: usize,
    /// The `simcheck` sanitizer, when enabled on the device. Observes
    /// every global access without charging cycles.
    san: Option<&'a mut Sanitizer>,
    scratch: &'a mut WarpScratch,
    /// Counters.
    pub stats: BlockStats,
}

/// Fixed issue overhead per warp-synchronous step.
const WARP_ISSUE_CYCLES: u64 = 8;

/// The counted form's per-group count: lane indices in, `(transactions,
/// useful bytes)` out ([`BlockCtx::warp_process_counted`]).
type GroupCount<'c> = dyn FnMut(&[u32]) -> (u64, u64) + 'c;

impl<'a> BlockCtx<'a> {
    /// Creates a context (called by the device launch machinery).
    pub(crate) fn new(
        config: &'a DeviceConfig,
        heap: &'a mut DeviceHeap,
        resident_blocks: usize,
        san: Option<&'a mut Sanitizer>,
        scratch: &'a mut WarpScratch,
    ) -> BlockCtx<'a> {
        BlockCtx { config, heap, resident_blocks, san, scratch, stats: BlockStats::default() }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        self.config
    }

    /// Uniform (non-divergent) block-wide compute.
    pub fn compute(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
    }

    /// Whether the `simcheck` sanitizer observes this block's accesses —
    /// then every lane must carry its addresses ([`BlockCtx::warp_process`]).
    pub fn sanitizing(&self) -> bool {
        self.san.is_some()
    }

    /// Executes one warp-synchronous step over ≤ `warp_size` lanes.
    ///
    /// Lanes are grouped by `partition`; groups run serially. Within a
    /// group, compute costs take the max (lockstep), memory accesses
    /// coalesce, and dependent latency is charged once at the group's
    /// deepest de-reference level.
    pub fn warp_process(&mut self, lanes: &[LaneWork]) {
        self.step(lanes, None);
    }

    /// [`BlockCtx::warp_process`] in the counted form: the lanes carry no
    /// addresses, and `count` is called once per divergence group with the
    /// group's lane indices (ascending) and returns the group's
    /// `(transactions, useful bytes)`. Everything else — issue, compute,
    /// latency, mallocs — is charged from the lanes exactly as in the
    /// address form. Never on a sanitizing block: the sanitizer must see
    /// every access.
    pub fn warp_process_counted(
        &mut self,
        lanes: &[LaneWork],
        count: &mut dyn FnMut(&[u32]) -> (u64, u64),
    ) {
        debug_assert!(!self.sanitizing(), "a sanitizing block needs the address form");
        self.step(lanes, Some(count));
    }

    /// The one warp step behind both lane forms; `count` selects the
    /// counted form.
    fn step(&mut self, lanes: &[LaneWork], mut count: Option<&mut GroupCount<'_>>) {
        assert!(
            lanes.len() <= self.config.warp_size,
            "warp_process got {} lanes for warp size {}",
            lanes.len(),
            self.config.warp_size
        );
        if lanes.is_empty() {
            return;
        }
        if let Some(san) = self.san.as_mut() {
            san.on_warp(lanes);
        }
        self.stats.warp_steps += 1;
        self.stats.cycles += WARP_ISSUE_CYCLES;

        // Group lanes by partition; within a group lanes keep their order.
        let WarpScratch { order, segments } = &mut *self.scratch;
        order.clear();
        order.extend(0..lanes.len() as u32);
        order.sort_unstable_by_key(|&i| (lanes[i as usize].partition, i));

        let mut total_bytes_read_written = 0u64;
        for group in
            order.chunk_by(|&a, &b| lanes[a as usize].partition == lanes[b as usize].partition)
        {
            self.stats.divergence_passes += 1;
            let members = || group.iter().map(|&i| &lanes[i as usize]);

            // Lockstep compute takes the group's slowest lane; dependent
            // de-reference latency is charged once per serialized pass at
            // the deepest level (the pointer chase stalls the whole group).
            let (mut compute, mut depth, mut reads, mut writes) = (0, 0, 0, 0);
            for l in members() {
                compute = compute.max(l.compute_cycles);
                depth = depth.max(l.deref_layers);
                reads += l.reads.len();
                writes += l.writes.len();
                let br = if l.bytes_read == 0 { l.reads.len() as u64 * 8 } else { l.bytes_read };
                let bw =
                    if l.bytes_written == 0 { l.writes.len() as u64 * 8 } else { l.bytes_written };
                total_bytes_read_written += br + bw;

                // Dynamic allocations: fully serialized.
                for &bytes in &l.mallocs {
                    let (buf, cost) = self.heap.malloc(self.config, bytes, self.resident_blocks);
                    if let Some(san) = self.san.as_mut() {
                        san.note_heap(buf);
                    }
                    self.stats.mallocs += 1;
                    self.stats.malloc_bytes += bytes;
                    self.stats.malloc_cycles += cost;
                    self.stats.cycles += cost;
                }
            }
            self.stats.cycles += compute;
            // Tracked separately because co-resident blocks can hide it
            // (see Device::pack).
            let lat = u64::from(depth) * self.config.dependent_latency_cycles;
            self.stats.cycles += lat;
            self.stats.latency_cycles += lat;

            // Coalescing within the group only.
            let segment = self.config.transaction_bytes;
            let tx = match count.as_mut() {
                Some(count) => {
                    let (tx, bytes) = count(group);
                    total_bytes_read_written += bytes;
                    tx
                }
                None => {
                    segments.count(segment, reads, members().flat_map(|l| l.reads.iter().copied()))
                        + segments.count(
                            segment,
                            writes,
                            members().flat_map(|l| l.writes.iter().copied()),
                        )
                }
            };
            self.stats.transactions += tx;
            self.stats.cycles += tx * self.config.transaction_cycles;
        }

        // Ideal transaction count: all touched bytes in perfectly packed
        // 128-byte lines.
        self.stats.ideal_transactions +=
            total_bytes_read_written.div_ceil(self.config.transaction_bytes);
    }

    /// Dequeues `items` entries from the device-side worklist queue a
    /// persistent kernel owns. Each operation is an atomic head bump plus
    /// a scattered read; like the allocator, it serializes under
    /// contention, so the per-op cost scales with the co-resident block
    /// count (clamped — past ~24 contenders the queue is
    /// bandwidth-bound, not atomics-bound). Cost-only: queue ops never
    /// change what a kernel computes, so facts are unaffected.
    pub fn queue_pop(&mut self, items: u64) {
        self.queue_op(items);
    }

    /// Enqueues `items` entries onto the device-side worklist queue
    /// (atomic tail bump plus a scattered write). Same contended cost
    /// model as [`BlockCtx::queue_pop`].
    pub fn queue_push(&mut self, items: u64) {
        self.queue_op(items);
    }

    /// Shared contended queue-operation path.
    fn queue_op(&mut self, items: u64) {
        if items == 0 {
            return;
        }
        let contention = (self.resident_blocks as u64).clamp(4, 24);
        let cost = items * self.config.queue_op_cycles * contention;
        self.stats.queue_ops += items;
        self.stats.queue_cycles += cost;
        self.stats.cycles += cost;
    }

    /// Performs a kernel-side allocation outside lane context (e.g. the
    /// initial set-chunk allocations of the plain kernel).
    pub fn malloc(&mut self, bytes: u64) -> DeviceBuffer {
        let (buf, cost) = self.heap.malloc(self.config, bytes, self.resident_blocks);
        if let Some(san) = self.san.as_mut() {
            san.note_heap(buf);
        }
        self.stats.mallocs += 1;
        self.stats.malloc_bytes += bytes;
        self.stats.malloc_cycles += cost;
        self.stats.cycles += cost;
        buf
    }

    /// Device-side `free`: returns a heap buffer to the allocator. Charges
    /// the same serialized allocator path as `malloc`. Later accesses to
    /// the buffer are reported as use-after-free by the sanitizer.
    pub fn free(&mut self, buf: DeviceBuffer) {
        let cost = self.config.malloc_cycles;
        self.stats.malloc_cycles += cost;
        self.stats.cycles += cost;
        if let Some(san) = self.san.as_mut() {
            san.note_free(buf);
        }
    }

    /// Declares a kernel-managed alias region to the sanitizer (e.g. the
    /// modeled address range of a grown set chunk). Free of charge — this
    /// is metadata, not device work — and a no-op when the sanitizer is
    /// disabled.
    pub fn san_note_region(&mut self, base: DevAddr, len: u64) {
        if let Some(san) = self.san.as_mut() {
            san.note_alias(base, len);
        }
    }

    /// `__syncthreads()` — a small fixed cost. Advances the sanitizer's
    /// Jacobi-round clock: accesses separated by a sync are ordered.
    pub fn sync(&mut self) {
        self.stats.cycles += 20;
        if let Some(san) = self.san.as_mut() {
            san.on_sync();
        }
    }

    /// Models a block-level sort of `n` keys in shared memory (bitonic):
    /// used by the GRP optimization's partial worklist sort.
    pub fn shared_sort(&mut self, n: usize) {
        if n <= 1 {
            return;
        }
        // Bitonic sort: O(n log² n) comparisons over warp_size lanes.
        // Key-value bitonic sort in shared memory with bank conflicts:
        // ~20 cycles per element-pass. This overhead is what makes GRP a
        // net loss on small worklists (§V-C).
        let n = n as u64;
        let log = 64 - n.leading_zeros() as u64;
        let steps = log * (log + 1) / 2;
        let per_step = n.div_ceil(self.config.warp_size as u64).max(1) * 26;
        self.stats.cycles += steps * per_step + 200;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DeviceConfig, DeviceHeap, WarpScratch) {
        (DeviceConfig::tesla_p40(), DeviceHeap::new(), WarpScratch::default())
    }

    #[test]
    fn uniform_warp_is_single_pass() {
        let (cfg, mut heap, mut scratch) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        let lanes: Vec<LaneWork> = (0..32).map(|_| LaneWork::compute(0, 10)).collect();
        ctx.warp_process(&lanes);
        assert_eq!(ctx.stats.divergence_passes, 1);
        assert_eq!(ctx.stats.warp_steps, 1);
        assert_eq!(ctx.stats.cycles, WARP_ISSUE_CYCLES + 10);
    }

    #[test]
    fn divergent_warp_serializes() {
        let (cfg, mut heap, mut scratch) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        // 25 partitions → 25 serialized passes of 10 cycles each.
        let lanes: Vec<LaneWork> = (0..25).map(|i| LaneWork::compute(i, 10)).collect();
        ctx.warp_process(&lanes);
        assert_eq!(ctx.stats.divergence_passes, 25);
        assert_eq!(ctx.stats.cycles, WARP_ISSUE_CYCLES + 25 * 10);
    }

    #[test]
    fn coalesced_reads_cost_one_transaction() {
        let (cfg, mut heap, mut scratch) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        let lanes: Vec<LaneWork> = (0..32)
            .map(|i| LaneWork { partition: 0, reads: vec![0x4000 + i * 4], ..Default::default() })
            .collect();
        ctx.warp_process(&lanes);
        assert_eq!(ctx.stats.transactions, 1);
        assert_eq!(ctx.stats.ideal_transactions, 2); // 32 lanes x 8 B = 256 B
    }

    /// A closure that counts each group's own addresses charges exactly
    /// what the address form charges, given the same lanes stripped of
    /// their addresses — the counted form changes who counts, not what.
    #[test]
    fn counted_form_charges_like_the_address_form() {
        let (cfg, mut heap, mut scratch) = setup();
        let lanes: Vec<LaneWork> = (0..24u64)
            .map(|i| LaneWork {
                partition: (i % 3) as u32,
                compute_cycles: 5 + i,
                reads: (0..i % 5).map(|k| 0x4000 + i * 40 + k * 300).collect(),
                writes: (0..i % 2).map(|k| 0x9000 + i * 8 + k).collect(),
                deref_layers: (i % 3) as u32,
                bytes_read: if i % 4 == 0 { 0 } else { 100 + i },
                ..Default::default()
            })
            .collect();
        let mut by_address = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        by_address.warp_process(&lanes);
        let by_address = by_address.stats;

        let bare: Vec<LaneWork> = lanes
            .iter()
            .map(|l| LaneWork { reads: Vec::new(), writes: Vec::new(), bytes_read: 0, ..l.clone() })
            .collect();
        let mut groups = Vec::new();
        let mut counted = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        counted.warp_process_counted(&bare, &mut |group| {
            groups.push(group.to_vec());
            let member = |i: &u32| &lanes[*i as usize];
            let reads: Vec<DevAddr> = group.iter().flat_map(|i| member(i).reads.clone()).collect();
            let writes: Vec<DevAddr> =
                group.iter().flat_map(|i| member(i).writes.clone()).collect();
            let bytes = group
                .iter()
                .map(|i| {
                    let l = member(i);
                    let br =
                        if l.bytes_read == 0 { l.reads.len() as u64 * 8 } else { l.bytes_read };
                    br + l.writes.len() as u64 * 8
                })
                .sum();
            let tx = crate::memory::transactions(&cfg, &reads)
                + crate::memory::transactions(&cfg, &writes);
            (tx, bytes)
        });
        assert_eq!(counted.stats, by_address);
        // One call per divergence group, lane indices ascending.
        assert_eq!(groups.len(), 3);
        for (p, group) in groups.iter().enumerate() {
            assert!(group.iter().all(|&i| i as usize % 3 == p));
            assert!(group.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn divergence_breaks_coalescing() {
        let (cfg, mut heap, mut scratch) = setup();
        // Same addresses, but alternating partitions: two passes, and the
        // two halves cannot share transactions.
        let mut c1 = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        let lanes: Vec<LaneWork> = (0..32)
            .map(|i| LaneWork {
                partition: (i % 2) as u32,
                reads: vec![0x4000 + i * 4],
                ..Default::default()
            })
            .collect();
        c1.warp_process(&lanes);
        // Each half still touches the same single 128B segment, so 2
        // transactions vs the uniform warp's 1.
        assert_eq!(c1.stats.transactions, 2);
        assert_eq!(c1.stats.divergence_passes, 2);
    }

    #[test]
    fn deref_layers_charge_latency() {
        let (cfg, mut heap, mut scratch) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        let mut lane = LaneWork::compute(0, 0);
        lane.deref_layers = 2;
        ctx.warp_process(&[lane]);
        assert_eq!(ctx.stats.cycles, WARP_ISSUE_CYCLES + 2 * cfg.dependent_latency_cycles);
    }

    #[test]
    fn mallocs_are_expensive_and_contended() {
        let (cfg, mut heap, mut scratch) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 60, None, &mut scratch);
        let mut lane = LaneWork::compute(0, 0);
        lane.mallocs = vec![256];
        ctx.warp_process(&[lane]);
        assert_eq!(ctx.stats.mallocs, 1);
        // Contention is clamped to [12, 44] contenders.
        assert_eq!(ctx.stats.malloc_cycles, cfg.malloc_cycles * 44);
        assert!(ctx.stats.cycles >= cfg.malloc_cycles * 44);
    }

    #[test]
    fn shared_sort_scales_superlinearly() {
        let (cfg, mut heap, mut scratch) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        ctx.shared_sort(8);
        let small = ctx.stats.cycles;
        let mut ctx2 = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        ctx2.shared_sort(256);
        assert!(ctx2.stats.cycles > small * 2);
        // Sorting nothing is free.
        let mut ctx3 = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        ctx3.shared_sort(1);
        assert_eq!(ctx3.stats.cycles, 0);
    }

    #[test]
    fn queue_ops_are_contended_and_cost_only() {
        let (cfg, mut heap, mut scratch) = setup();
        // Solo block: contention clamps up to the floor of 4 contenders.
        let mut solo = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        solo.queue_pop(1);
        assert_eq!(solo.stats.queue_ops, 1);
        assert_eq!(solo.stats.queue_cycles, cfg.queue_op_cycles * 4);
        assert_eq!(solo.stats.cycles, solo.stats.queue_cycles);
        // A fully resident device pays the clamped ceiling of 24.
        let mut packed = BlockCtx::new(&cfg, &mut heap, 120, None, &mut scratch);
        packed.queue_pop(1);
        packed.queue_push(2);
        assert_eq!(packed.stats.queue_ops, 3);
        assert_eq!(packed.stats.queue_cycles, 3 * cfg.queue_op_cycles * 24);
        // Zero items are free.
        let mut idle = BlockCtx::new(&cfg, &mut heap, 120, None, &mut scratch);
        idle.queue_pop(0);
        idle.queue_push(0);
        assert_eq!(idle.stats, BlockStats::default());
    }

    #[test]
    #[should_panic(expected = "warp_process got")]
    fn oversized_warp_panics() {
        let (cfg, mut heap, mut scratch) = setup();
        let mut ctx = BlockCtx::new(&cfg, &mut heap, 1, None, &mut scratch);
        let lanes: Vec<LaneWork> = (0..33).map(|_| LaneWork::compute(0, 1)).collect();
        ctx.warp_process(&lanes);
    }
}
