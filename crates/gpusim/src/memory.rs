//! Device memory model: address space, buffers, coalescing, and the
//! serialized device heap.

use crate::config::DeviceConfig;

/// A device virtual address.
pub type DevAddr = u64;

/// A contiguous device allocation handed out by [`AddressSpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceBuffer {
    /// Base address.
    pub base: DevAddr,
    /// Length in bytes.
    pub len: u64,
}

impl DeviceBuffer {
    /// Address of the `i`-th element of `elem_size` bytes.
    #[inline]
    pub fn addr(&self, i: u64, elem_size: u64) -> DevAddr {
        debug_assert!((i + 1) * elem_size <= self.len, "buffer overrun");
        self.base + i * elem_size
    }
}

/// A bump allocator over the device's global memory — models `cudaMalloc`
/// placement so kernels get realistic, well-separated addresses.
#[derive(Clone, Debug, Default)]
pub struct AddressSpace {
    next: DevAddr,
    total: u64,
}

impl AddressSpace {
    /// A fresh address space of the device's global memory size.
    pub fn new(config: &DeviceConfig) -> AddressSpace {
        AddressSpace { next: 0x1000, total: config.global_mem_bytes }
    }

    /// Allocates a buffer (256-byte aligned, as cudaMalloc guarantees).
    pub fn alloc(&mut self, len: u64) -> DeviceBuffer {
        let base = (self.next + 255) & !255;
        assert!(
            base + len <= self.total,
            "device OOM: need {len}B at {base:#x} of {}B",
            self.total
        );
        self.next = base + len;
        DeviceBuffer { base, len }
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> u64 {
        self.next
    }
}

/// Counts the 128-byte transactions needed to serve a set of addresses
/// from one warp-synchronous access — the coalescing model.
///
/// Perfectly coalesced: 32 consecutive 4-byte words → 1 transaction.
/// Fully scattered: 32 random words → 32 transactions.
pub fn transactions(config: &DeviceConfig, addrs: &[DevAddr]) -> u64 {
    SegmentCounter::default().count(config.transaction_bytes, addrs.len(), addrs.iter().copied())
}

/// The transaction segment `addr` falls into. Every shipped config has a
/// power-of-two segment size, which costs a shift instead of a division.
#[inline]
pub fn segment_of(transaction_bytes: u64, addr: DevAddr) -> u64 {
    if transaction_bytes.is_power_of_two() {
        addr >> transaction_bytes.trailing_zeros()
    } else {
        addr / transaction_bytes
    }
}

/// The coalescing model's one counting routine: how many distinct
/// `transaction_bytes` segments a list of addresses touches.
///
/// An open-addressed table of segment numbers whose slots are reclaimed by
/// bumping an epoch, so a counter that is reused (the [`crate::Device`]
/// lends one to every block) neither allocates nor sorts per call.
#[derive(Clone, Debug, Default)]
pub(crate) struct SegmentCounter {
    keys: Vec<u64>,
    /// Epoch in which `keys[i]` was written; any other value = free slot.
    stamps: Vec<u32>,
    epoch: u32,
}

impl SegmentCounter {
    /// Distinct segments among `addrs`, which yields at most `len` items.
    pub(crate) fn count(
        &mut self,
        transaction_bytes: u64,
        len: usize,
        addrs: impl Iterator<Item = DevAddr>,
    ) -> u64 {
        if len == 0 {
            return 0;
        }
        // Load factor ≤ 1/2 keeps the linear probes short.
        let capacity = (2 * len).next_power_of_two().max(64);
        if self.keys.len() < capacity {
            *self = SegmentCounter { keys: vec![0; capacity], stamps: vec![0; capacity], epoch: 0 };
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        let mask = self.keys.len() - 1;
        let hash_shift = 64 - self.keys.len().trailing_zeros();
        let mut distinct = 0;
        let mut last = None;
        for addr in addrs {
            let segment = segment_of(transaction_bytes, addr);
            // Lanes stream ascending addresses: repeats come in runs.
            if last == Some(segment) {
                continue;
            }
            last = Some(segment);
            let mut slot = (segment.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> hash_shift) as usize;
            loop {
                if self.stamps[slot] != self.epoch {
                    self.stamps[slot] = self.epoch;
                    self.keys[slot] = segment;
                    distinct += 1;
                    break;
                }
                if self.keys[slot] == segment {
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        distinct
    }
}

/// The device heap: dynamic allocations from kernel code (`malloc` in a
/// CUDA kernel). Every allocation takes the serialized allocator path;
/// concurrent blocks contend on it — the paper's first performance
/// bottleneck ("frequent dynamic memory allocations").
#[derive(Clone, Debug, Default)]
pub struct DeviceHeap {
    /// Allocation events so far (global, all blocks).
    pub allocations: u64,
    /// Bytes allocated from kernel code.
    pub bytes: u64,
    next: DevAddr,
}

/// Heap allocations land in a dedicated high region so their addresses
/// never coalesce with planned buffers.
const HEAP_BASE: DevAddr = 1 << 40;

impl DeviceHeap {
    /// Creates an empty heap.
    pub fn new() -> DeviceHeap {
        DeviceHeap { allocations: 0, bytes: 0, next: HEAP_BASE }
    }

    /// Allocates from kernel code; returns the buffer and the cycle cost
    /// charged to the calling block, given `resident_blocks` contending
    /// for the allocator lock.
    pub fn malloc(
        &mut self,
        config: &DeviceConfig,
        len: u64,
        resident_blocks: usize,
    ) -> (DeviceBuffer, u64) {
        self.allocations += 1;
        self.bytes += len;
        // Scatter allocations pseudo-randomly (hash of counter) to model a
        // real device heap's fragmentation — consecutive mallocs do not
        // produce adjacent, coalescable chunks.
        let stride = 4096;
        let slot = (self.allocations.wrapping_mul(0x9E3779B97F4A7C15)) % (1 << 20);
        let base = self.next + slot * stride;
        // Contention grows with resident blocks and saturates only at the
        // device's full co-residency: big apps keep more blocks in flight
        // and pay proportionally more per allocation (calibrated; see
        // DESIGN.md §5).
        // Even a single resident block contends with the driver's own
        // allocator bookkeeping, so the factor has a floor as well as a
        // ceiling.
        let cycles = config.malloc_cycles * (resident_blocks.max(1) as u64).clamp(12, 44);
        (DeviceBuffer { base, len }, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeviceConfig {
        DeviceConfig::tesla_p40()
    }

    #[test]
    fn alloc_is_aligned_and_monotonic() {
        let mut space = AddressSpace::new(&cfg());
        let a = space.alloc(100);
        let b = space.alloc(100);
        assert_eq!(a.base % 256, 0);
        assert_eq!(b.base % 256, 0);
        assert!(b.base >= a.base + 100);
        assert!(space.used() >= 200);
    }

    #[test]
    #[should_panic(expected = "device OOM")]
    fn alloc_past_capacity_panics() {
        let mut space = AddressSpace::new(&cfg());
        space.alloc(25 * (1 << 30)); // 25 GB on a 24 GB card
    }

    #[test]
    fn buffer_addr_math() {
        let b = DeviceBuffer { base: 0x1000, len: 80 };
        assert_eq!(b.addr(0, 8), 0x1000);
        assert_eq!(b.addr(9, 8), 0x1000 + 72);
    }

    #[test]
    fn coalesced_access_is_one_transaction() {
        let c = cfg();
        // 32 consecutive 4-byte words = 128 bytes = 1 transaction.
        let addrs: Vec<DevAddr> = (0..32).map(|i| 0x2000 + i * 4).collect();
        assert_eq!(transactions(&c, &addrs), 1);
    }

    #[test]
    fn scattered_access_is_many_transactions() {
        let c = cfg();
        let addrs: Vec<DevAddr> = (0..32).map(|i| 0x2000 + i * 4096).collect();
        assert_eq!(transactions(&c, &addrs), 32);
    }

    #[test]
    fn partially_coalesced_access() {
        let c = cfg();
        // Two groups of 16 words in two 128B segments.
        let mut addrs: Vec<DevAddr> = (0..16).map(|i| 0x2000 + i * 4).collect();
        addrs.extend((0..16).map(|i| 0x9000 + i * 4));
        assert_eq!(transactions(&c, &addrs), 2);
        assert_eq!(transactions(&c, &[]), 0);
    }

    #[test]
    fn heap_malloc_charges_contention() {
        let c = cfg();
        let mut heap = DeviceHeap::new();
        let (b1, cost1) = heap.malloc(&c, 64, 1);
        let (b2, cost120) = heap.malloc(&c, 64, 120);
        assert_ne!(b1.base, b2.base);
        assert!(b1.base >= HEAP_BASE);
        // Contention is clamped to [12, 44] contenders.
        assert_eq!(cost1, c.malloc_cycles * 12);
        assert_eq!(cost120, c.malloc_cycles * 44);
        assert_eq!(heap.allocations, 2);
        assert_eq!(heap.bytes, 128);
    }

    #[test]
    fn heap_allocations_do_not_coalesce() {
        let c = cfg();
        let mut heap = DeviceHeap::new();
        let addrs: Vec<DevAddr> = (0..8).map(|_| heap.malloc(&c, 16, 1).0.base).collect();
        assert_eq!(transactions(&c, &addrs), 8, "heap chunks must be scattered");
    }
}
