//! Device configuration — the architectural constants of the timing model.

/// GPU architectural parameters.
///
/// Defaults model the paper's testbed: an NVIDIA TESLA P40 (Pascal GP102,
/// 30 SMs × 128 CUDA cores, 24 GB GDDR5X, 48 KB shared memory per SM,
/// CUDA 10).
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    /// Streaming multiprocessors.
    pub sm_count: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Thread blocks co-resident per SM (the paper tunes 4–5, §V).
    pub blocks_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Total global memory in bytes.
    pub global_mem_bytes: u64,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Bytes per global-memory transaction (coalescing granularity).
    pub transaction_bytes: u64,
    /// Cycles per global-memory transaction once issued (throughput cost,
    /// latency assumed partially hidden by other warps).
    pub transaction_cycles: u64,
    /// Additional latency cycles charged per *dependent* de-reference
    /// level (pointer chasing cannot be hidden).
    pub dependent_latency_cycles: u64,
    /// Base cost of one device-heap allocation (the serialized allocator
    /// path).
    pub malloc_cycles: u64,
    /// Host↔device bandwidth in GB/s (PCIe 3.0 x16 effective).
    pub pcie_gbps: f64,
    /// Fixed per-transfer overhead in microseconds (driver + DMA setup).
    pub transfer_overhead_us: f64,
    /// Fixed kernel-launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Enables the `simcheck` sanitizer ([`crate::sancheck`]): shadow-state
    /// checking of every global access. Purely observational — never
    /// charges cycles, so [`crate::device::KernelStats`] is bit-identical
    /// with the flag on or off.
    pub sanitize: bool,
}

impl DeviceConfig {
    /// The paper's TESLA P40.
    pub fn tesla_p40() -> DeviceConfig {
        DeviceConfig {
            sm_count: 30,
            cores_per_sm: 128,
            warp_size: 32,
            blocks_per_sm: 4,
            clock_ghz: 1.303,
            global_mem_bytes: 24 * (1 << 30) as u64,
            shared_mem_per_sm: 48 * 1024,
            transaction_bytes: 128,
            transaction_cycles: 8,
            dependent_latency_cycles: 160,
            malloc_cycles: 750,
            pcie_gbps: 12.0,
            transfer_overhead_us: 8.0,
            launch_overhead_us: 5.0,
            sanitize: false,
        }
    }

    /// This configuration with the `simcheck` sanitizer enabled.
    pub fn with_sanitizer(self) -> DeviceConfig {
        DeviceConfig { sanitize: true, ..self }
    }

    /// A small configuration for fast unit tests (2 SMs).
    pub fn tiny() -> DeviceConfig {
        DeviceConfig { sm_count: 2, blocks_per_sm: 2, ..DeviceConfig::tesla_p40() }
    }

    /// Total concurrent block slots.
    #[inline]
    pub fn block_slots(&self) -> usize {
        self.sm_count * self.blocks_per_sm
    }

    /// Converts device cycles to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_ghz
    }

    /// Time to move `bytes` across PCIe, in nanoseconds.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64) -> f64 {
        self.transfer_overhead_us * 1e3 + bytes as f64 / self.pcie_gbps
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::tesla_p40()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p40_matches_paper_specs() {
        let c = DeviceConfig::tesla_p40();
        assert_eq!(c.sm_count, 30);
        assert_eq!(c.cores_per_sm, 128);
        assert_eq!(c.shared_mem_per_sm, 48 * 1024);
        assert_eq!(c.global_mem_bytes, 24 * (1u64 << 30));
        assert_eq!(c.warp_size, 32);
    }

    #[test]
    fn block_slots_and_conversions() {
        let c = DeviceConfig::tesla_p40();
        assert_eq!(c.block_slots(), 120);
        // 1.303 GHz: 1303 cycles ≈ 1000 ns.
        let ns = c.cycles_to_ns(1303);
        assert!((ns - 1000.0).abs() < 1.0);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let c = DeviceConfig::tesla_p40();
        let t1 = c.transfer_ns(1 << 20);
        let t2 = c.transfer_ns(2 << 20);
        assert!(t2 > t1);
        // 12 GB/s → 1 MiB ≈ 87 µs + overhead.
        assert!((80_000.0..120_000.0).contains(&t1), "{t1}");
    }
}
