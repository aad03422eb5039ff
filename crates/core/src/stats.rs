//! Run statistics: the numbers behind Figs. 4, 8–12 and Table II.

use gdroid_analysis::WorklistTelemetry;
use gdroid_gpusim::{DeviceConfig, KernelStats, PipelineTiming};

/// The worklist-size profile of one run — Table II's upper half.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorklistProfile {
    /// Fraction of worklist rounds with ≤ 32 nodes.
    pub le_32: f64,
    /// Fraction with 33–64 nodes.
    pub le_64: f64,
    /// Fraction with > 64 nodes.
    pub gt_64: f64,
    /// Total worklist rounds ("no. of Worklist iteration").
    pub total_rounds: usize,
}

impl WorklistProfile {
    /// Builds the profile from per-round sizes.
    pub fn from_round_sizes(sizes: &[u32], total_rounds: usize) -> WorklistProfile {
        if sizes.is_empty() {
            return WorklistProfile { total_rounds, ..Default::default() };
        }
        let n = sizes.len() as f64;
        let le_32 = sizes.iter().filter(|&&s| s <= 32).count() as f64 / n;
        let le_64 = sizes.iter().filter(|&&s| s > 32 && s <= 64).count() as f64 / n;
        let gt_64 = sizes.iter().filter(|&&s| s > 64).count() as f64 / n;
        WorklistProfile { le_32, le_64, gt_64, total_rounds }
    }
}

/// Simulated GPU execution statistics for one app analysis.
#[derive(Clone, Debug, Default)]
pub struct GpuRunStats {
    /// End-to-end simulated time (kernels + exposed transfers), ns.
    pub total_ns: f64,
    /// Kernel-engine busy time, ns.
    pub kernel_ns: f64,
    /// Copy-engine busy time, ns.
    pub copy_ns: f64,
    /// Transfer time the dual-buffering failed to hide, ns.
    pub exposed_copy_ns: f64,
    /// Kernel launches performed.
    pub launches: usize,
    /// Thread blocks executed.
    pub blocks: usize,
    /// Mean serialized passes per warp step (1.0 = no divergence).
    pub divergence_factor: f64,
    /// Achieved coalescing efficiency (1.0 = perfect).
    pub coalescing: f64,
    /// Mean slot utilization over launches (load balance).
    pub utilization: f64,
    /// Dynamic device-heap allocations.
    pub device_allocations: u64,
    /// Bytes allocated dynamically on device.
    pub device_alloc_bytes: u64,
    /// Worklist-size profile (Table II).
    pub profile: WorklistProfile,
    /// Methods analyzed.
    pub methods: usize,
    /// Always 0: the relational engine that counted hash-join probes is
    /// retired; `benchmark/` still reads the field (ROADMAP 3a).
    pub join_probes: u64,
    /// Always 0, kept for `benchmark/` like [`GpuRunStats::join_probes`].
    pub scan_rows: u64,
    // --- internal accumulators -----------------------------------------
    warp_steps: u64,
    divergence_passes: u64,
    transactions: u64,
    ideal_transactions: u64,
    utilization_sum: f64,
    utilization_samples: usize,
}

impl GpuRunStats {
    /// Folds one kernel launch's stats in.
    pub fn absorb_kernel(&mut self, k: &KernelStats) {
        self.launches += 1;
        self.absorb_round(k);
    }

    /// Folds one persistent-kernel *round* in: identical to
    /// [`GpuRunStats::absorb_kernel`] except the launch counter stays put
    /// — the rounds of one resident launch are not launches.
    pub fn absorb_round(&mut self, k: &KernelStats) {
        self.blocks += k.blocks;
        self.warp_steps += k.warp_steps;
        self.divergence_passes += k.divergence_passes;
        self.transactions += k.transactions;
        self.ideal_transactions += k.ideal_transactions;
        self.utilization_sum += k.utilization;
        self.utilization_samples += 1;
    }

    /// Records one method's telemetry.
    pub fn record_method(&mut self, _tele: &WorklistTelemetry) {
        self.methods += 1;
    }

    /// Finalizes after the transfer pipeline is known.
    pub fn finish(
        &mut self,
        pipeline: PipelineTiming,
        _config: &DeviceConfig,
        device_allocations: u64,
        device_alloc_bytes: u64,
    ) {
        self.total_ns = pipeline.total_ns;
        self.kernel_ns = pipeline.kernel_ns;
        self.copy_ns = pipeline.copy_ns;
        self.exposed_copy_ns = pipeline.exposed_copy_ns;
        self.device_allocations = device_allocations;
        self.device_alloc_bytes = device_alloc_bytes;
        self.divergence_factor = if self.warp_steps == 0 {
            1.0
        } else {
            self.divergence_passes as f64 / self.warp_steps as f64
        };
        self.coalescing = if self.transactions == 0 {
            1.0
        } else {
            (self.ideal_transactions as f64 / self.transactions as f64).min(1.0)
        };
        self.utilization = if self.utilization_samples == 0 {
            1.0
        } else {
            self.utilization_sum / self.utilization_samples as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_buckets() {
        let sizes = vec![1, 10, 32, 33, 64, 65, 100, 2];
        let p = WorklistProfile::from_round_sizes(&sizes, 8);
        assert!((p.le_32 - 4.0 / 8.0).abs() < 1e-9);
        assert!((p.le_64 - 2.0 / 8.0).abs() < 1e-9);
        assert!((p.gt_64 - 2.0 / 8.0).abs() < 1e-9);
        assert_eq!(p.total_rounds, 8);
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = WorklistProfile::from_round_sizes(&[], 0);
        assert_eq!(p.le_32, 0.0);
        assert_eq!(p.total_rounds, 0);
    }

    #[test]
    fn absorb_and_finish_compute_ratios() {
        let mut s = GpuRunStats::default();
        let k = KernelStats {
            blocks: 4,
            warp_steps: 10,
            divergence_passes: 25,
            transactions: 100,
            ideal_transactions: 50,
            utilization: 0.5,
            ..Default::default()
        };
        s.absorb_kernel(&k);
        s.finish(
            PipelineTiming {
                total_ns: 1000.0,
                kernel_ns: 800.0,
                copy_ns: 400.0,
                exposed_copy_ns: 200.0,
            },
            &DeviceConfig::tesla_p40(),
            7,
            4096,
        );
        assert_eq!(s.launches, 1);
        assert!((s.divergence_factor - 2.5).abs() < 1e-9);
        assert!((s.coalescing - 0.5).abs() < 1e-9);
        assert_eq!(s.device_allocations, 7);
    }

    #[test]
    fn absorb_round_counts_utilization_but_not_launches() {
        let k = KernelStats { blocks: 2, utilization: 0.5, ..Default::default() };
        let mut s = GpuRunStats::default();
        s.absorb_round(&k);
        s.absorb_round(&k);
        assert_eq!(s.launches, 0, "persistent rounds are not launches");
        assert_eq!(s.blocks, 4);
        let pipeline =
            PipelineTiming { total_ns: 1.0, kernel_ns: 1.0, copy_ns: 0.0, exposed_copy_ns: 0.0 };
        s.finish(pipeline, &DeviceConfig::tesla_p40(), 0, 0);
        assert!((s.utilization - 0.5).abs() < 1e-9, "utilization averages over rounds");
    }
}
