#![warn(missing_docs)]

//! # gdroid-gpusim — a warp-synchronous SIMT GPU simulator
//!
//! The hardware substitute for the paper's NVIDIA TESLA P40 (see DESIGN.md
//! §2). The simulator executes kernels *functionally* (they compute real
//! results) while charging cycles *architecturally* for exactly the four
//! phenomena the paper identifies as bottlenecks:
//!
//! | paper bottleneck (§III-B2) | simulator mechanism |
//! |---|---|
//! | frequent dynamic memory allocation | [`memory::DeviceHeap`]: serialized, contended `malloc` path |
//! | large branch divergence | [`block::BlockCtx::warp_process`]: lanes grouped by branch partition, groups serialized |
//! | load imbalance | [`device::Device::launch`]: greedy block packing onto `SM × blocks-per-SM` slots; makespan exposes idle slots |
//! | irregular memory access | [`memory::transactions`]: 128-byte coalescing within each divergence group |
//!
//! Kernels are written warp-centrically against [`block::BlockCtx`]; the
//! GDroid kernels themselves live in `gdroid-core`.

pub mod block;
pub mod config;
pub mod device;
pub mod memory;
pub mod sancheck;
pub mod stream;

pub use block::{BlockCtx, BlockStats, LaneWork};
pub use config::DeviceConfig;
pub use device::{BlockFn, Device, DeviceFault, FaultPlan, KernelStats, SourcedKernelStats};
pub use memory::{segment_of, transactions, AddressSpace, DevAddr, DeviceBuffer, DeviceHeap};
pub use sancheck::{AccessOrder, AccessSite, Finding, FindingKind, SanReport, Sanitizer};
pub use stream::{dual_buffered, synchronous, PipelineTiming};
