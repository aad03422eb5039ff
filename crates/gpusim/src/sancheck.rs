//! `simcheck` — a device-level sanitizer for the simulated GPU.
//!
//! The GDroid kernels rely on a *Jacobi-round discipline* (DESIGN.md §5):
//! within one worklist round, concurrent warps and blocks must never
//! observe each other's same-round plain writes, and every global access
//! must land inside a live allocation. Nothing in the timing model
//! enforces either — a kernel bug silently corrupts both the analysis
//! results and the cycle model. This module adds a shadow-memory checker,
//! woven into [`crate::block::BlockCtx`]'s global-memory operations and
//! enabled by [`crate::config::DeviceConfig::sanitize`], that reports:
//!
//! * **Jacobi races** — intra-round write-write and read-write conflicts
//!   between warps or blocks on plain (non-atomic) accesses;
//! * **out-of-bounds / use-after-free** — accesses outside every live
//!   planned ([`crate::memory::AddressSpace`]), heap
//!   ([`crate::memory::DeviceHeap`]) or kernel-declared alias region;
//! * **uninitialized reads** — reads of planned device memory that was
//!   neither host-initialized nor written by a kernel;
//! * **barrier divergence** — lanes of one warp disagreeing on a `sync`.
//!
//! The sanitizer is purely observational: it never charges cycles, so
//! [`crate::device::KernelStats`] is bit-identical whether it is enabled
//! or not (asserted by tests). Checking happens at 8-byte word
//! granularity, matching the simulator's convention that one `DevAddr`
//! names one 64-bit cell.
//!
//! ## Ordering model
//!
//! Two accesses to the same word *conflict* (race) iff both are
//! [`AccessOrder::Plain`], at least one is a write, they belong to the
//! same launch, and none of the Jacobi happens-before edges orders them:
//!
//! * different launches — ordered (kernel boundaries synchronize);
//! * same block, different rounds — ordered (the round barrier);
//! * same block, same round, same warp, same lane — ordered (program
//!   order within a lane);
//! * same warp, different lanes — lockstep: simultaneous writes conflict,
//!   read-plus-write is the warp-synchronous broadcast idiom and allowed;
//! * anything else (different warps of a block in one round, or any two
//!   blocks of one launch) — concurrent, so a conflict is reported.
//!
//! [`AccessOrder::Atomic`] models the kernels' atomic-OR fact updates and
//! CAS set inserts; like CUDA racecheck, atomics never participate in
//! race detection (they still get bounds/liveness checks).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::block::LaneWork;
use crate::memory::{DevAddr, DeviceBuffer};

/// Bytes per shadow word (the simulator's 64-bit cell convention).
pub const WORD_BYTES: u64 = 8;

/// Findings kept verbatim in the report; further occurrences only count.
const MAX_FINDINGS: usize = 64;

/// Memory-ordering class of one lane's accesses in a warp step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AccessOrder {
    /// Ordinary load/store: participates in race detection.
    #[default]
    Plain,
    /// Atomic access (atomic-OR fact write, CAS insert): exempt from race
    /// detection, still bounds-checked.
    Atomic,
}

/// Where an access happened, in simulator coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessSite {
    /// Kernel launch ordinal on this device (1-based). `u64` like
    /// [`crate::Device::launches`]: a long-lived device vetting a 10k+-app
    /// store snapshot runs hundreds of thousands of launches, so a `u32`
    /// epoch could wrap and alias two distant launches into one
    /// happens-before equivalence class.
    pub launch: u64,
    /// Thread-block index within the launch.
    pub block: u32,
    /// Worklist round within the block (count of `sync`s passed).
    pub round: u32,
    /// Warp-step ordinal within the round.
    pub warp: u32,
    /// Lane index within the warp step.
    pub lane: u32,
}

impl fmt::Display for AccessSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "launch {} block {} round {} warp {} lane {}",
            self.launch, self.block, self.round, self.warp, self.lane
        )
    }
}

/// The detector that produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Two concurrent plain writes to one word in one round.
    WriteWriteRace,
    /// Concurrent plain read and plain write of one word in one round.
    ReadWriteRace,
    /// Access outside every region ever allocated.
    OutOfBounds,
    /// Access inside a freed region.
    UseAfterFree,
    /// Read of planned memory never initialized by host or kernel.
    UninitRead,
    /// Lanes of one warp step disagree on a barrier.
    BarrierDivergence,
}

impl FindingKind {
    /// All kinds, in report order.
    pub const ALL: [FindingKind; 6] = [
        FindingKind::WriteWriteRace,
        FindingKind::ReadWriteRace,
        FindingKind::OutOfBounds,
        FindingKind::UseAfterFree,
        FindingKind::UninitRead,
        FindingKind::BarrierDivergence,
    ];

    fn index(self) -> usize {
        match self {
            FindingKind::WriteWriteRace => 0,
            FindingKind::ReadWriteRace => 1,
            FindingKind::OutOfBounds => 2,
            FindingKind::UseAfterFree => 3,
            FindingKind::UninitRead => 4,
            FindingKind::BarrierDivergence => 5,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::WriteWriteRace => "write-write race",
            FindingKind::ReadWriteRace => "read-write race",
            FindingKind::OutOfBounds => "out-of-bounds access",
            FindingKind::UseAfterFree => "use-after-free",
            FindingKind::UninitRead => "uninitialized read",
            FindingKind::BarrierDivergence => "barrier divergence",
        }
    }
}

/// One sanitizer finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Which detector fired.
    pub kind: FindingKind,
    /// Offending address (for barrier divergence: the barrier id, or 0).
    pub addr: DevAddr,
    /// The access that completed the hazard.
    pub site: AccessSite,
    /// The earlier conflicting access, for races.
    pub prior: Option<AccessSite>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {:#x}: {}", self.kind.label(), self.addr, self.site)?;
        if let Some(p) = &self.prior {
            write!(f, " vs {p}")?;
        }
        Ok(())
    }
}

/// Aggregated sanitizer output for one device (or merged across devices).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SanReport {
    /// First finding per (kind, word), up to [`MAX_FINDINGS`].
    pub findings: Vec<Finding>,
    /// Raw event counts per [`FindingKind`] (not deduplicated).
    pub counts: [u64; 6],
    /// Global accesses checked.
    pub accesses_checked: u64,
    /// Distinct shadow words tracked.
    pub words_tracked: usize,
    /// Memory regions registered (planned + heap + alias).
    pub regions: usize,
}

impl SanReport {
    /// Total finding events across all detectors.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True when no detector fired.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Event count for one detector.
    pub fn count(&self, kind: FindingKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Folds another report in (for multi-device corpus runs).
    pub fn merge(&mut self, other: &SanReport) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        let room = MAX_FINDINGS.saturating_sub(self.findings.len());
        self.findings.extend(other.findings.iter().take(room).cloned());
        self.accesses_checked += other.accesses_checked;
        self.words_tracked += other.words_tracked;
        self.regions += other.regions;
    }
}

impl fmt::Display for SanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simcheck: {} finding event(s) over {} accesses, {} words, {} regions",
            self.total(),
            self.accesses_checked,
            self.words_tracked,
            self.regions
        )?;
        for kind in FindingKind::ALL {
            if self.count(kind) > 0 {
                writeln!(f, "  {:>8} x {}", self.count(kind), kind.label())?;
            }
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RegionKind {
    /// Host-planned `cudaMalloc` from [`crate::memory::AddressSpace`].
    Planned,
    /// Kernel-side allocation from [`crate::memory::DeviceHeap`].
    Heap,
    /// Kernel-declared region (e.g. modeled grown set chunks).
    Alias,
}

#[derive(Clone, Copy, Debug)]
struct Region {
    base: DevAddr,
    len: u64,
    kind: RegionKind,
    /// Host/alloc-time initialization: reads need no prior kernel write.
    init: bool,
    freed: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct WordShadow {
    /// Some kernel write reached this word (any order class).
    written: bool,
    last_plain_write: Option<AccessSite>,
    last_plain_read: Option<AccessSite>,
}

/// The shadow-state tracker. Owned by [`crate::device::Device`] when
/// [`crate::config::DeviceConfig::sanitize`] is set; reached from
/// [`crate::block::BlockCtx`] during kernel execution.
#[derive(Debug, Default)]
pub struct Sanitizer {
    regions: Vec<Region>,
    shadow: HashMap<u64, WordShadow>,
    seen: HashSet<(usize, u64)>,
    findings: Vec<Finding>,
    counts: [u64; 6],
    accesses: u64,
    launch: u64,
    block: u32,
    round: u32,
    warp: u32,
}

impl Sanitizer {
    /// A fresh sanitizer with no regions or shadow state.
    pub fn new() -> Sanitizer {
        Sanitizer::default()
    }

    // --- lifecycle hooks (called by Device / BlockCtx) -----------------

    pub(crate) fn begin_launch(&mut self) {
        self.launch += 1;
    }

    pub(crate) fn begin_block(&mut self, block: u32) {
        self.block = block;
        self.round = 0;
        self.warp = 0;
    }

    pub(crate) fn on_sync(&mut self) {
        self.round += 1;
        self.warp = 0;
    }

    // --- region registry ------------------------------------------------

    /// Registers a host-planned buffer. `initialized` marks buffers whose
    /// contents arrive via host-to-device copy before any kernel reads.
    pub fn note_planned(&mut self, buf: DeviceBuffer, initialized: bool) {
        self.insert_region(Region {
            base: buf.base,
            len: buf.len,
            kind: RegionKind::Planned,
            init: initialized,
            freed: false,
        });
    }

    /// Registers a device-heap allocation (initialized at alloc: the heap
    /// formats chunks before handing them out).
    pub(crate) fn note_heap(&mut self, buf: DeviceBuffer) {
        self.insert_region(Region {
            base: buf.base,
            len: buf.len,
            kind: RegionKind::Heap,
            init: true,
            freed: false,
        });
    }

    /// Registers a kernel-declared alias region: address ranges the kernel
    /// fabricates to model storage it manages itself (e.g. grown set
    /// chunks). Treated as initialized.
    pub fn note_alias(&mut self, base: DevAddr, len: u64) {
        self.insert_region(Region { base, len, kind: RegionKind::Alias, init: true, freed: false });
    }

    /// Marks the region starting at `buf.base` freed; later accesses
    /// report use-after-free.
    pub(crate) fn note_free(&mut self, buf: DeviceBuffer) {
        if let Ok(i) = self.regions.binary_search_by_key(&buf.base, |r| r.base) {
            self.regions[i].freed = true;
        }
    }

    fn insert_region(&mut self, region: Region) {
        match self.regions.binary_search_by_key(&region.base, |r| r.base) {
            // Re-registration of the same base (e.g. a re-grown alias
            // chunk): the newest extent wins.
            Ok(i) => self.regions[i] = region,
            Err(i) => self.regions.insert(i, region),
        }
    }

    fn region_of(&self, addr: DevAddr) -> Option<&Region> {
        let i = self.regions.partition_point(|r| r.base <= addr);
        let r = self.regions.get(i.checked_sub(1)?)?;
        (addr < r.base + r.len).then_some(r)
    }

    // --- access checking ------------------------------------------------

    /// Checks one warp step: barrier agreement plus every lane's global
    /// reads and writes. Lane order in `lanes` is the lane index reported
    /// in findings.
    pub(crate) fn on_warp(&mut self, lanes: &[LaneWork]) {
        if let Some(first) = lanes.first() {
            if let Some((lane, l)) =
                lanes.iter().enumerate().find(|(_, l)| l.barrier != first.barrier)
            {
                let site = self.site(lane as u32);
                let key = (u64::from(self.block) << 32) | u64::from(self.warp);
                let addr = u64::from(l.barrier.or(first.barrier).unwrap_or(0));
                self.record(FindingKind::BarrierDivergence, key, addr, site, None);
            }
        }
        for (lane, l) in lanes.iter().enumerate() {
            let site = self.site(lane as u32);
            for &addr in &l.reads {
                self.check(addr, false, l.order, site);
            }
            for &addr in &l.writes {
                self.check(addr, true, l.order, site);
            }
        }
        self.warp += 1;
    }

    fn site(&self, lane: u32) -> AccessSite {
        AccessSite {
            launch: self.launch,
            block: self.block,
            round: self.round,
            warp: self.warp,
            lane,
        }
    }

    fn check(&mut self, addr: DevAddr, is_write: bool, order: AccessOrder, site: AccessSite) {
        self.accesses += 1;
        let word = addr / WORD_BYTES;

        let (covered, freed, needs_init) = match self.region_of(addr) {
            Some(r) => (true, r.freed, r.kind == RegionKind::Planned && !r.init),
            None => (false, false, false),
        };
        if freed {
            self.record(FindingKind::UseAfterFree, word, addr, site, None);
            return;
        }
        if !covered {
            self.record(FindingKind::OutOfBounds, word, addr, site, None);
            return;
        }

        // Shadow update in a scoped borrow; findings recorded after.
        let mut uninit = false;
        let mut ww_prior: Option<AccessSite> = None;
        let mut rw_prior: Option<AccessSite> = None;
        {
            let shadow = self.shadow.entry(word).or_default();
            if !is_write && needs_init && !shadow.written {
                uninit = true;
            } else {
                if is_write {
                    shadow.written = true;
                }
                // Race detection: plain accesses only.
                if order == AccessOrder::Plain {
                    let prior_write = shadow.last_plain_write;
                    let prior_read = shadow.last_plain_read;
                    if is_write {
                        shadow.last_plain_write = Some(site);
                        if let Some(w) = prior_write.filter(|w| conflicts(w, &site, true)) {
                            ww_prior = Some(w);
                        } else if let Some(r) = prior_read.filter(|r| conflicts(r, &site, false)) {
                            rw_prior = Some(r);
                        }
                    } else {
                        shadow.last_plain_read = Some(site);
                        if let Some(w) = prior_write.filter(|w| conflicts(&site, w, false)) {
                            rw_prior = Some(w);
                        }
                    }
                }
            }
        }
        if uninit {
            self.record(FindingKind::UninitRead, word, addr, site, None);
        } else if let Some(w) = ww_prior {
            self.record(FindingKind::WriteWriteRace, word, addr, site, Some(w));
        } else if let Some(r) = rw_prior {
            self.record(FindingKind::ReadWriteRace, word, addr, site, Some(r));
        }
    }

    fn record(
        &mut self,
        kind: FindingKind,
        dedupe_key: u64,
        addr: DevAddr,
        site: AccessSite,
        prior: Option<AccessSite>,
    ) {
        self.counts[kind.index()] += 1;
        if self.seen.insert((kind.index(), dedupe_key)) && self.findings.len() < MAX_FINDINGS {
            self.findings.push(Finding { kind, addr, site, prior });
        }
    }

    /// Snapshot of everything found so far.
    pub fn report(&self) -> SanReport {
        SanReport {
            findings: self.findings.clone(),
            counts: self.counts,
            accesses_checked: self.accesses,
            words_tracked: self.shadow.len(),
            regions: self.regions.len(),
        }
    }
}

/// Whether two same-word plain accesses are concurrent under the Jacobi
/// ordering model. `ww` is true when both are writes (lockstep lanes of
/// one warp conflict only then).
fn conflicts(a: &AccessSite, b: &AccessSite, ww: bool) -> bool {
    if a.launch != b.launch {
        return false;
    }
    if a.block != b.block {
        return true;
    }
    if a.round != b.round {
        return false;
    }
    if a.warp != b.warp {
        return true;
    }
    a.lane != b.lane && ww
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(block: u32, round: u32, warp: u32, lane: u32) -> AccessSite {
        AccessSite { launch: 1, block, round, warp, lane }
    }

    #[test]
    fn ordering_model() {
        // Cross-block: always concurrent.
        assert!(conflicts(&site(0, 0, 0, 0), &site(1, 5, 0, 0), true));
        // Same block, different round: ordered by the barrier.
        assert!(!conflicts(&site(0, 0, 0, 0), &site(0, 1, 0, 0), true));
        // Same round, different warp: concurrent.
        assert!(conflicts(&site(0, 2, 0, 0), &site(0, 2, 1, 0), false));
        // Same warp, same lane: program order.
        assert!(!conflicts(&site(0, 2, 1, 3), &site(0, 2, 1, 3), true));
        // Same warp, different lane: write-write only.
        assert!(conflicts(&site(0, 2, 1, 3), &site(0, 2, 1, 4), true));
        assert!(!conflicts(&site(0, 2, 1, 3), &site(0, 2, 1, 4), false));
        // Different launches: ordered.
        let mut a = site(0, 0, 0, 0);
        a.launch = 2;
        assert!(!conflicts(&a, &site(0, 0, 0, 0), true));
    }

    #[test]
    fn launch_epoch_survives_u32_overflow() {
        // Per-device launch counters are u64 everywhere (Device::launches,
        // this epoch); a 10k+-app campaign on one long-lived device can
        // cross 2^32 launches, and a wrapped u32 epoch would alias two
        // distant launches into one happens-before class — hiding races
        // (same block/round/warp coordinates compare equal) or ordering
        // accesses that are in fact concurrent.
        let mut san = Sanitizer::new();
        san.launch = u64::from(u32::MAX);
        san.begin_launch();
        assert_eq!(san.launch, u64::from(u32::MAX) + 1, "no wrap at 2^32");
        let old = AccessSite { launch: 1, block: 0, round: 0, warp: 0, lane: 0 };
        let new = AccessSite { launch: san.launch, block: 0, round: 0, warp: 0, lane: 0 };
        assert!(!conflicts(&old, &new, true), "distinct epochs stay ordered, never aliased");
    }

    #[test]
    fn region_registry_lookup() {
        let mut san = Sanitizer::new();
        san.note_planned(DeviceBuffer { base: 0x1000, len: 0x100 }, true);
        san.note_alias(0x8000_0000_0000, 0x1000);
        san.note_heap(DeviceBuffer { base: 0x100_0000_0000, len: 64 });
        assert!(san.region_of(0x1000).is_some());
        assert!(san.region_of(0x10ff).is_some());
        assert!(san.region_of(0x1100).is_none());
        assert!(san.region_of(0xfff).is_none());
        assert!(san.region_of(0x8000_0000_0008).is_some());
        assert_eq!(san.region_of(0x100_0000_0000).unwrap().kind, RegionKind::Heap);
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = SanReport::default();
        let mut b = SanReport::default();
        b.counts[FindingKind::OutOfBounds.index()] = 3;
        b.findings.push(Finding {
            kind: FindingKind::OutOfBounds,
            addr: 0x10,
            site: site(0, 0, 0, 0),
            prior: None,
        });
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.count(FindingKind::OutOfBounds), 6);
        assert_eq!(a.findings.len(), 2);
        assert!(!a.is_clean());
        assert!(SanReport::default().is_clean());
    }
}
