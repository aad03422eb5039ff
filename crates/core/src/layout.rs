//! Device memory layout for one app's analysis.
//!
//! Per method the kernel needs three planned buffers, mirroring Alg. 2's
//! `d_icfg` / `d_stmt` / `d_fact_set`:
//!
//! * the ICFG adjacency,
//! * the statement descriptors,
//! * the fact storage (matrix bitmaps under MAT; an initial chunk table
//!   for the set-based plain layout — the sets themselves grow through
//!   the device heap at run time).
//!
//! Under GRP, nodes are stored *group-major* (one-time-gen, single-layer,
//! double-layer — §IV-B) so that group-sorted worklists touch adjacent
//! storage; otherwise storage order is node order.

use gdroid_analysis::{Geometry, MethodSpace};
use gdroid_gpusim::{Device, DeviceBuffer};
use gdroid_icfg::Cfg;
use gdroid_ir::{MethodId, Program};
use std::collections::HashMap;

use crate::opts::OptConfig;

/// Device-resident layout of one method.
#[derive(Clone, Debug)]
pub struct MethodLayout {
    /// ICFG adjacency buffer (`d_icfg`).
    pub icfg: DeviceBuffer,
    /// Statement descriptor buffer (`d_stmt`).
    pub stmt: DeviceBuffer,
    /// Fact storage (`d_fact_set` / `d_fact_mat`).
    pub facts: DeviceBuffer,
    /// Bytes one node's facts occupy under MAT (bitmap) — 0 for the
    /// set-based layout, whose chunks live on the device heap.
    pub node_bytes: u64,
    /// Storage position of each CFG node (group-major under GRP).
    pub store_pos: Vec<u32>,
    /// Host→device bytes for this method's inputs.
    pub h2d_bytes: u64,
    /// Device→host bytes for this method's results.
    pub d2h_bytes: u64,
}

/// Layouts for all methods of an app.
#[derive(Clone, Debug, Default)]
pub struct AppLayout {
    /// Per-method layouts.
    pub methods: HashMap<MethodId, MethodLayout>,
}

/// Plans the device layout for a set of methods.
pub fn plan_layout(
    program: &Program,
    device: &mut Device,
    spaces: &HashMap<MethodId, MethodSpace>,
    cfgs: &HashMap<MethodId, Cfg>,
    methods: &[MethodId],
    opts: OptConfig,
) -> AppLayout {
    let mut layout = AppLayout::default();
    for &mid in methods {
        let space = &spaces[&mid];
        let cfg = &cfgs[&mid];
        let geometry = Geometry::of(space);
        let n_nodes = cfg.len();

        // Adjacency: one u32 per edge plus per-node offsets.
        let edge_count: usize = (0..n_nodes).map(|n| cfg.succ(n as u32).len()).sum();
        let icfg = device.alloc_init(((n_nodes + 1) * 4 + edge_count * 4) as u64);
        // Statement descriptors: 16 bytes per node (kind, operands).
        let stmt = device.alloc_init((n_nodes * 16) as u64);

        let node_bytes = if opts.mat { (geometry.words() * 8) as u64 } else { 0 };
        let facts = if opts.mat {
            // The method matrix: one statement-bitmask cell per
            // (slot, instance) pair (§IV-A).
            let cell_bytes = (n_nodes.div_ceil(8) as u64).max(1);
            device.alloc_init((geometry.bits() as u64 * cell_bytes).max(64))
        } else {
            // Set-based: a pointer+len table per node; chunks come from
            // the device heap during the run.
            device.alloc_init((n_nodes * 16) as u64)
        };

        // Storage order: group-major under GRP.
        let mut order: Vec<u32> = (0..n_nodes as u32).collect();
        if opts.grp {
            order.sort_by_key(|&n| {
                let group = cfg
                    .stmt_of(n)
                    .map(|s| program.methods[mid].body[s].access_pattern() as u8)
                    .unwrap_or(0);
                (group, n)
            });
        }
        let mut store_pos = vec![0u32; n_nodes];
        for (pos, &node) in order.iter().enumerate() {
            store_pos[node as usize] = pos as u32;
        }

        // The initial fact storage streams down whole in both layouts
        // (bitmaps under MAT, the chunk table without it).
        let h2d_bytes = icfg.len + stmt.len + facts.len;
        let d2h_bytes = if opts.mat {
            facts.len
        } else {
            // Result facts must come back regardless of representation;
            // approximate with the matrix-equivalent volume.
            (geometry.words() * 8 * n_nodes) as u64
        };

        layout.methods.insert(
            mid,
            MethodLayout { icfg, stmt, facts, node_bytes, store_pos, h2d_bytes, d2h_bytes },
        );
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdroid_apk::{generate_app, GenConfig};
    use gdroid_gpusim::DeviceConfig;
    use gdroid_icfg::prepare_app;

    fn setup(
    ) -> (gdroid_apk::App, Vec<MethodId>, HashMap<MethodId, MethodSpace>, HashMap<MethodId, Cfg>)
    {
        let mut app = generate_app(0, 555, &GenConfig::tiny());
        let (envs, cg) = prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let reach = cg.reachable_from(&roots);
        let spaces: HashMap<_, _> =
            reach.iter().map(|&m| (m, MethodSpace::build(&app.program, m))).collect();
        let cfgs: HashMap<_, _> =
            reach.iter().map(|&m| (m, Cfg::build(&app.program.methods[m]))).collect();
        (app, reach, spaces, cfgs)
    }

    #[test]
    fn layout_allocates_disjoint_buffers() {
        let (app, methods, spaces, cfgs) = setup();
        let mut device = Device::new(DeviceConfig::tiny());
        let layout =
            plan_layout(&app.program, &mut device, &spaces, &cfgs, &methods, OptConfig::mat());
        assert_eq!(layout.methods.len(), methods.len());
        // Buffers do not overlap.
        let mut ranges: Vec<(u64, u64)> = layout
            .methods
            .values()
            .flat_map(|m| {
                [(m.icfg.base, m.icfg.len), (m.stmt.base, m.stmt.len), (m.facts.base, m.facts.len)]
            })
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn grp_reorders_storage_plain_does_not() {
        let (app, methods, spaces, cfgs) = setup();
        let mut d1 = Device::new(DeviceConfig::tiny());
        let plain =
            plan_layout(&app.program, &mut d1, &spaces, &cfgs, &methods, OptConfig::plain());
        let mut d2 = Device::new(DeviceConfig::tiny());
        let grp = plan_layout(&app.program, &mut d2, &spaces, &cfgs, &methods, OptConfig::gdroid());
        for &mid in &methods {
            let p = &plain.methods[&mid];
            // Plain storage is the identity permutation.
            assert!(p.store_pos.iter().enumerate().all(|(i, &pos)| pos == i as u32));
            // GRP storage is a permutation of the same positions.
            let mut g = grp.methods[&mid].store_pos.clone();
            g.sort_unstable();
            assert!(g.iter().enumerate().all(|(i, &pos)| pos == i as u32));
        }
        // At least one method should actually be permuted (mixed groups).
        let permuted = methods.iter().any(|mid| {
            grp.methods[mid].store_pos.iter().enumerate().any(|(i, &pos)| pos != i as u32)
        });
        assert!(permuted, "GRP never changed storage order");
    }

    #[test]
    fn mat_nodes_have_bitmap_bytes_set_based_do_not() {
        let (app, methods, spaces, cfgs) = setup();
        let mut d1 = Device::new(DeviceConfig::tiny());
        let mat = plan_layout(&app.program, &mut d1, &spaces, &cfgs, &methods, OptConfig::mat());
        let mut d2 = Device::new(DeviceConfig::tiny());
        let plain =
            plan_layout(&app.program, &mut d2, &spaces, &cfgs, &methods, OptConfig::plain());
        for &mid in &methods {
            assert!(mat.methods[&mid].node_bytes > 0);
            assert_eq!(plain.methods[&mid].node_bytes, 0);
            assert!(mat.methods[&mid].h2d_bytes > 0);
            assert!(plain.methods[&mid].d2h_bytes > 0);
        }
    }
}
