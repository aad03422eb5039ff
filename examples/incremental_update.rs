//! Warm start across an app update — the "apps update weekly or even
//! daily" scenario from the paper's introduction.
//!
//! Version 1 is vetted cold, and its run becomes a summary store holding
//! every reachable method's summary and fact words. Version 2 edits a
//! handful of methods and is vetted against that store: a method
//! whose body and callee subtree are unchanged is a hit and is never
//! scheduled; the misses — the edited methods and their callers — are
//! solved on the device. The report equals a cold run's byte for byte.
//!
//! ```text
//! cargo run --release --example incremental_update [seed]
//! ```

use gdroid::analysis::ns_to_ms;
use gdroid::apk::{generate_app, GenConfig};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::icfg::CallLayers;
use gdroid::ir::{Expr, Lhs, MethodId, Stmt, StmtIdx};
use gdroid::sumstore::SumStore;
use gdroid::vetting::{
    execute, prepare_vetting, summary_store, vet_prepared, ExecCtx, ExecPlan, Executed, PreparedApp,
};

/// One store-backed run on a fresh device, with the launches it made.
fn run(prep: &PreparedApp, store: &SumStore) -> (Executed, u64) {
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let ctx = &mut ExecCtx { store: Some(store), ..ExecCtx::new(&mut device) };
    let done = execute(prep, ExecPlan::default(), ctx).expect("a fresh device has no fault plan");
    (done, device.launches())
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(31);
    let app = generate_app(0, seed, &GenConfig::default());

    let v1 = prepare_vetting(app.clone());
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let cold_v1 = execute(&v1, ExecPlan::default(), &mut ExecCtx::new(&mut device))
        .expect("a fresh device has no fault plan");
    let store = summary_store(&v1, &cold_v1.run.analysis);
    println!(
        "v1: solved in {} launches; its summary store holds {} methods",
        device.launches(),
        store.len()
    );

    // --- the update: edit the first 3 app methods, bottom-up -----------
    let layers = CallLayers::compute(&v1.cg, &v1.roots);
    let victims: Vec<MethodId> = layers
        .layers
        .iter()
        .flatten()
        .copied()
        .filter(|m| m.index() < app.program.methods.len())
        .take(3)
        .collect();
    let mut updated = app;
    for &mid in &victims {
        let method = &mut updated.program.methods[mid];
        if let Some((var, decl)) = method.vars.iter_enumerated().find(|(_, d)| d.ty.is_reference())
        {
            let ty = decl.ty;
            let last = StmtIdx::new(method.body.len() - 1);
            let ret = method.body[last].clone();
            method.body[last] = Stmt::Assign { lhs: Lhs::Var(var), rhs: Expr::New { ty } };
            method.body.push(ret);
        }
    }
    updated.program.rebuild_lookups();
    let v2 = prepare_vetting(updated);

    // --- warm start against v1's store vs a cold run ---------------------
    let (warm, launches) = run(&v2, &store);
    let cold = vet_prepared(&v2, ExecPlan::default());
    let used = warm.store_use.expect("a store was attached");
    let report = warm.run.outcome.report.to_json();
    assert_eq!(report, cold.outcome.report.to_json(), "a warm start must match a cold run");
    println!("v2 update touching {} methods:", victims.len());
    println!("  store hits   : {:5} methods pre-solved, never scheduled", used.hits);
    println!(
        "  store misses : {:5} methods solved on the device in {launches} launches",
        used.misses
    );
    println!(
        "  modeled IDFG : {:.2} ms warm vs {:.2} ms cold; report byte-identical ({} bytes)",
        ns_to_ms(warm.run.outcome.timing.idfg_ns),
        ns_to_ms(cold.outcome.timing.idfg_ns),
        report.len()
    );
}
