//! Tier-1 gate for co-resident multi-app batching: batching apps into
//! shared kernel launches must never change a single result byte — whole
//! or sliced, store-free or store-backed — must never make the corpus
//! slower than solo, and must stay invariant under tracing.

use gdroid::apk::{generate_app, GenConfig, PAPER_MASTER_SEED};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::trace::Tracer;
use gdroid::vetting::{
    execute, execute_coresident, library_store, prepare_vetting, ExecCtx, ExecPlan, PreparedApp,
};

const CORPUS: usize = 20;

fn config() -> GenConfig {
    GenConfig::tiny().with_libraries(2, 2)
}

fn corpus_app(index: usize) -> PreparedApp {
    prepare_vetting(generate_app(index, PAPER_MASTER_SEED ^ index as u64, &config()))
}

/// Batched vetting at co-residency 1, 2, and 4 renders the byte-identical
/// outcome JSON of a solo run for all 20 corpus apps — full and targeted,
/// with and without a summary store — and every group's makespan is no
/// worse than the sum of its members' solo makespans. A store-backed
/// group and its members' solo runs read the one library store.
#[test]
fn batched_outcomes_are_byte_identical_to_solo_across_coresidency() {
    let preps: Vec<PreparedApp> = (0..CORPUS).map(corpus_app).collect();
    let library = library_store(&config());
    let mut device = Device::new(DeviceConfig::tesla_p40());
    let mut solo_device = Device::new(DeviceConfig::tesla_p40());
    let mut store_hits = 0;

    for targeted in [false, true] {
        let plan = ExecPlan { targeted, ..ExecPlan::default() };
        for with_store in [false, true] {
            for coresident in [1usize, 2, 4] {
                let row = format!("targeted={targeted} store={with_store} K={coresident}");
                let store = with_store.then_some(&library);
                let (mut batched_total, mut solo_total) = (0.0f64, 0.0f64);
                for (chunk_idx, chunk) in preps.chunks(coresident).enumerate() {
                    let refs: Vec<&PreparedApp> = chunk.iter().collect();
                    let ctx = &mut ExecCtx { store, ..ExecCtx::new(&mut device) };
                    let (done, batch) =
                        execute_coresident(&refs, plan, ctx).expect("no fault plan installed");
                    assert_eq!(done.len(), chunk.len());
                    let mut group_solo = 0.0f64;
                    for (i, (prep, got)) in chunk.iter().zip(&done).enumerate() {
                        let app = chunk_idx * coresident + i;
                        let ctx = &mut ExecCtx { store, ..ExecCtx::new(&mut solo_device) };
                        let solo = execute(prep, plan, ctx).expect("no fault plan installed");
                        let want = &solo.run.outcome;
                        let outcome = &got.run.outcome;
                        assert_eq!(outcome.to_json(), want.to_json(), "{row}: app {app} diverged");
                        store_hits += got.store_use.as_ref().map_or(0, |u| u.hits);
                        group_solo += want.timing.idfg_ns;
                    }
                    assert!(
                        batch.makespan_ns <= group_solo * 1.000001,
                        "{row} group {chunk_idx}: makespan {} > summed solo {group_solo}",
                        batch.makespan_ns
                    );
                    batched_total += batch.makespan_ns;
                    solo_total += group_solo;
                }
                assert!(
                    batched_total <= solo_total * 1.000001,
                    "{row}: corpus makespan {batched_total} > summed solo {solo_total}"
                );
            }
        }
    }
    assert!(store_hits > 0, "no store-backed group member ever hit the store");
}

/// A traced group produces the same per-app outcomes and the same batch
/// makespan as an untraced one — tracing observes, never perturbs — and
/// the trace holds every member's stage spans beside the shared rounds.
#[test]
fn tracing_does_not_perturb_batched_results() {
    let preps: Vec<PreparedApp> = (0..4).map(corpus_app).collect();
    let refs: Vec<&PreparedApp> = preps.iter().collect();
    let plan = ExecPlan::default();

    let mut plain_dev = Device::new(DeviceConfig::tesla_p40());
    let (plain_runs, plain_batch) =
        execute_coresident(&refs, plan, &mut ExecCtx::new(&mut plain_dev))
            .expect("no fault plan installed");

    let tracer = Tracer::enabled_new();
    let mut traced_dev = Device::new(DeviceConfig::tesla_p40());
    let ctx = &mut ExecCtx { tracer: &tracer, ..ExecCtx::new(&mut traced_dev) };
    let (traced_runs, traced_batch) =
        execute_coresident(&refs, plan, ctx).expect("no fault plan installed");

    for (p, t) in plain_runs.iter().zip(&traced_runs) {
        assert_eq!(p.run.outcome.to_json(), t.run.outcome.to_json(), "tracing changed an outcome");
    }
    assert_eq!(plain_batch.makespan_ns, traced_batch.makespan_ns);
    assert_eq!(plain_batch.launches, traced_batch.launches);
    let events = tracer.events();
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("idfg"), refs.len(), "one idfg stage span per member");
    assert!(events.iter().any(|e| e.name.starts_with("batch round")), "no shared rounds traced");
}
