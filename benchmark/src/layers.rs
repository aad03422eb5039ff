//! The traced pass: a sample of a workload's inputs replayed,
//! single-threaded, through the decomposed public calls of every layer,
//! with a span around each call. Per-layer host times are medians of the
//! spans' self times over the sample; per-layer counts are read from what
//! each call returns. Spans *inside* the program are a later change.

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{file_sizes, SampleApp, Scratch};
use gdroid::analysis::{analyze_app_parallel, BackwardSlice, StoreKind};
use gdroid::apk::{load_bundle, save_bundle, App, Rng};
use gdroid::campaign::{
    read_shard_records, AppRecord, FleetReport, Journal, JournalHeader, RecordStatus,
    JOURNAL_VERSION,
};
use gdroid::core::{EngineAnalysis, EngineKind, ExecMode, OptConfig};
use gdroid::gpusim::{Device, DeviceConfig, LaneWork};
use gdroid::icfg::CallLayers;
use gdroid::serve::{fnv1a, JobSource, Priority, ServiceConfig, VettingService};
use gdroid::sumstore::{canonical_hashes, SumStore};
use gdroid::trace::Tracer;
use gdroid::vetting::{
    compute_vetting_slice, engine_for_mode, prepare_vetting, vet_app, Engine, PreparedApp,
    SourceSinkRegistry, TaintAnalysis, VettingReport,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The synthetic kernel: blocks × warp steps × lanes.
const SYNTH_BLOCKS: usize = 240;
const SYNTH_STEPS: usize = 64;
const SYNTH_LANES: usize = 32;
/// Distinct per-block step lists the blocks cycle through.
const SYNTH_PATTERNS: usize = 8;

/// What the traced pass found.
pub struct Replay {
    /// Per-layer metric values by declared name.
    pub values: BTreeMap<&'static str, f64>,
    /// The spans, for the trace file.
    pub recorder: Recorder,
    /// Sample apps whose worklist-GPU report was compared with the CPU
    /// reference engine's.
    pub compared: u64,
    /// Of those, apps where the two disagreed.
    pub mismatched: u64,
}

/// Per-app counts gathered during the replay; reported as medians.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, Vec<f64>>);

impl Counts {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }
}

fn fresh_device() -> Device {
    Device::new(DeviceConfig::tesla_p40())
}

/// Runs engine `kind` in mode `exec` over a prepared app on `device`,
/// restricted to `slice` when one is given.
fn analyze_sliced(
    prep: &PreparedApp,
    device: &mut Device,
    kind: EngineKind,
    exec: ExecMode,
    slice: Option<&BackwardSlice>,
) -> EngineAnalysis {
    engine_for_mode(kind, exec)
        .analyze_on(
            device,
            &prep.app.program,
            &prep.cg,
            &prep.roots,
            &HashMap::new(),
            slice.map(|s| &s.members),
        )
        .expect("a device without a fault plan cannot fault")
}

/// Runs engine `kind` in mode `exec` over the whole prepared app.
fn analyze(
    prep: &PreparedApp,
    device: &mut Device,
    kind: EngineKind,
    exec: ExecMode,
) -> EngineAnalysis {
    analyze_sliced(prep, device, kind, exec, None)
}

fn taint(prep: &PreparedApp, analysis: &EngineAnalysis) -> (VettingReport, usize) {
    let registry = SourceSinkRegistry::for_program(&prep.app.program);
    let (report, stats) = TaintAnalysis::new(
        &prep.app.program,
        &prep.cg,
        &analysis.facts,
        &analysis.spaces,
        &analysis.cfgs,
        &registry,
    )
    .run();
    (report, stats.rows_read)
}

/// What the decomposed vet path produced.
struct Vetted {
    prep: PreparedApp,
    /// The sink slice — computed inside the path only for targeted inputs.
    slice: Option<BackwardSlice>,
    analysis: EngineAnalysis,
    report: VettingReport,
    rows_read: usize,
}

/// The calls one verdict is made of, each in its own span: the part of
/// the replay that must account for the untraced per-app time. For a full
/// vetting these are the four calls inside `vet_app`; a targeted one adds
/// the backward slice and launches its members only, as the service's
/// targeted lane does.
fn vet_decomposed(rec: &mut Recorder, app: App, targeted: bool) -> Vetted {
    let prep = rec.span("icfg.prepare", |_| prepare_vetting(app));
    let slice = targeted.then(|| rec.span("analysis.slice", |_| compute_vetting_slice(&prep)));
    let analysis = rec.span("core.analyze", |_| {
        analyze_sliced(
            &prep,
            &mut fresh_device(),
            EngineKind::Worklist,
            ExecMode::MultiLaunch,
            slice.as_ref(),
        )
    });
    let (report, rows_read) = rec.span("vetting.taint", |_| taint(&prep, &analysis));
    rec.span("vetting.report_json", |_| std::hint::black_box(report.to_json()));
    Vetted { prep, slice, analysis, report, rows_read }
}

/// Replays `sample` through every layer. The first `ladder_n` apps also
/// run the slow lanes: the three lower ladder rungs and the `rel` engine.
pub fn replay(sample: &[SampleApp], ladder_n: usize, seed: u64, scratch: &Scratch) -> Replay {
    let started = Instant::now();
    let mut rec = Recorder::enabled();
    let mut counts = Counts::default();
    let mut compared = 0;
    let mut mismatched = 0;

    let dir = scratch.fresh("replay");
    let journal_dir = dir.join("journal");
    std::fs::create_dir_all(&journal_dir).expect("create replay journal dir");
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        master_seed: seed,
        apps: sample.len(),
        shards: 1,
        shard: 0,
        config_digest: 0,
        update_ppm: 0,
        update_salt: 0,
    };
    let mut journal = Journal::create(&journal_dir.join("shard-0.journal"), &header)
        .expect("create replay journal");
    let rel = EngineKind::parse("rel");

    for (n, input) in sample.iter().enumerate() {
        rec.set_app(n as u32);
        rec.span("bench.app", |rec| {
            let app = rec.span("apk.generate", |_| input.generate());
            counts.push("apk.stmts", app.program.total_statements() as f64);

            let bundle = dir.join(format!("bundle-{n}"));
            rec.span("ir.jil_write", |_| save_bundle(&app, &bundle).expect("write bundle"));
            let jil_bytes = std::fs::metadata(bundle.join("app.jil")).map_or(0, |m| m.len());
            counts.push("ir.jil_bytes", jil_bytes as f64);
            let loaded = rec.span("ir.jil_parse", |_| load_bundle(&bundle).expect("read bundle"));
            drop(loaded);

            let Vetted { prep, slice, analysis, report, rows_read } =
                vet_decomposed(rec, app.clone(), input.targeted);
            let layers = rec.span("icfg.layers", |_| CallLayers::compute(&prep.cg, &prep.roots));
            counts.push("icfg.reachable_methods", layers.method_count() as f64);
            let slice = slice
                .unwrap_or_else(|| rec.span("analysis.slice", |_| compute_vetting_slice(&prep)));
            counts.push("analysis.sliced_fraction", slice.sliced_fraction());

            let report_json = report.to_json();
            counts.push("vetting.taint_rows_read", rows_read as f64);
            counts.push("vetting.report_bytes", report_json.len() as f64);
            let stats = &analysis.stats;
            counts.push("core.modeled_idfg_ms", analysis.idfg_ns / 1e6);
            counts.push("core.launches", stats.launches as f64);
            counts.push("core.blocks", stats.blocks as f64);
            counts.push("core.kernel_ns", stats.kernel_ns);
            counts.push("core.exposed_copy_ns", stats.exposed_copy_ns);
            counts.push("core.divergence_factor", stats.divergence_factor);
            counts.push("core.coalescing", stats.coalescing);
            counts.push("core.utilization", stats.utilization);
            counts.push("core.device_allocations", stats.device_allocations as f64);
            counts.push("core.rounds", analysis.telemetry.rounds as f64);

            let persistent = rec.span("core.persistent_analyze", |_| {
                analyze(&prep, &mut fresh_device(), EngineKind::Worklist, ExecMode::Persistent)
            });
            counts.push("core.modeled_persistent_ms", persistent.idfg_ns / 1e6);

            let cpu = rec.span("analysis.cpu_solve", |_| {
                analyze(&prep, &mut fresh_device(), EngineKind::Cpu, ExecMode::MultiLaunch)
            });
            counts.push("analysis.nodes_processed", cpu.telemetry.nodes_processed as f64);
            counts.push("analysis.word_ops", cpu.telemetry.word_ops as f64);
            // The oracle again, on the sample: the GPU report must equal
            // the CPU reference engine's.
            let (reference, _) = taint(&prep, &cpu);
            compared += 1;
            if reference.verdict != report.verdict || reference.leaks != report.leaks {
                mismatched += 1;
            }
            rec.span("analysis.mtcpu_solve", |_| {
                std::hint::black_box(analyze_app_parallel(
                    &prep.app.program,
                    &prep.cg,
                    &prep.roots,
                    StoreKind::Set,
                ))
            });

            if n < ladder_n {
                for (span, metric, opts) in [
                    ("core.ladder_plain", "core.modeled_plain_ms", OptConfig::plain()),
                    ("core.ladder_mat", "core.modeled_mat_ms", OptConfig::mat()),
                    ("core.ladder_matgrp", "core.modeled_matgrp_ms", OptConfig::mat_grp()),
                ] {
                    let outcome = rec.span(span, |_| vet_app(app.clone(), Engine::Gpu(opts)));
                    counts.push(metric, outcome.timing.idfg_ns / 1e6);
                }
                if let Some(kind) = rel {
                    let ea = rec.span("rel.analyze", |_| {
                        analyze(&prep, &mut fresh_device(), kind, ExecMode::MultiLaunch)
                    });
                    counts.push("rel.modeled_idfg_ms", ea.idfg_ns / 1e6);
                    counts.push("rel.join_probes", ea.stats.join_probes as f64);
                    counts.push("rel.scan_rows", ea.stats.scan_rows as f64);
                }
            }

            rec.span("sumstore.hash", |_| {
                std::hint::black_box(canonical_hashes(&prep.app.program, &prep.cg, &prep.roots))
            });

            let tracer = Tracer::enabled_new();
            rec.span("trace.traced_analyze", |_| {
                let mut device = fresh_device();
                device.set_tracer(tracer.clone());
                analyze(&prep, &mut device, EngineKind::Worklist, ExecMode::MultiLaunch)
            });
            counts.push("trace.events_per_app", tracer.events().len() as f64);

            let record = AppRecord {
                index: input.index,
                seed: input.seed,
                package: prep.app.manifest.package.clone(),
                status: RecordStatus::Completed,
                verdict: format!("{:?}", report.verdict),
                leaks: report.leaks.len(),
                report_fnv: fnv1a(report_json.as_bytes()),
                envgen_ns: prep.prep_timing.envgen_ns,
                callgraph_ns: prep.prep_timing.callgraph_ns,
                idfg_ns: analysis.idfg_ns,
                taint_ns: 0.0,
                nodes: analysis.telemetry.nodes_processed as u64,
                rounds: analysis.telemetry.rounds as u64,
                sliced_micros: None,
                attempts: 1,
            };
            rec.span("campaign.journal_append", |_| {
                journal.append(&record).expect("append replay record");
            });
        });
    }
    drop(journal);

    rec.set_app(sample.len() as u32);
    let (_, records) = rec.span("campaign.journal_read", |_| {
        read_shard_records(&journal_dir, 0).expect("re-read replay journal")
    });
    let journal_bytes =
        std::fs::metadata(journal_dir.join("shard-0.journal")).map_or(0, |m| m.len());
    let fleet = rec
        .span("campaign.fold", |_| FleetReport::from_records(seed, sample.len(), 0, vec![records]));
    if fleet.completed != sample.len() {
        mismatched += 1;
    }

    // A store filled the way the program fills it: the sample vetted
    // through a service that has the store attached.
    let store = Arc::new(SumStore::new());
    rec.span("sumstore.populate", |_| {
        let svc = VettingService::start(ServiceConfig {
            prep_workers: 1,
            devices: 1,
            sumstore: Some(Arc::clone(&store)),
            ..ServiceConfig::default()
        });
        for input in sample {
            svc.submit(Priority::Standard, JobSource::App(Box::new(input.generate())))
                .expect("the replay service accepts its sample");
        }
        svc.drain();
    });
    let store_dir = dir.join("store");
    rec.span("sumstore.save", |_| store.save(&store_dir).expect("save store"));
    let reopened = rec.span("sumstore.open", |_| SumStore::open(&store_dir).expect("open store"));
    if reopened.len() != store.len() {
        mismatched += 1;
    }
    let store_bytes: u64 = file_sizes(&store_dir).iter().sum();

    let synth = synthetic_kernel(&mut rec, seed);

    let mut values: BTreeMap<&'static str, f64> =
        counts.0.iter().map(|(name, v)| (*name, median(v))).collect();
    for (span, metric) in [
        ("apk.generate", "apk.generate_ms"),
        ("ir.jil_write", "ir.jil_write_ms"),
        ("ir.jil_parse", "ir.jil_parse_ms"),
        ("icfg.prepare", "icfg.prepare_ms"),
        ("icfg.layers", "icfg.layers_ms"),
        ("analysis.cpu_solve", "analysis.cpu_solve_ms"),
        ("analysis.mtcpu_solve", "analysis.mtcpu_solve_ms"),
        ("analysis.slice", "analysis.slice_ms"),
        ("core.analyze", "core.analyze_ms"),
        ("core.persistent_analyze", "core.persistent_analyze_ms"),
        ("rel.analyze", "rel.analyze_ms"),
        ("vetting.taint", "vetting.taint_ms"),
        ("vetting.report_json", "vetting.report_json_ms"),
        ("sumstore.hash", "sumstore.hash_ms"),
        ("sumstore.save", "sumstore.save_ms"),
        ("sumstore.open", "sumstore.open_ms"),
        ("campaign.journal_read", "campaign.journal_read_ms"),
        ("campaign.fold", "campaign.fold_ms"),
        ("trace.traced_analyze", "trace.traced_analyze_ms"),
    ] {
        values.insert(metric, median(&rec.self_times_ms(span)));
    }
    values.insert(
        "campaign.journal_append_us",
        median(&rec.self_times_ms("campaign.journal_append")) * 1e3,
    );
    // Simulated ns per host µs, per app, over the analyze call.
    let sim_rate: Vec<f64> = counts.0["core.modeled_idfg_ms"]
        .iter()
        .zip(rec.self_times_ms("core.analyze"))
        .map(|(modeled_ms, host_ms)| modeled_ms * 1e6 / (host_ms * 1e3))
        .collect();
    values.insert("core.sim_ns_per_host_us", median(&sim_rate));
    for absent in ["rel.modeled_idfg_ms", "rel.join_probes", "rel.scan_rows"] {
        // `rel` retired (ROADMAP 3e) reads as 0, not as a missing metric.
        values.entry(absent).or_insert(0.0);
    }
    values.insert("campaign.journal_bytes_per_app", journal_bytes as f64 / sample.len() as f64);
    values.insert("sumstore.file_bytes", store_bytes as f64);
    values.insert("sumstore.sample_insertions", store.stats().insertions as f64);
    values.extend(synth);
    values.insert("bench.trace_sample_apps", sample.len() as f64);
    values.insert("bench.ladder_sample_apps", ladder_n.min(sample.len()) as f64);
    values.insert("bench.spans", rec.spans().len() as f64);
    values.insert("bench.traced_pass_s", started.elapsed().as_secs_f64());
    Replay { values, recorder: rec, compared, mismatched }
}

/// One fixed kernel on `Device::launch`: [`SYNTH_BLOCKS`] blocks of
/// [`SYNTH_STEPS`] warp steps of [`SYNTH_LANES`] lanes with seeded branch
/// partitions, strided reads, scattered writes and an occasional device
/// `malloc`. Its host time is the simulator's own speed; its modeled
/// cycles and transactions must not move when only that speed changes.
fn synthetic_kernel(rec: &mut Recorder, seed: u64) -> [(&'static str, f64); 4] {
    let mut device = fresh_device();
    let words = (SYNTH_STEPS * SYNTH_LANES * 4) as u64;
    let buffer = device.alloc_init(words * 8);
    let mut rng = Rng::new(seed);
    let patterns: Vec<Vec<Vec<LaneWork>>> = (0..SYNTH_PATTERNS)
        .map(|_| {
            (0..SYNTH_STEPS)
                .map(|step| {
                    (0..SYNTH_LANES)
                        .map(|lane| {
                            let at = (step * SYNTH_LANES + lane) as u64;
                            LaneWork {
                                partition: rng.below(4) as u32,
                                compute_cycles: 8 + rng.below(8),
                                // Unit-stride reads coalesce; the write
                                // stride of 4 words does not.
                                reads: vec![buffer.addr(at, 8), buffer.addr(at + 1, 8)],
                                writes: vec![buffer.addr((at * 4) % words, 8)],
                                deref_layers: (lane % 3) as u32,
                                mallocs: if step % 16 == 0 && lane == 0 {
                                    vec![64]
                                } else {
                                    Vec::new()
                                },
                                ..LaneWork::default()
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let blocks: Vec<_> = (0..SYNTH_BLOCKS)
        .map(|b| {
            let steps = &patterns[b % SYNTH_PATTERNS];
            move |ctx: &mut gdroid::gpusim::BlockCtx<'_>| {
                for lanes in steps {
                    ctx.warp_process(lanes);
                }
            }
        })
        .collect();
    let stats = rec.span("gpusim.synth_launch", |_| device.launch(blocks));
    let host_ms = rec.self_times_ms("gpusim.synth_launch")[0];
    let lane_steps = (SYNTH_BLOCKS * SYNTH_STEPS * SYNTH_LANES) as f64;
    [
        ("gpusim.synth_host_ms", host_ms),
        ("gpusim.synth_lane_steps_per_host_us", lane_steps / (host_ms * 1e3)),
        ("gpusim.synth_modeled_cycles", stats.makespan_cycles as f64),
        ("gpusim.synth_transactions", stats.transactions as f64),
    ]
}

/// Times the decomposed vet path over `sample` with the recorder on and
/// off — per app in the order on, off, off, on, keeping the faster of each
/// pair, because interference on this machine only adds time — plus one
/// whole `vet_app`. Returns `(overhead share, accounted share, untraced
/// per-app median ms)`:
///
/// * overhead = median over apps of (traced − untraced) ÷ untraced;
/// * accounted = median over apps of the spans' summed self times ÷ the
///   untraced time of the same app, which is `vet_app` for a full vetting
///   and the recorder-off decomposed path for a targeted one (the program
///   has no single public call for that path).
pub fn span_overhead(sample: &[SampleApp]) -> (f64, f64, f64) {
    let mut overhead = Vec::new();
    let mut accounted = Vec::new();
    let mut whole = Vec::new();
    for input in sample {
        let app = input.generate();
        let mut fastest = [f64::INFINITY; 2];
        let mut spans_ms = f64::INFINITY;
        for on in [true, false, false, true] {
            let mut rec = if on { Recorder::enabled() } else { Recorder::disabled() };
            let copy = app.clone();
            let t = Instant::now();
            std::hint::black_box(vet_decomposed(&mut rec, copy, input.targeted).report);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            fastest[usize::from(on)] = fastest[usize::from(on)].min(ms);
            if on {
                // The spans are siblings, so duration is self time.
                let sum = rec.spans().iter().map(|s| s.duration_ns() as f64 / 1e6).sum::<f64>();
                spans_ms = spans_ms.min(sum);
            }
        }
        let [untraced, traced] = fastest;
        let reference = if input.targeted {
            untraced
        } else {
            let t = Instant::now();
            std::hint::black_box(vet_app(app, Engine::Gpu(OptConfig::gdroid())));
            t.elapsed().as_secs_f64() * 1e3
        };
        overhead.push((traced - untraced) / untraced);
        accounted.push(spans_ms / reference);
        whole.push(reference);
    }
    (median(&overhead), median(&accounted), median(&whole))
}
