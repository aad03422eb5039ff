//! `gdroid` — command-line front end for the analysis stack.
//!
//! ```text
//! gdroid gen   <seed> [out.jil]       generate a synthetic app (.jil to stdout or file)
//! gdroid vet   <app.jil|seed> [--engine <name>] [--targeted]
//! gdroid engines                      list the analysis engines and their capabilities
//! gdroid lint  <app.jil|seed>         static lints over the IR (exit 1 on errors)
//! gdroid stats <app.jil|seed>         structural statistics (Table I row)
//! gdroid corpus <n>                   dataset statistics over the first n corpus apps
//! gdroid dot   <app.jil|seed> [out]   Graphviz call graph (reachable part)
//! gdroid export <n> <dir>             write the first n corpus apps as bundles
//! gdroid assess <app.jil|seed>        composite risk assessment (all plugins)
//! gdroid serve --apps N [--workers K] [--devices D] [--coresident C] [--faults P:B] [--json]
//!                                     run N corpus apps through the vetting service
//! gdroid batch <bundle-dir> [--workers K] [--devices D] [--coresident C] [--json]
//!                                     vet every bundle under a directory via the service
//! gdroid sumstore stats <dir>         inspect a persisted summary store
//! gdroid sumstore clear <dir>         reset a persisted summary store
//! gdroid campaign --apps N [--shards S] ...
//!                                     run a streamed store-scale campaign (see below)
//! ```
//!
//! `serve` and `batch` accept `--coresident C`: each executor tops its
//! device up with up to `C - 1` further ready jobs whose combined block
//! demand fits the device's block slots and runs the group as one
//! co-resident batched analysis. Per-app results are bit-identical to
//! solo runs; the drained report shows `batched_jobs` and the mean
//! `coresidency`.
//!
//! `vet`, `serve`, and `batch` accept `--sumstore <dir>`: the cross-app
//! summary store is loaded from `<dir>` before the run and saved back
//! after, so shared-library methods analyzed once are pre-solved in every
//! later run. `serve` and `batch` also accept `--digest`, which prints
//! one sorted `package report-hash` line per completed job — a
//! timing-independent fingerprint for comparing cold and warm runs.
//!
//! `vet` and `assess` accept `--json` for machine-readable output that is
//! byte-comparable with what the service caches and returns.
//!
//! `vet --targeted` runs demand-driven: a backward slice from the sink
//! call sites restricts the GPU worklist to the methods that can
//! influence a sink verdict. The verdict is byte-identical to a full run;
//! the outcome JSON gains a `"targeted"` provenance block (slice size,
//! methods skipped, sliced fraction). `serve --targeted-lane` submits
//! every other corpus job through the fast lane: targeted jobs run at
//! `expedited` priority, bypass the result cache, and never join a
//! co-resident batch; the drained report shows `targeted_jobs` and
//! `mean_sliced_fraction`. `lint` includes the `sink-reachability` pass:
//! sink call sites whose backward slice holds no source call site are
//! flagged as dead sinks.
//!
//! `vet` accepts `--trace <out.json>`: the run is traced in modeled time
//! and written as Chrome `trace_event` JSON (open in `about:tracing` or
//! Perfetto), with a top-span summary on stderr. Traces are
//! byte-deterministic: two runs of the same seed write identical files.
//! `serve` and `batch` accept `--trace-dir <dir>`, writing one modeled-
//! time trace per job after the drain.
//!
//! `campaign` streams an N-app corpus (generate → vet → journal →
//! discard, memory bounded by each service's in-flight window) across
//! `--shards S` independent serve fleets — one per simulated multi-GPU
//! node. Every terminal outcome is checkpointed to an append-only,
//! checksummed journal under `--journal-dir` (default
//! `campaign.journal/`), so a killed campaign rerun with the same
//! arguments resumes exactly where it stopped and still produces the
//! byte-identical fleet report. `--out` writes the canonical fleet
//! report JSON (byte-deterministic across reruns and kill/resume);
//! `--verdicts` writes one sorted `index package verdict report-hash`
//! line per app (byte-comparable across *any* shard count); `--fresh`
//! discards existing journals first. `--targeted` vets through the
//! demand-driven fast lane; `--sumstore` attaches a per-shard in-memory
//! summary store; `--scale F` scales the generator profile (default is
//! the `small` profile, 0.25).
//!
//! `--engine`, `--exec`, `--targeted`, `--sumstore` and `--trace` are
//! parsed once (`PlanFlags`) into the `ExecPlan` every vetting verb runs.
//! `--engine` selects how the IDFG fixpoint is computed: `worklist` (the
//! full-GDroid rung; `gdroid` is the same value), `cpu` (the sequential
//! reference solver), and — for `vet` only — the lower ladder rungs
//! `plain|mat|matgrp` and the CPU baselines `mtcpu|amandroid`. Facts and
//! verdicts are byte-identical across engines; only modeled timing
//! differs. `gdroid engines` prints the capability table: `vet` refuses
//! (exit 2) a combination an engine lacks, the service verbs reroute the
//! job to the nearest plan that runs, and only full multi-launch worklist
//! jobs use the result cache, the incremental warm start and co-resident
//! batching.
//!
//! `--exec persistent` switches the worklist engine to the
//! persistent-kernel mode: each app's whole fixpoint runs as one
//! resident mega-kernel launch owning a device-side worklist — one
//! launch overhead per app instead of one per round, with a modeled
//! grid-wide sync between rounds and host↔device traffic collapsed to
//! the initial upload plus the final download. Facts and verdicts are
//! byte-identical to multi-launch; only the cost profile changes.
//!
//! Apps can come from a `.jil` file (the textual IR) or be generated on
//! the fly from a numeric seed.

use gdroid::apk::{
    generate_app, App, AppStats, Category, Corpus, CorpusStats, GenConfig, Manifest,
};
use gdroid::core::ExecMode;
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::ir::text::{parse_program, print_program};
use gdroid::serve::{
    fnv1a, CacheDisposition, JobSource, JobStatus, Priority, ServiceConfig, VettingService,
};
use gdroid::sumstore::SumStore;
use gdroid::trace::{JsonWriter, Tracer};
use gdroid::vetting::{
    execute, prepare_vetting, sink_reachability_findings, vet_prepared, Engine, ExecCtx, ExecPlan,
};
use std::process::exit;
use std::sync::Arc;

/// One line per verb; [`verb_flags`] reads the accepted flags off it.
const USAGE: &str = "usage:\n  gdroid gen <seed> [out.jil]\n  gdroid vet <app.jil|seed> \
     [--engine plain|mat|matgrp|gdroid|worklist|cpu|mtcpu|amandroid] \
     [--exec multi|persistent] [--targeted] \
     [--sumstore <dir>] [--trace <out.json>] [--json]\n  \
     gdroid engines\n  \
     gdroid lint <app.jil|seed>\n  \
     gdroid stats <app.jil|seed>\n  \
     gdroid corpus <n>\n  gdroid dot <app.jil|seed> [out.dot]\n  gdroid export <n> <dir>\n  \
     gdroid assess <app.jil|seed> [--json]\n  \
     gdroid serve --apps N [--workers K] [--devices D] [--coresident C] [--faults P:B] \
     [--engine worklist|cpu] [--exec multi|persistent] [--targeted-lane] \
     [--sumstore <dir>] [--trace-dir <dir>] [--digest] [--json]\n  \
     gdroid batch <bundle-dir> [--workers K] [--devices D] [--coresident C] \
     [--engine worklist|cpu] [--exec multi|persistent] [--sumstore <dir>] \
     [--trace-dir <dir>] [--digest] [--json]\n  \
     gdroid sumstore stats|clear <dir>\n  \
     gdroid campaign --apps N [--shards S] [--seed X] [--workers K] [--devices D] \
     [--coresident C] [--engine worklist|cpu] [--exec multi|persistent] [--targeted] \
     [--sumstore] [--scale F] \
     [--snapshot] [--rotate N] [--shared-store] [--delta DIR] [--updates PPM[:SALT]] \
     [--journal-dir DIR] [--out FILE] [--verdicts FILE] [--trace-dir DIR] [--fresh] [--json]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// The `--flags` [`USAGE`] lists for `verb` (`None` for a verb it does not
/// list). `main` refuses any other `--flag` before the verb runs, so a
/// typo never silently selects the default behaviour.
fn verb_flags(verb: &str) -> Option<Vec<&'static str>> {
    let line = USAGE.lines().find(|line| {
        line.trim_start().strip_prefix("gdroid ").and_then(|rest| rest.split(' ').next())
            == Some(verb)
    })?;
    let word = |c: char| c == '-' || c.is_ascii_lowercase();
    Some(line.split(|c| !word(c)).filter(|token| token.starts_with("--")).collect())
}

/// Refuses a flag value that does not parse, naming the flag.
fn bad_value(flag: &str, value: &str) -> ! {
    eprintln!("gdroid: {flag} cannot take the value {value:?}");
    exit(2)
}

/// Parses `--flag N` style numeric options.
fn flag_value(args: &[String], flag: &str) -> Option<usize> {
    flag_str(args, flag).map(|v| v.parse().unwrap_or_else(|_| bad_value(flag, v)))
}

/// Parses `--flag value` style string options.
fn flag_str<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// The execution flags `vet`, `serve`, `batch` and `campaign` share.
struct PlanFlags<'a> {
    /// `--engine`, `--exec`, `--targeted`.
    plan: ExecPlan,
    /// `--sumstore` was given…
    sumstore: bool,
    /// …and its directory, for the verbs that persist the store (`vet`,
    /// `serve`, `batch`; a campaign's stores live in memory).
    store_dir: Option<&'a str>,
    /// `--trace <out.json>` (`vet`) or `--trace-dir <dir>` (the service
    /// verbs).
    trace: Option<&'a str>,
}

impl<'a> PlanFlags<'a> {
    fn parse(args: &'a [String]) -> PlanFlags<'a> {
        let engine = flag_str(args, "--engine")
            .map_or(ExecPlan::default().engine, |s| Engine::parse(s).unwrap_or_else(|| usage()));
        let exec = flag_str(args, "--exec")
            .map_or(ExecMode::default(), |s| ExecMode::parse(s).unwrap_or_else(|| usage()));
        let targeted = args.iter().any(|a| a == "--targeted");
        PlanFlags {
            plan: ExecPlan { engine, exec, targeted },
            sumstore: args.iter().any(|a| a == "--sumstore"),
            store_dir: flag_str(args, "--sumstore"),
            trace: flag_str(args, "--trace").or_else(|| flag_str(args, "--trace-dir")),
        }
    }

    /// `vet` runs exactly the plan it is given, so it refuses (exit 2)
    /// what the plan cannot do; the service verbs reroute instead
    /// (`ExecPlan::fallback`).
    fn check_or_exit(&self) {
        if let Err(refusal) = self.plan.check(self.sumstore) {
            eprintln!("{refusal} (see `gdroid engines`)");
            exit(2);
        }
    }

    /// The plan of a service-backed verb: its engine must be one of the
    /// two kinds a service selects between.
    fn service_plan(&self) -> ExecPlan {
        if self.plan.engine.kind().is_none() {
            eprintln!(
                "engine {} runs under `gdroid vet` only; serve, batch and campaign take \
                 worklist|cpu",
                self.plan.engine
            );
            exit(2)
        }
        self.plan
    }

    /// The service configuration `serve` and `batch` share.
    fn service_config(&self, args: &[String]) -> ServiceConfig {
        ServiceConfig {
            prep_workers: flag_value(args, "--workers").unwrap_or(2),
            devices: flag_value(args, "--devices").unwrap_or(2),
            sumstore: self.store_dir.map(|dir| Arc::new(open_sumstore(dir))),
            coresident: flag_value(args, "--coresident").unwrap_or(1),
            plan: self.service_plan(),
            ..ServiceConfig::default()
        }
    }
}

/// Opens (or starts empty) the summary store persisted under `dir`.
fn open_sumstore(dir: &str) -> SumStore {
    SumStore::open(std::path::Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("cannot open summary store {dir}: {e}");
        exit(1)
    })
}

/// Saves the summary store back to `dir`.
fn save_sumstore(store: &SumStore, dir: &str) {
    if let Err(e) = store.save(std::path::Path::new(dir)) {
        eprintln!("cannot save summary store {dir}: {e}");
        exit(1);
    }
}

/// Drains a service, prints results (`--json` for the machine-readable
/// report), and returns the process exit code: nonzero when any job was
/// quarantined, failed, or never produced a result.
fn finish_service(
    svc: VettingService,
    args: &[String],
    trace_dir: Option<&str>,
    expected: usize,
) -> i32 {
    let (report, results) = svc.drain();
    if let Some(dir) = trace_dir {
        match gdroid::serve::write_job_traces(&results, std::path::Path::new(dir)) {
            Ok(paths) => eprintln!("wrote {} modeled-time trace(s) under {dir}", paths.len()),
            Err(e) => {
                eprintln!("cannot write traces under {dir}: {e}");
                return 1;
            }
        }
    }
    let json = args.iter().any(|a| a == "--json");
    // Timing-independent stdout: one sorted `package report-hash` line per
    // completed job. Byte-comparable across cold and warm store runs.
    let digest = args.iter().any(|a| a == "--digest");
    let mut bad = 0usize;
    if json {
        let envelope = JsonWriter::render(|w| {
            w.object(|w| {
                report.write_json(w.key("report"));
                w.key("jobs").array(|w| results.iter().for_each(|r| r.write_json(w)));
            })
        });
        println!("{envelope}");
    }
    if digest {
        let mut lines: Vec<String> = results
            .iter()
            .filter_map(|r| {
                let outcome = r.outcome.as_ref()?;
                Some(format!("{} {:016x}", r.package, fnv1a(outcome.report.to_json().as_bytes())))
            })
            .collect();
        lines.sort();
        for line in lines {
            println!("{line}");
        }
    }
    for r in &results {
        match &r.status {
            JobStatus::Completed => {
                if !json && !digest {
                    let verdict = r
                        .outcome
                        .as_ref()
                        .map_or("?".to_owned(), |o| format!("{:?}", o.report.verdict));
                    let cache = match r.cache {
                        CacheDisposition::Miss => String::new(),
                        CacheDisposition::Hit => " [cache hit]".into(),
                        CacheDisposition::Incremental { resolved, reused } => {
                            format!(" [incremental: {resolved} re-solved, {reused} reused]")
                        }
                    };
                    let targeted = if r.outcome.as_ref().is_some_and(|o| o.targeted.is_some()) {
                        " [targeted]"
                    } else {
                        ""
                    };
                    println!(
                        "job {:>3} {:<22} {:<10} {}{}{}",
                        r.id,
                        r.package,
                        r.priority.as_str(),
                        verdict,
                        cache,
                        targeted
                    );
                }
            }
            JobStatus::Quarantined => {
                bad += 1;
                eprintln!("job {} {} QUARANTINED after {} attempts", r.id, r.package, r.attempts);
            }
            JobStatus::Failed(reason) => {
                bad += 1;
                eprintln!("job {} FAILED: {reason}", r.id);
            }
        }
    }
    if !json {
        eprintln!(
            "{} job(s): {} completed ({} cache hits, {} incremental), {} quarantined | \
             {} faults, {} retries | {:.2} apps/s",
            results.len(),
            report.counters.completed - report.counters.quarantined,
            report.cache.hits,
            report.counters.cache_incremental,
            report.counters.quarantined,
            report.counters.faults,
            report.counters.retries,
            report.apps_per_sec,
        );
        if report.counters.targeted_jobs > 0 {
            eprintln!(
                "targeted lane: {} job(s), mean sliced fraction {:.3}",
                report.counters.targeted_jobs, report.mean_sliced_fraction,
            );
        }
        if report.sumstore.hits + report.sumstore.insertions > 0 {
            eprintln!(
                "sumstore: {} hit(s), {} miss(es), {} inserted, {} reloc failure(s)",
                report.sumstore.hits,
                report.sumstore.misses,
                report.sumstore.insertions,
                report.sumstore.reloc_failures,
            );
        }
    }
    if results.len() != expected {
        eprintln!("expected {} results, got {}", expected, results.len());
        return 1;
    }
    i32::from(bad > 0)
}

/// Loads an app from a `.jil` path or generates one from a numeric seed.
fn load_app(arg: &str) -> App {
    if let Ok(seed) = arg.parse::<u64>() {
        return generate_app(0, seed, &GenConfig::small());
    }
    let text = std::fs::read_to_string(arg).unwrap_or_else(|e| {
        eprintln!("cannot read {arg}: {e}");
        exit(1)
    });
    let program = parse_program(&text).unwrap_or_else(|e| {
        eprintln!("parse error in {arg}: {e}");
        exit(1)
    });
    let errors = gdroid::ir::validate_program(&program);
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("{arg}: {e}");
        }
        eprintln!("{arg}: {} validation error(s)", errors.len());
        exit(1);
    }
    // A .jil file carries no manifest; every class that extends a
    // component base is treated as an exported component.
    let mut manifest = Manifest { package: arg.to_owned(), ..Default::default() };
    let hierarchy = gdroid::ir::ClassHierarchy::of(&program);
    for kind in gdroid::apk::ComponentKind::ALL {
        let Some(base_sym) = program.interner.get(kind.base_class()) else { continue };
        let Some(base) = program.class_by_name(base_sym) else { continue };
        for class in hierarchy.descendants(base) {
            manifest.components.push(gdroid::apk::Component {
                class: program.classes[class].name,
                kind,
                exported: true,
                intent_filters: vec![],
            });
        }
    }
    App { name: arg.to_owned(), category: Category::Tools, seed: 0, program, manifest }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let Some(flags) = verb_flags(cmd) else { usage() };
    if let Some(stray) = args.iter().find(|a| a.starts_with("--") && !flags.contains(&a.as_str())) {
        eprintln!("gdroid {cmd}: unknown flag {stray} (run `gdroid` for usage)");
        exit(2);
    }
    match cmd.as_str() {
        "gen" => {
            let Some(seed) = args.get(1).and_then(|s| s.parse::<u64>().ok()) else { usage() };
            let app = generate_app(0, seed, &GenConfig::small());
            let text = print_program(&app.program);
            match args.get(2) {
                Some(path) => {
                    std::fs::write(path, &text).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1)
                    });
                    eprintln!(
                        "wrote {} ({} methods, {} statements)",
                        path,
                        app.program.methods.len(),
                        app.program.total_statements()
                    );
                }
                None => print!("{text}"),
            }
        }
        "vet" => {
            let Some(target) = args.get(1) else { usage() };
            let flags = PlanFlags::parse(&args);
            flags.check_or_exit();
            let prep = prepare_vetting(load_app(target));
            let tracer =
                if flags.trace.is_some() { Tracer::enabled_new() } else { Tracer::disabled() };
            let store = flags.store_dir.map(open_sumstore);
            let mut device = Device::new(DeviceConfig::tesla_p40());
            let ctx = &mut ExecCtx {
                store: store.as_ref(),
                tracer: &tracer,
                ..ExecCtx::new(&mut device)
            };
            let done = execute(&prep, flags.plan, ctx).expect("a fresh device has no fault plan");
            if let (Some(dir), Some(store), Some(used)) = (flags.store_dir, &store, &done.store_use)
            {
                save_sumstore(store, dir);
                eprintln!("sumstore: {} hit(s), {} miss(es)", used.hits, used.misses);
            }
            let outcome = done.run.outcome;
            if let Some(path) = flags.trace {
                std::fs::write(path, tracer.to_chrome_json()).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1)
                });
                eprint!("{}", tracer.summary(10));
                eprintln!("wrote {path}");
            }
            if args.iter().any(|a| a == "--json") {
                println!("{}", outcome.to_json());
            } else {
                print!("{}", outcome.report.render());
                println!(
                    "IDFG {:.3} ms | total {:.3} ms | {} node processings",
                    outcome.timing.idfg_ns / 1e6,
                    outcome.timing.total_ns() / 1e6,
                    outcome.telemetry.nodes_processed
                );
                if let Some(t) = &outcome.targeted {
                    println!(
                        "targeted: {} of {} reachable methods analyzed ({:.1}% sliced, \
                         {} sink methods, {} partial roots)",
                        t.slice_methods,
                        t.total_reachable,
                        100.0 * t.sliced_fraction,
                        t.sink_methods,
                        t.partial_roots,
                    );
                }
            }
        }
        "engines" => {
            println!(
                "{:<10} {:<9} {:<9} {:<9} {:<11} note",
                "engine", "sumstore", "targeted", "batching", "persistent"
            );
            let mark = |b: bool| if b { "yes" } else { "no" };
            for engine in Engine::all() {
                let caps = engine.caps();
                println!(
                    "{:<10} {:<9} {:<9} {:<9} {:<11} {}",
                    engine.name(),
                    mark(caps.sumstore),
                    mark(caps.targeted),
                    mark(caps.batching),
                    mark(caps.persistent),
                    caps.note,
                );
            }
        }
        "lint" => {
            let Some(target) = args.get(1) else { usage() };
            let app = load_app(target);
            // The sink-reachability pass needs the call graph and the
            // backward slicer, which live above gdroid-ir: compute the
            // findings here and hand them to the pass framework.
            let findings = sink_reachability_findings(&app.program);
            let diags = gdroid::ir::LintRunner::default_passes()
                .with_pass(gdroid::ir::SinkReachability::new(findings))
                .run(&app.program);
            for d in &diags {
                println!("{d}");
            }
            let errors = diags.iter().filter(|d| d.severity == gdroid::ir::Severity::Error).count();
            let warnings = diags.len() - errors;
            println!(
                "{}: {} error(s), {} warning(s) over {} method(s)",
                app.name,
                errors,
                warnings,
                app.program.methods.len()
            );
            if errors > 0 {
                exit(1);
            }
        }
        "stats" => {
            let Some(target) = args.get(1) else { usage() };
            let app = load_app(target);
            let stats = AppStats::of(&app);
            println!("app:              {}", app.name);
            println!("classes:          {}", stats.app_classes);
            println!("methods:          {}", stats.methods);
            println!("statements:       {}", stats.cfg_nodes);
            println!("variables:        {} ({} reference)", stats.variables, stats.ref_variables);
            println!("allocation sites: {}", stats.allocation_sites);
            println!("call sites:       {}", stats.call_sites);
            println!("branches:         {} ({} back edges)", stats.branches, stats.back_edges);
            let prep = prepare_vetting(app);
            let analysis = vet_prepared(&prep, ExecPlan::new(Engine::CpuReference)).analysis;
            println!("reachable:        {} methods", analysis.spaces.len());
            println!("facts at fixpoint: {}", analysis.total_facts());
            println!("max worklist:     {}", analysis.telemetry.max_worklist);
        }
        "dot" => {
            let Some(target) = args.get(1) else { usage() };
            let prep = prepare_vetting(load_app(target));
            let dot = gdroid::icfg::callgraph_to_dot(&prep.app.program, &prep.cg, &prep.roots);
            match args.get(2) {
                Some(path) => {
                    std::fs::write(path, &dot).unwrap_or_else(|e| {
                        eprintln!("cannot write {path}: {e}");
                        exit(1)
                    });
                    eprintln!("wrote {path}");
                }
                None => print!("{dot}"),
            }
        }
        "assess" => {
            let Some(target) = args.get(1) else { usage() };
            let app = load_app(target);
            let assessment = gdroid::vetting::assess_app(app);
            if args.iter().any(|a| a == "--json") {
                println!("{}", assessment.to_json());
            } else {
                print!("{}", assessment.render());
            }
        }
        "serve" => {
            let Some(apps) = flag_value(&args, "--apps") else { usage() };
            let flags = PlanFlags::parse(&args);
            let fault_plan = flag_str(&args, "--faults").map(|spec| {
                let parsed = spec.split_once(':').and_then(|(p, b)| {
                    Some(gdroid::gpusim::FaultPlan {
                        period: p.parse().ok()?,
                        budget: b.parse().ok()?,
                    })
                });
                parsed.unwrap_or_else(|| bad_value("--faults", spec))
            });
            let config = ServiceConfig { fault_plan, ..flags.service_config(&args) };
            let sumstore = config.sumstore.clone();
            let svc = VettingService::start(config);
            let targeted_lane = args.iter().any(|a| a == "--targeted-lane");
            for i in 0..apps {
                let source = JobSource::Seed {
                    index: i,
                    seed: gdroid::apk::PAPER_MASTER_SEED ^ (i as u64),
                    config: Box::new(GenConfig::small()),
                };
                // Corpus-style submissions with a spread of priorities;
                // with --targeted-lane, every other job takes the
                // demand-driven fast lane instead.
                let result = if targeted_lane && i % 2 == 1 {
                    svc.submit_targeted(source)
                } else {
                    svc.submit(Priority::ALL[i % Priority::ALL.len()], source)
                };
                result.unwrap_or_else(|e| {
                    eprintln!("submit failed: {e}");
                    exit(1)
                });
            }
            let code = finish_service(svc, &args, flags.trace, apps);
            if let (Some(dir), Some(store)) = (flags.store_dir, &sumstore) {
                save_sumstore(store, dir);
            }
            exit(code);
        }
        "batch" => {
            let Some(dir) = args.get(1) else { usage() };
            let flags = PlanFlags::parse(&args);
            let mut bundles: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
                .unwrap_or_else(|e| {
                    eprintln!("cannot read {dir}: {e}");
                    exit(1)
                })
                .filter_map(|entry| {
                    let path = entry.ok()?.path();
                    path.join("app.jil").exists().then_some(path)
                })
                .collect();
            bundles.sort();
            if bundles.is_empty() {
                eprintln!("no bundles (dirs containing app.jil) under {dir}");
                exit(1);
            }
            let n = bundles.len();
            let config = flags.service_config(&args);
            let sumstore = config.sumstore.clone();
            let svc = VettingService::start(config);
            for path in bundles {
                svc.submit(Priority::Standard, JobSource::Bundle(path)).unwrap_or_else(|e| {
                    eprintln!("submit failed: {e}");
                    exit(1)
                });
            }
            let code = finish_service(svc, &args, flags.trace, n);
            if let (Some(dir), Some(store)) = (flags.store_dir, &sumstore) {
                save_sumstore(store, dir);
            }
            exit(code);
        }
        "export" => {
            let (Some(n), Some(dir)) =
                (args.get(1).and_then(|s| s.parse::<usize>().ok()), args.get(2))
            else {
                usage()
            };
            let corpus = Corpus::paper_sized(n);
            match gdroid::apk::export_corpus(&corpus, n, std::path::Path::new(dir)) {
                Ok(dirs) => eprintln!("wrote {} bundle(s) under {dir}", dirs.len()),
                Err(e) => {
                    eprintln!("export failed: {e}");
                    exit(1);
                }
            }
        }
        "sumstore" => {
            let (Some(action), Some(dir)) = (args.get(1), args.get(2)) else { usage() };
            match action.as_str() {
                "stats" => {
                    let store = open_sumstore(dir);
                    let file =
                        std::path::Path::new(dir).join(gdroid::sumstore::persist::STORE_FILE);
                    let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
                    println!("store:   {}", file.display());
                    println!("entries: {}", store.len());
                    println!("bytes:   {bytes}");
                }
                "clear" => {
                    save_sumstore(&SumStore::new(), dir);
                    eprintln!("cleared summary store under {dir}");
                }
                _ => usage(),
            }
        }
        "campaign" => {
            let Some(apps) = flag_value(&args, "--apps") else { usage() };
            let flags = PlanFlags::parse(&args);
            let shards = flag_value(&args, "--shards").unwrap_or(1);
            let journal_dir = flag_str(&args, "--journal-dir").unwrap_or("campaign.journal");
            if args.iter().any(|a| a == "--fresh") {
                std::fs::remove_dir_all(journal_dir).ok();
            }
            let mut gen = GenConfig::small();
            if let Some(scale) = flag_str(&args, "--scale") {
                gen.scale = scale.parse().unwrap_or_else(|_| bad_value("--scale", scale));
            }
            let master_seed = match flag_str(&args, "--seed") {
                Some(s) => s
                    .strip_prefix("0x")
                    .map_or_else(|| s.parse().ok(), |h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or_else(|| bad_value("--seed", s)),
                None => gdroid::apk::PAPER_MASTER_SEED,
            };
            // Snapshot mode: `--snapshot` turns on journal rotation at the
            // default segment size; `--rotate N` picks the size (and
            // implies snapshot mode).
            let rotate_records = match flag_value(&args, "--rotate") {
                Some(n) => Some(n.max(1)),
                None => args.iter().any(|a| a == "--snapshot").then_some(256),
            };
            let (update_ppm, update_salt) = match flag_str(&args, "--updates") {
                None => (0, 0),
                Some(spec) => {
                    let (ppm, salt) = match spec.split_once(':') {
                        Some((p, s)) => (p.parse().ok(), s.parse().ok()),
                        None => (spec.parse().ok(), Some(0)),
                    };
                    match (ppm, salt) {
                        (Some(p), Some(s)) => (p, s),
                        _ => bad_value("--updates", spec),
                    }
                }
            };
            let config = gdroid::campaign::CampaignConfig {
                apps,
                shards,
                master_seed,
                gen,
                journal_dir: journal_dir.into(),
                prep_workers: flag_value(&args, "--workers").unwrap_or(2),
                devices: flag_value(&args, "--devices").unwrap_or(2),
                coresident: flag_value(&args, "--coresident").unwrap_or(1),
                sumstore: flags.sumstore,
                plan: flags.service_plan(),
                trace_dir: flags.trace.map(Into::into),
                rotate_records,
                shared_stores: args.iter().any(|a| a == "--shared-store"),
                delta_base: flag_str(&args, "--delta").map(Into::into),
                update_ppm,
                update_salt,
            };
            let started = std::time::Instant::now();
            let outcome = gdroid::campaign::run_campaign(&config).unwrap_or_else(|e| {
                eprintln!("campaign failed: {e}");
                exit(1)
            });
            let fleet = &outcome.fleet;
            if let Some(path) = flag_str(&args, "--out") {
                std::fs::write(path, fleet.to_json() + "\n").unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1)
                });
                eprintln!("wrote fleet report to {path}");
            }
            if let Some(path) = flag_str(&args, "--verdicts") {
                // A report folded from sealed rollups holds only the
                // unsealed tails; per-app verdict lines then need the one
                // monolithic re-read.
                let lines = if fleet.records_complete {
                    fleet.verdict_lines()
                } else {
                    let refold = gdroid::campaign::read_campaign_journals(journal_dir.as_ref())
                        .and_then(|(_, shard_records)| {
                            gdroid::campaign::FleetReport::try_from_records(
                                fleet.master_seed,
                                fleet.apps,
                                fleet.config_digest,
                                shard_records,
                            )
                        });
                    refold
                        .unwrap_or_else(|e| {
                            eprintln!("cannot re-read journals: {e}");
                            exit(1)
                        })
                        .verdict_lines()
                };
                std::fs::write(path, lines).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    exit(1)
                });
                eprintln!("wrote verdict lines to {path}");
            }
            if args.iter().any(|a| a == "--json") {
                // One JSON document: a delta campaign's report carries its
                // delta as a last member rather than printing a second line.
                println!("{}", JsonWriter::render(|w| fleet.write_json(w, outcome.delta.as_ref())));
            } else {
                print!("{}", fleet.render());
            }
            // Live (wall-clock) side — informational only, never part of
            // the canonical report: it varies with resume and scheduling.
            let wall = started.elapsed().as_secs_f64();
            eprintln!(
                "this run: {} executed, {} resumed from journal, {} copied from delta base | \
                 wall {:.2} s ({:.1} apps/s live) | {} cache hits, {} sumstore hits, \
                 {} device faults",
                outcome.executed,
                outcome.resumed,
                outcome.copied,
                wall,
                if wall > 0.0 { outcome.executed as f64 / wall } else { 0.0 },
                outcome.service.cache.hits,
                outcome.service.sumstore.hits,
                outcome.service.device_faults,
            );
            if let Some(delta) = &outcome.delta {
                eprintln!(
                    "delta vs base: {} copied, {} re-vetted, {} added, {} verdict flip(s)",
                    delta.copied, delta.revetted, delta.added, delta.verdict_flips
                );
            }
            if fleet.quarantined + fleet.failed > 0 {
                eprintln!(
                    "{} quarantined, {} failed app(s) — see journals under {journal_dir}",
                    fleet.quarantined, fleet.failed
                );
                exit(1);
            }
            if fleet.tallied_apps() != apps {
                eprintln!("expected {} apps, journals tally {}", apps, fleet.tallied_apps());
                exit(1);
            }
        }
        "corpus" => {
            let Some(n) = args.get(1).and_then(|s| s.parse::<usize>().ok()) else { usage() };
            let corpus = Corpus::paper_sized(n);
            let stats: Vec<AppStats> = corpus.iter().map(|a| AppStats::of(&a)).collect();
            let agg = CorpusStats::aggregate(&stats);
            println!("apps:            {}", agg.apps);
            println!("mean CFG nodes:  {:.0}", agg.mean_cfg_nodes);
            println!("mean methods:    {:.0}", agg.mean_methods);
            println!("max CFG nodes:   {}", agg.max_cfg_nodes);
            println!("mean alloc sites: {:.0}", agg.mean_alloc_sites);
            println!("mean call sites: {:.0}", agg.mean_call_sites);
            println!("mean back edges: {:.0}", agg.mean_back_edges);
        }
        _ => usage(),
    }
}
