//! Tier-1 pin of every machine-readable document whose bytes no golden
//! file covers — wall-clock-bearing service documents and the report
//! types that only ever appear inside them.
//!
//! Each document is built from fixed literal values and compared with a
//! string rendered by the hand-formatted `to_json` bodies of the commit
//! before the one JSON writer replaced them (`gdroid_trace::json`), so a
//! moved key, a changed precision or a lost comma fails `cargo test`.
//! The same builders run once more with a hostile string (`"`, `\`,
//! control characters) and a NaN in every float slot; those documents,
//! like the pinned ones, must pass a strict well-formedness checker that
//! lives here — no parser enters the library.

use gdroid::campaign::{AppRecord, DeltaReport, FleetReport, RecordStatus};
use gdroid::ir::{MethodId, StmtIdx};
use gdroid::serve::{
    CacheDisposition, CacheStats, CountersSnapshot, HistogramSnapshot, JobResult, JobStatus,
    Priority, ServiceReport, SourceStats,
};
use gdroid::sumstore::SumStoreStats;
use gdroid::trace::{JsonWriter, Tracer};
use gdroid::vetting::{
    Assessment, Leak, RiskBand, Signal, SourceId, TargetedProvenance, VettingOutcome,
    VettingReport, VettingTiming,
};

/// The free inputs of every builder: one string and one float.
struct Inputs {
    text: &'static str,
    float: f64,
}

const PINNED: Inputs = Inputs { text: "com.gen.app0007", float: 1234.5678 };
const HOSTILE: Inputs = Inputs { text: "a\"b\\c\n\t\r\u{1}d", float: f64::NAN };

fn histogram(x: &Inputs) -> HistogramSnapshot {
    let mut buckets = [0u64; 17];
    buckets[1] = 3;
    buckets[4] = 2;
    buckets[16] = 1;
    let h = HistogramSnapshot::from_buckets(buckets, 2_000_000_123_456, 1_999_999_000_000);
    HistogramSnapshot { mean_ns: h.mean_ns + x.float, ..h }
}

fn counters(scale: u64) -> CountersSnapshot {
    CountersSnapshot {
        submitted: 19 * scale,
        cache_hits: 2 * scale,
        cache_incremental: 3 * scale,
        prepared: 4 * scale,
        executed: 5 * scale,
        retries: 6 * scale,
        faults: 7 * scale,
        timeouts: 8 * scale,
        quarantined: 9 * scale,
        completed: 10 * scale,
        batches: 2 * scale,
        batched_jobs: 4 * scale,
        targeted_jobs: 13 * scale,
        sliced_fraction_micros: 1_400_000 * scale,
        cpu_jobs: 15 * scale,
        store_hits: 17 * scale,
        store_misses: 18 * scale,
    }
}

fn service_report(x: &Inputs) -> ServiceReport {
    let one = |label: &str, scale: u64, wall_ns: u64| ServiceReport {
        counters: counters(scale),
        per_source: vec![SourceStats {
            label: label.to_owned(),
            cache_hits: 2 * scale,
            cache_incremental: 3 * scale,
            store_hits: 17 * scale,
            store_misses: 18 * scale,
        }],
        queue_wait: histogram(&PINNED),
        prep: HistogramSnapshot::default(),
        exec_wall: histogram(&PINNED),
        kernel_model: histogram(&PINNED),
        taint_model: HistogramSnapshot::default(),
        cache: CacheStats { hits: 2 * scale, misses: 5, invalidations: 1, insertions: 4 },
        sumstore: SumStoreStats { hits: 17, misses: 18 * scale, insertions: 6, reloc_failures: 1 },
        wall_ns,
        apps_per_sec: 0.0,
        coresidency: 1.0,
        mean_sliced_fraction: 1.0,
        device_launches: 40 * scale,
        device_faults: scale,
    };
    let merged = one(x.text, 1, 3_000_000_000).merge(&one("shard-1", 2, 7_000_000_000));
    ServiceReport { coresidency: merged.coresidency + x.float, ..merged }
}

fn vetting_report(x: &Inputs) -> VettingReport {
    let leaks = vec![
        Leak {
            method: MethodId(12),
            stmt: StmtIdx(34),
            sink: x.text.to_owned(),
            sources: vec![SourceId(1), SourceId(0)],
        },
        Leak { method: MethodId(13), stmt: StmtIdx(0), sink: "Log.d".into(), sources: vec![] },
    ];
    VettingReport::new(leaks, &["IMEI".to_owned(), x.text.to_owned()])
}

fn outcome(x: &Inputs, targeted: bool) -> VettingOutcome {
    VettingOutcome {
        report: vetting_report(x),
        timing: VettingTiming {
            envgen_ns: 250000.0,
            callgraph_ns: 1.5e6,
            idfg_ns: x.float,
            taint_ns: 0.1 + 0.2,
        },
        telemetry: gdroid::analysis::WorklistTelemetry {
            nodes_processed: 4321,
            rounds: 17,
            ..Default::default()
        },
        store_bytes: 65536,
        targeted: targeted.then_some(TargetedProvenance {
            slice_methods: 12,
            methods_skipped: 30,
            total_reachable: 42,
            sliced_fraction: x.float / 4321.0,
            sink_methods: 3,
            partial_roots: 2,
        }),
    }
}

fn job_results(x: &Inputs) -> Vec<(String, String)> {
    let statuses = [
        ("completed", JobStatus::Completed),
        ("quarantined", JobStatus::Quarantined),
        ("failed", JobStatus::Failed(format!("cannot load {}", x.text))),
    ];
    let caches = [
        ("miss", CacheDisposition::Miss),
        ("hit", CacheDisposition::Hit),
        ("incremental", CacheDisposition::Incremental { resolved: 2, reused: 9 }),
    ];
    let mut docs = Vec::new();
    for (status_name, status) in &statuses {
        for (cache_name, cache) in caches {
            let result = JobResult {
                id: 7,
                package: x.text.to_owned(),
                priority: Priority::Expedited,
                content_hash: 0xdead_beef_0000_0001,
                status: status.clone(),
                cache,
                outcome: (*status == JobStatus::Completed).then(|| outcome(x, false)),
                attempts: 3,
                faults_seen: 1,
                timeouts_seen: 1,
                queue_wait_ns: 10,
                prep_ns: 20,
                exec_wall_ns: 30,
            };
            let doc = JsonWriter::render(|w| result.write_json(w));
            docs.push((format!("JobResult {status_name}/{cache_name}"), doc));
        }
    }
    docs
}

fn assessment(x: &Inputs) -> Assessment {
    Assessment {
        package: x.text.to_owned(),
        signals: vec![
            Signal { plugin: "taint".into(), detail: x.text.to_owned(), weight: 20 },
            Signal { plugin: x.text.to_owned(), detail: "exported".into(), weight: 3 },
        ],
        score: 23,
        band: RiskBand::High,
    }
}

fn fleet_report(x: &Inputs) -> FleetReport {
    let record = |index: usize, status: RecordStatus, verdict: &str, idfg_ns: f64| AppRecord {
        index,
        seed: 1000 + index as u64,
        package: format!("{}.{index}", x.text),
        status,
        verdict: verdict.to_owned(),
        leaks: index % 3,
        report_fnv: 0x1234_5678_9abc_def0 + index as u64,
        envgen_ns: 250000.0,
        callgraph_ns: 1.5e6,
        idfg_ns,
        taint_ns: 1e5,
        nodes: 100 * index as u64,
        rounds: 10 + index as u64,
        sliced_micros: index.is_multiple_of(2).then_some(250_000),
        attempts: 1 + (index % 2) as u32,
    };
    let shards = vec![
        vec![
            record(0, RecordStatus::Completed, "Suspicious", 4e6),
            record(2, RecordStatus::Completed, "Clean", x.float),
            record(4, RecordStatus::Quarantined, "-", 0.0),
        ],
        vec![
            record(1, RecordStatus::Completed, "Clean", 9.25e7),
            record(3, RecordStatus::Failed, "-", 0.0),
            record(5, RecordStatus::Completed, "Odd", 2e6),
        ],
    ];
    FleetReport::from_records(868381, 6, 0xfeed_f00d, shards)
}

fn tracer(x: &Inputs) -> Tracer {
    let t = Tracer::enabled_new();
    t.span(
        "gpusim",
        format!("launch {}", x.text),
        1_234,
        5_678_901,
        2,
        vec![
            ("blocks", 4u64.into()),
            ("util", x.float.into()),
            ("pkg", x.text.into()),
            ("warm", true.into()),
        ],
    );
    t.instant("vetting", "sumstore hit", 42, 1, vec![]);
    t
}

/// Every document type under pin, rendered from `x`.
fn documents(x: &Inputs) -> Vec<(String, String)> {
    let delta = DeltaReport {
        base_apps: 20,
        apps: 24,
        copied: 15,
        revetted: 5,
        added: 4,
        verdict_flips: 1,
    };
    let mut docs = vec![
        ("HistogramSnapshot".to_owned(), JsonWriter::render(|w| histogram(x).write_json(w))),
        ("CountersSnapshot".to_owned(), JsonWriter::render(|w| counters(1).write_json(w))),
        ("ServiceReport".to_owned(), JsonWriter::render(|w| service_report(x).write_json(w))),
        ("VettingReport".to_owned(), vetting_report(x).to_json()),
        ("VettingOutcome full".to_owned(), outcome(x, false).to_json()),
        ("VettingOutcome targeted".to_owned(), outcome(x, true).to_json()),
        ("Assessment".to_owned(), assessment(x).to_json()),
        ("DeltaReport".to_owned(), JsonWriter::render(|w| delta.write_json(w))),
        ("FleetReport".to_owned(), fleet_report(x).to_json()),
        ("Tracer".to_owned(), tracer(x).to_chrome_json()),
    ];
    docs.extend(job_results(x));
    docs
}

/// Strict RFC 8259 well-formedness: one value, nothing after it, no bare
/// `NaN`/`inf`, no raw control character or unknown escape in a string.
fn well_formed(doc: &str) -> Result<(), String> {
    let b = doc.as_bytes();
    let mut i = 0;
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(format!("trailing bytes at {i}"))
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while matches!(b.get(*i), Some(b' ' | b'\n' | b'\t' | b'\r')) {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, token: &str) -> Result<(), String> {
    if b[*i..].starts_with(token.as_bytes()) {
        *i += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at {i}"))
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(&open @ (b'{' | b'[')) => {
            let close = if open == b'{' { b'}' } else { b']' };
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&close) {
                *i += 1;
                return Ok(());
            }
            loop {
                if open == b'{' {
                    skip_ws(b, i);
                    string(b, i)?;
                    skip_ws(b, i);
                    expect(b, i, ":")?;
                }
                value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(c) if *c == close => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or close at {i}")),
                }
            }
        }
        Some(b'"') => string(b, i),
        Some(b't') => expect(b, i, "true"),
        Some(b'f') => expect(b, i, "false"),
        Some(b'n') => expect(b, i, "null"),
        Some(b'-' | b'0'..=b'9') => number(b, i),
        _ => Err(format!("no value at {i}")),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    expect(b, i, "\"")?;
    loop {
        match b.get(*i) {
            Some(b'"') => {
                *i += 1;
                return Ok(());
            }
            Some(b'\\') => match b.get(*i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 2,
                Some(b'u')
                    if b.len() >= *i + 6 && b[*i + 2..*i + 6].iter().all(u8::is_ascii_hexdigit) =>
                {
                    *i += 6
                }
                _ => return Err(format!("bad escape at {i}")),
            },
            Some(c) if *c >= 0x20 => *i += 1,
            _ => return Err(format!("raw control byte or end of input in string at {i}")),
        }
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let digits = |i: &mut usize| {
        let start = *i;
        while matches!(b.get(*i), Some(b'0'..=b'9')) {
            *i += 1;
        }
        *i - start
    };
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int_start = *i;
    let int_digits = digits(i);
    if int_digits == 0 || (int_digits > 1 && b[int_start] == b'0') {
        return Err(format!("bad integer part at {int_start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if digits(i) == 0 {
            return Err(format!("no fraction digits at {i}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if digits(i) == 0 {
            return Err(format!("no exponent digits at {i}"));
        }
    }
    Ok(())
}

#[test]
fn checker_rejects_what_a_hand_formatted_body_could_emit() {
    for good in ["{}", "[]", "{\"a\":[1,-2.5e3,\"x\\u0001\",true,null]}\n", "0.000"] {
        well_formed(good).unwrap_or_else(|e| panic!("{good}: {e}"));
    }
    for bad in [
        "{\"a\":NaN}",
        "{\"a\":inf}",
        "{\"a\":\"x\ny\"}",
        "{\"a\":\"x\"y\"}",
        "{\"a\":1,}",
        "{\"a\":1}{",
        "[1 2]",
        "{\"a\":01}",
        "{\"a\":\"\\q\"}",
    ] {
        assert!(well_formed(bad).is_err(), "{bad} must be rejected");
    }
}

#[test]
fn documents_match_the_bytes_of_the_hand_formatted_bodies() {
    let docs = documents(&PINNED);
    assert_eq!(docs.len(), PINS.len(), "one pin per document");
    for ((name, got), (pin_name, want)) in docs.iter().zip(PINS) {
        assert_eq!(name, pin_name);
        assert_eq!(got, want, "{name} drifted from its pinned bytes");
        well_formed(got).unwrap_or_else(|e| panic!("{name}: {e}\n{got}"));
    }
}

#[test]
fn hostile_strings_and_nan_still_render_well_formed_documents() {
    for (name, doc) in documents(&HOSTILE) {
        well_formed(&doc).unwrap_or_else(|e| panic!("{name}: {e}\n{doc}"));
        assert!(doc.contains("\\u0001") || !name_has_text(&name), "{name}: {doc}");
    }
}

/// Document types with no string slot at all.
fn name_has_text(name: &str) -> bool {
    !matches!(name, "HistogramSnapshot" | "CountersSnapshot" | "DeltaReport")
}

/// `(document, bytes)` in `documents` order, rendered by the parent
/// commit's hand-formatted bodies from `PINNED`.
const PINS: &[(&str, &str)] = &[
    ("HistogramSnapshot", "{\"count\":6,\"mean_ns\":333333355143.9,\"p50_ns\":4000,\"p95_ns\":1722121847200,\"p99_ns\":1944423569440,\"max_ns\":1999999000000,\"sum_ns\":2000000123456,\"buckets\":[0,3,0,0,2,0,0,0,0,0,0,0,0,0,0,0,1]}"),
    ("CountersSnapshot", "{\"submitted\":19,\"cache_hits\":2,\"cache_incremental\":3,\"prepared\":4,\"executed\":5,\"retries\":6,\"faults\":7,\"timeouts\":8,\"quarantined\":9,\"completed\":10,\"batches\":2,\"batched_jobs\":4,\"targeted_jobs\":13,\"sliced_fraction_micros\":1400000,\"cpu_jobs\":15,\"store_hits\":17,\"store_misses\":18}"),
    ("ServiceReport", "{\"counters\":{\"submitted\":57,\"cache_hits\":6,\"cache_incremental\":9,\"prepared\":12,\"executed\":15,\"retries\":18,\"faults\":21,\"timeouts\":24,\"quarantined\":27,\"completed\":30,\"batches\":6,\"batched_jobs\":12,\"targeted_jobs\":39,\"sliced_fraction_micros\":4200000,\"cpu_jobs\":45,\"store_hits\":51,\"store_misses\":54},\"per_source\":[{\"label\":\"com.gen.app0007\",\"cache_hits\":2,\"cache_incremental\":3,\"store_hits\":17,\"store_misses\":18},{\"label\":\"shard-1\",\"cache_hits\":4,\"cache_incremental\":6,\"store_hits\":34,\"store_misses\":36}],\"latency\":{\"queue_wait\":{\"count\":12,\"mean_ns\":333333353909.3,\"p50_ns\":4000,\"p95_ns\":1722121847200,\"p99_ns\":1944423569440,\"max_ns\":1999999000000,\"sum_ns\":4000000246912,\"buckets\":[0,6,0,0,4,0,0,0,0,0,0,0,0,0,0,0,2]},\"prep\":{\"count\":0,\"mean_ns\":0.0,\"p50_ns\":0,\"p95_ns\":0,\"p99_ns\":0,\"max_ns\":0,\"sum_ns\":0,\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},\"exec_wall\":{\"count\":12,\"mean_ns\":333333353909.3,\"p50_ns\":4000,\"p95_ns\":1722121847200,\"p99_ns\":1944423569440,\"max_ns\":1999999000000,\"sum_ns\":4000000246912,\"buckets\":[0,6,0,0,4,0,0,0,0,0,0,0,0,0,0,0,2]},\"kernel_model\":{\"count\":12,\"mean_ns\":333333353909.3,\"p50_ns\":4000,\"p95_ns\":1722121847200,\"p99_ns\":1944423569440,\"max_ns\":1999999000000,\"sum_ns\":4000000246912,\"buckets\":[0,6,0,0,4,0,0,0,0,0,0,0,0,0,0,0,2]},\"taint_model\":{\"count\":0,\"mean_ns\":0.0,\"p50_ns\":0,\"p95_ns\":0,\"p99_ns\":0,\"max_ns\":0,\"sum_ns\":0,\"buckets\":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}},\"cache\":{\"hits\":6,\"misses\":10,\"invalidations\":2,\"insertions\":8},\"sumstore\":{\"hits\":34,\"misses\":54,\"insertions\":12,\"reloc_failures\":2},\"wall_ns\":7000000000,\"apps_per_sec\":4.286,\"coresidency\":1236.234,\"mean_sliced_fraction\":0.107692,\"device_launches\":120,\"device_faults\":3}"),
    ("VettingReport", "{\"verdict\":\"Suspicious\",\"leaks\":[{\"method\":12,\"stmt\":34,\"sink\":\"com.gen.app0007\",\"sources\":[\"com.gen.app0007\",\"IMEI\"]},{\"method\":13,\"stmt\":0,\"sink\":\"Log.d\",\"sources\":[]}]}"),
    ("VettingOutcome full", "{\"report\":{\"verdict\":\"Suspicious\",\"leaks\":[{\"method\":12,\"stmt\":34,\"sink\":\"com.gen.app0007\",\"sources\":[\"com.gen.app0007\",\"IMEI\"]},{\"method\":13,\"stmt\":0,\"sink\":\"Log.d\",\"sources\":[]}]},\"timing\":{\"envgen_ns\":250000,\"callgraph_ns\":1500000,\"idfg_ns\":1234.5678,\"taint_ns\":0.30000000000000004,\"total_ns\":1751234.8678000001},\"telemetry\":{\"nodes_processed\":4321,\"rounds\":17},\"store_bytes\":65536}"),
    ("VettingOutcome targeted", "{\"report\":{\"verdict\":\"Suspicious\",\"leaks\":[{\"method\":12,\"stmt\":34,\"sink\":\"com.gen.app0007\",\"sources\":[\"com.gen.app0007\",\"IMEI\"]},{\"method\":13,\"stmt\":0,\"sink\":\"Log.d\",\"sources\":[]}]},\"timing\":{\"envgen_ns\":250000,\"callgraph_ns\":1500000,\"idfg_ns\":1234.5678,\"taint_ns\":0.30000000000000004,\"total_ns\":1751234.8678000001},\"telemetry\":{\"nodes_processed\":4321,\"rounds\":17},\"store_bytes\":65536,\"targeted\":{\"targeted\":true,\"slice_methods\":12,\"methods_skipped\":30,\"total_reachable\":42,\"sliced_fraction\":0.285713,\"sink_methods\":3,\"partial_roots\":2}}"),
    ("Assessment", "{\"package\":\"com.gen.app0007\",\"score\":23,\"band\":\"High\",\"signals\":[{\"plugin\":\"taint\",\"detail\":\"com.gen.app0007\",\"weight\":20},{\"plugin\":\"com.gen.app0007\",\"detail\":\"exported\",\"weight\":3}]}"),
    ("DeltaReport", "{\"base_apps\":20,\"apps\":24,\"copied\":15,\"revetted\":5,\"added\":4,\"verdict_flips\":1}"),
    ("FleetReport", "{\"campaign\":{\"master_seed\":868381,\"apps\":6,\"shards\":2,\"config_digest\":4277006349},\"verdicts\":{\"completed\":4,\"suspicious\":1,\"clean\":2,\"unknown\":1,\"quarantined\":1,\"failed\":1,\"leaks\":6,\"retried_apps\":3,\"targeted_apps\":3,\"mean_sliced_fraction\":0.250000,\"digest\":\"16a4e8c82be95c00\"},\"modeled\":{\"serial_ns\":105901234.6,\"makespan_ns\":98200000.0,\"imbalance\":1.8546,\"app_model\":{\"count\":4,\"mean_ns\":26475308.8,\"p50_ns\":4096000,\"p95_ns\":88587200,\"p99_ns\":93197440,\"max_ns\":94350000,\"sum_ns\":105901235,\"buckets\":[0,0,0,0,0,0,2,1,0,1,0,0,0,0,0,0,0]}},\"per_shard\":[{\"shard\":0,\"apps\":3,\"completed\":2,\"suspicious\":1,\"clean\":1,\"unknown\":0,\"quarantined\":1,\"failed\":0,\"leaks\":3,\"modeled_total_ns\":7701234.6,\"nodes\":600,\"rounds\":36},{\"shard\":1,\"apps\":3,\"completed\":2,\"suspicious\":0,\"clean\":1,\"unknown\":1,\"quarantined\":0,\"failed\":1,\"leaks\":3,\"modeled_total_ns\":98200000.0,\"nodes\":600,\"rounds\":26}],\"stragglers\":[{\"index\":1,\"package\":\"com.gen.app0007.1\",\"shard\":1,\"total_ns\":94350000.0},{\"index\":0,\"package\":\"com.gen.app0007.0\",\"shard\":0,\"total_ns\":5850000.0},{\"index\":5,\"package\":\"com.gen.app0007.5\",\"shard\":1,\"total_ns\":3850000.0},{\"index\":2,\"package\":\"com.gen.app0007.2\",\"shard\":0,\"total_ns\":1851234.6}]}"),
    ("Tracer", "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{\"name\":\"sumstore hit\",\"cat\":\"vetting\",\"ph\":\"i\",\"pid\":3,\"tid\":1,\"ts\":0.042,\"s\":\"t\"},{\"name\":\"launch com.gen.app0007\",\"cat\":\"gpusim\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1.234,\"dur\":5678.901,\"args\":{\"blocks\":4,\"util\":1234.5678,\"pkg\":\"com.gen.app0007\",\"warm\":true}}]}\n"),
    ("JobResult completed/miss", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":\"completed\",\"cache\":\"miss\",\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":{\"report\":{\"verdict\":\"Suspicious\",\"leaks\":[{\"method\":12,\"stmt\":34,\"sink\":\"com.gen.app0007\",\"sources\":[\"com.gen.app0007\",\"IMEI\"]},{\"method\":13,\"stmt\":0,\"sink\":\"Log.d\",\"sources\":[]}]},\"timing\":{\"envgen_ns\":250000,\"callgraph_ns\":1500000,\"idfg_ns\":1234.5678,\"taint_ns\":0.30000000000000004,\"total_ns\":1751234.8678000001},\"telemetry\":{\"nodes_processed\":4321,\"rounds\":17},\"store_bytes\":65536}}"),
    ("JobResult completed/hit", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":\"completed\",\"cache\":\"hit\",\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":{\"report\":{\"verdict\":\"Suspicious\",\"leaks\":[{\"method\":12,\"stmt\":34,\"sink\":\"com.gen.app0007\",\"sources\":[\"com.gen.app0007\",\"IMEI\"]},{\"method\":13,\"stmt\":0,\"sink\":\"Log.d\",\"sources\":[]}]},\"timing\":{\"envgen_ns\":250000,\"callgraph_ns\":1500000,\"idfg_ns\":1234.5678,\"taint_ns\":0.30000000000000004,\"total_ns\":1751234.8678000001},\"telemetry\":{\"nodes_processed\":4321,\"rounds\":17},\"store_bytes\":65536}}"),
    ("JobResult completed/incremental", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":\"completed\",\"cache\":{\"incremental\":{\"resolved\":2,\"reused\":9}},\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":{\"report\":{\"verdict\":\"Suspicious\",\"leaks\":[{\"method\":12,\"stmt\":34,\"sink\":\"com.gen.app0007\",\"sources\":[\"com.gen.app0007\",\"IMEI\"]},{\"method\":13,\"stmt\":0,\"sink\":\"Log.d\",\"sources\":[]}]},\"timing\":{\"envgen_ns\":250000,\"callgraph_ns\":1500000,\"idfg_ns\":1234.5678,\"taint_ns\":0.30000000000000004,\"total_ns\":1751234.8678000001},\"telemetry\":{\"nodes_processed\":4321,\"rounds\":17},\"store_bytes\":65536}}"),
    ("JobResult quarantined/miss", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":\"quarantined\",\"cache\":\"miss\",\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":null}"),
    ("JobResult quarantined/hit", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":\"quarantined\",\"cache\":\"hit\",\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":null}"),
    ("JobResult quarantined/incremental", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":\"quarantined\",\"cache\":{\"incremental\":{\"resolved\":2,\"reused\":9}},\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":null}"),
    ("JobResult failed/miss", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":{\"failed\":\"cannot load com.gen.app0007\"},\"cache\":\"miss\",\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":null}"),
    ("JobResult failed/hit", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":{\"failed\":\"cannot load com.gen.app0007\"},\"cache\":\"hit\",\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":null}"),
    ("JobResult failed/incremental", "{\"id\":7,\"package\":\"com.gen.app0007\",\"priority\":\"expedited\",\"content_hash\":16045690981097406465,\"status\":{\"failed\":\"cannot load com.gen.app0007\"},\"cache\":{\"incremental\":{\"resolved\":2,\"reused\":9}},\"attempts\":3,\"faults_seen\":1,\"timeouts_seen\":1,\"queue_wait_ns\":10,\"prep_ns\":20,\"exec_wall_ns\":30,\"outcome\":null}"),
];
