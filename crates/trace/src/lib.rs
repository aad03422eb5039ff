#![warn(missing_docs)]

//! # gdroid-trace — modeled-time event tracing
//!
//! A structured tracing layer for the whole analysis stack. Two rules
//! make it useful for a *simulated* system:
//!
//! 1. **Modeled time only.** Every timestamp and duration is in *modeled
//!    nanoseconds* — the simulator's clock, never the host's wall clock.
//!    A trace of a fixed-seed run is therefore byte-deterministic: two
//!    runs of the same app produce identical trace files, so traces can
//!    be diffed, cached, and gated in CI like any other artifact.
//! 2. **Zero overhead when disabled.** A [`Tracer`] is either enabled
//!    (events go to a shared buffer) or disabled (every call is a no-op
//!    behind one `Option` check, and callers guard argument construction
//!    with [`Tracer::enabled`]). The stack's run statistics are asserted
//!    bit-identical with tracing off.
//!
//! Events form the Chrome `trace_event` model: *spans* (`"ph":"X"`,
//! complete events with a duration) and *instants* (`"ph":"i"`). Each
//! event carries a category — the layer that emitted it (`gpusim`,
//! `driver`, `vetting`, `serve`) — which maps to the Chrome process row,
//! and a `track` (the Chrome thread row) to separate e.g. device slots.
//! [`Tracer::to_chrome_json`] renders the buffer as a `chrome://tracing`
//! / Perfetto-loadable JSON file; [`Tracer::summary`] renders a compact
//! top-k table of where the modeled time went.

pub mod json;

pub use json::JsonWriter;
use std::sync::{Arc, Mutex};

/// Chrome `trace_event` phase of one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A complete event (`"ph":"X"`): a span with a duration.
    Span,
    /// An instant event (`"ph":"i"`): a point in modeled time.
    Instant,
}

/// One argument value attached to an event.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float (rendered with Rust's shortest round-trip formatting, which
    /// is deterministic).
    F64(f64),
    /// String (JSON-escaped on export).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_owned())
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> ArgValue {
        ArgValue::Bool(v)
    }
}

/// One recorded event, in modeled nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Emitting layer (`gpusim`, `driver`, `vetting`, `serve`) — the
    /// Chrome process row.
    pub cat: &'static str,
    /// Event name (spans aggregate by name in [`Tracer::summary`]).
    pub name: String,
    /// Span or instant.
    pub ph: Phase,
    /// Modeled start time, ns.
    pub ts_ns: u64,
    /// Modeled duration, ns (0 for instants).
    pub dur_ns: u64,
    /// Chrome thread row within the category (e.g. a device slot).
    pub track: u32,
    /// Attached key-value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// One Chrome `trace_event` object.
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("name").string(&self.name);
            w.key("cat").string(self.cat);
            w.key("ph").string(match self.ph {
                Phase::Span => "X",
                Phase::Instant => "i",
            });
            w.key("pid").int(category_pid(self.cat));
            w.key("tid").int(self.track);
            w.key("ts").micros(self.ts_ns);
            match self.ph {
                Phase::Span => w.key("dur").micros(self.dur_ns),
                Phase::Instant => w.key("s").string("t"),
            }
            if !self.args.is_empty() {
                w.key("args").object(|w| {
                    for (key, value) in &self.args {
                        w.key(key);
                        match value {
                            ArgValue::U64(v) => w.int(*v),
                            ArgValue::F64(v) => w.float(*v),
                            ArgValue::Str(v) => w.string(v),
                            ArgValue::Bool(v) => w.bool(*v),
                        }
                    }
                });
            }
        })
    }
}

/// The Chrome `pid` a category renders under (stable layer numbering so
/// traces from different runs line up in the viewer).
pub fn category_pid(cat: &str) -> u32 {
    match cat {
        "gpusim" => 1,
        "driver" => 2,
        "vetting" => 3,
        "serve" => 4,
        _ => 9,
    }
}

/// A handle onto a shared trace buffer — cheap to clone, safe to share
/// across threads. `Tracer::default()` is *disabled*: every recording
/// call is a no-op and [`Tracer::enabled`] returns `false`, so
/// instrumented code pays one branch and nothing else.
#[derive(Clone, Default)]
pub struct Tracer {
    buf: Option<Arc<Mutex<Vec<TraceEvent>>>>,
}

impl Tracer {
    /// A disabled tracer (the no-op sink).
    pub const fn disabled() -> Tracer {
        Tracer { buf: None }
    }

    /// An enabled tracer with a fresh, empty buffer.
    pub fn enabled_new() -> Tracer {
        Tracer { buf: Some(Arc::new(Mutex::new(Vec::new()))) }
    }

    /// Whether events are being recorded. Callers should guard any
    /// non-trivial name/argument construction behind this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    fn push(&self, ev: TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.lock().expect("trace buffer poisoned").push(ev);
        }
    }

    /// Records a span of modeled time.
    pub fn span(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        ts_ns: u64,
        dur_ns: u64,
        track: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.enabled() {
            self.push(TraceEvent {
                cat,
                name: name.into(),
                ph: Phase::Span,
                ts_ns,
                dur_ns,
                track,
                args,
            });
        }
    }

    /// Records an instant in modeled time.
    pub fn instant(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        ts_ns: u64,
        track: u32,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if self.enabled() {
            self.push(TraceEvent {
                cat,
                name: name.into(),
                ph: Phase::Instant,
                ts_ns,
                dur_ns: 0,
                track,
                args,
            });
        }
    }

    /// A snapshot of the recorded events, sorted by modeled start time
    /// (stable, so equal-timestamp events keep their emission order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut evs = match &self.buf {
            Some(buf) => buf.lock().expect("trace buffer poisoned").clone(),
            None => Vec::new(),
        };
        evs.sort_by_key(|e| e.ts_ns);
        evs
    }

    /// Renders the buffer as Chrome `trace_event` JSON (an object with a
    /// `traceEvents` array), byte-deterministic for a fixed event set.
    /// Timestamps convert from modeled ns to the format's µs field with
    /// three decimal places, via integer math ([`JsonWriter::micros`]).
    pub fn to_chrome_json(&self) -> String {
        let evs = self.events();
        let mut doc = JsonWriter::render(|w| {
            w.object(|w| {
                w.key("displayTimeUnit").string("ns");
                w.key("traceEvents").array(|w| evs.iter().for_each(|ev| ev.write_json(w)));
            })
        });
        doc.push('\n');
        doc
    }

    /// A compact table of the top-`k` span names by total modeled time:
    /// `total-ms  count  category  name`, one row per distinct
    /// `(cat, name)` pair, largest first — [`Tracer::top_spans`], rendered.
    pub fn summary(&self, k: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{:>12}  {:>7}  {:<8} span", "modeled-ms", "count", "layer").unwrap();
        for (cat, name, total, count) in self.top_spans(k) {
            writeln!(out, "{:>12.3}  {count:>7}  {cat:<8} {name}", total as f64 / 1e6).unwrap();
        }
        out
    }

    /// Top-`k` aggregated spans as raw rows: `(cat, name, total_ns,
    /// count)`, largest total first — the data behind [`Tracer::summary`].
    pub fn top_spans(&self, k: usize) -> Vec<(&'static str, String, u64, u64)> {
        let mut agg: Vec<(&'static str, String, u64, u64)> = Vec::new();
        for ev in self.events().iter().filter(|e| e.ph == Phase::Span) {
            match agg.iter_mut().find(|(c, n, _, _)| *c == ev.cat && *n == ev.name) {
                Some(row) => {
                    row.2 += ev.dur_ns;
                    row.3 += 1;
                }
                None => agg.push((ev.cat, ev.name.clone(), ev.dur_ns, 1)),
            }
        }
        agg.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
        agg.truncate(k);
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.span("driver", "x", 0, 10, 0, vec![]);
        t.instant("driver", "y", 5, 0, vec![]);
        assert!(t.events().is_empty());
        assert_eq!(t.to_chrome_json(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n");
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Tracer::default().enabled());
    }

    #[test]
    fn events_sort_by_modeled_time_stably() {
        let t = Tracer::enabled_new();
        t.span("driver", "late", 100, 10, 0, vec![]);
        t.span("driver", "early-a", 5, 10, 0, vec![]);
        t.span("driver", "early-b", 5, 10, 0, vec![]);
        let evs = t.events();
        let names: Vec<&str> = evs.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["early-a", "early-b", "late"], "stable sort keeps emission order");
    }

    #[test]
    fn chrome_json_is_deterministic_and_shaped() {
        let mk = || {
            let t = Tracer::enabled_new();
            t.span(
                "gpusim",
                "launch 1",
                1_234,
                5_678,
                0,
                vec![("blocks", 4u64.into()), ("util", 0.5f64.into())],
            );
            t.instant("vetting", "sumstore \"hit\"", 42, 1, vec![("pkg", "com.a".into())]);
            t.to_chrome_json()
        };
        let a = mk();
        assert_eq!(a, mk(), "identical event sets must render identically");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ts\":1.234"));
        assert!(a.contains("\"dur\":5.678"));
        assert!(a.contains("\"args\":{\"blocks\":4,\"util\":0.5}"));
        assert!(a.contains("\\\"hit\\\""), "names are JSON-escaped");
        assert!(a.contains("\"pid\":1") && a.contains("\"pid\":3"), "layer pids");
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::enabled_new();
        let t2 = t.clone();
        t2.span("serve", "job", 0, 1, 0, vec![]);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn summary_aggregates_spans_by_name() {
        let t = Tracer::enabled_new();
        for i in 0..3u64 {
            t.span("gpusim", "launch", i * 10, 1_000_000, 0, vec![]);
        }
        t.span("driver", "round", 0, 9_000_000, 0, vec![]);
        t.instant("driver", "not-a-span", 0, 0, vec![]);
        let top = t.top_spans(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, "round");
        assert_eq!(top[1], ("gpusim", "launch".into(), 3_000_000, 3));
        let table = t.summary(1);
        assert!(table.contains("round") && !table.contains("launch"));
    }
}
