//! Host-time spans recorded around calls into the program's layers.
//!
//! The recorder lives entirely in the harness: a span is opened before a
//! call into a layer's public function and closed after it returns, so
//! the program itself carries no instrumentation. Spans are kept in
//! memory and written once, at exit, as Chrome `trace_event` JSON.

use crate::json::Json;
use std::time::Instant;

/// One closed span: `name` is `layer.call`, times are nanoseconds since
/// the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.analyze`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Which sample app the span belongs to (all spans of one app share it).
    pub app: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. A disabled recorder still runs the wrapped
/// calls but records nothing — the untraced side of the overhead
/// measurement.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    app: u32,
}

impl Recorder {
    /// A recorder that keeps spans.
    pub fn enabled() -> Recorder {
        Recorder::new(true)
    }

    /// A recorder that only forwards calls.
    pub fn disabled() -> Recorder {
        Recorder::new(false)
    }

    fn new(enabled: bool) -> Recorder {
        Recorder { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new(), app: 0 }
    }

    /// Sets the app identifier stamped on spans opened from now on.
    pub fn set_app(&mut self, app: u32) {
        self.app = app;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            app: self.app,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every closed span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times (ms) of every span named `name`, in start order.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Renders the spans as a Chrome `trace_event` document: one complete
    /// (`"ph":"X"`) event per span, the layer as category, one track per
    /// sample app, self time in `args`.
    pub fn to_chrome_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let events = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(span, self_ns)| {
                let layer = span.name.split('.').next().unwrap_or(span.name);
                let mut args = vec![("self_us", Json::Num(self_ns as f64 / 1e3))];
                if let Some(parent) = span.parent {
                    args.push(("parent", Json::Str(self.spans[parent].name.to_owned())));
                }
                Json::object([
                    ("name", Json::Str(span.name.to_owned())),
                    ("cat", Json::Str(layer.to_owned())),
                    ("ph", Json::Str("X".to_owned())),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(span.app))),
                    ("args", Json::object(args)),
                ])
            })
            .collect();
        Json::object([
            ("displayTimeUnit", Json::Str("ms".to_owned())),
            ("traceEvents", Json::Arr(events)),
        ])
        .render()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (the
/// recorder is single-threaded and strictly nested), so the covered part
/// is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, app: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("bench.app", 0, 100, None),
            span("icfg.prepare", 10, 30, Some(0)),
            span("core.analyze", 30, 90, Some(0)),
            span("gpusim.launch", 40, 50, Some(2)),
            span("gpusim.launch", 60, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 10, 20]);
    }

    #[test]
    fn recorder_nests_and_stamps_apps() {
        let mut rec = Recorder::enabled();
        rec.set_app(7);
        let out = rec.span("bench.app", |rec| {
            rec.span("icfg.prepare", |_| ());
            rec.span("core.analyze", |rec| rec.span("vetting.taint", |_| 41) + 1)
        });
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.app == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(rec.self_times_ms("icfg.prepare").len(), 1);
        let doc = Json::parse(&rec.to_chrome_json()).expect("trace is valid JSON");
        assert_eq!(doc.get("traceEvents").and_then(Json::as_array).map(<[Json]>::len), Some(4));
    }

    #[test]
    fn disabled_recorder_forwards_without_recording() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("core.analyze", |_| 5), 5);
        assert!(rec.spans().is_empty());
    }
}
