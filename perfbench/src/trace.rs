//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (a public function or a wire verb); nothing is traced inside the program.
//! They stay in memory until the run ends and are then written as JSON
//! lines, one span each.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sprint_jobd::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index into the recorder).
    pub id: usize,
    /// Layer-qualified name, e.g. `manager.accept`.
    pub name: String,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin.
    pub end: f64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (`None` for layer probes).
    pub job: Option<u64>,
}

/// Thread-safe span store. A disabled recorder records nothing.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// New recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record a finished interval; returns its id.
    pub fn record(
        &self,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let id = spans.len();
        spans.push(Span {
            id,
            name: name.to_string(),
            start,
            end,
            parent,
            job,
        });
        Some(id)
    }

    /// Time `f` as a span and return its value and duration.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let value = f();
        let end = self.now();
        self.record(name, start, end, None, None);
        (value, end - start)
    }

    /// Snapshot of every span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("name", Json::str(s.name.clone())),
                ("start", Json::Num(s.start)),
                ("end", Json::Num(s.end)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("job", s.job.map_or(Json::Null, |j| Json::Num(j as f64))),
            ]);
            writeln!(w, "{}", line.to_json())?;
        }
        w.flush()
    }
}

/// Per-layer totals: span count, total time and self time (duration minus
/// the part covered by direct children), keyed by the layer prefix of the
/// span name (`manager.accept` → `manager`).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = child_time.get_mut(p) {
                let parent = &spans[p];
                let lo = s.start.max(parent.start);
                let hi = s.end.min(parent.end);
                *slot += (hi - lo).max(0.0);
            }
        }
    }
    let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_time) {
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
        let dur = (s.end - s.start).max(0.0);
        let e = out.entry(layer).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += (dur - child).max(0.0);
    }
    out
}
