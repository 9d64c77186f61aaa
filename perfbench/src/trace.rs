//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions. Nothing here reaches inside the program:
//! a span is a start and end time taken on either side of a call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    /// The span that caused this one (0 = none), set by
    /// [`Tracer::link_by_key`].
    parent: u64,
    /// Request id shared by the spans of one request (0 = none).
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Links spans recorded on different threads for one request (the
    /// served query's hash); not written out.
    key: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
}

impl SpanStats {
    pub fn mean_ns(&self) -> f64 {
        crate::report::ratio(self.total_ns as f64, self.count as f64)
    }

    pub fn mean_self_ns(&self) -> f64 {
        crate::report::ratio(self.self_ns as f64, self.count as f64)
    }
}

pub struct Tracer {
    on: bool,
    /// Spans are recorded only while active: a traced run measures an
    /// untraced half first, for the tracing overhead.
    active: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            active: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts or stops recording (a no-op unless this is a traced run).
    pub fn set_active(&self, active: bool) {
        self.active.store(self.on && active, Ordering::Relaxed);
    }

    fn recording(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh span or request id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(&self, name: &'static str, start_ns: u64) {
        self.record_keyed(name, start_ns, 0, 0);
    }

    /// Records a span of request `req`, linkable across threads by `key`.
    pub fn record_keyed(&self, name: &'static str, start_ns: u64, req: u64, key: u64) {
        if !self.recording() {
            return;
        }
        let end_ns = self.now();
        let id = self.next_id();
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(Span {
                id,
                parent: 0,
                req,
                name,
                start_ns,
                end_ns,
                key,
            });
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer lock poisoned").len()
    }

    /// Gives each `child` span without a parent the `parent`-named span
    /// with the same key whose interval contains it — for spans recorded
    /// on a server thread on behalf of a client-side request.
    pub fn link_by_key(&self, child: &str, parent: &str) {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        let mut parents: BTreeMap<u64, Vec<(u64, u64, u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == parent) {
            parents
                .entry(s.key)
                .or_default()
                .push((s.start_ns, s.end_ns, s.id, s.req));
        }
        for s in spans
            .iter_mut()
            .filter(|s| s.name == child && s.parent == 0)
        {
            if let Some(&(_, _, id, req)) = parents.get(&s.key).and_then(|list| {
                list.iter()
                    .find(|(start, end, _, _)| *start <= s.start_ns && s.end_ns <= *end)
            }) {
                s.parent = id;
                s.req = req;
            }
        }
    }

    /// Per-name totals, with self time = duration minus the child spans.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in spans.iter() {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
