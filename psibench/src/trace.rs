//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each benchmark thread owns one [`Tracer`]. A span has a name, a start,
//! an end and the span that caused it (the innermost open span on the same
//! thread). Spans stay in memory and are written out when the run ends. A
//! span's self time is its duration minus the time its children cover;
//! children of one thread never overlap, so the self times of a thread add
//! up to its root span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. While disabled it only times calls.
pub struct Tracer {
    thread: &'static str,
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// `epoch` is the common zero of every thread's timestamps.
    pub fn new(thread: &'static str, on: bool, epoch: Instant) -> Self {
        Tracer {
            thread,
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start or stop recording (closed spans are kept).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span; returns its result and duration (timed
    /// whether or not tracing is on).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        self.open(name);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        self.close();
        (r, dt)
    }

    pub fn into_spans(self) -> (&'static str, Vec<Span>) {
        assert!(
            self.open.is_empty(),
            "every span closed before the trace ends"
        );
        (self.thread, self.spans)
    }
}

/// Every thread's spans from one run.
#[derive(Default)]
pub struct Trace {
    pub threads: Vec<(&'static str, Vec<Span>)>,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    pub fn add(&mut self, tracer: Tracer) {
        self.threads.push(tracer.into_spans());
    }

    /// Self time of every span, per thread.
    pub fn self_times(&self) -> Vec<Vec<u64>> {
        self.threads
            .iter()
            .map(|(_, spans)| {
                let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
                for s in spans {
                    if s.parent != NO_PARENT {
                        let p = s.parent as usize;
                        own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
                    }
                }
                own
            })
            .collect()
    }

    /// Totals per span name over all threads.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for ((_, spans), own) in self.threads.iter().zip(self.self_times()) {
            for (s, own) in spans.iter().zip(own) {
                let t = out.entry(s.name).or_default();
                t.calls += 1;
                t.total_ns += s.end_ns - s.start_ns;
                t.self_ns += own;
            }
        }
        out
    }

    /// Per thread, the summed self time of its spans: its root spans'
    /// total duration when spans nest.
    pub fn self_per_thread(&self) -> Vec<u64> {
        self.self_times()
            .iter()
            .map(|own| own.iter().sum())
            .collect()
    }

    /// Write every span as CSV: `thread,id,parent,name,start_ns,end_ns`
    /// (`parent` is -1 for a root).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "thread,id,parent,name,start_ns,end_ns")?;
        for (thread, spans) in &self.threads {
            for (id, s) in spans.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                };
                writeln!(
                    w,
                    "{thread},{id},{parent},{},{},{}",
                    s.name, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }

    /// Span totals as a JSON object for the report: name → [calls, total s,
    /// self s].
    pub fn summary_json(&self) -> String {
        let fields: Vec<(String, String)> = self
            .by_name()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    format!(
                        "[{}, {}, {}]",
                        t.calls,
                        crate::report::num(t.total_ns as f64 / 1e9),
                        crate::report::num(t.self_ns as f64 / 1e9)
                    ),
                )
            })
            .collect();
        crate::report::object(&fields)
    }
}
