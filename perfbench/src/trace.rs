//! The traced run's span recorder.
//!
//! Spans live in memory on the thread that runs the traced iteration and
//! are written out once, when the benchmark ends. Each span carries its
//! name (the per-layer metric it feeds), its parent and its start and end
//! offsets. A span's *self time* is its duration minus the durations of
//! its direct children, so the self times of one iteration's spans add up
//! to the iteration's traced wall time.
//!
//! With no recorder installed, [`span`] just runs the call, so the
//! set-up rounds can run the traced composition's set-up untraced.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
struct Span {
    /// Metric the span's self time feeds.
    name: String,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start offset from the recorder's epoch, in nanoseconds.
    start_ns: u64,
    /// End offset from the recorder's epoch, in nanoseconds.
    end_ns: u64,
}

struct Open {
    index: usize,
    child_ns: u64,
}

/// Spans, per-name self times and counters of every traced iteration.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    /// Summed self time per span name, in nanoseconds.
    self_ns: BTreeMap<String, u64>,
    /// Closed spans per name.
    calls: BTreeMap<String, u64>,
    /// Exact counts recorded with [`count`].
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            self_ns: BTreeMap::new(),
            calls: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().map(|o| o.index),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(Open {
            index: self.spans.len() - 1,
            child_ns: 0,
        });
    }

    fn close(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("close matches an open span");
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        *self.self_ns.entry(span.name.clone()).or_default() += dur.saturating_sub(open.child_ns);
        *self.calls.entry(span.name.clone()).or_default() += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Closed spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// The value of counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Every span as one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` on this thread: spans record until [`uninstall`].
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Removes this thread's recorder and hands it back.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Whether a recorder is installed on this thread.
fn is_on() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Runs `f` inside a span named `name` (just runs it when tracing is off).
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !is_on() {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().as_mut().expect("tracing on").open(name));
    let r = f();
    TRACER.with(|t| t.borrow_mut().as_mut().expect("tracing on").close());
    r
}

/// Adds `n` to counter `name` (no-op when tracing is off).
pub fn count(name: &'static str, n: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            *tr.counters.entry(name).or_default() += n;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        install(Tracer::new());
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        count("things", 3);
        let t = uninstall().expect("installed");
        assert!(t.self_s("inner") >= 0.005);
        assert!(t.self_s("outer") < t.self_s("inner"));
        assert_eq!(t.calls("outer"), 1);
        assert_eq!(t.counter("things"), 3);
        assert_eq!(t.spans_jsonl().lines().count(), 2);
        assert!(!is_on());
    }
}
