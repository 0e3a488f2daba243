//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the recorder was created), the span that was open when it began
//! (its parent), and the request it belongs to. Spans stay in memory
//! until the run ends; [`Recorder::write_jsonl`] writes them out and
//! [`Recorder::self_times`] folds them into per-layer self time (a span's
//! duration minus the part its direct children cover). The traced runs
//! are single-threaded, so children never overlap one another.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
pub struct Span {
    /// Layer name (`load`, `index`, `sample.st`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request (query line, selection pair, wire request) the span serves.
    pub request: u64,
}

/// Records spans when enabled; a disabled recorder runs the closures and
/// keeps nothing, which is the untraced baseline for the overhead ratio.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every [`Recorder::span`] a
    /// plain call.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `request`.
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Number of recorded spans.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Total time of every span named `name`, in seconds (children
    /// included).
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let r = Recorder::new(true);
        r.span("outer", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            r.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = r.self_times();
        assert!(st["inner"] >= 0.019);
        assert!(st["outer"] >= 0.004 && st["outer"] < 0.019);
        assert!(r.total("outer") >= 0.024);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.span("x", 0, || 7), 7);
        assert_eq!(r.len(), 0);
    }
}
