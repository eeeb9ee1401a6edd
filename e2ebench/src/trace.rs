//! The in-memory span recorder of the traced run.
//!
//! A [`Tracer`] belongs to one thread. Each span records its name, start,
//! end, parent and request id; the recorder also keeps a per-name sum of
//! self time, the span's duration minus the part its child spans cover,
//! so layer shares stay exact when the stored span log is capped. With
//! tracing off, [`Tracer::span`] is one branch around the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; later spans still count in the totals.
const MAX_STORED: usize = 200_000;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    start: Instant,
    children_ns: u64,
    stored: u32,
}

/// Summed self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Self time in nanoseconds.
    pub self_ns: u64,
    /// Closed spans.
    pub calls: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: &'static str,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// A recorder for `thread`; `epoch` is the run's common time origin.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant, thread: &'static str) -> Self {
        Tracer {
            enabled,
            epoch,
            thread,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name` (by convention
    /// `crate.function`) for request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.open(name, req);
        let out = f();
        self.close();
        out
    }

    /// Opens a span that [`Tracer::close`] ends; for spans whose body
    /// returns early.
    pub fn open(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start = Instant::now();
        let stored = if self.spans.len() < MAX_STORED {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.stored);
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: 0,
                parent,
                req,
            });
            u32::try_from(self.spans.len() - 1).expect("stored spans are capped")
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start,
            children_ns: 0,
            stored,
        });
    }

    /// Closes the innermost span [`Tracer::open`] opened.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("close matches an open span");
        let dur = ns_between(open.start, end);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let total = self.totals.entry(open.name).or_default();
        total.self_ns += dur.saturating_sub(open.children_ns);
        total.calls += 1;
        if open.stored != NO_PARENT {
            let end_ns = self.ns(end);
            self.spans[open.stored as usize].end_ns = end_ns;
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        ns_between(self.epoch, t)
    }

    /// Summed self time, in milliseconds, of every span whose name starts
    /// with `prefix` (a crate name gives the crate's self time).
    #[must_use]
    pub fn self_ms(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.self_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Calls of spans whose name starts with `prefix`.
    #[must_use]
    pub fn calls(&self, prefix: &str) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.calls)
            .sum()
    }

    /// Appends the stored spans as tab-separated lines: thread, index,
    /// parent index (`-` for none), request id, name, start and end in
    /// nanoseconds since the epoch.
    pub fn write_spans(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                self.thread, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "# {}: {} spans past the cap counted but not stored",
                self.thread, self.dropped
            );
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), "test");
        t.open("bench.check", 7);
        t.span("pak-dsl.compile_str", 7, || t_sleep(3));
        t.close();
        let child = t.self_ms("pak-dsl");
        let parent = t.self_ms("bench");
        assert!(child >= 3.0, "child self time {child}");
        assert!(
            parent < child,
            "parent self {parent} should exclude the child"
        );
        assert_eq!(t.calls("pak-dsl"), 1);
        let mut log = String::new();
        t.write_spans(&mut log);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("test\t1\t0\t7\tpak-dsl.compile_str\t"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), "test");
        assert_eq!(t.span("pak-dsl.compile_str", 0, || 5), 5);
        assert_eq!(t.calls(""), 0);
    }

    fn t_sleep(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}
