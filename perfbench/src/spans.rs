//! The benchmark's own spans around calls into each layer's public
//! functions. Spans stay in memory, one recorder per thread, and are
//! written out once as a Chrome trace when the run ends. Nothing here
//! reaches into the program: a span covers exactly one call the
//! benchmark makes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per recorder; later ones are counted, not stored, so a
/// long traced run has bounded memory.
pub const MAX_SPANS: usize = 500_000;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: u32,
    /// Request id shared by the spans of one RMI (0 when none).
    pub req: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// One thread's recorder. When off, `enter`/`exit` cost a branch.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    thread: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

/// Handle returned by [`Spans::enter`].
#[must_use]
pub struct Open(u32);

impl Spans {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Spans {
        Spans { on, epoch, thread, open: Vec::new(), spans: Vec::new(), dropped: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: 0,
            thread: self.thread,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open, req: u64) {
        if open.0 == NO_PARENT {
            return;
        }
        let end = self.now_ns();
        let s = &mut self.spans[open.0 as usize];
        s.end_ns = end;
        s.req = req;
        self.open.retain(|&i| i != open.0);
    }

    /// Time `f` as one leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open, 0);
        out
    }

    /// Fold another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        let room = MAX_SPANS.saturating_sub(self.spans.len());
        let kept = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - kept) as u64;
        self.spans.extend(other.spans.into_iter().take(kept).map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_us).collect()
    }

    /// Mean duration (µs) of spans named `name`, or 0 when none.
    pub fn mean_us(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations_us(name)).unwrap_or(0.0)
    }

    /// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{\"dropped\": {}, \"traceEvents\": [", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent: i64 = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            write!(
                w,
                "{sep}\n{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"req\": {}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_us(),
                s.req
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}
