//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps each call into a layer of the transpiler (or the
//! service) in a span: layer name, start, end, the job it belongs to and
//! the span that caused it. Spans stay in memory while the run measures
//! and are written out as TSV when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The job the span belongs to.
    pub job: u64,
    /// Layer name.
    pub name: &'static str,
    /// Offset from the tracer's start.
    pub start: Duration,
    /// Offset from the tracer's start.
    pub end: Duration,
}

/// Collects spans. Single-threaded: the traced replay runs on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    job: u64,
    next_id: u64,
}

impl Tracer {
    /// An empty tracer whose time origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            next_id: 0,
        }
    }

    /// Attribute the following spans to `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.open.pop();
        self.spans.push(Span {
            id,
            parent,
            job: self.job,
            name,
            start,
            end,
        });
        out
    }

    /// Open a span that [`Tracer::close`] ends; spans opened meanwhile
    /// nest under it.
    pub fn open(&mut self) -> (u64, Duration) {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(id);
        (id, self.origin.elapsed())
    }

    /// Close the span [`Tracer::open`] returned.
    pub fn close(&mut self, name: &'static str, opened: (u64, Duration)) {
        let (id, start) = opened;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            job: self.job,
            name,
            start,
            end: self.origin.elapsed(),
        });
    }

    /// Total duration and count of spans per layer name.
    pub fn totals(&self) -> BTreeMap<&'static str, (Duration, u64)> {
        let mut out: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.end - s.start;
            e.1 += 1;
        }
        out
    }

    /// Self time per layer name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child: BTreeMap<u64, Duration> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child.entry(p).or_default() += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in &self.spans {
            let covered = child.get(&s.id).copied().unwrap_or_default();
            *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Write every span as a TSV row: id, parent, job, name, start and end
    /// in microseconds from the tracer's origin.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tjob\tname\tstart_us\tend_us")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.id,
                parent,
                s.job,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new();
        t.set_job(7);
        let root = t.open();
        let x = t.span("leaf", || {
            std::thread::sleep(Duration::from_millis(2));
            41 + 1
        });
        t.close("root", root);
        assert_eq!(x, 42);
        let leaf = t.spans.iter().find(|s| s.name == "leaf").expect("leaf");
        let root = t.spans.iter().find(|s| s.name == "root").expect("root");
        assert_eq!(leaf.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert_eq!(leaf.job, 7);
        let totals = t.totals();
        let selfs = t.self_times();
        assert_eq!(totals["leaf"].1, 1);
        assert!(totals["leaf"].0 >= Duration::from_millis(2));
        assert_eq!(selfs["root"], totals["root"].0 - totals["leaf"].0);
    }
}
