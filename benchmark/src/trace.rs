//! In-memory spans for the traced replay.
//!
//! A span is `(name, start, end, parent, request)`. Spans are kept in
//! memory while the replay runs and written as JSONL at the end, so
//! recording one costs two clock reads and a vector push. A span's
//! *self time* is its duration minus the time its direct children
//! cover (children of one span never overlap: the replay is
//! single-threaded).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
}

pub struct Tracer {
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            t0: Instant::now(),
            inner: RefCell::default(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len() as u32;
            let parent = inner.stack.last().copied();
            let start_ns = self.now_ns();
            inner.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            inner.stack.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.stack.pop();
        inner.spans[idx as usize].end_ns = end;
        out
    }

    /// Per span name: `(count, mean duration µs, mean self time µs)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let inner = self.inner.borrow();
        let spans = &inner.spans;
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &cov) in spans.iter().zip(&covered) {
            let dur = s.end_ns - s.start_ns;
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(cov);
        }
        acc.into_iter()
            .map(|(k, (n, d, sf))| {
                (
                    k,
                    (n, d as f64 / n as f64 / 1e3, sf as f64 / n as f64 / 1e3),
                )
            })
            .collect()
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times (µs) of every span named `name`, in recording order.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let inner = self.inner.borrow();
        let spans = &inner.spans;
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    /// Appends every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut dyn Write, source: &str) -> std::io::Result<()> {
        for (i, s) in self.inner.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"source\": \"{source}\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        Ok(())
    }
}

/// Served-phase spans written per trace file: a pipelined phase records
/// hundreds of thousands, and the first ones show the same shape.
const MAX_CLIENT_SPANS: usize = 100_000;

/// Writes the replay's spans and the served phase's client spans (the
/// first [`MAX_CLIENT_SPANS`]) to `path`, one JSON object per line.
pub fn write_file(path: &Path, tracer: &Tracer, client: &[(u64, u64, u64)]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_jsonl(&mut w, "replay")?;
    for (i, &(req, start, end)) in client.iter().take(MAX_CLIENT_SPANS).enumerate() {
        writeln!(
            w,
            "{{\"source\": \"served\", \"id\": {i}, \"name\": \"client.request\", \"start_ns\": {start}, \"end_ns\": {end}, \"parent\": null, \"req\": {req}}}"
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::default();
        t.span("outer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let s = t.summary();
        let (n, dur, selft) = s["outer"];
        assert_eq!(n, 1);
        assert!(dur >= 22_000.0, "outer covers both sleeps: {dur}");
        assert!(
            selft < dur - 19_000.0,
            "self time drops the child: {selft} of {dur}"
        );
        assert!(selft >= 2_000.0);
        assert_eq!(t.self_us("inner").len(), 1);
    }
}
