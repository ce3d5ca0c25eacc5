//! In-memory span recorder for the traced run.
//!
//! Each load thread owns a [`Tracer`]; spans carry a name, start and end
//! (nanoseconds since the run's epoch), the index of the span that caused
//! them, and the request id they belong to. Nothing is written until the
//! run ends, when [`write_tsv`] dumps every span and [`self_times`] folds
//! them into per-name totals.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its result and the span's duration
    /// in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, req);
        (out, end - start)
    }

    /// Appends another tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per span name: `(count, total duration ns, self time ns)`. Self time is
/// a span's duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut covered: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort_unstable();
        let (mut union, mut cur) = (0u64, None::<(u64, u64)>);
        for (a, b) in covered {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    union += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            union += cb - ca;
        }
        let dur = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - union.min(dur);
    }
    out
}

/// Writes every span as one tab-separated line:
/// `index name start_ns end_ns parent req`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.req
        )?;
    }
    w.flush()
}
