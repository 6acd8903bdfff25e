//! In-memory spans for the traced run.
//!
//! Each thread records into its own [`SpanLog`]; logs are merged when
//! the thread's work ends and summarised only when the run ends, so
//! recording costs two clock reads and a `Vec` push.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval: which layer call it covers, when, and the
/// span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

impl Totals {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    /// `false` for a log that records nothing and reads no clock: the
    /// same decomposition run untraced, to measure tracing overhead.
    enabled: bool,
}

impl SpanLog {
    /// A log whose timestamps count from `origin` (share one origin
    /// across the logs of a run so they can be merged).
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A log that records nothing.
    pub fn off() -> Self {
        SpanLog {
            enabled: false,
            ..SpanLog::new(Instant::now())
        }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span that started at `start` and ends now.
    pub fn since(&mut self, name: &'static str, parent: Option<usize>, start: Instant) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(start);
        let end_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another log's spans (same origin), keeping its parent
    /// links.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Per-name count, total and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered.min(total);
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        log.spans = vec![
            Span {
                name: "parent",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            // Overlaps the first child: the union covers 10..50.
            Span {
                name: "child",
                start_ns: 30,
                end_ns: 50,
                parent: Some(0),
            },
        ];
        let t = log.totals();
        assert_eq!(t["parent"].total_ns, 100);
        assert_eq!(t["parent"].self_ns, 60);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].self_ns, 50);
    }
}
