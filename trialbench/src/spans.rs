//! Wall-clock spans recorded by the benchmark around its calls into
//! each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! recorder was created), the index of its parent span, and the id of
//! the trial it belongs to; every span of one trial shares that id. The
//! allocations the calling thread made inside the span ride along, so a
//! layer's allocation share comes from the same boundary as its time.
//! Spans stay in memory until [`SpanLog::write_jsonl`] writes them out
//! at the end of the run. A disabled log records nothing and never
//! reads the clock.

use h2priv_util::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or step) name.
    pub name: &'static str,
    /// The trial (or campaign round) the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created.
    pub end_ns: u64,
    /// Allocations the thread made inside the span.
    pub allocs: u64,
}

/// An open span: the slot it will fill, and the counters at its start.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    allocs0: u64,
}

impl Open {
    /// The log index of this span, to pass as a child's parent.
    pub fn index(&self) -> Option<usize> {
        self.index
    }
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Opens span `name` of trial `id` under `parent`.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Open {
        if !self.enabled {
            return Open {
                index: None,
                allocs0: 0,
            };
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
        });
        Open {
            index: Some(self.spans.len() - 1),
            allocs0: alloc::thread_allocs(),
        }
    }

    /// Closes an open span.
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.index {
            let allocs = alloc::thread_allocs() - open.allocs0;
            let span = &mut self.spans[i];
            span.end_ns = self.origin.elapsed().as_nanos() as u64;
            span.allocs = allocs;
        }
    }

    /// Runs `f` inside span `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, id, parent);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by child spans), ns.
    pub self_ns: u64,
    /// Summed allocations inside the spans.
    pub allocs: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
        t.allocs += s.allocs;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("trial", None, 0, 100),
            span("web", Some(0), 0, 10),
            span("netsim", Some(0), 10, 70),
            span("analysis", Some(0), 75, 95),
            span("queue", Some(2), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 50, 20, 10]);
        let t = layer_times(&spans);
        assert_eq!(t["trial"].self_ns, 10);
        assert_eq!(t["netsim"].total_ns, 60);
        assert_eq!(t["netsim"].self_ns, 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("round", None, 100, 200),
            span("a", Some(0), 110, 150),
            span("b", Some(0), 140, 160),
            // Overhangs the parent's end: only 190..200 is covered.
            span("c", Some(0), 190, 230),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let open = log.begin("trial", 7, None);
        assert_eq!(open.index(), None);
        log.end(open);
        assert_eq!(log.span("web", 7, None, || 3), 3);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn enabled_log_links_parents_and_shares_trial_ids() {
        let mut log = SpanLog::new(true);
        let root = log.begin("trial", 42, None);
        log.span("web", 42, root.index(), || ());
        log.end(root);
        let s = log.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|x| x.id == 42));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);
    }
}
