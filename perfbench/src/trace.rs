//! In-memory spans recorded by the benchmark around each layer call.
//!
//! A span has a name (`layer.call`), a start and end instant, the span that
//! caused it and the id of the request it belongs to.  The parent is the
//! innermost span open on the calling thread, so a page read made inside a
//! sample draw becomes the draw's child.  Spans stay in memory until the
//! run ends and are written out once.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its children cover; summing self time by layer splits a
//! request's wall time without counting any nanosecond twice.

use samplecf_server::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Indexes of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Start or stop recording (spans already open still close).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` belonging to `request`.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::SeqCst) {
            return f();
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.now_ns();
        self.spans.lock().expect("span list lock poisoned")[id].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to its own).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time in nanoseconds summed by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.name).or_insert(0) += ns;
    }
    out
}

/// The spans as a JSON array, for the trace file written at exit.
pub fn spans_json(spans: &[Span]) -> Json {
    let self_ns = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(id, (s, own))| {
                Json::obj()
                    .field("id", Json::uint(id as u64))
                    .field("name", Json::str(s.name))
                    .field("request", Json::uint(s.request))
                    .field(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                    )
                    .field("start_ns", Json::uint(s.start_ns))
                    .field("end_ns", Json::uint(s.end_ns))
                    .field("self_ns", Json::uint(own))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("sampling.draw", 0, 100, None),
            span("storage.read", 10, 30, Some(0)),
            span("storage.read", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children on other threads may overlap each other or outlive the
        // parent; only the covered part of the parent's interval counts.
        let spans = vec![
            span("index.build", 100, 200, None),
            span("storage.read", 90, 130, Some(0)),
            span("storage.read", 120, 150, Some(0)),
            span("storage.read", 190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = vec![
            span("cache.acquire", 0, 100, None),
            span("sampling.draw", 0, 80, Some(0)),
            span("storage.read", 0, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn nested_calls_record_parents_and_disabled_tracers_record_nothing() {
        let tracer = Tracer::new(true);
        let v = tracer.span("outer", 7, || tracer.span("inner", 7, || 5));
        assert_eq!(v, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[1].request, 7);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", 1, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
