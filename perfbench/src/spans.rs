//! In-memory span and counter recorder for the traced replay.
//!
//! A span is one call into a layer: name, start, end, the span that
//! caused it and the run (set-up or pass) it belongs to. Parents are
//! passed explicitly through [`Ctx`], so a span opened on a worker
//! thread still names the span that forked the work. Spans stay in
//! memory until the benchmark ends.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// The span that caused this one; `None` for a run's root.
    pub parent: Option<u64>,
    /// Run id (one set-up or one pass over the workload).
    pub run: u32,
    /// Layer-qualified name, `<crate>.<function>`.
    pub name: &'static str,
    /// Recording thread, numbered in order of first use.
    pub thread: u64,
    /// Start, in seconds since the recorder's epoch.
    pub start: f64,
    /// End, in seconds since the recorder's epoch.
    pub end: f64,
}

/// Collects spans and counters from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<(u32, &'static str), f64>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Recorder {
    /// A context that opens the root span of run `run`.
    pub fn run(&self, run: u32) -> Ctx<'_> {
        Ctx {
            rec: self,
            parent: None,
            run,
        }
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking recorder")
            .clone()
    }

    /// Counter `name` of run `run` (0 when never bumped).
    pub fn counter(&self, run: u32, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter lock poisoned by a panicking recorder")
            .iter()
            .find(|((r, n), _)| *r == run && *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    NUMBER.with(|n| *n)
}

/// Where new spans attach: a recorder, a run and the enclosing span.
/// It is `Copy` and `Sync`, so parallel workers carry it across threads.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    rec: &'a Recorder,
    parent: Option<u64>,
    run: u32,
}

impl Ctx<'_> {
    /// Runs `f` inside a span named `name`; spans `f` opens through the
    /// context it receives are children of this one.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'_>) -> R) -> R {
        let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.rec.now();
        let result = f(Ctx {
            parent: Some(id),
            ..*self
        });
        let end = self.rec.now();
        let span = Span {
            id,
            parent: self.parent,
            run: self.run,
            name,
            thread: thread_number(),
            start,
            end,
        };
        self.rec
            .spans
            .lock()
            .expect("span lock poisoned by a panicking recorder")
            .push(span);
        result
    }

    /// Adds `n` to counter `name` of this run.
    pub fn count(&self, name: &'static str, n: f64) {
        *self
            .rec
            .counters
            .lock()
            .expect("counter lock poisoned by a panicking recorder")
            .entry((self.run, name))
            .or_insert(0.0) += n;
    }
}

/// Self time per `(run, name)`: each span's duration minus the part of
/// its interval that its children cover. Children on several threads
/// may overlap; their union counts once, so self time is never negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<(u32, &'static str), f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    let mut out = BTreeMap::new();
    for span in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&span.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        *out.entry((span.run, span.name)).or_insert(0.0) +=
            (span.end - span.start - covered).max(0.0);
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_s\":{},\"end_s\":{}}}\n",
                s.run, s.id, parent, s.name, s.thread, s.start, s.end
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "a", 1.0, 4.0),
            span(2, Some(1), "b", 2.0, 3.0),
            span(3, Some(0), "a", 5.0, 6.0),
        ];
        let t = self_times(&spans);
        assert!((t[&(0, "root")] - 6.0).abs() < 1e-12);
        assert!(
            (t[&(0, "a")] - 3.0).abs() < 1e-12,
            "3 + 1 minus the nested 1"
        );
        assert!((t[&(0, "b")] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_on_two_threads_count_as_their_union() {
        let spans = [
            span(0, None, "root", 0.0, 10.0),
            span(1, Some(0), "w", 1.0, 6.0),
            span(2, Some(0), "w", 2.0, 8.0),
        ];
        let t = self_times(&spans);
        assert!(
            (t[&(0, "root")] - 3.0).abs() < 1e-12,
            "union [1, 8] leaves 3 s"
        );
        assert!(
            (t[&(0, "w")] - 11.0).abs() < 1e-12,
            "busy time sums over threads"
        );
    }

    #[test]
    fn spans_opened_on_two_threads_keep_their_parent() {
        let rec = Recorder::default();
        let barrier = Barrier::new(2);
        rec.run(3).span("root", |ctx| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        ctx.span("work", |inner| {
                            barrier.wait();
                            inner.count("items", 1.0);
                        })
                    });
                }
            });
        });
        let spans = rec.spans();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let work: Vec<&Span> = spans.iter().filter(|s| s.name == "work").collect();
        assert_eq!(work.len(), 2);
        assert!(work.iter().all(|s| s.parent == Some(root.id) && s.run == 3));
        assert_ne!(work[0].thread, work[1].thread);
        // Both workers waited on the barrier, so their spans overlap.
        assert!(work[0].start < work[1].end && work[1].start < work[0].end);
        let t = self_times(&spans);
        assert!(t[&(3, "root")] <= root.end - root.start);
        assert!(t[&(3, "root")] >= 0.0);
        assert_eq!(rec.counter(3, "items"), 2.0);
        assert_eq!(rec.counter(0, "items"), 0.0);
    }
}
