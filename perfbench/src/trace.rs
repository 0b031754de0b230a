//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A span carries its name (the per-layer metric it feeds), start, end,
//! parent and the id of the job it belongs to. Spans stay in memory and are
//! written out once the run ends. With tracing off the same calls still
//! return their elapsed time, so traced and untraced runs execute the same
//! code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the recorded spans.
    pub id: usize,
    /// Per-layer metric name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder shared by the driver and the job wrappers it hands to the
/// job manager (everything runs on the driver thread).
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Inner>>);

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer(Rc::new(RefCell::new(Inner {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    /// Switch recording on or off (the traced run times one untraced job
    /// first, as the tracing-overhead baseline).
    pub fn set_on(&self, on: bool) {
        self.0.borrow_mut().on = on;
    }

    /// Run `f`, returning its result and elapsed host seconds; when
    /// recording, also record a span `name` under the innermost open span.
    pub fn time<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let idx = {
            let mut t = self.0.borrow_mut();
            if t.on {
                let id = t.spans.len();
                let start_ns = t.epoch.elapsed().as_nanos() as u64;
                let parent = t.open.last().copied();
                t.spans.push(Span {
                    id,
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    job,
                });
                t.open.push(id);
                Some(id)
            } else {
                None
            }
        };
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if let Some(id) = idx {
            let mut t = self.0.borrow_mut();
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            t.spans[id].end_ns = end_ns;
            t.open.pop();
        }
        (out, secs)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.0.borrow().spans.clone()
    }
}

/// Per-name totals: span count, summed duration and summed self time (a
/// span's duration minus the part its children cover), in nanoseconds.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(child_ns[s.id]);
    }
    out
}

/// Summed duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e9
}

/// Share of the spans named `root` covered by their direct children.
/// Children of one span run one after another on the driver thread, so
/// their durations add without overlap.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let roots: Vec<usize> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.id)
        .collect();
    let whole: u64 = roots.iter().map(|&r| spans[r].dur_ns()).sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
        .map(|s| s.dur_ns())
        .sum();
    if whole == 0 {
        0.0
    } else {
        covered as f64 / whole as f64
    }
}

/// The self-time breakdown as printable lines, largest self time first.
pub fn breakdown(spans: &[Span]) -> Vec<String> {
    let mut rows: Vec<_> = totals(spans).into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    let all_self: u64 = rows.iter().map(|r| r.1 .2).sum::<u64>().max(1);
    let mut out = vec![format!(
        "{:<28} {:>6} {:>11} {:>11} {:>7}",
        "span", "count", "total_s", "self_s", "self%"
    )];
    for (name, (count, total, own)) in rows {
        out.push(format!(
            "{name:<28} {count:>6} {:>11.6} {:>11.6} {:>6.2}%",
            total as f64 / 1e9,
            own as f64 / 1e9,
            100.0 * own as f64 / all_self as f64
        ));
    }
    out
}

/// The trace export: spans, the program's counters and the per-layer
/// metrics, as one JSON document.
pub fn to_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    counters: &BTreeMap<String, u64>,
    metrics: &[crate::Metric],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    );
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{}\n  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
            if i == 0 { "" } else { "," },
            sp.id,
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.job
        );
    }
    s.push_str("\n], \"counters\": {");
    for (i, (k, v)) in counters.iter().enumerate() {
        let _ = write!(s, "{}\n  \"{k}\": {v}", if i == 0 { "" } else { "," });
    }
    s.push_str("\n}, \"metrics\": ");
    s.push_str(&crate::report::metrics_json(metrics));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 0,
                name: "job",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                job: 0,
            },
            Span {
                id: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                job: 0,
            },
            Span {
                id: 2,
                name: "b",
                start_ns: 40,
                end_ns: 90,
                parent: Some(0),
                job: 0,
            },
            Span {
                id: 3,
                name: "c",
                start_ns: 50,
                end_ns: 60,
                parent: Some(2),
                job: 0,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["job"], (1, 100, 20));
        assert_eq!(t["b"], (1, 50, 40));
        assert!((coverage(&spans, "job") - 0.8).abs() < 1e-12);
    }

    #[test]
    fn untraced_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
