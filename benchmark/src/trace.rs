//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Work that happens inside one public call in pieces too numerous to keep
//! as spans (SURF calls the evaluator tens of thousands of times per tune)
//! is summed by a wrapper and attached to the enclosing span as `inner`
//! time, which the span's self time excludes like a child's.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use barracuda::json::Json;

pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time inside this span spent in a named sub-layer (disjoint pieces).
    pub inner: Vec<(&'static str, u64)>,
    /// Counts and nested breakdowns recorded at this boundary.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn inner_ns(&self, name: &str) -> u64 {
        self.inner
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Trace {
    /// A recorder; when `on` is false every call is a no-op, so untraced
    /// runs pass through the same code without recording anything.
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Appends `other`'s spans (recorded on another thread), re-basing their
    /// times onto this trace's origin.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            inner: Vec::new(),
            counters: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn current(&mut self) -> Option<&mut Span> {
        let idx = *self.open.last()?;
        Some(&mut self.spans[idx])
    }

    /// Attributes `ns` of the innermost open span to sub-layer `name`.
    pub fn inner(&mut self, name: &'static str, ns: u64) {
        if let Some(s) = self.current() {
            s.inner.push((name, ns));
        }
    }

    /// Records a count on the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(s) = self.current() {
            s.counters.push((name, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, the summed duration of its direct children.
    pub fn child_ns(&self) -> Vec<u64> {
        let mut sums = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                sums[p] += s.dur_ns();
            }
        }
        sums
    }

    /// Duration minus the children (`child_ns`) and the inner sub-layer
    /// time.
    pub fn self_ns(&self, idx: usize, child_ns: &[u64]) -> u64 {
        let s = &self.spans[idx];
        let inner: u64 = s.inner.iter().map(|(_, v)| v).sum();
        s.dur_ns().saturating_sub(child_ns[idx] + inner)
    }

    /// Every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let child_ns = self.child_ns();
        for (idx, s) in self.spans.iter().enumerate() {
            let nums = |pairs: Vec<(&str, f64)>| {
                Json::Obj(
                    pairs
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(v)))
                        .collect(),
                )
            };
            let line = Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("request".into(), Json::Num(s.request as f64)),
                ("span".into(), Json::Num(idx as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                (
                    "self_ns".into(),
                    Json::Num(self.self_ns(idx, &child_ns) as f64),
                ),
                (
                    "inner_ns".into(),
                    nums(s.inner.iter().map(|&(k, v)| (k, v as f64)).collect()),
                ),
                ("counters".into(), nums(s.counters.clone())),
            ]);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_inner_time() {
        let mut t = Trace::new(true);
        t.set_request(3);
        t.span("outer", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.inner("sub", 1_000_000);
            t.count("items", 4.0);
        });
        let (outer, span) = t.named("outer").next().unwrap();
        let (child, _) = t.named("child").next().unwrap();
        assert_eq!(t.spans()[child].parent, Some(outer));
        assert_eq!(span.request, 3);
        assert_eq!(span.counter("items"), 4.0);
        assert_eq!(span.inner_ns("sub"), 1_000_000);
        let children = t.spans()[child].dur_ns();
        assert_eq!(t.child_ns()[outer], children);
        assert_eq!(
            t.self_ns(outer, &t.child_ns()),
            span.dur_ns().saturating_sub(children + 1_000_000)
        );
    }
}
