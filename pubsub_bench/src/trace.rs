//! The benchmark's own span recorder: spans around the public calls the
//! harness makes into each layer, kept in memory and written out as JSON
//! when the run ends. Spans inside the program under test are a later
//! change; until then a layer's inside is measured by the probes in
//! `layers.rs`.

use adamant_json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Spans written out one by one; further ones still count in the per-name
/// totals (a 100 000-endpoint set-up makes a million `add_endpoint` spans).
const MAX_KEPT: usize = 50_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// A span still open: what `end` needs to close it.
struct Frame {
    name: &'static str,
    start_ns: u64,
    /// Time covered by child spans that have already ended.
    child_ns: u64,
    /// Where the span sits in `spans`, when it is one of those kept.
    kept: Option<u32>,
}

#[derive(Default, Clone, Copy)]
struct Totals {
    count: u64,
    total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    self_ns: u64,
}

/// Handle of an open span, to be passed back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    by_name: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`, and costs one branch per call
    /// when not.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            by_name: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span caused by the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < MAX_KEPT).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.iter().rev().find_map(|frame| frame.kept),
            });
            self.spans.len() as u32 - 1
        });
        self.stack.push(Frame {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
        Open(Some(self.stack.len() - 1))
    }

    /// Closes the span, and any opened inside it that were left open.
    pub fn end(&mut self, open: Open) {
        let Some(depth) = open.0 else { return };
        let end_ns = self.now_ns();
        while self.stack.len() > depth {
            let frame = self.stack.pop().expect("depth is below the length");
            let duration = end_ns - frame.start_ns;
            if let Some(index) = frame.kept {
                self.spans[index as usize].end_ns = end_ns;
            }
            if let Some(parent) = self.stack.last_mut() {
                parent.child_ns += duration;
            }
            let totals = self.by_name.entry(frame.name).or_default();
            totals.count += 1;
            totals.total_ns += duration;
            totals.self_ns += duration.saturating_sub(frame.child_ns);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Spans recorded so far, kept one by one or not.
    pub fn len(&self) -> u64 {
        self.by_name.values().map(|totals| totals.count).sum()
    }

    fn summary(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        Json::Obj(
            self.by_name
                .iter()
                .map(|(name, totals)| {
                    (
                        (*name).to_owned(),
                        Json::Obj(vec![
                            ("count".to_owned(), num(totals.count)),
                            ("total_ns".to_owned(), num(totals.total_ns)),
                            ("self_ns".to_owned(), num(totals.self_ns)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Writes the spans of `workload` next to the build output (the
    /// directory the running binary sits in) and returns the path.
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_owned(), Json::Str(s.name.to_owned())),
                    ("start_ns".to_owned(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_owned(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".to_owned(), Json::Str(workload.to_owned())),
            ("by_name".to_owned(), self.summary()),
            ("spans".to_owned(), Json::Arr(spans)),
        ]);
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(std::path::Path::new("."))
            .join("pubsub_bench_traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.json"));
        std::fs::write(&path, doc.to_string_compact())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", || ());
        t.end(outer);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        let summary = t.summary();
        let outer = summary.get("outer").unwrap();
        let total: f64 = outer.field("total_ns").unwrap();
        let own: f64 = outer.field("self_ns").unwrap();
        assert!(total >= 2e6 && own < total, "total {total} self {own}");
        assert_eq!(summary.get("inner").unwrap().field::<f64>("count"), Ok(2.0));
    }

    #[test]
    fn spans_beyond_the_cap_still_count() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        for _ in 0..MAX_KEPT + 10 {
            t.span("call", || ());
        }
        t.end(outer);
        assert_eq!(t.spans.len(), MAX_KEPT);
        assert_eq!(t.len(), MAX_KEPT as u64 + 11);
        let calls: f64 = t.summary().get("call").unwrap().field("count").unwrap();
        assert_eq!(calls, (MAX_KEPT + 10) as f64);
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
