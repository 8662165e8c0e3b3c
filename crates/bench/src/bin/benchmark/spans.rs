//! Host-time spans around each layer call of the traced run, kept in
//! memory and written out at exit as Chrome trace-event JSON.

use std::time::{Duration, Instant};

use parsecs_bench::json::Obj;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span) and returns its result with the span's duration in
    /// seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed();
        self.spans[index].end = end;
        (out, (end - start).as_secs_f64())
    }

    /// The spans as a Chrome trace-event document: one complete (`X`)
    /// event per span on one thread of a process named "host", with the
    /// parent span's name in `args`. Timestamps are microseconds.
    pub fn chrome_json(&self, thread: &str) -> String {
        let meta = |name: &str, value: &str| {
            Obj::new()
                .str("name", name)
                .str("ph", "M")
                .field("pid", 1)
                .field("tid", 1)
                .field("args", Obj::new().str("name", value).build())
                .build()
        };
        let mut events = vec![meta("process_name", "host"), meta("thread_name", thread)];
        for span in &self.spans {
            let parent = span.parent.map_or("", |p| self.spans[p].name);
            events.push(
                Obj::new()
                    .str("name", span.name)
                    .str("cat", "layer")
                    .str("ph", "X")
                    .field("pid", 1)
                    .field("tid", 1)
                    .fixed("ts", span.start.as_secs_f64() * 1e6, 3)
                    .fixed("dur", (span.end - span.start).as_secs_f64() * 1e6, 3)
                    .field("args", Obj::new().str("parent", parent).build())
                    .build(),
            );
        }
        let doc = Obj::new()
            .str("displayTimeUnit", "ms")
            .field("traceEvents", format!("[\n{}\n]", events.join(",\n")))
            .build();
        format!("{doc}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_chrome_events() {
        let mut spans = Spans::new();
        let ((), outer) = spans.span("outer", |spans| {
            spans.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        assert!(outer >= 0.002);
        let [o, i] = &spans.spans[..] else {
            panic!("two spans expected")
        };
        assert_eq!((o.parent, i.parent), (None, Some(0)));
        assert!(o.start <= i.start && i.end <= o.end);

        let doc = crate::parse::parse(&spans.chrome_json("w")).unwrap();
        let events = doc.get("traceEvents").unwrap().arr();
        assert_eq!(events.len(), 4);
        let process = events[0].get("args").unwrap().get("name").unwrap();
        assert_eq!(process.str(), Some("host"));
        let inner = &events[3];
        assert_eq!(inner.get("ph").unwrap().str(), Some("X"));
        let parent = inner.get("args").unwrap().get("parent").unwrap();
        assert_eq!(parent.str(), Some("outer"));
        assert!(inner.get("dur").unwrap().num().unwrap() >= 2000.0);
    }
}
