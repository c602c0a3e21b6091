//! Benchmark-side spans: name, start, end and parent, kept in memory and
//! written once as Chrome trace-event JSON (opens in Perfetto or
//! `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans around calls into the program's layers.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with no spans; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        result
    }

    /// Durations of the spans called `name`, in opening order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Summed duration of all spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed duration of the direct children of span `index` (children
    /// never overlap: the benchmark is single-threaded).
    fn children_time(&self, index: usize) -> f64 {
        self.spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(Span::duration)
            .sum()
    }

    /// Summed self time of all spans called `name`: each span's duration
    /// minus the durations of its direct children.
    pub fn self_time(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.spans[i].duration() - self.children_time(i))
            .sum()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span with its
    /// parent and self time in `args`, and one instant event at the end
    /// carrying `counters`.
    pub fn chrome_json(&self, counters: &[(&str, f64)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}},",
                span.name,
                span.start * 1e6,
                span.duration() * 1e6,
                (span.duration() - self.children_time(i)) * 1e6,
            );
        }
        let end = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        let args: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("\"{name}\":{}", crate::json_number(*value)))
            .collect();
        let _ = write!(
            out,
            "{{\"name\":\"metrics\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
             \"args\":{{{}}}}}\n]}}\n",
            end * 1e6,
            args.join(",")
        );
        out
    }
}
