//! In-memory spans recorded by the benchmark around its calls into the
//! library's public functions.
//!
//! A span has a name, a start, an end and a parent. Spans are kept in a
//! `Vec` while the run lasts and written out as JSON lines when it ends.
//! A disabled recorder only runs the wrapped closure, so the untraced
//! runs that give the end-to-end metrics pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes the spans a panic left open, back to `depth`.
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let index = self.open.pop().expect("depth checked");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span_indexed(name, f).0
    }

    /// Like [`Recorder::span`], also returning the span's index when
    /// recording, so callers can read its subtree back.
    pub fn span_indexed<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Option<usize>) {
        if !self.enabled {
            return (f(self), None);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (result, Some(index))
    }

    /// Summed self time per span name over the subtree rooted at `root`
    /// (the root included), in seconds. A span's self time is its duration
    /// minus the durations of its direct children.
    pub fn self_times(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Children always follow their parent in the vector.
        for (i, span) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = span.parent {
                if in_tree[p] {
                    in_tree[i] = true;
                    child_ns[p] += span.duration_ns();
                }
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if in_tree[i] {
                let own = span.duration_ns().saturating_sub(child_ns[i]);
                *out.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
            }
        }
        out
    }

    /// Checks that every child lies inside its parent and that siblings do
    /// not overlap. Returns the first violation found.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut last_sibling_end: BTreeMap<Option<usize>, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", span.name));
            }
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) escapes parent {}",
                        span.name, parent.name
                    ));
                }
            }
            let prev = last_sibling_end.entry(span.parent).or_insert(0);
            if span.start_ns < *prev {
                return Err(format!(
                    "span {i} ({}) overlaps its previous sibling",
                    span.name
                ));
            }
            *prev = span.end_ns;
        }
        Ok(())
    }

    /// Share of the root's duration that its direct children cover.
    pub fn child_coverage(&self, root: usize) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::duration_ns)
            .sum();
        covered as f64 / self.spans[root].duration_ns().max(1) as f64
    }

    /// All spans as JSON lines: `{"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let (value, index) = rec.span_indexed("a", |r| r.span("b", |_| 7));
        assert_eq!((value, index), (7, None));
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_nesting_holds() {
        let mut rec = Recorder::new(true);
        let ((), root) = rec.span_indexed("root", |r| {
            r.span("child", |r| {
                r.span("leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            r.span("child", |_| ());
        });
        let root = root.expect("recording");
        rec.check_nesting().expect("spans nest");
        let selfs = rec.self_times(root);
        let total: f64 = selfs.values().sum();
        let root_secs = rec.spans()[root].duration_ns() as f64 / 1e9;
        assert!(
            (total - root_secs).abs() < 1e-9,
            "self times sum to the root"
        );
        assert!(selfs["leaf"] >= 0.002);
        assert!(rec.child_coverage(root) <= 1.0);
    }

    #[test]
    fn overlapping_siblings_are_rejected() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 10,
                parent: None,
            },
            Span {
                name: "b",
                start_ns: 5,
                end_ns: 12,
                parent: None,
            },
        ];
        assert!(rec.check_nesting().is_err());
    }
}
