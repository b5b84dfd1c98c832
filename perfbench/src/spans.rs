//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent). Spans nest through
//! [`Tracer::span`]; work a layer times itself (the balancer wrapper, the
//! node-kernel pool's busy clock) is attached to the open span with
//! [`Tracer::attach`] as a child whose duration is that total. A disabled
//! tracer records nothing and only runs the closures.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attach `dur_ns` of self-timed work to the innermost open span, as a
    /// child anchored at that span's start.
    pub fn attach(&mut self, name: &'static str, dur_ns: u64) {
        let Some(&parent) = self.open.last().filter(|_| self.enabled) else {
            return;
        };
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Default, Debug, PartialEq)]
pub struct Profile {
    /// Sum of span durations, by name.
    pub total_ns: BTreeMap<&'static str, u64>,
    /// Sum of self times (duration minus direct children), by name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Sum of durations of the root spans' direct children ("top-level"
    /// spans), by name.
    pub top_ns: BTreeMap<&'static str, u64>,
    /// Root duration not covered by any top-level span.
    pub unspanned_ns: u64,
}

impl Profile {
    pub fn of(spans: &[Span]) -> Profile {
        let mut children_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.dur_ns();
            }
        }
        let mut prof = Profile::default();
        for (i, s) in spans.iter().enumerate() {
            *prof.total_ns.entry(s.name).or_default() += s.dur_ns();
            *prof.self_ns.entry(s.name).or_default() += s.dur_ns().saturating_sub(children_ns[i]);
            match s.parent {
                None => prof.unspanned_ns += s.dur_ns().saturating_sub(children_ns[i]),
                Some(p) if spans[p].parent.is_none() => {
                    *prof.top_ns.entry(s.name).or_default() += s.dur_ns();
                }
                Some(_) => {}
            }
        }
        prof
    }

    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }
}

/// Spans as tab-separated lines: id, parent (or `-`), name, start, end (ns).
pub fn render(spans: &[Span]) -> String {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            format!(
                "span\t{i}\t{parent}\t{}\t{}\t{}\n",
                s.name, s.start_ns, s.end_ns
            )
        })
        .collect()
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
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("node", 10, 30, Some(1)),
            span("leaf", 10, 15, Some(2)),
            span("render", 60, 90, Some(0)),
        ];
        let p = Profile::of(&spans);
        assert_eq!(p.self_ns["run"], 30);
        assert_eq!(p.self_ns["node"], 15);
        assert_eq!(p.total_ns["run"], 50);
        assert_eq!(
            p.top_ns.keys().copied().collect::<Vec<_>>(),
            ["render", "run"]
        );
        assert_eq!(p.unspanned_ns, 20);
    }

    #[test]
    fn nesting_and_attach_build_the_tree() {
        let mut t = Tracer::new(true);
        t.span("pass", |t| {
            t.span("run", |t| t.attach("node", 0));
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, [("pass", None), ("run", Some(0)), ("node", Some(1))]);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("pass", |t| t.span("run", |_| 7)), 7);
        off.attach("node", 5);
        assert!(off.spans().is_empty());
    }
}
