//! Benchmark-owned spans: recorded around the calls the benchmark makes
//! into the program, kept in preallocated memory, written out at exit.
//!
//! A [`Lane`] is the span stack of one thread (the main thread or one
//! simulated process); spans on a lane nest strictly. Finished lanes are
//! absorbed into a [`Trace`], where a lane's top-level spans hang under the
//! span that spawned the thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the owning lane or trace; `NONE` at top level.
    pub parent: u32,
    pub rep: u32,
    pub lane: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Lane::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Token(u32);

pub struct Lane {
    on: bool,
    epoch: Instant,
    lane: u32,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Lane {
    /// A lane that records nothing: `begin`/`end` cost one branch each, so
    /// the untraced run executes the same driver code.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            lane: 0,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn new(epoch: Instant, lane: u32, rep: u32, capacity: usize) -> Self {
        Self { on: true, epoch, lane, rep, spans: Vec::with_capacity(capacity), open: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
            lane: self.lane,
        });
        self.open.push(id);
        Token(id)
    }

    #[inline]
    pub fn end(&mut self, t: Token) {
        if !self.on {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(t.0), "spans on one lane must nest");
        self.spans[t.0 as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Lane) -> R) -> R {
        let t = self.begin(name);
        let r = f(self);
        self.end(t);
        r
    }

    /// Index of the innermost open span (the parent for lanes of threads
    /// spawned now).
    pub fn current(&self) -> Option<u32> {
        self.open.last().copied()
    }
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    /// Append a finished lane. Its top-level spans become children of
    /// `parent` (an index into this trace); returns the offset its spans
    /// were appended at.
    pub fn absorb(&mut self, lane: Lane, parent: Option<u32>) -> u32 {
        assert!(lane.open.is_empty(), "lane absorbed with open spans");
        let off = self.spans.len() as u32;
        self.spans.extend(lane.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE { parent.unwrap_or(NONE) } else { s.parent + off };
            s
        }));
        off
    }

    /// Append another trace (of a later repetition).
    pub fn append(&mut self, other: Trace) {
        let off = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += off;
            }
            s
        }));
    }

    /// Self time per span: duration minus the part of the interval that
    /// child spans cover (children of other lanes may overlap each other,
    /// so the cover is the length of the union).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                let p = &self.spans[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if a < b {
                    children[s.parent as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut cover = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    if b > reach {
                        cover += b - a.max(reach);
                        reach = b;
                    }
                }
                s.dur_ns() - cover
            })
            .collect()
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += self_ns;
        }
        out
    }

    /// For every top-level span: the share of its duration that the self
    /// times along its longest lane account for. Spans of one lane nest, so
    /// the self times of a lane's subtree sum exactly to the lane's
    /// top-level spans; what can be lost is time between thread spawn and
    /// the lanes' first span.
    pub fn reconcile(&self) -> Vec<(&'static str, f64)> {
        let selfs = self.self_times();
        let root_of: Vec<u32> = (0..self.spans.len())
            .map(|mut i| {
                while self.spans[i].parent != NONE {
                    i = self.spans[i].parent as usize;
                }
                i as u32
            })
            .collect();
        let mut per: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *per.entry((root_of[i], s.lane)).or_default() += selfs[i];
        }
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.parent == NONE) {
            let own = per.get(&(i as u32, s.lane)).copied().unwrap_or(0);
            let longest_other = per
                .iter()
                .filter(|((r, l), _)| *r == i as u32 && *l != s.lane)
                .map(|(_, &v)| v)
                .max()
                .unwrap_or(0);
            out.push((s.name, (own + longest_other) as f64 / s.dur_ns().max(1) as f64));
        }
        out
    }

    /// The trace as JSON. At most `max_spans` spans are written in full
    /// (per-operation spans of a long run would make the file hundreds of
    /// megabytes); the per-name totals always cover every span.
    pub fn to_json(&self, workload: &str, seed: u64, max_spans: usize) -> String {
        let mut s = String::new();
        let written = self.spans.len().min(max_spans);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_total\":{},\"spans_written\":{written},\"totals\":{{",
            self.spans.len()
        );
        for (k, (name, t)) in self.totals_by_name().iter().enumerate() {
            let sep = if k == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("},\"spans\":[\n");
        for (i, sp) in self.spans.iter().take(written).enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = if sp.parent == NONE { -1 } else { i64::from(sp.parent) };
            let _ = write!(
                s,
                "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{},\"lane\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.rep, sp.lane
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, lane: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, rep: 0, lane }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let t = Trace {
            spans: vec![
                span("rep", 0, 100, NONE, 0),
                span("load", 10, 30, 0, 0),
                span("store", 40, 70, 0, 0),
                span("fault", 45, 55, 2, 0),
            ],
        };
        assert_eq!(t.self_times(), vec![50, 20, 20, 10]);
        let by = t.totals_by_name();
        assert_eq!(by["rep"], NameTotal { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(by["store"], NameTotal { count: 1, total_ns: 30, self_ns: 20 });
        let sum: u64 = t.self_times().iter().sum();
        assert_eq!(sum, 100, "self times of one lane sum to the root's duration");
    }

    #[test]
    fn overlapping_children_of_other_lanes_are_covered_once() {
        let t = Trace {
            spans: vec![
                span("rep", 0, 100, NONE, 0),
                span("rank", 10, 80, 0, 1),
                span("rank", 20, 95, 0, 2),
                span("outside", 90, 120, 0, 3),
            ],
        };
        // Union of [10,80] ∪ [20,95] ∪ [90,100 clipped] = [10,100].
        assert_eq!(t.self_times()[0], 10);
    }

    #[test]
    fn lanes_record_nesting_and_absorb_remaps_parents() {
        let epoch = Instant::now();
        let mut main = Lane::new(epoch, 0, 7, 8);
        let rep = main.begin("rep");
        let mut rank = Lane::new(epoch, 1, 7, 8);
        rank.scope("run", |l| l.scope("load", |_| ()));
        let parent = main.current();
        main.end(rep);

        let mut t = Trace::default();
        assert_eq!(t.absorb(main, None), 0);
        assert_eq!(t.absorb(rank, parent), 1);
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent, s.lane, s.rep)).collect();
        assert_eq!(names, vec![("rep", NONE, 0, 7), ("run", 0, 1, 7), ("load", 1, 1, 7)]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn off_lane_records_nothing() {
        let mut l = Lane::off();
        let t = l.begin("x");
        l.end(t);
        assert!(l.spans.is_empty() && !l.is_on());
    }

    #[test]
    fn reconcile_accounts_for_the_longest_lane() {
        let t = Trace {
            spans: vec![
                span("rep", 0, 100, NONE, 0),
                span("rank", 0, 98, 0, 1),
                span("op", 10, 50, 1, 1),
                span("rank", 0, 60, 0, 2),
            ],
        };
        let r = t.reconcile();
        assert_eq!(r.len(), 1);
        // root self = 2, lane 1 subtree self = 98 → 100/100.
        assert!((r[0].1 - 1.0).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn json_caps_the_span_list_but_not_the_totals() {
        let t = Trace { spans: vec![span("a", 0, 5, NONE, 0), span("a", 5, 9, NONE, 0)] };
        let j = t.to_json("w", 3, 1);
        assert!(j.contains("\"spans_total\":2,\"spans_written\":1"));
        assert!(j.contains("\"a\":{\"count\":2,\"total_ns\":9,\"self_ns\":9}"));
        assert_eq!(j.matches("\"id\":").count(), 1);
    }
}
