//! megammap-telemetry: unified observability for the MegaMmap stack.
//!
//! Two facilities behind one cheap-to-clone [`Telemetry`] handle:
//!
//! * a **metrics registry** — atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s keyed by `(subsystem, name, labels)`.
//!   Handles are `Arc`-shared cells: registering the same key twice
//!   returns the same cell, so every layer of the stack can grab a handle
//!   at construction time and bump it lock-free on hot paths.
//! * an **event-trace ring** — bounded buffer of spans (`t_begin..t_end`
//!   in virtual nanoseconds) for page faults, prefetches, evictions,
//!   demotions, flushes, task dispatches and barriers.
//!
//! Everything is driven by the simulator's virtual clock (`SimTime` is a
//! plain `u64` of nanoseconds), so snapshots, CSV/JSON exports and the
//! text report are **deterministic**: two identical runs produce
//! byte-identical output. Counters are order-independent sums; events are
//! sorted on export.
//!
//! The whole subsystem can be disabled ([`Telemetry::disabled`] or
//! [`Telemetry::set_enabled`]); handles then skip their atomic writes, so
//! instrumented fast paths cost one relaxed load and a predictable branch.

mod events;
mod export;
pub mod lockorder;
mod metrics;
pub mod profile;
mod spans;

pub use events::{Event, EventKind, EventRing};
pub use export::{CriticalPathGroup, StageLatency};
pub use lockorder::{LockOrderToken, LockRank};
pub use metrics::{Counter, Gauge, Histogram, MetricKey};
pub use profile::{
    clear_observed_lock_edges, gini_permille, lock_edges_enabled, lock_edges_json,
    lock_edges_json_from, observe_lock_edges, observed_lock_edges, HeavyHitter, HeavyHitters,
    LockStats, LockTimeline, DEFAULT_HOT_PAGE_CAPACITY,
};
pub use spans::{
    FlightTrace, SpanRecord, Stage, TraceCtx, DEFAULT_FLIGHT_K, DEFAULT_SPAN_CAPACITY,
};

use spans::SpanStore;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Virtual nanoseconds — mirrors `megammap_sim::SimTime` without the
/// dependency (this crate is a leaf).
pub type SimTime = u64;

/// Default capacity of the event ring (per [`Telemetry`] instance).
pub const DEFAULT_EVENT_CAPACITY: usize = 64 * 1024;

struct Inner {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    gauges: Mutex<BTreeMap<MetricKey, Gauge>>,
    histograms: Mutex<BTreeMap<MetricKey, Histogram>>,
    events: Mutex<EventRing>,
    spans: Mutex<SpanStore>,
    hot_pages: std::sync::OnceLock<HeavyHitters>,
}

/// Shared handle to one metrics registry + event ring.
///
/// Clones share state; the stack creates one per cluster and threads it
/// through runtime, caches, tiers and the network model.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An enabled registry with the default event capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled registry whose event ring holds `events` spans.
    pub fn with_capacity(events: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                enabled: Arc::new(AtomicBool::new(true)),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventRing::new(events)),
                spans: Mutex::new(SpanStore::new(DEFAULT_SPAN_CAPACITY)),
                hot_pages: std::sync::OnceLock::new(),
            }),
        }
    }

    /// A registry whose handles are all no-ops (until re-enabled).
    pub fn disabled() -> Self {
        let t = Self::new();
        t.set_enabled(false);
        t
    }

    /// Globally enable or disable all handles minted from this registry.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether handles currently record.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Get or create the counter for `(subsystem, name, labels)`.
    pub fn counter(
        &self,
        subsystem: &'static str,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        let key = MetricKey::new(subsystem, name, labels);
        self.inner
            .counters
            .lock()
            .entry(key)
            .or_insert_with(|| Counter::attached(self.inner.enabled.clone()))
            .clone()
    }

    /// Get or create the gauge for `(subsystem, name, labels)`.
    pub fn gauge(
        &self,
        subsystem: &'static str,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        let key = MetricKey::new(subsystem, name, labels);
        self.inner
            .gauges
            .lock()
            .entry(key)
            .or_insert_with(|| Gauge::attached(self.inner.enabled.clone()))
            .clone()
    }

    /// Get or create the histogram for `(subsystem, name, labels)` with
    /// the given fixed bucket upper bounds (ascending; an implicit
    /// `+inf` bucket is appended). If the key already exists its original
    /// bounds are kept.
    pub fn histogram(
        &self,
        subsystem: &'static str,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        let key = MetricKey::new(subsystem, name, labels);
        self.inner
            .histograms
            .lock()
            .entry(key)
            .or_insert_with(|| Histogram::attached(self.inner.enabled.clone(), bounds))
            .clone()
    }

    /// Mint contention-profiler counters for a lock of rank `rank`.
    ///
    /// `labels` distinguishes instances that should aggregate separately
    /// (typically `[("node", name)]`); a `("lock", rank.name())` label is
    /// always added. Pair the handle with one [`LockTimeline`] per actual
    /// lock instance (see [`profile`] module docs).
    pub fn lock_stats(&self, rank: LockRank, labels: &[(&'static str, &str)]) -> LockStats {
        let mut all: Vec<(&'static str, &str)> = labels.to_vec();
        all.push(("lock", rank.name()));
        LockStats::new(
            self.counter("lock", "acquisitions", &all),
            self.counter("lock", "wait_model_ns", &all),
            self.counter("lock", "contended", &all),
            rank,
        )
    }

    /// The registry's shared hot-page sketch (lazily created with
    /// [`DEFAULT_HOT_PAGE_CAPACITY`]). Fault paths record
    /// `(bucket, page)` touches; `mm_scope` reads the top-K.
    pub fn hot_pages(&self) -> &HeavyHitters {
        self.inner.hot_pages.get_or_init(|| {
            HeavyHitters::new(
                self.inner.enabled.clone(),
                DEFAULT_HOT_PAGE_CAPACITY,
                self.counter("scope", "page_touches", &[]),
                self.counter("scope", "hot_page_evictions", &[]),
            )
        })
    }

    /// Record one event span. No-op while disabled.
    pub fn event(&self, event: Event) {
        if !self.is_enabled() {
            return;
        }
        self.inner.events.lock().push(event);
    }

    /// Convenience: record an instantaneous event (`t_end == t_begin`).
    pub fn mark(&self, kind: EventKind, t: SimTime, node: u32, bytes: u64, detail: u64) {
        self.event(Event { kind, node, t_begin: t, t_end: t, bytes, detail });
    }

    /// Convenience: record a span.
    pub fn span(
        &self,
        kind: EventKind,
        t_begin: SimTime,
        t_end: SimTime,
        node: u32,
        bytes: u64,
        detail: u64,
    ) {
        self.event(Event { kind, node, t_begin, t_end, bytes, detail });
    }

    // ---- causal span tracing -------------------------------------------

    /// Begin a new trace rooted at `node`; returns the root context to
    /// thread along the fault path. [`TraceCtx::NONE`] while disabled, so
    /// the whole downstream path costs nothing.
    pub fn trace_begin(&self, node: u32) -> TraceCtx {
        if !self.is_enabled() {
            return TraceCtx::NONE;
        }
        self.inner.spans.lock().begin(node)
    }

    /// Record a stage interval as a child span of `ctx`; returns the
    /// child's context for deeper nesting. No-op on an untraced context.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_child(
        &self,
        ctx: TraceCtx,
        stage: Stage,
        t_begin: SimTime,
        t_end: SimTime,
        node: u32,
        bytes: u64,
        tier: &'static str,
        detail: u64,
    ) -> TraceCtx {
        if ctx.is_none() {
            return TraceCtx::NONE;
        }
        self.inner.spans.lock().child(ctx, stage, t_begin, t_end, node, bytes, tier, detail)
    }

    /// Complete `ctx`'s trace with its root span (stage, full interval,
    /// active coherence `policy`); the finished tree is offered to the
    /// flight recorder. No-op on an untraced context.
    #[allow(clippy::too_many_arguments)]
    pub fn trace_end(
        &self,
        ctx: TraceCtx,
        stage: Stage,
        t_begin: SimTime,
        t_end: SimTime,
        node: u32,
        bytes: u64,
        policy: &'static str,
        detail: u64,
    ) {
        if ctx.is_none() {
            return;
        }
        self.inner.spans.lock().end(ctx, stage, t_begin, t_end, node, bytes, policy, detail)
    }

    /// Configure the slow-fault flight recorder: keep the span trees of
    /// the `k` slowest roots plus any root lasting at least
    /// `threshold_ns` virtual ns (0 disables the threshold side).
    pub fn set_flight(&self, k: usize, threshold_ns: SimTime) {
        self.inner.spans.lock().configure_flight(k, threshold_ns);
    }

    /// Deterministic snapshot of every metric and event.
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            self.inner.counters.lock().iter().map(|(k, c)| (k.clone(), c.get())).collect();
        let gauges = self.inner.gauges.lock().iter().map(|(k, g)| (k.clone(), g.get())).collect();
        let histograms =
            self.inner.histograms.lock().iter().map(|(k, h)| (k.clone(), h.snapshot())).collect();
        let ring = self.inner.events.lock();
        let mut events: Vec<Event> = ring.iter().cloned().collect();
        // Ring order is insertion order, which depends on thread
        // interleaving; sort into virtual-time order for determinism.
        events.sort_by_key(|e| (e.t_begin, e.t_end, e.node, e.kind as u8, e.detail, e.bytes));
        let events_dropped = ring.dropped();
        drop(ring);
        let store = self.inner.spans.lock();
        let mut spans: Vec<SpanRecord> = store.iter_done().cloned().collect();
        spans.sort_by_key(|s| (s.t_begin, s.t_end, s.node, s.stage as u8, s.trace, s.span));
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
            events_dropped,
            spans,
            spans_dropped: store.dropped(),
            flight: store.collect_flight(),
            flight_dropped: store.flight_dropped(),
        }
    }

    /// Sum of every counter matching `(subsystem, name)` across labels.
    pub fn counter_total(&self, subsystem: &str, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .iter()
            .filter(|(k, _)| k.subsystem == subsystem && k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Reset counters, histograms and the event ring to zero (gauges are
    /// left alone — they track current state, not accumulation).
    pub fn reset(&self) {
        for c in self.inner.counters.lock().values() {
            c.reset();
        }
        for h in self.inner.histograms.lock().values() {
            h.reset();
        }
        self.inner.events.lock().clear();
        self.inner.spans.lock().clear();
        if let Some(hh) = self.inner.hot_pages.get() {
            hh.clear();
        }
    }
}

/// Histogram state captured by a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds; the final implicit bucket is +inf.
    pub bounds: Vec<u64>,
    /// One count per bound, plus the +inf bucket at the end.
    pub counts: Vec<u64>,
    /// Sum of every recorded value.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Quantile estimate at `pm` permille (p50 = 500, p99 = 990,
    /// p99.9 = 999) with linear interpolation inside the containing
    /// bucket.
    ///
    /// The target rank is `(count - 1) * pm / 1000` (integer math, so
    /// deterministic); the value is interpolated between the bucket's
    /// lower and upper bound by the rank's position within the bucket.
    /// Samples in the final +inf bucket report the last finite bound
    /// (the histogram cannot see past its bounds). Returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, pm: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pm = pm.min(1000);
        let target = (self.count - 1) * pm / 1000;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c > target {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = match self.bounds.get(i) {
                    Some(&b) => b,
                    // +inf bucket: clamp to the last finite bound.
                    None => return self.bounds.last().copied().unwrap_or(0),
                };
                // Position of the target rank within this bucket, in
                // [0, c): interpolate across the bucket's width.
                let pos = target - seen;
                return lo + (hi - lo) * (pos + 1) / c;
            }
            seen += c;
        }
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Median estimate (see [`percentile`](Self::percentile)).
    pub fn p50(&self) -> u64 {
        self.percentile(500)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(990)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.percentile(999)
    }
}

/// A deterministic point-in-time view of a [`Telemetry`] instance:
/// metrics sorted by key, events sorted by virtual time.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(key, value)` for every counter, key-sorted.
    pub counters: Vec<(MetricKey, u64)>,
    /// `(key, value)` for every gauge, key-sorted.
    pub gauges: Vec<(MetricKey, u64)>,
    /// `(key, state)` for every histogram, key-sorted.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
    /// Events sorted by `(t_begin, t_end, node, kind, detail, bytes)`.
    pub events: Vec<Event>,
    /// Events evicted from the ring because it was full.
    pub events_dropped: u64,
    /// Completed trace spans sorted by `(t_begin, t_end, node, stage,
    /// trace, span)`.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the completed-span ring because it was full.
    pub spans_dropped: u64,
    /// Flight-recorder contents: full span trees of the slowest roots,
    /// slowest first.
    pub flight: Vec<FlightTrace>,
    /// Over-threshold traces the flight recorder had to discard.
    pub flight_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn same_key_returns_same_cell() {
        let t = Telemetry::new();
        let a = t.counter("pcache", "hits", &[("node", "0")]);
        let b = t.counter("pcache", "hits", &[("node", "0")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(t.counter_total("pcache", "hits"), 4);
    }

    #[test]
    fn labels_distinguish_cells() {
        let t = Telemetry::new();
        t.counter("net", "bytes", &[("link", "0-1")]).add(10);
        t.counter("net", "bytes", &[("link", "1-0")]).add(5);
        assert_eq!(t.counter_total("net", "bytes"), 15);
        let snap = t.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn disabled_handles_do_not_record() {
        let t = Telemetry::disabled();
        let c = t.counter("x", "y", &[]);
        let g = t.gauge("x", "g", &[]);
        let h = t.histogram("x", "h", &[], &[10, 100]);
        c.inc();
        g.set(7);
        h.record(5);
        t.mark(EventKind::PageFault, 100, 0, 0, 0);
        let snap = t.snapshot();
        assert_eq!(snap.counters[0].1, 0);
        assert_eq!(snap.gauges[0].1, 0);
        assert_eq!(snap.histograms[0].1.count, 0);
        assert!(snap.events.is_empty());
        // Re-enabling makes the SAME handles live again.
        t.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let t = Telemetry::new();
        let h = t.histogram("rt", "lat", &[], &[10, 100, 1000]);
        // A value equal to a bound lands in that bound's bucket.
        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.bounds, vec![10, 100, 1000]);
        assert_eq!(s.counts, vec![2, 2, 2, 2]); // ≤10, ≤100, ≤1000, +inf
        assert_eq!(s.count, 8);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(10 + 11 + 100 + 101 + 1000 + 1001).wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn histogram_percentiles_pin_interpolation() {
        // 100 samples spread over buckets (≤100, ≤200, ≤400, +inf):
        // 50 in the first, 30 in the second, 19 in the third, 1 in +inf.
        let h = Histogram::detached(&[100, 200, 400]);
        for _ in 0..50 {
            h.record(10);
        }
        for _ in 0..30 {
            h.record(150);
        }
        for _ in 0..19 {
            h.record(300);
        }
        h.record(10_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50: target rank (99*500/1000)=49, inside bucket 0 (counts 0..49),
        // pos 49 of 50 → 0 + 100*50/50 = 100.
        assert_eq!(s.p50(), 100);
        // p90: rank 89, bucket 2 (seen 80, c=19), pos 9 → 200 + 200*10/19 = 305.
        assert_eq!(s.percentile(900), 305);
        // p99: rank 98, bucket 2, pos 18 → 200 + 200*19/19 = 400.
        assert_eq!(s.p99(), 400);
        // p999: rank 98 as well (99*999/1000 = 98) → still 400; only the
        // very last sample lives past the finite bounds.
        assert_eq!(s.p999(), 400);
        // p100: rank 99 lands in the +inf bucket → clamped to last bound.
        assert_eq!(s.percentile(1000), 400);
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        let empty = Histogram::detached(&[10]).snapshot();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p999(), 0);
        // A single sample: every quantile reports its bucket.
        let h = Histogram::detached(&[10, 20]);
        h.record(15);
        let s = h.snapshot();
        // rank 0, bucket 1 (10..20], pos 0 of 1 → 10 + 10*1/1 = 20.
        for pm in [0, 500, 990, 999, 1000] {
            assert_eq!(s.percentile(pm), 20, "pm={pm}");
        }
    }

    #[test]
    fn concurrent_counter_increments_from_spmd_threads() {
        let t = Telemetry::new();
        let per_thread = 10_000u64;
        thread::scope(|s| {
            for rank in 0..8u32 {
                let t = t.clone();
                s.spawn(move || {
                    // Each rank mints its own handle, as runtime code does.
                    let c = t.counter("rt", "faults", &[]);
                    let mine = t.counter("rt", "faults_node", &[("node", &rank.to_string())]);
                    for _ in 0..per_thread {
                        c.inc();
                        mine.inc();
                    }
                });
            }
        });
        assert_eq!(t.counter_total("rt", "faults"), 8 * per_thread);
        assert_eq!(t.counter_total("rt", "faults_node"), 8 * per_thread);
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        // Build two registries, feeding them the same data in different
        // orders and from different interleavings: snapshots must match.
        let build = |reverse: bool| {
            let t = Telemetry::new();
            let mut keys: Vec<u32> = (0..16).collect();
            if reverse {
                keys.reverse();
            }
            for k in keys {
                t.counter("s", "c", &[("k", &k.to_string())]).add(k as u64);
                t.mark(EventKind::Eviction, 1000 - k as u64, k, 64, k as u64);
            }
            t.snapshot()
        };
        let a = build(false);
        let b = build(true);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.events, b.events);
        // Events come out time-sorted regardless of insertion order.
        assert!(a.events.windows(2).all(|w| w[0].t_begin <= w[1].t_begin));
    }

    #[test]
    fn event_ring_drops_oldest_and_counts() {
        let t = Telemetry::with_capacity(4);
        for i in 0..10u64 {
            t.mark(EventKind::Flush, i, 0, 0, i);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_dropped, 6);
        assert_eq!(snap.events[0].detail, 6); // oldest surviving
    }

    #[test]
    fn reset_clears_accumulators_not_gauges() {
        let t = Telemetry::new();
        let c = t.counter("a", "b", &[]);
        let g = t.gauge("a", "g", &[]);
        c.add(5);
        g.set(9);
        t.mark(EventKind::Barrier, 1, 0, 0, 0);
        t.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 9);
        assert!(t.snapshot().events.is_empty());
    }

    #[test]
    fn reset_leaves_the_hot_page_sketch_like_new() {
        // Thrash the sketch past capacity, reset, then replay a second
        // stream into it and into a fresh registry: victim-index entries
        // surviving the reset would surface once the replay's counts
        // climb past theirs.
        let used = Telemetry::new();
        let cap = DEFAULT_HOT_PAGE_CAPACITY as u64;
        for page in 0..3 * cap {
            used.hot_pages().record(1, page, 1);
        }
        assert!(used.hot_pages().evictions() > 0);
        used.reset();
        assert!(used.hot_pages().is_empty());
        assert_eq!(used.hot_pages().evictions(), 0);

        let fresh = Telemetry::new();
        for t in [&used, &fresh] {
            for i in 0..4 * cap {
                t.hot_pages().record(2, (i * 7) % (3 * cap), 1 + i % 3);
            }
        }
        assert_eq!(used.hot_pages().top(cap as usize), fresh.hot_pages().top(cap as usize));
        assert_eq!(used.hot_pages().evictions(), fresh.hot_pages().evictions());
        assert_eq!(used.hot_pages().touches(), fresh.hot_pages().touches());
    }
}
