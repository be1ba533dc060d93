//! Contention profiler: virtual-time lock-wait accounting and a bounded
//! heavy-hitter sketch for hot pages/buckets.
//!
//! Real (OS) lock waits do not consume virtual time, so wall-clock wait
//! measurements would be nondeterministic and meaningless under the
//! simulator's clock. The profiler instead models contention in virtual
//! time: every profiled lock instance carries a [`LockTimeline`] — a
//! "busy until" watermark. An acquisition at virtual `now` against a
//! timeline that is busy until `free_at > now` is charged a *modeled*
//! wait of `free_at - now`, and extends the timeline by a small
//! per-rank modeled hold. When acquisition order is deterministic (one
//! rank active between barriers, or a single-threaded run) the modeled
//! waits are deterministic too, which is what lets `mm_scope` print a
//! byte-identical contention profile; under racy real concurrency the
//! counts remain valid sums but the wait attribution is best-effort.
//!
//! Real contention is still visible separately: callers that probe with
//! `try_lock` first report failures via [`LockStats::contended`], which
//! is a useful wall-clock diagnostic but is never part of deterministic
//! output.
//!
//! The hot-page sketch is a space-saving (Metwally et al.) top-K
//! structure over `(bucket, page)` keys: bounded memory, exact counts
//! while the key population fits the capacity, and explicit error bars
//! (`err`) once eviction starts. Determinism holds whenever record
//! order is deterministic or no eviction occurs (counts are then pure
//! sums). The eviction victim — the minimum by `(count, (bucket, page))`
//! — comes from a lazily repaired min-heap, so a record that evicts costs
//! O(log capacity) and one that hits a tracked key costs a map lookup.

use crate::lockorder::LockRank;
use crate::metrics::Counter;
use crate::SimTime;

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Default key capacity of the hot-page sketch. Plenty for exact counts
/// in every in-tree scenario (≤ a few hundred distinct hot pages); wider
/// working sets evict, at O(log capacity) per newcomer.
pub const DEFAULT_HOT_PAGE_CAPACITY: usize = 512;

/// Modeled virtual-time critical-section cost for a lock of rank `rank`,
/// in nanoseconds. These are deliberately coarse — the profile cares
/// about *relative* shares (which lock a scaled-up run piles onto), not
/// absolute latencies.
pub const fn modeled_hold_ns(rank: LockRank) -> u64 {
    match rank {
        // Map-mutating ranks: a tree/hash operation plus bookkeeping.
        LockRank::DmshMeta => 120,
        LockRank::RtMeta => 100,
        // Sharded short sections.
        LockRank::DirShard => 60,
        LockRank::ApplyShard | LockRank::ApplyVictim => 80,
        // Everything else: a short critical section.
        _ => 50,
    }
}

/// Virtual-time "busy until" watermark of one profiled lock instance.
///
/// One per *actual* lock (per directory slice, per DMSH, …) so
/// independent locks never model false contention against each other.
#[derive(Debug, Default)]
pub struct LockTimeline {
    free_at: AtomicU64,
}

impl LockTimeline {
    /// A fresh, idle timeline.
    pub const fn new() -> Self {
        Self { free_at: AtomicU64::new(0) }
    }

    /// Advance the watermark for an acquisition at `now` holding for
    /// `hold_ns`; returns the modeled wait (`free_at - now` when busy).
    fn acquire(&self, now: SimTime, hold_ns: u64) -> u64 {
        let mut prev = self.free_at.load(Ordering::Relaxed);
        loop {
            let next = prev.max(now) + hold_ns;
            match self.free_at.compare_exchange_weak(
                prev,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return prev.saturating_sub(now),
                Err(p) => prev = p,
            }
        }
    }
}

/// Per-lock-rank contention accounting, minted from
/// [`Telemetry::lock_stats`](crate::Telemetry::lock_stats).
///
/// The counters live in the metrics registry under the `lock` subsystem
/// with a `lock=<rank name>` label (plus any caller labels, typically
/// `node`), so they ride along in snapshots, CSV export and resets:
///
/// * `lock.acquisitions` — how often the lock was taken.
/// * `lock.wait_model_ns` — total modeled virtual-time wait (see module
///   docs).
/// * `lock.contended` — real `try_lock` failures (wall-clock
///   diagnostic; nondeterministic under real concurrency).
#[derive(Clone)]
pub struct LockStats {
    acquisitions: Counter,
    wait_model_ns: Counter,
    contended: Counter,
    hold_ns: u64,
}

impl LockStats {
    pub(crate) fn new(
        acquisitions: Counter,
        wait_model_ns: Counter,
        contended: Counter,
        rank: LockRank,
    ) -> Self {
        Self { acquisitions, wait_model_ns, contended, hold_ns: modeled_hold_ns(rank) }
    }

    /// A standalone handle not tied to any registry (tests, or
    /// components built without telemetry).
    pub fn detached(rank: LockRank) -> Self {
        Self {
            acquisitions: Counter::detached(),
            wait_model_ns: Counter::detached(),
            contended: Counter::detached(),
            hold_ns: modeled_hold_ns(rank),
        }
    }

    /// Record an acquisition at virtual time `now` against `timeline`;
    /// returns the modeled wait in virtual ns.
    #[inline]
    pub fn acquire(&self, timeline: &LockTimeline, now: SimTime) -> u64 {
        self.acquisitions.inc();
        let wait = timeline.acquire(now, self.hold_ns);
        if wait > 0 {
            self.wait_model_ns.add(wait);
        }
        wait
    }

    /// Record an acquisition at a site with no virtual clock in scope:
    /// counted, but charged no modeled wait.
    #[inline]
    pub fn acquire_untimed(&self) {
        self.acquisitions.inc();
    }

    /// Record a real `try_lock` failure (the caller then blocked).
    #[inline]
    pub fn contended(&self) {
        self.contended.inc();
    }

    /// Record an acquisition whose modeled wait was computed externally —
    /// e.g. the queueing delay a `SharedResource` charged before service.
    #[inline]
    pub fn record_wait(&self, wait_ns: u64) {
        self.acquisitions.inc();
        self.wait_model_ns.add(wait_ns);
    }
}

impl std::fmt::Debug for LockStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LockStats(acq={}, wait_model_ns={}, contended={})",
            self.acquisitions.get(),
            self.wait_model_ns.get(),
            self.contended.get()
        )
    }
}

/// One entry of the hot-page sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHitter {
    /// Bucket (vector) id component of the key.
    pub bucket: u64,
    /// Page (blob) id component of the key.
    pub page: u64,
    /// Estimated touch count (an overestimate by at most `err`).
    pub count: u64,
    /// Maximum overestimation inherited from evicted entries; zero while
    /// the sketch has never evicted, i.e. counts are exact.
    pub err: u64,
}

type SketchKey = (u64, u64); // (bucket, page)

#[derive(Default)]
struct SketchInner {
    // Hash map, not BTreeMap: `record` sits on the demand-fault path, so
    // the common already-tracked case must be one cheap lookup. Iteration
    // order never leaks into results — `top()` sorts by a total order and
    // eviction picks the min by `(count, key)`, also a total order.
    entries: HashMap<SketchKey, (u64, u64)>, // key -> (count, err)
    // Victim index: a min-heap over `(count when pushed, key)` holding
    // exactly one entry per tracked key. A hit does not touch it, so a
    // stored count may lag the live one — but counts only grow, so
    // stored <= live always, and `pop_victim` repairs lagging entries
    // as it meets them.
    victims: BinaryHeap<Reverse<(u64, SketchKey)>>,
}

impl SketchInner {
    fn insert(&mut self, key: SketchKey, count: u64, err: u64) {
        self.entries.insert(key, (count, err));
        self.victims.push(Reverse((count, key)));
    }

    /// Remove and return the tracked key that is minimal by
    /// `(count, key)`, with its count.
    ///
    /// A popped entry whose stored count still equals the live count is
    /// that minimum: every other key's live `(count, key)` is >= its
    /// stored one, which is >= the popped one. A lagging entry goes back
    /// at its live count; each key is re-pushed at most once per call.
    fn pop_victim(&mut self) -> Option<(SketchKey, u64)> {
        loop {
            let Reverse((stored, key)) = self.victims.pop()?;
            let Entry::Occupied(tracked) = self.entries.entry(key) else {
                return None; // unreachable: every index entry is a tracked key
            };
            let live = tracked.get().0;
            if live == stored {
                tracked.remove();
                return Some((key, live));
            }
            self.victims.push(Reverse((live, key)));
        }
    }
}

/// Every tracked key, sorted `(count desc, key asc)`.
fn ranked(entries: &HashMap<SketchKey, (u64, u64)>) -> Vec<HeavyHitter> {
    let mut v: Vec<HeavyHitter> = entries
        .iter()
        .map(|(&(bucket, page), &(count, err))| HeavyHitter { bucket, page, count, err })
        .collect();
    v.sort_by(|a, b| {
        b.count.cmp(&a.count).then_with(|| (a.bucket, a.page).cmp(&(b.bucket, b.page)))
    });
    v
}

/// Bounded space-saving top-K sketch over `(bucket, page)` touch keys.
///
/// Clone-shared like the metric handles; recording is a short mutex
/// section, gated on the registry's enabled flag so disabled runs pay
/// one relaxed load.
#[derive(Clone)]
pub struct HeavyHitters {
    enabled: Arc<AtomicBool>,
    capacity: usize,
    inner: Arc<Mutex<SketchInner>>,
    touches: Counter,
    evictions: Counter,
}

impl HeavyHitters {
    pub(crate) fn new(
        enabled: Arc<AtomicBool>,
        capacity: usize,
        touches: Counter,
        evictions: Counter,
    ) -> Self {
        assert!(capacity > 0, "heavy-hitter sketch needs capacity >= 1");
        Self {
            enabled,
            capacity,
            inner: Arc::new(Mutex::new(SketchInner::default())),
            touches,
            evictions,
        }
    }

    /// A standalone sketch not tied to any registry (always enabled).
    pub fn detached(capacity: usize) -> Self {
        Self::new(
            Arc::new(AtomicBool::new(true)),
            capacity,
            Counter::detached(),
            Counter::detached(),
        )
    }

    /// Record `weight` touches of `(bucket, page)`.
    pub fn record(&self, bucket: u64, page: u64, weight: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.touches.add(weight);
        let mut g = self.inner.lock();
        if let Some((count, _err)) = g.entries.get_mut(&(bucket, page)) {
            *count += weight;
            return;
        }
        if g.entries.len() < self.capacity {
            g.insert((bucket, page), weight, 0);
            return;
        }
        // Space-saving eviction: replace the minimum-count entry; the
        // newcomer inherits its count as both floor and error bar.
        self.evictions.inc();
        let Some((_, floor)) = g.pop_victim() else {
            return; // unreachable: capacity > 0 is asserted at construction
        };
        g.insert((bucket, page), floor + weight, floor);
    }

    /// The top `k` keys by estimated count, sorted `(count desc, key
    /// asc)` — a deterministic order for deterministic inputs.
    pub fn top(&self, k: usize) -> Vec<HeavyHitter> {
        let mut v = ranked(&self.inner.lock().entries);
        v.truncate(k);
        v
    }

    /// Total touches recorded (including evicted keys' weight).
    pub fn touches(&self) -> u64 {
        self.touches.get()
    }

    /// How many evictions the sketch performed; zero means every
    /// reported count is exact.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Distinct keys currently tracked.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether no key has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every tracked key (the touch/eviction counters are owned by
    /// the registry and reset with it).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.entries.clear();
        g.victims.clear();
    }
}

impl std::fmt::Debug for HeavyHitters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HeavyHitters(keys={}, touches={})", self.len(), self.touches())
    }
}

// ---- dynamic lock-nesting edge observation --------------------------------
//
// When enabled (off by default; `mm_scope --emit-lock-edges` turns it on
// before the run), every `lockorder::acquired` token records, for each
// ranked lock the thread already holds, the nesting edge `held -> new`
// into a global set. The export is the *dynamic* half of mm-lint's
// static/dynamic cross-check: every edge observed here must appear in the
// statically computed workspace lock graph, or the analyzer has a summary
// bug (or the workspace an unranked lock).
//
// std primitives on purpose: the loom-model builds swap the parking_lot
// shim for loom types, and this layer must stay inert (one relaxed load)
// inside loom models.

static EDGE_OBSERVE: AtomicBool = AtomicBool::new(false);

fn edge_set() -> &'static std::sync::Mutex<std::collections::BTreeSet<(LockRank, LockRank)>> {
    static EDGES: std::sync::OnceLock<
        std::sync::Mutex<std::collections::BTreeSet<(LockRank, LockRank)>>,
    > = std::sync::OnceLock::new();
    EDGES.get_or_init(|| std::sync::Mutex::new(std::collections::BTreeSet::new()))
}

std::thread_local! {
    /// Ranks this thread holds *with observation enabled*, in acquisition
    /// order. Independent of the debug-assert stack in `lockorder` so the
    /// release build can observe edges too.
    static EDGE_HELD: std::cell::RefCell<Vec<LockRank>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Turn dynamic lock-nesting edge observation on or off.
pub fn observe_lock_edges(on: bool) {
    EDGE_OBSERVE.store(on, Ordering::Relaxed);
}

/// Whether edge observation is currently enabled.
pub fn lock_edges_enabled() -> bool {
    EDGE_OBSERVE.load(Ordering::Relaxed)
}

/// Record an acquisition of `rank`: an edge from every rank this thread
/// already holds to `rank`. Returns true when the acquisition was pushed
/// (observation enabled) — the caller's token must then pair it with
/// [`edge_released`]. Called by `lockorder::acquired`.
pub(crate) fn edge_acquired(rank: LockRank) -> bool {
    if !EDGE_OBSERVE.load(Ordering::Relaxed) {
        return false;
    }
    EDGE_HELD.with(|h| {
        let mut h = h.borrow_mut();
        if !h.is_empty() {
            let mut set = edge_set().lock().unwrap_or_else(|e| e.into_inner());
            for &held in h.iter() {
                set.insert((held, rank));
            }
        }
        h.push(rank);
    });
    true
}

/// Pair of [`edge_acquired`]: pop the most recent occurrence of `rank`
/// from this thread's held stack.
pub(crate) fn edge_released(rank: LockRank) {
    EDGE_HELD.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(pos) = h.iter().rposition(|&r| r == rank) {
            h.remove(pos);
        }
    });
}

/// Every observed nesting edge, sorted by `(from, to)` rank.
pub fn observed_lock_edges() -> Vec<(LockRank, LockRank)> {
    edge_set().lock().unwrap_or_else(|e| e.into_inner()).iter().copied().collect()
}

/// Drop every observed edge (tests / repeated runs).
pub fn clear_observed_lock_edges() {
    edge_set().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Render a set of nesting edges as the `mm-lock-edges/v1` JSON document
/// consumed by `mm-lint crosscheck`. Deterministic: edges are emitted in
/// the caller's order ([`observed_lock_edges`] is already sorted).
pub fn lock_edges_json_from(edges: &[(LockRank, LockRank)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"mm-lock-edges/v1\",\n  \"edges\": [\n");
    for (i, (from, to)) in edges.iter().enumerate() {
        let comma = if i + 1 == edges.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{ \"from\": \"{}\", \"from_rank\": {}, \"to\": \"{}\", \"to_rank\": {} }}{comma}\n",
            from.name(),
            *from as u8,
            to.name(),
            *to as u8,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The observed edge set as `mm-lock-edges/v1` JSON.
pub fn lock_edges_json() -> String {
    lock_edges_json_from(&observed_lock_edges())
}

/// Gini coefficient of a load distribution, in permille (0 = perfectly
/// balanced, 1000 = one node holds everything). Integer arithmetic via
/// u128 accumulation, so the result is exactly deterministic.
///
/// Uses the sorted-rank identity
/// `G = (2 * Σ_i (i+1) * x_i) / (n * Σ x) - (n + 1) / n` scaled by 1000.
pub fn gini_permille(values: &[u64]) -> u64 {
    let n = values.len() as u128;
    if n == 0 {
        return 0;
    }
    let total: u128 = values.iter().map(|&v| v as u128).sum();
    if total == 0 {
        return 0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    let weighted: u128 = sorted.iter().enumerate().map(|(i, &v)| (i as u128 + 1) * v as u128).sum();
    // G*1000 = 1000 * (2*weighted - (n+1)*total) / (n*total), clamped at 0
    // (the numerator is negative only by rounding when perfectly even).
    let num = (2 * weighted).saturating_sub((n + 1) * total) * 1000;
    (num / (n * total)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn timeline_models_waits_only_when_busy() {
        let s = LockStats::detached(LockRank::DmshMeta);
        let tl = LockTimeline::new();
        assert_eq!(s.acquire(&tl, 1000), 0); // idle: no wait
        let hold = modeled_hold_ns(LockRank::DmshMeta);
        assert_eq!(s.acquire(&tl, 1000), hold); // back-to-back: one hold
        assert_eq!(s.acquire(&tl, 1_000_000), 0); // long after: idle again
    }

    #[test]
    fn independent_timelines_do_not_contend() {
        let s = LockStats::detached(LockRank::DirShard);
        let a = LockTimeline::new();
        let b = LockTimeline::new();
        assert_eq!(s.acquire(&a, 500), 0);
        assert_eq!(s.acquire(&b, 500), 0);
    }

    #[test]
    fn sketch_exact_below_capacity() {
        let hh = HeavyHitters::detached(8);
        for page in 0..4u64 {
            hh.record(1, page, page + 1);
        }
        hh.record(1, 3, 10);
        let top = hh.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].page, top[0].count, top[0].err), (3, 14, 0));
        assert_eq!((top[1].page, top[1].count, top[1].err), (2, 3, 0));
        assert_eq!(hh.evictions(), 0);
        assert_eq!(hh.touches(), 1 + 2 + 3 + 4 + 10);
    }

    #[test]
    fn sketch_eviction_keeps_heavy_keys_and_reports_error() {
        let hh = HeavyHitters::detached(2);
        for _ in 0..100 {
            hh.record(0, 0, 1); // the true heavy hitter
        }
        hh.record(0, 1, 1);
        hh.record(0, 2, 1); // evicts key (0,1) (count 1)
        assert_eq!(hh.evictions(), 1);
        let top = hh.top(10);
        assert_eq!((top[0].bucket, top[0].page, top[0].count, top[0].err), (0, 0, 100, 0));
        assert_eq!((top[1].page, top[1].count, top[1].err), (2, 2, 1));
    }

    #[test]
    fn sketch_top_orders_ties_by_key() {
        let hh = HeavyHitters::detached(8);
        hh.record(2, 9, 5);
        hh.record(1, 3, 5);
        let top = hh.top(10);
        assert_eq!((top[0].bucket, top[0].page), (1, 3));
        assert_eq!((top[1].bucket, top[1].page), (2, 9));
    }

    #[test]
    fn sketch_evicts_smallest_key_among_equal_counts() {
        let hh = HeavyHitters::detached(3);
        // Inserted largest key first so neither heap nor hash order helps.
        hh.record(2, 0, 4);
        hh.record(1, 9, 4);
        hh.record(1, 2, 4);
        hh.record(7, 7, 1); // all tied at 4: (1, 2) goes
        let keys = |hh: &HeavyHitters| -> Vec<(u64, u64, u64, u64)> {
            hh.top(3).iter().map(|h| (h.bucket, h.page, h.count, h.err)).collect()
        };
        assert_eq!(keys(&hh), [(7, 7, 5, 4), (1, 9, 4, 0), (2, 0, 4, 0)]);
        hh.record(0, 0, 1); // tied at 4 again: (1, 9) before (2, 0)
        assert_eq!(keys(&hh), [(0, 0, 5, 4), (7, 7, 5, 4), (2, 0, 4, 0)]);
        assert_eq!(hh.evictions(), 2);
    }

    #[test]
    fn sketch_hits_after_insert_do_not_mislead_eviction() {
        // (0, 0) enters the victim index at count 1 and is then bumped
        // past (0, 1): the index entry lags and must be repaired, not
        // trusted.
        let hh = HeavyHitters::detached(2);
        hh.record(0, 0, 1);
        hh.record(0, 1, 3);
        hh.record(0, 0, 9);
        hh.record(0, 2, 1); // evicts (0, 1) at 3, not (0, 0)
        let top = hh.top(2);
        assert_eq!((top[0].page, top[0].count, top[0].err), (0, 10, 0));
        assert_eq!((top[1].page, top[1].count, top[1].err), (2, 4, 3));
    }

    /// The sketch as it was before the victim index: evict by a full
    /// `(count, key)` scan. Kept as the oracle the indexed sketch must
    /// match step for step.
    struct ScanSketch {
        capacity: usize,
        entries: HashMap<SketchKey, (u64, u64)>,
        evictions: u64,
    }

    impl ScanSketch {
        fn new(capacity: usize) -> Self {
            Self { capacity, entries: HashMap::new(), evictions: 0 }
        }

        fn record(&mut self, bucket: u64, page: u64, weight: u64) {
            if let Some((count, _err)) = self.entries.get_mut(&(bucket, page)) {
                *count += weight;
                return;
            }
            if self.entries.len() < self.capacity {
                self.entries.insert((bucket, page), (weight, 0));
                return;
            }
            self.evictions += 1;
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, (c, _))| (*c, **k))
                .map(|(k, (c, _))| (*k, *c))
                .unwrap();
            self.entries.remove(&victim.0);
            self.entries.insert((bucket, page), (victim.1 + weight, victim.1));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Key universes from 0.5x (never evicts) to 32x (nearly every
        /// record evicts) the capacity, `clear()` interleaved: the
        /// indexed sketch and the scanning one agree after every step.
        #[test]
        fn sketch_matches_scan_reference(
            capacity in proptest::sample::select(vec![1usize, 2, 16, 512]),
            universe_halves in proptest::sample::select(vec![1usize, 2, 3, 8, 64]),
            stream in proptest::collection::vec((any::<u64>(), 1u64..=8, 0u32..400), 1..2400),
        ) {
            let universe = (capacity * universe_halves / 2).max(1) as u64;
            let hh = HeavyHitters::detached(capacity);
            let mut reference = ScanSketch::new(capacity);
            let mut evictions_before_clear = 0;
            for &(raw, weight, clear_draw) in stream.iter().take(4 * capacity + 64) {
                if clear_draw == 0 {
                    hh.clear();
                    evictions_before_clear += reference.evictions;
                    reference = ScanSketch::new(capacity);
                }
                let key = raw % universe;
                let (bucket, page) = (key % 3, key / 3);
                hh.record(bucket, page, weight);
                reference.record(bucket, page, weight);
                prop_assert_eq!(hh.top(capacity), ranked(&reference.entries));
                prop_assert_eq!(hh.len(), reference.entries.len());
                prop_assert_eq!(hh.evictions(), evictions_before_clear + reference.evictions);
                let index_len = hh.inner.lock().victims.len();
                prop_assert_eq!(index_len, hh.len());
            }
        }
    }

    /// Serializes the two edge-observation tests: the enable flag is
    /// process-global, so they must not interleave.
    static EDGE_TEST_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn lock_edge_observation_records_nesting() {
        let _g = EDGE_TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        // The edge set and the enable flag are process-global, so this
        // test only asserts *containment* (other tests may add edges
        // concurrently) and runs its nesting on a dedicated thread (a
        // fresh, empty held stack).
        observe_lock_edges(true);
        std::thread::spawn(|| {
            let a = crate::lockorder::acquired(LockRank::VecState);
            let b = crate::lockorder::acquired(LockRank::DmshMeta);
            let c = crate::lockorder::acquired(LockRank::Resource);
            drop(c);
            drop(b);
            drop(a);
            // After release, a fresh acquisition nests under nothing.
            let _d = crate::lockorder::acquired(LockRank::Mailbox);
        })
        .join()
        .unwrap();
        observe_lock_edges(false);
        let edges = observed_lock_edges();
        assert!(edges.contains(&(LockRank::VecState, LockRank::DmshMeta)), "{edges:?}");
        assert!(edges.contains(&(LockRank::VecState, LockRank::Resource)), "{edges:?}");
        assert!(edges.contains(&(LockRank::DmshMeta, LockRank::Resource)), "{edges:?}");
        assert!(!edges.contains(&(LockRank::Resource, LockRank::Mailbox)), "{edges:?}");
    }

    #[test]
    fn lock_edges_disabled_records_nothing() {
        let _g = EDGE_TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!lock_edges_enabled(), "observation must default to off");
        std::thread::spawn(|| {
            let _a = crate::lockorder::acquired(LockRank::RtMeta);
            let _b = crate::lockorder::acquired(LockRank::DirShard);
        })
        .join()
        .unwrap();
        // Cannot assert global emptiness (other tests share the set); no
        // other test nests this pair, so its absence proves the disabled
        // path recorded nothing.
        assert!(!observed_lock_edges().contains(&(LockRank::RtMeta, LockRank::DirShard)));
    }

    #[test]
    fn lock_edges_json_schema_is_pinned() {
        let json = lock_edges_json_from(&[
            (LockRank::VecState, LockRank::DmshMeta),
            (LockRank::DmshMeta, LockRank::Resource),
        ]);
        assert_eq!(
            json,
            "{\n  \"schema\": \"mm-lock-edges/v1\",\n  \"edges\": [\n    \
             { \"from\": \"VecState\", \"from_rank\": 10, \"to\": \"DmshMeta\", \"to_rank\": 50 },\n    \
             { \"from\": \"DmshMeta\", \"from_rank\": 50, \"to\": \"Resource\", \"to_rank\": 80 }\n  ]\n}\n"
        );
        assert_eq!(
            lock_edges_json_from(&[]),
            "{\n  \"schema\": \"mm-lock-edges/v1\",\n  \"edges\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini_permille(&[]), 0);
        assert_eq!(gini_permille(&[0, 0]), 0);
        assert_eq!(gini_permille(&[5, 5, 5, 5]), 0);
        // One of n holds everything: G = (n-1)/n.
        assert_eq!(gini_permille(&[100, 0, 0, 0]), 750);
        // Mild skew lands strictly between.
        let g = gini_permille(&[1, 2, 3, 4]);
        assert!(g > 0 && g < 750, "g={g}");
    }
}
