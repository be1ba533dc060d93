//! The per-node Deep Memory and Storage Hierarchy.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use megammap_sim::{DeviceModel, DeviceSpec, FaultPlan, SimTime, TierKind};
use megammap_telemetry::{
    lockorder, Counter, EventKind, Gauge, LockOrderToken, LockRank, LockStats, LockTimeline, Stage,
    Telemetry, TraceCtx,
};
use parking_lot::{Mutex, MutexGuard};

use crate::blob::{BlobId, BlobMeta};
use crate::rangeset::RangeSet;

/// Errors from DMSH operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmshError {
    /// Every tier (including the slowest) is full; the caller must stage
    /// data out to a persistent backend to make room.
    Full {
        /// Bytes that could not be placed.
        requested: u64,
    },
    /// The blob does not exist.
    NotFound(BlobId),
}

impl fmt::Display for DmshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmshError::Full { requested } => {
                write!(f, "DMSH full: cannot place {requested} bytes on any tier")
            }
            DmshError::NotFound(id) => write!(f, "blob {id} not resident"),
        }
    }
}

impl std::error::Error for DmshError {}

/// Result of placing a blob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PutOutcome {
    /// Virtual time at which the placement I/O (including any demotions it
    /// forced) completes.
    pub done_at: SimTime,
    /// Tier the blob landed on.
    pub tier: TierKind,
}

/// Cached telemetry handles for one tier (no registry lookups on hot paths).
struct TierMetrics {
    occupancy: Gauge,
    demotions: Counter,
    promotions: Counter,
}

/// Per-bucket QoS registration (mm-serve): retention priority plus
/// demotion-attribution counters labelled with the owning tenant.
struct BucketQos {
    priority: u8,
    /// Demotions where a blob of this bucket was the victim.
    suffered: Counter,
    /// Demotions this bucket's placements forced on *other* buckets.
    inflicted: Counter,
}

/// One resident blob: its placement state and its bytes. The tier a blob
/// sits on is a field of the record, so a tier move never touches the data.
struct Record {
    meta: BlobMeta,
    data: Bytes,
}

/// Everything the `meta` mutex guards.
#[derive(Default)]
struct MetaState {
    blobs: BTreeMap<BlobId, Record>,
    /// Per blob, the bytes its backend does not hold yet. An entry exists
    /// exactly when a resident blob has at least one such byte, and its
    /// ranges lie inside `[0, size)`. Tier moves never touch it.
    dirty: BTreeMap<BlobId, RangeSet>,
    /// Tenant QoS by bucket.
    bucket_qos: HashMap<u64, BucketQos>,
}

/// Retention priority of buckets with no QoS registration — the legacy
/// single-tenant mode. Matches the batch tenant class so untagged traffic
/// neither dominates nor starves.
const DEFAULT_PRIORITY: u8 = 1;

/// One node's tier stack plus its resident blobs.
///
/// Tiers are ordered fastest-first. Placement policy (paper §III-D):
/// "The organizer will first attempt to place pages in the fastest tiers if
/// there is available capacity. Pages with lower scores in a tier will be
/// prioritized for eviction to make space for higher-scoring data."
pub struct Dmsh {
    name: String,
    /// Node index for event stamping (0 when unattached).
    node: u32,
    tiers: Vec<DeviceModel>,
    meta: Mutex<MetaState>,
    telemetry: Telemetry,
    tier_metrics: Vec<TierMetrics>,
    /// Bytes physically copied when patching a shared blob — shares the
    /// stack-wide `runtime.bytes_copied` registry cell.
    bytes_copied: Counter,
    /// Injected device faults for this node (chaos harness); first attach
    /// wins, absent = healthy hardware.
    faults: OnceLock<(Arc<FaultPlan>, usize)>,
    /// Tier-retirement epoch already evacuated (lazy degraded-mode
    /// demotion; compared against the plan's epoch at `now`).
    retire_epoch: AtomicU64,
    /// Contention-profiler accounting for the `meta` lock and its
    /// virtual-time watermark.
    meta_stats: LockStats,
    meta_timeline: LockTimeline,
}

/// Every blob id of `bucket`, as a key range of the (sorted) blob tree.
fn bucket_range(bucket: u64) -> std::ops::RangeInclusive<BlobId> {
    BlobId::new(bucket, 0)..=BlobId::new(bucket, u64::MAX)
}

impl Dmsh {
    /// Build a DMSH from device specs (must be sorted fastest-first).
    /// Telemetry handles are minted from a disabled registry; use
    /// [`with_telemetry`](Self::with_telemetry) to report into a shared one.
    pub fn new(name: impl Into<String>, specs: Vec<DeviceSpec>) -> Self {
        Self::with_telemetry(name, specs, Telemetry::disabled(), 0)
    }

    /// Build a DMSH whose tier occupancy, promotion/demotion counters and
    /// movement events report into `telemetry`, stamped with `node`.
    pub fn with_telemetry(
        name: impl Into<String>,
        specs: Vec<DeviceSpec>,
        telemetry: Telemetry,
        node: u32,
    ) -> Self {
        let name = name.into();
        assert!(!specs.is_empty(), "a DMSH needs at least one tier");
        for w in specs.windows(2) {
            assert!(w[0].kind < w[1].kind, "tiers must be ordered fastest-first and unique");
        }
        let tier_metrics = specs
            .iter()
            .map(|spec| {
                let labels = [("node", name.as_str()), ("tier", spec.kind.name())];
                TierMetrics {
                    occupancy: telemetry.gauge("tier", "occupancy_bytes", &labels),
                    demotions: telemetry.counter("tier", "demotions", &labels),
                    promotions: telemetry.counter("tier", "promotions", &labels),
                }
            })
            .collect();
        let tiers = specs
            .into_iter()
            .map(|spec| DeviceModel::new(format!("{name}/{}", spec.kind.name()), spec))
            .collect();
        let meta_stats = telemetry.lock_stats(LockRank::DmshMeta, &[("node", name.as_str())]);
        let bytes_copied = telemetry.counter("runtime", "bytes_copied", &[]);
        Self {
            name,
            node,
            tiers,
            meta: Mutex::new(MetaState::default()),
            telemetry,
            tier_metrics,
            bytes_copied,
            faults: OnceLock::new(),
            retire_epoch: AtomicU64::new(0),
            meta_stats,
            meta_timeline: LockTimeline::new(),
        }
    }

    /// Attach a fault plan: subsequent operations honor device retirements
    /// and fail-slow windows scheduled for `node`. First attach wins.
    pub fn attach_faults(&self, plan: Arc<FaultPlan>, node: usize) {
        self.faults.set((plan, node)).ok();
    }

    fn fault_state(&self) -> Option<&(Arc<FaultPlan>, usize)> {
        self.faults.get().filter(|(p, _)| !p.is_empty())
    }

    /// Whether tier `i` is retired (dead for placement) at `now`.
    fn is_retired(&self, i: usize, now: SimTime) -> bool {
        match self.fault_state() {
            Some((plan, node)) => plan.tier_retired(*node, i, now),
            None => false,
        }
    }

    /// Charge an I/O on tier `i`, applying any fail-slow factor in effect.
    fn tier_io(&self, i: usize, now: SimTime, bytes: u64) -> SimTime {
        let done = self.tiers[i].io(now, bytes);
        if let Some((plan, node)) = self.fault_state() {
            let f = plan.tier_slow_factor(*node, i, now);
            if f > 1 {
                return done.saturating_add(done.saturating_sub(now).saturating_mul(f - 1));
            }
        }
        done
    }

    /// Lazy degraded-mode demotion: if a tier device was retired since the
    /// last check, evacuate its blobs to the next healthy tier (each move
    /// emits a Demotion event and bumps the tier's demotion counter).
    /// Returns the completion time of the evacuation I/O; `now` when there
    /// was nothing to do. Retired devices stay readable while draining
    /// (predictive-failure model); blobs that cannot be placed anywhere
    /// remain on the dying tier and are reported via the
    /// `tier.evacuation_stranded` counter.
    pub fn check_tiers(&self, now: SimTime) -> SimTime {
        let Some((plan, node)) = self.fault_state() else { return now };
        let epoch = plan.tier_retire_epoch(*node, now);
        if self.retire_epoch.load(Ordering::Acquire) >= epoch {
            return now;
        }
        let (mut st, _lo) = self.lock_meta_at(now);
        if self.retire_epoch.load(Ordering::Acquire) >= epoch {
            return now;
        }
        let mut done = now;
        for i in 0..self.tiers.len() {
            if !plan.tier_retired(*node, i, now) {
                continue;
            }
            let ids: Vec<BlobId> =
                st.blobs.iter().filter(|(_, r)| r.meta.tier == i).map(|(id, _)| *id).collect();
            for id in ids {
                match self.demote(&mut st, now, id, None) {
                    Ok(t) => done = done.max(t),
                    Err(_) => {
                        let labels = [("node", self.name.as_str())];
                        self.telemetry.counter("tier", "evacuation_stranded", &labels).inc();
                    }
                }
            }
        }
        self.retire_epoch.store(epoch, Ordering::Release);
        drop(st);
        self.publish_occupancy();
        done
    }

    /// Take the DMSH lock, registering it with the [`lockorder`] layer
    /// (rank [`LockRank::DmshMeta`]).
    fn lock_meta(&self) -> (MutexGuard<'_, MetaState>, LockOrderToken) {
        let g = self.meta.lock();
        self.meta_stats.acquire_untimed();
        (g, lockorder::acquired(LockRank::DmshMeta))
    }

    /// [`lock_meta`](Self::lock_meta) at a known virtual time: also
    /// charges the contention profiler's modeled wait.
    fn lock_meta_at(&self, now: SimTime) -> (MutexGuard<'_, MetaState>, LockOrderToken) {
        let g = self.meta.lock();
        self.meta_stats.acquire(&self.meta_timeline, now);
        (g, lockorder::acquired(LockRank::DmshMeta))
    }

    /// Publish per-tier occupancy gauges (cheap: one store per tier).
    fn publish_occupancy(&self) {
        for (tier, m) in self.tiers.iter().zip(&self.tier_metrics) {
            m.occupancy.set(tier.used());
        }
    }

    /// DMSH name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tiers.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Device model of tier `i`.
    pub fn device(&self, i: usize) -> &DeviceModel {
        &self.tiers[i]
    }

    /// `(kind, used, capacity)` per tier.
    pub fn tier_usage(&self) -> Vec<(TierKind, u64, u64)> {
        self.tiers.iter().map(|t| (t.kind(), t.used(), t.spec().capacity)).collect()
    }

    /// Total resident bytes.
    pub fn used(&self) -> u64 {
        self.tiers.iter().map(|t| t.used()).sum()
    }

    /// Metadata for a blob, if resident.
    pub fn meta_of(&self, id: BlobId) -> Option<BlobMeta> {
        self.meta.lock().blobs.get(&id).map(|r| r.meta)
    }

    /// Whether a blob is resident.
    pub fn contains(&self, id: BlobId) -> bool {
        self.meta.lock().blobs.contains_key(&id)
    }

    /// Resident blob ids of a bucket (sorted).
    pub fn blobs_of(&self, bucket: u64) -> Vec<BlobId> {
        self.meta.lock().blobs.range(bucket_range(bucket)).map(|(id, _)| *id).collect()
    }

    /// Dirty blob ids of a bucket (sorted) — candidates for staging out.
    /// Walks the dirty index only, never the bucket's clean blobs.
    pub fn dirty_blobs_of(&self, bucket: u64) -> Vec<BlobId> {
        self.meta.lock().dirty.range(bucket_range(bucket)).map(|(id, _)| *id).collect()
    }

    /// The byte ranges of `id` its backend does not hold yet; `None` for a
    /// clean or absent blob. A blob placed dirty reports its full extent.
    pub fn dirty_ranges(&self, id: BlobId) -> Option<RangeSet> {
        self.meta.lock().dirty.get(&id).cloned()
    }

    /// Forget a blob's dirty ranges after they were staged to the backend.
    pub fn mark_clean(&self, id: BlobId) {
        self.meta.lock().dirty.remove(&id);
    }

    /// Register a bucket's tenant QoS: its blobs get `priority` for victim
    /// ordering (already-resident blobs adopt it too), and demotions it
    /// suffers or inflicts are attributed to `tenant` in the registry.
    pub fn set_bucket_qos(&self, bucket: u64, priority: u8, tenant: &str) {
        let labels = [("tenant", tenant)];
        let qos = BucketQos {
            priority,
            suffered: self.telemetry.counter("tenant", "scache_demotions_suffered", &labels),
            inflicted: self.telemetry.counter("tenant", "scache_demotions_inflicted", &labels),
        };
        let (mut st, _lo) = self.lock_meta();
        st.bucket_qos.insert(bucket, qos);
        for (_, r) in st.blobs.range_mut(bucket_range(bucket)) {
            r.meta.priority = priority;
        }
    }

    /// Per-tier resident bytes of one bucket (tenant residency reporting;
    /// not a hot path — walks the bucket's key range).
    pub fn bucket_tier_usage(&self, bucket: u64) -> Vec<(TierKind, u64)> {
        let mut out: Vec<(TierKind, u64)> = self.tiers.iter().map(|t| (t.kind(), 0)).collect();
        let st = self.meta.lock();
        for (_, r) in st.blobs.range(bucket_range(bucket)) {
            out[r.meta.tier].1 += r.meta.size;
        }
        out
    }

    /// Pick the victim: the lowest-priority, then lowest-score (tie-break:
    /// smallest id) blob on tier `tier_idx` — batch tenants are demoted
    /// before interactive ones regardless of score.
    fn victim_on(&self, blobs: &BTreeMap<BlobId, Record>, tier_idx: usize) -> Option<BlobId> {
        blobs
            .iter()
            .filter(|(_, r)| r.meta.tier == tier_idx)
            .min_by(|(ia, a), (ib, b)| {
                a.meta
                    .priority
                    .cmp(&b.meta.priority)
                    .then(
                        a.meta
                            .score
                            .partial_cmp(&b.meta.score)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(ia.cmp(ib))
            })
            .map(|(id, _)| *id)
    }

    /// Move `id` to tier `to`: charge the read on its current tier and the
    /// write on `to` starting at `now`, shift its capacity between the two
    /// ledgers and update the record. The bytes stay where they are.
    /// Returns the write's completion time, `Full` if `to` lacks the room.
    fn move_to(&self, rec: &mut Record, now: SimTime, to: usize) -> Result<SimTime, DmshError> {
        let m = &mut rec.meta;
        self.tiers[to].alloc(m.size).map_err(|_| DmshError::Full { requested: m.size })?;
        self.tiers[m.tier].free(m.size);
        let read_done = self.tier_io(m.tier, now, m.size);
        let write_done = self.tier_io(to, read_done, m.size);
        m.tier = to;
        m.tier_kind = self.tiers[to].kind();
        m.ready_at = m.ready_at.max(write_done);
        Ok(write_done)
    }

    /// Demote `id` from its tier to the next one down, charging both
    /// devices starting at `now`. Recursively demotes victims below if the
    /// lower tier is full. `by` names the bucket whose placement forced the
    /// move (demotion attribution); `None` for organizer/evacuation moves.
    /// Returns the completion time.
    fn demote(
        &self,
        st: &mut MetaState,
        now: SimTime,
        id: BlobId,
        by: Option<u64>,
    ) -> Result<SimTime, DmshError> {
        let m = st.blobs.get(&id).ok_or(DmshError::NotFound(id))?.meta;
        let from = m.tier;
        // Demote to the next *healthy* tier down — a retired device cannot
        // accept evacuees.
        let mut to = from + 1;
        while to < self.tiers.len() && self.is_retired(to, now) {
            to += 1;
        }
        if to >= self.tiers.len() {
            return Err(DmshError::Full { requested: m.size });
        }
        let mut done = now;
        // Make room below first (cascading demotion).
        while self.tiers[to].available() < m.size {
            let victim =
                self.victim_on(&st.blobs, to).ok_or(DmshError::Full { requested: m.size })?;
            done = done.max(self.demote(st, now, victim, by)?);
        }
        let rec = st.blobs.get_mut(&id).ok_or(DmshError::NotFound(id))?;
        let write_done = self.move_to(rec, now, to)?;
        self.tier_metrics[from].demotions.inc();
        // The victim's bucket suffered the demotion; the aggressor bucket
        // (when different) inflicted it.
        if let Some(q) = st.bucket_qos.get(&id.bucket) {
            q.suffered.inc();
        }
        if let Some(q) = by.filter(|b| *b != id.bucket).and_then(|b| st.bucket_qos.get(&b)) {
            q.inflicted.inc();
        }
        self.telemetry.span(EventKind::Demotion, now, write_done, self.node, m.size, id.blob);
        Ok(done.max(write_done))
    }

    /// Promote `id` one tier up (used by `organize` for hot blobs).
    fn promote(&self, st: &mut MetaState, now: SimTime, id: BlobId) -> Option<SimTime> {
        let rec = st.blobs.get_mut(&id)?;
        let m = rec.meta;
        if m.tier == 0 || self.is_retired(m.tier - 1, now) {
            return None;
        }
        let write_done = self.move_to(rec, now, m.tier - 1).ok()?;
        self.tier_metrics[m.tier].promotions.inc();
        self.telemetry.span(EventKind::Promotion, now, write_done, self.node, m.size, id.blob);
        Some(write_done)
    }

    /// Place (or overwrite) a blob with `score`, starting the I/O at `now`.
    ///
    /// The blob lands on the fastest tier with capacity; if a faster tier is
    /// full, lower-score blobs are demoted to make room **only if** this
    /// blob outscores them, otherwise placement walks down. Errors with
    /// [`DmshError::Full`] when even the slowest tier cannot take it.
    pub fn put(
        &self,
        now: SimTime,
        id: BlobId,
        data: Bytes,
        score: f32,
        node: usize,
        dirty: bool,
    ) -> Result<PutOutcome, DmshError> {
        let size = data.len() as u64;
        let (mut guard, _lo) = self.lock_meta_at(now);
        let st = &mut *guard;
        let prio = st.bucket_qos.get(&id.bucket).map_or(DEFAULT_PRIORITY, |q| q.priority);
        // A dirty placement hands over bytes the backend has never seen:
        // the whole extent is owed, whatever was recorded before.
        let owed = (dirty && size > 0).then(|| {
            let mut r = RangeSet::new();
            r.insert(0, size);
            r
        });
        // Overwrite in place if resident and same size — unless the blob
        // sits on a retired device, in which case re-place it.
        if let Some(rec) = st.blobs.get_mut(&id) {
            if rec.meta.size == size && !self.is_retired(rec.meta.tier, now) {
                let done = self.tier_io(rec.meta.tier, now, size);
                rec.data = data;
                let e = &mut rec.meta;
                e.score = score;
                e.priority = prio;
                e.score_node = node;
                e.scored_at = now;
                e.ready_at = e.ready_at.max(done);
                let tier = e.tier_kind;
                if let Some(owed) = owed {
                    st.dirty.insert(id, owed);
                }
                self.publish_occupancy();
                return Ok(PutOutcome { done_at: done, tier });
            }
            // Size changed: drop and re-place.
            self.remove_locked(st, id);
        }
        let mut done = now;
        let mut target = None;
        for (i, tier) in self.tiers.iter().enumerate() {
            if self.is_retired(i, now) {
                continue;
            }
            if tier.alloc(size).is_err() {
                // Try to make room by demoting lower-ranked blobs: a
                // newcomer displaces residents its tenant outranks, and
                // among equals the score decides — never the other way
                // around.
                while let Some(victim) = self.victim_on(&st.blobs, i) {
                    let vm = st.blobs[&victim].meta;
                    if vm.priority > prio || (vm.priority == prio && vm.score >= score) {
                        break; // residents outrank the newcomer; go down a tier
                    }
                    match self.demote(st, now, victim, Some(id.bucket)) {
                        Ok(t) => {
                            done = done.max(t);
                            if tier.available() >= size {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                if tier.alloc(size).is_err() {
                    continue;
                }
            }
            target = Some(i);
            break;
        }
        let t = target.ok_or(DmshError::Full { requested: size })?;
        let io_done = self.tier_io(t, done, size);
        let tier_kind = self.tiers[t].kind();
        let meta = BlobMeta {
            tier: t,
            tier_kind,
            size,
            score,
            priority: prio,
            score_node: node,
            scored_at: now,
            ready_at: io_done,
        };
        st.blobs.insert(id, Record { meta, data });
        if let Some(owed) = owed {
            st.dirty.insert(id, owed);
        }
        self.publish_occupancy();
        Ok(PutOutcome { done_at: io_done, tier: tier_kind })
    }

    /// Read a whole blob; returns the bytes and the virtual completion time
    /// of the read (which waits for any in-flight write to the blob). The
    /// untraced whole-blob form of [`get_range`](Self::get_range).
    pub fn get(&self, now: SimTime, id: BlobId) -> Result<(Bytes, SimTime), DmshError> {
        self.get_range(now, id, 0, u64::MAX, TraceCtx::NONE)
    }

    /// [`put`](Self::put) recording a [`Stage::TierWrite`] span under `ctx`
    /// (labelled with the tier the blob landed on).
    #[allow(clippy::too_many_arguments)]
    pub fn put_traced(
        &self,
        now: SimTime,
        id: BlobId,
        data: Bytes,
        score: f32,
        node: usize,
        dirty: bool,
        ctx: TraceCtx,
    ) -> Result<PutOutcome, DmshError> {
        let size = data.len() as u64;
        let out = self.put(now, id, data, score, node, dirty)?;
        self.telemetry.trace_child(
            ctx,
            Stage::TierWrite,
            now,
            out.done_at,
            self.node,
            size,
            out.tier.name(),
            id.blob,
        );
        Ok(out)
    }

    /// Read `[off, off + len)` of a blob (clipped to its size) as a view
    /// sharing the stored allocation — **partial paging**: only the
    /// requested fragment is charged to the device ("MegaMmap pages [can]
    /// contain only the fragments of data needed during a page fault"), and
    /// the whole blob (`0, u64::MAX`) is just the widest extent. The read
    /// waits for any in-flight write to the blob and lands as a
    /// [`Stage::TierRead`] span under `ctx`, labelled with the blob's tier.
    pub fn get_range(
        &self,
        now: SimTime,
        id: BlobId,
        off: u64,
        len: u64,
        ctx: TraceCtx,
    ) -> Result<(Bytes, SimTime), DmshError> {
        let (st, _lo) = self.lock_meta_at(now);
        let rec = st.blobs.get(&id).ok_or(DmshError::NotFound(id))?;
        let m = rec.meta;
        let start = now.max(m.ready_at);
        let off = off.min(m.size);
        let end = off.saturating_add(len).min(m.size);
        let done = self.tier_io(m.tier, start, end - off);
        let data = rec.data.slice(off as usize..end as usize);
        drop(st);
        self.telemetry.trace_child(
            ctx,
            Stage::TierRead,
            start,
            done,
            self.node,
            end - off,
            m.tier_kind.name(),
            id.blob,
        );
        Ok((data, done))
    }

    /// Apply a page diff: overwrite each of `ranges` of a resident blob
    /// with the same offsets of `image`, in one critical section, and
    /// record them as owed to the backend. Errors with
    /// [`DmshError::NotFound`] when the blob is not resident (the caller
    /// installs it instead). A range past the blob's end grows it; the
    /// zero-filled gap below such a range stays clean.
    ///
    /// When this Dmsh holds the only reference to the blob's buffer the
    /// allocation is patched in place; a physical copy happens only while
    /// readers still share the buffer, and is then charged to the
    /// `runtime.bytes_copied` counter. Lands as one [`Stage::TierWrite`]
    /// span under `ctx`.
    pub fn put_ranges(
        &self,
        now: SimTime,
        id: BlobId,
        image: &[u8],
        ranges: &RangeSet,
        ctx: TraceCtx,
    ) -> Result<SimTime, DmshError> {
        let (mut st, _lo) = self.lock_meta_at(now);
        let MetaState { blobs, dirty, .. } = &mut *st;
        let rec = blobs.get_mut(&id).ok_or(DmshError::NotFound(id))?;
        if ranges.is_empty() {
            return Ok(now);
        }
        let mut buf = match std::mem::take(&mut rec.data).try_into_vec() {
            Ok(v) => v,
            Err(shared) => {
                self.bytes_copied.add(shared.len() as u64);
                shared.to_vec()
            }
        };
        let m = &mut rec.meta;
        let owed = dirty.entry(id).or_default();
        let mut done = now;
        for (s, e) in ranges.iter() {
            if e > m.size {
                // Growth may overshoot the tier; allow it (organize will fix).
                self.tiers[m.tier].ledger().alloc_over(e - m.size);
                buf.resize(e as usize, 0);
                m.size = e;
            }
            buf[s as usize..e as usize].copy_from_slice(&image[s as usize..e as usize]);
            owed.insert(s, e);
            // Each range queues behind the one before it.
            done = self.tier_io(m.tier, now.max(m.ready_at), e - s);
            m.ready_at = done;
        }
        rec.data = Bytes::from(buf);
        let tier = m.tier_kind.name();
        drop(st);
        self.publish_occupancy();
        self.telemetry.trace_child(
            ctx,
            Stage::TierWrite,
            now,
            done,
            self.node,
            ranges.covered(),
            tier,
            id.blob,
        );
        Ok(done)
    }

    /// Update a blob's score. "The Data Organizer will take the maximum of
    /// scores if several processes score the same page within a
    /// configurable timeframe" — pass `window_ns` for that merge rule.
    pub fn rescore(&self, now: SimTime, id: BlobId, score: f32, node: usize, window_ns: u64) {
        if let Some(r) = self.meta.lock().blobs.get_mut(&id) {
            let m = &mut r.meta;
            let within_window = now.saturating_sub(m.scored_at) <= window_ns;
            if !within_window || score > m.score {
                m.score = if within_window { m.score.max(score) } else { score };
                m.score_node = node;
                m.scored_at = now;
            }
        }
    }

    fn remove_locked(&self, st: &mut MetaState, id: BlobId) -> Option<Bytes> {
        st.dirty.remove(&id);
        let rec = st.blobs.remove(&id)?;
        self.tiers[rec.meta.tier].free(rec.meta.size);
        Some(rec.data)
    }

    /// Remove a blob entirely; returns its bytes if it was resident.
    pub fn remove(&self, id: BlobId) -> Option<Bytes> {
        let data = self.remove_locked(&mut self.meta.lock(), id);
        self.publish_occupancy();
        data
    }

    /// Wipe the whole scache shard: every blob on every tier is discarded
    /// and its capacity freed. This is the node-crash model — the daemon
    /// holding this DMSH died, so all cached state (including dirty pages)
    /// is gone; recovery restores nonvolatile data from backends and the
    /// intent journal. Returns the number of blobs lost.
    pub fn wipe(&self) -> usize {
        let (mut st, _lo) = self.lock_meta();
        let lost = st.blobs.len();
        st.dirty.clear();
        for rec in std::mem::take(&mut st.blobs).into_values() {
            self.tiers[rec.meta.tier].free(rec.meta.size);
        }
        drop(st);
        self.publish_occupancy();
        lost
    }

    /// Remove every blob of a bucket; returns the count.
    pub fn remove_bucket(&self, bucket: u64) -> usize {
        let ids = self.blobs_of(bucket);
        let mut st = self.meta.lock();
        for id in &ids {
            self.remove_locked(&mut st, *id);
        }
        drop(st);
        self.publish_occupancy();
        ids.len()
    }

    /// The periodic Data-Organizer pass: demote low-score blobs out of
    /// tiers over the `watermark` fraction of capacity, then promote the
    /// highest-score blobs upward into free space. Returns the completion
    /// time of the reorganization I/O.
    pub fn organize(&self, now: SimTime, watermark: f64) -> SimTime {
        let (mut st, _lo) = self.lock_meta_at(now);
        let mut done = now;
        // Demotion: fastest tier first.
        for i in 0..self.tiers.len().saturating_sub(1) {
            let limit = (self.tiers[i].spec().capacity as f64 * watermark) as u64;
            while self.tiers[i].used() > limit {
                let Some(victim) = self.victim_on(&st.blobs, i) else { break };
                match self.demote(&mut st, now, victim, None) {
                    Ok(t) => done = done.max(t),
                    Err(_) => break,
                }
            }
        }
        // Promotion: walk tiers slow → fast; move the hottest blobs up while
        // the faster tier has headroom below the watermark.
        for i in (1..self.tiers.len()).rev() {
            loop {
                let above = &self.tiers[i - 1];
                let limit = (above.spec().capacity as f64 * watermark) as u64;
                let hot = st
                    .blobs
                    .iter()
                    .filter(|(_, r)| r.meta.tier == i && r.meta.score > 0.5)
                    .max_by(|(ia, a), (ib, b)| {
                        a.meta
                            .priority
                            .cmp(&b.meta.priority)
                            .then(
                                a.meta
                                    .score
                                    .partial_cmp(&b.meta.score)
                                    .unwrap_or(std::cmp::Ordering::Equal),
                            )
                            .then(ib.cmp(ia))
                    })
                    .map(|(id, r)| (*id, r.meta.size));
                let Some((id, size)) = hot else { break };
                if above.used() + size > limit {
                    break;
                }
                match self.promote(&mut st, now, id) {
                    Some(t) => done = done.max(t),
                    None => break,
                }
            }
        }
        drop(st);
        self.publish_occupancy();
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megammap_sim::MIB;

    fn dmsh(dram: u64, nvme: u64, hdd: u64) -> Dmsh {
        Dmsh::new(
            "test",
            vec![DeviceSpec::dram(dram), DeviceSpec::nvme(nvme), DeviceSpec::hdd(hdd)],
        )
    }

    fn blob(n: usize) -> Bytes {
        Bytes::from(vec![0xAB; n])
    }

    /// A page image of `len` bytes carrying `fill` over each of `ranges`.
    fn diff(len: usize, ranges: &[(u64, u64)], fill: u8) -> (Vec<u8>, RangeSet) {
        let mut image = vec![0u8; len];
        let mut set = RangeSet::new();
        for &(s, e) in ranges {
            image[s as usize..e as usize].fill(fill);
            set.insert(s, e);
        }
        (image, set)
    }

    #[test]
    fn put_lands_on_fastest_tier() {
        let d = dmsh(MIB, MIB, MIB);
        let out = d.put(0, BlobId::new(1, 0), blob(1000), 0.5, 0, false).unwrap();
        assert_eq!(out.tier, TierKind::Dram);
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier, 0);
    }

    #[test]
    fn get_returns_exact_bytes() {
        let d = dmsh(MIB, MIB, MIB);
        let id = BlobId::new(1, 7);
        let data = Bytes::from((0..=255u8).collect::<Vec<_>>());
        d.put(0, id, data.clone(), 1.0, 0, false).unwrap();
        let (got, t) = d.get(0, id).unwrap();
        assert_eq!(got, data);
        assert!(t > 0);
    }

    #[test]
    fn overflow_demotes_low_scores() {
        let d = dmsh(2048, MIB, MIB);
        // Two cold kilobyte blobs fill DRAM.
        d.put(0, BlobId::new(1, 0), blob(1024), 0.1, 0, false).unwrap();
        d.put(0, BlobId::new(1, 1), blob(1024), 0.2, 0, false).unwrap();
        // A hot blob displaces the coldest one.
        let out = d.put(0, BlobId::new(1, 2), blob(1024), 0.9, 0, false).unwrap();
        assert_eq!(out.tier, TierKind::Dram);
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier_kind, TierKind::Nvme);
        assert_eq!(d.meta_of(BlobId::new(1, 1)).unwrap().tier_kind, TierKind::Dram);
    }

    #[test]
    fn cold_put_goes_below_hot_residents() {
        let d = dmsh(1024, MIB, MIB);
        d.put(0, BlobId::new(1, 0), blob(1024), 0.9, 0, false).unwrap();
        // Newcomer is colder than the resident: lands on NVMe instead.
        let out = d.put(0, BlobId::new(1, 1), blob(1024), 0.1, 0, false).unwrap();
        assert_eq!(out.tier, TierKind::Nvme);
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier_kind, TierKind::Dram);
    }

    #[test]
    fn full_everywhere_errors() {
        let d = dmsh(1024, 1024, 1024);
        d.put(0, BlobId::new(1, 0), blob(1024), 0.5, 0, false).unwrap();
        d.put(0, BlobId::new(1, 1), blob(1024), 0.5, 0, false).unwrap();
        d.put(0, BlobId::new(1, 2), blob(1024), 0.5, 0, false).unwrap();
        let err = d.put(0, BlobId::new(1, 3), blob(1024), 0.9, 0, false).unwrap_err();
        assert!(matches!(err, DmshError::Full { requested: 1024 }));
    }

    #[test]
    fn cascading_demotion_reaches_bottom_tier() {
        let d = dmsh(1024, 1024, MIB);
        d.put(0, BlobId::new(1, 0), blob(1024), 0.1, 0, false).unwrap();
        d.put(0, BlobId::new(1, 1), blob(1024), 0.2, 0, false).unwrap(); // 0 → NVMe? no: 1 lands DRAM? DRAM full→demote 0
        d.put(0, BlobId::new(1, 2), blob(1024), 0.3, 0, false).unwrap();
        // All three resident somewhere, exactly one per occupied tier.
        let mut kinds: Vec<_> =
            (0..3).map(|i| d.meta_of(BlobId::new(1, i)).unwrap().tier_kind).collect();
        kinds.sort();
        assert_eq!(kinds, vec![TierKind::Dram, TierKind::Nvme, TierKind::Hdd]);
        // Hotter blobs sit higher.
        assert_eq!(d.meta_of(BlobId::new(1, 2)).unwrap().tier_kind, TierKind::Dram);
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier_kind, TierKind::Hdd);
    }

    #[test]
    fn partial_read_charges_fragment_only() {
        let d = dmsh(MIB, MIB, MIB);
        let id = BlobId::new(1, 0);
        d.put(0, id, blob(512 * 1024), 1.0, 0, false).unwrap();
        let t0 = d.device(0).timeline().total_bytes();
        let ready = d.meta_of(id).unwrap().ready_at;
        let (frag, _) = d.get_range(ready, id, 1000, 64, TraceCtx::NONE).unwrap();
        assert_eq!(frag.len(), 64);
        assert_eq!(d.device(0).timeline().total_bytes() - t0, 64);
        // A window hanging over the end is clipped; one past it is empty.
        let (tail, _) = d.get_range(ready, id, 512 * 1024 - 8, 64, TraceCtx::NONE).unwrap();
        assert_eq!(tail.len(), 8);
        let (none, _) = d.get_range(ready, id, 1 << 30, 64, TraceCtx::NONE).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn put_ranges_patches_and_dirties() {
        let d = dmsh(MIB, MIB, MIB);
        let id = BlobId::new(2, 0);
        d.put(0, id, Bytes::from(vec![0u8; 64]), 1.0, 0, false).unwrap();
        let (image, ranges) = diff(64, &[(10, 13)], 9);
        d.put_ranges(0, id, &image, &ranges, TraceCtx::NONE).unwrap();
        let (got, _) = d.get(1_000_000_000, id).unwrap();
        assert_eq!(&got[10..13], &[9, 9, 9]);
        assert_eq!(&got[..10], &[0u8; 10]);
        assert_eq!(d.dirty_ranges(id).unwrap().ranges(), &[(10, 13)], "only the patch is owed");
        // A dirty blob of a neighbouring bucket stays out of bucket 2's list.
        d.put(0, BlobId::new(3, 0), Bytes::from(vec![0u8; 64]), 1.0, 0, true).unwrap();
        assert_eq!(d.dirty_blobs_of(2), vec![id]);
        d.mark_clean(id);
        assert!(d.dirty_blobs_of(2).is_empty());
        assert_eq!(d.dirty_blobs_of(3), vec![BlobId::new(3, 0)]);
    }

    #[test]
    fn a_commit_is_one_critical_section_and_absent_blobs_are_not_found() {
        let tel = Telemetry::new();
        let d = Dmsh::with_telemetry("one", vec![DeviceSpec::dram(MIB)], tel.clone(), 0);
        let id = BlobId::new(1, 0);
        let (image, ranges) = diff(64, &[(0, 4), (16, 24), (60, 64)], 7);
        let absent = d.put_ranges(0, id, &image, &ranges, TraceCtx::NONE);
        assert_eq!(absent, Err(DmshError::NotFound(id)));
        d.put(0, id, Bytes::from(vec![1u8; 64]), 1.0, 0, false).unwrap();
        let locks = |t: &Telemetry| t.counter_total("lock", "acquisitions");
        let before = locks(&tel);
        let done = d.put_ranges(10, id, &image, &ranges, TraceCtx::NONE).unwrap();
        assert_eq!(locks(&tel) - before, 1, "three ranges, one lock acquisition");
        // The ranges queue behind one another on the tier: the blob is
        // ready when the last one lands.
        assert_eq!(d.meta_of(id).unwrap().ready_at, done);
        assert_eq!(d.dirty_ranges(id).unwrap().ranges(), &[(0, 4), (16, 24), (60, 64)]);
        let (got, _) = d.get(done, id).unwrap();
        assert_eq!(&got[..4], &[7; 4]);
        assert_eq!(&got[4..16], &[1; 12]);
        assert_eq!(&got[60..], &[7; 4]);
    }

    #[test]
    fn rescore_takes_max_within_window() {
        let d = dmsh(MIB, MIB, MIB);
        let id = BlobId::new(1, 0);
        d.put(0, id, blob(10), 0.5, 0, false).unwrap();
        // Lower score within the window: ignored (max rule).
        d.rescore(10, id, 0.2, 1, 1_000);
        assert_eq!(d.meta_of(id).unwrap().score, 0.5);
        // Higher score within the window: taken.
        d.rescore(20, id, 0.8, 2, 1_000);
        assert_eq!(d.meta_of(id).unwrap().score, 0.8);
        assert_eq!(d.meta_of(id).unwrap().score_node, 2);
        // Outside the window: replaces even if lower.
        d.rescore(1_000_000, id, 0.1, 3, 1_000);
        assert_eq!(d.meta_of(id).unwrap().score, 0.1);
    }

    #[test]
    fn organize_demotes_over_watermark_and_promotes_hot() {
        let d = dmsh(4096, MIB, MIB);
        for i in 0..4 {
            d.put(0, BlobId::new(1, i), blob(1024), 0.1 * (i as f32 + 1.0), 0, false).unwrap();
        }
        assert_eq!(d.device(0).used(), 4096);
        // Demote until DRAM is at most half full.
        d.organize(0, 0.5);
        assert!(d.device(0).used() <= 2048);
        // The coldest blobs moved down.
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier_kind, TierKind::Nvme);
        assert_eq!(d.meta_of(BlobId::new(1, 3)).unwrap().tier_kind, TierKind::Dram);
        // Now heat up a demoted blob and reorganize: it must be promoted.
        d.remove(BlobId::new(1, 3));
        d.remove(BlobId::new(1, 2));
        d.rescore(1, BlobId::new(1, 0), 0.95, 0, u64::MAX);
        d.organize(1, 0.5);
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier_kind, TierKind::Dram);
    }

    #[test]
    fn overwrite_same_size_in_place() {
        let d = dmsh(MIB, MIB, MIB);
        let id = BlobId::new(1, 0);
        d.put(0, id, Bytes::from(vec![1u8; 100]), 0.5, 0, false).unwrap();
        let used = d.used();
        d.put(1, id, Bytes::from(vec![2u8; 100]), 0.6, 0, true).unwrap();
        assert_eq!(d.used(), used, "no double accounting on overwrite");
        let m = d.meta_of(id).unwrap();
        let (got, _) = d.get(m.ready_at, id).unwrap();
        assert_eq!(got[0], 2);
        assert_eq!(d.dirty_ranges(id).unwrap().ranges(), &[(0, 100)], "a dirty put owes it all");
    }

    #[test]
    fn remove_bucket_clears_and_frees() {
        let d = dmsh(MIB, MIB, MIB);
        for i in 0..5 {
            d.put(0, BlobId::new(3, i), blob(100), 0.5, 0, false).unwrap();
        }
        d.put(0, BlobId::new(4, 0), blob(100), 0.5, 0, false).unwrap();
        assert_eq!(d.blobs_of(3).len(), 5);
        assert_eq!(d.remove_bucket(3), 5);
        assert_eq!(d.blobs_of(3).len(), 0);
        assert!(d.contains(BlobId::new(4, 0)));
        assert_eq!(d.used(), 100);
    }

    #[test]
    fn retired_tier_evacuates_and_rejects_placement() {
        let d = dmsh(MIB, MIB, MIB);
        let id = BlobId::new(1, 0);
        d.put(0, id, blob(1000), 0.9, 0, true).unwrap();
        assert_eq!(d.meta_of(id).unwrap().tier_kind, TierKind::Dram);
        // DRAM dies (predictive failure) at t=100.
        d.attach_faults(FaultPlan::new(5).retire_tier(0, 0, 100).build(), 0);
        let done = d.check_tiers(200);
        assert!(done > 200, "evacuation charges I/O");
        let m = d.meta_of(id).unwrap();
        assert_eq!(m.tier_kind, TierKind::Nvme, "blob demoted off the dead device");
        assert_eq!(
            d.dirty_ranges(id).unwrap().ranges(),
            &[(0, 1000)],
            "dirty ranges survive evacuation"
        );
        let (got, _) = d.get(m.ready_at, id).unwrap();
        assert_eq!(got, blob(1000));
        assert_eq!(d.device(0).used(), 0);
        // New placements skip the retired tier.
        let out = d.put(300, BlobId::new(1, 1), blob(64), 0.9, 0, false).unwrap();
        assert_eq!(out.tier, TierKind::Nvme);
        // A second check is a no-op (epoch already evacuated).
        assert_eq!(d.check_tiers(400), 400);
    }

    #[test]
    fn slow_tier_multiplies_service_time() {
        let fast = dmsh(MIB, MIB, MIB);
        let slow = dmsh(MIB, MIB, MIB);
        slow.attach_faults(FaultPlan::new(5).slow_tier(0, 0, 0, 1_000_000_000, 10).build(), 0);
        let id = BlobId::new(1, 0);
        let a = fast.put(0, id, blob(100_000), 0.5, 0, false).unwrap();
        let b = slow.put(0, id, blob(100_000), 0.5, 0, false).unwrap();
        assert_eq!(b.done_at, a.done_at * 10, "fail-slow factor applies");
    }

    #[test]
    fn wipe_discards_everything() {
        let d = dmsh(2048, MIB, MIB);
        for i in 0..4 {
            d.put(0, BlobId::new(1, i), blob(1024), 0.5, 0, i % 2 == 0).unwrap();
        }
        assert!(d.used() > 0);
        assert_eq!(d.wipe(), 4);
        assert_eq!(d.used(), 0);
        assert!(d.dirty_blobs_of(1).is_empty());
        assert!(d.get(0, BlobId::new(1, 0)).is_err());
        // The shard keeps working after the "restart".
        d.put(10, BlobId::new(2, 0), blob(10), 0.5, 0, false).unwrap();
        assert!(d.contains(BlobId::new(2, 0)));
    }

    #[test]
    fn priority_buckets_resist_demotion() {
        let d = dmsh(2048, MIB, MIB);
        d.set_bucket_qos(1, 2, "web"); // interactive
        d.set_bucket_qos(2, 0, "bg"); // background
                                      // A cold interactive blob and a hot background blob fill DRAM.
        d.put(0, BlobId::new(1, 0), blob(1024), 0.1, 0, false).unwrap();
        d.put(0, BlobId::new(2, 0), blob(1024), 0.9, 0, false).unwrap();
        // An untagged (batch-priority) newcomer displaces the background
        // blob despite its higher score — never the interactive one.
        let out = d.put(0, BlobId::new(3, 0), blob(1024), 0.5, 0, false).unwrap();
        assert_eq!(out.tier, TierKind::Dram);
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier_kind, TierKind::Dram);
        assert_eq!(d.meta_of(BlobId::new(2, 0)).unwrap().tier_kind, TierKind::Nvme);
    }

    #[test]
    fn low_priority_put_cannot_displace_interactive() {
        let d = dmsh(1024, MIB, MIB);
        d.set_bucket_qos(1, 2, "web");
        d.set_bucket_qos(2, 0, "bg");
        d.put(0, BlobId::new(1, 0), blob(1024), 0.0, 0, false).unwrap();
        // Even a maximally hot background blob walks down a tier.
        let out = d.put(0, BlobId::new(2, 0), blob(1024), 1.0, 0, false).unwrap();
        assert_eq!(out.tier, TierKind::Nvme);
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().tier_kind, TierKind::Dram);
    }

    #[test]
    fn qos_registration_updates_resident_blobs() {
        let d = dmsh(2048, MIB, MIB);
        d.put(0, BlobId::new(1, 0), blob(100), 0.5, 0, false).unwrap();
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().priority, 1);
        d.set_bucket_qos(1, 2, "web");
        assert_eq!(d.meta_of(BlobId::new(1, 0)).unwrap().priority, 2);
        // Later placements of the bucket adopt it; untagged buckets stay batch.
        d.put(0, BlobId::new(1, 1), blob(100), 0.5, 0, false).unwrap();
        d.put(0, BlobId::new(2, 0), blob(100), 0.5, 0, false).unwrap();
        assert_eq!(d.meta_of(BlobId::new(1, 1)).unwrap().priority, 2);
        assert_eq!(d.meta_of(BlobId::new(2, 0)).unwrap().priority, DEFAULT_PRIORITY);
    }

    #[test]
    fn demotion_attribution_counters() {
        let tel = Telemetry::new();
        let d = Dmsh::with_telemetry(
            "qos",
            vec![DeviceSpec::dram(1024), DeviceSpec::nvme(MIB), DeviceSpec::hdd(MIB)],
            tel.clone(),
            0,
        );
        d.set_bucket_qos(1, 2, "web");
        d.set_bucket_qos(2, 1, "etl");
        d.put(0, BlobId::new(2, 0), blob(1024), 0.2, 0, false).unwrap();
        // The interactive put forces the batch blob down: etl suffered it,
        // web inflicted it.
        d.put(0, BlobId::new(1, 0), blob(1024), 0.5, 0, false).unwrap();
        let suffered = tel.counter("tenant", "scache_demotions_suffered", &[("tenant", "etl")]);
        let inflicted = tel.counter("tenant", "scache_demotions_inflicted", &[("tenant", "web")]);
        assert_eq!(suffered.get(), 1);
        assert_eq!(inflicted.get(), 1);
        // Self-inflicted demotions are not counted as inflicted.
        let self_inflicted =
            tel.counter("tenant", "scache_demotions_inflicted", &[("tenant", "etl")]);
        assert_eq!(self_inflicted.get(), 0);
    }

    #[test]
    fn bucket_tier_usage_reports_per_tier_bytes() {
        let d = dmsh(2048, MIB, MIB);
        d.put(0, BlobId::new(1, 0), blob(1024), 0.9, 0, false).unwrap();
        d.put(0, BlobId::new(1, 1), blob(1024), 0.8, 0, false).unwrap();
        d.put(0, BlobId::new(1, 2), blob(1024), 0.7, 0, false).unwrap(); // walks down to NVMe
        d.put(0, BlobId::new(2, 0), blob(512), 0.5, 0, false).unwrap();
        let usage = d.bucket_tier_usage(1);
        assert_eq!(usage.iter().map(|(_, b)| b).sum::<u64>(), 3072);
        assert_eq!(usage[0].0, TierKind::Dram);
        assert_eq!(usage[0].1, 2048);
        let other = d.bucket_tier_usage(2);
        assert_eq!(other.iter().map(|(_, b)| b).sum::<u64>(), 512);
    }

    #[test]
    fn inflight_write_delays_read() {
        let d = dmsh(MIB, MIB, MIB);
        let id = BlobId::new(1, 0);
        let out = d.put(0, id, blob(512 * 1024), 1.0, 0, false).unwrap();
        // A read issued at time 0 cannot complete before the write did.
        let (_, rt) = d.get(0, id).unwrap();
        assert!(rt > out.done_at);
    }
}
