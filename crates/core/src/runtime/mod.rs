//! The MegaMmap runtime: scache management and MemoryTask scheduling.
//!
//! "Each application process is linked to the MegaMmap library, which
//! internally stores the pcache and a queue for submitting MemoryTasks to
//! the MegaMmap runtime, which is a process running separate from
//! applications that manages the scache."
//!
//! In this reproduction the runtime is a shared object: one [`NodeRt`] per
//! simulated node holds the node's [`Dmsh`] (the tiered scache shard) and
//! its fault shards. MemoryTasks are not queued to real threads; instead a
//! task submitted at virtual time *t* reserves its run queue's busy-until
//! timeline (giving per-page ordering and low/high-latency QoS separation)
//! and the device/network timelines after it — the same arithmetic, without
//! nondeterministic thread scheduling. The *data* movement is performed
//! eagerly and is entirely real.
//!
//! Three structural mechanisms keep the hot fault path fast (see
//! `DESIGN.md` §12):
//!
//! - **Sharding** — pages hash to [`directory::SHARDS`] fault shards; a
//!   shard owns its directory slice, its apply lock and its run-queue
//!   assignment, so a fault touches only shard-local state.
//! - **Batched crossings** — a coalesced run crosses pcache→runtime once
//!   and dispatches per `(holder, shard)` group as one shard-batch.
//! - **Ownership fast path** — a rank that owns a page (single writer)
//!   and is its home serves faults and commits without any runtime
//!   crossing at all ([`Runtime::read_page_fast`]); ownership transfer
//!   falls back to the dispatched slow path.

pub mod directory;
pub mod journal;
pub(crate) mod shard;

#[cfg(all(test, feature = "loom-model"))]
mod loom_tests;
#[cfg(test)]
mod proptests;
pub mod stager;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use megammap_cluster::{rendezvous_hash, Cluster};
use megammap_formats::{Backends, DataObject, DataUrl, Scheme};
use megammap_sim::{CollectiveShape, CpuModel, NetworkModel, SharedResource, SimTime};
use megammap_telemetry::{
    lockorder, Counter, EventKind, Histogram, LockRank, LockStats, Stage, Telemetry, TraceCtx,
};
use megammap_tiered::{BlobId, Dmsh, DmshError};
use parking_lot::Mutex;

use crate::config::RuntimeConfig;
use crate::error::{MmError, Result};
use crate::policy::{Policy, PolicyCell};
use crate::rangeset::RangeSet;
use crate::tenant::TenantLedger;
use crate::tx::splitmix64;

/// Fixed cost of constructing a MemoryTask in the library (ns). A batched
/// crossing pays it once per run; the ownership fast path (no MemoryTask)
/// not at all.
const TASK_CONSTRUCT_NS: u64 = 500;
/// Run-queue per-task dispatch latency (ns). Workers serialize *dispatch*
/// (per-task latency); the byte-proportional cost of moving data is
/// charged on the device and network timelines, not here — charging it
/// twice would both double-count and let fast-running processes park large
/// future reservations that virtually-earlier operations of other
/// processes would spuriously queue behind (hence bandwidth 0 in
/// [`shard::build_shards`]).
pub(crate) const WORKER_DISPATCH_NS: u64 = 2_000;

/// Shared metadata of one vector.
pub struct VectorMeta {
    /// Unique vector id (the blob bucket).
    pub id: u64,
    /// The user key / URL string.
    pub key: String,
    /// Element size in bytes.
    pub elem_size: u64,
    /// Effective page size in bytes (a multiple of `elem_size`).
    pub page_size: u64,
    /// Current length in elements.
    pub len: AtomicU64,
    /// Current coherence phase.
    pub policy: PolicyCell,
    /// Persistent backend, if nonvolatile.
    pub backend: Option<Arc<dyn DataObject>>,
    /// Whether the vector persists past destruction of the runtime.
    pub nonvolatile: bool,
    /// Virtual time of the last active-stager pass over this vector.
    pub last_stage: AtomicU64,
    /// Write-ahead intent journal (`RuntimeConfig::journal`, nonvolatile
    /// vectors only): every acknowledged write is logged before the crash
    /// horizon so node crashes and torn flushes replay to exact contents.
    pub journal: Option<Arc<journal::IntentJournal>>,
}

impl VectorMeta {
    /// Length in elements.
    pub fn len_elems(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len_elems() * self.elem_size
    }

    /// Number of pages covering the current length.
    pub fn num_pages(&self) -> u64 {
        self.len_bytes().div_ceil(self.page_size)
    }

    /// Elements per page.
    pub fn elems_per_page(&self) -> u64 {
        self.page_size / self.elem_size
    }
}

/// Per-node runtime state: the scache shard and the fault shards.
pub struct NodeRt {
    /// The node's tiered scache shard.
    pub dmsh: Dmsh,
    /// The node's fault shards: per-shard run queues, apply locks and
    /// queue-delay accounting ([`shard::ShardRt`]). A page's shard is
    /// [`directory::shard_of`] — the same slice that holds its directory
    /// entry, so the hot fault path touches only shard-local state.
    shards: Vec<shard::ShardRt>,
    last_organize: AtomicU64,
    /// Page reads/commits this node served (`scope.node_touches{node=N}`)
    /// — the per-node load attribution behind `mm_scope`'s imbalance
    /// Gini.
    touches: Counter,
}

/// Aggregate runtime statistics (diagnostics + benchmark output).
///
/// Each field is a handle on a counter in the cluster-wide
/// [`Telemetry`] registry, so the same numbers surface in metric
/// snapshots, CSV/JSON exports and `mm_report` without double counting.
#[derive(Debug)]
pub struct Stats {
    /// Synchronous page faults served (`runtime.faults`).
    pub faults: Counter,
    /// Prefetch (asynchronous) page reads issued (`prefetch.issued`).
    pub prefetches: Counter,
    /// Reads served from a remote node (`runtime.remote_reads`).
    pub remote_reads: Counter,
    /// Reads served from a local replica or local home (`runtime.local_reads`).
    pub local_reads: Counter,
    /// Writer tasks executed (`runtime.writes`).
    pub writes: Counter,
    /// Bytes staged in from backends (`stager.staged_in_bytes`).
    pub staged_in: Counter,
    /// Bytes staged out to backends (`stager.staged_out_bytes`).
    pub staged_out: Counter,
    /// Bytes appended to intent journals (`stager.journal_bytes`).
    pub journal_bytes: Counter,
    /// Tasks routed to the low-latency pool (`runtime.tasks_low`).
    pub tasks_low: Counter,
    /// Tasks routed to the high-latency pool (`runtime.tasks_high`).
    pub tasks_high: Counter,
    /// Replicas invalidated on phase changes (`runtime.invalidations`).
    pub invalidations: Counter,
    /// Page-payload bytes physically copied on the fault/commit path
    /// (`runtime.bytes_copied`). Clean faults and full-page commits share
    /// refcounted buffers, so this counts only copy-on-write promotions of
    /// still-shared pages and scache patches of shared blobs — the proof
    /// that the zero-copy pipeline stays zero-copy.
    pub bytes_copied: Counter,
    /// Page-payload bytes pulled in by synchronous demand faults — demand
    /// page plus any coalesced neighbours, but not speculative prefetch
    /// windows (`runtime.fault_bytes`). Dividing a delta of this by a query
    /// count gives bytes-faulted-per-query (mm_ann's thrash observable).
    pub fault_bytes: Counter,
    /// Extra pages served by a coalesced (ranged) fault — contiguous pages
    /// that shared one MemoryTask dispatch instead of paying their own
    /// (`runtime.coalesced_faults`).
    pub coalesced: Counter,
    /// Faults/commits served on the single-writer ownership fast path —
    /// no directory message, no run-queue dispatch, no runtime crossing
    /// (`runtime.owner_fast_hits`).
    pub owner_hits: Counter,
    /// Faults/commits that had to take the dispatched slow path: the page
    /// was unowned, owned by another rank (ownership transfer), or homed
    /// remotely (`runtime.owner_fast_misses`).
    pub owner_misses: Counter,
    /// Batched pcache→runtime crossings: coalesced runs that entered the
    /// runtime once and dispatched as shard-batches instead of paying a
    /// per-page crossing (`runtime.batched_crossings`).
    pub batched: Counter,
    /// Virtual queueing delay (ns) between task submission and worker
    /// dispatch — the simulation's observable for worker-pool queue depth.
    pub queue_delay_ns: Histogram,
    /// Synchronous faults broken down by the coherence phase that was
    /// active when they fired (`runtime.faults_by_policy{policy=...}`),
    /// indexed by [`Policy::index`].
    pub faults_by_policy: [Counter; Policy::COUNT],
    /// Owner-fast (counted-not-traced) faults broken down by policy
    /// (`runtime.owner_fast_hits_by_policy{policy=...}`) — what lets
    /// `critical_path_report` reconcile traced roots against the tenant
    /// fault histograms.
    pub owner_hits_by_policy: [Counter; Policy::COUNT],
    /// Writer tasks broken down by policy
    /// (`runtime.writes_by_policy{policy=...}`).
    pub writes_by_policy: [Counter; Policy::COUNT],
    /// Bytes staged out to backends broken down by policy
    /// (`stager.staged_out_bytes_by_policy{policy=...}`).
    pub staged_out_by_policy: [Counter; Policy::COUNT],
}

impl Stats {
    fn new(t: &Telemetry) -> Self {
        Self {
            faults: t.counter("runtime", "faults", &[]),
            prefetches: t.counter("prefetch", "issued", &[]),
            remote_reads: t.counter("runtime", "remote_reads", &[]),
            local_reads: t.counter("runtime", "local_reads", &[]),
            writes: t.counter("runtime", "writes", &[]),
            staged_in: t.counter("stager", "staged_in_bytes", &[]),
            staged_out: t.counter("stager", "staged_out_bytes", &[]),
            journal_bytes: t.counter("stager", "journal_bytes", &[]),
            tasks_low: t.counter("runtime", "tasks_low", &[]),
            tasks_high: t.counter("runtime", "tasks_high", &[]),
            invalidations: t.counter("runtime", "invalidations", &[]),
            bytes_copied: t.counter("runtime", "bytes_copied", &[]),
            fault_bytes: t.counter("runtime", "fault_bytes", &[]),
            coalesced: t.counter("runtime", "coalesced_faults", &[]),
            owner_hits: t.counter("runtime", "owner_fast_hits", &[]),
            owner_misses: t.counter("runtime", "owner_fast_misses", &[]),
            batched: t.counter("runtime", "batched_crossings", &[]),
            queue_delay_ns: t.histogram(
                "runtime",
                "queue_delay_ns",
                &[],
                &shard::QUEUE_DELAY_BOUNDS,
            ),
            faults_by_policy: Policy::ALL
                .map(|p| t.counter("runtime", "faults_by_policy", &[("policy", p.name())])),
            owner_hits_by_policy: Policy::ALL.map(|p| {
                t.counter("runtime", "owner_fast_hits_by_policy", &[("policy", p.name())])
            }),
            writes_by_policy: Policy::ALL
                .map(|p| t.counter("runtime", "writes_by_policy", &[("policy", p.name())])),
            staged_out_by_policy: Policy::ALL.map(|p| {
                t.counter("stager", "staged_out_bytes_by_policy", &[("policy", p.name())])
            }),
        }
    }
}

/// A snapshot of [`Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`Stats::faults`].
    pub faults: u64,
    /// See [`Stats::prefetches`].
    pub prefetches: u64,
    /// See [`Stats::remote_reads`].
    pub remote_reads: u64,
    /// See [`Stats::local_reads`].
    pub local_reads: u64,
    /// See [`Stats::writes`].
    pub writes: u64,
    /// See [`Stats::staged_in`].
    pub staged_in: u64,
    /// See [`Stats::staged_out`].
    pub staged_out: u64,
    /// See [`Stats::tasks_low`].
    pub tasks_low: u64,
    /// See [`Stats::tasks_high`].
    pub tasks_high: u64,
    /// See [`Stats::invalidations`].
    pub invalidations: u64,
    /// See [`Stats::bytes_copied`].
    pub bytes_copied: u64,
    /// See [`Stats::fault_bytes`].
    pub fault_bytes: u64,
    /// See [`Stats::coalesced`].
    pub coalesced_faults: u64,
    /// See [`Stats::owner_hits`].
    pub owner_fast_hits: u64,
    /// See [`Stats::owner_misses`].
    pub owner_fast_misses: u64,
    /// See [`Stats::batched`].
    pub batched_crossings: u64,
}

/// What a writer MemoryTask carries to a page's home.
pub(crate) enum Payload<'a> {
    /// A fully rewritten page: a refcounted view of the committing
    /// process's pcache buffer (see [`PageBuf::freeze`]
    /// (crate::pagebuf::PageBuf::freeze)), so a local install shares one
    /// allocation between pcache and scache — zero copies.
    Full(Bytes),
    /// A page image and the ranges of it that are dirty; only those bytes
    /// are trusted.
    Diff(&'a [u8], &'a RangeSet),
}

impl Payload<'_> {
    /// Bytes the commit moves.
    pub(crate) fn covered(&self) -> u64 {
        match self {
            Payload::Full(data) => data.len() as u64,
            Payload::Diff(_, dirty) => dirty.covered(),
        }
    }

    /// The page to install when its home holds no copy yet. A diff merges
    /// only its trusted (dirty) ranges into a zero base, so two processes
    /// writing disjoint halves of one page never clobber each other with
    /// stale bytes.
    fn into_page(self) -> Bytes {
        match self {
            Payload::Full(data) => data,
            Payload::Diff(image, dirty) => {
                let mut base = vec![0u8; image.len()];
                for (s, e) in dirty.iter() {
                    base[s as usize..e as usize].copy_from_slice(&image[s as usize..e as usize]);
                }
                Bytes::from(base)
            }
        }
    }
}

struct RuntimeInner {
    cfg: RuntimeConfig,
    nodes: Vec<NodeRt>,
    net: NetworkModel,
    /// The shared parallel-filesystem backend device.
    pfs: SharedResource,
    cpu: CpuModel,
    backends: Backends,
    vectors: Mutex<HashMap<String, Arc<VectorMeta>>>,
    next_id: AtomicU64,
    dir: directory::Directory,
    stats: Stats,
    /// Contention accounting for the blocking apply-lock path
    /// (`lock.*{lock=ApplyShard}`).
    apply_stats: LockStats,
    /// Contention accounting for the nonblocking victim-drain apply-lock
    /// path (`lock.*{lock=ApplyVictim}`); `contended` counts try-lock
    /// refusals (busy victims skipped by a drain round).
    victim_stats: LockStats,
    /// Contention accounting for the shared PFS device
    /// (`lock.*{lock=Resource,resource=pfs}`).
    pfs_stats: LockStats,
    telemetry: Telemetry,
    /// Tenant registry for multi-tenant serving (mm-serve); empty in the
    /// legacy single-tenant mode.
    tenants: TenantLedger,
    /// Per-node crash epochs this runtime has recovered from (compared
    /// against the fault plan's epoch at the current virtual time).
    crash_epochs: Vec<AtomicU64>,
    /// Serializes crash recovery so exactly one observer per epoch wipes
    /// the shard and purges the directory.
    recovery: Mutex<()>,
}

/// Handle on the MegaMmap runtime (cheaply cloneable).
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// Deploy a runtime over a simulated cluster.
    pub fn new(cluster: &Cluster, cfg: RuntimeConfig) -> Self {
        Self::with_backends(cluster, cfg, Backends::new())
    }

    /// Deploy over an existing backend set — the crash-recovery restart
    /// path: a fresh runtime attaching to the objects (and journals) a
    /// previous incarnation left behind. `Backends` is cheaply cloneable
    /// shared state, so tests hand the same instance to both lives.
    pub fn with_backends(cluster: &Cluster, cfg: RuntimeConfig, backends: Backends) -> Self {
        cfg.validate().expect("invalid runtime config");
        let telemetry = cluster.telemetry().clone();
        let nodes: Vec<NodeRt> = (0..cluster.spec().nodes)
            .map(|n| NodeRt {
                dmsh: Dmsh::with_telemetry(
                    format!("node{n}"),
                    cfg.tiers.clone(),
                    telemetry.clone(),
                    n as u32,
                ),
                shards: shard::build_shards(n, &cfg, &telemetry),
                last_organize: AtomicU64::new(0),
                touches: telemetry.counter("scope", "node_touches", &[("node", &n.to_string())]),
            })
            .collect();
        let nnodes = nodes.len();
        if let Some(plan) = cfg.fault_plan() {
            cluster.net().attach_faults(plan.clone());
            for (n, rt) in nodes.iter().enumerate() {
                rt.dmsh.attach_faults(plan.clone(), n);
            }
        }
        Self {
            inner: Arc::new(RuntimeInner {
                pfs: SharedResource::new("pfs", cfg.pfs_latency_ns, cfg.pfs_bandwidth),
                nodes,
                net: cluster.net().clone(),
                cpu: cluster.spec().cpu,
                backends,
                vectors: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                dir: directory::Directory::with_telemetry(&telemetry),
                stats: Stats::new(&telemetry),
                apply_stats: telemetry.lock_stats(LockRank::ApplyShard, &[]),
                victim_stats: telemetry.lock_stats(LockRank::ApplyVictim, &[]),
                pfs_stats: telemetry.lock_stats(LockRank::Resource, &[("resource", "pfs")]),
                telemetry,
                tenants: TenantLedger::new(),
                cfg,
                crash_epochs: (0..nnodes).map(|_| AtomicU64::new(0)).collect(),
                recovery: Mutex::new(()),
            }),
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &RuntimeConfig {
        &self.inner.cfg
    }

    /// Backend dispatch (exposed so tests/workloads can pre-populate
    /// `mem://` or `obj://` objects).
    pub fn backends(&self) -> &Backends {
        &self.inner.backends
    }

    /// Number of nodes the runtime spans.
    pub fn nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Per-node runtime state (diagnostics).
    pub fn node(&self, n: usize) -> &NodeRt {
        &self.inner.nodes[n]
    }

    /// Snapshot of the statistics counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.inner.stats;
        StatsSnapshot {
            faults: s.faults.get(),
            prefetches: s.prefetches.get(),
            remote_reads: s.remote_reads.get(),
            local_reads: s.local_reads.get(),
            writes: s.writes.get(),
            staged_in: s.staged_in.get(),
            staged_out: s.staged_out.get(),
            tasks_low: s.tasks_low.get(),
            tasks_high: s.tasks_high.get(),
            invalidations: s.invalidations.get(),
            bytes_copied: s.bytes_copied.get(),
            fault_bytes: s.fault_bytes.get(),
            coalesced_faults: s.coalesced.get(),
            owner_fast_hits: s.owner_hits.get(),
            owner_fast_misses: s.owner_misses.get(),
            batched_crossings: s.batched.get(),
        }
    }

    /// Worst per-shard queue-delay p99 (ns) across `node`'s fault shards —
    /// the mm-bench/v2 `shard_queue_delay_p99_ns` observable.
    pub fn shard_queue_delay_p99(&self, node: usize) -> u64 {
        self.inner.nodes[node]
            .shards
            .iter()
            .map(|s| s.queue_delay.snapshot().percentile(990))
            .max()
            .unwrap_or(0)
    }

    /// The cluster-wide telemetry registry this runtime reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The tenant registry (mm-serve memory QoS). Register tenants here,
    /// then open vectors with [`VecOptions::tenant`](crate::VecOptions) to
    /// attribute their residency, faults, and placement priority.
    pub fn tenants(&self) -> &TenantLedger {
        &self.inner.tenants
    }

    /// Propagate a vector's tenant QoS to every scache shard: its bucket's
    /// blobs get `priority` for victim ordering and placement, and tier
    /// demotions are attributed to `tenant` in the telemetry registry.
    pub(crate) fn set_vector_qos(&self, vec_id: u64, priority: u8, tenant: &str) {
        for n in &self.inner.nodes {
            n.dmsh.set_bucket_qos(vec_id, priority, tenant);
        }
    }

    /// Peak DRAM-tier usage across nodes (the DSM's memory footprint).
    pub fn peak_scache_dram(&self) -> u64 {
        self.inner.nodes.iter().map(|n| n.dmsh.device(0).ledger().peak()).max().unwrap_or(0)
    }

    // ---- vector registry -------------------------------------------------

    /// Open or create the vector named by `key`. Idempotent across
    /// processes: the first caller initializes, later callers attach.
    pub(crate) fn open_or_create_vector(
        &self,
        key: &str,
        elem_size: u64,
        page_size_hint: Option<u64>,
        initial_len: Option<u64>,
    ) -> Result<Arc<VectorMeta>> {
        let mut reg = self.inner.vectors.lock();
        let _lo = lockorder::acquired(LockRank::RtMeta);
        if let Some(meta) = reg.get(key) {
            if meta.elem_size != elem_size {
                return Err(MmError::Incompatible(format!(
                    "vector {key:?} has element size {}, requested {elem_size}",
                    meta.elem_size
                )));
            }
            return Ok(meta.clone());
        }
        let url = DataUrl::parse(key)?;
        let nonvolatile = url.scheme != Scheme::Mem;
        let backend: Option<Arc<dyn DataObject>> =
            if nonvolatile { Some(Arc::from(self.inner.backends.open(&url)?)) } else { None };
        // Open the write-ahead intent journal and replay any intents a
        // previous incarnation (crashed runtime) left behind, *before*
        // reading the backend length — recovered appends count.
        let journal = match (&backend, self.inner.cfg.journal && !key.ends_with(".wal")) {
            (Some(b), true) => {
                let j = journal::IntentJournal::open(&self.inner.backends, key)?;
                let sum = j.replay(b.as_ref())?;
                if sum.records > 0 {
                    self.inner
                        .telemetry
                        .counter("chaos", "journal_replayed_bytes", &[])
                        .add(sum.bytes);
                }
                j.truncate()?;
                Some(Arc::new(j))
            }
            _ => None,
        };
        let cfg_ps = page_size_hint.unwrap_or(self.inner.cfg.page_size);
        // Effective page size: the largest multiple of elem_size that fits,
        // so elements never straddle pages.
        let page_size = (cfg_ps / elem_size).max(1) * elem_size;
        let mut len = initial_len.unwrap_or(0);
        if let Some(b) = &backend {
            let blen = b.len().map_err(MmError::Io)?;
            if blen > 0 {
                len = blen / elem_size;
            }
        }
        let meta = Arc::new(VectorMeta {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            key: key.to_string(),
            elem_size,
            page_size,
            len: AtomicU64::new(len),
            policy: PolicyCell::default(),
            backend,
            nonvolatile,
            last_stage: AtomicU64::new(0),
            journal,
        });
        reg.insert(key.to_string(), meta.clone());
        Ok(meta)
    }

    /// Look up an existing vector's shared metadata by key (diagnostics /
    /// tooling; applications attach via [`MmVec::open`](crate::MmVec)).
    pub fn lookup_vector(&self, key: &str) -> Option<Arc<VectorMeta>> {
        self.inner.vectors.lock().get(key).cloned()
    }

    // ---- task routing ----------------------------------------------------

    /// The fault shard a task for page `id` belongs to on `node`.
    /// "MemoryTasks for the same page are hashed to the same worker" — the
    /// shard owns the page's run-queue assignment, its apply lock and its
    /// queue-delay accounting.
    #[inline]
    fn shard_rt(&self, node: usize, id: BlobId) -> &shard::ShardRt {
        &self.inner.nodes[node].shards[shard::shard_of(id)]
    }

    /// Run `f` under the apply lock of `id`'s shard on `node` (blocking;
    /// [`LockRank::ApplyShard`]). The stager's flush path uses this so a
    /// page's stage-out and mark-clean cannot interleave with a writer's
    /// install-or-patch of the same shard.
    pub(crate) fn with_apply_lock<R>(&self, node: usize, id: BlobId, f: impl FnOnce() -> R) -> R {
        let sh = self.shard_rt(node, id);
        let _guard = sh.apply_lock.lock();
        self.inner.apply_stats.acquire_untimed();
        let _lo = lockorder::acquired(LockRank::ApplyShard);
        let _hold = shard::ApplyHold::register(node, shard::shard_of(id));
        f()
    }

    /// Run `f` under the apply lock of `id`'s shard on `node` if it can be
    /// taken without blocking ([`LockRank::ApplyVictim`]): the emergency
    /// drain's discipline for victim pages — the draining thread may
    /// already hold its *own* shard's apply lock, so it must never wait on
    /// a victim's (a busy victim just isn't drained this round).
    pub(crate) fn try_with_apply_lock<R>(
        &self,
        node: usize,
        id: BlobId,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        // Re-entry: this thread is mid-commit in the victim's shard and
        // already holds its apply lock (a drain triggered by its own
        // `put`). Nobody else can be mid-commit on the victim, so running
        // under the held lock is safe — and refusing would turn a full
        // DMSH whose residents share the committer's shard into a
        // spurious `Capacity` failure.
        if shard::holds_apply(node, shard::shard_of(id)) {
            return Some(f());
        }
        let sh = self.shard_rt(node, id);
        let Some(_guard) = sh.apply_lock.try_lock() else {
            // Busy victim skipped this round — the drain's (real-time,
            // diagnostic-only) contention signal.
            self.inner.victim_stats.contended();
            return None;
        };
        self.inner.victim_stats.acquire_untimed();
        let _lo = lockorder::acquired(LockRank::ApplyVictim);
        Some(f())
    }

    /// Dispatch `tasks` coalesced page tasks as ONE shard-batch crossing:
    /// one reservation on the shard's run queue covers the whole batch, so
    /// the per-page dispatch latency is paid once per run. `tasks = 1` is
    /// the ordinary single-task dispatch. Records queue telemetry: the
    /// virtual delay between submission and dispatch (globally and per
    /// shard) plus a TaskDispatch span event (`detail` = 0 for the
    /// low-latency pool, 1 for high). When a trace context is live, the
    /// enqueue→dispatch wait also lands as a [`Stage::QueueWait`] span in
    /// the fault's causal tree.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_batch(
        &self,
        node: usize,
        id: BlobId,
        tasks: u64,
        bytes: u64,
        submit: SimTime,
        reserve: u64,
        ctx: TraceCtx,
    ) -> SimTime {
        let sh = self.shard_rt(node, id);
        let (w, pool) = sh.queue(bytes, self.inner.cfg.low_latency_threshold);
        if pool == 0 {
            self.inner.stats.tasks_low.inc();
        } else {
            self.inner.stats.tasks_high.inc();
        }
        let t = w.acquire_causal_batch(submit, tasks, reserve);
        let delay = t.saturating_sub(submit);
        self.inner.stats.queue_delay_ns.record(delay);
        sh.queue_delay.record(delay);
        // Modeled queue depth: the delay is whole reservations queued
        // ahead of this batch, so delay/reservation is how deep the shard's
        // queue got (high-water, in virtual time — deterministic).
        sh.queue_depth.set_max(delay / reserve.max(1));
        self.inner.telemetry.span(EventKind::TaskDispatch, submit, t, node as u32, bytes, pool);
        self.inner.telemetry.trace_child(
            ctx,
            Stage::QueueWait,
            submit,
            t,
            node as u32,
            bytes,
            "",
            pool,
        );
        t
    }

    /// Default home node for a page at virtual time `now`: rendezvous
    /// (highest-random-weight) hashing over the currently-live node set.
    /// HRW gives the minimal-movement property crash re-homing relies on —
    /// when a node dies, only *its* pages pick a new home (always a
    /// survivor), and every other page's placement is untouched.
    fn default_home(&self, vec_id: u64, page: u64, now: SimTime) -> usize {
        let key = splitmix64(vec_id.rotate_left(17) ^ page);
        let nnodes = self.inner.nodes.len();
        if let Some(plan) = self.inner.cfg.fault_plan() {
            if !plan.crashes().is_empty() {
                let live = (0..nnodes).filter(|&n| !plan.node_down(n, now));
                if let Some(home) = rendezvous_hash(key, live) {
                    return home;
                }
            }
        }
        rendezvous_hash(key, 0..nnodes).unwrap_or(0)
    }

    /// Observe the fault plan at virtual time `now`: evacuate retired
    /// tiers and run crash recovery for any node whose crash window has
    /// opened since the last observation. Cheap when no plan is attached.
    /// Called at every fault/commit/flush entry point — the simulation's
    /// stand-in for failure detection.
    pub(crate) fn poll_chaos(&self, now: SimTime) {
        let Some(plan) = self.inner.cfg.fault_plan() else { return };
        for n in &self.inner.nodes {
            n.dmsh.check_tiers(now);
        }
        if plan.crashes().is_empty() {
            return;
        }
        for node in 0..self.inner.nodes.len() {
            if plan.crash_epoch(node, now) > self.inner.crash_epochs[node].load(Ordering::Acquire) {
                self.recover_node(node, now);
            }
        }
    }

    /// Crash recovery for `node` (layer 2 of the recovery stack): the
    /// runtime daemon and scache shard died, so every blob it held is
    /// gone and every directory entry pointing at it is stale. Wipe the
    /// shard, purge the directory (re-faults re-home via rendezvous
    /// hashing over the survivors), and replay the intent journals so the
    /// backends hold exactly the acknowledged writes — ReadOnlyGlobal
    /// pages re-replicate from those backends, WriteGlobal pages replay
    /// from the journal.
    fn recover_node(&self, node: usize, now: SimTime) {
        let Some(plan) = self.inner.cfg.fault_plan() else { return };
        let _g = self.inner.recovery.lock();
        let epoch = plan.crash_epoch(node, now);
        if epoch <= self.inner.crash_epochs[node].load(Ordering::Acquire) {
            return; // another observer already recovered this epoch
        }
        let at = plan
            .crashes()
            .iter()
            .filter(|c| c.node == node)
            .nth(epoch as usize - 1)
            .map(|c| c.at)
            .unwrap_or(now);
        let lost = self.inner.nodes[node].dmsh.wipe();
        let purged = self.inner.dir.purge_node(node);
        let mut replayed = 0u64;
        for meta in self.all_vectors() {
            if let (Some(j), Some(b)) = (&meta.journal, &meta.backend) {
                match j.replay(b.as_ref()) {
                    Ok(sum) => replayed += sum.bytes,
                    Err(_e) => {
                        self.inner.telemetry.counter("chaos", "replay_errors", &[]).inc();
                    }
                }
            }
        }
        let tel = &self.inner.telemetry;
        tel.counter("chaos", "node_crashes", &[]).inc();
        // Re-homing storm size: every purged entry is a page whose next
        // fault re-homes it via rendezvous hashing over the survivors.
        tel.counter("chaos", "rehomed_pages", &[]).add(purged.len() as u64);
        tel.span(EventKind::NodeCrash, at, at, node as u32, lost as u64, epoch);
        tel.span(EventKind::Recovery, at, now, node as u32, replayed, purged.len() as u64);
        self.inner.crash_epochs[node].store(epoch, Ordering::Release);
    }

    // ---- read path --------------------------------------------------------

    /// The single-writer ownership fast path: if `my_node` owns the page
    /// *and* is its home, serve the fault straight from the local scache —
    /// no MemoryTask, no run-queue dispatch, no directory message beyond
    /// one shard-local probe, and no trace allocation (owner-fast faults
    /// never cross into the runtime, so they are counted — fault counters,
    /// `owner_fast_hits`, the caller's latency histograms — but not
    /// traced). Returns `None` whenever the fast path does not apply
    /// (unowned, owned elsewhere, homed remotely, or the page vanished
    /// under us); the caller then takes the ordinary traced slow path,
    /// which does its own fault accounting.
    pub(crate) fn read_page_fast(
        &self,
        now: SimTime,
        meta: &VectorMeta,
        page: u64,
        my_node: usize,
    ) -> Option<(Bytes, SimTime)> {
        self.poll_chaos(now);
        let id = BlobId::new(meta.id, page);
        match self.inner.dir.owner_read_at(id, my_node, now) {
            directory::OwnerRead::Fast => {}
            _ => return None,
        }
        // Owned and home-local: the canonical copy is in our own shard.
        // Device time is still charged (get reserves the tier's timeline);
        // what is skipped is the task construction + dispatch machinery.
        let (data, done) = self.inner.nodes[my_node].dmsh.get(now, id).ok()?;
        let s = &self.inner.stats;
        let policy_ix = meta.policy.get().index();
        s.faults.inc();
        s.faults_by_policy[policy_ix].inc();
        s.local_reads.inc();
        s.owner_hits.inc();
        s.owner_hits_by_policy[policy_ix].inc();
        self.inner.nodes[my_node].touches.inc();
        self.inner.telemetry.hot_pages().record(meta.id, page, 1);
        Some((data, done))
    }

    /// Serve `count ≥ 1` contiguous page reads starting at `first` for a
    /// process on `my_node` at virtual time `now` — the one dispatched read
    /// path; a single-page fault is the `count = 1` run.
    ///
    /// Each page is handed to `sink` in page order as a refcounted
    /// [`Bytes`] view (the caller shares the scache's allocation rather
    /// than receiving a copy) with its virtual completion time; the latest
    /// of those is returned. Pages resident on the same holder node and
    /// fault shard share one task construction and one worker dispatch
    /// (fault coalescing), so per-task dispatch latency is paid once per
    /// run. The first page is the synchronous fault; the extras are counted
    /// as prefetches (they arrive ahead of their access) plus
    /// `runtime.coalesced_faults`. With `prefetch` set the whole run is an
    /// asynchronous prefetcher batch — issued now, every page billed as a
    /// prefetch — that still pays (and counts) the same crossing.
    /// `collective` holds the group size when the transaction carries the
    /// Collective hint. Stages land as child spans of `ctx`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn read_pages(
        &self,
        now: SimTime,
        meta: &VectorMeta,
        first: u64,
        count: u64,
        my_node: usize,
        collective: Option<usize>,
        prefetch: bool,
        ctx: TraceCtx,
        mut sink: impl FnMut(Bytes, SimTime),
    ) -> Result<SimTime> {
        debug_assert!(count >= 1);
        self.poll_chaos(now);
        let s = &self.inner.stats;
        if prefetch {
            s.prefetches.add(count);
        } else {
            s.faults.inc();
            s.faults_by_policy[meta.policy.get().index()].inc();
            // Reaching here means the ownership fast path did not apply (or
            // was not attempted — batching a run is worth more than one
            // owner-local read): this fault pays a runtime crossing.
            s.owner_misses.inc();
            s.prefetches.add(count - 1);
        }
        if count > 1 {
            s.coalesced.add(count - 1);
            s.batched.inc();
        }
        // One sketch touch per run (weight = pages): a coalesced scan is
        // one access pattern, not `count` independent hot-page candidates.
        self.inner.telemetry.hot_pages().record(meta.id, first, count);
        let t = now + TASK_CONSTRUCT_NS;
        let mut done = t;
        let mut emit = |data: Bytes, ready: SimTime| {
            done = done.max(ready);
            sink(data, ready);
        };
        let mut i = 0u64;
        while i < count {
            let page = first + i;
            let id = BlobId::new(meta.id, page);
            let Some(node) = self.inner.dir.nearest_copy(id, my_node) else {
                let (data, ready) = self.fault_absent(t, meta, page, my_node, collective, ctx)?;
                emit(data, ready);
                i += 1;
                continue;
            };
            // Extend the run while the following pages share the holder
            // *and* the fault shard: a batch is one crossing into one
            // shard's run queue, so it may not straddle shards. The shard
            // hash groups 8-page-aligned neighbourhoods (see
            // [`directory::shard_of`]), so coalesced runs rarely split.
            let sh = shard::shard_of(id);
            let mut n = 1u64;
            while i + n < count {
                let next = BlobId::new(meta.id, first + i + n);
                if shard::shard_of(next) != sh
                    || self.inner.dir.nearest_copy(next, my_node) != Some(node)
                {
                    break;
                }
                n += 1;
            }
            self.read_run_from_node(t, meta, page, n, node, my_node, collective, ctx, &mut emit)?;
            i += n;
        }
        let tel = &self.inner.telemetry;
        let bytes = meta.page_size * count;
        if count > 1 {
            // One batched crossing served the whole run (detail = pages).
            tel.trace_child(ctx, Stage::ShardBatch, now, done, my_node as u32, bytes, "", count);
        }
        let kind = if prefetch { EventKind::PrefetchIssue } else { EventKind::PageFault };
        tel.span(kind, now, done, my_node as u32, bytes, first);
        Ok(done)
    }

    /// Serve a page that is resident nowhere: stage in from the backend or
    /// synthesize a fresh zero page (no worker dispatch — the stager path
    /// charges the PFS device directly).
    fn fault_absent(
        &self,
        t: SimTime,
        meta: &VectorMeta,
        page: u64,
        my_node: usize,
        collective: Option<usize>,
        ctx: TraceCtx,
    ) -> Result<(Bytes, SimTime)> {
        let id = BlobId::new(meta.id, page);
        let home = self.default_home(meta.id, page, t);
        let (data, ready) = stager::stage_in(self, t, meta, page, home, ctx)?;
        self.inner.dir.home_or_insert(id, home);
        self.inner.nodes[home].touches.inc();
        if home != my_node {
            let done = self.finish_remote(ready, home, my_node, data.len() as u64, collective, ctx);
            return Ok((data, done));
        }
        self.inner.stats.local_reads.inc();
        Ok((data, ready))
    }

    /// One ranged MemoryTask: `n ≥ 1` contiguous same-shard pages believed
    /// resident on `node`, each handed to `emit`. Pays one run-queue
    /// crossing for the whole run; device charges chain per page on the
    /// holder's timeline and remote runs pay the network per page (the data
    /// still moves). Every page served counts one touch on its holder. A
    /// page that vanished between the directory lookup and the read falls
    /// back to the backend at the post-dispatch time.
    #[allow(clippy::too_many_arguments)]
    fn read_run_from_node(
        &self,
        t: SimTime,
        meta: &VectorMeta,
        first: u64,
        n: u64,
        node: usize,
        my_node: usize,
        collective: Option<usize>,
        ctx: TraceCtx,
        emit: &mut impl FnMut(Bytes, SimTime),
    ) -> Result<()> {
        let bytes_hint = meta.page_size * n;
        let ws = self.dispatch_batch(node, BlobId::new(meta.id, first), n, bytes_hint, t, 0, ctx);
        // A multi-page slice is one ranged MemoryTask: hang its pages'
        // tier/net spans under a CoalesceRun child (`detail` = run length).
        let run_ctx = if n > 1 {
            self.inner.telemetry.trace_child(
                ctx,
                Stage::CoalesceRun,
                t,
                ws,
                node as u32,
                bytes_hint,
                "",
                n,
            )
        } else {
            ctx
        };
        let replicate = meta.policy.get().replicates();
        let holder = &self.inner.nodes[node];
        let mut dev = ws;
        for page in first..first + n {
            let id = BlobId::new(meta.id, page);
            let (data, dev_done) = match holder.dmsh.get_range(dev, id, 0, u64::MAX, run_ctx) {
                Ok(read) => read,
                Err(DmshError::NotFound(_)) => {
                    // Vanished mid-run: re-serve this page from the backend.
                    let (data, ready) =
                        self.fault_absent(dev, meta, page, my_node, collective, run_ctx)?;
                    emit(data, ready);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            dev = dev_done;
            holder.touches.inc();
            if node == my_node {
                self.inner.stats.local_reads.inc();
                emit(data, dev_done);
                continue;
            }
            let len = data.len() as u64;
            let done = self.finish_remote(dev_done, node, my_node, len, collective, run_ctx);
            // Replicate locally under the Read-Only Global policy so future
            // reads are node-local. The replica shares the same storage as
            // the caller's view (an O(1) refcount bump, not a copy).
            if replicate
                && self.inner.nodes[my_node]
                    .dmsh
                    .put(done, id, data.clone(), 0.8, my_node, false)
                    .is_ok()
            {
                // Register the replica only if the local install succeeded;
                // a full DMSH just means the next read stays remote.
                self.inner.dir.add_replica(id, my_node);
            }
            emit(data, done);
        }
        Ok(())
    }

    /// Network completion for a remote read; collective reads use a
    /// tree-shaped distribution instead of per-process unicast.
    fn finish_remote(
        &self,
        dev_done: SimTime,
        src: usize,
        dst: usize,
        len: u64,
        collective: Option<usize>,
        ctx: TraceCtx,
    ) -> SimTime {
        self.inner.stats.remote_reads.inc();
        let done = match collective {
            Some(n) => dev_done + self.inner.net.collective_time(CollectiveShape::Tree, n, len),
            None => self.inner.net.transfer(dev_done, src, dst, len),
        };
        self.inner.telemetry.trace_child(
            ctx,
            Stage::NetHop,
            dev_done,
            done,
            dst as u32,
            len,
            "",
            src as u64,
        );
        done
    }

    // ---- write path -------------------------------------------------------

    /// Execute a writer MemoryTask — the one commit path: make `payload`
    /// the contents of the page's canonical copy at its home. Asynchronous:
    /// the caller has already paid any memcpy; the returned time is when
    /// the update is applied and visible. Queue wait, net hop, journal and
    /// apply land as child spans of `ctx`.
    pub(crate) fn commit_page(
        &self,
        submit: SimTime,
        meta: &VectorMeta,
        page: u64,
        payload: Payload<'_>,
        my_node: usize,
        ctx: TraceCtx,
    ) -> Result<SimTime> {
        let bytes = payload.covered();
        if bytes == 0 {
            return Ok(submit);
        }
        self.poll_chaos(submit);
        self.inner.stats.writes.inc();
        let id = BlobId::new(meta.id, page);
        let policy = meta.policy.get();
        self.inner.stats.writes_by_policy[policy.index()].inc();
        let preferred = if policy == Policy::Local {
            my_node
        } else {
            self.default_home(meta.id, page, submit)
        };
        // Single-writer ownership: a committer that already owned the page
        // and is its home skips the run-queue crossing and the network
        // entirely — the apply is shard-local. A first claim or an
        // ownership transfer takes the dispatched slow path (the crossing
        // is what makes the new owner visible to the runtime).
        let claim = shard::claim_for_write(
            &self.inner.dir,
            &self.inner.stats,
            id,
            my_node,
            preferred,
            submit,
        );
        let home = claim.home;
        let fast = claim.retained && home == my_node;
        self.inner.nodes[home].touches.inc();
        self.inner.telemetry.hot_pages().record(meta.id, page, 1);
        let mut t = submit;
        if !fast {
            t = self.dispatch_batch(home, id, 1, bytes, submit, bytes, ctx);
            if home != my_node {
                let net_done = self.inner.net.transfer(submit, my_node, home, bytes);
                self.inner.telemetry.trace_child(
                    ctx,
                    Stage::NetHop,
                    submit,
                    net_done,
                    home as u32,
                    bytes,
                    "",
                    my_node as u64,
                );
                t = t.max(net_done);
            }
        }
        let done = {
            // Serialize install-or-patch per page so concurrent first
            // writers of one page never clobber each other's ranges. The
            // guard must drop before the stager hooks below: stage_out_all
            // takes apply locks itself.
            let sh = self.shard_rt(home, id);
            let _guard = sh.apply_lock.lock();
            self.inner.apply_stats.acquire_untimed();
            let _lo = lockorder::acquired(LockRank::ApplyShard);
            let _hold = shard::ApplyHold::register(home, shard::shard_of(id));
            self.journal_write(meta, page, &payload, t, home, ctx)?;
            let patched = match &payload {
                Payload::Full(_) => None,
                Payload::Diff(image, dirty) => {
                    match self.inner.nodes[home].dmsh.put_ranges(t, id, image, dirty, ctx) {
                        Ok(done) => Some(done),
                        Err(DmshError::NotFound(_)) => None,
                        Err(e) => return Err(e.into()),
                    }
                }
            };
            match patched {
                Some(done) => done,
                None => self.put_with_drain(home, t, id, payload.into_page(), my_node, ctx)?,
            }
        };
        let stage = if fast { Stage::OwnerFast } else { Stage::CommitApply };
        let detail = if fast { claim.epoch } else { page };
        self.inner.telemetry.trace_child(ctx, stage, t, done, home as u32, bytes, "", detail);
        self.maybe_organize(home, done);
        self.maybe_stage(meta, done);
        Ok(done)
    }

    /// Log an acknowledged write's bytes in the vector's intent journal —
    /// write-ahead with respect to the crash horizon: the intent is durable
    /// before the write is acknowledged to the committer, so a later node
    /// crash replays to exact contents. Everything is clipped to the
    /// vector's logical length.
    fn journal_write(
        &self,
        meta: &VectorMeta,
        page: u64,
        payload: &Payload<'_>,
        t: SimTime,
        home: usize,
        ctx: TraceCtx,
    ) -> Result<()> {
        let Some(j) = &meta.journal else { return Ok(()) };
        let base = page * meta.page_size;
        let logical = meta.len_bytes();
        let mut bytes = 0u64;
        let mut log = |image: &[u8], s: u64, e: u64| -> Result<()> {
            let (off, end) = (base + s, (base + e).min(logical));
            if off < end {
                j.append(off, &image[s as usize..(end - base) as usize])?;
                bytes += end - off;
            }
            Ok(())
        };
        match payload {
            Payload::Full(data) => log(data, 0, data.len() as u64)?,
            Payload::Diff(image, dirty) => {
                for (s, e) in dirty.iter() {
                    log(image, s, e)?;
                }
            }
        }
        if bytes > 0 {
            let tel = &self.inner.telemetry;
            tel.trace_child(ctx, Stage::JournalWrite, t, t, home as u32, bytes, "wal", page);
            self.inner.stats.journal_bytes.add(bytes);
        }
        Ok(())
    }

    /// The active stager: periodically push a nonvolatile vector's dirty
    /// bytes to its backend while the application computes, so explicit
    /// synchronization later finds little left to write. A pass makes the
    /// bytes visible in the backend object; it does not sync them.
    pub(crate) fn maybe_stage(&self, meta: &VectorMeta, now: SimTime) {
        if !meta.nonvolatile {
            return;
        }
        let interval = self.inner.cfg.stage_interval_ns;
        if interval == u64::MAX {
            return;
        }
        let last = meta.last_stage.load(Ordering::Relaxed);
        if now.saturating_sub(last) >= interval
            && meta
                .last_stage
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            // Asynchronous: completion rides on the device/PFS timelines.
            // A failed background flush is not fatal (the data stays dirty
            // in the scache and the next flush retries) but must be
            // visible: count it instead of discarding the Result.
            if let Err(_e) = stager::stage_out_all(self, now, meta, false) {
                self.inner.telemetry.counter("stager", "async_flush_errors", &[]).inc();
            }
        }
    }

    /// Install a committed page (`Dmsh::put`, hot and dirty), with emergency
    /// stage-out when every tier is full.
    fn put_with_drain(
        &self,
        node: usize,
        t: SimTime,
        id: BlobId,
        data: Bytes,
        score_node: usize,
        ctx: TraceCtx,
    ) -> Result<SimTime> {
        let dmsh = &self.inner.nodes[node].dmsh;
        let mut t = t;
        for _ in 0..64 {
            match dmsh.put_traced(t, id, data.clone(), 1.0, score_node, true, ctx) {
                Ok(out) => return Ok(out.done_at),
                Err(DmshError::Full { requested }) => {
                    t = stager::emergency_drain(self, t, node, requested)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(MmError::Capacity("DMSH full and nothing drainable".into()))
    }

    // ---- scoring / organization -------------------------------------------

    /// Propagate a prefetcher score to the Data Organizer.
    pub(crate) fn rescore(
        &self,
        now: SimTime,
        meta: &VectorMeta,
        page: u64,
        score: f64,
        node: usize,
    ) {
        let id = BlobId::new(meta.id, page);
        if let Some(holder) = self.inner.dir.nearest_copy(id, node) {
            self.inner.nodes[holder].dmsh.rescore(
                now,
                id,
                score as f32,
                node,
                self.inner.cfg.score_window_ns,
            );
        }
    }

    /// Run the Data Organizer on `node` if its period elapsed.
    pub(crate) fn maybe_organize(&self, node: usize, now: SimTime) {
        let rt = &self.inner.nodes[node];
        let last = rt.last_organize.load(Ordering::Relaxed);
        if now.saturating_sub(last) >= self.inner.cfg.organize_interval_ns
            && rt
                .last_organize
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            rt.dmsh.organize(now, self.inner.cfg.watermark);
        }
    }

    /// Tier bandwidth currently backing `page` (for Algorithm 1 scoring).
    pub(crate) fn tier_bandwidth_of(&self, meta: &VectorMeta, page: u64, my_node: usize) -> u64 {
        let id = BlobId::new(meta.id, page);
        if let Some(node) = self.inner.dir.nearest_copy(id, my_node) {
            if let Some(m) = self.inner.nodes[node].dmsh.meta_of(id) {
                return self.inner.nodes[node].dmsh.device(m.tier).spec().bandwidth;
            }
        }
        // Not resident: it would come from the PFS backend.
        self.inner.cfg.pfs_bandwidth
    }

    // ---- persistence ------------------------------------------------------

    /// Stage every dirty byte of `meta` out to its backend and sync it — a
    /// durability point, unlike the active stager's background passes.
    /// Returns the virtual completion time; the caller decides whether to
    /// wait (synchronous msync) or not (asynchronous flushing during
    /// compute).
    pub(crate) fn flush_vector(&self, now: SimTime, meta: &VectorMeta) -> Result<SimTime> {
        stager::stage_out_all(self, now, meta, true)
    }

    /// Invalidate all read replicas of a vector (phase change).
    pub(crate) fn invalidate_replicas(&self, meta: &VectorMeta) {
        for (id, node) in self.inner.dir.take_replicas(meta.id) {
            self.inner.nodes[node].dmsh.remove(id);
            self.inner.stats.invalidations.inc();
        }
    }

    /// Destroy a vector: drop every cached page and forget the key.
    /// The persistent backend object is left intact for nonvolatile
    /// vectors (destroying the *handle*, not the data) unless `purge`.
    pub(crate) fn destroy_vector(&self, meta: &VectorMeta, purge: bool) -> Result<()> {
        self.inner.dir.remove_bucket(meta.id);
        for n in &self.inner.nodes {
            n.dmsh.remove_bucket(meta.id);
        }
        self.inner.vectors.lock().remove(&meta.key);
        if purge {
            if let Ok(url) = DataUrl::parse(&meta.key) {
                if url.scheme == Scheme::Mem {
                    self.inner.backends.delete_mem(&url.path);
                } else if let Some(b) = &meta.backend {
                    b.set_len(0).map_err(MmError::Io)?;
                }
            }
        }
        Ok(())
    }

    /// Flush every nonvolatile vector (runtime termination: "Periodically
    /// and during the termination of the runtime, the stager task will be
    /// scheduled to serialize pages in the scache and persist them").
    pub fn shutdown(&self, now: SimTime) -> Result<SimTime> {
        let vecs: Vec<Arc<VectorMeta>> = self.inner.vectors.lock().values().cloned().collect();
        let mut done = now;
        for v in vecs {
            if v.nonvolatile {
                done = done.max(self.flush_vector(now, &v)?);
            }
        }
        Ok(done)
    }

    // ---- internals shared with the stager ----------------------------------

    pub(crate) fn inner_pfs(&self) -> &SharedResource {
        &self.inner.pfs
    }

    /// Contention accounting for the shared PFS device
    /// (`lock.*{lock=Resource,resource=pfs}`): the stager records each
    /// backend transfer's modeled queueing delay here.
    pub(crate) fn pfs_stats(&self) -> &LockStats {
        &self.inner.pfs_stats
    }

    pub(crate) fn inner_cpu(&self) -> &CpuModel {
        &self.inner.cpu
    }

    pub(crate) fn inner_stats(&self) -> &Stats {
        &self.inner.stats
    }

    pub(crate) fn inner_node(&self, n: usize) -> &NodeRt {
        &self.inner.nodes[n]
    }

    pub(crate) fn inner_dir(&self) -> &directory::Directory {
        &self.inner.dir
    }

    pub(crate) fn all_vectors(&self) -> Vec<Arc<VectorMeta>> {
        self.inner.vectors.lock().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use megammap_cluster::ClusterSpec;
    use megammap_sim::MIB;

    fn runtime(nodes: usize) -> (Cluster, Runtime) {
        let cluster = Cluster::new(ClusterSpec::new(nodes, 1));
        let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(4096));
        (cluster, rt)
    }

    /// One untraced synchronous fault: the `count = 1` run.
    pub(crate) fn read_page(
        rt: &Runtime,
        now: SimTime,
        meta: &VectorMeta,
        page: u64,
        my_node: usize,
        collective: Option<usize>,
    ) -> Result<(Bytes, SimTime)> {
        Ok(read_run(rt, now, meta, page, 1, my_node, collective)?.remove(0))
    }

    /// An untraced synchronous ranged fault, pages collected in order.
    pub(crate) fn read_run(
        rt: &Runtime,
        now: SimTime,
        meta: &VectorMeta,
        first: u64,
        count: u64,
        my_node: usize,
        collective: Option<usize>,
    ) -> Result<Vec<(Bytes, SimTime)>> {
        let mut pages = Vec::new();
        let ctx = TraceCtx::NONE;
        rt.read_pages(now, meta, first, count, my_node, collective, false, ctx, |data, ready| {
            pages.push((data, ready))
        })?;
        assert_eq!(pages.len() as u64, count, "one page per page asked for");
        Ok(pages)
    }

    /// An untraced diff commit of `dirty` out of the page image `data`.
    pub(crate) fn write_diff(
        rt: &Runtime,
        submit: SimTime,
        meta: &VectorMeta,
        page: u64,
        data: &[u8],
        dirty: &RangeSet,
        my_node: usize,
    ) -> Result<SimTime> {
        rt.commit_page(submit, meta, page, Payload::Diff(data, dirty), my_node, TraceCtx::NONE)
    }

    #[test]
    fn vector_registry_idempotent() {
        let (_c, rt) = runtime(2);
        let a = rt.open_or_create_vector("mem://v", 8, None, Some(100)).unwrap();
        let b = rt.open_or_create_vector("mem://v", 8, None, Some(100)).unwrap();
        assert_eq!(a.id, b.id);
        assert!(rt.lookup_vector("mem://v").is_some());
        match rt.open_or_create_vector("mem://v", 4, None, None) {
            Err(MmError::Incompatible(_)) => {}
            other => panic!("expected Incompatible, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn page_size_rounds_to_element_multiple() {
        let (_c, rt) = runtime(1);
        // 12-byte elements with a 4096 hint → 4092 effective.
        let m = rt.open_or_create_vector("mem://p3", 12, None, Some(10)).unwrap();
        assert_eq!(m.page_size % 12, 0);
        assert_eq!(m.page_size, 4092);
        assert_eq!(m.elems_per_page(), 341);
    }

    #[test]
    fn write_then_read_round_trips() {
        let (_c, rt) = runtime(2);
        let m = rt.open_or_create_vector("mem://rw", 1, None, Some(4096)).unwrap();
        m.policy.set(Policy::Local);
        let mut data = vec![0u8; m.page_size as usize];
        data[100..200].copy_from_slice(&[7u8; 100]);
        let mut dirty = RangeSet::new();
        dirty.insert(100, 200);
        let t = write_diff(&rt, 0, &m, 0, &data, &dirty, 0).unwrap();
        assert!(t > 0);
        let (read, rt_done) = read_page(&rt, t, &m, 0, 0, None).unwrap();
        assert!(rt_done >= t);
        assert_eq!(&read[100..200], &[7u8; 100]);
        assert_eq!(&read[0..100], &[0u8; 100]);
    }

    #[test]
    fn disjoint_writers_merge_on_one_page() {
        // Two nodes write disjoint halves of page 0; the canonical page
        // must contain both (the Read/Write Local guarantee).
        let (_c, rt) = runtime(2);
        let m = rt.open_or_create_vector("mem://halves", 1, None, Some(4096)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut d0 = vec![0u8; ps];
        d0[..ps / 2].fill(0xAA);
        let mut r0 = RangeSet::new();
        r0.insert(0, ps as u64 / 2);
        let mut d1 = vec![0u8; ps];
        d1[ps / 2..].fill(0xBB);
        let mut r1 = RangeSet::new();
        r1.insert(ps as u64 / 2, ps as u64);
        let t0 = write_diff(&rt, 0, &m, 0, &d0, &r0, 0).unwrap();
        let t1 = write_diff(&rt, 0, &m, 0, &d1, &r1, 1).unwrap();
        let (read, _) = read_page(&rt, t0.max(t1), &m, 0, 0, None).unwrap();
        assert!(read[..ps / 2].iter().all(|&b| b == 0xAA));
        assert!(read[ps / 2..].iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn fresh_page_reads_zero() {
        let (_c, rt) = runtime(1);
        let m = rt.open_or_create_vector("mem://zeros", 8, None, Some(1024)).unwrap();
        let (data, _) = read_page(&rt, 0, &m, 0, 0, None).unwrap();
        assert!(data.iter().all(|&b| b == 0));
        assert_eq!(data.len(), m.page_size as usize);
    }

    #[test]
    fn remote_read_costs_more_than_local() {
        let (_c, rt) = runtime(2);
        let m = rt.open_or_create_vector("mem://remote", 1, None, Some(8192)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        // Node 0 writes the page (home = node 0 under Local policy).
        let t = write_diff(&rt, 0, &m, 0, &vec![1u8; ps], &dirty, 0).unwrap();
        let (_, local_done) = read_page(&rt, t, &m, 0, 0, None).unwrap();
        let (_, remote_done) = read_page(&rt, t, &m, 0, 1, None).unwrap();
        assert!(remote_done > local_done, "remote {remote_done} vs local {local_done}");
        let s = rt.stats();
        assert_eq!(s.remote_reads, 1);
        assert!(s.local_reads >= 1);
    }

    #[test]
    fn read_only_policy_replicates_then_invalidates() {
        let (_c, rt) = runtime(2);
        let m = rt.open_or_create_vector("mem://ro", 1, None, Some(8192)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        let t = write_diff(&rt, 0, &m, 0, &vec![5u8; ps], &dirty, 0).unwrap();
        m.policy.set(Policy::ReadOnlyGlobal);
        // First remote read replicates onto node 1.
        read_page(&rt, t, &m, 0, 1, None).unwrap();
        let id = BlobId::new(m.id, 0);
        assert!(rt.inner.nodes[1].dmsh.contains(id), "replica created on node 1");
        // Second read from node 1 is local.
        let before = rt.stats().remote_reads;
        read_page(&rt, t + 1_000_000, &m, 0, 1, None).unwrap();
        assert_eq!(rt.stats().remote_reads, before, "served by local replica");
        // Phase change wipes the replica.
        rt.invalidate_replicas(&m);
        assert!(!rt.inner.nodes[1].dmsh.contains(id));
        assert_eq!(rt.stats().invalidations, 1);
    }

    #[test]
    fn collective_read_charges_tree_not_unicast() {
        let (_c, rt) = runtime(4);
        let m = rt.open_or_create_vector("mem://coll", 1, None, Some(8192)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        let t = write_diff(&rt, 0, &m, 0, &vec![1u8; ps], &dirty, 0).unwrap();
        let (_, coll) = read_page(&rt, t, &m, 0, 1, Some(4)).unwrap();
        let (_, uni) = read_page(&rt, t, &m, 0, 2, None).unwrap();
        // Both are remote; the collective one pays log2(4)=2 message times
        // without NIC serialization, so for one reader it is comparable,
        // but it must not reserve the NIC (no queueing impact).
        assert!(coll > t && uni > t);
    }

    #[test]
    fn small_tasks_use_low_latency_pool() {
        let (_c, rt) = runtime(1);
        let m = rt.open_or_create_vector("mem://pools", 1, Some(65536), Some(2 * 65536)).unwrap();
        m.policy.set(Policy::Local);
        // A small diff (< 16 KiB) routes low; a big one routes high. Two
        // distinct pages: each page's *first* write is an ownership
        // establishment, which always dispatches (a repeat write to the
        // same page would ride the fast path and skip the pools).
        let ps = m.page_size as usize;
        let mut small = RangeSet::new();
        small.insert(0, 100);
        write_diff(&rt, 0, &m, 0, &vec![0u8; ps], &small, 0).unwrap();
        let mut big = RangeSet::new();
        big.insert(0, 20_000.min(ps as u64));
        write_diff(&rt, 0, &m, 1, &vec![0u8; ps], &big, 0).unwrap();
        let s = rt.stats();
        assert!(s.tasks_low >= 1);
        assert!(s.tasks_high >= 1);
    }

    #[test]
    fn repeat_writer_takes_ownership_fast_path() {
        let (_c, rt) = runtime(1);
        let m = rt.open_or_create_vector("mem://own", 1, None, Some(4096)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        // First write: establishes ownership, pays the dispatch (a miss).
        let t0 = write_diff(&rt, 0, &m, 0, &vec![1u8; ps], &dirty, 0).unwrap();
        let s0 = rt.stats();
        assert_eq!(s0.owner_fast_hits, 0);
        assert_eq!(s0.owner_fast_misses, 1);
        let tasks0 = s0.tasks_low + s0.tasks_high;
        // Second write by the same rank: retained ownership, no crossing.
        let t1 = write_diff(&rt, t0, &m, 0, &vec![2u8; ps], &dirty, 0).unwrap();
        let s1 = rt.stats();
        assert_eq!(s1.owner_fast_hits, 1);
        assert_eq!(s1.owner_fast_misses, 1);
        assert_eq!(s1.tasks_low + s1.tasks_high, tasks0, "fast commit skips dispatch");
        // Owner read: served locally with no crossing either.
        let (data, _) = rt.read_page_fast(t1, &m, 0, 0).expect("owner read is fast");
        assert!(data.iter().all(|&b| b == 2));
        assert_eq!(rt.stats().owner_fast_hits, 2);
        // Another rank cannot fast-read a page it does not own.
        assert!(rt.read_page_fast(t1, &m, 0, 1).is_none() || rt.nodes() == 1);
    }

    #[test]
    fn ownership_transfer_falls_back_to_slow_path() {
        let (_c, rt) = runtime(2);
        let m = rt.open_or_create_vector("mem://xfer", 1, None, Some(4096)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        // Rank 0 writes twice: second is fast.
        let t0 = write_diff(&rt, 0, &m, 0, &vec![1u8; ps], &dirty, 0).unwrap();
        let t1 = write_diff(&rt, t0, &m, 0, &vec![2u8; ps], &dirty, 0).unwrap();
        assert_eq!(rt.stats().owner_fast_hits, 1);
        // Rank 1 writes: ownership transfer — must dispatch, not fast.
        let t2 = write_diff(&rt, t1, &m, 0, &vec![3u8; ps], &dirty, 1).unwrap();
        assert_eq!(rt.stats().owner_fast_hits, 1, "transfer is never fast");
        // Rank 0 no longer owns the page: its fast read must miss.
        assert!(rt.read_page_fast(t2, &m, 0, 0).is_none());
        // Contents reflect the last writer regardless of path.
        let (data, _) = read_page(&rt, t2, &m, 0, 0, None).unwrap();
        assert!(data.iter().all(|&b| b == 3));
    }

    #[test]
    fn coalesced_run_counts_one_batched_crossing() {
        let (_c, rt) = runtime(1);
        let m = rt.open_or_create_vector("mem://batch", 1, None, Some(8 * 4096)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        let mut t = 0;
        for page in 0..8 {
            t = write_diff(&rt, t, &m, page, &vec![page as u8; ps], &dirty, 0).unwrap();
        }
        let before = rt.stats();
        let parts = read_run(&rt, t, &m, 0, 8, 0, None).unwrap();
        assert_eq!(parts.len(), 8);
        for (page, (data, _)) in parts.iter().enumerate() {
            assert!(data.iter().all(|&b| b == page as u8), "page {page}");
        }
        let after = rt.stats();
        assert_eq!(after.batched_crossings - before.batched_crossings, 1);
        assert_eq!(after.coalesced_faults - before.coalesced_faults, 7);
        // The 8-page aligned run shares a fault shard, so the whole run is
        // one (or at most two) dispatches, not eight.
        let dispatched =
            (after.tasks_low + after.tasks_high) - (before.tasks_low + before.tasks_high);
        assert!(dispatched <= 2, "run dispatched {dispatched} times");
    }

    #[test]
    fn every_page_of_a_run_touches_its_holder() {
        let (_c, rt) = runtime(1);
        let m = rt.open_or_create_vector("mem://touch", 1, None, Some(4 * 4096)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        let mut t = 0;
        for page in 0..4 {
            t = write_diff(&rt, t, &m, page, &vec![1u8; ps], &dirty, 0).unwrap();
        }
        // `mm_scope`'s per-node load (`scope.node_touches`) must see a
        // coalesced scan: one touch per page served, whatever the run length.
        let touches = || rt.inner.nodes[0].touches.get();
        let before = touches();
        read_run(&rt, t, &m, 0, 4, 0, None).unwrap();
        assert_eq!(touches() - before, 4);
        read_page(&rt, t, &m, 2, 0, None).unwrap();
        assert_eq!(touches() - before, 5);
    }

    #[test]
    fn backend_stage_in_reads_existing_file_data() {
        let (_c, rt) = runtime(1);
        // Pre-populate a mem:// object... mem is volatile; use obj://.
        let url = DataUrl::parse("obj://bkt/data.bin").unwrap();
        let obj = rt.backends().open(&url).unwrap();
        obj.write_at(0, &vec![9u8; 5000]).unwrap();
        let m = rt.open_or_create_vector("obj://bkt/data.bin", 1, Some(4096), None).unwrap();
        assert_eq!(m.len_elems(), 5000);
        let (page0, t) = read_page(&rt, 0, &m, 0, 0, None).unwrap();
        assert!(t > 0);
        assert!(page0.iter().all(|&b| b == 9));
        // Page 1 covers bytes 4096..8192 but only 5000 exist: tail zeros.
        let (page1, _) = read_page(&rt, 0, &m, 1, 0, None).unwrap();
        assert!(page1[..904].iter().all(|&b| b == 9));
        assert!(page1[904..].iter().all(|&b| b == 0));
        assert!(rt.stats().staged_in > 0);
    }

    #[test]
    fn flush_persists_dirty_pages_to_backend() {
        let (_c, rt) = runtime(1);
        let m = rt.open_or_create_vector("obj://bkt/out.bin", 1, Some(4096), Some(6000)).unwrap();
        m.policy.set(Policy::WriteGlobal);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        let t0 = write_diff(&rt, 0, &m, 0, &vec![3u8; ps], &dirty, 0).unwrap();
        let mut dirty1 = RangeSet::new();
        dirty1.insert(0, 6000 - ps as u64);
        let t1 = write_diff(&rt, 0, &m, 1, &vec![4u8; ps], &dirty1, 0).unwrap();
        let done = rt.flush_vector(t0.max(t1), &m).unwrap();
        assert!(done > t0.max(t1));
        let url = DataUrl::parse("obj://bkt/out.bin").unwrap();
        let obj = rt.backends().open(&url).unwrap();
        let all = megammap_formats::object::read_all(obj.as_ref()).unwrap();
        assert_eq!(all.len(), 6000);
        assert!(all[..ps].iter().all(|&b| b == 3));
        assert!(all[ps..6000].iter().all(|&b| b == 4));
        assert!(rt.stats().staged_out > 0);
    }

    #[test]
    fn dmsh_overflow_drains_to_backend() {
        // Tiny DMSH: a single 64 KiB DRAM tier; write 32 pages of 4 KiB
        // to a nonvolatile vector → must emergency-stage to the backend
        // instead of failing.
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let cfg = RuntimeConfig::memory_only(64 * 1024).with_page_size(4096);
        let rt = Runtime::new(&cluster, cfg);
        let m = rt.open_or_create_vector("obj://bkt/big.bin", 1, None, Some(32 * 4096)).unwrap();
        m.policy.set(Policy::WriteGlobal);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        let mut t = 0;
        for page in 0..32 {
            t = write_diff(&rt, t, &m, page, &vec![page as u8; ps], &dirty, 0).unwrap();
        }
        // All 32 pages readable with correct contents.
        let done = rt.flush_vector(t, &m).unwrap();
        for page in [0u64, 10, 31] {
            let (data, _) = read_page(&rt, done, &m, page, 0, None).unwrap();
            assert!(data.iter().all(|&b| b == page as u8), "page {page}");
        }
        assert!(rt.stats().staged_out > 0, "overflow must have staged out");
    }

    #[test]
    fn destroy_clears_everything() {
        let (_c, rt) = runtime(2);
        let m = rt.open_or_create_vector("mem://gone", 1, None, Some(4096)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        write_diff(&rt, 0, &m, 0, &vec![1u8; ps], &dirty, 0).unwrap();
        rt.destroy_vector(&m, true).unwrap();
        assert!(rt.lookup_vector("mem://gone").is_none());
        assert!(rt.inner.dir.is_empty());
        assert!(!rt.inner.nodes[0].dmsh.contains(BlobId::new(m.id, 0)));
    }

    #[test]
    fn shutdown_flushes_nonvolatile_only() {
        let (_c, rt) = runtime(1);
        let nv = rt.open_or_create_vector("obj://b/nv.bin", 1, Some(4096), Some(4096)).unwrap();
        let vol = rt.open_or_create_vector("mem://tmp", 1, Some(4096), Some(4096)).unwrap();
        for m in [&nv, &vol] {
            m.policy.set(Policy::WriteGlobal);
            let ps = m.page_size as usize;
            let mut dirty = RangeSet::new();
            dirty.insert(0, ps as u64);
            write_diff(&rt, 0, m, 0, &vec![8u8; ps], &dirty, 0).unwrap();
        }
        rt.shutdown(1_000_000).unwrap();
        let obj = rt.backends().open(&DataUrl::parse("obj://b/nv.bin").unwrap()).unwrap();
        assert_eq!(obj.len().unwrap(), 4096);
    }

    #[test]
    fn organize_respects_interval() {
        let (_c, rt) = runtime(1);
        let interval = rt.cfg().organize_interval_ns;
        rt.maybe_organize(0, interval + 1);
        let t1 = rt.inner.nodes[0].last_organize.load(Ordering::Relaxed);
        assert_eq!(t1, interval + 1);
        // Too soon: no update.
        rt.maybe_organize(0, interval + 2);
        assert_eq!(rt.inner.nodes[0].last_organize.load(Ordering::Relaxed), t1);
        rt.maybe_organize(0, 3 * interval);
        assert_eq!(rt.inner.nodes[0].last_organize.load(Ordering::Relaxed), 3 * interval);
    }

    #[test]
    fn tier_bandwidth_reflects_residency() {
        let (_c, rt) = runtime(1);
        let m = rt.open_or_create_vector("mem://bw", 1, None, Some(4 * MIB)).unwrap();
        m.policy.set(Policy::Local);
        // Unmapped page: PFS bandwidth.
        assert_eq!(rt.tier_bandwidth_of(&m, 0, 0), rt.cfg().pfs_bandwidth);
        let ps = m.page_size as usize;
        let mut dirty = RangeSet::new();
        dirty.insert(0, ps as u64);
        write_diff(&rt, 0, &m, 0, &vec![1u8; ps], &dirty, 0).unwrap();
        assert_eq!(rt.tier_bandwidth_of(&m, 0, 0), rt.cfg().tiers[0].bandwidth);
    }
}
