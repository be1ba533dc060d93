//! The shared vector: MegaMmap's user-facing abstraction.
//!
//! "MegaMmap implements a shared memory vector API, providing
//! implementations of several functions and operators including array
//! index, memory copy, acquiring current size, appending, resizing, and
//! destroying the data container. Processes connect to the shared vector
//! using a semantic, user-defined key common to all processes."
//!
//! An [`MmVec<T>`] instance is the per-process view of one shared vector:
//! it owns a bounded [`PCache`] and an optional active [`Transaction`];
//! the shared state (length, coherence phase, the tiered scache pages)
//! lives behind the [`Runtime`]. All operations take the calling process's
//! [`Proc`] so data movement is charged to the right virtual clock.

use std::marker::PhantomData;
use std::sync::Arc;

use megammap_cluster::Proc;
use megammap_sim::SimTime;
use megammap_telemetry::{lockorder, Counter, Histogram, LockOrderToken, LockRank, Stage};
use parking_lot::{Mutex, MutexGuard};

use crate::client::VecOptions;
use crate::element::Element;
use crate::error::{MmError, Result};
use crate::pagebuf::PageBuf;
use crate::pcache::{CachedPage, PCache, PCacheStats};
use crate::policy::{Access, Policy};
use crate::prefetch::{run_prefetcher, PrefetchEnv};
use crate::runtime::{Payload, Runtime, VectorMeta};
use crate::tenant::TenantAccount;
use crate::tx::{AccessPattern, Transaction, TxKind};

/// Virtual-ns bucket bounds for per-tenant fault-latency histograms: DRAM
/// hits sit in the first buckets, cross-node / slow-tier faults in the last.
const TENANT_FAULT_BOUNDS: [u64; 15] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Cached per-tenant telemetry handles (`None` in single-tenant mode).
struct TenantMetrics {
    acct: Arc<TenantAccount>,
    /// Demand faults taken by this tenant's handle.
    faults: Counter,
    /// Virtual fault latency (miss detect → page installed), per fault.
    fault_ns: Histogram,
    /// pcache evictions this tenant's handle absorbed.
    evictions: Counter,
}

/// Opaque token for an active transaction (returned by
/// [`MmVec::tx_begin`], consumed by [`MmVec::tx_end`]).
#[derive(Debug)]
pub struct TxHandle {
    seq: u64,
}

/// The per-process handle on a shared MegaMmap vector.
pub struct MmVec<T: Element> {
    meta: Arc<VectorMeta>,
    rt: Runtime,
    state: Mutex<VecState>,
    pgas: Mutex<Option<(usize, usize)>>,
    no_prefetch: bool,
    /// Prefetched pages evicted before ever being read (`prefetch.wasted`).
    wasted_prefetches: Counter,
    /// Bytes physically copied by copy-on-write promotions — shares the
    /// runtime's `runtime.bytes_copied` registry cell.
    bytes_copied: Counter,
    /// Bytes pulled by synchronous demand faults (demand page + coalesced
    /// neighbours) — shares the runtime's `runtime.fault_bytes` cell.
    fault_bytes: Counter,
    /// Tenant attribution for this handle (mm-serve memory QoS).
    tenant: Option<TenantMetrics>,
    _t: PhantomData<T>,
}

struct VecState {
    pcache: PCache,
    tx: Option<Transaction>,
    tx_seq: u64,
    /// Completion time of the most recent asynchronous flush.
    last_flush_done: SimTime,
}

impl<T: Element> MmVec<T> {
    /// Create or attach to the shared vector named by `key` (a URL; see
    /// [`megammap_formats::url`]). Idempotent across processes.
    pub fn open(rt: &Runtime, _p: &Proc, key: &str, opts: VecOptions) -> Result<Self> {
        let meta =
            rt.open_or_create_vector(key, T::SIZE as u64, opts.page_size, opts.initial_len)?;
        let pcache_cap = opts.pcache_bytes.unwrap_or(rt.cfg().default_pcache);
        let mut pcache = PCache::new(meta.page_size, pcache_cap);
        pcache.attach_telemetry(rt.telemetry(), key);
        let tenant = match opts.tenant {
            Some(tid) => {
                let acct = rt
                    .tenants()
                    .account(tid)
                    .ok_or(MmError::Internal("tenant not registered in the runtime ledger"))?;
                pcache.attach_tenant(acct.clone());
                rt.set_vector_qos(meta.id, acct.class().retention_priority(), acct.name());
                let labels = [("tenant", acct.name())];
                let tel = rt.telemetry();
                Some(TenantMetrics {
                    faults: tel.counter("tenant", "faults", &labels),
                    fault_ns: tel.histogram("tenant", "fault_ns", &labels, &TENANT_FAULT_BOUNDS),
                    evictions: tel.counter("tenant", "pcache_evictions", &labels),
                    acct,
                })
            }
            None => None,
        };
        Ok(Self {
            meta: meta.clone(),
            rt: rt.clone(),
            state: Mutex::new(VecState { pcache, tx: None, tx_seq: 0, last_flush_done: 0 }),
            pgas: Mutex::new(None),
            no_prefetch: opts.no_prefetch,
            wasted_prefetches: rt.telemetry().counter("prefetch", "wasted", &[("vec", key)]),
            bytes_copied: rt.telemetry().counter("runtime", "bytes_copied", &[]),
            fault_bytes: rt.telemetry().counter("runtime", "fault_bytes", &[]),
            tenant,
            _t: PhantomData,
        })
    }

    /// Current length in elements.
    pub fn len(&self) -> u64 {
        self.meta.len_elems()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The vector's key.
    pub fn key(&self) -> &str {
        &self.meta.key
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.meta.page_size
    }

    /// Bound the DRAM this process may use for the vector (`BoundMemory`).
    pub fn bound_memory(&self, bytes: u64) {
        self.state.lock().pcache.set_cap(bytes);
    }

    /// Resize to `elems` elements (growing reads as zero).
    pub fn resize(&self, elems: u64) {
        self.meta.len.store(elems, std::sync::atomic::Ordering::Release);
    }

    /// pcache statistics for this process's view.
    pub fn cache_stats(&self) -> PCacheStats {
        self.state.lock().pcache.stats()
    }

    /// Bytes currently resident in this handle's pcache (what tenant
    /// budget accounting charges).
    pub fn resident_bytes(&self) -> u64 {
        self.state.lock().pcache.used()
    }

    /// The shared metadata (id, policy phase, ...).
    pub fn meta(&self) -> &Arc<VectorMeta> {
        &self.meta
    }

    /// The tenant account this handle charges (mm-serve), if any.
    pub fn tenant_account(&self) -> Option<&Arc<TenantAccount>> {
        self.tenant.as_ref().map(|tm| &tm.acct)
    }

    // ---- PGAS partitioning ------------------------------------------------

    /// Declare the PGAS block partition: this process owns the `rank`-th of
    /// `nprocs` equal slices (paper: `pts.Pgas(rank, nprocs)`).
    pub fn pgas(&self, _p: &Proc, rank: usize, nprocs: usize) {
        assert!(rank < nprocs, "rank {rank} out of {nprocs}");
        *self.pgas.lock() = Some((rank, nprocs));
    }

    /// First element of this process's partition (`local_off`).
    pub fn local_off(&self) -> u64 {
        let (rank, n) = self.pgas.lock().expect("call pgas() first");
        self.len() * rank as u64 / n as u64
    }

    /// Length of this process's partition (`local_size`).
    pub fn local_len(&self) -> u64 {
        let (rank, n) = self.pgas.lock().expect("call pgas() first");
        let len = self.len();
        len * (rank as u64 + 1) / n as u64 - len * rank as u64 / n as u64
    }

    /// The element range this process owns.
    pub fn local_range(&self) -> std::ops::Range<u64> {
        let off = self.local_off();
        off..off + self.local_len()
    }

    // ---- transactions -----------------------------------------------------

    /// Begin a transaction (`TxBegin`): declare the access pattern and
    /// intent of the upcoming phase. Runs the coherence phase transition
    /// (invalidating replicas when leaving a read-only phase) and an
    /// initial prefetcher pass.
    pub fn tx_begin(&self, p: &Proc, kind: TxKind, access: Access) -> TxHandle {
        self.try_tx_begin(p, kind, access).expect("tx_begin failed")
    }

    /// [`tx_begin`](Self::tx_begin), surfacing errors (an already-active
    /// transaction, or a failed commit of leftover dirty pages).
    pub fn try_tx_begin(&self, p: &Proc, kind: TxKind, access: Access) -> Result<TxHandle> {
        self.begin_inner(p, kind, access, AccessPattern::Auto)
    }

    /// [`try_tx_begin`](Self::try_tx_begin) with an explicit
    /// [`AccessPattern`] hint. `Random` zeroes the prefetch window and
    /// skips score bookkeeping on every miss of the transaction.
    pub(crate) fn begin_hinted(
        &self,
        p: &Proc,
        kind: TxKind,
        access: Access,
        pattern: AccessPattern,
    ) -> Result<TxHandle> {
        self.begin_inner(p, kind, access, pattern)
    }

    fn begin_inner(
        &self,
        p: &Proc,
        kind: TxKind,
        access: Access,
        pattern: AccessPattern,
    ) -> Result<TxHandle> {
        if self.meta.policy.get().transition_invalidates(access) {
            self.rt.invalidate_replicas(&self.meta);
        }
        self.meta.policy.set(Policy::from_access(access));
        let (mut st, _lo) = self.lock_state();
        if st.tx.is_some() {
            return Err(MmError::Internal("a transaction is already active on this vector"));
        }
        st.tx_seq += 1;
        let seq = st.tx_seq;
        // Pages left over from earlier transactions become reclaimable so
        // this transaction's working set can displace them.
        st.pcache.age_all();
        // Entering a globally-reading phase: locally cached pages may be
        // stale (other processes committed to the scache since we cached
        // them), so drop them. Dirty pages are committed first. Local-read
        // phases keep the cache: PGAS ownership guarantees nobody else
        // wrote our partition.
        if access.reads() && !access.is_local() {
            self.commit_dirty(p, &mut st)?;
            // Keep pages this process itself fully wrote (and committed) in
            // the immediately preceding transaction: their local copies are
            // the canonical content. Everything else may be stale.
            let prev = st.tx_seq - 1;
            st.pcache.drop_stale(prev);
        }
        let mut tx = Transaction::new(kind, access, T::SIZE as u64, self.meta.page_size)
            .with_pattern(pattern);
        // Initial prefetch: warm the pipeline before the first access.
        if access.reads() {
            self.run_prefetch(p, &mut st, &mut tx);
        }
        st.tx = Some(tx);
        Ok(TxHandle { seq })
    }

    /// Begin a collective transaction over a group of `group` processes
    /// (the Collective hint: tree-shaped distribution).
    pub fn tx_begin_collective(
        &self,
        p: &Proc,
        kind: TxKind,
        access: Access,
        group: usize,
    ) -> TxHandle {
        self.try_tx_begin_collective(p, kind, access, group).expect("tx_begin failed")
    }

    /// [`tx_begin_collective`](Self::tx_begin_collective), surfacing errors.
    pub fn try_tx_begin_collective(
        &self,
        p: &Proc,
        kind: TxKind,
        access: Access,
        group: usize,
    ) -> Result<TxHandle> {
        let h = self.try_tx_begin(p, kind, access)?;
        let (mut st, _lo) = self.lock_state();
        if let Some(tx) = st.tx.as_mut() {
            tx.collective = Some(group);
        }
        Ok(h)
    }

    /// End the transaction (`TxEnd`): commit all unflushed modifications as
    /// asynchronous writer tasks (the process pays only the memcpy).
    pub fn tx_end(&self, p: &Proc, tx: TxHandle) {
        self.try_tx_end(p, tx).expect("tx_end failed")
    }

    /// [`tx_end`](Self::tx_end), surfacing errors (a stale handle, or a
    /// failed commit of the transaction's dirty pages).
    pub fn try_tx_end(&self, p: &Proc, tx: TxHandle) -> Result<()> {
        let (mut st, _lo) = self.lock_state();
        if st.tx.as_ref().map(|_| st.tx_seq) != Some(tx.seq) {
            return Err(MmError::Internal("tx_end with a stale transaction handle"));
        }
        self.commit_dirty(p, &mut st)?;
        st.tx = None;
        // Registry mirroring is deferred off the hit fast path; publish the
        // accumulated deltas now so snapshots taken between transactions
        // see exact pcache totals.
        st.pcache.sync_shared();
        Ok(())
    }

    // ---- element access ---------------------------------------------------

    /// Read element `i` (array-index operator).
    pub fn load(&self, p: &Proc, _tx: &TxHandle, i: u64) -> T {
        self.try_load(p, i).expect("load failed")
    }

    /// Read element `i`, surfacing errors.
    pub fn try_load(&self, p: &Proc, i: u64) -> Result<T> {
        let len = self.len();
        if i >= len {
            return Err(MmError::OutOfBounds { index: i, len });
        }
        let (mut st, _lo) = self.lock_state();
        let page = i * T::SIZE as u64 / self.meta.page_size;
        let off = (i * T::SIZE as u64 % self.meta.page_size) as usize;
        let crossed = match st.tx.as_mut() {
            Some(tx) => tx.record_access(i),
            None => false,
        };
        let cp = self.page_for_read(p, &mut st, page)?;
        let val = T::read_from(&cp.data.as_slice()[off..off + T::SIZE]);
        // The per-access overhead: a DRAM touch of one element.
        p.advance(p.cpu().mem_ns(T::SIZE as u64));
        if crossed {
            self.prefetch_tick(p, &mut st);
        }
        Ok(val)
    }

    /// Write element `i` (mutable array-index operator).
    pub fn store(&self, p: &Proc, _tx: &TxHandle, i: u64, v: T) {
        self.try_store(p, i, v).expect("store failed")
    }

    /// Write element `i`, surfacing errors.
    pub fn try_store(&self, p: &Proc, i: u64, v: T) -> Result<()> {
        let len = self.len();
        if i >= len {
            return Err(MmError::OutOfBounds { index: i, len });
        }
        let (mut st, _lo) = self.lock_state();
        let page = i * T::SIZE as u64 / self.meta.page_size;
        let off = i * T::SIZE as u64 % self.meta.page_size;
        let (crossed, reads) = match st.tx.as_mut() {
            Some(tx) => (tx.record_access(i), tx.access.reads()),
            None => (false, true),
        };
        let cp = if reads {
            // Read-modify-write intent: the rest of the page must be valid.
            self.page_for_read(p, &mut st, page)?
        } else {
            // Write-only intent: copy-on-write into a fresh local page,
            // no fault needed ("Processes write to their local pcache
            // first and have their own view of data").
            self.page_for_write(p, &mut st, page)?
        };
        let buf = Self::writable(&self.bytes_copied, cp);
        v.write_to(&mut buf[off as usize..off as usize + T::SIZE]);
        cp.dirty.insert(off, off + T::SIZE as u64);
        p.advance(p.cpu().mem_ns(T::SIZE as u64));
        if crossed {
            self.prefetch_tick(p, &mut st);
        }
        Ok(())
    }

    /// Append a value; returns its index. Concurrent appends from multiple
    /// processes receive distinct indices (atomic reservation).
    pub fn append(&self, p: &Proc, tx: &TxHandle, v: T) -> u64 {
        self.try_append(p, tx, v).expect("append failed")
    }

    /// [`append`](Self::append), surfacing errors.
    pub fn try_append(&self, p: &Proc, _tx: &TxHandle, v: T) -> Result<u64> {
        let i = self.meta.len.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        let (mut st, _lo) = self.lock_state();
        let reads = match st.tx.as_mut() {
            Some(tx) => {
                tx.record_access(i);
                tx.access.reads()
            }
            None => true,
        };
        let page = i * T::SIZE as u64 / self.meta.page_size;
        let off = i * T::SIZE as u64 % self.meta.page_size;
        // Under a reading intent the rest of the page must stay valid for
        // later loads, so fault it in; append-only intents may take the
        // cheap copy-on-write zero page.
        let cp = if reads {
            self.page_for_read(p, &mut st, page)?
        } else {
            self.page_for_write(p, &mut st, page)?
        };
        let buf = Self::writable(&self.bytes_copied, cp);
        v.write_to(&mut buf[off as usize..off as usize + T::SIZE]);
        cp.dirty.insert(off, off + T::SIZE as u64);
        p.advance(p.cpu().mem_ns(T::SIZE as u64));
        Ok(i)
    }

    /// Bulk read `out.len()` elements starting at `start` (memory-copy
    /// operator). Works page-at-a-time; sequential bulk reads cost one
    /// fault per page at most.
    pub fn read_into(&self, p: &Proc, start: u64, out: &mut [T]) -> Result<()> {
        let len = self.len();
        if start + out.len() as u64 > len {
            return Err(MmError::OutOfBounds { index: start + out.len() as u64, len });
        }
        let (mut st, _lo) = self.lock_state();
        let esz = T::SIZE as u64;
        let mut done = 0usize;
        while done < out.len() {
            let i = start + done as u64;
            let page = i * esz / self.meta.page_size;
            let off = (i * esz % self.meta.page_size) as usize;
            let in_page = ((self.meta.page_size as usize - off) / T::SIZE).min(out.len() - done);
            if let Some(tx) = st.tx.as_mut() {
                tx.tail += in_page as u64;
            }
            let cp = self.page_for_read(p, &mut st, page)?;
            let buf = cp.data.as_slice();
            for (k, slot) in out[done..done + in_page].iter_mut().enumerate() {
                *slot = T::read_from(&buf[off + k * T::SIZE..off + (k + 1) * T::SIZE]);
            }
            p.advance(p.cpu().mem_ns((in_page * T::SIZE) as u64));
            done += in_page;
            self.prefetch_tick(p, &mut st);
        }
        Ok(())
    }

    /// Bulk write (memory-copy operator), page-at-a-time.
    pub fn write_slice(&self, p: &Proc, start: u64, vals: &[T]) -> Result<()> {
        let len = self.len();
        if start + vals.len() as u64 > len {
            return Err(MmError::OutOfBounds { index: start + vals.len() as u64, len });
        }
        let (mut st, _lo) = self.lock_state();
        let esz = T::SIZE as u64;
        let reads = st.tx.as_ref().map(|tx| tx.access.reads()).unwrap_or(true);
        let mut done = 0usize;
        while done < vals.len() {
            let i = start + done as u64;
            let page = i * esz / self.meta.page_size;
            let off = (i * esz % self.meta.page_size) as usize;
            let in_page = ((self.meta.page_size as usize - off) / T::SIZE).min(vals.len() - done);
            if let Some(tx) = st.tx.as_mut() {
                tx.tail += in_page as u64;
            }
            let cp = if reads {
                self.page_for_read(p, &mut st, page)?
            } else {
                self.page_for_write(p, &mut st, page)?
            };
            let buf = Self::writable(&self.bytes_copied, cp);
            for (k, v) in vals[done..done + in_page].iter().enumerate() {
                v.write_to(&mut buf[off + k * T::SIZE..off + (k + 1) * T::SIZE]);
            }
            cp.dirty.insert(off as u64, (off + in_page * T::SIZE) as u64);
            p.advance(p.cpu().mem_ns((in_page * T::SIZE) as u64));
            done += in_page;
            self.prefetch_tick(p, &mut st);
        }
        Ok(())
    }

    // ---- flushing / teardown ------------------------------------------------

    /// Commit dirty pcache pages and stage the vector to its backend,
    /// without waiting (the asynchronous flushing that overlaps compute).
    pub fn flush_async(&self, p: &Proc) -> Result<()> {
        let (mut st, _lo) = self.lock_state();
        self.commit_dirty(p, &mut st)?;
        let done = self.rt.flush_vector(p.now(), &self.meta)?;
        st.last_flush_done = st.last_flush_done.max(done);
        Ok(())
    }

    /// Commit dirty pages and wait until everything is persistent (msync).
    pub fn flush_wait(&self, p: &Proc) -> Result<()> {
        self.flush_async(p)?;
        let done = self.state.lock().last_flush_done;
        p.advance_to(done);
        Ok(())
    }

    /// Wait for any previously submitted asynchronous flush to complete.
    pub fn drain(&self, p: &Proc) {
        let done = self.state.lock().last_flush_done;
        p.advance_to(done);
    }

    /// Explicitly destroy the shared vector ("users must explicitly destroy
    /// them ... to avoid the race condition where processes finish at
    /// separate times"). `purge` also deletes persistent backend contents.
    pub fn destroy(self, p: &Proc, purge: bool) -> Result<()> {
        let (mut st, _lo) = self.lock_state();
        st.pcache.drain();
        st.tx = None;
        drop(st);
        let _ = p;
        self.rt.destroy_vector(&self.meta, purge)
    }

    // ---- internals ----------------------------------------------------------

    /// Take the per-process state lock, registering it with the
    /// [`lockorder`] layer (rank [`LockRank::VecState`], the bottom of the
    /// workspace lock order — everything else may be acquired under it).
    fn lock_state(&self) -> (MutexGuard<'_, VecState>, LockOrderToken) {
        let st = self.state.lock();
        (st, lockorder::acquired(LockRank::VecState))
    }

    /// Copy-on-write access to a cached page's bytes: promote a shared view
    /// to a private buffer on the first write, charging any physical copy to
    /// the `runtime.bytes_copied` counter. Clean re-writes of an
    /// already-private page are free.
    fn writable<'a>(bytes_copied: &Counter, cp: &'a mut CachedPage) -> &'a mut [u8] {
        let copied = cp.data.promote();
        if copied > 0 {
            bytes_copied.add(copied);
        }
        cp.data.owned_mut()
    }

    /// Submit one page's dirty bytes as an asynchronous writer MemoryTask
    /// under its own `Commit` trace. A full page travels as the buffer
    /// itself; a diff pays the memcpy of the modified bytes first ("During
    /// an eviction, the application will only experience the performance
    /// cost of a memory copy").
    fn submit(&self, p: &Proc, page: u64, payload: Payload<'_>) -> Result<()> {
        let tel = self.rt.telemetry();
        let begin = p.now();
        let ctx = tel.trace_begin(p.node() as u32);
        let bytes = payload.covered();
        if let Payload::Diff(..) = payload {
            p.advance(p.cpu().memcpy_ns(bytes));
        }
        let done = self.rt.commit_page(p.now(), &self.meta, page, payload, p.node(), ctx)?;
        if !ctx.is_none() {
            let policy = self.meta.policy.get().name();
            tel.trace_end(ctx, Stage::Commit, begin, done, p.node() as u32, bytes, policy, page);
        }
        Ok(())
    }

    /// Submit every dirty page as an asynchronous writer MemoryTask.
    /// Fully-dirty pages take the zero-copy path: the private buffer is
    /// frozen into a shared [`PageBuf`] view and handed to the scache as-is
    /// (no memcpy at all); the page stays resident and clean.
    fn commit_dirty(&self, p: &Proc, st: &mut VecState) -> Result<()> {
        let seq = st.tx_seq;
        for page in st.pcache.dirty_pages() {
            let cp = st
                .pcache
                .peek_mut(page)
                .ok_or(MmError::Internal("page listed dirty but absent from pcache"))?;
            let ranges = std::mem::take(&mut cp.dirty);
            let payload = if ranges.covers(0, cp.data.len() as u64) {
                cp.self_write_seq = Some(seq);
                Payload::Full(cp.data.freeze())
            } else {
                Payload::Diff(cp.data.as_slice(), &ranges)
            };
            if let Err(e) = self.submit(p, page, payload) {
                // Writer submission failed: restore the dirty ranges so
                // the modifications survive for a retry.
                if let Some(cp) = st.pcache.peek_mut(page) {
                    cp.dirty = ranges;
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Ensure `page` is resident with valid contents; faults synchronously
    /// on miss.
    fn page_for_read<'a>(
        &self,
        p: &Proc,
        st: &'a mut VecState,
        page: u64,
    ) -> Result<&'a mut CachedPage> {
        if st.pcache.access(page).is_some() {
            let ready_at = st
                .pcache
                .peek_mut(page)
                .ok_or(MmError::Internal("pcache hit vanished before peek"))?
                .ready_at;
            // Wait for an in-flight prefetch to land.
            if ready_at > p.now() {
                p.advance_to(ready_at);
            }
            return st.pcache.peek_mut(page).ok_or(MmError::Internal("pcache hit vanished"));
        }
        // Miss: make room, then fault. Sequential transactions coalesce a
        // run of contiguous absent pages into one batched crossing — one
        // shard dispatch amortized over the whole run, each page landing
        // as a zero-copy shared view.
        let fault_at = p.now();
        let tel = self.rt.telemetry();
        self.make_room(p, st)?;
        let collective = st.tx.as_ref().and_then(|tx| tx.collective);
        let run = self.coalesce_run(st, page);
        if run == 1 {
            // Single-page fault: try the ownership fast path first. A hit
            // never crosses into the runtime, so no trace is allocated —
            // the fault is counted (runtime counters, the tenant latency
            // histogram below) but not traced. Coalesced runs skip this:
            // batching the run is worth more than one owner-local read.
            if let Some((data, done)) = self.rt.read_page_fast(p.now(), &self.meta, page, p.node())
            {
                p.advance_to(done);
                st.pcache.insert(page, CachedPage::new(PageBuf::shared(data), p.now()));
                self.fault_bytes.add(self.meta.page_size);
                if let Some(tm) = &self.tenant {
                    tm.faults.inc();
                    tm.fault_ns.record(p.now().saturating_sub(fault_at));
                }
                return st
                    .pcache
                    .peek_mut(page)
                    .ok_or(MmError::Internal("faulted page vanished after insert"));
            }
        }
        let ctx = tel.trace_begin(p.node() as u32);
        tel.trace_child(ctx, Stage::MissDetect, fault_at, fault_at, p.node() as u32, 0, "", page);
        // The faulting page is held back and inserted last so it stays the
        // fast-path `last` entry; the extras of a coalesced run land as
        // prefetched pages with their own ready time. The device, worker and
        // network charges already model shipping each page: installing it is
        // a refcount bump, not a copy.
        let mut faulted = None;
        let mut next = page;
        self.rt.read_pages(
            p.now(),
            &self.meta,
            page,
            run,
            p.node(),
            collective,
            false,
            ctx,
            |data, ready| {
                if next == page {
                    faulted = Some((data, ready));
                } else {
                    let mut cp = CachedPage::new(PageBuf::shared(data), ready);
                    cp.prefetched = true;
                    st.pcache.insert(next, cp);
                }
                next += 1;
            },
        )?;
        let (data, done) = faulted.ok_or(MmError::Internal("ranged read returned no pages"))?;
        p.advance_to(done);
        st.pcache.insert(page, CachedPage::new(PageBuf::shared(data), p.now()));
        if !ctx.is_none() {
            let policy = self.meta.policy.get().name();
            tel.trace_end(
                ctx,
                Stage::Fault,
                fault_at,
                p.now(),
                p.node() as u32,
                self.meta.page_size * run,
                policy,
                page,
            );
        }
        self.fault_bytes.add(self.meta.page_size * run);
        if let Some(tm) = &self.tenant {
            tm.faults.inc();
            tm.fault_ns.record(p.now().saturating_sub(fault_at));
        }
        st.pcache.peek_mut(page).ok_or(MmError::Internal("faulted page vanished after insert"))
    }

    /// How many contiguous pages (starting at the faulting `page`) to pull
    /// in one ranged MemoryTask. Returns 1 (no coalescing) unless the
    /// active transaction declares a sequential access pattern that
    /// actually extends past `page`. Bounded by the vector end, the free
    /// pcache space, and [`RuntimeConfig::max_coalesce_pages`].
    fn coalesce_run(&self, st: &VecState, page: u64) -> u64 {
        if self.no_prefetch {
            return 1;
        }
        let Some(tx) = st.tx.as_ref() else { return 1 };
        if !tx.access.reads() || tx.pattern == AccessPattern::Random {
            return 1;
        }
        let tx_last = match tx.kind {
            TxKind::Seq { start, len } if len > 0 => tx.page_of(start + len - 1),
            TxKind::Append { .. } => u64::MAX,
            _ => return 1,
        };
        let last_page = self.meta.num_pages().saturating_sub(1).min(tx_last);
        let ps = self.meta.page_size.max(1);
        let budget = (st.pcache.available() / ps).max(1).min(self.rt.cfg().max_coalesce_pages);
        let mut run = 1u64;
        while run < budget && page + run <= last_page && !st.pcache.contains(page + run) {
            run += 1;
        }
        run
    }

    /// Ensure `page` is resident for write-only intent: a fresh zero page
    /// is enough (copy-on-write; the diff ranges carry the truth).
    fn page_for_write<'a>(
        &self,
        p: &Proc,
        st: &'a mut VecState,
        page: u64,
    ) -> Result<&'a mut CachedPage> {
        if st.pcache.access(page).is_some() {
            return st.pcache.peek_mut(page).ok_or(MmError::Internal("pcache hit vanished"));
        }
        self.make_room(p, st)?;
        let data = PageBuf::zeroed(self.meta.page_size as usize);
        st.pcache.insert(page, CachedPage::new(data, p.now()));
        st.pcache.peek_mut(page).ok_or(MmError::Internal("zero page vanished after insert"))
    }

    /// Whether this handle's tenant is over its pcache budget (counting
    /// residency across all of the tenant's handles). Single-tenant mode
    /// never is.
    fn tenant_over_budget(&self) -> bool {
        self.tenant.as_ref().map(|tm| tm.acct.over_budget()).unwrap_or(false)
    }

    /// Evict until a page fits under the bound *and* the owning tenant is
    /// back within its pcache budget (admission control pressure: a tenant
    /// pushed over budget by another of its handles gives memory back here).
    fn make_room(&self, p: &Proc, st: &mut VecState) -> Result<()> {
        while (st.pcache.needs_eviction() || self.tenant_over_budget()) && !st.pcache.is_empty() {
            let Some(victim) = st.pcache.pick_victim() else { break };
            self.evict_page(p, st, victim)?;
        }
        Ok(())
    }

    /// Evict one page: dirty bytes become an asynchronous writer task (the
    /// process pays only the memcpy), clean pages are dropped.
    fn evict_page(&self, p: &Proc, st: &mut VecState, page: u64) -> Result<()> {
        let Some(mut cp) = st.pcache.remove(page) else { return Ok(()) };
        if let Some(tm) = &self.tenant {
            tm.evictions.inc();
        }
        if cp.prefetched {
            // Fetched by the prefetcher but evicted before any access.
            self.wasted_prefetches.inc();
        }
        if cp.dirty.is_empty() {
            return Ok(());
        }
        let full = cp.dirty.covers(0, cp.data.len() as u64);
        let payload = if full {
            // Fully-dirty eviction ships the buffer itself — no memcpy.
            // Taking the buffer out keeps its refcount at one so the
            // scache can steal the allocation instead of copying.
            Payload::Full(std::mem::take(&mut cp.data).into_bytes())
        } else {
            Payload::Diff(cp.data.as_slice(), &cp.dirty)
        };
        let res = self.submit(p, page, payload);
        // Writer submission failed. A partially-dirty page still holds its
        // bytes: put it back so nothing is lost. The fully-dirty buffer was
        // consumed by the attempt.
        if res.is_err() && !full {
            st.pcache.insert(page, cp);
        }
        res
    }

    fn run_prefetch(&self, p: &Proc, st: &mut VecState, tx: &mut Transaction) {
        // `Random`-hinted transactions declare no spatial locality: zero
        // the window (head catches up to tail) without running Algorithm 1
        // at all, so the fault path pays no distinct-page window scoring.
        if self.no_prefetch || tx.pattern == AccessPattern::Random {
            tx.head = tx.tail;
            return;
        }
        let mut env = VecEnv { vec: self, p, st };
        run_prefetcher(&mut env, tx, self.rt.cfg().min_score);
    }

    fn prefetch_tick(&self, p: &Proc, st: &mut VecState) {
        let Some(mut tx) = st.tx.take() else { return };
        if tx.access.reads() {
            self.run_prefetch(p, st, &mut tx);
        } else {
            // Write-only phases do not prefetch, but consumed pages still
            // get evicted (scored 0) so production never blocks on space.
            tx.head = tx.tail;
        }
        st.tx = Some(tx);
    }
}

/// Adapter giving Algorithm 1 access to one vector's pcache + runtime.
struct VecEnv<'a, T: Element> {
    vec: &'a MmVec<T>,
    p: &'a Proc,
    st: &'a mut VecState,
}

impl<T: Element> PrefetchEnv for VecEnv<'_, T> {
    fn cap(&self) -> u64 {
        self.st.pcache.cap()
    }

    fn cur(&self) -> u64 {
        self.st.pcache.used()
    }

    fn reclaimable(&self) -> u64 {
        self.st.pcache.reclaimable()
    }

    fn page_size(&self) -> u64 {
        self.vec.meta.page_size
    }

    fn num_pages(&self) -> u64 {
        self.vec.meta.num_pages()
    }

    fn node_id(&self) -> usize {
        self.p.node()
    }

    fn tier_bandwidth(&self, page: u64) -> u64 {
        self.vec.rt.tier_bandwidth_of(&self.vec.meta, page, self.p.node())
    }

    fn set_score(&mut self, page: u64, score: f64, node: usize) {
        if let Some(cp) = self.st.pcache.peek_mut(page) {
            cp.score = score as f32;
        }
        self.vec.rt.rescore(self.p.now(), &self.vec.meta, page, score, node);
    }

    fn evict(&mut self, page: u64) {
        // Prefetcher-driven eviction is best-effort: a failed write-back
        // leaves the page resident and the prefetcher simply makes less
        // room this tick.
        let _ = self.vec.evict_page(self.p, self.st, page);
    }

    fn resident(&self, page: u64) -> bool {
        self.st.pcache.contains(page)
    }

    fn issue_prefetch(&mut self, first: u64, count: u64) {
        // One batched crossing per chunk: the run is split at the coalesce
        // bound (which also keeps each chunk inside one fault shard's
        // 8-page neighbourhood — see `directory::shard_of`).
        let max = self.vec.rt.cfg().max_coalesce_pages.max(1);
        let end = first + count;
        let mut start = first;
        while start < end {
            let n = max.min(end - start);
            if !self.make_prefetch_room() {
                return; // nothing reclaimable; skip the rest of the run
            }
            let collective = self.st.tx.as_ref().and_then(|tx| tx.collective);
            let tel = self.vec.rt.telemetry();
            let issued = self.p.now();
            let ctx = tel.trace_begin(self.p.node() as u32);
            let mut next = start;
            let mut bytes = 0u64;
            let ready = self.vec.rt.read_pages(
                issued,
                &self.vec.meta,
                start,
                n,
                self.p.node(),
                collective,
                true,
                ctx,
                |data, ready_at| {
                    bytes += data.len() as u64;
                    let mut cp = CachedPage::new(PageBuf::shared(data), ready_at);
                    cp.prefetched = true;
                    self.st.pcache.insert(next, cp);
                    next += 1;
                },
            );
            if !ctx.is_none() {
                // Prefetch is best-effort: a failed chunk closes its span
                // empty and the next chunk goes ahead.
                let (ready, bytes) = ready.map_or((issued, 0), |ready| (ready, bytes));
                let policy = self.vec.meta.policy.get().name();
                tel.trace_end(
                    ctx,
                    Stage::Prefetch,
                    issued,
                    ready,
                    self.p.node() as u32,
                    bytes,
                    policy,
                    start,
                );
            }
            start += n;
        }
    }
}

impl<T: Element> VecEnv<'_, T> {
    /// Evict reclaimable pages until the pcache has room, refusing to
    /// displace pages the Evict phase marked hot (score 1) for
    /// further-future ones. Returns false when no room can be made.
    fn make_prefetch_room(&mut self) -> bool {
        while self.st.pcache.needs_eviction() {
            match self.st.pcache.pick_victim() {
                Some(v) => {
                    if self.st.pcache.peek(v).map(|cp| cp.score).unwrap_or(0.0) >= 0.99 {
                        return false;
                    }
                    if self.vec.evict_page(self.p, self.st, v).is_err() {
                        return false;
                    }
                }
                None => break,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use megammap_cluster::{Cluster, ClusterSpec};

    fn fixture(nodes: usize, procs: usize) -> (Cluster, Runtime) {
        let cluster = Cluster::new(ClusterSpec::new(nodes, procs));
        let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(1024));
        (cluster, rt)
    }

    #[test]
    fn single_process_store_load() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<u64> = MmVec::open(&rt, p, "mem://a", VecOptions::new().len(100)).unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, 100), Access::ReadWriteGlobal);
            for i in 0..100 {
                v.store(p, &tx, i, i * 3);
            }
            for i in 0..100 {
                assert_eq!(v.load(p, &tx, i), i * 3);
            }
            v.tx_end(p, tx);
        });
    }

    #[test]
    fn sequential_scan_prefetches_in_batched_runs() {
        let (cluster, rt) = fixture(1, 1);
        let rt2 = rt.clone();
        cluster.run(move |p| {
            // 32 pages of u64s, written and committed first.
            let n = 32 * 1024 / 8;
            let v: MmVec<u64> =
                MmVec::open(&rt2, p, "mem://batchscan", VecOptions::new().len(n).pcache(40 * 1024))
                    .unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, n), Access::WriteLocal);
            for i in 0..n {
                v.store(p, &tx, i, i * 7);
            }
            v.tx_end(p, tx);
            // A fresh handle scans the whole vector: the prefetcher must
            // submit its windows as batched runs, so the scan crosses into
            // the runtime ~pages/8 times, not once per page.
            let vr: MmVec<u64> =
                MmVec::open(&rt2, p, "mem://batchscan", VecOptions::new().len(n).pcache(40 * 1024))
                    .unwrap();
            let before = rt2.stats();
            let tx = vr.tx_begin(p, TxKind::seq(0, n), Access::ReadOnly);
            for i in 0..n {
                assert_eq!(vr.load(p, &tx, i), i * 7);
            }
            vr.tx_end(p, tx);
            let after = rt2.stats();
            let crossings = after.batched_crossings - before.batched_crossings;
            let prefetches = after.prefetches - before.prefetches;
            assert!(crossings >= 2, "scan produced {crossings} batched crossings");
            assert!(prefetches >= 16, "scan produced {prefetches} prefetches");
            // Batching must not manufacture extra synchronous faults: the
            // prefetcher stays ahead of a sequential scan.
            assert_eq!(after.faults - before.faults, 0);
            assert_eq!(after.bytes_copied - before.bytes_copied, 0);
        });
    }

    #[test]
    fn random_hint_suppresses_prefetch_and_scoring() {
        let (cluster, rt) = fixture(1, 1);
        let rt2 = rt.clone();
        cluster.run(move |p| {
            let n = 32 * 1024 / 8;
            let v: MmVec<u64> =
                MmVec::open(&rt2, p, "mem://randhint", VecOptions::new().len(n).pcache(8 * 1024))
                    .unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, n), Access::WriteLocal);
            for i in 0..n {
                v.store(p, &tx, i, i ^ 0x5a);
            }
            v.tx_end(p, tx);
            // Random-hinted point reads: no prefetch may be issued, no run
            // coalesced, and every miss is billed to fault_bytes.
            let vr: MmVec<u64> =
                MmVec::open(&rt2, p, "mem://randhint", VecOptions::new().len(n).pcache(8 * 1024))
                    .unwrap();
            let before = rt2.stats();
            let tx = vr
                .tx_hinted(p, TxKind::rand(9, 0, n), Access::ReadOnly, AccessPattern::Random)
                .unwrap();
            for k in 0..256u64 {
                let i = TxKind::rand(9, 0, n).access_index(k);
                assert_eq!(vr.load(p, &tx, i), i ^ 0x5a);
            }
            tx.end().unwrap();
            let after = rt2.stats();
            assert_eq!(after.prefetches - before.prefetches, 0, "Random hint must not prefetch");
            assert_eq!(after.coalesced_faults - before.coalesced_faults, 0);
            // `faults` counts both dispatched and owner-fast misses.
            let faults = after.faults - before.faults;
            assert!(faults > 0, "point reads over a tiny pcache must fault");
            assert_eq!(after.fault_bytes - before.fault_bytes, faults * 1024);
        });
    }

    #[test]
    fn out_of_bounds_errors() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<u32> = MmVec::open(&rt, p, "mem://oob", VecOptions::new().len(4)).unwrap();
            assert!(matches!(v.try_load(p, 4), Err(MmError::OutOfBounds { .. })));
            assert!(v.try_store(p, 10, 1).is_err());
            let mut buf = [0u32; 8];
            assert!(v.read_into(p, 0, &mut buf).is_err());
        });
    }

    #[test]
    fn data_flows_between_processes() {
        let (cluster, rt) = fixture(2, 1);
        cluster.run(move |p| {
            let v: MmVec<f64> =
                MmVec::open(&rt, p, "mem://shared", VecOptions::new().len(512)).unwrap();
            v.pgas(p, p.rank(), p.nprocs());
            let tx = v.tx_begin(p, TxKind::seq(v.local_off(), v.local_len()), Access::WriteLocal);
            for i in v.local_range() {
                v.store(p, &tx, i, i as f64 + 0.5);
            }
            v.tx_end(p, tx);
            p.world().barrier(p);
            let tx = v.tx_begin(p, TxKind::seq(0, 512), Access::ReadOnly);
            for i in 0..512 {
                assert_eq!(v.load(p, &tx, i), i as f64 + 0.5, "rank {} elem {i}", p.rank());
            }
            v.tx_end(p, tx);
        });
    }

    #[test]
    fn pgas_partitions_cover_exactly() {
        let (cluster, rt) = fixture(1, 4);
        let (outs, _) = cluster.run(move |p| {
            let v: MmVec<u8> =
                MmVec::open(&rt, p, "mem://pg", VecOptions::new().len(1003)).unwrap();
            v.pgas(p, p.rank(), p.nprocs());
            (v.local_off(), v.local_len())
        });
        let total: u64 = outs.iter().map(|(_, l)| l).sum();
        assert_eq!(total, 1003, "partitions tile the vector");
        for w in outs.windows(2) {
            assert_eq!(w[0].0 + w[0].1, w[1].0, "partitions are contiguous");
        }
    }

    #[test]
    fn bounded_memory_evicts_and_still_correct() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<u64> = MmVec::open(
                &rt,
                p,
                "mem://bounded",
                VecOptions::new().len(2000).pcache(2048), // 2 pages of 1024 B
            )
            .unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, 2000), Access::WriteGlobal);
            for i in 0..2000 {
                v.store(p, &tx, i, i ^ 0xDEAD);
            }
            v.tx_end(p, tx);
            assert!(v.cache_stats().evictions > 0, "the bound must force evictions");
            let tx = v.tx_begin(p, TxKind::seq(0, 2000), Access::ReadOnly);
            for i in 0..2000 {
                assert_eq!(v.load(p, &tx, i), i ^ 0xDEAD);
            }
            v.tx_end(p, tx);
        });
    }

    #[test]
    fn sequential_reads_prefetch() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<u64> =
                MmVec::open(&rt, p, "mem://pf", VecOptions::new().len(4096).pcache(8 * 1024))
                    .unwrap();
            // Populate through the DSM.
            let tx = v.tx_begin(p, TxKind::seq(0, 4096), Access::WriteGlobal);
            for i in 0..4096 {
                v.store(p, &tx, i, i);
            }
            v.tx_end(p, tx);
            // Drop the pcache view so reads must come from the scache.
            v.bound_memory(0);
            let tx = v.tx_begin(p, TxKind::seq(0, 4096), Access::ReadOnly);
            v.tx_end(p, tx);
            v.bound_memory(8 * 1024);
            let tx = v.tx_begin(p, TxKind::seq(0, 4096), Access::ReadOnly);
            let mut sum = 0u64;
            for i in 0..4096 {
                sum += v.load(p, &tx, i);
            }
            v.tx_end(p, tx);
            assert_eq!(sum, (0..4096u64).sum());
            let st = v.cache_stats();
            assert!(st.prefetch_hits > 0, "prefetcher must serve sequential reads: {st:?}");
        });
    }

    #[test]
    fn append_assigns_unique_indices_across_procs() {
        let (cluster, rt) = fixture(2, 2);
        let (outs, _) = cluster.run(move |p| {
            let v: MmVec<u64> = MmVec::open(&rt, p, "mem://app", VecOptions::new()).unwrap();
            let tx = v.tx_begin(p, TxKind::append(0), Access::AppendGlobal);
            let mut mine = Vec::new();
            for k in 0..50 {
                mine.push(v.append(p, &tx, (p.rank() * 1000 + k) as u64));
            }
            v.tx_end(p, tx);
            p.world().barrier(p);
            (v.len(), mine)
        });
        assert!(outs.iter().all(|(len, _)| *len == 200));
        let mut all: Vec<u64> = outs.iter().flat_map(|(_, m)| m.clone()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "append indices must be unique");
    }

    #[test]
    fn append_data_visible_after_commit() {
        let (cluster, rt) = fixture(2, 1);
        let rt2 = rt.clone();
        cluster.run(move |p| {
            let v: MmVec<u32> = MmVec::open(&rt2, p, "mem://appv", VecOptions::new()).unwrap();
            let tx = v.tx_begin(p, TxKind::append(0), Access::AppendGlobal);
            for k in 0..100u32 {
                v.append(p, &tx, p.rank() as u32 * 10_000 + k);
            }
            v.tx_end(p, tx);
            p.world().barrier(p);
            let tx = v.tx_begin(p, TxKind::seq(0, v.len()), Access::ReadOnly);
            let mut seen: Vec<u32> = (0..v.len()).map(|i| v.load(p, &tx, i)).collect();
            v.tx_end(p, tx);
            seen.sort_unstable();
            let mut expect: Vec<u32> = (0..100).flat_map(|k| [k, 10_000 + k]).collect();
            expect.sort_unstable();
            assert_eq!(seen, expect);
        });
    }

    #[test]
    fn bulk_ops_round_trip() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<f32> =
                MmVec::open(&rt, p, "mem://bulk", VecOptions::new().len(1000)).unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, 1000), Access::WriteGlobal);
            let vals: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
            v.write_slice(p, 0, &vals).unwrap();
            v.tx_end(p, tx);
            let tx = v.tx_begin(p, TxKind::seq(0, 1000), Access::ReadOnly);
            let mut out = vec![0f32; 600];
            v.read_into(p, 200, &mut out).unwrap();
            v.tx_end(p, tx);
            assert_eq!(out[0], 100.0);
            assert_eq!(out[599], 399.5);
        });
    }

    #[test]
    fn persistent_vector_survives_via_backend() {
        let (cluster, rt) = fixture(1, 1);
        let rt2 = rt.clone();
        cluster.run(move |p| {
            {
                let v: MmVec<u64> =
                    MmVec::open(&rt2, p, "obj://bkt/persist.bin", VecOptions::new().len(300))
                        .unwrap();
                let tx = v.tx_begin(p, TxKind::seq(0, 300), Access::WriteGlobal);
                for i in 0..300 {
                    v.store(p, &tx, i, i + 7);
                }
                v.tx_end(p, tx);
                v.flush_wait(p).unwrap();
                v.destroy(p, false).unwrap();
            }
            // Re-attach: the length and data come back from the backend.
            let v: MmVec<u64> =
                MmVec::open(&rt2, p, "obj://bkt/persist.bin", VecOptions::new()).unwrap();
            assert_eq!(v.len(), 300);
            let tx = v.tx_begin(p, TxKind::seq(0, 300), Access::ReadOnly);
            for i in (0..300).step_by(37) {
                assert_eq!(v.load(p, &tx, i), i + 7);
            }
            v.tx_end(p, tx);
        });
    }

    #[test]
    fn flush_wait_advances_clock_past_async() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<u8> =
                MmVec::open(&rt, p, "obj://bkt/flush.bin", VecOptions::new().len(64 * 1024))
                    .unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, 64 * 1024), Access::WriteGlobal);
            for i in 0..64 * 1024 {
                v.store(p, &tx, i, (i % 251) as u8);
            }
            v.tx_end(p, tx);
            let before = p.now();
            v.flush_async(p).unwrap();
            let after_async = p.now();
            v.drain(p);
            let after_wait = p.now();
            // The async submit costs little; the wait jumps to I/O completion.
            assert!(after_async - before < after_wait - before);
            assert!(after_wait > after_async);
        });
    }

    #[test]
    fn random_tx_reads_correctly() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<u64> =
                MmVec::open(&rt, p, "mem://rand", VecOptions::new().len(2048).pcache(4096))
                    .unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, 2048), Access::WriteGlobal);
            for i in 0..2048 {
                v.store(p, &tx, i, i * i);
            }
            v.tx_end(p, tx);
            let kind = TxKind::rand(99, 0, 2048);
            let tx = v.tx_begin(p, kind, Access::ReadOnly);
            for k in 0..500 {
                let idx = kind.access_index(k);
                assert_eq!(v.load(p, &tx, idx), idx * idx);
            }
            v.tx_end(p, tx);
        });
    }

    #[test]
    fn double_tx_begin_panics() {
        let (cluster, rt) = fixture(1, 1);
        let (outs, _) = cluster.run(move |p| {
            let v: MmVec<u8> = MmVec::open(&rt, p, "mem://dbl", VecOptions::new().len(8)).unwrap();
            let _tx = v.tx_begin(p, TxKind::seq(0, 8), Access::ReadOnly);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = v.tx_begin(p, TxKind::seq(0, 8), Access::ReadOnly);
            }))
            .is_err()
        });
        assert!(outs[0], "second tx_begin must panic");
    }

    #[test]
    fn tenant_budget_bounds_residency() {
        use crate::policy::TenantClass;
        let (cluster, rt) = fixture(1, 1);
        let tid = rt.tenants().register("cap", TenantClass::Interactive, 2048, 1 << 20);
        let rt2 = rt.clone();
        cluster.run(move |p| {
            // The handle's own pcache bound (8 pages) exceeds the tenant
            // budget (2 pages): the budget must win.
            let v: MmVec<u64> = MmVec::open(
                &rt2,
                p,
                "mem://qos",
                VecOptions::new().len(4000).pcache(8192).tenant(tid).no_prefetch(),
            )
            .unwrap();
            let acct = v.tenant_account().unwrap().clone();
            let tx = v.tx_begin(p, TxKind::seq(0, 4000), Access::WriteGlobal);
            for i in 0..4000 {
                v.store(p, &tx, i, i);
                assert!(
                    acct.resident() <= 2048 + 1024,
                    "resident {} blew past budget+1page",
                    acct.resident()
                );
            }
            v.tx_end(p, tx);
            let tx = v.tx_begin(p, TxKind::seq(0, 4000), Access::ReadOnly);
            for i in (0..4000).step_by(97) {
                assert_eq!(v.load(p, &tx, i), i);
            }
            v.tx_end(p, tx);
            assert!(acct.peak() > 0);
            let faults = rt2.telemetry().counter("tenant", "faults", &[("tenant", "cap")]);
            assert!(faults.get() > 0, "tenant faults must be attributed");
        });
    }

    #[test]
    fn unknown_tenant_errors_on_open() {
        use crate::tenant::TenantId;
        let (cluster, rt) = fixture(1, 1);
        let (outs, _) = cluster.run(move |p| {
            MmVec::<u8>::open(&rt, p, "mem://bad", VecOptions::new().tenant(TenantId(7))).is_err()
        });
        assert!(outs[0], "opening with an unregistered tenant must fail");
    }

    #[test]
    fn resize_grows_with_zeroes() {
        let (cluster, rt) = fixture(1, 1);
        cluster.run(move |p| {
            let v: MmVec<u32> = MmVec::open(&rt, p, "mem://rs", VecOptions::new().len(4)).unwrap();
            let tx = v.tx_begin(p, TxKind::seq(0, 4), Access::ReadWriteGlobal);
            v.store(p, &tx, 0, 11);
            v.tx_end(p, tx);
            v.resize(100);
            assert_eq!(v.len(), 100);
            let tx = v.tx_begin(p, TxKind::seq(0, 100), Access::ReadOnly);
            assert_eq!(v.load(p, &tx, 0), 11);
            assert_eq!(v.load(p, &tx, 99), 0);
            v.tx_end(p, tx);
        });
    }
}
