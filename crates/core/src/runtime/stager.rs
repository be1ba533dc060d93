//! The Data Stager: transparent (de)serialization between the scache and
//! persistent backends.
//!
//! "The Data Stager is responsible for serializing, deserializing, and
//! flushing content to the backend. The stager is an extensible component
//! containing integrations with widely-used file formats (e.g., HDF5,
//! Adios2, parquet) and storage services (e.g., PFS, Amazon S3)."
//!
//! Format dispatch happens in `megammap-formats`: a vector's URL resolves to
//! a [`DataObject`] whose `read_at`/`write_at` hide the format's internal
//! layout (h5lite dataset extents, pqlite column gather/scatter). This
//! module adds the *cost model* (the shared PFS device plus serde CPU time)
//! and the stage-in / stage-out / emergency-drain flows.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use megammap_sim::{Backoff, SimTime};
use megammap_telemetry::{Counter, EventKind, Stage, TraceCtx};
use megammap_tiered::{BlobId, RangeSet};

use crate::error::{MmError, Result};
use crate::runtime::{shard, Runtime, VectorMeta};

/// Label value for per-backend byte counters: the URL scheme of the
/// vector's key (`obj`, `file`, `h5`, ...).
fn backend_label(meta: &VectorMeta) -> &str {
    meta.key.split(':').next().unwrap_or("unknown")
}

/// `'static` flavour of [`backend_label`] for span tier labels.
fn backend_label_static(meta: &VectorMeta) -> &'static str {
    use megammap_formats::Scheme;
    meta.key.split(':').next().and_then(Scheme::parse).map(|s| s.as_str()).unwrap_or("backend")
}

/// Gate a backend I/O against the fault plan: if the plan marks `meta`'s
/// key down at virtual time `t`, retry with seeded exponential backoff
/// (each attempt emits a [`Stage::Retry`] span so `critical_path_report`
/// attributes the recovery cost) until the outage lifts or the configured
/// retry budget is exhausted — then surface the typed
/// [`MmError::Unavailable`] instead of panicking or spinning. Returns the
/// virtual time at which the backend answered.
fn backend_gate(
    rt: &Runtime,
    t: SimTime,
    meta: &VectorMeta,
    node: usize,
    ctx: TraceCtx,
) -> Result<SimTime> {
    let Some(plan) = rt.cfg().fault_plan() else { return Ok(t) };
    if plan.backend_down(&meta.key, t).is_none() {
        return Ok(t);
    }
    let tel = rt.telemetry();
    let backoff = Backoff::new(plan, meta.id, rt.cfg().retry_base_ns);
    let mut t = t;
    for attempt in 0..rt.cfg().max_io_retries {
        if plan.backend_down(&meta.key, t).is_none() {
            return Ok(t);
        }
        let woke = t.saturating_add(backoff.delay(attempt as u32));
        tel.counter("stager", "io_retries", &[("backend", backend_label(meta))]).inc();
        tel.span(EventKind::Retry, t, woke, node as u32, 0, attempt);
        tel.trace_child(
            ctx,
            Stage::Retry,
            t,
            woke,
            node as u32,
            0,
            backend_label_static(meta),
            attempt,
        );
        t = woke;
    }
    match plan.backend_down(&meta.key, t) {
        None => Ok(t),
        Some(until) => {
            tel.counter("stager", "io_gave_up", &[("backend", backend_label(meta))]).inc();
            Err(MmError::Unavailable { what: meta.key.clone(), retry_at: until })
        }
    }
}

/// Read one page of `meta` from its persistent backend (or synthesize a
/// zero page for data never written), install it in `home`'s scache shard,
/// and return the bytes plus the completion time.
pub(crate) fn stage_in(
    rt: &Runtime,
    now: SimTime,
    meta: &VectorMeta,
    page: u64,
    home: usize,
    ctx: TraceCtx,
) -> Result<(Bytes, SimTime)> {
    let ps = meta.page_size as usize;
    let mut buf = vec![0u8; ps];
    let mut t = now;
    let mut from_backend = 0usize;
    if let Some(backend) = &meta.backend {
        let now = backend_gate(rt, now, meta, home, ctx)?;
        from_backend = backend.read_at(page * meta.page_size, &mut buf).map_err(MmError::Io)?;
        if from_backend > 0 {
            // Charge the shared PFS device plus deserialization CPU.
            t = rt.inner_pfs().acquire_causal_pipelined(now, from_backend as u64);
            // Queueing share of the charge = completion minus our own
            // service time: what *other* transfers cost this one.
            rt.pfs_stats().record_wait(
                (t - now).saturating_sub(rt.inner_pfs().service_time(from_backend as u64)),
            );
            t += rt.inner_cpu().serde_ns(from_backend as u64);
            rt.inner_stats().staged_in.add(from_backend as u64);
            let tel = rt.telemetry();
            tel.counter(
                "stager",
                "backend_bytes",
                &[("backend", backend_label(meta)), ("dir", "in")],
            )
            .add(from_backend as u64);
            tel.span(EventKind::StageIn, now, t, home as u32, from_backend as u64, page);
            tel.trace_child(
                ctx,
                Stage::BackendRead,
                now,
                t,
                home as u32,
                from_backend as u64,
                backend_label_static(meta),
                page,
            );
        }
    }
    let data = Bytes::from(buf);
    if from_backend > 0 {
        // Install in the home shard so future faults come from the DMSH.
        // Use a middling score; the prefetcher will rescore it.
        let id = BlobId::new(meta.id, page);
        if let Ok(out) =
            rt.inner_node(home).dmsh.put_traced(t, id, data.clone(), 0.5, home, false, ctx)
        {
            t = out.done_at;
        }
        // If the DMSH is full, serve the page without caching it — a pure
        // streaming read.
    }
    Ok((data, t))
}

/// What one stage-out pass resolves once and every staged page reuses:
/// the pass's trace root and the per-backend byte counter (a string-keyed
/// registry lookup).
struct OutSink {
    ctx: TraceCtx,
    backend_bytes: Counter,
}

impl OutSink {
    fn new(rt: &Runtime, meta: &VectorMeta, ctx: TraceCtx) -> Self {
        let labels = [("backend", backend_label(meta)), ("dir", "out")];
        Self { ctx, backend_bytes: rt.telemetry().counter("stager", "backend_bytes", &labels) }
    }
}

/// Stage every dirty byte range of `meta` (across all nodes) out to its
/// backend. Returns the completion time of the slowest page.
///
/// The writes make the data *visible* in the backend object. Only a
/// durability point makes it *durable*: `durable` (explicit flush,
/// shutdown) or a non-empty intent journal — which may only be truncated
/// once the bytes it covers are synced — runs the trim + `flush()` +
/// journal-truncate tail. An ordinary background pass never syncs.
pub(crate) fn stage_out_all(
    rt: &Runtime,
    now: SimTime,
    meta: &VectorMeta,
    durable: bool,
) -> Result<SimTime> {
    let Some(backend) = &meta.backend else {
        return Ok(now); // volatile vectors have nothing to persist
    };
    let mut done = now;
    // Allocated at the first dirty page, so idle passes (nothing dirty)
    // leave no trace and no Flush span behind.
    let mut sink: Option<OutSink> = None;
    let mut flushed = 0u64;
    for node in 0..rt.nodes() {
        let dmsh = &rt.inner_node(node).dmsh;
        for id in dmsh.dirty_blobs_of(meta.id) {
            let sink = sink.get_or_insert_with(|| {
                OutSink::new(rt, meta, rt.telemetry().trace_begin(node as u32))
            });
            // Read, persist and mark-clean under the page's apply lock: a
            // writer patch landing between our read and the mark_clean
            // would otherwise have its dirty ranges erased while only the
            // pre-patch bytes reached the backend (a lost update on the
            // next flush — the chaos KMeans flake).
            let (t, bytes) = rt.with_apply_lock(node, id, || -> Result<(SimTime, u64)> {
                // Re-read the ranges under the lock; a drain may have
                // cleaned the page since it was listed.
                let Some(ranges) = dmsh.dirty_ranges(id) else { return Ok((now, 0)) };
                let (data, read_done) = dmsh.get_range(now, id, 0, u64::MAX, sink.ctx)?;
                let out = stage_out_ranges(
                    rt,
                    read_done,
                    meta,
                    backend.as_ref(),
                    id.blob,
                    &data,
                    &ranges,
                    node,
                    sink,
                )?;
                dmsh.mark_clean(id);
                Ok(out)
            })?;
            flushed += bytes;
            done = done.max(t);
        }
    }
    if let Some(sink) = &sink {
        rt.telemetry().span(EventKind::Flush, now, done, 0, 0, meta.id);
        let policy = meta.policy.get().name();
        rt.telemetry().trace_end(sink.ctx, Stage::Flush, now, done, 0, flushed, policy, meta.id);
    }
    let journal = meta.journal.as_deref().filter(|j| !j.is_empty());
    if !durable && journal.is_none() {
        return Ok(done);
    }
    // Trim the backend to the vector's logical length (appends may have
    // grown it page-granularly) and persist format metadata.
    let logical = meta.len_bytes();
    if backend.len().map_err(MmError::Io)? > logical {
        backend.set_len(logical).map_err(MmError::Io)?;
    }
    backend.flush().map_err(MmError::Io)?;
    // The backend now durably holds every write this flush covered; the
    // journal's intents are redundant. Only truncate if nothing went dirty
    // again while we were flushing — those newer intents must survive
    // until the next flush lands them.
    if let Some(journal) = journal {
        let still_dirty =
            (0..rt.nodes()).any(|n| !rt.inner_node(n).dmsh.dirty_blobs_of(meta.id).is_empty());
        if !still_dirty {
            journal.truncate()?;
        }
    }
    Ok(done)
}

/// Serialize and write the dirty `ranges` of one page image to the backend
/// — exactly those bytes: every clean byte of a resident blob came from the
/// backend (stage-in) or was handed over by a fully dirty `put`, so the
/// backend already holds it. Returns the completion time and the bytes
/// written. A policy flip racing the flush only skews the per-policy stats
/// attribution, never the data path.
#[allow(clippy::too_many_arguments)]
fn stage_out_ranges(
    rt: &Runtime,
    now: SimTime,
    meta: &VectorMeta,
    backend: &dyn megammap_formats::DataObject,
    page: u64,
    data: &[u8],
    ranges: &RangeSet,
    node: usize,
    sink: &OutSink,
) -> Result<(SimTime, u64)> {
    // Clip to the logical length so the backend never holds trailing
    // garbage from the final page.
    let start = page * meta.page_size;
    let limit = (meta.len_bytes().saturating_sub(start)).min(data.len() as u64);
    if ranges.iter().next().is_none_or(|(s, _)| s >= limit) {
        return Ok((now, 0));
    }
    let now = backend_gate(rt, now, meta, node, sink.ctx)?;
    let mut len = 0u64;
    for (s, e) in ranges.iter().take_while(|&(s, _)| s < limit) {
        let e = e.min(limit);
        backend.write_at(start + s, &data[s as usize..e as usize]).map_err(MmError::Io)?;
        len += e - s;
    }
    let t = now + rt.inner_cpu().serde_ns(len);
    let serde_done = t;
    let t = rt.inner_pfs().acquire_causal_pipelined(t, len);
    rt.pfs_stats().record_wait((t - serde_done).saturating_sub(rt.inner_pfs().service_time(len)));
    let stats = rt.inner_stats();
    stats.staged_out.add(len);
    stats.staged_out_by_policy[meta.policy.get().index()].add(len);
    sink.backend_bytes.add(len);
    let tel = rt.telemetry();
    tel.span(EventKind::StageOut, now, t, node as u32, len, page);
    tel.trace_child(
        sink.ctx,
        Stage::BackendWrite,
        now,
        t,
        node as u32,
        len,
        backend_label_static(meta),
        page,
    );
    Ok((t, len))
}

/// The DMSH on `node` is completely full and a placement of `requested`
/// bytes failed: make room by staging out (nonvolatile, dirty) or dropping
/// (clean) the lowest-score blobs. Returns the time the space is available.
pub(crate) fn emergency_drain(
    rt: &Runtime,
    now: SimTime,
    node: usize,
    requested: u64,
) -> Result<SimTime> {
    let dmsh = &rt.inner_node(node).dmsh;
    let mut freed = 0u64;
    let mut done = now;
    // Bucket → vector (and, once it stages a page, its out-sink), resolved
    // once per drain.
    let mut vectors: BTreeMap<u64, (Arc<VectorMeta>, Option<OutSink>)> =
        rt.all_vectors().into_iter().map(|v| (v.id, (v, None))).collect();
    // Walk blobs from coldest: approximate by scanning all residents of the
    // node; the count here is small (the DMSH is full, i.e. bounded).
    let mut candidates: Vec<(BlobId, f32)> = Vec::new();
    for &bucket in vectors.keys() {
        for id in dmsh.blobs_of(bucket) {
            if let Some(m) = dmsh.meta_of(id) {
                candidates.push((id, m.score));
            }
        }
    }
    candidates.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    for (id, _score) in candidates {
        if freed >= requested {
            break;
        }
        let Some((vec, sink)) = vectors.get_mut(&id.bucket) else { continue };
        // Take the victim's apply lock nonblockingly ([`LockRank::
        // ApplyVictim`]): a page mid-commit is simply skipped this round —
        // the committer holds its lock, and this thread may already hold
        // its *own* shard's. Without the lock, a writer patch landing
        // between our `get` and `remove` would be staged out stale and
        // then evicted — the patched bytes silently lost (the chaos
        // KMeans flake's second face).
        let outcome = rt.try_with_apply_lock(node, id, || -> Result<Option<(u64, SimTime)>> {
            // Re-read the metadata under the lock; the candidate snapshot
            // above is advisory and may be stale by now.
            let Some(m) = dmsh.meta_of(id) else { return Ok(None) };
            let mut t = now;
            if let Some(ranges) = dmsh.dirty_ranges(id) {
                let Some(backend) = vec.backend.clone() else {
                    return Ok(None); // volatile dirty data must stay resident
                };
                let Ok((data, read_done)) = dmsh.get(now, id) else { return Ok(None) };
                let sink = sink.get_or_insert_with(|| OutSink::new(rt, vec, TraceCtx::NONE));
                (t, _) = stage_out_ranges(
                    rt,
                    read_done,
                    vec,
                    backend.as_ref(),
                    id.blob,
                    &data,
                    &ranges,
                    node,
                    sink,
                )?;
            }
            dmsh.remove(id);
            rt.telemetry().mark(EventKind::Eviction, now, node as u32, m.size, id.blob);
            // Keep the directory consistent: the page now lives only in
            // the backend (or as replicas elsewhere); forget this node's
            // copy. Any standing owner's fast-path privilege must end with
            // it — the next fault stages in and may pick a new home.
            if rt.inner_dir().nearest_copy(id, node) == Some(node) {
                shard::release_for_drain(rt.inner_dir(), id, node);
            }
            Ok(Some((m.size, t)))
        });
        match outcome {
            None => continue,           // victim mid-commit: not drainable now
            Some(Ok(None)) => continue, // vanished or volatile-dirty
            Some(Ok(Some((size, t)))) => {
                freed += size;
                done = done.max(t);
            }
            Some(Err(e)) => return Err(e),
        }
    }
    if freed == 0 {
        return Err(MmError::Capacity(format!(
            "node {node} DMSH full of volatile data; cannot free {requested} bytes"
        )));
    }
    rt.telemetry().counter("stager", "drain_bytes", &[]).add(freed);
    Ok(done)
}

#[cfg(test)]
mod tests {
    use std::io;
    use std::sync::atomic::{AtomicU64, Ordering};

    use megammap_cluster::{Cluster, ClusterSpec};
    use megammap_formats::dtype::DType;
    use megammap_formats::object::read_all;
    use megammap_formats::posix::PosixObject;
    use megammap_formats::pqlite::{Column, PqFile, Schema};
    use megammap_formats::{Backends, DataObject, DataUrl};
    use parking_lot::Mutex;

    use super::*;
    use crate::config::RuntimeConfig;
    use crate::policy::{Policy, PolicyCell};
    use crate::runtime::journal::IntentJournal;
    use crate::runtime::tests::{read_page, write_diff};

    const PS: u64 = 4096;

    /// One call a [`Counting`] wrapper saw, tagged with the object's name.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Op {
        Write { who: &'static str, off: u64, len: u64 },
        SetLen { who: &'static str, len: u64 },
        Flush { who: &'static str },
    }

    type OpLog = Arc<Mutex<Vec<Op>>>;

    /// A [`DataObject`] that forwards everything and logs every mutation.
    struct Counting {
        who: &'static str,
        inner: Arc<dyn DataObject>,
        log: OpLog,
    }

    impl DataObject for Counting {
        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
        fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read_at(off, buf)
        }
        fn write_at(&self, off: u64, data: &[u8]) -> io::Result<()> {
            self.log.lock().push(Op::Write { who: self.who, off, len: data.len() as u64 });
            self.inner.write_at(off, data)
        }
        fn set_len(&self, len: u64) -> io::Result<()> {
            self.log.lock().push(Op::SetLen { who: self.who, len });
            self.inner.set_len(len)
        }
        fn flush(&self) -> io::Result<()> {
            self.log.lock().push(Op::Flush { who: self.who });
            self.inner.flush()
        }
    }

    fn runtime() -> (Cluster, Runtime) {
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(PS));
        (cluster, rt)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u64).wrapping_mul(0x9E37_79B9).to_le_bytes()[1] | 1).collect()
    }

    /// Open `url` (holding `pattern(len)`) with its backend — and, when
    /// `journal`, an intent log — behind [`Counting`] wrappers sharing one
    /// log.
    fn counted_vector(rt: &Runtime, url: &str, len: usize, journal: bool) -> (VectorMeta, OpLog) {
        let obj = rt.backends().open(&DataUrl::parse(url).unwrap()).unwrap();
        obj.write_at(0, &pattern(len)).unwrap();
        let m = rt.open_or_create_vector(url, 1, Some(PS), None).unwrap();
        assert_eq!(m.len_bytes(), len as u64);
        let log = OpLog::default();
        let wrap = |who, inner: Arc<dyn DataObject>| -> Arc<dyn DataObject> {
            Arc::new(Counting { who, inner, log: log.clone() })
        };
        let meta = VectorMeta {
            id: m.id,
            key: m.key.clone(),
            elem_size: 1,
            page_size: PS,
            len: AtomicU64::new(m.len_elems()),
            policy: PolicyCell::default(),
            backend: Some(wrap("data", m.backend.clone().unwrap())),
            nonvolatile: true,
            last_stage: AtomicU64::new(0),
            journal: journal.then(|| {
                let wal = DataUrl::parse(&IntentJournal::wal_key(url)).unwrap();
                let wal = rt.backends().open(&wal).unwrap();
                Arc::new(IntentJournal::over(wrap("wal", Arc::from(wal))))
            }),
        };
        meta.policy.set(Policy::WriteGlobal);
        (meta, log)
    }

    /// Fault `page` in (a clean resident copy), then commit `ranges` of it
    /// filled with `fill`, mirroring them into `oracle`.
    fn patch(
        rt: &Runtime,
        t: SimTime,
        meta: &VectorMeta,
        oracle: &mut [u8],
        page: u64,
        ranges: &[(u64, u64)],
        fill: u8,
    ) -> SimTime {
        let (bytes, t) = read_page(rt, t, meta, page, 0, None).unwrap();
        let mut data = bytes.to_vec();
        let mut dirty = RangeSet::new();
        for &(s, e) in ranges {
            data[s as usize..e as usize].fill(fill);
            let base = (page * PS) as usize;
            oracle[base + s as usize..base + e as usize].fill(fill);
            dirty.insert(s, e);
        }
        write_diff(rt, t, meta, page, &data, &dirty, 0).unwrap()
    }

    fn take(log: &OpLog) -> Vec<Op> {
        std::mem::take(&mut *log.lock())
    }

    #[test]
    fn background_pass_writes_only_dirty_bytes_and_never_syncs() {
        let (_c, rt) = runtime();
        let len = 3 * PS as usize;
        let (meta, log) = counted_vector(&rt, "obj://stager/counted.bin", len, false);
        let mut oracle = pattern(len);
        let t = patch(&rt, 0, &meta, &mut oracle, 0, &[(8, 16), (100, 108)], 0xA0);
        let t = patch(&rt, t, &meta, &mut oracle, 2, &[(PS - 8, PS)], 0xB0);
        assert!(take(&log).is_empty(), "commits alone never touch the backend");

        // An ordinary background pass: the three dirty ranges, nothing else.
        let before = rt.stats().staged_out;
        let t = stage_out_all(&rt, t, &meta, false).unwrap();
        let w = |off, len| Op::Write { who: "data", off, len };
        assert_eq!(take(&log), vec![w(8, 8), w(100, 8), w(3 * PS - 8, 8)]);
        assert_eq!(rt.stats().staged_out - before, 24);
        assert!(rt.inner_node(0).dmsh.dirty_blobs_of(meta.id).is_empty());

        // The same through the active stager's own trigger, and an idle pass.
        let t = patch(&rt, t, &meta, &mut oracle, 1, &[(0, 4)], 0xC0);
        rt.maybe_stage(&meta, t + rt.cfg().stage_interval_ns);
        assert_eq!(take(&log), vec![w(PS, 4)]);
        rt.maybe_stage(&meta, t + 2 * rt.cfg().stage_interval_ns);
        assert!(take(&log).is_empty(), "an idle pass does nothing at all");

        // The durability point syncs exactly once (nothing is left to write).
        rt.flush_vector(t + 3 * rt.cfg().stage_interval_ns, &meta).unwrap();
        assert_eq!(take(&log), vec![Op::Flush { who: "data" }]);
        let obj = rt.backends().open(&DataUrl::parse(&meta.key).unwrap()).unwrap();
        assert_eq!(read_all(obj.as_ref()).unwrap(), oracle);
    }

    #[test]
    fn journaled_vector_syncs_before_every_truncate() {
        let (_c, rt) = runtime();
        let len = 2 * PS as usize;
        let (meta, log) = counted_vector(&rt, "obj://stager/journaled.bin", len, true);
        let mut oracle = pattern(len);
        let mut t = 0;
        let mut truncates = 0;
        for round in 0..4u64 {
            t = patch(&rt, t, &meta, &mut oracle, round % 2, &[(16 * round, 16 * round + 8)], 9);
            // Rounds alternate a background pass and an explicit flush: with
            // intents outstanding both are durability points.
            t = stage_out_all(&rt, t, &meta, round % 2 == 1).unwrap();
            let mut unsynced = false;
            for op in take(&log) {
                match op {
                    Op::Write { who: "data", .. } => unsynced = true,
                    Op::Flush { who: "data" } => unsynced = false,
                    Op::SetLen { who: "wal", len: 0 } => {
                        assert!(!unsynced, "round {round}: journal truncated over unsynced data");
                        truncates += 1;
                    }
                    _ => {}
                }
            }
            assert!(meta.journal.as_ref().unwrap().is_empty());
        }
        assert_eq!(truncates, 4);
        // With no intent outstanding a background pass has nothing to make
        // durable: no sync, no truncate.
        stage_out_all(&rt, t, &meta, false).unwrap();
        assert!(take(&log).is_empty());
    }

    /// Seed `url` with `pattern(held)`, stage out only sub-page ranges of it
    /// (growing the vector to `len` bytes when `held < len`), then read the
    /// object back through a fresh handle.
    fn sub_page_round_trip(url: &str, held: usize, len: usize) {
        let backends = Backends::new();
        let obj = backends.open(&DataUrl::parse(url).unwrap()).unwrap();
        obj.write_at(0, &pattern(held)).unwrap();
        obj.flush().unwrap();
        drop(obj);
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let cfg = RuntimeConfig::default().with_page_size(PS);
        let rt = Runtime::with_backends(&cluster, cfg, backends.clone());
        let m = rt.open_or_create_vector(url, 1, Some(PS), None).unwrap();
        assert_eq!(m.len_bytes(), held as u64);
        m.policy.set(Policy::WriteGlobal);
        m.len.store(len as u64, Ordering::Release);
        let mut oracle = pattern(held);
        oracle.resize(len, 0);
        let last = (len as u64 - 1) / PS;
        let tail = len as u64 - last * PS;
        let mut t = patch(&rt, 0, &m, &mut oracle, 0, &[(1, 3), (PS / 2, PS / 2 + 24)], 0x11);
        t = patch(&rt, t, &m, &mut oracle, 1, &[(PS - 5, PS)], 0x22);
        // The last range ends at the logical end — past the object's
        // current end when the vector grew.
        t = patch(&rt, t, &m, &mut oracle, last, &[(tail - 8, tail)], 0x33);
        let t = stage_out_all(&rt, t, &m, false).unwrap();
        assert_eq!(rt.stats().staged_out, 2 + 24 + 5 + 8, "{url}: dirty bytes only");
        rt.flush_vector(t, &m).unwrap();
        let cold = backends.open(&DataUrl::parse(url).unwrap()).unwrap();
        assert_eq!(read_all(cold.as_ref()).unwrap(), oracle, "{url}: cold re-read");
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mm-stager-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A vector of two pages and a bit that grows to just under three.
    const HELD: usize = 2 * PS as usize + 100;
    const GROWN: usize = 3 * PS as usize - 7;

    #[test]
    fn sub_page_ranges_round_trip_objstore() {
        sub_page_round_trip("obj://stager/ranges.bin", HELD, GROWN);
    }

    #[test]
    fn sub_page_ranges_round_trip_posix() {
        let dir = scratch("posix");
        sub_page_round_trip(&format!("file://{}", dir.join("ranges.bin").display()), HELD, GROWN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_page_ranges_round_trip_h5lite() {
        let dir = scratch("h5");
        let url = format!("hdf5://{}:grid", dir.join("ranges.h5").display());
        sub_page_round_trip(&url, HELD, GROWN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sub_page_ranges_round_trip_pqlite() {
        // A record view cannot grow: every range lies inside the file.
        let dir = scratch("pq");
        let path = dir.join("ranges.pq");
        let held = 3 * PS as usize;
        let schema = Schema::new(vec![Column::new("a", DType::U64), Column::new("b", DType::U64)]);
        let file = PqFile::create(Box::new(PosixObject::open(&path).unwrap()), schema).unwrap();
        for _ in 0..2 {
            file.append_row_group(&[vec![0u8; held / 4], vec![0u8; held / 4]]).unwrap();
        }
        file.flush().unwrap();
        sub_page_round_trip(&format!("parquet://{}", path.display()), held, held);
        std::fs::remove_dir_all(&dir).ok();
    }
}
