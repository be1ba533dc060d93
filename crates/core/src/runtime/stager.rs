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

use bytes::Bytes;
use megammap_sim::{Backoff, SimTime};
use megammap_telemetry::{EventKind, Stage, TraceCtx};
use megammap_tiered::BlobId;

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

/// Stage every dirty page of `meta` (across all nodes) out to its backend.
/// Returns the completion time of the slowest page.
pub(crate) fn stage_out_all(rt: &Runtime, now: SimTime, meta: &VectorMeta) -> Result<SimTime> {
    let Some(backend) = &meta.backend else {
        return Ok(now); // volatile vectors have nothing to persist
    };
    let mut done = now;
    let mut ctx = TraceCtx::NONE;
    let mut flushed = 0u64;
    for node in 0..rt.nodes() {
        let dmsh = &rt.inner_node(node).dmsh;
        for id in dmsh.dirty_blobs_of(meta.id) {
            if ctx.is_none() {
                // Lazily allocate the Flush root so idle stager passes
                // (nothing dirty) leave no trace behind.
                ctx = rt.telemetry().trace_begin(node as u32);
            }
            // Read, persist and mark-clean under the page's apply lock: a
            // writer patch landing between our read and the mark_clean
            // would otherwise have its dirty flag erased while only the
            // pre-patch bytes reached the backend (a lost update on the
            // next flush — the chaos KMeans flake).
            let (t, bytes) = rt.with_apply_lock(node, id, || -> Result<(SimTime, u64)> {
                let (data, read_done) = dmsh.get_traced(now, id, ctx).map_err(MmError::from)?;
                let t = stage_out_page(
                    rt,
                    read_done,
                    meta,
                    backend.as_ref(),
                    id.blob,
                    &data,
                    node,
                    ctx,
                )?;
                dmsh.mark_clean(id);
                Ok((t, data.len() as u64))
            })?;
            flushed += bytes;
            done = done.max(t);
        }
    }
    rt.telemetry().span(EventKind::Flush, now, done, 0, 0, meta.id);
    if !ctx.is_none() {
        let policy = meta.policy.get().name();
        rt.telemetry().trace_end(ctx, Stage::Flush, now, done, 0, flushed, policy, meta.id);
    }
    // Trim the backend to the vector's logical length (appends may have
    // grown it page-granularly) and persist format metadata.
    let logical = meta.len_bytes();
    if backend.len().map_err(MmError::Io)? > logical {
        backend.set_len(logical).map_err(MmError::Io)?;
    }
    backend.flush().map_err(MmError::Io)?;
    // The backend now holds every write this flush covered; the journal's
    // intents are redundant. Only truncate if nothing went dirty again
    // while we were flushing — those newer intents must survive until the
    // next flush lands them.
    if let Some(journal) = &meta.journal {
        let still_dirty =
            (0..rt.nodes()).any(|n| !rt.inner_node(n).dmsh.dirty_blobs_of(meta.id).is_empty());
        if !still_dirty {
            journal.truncate()?;
        }
    }
    Ok(done)
}

/// Serialize and write one page image to the backend. A policy flip
/// racing the flush only skews the per-policy stats attribution, never
/// the data path.
#[allow(clippy::too_many_arguments)]
fn stage_out_page(
    rt: &Runtime,
    now: SimTime,
    meta: &VectorMeta,
    backend: &dyn megammap_formats::DataObject,
    page: u64,
    data: &[u8],
    node: usize,
    ctx: TraceCtx,
) -> Result<SimTime> {
    // Clip the final page to the logical length so the backend never holds
    // trailing garbage.
    let start = page * meta.page_size;
    let logical = meta.len_bytes();
    if start >= logical {
        return Ok(now);
    }
    let len = data.len().min((logical - start) as usize);
    let now = backend_gate(rt, now, meta, node, ctx)?;
    backend.write_at(start, &data[..len]).map_err(MmError::Io)?;
    let t = now + rt.inner_cpu().serde_ns(len as u64);
    let serde_done = t;
    let t = rt.inner_pfs().acquire_causal_pipelined(t, len as u64);
    rt.pfs_stats()
        .record_wait((t - serde_done).saturating_sub(rt.inner_pfs().service_time(len as u64)));
    let stats = rt.inner_stats();
    stats.staged_out.add(len as u64);
    stats.staged_out_by_policy[meta.policy.get().index()].add(len as u64);
    let tel = rt.telemetry();
    tel.counter("stager", "backend_bytes", &[("backend", backend_label(meta)), ("dir", "out")])
        .add(len as u64);
    tel.span(EventKind::StageOut, now, t, node as u32, len as u64, page);
    tel.trace_child(
        ctx,
        Stage::BackendWrite,
        now,
        t,
        node as u32,
        len as u64,
        backend_label_static(meta),
        page,
    );
    Ok(t)
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
    // Walk blobs from coldest: approximate by scanning all residents of the
    // node; the count here is small (the DMSH is full, i.e. bounded).
    let mut candidates: Vec<(BlobId, f32, u64, bool)> = Vec::new();
    for vec in rt.all_vectors() {
        for id in dmsh.blobs_of(vec.id) {
            if let Some(m) = dmsh.meta_of(id) {
                candidates.push((id, m.score, m.size, m.dirty));
            }
        }
    }
    candidates.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    for (id, _score, _size, _dirty) in candidates {
        if freed >= requested {
            break;
        }
        let vec = match rt.all_vectors().into_iter().find(|v| v.id == id.bucket) {
            Some(v) => v,
            None => continue,
        };
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
            if m.dirty {
                let Some(backend) = vec.backend.clone() else {
                    return Ok(None); // volatile dirty data must stay resident
                };
                let Ok((data, read_done)) = dmsh.get(now, id) else { return Ok(None) };
                t = stage_out_page(
                    rt,
                    read_done,
                    &vec,
                    backend.as_ref(),
                    id.blob,
                    &data,
                    node,
                    TraceCtx::NONE,
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
