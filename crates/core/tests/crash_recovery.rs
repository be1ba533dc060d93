//! Crash-recovery round trips, one per stager backend (posix `file://`,
//! h5lite `hdf5://`, objstore `obj://`).
//!
//! The model: a journaled runtime incarnation writes a vector, then dies
//! mid-flush (a permanent backend outage makes the flush surface the typed
//! `MmError::Unavailable` after its retry budget — the data object never
//! receives the bytes). The write-ahead intents live in the `{key}.wal`
//! companion, which the fault plan models as a separately-attached log
//! device. A *second* runtime incarnation over the same [`Backends`]
//! replays the journal at open and every element reads back exactly.
//!
//! A second scenario puts the crash *between* a background stage-out pass
//! (which writes only the dirty byte ranges) and the next explicit flush:
//! the replayed intents must compose with what the pass left in the object.

use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec};
use megammap_formats::Backends;
use megammap_sim::FaultPlan;

const N: u64 = 2048; // 16 KiB of u64 = 4 exact 4-KiB pages

fn pattern() -> Vec<u64> {
    (0..N).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0DE).collect()
}

/// Write → die mid-flush → restart → verify, against one backend URL.
/// `outage_pat` must match the data key but not its `.wal` companion
/// (WAL keys are exempt by design — see `FaultPlan::backend_down`).
fn crash_round_trip(url: &str, outage_pat: &str) {
    let backends = Backends::new();
    let pat = pattern();

    // ---- life 1: journaled writes, flush dies against a dead backend ----
    {
        let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
        let plan = FaultPlan::new(7).backend_outage(outage_pat, 0, None).build();
        let cfg = RuntimeConfig::default()
            .with_page_size(4096)
            .with_journal(true)
            .with_retries(2, 1_000)
            .with_faults(plan);
        let rt = Runtime::with_backends(&cluster, cfg, backends.clone());
        let rt2 = rt.clone();
        let url_c = url.to_string();
        let pat_c = pat.clone();
        cluster.run(move |p| {
            let v: MmVec<u64> =
                MmVec::open(&rt2, p, &url_c, VecOptions::new().len(N).pcache(64 * 1024))
                    .expect("open vector in life 1");
            let tx = v.tx(p, TxKind::seq(0, N), Access::WriteLocal).expect("begin write tx");
            v.write_slice(p, 0, &pat_c).expect("write pattern");
            tx.end().expect("end write tx");
            let err = v.flush_wait(p).expect_err("flush must die against a dead backend");
            assert!(
                matches!(err, MmError::Unavailable { .. }),
                "typed transient/permanent error, got: {err}"
            );
        });
        // The incarnation dies here: dirty scache pages are gone. Only the
        // backends (holding the WAL, not the data) survive.
    }

    // ---- life 2: fresh incarnation over the same backends, no faults ----
    {
        let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
        let cfg = RuntimeConfig::default().with_page_size(4096).with_journal(true);
        let rt = Runtime::with_backends(&cluster, cfg, backends.clone());
        let rt2 = rt.clone();
        let url_c = url.to_string();
        cluster.run(move |p| {
            let v: MmVec<u64> =
                MmVec::open(&rt2, p, &url_c, VecOptions::new().len(N).pcache(64 * 1024))
                    .expect("open vector in life 2 (journal replay)");
            let tx = v.tx(p, TxKind::seq(0, N), Access::ReadOnly).expect("begin read tx");
            for (i, want) in pat.iter().enumerate() {
                assert_eq!(v.load(p, &tx, i as u64), *want, "element {i} after replay");
            }
            tx.end().expect("end read tx");
        });
    }
}

/// Virtual instant the backend dies in [`crash_after_background_pass`]:
/// long after the staged work, long before the final flush.
const DIES_AT: u64 = 1_000_000_000;

/// Durable base → sub-page updates a *background* pass stages out (only
/// their bytes) → further committed updates nobody stages → the backend
/// dies before the next explicit flush → restart → verify. The replayed
/// intents must compose with what the background pass left in the object.
fn crash_after_background_pass(url: &str, outage_pat: &str) {
    let backends = Backends::new();
    let mut want = pattern();

    {
        let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
        let plan = FaultPlan::new(7).backend_outage(outage_pat, DIES_AT, None).build();
        let cfg = RuntimeConfig::default()
            .with_page_size(4096)
            .with_journal(true)
            .with_retries(2, 1_000)
            .with_faults(plan);
        let interval = cfg.stage_interval_ns;
        let rt = Runtime::with_backends(&cluster, cfg, backends.clone());
        let rt2 = rt.clone();
        let url_c = url.to_string();
        let want_ref = &mut want;
        cluster.run_once(move |p| {
            let v: MmVec<u64> =
                MmVec::open(&rt2, p, &url_c, VecOptions::new().len(N).pcache(64 * 1024))
                    .expect("open vector in life 1");
            let tx = v.tx(p, TxKind::seq(0, N), Access::WriteLocal).expect("begin base tx");
            v.write_slice(p, 0, want_ref).expect("write base");
            tx.end().expect("end base tx");
            v.flush_wait(p).expect("the base is durable");

            // One element per page, committed; nothing stages them yet.
            let mut update = |p: &megammap_cluster::Proc, elems: &[u64], salt: u64| {
                let tx = v.tx(p, TxKind::seq(0, N), Access::WriteLocal).expect("begin update tx");
                for &i in elems {
                    want_ref[i as usize] ^= salt;
                    v.try_store(p, i, want_ref[i as usize]).expect("store");
                }
                tx.end().expect("end update tx");
            };
            update(p, &[3, 515, 1027, 1539], 0xAAAA);
            let staged = rt2.stats().staged_out;
            // The stage interval elapses; the next commit runs a background
            // pass over every dirty range.
            p.advance(interval + 1);
            update(p, &[7], 0xBBBB);
            assert_eq!(
                rt2.stats().staged_out - staged,
                5 * 8,
                "a background pass staged exactly the five dirty elements"
            );
            // More acknowledged writes, then the backend dies under the
            // explicit flush.
            update(p, &[3, 2047], 0xCCCC);
            p.advance_to(DIES_AT);
            let err = v.flush_wait(p).expect_err("flush must die against a dead backend");
            assert!(matches!(err, MmError::Unavailable { .. }), "typed error, got: {err}");
        });
    }

    {
        let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
        let cfg = RuntimeConfig::default().with_page_size(4096).with_journal(true);
        let rt = Runtime::with_backends(&cluster, cfg, backends.clone());
        let url_c = url.to_string();
        cluster.run_once(move |p| {
            let v: MmVec<u64> =
                MmVec::open(&rt, p, &url_c, VecOptions::new().len(N).pcache(64 * 1024))
                    .expect("open vector in life 2 (journal replay)");
            let tx = v.tx(p, TxKind::seq(0, N), Access::ReadOnly).expect("begin read tx");
            for (i, want) in want.iter().enumerate() {
                assert_eq!(v.load(p, &tx, i as u64), *want, "element {i} after replay");
            }
            tx.end().expect("end read tx");
        });
    }
}

/// Run `f(url, outage_pat)` over a fresh file (and WAL) in its own
/// directory under the system temp dir.
fn with_scratch_file(dir: &str, file: &str, params: &str, f: fn(&str, &str)) {
    let dir = std::env::temp_dir().join(format!("{dir}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test dir");
    let scheme = if params.is_empty() { "file" } else { "hdf5" };
    f(&format!("{scheme}://{}{params}", dir.join(file).display()), &format!("{file}{params}"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn objstore_backend_survives_crash_after_background_pass() {
    crash_after_background_pass("obj://crashbg/vec.bin", "crashbg/vec.bin");
}

#[test]
fn posix_backend_survives_crash_after_background_pass() {
    with_scratch_file("mm-crashbg-posix", "vec.bin", "", crash_after_background_pass);
}

#[test]
fn h5lite_backend_survives_crash_after_background_pass() {
    with_scratch_file("mm-crashbg-h5", "vec.h5", ":grid", crash_after_background_pass);
}

#[test]
fn objstore_backend_replays_journal_after_crash() {
    crash_round_trip("obj://crashrt/vec.bin", "crashrt/vec.bin");
}

#[test]
fn posix_backend_replays_journal_after_crash() {
    with_scratch_file("mm-crashrt-posix", "vec.bin", "", crash_round_trip);
}

#[test]
fn h5lite_backend_replays_journal_after_crash() {
    with_scratch_file("mm-crashrt-h5", "vec.h5", ":grid", crash_round_trip);
}
