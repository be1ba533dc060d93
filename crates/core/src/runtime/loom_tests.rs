//! Model checks for the sharded fault path.
//!
//! Run with:
//!
//! ```text
//! cargo test -p megammap --features loom-model loom_
//! ```
//!
//! Two families of interleavings are explored (the shuttle-style shim in
//! `shims/loom` drives every `parking_lot` lock through a cooperative
//! scheduler):
//!
//! 1. **Commit vs writeback** — a dirty-range commit racing the flush /
//!   emergency-drain writeback of the same page. This is the interleaving
//!   behind the historical ~2–3% chaos KMeans divergence (ROADMAP item 1):
//!   writeback read the page, a patch landed, then `mark_clean` erased the
//!   patch's dirty flag — the patch stayed resident but was never staged
//!   out again, so a later crash-recovery re-read got stale backend bytes.
//!   Both scenarios assert the patch always reaches its destination now
//!   that the writeback read→stage→mark-clean sequence holds the page's
//!   apply-shard lock.
//! 2. **Ownership transfer** — two ranks racing a claim, and a transfer
//!   racing a batched (coalesced-run) fault. At most one rank may end up
//!   fast-path eligible, the epoch must count exactly the transfers, and a
//!   reader crossing the transfer must see untorn pages.

use std::sync::Arc;

use super::tests::{read_page, read_run, write_diff};
use super::*;
use crate::config::RuntimeConfig;
use megammap_cluster::ClusterSpec;

/// Full-page dirty set for a `ps`-byte page.
fn all_dirty(ps: usize) -> RangeSet {
    let mut r = RangeSet::new();
    r.insert(0, ps as u64);
    r
}

#[test]
fn loom_commit_patch_vs_flush_writeback_keeps_the_patch() {
    loom::model(|| {
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(4096));
        let m =
            rt.open_or_create_vector("obj://loom/flush.bin", 1, Some(4096), Some(4096)).unwrap();
        m.policy.set(Policy::WriteGlobal);
        let ps = m.page_size as usize;
        write_diff(&rt, 0, &m, 0, &vec![0x11u8; ps], &all_dirty(ps), 0).unwrap();

        let rt1 = rt.clone();
        let m1 = Arc::clone(&m);
        let patcher = loom::thread::spawn(move || {
            let mut dirty = RangeSet::new();
            dirty.insert(64, 128);
            let mut data = vec![0u8; 4096];
            data[64..128].fill(0x77);
            write_diff(&rt1, 1_000, &m1, 0, &data, &dirty, 0).unwrap();
        });
        let rt2 = rt.clone();
        let m2 = Arc::clone(&m);
        let flusher = loom::thread::spawn(move || {
            rt2.flush_vector(1_000, &m2).unwrap();
        });
        patcher.join().unwrap();
        flusher.join().unwrap();

        // A final quiescent flush must land the patch in the backend: if
        // the concurrent writeback lost the patch's dirty flag, the page
        // is silently stale here.
        rt.flush_vector(1_000_000, &m).unwrap();
        let obj = rt.backends().open(&DataUrl::parse("obj://loom/flush.bin").unwrap()).unwrap();
        let bytes = megammap_formats::object::read_all(obj.as_ref()).unwrap();
        assert!(bytes[64..128].iter().all(|&b| b == 0x77), "patch lost by writeback race");
        assert!(bytes[..64].iter().all(|&b| b == 0x11), "base write lost");
        assert!(bytes[128..].iter().all(|&b| b == 0x11), "base write lost past the patch");
    });
}

#[test]
fn loom_commit_patch_vs_emergency_drain_keeps_the_patch() {
    loom::model(|| {
        // Four-page DMSH; three resident pages, then two more writes force
        // the emergency drain to pick victims while a patch is in flight.
        let cluster = Cluster::new(ClusterSpec::new(1, 1));
        let rt = Runtime::new(&cluster, RuntimeConfig::memory_only(4 * 4096).with_page_size(4096));
        let m = rt.open_or_create_vector("obj://loom/drain.bin", 1, None, Some(6 * 4096)).unwrap();
        m.policy.set(Policy::WriteGlobal);
        let ps = m.page_size as usize;
        for page in 0..3u64 {
            write_diff(&rt, 0, &m, page, &vec![0x10 + page as u8; ps], &all_dirty(ps), 0).unwrap();
        }

        let rt1 = rt.clone();
        let m1 = Arc::clone(&m);
        let patcher = loom::thread::spawn(move || {
            let mut dirty = RangeSet::new();
            dirty.insert(64, 128);
            let mut data = vec![0u8; 4096];
            data[64..128].fill(0x77);
            write_diff(&rt1, 1_000, &m1, 0, &data, &dirty, 0).unwrap();
        });
        let rt2 = rt.clone();
        let m2 = Arc::clone(&m);
        let presser = loom::thread::spawn(move || {
            for page in 3..5u64 {
                let ps = m2.page_size as usize;
                write_diff(&rt2, 1_000, &m2, page, &vec![0x20u8; ps], &all_dirty(ps), 0).unwrap();
            }
        });
        patcher.join().unwrap();
        presser.join().unwrap();

        // Wherever page 0 ended up (still resident, or drained to the
        // backend and staged back in), the patched range must survive.
        // Only the patched bytes are asserted: if the drain evicted the
        // page *before* the patch, the re-installed page has a zero base.
        let (data, _) = read_page(&rt, 2_000_000, &m, 0, 0, None).unwrap();
        assert!(data[64..128].iter().all(|&b| b == 0x77), "patch lost by drain race");
    });
}

#[test]
fn loom_racing_ownership_claims_leave_one_owner() {
    loom::model(|| {
        let dir = Arc::new(directory::Directory::new());
        let id = BlobId::new(7, 0);
        let d1 = Arc::clone(&dir);
        let t1 = loom::thread::spawn(move || d1.claim_owner(id, 0, 0));
        let d2 = Arc::clone(&dir);
        let t2 = loom::thread::spawn(move || d2.claim_owner(id, 1, 1));
        let c0 = t1.join().unwrap();
        let c1 = t2.join().unwrap();

        // Establishing or stealing ownership is never `retained` — both
        // racers must pay the slow path regardless of interleaving.
        assert!(!c0.retained && !c1.retained);
        // At most one rank may be fast-path eligible afterwards.
        let fast0 = dir.owner_read(id, 0) == directory::OwnerRead::Fast;
        let fast1 = dir.owner_read(id, 1) == directory::OwnerRead::Fast;
        assert!(!(fast0 && fast1), "two ranks both fast-path eligible");
        // Exactly one transfer happened (first claim does not bump).
        let loc = dir.lookup(id).unwrap();
        assert_eq!(loc.owner_epoch, 1, "epoch must count exactly one transfer");
        let owner = loc.owner.expect("a standing owner must exist");
        // The standing owner re-claims without a transfer.
        let re = dir.claim_owner(id, owner, owner);
        assert!(re.retained, "standing owner must retain");
        assert_eq!(re.epoch, loc.owner_epoch, "retain must not bump the epoch");
    });
}

#[test]
fn loom_ownership_transfer_vs_batched_fault_sees_untorn_pages() {
    loom::model(|| {
        let cluster = Cluster::new(ClusterSpec::new(2, 1));
        let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(4096));
        let m = rt.open_or_create_vector("mem://loom-xfer", 1, None, Some(2 * 4096)).unwrap();
        m.policy.set(Policy::Local);
        let ps = m.page_size as usize;
        // Node 0 writes both pages: home and owner are node 0.
        for page in 0..2u64 {
            write_diff(&rt, 0, &m, page, &vec![0xAAu8; ps], &all_dirty(ps), 0).unwrap();
        }

        let rt1 = rt.clone();
        let m1 = Arc::clone(&m);
        let xfer = loom::thread::spawn(move || {
            // Node 1 rewrites page 0 whole: an ownership transfer racing
            // the batched fault below.
            let ps = m1.page_size as usize;
            write_diff(&rt1, 1_000, &m1, 0, &vec![0xBBu8; ps], &all_dirty(ps), 1).unwrap();
        });
        let rt2 = rt.clone();
        let m2 = Arc::clone(&m);
        let reader =
            loom::thread::spawn(move || read_run(&rt2, 1_000, &m2, 0, 2, 0, None).unwrap());
        let pages = reader.join().unwrap();
        xfer.join().unwrap();

        // The batched fault crosses the transfer but must never observe a
        // torn page: page 0 is wholly old or wholly new.
        let p0 = &pages[0].0;
        assert!(
            p0.iter().all(|&b| b == 0xAA) || p0.iter().all(|&b| b == 0xBB),
            "page 0 tore across the ownership transfer"
        );
        assert!(pages[1].0.iter().all(|&b| b == 0xAA), "untouched page 1 changed");

        // The transfer is recorded: node 1 owns page 0 at epoch 1, and
        // node 0's fast path for it is disarmed.
        let loc = rt.inner_dir().lookup(BlobId::new(m.id, 0)).unwrap();
        assert_eq!(loc.owner, Some(1));
        assert_eq!(loc.owner_epoch, 1);
        assert_ne!(rt.inner_dir().owner_read(BlobId::new(m.id, 0), 0), directory::OwnerRead::Fast);
    });
}
