//! Model check: concurrent patches to the *same page* serialize.
//!
//! Run with:
//!
//! ```text
//! cargo test -p megammap-tiered --features loom-model --test loom_page
//! ```
//!
//! MegaMmap commits page diffs with [`Dmsh::put_ranges`]; the runtime
//! serializes install-or-patch per page (the apply-shard locks) and the
//! DMSH serializes the actual byte merge under its one lock. This
//! check explores every interleaving of two writers patching disjoint
//! ranges of one blob and asserts both patches always survive — the
//! copy-on-write steal inside `put_ranges` must never let one writer's
//! merge clobber the other's.
#![cfg(feature = "loom-model")]

use std::sync::Arc;

use bytes::Bytes;
use megammap_sim::DeviceSpec;
use megammap_tiered::{BlobId, Dmsh};

mod common;
use common::patch;

#[test]
fn disjoint_patches_to_one_page_both_survive() {
    loom::model(|| {
        let d = Arc::new(Dmsh::new("model", vec![DeviceSpec::dram(1 << 20)]));
        let id = BlobId::new(1, 0);
        d.put(0, id, Bytes::from(vec![0u8; 64]), 1.0, 0, false).unwrap();
        let d1 = Arc::clone(&d);
        let t1 = loom::thread::spawn(move || {
            patch(&d1, 0, id, &[(0, 16)], 0xAA).unwrap();
        });
        let d2 = Arc::clone(&d);
        let t2 = loom::thread::spawn(move || {
            patch(&d2, 0, id, &[(32, 48)], 0xBB).unwrap();
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let (got, _) = d.get(u64::MAX / 2, id).unwrap();
        assert_eq!(&got[..16], &[0xAA; 16], "writer 1's patch was lost");
        assert_eq!(&got[32..48], &[0xBB; 16], "writer 2's patch was lost");
        assert_eq!(&got[16..32], &[0u8; 16], "untouched range must stay zero");
    });
}

#[test]
fn overlapping_patches_leave_one_writers_bytes() {
    loom::model(|| {
        let d = Arc::new(Dmsh::new("model", vec![DeviceSpec::dram(1 << 20)]));
        let id = BlobId::new(1, 0);
        d.put(0, id, Bytes::from(vec![0u8; 32]), 1.0, 0, false).unwrap();
        let d1 = Arc::clone(&d);
        let t1 = loom::thread::spawn(move || {
            patch(&d1, 0, id, &[(8, 16)], 1).unwrap();
        });
        let d2 = Arc::clone(&d);
        let t2 = loom::thread::spawn(move || {
            patch(&d2, 0, id, &[(8, 16)], 2).unwrap();
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let (got, _) = d.get(u64::MAX / 2, id).unwrap();
        // Last writer wins, but the result is never an interleaved tear.
        assert!(
            got[8..16] == [1u8; 8] || got[8..16] == [2u8; 8],
            "overlapping patches tore: {:?}",
            &got[8..16]
        );
    });
}
