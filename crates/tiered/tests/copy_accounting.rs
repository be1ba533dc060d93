//! Regression tests for copy accounting on the CoW patch path.
//!
//! `Dmsh::put_ranges` must own the page bytes to apply a patch. When the
//! stored `Bytes` is the sole handle it steals the allocation (zero-copy);
//! when a reader still holds a view it must copy — and every such copied
//! byte must land in the `runtime.bytes_copied` counter, or the zero-copy
//! discipline silently erodes (`mm-lint`'s zero-copy rule allowlists the
//! `shared.to_vec()` fallback on exactly this promise).

use bytes::Bytes;
use megammap_sim::DeviceSpec;
use megammap_telemetry::Telemetry;
use megammap_tiered::{BlobId, Dmsh};

mod common;
use common::patch;

const PAGE: usize = 64;

fn fixture() -> (Telemetry, Dmsh, BlobId) {
    let t = Telemetry::new();
    let d = Dmsh::with_telemetry("acct", vec![DeviceSpec::dram(1 << 20)], t.clone(), 0);
    let id = BlobId::new(1, 0);
    d.put(0, id, Bytes::from(vec![1u8; PAGE]), 1.0, 0, false).unwrap();
    (t, d, id)
}

#[test]
fn unique_page_patch_steals_without_copying() {
    let (t, d, id) = fixture();
    patch(&d, 10, id, &[(0, 8)], 9).unwrap();
    assert_eq!(
        t.counter_total("runtime", "bytes_copied"),
        0,
        "patching a sole-handle page must steal the allocation, not copy it"
    );
    let (got, _) = d.get(20, id).unwrap();
    assert_eq!(&got[..8], &[9u8; 8]);
}

#[test]
fn shared_page_patch_copies_and_counts_every_byte() {
    let (t, d, id) = fixture();
    // A reader keeps a second handle on the stored Bytes alive across the
    // patch: put_ranges cannot steal and must fall back to a full copy.
    let (held, _) = d.get(20, id).unwrap();
    patch(&d, 30, id, &[(8, 16)], 7).unwrap();
    assert_eq!(
        t.counter_total("runtime", "bytes_copied"),
        PAGE as u64,
        "the CoW fallback must account the whole copied page"
    );
    // The reader's snapshot is untouched; the store has the patch.
    assert_eq!(&held[..], &[1u8; PAGE]);
    let (got, _) = d.get(40, id).unwrap();
    assert_eq!(&got[8..16], &[7u8; 8]);
    assert_eq!(&got[..8], &[1u8; 8]);
}

#[test]
fn copy_accounting_stops_once_the_handle_is_dropped() {
    let (t, d, id) = fixture();
    let (held, _) = d.get(20, id).unwrap();
    patch(&d, 30, id, &[(0, 4)], 3).unwrap();
    assert_eq!(t.counter_total("runtime", "bytes_copied"), PAGE as u64);
    drop(held);
    // The copied-in replacement buffer is unique again: further patches
    // steal, and the counter stays put.
    patch(&d, 40, id, &[(4, 8)], 4).unwrap();
    patch(&d, 50, id, &[(8, 12)], 5).unwrap();
    assert_eq!(
        t.counter_total("runtime", "bytes_copied"),
        PAGE as u64,
        "sole-handle patches after the reader is gone must not copy"
    );
}
