//! The DMSH dirty index against a plain model.
//!
//! The stager writes exactly the byte ranges the index reports, so the index
//! must say precisely which bytes of which resident blobs the backend lacks
//! — after every kind of mutation, including the ones that move or drop
//! blobs behind the caller's back (demotion under a full tier, `organize`,
//! a size-changing re-`put`).
//!
//! A resident blob is one record — placement, size and bytes under one
//! lock — so the same walk pins what used to be five "meta and store
//! disagree" error paths: every tier's ledger holds exactly the sizes of the
//! records placed on it, and `get` returns the model's bytes wherever the
//! organizer moved them.

use std::collections::BTreeMap;

use bytes::Bytes;
use megammap_sim::{DeviceSpec, MIB};
use megammap_tiered::{BlobId, Dmsh, DmshError};
use proptest::prelude::*;

mod common;
use common::patch;

/// What a blob holds and which of its bytes are owed to the backend.
#[derive(Debug, Clone, Default)]
struct ModelBlob {
    data: Vec<u8>,
    dirty: Vec<bool>,
}

impl ModelBlob {
    /// Maximal runs of dirty bytes — the coalesced form the index keeps.
    fn ranges(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (i, _) in self.dirty.iter().enumerate().filter(|(_, d)| **d) {
            match out.last_mut() {
                Some(last) if last.1 == i as u64 => last.1 += 1,
                _ => out.push((i as u64, i as u64 + 1)),
            }
        }
        out
    }
}

const BUCKETS: u64 = 2;
const BLOBS: u64 = 6;

/// A DRAM tier of two or three blobs over roomy lower tiers: most puts
/// demote a resident, none can fail with `Full`.
fn dmsh() -> Dmsh {
    Dmsh::new("model", vec![DeviceSpec::dram(256), DeviceSpec::nvme(MIB), DeviceSpec::hdd(MIB)])
}

fn check(d: &Dmsh, model: &BTreeMap<BlobId, ModelBlob>) -> Result<(), String> {
    let mut placed = vec![0u64; d.num_tiers()];
    for bucket in 0..BUCKETS {
        let want: Vec<BlobId> = model
            .iter()
            .filter(|(id, m)| id.bucket == bucket && m.dirty.contains(&true))
            .map(|(id, _)| *id)
            .collect();
        let got = d.dirty_blobs_of(bucket);
        if got != want {
            return Err(format!("bucket {bucket}: dirty set {got:?}, model {want:?}"));
        }
        for blob in 0..BLOBS {
            let id = BlobId::new(bucket, blob);
            let got = d.dirty_ranges(id).map(|r| r.ranges().to_vec()).unwrap_or_default();
            let m = model.get(&id).cloned().unwrap_or_default();
            if got != m.ranges() {
                return Err(format!("{id}: ranges {got:?}, model {:?}", m.ranges()));
            }
            if d.dirty_ranges(id).is_some_and(|r| r.is_empty()) {
                return Err(format!("{id}: an empty entry is no entry"));
            }
            match (d.meta_of(id), model.get(&id)) {
                (None, None) => {}
                (Some(meta), Some(m)) => {
                    placed[meta.tier] += meta.size;
                    let (bytes, _) = d.get(u64::MAX / 2, id).map_err(|e| e.to_string())?;
                    if meta.size != m.data.len() as u64 || bytes[..] != m.data[..] {
                        return Err(format!("{id}: contents differ from the model"));
                    }
                    if got.last().is_some_and(|&(_, e)| e > meta.size) {
                        return Err(format!("{id}: ranges {got:?} leave [0, {})", meta.size));
                    }
                }
                (meta, m) => {
                    return Err(format!(
                        "{id}: resident {} vs model {}",
                        meta.is_some(),
                        m.is_some()
                    ))
                }
            }
        }
    }
    for (tier, want) in placed.into_iter().enumerate() {
        let used = d.device(tier).used();
        if used != want {
            return Err(format!("tier {tier}: ledger holds {used}, its records sum to {want}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random `put` / `put_ranges` / `mark_clean` / `remove` / `remove_bucket`
    /// / `wipe` / `organize` sequences (puts into a DRAM tier that is nearly
    /// always full, so they demote): the dirty set, every blob's ranges, the
    /// `dirty_blobs_of` order, the contents and every tier's ledger agree
    /// with the model after every step.
    #[test]
    fn dirty_index_matches_model(
        ops in proptest::collection::vec(
            ((0u8..16, 0..BUCKETS, 0..BLOBS), (0u64..160, 0u64..96, any::<bool>())),
            1..120,
        ),
    ) {
        let d = dmsh();
        let mut model: BTreeMap<BlobId, ModelBlob> = BTreeMap::new();
        for (step, ((kind, bucket, blob), (a, b, flag))) in ops.into_iter().enumerate() {
            let id = BlobId::new(bucket, blob);
            let now = step as u64 * 1_000;
            let fill = step as u8 ^ 0x5A;
            match kind {
                // put: `a` bytes (capped so three fit nowhere near DRAM's
                // 256), score from `b`, `flag` = dirty.
                0..=4 => {
                    let size = (a % 129) as usize;
                    let score = b as f32 / 96.0;
                    d.put(now, id, Bytes::from(vec![fill; size]), score, 0, flag)
                        .expect("the lower tiers never fill");
                    let entry = model.entry(id).or_default();
                    let same_size = entry.data.len() == size;
                    entry.data = vec![fill; size];
                    if flag {
                        entry.dirty = vec![true; size];
                    } else if !same_size {
                        entry.dirty = vec![false; size];
                    }
                }
                // put_ranges: `b` bytes at `a` — may start past the end —
                // and, with `flag`, the first four bytes in the same commit.
                5..=9 => {
                    let mut ranges = vec![(a, a + b)];
                    if flag {
                        ranges.push((0, 4));
                    }
                    let res = patch(&d, now, id, &ranges, fill);
                    match model.get_mut(&id) {
                        None => prop_assert_eq!(res, Err(DmshError::NotFound(id))),
                        Some(m) => {
                            prop_assert!(res.is_ok());
                            for (s, e) in ranges.into_iter().filter(|r| r.0 < r.1) {
                                let (s, e) = (s as usize, e as usize);
                                if e > m.data.len() {
                                    m.data.resize(e, 0);
                                    m.dirty.resize(e, false);
                                }
                                m.data[s..e].fill(fill);
                                m.dirty[s..e].fill(true);
                            }
                        }
                    }
                }
                10 | 11 => {
                    d.mark_clean(id);
                    if let Some(m) = model.get_mut(&id) {
                        m.dirty.fill(false);
                    }
                }
                12 => {
                    prop_assert_eq!(d.remove(id).is_some(), model.remove(&id).is_some());
                }
                13 => {
                    let before = model.len();
                    model.retain(|k, _| k.bucket != bucket);
                    prop_assert_eq!(d.remove_bucket(bucket), before - model.len());
                }
                14 => {
                    prop_assert_eq!(d.wipe(), model.len());
                    model.clear();
                }
                _ => {
                    d.organize(now, if flag { 0.25 } else { 0.75 });
                }
            }
            if let Err(why) = check(&d, &model) {
                prop_assert!(false, "step {} (op {}): {}", step, kind, why);
            }
        }
    }
}

#[test]
fn overgrowing_patch_keeps_the_gap_clean() {
    let d = dmsh();
    let id = BlobId::new(1, 0);
    d.put(0, id, Bytes::from(vec![7u8; 16]), 0.5, 0, false).unwrap();
    // The patch lands 24 bytes past the end: [16, 40) is zero-filled and
    // clean, only [40, 44) is owed to the backend.
    patch(&d, 1, id, &[(40, 44)], 5).unwrap();
    assert_eq!(d.meta_of(id).unwrap().size, 44);
    assert_eq!(d.dirty_ranges(id).unwrap().ranges(), &[(40, 44)]);
    let (bytes, _) = d.get(1_000_000, id).unwrap();
    assert!(bytes[16..40].iter().all(|&b| b == 0));
    // A second patch inside the old extent is its own range.
    patch(&d, 2, id, &[(4, 8)], 9).unwrap();
    assert_eq!(d.dirty_ranges(id).unwrap().ranges(), &[(4, 8), (40, 44)]);
}

#[test]
fn tier_moves_leave_the_index_alone() {
    let d = dmsh();
    let cold = BlobId::new(0, 0);
    d.put(0, cold, Bytes::from(vec![1u8; 128]), 0.1, 0, false).unwrap();
    patch(&d, 1, cold, &[(8, 16)], 2).unwrap();
    d.put(2, BlobId::new(0, 1), Bytes::from(vec![3u8; 128]), 0.2, 0, false).unwrap();
    // A hot put into the full DRAM tier demotes `cold`.
    d.put(3, BlobId::new(0, 2), Bytes::from(vec![4u8; 128]), 0.9, 0, true).unwrap();
    assert_ne!(d.meta_of(cold).unwrap().tier, 0, "the cold blob was demoted");
    assert_eq!(d.dirty_ranges(cold).unwrap().ranges(), &[(8, 16)]);
    assert_eq!(d.dirty_blobs_of(0), vec![cold, BlobId::new(0, 2)]);
}
