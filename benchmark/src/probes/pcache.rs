//! `pcache`: the hit path as `kmeans_seq`/`gs_tiered` use it (64 KiB
//! pages, a cache of 16) and the miss path's bookkeeping as `rand_read`
//! uses it (16 KiB pages, a full cache of 8: pick a victim, remove it,
//! insert the arriving page).

use bytes::Bytes;
use megammap::pcache::{CachedPage, PCache};
use megammap::PageBuf;

use super::ns_per_op;

pub fn probe() -> Vec<(&'static str, f64)> {
    let mut hit = PCache::new(64 << 10, 1 << 20);
    let data = Bytes::from(vec![0u8; 64 << 10]);
    for page in 0..16 {
        hit.insert(page, CachedPage::new(PageBuf::shared(data.clone()), 0));
    }
    let mut page = 0u64;
    let access_hit_ns = ns_per_op(|| {
        page = (page + 1) % 16;
        std::hint::black_box(hit.access(page).is_some());
    });

    let mut full = PCache::new(16 << 10, 8 * (16 << 10));
    let data = Bytes::from(vec![0u8; 16 << 10]);
    for page in 0..8 {
        full.insert(page, CachedPage::new(PageBuf::shared(data.clone()), 0));
    }
    let mut next = 8u64;
    let insert_evict_ns = ns_per_op(|| {
        let victim = full.pick_victim().expect("a full cache has a victim");
        std::hint::black_box(full.remove(victim));
        full.insert(next, CachedPage::new(PageBuf::shared(data.clone()), 0));
        next += 1;
    });
    vec![("pcache.access_hit_ns", access_hit_ns), ("pcache.insert_evict_ns", insert_evict_ns)]
}
