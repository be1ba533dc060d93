//! `directory`: lookups and owner probes over the 8192 pages of
//! `rand_read`, and ownership claims alternating between two nodes as
//! `share_2node` makes them.

use megammap::runtime::directory::Directory;
use megammap_tiered::BlobId;

use super::ns_per_op;
use crate::workloads::Rng;

const PAGES: u64 = 8192;

pub fn probe() -> Vec<(&'static str, f64)> {
    let dir = Directory::new();
    for page in 0..PAGES {
        // Claimed twice by its home node: established, then retained.
        dir.claim_owner(BlobId::new(1, page), 0, 0);
        dir.claim_owner(BlobId::new(1, page), 0, 0);
    }
    let mut rng = Rng(1);
    let lookup_ns = ns_per_op(|| {
        std::hint::black_box(dir.lookup(BlobId::new(1, rng.below(PAGES))));
    });
    let owner_read_ns = ns_per_op(|| {
        std::hint::black_box(dir.owner_read(BlobId::new(1, rng.below(PAGES)), 0));
    });
    let mut turn = 0u64;
    let claim_ns = ns_per_op(|| {
        turn += 1;
        let node = (turn / PAGES % 2) as usize;
        std::hint::black_box(dir.claim_owner(BlobId::new(1, turn % PAGES), node, 0));
    });
    vec![
        ("directory.lookup_ns", lookup_ns),
        ("directory.owner_read_ns", owner_read_ns),
        ("directory.claim_ns", claim_ns),
    ]
}
