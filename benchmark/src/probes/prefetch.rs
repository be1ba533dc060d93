//! `prefetch`: what serving a page through the prefetcher costs. The
//! Algorithm 1 pass cannot be called on its own from outside the crate
//! (`Transaction` has no public constructor), so it is measured through
//! `MmVec` as a difference: wall time per page of a sequential `read_into`
//! sweep in the `kmeans_seq` shape (64 KiB pages, 1 MiB pcache, every page
//! arrives by prefetch) minus the time per page of the same copy-out from
//! pages that stay resident.

use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec};
use megammap_sim::{GIB, KIB, MIB};

use super::{ns_per_op, seq_pass};
use crate::workloads::rand_read::fill;

const PAGE: u64 = 64 * KIB;
const PER_PAGE: u64 = PAGE / 8;
const SWEPT_PAGES: u64 = 256;
const RESIDENT_PAGES: u64 = 8;

pub fn probe() -> Vec<(&'static str, f64)> {
    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(GIB));
    let rt = Runtime::new(&cluster, RuntimeConfig::memory_only(128 * MIB).with_page_size(PAGE));
    let (run_ns, _) = cluster.run_once(|p| {
        let mut buf = vec![0u64; PER_PAGE as usize];

        let opts = VecOptions::new().len(SWEPT_PAGES * PER_PAGE).pcache(MIB);
        let swept: MmVec<u64> = MmVec::open(&rt, p, "mem://probe/swept", opts).expect("open");
        fill(p, &swept, 1);
        let swept_ns = ns_per_op(|| {
            seq_pass(p, &swept, &mut buf, |c| {
                std::hint::black_box(c[0]);
            })
        }) / SWEPT_PAGES as f64;

        let opts = VecOptions::new().len(RESIDENT_PAGES * PER_PAGE).pcache(MIB).no_prefetch();
        let resident: MmVec<u64> = MmVec::open(&rt, p, "mem://probe/resident", opts).expect("open");
        fill(p, &resident, 1);
        // One transaction for the whole probe: beginning a reading
        // transaction drops cached pages, and these must stay.
        let tx = resident.tx(p, TxKind::seq(0, resident.len()), Access::ReadOnly).expect("begin");
        let mut page = 0;
        let resident_ns = ns_per_op(|| {
            page = (page + 1) % RESIDENT_PAGES;
            resident.read_into(p, page * PER_PAGE, &mut buf).expect("resident read");
            std::hint::black_box(buf[0]);
        });
        tx.end().expect("end");
        (swept_ns - resident_ns).max(0.0)
    });
    vec![("prefetch.run_ns", run_ns)]
}
