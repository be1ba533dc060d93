//! Property: one ranged read serves a run the same whether it is asked for
//! page by page or all at once — `run(count = 1) × n ≡ run(count = n)`.
//!
//! For every mix of written / fresh pages and every run shape, two
//! identically prepared runtimes must agree byte-for-byte on page
//! contents, and the telemetry must tell the same story: asked page by
//! page the path reports one synchronous fault per page, asked at once it
//! reports one synchronous fault plus `count - 1` coalesced prefetches and
//! a single batched crossing — the same pages served, accounted two ways.

use std::sync::Arc;

use proptest::prelude::*;

use super::tests::{read_page, read_run, write_diff};
use super::*;
use crate::config::RuntimeConfig;
use crate::rangeset::RangeSet;
use crate::tx::splitmix64;
use megammap_cluster::ClusterSpec;

/// Max coalesced-run length (mirrors `max_coalesce_pages`' default).
const MAX_RUN: u64 = 8;

/// A fresh single-node runtime with `written` pages pre-committed from
/// node 0 (full-page deterministic contents derived from `seed`).
fn prepared(seed: u64, written: &[bool]) -> (Cluster, Runtime, Arc<VectorMeta>) {
    let cluster = Cluster::new(ClusterSpec::new(1, 1));
    let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(4096));
    let m = rt
        .open_or_create_vector("mem://prop-run", 1, None, Some(written.len() as u64 * 4096))
        .unwrap();
    m.policy.set(Policy::Local);
    let ps = m.page_size as usize;
    let mut dirty = RangeSet::new();
    dirty.insert(0, ps as u64);
    for (page, w) in written.iter().enumerate() {
        if *w {
            let fill = (splitmix64(seed ^ page as u64) & 0xff) as u8;
            write_diff(&rt, 0, &m, page as u64, &vec![fill; ps], &dirty, 0).unwrap();
        }
    }
    (cluster, rt, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_run_of_n_equals_n_runs_of_one(
        seed in any::<u64>(),
        written in proptest::collection::vec(any::<bool>(), 1..MAX_RUN as usize + 1),
    ) {
        let count = written.len() as u64;

        // Runtime A: one `count = 1` run per page.
        let (_ca, rt_a, m_a) = prepared(seed, &written);
        let base_a = rt_a.stats();
        let mut pages_a = Vec::new();
        for page in 0..count {
            let (data, _) = read_page(&rt_a, 10_000, &m_a, page, 0, None).unwrap();
            pages_a.push(data);
        }
        let s_a = rt_a.stats();

        // Runtime B: the whole run in one `count = n` submission.
        let (_cb, rt_b, m_b) = prepared(seed, &written);
        let base_b = rt_b.stats();
        let pages_b = read_run(&rt_b, 10_000, &m_b, 0, count, 0, None).unwrap();
        let s_b = rt_b.stats();

        // Byte-identical contents, page by page.
        prop_assert_eq!(pages_a.len(), pages_b.len());
        for (page, (a, b)) in pages_a.iter().zip(pages_b.iter()).enumerate() {
            prop_assert_eq!(a.as_ref(), b.0.as_ref(), "page {} contents diverged", page);
        }

        // Identical fault accounting, stated two ways: every page the
        // per-page path bills as a synchronous fault is billed by the
        // batched path as its one synchronous fault plus coalesced
        // prefetches.
        let faults_pp = s_a.faults - base_a.faults;
        let faults_run = s_b.faults - base_b.faults;
        let coalesced_run = s_b.coalesced_faults - base_b.coalesced_faults;
        prop_assert_eq!(faults_pp, count);
        prop_assert_eq!(faults_pp, faults_run + coalesced_run);
        prop_assert_eq!(
            s_b.prefetches - base_b.prefetches,
            count - 1,
            "coalesced tail pages ride as prefetches"
        );
        // The run is one crossing iff it actually coalesced.
        let crossings = s_b.batched_crossings - base_b.batched_crossings;
        prop_assert_eq!(crossings, u64::from(count > 1));
        // Neither path may copy page payloads.
        prop_assert_eq!(s_a.bytes_copied - base_a.bytes_copied, 0);
        prop_assert_eq!(s_b.bytes_copied - base_b.bytes_copied, 0);
    }
}
