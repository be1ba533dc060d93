//! `rand_read` — seeded random loads over a 128 MiB `mem://` vector that
//! fits the DRAM tier, through an 8-page pcache with prefetching off. At
//! least 99 % of loads are synchronous faults served by the local scache
//! shard: miss-detect → shard/directory probe → `Dmsh::get` → device model
//! is all the work; the prefetcher and the stager do nothing.

use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec, Proc};
use megammap_sim::{GIB, KIB, MIB};

use super::{
    cell, load_spanned, model_peak, moved_bytes, stats_delta, window_trace_and_layers, Layers, Rep,
    RepOpts, RepOut, Rng, TelCounts, Workload,
};
use crate::spans::Trace;

pub const ELEMS: u64 = 128 * MIB / 8;
pub const PAGE: u64 = 16 * KIB;
const PCACHE_PAGES: u64 = 8;
pub const OPS: u64 = 320_000;
const FILL_CHUNK: usize = 8192;

pub struct RandRead {
    seed: u64,
    ops: u64,
    cluster: Cluster,
    rt: Runtime,
    v: MmVec<u64>,
}

/// Fill `v` with `cell(seed, i)` through a write-only global transaction.
pub fn fill(p: &Proc, v: &MmVec<u64>, seed: u64) {
    let tx = v.tx(p, TxKind::seq(0, v.len()), Access::WriteGlobal).expect("begin fill tx");
    let mut buf = vec![0u64; FILL_CHUNK];
    let mut i = 0;
    while i < v.len() {
        let n = FILL_CHUNK.min((v.len() - i) as usize);
        for (k, slot) in buf[..n].iter_mut().enumerate() {
            *slot = cell(seed, i + k as u64);
        }
        v.write_slice(p, i, &buf[..n]).expect("fill write");
        i += n as u64;
    }
    tx.end().expect("end fill tx");
}

/// The index stream of repetition `rep_no`: a pure function of the seed.
pub fn indices(seed: u64, rep_no: u32, len: u64) -> impl FnMut() -> u64 {
    let mut rng = Rng(seed ^ (u64::from(rep_no) + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    move || rng.below(len)
}

impl RandRead {
    pub fn setup(seed: u64) -> Self {
        Self::with_size(seed, ELEMS, OPS)
    }

    pub fn with_size(seed: u64, elems: u64, ops: u64) -> Self {
        let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(GIB));
        let rt = Runtime::new(&cluster, RuntimeConfig::memory_only(256 * MIB).with_page_size(PAGE));
        let (v, _) = cluster.run_once(|p| {
            let opts = VecOptions::new().len(elems).pcache(PCACHE_PAGES * PAGE).no_prefetch();
            let v: MmVec<u64> =
                MmVec::open(&rt, p, "mem://bench/rand_read", opts).expect("open vector");
            fill(p, &v, seed);
            v
        });
        Self { seed, ops, cluster, rt, v }
    }
}

impl Workload for RandRead {
    fn rep(&mut self, opts: &RepOpts) -> RepOut {
        self.cluster.telemetry().set_enabled(opts.telemetry);
        let before = self.rt.stats();
        let tel_before = if opts.traced {
            TelCounts::read(&self.cluster.telemetry().snapshot())
        } else {
            TelCounts::default()
        };
        let (v, seed, ops) = (&self.v, self.seed, self.ops);
        let mut next = indices(seed, opts.rep_no, v.len());

        let ((wall_s, sum, errors, virt, lane, fault_virt_ns), report) =
            self.cluster.run_once(|p| {
                let mut lane = opts.lane(0, ops as usize + 8);
                let mut fault_virt_ns =
                    Vec::with_capacity(if opts.traced { ops as usize } else { 0 });
                let rep_span = lane.begin("rep");
                let v0 = p.now();
                let t0 = Instant::now();
                let begin = lane.begin("tx_begin");
                let tx = v
                    .tx_hinted(
                        p,
                        TxKind::rand(seed, 0, v.len()),
                        Access::ReadOnly,
                        AccessPattern::Random,
                    )
                    .expect("begin read tx");
                lane.end(begin);
                let (mut sum, mut errors) = (0u64, 0u64);
                for _ in 0..ops {
                    match load_spanned(&mut lane, &mut fault_virt_ns, v, p, next()) {
                        Ok(x) => sum = sum.wrapping_add(x),
                        Err(_) => errors += 1,
                    }
                }
                let end = lane.begin("tx_end");
                tx.end().expect("end read tx");
                lane.end(end);
                let wall_s = t0.elapsed().as_secs_f64();
                lane.end(rep_span);
                (wall_s, sum, errors, (v0, p.now()), lane, fault_virt_ns)
            });

        let stats = stats_delta(&self.rt.stats(), &before);
        let mut check = indices(seed, opts.rep_no, v.len());
        let want = (0..ops).fold(0u64, |acc, _| acc.wrapping_add(cell(seed, check())));
        if sum != want {
            eprintln!("rand_read: checksum {sum:#x} != closed form {want:#x}");
        }
        let rep = Rep {
            wall_s,
            virt_ns: virt.1 - virt.0,
            model_peak_bytes: model_peak(&self.rt, report.peak_mem()),
            user_bytes: ops * 8,
            moved_bytes: moved_bytes(&stats, PAGE, 0),
            attempted: ops + 1,
            failed: errors + u64::from(sum != want),
            fingerprint: sum,
        };

        let (trace, layers) = if opts.traced {
            window_trace_and_layers(lane, &self.cluster, &self.rt, &stats, &tel_before, virt)
        } else {
            (Trace::default(), Layers::new())
        };
        RepOut { rep, layers, trace, fault_virt_ns }
    }

    /// Every window draws fresh indices on a vector that keeps its state.
    fn reps_repeat(&self) -> bool {
        false
    }
}
