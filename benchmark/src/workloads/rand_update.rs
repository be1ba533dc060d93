//! `rand_update` — the fault path of `rand_read` used differently: seeded
//! random read-modify-writes over a 64 MiB `file://` vector with a DRAM
//! tier a quarter of its size. Dirty evictions, `Dmsh::put` under a full
//! DRAM tier, demotion to NVMe and real file stage-out do the work, so a
//! read-side gain that costs the write side shows here.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec};
use megammap_formats::posix::PosixObject;
use megammap_formats::DataObject;
use megammap_sim::{DeviceSpec, GIB, KIB, MIB};

use super::rand_read::indices;
use super::{
    cell, load_spanned, model_peak, moved_bytes, stats_delta, window_trace_and_layers, Layers, Rep,
    RepOpts, RepOut, TelCounts, Workload,
};
use crate::spans::Trace;

pub const ELEMS: u64 = 64 * MIB / 8;
pub const PAGE: u64 = 16 * KIB;
const PCACHE_PAGES: u64 = 8;
pub const OPS: u64 = 30_000;

pub struct RandUpdate {
    seed: u64,
    ops: u64,
    dir: PathBuf,
    file: PathBuf,
    cluster: Cluster,
    rt: Runtime,
    v: MmVec<u64>,
    /// What the vector must hold: the same updates applied to plain memory.
    oracle: Vec<u64>,
}

#[inline]
fn update(old: u64, i: u64) -> u64 {
    old.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
}

fn to_bytes(vals: &[u64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

impl RandUpdate {
    pub fn setup(seed: u64) -> Self {
        Self::with_size(seed, ELEMS, OPS)
    }

    pub fn with_size(seed: u64, elems: u64, ops: u64) -> Self {
        let oracle: Vec<u64> = (0..elems).map(|i| cell(seed, i)).collect();
        // Several set-ups may be alive in one process; each owns its file.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nth = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = crate::out_dir().join(format!("tmp_{}_{nth}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let dir = dir.canonicalize().expect("absolute temp dir");
        let file = dir.join("vector.bin");
        let obj = PosixObject::open(&file).expect("create backing file");
        obj.write_at(0, &to_bytes(&oracle)).expect("write backing file");
        obj.flush().expect("flush backing file");

        let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(GIB));
        let cfg = RuntimeConfig::default()
            .with_page_size(PAGE)
            .with_tiers(vec![DeviceSpec::dram(16 * MIB), DeviceSpec::nvme(512 * MIB)]);
        let rt = Runtime::new(&cluster, cfg);
        let url = format!("file://{}", file.display());
        let (v, _) = cluster.run_once(|p| {
            let opts = VecOptions::new().pcache(PCACHE_PAGES * PAGE).no_prefetch();
            MmVec::<u64>::open(&rt, p, &url, opts).expect("open file-backed vector")
        });
        assert_eq!(v.len(), elems, "vector length comes from the backing file");
        Self { seed, ops, dir, file, cluster, rt, v, oracle }
    }
}

impl Drop for RandUpdate {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for RandUpdate {
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
                let mut lane = opts.lane(0, 2 * ops as usize + 8);
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
                        Access::ReadWriteGlobal,
                        AccessPattern::Random,
                    )
                    .expect("begin update tx");
                lane.end(begin);
                let (mut sum, mut errors) = (0u64, 0u64);
                for _ in 0..ops {
                    let i = next();
                    let old = load_spanned(&mut lane, &mut fault_virt_ns, v, p, i);
                    let span = lane.begin("store");
                    match old.and_then(|old| {
                        sum = sum.wrapping_add(old);
                        v.try_store(p, i, update(old, i))
                    }) {
                        Ok(()) => {}
                        Err(_) => errors += 1,
                    }
                    lane.end(span);
                }
                let end = lane.begin("tx_end");
                tx.end().expect("end update tx");
                lane.end(end);
                lane.scope("flush_wait", |_| v.flush_wait(p).expect("flush to the backing file"));
                let wall_s = t0.elapsed().as_secs_f64();
                lane.end(rep_span);
                (wall_s, sum, errors, (v0, p.now()), lane, fault_virt_ns)
            });

        // Replay the same updates on the oracle; the loads must have seen
        // exactly the oracle's values.
        let mut replay = indices(seed, opts.rep_no, v.len());
        let mut want = 0u64;
        for _ in 0..ops {
            let i = replay();
            let old = self.oracle[i as usize];
            want = want.wrapping_add(old);
            self.oracle[i as usize] = update(old, i);
        }
        if sum != want {
            eprintln!("rand_update: loaded checksum {sum:#x} != oracle {want:#x}");
        }
        let stats = stats_delta(&self.rt.stats(), &before);
        let rep = Rep {
            wall_s,
            virt_ns: virt.1 - virt.0,
            model_peak_bytes: model_peak(&self.rt, report.peak_mem()),
            user_bytes: ops * 16,
            moved_bytes: moved_bytes(&stats, PAGE, 0),
            attempted: 2 * ops + 1,
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

    /// Full re-read through the vector and of the backing file (every
    /// repetition ended with `flush_wait`), both against the oracle.
    fn finish(&mut self) -> (u64, u64) {
        let (v, oracle) = (&self.v, &self.oracle);
        let (vector_ok, _) = self.cluster.run_once(|p| {
            let tx = v.tx(p, TxKind::seq(0, v.len()), Access::ReadOnly).expect("begin re-read tx");
            let mut buf = vec![0u64; 4096];
            let ok = oracle.chunks(4096).enumerate().all(|(c, want)| {
                let got = &mut buf[..want.len()];
                v.read_into(p, (c * 4096) as u64, got).is_ok() && got == want
            });
            tx.end().expect("end re-read tx");
            ok
        });
        let file_ok = std::fs::read(&self.file).is_ok_and(|bytes| bytes == to_bytes(oracle));
        if !(vector_ok && file_ok) {
            eprintln!("rand_update: final state differs from the oracle (vector ok {vector_ok}, file ok {file_ok})");
        }
        (2, u64::from(!vector_ok) + u64::from(!file_ok))
    }

    /// Every window draws fresh indices on a vector that keeps its state.
    fn reps_repeat(&self) -> bool {
        false
    }
}
