//! `share_2node` — one producer, two consumers, 2 nodes × 1 process over a
//! 32 MiB `mem://` vector. Coherence and communication do the work:
//! directory ownership transfers, remote reads over the network model,
//! replica creation and invalidation, barriers; tiers and backends idle.
//!
//! A round: rank 0 rewrites the vector (`WriteGlobal`) · barrier · both
//! ranks scan it (`ReadOnly`, collective hint) · barrier · rank 1 stores
//! one element per page of the first half · barrier. After the last round
//! rank 0 reads those elements back and shuts the runtime down.

use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec, Proc};
use megammap_sim::{GIB, KIB, MIB};

use super::{
    cell, job_trace_and_layers, load_spanned, model_peak, moved_bytes, Layers, Rep, RepOpts,
    RepOut, Workload,
};
use crate::spans::{Lane, Trace};

pub const ELEMS: u64 = 32 * MIB / 8;
pub const PAGE: u64 = 64 * KIB;
pub const ROUNDS: u64 = 18;
const CHUNK: usize = 4096;
const NODES: usize = 2;

pub struct Share2Node {
    seed: u64,
    elems: u64,
    rounds: u64,
    /// Wrapping sum of what rank 0 writes in each round.
    round_sums: Vec<u64>,
}

/// What rank 0 writes at index `i` in round `r`.
#[inline]
fn produced(seed: u64, r: u64, i: u64) -> u64 {
    cell(seed.wrapping_add(r.wrapping_mul(0x5851_F42D_4C95_7F2D)), i)
}

/// What rank 1 stores at index `i` in round `r`.
#[inline]
fn patched(seed: u64, r: u64, i: u64) -> u64 {
    !produced(seed, r, i)
}

struct RankOut {
    lane: Lane,
    /// Scan checksum per round.
    sums: Vec<u64>,
    errors: u64,
    ops: u64,
    user_bytes: u64,
    /// Rank 0's read-back of rank 1's last stores matched.
    readback_ok: bool,
    /// Virtual latency of the read-back loads that missed the pcache.
    fault_virt_ns: Vec<u64>,
}

impl Share2Node {
    pub fn setup(seed: u64) -> Self {
        Self::with_size(seed, ELEMS, ROUNDS)
    }

    pub fn with_size(seed: u64, elems: u64, rounds: u64) -> Self {
        let round_sums = (0..rounds)
            .map(|r| (0..elems).fold(0u64, |acc, i| acc.wrapping_add(produced(seed, r, i))))
            .collect();
        Self { seed, elems, rounds, round_sums }
    }

    fn drive(&self, p: &Proc, rt: &Runtime, lane: Lane) -> RankOut {
        let (seed, elems, rounds) = (self.seed, self.elems, self.rounds);
        let world = p.world();
        let per_page = PAGE / 8;
        let patch_pages = elems / per_page / 2;
        let mut out = RankOut {
            lane,
            sums: Vec::new(),
            errors: 0,
            ops: 0,
            user_bytes: 0,
            readback_ok: true,
            fault_virt_ns: Vec::new(),
        };
        let span = out.lane.begin("open");
        let v: MmVec<u64> =
            MmVec::open(rt, p, "mem://bench/share", VecOptions::new().len(elems).page_size(PAGE))
                .expect("open shared vector");
        out.lane.end(span);
        let mut buf = vec![0u64; CHUNK];
        for r in 0..rounds {
            if p.rank() == 0 {
                let span = out.lane.begin("tx_begin");
                let tx =
                    v.tx(p, TxKind::seq(0, elems), Access::WriteGlobal).expect("begin rewrite tx");
                out.lane.end(span);
                let mut i = 0;
                while i < elems {
                    let n = CHUNK.min((elems - i) as usize);
                    for (k, slot) in buf[..n].iter_mut().enumerate() {
                        *slot = produced(seed, r, i + k as u64);
                    }
                    let span = out.lane.begin("write_slice");
                    out.errors += u64::from(v.write_slice(p, i, &buf[..n]).is_err());
                    out.lane.end(span);
                    out.ops += 1;
                    i += n as u64;
                }
                let span = out.lane.begin("tx_end");
                tx.end().expect("end rewrite tx");
                out.lane.end(span);
                out.user_bytes += elems * 8;
            }
            out.lane.scope("barrier", |_| world.barrier(p));

            let span = out.lane.begin("tx_begin");
            let tx = v
                .tx_collective(p, TxKind::seq(0, elems), Access::ReadOnly, NODES)
                .expect("begin scan tx");
            out.lane.end(span);
            let mut sum = 0u64;
            let mut i = 0;
            while i < elems {
                let n = CHUNK.min((elems - i) as usize);
                let span = out.lane.begin("read_into");
                out.errors += u64::from(v.read_into(p, i, &mut buf[..n]).is_err());
                out.lane.end(span);
                out.ops += 1;
                sum = buf[..n].iter().fold(sum, |acc, x| acc.wrapping_add(*x));
                i += n as u64;
            }
            let span = out.lane.begin("tx_end");
            tx.end().expect("end scan tx");
            out.lane.end(span);
            out.sums.push(sum);
            out.user_bytes += elems * 8;
            out.lane.scope("barrier", |_| world.barrier(p));

            if p.rank() == 1 {
                let span = out.lane.begin("tx_begin");
                let tx = v
                    .tx(p, TxKind::seq(0, patch_pages * per_page), Access::WriteGlobal)
                    .expect("begin patch tx");
                out.lane.end(span);
                for page in 0..patch_pages {
                    let i = page * per_page;
                    let span = out.lane.begin("store");
                    out.errors += u64::from(v.try_store(p, i, patched(seed, r, i)).is_err());
                    out.lane.end(span);
                    out.ops += 1;
                }
                let span = out.lane.begin("tx_end");
                tx.end().expect("end patch tx");
                out.lane.end(span);
                out.user_bytes += patch_pages * 8;
            }
            out.lane.scope("barrier", |_| world.barrier(p));
        }
        if p.rank() == 0 {
            let last = rounds - 1;
            let span = out.lane.begin("tx_begin");
            let tx = v
                .tx(p, TxKind::seq(0, patch_pages * per_page), Access::ReadOnly)
                .expect("begin read-back tx");
            out.lane.end(span);
            // Rank 1's store must have arrived, and rank 0's own values next
            // to it and at the end of the page must have survived it.
            for page in 0..patch_pages {
                let i = page * per_page;
                for (at, want) in [
                    (i, patched(seed, last, i)),
                    (i + 1, produced(seed, last, i + 1)),
                    (i + per_page - 1, produced(seed, last, i + per_page - 1)),
                ] {
                    let got = load_spanned(&mut out.lane, &mut out.fault_virt_ns, &v, p, at);
                    out.ops += 1;
                    out.readback_ok &= got.is_ok_and(|x| x == want);
                }
            }
            let span = out.lane.begin("tx_end");
            tx.end().expect("end read-back tx");
            out.lane.end(span);
            out.user_bytes += patch_pages * 24;
        }
        out.lane.scope("barrier", |_| world.barrier(p));
        if p.rank() == 0 {
            out.lane.scope("shutdown", |_| {
                let done = rt.shutdown(p.now()).expect("runtime shutdown");
                p.advance_to(done);
            });
        }
        out
    }
}

impl Workload for Share2Node {
    fn rep(&mut self, opts: &RepOpts) -> RepOut {
        let mut main = opts.lane(0, 8);
        let construct = main.begin("construct");
        let cluster = Cluster::new(ClusterSpec::new(NODES, 1).dram_per_node(GIB));
        cluster.telemetry().set_enabled(opts.telemetry);
        let rt = Runtime::new(&cluster, RuntimeConfig::memory_only(256 * MIB).with_page_size(PAGE));
        main.end(construct);

        let spans_per_rank = (self.rounds * (2 * self.elems / CHUNK as u64 + 1024)) as usize;
        let rep_span = main.begin("rep");
        let t0 = Instant::now();
        let (outs, report) =
            cluster.run(|p| self.drive(p, &rt, opts.lane(1 + p.rank() as u32, spans_per_rank)));
        let wall_s = t0.elapsed().as_secs_f64();
        let rep_parent = main.current();
        main.end(rep_span);

        let stats = rt.stats();
        let scans_ok = outs.iter().all(|o| o.sums == self.round_sums);
        let readback_ok = outs[0].readback_ok;
        if !(scans_ok && readback_ok) {
            eprintln!("share_2node: scans ok {scans_ok}, read-back ok {readback_ok}");
        }
        let checks = NODES as u64 * self.rounds + 1;
        let bad_scans: u64 = outs
            .iter()
            .map(|o| o.sums.iter().zip(&self.round_sums).filter(|(a, b)| a != b).count() as u64)
            .sum();
        let rep = Rep {
            wall_s,
            virt_ns: report.makespan_ns,
            model_peak_bytes: model_peak(&rt, report.peak_mem()),
            user_bytes: outs.iter().map(|o| o.user_bytes).sum(),
            moved_bytes: moved_bytes(&stats, PAGE, report.net_bytes),
            attempted: outs.iter().map(|o| o.ops).sum::<u64>() + checks,
            failed: outs.iter().map(|o| o.errors).sum::<u64>()
                + bad_scans
                + u64::from(!readback_ok),
            fingerprint: outs[1].sums.iter().fold(0, |acc, s| acc.rotate_left(9) ^ s),
        };

        let fault_virt_ns = outs.iter().flat_map(|o| o.fault_virt_ns.iter().copied()).collect();
        let (trace, layers) = if opts.traced {
            job_trace_and_layers(
                main,
                outs.into_iter().map(|o| o.lane).collect(),
                rep_parent,
                &cluster,
                &rt,
                &report,
            )
        } else {
            (Trace::default(), Layers::new())
        };
        RepOut { rep, layers, trace, fault_virt_ns }
    }
}
