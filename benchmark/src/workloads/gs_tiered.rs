//! `gs_tiered` — paper Figs. 6/7: Gray-Scott with per-step checkpoints,
//! 2 nodes × 1 process, a footprint of ≈ 1.3× the DRAM tier. The write
//! path does the work: `WriteLocal` commits, `Dmsh::put` placement and
//! demotion, asynchronous stage-out overlapping compute, and halo planes
//! read across nodes.

use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec};
use megammap_formats::Backends;
use megammap_sim::{DeviceSpec, GIB, KIB, MIB};
use megammap_workloads::gray_scott::{self, GsConfig, GsResult};

use super::{
    job_trace_and_layers, model_peak, moved_bytes, Layers, Rep, RepOpts, RepOut, Rng, Workload,
};
use crate::spans::{Lane, Trace};

pub const L: usize = 160;
pub const STEPS: usize = 24;
pub const PAGE: u64 = 64 * KIB;
const PCACHE: u64 = 2 * MIB;
const NODES: usize = 2;

pub struct GsTiered {
    pub cfg: GsConfig,
    /// `gray_scott::mpi::run` on the same configuration.
    pub reference: GsResult,
}

pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::default().with_page_size(PAGE).with_tiers(vec![
        DeviceSpec::dram(48 * MIB),
        DeviceSpec::nvme(16 * MIB),
        DeviceSpec::ssd(64 * MIB),
    ])
}

/// The grid's initial condition is fixed by the library, so the seed
/// perturbs the feed and kill rates: the numbers change, the access
/// pattern does not.
pub fn config(seed: u64, l: usize, steps: usize) -> GsConfig {
    let mut rng = Rng(seed);
    let mut cfg = GsConfig::new(l, steps).plotgap(1);
    cfg.f += rng.below(1000) as f64 * 1e-6;
    cfg.k += rng.below(1000) as f64 * 1e-6;
    cfg
}

fn reference(cfg: GsConfig) -> GsResult {
    let cluster = Cluster::new(ClusterSpec::new(NODES, 1).dram_per_node(GIB));
    let job = gray_scott::mpi::MpiGs { cfg, io: None, final_ckpt: false };
    let (outs, _) = cluster.run(|p| gray_scott::mpi::run(p, &job).expect("reference fits DRAM"));
    outs.into_iter().next().expect("rank 0 result")
}

fn close(a: f64, b: f64) -> bool {
    ((a - b) / b).abs() <= 1e-9
}

impl GsTiered {
    pub fn setup(seed: u64) -> Self {
        Self::with_grid(seed, L, STEPS)
    }

    pub fn with_grid(seed: u64, l: usize, steps: usize) -> Self {
        let cfg = config(seed, l, steps);
        Self { cfg, reference: reference(cfg) }
    }

    /// Planes `gray_scott::mega::run` reads or writes, times the plane size:
    /// the initial condition and the final sum touch both fields once; a
    /// step reads two halo-side planes per field per process up front, then
    /// reads and writes every plane of both fields.
    fn user_bytes(&self) -> u64 {
        let l = self.cfg.l as u64;
        let planes = 2 * l + self.cfg.steps as u64 * (4 * NODES as u64 + 4 * l) + 2 * l;
        planes * l * l * 8
    }
}

impl Workload for GsTiered {
    fn rep(&mut self, opts: &RepOpts) -> RepOut {
        let mut main = opts.lane(0, 8);
        let construct = main.begin("construct");
        let cluster = Cluster::new(ClusterSpec::new(NODES, 1).dram_per_node(GIB));
        cluster.telemetry().set_enabled(opts.telemetry);
        // Fresh checkpoint objects per repetition, so every repetition
        // starts from the same (empty) backend state.
        let rt = Runtime::with_backends(&cluster, runtime_config(), Backends::new());
        main.end(construct);
        let cfg = self.cfg;

        let rep_span = main.begin("rep");
        let t0 = Instant::now();
        let (outs, report) = cluster.run(|p| {
            let mut lane = opts.lane(1 + p.rank() as u32, 8);
            let job = gray_scott::mega::MegaGs {
                rt: &rt,
                cfg,
                pcache_bytes: PCACHE,
                ckpt_url: Some("obj://bench/gs".into()),
                tag: "bench".into(),
            };
            let result = lane.scope("run", |_| gray_scott::mega::run(p, &job));
            p.world().barrier(p);
            if p.rank() == 0 {
                lane.scope("shutdown", |_| {
                    let done = rt.shutdown(p.now()).expect("runtime shutdown");
                    p.advance_to(done);
                });
            }
            (result, lane)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let rep_parent = main.current();
        main.end(rep_span);

        let (results, lanes): (Vec<GsResult>, Vec<Lane>) = outs.into_iter().unzip();
        let stats = rt.stats();
        let got = &results[0];
        let ok = results.iter().all(|r| r == got)
            && close(got.sum_u, self.reference.sum_u)
            && close(got.sum_v, self.reference.sum_v);
        if !ok {
            eprintln!("gs_tiered: {got:?} != reference {:?}", self.reference);
        }
        let rep = Rep {
            wall_s,
            virt_ns: report.makespan_ns,
            model_peak_bytes: model_peak(&rt, report.peak_mem()),
            user_bytes: self.user_bytes(),
            moved_bytes: moved_bytes(&stats, PAGE, report.net_bytes),
            attempted: 1,
            failed: u64::from(!ok),
            fingerprint: got.sum_u.to_bits() ^ got.sum_v.to_bits().rotate_left(32),
        };

        let (trace, layers) = if opts.traced {
            job_trace_and_layers(main, lanes, rep_parent, &cluster, &rt, &report)
        } else {
            (Trace::default(), Layers::new())
        };
        RepOut { rep, layers, trace, fault_virt_ns: Vec::new() }
    }
}
