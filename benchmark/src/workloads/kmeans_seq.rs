//! `kmeans_seq` — paper Listing 1 / Fig. 5: KMeans‖ over a 64 MiB
//! `obj://` dataset, 1 node × 2 processes. A sequential read-only scan
//! where prefetching hides the faults; the pcache hit path, the prefetcher,
//! stage-in and application compute do the work.

use std::time::Instant;

use megammap::element::Element;
use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec};
use megammap_formats::{Backends, DataUrl};
use megammap_sim::{DeviceSpec, GIB, KIB, MIB};
use megammap_workloads::datagen::{generate, HaloParams};
use megammap_workloads::kmeans::{self, KMeansConfig, KMeansResult};
use megammap_workloads::point::Point3D;

use super::{
    job_trace_and_layers, model_peak, moved_bytes, Layers, Rep, RepOpts, RepOut, Rng, Workload,
};
use crate::spans::{Lane, Trace};

/// 64 MiB of `Point3D`: above the 54 MiB L3 of the reference box.
pub const N_POINTS: usize = (64 * MIB as usize) / Point3D::SIZE;
pub const PAGE: u64 = 64 * KIB;
const PCACHE: u64 = MIB;
const URL: &str = "obj://bench/points.bin";
const PROCS: usize = 2;

pub struct KmeansSeq {
    pub points: Vec<Point3D>,
    backends: Backends,
}

pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::default()
        .with_page_size(PAGE)
        .with_tiers(vec![DeviceSpec::dram(128 * MIB), DeviceSpec::nvme(256 * MIB)])
}

/// Inertia of `points` under `centroids`, one plain pass.
pub fn plain_inertia(points: &[Point3D], centroids: &[Point3D]) -> f64 {
    points.iter().map(|p| f64::from(p.nearest_centroid(centroids).1)).sum()
}

/// Move the halo catalogue to where `seed` puts it: a seeded axis
/// permutation, reflection and translation. KMeans‖ oversamples a
/// Poisson-distributed number of candidates, so between *independent*
/// datasets the work of one run differs by ±12 % — more than any bound
/// here. A rigid motion changes every stored byte but no distance, hence no
/// sampling decision: every seed gives the same amount of work.
pub fn place(seed: u64, points: &mut [Point3D]) {
    const PERMS: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let mut rng = Rng(seed);
    let perm = PERMS[rng.below(6) as usize];
    let flip: [f32; 3] = std::array::from_fn(|_| if rng.below(2) == 0 { 1.0 } else { -1.0 });
    let shift: [f32; 3] = std::array::from_fn(|_| rng.below(1024) as f32 - 512.0);
    for p in points {
        let c = [p.x, p.y, p.z];
        *p = Point3D::new(
            flip[0] * c[perm[0]] + shift[0],
            flip[1] * c[perm[1]] + shift[1],
            flip[2] * c[perm[2]] + shift[2],
        );
    }
}

fn fingerprint(r: &KMeansResult) -> u64 {
    r.centroids.iter().fold(r.inertia.to_bits(), |acc, c| {
        acc.rotate_left(7)
            ^ u64::from(c.x.to_bits())
            ^ (u64::from(c.y.to_bits()) << 20)
            ^ (u64::from(c.z.to_bits()) << 40)
    })
}

impl KmeansSeq {
    pub fn setup(seed: u64) -> Self {
        Self::with_points(seed, N_POINTS)
    }

    pub fn with_points(seed: u64, n_points: usize) -> Self {
        let mut data = generate(HaloParams { n_points, ..HaloParams::default() });
        place(seed, &mut data.points);
        let backends = Backends::new();
        let obj = backends.open(&DataUrl::parse(URL).expect("static url")).expect("open obj://");
        data.write_object(obj.as_ref()).expect("write dataset object");
        Self { points: data.points, backends }
    }

    /// Bytes `kmeans::mega::run` asks the vector for: two sweeps per
    /// oversampling round, the weighing sweep, one per Lloyd iteration, the
    /// inertia sweep, and the seed point every process loads.
    fn user_bytes(&self, cfg: &KMeansConfig) -> u64 {
        let sweeps = (2 * cfg.init_rounds + 1 + cfg.max_iter + 1) as u64;
        (sweeps * self.points.len() as u64 + PROCS as u64) * Point3D::SIZE as u64
    }
}

impl Workload for KmeansSeq {
    fn rep(&mut self, opts: &RepOpts) -> RepOut {
        let mut main = opts.lane(0, 8);
        let construct = main.begin("construct");
        let cluster = Cluster::new(ClusterSpec::new(1, PROCS).dram_per_node(GIB));
        cluster.telemetry().set_enabled(opts.telemetry);
        let rt = Runtime::with_backends(&cluster, runtime_config(), self.backends.clone());
        main.end(construct);
        let cfg = KMeansConfig::default();

        let rep_span = main.begin("rep");
        let t0 = Instant::now();
        let (outs, report) = cluster.run(|p| {
            let mut lane = opts.lane(1 + p.rank() as u32, 8);
            let job = kmeans::mega::MegaKMeans {
                rt: &rt,
                url: URL.into(),
                assign_url: None,
                cfg,
                pcache_bytes: PCACHE,
            };
            let result = lane.scope("run", |_| kmeans::mega::run(p, &job));
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

        let (results, lanes): (Vec<KMeansResult>, Vec<Lane>) = outs.into_iter().unzip();
        let stats = rt.stats();
        let mut failed = 0;
        let want = plain_inertia(&self.points, &results[0].centroids);
        let agree = results.iter().all(|r| fingerprint(r) == fingerprint(&results[0]));
        if !agree || ((results[0].inertia - want) / want).abs() > 1e-6 {
            eprintln!(
                "kmeans_seq: inertia {} != plain {want} (ranks agree: {agree})",
                results[0].inertia
            );
            failed = 1;
        }
        let rep = Rep {
            wall_s,
            virt_ns: report.makespan_ns,
            model_peak_bytes: model_peak(&rt, report.peak_mem()),
            user_bytes: self.user_bytes(&cfg),
            moved_bytes: moved_bytes(&stats, PAGE, report.net_bytes),
            attempted: 1,
            failed,
            fingerprint: fingerprint(&results[0]),
        };

        let (trace, layers) = if opts.traced {
            job_trace_and_layers(main, lanes, rep_parent, &cluster, &rt, &report)
        } else {
            (Trace::default(), Layers::new())
        };
        RepOut { rep, layers, trace, fault_virt_ns: Vec::new() }
    }
}
