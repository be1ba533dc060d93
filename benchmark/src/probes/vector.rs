//! `vector`: the paper's §III-E indexing-overhead claim. A sequential
//! sweep over 16 MiB of `Point3D` that finds every point's nearest of
//! eight centroids — through `MmVec::read_into` in the 2048-point chunks
//! `kmeans::mega` uses, against the same loop over a plain slice — and the
//! rate of the sweep without the compute.

use megammap::element::Element;
use megammap::prelude::*;
use megammap_cluster::{Cluster, ClusterSpec};
use megammap_sim::{GIB, KIB, MIB};
use megammap_workloads::datagen::{generate, HaloParams};
use megammap_workloads::point::Point3D;

use super::{mib_per_s, ns_per_op, seq_pass};

const POINTS: usize = 16 * MIB as usize / Point3D::SIZE;
const CHUNK: usize = 2048;

pub fn probe() -> Vec<(&'static str, f64)> {
    let data = generate(HaloParams { n_points: POINTS, ..HaloParams::default() });
    let (points, centroids) = (&data.points, &data.centers);
    let nearest_sum =
        |chunk: &[Point3D]| chunk.iter().map(|pt| pt.nearest_centroid(centroids).1).sum::<f32>();
    let plain_ns = ns_per_op(|| {
        std::hint::black_box(points.chunks(CHUNK).map(nearest_sum).sum::<f32>());
    });

    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(GIB));
    let rt = Runtime::new(&cluster, RuntimeConfig::memory_only(128 * MIB).with_page_size(64 * KIB));
    let ((mm_ns, bulk_ns), _) = cluster.run_once(|p| {
        let opts = VecOptions::new().len(POINTS as u64).pcache(MIB);
        let v: MmVec<Point3D> = MmVec::open(&rt, p, "mem://probe/points", opts).expect("open");
        let tx = v.tx(p, TxKind::seq(0, v.len()), Access::WriteGlobal).expect("begin fill");
        v.write_slice(p, 0, points).expect("fill");
        tx.end().expect("end fill");
        let mut buf = vec![Point3D::default(); CHUNK];
        let mm_ns = ns_per_op(|| {
            let mut acc = 0.0f32;
            seq_pass(p, &v, &mut buf, |c| acc += nearest_sum(c));
            std::hint::black_box(acc);
        });
        let bulk_ns = ns_per_op(|| {
            seq_pass(p, &v, &mut buf, |c| {
                std::hint::black_box(c[0]);
            })
        });
        (mm_ns, bulk_ns)
    });
    vec![
        ("vector.overhead_vs_plain_x", mm_ns / plain_ns),
        ("vector.bulk_mib_per_s", mib_per_s((POINTS * Point3D::SIZE) as u64, bulk_ns)),
    ]
}
