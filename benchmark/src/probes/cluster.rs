//! `cluster`: wall cost of a barrier and of a small allreduce between two
//! processes on two nodes (`share_2node`, `gs_tiered`). Both ranks run the
//! same fixed number of collectives per batch; rank 0's clock is reported.

use std::time::Instant;

use megammap_cluster::comm::ReduceOp;
use megammap_cluster::{Cluster, ClusterSpec};

use super::BATCHES;
use crate::stats;

/// Collectives per batch: ≥ 20 ms at the ≈ 10 µs a parked-thread
/// rendezvous costs, and the same on both ranks by construction.
const PER_BATCH: u32 = 4000;

pub fn probe() -> Vec<(&'static str, f64)> {
    let cluster = Cluster::new(ClusterSpec::new(2, 1));
    let (outs, _) = cluster.run(|p| {
        let world = p.world();
        let time = |f: &dyn Fn()| {
            let us: Vec<f64> = (0..BATCHES)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..PER_BATCH {
                        f();
                    }
                    t.elapsed().as_nanos() as f64 / 1e3 / f64::from(PER_BATCH)
                })
                .collect();
            stats::median(&us)
        };
        let barrier = time(&|| world.barrier(p));
        let allreduce = time(&|| {
            std::hint::black_box(world.allreduce_f64(p, &[1.0, 2.0], ReduceOp::Sum));
        });
        (barrier, allreduce)
    });
    vec![("comm.barrier_wall_us", outs[0].0), ("comm.allreduce_wall_us", outs[0].1)]
}
