//! Layer probes: stand-alone timing loops over the plain public entry
//! points of one layer each, with request shapes copied from the workload
//! that exercises the layer. Every probe reports the median over
//! [`BATCHES`] batches of at least [`BATCH_NS`] each.

mod cluster;
mod directory;
mod dmsh;
mod formats;
mod journal;
mod pcache;
mod prefetch;
mod sim;
mod telemetry;
mod vector;

use std::time::Instant;

use megammap::prelude::*;
use megammap_cluster::Proc;

use crate::stats;

pub const BATCHES: usize = 11;
pub const BATCH_NS: u128 = 20_000_000;
/// Upper bound on operations per batch, for probes whose state grows with
/// every operation.
const MAX_BATCH_OPS: u64 = 1 << 22;

/// Median wall nanoseconds of one `op`. `fresh` builds the state a batch
/// runs on and is not timed; the batch length is calibrated once, on a
/// state of its own, so that a batch lasts at least [`BATCH_NS`].
pub fn ns_per_op_on<S>(
    max_ops: u64,
    mut fresh: impl FnMut() -> S,
    mut op: impl FnMut(&mut S),
) -> f64 {
    let mut n = 1u64;
    loop {
        let mut s = fresh();
        let t = Instant::now();
        for _ in 0..n {
            op(&mut s);
        }
        if t.elapsed().as_nanos() >= BATCH_NS || n >= max_ops {
            break;
        }
        n = (n * 2).min(max_ops);
    }
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut s = fresh();
            let t = Instant::now();
            for _ in 0..n {
                op(&mut s);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&per_op)
}

/// [`ns_per_op_on`] for operations that keep their state across batches.
pub fn ns_per_op(mut op: impl FnMut()) -> f64 {
    ns_per_op_on(MAX_BATCH_OPS, || (), |()| op())
}

/// One sequential read-only pass over `v` in chunks of `buf.len()`.
pub fn seq_pass<T: Element>(p: &Proc, v: &MmVec<T>, buf: &mut [T], mut each: impl FnMut(&[T])) {
    let tx = v.tx(p, TxKind::seq(0, v.len()), Access::ReadOnly).expect("begin sweep tx");
    let mut i = 0;
    while i < v.len() {
        let n = buf.len().min((v.len() - i) as usize);
        v.read_into(p, i, &mut buf[..n]).expect("sweep read");
        each(&buf[..n]);
        i += n as u64;
    }
    tx.end().expect("end sweep tx");
}

pub fn mib_per_s(bytes_per_op: u64, ns_per_op: f64) -> f64 {
    bytes_per_op as f64 / (1024.0 * 1024.0) / (ns_per_op / 1e9)
}

/// A layer's probe: metric names with their values.
type Probe = fn() -> Vec<(&'static str, f64)>;

/// Every probe metric, by name.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let probes: [(&str, Probe); 10] = [
        ("vector", vector::probe),
        ("pcache", pcache::probe),
        ("prefetch", prefetch::probe),
        ("directory", directory::probe),
        ("dmsh", dmsh::probe),
        ("journal", journal::probe),
        ("formats", formats::probe),
        ("sim", sim::probe),
        ("cluster", cluster::probe),
        ("telemetry", telemetry::probe),
    ];
    let mut out = Vec::new();
    for (layer, probe) in probes {
        let t = Instant::now();
        out.extend(probe());
        eprintln!("probe {layer}: {:.2} s", t.elapsed().as_secs_f64());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_times_the_operation_not_the_state() {
        let mut built = 0;
        let ns = ns_per_op_on(
            1 << 20,
            || {
                built += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
                0u64
            },
            |x| *x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1)),
        );
        assert!(built > BATCHES, "one state per batch plus calibration");
        assert!(ns > 0.0 && ns < 1000.0, "{ns} ns for a multiply-add");
    }

    #[test]
    fn throughput_units() {
        assert_eq!(mib_per_s(1 << 20, 1e9), 1.0);
        assert_eq!(mib_per_s(64 << 10, 1e9 / 16.0), 1.0);
    }
}
