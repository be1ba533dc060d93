//! `sim`: the simulator's own tax inside every fault — one reservation on
//! a shared timeline, one device I/O of a 16 KiB page (`rand_read`), one
//! network transfer of a 64 KiB page (`share_2node`).

use megammap_sim::{DeviceModel, DeviceSpec, LinkProfile, NetworkModel, SharedResource, GIB};

use super::ns_per_op;

pub fn probe() -> Vec<(&'static str, f64)> {
    let mut now = 0u64;
    let timeline = SharedResource::new("probe", 2_000, GIB);
    let acquire_ns = ns_per_op(|| {
        now += 100_000;
        std::hint::black_box(timeline.acquire(now, 16 << 10));
    });
    let dram = DeviceModel::new("probe", DeviceSpec::dram(GIB));
    let device_io_ns = ns_per_op(|| {
        now += 100_000;
        std::hint::black_box(dram.io(now, 16 << 10));
    });
    let net = NetworkModel::new(2, LinkProfile::rdma_40g());
    let net_transfer_ns = ns_per_op(|| {
        now += 100_000;
        std::hint::black_box(net.transfer(now, 0, 1, 64 << 10));
    });
    vec![
        ("sim.acquire_ns", acquire_ns),
        ("sim.device_io_ns", device_io_ns),
        ("sim.net_transfer_ns", net_transfer_ns),
    ]
}
