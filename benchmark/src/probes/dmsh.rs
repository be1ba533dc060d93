//! `dmsh`: reads and in-place overwrites of resident 16 KiB blobs on a DRAM
//! tier that fits them (`rand_read`), puts into a full 16 MiB DRAM tier
//! over NVMe that each force a demotion (`rand_update`, `gs_tiered`), and
//! the organizer pass over a settled population.

use bytes::Bytes;
use megammap_sim::{DeviceSpec, MIB};
use megammap_tiered::{BlobId, Dmsh};

use super::{ns_per_op, ns_per_op_on};
use crate::workloads::Rng;

const BLOB: usize = 16 << 10;
const RESIDENT: u64 = 8192;
/// Blobs the 16 MiB DRAM tier holds.
const DRAM_BLOBS: u64 = 16 * MIB / BLOB as u64;
/// Fresh puts one NVMe tier of 512 MiB can absorb.
const MAX_FRESH_PUTS: u64 = 24 * 1024;

pub fn probe() -> Vec<(&'static str, f64)> {
    let data = Bytes::from(vec![7u8; BLOB]);
    let fits = Dmsh::new("probe", vec![DeviceSpec::dram(256 * MIB)]);
    for i in 0..RESIDENT {
        fits.put(0, BlobId::new(1, i), data.clone(), 0.5, 0, false).expect("fits DRAM");
    }
    let mut rng = Rng(2);
    let mut now = 0u64;
    let get_ns = ns_per_op(|| {
        now += 1000;
        std::hint::black_box(
            fits.get(now, BlobId::new(1, rng.below(RESIDENT))).expect("resident").0.len(),
        );
    });
    let put_ns = ns_per_op(|| {
        now += 1000;
        let id = BlobId::new(1, rng.below(RESIDENT));
        std::hint::black_box(fits.put(now, id, data.clone(), 0.5, 0, true).expect("overwrite"));
    });

    let put_evict_ns = ns_per_op_on(
        MAX_FRESH_PUTS,
        || {
            let d =
                Dmsh::new("probe", vec![DeviceSpec::dram(16 * MIB), DeviceSpec::nvme(512 * MIB)]);
            for i in 0..DRAM_BLOBS {
                d.put(0, BlobId::new(1, i), data.clone(), 0.5, 0, true).expect("fill DRAM");
            }
            (d, DRAM_BLOBS)
        },
        |(d, next)| {
            // A fresh, higher-scored blob: the coldest resident is demoted.
            std::hint::black_box(
                d.put(*next, BlobId::new(1, *next), data.clone(), 1.0, 0, true)
                    .expect("room on NVMe"),
            );
            *next += 1;
        },
    );

    let settled = Dmsh::new("probe", vec![DeviceSpec::dram(16 * MIB), DeviceSpec::nvme(512 * MIB)]);
    for i in 0..4096 {
        settled
            .put(0, BlobId::new(1, i), data.clone(), (i % 10) as f32 / 10.0, 0, false)
            .expect("place");
    }
    let mut t = 1u64;
    let organize_ns = ns_per_op(|| {
        t += 1;
        std::hint::black_box(settled.organize(t, 0.9));
    });
    vec![
        ("dmsh.get_ns", get_ns),
        ("dmsh.put_ns", put_ns),
        ("dmsh.put_evict_ns", put_evict_ns),
        ("dmsh.organize_ns", organize_ns),
    ]
}
