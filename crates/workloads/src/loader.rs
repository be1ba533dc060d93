//! Dataset loading for the **baseline** (non-DSM) applications.
//!
//! This is exactly the code MegaMmap's vector abstraction removes from an
//! application: opening the container format, deserializing records,
//! computing the block partition for this rank, splitting train/test —
//! "in each case, all I/O partitioning, I/O compatibility, and most
//! messaging is removed" (Fig. 4). The MegaMmap variants never call into
//! this module; the Spark/MPI variants (and the Fig. 5 harness driving
//! them) do.

use std::io;
use std::path::Path;

use megammap_cluster::Proc;
use megammap_formats::h5lite::H5File;
use megammap_formats::object::DataObject;
use megammap_formats::posix::PosixObject;
use megammap_formats::pqlite::{PqFile, PqRecords};

use crate::point::Point3D;
use megammap::element::Element as _;

/// The block partition `[lo, hi)` of `n` records for `rank` of `nprocs`.
pub fn block_partition(n: usize, rank: usize, nprocs: usize) -> (usize, usize) {
    (n * rank / nprocs, n * (rank + 1) / nprocs)
}

/// Decode little-endian xyz f32 records from raw bytes.
pub fn decode_points(bytes: &[u8]) -> Vec<Point3D> {
    bytes.chunks_exact(Point3D::SIZE).map(Point3D::read_from).collect()
}

/// Decode little-endian u32 labels from raw bytes.
pub fn decode_labels(bytes: &[u8]) -> Vec<u32> {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("chunked"))).collect()
}

/// Read this rank's partition of a raw binary point file, charging the
/// read + deserialization to the process clock.
pub fn load_points_bin(p: &Proc, path: &Path) -> io::Result<(Vec<Point3D>, u64)> {
    let obj = PosixObject::open_existing(path)?;
    let total = obj.len()? as usize / Point3D::SIZE;
    let (lo, hi) = block_partition(total, p.rank(), p.nprocs());
    let mut buf = vec![0u8; (hi - lo) * Point3D::SIZE];
    obj.read_at((lo * Point3D::SIZE) as u64, &mut buf)?;
    p.advance(p.cpu().serde_ns(buf.len() as u64));
    Ok((decode_points(&buf), lo as u64))
}

/// Read this rank's partition of a raw binary label file.
pub fn load_labels_bin(p: &Proc, path: &Path) -> io::Result<Vec<u32>> {
    let obj = PosixObject::open_existing(path)?;
    let total = obj.len()? as usize / 4;
    let (lo, hi) = block_partition(total, p.rank(), p.nprocs());
    let mut buf = vec![0u8; (hi - lo) * 4];
    obj.read_at((lo * 4) as u64, &mut buf)?;
    p.advance(p.cpu().serde_ns(buf.len() as u64));
    Ok(decode_labels(&buf))
}

/// Read this rank's partition from an h5lite container (Gadget-style
/// `particles/pos` dataset of flat xyz f32).
pub fn load_points_h5(p: &Proc, path: &Path, dataset: &str) -> io::Result<(Vec<Point3D>, u64)> {
    let f = H5File::open(Box::new(PosixObject::open_existing(path)?))?;
    let d = f.dataset(dataset)?;
    let total = d.len()? as usize / Point3D::SIZE;
    let (lo, hi) = block_partition(total, p.rank(), p.nprocs());
    let mut buf = vec![0u8; (hi - lo) * Point3D::SIZE];
    d.read_at((lo * Point3D::SIZE) as u64, &mut buf)?;
    p.advance(p.cpu().serde_ns(buf.len() as u64));
    Ok((decode_points(&buf), lo as u64))
}

/// Read this rank's partition from a pqlite container with x, y, z f32
/// columns (the `points.parquet` of Listing 1) — the column chunks are
/// gathered into row-major records.
pub fn load_points_pq(p: &Proc, path: &Path) -> io::Result<(Vec<Point3D>, u64)> {
    let f = PqFile::open(Box::new(PosixObject::open_existing(path)?))?;
    let recs = PqRecords::new(f);
    let total = recs.len()? as usize / Point3D::SIZE;
    let (lo, hi) = block_partition(total, p.rank(), p.nprocs());
    let mut buf = vec![0u8; (hi - lo) * Point3D::SIZE];
    recs.read_at((lo * Point3D::SIZE) as u64, &mut buf)?;
    p.advance(p.cpu().serde_ns(buf.len() as u64));
    Ok((decode_points(&buf), lo as u64))
}

/// Stratified-ish 80/20 split over a partition: returns (train, test)
/// index vectors relative to the partition, deterministic in the global
/// indices so all processes agree on membership.
pub fn train_test_split(part_base: u64, n: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut train = Vec::with_capacity(n * 4 / 5);
    let mut test = Vec::with_capacity(n / 5);
    for i in 0..n {
        let h = megammap::tx::splitmix64(seed ^ 0x7A ^ (part_base + i as u64));
        if !h.is_multiple_of(5) {
            train.push(i);
        } else {
            test.push(i);
        }
    }
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, HaloParams};
    use megammap_cluster::{Cluster, ClusterSpec};

    /// A directory of the calling test's own: tests run on parallel threads
    /// and each removes its directory when done.
    fn tmpdir(test: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mm-loader-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn partitions_tile_and_are_monotone() {
        let mut end = 0;
        for r in 0..5 {
            let (lo, hi) = block_partition(103, r, 5);
            assert_eq!(lo, end);
            end = hi;
        }
        assert_eq!(end, 103);
    }

    #[test]
    fn bin_loader_partitions_match_source() {
        let d = generate(HaloParams { n_points: 100, ..Default::default() });
        let dir = tmpdir("bin");
        let path = dir.join("pts.bin");
        std::fs::write(&path, d.to_bytes()).unwrap();
        let cluster = Cluster::new(ClusterSpec::new(2, 2).dram_per_node(1 << 30));
        let pts = d.points.clone();
        let (outs, _) = cluster.run(move |p| {
            let (part, base) = load_points_bin(p, &path).unwrap();
            let t0 = p.now();
            assert!(t0 > 0, "loading must cost time");
            (part, base)
        });
        let mut rebuilt: Vec<(Vec<Point3D>, u64)> = outs;
        rebuilt.sort_by_key(|(_, b)| *b);
        let all: Vec<Point3D> = rebuilt.into_iter().flat_map(|(v, _)| v).collect();
        assert_eq!(all, pts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn h5_and_pq_loaders_agree_with_bin() {
        let d = generate(HaloParams { n_points: 64, ..Default::default() });
        let dir = tmpdir("h5-pq");
        let bin = dir.join("a.bin");
        std::fs::write(&bin, d.to_bytes()).unwrap();
        let h5 = dir.join("a.h5");
        d.write_h5(&h5).unwrap();
        let pq = dir.join("a.pq");
        d.write_pq(&pq).unwrap();
        let cluster = Cluster::new(ClusterSpec::new(1, 2).dram_per_node(1 << 30));
        let (outs, _) = cluster.run(move |p| {
            let (a, _) = load_points_bin(p, &bin).unwrap();
            let (b, _) = load_points_h5(p, &h5, "particles/pos").unwrap();
            let (c, _) = load_points_pq(p, &pq).unwrap();
            a == b && b == c
        });
        assert!(outs.iter().all(|&ok| ok));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_is_80_20_and_consistent() {
        let (train, test) = train_test_split(1000, 10_000, 7);
        assert_eq!(train.len() + test.len(), 10_000);
        let rate = train.len() as f64 / 10_000.0;
        assert!((rate - 0.8).abs() < 0.02, "rate {rate}");
        // Same global indices → same membership regardless of partitioning.
        let (train2, _) = train_test_split(1000, 10_000, 7);
        assert_eq!(train, train2);
    }
}
