//! Integration tests spanning the whole stack: cluster + runtime + vector
//! + formats + tiering, exercised together the way an application would.

use mega_mmap::formats::DataObject;
use mega_mmap::prelude::*;

fn fixture(nodes: usize, procs: usize) -> (Cluster, Runtime) {
    let cluster = Cluster::new(ClusterSpec::new(nodes, procs).dram_per_node(1 << 30));
    let rt = Runtime::new(&cluster, RuntimeConfig::default().with_page_size(4096));
    (cluster, rt)
}

#[test]
fn hdf5_backed_vector_full_cycle() {
    // Create an h5lite container on disk through the DSM, write via the
    // DSM, flush, then reopen the container with the format API directly.
    let dir = std::env::temp_dir().join(format!("mm-int-h5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.h5");
    let url = format!("hdf5://{}:grp", path.display());

    let (cluster, rt) = fixture(1, 2);
    let rt2 = rt.clone();
    let url2 = url.clone();
    cluster.run(move |p| {
        let v: MmVec<f64> = MmVec::open(&rt2, p, &url2, VecOptions::new().len(1000)).unwrap();
        v.pgas(p, p.rank(), p.nprocs());
        let r = v.local_range();
        let tx = v.tx_begin(p, TxKind::seq(r.start, r.end - r.start), Access::WriteLocal);
        for i in v.local_range() {
            v.store(p, &tx, i, i as f64 * 0.25);
        }
        v.tx_end(p, tx);
        p.world().barrier(p);
        if p.rank() == 0 {
            v.flush_wait(p).unwrap();
        }
        p.world().barrier(p);
    });

    // Reopen with the raw format API: the dataset exists and holds the data.
    let f = mega_mmap::formats::h5lite::H5File::open(Box::new(
        mega_mmap::formats::posix::PosixObject::open_existing(&path).unwrap(),
    ))
    .unwrap();
    let d = f.dataset("grp").unwrap();
    assert_eq!(d.len().unwrap(), 8000);
    let mut buf = [0u8; 8];
    d.read_at(8 * 500, &mut buf).unwrap();
    assert_eq!(f64::from_le_bytes(buf), 125.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn glob_multifile_dataset_as_one_vector() {
    // "multiple data objects ... can be mapped as a single uniform vector
    // via a regex query such as file:///path/to/dataset.parquet*".
    let dir = std::env::temp_dir().join(format!("mm-int-glob-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for part in 0..4u8 {
        let bytes: Vec<u8> = (0..1000u32).map(|i| part.wrapping_add(i as u8)).collect();
        std::fs::write(dir.join(format!("part.{part}.bin")), bytes).unwrap();
    }
    let url = format!("file://{}/part.*.bin", dir.display());

    let (cluster, rt) = fixture(1, 1);
    let rt2 = rt.clone();
    let (outs, _) = cluster.run(move |p| {
        let v: MmVec<u8> = MmVec::open(&rt2, p, &url, VecOptions::new()).unwrap();
        assert_eq!(v.len(), 4000, "four files concatenated");
        let tx = v.tx_begin(p, TxKind::seq(0, v.len()), Access::ReadOnly);
        // Element 1000 is the first byte of part 1.
        let a = v.load(p, &tx, 1000);
        // Element 2500 is byte 500 of part 2.
        let b = v.load(p, &tx, 2500);
        v.tx_end(p, tx);
        (a, b)
    });
    assert_eq!(outs[0].0, 1);
    assert_eq!(outs[0].1, 2u8.wrapping_add(244));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runtime_from_yaml_deployment_file() {
    let yaml = "
page_size: 8192
default_pcache: 262144
workers_low: 1
workers_high: 1
tiers:
  - kind: dram
    capacity: 1048576
  - kind: nvme
    capacity: 8388608
";
    let cfg = RuntimeConfig::from_yaml(yaml).unwrap();
    let cluster = Cluster::new(ClusterSpec::new(1, 1));
    let rt = Runtime::new(&cluster, cfg);
    assert_eq!(rt.cfg().page_size, 8192);
    assert_eq!(rt.cfg().tiers.len(), 2);
    let rt2 = rt.clone();
    cluster.run(move |p| {
        let v: MmVec<u32> = MmVec::open(&rt2, p, "mem://yaml", VecOptions::new().len(10)).unwrap();
        assert_eq!(v.page_size(), 8192);
        let tx = v.tx_begin(p, TxKind::seq(0, 10), Access::ReadWriteGlobal);
        v.store(p, &tx, 3, 33);
        assert_eq!(v.load(p, &tx, 3), 33);
        v.tx_end(p, tx);
    });
}

#[test]
fn tiering_spills_when_dram_tier_is_tiny() {
    // A vector larger than the DRAM tier must end up partially on NVMe —
    // and still read back correctly.
    let cluster = Cluster::new(ClusterSpec::new(1, 1).dram_per_node(1 << 30));
    let cfg = RuntimeConfig::default().with_page_size(4096).with_tiers(vec![
        mega_mmap::sim::DeviceSpec::dram(16 * 4096),
        mega_mmap::sim::DeviceSpec::nvme(1 << 22),
    ]);
    let rt = Runtime::new(&cluster, cfg);
    let rt2 = rt.clone();
    cluster.run(move |p| {
        let n = 64 * 4096 / 8; // 64 pages of u64s, 4x the DRAM tier
        let v: MmVec<u64> =
            MmVec::open(&rt2, p, "mem://spill", VecOptions::new().len(n).pcache(8 * 4096)).unwrap();
        let tx = v.tx_begin(p, TxKind::seq(0, n), Access::WriteGlobal);
        for i in 0..n {
            v.store(p, &tx, i, i * 31);
        }
        v.tx_end(p, tx);
        let tx = v.tx_begin(p, TxKind::seq(0, n), Access::ReadOnly);
        for i in (0..n).step_by(97) {
            assert_eq!(v.load(p, &tx, i), i * 31);
        }
        v.tx_end(p, tx);
    });
    // NVMe tier really holds data.
    let usage = rt.node(0).dmsh.tier_usage();
    let nvme_used = usage
        .iter()
        .find(|(k, _, _)| *k == mega_mmap::sim::TierKind::Nvme)
        .map(|(_, used, _)| *used)
        .unwrap();
    assert!(nvme_used > 0, "overflow must reach the NVMe tier: {usage:?}");
    // And the DRAM tier is within its capacity.
    let (_, dram_used, dram_cap) = usage[0];
    assert!(dram_used <= dram_cap);
}

#[test]
fn obj_store_stager_round_trip_with_trim() {
    // Appends grow page-granularly; the stager must trim the backend to
    // the logical length.
    let (cluster, rt) = fixture(1, 1);
    let rt2 = rt.clone();
    cluster.run(move |p| {
        let v: MmVec<u16> = MmVec::open(&rt2, p, "obj://it/app.bin", VecOptions::new()).unwrap();
        let tx = v.tx_begin(p, TxKind::append(0), Access::AppendGlobal);
        for k in 0..777u16 {
            v.append(p, &tx, k);
        }
        v.tx_end(p, tx);
        v.flush_wait(p).unwrap();
    });
    let obj = rt
        .backends()
        .open(&mega_mmap::formats::DataUrl::parse("obj://it/app.bin").unwrap())
        .unwrap();
    assert_eq!(obj.len().unwrap(), 777 * 2, "backend trimmed to logical length");
}

/// A fresh directory under the system temp dir for one test's files.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mm-int-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn le_bytes(vals: &[u64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// 64 pages of `u64` in a file.
const FILE_ELEMS: u64 = 64 * 4096 / 8;

/// Open (or attach to) the `file://` vector at `url`; a small pcache so
/// random updates also commit through evictions.
fn file_vector(rt: &Runtime, p: &Proc, url: &str) -> MmVec<u64> {
    let v = MmVec::open(rt, p, url, VecOptions::new().pcache(4 * 4096).no_prefetch()).unwrap();
    assert_eq!(v.len(), FILE_ELEMS, "length comes from the file");
    v
}

#[test]
fn file_vector_random_updates_reach_the_file() {
    // Seeded 8-byte read-modify-writes over several stage intervals: the
    // background passes stage them as scattered sub-page ranges, and after
    // `flush_wait` the file holds exactly what a plain Vec holds.
    let dir = scratch_dir("rmw");
    let path = dir.join("rmw.bin");
    let mut oracle: Vec<u64> = (0..FILE_ELEMS).map(|i| i * 3).collect();
    std::fs::write(&path, le_bytes(&oracle)).unwrap();
    let url = format!("file://{}", path.display());

    let (cluster, rt) = fixture(1, 1);
    let interval = rt.cfg().stage_interval_ns;
    let (staged_before_flush, _) = cluster.run_once(|p| {
        let v = file_vector(&rt, p, &url);
        let mut x = 0x5EED_u64;
        for round in 0..6 {
            let tx = v.tx(p, TxKind::rand(round, 0, FILE_ELEMS), Access::ReadWriteGlobal).unwrap();
            for _ in 0..150 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let i = (x >> 33) % FILE_ELEMS;
                let old = v.load(p, tx.handle(), i);
                assert_eq!(old, oracle[i as usize], "element {i} in round {round}");
                oracle[i as usize] = old.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
                v.store(p, tx.handle(), i, oracle[i as usize]);
            }
            tx.end().unwrap();
            p.advance(interval + 1);
        }
        let staged = rt.stats().staged_out;
        v.flush_wait(p).unwrap();
        staged
    });
    assert!(staged_before_flush > 0, "background passes staged ranges before the flush");
    assert!(std::fs::read(&path).unwrap() == le_bytes(&oracle), "file bytes equal the oracle");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_staged_bytes_survive_a_runtime_dropped_without_flush() {
    // A background pass makes its ranges visible, not durable. A runtime
    // dropped without any flush must still leave them in the file for the
    // next runtime over the same path.
    let dir = scratch_dir("bgdrop");
    let path = dir.join("bg.bin");
    let mut want: Vec<u64> = (0..FILE_ELEMS).map(|i| !i).collect();
    std::fs::write(&path, le_bytes(&want)).unwrap();
    let url = format!("file://{}", path.display());

    {
        let (cluster, rt) = fixture(1, 1);
        let interval = rt.cfg().stage_interval_ns;
        cluster.run_once(|p| {
            let v = file_vector(&rt, p, &url);
            let update = |elems: &[u64]| {
                let tx = v.tx(p, TxKind::seq(0, FILE_ELEMS), Access::ReadWriteGlobal).unwrap();
                for &i in elems {
                    v.store(p, tx.handle(), i, i * 1000 + 1);
                }
                tx.end().unwrap();
            };
            // One element on every fourth page, then the interval elapses
            // and the next commit runs a background pass over all of them.
            let first: Vec<u64> = (0..FILE_ELEMS).step_by(4 * 512 + 8).collect();
            update(&first);
            let staged = rt.stats().staged_out;
            p.advance(interval + 1);
            update(&[FILE_ELEMS - 1]);
            assert_eq!(rt.stats().staged_out - staged, 8 * (first.len() as u64 + 1));
            for &i in first.iter().chain([FILE_ELEMS - 1].iter()) {
                want[i as usize] = i * 1000 + 1;
            }
        });
        // No flush_wait, no shutdown: the runtime just goes away.
    }

    let (cluster, rt) = fixture(1, 1);
    let (got, _) = cluster.run_once(|p| {
        let v = file_vector(&rt, p, &url);
        let mut got = vec![0u64; FILE_ELEMS as usize];
        v.read_into(p, 0, &mut got).unwrap();
        got
    });
    assert!(got == want, "every byte a background pass staged is visible after the drop");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn many_vectors_coexist() {
    let (cluster, rt) = fixture(2, 2);
    let rt2 = rt.clone();
    cluster.run(move |p| {
        let vs: Vec<MmVec<u64>> = (0..8)
            .map(|k| {
                MmVec::open(&rt2, p, &format!("mem://multi-{k}"), VecOptions::new().len(256))
                    .unwrap()
            })
            .collect();
        for (k, v) in vs.iter().enumerate() {
            let tx = v.tx_begin(p, TxKind::seq(0, 256), Access::ReadWriteGlobal);
            v.store(p, &tx, p.rank() as u64, k as u64 * 100);
            assert_eq!(v.load(p, &tx, p.rank() as u64), k as u64 * 100);
            v.tx_end(p, tx);
        }
        p.world().barrier(p);
        // Cross-check a neighbour's element in vector 3.
        let other = (p.rank() + 1) % p.nprocs();
        let tx = vs[3].tx_begin(p, TxKind::seq(0, 256), Access::ReadOnly);
        assert_eq!(vs[3].load(p, &tx, other as u64), 300);
        vs[3].tx_end(p, tx);
    });
}
