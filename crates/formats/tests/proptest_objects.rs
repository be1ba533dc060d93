//! Property tests: every `DataObject` implementation must behave like a
//! plain growable byte vector under arbitrary interleavings of ranged
//! reads, writes and truncations.

use std::sync::atomic::{AtomicU64, Ordering};

use megammap_formats::h5lite::H5File;
use megammap_formats::object::{read_all, DataObject, MemObject};
use megammap_formats::posix::PosixObject;
use megammap_formats::DType;
use proptest::prelude::*;

/// The operations the model exercises.
#[derive(Debug, Clone)]
enum Op {
    Write { off: u64, data: Vec<u8> },
    Read { off: u64, len: usize },
    SetLen { len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..2000, proptest::collection::vec(any::<u8>(), 1..200))
            .prop_map(|(off, data)| Op::Write { off, data }),
        (0u64..2500, 0usize..300).prop_map(|(off, len)| Op::Read { off, len }),
        (0u64..2500).prop_map(|len| Op::SetLen { len }),
    ]
}

/// Drive an object and a `Vec<u8>` model through the same ops; all reads
/// and the final contents must agree.
fn check_object(obj: &dyn DataObject, ops: &[Op]) {
    let mut model: Vec<u8> = Vec::new();
    for op in ops {
        match op {
            Op::Write { off, data } => {
                obj.write_at(*off, data).unwrap();
                let end = *off as usize + data.len();
                if end > model.len() {
                    model.resize(end, 0);
                }
                model[*off as usize..end].copy_from_slice(data);
            }
            Op::Read { off, len } => {
                let mut buf = vec![0u8; *len];
                let n = obj.read_at(*off, &mut buf).unwrap();
                let expect: &[u8] = if (*off as usize) < model.len() {
                    &model[*off as usize..model.len().min(*off as usize + len)]
                } else {
                    &[]
                };
                assert_eq!(n, expect.len(), "read length at {off}+{len}");
                assert_eq!(&buf[..n], expect, "read contents at {off}");
            }
            Op::SetLen { len } => {
                obj.set_len(*len).unwrap();
                model.resize(*len as usize, 0);
            }
        }
        assert_eq!(obj.len().unwrap(), model.len() as u64, "length agreement");
    }
    let mut all = vec![0u8; model.len()];
    let n = obj.read_at(0, &mut all).unwrap();
    assert_eq!(n, model.len());
    assert_eq!(all, model, "final contents");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mem_object_is_a_byte_vector(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        check_object(&MemObject::new(), &ops);
    }

    #[test]
    fn h5lite_dataset_is_a_byte_vector(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let file = H5File::create(Box::new(MemObject::new())).unwrap();
        let dset = file.create_dataset("prop/data", DType::U8, 0).unwrap();
        check_object(&dset, &ops);
    }

    #[test]
    fn h5lite_survives_flush_reopen(ops in proptest::collection::vec(op_strategy(), 1..20)) {
        let backing = MemObject::new();
        let mut model: Vec<u8> = Vec::new();
        {
            let file = H5File::create(Box::new(backing.clone())).unwrap();
            let dset = file.create_dataset("d", DType::U8, 0).unwrap();
            for op in &ops {
                if let Op::Write { off, data } = op {
                    dset.write_at(*off, data).unwrap();
                    let end = *off as usize + data.len();
                    if end > model.len() {
                        model.resize(end, 0);
                    }
                    model[*off as usize..end].copy_from_slice(data);
                }
            }
            file.flush().unwrap();
        }
        let file = H5File::open(Box::new(backing)).unwrap();
        let dset = file.dataset("d").unwrap();
        let mut all = vec![0u8; model.len()];
        dset.read_at(0, &mut all).unwrap();
        prop_assert_eq!(all, model);
    }
}

/// Operations on a file-backed object. Writes carry a length rather than
/// bytes, so megabyte writes stay cheap to generate (the bytes come from
/// the step number); `Adjacent`, `Overlap`, `PastEof` and `ReadLast` are
/// placed relative to the previous write or the current end at run time.
#[derive(Debug, Clone)]
enum FileOp {
    Write { off: u64, len: usize },
    Adjacent { len: usize },
    Overlap { shift: u64, len: usize },
    PastEof { gap: u64, len: usize },
    Read { off: u64, len: usize },
    ReadLast { len: usize },
    Len,
    SetLen { len: u64 },
    Flush,
}

/// The write-behind buffer's extent cap (`posix.rs`): writes at least
/// this large go straight to the file.
const EXTENT_CAP: usize = 1 << 20;

/// Mostly near the start, so pieces crowd into shared extents.
fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..(64 << 10), 0u64..(64 << 10), 0u64..(3 << 20)]
}

fn write(
    off: impl Strategy<Value = u64> + 'static,
    len: impl Strategy<Value = usize> + 'static,
) -> impl Strategy<Value = FileOp> {
    (off, len).prop_map(|(off, len)| FileOp::Write { off, len })
}

fn file_op_strategy() -> impl Strategy<Value = FileOp> {
    let small = || 1usize..64;
    prop_oneof![
        write(offset(), small()),
        write(offset(), small()),
        write(offset(), small()),
        write(0u64..(2 << 20), 1usize..(256 << 10)),
        write(0u64..(2 << 20), EXTENT_CAP..EXTENT_CAP + 5000),
        small().prop_map(|len| FileOp::Adjacent { len }),
        (0u64..48, small()).prop_map(|(shift, len)| FileOp::Overlap { shift, len }),
        (0u64..40_000, small()).prop_map(|(gap, len)| FileOp::PastEof { gap, len }),
        (offset(), 0usize..(64 << 10)).prop_map(|(off, len)| FileOp::Read { off, len }),
        (0usize..200).prop_map(|len| FileOp::ReadLast { len }),
        (0usize..200).prop_map(|len| FileOp::ReadLast { len }),
        Just(FileOp::Len),
        (0u64..(3 << 20)).prop_map(|len| FileOp::SetLen { len }),
        Just(FileOp::Flush),
    ]
}

fn fill(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add((i as u8).wrapping_mul(31)) | 1).collect()
}

/// The file's bytes, read behind the object's back and through a fresh
/// handle, must both be the oracle's.
fn assert_on_disk(path: &std::path::Path, oracle: &MemObject, when: &str) {
    let want = oracle.to_vec();
    assert!(std::fs::read(path).unwrap() == want, "std::fs::read after {when}");
    let fresh = PosixObject::open_existing(path).unwrap();
    assert!(read_all(&fresh).unwrap() == want, "fresh handle after {when}");
}

/// Drive a [`PosixObject`] and a [`MemObject`] oracle through `ops`.
fn check_posix(ops: &[FileOp]) {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("mm-posix-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case-{}.bin", CASE.fetch_add(1, Ordering::Relaxed)));
    std::fs::remove_file(&path).ok();
    let obj = PosixObject::open(&path).unwrap();
    let oracle = MemObject::new();
    let (mut last_off, mut last_len) = (0u64, 0u64);
    for (step, op) in ops.iter().enumerate() {
        let write = |off: u64, len: usize| (off, fill(len, step as u8));
        let w = match *op {
            FileOp::Write { off, len } => Some(write(off, len)),
            FileOp::Adjacent { len } => Some(write(last_off + last_len, len)),
            FileOp::Overlap { shift, len } => Some(write(last_off.saturating_sub(24) + shift, len)),
            FileOp::PastEof { gap, len } => Some(write(oracle.len().unwrap() + gap, len)),
            _ => None,
        };
        let read = match *op {
            FileOp::Read { off, len } => Some((off, len)),
            FileOp::ReadLast { len } => Some((last_off, len)),
            _ => None,
        };
        if let Some((off, data)) = w {
            obj.write_at(off, &data).unwrap();
            oracle.write_at(off, &data).unwrap();
            (last_off, last_len) = (off, data.len() as u64);
        } else if let Some((off, len)) = read {
            let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
            let n = obj.read_at(off, &mut got).unwrap();
            assert_eq!(n, oracle.read_at(off, &mut want).unwrap(), "read length at {off}+{len}");
            assert!(got[..n] == want[..n], "read contents at {off}+{len}");
        } else {
            match *op {
                FileOp::Len => assert_eq!(obj.len().unwrap(), oracle.len().unwrap(), "len"),
                FileOp::SetLen { len } => {
                    obj.set_len(len).unwrap();
                    oracle.set_len(len).unwrap();
                }
                FileOp::Flush => {
                    obj.flush().unwrap();
                    assert_on_disk(&path, &oracle, "flush");
                }
                _ => unreachable!("writes and reads are handled above"),
            }
        }
    }
    drop(obj);
    assert_on_disk(&path, &oracle, "drop");
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn posix_write_behind_matches_mem_object(
        ops in proptest::collection::vec(file_op_strategy(), 1..60)
    ) {
        check_posix(&ops);
    }
}

#[test]
fn multi_object_is_a_byte_vector_for_writes_in_range() {
    // MultiObject can't grow members in the middle, so exercise it with
    // in-range traffic deterministically.
    use megammap_formats::multi::MultiObject;
    let members: Vec<Box<dyn DataObject>> = (0..3)
        .map(|_| Box::new(MemObject::from_vec(vec![0u8; 100])) as Box<dyn DataObject>)
        .collect();
    let multi = MultiObject::new(members).unwrap();
    let mut model = vec![0u8; 300];
    let mut seed = 12345u64;
    for _ in 0..200 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let off = (seed >> 8) % 280;
        let len = 1 + ((seed >> 40) % 20) as usize;
        let byte = (seed >> 16) as u8;
        let data = vec![byte; len.min(300 - off as usize)];
        multi.write_at(off, &data).unwrap();
        model[off as usize..off as usize + data.len()].copy_from_slice(&data);
    }
    let mut all = vec![0u8; 300];
    multi.read_at(0, &mut all).unwrap();
    assert_eq!(all, model);
}
