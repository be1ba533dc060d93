//! `formats`: `read_at`/`write_at` in 64 KiB requests (the page size of
//! `kmeans_seq` and `gs_tiered`) against an `obj://` object and a real
//! file, cycling over 64 MiB.

use megammap_formats::posix::PosixObject;
use megammap_formats::{Backends, DataObject, DataUrl};

use super::{mib_per_s, ns_per_op};

const REQ: usize = 64 << 10;
const SPAN: u64 = 64 << 20;

fn rates(obj: &dyn DataObject) -> (f64, f64) {
    let mut buf = vec![5u8; REQ];
    let mut off = 0u64;
    let write_ns = ns_per_op(|| {
        obj.write_at(off, &buf).expect("write_at");
        off = (off + REQ as u64) % SPAN;
    });
    let read_ns = ns_per_op(|| {
        std::hint::black_box(obj.read_at(off, &mut buf).expect("read_at"));
        off = (off + REQ as u64) % SPAN;
    });
    (mib_per_s(REQ as u64, read_ns), mib_per_s(REQ as u64, write_ns))
}

pub fn probe() -> Vec<(&'static str, f64)> {
    let backends = Backends::new();
    let obj = backends
        .open(&DataUrl::parse("obj://probe/object").expect("static url"))
        .expect("open obj://");
    obj.write_at(0, &vec![0u8; SPAN as usize]).expect("size the object");
    let (obj_read, obj_write) = rates(obj.as_ref());

    let dir = crate::out_dir().join(format!("probe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create probe dir");
    let file = PosixObject::open(dir.join("file.bin")).expect("create probe file");
    file.write_at(0, &vec![0u8; SPAN as usize]).expect("size the file");
    let (file_read, file_write) = rates(&file);
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        ("formats.obj_read_mib_per_s", obj_read),
        ("formats.obj_write_mib_per_s", obj_write),
        ("formats.file_read_mib_per_s", file_read),
        ("formats.file_write_mib_per_s", file_write),
    ]
}
