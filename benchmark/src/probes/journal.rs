//! `journal`: appending one 16 KiB page intent, as a journalled
//! `rand_update` would (no workload enables the journal: it is off in the
//! default configuration).

use megammap::runtime::journal::IntentJournal;
use megammap_formats::Backends;

use super::ns_per_op_on;

/// Appends per batch: bounds the journal object at 256 MiB.
const MAX_APPENDS: u64 = 16 * 1024;

pub fn probe() -> Vec<(&'static str, f64)> {
    let payload = vec![3u8; 16 << 10];
    let append_ns = ns_per_op_on(
        MAX_APPENDS,
        || {
            (
                IntentJournal::open(&Backends::new(), "obj://probe/journal").expect("open journal"),
                0u64,
            )
        },
        |(journal, off)| {
            std::hint::black_box(journal.append(*off, &payload).expect("append"));
            *off += payload.len() as u64;
        },
    );
    vec![("journal.append_ns", append_ns)]
}
