//! Shared by the DMSH integration tests.

use megammap_telemetry::TraceCtx;
use megammap_tiered::{BlobId, Dmsh, DmshError, RangeSet};

/// One `put_ranges` commit: a page image carrying `fill` over each of
/// `ranges`.
pub fn patch(
    d: &Dmsh,
    now: u64,
    id: BlobId,
    ranges: &[(u64, u64)],
    fill: u8,
) -> Result<u64, DmshError> {
    let end = ranges.iter().map(|r| r.1).max().unwrap_or(0);
    let mut set = RangeSet::new();
    for &(s, e) in ranges {
        set.insert(s, e);
    }
    d.put_ranges(now, id, &vec![fill; end as usize], &set, TraceCtx::NONE)
}
