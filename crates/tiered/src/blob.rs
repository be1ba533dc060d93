//! Blob identity and metadata.

use megammap_sim::{SimTime, TierKind};

/// Identifies one blob: a bucket (e.g. a MegaMmap vector) and a blob index
/// within it (e.g. a page number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobId {
    /// Bucket (vector) identifier.
    pub bucket: u64,
    /// Blob (page) index within the bucket.
    pub blob: u64,
}

impl BlobId {
    /// Shorthand constructor.
    pub fn new(bucket: u64, blob: u64) -> Self {
        Self { bucket, blob }
    }
}

impl std::fmt::Display for BlobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.bucket, self.blob)
    }
}

/// Placement and scoring state for one resident blob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlobMeta {
    /// Index of the tier currently holding the blob (0 = fastest).
    pub tier: usize,
    /// The kind of that tier.
    pub tier_kind: TierKind,
    /// Size in bytes.
    pub size: u64,
    /// Importance score in `[0, 1]` — "a number between 0 and 1
    /// representing the priority of a memory page" (paper §III-B).
    pub score: f32,
    /// Tenant retention priority of the owning bucket (mm-serve QoS):
    /// victim selection and displacement compare priority before score, so
    /// interactive tenants keep DRAM while batch work is demoted first.
    pub priority: u8,
    /// Node that set the score most recently (locality hint).
    pub score_node: usize,
    /// Virtual time the score was last updated.
    pub scored_at: SimTime,
    /// Virtual time the blob's content becomes valid (in-flight writes).
    pub ready_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_by_bucket_then_blob() {
        let a = BlobId::new(1, 9);
        let b = BlobId::new(2, 0);
        let c = BlobId::new(2, 1);
        assert!(a < b && b < c);
        assert_eq!(format!("{a}"), "1#9");
    }
}
