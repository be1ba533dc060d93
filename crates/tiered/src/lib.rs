//! # megammap-tiered — hierarchical blob buffering over the DMSH
//!
//! MegaMmap "utilizes Hermes, which is a hierarchical buffering platform, to
//! provide basic infrastructure for enacting data movement policies and
//! provide metadata management to locate data in the DMSH". This crate is
//! the from-scratch Hermes equivalent:
//!
//! * [`blob`] — blob identifiers and per-blob metadata (tier, score).
//! * [`rangeset`] — sorted, coalescing byte-range sets: the pcache's
//!   copy-on-write diff tracker and the entries of the DMSH dirty index.
//! * [`dmsh`] — the per-node Deep Memory and Storage Hierarchy: an ordered
//!   stack of tiers (DRAM → CXL → NVMe → SSD → HDD), each a device model
//!   (`megammap-sim`) plus real byte storage. Placement puts blobs in the
//!   fastest tier with room; low-score blobs are demoted downward to make
//!   space for higher-scoring data, and `organize()` runs the periodic
//!   demote/promote pass the paper's Data Organizer performs.
//!
//! All byte movement is real (blobs physically live in per-tier stores);
//! device time is charged on the tier's busy-until timeline, which is how
//! asynchronous demotion overlaps with application compute in the
//! reproduction of Figs. 6–8.

pub mod blob;
pub mod dmsh;
pub mod rangeset;

pub use blob::{BlobId, BlobMeta};
pub use dmsh::{Dmsh, DmshError, PutOutcome};
pub use rangeset::RangeSet;
