//! Access intents and coherence policies (paper Fig. 3).
//!
//! Applications declare *how* a region will be used at `TxBegin`; the DSM
//! picks the coherence behaviour accordingly:
//!
//! * **Read/Write Local** — processes touch non-overlapping regions; caches
//!   are naturally coherent; evictions ship only modified sub-page ranges.
//! * **Read Only Global** — data is never modified; pages may be replicated
//!   into every node's scache (and every pcache) for locality.
//! * **Write/Append Only Global** — ordered asynchronous writer tasks give
//!   consistency; the application only pays a memcpy on eviction.
//! * **Read Write Global** — strong per-page consistency via worker
//!   hashing; multi-page atomicity needs locks/barriers (or bigger pages).
//! * any of the above can be **Collective**, turning page distribution into
//!   a tree like MPICH allgather.

use std::sync::atomic::{AtomicU8, Ordering};

/// Declared access intent for a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Non-overlapping reads (PGAS-partitioned input scan).
    ReadLocal,
    /// Non-overlapping writes (each process owns its partition).
    WriteLocal,
    /// Globally shared, never modified (ML/DL training data).
    ReadOnly,
    /// Globally shared, write-only phase (simulation output).
    WriteGlobal,
    /// Globally shared, append-only phase (k-d tree construction).
    AppendGlobal,
    /// Simultaneous global reads and writes (key-value-store style).
    ReadWriteGlobal,
}

impl Access {
    /// Whether the transaction may read existing data.
    pub fn reads(self) -> bool {
        !matches!(self, Access::WriteLocal | Access::WriteGlobal | Access::AppendGlobal)
    }

    /// Whether the transaction may modify data.
    pub fn writes(self) -> bool {
        !matches!(self, Access::ReadLocal | Access::ReadOnly)
    }

    /// Whether regions are process-private (no cross-process sharing
    /// within the phase).
    pub fn is_local(self) -> bool {
        matches!(self, Access::ReadLocal | Access::WriteLocal)
    }

    /// Whether pages read under this intent may be replicated across nodes.
    pub fn replicable(self) -> bool {
        matches!(self, Access::ReadOnly)
    }

    /// Whether appends are expected.
    pub fn appends(self) -> bool {
        matches!(self, Access::AppendGlobal)
    }
}

/// A vector's current coherence phase, derived from the most recent
/// transaction intents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// No transaction seen yet; conservative (no replication).
    #[default]
    Unknown,
    /// Non-overlapping access phase.
    Local,
    /// Read-only phase — replication allowed.
    ReadOnlyGlobal,
    /// Write/append-only phase — ordered async tasks.
    WriteGlobal,
    /// Mixed read/write phase — per-page strong consistency.
    ReadWriteGlobal,
}

impl Policy {
    /// Number of policy phases (for per-policy counter arrays).
    pub const COUNT: usize = 5;

    /// Every phase, in discriminant order (for per-policy breakdowns).
    pub const ALL: [Policy; Policy::COUNT] = [
        Policy::Unknown,
        Policy::Local,
        Policy::ReadOnlyGlobal,
        Policy::WriteGlobal,
        Policy::ReadWriteGlobal,
    ];

    /// Index into [`Policy::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Policy::index`].
    ///
    /// # Panics
    /// If `index >= Policy::COUNT`.
    pub fn from_index(index: usize) -> Policy {
        Policy::ALL[index]
    }

    /// The phase implied by an access intent.
    pub fn from_access(a: Access) -> Policy {
        match a {
            Access::ReadLocal | Access::WriteLocal => Policy::Local,
            Access::ReadOnly => Policy::ReadOnlyGlobal,
            Access::WriteGlobal | Access::AppendGlobal => Policy::WriteGlobal,
            Access::ReadWriteGlobal => Policy::ReadWriteGlobal,
        }
    }

    /// Whether switching from `self` to the phase of `next` must invalidate
    /// read replicas ("if a region changes from read-only to write-only,
    /// all replicas produced during reads will be invalidated").
    pub fn transition_invalidates(self, next: Access) -> bool {
        self == Policy::ReadOnlyGlobal && next.writes()
    }

    /// Whether replicas are permitted in this phase.
    pub fn replicates(self) -> bool {
        self == Policy::ReadOnlyGlobal
    }

    /// Stable label for telemetry (counter labels, span policies).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Unknown => "Unknown",
            Policy::Local => "Local",
            Policy::ReadOnlyGlobal => "ReadOnlyGlobal",
            Policy::WriteGlobal => "WriteGlobal",
            Policy::ReadWriteGlobal => "ReadWriteGlobal",
        }
    }
}

/// A vector's shared, lock-free [`Policy`] slot.
///
/// The phase is one `Copy` discriminant read on every fault and commit and
/// stored once per transaction begin; no reader ever needs it consistent
/// with anything but itself, so it is an atomic cell, not a lock.
#[derive(Debug, Default)]
pub struct PolicyCell(AtomicU8);

impl PolicyCell {
    /// The current phase.
    pub fn get(&self) -> Policy {
        // Acquire pairs with the Release in `set`: a reader that sees a new
        // phase also sees the replica invalidation that preceded its store.
        Policy::from_index(self.0.load(Ordering::Acquire) as usize)
    }

    /// Enter `policy`.
    pub fn set(&self, policy: Policy) {
        self.0.store(policy.index() as u8, Ordering::Release);
    }
}

/// Service class of a tenant multiplexed over the shared DMSH (mm-serve).
///
/// The class decides *retention priority* under memory pressure: pages of
/// interactive tenants are the last to leave DRAM, batch pages go before
/// them, and background churn (e.g. an offline KMeans job) is demoted
/// first. The class also selects the admission token-bucket parameters in
/// the serving runtime; it never changes coherence semantics — that stays
/// with [`Policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TenantClass {
    /// Latency-sensitive point reads/scans; retains DRAM under pressure.
    Interactive,
    /// Throughput-oriented jobs; demoted before interactive tenants.
    Batch,
    /// Best-effort churn (compaction, offline analytics); evicted first.
    Background,
}

impl TenantClass {
    /// Number of classes (for per-class counter arrays).
    pub const COUNT: usize = 3;

    /// Every class, in declaration order.
    pub const ALL: [TenantClass; TenantClass::COUNT] =
        [TenantClass::Interactive, TenantClass::Batch, TenantClass::Background];

    /// Eviction/placement retention priority: higher values are retained
    /// longer in fast tiers. Untagged (single-tenant) buckets default to
    /// the batch level, so legacy workloads are unaffected by QoS-aware
    /// victim ordering.
    pub fn retention_priority(self) -> u8 {
        match self {
            TenantClass::Interactive => 2,
            TenantClass::Batch => 1,
            TenantClass::Background => 0,
        }
    }

    /// Stable label for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            TenantClass::Interactive => "interactive",
            TenantClass::Batch => "batch",
            TenantClass::Background => "background",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_predicates() {
        assert!(Access::ReadOnly.reads());
        assert!(!Access::ReadOnly.writes());
        assert!(Access::ReadOnly.replicable());
        assert!(Access::WriteLocal.writes());
        assert!(!Access::WriteLocal.reads());
        assert!(Access::WriteLocal.is_local());
        assert!(Access::AppendGlobal.appends());
        assert!(Access::ReadWriteGlobal.reads() && Access::ReadWriteGlobal.writes());
        assert!(!Access::ReadWriteGlobal.is_local());
    }

    #[test]
    fn phase_derivation() {
        assert_eq!(Policy::from_access(Access::ReadLocal), Policy::Local);
        assert_eq!(Policy::from_access(Access::ReadOnly), Policy::ReadOnlyGlobal);
        assert_eq!(Policy::from_access(Access::AppendGlobal), Policy::WriteGlobal);
        assert_eq!(Policy::from_access(Access::ReadWriteGlobal), Policy::ReadWriteGlobal);
    }

    #[test]
    fn read_only_to_write_invalidates() {
        assert!(Policy::ReadOnlyGlobal.transition_invalidates(Access::WriteGlobal));
        assert!(Policy::ReadOnlyGlobal.transition_invalidates(Access::WriteLocal));
        assert!(!Policy::ReadOnlyGlobal.transition_invalidates(Access::ReadOnly));
        assert!(!Policy::Local.transition_invalidates(Access::WriteGlobal));
        assert!(Policy::ReadOnlyGlobal.replicates());
        assert!(!Policy::WriteGlobal.replicates());
    }

    #[test]
    fn tenant_class_priority_order() {
        assert!(
            TenantClass::Interactive.retention_priority() > TenantClass::Batch.retention_priority()
        );
        assert!(
            TenantClass::Batch.retention_priority() > TenantClass::Background.retention_priority()
        );
        for c in TenantClass::ALL {
            assert!(!c.name().is_empty());
        }
    }
}
