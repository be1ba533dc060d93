//! Debug-build runtime lock-order assertions.
//!
//! The workspace declares one partial order over its long-lived locks
//! (mirrored statically by `mm-lint`'s lock-order rule):
//!
//! ```text
//! VecState < RtMeta < ApplyShard < ApplyVictim < DirShard
//!          < DmshMeta < Mailbox < Resource
//! ```
//!
//! A thread may only acquire a lock whose rank is *strictly greater* than
//! every rank it already holds. Lock sites call [`acquired`] right after
//! taking the lock and keep the returned token alive for as long as the
//! guard; in debug builds an out-of-order acquisition panics with the held
//! stack, in release builds everything compiles to nothing.
//!
//! The static `mm-lint` pass checks nesting *within* one function; this
//! layer is its interprocedural complement — it sees the real call chains,
//! e.g. a `Dmsh::put_ranges` reached while a vector's state lock is held.

/// Ranks of the workspace's long-lived locks, ascending in the order they
/// may be nested. Keep in sync with the `[lockorder]` table in
/// `lint-allow.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LockRank {
    /// `MmVec::state` (pcache + active transaction).
    VecState = 10,
    /// `Runtime` shared maps (`vectors`, staged metadata).
    RtMeta = 30,
    /// A per-page install/patch shard (`ShardRt::apply_lock`).
    ApplyShard = 40,
    /// A *victim* page's apply shard, taken nonblockingly (`try_lock`) by
    /// the emergency drain while the caller may already hold its own
    /// [`ApplyShard`](Self::ApplyShard). The try-lock can never block, so
    /// a higher rank keeps the ascending-order invariant honest without
    /// introducing a deadlock edge.
    ApplyVictim = 45,
    /// A directory slice (`Directory::shards[i]`). Probed by the fault
    /// path before any DMSH lock and by drains that already hold an
    /// apply/victim shard, so it sits between the apply ranks and
    /// [`DmshMeta`](Self::DmshMeta).
    DirShard = 48,
    /// `Dmsh::meta` (the blob records — metadata and bytes — the dirty
    /// index and bucket QoS).
    DmshMeta = 50,
    /// Cluster mailbox / rendezvous queues.
    Mailbox = 70,
    /// `SharedResource::reservations` (leaf; never nests further).
    Resource = 80,
}

impl LockRank {
    /// Every rank, ascending — the key space of the contention profiler.
    pub const ALL: [LockRank; 8] = [
        LockRank::VecState,
        LockRank::RtMeta,
        LockRank::ApplyShard,
        LockRank::ApplyVictim,
        LockRank::DirShard,
        LockRank::DmshMeta,
        LockRank::Mailbox,
        LockRank::Resource,
    ];

    /// Stable name used as the `lock` label on profiler metrics.
    pub const fn name(self) -> &'static str {
        match self {
            LockRank::VecState => "VecState",
            LockRank::RtMeta => "RtMeta",
            LockRank::ApplyShard => "ApplyShard",
            LockRank::ApplyVictim => "ApplyVictim",
            LockRank::DirShard => "DirShard",
            LockRank::DmshMeta => "DmshMeta",
            LockRank::Mailbox => "Mailbox",
            LockRank::Resource => "Resource",
        }
    }
}

#[cfg(debug_assertions)]
mod imp {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// `(serial, rank)` of every lock this thread holds, in
        /// acquisition order.
        static HELD: RefCell<(u64, Vec<(u64, LockRank)>)> = const { RefCell::new((0, Vec::new())) };
    }

    /// Token pairing one acquisition with its release.
    #[derive(Debug)]
    pub struct LockOrderToken {
        serial: u64,
        /// Set when the dynamic edge observer recorded this acquisition
        /// (see `profile::observe_lock_edges`); the drop must pair it.
        edge: Option<LockRank>,
    }

    pub fn acquired(rank: LockRank) -> LockOrderToken {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(_, top)) = h.1.last() {
                assert!(
                    top < rank,
                    "lock-order violation: acquiring {rank:?} while holding {:?} \
                     (declared order requires strictly ascending ranks)",
                    h.1.iter().map(|&(_, r)| r).collect::<Vec<_>>(),
                );
            }
            h.0 += 1;
            let serial = h.0;
            h.1.push((serial, rank));
            LockOrderToken { serial, edge: crate::profile::edge_acquired(rank).then_some(rank) }
        })
    }

    impl Drop for LockOrderToken {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut h = h.borrow_mut();
                if let Some(pos) = h.1.iter().rposition(|&(s, _)| s == self.serial) {
                    h.1.remove(pos);
                }
            });
            if let Some(rank) = self.edge {
                crate::profile::edge_released(rank);
            }
        }
    }

    /// Ranks currently held by this thread (tests/diagnostics).
    pub fn held() -> Vec<LockRank> {
        HELD.with(|h| h.borrow().1.iter().map(|&(_, r)| r).collect())
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    use super::LockRank;

    /// Token pairing one acquisition with its release. In release the
    /// order assertion compiles to nothing; only the (off-by-default)
    /// dynamic edge observer remains, costing one relaxed load when
    /// disabled.
    #[derive(Debug)]
    pub struct LockOrderToken {
        edge: Option<LockRank>,
    }

    #[inline(always)]
    pub fn acquired(rank: LockRank) -> LockOrderToken {
        LockOrderToken { edge: crate::profile::edge_acquired(rank).then_some(rank) }
    }

    impl Drop for LockOrderToken {
        #[inline]
        fn drop(&mut self) {
            if let Some(rank) = self.edge {
                crate::profile::edge_released(rank);
            }
        }
    }

    /// Ranks currently held by this thread (always empty in release).
    #[inline(always)]
    pub fn held() -> Vec<LockRank> {
        Vec::new()
    }
}

pub use imp::{acquired, held, LockOrderToken};

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn ascending_ranks_pass() {
        let a = acquired(LockRank::VecState);
        let b = acquired(LockRank::DmshMeta);
        let c = acquired(LockRank::Mailbox);
        assert_eq!(held(), vec![LockRank::VecState, LockRank::DmshMeta, LockRank::Mailbox]);
        drop(c);
        drop(b);
        drop(a);
        assert!(held().is_empty());
    }

    #[test]
    fn out_of_order_release_is_fine() {
        let a = acquired(LockRank::RtMeta);
        let b = acquired(LockRank::Resource);
        drop(a); // released before b: tokens track individually
        assert_eq!(held(), vec![LockRank::Resource]);
        drop(b);
        assert!(held().is_empty());
    }

    #[test]
    fn descending_acquisition_panics() {
        let out = std::panic::catch_unwind(|| {
            let _a = acquired(LockRank::DmshMeta);
            let _b = acquired(LockRank::VecState); // violation
        });
        assert!(out.is_err(), "descending rank must panic in debug builds");
        assert!(held().is_empty(), "unwind must clear the stack");
    }

    #[test]
    fn same_rank_nesting_panics() {
        let out = std::panic::catch_unwind(|| {
            let _a = acquired(LockRank::ApplyShard);
            let _b = acquired(LockRank::ApplyShard);
        });
        assert!(out.is_err(), "same-rank nesting is forbidden (one shard at a time)");
    }

    #[test]
    fn fresh_thread_starts_empty() {
        let _a = acquired(LockRank::DmshMeta);
        std::thread::spawn(|| {
            assert!(held().is_empty());
            let _b = acquired(LockRank::VecState); // fine: per-thread stacks
        })
        .join()
        .unwrap();
    }
}
