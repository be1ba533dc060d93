//! # megammap — a tiered, nonvolatile distributed shared memory
//!
//! This crate is the primary contribution of the reproduction: the MegaMmap
//! DSM from *"MegaMmap: Blurring the Boundary Between Memory and Storage for
//! Data-Intensive Workloads"* (SC'24). It presents out-of-core datasets as
//! shared, byte-addressable vectors ([`MmVec`]) whose pages are cached in a
//! per-process private cache (**pcache**) and a distributed, tiered shared
//! cache (**scache**) managed by a [`Runtime`].
//!
//! The pieces, mapped to the paper:
//!
//! | Paper concept | Module |
//! |---|---|
//! | Shared vector API (`mm::Vector`) | [`vector`] |
//! | Transactional memory hints (`TxBegin`/`TxEnd`, Listing 2) | [`tx`] |
//! | Private cache + copy-on-write diff tracking | [`pcache`], [`pagebuf`], [`rangeset`] |
//! | MemoryTask runtime, worker hashing, low/high-latency pools | [`runtime`] |
//! | Coherence policies (Fig. 3) | [`policy`] |
//! | Prefetcher (Algorithm 1) | [`prefetch`] |
//! | Data Organizer | [`runtime`] + `megammap-tiered` |
//! | Data Stager (HDF5/parquet/POSIX/S3 backends) | [`runtime::stager`] |
//! | YAML deployment configuration | [`config`] |
//!
//! ## Quick example
//!
//! ```
//! use megammap::prelude::*;
//! use megammap_cluster::{Cluster, ClusterSpec};
//!
//! let cluster = Cluster::new(ClusterSpec::new(1, 2));
//! let rt = Runtime::new(&cluster, RuntimeConfig::default());
//! let rt2 = rt.clone();
//! cluster.run(move |p| {
//!     let v: MmVec<f64> =
//!         MmVec::open(&rt2, p, "mem://demo", VecOptions::new().len(64)).unwrap();
//!     v.pgas(p, p.rank(), p.nprocs());
//!     // Each process writes its own partition.
//!     let tx = v.tx_begin(p, TxKind::seq(v.local_off(), v.local_len()), Access::WriteLocal);
//!     for i in v.local_range() {
//!         v.store(p, &tx, i, i as f64 * 2.0);
//!     }
//!     v.tx_end(p, tx);
//!     p.world().barrier(p);
//!     // Everyone reads everything.
//!     let tx = v.tx_begin(p, TxKind::seq(0, v.len()), Access::ReadOnly);
//!     let sum: f64 = (0..v.len()).map(|i| v.load(p, &tx, i)).sum();
//!     v.tx_end(p, tx);
//!     assert_eq!(sum, (0..v.len()).map(|i| i as f64 * 2.0).sum());
//! });
//! ```

pub mod client;
pub mod config;
pub mod element;
pub mod error;
pub mod pagebuf;
pub mod pcache;
pub mod policy;
pub mod prefetch;
pub mod runtime;
pub mod tenant;
pub mod tx;
pub mod txguard;
pub mod vector;

/// Byte-range sets live beside the scache's dirty index in
/// `megammap-tiered`; the pcache's copy-on-write tracker is the same type.
pub use megammap_tiered::rangeset;

pub use client::VecOptions;
pub use config::RuntimeConfig;
pub use element::Element;
pub use error::MmError;
pub use pagebuf::PageBuf;
pub use policy::{Access, Policy, TenantClass};
pub use runtime::Runtime;
pub use tenant::{TenantAccount, TenantId, TenantLedger};
pub use tx::{AccessPattern, Transaction, TxKind};
pub use txguard::TxScope;
pub use vector::MmVec;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::client::VecOptions;
    pub use crate::config::RuntimeConfig;
    pub use crate::element::Element;
    pub use crate::error::MmError;
    pub use crate::policy::{Access, Policy, TenantClass};
    pub use crate::runtime::Runtime;
    pub use crate::tenant::{TenantAccount, TenantId, TenantLedger};
    pub use crate::tx::{AccessPattern, Transaction, TxKind};
    pub use crate::txguard::TxScope;
    pub use crate::vector::MmVec;
}
